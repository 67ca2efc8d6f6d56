// lint: hot-path
//! Element-wise COO MTTKRP — the Tensor-Toolbox-style baseline.
//!
//! For every nonzero `x` with coordinate `(i_1, ..., i_N)` and every rank
//! column `r`, the mode-`n` MTTKRP accumulates
//! `x * prod_{d != n} U^(d)(i_d, r)` into `M(i_n, r)`. The COO formulation
//! performs `N-1` row Hadamard products per nonzero per mode — `N(N-1)`
//! tensor sweeps per CP-ALS iteration — and is the non-memoized reference
//! point every memoization strategy is measured against.
//!
//! Two schedules are provided:
//! * [`mttkrp_seq`] — a single pass over entries in storage order, the
//!   thread-count-independent reference;
//! * [`mttkrp_par_into`] — the scheduled kernel: an nnz-balanced
//!   [`ModeSchedule`] over the groups of a [`SortedModeView`], run by
//!   [`run_schedule`] with all scratch in a caller-owned [`Workspace`].
//!   A one-task schedule is the sequential path and allocates nothing.

use crate::coo::SparseTensor;
use crate::schedule::{run_schedule, ModeSchedule, Workspace};
use crate::sorted::SortedModeView;
use adatm_linalg::kernels;
use adatm_linalg::Mat;

/// Validates factor shapes against a tensor; returns the common rank.
///
/// # Panics
/// Panics on any shape mismatch.
pub fn check_factors(t: &SparseTensor, factors: &[Mat]) -> usize {
    assert_eq!(factors.len(), t.ndim(), "one factor matrix per mode required");
    let rank = factors.first().map_or(0, Mat::ncols);
    for (d, f) in factors.iter().enumerate() {
        assert_eq!(f.nrows(), t.dims()[d], "factor {d} rows must equal mode size");
        assert_eq!(f.ncols(), rank, "factor {d} rank mismatch");
    }
    rank
}

/// Sequential COO MTTKRP into a fresh `I_mode x R` matrix.
pub fn mttkrp_seq(t: &SparseTensor, factors: &[Mat], mode: usize) -> Mat {
    let rank = check_factors(t, factors);
    let mut m = Mat::zeros(t.dims()[mode], rank);
    mttkrp_seq_into(t, factors, mode, &mut m);
    m
}

/// Sequential COO MTTKRP into a caller-provided output (zeroed first).
#[adatm::hot]
pub fn mttkrp_seq_into(t: &SparseTensor, factors: &[Mat], mode: usize, out: &mut Mat) {
    let rank = check_factors(t, factors);
    assert_eq!(out.nrows(), t.dims()[mode], "output rows mismatch");
    assert_eq!(out.ncols(), rank, "output rank mismatch");
    out.fill_zero();
    // Only orders of 5 and up run through a scratch row; an empty Vec
    // does not allocate.
    let mut scratch = vec![0.0f64; if t.ndim() >= 5 { rank } else { 0 }];
    for k in 0..t.nnz() {
        let orow = out.row_mut(t.mode_idx(mode)[k] as usize);
        accumulate_entry(t, factors, mode, k, &mut scratch, orow);
    }
}

/// Accumulates the contribution of entry `k` into `orow`, using `srow`
/// as the Hadamard scratch row.
///
/// Orders 2–4 take a fully fused single-pass path (`orow += val ⊙ rows`,
/// no scratch traffic at all); higher orders fuse the value seed into the
/// first factor pass and the accumulation into the last — `N - 1`
/// rank-length passes instead of `N + 1`. All paths multiply factor rows
/// in ascending mode index, left-to-right, so results are bitwise
/// identical to the unfused form.
#[inline]
fn accumulate_entry(
    t: &SparseTensor,
    factors: &[Mat],
    mode: usize,
    k: usize,
    srow: &mut [f64],
    orow: &mut [f64],
) {
    let val = t.vals()[k];
    let ndim = factors.len();
    let row_of = |d: usize| factors[d].row(t.mode_idx(d)[k] as usize);
    match ndim {
        2 => kernels::axpy(orow, val, row_of(1 - mode)),
        3 => {
            let (a, b) = other_modes3(mode);
            kernels::axpy2(orow, val, row_of(a), row_of(b));
        }
        4 => {
            let (a, b, c) = other_modes4(mode);
            kernels::axpy3(orow, val, row_of(a), row_of(b), row_of(c));
        }
        _ => {
            let last = if mode == ndim - 1 { ndim - 2 } else { ndim - 1 };
            let mut seeded = false;
            for (d, f) in factors.iter().enumerate() {
                if d == mode || d == last {
                    continue;
                }
                let frow = f.row(t.mode_idx(d)[k] as usize);
                if seeded {
                    kernels::mul_assign(srow, frow);
                } else {
                    kernels::scale(srow, val, frow);
                    seeded = true;
                }
            }
            kernels::muladd_assign(orow, srow, row_of(last));
        }
    }
}

/// The two non-`mode` modes of an order-3 tensor, ascending.
#[inline]
fn other_modes3(mode: usize) -> (usize, usize) {
    match mode {
        0 => (1, 2),
        1 => (0, 2),
        _ => (0, 1),
    }
}

/// The three non-`mode` modes of an order-4 tensor, ascending.
#[inline]
fn other_modes4(mode: usize) -> (usize, usize, usize) {
    match mode {
        0 => (1, 2, 3),
        1 => (0, 2, 3),
        2 => (0, 1, 3),
        _ => (0, 1, 2),
    }
}

/// Builds the nnz-balanced schedule for a sorted view, balanced for
/// `threads` workers. Backends cache the result per (tensor, mode).
pub fn schedule_for_view(view: &SortedModeView, threads: usize) -> ModeSchedule {
    ModeSchedule::build(&view.group_weights(), threads)
}

/// Parallel COO MTTKRP using a prebuilt [`SortedModeView`] for `mode`.
///
/// Convenience wrapper over [`mttkrp_par_into`] that builds a schedule
/// for the current thread count and a throwaway workspace. Hot paths
/// (backends, CP-ALS) should cache both and call `mttkrp_par_into`.
///
/// # Panics
/// Panics if `view.mode() != mode` or on factor-shape mismatch.
pub fn mttkrp_par(t: &SparseTensor, factors: &[Mat], mode: usize, view: &SortedModeView) -> Mat {
    let rank = check_factors(t, factors);
    let sched = schedule_for_view(view, rayon::current_num_threads());
    let mut ws = Workspace::new();
    let mut m = Mat::zeros(t.dims()[mode], rank);
    mttkrp_par_into(t, factors, mode, view, &sched, &mut ws, &mut m);
    m
}

/// Scheduled COO MTTKRP into a caller-provided output.
///
/// `sched` must have been built from `view`'s group weights (see
/// [`schedule_for_view`]); `ws` provides all scratch memory. Each group
/// zeroes its output row and accumulates its entries into it, in view
/// order, through [`run_schedule`], which zeroes the rows no group owns,
/// runs the tasks and merges split groups: no heap allocation when the
/// schedule has one task, O(tasks) (never O(nnz)) otherwise.
///
/// # Panics
/// Panics if `view.mode() != mode`, on factor-shape mismatch, or if
/// `out` has the wrong shape.
#[adatm::hot]
pub fn mttkrp_par_into(
    t: &SparseTensor,
    factors: &[Mat],
    mode: usize,
    view: &SortedModeView,
    sched: &ModeSchedule,
    ws: &mut Workspace,
    out: &mut Mat,
) {
    let rank = check_factors(t, factors);
    assert_eq!(view.mode(), mode, "sorted view is for a different mode");
    assert_eq!(out.nrows(), t.dims()[mode], "output rows mismatch");
    assert_eq!(out.ncols(), rank, "output rank mismatch");
    run_schedule(
        Some(sched),
        ws,
        rank,
        out,
        view.num_groups(),
        |g| view.key(g) as usize,
        #[inline(always)]
        |g, elems, row, srow| {
            let entries = view.group(g);
            row.fill(0.0);
            for &e in elems.map_or(entries, |r| &entries[r]) {
                accumulate_entry(t, factors, mode, e as usize, srow, row);
            }
        },
    );
}

/// Total fused multiply-add count of one COO MTTKRP in one mode
/// (`nnz * (N-1) * R` multiplies plus `nnz * R` adds), used by the cost
/// model and the operation-count experiments.
pub fn flops_per_mode(t: &SparseTensor, rank: usize) -> usize {
    t.nnz() * rank * t.ndim()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseTensor;

    fn toy4() -> SparseTensor {
        SparseTensor::from_entries(
            vec![4, 3, 5, 2],
            &[
                (vec![0, 1, 2, 1], 1.0),
                (vec![1, 2, 3, 0], 2.0),
                (vec![2, 0, 0, 1], 3.0),
                (vec![3, 0, 1, 0], -4.0),
                (vec![0, 1, 0, 1], 5.0),
                (vec![2, 2, 2, 1], 7.0),
                (vec![0, 1, 2, 0], 0.5),
            ],
        )
    }

    fn factors_for(t: &SparseTensor, rank: usize, seed: u64) -> Vec<Mat> {
        t.dims().iter().enumerate().map(|(d, &n)| Mat::random(n, rank, seed + d as u64)).collect()
    }

    #[test]
    fn seq_matches_dense_oracle_all_modes() {
        let t = toy4();
        let dense = DenseTensor::from_sparse(&t);
        let factors = factors_for(&t, 3, 10);
        for mode in 0..4 {
            let m = mttkrp_seq(&t, &factors, mode);
            let m_ref = dense.mttkrp_ref(&factors, mode);
            assert!(m.max_abs_diff(&m_ref) < 1e-12, "mode {mode}");
        }
    }

    #[test]
    fn par_matches_seq_all_modes() {
        let t = toy4();
        let factors = factors_for(&t, 4, 20);
        for mode in 0..4 {
            let view = SortedModeView::build(&t, mode);
            let p = mttkrp_par(&t, &factors, mode, &view);
            let s = mttkrp_seq(&t, &factors, mode);
            assert!(p.max_abs_diff(&s) < 1e-12, "mode {mode}");
        }
    }

    #[test]
    fn empty_slice_rows_stay_zero() {
        let t = SparseTensor::from_entries(vec![5, 2], &[(vec![1, 0], 1.0), (vec![3, 1], 2.0)]);
        let factors = factors_for(&t, 2, 1);
        let m = mttkrp_seq(&t, &factors, 0);
        for &row in &[0usize, 2, 4] {
            assert_eq!(m.row(row), &[0.0, 0.0], "row {row}");
        }
    }

    #[test]
    fn rank_one_ones_factors_gives_slice_sums() {
        let t = toy4();
        let ones: Vec<Mat> = t.dims().iter().map(|&n| Mat::from_vec(n, 1, vec![1.0; n])).collect();
        let m = mttkrp_seq(&t, &ones, 0);
        // With all-ones factors, M(i, 0) is the sum of slice i in mode 0.
        assert!((m.get(0, 0) - (1.0 + 5.0 + 0.5)).abs() < 1e-14);
        assert!((m.get(3, 0) + 4.0).abs() < 1e-14);
    }

    #[test]
    fn mttkrp_into_reuses_buffer() {
        let t = toy4();
        let factors = factors_for(&t, 3, 30);
        let mut out = Mat::zeros(t.dims()[1], 3);
        mttkrp_seq_into(&t, &factors, 1, &mut out);
        let fresh = mttkrp_seq(&t, &factors, 1);
        assert!(out.max_abs_diff(&fresh) < 1e-15);
        // Second call must not accumulate on top of the first.
        mttkrp_seq_into(&t, &factors, 1, &mut out);
        assert!(out.max_abs_diff(&fresh) < 1e-15);
    }

    #[test]
    #[should_panic(expected = "different mode")]
    fn par_rejects_wrong_view() {
        let t = toy4();
        let factors = factors_for(&t, 2, 3);
        let view = SortedModeView::build(&t, 1);
        let _ = mttkrp_par(&t, &factors, 0, &view);
    }

    #[test]
    fn flops_formula() {
        let t = toy4();
        assert_eq!(flops_per_mode(&t, 8), 7 * 8 * 4);
    }

    /// A tensor whose mode-0 index 2 owns most of the nonzeros — forces
    /// the scheduler to split a hot group.
    fn hot_row_tensor() -> SparseTensor {
        let mut entries = Vec::new();
        for k in 0..200 {
            entries.push((vec![2usize, k % 6, k % 4], (k as f64) * 0.25 - 10.0));
        }
        for k in 0..20 {
            entries.push((vec![k % 5, k % 6, k % 4], k as f64 * 0.5));
        }
        SparseTensor::from_entries(vec![5, 6, 4], &entries)
    }

    #[test]
    fn scheduled_matches_seq_with_forced_splits() {
        let t = hot_row_tensor();
        let factors = factors_for(&t, 5, 40);
        for mode in 0..3 {
            let view = SortedModeView::build(&t, mode);
            // Tiny target: every mode ends up with many tasks and the hot
            // mode-0 group splits into privatized sub-tasks.
            let sched = ModeSchedule::build_with_target(&view.group_weights(), 4, 8);
            let mut ws = Workspace::new();
            let mut out = Mat::zeros(t.dims()[mode], 5);
            mttkrp_par_into(&t, &factors, mode, &view, &sched, &mut ws, &mut out);
            let s = mttkrp_seq(&t, &factors, mode);
            assert!(out.max_abs_diff(&s) < 1e-12, "mode {mode}");
        }
    }

    #[test]
    fn scheduled_hot_mode_actually_splits() {
        let t = hot_row_tensor();
        let view = SortedModeView::build(&t, 0);
        let sched = ModeSchedule::build_with_target(&view.group_weights(), 4, 8);
        assert!(!sched.splits().is_empty(), "hot group should be split");
    }

    #[test]
    fn scheduled_runs_are_deterministic() {
        let t = hot_row_tensor();
        let factors = factors_for(&t, 6, 50);
        let view = SortedModeView::build(&t, 0);
        let sched = ModeSchedule::build_with_target(&view.group_weights(), 4, 8);
        let mut ws = Workspace::new();
        let mut a = Mat::zeros(t.dims()[0], 6);
        let mut b = Mat::zeros(t.dims()[0], 6);
        mttkrp_par_into(&t, &factors, 0, &view, &sched, &mut ws, &mut a);
        mttkrp_par_into(&t, &factors, 0, &view, &sched, &mut ws, &mut b);
        // Same schedule, same workspace: bitwise-identical output.
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn workspace_reuse_across_modes_and_shapes() {
        let t = toy4();
        let factors = factors_for(&t, 4, 70);
        let mut ws = Workspace::new();
        for mode in 0..4 {
            let view = SortedModeView::build(&t, mode);
            let sched = ModeSchedule::build_with_target(&view.group_weights(), 2, 2);
            let mut out = Mat::zeros(t.dims()[mode], 4);
            mttkrp_par_into(&t, &factors, mode, &view, &sched, &mut ws, &mut out);
            let s = mttkrp_seq(&t, &factors, mode);
            assert!(out.max_abs_diff(&s) < 1e-12, "mode {mode}");
        }
    }
}
