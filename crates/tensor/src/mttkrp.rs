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
//! * [`mttkrp_seq`] — a single pass over entries in storage order;
//! * [`mttkrp_par_into`] — the scheduled parallel kernel: an
//!   nnz-balanced [`ModeSchedule`] assigns contiguous group runs (and
//!   privatized sub-ranges of oversized groups) to tasks that write
//!   disjoint `out` row spans directly, with all scratch living in a
//!   caller-owned [`Workspace`] — zero steady-state heap allocations on
//!   the sequential path, and per-call allocations bounded by the task
//!   count (never the nnz) on the parallel path.

use crate::coo::SparseTensor;
use crate::schedule::{ModeSchedule, Task, Workspace};
use crate::sorted::SortedModeView;
use adatm_linalg::kernels;
use adatm_linalg::Mat;
use rayon::prelude::*;

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
    let mut scratch = vec![0.0f64; rank];
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

/// One scheduled task's slice of the output: either a contiguous span of
/// `out` rows (Owned) or a privatized slot row (Split), plus a scratch row.
struct TaskCtx<'a> {
    task: &'a Task,
    /// Output span (Owned: rows `row0..`, row-major) or one slot row.
    buf: &'a mut [f64],
    /// First output row covered by `buf` (Owned tasks only).
    row0: usize,
    srow: &'a mut [f64],
}

/// Scheduled parallel COO MTTKRP into a caller-provided output.
///
/// `sched` must have been built from `view`'s group weights (see
/// [`schedule_for_view`]); `ws` provides all scratch memory. The kernel
/// performs **no heap allocation** when the schedule is sequential, and
/// allocates only the per-task context vector (O(tasks), independent of
/// nnz) on the parallel path.
///
/// Race-freedom: tasks are ordered by ascending group index and groups
/// map to strictly ascending output rows, so consecutive `split_at_mut`
/// calls hand each Owned task a disjoint row span of `out`; Split tasks
/// write privatized slot rows that are merged per-row afterwards. With
/// the `audit` feature the claim is re-checked at runtime.
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
    if rank == 0 || sched.num_tasks() == 0 {
        out.fill_zero();
        return;
    }
    #[cfg(feature = "audit")]
    audit_schedule_claims(view, sched, out.nrows());
    let (scratch, slots) = ws.ensure(sched.num_tasks() * rank, sched.num_slots() * rank);
    if sched.is_sequential() {
        // Allocation-free steady state: one pass over the groups with a
        // single workspace scratch row.
        out.fill_zero();
        let srow = &mut scratch[..rank];
        for g in 0..view.num_groups() {
            let orow = out.row_mut(view.key(g) as usize);
            for &e in view.group(g) {
                accumulate_entry(t, factors, mode, e as usize, srow, orow);
            }
        }
        return;
    }
    // Carve the output into disjoint &mut row spans, one per Owned task,
    // walking `out` left to right (tasks are ordered by group index).
    // There is no up-front zeroing pass: each span starts at the first
    // not-yet-claimed row, so gap rows (absent mode indices and rows
    // privatized by earlier Split tasks) are zeroed by the task that owns
    // the enclosing span, in parallel, while group rows are written by
    // first-touch assignment.
    let mut ctxs: Vec<TaskCtx<'_>> = Vec::with_capacity(sched.num_tasks());
    let mut out_rest = out.as_mut_slice();
    let mut consumed_rows = 0usize;
    let mut slots_rest = &mut slots[..];
    let mut scratch_rest = &mut scratch[..];
    for task in sched.tasks() {
        let (srow, rest) = std::mem::take(&mut scratch_rest).split_at_mut(rank);
        scratch_rest = rest;
        match task {
            Task::Owned { groups } => {
                let last = view.key(groups.end - 1) as usize;
                let tail = std::mem::take(&mut out_rest);
                let (span, rest) = tail.split_at_mut((last + 1 - consumed_rows) * rank);
                out_rest = rest;
                ctxs.push(TaskCtx { task, buf: span, row0: consumed_rows, srow });
                consumed_rows = last + 1;
            }
            Task::Split { .. } => {
                // Slot ids are assigned in task order, so slot rows are
                // consumed in order too. The split group's output row is
                // zeroed by a later Owned span (or the trailing fill) and
                // overwritten by the merge below.
                let (row, rest) = std::mem::take(&mut slots_rest).split_at_mut(rank);
                slots_rest = rest;
                ctxs.push(TaskCtx { task, buf: row, row0: 0, srow });
            }
        }
    }
    ctxs.into_par_iter().for_each(|ctx| {
        let TaskCtx { task, buf, row0, srow } = ctx;
        match task {
            Task::Owned { groups } => {
                let mut cursor = row0;
                for g in groups.clone() {
                    let key = view.key(g) as usize;
                    buf[(cursor - row0) * rank..(key - row0) * rank].fill(0.0);
                    let off = (key - row0) * rank;
                    let orow = &mut buf[off..off + rank];
                    if let Some((&e0, rest)) = view.group(g).split_first() {
                        assign_entry(t, factors, mode, e0 as usize, srow, orow);
                        for &e in rest {
                            accumulate_entry(t, factors, mode, e as usize, srow, orow);
                        }
                    } else {
                        orow.fill(0.0);
                    }
                    cursor = key + 1;
                }
                buf[(cursor - row0) * rank..].fill(0.0);
            }
            Task::Split { group, elems, .. } => {
                for &e in &view.group(*group)[elems.clone()] {
                    accumulate_entry(t, factors, mode, e as usize, srow, buf);
                }
            }
        }
    });
    // Rows past the last Owned span (trailing absent indices and trailing
    // split rows) were never handed to a task.
    out_rest.fill(0.0);
    // Merge each split group's privatized slot rows into its output row —
    // a per-row reduction, not a per-matrix one. The first slot assigns
    // (the row was only gap-zeroed), the rest accumulate.
    for sp in sched.splits() {
        let orow = out.row_mut(view.key(sp.group) as usize);
        for s in 0..sp.nslots {
            let srow = &slots[(sp.slot0 + s) * rank..(sp.slot0 + s + 1) * rank];
            if s == 0 {
                orow.copy_from_slice(srow);
            } else {
                kernels::add_assign(orow, srow);
            }
        }
    }
}

/// Re-checks the schedule's disjoint-write claim against the view.
#[cfg(feature = "audit")]
fn audit_schedule_claims(view: &SortedModeView, sched: &ModeSchedule, nrows: usize) {
    let owned = sched.tasks().iter().flat_map(|task| {
        let groups = match task {
            Task::Owned { groups } => groups.clone(),
            Task::Split { .. } => 0..0,
        };
        groups.map(|g| view.key(g) as usize)
    });
    let split = sched.splits().iter().map(|sp| (view.key(sp.group) as usize, sp.nslots));
    crate::audit::assert_schedule_claims(owned, split, nrows, "mttkrp_par");
}

/// [`accumulate_entry`]'s first-touch form: *assigns* the contribution
/// of entry `k` to `orow` instead of adding it. Used for the first entry
/// of each group on the parallel path so output rows never need a
/// separate zeroing pass (identical products, so results match the
/// accumulate-into-zero form bitwise up to the sign of zero).
#[inline]
fn assign_entry(
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
        2 => kernels::scale(orow, val, row_of(1 - mode)),
        3 => {
            let (a, b) = other_modes3(mode);
            kernels::scale2(orow, val, row_of(a), row_of(b));
        }
        4 => {
            let (a, b, c) = other_modes4(mode);
            kernels::scale3(orow, val, row_of(a), row_of(b), row_of(c));
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
            kernels::mul_into(orow, srow, row_of(last));
        }
    }
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
