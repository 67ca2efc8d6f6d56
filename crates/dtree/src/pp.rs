//! Pairwise-perturbation (PP) approximate MTTKRP sweeps.
//!
//! Near convergence, CP-ALS factor matrices move very little between
//! iterations. Ma & Solomonik's pairwise-perturbation scheme exploits
//! this: at a *refresh* point (the last exact sweep) it memoizes, for
//! every unordered mode pair `{a, b}`, the order-two intermediate
//! `T^{(a,b)} = X ×_{d ∉ {a,b}} U_p^{(d)}` — a value matrix over the
//! distinct `(i_a, i_b)` tuples of the nonzeros — plus each mode's exact
//! MTTKRP `M_p^{(n)}` at the baseline factors `U_p`. A later approximate
//! sweep then reconstructs mode `n`'s MTTKRP without touching the tensor:
//!
//! ```text
//! M^{(n)} ≈ M_p^{(n)} + Σ_{j≠n} T^{(n,j)} ×_j (U^{(j)} - U_p^{(j)})
//! ```
//!
//! The error is *second order* in the factor deltas (every dropped term
//! carries at least two deltas), so while the per-iteration factor
//! movement stays below the driver's entry threshold, approximate sweeps
//! are safe — and they cost one streaming rank-blocked pass per pair
//! instead of a full dimension-tree traversal over the nonzeros.
//!
//! Three sparse-specific refinements keep the corrections cheap:
//!
//! * **Single-precision memos.** Pair-memo value rows are stored in
//!   `f32` and widened at the multiply. The memo feeds an *approximate*
//!   kernel whose intrinsic (second-order) error is many orders above
//!   `f32` rounding, and the memo stream is the dominant traffic of a
//!   sweep on a bandwidth-bound machine — halving its bytes buys almost
//!   a 2x sweep speedup for a ~1e-7 relative baseline perturbation.
//! * **Large-mode-major layout.** Each pair memo is sorted with the
//!   larger-dimension mode as the primary key. Whichever of the two
//!   corrections is being applied, the matrix belonging to the *large*
//!   mode (delta or output) is then visited in streaming order while the
//!   small mode's rows — which fit in cache — take the random accesses.
//! * **Column-block skipping.** ALS rank components stabilize at
//!   different rates. Deltas are tracked per 8-column block, and a
//!   correction block whose delta norm is below `skip_tol` times the
//!   baseline factor's block norm is skipped: the error this introduces
//!   is first order in a quantity already below the skip threshold.
//!
//! The driver in `adatm-core` owns entry/exit policy (thresholds, forced
//! exact sweeps, invalidation on recoveries and checkpoints); this module
//! is pure state + kernels and is deterministic for a fixed refresh
//! point regardless of thread count.

use crate::symbolic::{build_node, SymbolicNode};
use adatm_linalg::{kernels, Mat};
use adatm_tensor::coo::Idx;
use adatm_tensor::SparseTensor;
use rayon::prelude::*;

/// Column-block width for delta tracking and correction skipping.
const PP_COL_BLOCK: usize = 8;

/// Elements per parallel chunk when recomputing pair memos at refresh.
const PP_REFRESH_CHUNK: usize = 1024;

/// One memoized pair intermediate `T^{(a,b)}`.
struct PairMemo {
    /// `(primary, secondary)` mode ids; elements are sorted primary-major
    /// and `primary` is the larger-dimension mode of the pair.
    modes: (usize, usize),
    /// Distinct `(i_primary, i_secondary)` tuples plus the reduction sets
    /// mapping them back to tensor entries.
    node: SymbolicNode,
    /// `len x R` value rows (row-major), written at refresh. Stored in
    /// single precision — see the module docs.
    vals: Vec<f32>,
}

impl PairMemo {
    fn column(&self, mode: usize) -> usize {
        if self.modes.0 == mode {
            0
        } else {
            debug_assert_eq!(self.modes.1, mode);
            1
        }
    }
}

/// Per-sweep correction statistics: `(applied, skipped)` column-block
/// scans since the last [`PpState::reset_sweep_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Column-block correction scans actually applied.
    pub applied: u64,
    /// Column-block correction scans skipped as below the delta
    /// threshold.
    pub skipped: u64,
}

/// Memoized pairwise-perturbation state for one tensor.
///
/// Build once per tensor with [`PpState::new`], then [`PpState::refresh`]
/// at an exact sweep to (re)capture the baseline, and
/// [`PpState::pp_mttkrp_into`] to reconstruct per-mode MTTKRPs during
/// approximate sweeps. All buffers are allocated up front: refresh and
/// the per-sweep kernels are allocation-free in steady state apart from
/// bounded per-call bookkeeping.
pub struct PpState {
    rank: usize,
    dims: Vec<usize>,
    pairs: Vec<PairMemo>,
    /// Exact MTTKRP of every mode at the baseline factors.
    baseline_mttkrp: Vec<Mat>,
    /// The baseline factors `U_p` themselves.
    baseline_factors: Vec<Mat>,
    /// Per-mode, per-column-block Frobenius norms of the baseline.
    baseline_norms: Vec<Vec<f64>>,
    /// Current deltas `U - U_p`, recomputed lazily per mode.
    deltas: Vec<Mat>,
    /// Per-mode, per-column-block Frobenius norms of the deltas.
    delta_norms: Vec<Vec<f64>>,
    /// Modes whose delta is stale relative to the caller's factors.
    dirty: Vec<bool>,
    /// True between a refresh and the next invalidation.
    fresh: bool,
    /// Relative per-block delta threshold below which a correction
    /// block is skipped (0 disables skipping of any moving block).
    skip_tol: f64,
    /// Scratch: merged active column runs for the current correction.
    runs: Vec<(usize, usize)>,
    /// Scratch: second run list for the fused double scan.
    runs2: Vec<(usize, usize)>,
    /// Scratch row for the general (order != 3..=5) refresh contraction.
    scratch: Vec<f64>,
    stats: SweepStats,
}

/// Triangular index of unordered pair `{a, b}` (`a != b`) among `n` modes.
fn pair_id(n: usize, a: usize, b: usize) -> usize {
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    lo * (2 * n - lo - 1) / 2 + (hi - lo - 1)
}

/// Number of 8-column blocks covering `rank` columns.
fn num_blocks(rank: usize) -> usize {
    rank.div_ceil(PP_COL_BLOCK)
}

/// Per-column-block Frobenius norms of `m` into `out`.
fn block_norms(m: &Mat, out: &mut [f64]) {
    let rank = m.ncols();
    out.fill(0.0);
    for row in m.as_slice().chunks(rank) {
        for (b, cols) in row.chunks(PP_COL_BLOCK).enumerate() {
            let mut s = 0.0;
            for &v in cols {
                s += v * v;
            }
            out[b] += s;
        }
    }
    for v in out.iter_mut() {
        *v = v.sqrt();
    }
}

/// One correction (or baseline-build) scan of a pair memo: for every
/// element, `out.row(i_own) += vals.row(e) ⊙ other.row(i_oth)` restricted
/// to the active column runs. The element order is the memo's
/// primary-major sort, so the larger mode's matrix streams while the
/// smaller mode's rows stay cache-resident; the fixed order also makes
/// the accumulation bitwise deterministic.
#[adatm::hot]
#[allow(clippy::too_many_arguments)]
fn apply_scan(
    node: &SymbolicNode,
    vals: &[f32],
    own_col: usize,
    oth_col: usize,
    other: &Mat,
    out: &mut Mat,
    runs: &[(usize, usize)],
    rank: usize,
) {
    let own_idx: &[Idx] = &node.idx[own_col];
    let oth_idx: &[Idx] = &node.idx[oth_col];
    if runs.len() == 1 && runs[0] == (0, rank) {
        for (e, vrow) in vals.chunks(rank).enumerate() {
            let orow = other.row(oth_idx[e] as usize);
            kernels::muladd_assign_f32(out.row_mut(own_idx[e] as usize), vrow, orow);
        }
    } else {
        for (e, vrow) in vals.chunks(rank).enumerate() {
            let orow = other.row(oth_idx[e] as usize);
            let drow = out.row_mut(own_idx[e] as usize);
            for &(c0, c1) in runs {
                kernels::muladd_assign_f32(&mut drow[c0..c1], &vrow[c0..c1], &orow[c0..c1]);
            }
        }
    }
}

/// Applies one correction restricted to `runs` onto `row`.
#[inline]
fn apply_runs(row: &mut [f64], vrow: &[f32], orow: &[f64], runs: &[(usize, usize)], full: bool) {
    if full {
        kernels::muladd_assign_f32(row, vrow, orow);
    } else {
        for &(c0, c1) in runs {
            kernels::muladd_assign_f32(&mut row[c0..c1], &vrow[c0..c1], &orow[c0..c1]);
        }
    }
}

/// Fused double scan of one pair memo: a single streaming pass over the
/// value rows applies BOTH of the pair's corrections — the primary
/// mode's output from the secondary delta and vice versa — so the memo
/// (the dominant traffic on a bandwidth-bound machine) is read once per
/// sweep instead of twice. Per-row accumulation order matches two
/// back-to-back [`apply_scan`] calls exactly, so results are bitwise
/// identical to the unfused per-mode path at the same factors.
#[adatm::hot]
#[allow(clippy::too_many_arguments)]
fn apply_scan_fused(
    node: &SymbolicNode,
    vals: &[f32],
    delta_s: &Mat,
    out_p: &mut Mat,
    delta_p: &Mat,
    out_s: &mut Mat,
    runs_p: &[(usize, usize)],
    runs_s: &[(usize, usize)],
    rank: usize,
) {
    let p_idx: &[Idx] = &node.idx[0];
    let s_idx: &[Idx] = &node.idx[1];
    let full_p = runs_p.len() == 1 && runs_p[0] == (0, rank);
    let full_s = runs_s.len() == 1 && runs_s[0] == (0, rank);
    for (e, vrow) in vals.chunks(rank).enumerate() {
        let ip = p_idx[e] as usize;
        let is = s_idx[e] as usize;
        if !runs_p.is_empty() {
            apply_runs(out_p.row_mut(ip), vrow, delta_s.row(is), runs_p, full_p);
        }
        if !runs_s.is_empty() {
            apply_runs(out_s.row_mut(is), vrow, delta_p.row(ip), runs_s, full_s);
        }
    }
}

/// Accumulates one tensor entry's contribution `val ⊙ (other-mode rows)`
/// into a pair-memo value row. Mirrors the fused dispatch of the tree
/// TTMV kernels so the arithmetic order is fixed.
#[inline]
fn vals_contrib(val: f64, ofacs: &[&Mat], rows: &[usize], scratch: &mut [f64], row: &mut [f64]) {
    let frow = |d: usize| ofacs[d].row(rows[d]);
    match ofacs.len() {
        1 => kernels::axpy(row, val, frow(0)),
        2 => kernels::axpy2(row, val, frow(0), frow(1)),
        3 => kernels::axpy3(row, val, frow(0), frow(1), frow(2)),
        _ => {
            scratch.iter_mut().for_each(|s| *s = val);
            for d in 0..ofacs.len() {
                kernels::mul_assign(scratch, frow(d));
            }
            kernels::add_assign(row, scratch);
        }
    }
}

/// Recomputes one pair memo's value rows for the element range
/// `[e0, e0 + rows)` from the tensor entries in each reduction set.
/// Each row is accumulated in double precision (`acc`) and rounded to
/// the single-precision slab once, so only the storage — not the
/// reduction — loses precision.
#[adatm::hot]
#[allow(clippy::too_many_arguments)]
fn refresh_chunk(
    slab: &mut [f32],
    e0: usize,
    rank: usize,
    node: &SymbolicNode,
    tvals: &[f64],
    ocols: &[&[Idx]],
    ofacs: &[&Mat],
    acc: &mut [f64],
    scratch: &mut [f64],
) {
    let mut rows = [0usize; 8];
    let nf = ofacs.len();
    for (k, row) in slab.chunks_mut(rank).enumerate() {
        acc.fill(0.0);
        let e = e0 + k;
        let set = node.rptr[e]..node.rptr[e + 1];
        if node.sequential {
            for t in set {
                for (d, col) in ocols.iter().enumerate() {
                    rows[d] = col[t] as usize;
                }
                vals_contrib(tvals[t], ofacs, &rows[..nf], scratch, acc);
            }
        } else {
            for &t in &node.rperm[set] {
                let t = t as usize;
                for (d, col) in ocols.iter().enumerate() {
                    rows[d] = col[t] as usize;
                }
                vals_contrib(tvals[t], ofacs, &rows[..nf], scratch, acc);
            }
        }
        for (o, &v) in row.iter_mut().zip(acc.iter()) {
            *o = v as f32;
        }
    }
}

impl PpState {
    /// One-time symbolic analysis: builds every pair memo's index
    /// structure and allocates all numeric buffers. Call
    /// [`PpState::refresh`] before the first approximate sweep.
    ///
    /// # Panics
    /// Panics if the tensor has fewer than two modes, more than eight
    /// non-pair modes per pair (order > 10), or `rank == 0`.
    pub fn new(t: &SparseTensor, rank: usize) -> Self {
        let n = t.ndim();
        assert!(n >= 2, "pairwise perturbation needs at least two modes");
        assert!(n <= 10, "pair contraction supports at most 8 non-pair modes");
        assert!(rank > 0, "rank must be positive");
        let dims = t.dims().to_vec();
        let mut pairs = Vec::with_capacity(n * (n - 1) / 2);
        for a in 0..n {
            for b in a + 1..n {
                // Larger-dimension mode is the primary sort key so every
                // correction streams the big matrix (see module docs).
                let (p, s) = if dims[b] > dims[a] { (b, a) } else { (a, b) };
                let cols = [(t.mode_idx(p), dims[p]), (t.mode_idx(s), dims[s])];
                let node = build_node(&cols, &[0, 1], t.nnz());
                let vals = vec![0.0f32; node.len * rank];
                pairs.push(PairMemo { modes: (p, s), node, vals });
            }
        }
        let nb = num_blocks(rank);
        PpState {
            rank,
            baseline_mttkrp: dims.iter().map(|&d| Mat::zeros(d, rank)).collect(),
            baseline_factors: dims.iter().map(|&d| Mat::zeros(d, rank)).collect(),
            baseline_norms: vec![vec![0.0; nb]; n],
            deltas: dims.iter().map(|&d| Mat::zeros(d, rank)).collect(),
            delta_norms: vec![vec![0.0; nb]; n],
            dirty: vec![false; n],
            fresh: false,
            skip_tol: 0.0,
            runs: Vec::with_capacity(nb),
            runs2: Vec::with_capacity(nb),
            scratch: vec![0.0; rank],
            stats: SweepStats::default(),
            dims,
            pairs,
        }
    }

    /// Number of modes.
    pub fn ndim(&self) -> usize {
        self.dims.len()
    }

    /// Decomposition rank the state was built for.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Distinct `(i_a, i_b)` tuples of pair `{a, b}`.
    pub fn pair_len(&self, a: usize, b: usize) -> usize {
        self.pairs[pair_id(self.dims.len(), a, b)].node.len
    }

    /// Sets the relative per-block delta threshold below which a
    /// correction block is skipped. `0.0` still skips exactly-unchanged
    /// blocks (their correction is identically zero).
    pub fn set_skip_tol(&mut self, tol: f64) {
        assert!(tol.is_finite() && tol >= 0.0, "skip_tol must be finite and nonnegative");
        self.skip_tol = tol;
    }

    /// True between a [`PpState::refresh`] and the next
    /// [`PpState::invalidate`].
    pub fn is_fresh(&self) -> bool {
        self.fresh
    }

    /// Marks the baseline stale; the next approximate sweep must be
    /// preceded by a refresh at an exact sweep.
    pub fn invalidate(&mut self) {
        self.fresh = false;
    }

    /// Marks `mode`'s delta stale after its factor matrix changed.
    pub fn note_factor_updated(&mut self, mode: usize) {
        self.dirty[mode] = true;
    }

    /// Zeroes the per-sweep correction counters.
    pub fn reset_sweep_stats(&mut self) {
        self.stats = SweepStats::default();
    }

    /// Applied/skipped correction-block counts since the last reset.
    pub fn sweep_stats(&self) -> SweepStats {
        self.stats
    }

    /// Analytic work units of one full approximate sweep (all modes):
    /// baseline copy plus delta upkeep (`2·I_n·R` per mode) plus every
    /// pair correction (`2·R` per pair element, each pair serving both
    /// of its modes). The calibration probe and the planner's
    /// `pp_update` cost class both use this accounting.
    pub fn sweep_units(&self) -> f64 {
        let r = self.rank as f64;
        let copies: f64 = self.dims.iter().map(|&d| 2.0 * d as f64 * r).sum();
        let scans: f64 = self.pairs.iter().map(|p| 2.0 * 2.0 * r * p.node.len as f64).sum();
        copies + scans
    }

    /// Heap bytes held by the pair memos and baselines (structure and
    /// values), for memory accounting.
    pub fn memory_bytes(&self) -> usize {
        let mat = |m: &Mat| std::mem::size_of_val(m.as_slice());
        let mut total = 0;
        for p in &self.pairs {
            total += p.vals.len() * std::mem::size_of::<f32>();
            total += p.node.idx.iter().map(|c| c.len() * 4).sum::<usize>();
            total += p.node.rptr.len() * 8 + p.node.rperm.len() * 4;
        }
        total += self.baseline_mttkrp.iter().map(mat).sum::<usize>();
        total += self.baseline_factors.iter().map(mat).sum::<usize>();
        total += self.deltas.iter().map(mat).sum::<usize>();
        total
    }

    /// Recaptures the baseline at the current factors: recomputes every
    /// pair memo from the tensor, the exact baseline MTTKRPs, and the
    /// baseline block norms; zeroes the deltas. Must be called while the
    /// factors are exactly the ones an exact sweep just produced.
    ///
    /// # Panics
    /// Panics on factor shape mismatch.
    pub fn refresh(&mut self, t: &SparseTensor, factors: &[Mat]) {
        self.check_factors(factors);
        let n = self.dims.len();
        let rank = self.rank;
        for p in &mut self.pairs {
            let (a, b) = p.modes;
            // Fixed per-pair bookkeeping (≤ 8 entries each): the borrowed
            // column/factor slices for the non-pair modes.
            let other: Vec<usize> = (0..n).filter(|&d| d != a && d != b).collect();
            let ocols: Vec<&[Idx]> = other.iter().map(|&d| t.mode_idx(d)).collect();
            let ofacs: Vec<&Mat> = other.iter().map(|&d| &factors[d]).collect();
            let tvals = t.vals();
            if (1..=3).contains(&other.len()) {
                // Fused contraction, no scratch: static chunks keep the
                // result identical for every thread count. The per-chunk
                // f64 accumulator row is the only allocation.
                let node = &p.node;
                p.vals.par_chunks_mut(PP_REFRESH_CHUNK * rank).enumerate().for_each(
                    |(ci, slab)| {
                        let mut acc = vec![0.0f64; rank];
                        let mut scratch = [0.0; 0];
                        refresh_chunk(
                            slab,
                            ci * PP_REFRESH_CHUNK,
                            rank,
                            node,
                            tvals,
                            &ocols,
                            &ofacs,
                            &mut acc,
                            &mut scratch,
                        );
                    },
                );
            } else {
                let mut acc = vec![0.0f64; rank];
                refresh_chunk(
                    &mut p.vals,
                    0,
                    rank,
                    &p.node,
                    tvals,
                    &ocols,
                    &ofacs,
                    &mut acc,
                    &mut self.scratch,
                );
            }
        }
        // Baseline MTTKRPs: each mode from its cheapest pair, via the
        // same scan kernel the corrections use (other = full factor).
        let full = [(0, rank)];
        for mode in 0..n {
            let best = (0..n)
                .filter(|&j| j != mode)
                .min_by_key(|&j| self.pairs[pair_id(n, mode, j)].node.len)
                .expect("at least two modes");
            let p = &self.pairs[pair_id(n, mode, best)];
            let own = p.column(mode);
            let out = &mut self.baseline_mttkrp[mode];
            out.fill_zero();
            apply_scan(&p.node, &p.vals, own, 1 - own, &factors[best], out, &full, rank);
        }
        for (mode, f) in factors.iter().enumerate() {
            self.baseline_factors[mode].clone_from(f);
            block_norms(f, &mut self.baseline_norms[mode]);
            self.deltas[mode].fill_zero();
            self.delta_norms[mode].fill(0.0);
            self.dirty[mode] = false;
        }
        self.fresh = true;
    }

    /// Relative drift of `factors` from the baseline:
    /// `sqrt(Σ_n ‖U^(n) - U_p^(n)‖² / Σ_n ‖U^(n)‖²)`. The driver uses it
    /// to decide when a cadence-forced exact sweep should also
    /// re-capture the baseline.
    pub fn baseline_drift(&mut self, factors: &[Mat]) -> f64 {
        self.check_factors(factors);
        let mut dn = 0.0;
        let mut fnorm = 0.0;
        for mode in 0..self.dims.len() {
            self.ensure_delta(factors, mode);
            dn += self.delta_norms[mode].iter().map(|&x| x * x).sum::<f64>();
            fnorm += factors[mode].fro_norm().powi(2);
        }
        if fnorm > 0.0 {
            (dn / fnorm).sqrt()
        } else {
            0.0
        }
    }

    /// Reconstructs mode `mode`'s MTTKRP at `factors` from the baseline
    /// plus one delta-correction scan per other mode, into `out`
    /// (`I_mode x R`, overwritten). Requires a fresh baseline.
    ///
    /// # Panics
    /// Panics if the state is stale ([`PpState::is_fresh`] is false) or
    /// on shape mismatch.
    #[adatm::hot]
    pub fn pp_mttkrp_into(&mut self, factors: &[Mat], mode: usize, out: &mut Mat) {
        assert!(self.fresh, "pp_mttkrp_into needs a fresh baseline (call refresh)");
        self.check_factors(factors);
        assert!(mode < self.dims.len(), "mode {mode} out of range");
        assert_eq!(
            (out.nrows(), out.ncols()),
            (self.dims[mode], self.rank),
            "output shape mismatch"
        );
        out.as_mut_slice().copy_from_slice(self.baseline_mttkrp[mode].as_slice());
        let n = self.dims.len();
        for j in (0..n).filter(|&j| j != mode) {
            self.ensure_delta(factors, j);
            self.active_runs(j);
            if self.runs.is_empty() {
                continue;
            }
            let p = &self.pairs[pair_id(n, mode, j)];
            let own = p.column(mode);
            apply_scan(&p.node, &p.vals, own, 1 - own, &self.deltas[j], out, &self.runs, self.rank);
        }
    }

    /// Reconstructs EVERY mode's MTTKRP at `factors` in one fused pass:
    /// each pair memo is streamed once, applying both of its corrections
    /// (Jacobi-style — all corrections use the deltas at `factors`, not
    /// mid-sweep updates). On a bandwidth-bound machine this roughly
    /// halves sweep traffic versus `N` separate
    /// [`PpState::pp_mttkrp_into`] calls; at identical factors the two
    /// paths are bitwise identical. This is the sweep kernel the CP-ALS
    /// driver uses.
    ///
    /// # Panics
    /// Panics if the state is stale or on shape mismatch.
    #[adatm::hot]
    pub fn pp_sweep_into(&mut self, factors: &[Mat], outs: &mut [Mat]) {
        assert!(self.fresh, "pp_sweep_into needs a fresh baseline (call refresh)");
        self.check_factors(factors);
        let n = self.dims.len();
        assert_eq!(outs.len(), n, "one output per mode required");
        for (mode, out) in outs.iter_mut().enumerate() {
            assert_eq!(
                (out.nrows(), out.ncols()),
                (self.dims[mode], self.rank),
                "output {mode} shape mismatch"
            );
            out.as_mut_slice().copy_from_slice(self.baseline_mttkrp[mode].as_slice());
        }
        for mode in 0..n {
            self.ensure_delta(factors, mode);
        }
        let nb = num_blocks(self.rank) as u64;
        for pid in 0..self.pairs.len() {
            let (pm, sm) = self.pairs[pid].modes;
            // The primary's correction is driven by the secondary delta
            // and vice versa.
            Self::fill_runs(
                &mut self.runs,
                &self.delta_norms[sm],
                &self.baseline_norms[sm],
                self.skip_tol,
                self.rank,
            );
            Self::fill_runs(
                &mut self.runs2,
                &self.delta_norms[pm],
                &self.baseline_norms[pm],
                self.skip_tol,
                self.rank,
            );
            for r in [&self.runs, &self.runs2] {
                let active: u64 =
                    r.iter().map(|&(c0, c1)| (c1 - c0).div_ceil(PP_COL_BLOCK) as u64).sum();
                self.stats.applied += active;
                self.stats.skipped += nb - active;
            }
            if self.runs.is_empty() && self.runs2.is_empty() {
                continue;
            }
            let p = &self.pairs[pid];
            // Two disjoint output borrows (pm != sm always).
            let (lo, hi) = outs.split_at_mut(pm.max(sm));
            let (out_p, out_s) =
                if pm > sm { (&mut hi[0], &mut lo[sm]) } else { (&mut lo[pm], &mut hi[0]) };
            apply_scan_fused(
                &p.node,
                &p.vals,
                &self.deltas[sm],
                out_p,
                &self.deltas[pm],
                out_s,
                &self.runs,
                &self.runs2,
                self.rank,
            );
        }
    }

    /// Recomputes `mode`'s delta and block norms if its factor changed.
    #[adatm::hot]
    fn ensure_delta(&mut self, factors: &[Mat], mode: usize) {
        if !self.dirty[mode] {
            return;
        }
        let delta = &mut self.deltas[mode];
        let base = &self.baseline_factors[mode];
        for ((d, &f), &b) in
            delta.as_mut_slice().iter_mut().zip(factors[mode].as_slice()).zip(base.as_slice())
        {
            *d = f - b;
        }
        block_norms(delta, &mut self.delta_norms[mode]);
        self.dirty[mode] = false;
    }

    /// Fills `runs` with the merged active column ranges of a delta:
    /// blocks whose delta norm exceeds `skip_tol` times the baseline
    /// block norm (and is nonzero).
    fn fill_runs(
        runs: &mut Vec<(usize, usize)>,
        delta_norms: &[f64],
        baseline_norms: &[f64],
        skip_tol: f64,
        rank: usize,
    ) {
        runs.clear();
        for b in 0..num_blocks(rank) {
            let dn = delta_norms[b];
            if dn <= skip_tol * baseline_norms[b] || dn == 0.0 {
                continue;
            }
            let c0 = b * PP_COL_BLOCK;
            let c1 = (c0 + PP_COL_BLOCK).min(rank);
            match runs.last_mut() {
                Some(last) if last.1 == c0 => last.1 = c1,
                _ => runs.push((c0, c1)),
            }
        }
    }

    /// Fills `self.runs` for `mode` and updates the sweep statistics.
    fn active_runs(&mut self, mode: usize) {
        let mut runs = std::mem::take(&mut self.runs);
        Self::fill_runs(
            &mut runs,
            &self.delta_norms[mode],
            &self.baseline_norms[mode],
            self.skip_tol,
            self.rank,
        );
        self.runs = runs;
        let nb = num_blocks(self.rank) as u64;
        let active: u64 =
            self.runs.iter().map(|&(c0, c1)| (c1 - c0).div_ceil(PP_COL_BLOCK) as u64).sum();
        self.stats.applied += active;
        self.stats.skipped += nb - active;
    }

    fn check_factors(&self, factors: &[Mat]) {
        assert_eq!(factors.len(), self.dims.len(), "one factor per mode required");
        for (d, f) in factors.iter().enumerate() {
            assert_eq!(
                (f.nrows(), f.ncols()),
                (self.dims[d], self.rank),
                "factor {d} shape mismatch"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adatm_tensor::gen::zipf_tensor;
    use adatm_tensor::mttkrp::mttkrp_seq;
    use proptest::prelude::*;

    fn factors_for(t: &SparseTensor, rank: usize, seed: u64) -> Vec<Mat> {
        t.dims().iter().enumerate().map(|(d, &n)| Mat::random(n, rank, seed + d as u64)).collect()
    }

    /// `base + eps * dir`, elementwise.
    fn perturb(base: &[Mat], dir: &[Mat], eps: f64) -> Vec<Mat> {
        base.iter()
            .zip(dir.iter())
            .map(|(b, d)| {
                let mut m = b.clone();
                for (x, &y) in m.as_mut_slice().iter_mut().zip(d.as_slice()) {
                    *x += eps * y;
                }
                m
            })
            .collect()
    }

    fn pp_error(pp: &mut PpState, t: &SparseTensor, factors: &[Mat]) -> f64 {
        let rank = pp.rank();
        let mut worst = 0.0f64;
        for mode in 0..t.ndim() {
            pp.note_factor_updated(mode);
        }
        for mode in 0..t.ndim() {
            let mut out = Mat::zeros(t.dims()[mode], rank);
            pp.pp_mttkrp_into(factors, mode, &mut out);
            let exact = mttkrp_seq(t, factors, mode);
            worst = worst.max(out.max_abs_diff(&exact));
        }
        worst
    }

    /// Reconstruction error with the constant single-precision storage
    /// offset removed: compares the *change* the correction scans
    /// produce against the change of the exact MTTKRP, so what remains
    /// is the dropped-term (second-order) error plus `f32` noise that is
    /// itself first order in the delta. This isolates the perturbation
    /// analysis from the memo storage precision.
    fn pp_correction_error(
        pp: &mut PpState,
        t: &SparseTensor,
        base: &[Mat],
        factors: &[Mat],
    ) -> f64 {
        let rank = pp.rank();
        let mut worst = 0.0f64;
        for mode in 0..t.ndim() {
            pp.note_factor_updated(mode);
        }
        for mode in 0..t.ndim() {
            let mut out = Mat::zeros(t.dims()[mode], rank);
            pp.pp_mttkrp_into(factors, mode, &mut out);
            let ex_cur = mttkrp_seq(t, factors, mode);
            let ex_base = mttkrp_seq(t, base, mode);
            let mut pp_base = Mat::zeros(t.dims()[mode], rank);
            for m in 0..t.ndim() {
                pp.note_factor_updated(m);
            }
            pp.pp_mttkrp_into(base, mode, &mut pp_base);
            for m in 0..t.ndim() {
                pp.note_factor_updated(m);
            }
            let it = out
                .as_slice()
                .iter()
                .zip(pp_base.as_slice())
                .zip(ex_cur.as_slice().iter().zip(ex_base.as_slice()));
            for ((&o, &ob), (&e, &eb)) in it {
                worst = worst.max(((o - ob) - (e - eb)).abs());
            }
        }
        worst
    }

    #[test]
    fn matches_exact_mttkrp_at_the_baseline() {
        let t = zipf_tensor(&[9, 14, 11, 7], 400, &[0.4, 0.8, 0.6, 0.9], 21);
        let factors = factors_for(&t, 5, 7);
        let mut pp = PpState::new(&t, 5);
        pp.refresh(&t, &factors);
        // With zero deltas every correction block is skipped and the
        // reconstruction is the memoized baseline itself — exact up to
        // the single-precision memo storage the baseline is built from.
        let err = pp_error(&mut pp, &t, &factors);
        assert!(err < 1e-5, "baseline reconstruction error {err}");
        assert_eq!(pp.sweep_stats().applied, 0, "zero deltas must skip every correction");
    }

    #[test]
    fn pair_memos_are_order_independent_of_mode_layout() {
        // Primary-major layout must not change results: compare both
        // correction directions of one pair against the exact MTTKRP.
        let t = zipf_tensor(&[40, 6, 25], 600, &[0.7, 0.3, 0.9], 5);
        let base = factors_for(&t, 4, 31);
        let dir = factors_for(&t, 4, 77);
        let cur = perturb(&base, &dir, 1e-5);
        let mut pp = PpState::new(&t, 4);
        pp.refresh(&t, &base);
        let err = pp_error(&mut pp, &t, &cur);
        assert!(err < 1e-5, "small-delta reconstruction error {err}");
    }

    #[test]
    fn fused_sweep_matches_per_mode_reconstruction_bitwise() {
        let t = zipf_tensor(&[15, 40, 25, 9], 700, &[0.5, 0.8, 0.6, 0.3], 17);
        let rank = 5;
        let base = factors_for(&t, rank, 41);
        let dir = factors_for(&t, rank, 42);
        let cur = perturb(&base, &dir, 1e-3);
        let mut pp = PpState::new(&t, rank);
        pp.refresh(&t, &base);
        let mut fused: Vec<Mat> = t.dims().iter().map(|&n| Mat::zeros(n, rank)).collect();
        for m in 0..t.ndim() {
            pp.note_factor_updated(m);
        }
        pp.pp_sweep_into(&cur, &mut fused);
        for (mode, f) in fused.iter().enumerate() {
            let mut single = Mat::zeros(t.dims()[mode], rank);
            pp.pp_mttkrp_into(&cur, mode, &mut single);
            // Same per-row accumulation order => bitwise equality.
            assert_eq!(
                single.max_abs_diff(f),
                0.0,
                "fused sweep diverged from per-mode path at mode {mode}"
            );
        }
    }

    #[test]
    fn baseline_drift_tracks_factor_movement() {
        let t = zipf_tensor(&[12, 10, 8], 300, &[0.5; 3], 9);
        let base = factors_for(&t, 3, 1);
        let mut pp = PpState::new(&t, 3);
        pp.refresh(&t, &base);
        assert_eq!(pp.baseline_drift(&base), 0.0);
        let dir = factors_for(&t, 3, 2);
        let moved = perturb(&base, &dir, 1e-4);
        for m in 0..t.ndim() {
            pp.note_factor_updated(m);
        }
        let d1 = pp.baseline_drift(&moved);
        assert!(d1 > 0.0);
        let moved2 = perturb(&base, &dir, 2e-4);
        for m in 0..t.ndim() {
            pp.note_factor_updated(m);
        }
        let d2 = pp.baseline_drift(&moved2);
        // Linear in the step up to the (second-order) change in the
        // normalizing factor norm.
        assert!((d2 / d1 - 2.0).abs() < 1e-3, "drift must be linear in the step: {d1} {d2}");
    }

    #[test]
    fn skip_tol_trades_exactly_bounded_error_for_skipped_blocks() {
        let t = zipf_tensor(&[30, 8, 22], 500, &[0.6, 0.2, 0.8], 13);
        let base = factors_for(&t, 8, 3);
        let dir = factors_for(&t, 8, 4);
        let cur = perturb(&base, &dir, 1e-3);
        let mut strict = PpState::new(&t, 8);
        strict.refresh(&t, &base);
        let err_strict = pp_error(&mut strict, &t, &cur);
        let mut lax = PpState::new(&t, 8);
        lax.refresh(&t, &base);
        lax.set_skip_tol(1.0); // skip everything that moved
        let err_lax = pp_error(&mut lax, &t, &cur);
        assert!(lax.sweep_stats().applied == 0 && lax.sweep_stats().skipped > 0);
        assert!(err_lax >= err_strict);
        // Skipping everything degrades to the pure baseline: error is
        // first order in the (tiny) delta, still small in absolute terms.
        assert!(err_lax < 1e-1);
    }

    #[test]
    fn stale_state_panics_and_refresh_revives_it() {
        let t = zipf_tensor(&[6, 7, 8], 100, &[0.3; 3], 2);
        let factors = factors_for(&t, 2, 5);
        let mut pp = PpState::new(&t, 2);
        pp.refresh(&t, &factors);
        assert!(pp.is_fresh());
        pp.invalidate();
        assert!(!pp.is_fresh());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut out = Mat::zeros(t.dims()[0], 2);
            pp.pp_mttkrp_into(&factors, 0, &mut out);
        }));
        assert!(result.is_err(), "stale pp_mttkrp_into must panic");
        pp.refresh(&t, &factors);
        assert!(pp.is_fresh());
    }

    #[test]
    fn sweep_units_and_memory_are_positive_and_consistent() {
        let t = zipf_tensor(&[10, 20, 15, 5], 800, &[0.5; 4], 8);
        let pp = PpState::new(&t, 6);
        assert!(pp.sweep_units() > 0.0);
        assert!(pp.memory_bytes() > 0);
        for a in 0..4 {
            for b in (a + 1)..4 {
                let len = pp.pair_len(a, b);
                assert!(len > 0 && len <= t.nnz());
                assert_eq!(len, pp.pair_len(b, a));
            }
        }
    }

    #[test]
    fn five_mode_tensor_uses_the_fused_three_factor_path() {
        let t = zipf_tensor(&[5, 6, 7, 8, 9], 300, &[0.4; 5], 3);
        let base = factors_for(&t, 3, 11);
        let dir = factors_for(&t, 3, 12);
        let cur = perturb(&base, &dir, 1e-5);
        let mut pp = PpState::new(&t, 3);
        pp.refresh(&t, &base);
        let err = pp_error(&mut pp, &t, &cur);
        assert!(err < 1e-7, "order-5 reconstruction error {err}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// PP reconstruction error is second order in the delta norm:
        /// doubling a small perturbation should roughly quadruple the
        /// error (slack for higher-order terms and cancellation).
        #[test]
        fn error_is_second_order_in_the_delta(seed in 0u64..300, rank in 2usize..5) {
            let t = zipf_tensor(&[8, 12, 9, 6], 350, &[0.4, 0.7, 0.5, 0.8], seed ^ 0x9e);
            let base = factors_for(&t, rank, seed);
            let dir = factors_for(&t, rank, seed ^ 0x5a5a);
            let mut pp = PpState::new(&t, rank);
            pp.refresh(&t, &base);
            let eps = 1e-4;
            let e1 = pp_correction_error(&mut pp, &t, &base, &perturb(&base, &dir, eps));
            let e2 = pp_correction_error(&mut pp, &t, &base, &perturb(&base, &dir, 2.0 * eps));
            // Second-order scaling: e(2ε) ≈ 4·e(ε). Allow generous slack
            // plus an absolute floor for round-off-dominated cases (the
            // f32 memo noise in the correction is first order in ε with
            // a ~1e-7 coefficient).
            prop_assert!(
                e2 <= 5.0 * e1 + 1e-9,
                "error not second order: e({eps}) = {e1}, e({}) = {e2}", 2.0 * eps
            );
            // And it must vastly outperform first-order scaling for a
            // visible perturbation.
            let big = pp_correction_error(&mut pp, &t, &base, &perturb(&base, &dir, 1e-1));
            prop_assert!(
                e1 <= big * 1e-4 + 1e-9,
                "e(1e-4) = {e1} not << e(1e-1) = {big}"
            );
        }

        /// The reconstruction is exact (to round-off) when only ONE
        /// factor moves: every dropped Taylor term carries two distinct
        /// deltas.
        #[test]
        fn single_mode_movement_is_reconstructed_exactly(seed in 0u64..300, mode in 0usize..3) {
            let t = zipf_tensor(&[10, 14, 12], 300, &[0.5, 0.8, 0.6], seed ^ 0x33);
            let rank = 3;
            let base = factors_for(&t, rank, seed);
            let mut pp = PpState::new(&t, rank);
            pp.refresh(&t, &base);
            let dir = factors_for(&t, rank, seed ^ 0x77);
            let mut cur: Vec<Mat> = base.clone();
            for (x, &y) in cur[mode].as_mut_slice().iter_mut().zip(dir[mode].as_slice()) {
                *x += 0.05 * y;
            }
            let err = pp_correction_error(&mut pp, &t, &base, &cur);
            // Scale-aware round-off bound: the only error left is f32
            // memo noise entering the (single) correction term.
            let scale = cur.iter().map(|m| m.fro_norm()).fold(1.0, f64::max);
            prop_assert!(err < 1e-6 * scale.max(1.0), "one-delta case must be exact, got {err}");
        }
    }
}
