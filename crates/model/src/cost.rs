//! The analytic cost model for memoization strategies.
//!
//! Given estimated element counts for every node of a candidate dimension
//! tree, the model predicts, per CP-ALS iteration:
//!
//! * **flops** — each non-root node is computed exactly once per
//!   iteration (the dimension-tree invariant); computing node `t` from its
//!   parent costs `elems(parent) * (|δ(t)| + 1) * R` fused multiply-adds
//!   (one row Hadamard per delta mode plus the accumulate);
//! * **value-stream traffic** — the read of each node's source (tensor or
//!   parent value matrix) and the write of its own value matrix;
//! * **gather misses** — the factor rows a node gathers from beyond
//!   cache: `elems(parent) * |δ(t)| * R * 8 * miss(δ(t))` bytes, where
//!   `miss` is the share of the delta modes' touched rows that do not fit
//!   in [`GATHER_CACHE_BYTES`] (see [`gather_miss_per_elem`]);
//! * **peak value memory** — under the invalidation protocol at most one
//!   root-to-leaf path of value matrices is live, so the peak is the
//!   maximum over modes of the path sum of `elems(t) * R * 8` bytes;
//! * **index memory** — the one-time symbolic storage (`idx`, `rptr`,
//!   `rperm` arrays exactly as the engine lays them out);
//! * **symbolic cost** — comparison count of the one-time sorts,
//!   `sum elems(parent) * log2(elems(parent))`.
//!
//! The flop, value-memory and index formulas mirror the engine's counters
//! one-to-one, which is what the model-accuracy experiment (E8) verifies.
//! The traffic and gather terms are priced, not counted: E8 holds the
//! ranking they produce against measured time.

use crate::estimate::EstimatorCache;
use crate::profile::{KernelClass, KernelProfile};
use adatm_dtree::symbolic::scatter_scheduled;
use adatm_dtree::{DimTree, TreeShape};

/// Predicted costs of one memoization strategy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostBreakdown {
    /// Fused multiply-adds per CP-ALS iteration across all node TTMVs.
    pub flops_per_iter: f64,
    /// Bytes of value-matrix stream traffic per iteration: every node's
    /// write plus one read of the source node per child computed from it.
    /// MTTKRP is memory-bound, so this term — not flops — often decides
    /// between strategies with similar operation counts (a balanced tree
    /// materializes ~2N intermediates; a 3-level tree only 2).
    pub traffic_bytes_per_iter: f64,
    /// Bytes of factor rows gathered from beyond cache per iteration
    /// (see [`gather_miss_per_elem`]). Zero while every node's delta
    /// factors fit in cache; on large, uncollapsed modes it is what makes
    /// a memoizing tree, which gathers fewer rows per node from smaller
    /// delta sets, beat the flat tree.
    pub gather_miss_bytes_per_iter: f64,
    /// Peak bytes of live value matrices under the protocol.
    pub peak_value_bytes: f64,
    /// Bytes of symbolic index structures (one-time, resident).
    pub index_bytes: f64,
    /// One-time symbolic sort cost (comparison count).
    pub symbolic_cost: f64,
    /// Number of memoized intermediate tensors (internal non-root nodes).
    pub memo_count: usize,
    /// TTMV (node computations) per iteration.
    pub ttmv_calls: usize,
}

impl CostBreakdown {
    /// Total resident memory prediction: index structures plus peak
    /// values. This is what a memory budget constrains.
    pub fn resident_bytes(&self) -> f64 {
        self.index_bytes + self.peak_value_bytes
    }

    /// The scalar objective the planner ranks strategies by:
    /// `flops + beta * (traffic_bytes + gather_miss_bytes)`, with `beta`
    /// the machine's flops-per-byte trade (see
    /// [`crate::plan::Objective`]).
    pub fn cost_units(&self, beta: f64) -> f64 {
        self.flops_per_iter + beta * (self.traffic_bytes_per_iter + self.gather_miss_bytes_per_iter)
    }
}

/// Bytes per stored value (f64).
const VAL_BYTES: f64 = 8.0;
/// Bytes per stored index (u32).
const IDX_BYTES: f64 = 4.0;
/// Bytes per reduction-pointer entry (usize on 64-bit).
const PTR_BYTES: f64 = 8.0;

/// Bytes of factor rows a core keeps cached while it gathers them: the
/// 2 MiB per-core L2 of the Xeon (Sapphire Rapids) the model was checked
/// against, as Linux reports it in
/// `/sys/devices/system/cpu/cpu0/cache/index2/size`.
pub const GATHER_CACHE_BYTES: f64 = 2.0 * 1024.0 * 1024.0;

/// Factor-row bytes gathered from beyond cache per parent element of a
/// node whose delta set has `delta_len` modes touching `rows` factor rows
/// in total (`rows = Σ_{d∈δ} elems({d})`):
/// `|δ| * R * 8 * miss(δ)`, with
/// `miss(δ) = max(0, 1 − C / (rows * R * 8))` and `C` =
/// [`GATHER_CACHE_BYTES`].
///
/// Each parent element reads one row of every delta factor at an index
/// the tensor scatters across the touched rows. While those rows fit in
/// cache the reads hit; past that, the model takes the uncached share of
/// the rows as the share of reads that go to memory.
pub fn gather_miss_per_elem(delta_len: usize, rows: f64, rank: usize) -> f64 {
    let row_bytes = rank as f64 * VAL_BYTES;
    let footprint = rows * row_bytes;
    if footprint <= GATHER_CACHE_BYTES {
        return 0.0;
    }
    delta_len as f64 * row_bytes * (1.0 - GATHER_CACHE_BYTES / footprint)
}

/// Factor rows the tensor touches across `modes`: `Σ_d elems({d})`.
fn touched_rows(modes: &[usize], cache: &mut EstimatorCache<'_>) -> f64 {
    modes.iter().map(|&d| cache.elems(&[d])).sum()
}

/// Predicts the cost of executing CP-ALS with the given tree shape.
///
/// `cache` supplies (estimated) distinct-projection counts; `rank` is the
/// decomposition rank.
pub fn predict(shape: &TreeShape, rank: usize, cache: &mut EstimatorCache<'_>) -> CostBreakdown {
    let tree = DimTree::from_shape(shape);
    let r = rank as f64;
    let n = tree.ndim() as f64;
    let mut flops = 0.0;
    let mut traffic = 0.0;
    let mut gather = 0.0;
    let mut index_bytes = 0.0;
    let mut symbolic = 0.0;
    let mut value_bytes: Vec<f64> = vec![0.0; tree.len()];
    let mut memo_count = 0usize;
    for (id, vb) in value_bytes.iter_mut().enumerate().skip(1) {
        let node = tree.node(id);
        let parent = node.parent.expect("non-root");
        let parent_elems = cache.elems(&tree.node(parent).modes);
        let own_elems = cache.elems(&node.modes);
        flops += parent_elems * (node.delta.len() as f64 + 1.0) * r;
        *vb = own_elems * r * VAL_BYTES;
        // Stream traffic of computing this node: read the source (the
        // tensor itself for children of the root — value plus the delta
        // modes' index columns — or the parent's R-wide value matrix),
        // then write our own value matrix. Factor-row reads are charged
        // separately, for the share that misses cache.
        let read = if parent == 0 {
            parent_elems * (VAL_BYTES + n * IDX_BYTES)
        } else {
            parent_elems * r * VAL_BYTES
        };
        traffic += read + own_elems * r * VAL_BYTES;
        gather += parent_elems
            * gather_miss_per_elem(node.delta.len(), touched_rows(&node.delta, cache), rank);
        index_bytes += own_elems * (node.modes.len() as f64 * IDX_BYTES + PTR_BYTES)
            + parent_elems * IDX_BYTES;
        symbolic += parent_elems * parent_elems.max(2.0).log2();
        if !node.is_leaf() {
            memo_count += 1;
        }
    }
    // Peak live value memory: max over leaf paths (protocol invariant).
    let mut peak = 0.0f64;
    for m in 0..tree.ndim() {
        let path_sum: f64 =
            tree.path_to_root(tree.leaf_of(m)).iter().map(|&id| value_bytes[id]).sum();
        peak = peak.max(path_sum);
    }
    CostBreakdown {
        flops_per_iter: flops,
        traffic_bytes_per_iter: traffic,
        gather_miss_bytes_per_iter: gather,
        peak_value_bytes: peak,
        index_bytes,
        symbolic_cost: symbolic,
        memo_count,
        ttmv_calls: tree.len() - 1,
    }
}

/// Predicted wall time of one CP-ALS iteration under a measured
/// [`KernelProfile`], in nanoseconds.
///
/// Each non-root node's analytic work units — flops
/// (`elems(parent) * (|δ| + 1) * R`) plus value-stream traffic and
/// gather-miss bytes, all counted exactly as [`predict`] does — are
/// converted at the
/// measured rate of the kernel class the engine would run it with at
/// `threads` workers: scatter when [`scatter_scheduled`] admits the node
/// (eligible, and its parent streamed under a schedule), pull otherwise.
/// Scatter costing more per unit than pull,
/// and each class carrying its own parallel efficiency, is exactly what
/// the machine-independent flop model cannot see — two trees with equal
/// flops can differ 2x in wall time when one funnels its work through
/// scatter nodes that stop scaling. Keeping the traffic term matters just
/// as much in the other direction: MTTKRP is memory-bound, so a ranking
/// on flop-units alone drifts toward deep memoizing trees whose extra
/// R-wide intermediate streams make them slower in practice. With a
/// uniform profile this model degenerates to the analytic
/// `flops + traffic + gather` objective ([`CostBreakdown::cost_units`]
/// at `beta = 1`).
///
/// This is a *ranking* refinement, not an oracle: absolute numbers drift
/// with tensor shape, but the per-class rates transfer well enough to
/// order candidate trees. Callers without a profile should rank by
/// [`CostBreakdown::cost_units`] instead.
pub fn predict_time_ns(
    shape: &TreeShape,
    rank: usize,
    cache: &mut EstimatorCache<'_>,
    profile: &KernelProfile,
    threads: usize,
) -> f64 {
    let tree = DimTree::from_shape(shape);
    let r = rank as f64;
    let n = tree.ndim() as f64;
    let mut ns = 0.0;
    for id in 1..tree.len() {
        let node = tree.node(id);
        let parent = node.parent.expect("non-root");
        let parent_elems = cache.elems(&tree.node(parent).modes);
        let own_elems = cache.elems(&node.modes);
        let flops = parent_elems * (node.delta.len() as f64 + 1.0) * r;
        let read = if parent == 0 {
            parent_elems * (VAL_BYTES + n * IDX_BYTES)
        } else {
            parent_elems * r * VAL_BYTES
        };
        let gather = parent_elems
            * gather_miss_per_elem(node.delta.len(), touched_rows(&node.delta, cache), rank);
        let units = flops + read + own_elems * r * VAL_BYTES + gather;
        let class = if scatter_scheduled(own_elems as usize, parent_elems as usize, threads) {
            KernelClass::TreeScatter
        } else {
            KernelClass::TreePull
        };
        ns += units * profile.ns_per_unit(class, threads);
    }
    ns
}

/// Predicted wall time of one CP-ALS iteration of the SPLATT-style CSF
/// baseline (one fiber forest per mode), in nanoseconds — the "no
/// memoization" pseudo-candidate the calibrated planner weighs against
/// its tree candidates.
///
/// Mirrors the CSF construction heuristic (target mode at the root,
/// remaining modes by ascending size): each below-root level of the
/// mode-`m` forest has an estimated `elems(prefix)` nodes, and each node
/// costs one rank-row operation, measured by the
/// [`KernelClass::CsfRoot`] calibration. As in [`predict_time_ns`], the
/// stream traffic — one pass over the tensor per mode plus the output
/// write — and the gather misses are charged as extra units so the
/// pseudo-candidate stays comparable with the tree predictions: each
/// below-root fiber node gathers one row of its level's factor, from the
/// rows of every mode but `m`.
pub fn predict_csf_time_ns(
    dims: &[usize],
    rank: usize,
    cache: &mut EstimatorCache<'_>,
    profile: &KernelProfile,
    threads: usize,
) -> f64 {
    let n = dims.len();
    let r = rank as f64;
    let all: Vec<usize> = (0..n).collect();
    let nnz = cache.elems(&all);
    let mut units = 0.0;
    for mode in 0..n {
        let rest: Vec<usize> = (0..n).filter(|&d| d != mode).collect();
        let levels = csf_forest_elems(dims, mode, cache, false);
        let gather = levels * gather_miss_per_elem(1, touched_rows(&rest, cache), rank);
        units += levels * r
            + nnz * (VAL_BYTES + n as f64 * IDX_BYTES)
            + cache.elems(&[mode]) * r * VAL_BYTES
            + gather;
    }
    units * profile.ns_per_unit(KernelClass::CsfRoot, threads)
}

/// Predicted wall time of one CP-ALS iteration of the scheduled COO
/// baseline (fused single-pass entry kernels over per-mode sorted
/// views), in nanoseconds — the second no-memoization pseudo-candidate.
/// Once the entry kernels are fused, COO's `nnz·(N−1)·R` units per mode
/// can undercut every tree on tensors whose projections barely collapse;
/// a planner that cannot pick it would leave the fastest backend on the
/// table. Each entry gathers the same `N − 1` factor rows as the flat
/// tree's leaf for that mode, so it pays the same gather misses.
pub fn predict_coo_time_ns(
    dims: &[usize],
    rank: usize,
    cache: &mut EstimatorCache<'_>,
    profile: &KernelProfile,
    threads: usize,
) -> f64 {
    let n = dims.len();
    let r = rank as f64;
    let all: Vec<usize> = (0..n).collect();
    let nnz = cache.elems(&all);
    let mut units = 0.0;
    for mode in 0..n {
        let rest: Vec<usize> = (0..n).filter(|&d| d != mode).collect();
        units += nnz * (n as f64 - 1.0) * r
            + nnz * (VAL_BYTES + n as f64 * IDX_BYTES)
            + cache.elems(&[mode]) * r * VAL_BYTES
            + nnz * gather_miss_per_elem(n - 1, touched_rows(&rest, cache), rank);
    }
    units * profile.ns_per_unit(KernelClass::CooMttkrp, threads)
}

/// Predicted wall time of one pairwise-perturbation approximate CP-ALS
/// sweep, in nanoseconds.
///
/// Mirrors `PpState::sweep_units` in `adatm-dtree` one-to-one: each mode
/// pays a read+write baseline copy (`2 * I_m * R` units) and each of the
/// `N(N-1)/2` pair memos is streamed once by the fused correction scan,
/// applying corrections in both directions (`2 * 2 * R * len(a,b)`
/// units, with `len(a,b)` the distinct-projection count of the mode
/// pair — the same quantity the tree cost model estimates for a
/// two-mode node). Converted at the measured
/// [`KernelClass::PpUpdate`] rate. This is what lets the planner weigh
/// an exact sweep against an approximate one *before* committing memory
/// to the pair memos.
pub fn predict_pp_time_ns(
    dims: &[usize],
    rank: usize,
    cache: &mut EstimatorCache<'_>,
    profile: &KernelProfile,
    threads: usize,
) -> f64 {
    let n = dims.len();
    let r = rank as f64;
    let mut units: f64 = dims.iter().map(|&d| 2.0 * d as f64 * r).sum();
    for a in 0..n {
        for b in a + 1..n {
            units += 2.0 * 2.0 * r * cache.elems(&[a, b]);
        }
    }
    units * profile.ns_per_unit(KernelClass::PpUpdate, threads)
}

/// Estimated resident bytes of the pairwise-perturbation state: one
/// R-wide single-precision value matrix plus the two index columns per
/// pair memo, plus the per-mode baselines and deltas (three `I_m x R`
/// double-precision matrices each).
pub fn predict_pp_resident_bytes(
    dims: &[usize],
    rank: usize,
    cache: &mut EstimatorCache<'_>,
) -> f64 {
    let n = dims.len();
    let r = rank as f64;
    let mut bytes: f64 = dims.iter().map(|&d| 3.0 * d as f64 * r * VAL_BYTES).sum();
    for a in 0..n {
        for b in a + 1..n {
            bytes += cache.elems(&[a, b]) * (r * VAL_BYTES / 2.0 + 2.0 * IDX_BYTES + PTR_BYTES);
        }
    }
    bytes
}

/// Estimated resident bytes of the COO baseline's per-mode sorted views
/// (permutation plus group structure; the tensor itself is resident
/// regardless of strategy and is not charged).
pub fn predict_coo_resident_bytes(dims: &[usize], cache: &mut EstimatorCache<'_>) -> f64 {
    let n = dims.len();
    let all: Vec<usize> = (0..n).collect();
    n as f64 * cache.elems(&all) * (IDX_BYTES + PTR_BYTES)
}

/// Estimated resident bytes of the CSF baseline's `N` fiber forests
/// (index structures plus values), for budget gating the pseudo-candidate.
pub fn predict_csf_resident_bytes(dims: &[usize], cache: &mut EstimatorCache<'_>) -> f64 {
    let levels: f64 = (0..dims.len()).map(|mode| csf_forest_elems(dims, mode, cache, true)).sum();
    levels * (IDX_BYTES + PTR_BYTES)
        + dims.len() as f64 * cache.elems(&(0..dims.len()).collect::<Vec<_>>()) * VAL_BYTES
}

/// Estimated node count over the levels of the mode-`mode` CSF forest
/// (optionally including the root level, which does no per-rank work but
/// does occupy index storage).
fn csf_forest_elems(
    dims: &[usize],
    mode: usize,
    cache: &mut EstimatorCache<'_>,
    include_root: bool,
) -> f64 {
    let mut rest: Vec<usize> = (0..dims.len()).filter(|&d| d != mode).collect();
    rest.sort_by_key(|&d| dims[d]);
    let mut prefix = vec![mode];
    let mut total = if include_root { cache.elems(&prefix) } else { 0.0 };
    for &d in &rest {
        prefix.push(d);
        total += cache.elems(&prefix);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::NnzEstimator;
    use crate::profile::ClassRate;
    use adatm_tensor::gen::{uniform_tensor, zipf_tensor};
    use adatm_tensor::SparseTensor;

    fn cache(t: &SparseTensor) -> EstimatorCache<'_> {
        EstimatorCache::new(t, NnzEstimator::Exact)
    }

    #[test]
    fn two_level_flops_is_n_times_nnz_model() {
        // Flat tree: every leaf computed from the root with delta N-1.
        let t = uniform_tensor(&[40, 40, 40, 40], 2_000, 1);
        let mut c = cache(&t);
        let cb = predict(&TreeShape::two_level(4), 8, &mut c);
        let expect = 4.0 * 2_000.0 * 4.0 * 8.0; // N * nnz * (N-1+1) * R
        assert!((cb.flops_per_iter - expect).abs() < 1e-9);
        assert_eq!(cb.memo_count, 0);
        assert_eq!(cb.ttmv_calls, 4);
    }

    #[test]
    fn bdt_predicts_fewer_flops_than_flat_for_higher_order() {
        let t = uniform_tensor(&[30; 8], 5_000, 2);
        let mut c = cache(&t);
        let flat = predict(&TreeShape::two_level(8), 8, &mut c);
        let bdt = predict(&TreeShape::balanced_binary(8), 8, &mut c);
        assert!(
            bdt.flops_per_iter < flat.flops_per_iter,
            "bdt {} vs flat {}",
            bdt.flops_per_iter,
            flat.flops_per_iter
        );
    }

    #[test]
    fn bdt_uses_more_value_memory_than_flat() {
        let t = uniform_tensor(&[30; 8], 5_000, 3);
        let mut c = cache(&t);
        let flat = predict(&TreeShape::two_level(8), 8, &mut c);
        let bdt = predict(&TreeShape::balanced_binary(8), 8, &mut c);
        assert!(bdt.peak_value_bytes > flat.peak_value_bytes);
        assert!(bdt.memo_count == 6);
    }

    #[test]
    fn skew_lowers_predicted_cost_of_memoizing_trees() {
        let dims = [150usize; 4];
        let flat_t = uniform_tensor(&dims, 8_000, 4);
        let skew_t = zipf_tensor(&dims, 8_000, &[1.1; 4], 4);
        let mut cf = cache(&flat_t);
        let mut cs = cache(&skew_t);
        let shape = TreeShape::balanced_binary(4);
        let p_flat = predict(&shape, 8, &mut cf);
        let p_skew = predict(&shape, 8, &mut cs);
        // Same nnz, but skewed projections collapse, so the predicted
        // leaf-level work is lower.
        assert!(p_skew.flops_per_iter < p_flat.flops_per_iter);
        assert!(p_skew.peak_value_bytes < p_flat.peak_value_bytes);
    }

    #[test]
    fn breakdown_scales_linearly_in_rank() {
        let t = uniform_tensor(&[25; 4], 1_500, 5);
        let mut c = cache(&t);
        let shape = TreeShape::three_level(4);
        let r8 = predict(&shape, 8, &mut c);
        let r16 = predict(&shape, 16, &mut c);
        assert!((r16.flops_per_iter / r8.flops_per_iter - 2.0).abs() < 1e-12);
        assert!((r16.peak_value_bytes / r8.peak_value_bytes - 2.0).abs() < 1e-12);
        // Index structures do not depend on rank.
        assert_eq!(r16.index_bytes, r8.index_bytes);
    }

    #[test]
    fn traffic_counts_deeper_trees_higher_on_uniform_data() {
        // No collapse: every intermediate is ~nnz elements, so each extra
        // level of memoization adds a full write+read stream.
        let t = uniform_tensor(&[40; 8], 4_000, 12);
        let mut c = cache(&t);
        let flat = predict(&TreeShape::two_level(8), 16, &mut c);
        let tree3 = predict(&TreeShape::three_level(8), 16, &mut c);
        let bdt = predict(&TreeShape::balanced_binary(8), 16, &mut c);
        assert!(tree3.traffic_bytes_per_iter < bdt.traffic_bytes_per_iter);
        // The flat tree reads the (cheap, scalar-valued) root N times but
        // materializes only leaves; it must not exceed the BDT's traffic.
        assert!(flat.traffic_bytes_per_iter < bdt.traffic_bytes_per_iter);
    }

    #[test]
    fn cost_units_interpolates_objectives() {
        let t = uniform_tensor(&[20; 4], 1_000, 13);
        let mut c = cache(&t);
        let cb = predict(&TreeShape::balanced_binary(4), 8, &mut c);
        // Small factors: every gather hits cache.
        assert_eq!(cb.gather_miss_bytes_per_iter, 0.0);
        assert_eq!(cb.cost_units(0.0), cb.flops_per_iter);
        assert!(
            (cb.cost_units(2.0) - cb.flops_per_iter - 2.0 * cb.traffic_bytes_per_iter).abs() < 1e-9
        );
        let big = uniform_tensor(&[12_500; 8], 15_000, 13);
        let mut c = cache(&big);
        let cb = predict(&TreeShape::two_level(8), 16, &mut c);
        let bytes = cb.traffic_bytes_per_iter + cb.gather_miss_bytes_per_iter;
        assert!((cb.cost_units(2.0) - cb.flops_per_iter - 2.0 * bytes).abs() < 1e-6);
    }

    #[test]
    fn resident_bytes_sums_components() {
        let t = uniform_tensor(&[25; 3], 800, 6);
        let mut c = cache(&t);
        let cb = predict(&TreeShape::balanced_binary(3), 4, &mut c);
        assert_eq!(cb.resident_bytes(), cb.index_bytes + cb.peak_value_bytes);
    }

    fn uniform_profile(ns: f64) -> KernelProfile {
        let r = ClassRate { ns_per_unit_1t: ns, ns_per_unit_nt: ns };
        KernelProfile {
            threads: 8,
            coo_mttkrp: r,
            csf_root: r,
            tree_pull: r,
            tree_scatter: r,
            pp_update: r,
        }
    }

    #[test]
    fn uniform_rates_make_predicted_time_proportional_to_analytic_units() {
        // With every class at the same flat rate, predicted time must be
        // exactly (flops + traffic + gather) * ns_per_unit — the
        // calibrated model degenerates to the analytic default objective
        // (beta = 1). The 8-mode tensor's factors overflow the cache, so
        // its gather term is live.
        let p = uniform_profile(2.0);
        for (t, rank) in [
            (uniform_tensor(&[30; 4], 2_000, 21), 8),
            (uniform_tensor(&[12_500; 8], 15_000, 21), 16),
        ] {
            let n = t.ndim();
            let mut c = cache(&t);
            for shape in
                [TreeShape::two_level(n), TreeShape::three_level(n), TreeShape::balanced_binary(n)]
            {
                let cb = predict(&shape, rank, &mut c);
                let ns = predict_time_ns(&shape, rank, &mut c, &p, 8);
                assert!(
                    (ns - 2.0 * cb.cost_units(1.0)).abs() < 1e-6 * ns,
                    "{shape}: time {ns} vs units {}",
                    cb.cost_units(1.0)
                );
            }
        }
    }

    #[test]
    fn gather_miss_fraction_is_the_uncached_share_of_the_rows() {
        let rank = 16;
        let row = rank as f64 * VAL_BYTES;
        let rows_at = |bytes: f64| bytes / row;
        // Rows that fit in cache never miss.
        assert_eq!(gather_miss_per_elem(3, rows_at(GATHER_CACHE_BYTES), rank), 0.0);
        assert_eq!(gather_miss_per_elem(3, 0.0, rank), 0.0);
        // Twice the cache: half of each of the |δ| row reads misses.
        let half = gather_miss_per_elem(2, rows_at(2.0 * GATHER_CACHE_BYTES), rank);
        assert!((half - 2.0 * row * 0.5).abs() < 1e-9, "{half}");
    }

    #[test]
    fn gather_misses_move_large_uncollapsed_tensors_off_the_flat_tree() {
        // Eight uniform modes of 12.5k rows, nothing collapses: each
        // factor's touched rows take ~1.1 MB at rank 16, so a flat leaf's
        // seven delta factors overflow the cache and most of its gathers
        // miss.
        let t = uniform_tensor(&[12_500; 8], 15_000, 31);
        let mut c = cache(&t);
        let flat = predict(&TreeShape::two_level(8), 16, &mut c);
        let bdt = predict(&TreeShape::balanced_binary(8), 16, &mut c);
        assert!(flat.gather_miss_bytes_per_iter > 0.0);
        assert!(bdt.gather_miss_bytes_per_iter < flat.gather_miss_bytes_per_iter);
        let plan = crate::Planner::new(&t, 16).plan();
        assert!(plan.predicted.memo_count > 0, "chose the flat tree: {}", plan.shape);
    }

    #[test]
    fn coo_pseudo_candidate_pays_the_flat_trees_gather_misses() {
        // COO entries gather the rows of the same N - 1 factors as the
        // flat tree's leaves: at 1 ns/unit its prediction is its flop and
        // stream units plus exactly the flat tree's gather misses.
        let t = uniform_tensor(&[12_500; 8], 15_000, 32);
        let (n, r) = (8usize, 16.0);
        let mut c = cache(&t);
        let flat = predict(&TreeShape::two_level(n), 16, &mut c);
        assert!(flat.gather_miss_bytes_per_iter > 0.0);
        let nnz = t.nnz() as f64;
        let streams: f64 = (0..n)
            .map(|m| {
                nnz * (n as f64 - 1.0) * r
                    + nnz * (VAL_BYTES + n as f64 * IDX_BYTES)
                    + c.elems(&[m]) * r * VAL_BYTES
            })
            .sum();
        let coo = predict_coo_time_ns(t.dims(), 16, &mut c, &uniform_profile(1.0), 8);
        let gather = coo - streams;
        assert!(
            (gather - flat.gather_miss_bytes_per_iter).abs() < 1e-9 * coo,
            "coo gathers {gather} vs flat {}",
            flat.gather_miss_bytes_per_iter
        );
    }

    #[test]
    fn scatter_heavy_rate_penalizes_collapsing_trees() {
        // Skewed data collapses intermediates enough to trigger the
        // scatter schedule; pricing scatter 10x above pull must raise the
        // memoizing tree's predicted time relative to a uniform profile.
        let t = zipf_tensor(&[400, 380, 360, 340], 30_000, &[1.2; 4], 22);
        let mut c = cache(&t);
        let shape = TreeShape::balanced_binary(4);
        let flat = uniform_profile(1.0);
        let mut scatter_heavy = flat;
        scatter_heavy.tree_scatter = ClassRate { ns_per_unit_1t: 10.0, ns_per_unit_nt: 10.0 };
        let base = predict_time_ns(&shape, 8, &mut c, &flat, 8);
        let heavy = predict_time_ns(&shape, 8, &mut c, &scatter_heavy, 8);
        assert!(heavy > base, "scatter-heavy profile must not be cheaper ({heavy} vs {base})");
    }

    #[test]
    fn predicted_time_uses_per_thread_rates() {
        let t = uniform_tensor(&[25; 4], 1_200, 23);
        let mut c = cache(&t);
        let mut p = uniform_profile(4.0);
        for class in KernelClass::ALL {
            p.rate_mut(class).ns_per_unit_nt = 1.0; // 4x speedup at 8 threads
        }
        let shape = TreeShape::three_level(4);
        let t1 = predict_time_ns(&shape, 8, &mut c, &p, 1);
        let t8 = predict_time_ns(&shape, 8, &mut c, &p, 8);
        assert!((t1 / t8 - 4.0).abs() < 1e-9, "expected 4x: {t1} vs {t8}");
    }

    #[test]
    fn pp_prediction_mirrors_engine_sweep_units() {
        // With the exact estimator, the model's pair-projection counts
        // are the engine's pair-memo lengths, so the analytic PP units
        // must equal PpState::sweep_units exactly (rate 1 ns/unit).
        let t = zipf_tensor(&[60, 50, 40, 30], 5_000, &[0.8; 4], 25);
        let mut c = cache(&t);
        let p = uniform_profile(1.0);
        let predicted = predict_pp_time_ns(t.dims(), 8, &mut c, &p, 8);
        let pp = adatm_dtree::PpState::new(&t, 8);
        assert!(
            (predicted - pp.sweep_units()).abs() < 1e-9 * predicted,
            "model {predicted} vs engine {}",
            pp.sweep_units()
        );
        assert!(predict_pp_resident_bytes(t.dims(), 8, &mut c) > pp.memory_bytes() as f64 * 0.5);
    }

    #[test]
    fn pp_prediction_scales_with_rate() {
        let t = uniform_tensor(&[20; 4], 1_000, 26);
        let mut c = cache(&t);
        let a = predict_pp_time_ns(t.dims(), 8, &mut c, &uniform_profile(1.0), 8);
        let b = predict_pp_time_ns(t.dims(), 8, &mut c, &uniform_profile(3.0), 8);
        assert!(a > 0.0);
        assert!((b / a - 3.0).abs() < 1e-9);
    }

    #[test]
    fn csf_prediction_scales_with_rate_and_rank() {
        let t = uniform_tensor(&[20; 4], 1_000, 24);
        let mut c = cache(&t);
        let p1 = uniform_profile(1.0);
        let p3 = uniform_profile(3.0);
        let a = predict_csf_time_ns(t.dims(), 8, &mut c, &p1, 8);
        let b = predict_csf_time_ns(t.dims(), 8, &mut c, &p3, 8);
        let d = predict_csf_time_ns(t.dims(), 16, &mut c, &p1, 8);
        assert!(a > 0.0);
        assert!((b / a - 3.0).abs() < 1e-9);
        // Rank scales the per-node work and the output write, but not the
        // fixed per-mode tensor read: strictly sublinear in R.
        assert!(d > a && d < 2.0 * a);
        assert!(predict_csf_resident_bytes(t.dims(), &mut c) > 0.0);
    }
}
