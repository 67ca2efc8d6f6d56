//! Strategy-space search: finding the best memoization tree.
//!
//! The search space is the set of dimension trees over `N` modes. Three
//! walkers with increasing coverage:
//!
//! * [`named_shapes`] — the fixed baselines the literature compares
//!   (flat / 3-level / balanced binary / left-deep);
//! * [`interval_dp`] — the optimal *binary* tree whose leaves follow a
//!   given mode permutation, found by dynamic programming over contiguous
//!   intervals in `O(N³)` model evaluations. A structural fact keeps the
//!   DP clean: computing both children of a node with mode set `S` costs
//!   `elems(S) * R * (|S| + 2)` flops, and each child's delta set is its
//!   sibling's mode set. So every term of the objective — flops, stream
//!   traffic, and the gather misses of the two children — is a function
//!   of a node and its split alone, and the objective decomposes node by
//!   node;
//! * [`subset_dp`] — the exact optimum over **all** binary trees (any
//!   mode partition), `O(3^N)` DP over subsets, practical for `N <= 8`.

use crate::cost::gather_miss_per_elem;
use crate::estimate::EstimatorCache;
use adatm_dtree::TreeShape;

/// The named baseline strategies with their table labels.
pub fn named_shapes(n: usize) -> Vec<(&'static str, TreeShape)> {
    vec![
        ("flat", TreeShape::two_level(n)),
        ("3level", TreeShape::three_level(n)),
        ("bdt", TreeShape::balanced_binary(n)),
        ("leftdeep", TreeShape::left_deep(n)),
    ]
}

/// Mode orderings to seed the interval DP with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OrderHeuristic {
    /// Modes in their natural order.
    Natural,
    /// Largest mode first (big modes split off early, keeping
    /// intermediates small deeper in the tree).
    DimsDescending,
    /// Smallest mode first.
    DimsAscending,
}

impl OrderHeuristic {
    /// Materializes the permutation for a tensor with the given mode sizes.
    pub fn order(self, dims: &[usize]) -> Vec<usize> {
        let mut perm: Vec<usize> = (0..dims.len()).collect();
        match self {
            OrderHeuristic::Natural => {}
            OrderHeuristic::DimsDescending => perm.sort_by_key(|&m| std::cmp::Reverse(dims[m])),
            OrderHeuristic::DimsAscending => perm.sort_by_key(|&m| dims[m]),
        }
        perm
    }
}

/// Result of a DP search: the best shape and its predicted flops.
#[derive(Clone, Debug)]
pub struct SearchResult {
    /// The winning tree.
    pub shape: TreeShape,
    /// Predicted fused multiply-adds per iteration under the model.
    pub flops: f64,
    /// The objective the DP minimized, for the winning tree:
    /// `flops + beta * (traffic + gather-miss bytes)` plus the memory
    /// penalty on memoized nodes. Without a penalty it equals
    /// [`CostBreakdown::cost_units`](crate::CostBreakdown::cost_units)
    /// of [`predict`](crate::cost::predict) on the shape.
    pub objective: f64,
}

/// Optimal binary tree over contiguous intervals of `perm`, under the
/// pure flop objective.
///
/// # Panics
/// Panics if `perm` has fewer than 2 modes.
pub fn interval_dp(perm: &[usize], rank: usize, cache: &mut EstimatorCache<'_>) -> SearchResult {
    interval_dp_weighted(perm, rank, cache, 0.0, 0.0)
}

/// Interval DP minimizing `flops + lambda_per_byte * value_bytes` (kept
/// for the memory-budget sweep; traffic weight zero).
pub fn interval_dp_penalized(
    perm: &[usize],
    rank: usize,
    cache: &mut EstimatorCache<'_>,
    lambda_per_byte: f64,
) -> SearchResult {
    interval_dp_weighted(perm, rank, cache, 0.0, lambda_per_byte)
}

/// Interval DP minimizing the full objective
/// `flops + beta * (traffic_bytes + gather_miss_bytes) + lambda * value_bytes`.
///
/// * `beta` (flops per byte) charges the value-stream traffic of each
///   node computation — the read of the source (tensor or parent value
///   matrix) plus the write of the node's own value matrix — and the
///   factor rows it gathers from beyond cache. MTTKRP is memory-bound,
///   so these terms decide between strategies with similar flop counts:
///   the stream traffic is what makes a 3-level tree beat a balanced
///   binary tree on high-order tensors with weak index collapse, and the
///   gather misses are what make either beat the flat tree once the
///   factors outgrow cache.
/// * `lambda_per_byte` additionally penalizes materialized bytes; the
///   planner sweeps it to generate memory/compute trade-off candidates
///   under a budget.
///
/// Every term decomposes over the recursion (each node's read depends on
/// its parent interval, each write on its own interval, and each child's
/// gather misses on its parent interval and its sibling), so the DP
/// stays exact for the stated objective.
///
/// # Panics
/// Panics if `perm` has fewer than 2 modes or a weight is negative.
pub fn interval_dp_weighted(
    perm: &[usize],
    rank: usize,
    cache: &mut EstimatorCache<'_>,
    beta: f64,
    lambda_per_byte: f64,
) -> SearchResult {
    let n = perm.len();
    assert!(n >= 2, "need at least 2 modes");
    assert!(beta >= 0.0 && lambda_per_byte >= 0.0, "weights must be nonnegative");
    let r = rank as f64;
    // Interval tables, flat: entry `at(a, b)` is interval [a, b).
    let at = |a: usize, b: usize| a * (n + 1) + b;
    let cells = n * (n + 1);
    let mut elems = vec![0.0f64; cells];
    for a in 0..n {
        for b in (a + 1)..=n {
            elems[at(a, b)] = cache.elems(&perm[a..b]);
        }
    }
    // Factor rows touched by an interval's modes, for the gather misses
    // of a child whose delta set is that interval.
    let mut rows = vec![0.0f64; cells];
    for a in 0..n {
        for b in (a + 1)..=n {
            rows[at(a, b)] = rows[at(a, b - 1)] + elems[at(b - 1, b)];
        }
    }
    let gather = |a: usize, b: usize| gather_miss_per_elem(b - a, rows[at(a, b)], rank);
    // Value-matrix write bytes of an interval.
    let write = |a: usize, b: usize| elems[at(a, b)] * r * 8.0;
    // Read bytes of consuming an interval as a parent: root streams the
    // tensor (values + index columns); inner nodes stream R-wide rows.
    let read = |a: usize, b: usize| {
        if b - a == n {
            elems[at(a, b)] * (8.0 + n as f64 * 4.0)
        } else {
            elems[at(a, b)] * r * 8.0
        }
    };
    // g[at(a, b)]: min objective of the subtree on [a, b), including the
    // write of [a, b) itself (charged to every non-root interval) but
    // excluding the read of its parent.
    let mut g = vec![0.0f64; cells];
    let mut split = vec![0usize; cells];
    for len in 2..=n {
        for a in 0..=(n - len) {
            let b = a + len;
            let flops = elems[at(a, b)] * r * (len as f64 + 2.0);
            // Two children are computed from this node: two reads.
            let own = flops
                + beta * 2.0 * read(a, b)
                + if len == n { 0.0 } else { (beta + lambda_per_byte) * write(a, b) };
            let (mut best, mut best_s) = (f64::INFINITY, a + 1);
            for s in a + 1..b {
                // Child [a, s) multiplies in [s, b), and [s, b) in [a, s).
                let misses = beta * elems[at(a, b)] * (gather(s, b) + gather(a, s));
                let c = g[at(a, s)] + g[at(s, b)] + misses;
                if c < best {
                    best = c;
                    best_s = s;
                }
            }
            g[at(a, b)] = own + best;
            split[at(a, b)] = best_s;
        }
    }
    // Leaves contribute their own writes. They are the same for every
    // tree over the permutation, so they stay out of g and join only the
    // reported objective.
    let leaf_writes: f64 = (0..n).map(|a| write(a, a + 1)).sum();
    let shape = TreeShape::from_splits(perm, 0, n, &|lo, hi| split[at(lo, hi)]);
    // Report unweighted flops for the chosen shape so callers compare
    // like for like.
    let flops = if beta == 0.0 && lambda_per_byte == 0.0 {
        g[at(0, n)]
    } else {
        shape_flops(&shape, perm, r, &elems_lookup(perm, &elems))
    };
    SearchResult { shape, flops, objective: g[at(0, n)] + beta * leaf_writes }
}

/// Lookup closure from a mode interval's mode set to its estimated
/// element count, backed by the DP's flat interval table.
fn elems_lookup<'a>(perm: &'a [usize], elems: &'a [f64]) -> impl Fn(&[usize]) -> f64 + 'a {
    let set = |modes: &[usize]| modes.iter().fold(0u64, |s, &m| s | 1 << m);
    move |modes: &[usize]| {
        // Find the contiguous interval of `perm` with this mode set.
        let (n, target) = (perm.len(), set(modes));
        for a in 0..n {
            for b in (a + 1)..=n {
                if b - a == modes.len() && set(&perm[a..b]) == target {
                    return elems[a * (n + 1) + b];
                }
            }
        }
        unreachable!("mode set must be a contiguous interval of the permutation")
    }
}

/// Unpenalized flop total of a binary tree over the permutation, using
/// interval element counts.
fn shape_flops(
    shape: &TreeShape,
    _perm: &[usize],
    r: f64,
    elems_of: &impl Fn(&[usize]) -> f64,
) -> f64 {
    fn walk(s: &TreeShape, r: f64, elems_of: &impl Fn(&[usize]) -> f64) -> f64 {
        match s {
            TreeShape::Leaf(_) => 0.0,
            TreeShape::Internal(children) => {
                let modes = s.modes();
                let own = elems_of(&modes) * r * (modes.len() as f64 + 2.0);
                own + children.iter().map(|c| walk(c, r, elems_of)).sum::<f64>()
            }
        }
    }
    walk(shape, r, elems_of)
}

/// Exact optimum over all binary trees (subset DP), pure flop objective.
///
/// # Panics
/// Panics if `n < 2` or `n > 16` (the DP is `O(3^N)`).
pub fn subset_dp(n: usize, rank: usize, cache: &mut EstimatorCache<'_>) -> SearchResult {
    subset_dp_weighted(n, rank, cache, 0.0)
}

/// Exact optimum over all binary trees under
/// `flops + beta * traffic_bytes` (see [`interval_dp_weighted`]).
///
/// # Panics
/// Panics if `n < 2` or `n > 16` (the DP is `O(3^N)`).
pub fn subset_dp_weighted(
    n: usize,
    rank: usize,
    cache: &mut EstimatorCache<'_>,
    beta: f64,
) -> SearchResult {
    assert!((2..=16).contains(&n), "subset DP practical only for 2 <= N <= 16");
    assert!(beta >= 0.0, "weight must be nonnegative");
    let r = rank as f64;
    let full: u32 = if n == 32 { u32::MAX } else { (1u32 << n) - 1 };
    let single: Vec<f64> = (0..n).map(|m| cache.elems(&[m])).collect();
    // Per mask: gather misses per parent element of a child whose delta
    // set is that mask (a child's delta set is its sibling's modes).
    let mut rows = vec![0.0f64; full as usize + 1];
    let mut gather = vec![0.0f64; full as usize + 1];
    for mask in 1..=full {
        let low = mask.trailing_zeros() as usize;
        rows[mask as usize] = rows[(mask & (mask - 1)) as usize] + single[low];
        gather[mask as usize] =
            gather_miss_per_elem(mask.count_ones() as usize, rows[mask as usize], rank);
    }
    // Flat tables indexed by mask (leaves stay 0), and one scratch list
    // of a mask's modes.
    let mut g = vec![0.0f64; full as usize + 1];
    let mut best_split = vec![0u32; full as usize + 1];
    let mut pure_flops = vec![0.0f64; full as usize + 1];
    let mut modes = Vec::with_capacity(n);
    // Masks by popcount, ascending within one, so children are solved
    // (and sized) before parents.
    for mask in (2..=n as u32).flat_map(|k| (1..=full).filter(move |m| m.count_ones() == k)) {
        let k = mask.count_ones();
        modes.clear();
        modes.extend((0..n).filter(|&m| mask & (1 << m) != 0));
        let e = cache.elems(&modes);
        let flops = e * r * (k as f64 + 2.0);
        // Two children read this node; non-root nodes also pay their own
        // value-matrix write.
        let read = if mask == full { e * (8.0 + n as f64 * 4.0) } else { e * r * 8.0 };
        let write = if mask == full { 0.0 } else { e * r * 8.0 };
        let own = flops + beta * (2.0 * read + write);
        let mut best = f64::INFINITY;
        let mut arg = 0u32;
        // Enumerate proper submasks; visit each unordered split once by
        // requiring the submask to contain the lowest set bit.
        let low = mask & mask.wrapping_neg();
        let mut sub = (mask - 1) & mask;
        while sub != 0 {
            if sub & low != 0 {
                let rest = mask ^ sub;
                let misses = beta * e * (gather[rest as usize] + gather[sub as usize]);
                let c = g[sub as usize] + g[rest as usize] + misses;
                if c < best {
                    best = c;
                    arg = sub;
                }
            }
            sub = (sub - 1) & mask;
        }
        g[mask as usize] = own + best;
        pure_flops[mask as usize] =
            flops + pure_flops[arg as usize] + pure_flops[(mask ^ arg) as usize];
        best_split[mask as usize] = arg;
    }
    fn rebuild(mask: u32, split: &[u32]) -> TreeShape {
        if mask.count_ones() == 1 {
            return TreeShape::Leaf(mask.trailing_zeros() as usize);
        }
        let a = split[mask as usize];
        TreeShape::internal(vec![rebuild(a, split), rebuild(mask ^ a, split)])
    }
    // Leaf writes are the same for every tree; they join only the
    // reported objective.
    let leaf_writes: f64 = single.iter().map(|&e| e * r * 8.0).sum();
    SearchResult {
        shape: rebuild(full, &best_split),
        flops: pure_flops[full as usize],
        objective: g[full as usize] + beta * leaf_writes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::predict;
    use crate::estimate::NnzEstimator;
    use adatm_tensor::gen::{uniform_tensor, zipf_tensor};
    use adatm_tensor::SparseTensor;

    fn cache(t: &SparseTensor) -> EstimatorCache<'_> {
        EstimatorCache::new(t, NnzEstimator::Exact)
    }

    #[test]
    fn named_shapes_cover_baselines() {
        let shapes = named_shapes(4);
        assert_eq!(shapes.len(), 4);
        for (_, s) in &shapes {
            s.validate();
        }
    }

    #[test]
    fn order_heuristics() {
        let dims = [10usize, 40, 20, 30];
        assert_eq!(OrderHeuristic::Natural.order(&dims), vec![0, 1, 2, 3]);
        assert_eq!(OrderHeuristic::DimsDescending.order(&dims), vec![1, 3, 2, 0]);
        assert_eq!(OrderHeuristic::DimsAscending.order(&dims), vec![0, 2, 3, 1]);
    }

    #[test]
    fn interval_dp_flops_matches_cost_model() {
        let t = zipf_tensor(&[30, 25, 35, 20], 2_000, &[0.8; 4], 7);
        let mut c = cache(&t);
        let perm: Vec<usize> = (0..4).collect();
        let res = interval_dp(&perm, 8, &mut c);
        let cb = predict(&res.shape, 8, &mut c);
        assert!(
            (res.flops - cb.flops_per_iter).abs() < 1e-6,
            "dp {} vs model {}",
            res.flops,
            cb.flops_per_iter
        );
    }

    #[test]
    fn interval_dp_beats_or_ties_every_contiguous_named_shape() {
        let t = zipf_tensor(&[40, 10, 50, 15, 45, 12], 3_000, &[0.9; 6], 9);
        let mut c = cache(&t);
        let perm: Vec<usize> = (0..6).collect();
        let res = interval_dp(&perm, 8, &mut c);
        // The BDT, 3-level and left-deep trees are contiguous binary trees
        // on the natural order, hence inside the DP's space.
        for shape in [
            adatm_dtree::TreeShape::balanced_binary(6),
            adatm_dtree::TreeShape::three_level(6),
            adatm_dtree::TreeShape::left_deep(6),
        ] {
            let cb = predict(&shape, 8, &mut c);
            assert!(
                res.flops <= cb.flops_per_iter + 1e-6,
                "dp {} worse than {shape}: {}",
                res.flops,
                cb.flops_per_iter
            );
        }
    }

    #[test]
    fn subset_dp_at_least_as_good_as_interval_dp() {
        let t = zipf_tensor(&[35, 8, 42, 11, 27], 2_500, &[1.0; 5], 13);
        let mut c = cache(&t);
        let best_interval = interval_dp(&(0..5).collect::<Vec<_>>(), 8, &mut c);
        let best_subset = subset_dp(5, 8, &mut c);
        assert!(best_subset.flops <= best_interval.flops + 1e-6);
        best_subset.shape.validate();
    }

    #[test]
    fn subset_dp_flops_matches_cost_model() {
        let t = zipf_tensor(&[20, 22, 24, 26], 1_500, &[0.7; 4], 3);
        let mut c = cache(&t);
        let res = subset_dp(4, 4, &mut c);
        let cb = predict(&res.shape, 4, &mut c);
        assert!((res.flops - cb.flops_per_iter).abs() < 1e-6);
    }

    #[test]
    fn subset_dp_exhaustive_check_on_3_modes() {
        // For N = 3 there are exactly 3 unordered binary trees:
        // ((01)2), ((02)1), ((12)0). Verify the DP picks the argmin.
        let t = zipf_tensor(&[15, 45, 25], 1_200, &[1.0, 0.2, 0.8], 17);
        let mut c = cache(&t);
        let res = subset_dp(3, 8, &mut c);
        let mut best = f64::INFINITY;
        for (a, b, lone) in [(0, 1, 2), (0, 2, 1), (1, 2, 0)] {
            let shape = TreeShape::internal(vec![
                TreeShape::internal(vec![TreeShape::Leaf(a), TreeShape::Leaf(b)]),
                TreeShape::Leaf(lone),
            ]);
            best = best.min(predict(&shape, 8, &mut c).flops_per_iter);
        }
        assert!((res.flops - best).abs() < 1e-6, "dp {} vs exhaustive {best}", res.flops);
    }

    #[test]
    fn penalized_dp_with_zero_lambda_equals_plain_dp() {
        let t = zipf_tensor(&[25, 30, 20, 35], 2_000, &[0.7; 4], 5);
        let mut c = cache(&t);
        let perm: Vec<usize> = (0..4).collect();
        let a = interval_dp(&perm, 8, &mut c);
        let b = interval_dp_penalized(&perm, 8, &mut c, 0.0);
        assert_eq!(a.shape, b.shape);
        assert!((a.flops - b.flops).abs() < 1e-9);
    }

    #[test]
    fn penalized_dp_reports_unpenalized_flops() {
        let t = zipf_tensor(&[25, 30, 20, 35, 15], 2_500, &[0.8; 5], 6);
        let mut c = cache(&t);
        let perm: Vec<usize> = (0..5).collect();
        let res = interval_dp_penalized(&perm, 8, &mut c, 32.0);
        let cb = predict(&res.shape, 8, &mut c);
        assert!(
            (res.flops - cb.flops_per_iter).abs() < 1e-6,
            "reported {} vs model {}",
            res.flops,
            cb.flops_per_iter
        );
    }

    #[test]
    fn high_penalty_drives_memory_down() {
        let t = uniform_tensor(&[40; 6], 5_000, 8);
        let mut c = cache(&t);
        let perm: Vec<usize> = (0..6).collect();
        let free = interval_dp_penalized(&perm, 16, &mut c, 0.0);
        let tight = interval_dp_penalized(&perm, 16, &mut c, 1e6);
        let mem = |s: &TreeShape, c: &mut EstimatorCache<'_>| predict(s, 16, c).peak_value_bytes;
        let m_free = mem(&free.shape, &mut c);
        let m_tight = mem(&tight.shape, &mut c);
        assert!(m_tight <= m_free, "penalty should not increase memory: {m_tight} vs {m_free}");
        // And the extreme penalty should not cost more memory than flat-
        // equivalent contiguous trees allow... flops may rise instead.
        assert!(tight.flops >= free.flops - 1e-9);
    }

    #[test]
    fn dp_objectives_equal_the_cost_model_with_gather_misses() {
        // Large uncollapsed factors make every tree pay gather misses, so
        // both DPs' split-dependent miss accounting is checked against
        // the cost model on the trees they return.
        let t = uniform_tensor(&[12_500; 8], 15_000, 33);
        let mut c = cache(&t);
        let beta = 1.0;
        let perm: Vec<usize> = (0..8).collect();
        let interval = interval_dp_weighted(&perm, 16, &mut c, beta, 0.0);
        let subset = subset_dp_weighted(8, 16, &mut c, beta);
        for (name, res) in [("interval", interval), ("subset", subset)] {
            let cb = predict(&res.shape, 16, &mut c);
            assert!(cb.gather_miss_bytes_per_iter > 0.0, "{name}");
            let units = cb.cost_units(beta);
            assert!(
                (res.objective - units).abs() < 1e-9 * units,
                "{name}: dp {} vs model {units} for {}",
                res.objective,
                res.shape
            );
            assert!((res.flops - cb.flops_per_iter).abs() < 1e-9 * units, "{name}");
        }
    }

    #[test]
    fn dp_on_uniform_tensor_prefers_balanced_splits() {
        // With no index collapse and equal dims, balanced trees minimize
        // intermediate sizes, so the DP should not return a degenerate
        // caterpillar.
        let t = uniform_tensor(&[50; 8], 4_000, 21);
        let mut c = cache(&t);
        let res = interval_dp(&(0..8).collect::<Vec<_>>(), 8, &mut c);
        assert!(res.shape.height() <= 4, "got height {} tree {}", res.shape.height(), res.shape);
    }
}
