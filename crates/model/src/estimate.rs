//! Estimators for intermediate tensor sizes.
//!
//! Every candidate dimension-tree node over mode set `S` has as many
//! elements as the input tensor has distinct projections onto `S`. The
//! planner evaluates hundreds of candidate nodes, so it needs this count
//! *cheaply*. Three estimators with different cost/fidelity trades:
//!
//! * **Exact** — distinct count over all entries sorted by packed `u64`
//!   keys ([`adatm_tensor::keys`]), `O(nnz log nnz)` word compares per
//!   subset. The oracle; used by tests and small planning problems.
//! * **Sampled** — distinct count over a fixed-size stride sample of the
//!   entries, sorted by the same packed keys, scaled up with a
//!   bias-corrected Chao1 richness estimator. `O(sample log sample)` per
//!   subset regardless of nnz, with no allocation per sampled entry; the
//!   default for planning.
//! * **Analytic** — the uniform-occupancy closed form
//!   `M (1 - (1 - 1/M)^nnz)`, `O(1)` per subset. Exact in expectation for
//!   uniform random tensors; a lower bound on collapse for skewed ones.
//!
//! All estimates are clamped to the hard bounds
//! `[1, min(nnz, prod_{d in S} I_d)]`.

use adatm_tensor::keys::SortedTuples;
use adatm_tensor::stats::distinct_projections;
use adatm_tensor::SparseTensor;
use std::collections::HashMap;

/// Strategy for estimating distinct projection counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NnzEstimator {
    /// Exact count over all entries, sorted by packed keys.
    Exact,
    /// Chao-corrected count over a sample of the given size.
    Sampled {
        /// Number of coordinates sampled (deterministic stride sample).
        sample: usize,
    },
    /// Uniform-occupancy closed form (no data access beyond nnz/dims).
    Analytic,
}

impl Default for NnzEstimator {
    fn default() -> Self {
        NnzEstimator::Sampled { sample: 1 << 14 }
    }
}

/// A memoizing evaluator binding an estimator to one tensor.
///
/// The planner asks for the same subsets repeatedly (the DP shares
/// intervals across candidate trees); the cache makes each subset cost
/// one evaluation.
pub struct EstimatorCache<'a> {
    tensor: &'a SparseTensor,
    estimator: NnzEstimator,
    cache: HashMap<Vec<usize>, f64>,
    /// Number of estimator evaluations that missed the cache, for
    /// reporting planning cost.
    pub misses: usize,
}

impl<'a> EstimatorCache<'a> {
    /// Creates a cache over `tensor` with the given strategy.
    pub fn new(tensor: &'a SparseTensor, estimator: NnzEstimator) -> Self {
        EstimatorCache { tensor, estimator, cache: HashMap::new(), misses: 0 }
    }

    /// Estimated distinct projections of the tensor onto `modes`
    /// (sorted internally; order does not matter).
    pub fn elems(&mut self, modes: &[usize]) -> f64 {
        let mut key: Vec<usize> = modes.to_vec();
        key.sort_unstable();
        if key.len() == self.tensor.ndim() {
            return self.tensor.nnz() as f64;
        }
        if let Some(&v) = self.cache.get(&key) {
            return v;
        }
        self.misses += 1;
        let v = estimate(self.tensor, &key, self.estimator);
        self.cache.insert(key, v);
        v
    }
}

/// One-shot estimate (prefer [`EstimatorCache`] for repeated queries).
pub fn estimate(t: &SparseTensor, modes: &[usize], how: NnzEstimator) -> f64 {
    let nnz = t.nnz();
    if nnz == 0 {
        return 0.0;
    }
    let space: f64 = modes.iter().map(|&m| t.dims()[m] as f64).product();
    let upper = (nnz as f64).min(space);
    let raw = match how {
        NnzEstimator::Exact => distinct_projections(t, modes) as f64,
        NnzEstimator::Analytic => analytic_occupancy(nnz as f64, space),
        NnzEstimator::Sampled { sample } => {
            if sample >= nnz {
                distinct_projections(t, modes) as f64
            } else {
                sampled_estimate(t, modes, sample)
            }
        }
    };
    raw.clamp(1.0, upper)
}

/// Expected number of occupied cells when `n` balls land uniformly in `m`
/// bins: `m (1 - (1 - 1/m)^n)`, computed stably via `exp(n ln(1-1/m))`.
pub fn analytic_occupancy(n: f64, m: f64) -> f64 {
    if m <= 1.0 {
        return 1.0_f64.min(n);
    }
    // ln_1p / exp_m1 keep precision when 1/m or the whole exponent is tiny
    // (m up to 10^30 for high-order tensors).
    let log_miss = n * (-1.0 / m).ln_1p();
    m * -log_miss.exp_m1()
}

/// Distinct-count scale-up from a deterministic stride sample.
///
/// Two bracketing estimators are blended:
///
/// * **Occupancy inversion** (method of moments): if the `nnz` entries
///   fall on `D` keys of homogeneous multiplicity `nnz / D`, a
///   fraction-`q` sample observes `E[d] = D (1 - (1-q)^(nnz/D))` distinct
///   keys; invert by bisection. Exact in expectation for homogeneous
///   multiplicities (uniform tensors); by Jensen's inequality (the hit
///   probability is concave in multiplicity) it *under*-estimates under
///   skew.
/// * **Chao1** (`d + f1(f1-1)/(2(f2+1))`, capped at the linear scale-up
///   `d/q`): built from sample singleton/doubleton counts; on these
///   workloads it errs high.
///
/// The geometric mean of a bracketing pair keeps the relative error of
/// both extremes small: it is exact when either is exact (the other
/// degrades gracefully toward the cap) and splits the bracket otherwise.
fn sampled_estimate(t: &SparseTensor, modes: &[usize], sample: usize) -> f64 {
    let nnz = t.nnz();
    // Round the stride up so the sample spans the whole entry array —
    // entries are typically sorted, and a truncated prefix would bias the
    // sample toward the head keys.
    let stride = nnz.div_ceil(sample).max(1);
    let sorted = SortedTuples::sampled(t, modes, stride);
    // Distinct keys plus singleton/doubleton counts in one scan.
    let mut d = 0usize;
    let (mut f1, mut f2) = (0usize, 0usize);
    for run in sorted.runs() {
        d += 1;
        match run {
            1 => f1 += 1,
            2 => f2 += 1,
            _ => {}
        }
    }
    let d = d as f64;
    let q = sorted.len() as f64 / nnz as f64;
    if q >= 1.0 {
        return d;
    }
    // Occupancy inversion: bisect E[d](D) = D (1-(1-q)^(nnz/D)) = d over
    // D in [d, d/q].
    let expected = |big_d: f64| -> f64 { big_d * -((nnz as f64 / big_d) * (-q).ln_1p()).exp_m1() };
    let (mut lo, mut hi) = (d, d / q);
    for _ in 0..64 {
        let mid = 0.5 * (lo + hi);
        if expected(mid) < d {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let mom = 0.5 * (lo + hi);
    let chao = (d + (f1 as f64 * (f1 as f64 - 1.0)) / (2.0 * (f2 as f64 + 1.0))).min(d / q);
    (mom * chao).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use adatm_tensor::gen::{uniform_tensor, zipf_tensor};

    #[test]
    fn exact_matches_stats_oracle() {
        let t = zipf_tensor(&[30, 40, 20], 1_000, &[0.7; 3], 3);
        for modes in [vec![0], vec![0, 1], vec![1, 2]] {
            let e = estimate(&t, &modes, NnzEstimator::Exact);
            assert_eq!(e as usize, distinct_projections(&t, &modes));
        }
    }

    #[test]
    fn analytic_exactish_for_uniform_tensors() {
        let t = uniform_tensor(&[100, 100, 100], 20_000, 7);
        for modes in [vec![0, 1], vec![1, 2]] {
            let exact = distinct_projections(&t, &modes) as f64;
            let est = estimate(&t, &modes, NnzEstimator::Analytic);
            let rel = (est - exact).abs() / exact;
            assert!(rel < 0.05, "modes {modes:?}: est {est} vs exact {exact}");
        }
    }

    #[test]
    fn analytic_occupancy_limits() {
        // n << m: nearly all distinct.
        assert!((analytic_occupancy(10.0, 1e12) - 10.0).abs() < 1e-6);
        // n >> m: saturates at m.
        assert!((analytic_occupancy(1e9, 100.0) - 100.0).abs() < 1e-6);
        // Degenerate single bin.
        assert_eq!(analytic_occupancy(5.0, 1.0), 1.0);
    }

    #[test]
    fn sampled_within_tolerance_on_skewed_tensor() {
        let t = zipf_tensor(&[500, 500, 500, 500], 40_000, &[0.9; 4], 11);
        for modes in [vec![0, 1], vec![2, 3]] {
            let exact = distinct_projections(&t, &modes) as f64;
            let est = estimate(&t, &modes, NnzEstimator::Sampled { sample: 8_192 });
            let rel = (est - exact).abs() / exact;
            assert!(rel < 0.35, "modes {modes:?}: est {est} vs exact {exact} (rel {rel:.2})");
        }
    }

    #[test]
    fn sampled_falls_back_to_exact_for_small_tensors() {
        let t = zipf_tensor(&[20, 20], 200, &[0.5; 2], 2);
        let e = estimate(&t, &[0], NnzEstimator::Sampled { sample: 100_000 });
        assert_eq!(e as usize, distinct_projections(&t, &[0]));
    }

    #[test]
    fn estimates_respect_hard_bounds() {
        let t = zipf_tensor(&[5, 5, 400], 2_000, &[1.2, 1.2, 0.1], 6);
        for how in
            [NnzEstimator::Exact, NnzEstimator::Analytic, NnzEstimator::Sampled { sample: 128 }]
        {
            for modes in [vec![0], vec![0, 1], vec![2]] {
                let e = estimate(&t, &modes, how);
                let space: f64 = modes.iter().map(|&m| t.dims()[m] as f64).product();
                assert!(e >= 1.0, "{how:?} {modes:?}");
                assert!(e <= (t.nnz() as f64).min(space) + 1e-9, "{how:?} {modes:?}: {e}");
            }
        }
    }

    #[test]
    fn empty_tensor_estimates_zero() {
        let t = SparseTensor::empty(vec![4, 4]);
        assert_eq!(estimate(&t, &[0], NnzEstimator::Exact), 0.0);
        assert_eq!(estimate(&t, &[0], NnzEstimator::Analytic), 0.0);
    }

    #[test]
    fn cache_hits_avoid_recomputation() {
        let t = uniform_tensor(&[50, 50, 50], 3_000, 4);
        let mut cache = EstimatorCache::new(&t, NnzEstimator::Exact);
        let a = cache.elems(&[0, 1]);
        let b = cache.elems(&[1, 0]); // order-insensitive
        assert_eq!(a, b);
        assert_eq!(cache.misses, 1);
        // Full mode set short-circuits to nnz without a miss.
        assert_eq!(cache.elems(&[0, 1, 2]), 3_000.0);
        assert_eq!(cache.misses, 1);
    }
}
