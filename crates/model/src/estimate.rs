//! Estimators for intermediate tensor sizes.
//!
//! Every candidate dimension-tree node over mode set `S` has as many
//! elements as the input tensor has distinct projections onto `S`. The
//! planner evaluates hundreds of candidate nodes, so it needs this count
//! *cheaply*. Three estimators with different cost/fidelity trades:
//!
//! * **Exact** — distinct count over all entries. The reference for the
//!   other two; used by tests and when the planner is asked for it.
//! * **Sampled** — distinct count over a fixed-size stride sample of the
//!   entries, scaled up with a blend of occupancy inversion and the
//!   bias-corrected Chao1 richness estimator; the default for planning.
//! * **Analytic** — the uniform-occupancy closed form
//!   `M (1 - (1 - 1/M)^nnz)`, `O(1)` per subset. Exact in expectation for
//!   uniform random tensors; a lower bound on collapse for skewed ones.
//!
//! The two counting estimators never sort the counted entries once per
//! subset. [`EstimatorCache`] groups them by one mode at a time
//! ([`adatm_tensor::groups`]) and sizes each subset by splitting the
//! kept grouping of the subset one mode smaller, so a split touches only
//! the entries that still share a tuple. On sparse high-order tensors two
//! or three modes leave none, and every larger subset is all-distinct at
//! no cost.
//!
//! All estimates are clamped to the hard bounds
//! `[1, min(nnz, prod_{d in S} I_d)]`.

use adatm_tensor::groups::{GroupCounts, Grouping, RefineScratch};
use adatm_tensor::SparseTensor;
use std::collections::HashMap;

/// Strategy for estimating distinct projection counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NnzEstimator {
    /// Exact count over all entries.
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
/// one evaluation. Mode sets are keyed as bitsets, one bit per mode, so a
/// cache hit allocates nothing.
///
/// The counting estimators share their work across subsets. A set `S`
/// orders its modes into a chain by their own distinct counts, highest
/// first (ties by mode index), and its grouping is that of `S` minus its
/// lowest-count mode, split by that mode's index. Each mode's grouping is
/// kept, and so is every grouping met on a chain while the kept chain
/// prefixes hold at most `N·nnz` grouped entries (`N` modes), so a later
/// set starts from the longest chain prefix it shares with an earlier
/// one; once a prefix is all-distinct the set is too, at no cost. Keeping
/// the high-count modes first reaches all-distinct prefixes soonest. The
/// result is the `(d, f1, f2)` that one sort of the subset's tuples gives
/// (the tests' reference), so the estimates match it bit for bit.
///
/// Transient memory, with `n` counted entries (at most the sample size
/// for [`NnzEstimator::Sampled`], `nnz` for [`NnzEstimator::Exact`]): a
/// grouping takes 6 bytes per entry in a group of two or more (its id,
/// and at most half a group end), so at most `6n` bytes per mode and
/// `6N·nnz` bytes for the kept chain prefixes, one and a half times the
/// tensor's index columns. A chain past that limit holds two more
/// groupings while it splits, and the split buffers take `22n`. In all
/// at most `(6N + 34)·n + 6N·nnz` bytes, plus a few words per evaluated
/// set, held until the cache drops.
pub struct EstimatorCache<'a> {
    tensor: &'a SparseTensor,
    estimator: NnzEstimator,
    /// Estimates by mode set.
    cache: HashMap<Box<[u64]>, f64>,
    /// Groupings of the counted entries: slot [`UNKEPT`], then each
    /// mode's (found by mode in `single`) and the kept chain prefixes'
    /// (by mode set in `prefixes`).
    groupings: Vec<Grouping>,
    single: Vec<Option<usize>>,
    prefixes: HashMap<Box<[u64]>, usize>,
    /// Grouped entries across the kept chain prefixes.
    kept: usize,
    scratch: RefineScratch,
    /// The mode set being evaluated, and a chain prefix of it.
    key: Vec<u64>,
    prefix: Vec<u64>,
    /// The modes of `key` in chain order.
    chain: Vec<usize>,
    /// Number of estimator evaluations that missed the cache, for
    /// reporting planning cost.
    pub misses: usize,
}

impl<'a> EstimatorCache<'a> {
    /// Creates a cache over `tensor` with the given strategy.
    pub fn new(tensor: &'a SparseTensor, estimator: NnzEstimator) -> Self {
        let words = tensor.ndim().div_ceil(64).max(1);
        EstimatorCache {
            tensor,
            estimator,
            cache: HashMap::new(),
            groupings: vec![Grouping::default()],
            single: vec![None; tensor.ndim()],
            prefixes: HashMap::new(),
            kept: 0,
            scratch: RefineScratch::default(),
            key: vec![0; words],
            prefix: vec![0; words],
            chain: Vec::new(),
            misses: 0,
        }
    }

    /// Estimated distinct projections of the tensor onto `modes`
    /// (order does not matter).
    pub fn elems(&mut self, modes: &[usize]) -> f64 {
        set_bits(&mut self.key, modes);
        let len: u32 = self.key.iter().map(|w| w.count_ones()).sum();
        if len as usize == self.tensor.ndim() {
            return self.tensor.nnz() as f64;
        }
        if let Some(&v) = self.cache.get(self.key.as_slice()) {
            return v;
        }
        self.misses += 1;
        let v = self.evaluate();
        self.cache.insert(self.key.as_slice().into(), v);
        v
    }

    /// The estimate for the mode set in `key`, clamped to
    /// `[1, min(nnz, prod_{d in S} I_d)]`.
    fn evaluate(&mut self) -> f64 {
        let t = self.tensor;
        let nnz = t.nnz();
        if nnz == 0 {
            return 0.0;
        }
        let space: f64 = modes_of(&self.key).map(|m| t.dims()[m] as f64).product();
        let upper = (nnz as f64).min(space);
        let stride = match self.estimator {
            NnzEstimator::Analytic => {
                return analytic_occupancy(nnz as f64, space).clamp(1.0, upper)
            }
            NnzEstimator::Exact => 1,
            NnzEstimator::Sampled { sample } if sample >= nnz => 1,
            // Round the stride up so the sample spans the whole entry
            // array: entries are typically sorted, and a truncated prefix
            // would bias the sample toward the head keys.
            NnzEstimator::Sampled { sample } => nnz.div_ceil(sample.max(1)),
        };
        // With room for one tuple at most (the empty mode set among
        // them) the clamp below gives 1 whatever the count.
        if upper < 2.0 {
            return 1.0;
        }
        let counts = self.count(stride);
        let raw = if stride == 1 {
            counts.distinct as f64
        } else {
            scale_up(counts, nnz.div_ceil(stride), nnz)
        };
        raw.clamp(1.0, upper)
    }

    /// The profile of the counted entries (ids `0..nnz/stride`, rounded
    /// up) grouped by the non-empty mode set in `key`, refined along its
    /// chain.
    fn count(&mut self, stride: usize) -> GroupCounts {
        #[cfg(test)]
        if tests::ORACLE.with(std::cell::Cell::get) {
            return tests::oracle(self.tensor, &modes_of(&self.key).collect::<Vec<_>>(), stride);
        }
        let t = self.tensor;
        let n = t.nnz().div_ceil(stride);
        let EstimatorCache {
            groupings, single, prefixes, kept, scratch, key, prefix, chain, ..
        } = self;
        chain.clear();
        chain.extend(modes_of(key));
        for &m in chain.iter() {
            if single[m].is_none() {
                groupings.push(Grouping::by_index(t.mode_idx(m), n, stride, scratch));
                single[m] = Some(groupings.len() - 1);
            }
        }
        let card = |m: usize| single[m].map_or(0, |g| groupings[g].counts().distinct);
        chain.sort_by_key(|&m| (std::cmp::Reverse(card(m)), m));
        let mut at = single[chain[0]].unwrap_or_default();
        set_bits(prefix, &chain[..1]);
        for &m in &chain[1..] {
            if groupings[at].all_distinct() {
                break;
            }
            prefix[m / 64] |= 1 << (m % 64);
            at = match prefixes.get(prefix.as_slice()) {
                Some(&g) => g,
                None => {
                    let refined = groupings[at].refine(t.mode_idx(m), stride, scratch);
                    if *kept + refined.grouped() > t.ndim() * t.nnz() {
                        groupings[UNKEPT] = refined;
                        UNKEPT
                    } else {
                        *kept += refined.grouped();
                        groupings.push(refined);
                        prefixes.insert(prefix.as_slice().into(), groupings.len() - 1);
                        groupings.len() - 1
                    }
                }
            };
        }
        groupings[at].counts()
    }
}

/// The slot of [`EstimatorCache::groupings`] that holds a chain's latest
/// grouping when the kept prefixes are full.
const UNKEPT: usize = 0;

/// Sets `bits` to the bitset of `modes`.
fn set_bits(bits: &mut [u64], modes: &[usize]) {
    bits.fill(0);
    for &m in modes {
        bits[m / 64] |= 1 << (m % 64);
    }
}

/// The modes in a bitset, ascending.
fn modes_of(bits: &[u64]) -> impl Iterator<Item = usize> + '_ {
    bits.iter().enumerate().flat_map(|(w, &word)| {
        (0..64).filter(move |b| word & (1 << b) != 0).map(move |b| w * 64 + b)
    })
}

/// One-shot estimate (prefer [`EstimatorCache`] for repeated queries).
pub fn estimate(t: &SparseTensor, modes: &[usize], how: NnzEstimator) -> f64 {
    let mut cache = EstimatorCache::new(t, how);
    set_bits(&mut cache.key, modes);
    cache.evaluate()
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
fn scale_up(counts: GroupCounts, sampled: usize, nnz: usize) -> f64 {
    let GroupCounts { distinct: d, singletons: f1, doubletons: f2 } = counts;
    let d = d as f64;
    let q = sampled as f64 / nnz as f64;
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
    use crate::Planner;
    use adatm_tensor::coo::Idx;
    use adatm_tensor::gen::{uniform_tensor, zipf_tensor};
    use adatm_tensor::keys::SortedTuples;
    use adatm_tensor::stats::distinct_projections;
    use proptest::prelude::*;
    use std::cell::Cell;

    thread_local! {
        /// While set, every count in this thread comes from [`oracle`].
        pub(super) static ORACLE: Cell<bool> = const { Cell::new(false) };
    }

    /// `(d, f1, f2)` of the counted entries' projections onto `modes`,
    /// from one packed-key sort of the subset: the count refinement
    /// replaced.
    pub(super) fn oracle(t: &SparseTensor, modes: &[usize], stride: usize) -> GroupCounts {
        SortedTuples::sampled(t, modes, stride).runs().fold(GroupCounts::default(), |c, run| {
            GroupCounts {
                distinct: c.distinct + 1,
                singletons: c.singletons + usize::from(run == 1),
                doubletons: c.doubletons + usize::from(run == 2),
            }
        })
    }

    /// `f`'s result with every count taken from [`oracle`].
    fn with_oracle<T>(f: impl FnOnce() -> T) -> T {
        ORACLE.with(|o| o.set(true));
        let out = f();
        ORACLE.with(|o| o.set(false));
        out
    }

    /// Deterministic SplitMix64 stream.
    fn stream(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed;
        move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    /// The ways [`random_tensor`] draws coordinates.
    #[derive(Clone, Copy, Debug)]
    enum Draw {
        Uniform,
        /// Zipf-like: the fourth power of a uniform draw crowds the low
        /// indices.
        Skewed,
        /// Copies of a few distinct coordinates.
        Duplicates,
    }

    /// `nnz` entries over `dims` in drawing order, neither sorted nor
    /// deduplicated.
    fn random_tensor(dims: &[usize], nnz: usize, draw: Draw, seed: u64) -> SparseTensor {
        let mut next = stream(seed);
        let coord = |next: &mut dyn FnMut() -> u64| -> Vec<Idx> {
            dims.iter()
                .map(|&dim| {
                    let u = (next() >> 11) as f64 / (1u64 << 53) as f64;
                    let x = if matches!(draw, Draw::Skewed) { u.powi(4) } else { u };
                    ((x * dim as f64) as usize).min(dim - 1) as Idx
                })
                .collect()
        };
        let pool: Vec<Vec<Idx>> = (0..1 + nnz / 40).map(|_| coord(&mut next)).collect();
        let entries: Vec<Vec<Idx>> = (0..nnz)
            .map(|_| match draw {
                Draw::Duplicates => pool[(next() % pool.len() as u64) as usize].clone(),
                _ => coord(&mut next),
            })
            .collect();
        let inds = (0..dims.len()).map(|m| entries.iter().map(|e| e[m]).collect()).collect();
        SparseTensor::new(dims.to_vec(), inds, vec![1.0; nnz])
    }

    /// Asserts that refinement gives the oracle's `(d, f1, f2)` for every
    /// non-empty subset of `t`'s modes at `stride`. The subsets are met
    /// in ascending and in descending bitmask order, so chains are built
    /// both prefix first and whole set first.
    fn check_every_subset(t: &SparseTensor, stride: usize) {
        let n = t.ndim();
        for descending in [false, true] {
            let mut cache = EstimatorCache::new(t, NnzEstimator::Exact);
            let mut masks: Vec<u64> = (1..1u64 << n).collect();
            if descending {
                masks.reverse();
            }
            for mask in masks {
                let modes: Vec<usize> = (0..n).filter(|&m| mask >> m & 1 == 1).collect();
                set_bits(&mut cache.key, &modes);
                let want = oracle(t, &modes, stride);
                assert_eq!(cache.count(stride), want, "modes {modes:?}, stride {stride}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn refinement_matches_the_packed_key_oracle(
            shape in proptest::collection::vec((0u32..4, 2usize..40), 1..=12),
            nnz in 0usize..2_500,
            draw in 0u32..3,
            stride in 1usize..=4,
            seed in 0u64..1_000,
        ) {
            // Each mode: a dim of 1, a few values, above 2^16 (a 17- to
            // 20-bit index), or the full 32 bits.
            let dims: Vec<usize> = shape
                .iter()
                .map(|&(class, small)| match class {
                    0 => 1,
                    1 => small,
                    2 => (1 << 16) + (small << 12),
                    _ => 1 << 32,
                })
                .collect();
            // Every subset is checked: fewer entries at high orders.
            let nnz = if dims.len() > 8 { nnz % 300 } else { nnz };
            let draw = [Draw::Uniform, Draw::Skewed, Draw::Duplicates][draw as usize];
            check_every_subset(&random_tensor(&dims, nnz, draw, seed), stride);
        }
    }

    #[test]
    fn refinement_matches_the_oracle_on_tiny_tensors() {
        for nnz in [0, 1, 2] {
            for dims in [vec![1], vec![1, 1], vec![3, 1, 70_000], vec![2; 5]] {
                for stride in 1..=4 {
                    check_every_subset(&random_tensor(&dims, nnz, Draw::Uniform, 5), stride);
                }
            }
        }
    }

    #[test]
    fn refinement_matches_the_oracle_around_the_sample() {
        // Just below, at and above the default estimator's 16384-entry
        // sample: strides 1, 1 and 2 there.
        let NnzEstimator::Sampled { sample } = NnzEstimator::default() else {
            unreachable!("the default estimator samples")
        };
        for nnz in [sample - 1, sample, sample + 1] {
            for (dims, draw) in [
                (vec![200, 3_000, 30_000, 10_000], Draw::Skewed),
                (vec![50, 1 << 20, 7], Draw::Uniform),
                (vec![40, 40, 40], Draw::Duplicates),
            ] {
                let t = random_tensor(&dims, nnz, draw, nnz as u64);
                for stride in 1..=4 {
                    check_every_subset(&t, stride);
                }
            }
        }
    }

    #[test]
    fn chains_past_the_kept_limit_match_the_oracle() {
        // Eight modes of two to four values: most chain prefixes group
        // nearly every entry, so the kept prefixes fill up and later
        // chains split in the unkept slot.
        let t = random_tensor(&[2, 3, 4, 2, 3, 4, 2, 3], 3_000, Draw::Skewed, 12);
        let (nnz, ndim) = (t.nnz(), t.ndim());
        let mut cache = EstimatorCache::new(&t, NnzEstimator::Exact);
        for mask in (1..1u64 << ndim).rev() {
            let modes: Vec<usize> = (0..ndim).filter(|&m| mask >> m & 1 == 1).collect();
            set_bits(&mut cache.key, &modes);
            assert_eq!(cache.count(1), oracle(&t, &modes, 1), "modes {modes:?}");
            assert!(cache.kept <= ndim * nnz, "kept {} > {}", cache.kept, ndim * nnz);
        }
        assert!(cache.groupings[UNKEPT].grouped() > 0, "no chain passed the limit");
    }

    #[test]
    fn long_groups_take_the_radix_sort() {
        // Groups of thousands of entries, split by 32-bit, 20-bit and
        // 1-bit indices: three, two and one radix passes.
        let t = random_tensor(&[2, 1 << 32, 1 << 20, 3], 12_000, Draw::Skewed, 9);
        check_every_subset(&t, 1);
        let t = random_tensor(&[2, 1 << 32, 5], 12_000, Draw::Duplicates, 10);
        check_every_subset(&t, 1);
    }

    #[test]
    fn plans_match_a_planner_fed_by_the_oracle() {
        let beta = crate::Objective::default().beta();
        for (order, nnz) in
            [(3, 20_000), (4, 17_000), (5, 3_000), (6, 18_000), (7, 2_500), (8, 17_000)]
        {
            let dims: Vec<usize> = (0..order).map(|m| [40, 3_000, 200, 9_000][m % 4]).collect();
            let skews: Vec<f64> = (0..order).map(|m| [0.3, 0.9, 0.0, 1.1][m % 4]).collect();
            let t = zipf_tensor(&dims, nnz, &skews, order as u64);
            for estimator in [NnzEstimator::Exact, NnzEstimator::default()] {
                let plan = || {
                    let p = Planner::new(&t, 16).estimator(estimator).plan();
                    let costs: Vec<(String, u64)> = p
                        .candidates
                        .iter()
                        .map(|c| (c.label.clone(), c.cost.cost_units(beta).to_bits()))
                        .collect();
                    (p.shape.to_string(), p.estimator_evals, costs)
                };
                assert_eq!(plan(), with_oracle(plan), "{order} modes, {estimator:?}");
            }
        }
    }

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
