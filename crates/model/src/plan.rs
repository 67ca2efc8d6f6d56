//! The planner facade: model-driven strategy selection.
//!
//! [`Planner`] evaluates the candidate strategy space for one tensor and
//! rank, applies an optional memory budget, and returns a [`MemoPlan`]
//! carrying the chosen tree plus the predicted costs of every alternative
//! considered — the provenance the model-accuracy experiment inspects.

use crate::cost::{
    predict, predict_coo_resident_bytes, predict_coo_time_ns, predict_csf_resident_bytes,
    predict_csf_time_ns, predict_pp_time_ns, predict_time_ns, CostBreakdown,
};
use crate::estimate::{EstimatorCache, NnzEstimator};
use crate::profile::KernelProfile;
use crate::search::{interval_dp_weighted, named_shapes, subset_dp_weighted, OrderHeuristic};
use adatm_dtree::TreeShape;
use adatm_tensor::SparseTensor;

/// What the planner minimizes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Objective {
    /// Fused multiply-adds only — the classic operation-count model.
    Flops,
    /// `flops + beta * (value_stream_bytes + gather_miss_bytes)`: MTTKRP
    /// is memory-bound, so weighting the reads/writes of intermediate
    /// value matrices models wall time much better than flops alone (it
    /// is what correctly prefers a shallow tree over a balanced one when
    /// projections barely collapse), and charging the factor rows gathered
    /// from beyond cache is what moves large-mode tensors off the flat
    /// tree. `beta` is the machine's effective flops-per-byte trade; 1.0
    /// is a good default for commodity cores.
    FlopsAndTraffic {
        /// Flops charged per byte of value-stream traffic.
        beta: f64,
    },
}

impl Objective {
    /// The traffic weight of this objective.
    pub fn beta(&self) -> f64 {
        match self {
            Objective::Flops => 0.0,
            Objective::FlopsAndTraffic { beta } => *beta,
        }
    }
}

impl Default for Objective {
    fn default() -> Self {
        Objective::FlopsAndTraffic { beta: 1.0 }
    }
}

/// Highest order for which the planner runs the exact `O(3^N)` subset
/// DP; above it, the interval DP over each order heuristic stands alone.
const SUBSET_DP_MAX_ORDER: usize = 6;

/// The mode orders the interval DP searches.
const ORDERS: [OrderHeuristic; 3] =
    [OrderHeuristic::Natural, OrderHeuristic::DimsDescending, OrderHeuristic::DimsAscending];

/// One evaluated strategy.
#[derive(Clone, Debug)]
pub struct Candidate {
    /// Label for tables (`"bdt"`, `"dp:natural"`, `"dp:subset"`, ...).
    pub label: String,
    /// The tree.
    pub shape: TreeShape,
    /// Predicted costs.
    pub cost: CostBreakdown,
    /// Whether the candidate fits the memory budget (true when no budget).
    pub fits_budget: bool,
    /// Calibrated per-iteration wall-time prediction in nanoseconds
    /// (`None` when the planner has no [`KernelProfile`]).
    pub predicted_ns: Option<f64>,
}

/// The planner's output: chosen strategy plus full provenance.
#[derive(Clone, Debug)]
pub struct MemoPlan {
    /// The selected tree (the best *tree* even when [`MemoPlan::use_csf`]
    /// says the CSF baseline is predicted faster still).
    pub shape: TreeShape,
    /// Predicted costs of the selection.
    pub predicted: CostBreakdown,
    /// Every candidate evaluated, sorted ascending by the ranking the
    /// planner used: calibrated time when a profile was supplied,
    /// analytic cost units otherwise.
    pub candidates: Vec<Candidate>,
    /// Number of distinct-count estimator evaluations spent planning.
    pub estimator_evals: usize,
    /// Calibrated per-iteration time of the selection (the CSF baseline's
    /// when [`MemoPlan::use_csf`], the chosen tree's otherwise); `None`
    /// without a profile.
    pub predicted_ns: Option<f64>,
    /// Calibrated per-iteration time of the SPLATT-CSF pseudo-candidate;
    /// `None` without a profile.
    pub csf_predicted_ns: Option<f64>,
    /// True when calibration predicts the non-memoizing CSF baseline
    /// outruns every tree candidate (and fits the memory budget): the
    /// adaptive backend should dispatch to CSF instead of a tree.
    pub use_csf: bool,
    /// Calibrated per-iteration time of the scheduled-COO
    /// pseudo-candidate; `None` without a profile.
    pub coo_predicted_ns: Option<f64>,
    /// True when calibration predicts the fused COO baseline outruns
    /// both every tree candidate and the CSF baseline: the adaptive
    /// backend should dispatch to plain scheduled COO.
    pub use_coo: bool,
    /// Calibrated time of one pairwise-perturbation *approximate* sweep
    /// (`pp_update` kernel class); `None` without a profile. Not a
    /// dispatch candidate — PP replaces exact sweeps only once CP-ALS
    /// factors settle — but the exact-vs-approximate ratio lets callers
    /// predict whether enabling PP is worth the pair-memo memory.
    pub pp_predicted_ns: Option<f64>,
}

/// Admission control rejected every strategy: not even the
/// lowest-memory viable backend (fused scheduled COO, whose only
/// resident structure is the tensor's own index/value storage) fits the
/// configured memory budget.
///
/// Returned by [`Planner::plan_admitted`]. The error names the cheapest
/// candidate evaluated and its requirement, so callers can report
/// exactly how far off the budget is instead of guessing.
#[derive(Clone, Debug, PartialEq)]
pub struct AdmissionError {
    /// The configured budget, in bytes.
    pub budget_bytes: usize,
    /// Label of the cheapest candidate evaluated (`"coo(fused)"`, a tree
    /// label, ...).
    pub cheapest_label: String,
    /// Predicted resident bytes of that cheapest candidate.
    pub cheapest_resident_bytes: f64,
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "no strategy fits the {}-byte memory budget: the cheapest candidate ({}) \
             needs {:.0} bytes",
            self.budget_bytes, self.cheapest_label, self.cheapest_resident_bytes
        )
    }
}

impl std::error::Error for AdmissionError {}

/// Model-driven memoization planner for one tensor.
///
/// ```
/// use adatm_model::{Planner, NnzEstimator};
/// use adatm_tensor::gen::zipf_tensor;
///
/// let t = zipf_tensor(&[50, 40, 60, 30], 5_000, &[0.8; 4], 1);
/// let plan = Planner::new(&t, 16)
///     .estimator(NnzEstimator::Exact)
///     .plan();
/// plan.shape.validate();
/// assert!(!plan.candidates.is_empty());
/// // The chosen strategy minimizes the traffic-aware objective.
/// let beta = adatm_model::Objective::default().beta();
/// assert!(plan.candidates.iter()
///     .all(|c| plan.predicted.cost_units(beta) <= c.cost.cost_units(beta) + 1e-9));
/// ```
pub struct Planner<'a> {
    tensor: &'a SparseTensor,
    rank: usize,
    estimator: NnzEstimator,
    memory_budget: Option<usize>,
    objective: Objective,
    calibration: Option<KernelProfile>,
    threads: usize,
}

impl<'a> Planner<'a> {
    /// Creates a planner with defaults: sampled estimation, no memory
    /// budget, the traffic-aware objective.
    pub fn new(tensor: &'a SparseTensor, rank: usize) -> Self {
        assert!(tensor.ndim() >= 2, "CP decomposition needs at least 2 modes");
        assert!(rank > 0, "rank must be positive");
        Planner {
            tensor,
            rank,
            estimator: NnzEstimator::default(),
            memory_budget: None,
            objective: Objective::default(),
            calibration: None,
            threads: rayon::current_num_threads(),
        }
    }

    /// Sets the selection objective (default: traffic-aware).
    pub fn objective(mut self, o: Objective) -> Self {
        self.objective = o;
        self
    }

    /// Supplies a measured [`KernelProfile`]. With one, the planner ranks
    /// candidates by calibrated per-iteration wall time (thread-count
    /// aware, per-class rates) instead of analytic cost units, and weighs
    /// SPLATT-CSF and fused-COO pseudo-candidates against the trees.
    /// Without one, the analytic model is the (machine-independent)
    /// fallback.
    pub fn calibration(mut self, profile: KernelProfile) -> Self {
        self.calibration = Some(profile);
        self
    }

    /// Sets the thread count the plan will execute at (default: the
    /// current rayon pool size). Only meaningful with a calibration
    /// profile — the analytic model is thread-count-free.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the distinct-count estimator.
    pub fn estimator(mut self, e: NnzEstimator) -> Self {
        self.estimator = e;
        self
    }

    /// Caps predicted resident memory (index structures + peak live value
    /// matrices). Candidates over the cap are rejected; if nothing fits,
    /// the minimum-memory candidate is chosen (and flagged).
    pub fn memory_budget(mut self, bytes: usize) -> Self {
        self.memory_budget = Some(bytes);
        self
    }

    /// Runs the search and returns the plan.
    pub fn plan(&self) -> MemoPlan {
        let n = self.tensor.ndim();
        let mut cache = EstimatorCache::new(self.tensor, self.estimator);
        let mut candidates: Vec<Candidate> = Vec::new();
        let rank = self.rank;
        fn push(
            candidates: &mut Vec<Candidate>,
            label: String,
            shape: TreeShape,
            rank: usize,
            cache: &mut EstimatorCache<'_>,
        ) {
            let cost = predict(&shape, rank, cache);
            candidates.push(Candidate {
                label,
                shape,
                cost,
                fits_budget: true,
                predicted_ns: None,
            });
        }
        /// As `push`, but drops the candidate when the tree is already in
        /// the set (used by the penalty sweep, which often rediscovers
        /// shapes).
        fn push_new(
            candidates: &mut Vec<Candidate>,
            label: String,
            shape: TreeShape,
            rank: usize,
            cache: &mut EstimatorCache<'_>,
        ) {
            if candidates.iter().all(|c| c.shape != shape) {
                push(candidates, label, shape, rank, cache);
            }
        }
        for (name, shape) in named_shapes(n) {
            push(&mut candidates, name.to_string(), shape, rank, &mut cache);
        }
        let beta = self.objective.beta();
        for h in ORDERS {
            let perm = h.order(self.tensor.dims());
            let res = interval_dp_weighted(&perm, self.rank, &mut cache, beta, 0.0);
            push(&mut candidates, format!("dp:{h:?}"), res.shape, rank, &mut cache);
            // Under a memory budget, sweep the flops/bytes trade-off:
            // increasingly memory-averse trees join the candidate set,
            // and the budget filter below picks the cheapest that fits.
            if self.memory_budget.is_some() {
                for lambda in [1.0, 8.0, 64.0, 512.0] {
                    let res = interval_dp_weighted(&perm, self.rank, &mut cache, beta, lambda);
                    push_new(
                        &mut candidates,
                        format!("dp:{h:?}:mem{lambda}"),
                        res.shape,
                        rank,
                        &mut cache,
                    );
                }
            }
        }
        if n <= SUBSET_DP_MAX_ORDER {
            let res = subset_dp_weighted(n, self.rank, &mut cache, beta);
            push(&mut candidates, "dp:subset".to_string(), res.shape, rank, &mut cache);
        }
        // Budget filter + selection.
        if let Some(budget) = self.memory_budget {
            for c in &mut candidates {
                c.fits_budget = c.cost.resident_bytes() <= budget as f64;
            }
        }
        // Final ranking: calibrated wall time when a profile is present,
        // analytic cost units otherwise.
        if let Some(profile) = &self.calibration {
            for c in &mut candidates {
                c.predicted_ns =
                    Some(predict_time_ns(&c.shape, rank, &mut cache, profile, self.threads));
            }
            candidates.sort_by(|a, b| {
                a.predicted_ns
                    .unwrap_or(f64::INFINITY)
                    .total_cmp(&b.predicted_ns.unwrap_or(f64::INFINITY))
            });
        } else {
            candidates.sort_by(|a, b| a.cost.cost_units(beta).total_cmp(&b.cost.cost_units(beta)));
        }
        let chosen = candidates
            .iter()
            .find(|c| c.fits_budget)
            .or_else(|| {
                // Nothing fits: fall back to the least-memory candidate.
                candidates
                    .iter()
                    .min_by(|a, b| a.cost.resident_bytes().total_cmp(&b.cost.resident_bytes()))
            })
            .expect("at least one candidate always exists")
            .clone();
        // Weigh the two non-memoizing baselines — SPLATT-CSF and fused
        // scheduled COO — against the best tree: each becomes the plan
        // when it is predicted fastest among everything that fits the
        // budget (or when no tree fits but the baseline does).
        let mut csf_predicted_ns = None;
        let mut coo_predicted_ns = None;
        let mut pp_predicted_ns = None;
        let mut use_csf = false;
        let mut use_coo = false;
        if let Some(profile) = &self.calibration {
            let dims = self.tensor.dims();
            let csf_ns = predict_csf_time_ns(dims, rank, &mut cache, profile, self.threads);
            let coo_ns = predict_coo_time_ns(dims, rank, &mut cache, profile, self.threads);
            csf_predicted_ns = Some(csf_ns);
            coo_predicted_ns = Some(coo_ns);
            pp_predicted_ns =
                Some(predict_pp_time_ns(dims, rank, &mut cache, profile, self.threads));
            let fits = |bytes: f64| match self.memory_budget {
                Some(budget) => bytes <= budget as f64,
                None => true,
            };
            let csf_fits = fits(predict_csf_resident_bytes(dims, &mut cache));
            let coo_fits = fits(predict_coo_resident_bytes(dims, &mut cache));
            let tree_ns = if chosen.fits_budget {
                chosen.predicted_ns.unwrap_or(f64::INFINITY)
            } else {
                f64::INFINITY
            };
            let best_baseline = match (csf_fits, coo_fits) {
                (true, true) => csf_ns.min(coo_ns),
                (true, false) => csf_ns,
                (false, true) => coo_ns,
                (false, false) => f64::INFINITY,
            };
            if best_baseline < tree_ns {
                use_coo = coo_fits && (!csf_fits || coo_ns <= csf_ns);
                use_csf = !use_coo && csf_fits;
            }
        }
        let predicted_ns = if use_coo {
            coo_predicted_ns
        } else if use_csf {
            csf_predicted_ns
        } else {
            chosen.predicted_ns
        };
        if adatm_trace::enabled() {
            for (i, c) in candidates.iter().enumerate() {
                adatm_trace::event!(
                    "planner.candidate",
                    rank_pos: i as u64,
                    label: c.label.as_str(),
                    cost_units: c.cost.cost_units(beta),
                    gather_bytes: c.cost.gather_miss_bytes_per_iter,
                    fits_budget: c.fits_budget,
                    predicted_ns: c.predicted_ns.unwrap_or(-1.0)
                );
            }
            let dispatch = if use_coo {
                "coo"
            } else if use_csf {
                "csf"
            } else {
                "tree"
            };
            adatm_trace::event!(
                "planner.decision",
                label: chosen.label.as_str(),
                dispatch: dispatch,
                calibrated: self.calibration.is_some(),
                threads: self.threads as u64,
                candidates: candidates.len() as u64,
                estimator_evals: cache.misses as u64,
                predicted_ns: predicted_ns.unwrap_or(-1.0),
                csf_predicted_ns: csf_predicted_ns.unwrap_or(-1.0),
                coo_predicted_ns: coo_predicted_ns.unwrap_or(-1.0),
                pp_predicted_ns: pp_predicted_ns.unwrap_or(-1.0)
            );
        }
        MemoPlan {
            shape: chosen.shape,
            predicted: chosen.cost,
            predicted_ns,
            candidates,
            estimator_evals: cache.misses,
            csf_predicted_ns,
            use_csf,
            coo_predicted_ns,
            use_coo,
            pp_predicted_ns,
        }
    }

    /// Runs the search with **admission control**: the memory budget is a
    /// hard gate, not just a ranking preference.
    ///
    /// Where [`Planner::plan`] silently falls back to the least-memory
    /// tree when nothing fits, this entry point enforces the budget:
    ///
    /// * the selected strategy fits — the plan is **admitted** unchanged;
    /// * no tree (or CSF baseline) fits, but fused scheduled COO does —
    ///   the plan is **degraded** to the COO baseline, the lowest-memory
    ///   viable backend (its only resident structure is the tensor's own
    ///   storage);
    /// * not even fused COO fits — a typed [`AdmissionError`] naming the
    ///   cheapest candidate's requirement is returned.
    ///
    /// Every outcome emits an `admission.decision` trace event. Without a
    /// configured budget this is exactly [`Planner::plan`].
    pub fn plan_admitted(&self) -> Result<MemoPlan, AdmissionError> {
        let mut plan = self.plan();
        let Some(budget) = self.memory_budget else {
            return Ok(plan);
        };
        let mut cache = EstimatorCache::new(self.tensor, self.estimator);
        let dims = self.tensor.dims();
        let coo_bytes = predict_coo_resident_bytes(dims, &mut cache);
        let chosen_label = plan
            .candidates
            .iter()
            .find(|c| c.shape == plan.shape)
            .map(|c| c.label.clone())
            .unwrap_or_else(|| "tree".to_string());
        let (selected_label, selected_bytes) = if plan.use_coo {
            ("coo(fused)".to_string(), coo_bytes)
        } else if plan.use_csf {
            ("csf".to_string(), predict_csf_resident_bytes(dims, &mut cache))
        } else {
            (chosen_label, plan.predicted.resident_bytes())
        };
        if selected_bytes <= budget as f64 {
            adatm_trace::event!(
                "admission.decision",
                decision: "admit",
                budget_bytes: budget as u64,
                resident_bytes: selected_bytes,
                label: selected_label.as_str()
            );
            return Ok(plan);
        }
        if coo_bytes <= budget as f64 {
            adatm_trace::event!(
                "admission.decision",
                decision: "degrade",
                budget_bytes: budget as u64,
                resident_bytes: coo_bytes,
                label: "coo(fused)"
            );
            plan.use_coo = true;
            plan.use_csf = false;
            plan.predicted_ns = plan.coo_predicted_ns;
            return Ok(plan);
        }
        // Nothing fits, not even the baseline that carries no auxiliary
        // structures: name the cheapest requirement so the caller can
        // report how far off the budget is.
        let (cheapest_label, cheapest_resident_bytes) = plan
            .candidates
            .iter()
            .map(|c| (c.label.as_str(), c.cost.resident_bytes()))
            .chain(std::iter::once(("coo(fused)", coo_bytes)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(l, b)| (l.to_string(), b))
            .expect("at least one candidate always exists");
        adatm_trace::event!(
            "admission.decision",
            decision: "reject",
            budget_bytes: budget as u64,
            resident_bytes: cheapest_resident_bytes,
            label: cheapest_label.as_str()
        );
        Err(AdmissionError { budget_bytes: budget, cheapest_label, cheapest_resident_bytes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ClassRate;
    use adatm_tensor::gen::{uniform_tensor, zipf_tensor};

    fn profile(coo: f64, csf: f64, pull: f64, scatter: f64) -> KernelProfile {
        let rate = |ns: f64| ClassRate { ns_per_unit_1t: ns, ns_per_unit_nt: ns / 4.0 };
        KernelProfile {
            threads: 8,
            coo_mttkrp: rate(coo),
            csf_root: rate(csf),
            tree_pull: rate(pull),
            tree_scatter: rate(scatter),
            pp_update: rate(0.5),
        }
    }

    #[test]
    fn plan_selects_minimum_predicted_flops_without_budget() {
        let t = zipf_tensor(&[40, 12, 36, 18], 3_000, &[0.9; 4], 5);
        let plan =
            Planner::new(&t, 8).estimator(NnzEstimator::Exact).objective(Objective::Flops).plan();
        let min =
            plan.candidates.iter().map(|c| c.cost.flops_per_iter).fold(f64::INFINITY, f64::min);
        assert!((plan.predicted.flops_per_iter - min).abs() < 1e-9);
        plan.shape.validate();
    }

    #[test]
    fn plan_beats_every_named_baseline() {
        let t = zipf_tensor(&[50, 9, 60, 14, 44], 4_000, &[1.0; 5], 8);
        let plan = Planner::new(&t, 8).estimator(NnzEstimator::Exact).plan();
        for c in plan.candidates.iter().filter(|c| !c.label.starts_with("dp:")) {
            assert!(
                plan.predicted.flops_per_iter <= c.cost.flops_per_iter + 1e-9,
                "{} beat the plan",
                c.label
            );
        }
    }

    #[test]
    fn memory_budget_rejects_heavy_strategies() {
        let t = uniform_tensor(&[60; 6], 6_000, 9);
        let unbounded = Planner::new(&t, 16).estimator(NnzEstimator::Exact).plan();
        // A budget barely above the flat tree's footprint forces a cheap-
        // memory plan.
        let flat = unbounded
            .candidates
            .iter()
            .find(|c| c.label == "flat")
            .expect("flat evaluated")
            .cost
            .resident_bytes();
        let plan = Planner::new(&t, 16)
            .estimator(NnzEstimator::Exact)
            .memory_budget(flat as usize + 1)
            .plan();
        assert!(plan.predicted.resident_bytes() <= flat + 1.0);
    }

    #[test]
    fn admission_admits_within_budget() {
        let t = uniform_tensor(&[30; 4], 2_000, 10);
        let plan = Planner::new(&t, 8)
            .estimator(NnzEstimator::Exact)
            .memory_budget(usize::MAX)
            .plan_admitted()
            .expect("a huge budget admits everything");
        assert!(!plan.use_coo);
        plan.shape.validate();
        // No budget at all is also an unconditional admit.
        Planner::new(&t, 8).estimator(NnzEstimator::Exact).plan_admitted().unwrap();
    }

    #[test]
    fn admission_degrades_to_fused_coo_when_only_it_fits() {
        // Huge sparse dims with uniform indices: nothing collapses, so
        // every tree must materialize an ~nnz-row intermediate whose
        // value matrix (nnz x R doubles) dwarfs the raw COO storage.
        let t = uniform_tensor(&[100_000; 3], 5_000, 10);
        let mut cache = EstimatorCache::new(&t, NnzEstimator::Exact);
        let coo = predict_coo_resident_bytes(t.dims(), &mut cache);
        let unbounded = Planner::new(&t, 32).estimator(NnzEstimator::Exact).plan();
        let min_tree = unbounded
            .candidates
            .iter()
            .map(|c| c.cost.resident_bytes())
            .fold(f64::INFINITY, f64::min);
        assert!(coo < min_tree, "premise: fused COO ({coo}) below every tree ({min_tree})");
        // A budget barely above the raw COO storage fits no tree.
        let plan = Planner::new(&t, 32)
            .estimator(NnzEstimator::Exact)
            .memory_budget(coo as usize + 1)
            .plan_admitted()
            .expect("fused COO fits, so admission must degrade, not reject");
        assert!(plan.use_coo, "degraded plan must dispatch to fused COO");
        assert!(!plan.use_csf);
    }

    #[test]
    fn admission_rejects_with_cheapest_requirement_when_nothing_fits() {
        let t = uniform_tensor(&[30; 4], 2_000, 10);
        let err = Planner::new(&t, 8)
            .estimator(NnzEstimator::Exact)
            .memory_budget(1)
            .plan_admitted()
            .expect_err("a 1-byte budget fits nothing");
        assert_eq!(err.budget_bytes, 1);
        assert!(err.cheapest_resident_bytes > 1.0);
        assert!(!err.cheapest_label.is_empty());
        let msg = err.to_string();
        assert!(msg.contains("1-byte"), "{msg}");
        assert!(msg.contains(&err.cheapest_label), "{msg}");
    }

    #[test]
    fn impossible_budget_falls_back_to_min_memory() {
        let t = uniform_tensor(&[30; 4], 2_000, 10);
        let plan = Planner::new(&t, 8).estimator(NnzEstimator::Exact).memory_budget(1).plan();
        let min_mem =
            plan.candidates.iter().map(|c| c.cost.resident_bytes()).fold(f64::INFINITY, f64::min);
        assert!((plan.predicted.resident_bytes() - min_mem).abs() < 1e-9);
    }

    #[test]
    fn auto_runs_subset_dp_for_small_orders() {
        let t = uniform_tensor(&[15; 4], 800, 12);
        let plan = Planner::new(&t, 4).estimator(NnzEstimator::Exact).plan();
        assert!(plan.candidates.iter().any(|c| c.label == "dp:subset"));
        assert!(plan.estimator_evals > 0);
    }

    #[test]
    fn auto_skips_subset_dp_for_large_orders() {
        let t = uniform_tensor(&[8; 8], 500, 13);
        let plan = Planner::new(&t, 4).estimator(NnzEstimator::Exact).plan();
        assert!(plan.candidates.iter().all(|c| c.label != "dp:subset"));
        assert!(plan.candidates.iter().any(|c| c.label.starts_with("dp:")));
    }

    #[test]
    fn candidates_sorted_by_objective_units() {
        let t = zipf_tensor(&[25; 4], 1_500, &[0.6; 4], 14);
        let plan = Planner::new(&t, 8).estimator(NnzEstimator::Exact).plan();
        let beta = Objective::default().beta();
        for w in plan.candidates.windows(2) {
            assert!(w[0].cost.cost_units(beta) <= w[1].cost.cost_units(beta));
        }
    }

    #[test]
    fn traffic_objective_selects_minimum_cost_units() {
        let t = zipf_tensor(&[30; 5], 2_500, &[0.5; 5], 16);
        let plan = Planner::new(&t, 16).estimator(NnzEstimator::Exact).plan();
        let min =
            plan.candidates.iter().map(|c| c.cost.cost_units(1.0)).fold(f64::INFINITY, f64::min);
        assert!((plan.predicted.cost_units(1.0) - min).abs() < 1e-9);
    }

    #[test]
    fn uncalibrated_plan_has_no_time_predictions() {
        let t = uniform_tensor(&[20; 4], 1_000, 30);
        let plan = Planner::new(&t, 4).estimator(NnzEstimator::Exact).plan();
        assert!(plan.predicted_ns.is_none());
        assert!(plan.csf_predicted_ns.is_none());
        assert!(plan.coo_predicted_ns.is_none());
        assert!(plan.pp_predicted_ns.is_none());
        assert!(!plan.use_csf);
        assert!(!plan.use_coo);
        assert!(plan.candidates.iter().all(|c| c.predicted_ns.is_none()));
    }

    #[test]
    fn calibrated_plan_ranks_by_predicted_time() {
        let t = zipf_tensor(&[40, 12, 36, 18], 3_000, &[0.9; 4], 31);
        let plan = Planner::new(&t, 8)
            .estimator(NnzEstimator::Exact)
            .calibration(profile(1.6, 1.2, 0.8, 1.0))
            .threads(8)
            .plan();
        assert!(plan.candidates.iter().all(|c| c.predicted_ns.is_some()));
        assert!(plan.pp_predicted_ns.is_some());
        for w in plan.candidates.windows(2) {
            assert!(w[0].predicted_ns <= w[1].predicted_ns);
        }
        let min =
            plan.candidates.iter().filter_map(|c| c.predicted_ns).fold(f64::INFINITY, f64::min);
        if !plan.use_csf && !plan.use_coo {
            assert_eq!(plan.predicted_ns, Some(min));
        }
        assert!(plan.csf_predicted_ns.is_some());
        assert!(plan.coo_predicted_ns.is_some());
    }

    #[test]
    fn coo_pseudo_candidate_wins_when_entry_kernels_are_fastest() {
        let t = zipf_tensor(&[30; 4], 2_000, &[0.7; 4], 34);
        // COO entry kernels priced 1000x below everything else: the
        // planner must dispatch to the fused COO baseline.
        let fast_coo = Planner::new(&t, 8)
            .estimator(NnzEstimator::Exact)
            .calibration(profile(0.001, 1.0, 1.0, 1.0))
            .plan();
        assert!(fast_coo.use_coo);
        assert!(!fast_coo.use_csf);
        assert_eq!(fast_coo.predicted_ns, fast_coo.coo_predicted_ns);
        // And pricing COO 1000x above everything must keep it out.
        let slow_coo = Planner::new(&t, 8)
            .estimator(NnzEstimator::Exact)
            .calibration(profile(1000.0, 1.0, 1.0, 1.0))
            .plan();
        assert!(!slow_coo.use_coo);
    }

    #[test]
    fn csf_pseudo_candidate_wins_when_tree_kernels_are_slow() {
        let t = zipf_tensor(&[30; 4], 2_000, &[0.7; 4], 32);
        // Tree kernels priced 1000x above CSF: the planner must dispatch
        // to the non-memoized baseline.
        let slow_trees = Planner::new(&t, 8)
            .estimator(NnzEstimator::Exact)
            .calibration(profile(1.0, 0.001, 1.0, 1.0))
            .plan();
        assert!(slow_trees.use_csf);
        assert_eq!(slow_trees.predicted_ns, slow_trees.csf_predicted_ns);
        // And the reverse pricing must keep the tree.
        let slow_csf = Planner::new(&t, 8)
            .estimator(NnzEstimator::Exact)
            .calibration(profile(1.0, 1000.0, 1.0, 1.0))
            .plan();
        assert!(!slow_csf.use_csf);
    }

    #[test]
    fn calibrated_plan_still_respects_memory_budget() {
        let t = uniform_tensor(&[60; 6], 6_000, 33);
        let unbounded = Planner::new(&t, 16)
            .estimator(NnzEstimator::Exact)
            .calibration(profile(1.6, 1.2, 0.8, 1.0))
            .plan();
        let flat = unbounded
            .candidates
            .iter()
            .find(|c| c.label == "flat")
            .expect("flat evaluated")
            .cost
            .resident_bytes();
        let plan = Planner::new(&t, 16)
            .estimator(NnzEstimator::Exact)
            .calibration(profile(1.6, 1.2, 0.8, 1.0))
            .memory_budget(flat as usize + 1)
            .plan();
        // CSF's N fiber forests never fit a budget this tight, so the
        // chosen strategy must be a tree within budget.
        assert!(!plan.use_csf);
        assert!(plan.predicted.resident_bytes() <= flat + 1.0);
    }

    #[test]
    fn traffic_objective_prefers_shallower_trees_on_no_collapse_data() {
        // Uniform high-order tensors: every intermediate is ~nnz elements,
        // so a balanced tree's many materializations dominate. The
        // traffic-aware plan must choose fewer memoized nodes than the
        // flop-only plan (which tends to the balanced tree).
        let t = uniform_tensor(&[60; 8], 6_000, 18);
        let flops_plan =
            Planner::new(&t, 16).estimator(NnzEstimator::Exact).objective(Objective::Flops).plan();
        let traffic_plan = Planner::new(&t, 16).estimator(NnzEstimator::Exact).plan();
        assert!(
            traffic_plan.predicted.memo_count <= flops_plan.predicted.memo_count,
            "traffic-aware memoized {} nodes vs flop-only {}",
            traffic_plan.predicted.memo_count,
            flops_plan.predicted.memo_count
        );
        assert!(
            traffic_plan.predicted.traffic_bytes_per_iter
                <= flops_plan.predicted.traffic_bytes_per_iter + 1e-9
        );
    }
}
