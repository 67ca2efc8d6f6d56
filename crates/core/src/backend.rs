//! MTTKRP backends: the engines CP-ALS alternates over.
//!
//! Each backend owns whatever preprocessed representation it needs (sorted
//! views, CSF forests, dimension-tree symbolic structure) and produces the
//! mode-`n` MTTKRP on demand. The [`MttkrpBackend::begin_mode`] hook
//! exists for memoizing backends: the dimension-tree protocol must
//! invalidate stale intermediates before each subiteration.

use adatm_dtree::{DtreeEngine, EngineOptions, TreeShape};
use adatm_linalg::Mat;
use adatm_model::{KernelProfile, MemoPlan, NnzEstimator, Planner};
use adatm_tensor::csf::CsfSet;
use adatm_tensor::mttkrp::{mttkrp_par_into, mttkrp_seq_into, schedule_for_view};
use adatm_tensor::schedule::{ModeSchedule, ScheduleCache, Workspace};
use adatm_tensor::{SortedModeView, SparseTensor};

/// An engine that computes MTTKRPs for CP-ALS.
pub trait MttkrpBackend {
    /// Called at the start of the subiteration that will update
    /// `U^(mode)`, *before* [`MttkrpBackend::mttkrp_into`]. Memoizing
    /// backends invalidate intermediates that involve `U^(mode)` here.
    fn begin_mode(&mut self, mode: usize) {
        let _ = mode;
    }

    /// Computes the mode-`mode` MTTKRP of `tensor` with the current
    /// `factors` into `out` (an `I_mode x R` matrix, overwritten).
    fn mttkrp_into(&mut self, tensor: &SparseTensor, factors: &[Mat], mode: usize, out: &mut Mat);

    /// Invalidates all cached numeric state (call after re-initializing
    /// factors outside the ALS protocol).
    fn reset(&mut self) {}

    /// The order in which CP-ALS subiterations should visit the modes.
    ///
    /// Non-memoizing backends are order-indifferent (natural order).
    /// Dimension-tree backends return their tree's left-to-right leaf
    /// sequence: visiting modes in that order is what guarantees every
    /// memoized node is computed exactly once per iteration (a subtree's
    /// leaves are contiguous in it, so a node stays valid precisely while
    /// the iteration works inside its subtree).
    fn mode_order(&self, ndim: usize) -> Vec<usize> {
        (0..ndim).collect()
    }

    /// Short label for experiment tables.
    fn name(&self) -> &'static str;

    /// Bytes of preprocessed structure held by the backend (index
    /// structures; excludes transient value matrices).
    fn structure_bytes(&self) -> usize {
        0
    }

    /// The calibrated per-iteration wall-time prediction in nanoseconds,
    /// for backends that planned with a kernel profile. The CP-ALS drift
    /// detector compares this against measured kernel time per iteration.
    /// `None` (the default) disables drift detection.
    fn predicted_iter_ns(&self) -> Option<f64> {
        None
    }
}

/// Element-wise COO MTTKRP (Tensor-Toolbox class): `N-1` row Hadamard
/// products per nonzero per mode, no memoization, no auxiliary structure
/// beyond per-mode sorted views for parallelism.
pub struct CooBackend {
    views: Vec<SortedModeView>,
    /// Per-mode nnz-balanced schedules, built lazily for the current
    /// thread count and dropped on [`MttkrpBackend::reset`].
    scheds: ScheduleCache<ModeSchedule>,
    /// Reusable kernel scratch; with it, steady-state calls allocate
    /// nothing on the sequential path and O(tasks) on the parallel one.
    ws: Workspace,
    parallel: bool,
}

impl CooBackend {
    /// Builds sorted views for every mode.
    pub fn new(tensor: &SparseTensor) -> Self {
        Self::with_parallel(tensor, true)
    }

    /// [`CooBackend::new`] with explicit parallelism: `false` runs
    /// `mttkrp_seq_into`, the thread-count-independent reference.
    pub fn with_parallel(tensor: &SparseTensor, parallel: bool) -> Self {
        let views: Vec<SortedModeView> =
            (0..tensor.ndim()).map(|m| SortedModeView::build(tensor, m)).collect();
        let scheds = ScheduleCache::new(views.len());
        CooBackend { views, scheds, ws: Workspace::new(), parallel }
    }
}

impl MttkrpBackend for CooBackend {
    fn mttkrp_into(&mut self, tensor: &SparseTensor, factors: &[Mat], mode: usize, out: &mut Mat) {
        if self.parallel {
            let threads = rayon::current_num_threads();
            let view = &self.views[mode];
            let sched = self.scheds.get_or_build(mode, threads, || {
                adatm_trace::event!(
                    "backend.schedule_rebuild",
                    backend: "coo",
                    mode: mode as u64,
                    threads: threads as u64
                );
                schedule_for_view(view, threads)
            });
            mttkrp_par_into(tensor, factors, mode, view, sched, &mut self.ws, out);
        } else {
            mttkrp_seq_into(tensor, factors, mode, out);
        }
    }

    fn reset(&mut self) {
        self.scheds.clear();
        self.ws.clear();
    }

    fn name(&self) -> &'static str {
        "coo"
    }

    fn structure_bytes(&self) -> usize {
        self.views.iter().map(SortedModeView::structure_bytes).sum::<usize>()
            + self.scheds.iter().map(ModeSchedule::structure_bytes).sum::<usize>()
            + self.ws.structure_bytes()
    }
}

/// SPLATT-style CSF backend: one fiber forest per mode, fiber-level reuse
/// of partial Hadamard products, no cross-mode memoization. The
/// state-of-the-art non-memoized baseline.
pub struct CsfBackend {
    set: CsfSet,
    /// Per-mode root-slice schedules, built lazily for the current
    /// thread count and dropped on [`MttkrpBackend::reset`].
    scheds: ScheduleCache<ModeSchedule>,
    /// Reusable kernel scratch shared across modes.
    ws: Workspace,
}

impl CsfBackend {
    /// Builds all `N` CSF representations.
    pub fn new(tensor: &SparseTensor) -> Self {
        CsfBackend {
            set: CsfSet::all_modes(tensor),
            scheds: ScheduleCache::new(tensor.ndim()),
            ws: Workspace::new(),
        }
    }
}

impl MttkrpBackend for CsfBackend {
    fn mttkrp_into(&mut self, _tensor: &SparseTensor, factors: &[Mat], mode: usize, out: &mut Mat) {
        let csf = self.set.for_mode(mode);
        let threads = rayon::current_num_threads();
        let sched = self.scheds.get_or_build(mode, threads, || {
            adatm_trace::event!(
                "backend.schedule_rebuild",
                backend: "splatt-csf",
                mode: mode as u64,
                threads: threads as u64
            );
            csf.root_schedule(threads)
        });
        csf.mttkrp_root_into(factors, sched, &mut self.ws, out);
    }

    fn reset(&mut self) {
        self.scheds.clear();
        self.ws.clear();
    }

    fn name(&self) -> &'static str {
        "splatt-csf"
    }

    fn structure_bytes(&self) -> usize {
        self.set.storage_bytes()
            + self.scheds.iter().map(ModeSchedule::structure_bytes).sum::<usize>()
            + self.ws.structure_bytes()
    }
}

/// Dimension-tree memoizing backend with a fixed shape.
pub struct DtreeBackend {
    engine: DtreeEngine,
    label: &'static str,
}

impl DtreeBackend {
    /// Builds the engine for an arbitrary shape.
    pub fn new(tensor: &SparseTensor, shape: &TreeShape, rank: usize) -> Self {
        Self::with_options(tensor, shape, rank, EngineOptions::default(), "dtree")
    }

    /// Flat 2-level tree (index-compressed, non-memoizing — the
    /// `ht-tree2` reference point).
    pub fn two_level(tensor: &SparseTensor, rank: usize) -> Self {
        let shape = TreeShape::two_level(tensor.ndim());
        Self::with_options(tensor, &shape, rank, EngineOptions::default(), "tree2")
    }

    /// 3-level tree (one memoized split — Phan et al.'s scheme).
    pub fn three_level(tensor: &SparseTensor, rank: usize) -> Self {
        let shape = TreeShape::three_level(tensor.ndim());
        Self::with_options(tensor, &shape, rank, EngineOptions::default(), "tree3")
    }

    /// Balanced binary dimension tree.
    pub fn balanced_binary(tensor: &SparseTensor, rank: usize) -> Self {
        let shape = TreeShape::balanced_binary(tensor.ndim());
        Self::with_options(tensor, &shape, rank, EngineOptions::default(), "bdt")
    }

    /// Fully explicit construction.
    pub fn with_options(
        tensor: &SparseTensor,
        shape: &TreeShape,
        rank: usize,
        opts: EngineOptions,
        label: &'static str,
    ) -> Self {
        DtreeBackend { engine: DtreeEngine::with_options(tensor, shape, rank, opts), label }
    }

    /// The underlying engine (counters, memory stats).
    pub fn engine(&self) -> &DtreeEngine {
        &self.engine
    }
}

impl MttkrpBackend for DtreeBackend {
    fn begin_mode(&mut self, mode: usize) {
        self.engine.invalidate_mode(mode);
    }

    fn mode_order(&self, ndim: usize) -> Vec<usize> {
        let order = self.engine.tree().shape().modes();
        debug_assert_eq!(order.len(), ndim);
        order
    }

    fn mttkrp_into(&mut self, tensor: &SparseTensor, factors: &[Mat], mode: usize, out: &mut Mat) {
        self.engine.mttkrp_into(tensor, factors, mode, out);
    }

    fn reset(&mut self) {
        self.engine.invalidate_all();
        self.engine.reset_caches();
    }

    fn name(&self) -> &'static str {
        self.label
    }

    fn structure_bytes(&self) -> usize {
        self.engine.symbolic().index_bytes()
    }
}

/// The engine an [`AdaptiveBackend`] dispatched to.
enum AdaptiveInner {
    /// A dimension tree on the plan's chosen shape (the usual case),
    /// boxed: its engine is far larger than the baselines.
    Tree(Box<DtreeBackend>),
    /// The SPLATT-CSF baseline — chosen when a calibration profile
    /// predicts no memoization strategy beats it on this machine.
    Csf(CsfBackend),
    /// The fused scheduled-COO baseline — chosen when calibration
    /// predicts it outruns both the trees and CSF here.
    Coo(CooBackend),
}

/// The model-driven backend: plans the memoization strategy with the cost
/// model, then runs the dimension-tree engine on the chosen shape — or
/// the CSF baseline, when a calibrated plan predicts memoization cannot
/// pay here. This is the system the paper proposes.
///
/// When the `ADATM_PROFILE` environment variable names a readable kernel
/// profile (written by `cargo xtask calibrate`), every planning
/// constructor ranks candidates by calibrated wall time at the current
/// rayon thread count; otherwise the analytic model decides.
pub struct AdaptiveBackend {
    inner: AdaptiveInner,
    plan: MemoPlan,
}

impl AdaptiveBackend {
    /// Plans with default estimator/search and builds the engine.
    pub fn plan(tensor: &SparseTensor, rank: usize) -> Self {
        Self::from_planner(tensor, rank, Self::default_planner(tensor, rank))
    }

    /// Plans with an explicit estimator.
    pub fn plan_with_estimator(
        tensor: &SparseTensor,
        rank: usize,
        estimator: NnzEstimator,
    ) -> Self {
        Self::from_planner(tensor, rank, Self::default_planner(tensor, rank).estimator(estimator))
    }

    /// Plans with a memory budget on resident structures.
    pub fn plan_with_budget(tensor: &SparseTensor, rank: usize, budget_bytes: usize) -> Self {
        Self::from_planner(
            tensor,
            rank,
            Self::default_planner(tensor, rank).memory_budget(budget_bytes),
        )
    }

    /// The planner the convenience constructors start from: current
    /// thread count, plus the environment calibration profile when one
    /// is available.
    fn default_planner(tensor: &SparseTensor, rank: usize) -> Planner<'_> {
        let mut planner = Planner::new(tensor, rank).threads(rayon::current_num_threads());
        if let Some(profile) = KernelProfile::load_env() {
            planner = planner.calibration(profile);
        }
        planner
    }

    /// Runs an explicitly configured planner and builds the engine.
    pub fn from_planner(tensor: &SparseTensor, rank: usize, planner: Planner<'_>) -> Self {
        Self::from_plan(tensor, rank, planner.plan())
    }

    /// Builds the engine for an already-computed plan — the entry point
    /// for admission-controlled callers, which obtain the plan via
    /// [`Planner::plan_admitted`] (so a rejected budget surfaces as a
    /// typed error *before* any engine structures are allocated) and
    /// then dispatch here.
    pub fn from_plan(tensor: &SparseTensor, rank: usize, plan: MemoPlan) -> Self {
        let inner = if plan.use_coo {
            AdaptiveInner::Coo(CooBackend::new(tensor))
        } else if plan.use_csf {
            AdaptiveInner::Csf(CsfBackend::new(tensor))
        } else {
            AdaptiveInner::Tree(Box::new(DtreeBackend::with_options(
                tensor,
                &plan.shape,
                rank,
                EngineOptions::default(),
                "adaptive",
            )))
        };
        adatm_trace::event!(
            "backend.dispatch",
            engine: match &inner {
                AdaptiveInner::Tree(_) => "tree",
                AdaptiveInner::Csf(_) => "csf",
                AdaptiveInner::Coo(_) => "coo",
            },
            shape: format!("{}", plan.shape),
            use_csf: plan.use_csf,
            use_coo: plan.use_coo,
            predicted_ns: plan.predicted_ns.unwrap_or(-1.0)
        );
        AdaptiveBackend { inner, plan }
    }

    /// The plan (chosen shape, predictions, alternatives).
    pub fn memo_plan(&self) -> &MemoPlan {
        &self.plan
    }

    /// The underlying dimension-tree engine, when the plan chose a tree
    /// (`None` after a calibrated plan dispatched to CSF or COO).
    pub fn tree_engine(&self) -> Option<&DtreeEngine> {
        match &self.inner {
            AdaptiveInner::Tree(b) => Some(b.engine()),
            AdaptiveInner::Csf(_) | AdaptiveInner::Coo(_) => None,
        }
    }

    /// The underlying engine.
    ///
    /// # Panics
    ///
    /// When the plan dispatched to the CSF or COO baseline; use
    /// [`AdaptiveBackend::tree_engine`] to handle that case.
    pub fn engine(&self) -> &DtreeEngine {
        self.tree_engine().expect("adaptive plan dispatched to a baseline; no tree engine")
    }
}

impl MttkrpBackend for AdaptiveBackend {
    fn begin_mode(&mut self, mode: usize) {
        match &mut self.inner {
            AdaptiveInner::Tree(b) => b.begin_mode(mode),
            AdaptiveInner::Csf(b) => b.begin_mode(mode),
            AdaptiveInner::Coo(b) => b.begin_mode(mode),
        }
    }

    fn mode_order(&self, ndim: usize) -> Vec<usize> {
        match &self.inner {
            AdaptiveInner::Tree(b) => b.mode_order(ndim),
            AdaptiveInner::Csf(b) => b.mode_order(ndim),
            AdaptiveInner::Coo(b) => b.mode_order(ndim),
        }
    }

    fn mttkrp_into(&mut self, tensor: &SparseTensor, factors: &[Mat], mode: usize, out: &mut Mat) {
        match &mut self.inner {
            AdaptiveInner::Tree(b) => b.mttkrp_into(tensor, factors, mode, out),
            AdaptiveInner::Csf(b) => b.mttkrp_into(tensor, factors, mode, out),
            AdaptiveInner::Coo(b) => b.mttkrp_into(tensor, factors, mode, out),
        }
    }

    fn reset(&mut self) {
        adatm_trace::event!("backend.reset", backend: "adaptive");
        match &mut self.inner {
            AdaptiveInner::Tree(b) => b.reset(),
            AdaptiveInner::Csf(b) => b.reset(),
            AdaptiveInner::Coo(b) => b.reset(),
        }
    }

    fn name(&self) -> &'static str {
        "adaptive"
    }

    fn predicted_iter_ns(&self) -> Option<f64> {
        self.plan.predicted_ns
    }

    fn structure_bytes(&self) -> usize {
        match &self.inner {
            AdaptiveInner::Tree(b) => b.structure_bytes(),
            AdaptiveInner::Csf(b) => b.structure_bytes(),
            AdaptiveInner::Coo(b) => b.structure_bytes(),
        }
    }
}

impl<B: MttkrpBackend + ?Sized> MttkrpBackend for Box<B> {
    fn begin_mode(&mut self, mode: usize) {
        (**self).begin_mode(mode);
    }

    fn mode_order(&self, ndim: usize) -> Vec<usize> {
        (**self).mode_order(ndim)
    }

    fn mttkrp_into(&mut self, tensor: &SparseTensor, factors: &[Mat], mode: usize, out: &mut Mat) {
        (**self).mttkrp_into(tensor, factors, mode, out);
    }

    fn reset(&mut self) {
        (**self).reset();
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn structure_bytes(&self) -> usize {
        (**self).structure_bytes()
    }

    fn predicted_iter_ns(&self) -> Option<f64> {
        (**self).predicted_iter_ns()
    }
}

/// Builds one of every backend under a common label, for harnesses that
/// sweep backends.
pub fn all_backends(tensor: &SparseTensor, rank: usize) -> Vec<Box<dyn MttkrpBackend>> {
    vec![
        Box::new(CooBackend::new(tensor)),
        Box::new(CsfBackend::new(tensor)),
        Box::new(DtreeBackend::two_level(tensor, rank)),
        Box::new(DtreeBackend::three_level(tensor, rank)),
        Box::new(DtreeBackend::balanced_binary(tensor, rank)),
        Box::new(AdaptiveBackend::plan(tensor, rank)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use adatm_tensor::gen::zipf_tensor;
    use adatm_tensor::mttkrp::mttkrp_seq;

    fn factors_for(t: &SparseTensor, rank: usize, seed: u64) -> Vec<Mat> {
        t.dims().iter().enumerate().map(|(d, &n)| Mat::random(n, rank, seed + d as u64)).collect()
    }

    #[test]
    fn every_backend_matches_reference_mttkrp() {
        let t = zipf_tensor(&[18, 22, 15, 20], 700, &[0.6; 4], 42);
        let factors = factors_for(&t, 4, 9);
        for mut b in all_backends(&t, 4) {
            for mode in 0..4 {
                b.begin_mode(mode);
                let mut out = Mat::zeros(t.dims()[mode], 4);
                b.mttkrp_into(&t, &factors, mode, &mut out);
                let want = mttkrp_seq(&t, &factors, mode);
                assert!(out.max_abs_diff(&want) < 1e-10, "backend {} mode {mode}", b.name());
            }
        }
    }

    #[test]
    fn adaptive_plan_is_exposed() {
        let t = zipf_tensor(&[20, 20, 20, 20], 500, &[0.8; 4], 1);
        let b = AdaptiveBackend::plan(&t, 8);
        let plan = b.memo_plan();
        assert!(!plan.candidates.is_empty());
        plan.shape.validate();
        assert!(plan.predicted.flops_per_iter > 0.0);
    }

    #[test]
    fn adaptive_dispatches_to_csf_under_a_tree_hostile_profile() {
        use adatm_model::{ClassRate, KernelProfile};
        let rate = |ns: f64| ClassRate { ns_per_unit_1t: ns, ns_per_unit_nt: ns };
        let profile = KernelProfile {
            threads: 8,
            coo_mttkrp: rate(1.0),
            csf_root: rate(1e-4),
            tree_pull: rate(100.0),
            tree_scatter: rate(100.0),
            pp_update: rate(1.0),
        };
        let t = zipf_tensor(&[15, 18, 12, 20], 600, &[0.6; 4], 11);
        let planner =
            Planner::new(&t, 4).estimator(NnzEstimator::Exact).calibration(profile).threads(8);
        let mut b = AdaptiveBackend::from_planner(&t, 4, planner);
        assert!(b.memo_plan().use_csf, "tree-hostile profile must dispatch to CSF");
        assert!(b.tree_engine().is_none());
        assert_eq!(b.name(), "adaptive");
        assert!(b.structure_bytes() > 0);
        let factors = factors_for(&t, 4, 13);
        for mode in 0..4 {
            b.begin_mode(mode);
            let mut out = Mat::zeros(t.dims()[mode], 4);
            b.mttkrp_into(&t, &factors, mode, &mut out);
            let want = mttkrp_seq(&t, &factors, mode);
            assert!(out.max_abs_diff(&want) < 1e-10, "mode {mode}");
        }
        // The reverse pricing keeps the tree engine.
        let tree_friendly = KernelProfile {
            threads: 8,
            coo_mttkrp: rate(1.0),
            csf_root: rate(100.0),
            tree_pull: rate(1e-4),
            tree_scatter: rate(1e-4),
            pp_update: rate(1.0),
        };
        let planner = Planner::new(&t, 4)
            .estimator(NnzEstimator::Exact)
            .calibration(tree_friendly)
            .threads(8);
        let b = AdaptiveBackend::from_planner(&t, 4, planner);
        assert!(!b.memo_plan().use_csf);
        assert!(b.tree_engine().is_some());
    }

    #[test]
    fn adaptive_dispatches_to_coo_when_entry_kernels_dominate() {
        use adatm_model::{ClassRate, KernelProfile};
        let rate = |ns: f64| ClassRate { ns_per_unit_1t: ns, ns_per_unit_nt: ns };
        let profile = KernelProfile {
            threads: 8,
            coo_mttkrp: rate(1e-4),
            csf_root: rate(100.0),
            tree_pull: rate(100.0),
            tree_scatter: rate(100.0),
            pp_update: rate(1.0),
        };
        let t = zipf_tensor(&[15, 18, 12, 20], 600, &[0.6; 4], 11);
        let planner =
            Planner::new(&t, 4).estimator(NnzEstimator::Exact).calibration(profile).threads(8);
        let mut b = AdaptiveBackend::from_planner(&t, 4, planner);
        assert!(b.memo_plan().use_coo, "coo-dominant profile must dispatch to COO");
        assert!(!b.memo_plan().use_csf);
        assert!(b.tree_engine().is_none());
        assert_eq!(b.name(), "adaptive");
        let factors = factors_for(&t, 4, 13);
        for mode in 0..4 {
            b.begin_mode(mode);
            let mut out = Mat::zeros(t.dims()[mode], 4);
            b.mttkrp_into(&t, &factors, mode, &mut out);
            let want = mttkrp_seq(&t, &factors, mode);
            assert!(out.max_abs_diff(&want) < 1e-10, "mode {mode}");
        }
    }

    #[test]
    fn backends_report_structure_bytes() {
        let t = zipf_tensor(&[30, 30, 30], 1_000, &[0.4; 3], 2);
        for b in all_backends(&t, 4) {
            // COO holds one sorted view per mode, each a u32 permutation
            // of the entries.
            let floor = if b.name() == "coo" { t.ndim() * t.nnz() * 4 } else { 1 };
            assert!(b.structure_bytes() >= floor, "{}: {}", b.name(), b.structure_bytes());
        }
    }

    #[test]
    fn tree_backends_report_leaf_mode_order() {
        let t = zipf_tensor(&[10, 12, 14, 16], 200, &[0.4; 4], 7);
        // Natural-leaf trees report the natural order.
        for b in [
            DtreeBackend::two_level(&t, 2),
            DtreeBackend::three_level(&t, 2),
            DtreeBackend::balanced_binary(&t, 2),
        ] {
            assert_eq!(b.mode_order(4), vec![0, 1, 2, 3], "{}", b.name());
        }
        // A custom shape reports its own leaf sequence.
        let shape: adatm_dtree::TreeShape = "((2 0) (3 1))".parse().unwrap();
        let b = DtreeBackend::new(&t, &shape, 2);
        assert_eq!(b.mode_order(4), vec![2, 0, 3, 1]);
        // Non-memoizing backends are order-indifferent.
        assert_eq!(CooBackend::new(&t).mode_order(4), vec![0, 1, 2, 3]);
        assert_eq!(CsfBackend::new(&t).mode_order(4), vec![0, 1, 2, 3]);
    }

    #[test]
    fn custom_shape_backend_stays_correct_under_its_own_order() {
        let t = zipf_tensor(&[9, 11, 13, 7], 250, &[0.5; 4], 9);
        let shape: adatm_dtree::TreeShape = "((3 1) (0 2))".parse().unwrap();
        let mut b = DtreeBackend::new(&t, &shape, 3);
        let factors = factors_for(&t, 3, 5);
        for &mode in &b.mode_order(4) {
            b.begin_mode(mode);
            let mut out = Mat::zeros(t.dims()[mode], 3);
            b.mttkrp_into(&t, &factors, mode, &mut out);
            let want = mttkrp_seq(&t, &factors, mode);
            assert!(out.max_abs_diff(&want) < 1e-10, "mode {mode}");
        }
        // Under the leaf order, every non-root node computed exactly once
        // per sweep (steady state): warm sweep then count.
        let calls0 = b.engine().ops().ttmv_calls;
        for &mode in &b.mode_order(4) {
            b.begin_mode(mode);
            let mut out = Mat::zeros(t.dims()[mode], 3);
            b.mttkrp_into(&t, &factors, mode, &mut out);
        }
        assert_eq!(b.engine().ops().ttmv_calls - calls0, 6);
    }

    #[test]
    fn reset_clears_memoized_state_and_stays_correct() {
        let t = zipf_tensor(&[12, 14, 16, 10], 300, &[0.5; 4], 3);
        let mut b = DtreeBackend::balanced_binary(&t, 3);
        let f1 = factors_for(&t, 3, 10);
        let mut out = Mat::zeros(t.dims()[0], 3);
        b.begin_mode(0);
        b.mttkrp_into(&t, &f1, 0, &mut out);
        // Entirely new factors outside the protocol: reset, then verify.
        let f2 = factors_for(&t, 3, 999);
        b.reset();
        b.begin_mode(0);
        b.mttkrp_into(&t, &f2, 0, &mut out);
        let want = mttkrp_seq(&t, &f2, 0);
        assert!(out.max_abs_diff(&want) < 1e-10);
    }
}
