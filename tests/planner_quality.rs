//! Planner quality tests using deterministic operation counters.
//!
//! Timing is noisy in CI; the engine's exact flop counters are not. These
//! tests execute every candidate strategy and verify that (a) the exact
//! cost model agrees with the counted work, and (b) the model-driven
//! choice is flop-optimal among the candidates (with the exact estimator)
//! or near-optimal (with the sampled estimator).

use adatm::dtree::DtreeEngine;
use adatm::planner::estimate::NnzEstimator;
use adatm::tensor::gen::{uniform_tensor, zipf_tensor};
use adatm::{Objective, Planner, SparseTensor};

/// Counted flops of one full CP-ALS iteration's MTTKRPs under the
/// dimension-tree protocol for a given shape.
fn iteration_flops(t: &SparseTensor, shape: &adatm::TreeShape, rank: usize) -> u64 {
    let pool = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
    pool.install(|| sequential_iteration_flops(t, shape, rank))
}

fn sequential_iteration_flops(t: &SparseTensor, shape: &adatm::TreeShape, rank: usize) -> u64 {
    let factors: Vec<adatm::Mat> =
        t.dims().iter().enumerate().map(|(d, &n)| adatm::Mat::random(n, rank, d as u64)).collect();
    let mut eng = DtreeEngine::new(t, shape, rank);
    // Subiterations must follow the tree's leaf order (what the CP-ALS
    // driver does via MttkrpBackend::mode_order) so that every node is
    // computed exactly once per iteration.
    let order = shape.modes();
    // Warm-up iteration (the steady-state count is what the model
    // predicts; the first iteration does the same work for these shapes).
    for &mode in &order {
        eng.invalidate_mode(mode);
        let _ = eng.mttkrp(t, &factors, mode);
    }
    let before = eng.ops().flops;
    for &mode in &order {
        eng.invalidate_mode(mode);
        let _ = eng.mttkrp(t, &factors, mode);
    }
    eng.ops().flops - before
}

fn test_tensors() -> Vec<(&'static str, SparseTensor)> {
    vec![
        ("skew4", zipf_tensor(&[60, 25, 70, 35], 5_000, &[1.0, 0.4, 0.9, 0.7], 3)),
        ("uniform4", uniform_tensor(&[50; 4], 4_000, 5)),
        ("skew5", zipf_tensor(&[40, 15, 55, 20, 45], 4_000, &[0.9; 5], 7)),
        ("uniform6", uniform_tensor(&[25; 6], 3_000, 9)),
    ]
}

#[test]
fn exact_model_matches_counted_flops_for_every_candidate() {
    let rank = 8;
    for (name, t) in test_tensors() {
        let plan = Planner::new(&t, rank).estimator(NnzEstimator::Exact).plan();
        for c in &plan.candidates {
            let counted = iteration_flops(&t, &c.shape, rank);
            let predicted = c.cost.flops_per_iter;
            let rel = (predicted - counted as f64).abs() / counted as f64;
            assert!(rel < 1e-9, "{name}/{}: predicted {predicted} vs counted {counted}", c.label);
        }
    }
}

#[test]
fn exact_planner_choice_is_flop_optimal_among_candidates() {
    let rank = 8;
    for (name, t) in test_tensors() {
        let plan = Planner::new(&t, rank)
            .estimator(NnzEstimator::Exact)
            .objective(Objective::Flops)
            .plan();
        let chosen = iteration_flops(&t, &plan.shape, rank);
        for c in &plan.candidates {
            let other = iteration_flops(&t, &c.shape, rank);
            assert!(
                chosen <= other,
                "{name}: chosen {} has {chosen} flops but {} has {other}",
                plan.shape,
                c.label
            );
        }
    }
}

#[test]
fn sampled_planner_choice_is_near_optimal() {
    let rank = 8;
    for (name, t) in test_tensors() {
        let plan = Planner::new(&t, rank)
            .estimator(NnzEstimator::Sampled { sample: 1 << 11 })
            .objective(Objective::Flops)
            .plan();
        let chosen = iteration_flops(&t, &plan.shape, rank) as f64;
        let oracle = plan
            .candidates
            .iter()
            .map(|c| iteration_flops(&t, &c.shape, rank) as f64)
            .fold(f64::INFINITY, f64::min);
        assert!(chosen <= oracle * 1.5, "{name}: sampled choice {chosen} vs oracle {oracle}");
    }
}

#[test]
fn memoizing_plans_beat_flat_on_higher_orders() {
    let rank = 8;
    let t = uniform_tensor(&[25; 8], 4_000, 2);
    let plan =
        Planner::new(&t, rank).estimator(NnzEstimator::Exact).objective(Objective::Flops).plan();
    let chosen = iteration_flops(&t, &plan.shape, rank);
    let flat = iteration_flops(&t, &adatm::TreeShape::two_level(8), rank);
    assert!(
        (chosen as f64) < 0.7 * flat as f64,
        "8-mode memoization should cut flops well below flat: {chosen} vs {flat}"
    );
}
