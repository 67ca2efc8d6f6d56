//! Cross-crate tests of the alternative MTTKRP clients: nonnegative CP
//! and CP-OPT, over every backend kind.

use adatm::tensor::gen::zipf_tensor;
use adatm::{
    all_backends, cp_opt, ncp, CpAlsOptions, CpOptOptions, CsfBackend, DtreeBackend, InitStrategy,
};

#[test]
fn ncp_runs_on_every_backend_with_identical_trajectories() {
    let t = zipf_tensor(&[20, 25, 15, 18], 1_200, &[0.7; 4], 42);
    let opts = CpAlsOptions::new(4).max_iters(6).tol(0.0).seed(8);
    let natural: Vec<usize> = (0..4).collect();
    let mut reference: Option<Vec<f64>> = None;
    for mut b in all_backends(&t, 4) {
        let res = ncp(&t, &mut b, &opts).unwrap();
        if b.mode_order(4) != natural {
            assert!(res.final_fit().is_finite());
            continue;
        }
        match &reference {
            None => reference = Some(res.fit_history),
            Some(r) => {
                for (a, x) in r.iter().zip(res.fit_history.iter()) {
                    assert!((a - x).abs() < 1e-7, "backend {} diverged", b.name());
                }
            }
        }
    }
}

#[test]
fn ncp_improves_over_its_first_iteration() {
    let t = zipf_tensor(&[30, 25, 20], 2_000, &[0.8; 3], 4);
    let mut b = CsfBackend::new(&t);
    let res = ncp(&t, &mut b, &CpAlsOptions::new(6).max_iters(30).tol(0.0).seed(5)).unwrap();
    assert!(res.final_fit() > res.fit_history[0], "no progress");
}

#[test]
fn cpopt_objective_consistent_across_backends() {
    let t = zipf_tensor(&[15, 20, 12, 10], 600, &[0.5; 4], 6);
    let opts = CpOptOptions::new(3).max_iters(15).tol(0.0).seed(2);
    let mut coo = adatm::CooBackend::new(&t);
    let mut bdt = DtreeBackend::balanced_binary(&t, 3);
    let a = cp_opt(&t, &mut coo, &opts).unwrap();
    let b = cp_opt(&t, &mut bdt, &opts).unwrap();
    assert_eq!(a.iters, b.iters);
    for (x, y) in a.objective_history.iter().zip(b.objective_history.iter()) {
        let denom = x.abs().max(1e-12);
        assert!((x - y).abs() / denom < 1e-6, "{x} vs {y}");
    }
}

#[test]
fn als_with_range_init_runs_on_adaptive_backend() {
    let t = zipf_tensor(&[40, 30, 25], 2_500, &[0.6; 3], 11);
    let mut b = adatm::AdaptiveBackend::plan(&t, 5);
    let opts =
        CpAlsOptions::new(5).max_iters(8).tol(0.0).seed(3).init(InitStrategy::RandomizedRange);
    let res = adatm::decompose_with(&t, &opts, &mut b).unwrap();
    assert_eq!(res.iters, 8);
    assert!(res.final_fit().is_finite());
    assert!(res.fit_history.windows(2).all(|w| w[1] >= w[0] - 1e-6));
}

#[test]
fn three_algorithms_reduce_residual_on_same_data() {
    // All three optimizers must make real progress on the same tensor.
    let t = zipf_tensor(&[20, 18, 16], 1_500, &[0.7; 3], 9);
    let xnorm = t.fro_norm();

    let mut b1 = adatm::CooBackend::new(&t);
    let als =
        adatm::decompose_with(&t, &CpAlsOptions::new(4).max_iters(20).tol(0.0).seed(1), &mut b1)
            .unwrap();
    assert!(als.final_fit() > 0.1, "als fit {}", als.final_fit());

    let mut b2 = adatm::CooBackend::new(&t);
    let n = ncp(&t, &mut b2, &CpAlsOptions::new(4).max_iters(40).tol(0.0).seed(1)).unwrap();
    assert!(n.final_fit() > 0.05, "ncp fit {}", n.final_fit());

    let mut b3 = adatm::CooBackend::new(&t);
    let g = cp_opt(&t, &mut b3, &CpOptOptions::new(4).max_iters(60).tol(0.0).seed(1)).unwrap();
    let resid = (2.0 * g.objective_history.last().unwrap()).sqrt();
    assert!(resid < xnorm, "cpopt made no progress: {resid} vs {xnorm}");
}
