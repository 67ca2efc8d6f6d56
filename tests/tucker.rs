//! Cross-crate integration tests for the sparse Tucker (HOOI) extension,
//! including its interplay with CP on the same data.

use adatm::tensor::gen::{clustered_tensor, zipf_tensor};
use adatm::{decompose, hooi, CpAlsOptions, TuckerOptions};

#[test]
fn tucker_fits_clustered_data_better_than_matched_size_cp() {
    // Block-structured data has genuine multilinear (subspace) structure;
    // at a comparable parameter budget Tucker should capture at least as
    // much energy as CP. (Not a theorem — a sanity check that our HOOI
    // finds the subspaces.)
    let t = clustered_tensor(&[60, 60, 60], 6_000, 3, 0.12, 0.05, 17);
    let tucker =
        hooi(&t, &TuckerOptions::new(vec![6, 6, 6]).max_iters(12).tol(0.0).seed(1)).unwrap();
    // CP with a similar parameter count: 3 * 60 * 6 ~ Tucker's factor
    // params; use the same rank 6.
    let cp = decompose(&t, &CpAlsOptions::new(6).max_iters(12).tol(0.0).seed(1)).unwrap();
    assert!(
        tucker.final_fit() > cp.final_fit() - 0.05,
        "tucker fit {} vs cp fit {}",
        tucker.final_fit(),
        cp.final_fit()
    );
    assert!(tucker.final_fit() > 0.2, "tucker fit {}", tucker.final_fit());
}

#[test]
fn tucker_handles_asymmetric_ranks_on_4_modes() {
    let t = zipf_tensor(&[40, 12, 50, 8], 2_500, &[0.8; 4], 23);
    let res =
        hooi(&t, &TuckerOptions::new(vec![4, 2, 5, 2]).max_iters(6).tol(0.0).seed(3)).unwrap();
    assert_eq!(res.iters, 6);
    for (d, f) in res.model.factors.iter().enumerate() {
        assert_eq!(f.nrows(), t.dims()[d]);
        assert_eq!(f.ncols(), [4, 2, 5, 2][d]);
    }
    // The fit identity must stay within [0, 1] and finite.
    assert!(res.final_fit().is_finite());
    assert!(res.final_fit() <= 1.0 + 1e-9);
}

#[test]
fn tucker_rank_monotonicity() {
    // Larger multilinear ranks can only capture more energy.
    let t = zipf_tensor(&[30, 25, 20], 1_500, &[0.7; 3], 29);
    let small =
        hooi(&t, &TuckerOptions::new(vec![2, 2, 2]).max_iters(10).tol(0.0).seed(5)).unwrap();
    let large =
        hooi(&t, &TuckerOptions::new(vec![6, 6, 6]).max_iters(10).tol(0.0).seed(5)).unwrap();
    assert!(
        large.final_fit() >= small.final_fit() - 1e-6,
        "rank-6 fit {} below rank-2 fit {}",
        large.final_fit(),
        small.final_fit()
    );
}

#[test]
fn full_ranks_give_near_exact_fit_on_tiny_tensor() {
    // With ranks equal to the mode sizes, Tucker is exact.
    let t = zipf_tensor(&[6, 5, 4], 40, &[0.4; 3], 31);
    let res = hooi(&t, &TuckerOptions::new(vec![6, 5, 4]).max_iters(10).tol(0.0).seed(7)).unwrap();
    assert!(res.final_fit() > 0.999, "fit {}", res.final_fit());
}
