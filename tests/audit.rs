//! End-to-end CP-ALS under the `audit` feature: every stage boundary is
//! validated, the dimension-tree symbolic/numeric audits run, and the
//! parallel-MTTKRP write-overlap detector must report zero overlaps.
//!
//! Run with `cargo test --features audit`.

#![cfg(feature = "audit")]

use adatm::audit::{validate_canonical, validate_factors, Validate};
use adatm::tensor::audit::{overlap_checks, overlap_count, reset_overlap_stats};
use adatm::tensor::gen::low_rank_tensor;
use adatm::{all_backends, CpAls, CpAlsOptions};

#[test]
fn cpals_runs_fully_audited_on_every_backend() {
    let truth = low_rank_tensor(&[18, 22, 16, 14], 3, 1_500, 0.01, 8);
    let t = &truth.tensor;
    t.validate().expect("generator must produce a structurally valid tensor");
    let mut canonical = t.clone();
    canonical.dedup_sum();
    validate_canonical(&canonical).expect("dedup_sum must canonicalize");

    reset_overlap_stats();
    let opts = CpAlsOptions::new(3).max_iters(8).tol(0.0).seed(42);
    for mut backend in all_backends(t, 3) {
        let res = CpAls::new(opts.clone()).run(t, &mut backend).unwrap();
        assert_eq!(res.iters, 8, "{}", backend.name());
        assert!(
            res.final_fit().is_finite() && res.final_fit() > 0.0,
            "{}: fit {}",
            backend.name(),
            res.final_fit()
        );
        validate_factors(&res.model.factors, t.dims(), 3)
            .unwrap_or_else(|e| panic!("{}: {e}", backend.name()));
    }

    // The COO and CSF parallel backends must have exercised the runtime
    // write-overlap detector, and it must have found row-disjoint tasks
    // every single time — the race-freedom claim the parallelism rests on.
    assert!(overlap_checks() > 0, "no parallel MTTKRP was audited");
    assert_eq!(overlap_count(), 0, "parallel MTTKRP tasks claimed overlapping rows");
}

#[test]
fn audited_structures_validate_end_to_end() {
    use adatm::tensor::csf::CsfTensor;

    let truth = low_rank_tensor(&[12, 15, 10], 2, 600, 0.05, 3);
    let t = &truth.tensor;
    t.validate().expect("coo");
    for m in 0..t.ndim() {
        CsfTensor::for_mode(t, m).validate().expect("csf");
    }

    let tree = adatm::dtree::DimTree::from_shape(&adatm::TreeShape::balanced_binary(t.ndim()));
    tree.validate().expect("tree");
    let sym = adatm::dtree::SymbolicTree::build(t, &tree);
    adatm::audit::validate_symbolic(&sym, &tree).expect("symbolic");
}
