//! Resilience tests (`--features fault-inject`): every fault class the
//! deterministic injection harness can produce, asserted against the
//! diagnostics record CP-ALS returns — plus a property test that *any*
//! seeded fault schedule yields a finite model or a typed error, never a
//! panic or NaN poison.
#![cfg(feature = "fault-inject")]

use adatm::tensor::gen::{dense_low_rank, zipf_tensor};
use adatm::{
    BreakdownKind, CheckpointConfig, CheckpointError, CheckpointStore, CooBackend, CpAls,
    CpAlsOptions, DtreeBackend, FaultInjectingBackend, FaultKind, FaultSchedule, FaultyMedium,
    IoFaultKind, IoFaultLog, IoFaultSchedule, RecoveryAction, StopReason,
};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// A small noiseless low-rank tensor every test can re-converge on.
fn ground_truth() -> adatm::SparseTensor {
    dense_low_rank(&[12, 10, 11], 3, 0.0, 13).tensor
}

fn assert_model_finite(res: &adatm::CpResult) {
    assert!(res.model.lambda.iter().all(|l| l.is_finite()), "lambda poisoned");
    for (d, f) in res.model.factors.iter().enumerate() {
        assert!(f.is_finite(), "factor {d} poisoned");
    }
    assert!(res.fit_history.iter().all(|f| f.is_finite()), "fit history poisoned");
}

#[test]
fn nan_poison_triggers_rollback_and_run_recovers() {
    let t = ground_truth();
    let sched = FaultSchedule::new().at_call(4, FaultKind::PoisonNan);
    let mut b = FaultInjectingBackend::new(CooBackend::new(&t), sched);
    let res =
        CpAls::new(CpAlsOptions::new(3).max_iters(60).tol(0.0).seed(5)).run(&t, &mut b).unwrap();
    assert_eq!(b.injected().len(), 1, "the scheduled fault must fire");
    assert!(res.diagnostics.count_of(BreakdownKind::NonFiniteMttkrp) >= 1);
    assert!(res.diagnostics.recoveries >= 1);
    assert!(!res.diagnostics.degraded, "one transient fault must not exhaust the budget");
    assert_model_finite(&res);
    assert!(res.final_fit() > 0.9, "run must re-converge after the fault, fit {}", res.final_fit());
}

#[test]
fn inf_poison_is_detected_like_nan() {
    let t = ground_truth();
    let sched = FaultSchedule::new().at_call(2, FaultKind::PoisonInf);
    let mut b = FaultInjectingBackend::new(CooBackend::new(&t), sched);
    let res =
        CpAls::new(CpAlsOptions::new(3).max_iters(40).tol(0.0).seed(2)).run(&t, &mut b).unwrap();
    assert!(res.diagnostics.count_of(BreakdownKind::NonFiniteMttkrp) >= 1);
    assert_model_finite(&res);
}

#[test]
fn nan_poison_in_memoizing_backend_flushes_cached_intermediates() {
    // The dimension-tree backend memoizes partial MTTKRPs; a NaN that
    // reaches a cached node would poison every later mode unless the
    // rollback invalidates the tree. This is the regression this PR's
    // recovery path exists for.
    let t = ground_truth();
    let sched = FaultSchedule::new().at_call(1, FaultKind::PoisonNan);
    let mut b = FaultInjectingBackend::new(DtreeBackend::balanced_binary(&t, 3), sched);
    let res =
        CpAls::new(CpAlsOptions::new(3).max_iters(60).tol(0.0).seed(7)).run(&t, &mut b).unwrap();
    assert!(res.diagnostics.count_of(BreakdownKind::NonFiniteMttkrp) >= 1);
    assert!(!res.diagnostics.degraded);
    assert_model_finite(&res);
    assert!(res.final_fit() > 0.9, "fit {}", res.final_fit());
}

#[test]
fn zero_output_forces_column_reseed() {
    let t = ground_truth();
    let sched = FaultSchedule::new().at_call(3, FaultKind::ZeroOutput);
    let mut b = FaultInjectingBackend::new(CooBackend::new(&t), sched);
    let res =
        CpAls::new(CpAlsOptions::new(3).max_iters(40).tol(0.0).seed(3)).run(&t, &mut b).unwrap();
    // A zeroed MTTKRP collapses every factor column; the zero-column
    // guard reseeds them and records the event.
    assert!(res.diagnostics.count_of(BreakdownKind::ZeroColumns) >= 1);
    assert_model_finite(&res);
    assert!(res.final_fit() > 0.9, "fit {}", res.final_fit());
}

#[test]
fn collinear_faults_force_singular_gram_and_ridge_resolve() {
    // Two collinear factors make the third mode's Hadamard-of-Grams
    // system exactly rank-1: the condition detector must fire and repair
    // with a Tikhonov ridge (no rollback needed, the solve is saved).
    let t = ground_truth();
    let sched = FaultSchedule::new()
        .at_call(0, FaultKind::CollinearColumns)
        .at_call(1, FaultKind::CollinearColumns);
    let mut b = FaultInjectingBackend::new(CooBackend::new(&t), sched);
    let res =
        CpAls::new(CpAlsOptions::new(3).max_iters(6).tol(0.0).seed(1)).run(&t, &mut b).unwrap();
    assert!(res.diagnostics.count_of(BreakdownKind::SingularGram) >= 1);
    assert!(
        res.diagnostics
            .events
            .iter()
            .any(|e| matches!(e.recovery, RecoveryAction::RidgeResolve { ridge } if ridge > 0.0)),
        "a ridge re-solve must have been taken: {:?}",
        res.diagnostics.events
    );
    assert_model_finite(&res);
}

#[test]
fn injected_stall_trips_the_time_budget_watchdog() {
    let t = ground_truth();
    let sched = FaultSchedule::new().at_call(0, FaultKind::StallMs(50));
    let mut b = FaultInjectingBackend::new(CooBackend::new(&t), sched);
    let res = CpAls::new(
        CpAlsOptions::new(3).max_iters(1000).tol(0.0).time_budget(Duration::from_millis(10)),
    )
    .run(&t, &mut b)
    .unwrap();
    assert_eq!(res.diagnostics.stop, StopReason::TimeBudget);
    assert_eq!(res.diagnostics.count_of(BreakdownKind::TimeBudgetExpired), 1);
    assert!(!res.converged);
    assert_model_finite(&res);
}

#[test]
fn watchdog_overrun_is_bounded_by_one_stage_not_one_mode() {
    // The stall hits the MTTKRP of mode 1; the post-MTTKRP re-check must
    // catch the expiry *at mode 1*. A watchdog that only polls at the
    // top of each mode loop would run mode 1's full dense phase and
    // report the expiry from mode 2 — a whole mode of overrun.
    let t = ground_truth();
    let sched = FaultSchedule::new().at_call(1, FaultKind::StallMs(100));
    let mut b = FaultInjectingBackend::new(CooBackend::new(&t), sched);
    let res = CpAls::new(
        CpAlsOptions::new(3).max_iters(1000).tol(0.0).time_budget(Duration::from_millis(20)),
    )
    .run(&t, &mut b)
    .unwrap();
    assert_eq!(res.diagnostics.stop, StopReason::TimeBudget);
    assert_eq!(res.diagnostics.count_of(BreakdownKind::TimeBudgetExpired), 1);
    let event = res
        .diagnostics
        .events
        .iter()
        .find(|e| e.kind == BreakdownKind::TimeBudgetExpired)
        .expect("expiry recorded");
    assert_eq!(event.iter, 0);
    assert_eq!(
        event.mode,
        Some(1),
        "expiry must be detected at the stalled mode itself, not a mode later"
    );
    assert_model_finite(&res);
}

#[test]
fn persistent_fault_exhausts_budget_and_degrades_gracefully() {
    let t = ground_truth();
    let sched = FaultSchedule::new().always(FaultKind::PoisonNan);
    let mut b = FaultInjectingBackend::new(CooBackend::new(&t), sched);
    let res = CpAls::new(CpAlsOptions::new(3).max_iters(50).tol(0.0).recovery_budget(2))
        .run(&t, &mut b)
        .unwrap();
    assert!(res.diagnostics.degraded);
    assert_eq!(res.diagnostics.stop, StopReason::Degraded);
    // Two rollback attempts, then the degradation event — all on the
    // same detector since the fault never clears.
    assert_eq!(res.diagnostics.count_of(BreakdownKind::NonFiniteMttkrp), 3);
    assert!(!res.converged);
    assert_model_finite(&res);
}

#[test]
fn empty_schedule_is_transparent() {
    let t = zipf_tensor(&[15, 18, 12], 500, &[0.5; 3], 6);
    let opts = CpAlsOptions::new(3).max_iters(5).tol(0.0).seed(77);
    let mut bare = CooBackend::new(&t);
    let reference = CpAls::new(opts.clone()).run(&t, &mut bare).unwrap();
    let mut wrapped = FaultInjectingBackend::new(CooBackend::new(&t), FaultSchedule::new());
    let res = CpAls::new(opts).run(&t, &mut wrapped).unwrap();
    assert_eq!(res.fit_history, reference.fit_history, "wrapper must not perturb a clean run");
    assert!(res.diagnostics.clean());
}

#[test]
fn same_seed_same_schedule_same_diagnostics() {
    let t = ground_truth();
    let run = |seed: u64| {
        let mut b =
            FaultInjectingBackend::new(CooBackend::new(&t), FaultSchedule::seeded(seed, 96));
        let res = CpAls::new(CpAlsOptions::new(3).max_iters(30).tol(0.0).seed(9))
            .run(&t, &mut b)
            .unwrap();
        (res.fit_history.clone(), res.diagnostics.events.len(), res.diagnostics.recoveries)
    };
    assert_eq!(run(1234), run(1234), "identical schedules must replay identically");
}

/// A fresh per-test temp directory (removed at the end of each test).
fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("adatm-resilience-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn assert_models_bitwise_equal(a: &adatm::CpResult, b: &adatm::CpResult) {
    for (x, y) in a.model.lambda.iter().zip(&b.model.lambda) {
        assert_eq!(x.to_bits(), y.to_bits(), "lambda diverged: {x} vs {y}");
    }
    for (d, (fa, fb)) in a.model.factors.iter().zip(&b.model.factors).enumerate() {
        for (x, y) in fa.as_slice().iter().zip(fb.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "factor {d} diverged: {x} vs {y}");
        }
    }
    assert_eq!(a.fit_history.len(), b.fit_history.len());
    for (x, y) in a.fit_history.iter().zip(&b.fit_history) {
        assert_eq!(x.to_bits(), y.to_bits(), "fit history diverged: {x} vs {y}");
    }
}

#[test]
fn rollback_across_a_checkpoint_boundary_resumes_bitwise_identically() {
    // Combined fault: a NaN poison forces a rollback (reseeding from the
    // recovery RNG stream), THEN the run is killed and resumed from a
    // checkpoint written after the recovery. The resumed trajectory must
    // match the uninterrupted one bitwise — which requires the checkpoint
    // to have persisted the recovery counters (the rollback `attempt`
    // feeds the reseed stream) and the restored fit history to keep the
    // divergence/stall detectors aligned. Any divergence between the
    // in-memory recovery state and the checkpointed state shows up here
    // as a bit mismatch.
    let t = ground_truth();
    let sched = || FaultSchedule::new().at_call(4, FaultKind::PoisonNan);
    let mk_opts = |iters: usize| CpAlsOptions::new(3).max_iters(iters).tol(0.0).seed(42);

    // Reference: uninterrupted faulted run, no checkpointing.
    let mut ref_b = FaultInjectingBackend::new(CooBackend::with_parallel(&t, false), sched());
    let reference = CpAls::new(mk_opts(20)).run(&t, &mut ref_b).unwrap();
    assert!(reference.diagnostics.recoveries >= 1, "the fault must have forced a recovery");

    // Same fault, checkpoint every iteration, killed after iteration 7
    // (well past the rollback).
    let dir = tmp_dir("combined");
    let cfg = CheckpointConfig::new(&dir).every_iters(1);
    let mut kill_b = FaultInjectingBackend::new(CooBackend::with_parallel(&t, false), sched());
    let killed = CpAls::new(mk_opts(7).checkpoint(cfg)).run(&t, &mut kill_b).unwrap();
    assert!(killed.diagnostics.recoveries >= 1, "kill point is after the recovery");

    // Resume to 20. The fault at absolute call 4 is long past, so the
    // resumed backend needs no schedule — exactly like the reference,
    // which also sees no faults after that call.
    let outcome = CheckpointStore::load_latest(&dir).unwrap();
    assert_eq!(outcome.checkpoint.recoveries, killed.diagnostics.recoveries);
    let resumed = CpAls::new(mk_opts(20))
        .resume_from(&t, &mut CooBackend::with_parallel(&t, false), outcome.checkpoint)
        .unwrap();

    assert_models_bitwise_equal(&reference, &resumed);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs checkpointed CP-ALS with an injected I/O fault schedule,
/// returning the result and the injection log.
fn run_with_io_faults(
    name: &str,
    sched: IoFaultSchedule,
    iters: usize,
) -> (adatm::CpResult, IoFaultLog, PathBuf) {
    let t = ground_truth();
    let dir = tmp_dir(name);
    let log = IoFaultLog::default();
    let log_for_factory = Arc::clone(&log);
    let cfg =
        CheckpointConfig::new(&dir).every_iters(1).keep(10).medium_factory(Arc::new(move || {
            Box::new(FaultyMedium::with_log(sched.clone(), Arc::clone(&log_for_factory)))
                as Box<dyn adatm::CheckpointMedium>
        }));
    let res = CpAls::new(CpAlsOptions::new(3).max_iters(iters).tol(0.0).seed(42).checkpoint(cfg))
        .run(&t, &mut CooBackend::with_parallel(&t, false))
        .expect("mid-run I/O faults degrade durability, never the run itself");
    (res, log, dir)
}

#[test]
fn enospc_surfaces_as_diagnostic_and_run_completes() {
    let (res, log, dir) =
        run_with_io_faults("enospc", IoFaultSchedule::new().at_write(1, IoFaultKind::Enospc), 6);
    assert_eq!(log.lock().unwrap().as_slice(), &[(1, IoFaultKind::Enospc)]);
    assert_eq!(res.diagnostics.count_of(BreakdownKind::CheckpointWriteFailed), 1);
    assert_eq!(res.iters, 6, "the run keeps iterating through the write failure");
    assert_model_finite(&res);
    // The failed generation is simply missing; its neighbours are intact.
    let outcome = CheckpointStore::load_latest(&dir).unwrap();
    assert!(outcome.fallbacks.is_empty());
    assert_eq!(outcome.checkpoint.next_iter, 6);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rename_failure_surfaces_as_diagnostic_and_strands_no_generation() {
    let (res, log, dir) = run_with_io_faults(
        "rename",
        IoFaultSchedule::new().at_write(2, IoFaultKind::RenameFail),
        6,
    );
    assert_eq!(log.lock().unwrap().as_slice(), &[(2, IoFaultKind::RenameFail)]);
    assert_eq!(res.diagnostics.count_of(BreakdownKind::CheckpointWriteFailed), 1);
    // The torn temp file must not be visible as a generation.
    let outcome = CheckpointStore::load_latest(&dir).unwrap();
    assert!(outcome.fallbacks.is_empty(), "no half-promoted generation: {:?}", outcome.fallbacks);
    assert_eq!(outcome.checkpoint.next_iter, 6);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_write_is_detected_at_load_and_falls_back() {
    // The medium LIES: it writes half the bytes and reports success, so
    // the run records no diagnostic. The framing check catches it at
    // load time and the loader falls back to the previous generation.
    let (res, log, dir) =
        run_with_io_faults("torn", IoFaultSchedule::new().at_write(5, IoFaultKind::TornWrite), 6);
    assert_eq!(log.lock().unwrap().as_slice(), &[(5, IoFaultKind::TornWrite)]);
    assert_eq!(res.diagnostics.count_of(BreakdownKind::CheckpointWriteFailed), 0);
    let outcome = CheckpointStore::load_latest(&dir).unwrap();
    assert_eq!(outcome.fallbacks.len(), 1);
    assert!(
        matches!(outcome.fallbacks[0].error, CheckpointError::Truncated { .. }),
        "torn write surfaces as a typed truncation error, got {:?}",
        outcome.fallbacks[0].error
    );
    assert_eq!(outcome.checkpoint.next_iter, 5, "fell back to the generation before the tear");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bit_flip_is_detected_by_checksum_and_falls_back() {
    let (res, log, dir) =
        run_with_io_faults("bitflip", IoFaultSchedule::new().at_write(5, IoFaultKind::BitFlip), 6);
    assert_eq!(log.lock().unwrap().as_slice(), &[(5, IoFaultKind::BitFlip)]);
    assert_eq!(res.diagnostics.count_of(BreakdownKind::CheckpointWriteFailed), 0);
    let outcome = CheckpointStore::load_latest(&dir).unwrap();
    assert_eq!(outcome.fallbacks.len(), 1);
    assert!(
        matches!(outcome.fallbacks[0].error, CheckpointError::ChecksumMismatch { .. }),
        "bit flip surfaces as a typed checksum error, got {:?}",
        outcome.fallbacks[0].error
    );
    assert_eq!(outcome.checkpoint.next_iter, 5);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_level_io_faults_are_typed_checkpoint_errors() {
    // Below the driver: a direct `CheckpointStore::write` against a
    // failing medium must return `CheckpointError::Io` carrying the
    // underlying `io::ErrorKind`, never panic.
    let t = ground_truth();
    let src = tmp_dir("store-src");
    CpAls::new(
        CpAlsOptions::new(3)
            .max_iters(3)
            .tol(0.0)
            .seed(42)
            .checkpoint(CheckpointConfig::new(&src).every_iters(1)),
    )
    .run(&t, &mut CooBackend::with_parallel(&t, false))
    .unwrap();
    let ck = CheckpointStore::load_latest(&src).unwrap().checkpoint;

    let dir = tmp_dir("store-enospc");
    let medium = FaultyMedium::new(IoFaultSchedule::new().always(IoFaultKind::Enospc));
    let mut store = CheckpointStore::with_medium(&dir, Box::new(medium)).unwrap();
    let err = store.write(&ck.as_view()).unwrap_err();
    match &err {
        CheckpointError::Io { kind, op, .. } => {
            assert_eq!(*kind, std::io::ErrorKind::StorageFull, "op {op}: {err}");
        }
        other => panic!("expected a typed Io error, got {other:?}"),
    }

    let dir2 = tmp_dir("store-rename");
    let medium = FaultyMedium::new(IoFaultSchedule::new().always(IoFaultKind::RenameFail));
    let mut store = CheckpointStore::with_medium(&dir2, Box::new(medium)).unwrap();
    let err = store.write(&ck.as_view()).unwrap_err();
    assert!(
        matches!(&err, CheckpointError::Io { kind, .. } if *kind == std::io::ErrorKind::PermissionDenied),
        "expected a typed rename error, got {err:?}"
    );

    for d in [src, dir, dir2] {
        let _ = std::fs::remove_dir_all(&d);
    }
}

#[test]
fn persistent_disk_failure_never_panics_and_leaves_typed_errors() {
    // Every write fails with ENOSPC: the run completes (durability fully
    // degraded), every failure is a diagnostic, and the empty store is a
    // typed NoCheckpoints at load time.
    let (res, log, dir) =
        run_with_io_faults("always-enospc", IoFaultSchedule::new().always(IoFaultKind::Enospc), 5);
    assert_eq!(log.lock().unwrap().len(), 5);
    assert_eq!(res.diagnostics.count_of(BreakdownKind::CheckpointWriteFailed), 5);
    assert_eq!(res.iters, 5);
    assert_model_finite(&res);
    let err = CheckpointStore::load_latest(&dir).unwrap_err();
    assert!(matches!(err, CheckpointError::NoCheckpoints { .. }), "got {err:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn io_faults_do_not_perturb_the_model() {
    // Durability faults are observation-only: the faulted-checkpoint run
    // must produce the same bits as a run with no checkpointing at all.
    let t = ground_truth();
    let plain = CpAls::new(CpAlsOptions::new(3).max_iters(6).tol(0.0).seed(42))
        .run(&t, &mut CooBackend::with_parallel(&t, false))
        .unwrap();
    let (faulted, _, dir) = run_with_io_faults(
        "no-perturb",
        IoFaultSchedule::new()
            .at_write(1, IoFaultKind::Enospc)
            .at_write(3, IoFaultKind::BitFlip)
            .at_write(4, IoFaultKind::RenameFail),
        6,
    );
    assert_models_bitwise_equal(&plain, &faulted);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn io_faults_do_not_perturb_a_pp_run() {
    // The same observation-only guarantee with pairwise perturbation on.
    // A checkpoint write disarms PP by design (a resumed run starts with
    // exact intermediates), so the reference is the same checkpointed run
    // on a healthy medium. PP arms at iteration 10 and sweeps iteration
    // 11; the write at that boundary (the third, after iterations 3 and
    // 7) fails, and nothing but its diagnostic may differ.
    let t = spread_truth();
    let run = |name: &str, sched: IoFaultSchedule| {
        let dir = tmp_dir(name);
        let log = IoFaultLog::default();
        let log_for_factory = Arc::clone(&log);
        let cfg = CheckpointConfig::new(&dir).every_iters(4).keep(10).medium_factory(Arc::new(
            move || {
                Box::new(FaultyMedium::with_log(sched.clone(), Arc::clone(&log_for_factory)))
                    as Box<dyn adatm::CheckpointMedium>
            },
        ));
        let opts = CpAlsOptions::new(3).max_iters(24).tol(0.0).seed(7);
        let res = CpAls::new(opts.pp(adatm::PpConfig::new().tol(0.02)).checkpoint(cfg))
            .run(&t, &mut CooBackend::with_parallel(&t, false))
            .unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        let faults = log.lock().unwrap().len();
        (res, faults)
    };
    let (healthy, _) = run("pp-healthy", IoFaultSchedule::new());
    let (faulted, faults) =
        run("pp-faulted", IoFaultSchedule::new().at_write(2, IoFaultKind::Enospc));
    assert_eq!(faults, 1, "the scheduled write fault must fire");
    assert!(healthy.diagnostics.pp_sweeps > 0, "PP must arm");
    let carried =
        |i: usize| healthy.fit_history[i].to_bits() == healthy.fit_history[i - 1].to_bits();
    assert!(carried(11), "iteration 11 must be an approximate sweep");
    assert!(healthy.diagnostics.clean(), "{:?}", healthy.diagnostics.events);
    assert_eq!(event_trail(&faulted), [(11, None, BreakdownKind::CheckpointWriteFailed)]);
    assert_eq!(
        (faulted.diagnostics.pp_sweeps, faulted.diagnostics.pp_refreshes),
        (healthy.diagnostics.pp_sweeps, healthy.diagnostics.pp_refreshes)
    );
    assert_models_bitwise_equal(&healthy, &faulted);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline robustness property: for ANY seeded fault schedule,
    /// the solver returns a finite model (possibly degraded) or a typed
    /// error — never a panic, never NaN in the result.
    #[test]
    fn any_seeded_fault_schedule_yields_finite_model_or_typed_error(seed in 0u64..u64::MAX) {
        let t = ground_truth();
        let sched = FaultSchedule::seeded(seed, 128);
        let mut b = FaultInjectingBackend::new(CooBackend::new(&t), sched);
        let res = CpAls::new(
            CpAlsOptions::new(3).max_iters(20).tol(0.0).seed(seed ^ 0xabcd).recovery_budget(4),
        )
        .run(&t, &mut b);
        match res {
            Ok(r) => {
                prop_assert!(r.model.lambda.iter().all(|l| l.is_finite()));
                for f in &r.model.factors {
                    prop_assert!(f.is_finite());
                }
                prop_assert!(r.fit_history.iter().all(|f| f.is_finite()));
                if r.diagnostics.degraded {
                    prop_assert!(matches!(
                        r.diagnostics.stop,
                        StopReason::Degraded | StopReason::Diverged
                    ));
                }
            }
            Err(e) => {
                // Typed rejection is an acceptable outcome; stringify to
                // prove the error surface is well-formed.
                prop_assert!(!e.to_string().is_empty());
            }
        }
    }
}

/// Forwards everything to the inner backend but, from `from_call`
/// onward, overwrites each MTTKRP output with finite deterministic
/// garbage. Unlike the NaN/zero fault kinds this slips past every
/// mode-level detector — the corruption only surfaces as a sharp fit
/// drop, which is exactly the path the divergence-degrade snapshot
/// restore must handle.
struct FiniteGarbageBackend<B> {
    inner: B,
    from_call: usize,
    calls: usize,
}

impl<B: adatm::MttkrpBackend> adatm::MttkrpBackend for FiniteGarbageBackend<B> {
    fn begin_mode(&mut self, mode: usize) {
        self.inner.begin_mode(mode);
    }

    fn mttkrp_into(
        &mut self,
        tensor: &adatm::SparseTensor,
        factors: &[adatm::Mat],
        mode: usize,
        out: &mut adatm::Mat,
    ) {
        self.inner.mttkrp_into(tensor, factors, mode, out);
        if self.calls >= self.from_call {
            // Direction-changing corruption: a scale-only perturbation
            // would be absorbed by column normalization into lambda.
            for (i, v) in out.as_mut_slice().iter_mut().enumerate() {
                *v = ((i as u64).wrapping_mul(2_654_435_761) % 1000) as f64 / 1000.0 - 0.5;
            }
        }
        self.calls += 1;
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn name(&self) -> &'static str {
        "finite-garbage"
    }
}

#[test]
fn fit_divergence_degrade_restores_grams_with_the_factors() {
    // Pins the stale-Gram recovery bug: the divergence-degrade path used
    // to restore factors and lambda from the last-good snapshot but left
    // the cached Gram matrices at their diverged values, handing every
    // consumer of the final state a factor/Gram pair that never
    // coexisted. The full-snapshot restore keeps them bitwise
    // consistent.
    let t = ground_truth();
    // Let the run converge cleanly for ~8 iterations (24 mode calls)
    // before the persistent finite corruption begins.
    let mut b = FiniteGarbageBackend { inner: CooBackend::new(&t), from_call: 24, calls: 0 };
    let res =
        CpAls::new(CpAlsOptions::new(3).max_iters(40).tol(0.0).seed(21)).run(&t, &mut b).unwrap();
    let degrade = res
        .diagnostics
        .events
        .iter()
        .find(|e| e.kind == BreakdownKind::FitDivergence)
        .expect("finite garbage must surface as a fit divergence");
    assert_eq!(degrade.recovery, RecoveryAction::Degrade);
    assert_eq!(res.diagnostics.stop, StopReason::Diverged);
    assert_model_finite(&res);
    // The pinned invariant: the restored cached Grams are exactly the
    // Grams of the restored factors.
    assert_eq!(res.grams.len(), res.model.factors.len());
    for (d, (g, f)) in res.grams.iter().zip(&res.model.factors).enumerate() {
        let fresh = f.gram();
        for (a, b) in g.as_slice().iter().zip(fresh.as_slice()) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "mode {d}: cached Gram diverged from the restored factor ({a} vs {b})"
            );
        }
    }
}

/// Forwards to the inner backend but reports a fixed calibrated
/// per-iteration prediction, so the drift detector runs against a
/// known-good baseline.
struct CalibratedStub<B> {
    inner: B,
    predicted_ns: f64,
}

impl<B: adatm::MttkrpBackend> adatm::MttkrpBackend for CalibratedStub<B> {
    fn begin_mode(&mut self, mode: usize) {
        self.inner.begin_mode(mode);
    }

    fn mttkrp_into(
        &mut self,
        tensor: &adatm::SparseTensor,
        factors: &[adatm::Mat],
        mode: usize,
        out: &mut adatm::Mat,
    ) {
        self.inner.mttkrp_into(tensor, factors, mode, out);
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn name(&self) -> &'static str {
        "calibrated-stub"
    }

    fn predicted_iter_ns(&self) -> Option<f64> {
        Some(self.predicted_ns)
    }
}

#[test]
fn drift_detector_excludes_recovered_iterations_from_the_average() {
    // Pins the drift-average bug: the detector used to average kernel
    // time over ALL iterations, so a single recovered fault (whose
    // stalled kernel time plus rollback re-work dwarfs a clean sweep)
    // pushed the mean over the threshold and mis-blamed the cost model
    // for an injected hardware fault. Clean-iteration averaging must not
    // warn here.
    let t = ground_truth();
    // One iteration (calls 30..33, i.e. iteration 10) both stalls and
    // poisons: the stall inflates that iteration's measured kernel time
    // far past any clean sweep, and the poison marks the iteration
    // non-clean so the average excludes it.
    let sched = FaultSchedule::new()
        .at_call(30, FaultKind::StallMs(1000))
        .at_call(31, FaultKind::PoisonNan);
    let faulty = FaultInjectingBackend::new(CooBackend::new(&t), sched);
    // Predict 8 ms/iter, so drift warns above 16 ms (the default 2x
    // factor). The 1 s stall smeared over 30 iterations is 33 ms, twice
    // that, so the old all-iteration average trips it; a clean sweep of
    // this 12x10x11 tensor is far below 16 ms even in a loaded debug build.
    let mut b = CalibratedStub { inner: faulty, predicted_ns: 8e6 };
    let res =
        CpAls::new(CpAlsOptions::new(3).max_iters(30).tol(0.0).seed(9)).run(&t, &mut b).unwrap();
    assert!(res.diagnostics.recoveries >= 1, "the injected fault must recover");
    // The exclusion itself, by count: every recovery belongs to the
    // faulted iteration, and the average covers every iteration but that
    // one.
    let faulted: Vec<usize> = res
        .diagnostics
        .events
        .iter()
        .filter(|e| e.kind != BreakdownKind::PredictionDrift)
        .map(|e| e.iter)
        .collect();
    assert!(faulted.iter().all(|&i| i == 10), "recoveries outside iteration 10: {faulted:?}");
    assert_eq!(
        res.diagnostics.measured_iters,
        res.iters as u64 - 1,
        "the drift average must cover every iteration except the stalled, recovered one"
    );
    assert!(res.diagnostics.measured_iter_ns.is_some(), "clean iterations must be measured");
    assert_eq!(
        res.diagnostics.count_of(BreakdownKind::PredictionDrift),
        0,
        "an injected fault must not be misattributed to calibration drift"
    );
    assert_model_finite(&res);
}

#[test]
fn fault_during_armed_pp_disarms_and_recovers_to_exact_sweeps() {
    // A recovery event while pairwise perturbation is armed invalidates
    // the memoized baseline (the restored factors are not the ones the
    // pair memos were refreshed against), so the controller must disarm
    // and the next sweeps run exact until re-armed. The run must stay
    // finite and re-converge.
    let t = ground_truth();
    let sched = FaultSchedule::new().at_call(20, FaultKind::PoisonNan);
    let mut b = FaultInjectingBackend::new(DtreeBackend::balanced_binary(&t, 3), sched);
    let res = CpAls::new(
        CpAlsOptions::new(3)
            .max_iters(80)
            .tol(0.0)
            .seed(17)
            .pp(adatm::PpConfig::new().tol(0.05).every(4)),
    )
    .run(&t, &mut b)
    .unwrap();
    assert!(res.diagnostics.recoveries >= 1, "the scheduled fault must fire and recover");
    assert!(res.diagnostics.pp_sweeps >= 1, "PP must have been armed before the fault");
    assert!(!res.diagnostics.degraded);
    assert_model_finite(&res);
    assert!(res.final_fit() > 0.9, "run must re-converge after the fault, fit {}", res.final_fit());
}

/// `ground_truth()` with its mode-0 indices spread to every third row and
/// its mode-2 indices to every second row: still exactly low rank and
/// nonnegative, but two of its modes have empty slices (row 0 of every
/// mode holds entries, so `PoisonInf` always lands on a live row).
fn spread_truth() -> adatm::SparseTensor {
    let t = ground_truth();
    let stride = [3, 1, 2];
    let inds = (0..3).map(|d| t.mode_idx(d).iter().map(|&i| i * stride[d]).collect()).collect();
    let dims = t.dims().iter().zip(stride).map(|(&n, s)| n * s as usize).collect();
    adatm::SparseTensor::new(dims, inds, t.vals().to_vec())
}

/// FNV-1a over the bits of everything a run hands back: `lambda`, every
/// factor entry, every cached Gram entry and the fit history.
fn run_digest(res: &adatm::CpResult) -> u64 {
    let words = res
        .model
        .lambda
        .iter()
        .chain(res.model.factors.iter().flat_map(|f| f.as_slice()))
        .chain(res.grams.iter().flat_map(|g| g.as_slice()))
        .chain(&res.fit_history);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_bits().to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// `(iter, mode, kind)` of every recorded event.
fn event_trail(res: &adatm::CpResult) -> Vec<(usize, Option<usize>, BreakdownKind)> {
    res.diagnostics.events.iter().map(|e| (e.iter, e.mode, e.kind)).collect()
}

#[test]
fn breakdown_at_the_last_mode_restores_every_updated_mode_bitwise() {
    // The sequential COO backend sweeps modes 0, 1, 2, so call 11 is the
    // last mode of iteration 3: modes 0 and 1 already hold this sweep's
    // update when the poison forces the rollback. Recorded with the
    // every-row solver, for ALS and NCP.
    let t = spread_truth();
    let opts = CpAlsOptions::new(3).max_iters(12).tol(0.0).seed(5);
    let sched = || FaultSchedule::new().at_call(11, FaultKind::PoisonInf);
    let mut b = FaultInjectingBackend::new(CooBackend::with_parallel(&t, false), sched());
    let als = CpAls::new(opts.clone()).run(&t, &mut b).unwrap();
    assert_eq!(event_trail(&als), [(3, Some(2), BreakdownKind::NonFiniteMttkrp)]);
    assert_eq!(run_digest(&als), 0xcbf565cf27994f98, "als digest {:#x}", run_digest(&als));
    let mut b = FaultInjectingBackend::new(CooBackend::with_parallel(&t, false), sched());
    let ncp = CpAls::ncp(opts).run(&t, &mut b).unwrap();
    assert_eq!(event_trail(&ncp), [(3, Some(2), BreakdownKind::NonFiniteMttkrp)]);
    assert_eq!(run_digest(&ncp), 0xd657139ad42543e3, "ncp digest {:#x}", run_digest(&ncp));
}

#[test]
fn pp_divergence_restores_a_last_good_state_older_than_the_last_boundary() {
    // PP arms early; iteration 7 is an approximate sweep, so its boundary
    // keeps iteration 6 as the last-good state. Iteration 8 is a forced
    // exact sweep whose zeroed last-mode output collapses the fit: the
    // PP-induced divergence restores iteration 6's state and the run
    // carries on with exact sweeps. Recorded with the every-row solver.
    let t = spread_truth();
    let sched = FaultSchedule::new().at_call(23, FaultKind::ZeroOutput);
    let mut b = FaultInjectingBackend::new(CooBackend::with_parallel(&t, false), sched);
    let opts = CpAlsOptions::new(3).max_iters(40).tol(0.0).seed(7);
    let res =
        CpAls::new(opts.pp(adatm::PpConfig::new().tol(0.05).every(4))).run(&t, &mut b).unwrap();
    assert_eq!(
        event_trail(&res),
        [(8, Some(2), BreakdownKind::ZeroColumns), (8, None, BreakdownKind::FitDivergence)]
    );
    assert_eq!(res.diagnostics.events[1].recovery, RecoveryAction::None);
    assert_eq!((res.diagnostics.pp_sweeps, res.diagnostics.pp_refreshes), (23, 5));
    assert_eq!(run_digest(&res), 0x332b61fbb2e77029, "digest {:#x}", run_digest(&res));
}

#[test]
fn breakdown_while_pp_is_armed_keeps_the_last_boundary_as_movement_reference() {
    // Call 22 is mode 1 of iteration 8, a forced exact sweep while PP is
    // armed. The rollback disarms PP; re-arming later compares against
    // the factors of the last completed boundary. Recorded with the
    // every-row solver.
    let t = spread_truth();
    let sched = FaultSchedule::new().at_call(22, FaultKind::PoisonInf);
    let mut b = FaultInjectingBackend::new(CooBackend::with_parallel(&t, false), sched);
    let opts = CpAlsOptions::new(3).max_iters(40).tol(0.0).seed(7);
    let res =
        CpAls::new(opts.pp(adatm::PpConfig::new().tol(0.05).every(4))).run(&t, &mut b).unwrap();
    assert_eq!(event_trail(&res), [(8, Some(1), BreakdownKind::NonFiniteMttkrp)]);
    assert_eq!((res.diagnostics.pp_sweeps, res.diagnostics.pp_refreshes), (19, 5));
    assert_eq!(run_digest(&res), 0x3130c2084e540e65, "digest {:#x}", run_digest(&res));
}

#[test]
fn runs_stopped_before_a_mode_update_return_the_initial_factors_untouched() {
    // Initial factors that are nonzero on the empty slices too: a stop
    // before the first update must hand them back bit for bit.
    let t = spread_truth();
    let init: Vec<adatm::Mat> = t
        .dims()
        .iter()
        .enumerate()
        .map(|(d, &n)| adatm::Mat::random(n, 3, 90 + d as u64))
        .collect();
    let same = |res: &adatm::CpResult, modes: std::ops::Range<usize>| {
        for d in modes {
            let (got, want) = (res.model.factors[d].as_slice(), init[d].as_slice());
            assert!(got.iter().zip(want).all(|(a, b)| a.to_bits() == b.to_bits()), "mode {d}");
        }
    };
    let opts = CpAlsOptions::new(3).tol(0.0).seed(5);
    let run = |opts: CpAlsOptions, sched: FaultSchedule| {
        let mut b = FaultInjectingBackend::new(CooBackend::with_parallel(&t, false), sched);
        CpAls::new(opts).run_from(&t, &mut b, init.clone()).unwrap()
    };
    let res = run(opts.clone().max_iters(0), FaultSchedule::new());
    assert_eq!(res.diagnostics.stop, StopReason::MaxIters);
    same(&res, 0..3);
    let res = run(opts.clone().time_budget(Duration::ZERO), FaultSchedule::new());
    assert_eq!(res.diagnostics.stop, StopReason::TimeBudget);
    same(&res, 0..3);
    // A budget that expires inside iteration 0, in mode 1's MTTKRP: mode
    // 0 holds its first update, modes 1 and 2 their initial factors.
    let stall = FaultSchedule::new().at_call(1, FaultKind::StallMs(100));
    let res = run(opts.time_budget(Duration::from_millis(40)), stall);
    assert_eq!(res.diagnostics.stop, StopReason::TimeBudget);
    assert_eq!(res.iters, 0);
    same(&res, 1..3);
    assert_eq!(run_digest(&res), 0x7eb9939cb70cb09e, "digest {:#x}", run_digest(&res));
}

#[test]
fn nan_on_an_empty_row_is_reported_wherever_an_update_reads_it() {
    // Mode 2 of `spread_truth()` holds entries on even rows only, so row
    // 11 of its 22 x 3 output is empty. The sequential COO backend sweeps
    // modes 0, 1, 2.
    let t = spread_truth();
    let opts = CpAlsOptions::new(3).max_iters(12).tol(0.0).seed(5);
    let run = |sched: FaultSchedule| {
        let mut b = FaultInjectingBackend::new(CooBackend::with_parallel(&t, false), sched);
        CpAls::new(opts.clone()).run(&t, &mut b).unwrap()
    };
    // Call 5 updates mode 2 in iteration 1, a settled factor: the update
    // reads only the support rows, so the NaN perturbs nothing. (An
    // `audit` build's check of the whole MTTKRP output panics on it.)
    #[cfg(not(feature = "audit"))]
    {
        let healthy = run(FaultSchedule::new());
        let unread = run(FaultSchedule::new().at_call(5, FaultKind::PoisonNanRow(11)));
        assert!(unread.diagnostics.clean(), "{:?}", unread.diagnostics.events);
        assert_models_bitwise_equal(&healthy, &unread);
    }
    // A `PoisonInf` (row 0) at call 5 rolls back and reseeds mode 2. Its
    // next update, call 8, is the reseeded factor's first and reads every
    // row, so the NaN there is reported before it can reach the factor.
    // Recorded with the every-row solver.
    let sched = FaultSchedule::new().at_call(5, FaultKind::PoisonInf);
    let res = run(sched.at_call(8, FaultKind::PoisonNanRow(11)));
    assert_eq!(
        event_trail(&res),
        [
            (1, Some(2), BreakdownKind::NonFiniteMttkrp),
            (2, Some(2), BreakdownKind::NonFiniteMttkrp)
        ]
    );
    assert_model_finite(&res);
    assert_eq!(run_digest(&res), 0xda8ae9a253f4687b, "digest {:#x}", run_digest(&res));
}

#[test]
fn copies_take_the_zeros_a_first_update_leaves_on_empty_rows() {
    // NCP keeps the sign of a factor's zeros on its empty rows: from an
    // init holding -0.0 on mode 2's empty (odd) rows they stay -0.0 until
    // call 5's poison reseeds mode 2, whose next update leaves +0.0 there.
    // Every later copy of the last-good state must take the new zeros, as
    // a copy of every row does.
    let t = spread_truth();
    let mut init: Vec<adatm::Mat> = t
        .dims()
        .iter()
        .enumerate()
        .map(|(d, &n)| adatm::Mat::random(n, 3, 40 + d as u64))
        .collect();
    for i in (1..t.dims()[2]).step_by(2) {
        init[2].row_mut(i).fill(-0.0);
    }
    let dir = tmp_dir("zero-signs");
    let sched = FaultSchedule::new().at_call(5, FaultKind::PoisonInf);
    let mut b = FaultInjectingBackend::new(CooBackend::with_parallel(&t, false), sched);
    let opts = CpAlsOptions::new(3).max_iters(12).tol(0.0).seed(5);
    let res = CpAls::ncp(opts.checkpoint(CheckpointConfig::new(&dir).every_iters(1)))
        .run_from(&t, &mut b, init)
        .unwrap();
    assert_eq!(event_trail(&res), [(1, Some(2), BreakdownKind::NonFiniteMttkrp)]);
    let ck = CheckpointStore::load_latest(&dir).unwrap().checkpoint;
    let (_, good) = ck.last_good.expect("a last-good state");
    for i in (1..t.dims()[2]).step_by(2) {
        assert!(good[2].row(i).iter().all(|x| x.to_bits() == 0), "row {i}: {:?}", good[2].row(i));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A sequential-COO run on `t` under `sched`: NCP when `ncp`, else ALS.
fn faulted_run(
    t: &adatm::SparseTensor,
    ncp: bool,
    opts: CpAlsOptions,
    sched: FaultSchedule,
) -> adatm::CpResult {
    let mut b = FaultInjectingBackend::new(CooBackend::with_parallel(t, false), sched);
    let solver = if ncp { CpAls::ncp(opts) } else { CpAls::new(opts) };
    solver.run(t, &mut b).unwrap()
}

#[test]
fn breakdowns_after_an_improving_boundary_restore_it_from_every_mode() {
    // Iteration 3 (calls 9, 10, 11 of the sequential COO sweep 0, 1, 2)
    // follows the improving boundary of iteration 2. A poison at its first
    // and middle mode finds none and one of its modes updated (the last
    // mode is `breakdown_at_the_last_mode_restores_every_updated_mode_bitwise`).
    // Recorded before the mode updates saved the rows they overwrite.
    let t = spread_truth();
    let opts = CpAlsOptions::new(3).max_iters(12).tol(0.0).seed(5);
    let cases = [
        (false, 9, 0x771aa936351428fa),
        (false, 10, 0xeaceb261d89c62f5),
        (true, 9, 0x2b37c1f9330f2eb3),
        (true, 10, 0x32eaee616e51dd27),
    ];
    for (ncp, call, want) in cases {
        let sched = FaultSchedule::new().at_call(call, FaultKind::PoisonInf);
        let res = faulted_run(&t, ncp, opts.clone(), sched);
        assert_eq!(event_trail(&res), [(3, Some(call - 9), BreakdownKind::NonFiniteMttkrp)]);
        let got = run_digest(&res);
        assert_eq!(got, want, "ncp {ncp}, call {call}: digest {got:#x}");
    }
}

#[test]
fn breakdowns_after_a_pp_sweep_restore_the_boundary_before_it() {
    // ALS (seed 7) and NCP (seed 5) both sweep iteration 7 by PP and
    // iteration 8 exactly, so the last-good state during iteration 8 is two
    // boundaries old: the end of iteration 6. Iteration 8 is calls 21, 22,
    // 23 under ALS (call 22 is
    // `breakdown_while_pp_is_armed_keeps_the_last_boundary_as_movement_reference`)
    // and 15, 16, 17 under NCP. Recorded before the mode updates saved the
    // rows they overwrite.
    let t = spread_truth();
    let pp = adatm::PpConfig::new().tol(0.05).every(4);
    let cases = [
        (false, 21, (23, 5), 0x332b61fbb2e77029),
        (false, 23, (22, 3), 0xa6ecfc8acdc6c410),
        (true, 15, (22, 7), 0x5865a53222b07cc0),
        (true, 16, (20, 8), 0xa792f4e3274cafca),
        (true, 17, (21, 9), 0x6c018199e8cafb12),
    ];
    for (ncp, call, pp_counts, want) in cases {
        let seed = if ncp { 5 } else { 7 };
        let opts = CpAlsOptions::new(3).max_iters(40).tol(0.0).seed(seed).pp(pp.clone());
        let first = if ncp { 15 } else { 21 };
        let sched = FaultSchedule::new().at_call(call, FaultKind::PoisonInf);
        let res = faulted_run(&t, ncp, opts, sched);
        let trail = [(8, Some(call - first), BreakdownKind::NonFiniteMttkrp)];
        assert_eq!(event_trail(&res), trail, "ncp {ncp}, call {call}");
        let counts = (res.diagnostics.pp_sweeps, res.diagnostics.pp_refreshes);
        assert_eq!(counts, pp_counts, "ncp {ncp}, call {call}");
        let got = run_digest(&res);
        assert_eq!(got, want, "ncp {ncp}, call {call}: digest {got:#x}");
    }
}

#[test]
fn resume_restores_a_last_good_state_older_than_its_checkpoint() {
    // The checkpoint after iteration 7, a PP sweep, holds the end of
    // iteration 6 as its last-good state (the cases of the test above). A
    // poison at the first mode of iteration 8 rolls back to it: from memory
    // in the uninterrupted run, from the checkpoint in the resumed one.
    // Recorded before the mode updates saved the rows they overwrite.
    let t = spread_truth();
    for (ncp, seed, call, want) in
        [(false, 7, 21, 0x12cc66772ad3df89), (true, 5, 15, 0x4b856c8dc42aeb38)]
    {
        let dir = tmp_dir(if ncp { "old-last-good-ncp" } else { "old-last-good-als" });
        let opts = |iters: usize| {
            CpAlsOptions::new(3)
                .max_iters(iters)
                .tol(0.0)
                .seed(seed)
                .pp(adatm::PpConfig::new().tol(0.05).every(4))
                .checkpoint(CheckpointConfig::new(&dir).every_iters(8))
        };
        let poison = |call: usize| FaultSchedule::new().at_call(call, FaultKind::PoisonInf);
        let reference = faulted_run(&t, ncp, opts(24), poison(call));
        let _ = std::fs::remove_dir_all(&dir);
        let killed = faulted_run(&t, ncp, opts(8), FaultSchedule::new());
        assert!(killed.diagnostics.clean() && killed.diagnostics.pp_sweeps > 0);
        let carried = killed.fit_history[7].to_bits() == killed.fit_history[6].to_bits();
        assert!(carried, "ncp {ncp}: iteration 7 must be a PP sweep");
        let ck = CheckpointStore::load_latest(&dir).unwrap().checkpoint;
        assert_eq!(ck.next_iter, 8);
        let (_, good) = ck.last_good.clone().expect("a last-good state");
        assert!(good != ck.factors, "ncp {ncp}: the last-good state must predate the checkpoint");
        let mut b = FaultInjectingBackend::new(CooBackend::with_parallel(&t, false), poison(0));
        let solver = if ncp { CpAls::ncp(opts(24)) } else { CpAls::new(opts(24)) };
        let resumed = solver.resume_from(&t, &mut b, ck).unwrap();
        assert_eq!(event_trail(&reference), [(8, Some(0), BreakdownKind::NonFiniteMttkrp)]);
        assert_eq!(event_trail(&resumed), event_trail(&reference));
        assert_models_bitwise_equal(&reference, &resumed);
        let got = run_digest(&resumed);
        assert_eq!(got, want, "ncp {ncp}: digest {got:#x}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
