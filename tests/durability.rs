//! Durability tests: checkpoint/resume correctness of the CP-ALS driver
//! against the real filesystem (no fault injection required).
//!
//! The headline property is **bitwise identity**: a run that is
//! checkpointed, killed, and resumed must produce exactly the model an
//! uninterrupted run produces — same lambda bits, same factor bits, same
//! fit history. Everything in the driver's state that influences the
//! trajectory (fit history for the detectors, recovery counters for the
//! reseed RNG streams) must therefore round-trip through the checkpoint.

use adatm::tensor::gen::dense_low_rank;
use adatm::{
    CheckpointConfig, CheckpointError, CheckpointStore, CooBackend, CpAls, CpAlsError,
    CpAlsOptions, CpResult, StopReason,
};
use std::path::PathBuf;
use std::time::Duration;

/// A small noiseless low-rank tensor with a deterministic trajectory.
fn ground_truth() -> adatm::SparseTensor {
    dense_low_rank(&[12, 10, 11], 3, 0.0, 13).tensor
}

/// A fresh per-test temp directory (removed at the end of each test).
fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("adatm-durability-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Sequential COO: floating-point reduction order is fixed, so equal
/// inputs give bitwise-equal outputs.
fn backend(t: &adatm::SparseTensor) -> CooBackend {
    CooBackend::with_parallel(t, false)
}

fn opts(max_iters: usize) -> CpAlsOptions {
    CpAlsOptions::new(3).max_iters(max_iters).tol(0.0).seed(42)
}

/// Asserts two results carry bitwise-identical models and fit histories.
fn assert_bitwise_identical(a: &CpResult, b: &CpResult) {
    assert_eq!(a.model.lambda.len(), b.model.lambda.len());
    for (i, (x, y)) in a.model.lambda.iter().zip(&b.model.lambda).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "lambda[{i}]: {x} vs {y}");
    }
    assert_eq!(a.model.factors.len(), b.model.factors.len());
    for (d, (fa, fb)) in a.model.factors.iter().zip(&b.model.factors).enumerate() {
        assert_eq!(fa.nrows(), fb.nrows(), "factor {d} rows");
        assert_eq!(fa.ncols(), fb.ncols(), "factor {d} cols");
        for (i, (x, y)) in fa.as_slice().iter().zip(fb.as_slice()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "factor {d} elem {i}: {x} vs {y}");
        }
    }
    assert_eq!(a.fit_history.len(), b.fit_history.len(), "fit history length");
    for (i, (x, y)) in a.fit_history.iter().zip(&b.fit_history).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "fit_history[{i}]: {x} vs {y}");
    }
    assert_eq!(a.iters, b.iters);
}

#[test]
fn kill_and_resume_is_bitwise_identical_to_uninterrupted_run() {
    let t = ground_truth();
    // ALS and NCP run the same loop, so both update rules must resume
    // bitwise-identically.
    for rule in ["als", "ncp"] {
        let solver = |o| if rule == "ncp" { CpAls::ncp(o) } else { CpAls::new(o) };
        let dir = tmp_dir(&format!("kill-resume-{rule}"));

        // Reference: one uninterrupted 20-iteration run, no checkpointing.
        let reference = solver(opts(20)).run(&t, &mut backend(&t)).unwrap();

        // "Killed" run: checkpoint every iteration, stop after 7 — the
        // state on disk is exactly what a kill after iteration 7's write
        // leaves.
        let cfg = CheckpointConfig::new(&dir).every_iters(1);
        let killed = solver(opts(7).checkpoint(cfg.clone())).run(&t, &mut backend(&t)).unwrap();
        assert_eq!(killed.iters, 7);

        // Resume from the newest generation and finish the remaining 13.
        let outcome = CheckpointStore::load_latest(&dir).unwrap();
        assert_eq!(outcome.checkpoint.next_iter, 7);
        assert!(outcome.fallbacks.is_empty());
        let resumed = solver(opts(20).checkpoint(cfg))
            .resume_from(&t, &mut backend(&t), outcome.checkpoint)
            .unwrap();

        assert_bitwise_identical(&reference, &resumed);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn checkpointing_does_not_perturb_the_trajectory() {
    let t = ground_truth();
    let dir = tmp_dir("no-perturb");
    let plain = CpAls::new(opts(12)).run(&t, &mut backend(&t)).unwrap();
    let checkpointed = CpAls::new(opts(12).checkpoint(CheckpointConfig::new(&dir).every_iters(2)))
        .run(&t, &mut backend(&t))
        .unwrap();
    assert_bitwise_identical(&plain, &checkpointed);
    assert!(checkpointed.timings.checkpoint > Duration::ZERO, "checkpoint phase was timed");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_newest_generation_falls_back_and_resume_still_matches() {
    let t = ground_truth();
    let dir = tmp_dir("corrupt-newest");
    let cfg = CheckpointConfig::new(&dir).every_iters(1).keep(5);
    let reference = CpAls::new(opts(20)).run(&t, &mut backend(&t)).unwrap();
    CpAls::new(opts(7).checkpoint(cfg.clone())).run(&t, &mut backend(&t)).unwrap();

    // Flip one payload byte of the newest generation (iteration 7).
    let newest = dir.join("ckpt-000000000006.adtmc");
    let mut bytes = std::fs::read(&newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&newest, &bytes).unwrap();

    // The loader must fall back to generation 5 (iteration 6) with a
    // typed warning naming the corrupt file.
    let outcome = CheckpointStore::load_latest(&dir).unwrap();
    assert_eq!(outcome.checkpoint.next_iter, 6, "fell back to the previous generation");
    assert_eq!(outcome.fallbacks.len(), 1);
    assert_eq!(outcome.fallbacks[0].path, newest);
    assert!(
        matches!(outcome.fallbacks[0].error, CheckpointError::ChecksumMismatch { .. }),
        "corruption surfaces as a typed checksum error, got {:?}",
        outcome.fallbacks[0].error
    );

    // Resuming from the older generation still reproduces the reference.
    let resumed =
        CpAls::new(opts(20)).resume_from(&t, &mut backend(&t), outcome.checkpoint).unwrap();
    assert_bitwise_identical(&reference, &resumed);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rotation_keeps_only_the_last_k_generations() {
    let t = ground_truth();
    let dir = tmp_dir("rotation");
    CpAls::new(opts(10).checkpoint(CheckpointConfig::new(&dir).every_iters(1).keep(2)))
        .run(&t, &mut backend(&t))
        .unwrap();
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    assert_eq!(
        names,
        vec!["ckpt-000000000008.adtmc", "ckpt-000000000009.adtmc"],
        "only the newest 2 of 10 generations survive rotation"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn time_budget_expiry_persists_a_final_checkpoint() {
    let t = ground_truth();
    let dir = tmp_dir("watchdog");
    // A budget that expires before the first iteration-boundary write:
    // without the final best-so-far write, the run would leave nothing.
    let res = CpAls::new(
        opts(1000)
            .time_budget(Duration::from_nanos(1))
            .checkpoint(CheckpointConfig::new(&dir).every_iters(100)),
    )
    .run(&t, &mut backend(&t))
    .unwrap();
    assert_eq!(res.diagnostics.stop, StopReason::TimeBudget);
    let outcome = CheckpointStore::load_latest(&dir)
        .expect("watchdog expiry must leave a resumable checkpoint");
    assert_eq!(outcome.checkpoint.next_iter, res.iters);
    // And the checkpoint is actually resumable.
    CpAls::new(opts(3)).resume_from(&t, &mut backend(&t), outcome.checkpoint).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_validation_mismatches_are_typed() {
    let t = ground_truth();
    let dir = tmp_dir("mismatch");
    CpAls::new(opts(5).checkpoint(CheckpointConfig::new(&dir).every_iters(1)))
        .run(&t, &mut backend(&t))
        .unwrap();
    let ckpt = CheckpointStore::load_latest(&dir).unwrap().checkpoint;

    // Wrong rank.
    let err = CpAls::new(CpAlsOptions::new(4).max_iters(5).seed(42))
        .resume_from(&t, &mut backend(&t), ckpt.clone())
        .unwrap_err();
    assert!(
        matches!(&err, CpAlsError::Checkpoint(CheckpointError::Mismatch { what }) if what.contains("rank")),
        "got {err:?}"
    );

    // Wrong seed.
    let err =
        CpAls::new(opts(5).seed(7)).resume_from(&t, &mut backend(&t), ckpt.clone()).unwrap_err();
    assert!(
        matches!(&err, CpAlsError::Checkpoint(CheckpointError::Mismatch { what }) if what.contains("seed")),
        "got {err:?}"
    );

    // Wrong tensor shape.
    let other = dense_low_rank(&[9, 8, 7], 3, 0.0, 1).tensor;
    let err = CpAls::new(opts(5)).resume_from(&other, &mut backend(&other), ckpt).unwrap_err();
    assert!(
        matches!(&err, CpAlsError::Checkpoint(CheckpointError::Mismatch { .. })),
        "got {err:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_under_the_other_update_rule_is_a_typed_mismatch() {
    // The checkpoint records the rule that wrote it: resuming an NCP
    // checkpoint under ALS (or the reverse) would silently continue a
    // different method from the other's state.
    let t = ground_truth();
    for (writer, reader) in [("ncp", "als"), ("als", "ncp")] {
        let solver = |rule: &str, o| if rule == "ncp" { CpAls::ncp(o) } else { CpAls::new(o) };
        let dir = tmp_dir(&format!("rule-{writer}"));
        solver(writer, opts(4).checkpoint(CheckpointConfig::new(&dir).every_iters(2)))
            .run(&t, &mut backend(&t))
            .unwrap();
        let ckpt = CheckpointStore::load_latest(&dir).unwrap().checkpoint;
        let err = solver(reader, opts(8)).resume_from(&t, &mut backend(&t), ckpt).unwrap_err();
        let named_both = |what: &str| what.contains(writer) && what.contains(reader);
        assert!(
            matches!(&err, CpAlsError::Checkpoint(CheckpointError::Mismatch { what }) if named_both(what)),
            "{writer} -> {reader}: got {err:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn resume_from_missing_or_empty_dir_is_a_typed_no_checkpoints_error() {
    let missing = tmp_dir("never-created");
    let err = CheckpointStore::load_latest(&missing).unwrap_err();
    assert!(matches!(err, CheckpointError::NoCheckpoints { .. }), "got {err:?}");

    let empty = tmp_dir("empty");
    std::fs::create_dir_all(&empty).unwrap();
    let err = CheckpointStore::load_latest(&empty).unwrap_err();
    assert!(matches!(err, CheckpointError::NoCheckpoints { .. }), "got {err:?}");
    let _ = std::fs::remove_dir_all(&empty);
}

#[test]
fn resumed_store_continues_the_generation_sequence() {
    let t = ground_truth();
    let dir = tmp_dir("continuation");
    let cfg = CheckpointConfig::new(&dir).every_iters(1).keep(3);
    CpAls::new(opts(4).checkpoint(cfg.clone())).run(&t, &mut backend(&t)).unwrap();
    let outcome = CheckpointStore::load_latest(&dir).unwrap();
    let first_gen = outcome.generation;
    CpAls::new(opts(8).checkpoint(cfg))
        .resume_from(&t, &mut backend(&t), outcome.checkpoint)
        .unwrap();
    let after = CheckpointStore::load_latest(&dir).unwrap();
    assert!(
        after.generation > first_gen,
        "resumed run must continue generations past {first_gen}, got {}",
        after.generation
    );
    assert_eq!(after.checkpoint.next_iter, 8);
    let _ = std::fs::remove_dir_all(&dir);
}
