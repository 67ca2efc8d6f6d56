//! CP-ALS drivers over pluggable MTTKRP backends.
//!
//! This crate is the public face of the workspace: it runs the
//! alternating-least-squares CP decomposition over any of the MTTKRP
//! engines built below it, and wires the model-driven planner in as the
//! default strategy selector.
//!
//! * [`backend`] — the [`backend::MttkrpBackend`] trait and
//!   its implementations: element-wise COO (Tensor-Toolbox class),
//!   SPLATT-style CSF, dimension-tree memoization (any shape), and the
//!   model-driven adaptive backend;
//! * [`cpals`] — the one CP sweep loop: MTTKRP, Hadamard-of-Grams
//!   system, the rule's factor update (ALS normal-equation solve with
//!   column normalization, or the NCP multiplicative update), efficient
//!   fit, with detectors, checkpoints and pairwise-perturbation sweeps;
//! * [`ncp`](mod@ncp) — the nonnegative-CP rule and its one-call [`ncp()`];
//! * [`cpopt`] — gradient CP-OPT over any backend;
//! * [`tucker`] — sparse Tucker (HOOI) on one-pass unfoldings;
//! * [`error`] — [`CpAlsError`], the failure surface of every driver,
//!   and the one input check they all run first;
//! * [`model`] — the decomposition result type [`model::CpModel`];
//! * [`decompose`] / [`decompose_with`] — one-call conveniences.
//!
//! # Quickstart
//!
//! ```
//! use adatm_core::{decompose, CpAlsOptions};
//! use adatm_tensor::gen::dense_low_rank;
//!
//! let truth = dense_low_rank(&[8, 9, 7, 6], 4, 0.0, 7);
//! let result = decompose(&truth.tensor, &CpAlsOptions::new(4).max_iters(60)).unwrap();
//! assert!(result.final_fit() > 0.98); // noiseless low-rank data fits
//! assert!(result.diagnostics.clean()); // no breakdowns, no recoveries
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod checkpoint;
pub mod cpals;
pub mod cpopt;
pub mod diagnostics;
pub mod error;
#[cfg(feature = "fault-inject")]
pub mod fault;
pub mod init;
pub mod model;
pub mod ncp;
pub mod tucker;

pub use backend::{
    all_backends, AdaptiveBackend, CooBackend, CsfBackend, DtreeBackend, MttkrpBackend,
};
pub use checkpoint::{
    CheckpointConfig, CheckpointError, CheckpointMedium, CheckpointStore, CheckpointWarning,
    CpCheckpoint, FsMedium, ResumeOutcome,
};
pub use cpals::{CpAls, CpAlsOptions, CpResult, PhaseTimings, PpConfig, UpdateRule};
pub use cpopt::{cp_opt, CpOptOptions, CpOptResult};
pub use diagnostics::{BreakdownEvent, BreakdownKind, RecoveryAction, RunDiagnostics, StopReason};
pub use error::{check_rank_and_order, CpAlsError};
#[cfg(feature = "fault-inject")]
pub use fault::{
    FaultInjectingBackend, FaultKind, FaultSchedule, FaultyMedium, IoFaultKind, IoFaultLog,
    IoFaultSchedule,
};
pub use init::InitStrategy;
pub use model::{factor_match_score, CpModel};
pub use ncp::ncp;
pub use tucker::{hooi, TuckerModel, TuckerOptions, TuckerResult};

use adatm_tensor::SparseTensor;

/// Decomposes `tensor` with the model-driven adaptive backend (plan the
/// memoization strategy, then run CP-ALS).
pub fn decompose(tensor: &SparseTensor, opts: &CpAlsOptions) -> Result<CpResult, CpAlsError> {
    let mut backend = AdaptiveBackend::plan(tensor, opts.rank);
    CpAls::new(opts.clone()).run(tensor, &mut backend)
}

/// Decomposes `tensor` with an explicit backend.
pub fn decompose_with<B: MttkrpBackend>(
    tensor: &SparseTensor,
    opts: &CpAlsOptions,
    backend: &mut B,
) -> Result<CpResult, CpAlsError> {
    CpAls::new(opts.clone()).run(tensor, backend)
}
