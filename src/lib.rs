//! `adatm` — model-driven sparse CP decomposition for higher-order
//! tensors.
//!
//! This is the facade crate: it re-exports the full public API of the
//! workspace so downstream users depend on a single crate.
//!
//! * Sparse tensors, I/O, generators: [`tensor`]
//! * Dense kernels: [`linalg`]
//! * Dimension trees and memoized TTMV: [`dtree`]
//! * The model-driven planner: [`planner`]
//! * CP-ALS drivers and backends: re-exported at the root
//!
//! See `examples/quickstart.rs` for a five-line decomposition.

#![forbid(unsafe_code)]

pub use adatm_core::backend::all_backends;
pub use adatm_core::{
    complete, cp_opt, decompose, decompose_with, factor_match_score, hooi, ncp, AdaptiveBackend,
    BreakdownEvent, BreakdownKind, CheckpointConfig, CheckpointError, CheckpointMedium,
    CheckpointStore, CompletionOptions, CompletionResult, CooBackend, CpAls, CpAlsError,
    CpAlsOptions, CpCheckpoint, CpModel, CpOptOptions, CpOptResult, CpResult, CsfBackend,
    DtreeBackend, InitStrategy, MttkrpBackend, PhaseTimings, PpConfig, RecoveryAction,
    ResumeOutcome, RunDiagnostics, StopReason, TuckerModel, TuckerOptions, TuckerResult,
    UpdateRule,
};
#[cfg(feature = "fault-inject")]
pub use adatm_core::{
    FaultInjectingBackend, FaultKind, FaultSchedule, FaultyMedium, IoFaultKind, IoFaultLog,
    IoFaultSchedule,
};
pub use adatm_dtree::TreeShape;
pub use adatm_linalg::Mat;
pub use adatm_model::{
    AdmissionError, EnvProfile, KernelProfile, MemoPlan, NnzEstimator, Objective, Planner,
    SearchStrategy,
};
pub use adatm_tensor::SparseTensor;

/// Dense linear-algebra kernels (`Mat`, Jacobi eigensolver, pinv).
pub mod linalg {
    pub use adatm_linalg::*;
}

/// Sparse tensor substrate (COO, CSF, I/O, generators, statistics).
pub mod tensor {
    pub use adatm_tensor::*;
}

/// Dimension trees: shapes, symbolic analysis, numeric TTMV engine.
pub mod dtree {
    pub use adatm_dtree::*;
}

/// The model-driven memoization planner.
pub mod planner {
    pub use adatm_model::*;
}

/// Structured NDJSON tracing: sinks, events, spans, and the
/// zero-cost-when-disabled `event!`/`span_guard!` macros (which live at
/// the `adatm_trace` crate root).
pub mod trace {
    pub use adatm_trace::*;
}

/// Invariant audits (`--features audit`): the [`audit::Validate`] trait,
/// structural validators for every kernel data structure, and — via
/// [`tensor::audit`](adatm_tensor::audit) — the parallel-MTTKRP
/// write-overlap detector.
#[cfg(feature = "audit")]
pub mod audit {
    pub use adatm_audit::*;
}
