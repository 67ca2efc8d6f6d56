//! Breakdown and recovery diagnostics for a CP-ALS run.
//!
//! Every detector firing and every recovery policy applied is recorded as
//! a [`BreakdownEvent`] in the run's [`RunDiagnostics`], so callers (and
//! the fault-injection tests) can assert on exactly what the solver saw
//! and did — not just on the final model.

use std::time::Duration;

/// What a breakdown detector observed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakdownKind {
    /// The MTTKRP output for a mode contained NaN/Inf.
    NonFiniteMttkrp,
    /// The Hadamard-of-Grams system matrix contained NaN/Inf.
    NonFiniteGram,
    /// The updated factor (or its `lambda` scales) contained NaN/Inf
    /// after the solve.
    NonFiniteFactor,
    /// The Gram system was numerically singular (condition estimate from
    /// the Jacobi eigenvalues exceeded the threshold, or eigenvalues were
    /// truncated by the pseudoinverse).
    SingularGram,
    /// The dense solve itself failed (eigensolver non-convergence).
    SolveFailed,
    /// One or more factor columns collapsed to exactly zero.
    ZeroColumns,
    /// The fit dropped sharply or became non-finite between iterations.
    FitDivergence,
    /// The fit stopped improving for several iterations with early
    /// stopping disabled (`tol = 0`).
    FitStall,
    /// The wall-clock budget expired.
    TimeBudgetExpired,
    /// Measured per-iteration time exceeded the planner's calibrated
    /// prediction by more than the configured drift factor: the cost
    /// model (or its profile) no longer describes this machine/tensor.
    PredictionDrift,
    /// An iteration-boundary checkpoint write failed (I/O error). The
    /// run keeps iterating — durability degrades, correctness does not —
    /// and earlier generations remain intact for resume.
    CheckpointWriteFailed,
}

impl std::fmt::Display for BreakdownKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            BreakdownKind::NonFiniteMttkrp => "non-finite MTTKRP output",
            BreakdownKind::NonFiniteGram => "non-finite Gram system",
            BreakdownKind::NonFiniteFactor => "non-finite updated factor",
            BreakdownKind::SingularGram => "numerically singular Gram system",
            BreakdownKind::SolveFailed => "dense solve failure",
            BreakdownKind::ZeroColumns => "zero factor columns",
            BreakdownKind::FitDivergence => "fit divergence",
            BreakdownKind::FitStall => "fit stall",
            BreakdownKind::TimeBudgetExpired => "time budget expired",
            BreakdownKind::PredictionDrift => "model-prediction drift",
            BreakdownKind::CheckpointWriteFailed => "checkpoint write failure",
        };
        f.write_str(s)
    }
}

/// Which recovery policy the solver applied to a breakdown.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RecoveryAction {
    /// Re-solved the degenerate Gram system with a Tikhonov ridge.
    RidgeResolve {
        /// The ridge added to the Gram diagonal.
        ridge: f64,
    },
    /// Rolled back to the last-good factor set and re-randomized the
    /// offending state, invalidating all memoized backend intermediates.
    Rollback {
        /// Columns re-seeded with fresh random entries (all, on a full
        /// rollback).
        reseeded_cols: usize,
    },
    /// Re-seeded individual zero columns in place.
    ReseedColumns {
        /// Number of columns refreshed.
        reseeded_cols: usize,
    },
    /// No repair possible or budget exhausted: the run stopped and
    /// returned the best model seen so far.
    Degrade,
    /// Detection only (recorded for the diagnostics record; the event
    /// needed no repair — e.g. a stall with early stopping disabled).
    None,
}

/// One detector firing, with the recovery taken and its cost.
#[derive(Clone, Debug)]
pub struct BreakdownEvent {
    /// Outer iteration (0-based) in which the detector fired.
    pub iter: usize,
    /// Mode being updated, if the breakdown is mode-local.
    pub mode: Option<usize>,
    /// What was detected.
    pub kind: BreakdownKind,
    /// What the solver did about it.
    pub recovery: RecoveryAction,
    /// Wall-clock spent applying the recovery.
    pub recovery_time: Duration,
}

/// Why the iteration loop stopped.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StopReason {
    /// The fit-change tolerance fired.
    Converged,
    /// The iteration cap was reached.
    #[default]
    MaxIters,
    /// The wall-clock budget expired.
    TimeBudget,
    /// The run degraded: recovery budget exhausted (or an unrecoverable
    /// breakdown), best-so-far model returned.
    Degraded,
    /// The fit diverged and the solver restored the best earlier state.
    Diverged,
}

/// The resilience record of a run.
///
/// Healthy runs have an empty `events` list; anything else documents a
/// breakdown the solver detected and what it did about it. Returned as
/// part of [`CpResult`](crate::CpResult) — inspecting it is how callers
/// distinguish "converged cleanly" from "limped home".
#[derive(Clone, Debug, Default)]
pub struct RunDiagnostics {
    /// Every detector firing, in order.
    pub events: Vec<BreakdownEvent>,
    /// Recoveries actually applied (events minus detection-only records).
    pub recoveries: usize,
    /// Why the run stopped.
    pub stop: StopReason,
    /// Whether the returned model is a best-so-far fallback rather than
    /// the state of the final iteration.
    pub degraded: bool,
    /// Total wall-clock of the run.
    pub elapsed: Duration,
    /// The backend's calibrated per-iteration prediction in nanoseconds,
    /// when the model-driven backend supplied one.
    pub predicted_iter_ns: Option<f64>,
    /// Measured per-iteration kernel time in nanoseconds — averaged over
    /// **clean** iterations only (completed, no detector fired, exact
    /// MTTKRP sweep). Iterations that ran recoveries re-do work the
    /// model never priced, and pairwise-perturbation sweeps run a
    /// different kernel class entirely; counting either would let an
    /// honest prediction look drifted. This is the quantity the drift
    /// detector compares against `predicted_iter_ns`.
    pub measured_iter_ns: Option<f64>,
    /// How many iterations `measured_iter_ns` averages over: the clean
    /// exact iterations, so a run that recovered or ran PP sweeps counts
    /// fewer than it ran.
    pub measured_iters: u64,
    /// Approximate (pairwise-perturbation) sweeps executed.
    pub pp_sweeps: u64,
    /// Times the PP baseline was (re)captured from an exact sweep.
    pub pp_refreshes: u64,
    /// Average MTTKRP-phase nanoseconds of an approximate sweep (set
    /// only when PP sweeps ran).
    pub pp_sweep_ns: Option<f64>,
    /// Average MTTKRP-phase nanoseconds of a clean exact sweep (set only
    /// when PP is configured and at least one clean exact sweep ran).
    pub exact_sweep_ns: Option<f64>,
}

impl RunDiagnostics {
    /// Records an event, bumping the recovery counter when a repair was
    /// applied.
    pub(crate) fn record(&mut self, event: BreakdownEvent) {
        adatm_trace::event!(
            "recovery",
            iter: event.iter as u64,
            mode: event.mode.map_or(-1i64, |m| m as i64),
            kind: format!("{}", event.kind),
            action: format!("{:?}", event.recovery),
            recovery_ns: event.recovery_time.as_nanos() as u64
        );
        if !matches!(event.recovery, RecoveryAction::None) {
            self.recoveries += 1;
        }
        self.events.push(event);
    }

    /// Whether any detector fired during the run.
    pub fn clean(&self) -> bool {
        self.events.is_empty()
    }

    /// Events of one kind (for tests asserting specific fault classes).
    pub fn count_of(&self, kind: BreakdownKind) -> usize {
        self.events.iter().filter(|e| e.kind == kind).count()
    }
}
