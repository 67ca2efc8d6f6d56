//! The typed failure surface of the CP sweep driver (ALS and NCP).
//!
//! [`CpAls::run`](crate::CpAls::run),
//! [`CpAls::run_from`](crate::CpAls::run_from),
//! [`CpAls::resume_from`](crate::CpAls::resume_from) and
//! [`ncp`](crate::ncp()) return [`CpAlsError`] for malformed caller input
//! instead of panicking, so a service embedding the
//! solver can translate every failure into a response instead of crashing
//! a worker. Numeric breakdowns *during* a run are not errors: the solver
//! recovers or degrades gracefully and reports what happened in
//! [`RunDiagnostics`](crate::RunDiagnostics).

use crate::checkpoint::CheckpointError;
use adatm_linalg::LinalgError;

/// Why a CP-ALS run could not start (or, in the unrecoverable case, could
/// not produce even a degraded model).
#[derive(Clone, Debug, PartialEq)]
pub enum CpAlsError {
    /// The requested decomposition rank is zero.
    ZeroRank,
    /// CP decomposition needs at least two modes.
    TooFewModes {
        /// Number of modes of the input tensor.
        ndim: usize,
    },
    /// `run_from` was given the wrong number of initial factors.
    FactorCountMismatch {
        /// Modes in the tensor.
        expected: usize,
        /// Factors supplied.
        found: usize,
    },
    /// An initial factor has the wrong shape.
    FactorShapeMismatch {
        /// Which mode's factor is wrong.
        mode: usize,
        /// `(rows, cols)` the solver expected (`I_mode x R`).
        expected: (usize, usize),
        /// `(rows, cols)` actually supplied.
        found: (usize, usize),
    },
    /// The input tensor contains NaN or infinite values.
    NonFiniteTensor,
    /// An initial factor contains NaN or infinite values.
    NonFiniteInit {
        /// Which mode's factor is non-finite.
        mode: usize,
    },
    /// Nonnegative CP was given a tensor with a negative value (`mode:
    /// None`) or an initial factor with a negative entry (`mode:
    /// Some(d)`) — e.g. from
    /// [`InitStrategy::RandomizedRange`](crate::InitStrategy::RandomizedRange).
    NegativeInput {
        /// Which mode's initial factor is signed; `None` for the tensor.
        mode: Option<usize>,
    },
    /// A dense kernel failed in a way no recovery policy could absorb.
    Linalg(LinalgError),
    /// The checkpoint store could not be opened, or a checkpoint being
    /// resumed from is unreadable or inconsistent with this run.
    /// Mid-run checkpoint *write* failures are not errors: the run keeps
    /// iterating and records a
    /// [`BreakdownKind::CheckpointWriteFailed`](crate::BreakdownKind::CheckpointWriteFailed)
    /// diagnostic instead.
    Checkpoint(CheckpointError),
}

impl std::fmt::Display for CpAlsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CpAlsError::ZeroRank => write!(f, "decomposition rank must be at least 1"),
            CpAlsError::TooFewModes { ndim } => {
                write!(f, "CP decomposition needs a tensor with at least 2 modes, got {ndim}")
            }
            CpAlsError::FactorCountMismatch { expected, found } => {
                write!(f, "expected {expected} initial factors (one per mode), found {found}")
            }
            CpAlsError::FactorShapeMismatch { mode, expected, found } => write!(
                f,
                "initial factor for mode {mode} is {} x {}, expected {} x {}",
                found.0, found.1, expected.0, expected.1
            ),
            CpAlsError::NonFiniteTensor => {
                write!(f, "input tensor contains non-finite (NaN/Inf) values")
            }
            CpAlsError::NonFiniteInit { mode } => {
                write!(f, "initial factor for mode {mode} contains non-finite (NaN/Inf) values")
            }
            CpAlsError::NegativeInput { mode: None } => {
                write!(f, "nonnegative CP requires a nonnegative tensor, found a negative value")
            }
            CpAlsError::NegativeInput { mode: Some(d) } => write!(
                f,
                "initial factor for mode {d} has negative entries; nonnegative CP needs a \
                 nonnegative start (use the random init)"
            ),
            CpAlsError::Linalg(e) => write!(f, "unrecoverable dense-kernel failure: {e}"),
            CpAlsError::Checkpoint(e) => write!(f, "checkpoint failure: {e}"),
        }
    }
}

impl std::error::Error for CpAlsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CpAlsError::Linalg(e) => Some(e),
            CpAlsError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinalgError> for CpAlsError {
    fn from(e: LinalgError) -> Self {
        CpAlsError::Linalg(e)
    }
}

impl From<CheckpointError> for CpAlsError {
    fn from(e: CheckpointError) -> Self {
        CpAlsError::Checkpoint(e)
    }
}
