//! The typed failure surface of every driver: the CP sweep loop (ALS and
//! NCP), CP-OPT and Tucker (HOOI).
//!
//! [`CpAls::run`](crate::CpAls::run),
//! [`CpAls::run_from`](crate::CpAls::run_from),
//! [`CpAls::resume_from`](crate::CpAls::resume_from),
//! [`ncp`](crate::ncp()), [`cp_opt`](crate::cp_opt) and
//! [`hooi`](crate::hooi) return [`CpAlsError`] for malformed caller input
//! instead of panicking, so a service embedding the solver can translate
//! every failure into a response instead of crashing a worker. Each
//! driver first runs the one input check of this module, `check_input`:
//! a rank of at least 1, at least two modes, finite tensor values. Its
//! value-free half, [`check_rank_and_order`], is cheap enough to run
//! before planning. A driver then checks only what is its own: ALS and
//! NCP their initial factors, NCP the signs, HOOI one rank per mode that
//! fits its mode.
//!
//! Numeric breakdowns *during* a sweep run are not errors: the solver
//! recovers or degrades gracefully and reports what happened in
//! [`RunDiagnostics`](crate::RunDiagnostics). CP-OPT reports a non-finite
//! objective as an unconverged result. HOOI reports an eigensolver
//! failure on an overflowed unfolding as [`CpAlsError::Linalg`].

use crate::checkpoint::CheckpointError;
use adatm_linalg::LinalgError;
use adatm_tensor::SparseTensor;

/// Why a driver could not start (or, in the unrecoverable case, could not
/// produce even a degraded model).
#[derive(Clone, Debug, PartialEq)]
pub enum CpAlsError {
    /// The requested decomposition rank is zero.
    ZeroRank,
    /// Decomposition needs at least two modes.
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
    /// HOOI was given a number of ranks other than the tensor's order.
    RankCountMismatch {
        /// Modes in the tensor.
        ndim: usize,
        /// Ranks supplied.
        ranks: usize,
    },
    /// A HOOI rank exceeds its mode's size.
    RankExceedsMode {
        /// The mode.
        mode: usize,
        /// Its requested rank.
        rank: usize,
        /// Its size.
        size: usize,
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
                write!(f, "decomposition needs a tensor with at least 2 modes, got {ndim}")
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
            CpAlsError::RankCountMismatch { ndim, ranks } => {
                write!(f, "expected one rank per mode ({ndim}), got {ranks}")
            }
            CpAlsError::RankExceedsMode { mode, rank, size } => {
                write!(f, "rank {rank} exceeds mode {mode} size {size}")
            }
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

/// Checks what every driver needs of its rank and its tensor's order: a
/// rank of at least 1 and at least two modes. It reads no tensor values,
/// so a caller can run it before planning or building a backend.
pub fn check_rank_and_order(rank: usize, ndim: usize) -> Result<(), CpAlsError> {
    if rank == 0 {
        return Err(CpAlsError::ZeroRank);
    }
    if ndim < 2 {
        return Err(CpAlsError::TooFewModes { ndim });
    }
    Ok(())
}

/// The input check every driver runs first: [`check_rank_and_order`],
/// then one scan for NaN or infinite tensor values.
pub(crate) fn check_input(tensor: &SparseTensor, rank: usize) -> Result<(), CpAlsError> {
    check_rank_and_order(rank, tensor.ndim())?;
    if !tensor.vals().iter().all(|v| v.is_finite()) {
        return Err(CpAlsError::NonFiniteTensor);
    }
    Ok(())
}
