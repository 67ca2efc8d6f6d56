//! Small dense linear-algebra kernels for sparse CP decomposition.
//!
//! CP-ALS on a rank-`R` decomposition only ever needs dense operations at
//! two scales:
//!
//! * **tall-skinny**: the factor matrices `U^(n)` and MTTKRP results
//!   `M^(n)` are `I_n x R` with `R` small (typically 8–64), and
//! * **tiny square**: the Gram matrices `W^(n) = U^(n)^T U^(n)` and their
//!   Hadamard products `H^(n)` are `R x R`.
//!
//! Rather than pulling in an external BLAS/LAPACK binding, this crate
//! implements exactly the kernels the solver needs on a row-major [`Mat`]
//! type: Gram products, general matrix multiply, Hadamard products, column
//! normalization, a cyclic Jacobi symmetric eigensolver, and the
//! Moore–Penrose pseudoinverse built on top of it, plus the fused in-place
//! mode updates the CP sweep loop runs ([`update`]). Tall-skinny kernels
//! are parallelized with rayon; `R x R` kernels run sequentially because
//! they are far below parallelization thresholds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod eig;
pub mod kernels;
pub mod mat;
pub mod pinv;
pub mod qr;
pub mod update;

pub use eig::{jacobi_eigh, try_jacobi_eigh, EigH};
pub use mat::Mat;
pub use pinv::{pinv_sym, ridge_inv_gram, solve_gram, try_pinv_gram, GramSolveInfo};
pub use qr::{thin_qr, ThinQr};

/// Machine-epsilon-scale tolerance used when truncating near-zero
/// eigenvalues in pseudoinverse computations.
pub const PINV_RCOND: f64 = 1e-12;

/// Typed failures of the dense kernels.
///
/// The `try_`-prefixed entry points ([`try_jacobi_eigh`],
/// [`try_pinv_gram`], [`ridge_inv_gram`]) return these instead of
/// panicking or silently producing NaN, so solver drivers can detect a
/// numeric breakdown and apply a recovery policy.
#[derive(Clone, Debug, PartialEq)]
pub enum LinalgError {
    /// The input contained NaN or infinite entries.
    NonFinite {
        /// Which operand was non-finite.
        what: &'static str,
    },
    /// The operation requires a square matrix.
    NotSquare {
        /// Row count of the offending matrix.
        nrows: usize,
        /// Column count of the offending matrix.
        ncols: usize,
    },
    /// The iterative eigensolver did not converge within its sweep cap.
    NoConvergence {
        /// Number of full Jacobi sweeps performed before giving up.
        sweeps: usize,
        /// Remaining off-diagonal Frobenius norm when the cap was hit.
        off_norm: f64,
    },
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::NonFinite { what } => {
                write!(f, "non-finite entries (NaN/Inf) in {what}")
            }
            LinalgError::NotSquare { nrows, ncols } => {
                write!(f, "expected a square matrix, got {nrows} x {ncols}")
            }
            LinalgError::NoConvergence { sweeps, off_norm } => {
                write!(f, "eigensolver failed to converge after {sweeps} sweeps (off-diagonal norm {off_norm:.3e})")
            }
        }
    }
}

impl std::error::Error for LinalgError {}
