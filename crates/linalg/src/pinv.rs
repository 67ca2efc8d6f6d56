//! Moore–Penrose pseudoinverse of small symmetric matrices.
//!
//! CP-ALS solves `U^(n) H^(n) = M^(n)` where `H^(n)` is the Hadamard
//! product of Gram matrices — symmetric positive semidefinite, and often
//! numerically rank-deficient when factor columns become collinear during
//! the early iterations. The standard treatment (Tensor Toolbox, SPLATT) is
//! `U^(n) = M^(n) * pinv(H^(n))`, which this module provides via the Jacobi
//! eigendecomposition.

use crate::eig::{jacobi_eigh, try_jacobi_eigh, try_jacobi_eigh_into, EigH};
use crate::mat::Mat;
use crate::{LinalgError, PINV_RCOND};

/// Spectral diagnostics of a Gram solve, derived for free from the Jacobi
/// eigenvalues already computed for the pseudoinverse.
///
/// CP-ALS breakdown detectors read this after every normal-equations
/// solve: a truncated eigenvalue or an extreme condition number means the
/// factor columns have gone (numerically) collinear and the solve is a
/// candidate for a ridge re-solve.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct GramSolveInfo {
    /// Largest eigenvalue magnitude of `H`.
    pub max_abs_eig: f64,
    /// Smallest eigenvalue magnitude of `H`.
    pub min_abs_eig: f64,
    /// Eigenvalues truncated to zero by the `rcond` cutoff (the numeric
    /// rank deficiency of `H`).
    pub truncated: usize,
}

impl GramSolveInfo {
    /// Spectral condition estimate `max|w| / min|w|`.
    ///
    /// Infinite when `H` is exactly singular; 1 for the empty/zero matrix
    /// (nothing to be ill-conditioned about).
    pub fn cond(&self) -> f64 {
        if self.max_abs_eig == 0.0 {
            1.0
        } else if self.min_abs_eig == 0.0 {
            f64::INFINITY
        } else {
            self.max_abs_eig / self.min_abs_eig
        }
    }

    /// Whether the pseudoinverse had to discard directions (numeric rank
    /// deficiency).
    pub fn rank_deficient(&self) -> bool {
        self.truncated > 0
    }
}

fn spectral_info(e: &EigH, cutoff: f64) -> GramSolveInfo {
    let mut info = GramSolveInfo { max_abs_eig: 0.0, min_abs_eig: f64::INFINITY, truncated: 0 };
    for &w in &e.values {
        let a = w.abs();
        info.max_abs_eig = info.max_abs_eig.max(a);
        info.min_abs_eig = info.min_abs_eig.min(a);
        if a <= cutoff {
            info.truncated += 1;
        }
    }
    if e.values.is_empty() {
        info.min_abs_eig = 0.0;
    }
    info
}

/// `V diag(f(w_i)) V^T` for an eigendecomposition and a spectral map `f`.
fn spectral_apply(e: &EigH, f: impl Fn(f64) -> f64) -> Mat {
    let mut out = Mat::zeros(0, 0);
    spectral_apply_into(e, f, &mut Mat::zeros(0, 0), &mut Mat::zeros(0, 0), &mut out);
    out
}

/// [`spectral_apply`] into `out`, with `scaled` and `vt` as work
/// matrices.
fn spectral_apply_into(
    e: &EigH,
    f: impl Fn(f64) -> f64,
    scaled: &mut Mat,
    vt: &mut Mat,
    out: &mut Mat,
) {
    let n = e.values.len();
    scaled.copy_from(&e.vectors); // columns scaled by f(eigenvalue)
    for (j, &w) in e.values.iter().enumerate() {
        let fw = f(w);
        for i in 0..n {
            let v = scaled.get(i, j) * fw;
            scaled.set(i, j, v);
        }
    }
    e.vectors.transpose_into(vt);
    scaled.matmul_into(vt, out);
}

/// The reusable buffers of [`try_pinv_gram_into`]: the eigensolver's
/// working copy and decomposition, and the spectral product's operands.
#[derive(Clone, Debug)]
pub struct PinvWork {
    m: Mat,
    eig: EigH,
    scaled: Mat,
    vt: Mat,
}

impl Default for PinvWork {
    fn default() -> Self {
        let z = || Mat::zeros(0, 0);
        PinvWork { m: z(), eig: EigH { values: Vec::new(), vectors: z() }, scaled: z(), vt: z() }
    }
}

/// Computes the pseudoinverse of a symmetric matrix.
///
/// Eigenvalues with magnitude below `rcond * max|eigenvalue|` are treated
/// as zero and excluded from the inverse, matching LAPACK `pinv` semantics.
///
/// # Panics
/// Panics if `h` is not square, contains non-finite entries, or the
/// eigensolver fails; fallible callers should use [`try_pinv_gram`].
pub fn pinv_sym(h: &Mat, rcond: f64) -> Mat {
    let e = jacobi_eigh(h);
    let wmax = e.values.iter().fold(0.0_f64, |m, &w| m.max(w.abs()));
    let cutoff = rcond * wmax;
    spectral_apply(&e, |w| if w.abs() > cutoff { 1.0 / w } else { 0.0 })
}

/// Solves the CP-ALS normal equations `U = M * pinv(H)` with the default
/// truncation threshold.
///
/// `m` is the tall-skinny MTTKRP result (`I_n x R`), `h` the `R x R`
/// Hadamard-of-Grams matrix. The returned matrix has the shape of `m`.
///
/// # Panics
/// Panics on non-finite or non-square `h` (see [`pinv_sym`]); resilient
/// solvers use [`try_pinv_gram`] or [`ridge_inv_gram`] instead.
pub fn solve_gram(m: &Mat, h: &Mat) -> Mat {
    m.matmul(&pinv_sym(h, PINV_RCOND))
}

/// The pseudoinverse [`solve_gram`] applies, with spectral diagnostics,
/// for solvers that apply it themselves (the CP sweep's fused update,
/// [`crate::update::solve_into`]).
///
/// Fails (instead of panicking or emitting NaN) when `h` is non-square or
/// non-finite, or when the eigensolver exhausts its sweep cap. The
/// [`GramSolveInfo`] comes from the eigenvalues the pseudoinverse computed
/// anyway, so the condition estimate costs nothing extra.
pub fn try_pinv_gram(h: &Mat) -> Result<(Mat, GramSolveInfo), LinalgError> {
    let mut pinv = Mat::zeros(0, 0);
    let info = try_pinv_gram_into(h, &mut PinvWork::default(), &mut pinv)?;
    Ok((pinv, info))
}

/// [`try_pinv_gram`] into `out`, over a caller-owned workspace: the same
/// bits, and no allocation once `work` and `out` have held an `R x R`
/// problem. On `Err`, `out` is unspecified.
pub fn try_pinv_gram_into(
    h: &Mat,
    work: &mut PinvWork,
    out: &mut Mat,
) -> Result<GramSolveInfo, LinalgError> {
    try_jacobi_eigh_into(h, &mut work.m, &mut work.eig)?;
    let e = &work.eig;
    let wmax = e.values.iter().fold(0.0_f64, |mx, &w| mx.max(w.abs()));
    let cutoff = PINV_RCOND * wmax;
    let info = spectral_info(e, cutoff);
    let f = |w: f64| if w.abs() > cutoff { 1.0 / w } else { 0.0 };
    spectral_apply_into(e, f, &mut work.scaled, &mut work.vt, out);
    Ok(info)
}

/// Tikhonov-regularized Gram inverse `(H + ridge I)^-1`, which a solver
/// applies as `U = M * (H + ridge I)^-1`.
///
/// The recovery policy for a degenerate Gram system: adding `ridge > 0`
/// to the diagonal moves every eigenvalue away from zero, so the solve is
/// well-posed even when `H` is exactly singular. Implemented on the same
/// eigendecomposition as the pseudoinverse (`H + ridge I` shares `H`'s
/// eigenvectors, with eigenvalues `w_i + ridge`).
///
/// Fails when `ridge` is not finite and positive, when `h` is non-square
/// or non-finite, or when the eigensolver exhausts its sweep cap.
pub fn ridge_inv_gram(h: &Mat, ridge: f64) -> Result<Mat, LinalgError> {
    if !ridge.is_finite() || ridge <= 0.0 {
        return Err(LinalgError::NonFinite { what: "ridge parameter (must be finite and > 0)" });
    }
    let e = try_jacobi_eigh(h)?;
    // H is PSD in exact arithmetic; clamp tiny negative rounding so the
    // shifted eigenvalue can never cancel to zero.
    Ok(spectral_apply(&e, |w| 1.0 / (w.max(0.0) + ridge)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_spd(n: usize, seed: u64) -> Mat {
        // A^T A + small diagonal shift is comfortably SPD.
        let a = Mat::random(2 * n, n, seed);
        let mut g = a.gram();
        for i in 0..n {
            let v = g.get(i, i) + 0.1;
            g.set(i, i, v);
        }
        g
    }

    #[test]
    fn pinv_of_invertible_is_inverse() {
        for seed in 0..4u64 {
            let h = random_spd(6, seed);
            let p = pinv_sym(&h, PINV_RCOND);
            let id = h.matmul(&p);
            assert!(id.max_abs_diff(&Mat::eye(6)) < 1e-8, "seed {seed}");
        }
    }

    #[test]
    fn pinv_satisfies_penrose_conditions_on_singular_matrix() {
        // Rank-1 symmetric matrix.
        let u = [1.0, -2.0, 0.5];
        let mut h = Mat::zeros(3, 3);
        for i in 0..3 {
            for j in 0..3 {
                h.set(i, j, u[i] * u[j]);
            }
        }
        let p = pinv_sym(&h, PINV_RCOND);
        // H P H = H
        assert!(h.matmul(&p).matmul(&h).max_abs_diff(&h) < 1e-10);
        // P H P = P
        assert!(p.matmul(&h).matmul(&p).max_abs_diff(&p) < 1e-10);
        // (HP)^T = HP (symmetry)
        let hp = h.matmul(&p);
        assert!(hp.transpose().max_abs_diff(&hp) < 1e-10);
    }

    #[test]
    fn pinv_of_identity_is_identity() {
        let p = pinv_sym(&Mat::eye(4), PINV_RCOND);
        assert!(p.max_abs_diff(&Mat::eye(4)) < 1e-12);
    }

    #[test]
    fn solve_gram_recovers_exact_solution() {
        // If M = U_true * H, solving should return U_true (H invertible).
        let h = random_spd(5, 11);
        let u_true = Mat::random(40, 5, 12);
        let m = u_true.matmul(&h);
        let u = solve_gram(&m, &h);
        assert!(u.max_abs_diff(&u_true) < 1e-7);
    }

    #[test]
    fn pinv_zero_matrix_is_zero() {
        let z = Mat::zeros(3, 3);
        let p = pinv_sym(&z, PINV_RCOND);
        assert!(p.max_abs_diff(&z) < 1e-15);
    }

    #[test]
    fn try_pinv_matches_infallible_pinv_and_reports_full_rank() {
        let h = random_spd(5, 21);
        let (p, info) = try_pinv_gram(&h).unwrap();
        assert!(p.max_abs_diff(&pinv_sym(&h, PINV_RCOND)) < 1e-14);
        let m = Mat::random(30, 5, 22);
        assert!(m.matmul(&p).max_abs_diff(&solve_gram(&m, &h)) < 1e-14);
        assert_eq!(info.truncated, 0);
        assert!(!info.rank_deficient());
        assert!(info.cond().is_finite() && info.cond() >= 1.0);
    }

    #[test]
    fn try_pinv_flags_singular_gram() {
        // Rank-1 Gram: two of three eigenvalues truncated.
        let u = [1.0, -2.0, 0.5];
        let mut h = Mat::zeros(3, 3);
        for i in 0..3 {
            for j in 0..3 {
                h.set(i, j, u[i] * u[j]);
            }
        }
        let (_, info) = try_pinv_gram(&h).unwrap();
        assert_eq!(info.truncated, 2);
        assert!(info.rank_deficient());
        assert!(info.cond().is_infinite() || info.cond() > 1e12);
    }

    #[test]
    fn gram_inverses_reject_non_finite_and_non_square_grams() {
        let h = random_spd(3, 1);
        let mut bad_h = h.clone();
        bad_h.set(0, 2, f64::INFINITY);
        bad_h.set(2, 0, f64::INFINITY);
        assert!(matches!(try_pinv_gram(&bad_h), Err(LinalgError::NonFinite { .. })));
        assert!(matches!(ridge_inv_gram(&bad_h, 1e-6), Err(LinalgError::NonFinite { .. })));
        let mut nan_h = h.clone();
        nan_h.set(1, 1, f64::NAN);
        assert!(matches!(try_pinv_gram(&nan_h), Err(LinalgError::NonFinite { .. })));
        let rect = Mat::random(3, 4, 3);
        assert!(matches!(try_pinv_gram(&rect), Err(LinalgError::NotSquare { .. })));
        assert!(matches!(ridge_inv_gram(&rect, 1e-6), Err(LinalgError::NotSquare { .. })));
    }

    #[test]
    fn ridge_inverse_handles_exactly_singular_gram() {
        // H = u u^T is singular; the ridge solve must still return finite
        // factors close to the least-squares solution.
        let u = [2.0, 1.0, -1.0];
        let mut h = Mat::zeros(3, 3);
        for i in 0..3 {
            for j in 0..3 {
                h.set(i, j, u[i] * u[j]);
            }
        }
        let m = Mat::random(12, 3, 8);
        let sol = m.matmul(&ridge_inv_gram(&h, 1e-6).unwrap());
        assert!(sol.is_finite());
        // On a consistent system (RHS in the range of H) the ridge
        // solution approaches the pseudoinverse solution as ridge -> 0.
        let consistent = Mat::random(12, 3, 9).matmul(&h);
        let pinv_sol = solve_gram(&consistent, &h);
        let tight = consistent.matmul(&ridge_inv_gram(&h, 1e-8).unwrap());
        assert!(tight.max_abs_diff(&pinv_sol) < 1e-4);
    }

    #[test]
    fn ridge_inverse_matches_plain_solve_when_well_conditioned() {
        let h = random_spd(4, 31);
        let m = Mat::random(20, 4, 32);
        let plain = solve_gram(&m, &h);
        let ridged = m.matmul(&ridge_inv_gram(&h, 1e-14).unwrap());
        assert!(ridged.max_abs_diff(&plain) < 1e-8);
    }

    #[test]
    fn ridge_inverse_rejects_bad_ridge() {
        let h = random_spd(3, 5);
        assert!(ridge_inv_gram(&h, 0.0).is_err());
        assert!(ridge_inv_gram(&h, f64::NAN).is_err());
        assert!(ridge_inv_gram(&h, -1.0).is_err());
    }
}
