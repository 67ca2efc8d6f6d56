//! Cyclic Jacobi eigensolver for small symmetric matrices.
//!
//! The only eigendecomposition CP-ALS needs is of the `R x R` Hadamard
//! product of Gram matrices, with `R` typically below 64. At that scale the
//! classic cyclic Jacobi method is simple, numerically robust (it computes
//! small eigenvalues with high relative accuracy, which matters because the
//! pseudoinverse truncates them), and fast enough to be invisible next to
//! the MTTKRP.

use crate::mat::Mat;
use crate::LinalgError;

/// Result of a symmetric eigendecomposition `A = V diag(w) V^T`.
#[derive(Clone, Debug)]
pub struct EigH {
    /// Eigenvalues, in the order produced by the sweep (not sorted).
    pub values: Vec<f64>,
    /// Orthonormal eigenvectors, one per **column** of `vectors`.
    pub vectors: Mat,
}

/// Maximum number of full Jacobi sweeps before giving up.
///
/// Cyclic Jacobi on the `R x R` matrices CP-ALS produces converges in a
/// handful of sweeps; the cap exists so hostile input (or a bug upstream)
/// can never spin the solver — hitting it is surfaced as
/// [`LinalgError::NoConvergence`] by [`try_jacobi_eigh`].
const MAX_SWEEPS: usize = 64;

/// Computes the eigendecomposition of a symmetric matrix by cyclic Jacobi
/// rotations.
///
/// Convergence is declared when the off-diagonal Frobenius norm falls below
/// `1e-14` times the matrix Frobenius norm. Symmetry is taken on trust: only
/// the upper triangle is read when choosing rotations.
///
/// This is the infallible wrapper kept for callers that control their
/// input (benchmarks, tests); solver drivers should prefer
/// [`try_jacobi_eigh`], which reports non-finite input and sweep-cap
/// exhaustion as typed errors instead of panicking.
///
/// # Panics
/// Panics if `a` is not square, contains non-finite entries, or the sweep
/// cap is exhausted.
pub fn jacobi_eigh(a: &Mat) -> EigH {
    try_jacobi_eigh(a).unwrap_or_else(|e| panic!("jacobi_eigh: {e}"))
}

/// Fallible [`jacobi_eigh`]: rejects non-square and non-finite input and
/// surfaces sweep-cap exhaustion instead of returning silent garbage.
///
/// The non-finite pre-check matters: NaN anywhere in the input makes every
/// rotation angle NaN, so without it the solver would burn all
/// [`MAX_SWEEPS`] sweeps and hand back an all-NaN "decomposition" that
/// poisons everything downstream.
pub fn try_jacobi_eigh(a: &Mat) -> Result<EigH, LinalgError> {
    let mut e = EigH { values: Vec::new(), vectors: Mat::zeros(0, 0) };
    try_jacobi_eigh_into(a, &mut Mat::zeros(0, 0), &mut e)?;
    Ok(e)
}

/// [`try_jacobi_eigh`] into `out`, with `m` as the rotated working copy
/// of `a`: the same rotations and bits, and no allocation once the
/// buffers have held an `n x n` problem.
pub fn try_jacobi_eigh_into(a: &Mat, m: &mut Mat, out: &mut EigH) -> Result<(), LinalgError> {
    if a.nrows() != a.ncols() {
        return Err(LinalgError::NotSquare { nrows: a.nrows(), ncols: a.ncols() });
    }
    if !a.is_finite() {
        return Err(LinalgError::NonFinite { what: "eigensolver input matrix" });
    }
    let n = a.nrows();
    m.copy_from(a);
    let v = &mut out.vectors;
    v.reshape(n, n);
    v.fill_zero();
    for i in 0..n {
        v.set(i, i, 1.0);
    }
    let diagonal = |m: &Mat, values: &mut Vec<f64>| {
        values.clear();
        values.extend((0..n).map(|i| m.get(i, i)));
    };
    if n <= 1 {
        diagonal(m, &mut out.values);
        return Ok(());
    }
    let total_norm = m.fro_norm().max(f64::MIN_POSITIVE);
    let tol = 1e-14 * total_norm;
    let mut off_norm = 0.0;

    for _sweep in 0..=MAX_SWEEPS {
        let mut off = 0.0;
        for p in 0..n {
            for q in (p + 1)..n {
                off += m.get(p, q).powi(2);
            }
        }
        off_norm = (2.0 * off).sqrt();
        if off_norm <= tol {
            diagonal(m, &mut out.values);
            return Ok(());
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m.get(p, q);
                if apq.abs() <= tol / (n as f64) {
                    continue;
                }
                let app = m.get(p, p);
                let aqq = m.get(q, q);
                // Stable computation of the rotation angle (Golub & Van Loan).
                let theta = (aqq - app) / (2.0 * apq);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                // Apply the rotation J(p, q, theta): M <- J^T M J, V <- V J.
                for k in 0..n {
                    let mkp = m.get(k, p);
                    let mkq = m.get(k, q);
                    m.set(k, p, c * mkp - s * mkq);
                    m.set(k, q, s * mkp + c * mkq);
                }
                for k in 0..n {
                    let mpk = m.get(p, k);
                    let mqk = m.get(q, k);
                    m.set(p, k, c * mpk - s * mqk);
                    m.set(q, k, s * mpk + c * mqk);
                }
                for k in 0..n {
                    let vkp = v.get(k, p);
                    let vkq = v.get(k, q);
                    v.set(k, p, c * vkp - s * vkq);
                    v.set(k, q, s * vkp + c * vkq);
                }
            }
        }
    }

    Err(LinalgError::NoConvergence { sweeps: MAX_SWEEPS, off_norm })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reconstruct(e: &EigH) -> Mat {
        let n = e.values.len();
        let mut d = Mat::zeros(n, n);
        for (i, &w) in e.values.iter().enumerate() {
            d.set(i, i, w);
        }
        e.vectors.matmul(&d).matmul(&e.vectors.transpose())
    }

    fn random_sym(n: usize, seed: u64) -> Mat {
        let a = Mat::random(n, n, seed);
        let mut s = a.clone();
        let at = a.transpose();
        for i in 0..n {
            for j in 0..n {
                s.set(i, j, 0.5 * (a.get(i, j) + at.get(i, j)));
            }
        }
        s
    }

    #[test]
    fn diagonal_matrix_is_its_own_decomposition() {
        let mut a = Mat::zeros(3, 3);
        a.set(0, 0, 2.0);
        a.set(1, 1, -1.0);
        a.set(2, 2, 5.0);
        let e = jacobi_eigh(&a);
        let mut w = e.values.clone();
        w.sort_by(f64::total_cmp);
        assert!((w[0] + 1.0).abs() < 1e-12);
        assert!((w[1] - 2.0).abs() < 1e-12);
        assert!((w[2] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn known_2x2() {
        // [[2, 1], [1, 2]] has eigenvalues 1 and 3.
        let a = Mat::from_vec(2, 2, vec![2.0, 1.0, 1.0, 2.0]);
        let e = jacobi_eigh(&a);
        let mut w = e.values.clone();
        w.sort_by(f64::total_cmp);
        assert!((w[0] - 1.0).abs() < 1e-12);
        assert!((w[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn reconstruction_and_orthonormality_random() {
        for seed in 0..5u64 {
            let a = random_sym(8, seed);
            let e = jacobi_eigh(&a);
            assert!(reconstruct(&e).max_abs_diff(&a) < 1e-10, "seed {seed}");
            let vtv = e.vectors.transpose().matmul(&e.vectors);
            assert!(vtv.max_abs_diff(&Mat::eye(8)) < 1e-10, "seed {seed}");
        }
    }

    #[test]
    fn gram_matrices_have_nonnegative_eigenvalues() {
        let u = Mat::random(50, 6, 9);
        let g = u.gram();
        let e = jacobi_eigh(&g);
        for &w in &e.values {
            assert!(w > -1e-10, "eigenvalue {w} should be >= 0 for a Gram matrix");
        }
    }

    #[test]
    fn handles_1x1_and_empty() {
        let a = Mat::from_vec(1, 1, vec![4.0]);
        let e = jacobi_eigh(&a);
        assert_eq!(e.values, vec![4.0]);
        let z = Mat::zeros(0, 0);
        let e = jacobi_eigh(&z);
        assert!(e.values.is_empty());
    }

    #[test]
    fn try_eigh_rejects_non_finite_input() {
        let mut a = Mat::eye(3);
        a.set(1, 2, f64::NAN);
        a.set(2, 1, f64::NAN);
        assert!(matches!(try_jacobi_eigh(&a), Err(LinalgError::NonFinite { .. })));
        a.set(1, 2, f64::INFINITY);
        a.set(2, 1, f64::INFINITY);
        assert!(matches!(try_jacobi_eigh(&a), Err(LinalgError::NonFinite { .. })));
    }

    #[test]
    fn try_eigh_rejects_non_square() {
        let a = Mat::zeros(2, 3);
        assert!(matches!(try_jacobi_eigh(&a), Err(LinalgError::NotSquare { nrows: 2, ncols: 3 })));
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn infallible_eigh_panics_loudly_on_nan() {
        let mut a = Mat::eye(2);
        a.set(0, 0, f64::NAN);
        let _ = jacobi_eigh(&a);
    }

    #[test]
    fn rank_deficient_matrix_has_zero_eigenvalue() {
        // Outer product u u^T has rank 1.
        let u = [1.0, 2.0, 3.0];
        let mut a = Mat::zeros(3, 3);
        for i in 0..3 {
            for j in 0..3 {
                a.set(i, j, u[i] * u[j]);
            }
        }
        let e = jacobi_eigh(&a);
        let mut w = e.values.clone();
        w.sort_by(f64::total_cmp);
        assert!(w[0].abs() < 1e-12);
        assert!(w[1].abs() < 1e-12);
        assert!((w[2] - 14.0).abs() < 1e-10);
    }
}
