//! Sparse Tucker decomposition (HOOI) on chained semi-sparse TTMs.
//!
//! The dimension-tree papers name Tucker as the sibling application of
//! memoized tensor-times-matrix chains; this module provides the
//! higher-order orthogonal iteration (HOOI) for sparse tensors at small
//! multilinear ranks, built on [`ttm_chain_all_but`]: each subiteration
//! contracts the tensor with every factor except mode `n` (a semi-sparse
//! tensor with dense width `prod_{d != n} R_d`), then takes the leading
//! left singular vectors of its mode-`n` matricization via the small
//! `K x K` Gram eigenproblem (`K = prod R_d`, so the cost stays
//! `O(I_n K)` even for huge mode sizes).
//!
//! HOOI stays outside the one CP sweep loop of [`crate::cpals`]: it runs
//! on TTM chains and an eigensolver, not on MTTKRP outputs and a CP
//! factor update.

use adatm_linalg::{jacobi_eigh, thin_qr, Mat};
use adatm_tensor::semisparse::ttm_chain_all_but;
use adatm_tensor::SparseTensor;

/// Options for a HOOI run.
#[derive(Clone, Debug)]
pub struct TuckerOptions {
    /// Multilinear ranks, one per mode. Keep `prod(ranks)` modest (it is
    /// the dense fiber width of the intermediate chains).
    pub ranks: Vec<usize>,
    /// Maximum outer iterations.
    pub max_iters: usize,
    /// Convergence tolerance on the change in fit.
    pub tol: f64,
    /// Initialization seed.
    pub seed: u64,
}

impl TuckerOptions {
    /// Defaults: 25 iterations, tolerance `1e-6`, seed 0.
    pub fn new(ranks: Vec<usize>) -> Self {
        assert!(!ranks.is_empty() && ranks.iter().all(|&r| r > 0), "ranks must be positive");
        TuckerOptions { ranks, max_iters: 25, tol: 1e-6, seed: 0 }
    }

    /// Sets the iteration cap.
    pub fn max_iters(mut self, iters: usize) -> Self {
        self.max_iters = iters;
        self
    }

    /// Sets the fit-change tolerance (0 disables early stop).
    pub fn tol(mut self, tol: f64) -> Self {
        self.tol = tol;
        self
    }

    /// Sets the initialization seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// A Tucker model: orthonormal factors plus a small dense core.
#[derive(Clone, Debug)]
pub struct TuckerModel {
    /// Orthonormal factor matrices, `I_n x R_n`.
    pub factors: Vec<Mat>,
    /// Core dimensions (`= ranks`).
    pub core_dims: Vec<usize>,
    /// Core values, addressed via [`TuckerModel::core_get`].
    core: Vec<f64>,
}

impl TuckerModel {
    /// Core element at multilinear index `r` (`r.len() == ndim`).
    pub fn core_get(&self, r: &[usize]) -> f64 {
        self.core[self.core_offset(r)]
    }

    fn core_offset(&self, r: &[usize]) -> usize {
        assert_eq!(r.len(), self.core_dims.len());
        // Layout: mode 0 is the slowest axis; the remaining axes are laid
        // out descending by mode id (the fiber layout of the TTM chain).
        let mut off = r[0];
        for d in (1..self.core_dims.len()).rev() {
            debug_assert!(r[d] < self.core_dims[d]);
            off = off * self.core_dims[d] + r[d];
        }
        off
    }

    /// Frobenius norm of the core (equals the model norm, factors being
    /// orthonormal).
    pub fn core_norm(&self) -> f64 {
        self.core.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Model value at a full coordinate:
    /// `sum_r core(r) prod_d U^(d)(i_d, r_d)`.
    pub fn predict(&self, coords: &[usize]) -> f64 {
        let n = self.core_dims.len();
        assert_eq!(coords.len(), n);
        let mut r = vec![0usize; n];
        let mut total = 0.0;
        loop {
            let mut p = self.core_get(&r);
            if p != 0.0 {
                for (d, f) in self.factors.iter().enumerate() {
                    p *= f.get(coords[d], r[d]);
                }
                total += p;
            }
            // Odometer over the core indices.
            let mut d = n;
            loop {
                if d == 0 {
                    return total;
                }
                d -= 1;
                r[d] += 1;
                if r[d] < self.core_dims[d] {
                    break;
                }
                r[d] = 0;
            }
        }
    }
}

/// Result of a HOOI run.
#[derive(Clone, Debug)]
pub struct TuckerResult {
    /// The decomposition.
    pub model: TuckerModel,
    /// Completed iterations.
    pub iters: usize,
    /// Fit (`1 - ||X - M|| / ||X||`) after each iteration, via the
    /// orthonormal-core identity `||X - M||² = ||X||² - ||core||²`.
    pub fit_history: Vec<f64>,
    /// Whether the tolerance stop fired.
    pub converged: bool,
}

impl TuckerResult {
    /// Fit after the final iteration.
    pub fn final_fit(&self) -> f64 {
        self.fit_history.last().copied().unwrap_or(0.0)
    }
}

/// Runs HOOI on a sparse tensor.
///
/// # Panics
/// Panics if `ranks` does not match the tensor order or any rank exceeds
/// its mode size.
pub fn hooi(tensor: &SparseTensor, opts: &TuckerOptions) -> TuckerResult {
    let n = tensor.ndim();
    assert!(n >= 2, "Tucker needs at least 2 modes");
    assert_eq!(opts.ranks.len(), n, "one rank per mode required");
    for (d, (&r, &size)) in opts.ranks.iter().zip(tensor.dims().iter()).enumerate() {
        assert!(r <= size, "rank {r} exceeds mode {d} size {size}");
    }
    // Orthonormal random initialization.
    let mut factors: Vec<Mat> = tensor
        .dims()
        .iter()
        .zip(opts.ranks.iter())
        .enumerate()
        .map(|(d, (&rows, &r))| thin_qr(&Mat::random(rows, r, opts.seed ^ (0x70c + d as u64))).q)
        .collect();
    let xnorm = tensor.fro_norm();
    let mut fit_history = Vec::new();
    let mut converged = false;
    let mut iters = 0;

    for _iter in 0..opts.max_iters {
        for mode in 0..n {
            let refs: Vec<&Mat> = factors.iter().collect();
            let y = ttm_chain_all_but(tensor, mode, &refs);
            // Dense mode-n matricization Z (I_n x K): tuple fibers scatter
            // into rows (each tuple has a distinct mode-n index).
            let k = y.dense_width();
            let mut z = Mat::zeros(tensor.dims()[mode], k);
            for e in 0..y.nnz() {
                z.row_mut(y.idx[0][e] as usize).copy_from_slice(y.fiber(e));
            }
            factors[mode] = leading_left_singular(&z, opts.ranks[mode], opts.seed);
        }
        // Core and fit.
        let core = compute_core(tensor, &factors);
        let cnorm2: f64 = core.iter().map(|x| x * x).sum();
        let resid2 = (xnorm * xnorm - cnorm2).max(0.0);
        let fit = if xnorm > 0.0 { 1.0 - resid2.sqrt() / xnorm } else { 0.0 };
        iters += 1;
        let prev = fit_history.last().copied();
        fit_history.push(fit);
        if let Some(p) = prev {
            if opts.tol > 0.0 && (fit - p).abs() < opts.tol {
                converged = true;
                break;
            }
        }
    }

    let core = compute_core(tensor, &factors);
    TuckerResult {
        model: TuckerModel { factors, core_dims: opts.ranks.clone(), core },
        iters,
        fit_history,
        converged,
    }
}

/// Leading `r` left singular vectors of a tall matrix `z` (`m x k`,
/// `k` small) via the `k x k` Gram eigenproblem: `z = U S V^T` with
/// `V, S²` from `eig(z^T z)` and `U = z V S^{-1}`.
fn leading_left_singular(z: &Mat, r: usize, seed: u64) -> Mat {
    let k = z.ncols();
    assert!(r <= k, "rank exceeds chain width");
    let g = z.gram();
    let e = jacobi_eigh(&g);
    let mut order: Vec<usize> = (0..k).collect();
    order.sort_by(|&a, &b| e.values[b].total_cmp(&e.values[a]));
    let mut u = Mat::zeros(z.nrows(), r);
    let scale = e.values[order[0]].max(0.0);
    for (col, &j) in order.iter().take(r).enumerate() {
        let lam = e.values[j].max(0.0);
        if lam > 1e-14 * scale.max(1e-300) && lam > 0.0 {
            let inv = 1.0 / lam.sqrt();
            // u(:, col) = z * v_j / sigma_j
            for row in 0..z.nrows() {
                let mut acc = 0.0;
                let zrow = z.row(row);
                for (c, &zv) in zrow.iter().enumerate() {
                    acc += zv * e.vectors.get(c, j);
                }
                u.set(row, col, acc * inv);
            }
        } else {
            // Deficient direction: fill with a random vector orthogonal
            // enough for HOOI to proceed, then rely on the next sweep.
            let fill = Mat::random(z.nrows(), 1, seed ^ 0xce11 ^ col as u64);
            for row in 0..z.nrows() {
                u.set(row, col, fill.get(row, 0));
            }
        }
    }
    // Re-orthonormalize (cheap; also fixes any random backfill).
    thin_qr(&u).q
}

/// The dense core `X x_0 U_0^T x_1 U_1^T ...`, in the layout documented
/// on [`TuckerModel::core_get`].
fn compute_core(tensor: &SparseTensor, factors: &[Mat]) -> Vec<f64> {
    let refs: Vec<&Mat> = factors.iter().collect();
    let y = ttm_chain_all_but(tensor, 0, &refs);
    let k = y.dense_width();
    let r0 = factors[0].ncols();
    let mut core = vec![0.0; r0 * k];
    for e in 0..y.nnz() {
        let urow = factors[0].row(y.idx[0][e] as usize);
        let fiber = y.fiber(e);
        for (r, &uv) in urow.iter().enumerate() {
            if uv == 0.0 {
                continue;
            }
            let block = &mut core[r * k..(r + 1) * k];
            for (c, &f) in block.iter_mut().zip(fiber.iter()) {
                *c += uv * f;
            }
        }
    }
    core
}

#[cfg(test)]
mod tests {
    use super::*;
    use adatm_tensor::coo::Idx;
    use adatm_tensor::gen::zipf_tensor;

    /// Builds a dense tensor with exact multilinear rank `ranks` from a
    /// random core and orthonormal factors, stored as COO over all cells.
    fn low_multilinear_rank(dims: &[usize], ranks: &[usize], seed: u64) -> SparseTensor {
        let factors: Vec<Mat> = dims
            .iter()
            .zip(ranks.iter())
            .enumerate()
            .map(|(d, (&n, &r))| thin_qr(&Mat::random(n, r, seed + d as u64)).q)
            .collect();
        let core_len: usize = ranks.iter().product();
        let core = Mat::random(1, core_len, seed ^ 0xc0de).into_vec();
        let n = dims.len();
        let cells: usize = dims.iter().product();
        let mut inds: Vec<Vec<Idx>> = vec![Vec::with_capacity(cells); n];
        let mut vals = Vec::with_capacity(cells);
        let mut coords = vec![0usize; n];
        for _ in 0..cells {
            let mut v = 0.0;
            let mut r = vec![0usize; n];
            'core: loop {
                let mut off = 0;
                for (d, &rd) in r.iter().enumerate() {
                    off = off * ranks[d] + rd;
                }
                let mut p = core[off];
                for (d, f) in factors.iter().enumerate() {
                    p *= f.get(coords[d], r[d]);
                }
                v += p;
                let mut d = n;
                loop {
                    if d == 0 {
                        break 'core;
                    }
                    d -= 1;
                    r[d] += 1;
                    if r[d] < ranks[d] {
                        break;
                    }
                    r[d] = 0;
                }
            }
            for (col, &c) in inds.iter_mut().zip(coords.iter()) {
                col.push(c as Idx);
            }
            vals.push(v);
            for d in (0..n).rev() {
                coords[d] += 1;
                if coords[d] < dims[d] {
                    break;
                }
                coords[d] = 0;
            }
        }
        SparseTensor::new(dims.to_vec(), inds, vals)
    }

    #[test]
    fn hooi_recovers_exact_multilinear_rank_tensor() {
        let t = low_multilinear_rank(&[8, 9, 7], &[2, 3, 2], 5);
        let res = hooi(&t, &TuckerOptions::new(vec![2, 3, 2]).max_iters(30).seed(1));
        assert!(res.final_fit() > 0.999, "fit {}", res.final_fit());
    }

    #[test]
    fn factors_are_orthonormal() {
        let t = zipf_tensor(&[20, 15, 18], 600, &[0.5; 3], 9);
        let res = hooi(&t, &TuckerOptions::new(vec![3, 2, 3]).max_iters(5).tol(0.0));
        for (d, f) in res.model.factors.iter().enumerate() {
            let g = f.gram();
            assert!(g.max_abs_diff(&Mat::eye(f.ncols())) < 1e-8, "mode {d} not orthonormal");
        }
    }

    #[test]
    fn core_norm_bounded_by_tensor_norm() {
        let t = zipf_tensor(&[12, 10, 14, 8], 300, &[0.6; 4], 3);
        let res = hooi(&t, &TuckerOptions::new(vec![2, 2, 2, 2]).max_iters(4).tol(0.0));
        assert!(res.model.core_norm() <= t.fro_norm() + 1e-9);
    }

    #[test]
    fn fit_matches_explicit_reconstruction_on_tiny_tensor() {
        let t = low_multilinear_rank(&[5, 4, 6], &[2, 2, 2], 8);
        let res = hooi(&t, &TuckerOptions::new(vec![2, 2, 2]).max_iters(20).seed(2));
        // Explicit residual.
        let mut resid2 = 0.0;
        for k in 0..t.nnz() {
            let coords: Vec<usize> = (0..3).map(|d| t.mode_idx(d)[k] as usize).collect();
            let diff = t.vals()[k] - res.model.predict(&coords);
            resid2 += diff * diff;
        }
        let explicit_fit = 1.0 - resid2.sqrt() / t.fro_norm();
        assert!(
            (explicit_fit - res.final_fit()).abs() < 1e-6,
            "identity fit {} vs explicit {explicit_fit}",
            res.final_fit()
        );
    }

    #[test]
    fn fit_history_is_essentially_monotone() {
        let t = zipf_tensor(&[15, 12, 10], 500, &[0.7; 3], 4);
        let res = hooi(&t, &TuckerOptions::new(vec![3, 3, 3]).max_iters(10).tol(0.0));
        for w in res.fit_history.windows(2) {
            assert!(w[1] >= w[0] - 1e-8, "fit regressed: {} -> {}", w[0], w[1]);
        }
    }

    #[test]
    #[should_panic(expected = "exceeds mode")]
    fn hooi_rejects_oversized_ranks() {
        let t = zipf_tensor(&[4, 4, 4], 20, &[0.3; 3], 1);
        let _ = hooi(&t, &TuckerOptions::new(vec![5, 2, 2]));
    }
}
