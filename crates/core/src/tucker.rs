//! Sparse Tucker decomposition (HOOI).
//!
//! The dimension-tree papers name Tucker as the sibling application of
//! memoized tensor-times-matrix chains; this module provides the
//! higher-order orthogonal iteration (HOOI) for sparse tensors at small
//! multilinear ranks. Each subiteration forms the mode-`n` unfolding of
//! the tensor times every other factor, `Z_n = X_(n) (⊗_{d≠n} U_d)`
//! (`I_n x K`, `K = prod_{d != n} R_d`), in one pass over the COO entries,
//! then takes the leading left singular vectors of `Z_n` via the small
//! `K x K` Gram eigenproblem, so the cost stays `O(I_n K)` even for huge
//! mode sizes.
//!
//! HOOI stays outside the one CP sweep loop of [`crate::cpals`]: it runs
//! on unfoldings and an eigensolver, not on MTTKRP outputs and a CP
//! factor update. It shares the drivers' input check and error type
//! ([`crate::error`]).

use crate::error::{check_input, CpAlsError};
use adatm_linalg::kernels::axpy;
use adatm_linalg::{thin_qr, try_jacobi_eigh, LinalgError, Mat};
use adatm_tensor::{SortedModeView, SparseTensor};

/// Options for a HOOI run.
#[derive(Clone, Debug)]
pub struct TuckerOptions {
    /// Multilinear ranks, one per mode. Keep `prod(ranks)` modest (it is
    /// the width of each mode's unfolding).
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
    ///
    /// Ranks that do not fit the tensor are rejected when [`hooi`] runs.
    pub fn new(ranks: Vec<usize>) -> Self {
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
        // Layout: mode 0 is the slowest axis; the remaining axes follow
        // descending by mode id (the column layout of an unfolding).
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
/// Returns [`CpAlsError`] when the ranks do not fit the tensor (one rank
/// per mode, each between 1 and its mode's size), the tensor has fewer
/// than two modes or a non-finite value, or the eigensolver fails on an
/// overflowed unfolding ([`CpAlsError::Linalg`]).
pub fn hooi(tensor: &SparseTensor, opts: &TuckerOptions) -> Result<TuckerResult, CpAlsError> {
    let n = tensor.ndim();
    if opts.ranks.len() != n {
        return Err(CpAlsError::RankCountMismatch { ndim: n, ranks: opts.ranks.len() });
    }
    check_input(tensor, opts.ranks.iter().copied().min().unwrap_or(0))?;
    for (mode, (&rank, &size)) in opts.ranks.iter().zip(tensor.dims()).enumerate() {
        if rank > size {
            return Err(CpAlsError::RankExceedsMode { mode, rank, size });
        }
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
    let views: Vec<SortedModeView> = (0..n).map(|m| SortedModeView::build(tensor, m)).collect();
    let mut fit_history = Vec::new();
    let mut converged = false;
    let mut iters = 0;
    // Z_0 at the current factors: it gives the core, and it is the next
    // sweep's first unfolding, since no factor moves in between. The other
    // modes' unfoldings share one buffer.
    let (mut z0, mut z) = (Mat::zeros(0, 0), Mat::zeros(0, 0));
    unfold(tensor, &views[0], &factors, &mut z0);
    let mut core = core_of(&factors[0], &z0);

    for _iter in 0..opts.max_iters {
        factors[0] = leading_left_singular(&z0, opts.ranks[0], opts.seed)?;
        for mode in 1..n {
            unfold(tensor, &views[mode], &factors, &mut z);
            factors[mode] = leading_left_singular(&z, opts.ranks[mode], opts.seed)?;
        }
        unfold(tensor, &views[0], &factors, &mut z0);
        core = core_of(&factors[0], &z0);
        let cnorm2: f64 = core.as_slice().iter().map(|x| x * x).sum();
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

    Ok(TuckerResult {
        model: TuckerModel { factors, core_dims: opts.ranks.clone(), core: core.into_vec() },
        iters,
        fit_history,
        converged,
    })
}

/// Writes into `z` the unfolding along `view`'s mode times every other
/// factor, `Z = X_(mode) (⊗_{d != mode} U_d)`: `I_mode x K` with `K =
/// prod_{d != mode} R_d`. `z` is reshaped and zeroed first, so a reused
/// buffer costs no fresh pages.
///
/// Column `c` indexes the other modes' ranks with the highest mode
/// slowest, `c = (r_{d1} R_{d2} + r_{d2}) R_{d3} + ...` for `d1 > d2 >
/// ...`, so `U_0^T Z_0` is the core in the layout
/// [`TuckerModel::core_get`] documents. One pass over the entries: each
/// adds its value times the Kronecker product of its other modes' factor
/// rows into row `i_mode`. The view hands out the entries row by row, so
/// `Z` (tall, and often larger than cache) is written in order. The
/// product grows in one scratch row of `K` values, lowest mode first; the
/// highest mode's factor row scales it straight into `Z`.
fn unfold(tensor: &SparseTensor, view: &SortedModeView, factors: &[Mat], z: &mut Mat) {
    let mode = view.mode();
    let others: Vec<usize> = (0..tensor.ndim()).filter(|&d| d != mode).collect();
    let k: usize = others.iter().map(|&d| factors[d].ncols()).product();
    z.reshape(tensor.dims()[mode], k);
    z.fill_zero();
    let Some((&last, inner)) = others.split_last() else { return };
    let mut kron = vec![0.0; k];
    for e in view.iter().flat_map(|(_, group)| group).map(|&e| e as usize) {
        kron[0] = tensor.vals()[e];
        let mut len = 1;
        for &d in inner {
            // Prepend mode d as the slowest axis: block s of the longer
            // product is row[s] times the current one, block 0 in place.
            let row = factors[d].row(tensor.mode_idx(d)[e] as usize);
            let (cur, rest) = kron[..len * row.len()].split_at_mut(len);
            for (block, &u) in rest.chunks_exact_mut(len).zip(&row[1..]) {
                for (b, &c) in block.iter_mut().zip(cur.iter()) {
                    *b = u * c;
                }
            }
            for c in cur.iter_mut() {
                *c *= row[0];
            }
            len *= row.len();
        }
        let row = factors[last].row(tensor.mode_idx(last)[e] as usize);
        let out = z.row_mut(tensor.mode_idx(mode)[e] as usize);
        for (block, &u) in out.chunks_exact_mut(len).zip(row) {
            for (o, &c) in block.iter_mut().zip(&kron[..len]) {
                *o += u * c;
            }
        }
    }
}

/// The core `U_0^T Z_0` (`R_0 x K`, row-major: the layout
/// [`TuckerModel::core_get`] documents), in one pass over the rows of
/// `Z_0`, which is tall and may not fit in cache. Zero entries of `U_0`
/// are skipped: a mode-0 index with no tensor entry has a zero row in
/// `Z_0`, and so in `U_0` unless a direction was filled at random.
fn core_of(u0: &Mat, z0: &Mat) -> Mat {
    let mut core = Mat::zeros(u0.ncols(), z0.ncols());
    for (urow, zrow) in u0.rows().zip(z0.rows()) {
        for (r, &u) in urow.iter().enumerate().filter(|(_, &u)| u != 0.0) {
            axpy(core.row_mut(r), u, zrow);
        }
    }
    core
}

/// Leading `r` left singular vectors of a tall matrix `z` (`m x k`,
/// `k` small) via the `k x k` Gram eigenproblem: `z = U S V^T` with
/// `V, S²` from `eig(z^T z)` and `U = z V S^{-1}`. Directions past `k`
/// or with a vanishing singular value are filled at random and
/// orthonormalized with the rest.
///
/// `U = z V S^{-1}` is one pass over the rows of `z`: each output row
/// sums `z[c] * v[c]` over the selected eigenvector rows in `c` order
/// from `0.0` (zero entries of `z` add nothing and are skipped), then
/// takes `* (1 / sigma)` per column.
fn leading_left_singular(z: &Mat, r: usize, seed: u64) -> Result<Mat, LinalgError> {
    let g = z.gram();
    let e = try_jacobi_eigh(&g)?;
    let mut order: Vec<usize> = (0..z.ncols()).collect();
    order.sort_by(|&a, &b| e.values[b].total_cmp(&e.values[a]));
    let lam = |j: usize| e.values[j].max(0.0);
    let scale = order.first().map_or(0.0, |&j| lam(j));
    // The selected eigenvectors as the rows of a `k x r` matrix, and the
    // inverse singular values; deficient columns stay zero.
    let mut v = Mat::zeros(z.ncols(), r);
    let mut inv = vec![0.0; r];
    let mut deficient = Vec::new();
    for (col, s) in inv.iter_mut().enumerate() {
        match order.get(col).filter(|&&j| lam(j) > 1e-14 * scale.max(1e-300) && lam(j) > 0.0) {
            Some(&j) => {
                *s = 1.0 / lam(j).sqrt();
                for c in 0..z.ncols() {
                    v.set(c, col, e.vectors.get(c, j));
                }
            }
            None => deficient.push(col),
        }
    }
    let mut u = Mat::zeros(z.nrows(), r);
    for (urow, zrow) in u.as_mut_slice().chunks_exact_mut(r).zip(z.rows()) {
        for (&zv, vrow) in zrow.iter().zip(v.rows()) {
            if zv != 0.0 {
                axpy(urow, zv, vrow);
            }
        }
        for (x, &s) in urow.iter_mut().zip(&inv) {
            *x *= s;
        }
    }
    for col in deficient {
        // Deficient direction: fill with a random vector orthogonal
        // enough for HOOI to proceed, then rely on the next sweep.
        let fill = Mat::random(z.nrows(), 1, seed ^ 0xce11 ^ col as u64);
        for row in 0..z.nrows() {
            u.set(row, col, fill.get(row, 0));
        }
    }
    // Re-orthonormalize (cheap; also fixes any random backfill).
    Ok(thin_qr(&u).q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adatm_tensor::coo::Idx;
    use adatm_tensor::gen::zipf_tensor;
    use adatm_tensor::DenseTensor;

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
        let res = hooi(&t, &TuckerOptions::new(vec![2, 3, 2]).max_iters(30).seed(1)).unwrap();
        assert!(res.final_fit() > 0.999, "fit {}", res.final_fit());
    }

    #[test]
    fn factors_are_orthonormal() {
        let t = zipf_tensor(&[20, 15, 18], 600, &[0.5; 3], 9);
        let res = hooi(&t, &TuckerOptions::new(vec![3, 2, 3]).max_iters(5).tol(0.0)).unwrap();
        for (d, f) in res.model.factors.iter().enumerate() {
            let g = f.gram();
            assert!(g.max_abs_diff(&Mat::eye(f.ncols())) < 1e-8, "mode {d} not orthonormal");
        }
    }

    #[test]
    fn core_norm_bounded_by_tensor_norm() {
        let t = zipf_tensor(&[12, 10, 14, 8], 300, &[0.6; 4], 3);
        let res = hooi(&t, &TuckerOptions::new(vec![2, 2, 2, 2]).max_iters(4).tol(0.0)).unwrap();
        assert!(res.model.core_norm() <= t.fro_norm() + 1e-9);
    }

    #[test]
    fn fit_matches_explicit_reconstruction_on_tiny_tensor() {
        let t = low_multilinear_rank(&[5, 4, 6], &[2, 2, 2], 8);
        let res = hooi(&t, &TuckerOptions::new(vec![2, 2, 2]).max_iters(20).seed(2)).unwrap();
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
        let res = hooi(&t, &TuckerOptions::new(vec![3, 3, 3]).max_iters(10).tol(0.0)).unwrap();
        for w in res.fit_history.windows(2) {
            assert!(w[1] >= w[0] - 1e-8, "fit regressed: {} -> {}", w[0], w[1]);
        }
    }

    #[test]
    fn hooi_rejects_oversized_ranks() {
        let t = zipf_tensor(&[4, 4, 4], 20, &[0.3; 3], 1);
        let err = hooi(&t, &TuckerOptions::new(vec![5, 2, 2])).unwrap_err();
        assert_eq!(err, CpAlsError::RankExceedsMode { mode: 0, rank: 5, size: 4 });
    }

    #[test]
    fn hooi_rejects_bad_input_with_typed_errors() {
        let t = zipf_tensor(&[5, 4, 3], 30, &[0.3; 3], 2);
        let err = hooi(&t, &TuckerOptions::new(vec![0, 2, 2])).unwrap_err();
        assert_eq!(err, CpAlsError::ZeroRank);
        let err = hooi(&t, &TuckerOptions::new(vec![2, 2])).unwrap_err();
        assert_eq!(err, CpAlsError::RankCountMismatch { ndim: 3, ranks: 2 });
        let one_mode = SparseTensor::from_entries(vec![3], &[(vec![0], 1.0), (vec![2], 2.0)]);
        let err = hooi(&one_mode, &TuckerOptions::new(vec![1])).unwrap_err();
        assert_eq!(err, CpAlsError::TooFewModes { ndim: 1 });
        let mut nan = t.clone();
        nan.vals_mut()[3] = f64::NAN;
        let err = hooi(&nan, &TuckerOptions::new(vec![2, 2, 2])).unwrap_err();
        assert_eq!(err, CpAlsError::NonFiniteTensor);
    }

    #[test]
    fn overflowing_unfoldings_are_a_linalg_error() {
        // Finite values whose squares overflow: the Gram of the first
        // unfolding is infinite, which the eigensolver refuses.
        let t = SparseTensor::from_entries(
            vec![2, 2, 2],
            &[(vec![0, 0, 0], 1e308), (vec![1, 1, 1], 1e308)],
        );
        let err = hooi(&t, &TuckerOptions::new(vec![1, 1, 1])).unwrap_err();
        assert!(matches!(err, CpAlsError::Linalg(LinalgError::NonFinite { .. })), "{err:?}");
    }

    #[test]
    fn a_rank_above_the_other_ranks_product_gives_orthonormal_factors() {
        // Mode 0's unfolding has K = 1 column, so only one of its four
        // directions comes from the data; the rest are filled in.
        let t = zipf_tensor(&[5, 4, 3], 30, &[0.3; 3], 6);
        let res = hooi(&t, &TuckerOptions::new(vec![4, 1, 1]).max_iters(3).tol(0.0)).unwrap();
        let f = &res.model.factors[0];
        assert!(f.gram().max_abs_diff(&Mat::eye(4)) < 1e-8);
        assert!(res.final_fit().is_finite());
    }

    /// `U = Z V S^{-1}` one entry at a time: a sum over `c` from `0.0` per
    /// entry, then `* (1 / sigma)`; deficient directions filled as
    /// `leading_left_singular` fills them.
    fn left_singular_per_entry(z: &Mat, r: usize, seed: u64) -> Mat {
        let e = try_jacobi_eigh(&z.gram()).unwrap();
        let mut order: Vec<usize> = (0..z.ncols()).collect();
        order.sort_by(|&a, &b| e.values[b].total_cmp(&e.values[a]));
        let lam = |j: usize| e.values[j].max(0.0);
        let scale = order.first().map_or(0.0, |&j| lam(j));
        let mut u = Mat::zeros(z.nrows(), r);
        for col in 0..r {
            match order.get(col).filter(|&&j| lam(j) > 1e-14 * scale.max(1e-300) && lam(j) > 0.0) {
                Some(&j) => {
                    let inv = 1.0 / lam(j).sqrt();
                    for row in 0..z.nrows() {
                        let mut acc = 0.0;
                        for (c, &zv) in z.row(row).iter().enumerate() {
                            acc += zv * e.vectors.get(c, j);
                        }
                        u.set(row, col, acc * inv);
                    }
                }
                None => {
                    let fill = Mat::random(z.nrows(), 1, seed ^ 0xce11 ^ col as u64);
                    for row in 0..z.nrows() {
                        u.set(row, col, fill.get(row, 0));
                    }
                }
            }
        }
        thin_qr(&u).q
    }

    #[test]
    fn left_singular_vectors_match_the_per_entry_product_bitwise() {
        // Unfoldings with zero rows (empty slices), negative zeros, and a
        // rank past the column count, so directions are filled at random.
        for (rows, k, r) in [(40, 6, 3), (300, 9, 9), (17, 2, 4), (5000, 16, 8)] {
            let mut z = Mat::random(rows, k, rows as u64);
            for i in (0..rows).step_by(3) {
                z.row_mut(i).fill(0.0);
            }
            z.set(1, 0, -0.0);
            z.set(2, k - 1, -1.5);
            let got = leading_left_singular(&z, r, 9).unwrap();
            let want = left_singular_per_entry(&z, r, 9);
            let bits = |m: &Mat| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "{rows} x {k}, rank {r}");
        }
    }

    /// Column of an unfolding for the other modes' ranks `r` (entry
    /// `mode` ignored): the highest mode varies slowest.
    fn column(r: &[usize], ranks: &[usize], mode: usize) -> usize {
        (0..r.len()).rev().filter(|&d| d != mode).fold(0, |c, d| c * ranks[d] + r[d])
    }

    /// Every rank tuple of `ranks`, in odometer order.
    fn rank_tuples(ranks: &[usize]) -> Vec<Vec<usize>> {
        let mut out = vec![vec![]];
        for &rank in ranks {
            out = out
                .into_iter()
                .flat_map(|p: Vec<usize>| {
                    (0..rank).map(move |x| p.iter().copied().chain([x]).collect())
                })
                .collect();
        }
        out
    }

    #[test]
    fn unfoldings_and_core_match_the_dense_definition() {
        for (dims, ranks, seed) in
            [(vec![4, 3, 5], vec![2, 3, 1], 3u64), (vec![3, 4, 2, 3], vec![2, 1, 2, 3], 8)]
        {
            // Every coordinate twice: the unfolding must sum duplicates.
            let base = zipf_tensor(&dims, 40, &vec![0.5; dims.len()], seed);
            let entries: Vec<(Vec<usize>, f64)> = (0..base.nnz())
                .flat_map(|k| {
                    let c: Vec<usize> = base.coord(k).iter().map(|&i| i as usize).collect();
                    [(c.clone(), base.vals()[k]), (c, 0.5)]
                })
                .collect();
            let t = SparseTensor::from_entries(dims.clone(), &entries);
            let dense = DenseTensor::from_sparse(&t);
            let factors: Vec<Mat> = dims
                .iter()
                .zip(&ranks)
                .enumerate()
                .map(|(d, (&rows, &r))| Mat::random(rows, r, seed + d as u64))
                .collect();
            let tuples = rank_tuples(&ranks);
            for mode in 0..dims.len() {
                let mut z = Mat::zeros(0, 0);
                unfold(&t, &SortedModeView::build(&t, mode), &factors, &mut z);
                let mut want = Mat::zeros(dims[mode], z.ncols());
                for coords in dense.coords_iter() {
                    let x = dense.get(&coords);
                    for r in tuples.iter().filter(|r| r[mode] == 0) {
                        let p: f64 = (0..dims.len())
                            .filter(|&d| d != mode)
                            .map(|d| factors[d].get(coords[d], r[d]))
                            .product();
                        let c = column(r, &ranks, mode);
                        want.set(coords[mode], c, want.get(coords[mode], c) + x * p);
                    }
                }
                assert!(z.max_abs_diff(&want) < 1e-12, "mode {mode} of {dims:?}");
            }
            // The core HOOI returns is X times every factor's transpose,
            // read through core_get.
            let res = hooi(&t, &TuckerOptions::new(ranks.clone()).max_iters(1)).unwrap();
            for r in &tuples {
                let want: f64 = dense
                    .coords_iter()
                    .map(|coords| {
                        let p: f64 = res
                            .model
                            .factors
                            .iter()
                            .enumerate()
                            .map(|(d, f)| f.get(coords[d], r[d]))
                            .product();
                        dense.get(&coords) * p
                    })
                    .sum();
                assert!((res.model.core_get(r) - want).abs() < 1e-12, "core {r:?} of {dims:?}");
            }
        }
    }
}
