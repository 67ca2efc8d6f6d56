//! Row-major dense matrix type and the kernels CP-ALS needs.

use rand::distributions::{Distribution, Uniform};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;

/// Minimum number of rows before tall-skinny kernels switch to rayon.
///
/// Below this the parallel runtime overhead dominates; `R x R` Gram/Hadamard
/// work in CP-ALS never reaches it.
pub(crate) const PAR_ROW_THRESHOLD: usize = 4096;

/// A dense, row-major, `f64` matrix.
///
/// Rows are contiguous, which matches how every sparse kernel in this
/// workspace touches factor matrices: a nonzero with index `i` in mode `n`
/// reads or updates the whole row `U^(n)(i, :)` at once.
#[derive(Debug, PartialEq)]
pub struct Mat {
    nrows: usize,
    ncols: usize,
    data: Vec<f64>,
}

impl Clone for Mat {
    fn clone(&self) -> Self {
        Mat { nrows: self.nrows, ncols: self.ncols, data: self.data.clone() }
    }

    /// Copies `src` into this matrix's buffer, reallocating only when the
    /// buffer is too small — so snapshotting a factor set each iteration
    /// (`Vec<Mat>::clone_from`) allocates nothing in steady state.
    fn clone_from(&mut self, src: &Self) {
        self.nrows = src.nrows;
        self.ncols = src.ncols;
        self.data.clone_from(&src.data);
    }
}

impl Mat {
    /// Creates an `nrows x ncols` matrix of zeros.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Mat { nrows, ncols, data: vec![0.0; nrows * ncols] }
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != nrows * ncols`.
    pub fn from_vec(nrows: usize, ncols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), nrows * ncols, "data length must be nrows * ncols");
        Mat { nrows, ncols, data }
    }

    /// Creates a matrix with entries drawn uniformly from `(0, 1)`.
    ///
    /// Deterministic for a given `seed`, so factor initializations are
    /// reproducible across runs and across backends under comparison.
    pub fn random(nrows: usize, ncols: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let dist = Uniform::new(f64::MIN_POSITIVE, 1.0);
        let data = (0..nrows * ncols).map(|_| dist.sample(&mut rng)).collect();
        Mat { nrows, ncols, data }
    }

    /// Creates the `n x n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Borrows the underlying row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrows the underlying row-major data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix, returning its row-major data.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Returns element `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.nrows && j < self.ncols);
        self.data[i * self.ncols + j]
    }

    /// Sets element `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.nrows && j < self.ncols);
        self.data[i * self.ncols + j] = v;
    }

    /// Borrows row `i` as a slice of length `ncols`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.ncols..(i + 1) * self.ncols]
    }

    /// Mutably borrows row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.ncols..(i + 1) * self.ncols]
    }

    /// Iterates over rows as slices.
    pub fn rows(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.ncols.max(1))
    }

    /// Changes the shape to `nrows x ncols`, reusing the buffer: no
    /// allocation while `nrows * ncols` fits its capacity. Entries that
    /// stay in range keep their values, new ones are zero; callers that
    /// reshape a scratch buffer overwrite it anyway.
    pub fn reshape(&mut self, nrows: usize, ncols: usize) {
        self.nrows = nrows;
        self.ncols = ncols;
        self.data.resize(nrows * ncols, 0.0);
    }

    /// Entries the buffer holds without reallocating (at least
    /// `nrows * ncols`).
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Fills the matrix with zeros in place, keeping its allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Computes the Gram matrix `self^T * self` (`ncols x ncols`).
    ///
    /// This is the `W^(n) = U^(n)^T U^(n)` step of CP-ALS, through the one
    /// Gram accumulator the fused mode updates use (see
    /// [`crate::update`]): register tiles over the upper triangle, zero
    /// rows skipped, and a fixed reduction shape, so every entry is the
    /// same row-order sum at a given thread count.
    pub fn gram(&self) -> Mat {
        let mut g = Mat::zeros(self.ncols, self.ncols);
        crate::update::gram_into(&self.data, self.ncols, &mut g.data);
        g
    }

    /// Computes `self * other`.
    ///
    /// The CP-ALS use is `U^(n) = M^(n) * H^(n)^dagger` with `other` an
    /// `R x R` matrix, so the kernel parallelizes over rows of `self` and
    /// keeps `other` resident.
    ///
    /// # Panics
    /// Panics on an inner-dimension mismatch.
    pub fn matmul(&self, other: &Mat) -> Mat {
        let mut out = Mat::zeros(0, 0);
        self.matmul_into(other, &mut out);
        out
    }

    /// [`Mat::matmul`] into `out`, reshaped within its capacity: the same
    /// kernel and bits, without an allocation once `out` is large enough.
    ///
    /// # Panics
    /// Panics on an inner-dimension mismatch.
    pub fn matmul_into(&self, other: &Mat, out: &mut Mat) {
        assert_eq!(self.ncols, other.nrows, "matmul dimension mismatch");
        let (n, k, m) = (self.nrows, self.ncols, other.ncols);
        out.reshape(n, m);
        out.fill_zero();
        let kernel = |row: &[f64], orow: &mut [f64]| {
            for (l, &a) in row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let brow = &other.data[l * m..(l + 1) * m];
                crate::kernels::axpy(orow, a, brow);
            }
        };
        if n >= PAR_ROW_THRESHOLD {
            out.data
                .par_chunks_mut(m)
                .zip(self.data.par_chunks(k))
                .for_each(|(orow, row)| kernel(row, orow));
        } else {
            for (orow, row) in out.data.chunks_mut(m).zip(self.data.chunks(k)) {
                kernel(row, orow);
            }
        }
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Mat {
        let mut out = Mat::zeros(0, 0);
        self.transpose_into(&mut out);
        out
    }

    /// [`Mat::transpose`] into `out`, reshaped within its capacity.
    pub fn transpose_into(&self, out: &mut Mat) {
        out.reshape(self.ncols, self.nrows);
        for i in 0..self.nrows {
            for j in 0..self.ncols {
                out.data[j * self.nrows + i] = self.data[i * self.ncols + j];
            }
        }
    }

    /// Overwrites `self` with a copy of `other`, reusing its allocation
    /// when it is large enough.
    pub fn copy_from(&mut self, other: &Mat) {
        self.reshape(other.nrows, other.ncols);
        self.data.copy_from_slice(&other.data);
    }

    /// In-place element-wise (Hadamard) product with `other`.
    ///
    /// # Panics
    /// Panics on a shape mismatch.
    pub fn hadamard_assign(&mut self, other: &Mat) {
        assert_eq!((self.nrows, self.ncols), (other.nrows, other.ncols), "hadamard shape mismatch");
        crate::kernels::mul_assign(&mut self.data, &other.data);
    }

    /// Element-wise (Hadamard) product, returning a new matrix.
    pub fn hadamard(&self, other: &Mat) -> Mat {
        let mut out = self.clone();
        out.hadamard_assign(other);
        out
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Frobenius norm.
    pub fn fro_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Euclidean norm of each column.
    pub fn col_norms(&self) -> Vec<f64> {
        let mut norms = vec![0.0; self.ncols];
        for row in self.data.chunks_exact(self.ncols.max(1)) {
            for (n, &x) in norms.iter_mut().zip(row.iter()) {
                *n += x * x;
            }
        }
        norms.iter_mut().for_each(|n| *n = n.sqrt());
        norms
    }

    /// Maximum absolute value of each column (the "max norm" used by CP-ALS
    /// implementations after the first iteration so factors do not shrink).
    pub fn col_max_norms(&self) -> Vec<f64> {
        let mut norms = vec![0.0_f64; self.ncols];
        for row in self.data.chunks_exact(self.ncols.max(1)) {
            for (n, &x) in norms.iter_mut().zip(row.iter()) {
                *n = n.max(x.abs());
            }
        }
        norms
    }

    /// Divides each column by the given scale. A zero scale maps to a
    /// zero multiplier (the column is zeroed — which leaves it unchanged
    /// in the normalization use case, where a zero scale only arises from
    /// an already-zero column).
    ///
    /// # Panics
    /// Panics if `scales.len() != ncols`.
    pub fn scale_cols_inv(&mut self, scales: &[f64]) {
        assert_eq!(scales.len(), self.ncols, "scale vector length mismatch");
        let inv: Vec<f64> = scales.iter().map(|&s| if s != 0.0 { 1.0 / s } else { 0.0 }).collect();
        for row in self.data.chunks_exact_mut(self.ncols.max(1)) {
            for (x, &s) in row.iter_mut().zip(inv.iter()) {
                *x *= s;
            }
        }
    }

    /// Normalizes each column to unit 2-norm and returns the norms
    /// (the `lambda` vector of CP-ALS). Zero columns are left untouched and
    /// report norm 0.
    pub fn normalize_cols(&mut self) -> Vec<f64> {
        let norms = self.col_norms();
        self.scale_cols_inv(&norms);
        norms
    }

    /// Normalizes each column by its max norm, returning the scales.
    pub fn normalize_cols_max(&mut self) -> Vec<f64> {
        let norms = self.col_max_norms();
        self.scale_cols_inv(&norms);
        norms
    }

    /// Dot product of column `j` with the corresponding column of `other`.
    pub fn col_dot(&self, other: &Mat, j: usize) -> f64 {
        assert_eq!(self.nrows, other.nrows);
        (0..self.nrows).map(|i| self.get(i, j) * other.get(i, j)).sum()
    }

    /// Dot products of every column with the corresponding column of
    /// `other`, in one row pass: `out[j]` equals [`Mat::col_dot`]`(other, j)`
    /// bit for bit (each sum runs in row order from `-0.0`, as
    /// `Iterator::sum` does).
    ///
    /// # Panics
    /// Panics on a shape mismatch or if `out.len() != ncols`.
    pub fn col_dots(&self, other: &Mat, out: &mut [f64]) {
        assert_eq!((self.nrows, self.ncols), (other.nrows, other.ncols));
        assert_eq!(out.len(), self.ncols);
        out.fill(-0.0);
        let r = self.ncols.max(1);
        for (a, b) in self.data.chunks_exact(r).zip(other.data.chunks_exact(r)) {
            crate::kernels::muladd_assign(out, a, b);
        }
    }

    /// Element-wise sum of `self^T * other` weighted by the outer product
    /// `lambda * lambda^T`... more plainly: computes
    /// `sum_{r,s} a[r] * b[s] * G[r][s]` where `G = self` (an `R x R`
    /// matrix). Used by the efficient CP fit computation.
    pub fn weighted_quad(&self, a: &[f64], b: &[f64]) -> f64 {
        assert_eq!(self.nrows, a.len());
        assert_eq!(self.ncols, b.len());
        let mut total = 0.0;
        for (i, &ai) in a.iter().enumerate() {
            let row = self.row(i);
            let mut acc = 0.0;
            for (&g, &bj) in row.iter().zip(b.iter()) {
                acc += g * bj;
            }
            total += ai * acc;
        }
        total
    }

    /// Whether every entry is finite (no NaN or infinity).
    ///
    /// Breakdown detectors scan factor matrices and MTTKRP outputs with
    /// this after every update; it is a single pass over the data and
    /// short-circuits on the first bad entry.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Maximum absolute difference between two matrices of equal shape.
    pub fn max_abs_diff(&self, other: &Mat) -> f64 {
        assert_eq!((self.nrows, self.ncols), (other.nrows, other.ncols));
        self.data.iter().zip(other.data.iter()).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let m = Mat::zeros(3, 4);
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.ncols(), 4);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_vec_rejects_bad_length() {
        let _ = Mat::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn eye_is_identity_under_matmul() {
        let a = Mat::random(5, 5, 7);
        let i = Mat::eye(5);
        assert!(a.matmul(&i).max_abs_diff(&a) < 1e-15);
        assert!(i.matmul(&a).max_abs_diff(&a) < 1e-15);
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let a = Mat::random(4, 3, 42);
        let b = Mat::random(4, 3, 42);
        let c = Mat::random(4, 3, 43);
        assert_eq!(a, b);
        assert!(a.max_abs_diff(&c) > 0.0);
    }

    #[test]
    fn gram_matches_explicit_transpose_product() {
        let a = Mat::random(17, 5, 1);
        let g = a.gram();
        let g2 = a.transpose().matmul(&a);
        assert!(g.max_abs_diff(&g2) < 1e-12);
    }

    #[test]
    fn gram_parallel_path_matches_sequential() {
        let a = Mat::random(PAR_ROW_THRESHOLD + 123, 3, 5);
        let g = a.gram();
        let g2 = a.transpose().matmul(&a);
        assert!(g.max_abs_diff(&g2) < 1e-9);
    }

    #[test]
    fn matmul_small_known_values() {
        let a = Mat::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Mat::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn transpose_involution() {
        let a = Mat::random(6, 4, 2);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn hadamard_elementwise() {
        let a = Mat::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Mat::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        assert_eq!(a.hadamard(&b).as_slice(), &[5.0, 12.0, 21.0, 32.0]);
    }

    #[test]
    fn normalize_cols_gives_unit_norms() {
        let mut a = Mat::random(10, 4, 3);
        let lambda = a.normalize_cols();
        for (j, &l) in lambda.iter().enumerate() {
            assert!(l > 0.0);
            let n: f64 = (0..10).map(|i| a.get(i, j).powi(2)).sum::<f64>().sqrt();
            assert!((n - 1.0).abs() < 1e-12, "column {j} norm {n}");
        }
    }

    #[test]
    fn normalize_handles_zero_column() {
        let mut a = Mat::zeros(3, 2);
        a.set(0, 0, 2.0);
        let lambda = a.normalize_cols();
        assert_eq!(lambda[1], 0.0);
        assert_eq!(a.get(0, 0), 1.0);
        assert_eq!(a.get(1, 1), 0.0);
    }

    #[test]
    fn col_max_norms_matches_manual() {
        let a = Mat::from_vec(3, 2, vec![1.0, -9.0, -4.0, 2.0, 3.0, 0.5]);
        assert_eq!(a.col_max_norms(), vec![4.0, 9.0]);
    }

    #[test]
    fn weighted_quad_matches_explicit_sum() {
        let g = Mat::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let a = [0.5, 2.0];
        let b = [1.0, -1.0];
        // 0.5*(1*1 + 2*-1) + 2*(3*1 + 4*-1) = 0.5*(-1) + 2*(-1) = -2.5
        assert!((g.weighted_quad(&a, &b) + 2.5).abs() < 1e-15);
    }

    #[test]
    fn fro_norm_known() {
        let a = Mat::from_vec(1, 2, vec![3.0, 4.0]);
        assert!((a.fro_norm() - 5.0).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "hadamard shape mismatch")]
    fn hadamard_rejects_shape_mismatch() {
        let mut a = Mat::zeros(2, 3);
        a.hadamard_assign(&Mat::zeros(3, 2));
    }

    #[test]
    #[should_panic(expected = "matmul dimension mismatch")]
    fn matmul_rejects_inner_mismatch() {
        let _ = Mat::zeros(2, 3).matmul(&Mat::zeros(2, 3));
    }

    #[test]
    fn rows_iterator_yields_each_row() {
        let a = Mat::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let rows: Vec<&[f64]> = a.rows().collect();
        assert_eq!(rows, vec![&[1.0, 2.0][..], &[3.0, 4.0], &[5.0, 6.0]]);
    }

    #[test]
    fn clone_from_reuses_the_buffer_and_matches_clone() {
        let src = Mat::random(6, 4, 1);
        let mut dst = Mat::random(6, 4, 2);
        let ptr = dst.as_slice().as_ptr();
        dst.clone_from(&src);
        assert_eq!(dst, src);
        assert_eq!(dst.as_slice().as_ptr(), ptr, "equal shapes must reuse the allocation");
        for (rows, cols) in [(2, 3), (9, 5), (0, 4)] {
            let src = Mat::random(rows, cols, 3);
            let mut dst = Mat::random(6, 4, 4);
            dst.clone_from(&src);
            assert_eq!(dst, src.clone());
            assert_eq!((dst.nrows(), dst.ncols()), (rows, cols));
        }
    }

    #[test]
    fn reshape_stays_within_capacity() {
        let mut a = Mat::random(10, 4, 1);
        let ptr = a.as_slice().as_ptr();
        a.reshape(3, 4);
        assert_eq!((a.nrows(), a.ncols(), a.as_slice().len()), (3, 4, 12));
        a.reshape(10, 4);
        assert_eq!(a.as_slice().len(), 40);
        assert_eq!(a.as_slice().as_ptr(), ptr, "growing back within capacity must not reallocate");
        assert_eq!(a.row(9), &[0.0; 4], "entries past the old length are zero");
    }

    #[test]
    fn col_dots_match_col_dot_bitwise() {
        let mut a = Mat::random(37, 5, 1);
        let b = Mat::random(37, 5, 2);
        for i in 0..37 {
            a.set(i, 3, -0.0);
        }
        let mut dots = vec![1.0; 5];
        a.col_dots(&b, &mut dots);
        for (j, d) in dots.iter().enumerate() {
            assert_eq!(d.to_bits(), a.col_dot(&b, j).to_bits(), "column {j}");
        }
    }

    #[test]
    fn fill_zero_keeps_shape() {
        let mut a = Mat::random(4, 3, 1);
        a.fill_zero();
        assert_eq!(a.nrows(), 4);
        assert!(a.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn scale_cols_inv_zero_scale_zeroes_column() {
        let mut a = Mat::from_vec(2, 2, vec![2.0, 4.0, 6.0, 8.0]);
        a.scale_cols_inv(&[2.0, 0.0]);
        assert_eq!(a.as_slice(), &[1.0, 0.0, 3.0, 0.0]);
    }

    #[test]
    fn matmul_parallel_path_matches_small() {
        // Cross the row threshold to exercise the rayon branch.
        let a = Mat::random(PAR_ROW_THRESHOLD + 7, 3, 2);
        let b = Mat::random(3, 4, 3);
        let big = a.matmul(&b);
        // Spot-check a few rows against manual dot products.
        for &i in &[0usize, PAR_ROW_THRESHOLD, PAR_ROW_THRESHOLD + 6] {
            for j in 0..4 {
                let want: f64 = (0..3).map(|k| a.get(i, k) * b.get(k, j)).sum();
                assert!((big.get(i, j) - want).abs() < 1e-12);
            }
        }
    }
}
