//! Semi-sparse tensors: sparse in all modes but one.
//!
//! A tensor-times-matrix product (TTM) along mode `n` leaves a tensor
//! that is still sparse over the remaining modes but **dense of width
//! `R`** along the contracted mode — exactly the shape of the dimension
//! tree's intermediate value matrices. [`SemiSparseTensor`] makes that
//! object a first-class public type: distinct index tuples over the
//! sparse modes, plus a row of `R` values per tuple.
//!
//! This is the "sCOO" format of the model-driven CP literature, and the
//! building block a Tucker/HOOI extension would chain.

use crate::coo::{Idx, SparseTensor};
use crate::error::TensorError;
use crate::keys::SortedTuples;
use adatm_linalg::Mat;

/// A tensor sparse over `sparse_modes` and dense (width `R`) along one
/// contracted mode.
#[derive(Clone, Debug)]
pub struct SemiSparseTensor {
    /// Sizes of the sparse modes, in their original mode order.
    pub sparse_dims: Vec<usize>,
    /// The original mode ids of the sparse modes (ascending).
    pub sparse_modes: Vec<usize>,
    /// One index array per sparse mode; all of length `nnz()`.
    pub idx: Vec<Vec<Idx>>,
    /// `nnz() x R` values: row `e` holds the dense fiber of tuple `e`.
    pub vals: Mat,
}

impl SemiSparseTensor {
    /// Number of stored (sparse) index tuples.
    pub fn nnz(&self) -> usize {
        self.vals.nrows()
    }

    /// Width of the dense mode.
    pub fn dense_width(&self) -> usize {
        self.vals.ncols()
    }

    /// The dense fiber of tuple `e`.
    pub fn fiber(&self, e: usize) -> &[f64] {
        self.vals.row(e)
    }

    /// Looks up a tuple's fiber by coordinates over the sparse modes
    /// (linear scan; test/debug helper).
    pub fn get(&self, coords: &[usize]) -> Option<&[f64]> {
        assert_eq!(coords.len(), self.idx.len());
        'outer: for e in 0..self.nnz() {
            for (col, &c) in self.idx.iter().zip(coords.iter()) {
                if col[e] as usize != c {
                    continue 'outer;
                }
            }
            return Some(self.fiber(e));
        }
        None
    }

    /// Storage footprint in bytes.
    pub fn storage_bytes(&self) -> usize {
        self.idx.iter().map(|c| c.len() * std::mem::size_of::<Idx>()).sum::<usize>()
            + self.vals.nrows() * self.vals.ncols() * std::mem::size_of::<f64>()
    }
}

/// Tensor-times-matrix along `mode`: `Y(..., r, ...) = sum_j U(j, r)
/// X(..., j, ...)`, returning the semi-sparse result.
///
/// Tuples that coincide after removing `mode` are merged (their fibers
/// sum), so `nnz()` equals the number of distinct projections of the
/// input onto the remaining modes.
///
/// # Panics
/// Panics if `u.nrows() != dims[mode]` or the tensor has fewer than 2
/// modes.
pub fn ttm(t: &SparseTensor, mode: usize, u: &Mat) -> SemiSparseTensor {
    assert!(t.ndim() >= 2, "ttm needs at least 2 modes");
    assert!(mode < t.ndim(), "mode out of range");
    assert_eq!(u.nrows(), t.dims()[mode], "matrix rows must match mode size");
    let rank = u.ncols();
    let keep: Vec<usize> = (0..t.ndim()).filter(|&d| d != mode).collect();
    // Group entries by their projection onto the kept modes: each run of
    // equal tuples sums into one row, in entry order.
    let sorted = SortedTuples::by_modes(t, &keep);
    let perm = sorted.perm();
    let count = sorted.distinct();
    let mut idx: Vec<Vec<Idx>> = vec![Vec::with_capacity(count); keep.len()];
    let mut rows: Vec<f64> = vec![0.0; count * rank];
    let mut start = 0;
    for (g, len) in sorted.runs().enumerate() {
        let run = &perm[start..start + len];
        let out = &mut rows[g * rank..(g + 1) * rank];
        for (col, &d) in idx.iter_mut().zip(keep.iter()) {
            col.push(t.mode_idx(d)[run[0] as usize]);
        }
        for &p in run {
            let k = p as usize;
            let urow = u.row(t.mode_idx(mode)[k] as usize);
            let v = t.vals()[k];
            for (o, &x) in out.iter_mut().zip(urow.iter()) {
                *o += v * x;
            }
        }
        start += len;
    }
    SemiSparseTensor {
        sparse_dims: keep.iter().map(|&d| t.dims()[d]).collect(),
        sparse_modes: keep,
        idx,
        vals: Mat::from_vec(count, rank, rows),
    }
}

/// TTM of a semi-sparse tensor along one of its *sparse* modes.
///
/// The dense width multiplies: contracting sparse mode `m` (original mode
/// id) with `u` of shape `I_m x S` turns each width-`R` fiber into a
/// width-`S*R` fiber laid out as the Kronecker ordering `(s, r) -> s*R +
/// r`. This is the building block of Tucker/HOOI TTM chains, where the
/// fiber width grows to the product of the contracted ranks.
///
/// # Panics
/// Panics if `mode` is not one of the tensor's sparse modes or the matrix
/// rows do not match that mode's size. [`try_ttm_semisparse`] is the
/// non-panicking form.
pub fn ttm_semisparse(t: &SemiSparseTensor, mode: usize, u: &Mat) -> SemiSparseTensor {
    try_ttm_semisparse(t, mode, u).unwrap_or_else(|e| panic!("{e}"))
}

/// [`ttm_semisparse`] returning a typed error when `mode` is not one of
/// the tensor's sparse modes or too few sparse modes remain.
pub fn try_ttm_semisparse(
    t: &SemiSparseTensor,
    mode: usize,
    u: &Mat,
) -> Result<SemiSparseTensor, TensorError> {
    let pos = t
        .sparse_modes
        .iter()
        .position(|&m| m == mode)
        .ok_or(TensorError::ModeNotSparse { mode })?;
    if t.sparse_modes.len() < 2 {
        // Contracting the last sparse mode would leave no sparse structure.
        return Err(TensorError::TooFewModes { needed: 2, got: t.sparse_modes.len() });
    }
    assert_eq!(u.nrows(), t.sparse_dims[pos], "matrix rows must match mode size");
    let r = t.dense_width();
    let s = u.ncols();
    let keep: Vec<usize> = (0..t.sparse_modes.len()).filter(|&p| p != pos).collect();
    // Sort tuple ids by the kept columns. This sort stays a comparator
    // sort, unstable: its tie order is the order duplicate rows are summed
    // in, so Tucker's output bits depend on it.
    let mut perm: Vec<u32> = (0..t.nnz() as u32).collect();
    perm.sort_unstable_by(|&a, &b| {
        for &p in &keep {
            match t.idx[p][a as usize].cmp(&t.idx[p][b as usize]) {
                std::cmp::Ordering::Equal => continue,
                ord => return ord,
            }
        }
        std::cmp::Ordering::Equal
    });
    let mut idx: Vec<Vec<Idx>> = vec![Vec::new(); keep.len()];
    let mut rows: Vec<f64> = Vec::new();
    let mut count = 0usize;
    for (iter_pos, &p) in perm.iter().enumerate() {
        let e = p as usize;
        let is_new = iter_pos == 0 || {
            let prev = perm[iter_pos - 1] as usize;
            keep.iter().any(|&kp| t.idx[kp][e] != t.idx[kp][prev])
        };
        if is_new {
            for (col, &kp) in idx.iter_mut().zip(keep.iter()) {
                col.push(t.idx[kp][e]);
            }
            rows.extend(std::iter::repeat_n(0.0, s * r));
            count += 1;
        }
        let urow = u.row(t.idx[pos][e] as usize);
        let fiber = t.fiber(e);
        let out = &mut rows[(count - 1) * s * r..count * s * r];
        for (si, &uv) in urow.iter().enumerate() {
            if uv == 0.0 {
                continue;
            }
            let block = &mut out[si * r..(si + 1) * r];
            for (o, &f) in block.iter_mut().zip(fiber.iter()) {
                *o += uv * f;
            }
        }
    }
    Ok(SemiSparseTensor {
        sparse_dims: keep.iter().map(|&p| t.sparse_dims[p]).collect(),
        sparse_modes: keep.iter().map(|&p| t.sparse_modes[p]).collect(),
        idx,
        vals: Mat::from_vec(count, s * r, rows),
    })
}

/// Chains TTMs over every mode except `skip`: `Y = X x_{d != skip}
/// U_d^T`-style contraction with each `mats[d]` (`I_d x R_d`), producing a
/// semi-sparse tensor sparse only in `skip` with dense width
/// `prod_{d != skip} R_d`.
///
/// The fiber layout orders contracted modes **descending by original mode
/// id** (mode `skip` excluded): entry `(r_{d1}, r_{d2}, ...)` with `d1 >
/// d2 > ...` lives at `((r_{d1} * R_{d2} + r_{d2}) * ...)`.
///
/// # Panics
/// Panics on shape mismatches or `ndim < 2`. [`try_ttm_chain_all_but`] is
/// the non-panicking form.
pub fn ttm_chain_all_but(t: &SparseTensor, skip: usize, mats: &[&Mat]) -> SemiSparseTensor {
    try_ttm_chain_all_but(t, skip, mats).unwrap_or_else(|e| panic!("{e}"))
}

/// [`ttm_chain_all_but`] returning a typed error when the tensor has
/// fewer than 2 modes (no mode left to contract besides `skip`).
pub fn try_ttm_chain_all_but(
    t: &SparseTensor,
    skip: usize,
    mats: &[&Mat],
) -> Result<SemiSparseTensor, TensorError> {
    assert_eq!(mats.len(), t.ndim(), "one matrix per mode required (skip included, unused)");
    // First contraction from COO, then fold the rest in ascending order;
    // contracting ascending modes appends each new rank index on the
    // *left* of the fiber layout, giving the documented descending order.
    let first = (0..t.ndim())
        .find(|&d| d != skip)
        .ok_or(TensorError::TooFewModes { needed: 2, got: t.ndim() })?;
    let mut cur = ttm(t, first, mats[first]);
    for (d, mat) in mats.iter().enumerate() {
        if d == skip || d == first {
            continue;
        }
        cur = try_ttm_semisparse(&cur, d, mat)?;
    }
    Ok(cur)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseTensor;
    use crate::gen::zipf_tensor;

    #[test]
    fn ttm_matches_dense_definition_3d() {
        let t = zipf_tensor(&[6, 5, 7], 60, &[0.4; 3], 3);
        let dense = DenseTensor::from_sparse(&t);
        let u = Mat::random(5, 3, 9);
        let y = ttm(&t, 1, &u);
        assert_eq!(y.sparse_modes, vec![0, 2]);
        for i in 0..6 {
            for k in 0..7 {
                let want: Vec<f64> = (0..3)
                    .map(|r| (0..5).map(|j| u.get(j, r) * dense.get(&[i, j, k])).sum())
                    .collect();
                match y.get(&[i, k]) {
                    Some(fiber) => {
                        for (a, b) in fiber.iter().zip(want.iter()) {
                            assert!((a - b).abs() < 1e-12, "({i},{k})");
                        }
                    }
                    None => {
                        assert!(
                            want.iter().all(|w| w.abs() < 1e-12),
                            "missing nonzero fiber at ({i},{k})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn ttm_merges_projected_duplicates() {
        let t = SparseTensor::from_entries(
            vec![2, 3, 2],
            &[(vec![1, 0, 1], 2.0), (vec![1, 2, 1], 3.0)],
        );
        let u = Mat::from_vec(3, 1, vec![1.0, 1.0, 1.0]);
        let y = ttm(&t, 1, &u);
        assert_eq!(y.nnz(), 1);
        assert_eq!(y.get(&[1, 1]).unwrap(), &[5.0]);
    }

    #[test]
    fn ttm_nnz_equals_distinct_projection_count() {
        let t = zipf_tensor(&[20, 25, 15, 10], 400, &[0.8; 4], 7);
        let u = Mat::random(25, 4, 1);
        let y = ttm(&t, 1, &u);
        let want = crate::stats::distinct_projections(&t, &[0, 2, 3]);
        assert_eq!(y.nnz(), want);
        assert_eq!(y.dense_width(), 4);
    }

    #[test]
    fn ttm_with_identity_recovers_slices() {
        let t = SparseTensor::from_entries(vec![2, 2], &[(vec![0, 1], 4.0)]);
        let y = ttm(&t, 1, &Mat::eye(2));
        // The fiber along mode 1 at row 0 is [0, 4].
        assert_eq!(y.get(&[0]).unwrap(), &[0.0, 4.0]);
    }

    #[test]
    fn ttm_semisparse_matches_dense_definition() {
        let t = zipf_tensor(&[5, 6, 4], 40, &[0.4; 3], 11);
        let dense = DenseTensor::from_sparse(&t);
        let u1 = Mat::random(6, 2, 1);
        let u2 = Mat::random(4, 3, 2);
        let y = ttm_semisparse(&ttm(&t, 1, &u1), 2, &u2);
        assert_eq!(y.sparse_modes, vec![0]);
        assert_eq!(y.dense_width(), 6); // 3 * 2, layout (r2, r1)
        for i in 0..5 {
            for r2 in 0..3 {
                for r1 in 0..2 {
                    let want: f64 = (0..6)
                        .flat_map(|j| (0..4).map(move |k| (j, k)))
                        .map(|(j, k)| dense.get(&[i, j, k]) * u1.get(j, r1) * u2.get(k, r2))
                        .sum();
                    let got = y.get(&[i]).map_or(0.0, |f| f[r2 * 2 + r1]);
                    assert!((got - want).abs() < 1e-10, "({i},{r1},{r2})");
                }
            }
        }
    }

    #[test]
    fn ttm_chain_all_but_matches_pairwise_composition() {
        let t = zipf_tensor(&[4, 5, 3, 6], 50, &[0.5; 4], 21);
        let mats: Vec<Mat> =
            t.dims().iter().enumerate().map(|(d, &n)| Mat::random(n, 2, d as u64)).collect();
        let refs: Vec<&Mat> = mats.iter().collect();
        let y = ttm_chain_all_but(&t, 2, &refs);
        assert_eq!(y.sparse_modes, vec![2]);
        assert_eq!(y.dense_width(), 8);
        // Compose manually: ttm mode 0, then 1, then 3.
        let manual =
            ttm_semisparse(&ttm_semisparse(&ttm(&t, 0, &mats[0]), 1, &mats[1]), 3, &mats[3]);
        assert_eq!(manual.nnz(), y.nnz());
        for e in 0..y.nnz() {
            let coords = vec![y.idx[0][e] as usize];
            let a = y.get(&coords).unwrap();
            let b = manual.get(&coords).unwrap();
            for (x, z) in a.iter().zip(b.iter()) {
                assert!((x - z).abs() < 1e-10);
            }
        }
    }

    #[test]
    #[should_panic(expected = "one of the sparse modes")]
    fn ttm_semisparse_rejects_contracted_mode() {
        let t = zipf_tensor(&[4, 5, 3], 20, &[0.3; 3], 1);
        let y = ttm(&t, 1, &Mat::random(5, 2, 1));
        let _ = ttm_semisparse(&y, 1, &Mat::random(5, 2, 2));
    }

    #[test]
    fn try_ttm_semisparse_returns_typed_errors() {
        let t = zipf_tensor(&[4, 5, 3], 20, &[0.3; 3], 1);
        let y = ttm(&t, 1, &Mat::random(5, 2, 1));
        let err = try_ttm_semisparse(&y, 1, &Mat::random(5, 2, 2)).unwrap_err();
        assert_eq!(err, TensorError::ModeNotSparse { mode: 1 });
        // Contract down to one sparse mode, then one more is an error.
        let z = ttm_semisparse(&y, 0, &Mat::random(4, 2, 3));
        let err = try_ttm_semisparse(&z, 2, &Mat::random(3, 2, 4)).unwrap_err();
        assert_eq!(err, TensorError::TooFewModes { needed: 2, got: 1 });
    }

    #[test]
    fn storage_bytes_counts_both_parts() {
        let t = zipf_tensor(&[10, 12, 8], 100, &[0.3; 3], 2);
        let u = Mat::random(12, 5, 3);
        let y = ttm(&t, 1, &u);
        assert_eq!(y.storage_bytes(), y.nnz() * 2 * 4 + y.nnz() * 5 * 8);
    }
}
