//! Coordinate-format (COO) sparse tensors, stored structure-of-arrays.

use crate::keys::SortedTuples;
use std::fmt;

/// Index type for mode coordinates.
///
/// `u32` halves the index footprint relative to `usize` — the memory-usage
/// experiments (E5) depend on index storage being the dominant term — and
/// no dataset in this workspace approaches 2^32 along any mode.
pub type Idx = u32;

/// An `N`-mode sparse tensor in coordinate format.
///
/// Layout is structure-of-arrays: one index array per mode plus one value
/// array, all of length `nnz`. Every kernel in the workspace walks one or
/// two modes' index arrays at a time, so SoA keeps those walks contiguous
/// (an AoS tuple layout would stride by `N`).
///
/// ```
/// use adatm_tensor::SparseTensor;
///
/// let t = SparseTensor::from_entries(
///     vec![3, 4, 2],
///     &[(vec![0, 1, 0], 2.5), (vec![2, 3, 1], -1.0)],
/// );
/// assert_eq!(t.ndim(), 3);
/// assert_eq!(t.nnz(), 2);
/// assert_eq!(t.get(&[0, 1, 0]), 2.5);
/// assert_eq!(t.get(&[1, 1, 1]), 0.0); // implicit zero
/// ```
///
/// Invariants (checked by [`SparseTensor::new`], preserved by all methods):
/// * every index array has the same length as `vals`;
/// * every index is strictly below the corresponding mode size.
///
/// Duplicate coordinates are permitted; [`SparseTensor::dedup_sum`]
/// canonicalizes by summing duplicates.
#[derive(Clone, PartialEq)]
pub struct SparseTensor {
    dims: Vec<usize>,
    inds: Vec<Vec<Idx>>,
    vals: Vec<f64>,
}

impl fmt::Debug for SparseTensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SparseTensor")
            .field("dims", &self.dims)
            .field("nnz", &self.vals.len())
            .finish()
    }
}

impl SparseTensor {
    /// Creates a sparse tensor from per-mode index arrays and values.
    ///
    /// # Panics
    /// Panics if array lengths are inconsistent, if `inds.len() !=
    /// dims.len()`, or if any index is out of bounds for its mode.
    pub fn new(dims: Vec<usize>, inds: Vec<Vec<Idx>>, vals: Vec<f64>) -> Self {
        assert_eq!(inds.len(), dims.len(), "one index array per mode required");
        for (d, (col, &size)) in inds.iter().zip(dims.iter()).enumerate() {
            assert_eq!(col.len(), vals.len(), "index array {d} length mismatch");
            assert!(
                size <= Idx::MAX as usize + 1,
                "mode {d} size {size} exceeds index type capacity"
            );
            if let Some(&bad) = col.iter().find(|&&i| (i as usize) >= size) {
                panic!("index {bad} out of bounds for mode {d} of size {size}");
            }
        }
        SparseTensor { dims, inds, vals }
    }

    /// Creates an empty tensor with the given mode sizes.
    pub fn empty(dims: Vec<usize>) -> Self {
        let n = dims.len();
        SparseTensor { dims, inds: vec![Vec::new(); n], vals: Vec::new() }
    }

    /// Creates a tensor from `(coordinates, value)` entries.
    ///
    /// Convenient for tests and examples; large tensors should be built
    /// column-wise with [`SparseTensor::new`].
    ///
    /// # Panics
    /// Panics if any entry has the wrong arity or an out-of-bounds index.
    /// [`SparseTensor::try_from_entries`] is the non-panicking form.
    pub fn from_entries(dims: Vec<usize>, entries: &[(Vec<usize>, f64)]) -> Self {
        Self::try_from_entries(dims, entries).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`SparseTensor::from_entries`] returning a typed error instead of
    /// panicking on bad arity or coordinates that overflow [`Idx`].
    ///
    /// Out-of-bounds (but representable) coordinates still panic in
    /// [`SparseTensor::new`]; use this to guard the representability of
    /// externally supplied coordinates.
    pub fn try_from_entries(
        dims: Vec<usize>,
        entries: &[(Vec<usize>, f64)],
    ) -> Result<Self, crate::error::TensorError> {
        let n = dims.len();
        let mut inds: Vec<Vec<Idx>> = vec![Vec::with_capacity(entries.len()); n];
        let mut vals = Vec::with_capacity(entries.len());
        for (coords, v) in entries {
            if coords.len() != n {
                return Err(crate::error::TensorError::ArityMismatch {
                    expected: n,
                    got: coords.len(),
                });
            }
            for (mode, (col, &c)) in inds.iter_mut().zip(coords.iter()).enumerate() {
                let idx = Idx::try_from(c).map_err(|_| {
                    crate::error::TensorError::IndexOverflow { mode, coordinate: c }
                })?;
                col.push(idx);
            }
            vals.push(*v);
        }
        Ok(SparseTensor::new(dims, inds, vals))
    }

    /// Number of modes (the tensor order, `N`).
    #[inline]
    pub fn ndim(&self) -> usize {
        self.dims.len()
    }

    /// Mode sizes.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// The index array of mode `d` (length `nnz`).
    #[inline]
    pub fn mode_idx(&self, d: usize) -> &[Idx] {
        &self.inds[d]
    }

    /// The value array (length `nnz`).
    #[inline]
    pub fn vals(&self) -> &[f64] {
        &self.vals
    }

    /// Mutable access to the value array.
    ///
    /// Structure (indices) stays fixed, which is exactly the contract the
    /// symbolic/numeric split of the dimension-tree engine relies on.
    #[inline]
    pub fn vals_mut(&mut self) -> &mut [f64] {
        &mut self.vals
    }

    /// The full coordinate of entry `k` (allocates; test/debug helper).
    pub fn coord(&self, k: usize) -> Vec<Idx> {
        self.inds.iter().map(|col| col[k]).collect()
    }

    /// Density: `nnz / prod(dims)`, computed in `f64` to avoid overflow.
    pub fn density(&self) -> f64 {
        let cells: f64 = self.dims.iter().map(|&d| d as f64).product();
        if cells == 0.0 {
            0.0
        } else {
            self.nnz() as f64 / cells
        }
    }

    /// Frobenius norm of the tensor (assumes deduplicated entries).
    pub fn fro_norm(&self) -> f64 {
        self.vals.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Squared Frobenius norm (assumes deduplicated entries).
    pub fn fro_norm_sq(&self) -> f64 {
        self.vals.iter().map(|v| v * v).sum::<f64>()
    }

    /// Bytes used by index arrays plus values (the COO storage footprint
    /// reported by the memory experiment).
    pub fn storage_bytes(&self) -> usize {
        self.ndim() * self.nnz() * std::mem::size_of::<Idx>()
            + self.nnz() * std::mem::size_of::<f64>()
    }

    /// Reorders entries in place according to `perm`, where the entry at
    /// old position `perm[k]` moves to position `k`.
    ///
    /// # Panics
    /// Panics if `perm` is not a permutation of `0..nnz` (detected
    /// indirectly via length/bounds checks).
    pub fn apply_permutation(&mut self, perm: &[u32]) {
        assert_eq!(perm.len(), self.nnz(), "permutation length mismatch");
        for col in &mut self.inds {
            *col = gather_u32(col, perm);
        }
        self.vals = gather_f64(&self.vals, perm);
    }

    /// Sorts entries lexicographically by the given mode order.
    ///
    /// `mode_order` lists modes from most- to least-significant; it may be
    /// a prefix (remaining entry order is then unspecified but stable).
    pub fn sort_by_modes(&mut self, mode_order: &[usize]) {
        let perm = self.sort_permutation(mode_order);
        self.apply_permutation(&perm);
    }

    /// Computes (without applying) the stable permutation that sorts
    /// entries lexicographically by `mode_order`.
    pub fn sort_permutation(&self, mode_order: &[usize]) -> Vec<u32> {
        SortedTuples::by_modes(self, mode_order).perm()
    }

    /// Sums duplicate coordinates, leaving entries sorted lexicographically
    /// by mode `0, 1, ..., N-1`. Duplicates are summed in entry order.
    /// Entries that sum to exactly zero are kept (they remain structurally
    /// significant for symbolic analysis).
    pub fn dedup_sum(&mut self) {
        let order: Vec<usize> = (0..self.ndim()).collect();
        let sorted = SortedTuples::by_modes(self, &order);
        let perm = sorted.perm();
        let distinct = sorted.distinct();
        let mut heads = Vec::with_capacity(distinct);
        let mut vals = Vec::with_capacity(distinct);
        let mut start = 0;
        for len in sorted.runs() {
            let run = &perm[start..start + len];
            let mut sum = self.vals[run[0] as usize];
            for &k in &run[1..] {
                sum += self.vals[k as usize];
            }
            heads.push(run[0]);
            vals.push(sum);
            start += len;
        }
        for col in &mut self.inds {
            *col = gather_u32(col, &heads);
        }
        self.vals = vals;
    }

    /// Returns a tensor with modes permuted: mode `d` of the result is mode
    /// `perm[d]` of `self`.
    ///
    /// # Panics
    /// Panics if `perm` is not a permutation of `0..ndim`.
    pub fn permute_modes(&self, perm: &[usize]) -> SparseTensor {
        assert_eq!(perm.len(), self.ndim(), "mode permutation arity mismatch");
        let mut seen = vec![false; self.ndim()];
        for &p in perm {
            assert!(p < self.ndim() && !seen[p], "invalid mode permutation");
            seen[p] = true;
        }
        SparseTensor {
            dims: perm.iter().map(|&p| self.dims[p]).collect(),
            inds: perm.iter().map(|&p| self.inds[p].clone()).collect(),
            vals: self.vals.clone(),
        }
    }

    /// Looks up the value at a coordinate by linear scan (test helper).
    pub fn get(&self, coords: &[usize]) -> f64 {
        assert_eq!(coords.len(), self.ndim());
        'outer: for k in 0..self.nnz() {
            for (d, &c) in coords.iter().enumerate() {
                if self.inds[d][k] as usize != c {
                    continue 'outer;
                }
            }
            return self.vals[k];
        }
        0.0
    }

    /// Keeps only the first `len` entries (no-op if `len >= nnz`).
    pub fn truncate(&mut self, len: usize) {
        for col in &mut self.inds {
            col.truncate(len);
        }
        self.vals.truncate(len);
    }

    /// Counts the number of distinct index values appearing in mode `d`
    /// (i.e., the number of non-empty slices).
    pub fn distinct_in_mode(&self, d: usize) -> usize {
        let mut sorted = self.inds[d].clone();
        sorted.sort_unstable();
        sorted.dedup();
        sorted.len()
    }
}

/// Gathers `src[perm[k]]` into position `k`.
pub(crate) fn gather_u32(src: &[Idx], perm: &[u32]) -> Vec<Idx> {
    perm.iter().map(|&p| src[p as usize]).collect()
}

/// Gathers `src[perm[k]]` into position `k`.
pub(crate) fn gather_f64(src: &[f64], perm: &[u32]) -> Vec<f64> {
    perm.iter().map(|&p| src[p as usize]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn try_from_entries_reports_arity_and_overflow() {
        use crate::error::TensorError;
        let err = SparseTensor::try_from_entries(vec![2, 2], &[(vec![0], 1.0)]).unwrap_err();
        assert_eq!(err, TensorError::ArityMismatch { expected: 2, got: 1 });
        let big = Idx::MAX as usize + 1;
        let err = SparseTensor::try_from_entries(vec![usize::MAX, 2], &[(vec![big, 0], 1.0)])
            .unwrap_err();
        assert_eq!(err, TensorError::IndexOverflow { mode: 0, coordinate: big });
        let ok = SparseTensor::try_from_entries(vec![2, 2], &[(vec![1, 0], 1.0)]);
        assert_eq!(ok.map(|t| t.nnz()), Ok(1));
    }

    fn toy() -> SparseTensor {
        // The 4x4x4x4 example shape from the dimension-tree literature.
        SparseTensor::from_entries(
            vec![4, 4, 4, 4],
            &[
                (vec![0, 1, 2, 3], 1.0),
                (vec![1, 2, 3, 0], 2.0),
                (vec![2, 3, 0, 1], 3.0),
                (vec![3, 0, 1, 2], 4.0),
                (vec![0, 1, 0, 1], 5.0),
                (vec![0, 1, 2, 0], 6.0),
                (vec![2, 3, 2, 3], 7.0),
            ],
        )
    }

    #[test]
    fn basic_accessors() {
        let t = toy();
        assert_eq!(t.ndim(), 4);
        assert_eq!(t.nnz(), 7);
        assert_eq!(t.dims(), &[4, 4, 4, 4]);
        assert_eq!(t.get(&[2, 3, 0, 1]), 3.0);
        assert_eq!(t.get(&[0, 0, 0, 0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn new_rejects_out_of_bounds_index() {
        SparseTensor::from_entries(vec![2, 2], &[(vec![0, 2], 1.0)]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn new_rejects_ragged_arrays() {
        SparseTensor::new(vec![2, 2], vec![vec![0, 1], vec![0]], vec![1.0, 2.0]);
    }

    #[test]
    fn density_of_toy() {
        let t = toy();
        assert!((t.density() - 7.0 / 256.0).abs() < 1e-15);
    }

    #[test]
    fn sort_by_modes_orders_lexicographically() {
        let mut t = toy();
        t.sort_by_modes(&[2, 0]);
        let m2 = t.mode_idx(2);
        assert!(m2.windows(2).all(|w| w[0] <= w[1]));
        // Within equal mode-2 index, mode 0 must be sorted.
        for k in 1..t.nnz() {
            if t.mode_idx(2)[k] == t.mode_idx(2)[k - 1] {
                assert!(t.mode_idx(0)[k] >= t.mode_idx(0)[k - 1]);
            }
        }
    }

    #[test]
    fn sort_preserves_entries() {
        let mut t = toy();
        let before = t.get(&[0, 1, 2, 3]);
        t.sort_by_modes(&[3, 1, 2, 0]);
        assert_eq!(t.nnz(), 7);
        assert_eq!(t.get(&[0, 1, 2, 3]), before);
    }

    #[test]
    fn dedup_sums_duplicates() {
        let mut t = SparseTensor::from_entries(
            vec![3, 3],
            &[(vec![1, 2], 1.5), (vec![0, 0], 1.0), (vec![1, 2], 2.5), (vec![0, 0], -1.0)],
        );
        t.dedup_sum();
        assert_eq!(t.nnz(), 2);
        assert_eq!(t.get(&[1, 2]), 4.0);
        assert_eq!(t.get(&[0, 0]), 0.0); // kept: structurally present, value 0
    }

    #[test]
    fn dedup_on_empty_is_noop() {
        let mut t = SparseTensor::empty(vec![5, 5, 5]);
        t.dedup_sum();
        assert_eq!(t.nnz(), 0);
    }

    #[test]
    fn permute_modes_round_trip() {
        let t = toy();
        let p = t.permute_modes(&[3, 2, 1, 0]);
        assert_eq!(p.get(&[3, 2, 1, 0]), t.get(&[0, 1, 2, 3]));
        let back = p.permute_modes(&[3, 2, 1, 0]);
        assert_eq!(back, t);
    }

    #[test]
    fn fro_norm_matches_manual() {
        let t = SparseTensor::from_entries(vec![2, 2], &[(vec![0, 0], 3.0), (vec![1, 1], 4.0)]);
        assert!((t.fro_norm() - 5.0).abs() < 1e-15);
    }

    #[test]
    fn distinct_in_mode_counts_nonempty_slices() {
        let t = toy();
        assert_eq!(t.distinct_in_mode(0), 4);
        let t2 = SparseTensor::from_entries(vec![10, 2], &[(vec![3, 0], 1.0), (vec![3, 1], 1.0)]);
        assert_eq!(t2.distinct_in_mode(0), 1);
    }

    #[test]
    fn storage_bytes_formula() {
        let t = toy();
        assert_eq!(t.storage_bytes(), 4 * 7 * 4 + 7 * 8);
    }
}
