//! Per-mode sorted views over a COO tensor.
//!
//! A [`SortedModeView`] for mode `n` is a permutation of entry ids grouped
//! by their mode-`n` index, plus the group boundaries. It gives the COO
//! MTTKRP a race-free parallel schedule: each group writes exactly one row
//! of the output matrix, so groups can be processed by different threads
//! without atomics or locks — the same "owner computes the row" structure
//! the dimension-tree engine uses for its reduction sets.

use crate::coo::{Idx, SparseTensor};
use crate::keys::SortedTuples;

/// Entry ids of a tensor grouped by their index in one mode.
#[derive(Clone, Debug)]
pub struct SortedModeView {
    mode: usize,
    /// Distinct mode indices, ascending; one per group.
    keys: Vec<Idx>,
    /// Group boundaries into `perm`: group `g` is `perm[ptr[g]..ptr[g+1]]`.
    ptr: Vec<usize>,
    /// Entry ids, grouped by mode index.
    perm: Vec<u32>,
}

impl SortedModeView {
    /// Builds the view for `mode`: one packed-key sort of the entries by
    /// their mode index, then by the other modes' indices, largest mode
    /// first, then by entry id.
    ///
    /// The secondary order is a locality optimization for "long-mode"
    /// groups (small mode dimension, many entries per group): the MTTKRP
    /// entry kernel gathers one factor row per non-target mode per entry,
    /// and on a mode whose groups span thousands of entries those reads
    /// land anywhere in factor matrices that are megabytes large. Walking
    /// a group in ascending largest-mode order turns the dominant gather
    /// stream into a monotone address walk the hardware prefetcher can
    /// follow. Group membership is unchanged, so the race-freedom story
    /// is untouched; only the in-group summation order (and therefore
    /// floating-point rounding, within tolerance) differs.
    pub fn build(t: &SparseTensor, mode: usize) -> Self {
        let mut order: Vec<usize> = (0..t.ndim()).filter(|&d| d != mode).collect();
        order.sort_by_key(|&d| std::cmp::Reverse(t.dims()[d]));
        order.insert(0, mode);
        let perm = SortedTuples::by_modes(t, &order).perm();
        let idx = t.mode_idx(mode);
        let mut keys: Vec<Idx> = Vec::new();
        let mut ptr = Vec::new();
        for (pos, &e) in perm.iter().enumerate() {
            let i = idx[e as usize];
            if keys.last() != Some(&i) {
                keys.push(i);
                ptr.push(pos);
            }
        }
        ptr.push(perm.len());
        SortedModeView { mode, keys, ptr, perm }
    }

    /// The mode this view groups by.
    pub fn mode(&self) -> usize {
        self.mode
    }

    /// Number of non-empty groups (distinct mode indices).
    pub fn num_groups(&self) -> usize {
        self.keys.len()
    }

    /// The mode index shared by all entries of group `g`.
    pub fn key(&self, g: usize) -> Idx {
        self.keys[g]
    }

    /// Entry ids of group `g`.
    pub fn group(&self, g: usize) -> &[u32] {
        &self.perm[self.ptr[g]..self.ptr[g + 1]]
    }

    /// Iterates `(mode_index, entry_ids)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Idx, &[u32])> {
        (0..self.num_groups()).map(move |g| (self.key(g), self.group(g)))
    }

    /// All distinct keys (ascending).
    pub fn keys(&self) -> &[Idx] {
        &self.keys
    }

    /// Bytes of index structure: the keys, the group boundaries and the
    /// entry permutation.
    pub fn structure_bytes(&self) -> usize {
        self.keys.len() * std::mem::size_of::<Idx>()
            + self.ptr.len() * std::mem::size_of::<usize>()
            + self.perm.len() * std::mem::size_of::<u32>()
    }

    /// Per-group entry counts — the nnz weights the scheduler balances.
    pub fn group_weights(&self) -> Vec<usize> {
        (0..self.num_groups()).map(|g| self.group(g).len()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> SparseTensor {
        SparseTensor::from_entries(
            vec![4, 3],
            &[
                (vec![2, 0], 1.0),
                (vec![0, 1], 2.0),
                (vec![2, 2], 3.0),
                (vec![0, 0], 4.0),
                (vec![3, 1], 5.0),
            ],
        )
    }

    #[test]
    fn groups_partition_all_entries() {
        let t = toy();
        for mode in 0..2 {
            let v = SortedModeView::build(&t, mode);
            let mut seen: Vec<u32> = v.iter().flat_map(|(_, g)| g.iter().copied()).collect();
            seen.sort_unstable();
            assert_eq!(seen, vec![0, 1, 2, 3, 4], "mode {mode}");
        }
    }

    #[test]
    fn group_members_share_key() {
        let t = toy();
        let v = SortedModeView::build(&t, 0);
        for (key, grp) in v.iter() {
            for &e in grp {
                assert_eq!(t.mode_idx(0)[e as usize], key);
            }
        }
    }

    #[test]
    fn empty_slices_are_skipped() {
        let t = toy();
        let v = SortedModeView::build(&t, 0);
        // Mode-0 index 1 never occurs.
        assert_eq!(v.num_groups(), 3);
        assert_eq!(v.keys(), &[0, 2, 3]);
    }

    #[test]
    fn keys_ascending_and_counts_match() {
        let t = toy();
        let v = SortedModeView::build(&t, 1);
        assert_eq!(v.keys(), &[0, 1, 2]);
        assert_eq!(v.group(0).len(), 2); // indices 0: entries (2,0),(0,0)
        assert_eq!(v.group(1).len(), 2);
        assert_eq!(v.group(2).len(), 1);
    }

    #[test]
    fn empty_tensor_has_no_groups() {
        let t = SparseTensor::empty(vec![5, 5]);
        let v = SortedModeView::build(&t, 0);
        assert_eq!(v.num_groups(), 0);
    }
}
