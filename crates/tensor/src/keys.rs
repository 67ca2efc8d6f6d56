//! Packed sort keys: entry ids ordered by their index tuples.
//!
//! Every multi-mode sort on the setup path orders entry ids by the tuple
//! of their indices in a list of modes: dedup on load, the CSF build, the
//! symbolic pass and the per-mode sorted views. Comparing tuples column
//! by column chases one index array per mode on every comparison. This
//! module packs each tuple into one `u64` instead (the linearization ALTO
//! applies to whole coordinates), so ordering is a word sort and grouping
//! a word compare.
//!
//! Key format. Columns are packed most significant first, each in
//! `ceil(log2 dim)` bits, so the keys' integer order is the tuples'
//! lexicographic order. The entry id fills the low `ceil(log2 len)` bits
//! of the same word, so one unstable sort of the words orders entries by
//! tuple with ties by ascending id: the order a stable sort gives. When
//! the next column does not fit beside the id, the key so far is replaced
//! by its dense rank (a *fold*: sort, then number the distinct keys). If a
//! fold finds every key distinct, packing stops: later columns can
//! neither reorder nor merge distinct tuples. A column that does not fit
//! even beside a rank (32-bit indices next to a long id) is packed in
//! pieces, high bits first, with a fold between them.

use crate::coo::{Idx, SparseTensor};

/// One key column: an index array and the size of its mode (every index
/// in the array is below it).
pub type KeyColumn<'a> = (&'a [Idx], usize);

/// Entry ids sorted by their index tuples (ties by ascending id), with
/// the runs of equal tuples.
#[derive(Debug)]
pub struct SortedTuples {
    /// Ascending words: key in the high bits, entry id in the low
    /// `id_bits`.
    words: Vec<u64>,
    id_bits: u32,
}

/// Bits that hold every value below `n`: `ceil(log2 n)`, 0 when `n <= 1`.
fn bit_width(n: usize) -> u32 {
    usize::BITS - n.saturating_sub(1).leading_zeros()
}

impl SortedTuples {
    /// Sorts rows `0..len` of `cols`, most significant column first.
    ///
    /// # Panics
    /// Panics if `len` exceeds `2^31` or a column is shorter than `len`.
    pub fn new(cols: &[KeyColumn<'_>], len: usize) -> Self {
        Self::strided(cols, len, 1)
    }

    /// Sorts all entries of `t` by their indices in `modes`.
    pub fn by_modes(t: &SparseTensor, modes: &[usize]) -> Self {
        Self::strided(&columns(t, modes), t.nnz(), 1)
    }

    /// Sorts the stride sample of `t`'s entries (entries `0, stride,
    /// 2·stride, …`) by their indices in `modes`. Ids are sample
    /// positions: id `k` is entry `k·stride`. The planner's estimator
    /// counts by [`crate::groups`] instead; its tests count with this.
    pub fn sampled(t: &SparseTensor, modes: &[usize], stride: usize) -> Self {
        Self::strided(&columns(t, modes), t.nnz(), stride.max(1))
    }

    fn strided(cols: &[KeyColumn<'_>], len: usize, stride: usize) -> Self {
        let n = len.div_ceil(stride);
        assert!(n <= 1 << 31, "at most 2^31 entries can be keyed, got {n}");
        let id_bits = bit_width(n);
        let id_mask = (1u64 << id_bits) - 1;
        let budget = u64::BITS - id_bits;
        let mut words: Vec<u64> = (0..n as u64).collect();
        // Key bits in use, and whether `words` is in ascending order.
        let mut used = 0u32;
        let mut sorted = true;
        'cols: for &(col, dim) in cols {
            // Bits of this column still to pack.
            let mut left = bit_width(dim);
            while left > 0 {
                if used + left > budget {
                    let distinct = fold(&mut words, id_bits);
                    sorted = true;
                    if distinct == n {
                        break 'cols;
                    }
                    used = bit_width(distinct);
                }
                // After a fold `used <= id_bits <= 31`, so `take >= 2`.
                let take = left.min(budget - used);
                left -= take;
                let piece = (1u64 << take) - 1;
                for w in &mut words {
                    let id = *w & id_mask;
                    let bits = (u64::from(col[id as usize * stride]) >> left) & piece;
                    *w = ((((*w >> id_bits) << take) | bits) << id_bits) | id;
                }
                used += take;
                sorted = false;
            }
        }
        if !sorted {
            words.sort_unstable();
        }
        SortedTuples { words, id_bits }
    }

    /// Number of entries sorted.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether no entries were sorted.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Entry ids in tuple order, ties by ascending id: the stable sorting
    /// permutation.
    pub fn perm(&self) -> Vec<u32> {
        let mask = (1u64 << self.id_bits) - 1;
        self.words.iter().map(|&w| (w & mask) as u32).collect()
    }

    /// Lengths of the runs of equal tuples, in tuple order.
    pub fn runs(&self) -> impl Iterator<Item = usize> + '_ {
        let shift = self.id_bits;
        self.words.chunk_by(move |a, b| a >> shift == b >> shift).map(<[u64]>::len)
    }

    /// Number of distinct tuples.
    pub fn distinct(&self) -> usize {
        self.runs().count()
    }
}

/// The key columns of `t` for `modes`.
fn columns<'a>(t: &'a SparseTensor, modes: &[usize]) -> Vec<KeyColumn<'a>> {
    modes.iter().map(|&m| (t.mode_idx(m), t.dims()[m])).collect()
}

/// Sorts `words` and replaces each key by its dense rank, keeping the
/// ids; returns the number of distinct keys. The words stay ascending.
fn fold(words: &mut [u64], id_bits: u32) -> usize {
    words.sort_unstable();
    let id_mask = (1u64 << id_bits) - 1;
    let mut rank = 0u64;
    let mut prev = words.first().map_or(0, |&w| w >> id_bits);
    for w in words.iter_mut() {
        let key = *w >> id_bits;
        if key != prev {
            rank += 1;
            prev = key;
        }
        *w = (rank << id_bits) | (*w & id_mask);
    }
    if words.is_empty() {
        0
    } else {
        rank as usize + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Ordering;

    /// The comparator the packed keys replaced: a stable sort of the ids
    /// comparing the columns one by one.
    fn oracle_perm(cols: &[KeyColumn<'_>], len: usize, stride: usize) -> Vec<u32> {
        let mut perm: Vec<u32> = (0..len.div_ceil(stride) as u32).collect();
        perm.sort_by(|&a, &b| {
            for (col, _) in cols {
                match col[a as usize * stride].cmp(&col[b as usize * stride]) {
                    Ordering::Equal => continue,
                    ord => return ord,
                }
            }
            Ordering::Equal
        });
        perm
    }

    /// Run lengths of equal tuples along an oracle permutation.
    fn oracle_runs(cols: &[KeyColumn<'_>], perm: &[u32], stride: usize) -> Vec<usize> {
        let mut runs: Vec<usize> = Vec::new();
        for (pos, &p) in perm.iter().enumerate() {
            let same = pos > 0 && {
                let q = perm[pos - 1] as usize * stride;
                cols.iter().all(|(col, _)| col[p as usize * stride] == col[q])
            };
            match runs.last_mut() {
                Some(r) if same => *r += 1,
                _ => runs.push(1),
            }
        }
        runs
    }

    /// `(d, f1, f2)`: distinct tuples, singletons and doubletons.
    fn profile(runs: impl Iterator<Item = usize>) -> (usize, usize, usize) {
        runs.fold((0, 0, 0), |(d, f1, f2), r| {
            (d + 1, f1 + usize::from(r == 1), f2 + usize::from(r == 2))
        })
    }

    /// Asserts the packed keys agree with the oracle on `cols` at stride
    /// 1 and at a sampling stride.
    fn check(cols: &[KeyColumn<'_>], len: usize) {
        for stride in [1, 3] {
            let got = SortedTuples::strided(cols, len, stride);
            let want = oracle_perm(cols, len, stride);
            assert_eq!(got.perm(), want, "stride {stride}: permutation");
            let runs = oracle_runs(cols, &want, stride);
            assert_eq!(got.distinct(), runs.len(), "stride {stride}: distinct count");
            assert_eq!(
                profile(got.runs()),
                profile(runs.into_iter()),
                "stride {stride}: (d, f1, f2)"
            );
        }
    }

    /// Deterministic SplitMix64 stream.
    fn stream(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed;
        move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    /// `len` indices below `dim`, drawn from `distinct` values spread
    /// over all of `0..dim`, so that high and low bits both vary (every
    /// index when `distinct >= dim`); the first is always `dim - 1`.
    fn column(dim: usize, len: usize, distinct: usize, seed: u64) -> Vec<Idx> {
        let mut next = stream(seed);
        let span = distinct.clamp(1, dim) as u64;
        let step = dim as u64 / span;
        let mut col: Vec<Idx> = (0..len)
            .map(|_| {
                let r = next() % span;
                (r * step + r * 7919 % step) as Idx
            })
            .collect();
        if let Some(first) = col.first_mut() {
            *first = (dim - 1) as Idx;
        }
        col
    }

    fn check_owned(cols: &[(Vec<Idx>, usize)], len: usize) {
        let view: Vec<KeyColumn<'_>> = cols.iter().map(|(c, d)| (c.as_slice(), *d)).collect();
        check(&view, len);
    }

    #[test]
    fn bit_widths() {
        assert_eq!([0, 1, 2, 3, 4, 5].map(bit_width), [0, 0, 1, 2, 2, 3]);
        assert_eq!(bit_width(1 << 20), 20);
        assert_eq!(bit_width((1 << 20) + 1), 21);
        assert_eq!(bit_width(1 << 32), 32);
    }

    #[test]
    fn no_fold_one_fold_and_many_folds() {
        let len = 3_000;
        // 4 x 10 bits beside a 12-bit id: no fold. 6 x 10 bits: one fold.
        // 16 x 20 bits: a fold every two columns.
        for (modes, dim, distinct) in
            [(4, 1 << 10, 1 << 10), (6, 1 << 10, 4), (16, 1 << 20, 3), (16, 1 << 20, 1 << 20)]
        {
            let cols: Vec<(Vec<Idx>, usize)> =
                (0..modes).map(|m| (column(dim, len, distinct, 7 + m as u64), dim)).collect();
            check_owned(&cols, len);
        }
    }

    #[test]
    fn wide_indices_beside_a_long_id_are_packed_in_pieces() {
        // 70k rows: a 17-bit id leaves 47 key bits, and a 17-bit rank
        // plus a 32-bit column does not fit beside it.
        let len = 70_000;
        let dim = 1usize << 32;
        let cols: Vec<(Vec<Idx>, usize)> = vec![
            (column(dim, len, 40_000, 1), dim),
            (column(dim, len, 3, 2), dim),
            (column(dim, len, 60_000, 3), dim),
            (column(1 << 20, len, 5, 4), 1 << 20),
        ];
        check_owned(&cols, len);
    }

    #[test]
    fn degenerate_shapes() {
        // nnz 0 and 1, no columns, a 1-sized (0-bit) mode.
        for len in [0, 1, 2] {
            let cols: Vec<(Vec<Idx>, usize)> =
                vec![(vec![0; len], 1), (column(9, len, 9, 5), 9), (vec![0; len], 1)];
            check_owned(&cols, len);
            check_owned(&[], len);
        }
        // Every entry the same tuple, and only 0-bit columns.
        check_owned(&[(vec![4; 500], 5), (vec![0; 500], 1)], 500);
        check_owned(&[(vec![0; 500], 1)], 500);
    }

    #[test]
    fn heavy_duplicates() {
        let len = 20_000;
        let cols: Vec<(Vec<Idx>, usize)> = vec![
            (column(3, len, 2, 11), 3),
            (column(1 << 16, len, 2, 12), 1 << 16),
            (column(1 << 30, len, 3, 13), 1 << 30),
            (column(1 << 30, len, 2, 14), 1 << 30),
        ];
        check_owned(&cols, len);
    }

    #[test]
    fn tensor_constructors_key_the_given_modes() {
        let t = crate::gen::zipf_tensor(&[30, 2000, 7, 500], 4_000, &[0.9, 0.5, 0.0, 1.1], 3);
        let modes = [3, 0, 1];
        let cols = columns(&t, &modes);
        assert_eq!(SortedTuples::by_modes(&t, &modes).perm(), oracle_perm(&cols, t.nnz(), 1));
        let sampled = SortedTuples::sampled(&t, &modes, 7);
        assert_eq!(sampled.len(), t.nnz().div_ceil(7));
        assert_eq!(sampled.perm(), oracle_perm(&cols, t.nnz(), 7));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn packed_keys_match_the_comparator(
            len in 0usize..1_500,
            shape in proptest::collection::vec((0u32..=32, 1usize..50, 0u64..1_000), 0..=16),
        ) {
            // Each column: a mode of 2^bits rows (bits 0 means a dim of
            // 1), drawing from a few or many values.
            let cols: Vec<(Vec<Idx>, usize)> = shape
                .iter()
                .map(|&(bits, distinct, seed)| {
                    let dim = 1usize << bits;
                    (column(dim, len, distinct.pow(2), seed), dim)
                })
                .collect();
            check_owned(&cols, len);
        }
    }
}
