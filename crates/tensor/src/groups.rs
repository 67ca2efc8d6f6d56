//! Entry groupings refined one mode at a time.
//!
//! The planner sizes each candidate dimension-tree node by the number of
//! distinct projections of the nonzeros onto the node's modes, and it
//! asks for many overlapping mode sets. Grouping entries by their tuple
//! in a set of modes `P`, then splitting every group by the entries'
//! index in one more mode `m`, gives the grouping by `P ∪ {m}`. A group
//! of one entry stays one under any split, so a grouping keeps only its
//! groups of two or more entries and merely counts the rest. On sparse
//! high-order tensors two or three modes already make every projection
//! distinct; from there on a refinement has no group left to split and
//! costs nothing.
//!
//! The grouped entries are the *counted* ones: ids `0..n`, where id `k`
//! is row `k·stride` of every index column, so the same code groups all
//! entries (stride 1) or a stride sample of them. Splitting a group sorts
//! one word per entry, its index in the high 32 bits and its id in the
//! low 32, so the split needs no `O(dim)` table and no rank compression.

use crate::coo::Idx;

/// The profile of a grouping: its groups, and how many of them hold one
/// entry and two entries (the `d`, `f1` and `f2` of richness estimators).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GroupCounts {
    /// Number of groups (distinct tuples).
    pub distinct: usize,
    /// Groups of exactly one entry.
    pub singletons: usize,
    /// Groups of exactly two entries.
    pub doubletons: usize,
}

/// Counted entries grouped by their index tuples in a set of modes.
#[derive(Clone, Debug, Default)]
pub struct Grouping {
    counts: GroupCounts,
    /// Ids of the entries in groups of two or more, group after group.
    ids: Vec<u32>,
    /// End of each such group in `ids`.
    ends: Vec<u32>,
}

/// Buffers a refinement reuses from one call to the next.
#[derive(Debug, Default)]
pub struct RefineScratch {
    /// Sort words of the group being split, and the radix sort's second
    /// buffer.
    words: Vec<u64>,
    spare: Vec<u64>,
    /// The split groups of two or more, as in [`Grouping`].
    ids: Vec<u32>,
    ends: Vec<u32>,
}

/// Digit width of the radix sort: 2^11 counters fit in L1.
const RADIX_BITS: u32 = 11;

/// Groups of this many words or more are split by the radix sort, shorter
/// ones by `sort_unstable`. From 1024 words on, the radix sort was the
/// faster at every index width tried (random indices, ascending ids, one
/// core of a 2-vCPU Xeon VM): 3.1x at 7 bits, 1.9x at 14 bits and 1.1x
/// at 32 bits; at 512 words it lost at 32 bits (0.7x). Every mode's
/// first grouping sorts all `n` counted words, so most sorted words take
/// this path.
const RADIX_MIN_LEN: usize = 1 << 10;

impl Grouping {
    /// Groups the counted entries `0..n` by their index in `col`, where
    /// id `k` reads `col[k·stride]`.
    ///
    /// # Panics
    /// Panics if `n` is `2^32` or more, or `col` is shorter than the ids
    /// require.
    pub fn by_index(col: &[Idx], n: usize, stride: usize, scratch: &mut RefineScratch) -> Self {
        assert!(n < 1 << 32, "at most 2^32 - 1 entries can be grouped, got {n}");
        scratch.ids.clear();
        scratch.ends.clear();
        scratch.words.clear();
        scratch.words.extend((0..n).map(|k| word(col, k as u32, stride)));
        let mut counts = GroupCounts::default();
        scratch.split(&mut counts);
        scratch.finish(counts)
    }

    /// Splits every group by its entries' index in `col`, where id `k`
    /// reads `col[k·stride]`.
    ///
    /// # Panics
    /// Panics if `col` is shorter than the grouped ids require.
    pub fn refine(&self, col: &[Idx], stride: usize, scratch: &mut RefineScratch) -> Self {
        // Singletons stay singletons; every other group is split anew.
        let singletons = self.counts.singletons;
        let mut counts = GroupCounts { distinct: singletons, singletons, doubletons: 0 };
        scratch.ids.clear();
        scratch.ends.clear();
        let mut start = 0;
        for &end in &self.ends {
            let group = &self.ids[start..end as usize];
            start = end as usize;
            // Pairs, the commonest group on sparse data, need no sort.
            if let &[a, b] = group {
                if col[a as usize * stride] == col[b as usize * stride] {
                    counts.distinct += 1;
                    counts.doubletons += 1;
                    scratch.ids.extend([a, b]);
                    scratch.ends.push(scratch.ids.len() as u32);
                } else {
                    counts.distinct += 2;
                    counts.singletons += 2;
                }
                continue;
            }
            scratch.words.clear();
            scratch.words.extend(group.iter().map(|&id| word(col, id, stride)));
            scratch.split(&mut counts);
        }
        scratch.finish(counts)
    }

    /// The grouping's profile.
    pub fn counts(&self) -> GroupCounts {
        self.counts
    }

    /// Number of entries in groups of two or more.
    pub fn grouped(&self) -> usize {
        self.ids.len()
    }

    /// Whether every group holds one entry, so that no refinement can
    /// split anything.
    pub fn all_distinct(&self) -> bool {
        self.ends.is_empty()
    }
}

/// The sort word of counted entry `id`: its index above its id.
fn word(col: &[Idx], id: u32, stride: usize) -> u64 {
    (u64::from(col[id as usize * stride]) << 32) | u64::from(id)
}

impl RefineScratch {
    /// Sorts `words` and appends its runs of equal indices to `counts`,
    /// and the runs of two or more to `ids` and `ends`.
    fn split(&mut self, counts: &mut GroupCounts) {
        if self.words.len() < RADIX_MIN_LEN {
            self.words.sort_unstable();
        } else {
            self.radix_sort();
        }
        // Branch-free: whether a word starts and ends its run decides the
        // counts and whether its id and the run's end are kept (each slot
        // is written, and taken only by a kept value). Run lengths are
        // random on sparse data, so branches on them would mispredict.
        let (mut ids, mut ends) = (self.ids.len(), self.ends.len());
        let words = &self.words;
        self.ids.resize(ids + words.len(), 0);
        self.ends.resize(ends + words.len() / 2 + 1, 0);
        let (mut starts, mut prev_started) = (true, false);
        for (i, &w) in words.iter().enumerate() {
            let last = words.get(i + 1).is_none_or(|&next| next >> 32 != w >> 32);
            let single = starts & last;
            counts.distinct += usize::from(starts);
            counts.singletons += usize::from(single);
            counts.doubletons += usize::from(last & !starts & prev_started);
            self.ids[ids] = w as u32;
            ids += usize::from(!single);
            self.ends[ends] = ids as u32;
            ends += usize::from(last & !single);
            (starts, prev_started) = (last, starts);
        }
        self.ids.truncate(ids);
        self.ends.truncate(ends);
    }

    /// Orders `words` by index (the high 32 bits), a stable counting sort
    /// per digit, least significant digit first, over only the index bits
    /// in use. Ties keep their order, so words with ascending ids come out
    /// as `sort_unstable` leaves them. Memory: one more buffer of words and
    /// `2^RADIX_BITS` counters.
    fn radix_sort(&mut self) {
        let top = self.words.iter().fold(0, |acc, &w| acc | w) >> 32;
        let bits = u64::BITS - top.leading_zeros();
        let passes = bits.div_ceil(RADIX_BITS);
        if passes == 0 {
            return;
        }
        let digit = bits.div_ceil(passes);
        let mask = (1u64 << digit) - 1;
        let mut starts = [0u32; 1 << RADIX_BITS];
        self.spare.resize(self.words.len(), 0);
        for pass in 0..passes {
            let shift = 32 + pass * digit;
            starts.fill(0);
            for &w in &self.words {
                starts[((w >> shift) & mask) as usize] += 1;
            }
            let mut at = 0;
            for s in &mut starts {
                (*s, at) = (at, at + *s);
            }
            for &w in &self.words {
                let d = &mut starts[((w >> shift) & mask) as usize];
                self.spare[*d as usize] = w;
                *d += 1;
            }
            std::mem::swap(&mut self.words, &mut self.spare);
        }
    }

    /// The grouping the split runs make, in buffers of its own size.
    fn finish(&self, counts: GroupCounts) -> Grouping {
        Grouping { counts, ids: self.ids.to_vec(), ends: self.ends.to_vec() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn radix_sort_orders_words_as_sort_unstable() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut scratch = RefineScratch::default();
        // Index widths of no bits to 32 (one to three passes, digits that
        // split unevenly), ids ascending as the groupings hand them over.
        for bits in [0, 1, 7, 11, 12, 22, 23, 32] {
            for len in [0, 1, RADIX_MIN_LEN, 5_000] {
                let words: Vec<u64> = (0..len as u64)
                    .map(|id| next().checked_shr(64 - bits).unwrap_or(0) << 32 | id)
                    .collect();
                scratch.words.clone_from(&words);
                scratch.radix_sort();
                let mut want = words;
                want.sort_unstable();
                assert_eq!(scratch.words, want, "{bits}-bit indices, {len} words");
            }
        }
    }
}
