//! Row sets: which rows of a factor a mode update has to visit.
//!
//! A mode's *support* is the set of its indices that hold at least one
//! tensor nonzero. Every other row of the mode's MTTKRP is exactly `+0.0`,
//! so after one update the factor's row there is a fixed point of the
//! update rule and the dense passes can skip it (see [`crate::update`]).
//! The set is a bitset — one bit per row, a few KiB even for the tallest
//! modes — walked as maximal runs of consecutive members.

/// A set of row indices in `0..len`, stored as a bitset.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RowSet {
    words: Vec<u64>,
    len: usize,
}

impl RowSet {
    /// The set of the given indices over `len` rows (duplicates allowed).
    ///
    /// # Panics
    /// Panics if an index is not below `len`.
    pub fn from_indices(len: usize, indices: impl IntoIterator<Item = usize>) -> Self {
        let mut words = vec![0u64; len.div_ceil(64)];
        for i in indices {
            assert!(i < len, "row {i} out of range for {len} rows");
            words[i / 64] |= 1 << (i % 64);
        }
        RowSet { words, len }
    }

    /// Rows in the universe (members or not).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether row `i` is a member.
    pub fn contains(&self, i: usize) -> bool {
        i < self.len && self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// The first row in `from..end` (`end <= len`) whose bit equals
    /// `member`, or `end`.
    fn next_with(&self, from: usize, end: usize, member: bool) -> usize {
        // Flip the bits so that the sought rows read 1.
        let flip = if member { 0 } else { !0 };
        let first = from / 64;
        for (w, &x) in self.words.iter().enumerate().skip(first) {
            if w * 64 >= end {
                break;
            }
            let mut bits = x ^ flip;
            if w == first {
                bits &= !0u64 << (from % 64);
            }
            if bits != 0 {
                return (w * 64 + bits.trailing_zeros() as usize).min(end);
            }
        }
        end
    }

    /// The first maximal run `(start, end)` of member rows inside
    /// `from..end`, clipped to it.
    pub fn next_run(&self, from: usize, end: usize) -> Option<(usize, usize)> {
        let end = end.min(self.len);
        let s = self.next_with(from, end, true);
        (s < end).then(|| (s, self.next_with(s, end, false)))
    }
}

/// Calls `f(start, end)` for each maximal run of rows of `rows` inside
/// `lo..hi`, in order; `None` means every row (one run).
#[inline]
pub fn for_runs(rows: Option<&RowSet>, lo: usize, hi: usize, mut f: impl FnMut(usize, usize)) {
    match rows {
        None => {
            if lo < hi {
                f(lo, hi);
            }
        }
        Some(set) => {
            let mut at = lo;
            while let Some((s, e)) = set.next_run(at, hi) {
                f(s, e);
                at = e;
            }
        }
    }
}

/// The rows of `rows` inside `lo..hi` one at a time, in order (`None`:
/// every row), found a run at a time.
pub struct RowIter<'a> {
    set: Option<&'a RowSet>,
    next: usize,
    run_end: usize,
    end: usize,
}

impl<'a> RowIter<'a> {
    /// Iterates the rows of `rows` inside `lo..hi`.
    pub fn new(rows: Option<&'a RowSet>, lo: usize, hi: usize) -> Self {
        let run_end = if rows.is_none() { hi } else { lo };
        RowIter { set: rows, next: lo, run_end, end: hi }
    }
}

impl Iterator for RowIter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.next >= self.run_end {
            let (s, e) = self.set?.next_run(self.next, self.end)?;
            self.next = s;
            self.run_end = e;
        }
        let i = self.next;
        self.next += 1;
        Some(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_and_rows_match_membership() {
        let members = [0, 1, 2, 63, 64, 65, 100, 127, 128, 190, 191];
        let set = RowSet::from_indices(192, members.iter().copied().chain([2, 64]));
        for lo in [0, 1, 3, 63, 64, 66, 120, 128, 191] {
            for hi in [lo, lo + 1, 64, 65, 128, 150, 192, 300] {
                let want: Vec<usize> =
                    members.iter().copied().filter(|&i| i >= lo && i < hi).collect();
                let got: Vec<usize> = RowIter::new(Some(&set), lo, hi).collect();
                assert_eq!(got, want, "rows in {lo}..{hi}");
                let mut runs = Vec::new();
                for_runs(Some(&set), lo, hi, |s, e| runs.extend(s..e));
                assert_eq!(runs, want, "runs in {lo}..{hi}");
            }
        }
        assert_eq!(RowIter::new(None, 3, 7).collect::<Vec<_>>(), [3, 4, 5, 6]);
        assert!(set.contains(190) && !set.contains(189) && !set.contains(500));
        assert_eq!(RowSet::from_indices(0, []).next_run(0, 10), None);
    }
}
