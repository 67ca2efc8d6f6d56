//! Runtime write-overlap detection for the scheduled MTTKRP kernels
//! (compiled only with the `audit` feature).
//!
//! The scheduled kernels ([`crate::mttkrp::mttkrp_par_into`],
//! [`crate::csf::CsfTensor::mttkrp_root_into`] and the dimension-tree
//! pull kernel) are race-free because each task owns *distinct* output
//! rows: COO groups entries by the target mode's index, CSF by root
//! slice, the dimension tree by node element, and split groups write
//! private slot rows. That disjointness is a structural claim about the
//! schedules and the group→row maps. [`crate::schedule::run_schedule`],
//! which all three kernels run through, checks it here on every call,
//! and global counters let an end-to-end run prove the detector actually
//! executed and found zero overlaps.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of disjointness checks performed since process start (or the
/// last [`reset_overlap_stats`]).
static ROW_CHECKS: AtomicU64 = AtomicU64::new(0);
/// Number of overlapping or out-of-bounds row claims observed.
static ROW_OVERLAPS: AtomicU64 = AtomicU64::new(0);

/// Outcome of one disjointness check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClaimOutcome {
    /// All claimed rows were in bounds and pairwise distinct.
    Disjoint,
    /// Two tasks claimed the same output row.
    Overlap {
        /// The doubly-claimed row.
        row: usize,
    },
    /// A task claimed a row outside the output matrix.
    OutOfBounds {
        /// The offending row index.
        row: usize,
        /// Number of rows in the output.
        nrows: usize,
    },
    /// A split group was declared with fewer than two slot rows — the
    /// scheduler should have demoted it to exclusive ownership.
    DegenerateSplit {
        /// The group's output row.
        row: usize,
        /// Its declared slot count.
        nslots: usize,
    },
}

/// Checks that `rows` are pairwise distinct and within `0..nrows`,
/// recording the outcome in the global counters. Returns the first
/// violation found, if any.
pub fn check_disjoint_rows<I>(rows: I, nrows: usize) -> ClaimOutcome
where
    I: IntoIterator<Item = usize>,
{
    ROW_CHECKS.fetch_add(1, Ordering::Relaxed);
    let mut claimed = vec![false; nrows];
    for row in rows {
        if row >= nrows {
            ROW_OVERLAPS.fetch_add(1, Ordering::Relaxed);
            return ClaimOutcome::OutOfBounds { row, nrows };
        }
        if claimed[row] {
            ROW_OVERLAPS.fetch_add(1, Ordering::Relaxed);
            return ClaimOutcome::Overlap { row };
        }
        claimed[row] = true;
    }
    ClaimOutcome::Disjoint
}

/// Checks the row claims of a *scheduled* kernel: `owned` rows are
/// written directly by exactly one task; `split` rows `(row, nslots)` are
/// produced by merging `nslots` privatized slot rows. All rows (owned and
/// split together) must be in bounds and pairwise distinct, and every
/// split must use at least two slots (a one-slot split means the
/// scheduler failed to demote a degenerate split back to ownership).
pub fn check_schedule_claims<I, J>(owned: I, split: J, nrows: usize) -> ClaimOutcome
where
    I: IntoIterator<Item = usize>,
    J: IntoIterator<Item = (usize, usize)>,
{
    ROW_CHECKS.fetch_add(1, Ordering::Relaxed);
    let mut claimed = vec![false; nrows];
    let mut claim = |row: usize| -> Option<ClaimOutcome> {
        if row >= nrows {
            ROW_OVERLAPS.fetch_add(1, Ordering::Relaxed);
            return Some(ClaimOutcome::OutOfBounds { row, nrows });
        }
        if claimed[row] {
            ROW_OVERLAPS.fetch_add(1, Ordering::Relaxed);
            return Some(ClaimOutcome::Overlap { row });
        }
        claimed[row] = true;
        None
    };
    for row in owned {
        if let Some(bad) = claim(row) {
            return bad;
        }
    }
    for (row, nslots) in split {
        if let Some(bad) = claim(row) {
            return bad;
        }
        if nslots < 2 {
            ROW_OVERLAPS.fetch_add(1, Ordering::Relaxed);
            return ClaimOutcome::DegenerateSplit { row, nslots };
        }
    }
    ClaimOutcome::Disjoint
}

/// [`check_schedule_claims`] that panics on violation, naming the kernel.
pub fn assert_schedule_claims<I, J>(owned: I, split: J, nrows: usize, kernel: &str)
where
    I: IntoIterator<Item = usize>,
    J: IntoIterator<Item = (usize, usize)>,
{
    match check_schedule_claims(owned, split, nrows) {
        ClaimOutcome::Disjoint => {}
        ClaimOutcome::Overlap { row } => {
            panic!("audit: {kernel}: two scheduled tasks claimed output row {row}")
        }
        ClaimOutcome::OutOfBounds { row, nrows } => {
            panic!("audit: {kernel}: claimed row {row} outside output of {nrows} rows")
        }
        ClaimOutcome::DegenerateSplit { row, nslots } => {
            panic!("audit: {kernel}: split of row {row} uses {nslots} slot(s); expected >= 2")
        }
    }
}

/// Number of disjointness checks performed so far.
pub fn overlap_checks() -> u64 {
    ROW_CHECKS.load(Ordering::Relaxed)
}

/// Number of violations observed so far (0 in a correct build).
pub fn overlap_count() -> u64 {
    ROW_OVERLAPS.load(Ordering::Relaxed)
}

/// Resets both counters (test isolation helper).
pub fn reset_overlap_stats() {
    ROW_CHECKS.store(0, Ordering::Relaxed);
    ROW_OVERLAPS.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// Held by the tests that read the process-wide overlap counter
    /// before and after a check, so no other test's deliberate overlap
    /// lands in between.
    static COUNTER: Mutex<()> = Mutex::new(());

    fn counter() -> MutexGuard<'static, ()> {
        COUNTER.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn disjoint_rows_pass() {
        let _counter = counter();
        let before = overlap_count();
        assert_eq!(check_disjoint_rows([0usize, 2, 1].into_iter(), 3), ClaimOutcome::Disjoint);
        assert_eq!(overlap_count(), before);
        assert!(overlap_checks() > 0);
    }

    #[test]
    fn duplicate_row_is_an_overlap() {
        let _counter = counter();
        let before = overlap_count();
        assert_eq!(
            check_disjoint_rows([0usize, 1, 1].into_iter(), 4),
            ClaimOutcome::Overlap { row: 1 }
        );
        assert_eq!(overlap_count(), before + 1);
    }

    #[test]
    fn out_of_bounds_row_is_flagged() {
        let _counter = counter();
        assert_eq!(
            check_disjoint_rows([5usize].into_iter(), 3),
            ClaimOutcome::OutOfBounds { row: 5, nrows: 3 }
        );
    }
}
