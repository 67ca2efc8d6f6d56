//! Invariant audits for the sparse-tensor kernels.
//!
//! Every data structure the CP-ALS pipeline moves through — COO tensors,
//! CSF forests, dimension trees and their symbolic structure, factor
//! matrices — carries invariants the numeric kernels silently rely on:
//! sorted and deduplicated indices, CSR-shaped pointer arrays whose
//! reduction sets partition the parent, mode sets that partition on the
//! way down the tree, finite floating-point values.
//! A violation rarely crashes; it produces a *wrong decomposition*.
//!
//! This crate makes those invariants checkable: the [`Validate`] trait
//! returns a typed [`AuditError`] naming the first violated invariant,
//! precisely enough that a property test can corrupt a structure and
//! assert the *right* error comes back. The `audit` cargo feature of the
//! kernel crates (`adatm-tensor`, `adatm-dtree`, `adatm-core`) wires
//! these checks — plus the runtime write-overlap detector in
//! `adatm_tensor::audit` — into every stage boundary of CP-ALS.
//!
//! Validators are pure and allocation-light (`O(size)` scans, one bitset
//! for permutation checks); they never mutate what they check.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

mod coo;
mod csf;
mod dtree;
mod factors;

pub use coo::validate_canonical;
pub use csf::validate_csf_parts;
pub use dtree::validate_symbolic;
pub use factors::validate_factors;

/// The first violated invariant found by a validator.
///
/// `what` fields name the structure (or part) being audited; positions
/// are indices into that structure so a failure is reproducible.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AuditError {
    /// Two parts that must have equal lengths do not.
    LengthMismatch {
        /// The part whose length is wrong.
        what: &'static str,
        /// Required length.
        expected: usize,
        /// Actual length.
        got: usize,
    },
    /// An index exceeds its mode's size.
    IndexOutOfBounds {
        /// The audited structure.
        what: &'static str,
        /// The (original) mode the index belongs to.
        mode: usize,
        /// Position of the offending index within its array.
        pos: usize,
        /// The offending index.
        index: usize,
        /// The exclusive bound it must stay under.
        bound: usize,
    },
    /// A sequence that must be sorted is out of order at `pos`.
    Unsorted {
        /// The audited sequence.
        what: &'static str,
        /// Position whose element is smaller than its predecessor.
        pos: usize,
    },
    /// A coordinate (or node index) occurs twice where it must be unique.
    DuplicateIndex {
        /// The audited sequence.
        what: &'static str,
        /// Position of the second occurrence.
        pos: usize,
    },
    /// A floating-point value is NaN or infinite.
    NonFinite {
        /// The audited value array.
        what: &'static str,
        /// Flat position of the first non-finite value.
        pos: usize,
    },
    /// A CSR-style pointer array is malformed.
    BrokenPointers {
        /// The audited structure.
        what: &'static str,
        /// Level (CSF) or node id (dimension tree) of the pointer array.
        level: usize,
        /// Position of the offending pointer.
        pos: usize,
        /// Which pointer rule broke.
        detail: &'static str,
    },
    /// A derived count does not match what the structure accounts for
    /// (e.g. fiber counts vs. nonzero counts).
    CountMismatch {
        /// The audited count.
        what: &'static str,
        /// Required value.
        expected: usize,
        /// Actual value.
        got: usize,
    },
    /// A mode-set or element partition does not partition.
    PartitionViolation {
        /// The audited structure.
        what: &'static str,
        /// The node (or element) where the partition breaks.
        node: usize,
        /// Which partition rule broke.
        detail: &'static str,
    },
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditError::LengthMismatch { what, expected, got } => {
                write!(f, "{what}: length {got}, expected {expected}")
            }
            AuditError::IndexOutOfBounds { what, mode, pos, index, bound } => {
                write!(
                    f,
                    "{what}: index {index} at position {pos} exceeds mode {mode} bound {bound}"
                )
            }
            AuditError::Unsorted { what, pos } => {
                write!(f, "{what}: out of sorted order at position {pos}")
            }
            AuditError::DuplicateIndex { what, pos } => {
                write!(f, "{what}: duplicate at position {pos}")
            }
            AuditError::NonFinite { what, pos } => {
                write!(f, "{what}: non-finite value at position {pos}")
            }
            AuditError::BrokenPointers { what, level, pos, detail } => {
                write!(f, "{what}: pointer array at level {level}, position {pos}: {detail}")
            }
            AuditError::CountMismatch { what, expected, got } => {
                write!(f, "{what}: count {got}, expected {expected}")
            }
            AuditError::PartitionViolation { what, node, detail } => {
                write!(f, "{what}: node {node}: {detail}")
            }
        }
    }
}

impl std::error::Error for AuditError {}

/// A structure whose invariants can be audited.
///
/// `validate` returns the **first** violated invariant (scan order is
/// deterministic), or `Ok(())` when every invariant holds. Implementations
/// exist for [`adatm_tensor::SparseTensor`], [`adatm_tensor::CsfTensor`],
/// [`adatm_dtree::DimTree`] and [`adatm_linalg::Mat`].
pub trait Validate {
    /// Checks every invariant; `Err` names the first violation.
    fn validate(&self) -> Result<(), AuditError>;
}

/// Checks that `seq` is a permutation of `0..len` (helper shared by the
/// CSF and symbolic validators).
fn check_permutation(
    what: &'static str,
    seq: impl Iterator<Item = usize>,
    len: usize,
) -> Result<(), AuditError> {
    let mut seen = vec![false; len];
    let mut count = 0usize;
    for (pos, v) in seq.enumerate() {
        if v >= len {
            return Err(AuditError::IndexOutOfBounds { what, mode: 0, pos, index: v, bound: len });
        }
        if seen[v] {
            return Err(AuditError::DuplicateIndex { what, pos });
        }
        seen[v] = true;
        count += 1;
    }
    if count != len {
        return Err(AuditError::LengthMismatch { what, expected: len, got: count });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_locate_the_violation() {
        let e = AuditError::Unsorted { what: "csf fiber", pos: 3 };
        assert_eq!(e.to_string(), "csf fiber: out of sorted order at position 3");
        let e = AuditError::NonFinite { what: "factor 1", pos: 7 };
        assert!(e.to_string().contains("non-finite"));
        let e = AuditError::BrokenPointers {
            what: "csf",
            level: 1,
            pos: 2,
            detail: "empty child range",
        };
        assert!(e.to_string().contains("level 1"));
    }

    #[test]
    fn permutation_helper_catches_all_violations() {
        assert_eq!(check_permutation("p", [1usize, 0, 2].into_iter(), 3), Ok(()));
        assert!(matches!(
            check_permutation("p", [0usize, 0].into_iter(), 2),
            Err(AuditError::DuplicateIndex { .. })
        ));
        assert!(matches!(
            check_permutation("p", [3usize].into_iter(), 2),
            Err(AuditError::IndexOutOfBounds { .. })
        ));
        assert!(matches!(
            check_permutation("p", [0usize].into_iter(), 2),
            Err(AuditError::LengthMismatch { .. })
        ));
    }
}
