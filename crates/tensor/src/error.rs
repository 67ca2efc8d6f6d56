//! Typed errors for fallible tensor construction.
//!
//! The panicking constructor [`crate::coo::SparseTensor::from_entries`]
//! delegates to [`crate::coo::SparseTensor::try_from_entries`], which
//! returns these errors, so library users embedding the kernels can
//! handle malformed inputs without unwinding.

use std::fmt;

/// A structural problem with a tensor operation's inputs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TensorError {
    /// A coordinate does not fit the compact index type ([`crate::coo::Idx`]).
    IndexOverflow {
        /// Mode the coordinate belongs to.
        mode: usize,
        /// The offending coordinate.
        coordinate: usize,
    },
    /// An entry's coordinate arity differs from the tensor order.
    ArityMismatch {
        /// Expected arity (the tensor order).
        expected: usize,
        /// The entry's arity.
        got: usize,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::IndexOverflow { mode, coordinate } => {
                write!(f, "coordinate {coordinate} in mode {mode} exceeds index type capacity")
            }
            TensorError::ArityMismatch { expected, got } => {
                write!(f, "entry arity {got} does not match tensor order {expected}")
            }
        }
    }
}

impl std::error::Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_name_the_problem() {
        let e = TensorError::IndexOverflow { mode: 2, coordinate: 1 << 40 };
        assert!(e.to_string().contains("mode 2"));
        let e = TensorError::ArityMismatch { expected: 3, got: 2 };
        assert!(e.to_string().contains("order 3"));
    }
}
