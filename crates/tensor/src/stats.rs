//! Dataset characteristics and projection statistics.
//!
//! The quantity driving every memoization decision is the number of
//! *distinct index tuples* a tensor's nonzeros project to on a subset of
//! modes: it is the element count of the corresponding dimension-tree
//! node, hence both the flop count of computing that node and the memory
//! it occupies. This module provides the exact count (used by the E1
//! dataset table, by tests, and as the oracle for the planner's cheaper
//! estimators).

use crate::coo::SparseTensor;
use crate::keys::SortedTuples;

/// Exact number of distinct projections of the nonzeros onto `modes`.
///
/// Counted over the entries sorted by packed keys ([`crate::keys`]),
/// which is exact for any order — no hashing, no collision risk.
///
/// # Panics
/// Panics if `modes` is empty or contains an out-of-range/duplicate mode.
pub fn distinct_projections(t: &SparseTensor, modes: &[usize]) -> usize {
    assert!(!modes.is_empty(), "projection requires at least one mode");
    let mut seen = vec![false; t.ndim()];
    for &m in modes {
        assert!(m < t.ndim() && !seen[m], "invalid projection mode set");
        seen[m] = true;
    }
    SortedTuples::by_modes(t, modes).distinct()
}

/// The collapse factor of a projection: `nnz / distinct_projections`.
///
/// 1.0 means no index overlap (the pessimistic extreme for memoization);
/// real web-scale tensors show 2–6x on half-mode splits.
pub fn collapse_factor(t: &SparseTensor, modes: &[usize]) -> f64 {
    let d = distinct_projections(t, modes);
    if d == 0 {
        1.0
    } else {
        t.nnz() as f64 / d as f64
    }
}

/// Summary statistics for the E1 dataset table.
#[derive(Clone, Debug)]
pub struct TensorStats {
    /// Tensor order.
    pub order: usize,
    /// Mode sizes.
    pub dims: Vec<usize>,
    /// Number of stored nonzeros.
    pub nnz: usize,
    /// `nnz / prod(dims)`.
    pub density: f64,
    /// Distinct index count per mode (non-empty slice count).
    pub distinct_per_mode: Vec<usize>,
    /// Collapse factor of the first-half / second-half mode split (the
    /// root split of a balanced binary dimension tree).
    pub half_split_collapse: (f64, f64),
}

impl TensorStats {
    /// Computes all statistics for a tensor.
    pub fn compute(t: &SparseTensor) -> Self {
        let n = t.ndim();
        let first: Vec<usize> = (0..n / 2).collect();
        let second: Vec<usize> = (n / 2..n).collect();
        let half_split_collapse = if n >= 2 {
            (collapse_factor(t, &first.clone()), collapse_factor(t, &second))
        } else {
            (1.0, 1.0)
        };
        TensorStats {
            order: n,
            dims: t.dims().to_vec(),
            nnz: t.nnz(),
            density: t.density(),
            distinct_per_mode: (0..n).map(|d| t.distinct_in_mode(d)).collect(),
            half_split_collapse,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{uniform_tensor, zipf_tensor};

    fn toy() -> SparseTensor {
        SparseTensor::from_entries(
            vec![4, 4, 4],
            &[
                (vec![0, 1, 2], 1.0),
                (vec![0, 1, 3], 1.0),
                (vec![0, 2, 2], 1.0),
                (vec![1, 1, 2], 1.0),
            ],
        )
    }

    #[test]
    fn distinct_projections_hand_checked() {
        let t = toy();
        assert_eq!(distinct_projections(&t, &[0]), 2);
        assert_eq!(distinct_projections(&t, &[1]), 2);
        assert_eq!(distinct_projections(&t, &[2]), 2);
        assert_eq!(distinct_projections(&t, &[0, 1]), 3); // (0,1),(0,2),(1,1)
        assert_eq!(distinct_projections(&t, &[1, 2]), 3); // (1,2),(1,3),(2,2)
        assert_eq!(distinct_projections(&t, &[0, 1, 2]), 4);
    }

    #[test]
    fn full_mode_set_counts_distinct_nonzeros() {
        let t = uniform_tensor(&[20, 20, 20], 500, 1);
        assert_eq!(distinct_projections(&t, &[0, 1, 2]), t.nnz());
    }

    #[test]
    fn projection_count_never_exceeds_nnz_or_space() {
        let t = zipf_tensor(&[15, 25, 35], 800, &[0.8, 0.8, 0.8], 2);
        for modes in [vec![0], vec![1, 2], vec![0, 2]] {
            let d = distinct_projections(&t, &modes);
            assert!(d <= t.nnz());
            let space: usize = modes.iter().map(|&m| t.dims()[m]).product();
            assert!(d <= space);
        }
    }

    #[test]
    fn skew_increases_collapse() {
        let dims = [200usize, 200, 200, 200];
        let flat = uniform_tensor(&dims, 4000, 5);
        let skewed = zipf_tensor(&dims, 4000, &[1.2; 4], 5);
        let cf_flat = collapse_factor(&flat, &[0, 1]);
        let cf_skew = collapse_factor(&skewed, &[0, 1]);
        assert!(
            cf_skew > cf_flat,
            "skewed collapse {cf_skew} should exceed uniform collapse {cf_flat}"
        );
    }

    #[test]
    fn stats_compute_is_consistent() {
        let t = toy();
        let s = TensorStats::compute(&t);
        assert_eq!(s.order, 3);
        assert_eq!(s.nnz, 4);
        assert_eq!(s.distinct_per_mode, vec![2, 2, 2]);
        assert!(s.density > 0.0);
        assert!(s.half_split_collapse.0 >= 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one mode")]
    fn empty_mode_set_rejected() {
        distinct_projections(&toy(), &[]);
    }
}
