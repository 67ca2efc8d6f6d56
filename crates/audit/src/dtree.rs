//! Validators for dimension trees and their symbolic structure.

use crate::{check_permutation, AuditError, Validate};
use adatm_dtree::{DimTree, SymbolicTree};

impl Validate for DimTree {
    /// Mode-partition consistency of the tree:
    ///
    /// * the root covers modes `0..ndim` exactly and has no parent;
    /// * every other node has a parent that precedes it (topological
    ///   order) and lists it among its children;
    /// * mode sets are strictly ascending;
    /// * `modes ∪ delta` reproduces the parent's mode set — the invariant
    ///   the TTV kernels' factor-row products rest on;
    /// * an internal node's children partition its mode set;
    /// * every mode's leaf lookup lands on a single-mode leaf.
    fn validate(&self) -> Result<(), AuditError> {
        if self.is_empty() {
            return Err(AuditError::LengthMismatch {
                what: "dimension tree nodes",
                expected: 1,
                got: 0,
            });
        }
        let n = self.ndim();
        let root = self.node(0);
        if root.parent.is_some() {
            return Err(AuditError::PartitionViolation {
                what: "dimension tree",
                node: 0,
                detail: "root must not have a parent",
            });
        }
        if root.modes != (0..n).collect::<Vec<_>>() {
            return Err(AuditError::PartitionViolation {
                what: "dimension tree",
                node: 0,
                detail: "root must cover all modes exactly once",
            });
        }
        for id in 0..self.len() {
            let node = self.node(id);
            if !node.modes.windows(2).all(|w| w[0] < w[1]) {
                return Err(AuditError::PartitionViolation {
                    what: "dimension tree",
                    node: id,
                    detail: "mode set must be strictly ascending",
                });
            }
            if id > 0 {
                let Some(parent) = node.parent else {
                    return Err(AuditError::PartitionViolation {
                        what: "dimension tree",
                        node: id,
                        detail: "non-root node has no parent",
                    });
                };
                if parent >= id {
                    return Err(AuditError::PartitionViolation {
                        what: "dimension tree",
                        node: id,
                        detail: "parent must precede child",
                    });
                }
                if !self.node(parent).children.contains(&id) {
                    return Err(AuditError::PartitionViolation {
                        what: "dimension tree",
                        node: id,
                        detail: "parent does not list this child",
                    });
                }
                let mut merged: Vec<usize> =
                    node.modes.iter().chain(node.delta.iter()).copied().collect();
                merged.sort_unstable();
                merged.dedup();
                if merged != self.node(parent).modes {
                    return Err(AuditError::PartitionViolation {
                        what: "dimension tree",
                        node: id,
                        detail: "modes and delta do not partition the parent's mode set",
                    });
                }
            }
            if !node.is_leaf() {
                let mut union: Vec<usize> = node
                    .children
                    .iter()
                    .flat_map(|&c| self.node(c).modes.iter().copied())
                    .collect();
                union.sort_unstable();
                if union != node.modes {
                    return Err(AuditError::PartitionViolation {
                        what: "dimension tree",
                        node: id,
                        detail: "children's mode sets do not partition the node's",
                    });
                }
            }
        }
        for m in 0..n {
            let leaf = self.leaf_of(m);
            if !self.node(leaf).is_leaf() || self.node(leaf).modes != [m] {
                return Err(AuditError::PartitionViolation {
                    what: "dimension tree",
                    node: leaf,
                    detail: "leaf lookup does not land on that mode's leaf",
                });
            }
        }
        Ok(())
    }
}

/// Validates a symbolic structure against its tree: per non-root node the
/// reduction sets must partition the parent's elements (CSR-shaped
/// `rptr`, no empty sets, `rperm` a permutation of `0..parent_len`) and
/// the per-mode index arrays must match the element count. These are the
/// invariants that make the numeric pass's per-element parallelism
/// race-free.
///
/// This is the `Result`-returning counterpart of the assertion-style
/// hooks the `audit` feature wires into the symbolic phase itself.
pub fn validate_symbolic(sym: &SymbolicTree, tree: &DimTree) -> Result<(), AuditError> {
    if sym.len() != tree.len() {
        return Err(AuditError::LengthMismatch {
            what: "symbolic nodes",
            expected: tree.len(),
            got: sym.len(),
        });
    }
    for id in 1..sym.len() {
        let node = sym.node(id);
        let parent = tree.node(id).parent.unwrap_or(0);
        let parent_len = sym.node(parent).len;
        let expected_rptr = if node.len == 0 { 1 } else { node.len + 1 };
        if node.rptr.len() != expected_rptr {
            return Err(AuditError::BrokenPointers {
                what: "symbolic reduction sets",
                level: id,
                pos: node.rptr.len(),
                detail: "rptr must have one entry per element plus a sentinel",
            });
        }
        let covered = if node.len == 0 { 0 } else { parent_len };
        if node.rptr.last() != Some(&covered) {
            return Err(AuditError::BrokenPointers {
                what: "symbolic reduction sets",
                level: id,
                pos: node.rptr.len() - 1,
                detail: "reduction sets must cover the parent exactly",
            });
        }
        for (pos, w) in node.rptr.windows(2).enumerate() {
            if w[0] >= w[1] {
                return Err(AuditError::BrokenPointers {
                    what: "symbolic reduction sets",
                    level: id,
                    pos: pos + 1,
                    detail: "empty reduction set",
                });
            }
        }
        check_permutation("symbolic rperm", node.rperm.iter().map(|&j| j as usize), parent_len)?;
        for col in &node.idx {
            if col.len() != node.len {
                return Err(AuditError::LengthMismatch {
                    what: "symbolic index array",
                    expected: node.len,
                    got: col.len(),
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use adatm_dtree::TreeShape;
    use adatm_tensor::SparseTensor;

    fn toy() -> SparseTensor {
        SparseTensor::from_entries(
            vec![4, 4, 4, 4],
            &[
                (vec![0, 1, 2, 3], 1.0),
                (vec![1, 2, 3, 0], 2.0),
                (vec![2, 3, 0, 1], 3.0),
                (vec![0, 1, 0, 1], 5.0),
                (vec![2, 3, 2, 3], 7.0),
            ],
        )
    }

    #[test]
    fn every_shape_family_validates() {
        for shape in [
            TreeShape::two_level(5),
            TreeShape::three_level(5),
            TreeShape::balanced_binary(5),
            TreeShape::left_deep(5),
        ] {
            assert_eq!(DimTree::from_shape(&shape).validate(), Ok(()));
        }
    }

    #[test]
    fn symbolic_structure_validates_for_every_shape() {
        let t = toy();
        for shape in [
            TreeShape::two_level(4),
            TreeShape::three_level(4),
            TreeShape::balanced_binary(4),
            TreeShape::left_deep(4),
        ] {
            let tree = DimTree::from_shape(&shape);
            let sym = SymbolicTree::build(&t, &tree);
            assert_eq!(validate_symbolic(&sym, &tree), Ok(()));
        }
    }

    #[test]
    fn symbolic_of_empty_tensor_validates() {
        let t = SparseTensor::empty(vec![4, 4, 4, 4]);
        let tree = DimTree::from_shape(&TreeShape::balanced_binary(4));
        let sym = SymbolicTree::build(&t, &tree);
        assert_eq!(validate_symbolic(&sym, &tree), Ok(()));
    }

    #[test]
    fn symbolic_node_count_mismatch_is_caught() {
        let t = toy();
        let big = DimTree::from_shape(&TreeShape::balanced_binary(4));
        let small = DimTree::from_shape(&TreeShape::two_level(4));
        let sym = SymbolicTree::build(&t, &small);
        assert!(matches!(
            validate_symbolic(&sym, &big),
            Err(AuditError::LengthMismatch { what: "symbolic nodes", .. })
        ));
    }
}
