//! Symbolic TTV: the one-time structural analysis of a dimension tree.
//!
//! Because every one of a node's `R` tensors shares the nonzero pattern of
//! the input tensor's projection onto the node's mode set, the sparsity
//! structure of the whole tree can be computed **once** and reused across
//! all CP-ALS iterations, ranks-`R` restarts, and initializations. For
//! each non-root node this pass produces:
//!
//! * `idx` — the node's distinct index tuples (one array per mode in
//!   `µ(t)`), obtained by projecting the parent's tuples and deduplicating;
//! * `rptr`/`rperm` — the *reduction set* of each tuple: the parent
//!   elements that sum into it (CSR layout).
//!
//! The numeric pass then updates each node element independently — the
//! reduction sets are disjoint by construction, which is what makes the
//! per-element parallelism race-free. No inverse map is stored: the
//! scatter kernel's schedule derives one from `rptr`/`rperm` when it is
//! built (see [`crate::sched::ScatterSchedule`]).

use crate::error::DtreeError;
use crate::tree::DimTree;
use adatm_tensor::coo::Idx;
use adatm_tensor::keys::{KeyColumn, SortedTuples};
use adatm_tensor::SparseTensor;

/// Symbolic structure of one tree node.
#[derive(Clone, Debug, Default)]
pub struct SymbolicNode {
    /// Distinct index tuples: `idx[k][e]` is the mode-`µ(t)[k]` index of
    /// element `e`. Empty (no arrays) for the root, whose elements are the
    /// tensor entries themselves.
    pub idx: Vec<Vec<Idx>>,
    /// Reduction-set boundaries: element `e` reduces parent elements
    /// `rperm[rptr[e]..rptr[e+1]]`. Empty for the root.
    pub rptr: Vec<usize>,
    /// Parent element ids, grouped by reducing element and ascending
    /// within each group (best-possible access locality on the parent's
    /// value matrix).
    pub rperm: Vec<u32>,
    /// Number of elements (distinct tuples).
    pub len: usize,
    /// Whether `rperm` is the identity permutation — true for the first
    /// child of every non-root node under the sort-key layout, letting
    /// the numeric kernel stream the parent without indirection.
    pub sequential: bool,
}

/// A node is eligible for the scatter ("push") kernel when it has at most
/// this many elements ...
const SCATTER_MAX_CHILD: usize = 1 << 16;
/// ... and its parent is at least this factor larger.
const SCATTER_MIN_RATIO: usize = 4;

/// Minimum elements a TTMV streams before it gets a parallel schedule:
/// a pull node's own elements, a scatter node's parent elements.
pub const PAR_THRESHOLD: usize = 4096;

/// Whether a node of `child_elems` elements computed from a parent of
/// `parent_elems` is eligible for the scatter ("push") kernel: the child
/// is small enough to stay cache-resident while the much larger parent
/// streams.
pub fn scatter_eligible(child_elems: usize, parent_elems: usize) -> bool {
    child_elems <= SCATTER_MAX_CHILD && parent_elems >= SCATTER_MIN_RATIO * child_elems.max(1)
}

/// Whether a node of `child_elems` elements computed from a parent of
/// `parent_elems` runs the scatter kernel at `threads` workers: it is
/// eligible and its parent streams under a schedule (more than one
/// thread, at least [`PAR_THRESHOLD`] parent elements). Every other TTMV,
/// an eligible node without a schedule included, runs the pull kernel.
/// The engine, its [`crate::NodeKernelClass`] report and the calibrated
/// cost model all classify nodes with this one rule (the model cannot
/// see the first-child sequential case, which always pulls).
pub fn scatter_scheduled(child_elems: usize, parent_elems: usize, threads: usize) -> bool {
    threads > 1 && parent_elems >= PAR_THRESHOLD && scatter_eligible(child_elems, parent_elems)
}

/// Symbolic structure for every node of a dimension tree over one tensor.
#[derive(Clone, Debug)]
pub struct SymbolicTree {
    nodes: Vec<SymbolicNode>,
    /// (dims, nnz) of the tensor this structure was computed for; numeric
    /// passes assert against it.
    fingerprint: (Vec<usize>, usize),
}

impl SymbolicTree {
    /// Runs the symbolic TTV pass for `tree` over `tensor`.
    ///
    /// Cost: one sort of the parent's elements per non-root node, on
    /// packed `u64` keys of the node's modes (`O(E_p log E_p)` word
    /// compares, plus one rank fold per mode that does not fit beside the
    /// element id; see [`adatm_tensor::keys`]). Duplicate coordinates in
    /// `tensor` are tolerated (they simply form a reduction set of more
    /// than one element at the first level).
    pub fn build(tensor: &SparseTensor, tree: &DimTree) -> Self {
        Self::try_build(tensor, tree).unwrap_or_else(|e| panic!("symbolic pass failed: {e}"))
    }

    /// [`SymbolicTree::build`] reporting broken tree invariants as typed
    /// errors instead of panicking. A [`DimTree`] produced by
    /// [`DimTree::from_shape`] never triggers them; this is the defensive
    /// boundary for trees assembled by other means.
    pub fn try_build(tensor: &SparseTensor, tree: &DimTree) -> Result<Self, DtreeError> {
        assert_eq!(tree.ndim(), tensor.ndim(), "tree and tensor order mismatch");
        let mut nodes: Vec<SymbolicNode> = vec![SymbolicNode::default(); tree.len()];
        nodes[0].len = tensor.nnz();
        // Parents precede children in a DimTree, so a single forward pass
        // sees every parent's structure before its children need it.
        //
        // Sort-key layout: each node's elements are ordered by its *first
        // child's* modes first, then the rest of its mode set. A child's
        // symbolic pass sorts the parent's elements by the child's modes;
        // with this layout the first (typically heaviest) child finds the
        // parent already sorted, so its reduction sets walk the parent's
        // value matrix sequentially — the dominant memory stream of the
        // numeric kernels.
        for id in 1..tree.len() {
            let parent = tree.node(id).parent.ok_or(DtreeError::MissingParent { node: id })?;
            let key_modes = sort_key_modes(tree, id);
            // Resolve the parent's index array for each key mode: the
            // tensor's arrays if the parent is the root, else the parent's
            // own symbolic arrays.
            let col_of = |m: usize| -> Result<&[Idx], DtreeError> {
                if parent == 0 {
                    Ok(tensor.mode_idx(m))
                } else {
                    let pos = tree
                        .node(parent)
                        .modes
                        .iter()
                        .position(|&pm| pm == m)
                        .ok_or(DtreeError::ModeNotInParent { node: id, mode: m })?;
                    Ok(nodes[parent].idx[pos].as_slice())
                }
            };
            let key_cols: Vec<KeyColumn<'_>> = key_modes
                .iter()
                .map(|&m| Ok((col_of(m)?, tensor.dims()[m])))
                .collect::<Result<_, DtreeError>>()?;
            // idx arrays are stored in ascending mode order regardless of
            // the sort-key order.
            let own_modes = &tree.node(id).modes;
            let own_positions: Vec<usize> = own_modes
                .iter()
                .map(|&m| {
                    key_modes
                        .iter()
                        .position(|&k| k == m)
                        .ok_or(DtreeError::ModeNotInKey { node: id, mode: m })
                })
                .collect::<Result<_, _>>()?;
            let built = build_node(&key_cols, &own_positions, nodes[parent].len);
            nodes[id] = built;
        }
        let out = SymbolicTree { nodes, fingerprint: (tensor.dims().to_vec(), tensor.nnz()) };
        #[cfg(feature = "audit")]
        out.audit_invariants(tree);
        Ok(out)
    }

    /// Borrows the symbolic structure of node `id`.
    pub fn node(&self, id: usize) -> &SymbolicNode {
        &self.nodes[id]
    }

    /// Number of nodes (equals the tree's).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether there are no nodes (never for a built tree).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Asserts the structure belongs to `tensor` (cheap fingerprint,
    /// compared without allocating: it runs on every MTTKRP call).
    pub fn check_tensor(&self, tensor: &SparseTensor) {
        assert!(
            self.fingerprint.0 == tensor.dims() && self.fingerprint.1 == tensor.nnz(),
            "symbolic structure was built for a different tensor"
        );
    }

    /// Total bytes of index arrays and reduction sets across all nodes —
    /// the symbolic storage reported in the memory experiment.
    pub fn index_bytes(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| {
                n.idx.iter().map(|c| c.len() * std::mem::size_of::<Idx>()).sum::<usize>()
                    + n.rptr.len() * std::mem::size_of::<usize>()
                    + n.rperm.len() * std::mem::size_of::<u32>()
            })
            .sum()
    }

    /// Element counts per node (node 0 = nnz).
    pub fn element_counts(&self) -> Vec<usize> {
        self.nodes.iter().map(|n| n.len).collect()
    }

    /// Audits the symbolic invariants every numeric kernel relies on:
    /// per non-root node, the reduction sets partition the parent's
    /// elements (CSR shape, strictly increasing boundaries, `rperm` a
    /// permutation of `0..parent_len`) and the index arrays match the
    /// element count. Runs automatically at the end of the symbolic phase
    /// when the `audit` feature is enabled.
    ///
    /// # Panics
    /// Panics with a description of the first broken invariant.
    #[cfg(feature = "audit")]
    pub fn audit_invariants(&self, tree: &DimTree) {
        for id in 1..self.nodes.len() {
            let node = &self.nodes[id];
            let parent = tree.node(id).parent.unwrap_or(0);
            let parent_len = self.nodes[parent].len;
            let expected_rptr = if node.len == 0 { 1 } else { node.len + 1 };
            assert_eq!(
                node.rptr.len(),
                expected_rptr,
                "audit: node {id}: rptr length {} for {} elements",
                node.rptr.len(),
                node.len
            );
            assert_eq!(
                node.rptr.last().copied(),
                Some(if node.len == 0 { 0 } else { parent_len }),
                "audit: node {id}: reduction sets do not cover the parent"
            );
            assert!(
                node.rptr.windows(2).all(|w| w[0] < w[1]),
                "audit: node {id}: empty reduction set"
            );
            assert_eq!(node.rperm.len(), parent_len, "audit: node {id}: rperm length mismatch");
            let mut seen = vec![false; parent_len];
            for &j in &node.rperm {
                assert!(
                    (j as usize) < parent_len && !seen[j as usize],
                    "audit: node {id}: rperm is not a permutation of the parent's elements"
                );
                seen[j as usize] = true;
            }
            for (k, col) in node.idx.iter().enumerate() {
                assert_eq!(col.len(), node.len, "audit: node {id}: idx array {k} length mismatch");
            }
        }
    }
}

/// The mode order a node's elements are sorted by: first child's key
/// order first (recursively), then the remaining children's. Leaves sort
/// by their single mode.
fn sort_key_modes(tree: &DimTree, id: usize) -> Vec<usize> {
    let node = tree.node(id);
    if node.is_leaf() {
        return node.modes.clone();
    }
    let mut key = Vec::with_capacity(node.modes.len());
    for &c in &node.children {
        key.extend(sort_key_modes(tree, c));
    }
    key
}

/// Builds one node's symbolic structure from the parent's index columns.
///
/// `key_cols` are the parent's index arrays for the node's modes in the
/// node's *sort-key* order, each with its mode's size; `own_positions[k]`
/// locates the node's `k`-th ascending mode within `key_cols` (for
/// extracting the stored `idx` arrays).
pub(crate) fn build_node(
    key_cols: &[KeyColumn<'_>],
    own_positions: &[usize],
    parent_len: usize,
) -> SymbolicNode {
    // Ties break by ascending parent id, so each reduction set lists its
    // parent elements in ascending order: the best locality on the
    // parent's value matrix, and what makes the first child's identity
    // permutation detectable.
    let sorted = SortedTuples::new(key_cols, parent_len);
    let perm = sorted.perm();
    let len = sorted.distinct();
    let mut idx: Vec<Vec<Idx>> = vec![Vec::with_capacity(len); own_positions.len()];
    let mut rptr: Vec<usize> = Vec::with_capacity(len + 1);
    rptr.push(0);
    let mut start = 0;
    for run in sorted.runs() {
        let head = perm[start] as usize;
        for (col, &kpos) in idx.iter_mut().zip(own_positions.iter()) {
            col.push(key_cols[kpos].0[head]);
        }
        start += run;
        rptr.push(start);
    }
    let sequential = perm.iter().enumerate().all(|(i, &p)| p as usize == i);
    SymbolicNode { idx, rptr, rperm: perm, len, sequential }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::TreeShape;
    use adatm_tensor::gen::zipf_tensor;
    use adatm_tensor::stats::distinct_projections;

    /// The 4x4x4x4, 7-nonzero example tensor from the dimension-tree
    /// literature's worked figure.
    fn toy() -> SparseTensor {
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

    fn bdt4(t: &SparseTensor) -> (DimTree, SymbolicTree) {
        let tree = DimTree::from_shape(&TreeShape::balanced_binary(t.ndim()));
        let sym = SymbolicTree::build(t, &tree);
        (tree, sym)
    }

    #[test]
    fn node_element_counts_match_projection_counts() {
        let t = toy();
        let (tree, sym) = bdt4(&t);
        for id in 1..tree.len() {
            let want = distinct_projections(&t, &tree.node(id).modes);
            assert_eq!(sym.node(id).len, want, "node {id} {:?}", tree.node(id).modes);
        }
    }

    #[test]
    fn reduction_sets_partition_parent_elements() {
        let t = zipf_tensor(&[20, 30, 25, 15], 400, &[0.7; 4], 3);
        let (tree, sym) = bdt4(&t);
        for id in 1..tree.len() {
            let parent = tree.node(id).parent.unwrap();
            let node = sym.node(id);
            assert_eq!(*node.rptr.last().unwrap(), sym.node(parent).len, "node {id}");
            assert_eq!(node.rptr.len(), node.len + 1, "node {id}");
            let mut seen: Vec<u32> = node.rperm.clone();
            seen.sort_unstable();
            let expect: Vec<u32> = (0..sym.node(parent).len as u32).collect();
            assert_eq!(seen, expect, "node {id}");
            assert!(node.rptr.windows(2).all(|w| w[0] < w[1]), "empty reduction set");
        }
    }

    #[test]
    fn reduction_members_project_to_their_tuple() {
        let t = toy();
        let (tree, sym) = bdt4(&t);
        // Check the {0,1} child of the root directly against the tensor.
        let c = tree.node(0).children[0];
        assert_eq!(tree.node(c).modes, vec![0, 1]);
        let node = sym.node(c);
        for e in 0..node.len {
            for &j in &node.rperm[node.rptr[e]..node.rptr[e + 1]] {
                assert_eq!(t.mode_idx(0)[j as usize], node.idx[0][e]);
                assert_eq!(t.mode_idx(1)[j as usize], node.idx[1][e]);
            }
        }
    }

    #[test]
    fn toy_tensor_known_projections() {
        // Mode-{0,1} projections of the toy tensor: (0,1),(1,2),(2,3),(3,0)
        // — entries 1, 5, 6 share (0,1).
        let t = toy();
        let (tree, sym) = bdt4(&t);
        let c = tree.node(0).children[0];
        assert_eq!(sym.node(c).len, 4);
        // The (0,1) tuple must have a reduction set of size 3.
        let node = sym.node(c);
        let e = (0..node.len)
            .find(|&e| node.idx[0][e] == 0 && node.idx[1][e] == 1)
            .expect("(0,1) tuple present");
        assert_eq!(node.rptr[e + 1] - node.rptr[e], 3);
    }

    #[test]
    fn deep_tree_grandchildren_consistent() {
        let t = zipf_tensor(&[12, 18, 9, 14, 11, 16], 600, &[0.8; 6], 8);
        let tree = DimTree::from_shape(&TreeShape::balanced_binary(6));
        let sym = SymbolicTree::build(&t, &tree);
        for id in 1..tree.len() {
            let want = distinct_projections(&t, &tree.node(id).modes);
            assert_eq!(sym.node(id).len, want, "node {id}");
        }
    }

    #[test]
    fn two_level_leaves_have_slice_counts() {
        let t = toy();
        let tree = DimTree::from_shape(&TreeShape::two_level(4));
        let sym = SymbolicTree::build(&t, &tree);
        for m in 0..4 {
            assert_eq!(sym.node(tree.leaf_of(m)).len, t.distinct_in_mode(m));
        }
    }

    #[test]
    fn empty_tensor_symbolic_is_empty() {
        let t = SparseTensor::empty(vec![4, 4, 4, 4]);
        let (tree, sym) = bdt4(&t);
        for id in 1..tree.len() {
            assert_eq!(sym.node(id).len, 0);
            assert_eq!(sym.node(id).rptr, vec![0]);
        }
    }

    #[test]
    fn fingerprint_rejects_other_tensor() {
        let t = toy();
        let (_, sym) = bdt4(&t);
        sym.check_tensor(&t); // same tensor: fine
        let other = zipf_tensor(&[4, 4, 4, 4], 5, &[0.0; 4], 1);
        let res = std::panic::catch_unwind(|| sym.check_tensor(&other));
        assert!(res.is_err());
    }

    #[test]
    fn first_child_reduction_sets_are_contiguous_parent_ranges() {
        // The sort-key layout orders each node's elements by its first
        // child's modes first, so the first child's reduction sets must
        // cover contiguous ranges of the parent — the property that makes
        // the dominant value-matrix stream sequential.
        let t = zipf_tensor(&[12, 18, 9, 14, 11, 16, 8, 13], 900, &[0.7; 8], 5);
        let tree = DimTree::from_shape(&TreeShape::balanced_binary(8));
        let sym = SymbolicTree::build(&t, &tree);
        for id in 1..tree.len() {
            let node = tree.node(id);
            if node.is_leaf() {
                continue;
            }
            let first = node.children[0];
            let s = sym.node(first);
            for e in 0..s.len {
                let mut grp: Vec<u32> = s.rperm[s.rptr[e]..s.rptr[e + 1]].to_vec();
                grp.sort_unstable();
                let expect: Vec<u32> = (s.rptr[e] as u32..s.rptr[e + 1] as u32).collect();
                assert_eq!(grp, expect, "node {first} element {e} not contiguous");
            }
        }
    }

    #[test]
    fn index_bytes_positive_and_bounded() {
        let t = zipf_tensor(&[30, 30, 30, 30], 1000, &[0.5; 4], 2);
        let (tree, sym) = bdt4(&t);
        let bytes = sym.index_bytes();
        assert!(bytes > 0);
        // Theorem-level bound: at most N(ceil(log N)+1) index arrays of
        // nnz entries, plus reduction structures <= 2 arrays per node.
        let n = 4usize;
        let bound = t.nnz()
            * (n * 2 * std::mem::size_of::<Idx>()
                + (tree.len() - 1) * (std::mem::size_of::<usize>() + 4));
        assert!(bytes <= bound);
    }
}
