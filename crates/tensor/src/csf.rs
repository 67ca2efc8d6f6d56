// lint: hot-path
//! Compressed sparse fiber (CSF) storage and the SPLATT-style MTTKRP.
//!
//! CSF stores a sparse tensor as a forest: level 0 holds the distinct
//! indices of the root mode, level `l` the distinct mode-prefix extensions
//! at depth `l`, and the leaf level one node per nonzero. The SPLATT
//! MTTKRP walks this forest bottom-up, multiplying each *node's*
//! accumulated sum by its factor row once — so partial Hadamard products
//! are shared across every nonzero of a fiber instead of being recomputed
//! per nonzero as in COO. This is the state-of-the-art non-memoized
//! baseline: it still sweeps the whole tensor once per mode, `N` sweeps
//! per CP-ALS iteration, each doing `N-1` levels of row products.

use crate::coo::{Idx, SparseTensor};
use crate::schedule::{run_schedule, ModeSchedule, Workspace};
use adatm_linalg::kernels;
use adatm_linalg::Mat;
use std::ops::Range;

/// A sparse tensor in compressed-sparse-fiber form for one mode ordering.
///
/// `order[0]` is the root mode: MTTKRP with [`CsfTensor::mttkrp_root`]
/// produces the matricized product for that mode.
#[derive(Clone, Debug)]
pub struct CsfTensor {
    dims: Vec<usize>,
    order: Vec<usize>,
    /// `fids[l][j]`: mode-`order[l]` index of node `j` at level `l`.
    fids: Vec<Vec<Idx>>,
    /// `fptr[l][j]..fptr[l][j+1]`: children (at level `l+1`) of node `j`
    /// at level `l`. Present for levels `0..N-1`.
    fptr: Vec<Vec<usize>>,
    /// Values aligned with leaf-level nodes (one per nonzero).
    vals: Vec<f64>,
}

impl CsfTensor {
    /// Builds a CSF representation with the given mode ordering.
    ///
    /// The ordering chooses which mode becomes the root (and therefore
    /// which mode [`CsfTensor::mttkrp_root`] computes). SPLATT's heuristic
    /// of sorting non-root modes by increasing size is available via
    /// [`CsfTensor::for_mode`].
    ///
    /// # Panics
    /// Panics if `order` is not a permutation of `0..ndim` or `ndim < 2`.
    pub fn build(t: &SparseTensor, order: &[usize]) -> Self {
        let n = t.ndim();
        assert!(n >= 2, "CSF requires at least 2 modes");
        assert_eq!(order.len(), n, "mode order arity mismatch");
        let mut seen = vec![false; n];
        for &m in order {
            assert!(m < n && !seen[m], "invalid mode order");
            seen[m] = true;
        }
        let perm = t.sort_permutation(order);

        let mut fids: Vec<Vec<Idx>> = vec![Vec::new(); n];
        let mut fptr: Vec<Vec<usize>> = vec![Vec::new(); n.saturating_sub(1)];
        // Walk entries in sorted order; a node at level l starts whenever
        // the prefix (order[0..=l]) changes.
        let mut prev: Option<&u32> = None;
        for p in &perm {
            let k = *p as usize;
            // Find the first level where this entry's prefix differs.
            let first_new = match prev {
                None => 0,
                Some(q) => {
                    let q = *q as usize;
                    (0..n)
                        .find(|&l| t.mode_idx(order[l])[k] != t.mode_idx(order[l])[q])
                        .unwrap_or(n) // complete duplicate coordinate
                }
            };
            for l in first_new..n {
                if l + 1 < n {
                    // The new node at level l opens a child range starting
                    // at the current size of level l+1.
                    fptr[l].push(fids[l + 1].len());
                }
                fids[l].push(t.mode_idx(order[l])[k]);
            }
            prev = Some(p);
        }
        // Close child ranges with a sentinel (CSR-style).
        for l in 0..n.saturating_sub(1) {
            fptr[l].push(fids[l + 1].len());
        }
        let vals: Vec<f64> = perm.iter().map(|&p| t.vals()[p as usize]).collect();
        // Note: duplicate coordinates collapse into one leaf node only if
        // adjacent after sorting, which they always are; but `first_new ==
        // n` above pushes nothing, so the duplicate's value must be folded
        // into the previous leaf. Handle by compacting here.
        let mut out =
            CsfTensor { dims: t.dims().to_vec(), order: order.to_vec(), fids, fptr, vals };
        out.fold_duplicate_leaves(&perm, t);
        out
    }

    /// Folds values of duplicate coordinates (which share a leaf node)
    /// into that leaf. `build` pushes one leaf per *distinct* coordinate.
    fn fold_duplicate_leaves(&mut self, perm: &[u32], t: &SparseTensor) {
        let n = self.ndim();
        let nleaf = self.fids[n - 1].len();
        if nleaf == perm.len() {
            return; // no duplicates
        }
        let mut vals = vec![0.0; nleaf];
        let mut leaf = usize::MAX;
        let mut prev: Option<usize> = None;
        for &p in perm {
            let k = p as usize;
            let dup = prev.is_some_and(|q| {
                (0..n).all(|l| t.mode_idx(self.order[l])[k] == t.mode_idx(self.order[l])[q])
            });
            if !dup {
                leaf = leaf.wrapping_add(1);
            }
            vals[leaf] += t.vals()[k];
            prev = Some(k);
        }
        self.vals = vals;
    }

    /// Builds the CSF used to compute mode-`mode` MTTKRP: `mode` at the
    /// root, remaining modes sorted by increasing size (SPLATT heuristic —
    /// small modes high in the tree maximize fiber reuse).
    pub fn for_mode(t: &SparseTensor, mode: usize) -> Self {
        let mut rest: Vec<usize> = (0..t.ndim()).filter(|&d| d != mode).collect();
        rest.sort_by_key(|&d| t.dims()[d]);
        let mut order = Vec::with_capacity(t.ndim());
        order.push(mode);
        order.extend(rest);
        CsfTensor::build(t, &order)
    }

    /// Number of modes.
    pub fn ndim(&self) -> usize {
        self.dims.len()
    }

    /// The mode ordering (root first).
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// The root mode (the one MTTKRP is computed for).
    pub fn root_mode(&self) -> usize {
        self.order[0]
    }

    /// Node count at each level; level `N-1` equals the number of distinct
    /// coordinates.
    pub fn node_counts(&self) -> Vec<usize> {
        self.fids.iter().map(Vec::len).collect()
    }

    /// Mode sizes (in original mode order, not tree-level order).
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// The node indices at level `level`: `level_fids(l)[j]` is the
    /// mode-`order()[l]` index of node `j`. Exposed for structural audits.
    pub fn level_fids(&self, level: usize) -> &[Idx] {
        &self.fids[level]
    }

    /// The CSR child pointers of level `level` (present for levels
    /// `0..N-1`): node `j`'s children at level `level + 1` are
    /// `level_fptr(l)[j]..level_fptr(l)[j+1]`. Exposed for structural
    /// audits.
    pub fn level_fptr(&self, level: usize) -> &[usize] {
        &self.fptr[level]
    }

    /// Leaf values (one per distinct coordinate), aligned with the leaf
    /// level's nodes.
    pub fn vals(&self) -> &[f64] {
        &self.vals
    }

    /// Storage footprint in bytes (fids + fptr + vals), for experiment E5.
    pub fn storage_bytes(&self) -> usize {
        let fid_bytes: usize = self.fids.iter().map(|v| v.len() * std::mem::size_of::<Idx>()).sum();
        let ptr_bytes: usize =
            self.fptr.iter().map(|v| v.len() * std::mem::size_of::<usize>()).sum();
        fid_bytes + ptr_bytes + self.vals.len() * std::mem::size_of::<f64>()
    }

    /// Exact fused-multiply count of one `mttkrp_root` call at rank `R`:
    /// each non-root node multiplies its accumulated row once.
    pub fn mttkrp_flops(&self, rank: usize) -> usize {
        let non_root_nodes: usize = self.fids[1..].iter().map(Vec::len).sum();
        non_root_nodes * rank
    }

    /// First leaf of the subtree rooted at `(level, node)`, found by
    /// following first-child pointers. Accepts the one-past-the-end node
    /// (CSR sentinel), for which it returns the total leaf count.
    fn leaf_start(&self, mut level: usize, mut node: usize) -> usize {
        while level < self.ndim() - 1 {
            node = self.fptr[level][node];
            level += 1;
        }
        node
    }

    /// Descendant-leaf count (distinct nonzeros) of every root slice —
    /// the nnz weights the scheduler balances.
    pub fn root_slice_weights(&self) -> Vec<usize> {
        (0..self.fids[0].len()).map(|s| self.leaf_start(0, s + 1) - self.leaf_start(0, s)).collect()
    }

    /// Builds the nnz-balanced schedule for the root-mode MTTKRP,
    /// balanced for `threads` workers. Oversized root slices are split by
    /// their level-1 children, each weighing its own descendant-leaf
    /// count. Backends cache the result per mode.
    pub fn root_schedule(&self, threads: usize) -> ModeSchedule {
        let weights = self.root_slice_weights();
        ModeSchedule::build_weighted(&weights, threads, |g| {
            (self.fptr[0][g]..self.fptr[0][g + 1])
                .map(|c| self.leaf_start(1, c + 1) - self.leaf_start(1, c))
                .collect::<Vec<_>>()
        })
    }

    /// Computes the MTTKRP for the root mode, with a schedule for the
    /// current thread count and a throwaway workspace. Hot paths should
    /// cache both and call [`CsfTensor::mttkrp_root_into`].
    pub fn mttkrp_root(&self, factors: &[Mat]) -> Mat {
        let rank = self.check(factors);
        let sched = self.root_schedule(rayon::current_num_threads());
        let mut m = Mat::zeros(self.dims[self.root_mode()], rank);
        self.mttkrp_root_into(factors, &sched, &mut Workspace::new(), &mut m);
        m
    }

    /// Scheduled root-mode MTTKRP into a caller-provided output.
    ///
    /// `sched` must come from [`CsfTensor::root_schedule`]; `ws` provides
    /// all scratch memory (one `N x R` evaluation stack per task plus one
    /// privatized slot row per split sub-task). Each root slice zeroes its
    /// output row and sums its level-1 subtrees into it through
    /// [`run_schedule`]; a split slice's sub-tasks each take a run of
    /// those subtrees. Zero heap allocations when the schedule has one
    /// task; O(tasks) otherwise.
    #[adatm::hot]
    pub fn mttkrp_root_into(
        &self,
        factors: &[Mat],
        sched: &ModeSchedule,
        ws: &mut Workspace,
        out: &mut Mat,
    ) {
        let rank = self.check(factors);
        assert_eq!(out.nrows(), self.dims[self.root_mode()], "output rows mismatch");
        assert_eq!(out.ncols(), rank, "output rank mismatch");
        let (roots, children) = (&self.fids[0], &self.fptr[0]);
        run_schedule(
            Some(sched),
            ws,
            self.ndim() * rank,
            out,
            roots.len(),
            |s| roots[s] as usize,
            #[inline(always)]
            |s, elems, row, scr| {
                let (lo, hi) = (children[s], children[s + 1]);
                let span = elems.map_or(lo..hi, |e| lo + e.start..lo + e.end);
                row.fill(0.0);
                self.eval_root_children(span, factors, rank, scr, row);
            },
        );
    }

    /// Evaluates a range of level-1 subtrees and accumulates their rows
    /// into `acc` (an output row or a privatized slot row). This is the
    /// root level of the bottom-up walk with the root's own factor row
    /// excluded, as MTTKRP for the root mode requires.
    fn eval_root_children(
        &self,
        children: Range<usize>,
        factors: &[Mat],
        rank: usize,
        scratch: &mut [f64],
        acc: &mut [f64],
    ) {
        for c in children {
            self.eval_subtree(1, c, factors, rank, scratch);
            let row1 = &scratch[rank..2 * rank];
            kernels::add_assign(acc, row1);
        }
    }

    /// Bottom-up evaluation of one subtree over a flat `N x R` scratch
    /// stack. On return, `scratch[level*R..][..R]` holds the accumulated
    /// rank-`R` row of node `(level, node)` with all factor rows *below*
    /// the root multiplied in (the root's own factor is intentionally
    /// excluded: this is MTTKRP for the root mode).
    fn eval_subtree(
        &self,
        level: usize,
        node: usize,
        factors: &[Mat],
        rank: usize,
        scratch: &mut [f64],
    ) {
        let n = self.ndim();
        if level == n - 1 {
            // Leaf: value times the leaf mode's factor row.
            let v = self.vals[node];
            let frow = factors[self.order[level]].row(self.fids[level][node] as usize);
            let dst = &mut scratch[level * rank..(level + 1) * rank];
            kernels::scale(dst, v, frow);
            return;
        }
        let (lo, hi) = (self.fptr[level][node], self.fptr[level][node + 1]);
        // Zero this level's accumulator, sum children into it.
        scratch[level * rank..(level + 1) * rank].fill(0.0);
        for c in lo..hi {
            self.eval_subtree(level + 1, c, factors, rank, scratch);
            let (upper, lower) = scratch.split_at_mut((level + 1) * rank);
            let acc = &mut upper[level * rank..];
            kernels::add_assign(acc, &lower[..rank]);
        }
        if level > 0 {
            // Multiply this node's own factor row in, once for the whole
            // fiber — the source of CSF's advantage over COO.
            let frow = factors[self.order[level]].row(self.fids[level][node] as usize);
            let acc = &mut scratch[level * rank..(level + 1) * rank];
            kernels::mul_assign(acc, frow);
        }
    }

    fn check(&self, factors: &[Mat]) -> usize {
        assert_eq!(factors.len(), self.ndim(), "one factor per mode required");
        let rank = factors[0].ncols();
        for (d, f) in factors.iter().enumerate() {
            assert_eq!(f.nrows(), self.dims[d], "factor {d} rows mismatch");
            assert_eq!(f.ncols(), rank, "factor {d} rank mismatch");
        }
        rank
    }
}

/// One CSF representation per mode, as SPLATT's ALLMODE configuration
/// allocates — the memory-hungriest but fastest non-memoized layout.
#[derive(Clone, Debug)]
pub struct CsfSet {
    csfs: Vec<CsfTensor>,
}

impl CsfSet {
    /// Builds `N` CSF tensors, one rooted at each mode.
    pub fn all_modes(t: &SparseTensor) -> Self {
        CsfSet { csfs: (0..t.ndim()).map(|m| CsfTensor::for_mode(t, m)).collect() }
    }

    /// The CSF rooted at `mode`.
    pub fn for_mode(&self, mode: usize) -> &CsfTensor {
        &self.csfs[mode]
    }

    /// Total storage across all representations.
    pub fn storage_bytes(&self) -> usize {
        self.csfs.iter().map(CsfTensor::storage_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseTensor;
    use crate::mttkrp::mttkrp_seq;

    fn toy() -> SparseTensor {
        SparseTensor::from_entries(
            vec![4, 3, 5, 2],
            &[
                (vec![0, 1, 2, 1], 1.0),
                (vec![1, 2, 3, 0], 2.0),
                (vec![2, 0, 0, 1], 3.0),
                (vec![3, 0, 1, 0], -4.0),
                (vec![0, 1, 0, 1], 5.0),
                (vec![2, 2, 2, 1], 7.0),
                (vec![0, 1, 2, 0], 0.5),
            ],
        )
    }

    fn factors_for(t: &SparseTensor, rank: usize, seed: u64) -> Vec<Mat> {
        t.dims().iter().enumerate().map(|(d, &n)| Mat::random(n, rank, seed + d as u64)).collect()
    }

    #[test]
    fn build_level_structure_is_consistent() {
        let t = toy();
        let c = CsfTensor::build(&t, &[0, 1, 2, 3]);
        let counts = c.node_counts();
        assert_eq!(counts[3], 7, "leaf level has one node per distinct nonzero");
        assert_eq!(counts[0], t.distinct_in_mode(0));
        // fptr CSR invariants.
        for l in 0..3 {
            assert_eq!(c.fptr[l].len(), counts[l] + 1);
            assert_eq!(*c.fptr[l].last().unwrap(), counts[l + 1]);
            assert!(c.fptr[l].windows(2).all(|w| w[0] < w[1]), "nonempty children");
        }
    }

    #[test]
    fn mttkrp_root_matches_coo_all_modes() {
        let t = toy();
        let factors = factors_for(&t, 3, 5);
        for mode in 0..4 {
            let c = CsfTensor::for_mode(&t, mode);
            let m = c.mttkrp_root(&factors);
            let m_ref = mttkrp_seq(&t, &factors, mode);
            assert!(m.max_abs_diff(&m_ref) < 1e-12, "mode {mode}");
        }
    }

    #[test]
    fn mttkrp_root_matches_dense_oracle() {
        let t = toy();
        let dense = DenseTensor::from_sparse(&t);
        let factors = factors_for(&t, 2, 8);
        let c = CsfTensor::for_mode(&t, 2);
        let m = c.mttkrp_root(&factors);
        assert!(m.max_abs_diff(&dense.mttkrp_ref(&factors, 2)) < 1e-12);
    }

    /// `mttkrp_root` in a pool of `threads` workers.
    fn root_in_pool(c: &CsfTensor, factors: &[Mat], threads: usize) -> Mat {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("pool");
        pool.install(|| c.mttkrp_root(factors))
    }

    #[test]
    fn parallel_matches_sequential() {
        let t = toy();
        let factors = factors_for(&t, 4, 9);
        for mode in 0..4 {
            let c = CsfTensor::for_mode(&t, mode);
            let p = root_in_pool(&c, &factors, 4);
            let s = root_in_pool(&c, &factors, 1);
            assert!(p.max_abs_diff(&s) < 1e-12, "mode {mode}");
        }
    }

    #[test]
    fn duplicates_fold_into_one_leaf() {
        let t = SparseTensor::from_entries(
            vec![2, 2],
            &[(vec![1, 1], 2.0), (vec![1, 1], 3.0), (vec![0, 0], 1.0)],
        );
        let c = CsfTensor::build(&t, &[0, 1]);
        assert_eq!(c.node_counts(), vec![2, 2]);
        let factors = vec![Mat::from_vec(2, 1, vec![1.0; 2]), Mat::from_vec(2, 1, vec![1.0; 2])];
        let m = c.mttkrp_root(&factors);
        assert_eq!(m.get(1, 0), 5.0);
        assert_eq!(m.get(0, 0), 1.0);
    }

    #[test]
    fn for_mode_orders_small_modes_high() {
        let t = toy(); // dims 4,3,5,2
        let c = CsfTensor::for_mode(&t, 2);
        assert_eq!(c.order(), &[2, 3, 1, 0]); // root 2, then sizes 2,3,4
    }

    #[test]
    fn mttkrp_flops_below_coo_flops() {
        let t = toy();
        let c = CsfTensor::for_mode(&t, 0);
        // CSF never performs more multiply work than element-wise COO.
        assert!(c.mttkrp_flops(8) <= t.nnz() * (t.ndim() - 1) * 8);
    }

    #[test]
    fn root_slice_weights_sum_to_leaves() {
        let t = toy();
        for mode in 0..4 {
            let c = CsfTensor::for_mode(&t, mode);
            let w = c.root_slice_weights();
            assert_eq!(w.len(), c.node_counts()[0], "mode {mode}");
            assert_eq!(w.iter().sum::<usize>(), *c.node_counts().last().unwrap(), "mode {mode}");
        }
    }

    /// Mode-0 index 1 owns almost all fibers — forces a root-slice split.
    fn hot_root_tensor() -> SparseTensor {
        let mut entries = Vec::new();
        for k in 0..300 {
            entries.push((vec![1usize, k % 15, k % 20], 0.1 * k as f64 - 7.0));
        }
        for k in 0..30 {
            entries.push((vec![k % 4, k % 15, k % 20], k as f64));
        }
        SparseTensor::from_entries(vec![4, 15, 20], &entries)
    }

    #[test]
    fn scheduled_root_matches_sequential_with_forced_splits() {
        let t = hot_root_tensor();
        let factors = factors_for(&t, 5, 11);
        let c = CsfTensor::for_mode(&t, 0);
        let weights = c.root_slice_weights();
        let sched = ModeSchedule::build_weighted_with_target(&weights, 4, 16, |g| {
            (c.level_fptr(0)[g]..c.level_fptr(0)[g + 1])
                .map(|ch| c.leaf_start(1, ch + 1) - c.leaf_start(1, ch))
                .collect::<Vec<_>>()
        });
        assert!(!sched.splits().is_empty(), "hot root slice should be split");
        let mut ws = Workspace::new();
        let mut out = Mat::zeros(t.dims()[0], 5);
        c.mttkrp_root_into(&factors, &sched, &mut ws, &mut out);
        let s = root_in_pool(&c, &factors, 1);
        assert!(out.max_abs_diff(&s) < 1e-12);
    }

    #[test]
    fn scheduled_root_is_deterministic() {
        let t = hot_root_tensor();
        let factors = factors_for(&t, 4, 13);
        let c = CsfTensor::for_mode(&t, 0);
        let sched = ModeSchedule::build_weighted_with_target(&c.root_slice_weights(), 4, 16, |g| {
            vec![1usize; c.level_fptr(0)[g + 1] - c.level_fptr(0)[g]]
        });
        let mut ws = Workspace::new();
        let mut a = Mat::zeros(t.dims()[0], 4);
        let mut b = Mat::zeros(t.dims()[0], 4);
        c.mttkrp_root_into(&factors, &sched, &mut ws, &mut a);
        c.mttkrp_root_into(&factors, &sched, &mut ws, &mut b);
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn csf_set_covers_all_modes() {
        let t = toy();
        let set = CsfSet::all_modes(&t);
        for m in 0..4 {
            assert_eq!(set.for_mode(m).root_mode(), m);
        }
        assert!(set.storage_bytes() > t.storage_bytes());
    }
}
