// lint: hot-path
//! Numeric TTMV: the per-iteration kernels of dimension-tree CP-ALS.
//!
//! A [`DtreeEngine`] binds a tree's symbolic structure to a rank `R` and
//! caches, per node, the node's *value matrix* — the `|elements| x R`
//! matrix holding all `R` partial-TTV tensors at once (they share one
//! nonzero pattern, so the index structure is stored once and the values
//! are updated "thick", all `R` columns per element). The engine
//! implements the dimension-tree CP-ALS protocol:
//!
//! 1. at the start of subiteration `n`, [`DtreeEngine::invalidate_mode`]
//!    destroys every node whose tensors were multiplied by `U^(n)`
//!    (all nodes with `n ∉ µ(t)`);
//! 2. [`DtreeEngine::mttkrp`] computes the leaf of mode `n`, reusing any
//!    still-valid ancestors and computing missing ones from the closest
//!    valid ancestor downward;
//! 3. the caller updates `U^(n)` and moves on.
//!
//! Every node is therefore computed exactly once per iteration, and at
//! most one root-to-leaf path of value matrices is live at any instant —
//! the `O(log N)` memory bound of the balanced binary tree. The engine
//! holds value buffers to match: one per tree depth, sized once for the
//! largest node at that depth and reshaped for the others, so a run keeps
//! about one root-to-leaf path of value matrices allocated and steady
//! iterations allocate none.

use crate::error::DtreeError;
use crate::sched::{run_scatter, ScatterSchedule};
use crate::shape::TreeShape;
use crate::stats::{MemoryStats, OpStats};
use crate::symbolic::{SymbolicNode, SymbolicTree};
use crate::tree::DimTree;
use adatm_linalg::kernels;
use adatm_linalg::Mat;
use adatm_tensor::coo::Idx;
use adatm_tensor::schedule::{run_schedule, ModeSchedule, ScheduleCache, Workspace};
use adatm_tensor::SparseTensor;
use rayon::prelude::*;
use std::ops::Range;
use std::sync::Arc;

/// Elements per parallel task in the (unscheduled) column-wise kernel.
const PAR_CHUNK: usize = 512;
/// Minimum node size before the kernels go parallel.
const PAR_THRESHOLD: usize = 4096;

/// The value buffers of one tree depth.
#[derive(Debug, Default)]
struct DepthBuffer {
    /// Element count of the largest node at this depth. Every value
    /// buffer for the depth is allocated at this many rows and reshaped
    /// to the node it holds, so it never grows.
    rows: usize,
    /// One retired buffer, reused by the next node computed at this depth.
    spare: Option<Mat>,
}

/// Depth of node `id` (the root is 0).
fn depth_of(tree: &DimTree, id: usize) -> usize {
    let mut depth = 0;
    let mut cur = id;
    while let Some(p) = tree.node(cur).parent {
        depth += 1;
        cur = p;
    }
    depth
}

/// Tuning knobs for the numeric engine.
#[derive(Clone, Copy, Debug)]
pub struct EngineOptions {
    /// Vectorized "thick" updates (all `R` columns per element). `false`
    /// selects the column-at-a-time schedule — one pass over the
    /// reduction sets per rank column, as a non-vectorized implementation
    /// of `R` separate TTVs would do. Exists for the E12 ablation.
    pub thick: bool,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions { thick: true }
    }
}

/// The numeric dimension-tree engine (symbolic structure + cached value
/// matrices + counters).
///
/// ```
/// use adatm_dtree::{DtreeEngine, TreeShape};
/// use adatm_linalg::Mat;
/// use adatm_tensor::gen::zipf_tensor;
///
/// let t = zipf_tensor(&[20, 30, 25, 15], 1_000, &[0.6; 4], 7);
/// let rank = 4;
/// let factors: Vec<Mat> = t.dims().iter().enumerate()
///     .map(|(d, &n)| Mat::random(n, rank, d as u64)).collect();
/// let mut engine = DtreeEngine::new(&t, &TreeShape::balanced_binary(4), rank);
/// // One CP-ALS-style sweep: invalidate, compute, (update factor).
/// for mode in 0..4 {
///     engine.invalidate_mode(mode);
///     let m = engine.mttkrp(&t, &factors, mode);
///     assert_eq!(m.nrows(), t.dims()[mode]);
/// }
/// // Every non-root node was computed exactly once: 2N - 2 TTMVs.
/// assert_eq!(engine.ops().ttmv_calls, 6);
/// ```
#[derive(Debug)]
pub struct DtreeEngine {
    tree: DimTree,
    /// Shared: the symbolic analysis is rank-independent, so engines for
    /// different ranks / restarts over the same tensor and shape reuse
    /// one structure (the amortization the papers rely on when sweeping
    /// ranks or initializations).
    sym: Arc<SymbolicTree>,
    rank: usize,
    vals: Vec<Option<Mat>>,
    /// Value buffers by tree depth (index 0, the root's, stays empty).
    /// Under the protocol at most one node per depth is live, so
    /// `invalidate → recompute` cycles in steady-state CP-ALS stop
    /// allocating entirely; see [`DtreeEngine::value_buffer_bytes`].
    depths: Vec<DepthBuffer>,
    /// Per-node schedules of the parallel pull and scatter kernels,
    /// built on a node's first parallel computation and kept until the
    /// thread count changes or the caches are reset.
    pull: ScheduleCache<ModeSchedule>,
    scatter: ScheduleCache<ScatterSchedule>,
    /// Reusable kernel scratch (per-task Hadamard rows + slot rows).
    ws: Workspace,
    opts: EngineOptions,
    ops: OpStats,
    mem: MemoryStats,
}

/// Where a node's parent values come from: the tensor itself (children of
/// the root — every one of the `R` root tensors is the input tensor, so
/// the "row" is the scalar value broadcast) or the parent's value matrix.
enum ParentVals<'a> {
    Scalars(&'a [f64]),
    Rows(&'a Mat),
}

/// Which numeric kernel computes a given non-root node — mirrors the
/// dispatch in the engine's per-node compute: nodes with an inverse
/// reduction map run the streaming *scatter* ("push") kernel, everything
/// else the *pull* ("thick" gather) kernel. Exposed so benches and the
/// calibration probe can attribute per-node TTMV timings to the kernel
/// class the cost model prices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeKernelClass {
    /// Gather kernel: per node element, reduce its parent-element set.
    Pull,
    /// Push kernel: stream the parent, accumulate into the small child.
    Scatter,
}

impl std::fmt::Display for NodeKernelClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeKernelClass::Pull => write!(f, "pull"),
            NodeKernelClass::Scatter => write!(f, "scatter"),
        }
    }
}

impl DtreeEngine {
    /// Builds the engine: lowers the shape, runs the symbolic pass, and
    /// prepares (empty) value-matrix slots.
    pub fn new(tensor: &SparseTensor, shape: &TreeShape, rank: usize) -> Self {
        Self::with_options(tensor, shape, rank, EngineOptions::default())
    }

    /// [`DtreeEngine::new`] with explicit options.
    pub fn with_options(
        tensor: &SparseTensor,
        shape: &TreeShape,
        rank: usize,
        opts: EngineOptions,
    ) -> Self {
        let tree = DimTree::from_shape(shape);
        assert_eq!(tree.ndim(), tensor.ndim(), "shape covers a different order");
        let sym = Arc::new(SymbolicTree::build(tensor, &tree));
        Self::from_parts(tree, sym, rank, opts)
    }

    /// Builds an engine from an existing symbolic structure.
    ///
    /// The one-time symbolic pass is rank-independent; use this to share
    /// it across rank sweeps and multi-start runs (clone the `Arc`).
    ///
    /// # Panics
    /// Panics if `sym` was built for a different tree size or `rank == 0`.
    pub fn from_parts(
        tree: DimTree,
        sym: Arc<SymbolicTree>,
        rank: usize,
        opts: EngineOptions,
    ) -> Self {
        assert!(rank > 0, "rank must be positive");
        assert_eq!(sym.len(), tree.len(), "symbolic structure is for a different tree");
        let n_nodes = tree.len();
        let mut depths: Vec<DepthBuffer> = Vec::new();
        depths.resize_with(tree.shape().height() + 1, DepthBuffer::default);
        for id in 1..n_nodes {
            if let Some(buf) = depths.get_mut(depth_of(&tree, id)) {
                buf.rows = buf.rows.max(sym.node(id).len);
            }
        }
        DtreeEngine {
            tree,
            sym,
            rank,
            vals: (0..n_nodes).map(|_| None).collect(),
            depths,
            pull: ScheduleCache::new(n_nodes),
            scatter: ScheduleCache::new(n_nodes),
            ws: Workspace::new(),
            opts,
            ops: OpStats::default(),
            mem: MemoryStats::default(),
        }
    }

    /// Clones the shared symbolic structure handle (cheap).
    pub fn shared_symbolic(&self) -> Arc<SymbolicTree> {
        Arc::clone(&self.sym)
    }

    /// The decomposition rank the engine was built for.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The lowered tree.
    pub fn tree(&self) -> &DimTree {
        &self.tree
    }

    /// The symbolic structure.
    pub fn symbolic(&self) -> &SymbolicTree {
        &self.sym
    }

    /// Operation counters (cumulative since the last reset).
    pub fn ops(&self) -> OpStats {
        self.ops
    }

    /// Memory counters.
    pub fn mem(&self) -> MemoryStats {
        self.mem
    }

    /// Resets operation counters and memory high-water marks (current
    /// memory is preserved — it reflects live allocations).
    pub fn reset_stats(&mut self) {
        self.ops.reset();
        let cur = (self.mem.current_value_bytes, self.mem.live_nodes);
        self.mem.reset();
        self.mem.current_value_bytes = cur.0;
        self.mem.peak_value_bytes = cur.0;
        self.mem.live_nodes = cur.1;
        self.mem.peak_live_nodes = cur.1;
    }

    /// Number of nodes with live value matrices.
    pub fn live_nodes(&self) -> usize {
        self.vals.iter().filter(|v| v.is_some()).count()
    }

    /// Destroys every node whose tensors involve a multiplication by
    /// `U^(mode)` — step 1 of the dimension-tree CP-ALS protocol. Call
    /// at the start of the subiteration that will update `U^(mode)`.
    pub fn invalidate_mode(&mut self, mode: usize) {
        for id in 1..self.tree.len() {
            if self.tree.multiplied_by(id, mode) {
                self.drop_node(id);
            }
        }
    }

    /// Destroys all cached value matrices. Required whenever factors
    /// change outside the CP-ALS protocol (e.g. a fresh initialization).
    pub fn invalidate_all(&mut self) {
        for id in 1..self.tree.len() {
            self.drop_node(id);
        }
    }

    fn drop_node(&mut self, id: usize) {
        if let Some(m) = self.vals[id].take() {
            self.mem.free(value_bytes(&m));
            // Retire to the depth's spare slot: the next node computed at
            // this depth reuses the buffer. A depth already holding a
            // spare (two nodes were live there, outside the protocol)
            // frees this one.
            let spare = &mut self.depths[depth_of(&self.tree, id)].spare;
            if spare.is_none() {
                *spare = Some(m);
            }
        }
    }

    /// Drops all reusable caches: spare value buffers, persistent kernel
    /// schedules, and workspace memory. Part of the backend `reset()`
    /// protocol — call when the tensor identity, thread pool, or
    /// measurement context changes.
    pub fn reset_caches(&mut self) {
        for d in &mut self.depths {
            d.spare = None;
        }
        self.pull.clear();
        self.scatter.clear();
        self.ws.clear();
    }

    /// Bytes allocated for value buffers, live and spare: the heap the
    /// engine's intermediates occupy. [`DtreeEngine::mem`] counts only
    /// the valid nodes' `len x R` views of these buffers. After a
    /// protocol sweep it is the largest node of each depth times `R * 8`,
    /// summed over depths.
    pub fn value_buffer_bytes(&self) -> usize {
        let spares = self.depths.iter().map(|d| &d.spare);
        let held = self.vals.iter().chain(spares).flatten();
        held.map(|m| m.capacity() * std::mem::size_of::<f64>()).sum()
    }

    /// Approximate bytes held by the persistent kernel schedules and the
    /// workspace (diagnostics).
    pub fn schedule_bytes(&self) -> usize {
        self.pull.iter().map(ModeSchedule::structure_bytes).sum::<usize>()
            + self.scatter.iter().map(ScatterSchedule::structure_bytes).sum::<usize>()
            + self.ws.structure_bytes()
    }

    /// Computes the mode-`mode` MTTKRP into a fresh `I_mode x R` matrix.
    ///
    /// Reuses every still-valid ancestor on the leaf's root path; the
    /// caller is responsible for having called
    /// [`DtreeEngine::invalidate_mode`] per the protocol (or
    /// [`DtreeEngine::invalidate_all`] after arbitrary factor changes).
    pub fn mttkrp(&mut self, tensor: &SparseTensor, factors: &[Mat], mode: usize) -> Mat {
        let mut out = Mat::zeros(tensor.dims()[mode], self.rank);
        self.mttkrp_into(tensor, factors, mode, &mut out);
        out
    }

    /// [`DtreeEngine::mttkrp`] into a caller-provided buffer (zeroed
    /// first).
    #[adatm::hot]
    pub fn mttkrp_into(
        &mut self,
        tensor: &SparseTensor,
        factors: &[Mat],
        mode: usize,
        out: &mut Mat,
    ) {
        self.sym.check_tensor(tensor);
        self.check_factors(tensor, factors);
        assert_eq!(out.nrows(), tensor.dims()[mode], "output rows mismatch");
        assert_eq!(out.ncols(), self.rank, "output rank mismatch");
        let leaf = self.tree.leaf_of(mode);
        self.ensure(leaf, tensor, factors)
            .unwrap_or_else(|e| panic!("dimension-tree invariant violated: {e}"));
        out.fill_zero();
        let node = self.sym.node(leaf);
        let Some(vals) = self.vals[leaf].as_ref() else {
            unreachable!("leaf {leaf} is valid right after ensure")
        };
        for (e, &i) in node.idx[0].iter().enumerate() {
            out.row_mut(i as usize).copy_from_slice(vals.row(e));
        }
    }

    /// The kernel class the engine will use for non-root node `id`, or
    /// `None` for the root (which is never computed). See
    /// [`NodeKernelClass`].
    pub fn node_kernel_class(&self, id: usize) -> Option<NodeKernelClass> {
        if id == 0 || id >= self.tree.len() {
            return None;
        }
        if self.opts.thick && self.sym.node(id).pmap.is_some() {
            Some(NodeKernelClass::Scatter)
        } else {
            Some(NodeKernelClass::Pull)
        }
    }

    /// Work units of one TTMV recompute of node `id` — the quantity the
    /// calibrated cost model prices per kernel class:
    /// `parent_elems * (|delta| + 1) * R` (each parent element is read,
    /// multiplied by `|delta|` factor rows, and added once). `None` for
    /// the root.
    pub fn node_work_units(&self, id: usize) -> Option<u64> {
        if id == 0 || id >= self.tree.len() {
            return None;
        }
        let parent = self.tree.node(id).parent?;
        let parent_len = self.sym.node(parent).len as u64;
        let delta = self.tree.node(id).delta.len() as u64;
        Some(parent_len * (delta + 1) * self.rank as u64)
    }

    /// Drops node `id` and recomputes it from its parent (ancestors are
    /// ensured first). Bench/calibration hook: timing this call in
    /// steady state measures exactly one TTMV of the node's kernel class,
    /// with schedules and value buffers warm. Other nodes stay live, so a
    /// depth may hold several buffers while this is used.
    ///
    /// # Panics
    /// Panics if `id` is the root or out of range, or on a broken tree
    /// invariant.
    pub fn recompute_node(&mut self, tensor: &SparseTensor, factors: &[Mat], id: usize) {
        assert!(id > 0 && id < self.tree.len(), "recompute_node: invalid node {id}");
        self.drop_node(id);
        self.ensure(id, tensor, factors)
            .unwrap_or_else(|e| panic!("dimension-tree invariant violated: {e}"));
    }

    /// Borrows the computed leaf values for `mode` as `(indices, values)`
    /// without scattering into a dense row space. `None` if the leaf is
    /// not currently valid.
    pub fn leaf_values(&self, mode: usize) -> Option<(&[Idx], &Mat)> {
        let leaf = self.tree.leaf_of(mode);
        let vals = self.vals[leaf].as_ref()?;
        Some((&self.sym.node(leaf).idx[0], vals))
    }

    /// Makes node `id` and all its ancestors valid.
    ///
    /// Recursive (tree height is `O(log N)`): ascends to the closest
    /// valid ancestor, then computes downward — no path vector.
    fn ensure(
        &mut self,
        id: usize,
        tensor: &SparseTensor,
        factors: &[Mat],
    ) -> Result<(), DtreeError> {
        if id == 0 || self.vals[id].is_some() {
            return Ok(());
        }
        if let Some(parent) = self.tree.node(id).parent {
            self.ensure(parent, tensor, factors)?;
        }
        self.compute_node(id, tensor, factors)
    }

    /// Computes one node's value matrix from its (already valid) parent.
    fn compute_node(
        &mut self,
        id: usize,
        tensor: &SparseTensor,
        factors: &[Mat],
    ) -> Result<(), DtreeError> {
        let parent = self.tree.node(id).parent.ok_or(DtreeError::MissingParent { node: id })?;
        debug_assert!(parent == 0 || self.vals[parent].is_some(), "parent must be valid");
        // Work through a local handle so `node` does not pin `self`.
        let sym = Arc::clone(&self.sym);
        let node = sym.node(id);
        let delta = &self.tree.node(id).delta;
        // Resolve each delta mode's index column on the parent's elements.
        let delta_cols: Vec<&[Idx]> = delta
            .iter()
            .map(|&d| {
                if parent == 0 {
                    Ok(tensor.mode_idx(d))
                } else {
                    let pos = self
                        .tree
                        .node(parent)
                        .modes
                        .iter()
                        .position(|&m| m == d)
                        .ok_or(DtreeError::ModeNotInParent { node: id, mode: d })?;
                    Ok(sym.node(parent).idx[pos].as_slice())
                }
            })
            .collect::<Result<_, _>>()?;
        let delta_facs: Vec<&Mat> = delta.iter().map(|&d| &factors[d]).collect();
        let parent_vals = if parent == 0 {
            ParentVals::Scalars(tensor.vals())
        } else {
            match self.vals[parent].as_ref() {
                Some(m) => ParentVals::Rows(m),
                None => return Err(DtreeError::NodeNotComputed { node: parent }),
            }
        };
        // Reuse the depth's spare buffer, else allocate one sized for the
        // depth's largest node; either way it never reallocates. Only the
        // scatter kernel accumulates into the buffer as handed over, so
        // only it gets the buffer emptied first for the reshape to zero
        // every entry; the pull runner zeroes its own rows, and the
        // column-wise kernel assigns every entry.
        let rank = self.rank;
        let pmap = if self.opts.thick { node.pmap.as_deref() } else { None };
        let depth = &mut self.depths[depth_of(&self.tree, id)];
        let mut out = depth.spare.take().unwrap_or_else(|| Mat::zeros(depth.rows, rank));
        if pmap.is_some() {
            out.reshape(0, rank);
        }
        out.reshape(node.len, rank);
        // The kernels go parallel, and only then get a schedule, with more
        // than one thread and at least PAR_THRESHOLD elements to stream.
        let threads = rayon::current_num_threads();
        let par = |len: usize| threads > 1 && len >= PAR_THRESHOLD;
        if let Some(pmap) = pmap {
            // Push schedule: stream the (much larger) parent and
            // accumulate into the cache-resident child.
            let build = || ScatterSchedule::build(pmap, node.len, threads);
            let sched =
                par(sym.node(parent).len).then(|| self.scatter.get_or_build(id, threads, build));
            let ws = &mut self.ws;
            kernel_scatter(&mut out, rank, pmap, &delta_cols, &delta_facs, &parent_vals, sched, ws);
        } else if self.opts.thick {
            let weights = || node.rptr.windows(2).map(|w| w[1] - w[0]).collect::<Vec<_>>();
            let build = || ModeSchedule::build(&weights(), threads);
            let sched = par(node.len).then(|| self.pull.get_or_build(id, threads, build));
            let ws = &mut self.ws;
            kernel_pull(&mut out, rank, node, &delta_cols, &delta_facs, &parent_vals, sched, ws);
        } else {
            kernel_colwise(
                &mut out,
                rank,
                &node.rptr,
                &node.rperm,
                &delta_cols,
                &delta_facs,
                &parent_vals,
                par(node.len),
            );
        }
        // Stage-boundary audit: a TTMV output contaminated by NaN/Inf
        // would silently poison every descendant's memoized values.
        #[cfg(feature = "audit")]
        audit_finite(&out, id);
        // Exact operation accounting: every parent element is visited
        // once, multiplied by |delta| factor rows, and added once.
        let parent_len = self.sym.node(parent).len as u64;
        self.ops.ttmv_calls += 1;
        self.ops.hadamard_row_mults += parent_len * delta.len() as u64;
        self.ops.row_adds += parent_len;
        self.ops.flops += parent_len * (delta.len() as u64 + 1) * self.rank as u64;
        self.mem.alloc(value_bytes(&out));
        self.vals[id] = Some(out);
        Ok(())
    }

    fn check_factors(&self, tensor: &SparseTensor, factors: &[Mat]) {
        assert_eq!(factors.len(), tensor.ndim(), "one factor per mode required");
        for (d, f) in factors.iter().enumerate() {
            assert_eq!(f.nrows(), tensor.dims()[d], "factor {d} rows mismatch");
            assert_eq!(f.ncols(), self.rank, "factor {d} rank mismatch");
        }
    }
}

fn value_bytes(m: &Mat) -> usize {
    m.nrows() * m.ncols() * std::mem::size_of::<f64>()
}

/// Audit hook: every entry of a freshly computed value matrix is finite.
#[cfg(feature = "audit")]
fn audit_finite(m: &Mat, node: usize) {
    for (i, &v) in m.as_slice().iter().enumerate() {
        assert!(
            v.is_finite(),
            "audit: node {node}: non-finite value {v} at flat offset {i} of its value matrix"
        );
    }
}

/// Computes one parent element's contribution (`parent row ⊙ delta
/// factor rows`) into `row`. Shared by every thick/scatter variant so
/// their arithmetic order is identical.
///
/// The common small-delta cases (up to three factor rows over a scalar
/// parent, up to two over a row parent) take fused single-pass kernels
/// that never touch `scratch`; the general case falls back to the
/// scratch-row form. Every path multiplies parent-first then delta rows
/// in slice order, left-to-right, so all are bitwise identical.
#[inline]
fn contrib(
    parent: &ParentVals<'_>,
    delta_cols: &[&[Idx]],
    delta_facs: &[&Mat],
    j: usize,
    scratch: &mut [f64],
    row: &mut [f64],
) {
    let frow = |d: usize| delta_facs[d].row(delta_cols[d][j] as usize);
    match (parent, delta_cols.len()) {
        (ParentVals::Scalars(v), 1) => kernels::axpy(row, v[j], frow(0)),
        (ParentVals::Scalars(v), 2) => kernels::axpy2(row, v[j], frow(0), frow(1)),
        (ParentVals::Scalars(v), 3) => kernels::axpy3(row, v[j], frow(0), frow(1), frow(2)),
        (ParentVals::Rows(m), 1) => kernels::muladd_assign(row, m.row(j), frow(0)),
        (ParentVals::Rows(m), 2) => kernels::muladd3(row, m.row(j), frow(0), frow(1)),
        _ => {
            match parent {
                ParentVals::Scalars(v) => scratch.iter_mut().for_each(|s| *s = v[j]),
                ParentVals::Rows(m) => scratch.copy_from_slice(m.row(j)),
            }
            for (col, fac) in delta_cols.iter().zip(delta_facs.iter()) {
                kernels::mul_assign(scratch, fac.row(col[j] as usize));
            }
            kernels::add_assign(row, scratch);
        }
    }
}

/// Accumulates parent elements `span` of the reduction-set order into
/// `row`: the elements `rperm[span]`, or `span` itself when `rperm` is
/// `None` (the reduction sets are the identity partition of the parent —
/// the first-child layout — so the parent streams without indirection).
#[inline]
fn reduce_span(
    span: Range<usize>,
    rperm: Option<&[u32]>,
    delta_cols: &[&[Idx]],
    delta_facs: &[&Mat],
    parent: &ParentVals<'_>,
    scratch: &mut [f64],
    row: &mut [f64],
) {
    match rperm {
        Some(perm) => {
            for &j in &perm[span] {
                contrib(parent, delta_cols, delta_facs, j as usize, scratch, row);
            }
        }
        None => {
            for j in span {
                contrib(parent, delta_cols, delta_facs, j, scratch, row);
            }
        }
    }
}

/// The vectorized ("thick") pull TTMV kernel: per node element,
/// accumulate all `R` columns at once from each parent element in its
/// reduction set. Elements are output rows, so [`run_schedule`] runs it
/// with the node's nnz-balanced schedule (or inline, with none) and
/// zeroes the rows; a split reduction set's sub-tasks each take a run of
/// its parent elements.
#[adatm::hot]
#[allow(clippy::too_many_arguments)]
fn kernel_pull(
    out: &mut Mat,
    rank: usize,
    node: &SymbolicNode,
    delta_cols: &[&[Idx]],
    delta_facs: &[&Mat],
    parent: &ParentVals<'_>,
    sched: Option<&ModeSchedule>,
    ws: &mut Workspace,
) {
    let rperm = if node.sequential { None } else { Some(node.rperm.as_slice()) };
    let rptr = &node.rptr;
    run_schedule(
        sched,
        ws,
        rank,
        out,
        node.len,
        |i| i,
        #[inline(always)]
        |i, elems, row, scratch| {
            let (lo, hi) = (rptr[i], rptr[i + 1]);
            let span = elems.map_or(lo..hi, |e| lo + e.start..lo + e.end);
            reduce_span(span, rperm, delta_cols, delta_facs, parent, scratch, row);
        },
    );
}

/// The push ("scatter") TTMV kernel: stream the parent and accumulate
/// each contribution into the child row given by the inverse reduction
/// map. Used when the child is far smaller than the parent, so the child
/// accumulator stays cache-resident while the parent streams.
/// [`run_scatter`] runs it over the whole parent straight into `out`
/// (zeroed by the caller), or chunk by chunk into compact touched-row
/// accumulators merged afterwards.
#[adatm::hot]
#[allow(clippy::too_many_arguments)]
fn kernel_scatter(
    out: &mut Mat,
    rank: usize,
    pmap: &[u32],
    delta_cols: &[&[Idx]],
    delta_facs: &[&Mat],
    parent: &ParentVals<'_>,
    sched: Option<&ScatterSchedule>,
    ws: &mut Workspace,
) {
    run_scatter(sched, pmap, out.as_mut_slice(), rank, ws, |j0, map, acc, scratch| {
        for (j, &e) in (j0..).zip(map) {
            let e = e as usize * rank;
            contrib(parent, delta_cols, delta_facs, j, scratch, &mut acc[e..e + rank]);
        }
    });
}

/// The column-at-a-time kernel: one full pass over the reduction sets per
/// rank column (E12 ablation baseline; same arithmetic, `R`x the index
/// traffic).
#[adatm::hot]
#[allow(clippy::too_many_arguments)]
fn kernel_colwise(
    out: &mut Mat,
    rank: usize,
    rptr: &[usize],
    rperm: &[u32],
    delta_cols: &[&[Idx]],
    delta_facs: &[&Mat],
    parent: &ParentVals<'_>,
    parallel: bool,
) {
    let body = |base: usize, block: &mut [f64]| {
        for r in 0..rank {
            for (e, row) in block.chunks_mut(rank).enumerate() {
                let i = base + e;
                let mut acc = 0.0f64;
                for &j in &rperm[rptr[i]..rptr[i + 1]] {
                    let j = j as usize;
                    let mut p = match parent {
                        ParentVals::Scalars(v) => v[j],
                        ParentVals::Rows(m) => m.get(j, r),
                    };
                    for (col, fac) in delta_cols.iter().zip(delta_facs.iter()) {
                        p *= fac.get(col[j] as usize, r);
                    }
                    acc += p;
                }
                row[r] = acc;
            }
        }
    };
    if parallel {
        out.as_mut_slice()
            .par_chunks_mut(rank * PAR_CHUNK)
            .enumerate()
            .for_each(|(ci, block)| body(ci * PAR_CHUNK, block));
    } else {
        body(0, out.as_mut_slice());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adatm_tensor::gen::zipf_tensor;
    use adatm_tensor::mttkrp::mttkrp_seq;

    fn factors_for(t: &SparseTensor, rank: usize, seed: u64) -> Vec<Mat> {
        t.dims().iter().enumerate().map(|(d, &n)| Mat::random(n, rank, seed + d as u64)).collect()
    }

    /// A pool of `threads` workers.
    fn pool(threads: usize) -> rayon::ThreadPool {
        rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("thread pool")
    }

    fn all_shapes(n: usize) -> Vec<TreeShape> {
        vec![
            TreeShape::two_level(n),
            TreeShape::three_level(n),
            TreeShape::balanced_binary(n),
            TreeShape::left_deep(n),
        ]
    }

    #[test]
    fn mttkrp_matches_coo_for_every_shape_and_mode() {
        let t = zipf_tensor(&[15, 20, 12, 18], 600, &[0.6; 4], 21);
        let factors = factors_for(&t, 5, 100);
        for shape in all_shapes(4) {
            let mut eng = DtreeEngine::new(&t, &shape, 5);
            for mode in 0..4 {
                eng.invalidate_mode(mode);
                let m = eng.mttkrp(&t, &factors, mode);
                let m_ref = mttkrp_seq(&t, &factors, mode);
                assert!(
                    m.max_abs_diff(&m_ref) < 1e-10,
                    "shape {shape} mode {mode} diff {}",
                    m.max_abs_diff(&m_ref)
                );
            }
        }
    }

    #[test]
    fn mttkrp_5_and_6_modes_bdt() {
        for n in [5usize, 6] {
            let dims: Vec<usize> = (0..n).map(|d| 8 + 3 * d).collect();
            let t = zipf_tensor(&dims, 400, &vec![0.5; n], 31 + n as u64);
            let factors = factors_for(&t, 3, 7);
            let mut eng = DtreeEngine::new(&t, &TreeShape::balanced_binary(n), 3);
            for mode in 0..n {
                eng.invalidate_mode(mode);
                let m = eng.mttkrp(&t, &factors, mode);
                let m_ref = mttkrp_seq(&t, &factors, mode);
                assert!(m.max_abs_diff(&m_ref) < 1e-10, "n {n} mode {mode}");
            }
        }
    }

    #[test]
    fn protocol_reuses_and_stays_correct_across_updates() {
        // Full CP-ALS-like loop: invalidate mode, compute, update factor.
        let t = zipf_tensor(&[10, 12, 14, 16], 300, &[0.4; 4], 5);
        let mut factors = factors_for(&t, 4, 50);
        let mut eng = DtreeEngine::new(&t, &TreeShape::balanced_binary(4), 4);
        for iter in 0..3 {
            for mode in 0..4 {
                eng.invalidate_mode(mode);
                let m = eng.mttkrp(&t, &factors, mode);
                let m_ref = mttkrp_seq(&t, &factors, mode);
                assert!(m.max_abs_diff(&m_ref) < 1e-10, "iter {iter} mode {mode}");
                // Simulated factor update.
                factors[mode] = Mat::random(t.dims()[mode], 4, 1000 + iter * 10 + mode as u64);
            }
        }
    }

    #[test]
    fn node_computed_once_per_iteration_bdt() {
        // Theorem 2 consequence: 2N - 2 TTMV calls per iteration for a BDT
        // (every non-root node exactly once).
        let t = zipf_tensor(&[10, 10, 10, 10], 200, &[0.3; 4], 9);
        let factors = factors_for(&t, 3, 60);
        let mut eng = DtreeEngine::new(&t, &TreeShape::balanced_binary(4), 3);
        // Warm-up iteration (first iteration computes the same count).
        for mode in 0..4 {
            eng.invalidate_mode(mode);
            let _ = eng.mttkrp(&t, &factors, mode);
        }
        let calls_before = eng.ops().ttmv_calls;
        for mode in 0..4 {
            eng.invalidate_mode(mode);
            let _ = eng.mttkrp(&t, &factors, mode);
        }
        assert_eq!(eng.ops().ttmv_calls - calls_before, 6, "2N-2 = 6 for N = 4");
    }

    #[test]
    fn two_level_does_n_minus_1_ttvs_per_mode_worth() {
        // Flat tree: each leaf is computed straight from the root with
        // |delta| = N-1, and nothing is shared.
        let t = zipf_tensor(&[10, 10, 10], 150, &[0.3; 3], 2);
        let factors = factors_for(&t, 2, 3);
        let mut eng = DtreeEngine::new(&t, &TreeShape::two_level(3), 2);
        for mode in 0..3 {
            eng.invalidate_mode(mode);
            let _ = eng.mttkrp(&t, &factors, mode);
        }
        let ops = eng.ops();
        assert_eq!(ops.ttmv_calls, 3);
        assert_eq!(ops.hadamard_row_mults, 3 * t.nnz() as u64 * 2);
    }

    #[test]
    fn live_nodes_bounded_by_tree_height() {
        let n = 8;
        let dims = vec![12usize; n];
        let t = zipf_tensor(&dims, 500, &vec![0.4; n], 77);
        let shape = TreeShape::balanced_binary(n);
        let height = shape.height();
        let factors = factors_for(&t, 3, 8);
        let mut eng = DtreeEngine::new(&t, &shape, 3);
        for _iter in 0..2 {
            for mode in 0..n {
                eng.invalidate_mode(mode);
                let _ = eng.mttkrp(&t, &factors, mode);
                assert!(
                    eng.live_nodes() <= height,
                    "live {} exceeds height {height} after mode {mode}",
                    eng.live_nodes()
                );
            }
        }
        assert!(eng.mem().peak_live_nodes <= height);
    }

    #[test]
    fn colwise_matches_thick() {
        let t = zipf_tensor(&[14, 11, 13, 9], 350, &[0.5; 4], 13);
        let factors = factors_for(&t, 6, 70);
        let opts = EngineOptions { thick: false };
        let mut thin = DtreeEngine::with_options(&t, &TreeShape::balanced_binary(4), 6, opts);
        let mut thick = DtreeEngine::new(&t, &TreeShape::balanced_binary(4), 6);
        let one = pool(1);
        for mode in 0..4 {
            thin.invalidate_mode(mode);
            thick.invalidate_mode(mode);
            let a = one.install(|| thin.mttkrp(&t, &factors, mode));
            let b = thick.mttkrp(&t, &factors, mode);
            assert!(a.max_abs_diff(&b) < 1e-10, "mode {mode}");
        }
    }

    #[test]
    fn parallel_matches_sequential_on_large_node() {
        // Enough elements to cross PAR_THRESHOLD.
        let t = zipf_tensor(&[300, 300, 300], 20_000, &[0.2; 3], 14);
        let factors = factors_for(&t, 4, 90);
        let mut seq = DtreeEngine::new(&t, &TreeShape::balanced_binary(3), 4);
        let mut par = DtreeEngine::new(&t, &TreeShape::balanced_binary(3), 4);
        let one = pool(1);
        for mode in 0..3 {
            seq.invalidate_mode(mode);
            par.invalidate_mode(mode);
            let a = one.install(|| seq.mttkrp(&t, &factors, mode));
            let b = par.mttkrp(&t, &factors, mode);
            assert!(a.max_abs_diff(&b) < 1e-9, "mode {mode}");
        }
    }

    #[test]
    fn scheduled_parallel_kernels_match_sequential_in_pool() {
        // Skewed mode 0 creates hot reduction sets (split sub-tasks);
        // the small-mode leaves exercise the scatter schedule. A real
        // multi-thread pool makes the scheduled parallel paths run.
        let t = zipf_tensor(&[40, 300, 300], 30_000, &[0.95, 0.2, 0.2], 23);
        let factors = factors_for(&t, 4, 91);
        let mut seq = DtreeEngine::new(&t, &TreeShape::balanced_binary(3), 4);
        let one = pool(1);
        pool(4).install(|| {
            let mut par = DtreeEngine::new(&t, &TreeShape::balanced_binary(3), 4);
            for _iter in 0..2 {
                for mode in 0..3 {
                    seq.invalidate_mode(mode);
                    par.invalidate_mode(mode);
                    let a = one.install(|| seq.mttkrp(&t, &factors, mode));
                    let b = par.mttkrp(&t, &factors, mode);
                    assert!(a.max_abs_diff(&b) < 1e-9, "mode {mode}");
                }
            }
        });
    }

    #[test]
    fn scheduled_parallel_runs_are_deterministic() {
        let t = zipf_tensor(&[50, 200, 200], 20_000, &[0.9, 0.3, 0.3], 29);
        let factors = factors_for(&t, 4, 17);
        pool(4).install(|| {
            let mut eng = DtreeEngine::new(&t, &TreeShape::balanced_binary(3), 4);
            eng.invalidate_mode(1);
            let a = eng.mttkrp(&t, &factors, 1);
            eng.invalidate_all();
            eng.invalidate_mode(1);
            let b = eng.mttkrp(&t, &factors, 1);
            // Static schedules: two runs agree bitwise, not just within
            // floating-point tolerance.
            assert_eq!(a.as_slice(), b.as_slice());
        });
    }

    /// One protocol sweep over every mode.
    fn sweep(eng: &mut DtreeEngine, t: &SparseTensor, factors: &[Mat]) {
        for mode in 0..t.ndim() {
            eng.invalidate_mode(mode);
            let _ = eng.mttkrp(t, factors, mode);
        }
    }

    #[cfg(feature = "audit")]
    #[test]
    fn parallel_pull_nodes_are_overlap_audited() {
        use adatm_tensor::audit::{overlap_checks, overlap_count};
        // Every node holds tens of thousands of elements, so at two
        // threads the pull kernels run nnz-balanced multi-task schedules.
        let t = zipf_tensor(&[3000, 2500, 2000, 3500], 30_000, &[0.2, 0.3, 0.1, 0.2], 11);
        let factors = factors_for(&t, 4, 3);
        let before = overlap_checks();
        pool(2).install(|| {
            let mut eng = DtreeEngine::new(&t, &TreeShape::balanced_binary(4), 4);
            sweep(&mut eng, &t, &factors);
            let pull = (1..eng.tree().len()).filter(|&id| {
                eng.node_kernel_class(id) == Some(NodeKernelClass::Pull)
                    && eng.symbolic().node(id).len >= PAR_THRESHOLD
            });
            assert!(pull.count() >= 2, "the sweep must run parallel pull nodes");
        });
        assert!(overlap_checks() > before, "no pull kernel call was audited");
        assert_eq!(overlap_count(), 0, "pull kernel tasks claimed overlapping rows");
    }

    #[test]
    fn depth_buffers_are_reused_and_reset_clears() {
        let t = zipf_tensor(&[12, 12, 12, 12], 300, &[0.4; 4], 8);
        let factors = factors_for(&t, 3, 12);
        let mut eng = DtreeEngine::new(&t, &TreeShape::balanced_binary(4), 3);
        sweep(&mut eng, &t, &factors);
        let held = eng.value_buffer_bytes();
        assert!(held > 0);
        // Dropped nodes retire to their depth's spare slot: nothing is
        // freed, and further sweeps allocate no new buffer.
        eng.invalidate_all();
        assert_eq!(eng.live_nodes(), 0);
        assert_eq!(eng.value_buffer_bytes(), held, "dropped buffers must be kept as spares");
        sweep(&mut eng, &t, &factors);
        assert_eq!(eng.value_buffer_bytes(), held);
        eng.invalidate_all();
        eng.reset_caches();
        assert_eq!(eng.value_buffer_bytes(), 0);
        // Still correct after dropping every cache.
        for mode in 0..4 {
            eng.invalidate_mode(mode);
            let m = eng.mttkrp(&t, &factors, mode);
            let want = mttkrp_seq(&t, &factors, mode);
            assert!(m.max_abs_diff(&want) < 1e-10, "mode {mode}");
        }
    }

    #[test]
    fn protocol_holds_one_buffer_per_depth_sized_for_its_largest_node() {
        // Mode sizes and skews differ, so nodes at one depth differ in
        // length and each depth's buffer must fit the largest of them.
        let t = zipf_tensor(&[30, 8, 40, 12, 25, 18], 2_000, &[0.9, 0.2, 0.7, 0.4, 1.0, 0.5], 41);
        let rank = 4;
        let factors = factors_for(&t, rank, 5);
        for shape in
            [TreeShape::two_level(6), TreeShape::three_level(6), TreeShape::balanced_binary(6)]
        {
            let mut eng = DtreeEngine::new(&t, &shape, rank);
            sweep(&mut eng, &t, &factors);
            let tree = eng.tree();
            let mut largest = vec![0usize; shape.height() + 1];
            for id in 1..tree.len() {
                let depth = tree.path_to_root(id).len() - 1;
                largest[depth] = largest[depth].max(eng.symbolic().node(id).len);
            }
            let want: usize = largest.iter().map(|&len| len * rank * 8).sum();
            assert_eq!(eng.value_buffer_bytes(), want, "{shape}");
            sweep(&mut eng, &t, &factors);
            assert_eq!(eng.value_buffer_bytes(), want, "{shape}: second sweep");
        }
    }

    #[test]
    fn second_live_node_at_a_depth_gets_its_own_buffer() {
        // Outside the protocol, recompute_node never evicts a live node:
        // two live leaves of the flat tree hold two buffers, and dropping
        // both keeps one as the depth's spare.
        let t = zipf_tensor(&[20, 20, 20], 500, &[0.5; 3], 3);
        let factors = factors_for(&t, 2, 9);
        let mut eng = DtreeEngine::new(&t, &TreeShape::two_level(3), 2);
        let one = eng.depths[1].rows * 2 * 8;
        eng.recompute_node(&t, &factors, 1);
        eng.recompute_node(&t, &factors, 2);
        assert_eq!(eng.live_nodes(), 2);
        assert_eq!(eng.value_buffer_bytes(), 2 * one);
        // Recomputing a live node reuses its own buffer.
        eng.recompute_node(&t, &factors, 2);
        assert_eq!(eng.value_buffer_bytes(), 2 * one);
        eng.invalidate_all();
        assert_eq!(eng.value_buffer_bytes(), one);
        let m = eng.mttkrp(&t, &factors, 0);
        assert!(m.max_abs_diff(&mttkrp_seq(&t, &factors, 0)) < 1e-10);
    }

    #[test]
    fn leaf_values_expose_compact_result() {
        let t = SparseTensor::from_entries(vec![6, 3], &[(vec![1, 0], 2.0), (vec![4, 2], 3.0)]);
        let factors = factors_for(&t, 2, 6);
        let mut eng = DtreeEngine::new(&t, &TreeShape::two_level(2), 2);
        assert!(eng.leaf_values(0).is_none());
        let m = eng.mttkrp(&t, &factors, 0);
        let (idx, vals) = eng.leaf_values(0).expect("leaf valid after mttkrp");
        assert_eq!(idx, &[1, 4]);
        for (e, &i) in idx.iter().enumerate() {
            assert_eq!(vals.row(e), m.row(i as usize));
        }
    }

    #[test]
    fn symbolic_structure_shared_across_ranks() {
        // The rank-independent symbolic pass is built once and shared by
        // engines at different ranks; both must stay correct.
        let t = zipf_tensor(&[14, 12, 16, 10], 400, &[0.5; 4], 19);
        let shape = TreeShape::balanced_binary(4);
        let base = DtreeEngine::new(&t, &shape, 2);
        let sym = base.shared_symbolic();
        let tree = crate::tree::DimTree::from_shape(&shape);
        let mut eng8 = DtreeEngine::from_parts(tree, sym.clone(), 8, EngineOptions::default());
        assert!(std::sync::Arc::strong_count(&sym) >= 3);
        let factors = factors_for(&t, 8, 44);
        for mode in 0..4 {
            eng8.invalidate_mode(mode);
            let m = eng8.mttkrp(&t, &factors, mode);
            let want = mttkrp_seq(&t, &factors, mode);
            assert!(m.max_abs_diff(&want) < 1e-10, "mode {mode}");
        }
    }

    #[test]
    fn invalidate_all_clears_everything() {
        let t = zipf_tensor(&[8, 8, 8, 8], 100, &[0.3; 4], 4);
        let factors = factors_for(&t, 2, 2);
        let mut eng = DtreeEngine::new(&t, &TreeShape::balanced_binary(4), 2);
        let _ = eng.mttkrp(&t, &factors, 0);
        assert!(eng.live_nodes() > 0);
        eng.invalidate_all();
        assert_eq!(eng.live_nodes(), 0);
        assert_eq!(eng.mem().current_value_bytes, 0);
    }

    #[test]
    fn empty_tensor_mttkrp_is_zero() {
        let t = SparseTensor::empty(vec![5, 6, 7]);
        let factors = factors_for(&t, 3, 1);
        let mut eng = DtreeEngine::new(&t, &TreeShape::balanced_binary(3), 3);
        let m = eng.mttkrp(&t, &factors, 1);
        assert_eq!(m.fro_norm(), 0.0);
    }

    #[test]
    #[should_panic(expected = "different tensor")]
    fn engine_rejects_foreign_tensor() {
        let a = zipf_tensor(&[8, 8, 8], 50, &[0.0; 3], 1);
        let b = zipf_tensor(&[8, 8, 8], 60, &[0.0; 3], 2);
        let factors = factors_for(&b, 2, 1);
        let mut eng = DtreeEngine::new(&a, &TreeShape::balanced_binary(3), 2);
        let _ = eng.mttkrp(&b, &factors, 0);
    }
}
