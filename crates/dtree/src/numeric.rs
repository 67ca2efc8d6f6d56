// lint: hot-path
//! Numeric TTMV: the per-iteration kernels of dimension-tree CP-ALS.
//!
//! A [`DtreeEngine`] binds a tree's symbolic structure to a rank `R` and
//! caches, per internal node, the node's *value matrix* — the
//! `|elements| x R` matrix holding all `R` partial-TTV tensors at once
//! (they share one nonzero pattern, so the index structure is stored once
//! and the values are updated "thick", all `R` columns per element). The
//! engine implements the dimension-tree CP-ALS protocol:
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
//! the `O(log N)` memory bound of the balanced binary tree. A leaf's
//! values *are* the MTTKRP, so a leaf has no value matrix:
//! [`DtreeEngine::mttkrp_into`] writes it straight into the caller's `M`
//! through the leaf's row map `idx[0]` and zeroes only the rows no
//! element lands on. The engine holds the internal nodes' value buffers:
//! one per tree depth, sized once for the largest internal node at that
//! depth and reshaped for the others, so a run keeps about one
//! root-to-leaf path of value matrices allocated and steady iterations
//! allocate none.
//!
//! Every TTMV without a schedule — one thread, or a node under
//! [`PAR_THRESHOLD`] elements — runs the pull kernel: each node element's
//! reduction set is summed in a register block of up to 16 columns (then
//! 8, 4 and 1 for the rest of the rank) and stored once. The delta index
//! columns and factors are resolved once per call into a fixed-arity
//! array: `|δ|` is a const parameter up to eight, and the parent is the
//! tensor's scalars or a value matrix's rows. Under a schedule,
//! scatter-eligible nodes stream the parent into per-chunk accumulators
//! ([`crate::sched`]) and the rest pull under an nnz-balanced schedule.
//! The kernels' bits do not depend on which one runs: every element sums
//! its reduction set from `+0.0` in ascending parent order, and such a sum
//! is never `−0.0`, so storing it equals adding it to a zeroed row.

use crate::error::DtreeError;
use crate::sched::{run_scatter, ScatterSchedule};
use crate::shape::TreeShape;
use crate::stats::{MemoryStats, OpStats};
use crate::symbolic::{scatter_scheduled, SymbolicNode, SymbolicTree, PAR_THRESHOLD};
use crate::tree::DimTree;
use adatm_linalg::Mat;
use adatm_tensor::coo::Idx;
use adatm_tensor::schedule::{run_schedule, ModeSchedule, ScheduleCache, Workspace};
use adatm_tensor::SparseTensor;
use rayon::prelude::*;
use std::ops::Range;
use std::sync::Arc;

/// Elements per parallel task in the (unscheduled) column-wise kernel.
const PAR_CHUNK: usize = 512;

/// Widest `|δ|` with its own fully unrolled kernel; wider deltas (trees
/// over tensors of more than nine modes) resolve each operand per access.
const MAX_FUSED: usize = 8;

/// Widest block of columns the pull kernel sums in registers.
const LANES: usize = 16;

/// The value buffers of one tree depth.
#[derive(Debug, Default)]
struct DepthBuffer {
    /// Element count of the largest internal node at this depth. Every
    /// value buffer for the depth is allocated at this many rows and
    /// reshaped to the node it holds, so it never grows.
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
    /// Value matrices of the valid internal nodes (leaves stay `None`:
    /// they are written into the caller's `M`).
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
    /// Reusable kernel scratch (split and scatter slot rows).
    ws: Workspace,
    opts: EngineOptions,
    ops: OpStats,
    mem: MemoryStats,
}

/// Which numeric kernel computes a given non-root node — the engine's own
/// choice at the current thread count: nodes that [`scatter_scheduled`]
/// admits run the streaming *scatter* ("push") kernel, everything else
/// the *pull* ("thick" gather) kernel. Exposed so benches and the
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
        for id in (1..n_nodes).filter(|&id| !tree.node(id).is_leaf()) {
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

    /// Memory counters (internal nodes' value matrices).
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

    /// Number of internal nodes with live value matrices.
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
    /// protocol sweep it is the largest internal node of each depth times
    /// `R * 8`, summed over depths.
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

    /// [`DtreeEngine::mttkrp`] into a caller-provided buffer, whose
    /// previous contents are ignored: the leaf's TTMV writes each of its
    /// elements' rows, and the rows of empty slices are zeroed.
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
        self.compute_leaf(leaf, tensor, factors, out)
            .unwrap_or_else(|e| panic!("dimension-tree invariant violated: {e}"));
    }

    /// The kernel class the engine uses for non-root node `id` at the
    /// current thread count, or `None` for the root (which is never
    /// computed). See [`NodeKernelClass`].
    pub fn node_kernel_class(&self, id: usize) -> Option<NodeKernelClass> {
        if id == 0 || id >= self.tree.len() {
            return None;
        }
        let parent = self.tree.node(id).parent?;
        if self.scatters(id, parent, rayon::current_num_threads()) {
            Some(NodeKernelClass::Scatter)
        } else {
            Some(NodeKernelClass::Pull)
        }
    }

    /// Whether node `id` (child of `parent`) runs the scatter kernel at
    /// `threads` workers. First children stream their parent in order and
    /// always pull.
    fn scatters(&self, id: usize, parent: usize, threads: usize) -> bool {
        let node = self.sym.node(id);
        let parent_len = self.sym.node(parent).len;
        self.opts.thick && !node.sequential && scatter_scheduled(node.len, parent_len, threads)
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

    /// Drops internal node `id` and recomputes it from its parent
    /// (ancestors are ensured first). Bench/calibration hook: timing this
    /// call in steady state measures exactly one TTMV of the node's kernel
    /// class, with schedules and value buffers warm. Other nodes stay
    /// live, so a depth may hold several buffers while this is used. A
    /// leaf's TTMV is timed through [`DtreeEngine::mttkrp_into`], which
    /// recomputes only the leaf while its ancestors are valid.
    ///
    /// # Panics
    /// Panics if `id` is the root, a leaf or out of range, or on a broken
    /// tree invariant.
    pub fn recompute_node(&mut self, tensor: &SparseTensor, factors: &[Mat], id: usize) {
        assert!(
            id > 0 && id < self.tree.len() && !self.tree.node(id).is_leaf(),
            "recompute_node: {id} is not an internal non-root node"
        );
        self.drop_node(id);
        self.ensure(id, tensor, factors)
            .unwrap_or_else(|e| panic!("dimension-tree invariant violated: {e}"));
    }

    /// Makes internal node `id` and all its ancestors valid.
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
        self.compute_node(id, tensor, factors, None)
    }

    /// Ensures `leaf`'s ancestors, then computes the leaf into `out`.
    fn compute_leaf(
        &mut self,
        leaf: usize,
        tensor: &SparseTensor,
        factors: &[Mat],
        out: &mut Mat,
    ) -> Result<(), DtreeError> {
        let parent = self.tree.node(leaf).parent.ok_or(DtreeError::MissingParent { node: leaf })?;
        self.ensure(parent, tensor, factors)?;
        self.compute_node(leaf, tensor, factors, Some(out))
    }

    /// Computes one node from its (already valid) parent: a leaf into
    /// `leaf_out` through its row map, an internal node into its value
    /// matrix.
    fn compute_node(
        &mut self,
        id: usize,
        tensor: &SparseTensor,
        factors: &[Mat],
        leaf_out: Option<&mut Mat>,
    ) -> Result<(), DtreeError> {
        let parent = self.tree.node(id).parent.ok_or(DtreeError::MissingParent { node: id })?;
        // Work through a local handle so `node` does not pin `self`.
        let sym = Arc::clone(&self.sym);
        let node = sym.node(id);
        let rank = self.rank;
        // The kernels go parallel, and only then get a schedule, with more
        // than one thread and enough elements to stream.
        let threads = rayon::current_num_threads();
        let scatters = self.scatters(id, parent, threads);
        let kernel = if !self.opts.thick {
            Kernel::Colwise { parallel: threads > 1 && node.len >= PAR_THRESHOLD }
        } else if scatters {
            let build = || ScatterSchedule::build(&node.rptr, &node.rperm, threads);
            Kernel::Scatter(self.scatter.get_or_build(id, threads, build))
        } else {
            let build = || ModeSchedule::for_offsets(&node.rptr, threads);
            let par = threads > 1 && node.len >= PAR_THRESHOLD;
            Kernel::Pull(par.then(|| self.pull.get_or_build(id, threads, build)))
        };
        // An internal node reuses its depth's spare buffer, else allocates
        // one sized for the depth's largest internal node; either way it
        // never reallocates. Every kernel writes every row it owns.
        let mut own = None;
        let (out, rows) = match leaf_out {
            // A leaf has one index array; an empty map would fail loudly.
            Some(m) => (m, Some(node.idx.first().map_or(&[][..], Vec::as_slice))),
            None => {
                let depth = &mut self.depths[depth_of(&self.tree, id)];
                let mut buf = depth.spare.take().unwrap_or_else(|| Mat::zeros(depth.rows, rank));
                buf.reshape(node.len, rank);
                (own.insert(buf), None)
            }
        };
        let parent_vals = match parent {
            0 => None,
            p => Some(self.vals[p].as_ref().ok_or(DtreeError::NodeNotComputed { node: p })?),
        };
        let delta = &self.tree.node(id).delta;
        let parent_idx = (self.tree.node(parent).modes.as_slice(), sym.node(parent).idx.as_slice());
        let operands = Resolver { delta, factors, tensor, parent: parent_vals.map(|_| parent_idx) };
        for (k, &mode) in delta.iter().enumerate() {
            operands.get(k).ok_or(DtreeError::ModeNotInParent { node: id, mode })?;
        }
        let call = Call { node, rank, out: &mut *out, rows, kernel, ws: &mut self.ws };
        match parent_vals {
            None => call.dispatch(Scalars(tensor.vals()), &operands),
            Some(m) => call.dispatch(Rows(m.as_slice()), &operands),
        }
        // Stage-boundary audit: a TTMV output contaminated by NaN/Inf
        // would silently poison every descendant's memoized values.
        #[cfg(feature = "audit")]
        audit_finite(out, id);
        // Exact operation accounting: every parent element is visited
        // once, multiplied by |delta| factor rows, and added once.
        let parent_len = sym.node(parent).len as u64;
        self.ops.ttmv_calls += 1;
        self.ops.hadamard_row_mults += parent_len * delta.len() as u64;
        self.ops.row_adds += parent_len;
        self.ops.flops += parent_len * (delta.len() as u64 + 1) * rank as u64;
        if let Some(m) = own {
            self.mem.alloc(value_bytes(&m));
            self.vals[id] = Some(m);
        }
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

/// Audit hook: every entry of a freshly computed value matrix (or `M`)
/// is finite.
#[cfg(feature = "audit")]
fn audit_finite(m: &Mat, node: usize) {
    for (i, &v) in m.as_slice().iter().enumerate() {
        assert!(
            v.is_finite(),
            "audit: node {node}: non-finite value {v} at flat offset {i} of its value matrix"
        );
    }
}

/// The parent values of one TTMV.
trait Parent: Copy + Sync {
    /// Columns `c0..c0 + W` of parent element `j`'s row.
    fn load<const W: usize>(self, j: usize, rank: usize, c0: usize) -> [f64; W];
}

/// Children of the root: every one of the `R` root tensors is the input
/// tensor, so an element's row is its value broadcast.
#[derive(Clone, Copy)]
struct Scalars<'a>(&'a [f64]);

impl Parent for Scalars<'_> {
    #[inline(always)]
    fn load<const W: usize>(self, j: usize, _rank: usize, _c0: usize) -> [f64; W] {
        [self.0[j]; W]
    }
}

/// The parent's value matrix, `R` values per element.
#[derive(Clone, Copy)]
struct Rows<'a>(&'a [f64]);

impl Parent for Rows<'_> {
    #[inline(always)]
    fn load<const W: usize>(self, j: usize, rank: usize, c0: usize) -> [f64; W] {
        let at = j * rank + c0;
        let mut p = [0.0; W];
        p.copy_from_slice(&self.0[at..at + W]);
        p
    }
}

/// One delta mode of a TTMV: its index column over the parent's elements
/// and its factor's values.
#[derive(Clone, Copy)]
struct Operand<'a> {
    col: &'a [Idx],
    fac: &'a [f64],
}

impl Operand<'_> {
    const EMPTY: Operand<'static> = Operand { col: &[], fac: &[] };
}

/// The delta operands of one TTMV.
trait Operands: Sync {
    /// `p` times each delta factor's row of parent element `j`, columns
    /// `c0..c0 + W`, multiplied in delta order.
    fn product<const W: usize>(&self, j: usize, rank: usize, c0: usize, p: [f64; W]) -> [f64; W];
}

impl<const D: usize> Operands for [Operand<'_>; D] {
    #[inline(always)]
    fn product<const W: usize>(
        &self,
        j: usize,
        rank: usize,
        c0: usize,
        mut p: [f64; W],
    ) -> [f64; W] {
        for op in self {
            let at = op.col[j] as usize * rank + c0;
            for (x, &f) in p.iter_mut().zip(&op.fac[at..at + W]) {
                *x *= f;
            }
        }
        p
    }
}

/// Resolves a node's delta operands: mode `delta[k]`'s index column comes
/// from the tensor (children of the root) or from the parent's index
/// arrays (`(parent modes, parent idx)`), its factor from `factors`.
#[derive(Clone, Copy)]
struct Resolver<'a> {
    delta: &'a [usize],
    factors: &'a [Mat],
    tensor: &'a SparseTensor,
    parent: Option<(&'a [usize], &'a [Vec<Idx>])>,
}

impl<'a> Resolver<'a> {
    /// Operand `k`, or `None` if `delta[k]` is not a mode of the parent.
    fn get(&self, k: usize) -> Option<Operand<'a>> {
        let d = *self.delta.get(k)?;
        let col = match self.parent {
            None => self.tensor.mode_idx(d),
            Some((modes, idx)) => idx.get(modes.binary_search(&d).ok()?)?.as_slice(),
        };
        Some(Operand { col, fac: self.factors.get(d)?.as_slice() })
    }

    /// The operands as a fixed-arity array (all resolvable: checked by
    /// the caller).
    fn fixed<const D: usize>(&self) -> [Operand<'a>; D] {
        std::array::from_fn(|k| self.get(k).unwrap_or(Operand::EMPTY))
    }
}

/// Deltas wider than [`MAX_FUSED`]: each operand is resolved per access.
impl Operands for Resolver<'_> {
    fn product<const W: usize>(&self, j: usize, rank: usize, c0: usize, p: [f64; W]) -> [f64; W] {
        (0..self.delta.len())
            .fold(p, |p, k| [self.get(k).unwrap_or(Operand::EMPTY)].product(j, rank, c0, p))
    }
}

/// The kernel one TTMV call runs.
enum Kernel<'s> {
    /// Pull, inline or under the node's nnz-balanced schedule.
    Pull(Option<&'s ModeSchedule>),
    /// Scatter under the node's parent-chunk schedule.
    Scatter(&'s ScatterSchedule),
    /// The column-at-a-time ablation kernel.
    Colwise {
        /// Whether it runs in parallel element blocks.
        parallel: bool,
    },
}

/// One TTMV call: the node, where it writes (`rows`: the leaf's row map
/// into `M`, or `None` for the node's own value rows), and its kernel.
struct Call<'a, 's> {
    node: &'a SymbolicNode,
    rank: usize,
    out: &'a mut Mat,
    rows: Option<&'a [Idx]>,
    kernel: Kernel<'s>,
    ws: &'a mut Workspace,
}

impl Call<'_, '_> {
    /// Runs the call with the operands resolved once into a fixed-arity
    /// array for `|δ|` up to [`MAX_FUSED`].
    fn dispatch<P: Parent>(self, parent: P, ops: &Resolver<'_>) {
        match ops.delta.len() {
            1 => self.run(parent, &ops.fixed::<1>()),
            2 => self.run(parent, &ops.fixed::<2>()),
            3 => self.run(parent, &ops.fixed::<3>()),
            4 => self.run(parent, &ops.fixed::<4>()),
            5 => self.run(parent, &ops.fixed::<5>()),
            6 => self.run(parent, &ops.fixed::<6>()),
            7 => self.run(parent, &ops.fixed::<7>()),
            8 => self.run(parent, &ops.fixed::<MAX_FUSED>()),
            _ => self.run(parent, ops),
        }
    }

    fn run<P: Parent, O: Operands>(self, parent: P, ops: &O) {
        let Call { node, rank, out, rows, kernel, ws } = self;
        let row_of = |e: usize| rows.map_or(e, |r| r[e] as usize);
        match kernel {
            Kernel::Pull(sched) => kernel_pull(out, rank, node, row_of, parent, ops, sched, ws),
            Kernel::Scatter(sched) => {
                let out = out.as_mut_slice();
                kernel_scatter(out, rank, row_of, parent, ops, sched, ws);
            }
            Kernel::Colwise { parallel } => {
                let out = out.as_mut_slice();
                kernel_colwise(out, rank, node, rows, parent, ops, parallel);
            }
        }
    }
}

/// Sums the parent elements `set()` yields (one reduction set, or a run
/// of one) into `row`, block of columns by block: a block's sums stay in
/// registers across the whole set and are stored once. Each sum starts
/// from `+0.0` and adds the contributions `parent ⊙ U_δ1 ⊙ U_δ2 ⊙ ...`
/// (multiplied left to right) in set order.
#[inline(always)]
fn sum_row<P, O, S, I>(set: S, parent: P, ops: &O, rank: usize, row: &mut [f64])
where
    P: Parent,
    O: Operands,
    S: Fn() -> I,
    I: Iterator<Item = usize>,
{
    let mut c0 = 0;
    while c0 < rank {
        c0 += match rank - c0 {
            w if w >= LANES => sum_block::<LANES, P, O>(set(), parent, ops, rank, c0, row),
            w if w >= 8 => sum_block::<8, P, O>(set(), parent, ops, rank, c0, row),
            w if w >= 4 => sum_block::<4, P, O>(set(), parent, ops, rank, c0, row),
            _ => sum_block::<1, P, O>(set(), parent, ops, rank, c0, row),
        };
    }
}

/// Columns `c0..c0 + W` of [`sum_row`]; returns `W`.
#[inline(always)]
fn sum_block<const W: usize, P: Parent, O: Operands>(
    set: impl Iterator<Item = usize>,
    parent: P,
    ops: &O,
    rank: usize,
    c0: usize,
    row: &mut [f64],
) -> usize {
    let mut acc = [0.0; W];
    for j in set {
        let p = ops.product(j, rank, c0, parent.load::<W>(j, rank, c0));
        for (a, x) in acc.iter_mut().zip(p) {
            *a += x;
        }
    }
    row[c0..c0 + W].copy_from_slice(&acc);
    W
}

/// Adds parent element `j`'s contribution into `row`, block of columns by
/// block, with [`sum_row`]'s arithmetic.
#[inline(always)]
fn add_contrib<P: Parent, O: Operands>(j: usize, parent: P, ops: &O, rank: usize, row: &mut [f64]) {
    let mut c0 = 0;
    while c0 < rank {
        c0 += match rank - c0 {
            w if w >= LANES => add_block::<LANES, P, O>(j, parent, ops, rank, c0, row),
            w if w >= 8 => add_block::<8, P, O>(j, parent, ops, rank, c0, row),
            w if w >= 4 => add_block::<4, P, O>(j, parent, ops, rank, c0, row),
            _ => add_block::<1, P, O>(j, parent, ops, rank, c0, row),
        };
    }
}

/// Columns `c0..c0 + W` of [`add_contrib`]; returns `W`.
#[inline(always)]
fn add_block<const W: usize, P: Parent, O: Operands>(
    j: usize,
    parent: P,
    ops: &O,
    rank: usize,
    c0: usize,
    row: &mut [f64],
) -> usize {
    let p = ops.product(j, rank, c0, parent.load::<W>(j, rank, c0));
    for (a, x) in row[c0..c0 + W].iter_mut().zip(p) {
        *a += x;
    }
    W
}

/// The pull TTMV kernel: per node element, sum its reduction set in
/// registers and store the row, `row_of(e)` of `out`. Elements are
/// output rows, so [`run_schedule`] runs it with the node's nnz-balanced
/// schedule (or inline, with none) and zeroes the rows no element owns; a
/// split reduction set's sub-tasks each sum a run of its parent elements
/// into a slot row. The first child's reduction sets are contiguous
/// parent ranges and stream without `rperm`.
#[adatm::hot]
#[allow(clippy::too_many_arguments)]
fn kernel_pull<R, P, O>(
    out: &mut Mat,
    rank: usize,
    node: &SymbolicNode,
    row_of: R,
    parent: P,
    ops: &O,
    sched: Option<&ModeSchedule>,
    ws: &mut Workspace,
) where
    R: Fn(usize) -> usize + Sync,
    P: Parent,
    O: Operands,
{
    let rperm = (!node.sequential).then_some(node.rperm.as_slice());
    let rptr = &node.rptr;
    run_schedule(
        sched,
        ws,
        0,
        out,
        node.len,
        row_of,
        #[inline(always)]
        |i, elems, row, _| {
            let (lo, hi) = (rptr[i], rptr[i + 1]);
            let (lo, hi) = elems.map_or((lo, hi), |e| (lo + e.start, lo + e.end));
            match rperm {
                Some(perm) => {
                    let set = &perm[lo..hi];
                    sum_row(|| set.iter().map(|&j| j as usize), parent, ops, rank, row);
                }
                None => sum_row(|| lo..hi, parent, ops, rank, row),
            }
        },
    );
}

/// The push ("scatter") TTMV kernel: stream the parent, chunk by chunk in
/// parallel, and accumulate each contribution into the chunk's compact
/// row for its child element; [`run_scatter`] merges the chunks into
/// `out` through `row_of`. Used under a schedule when the child is far
/// smaller than the parent, so the accumulators stay cache-resident while
/// the parent streams.
#[adatm::hot]
fn kernel_scatter<R, P, O>(
    out: &mut [f64],
    rank: usize,
    row_of: R,
    parent: P,
    ops: &O,
    sched: &ScatterSchedule,
    ws: &mut Workspace,
) where
    R: Fn(usize) -> usize,
    P: Parent,
    O: Operands,
{
    run_scatter(sched, out, rank, row_of, ws, |j0, map, acc| {
        for (j, &e) in (j0..).zip(map) {
            let e = e as usize * rank;
            add_contrib(j, parent, ops, rank, &mut acc[e..e + rank]);
        }
    });
}

/// The column-at-a-time kernel: one full pass over the reduction sets per
/// rank column (E12 ablation baseline; same arithmetic, `R`x the index
/// traffic), over blocks of [`PAR_CHUNK`] elements in parallel. Element
/// `e` writes row `e`, or `rows[e]` of `M` (whose other rows are zeroed).
#[adatm::hot]
fn kernel_colwise<P: Parent, O: Operands>(
    out: &mut [f64],
    rank: usize,
    node: &SymbolicNode,
    rows: Option<&[Idx]>,
    parent: P,
    ops: &O,
    parallel: bool,
) {
    let (rptr, rperm) = (&node.rptr, &node.rperm);
    let row_of = |e: usize| rows.map_or(e, |r| r[e] as usize);
    let block = |elems: Range<usize>, row0: usize, span: &mut [f64]| {
        if rows.is_some() {
            span.fill(0.0);
        }
        for r in 0..rank {
            for e in elems.start..elems.end {
                let mut acc = 0.0f64;
                for &j in &rperm[rptr[e]..rptr[e + 1]] {
                    let j = j as usize;
                    let [p] = ops.product(j, rank, r, parent.load::<1>(j, rank, r));
                    acc += p;
                }
                span[(row_of(e) - row0) * rank + r] = acc;
            }
        }
    };
    if !parallel {
        block(0..node.len, 0, out);
        return;
    }
    // Element blocks own the rows from the first not yet claimed through
    // their last element's row; rows past the last block are zeroed here.
    let mut parts = Vec::new();
    let (mut rest, mut next) = (out, 0);
    for lo in (0..node.len).step_by(PAR_CHUNK) {
        let hi = (lo + PAR_CHUNK).min(node.len);
        let end = row_of(hi - 1) + 1;
        let (span, tail) = std::mem::take(&mut rest).split_at_mut((end - next) * rank);
        parts.push((lo..hi, next, span));
        (rest, next) = (tail, end);
    }
    rest.fill(0.0);
    parts.into_par_iter().for_each(|(elems, row0, span)| block(elems, row0, span));
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

    /// Asserts two matrices agree bit for bit.
    fn assert_bits(a: &Mat, b: &Mat, what: &str) {
        let bits = |m: &Mat| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a), bits(b), "{what}");
    }

    #[test]
    fn colwise_matches_thick() {
        // |delta| 1 to 5 over the tensor's scalars and 1 to 4 over value
        // rows (the 6-mode shapes), 9 over scalars (past MAX_FUSED, the
        // 10-mode flat tree), at ranks covering every register block.
        let t6 = zipf_tensor(&[14, 11, 13, 9, 12, 6], 500, &[0.5; 6], 13);
        let t10 = zipf_tensor(&[5; 10], 300, &[0.4; 10], 17);
        let cases = [
            (&t6, "((0 (1 (2 (3 4)))) 5)"),
            (&t6, "((0 1 2 3) (4 5))"),
            (&t6, "((0 1 2) (3 4 5))"),
            (&t10, "(0 1 2 3 4 5 6 7 8 9)"),
        ];
        let one = pool(1);
        for (t, spec) in cases {
            let shape: TreeShape = spec.parse().unwrap();
            for rank in [1, 3, 5, 16, 17, 33] {
                let factors = factors_for(t, rank, 70);
                let opts = EngineOptions { thick: false };
                let mut thin = DtreeEngine::with_options(t, &shape, rank, opts);
                let mut thick = DtreeEngine::new(t, &shape, rank);
                for mode in 0..t.ndim() {
                    thin.invalidate_mode(mode);
                    thick.invalidate_mode(mode);
                    let a = one.install(|| thin.mttkrp(t, &factors, mode));
                    let b = one.install(|| thick.mttkrp(t, &factors, mode));
                    assert_bits(&a, &b, &format!("{spec} rank {rank} mode {mode}"));
                    let want = mttkrp_seq(t, &factors, mode);
                    assert!(b.max_abs_diff(&want) < 1e-10, "{spec} rank {rank} mode {mode}");
                }
            }
        }
    }

    #[test]
    fn mttkrp_into_overwrites_m_and_zeroes_empty_slices() {
        // Mode 1 is skewed over 20000 indices, so most of its rows are
        // empty slices; its leaf is never the first child here, so it is
        // scatter-eligible, and at two threads its 20000-element parent
        // streams under the scatter schedule.
        let t = zipf_tensor(&[300, 20_000, 300], 20_000, &[0.2, 1.3, 0.2], 23);
        let hits = t.distinct_in_mode(1);
        assert!(hits < 4_000, "{hits} rows hit");
        let rank = 5;
        let factors = factors_for(&t, rank, 31);
        for thick in [true, false] {
            for threads in [1, 2] {
                for spec in ["(0 1 2)", "(0 (2 1))"] {
                    let shape: TreeShape = spec.parse().unwrap();
                    let opts = EngineOptions { thick };
                    let mut eng = DtreeEngine::with_options(&t, &shape, rank, opts);
                    let leaf = eng.tree().leaf_of(1);
                    let hit: Vec<usize> =
                        eng.symbolic().node(leaf).idx[0].iter().map(|&i| i as usize).collect();
                    let what = format!("thick {thick}, {threads} thread(s), {shape}");
                    let class = pool(threads).install(|| eng.node_kernel_class(leaf));
                    let scatter = thick && threads > 1;
                    assert_eq!(class == Some(NodeKernelClass::Scatter), scatter, "{what}");
                    pool(threads).install(|| {
                        let want = eng.mttkrp(&t, &factors, 1);
                        let mut m = Mat::from_vec(20_000, rank, vec![f64::NAN; 20_000 * rank]);
                        eng.invalidate_mode(1);
                        eng.mttkrp_into(&t, &factors, 1, &mut m);
                        assert_bits(&m, &want, &what);
                        for i in (0..20_000).filter(|i| hit.binary_search(i).is_err()) {
                            assert!(m.row(i).iter().all(|x| x.to_bits() == 0), "{what}: row {i}");
                        }
                    });
                }
            }
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
        // length and each depth's buffer must fit the largest internal
        // node of them; leaves hold none (they land in M).
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
            for id in (1..tree.len()).filter(|&id| !tree.node(id).is_leaf()) {
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
        // the two internal nodes of the balanced binary tree share depth
        // 1 and hold two buffers, and dropping both keeps one as the
        // depth's spare.
        let t = zipf_tensor(&[20, 20, 20, 20], 500, &[0.5; 4], 3);
        let factors = factors_for(&t, 2, 9);
        let mut eng = DtreeEngine::new(&t, &TreeShape::balanced_binary(4), 2);
        let (a, b) = (eng.tree().node(0).children[0], eng.tree().node(0).children[1]);
        let one = eng.depths[1].rows * 2 * 8;
        eng.recompute_node(&t, &factors, a);
        eng.recompute_node(&t, &factors, b);
        assert_eq!(eng.live_nodes(), 2);
        assert_eq!(eng.value_buffer_bytes(), 2 * one);
        // Recomputing a live node reuses its own buffer.
        eng.recompute_node(&t, &factors, b);
        assert_eq!(eng.value_buffer_bytes(), 2 * one);
        eng.invalidate_all();
        assert_eq!(eng.value_buffer_bytes(), one);
        let m = eng.mttkrp(&t, &factors, 0);
        assert!(m.max_abs_diff(&mttkrp_seq(&t, &factors, 0)) < 1e-10);
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
