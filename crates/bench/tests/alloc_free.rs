//! Zero-allocation gates for the scheduled MTTKRP kernels and the CP
//! sweep loop, and an allocation bound for planning.
//!
//! The perf contract of the scheduling work: once a backend has built its
//! sorted views / CSF trees, its per-(tensor, mode) `ModeSchedule`, and
//! warmed its `Workspace`, a steady-state kernel call performs **zero**
//! heap allocations on the sequential path, and the dimension-tree
//! engine reuses its value buffers. The sweep loop's contract: after
//! warm-up, an iteration allocates nothing of factor size — factors,
//! Grams and snapshots are updated in place — and the fused ALS and NCP
//! mode updates allocate nothing at all on one thread. Asserted with a
//! counting global allocator, which is why this lives in its own test
//! binary. The exact gates count the calling thread's allocations,
//! so the test harness's own threads never show up in them; the
//! parallel-path bound counts every thread, since its kernel allocates on
//! worker threads. Every test holds one lock, so no other test allocates
//! while that process-wide count is read.

// A `GlobalAlloc` impl is unavoidably `unsafe impl`; this file is one of
// the two sanctioned exceptions to the workspace-wide `deny(unsafe_code)`
// (the other is the bench driver's identical shim).
#![allow(unsafe_code)]

use adatm_core::{CooBackend, CpAls, CpAlsOptions, MttkrpBackend};
use adatm_dtree::{DtreeEngine, NodeKernelClass, TreeShape};
use adatm_linalg::Mat;
use adatm_model::Planner;
use adatm_tensor::csf::CsfTensor;
use adatm_tensor::gen::zipf_tensor;
use adatm_tensor::mttkrp::{mttkrp_par_into, schedule_for_view};
use adatm_tensor::schedule::{ModeSchedule, Workspace};
use adatm_tensor::{SortedModeView, SparseTensor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

struct CountingAlloc;

/// Requests of at least this many bytes count as large: a factor of the
/// sweep-loop test (4096+ rows at rank 16) is 512 KiB, while `R x R`
/// work (2 KiB at rank 16) stays far below.
const LARGE: usize = 64 * 1024;

/// Allocation events on every thread.
static ALL_ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialized with no destructor, so the allocator can touch
    // them without allocating; `try_with` covers thread teardown.
    static ALLOC_EVENTS: Cell<u64> = const { Cell::new(0) };
    static LARGE_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Taken by every test in this binary, so that one test body runs at a
/// time.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A failing test poisons the lock; the others still run.
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn count(size: usize) {
    ALL_ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
    let _ = ALLOC_EVENTS.try_with(|c| c.set(c.get() + 1));
    if size >= LARGE {
        let _ = LARGE_ALLOCS.try_with(|c| c.set(c.get() + 1));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// This thread's allocation events during one call of `f`, after the
/// caller has warmed every cache the call touches.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOC_EVENTS.with(Cell::get);
    f();
    ALLOC_EVENTS.with(Cell::get) - before
}

/// Allocation events on all threads during one call of `f`; the caller
/// holds [`serial`].
fn all_allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALL_ALLOC_EVENTS.load(Ordering::Relaxed);
    f();
    ALL_ALLOC_EVENTS.load(Ordering::Relaxed) - before
}

fn test_tensor() -> SparseTensor {
    zipf_tensor(&[60, 80, 50], 4000, &[0.3, 0.9, 0.6], 7)
}

fn factors_for(t: &SparseTensor, rank: usize) -> Vec<Mat> {
    t.dims()
        .iter()
        .enumerate()
        .map(|(d, &n)| {
            let mut m = Mat::zeros(n, rank);
            for (i, v) in m.as_mut_slice().iter_mut().enumerate() {
                *v = ((i * 31 + d * 17) % 23) as f64 * 0.1 - 1.0;
            }
            m
        })
        .collect()
}

#[test]
fn coo_scheduled_kernel_is_alloc_free_after_warmup() {
    let _serial = serial();
    let t = test_tensor();
    let factors = factors_for(&t, 8);
    for mode in 0..t.ndim() {
        let view = SortedModeView::build(&t, mode);
        // threads=1 => single Owned task => the inline sequential path.
        let sched = schedule_for_view(&view, 1);
        let mut ws = Workspace::new();
        let mut out = Mat::zeros(t.dims()[mode], 8);
        mttkrp_par_into(&t, &factors, mode, &view, &sched, &mut ws, &mut out);
        let n = allocs_during(|| {
            mttkrp_par_into(&t, &factors, mode, &view, &sched, &mut ws, &mut out);
        });
        assert_eq!(n, 0, "mode {mode}: {n} steady-state allocation(s)");
    }
}

#[test]
fn csf_scheduled_kernel_is_alloc_free_after_warmup() {
    let _serial = serial();
    let t = test_tensor();
    let factors = factors_for(&t, 8);
    for mode in 0..t.ndim() {
        let csf = CsfTensor::for_mode(&t, mode);
        let sched = csf.root_schedule(1);
        let mut ws = Workspace::new();
        let mut out = Mat::zeros(t.dims()[mode], 8);
        csf.mttkrp_root_into(&factors, &sched, &mut ws, &mut out);
        let n = allocs_during(|| {
            csf.mttkrp_root_into(&factors, &sched, &mut ws, &mut out);
        });
        assert_eq!(n, 0, "mode {mode}: {n} steady-state allocation(s)");
    }
}

#[test]
fn parallel_path_allocations_stay_bounded() {
    let _serial = serial();
    // The parallel path allocates O(tasks) bookkeeping (the runner's
    // task list plus the thread shim's dispatch) but must never regress
    // to the legacy kernel's O(groups) per-row collections. Its task
    // bodies run on worker threads, so this counts every thread. Each
    // kernel below has far more groups than its bound, so even one
    // allocation per group fails.
    let t = zipf_tensor(&[60, 3000, 50], 12_000, &[0.3, 0.2, 0.6], 7);
    let factors = factors_for(&t, 8);
    let mode = 1;
    let view = SortedModeView::build(&t, mode);
    let sched = schedule_for_view(&view, 8);
    let bound = 16 * sched.num_tasks() as u64 + 64;
    assert!(view.num_groups() as u64 > 2 * bound, "{} groups", view.num_groups());
    let mut ws = Workspace::new();
    let mut out = Mat::zeros(t.dims()[mode], 8);
    mttkrp_par_into(&t, &factors, mode, &view, &sched, &mut ws, &mut out);
    let n = all_allocs_during(|| {
        mttkrp_par_into(&t, &factors, mode, &view, &sched, &mut ws, &mut out);
    });
    assert!(n <= bound, "parallel path made {n} allocations");

    // The CSF root kernel over the same mode's root slices.
    let csf = CsfTensor::for_mode(&t, mode);
    let sched = csf.root_schedule(8);
    let bound = 16 * sched.num_tasks() as u64 + 64;
    assert!(csf.node_counts()[0] as u64 > 2 * bound, "{} slices", csf.node_counts()[0]);
    csf.mttkrp_root_into(&factors, &sched, &mut ws, &mut out);
    let n = all_allocs_during(|| csf.mttkrp_root_into(&factors, &sched, &mut ws, &mut out));
    assert!(n <= bound, "CSF parallel path made {n} allocations");

    // The dimension-tree pull kernel on the tree's largest pull node, in
    // an 8-thread pool; the engine balances the node as built here.
    let pool = rayon::ThreadPoolBuilder::new().num_threads(8).build().unwrap();
    pool.install(|| {
        let mut engine = DtreeEngine::new(&t, &TreeShape::balanced_binary(3), 8);
        let pull = (1..engine.tree().len())
            .filter(|&id| engine.node_kernel_class(id) == Some(NodeKernelClass::Pull));
        let id = pull.max_by_key(|&id| engine.symbolic().node(id).len).unwrap();
        let node = engine.symbolic().node(id);
        let weights: Vec<usize> = node.rptr.windows(2).map(|w| w[1] - w[0]).collect();
        let sched = ModeSchedule::build(&weights, 8);
        let bound = 16 * sched.num_tasks() as u64 + 64;
        // 4096 elements is the engine's threshold for going parallel.
        assert!(node.len >= 4096 && sched.num_tasks() > 1, "{} elements", node.len);
        assert!(node.len as u64 > 2 * bound, "{} elements", node.len);
        engine.recompute_node(&t, &factors, id);
        let n = all_allocs_during(|| engine.recompute_node(&t, &factors, id));
        assert!(n <= bound, "dimension-tree pull path made {n} allocations");
    });
}

#[test]
fn dtree_scatter_reuses_pooled_buffers() {
    let _serial = serial();
    // The dimension-tree engine recycles value buffers per tree depth;
    // a steady-state recompute+scatter must stay within a small constant
    // of bookkeeping allocations rather than reallocating intermediates.
    let t = test_tensor();
    let rank = 8;
    let factors = factors_for(&t, rank);
    let shape = TreeShape::balanced_binary(t.ndim());
    let mut engine = DtreeEngine::new(&t, &shape, rank);
    let mut out = Mat::zeros(t.dims()[1], rank);
    for _ in 0..2 {
        engine.invalidate_all();
        engine.mttkrp_into(&t, &factors, 1, &mut out);
    }
    engine.invalidate_all();
    let n = allocs_during(|| {
        engine.mttkrp_into(&t, &factors, 1, &mut out);
    });
    assert!(n <= 256, "dtree steady-state recompute made {n} allocations");
}

#[test]
fn dtree_sweeps_allocate_nothing_large_after_the_first() {
    let _serial = serial();
    // Every node holds at least 1024 elements, so each value buffer at
    // rank 16 is at least 128 KiB: reallocating any of them would show.
    let t = zipf_tensor(&[3000, 2500, 2000, 3500], 30_000, &[0.2, 0.3, 0.1, 0.2], 11);
    let rank = 16;
    let factors = factors_for(&t, rank);
    let pool = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
    for shape in [TreeShape::two_level(4), TreeShape::three_level(4), TreeShape::balanced_binary(4)]
    {
        let mut engine = DtreeEngine::new(&t, &shape, rank);
        let smallest = (1..engine.tree().len()).map(|id| engine.symbolic().node(id).len).min();
        assert!(smallest.unwrap_or(0) * rank * 8 >= LARGE, "{shape}: a node below {LARGE} bytes");
        let mut out = Mat::zeros(t.dims().iter().copied().max().unwrap_or(0), rank);
        let mut sweep = |engine: &mut DtreeEngine| {
            pool.install(|| {
                for &mode in &shape.modes() {
                    engine.invalidate_mode(mode);
                    out.reshape(t.dims()[mode], rank);
                    engine.mttkrp_into(&t, &factors, mode, &mut out);
                }
            });
        };
        sweep(&mut engine);
        for round in 0..3 {
            let before = LARGE_ALLOCS.with(Cell::get);
            sweep(&mut engine);
            let n = LARGE_ALLOCS.with(Cell::get) - before;
            assert_eq!(n, 0, "{shape}: sweep {round} made {n} allocation(s) of {LARGE}+ bytes");
        }
    }
}

#[test]
fn mode_updates_allocate_nothing_on_one_thread() {
    use adatm_linalg::update::{ncp_into, normalize_gram, solve_into, ColNorm};
    let _serial = serial();
    // Both passes of the ALS update and the NCP update, over 5000 rows
    // (past the 4096-row parallel threshold, which one thread ignores)
    // at ranks with whole and partial register blocks and tiles.
    let pool = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
    pool.install(|| {
        for rank in [5, 16, 17] {
            let rows = 5000;
            let mut m = Mat::zeros(rows, rank);
            for (i, v) in m.as_mut_slice().iter_mut().enumerate() {
                // Every third row empty, as in a mode with empty slices.
                if (i / rank) % 3 != 0 {
                    *v = ((i * 31) % 23) as f64 * 0.1 - 1.0;
                }
            }
            let p = Mat::random(rank, rank, 1);
            let h = Mat::random(2 * rank, rank, 2).gram();
            let mut u = Mat::zeros(rows, rank);
            let mut lambda = vec![0.0; rank];
            let mut gram = Mat::zeros(rank, rank);
            let mut row = vec![0.0; rank];
            for norm in [ColNorm::Two, ColNorm::Max] {
                let n = allocs_during(|| {
                    solve_into(&m, &p, norm, &mut u, &mut lambda);
                    normalize_gram(&mut u, &lambda, &mut gram);
                });
                assert_eq!(n, 0, "ALS, rank {rank}, {norm:?}: {n} allocation(s)");
            }
            u.as_mut_slice().iter_mut().for_each(|x| *x = x.abs());
            let n = allocs_during(|| {
                ncp_into(&mut u, &m, &h, 1e-12, &mut gram, &mut row);
            });
            assert_eq!(n, 0, "NCP, rank {rank}: {n} allocation(s)");
        }
    });
}

/// A sequential COO backend that marks each iteration: at `begin_mode`
/// of mode 0, the first of its (natural) sweep order, it records this
/// thread's counts of large allocations and of all allocations so far.
struct MarkingBackend {
    inner: CooBackend,
    marks: Vec<(u64, u64)>,
}

/// This thread's (large, all) allocation counts.
fn thread_counts() -> (u64, u64) {
    (LARGE_ALLOCS.with(Cell::get), ALLOC_EVENTS.with(Cell::get))
}

impl MttkrpBackend for MarkingBackend {
    fn begin_mode(&mut self, mode: usize) {
        if mode == 0 {
            self.marks.push(thread_counts());
        }
        self.inner.begin_mode(mode);
    }

    fn mttkrp_into(&mut self, tensor: &SparseTensor, factors: &[Mat], mode: usize, out: &mut Mat) {
        self.inner.mttkrp_into(tensor, factors, mode, out);
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn name(&self) -> &'static str {
        "marking-coo"
    }
}

/// Runs ALS and NCP on one thread for `iters` iterations with a marking
/// COO backend (`scheduled`: its scheduled kernel, else the sequential
/// reference kernel) and hands each rule's per-iteration allocation
/// counts (`(large, all)` marks at the start of each iteration, then the
/// counts at the end of the run) to `check`.
fn sweep_loop_marks(scheduled: bool, check: impl Fn(&str, &[(u64, u64)])) {
    // Every mode at least 4096 rows, so every factor is >= 512 KiB.
    let t = zipf_tensor(&[4096, 5000, 4500], 20_000, &[0.5, 0.4, 0.6], 3);
    let iters = 6;
    let opts = CpAlsOptions::new(16).max_iters(iters).tol(0.0).seed(2);
    let pool = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
    for (rule, solver) in [("als", CpAls::new(opts.clone())), ("ncp", CpAls::ncp(opts))] {
        let mut backend = MarkingBackend {
            inner: CooBackend::with_parallel(&t, scheduled),
            // Room for every mark up front: the marks must not allocate.
            marks: Vec::with_capacity(iters + 1),
        };
        let res = pool.install(|| solver.run(&t, &mut backend)).unwrap();
        let end = thread_counts();
        assert_eq!(res.iters, iters, "{rule}");
        assert!(res.diagnostics.clean(), "{rule}: {:?}", res.diagnostics.events);
        let mut marks = backend.marks;
        assert_eq!(marks.len(), iters, "{rule}: one mark per iteration");
        marks.push(end);
        check(rule, &marks);
    }
}

#[test]
fn sweep_loop_allocates_nothing_factor_sized_after_warmup() {
    let _serial = serial();
    sweep_loop_marks(false, |rule, marks| {
        // Iterations 0 and 1 warm up (the first last-good snapshot).
        for (iter, w) in marks.windows(2).enumerate().skip(2) {
            assert_eq!(
                w[1].0 - w[0].0,
                0,
                "{rule}: iteration {iter} made {} allocation(s) of {LARGE}+ bytes",
                w[1].0 - w[0].0
            );
        }
    });
}

#[test]
fn sweep_loop_allocates_nothing_after_warmup() {
    let _serial = serial();
    // Without checkpoints or PP a steady iteration allocates nothing at
    // all on one thread: the scheduled MTTKRP, the pseudoinverse and its
    // Jacobi workspace, the fused updates, the snapshot copy and the fit
    // reuse the run's buffers. (The sequential reference kernel allocates
    // one scratch row per call.)
    sweep_loop_marks(true, |rule, marks| {
        for (iter, w) in marks.windows(2).enumerate().skip(2) {
            let n = w[1].1 - w[0].1;
            assert_eq!(n, 0, "{rule}: iteration {iter} made {n} allocation(s)");
        }
    });
}

#[test]
fn planning_allocations_grow_with_estimator_evaluations_only() {
    let _serial = serial();
    // deli4d's benchmark shape: 37.5k nonzeros, above the sampled
    // estimator's 16384-entry sample, so every evaluation groups a sample.
    // An evaluation may allocate a few buffers (its cache key, a kept
    // grouping's two arrays and its key, map growth), never one per
    // sampled entry (about 12.5k here). Planning made 385 allocations
    // over 14 evaluations when this bound was set (480 before the search
    // tables went flat).
    let t = zipf_tensor(&[200, 3000, 30_000, 10_000], 37_500, &[0.3, 0.9, 0.7, 1.0], 11);
    let planner = Planner::new(&t, 16);
    let mut evals = 0;
    let n = allocs_during(|| evals = planner.plan().estimator_evals);
    assert!(evals > 0, "planning made no estimator evaluation");
    let bound = 8 * evals as u64 + 273;
    assert!(n <= bound, "planning made {n} allocations over {evals} evaluations (bound {bound})");
}
