//! The traced run: per-layer metrics, each timed around calls into one
//! crate's public functions from this file, plus MTTKRP timed call by
//! call through [`Probe`]. No trace emitter inside the library is used;
//! the spans recorded here stay in memory and are written out at the end.

use crate::probe::{Call, Probe};
use crate::stats::{iteration_times, median, percentile, steady_state, WARMUP_ITERS};
use crate::{check_cli, check_solve, model_bytes, run_cli, setup, solve, Ctx, Determinism};
use crate::{Metric, Tally, MIB};
use adatm::linalg::solve_gram;
use adatm::tensor::io::read_tns_file;
use adatm::{AdaptiveBackend, CheckpointStore, CpResult, Mat, Planner, SparseTensor};
use rayon::prelude::*;
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One per-layer metric and the end-to-end metric it should move.
pub struct LayerMetric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The layer (module) it describes.
    pub layer: &'static str,
    /// End-to-end metrics a change here should move.
    pub moves: &'static str,
    /// Workloads on which it should move them.
    pub on: &'static str,
}

const fn lm(
    name: &'static str,
    unit: &'static str,
    layer: &'static str,
    moves: &'static str,
    on: &'static str,
) -> LayerMetric {
    LayerMetric { name, unit, layer, moves, on }
}

/// Every per-layer metric, in report order.
pub const LAYERS: &[LayerMetric] = &[
    lm("tensor.load_s", "s", "tensor io", "setup_s decompose_s", "all; most deli4d"),
    lm("tensor.dedup_s", "s", "tensor coo", "setup_s decompose_s", "all; most deli4d"),
    lm("model.plan_s", "s", "model planner", "setup_s", "random8d; ~none nell3d-ckpt"),
    lm("model.candidates", "count", "model planner", "setup_s", "random8d"),
    lm("model.estimator_evals", "count", "model planner", "setup_s", "random8d"),
    lm("model.flops_per_iter", "flop", "model cost", "(analytic)", "all"),
    lm("model.traffic_mib_per_iter", "MiB", "model cost", "(analytic)", "all"),
    lm("core.build_s", "s", "core build / dtree symbolic", "setup_s", "deli4d"),
    lm("core.structure_mib", "MiB", "core build / dtree symbolic", "peak_heap_mib", "deli4d"),
    lm(
        "mttkrp.call_ms_p50",
        "ms",
        "tensor+dtree kernels",
        "solve_s decompose_s",
        "deli4d random8d",
    ),
    lm(
        "mttkrp.call_ms_p90",
        "ms",
        "tensor+dtree kernels",
        "solve_s decompose_s",
        "deli4d random8d",
    ),
    lm("mttkrp.s_per_iter", "s", "tensor+dtree kernels", "solve_s decompose_s", "deli4d random8d"),
    lm("mttkrp.share", "1", "tensor+dtree kernels", "solve_s decompose_s", "deli4d random8d"),
    lm(
        "mttkrp.gflops",
        "GFLOP/s",
        "tensor+dtree kernels",
        "solve_s decompose_s",
        "deli4d random8d",
    ),
    lm(
        "mttkrp.allocs_per_call",
        "count",
        "kernels + shims/rayon",
        "solve_s decompose_s",
        "random8d",
    ),
    lm(
        "mttkrp.mode_imbalance",
        "1",
        "tensor+dtree kernels",
        "solve_s decompose_s",
        "deli4d random8d",
    ),
    lm("par.spawn_join_us", "us", "shims/rayon", "none: workloads run 1 thread", "probe at 2 threads"),
    lm("iter_s_p50", "s", "core driver iteration", "solve_s decompose_s", "all"),
    lm("dense.s_per_iter", "s", "core driver dense", "solve_s decompose_s", "nell3d-ckpt deli4d"),
    lm("fit.s_per_iter", "s", "core driver fit", "solve_s decompose_s", "nell3d-ckpt deli4d"),
    lm("linalg.gram_ms", "ms", "linalg", "solve_s decompose_s", "nell3d-ckpt deli4d"),
    lm("linalg.solve_ms", "ms", "linalg", "solve_s decompose_s", "nell3d-ckpt deli4d"),
    lm("ckpt.writes", "count", "core checkpoint", "solve_s decompose_s", "nell3d-ckpt only"),
    lm("ckpt.write_ms", "ms", "core checkpoint", "solve_s decompose_s", "nell3d-ckpt only"),
    lm("ckpt.mib_per_write", "MiB", "core checkpoint", "solve_s decompose_s", "nell3d-ckpt only"),
    lm("ckpt.load_ms", "ms", "core checkpoint", "(resume only)", "nell3d-ckpt only"),
    lm("pp.sweeps", "count", "dtree pp + controller", "iters solve_s", "nell3d-ckpt only"),
    lm("pp.refreshes", "count", "dtree pp + controller", "iters solve_s", "nell3d-ckpt only"),
    lm("pp.sweep_ms", "ms", "dtree pp + controller", "iters solve_s", "nell3d-ckpt only"),
    lm("pp.exact_sweep_ms", "ms", "dtree pp + controller", "iters solve_s", "nell3d-ckpt only"),
    lm("cli.model_mib", "MiB", "CLI output", "decompose_s", "all; most deli4d random8d"),
    lm("cli.nonsolve_s", "s", "CLI output", "decompose_s", "all; most deli4d random8d"),
    lm("trace.overhead_pct", "%", "trace (this run)", "none: end-to-end is untraced", "all"),
];

/// Setups timed layer by layer.
const SETUP_REPS: usize = 5;
/// Timed MTTKRP calls needed for a p90 with ten calls beyond it.
const MIN_CALLS: usize = 100;
/// CLI runs for the `cli.*` metrics.
const CLI_REPS: usize = 2;
/// Repetitions of each dense-kernel and parallel-runtime probe.
const MICRO_REPS: usize = 20;
const PAR_REPS: usize = 2000;
/// Threads of the fork-join probe.
const PAR_THREADS: usize = 2;
/// Share of `--seconds` given to the solve loop; the CLI runs and the
/// dense and parallel-runtime probes take most of the rest.
const SOLVE_SHARE: f64 = 0.6;
/// Upper bound on the solve loop, whatever `--seconds` says.
const MAX_SOLVE_SECS: f64 = 120.0;

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: Instant,
    end: Option<Instant>,
}

/// Spans of the benchmark's own calls, kept in memory until the end.
struct Spans {
    origin: Instant,
    list: Vec<Span>,
}

impl Spans {
    fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        self.list.push(Span { name, parent, start: Instant::now(), end: None });
        self.list.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.list[id].end = Some(Instant::now());
    }

    fn add(&mut self, name: &'static str, parent: Option<usize>, start: Instant, secs: f64) {
        let end = start + std::time::Duration::from_secs_f64(secs);
        self.list.push(Span { name, parent, start, end: Some(end) });
    }

    /// Runs `f` inside a span.
    fn time<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.open(name, Some(parent));
        let out = f();
        self.close(id);
        let s = &self.list[id];
        (out, s.end.map_or(0.0, |e| e.duration_since(s.start).as_secs_f64()))
    }

    /// Writes one JSON object per span (times in µs from the run start).
    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        let us = |t: Instant| t.duration_since(self.origin).as_secs_f64() * 1e6;
        for (id, s) in self.list.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let end = s.end.map_or(f64::NAN, us);
            writeln!(
                w,
                "{{\"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"start_us\": {:.1}, \"end_us\": {:.1}}}",
                s.name,
                us(s.start),
                end
            )?;
        }
        w.flush()
    }
}

/// Medians of the timed setup layers and the last plan's figures.
#[derive(Default)]
struct SetupLayers {
    load: Vec<f64>,
    dedup: Vec<f64>,
    plan: Vec<f64>,
    build: Vec<f64>,
    candidates: usize,
    estimator_evals: usize,
    flops_per_iter: f64,
    traffic_bytes_per_iter: f64,
    shape: String,
    structure_bytes: usize,
}

fn setup_layers(ctx: &Ctx, spans: &mut Spans, run: usize) -> Result<SetupLayers, String> {
    let mut s = SetupLayers::default();
    for _ in 0..SETUP_REPS {
        let id = spans.open("setup", Some(run));
        let (t, secs) = spans.time("tensor.load", id, || read_tns_file(&ctx.tns));
        let mut t = t.map_err(|e| e.to_string())?;
        s.load.push(secs);
        s.dedup.push(spans.time("tensor.dedup", id, || t.dedup_sum()).1);
        let planner = Planner::new(&t, ctx.wl.rank);
        let (plan, secs) = spans.time("model.plan", id, || planner.plan_admitted());
        let plan = plan.map_err(|e| e.to_string())?;
        s.plan.push(secs);
        s.candidates = plan.candidates.len();
        s.estimator_evals = plan.estimator_evals;
        s.flops_per_iter = plan.predicted.flops_per_iter;
        s.traffic_bytes_per_iter = plan.predicted.traffic_bytes_per_iter;
        s.shape = plan.shape.to_string();
        let (backend, secs) =
            spans.time("core.build", id, || AdaptiveBackend::from_plan(&t, ctx.wl.rank, plan));
        s.build.push(secs);
        s.structure_bytes = adatm::MttkrpBackend::structure_bytes(&backend);
        spans.close(id);
    }
    Ok(s)
}

/// Everything the solve loop collects.
#[derive(Default)]
struct SolveLayers {
    plain_secs: Vec<f64>,
    /// Median steady-state iteration of each untraced solve.
    iter_medians: Vec<f64>,
    traced_secs: Vec<f64>,
    calls: Vec<Call>,
    traced_iters: usize,
    dense_per_iter: Vec<f64>,
    fit_per_iter: Vec<f64>,
    pp_sweep_ms: Vec<f64>,
    exact_sweep_ms: Vec<f64>,
    ckpt_writes: f64,
    ckpt_write_ms: Vec<f64>,
    ckpt_mib: f64,
    ckpt_load_ms: Vec<f64>,
    last: Option<(SparseTensor, CpResult)>,
}

/// Checkpoint figures of the solve that just wrote into `dir`.
fn checkpoint_layers(dir: &Path, res: &CpResult, s: &mut SolveLayers) -> Result<(), String> {
    let writes = CheckpointStore::create(dir).map_err(|e| e.to_string())?.next_generation();
    if writes == 0 {
        return Err("checkpointing enabled but no checkpoint written".into());
    }
    s.ckpt_writes = writes as f64;
    s.ckpt_write_ms.push(res.timings.checkpoint.as_secs_f64() * 1e3 / writes as f64);
    let newest = std::fs::read_dir(dir)
        .map_err(|e| e.to_string())?
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().ends_with(".adtmc"))
        .max_by_key(|e| e.file_name())
        .ok_or("no checkpoint file")?;
    s.ckpt_mib = newest.metadata().map_err(|e| e.to_string())?.len() as f64 / MIB;
    for _ in 0..3 {
        let t0 = Instant::now();
        CheckpointStore::load_latest(dir).map_err(|e| e.to_string())?;
        s.ckpt_load_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    Ok(())
}

/// Alternates untraced and traced solves until the budget is spent and
/// enough MTTKRP calls have been timed.
fn solve_layers(ctx: &Ctx, tally: &mut Tally, spans: &mut Spans, run: usize) -> SolveLayers {
    let mut s = SolveLayers::default();
    let mut determinism = Determinism::default();
    let start = Instant::now();
    let mut pair_secs = 0.0;
    loop {
        let enough = s.plain_secs.len() >= 2 && s.calls.len() >= MIN_CALLS;
        let elapsed = start.elapsed().as_secs_f64();
        let budget = SOLVE_SHARE * ctx.budget.as_secs_f64();
        if (enough && elapsed + pair_secs > budget) || elapsed > MAX_SOLVE_SECS {
            break;
        }
        let p0 = Instant::now();
        for timed in [false, true] {
            let r = (|| {
                let (t, backend) = setup(ctx)?;
                let mut probe = Probe::new(backend, t.ndim(), timed);
                let id = spans.open(if timed { "solve.traced" } else { "solve" }, Some(run));
                let solved = solve(ctx, &t, &mut probe)?;
                spans.close(id);
                let res = &solved.res;
                let iters = res.iters.max(1) as f64;
                s.dense_per_iter.push(res.timings.dense.as_secs_f64() / iters);
                s.fit_per_iter.push(res.timings.fit.as_secs_f64() / iters);
                s.pp_sweep_ms.extend(res.diagnostics.pp_sweep_ns.map(|ns| ns / 1e6));
                s.exact_sweep_ms.extend(res.diagnostics.exact_sweep_ns.map(|ns| ns / 1e6));
                if timed {
                    s.traced_secs.push(solved.secs);
                    s.traced_iters += res.iters;
                    for c in &probe.calls {
                        spans.add("mttkrp", Some(id), c.start, c.secs);
                    }
                    s.calls.append(&mut probe.calls);
                    if ctx.wl.ckpt_every.is_some() {
                        checkpoint_layers(&ctx.ckpt_dir("inproc"), res, &mut s)?;
                    }
                } else {
                    s.plain_secs.push(solved.secs);
                    let steady = steady_state(&iteration_times(&probe.marks), WARMUP_ITERS);
                    s.iter_medians.extend(median(&steady));
                }
                check_solve(ctx, &t, &mut probe, res)?;
                determinism.check(res)?;
                Ok((t, solved.res))
            })();
            if let Some(last) = tally.record("in-process decompose", r) {
                s.last = Some(last);
            }
        }
        pair_secs = p0.elapsed().as_secs_f64();
    }
    s
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Runs the traced measurement and returns every [`LAYERS`] metric.
pub fn per_layer(ctx: &Ctx, tally: &mut Tally, spans_path: &Path) -> Vec<Metric> {
    let mut spans = Spans { origin: Instant::now(), list: Vec::new() };
    let run = spans.open("run", None);
    let setup = match setup_layers(ctx, &mut spans, run) {
        Ok(s) => s,
        Err(e) => {
            tally.record::<()>("setup", Err(e));
            return Vec::new();
        }
    };
    let solves = solve_layers(ctx, tally, &mut spans, run);
    let Some((t, res)) = &solves.last else { return Vec::new() };

    let mut cli_mib = 0.0;
    let mut nonsolve = Vec::new();
    for _ in 0..CLI_REPS {
        let id = spans.open("cli.decompose", Some(run));
        let cli = run_cli(ctx);
        spans.close(id);
        let r = cli.and_then(|cli| check_cli(ctx, &cli, t, res).map(|()| cli));
        if let Some(cli) = tally.record("adatm decompose", r) {
            nonsolve.push(cli.wall - cli.phase_s);
            cli_mib = model_bytes(ctx) as f64 / MIB;
        }
    }

    // Every workload runs one thread, where the shim never forks, so the
    // fork-join cost a multi-threaded user pays is probed at two threads.
    let par_id = spans.open("par.spawn_join", Some(run));
    let pool = rayon::ThreadPoolBuilder::new().num_threads(PAR_THREADS).build();
    let spawn_join_us: Vec<f64> = match pool {
        Ok(pool) => pool.install(|| {
            (0..PAR_REPS)
                .map(|_| {
                    let t0 = Instant::now();
                    (0..PAR_THREADS).into_par_iter().for_each(|i| {
                        black_box(i);
                    });
                    t0.elapsed().as_secs_f64() * 1e6
                })
                .collect()
        }),
        Err(e) => {
            tally.record::<()>("thread pool", Err(e.to_string()));
            Vec::new()
        }
    };
    spans.close(par_id);

    // The dense kernels on the tallest factor's shape.
    let rows = t.dims().iter().copied().max().unwrap_or(1);
    let a = Mat::random(rows, ctx.wl.rank, ctx.seed);
    let h = a.gram();
    let (mut gram_ms, mut solve_ms) = (Vec::new(), Vec::new());
    for _ in 0..MICRO_REPS {
        gram_ms.push(spans.time("linalg.gram", run, || black_box(black_box(&a).gram())).1 * 1e3);
        let solved = spans.time("linalg.solve", run, || black_box(solve_gram(black_box(&a), &h)));
        solve_ms.push(solved.1 * 1e3);
    }
    spans.close(run);
    if let Err(e) = spans.write(spans_path) {
        eprintln!("warning: cannot write spans to {}: {e}", spans_path.display());
    }

    let calls = &solves.calls;
    let call_secs: Vec<f64> = calls.iter().map(|c| c.secs).collect();
    let kernel_secs: f64 = call_secs.iter().sum();
    let sweeps = calls.len() as f64 / t.ndim() as f64;
    let mode_medians: Vec<f64> = (0..t.ndim())
        .filter_map(|m| {
            let xs: Vec<f64> = calls.iter().filter(|c| c.mode == m).map(|c| c.secs).collect();
            median(&xs)
        })
        .collect();
    let fastest = mode_medians.iter().copied().fold(f64::INFINITY, f64::min);
    let slowest = mode_medians.iter().copied().fold(0.0, f64::max);
    let allocs: u64 = calls.iter().map(|c| c.allocs).sum();
    let med = |xs: &[f64]| median(xs).unwrap_or(0.0);
    let traced = med(&solves.traced_secs);
    let plain = med(&solves.plain_secs);
    let diag = &res.diagnostics;

    let values: Vec<(&str, f64)> = vec![
        ("tensor.load_s", med(&setup.load)),
        ("tensor.dedup_s", med(&setup.dedup)),
        ("model.plan_s", med(&setup.plan)),
        ("model.candidates", setup.candidates as f64),
        ("model.estimator_evals", setup.estimator_evals as f64),
        ("model.flops_per_iter", setup.flops_per_iter),
        ("model.traffic_mib_per_iter", setup.traffic_bytes_per_iter / MIB),
        ("core.build_s", med(&setup.build)),
        ("core.structure_mib", setup.structure_bytes as f64 / MIB),
        ("mttkrp.call_ms_p50", med(&call_secs) * 1e3),
        ("mttkrp.call_ms_p90", percentile(&call_secs, 0.9).map_or(f64::NAN, |p| p * 1e3)),
        ("mttkrp.s_per_iter", ratio(kernel_secs, solves.traced_iters as f64)),
        ("mttkrp.share", ratio(kernel_secs, solves.traced_secs.iter().sum())),
        ("mttkrp.gflops", ratio(setup.flops_per_iter * sweeps, kernel_secs) / 1e9),
        ("mttkrp.allocs_per_call", ratio(allocs as f64, calls.len() as f64)),
        ("mttkrp.mode_imbalance", ratio(slowest, fastest)),
        ("par.spawn_join_us", med(&spawn_join_us)),
        ("iter_s_p50", med(&solves.iter_medians)),
        ("dense.s_per_iter", med(&solves.dense_per_iter)),
        ("fit.s_per_iter", med(&solves.fit_per_iter)),
        ("linalg.gram_ms", med(&gram_ms)),
        ("linalg.solve_ms", med(&solve_ms)),
        ("ckpt.writes", solves.ckpt_writes),
        ("ckpt.write_ms", med(&solves.ckpt_write_ms)),
        ("ckpt.mib_per_write", solves.ckpt_mib),
        ("ckpt.load_ms", med(&solves.ckpt_load_ms)),
        ("pp.sweeps", diag.pp_sweeps as f64),
        ("pp.refreshes", diag.pp_refreshes as f64),
        ("pp.sweep_ms", med(&solves.pp_sweep_ms)),
        ("pp.exact_sweep_ms", med(&solves.exact_sweep_ms)),
        ("cli.model_mib", cli_mib),
        ("cli.nonsolve_s", med(&nonsolve)),
        ("trace.overhead_pct", ratio(traced - plain, plain) * 100.0),
    ];
    let metrics: Vec<Metric> = LAYERS
        .iter()
        .map(|l| {
            let v = values.iter().find(|(n, _)| *n == l.name).map_or(f64::NAN, |(_, v)| *v);
            (l.name, v, l.unit)
        })
        .collect();

    println!(
        "solves: {} untraced, {} traced; {} MTTKRP calls timed; {} spans in {}",
        solves.plain_secs.len(),
        solves.traced_secs.len(),
        calls.len(),
        spans.list.len(),
        spans_path.display()
    );
    println!(
        "{:<28} {:>14} {:<8} {:<28} {:<30} on",
        "layer", "value", "unit", "metric", "should move"
    );
    for ((name, v, unit), l) in metrics.iter().zip(LAYERS) {
        println!("{:<28} {:>14.6} {:<8} {:<28} {:<30} {}", l.layer, v, unit, name, l.moves, l.on);
    }
    let exact_sweep_s = ratio(kernel_secs, sweeps);
    println!(
        "mttkrp, analytic vs measured: plan {} predicts {:.4e} flop and {:.1} MiB traffic per sweep; \
         measured {:.4} s per exact sweep = {:.3} GFLOP/s, {:.1} MiB/s",
        setup.shape,
        setup.flops_per_iter,
        setup.traffic_bytes_per_iter / MIB,
        exact_sweep_s,
        ratio(setup.flops_per_iter, exact_sweep_s) / 1e9,
        ratio(setup.traffic_bytes_per_iter / MIB, exact_sweep_s),
    );
    println!(
        "trace.overhead_pct: {:+.2}% (traced solve {traced:.4} s vs untraced {plain:.4} s, medians)",
        ratio(traced - plain, plain) * 100.0
    );
    metrics
}
