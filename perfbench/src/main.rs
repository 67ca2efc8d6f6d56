//! `adatm-perfbench`: the end-to-end and per-layer benchmark of
//! `adatm decompose`. See `README.md` in this directory.
//!
//! ```text
//! adatm-perfbench --adatm PATH --workload NAME --seed N --seconds S --trace 0|1
//! adatm-perfbench --adatm PATH --smoke
//! ```
//!
//! For one workload and seed it generates the input `.tns`, then, for
//! `--seconds`, alternates three things: the `adatm decompose` CLI as a
//! child process (what a user waits for), repeated in-process setups
//! (load, dedup, plan, backend build) and an in-process CP-ALS solve
//! through the same public calls the CLI makes. Every solve and CLI run
//! is checked outside the timed region. With `--trace 1`
//! it instead times each layer separately (see `layers.rs`). The last
//! stdout line is the JSON result.

mod alloc;
mod fingerprint;
mod layers;
mod probe;
mod stats;
mod workload;

use adatm::tensor::io::{read_tns_file, write_tns_file};
use adatm::tensor::mttkrp::mttkrp_seq;
use adatm::{
    decompose_with, AdaptiveBackend, CheckpointConfig, CpAlsOptions, CpResult, Mat, MttkrpBackend,
    Planner, PpConfig, SparseTensor,
};
use stats::{fastest, median};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use workload::Workload;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Setups timed back to back in each round; the round's setup figure is
/// their median.
const SETUPS_PER_ROUND: usize = 5;
/// Rounds made even when they overrun `--seconds`.
const MIN_ROUNDS: usize = 2;
/// `|fit_to - driver fit|` allowed by the gate on exact runs.
const FIT_TOL: f64 = 1e-9;
/// The same with PP on: a PP sweep computes the driver's fit from a
/// perturbative MTTKRP (1.2e-6 off `fit_to` on the smoke-sized nell3d).
const PP_FIT_TOL: f64 = 1e-5;
/// Relative Frobenius error allowed between a backend's MTTKRP and the
/// sequential reference.
const MTTKRP_TOL: f64 = 1e-10;
const MIB: f64 = 1024.0 * 1024.0;
/// The solver's initialisation seed, fixed so that every `--seed` solves
/// the same problem from the same start.
const SOLVER_SEED: u64 = 0;

/// One benchmark invocation.
pub struct Ctx {
    /// The workload.
    pub wl: Workload,
    /// `--seed`: draws the order of the input's nonzeros.
    pub seed: u64,
    /// Scratch directory inside the checkout, removed at exit.
    pub work: PathBuf,
    /// The generated input.
    pub tns: PathBuf,
    /// The `adatm` binary.
    pub adatm: PathBuf,
    /// How long to measure.
    pub budget: Duration,
}

impl Ctx {
    fn ckpt_dir(&self, who: &str) -> PathBuf {
        self.work.join(format!("ckpt-{who}"))
    }

    /// The solver options `adatm decompose` builds from the CLI flags
    /// [`run_cli`] passes.
    pub fn options(&self) -> CpAlsOptions {
        let wl = &self.wl;
        let mut o = CpAlsOptions::new(wl.rank)
            .max_iters(wl.max_iters)
            .tol(wl.tol)
            .seed(SOLVER_SEED)
            .drift_factor(2.0);
        if let Some(tol) = wl.pp_tol {
            o = o.pp(PpConfig::new().tol(tol).every(5));
        }
        if let Some(every) = wl.ckpt_every {
            o = o.checkpoint(CheckpointConfig::new(self.ckpt_dir("inproc")).every_iters(every));
        }
        o
    }
}

/// Removes the work directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Operations attempted and failed; a failure is a typed error, a
/// non-finite value or a failed check.
#[derive(Default)]
pub struct Tally {
    /// Operations attempted (CLI runs and in-process solves).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation, reporting a failure on stderr.
    pub fn record<T>(&mut self, what: &str, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("FAILED {what}: {e}");
                None
            }
        }
    }
}

/// Loads the input and builds the backend exactly as `cmd_decompose`
/// does on its default (adaptive) path.
pub fn setup(ctx: &Ctx) -> Result<(SparseTensor, AdaptiveBackend), String> {
    let mut t = read_tns_file(&ctx.tns).map_err(|e| e.to_string())?;
    t.dedup_sum();
    let plan = Planner::new(&t, ctx.wl.rank).plan_admitted().map_err(|e| e.to_string())?;
    let backend = AdaptiveBackend::from_plan(&t, ctx.wl.rank, plan);
    Ok((t, backend))
}

/// One in-process CP-ALS run and its wall time.
pub struct Solved {
    /// The driver's result.
    pub res: CpResult,
    /// Wall seconds in `decompose_with`.
    pub secs: f64,
}

/// Runs CP-ALS on `backend` with the workload's options.
pub fn solve<B: MttkrpBackend>(
    ctx: &Ctx,
    t: &SparseTensor,
    backend: &mut B,
) -> Result<Solved, String> {
    let _ = std::fs::remove_dir_all(ctx.ckpt_dir("inproc"));
    let opts = ctx.options();
    let t0 = Instant::now();
    let res = decompose_with(t, &opts, backend).map_err(|e| e.to_string())?;
    Ok(Solved { secs: t0.elapsed().as_secs_f64(), res })
}

/// The in-process correctness gate: a finite model whose direct fit
/// matches the driver's, and a backend whose MTTKRP on the final factors
/// matches the sequential reference in every mode.
pub fn check_solve<B: MttkrpBackend>(
    ctx: &Ctx,
    t: &SparseTensor,
    backend: &mut B,
    res: &CpResult,
) -> Result<(), String> {
    let model = &res.model;
    if !res.final_fit().is_finite()
        || model.lambda.iter().any(|l| !l.is_finite())
        || model.factors.iter().any(|f| !f.is_finite())
    {
        return Err("non-finite model".into());
    }
    let direct = model.fit_to(t);
    let fit_tol = if ctx.wl.pp_tol.is_some() { PP_FIT_TOL } else { FIT_TOL };
    if (direct - res.final_fit()).abs() > fit_tol {
        return Err(format!("fit_to {direct} vs driver fit {}", res.final_fit()));
    }
    backend.reset();
    for mode in backend.mode_order(t.ndim()) {
        let want = mttkrp_seq(t, &model.factors, mode);
        let mut got = Mat::zeros(want.nrows(), want.ncols());
        backend.begin_mode(mode);
        backend.mttkrp_into(t, &model.factors, mode, &mut got);
        let (mut err, mut norm) = (0.0, 0.0);
        for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
            err += (g - w) * (g - w);
            norm += w * w;
        }
        let rel = (err / norm.max(f64::MIN_POSITIVE)).sqrt();
        if rel.is_nan() || rel > MTTKRP_TOL {
            return Err(format!("mode-{mode} MTTKRP off the reference by {rel:e} (relative)"));
        }
    }
    Ok(())
}

/// What one `adatm decompose` child printed, and how long it took.
pub struct CliRun {
    /// Spawn-to-exit wall seconds.
    pub wall: f64,
    /// Iterations it reports.
    pub iters: usize,
    /// Its final fit as printed (5 decimals).
    pub fit: String,
    /// The MTTKRP, dense and fit phase seconds it prints.
    pub phase_s: f64,
}

fn model_dir(ctx: &Ctx) -> PathBuf {
    ctx.work.join("model")
}

/// Runs `adatm decompose` on the input, writing the model and any
/// checkpoints into the work directory.
pub fn run_cli(ctx: &Ctx) -> Result<CliRun, String> {
    let wl = &ctx.wl;
    let out = model_dir(ctx);
    let ckpt = ctx.ckpt_dir("cli");
    let _ = std::fs::remove_dir_all(&out);
    let _ = std::fs::remove_dir_all(&ckpt);
    let mut cmd = Command::new(&ctx.adatm);
    cmd.arg("decompose").arg(&ctx.tns);
    for (flag, v) in [
        ("--rank", wl.rank.to_string()),
        ("--iters", wl.max_iters.to_string()),
        ("--tol", wl.tol.to_string()),
        ("--seed", SOLVER_SEED.to_string()),
    ] {
        cmd.arg(flag).arg(v);
    }
    cmd.arg("--out").arg(&out);
    if let Some(tol) = wl.pp_tol {
        cmd.arg("--pp-tol").arg(tol.to_string());
    }
    if let Some(every) = wl.ckpt_every {
        cmd.arg("--checkpoint-dir").arg(&ckpt).arg("--checkpoint-every").arg(every.to_string());
    }
    let t0 = Instant::now();
    let output = cmd.output().map_err(|e| format!("cannot run {}: {e}", ctx.adatm.display()))?;
    let wall = t0.elapsed().as_secs_f64();
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "adatm decompose exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    parse_als_line(&stdout).map(|(iters, fit, phase_s)| CliRun { wall, iters, fit, phase_s })
}

/// Parses `als: 10 iters, fit 0.00063, converged false, mttkrp 0.814s
/// dense 0.620s fit 0.053s` into (iters, fit, summed phase seconds).
fn parse_als_line(stdout: &str) -> Result<(usize, String, f64), String> {
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix("als: "))
        .ok_or_else(|| format!("no `als:` line in CLI output: {stdout}"))?;
    let words: Vec<&str> = line.split([' ', ',']).filter(|w| !w.is_empty()).collect();
    let after = |key: &str, nth: usize| -> Option<&str> {
        let i = words.iter().enumerate().filter(|(_, w)| **w == key).nth(nth)?.0;
        words.get(i + 1).copied()
    };
    let secs =
        |key: &str, nth: usize| -> Option<f64> { after(key, nth)?.strip_suffix('s')?.parse().ok() };
    let bad = || format!("unparsable CLI summary: {line}");
    let iters = words.first().and_then(|w| w.parse().ok()).ok_or_else(bad)?;
    let fit = after("fit", 0).ok_or_else(bad)?.to_string();
    let phase_s = secs("mttkrp", 0).zip(secs("dense", 0)).zip(secs("fit", 1)).ok_or_else(bad)?;
    Ok((iters, fit, phase_s.0 .0 + phase_s.0 .1 + phase_s.1))
}

/// The CLI correctness gate: the same iterations and fit as the
/// in-process run, and a model with one row per index of every mode.
pub fn check_cli(ctx: &Ctx, cli: &CliRun, t: &SparseTensor, res: &CpResult) -> Result<(), String> {
    let fit = format!("{:.5}", res.final_fit());
    if cli.iters != res.iters || cli.fit != fit {
        return Err(format!(
            "CLI ran {} iters to fit {}, in-process {} iters to fit {fit}",
            cli.iters, cli.fit, res.iters
        ));
    }
    let lines = |name: String| -> Result<usize, String> {
        let bytes =
            std::fs::read(model_dir(ctx).join(&name)).map_err(|e| format!("{name}: {e}"))?;
        Ok(bytecount_newlines(&bytes))
    };
    let got = lines("lambda.txt".into())?;
    if got != ctx.wl.rank {
        return Err(format!("lambda.txt has {got} rows, want {}", ctx.wl.rank));
    }
    for (d, &rows) in t.dims().iter().enumerate() {
        let got = lines(format!("factor_{d}.txt"))?;
        if got != rows {
            return Err(format!("factor_{d}.txt has {got} rows, want {rows}"));
        }
    }
    Ok(())
}

fn bytecount_newlines(bytes: &[u8]) -> usize {
    bytes.iter().filter(|&&b| b == b'\n').count()
}

/// Total bytes of the model files the CLI wrote.
pub fn model_bytes(ctx: &Ctx) -> u64 {
    std::fs::read_dir(model_dir(ctx))
        .map(|dir| dir.flatten().filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum())
        .unwrap_or(0)
}

/// Checks that every solve of one input ends bitwise-identically, and
/// keeps the last result.
#[derive(Default)]
pub struct Determinism {
    first: Option<(usize, u64)>,
    /// The last solve that passed.
    pub last: Option<CpResult>,
}

impl Determinism {
    /// Fails when `res` differs from the first result seen.
    pub fn check(&mut self, res: &CpResult) -> Result<(), String> {
        let now = (res.iters, res.final_fit().to_bits());
        match self.first {
            None => {
                self.first = Some(now);
                Ok(())
            }
            Some(first) if first == now => Ok(()),
            Some((iters, bits)) => Err(format!(
                "run not deterministic: {iters} iters to fit {} before, now {} iters to fit {}",
                f64::from_bits(bits),
                res.iters,
                res.final_fit()
            )),
        }
    }
}

/// A named metric value with its unit.
pub type Metric = (&'static str, f64, &'static str);

/// Per-round samples of the end-to-end metrics.
#[derive(Default)]
struct Rounds {
    decompose: Vec<f64>,
    setup: Vec<f64>,
    solve: Vec<f64>,
    peak_mib: Vec<f64>,
}

/// One measurement round: a CLI run, [`SETUPS_PER_ROUND`] setups and one
/// in-process solve, each checked outside its timed region. The solve
/// is gated in full on the first round; later rounds must reproduce its
/// result bitwise.
fn round(ctx: &Ctx, tally: &mut Tally, det: &mut Determinism, rounds: &mut Rounds) {
    let cli = tally.record("adatm decompose", run_cli(ctx));
    let first = rounds.solve.is_empty();
    let inproc = (|| {
        let mut setups = Vec::with_capacity(SETUPS_PER_ROUND);
        for _ in 0..SETUPS_PER_ROUND {
            let s0 = Instant::now();
            drop(setup(ctx)?);
            setups.push(s0.elapsed().as_secs_f64());
        }
        let base = alloc::reset_peak();
        let (t, mut backend) = setup(ctx)?;
        let solved = solve(ctx, &t, &mut backend)?;
        let peak_mib = (alloc::peak_bytes() - base) as f64 / MIB;
        if first {
            check_solve(ctx, &t, &mut backend, &solved.res)?;
        }
        det.check(&solved.res)?;
        if let Some(cli) = &cli {
            check_cli(ctx, cli, &t, &solved.res)?;
            rounds.decompose.push(cli.wall);
        }
        rounds.setup.extend(median(&setups));
        rounds.solve.push(solved.secs);
        rounds.peak_mib.push(peak_mib);
        Ok(solved.res)
    })();
    if let Some(res) = tally.record("in-process decompose", inproc) {
        det.last = Some(res);
    }
}

/// The end-to-end metrics, measured with tracing off: rounds until the
/// budget is spent, each timing the fastest of the round figures.
fn end_to_end(ctx: &Ctx, tally: &mut Tally) -> Vec<Metric> {
    let mut rounds = Rounds::default();
    let mut det = Determinism::default();
    let start = Instant::now();
    let mut made = 0;
    let mut slowest = Duration::ZERO;
    while made < MIN_ROUNDS || start.elapsed() + slowest <= ctx.budget {
        let r0 = Instant::now();
        round(ctx, tally, &mut det, &mut rounds);
        slowest = slowest.max(r0.elapsed());
        made += 1;
    }
    println!("rounds: {made} ({} complete)", rounds.solve.len());
    for (name, xs) in [
        ("decompose_s", &rounds.decompose),
        ("setup_s (round medians)", &rounds.setup),
        ("solve_s", &rounds.solve),
    ] {
        let ms: Vec<String> = xs.iter().map(|x| format!("{:.1}", x * 1e3)).collect();
        println!("rounds {name} (ms): {}", ms.join(" "));
    }
    let mut out = Vec::new();
    let mut put = |name, v: Option<f64>, unit| {
        if let Some(v) = v {
            out.push((name, v, unit));
        }
    };
    put("decompose_s", fastest(&rounds.decompose), "s");
    put("setup_s", fastest(&rounds.setup), "s");
    put("solve_s", fastest(&rounds.solve), "s");
    put("peak_heap_mib", median(&rounds.peak_mib), "MiB");
    if let Some(res) = &det.last {
        // Identical bitwise across the run's solves and across seeds.
        put("iters", Some(res.iters as f64), "1");
        put("fit", Some(res.final_fit()), "1");
    }
    out
}

/// The end-to-end metric names, in report order.
const END_TO_END: [&str; 6] =
    ["decompose_s", "setup_s", "solve_s", "iters", "fit", "peak_heap_mib"];

/// Prints the result line, the last line of stdout. The run is correct
/// when nothing failed and every expected metric has a finite value.
fn print_result(tally: &Tally, metrics: &[Metric], expected: &[&str]) -> bool {
    let missing: Vec<&str> = expected
        .iter()
        .copied()
        .filter(|n| !metrics.iter().any(|(m, v, _)| m == n && v.is_finite()))
        .collect();
    if !missing.is_empty() {
        eprintln!("FAILED: no finite value for {missing:?}");
    }
    let correct = tally.failed == 0 && missing.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .filter(|(_, v, _)| v.is_finite())
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    );
    correct
}

struct Args {
    adatm: PathBuf,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        adatm: PathBuf::from("target/release/adatm"),
        workload: None,
        seed: 0,
        seconds: 30.0,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            a.smoke = true;
            continue;
        }
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value '{v}' for {flag}");
        match flag.as_str() {
            "--adatm" => a.adatm = PathBuf::from(&v),
            "--workload" => a.workload = Some(v),
            "--seed" => a.seed = v.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = v.parse().map_err(|_| bad())?,
            "--trace" => a.trace = v == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(a)
}

/// Generates the input, prints the fingerprint and runs one mode.
fn run_one(args: &Args, wl: Workload, trace: bool, seconds: f64) -> Result<bool, String> {
    // The host's ADATM_* knobs (e.g. ADATM_PROFILE) could change the plan;
    // the thread count is fixed per workload. The CLI child inherits both.
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("ADATM_") {
            std::env::remove_var(&k);
        }
    }
    std::env::set_var("RAYON_NUM_THREADS", wl.threads.to_string());
    let root = Path::new(".bench_work");
    let work = root.join(format!("{}-{}", wl.name, std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let _guard = WorkDir(work.clone());
    let tns = work.join("input.tns");
    let input = wl.input(args.seed);
    write_tns_file(&input, &tns).map_err(|e| e.to_string())?;
    println!("workload: {} (trace {})", wl.name, u8::from(trace));
    println!("fingerprint: {}", fingerprint::fingerprint(wl.threads, args.seed, &input, &work));
    drop(input);
    let ctx = Ctx {
        wl,
        seed: args.seed,
        work,
        tns,
        adatm: args.adatm.clone(),
        budget: Duration::from_secs_f64(seconds),
    };
    let mut tally = Tally::default();
    let metrics = if trace {
        let spans = root.join(format!("spans-{}-seed{}.ndjson", ctx.wl.name, ctx.seed));
        layers::per_layer(&ctx, &mut tally, &spans)
    } else {
        end_to_end(&ctx, &mut tally)
    };
    for (name, v, unit) in &metrics {
        println!("metric {name} = {v} {unit}");
    }
    let expected: Vec<&str> =
        if trace { layers::LAYERS.iter().map(|l| l.name).collect() } else { END_TO_END.to_vec() };
    Ok(print_result(&tally, &metrics, &expected))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let runs: Vec<(Workload, bool, f64)> = if args.smoke {
        // Every workload, both modes, on tiny inputs.
        let tiny = |n: &str| workload::by_name(n).expect("known workload").shrink();
        workload::NAMES.iter().flat_map(|n| [(tiny(n), false, 0.5), (tiny(n), true, 0.5)]).collect()
    } else {
        let Some(wl) = args.workload.as_deref().and_then(workload::by_name) else {
            eprintln!("error: --workload must be one of {:?}", workload::NAMES);
            return ExitCode::from(2);
        };
        vec![(wl, args.trace, args.seconds)]
    };
    let mut ok = true;
    for (wl, trace, seconds) in runs {
        match run_one(&args, wl, trace, seconds) {
            Ok(good) => ok &= good,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
