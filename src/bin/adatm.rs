//! `adatm` — command-line interface to the library.
//!
//! ```text
//! adatm info <tensor>                      dataset characteristics
//! adatm convert <in> <out>                 .tns <-> .adtm by extension
//! adatm generate [opts] -o <out>           synthesize a tensor
//! adatm plan <tensor> [opts]               print the planner's candidates
//! adatm decompose <tensor> [opts]          run CP-ALS / NCP / CP-OPT
//! ```
//!
//! Run any subcommand with `--help` for its options.

use adatm::planner::estimate::NnzEstimator;
use adatm::tensor::gen::{uniform_tensor, zipf_tensor};
use adatm::tensor::io::{
    read_binary_file, read_tns_file, write_binary_file, write_tns_file, IoError,
};
use adatm::tensor::stats::TensorStats;
use adatm::tensor::text;
use adatm::{
    check_rank_and_order, cp_opt, hooi, AdaptiveBackend, AdmissionError, CheckpointConfig,
    CheckpointStore, CooBackend, CpAls, CpAlsError, CpAlsOptions, CpOptOptions, CsfBackend,
    DtreeBackend, EnvProfile, KernelProfile, MttkrpBackend, Planner, PpConfig, SparseTensor,
    TreeShape, TuckerOptions,
};
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::process::ExitCode;

/// Writes one line of command output to stdout. A closed or failing
/// stdout ends the command with [`EXIT_IO`], where `println!` would
/// panic.
macro_rules! say {
    ($($arg:tt)*) => {
        writeln!(std::io::stdout(), $($arg)*).map_err(|e| CliError {
            code: EXIT_IO,
            msg: format!("cannot write to stdout: {e}"),
        })?
    };
}

/// A CLI failure: a one-line message plus the process exit code that
/// classifies it (see `print_usage` for the code table).
struct CliError {
    code: u8,
    msg: String,
}

/// Usage errors: bad flags, missing arguments, unknown subcommands.
const EXIT_USAGE: u8 = 2;
/// The tensor file could not be read or written (filesystem level).
const EXIT_IO: u8 = 3;
/// The tensor file is malformed (bad syntax, implausible header).
const EXIT_PARSE: u8 = 4;
/// The tensor file parsed but carries NaN or infinite values.
const EXIT_NONFINITE: u8 = 5;
/// The solver rejected its input (rank/shape/finiteness validation).
const EXIT_SOLVER_INPUT: u8 = 6;
/// The solver hit an unrecoverable numerical failure.
const EXIT_NUMERICAL: u8 = 7;
/// The checkpoint store could not be opened, or `--resume` found no
/// usable checkpoint (or one inconsistent with the requested run).
const EXIT_CHECKPOINT: u8 = 8;
/// Admission control rejected the run: no strategy fits `--mem-budget`.
const EXIT_ADMISSION: u8 = 9;

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError { code: EXIT_USAGE, msg }
    }
}

impl From<&str> for CliError {
    fn from(msg: &str) -> Self {
        CliError { code: EXIT_USAGE, msg: msg.to_string() }
    }
}

impl From<IoError> for CliError {
    fn from(e: IoError) -> Self {
        let code = match &e {
            IoError::Io(_) => EXIT_IO,
            IoError::Parse(_) => EXIT_PARSE,
            IoError::NonFinite(_) => EXIT_NONFINITE,
        };
        CliError { code, msg: e.to_string() }
    }
}

impl From<CpAlsError> for CliError {
    fn from(e: CpAlsError) -> Self {
        let code = match &e {
            CpAlsError::Linalg(_) => EXIT_NUMERICAL,
            CpAlsError::Checkpoint(_) => EXIT_CHECKPOINT,
            _ => EXIT_SOLVER_INPUT,
        };
        CliError { code, msg: e.to_string() }
    }
}

impl From<AdmissionError> for CliError {
    fn from(e: AdmissionError) -> Self {
        CliError { code: EXIT_ADMISSION, msg: e.to_string() }
    }
}

/// A subcommand's `--flag value` options, keyed by flag name.
type Opts = HashMap<String, String>;

/// A subcommand's body, called with its positionals and options.
type Body = fn(&[String], &Opts) -> Result<(), CliError>;

/// Each subcommand: its name, the flags it takes (`-o` is `out`), and
/// its body.
const SUBCOMMANDS: [(&str, &[&str], Body); 5] = [
    ("info", &[], cmd_info),
    ("convert", &[], cmd_convert),
    ("generate", &["dims", "nnz", "skew", "seed", "out"], cmd_generate),
    ("plan", &["rank", "estimator", "budget-mib", "trace"], cmd_plan),
    (
        "decompose",
        &[
            "rank",
            "iters",
            "tol",
            "seed",
            "backend",
            "shape",
            "algo",
            "ranks",
            "out",
            "trace",
            "mem-budget",
            "checkpoint-dir",
            "checkpoint-every",
            "resume",
            "pp-tol",
            "pp-every",
            "drift-factor",
        ],
        cmd_decompose,
    ),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = run(&args);
    // Flush and tear down any --trace sink before exiting (events are
    // written eagerly, so even an error path leaves a valid NDJSON file).
    adatm::trace::shutdown();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}", e.msg);
            ExitCode::from(e.code)
        }
    }
}

/// Dispatches to the subcommand named by `args[0]`; `--help` anywhere
/// in its flags prints the usage instead.
fn run(args: &[String]) -> Result<(), CliError> {
    let name = match args.first().map(String::as_str) {
        None | Some("--help" | "-h") => return print_usage(),
        Some(name) => name,
    };
    let (_, flags, body) = SUBCOMMANDS
        .iter()
        .find(|(n, ..)| *n == name)
        .ok_or_else(|| format!("unknown subcommand '{name}' (try --help)"))?;
    match parse_args(&args[1..], flags)? {
        Some((pos, opts)) => body(&pos, &opts),
        None => print_usage(),
    }
}

/// Installs the NDJSON file sink when `--trace <path>` was given.
fn install_trace(opts: &Opts) -> Result<(), CliError> {
    let Some(path) = opts.get("trace") else { return Ok(()) };
    if path.is_empty() {
        return Err("--trace requires a file path".into());
    }
    adatm::trace::install_file(Path::new(path))
        .map_err(|e| CliError { code: EXIT_IO, msg: format!("cannot open trace file {path}: {e}") })
}

/// Resolves `ADATM_PROFILE` for planning paths, turning a set-but-broken
/// profile into a typed CLI error instead of a silent analytic fallback.
fn checked_profile() -> Result<Option<KernelProfile>, CliError> {
    match KernelProfile::load_env_checked() {
        EnvProfile::Unset => Ok(None),
        EnvProfile::Loaded { profile, path, age } => {
            adatm::trace::event!(
                "profile.loaded",
                path: path.as_str(),
                age_s: age.map_or(-1i64, |a| a.as_secs() as i64),
                threads: profile.threads
            );
            say!("calibration: {path} (threads {})", profile.threads);
            Ok(Some(profile))
        }
        EnvProfile::Broken { path, error } => {
            adatm::trace::event!("profile.error", path: path.as_str(), error: error.as_str());
            Err(CliError {
                code: EXIT_USAGE,
                msg: format!(
                    "ADATM_PROFILE points at '{path}' but the profile is unusable: {error}"
                ),
            })
        }
    }
}

fn print_usage() -> Result<(), CliError> {
    say!(
        "adatm - model-driven sparse CP decomposition\n\n\
         USAGE:\n  adatm info <tensor>\n  adatm convert <in> <out>\n  \
         adatm generate --dims AxBxC [--nnz N] [--skew s|s1,s2,..] [--seed S] -o <out>\n  \
         adatm plan <tensor> [--rank R] [--estimator exact|sampled|analytic] [--budget-mib M]\n      \
         [--trace FILE]\n  \
         adatm decompose <tensor> [--rank R] [--iters N] [--tol T] [--seed S]\n      \
         [--backend adaptive|coo|csf|tree2|tree3|bdt] [--shape '(0 (1 2))']\n      \
         [--algo als|ncp|cpopt|tucker] [--ranks AxBxC (tucker only)]\n      \
         [--out DIR] [--trace FILE] [--drift-factor F]\n      \
         [--checkpoint-dir DIR] [--checkpoint-every N] [--resume] [--mem-budget MIB]\n      \
         [--pp-tol T] [--pp-every K]\n\n\
         Tensor files: FROSTT text (.tns) or adatm binary (.adtm), chosen by extension.\n\n\
         --trace FILE writes a structured NDJSON event log (planner decisions,\n\
         per-stage timings, recoveries); validate it with `cargo xtask trace-check`.\n\n\
         --algo tucker (HOOI) runs on its own unfoldings: --backend, --shape,\n\
         --mem-budget and --out are a usage error with it, as --ranks is with\n\
         any other algorithm.\n\n\
         CP SWEEP (--algo als|ncp): ALS and nonnegative CP run the same loop, so both\n\
         take the flags below; with --algo cpopt|tucker they are a usage error.\n  \
         --drift-factor F        warn when measured kernel time per iteration exceeds\n                          \
         F x the calibrated prediction (default 2; 0 disables)\n\n\
         PAIRWISE PERTURBATION (--algo als|ncp):\n  \
         --pp-tol T              enable approximate (pairwise-perturbation) sweeps once\n                          \
         the relative factor change per iteration drops below T\n                          \
         (suggested 0.02); exact sweeps resume on any recovery\n  \
         --pp-every K            force an exact sweep every K iterations while PP is\n                          \
         active (default 5; re-baselines the memoized intermediates)\n\n\
         DURABILITY (--algo als|ncp):\n  \
         --checkpoint-dir DIR    write rotated, checksummed checkpoints under DIR\n  \
         --checkpoint-every N    write every N completed iterations (default 1)\n  \
         --resume                restart from the newest readable checkpoint in DIR,\n                          \
         continuing bitwise-identically to the uninterrupted run\n\n\
         ADMISSION CONTROL (adaptive backend):\n  \
         --mem-budget MIB        reject or degrade any plan whose predicted resident\n                          \
         memory exceeds the budget\n\n\
         EXIT CODES:\n  \
         0  success\n  \
         2  usage error (unknown or bad flag, missing argument, unknown subcommand)\n  \
         3  file i/o error\n  \
         4  malformed tensor file\n  \
         5  tensor file contains non-finite values\n  \
         6  solver rejected its input (rank/shape/finiteness validation, or a\n     negative value or factor entry under --algo ncp)\n  \
         7  unrecoverable numerical failure during the solve\n  \
         8  checkpoint failure (store unusable, or --resume found nothing readable)\n  \
         9  admission control rejected the run (nothing fits --mem-budget)"
    );
    Ok(())
}

/// Splits `args` into positionals and `--flag value` options (flags with
/// no following value or followed by another flag get an empty value).
/// A flag outside `flags` is a usage error; `None` means `--help`.
fn parse_args(args: &[String], flags: &[&str]) -> Result<Option<(Vec<String>, Opts)>, CliError> {
    let mut pos = Vec::new();
    let mut opts = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if a == "--help" || a == "-h" {
            return Ok(None);
        }
        if let Some(name) = a.strip_prefix("--") {
            if !flags.contains(&name) {
                return Err(format!("unknown flag '{a}' (try --help)").into());
            }
            let val = if i + 1 < args.len() && !args[i + 1].starts_with("--") {
                i += 1;
                args[i].clone()
            } else {
                String::new()
            };
            opts.insert(name.to_string(), val);
        } else if a == "-o" {
            if !flags.contains(&"out") {
                return Err("unknown flag '-o' (try --help)".into());
            }
            if i + 1 >= args.len() {
                return Err("-o requires a path".into());
            }
            i += 1;
            opts.insert("out".to_string(), args[i].clone());
        } else {
            pos.push(a.clone());
        }
        i += 1;
    }
    Ok(Some((pos, opts)))
}

fn opt_parse<T: std::str::FromStr>(opts: &Opts, key: &str, default: T) -> Result<T, String> {
    match opts.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad value '{v}' for --{key}")),
    }
}

/// Wraps a filesystem-level failure as [`EXIT_IO`].
fn fs_err(e: std::io::Error) -> CliError {
    CliError { code: EXIT_IO, msg: e.to_string() }
}

fn load(path: &str) -> Result<SparseTensor, CliError> {
    let p = Path::new(path);
    let ext = p.extension().and_then(|e| e.to_str()).unwrap_or("");
    let mut t = match ext {
        "adtm" => read_binary_file(p)?,
        _ => read_tns_file(p)?,
    };
    t.dedup_sum();
    Ok(t)
}

fn store(t: &SparseTensor, path: &str) -> Result<(), CliError> {
    let p = Path::new(path);
    let ext = p.extension().and_then(|e| e.to_str()).unwrap_or("");
    match ext {
        "adtm" => write_binary_file(t, p)?,
        _ => write_tns_file(t, p)?,
    }
    Ok(())
}

fn cmd_info(pos: &[String], _: &Opts) -> Result<(), CliError> {
    let path = pos.first().ok_or("info requires a tensor file")?;
    let t = load(path)?;
    let s = TensorStats::compute(&t);
    say!("file      : {path}");
    say!("order     : {}", s.order);
    say!("dims      : {}", s.dims.iter().map(|d| d.to_string()).collect::<Vec<_>>().join(" x "));
    say!("nnz       : {}", s.nnz);
    say!("density   : {:.3e}", s.density);
    say!("per-mode distinct: {:?}", s.distinct_per_mode);
    say!("half-split collapse: {:.2} | {:.2}", s.half_split_collapse.0, s.half_split_collapse.1);
    Ok(())
}

fn cmd_convert(pos: &[String], _: &Opts) -> Result<(), CliError> {
    if pos.len() != 2 {
        return Err("convert requires <in> and <out>".into());
    }
    let t = load(&pos[0])?;
    store(&t, &pos[1])?;
    say!("wrote {} ({} nnz)", pos[1], t.nnz());
    Ok(())
}

fn cmd_generate(_: &[String], opts: &Opts) -> Result<(), CliError> {
    let dims_s = opts.get("dims").ok_or("generate requires --dims AxBxC")?;
    let dims: Vec<usize> = dims_s
        .split(['x', 'X'])
        .map(|d| d.parse().map_err(|_| format!("bad dims '{dims_s}'")))
        .collect::<Result<_, _>>()?;
    if dims.contains(&0) {
        return Err(format!("--dims needs positive mode sizes, got '{dims_s}'").into());
    }
    let nnz = opt_parse(opts, "nnz", 100_000usize)?;
    let seed = opt_parse(opts, "seed", 0u64)?;
    let skews: Vec<f64> = match opts.get("skew") {
        None => vec![0.0; dims.len()],
        Some(s) if s.contains(',') => s
            .split(',')
            .map(|x| x.parse().map_err(|_| format!("bad skew '{s}'")))
            .collect::<Result<_, _>>()?,
        Some(s) => {
            let v: f64 = s.parse().map_err(|_| format!("bad skew '{s}'"))?;
            vec![v; dims.len()]
        }
    };
    if skews.len() != dims.len() {
        return Err("--skew needs one value or one per mode".into());
    }
    if !skews.iter().all(|s| s.is_finite() && *s >= 0.0) {
        return Err("--skew values must be nonnegative numbers".into());
    }
    let out = opts.get("out").ok_or("generate requires -o <out>")?;
    let t = if skews.iter().all(|&s| s == 0.0) {
        uniform_tensor(&dims, nnz, seed)
    } else {
        zipf_tensor(&dims, nnz, &skews, seed)
    };
    store(&t, out)?;
    say!("generated {} nnz into {out}", t.nnz());
    Ok(())
}

fn parse_estimator(opts: &Opts) -> Result<NnzEstimator, String> {
    match opts.get("estimator").map(String::as_str) {
        None | Some("sampled") => Ok(NnzEstimator::default()),
        Some("exact") => Ok(NnzEstimator::Exact),
        Some("analytic") => Ok(NnzEstimator::Analytic),
        Some(other) => Err(format!("unknown estimator '{other}'")),
    }
}

fn cmd_plan(pos: &[String], opts: &Opts) -> Result<(), CliError> {
    install_trace(opts)?;
    let path = pos.first().ok_or("plan requires a tensor file")?;
    let t = load(path)?;
    let rank = opt_parse(opts, "rank", 16usize)?;
    check_rank_and_order(rank, t.ndim())?;
    let mut planner = Planner::new(&t, rank).estimator(parse_estimator(opts)?);
    if let Some(profile) = checked_profile()? {
        planner = planner.calibration(profile);
    }
    if let Some(m) = opts.get("budget-mib") {
        let mib: f64 = m.parse().map_err(|_| format!("bad --budget-mib '{m}'"))?;
        planner = planner.memory_budget((mib * 1024.0 * 1024.0) as usize);
    }
    let plan = planner.plan();
    say!(
        "{} candidates ({} estimator evaluations); chosen: {}",
        plan.candidates.len(),
        plan.estimator_evals,
        plan.shape
    );
    say!(
        "{:<20} {:>14} {:>14} {:>13} {:>12} {:>7}  shape",
        "label",
        "flops/iter",
        "traffic-MiB/it",
        "gather-MiB/it",
        "resident-MiB",
        "fits"
    );
    for c in &plan.candidates {
        say!(
            "{:<20} {:>14.3e} {:>14.1} {:>13.1} {:>12.1} {:>7}  {}{}",
            c.label,
            c.cost.flops_per_iter,
            c.cost.traffic_bytes_per_iter / (1024.0 * 1024.0),
            c.cost.gather_miss_bytes_per_iter / (1024.0 * 1024.0),
            c.cost.resident_bytes() / (1024.0 * 1024.0),
            c.fits_budget,
            c.shape,
            if c.shape == plan.shape { "  <== chosen" } else { "" }
        );
    }
    if let Some(ns) = plan.predicted_ns {
        let dispatch = if plan.use_coo {
            "coo"
        } else if plan.use_csf {
            "csf"
        } else {
            "tree"
        };
        say!(
            "calibrated: predicted {ns:.0} ns/iter, dispatch {dispatch} (csf {:.0} ns, coo {:.0} ns)",
            plan.csf_predicted_ns.unwrap_or(f64::NAN),
            plan.coo_predicted_ns.unwrap_or(f64::NAN)
        );
    }
    if opts.contains_key("budget-mib") {
        // The table above is informational; admission is the hard gate a
        // decompose run with the same budget would face.
        let admitted = planner.plan_admitted()?;
        if admitted.use_coo && !plan.use_coo {
            say!("admission: degraded to the fused COO baseline");
        } else {
            say!("admission: admitted within budget");
        }
    }
    Ok(())
}

/// Parses `--mem-budget MIB` into bytes (`None` when absent).
fn parse_mem_budget(opts: &Opts) -> Result<Option<usize>, CliError> {
    let Some(m) = opts.get("mem-budget") else { return Ok(None) };
    let mib: f64 = m.parse().map_err(|_| format!("bad --mem-budget '{m}'"))?;
    if !mib.is_finite() || mib <= 0.0 {
        return Err(format!("--mem-budget must be a positive MiB count, got '{m}'").into());
    }
    Ok(Some((mib * 1024.0 * 1024.0) as usize))
}

fn make_backend(
    t: &SparseTensor,
    rank: usize,
    opts: &Opts,
    profile: Option<KernelProfile>,
    mem_budget: Option<usize>,
) -> Result<Box<dyn MttkrpBackend>, CliError> {
    if let Some(s) = opts.get("shape") {
        let shape: TreeShape = s.parse().map_err(|e| format!("{e}"))?;
        if !shape.covers(t.ndim()) {
            return Err(
                format!("--shape '{s}' must cover modes 0..{} exactly once", t.ndim()).into()
            );
        }
        return Ok(Box::new(DtreeBackend::new(t, &shape, rank)));
    }
    Ok(match opts.get("backend").map(String::as_str) {
        None | Some("adaptive") => {
            let mut planner = Planner::new(t, rank);
            if let Some(p) = profile {
                planner = planner.calibration(p);
            }
            if let Some(b) = mem_budget {
                planner = planner.memory_budget(b);
            }
            // Admission control is a hard gate: a rejected budget exits
            // with EXIT_ADMISSION before any engine structures exist.
            let plan = planner.plan_admitted()?;
            Box::new(AdaptiveBackend::from_plan(t, rank, plan))
        }
        Some("coo") => Box::new(CooBackend::new(t)),
        Some("csf") => Box::new(CsfBackend::new(t)),
        Some("tree2") => Box::new(DtreeBackend::two_level(t, rank)),
        Some("tree3") => Box::new(DtreeBackend::three_level(t, rank)),
        Some("bdt") => Box::new(DtreeBackend::balanced_binary(t, rank)),
        Some(other) => return Err(format!("unknown backend '{other}'").into()),
    })
}

/// Writes `rows` as space-separated text lines, each value as `{}` prints
/// it, through `buf` (one buffer for every file of a model); any I/O
/// failure, the final flush included, is [`EXIT_IO`].
fn write_rows<'a>(
    path: &str,
    rows: impl Iterator<Item = &'a [f64]>,
    buf: &mut Vec<u8>,
) -> Result<(), CliError> {
    let mut w = std::fs::File::create(path).map_err(fs_err)?;
    for row in rows {
        for (j, &x) in row.iter().enumerate() {
            if j > 0 {
                buf.push(b' ');
            }
            text::push_f64(buf, x);
        }
        buf.push(b'\n');
        text::spill(&mut w, buf).map_err(fs_err)?;
    }
    text::finish(&mut w, buf).map_err(fs_err)
}

fn write_factors(dir: &str, model: &adatm::CpModel) -> Result<(), CliError> {
    std::fs::create_dir_all(dir).map_err(fs_err)?;
    let mut buf = Vec::with_capacity(2 * text::CHUNK);
    write_rows(&format!("{dir}/lambda.txt"), model.lambda.chunks(1), &mut buf)?;
    for (d, f) in model.factors.iter().enumerate() {
        write_rows(&format!("{dir}/factor_{d}.txt"), (0..f.nrows()).map(|i| f.row(i)), &mut buf)?;
    }
    say!("wrote lambda + {} factors under {dir}/", model.factors.len());
    Ok(())
}

/// `decompose` flags that only some `--algo` values read, with those
/// algorithms; any other algorithm rejects them instead of ignoring them.
/// The sweep-loop flags configure the CP sweep loop, which only `als` and
/// `ncp` run; HOOI takes its own `--ranks`, builds no MTTKRP backend and
/// writes no factor files.
const ALGO_FLAGS: [(&str, &str); 11] = [
    ("checkpoint-dir", "als|ncp"),
    ("checkpoint-every", "als|ncp"),
    ("resume", "als|ncp"),
    ("pp-tol", "als|ncp"),
    ("pp-every", "als|ncp"),
    ("drift-factor", "als|ncp"),
    ("ranks", "tucker"),
    ("backend", "als|ncp|cpopt"),
    ("shape", "als|ncp|cpopt"),
    ("mem-budget", "als|ncp|cpopt"),
    ("out", "als|ncp|cpopt"),
];

/// Adds the sweep-loop flags — drift threshold, pairwise perturbation,
/// checkpointing — to `o`.
fn sweep_options(opts: &Opts, mut o: CpAlsOptions) -> Result<CpAlsOptions, CliError> {
    o = o.drift_factor(opt_parse(opts, "drift-factor", 2.0f64)?);
    if opts.contains_key("pp-tol") || opts.contains_key("pp-every") {
        let pp_tol = opt_parse(opts, "pp-tol", 0.02f64)?;
        let pp_every = opt_parse(opts, "pp-every", 5usize)?;
        if !pp_tol.is_finite() || pp_tol <= 0.0 {
            return Err("--pp-tol must be positive".into());
        }
        o = o.pp(PpConfig::new().tol(pp_tol).every(pp_every));
    }
    let ckpt_dir = opts.get("checkpoint-dir");
    if (opts.contains_key("resume") || opts.contains_key("checkpoint-every")) && ckpt_dir.is_none()
    {
        return Err("--resume/--checkpoint-every need --checkpoint-dir".into());
    }
    if let Some(dir) = ckpt_dir {
        if dir.is_empty() {
            return Err("--checkpoint-dir requires a path".into());
        }
        let every = opt_parse(opts, "checkpoint-every", 1usize)?;
        o = o.checkpoint(CheckpointConfig::new(dir).every_iters(every));
    }
    Ok(o)
}

fn cmd_decompose(pos: &[String], opts: &Opts) -> Result<(), CliError> {
    let algo = opts.get("algo").map_or("als", String::as_str);
    if !matches!(algo, "als" | "ncp" | "cpopt" | "tucker") {
        return Err(format!("unknown algorithm '{algo}'").into());
    }
    let ignored: Vec<String> = ALGO_FLAGS
        .iter()
        .filter(|(flag, algos)| opts.contains_key(*flag) && !algos.split('|').any(|a| a == algo))
        .map(|(flag, algos)| format!("--{flag} applies to --algo {algos} only"))
        .collect();
    if !ignored.is_empty() {
        return Err(format!("{}, not {algo}", ignored.join("; ")).into());
    }
    install_trace(opts)?;
    let path = pos.first().ok_or("decompose requires a tensor file")?;
    let t = load(path)?;
    let rank = opt_parse(opts, "rank", 16usize)?;
    let iters = opt_parse(opts, "iters", 50usize)?;
    let tol = opt_parse(opts, "tol", 1e-5f64)?;
    let seed = opt_parse(opts, "seed", 0u64)?;
    if algo == "tucker" {
        // Tucker runs on unfoldings directly, not an MTTKRP backend.
        let ranks: Vec<usize> = match opts.get("ranks") {
            Some(s) => s
                .split(['x', 'X'])
                .map(|r| r.parse().map_err(|_| format!("bad --ranks '{s}'")))
                .collect::<Result<_, _>>()?,
            None => vec![rank.min(8); t.ndim()],
        };
        let res = hooi(&t, &TuckerOptions::new(ranks).max_iters(iters).tol(tol).seed(seed))?;
        say!(
            "tucker: {} iters, fit {:.5}, converged {}, core norm {:.4}",
            res.iters,
            res.final_fit(),
            res.converged,
            res.model.core_norm()
        );
        return Ok(());
    }
    // Rank and order are checked before anything is planned or built; the
    // driver's own check then scans the values once.
    check_rank_and_order(rank, t.ndim())?;
    // The planner only consults ADATM_PROFILE on the adaptive path; a
    // set-but-broken profile there is a typed usage error, not a silent
    // fallback to analytic costs.
    let uses_planner = !opts.contains_key("shape")
        && matches!(opts.get("backend").map(String::as_str), None | Some("adaptive"));
    let profile = if uses_planner { checked_profile()? } else { None };
    let mem_budget = parse_mem_budget(opts)?;
    if mem_budget.is_some() && !uses_planner {
        return Err("--mem-budget only applies to the adaptive (planner) backend".into());
    }
    let mut backend = make_backend(&t, rank, opts, profile, mem_budget)?;
    say!("backend: {}", backend.name());
    match algo {
        "als" | "ncp" => {
            let o =
                sweep_options(opts, CpAlsOptions::new(rank).max_iters(iters).tol(tol).seed(seed))?;
            let solver = |o| if algo == "ncp" { CpAls::ncp(o) } else { CpAls::new(o) };
            let res = match opts.get("checkpoint-dir").filter(|_| opts.contains_key("resume")) {
                Some(dir) => {
                    let outcome = CheckpointStore::load_latest(Path::new(dir))
                        .map_err(|e| CliError { code: EXIT_CHECKPOINT, msg: e.to_string() })?;
                    // The run continues the checkpoint's trajectory, so
                    // its seed wins over --seed (a mismatch would be a
                    // typed resume error, not a silently different
                    // model).
                    if outcome.checkpoint.seed != seed && opts.contains_key("seed") {
                        say!(
                            "note: --seed {seed} ignored; resuming with checkpoint seed {}",
                            outcome.checkpoint.seed
                        );
                    }
                    say!(
                        "resume: {} (generation {}, iteration {}, {} corrupt generation(s) skipped)",
                        outcome.path.display(),
                        outcome.generation,
                        outcome.checkpoint.next_iter,
                        outcome.fallbacks.len()
                    );
                    solver(o.seed(outcome.checkpoint.seed)).resume_from(
                        &t,
                        backend.as_mut(),
                        outcome.checkpoint,
                    )?
                }
                None => solver(o).run(&t, backend.as_mut())?,
            };
            say!(
                "{algo}: {} iters, fit {:.5}, converged {}, mttkrp {:.3}s dense {:.3}s fit {:.3}s",
                res.iters,
                res.final_fit(),
                res.converged,
                res.timings.mttkrp.as_secs_f64(),
                res.timings.dense.as_secs_f64(),
                res.timings.fit.as_secs_f64()
            );
            if res.diagnostics.pp_sweeps > 0 {
                say!(
                    "pp: {} approximate sweep(s), {} baseline refresh(es), {:.2} ms/sweep vs {:.2} ms exact",
                    res.diagnostics.pp_sweeps,
                    res.diagnostics.pp_refreshes,
                    res.diagnostics.pp_sweep_ns.unwrap_or(f64::NAN) / 1e6,
                    res.diagnostics.exact_sweep_ns.unwrap_or(f64::NAN) / 1e6
                );
            }
            if res.diagnostics.recoveries > 0 || res.diagnostics.degraded {
                say!(
                    "resilience: {} breakdown event(s), {} recover(ies), stop: {:?}",
                    res.diagnostics.events.len(),
                    res.diagnostics.recoveries,
                    res.diagnostics.stop
                );
            }
            if opts.contains_key("trace") {
                say!("trace: {}", res.trace_summary());
            }
            if let Some(dir) = opts.get("out") {
                write_factors(dir, &res.model)?;
            }
        }
        _ => {
            let o = CpOptOptions::new(rank).max_iters(iters).tol(tol).seed(seed);
            let res = cp_opt(&t, &mut backend, &o)?;
            say!(
                "cpopt: {} iters, objective {:.5e}, converged {}",
                res.iters,
                res.objective,
                res.converged
            );
            let finite_model =
                res.model.factors.iter().all(|f| f.as_slice().iter().all(|v| v.is_finite()));
            if !res.objective.is_finite() || !finite_model {
                return Err(CliError {
                    code: EXIT_NUMERICAL,
                    msg: format!(
                        "cpopt: non-finite objective {:e} or model; nothing written",
                        res.objective
                    ),
                });
            }
            if let Some(dir) = opts.get("out") {
                write_factors(dir, &res.model)?;
            }
        }
    }
    Ok(())
}
