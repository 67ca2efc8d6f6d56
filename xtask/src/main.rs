//! Workspace automation entry point (`cargo xtask <command>`).
//!
//! Four commands:
//!
//! `lint` — the static-analysis driver run in CI and before every merge.
//! It chains
//!
//! 1. `cargo fmt --all -- --check` against the committed `rustfmt.toml`,
//! 2. `cargo clippy --workspace --all-targets` with a curated deny-list,
//! 3. the structural passes of the `adatm-analyze` engine (see
//!    [`analyze`]) — hot-path allocation and indexing, kernel
//!    panic-freedom, trace-schema conformance, crate-root
//!    `#![forbid(unsafe_code)]`, and README schema-table drift.
//!
//! `analyze` — the full engine run: the structural passes above plus the
//! exhaustive schedule-disjointness prover. `--bless` regenerates each
//! crate's `analyze.toml` allowances from current counts, `--fix-docs`
//! rewrites the README trace-schema table in place, and `--quick`
//! shrinks the prover universe for local iteration.
//!
//! `calibrate` — builds and runs the kernel calibration probe, writing
//! the measured `KernelProfile` (ns per work unit per kernel class, at
//! 1 and N threads) to `PROFILE.txt`. Point `ADATM_PROFILE` at it to
//! make adaptive planning rank by calibrated wall time. `--check`
//! additionally runs the timing gates on the probe tensor: the
//! calibrated plan's measured per-iteration time stays within 10% of the
//! best fixed tree; a pairwise-perturbation sweep is at least 2x faster
//! than an exact one at a final-fit cost of at most 1e-4 (full scale
//! only); and checkpointing every 5 iterations costs under 2% of the
//! iteration work (500% at `--smoke`).
//!
//! `trace-check` — validates an NDJSON trace captured with
//! `adatm --trace <path>`: schema, strictly increasing sequence numbers,
//! and properly paired/nested span events (see [`trace`]). CI runs a
//! small traced CP-ALS and pipes the file through this.
//!
//! Exits non-zero if any enforced step fails.

#![forbid(unsafe_code)]

mod analyze;
mod lints;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Extra clippy lints denied on top of `-D warnings`.
const CLIPPY_DENY: &[&str] =
    &["clippy::dbg_macro", "clippy::todo", "clippy::unimplemented", "clippy::mem_forget"];

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint") => lint(),
        Some("analyze") => analyze_cmd(args),
        Some("calibrate") => calibrate_cmd(args),
        Some("trace-check") => trace_check_cmd(args),
        None | Some("help") | Some("--help") => {
            print_usage();
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("xtask: unknown command `{other}`\n");
            print_usage();
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    eprintln!(
        "usage: cargo xtask <command>\n\ncommands:\n  lint         run the static-analysis suite (rustfmt, clippy, engine passes)\n  analyze      run the adatm-analyze engine: lint passes + disjointness prover\n  calibrate    measure per-kernel-class throughput and write PROFILE.txt\n  trace-check  validate an NDJSON trace file against the schema registry\n\ntrace-check usage:\n  cargo xtask trace-check <trace.ndjson>\n\nanalyze flags:\n  --bless     regenerate analyze.toml allowances from current counts\n  --fix-docs  rewrite the README trace-schema table in place\n  --quick     small prover universe (local iteration; CI runs the full one)\n\ncalibrate flags:\n  --smoke       tiny probe workload (CI)\n  --check       run the gates: adaptive plan, PP sweep (full scale), checkpoint overhead\n  --out <path>  override the profile path (default PROFILE.txt)"
    );
}

/// The workspace root: the parent of this crate's manifest directory.
fn workspace_root() -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().unwrap_or(manifest).to_path_buf()
}

fn cargo_bin() -> String {
    std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string())
}

/// Runs one external step, echoing a pass/fail line. Returns `true` on
/// success.
fn run_step(name: &str, cmd: &mut Command) -> bool {
    println!("xtask: running {name} ...");
    match cmd.status() {
        Ok(status) if status.success() => {
            println!("xtask: {name} ok");
            true
        }
        Ok(status) => {
            eprintln!("xtask: {name} FAILED ({status})");
            false
        }
        Err(err) => {
            eprintln!("xtask: {name} FAILED to start: {err}");
            false
        }
    }
}

/// `cargo xtask analyze [--bless] [--fix-docs] [--quick]`.
fn analyze_cmd(args: impl Iterator<Item = String>) -> ExitCode {
    let mut opts = analyze::Options::default();
    for arg in args {
        match arg.as_str() {
            "--bless" => opts.bless = true,
            "--fix-docs" => opts.fix_docs = true,
            "--quick" => opts.quick = true,
            other => {
                eprintln!("xtask analyze: unknown flag `{other}`\n");
                print_usage();
                return ExitCode::FAILURE;
            }
        }
    }
    if analyze::run(&workspace_root(), opts) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `cargo xtask calibrate [--smoke] [--check] [--out <path>]`.
///
/// Builds the calibration probe in release mode and runs it; the probe
/// measures per-kernel-class throughput at 1 and N threads and writes
/// the profile. With `--check`, the probe then runs its gates (see the
/// module doc) and fails (exit 1) if any of them does.
fn calibrate_cmd(mut args: impl Iterator<Item = String>) -> ExitCode {
    let mut smoke = false;
    let mut check = false;
    let mut out_arg: Option<PathBuf> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--check" => check = true,
            "--out" => match args.next() {
                Some(v) => out_arg = Some(PathBuf::from(v)),
                None => {
                    eprintln!("xtask calibrate: --out requires a path");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("xtask calibrate: unknown flag `{other}`\n");
                print_usage();
                return ExitCode::FAILURE;
            }
        }
    }

    let root = workspace_root();
    let cargo = cargo_bin();
    if !run_step(
        "build calibrate (release)",
        Command::new(&cargo).current_dir(&root).args([
            "build",
            "--release",
            "-p",
            "adatm-bench",
            "--bin",
            "calibrate",
        ]),
    ) {
        return ExitCode::FAILURE;
    }

    let out_path = out_arg.unwrap_or_else(|| {
        if smoke {
            root.join("target").join("profile_smoke.txt")
        } else {
            root.join("PROFILE.txt")
        }
    });
    let mut probe = Command::new(root.join("target/release/calibrate"));
    probe.current_dir(&root).arg(&out_path);
    if smoke {
        probe.env("ADATM_BENCH_SMOKE", "1");
    }
    if check {
        probe.env("ADATM_CALIBRATE_CHECK", "1");
    }
    if run_step("calibrate", &mut probe) {
        println!("xtask calibrate: profile at {}", out_path.display());
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `cargo xtask trace-check <trace.ndjson>`.
///
/// Validates a trace captured with `adatm --trace <path>`: every line a
/// flat JSON event with increasing `seq`, and every span (including
/// every `cpals.iter` iteration span) properly opened and closed.
fn trace_check_cmd(mut args: impl Iterator<Item = String>) -> ExitCode {
    let Some(path) = args.next() else {
        eprintln!("xtask trace-check: expected a trace file path\n");
        print_usage();
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(err) => {
            eprintln!("xtask trace-check: cannot read {path}: {err}");
            return ExitCode::FAILURE;
        }
    };
    match trace::validate(&text) {
        Ok(summary) => {
            println!(
                "xtask trace-check: {path} ok ({} events, {} spans, {} iterations, {} planner decisions)",
                summary.events, summary.spans, summary.iterations, summary.decisions
            );
            ExitCode::SUCCESS
        }
        Err(errors) => {
            for e in &errors {
                eprintln!("xtask trace-check: {e}");
            }
            eprintln!("xtask trace-check: {path} FAILED ({} violation(s))", errors.len());
            ExitCode::FAILURE
        }
    }
}

fn lint() -> ExitCode {
    let root = workspace_root();
    let cargo = cargo_bin();
    let mut ok = true;

    ok &= run_step(
        "rustfmt",
        Command::new(&cargo).current_dir(&root).args(["fmt", "--all", "--", "--check"]),
    );

    let mut clippy = Command::new(&cargo);
    clippy.current_dir(&root).args([
        "clippy",
        "--workspace",
        "--all-targets",
        "--quiet",
        "--",
        "-D",
        "warnings",
    ]);
    for lint in CLIPPY_DENY {
        clippy.args(["-D", lint]);
    }
    ok &= run_step("clippy", &mut clippy);

    ok &= analyze::run_static(&root);

    if ok {
        println!("xtask lint: all checks passed");
        ExitCode::SUCCESS
    } else {
        eprintln!("xtask lint: FAILED");
        ExitCode::FAILURE
    }
}
