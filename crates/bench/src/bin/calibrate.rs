//! Kernel calibration probe (`cargo xtask calibrate`).
//!
//! Measures the effective throughput of each kernel class the planner
//! prices — COO entry kernel, CSF root traversal, dimension-tree pull
//! and scatter TTMVs — as ns per normalized work unit, at one thread and
//! at the configured pool size, and writes the resulting
//! [`KernelProfile`] as `PROFILE.txt` (or the path in argv[1]). Point
//! `ADATM_PROFILE` at that file and every `AdaptiveBackend` planning
//! constructor ranks candidate strategies by calibrated wall time.
//!
//! Knobs:
//!
//! * `ADATM_BENCH_SMOKE=1` — tiny tensor / few reps (CI smoke job);
//! * `ADATM_BENCH_THREADS` — parallel pool size (default 8);
//! * `ADATM_RANK` — decomposition rank (default 16);
//! * `ADATM_BENCH_REPS` — timing repetitions (default 9 / 2 smoke);
//! * `ADATM_CALIBRATE_CHECK=1` — after writing the profile, run the
//!   gates below and exit 1 if any fails, printing one line naming it;
//! * argv[1] — output profile path (default `PROFILE.txt`).
//!
//! Gates, all on the probe tensor inside the pinned pool:
//!
//! * **adaptive** — planned with the fresh profile, the adaptive
//!   backend's measured per-iteration time is within 10% of the best
//!   fixed tree's, and the plan carries a `pp_update` prediction;
//! * **pp** (full scale only; the smoke tensor's sweeps are
//!   microseconds and its trajectory too short for the bounds to mean
//!   anything) — an approximate sweep runs at least 2x faster than a
//!   clean exact sweep of the same run, and moves the final fit by at
//!   most 1e-4 against an all-exact twin;
//! * **checkpoint** — checkpointing every 5 iterations costs under 2% of
//!   the iteration work at full scale, under 500% at smoke (smoke
//!   iterations are microseconds while an fsync is not).

use adatm_bench::{
    env_flag, env_usize, per_iter, run_cpals, run_cpals_with, time_best, with_threads, Table,
};
use adatm_core::{
    AdaptiveBackend, CheckpointConfig, CooBackend, CpAlsOptions, DtreeBackend, MttkrpBackend,
    PpConfig,
};
use adatm_dtree::{DtreeEngine, EngineOptions, NodeKernelClass, PpState, TreeShape};
use adatm_linalg::Mat;
use adatm_model::{ClassRate, KernelClass, KernelProfile, NnzEstimator, Planner};
use adatm_tensor::csf::CsfTensor;
use adatm_tensor::gen::proxy_datasets;
use adatm_tensor::mttkrp::{mttkrp_par_into, schedule_for_view};
use adatm_tensor::schedule::Workspace;
use adatm_tensor::{SortedModeView, SparseTensor};

fn factors_for(t: &SparseTensor, rank: usize, seed: u64) -> Vec<Mat> {
    t.dims().iter().enumerate().map(|(d, &n)| Mat::random(n, rank, seed + d as u64)).collect()
}

/// The gate tensor: `deli4d`, the first proxy dataset of the standard
/// experiment suite (Delicious-like, user-mode skew 0.9), at the default
/// harness scale, or 10x smaller at smoke. The profile is measured on
/// the workload class the planner is judged on.
fn gate_tensor(smoke: bool) -> SparseTensor {
    let scale = if smoke { 0.01 } else { 0.1 };
    let spec = &proxy_datasets(scale)[0];
    assert_eq!(spec.name, "deli4d", "suite order changed; update the probe");
    spec.build()
}

/// ns per work unit of every class, measured inside a pool of `threads`.
/// `None` for a class with no instances on the probe tensor (scatter on
/// very uniform data); the caller substitutes the pull rate.
struct MeasuredRates {
    coo: f64,
    csf: f64,
    pull: Option<f64>,
    scatter: Option<f64>,
    pp: f64,
}

fn measure_rates(t: &SparseTensor, rank: usize, threads: usize, reps: usize) -> MeasuredRates {
    let n = t.ndim();
    let r = rank as f64;
    with_threads(threads, || {
        // COO: scheduled kernel, all modes; nnz * (N-1) * R units each.
        let factors = factors_for(t, rank, 11);
        let mut ws = Workspace::new();
        let mut coo_ns = 0u64;
        for mode in 0..n {
            let view = SortedModeView::build(t, mode);
            let sched = schedule_for_view(&view, threads);
            let mut out = Mat::zeros(t.dims()[mode], rank);
            let mut run = || {
                mttkrp_par_into(t, &factors, mode, &view, &sched, &mut ws, &mut out);
                std::hint::black_box(&out);
            };
            run();
            coo_ns += time_best(reps, &mut run).as_nanos() as u64;
        }
        let coo_units = n as f64 * t.nnz() as f64 * (n as f64 - 1.0) * r;
        // CSF: root traversal per mode; (non-root nodes) * R units each.
        let (mut csf_ns, mut csf_units) = (0u64, 0.0f64);
        for mode in 0..n {
            let csf = CsfTensor::for_mode(t, mode);
            let sched = csf.root_schedule(threads);
            let mut out = Mat::zeros(t.dims()[mode], rank);
            let mut run = || {
                csf.mttkrp_root_into(&factors, &sched, &mut ws, &mut out);
                std::hint::black_box(&out);
            };
            run();
            csf_ns += time_best(reps, &mut run).as_nanos() as u64;
            csf_units += csf.node_counts().iter().skip(1).sum::<usize>() as f64 * r;
        }
        // Tree pull/scatter: per-node recomputes attributed to the class
        // the engine actually runs. Two tree populations, so the pull
        // rate averages over both node kinds the planner will price: the
        // balanced binary tree contributes internal (R-wide-parent)
        // pulls, the flat tree contributes root-children, whose
        // tensor-streaming leaves are markedly slower per unit — a
        // bdt-only sample would underprice exactly the shallow trees the
        // traffic term favors.
        let mut class_ns = [0u64; 2];
        let mut class_units = [0.0f64; 2];
        for shape in [TreeShape::balanced_binary(n), TreeShape::two_level(n)] {
            let mut eng = DtreeEngine::with_options(t, &shape, rank, EngineOptions::default());
            for id in 1..eng.tree().len() {
                let Some(class) = eng.node_kernel_class(id) else { continue };
                let Some(units) = eng.node_work_units(id) else { continue };
                let mut run = || eng.recompute_node(t, &factors, id);
                run();
                let ns = time_best(reps, &mut run).as_nanos() as u64;
                let slot = match class {
                    NodeKernelClass::Pull => 0,
                    NodeKernelClass::Scatter => 1,
                };
                class_ns[slot] += ns;
                class_units[slot] += units as f64;
            }
        }
        // Pairwise-perturbation fused sweep: baselines captured at the
        // current factors, then every factor perturbed so no correction
        // block is skipped — the steady-state (worst-case) sweep the
        // planner prices as `pp_update` units.
        let support: Vec<_> = (0..n).map(|d| t.support(d)).collect();
        let mut pp = PpState::new(t, rank);
        pp.refresh(t, &factors, &support);
        let perturbed: Vec<Mat> = factors
            .iter()
            .enumerate()
            .map(|(d, f)| {
                let dir = Mat::random(f.nrows(), rank, 211 + d as u64);
                let mut m = f.clone();
                for (x, &y) in m.as_mut_slice().iter_mut().zip(dir.as_slice()) {
                    *x += 1e-3 * y;
                }
                m
            })
            .collect();
        let mut outs: Vec<Mat> = t.dims().iter().map(|&d| Mat::zeros(d, rank)).collect();
        let mut run = || {
            for m in 0..n {
                pp.note_factor_updated(m);
            }
            pp.pp_sweep_into(&perturbed, &support, &mut outs);
            std::hint::black_box(&outs);
        };
        run();
        let pp_ns = time_best(reps, &mut run).as_nanos() as u64;
        let per_unit = |ns: u64, units: f64| {
            if units > 0.0 {
                Some(ns as f64 / units)
            } else {
                None
            }
        };
        MeasuredRates {
            coo: coo_ns as f64 / coo_units,
            csf: csf_ns as f64 / csf_units.max(1.0),
            pull: per_unit(class_ns[0], class_units[0]),
            scatter: per_unit(class_ns[1], class_units[1]),
            pp: pp_ns as f64 / pp.sweep_units(),
        }
    })
}

/// Measured CP-ALS per-iteration ns, interleaved across backends so
/// machine noise drifts over all of them equally, with the visit order
/// rotated every round (a fixed order hands whichever backend runs last
/// any monotone drift within the round); minimum of `reps`.
fn cpals_per_iter(
    t: &SparseTensor,
    rank: usize,
    backends: &mut [Box<dyn MttkrpBackend>],
    iters: usize,
    reps: usize,
) -> Vec<u64> {
    let len = backends.len();
    let mut best = vec![u64::MAX; len];
    for rep in 0..reps {
        for k in 0..len {
            let i = (k + rep) % len;
            let res = run_cpals(t, &mut *backends[i], rank, iters);
            best[i] = best[i].min(per_iter(&res).as_nanos() as u64);
        }
    }
    best
}

/// The adaptive gate: plan with the freshly measured profile and verify
/// the adaptive backend's measured per-iteration time is within 10% of
/// the best fixed tree's. Returns false on violation.
fn check_calibrated_plan(
    t: &SparseTensor,
    rank: usize,
    threads: usize,
    profile: &KernelProfile,
) -> bool {
    with_threads(threads, || {
        let planner = Planner::new(t, rank)
            .estimator(NnzEstimator::Exact)
            .threads(threads)
            .calibration(*profile);
        let adaptive = AdaptiveBackend::from_planner(t, rank, planner);
        let plan = adaptive.memo_plan();
        let chose = if plan.use_coo {
            "coo".to_string()
        } else if plan.use_csf {
            "csf".to_string()
        } else {
            format!("tree {}", plan.shape)
        };
        println!(
            "   check: calibrated plan chose {chose} (predicted {:.2} ms/iter)",
            plan.predicted_ns.unwrap_or(f64::NAN) / 1e6,
        );
        // Exact-vs-approximate pricing: a calibrated plan must carry a
        // pp_update prediction, so callers can weigh an exact sweep
        // against a pairwise-perturbation sweep before enabling PP.
        let Some(pp_ns) = plan.pp_predicted_ns else {
            eprintln!(
                "calibrate: ADAPTIVE GATE FAILED: calibrated plan carries no pp_update prediction"
            );
            return false;
        };
        println!(
            "   check: pp sweep predicted {:.2} ms vs exact {:.2} ms/iter",
            pp_ns / 1e6,
            plan.predicted_ns.unwrap_or(f64::NAN) / 1e6,
        );
        let mut backends: Vec<Box<dyn MttkrpBackend>> = vec![
            Box::new(DtreeBackend::two_level(t, rank)),
            Box::new(DtreeBackend::three_level(t, rank)),
            Box::new(DtreeBackend::balanced_binary(t, rank)),
            Box::new(adaptive),
        ];
        let times = cpals_per_iter(t, rank, &mut backends, 2, 5);
        let (fixed, adaptive_ns) = (&times[..3], times[3]);
        for (b, ns) in backends.iter().zip(&times) {
            println!("   check: {:<10} {:>12} ns/iter", b.name(), ns);
        }
        let best_fixed = *fixed.iter().min().unwrap_or(&u64::MAX);
        let limit = best_fixed + best_fixed / 10;
        if adaptive_ns > limit {
            eprintln!(
                "calibrate: ADAPTIVE GATE FAILED: adaptive {adaptive_ns} ns/iter exceeds best fixed tree {best_fixed} ns/iter by more than 10%"
            );
            false
        } else {
            println!(
                "   check ok: adaptive {adaptive_ns} ns/iter vs best fixed tree {best_fixed} ns/iter (limit {limit})"
            );
            true
        }
    })
}

/// The PP gate (full scale only): one PP-enabled CP-ALS run on the
/// balanced-binary tree backend, with the speedup taken from the run's
/// own diagnostics — average MTTKRP-phase time of an approximate sweep
/// vs a clean exact sweep of the *same* run, so machine drift cancels —
/// plus an all-exact twin run to bound the fit error PP introduces.
/// Returns false on violation.
fn check_pp(t: &SparseTensor, rank: usize, threads: usize) -> bool {
    with_threads(threads, || {
        let exact = run_cpals(t, &mut DtreeBackend::balanced_binary(t, rank), rank, 30);
        let opts = CpAlsOptions::new(rank).max_iters(30).tol(0.0).seed(0);
        let pp_opts = opts.pp(PpConfig::new().tol(0.05).every(8));
        let pp = run_cpals_with(t, &mut DtreeBackend::balanced_binary(t, rank), pp_opts);
        let exact_ns = pp.diagnostics.exact_sweep_ns.unwrap_or(0.0);
        let pp_ns = pp.diagnostics.pp_sweep_ns.unwrap_or(f64::INFINITY);
        let speedup = if pp_ns > 0.0 { exact_ns / pp_ns } else { 0.0 };
        let fit_diff = (exact.final_fit() - pp.final_fit()).abs();
        println!(
            "   check: pp {} approximate sweep(s), {} refresh(es); exact sweep {:.2} ms vs pp \
             sweep {:.2} ms -> {speedup:.2}x; |fit diff| {fit_diff:.2e}",
            pp.diagnostics.pp_sweeps,
            pp.diagnostics.pp_refreshes,
            exact_ns / 1e6,
            pp_ns / 1e6,
        );
        // `<=` is false for NaN, so a non-finite fit difference fails.
        if speedup >= 2.0 && fit_diff <= 1e-4 {
            println!("   check ok: pp sweep {speedup:.2}x (gate >= 2x), |fit diff| {fit_diff:.2e} (gate <= 1e-4)");
            true
        } else {
            eprintln!(
                "calibrate: PP GATE FAILED: sweep speedup {speedup:.2}x (gate >= 2x), |fit diff| \
                 {fit_diff:.2e} (gate <= 1e-4)"
            );
            false
        }
    })
}

/// Checkpoint-overhead bound in percent of the iteration work, at full
/// scale and at smoke.
const CKPT_BOUND_PCT: f64 = 2.0;
const CKPT_BOUND_SMOKE_PCT: f64 = 500.0;

/// The checkpoint gate: checkpointing every 5 iterations must stay cheap
/// relative to the iterations themselves. The overhead is checkpoint
/// time over everything else, from the driver's own phase timings (the
/// accounting `checkpointing_does_not_perturb_the_trajectory` exercises),
/// minimum over `max(reps, 2)` runs of 10 iterations. Returns false on
/// violation.
fn check_ckpt_overhead(
    t: &SparseTensor,
    rank: usize,
    threads: usize,
    reps: usize,
    smoke: bool,
) -> bool {
    let bound = if smoke { CKPT_BOUND_SMOKE_PCT } else { CKPT_BOUND_PCT };
    let dir = std::env::temp_dir().join(format!("adatm-calibrate-ckpt-{}", std::process::id()));
    let overhead = with_threads(threads, || {
        let mut best = f64::INFINITY;
        for _ in 0..reps.max(2) {
            let _ = std::fs::remove_dir_all(&dir);
            let cfg = CheckpointConfig::new(&dir).every_iters(5);
            let opts = CpAlsOptions::new(rank).max_iters(10).tol(0.0).seed(0).checkpoint(cfg);
            let res = run_cpals_with(t, &mut CooBackend::new(t), opts);
            let ckpt = res.timings.checkpoint.as_nanos() as f64;
            let rest = res.timings.total().as_nanos() as f64 - ckpt;
            if rest > 0.0 {
                best = best.min(100.0 * ckpt / rest);
            }
        }
        best
    });
    let _ = std::fs::remove_dir_all(&dir);
    if overhead <= bound {
        println!(
            "   check ok: checkpoint overhead {overhead:.3}% of iteration work (gate < {bound}%)"
        );
        true
    } else {
        eprintln!(
            "calibrate: CHECKPOINT GATE FAILED: checkpointing every 5 iters costs {overhead:.2}% \
             (gate < {bound}%) of iteration work"
        );
        false
    }
}

fn main() {
    let smoke = env_flag("ADATM_BENCH_SMOKE");
    let check = env_flag("ADATM_CALIBRATE_CHECK");
    let threads = env_usize("ADATM_BENCH_THREADS", 8);
    let rank = env_usize("ADATM_RANK", 16);
    let reps = env_usize("ADATM_BENCH_REPS", if smoke { 2 } else { 9 });
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "PROFILE.txt".to_string());

    println!("== calibrate: threads={threads} rank={rank} smoke={smoke}");
    let t = gate_tensor(smoke);
    println!("   probe tensor: dims={:?} nnz={}", t.dims(), t.nnz());

    let seq = measure_rates(&t, rank, 1, reps);
    let par = measure_rates(&t, rank, threads, reps);

    // A probe tensor without scatter nodes cannot measure the scatter
    // rate; fall back to the pull rate so the profile stays complete.
    let pull_1t = seq.pull.unwrap_or(seq.coo);
    let pull_nt = par.pull.unwrap_or(par.coo);
    let scatter_1t = seq.scatter.unwrap_or_else(|| {
        println!("   note: no scatter nodes on probe tensor; reusing pull rate");
        pull_1t
    });
    let scatter_nt = par.scatter.unwrap_or(pull_nt);

    let profile = KernelProfile {
        threads,
        coo_mttkrp: ClassRate { ns_per_unit_1t: seq.coo, ns_per_unit_nt: par.coo },
        csf_root: ClassRate { ns_per_unit_1t: seq.csf, ns_per_unit_nt: par.csf },
        tree_pull: ClassRate { ns_per_unit_1t: pull_1t, ns_per_unit_nt: pull_nt },
        tree_scatter: ClassRate { ns_per_unit_1t: scatter_1t, ns_per_unit_nt: scatter_nt },
        pp_update: ClassRate { ns_per_unit_1t: seq.pp, ns_per_unit_nt: par.pp },
    };

    let par_hdr = format!("ns/unit ({threads}t)");
    let mut table = Table::new(&["class", "ns/unit (1t)", par_hdr.as_str(), "speedup"]);
    for class in KernelClass::ALL {
        let r = profile.rate(class);
        table.row(&[
            class.key().to_string(),
            format!("{:.4}", r.ns_per_unit_1t),
            format!("{:.4}", r.ns_per_unit_nt),
            format!("{:.2}x", r.speedup()),
        ]);
    }
    table.print();

    if let Err(e) = std::fs::write(&out_path, profile.to_text()) {
        eprintln!("calibrate: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("   wrote {out_path}");

    if check {
        // Every gate runs, so one failure does not hide another.
        let mut ok = check_calibrated_plan(&t, rank, threads, &profile);
        if !smoke {
            ok &= check_pp(&t, rank, threads);
        }
        ok &= check_ckpt_overhead(&t, rank, threads, reps, smoke);
        if !ok {
            std::process::exit(1);
        }
    }
}
