//! Experiment harness utilities shared by the `e1_*` ... `e14_*` binaries
//! and the `calibrate` probe.
//!
//! Every `e*` binary in `src/bin/` regenerates one (reconstructed) table or
//! figure of the paper's evaluation and prints it as an aligned text
//! table plus machine-readable TSV. Common knobs:
//!
//! * `ADATM_SCALE` — scales dataset nnz (default `0.1`); `1.0` is the
//!   full-size run used for `EXPERIMENTS.md`;
//! * `ADATM_ITERS` — CP-ALS iterations per timing run (default 3);
//! * `ADATM_RANK` — decomposition rank (default 16);
//! * `RAYON_NUM_THREADS` — thread count (rayon's own knob).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use adatm_tensor::gen::{proxy_datasets, random_nd, DatasetSpec};
use adatm_tensor::SparseTensor;
use std::time::{Duration, Instant};

/// Reads a float knob from the environment. A set-but-malformed value
/// falls back to the default loudly (stderr warning): silently running
/// at the wrong scale because of a typo'd knob poisons every downstream
/// table.
pub fn env_f64(name: &str, default: f64) -> f64 {
    parse_env(name, std::env::var(name).ok().as_deref(), default)
}

/// Reads an integer knob from the environment (same loud-fallback
/// contract as [`env_f64`]).
pub fn env_usize(name: &str, default: usize) -> usize {
    parse_env(name, std::env::var(name).ok().as_deref(), default)
}

/// Shared parse-with-warning core of [`env_f64`]/[`env_usize`], over an
/// explicit value so tests need not mutate the process environment.
pub fn parse_env<T: std::str::FromStr + Copy>(name: &str, value: Option<&str>, default: T) -> T {
    match value {
        None => default,
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!(
                "adatm: warning: ignoring {name}='{v}' (not a valid \
                 {}); using default",
                std::any::type_name::<T>()
            );
            default
        }),
    }
}

/// Reads a boolean flag from the environment, accepting `1`/`true`/
/// `yes`/`on` (case-insensitive) as set and `0`/`false`/`no`/`off`/empty
/// as unset. Anything else warns and counts as unset, so
/// `ADATM_BENCH_SMOKE=maybe` never silently means a full run.
pub fn env_flag(name: &str) -> bool {
    flag_value(name, std::env::var(name).ok().as_deref())
}

/// Shared interpretation core of [`env_flag`], over an explicit value.
pub fn flag_value(name: &str, value: Option<&str>) -> bool {
    let Some(v) = value else { return false };
    match v.to_ascii_lowercase().as_str() {
        "1" | "true" | "yes" | "on" => true,
        "" | "0" | "false" | "no" | "off" => false,
        _ => {
            eprintln!(
                "adatm: warning: ignoring {name}='{v}' (expected one of \
                 1/true/yes/on or 0/false/no/off); treating as unset"
            );
            false
        }
    }
}

/// The dataset-size scale for this run.
pub fn scale() -> f64 {
    env_f64("ADATM_SCALE", 0.1)
}

/// CP-ALS iterations per timed run.
pub fn iters() -> usize {
    env_usize("ADATM_ITERS", 3)
}

/// Decomposition rank.
pub fn rank() -> usize {
    env_usize("ADATM_RANK", 16)
}

/// A materialized benchmark dataset.
pub struct Dataset {
    /// Table label.
    pub name: String,
    /// What it stands in for.
    pub proxy_for: String,
    /// The tensor.
    pub tensor: SparseTensor,
}

/// Materializes a spec.
pub fn materialize(spec: &DatasetSpec) -> Dataset {
    Dataset {
        name: spec.name.to_string(),
        proxy_for: spec.proxy_for.to_string(),
        tensor: spec.build(),
    }
}

/// The standard dataset suite: five real-data proxies plus uniform
/// random tensors of increasing order.
pub fn standard_suite(scale: f64) -> Vec<Dataset> {
    let mut specs = proxy_datasets(scale);
    for order in [4usize, 8, 16] {
        specs.push(random_nd(order, scale));
    }
    specs.iter().map(materialize).collect()
}

/// A smaller suite for the order sweep (E6).
pub fn order_sweep_suite(scale: f64, orders: &[usize]) -> Vec<Dataset> {
    orders.iter().map(|&o| materialize(&random_nd(o, scale))).collect()
}

/// Times `f` once, returning elapsed wall time.
pub fn time_once<F: FnOnce()>(f: F) -> Duration {
    let t0 = Instant::now();
    f();
    t0.elapsed()
}

/// Runs `f` `reps` times and returns the minimum elapsed time — the
/// standard noise-rejection choice for deterministic workloads.
pub fn time_best<F: FnMut()>(reps: usize, mut f: F) -> Duration {
    assert!(reps > 0);
    let mut best = Duration::MAX;
    for _ in 0..reps {
        best = best.min(time_once(&mut f));
    }
    best
}

/// Formats a duration in seconds with 4 significant decimals.
pub fn secs(d: Duration) -> String {
    format!("{:.4}", d.as_secs_f64())
}

/// Formats bytes in MiB.
pub fn mib(bytes: usize) -> String {
    format!("{:.1}", bytes as f64 / (1024.0 * 1024.0))
}

/// Formats bytes (as f64, for model predictions) in MiB.
pub fn mib_f(bytes: f64) -> String {
    format!("{:.1}", bytes / (1024.0 * 1024.0))
}

/// A minimal aligned-column table writer that also emits TSV.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table { headers: headers.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Appends a row (must match the header arity).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Prints the aligned table to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let parts: Vec<String> =
                cells.iter().zip(widths.iter()).map(|(c, w)| format!("{c:>w$}", w = w)).collect();
            println!("  {}", parts.join("  "));
        };
        line(&self.headers);
        println!("  {}", widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>().join("  "));
        for row in &self.rows {
            line(row);
        }
    }

    /// Prints the same content as TSV (for downstream plotting).
    pub fn print_tsv(&self) {
        println!("#TSV {}", self.headers.join("\t"));
        for row in &self.rows {
            println!("#TSV {}", row.join("\t"));
        }
    }
}

/// Runs `iters` CP-ALS iterations (no early stop) and returns the result
/// with phase timings populated.
pub fn run_cpals<B: adatm_core::MttkrpBackend + ?Sized>(
    tensor: &SparseTensor,
    backend: &mut B,
    rank: usize,
    iterations: usize,
) -> adatm_core::CpResult {
    let opts = adatm_core::CpAlsOptions::new(rank).max_iters(iterations).tol(0.0).seed(0);
    run_cpals_with(tensor, backend, opts)
}

/// Runs CP-ALS under `opts`. Harness inputs are well-formed, so a
/// rejection is a bug and panics.
pub fn run_cpals_with<B: adatm_core::MttkrpBackend + ?Sized>(
    tensor: &SparseTensor,
    backend: &mut B,
    opts: adatm_core::CpAlsOptions,
) -> adatm_core::CpResult {
    adatm_core::CpAls::new(opts)
        .run(tensor, backend)
        .unwrap_or_else(|e| panic!("benchmark CP-ALS run rejected its input: {e}"))
}

/// Average per-iteration wall time of a run (sum of measured phases).
pub fn per_iter(res: &adatm_core::CpResult) -> Duration {
    if res.iters == 0 {
        Duration::ZERO
    } else {
        res.timings.total() / res.iters as u32
    }
}

/// Runs `f` inside a rayon pool with exactly `threads` workers.
pub fn with_threads<T: Send>(threads: usize, f: impl FnOnce() -> T + Send) -> T {
    rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("thread pool").install(f)
}

/// Spearman rank correlation between two equal-length samples.
///
/// Used by the model-accuracy experiment: the planner only needs its
/// predictions to *rank* strategies correctly.
pub fn spearman(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "samples must have equal length");
    let n = a.len();
    if n < 2 {
        return 1.0;
    }
    let ranks = |xs: &[f64]| -> Vec<f64> {
        let mut order: Vec<usize> = (0..xs.len()).collect();
        order.sort_by(|&i, &j| xs[i].total_cmp(&xs[j]));
        let mut r = vec![0.0; xs.len()];
        let mut i = 0;
        while i < order.len() {
            let mut j = i;
            while j + 1 < order.len() && xs[order[j + 1]] == xs[order[i]] {
                j += 1;
            }
            let avg = (i + j) as f64 / 2.0;
            for &k in &order[i..=j] {
                r[k] = avg;
            }
            i = j + 1;
        }
        r
    };
    let (ra, rb) = (ranks(a), ranks(b));
    let mean = (n as f64 - 1.0) / 2.0;
    let (mut num, mut da, mut db) = (0.0, 0.0, 0.0);
    for (x, y) in ra.iter().zip(rb.iter()) {
        let (dx, dy) = (x - mean, y - mean);
        num += dx * dy;
        da += dx * dx;
        db += dy * dy;
    }
    if da == 0.0 || db == 0.0 {
        return 1.0;
    }
    num / (da * db).sqrt()
}

/// Prints a standard experiment banner.
pub fn banner(id: &str, what: &str) {
    println!("== {id}: {what}");
    println!(
        "   scale={} rank={} iters={} threads={}",
        scale(),
        rank(),
        iters(),
        rayon::current_num_threads()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_parsing_defaults() {
        assert_eq!(env_f64("ADATM_NO_SUCH_VAR_XYZ", 0.25), 0.25);
        assert_eq!(env_usize("ADATM_NO_SUCH_VAR_XYZ", 7), 7);
    }

    #[test]
    fn parse_env_accepts_valid_and_rejects_malformed_loudly() {
        assert_eq!(parse_env("K", Some("0.5"), 0.25), 0.5);
        assert_eq!(parse_env("K", Some("12"), 7usize), 12);
        // Malformed: falls back to the default (the warning goes to
        // stderr; the contract under test is the value).
        assert_eq!(parse_env("K", Some("fast"), 0.25), 0.25);
        assert_eq!(parse_env("K", Some("3.5"), 7usize), 7);
        assert_eq!(parse_env("K", None, 9usize), 9);
    }

    #[test]
    fn flag_value_accepts_common_truthy_and_falsy_spellings() {
        for v in ["1", "true", "TRUE", "yes", "Yes", "on"] {
            assert!(flag_value("F", Some(v)), "{v} should enable");
        }
        for v in ["", "0", "false", "no", "OFF"] {
            assert!(!flag_value("F", Some(v)), "{v} should disable");
        }
        assert!(!flag_value("F", None));
        // Unrecognized: warns, treated as unset.
        assert!(!flag_value("F", Some("maybe")));
    }

    #[test]
    fn standard_suite_builds_at_tiny_scale() {
        let suite = standard_suite(0.005);
        assert_eq!(suite.len(), 8);
        for d in &suite {
            assert!(d.tensor.nnz() > 0, "{}", d.name);
        }
    }

    #[test]
    fn table_round_trip() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["1".into(), "2".into()]);
        t.print();
        t.print_tsv();
    }

    #[test]
    fn time_best_is_positive() {
        let d = time_best(3, || {
            std::hint::black_box((0..1000).sum::<usize>());
        });
        assert!(d > Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["1".into()]);
    }

    #[test]
    fn spearman_perfect_and_inverse() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [10.0, 20.0, 30.0, 40.0];
        let c = [4.0, 3.0, 2.0, 1.0];
        assert!((spearman(&a, &b) - 1.0).abs() < 1e-12);
        assert!((spearman(&a, &c) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_handles_ties() {
        let a = [1.0, 1.0, 2.0, 3.0];
        let b = [5.0, 5.0, 6.0, 7.0];
        assert!((spearman(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn with_threads_constrains_pool() {
        let n = with_threads(2, rayon::current_num_threads);
        assert_eq!(n, 2);
    }

    #[test]
    fn run_cpals_reports_iterations() {
        let suite = standard_suite(0.002);
        let t = &suite[0].tensor;
        let mut b = adatm_core::CooBackend::new(t);
        let res = run_cpals(t, &mut b, 4, 2);
        assert_eq!(res.iters, 2);
        assert!(per_iter(&res) > Duration::ZERO);
    }
}
