//! Sample statistics behind every reported metric.
//!
//! Host contention on a small VM slows every sample taken during an
//! episode, by up to 2x, and episodes last from a second to tens of
//! seconds. A run therefore measures in rounds: a round's figure is the
//! median of its samples (which absorbs single slow samples), and the
//! run reports its fastest round, which follows the code more closely
//! than the share of the run the host was busy (the median or the lower
//! quartile of the rounds). Warm-up iterations are dropped,
//! and a tail percentile is printed only when enough samples lie beyond
//! it to make it more than the maximum.

use std::time::Instant;

/// Iterations at the start of each solve that run slower than steady
/// state (first-touch page faults, cold caches) and are excluded from
/// iteration statistics.
pub const WARMUP_ITERS: usize = 3;

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The median of `xs` (the mean of the middle pair for an even count),
/// or `None` when there are no samples.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 })
}

/// The fastest of the per-round figures `xs`, or `None` when there are
/// none. Contention only ever slows a round, so the fastest round is the
/// one the host disturbed least; on one thread it varied least from run
/// to run of any round statistic (see `README.md`, "Noise").
pub fn fastest(xs: &[f64]) -> Option<f64> {
    xs.iter().copied().reduce(f64::min)
}

/// The `q`-quantile of `xs` (nearest rank), refused (`None`) unless at
/// least [`MIN_BEYOND`] samples lie above it: a p90 of 12 samples would
/// just be their maximum.
pub fn percentile(xs: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..1.0).contains(&q), "quantile must lie in [0, 1)");
    let n = xs.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if n == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// What the probed backend saw, in call order.
#[derive(Clone, Copy, Debug)]
pub enum Mark {
    /// `begin_mode` for the first mode of the backend's `mode_order`: an
    /// exact iteration starts here.
    Begin(Instant),
    /// `reset`: the driver left the exact-sweep protocol (start of a run,
    /// return from pairwise-perturbation sweeps, or a recovery).
    Reset,
}

/// One entry per pair of consecutive [`Mark::Begin`]s, in order: the
/// seconds between them, or `None` when a [`Mark::Reset`] lies between,
/// because then the span covers approximate sweeps or a recovery rather
/// than exactly one iteration. The last iteration of a run has no closing
/// mark and so no entry.
pub fn iteration_times(marks: &[Mark]) -> Vec<Option<f64>> {
    let mut out = Vec::new();
    let mut open: Option<Instant> = None;
    let mut clean = true;
    for m in marks {
        match *m {
            Mark::Begin(t) => {
                if let Some(t0) = open {
                    out.push(clean.then(|| t.duration_since(t0).as_secs_f64()));
                }
                open = Some(t);
                clean = true;
            }
            Mark::Reset => clean = false,
        }
    }
    out
}

/// Steady-state iteration times: drops the first `warmup` entries of one
/// solve's [`iteration_times`] and every entry that was not a single
/// iteration.
pub fn steady_state(times: &[Option<f64>], warmup: usize) -> Vec<f64> {
    times.iter().skip(warmup).flatten().copied().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn setup_median_ignores_one_slow_repeat() {
        // Five repeated setups of one input, one hit by host contention.
        let setups = [0.204, 0.201, 0.512, 0.203, 0.202];
        assert_eq!(median(&setups), Some(0.203));
    }

    #[test]
    fn fastest_round_ignores_a_contended_stretch() {
        // Round medians of five setups each: half the rounds ran while the
        // host was busy, which moves the median but not the fastest round.
        let rounds = [
            median(&[0.121, 0.118, 0.119, 0.160, 0.117]).unwrap(),
            median(&[0.228, 0.231, 0.226, 0.233, 0.229]).unwrap(),
            median(&[0.190, 0.185, 0.193, 0.188, 0.191]).unwrap(),
            median(&[0.227, 0.222, 0.230, 0.225, 0.224]).unwrap(),
            median(&[0.116, 0.115, 0.140, 0.114, 0.117]).unwrap(),
            median(&[0.103, 0.104, 0.102, 0.105, 0.101]).unwrap(),
            median(&[0.221, 0.219, 0.224, 0.218, 0.220]).unwrap(),
            median(&[0.118, 0.117, 0.125, 0.116, 0.119]).unwrap(),
        ];
        assert_eq!(median(&rounds), Some(0.1545));
        assert_eq!(fastest(&rounds), Some(0.103));
        assert_eq!(fastest(&[0.3, 0.2]), Some(0.2));
        assert_eq!(fastest(&[]), None);
    }

    #[test]
    fn percentile_refuses_with_too_few_samples_beyond() {
        // 99 samples: only 9 lie above the p90 rank, so the "p90" would
        // be one of the top ten, nearly the max.
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.9), None);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.9), Some(90.0));
        // A median needs 20 samples under the same rule.
        assert_eq!(percentile(&xs[..19], 0.5), None);
        assert_eq!(percentile(&xs[..20], 0.5), Some(10.0));
    }

    #[test]
    fn percentile_never_returns_the_max_of_a_short_run() {
        let xs = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2];
        assert_eq!(percentile(&xs, 0.9), None);
    }

    fn marks(start: Instant, ms: &[Option<u64>]) -> Vec<Mark> {
        // `Some(t)`: a begin mark at t ms; `None`: a reset.
        ms.iter()
            .map(|m| match m {
                Some(t) => Mark::Begin(start + Duration::from_millis(*t)),
                None => Mark::Reset,
            })
            .collect()
    }

    #[test]
    fn iterations_run_between_first_mode_marks() {
        let t = Instant::now();
        let m = marks(t, &[None, Some(0), Some(120), Some(220), Some(310)]);
        let it = iteration_times(&m);
        assert_eq!(it.len(), 3);
        assert!((it[0].unwrap() - 0.120).abs() < 1e-9);
        assert!((it[1].unwrap() - 0.100).abs() < 1e-9);
        assert!((it[2].unwrap() - 0.090).abs() < 1e-9);
    }

    #[test]
    fn a_reset_between_marks_is_not_an_iteration() {
        // Exact, exact, then two PP sweeps (no marks), then a reset before
        // the next exact sweep.
        let t = Instant::now();
        let m = marks(t, &[Some(0), Some(100), Some(200), None, Some(500), Some(600)]);
        let it = iteration_times(&m);
        assert_eq!(it.len(), 4);
        assert!(it[2].is_none());
        assert!((it[3].unwrap() - 0.100).abs() < 1e-9);
    }

    #[test]
    fn warmup_iterations_are_excluded() {
        let times = [Some(0.121), Some(0.103), Some(0.094), Some(0.091), None, Some(0.092)];
        assert_eq!(steady_state(&times, WARMUP_ITERS), vec![0.091, 0.092]);
        assert!(steady_state(&times[..3], WARMUP_ITERS).is_empty());
    }
}
