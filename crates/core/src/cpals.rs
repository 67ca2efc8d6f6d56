//! The CP sweep driver: one loop for every CP method whose sweep is
//! "compute `M^(n)`, then update `U^(n)`".
//!
//! One iteration performs, for each mode `n` in the backend's order:
//!
//! 1. `backend.begin_mode(n)` (memoization invalidation),
//! 2. `M^(n) <- MTTKRP(X, factors, n)` via the backend,
//! 3. `H^(n) <- hadamard_{i != n} W^(i)` with `W^(i) = U^(i)^T U^(i)`
//!    cached and updated incrementally,
//! 4. the rule's update of `U^(n)` from `M^(n)` and `H^(n)`, in place,
//! 5. `W^(n) <- U^(n)^T U^(n)`, accumulated in the update's last pass.
//!
//! The update is the only rule-specific step, and the entry point fixes
//! the rule:
//!
//! * [`CpAls::new`] — **ALS**: `U^(n) <- M^(n) pinv(H^(n))` with ridge
//!   fallbacks, then column normalization into `lambda` (2-norm on the
//!   first iteration, max-norm afterwards — the standard practice that
//!   keeps factors well-scaled without re-shrinking converged columns);
//! * [`CpAls::ncp`] — **NCP**: the multiplicative update
//!   `U^(n) <- U^(n) .* M^(n) ./ (U^(n) H^(n) + eps)`, no normalization,
//!   `lambda = 1` (see [`mod@crate::ncp`]).
//!
//! The fit `1 - ||X - M|| / ||X||` is computed per iteration at
//! `O(I_N R + R²)` extra cost using the last subiteration's MTTKRP
//! result — no extra pass over the tensor.
//!
//! # Run state and phases
//!
//! A run is one `Run` value holding everything the loop carries from one
//! iteration to the next: factors, cached Grams, `lambda`, the fit
//! history and best fit, the last-good snapshot, the recovery counters,
//! the checkpoint context, the pairwise-perturbation controller, the
//! `R x R` work buffers and the drift accounting. Its phases, in order:
//!
//! * **start / resume** — `Run::new` builds fresh state for
//!   [`CpAls::run_from`]; `Run::restore` overwrites it from a checkpoint
//!   for [`CpAls::resume_from`];
//! * **PP decision** — `Run::pp_phase` picks an exact or a perturbative
//!   MTTKRP phase for the iteration;
//! * **mode update** — `Run::mode_update`: watchdog, MTTKRP into the one
//!   reusable buffer (sized for the tallest mode), the finiteness scan of
//!   `M^(n)`, the Hadamard system, then the rule's solve and normalize.
//!   Those run the fused kernels of [`adatm_linalg::update`], which write
//!   `U^(n)`, `W^(n)` and `lambda` in place in at most two row passes —
//!   no factor-sized allocation, bit-for-bit the result of the chained
//!   `matmul` / `normalize_cols` / `gram` kernels. A detector firing after
//!   the write goes through `Run::breakdown`, which restores or reseeds
//!   every factor and Gram, so the half-written state never survives;
//! * **breakdown** — `Run::breakdown`, the one rollback path every
//!   mode-local detector takes;
//! * **fit** — `Run::iteration` measures the fit (one row pass for the
//!   `R` inner products) and runs the divergence, stall and convergence
//!   checks; a new best fit refreshes the last-good snapshot by copying
//!   into its buffers;
//! * **checkpoint** — `Run::write_checkpoint`, on the configured cadence;
//! * **finish** — `Run::finish`: final watchdog checkpoint, drift check,
//!   and the [`CpResult`].
//!
//! # Resilience
//!
//! The driver never panics, spins, or returns a NaN-poisoned model on
//! hostile input. Malformed caller input is rejected up front with a
//! typed [`CpAlsError`]; numeric breakdowns mid-run are detected after
//! every mode update and repaired by an escalating sequence of recovery
//! policies:
//!
//! 1. **Tikhonov ridge re-solve** (ALS only) when the Gram system is
//!    numerically singular (condition estimate from the Jacobi
//!    eigenvalues the pseudoinverse already computed) or the dense solve
//!    fails;
//! 2. **rollback** to the last-good factor set plus seeded
//!    re-randomization of the offending factor, with all memoized
//!    backend intermediates invalidated (a NaN that reached a
//!    dimension-tree node would otherwise poison every later MTTKRP);
//! 3. **graceful degradation** once the rollback budget is exhausted:
//!    the best-so-far model is returned with `converged = false` and a
//!    diagnostic explaining why.
//!
//! An optional wall-clock budget ([`CpAlsOptions::time_budget`]) is
//! checked at every mode boundary so callers serving traffic get
//! best-so-far results instead of unbounded runs. Everything a detector
//! saw and every recovery taken is recorded in
//! [`CpResult::diagnostics`].

use crate::backend::MttkrpBackend;
use crate::checkpoint::{
    CheckpointConfig, CheckpointError, CheckpointStore, CheckpointView, CpCheckpoint,
};
use crate::diagnostics::{
    BreakdownEvent, BreakdownKind, RecoveryAction, RunDiagnostics, StopReason,
};
use crate::error::CpAlsError;
use crate::init::{init_factors, InitStrategy};
use crate::model::CpModel;
use crate::ncp;
use adatm_dtree::PpState;
use adatm_linalg::pinv::{ridge_inv_gram, try_pinv_gram};
use adatm_linalg::update::{self, ColNorm};
use adatm_linalg::Mat;
use adatm_tensor::SparseTensor;
use std::time::{Duration, Instant};

/// Audit hook: panics when `v` violates its invariants, naming the CP-ALS
/// stage boundary where the corruption was detected.
#[cfg(feature = "audit")]
fn audit_stage(stage: &str, v: &dyn adatm_audit::Validate) {
    if let Err(e) = v.validate() {
        panic!("audit: {stage}: {e}");
    }
}

/// Condition-estimate threshold above which a Gram system is treated as
/// degenerate and re-solved with a ridge.
const COND_LIMIT: f64 = 1e12;

/// Relative ridge applied to a degenerate Gram system (scaled by the
/// largest eigenvalue magnitude, floored at `RIDGE_FLOOR`).
const RIDGE_REL: f64 = 1e-8;

/// Absolute floor for the Tikhonov ridge.
const RIDGE_FLOOR: f64 = 1e-12;

/// Absolute fit drop between consecutive iterations treated as
/// divergence. Healthy ALS sweeps are monotone to rounding; a drop this
/// large means the trajectory has been corrupted.
const DIVERGENCE_DROP: f64 = 0.25;

/// Iterations of fit change below `STALL_EPS` before a stall event is
/// recorded (detection only — with `tol = 0` the caller asked for every
/// iteration to run).
const STALL_WINDOW: usize = 8;

/// Fit-change threshold for stall detection.
const STALL_EPS: f64 = 1e-13;

/// Configuration for pairwise-perturbation (PP) approximate sweeps
/// ([`CpAlsOptions::pp`]).
///
/// Near convergence the driver snapshots the dimension-tree pair
/// intermediates at an exact sweep ([`adatm_dtree::PpState`]) and then
/// reconstructs each mode's MTTKRP perturbatively — no tensor traversal —
/// until a forced exact sweep re-anchors the trajectory. Entry, cadence,
/// and invalidation are the driver's responsibility:
///
/// * **enter** when the relative factor movement of a clean exact
///   iteration falls below [`PpConfig::tol`];
/// * **force an exact sweep** every [`PpConfig::every`] iterations
///   (keyed on the absolute iteration number so resumed runs agree), and
///   re-capture the baseline there if the factors drifted past `tol`;
/// * **exit** whenever any breakdown detector fires (ridge re-solve,
///   rollback, divergence — recoveries restore state the memoized
///   baseline no longer describes) and on every durable-checkpoint
///   write, so a run resumed from that checkpoint — which must rebuild
///   exact intermediates — stays bitwise-identical to the uninterrupted
///   one.
#[derive(Clone, Debug)]
pub struct PpConfig {
    /// Relative factor-delta norm below which approximate sweeps are
    /// entered (checked at the end of each clean exact iteration).
    pub tol: f64,
    /// Force an exact sweep on every iteration whose absolute index is a
    /// multiple of this cadence (`0` disables the cadence; `1` keeps
    /// every sweep exact, i.e. disables PP).
    pub every: usize,
    /// Per-column-block correction-skip threshold passed to
    /// [`adatm_dtree::PpState::set_skip_tol`]: blocks whose factor delta
    /// is below `skip_tol` times the baseline block norm are skipped.
    pub skip_tol: f64,
}

impl PpConfig {
    /// Defaults: enter below 2% relative factor movement, exact sweep
    /// every 5 iterations, skip correction blocks below 0.5% relative
    /// delta.
    pub fn new() -> Self {
        PpConfig { tol: 0.02, every: 5, skip_tol: 0.005 }
    }

    /// Sets the entry threshold on relative factor movement.
    pub fn tol(mut self, tol: f64) -> Self {
        self.tol = tol;
        self
    }

    /// Sets the forced-exact-sweep cadence (0 disables, 1 disables PP).
    pub fn every(mut self, every: usize) -> Self {
        self.every = every;
        self
    }

    /// Sets the per-block correction-skip threshold.
    pub fn skip_tol(mut self, tol: f64) -> Self {
        self.skip_tol = tol;
        self
    }
}

impl Default for PpConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// Options for a CP run. The same options drive ALS ([`CpAls::new`]) and
/// NCP ([`CpAls::ncp`]); the entry point, not an option, fixes the rule.
#[derive(Clone, Debug)]
pub struct CpAlsOptions {
    /// Decomposition rank `R`.
    pub rank: usize,
    /// Maximum number of outer iterations.
    pub max_iters: usize,
    /// Convergence tolerance on the change in fit between iterations.
    pub tol: f64,
    /// Seed for the random factor initialization.
    pub seed: u64,
    /// Factor initialization strategy.
    pub init: InitStrategy,
    /// Optional wall-clock budget, checked at mode boundaries; on expiry
    /// the best-so-far model is returned with
    /// [`StopReason::TimeBudget`].
    pub time_budget: Option<Duration>,
    /// Maximum number of rollback recoveries before the run degrades
    /// gracefully (ridge re-solves are not counted — they are cheap,
    /// deterministic repairs that cannot loop).
    pub recovery_budget: usize,
    /// Drift threshold: when the backend supplies a calibrated
    /// per-iteration prediction and the measured kernel time per
    /// iteration exceeds `prediction * drift_factor`, a
    /// [`BreakdownKind::PredictionDrift`] diagnostic (and a
    /// `drift.warning` trace event) is emitted. `0.0` disables the
    /// check.
    pub drift_factor: f64,
    /// Optional durable-checkpoint config: when set, the driver writes a
    /// rotated, checksummed checkpoint at iteration boundaries on the
    /// configured cadence (and a final one on `TimeBudget` expiry), from
    /// which [`CpAls::resume_from`] continues bitwise-identically.
    pub checkpoint: Option<CheckpointConfig>,
    /// Optional pairwise-perturbation sweep config: when set, the driver
    /// replaces exact MTTKRP sweeps with memoized perturbative updates
    /// once the factors stop moving (see [`PpConfig`]).
    pub pp: Option<PpConfig>,
}

impl CpAlsOptions {
    /// Defaults: 50 iterations, tolerance `1e-5`, seed 0, random init, no
    /// time budget, 8 rollback recoveries.
    ///
    /// A rank of 0 is rejected with [`CpAlsError::ZeroRank`] when the
    /// solver runs.
    pub fn new(rank: usize) -> Self {
        CpAlsOptions {
            rank,
            max_iters: 50,
            tol: 1e-5,
            seed: 0,
            init: InitStrategy::Random,
            time_budget: None,
            recovery_budget: 8,
            drift_factor: 2.0,
            checkpoint: None,
            pp: None,
        }
    }

    /// Sets the iteration cap.
    pub fn max_iters(mut self, iters: usize) -> Self {
        self.max_iters = iters;
        self
    }

    /// Sets the fit-change convergence tolerance (0 disables early stop).
    pub fn tol(mut self, tol: f64) -> Self {
        self.tol = tol;
        self
    }

    /// Sets the initialization seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the initialization strategy.
    pub fn init(mut self, init: InitStrategy) -> Self {
        self.init = init;
        self
    }

    /// Sets the wall-clock budget (the watchdog checked at mode
    /// boundaries).
    pub fn time_budget(mut self, budget: Duration) -> Self {
        self.time_budget = Some(budget);
        self
    }

    /// Sets the rollback recovery budget.
    pub fn recovery_budget(mut self, budget: usize) -> Self {
        self.recovery_budget = budget;
        self
    }

    /// Sets the prediction-drift warning threshold (`0.0` disables).
    pub fn drift_factor(mut self, factor: f64) -> Self {
        self.drift_factor = factor;
        self
    }

    /// Enables durable checkpointing with the given config.
    pub fn checkpoint(mut self, cfg: CheckpointConfig) -> Self {
        self.checkpoint = Some(cfg);
        self
    }

    /// Enables pairwise-perturbation approximate sweeps with the given
    /// config.
    pub fn pp(mut self, cfg: PpConfig) -> Self {
        self.pp = Some(cfg);
        self
    }
}

/// Wall-clock dissection of a run (experiment E10).
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTimings {
    /// Time in backend MTTKRP calls.
    pub mttkrp: Duration,
    /// Time in dense work: Grams, Hadamards, pseudoinverse solves,
    /// normalization.
    pub dense: Duration,
    /// Time computing the fit.
    pub fit: Duration,
    /// Time serializing and persisting checkpoints (zero when
    /// checkpointing is disabled). The bench suite gates this phase's
    /// overhead relative to the rest of the iteration.
    pub checkpoint: Duration,
}

impl PhaseTimings {
    /// Total measured time.
    pub fn total(&self) -> Duration {
        self.mttkrp + self.dense + self.fit + self.checkpoint
    }
}

/// Result of a CP run (ALS or NCP).
#[derive(Clone, Debug)]
pub struct CpResult {
    /// The decomposition.
    pub model: CpModel,
    /// Number of completed iterations.
    pub iters: usize,
    /// Fit after each iteration.
    pub fit_history: Vec<f64>,
    /// Whether the tolerance stop fired (vs. hitting `max_iters`).
    pub converged: bool,
    /// Phase timings over the whole run.
    pub timings: PhaseTimings,
    /// Breakdown events, recoveries taken, and the stop reason.
    pub diagnostics: RunDiagnostics,
    /// The final cached Gram matrices, exposed in fault-injection builds
    /// so the recovery tests can assert Gram/factor consistency after a
    /// degrade (every `grams[d]` must equal `factors[d].gram()`
    /// bitwise).
    #[cfg(feature = "fault-inject")]
    pub grams: Vec<Mat>,
}

impl CpResult {
    /// Fit after the final iteration (0 if no iterations ran).
    pub fn final_fit(&self) -> f64 {
        self.fit_history.last().copied().unwrap_or(0.0)
    }

    /// A compact human-readable run summary: iterations, stop reason,
    /// fit, phase timings, recoveries, and — when the backend supplied a
    /// calibrated prediction — predicted vs measured per-iteration time.
    pub fn trace_summary(&self) -> String {
        let mut s = format!(
            "iters={} stop={:?} fit={:.6} converged={} mttkrp={:.3}ms dense={:.3}ms fit_time={:.3}ms events={} recoveries={}",
            self.iters,
            self.diagnostics.stop,
            self.final_fit(),
            self.converged,
            self.timings.mttkrp.as_secs_f64() * 1e3,
            self.timings.dense.as_secs_f64() * 1e3,
            self.timings.fit.as_secs_f64() * 1e3,
            self.diagnostics.events.len(),
            self.diagnostics.recoveries,
        );
        if let (Some(pred), Some(meas)) =
            (self.diagnostics.predicted_iter_ns, self.diagnostics.measured_iter_ns)
        {
            s.push_str(&format!(
                " predicted_iter={:.0}ns measured_iter={:.0}ns ratio={:.2}",
                pred,
                meas,
                if pred > 0.0 { meas / pred } else { f64::NAN }
            ));
        }
        s
    }
}

/// The per-mode update rule: the one step of a sweep that differs
/// between the CP methods this driver runs. Everything rule-specific —
/// initialization, input check, update — sits behind it, so the loop
/// never matches on it. Checkpoints record it, and a run resumes only
/// under the rule that wrote them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdateRule {
    /// Normal-equation solve with ridge fallbacks, then column
    /// normalization into `lambda`.
    Als,
    /// Multiplicative update; factors stay unnormalized and `lambda = 1`.
    Ncp,
}

impl UpdateRule {
    /// The rule's name in traces (the `rule` field of `cpals.run`) and
    /// in checkpoint mismatch errors.
    pub fn name(self) -> &'static str {
        match self {
            UpdateRule::Als => "als",
            UpdateRule::Ncp => "ncp",
        }
    }

    /// Initial factors for [`CpAls::run`]. NCP keeps its own nonnegative
    /// seeds for the random init; any other strategy is shared (and may
    /// produce signed factors, which NCP's input check then rejects).
    fn init(self, tensor: &SparseTensor, opts: &CpAlsOptions) -> Vec<Mat> {
        match (self, opts.init) {
            (UpdateRule::Ncp, InitStrategy::Random) => {
                ncp::init_factors(tensor, opts.rank, opts.seed)
            }
            _ => init_factors(tensor, opts.rank, opts.seed, opts.init),
        }
    }

    /// The rule's own input requirements, checked after the shared ones.
    fn check_input(self, tensor: &SparseTensor, factors: &[Mat]) -> Result<(), CpAlsError> {
        match self {
            UpdateRule::Als => Ok(()),
            UpdateRule::Ncp => ncp::check_input(tensor, factors),
        }
    }

    /// Writes the new factor for `mode` over `out.u` in place, from its
    /// MTTKRP `m` and the Hadamard-of-Grams system `h`. ALS leaves it
    /// unnormalized with its column norms in `out.lambda`; NCP finishes
    /// the update and its Gram. Returns whether every entry the rule
    /// finished is finite; `Err` names a breakdown the rule could not
    /// repair in place.
    fn solve(
        self,
        m: &Mat,
        h: &Mat,
        out: &mut ModeOut<'_>,
        iter: usize,
        mode: usize,
        diag: &mut RunDiagnostics,
    ) -> Result<bool, BreakdownKind> {
        match self {
            UpdateRule::Als => als_solve(m, h, out, iter, mode, diag).map(|()| true),
            UpdateRule::Ncp => Ok(update::ncp_into(out.u, m, h, ncp::MU_EPS, out.gram, out.row)),
        }
    }

    /// Finishes a solved factor and its Gram. ALS moves its column norms
    /// into `lambda` (2-norm on the first iteration, max-norm afterwards)
    /// and re-seeds collapsed columns; NCP keeps the scale in the factor
    /// and leaves `lambda` at one. Returns whether every entry it wrote is
    /// finite.
    fn normalize(
        self,
        out: &mut ModeOut<'_>,
        iter: usize,
        mode: usize,
        seed: u64,
        diag: &mut RunDiagnostics,
    ) -> bool {
        if self == UpdateRule::Ncp {
            return true;
        }
        let mut finite = update::normalize_gram(out.u, out.lambda, out.gram);
        // Guard: a zero column (rank deficiency) would poison the model;
        // re-seed it with noise so ALS can recover.
        let u = &mut *out.u;
        let mut reseeded = 0;
        for (r, &l) in out.lambda.iter().enumerate() {
            if l == 0.0 {
                let noise = Mat::random(u.nrows(), 1, seed ^ 0xdead ^ r as u64);
                for i in 0..u.nrows() {
                    u.set(i, r, noise.get(i, 0));
                }
                reseeded += 1;
            }
        }
        if reseeded > 0 {
            // The noise replaced whatever the zero scale left in those
            // columns (a NaN times zero included).
            finite = finite || u.is_finite();
            *out.gram = u.gram();
            diag.record(BreakdownEvent {
                iter,
                mode: Some(mode),
                kind: BreakdownKind::ZeroColumns,
                recovery: RecoveryAction::ReseedColumns { reseeded_cols: reseeded },
                recovery_time: Duration::ZERO,
            });
        }
        finite
    }
}

/// What one mode update writes, in place: the factor, its cached Gram,
/// and `lambda`; and an `R`-length work row (NCP's `U H` row).
struct ModeOut<'a> {
    u: &'a mut Mat,
    gram: &'a mut Mat,
    lambda: &'a mut [f64],
    row: &'a mut [f64],
}

/// ALS solve, pass A of the fused update: `U = M pinv(H)` into `out.u`
/// with the column norms in `out.lambda`. A degenerate system or a failed
/// pseudoinverse is re-solved with a Tikhonov ridge instead; `Err` only
/// when even the ridge inverse fails.
fn als_solve(
    m: &Mat,
    h: &Mat,
    out: &mut ModeOut<'_>,
    iter: usize,
    mode: usize,
    diag: &mut RunDiagnostics,
) -> Result<(), BreakdownKind> {
    let inverse = match try_pinv_gram(h) {
        Ok((pinv, info)) if info.rank_deficient() || info.cond() > COND_LIMIT => {
            // Detector: degenerate Gram system, condition estimate read
            // straight off the Jacobi eigenvalues the pseudoinverse
            // computed. Recovery: Tikhonov ridge re-solve.
            let rt = Instant::now();
            let ridge = (info.max_abs_eig * RIDGE_REL).max(RIDGE_FLOOR);
            let repaired = ridge_inv_gram(h, ridge).ok();
            diag.record(BreakdownEvent {
                iter,
                mode: Some(mode),
                kind: BreakdownKind::SingularGram,
                recovery: match repaired {
                    Some(_) => RecoveryAction::RidgeResolve { ridge },
                    None => RecoveryAction::None,
                },
                recovery_time: rt.elapsed(),
            });
            repaired.unwrap_or(pinv)
        }
        Ok((pinv, _)) => pinv,
        Err(_) => {
            // Detector: the dense solve itself failed. Recovery: ridge
            // re-solve; if even that fails, the caller rolls back.
            let rt = Instant::now();
            let scale = (0..h.nrows()).map(|r| h.get(r, r).abs()).fold(0.0_f64, f64::max);
            let ridge = (scale * RIDGE_REL).max(RIDGE_FLOOR);
            let inverse = ridge_inv_gram(h, ridge).map_err(|_| BreakdownKind::SolveFailed)?;
            diag.record(BreakdownEvent {
                iter,
                mode: Some(mode),
                kind: BreakdownKind::SolveFailed,
                recovery: RecoveryAction::RidgeResolve { ridge },
                recovery_time: rt.elapsed(),
            });
            inverse
        }
    };
    let norm = if iter == 0 { ColNorm::Two } else { ColNorm::Max };
    update::solve_into(m, &inverse, norm, out.u, out.lambda);
    Ok(())
}

/// Last-known-good solver state for rollback recoveries.
#[derive(Default)]
struct Snapshot {
    factors: Vec<Mat>,
    grams: Vec<Mat>,
    lambda: Vec<f64>,
}

/// Live checkpointing state for one run: the open store plus cadence
/// tracking.
struct CkptCtx {
    store: CheckpointStore,
    every_iters: usize, // 0: no iteration-count cadence
    every: Option<Duration>,
    last_write: Instant,
}

impl CkptCtx {
    /// Opens the configured store. Failing to open it is a hard, typed
    /// error at run start — a caller that asked for durability should
    /// not silently run without it.
    fn open(cfg: &CheckpointConfig) -> Result<Self, CpAlsError> {
        let store = cfg.build_store().map_err(CpAlsError::Checkpoint)?;
        let every_iters = match (cfg.every_iters, cfg.every) {
            // No cadence configured at all: checkpoint every iteration.
            (None, None) => 1,
            (n, _) => n.unwrap_or(0),
        };
        Ok(CkptCtx { store, every_iters, every: cfg.every, last_write: Instant::now() })
    }

    /// Whether a checkpoint is due after completing `iter` (0-based).
    /// The iteration count is absolute, so a resumed run writes at the
    /// same boundaries the uninterrupted one would.
    fn due(&self, iter: usize) -> bool {
        (self.every_iters > 0 && (iter + 1).is_multiple_of(self.every_iters))
            || self.every.is_some_and(|dt| self.last_write.elapsed() >= dt)
    }
}

/// Relative factor movement between two factor sets:
/// `sqrt(sum_n ||cur^(n) - prev^(n)||^2 / sum_n ||cur^(n)||^2)`.
fn rel_factor_delta(prev: &[Mat], cur: &[Mat]) -> f64 {
    let mut dn = 0.0;
    let mut cn = 0.0;
    for (p, c) in prev.iter().zip(cur) {
        for (&a, &b) in p.as_slice().iter().zip(c.as_slice()) {
            let d = b - a;
            dn += d * d;
            cn += b * b;
        }
    }
    if cn > 0.0 {
        (dn / cn).sqrt()
    } else {
        0.0
    }
}

/// Pairwise-perturbation controller state for one run. The numeric
/// machinery lives in [`adatm_dtree::PpState`]; this owns the policy:
/// when to trust the memoized baseline and when to force exact sweeps.
#[derive(Default)]
struct PpCtl {
    cfg: PpConfig,
    /// Built lazily at the first entry (the symbolic pair analysis and
    /// memo buffers are only worth paying for once PP actually arms).
    state: Option<PpState>,
    /// Factors at the end of the previous completed iteration, for the
    /// entry threshold on relative movement.
    prev: Vec<Mat>,
    have_prev: bool,
    /// Whether approximate sweeps are currently enabled.
    armed: bool,
    /// `diag.events.len()` when the baseline was captured: any growth
    /// means a detector fired and the baseline no longer describes the
    /// live state.
    baseline_events: usize,
    /// Whether the previous iteration's MTTKRP phase was approximate
    /// (the backend's memoized intermediates are then stale).
    last_sweep_pp: bool,
    /// Per-mode PP sweep outputs.
    outs: Vec<Mat>,
    // Sweep-phase timing split, surfaced through RunDiagnostics.
    exact_ns: u128,
    exact_sweeps: u64,
    pp_ns: u128,
    pp_sweeps: u64,
    refreshes: u64,
}

impl PpCtl {
    fn new(cfg: PpConfig) -> Self {
        PpCtl { cfg, ..PpCtl::default() }
    }

    /// Leaves approximate mode (no-op when not armed): the baseline is
    /// marked stale and a `pp.exit` trace event records why.
    fn disarm(&mut self, iter: usize, reason: &'static str) {
        if !self.armed {
            return;
        }
        self.armed = false;
        if let Some(st) = self.state.as_mut() {
            st.invalidate();
        }
        adatm_trace::event!("pp.exit", iter: iter as u64, reason: reason);
    }

    /// Copies the sweep counters and per-sweep averages into `diag`.
    fn report(&self, diag: &mut RunDiagnostics) {
        diag.pp_sweeps = self.pp_sweeps;
        diag.pp_refreshes = self.refreshes;
        if self.pp_sweeps > 0 {
            diag.pp_sweep_ns = Some(self.pp_ns as f64 / self.pp_sweeps as f64);
        }
        if self.exact_sweeps > 0 {
            diag.exact_sweep_ns = Some(self.exact_ns as f64 / self.exact_sweeps as f64);
        }
    }
}

/// The CP sweep solver: CP-ALS ([`CpAls::new`]) or nonnegative CP
/// ([`CpAls::ncp`]) over any MTTKRP backend.
#[derive(Clone, Debug)]
pub struct CpAls {
    opts: CpAlsOptions,
    rule: UpdateRule,
}

impl CpAls {
    /// Creates a CP-ALS solver with the given options.
    pub fn new(opts: CpAlsOptions) -> Self {
        CpAls { opts, rule: UpdateRule::Als }
    }

    /// Creates a nonnegative-CP solver (multiplicative updates, see
    /// [`mod@crate::ncp`]) with the given options. The tensor must be
    /// nonnegative, and so must the initial factors; the default random
    /// init is.
    pub fn ncp(opts: CpAlsOptions) -> Self {
        CpAls { opts, rule: UpdateRule::Ncp }
    }

    /// Runs the solver on `tensor` with `backend`, starting from a seeded
    /// random initialization.
    ///
    /// Returns [`CpAlsError`] for malformed input (zero rank, too few
    /// modes, non-finite tensor values, negative input under NCP);
    /// numeric breakdowns during the run are recovered or degrade
    /// gracefully and are reported in [`CpResult::diagnostics`] instead.
    pub fn run<B: MttkrpBackend + ?Sized>(
        &self,
        tensor: &SparseTensor,
        backend: &mut B,
    ) -> Result<CpResult, CpAlsError> {
        let factors = self.rule.init(tensor, &self.opts);
        self.run_from(tensor, backend, factors)
    }

    /// Runs the solver from explicit initial factors (each `I_n x R`).
    ///
    /// Factor-shape mismatches and non-finite initial factors (and, under
    /// NCP, signed ones) are rejected with a typed error; this entry
    /// point never panics on caller input.
    pub fn run_from<B: MttkrpBackend + ?Sized>(
        &self,
        tensor: &SparseTensor,
        backend: &mut B,
        factors: Vec<Mat>,
    ) -> Result<CpResult, CpAlsError> {
        self.check_input(tensor, &factors)?;
        Ok(Run::new(self, tensor, backend, factors)?.drive())
    }

    /// Resumes a run from a durable checkpoint (see
    /// [`CheckpointStore::load_latest`]), continuing **bitwise-identically**
    /// to an uninterrupted run with the same options and rule: the
    /// restored fit history keeps the stall/divergence detectors from
    /// mistriggering, and the restored recovery counters keep every
    /// reseed RNG stream aligned. Gram matrices are recomputed from the
    /// restored factors (they are bitwise-pure functions of them).
    ///
    /// The checkpoint must match this solver's update rule, `tensor`
    /// (mode dimensions), the configured rank, and the configured seed;
    /// disagreements return a typed [`CpAlsError::Checkpoint`] with
    /// [`CheckpointError::Mismatch`] inside.
    pub fn resume_from<B: MttkrpBackend + ?Sized>(
        &self,
        tensor: &SparseTensor,
        backend: &mut B,
        mut ckpt: CpCheckpoint,
    ) -> Result<CpResult, CpAlsError> {
        self.check_checkpoint(tensor, &ckpt)?;
        self.check_input(tensor, &ckpt.factors)?;
        let mut run = Run::new(self, tensor, backend, std::mem::take(&mut ckpt.factors))?;
        run.restore(ckpt);
        Ok(run.drive())
    }

    /// Caller-input validation shared by every entry point: the drivers'
    /// `error::check_input` (rank, mode count, tensor finiteness), then
    /// factor count, shapes and finiteness, then the rule's own
    /// requirements.
    fn check_input(&self, tensor: &SparseTensor, factors: &[Mat]) -> Result<(), CpAlsError> {
        let (n, rank) = (tensor.ndim(), self.opts.rank);
        crate::error::check_input(tensor, rank)?;
        if factors.len() != n {
            return Err(CpAlsError::FactorCountMismatch { expected: n, found: factors.len() });
        }
        for (d, f) in factors.iter().enumerate() {
            if f.nrows() != tensor.dims()[d] || f.ncols() != rank {
                return Err(CpAlsError::FactorShapeMismatch {
                    mode: d,
                    expected: (tensor.dims()[d], rank),
                    found: (f.nrows(), f.ncols()),
                });
            }
            if !f.is_finite() {
                return Err(CpAlsError::NonFiniteInit { mode: d });
            }
        }
        self.rule.check_input(tensor, factors)?;
        #[cfg(feature = "audit")]
        audit_stage("cp-als input tensor", tensor);
        Ok(())
    }

    /// Checks that `ck` belongs to this run — update rule, rank, mode
    /// shapes, seed — and is internally consistent. Disagreements are
    /// typed [`CheckpointError::Mismatch`]es.
    fn check_checkpoint(&self, tensor: &SparseTensor, ck: &CpCheckpoint) -> Result<(), CpAlsError> {
        let (n, rank) = (tensor.ndim(), self.opts.rank);
        let mismatch =
            |what: String| Err(CpAlsError::Checkpoint(CheckpointError::Mismatch { what }));
        if ck.rule != self.rule {
            return mismatch(format!(
                "checkpoint was written by the {} update rule, this run uses {}",
                ck.rule.name(),
                self.rule.name()
            ));
        }
        if ck.rank() != rank {
            return mismatch(format!("checkpoint rank {} vs requested rank {rank}", ck.rank()));
        }
        if ck.factors.len() != n {
            return mismatch(format!("checkpoint has {} modes, tensor has {n}", ck.factors.len()));
        }
        for (d, f) in ck.factors.iter().enumerate() {
            if f.nrows() != tensor.dims()[d] || f.ncols() != rank {
                return mismatch(format!(
                    "factor {d} is {} x {}, tensor/rank require {} x {rank}",
                    f.nrows(),
                    f.ncols(),
                    tensor.dims()[d]
                ));
            }
        }
        if ck.seed != self.opts.seed {
            return mismatch(format!(
                "checkpoint seed {} vs options seed {} — resume with the original seed \
                 for a bitwise-identical trajectory",
                ck.seed, self.opts.seed
            ));
        }
        // Rolled-back iterations consume an iteration index without
        // recording a fit, so the history may be shorter than the
        // counter — but never longer.
        if ck.fit_history.len() > ck.next_iter {
            return mismatch(format!(
                "fit history has {} entries but the iteration counter is only {}",
                ck.fit_history.len(),
                ck.next_iter
            ));
        }
        if let Some((l, fs)) = &ck.last_good {
            let shape_ok = l.len() == rank
                && fs.len() == n
                && fs.iter().zip(tensor.dims()).all(|(m, &d)| m.nrows() == d && m.ncols() == rank);
            if !shape_ok {
                return mismatch("last-good snapshot shape mismatch".to_string());
            }
            if !fs.iter().all(Mat::is_finite) || !l.iter().all(|v| v.is_finite()) {
                return mismatch("last-good snapshot is non-finite".to_string());
            }
        }
        Ok(())
    }
}

/// What a phase tells the loop to do next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Flow {
    /// Carry on with the next mode or iteration.
    Next,
    /// A recovery consumed this iteration slot: restart the sweep from
    /// the repaired state at the next iteration.
    Retry,
    /// Stop the run (watchdog, degradation, divergence, convergence).
    Stop,
}

/// The state of one run: everything the loop carries from one iteration
/// to the next, advanced by the phase methods below (see the module
/// docs for their order).
struct Run<'a, B: MttkrpBackend + ?Sized> {
    opts: &'a CpAlsOptions,
    rule: UpdateRule,
    tensor: &'a SparseTensor,
    backend: &'a mut B,
    factors: Vec<Mat>,
    /// Cached Gram matrices `W^(d) = U^(d)^T U^(d)`.
    grams: Vec<Mat>,
    lambda: Vec<f64>,
    /// Completed iterations: the absolute index of the last completed
    /// iteration plus one (rolled-back iterations do not count).
    iters: usize,
    fit_history: Vec<f64>,
    best_fit: f64,
    last_good: Option<Snapshot>,
    rollbacks_left: usize,
    stall_recorded: bool,
    converged: bool,
    diag: RunDiagnostics,
    timings: PhaseTimings,
    start: Instant,
    /// Wall-clock spent before a resume (carried into checkpoints).
    elapsed_base_ns: u64,
    // Checkpointing is pure observation of the loop state: enabling it
    // must not perturb the trajectory (the kill-and-resume tests assert
    // bitwise identity against checkpoint-free runs). The one sanctioned
    // interaction is with the PP controller: a checkpoint write disarms
    // it, keyed on the absolute iteration number, so a resumed run
    // (which restores exact state and must rebuild any memo baseline)
    // makes the same arm/sweep decisions at the same iterations as the
    // uninterrupted one.
    ckpt: Option<CkptCtx>,
    pp: Option<PpCtl>,
    xnorm2: f64,
    /// Reusable MTTKRP output buffer, allocated for the tallest mode and
    /// reshaped within that capacity for each mode.
    m_buf: Mat,
    // Reusable work buffers: the R x R Hadamard-of-Grams system and fit
    // Gram, and an R-length row: the fit's column dots, and NCP's `U H`
    // row during a mode update. Allocated once; with the factors updated
    // in place, a steady-state iteration allocates nothing of factor size.
    h_buf: Mat,
    g_buf: Mat,
    dots: Vec<f64>,
    // Drift accounting: only iterations that completed without any
    // detector firing — and whose MTTKRP phase was an exact sweep —
    // measure what the cost model priced.
    clean_kernel_ns: u128,
    clean_iters: u64,
}

impl<'a, B: MttkrpBackend + ?Sized> Run<'a, B> {
    /// Start: fresh state around validated initial factors, with the
    /// backend reset and the checkpoint store (if any) opened.
    fn new(
        solver: &'a CpAls,
        tensor: &'a SparseTensor,
        backend: &'a mut B,
        factors: Vec<Mat>,
    ) -> Result<Self, CpAlsError> {
        let opts = &solver.opts;
        let rank = opts.rank;
        backend.reset();
        let start = Instant::now();
        let ckpt = opts.checkpoint.as_ref().map(CkptCtx::open).transpose()?;
        Ok(Run {
            opts,
            rule: solver.rule,
            tensor,
            backend,
            grams: factors.iter().map(Mat::gram).collect(),
            factors,
            lambda: vec![1.0; rank],
            iters: 0,
            fit_history: Vec::new(),
            best_fit: f64::NEG_INFINITY,
            last_good: None,
            rollbacks_left: opts.recovery_budget,
            stall_recorded: false,
            converged: false,
            diag: RunDiagnostics::default(),
            timings: PhaseTimings::default(),
            start,
            elapsed_base_ns: 0,
            ckpt,
            pp: opts.pp.clone().map(PpCtl::new),
            xnorm2: tensor.fro_norm_sq(),
            m_buf: Mat::zeros(tensor.dims().iter().copied().max().unwrap_or(0), rank),
            h_buf: Mat::zeros(rank, rank),
            g_buf: Mat::zeros(rank, rank),
            dots: vec![0.0; rank],
            clean_kernel_ns: 0,
            clean_iters: 0,
        })
    }

    /// Resume: everything the loop reads that is not recomputed from the
    /// factors (Grams are) comes back from the checkpoint, or a resumed
    /// trajectory diverges from the uninterrupted one.
    fn restore(&mut self, ck: CpCheckpoint) {
        self.iters = ck.next_iter;
        self.lambda = ck.lambda;
        self.fit_history = ck.fit_history;
        self.best_fit = ck.best_fit;
        self.last_good = ck.last_good.map(|(lambda, factors)| Snapshot {
            grams: factors.iter().map(Mat::gram).collect(),
            factors,
            lambda,
        });
        self.rollbacks_left = ck.rollbacks_left;
        // Restoring the recovery count keeps the rollback `attempt`
        // counters — and so every reseed stream — aligned with the
        // uninterrupted trajectory.
        self.diag.recoveries = ck.recoveries;
        self.stall_recorded = ck.stall_recorded;
        self.elapsed_base_ns = ck.elapsed_ns;
        if let Some(ctl) = self.pp.as_mut().filter(|_| ck.next_iter > 0) {
            // Checkpoints are only written right after PP disarms (or
            // while it never armed), so the restored factors are the
            // movement reference an uninterrupted run would carry here —
            // and PP starts disarmed, exactly like the uninterrupted
            // trajectory at this boundary.
            ctl.prev.clone_from(&self.factors);
            ctl.have_prev = true;
        }
    }

    /// Iterates until a stop condition or `max_iters`, then finishes.
    fn drive(mut self) -> CpResult {
        let n = self.tensor.ndim();
        // Visit modes in the backend's preferred order (for memoizing
        // backends: the tree's leaf order, so every intermediate is
        // computed exactly once per iteration). Any per-iteration
        // permutation is a valid sweep.
        let order = self.backend.mode_order(n);
        debug_assert!({
            let mut o = order.clone();
            o.sort_unstable();
            o == (0..n).collect::<Vec<_>>()
        });
        let _run_span = adatm_trace::span_guard!(
            "cpals.run",
            rule: self.rule.name(),
            backend: self.backend.name(),
            rank: self.opts.rank as u64,
            max_iters: self.opts.max_iters as u64,
            ndim: n as u64,
            nnz: self.tensor.nnz() as u64
        );
        for iter in self.iters..self.opts.max_iters {
            let _iter_span = adatm_trace::span_guard!("cpals.iter", iter: iter as u64);
            if self.iteration(iter, &order) == Flow::Stop {
                break;
            }
        }
        self.finish()
    }

    /// One outer iteration: the PP decision, every mode update, then the
    /// fit with its divergence, stall and convergence checks, the
    /// last-good snapshot, the checkpoint, and the end-of-iteration
    /// accounting.
    fn iteration(&mut self, iter: usize, order: &[usize]) -> Flow {
        let events0 = self.diag.events.len();
        let (mttkrp0, dense0) = (self.timings.mttkrp, self.timings.dense);
        let pp_iter = self.pp_phase(iter);
        for &mode in order {
            let flow = self.mode_update(iter, mode, pp_iter);
            if flow != Flow::Next {
                return flow;
            }
        }
        let fit = self.fit(iter, pp_iter, order[order.len() - 1]);
        let prev = self.fit_history.last().copied();
        // Detector: fit divergence. Healthy sweeps are monotone to
        // rounding; a sharp drop or a non-finite fit means the state is
        // corrupted beyond local repair. Carried (PP) fit entries can
        // never trigger this — a PP-broken trajectory surfaces at the
        // next forced exact sweep, while the controller is still armed.
        let pp_induced = pp_iter || self.pp.as_ref().is_some_and(|c| c.armed);
        if !fit.is_finite() || prev.is_some_and(|p| fit < p - DIVERGENCE_DROP) {
            return self.diverged(iter, pp_induced);
        }
        self.iters = iter + 1;
        self.fit_history.push(fit);
        self.stall_check(iter, pp_induced);
        // Never snapshot on an approximate sweep: the carried fit says
        // nothing about the post-sweep factors, and last_good is the
        // state a divergence recovery falls back to — it must only ever
        // hold exactly-measured iterates.
        if !pp_iter && fit >= self.best_fit {
            self.best_fit = fit;
            // Refreshed in place: `Mat::clone_from` reuses the buffers.
            let snap = self.last_good.get_or_insert_with(Snapshot::default);
            snap.factors.clone_from(&self.factors);
            snap.grams.clone_from(&self.grams);
            snap.lambda.clone_from(&self.lambda);
        }
        // Iteration-boundary checkpoint. Cadence is keyed on the absolute
        // iteration number, so a resumed run writes at the same
        // boundaries as the uninterrupted one; aborted (rolled-back)
        // iterations never reach this point in either.
        let wrote_ckpt = self.ckpt.as_ref().is_some_and(|ck| ck.due(iter));
        if wrote_ckpt {
            self.write_checkpoint(iter + 1);
        }
        // Clean-iteration kernel accounting for the drift detector:
        // recoveries re-do work the model never priced, and PP sweeps run
        // a kernel class the exact prediction does not cover — both would
        // make an honest prediction look drifted.
        let clean = self.diag.events.len() == events0;
        let sweep_ns = (self.timings.mttkrp - mttkrp0).as_nanos();
        if clean && !pp_iter {
            self.clean_kernel_ns += sweep_ns + (self.timings.dense - dense0).as_nanos();
            self.clean_iters += 1;
        }
        self.pp_bookkeeping(iter, pp_iter, clean, sweep_ns, wrote_ckpt);
        // Convergence is only ever declared from an exactly-measured fit:
        // on approximate sweeps `fit` is the carried previous entry and
        // the difference would be spuriously zero.
        if !pp_iter && self.opts.tol > 0.0 && prev.is_some_and(|p| (fit - p).abs() < self.opts.tol)
        {
            self.converged = true;
            self.diag.stop = StopReason::Converged;
            return Flow::Stop;
        }
        Flow::Next
    }

    /// Pairwise-perturbation decision for this iteration's MTTKRP phase,
    /// running the perturbative sweep when it is taken. Exact sweeps are
    /// forced on the configured cadence (absolute iteration index, so
    /// resumed runs agree) and whenever any detector fired since the
    /// baseline was captured.
    fn pp_phase(&mut self, iter: usize) -> bool {
        let Some(ctl) = self.pp.as_mut() else { return false };
        if ctl.armed && self.diag.events.len() != ctl.baseline_events {
            // A recovery restored state the memoized baseline no longer
            // describes.
            ctl.disarm(iter, "recovery");
        }
        let cadence_exact = ctl.cfg.every > 0 && iter.is_multiple_of(ctl.cfg.every);
        let mut pp =
            ctl.armed && !cadence_exact && ctl.state.as_ref().is_some_and(PpState::is_fresh);
        // Validity guard: the perturbative expansion is only
        // second-order-accurate while the factors stay within the entry
        // threshold of the memoized baseline. Past it, force an exact
        // sweep — the end-of-iteration bookkeeping then re-captures the
        // baseline, so drift is bounded by `tol` for every approximate
        // sweep regardless of the cadence.
        if pp {
            let st = ctl.state.as_mut().expect("armed implies a built state");
            if st.baseline_drift(&self.factors) > ctl.cfg.tol {
                pp = false;
            }
        }
        if !pp && ctl.last_sweep_pp {
            // Back to exact sweeps: the backend's memoized intermediates
            // predate the PP factor updates.
            self.backend.reset();
        }
        ctl.last_sweep_pp = pp;
        if pp {
            let t0 = Instant::now();
            let st = ctl.state.as_mut().expect("armed implies a built state");
            st.reset_sweep_stats();
            st.pp_sweep_into(&self.factors, &mut ctl.outs);
            let d = t0.elapsed();
            self.timings.mttkrp += d;
            ctl.pp_ns += d.as_nanos();
            ctl.pp_sweeps += 1;
            let stats = st.sweep_stats();
            adatm_trace::event!(
                "pp.sweep",
                iter: iter as u64,
                sweep_ns: d.as_nanos() as u64,
                blocks_applied: stats.applied,
                blocks_skipped: stats.skipped
            );
        }
        pp
    }

    /// One mode update: MTTKRP (unless the PP sweep already produced it),
    /// the Hadamard-of-Grams system, the rule's solve and normalize, and
    /// the commit — with the watchdog and the mode-local detectors at
    /// every stage boundary.
    fn mode_update(&mut self, iter: usize, mode: usize, pp_iter: bool) -> Flow {
        let _mode_span =
            adatm_trace::span_guard!("cpals.mode", iter: iter as u64, mode: mode as u64);
        // Watchdog: callers serving traffic get best-so-far results
        // instead of unbounded runs. Checked at the top of the mode and
        // again after each kernel stage below, so an overrun is bounded
        // by one stage.
        if self.watchdog(iter, mode, "pre-mttkrp") {
            return Flow::Stop;
        }
        let t0 = Instant::now();
        if !pp_iter {
            let (rows, rank) = (self.tensor.dims()[mode], self.opts.rank);
            self.backend.begin_mode(mode);
            self.m_buf.reshape(rows, rank);
            self.backend.mttkrp_into(self.tensor, &self.factors, mode, &mut self.m_buf);
        }
        let d_mttkrp = t0.elapsed();
        self.timings.mttkrp += d_mttkrp;
        adatm_trace::event!(
            "stage",
            iter: iter as u64,
            mode: mode as u64,
            stage: "mttkrp",
            elapsed_ns: d_mttkrp.as_nanos() as u64
        );
        // Re-check: a stalled or mispredicted MTTKRP must not let the
        // overrun grow past this one stage.
        if self.watchdog(iter, mode, "post-mttkrp") {
            return Flow::Stop;
        }
        // On PP iterations the mode's MTTKRP was reconstructed
        // perturbatively at the top of the iteration; everything
        // downstream (update, detectors) is identical.
        let m = match (pp_iter, &self.pp) {
            (true, Some(ctl)) => &ctl.outs[mode],
            _ => &self.m_buf,
        };
        // Detector: a poisoned MTTKRP output. Nothing downstream of a NaN
        // here is salvageable for this mode — roll back. (Runs before the
        // audit hook: a non-finite output is a recoverable breakdown
        // here, not an invariant violation.)
        if !m.is_finite() {
            return self.breakdown(BreakdownKind::NonFiniteMttkrp, iter, mode, None);
        }
        #[cfg(feature = "audit")]
        audit_stage("mttkrp output", m);

        let t1 = Instant::now();
        self.h_buf.as_mut_slice().fill(1.0);
        for (d, w) in self.grams.iter().enumerate() {
            if d != mode {
                self.h_buf.hadamard_assign(w);
            }
        }
        adatm_trace::event!(
            "stage",
            iter: iter as u64,
            mode: mode as u64,
            stage: "gram",
            elapsed_ns: t1.elapsed().as_nanos() as u64
        );
        // Detector: a poisoned Gram system (possible only if a non-finite
        // factor slipped past an earlier detector or the Hadamard product
        // overflowed).
        if !self.h_buf.is_finite() {
            return self.breakdown(BreakdownKind::NonFiniteGram, iter, mode, Some(t1));
        }

        // The rule writes the factor, its Gram and `lambda` in place: every
        // breakdown below goes through `breakdown`, which restores all of
        // them from the last-good snapshot or reseeds all of them.
        let t_solve = Instant::now();
        let m = match (pp_iter, &self.pp) {
            (true, Some(ctl)) => &ctl.outs[mode],
            _ => &self.m_buf,
        };
        let mut out = ModeOut {
            u: &mut self.factors[mode],
            gram: &mut self.grams[mode],
            lambda: &mut self.lambda,
            row: &mut self.dots,
        };
        let solved = match self.rule.solve(m, &self.h_buf, &mut out, iter, mode, &mut self.diag) {
            Ok(finite) => finite,
            Err(kind) => return self.breakdown(kind, iter, mode, Some(t1)),
        };
        adatm_trace::event!(
            "stage",
            iter: iter as u64,
            mode: mode as u64,
            stage: "solve",
            elapsed_ns: t_solve.elapsed().as_nanos() as u64
        );
        let t_norm = Instant::now();
        let normalized = self.rule.normalize(&mut out, iter, mode, self.opts.seed, &mut self.diag);
        // Detector: the updated factor or its scales went non-finite
        // despite a finite system (overflow).
        if !(solved && normalized && self.lambda.iter().all(|l| l.is_finite())) {
            return self.breakdown(BreakdownKind::NonFiniteFactor, iter, mode, Some(t1));
        }
        if let Some(st) = self.pp.as_mut().and_then(|c| c.state.as_mut()) {
            st.note_factor_updated(mode);
        }
        adatm_trace::event!(
            "stage",
            iter: iter as u64,
            mode: mode as u64,
            stage: "normalize",
            elapsed_ns: t_norm.elapsed().as_nanos() as u64
        );
        self.add_dense(iter, mode, t1);
        #[cfg(feature = "audit")]
        audit_stage("updated factor", &self.factors[mode]);
        // Re-check: bound a dense-phase overrun by this stage too.
        if self.watchdog(iter, mode, "post-dense") {
            return Flow::Stop;
        }
        Flow::Next
    }

    /// Closes the dense stage opened at `t1`: the same duration goes into
    /// `timings.dense` and into one `dense` stage event, so the traced
    /// stages sum to the timing exactly.
    fn add_dense(&mut self, iter: usize, mode: usize, t1: Instant) {
        let d_dense = t1.elapsed();
        self.timings.dense += d_dense;
        adatm_trace::event!(
            "stage",
            iter: iter as u64,
            mode: mode as u64,
            stage: "dense",
            elapsed_ns: d_dense.as_nanos() as u64
        );
    }

    /// Watchdog check shared by every stage boundary: when the budget has
    /// expired, records the diagnostic (with the stage that detected it),
    /// sets the stop reason, and tells the caller to stop the run.
    /// Checking after MTTKRP and after the dense phase — not just at the
    /// top of each mode — bounds the overrun by a single stage rather
    /// than a whole mode's worth of kernel work.
    fn watchdog(&mut self, iter: usize, mode: usize, stage: &'static str) -> bool {
        let Some(budget) = self.opts.time_budget else { return false };
        if self.start.elapsed() < budget {
            return false;
        }
        adatm_trace::event!(
            "watchdog.expired",
            iter: iter as u64,
            mode: mode as u64,
            stage: stage,
            budget_ns: budget.as_nanos() as u64,
            elapsed_ns: self.start.elapsed().as_nanos() as u64
        );
        self.diag.record(BreakdownEvent {
            iter,
            mode: Some(mode),
            kind: BreakdownKind::TimeBudgetExpired,
            recovery: RecoveryAction::None,
            recovery_time: Duration::ZERO,
        });
        self.diag.stop = StopReason::TimeBudget;
        true
    }

    /// The one breakdown path of a mode update. Closes the dense stage
    /// when one is open (`dense_t0`), then rolls back: restores the
    /// last-good state (or reseeds everything if no good state exists
    /// yet), re-randomizes the offending mode, and invalidates all
    /// memoized backend state. Returns [`Flow::Retry`] to continue from
    /// the repaired state, or [`Flow::Stop`] once the rollback budget is
    /// exhausted — the state is then the best-so-far model and the run
    /// degrades gracefully.
    fn breakdown(
        &mut self,
        kind: BreakdownKind,
        iter: usize,
        mode: usize,
        dense_t0: Option<Instant>,
    ) -> Flow {
        if let Some(t1) = dense_t0 {
            self.add_dense(iter, mode, t1);
        }
        let rt = Instant::now();
        let (dims, rank) = (self.tensor.dims(), self.opts.rank);
        let attempt = self.diag.recoveries as u64;
        if !self.restore_last_good() {
            // No good state yet: reseed every factor from a
            // recovery-derived seed so the restart is deterministic but
            // different from the poisoned trajectory.
            let seed = self.opts.seed ^ 0x5eed_0000 ^ (attempt + 1);
            for (d, f) in self.factors.iter_mut().enumerate() {
                *f = Mat::random(dims[d], rank, seed ^ ((d as u64) << 16));
            }
            self.grams = self.factors.iter().map(Mat::gram).collect();
            self.lambda = vec![1.0; rank];
        }
        let (recovery, flow) = if self.rollbacks_left == 0 {
            self.diag.stop = StopReason::Degraded;
            self.diag.degraded = true;
            (RecoveryAction::Degrade, Flow::Stop)
        } else {
            self.rollbacks_left -= 1;
            // Re-randomize the offending mode so the deterministic
            // re-sweep does not just reproduce the breakdown.
            let reseed = self.opts.seed
                ^ 0xbad0_0000
                ^ ((iter as u64) << 24)
                ^ ((mode as u64) << 8)
                ^ attempt;
            self.factors[mode] = Mat::random(dims[mode], rank, reseed);
            self.grams[mode] = self.factors[mode].gram();
            (RecoveryAction::Rollback { reseeded_cols: rank }, Flow::Retry)
        };
        // Memoized intermediates may hold the poisoned values; flush
        // everything.
        self.backend.reset();
        self.diag.record(BreakdownEvent {
            iter,
            mode: Some(mode),
            kind,
            recovery,
            recovery_time: rt.elapsed(),
        });
        flow
    }

    /// Restores the FULL last-good snapshot — factors, Grams and
    /// `lambda` together, so no consumer of this state (the PP baseline
    /// capture included) sees a factor/Gram pair that never coexisted.
    /// `false` when no snapshot exists yet.
    fn restore_last_good(&mut self) -> bool {
        let Some(snap) = &self.last_good else { return false };
        self.factors.clone_from(&snap.factors);
        self.grams.clone_from(&snap.grams);
        self.lambda.clone_from(&snap.lambda);
        true
    }

    /// Efficient fit from the last subiteration: with `lambda` holding
    /// the last-updated mode's scales (all ones under NCP),
    /// `<X, model> = sum_r lambda_r <M(:, r), U(:, r)>` for that mode.
    /// The identity needs the EXACT last-mode MTTKRP: evaluated with the
    /// perturbative reconstruction, the `xnorm2 - 2*inner + mnorm2`
    /// cancellation amplifies the approximation error catastrophically
    /// near convergence. So approximate sweeps carry the last
    /// exactly-measured fit forward and the next forced exact sweep
    /// re-measures; the fit-driven detectors treat carried entries
    /// accordingly.
    fn fit(&mut self, iter: usize, pp_iter: bool, last: usize) -> f64 {
        let t2 = Instant::now();
        let fit = if pp_iter {
            self.fit_history.last().copied().unwrap_or(0.0)
        } else {
            self.m_buf.col_dots(&self.factors[last], &mut self.dots);
            let mut inner = 0.0;
            for (&l, &dot) in self.lambda.iter().zip(&self.dots) {
                inner += l * dot;
            }
            self.g_buf.as_mut_slice().fill(1.0);
            for w in &self.grams {
                self.g_buf.hadamard_assign(w);
            }
            let mnorm2 = self.g_buf.weighted_quad(&self.lambda, &self.lambda).max(0.0);
            let resid2 = (self.xnorm2 - 2.0 * inner + mnorm2).max(0.0);
            if self.xnorm2 > 0.0 {
                1.0 - (resid2 / self.xnorm2).sqrt()
            } else {
                0.0
            }
        };
        let d_fit = t2.elapsed();
        self.timings.fit += d_fit;
        adatm_trace::event!(
            "stage",
            iter: iter as u64,
            stage: "fit",
            elapsed_ns: d_fit.as_nanos() as u64,
            fit: fit
        );
        fit
    }

    /// Fit divergence: restore the best earlier state. When the
    /// approximation itself broke the trajectory (`pp_induced`), discard
    /// the approximate sweeps since the last good state, drop back to
    /// exact sweeps (recorded as detection-only — the restore is the
    /// repair), and keep running; otherwise stop degraded.
    fn diverged(&mut self, iter: usize, pp_induced: bool) -> Flow {
        let rt = Instant::now();
        self.restore_last_good();
        self.diag.record(BreakdownEvent {
            iter,
            mode: None,
            kind: BreakdownKind::FitDivergence,
            recovery: if pp_induced { RecoveryAction::None } else { RecoveryAction::Degrade },
            recovery_time: rt.elapsed(),
        });
        if pp_induced {
            if let Some(ctl) = self.pp.as_mut() {
                ctl.disarm(iter, "divergence");
                ctl.prev.clone_from(&self.factors);
            }
            return Flow::Retry;
        }
        self.diag.stop = StopReason::Diverged;
        self.diag.degraded = true;
        Flow::Stop
    }

    /// Detector: a stalled run with early stopping disabled. Detection
    /// only — the caller asked for every iteration. Suppressed while PP
    /// is active: carried fit entries make the window artificially flat.
    fn stall_check(&mut self, iter: usize, pp_induced: bool) {
        let h = &self.fit_history;
        if !self.stall_recorded && !pp_induced && self.opts.tol == 0.0 && h.len() >= STALL_WINDOW {
            let win = &h[h.len() - STALL_WINDOW..];
            let spread = win.iter().fold(f64::NEG_INFINITY, |m, &f| m.max(f))
                - win.iter().fold(f64::INFINITY, |m, &f| m.min(f));
            if spread < STALL_EPS {
                self.stall_recorded = true;
                self.diag.record(BreakdownEvent {
                    iter,
                    mode: None,
                    kind: BreakdownKind::FitStall,
                    recovery: RecoveryAction::None,
                    recovery_time: Duration::ZERO,
                });
            }
        }
    }

    /// Pairwise-perturbation bookkeeping at the iteration boundary:
    /// movement tracking, sweep-phase timing split, and the
    /// arm/re-baseline decisions.
    fn pp_bookkeeping(
        &mut self,
        iter: usize,
        pp_iter: bool,
        clean: bool,
        sweep_ns: u128,
        wrote_ckpt: bool,
    ) {
        let Some(ctl) = self.pp.as_mut() else { return };
        let (tensor, rank) = (self.tensor, self.opts.rank);
        if clean && !pp_iter {
            ctl.exact_ns += sweep_ns;
            ctl.exact_sweeps += 1;
        }
        let rel =
            if ctl.have_prev { rel_factor_delta(&ctl.prev, &self.factors) } else { f64::INFINITY };
        if wrote_ckpt {
            // A durable checkpoint was just written; a run resumed from
            // it starts with exact intermediates and a disarmed
            // controller, so the uninterrupted trajectory must disarm
            // here too to stay bitwise-identical.
            ctl.disarm(iter, "checkpoint");
        } else if clean && !pp_iter {
            if !ctl.armed {
                if ctl.cfg.every != 1 && rel <= ctl.cfg.tol {
                    // Enter approximate mode: capture the baseline at
                    // exactly the factors this exact sweep produced.
                    let t0 = Instant::now();
                    let st = ctl.state.get_or_insert_with(|| PpState::new(tensor, rank));
                    st.set_skip_tol(ctl.cfg.skip_tol);
                    st.refresh(tensor, &self.factors);
                    if ctl.outs.len() != tensor.ndim() {
                        ctl.outs = tensor.dims().iter().map(|&d| Mat::zeros(d, rank)).collect();
                    }
                    self.timings.mttkrp += t0.elapsed();
                    ctl.refreshes += 1;
                    ctl.armed = true;
                    ctl.baseline_events = self.diag.events.len();
                    adatm_trace::event!(
                        "pp.enter",
                        iter: iter as u64,
                        rel_delta: rel,
                        memo_bytes: ctl.state.as_ref().map_or(0, |s| s.memory_bytes()) as u64
                    );
                }
            } else {
                // Forced exact sweep while armed (cadence or drift
                // guard): re-capture the baseline only once the factors
                // have drifted past the entry threshold.
                let st = ctl.state.as_mut().expect("armed implies a built state");
                if st.baseline_drift(&self.factors) > ctl.cfg.tol {
                    let t0 = Instant::now();
                    st.refresh(tensor, &self.factors);
                    self.timings.mttkrp += t0.elapsed();
                    ctl.refreshes += 1;
                    ctl.baseline_events = self.diag.events.len();
                }
            }
        }
        ctl.prev.clone_from(&self.factors);
        ctl.have_prev = true;
    }

    /// Writes one checkpoint generation from the live state (no-op
    /// without a store). Write failures are non-fatal: durability
    /// degrades (earlier generations stay intact), correctness does not,
    /// so the run records a [`BreakdownKind::CheckpointWriteFailed`]
    /// diagnostic and keeps iterating.
    fn write_checkpoint(&mut self, next_iter: usize) {
        let Some(ck) = self.ckpt.as_mut() else { return };
        let t0 = Instant::now();
        let view = CheckpointView {
            rule: self.rule,
            seed: self.opts.seed,
            next_iter,
            lambda: &self.lambda,
            factors: &self.factors,
            fit_history: &self.fit_history,
            best_fit: self.best_fit,
            recoveries: self.diag.recoveries,
            rollbacks_left: self.rollbacks_left,
            stall_recorded: self.stall_recorded,
            elapsed_ns: self.elapsed_base_ns + self.start.elapsed().as_nanos() as u64,
            last_good: self.last_good.as_ref().map(|s| (s.lambda.as_slice(), s.factors.as_slice())),
        };
        if ck.store.write(&view).is_err() {
            self.diag.record(BreakdownEvent {
                iter: next_iter.saturating_sub(1),
                mode: None,
                kind: BreakdownKind::CheckpointWriteFailed,
                recovery: RecoveryAction::None,
                recovery_time: t0.elapsed(),
            });
        }
        ck.last_write = Instant::now();
        self.timings.checkpoint += t0.elapsed();
    }

    /// Finish: the final watchdog checkpoint, the drift check, and the
    /// result.
    fn finish(mut self) -> CpResult {
        // Durability on watchdog expiry: the loop only checkpoints at
        // iteration boundaries it completed, so a time-budget stop
        // mid-iteration would otherwise lose everything since the last
        // cadence hit. Persist the best-so-far state before returning.
        if self.diag.stop == StopReason::TimeBudget {
            self.write_checkpoint(self.iters);
        }
        // A degraded run may still hold non-finite working state if no
        // last-good snapshot existed; the rollback path guarantees the
        // factors it leaves behind are finite, so this is belt and
        // braces for the model we hand back.
        debug_assert!(self.factors.iter().all(Mat::is_finite));
        self.diag.elapsed = self.start.elapsed();
        self.drift_check();
        if let Some(ctl) = &self.pp {
            ctl.report(&mut self.diag);
        }
        #[cfg(feature = "audit")]
        adatm_audit::validate_factors(&self.factors, self.tensor.dims(), self.opts.rank)
            .unwrap_or_else(|e| panic!("audit: final factor set: {e}"));
        CpResult {
            model: CpModel { lambda: self.lambda, factors: self.factors },
            iters: self.iters,
            fit_history: self.fit_history,
            converged: self.converged,
            timings: self.timings,
            diagnostics: self.diag,
            #[cfg(feature = "fault-inject")]
            grams: self.grams,
        }
    }

    /// Drift detector: with a calibrated backend, compare its
    /// per-iteration prediction against the measured kernel time (MTTKRP
    /// plus dense, the phases the model prices) averaged over clean exact
    /// iterations only. Iterations that ran recoveries (ridge re-solves,
    /// rollback re-dos) or approximate PP sweeps spend time the model
    /// never priced and would fake a drift. A large excess on clean
    /// iterations means the profile is stale or the model mispriced this
    /// tensor.
    fn drift_check(&mut self) {
        self.diag.predicted_iter_ns = self.backend.predicted_iter_ns();
        self.diag.measured_iters = self.clean_iters;
        if self.clean_iters == 0 {
            return;
        }
        let measured = self.clean_kernel_ns as f64 / self.clean_iters as f64;
        self.diag.measured_iter_ns = Some(measured);
        let Some(predicted) = self.diag.predicted_iter_ns else { return };
        let factor = self.opts.drift_factor;
        adatm_trace::event!(
            "drift.check",
            predicted_ns: predicted,
            measured_ns: measured,
            factor: factor
        );
        if factor > 0.0 && predicted > 0.0 && measured > predicted * factor {
            adatm_trace::event!(
                "drift.warning",
                predicted_ns: predicted,
                measured_ns: measured,
                ratio: measured / predicted,
                factor: factor
            );
            self.diag.record(BreakdownEvent {
                iter: self.iters - 1,
                mode: None,
                kind: BreakdownKind::PredictionDrift,
                recovery: RecoveryAction::None,
                recovery_time: Duration::ZERO,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{all_backends, AdaptiveBackend, CooBackend, CsfBackend, DtreeBackend};
    use adatm_tensor::gen::{dense_low_rank, low_rank_tensor, zipf_tensor};

    #[test]
    fn recovers_noiseless_low_rank_tensor() {
        let truth = dense_low_rank(&[12, 14, 10], 3, 0.0, 11);
        let mut backend = CooBackend::new(&truth.tensor);
        let res = CpAls::new(CpAlsOptions::new(3).max_iters(60).seed(5))
            .run(&truth.tensor, &mut backend)
            .unwrap();
        assert!(res.final_fit() > 0.99, "fit {} after {} iters", res.final_fit(), res.iters);
    }

    #[test]
    fn fit_history_is_essentially_monotone() {
        let truth = low_rank_tensor(&[20, 25, 15, 18], 4, 2_000, 0.05, 3);
        let mut backend = DtreeBackend::balanced_binary(&truth.tensor, 4);
        let res = CpAls::new(CpAlsOptions::new(4).max_iters(25).tol(0.0).seed(1))
            .run(&truth.tensor, &mut backend)
            .unwrap();
        assert_eq!(res.iters, 25);
        for w in res.fit_history.windows(2) {
            assert!(w[1] >= w[0] - 1e-6, "fit regressed: {} -> {}", w[0], w[1]);
        }
    }

    #[test]
    fn all_backends_converge_to_same_fit() {
        let truth = low_rank_tensor(&[18, 22, 16, 14], 3, 1_500, 0.01, 8);
        let t = &truth.tensor;
        let opts = CpAlsOptions::new(3).max_iters(15).tol(0.0).seed(42);
        let mut fits = Vec::new();
        for mut b in all_backends(t, 3) {
            let res = CpAls::new(opts.clone()).run(t, &mut b).unwrap();
            fits.push((b.name(), b.mode_order(4), res.final_fit()));
        }
        // Backends sharing the natural mode order must match to rounding;
        // a backend with a permuted sweep order (the adaptive planner may
        // reorder) takes a different but equally valid ALS trajectory.
        let natural: Vec<usize> = (0..4).collect();
        let baseline = fits[0].2;
        for (name, order, fit) in &fits {
            if *order == natural {
                assert!((fit - baseline).abs() < 1e-8, "{name} fit {fit} differs from {baseline}");
            } else {
                assert!(
                    (fit - baseline).abs() < 0.05,
                    "{name} (permuted order) fit {fit} far from {baseline}"
                );
            }
        }
    }

    #[test]
    fn reported_fit_matches_model_fit_to() {
        let truth = low_rank_tensor(&[15, 20, 12], 2, 800, 0.1, 9);
        let mut backend = CsfBackend::new(&truth.tensor);
        let res = CpAls::new(CpAlsOptions::new(2).max_iters(10).tol(0.0).seed(7))
            .run(&truth.tensor, &mut backend)
            .unwrap();
        let direct = res.model.fit_to(&truth.tensor);
        assert!(
            (res.final_fit() - direct).abs() < 1e-8,
            "loop fit {} vs direct {}",
            res.final_fit(),
            direct
        );
    }

    #[test]
    fn convergence_stop_fires() {
        let truth = dense_low_rank(&[10, 10, 10], 2, 0.0, 2);
        let mut backend = CooBackend::new(&truth.tensor);
        let res = CpAls::new(CpAlsOptions::new(2).max_iters(200).tol(1e-7).seed(3))
            .run(&truth.tensor, &mut backend)
            .unwrap();
        assert!(res.converged, "should converge well before 200 iterations");
        assert!(res.iters < 200);
        assert_eq!(res.diagnostics.stop, StopReason::Converged);
    }

    #[test]
    fn deterministic_given_seed() {
        let t = zipf_tensor(&[15, 18, 12], 500, &[0.5; 3], 6);
        let opts = CpAlsOptions::new(3).max_iters(5).tol(0.0).seed(77);
        let mut b1 = CooBackend::new(&t);
        let mut b2 = CooBackend::with_parallel(&t, false);
        let r1 = CpAls::new(opts.clone()).run(&t, &mut b1).unwrap();
        let r2 = CpAls::new(opts).run(&t, &mut b2).unwrap();
        // Parallel and sequential COO sum in different orders, so allow
        // floating-point slack but require the same trajectory.
        for (a, b) in r1.fit_history.iter().zip(r2.fit_history.iter()) {
            assert!((a - b).abs() < 1e-7);
        }
    }

    #[test]
    fn timings_cover_phases() {
        let truth = low_rank_tensor(&[25, 25, 25], 3, 2_000, 0.0, 5);
        let mut backend = AdaptiveBackend::plan(&truth.tensor, 3);
        let res = CpAls::new(CpAlsOptions::new(3).max_iters(5).tol(0.0))
            .run(&truth.tensor, &mut backend)
            .unwrap();
        assert!(res.timings.mttkrp > Duration::ZERO);
        assert!(res.timings.dense > Duration::ZERO);
        assert!(res.timings.total() > Duration::ZERO);
    }

    #[test]
    fn run_from_accepts_custom_init() {
        let truth = dense_low_rank(&[12, 14, 10], 2, 0.0, 4);
        let t = &truth.tensor;
        let mut backend = CooBackend::new(t);
        // Initialize at the ground truth: fit should be ~1 after one sweep.
        let init = truth.factors.clone();
        let res = CpAls::new(CpAlsOptions::new(2).max_iters(2).tol(0.0))
            .run_from(t, &mut backend, init)
            .unwrap();
        assert!(res.final_fit() > 0.999, "fit {}", res.final_fit());
    }

    #[test]
    fn run_from_rejects_bad_rank() {
        let t = zipf_tensor(&[10, 10], 50, &[0.0; 2], 1);
        let mut backend = CooBackend::new(&t);
        let bad = vec![Mat::zeros(10, 3), Mat::zeros(10, 3)];
        let err = CpAls::new(CpAlsOptions::new(2)).run_from(&t, &mut backend, bad).unwrap_err();
        assert!(matches!(err, CpAlsError::FactorShapeMismatch { mode: 0, .. }));
    }

    #[test]
    fn run_rejects_malformed_input_without_panicking() {
        let t = zipf_tensor(&[10, 12], 50, &[0.0; 2], 1);
        let mut backend = CooBackend::new(&t);
        // Zero rank.
        let err = CpAls::new(CpAlsOptions::new(0)).run(&t, &mut backend).unwrap_err();
        assert_eq!(err, CpAlsError::ZeroRank);
        // Wrong factor count.
        let err = CpAls::new(CpAlsOptions::new(2))
            .run_from(&t, &mut backend, vec![Mat::zeros(10, 2)])
            .unwrap_err();
        assert_eq!(err, CpAlsError::FactorCountMismatch { expected: 2, found: 1 });
        // Non-finite initial factor.
        let mut bad = Mat::zeros(10, 2);
        bad.set(3, 1, f64::NAN);
        let err = CpAls::new(CpAlsOptions::new(2))
            .run_from(&t, &mut backend, vec![bad, Mat::zeros(12, 2)])
            .unwrap_err();
        assert_eq!(err, CpAlsError::NonFiniteInit { mode: 0 });
    }

    #[test]
    fn run_rejects_non_finite_tensor() {
        let mut t = zipf_tensor(&[8, 9], 40, &[0.0; 2], 2);
        t.vals_mut()[7] = f64::NAN;
        let mut backend = CooBackend::new(&t);
        let err = CpAls::new(CpAlsOptions::new(2)).run(&t, &mut backend).unwrap_err();
        assert_eq!(err, CpAlsError::NonFiniteTensor);
    }

    #[test]
    fn clean_run_reports_clean_diagnostics() {
        let truth = dense_low_rank(&[10, 11, 9], 2, 0.0, 3);
        let mut backend = CooBackend::new(&truth.tensor);
        let res = CpAls::new(CpAlsOptions::new(2).max_iters(10).seed(1))
            .run(&truth.tensor, &mut backend)
            .unwrap();
        assert_eq!(res.diagnostics.recoveries, 0);
        assert!(!res.diagnostics.degraded);
        assert!(res.diagnostics.elapsed > Duration::ZERO);
    }

    #[test]
    fn zero_max_iters_returns_finite_empty_run() {
        let t = zipf_tensor(&[10, 10, 10], 100, &[0.0; 3], 4);
        let mut backend = CooBackend::new(&t);
        let res = CpAls::new(CpAlsOptions::new(3).max_iters(0)).run(&t, &mut backend).unwrap();
        assert_eq!(res.iters, 0);
        assert!(res.fit_history.is_empty());
        assert!(!res.converged);
        assert!(res.model.factors.iter().all(Mat::is_finite));
        assert_eq!(res.diagnostics.stop, StopReason::MaxIters);
    }

    #[test]
    fn zero_time_budget_expires_on_iteration_zero() {
        let t = zipf_tensor(&[10, 10, 10], 100, &[0.0; 3], 4);
        let mut backend = CooBackend::new(&t);
        let res = CpAls::new(CpAlsOptions::new(3).max_iters(50).time_budget(Duration::ZERO))
            .run(&t, &mut backend)
            .unwrap();
        assert_eq!(res.iters, 0);
        assert!(!res.converged);
        assert_eq!(res.diagnostics.stop, StopReason::TimeBudget);
        assert_eq!(res.diagnostics.count_of(BreakdownKind::TimeBudgetExpired), 1);
        assert!(res.model.factors.iter().all(Mat::is_finite));
    }
}
