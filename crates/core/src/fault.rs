//! Deterministic fault injection for the solver pipeline
//! (`--features fault-inject`).
//!
//! [`FaultInjectingBackend`] wraps any [`MttkrpBackend`] and, on a seeded
//! schedule, corrupts the MTTKRP outputs the CP-ALS driver consumes:
//! NaN/Inf poison, zeroed outputs (forcing zero factor columns), columns
//! made collinear (forcing a numerically singular Gram system on the
//! next mode), and artificial stalls (tripping the wall-clock watchdog).
//! Every breakdown detector and every recovery policy in
//! [`CpAls`](crate::CpAls) is therefore exercisable end-to-end by
//! ordinary `cargo test` instead of by luck on real data.
//!
//! The module mirrors the `audit` feature pattern: it only exists when
//! the `fault-inject` feature is on, so the default build compiles the
//! wrapper out entirely.

use crate::backend::MttkrpBackend;
use adatm_linalg::Mat;
use adatm_tensor::SparseTensor;
use std::collections::BTreeMap;
use std::time::Duration;

/// How one MTTKRP call gets corrupted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Overwrite one entry with NaN (poisons the factor update and, for
    /// memoizing backends, any cached intermediate derived from it): the
    /// middle entry's column, on the first row at or after the middle row
    /// that holds a tensor nonzero (wrapping to the first such row). Every
    /// update reads that row, so the NaN is always reported.
    PoisonNan,
    /// Overwrite the first entry of the given row with NaN. On a row
    /// outside the mode's support the driver reads it only in a factor's
    /// first update after its initialisation, a reseed or a restore, and
    /// reports it there; any other update never reads it, so it perturbs
    /// nothing and nothing is reported (an `audit` build's check of the
    /// whole output panics on it).
    PoisonNanRow(usize),
    /// Overwrite one entry with +Inf (the first, on row 0).
    PoisonInf,
    /// Zero the entire output, collapsing every factor column.
    ZeroOutput,
    /// Copy column 0 over every other column, driving the factor columns
    /// collinear and the next Gram system numerically singular.
    CollinearColumns,
    /// Sleep for the given number of milliseconds inside the MTTKRP call
    /// (an artificial stall, for exercising the time-budget watchdog).
    StallMs(u64),
}

/// A deterministic schedule mapping MTTKRP call indices to faults.
///
/// The call counter is global across the run and never resets (in
/// particular not on [`MttkrpBackend::reset`]), so a schedule replays
/// identically for a given seed/spec regardless of how many recoveries
/// the solver performs.
#[derive(Clone, Debug, Default)]
pub struct FaultSchedule {
    events: BTreeMap<usize, FaultKind>,
    every: Option<FaultKind>,
}

impl FaultSchedule {
    /// An empty schedule (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Injects `kind` at the `call`-th MTTKRP invocation (0-based).
    pub fn at_call(mut self, call: usize, kind: FaultKind) -> Self {
        self.events.insert(call, kind);
        self
    }

    /// Injects `kind` on *every* call — a persistent fault, for testing
    /// recovery-budget exhaustion and graceful degradation.
    pub fn always(mut self, kind: FaultKind) -> Self {
        self.every = Some(kind);
        self
    }

    /// A seeded pseudo-random schedule over the first `horizon` calls.
    ///
    /// Each call independently receives a fault with probability ~1/8,
    /// drawn deterministically from `seed` with a splitmix64 stream — the
    /// same seed always produces the same schedule, which is what lets a
    /// property test assert "for any seed, the solver returns a finite
    /// model or a typed error".
    pub fn seeded(seed: u64, horizon: usize) -> Self {
        let mut state = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut sched = FaultSchedule::new();
        for call in 0..horizon {
            let r = next();
            if r % 8 == 0 {
                let kind = match (r >> 8) % 4 {
                    0 => FaultKind::PoisonNan,
                    1 => FaultKind::PoisonInf,
                    2 => FaultKind::ZeroOutput,
                    _ => FaultKind::CollinearColumns,
                };
                sched.events.insert(call, kind);
            }
        }
        sched
    }

    fn fault_for(&self, call: usize) -> Option<FaultKind> {
        self.events.get(&call).copied().or(self.every)
    }

    /// Number of explicitly scheduled events (not counting `always`).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the schedule injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.every.is_none()
    }
}

/// An [`MttkrpBackend`] wrapper that corrupts outputs on a deterministic
/// schedule.
///
/// Wraps the real backend unchanged — structure, mode order and
/// memoization behaviour are the inner backend's — and applies the
/// scheduled fault *after* the inner MTTKRP completes, exactly where a
/// hardware fault, a kernel bug, or an overflow would strike.
pub struct FaultInjectingBackend<B> {
    inner: B,
    schedule: FaultSchedule,
    calls: usize,
    injected: Vec<(usize, FaultKind)>,
}

impl<B: MttkrpBackend> FaultInjectingBackend<B> {
    /// Wraps `inner` with the given schedule.
    pub fn new(inner: B, schedule: FaultSchedule) -> Self {
        FaultInjectingBackend { inner, schedule, calls: 0, injected: Vec::new() }
    }

    /// The faults actually injected so far, as `(call_index, kind)` —
    /// tests assert against this to prove a schedule fired.
    pub fn injected(&self) -> &[(usize, FaultKind)] {
        &self.injected
    }

    /// Total MTTKRP calls observed.
    pub fn calls(&self) -> usize {
        self.calls
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    fn apply(kind: FaultKind, tensor: &SparseTensor, mode: usize, out: &mut Mat) {
        match kind {
            FaultKind::PoisonNan => {
                if !out.as_slice().is_empty() {
                    let (n, mid) = (out.nrows(), out.as_slice().len() / 2);
                    let (row, col) = (mid / out.ncols(), mid % out.ncols());
                    let support = tensor.support(mode);
                    let live = support.next_run(row, n).or_else(|| support.next_run(0, n));
                    out.set(live.map_or(row, |(i, _)| i), col, f64::NAN);
                }
            }
            FaultKind::PoisonNanRow(row) => {
                if row < out.nrows() && out.ncols() > 0 {
                    out.set(row, 0, f64::NAN);
                }
            }
            FaultKind::PoisonInf => {
                if !out.as_slice().is_empty() {
                    out.as_mut_slice()[0] = f64::INFINITY;
                }
            }
            FaultKind::ZeroOutput => {
                out.as_mut_slice().fill(0.0);
            }
            FaultKind::CollinearColumns => {
                for i in 0..out.nrows() {
                    let v = out.get(i, 0);
                    for j in 1..out.ncols() {
                        out.set(i, j, v);
                    }
                }
            }
            FaultKind::StallMs(ms) => {
                std::thread::sleep(Duration::from_millis(ms));
            }
        }
    }
}

impl<B: MttkrpBackend> MttkrpBackend for FaultInjectingBackend<B> {
    fn begin_mode(&mut self, mode: usize) {
        self.inner.begin_mode(mode);
    }

    fn mode_order(&self, ndim: usize) -> Vec<usize> {
        self.inner.mode_order(ndim)
    }

    fn mttkrp_into(&mut self, tensor: &SparseTensor, factors: &[Mat], mode: usize, out: &mut Mat) {
        self.inner.mttkrp_into(tensor, factors, mode, out);
        if let Some(kind) = self.schedule.fault_for(self.calls) {
            Self::apply(kind, tensor, mode, out);
            self.injected.push((self.calls, kind));
        }
        self.calls += 1;
    }

    fn reset(&mut self) {
        // Deliberately does NOT reset the call counter: the fault
        // schedule marches forward through recoveries, so a transient
        // fault stays transient and an `always` fault stays persistent.
        self.inner.reset();
    }

    fn name(&self) -> &'static str {
        "fault-inject"
    }

    fn structure_bytes(&self) -> usize {
        self.inner.structure_bytes()
    }

    fn predicted_iter_ns(&self) -> Option<f64> {
        self.inner.predicted_iter_ns()
    }
}

// ---------------------------------------------------------------------
// I/O fault injection for the checkpoint medium
// ---------------------------------------------------------------------

/// How one checkpoint write cycle (persist + rename) gets corrupted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoFaultKind {
    /// The persist writes only the first half of the bytes and then
    /// reports success — a torn/short write a crash or lying disk leaves
    /// behind. Discovered at load time as
    /// [`CheckpointError::Truncated`](crate::CheckpointError::Truncated).
    TornWrite,
    /// One bit in the middle of the payload is flipped before the write —
    /// silent media corruption. Discovered at load time as
    /// [`CheckpointError::ChecksumMismatch`](crate::CheckpointError::ChecksumMismatch).
    BitFlip,
    /// The persist fails up front with `ENOSPC`
    /// ([`std::io::ErrorKind::StorageFull`]), writing nothing.
    Enospc,
    /// The persist succeeds but the atomic rename fails, stranding the
    /// temp file and leaving the previous generation as newest.
    RenameFail,
}

/// A deterministic schedule mapping checkpoint *write cycles* (0-based,
/// one per [`CheckpointStore::write`](crate::CheckpointStore::write)) to
/// I/O faults. Mirrors [`FaultSchedule`] for the storage axis.
#[derive(Clone, Debug, Default)]
pub struct IoFaultSchedule {
    events: BTreeMap<usize, IoFaultKind>,
    every: Option<IoFaultKind>,
}

impl IoFaultSchedule {
    /// An empty schedule (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Injects `kind` on the `write`-th checkpoint write cycle (0-based).
    pub fn at_write(mut self, write: usize, kind: IoFaultKind) -> Self {
        self.events.insert(write, kind);
        self
    }

    /// Injects `kind` on *every* write — a persistently failing disk.
    pub fn always(mut self, kind: IoFaultKind) -> Self {
        self.every = Some(kind);
        self
    }

    fn fault_for(&self, write: usize) -> Option<IoFaultKind> {
        self.events.get(&write).copied().or(self.every)
    }
}

/// Shared record of the I/O faults a [`FaultyMedium`] actually injected,
/// as `(write_cycle, kind)` — tests clone the handle before boxing the
/// medium into the config and assert against it afterwards.
pub type IoFaultLog = std::sync::Arc<std::sync::Mutex<Vec<(usize, IoFaultKind)>>>;

/// A [`CheckpointMedium`](crate::CheckpointMedium) that injects storage
/// faults on a deterministic schedule, delegating clean operations to
/// the real filesystem.
///
/// The write-cycle counter advances on every `persist` and never resets,
/// so a schedule replays identically for a given spec regardless of how
/// the run interleaves writes with recoveries. The `rename` belonging to
/// a cycle observes the same index as its `persist`.
#[derive(Debug)]
pub struct FaultyMedium {
    inner: crate::checkpoint::FsMedium,
    schedule: IoFaultSchedule,
    writes: usize,
    log: IoFaultLog,
}

impl FaultyMedium {
    /// A medium injecting `schedule`, with a private log.
    pub fn new(schedule: IoFaultSchedule) -> Self {
        Self::with_log(schedule, IoFaultLog::default())
    }

    /// As [`FaultyMedium::new`], but recording injections into a shared
    /// log the caller keeps a handle to.
    pub fn with_log(schedule: IoFaultSchedule, log: IoFaultLog) -> Self {
        FaultyMedium { inner: crate::checkpoint::FsMedium, schedule, writes: 0, log }
    }

    fn record(&self, write: usize, kind: IoFaultKind) {
        if let Ok(mut log) = self.log.lock() {
            log.push((write, kind));
        }
    }
}

impl crate::checkpoint::CheckpointMedium for FaultyMedium {
    fn persist(&mut self, path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
        let write = self.writes;
        self.writes += 1;
        match self.schedule.fault_for(write) {
            Some(IoFaultKind::TornWrite) => {
                self.record(write, IoFaultKind::TornWrite);
                self.inner.persist(path, &bytes[..bytes.len() / 2])
            }
            Some(IoFaultKind::BitFlip) => {
                self.record(write, IoFaultKind::BitFlip);
                let mut corrupt = bytes.to_vec();
                let mid = corrupt.len() / 2;
                if let Some(b) = corrupt.get_mut(mid) {
                    *b ^= 0x40;
                }
                self.inner.persist(path, &corrupt)
            }
            Some(IoFaultKind::Enospc) => {
                self.record(write, IoFaultKind::Enospc);
                Err(std::io::Error::new(
                    std::io::ErrorKind::StorageFull,
                    "injected ENOSPC: no space left on device",
                ))
            }
            Some(IoFaultKind::RenameFail) | None => self.inner.persist(path, bytes),
        }
    }

    fn rename(&mut self, from: &std::path::Path, to: &std::path::Path) -> std::io::Result<()> {
        let write = self.writes.saturating_sub(1);
        if self.schedule.fault_for(write) == Some(IoFaultKind::RenameFail) {
            self.record(write, IoFaultKind::RenameFail);
            return Err(std::io::Error::new(
                std::io::ErrorKind::PermissionDenied,
                "injected rename failure",
            ));
        }
        self.inner.rename(from, to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::CooBackend;
    use adatm_tensor::gen::zipf_tensor;
    use adatm_tensor::mttkrp::mttkrp_seq;

    fn factors_for(t: &SparseTensor, rank: usize, seed: u64) -> Vec<Mat> {
        t.dims().iter().enumerate().map(|(d, &n)| Mat::random(n, rank, seed + d as u64)).collect()
    }

    #[test]
    fn schedule_is_deterministic_and_faults_fire_where_scheduled() {
        let t = zipf_tensor(&[10, 12, 8], 200, &[0.3; 3], 5);
        let factors = factors_for(&t, 3, 7);
        let sched =
            FaultSchedule::new().at_call(1, FaultKind::PoisonNan).at_call(3, FaultKind::ZeroOutput);
        let mut b = FaultInjectingBackend::new(CooBackend::new(&t), sched);
        for call in 0..5 {
            let mode = call % 3;
            b.begin_mode(mode);
            let mut out = Mat::zeros(t.dims()[mode], 3);
            b.mttkrp_into(&t, &factors, mode, &mut out);
            match call {
                1 => assert!(!out.is_finite()),
                3 => assert!(out.as_slice().iter().all(|&x| x == 0.0)),
                _ => {
                    let want = mttkrp_seq(&t, &factors, mode);
                    assert!(out.max_abs_diff(&want) < 1e-10, "call {call} should be clean");
                }
            }
        }
        assert_eq!(b.injected(), &[(1, FaultKind::PoisonNan), (3, FaultKind::ZeroOutput)]);
    }

    #[test]
    fn nan_poison_lands_on_the_first_live_row_from_the_middle() {
        // Mode 0 holds entries on even rows only: the middle entry of the
        // 10 x 3 output is (5, 0), on empty row 5, so the NaN moves to row
        // 6; a row-targeted poison stays on its row.
        let (inds, vals) = (vec![vec![0, 2, 4, 6, 8], vec![0, 1, 2, 0, 1]], vec![1.0; 5]);
        let t = SparseTensor::new(vec![10, 3], inds, vals);
        let factors = factors_for(&t, 3, 4);
        for (kind, at) in [(FaultKind::PoisonNan, (6, 0)), (FaultKind::PoisonNanRow(5), (5, 0))] {
            let sched = FaultSchedule::new().at_call(0, kind);
            let mut b = FaultInjectingBackend::new(CooBackend::new(&t), sched);
            let mut out = Mat::zeros(10, 3);
            b.mttkrp_into(&t, &factors, 0, &mut out);
            let nans: Vec<(usize, usize)> = (0..10)
                .flat_map(|i| (0..3).map(move |j| (i, j)))
                .filter(|&(i, j)| out.get(i, j).is_nan())
                .collect();
            assert_eq!(nans, [at], "{kind:?}");
        }
        // Dense rows: the middle entry itself, (4, 1) of a 9 x 3 output.
        let t = zipf_tensor(&[9, 9], 400, &[0.0; 2], 3);
        assert_eq!(t.support(0).next_run(0, 9), Some((0, 9)));
        let sched = FaultSchedule::new().at_call(0, FaultKind::PoisonNan);
        let mut b = FaultInjectingBackend::new(CooBackend::new(&t), sched);
        let mut out = Mat::zeros(9, 3);
        b.mttkrp_into(&t, &factors_for(&t, 3, 1), 0, &mut out);
        assert!(
            out.get(4, 1).is_nan() && out.as_slice().iter().filter(|x| x.is_nan()).count() == 1
        );
    }

    #[test]
    fn collinear_fault_makes_columns_identical() {
        let t = zipf_tensor(&[9, 9], 80, &[0.0; 2], 3);
        let factors = factors_for(&t, 4, 1);
        let sched = FaultSchedule::new().at_call(0, FaultKind::CollinearColumns);
        let mut b = FaultInjectingBackend::new(CooBackend::new(&t), sched);
        let mut out = Mat::zeros(9, 4);
        b.mttkrp_into(&t, &factors, 0, &mut out);
        for i in 0..out.nrows() {
            for j in 1..out.ncols() {
                assert_eq!(out.get(i, j), out.get(i, 0));
            }
        }
    }

    #[test]
    fn seeded_schedules_are_reproducible_and_seed_sensitive() {
        let a = FaultSchedule::seeded(42, 256);
        let b = FaultSchedule::seeded(42, 256);
        let c = FaultSchedule::seeded(43, 256);
        assert_eq!(a.events, b.events);
        assert!(!a.is_empty(), "1/8 rate over 256 calls injects something");
        assert_ne!(a.events, c.events, "different seeds give different schedules");
    }

    #[test]
    fn reset_does_not_rewind_the_schedule() {
        let t = zipf_tensor(&[8, 8], 60, &[0.0; 2], 9);
        let factors = factors_for(&t, 2, 2);
        let sched = FaultSchedule::new().at_call(0, FaultKind::PoisonNan);
        let mut b = FaultInjectingBackend::new(CooBackend::new(&t), sched);
        let mut out = Mat::zeros(8, 2);
        b.mttkrp_into(&t, &factors, 0, &mut out);
        assert!(!out.is_finite());
        b.reset();
        b.mttkrp_into(&t, &factors, 0, &mut out);
        assert!(out.is_finite(), "call 1 is past the scheduled fault even after reset");
        assert_eq!(b.calls(), 2);
    }
}
