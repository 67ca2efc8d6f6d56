//! A thin [`MttkrpBackend`] wrapper that observes the driver's calls
//! without changing them: every method delegates to the wrapped backend.

use crate::alloc;
use crate::stats::Mark;
use adatm::{Mat, MttkrpBackend, SparseTensor};
use std::time::Instant;

/// One timed `mttkrp_into` call.
#[derive(Clone, Copy, Debug)]
pub struct Call {
    /// The mode computed.
    pub mode: usize,
    /// When the call started.
    pub start: Instant,
    /// Wall seconds in the call.
    pub secs: f64,
    /// Allocation calls made (by any thread) during the call.
    pub allocs: u64,
}

/// Records iteration marks always, and per-call timings and allocation
/// counts when `timed` is set (the traced run).
pub struct Probe<B> {
    inner: B,
    first_mode: usize,
    timed: bool,
    /// `begin_mode(first_mode)` and `reset` marks, in call order.
    pub marks: Vec<Mark>,
    /// Timed calls (empty unless `timed`).
    pub calls: Vec<Call>,
}

impl<B: MttkrpBackend> Probe<B> {
    /// Wraps `inner` for an `ndim`-mode tensor.
    pub fn new(inner: B, ndim: usize, timed: bool) -> Self {
        let first_mode = inner.mode_order(ndim)[0];
        Probe { inner, first_mode, timed, marks: Vec::new(), calls: Vec::new() }
    }
}

impl<B: MttkrpBackend> MttkrpBackend for Probe<B> {
    fn begin_mode(&mut self, mode: usize) {
        if mode == self.first_mode {
            self.marks.push(Mark::Begin(Instant::now()));
        }
        self.inner.begin_mode(mode);
    }

    fn mttkrp_into(&mut self, tensor: &SparseTensor, factors: &[Mat], mode: usize, out: &mut Mat) {
        if !self.timed {
            self.inner.mttkrp_into(tensor, factors, mode, out);
            return;
        }
        let allocs0 = alloc::allocations();
        let start = Instant::now();
        self.inner.mttkrp_into(tensor, factors, mode, out);
        let secs = start.elapsed().as_secs_f64();
        let allocs = alloc::allocations() - allocs0;
        self.calls.push(Call { mode, start, secs, allocs });
    }

    fn reset(&mut self) {
        self.marks.push(Mark::Reset);
        self.inner.reset();
    }

    fn mode_order(&self, ndim: usize) -> Vec<usize> {
        self.inner.mode_order(ndim)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn structure_bytes(&self) -> usize {
        self.inner.structure_bytes()
    }

    fn predicted_iter_ns(&self) -> Option<f64> {
        self.inner.predicted_iter_ns()
    }
}
