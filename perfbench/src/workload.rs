//! The benchmark's workloads: which tensor, and how it is decomposed.
//! `README.md` in this directory records why each was chosen.
//!
//! Each workload's tensor is fixed (its registry spec and seed); the
//! benchmark's `--seed` draws the order in which the nonzeros are written
//! to the `.tns` file. Loading sorts them, so every seed decomposes the
//! same tensor bitwise and `iters` and `fit` repeat exactly, while the
//! parser still sees a different file on every seed. Iterations to a
//! tolerance on random data swing by up to a fifth between tensors drawn
//! from different seeds, which no run length can average out.

use adatm::tensor::gen::{proxy_datasets, random_nd, DatasetSpec};
use adatm::SparseTensor;

/// Nonzero scale of the proxy specs (0.1: deli4d has 150k nnz).
const SCALE: f64 = 0.1;

/// One workload.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// The input's shape, skew and (fixed) generator seed.
    pub spec: DatasetSpec,
    /// Decomposition rank.
    pub rank: usize,
    /// `RAYON_NUM_THREADS` for the CLI child and the in-process runs.
    pub threads: usize,
    /// Iteration cap (the stop rule when `tol` is 0).
    pub max_iters: usize,
    /// Fit-change tolerance (0: run exactly `max_iters`).
    pub tol: f64,
    /// Pairwise-perturbation entry threshold (`--pp-tol`), if enabled.
    pub pp_tol: Option<f64>,
    /// Checkpoint cadence in iterations (`--checkpoint-every`), if enabled.
    pub ckpt_every: Option<usize>,
}

/// Every workload name, in the order `--smoke` runs them.
pub const NAMES: [&str; 3] = ["deli4d", "random8d", "nell3d-ckpt"];

fn proxy(name: &str) -> DatasetSpec {
    proxy_datasets(SCALE)
        .into_iter()
        .find(|s| s.name == name)
        .expect("the proxy registry defines deli4d and nell3d")
}

/// `spec` with its long modes (over 1000) and its nonzero count divided
/// by `k`, which keeps its density and skew.
fn shrunk(mut spec: DatasetSpec, k: usize) -> DatasetSpec {
    for d in &mut spec.dims {
        if *d > 1_000 {
            *d /= k;
        }
    }
    spec.nnz /= k;
    spec
}

/// The workload called `name`.
pub fn by_name(name: &str) -> Option<Workload> {
    let (name, spec, threads, max_iters, tol, pp_tol, ckpt_every) = match name {
        // Skewed 4-mode tensor, the planner's home ground, at a quarter of
        // the proxy's 0.1-scale size so that a run holds ~30 rounds.
        "deli4d" => ("deli4d", shrunk(proxy("deli4d"), 4), 1, 10, 0.0, None, None),
        // Uniform 8-mode tensor: flat tree, 8 kernel calls per iteration,
        // the largest plan search. Quarter-length modes (12.5k).
        "random8d" => ("random8d", shrunk(random_nd(8, SCALE), 4), 1, 7, 0.0, None, None),
        // Tall-factor 3-mode tensor to tolerance, with PP and checkpoints,
        // at an eighth of the proxy's size; tol 3e-5 stops it after PP has
        // engaged and four checkpoints are written.
        "nell3d-ckpt" => {
            ("nell3d-ckpt", shrunk(proxy("nell3d"), 8), 1, 200, 3e-5, Some(0.02), Some(10))
        }
        _ => return None,
    };
    Some(Workload { name, spec, rank: 16, threads, max_iters, tol, pp_tol, ckpt_every })
}

impl Workload {
    /// A tiny version of the workload that exercises every code path in
    /// well under a second.
    pub fn shrink(mut self) -> Self {
        for d in &mut self.spec.dims {
            *d = (*d).min(300);
        }
        self.spec.nnz = 3_000;
        self.rank = 4;
        self.max_iters = self.max_iters.min(40);
        self.tol = 0.0;
        self.ckpt_every = self.ckpt_every.map(|_| 2);
        self
    }

    /// The workload's tensor with its nonzeros in an order drawn from
    /// `seed` (a Fisher-Yates shuffle driven by SplitMix64).
    pub fn input(&self, seed: u64) -> SparseTensor {
        let t = self.spec.build();
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut order: Vec<usize> = (0..t.nnz()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, (next() % (i as u64 + 1)) as usize);
        }
        let inds =
            (0..t.ndim()).map(|d| order.iter().map(|&k| t.mode_idx(d)[k]).collect()).collect();
        let vals = order.iter().map(|&k| t.vals()[k]).collect();
        SparseTensor::new(t.dims().to_vec(), inds, vals)
    }
}
