//! The model-driven memoization planner — the paper's core contribution.
//!
//! Memoizing partial MTTKRP products trades memory for flops, and the
//! right trade depends on the tensor: how much its nonzero index set
//! collapses under projection onto each candidate mode subset. Rather
//! than hardcoding one strategy (SPLATT: none; Phan et al.: one split;
//! Kaya–Uçar: a balanced binary tree) or auto-tuning empirically, the
//! planner *predicts* the per-iteration cost and memory of every
//! candidate dimension tree from cheap estimates of intermediate nonzero
//! counts, and picks the best strategy before any numeric work runs.
//!
//! * [`estimate`] — intermediate-nnz estimators: exact (all entries),
//!   sampled (a stride sample, with a Chao-style scale-up), both counted
//!   by refining one cached grouping per subset, and analytic
//!   (uniform-occupancy closed form);
//! * [`cost`] — the per-iteration flop model, the peak-live-value-memory
//!   model (which follows the tree-path invariant of the engine's
//!   invalidation protocol), index storage, and symbolic (one-time) cost;
//! * [`search`] — the strategy space walkers: named baseline shapes, the
//!   interval dynamic program over a mode permutation (`O(N³)` model
//!   evaluations), and the exact subset DP for small orders;
//! * [`plan`] — the [`plan::Planner`] facade combining them
//!   under a memory budget.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod estimate;
pub mod plan;
pub mod profile;
pub mod search;

pub use cost::CostBreakdown;
pub use estimate::NnzEstimator;
pub use plan::{AdmissionError, MemoPlan, Objective, Planner};
pub use profile::{ClassRate, EnvProfile, KernelClass, KernelProfile};
