//! Sparse tensor substrate for CP decomposition.
//!
//! This crate provides everything below the decomposition algorithms:
//!
//! * [`coo`] — the coordinate (COO) sparse tensor, stored
//!   structure-of-arrays (one index array per mode plus a value array),
//!   which is both the interchange format (FROSTT) and the root of every
//!   dimension tree;
//! * [`keys`] — packed `u64` sort keys: entry ids ordered by their index
//!   tuples, and the runs of equal tuples, for every multi-mode sort;
//! * [`groups`] — entry groupings refined one mode at a time, which size
//!   the planner's candidate nodes;
//! * [`sorted`] — per-mode sorted views used to parallelize COO MTTKRP
//!   without atomics;
//! * [`dense`] — a small dense tensor used as a brute-force oracle in tests
//!   and for tiny examples;
//! * [`csf`] — compressed sparse fiber storage and the SPLATT-style
//!   fiber-reusing MTTKRP, the state-of-the-art baseline the paper
//!   compares against;
//! * [`mttkrp`] — the element-wise COO MTTKRP baseline (Tensor-Toolbox
//!   style);
//! * [`schedule`] — nnz-balanced static schedules and reusable kernel
//!   workspaces shared by the parallel MTTKRP paths;
//! * [`io`] — FROSTT `.tns` text and a compact binary format;
//! * [`gen`] — synthetic tensor generators (uniform, Zipf-skewed,
//!   low-rank-plus-noise) and shape-faithful proxies for the real datasets
//!   used in the paper's line of work;
//! * [`text`] — decimal text for model files and `.tns` output, byte for
//!   byte what `{}` prints, through one reused buffer;
//! * [`stats`] — dataset characteristics and projection-collapse
//!   statistics used by the planner's experiments;
//! * [`error`] — typed errors for the fallible construction entry
//!   points;
//! * [`audit`] (feature `audit`) — the runtime write-overlap detector the
//!   parallel MTTKRP kernels use to prove their row-disjointness claim.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(feature = "audit")]
pub mod audit;
pub mod coo;
pub mod csf;
pub mod dense;
pub mod error;
pub mod gen;
pub mod groups;
pub mod io;
pub mod keys;
pub mod mttkrp;
pub mod schedule;
pub mod sorted;
pub mod stats;
pub mod text;

pub use coo::SparseTensor;
pub use csf::CsfTensor;
pub use dense::DenseTensor;
pub use error::TensorError;
pub use sorted::SortedModeView;
