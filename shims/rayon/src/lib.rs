//! Offline drop-in subset of the `rayon` API.
//!
//! The build container has no network access and no vendored registry, so
//! the workspace replaces its `rayon` dependency with this shim (see
//! `[workspace.dependencies]` in the root manifest). It reproduces exactly
//! the combinator surface the workspace uses — `into_par_iter` (ranges
//! and vectors), `map` + `reduce`, `enumerate`, `zip`,
//! `fold` + `reduce`, `for_each`, `par_chunks`, `par_chunks_mut` — with
//! real data parallelism via [`std::thread::scope`]: each terminal
//! operation splits its items into one contiguous block per worker and
//! joins in order, so outputs are position-stable just as with rayon.
//!
//! Differences from rayon, none observable by this workspace:
//!
//! * items are materialized before the terminal operation (the kernels
//!   iterate slices/ranges whose item collections are small relative to
//!   the data they touch);
//! * work is split statically, not stolen — fine for the regular,
//!   equal-cost chunks the kernels produce;
//! * [`ThreadPool::install`] only scopes the thread *count* (a thread-local
//!   override read by [`current_num_threads`]); it does not pin OS threads.
//!
//! Outside an installed pool the thread count is the global one, resolved
//! from `RAYON_NUM_THREADS` (else the available parallelism) once per
//! process, as rayon does when it builds its global pool.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;
use std::fmt;
use std::ops::Range;
use std::sync::OnceLock;

thread_local! {
    /// Thread-count override installed by [`ThreadPool::install`].
    static POOL_THREADS: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Number of worker threads terminal operations will use: the installed
/// pool's size if inside [`ThreadPool::install`], else the global count —
/// `RAYON_NUM_THREADS` if set, else the machine's available parallelism.
///
/// As with rayon, which reads the variable once when it builds its global
/// pool, the global count is resolved on the first call outside an
/// installed pool and kept for the life of the process; later changes to
/// the variable are not seen. Installed pools still override it.
pub fn current_num_threads() -> usize {
    static GLOBAL_THREADS: OnceLock<usize> = OnceLock::new();
    if let Some(n) = POOL_THREADS.with(Cell::get) {
        return n;
    }
    *GLOBAL_THREADS.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, usize::from))
    })
}

/// Error type returned by [`ThreadPoolBuilder::build`] (never produced;
/// kept for signature compatibility).
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "thread pool construction failed")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder for a scoped-thread-count "pool".
#[derive(Clone, Copy, Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// Creates a builder with the default thread count.
    pub fn new() -> Self {
        ThreadPoolBuilder { num_threads: 0 }
    }

    /// Sets the worker count (0 = default).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Builds the pool. Infallible in this shim.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let n = if self.num_threads == 0 {
            std::thread::available_parallelism().map_or(1, usize::from)
        } else {
            self.num_threads
        };
        Ok(ThreadPool { num_threads: n })
    }
}

/// A "pool": a scoped thread-count override.
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Runs `f` with [`current_num_threads`] reporting this pool's size.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        let prev = POOL_THREADS.with(|c| c.replace(Some(self.num_threads)));
        let out = f();
        POOL_THREADS.with(|c| c.set(prev));
        out
    }
}

/// Runs `f` over `items`, one contiguous block per worker, preserving item
/// order in the result. The sequential path is taken for tiny inputs or a
/// single worker.
fn run_map<T: Send, U: Send, F>(items: Vec<T>, f: F) -> Vec<U>
where
    F: Fn(T) -> U + Sync,
{
    let workers = current_num_threads().min(items.len().max(1));
    if workers <= 1 || items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }
    let mut blocks: Vec<Vec<T>> = Vec::with_capacity(workers);
    let chunk = items.len().div_ceil(workers);
    let mut rest = items;
    while rest.len() > chunk {
        let tail = rest.split_off(chunk);
        blocks.push(std::mem::replace(&mut rest, tail));
    }
    blocks.push(rest);
    let fref = &f;
    let outputs: Vec<Vec<U>> = std::thread::scope(|scope| {
        let handles: Vec<_> = blocks
            .into_iter()
            .map(|block| scope.spawn(move || block.into_iter().map(fref).collect::<Vec<U>>()))
            .collect();
        handles.into_iter().map(|h| h.join().expect("shim worker panicked")).collect()
    });
    outputs.into_iter().flatten().collect()
}

/// Runs `fold` per worker block (seeded by `identity`) and returns the
/// per-block accumulators in block order.
fn run_fold<T: Send, A: Send, ID, F>(items: Vec<T>, identity: ID, fold: F) -> Vec<A>
where
    ID: Fn() -> A + Sync,
    F: Fn(A, T) -> A + Sync,
{
    let workers = current_num_threads().min(items.len().max(1));
    if workers <= 1 || items.len() <= 1 {
        return vec![items.into_iter().fold(identity(), fold)];
    }
    let mut blocks: Vec<Vec<T>> = Vec::with_capacity(workers);
    let chunk = items.len().div_ceil(workers);
    let mut rest = items;
    while rest.len() > chunk {
        let tail = rest.split_off(chunk);
        blocks.push(std::mem::replace(&mut rest, tail));
    }
    blocks.push(rest);
    let (idref, foldref) = (&identity, &fold);
    std::thread::scope(|scope| {
        let handles: Vec<_> = blocks
            .into_iter()
            .map(|block| scope.spawn(move || block.into_iter().fold(idref(), foldref)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("shim worker panicked")).collect()
    })
}

/// An eager parallel iterator over materialized items.
///
/// All adapters preserve item order; terminal operations split the items
/// into per-worker blocks.
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Maps each item through `f` (lazily; applied at the terminal op).
    pub fn map<U: Send, F>(self, f: F) -> MapIter<T, F>
    where
        F: Fn(T) -> U + Sync,
    {
        MapIter { items: self.items, f }
    }

    /// Pairs each item with its index.
    pub fn enumerate(self) -> ParIter<(usize, T)> {
        ParIter { items: self.items.into_iter().enumerate().collect() }
    }

    /// Zips with another parallel iterator, truncating to the shorter.
    pub fn zip<U: Send>(self, other: ParIter<U>) -> ParIter<(T, U)> {
        ParIter { items: self.items.into_iter().zip(other.items).collect() }
    }

    /// Per-worker fold producing one accumulator per block.
    pub fn fold<A, ID, F>(self, identity: ID, fold: F) -> FoldIter<A>
    where
        A: Send,
        ID: Fn() -> A + Sync,
        F: Fn(A, T) -> A + Sync,
    {
        FoldIter { accs: run_fold(self.items, identity, fold) }
    }

    /// Applies `f` to every item in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(T) + Sync,
    {
        let _ = run_map(self.items, f);
    }
}

/// Lazy `map` adapter; the closure runs in parallel at the terminal op.
pub struct MapIter<T, F> {
    items: Vec<T>,
    f: F,
}

impl<T: Send, U: Send, F> MapIter<T, F>
where
    F: Fn(T) -> U + Sync,
{
    /// Reduces the mapped items directly.
    pub fn reduce<ID, G>(self, identity: ID, reduce: G) -> U
    where
        ID: Fn() -> U + Sync,
        G: Fn(U, U) -> U + Sync,
    {
        run_map(self.items, self.f).into_iter().fold(identity(), reduce)
    }
}

/// Result of a per-worker `fold`: one accumulator per block.
pub struct FoldIter<A> {
    accs: Vec<A>,
}

impl<A: Send> FoldIter<A> {
    /// Combines the per-block accumulators (sequentially — there are at
    /// most `current_num_threads()` of them).
    pub fn reduce<ID, F>(self, identity: ID, reduce: F) -> A
    where
        ID: Fn() -> A + Sync,
        F: Fn(A, A) -> A + Sync,
    {
        self.accs.into_iter().fold(identity(), reduce)
    }
}

/// Conversion into a [`ParIter`] (subset of rayon's trait of the same
/// name).
pub trait IntoParallelIterator {
    /// The item type.
    type Item: Send;
    /// Materializes the parallel iterator.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl IntoParallelIterator for Range<usize> {
    type Item = usize;
    fn into_par_iter(self) -> ParIter<usize> {
        ParIter { items: self.collect() }
    }
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

/// Parallel operations on shared slices (subset of rayon's
/// `ParallelSlice`).
pub trait ParallelSlice<T: Sync> {
    /// Parallel iterator over `chunk_size`-sized chunks.
    fn par_chunks(&self, chunk_size: usize) -> ParIter<&[T]>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_chunks(&self, chunk_size: usize) -> ParIter<&[T]> {
        assert!(chunk_size > 0, "chunk size must be positive");
        ParIter { items: self.chunks(chunk_size).collect() }
    }
}

/// Parallel operations on mutable slices (subset of rayon's
/// `ParallelSliceMut`).
pub trait ParallelSliceMut<T: Send> {
    /// Parallel iterator over mutable `chunk_size`-sized chunks.
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<&mut [T]>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<&mut [T]> {
        assert!(chunk_size > 0, "chunk size must be positive");
        ParIter { items: self.chunks_mut(chunk_size).collect() }
    }
}

/// The traits and types a `use rayon::prelude::*` import expects.
pub mod prelude {
    pub use super::{IntoParallelIterator, ParallelSlice, ParallelSliceMut};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn fold_reduce_sums_everything_once() {
        let total: u64 = (0..10_000usize)
            .into_par_iter()
            .fold(|| 0u64, |acc, x| acc + x as u64)
            .reduce(|| 0u64, |a, b| a + b);
        assert_eq!(total, 10_000 * 9_999 / 2);
    }

    #[test]
    fn chunks_mut_zip_writes_disjointly() {
        let src: Vec<f64> = (0..64).map(f64::from).collect();
        let mut dst = vec![0.0f64; 64];
        dst.par_chunks_mut(8).zip(src.par_chunks(8)).for_each(|(d, s)| d.copy_from_slice(s));
        assert_eq!(dst, src);
    }

    #[test]
    fn chunks_mut_enumerate_sees_block_indices() {
        let mut v = vec![0usize; 40];
        v.par_chunks_mut(16).enumerate().for_each(|(ci, block)| {
            for x in block.iter_mut() {
                *x = ci;
            }
        });
        assert_eq!(v[0], 0);
        assert_eq!(v[16], 1);
        assert_eq!(v[32], 2);
    }

    #[test]
    fn install_scopes_thread_count() {
        let n = ThreadPoolBuilder::new()
            .num_threads(3)
            .build()
            .expect("infallible")
            .install(current_num_threads);
        assert_eq!(n, 3);
        assert!(current_num_threads() >= 1);
    }
}
