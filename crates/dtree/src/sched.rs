// lint: hot-path
//! Persistent schedule for the parallel scatter ("push") TTMV kernel.
//!
//! The scatter kernel streams the parent's elements and accumulates each
//! contribution into the child row its reduction set puts it in. It runs
//! only under a schedule, on more than one thread (see
//! [`crate::symbolic::scatter_scheduled`]); without one, the engine pulls
//! every node, which adds each child row's contributions in the same
//! ascending parent order. The parallel form privatizes accumulators per
//! parent chunk: a [`ScatterSchedule`] is computed once per (node, thread
//! count) and records, for each parent chunk, exactly the child rows the
//! chunk touches plus a compact per-element index into them, so the
//! parallel phase accumulates into `touched x R` buffers and the merge is
//! a cheap per-row reduction. The inverse reduction map it needs is
//! derived from the node's `rptr`/`rperm` while building and not kept.
//! [`run_scatter`] runs one kernel call over it.

use adatm_linalg::kernels;
use adatm_tensor::schedule::Workspace;
use rayon::prelude::*;
use std::ops::Range;

/// Parent chunks created per worker thread (same slack rule as the
/// mode schedules in `adatm-tensor`).
const CHUNKS_PER_THREAD: usize = 4;

/// Minimum parent elements per chunk; below this, per-chunk overhead
/// (touched-row lists, merge) dominates.
const MIN_CHUNK: usize = 1024;

/// A persistent schedule for one node's parallel scatter kernel.
#[derive(Clone, Debug)]
pub struct ScatterSchedule {
    /// Chunk boundaries over the parent's elements (`nchunks + 1`).
    chunk_ptr: Vec<usize>,
    /// Flat touched-row lists: chunk `c` touches child rows
    /// `rows[row_ptr[c]..row_ptr[c + 1]]`, in first-touch order.
    row_ptr: Vec<usize>,
    rows: Vec<u32>,
    /// `cmap[j]`: index of the child row parent element `j` reduces into,
    /// within its chunk's touched-row list.
    cmap: Vec<u32>,
}

impl ScatterSchedule {
    /// Builds the schedule for a node whose element `e` reduces parent
    /// elements `rperm[rptr[e]..rptr[e + 1]]`, balanced for `threads`
    /// workers.
    pub fn build(rptr: &[usize], rperm: &[u32], threads: usize) -> Self {
        // The inverse reduction map: pmap[j] is the element parent
        // element j reduces into.
        let mut pmap = vec![0u32; rperm.len()];
        for (e, w) in rptr.windows(2).enumerate() {
            for &j in &rperm[w[0]..w[1]] {
                pmap[j as usize] = e as u32;
            }
        }
        Self::from_map(&pmap, rptr.len().saturating_sub(1), threads)
    }

    /// Builds the schedule from an inverse reduction map (`pmap[j]` is
    /// the child row parent element `j` reduces into, `< child_len`),
    /// balanced for `threads` workers.
    pub fn from_map(pmap: &[u32], child_len: usize, threads: usize) -> Self {
        let parent_len = pmap.len();
        let max_chunks = parent_len.div_ceil(MIN_CHUNK).max(1);
        let nchunks = (threads.max(1) * CHUNKS_PER_THREAD).min(max_chunks);
        let per = parent_len.div_ceil(nchunks).max(1);
        let mut chunk_ptr = Vec::with_capacity(nchunks + 1);
        let mut lo = 0usize;
        chunk_ptr.push(0);
        while lo < parent_len {
            lo = (lo + per).min(parent_len);
            chunk_ptr.push(lo);
        }
        if chunk_ptr.len() == 1 {
            chunk_ptr.push(0); // empty parent: one empty chunk
        }
        let nchunks = chunk_ptr.len() - 1;
        let mut row_ptr = Vec::with_capacity(nchunks + 1);
        let mut rows = Vec::new();
        let mut cmap = vec![0u32; parent_len];
        // First-touch compaction per chunk, with a reusable child-indexed
        // scratch map (`u32::MAX` = untouched this chunk).
        let mut local = vec![u32::MAX; child_len];
        row_ptr.push(0);
        for c in 0..nchunks {
            let base = rows.len();
            for j in chunk_ptr[c]..chunk_ptr[c + 1] {
                let e = pmap[j] as usize;
                if local[e] == u32::MAX {
                    local[e] = (rows.len() - base) as u32;
                    rows.push(e as u32);
                }
                cmap[j] = local[e];
            }
            for &e in &rows[base..] {
                local[e as usize] = u32::MAX;
            }
            row_ptr.push(rows.len());
        }
        ScatterSchedule { chunk_ptr, row_ptr, rows, cmap }
    }

    /// Number of parent chunks.
    pub fn num_chunks(&self) -> usize {
        self.chunk_ptr.len() - 1
    }

    /// Parent-element range of chunk `c`.
    pub fn chunk(&self, c: usize) -> Range<usize> {
        self.chunk_ptr[c]..self.chunk_ptr[c + 1]
    }

    /// Child rows chunk `c` touches, in first-touch order.
    pub fn chunk_rows(&self, c: usize) -> &[u32] {
        &self.rows[self.row_ptr[c]..self.row_ptr[c + 1]]
    }

    /// Compact per-parent-element index into its chunk's touched rows.
    pub fn cmap(&self) -> &[u32] {
        &self.cmap
    }

    /// Total accumulator rows across all chunks (workspace sizing).
    pub fn total_rows(&self) -> usize {
        self.rows.len()
    }

    /// Whether the schedule degenerates to one chunk (sequential path).
    pub fn is_sequential(&self) -> bool {
        self.num_chunks() <= 1
    }

    /// Approximate bytes held by the schedule (diagnostics).
    pub fn structure_bytes(&self) -> usize {
        (self.chunk_ptr.len() + self.row_ptr.len()) * std::mem::size_of::<usize>()
            + (self.rows.len() + self.cmap.len()) * std::mem::size_of::<u32>()
    }
}

/// Runs one scatter kernel call over `sched`: `body(j0, map, acc)` adds
/// the contribution of parent element `j0 + k` into row `map[k]` of
/// `acc`, a buffer of `width`-value rows, for every `k` in `map`.
///
/// Each chunk accumulates into its compact touched rows (`ws` slot rows,
/// zeroed) in parallel. Then `out` is zeroed and the merge adds the slot
/// rows into it chunk by chunk, child element `e`'s into row `row_of(e)`:
/// the node's own value rows, or a leaf's rows of `M`. Per-call
/// allocation is the chunk list: O(chunks), never O(parent).
#[adatm::hot]
pub(crate) fn run_scatter<R, B>(
    sched: &ScatterSchedule,
    out: &mut [f64],
    width: usize,
    row_of: R,
    ws: &mut Workspace,
    body: B,
) where
    R: Fn(usize) -> usize,
    B: Fn(usize, &[u32], &mut [f64]) + Sync,
{
    let nchunks = sched.num_chunks();
    let (_, slots) = ws.ensure(0, sched.total_rows() * width);
    let mut parts = Vec::with_capacity(nchunks);
    let mut acc_rest = &mut *slots;
    for c in 0..nchunks {
        let (acc, tail) =
            std::mem::take(&mut acc_rest).split_at_mut(sched.chunk_rows(c).len() * width);
        acc_rest = tail;
        parts.push((c, acc));
    }
    parts.into_par_iter().for_each(|(c, acc)| {
        let js = sched.chunk(c);
        body(js.start, &sched.cmap[js], acc);
    });
    // Touched-row lists and slot rows share one layout: chunk by chunk,
    // each chunk's rows in first-touch order.
    out.fill(0.0);
    for (&e, srow) in sched.rows.iter().zip(slots.chunks_exact(width)) {
        let r = row_of(e as usize) * width;
        kernels::add_assign(&mut out[r..r + width], srow);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_parent_exactly() {
        let pmap: Vec<u32> = (0..10_000).map(|j| (j % 37) as u32).collect();
        let s = ScatterSchedule::from_map(&pmap, 37, 4);
        assert!(s.num_chunks() > 1);
        let mut seen = 0usize;
        for c in 0..s.num_chunks() {
            let r = s.chunk(c);
            assert_eq!(r.start, seen);
            seen = r.end;
        }
        assert_eq!(seen, pmap.len());
    }

    #[test]
    fn cmap_points_at_the_right_row() {
        let pmap: Vec<u32> = (0..8_192).map(|j| ((j * 7) % 5) as u32).collect();
        let s = ScatterSchedule::from_map(&pmap, 5, 2);
        for c in 0..s.num_chunks() {
            let rows = s.chunk_rows(c);
            for j in s.chunk(c) {
                assert_eq!(rows[s.cmap()[j] as usize], pmap[j], "element {j}");
            }
        }
    }

    #[test]
    fn touched_rows_are_distinct_within_a_chunk() {
        let pmap: Vec<u32> = (0..6_000).map(|j| (j % 11) as u32).collect();
        let s = ScatterSchedule::from_map(&pmap, 11, 3);
        for c in 0..s.num_chunks() {
            let mut rows = s.chunk_rows(c).to_vec();
            rows.sort_unstable();
            rows.dedup();
            assert_eq!(rows.len(), s.chunk_rows(c).len(), "chunk {c}");
        }
    }

    #[test]
    fn narrow_child_has_small_accumulators() {
        // The point of the schedule: a 4-row child touched by a huge
        // parent must not privatize more than 4 rows per chunk.
        let pmap: Vec<u32> = (0..100_000).map(|j| (j % 4) as u32).collect();
        let s = ScatterSchedule::from_map(&pmap, 4, 8);
        for c in 0..s.num_chunks() {
            assert!(s.chunk_rows(c).len() <= 4);
        }
        assert!(s.total_rows() <= 4 * s.num_chunks());
    }

    #[test]
    fn single_thread_is_sequential() {
        let pmap: Vec<u32> = (0..5_000).map(|j| (j % 9) as u32).collect();
        let s = ScatterSchedule::from_map(&pmap, 9, 1);
        // 5000 elements < 4 * MIN_CHUNK, so few chunks; with 1 thread the
        // chunk count is bounded by CHUNKS_PER_THREAD anyway.
        assert!(s.num_chunks() <= 4);
    }

    #[test]
    fn build_derives_the_inverse_map_from_the_reduction_sets() {
        // Element e reduces the parent elements j with j % 3 == e.
        let rperm: Vec<u32> = (0..3u32).flat_map(|e| (e..5_000).step_by(3)).collect();
        let sizes = [1667usize, 1667, 1666];
        let rptr: Vec<usize> = std::iter::once(0)
            .chain(sizes.iter().scan(0, |at, n| Some(std::mem::replace(at, *at + n) + n)))
            .collect();
        let pmap: Vec<u32> = (0..5_000u32).map(|j| j % 3).collect();
        let (a, b) =
            (ScatterSchedule::build(&rptr, &rperm, 2), ScatterSchedule::from_map(&pmap, 3, 2));
        assert!(a.num_chunks() > 1);
        assert_eq!(
            (a.chunk_ptr, a.row_ptr, a.rows, a.cmap),
            (b.chunk_ptr, b.row_ptr, b.rows, b.cmap)
        );
    }

    #[test]
    fn empty_parent_is_harmless() {
        let s = ScatterSchedule::from_map(&[], 3, 4);
        assert_eq!(s.num_chunks(), 1);
        assert!(s.is_sequential());
        assert_eq!(s.total_rows(), 0);
    }
}
