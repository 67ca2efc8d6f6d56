//! Schedule-disjointness prover: an exhaustive small-universe model
//! check that the parallel schedules only ever produce disjoint writes.
//!
//! The parallel MTTKRP kernels take their write pattern entirely from a
//! [`ModeSchedule`] (tensor modes) or a `ScatterSchedule` (dimension-tree
//! push kernels): an `Owned` task writes the output rows of its group
//! range, a `Split` sub-task writes its private slot row, and a scatter
//! chunk writes its own accumulator segment. So "the kernels are
//! race-free" reduces to a property of the schedule builders — one that
//! a model checker can verify *exhaustively* on a bounded universe
//! instead of sampling.
//!
//! The abstraction that makes the universe small: a tensor reaches
//! `ModeSchedule::build` only as a per-group nonzero-weight vector, so
//! checking every weight vector with ≤ 6 groups summing to ≤ 24 covers
//! *every* tensor with ≤ 4 modes × ≤ 6 rows per mode × ≤ 24 nonzeros —
//! each mode's schedule is built independently from its own vector. On
//! top of the default build, explicit low targets force the split paths
//! that real inputs of this size would never trigger (`MIN_TASK_WEIGHT`
//! hides them), and a weighted pass exercises non-uniform element
//! weights. `ScatterSchedule` gets the same treatment over all small
//! inverse-reduction maps plus structured large ones (the `MIN_CHUNK`
//! floor makes small parents single-chunk, so multi-chunk behavior needs
//! large parents).
//!
//! The verifiers take plain task/descriptor data, not the opaque
//! schedule types, so fixture tests can hand-corrupt a schedule and
//! watch the prover reject it — and the `audit-agree` proptests can
//! assert the prover and the runtime overlap detector
//! (`adatm_tensor::audit::check_schedule_claims`) agree.

use adatm_tensor::schedule::{ModeSchedule, SplitGroup, Task};
use rayon::prelude::*;

/// Outcome of a prover run.
#[derive(Clone, Debug, Default)]
pub struct ProverReport {
    /// `ModeSchedule`s built and verified.
    pub mode_builds: u64,
    /// Of those, schedules that actually contained split sub-tasks.
    pub mode_split_builds: u64,
    /// `ScatterSchedule`s built and verified.
    pub scatter_builds: u64,
    /// Violations, capped at [`MAX_FAILURES`] messages.
    pub failures: Vec<String>,
}

/// Failure messages kept per report (the first one is already a bug).
pub const MAX_FAILURES: usize = 20;

impl ProverReport {
    /// Whether the universe verified clean.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    fn merge(mut self, other: ProverReport) -> ProverReport {
        self.mode_builds += other.mode_builds;
        self.mode_split_builds += other.mode_split_builds;
        self.scatter_builds += other.scatter_builds;
        for f in other.failures {
            if self.failures.len() < MAX_FAILURES {
                self.failures.push(f);
            }
        }
        self
    }

    fn fail(&mut self, msg: String) {
        if self.failures.len() < MAX_FAILURES {
            self.failures.push(msg);
        }
    }
}

/// Verifies that a mode schedule's tasks describe a disjoint, complete
/// write pattern over `elem_counts.len()` groups, where group `g` has
/// `elem_counts[g]` splittable elements.
///
/// Disjointness follows from the checked structure: each group's output
/// row is written by exactly one `Owned` task or one post-merge
/// reduction, each slot row by exactly one `Split` sub-task, and no slot
/// is shared between groups.
pub fn verify_mode_schedule(
    tasks: &[Task],
    splits: &[SplitGroup],
    num_slots: usize,
    elem_counts: &[usize],
) -> Result<(), String> {
    let n = elem_counts.len();
    // 0 = uncovered, 1 = owned, 2 = split.
    let mut cover = vec![0u8; n];
    let mut split_ranges: Vec<(usize, std::ops::Range<usize>, usize)> = Vec::new();
    let mut slot_used = vec![false; num_slots];
    for t in tasks {
        match t {
            Task::Owned { groups } => {
                if groups.start >= groups.end || groups.end > n {
                    return Err(format!("owned range {groups:?} out of bounds (n={n})"));
                }
                for g in groups.clone() {
                    if cover[g] != 0 {
                        return Err(format!("group {g} covered twice (owned)"));
                    }
                    cover[g] = 1;
                }
            }
            Task::Split { group, elems, slot } => {
                if *group >= n {
                    return Err(format!("split group {group} out of bounds (n={n})"));
                }
                if cover[*group] == 1 {
                    return Err(format!("group {group} both owned and split"));
                }
                cover[*group] = 2;
                if elems.start >= elems.end || elems.end > elem_counts[*group] {
                    return Err(format!(
                        "split of group {group} has bad element range {elems:?} \
                         (elems={})",
                        elem_counts[*group]
                    ));
                }
                if *slot >= num_slots {
                    return Err(format!("slot {slot} out of bounds (slots={num_slots})"));
                }
                if slot_used[*slot] {
                    return Err(format!("slot {slot} assigned to two sub-tasks"));
                }
                slot_used[*slot] = true;
                split_ranges.push((*group, elems.clone(), *slot));
            }
        }
    }
    for (g, &c) in cover.iter().enumerate() {
        if c == 0 {
            return Err(format!("group {g} not covered by any task"));
        }
    }
    if let Some(s) = slot_used.iter().position(|&u| !u) {
        return Err(format!("slot {s} allocated but never assigned"));
    }
    // Per split group: element ranges must tile 0..elem_counts[g], the
    // sub-task count must be ≥ 2 (a 1-way split should have been demoted
    // to Owned), and exactly one descriptor must cover its slots.
    split_ranges.sort_by_key(|(g, r, _)| (*g, r.start));
    let mut i = 0usize;
    while i < split_ranges.len() {
        let g = split_ranges[i].0;
        let mut j = i;
        let mut expect = 0usize;
        let mut slots_of_g = Vec::new();
        while j < split_ranges.len() && split_ranges[j].0 == g {
            let (_, r, s) = &split_ranges[j];
            if r.start != expect {
                return Err(format!(
                    "group {g} elements [{expect}, {}) not covered exactly once",
                    r.start
                ));
            }
            expect = r.end;
            slots_of_g.push(*s);
            j += 1;
        }
        if expect != elem_counts[g] {
            return Err(format!("group {g} elements [{expect}, {}) not covered", elem_counts[g]));
        }
        if slots_of_g.len() < 2 {
            return Err(format!("group {g} split into a single sub-task (undemoted)"));
        }
        let desc: Vec<_> = splits.iter().filter(|s| s.group == g).collect();
        if desc.len() != 1 {
            return Err(format!("group {g} has {} merge descriptors", desc.len()));
        }
        let d = desc[0];
        slots_of_g.sort_unstable();
        let expected: Vec<usize> = (d.slot0..d.slot0 + d.nslots).collect();
        if slots_of_g != expected {
            return Err(format!(
                "group {g} merge descriptor ({}..{}) does not match its sub-task \
                 slots {slots_of_g:?}",
                d.slot0,
                d.slot0 + d.nslots
            ));
        }
        i = j;
    }
    // No descriptor may exist for a group without split tasks.
    for d in splits {
        if !split_ranges.iter().any(|(g, _, _)| *g == d.group) {
            return Err(format!("merge descriptor for group {} with no sub-tasks", d.group));
        }
    }
    Ok(())
}

/// Convenience wrapper over a freshly built schedule (uniform elements:
/// group `g` has `weights[g]` elements of weight 1).
pub fn verify_built(s: &ModeSchedule, elem_counts: &[usize]) -> Result<(), String> {
    verify_mode_schedule(s.tasks(), s.splits(), s.num_slots(), elem_counts)
}

/// Plain-data form of a `ScatterSchedule` (so fixtures can corrupt it).
#[derive(Clone, Debug)]
pub struct ScatterParts {
    /// Chunk boundaries over the parent (`nchunks + 1`, ascending).
    pub chunk_ptr: Vec<usize>,
    /// Touched-row list boundaries (`nchunks + 1`, ascending).
    pub row_ptr: Vec<usize>,
    /// Flat per-chunk touched child rows.
    pub rows: Vec<u32>,
    /// Per parent element: index into its chunk's touched-row list.
    pub cmap: Vec<u32>,
}

impl ScatterParts {
    /// Extracts the parts of a built schedule through its accessors.
    pub fn of(s: &adatm_dtree::sched::ScatterSchedule) -> ScatterParts {
        let nchunks = s.num_chunks();
        let mut chunk_ptr = Vec::with_capacity(nchunks + 1);
        let mut row_ptr = Vec::with_capacity(nchunks + 1);
        let mut rows = Vec::with_capacity(s.total_rows());
        chunk_ptr.push(if nchunks > 0 { s.chunk(0).start } else { 0 });
        row_ptr.push(0);
        for c in 0..nchunks {
            chunk_ptr.push(s.chunk(c).end);
            rows.extend_from_slice(s.chunk_rows(c));
            row_ptr.push(rows.len());
        }
        ScatterParts { chunk_ptr, row_ptr, rows, cmap: s.cmap().to_vec() }
    }
}

/// Verifies a scatter schedule against its inputs: chunks tile the
/// parent, each chunk's touched rows are distinct and in-bounds (so
/// per-chunk accumulator writes are disjoint), the accumulator segments
/// are disjoint, and `cmap` routes every element to the accumulator row
/// of *its own* chunk that maps back to `pmap[j]`.
pub fn verify_scatter_parts(
    p: &ScatterParts,
    pmap: &[u32],
    child_len: usize,
) -> Result<(), String> {
    let parent_len = pmap.len();
    let nchunks = p.chunk_ptr.len().saturating_sub(1);
    if nchunks == 0 {
        return Err("no chunks".to_string());
    }
    if p.row_ptr.len() != nchunks + 1 {
        return Err(format!("row_ptr has {} entries for {nchunks} chunks", p.row_ptr.len()));
    }
    if p.chunk_ptr[0] != 0 || p.chunk_ptr[nchunks] != parent_len {
        return Err(format!(
            "chunks [{}, {}) do not span the parent (len {parent_len})",
            p.chunk_ptr[0], p.chunk_ptr[nchunks]
        ));
    }
    if p.row_ptr[0] != 0 || p.row_ptr[nchunks] != p.rows.len() {
        return Err("row_ptr does not span rows".to_string());
    }
    if p.cmap.len() != parent_len {
        return Err(format!("cmap length {} != parent {parent_len}", p.cmap.len()));
    }
    let mut seen = vec![false; child_len];
    for c in 0..nchunks {
        if p.chunk_ptr[c] > p.chunk_ptr[c + 1] || p.row_ptr[c] > p.row_ptr[c + 1] {
            return Err(format!("chunk {c} boundaries not monotone"));
        }
        let rows = &p.rows[p.row_ptr[c]..p.row_ptr[c + 1]];
        for &r in rows {
            if (r as usize) >= child_len {
                return Err(format!("chunk {c} touches row {r} >= child_len {child_len}"));
            }
            if seen[r as usize] {
                return Err(format!("chunk {c} lists row {r} twice"));
            }
            seen[r as usize] = true;
        }
        #[allow(clippy::needless_range_loop)] // j indexes cmap and pmap in lockstep
        for j in p.chunk_ptr[c]..p.chunk_ptr[c + 1] {
            let k = p.cmap[j] as usize;
            if k >= rows.len() {
                return Err(format!("cmap[{j}] = {k} outside chunk {c}'s {} rows", rows.len()));
            }
            if rows[k] != pmap[j] {
                return Err(format!(
                    "cmap[{j}] routes element to row {} but pmap says {}",
                    rows[k], pmap[j]
                ));
            }
        }
        for &r in rows {
            seen[r as usize] = false;
        }
    }
    Ok(())
}

/// Bounds of the exhaustive mode-schedule universe.
#[derive(Clone, Copy, Debug)]
pub struct ModeUniverse {
    /// Maximum groups per weight vector (rows per mode).
    pub max_groups: usize,
    /// Maximum total weight (nonzeros per mode).
    pub max_total: usize,
}

/// The CI universe: every tensor with ≤ 4 modes × ≤ 6 rows × ≤ 24 nnz.
pub const FULL: ModeUniverse = ModeUniverse { max_groups: 6, max_total: 24 };

/// A small universe for unit tests (sub-second).
pub const QUICK: ModeUniverse = ModeUniverse { max_groups: 4, max_total: 10 };

const THREADS: &[usize] = &[1, 2, 4, 8];
/// `None` = the production target; explicit low targets force splits
/// that `MIN_TASK_WEIGHT` would otherwise hide at this scale.
const TARGETS: &[Option<usize>] = &[None, Some(1), Some(3), Some(8)];

/// Enumerates suffixes of a weight vector and verifies each completion.
fn extend_and_check(prefix: &mut Vec<usize>, len: usize, budget: usize, rep: &mut ProverReport) {
    if prefix.len() == len {
        check_vector(prefix, rep);
        return;
    }
    for w in 0..=budget {
        prefix.push(w);
        extend_and_check(prefix, len, budget - w, rep);
        prefix.pop();
    }
}

/// Runs every (threads, target) configuration over one weight vector.
fn check_vector(weights: &[usize], rep: &mut ProverReport) {
    for &threads in THREADS {
        for &target in TARGETS {
            let s = match target {
                None => ModeSchedule::build(weights, threads),
                Some(t) => ModeSchedule::build_with_target(weights, threads, t),
            };
            rep.mode_builds += 1;
            if s.num_slots() > 0 {
                rep.mode_split_builds += 1;
            }
            if let Err(e) = verify_built(&s, weights) {
                rep.fail(format!(
                    "ModeSchedule(weights={weights:?}, threads={threads}, \
                     target={target:?}): {e}"
                ));
            }
        }
    }
}

/// Exhaustive uniform-element pass over a universe.
pub fn prove_mode_uniform(u: ModeUniverse) -> ProverReport {
    // Parallelize over (length, first element); each task enumerates the
    // remaining entries. Length 0 is the single empty vector.
    let mut seeds: Vec<(usize, usize)> = Vec::new();
    for len in 1..=u.max_groups {
        for first in 0..=u.max_total {
            seeds.push((len, first));
        }
    }
    let mut rep = seeds
        .into_par_iter()
        .map(|(len, first)| {
            let mut rep = ProverReport::default();
            let mut prefix = vec![first];
            extend_and_check(&mut prefix, len, u.max_total - first, &mut rep);
            rep
        })
        .reduce(ProverReport::default, ProverReport::merge);
    check_vector(&[], &mut rep);
    rep
}

/// Structured element-weight patterns for the weighted pass. Each yields
/// element weights for a group of total weight `w` (sum preserved).
fn elem_patterns(pattern: usize, w: usize) -> Vec<usize> {
    match pattern {
        // One element carrying everything: the degenerate-split case the
        // builder must demote back to Owned.
        0 => {
            if w == 0 {
                vec![]
            } else {
                vec![w]
            }
        }
        // Front-heavy: one big element then units.
        1 => {
            if w == 0 {
                vec![]
            } else {
                let big = w.div_ceil(2);
                let mut v = vec![big];
                v.extend(std::iter::repeat_n(1, w - big));
                v
            }
        }
        // Back-heavy.
        2 => {
            if w == 0 {
                vec![]
            } else {
                let big = w.div_ceil(2);
                let mut v = vec![1usize; w - big];
                v.push(big);
                v
            }
        }
        // Pairs: elements of weight 2 (plus a unit remainder).
        _ => {
            let mut v = vec![2usize; w / 2];
            if w % 2 == 1 {
                v.push(1);
            }
            v
        }
    }
}

/// Weighted-element pass: smaller vector universe × structured element
/// patterns through `build_weighted_with_target`.
pub fn prove_mode_weighted(u: ModeUniverse) -> ProverReport {
    let mut vectors: Vec<Vec<usize>> = Vec::new();
    let mut prefix = Vec::new();
    fn gen(prefix: &mut Vec<usize>, len: usize, budget: usize, out: &mut Vec<Vec<usize>>) {
        if prefix.len() == len {
            out.push(prefix.clone());
            return;
        }
        for w in 0..=budget {
            prefix.push(w);
            gen(prefix, len, budget - w, out);
            prefix.pop();
        }
    }
    let (mg, mt) = (u.max_groups.min(4), u.max_total.min(12));
    for len in 1..=mg {
        gen(&mut prefix, len, mt, &mut vectors);
    }
    vectors
        .into_par_iter()
        .map(|weights| {
            let mut rep = ProverReport::default();
            for pattern in 0..4usize {
                let counts: Vec<usize> =
                    weights.iter().map(|&w| elem_patterns(pattern, w).len()).collect();
                for &threads in THREADS {
                    for &target in TARGETS {
                        let t = target.unwrap_or(usize::MAX);
                        let s = if target.is_none() {
                            ModeSchedule::build_weighted(&weights, threads, |g| {
                                elem_patterns(pattern, weights[g])
                            })
                        } else {
                            ModeSchedule::build_weighted_with_target(&weights, threads, t, |g| {
                                elem_patterns(pattern, weights[g])
                            })
                        };
                        rep.mode_builds += 1;
                        if s.num_slots() > 0 {
                            rep.mode_split_builds += 1;
                        }
                        if let Err(e) =
                            verify_mode_schedule(s.tasks(), s.splits(), s.num_slots(), &counts)
                        {
                            rep.fail(format!(
                                "ModeSchedule(weighted, weights={weights:?}, \
                                 pattern={pattern}, threads={threads}, target={target:?}): {e}"
                            ));
                        }
                    }
                }
            }
            rep
        })
        .reduce(ProverReport::default, ProverReport::merge)
}

/// Exhaustive small scatter pass: every `pmap` with `parent_len ≤ max_p`
/// over `child_len ≤ max_c` (counting in base `child_len`).
pub fn prove_scatter_exhaustive(max_p: usize, max_c: usize) -> ProverReport {
    let mut cases: Vec<(usize, usize)> = Vec::new();
    for c in 1..=max_c {
        for p in 0..=max_p {
            cases.push((c, p));
        }
    }
    cases
        .into_par_iter()
        .map(|(c, p)| {
            let mut rep = ProverReport::default();
            let mut pmap = vec![0u32; p];
            let total = (c as u64).pow(p as u32);
            for code in 0..total {
                let mut x = code;
                for slot in pmap.iter_mut() {
                    *slot = (x % c as u64) as u32;
                    x /= c as u64;
                }
                for &threads in THREADS {
                    let s = adatm_dtree::sched::ScatterSchedule::from_map(&pmap, c, threads);
                    rep.scatter_builds += 1;
                    if let Err(e) = verify_scatter_parts(&ScatterParts::of(&s), &pmap, c) {
                        rep.fail(format!(
                            "ScatterSchedule(pmap={pmap:?}, child={c}, threads={threads}): {e}"
                        ));
                    }
                }
            }
            rep
        })
        .reduce(ProverReport::default, ProverReport::merge)
}

/// Structured large scatter pass: parents past the `MIN_CHUNK` floor so
/// the multi-chunk paths actually run.
pub fn prove_scatter_structured() -> ProverReport {
    let parents = [2048usize, 4096, 6000];
    let children = [1usize, 3, 16, 100];
    let patterns = 4usize;
    let mut rep = ProverReport::default();
    for &parent_len in &parents {
        for &child_len in &children {
            for pattern in 0..patterns {
                let pmap: Vec<u32> = (0..parent_len)
                    .map(|j| match pattern {
                        0 => (j % child_len) as u32,
                        1 => (j * child_len / parent_len.max(1)) as u32, // blocks
                        2 => 0u32,                                       // all-hot row
                        // Deterministic LCG scramble.
                        _ => {
                            let x = (j as u64)
                                .wrapping_mul(6364136223846793005)
                                .wrapping_add(1442695040888963407);
                            ((x >> 33) % child_len as u64) as u32
                        }
                    })
                    .collect();
                for &threads in &[2usize, 4, 8] {
                    let s =
                        adatm_dtree::sched::ScatterSchedule::from_map(&pmap, child_len, threads);
                    rep.scatter_builds += 1;
                    if let Err(e) = verify_scatter_parts(&ScatterParts::of(&s), &pmap, child_len) {
                        rep.fail(format!(
                            "ScatterSchedule(parent={parent_len}, child={child_len}, \
                             pattern={pattern}, threads={threads}): {e}"
                        ));
                    }
                }
            }
        }
    }
    rep
}

/// The full prover: all four passes over the given mode universe.
pub fn prove(u: ModeUniverse) -> ProverReport {
    prove_mode_uniform(u)
        .merge(prove_mode_weighted(u))
        .merge(prove_scatter_exhaustive(7, 4))
        .merge(prove_scatter_structured())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_universe_verifies_clean_and_exercises_splits() {
        let rep = prove(QUICK);
        assert!(rep.ok(), "violations: {:?}", rep.failures);
        assert!(rep.mode_builds > 50_000, "builds: {}", rep.mode_builds);
        // The explicit-target configs must actually reach the split
        // machinery, or the universe proves nothing about it.
        assert!(rep.mode_split_builds > 1_000, "splits: {}", rep.mode_split_builds);
        assert!(rep.scatter_builds > 10_000, "scatter: {}", rep.scatter_builds);
    }

    #[test]
    fn overlapping_owned_tasks_are_rejected() {
        let tasks = vec![Task::Owned { groups: 0..2 }, Task::Owned { groups: 1..3 }];
        let err = verify_mode_schedule(&tasks, &[], 0, &[1, 1, 1]).unwrap_err();
        assert!(err.contains("covered twice"), "{err}");
    }

    #[test]
    fn shared_slot_is_rejected() {
        let tasks = vec![
            Task::Split { group: 0, elems: 0..2, slot: 0 },
            Task::Split { group: 0, elems: 2..4, slot: 0 },
        ];
        let splits = vec![SplitGroup { group: 0, slot0: 0, nslots: 1 }];
        let err = verify_mode_schedule(&tasks, &splits, 1, &[4]).unwrap_err();
        assert!(err.contains("slot 0"), "{err}");
    }

    #[test]
    fn element_gap_is_rejected() {
        let tasks = vec![
            Task::Split { group: 0, elems: 0..2, slot: 0 },
            Task::Split { group: 0, elems: 3..4, slot: 1 },
        ];
        let splits = vec![SplitGroup { group: 0, slot0: 0, nslots: 2 }];
        let err = verify_mode_schedule(&tasks, &splits, 2, &[4]).unwrap_err();
        assert!(err.contains("not covered"), "{err}");
    }

    #[test]
    fn uncovered_group_is_rejected() {
        let tasks = vec![Task::Owned { groups: 0..1 }];
        let err = verify_mode_schedule(&tasks, &[], 0, &[1, 1]).unwrap_err();
        assert!(err.contains("group 1 not covered"), "{err}");
    }

    #[test]
    fn corrupted_scatter_cmap_is_rejected() {
        let pmap: Vec<u32> = (0..64).map(|j| (j % 3) as u32).collect();
        let s = adatm_dtree::sched::ScatterSchedule::from_map(&pmap, 3, 2);
        let mut parts = ScatterParts::of(&s);
        assert!(verify_scatter_parts(&parts, &pmap, 3).is_ok());
        // Re-route one element to the wrong accumulator row.
        parts.cmap[5] = (parts.cmap[5] + 1) % (parts.row_ptr[1] - parts.row_ptr[0]) as u32;
        assert!(verify_scatter_parts(&parts, &pmap, 3).is_err());
    }

    #[test]
    fn duplicated_scatter_row_is_rejected() {
        let pmap: Vec<u32> = (0..64).map(|j| (j % 5) as u32).collect();
        let s = adatm_dtree::sched::ScatterSchedule::from_map(&pmap, 5, 2);
        let mut parts = ScatterParts::of(&s);
        if parts.rows.len() >= 2 {
            parts.rows[1] = parts.rows[0];
            assert!(verify_scatter_parts(&parts, &pmap, 5).is_err());
        }
    }
}
