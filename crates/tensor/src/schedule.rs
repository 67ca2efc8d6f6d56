// lint: hot-path
//! Nnz-balanced static schedules for the parallel MTTKRP kernels.
//!
//! The parallel kernels used to hand one task to each output row (COO
//! group, CSF root slice, dimension-tree element). On skewed inputs that
//! collapses to near-serial execution: a single hot row can own a large
//! share of the nonzeros, so one task does almost all the work while the
//! rest finish instantly. A [`ModeSchedule`] fixes the imbalance once per
//! (tensor, mode): it partitions the row-owning *groups* into contiguous
//! tasks of approximately equal nonzero weight, and breaks any group
//! heavier than the per-task target into **split sub-tasks** that
//! accumulate into privatized slot rows and are merged back by a cheap
//! per-row (not per-matrix) reduction.
//!
//! Schedules are pure index structure: they borrow nothing and stay valid
//! for the lifetime of the tensor representation they were built from.
//! Backends keep them in a [`ScheduleCache`], one per (tensor, mode),
//! and drop them together with their workspaces on `reset()`.
//!
//! [`run_schedule`] is the one place a scheduled kernel call becomes
//! tasks: the COO, CSF and dimension-tree pull kernels each hand it a
//! body closure that accumulates one group's elements into one row.

use adatm_linalg::{kernels, Mat};
use rayon::prelude::*;
use std::ops::Range;

/// Tasks created per worker thread. More tasks give the static scheduler
/// slack to even out residual imbalance at the cost of a little per-task
/// overhead.
const TASKS_PER_THREAD: usize = 4;

/// Minimum nonzero weight of a task. Prevents over-decomposition of tiny
/// tensors, where per-task overhead would dominate.
const MIN_TASK_WEIGHT: usize = 64;

/// One unit of parallel work.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Task {
    /// A contiguous run of groups owned exclusively by this task: it
    /// writes each group's output row directly, no synchronization.
    Owned {
        /// Group indices `[start, end)` into the underlying view.
        groups: Range<usize>,
    },
    /// A sub-range of one oversized group's elements. The task
    /// accumulates into privatized slot row `slot`; slot rows of the same
    /// group are merged into the group's output row after the parallel
    /// phase.
    Split {
        /// The oversized group.
        group: usize,
        /// Element sub-range `[start, end)` *within* the group.
        elems: Range<usize>,
        /// Privatized slot row this sub-task owns.
        slot: usize,
    },
}

/// Merge descriptor for one split group: which slot rows sum into its
/// output row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SplitGroup {
    /// The group that was split.
    pub group: usize,
    /// First slot row belonging to this group.
    pub slot0: usize,
    /// Number of consecutive slot rows (= sub-tasks) for this group.
    pub nslots: usize,
}

/// An nnz-balanced static schedule over the groups of one mode.
#[derive(Clone, Debug)]
pub struct ModeSchedule {
    tasks: Vec<Task>,
    splits: Vec<SplitGroup>,
    slots: usize,
    threads: usize,
    total_weight: usize,
    target: usize,
}

impl ModeSchedule {
    /// Builds a schedule for groups of the given nonzero `weights`,
    /// balanced for `threads` workers. Elements within a group are
    /// assumed uniform (weight 1 each), as for COO entry groups.
    pub fn build(weights: &[usize], threads: usize) -> Self {
        Self::build_weighted(weights, threads, |g| UniformElems(weights[g]))
    }

    /// [`ModeSchedule::build`] for groups given as CSR offsets: group `g`
    /// owns elements `ptr[g]..ptr[g + 1]`.
    pub fn for_offsets(ptr: &[usize], threads: usize) -> Self {
        let weights: Vec<usize> = ptr.windows(2).map(|w| w[1] - w[0]).collect();
        Self::build(&weights, threads)
    }

    /// [`ModeSchedule::build`] with an explicit per-task weight target
    /// (testing hook: forces splits on small inputs).
    pub fn build_with_target(weights: &[usize], threads: usize, target: usize) -> Self {
        Self::build_inner(weights, threads, target, |g| UniformElems(weights[g]))
    }

    /// Builds a schedule where the elements of group `g` have the weights
    /// yielded by `sub(g)` — e.g. a CSF root slice whose elements are its
    /// level-1 children, each weighing its descendant-leaf count. The
    /// iterator is consulted only for groups that must be split.
    pub fn build_weighted<I>(weights: &[usize], threads: usize, sub: impl Fn(usize) -> I) -> Self
    where
        I: IntoIterator<Item = usize>,
    {
        let total: usize = weights.iter().sum();
        let target =
            total.div_ceil((threads.max(1) * TASKS_PER_THREAD).max(1)).max(MIN_TASK_WEIGHT);
        Self::build_inner(weights, threads, target, sub)
    }

    /// [`ModeSchedule::build_weighted`] with an explicit target.
    pub fn build_weighted_with_target<I>(
        weights: &[usize],
        threads: usize,
        target: usize,
        sub: impl Fn(usize) -> I,
    ) -> Self
    where
        I: IntoIterator<Item = usize>,
    {
        Self::build_inner(weights, threads, target, sub)
    }

    fn build_inner<I>(
        weights: &[usize],
        threads: usize,
        target: usize,
        sub: impl Fn(usize) -> I,
    ) -> Self
    where
        I: IntoIterator<Item = usize>,
    {
        let total: usize = weights.iter().sum();
        let target = target.max(1);
        let mut tasks = Vec::new();
        let mut splits = Vec::new();
        let mut slots = 0usize;
        // Single worker (or nothing to do): one task owning everything.
        if threads <= 1 || total <= target {
            if !weights.is_empty() {
                tasks.push(Task::Owned { groups: 0..weights.len() });
            }
            return ModeSchedule { tasks, splits, slots, threads, total_weight: total, target };
        }
        let mut run_start = None::<usize>;
        let mut run_weight = 0usize;
        let close_run = |tasks: &mut Vec<Task>, run_start: &mut Option<usize>, end: usize| {
            if let Some(s) = run_start.take() {
                if s < end {
                    tasks.push(Task::Owned { groups: s..end });
                }
            }
        };
        for (g, &w) in weights.iter().enumerate() {
            if w > target {
                // Oversized group: close the current run, then split this
                // group into ~equal-weight element sub-ranges.
                close_run(&mut tasks, &mut run_start, g);
                run_weight = 0;
                let slot0 = slots;
                let parts = w.div_ceil(target).max(2);
                let per_part = w.div_ceil(parts);
                let mut elem = 0usize;
                let mut acc = 0usize;
                let mut part_start = 0usize;
                let mut nslots = 0usize;
                for ew in sub(g) {
                    acc += ew;
                    elem += 1;
                    if acc >= per_part {
                        tasks.push(Task::Split { group: g, elems: part_start..elem, slot: slots });
                        slots += 1;
                        nslots += 1;
                        part_start = elem;
                        acc = 0;
                    }
                }
                if part_start < elem {
                    tasks.push(Task::Split { group: g, elems: part_start..elem, slot: slots });
                    slots += 1;
                    nslots += 1;
                }
                if nslots == 1 {
                    // Degenerate split (one giant element): demote the
                    // sub-task back to exclusive ownership — the merge
                    // would be pure overhead.
                    if let Some(Task::Split { group, .. }) = tasks.pop() {
                        tasks.push(Task::Owned { groups: group..group + 1 });
                    }
                    slots = slot0;
                } else if nslots > 1 {
                    splits.push(SplitGroup { group: g, slot0, nslots });
                }
                continue;
            }
            if run_start.is_none() {
                run_start = Some(g);
                run_weight = 0;
            }
            run_weight += w;
            if run_weight >= target {
                close_run(&mut tasks, &mut run_start, g + 1);
                run_weight = 0;
            }
        }
        close_run(&mut tasks, &mut run_start, weights.len());
        ModeSchedule { tasks, splits, slots, threads, total_weight: total, target }
    }

    /// The tasks, ordered by ascending group index.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Number of tasks.
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Split-group merge descriptors, ordered by ascending group index.
    pub fn splits(&self) -> &[SplitGroup] {
        &self.splits
    }

    /// Total privatized slot rows required by the split sub-tasks.
    pub fn num_slots(&self) -> usize {
        self.slots
    }

    /// The worker count the schedule was balanced for.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Total nonzero weight covered by the schedule.
    pub fn total_weight(&self) -> usize {
        self.total_weight
    }

    /// The per-task weight target used to cut tasks.
    pub fn target(&self) -> usize {
        self.target
    }

    /// Whether the schedule degenerates to a single sequential task (the
    /// kernels then take their allocation-free sequential path).
    pub fn is_sequential(&self) -> bool {
        self.tasks.len() <= 1
    }

    /// Approximate bytes held by the schedule (diagnostics).
    pub fn structure_bytes(&self) -> usize {
        self.tasks.len() * std::mem::size_of::<Task>()
            + self.splits.len() * std::mem::size_of::<SplitGroup>()
    }
}

/// Reusable scratch memory for the scheduled kernels.
///
/// Holds two flat `f64` buffers: per-task scratch rows (Hadamard
/// accumulation) and privatized slot rows for split sub-tasks. Buffers
/// grow on demand and never shrink, so after the first call at a given
/// shape the kernels perform zero heap allocations. Backends pair one
/// workspace with each cached schedule and drop both on `reset()`.
#[derive(Clone, Debug, Default)]
pub struct Workspace {
    scratch: Vec<f64>,
    slots: Vec<f64>,
}

impl Workspace {
    /// Creates an empty workspace; buffers are grown by [`Workspace::ensure`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns `(scratch, slots)` buffers of at least the requested
    /// lengths, growing them if needed (steady state: no allocation).
    /// The slot buffer is zeroed; scratch contents are unspecified.
    pub fn ensure(&mut self, scratch_len: usize, slots_len: usize) -> (&mut [f64], &mut [f64]) {
        if self.scratch.len() < scratch_len {
            self.scratch.resize(scratch_len, 0.0);
        }
        if self.slots.len() < slots_len {
            self.slots.resize(slots_len, 0.0);
        }
        let slots = &mut self.slots[..slots_len];
        slots.fill(0.0);
        (&mut self.scratch[..scratch_len], slots)
    }

    /// Releases all held memory (backend `reset()` protocol).
    pub fn clear(&mut self) {
        self.scratch = Vec::new();
        self.slots = Vec::new();
    }

    /// Bytes currently held (diagnostics).
    pub fn structure_bytes(&self) -> usize {
        (self.scratch.capacity() + self.slots.capacity()) * std::mem::size_of::<f64>()
    }
}

/// Schedules cached per slot (a mode, a tree node) for the worker count
/// they were balanced for.
///
/// Asking for a different count drops every cached schedule first, so a
/// kernel never runs a schedule balanced for another pool size.
#[derive(Clone, Debug)]
pub struct ScheduleCache<S> {
    scheds: Vec<Option<S>>,
    /// Worker count the cached schedules were balanced for (0 = none).
    threads: usize,
}

impl<S> ScheduleCache<S> {
    /// An empty cache with `slots` slots.
    pub fn new(slots: usize) -> Self {
        ScheduleCache { scheds: (0..slots).map(|_| None).collect(), threads: 0 }
    }

    /// The schedule of `slot` for `threads` workers, built by `build` if
    /// the slot is empty or the cached schedules were balanced for
    /// another count.
    ///
    /// # Panics
    /// Panics if `slot` is out of range.
    pub fn get_or_build(&mut self, slot: usize, threads: usize, build: impl FnOnce() -> S) -> &S {
        if self.threads != threads {
            self.clear();
            self.threads = threads;
        }
        self.scheds[slot].get_or_insert_with(build)
    }

    /// Drops every cached schedule (backend `reset()` protocol).
    pub fn clear(&mut self) {
        self.scheds.iter_mut().for_each(|s| *s = None);
        self.threads = 0;
    }

    /// The cached schedules.
    pub fn iter(&self) -> impl Iterator<Item = &S> {
        self.scheds.iter().flatten()
    }
}

/// Runs one kernel call over `sched`: carves `out` into per-task rows,
/// runs the tasks, and merges split rows.
///
/// Group `g` of `groups` owns output row `row_of(g)`, strictly ascending
/// in `g`; rows no group owns come out zero. `body(g, elems, row,
/// scratch)` writes the sum of elements `elems` of group `g` (a sub-range
/// within the group, or `None` for all of them) into `row`, overwriting
/// it; `scratch` is `scratch_len` values private to the task. The
/// contract every scheduled kernel shares:
///
/// * Callers do not pre-zero, and neither does the runner for the rows
///   groups own: `body` writes every value of its row, either by
///   zeroing it first and accumulating (every row is then
///   `0 + c0 + c1 + ...` in group and element order) or by storing a sum
///   it built from `+0.0` in that order, which has the same bits. Only
///   the rows no group lands on are zeroed.
/// * With no schedule, or one task, the groups run inline on the calling
///   thread. That path builds nothing and, once `ws` has grown, allocates
///   nothing.
/// * Otherwise an Owned task gets the rows from the first one not yet
///   claimed through its last group's row (gap rows and rows of earlier
///   split groups included), and zeroes those its groups do not own. A
///   Split task writes into a private slot row. Rows past the last Owned
///   task are zeroed after the parallel phase; then each split group's
///   slot rows are added to its row in slot order. Per-call allocation is
///   the task list: O(tasks), never O(nnz).
/// * With the `audit` feature, every call checks that the rows its tasks
///   claim are in bounds and disjoint, naming the kernel's body if not.
///
/// The kernels mark `body` `#[inline(always)]`: it runs once per group,
/// often over a handful of elements, and is called from more places
/// here than the inliner takes on by itself.
///
/// # Panics
/// Panics if a group's row lies outside `out`.
#[adatm::hot]
pub fn run_schedule<R, B>(
    sched: Option<&ModeSchedule>,
    ws: &mut Workspace,
    scratch_len: usize,
    out: &mut Mat,
    groups: usize,
    row_of: R,
    body: B,
) where
    R: Fn(usize) -> usize + Sync,
    B: Fn(usize, Option<Range<usize>>, &mut [f64], &mut [f64]) + Sync,
{
    let width = out.ncols();
    if width == 0 {
        return;
    }
    #[cfg(feature = "audit")]
    audit_claims(sched, groups, &row_of, out.nrows(), std::any::type_name::<B>());
    let out = out.as_mut_slice();
    let sched = match sched {
        Some(s) if !s.is_sequential() => s,
        _ => {
            let (scratch, _) = ws.ensure(scratch_len, 0);
            run_owned(0..groups, 0, out, width, scratch, &row_of, &body);
            return;
        }
    };
    let (mut scratch_rest, slots) =
        ws.ensure(sched.num_tasks() * scratch_len, sched.num_slots() * width);
    // Tasks are ordered by group, and rows ascend with groups, so taking
    // each Owned task's rows off the front of what is left of `out`
    // hands every task a disjoint span.
    let mut parts = Vec::with_capacity(sched.num_tasks());
    let mut rest = &mut *out;
    let mut slot_rest = &mut *slots;
    let mut next_row = 0usize;
    for task in sched.tasks() {
        let (scr, tail) = std::mem::take(&mut scratch_rest).split_at_mut(scratch_len);
        scratch_rest = tail;
        let (row0, buf) = match task {
            Task::Owned { groups } => {
                let end = row_of(groups.end - 1) + 1;
                let (span, tail) = std::mem::take(&mut rest).split_at_mut((end - next_row) * width);
                rest = tail;
                (std::mem::replace(&mut next_row, end), span)
            }
            Task::Split { .. } => {
                let (row, tail) = std::mem::take(&mut slot_rest).split_at_mut(width);
                slot_rest = tail;
                (0, row)
            }
        };
        parts.push((task, row0, buf, scr));
    }
    parts.into_par_iter().for_each(|(task, row0, buf, scr)| match task {
        Task::Owned { groups } => {
            run_owned(groups.start..groups.end, row0, buf, width, scr, &row_of, &body);
        }
        Task::Split { group, elems, .. } => body(*group, Some(elems.start..elems.end), buf, scr),
    });
    rest.fill(0.0);
    for sp in sched.splits() {
        let r = row_of(sp.group) * width;
        let orow = &mut out[r..r + width];
        for srow in slots[sp.slot0 * width..(sp.slot0 + sp.nslots) * width].chunks_exact(width) {
            kernels::add_assign(orow, srow);
        }
    }
}

/// One Owned task over `buf`, the output rows from `row0` on: runs each
/// of `groups` into its row and zeroes the rows between them and after
/// the last.
#[inline(always)]
fn run_owned<R, B>(
    groups: Range<usize>,
    row0: usize,
    buf: &mut [f64],
    width: usize,
    scratch: &mut [f64],
    row_of: &R,
    body: &B,
) where
    R: Fn(usize) -> usize,
    B: Fn(usize, Option<Range<usize>>, &mut [f64], &mut [f64]),
{
    let mut next = 0;
    for g in groups {
        let r = (row_of(g) - row0) * width;
        buf[next..r].fill(0.0);
        body(g, None, &mut buf[r..r + width], scratch);
        next = r + width;
    }
    buf[next..].fill(0.0);
}

/// Re-checks the rows one [`run_schedule`] call's tasks claim: each
/// Owned group's row, and each split group's row with its slot count.
#[cfg(feature = "audit")]
fn audit_claims(
    sched: Option<&ModeSchedule>,
    groups: usize,
    row_of: &impl Fn(usize) -> usize,
    nrows: usize,
    kernel: &str,
) {
    let whole = [Task::Owned { groups: 0..groups }];
    let tasks: &[Task] = match sched {
        Some(s) => s.tasks(),
        None => &whole,
    };
    let owned = tasks.iter().flat_map(|task| match task {
        Task::Owned { groups } => groups.start..groups.end,
        Task::Split { .. } => 0..0,
    });
    let split = sched.iter().flat_map(|s| s.splits()).map(|sp| (row_of(sp.group), sp.nslots));
    crate::audit::assert_schedule_claims(owned.map(row_of), split, nrows, kernel);
}

/// `ExactSizeIterator` of `count` unit weights (the uniform-element case).
struct UniformElems(usize);

impl IntoIterator for UniformElems {
    type Item = usize;
    type IntoIter = std::iter::RepeatN<usize>;
    fn into_iter(self) -> Self::IntoIter {
        std::iter::repeat_n(1, self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every group appears exactly once: either inside exactly one Owned
    /// range, or covered exactly by the element ranges of its Split tasks.
    fn assert_partition(sched: &ModeSchedule, weights: &[usize]) {
        let mut covered = vec![0usize; weights.len()];
        for t in sched.tasks() {
            match t {
                Task::Owned { groups } => {
                    for g in groups.clone() {
                        covered[g] += weights[g].max(1);
                    }
                }
                Task::Split { group, elems, .. } => {
                    covered[*group] += elems.len();
                }
            }
        }
        for (g, &w) in weights.iter().enumerate() {
            assert_eq!(covered[g], w.max(1), "group {g} coverage");
        }
    }

    #[test]
    fn single_thread_is_one_task() {
        let s = ModeSchedule::build(&[5, 1, 9, 3], 1);
        assert_eq!(s.num_tasks(), 1);
        assert!(s.is_sequential());
        assert_eq!(s.num_slots(), 0);
    }

    #[test]
    fn uniform_groups_balance_within_target() {
        let weights = vec![10usize; 100];
        let s = ModeSchedule::build_with_target(&weights, 4, 100);
        assert_partition(&s, &weights);
        assert!(s.num_tasks() >= 8, "tasks {}", s.num_tasks());
        for t in s.tasks() {
            if let Task::Owned { groups } = t {
                let w: usize = groups.clone().map(|g| weights[g]).sum();
                assert!(w <= 110, "task weight {w}");
            }
        }
    }

    #[test]
    fn hot_group_is_split_into_subtasks() {
        // One group owns 90% of the weight: the old one-task-per-group
        // schedule would serialize on it.
        let mut weights = vec![10usize; 20];
        weights[7] = 2_000;
        let s = ModeSchedule::build_with_target(&weights, 8, 100);
        assert_partition(&s, &weights);
        assert_eq!(s.splits().len(), 1);
        let sp = &s.splits()[0];
        assert_eq!(sp.group, 7);
        assert!(sp.nslots >= 10, "hot group split into {} sub-tasks", sp.nslots);
        assert_eq!(s.num_slots(), sp.nslots);
        // Split sub-tasks cover the group's elements exactly once.
        let mut covered = vec![false; 2_000];
        for t in s.tasks() {
            if let Task::Split { group: 7, elems, .. } = t {
                for e in elems.clone() {
                    assert!(!covered[e], "element {e} claimed twice");
                    covered[e] = true;
                }
            }
        }
        assert!(covered.iter().all(|&c| c));
    }

    #[test]
    fn weighted_split_respects_element_weights() {
        // Group 0 has 4 elements with very skewed weights; cuts must
        // follow the weights, not the element count.
        let weights = [1_000usize, 10, 10];
        let elems = [700usize, 100, 100, 100];
        let s = ModeSchedule::build_weighted_with_target(&weights, 4, 300, |g| {
            if g == 0 {
                elems.to_vec()
            } else {
                vec![1; weights[g]]
            }
        });
        let split_tasks: Vec<_> = s
            .tasks()
            .iter()
            .filter_map(|t| match t {
                Task::Split { group: 0, elems, .. } => Some(elems.clone()),
                _ => None,
            })
            .collect();
        assert!(split_tasks.len() >= 2);
        // First cut happens right after the 700-weight element.
        assert_eq!(split_tasks[0], 0..1);
    }

    #[test]
    fn tasks_are_ordered_by_group() {
        let mut weights = vec![5usize; 50];
        weights[10] = 500;
        weights[30] = 700;
        let s = ModeSchedule::build_with_target(&weights, 4, 50);
        let mut last = 0usize;
        for t in s.tasks() {
            let start = match t {
                Task::Owned { groups } => groups.start,
                Task::Split { group, .. } => *group,
            };
            assert!(start >= last, "tasks out of order");
            last = start;
        }
        assert_eq!(s.splits().len(), 2);
    }

    #[test]
    fn empty_weights_produce_empty_schedule() {
        let s = ModeSchedule::build(&[], 8);
        assert_eq!(s.num_tasks(), 0);
        assert_eq!(s.num_slots(), 0);
        assert_eq!(s.total_weight(), 0);
    }

    #[test]
    fn runner_zeroes_unowned_rows_and_merges_splits() {
        // Groups own rows 1, 3, 4 and 7 of 9, so rows 0, 2, 5, 6 and 8
        // belong to no group; group 2 is hot enough to split. The body
        // stores each sum, so the NaN rows the groups own are overwritten
        // and only the others need the runner's zeros.
        let weights = [3usize, 2, 40, 5];
        let rows = [1usize, 3, 4, 7];
        let sched = ModeSchedule::build_with_target(&weights, 4, 8);
        assert!(!sched.splits().is_empty() && sched.num_tasks() > 2);
        // Each row ends as the sum of its group's element ids.
        let mut want = vec![0.0; 9 * 2];
        for (g, &r) in rows.iter().enumerate() {
            let sum = (0..weights[g]).sum::<usize>() as f64;
            want[2 * r..2 * r + 2].fill(sum);
        }
        let mut ws = Workspace::new();
        for sched in [None, Some(&sched)] {
            let mut out = Mat::from_vec(9, 2, vec![f64::NAN; 9 * 2]);
            run_schedule(
                sched,
                &mut ws,
                1,
                &mut out,
                4,
                |g| rows[g],
                |g, elems, row, _| {
                    let sum: usize = elems.unwrap_or(0..weights[g]).sum();
                    row.fill(sum as f64);
                },
            );
            assert_eq!(out.as_slice(), want, "schedule {:?}", sched.map(ModeSchedule::num_tasks));
        }
    }

    #[test]
    fn cache_drops_schedules_balanced_for_another_pool() {
        let mut cache = ScheduleCache::new(2);
        assert_eq!(*cache.get_or_build(0, 2, || 20), 20);
        assert_eq!(*cache.get_or_build(0, 2, || 21), 20, "cached for the same pool");
        assert_eq!(*cache.get_or_build(1, 4, || 41), 41);
        assert_eq!(cache.iter().count(), 1, "slot 0 was built for another pool");
        cache.clear();
        assert_eq!(cache.iter().count(), 0);
    }

    #[test]
    fn small_total_collapses_to_one_task() {
        let s = ModeSchedule::build(&[1, 2, 3], 8);
        assert!(s.is_sequential());
    }
}
