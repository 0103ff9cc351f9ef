//! Core simulation state: the event heap's ordered time and event types,
//! and the per-job / per-query bookkeeping every other `sim` submodule
//! (engine, dispatch, recovery, report) operates on.
//!
//! A job's per-kind task state is kept in [`Lanes`], one lane per
//! [`TaskKind`]: the counters ([`JobCounts`]), the report accumulators
//! ([`JobStats`]) and the per-spec lists ([`JobLists`]). The map-only
//! state (`map_node`, `reduces_unlocked`, `reduces_initialized`) stays
//! outside the lanes.

use crate::job::{SimJob, TaskKind, TaskSpec};
use sapred_obs::TaskPhase;
use std::ops::{Index, IndexMut};

pub(super) fn phase_of(kind: TaskKind) -> TaskPhase {
    match kind {
        TaskKind::Map => TaskPhase::Map,
        TaskKind::Reduce => TaskPhase::Reduce,
    }
}

/// Totally ordered f64 for the event heap (no NaNs by construction).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) struct Time(pub(super) f64);

impl Eq for Time {}

impl PartialOrd for Time {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Time {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(super) enum Event {
    /// A query arrives: submit its root jobs.
    Arrival { q: usize },
    /// A job becomes visible to the scheduler.
    Submit { q: usize, j: usize },
    /// Attempt `attempt` (row of the attempt slab) finishes, releasing its
    /// container slot. The exact f64 duration the heap scheduled lives in
    /// the slab as its bit pattern ([`f64::to_bits`]) so the recorded
    /// stats match the schedule bit-for-bit. Ignored if the attempt was
    /// killed in the meantime (lazy invalidation: cheaper than deleting
    /// from the event heap). Either way the popped event releases the row:
    /// it is the attempt's only terminal event.
    TaskDone { attempt: usize },
    /// Attempt `attempt` fails mid-run (scheduled at dispatch, instead of
    /// its `TaskDone`, when the fault RNG says this attempt dies). Ignored
    /// if already killed; releases the row like `TaskDone`.
    TaskFailed { attempt: usize },
    /// A failed task's backoff elapsed: re-enter the runnable set.
    Retry { q: usize, j: usize, kind: TaskKind, spec_idx: usize },
    /// Scheduled node outage `crash` (index into the plan's crash list)
    /// takes effect.
    NodeDown { crash: usize },
    /// A crashed node recovers. `epoch` guards against stale events.
    NodeUp { node: usize, epoch: u64 },
}

/// One value per [`TaskKind`]: a job's map lane and its reduce lane,
/// indexed by kind. Every rule that treats maps and reduces alike is
/// written once, over `lanes[kind]`.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct Lanes<T>(pub(super) [T; 2]);

impl<T> Index<TaskKind> for Lanes<T> {
    type Output = T;

    #[inline]
    fn index(&self, kind: TaskKind) -> &T {
        &self.0[kind as usize]
    }
}

impl<T> IndexMut<TaskKind> for Lanes<T> {
    #[inline]
    fn index_mut(&mut self, kind: TaskKind) -> &mut T {
        &mut self.0[kind as usize]
    }
}

/// The spec list of one kind of `job`'s tasks.
#[inline]
pub(super) fn specs(job: &SimJob, kind: TaskKind) -> &[TaskSpec] {
    match kind {
        TaskKind::Map => &job.maps,
        TaskKind::Reduce => &job.reduces,
    }
}

/// Cold per-spec lists of one kind of a job's tasks.
#[derive(Debug, Clone, Default)]
pub(super) struct SpecLists {
    /// Spec indices of failed/lost tasks awaiting relaunch; popped before
    /// fresh `next` indices at dispatch.
    pub(super) retry: Vec<usize>,
    /// Per-spec attempt counts, for the max-attempts budget.
    pub(super) attempt_no: Vec<usize>,
    /// Per-spec first-disruption time, for recovery-latency stats; cleared
    /// on successful completion.
    pub(super) fail_since: Vec<Option<f64>>,
}

/// Cold per-spec lists of one job (retry queues, attempt budgets,
/// disruption clocks, map-output placement). Kept out of the hot
/// [`JobTable`] columns: the dispatch scans never touch them. They exist
/// only while the job is live: allocated at submit, freed when the job
/// finishes or its query fails ([`JobTable::free_lists`]), so they never
/// outlive the work they track.
#[derive(Debug, Clone, Default)]
pub(super) struct JobLists {
    pub(super) lanes: Lanes<SpecLists>,
    /// Node that holds each completed map's output (the winning attempt's
    /// node), for the lost-map-output rule on node crashes.
    pub(super) map_node: Vec<Option<usize>>,
}

impl JobLists {
    /// The lists of a freshly submitted `job`: no retries, no attempts,
    /// no disruptions, no map output placed.
    pub(super) fn new(job: &SimJob) -> Self {
        let lane = |n: usize| SpecLists {
            retry: Vec::new(),
            attempt_no: vec![0; n],
            fail_since: vec![None; n],
        };
        Self {
            lanes: Lanes([lane(job.maps.len()), lane(job.reduces.len())]),
            map_node: vec![None; job.maps.len()],
        }
    }

    /// Whether every list is unallocated: the job was never submitted, or
    /// its lists were freed.
    pub(super) fn is_freed(&self) -> bool {
        self.lanes.0.iter().all(|l| {
            l.retry.capacity() == 0 && l.attempt_no.capacity() == 0 && l.fail_since.capacity() == 0
        }) && self.map_node.capacity() == 0
    }
}

/// One kind of a job's tasks, by state.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct TaskCounts {
    pub(super) pending: usize,
    pub(super) running: usize,
    pub(super) done: usize,
    /// Next fresh spec index to hand out at dispatch.
    pub(super) next: usize,
}

/// A job's task-count state, both lanes in one 64-byte record so the
/// dispatch and task-completion hot paths touch a single cache line per
/// job instead of eight. Every event handler reads or writes most of
/// these together; splitting them into eight separate columns made each
/// touched job cost eight scattered cache lines (measurably slower than
/// the old per-job struct).
pub(super) type JobCounts = Lanes<TaskCounts>;

const _: () = assert!(std::mem::size_of::<JobCounts>() <= 64);

/// One kind of a job's report accumulators: winning task-time sum,
/// attempts launched and completions.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct TaskStats {
    pub(super) time_sum: f64,
    pub(super) attempts: usize,
    pub(super) completions: usize,
}

impl TaskStats {
    /// Mean winning task time, 0 before the first completion.
    pub(super) fn avg(&self) -> f64 {
        if self.completions > 0 {
            self.time_sum / self.completions as f64
        } else {
            0.0
        }
    }
}

/// A job's report accumulators, both lanes packed for the same
/// cache-line reason as [`JobCounts`]: they are updated together once per
/// task completion.
pub(super) type JobStats = Lanes<TaskStats>;

/// Per-job bookkeeping as a struct-of-arrays: one flat arena over every
/// `(query, job)` pair, indexed by `offsets[q] + j`. The dispatch hot
/// loops ([`query_demand`], `collect_runnable`) scan the demand columns
/// (`finished` plus the packed [`JobCounts`] records) contiguously instead of striding through a 28-field struct
/// behind a `Vec<Vec<_>>` double indirection; the cold per-spec lists
/// live separately in [`JobLists`].
///
/// Column types match the old per-job struct fields exactly, so every
/// arithmetic expression over them is bit-identical to the pre-SoA
/// engine — the layout changed, the values did not.
///
/// [`query_demand`]: super::dispatch::query_demand
#[derive(Debug, Clone, Default)]
pub(super) struct JobTable {
    /// Arena start of each query's jobs; `offsets[nq]` = total jobs.
    offsets: Vec<usize>,
    pub(super) submitted: Vec<bool>,
    pub(super) submit_time: Vec<f64>,
    pub(super) started: Vec<Option<f64>>,
    pub(super) finished: Vec<Option<f64>>,
    /// Task-count state, one [`JobCounts`] (a single cache line) per job.
    pub(super) counts: Vec<JobCounts>,
    /// Report accumulators, one [`JobStats`] per job.
    pub(super) stats: Vec<JobStats>,
    pub(super) reduces_unlocked: Vec<bool>,
    /// Whether the reduce lane's `pending` has been initialized (exactly once — a
    /// node crash can re-lock the reduce wave by clawing back completed
    /// maps, and re-initializing on the second unlock would double-count
    /// reduces already done or running).
    pub(super) reduces_initialized: Vec<bool>,
    /// Cold per-spec lists, parallel to the columns above.
    pub(super) lists: Vec<JobLists>,
}

impl JobTable {
    /// Build the table for `job_counts[q]` jobs per query, all columns at
    /// their defaults.
    pub(super) fn new(job_counts: impl Iterator<Item = usize>) -> Self {
        let mut offsets = vec![0usize];
        for n in job_counts {
            offsets.push(offsets.last().unwrap() + n);
        }
        let total = *offsets.last().unwrap();
        Self {
            offsets,
            submitted: vec![false; total],
            submit_time: vec![0.0; total],
            started: vec![None; total],
            finished: vec![None; total],
            counts: vec![JobCounts::default(); total],
            stats: vec![JobStats::default(); total],
            reduces_unlocked: vec![false; total],
            reduces_initialized: vec![false; total],
            lists: (0..total).map(|_| JobLists::default()).collect(),
        }
    }

    /// Arena index of job `j` of query `q`.
    #[inline]
    pub(super) fn idx(&self, q: usize, j: usize) -> usize {
        debug_assert!(j < self.offsets[q + 1] - self.offsets[q]);
        self.offsets[q] + j
    }

    /// Drop job `i`'s per-spec lists once nothing can read them again: the
    /// job finished (a crash claws back only unfinished jobs' map output)
    /// or its query failed (its events are skipped from then on).
    pub(super) fn free_lists(&mut self, i: usize) {
        self.lists[i] = JobLists::default();
    }

    /// Move one pending task of `kind` of job `i` to running: a requeued
    /// spec relaunches before a fresh index is handed out. Returns the
    /// spec index and its attempt number (1-based).
    pub(super) fn start_task(&mut self, i: usize, kind: TaskKind) -> (usize, usize) {
        debug_assert!(kind == TaskKind::Map || self.reduces_unlocked[i]);
        let c = &mut self.counts[i][kind];
        debug_assert!(c.pending > 0);
        c.pending -= 1;
        c.running += 1;
        let lane = &mut self.lists[i].lanes[kind];
        let k = lane.retry.pop().unwrap_or_else(|| {
            c.next += 1;
            c.next - 1
        });
        lane.attempt_no[k] += 1;
        (k, lane.attempt_no[k])
    }

    /// Spec `k` of `kind` of job `i` is pending again: a later dispatch of
    /// that kind relaunches it.
    pub(super) fn requeue(&mut self, i: usize, kind: TaskKind, k: usize) {
        self.counts[i][kind].pending += 1;
        self.lists[i].lanes[kind].retry.push(k);
    }

    /// Start spec `k`'s recovery-latency clock at `now`, unless an earlier
    /// disruption already started it.
    pub(super) fn start_recovery_clock(&mut self, i: usize, kind: TaskKind, k: usize, now: f64) {
        self.lists[i].lanes[kind].fail_since[k].get_or_insert(now);
    }

    /// Arena index range covering query `q`'s jobs.
    #[inline]
    pub(super) fn query_range(&self, q: usize) -> std::ops::Range<usize> {
        self.offsets[q]..self.offsets[q + 1]
    }
}

#[derive(Debug, Clone, Default)]
pub(super) struct QueryState {
    pub(super) jobs_done: usize,
    pub(super) started: Option<f64>,
    pub(super) finished: Option<f64>,
    pub(super) failed: bool,
}
