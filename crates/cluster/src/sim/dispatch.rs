//! The dispatch path: the materialized runnable set, the ordered pick
//! index over it, per-query demand aggregates (WRD and critical path)
//! derived from live [`DemandOracle`](super::DemandOracle) predictions,
//! and the from-scratch [`collect_runnable`] view that
//! [`Simulator::crosschecked`](super::Simulator::crosschecked) runs check
//! the maintained state against.

use crate::job::{JobPrediction, SimQuery};
use crate::sched::{choice, PickKey, RunnableJob, Scheduler, TaskChoice};

use super::state::{JobTable, QueryState};
use sapred_obs::{JobId, QueryId};

/// Per-query aggregates the schedulers consume through [`RunnableJob`].
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct QueryAgg {
    /// Remaining WRD (Eq. 10) over unfinished jobs.
    pub(super) wrd: f64,
    /// Remaining critical-path time over the unfinished DAG.
    pub(super) crit: f64,
}

/// Materialized scheduling state: the runnable-job set (sorted by
/// `(query, job)`, the same order [`collect_runnable`] produces) plus
/// per-query aggregates. Updated in
/// O(affected jobs) on each `Submit`/`TaskDone`/dispatch instead of being
/// recomputed from every job of every query once per free container.
///
/// Beside the set sits the pick index: every runnable job under its
/// scheduler's [`PickKey`], so a keyed scheduler's choice is the index's
/// minimum. The mutators only mark the query they touched dirty;
/// [`reindex`](Self::reindex) re-keys the dirty queries' jobs before a
/// decision that reads the index.
pub(super) struct DispatchState {
    pub(super) aggs: Vec<QueryAgg>,
    pub(super) runnable: Vec<RunnableJob>,
    /// Scratch for the critical-path pass (avoids a per-event allocation).
    pub(super) scratch: Vec<f64>,
    pub(super) containers: usize,
    /// Every runnable job under its current key.
    index: PickHeap,
    /// Queries touched since the last `reindex`; `is_dirty` dedupes them.
    dirty: Vec<usize>,
    is_dirty: Vec<bool>,
    /// Cleared for good once the scheduler returns no key: the index is
    /// dropped and every pick scans.
    keyed: bool,
}

impl DispatchState {
    pub(super) fn new(n_queries: usize, n_jobs: usize, containers: usize) -> Self {
        Self {
            aggs: vec![QueryAgg::default(); n_queries],
            runnable: Vec::new(),
            scratch: Vec::new(),
            containers,
            index: PickHeap { entries: Vec::new(), slot: vec![NIL; n_jobs] },
            dirty: Vec::new(),
            is_dirty: vec![false; n_queries],
            keyed: true,
        }
    }

    /// Queue query `qi`'s jobs for re-keying at the next `reindex`.
    fn mark(&mut self, qi: usize) {
        if self.keyed && !self.is_dirty[qi] {
            self.is_dirty[qi] = true;
            self.dirty.push(qi);
        }
    }

    /// Bring the pick index up to date: re-key every job of each dirty
    /// query, filing runnable jobs under `key` and dropping the rest —
    /// O(k log R) for k touched jobs. Returns whether the index is live;
    /// the first `None` key drops it and makes this return `false` for
    /// the rest of the run.
    pub(super) fn reindex(
        &mut self,
        jobs: &JobTable,
        key: impl Fn(&RunnableJob) -> Option<PickKey>,
    ) -> bool {
        while let Some(qi) = self.dirty.pop() {
            self.is_dirty[qi] = false;
            let start = self.runnable.partition_point(|r| r.query < QueryId(qi));
            // The query's runnable entries are contiguous and sorted by job,
            // so one merge walk pairs each job with its entry, if any.
            let mut live =
                self.runnable[start..].iter().take_while(|r| r.query == QueryId(qi)).peekable();
            for (j, i) in jobs.query_range(qi).enumerate() {
                match live.next_if(|r| r.job == JobId(j)) {
                    None => self.index.remove(i),
                    Some(r) => match key(r) {
                        Some(k) => self.index.set(i, qi, j, k),
                        None => {
                            self.keyed = false;
                            self.index = PickHeap { entries: Vec::new(), slot: Vec::new() };
                            self.dirty = Vec::new();
                            return false;
                        }
                    },
                }
            }
        }
        self.keyed
    }

    /// The choice of the minimum-key runnable job. Valid right after a
    /// `reindex` that returned `true`.
    pub(super) fn first(&self) -> Option<TaskChoice> {
        let top = self.index.entries.first()?;
        let at = self.position(top.q, top.j).expect("indexed job is runnable");
        Some(choice(&self.runnable[at]))
    }

    /// Panic unless the (freshly reindexed) index covers exactly the
    /// runnable set and its minimum is the choice the scheduler's scan
    /// makes.
    pub(super) fn crosscheck_index(&self, scheduler: &mut dyn Scheduler, when: &str) {
        assert_eq!(
            self.index.entries.len(),
            self.runnable.len(),
            "pick index out of step with the runnable set ({when})"
        );
        assert_eq!(
            self.first(),
            scheduler.pick(&self.runnable),
            "indexed choice diverged from {}'s scan ({when})",
            scheduler.name()
        );
    }

    pub(super) fn position(&self, q: usize, j: usize) -> Result<usize, usize> {
        self.runnable.binary_search_by_key(&(q, j), |r| (r.query.into(), r.job.into()))
    }

    /// Recompute query `qi`'s WRD and critical path (O(its jobs)) and push
    /// the new aggregates into its runnable entries. Called for the one
    /// query an event touched.
    pub(super) fn refresh_query(
        &mut self,
        queries: &[SimQuery],
        jobs: &JobTable,
        preds: &[Vec<JobPrediction>],
        qi: usize,
    ) {
        let q = &queries[qi];
        if self.scratch.len() < q.jobs.len() {
            self.scratch.resize(q.jobs.len(), 0.0);
        }
        let agg = query_demand(q, qi, jobs, &preds[qi], self.containers, &mut self.scratch);
        self.aggs[qi] = agg;
        self.mark(qi);
        let start = self.runnable.partition_point(|r| r.query < QueryId(qi));
        for r in self.runnable[start..].iter_mut().take_while(|r| r.query == QueryId(qi)) {
            r.query_wrd = agg.wrd;
            r.query_time = agg.crit;
        }
    }

    /// A job entered the runnable set (submitted, or its reduces unlocked).
    pub(super) fn insert_job(
        &mut self,
        queries: &[SimQuery],
        jobs: &JobTable,
        qi: usize,
        j: usize,
    ) {
        let i = jobs.idx(qi, j);
        let pending_reduces =
            if jobs.reduces_unlocked[i] { jobs.counts[i].pending_reduces } else { 0 };
        if jobs.counts[i].pending_maps == 0 && pending_reduces == 0 {
            return;
        }
        let entry = RunnableJob {
            query: QueryId(qi),
            job: JobId(j),
            submit_time: jobs.submit_time[i],
            arrival: queries[qi].arrival,
            pending_maps: jobs.counts[i].pending_maps,
            pending_reduces,
            running: jobs.counts[i].running_maps + jobs.counts[i].running_reduces,
            query_wrd: self.aggs[qi].wrd,
            query_time: self.aggs[qi].crit,
        };
        match self.position(qi, j) {
            Ok(_) => unreachable!("job {qi}/{j} already runnable"),
            Err(at) => self.runnable.insert(at, entry),
        }
        self.mark(qi);
    }

    /// A task of `(qi, j)` was dispatched: update the job's entry, and drop
    /// it from the set once nothing is left to launch. The query's
    /// aggregates do not change, but the job's `running` count (part of
    /// [`Hfs`](crate::sched::Hfs)'s key) does, so the query is re-keyed.
    pub(super) fn on_dispatch(&mut self, jobs: &JobTable, qi: usize, j: usize) {
        self.mark(qi);
        let at = self.position(qi, j).expect("dispatched job is runnable");
        let i = jobs.idx(qi, j);
        let pending_reduces =
            if jobs.reduces_unlocked[i] { jobs.counts[i].pending_reduces } else { 0 };
        if jobs.counts[i].pending_maps == 0 && pending_reduces == 0 {
            self.runnable.remove(at);
        } else {
            let r = &mut self.runnable[at];
            r.pending_maps = jobs.counts[i].pending_maps;
            r.pending_reduces = pending_reduces;
            r.running = jobs.counts[i].running_maps + jobs.counts[i].running_reduces;
        }
    }

    /// A task of `(qi, j)` finished: refresh the query's demand, and
    /// re-admit the job if this completion unlocked its reduce phase.
    pub(super) fn on_task_done(
        &mut self,
        queries: &[SimQuery],
        jobs: &JobTable,
        preds: &[Vec<JobPrediction>],
        qi: usize,
        j: usize,
    ) {
        let i = jobs.idx(qi, j);
        if let Ok(at) = self.position(qi, j) {
            // Still runnable (more tasks of the same phase pending).
            let r = &mut self.runnable[at];
            r.pending_maps = jobs.counts[i].pending_maps;
            r.pending_reduces =
                if jobs.reduces_unlocked[i] { jobs.counts[i].pending_reduces } else { 0 };
            r.running = jobs.counts[i].running_maps + jobs.counts[i].running_reduces;
        } else if jobs.reduces_unlocked[i]
            && jobs.counts[i].pending_reduces > 0
            && jobs.finished[i].is_none()
        {
            // This completion was the last map: the reduce wave unlocks.
            self.insert_job(queries, jobs, qi, j);
        }
        self.refresh_query(queries, jobs, preds, qi);
    }

    /// Rebuild query `qi`'s aggregates and runnable entries wholesale from
    /// its job states. Fault events (kills, requeues, map claw-backs,
    /// query abandonment) can flip several of the query's jobs in and out
    /// of the runnable set at once, which the single-job update paths
    /// above don't model; this is the O(its jobs) recovery path. It builds
    /// the query's aggregates and entries with the helpers
    /// [`collect_runnable`] uses, so Crosscheck holds under faults too.
    pub(super) fn resync_query(
        &mut self,
        queries: &[SimQuery],
        jobs: &JobTable,
        preds: &[Vec<JobPrediction>],
        qi: usize,
    ) {
        let q = &queries[qi];
        if self.scratch.len() < q.jobs.len() {
            self.scratch.resize(q.jobs.len(), 0.0);
        }
        let agg = query_demand(q, qi, jobs, &preds[qi], self.containers, &mut self.scratch);
        self.aggs[qi] = agg;
        let start = self.runnable.partition_point(|r| r.query < QueryId(qi));
        let end =
            start + self.runnable[start..].iter().take_while(|r| r.query == QueryId(qi)).count();
        let mut entries = Vec::new();
        push_runnable(q, qi, jobs, agg, &mut entries);
        self.runnable.splice(start..end, entries);
        self.mark(qi);
    }

    /// Drop an abandoned query from the runnable set entirely.
    pub(super) fn remove_query(&mut self, qi: usize) {
        let start = self.runnable.partition_point(|r| r.query < QueryId(qi));
        let end =
            start + self.runnable[start..].iter().take_while(|r| r.query == QueryId(qi)).count();
        self.runnable.drain(start..end);
        self.aggs[qi] = QueryAgg::default();
        self.mark(qi);
    }

    /// Panic unless the materialized set matches the from-scratch
    /// reference bit-for-bit (f64 fields included — the scores recorded in
    /// obs decision events must be identical, not merely close), and unless
    /// every query that has not failed carries the aggregates a fresh pass
    /// computes. The second check covers queries with no runnable entry
    /// yet (not arrived, or between a job's finish and its dependents'
    /// submit).
    pub(super) fn crosscheck(
        &self,
        queries: &[SimQuery],
        jobs: &JobTable,
        preds: &[Vec<JobPrediction>],
        qstate: &[QueryState],
        when: &str,
    ) {
        let reference = collect_runnable(queries, jobs, preds, self.containers);
        assert_eq!(
            self.runnable, reference,
            "incremental dispatch state diverged from collect_runnable ({when})"
        );
        for (qi, q) in queries.iter().enumerate() {
            if qstate[qi].failed {
                continue;
            }
            let mut acc = vec![0.0f64; q.jobs.len()];
            let fresh = query_demand(q, qi, jobs, &preds[qi], self.containers, &mut acc);
            let agg = self.aggs[qi];
            assert!(
                agg.wrd.to_bits() == fresh.wrd.to_bits()
                    && agg.crit.to_bits() == fresh.crit.to_bits(),
                "query {qi}'s aggregates {agg:?} diverged from {fresh:?} ({when})"
            );
        }
    }
}

/// The narrowest runnable set whose decisions come from the pick index.
/// Below it a scan is cheaper than re-keying: the scan touches a handful of
/// entries, while every index update costs a key and a sift. Narrower
/// decisions scan and leave the touched queries dirty, so the index catches
/// up at the next wide decision.
pub(super) const INDEX_MIN_WIDTH: usize = 32;

/// Marks a job with no entry in [`PickHeap`].
const NIL: usize = usize::MAX;

/// One runnable job in the pick index.
struct PickEntry {
    key: PickKey,
    /// Job-table index (the `slot` it owns).
    i: usize,
    q: usize,
    j: usize,
}

/// Binary min-heap of runnable jobs by [`PickKey`], with each job's heap
/// position, so re-keying a job sifts it in place: O(log R) per change and
/// no allocation once grown. Keys are unique, so the minimum is unique.
struct PickHeap {
    entries: Vec<PickEntry>,
    /// Heap position of each job-table index, or [`NIL`].
    slot: Vec<usize>,
}

impl PickHeap {
    /// File job `i` (= `(q, j)`) under `key`, inserting or re-keying it.
    fn set(&mut self, i: usize, q: usize, j: usize, key: PickKey) {
        let at = self.slot[i];
        if at == NIL {
            self.entries.push(PickEntry { key, i, q, j });
            self.sift_up(self.entries.len() - 1);
        } else if key != self.entries[at].key {
            let up = key < self.entries[at].key;
            self.entries[at].key = key;
            if up {
                self.sift_up(at);
            } else {
                self.sift_down(at);
            }
        }
    }

    /// Drop job `i` from the heap, if it is there.
    fn remove(&mut self, i: usize) {
        let at = self.slot[i];
        if at == NIL {
            return;
        }
        self.slot[i] = NIL;
        let last = self.entries.pop().expect("a filed job has an entry");
        if at < self.entries.len() {
            // The last entry fills the hole and may belong above or below it.
            self.entries[at] = last;
            let at = self.sift_up(at);
            self.sift_down(at);
        }
    }

    /// Move the entry at `at` up to its place; returns where it landed.
    fn sift_up(&mut self, mut at: usize) -> usize {
        while at > 0 {
            let parent = (at - 1) / 2;
            if self.entries[parent].key <= self.entries[at].key {
                break;
            }
            self.swap(at, parent);
            at = parent;
        }
        self.slot[self.entries[at].i] = at;
        at
    }

    fn sift_down(&mut self, mut at: usize) {
        loop {
            let (l, r) = (2 * at + 1, 2 * at + 2);
            let mut min = at;
            if l < self.entries.len() && self.entries[l].key < self.entries[min].key {
                min = l;
            }
            if r < self.entries.len() && self.entries[r].key < self.entries[min].key {
                min = r;
            }
            if min == at {
                break;
            }
            self.swap(at, min);
            at = min;
        }
        self.slot[self.entries[at].i] = at;
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.entries.swap(a, b);
        self.slot[self.entries[a].i] = a;
        self.slot[self.entries[b].i] = b;
    }
}

/// Per-query demand aggregates: remaining WRD (Eq. 10) and remaining
/// critical-path time over the unfinished DAG.
///
/// Shared by the from-scratch reference ([`collect_runnable`]) and the
/// incremental [`DispatchState`] so both paths perform the identical
/// floating-point operations in the identical order — scheduler scores
/// derived from these must match bit-for-bit, not merely approximately.
///
/// `acc` is caller-provided scratch of length ≥ `q.jobs.len()`; every slot
/// that is read is written first (jobs are topologically ordered with
/// backward deps), so it needs no clearing between calls.
fn query_demand(
    q: &SimQuery,
    qi: usize,
    jobs: &JobTable,
    preds: &[JobPrediction],
    containers: usize,
    acc: &mut [f64],
) -> QueryAgg {
    let range = jobs.query_range(qi);
    // Per-query column windows: one bounds check each here instead of one
    // per element access below (this is the hottest loop of the SWRD
    // dispatch path — it runs once per event over every job of the query).
    let finished = &jobs.finished[range.clone()];
    let counts = &jobs.counts[range];
    let c = containers.max(1) as f64;
    // One fused forward pass (jobs are topologically ordered, so the
    // critical path needs no second sweep): each unfinished job's
    // remaining predicted processing time feeds the WRD sum (Eq. 10)
    // as-is and the critical path spread over the containers. `rem` is
    // the exact expression both aggregates historically computed
    // separately, so reusing it keeps the f64 bits identical.
    let mut wrd = 0.0f64;
    let mut crit = 0.0f64;
    for j in &q.jobs {
        let i = j.id.0;
        let own = if finished[i].is_some() {
            0.0
        } else {
            let rem = preds[i].map_task_time * (j.maps.len() - counts[i].done_maps) as f64
                + preds[i].reduce_task_time * (j.reduces.len() - counts[i].done_reduces) as f64;
            wrd += rem;
            rem / c
        };
        let dep_max = j.deps.iter().map(|&d| acc[d.0]).fold(0.0, f64::max);
        acc[i] = dep_max + own;
        crit = crit.max(acc[i]);
    }
    QueryAgg { wrd, crit }
}

/// Build the full runnable view from scratch. This is the executable
/// specification of what schedulers see, O(Σ jobs) per call: the
/// maintained view must equal it (same entries, same order, same aggregate
/// bits), and [`DispatchState::crosscheck`] is its only caller.
fn collect_runnable(
    queries: &[SimQuery],
    jobs: &JobTable,
    preds: &[Vec<JobPrediction>],
    containers: usize,
) -> Vec<RunnableJob> {
    let mut out = Vec::new();
    for (qi, q) in queries.iter().enumerate() {
        let mut acc = vec![0.0f64; q.jobs.len()];
        let agg = query_demand(q, qi, jobs, &preds[qi], containers, &mut acc);
        push_runnable(q, qi, jobs, agg, &mut out);
    }
    out
}

/// Append query `qi`'s runnable entries, in job order, to `out`: every
/// submitted, unfinished job with a map to launch or an unlocked reduce
/// pending, carrying the query's aggregates `agg`.
fn push_runnable(
    q: &SimQuery,
    qi: usize,
    jobs: &JobTable,
    agg: QueryAgg,
    out: &mut Vec<RunnableJob>,
) {
    let base = jobs.query_range(qi).start;
    for j in &q.jobs {
        let i = base + j.id.0;
        if !jobs.submitted[i] || jobs.finished[i].is_some() {
            continue;
        }
        let pending_reduces =
            if jobs.reduces_unlocked[i] { jobs.counts[i].pending_reduces } else { 0 };
        if jobs.counts[i].pending_maps == 0 && pending_reduces == 0 {
            continue;
        }
        out.push(RunnableJob {
            query: QueryId(qi),
            job: j.id,
            submit_time: jobs.submit_time[i],
            arrival: q.arrival,
            pending_maps: jobs.counts[i].pending_maps,
            pending_reduces,
            running: jobs.counts[i].running_maps + jobs.counts[i].running_reduces,
            query_wrd: agg.wrd,
            query_time: agg.crit,
        });
    }
}
