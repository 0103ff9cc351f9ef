//! Fault handling and recovery: the attempt slab, node
//! crash/blacklist state, slot reclamation, and query abandonment.

use crate::fault::FaultStats;
use crate::job::TaskKind;
use sapred_obs::{Event as ObsEvent, EventSink};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use super::emit;
use super::state::{phase_of, JobTable, QueryState};
use super::ClusterConfig;
use sapred_obs::{JobId, NodeId, QueryId};

/// One task attempt whose terminal event is still queued (running, or
/// killed and awaiting that event), as a by-value view.
/// The registry itself is the struct-of-arrays [`AttemptTable`]; this
/// struct is the shape [`AttemptTable::push`] takes in and
/// [`AttemptTable::get`] hands back, so call sites still read
/// `a.sched_end` etc. after a single gather.
#[derive(Debug, Clone, Copy)]
pub(super) struct Attempt {
    pub(super) q: usize,
    pub(super) j: usize,
    pub(super) kind: TaskKind,
    /// Task index within the job's map or reduce list.
    pub(super) spec_idx: usize,
    /// Flat container-slot id the attempt occupies.
    pub(super) slot: usize,
    pub(super) start: f64,
    /// Exact scheduled duration (bit pattern; see [`Event::TaskDone`]).
    ///
    /// [`Event::TaskDone`]: super::state::Event::TaskDone
    pub(super) duration_bits: u64,
    /// When the attempt would finish if it neither fails nor is killed —
    /// the straggler criterion for speculative execution.
    pub(super) sched_end: f64,
    /// Per-spec attempt number at launch (1-based; clones inherit the
    /// original's).
    pub(super) attempt_no: usize,
    /// Whether this is a speculative clone.
    pub(super) speculative: bool,
    /// Whether this attempt is the one represented in the job table's
    /// running counts. Originals start counted, clones uncounted; when a
    /// counted attempt dies while its partner lives, the partner inherits
    /// the count (so the job table sees the task as continuously running).
    pub(super) counted: bool,
    /// The other attempt racing for the same task, while it holds its row.
    pub(super) partner: Option<usize>,
    pub(super) alive: bool,
}

/// The per-attempt fields that are only read together (at completion,
/// failure, or kill), packed into one record so pushing and gathering an
/// attempt touches one cache line instead of eight scattered columns.
#[derive(Debug, Clone, Copy)]
pub(super) struct AttemptInfo {
    pub(super) j: usize,
    pub(super) kind: TaskKind,
    pub(super) spec_idx: usize,
    pub(super) slot: usize,
    pub(super) start: f64,
    pub(super) duration_bits: u64,
    pub(super) attempt_no: usize,
    pub(super) speculative: bool,
}

/// "No partner" sentinel of [`AttemptTable::partner`]: the attempt never
/// raced a clone.
pub(super) const NIL: u32 = u32::MAX;

/// "Partner gone" sentinel of [`AttemptTable::partner`]: the attempt raced
/// a clone whose row has since been released. It still counts as
/// partnered (the straggler scan never clones an attempt twice), but no
/// longer links to a row another attempt may now hold.
pub(super) const GONE: u32 = u32::MAX - 1;

/// The attempt registry: a struct-of-arrays slab with a free list. A row
/// is taken at launch and released when the attempt's single terminal
/// event (`TaskDone` or `TaskFailed`) pops, whether the attempt was still
/// alive or had been killed earlier, so no queued event ever names a
/// reused row and the table holds only attempts whose terminal event is
/// still queued. Killing an attempt marks it dead and leaves the event
/// queue alone; the event releases the row when it pops. Row ids carry no
/// order: whatever depends on launch order (the straggler tie-break, the
/// kill order of an abandoned query) reads the `launch` column.
///
/// The columns the speculative-straggler scan streams (`alive`, `partner`,
/// `q`, `sched_end`) and the independently-mutated flags (`counted`) are
/// each flat and contiguous; everything an attempt only reads together
/// lives packed in the [`AttemptInfo`] column.
#[derive(Debug, Default)]
pub(super) struct AttemptTable {
    pub(super) q: Vec<usize>,
    pub(super) sched_end: Vec<f64>,
    pub(super) counted: Vec<bool>,
    /// Racing-partner row, [`NIL`] for none, [`GONE`] once the partner's
    /// row is released.
    pub(super) partner: Vec<u32>,
    pub(super) alive: Vec<bool>,
    pub(super) info: Vec<AttemptInfo>,
    /// Launch number of the row's attempt: attempts are numbered in launch
    /// order over the whole run.
    pub(super) launch: Vec<u64>,
    /// Released rows, reused last-released first.
    pub(super) free: Vec<usize>,
    /// Attempts launched so far (the next launch number).
    pub(super) launches: u64,
}

impl AttemptTable {
    /// Rows in the slab, free ones included: the most attempts whose
    /// terminal event was queued at once.
    #[inline]
    pub(super) fn rows(&self) -> usize {
        self.alive.len()
    }

    /// Launch a new attempt into a free row (or a new one), returning its
    /// row id.
    pub(super) fn push(&mut self, a: Attempt) -> usize {
        let info = AttemptInfo {
            j: a.j,
            kind: a.kind,
            spec_idx: a.spec_idx,
            slot: a.slot,
            start: a.start,
            duration_bits: a.duration_bits,
            attempt_no: a.attempt_no,
            speculative: a.speculative,
        };
        let partner = a.partner.map_or(NIL, |p| p as u32);
        let launch = self.launches;
        self.launches += 1;
        if let Some(id) = self.free.pop() {
            self.q[id] = a.q;
            self.sched_end[id] = a.sched_end;
            self.counted[id] = a.counted;
            self.partner[id] = partner;
            self.alive[id] = a.alive;
            self.info[id] = info;
            self.launch[id] = launch;
            return id;
        }
        self.q.push(a.q);
        self.sched_end.push(a.sched_end);
        self.counted.push(a.counted);
        self.partner.push(partner);
        self.alive.push(a.alive);
        self.info.push(info);
        self.launch.push(launch);
        self.rows() - 1
    }

    /// Release row `id` once its attempt's terminal event has popped. A
    /// partner still holding its row keeps the mark of having raced
    /// ([`GONE`]) but loses the link.
    pub(super) fn release(&mut self, id: usize) {
        debug_assert!(!self.alive[id], "releasing a live attempt");
        let p = self.partner[id];
        if p < GONE {
            self.partner[p as usize] = GONE;
        }
        self.partner[id] = NIL;
        self.free.push(id);
    }

    /// Gather attempt `id` back into a by-value [`Attempt`].
    pub(super) fn get(&self, id: usize) -> Attempt {
        let info = self.info[id];
        let p = self.partner[id];
        Attempt {
            q: self.q[id],
            j: info.j,
            kind: info.kind,
            spec_idx: info.spec_idx,
            slot: info.slot,
            start: info.start,
            duration_bits: info.duration_bits,
            sched_end: self.sched_end[id],
            attempt_no: info.attempt_no,
            speculative: info.speculative,
            counted: self.counted[id],
            partner: (p < GONE).then_some(p as usize),
            alive: self.alive[id],
        }
    }
}

/// Mutable fault-and-recovery state for one run: the attempt registry,
/// per-node health, and the stats that end up in the report.
pub(super) struct FaultState {
    pub(super) attempts: AttemptTable,
    /// Which attempt occupies each flat slot (None = free or parked).
    pub(super) slot_attempt: Vec<Option<usize>>,
    pub(super) crashed: Vec<bool>,
    pub(super) blacklisted: Vec<bool>,
    /// Task failures per node, for the blacklist threshold.
    pub(super) node_failures: Vec<usize>,
    /// Bumped on every crash, so a stale `NodeUp` can be recognized.
    pub(super) node_epoch: Vec<u64>,
    pub(super) stats: FaultStats,
}

impl FaultState {
    pub(super) fn new(nodes: usize, slots: usize) -> Self {
        Self {
            attempts: AttemptTable::default(),
            slot_attempt: vec![None; slots],
            crashed: vec![false; nodes],
            blacklisted: vec![false; nodes],
            node_failures: vec![0; nodes],
            node_epoch: vec![0; nodes],
            stats: FaultStats::default(),
        }
    }

    pub(super) fn node_usable(&self, node: usize) -> bool {
        !self.crashed[node] && !self.blacklisted[node]
    }

    pub(super) fn usable_nodes(&self) -> usize {
        (0..self.crashed.len()).filter(|&n| self.node_usable(n)).count()
    }

    /// Whether `attempt`'s racing partner is still alive.
    pub(super) fn partner_alive(&self, attempt: usize) -> bool {
        let p = self.attempts.partner[attempt];
        p < GONE && self.attempts.alive[p as usize]
    }

    /// Free `slot`, returning it to the pool only if its node is usable
    /// (slots on downed nodes stay parked until `NodeUp`).
    pub(super) fn release_slot(
        &mut self,
        slot: usize,
        cfg: &ClusterConfig,
        free_slots: &mut BinaryHeap<Reverse<usize>>,
    ) {
        self.slot_attempt[slot] = None;
        if self.node_usable(cfg.node_of(slot)) {
            free_slots.push(Reverse(slot));
        }
    }

    /// Record that the task of (dead) attempt `a` was disrupted now, for
    /// recovery-latency accounting (first disruption starts the clock).
    pub(super) fn start_recovery_clock(jobs: &mut JobTable, a: &Attempt, now: f64) {
        let i = jobs.idx(a.q, a.j);
        let lists = &mut jobs.lists[i];
        let since = match a.kind {
            TaskKind::Map => &mut lists.map_fail_since[a.spec_idx],
            TaskKind::Reduce => &mut lists.reduce_fail_since[a.spec_idx],
        };
        since.get_or_insert(now);
    }

    /// Kill attempt `id`: mark it dead, free its slot, update job counts,
    /// and emit the `TaskKilled` event. With `requeue`, the task re-enters
    /// the runnable set immediately (node-crash semantics: the kill is not
    /// the task's fault, so no backoff and no attempt-budget charge).
    /// Returns the killed attempt (for the caller's resync bookkeeping).
    #[allow(clippy::too_many_arguments)]
    pub(super) fn kill_attempt<K: EventSink>(
        &mut self,
        id: usize,
        requeue: bool,
        now: f64,
        cfg: &ClusterConfig,
        jobs: &mut JobTable,
        free_slots: &mut BinaryHeap<Reverse<usize>>,
        sink: &mut K,
    ) -> Attempt {
        let a = self.attempts.get(id);
        debug_assert!(a.alive, "killing a dead attempt");
        self.attempts.alive[id] = false;
        self.release_slot(a.slot, cfg, free_slots);
        self.stats.tasks_killed += 1;
        let mut requeued = false;
        if self.partner_alive(id) {
            // The partner keeps racing; it inherits the running-count
            // representation if this attempt held it.
            if a.counted {
                let p = a.partner.expect("partner_alive implies partner");
                self.attempts.counted[p] = true;
            }
        } else if a.counted {
            let i = jobs.idx(a.q, a.j);
            match a.kind {
                TaskKind::Map => jobs.counts[i].running_maps -= 1,
                TaskKind::Reduce => jobs.counts[i].running_reduces -= 1,
            }
            if requeue {
                requeued = true;
                match a.kind {
                    TaskKind::Map => {
                        jobs.counts[i].pending_maps += 1;
                        jobs.lists[i].retry_maps.push(a.spec_idx);
                    }
                    TaskKind::Reduce => {
                        jobs.counts[i].pending_reduces += 1;
                        jobs.lists[i].retry_reduces.push(a.spec_idx);
                    }
                }
                Self::start_recovery_clock(jobs, &a, now);
            }
        }
        emit!(
            sink,
            ObsEvent::TaskKilled {
                t: now,
                query: QueryId(a.q),
                job: JobId(a.j),
                phase: phase_of(a.kind),
                node: NodeId(cfg.node_of(a.slot)),
                slot: cfg.slot_of(a.slot),
                speculative: a.speculative,
                requeued,
            }
        );
        a
    }

    /// Kill every live attempt running on `node` (which must already be
    /// marked unusable, so freed slots stay parked). Returns the affected
    /// query indices for dispatch-state resync.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn kill_node_attempts<K: EventSink>(
        &mut self,
        node: usize,
        requeue: bool,
        now: f64,
        cfg: &ClusterConfig,
        jobs: &mut JobTable,
        free_slots: &mut BinaryHeap<Reverse<usize>>,
        sink: &mut K,
    ) -> Vec<usize> {
        debug_assert!(!self.node_usable(node));
        let mut affected = Vec::new();
        for slot in node * cfg.containers_per_node..(node + 1) * cfg.containers_per_node {
            if let Some(id) = self.slot_attempt[slot] {
                if self.attempts.alive[id] {
                    let a = self.kill_attempt(id, requeue, now, cfg, jobs, free_slots, sink);
                    affected.push(a.q);
                }
            }
        }
        affected.sort_unstable();
        affected.dedup();
        affected
    }
}

/// Terminate query `q` unsuccessfully: kills every live attempt of the
/// query, zeroes its jobs' pending/running work so it vanishes from the
/// runnable view, frees their per-spec lists, and emits `QueryFinish` (the
/// query *terminates* — its [`QueryStat::failed`] flag records the
/// distinction). Called on attempt-budget exhaustion; the caller records
/// the query in [`FaultStats::failed_queries`], bumps `done_queries` and
/// drops the query from the dispatch state.
///
/// [`QueryStat::failed`]: super::report::QueryStat::failed
/// [`FaultStats::failed_queries`]: crate::fault::FaultStats::failed_queries
#[allow(clippy::too_many_arguments)]
pub(super) fn fail_query<K: EventSink>(
    q: usize,
    now: f64,
    cfg: &ClusterConfig,
    fr: &mut FaultState,
    jobs: &mut JobTable,
    qstate: &mut [QueryState],
    free_slots: &mut BinaryHeap<Reverse<usize>>,
    sink: &mut K,
) {
    qstate[q].failed = true;
    qstate[q].finished = Some(now);
    // Kill in launch order: row ids are recycled and carry no order.
    let mut ids: Vec<usize> = (0..fr.attempts.rows())
        .filter(|&i| fr.attempts.alive[i] && fr.attempts.q[i] == q)
        .collect();
    ids.sort_unstable_by_key(|&i| fr.attempts.launch[i]);
    for id in ids {
        fr.kill_attempt(id, false, now, cfg, jobs, free_slots, sink);
    }
    for i in jobs.query_range(q) {
        jobs.counts[i].pending_maps = 0;
        jobs.counts[i].running_maps = 0;
        jobs.counts[i].pending_reduces = 0;
        jobs.counts[i].running_reduces = 0;
        jobs.free_lists(i);
    }
    emit!(sink, ObsEvent::QueryFinish { t: now, query: QueryId(q) });
}
