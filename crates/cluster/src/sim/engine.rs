//! The event loop: the [`Simulator`] itself, the [`RunState`] holding
//! everything that changes while it runs, and [`Simulator::execute`], the
//! one run entry point, configured by a [`Run`].
//!
//! `execute` walks every run through the same four phases:
//!
//! * `check_inputs` — validation of every query and the fault plan,
//!   which fails the run with [`SimError::Invalid`];
//! * `init_run` — builds a fresh [`RunState`] (event queue seeded with
//!   arrivals and crashes, SoA job table, prediction matrix, dispatch
//!   aggregates, both RNG streams); a resumed run then `restore`s it: it
//!   reads the cut from a `sapred-ckpt/v5` [`super::checkpoint`] blob and
//!   drives the fresh state there with no sink and no profiler;
//! * `drive` — the event loop proper. Between events it checks, in order:
//!   run finished → optional stop point ([`Run::stop_after`]) → optional
//!   event-budget watchdog ([`Simulator::with_max_events`]);
//! * `finalize` — the end-of-run invariant asserts, queue telemetry, and
//!   report assembly; a stopped run records its event count instead.
//!
//! The run is bit-deterministic, so the replayed state at a cut is the
//! straight run's. The golden fixtures plus the kill-and-resume
//! differential harness pin that a stitched run (prefix events before the
//! snapshot + suffix events after the resume) is bit-identical to a
//! straight-through run.
//!
//! Maps and reduces follow one task lifecycle. A dispatch moves a pending
//! task of the chosen kind to running (`JobTable::start_task`); the
//! attempt starts through `launch`, which also starts speculative clones;
//! its terminal event finishes, fails or (if it was killed) drops it; a
//! failed, killed or clawed-back spec is pending again through
//! `JobTable::requeue`. Each step touches the job's lane of that kind;
//! only the reduce unlock and the lost-map-output rule are map-specific.
//!
//! A [`RunState`] grows with the work in flight, not with the run: an
//! attempt's slab row is released when its terminal event pops, and a
//! job's per-spec lists when it finishes or its query fails, so memory
//! stays flat however many tasks a run has launched.

use crate::cost::CostModel;
use crate::fault::FaultPlan;
use crate::job::TaskKind::{self, Map, Reduce};
use crate::job::{JobPrediction, SimQuery};
use crate::sched::{RunnableJob, Scheduler};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sapred_obs::profile::{Counter, NullProfiler, Profiler};
use sapred_obs::{Candidate, DownReason, Event as ObsEvent, EventSink, NullSink};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

use super::checkpoint::{self, CheckpointError};
use super::dispatch::{DispatchState, INDEX_MIN_WIDTH};
use super::emit;
use super::oracle::{DemandOracle, FrozenOracle};
use super::queue::EventQueue;
use super::recovery::{fail_query, Attempt, FaultState, NIL};
use super::report::{assemble_report, SimReport};
use super::state::{phase_of, specs, Event, JobLists, JobTable, QueryState};
use super::ClusterConfig;
use sapred_obs::{JobId, NodeId, QueryId};

/// Wraps the caller's sink to count events actually delivered
/// ([`Counter::SinkEventsEmitted`]). With a disabled sink no emit sites
/// fire, so the counter correctly reads zero.
struct CountingSink<'a, K, P> {
    inner: &'a mut K,
    prof: &'a P,
}

impl<K: EventSink, P: Profiler> EventSink for CountingSink<'_, K, P> {
    #[inline]
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    #[inline]
    fn emit(&mut self, event: &ObsEvent) {
        self.prof.inc(Counter::SinkEventsEmitted);
        self.inner.emit(event);
    }
}

/// Typed failure from [`Simulator::execute`]. The infallible shorthands
/// ([`Simulator::run`], [`Simulator::run_profiled`]) panic with this
/// error's message instead.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A query or the fault plan failed validation; the message names
    /// which (`invalid query <name>: …` or `invalid fault plan: …`). No
    /// run state was built.
    Invalid(String),
    /// The [`Simulator::with_max_events`] watchdog tripped: the run
    /// processed its whole event budget without finishing. Typical cause:
    /// a fault plan whose retry schedule can never exhaust (every task
    /// fails, attempts never run out), which would otherwise spin forever.
    EventBudgetExceeded {
        /// The configured budget that was exhausted.
        limit: u64,
    },
    /// A checkpoint blob could not be restored (bad magic, truncation,
    /// checksum or context mismatch, or a cut outside the run).
    Checkpoint(CheckpointError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Invalid(msg) => write!(f, "{msg}"),
            SimError::EventBudgetExceeded { limit } => write!(
                f,
                "event budget exceeded: {limit} events processed without finishing \
                 (is the fault plan's retry schedule unbounded?)"
            ),
            SimError::Checkpoint(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<CheckpointError> for SimError {
    fn from(e: CheckpointError) -> Self {
        SimError::Checkpoint(e)
    }
}

/// How a [`Simulator::execute`] run ended.
///
/// One value exists per run, so the size skew between the finished-report
/// and checkpoint-blob arms is irrelevant.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
pub enum RunOutcome {
    /// Every query is accounted for.
    Done(SimReport),
    /// The run was suspended after processing its [`Run::stop_after`]
    /// event count; the blob is a framed `sapred-ckpt/v5` checkpoint that
    /// [`Run::resume`] turns back into a running engine.
    Snapshot(Vec<u8>),
}

impl RunOutcome {
    /// The finished run's report.
    ///
    /// # Panics
    /// Panics on a [`RunOutcome::Snapshot`], which only a run with a
    /// [`Run::stop_after`] point can produce.
    pub fn into_report(self) -> SimReport {
        match self {
            RunOutcome::Done(report) => report,
            RunOutcome::Snapshot(_) => panic!("the run was suspended at its stop point"),
        }
    }
}

/// One [`Simulator::execute`] run: its sink, oracle and profiler, where
/// it starts, and where it stops. [`Run::new`] is a fresh, untraced,
/// unprofiled run to completion with the [`FrozenOracle`]; each builder
/// method swaps in one part, and the default [`NullSink`] and
/// [`NullProfiler`] compile away:
///
/// ```
/// # use sapred_cluster::{ClusterConfig, CostModel, Fifo, Run, Simulator};
/// # use sapred_obs::{profile::SpanProfiler, RecordingSink};
/// let mut sim = Simulator::new(ClusterConfig::default(), CostModel::default(), Fifo);
/// let (mut events, prof) = (RecordingSink::new(), SpanProfiler::new());
/// let report = sim.execute(&[], Run::new().sink(&mut events).profiler(&prof)).unwrap();
/// assert!(report.into_report().queries.is_empty());
/// ```
pub struct Run<'a, K = NullSink, P = NullProfiler> {
    sink: K,
    // `None` runs a local `FrozenOracle`.
    oracle: Option<&'a mut dyn DemandOracle>,
    profiler: &'a P,
    resume: Option<&'a [u8]>,
    stop_after: Option<u64>,
}

impl Run<'_> {
    /// A fresh, untraced, unprofiled run to completion.
    pub fn new() -> Self {
        Run {
            sink: NullSink,
            oracle: None,
            profiler: &NullProfiler,
            resume: None,
            stop_after: None,
        }
    }
}

impl Default for Run<'_> {
    fn default() -> Self {
        Run::new()
    }
}

impl<'a, K: EventSink, P: Profiler> Run<'a, K, P> {
    /// Emit every discrete event to `sink` (pass `&mut sink` to keep it).
    pub fn sink<K2: EventSink>(self, sink: K2) -> Run<'a, K2, P> {
        let Run { oracle, profiler, resume, stop_after, .. } = self;
        Run { sink, oracle, profiler, resume, stop_after }
    }

    /// Consult `oracle` for per-job demand: once per job up front, and
    /// again at each job's submit.
    pub fn oracle(mut self, oracle: &'a mut dyn DemandOracle) -> Self {
        self.oracle = Some(oracle);
        self
    }

    /// Count event-loop work (events, dispatch decisions, view updates,
    /// emitted events, launches, queue peak) on `profiler`.
    pub fn profiler<P2: Profiler>(self, profiler: &'a P2) -> Run<'a, K, P2> {
        let Run { sink, oracle, resume, stop_after, .. } = self;
        Run { sink, oracle, profiler, resume, stop_after }
    }

    /// Start from checkpoint bytes written by a run over the same queries
    /// and configuration (checked by the blob's fingerprint). The run
    /// replays the events before the cut with no sink and no profiler; the
    /// oracle is consulted again for that prefix, as in a fresh run.
    pub fn resume(mut self, bytes: &'a [u8]) -> Self {
        self.resume = Some(bytes);
        self
    }

    /// Suspend with a [`RunOutcome::Snapshot`] once `events` events have
    /// been processed since the fresh start (a resumed run counts the
    /// replayed events before its checkpoint too). The cut sits between
    /// events: the last one and its dispatch are done, the next has not
    /// popped.
    pub fn stop_after(mut self, events: u64) -> Self {
        self.stop_after = Some(events);
        self
    }
}

/// How one `drive` call ended (internal).
enum Drive {
    /// Every query is accounted for; `finalize` may assemble the report.
    Finished,
    /// The requested suspension point was reached; the [`RunState`] is
    /// quiescent (the current event and the dispatch it triggered are
    /// fully processed).
    Suspended,
}

/// Everything that changes while a run executes, split from the
/// [`Simulator`] configuration. A resumed run rebuilds it by replay
/// (`Simulator::restore`), so none of it is ever serialized.
pub(super) struct RunState {
    pub(super) queue: EventQueue,
    pub(super) jobs: JobTable,
    pub(super) qstate: Vec<QueryState>,
    pub(super) preds: Vec<Vec<JobPrediction>>,
    pub(super) fr: FaultState,
    pub(super) free_slots: BinaryHeap<Reverse<usize>>,
    pub(super) now: f64,
    pub(super) done_queries: usize,
    pub(super) rng: StdRng,
    pub(super) fault_rng: StdRng,
    /// Materialized scheduling state.
    pub(super) dstate: DispatchState,
    /// Interned query names.
    pub(super) names: Vec<std::sync::Arc<str>>,
    /// Events processed so far (mirrors [`Counter::EventsProcessed`]); the
    /// snapshot boundary and the watchdog budget both count this.
    pub(super) events_processed: u64,
}

/// The simulator: owns the cluster config, cost model and scheduler.
pub struct Simulator<S: Scheduler> {
    /// Cluster topology and Hadoop-parameter configuration.
    pub config: ClusterConfig,
    /// Ground-truth task cost model.
    pub cost: CostModel,
    /// The scheduling policy under test.
    pub scheduler: S,
    /// The failure schedule to inject ([`FaultPlan::none`] by default —
    /// bit-identical to a fault-free run).
    pub faults: FaultPlan,
    // Test oracle: re-derive the runnable view from scratch after every
    // event and before every pick, panicking on any divergence.
    crosscheck: bool,
    // Event-budget watchdog (None = unlimited).
    max_events: Option<u64>,
}

impl<S: Scheduler> Simulator<S> {
    /// Assemble a simulator (no faults).
    pub fn new(config: ClusterConfig, cost: CostModel, scheduler: S) -> Self {
        Self {
            config,
            cost,
            scheduler,
            faults: FaultPlan::none(),
            crosscheck: false,
            max_events: None,
        }
    }

    /// Same simulator, checked against the from-scratch runnable view: after
    /// every event and before every pick the engine rebuilds the view from
    /// the job table and panics unless the maintained one matches it bit for
    /// bit (f64 score inputs included), and unless every live query's demand
    /// aggregates match a fresh pass over its jobs. A keyed scheduler's
    /// indexed choice is also checked against its scan ([`Scheduler::pick`])
    /// at every decision. A test oracle: O(Σ jobs) per event, and the
    /// schedule, report and event stream stay those of a plain run.
    pub fn crosschecked(mut self) -> Self {
        self.crosscheck = true;
        self
    }

    /// Same simulator with a seeded failure schedule injected.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Same simulator with an event-budget watchdog: a run that processes
    /// `limit` events without finishing stops with
    /// [`SimError::EventBudgetExceeded`] from [`Simulator::execute`]
    /// (the infallible shorthands panic with the same message). This turns a
    /// non-terminating schedule — e.g. a fault plan whose retries can
    /// never exhaust — into a typed error instead of a hang.
    ///
    /// # Panics
    /// Panics if `limit` is zero.
    pub fn with_max_events(mut self, limit: u64) -> Self {
        assert!(limit > 0, "event budget must be positive");
        self.max_events = Some(limit);
        self
    }

    /// Run `queries` as `run` describes — the engine's one body. The run
    /// starts fresh or from [`Run::resume`] bytes, emits every discrete
    /// event to the run's sink — lifecycle, task placement, and decision
    /// records with each candidate's [`Scheduler::score`] — and ends in
    /// [`RunOutcome::Done`], or in [`RunOutcome::Snapshot`] at its
    /// [`Run::stop_after`] point. A resumed snapshot finishes with the
    /// uninterrupted run's report, and its events are exactly that run's
    /// events after the cut.
    ///
    /// # Errors
    /// [`SimError::Invalid`] if any query or the fault plan fails
    /// validation (checked before any run state is built, resumed runs
    /// included), [`SimError::Checkpoint`] if the resume bytes do not
    /// name a cut of this run, and [`SimError::EventBudgetExceeded`] if the
    /// [`with_max_events`](Simulator::with_max_events) watchdog trips.
    pub fn execute<K: EventSink, P: Profiler>(
        &mut self,
        queries: &[SimQuery],
        run: Run<'_, K, P>,
    ) -> Result<RunOutcome, SimError> {
        let Run { mut sink, oracle, profiler: prof, resume, stop_after } = run;
        let mut frozen = FrozenOracle;
        let oracle: &mut dyn DemandOracle = match oracle {
            Some(oracle) => oracle,
            None => &mut frozen,
        };
        self.check_inputs(queries)?;
        let sink = &mut CountingSink { inner: &mut sink, prof };
        let mut rs = match resume {
            None => self.init_run(queries, oracle, prof),
            Some(bytes) => self.restore(queries, oracle, bytes)?,
        };
        Ok(match self.drive(queries, &mut rs, sink, oracle, prof, stop_after)? {
            Drive::Finished => RunOutcome::Done(self.finalize(queries, rs, prof)),
            Drive::Suspended => {
                RunOutcome::Snapshot(checkpoint::encode(self, queries, rs.events_processed))
            }
        })
    }

    /// The [`RunState`] at a snapshot's cut: once the blob's frame and
    /// context check out, a fresh run is driven there with no sink and no
    /// profiler, consulting `oracle` as a fresh run does. A cut the run
    /// never reaches is [`CheckpointError::Corrupt`].
    pub(super) fn restore(
        &mut self,
        queries: &[SimQuery],
        oracle: &mut dyn DemandOracle,
        bytes: &[u8],
    ) -> Result<RunState, SimError> {
        let cut = checkpoint::decode(self, queries, bytes)?;
        let mut rs = self.init_run(queries, oracle, &NullProfiler);
        match self.drive(queries, &mut rs, &mut NullSink, oracle, &NullProfiler, Some(cut))? {
            Drive::Suspended => Ok(rs),
            Drive::Finished => Err(CheckpointError::Corrupt(format!(
                "cut at event {cut} lies at or past the run's end ({} events)",
                rs.events_processed
            ))
            .into()),
        }
    }

    /// [`Simulator::execute`] with the default [`Run`], to completion: the
    /// plain-run shorthand, which `perfbench/` and many tests call.
    ///
    /// # Panics
    /// Where `execute` panics or returns an error.
    pub fn run(&mut self, queries: &[SimQuery]) -> SimReport {
        self.execute(queries, Run::new()).unwrap_or_else(|e| panic!("{e}")).into_report()
    }

    /// [`Simulator::execute`] with a sink, an oracle and a profiler. Kept
    /// only because `perfbench/` calls it.
    ///
    /// # Panics
    /// Where `execute` panics or returns an error.
    pub fn run_profiled<K: EventSink, P: Profiler>(
        &mut self,
        queries: &[SimQuery],
        sink: &mut K,
        oracle: &mut dyn DemandOracle,
        prof: &P,
    ) -> SimReport {
        let run = Run::new().sink(sink).oracle(oracle).profiler(prof);
        self.execute(queries, run).unwrap_or_else(|e| panic!("{e}")).into_report()
    }

    /// [`Simulator::execute`] with a sink, an oracle and
    /// [`Run::stop_after`]. Kept only because `perfbench/` calls it.
    ///
    /// # Errors
    /// As `execute`.
    pub fn run_snapshot_after<K: EventSink>(
        &mut self,
        queries: &[SimQuery],
        sink: &mut K,
        oracle: &mut dyn DemandOracle,
        events: u64,
    ) -> Result<RunOutcome, SimError> {
        self.execute(queries, Run::new().sink(sink).oracle(oracle).stop_after(events))
    }

    /// [`Simulator::execute`] with a sink, an oracle and [`Run::resume`],
    /// to completion. Kept only because `perfbench/` calls it.
    ///
    /// # Errors
    /// As `execute`.
    pub fn resume_with_oracle<K: EventSink>(
        &mut self,
        queries: &[SimQuery],
        sink: &mut K,
        oracle: &mut dyn DemandOracle,
        bytes: &[u8],
    ) -> Result<SimReport, SimError> {
        self.execute(queries, Run::new().sink(sink).oracle(oracle).resume(bytes))
            .map(RunOutcome::into_report)
    }

    /// The validation at the start of every run.
    fn check_inputs(&self, queries: &[SimQuery]) -> Result<(), SimError> {
        for q in queries {
            q.validate()
                .map_err(|e| SimError::Invalid(format!("invalid query {}: {e}", q.name)))?;
        }
        self.faults
            .validate(self.config.nodes)
            .map_err(|e| SimError::Invalid(format!("invalid fault plan: {e}")))
    }

    /// Build the [`RunState`] for a fresh run: both RNG streams seeded,
    /// the event queue loaded with arrivals and scheduled crashes, the SoA
    /// job table and prediction matrix allocated, and the dispatch view
    /// seeded.
    fn init_run<P: Profiler>(
        &mut self,
        queries: &[SimQuery],
        oracle: &mut dyn DemandOracle,
        prof: &P,
    ) -> RunState {
        let rng = StdRng::seed_from_u64(self.config.seed);
        // Separate stream for fault sampling: a zero-probability plan draws
        // nothing from it, leaving the duration stream — and therefore the
        // whole simulation — bit-identical to a fault-free run.
        let fault_rng = StdRng::seed_from_u64(self.faults.seed);
        let mut queue = EventQueue::new();

        let jobs = JobTable::new(queries.iter().map(|q| q.jobs.len()));
        // Query names, interned once: the per-arrival QueryArrive emission
        // clones an `Arc<str>` (a refcount bump) instead of allocating a
        // fresh `String` inside the event hot loop.
        let names: Vec<std::sync::Arc<str>> =
            queries.iter().map(|q| std::sync::Arc::from(q.name.as_str())).collect();
        let qstate: Vec<QueryState> = vec![QueryState::default(); queries.len()];
        // The live prediction matrix: consulted from the oracle, never read
        // from the frozen `SimJob` fields. Seeded up front for every job so
        // the demand aggregates below start from a complete view.
        let preds: Vec<Vec<JobPrediction>> = queries
            .iter()
            .enumerate()
            .map(|(qi, q)| q.jobs.iter().map(|j| oracle.predict(QueryId(qi), j)).collect())
            .collect();
        for (i, q) in queries.iter().enumerate() {
            queue.push(q.arrival, Event::Arrival { q: i });
        }
        let fr = FaultState::new(self.config.nodes, self.config.total_containers());
        for (ci, crash) in self.faults.node_crashes.iter().enumerate() {
            queue.push(crash.at, Event::NodeDown { crash: ci });
        }

        // Min-heap of free container-slot ids: tasks land on the
        // lowest-numbered free slot, giving stable node/slot placement for
        // the trace exporters.
        let free_slots: BinaryHeap<Reverse<usize>> =
            (0..self.config.total_containers()).map(Reverse).collect();

        // Materialized scheduling state. Seed every query's demand
        // aggregates up front (WRD and critical path depend only on
        // done-task counts, which start at zero, not on submission) so
        // `Submit` handling stays O(1) per job.
        let mut dstate =
            DispatchState::new(queries.len(), jobs.counts.len(), self.config.total_containers());
        for qi in 0..queries.len() {
            dstate.refresh_query(queries, &jobs, &preds, qi);
            prof.inc(Counter::SchedulerViewUpdates);
        }

        RunState {
            queue,
            jobs,
            qstate,
            preds,
            fr,
            free_slots,
            now: 0.0,
            done_queries: 0,
            rng,
            fault_rng,
            dstate,
            names,
            events_processed: 0,
        }
    }

    /// The event loop: pop events, mutate `rs`, dispatch free containers,
    /// and between events check (in order) run completion, the optional
    /// suspension point and the event watchdog.
    #[allow(clippy::too_many_lines)]
    fn drive<K: EventSink, P: Profiler>(
        &mut self,
        queries: &[SimQuery],
        rs: &mut RunState,
        sink: &mut K,
        oracle: &mut dyn DemandOracle,
        prof: &P,
        suspend_after: Option<u64>,
    ) -> Result<Drive, SimError> {
        while let Some((t, event)) = rs.queue.pop() {
            debug_assert!(t >= rs.now - 1e-9, "clock went backwards: {t} < {}", rs.now);
            rs.now = t;
            let now = t;
            rs.events_processed += 1;
            prof.inc(Counter::EventsProcessed);
            prof.record_max(Counter::QueuePeakDepth, rs.queue.len() as u64 + 1);
            // Event handling plus the dispatch it triggers, as a labeled
            // block: stale-event arms skip the rest of the handling with
            // `break 'event` instead of `continue`, so the loop-bottom
            // completion / suspension / watchdog checks run after *every*
            // event. (A `continue` here would silently skip
            // a requested snapshot boundary whenever it landed on a
            // lazily-invalidated event.)
            'event: {
                match event {
                    Event::Arrival { q } => {
                        emit!(
                            sink,
                            ObsEvent::QueryArrive {
                                t: now,
                                query: QueryId(q),
                                name: rs.names[q].clone(),
                            }
                        );
                        for job in &queries[q].jobs {
                            if job.deps.is_empty() {
                                rs.queue.push(now, Event::Submit { q, j: job.id.into() });
                            }
                        }
                    }
                    Event::Submit { q, j } => {
                        if rs.qstate[q].failed {
                            // The query was abandoned while this submit was
                            // in flight; nothing of it may enter the runnable
                            // set.
                            break 'event;
                        }
                        let job = &queries[q].jobs[j];
                        let i = rs.jobs.idx(q, j);
                        rs.jobs.submitted[i] = true;
                        rs.jobs.submit_time[i] = now;
                        rs.jobs.counts[i][Map].pending = job.maps.len();
                        rs.jobs.reduces_unlocked[i] = job.reduces.is_empty();
                        rs.jobs.reduces_initialized[i] = job.reduces.is_empty();
                        rs.jobs.lists[i] = JobLists::new(job);
                        rs.preds[q][j] = oracle.predict(QueryId(q), job);
                        emit!(
                            sink,
                            ObsEvent::JobSubmit {
                                t: now,
                                query: QueryId(q),
                                job: JobId(j),
                                category: job.category,
                            }
                        );
                        rs.dstate.update_job(queries, &rs.jobs, q, j);
                        prof.inc(Counter::SchedulerViewUpdates);
                    }
                    Event::TaskDone { attempt } => {
                        if !rs.fr.attempts.alive[attempt] {
                            // Stale completion of an attempt killed in the
                            // meantime (lazy queue invalidation).
                            rs.fr.attempts.release(attempt);
                            break 'event;
                        }
                        let a = rs.fr.attempts.get(attempt);
                        rs.fr.attempts.alive[attempt] = false;
                        rs.fr.release_slot(a.slot, &self.config, &mut rs.free_slots);
                        let mut counted = a.counted;
                        if rs.fr.partner_alive(attempt) {
                            // This attempt won the speculative race: kill the
                            // loser and inherit the running-count
                            // representation if the loser held it.
                            let p = a.partner.expect("partner_alive implies partner");
                            counted |= rs.fr.attempts.counted[p];
                            rs.fr.attempts.counted[p] = false;
                            rs.fr.kill_attempt(
                                p,
                                false,
                                now,
                                &self.config,
                                &mut rs.jobs,
                                &mut rs.free_slots,
                                sink,
                            );
                            if a.speculative {
                                rs.fr.stats.speculative_wins += 1;
                            }
                        }
                        debug_assert!(counted, "a finishing task must hold the running count");
                        rs.fr.attempts.release(attempt);
                        let duration = f64::from_bits(a.duration_bits);
                        emit!(
                            sink,
                            ObsEvent::TaskFinish {
                                t: now,
                                query: QueryId(a.q),
                                job: JobId(a.j),
                                phase: phase_of(a.kind),
                                node: NodeId(self.config.node_of(a.slot)),
                                slot: self.config.slot_of(a.slot),
                                duration,
                            }
                        );
                        let (q, j) = (a.q, a.j);
                        let job = &queries[q].jobs[j];
                        let i = rs.jobs.idx(q, j);
                        let c = &mut rs.jobs.counts[i];
                        c[a.kind].running -= 1;
                        c[a.kind].done += 1;
                        let maps_done = c[Map].done == job.maps.len();
                        let job_done = maps_done && c[Reduce].done == job.reduces.len();
                        rs.jobs.stats[i][a.kind].time_sum += duration;
                        rs.jobs.stats[i][a.kind].completions += 1;
                        if a.kind == Map {
                            rs.jobs.lists[i].map_node[a.spec_idx] =
                                Some(self.config.node_of(a.slot));
                            if maps_done && !job.reduces.is_empty() {
                                if !rs.jobs.reduces_initialized[i] {
                                    rs.jobs.counts[i][Reduce].pending = job.reduces.len();
                                    rs.jobs.reduces_initialized[i] = true;
                                }
                                rs.jobs.reduces_unlocked[i] = true;
                            }
                        }
                        if let Some(since) =
                            rs.jobs.lists[i].lanes[a.kind].fail_since[a.spec_idx].take()
                        {
                            rs.fr.stats.recovery_count += 1;
                            let lat = now - since;
                            rs.fr.stats.recovery_latency_sum += lat;
                            rs.fr.stats.recovery_latency_max =
                                rs.fr.stats.recovery_latency_max.max(lat);
                        }
                        if job_done && rs.jobs.finished[i].is_none() {
                            rs.jobs.finished[i] = Some(now);
                            rs.jobs.free_lists(i);
                            rs.qstate[q].jobs_done += 1;
                            emit!(
                                sink,
                                ObsEvent::JobFinish {
                                    t: now,
                                    query: QueryId(q),
                                    job: JobId(j),
                                    category: job.category,
                                }
                            );
                            // Submit dependents whose parents are all finished.
                            for dep in queries[q].jobs.iter().filter(|d| d.deps.contains(&JobId(j)))
                            {
                                let ready = dep
                                    .deps
                                    .iter()
                                    .all(|&p| rs.jobs.finished[rs.jobs.idx(q, p.0)].is_some());
                                if ready && !rs.jobs.submitted[rs.jobs.idx(q, dep.id.0)] {
                                    rs.queue.push(
                                        now + self.config.submit_overhead,
                                        Event::Submit { q, j: dep.id.into() },
                                    );
                                }
                            }
                            if rs.qstate[q].jobs_done == queries[q].jobs.len() {
                                rs.qstate[q].finished = Some(now);
                                rs.done_queries += 1;
                                emit!(sink, ObsEvent::QueryFinish { t: now, query: QueryId(q) });
                            }
                        }
                        rs.dstate.on_task_done(queries, &rs.jobs, &rs.preds, q, j);
                        prof.inc(Counter::SchedulerViewUpdates);
                    }
                    Event::TaskFailed { attempt } => {
                        if !rs.fr.attempts.alive[attempt] {
                            rs.fr.attempts.release(attempt);
                            break 'event;
                        }
                        let a = rs.fr.attempts.get(attempt);
                        rs.fr.attempts.alive[attempt] = false;
                        rs.fr.release_slot(a.slot, &self.config, &mut rs.free_slots);
                        let node = self.config.node_of(a.slot);
                        rs.fr.stats.task_failures += 1;
                        rs.fr.node_failures[node] += 1;
                        let mut will_retry = false;
                        let mut retry_at = now;
                        let mut query_failed = false;
                        if rs.fr.partner_alive(attempt) {
                            // A live clone still covers the task: hand it the
                            // running count; no retry needed.
                            if a.counted {
                                let p = a.partner.expect("partner_alive implies partner");
                                rs.fr.attempts.counted[p] = true;
                            }
                        } else {
                            debug_assert!(a.counted);
                            let i = rs.jobs.idx(a.q, a.j);
                            rs.jobs.counts[i][a.kind].running -= 1;
                            let used = rs.jobs.lists[i].lanes[a.kind].attempt_no[a.spec_idx];
                            if used >= self.faults.max_attempts {
                                query_failed = true;
                            } else {
                                will_retry = true;
                                retry_at = now + self.faults.backoff(used);
                                rs.fr.stats.retries_scheduled += 1;
                                rs.jobs.start_recovery_clock(i, a.kind, a.spec_idx, now);
                            }
                        }
                        rs.fr.attempts.release(attempt);
                        emit!(
                            sink,
                            ObsEvent::TaskFailed {
                                t: now,
                                query: QueryId(a.q),
                                job: JobId(a.j),
                                phase: phase_of(a.kind),
                                node: NodeId(node),
                                slot: self.config.slot_of(a.slot),
                                attempt: a.attempt_no,
                                ran_for: now - a.start,
                                will_retry,
                                retry_at,
                            }
                        );
                        if will_retry {
                            rs.queue.push(
                                retry_at,
                                Event::Retry { q: a.q, j: a.j, kind: a.kind, spec_idx: a.spec_idx },
                            );
                        }
                        let mut affected = vec![a.q];
                        if query_failed {
                            fail_query(
                                a.q,
                                now,
                                &self.config,
                                &mut rs.fr,
                                &mut rs.jobs,
                                &mut rs.qstate,
                                &mut rs.free_slots,
                                sink,
                            );
                            rs.fr.stats.failed_queries.push(QueryId(a.q));
                            rs.done_queries += 1;
                            rs.dstate.remove_query(a.q);
                            prof.inc(Counter::SchedulerViewUpdates);
                        }
                        // Blacklist a node that keeps failing tasks — but never
                        // the last usable one (a flaky node beats no node;
                        // reset its strike counter instead, mirroring Hadoop's
                        // cap on simultaneously-blacklisted trackers).
                        if self.faults.blacklist_after > 0
                            && rs.fr.node_usable(node)
                            && rs.fr.node_failures[node] >= self.faults.blacklist_after
                        {
                            if rs.fr.usable_nodes() > 1 {
                                rs.fr.blacklisted[node] = true;
                                rs.fr.stats.nodes_blacklisted += 1;
                                emit!(
                                    sink,
                                    ObsEvent::NodeDown {
                                        t: now,
                                        node: NodeId(node),
                                        reason: DownReason::Blacklist,
                                        lost_maps: 0,
                                    }
                                );
                                affected.extend(rs.fr.kill_node_attempts(
                                    node,
                                    true,
                                    now,
                                    &self.config,
                                    &mut rs.jobs,
                                    &mut rs.free_slots,
                                    sink,
                                ));
                                rs.free_slots.retain(|&Reverse(s)| self.config.node_of(s) != node);
                            } else {
                                rs.fr.node_failures[node] = 0;
                            }
                        }
                        affected.sort_unstable();
                        affected.dedup();
                        for &qi in &affected {
                            if !rs.qstate[qi].failed {
                                rs.dstate.resync_query(queries, &rs.jobs, &rs.preds, qi);
                                prof.inc(Counter::SchedulerViewUpdates);
                            }
                        }
                    }
                    Event::Retry { q, j, kind, spec_idx } => {
                        if rs.qstate[q].failed {
                            // Backoff elapsed after the query was abandoned.
                            break 'event;
                        }
                        rs.jobs.requeue(rs.jobs.idx(q, j), kind, spec_idx);
                        rs.dstate.resync_query(queries, &rs.jobs, &rs.preds, q);
                        prof.inc(Counter::SchedulerViewUpdates);
                    }
                    Event::NodeDown { crash } => {
                        let nc = self.faults.node_crashes[crash];
                        let node = nc.node;
                        // (A crash while the node is already down is idempotent
                        // here; validate rejects overlapping windows, but
                        // exactly-adjacent ones pop the second NodeDown before
                        // the first NodeUp, and the epoch guard sorts that out.)
                        rs.fr.crashed[node.0] = true;
                        rs.fr.node_epoch[node.0] += 1;
                        rs.fr.stats.node_crashes += 1;
                        // The classic re-execution rule: completed map output
                        // lives on the node's local disk, so unfinished jobs
                        // whose reduces still need it must re-run the maps
                        // that ran here. (Reduce output and map-only job
                        // output live on replicated HDFS — safe.)
                        let mut lost_per_job: Vec<(usize, usize, usize)> = Vec::new();
                        let mut affected: Vec<usize> = Vec::new();
                        for (qi, q) in queries.iter().enumerate() {
                            if rs.qstate[qi].failed {
                                continue;
                            }
                            for job in &q.jobs {
                                let i = rs.jobs.idx(qi, job.id.0);
                                if !rs.jobs.submitted[i]
                                    || rs.jobs.finished[i].is_some()
                                    || job.reduces.is_empty()
                                {
                                    continue;
                                }
                                let lost: Vec<usize> = (0..job.maps.len())
                                    .filter(|&m| rs.jobs.lists[i].map_node[m] == Some(node.into()))
                                    .collect();
                                if lost.is_empty() {
                                    continue;
                                }
                                rs.jobs.counts[i][Map].done -= lost.len();
                                for &m in &lost {
                                    rs.jobs.lists[i].map_node[m] = None;
                                    rs.jobs.requeue(i, Map, m);
                                    rs.jobs.start_recovery_clock(i, Map, m, now);
                                }
                                if rs.jobs.reduces_unlocked[i] {
                                    // The reduce wave re-locks until the map
                                    // wave is whole again (running reduces are
                                    // allowed to finish).
                                    rs.jobs.reduces_unlocked[i] = false;
                                }
                                rs.fr.stats.lost_maps += lost.len();
                                lost_per_job.push((qi, job.id.into(), lost.len()));
                                affected.push(qi);
                            }
                        }
                        let lost_total: usize = lost_per_job.iter().map(|&(_, _, n)| n).sum();
                        emit!(
                            sink,
                            ObsEvent::NodeDown {
                                t: now,
                                node,
                                reason: DownReason::Crash,
                                lost_maps: lost_total,
                            }
                        );
                        for (qi, j, n) in lost_per_job {
                            emit!(
                                sink,
                                ObsEvent::MapOutputLost {
                                    t: now,
                                    query: QueryId(qi),
                                    job: JobId(j),
                                    node,
                                    maps_lost: n,
                                }
                            );
                        }
                        affected.extend(rs.fr.kill_node_attempts(
                            node.into(),
                            true,
                            now,
                            &self.config,
                            &mut rs.jobs,
                            &mut rs.free_slots,
                            sink,
                        ));
                        rs.free_slots.retain(|&Reverse(s)| self.config.node_of(s) != node.into());
                        if nc.down_for.is_finite() {
                            rs.queue.push(
                                now + nc.down_for,
                                Event::NodeUp {
                                    node: node.into(),
                                    epoch: rs.fr.node_epoch[node.0],
                                },
                            );
                        }
                        affected.sort_unstable();
                        affected.dedup();
                        for &qi in &affected {
                            rs.dstate.resync_query(queries, &rs.jobs, &rs.preds, qi);
                            prof.inc(Counter::SchedulerViewUpdates);
                        }
                    }
                    Event::NodeUp { node, epoch } => {
                        if rs.fr.node_epoch[node] != epoch || !rs.fr.crashed[node] {
                            // A newer crash superseded this recovery.
                            break 'event;
                        }
                        rs.fr.crashed[node] = false;
                        if !rs.fr.blacklisted[node] {
                            emit!(sink, ObsEvent::NodeUp { t: now, node: NodeId(node) });
                            let base = node * self.config.containers_per_node;
                            for slot in base..base + self.config.containers_per_node {
                                if rs.fr.slot_attempt[slot].is_none() {
                                    rs.free_slots.push(Reverse(slot));
                                }
                            }
                        }
                    }
                }
                if self.crosscheck {
                    rs.dstate.crosscheck(queries, &rs.jobs, &rs.preds, &rs.qstate, "after event");
                }

                // Dispatch free containers from the maintained runnable view;
                // on a wide view a keyed scheduler's choice is the top of the
                // pick index (every view under Crosscheck, which checks it
                // against the scan).
                while !rs.free_slots.is_empty() {
                    let indexed = (rs.dstate.runnable.len() >= INDEX_MIN_WIDTH || self.crosscheck)
                        && rs.dstate.reindex(&rs.jobs, |r| self.scheduler.key(r));
                    if self.crosscheck {
                        rs.dstate.crosscheck(
                            queries,
                            &rs.jobs,
                            &rs.preds,
                            &rs.qstate,
                            "before pick",
                        );
                    }
                    let runnable: &[RunnableJob] = &rs.dstate.runnable;
                    let picked = if indexed {
                        if self.crosscheck {
                            rs.dstate.crosscheck_index(&mut self.scheduler, "before pick");
                        }
                        prof.add(Counter::CandidatesExamined, runnable.len().min(1) as u64);
                        rs.dstate.first()
                    } else {
                        prof.add(Counter::CandidatesExamined, runnable.len() as u64);
                        self.scheduler.pick(runnable)
                    };
                    prof.inc(Counter::DispatchDecisions);
                    let Some(c) = picked else {
                        // No runnable work for this container. With speculative
                        // execution on, clone the worst straggler of a
                        // nearly-done job into the idle slot instead of letting
                        // it sit; first finisher wins, loser is killed.
                        if !self.faults.speculative {
                            break;
                        }
                        let mut best: Option<usize> = None;
                        // Straggler scan over the slab's SoA columns:
                        // `alive`, `partner`, `q`/`j`, and `sched_end` stream
                        // as flat arrays; the full 13-field record is only
                        // gathered for the single winner below. The latest
                        // scheduled end wins, ties going to the earliest
                        // launch (row ids are recycled and carry no order).
                        let at = &rs.fr.attempts;
                        for id in 0..at.rows() {
                            if !at.alive[id] || at.partner[id] != NIL || rs.qstate[at.q[id]].failed
                            {
                                continue;
                            }
                            let (aq, aj) = (at.q[id], at.info[id].j);
                            let job = &queries[aq].jobs[aj];
                            let c = &rs.jobs.counts[rs.jobs.idx(aq, aj)];
                            let total = (job.maps.len() + job.reduces.len()) as f64;
                            let done = (c[Map].done + c[Reduce].done) as f64;
                            if done / total < self.faults.spec_fraction {
                                continue;
                            }
                            if best.is_none_or(|b| {
                                at.sched_end[id] > at.sched_end[b]
                                    || (at.sched_end[id] == at.sched_end[b]
                                        && at.launch[id] < at.launch[b])
                            }) {
                                best = Some(id);
                            }
                        }
                        let Some(orig_id) = best else { break };
                        let orig = rs.fr.attempts.get(orig_id);
                        // Place the clone off the straggler's node if any other
                        // node has a free slot (lowest slot id wins for
                        // determinism), else share the node.
                        let mut slots: Vec<usize> = rs.free_slots.iter().map(|r| r.0).collect();
                        slots.sort_unstable();
                        let orig_node = self.config.node_of(orig.slot);
                        let slot = slots
                            .iter()
                            .copied()
                            .find(|&s| self.config.node_of(s) != orig_node)
                            .unwrap_or(slots[0]);
                        rs.free_slots.retain(|&Reverse(s)| s != slot);
                        emit!(
                            sink,
                            ObsEvent::SpeculativeLaunch {
                                t: now,
                                query: QueryId(orig.q),
                                job: JobId(orig.j),
                                phase: phase_of(orig.kind),
                                node: NodeId(self.config.node_of(slot)),
                                slot: self.config.slot_of(slot),
                            }
                        );
                        let task = (orig.q, orig.j, orig.kind, orig.spec_idx, orig.attempt_no);
                        let id = self.launch(queries, rs, sink, prof, task, slot, Some(orig_id));
                        rs.fr.attempts.partner[orig_id] = id as u32;
                        rs.fr.stats.speculative_launches += 1;
                        // Clones are uncounted: the scheduler's view (pending /
                        // running / demand) is unchanged, so no state update.
                        continue;
                    };
                    if sink.enabled() {
                        // Decision-record construction (candidate scoring) is
                        // skipped entirely for disabled sinks.
                        let candidates = runnable
                            .iter()
                            .map(|r| Candidate {
                                query: r.query,
                                job: r.job,
                                score: self.scheduler.score(r),
                            })
                            .collect();
                        sink.emit(&ObsEvent::Decision {
                            t: now,
                            policy: self.scheduler.name(),
                            candidates,
                            chosen_query: c.query,
                            chosen_job: c.job,
                            phase: phase_of(c.kind),
                            queue_depth: runnable.len(),
                            free_containers: rs.free_slots.len(),
                        });
                    }
                    let (q, j) = (c.query.0, c.job.0);
                    let (spec_idx, attempt_no) = rs.jobs.start_task(rs.jobs.idx(q, j), c.kind);
                    let Reverse(slot) = rs.free_slots.pop().expect("checked non-empty");
                    let task = (q, j, c.kind, spec_idx, attempt_no);
                    self.launch(queries, rs, sink, prof, task, slot, None);
                    rs.dstate.update_job(queries, &rs.jobs, q, j);
                    prof.inc(Counter::SchedulerViewUpdates);
                }
            }
            if rs.done_queries == queries.len() {
                // Every query is accounted for (finished or abandoned).
                // Fault-free runs reach this point with an empty heap
                // anyway; under faults it keeps pending NodeUp/Retry events
                // from pointlessly extending the run.
                return Ok(Drive::Finished);
            }
            // The run is quiescent between events — the suspension point
            // for snapshots and the watchdog check.
            if suspend_after.is_some_and(|n| rs.events_processed >= n) {
                return Ok(Drive::Suspended);
            }
            if let Some(limit) = self.max_events {
                if rs.events_processed >= limit {
                    return Err(SimError::EventBudgetExceeded { limit });
                }
            }
        }
        Ok(Drive::Finished)
    }

    /// Start one attempt of `task` — `(query, job, kind, spec index,
    /// attempt number)` — on `slot`, already taken from the free pool: a
    /// regular attempt, or, with `partner`, a speculative clone of that
    /// attempt. The first attempt of a job or query starts it. The
    /// attempt's duration is drawn, then whether it fails; its terminal
    /// event is queued and its slab row returned.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn launch<K: EventSink, P: Profiler>(
        &self,
        queries: &[SimQuery],
        rs: &mut RunState,
        sink: &mut K,
        prof: &P,
        (q, j, kind, spec_idx, attempt_no): (usize, usize, TaskKind, usize, usize),
        slot: usize,
        partner: Option<usize>,
    ) -> usize {
        let now = rs.now;
        let i = rs.jobs.idx(q, j);
        if rs.jobs.started[i].is_none() {
            rs.jobs.started[i] = Some(now);
            emit!(sink, ObsEvent::JobStart { t: now, query: QueryId(q), job: JobId(j) });
        }
        if rs.qstate[q].started.is_none() {
            rs.qstate[q].started = Some(now);
            emit!(sink, ObsEvent::QueryStart { t: now, query: QueryId(q) });
        }
        emit!(
            sink,
            ObsEvent::TaskStart {
                t: now,
                query: QueryId(q),
                job: JobId(j),
                phase: phase_of(kind),
                node: NodeId(self.config.node_of(slot)),
                slot: self.config.slot_of(slot),
            }
        );
        let load = 1.0 - rs.free_slots.len() as f64 / self.config.total_containers() as f64;
        let spec = specs(&queries[q].jobs[j], kind)[spec_idx];
        let duration = self.cost.duration_loaded(&spec, load, &mut rs.rng).max(1e-3);
        // Fault sampling draws from its own stream so a zero-prob plan
        // consumes no randomness; a doomed attempt dies at a sampled
        // fraction of its would-be duration.
        let fail = self.cost.sample_failure(self.faults.task_fail_prob, &mut rs.fault_rng);
        let id = rs.fr.attempts.push(Attempt {
            q,
            j,
            kind,
            spec_idx,
            slot,
            start: now,
            duration_bits: duration.to_bits(),
            sched_end: now + duration,
            attempt_no,
            speculative: partner.is_some(),
            counted: partner.is_none(),
            partner,
            alive: true,
        });
        rs.fr.slot_attempt[slot] = Some(id);
        rs.jobs.stats[i][kind].attempts += 1;
        prof.inc(Counter::TasksLaunched);
        match fail {
            Some(frac) => rs.queue.push(now + duration * frac, Event::TaskFailed { attempt: id }),
            None => rs.queue.push(now + duration, Event::TaskDone { attempt: id }),
        }
        id
    }

    /// End-of-run invariant asserts, deterministic queue telemetry, and
    /// report assembly.
    fn finalize<P: Profiler>(&self, queries: &[SimQuery], rs: RunState, prof: &P) -> SimReport {
        assert_eq!(
            rs.done_queries,
            queries.len(),
            "simulation deadlocked with unfinished queries (does the fault \
             plan leave any node usable?)"
        );
        let usable_slots = (0..self.config.nodes).filter(|&n| rs.fr.node_usable(n)).count()
            * self.config.containers_per_node;
        assert_eq!(rs.free_slots.len(), usable_slots, "containers leaked");
        debug_assert!(rs.fr.attempts.alive.iter().all(|&a| !a), "attempts leaked");
        debug_assert!(rs.jobs.lists.iter().all(JobLists::is_freed), "per-spec lists leaked");

        // Deterministic queue telemetry: an exact count of pushes + pops.
        prof.add(Counter::EventQueueOps, rs.queue.ops());

        assemble_report(queries, &rs.qstate, &rs.jobs, &rs.fr.stats, rs.now)
    }
}
