//! The simulator event vocabulary.
//!
//! One [`Event`] is emitted for every state transition the discrete-event
//! simulator makes: query lifecycle, job lifecycle, per-task placement on a
//! node/container slot, scheduler decision records, progress (ETA) snapshots,
//! and prediction-error observations. Sinks ([`crate::sink::EventSink`])
//! consume the stream; [`Event::to_json`] renders one event as a JSON object
//! for the JSONL exporter.

use crate::ids::{JobId, NodeId, QueryId};
use crate::json::{array, Obj};
use sapred_plan::JobCategory;

/// Which phase a simulated task belongs to.
///
/// Mirrors the cluster crate's task kind without depending on it (the cluster
/// crate depends on this one).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskPhase {
    /// Map phase task.
    Map,
    /// Reduce phase task.
    Reduce,
}

impl TaskPhase {
    /// Lower-case label used in JSON output and metric names.
    pub fn label(self) -> &'static str {
        match self {
            TaskPhase::Map => "map",
            TaskPhase::Reduce => "reduce",
        }
    }
}

/// Which predicted quantity a [`Event::PredictionError`] observation is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Quantity {
    /// Average map-task execution time (seconds).
    MapTask,
    /// Average reduce-task execution time (seconds).
    ReduceTask,
    /// Whole-job execution time (seconds).
    Job,
    /// Whole-query response time (seconds).
    Query,
}

impl Quantity {
    /// Stable label used in JSON output and drift-report rows.
    pub fn label(self) -> &'static str {
        match self {
            Quantity::MapTask => "map_task",
            Quantity::ReduceTask => "reduce_task",
            Quantity::Job => "job",
            Quantity::Query => "query",
        }
    }
}

/// Why a node stopped accepting tasks.
///
/// Lives here (not in the cluster crate) for the same reason as
/// [`TaskPhase`]: the cluster crate depends on this one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DownReason {
    /// The node crashed per the fault plan's schedule; it may come back.
    Crash,
    /// The node accumulated too many task failures and was blacklisted for
    /// the rest of the run.
    Blacklist,
}

impl DownReason {
    /// Lower-case label used in JSON output and metric names.
    pub fn label(self) -> &'static str {
        match self {
            DownReason::Crash => "crash",
            DownReason::Blacklist => "blacklist",
        }
    }
}

/// One candidate considered by a scheduler when picking the next task.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Query index of the candidate job.
    pub query: QueryId,
    /// Job index within the query.
    pub job: JobId,
    /// The policy's score for this candidate (e.g. WRD for SWRD); lower wins
    /// for every built-in policy.
    pub score: f64,
}

/// A discrete simulator event, stamped with simulated time `t` (seconds).
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A query arrived at the cluster.
    QueryArrive {
        /// Simulated time in seconds.
        t: f64,
        /// Query index within the workload.
        query: QueryId,
        /// Human-readable query name. Interned (`Arc<str>`) so emitting an
        /// arrival is a refcount bump, not a heap allocation — the engine
        /// builds its name table once at sim start.
        name: std::sync::Arc<str>,
    },
    /// First task of a query started running.
    QueryStart {
        /// Simulated time in seconds.
        t: f64,
        /// Query index within the workload.
        query: QueryId,
    },
    /// Last job of a query finished.
    QueryFinish {
        /// Simulated time in seconds.
        t: f64,
        /// Query index within the workload.
        query: QueryId,
    },
    /// A job's dependencies cleared; it joined the runnable pool.
    JobSubmit {
        /// Simulated time in seconds.
        t: f64,
        /// Query index within the workload.
        query: QueryId,
        /// Job index within the query.
        job: JobId,
        /// Semantic category of the job.
        category: JobCategory,
    },
    /// A job's first task started running.
    JobStart {
        /// Simulated time in seconds.
        t: f64,
        /// Query index within the workload.
        query: QueryId,
        /// Job index within the query.
        job: JobId,
    },
    /// A job's last task completed.
    JobFinish {
        /// Simulated time in seconds.
        t: f64,
        /// Query index within the workload.
        query: QueryId,
        /// Job index within the query.
        job: JobId,
        /// Semantic category of the job.
        category: JobCategory,
    },
    /// A task was placed on a container slot and started running.
    TaskStart {
        /// Simulated time in seconds.
        t: f64,
        /// Query index within the workload.
        query: QueryId,
        /// Job index within the query.
        job: JobId,
        /// Map or reduce.
        phase: TaskPhase,
        /// Cluster node index the task runs on.
        node: NodeId,
        /// Container slot index within the node.
        slot: usize,
    },
    /// A task finished and released its container slot.
    TaskFinish {
        /// Simulated time in seconds.
        t: f64,
        /// Query index within the workload.
        query: QueryId,
        /// Job index within the query.
        job: JobId,
        /// Map or reduce.
        phase: TaskPhase,
        /// Cluster node index the task ran on.
        node: NodeId,
        /// Container slot index within the node.
        slot: usize,
        /// Task duration in seconds.
        duration: f64,
    },
    /// A task attempt failed mid-run (transient fault) and released its slot.
    TaskFailed {
        /// Simulated time in seconds.
        t: f64,
        /// Query index within the workload.
        query: QueryId,
        /// Job index within the query.
        job: JobId,
        /// Map or reduce.
        phase: TaskPhase,
        /// Cluster node index the attempt ran on.
        node: NodeId,
        /// Container slot index within the node.
        slot: usize,
        /// Attempt number for this task (1-based; 1 = first try).
        attempt: usize,
        /// Seconds the attempt ran before failing.
        ran_for: f64,
        /// Whether a retry was scheduled (false once attempts are
        /// exhausted or a live clone already covers the task).
        will_retry: bool,
        /// When the retry re-enters the runnable set (only meaningful when
        /// `will_retry`; equals `t` otherwise).
        retry_at: f64,
    },
    /// A running attempt was killed: node crash, speculative race lost, or
    /// its query was abandoned. Killed attempts never count toward stats.
    TaskKilled {
        /// Simulated time in seconds.
        t: f64,
        /// Query index within the workload.
        query: QueryId,
        /// Job index within the query.
        job: JobId,
        /// Map or reduce.
        phase: TaskPhase,
        /// Cluster node index the attempt ran on.
        node: NodeId,
        /// Container slot index within the node.
        slot: usize,
        /// Whether the killed attempt was a speculative clone.
        speculative: bool,
        /// Whether the task immediately re-entered the runnable set (true
        /// for node-crash victims; false when a partner attempt covers the
        /// task or the query was abandoned).
        requeued: bool,
    },
    /// A node stopped accepting tasks (crash or blacklist).
    NodeDown {
        /// Simulated time in seconds.
        t: f64,
        /// Node index.
        node: NodeId,
        /// Crash (may recover) or blacklist (permanent for the run).
        reason: DownReason,
        /// Completed map outputs on this node invalidated by the outage
        /// (always 0 for blacklists: the node's disks stay reachable).
        lost_maps: usize,
    },
    /// A crashed node recovered and resumed accepting tasks.
    NodeUp {
        /// Simulated time in seconds.
        t: f64,
        /// Node index.
        node: NodeId,
    },
    /// A straggler attempt was cloned onto another container (speculative
    /// execution). Followed by the clone's own `TaskStart`.
    SpeculativeLaunch {
        /// Simulated time in seconds.
        t: f64,
        /// Query index within the workload.
        query: QueryId,
        /// Job index within the query.
        job: JobId,
        /// Map or reduce.
        phase: TaskPhase,
        /// Node the clone was placed on.
        node: NodeId,
        /// Container slot the clone occupies.
        slot: usize,
    },
    /// A node crash invalidated completed map output of one job; the maps
    /// re-enter the runnable set (the classic MapReduce re-execution rule).
    MapOutputLost {
        /// Simulated time in seconds.
        t: f64,
        /// Query index within the workload.
        query: QueryId,
        /// Job index within the query.
        job: JobId,
        /// Node whose local map output was lost.
        node: NodeId,
        /// Number of completed maps of this job that must re-run.
        maps_lost: usize,
    },
    /// A scheduler decision: which runnable job got the free container, and
    /// what every candidate scored under the active policy.
    Decision {
        /// Simulated time in seconds.
        t: f64,
        /// Scheduler policy name (e.g. `"swrd"`).
        policy: &'static str,
        /// Every runnable job considered, with its policy score.
        candidates: Vec<Candidate>,
        /// Query index of the chosen job.
        chosen_query: QueryId,
        /// Job index of the chosen job.
        chosen_job: JobId,
        /// Phase of the task that was dispatched.
        phase: TaskPhase,
        /// Number of runnable jobs at decision time.
        queue_depth: usize,
        /// Free container count at decision time (before this dispatch).
        free_containers: usize,
    },
    /// A progress / ETA snapshot for an in-flight query.
    Eta {
        /// Simulated (or wall) time in seconds.
        t: f64,
        /// Query index.
        query: QueryId,
        /// Fraction of total WRD completed, in `[0, 1]`.
        fraction: f64,
        /// Estimated remaining seconds.
        eta: f64,
    },
    /// A predicted-vs-actual observation for one quantity.
    PredictionError {
        /// Simulated time in seconds (or 0 for offline evaluations).
        t: f64,
        /// Query index, if the observation is tied to a query.
        query: QueryId,
        /// Job index, if tied to a job (0 for query-level observations).
        job: JobId,
        /// Semantic category of the job (queries use their dominant job's
        /// category).
        category: JobCategory,
        /// Which quantity was predicted.
        quantity: Quantity,
        /// Predicted value (seconds).
        predicted: f64,
        /// Actual value (seconds).
        actual: f64,
    },
    /// Admission control shed a query: the pending queue was full and a shed
    /// policy picked a victim (the newcomer or an already-queued query).
    QueryShed {
        /// Simulated time in seconds.
        t: f64,
        /// Query index within the workload.
        query: QueryId,
        /// Shed-policy name that made the call (e.g. `"reject_newest"`).
        policy: &'static str,
        /// The victim's whole-query remaining demand (WRD) at shed time.
        wrd: f64,
        /// Whether a backoff resubmission was scheduled (false once the
        /// resubmit budget is exhausted — the query is abandoned).
        will_resubmit: bool,
        /// When the resubmission re-arrives (only meaningful when
        /// `will_resubmit`; equals `t` otherwise).
        resubmit_at: f64,
    },
    /// A query overran its deadline and was killed by admission control.
    DeadlineMissed {
        /// Simulated time in seconds (= arrival + deadline).
        t: f64,
        /// Query index within the workload.
        query: QueryId,
        /// The configured per-query deadline (seconds after arrival).
        deadline: f64,
    },
    /// Prediction trust fell below threshold; the scheduler dropped into
    /// its semantics-blind fallback policy.
    DegradedModeEnter {
        /// Simulated time in seconds.
        t: f64,
        /// Oracle trust score in `[0, 1]` at the transition.
        trust: f64,
        /// Fallback policy name the scheduler switched to (e.g. `"FIFO"`).
        fallback: &'static str,
    },
    /// Prediction trust recovered past the exit threshold (hysteresis);
    /// the scheduler resumed its semantics-aware policy.
    DegradedModeExit {
        /// Simulated time in seconds.
        t: f64,
        /// Oracle trust score in `[0, 1]` at the transition.
        trust: f64,
    },
    /// The engine serialized a full checkpoint of its state (periodic
    /// `checkpoint_every_events` trigger or an explicit snapshot request).
    CheckpointWritten {
        /// Simulated time in seconds.
        t: f64,
        /// Events processed so far in this run (the snapshot boundary).
        events: u64,
        /// Size of the serialized `sapred-ckpt/v2` blob in bytes.
        bytes: u64,
    },
    /// The engine was restored from a checkpoint and resumed execution.
    RunResumed {
        /// Simulated time in seconds (the restored clock).
        t: f64,
        /// Events the checkpointed run had already processed.
        events: u64,
    },
    /// A guarded oracle rejected one predicted value (non-finite, negative,
    /// or out of trained range) and substituted a safe fallback.
    PredictionQuarantined {
        /// Simulated time in seconds.
        t: f64,
        /// Query index within the workload.
        query: QueryId,
        /// Job index within the query.
        job: JobId,
        /// Semantic category of the job.
        category: JobCategory,
        /// Which predicted quantity was quarantined.
        quantity: Quantity,
        /// The rejected raw prediction (may be NaN — rendered as JSON null).
        predicted: f64,
        /// The safe value substituted for it.
        substituted: f64,
    },
}

impl Event {
    /// Simulated timestamp of this event, in seconds.
    pub fn time(&self) -> f64 {
        match self {
            Event::QueryArrive { t, .. }
            | Event::QueryStart { t, .. }
            | Event::QueryFinish { t, .. }
            | Event::JobSubmit { t, .. }
            | Event::JobStart { t, .. }
            | Event::JobFinish { t, .. }
            | Event::TaskStart { t, .. }
            | Event::TaskFinish { t, .. }
            | Event::TaskFailed { t, .. }
            | Event::TaskKilled { t, .. }
            | Event::NodeDown { t, .. }
            | Event::NodeUp { t, .. }
            | Event::SpeculativeLaunch { t, .. }
            | Event::MapOutputLost { t, .. }
            | Event::Decision { t, .. }
            | Event::Eta { t, .. }
            | Event::PredictionError { t, .. }
            | Event::QueryShed { t, .. }
            | Event::DeadlineMissed { t, .. }
            | Event::DegradedModeEnter { t, .. }
            | Event::DegradedModeExit { t, .. }
            | Event::CheckpointWritten { t, .. }
            | Event::RunResumed { t, .. }
            | Event::PredictionQuarantined { t, .. } => *t,
        }
    }

    /// Stable type tag used as the `"event"` field in JSON output.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::QueryArrive { .. } => "query_arrive",
            Event::QueryStart { .. } => "query_start",
            Event::QueryFinish { .. } => "query_finish",
            Event::JobSubmit { .. } => "job_submit",
            Event::JobStart { .. } => "job_start",
            Event::JobFinish { .. } => "job_finish",
            Event::TaskStart { .. } => "task_start",
            Event::TaskFinish { .. } => "task_finish",
            Event::TaskFailed { .. } => "task_failed",
            Event::TaskKilled { .. } => "task_killed",
            Event::NodeDown { .. } => "node_down",
            Event::NodeUp { .. } => "node_up",
            Event::SpeculativeLaunch { .. } => "speculative_launch",
            Event::MapOutputLost { .. } => "map_output_lost",
            Event::Decision { .. } => "decision",
            Event::Eta { .. } => "eta",
            Event::PredictionError { .. } => "prediction_error",
            Event::QueryShed { .. } => "query_shed",
            Event::DeadlineMissed { .. } => "deadline_missed",
            Event::DegradedModeEnter { .. } => "degraded_mode_enter",
            Event::DegradedModeExit { .. } => "degraded_mode_exit",
            Event::CheckpointWritten { .. } => "checkpoint_written",
            Event::RunResumed { .. } => "run_resumed",
            Event::PredictionQuarantined { .. } => "prediction_quarantined",
        }
    }

    /// Render this event as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let base = Obj::new().str("event", self.kind()).num("t", self.time());
        match self {
            Event::QueryArrive { query, name, .. } => {
                base.int("query", u64::from(*query)).str("name", name).finish()
            }
            Event::QueryStart { query, .. } | Event::QueryFinish { query, .. } => {
                base.int("query", u64::from(*query)).finish()
            }
            Event::JobSubmit { query, job, category, .. } => base
                .int("query", u64::from(*query))
                .int("job", u64::from(*job))
                .str("category", &category.to_string())
                .finish(),
            Event::JobStart { query, job, .. } => {
                base.int("query", u64::from(*query)).int("job", u64::from(*job)).finish()
            }
            Event::JobFinish { query, job, category, .. } => base
                .int("query", u64::from(*query))
                .int("job", u64::from(*job))
                .str("category", &category.to_string())
                .finish(),
            Event::TaskStart { query, job, phase, node, slot, .. } => base
                .int("query", u64::from(*query))
                .int("job", u64::from(*job))
                .str("phase", phase.label())
                .int("node", u64::from(*node))
                .int("slot", *slot as u64)
                .finish(),
            Event::TaskFinish { query, job, phase, node, slot, duration, .. } => base
                .int("query", u64::from(*query))
                .int("job", u64::from(*job))
                .str("phase", phase.label())
                .int("node", u64::from(*node))
                .int("slot", *slot as u64)
                .num("duration", *duration)
                .finish(),
            Event::TaskFailed {
                query,
                job,
                phase,
                node,
                slot,
                attempt,
                ran_for,
                will_retry,
                retry_at,
                ..
            } => base
                .int("query", u64::from(*query))
                .int("job", u64::from(*job))
                .str("phase", phase.label())
                .int("node", u64::from(*node))
                .int("slot", *slot as u64)
                .int("attempt", *attempt as u64)
                .num("ran_for", *ran_for)
                .bool("will_retry", *will_retry)
                .num("retry_at", *retry_at)
                .finish(),
            Event::TaskKilled { query, job, phase, node, slot, speculative, requeued, .. } => base
                .int("query", u64::from(*query))
                .int("job", u64::from(*job))
                .str("phase", phase.label())
                .int("node", u64::from(*node))
                .int("slot", *slot as u64)
                .bool("speculative", *speculative)
                .bool("requeued", *requeued)
                .finish(),
            Event::NodeDown { node, reason, lost_maps, .. } => base
                .int("node", u64::from(*node))
                .str("reason", reason.label())
                .int("lost_maps", *lost_maps as u64)
                .finish(),
            Event::NodeUp { node, .. } => base.int("node", u64::from(*node)).finish(),
            Event::SpeculativeLaunch { query, job, phase, node, slot, .. } => base
                .int("query", u64::from(*query))
                .int("job", u64::from(*job))
                .str("phase", phase.label())
                .int("node", u64::from(*node))
                .int("slot", *slot as u64)
                .finish(),
            Event::MapOutputLost { query, job, node, maps_lost, .. } => base
                .int("query", u64::from(*query))
                .int("job", u64::from(*job))
                .int("node", u64::from(*node))
                .int("maps_lost", *maps_lost as u64)
                .finish(),
            Event::Decision {
                policy,
                candidates,
                chosen_query,
                chosen_job,
                phase,
                queue_depth,
                free_containers,
                ..
            } => {
                let cands = array(candidates.iter().map(|c| {
                    Obj::new()
                        .int("query", u64::from(c.query))
                        .int("job", u64::from(c.job))
                        .num("score", c.score)
                        .finish()
                }));
                base.str("policy", policy)
                    .int("chosen_query", u64::from(*chosen_query))
                    .int("chosen_job", u64::from(*chosen_job))
                    .str("phase", phase.label())
                    .int("queue_depth", *queue_depth as u64)
                    .int("free_containers", *free_containers as u64)
                    .raw("candidates", &cands)
                    .finish()
            }
            Event::Eta { query, fraction, eta, .. } => base
                .int("query", u64::from(*query))
                .num("fraction", *fraction)
                .num("eta", *eta)
                .finish(),
            Event::PredictionError {
                query, job, category, quantity, predicted, actual, ..
            } => base
                .int("query", u64::from(*query))
                .int("job", u64::from(*job))
                .str("category", &category.to_string())
                .str("quantity", quantity.label())
                .num("predicted", *predicted)
                .num("actual", *actual)
                .finish(),
            Event::QueryShed { query, policy, wrd, will_resubmit, resubmit_at, .. } => base
                .int("query", u64::from(*query))
                .str("policy", policy)
                .num("wrd", *wrd)
                .bool("will_resubmit", *will_resubmit)
                .num("resubmit_at", *resubmit_at)
                .finish(),
            Event::DeadlineMissed { query, deadline, .. } => {
                base.int("query", u64::from(*query)).num("deadline", *deadline).finish()
            }
            Event::DegradedModeEnter { trust, fallback, .. } => {
                base.num("trust", *trust).str("fallback", fallback).finish()
            }
            Event::DegradedModeExit { trust, .. } => base.num("trust", *trust).finish(),
            Event::CheckpointWritten { events, bytes, .. } => {
                base.int("events", *events).int("bytes", *bytes).finish()
            }
            Event::RunResumed { events, .. } => base.int("events", *events).finish(),
            Event::PredictionQuarantined {
                query,
                job,
                category,
                quantity,
                predicted,
                substituted,
                ..
            } => base
                .int("query", u64::from(*query))
                .int("job", u64::from(*job))
                .str("category", &category.to_string())
                .str("quantity", quantity.label())
                .num("predicted", *predicted)
                .num("substituted", *substituted)
                .finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::QueryArrive { t: 0.0, query: QueryId(0), name: "q\"uote".into() },
            Event::QueryStart { t: 1.0, query: QueryId(0) },
            Event::JobSubmit {
                t: 1.0,
                query: QueryId(0),
                job: JobId(0),
                category: JobCategory::Extract,
            },
            Event::JobStart { t: 1.5, query: QueryId(0), job: JobId(0) },
            Event::TaskStart {
                t: 1.5,
                query: QueryId(0),
                job: JobId(0),
                phase: TaskPhase::Map,
                node: NodeId(2),
                slot: 7,
            },
            Event::TaskFinish {
                t: 3.5,
                query: QueryId(0),
                job: JobId(0),
                phase: TaskPhase::Map,
                node: NodeId(2),
                slot: 7,
                duration: 2.0,
            },
            Event::Decision {
                t: 1.5,
                policy: "swrd",
                candidates: vec![
                    Candidate { query: QueryId(0), job: JobId(0), score: 12.5 },
                    Candidate { query: QueryId(1), job: JobId(0), score: 40.0 },
                ],
                chosen_query: QueryId(0),
                chosen_job: JobId(0),
                phase: TaskPhase::Map,
                queue_depth: 2,
                free_containers: 9,
            },
            Event::TaskFailed {
                t: 2.0,
                query: QueryId(0),
                job: JobId(0),
                phase: TaskPhase::Map,
                node: NodeId(2),
                slot: 7,
                attempt: 1,
                ran_for: 0.5,
                will_retry: true,
                retry_at: 2.5,
            },
            Event::TaskKilled {
                t: 2.2,
                query: QueryId(0),
                job: JobId(0),
                phase: TaskPhase::Reduce,
                node: NodeId(1),
                slot: 3,
                speculative: true,
                requeued: false,
            },
            Event::NodeDown { t: 2.5, node: NodeId(1), reason: DownReason::Crash, lost_maps: 4 },
            Event::NodeUp { t: 3.0, node: NodeId(1) },
            Event::SpeculativeLaunch {
                t: 3.1,
                query: QueryId(0),
                job: JobId(0),
                phase: TaskPhase::Map,
                node: NodeId(0),
                slot: 1,
            },
            Event::MapOutputLost {
                t: 2.5,
                query: QueryId(0),
                job: JobId(0),
                node: NodeId(1),
                maps_lost: 4,
            },
            Event::JobFinish {
                t: 4.0,
                query: QueryId(0),
                job: JobId(0),
                category: JobCategory::Extract,
            },
            Event::QueryFinish { t: 4.0, query: QueryId(0) },
            Event::Eta { t: 2.0, query: QueryId(0), fraction: 0.5, eta: 2.0 },
            Event::PredictionError {
                t: 4.0,
                query: QueryId(0),
                job: JobId(0),
                category: JobCategory::Join,
                quantity: Quantity::Job,
                predicted: 3.0,
                actual: 2.5,
            },
            Event::QueryShed {
                t: 5.0,
                query: QueryId(2),
                policy: "largest_wrd",
                wrd: 80.0,
                will_resubmit: true,
                resubmit_at: 6.0,
            },
            Event::DeadlineMissed { t: 9.0, query: QueryId(1), deadline: 8.0 },
            Event::DegradedModeEnter { t: 5.5, trust: 0.25, fallback: "FIFO" },
            Event::DegradedModeExit { t: 7.5, trust: 0.65 },
            Event::CheckpointWritten { t: 6.0, events: 4096, bytes: 18_000 },
            Event::RunResumed { t: 6.0, events: 4096 },
            Event::PredictionQuarantined {
                t: 5.0,
                query: QueryId(2),
                job: JobId(1),
                category: JobCategory::Join,
                quantity: Quantity::MapTask,
                predicted: f64::NAN,
                substituted: 5.0,
            },
        ]
    }

    #[test]
    fn every_variant_renders_valid_json() {
        for ev in sample_events() {
            let doc = ev.to_json();
            validate(&doc).unwrap_or_else(|e| panic!("{doc}: {e}"));
            assert!(doc.contains(&format!("\"event\":\"{}\"", ev.kind())));
        }
    }

    #[test]
    fn time_accessor_matches_variant_field() {
        for ev in sample_events() {
            assert!(ev.time() >= 0.0);
        }
        assert_eq!(Event::QueryStart { t: 7.25, query: QueryId(3) }.time(), 7.25);
    }

    #[test]
    fn fault_events_render_expected_fields() {
        let by_kind = |k: &str| {
            sample_events()
                .into_iter()
                .find(|e| e.kind() == k)
                .unwrap_or_else(|| panic!("no sample for {k}"))
                .to_json()
        };
        let failed = by_kind("task_failed");
        assert!(failed.contains("\"attempt\":1"));
        assert!(failed.contains("\"will_retry\":true"));
        assert!(failed.contains("\"retry_at\":2.5"));
        let killed = by_kind("task_killed");
        assert!(killed.contains("\"speculative\":true"));
        assert!(killed.contains("\"requeued\":false"));
        let down = by_kind("node_down");
        assert!(down.contains("\"reason\":\"crash\""));
        assert!(down.contains("\"lost_maps\":4"));
        assert_eq!(DownReason::Blacklist.label(), "blacklist");
        assert!(by_kind("node_up").contains("\"node\":1"));
        assert!(by_kind("speculative_launch").contains("\"phase\":\"map\""));
        assert!(by_kind("map_output_lost").contains("\"maps_lost\":4"));
    }

    #[test]
    fn lifecycle_events_render_expected_fields() {
        let by_kind = |k: &str| {
            sample_events()
                .into_iter()
                .find(|e| e.kind() == k)
                .unwrap_or_else(|| panic!("no sample for {k}"))
                .to_json()
        };
        let shed = by_kind("query_shed");
        assert!(shed.contains("\"policy\":\"largest_wrd\""));
        assert!(shed.contains("\"wrd\":80"));
        assert!(shed.contains("\"will_resubmit\":true"));
        assert!(shed.contains("\"resubmit_at\":6"));
        let missed = by_kind("deadline_missed");
        assert!(missed.contains("\"query\":1"));
        assert!(missed.contains("\"deadline\":8"));
        let enter = by_kind("degraded_mode_enter");
        assert!(enter.contains("\"trust\":0.25"));
        assert!(enter.contains("\"fallback\":\"FIFO\""));
        assert!(by_kind("degraded_mode_exit").contains("\"trust\":0.65"));
        let ckpt = by_kind("checkpoint_written");
        assert!(ckpt.contains("\"events\":4096"));
        assert!(ckpt.contains("\"bytes\":18000"));
        assert!(by_kind("run_resumed").contains("\"events\":4096"));
        let quarantined = by_kind("prediction_quarantined");
        // A NaN raw prediction must render as JSON null, not literal NaN.
        assert!(quarantined.contains("\"predicted\":null"));
        assert!(quarantined.contains("\"substituted\":5"));
        assert!(quarantined.contains("\"quantity\":\"map_task\""));
    }

    #[test]
    fn decision_json_carries_candidate_scores() {
        let ev = &sample_events()[6];
        let doc = ev.to_json();
        assert!(doc.contains("\"score\":12.5"));
        assert!(doc.contains("\"score\":40"));
        assert!(doc.contains("\"queue_depth\":2"));
    }
}
