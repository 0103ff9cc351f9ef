//! Run outcomes: per-query and per-job statistics and the [`SimReport`]
//! the engine assembles at the end of a run.

use crate::fault::FaultStats;
use crate::job::SimQuery;
use crate::job::TaskKind::{Map, Reduce};
use sapred_obs::{JobId, QueryId};
use sapred_plan::dag::JobCategory;

use super::state::{JobTable, QueryState};

/// Per-query outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryStat {
    /// Query name.
    pub name: String,
    /// When the query arrived.
    pub arrival: f64,
    /// First task launch of any of its jobs (= `finish` for a query that
    /// failed before launching anything).
    pub start: f64,
    /// When its last job finished — or, for a failed query, when it was
    /// abandoned.
    pub finish: f64,
    /// True when the query was abandoned because one of its tasks
    /// exhausted [`FaultPlan::max_attempts`](crate::FaultPlan::max_attempts). Always false without faults.
    pub failed: bool,
}

impl QueryStat {
    /// Response time = completion − arrival (what Fig. 8 reports).
    pub fn response(&self) -> f64 {
        self.finish - self.arrival
    }
}

/// Per-job outcome, including the measured average task times the training
/// harness uses as ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct JobStat {
    /// Owning query's index.
    pub query: QueryId,
    /// Job id within the query's DAG.
    pub job: JobId,
    /// Operator category.
    pub category: JobCategory,
    /// When Hive submitted the job (dependencies satisfied).
    pub submit: f64,
    /// First task launch.
    pub start: f64,
    /// Last task completion.
    pub finish: f64,
    /// Map task count.
    pub n_maps: usize,
    /// Reduce task count.
    pub n_reduces: usize,
    /// Map attempts launched, including retries and speculative clones
    /// (= `n_maps` in a fault-free run).
    pub map_attempts: usize,
    /// Reduce attempts launched, including retries and speculative clones.
    pub reduce_attempts: usize,
    /// Map attempts that ran to successful completion. Exceeds `n_maps`
    /// only when a node crash forced completed map output to re-execute.
    pub map_completions: usize,
    /// Reduce attempts that ran to successful completion.
    pub reduce_completions: usize,
    /// Measured average map-task seconds over *winning* attempts only —
    /// failed and killed attempts never contribute.
    pub map_task_avg: f64,
    /// Measured average reduce-task seconds over winning attempts only
    /// (0 for map-only jobs).
    pub reduce_task_avg: f64,
}

impl JobStat {
    /// Measured job execution time (start of first task → last task done).
    pub fn duration(&self) -> f64 {
        self.finish - self.start
    }
}

/// Full simulation outcome.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimReport {
    /// Per-query outcomes, in submission order.
    pub queries: Vec<QueryStat>,
    /// Per-job outcomes.
    pub jobs: Vec<JobStat>,
    /// Time of the last event.
    pub makespan: f64,
    /// Fault-and-recovery telemetry (all-zero for fault-free runs).
    pub faults: FaultStats,
}

impl SimReport {
    /// Mean query response time (Fig. 8's metric).
    pub fn mean_response(&self) -> f64 {
        if self.queries.is_empty() {
            return 0.0;
        }
        self.queries.iter().map(QueryStat::response).sum::<f64>() / self.queries.len() as f64
    }

    /// Query response-time percentile, `p` in `[0, 1]` (e.g. `0.95` for
    /// p95), linearly interpolated between order statistics. `0.0` with no
    /// queries or a NaN `p` (`clamp` would propagate the NaN into the rank
    /// and index garbage otherwise); out-of-range finite `p` clamps.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.queries.is_empty() || p.is_nan() {
            return 0.0;
        }
        let mut v: Vec<f64> = self.queries.iter().map(QueryStat::response).collect();
        v.sort_by(f64::total_cmp);
        let rank = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        v[lo] + (rank - lo as f64) * (v[hi] - v[lo])
    }

    /// Total task attempts launched, including retries and speculative
    /// clones — the number of `task_start` events a traced run emits.
    pub fn total_attempts(&self) -> usize {
        self.jobs.iter().map(|j| j.map_attempts + j.reduce_attempts).sum()
    }
}

/// Assemble the end-of-run report from the engine's final state. Task
/// averages divide by *winning-attempt* counts, not task counts: under
/// faults a task may complete more than once (lost-map re-execution) and
/// failed/killed attempts never contribute. Fault-free, completions equal
/// task counts and the division is bit-identical to the historical one.
pub(super) fn assemble_report(
    queries: &[SimQuery],
    qstate: &[QueryState],
    jobs: &JobTable,
    faults: &FaultStats,
    now: f64,
) -> SimReport {
    let mut report = SimReport { makespan: now, faults: faults.clone(), ..Default::default() };
    for (qi, q) in queries.iter().enumerate() {
        let qs = &qstate[qi];
        // A failed query was still *terminated* at a definite time; jobs
        // it abandoned mid-flight (or never started) borrow that time so
        // spans stay well-formed.
        let finish = qs.finished.expect("every query finishes or fails");
        report.queries.push(QueryStat {
            name: q.name.clone(),
            arrival: q.arrival,
            start: qs.started.unwrap_or(finish),
            finish,
            failed: qs.failed,
        });
        for job in &q.jobs {
            let i = jobs.idx(qi, job.id.0);
            let st = &jobs.stats[i];
            let n_maps = job.maps.len();
            let n_reduces = job.reduces.len();
            // Task averages divide by *winning-attempt* counts, not task
            // counts: under faults a task may complete more than once
            // (lost-map re-execution) and failed/killed attempts never
            // contribute. Fault-free, completions == task counts and the
            // division is bit-identical to the historical one.
            report.jobs.push(JobStat {
                query: QueryId(qi),
                job: job.id,
                category: job.category,
                submit: jobs.submit_time[i],
                start: jobs.started[i].unwrap_or(finish),
                finish: jobs.finished[i].unwrap_or(finish),
                n_maps,
                n_reduces,
                map_attempts: st[Map].attempts,
                reduce_attempts: st[Reduce].attempts,
                map_completions: st[Map].completions,
                reduce_completions: st[Reduce].completions,
                map_task_avg: st[Map].avg(),
                reduce_task_avg: st[Reduce].avg(),
            });
        }
    }
    report
}
