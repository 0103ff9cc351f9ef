//! Simulation-side job and query descriptions.

use sapred_obs::JobId;
use sapred_plan::dag::JobCategory;

/// Map or reduce task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TaskKind {
    /// Map task (reads an input split).
    Map,
    /// Reduce task (shuffles, sorts and reduces map output).
    Reduce,
}

/// One task's workload, in modeled bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskSpec {
    /// Bytes this task reads.
    pub bytes_in: f64,
    /// Bytes this task writes.
    pub bytes_out: f64,
    /// Operator category of the owning job.
    pub category: JobCategory,
    /// Map or reduce.
    pub kind: TaskKind,
    /// Join skew ratio of the parent job (0.5 for non-joins); feeds the
    /// ground-truth join surcharge.
    pub p: f64,
}

/// Predicted per-task times for one job, attached by the prediction layer
/// (the *percolated* information SWRD uses). Times are seconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct JobPrediction {
    /// Predicted average map-task seconds.
    pub map_task_time: f64,
    /// Predicted average reduce-task seconds.
    pub reduce_task_time: f64,
}

/// One MapReduce job of a query, as submitted to the simulated cluster.
#[derive(Debug, Clone)]
pub struct SimJob {
    /// Id within the owning query's DAG.
    pub id: JobId,
    /// Jobs of the same query that must finish before this one is submitted.
    pub deps: Vec<JobId>,
    /// Operator category (drives the ground-truth cost model).
    pub category: JobCategory,
    /// One spec per map task.
    pub maps: Vec<TaskSpec>,
    /// One spec per reduce task (empty for map-only jobs).
    pub reduces: Vec<TaskSpec>,
    /// Predicted task times (zeros when prediction is disabled).
    pub prediction: JobPrediction,
}

/// A query: a DAG of jobs plus its arrival time.
#[derive(Debug, Clone)]
pub struct SimQuery {
    /// Query name, for reporting.
    pub name: String,
    /// Submission time in simulation seconds.
    pub arrival: f64,
    /// The query's jobs in topological order.
    pub jobs: Vec<SimJob>,
}

impl SimQuery {
    /// Validate DAG invariants (at least one job, dense ids, backward deps
    /// only, at least one map task per job) and that every job's predicted
    /// task times are finite, so no NaN or ±∞ can enter the scheduler's
    /// WRD sums. Negative predictions pass: a linear model may extrapolate
    /// below zero.
    pub fn validate(&self) -> Result<(), String> {
        if self.jobs.is_empty() {
            return Err(format!(
                "query {:?} has no jobs: a query must contain at least one MapReduce job \
                 (an empty DAG can never start, so the simulation would deadlock \
                 waiting for it to finish)",
                self.name
            ));
        }
        for (i, j) in self.jobs.iter().enumerate() {
            if j.id != JobId(i) {
                return Err(format!("job id {} at position {i}", j.id));
            }
            for &d in &j.deps {
                if d >= JobId(i) {
                    return Err(format!("job {i} depends on non-earlier job {d}"));
                }
            }
            if j.maps.is_empty() {
                return Err(format!("job {i} has no map tasks"));
            }
            let p = j.prediction;
            for (what, v) in [("map", p.map_task_time), ("reduce", p.reduce_task_time)] {
                if !v.is_finite() {
                    return Err(format!("job {i} has a non-finite predicted {what} task time {v}"));
                }
            }
        }
        Ok(())
    }

    /// Remaining WRD (Eq. 10) at submission time: all tasks pending.
    #[cfg(test)]
    pub fn initial_wrd(&self) -> f64 {
        self.jobs
            .iter()
            .map(|j| {
                j.prediction.map_task_time * j.maps.len() as f64
                    + j.prediction.reduce_task_time * j.reduces.len() as f64
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(bytes: f64, kind: TaskKind) -> TaskSpec {
        TaskSpec {
            bytes_in: bytes,
            bytes_out: bytes / 2.0,
            category: JobCategory::Extract,
            kind,
            p: 0.5,
        }
    }

    fn query() -> SimQuery {
        SimQuery {
            name: "q".into(),
            arrival: 0.0,
            jobs: vec![
                SimJob {
                    id: JobId(0),
                    deps: vec![],
                    category: JobCategory::Extract,
                    maps: vec![task(100.0, TaskKind::Map); 4],
                    reduces: vec![task(50.0, TaskKind::Reduce); 2],
                    prediction: JobPrediction { map_task_time: 2.0, reduce_task_time: 3.0 },
                },
                SimJob {
                    id: JobId(1),
                    deps: vec![JobId(0)],
                    category: JobCategory::Extract,
                    maps: vec![task(10.0, TaskKind::Map)],
                    reduces: vec![],
                    prediction: JobPrediction { map_task_time: 1.0, reduce_task_time: 0.0 },
                },
            ],
        }
    }

    #[test]
    fn validate_accepts_good_dag() {
        assert!(query().validate().is_ok());
    }

    #[test]
    fn validate_rejects_empty_job_list() {
        let q = SimQuery { name: "hollow".into(), arrival: 0.0, jobs: vec![] };
        let err = q.validate().unwrap_err();
        assert!(err.contains("no jobs"), "unhelpful message: {err}");
        assert!(err.contains("hollow"), "message should name the query: {err}");
    }

    #[test]
    fn validate_rejects_forward_dep() {
        let mut q = query();
        q.jobs[0].deps.push(JobId(1));
        assert!(q.validate().is_err());
    }

    #[test]
    fn validate_rejects_non_finite_predictions() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for reduce in [false, true] {
                let mut q = query();
                let p = &mut q.jobs[1].prediction;
                if reduce {
                    p.reduce_task_time = bad;
                } else {
                    p.map_task_time = bad;
                }
                let err = q.validate().unwrap_err();
                assert!(err.contains("job 1"), "message should name the job: {err}");
                assert!(err.contains(if reduce { "reduce" } else { "map" }), "{err}");
            }
        }
        // Negative but finite predictions are a model's extrapolation, not
        // corrupt input.
        let mut q = query();
        q.jobs[0].prediction.map_task_time = -3.0;
        assert!(q.validate().is_ok());
    }

    #[test]
    fn initial_wrd_sums() {
        let q = query();
        assert_eq!(q.initial_wrd(), 2.0 * 4.0 + 3.0 * 2.0 + 1.0);
    }
}
