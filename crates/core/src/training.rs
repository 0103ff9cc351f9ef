//! Training harness (paper §5.1): run a query population on the simulated
//! cluster — each query alone, as the paper profiles — collect measured job
//! and task times, and fit the multivariate models on a 3:1 train/test
//! split. Ground-truth generation parallelizes across queries on the
//! workspace's one parallel runner ([`run_claiming`]).

use crate::error::Error;
use crate::framework::Framework;
use crate::parallel::{available_threads, run_claiming};
use sapred_cluster::build::build_sim_query;
use sapred_cluster::sched::Fifo;
use sapred_cluster::sim::{JobStat, Simulator};
use sapred_plan::dag::JobCategory;
use sapred_plan::ground_truth::{execute_dag, JobActual};
use sapred_predict::features::{JobFeatures, TaskFeatures};
use sapred_predict::model::{JobTimeModel, TaskTimeModel};
use sapred_selectivity::estimate::{estimate_dag, JobEstimate};
use sapred_workload::pool::DbPool;
use sapred_workload::population::PopQuery;

/// Everything measured and estimated about one population query, run alone
/// on an idle cluster.
#[derive(Debug, Clone)]
pub struct QueryRun {
    /// Population query id.
    pub id: usize,
    /// Query (DAG) name.
    pub name: String,
    /// Generator scale of its database instance.
    pub scale_gb: f64,
    /// Whether this is a 150–400 GB scale-out query (test-set only).
    pub scale_out: bool,
    /// The compiled DAG.
    pub dag: sapred_plan::dag::QueryDag,
    /// Selectivity estimates per job.
    pub estimates: Vec<JobEstimate>,
    /// Exact ground-truth sizes per job.
    pub actuals: Vec<JobActual>,
    /// Per-job stats from the alone run (same order as the DAG's jobs).
    pub job_stats: Vec<JobStat>,
    /// Whether each job has a reduce phase.
    pub has_reduce: Vec<bool>,
    /// Measured query response time (idle cluster).
    pub response: f64,
}

/// The three fitted models of §4.
#[derive(Debug, Clone)]
pub struct TrainedModels {
    /// Job execution-time model (Eq. 8).
    pub job: JobTimeModel,
    /// Map-task time model (Eq. 9).
    pub map_task: TaskTimeModel,
    /// Reduce-task time model (Eq. 9).
    pub reduce_task: TaskTimeModel,
}

/// Process one query: exact execution for sizes, estimation for features,
/// an alone simulation for measured times.
fn run_one(pop: &PopQuery, db: &sapred_relation::gen::Database, fw: &Framework) -> QueryRun {
    let estimates = estimate_dag(&pop.dag, db.catalog(), &fw.est_config);
    let actuals = execute_dag(&pop.dag, db, fw.est_config.block_size);
    let sim_query = build_sim_query(&pop.dag.name, 0.0, &pop.dag, &actuals, &[], &fw.cluster);
    let mut sim = Simulator::new(fw.cluster, fw.cost, Fifo);
    let report = sim.run(std::slice::from_ref(&sim_query));
    let mut job_stats = report.jobs;
    job_stats.sort_by_key(|j| j.job);
    QueryRun {
        id: pop.id,
        name: pop.dag.name.clone(),
        dag: pop.dag.clone(),
        scale_gb: pop.scale_gb,
        scale_out: pop.scale_out,
        estimates,
        actuals,
        has_reduce: pop.dag.jobs().iter().map(|j| j.kind.has_reduce()).collect(),
        response: report.queries[0].response(),
        job_stats,
    }
}

/// Run the whole population (parallel across queries, on
/// [`run_claiming`]). The pool is pre-warmed so workers can share
/// immutable database references.
///
/// # Errors
/// [`Error::Training`] if the population is empty or a query panics (e.g.
/// an unsatisfiable query template); the panic is contained to its query
/// and reported with the query's index, not propagated.
pub fn run_population(
    pop: &[PopQuery],
    pool: &mut DbPool,
    fw: &Framework,
) -> Result<Vec<QueryRun>, Error> {
    if pop.is_empty() {
        return Err(Error::Training("empty query population".into()));
    }
    for q in pop {
        pool.get(q.scale_gb);
    }
    let pool = &*pool;
    run_claiming(pop.len(), available_threads(), |i| {
        let db = pool.peek(pop[i].scale_gb).expect("pool pre-warmed");
        run_one(&pop[i], db, fw)
    })
    .into_iter()
    .enumerate()
    .map(|(i, r)| r.map_err(|msg| Error::Training(format!("population query {i} panicked: {msg}"))))
    .collect()
}

/// 3:1 train/test split by query id; scale-out queries always land in the
/// test set (paper §5.1: 150–400 GB queries assess scalability).
pub fn split_train_test(runs: &[QueryRun]) -> (Vec<&QueryRun>, Vec<&QueryRun>) {
    let mut train = Vec::new();
    let mut test = Vec::new();
    for r in runs {
        if r.scale_out || r.id % 4 == 3 {
            test.push(r);
        } else {
            train.push(r);
        }
    }
    (train, test)
}

/// One job-level training/eval sample.
#[derive(Debug, Clone, Copy)]
pub struct JobSample {
    /// Operator type of the job.
    pub category: JobCategory,
    /// Estimate-derived model inputs.
    pub features: JobFeatures,
    /// Measured job duration (seconds).
    pub measured: f64,
}

/// One task-level training/eval sample.
#[derive(Debug, Clone, Copy)]
pub struct TaskSample {
    /// Operator type of the owning job.
    pub category: JobCategory,
    /// Estimate-derived model inputs.
    pub features: TaskFeatures,
    /// Measured average task duration (seconds).
    pub measured: f64,
}

/// Extract job samples (estimate-derived features ↔ measured durations).
pub fn job_samples<'a>(runs: impl IntoIterator<Item = &'a QueryRun>) -> Vec<JobSample> {
    let mut out = Vec::new();
    for r in runs {
        for (est, stat) in r.estimates.iter().zip(&r.job_stats) {
            out.push(JobSample {
                category: est.category,
                features: JobFeatures::from_estimate(est),
                measured: stat.duration(),
            });
        }
    }
    out
}

/// Extract map-task samples.
pub fn map_task_samples<'a>(
    runs: impl IntoIterator<Item = &'a QueryRun>,
    fw: &Framework,
) -> Vec<TaskSample> {
    let containers = fw.cluster.total_containers();
    let mut out = Vec::new();
    for r in runs {
        for (est, stat) in r.estimates.iter().zip(&r.job_stats) {
            if stat.map_task_avg > 0.0 {
                out.push(TaskSample {
                    category: est.category,
                    features: TaskFeatures::map_task(est, containers),
                    measured: stat.map_task_avg,
                });
            }
        }
    }
    out
}

/// Extract reduce-task samples. The feature uses the *estimated* reducer
/// count (the quantity available at prediction time).
pub fn reduce_task_samples<'a>(
    runs: impl IntoIterator<Item = &'a QueryRun>,
    fw: &Framework,
) -> Vec<TaskSample> {
    let mut out = Vec::new();
    for r in runs {
        for ((est, stat), has_reduce) in r.estimates.iter().zip(&r.job_stats).zip(&r.has_reduce) {
            if *has_reduce && stat.reduce_task_avg > 0.0 {
                let n = fw.estimated_reducers(est, true);
                out.push(TaskSample {
                    category: est.category,
                    features: TaskFeatures::reduce_task(est, n, fw.cluster.total_containers()),
                    measured: stat.reduce_task_avg,
                });
            }
        }
    }
    out
}

/// Fit all three models on the training runs.
///
/// # Errors
/// [`Error::Fit`] naming the model that failed when a sample set is too
/// small or the normal matrix is singular.
pub fn fit_models(train: &[&QueryRun], fw: &Framework) -> Result<TrainedModels, Error> {
    let jobs: Vec<(JobFeatures, f64)> =
        job_samples(train.iter().copied()).into_iter().map(|s| (s.features, s.measured)).collect();
    let maps: Vec<(TaskFeatures, f64)> = map_task_samples(train.iter().copied(), fw)
        .into_iter()
        .map(|s| (s.features, s.measured))
        .collect();
    let reduces: Vec<(TaskFeatures, f64)> = reduce_task_samples(train.iter().copied(), fw)
        .into_iter()
        .map(|s| (s.features, s.measured))
        .collect();
    Ok(TrainedModels {
        job: JobTimeModel::fit(&jobs).map_err(|source| Error::Fit { model: "job", source })?,
        map_task: TaskTimeModel::fit(&maps)
            .map_err(|source| Error::Fit { model: "map task", source })?,
        reduce_task: TaskTimeModel::fit(&reduces)
            .map_err(|source| Error::Fit { model: "reduce task", source })?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sapred_predict::metrics::{avg_rel_error, r_squared};
    use sapred_workload::population::{generate_population, PopulationConfig};

    fn small_population() -> (Vec<QueryRun>, Framework, DbPool) {
        let fw = Framework::new();
        let config = PopulationConfig {
            n_queries: 60,
            scales_gb: vec![0.5, 1.0, 2.0],
            scale_out_gb: vec![5.0],
            seed: 17,
        };
        let mut pool = DbPool::new(17);
        let pop = generate_population(&config, &mut pool);
        let runs = run_population(&pop, &mut pool, &fw).unwrap();
        (runs, fw, pool)
    }

    #[test]
    fn end_to_end_training_pipeline() {
        let (runs, fw, _pool) = small_population();
        assert_eq!(runs.len(), 61);
        let (train, test) = split_train_test(&runs);
        assert!(test.iter().any(|r| r.scale_out));
        assert!(train.len() > 2 * test.len());

        let models = fit_models(&train, &fw).unwrap();

        // The fitted job model must track measured durations on the train
        // set reasonably well (the paper reports R² of 0.85–0.97).
        let samples = job_samples(train.iter().copied());
        let pred: Vec<f64> = samples.iter().map(|s| models.job.predict(&s.features)).collect();
        let actual: Vec<f64> = samples.iter().map(|s| s.measured).collect();
        let r2 = r_squared(&pred, &actual);
        assert!(r2 > 0.7, "train R² = {r2}");

        // Test-set error in a plausible band (paper: ~14%).
        let tsamples = job_samples(test.iter().copied());
        let tpred: Vec<f64> = tsamples.iter().map(|s| models.job.predict(&s.features)).collect();
        let tactual: Vec<f64> = tsamples.iter().map(|s| s.measured).collect();
        let err = avg_rel_error(&tpred, &tactual);
        assert!(err < 0.5, "test avg error = {err}");
    }

    #[test]
    fn runs_are_deterministic() {
        let fw = Framework::new();
        let config =
            PopulationConfig { n_queries: 6, scales_gb: vec![0.5], scale_out_gb: vec![], seed: 23 };
        let mut pool_a = DbPool::new(23);
        let pop_a = generate_population(&config, &mut pool_a);
        let a = run_population(&pop_a, &mut pool_a, &fw).unwrap();
        let mut pool_b = DbPool::new(23);
        let pop_b = generate_population(&config, &mut pool_b);
        let b = run_population(&pop_b, &mut pool_b, &fw).unwrap();
        let resp = |rs: &[QueryRun]| rs.iter().map(|r| r.response).collect::<Vec<_>>();
        assert_eq!(resp(&a), resp(&b));
    }

    #[test]
    fn job_stats_align_with_dag_order() {
        let (runs, _, _) = small_population();
        for r in &runs {
            assert_eq!(r.estimates.len(), r.job_stats.len());
            for (i, s) in r.job_stats.iter().enumerate() {
                assert_eq!(s.job, sapred_cluster::JobId(i));
            }
        }
    }
}
