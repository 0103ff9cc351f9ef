//! The framework facade: cross-layer semantics percolation and the
//! prediction API built on the trained models.

use crate::training::TrainedModels;
use sapred_cluster::cost::CostModel;
use sapred_cluster::job::{JobPrediction, SimJob, SimQuery, TaskKind, TaskSpec};
use sapred_cluster::sim::ClusterConfig;
use sapred_plan::compile::compile;
use sapred_plan::dag::QueryDag;
use sapred_plan::ground_truth::JobActual;
use sapred_predict::features::{JobFeatures, TaskFeatures};
use sapred_predict::wrd::{job_time_waves, query_wrd, JobResource};
use sapred_query::{analyze, parse, QueryError};
use sapred_relation::gen::Database;
use sapred_relation::stats::Catalog;
use sapred_selectivity::estimate::{estimate_dag, EstimatorConfig, JobEstimate};
use sapred_selectivity::estimator::estimate_dag_with;

/// The percolation payload: everything the scheduler-side of the stack
/// knows about a query — its DAG of jobs with per-job operator semantics,
/// and the selectivity estimates derived from them (paper Fig. 3).
#[derive(Debug, Clone)]
pub struct QuerySemantics {
    /// The compiled DAG of MapReduce jobs with per-job semantics.
    pub dag: QueryDag,
    /// Selectivity estimates, one per job.
    pub estimates: Vec<JobEstimate>,
}

/// Framework configuration: estimator + cluster + (ground-truth) cost model.
///
/// ```
/// use sapred_core::framework::Framework;
/// use sapred_relation::gen::{generate, GenConfig};
///
/// let db = generate(GenConfig::new(0.1));
/// let fw = Framework::new();
/// let s = fw
///     .percolate_sql("demo", "SELECT count(*) FROM orders", &db)
///     .unwrap();
/// assert_eq!(s.dag.len(), 1);
/// assert!(s.estimates[0].d_in > 0.0);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Framework {
    /// Selectivity-estimator settings (block size, layout hint).
    pub est_config: EstimatorConfig,
    /// Simulated cluster topology and Hadoop parameters.
    pub cluster: ClusterConfig,
    /// Ground-truth task cost model used by simulations.
    pub cost: CostModel,
}

impl Framework {
    /// The paper's testbed configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Full percolation from query text: parse → analyze → compile →
    /// estimate. The returned semantics object is what a real deployment
    /// would ship alongside job submissions. The materialized database is
    /// in hand here, so non-histogram estimators
    /// ([`EstimatorConfig::kind`]) get table access for sampling walks and
    /// path-statistics builds.
    pub fn percolate_sql(
        &self,
        name: &str,
        sql: &str,
        db: &Database,
    ) -> Result<QuerySemantics, QueryError> {
        let analyzed = analyze(&parse(sql)?, db.catalog(), db)?;
        let dag = compile(name, &analyzed);
        let estimates = estimate_dag_with(&dag, db.catalog(), Some(db), &self.est_config);
        Ok(QuerySemantics { dag, estimates })
    }

    /// Full percolation from a Pig Latin-style dataflow script: the other
    /// declarative front end the paper targets (§1).
    pub fn percolate_pig(
        &self,
        name: &str,
        script: &sapred_query::pig::PigScript,
        catalog: &Catalog,
    ) -> Result<QuerySemantics, QueryError> {
        let analyzed = script.to_analyzed(catalog)?;
        let dag = compile(name, &analyzed);
        Ok(self.percolate_dag(dag, catalog))
    }

    /// Percolation for an already-compiled DAG (e.g. built via DagBuilder).
    ///
    /// Only catalog statistics are available here, so estimators that need
    /// materialized tables (sample/catalog) fall back to the histogram
    /// path; use [`Framework::percolate_sql`] when the database is in hand.
    pub fn percolate_dag(&self, dag: QueryDag, catalog: &Catalog) -> QuerySemantics {
        let estimates = estimate_dag(&dag, catalog, &self.est_config);
        QuerySemantics { dag, estimates }
    }

    /// Estimated reduce-task count for a job (Hive's bytes-per-reducer rule
    /// applied to the *estimated* intermediate size).
    pub fn estimated_reducers(&self, est: &JobEstimate, has_reduce: bool) -> usize {
        if !has_reduce {
            return 0;
        }
        self.cluster.reducers_for(est.d_med)
    }

    /// Model-free task-time prediction: build the task shape the estimates
    /// describe and price it with the ground-truth [`CostModel`]. The
    /// prediction error is then exactly the estimate error, which makes
    /// this the right baseline for comparing cardinality estimators
    /// downstream (trained models add their own fitting error on top).
    pub fn prediction_from_cost(&self, est: &JobEstimate, has_reduce: bool) -> JobPrediction {
        let n_maps = est.n_maps.max(1) as f64;
        let p = est.p_ratio.unwrap_or(0.5);
        let map_task_time = self.cost.mean_duration(&TaskSpec {
            bytes_in: est.d_in / n_maps,
            bytes_out: est.d_med / n_maps,
            category: est.category,
            kind: TaskKind::Map,
            p,
        });
        let reduce_task_time = if has_reduce {
            let n = self.estimated_reducers(est, true).max(1) as f64;
            self.cost.mean_duration(&TaskSpec {
                bytes_in: est.d_med / n,
                bytes_out: est.d_out / n,
                category: est.category,
                kind: TaskKind::Reduce,
                p,
            })
        } else {
            0.0
        };
        JobPrediction { map_task_time, reduce_task_time }
    }

    /// Build a simulator query whose task *structure* — map splits and
    /// reduce counts — comes from the percolated estimates while the bytes
    /// flowing through those tasks come from ground-truth `actuals`.
    ///
    /// This models the semantic configuration decision the paper motivates:
    /// split and reducer provisioning happen *before* execution, from
    /// whatever the estimator believed. An estimator that misjudges a
    /// join's output provisions the downstream job with the wrong
    /// parallelism and pays for it in simulated time, so schedules become
    /// sensitive to estimator quality (contrast
    /// [`sapred_cluster::build_sim_query`], which provisions from actuals
    /// and lets estimates reach only the prediction side).
    pub fn sim_query_estimated(
        &self,
        name: impl Into<String>,
        arrival: f64,
        semantics: &QuerySemantics,
        actuals: &[JobActual],
    ) -> SimQuery {
        assert_eq!(semantics.dag.len(), actuals.len(), "one JobActual per job");
        assert_eq!(semantics.dag.len(), semantics.estimates.len(), "one JobEstimate per job");
        let jobs = semantics
            .dag
            .jobs()
            .iter()
            .zip(semantics.estimates.iter().zip(actuals))
            .map(|(job, (est, act))| {
                let category = job.category();
                let has_reduce = job.kind.has_reduce();
                let n_maps = est.n_maps.max(1);
                let maps = vec![
                    TaskSpec {
                        bytes_in: act.d_in / n_maps as f64,
                        bytes_out: act.d_med / n_maps as f64,
                        category,
                        kind: TaskKind::Map,
                        p: act.p_actual,
                    };
                    n_maps
                ];
                let reduces = if has_reduce {
                    let n = self.estimated_reducers(est, true).max(1);
                    vec![
                        TaskSpec {
                            bytes_in: act.d_med / n as f64,
                            bytes_out: act.d_out / n as f64,
                            category,
                            kind: TaskKind::Reduce,
                            p: act.p_actual,
                        };
                        n
                    ]
                } else {
                    Vec::new()
                };
                SimJob {
                    id: sapred_obs::JobId(job.id),
                    deps: job.deps().into_iter().map(sapred_obs::JobId).collect(),
                    category,
                    maps,
                    reduces,
                    prediction: self.prediction_from_cost(est, has_reduce),
                }
            })
            .collect();
        SimQuery { name: name.into(), arrival, jobs }
    }
}

/// The prediction API over trained models (paper §4).
#[derive(Debug, Clone)]
pub struct Predictor {
    /// The fitted job/task time models.
    pub models: TrainedModels,
    /// The configuration the models were trained under.
    pub framework: Framework,
}

impl Predictor {
    /// Bind trained models to a framework configuration.
    pub fn new(models: TrainedModels, framework: Framework) -> Self {
        Self { models, framework }
    }

    /// Job execution time from the job-level model (Eq. 8).
    pub fn job_seconds(&self, est: &JobEstimate) -> f64 {
        self.models.job.predict(&JobFeatures::from_estimate(est))
    }

    /// Per-task time predictions for one job (Eq. 9) — the percolated
    /// numbers the SWRD scheduler consumes.
    pub fn job_prediction(&self, est: &JobEstimate, has_reduce: bool) -> JobPrediction {
        let containers = self.framework.cluster.total_containers();
        let map_task_time = self.models.map_task.predict(&TaskFeatures::map_task(est, containers));
        let reduce_task_time = if has_reduce {
            let n = self.framework.estimated_reducers(est, true);
            self.models.reduce_task.predict(&TaskFeatures::reduce_task(est, n, containers))
        } else {
            0.0
        };
        JobPrediction { map_task_time, reduce_task_time }
    }

    /// Task-time predictions for a whole query, job by job.
    pub fn predictions(&self, semantics: &QuerySemantics) -> Vec<JobPrediction> {
        semantics
            .dag
            .jobs()
            .iter()
            .zip(&semantics.estimates)
            .map(|(job, est)| self.job_prediction(est, job.kind.has_reduce()))
            .collect()
    }

    /// A job's resource footprint before it starts (all tasks remaining).
    pub fn job_resource(&self, est: &JobEstimate, has_reduce: bool) -> JobResource {
        let pred = self.job_prediction(est, has_reduce);
        JobResource {
            map_time: pred.map_task_time,
            maps_remaining: est.n_maps.max(1),
            reduce_time: pred.reduce_task_time,
            reduces_remaining: self.framework.estimated_reducers(est, has_reduce),
        }
    }

    /// Query-level WRD (Eq. 10) at submission time.
    pub fn query_wrd(&self, semantics: &QuerySemantics) -> f64 {
        let resources: Vec<JobResource> = semantics
            .dag
            .jobs()
            .iter()
            .zip(&semantics.estimates)
            .map(|(job, est)| self.job_resource(est, job.kind.has_reduce()))
            .collect();
        query_wrd(&resources)
    }

    /// Scalable job time from the task models and the wave model (§4.2,
    /// §5.4): map waves, then reduce waves, over the cluster's containers.
    pub fn job_seconds_scalable(&self, est: &JobEstimate, has_reduce: bool) -> f64 {
        let r = self.job_resource(est, has_reduce);
        job_time_waves(&r, self.framework.cluster.total_containers(), 0.0)
    }

    /// Query response time on an idle cluster (§5.4): the critical path of
    /// wave-model job times plus per-job submission overheads.
    pub fn query_seconds(&self, semantics: &QuerySemantics) -> f64 {
        let weights: Vec<f64> = semantics
            .dag
            .jobs()
            .iter()
            .zip(&semantics.estimates)
            .map(|(job, est)| {
                self.job_seconds_scalable(est, job.kind.has_reduce())
                    + self.framework.cluster.submit_overhead
            })
            .collect();
        semantics.dag.critical_path(&weights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sapred_relation::gen::{generate, GenConfig};

    #[test]
    fn percolation_carries_dag_and_estimates() {
        let db = generate(GenConfig::new(0.5).with_seed(31));
        let fw = Framework::new();
        let s = fw
            .percolate_sql(
                "q",
                "SELECT l_partkey, sum(l_extendedprice) FROM lineitem \
                 WHERE l_shipdate < 1000 GROUP BY l_partkey ORDER BY l_partkey",
                &db,
            )
            .unwrap();
        assert_eq!(s.dag.len(), 2);
        assert_eq!(s.estimates.len(), 2);
        assert!(s.estimates[0].d_in > 0.0);
    }

    #[test]
    fn bad_sql_is_an_error_not_a_panic() {
        let db = generate(GenConfig::new(0.1).with_seed(31));
        let fw = Framework::new();
        assert!(fw.percolate_sql("q", "SELECT FROM nothing", &db).is_err());
        assert!(fw.percolate_sql("q", "SELECT x FROM missing_table", &db).is_err());
    }

    #[test]
    fn estimated_reducers_follow_bytes_per_reducer() {
        let fw = Framework::new();
        let sql = "SELECT l_orderkey, l_shipdate FROM lineitem ORDER BY l_shipdate";
        let small = generate(GenConfig::new(5.0).with_seed(31));
        let large = generate(GenConfig::new(50.0).with_seed(31));
        let n_small = {
            let s = fw.percolate_sql("q", sql, &small).unwrap();
            fw.estimated_reducers(&s.estimates[0], true)
        };
        let s = fw.percolate_sql("q", sql, &large).unwrap();
        let n_large = fw.estimated_reducers(&s.estimates[0], true);
        // 10x the input ⇒ proportionally more reducers (projection fixed).
        assert!(n_large >= 5 * n_small.max(1), "small {n_small} large {n_large}");
        assert_eq!(fw.estimated_reducers(&s.estimates[0], false), 0);
    }
}
