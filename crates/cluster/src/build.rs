//! Bridge from compiled query DAGs (plus their measured or estimated data
//! sizes) to simulator job descriptions.

use crate::job::{JobPrediction, SimJob, SimQuery, TaskKind, TaskSpec};
use crate::sim::ClusterConfig;
use sapred_obs::JobId;
use sapred_plan::dag::QueryDag;
use sapred_plan::ground_truth::JobActual;

/// Build a [`SimQuery`] from a DAG and its per-job *actual* data sizes.
///
/// Task counts follow Hadoop's rules: one map per input split
/// (`JobActual::n_splits`), and `⌈D_med / bytes_per_reducer⌉` reduces capped
/// at `max_reducers`. The measured join skew ratio (`JobActual::p_actual`)
/// feeds the ground-truth cost model; `predictions[i]` carries the
/// percolated per-task time predictions SWRD consumes (pass an empty slice
/// to simulate a prediction-free cluster).
pub fn build_sim_query(
    name: impl Into<String>,
    arrival: f64,
    dag: &QueryDag,
    actuals: &[JobActual],
    predictions: &[JobPrediction],
    config: &ClusterConfig,
) -> SimQuery {
    assert_eq!(dag.len(), actuals.len(), "one JobActual per job");
    let jobs = dag
        .jobs()
        .iter()
        .zip(actuals)
        .map(|(job, actual)| {
            let category = job.category();
            let p = actual.p_actual;
            let n_maps = actual.n_splits.max(1);
            let map_in = actual.d_in / n_maps as f64;
            let map_out = actual.d_med / n_maps as f64;
            let maps = vec![
                TaskSpec {
                    bytes_in: map_in,
                    bytes_out: map_out,
                    category,
                    kind: TaskKind::Map,
                    p,
                };
                n_maps
            ];
            let reduces = if job.kind.has_reduce() {
                let n = config.reducers_for(actual.d_med);
                vec![
                    TaskSpec {
                        bytes_in: actual.d_med / n as f64,
                        bytes_out: actual.d_out / n as f64,
                        category,
                        kind: TaskKind::Reduce,
                        p,
                    };
                    n
                ]
            } else {
                Vec::new()
            };
            SimJob {
                id: JobId(job.id),
                deps: job.deps().into_iter().map(sapred_obs::JobId).collect(),
                category,
                maps,
                reduces,
                prediction: predictions.get(job.id).copied().unwrap_or_default(),
            }
        })
        .collect();
    SimQuery { name: name.into(), arrival, jobs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sapred_plan::compile::compile;
    use sapred_plan::ground_truth::execute_dag;
    use sapred_query::{analyze, parse};
    use sapred_relation::gen::{generate, GenConfig};

    #[test]
    fn builds_tasks_from_ground_truth() {
        let db = generate(GenConfig::new(10.0).with_seed(4));
        let a = analyze(
            &parse(
                "SELECT l_partkey, sum(l_extendedprice) FROM lineitem \
                 WHERE l_shipdate < 1200 GROUP BY l_partkey",
            )
            .unwrap(),
            db.catalog(),
            &db,
        )
        .unwrap();
        let dag = compile("q", &a);
        let config = ClusterConfig::default();
        let actuals = execute_dag(&dag, &db, 256.0 * 1024.0 * 1024.0);
        let q = build_sim_query("q", 0.0, &dag, &actuals, &[], &config);
        assert!(q.validate().is_ok());
        assert_eq!(q.jobs.len(), dag.len());
        // 10 GB of lineitem at 256 MB blocks: tens of map tasks.
        assert!(q.jobs[0].maps.len() > 10, "maps = {}", q.jobs[0].maps.len());
        assert!(!q.jobs[0].reduces.is_empty());
        // Map input bytes times map count recovers D_in.
        let total: f64 = q.jobs[0].maps.iter().map(|t| t.bytes_in).sum();
        assert!((total - actuals[0].d_in).abs() / actuals[0].d_in < 1e-9);
    }

    #[test]
    fn map_only_jobs_have_no_reduces() {
        let db = generate(GenConfig::new(1.0).with_seed(4));
        let a = analyze(
            &parse("SELECT l_partkey FROM lineitem WHERE l_quantity > 45").unwrap(),
            db.catalog(),
            &db,
        )
        .unwrap();
        let dag = compile("q", &a);
        let actuals = execute_dag(&dag, &db, 256.0 * 1024.0 * 1024.0);
        let q = build_sim_query("q", 0.0, &dag, &actuals, &[], &ClusterConfig::default());
        assert!(q.jobs[0].reduces.is_empty());
    }

    #[test]
    fn predictions_attach_by_job_id() {
        let db = generate(GenConfig::new(1.0).with_seed(4));
        let a = analyze(&parse("SELECT count(*) FROM orders").unwrap(), db.catalog(), &db).unwrap();
        let dag = compile("q", &a);
        let actuals = execute_dag(&dag, &db, 256.0 * 1024.0 * 1024.0);
        let preds = vec![JobPrediction { map_task_time: 7.0, reduce_task_time: 3.0 }];
        let q = build_sim_query("q", 0.0, &dag, &actuals, &preds, &ClusterConfig::default());
        assert_eq!(q.jobs[0].prediction.map_task_time, 7.0);
        assert!(q.initial_wrd() > 0.0);
    }
}
