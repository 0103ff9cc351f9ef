//! The engine's own benchmarks: the deterministic `sapred bench` suites
//! ([`harness`]), whose committed `BENCH_<suite>.json` reports pin every
//! cell's hot-path counters ([`report`]). The paper's tables and figures
//! come from `sapred reproduce` (`sapred_core::experiments::reproduce`).

pub mod harness;
pub mod report;

use sapred_cluster::{JobPrediction, SimJob, SimQuery, TaskKind, TaskSpec};
use sapred_plan::dag::JobCategory;

/// A synthetic dispatch-stress workload: `n_queries` chained-DAG queries of
/// `jobs_per_query` jobs, each with `maps_per_job` map and `reduces_per_job`
/// reduce tasks, staggered Poisson-ish arrivals and varied per-job
/// predictions (so SWRD/SRT rank queries non-trivially). Deterministic —
/// no RNG — so every run sees the exact same input. 200/5/80/20 gives the
/// 10⁵-task workload of the `dispatch` suite, whose
/// `dispatch_incremental` and `dispatch_traced` cells run it untraced and
/// traced.
pub fn dispatch_workload(
    n_queries: usize,
    jobs_per_query: usize,
    maps_per_job: usize,
    reduces_per_job: usize,
) -> Vec<SimQuery> {
    const MB: f64 = 1024.0 * 1024.0;
    let task = |kind: TaskKind, bytes: f64| TaskSpec {
        bytes_in: bytes,
        bytes_out: bytes / 2.0,
        category: JobCategory::Extract,
        kind,
        p: 0.5,
    };
    (0..n_queries)
        .map(|qi| SimQuery {
            name: format!("q{qi}"),
            arrival: qi as f64 * 0.37,
            jobs: (0..jobs_per_query)
                .map(|j| SimJob {
                    id: sapred_cluster::JobId(j),
                    deps: if j == 0 { vec![] } else { vec![sapred_cluster::JobId(j - 1)] },
                    category: JobCategory::Extract,
                    maps: vec![task(TaskKind::Map, 256.0 * MB); maps_per_job],
                    reduces: vec![task(TaskKind::Reduce, 64.0 * MB); reduces_per_job],
                    prediction: JobPrediction {
                        map_task_time: 2.0 + ((qi * 7 + j * 3) % 11) as f64 * 0.5,
                        reduce_task_time: 1.0 + ((qi * 5 + j) % 7) as f64 * 0.5,
                    },
                })
                .collect(),
        })
        .collect()
}
