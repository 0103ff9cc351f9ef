//! Property tests for the incremental dispatch state: on random DAG
//! workloads, the materialized runnable view and every live query's demand
//! aggregates must equal a from-scratch derivation after every event and
//! before every pick ([`Simulator::crosschecked`] asserts exactly that
//! inside the engine), and a plain run must produce a report and event
//! stream bit-identical to the crosschecked run's — for every scheduler,
//! and for one without a pick key.

mod common;

use common::Keyless;
use proptest::prelude::*;
use sapred_cluster::{
    ClusterConfig, CostModel, FaultPlan, Fifo, Hcs, Hfs, JobPrediction, NodeCrash, Run, Scheduler,
    SimJob, SimQuery, SimReport, Simulator, Srt, Swrd, TaskKind, TaskSpec,
};
use sapred_obs::RecordingSink;
use sapred_plan::dag::JobCategory;

const MB: f64 = 1024.0 * 1024.0;

fn task(kind: TaskKind, bytes: f64) -> TaskSpec {
    TaskSpec {
        bytes_in: bytes,
        bytes_out: bytes / 2.0,
        category: JobCategory::Extract,
        kind,
        p: 0.5,
    }
}

/// One job descriptor: (maps, reduces, map_time, reduce_time, dep selector).
type JobSpec = (usize, usize, f64, f64, u64);

fn query_strategy() -> impl Strategy<Value = SimQuery> {
    (
        prop::collection::vec((1usize..5, 0usize..3, 0.5f64..8.0, 0.5f64..8.0, 0u64..1000), 1..4),
        0.0f64..10.0,
    )
        .prop_map(|(specs, arrival): (Vec<JobSpec>, f64)| {
            let jobs = specs
                .iter()
                .enumerate()
                .map(|(i, &(maps, reduces, map_t, reduce_t, sel))| SimJob {
                    id: sapred_cluster::JobId(i),
                    // Roughly a third of non-root jobs are independent
                    // roots; the rest depend on a pseudo-random earlier job,
                    // so chains, diamonds and forests all occur.
                    deps: if i == 0 || sel % 3 == 0 {
                        vec![]
                    } else {
                        vec![sapred_cluster::JobId(sel as usize % i)]
                    },
                    category: JobCategory::Extract,
                    maps: vec![task(TaskKind::Map, (32.0 + map_t * 16.0) * MB); maps],
                    reduces: vec![task(TaskKind::Reduce, 32.0 * MB); reduces],
                    prediction: JobPrediction { map_task_time: map_t, reduce_task_time: reduce_t },
                })
                .collect();
            SimQuery { name: "q".into(), arrival, jobs }
        })
}

fn workload_strategy() -> impl Strategy<Value = Vec<SimQuery>> {
    prop::collection::vec(query_strategy(), 1..4).prop_map(|mut qs| {
        for (i, q) in qs.iter_mut().enumerate() {
            q.name = format!("q{i}");
        }
        qs
    })
}

/// Small cluster so containers stay contended and the dispatch loop makes
/// real choices (a cluster larger than the workload never queues anything).
fn config() -> ClusterConfig {
    ClusterConfig { nodes: 2, containers_per_node: 3, ..Default::default() }
}

fn check_one<S: Scheduler + Clone>(
    s: S,
    queries: &[SimQuery],
    plan: &FaultPlan,
) -> Result<(), TestCaseError> {
    let traced = |mut sim: Simulator<S>| -> (SimReport, RecordingSink) {
        let mut rec = RecordingSink::new();
        let report = sim.execute(queries, Run::new().sink(&mut rec)).unwrap().into_report();
        (report, rec)
    };
    let build =
        || Simulator::new(config(), CostModel::default(), s.clone()).with_faults(plan.clone());
    let (plain, rec_plain) = traced(build());
    // Crosscheck panics inside the engine the moment the materialized state
    // diverges from the from-scratch view, event by event.
    let (chk, rec_chk) = traced(build().crosschecked());
    // And the plain run is the same run, bit for bit.
    prop_assert_eq!(plain.makespan.to_bits(), chk.makespan.to_bits());
    prop_assert_eq!(&plain.queries, &chk.queries);
    prop_assert_eq!(&plain.jobs, &chk.jobs);
    prop_assert_eq!(&plain.faults, &chk.faults);
    prop_assert_eq!(&rec_plain.events, &rec_chk.events);
    Ok(())
}

fn check_all(queries: &[SimQuery], plan: &FaultPlan) -> Result<(), TestCaseError> {
    check_one(Fifo, queries, plan)?;
    check_one(Hcs, queries, plan)?;
    check_one(Hfs, queries, plan)?;
    check_one(Swrd, queries, plan)?;
    check_one(Srt, queries, plan)?;
    check_one(Keyless(Hfs), queries, plan)?;
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn incremental_state_matches_reference_for_random_dags(queries in workload_strategy()) {
        check_all(&queries, &FaultPlan::none())?;
    }

    #[test]
    fn incremental_state_matches_reference_under_faults(
        queries in workload_strategy(),
        fail_prob in 0.0f64..0.15,
        crash in prop::option::of((0usize..2, 2.0f64..40.0, 2.0f64..25.0)),
        speculative in any::<bool>(),
        seed in 0u64..1_000_000,
    ) {
        // Kills, retries, claw-backs and abandonment all mutate the
        // dispatch state through resync paths that the fault-free property
        // never exercises — the materialized view must still match the
        // reference on every event.
        let plan = FaultPlan {
            task_fail_prob: fail_prob,
            max_attempts: 20,
            node_crashes: crash
                .map(|(n, at, d)| vec![NodeCrash::transient(n, at, d)])
                .unwrap_or_default(),
            speculative,
            seed,
            ..FaultPlan::default()
        };
        check_all(&queries, &plan)?;
    }
}
