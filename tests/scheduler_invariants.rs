//! Scheduler-independent invariants of the cluster simulation, checked
//! across all four policies on a shared workload.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sapred::core::framework::Framework;
use sapred::plan::ground_truth::execute_dag;
use sapred::relation::gen::{generate, GenConfig};
use sapred_cluster::build::build_sim_query;
use sapred_cluster::fault::{FaultPlan, NodeCrash};
use sapred_cluster::job::SimQuery;
use sapred_cluster::sched::{Fifo, Hcs, Hfs, Scheduler, Swrd};
use sapred_cluster::sim::{SimReport, Simulator};
use sapred_workload::templates::Template;

fn workload(fw: &Framework) -> Vec<SimQuery> {
    let db = generate(GenConfig::new(2.0).with_seed(5));
    let mut rng = StdRng::seed_from_u64(5);
    let mut out = Vec::new();
    for (i, t) in Template::all().iter().enumerate().take(12) {
        let dag = t.instantiate(&db, &mut rng).unwrap();
        let actuals = execute_dag(&dag, &db, fw.est_config.block_size);
        out.push(build_sim_query(
            format!("{}#{i}", t.name()),
            i as f64 * 1.5,
            &dag,
            &actuals,
            &[],
            &fw.cluster,
        ));
    }
    out
}

fn run<S: Scheduler>(fw: &Framework, s: S, queries: &[SimQuery]) -> SimReport {
    Simulator::new(fw.cluster, fw.cost, s).run(queries)
}

fn run_faulted<S: Scheduler>(
    fw: &Framework,
    s: S,
    queries: &[SimQuery],
    plan: FaultPlan,
) -> SimReport {
    Simulator::new(fw.cluster, fw.cost, s).with_faults(plan).run(queries)
}

/// A plan that permanently kills one node mid-run and sprinkles transient
/// task failures, with an attempt budget generous enough that no query is
/// ever abandoned — so every structural invariant must still hold.
fn node_loss_plan() -> FaultPlan {
    FaultPlan {
        task_fail_prob: 0.03,
        max_attempts: 16,
        node_crashes: vec![NodeCrash::permanent(0, 12.0)],
        ..FaultPlan::default()
    }
}

/// Fault-mode invariants on top of [`check_invariants`]: work conservation
/// (every task of every surviving query completes at least once, and every
/// attempt is accounted for as exactly one of finished / failed / killed)
/// and no starvation (no query is abandoned despite the dead node).
fn check_fault_invariants(report: &SimReport, queries: &[SimQuery], tag: &str) {
    check_invariants(report, queries, tag);
    assert!(
        report.faults.failed_queries.is_empty(),
        "{tag}: queries starved/abandoned under node loss: {:?}",
        report.faults.failed_queries
    );
    for (qi, stat) in report.queries.iter().enumerate() {
        assert!(!stat.failed, "{tag}: q{qi} marked failed");
        assert!(stat.finish.is_finite(), "{tag}: q{qi} never finished");
    }
    // Work conservation: re-execution may add completions (lost map
    // outputs) but can never lose any.
    for j in &report.jobs {
        assert!(
            j.map_completions >= j.n_maps,
            "{tag}: q{} job {} lost map work ({} completions < {} tasks)",
            j.query,
            j.job,
            j.map_completions,
            j.n_maps
        );
        assert!(
            j.reduce_completions >= j.n_reduces,
            "{tag}: q{} job {} lost reduce work",
            j.query,
            j.job
        );
    }
    // Attempt accounting closes: every launched attempt ends exactly one
    // way — success, failure, or kill (speculation loss / node crash).
    let completions: usize =
        report.jobs.iter().map(|j| j.map_completions + j.reduce_completions).sum();
    assert_eq!(
        report.total_attempts(),
        completions + report.faults.task_failures + report.faults.tasks_killed,
        "{tag}: attempt accounting leak"
    );
    assert_eq!(report.faults.node_crashes, 1, "{tag}: crash not recorded");
}

fn check_invariants(report: &SimReport, queries: &[SimQuery], tag: &str) {
    assert_eq!(report.queries.len(), queries.len(), "{tag}");
    for (q, stat) in queries.iter().zip(&report.queries) {
        assert!(stat.start >= q.arrival, "{tag}: started before arrival");
        assert!(stat.finish >= stat.start, "{tag}: finished before start");
        assert!(stat.finish <= report.makespan + 1e-9, "{tag}: finish after makespan");
    }
    // Every job ran, respecting its DAG dependencies.
    #[allow(clippy::needless_range_loop)]
    for q in 0..queries.len() {
        let jobs: Vec<_> =
            report.jobs.iter().filter(|j| j.query == sapred_cluster::QueryId(q)).collect();
        assert_eq!(jobs.len(), queries[q].jobs.len(), "{tag}");
        for j in &jobs {
            for &dep in &queries[q].jobs[j.job.0].deps {
                let parent = jobs.iter().find(|p| p.job == dep).unwrap();
                assert!(
                    j.start >= parent.finish - 1e-9,
                    "{tag}: q{q} job {} started before its dependency {}",
                    j.job,
                    dep
                );
            }
        }
    }
}

#[test]
fn all_schedulers_satisfy_invariants() {
    let fw = Framework::new();
    let queries = workload(&fw);
    check_invariants(&run(&fw, Fifo, &queries), &queries, "FIFO");
    check_invariants(&run(&fw, Hcs, &queries), &queries, "HCS");
    check_invariants(&run(&fw, Hfs, &queries), &queries, "HFS");
    check_invariants(&run(&fw, Swrd, &queries), &queries, "SWRD");
}

#[test]
fn fault_invariants_hold_under_permanent_node_loss() {
    // Losing a node for good mid-run must not break any scheduler: DAG
    // ordering, work conservation and attempt accounting all still hold,
    // and every query completes on the surviving nodes.
    let fw = Framework::new();
    let queries = workload(&fw);
    let p = node_loss_plan;
    check_fault_invariants(&run_faulted(&fw, Fifo, &queries, p()), &queries, "FIFO+faults");
    check_fault_invariants(&run_faulted(&fw, Hcs, &queries, p()), &queries, "HCS+faults");
    check_fault_invariants(&run_faulted(&fw, Hfs, &queries, p()), &queries, "HFS+faults");
    check_fault_invariants(&run_faulted(&fw, Swrd, &queries, p()), &queries, "SWRD+faults");
}

#[test]
fn abandoned_queries_terminate_the_run_cleanly() {
    // An exhausted attempt budget (every attempt fails, two tries) dooms
    // every query; abandonment must still drain the run to completion with
    // a finite finish time per query instead of deadlocking the heap.
    let fw = Framework::new();
    let queries: Vec<SimQuery> = workload(&fw).into_iter().take(6).collect();
    let doomed = FaultPlan { task_fail_prob: 1.0, max_attempts: 2, ..FaultPlan::default() };
    let rep = run_faulted(&fw, Swrd, &queries, doomed);
    assert_eq!(rep.faults.failed_queries.len(), queries.len(), "all queries must be abandoned");
    for stat in &rep.queries {
        assert!(stat.failed);
        assert!(stat.finish.is_finite(), "abandonment still produces a finish time");
    }
    // Abandonment leaves no poisoned shared state: a fresh failure-free
    // run of the same workload completes everything.
    let clean = run_faulted(&fw, Swrd, &queries, FaultPlan::none());
    assert!(clean.faults.failed_queries.is_empty());
    assert!(clean.queries.iter().all(|q| !q.failed));
}

#[test]
fn total_work_is_scheduler_independent() {
    // Work conservation: summed task time (derived from per-job averages ×
    // counts) is identical across schedulers because durations are drawn
    // from the same seeded RNG in launch order... it is NOT identical in
    // general (launch order differs), but total task count and per-query
    // job structure are.
    let fw = Framework::new();
    let queries = workload(&fw);
    let count_tasks =
        |r: &SimReport| -> usize { r.jobs.iter().map(|j| j.n_maps + j.n_reduces).sum() };
    let a = count_tasks(&run(&fw, Fifo, &queries));
    let b = count_tasks(&run(&fw, Hcs, &queries));
    let c = count_tasks(&run(&fw, Hfs, &queries));
    let d = count_tasks(&run(&fw, Swrd, &queries));
    assert_eq!(a, b);
    assert_eq!(b, c);
    assert_eq!(c, d);
}

#[test]
fn contention_never_speeds_a_query_up_much() {
    // Each query's contended response is at least (almost) its alone
    // response under the same scheduler; small deviations can occur because
    // task durations are resampled, so allow 20%.
    let fw = Framework::new();
    let queries = workload(&fw);
    let mixed = run(&fw, Hcs, &queries);
    for (i, q) in queries.iter().enumerate() {
        let mut alone_q = q.clone();
        alone_q.arrival = 0.0;
        let alone = run(&fw, Hcs, std::slice::from_ref(&alone_q));
        assert!(
            mixed.queries[i].response() > 0.8 * alone.queries[0].response(),
            "query {i}: mixed {} vs alone {}",
            mixed.queries[i].response(),
            alone.queries[0].response()
        );
    }
}

#[test]
fn single_container_serializes_everything() {
    let mut fw = Framework::new();
    fw.cluster.nodes = 1;
    fw.cluster.containers_per_node = 1;
    let queries: Vec<SimQuery> = workload(&Framework::new()).into_iter().take(4).collect();
    let report = run(&fw, Fifo, &queries);
    // With one container, makespan is at least the sum of all mean task
    // times × a noise tolerance.
    let total_tasks: usize = report.jobs.iter().map(|j| j.n_maps + j.n_reduces).sum();
    assert!(report.makespan > total_tasks as f64 * fw.cost.task_base * 0.8);
}
