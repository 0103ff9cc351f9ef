//! End-to-end observability pipeline test: a simulated workload traced into
//! all three exporters at once (JSONL events, Chrome trace, metrics JSON),
//! checking that the exported artifacts are well-formed and mutually
//! consistent with the simulator's own report.

use sapred::cluster::job::{JobPrediction, SimJob, SimQuery, TaskKind, TaskSpec};
use sapred::cluster::sched::Swrd;
use sapred::cluster::sim::{ClusterConfig, Run, Simulator};
use sapred::cluster::{CostModel, FaultPlan, JobId, NodeCrash};
use sapred::obs::json::validate;
use sapred::obs::{ChromeTraceSink, JsonlSink, MetricsSink, Tee};
use sapred::plan::dag::JobCategory;

/// A small three-query workload with fan-in DAGs, overlapping arrivals and
/// nonzero predictions (so SWRD has real scores to rank by).
fn workload() -> Vec<SimQuery> {
    let task = |mb: f64, kind: TaskKind, category: JobCategory| TaskSpec {
        bytes_in: mb * 1024.0 * 1024.0,
        bytes_out: mb * 0.4 * 1024.0 * 1024.0,
        category,
        kind,
        p: 0.6,
    };
    let job =
        |id: usize, deps: Vec<JobId>, category: JobCategory, maps: usize, reduces: usize| SimJob {
            id: JobId(id),
            deps,
            category,
            maps: vec![task(128.0, TaskKind::Map, category); maps],
            reduces: vec![task(64.0, TaskKind::Reduce, category); reduces],
            prediction: JobPrediction { map_task_time: 2.0, reduce_task_time: 1.5 },
        };
    (0..3)
        .map(|q| SimQuery {
            name: format!("trace-q{q}"),
            arrival: q as f64 * 1.5,
            jobs: vec![
                job(0, vec![], JobCategory::Extract, 6 + q, 0),
                job(1, vec![], JobCategory::Groupby, 4, 2),
                job(2, vec![JobId(0), JobId(1)], JobCategory::Join, 3, 1 + q),
            ],
        })
        .collect()
}

#[test]
fn exported_artifacts_are_valid_and_consistent_with_report() {
    let queries = workload();
    let config = ClusterConfig { nodes: 2, containers_per_node: 4, ..ClusterConfig::default() };
    let mut sink = Tee::new(
        JsonlSink::new(Vec::new()),
        Tee::new(ChromeTraceSink::new(), MetricsSink::new(config.total_containers())),
    );
    let report = Simulator::new(config, CostModel::default(), Swrd)
        .execute(&queries, Run::new().sink(&mut sink))
        .unwrap()
        .into_report();
    let Tee { a: jsonl, b: Tee { a: chrome, b: mut metrics } } = sink;

    // JSONL: every line is valid JSON, and task start/finish counts match
    // the report's task totals exactly.
    let text = String::from_utf8(jsonl.finish().unwrap()).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(!lines.is_empty());
    let mut starts = 0usize;
    let mut finishes = 0usize;
    for line in &lines {
        validate(line).unwrap_or_else(|e| panic!("invalid JSONL line `{line}`: {e}"));
        if line.contains("\"event\":\"task_start\"") {
            starts += 1;
        }
        if line.contains("\"event\":\"task_finish\"") {
            finishes += 1;
        }
    }
    let total: usize = report.jobs.iter().map(|j| j.n_maps + j.n_reduces).sum();
    assert_eq!(starts, total, "task_start lines vs report task total");
    assert_eq!(finishes, total, "task_finish lines vs report task total");

    // Chrome trace: a single valid JSON document with one span per task,
    // one per job, one per query, and one decision instant per dispatch.
    let mut buf = Vec::new();
    chrome.write(&mut buf).unwrap();
    let doc = String::from_utf8(buf).unwrap();
    validate(&doc).expect("chrome trace is valid JSON");
    let jobs_done = report.jobs.len();
    assert_eq!(chrome.span_count(), 2 * total + jobs_done + report.queries.len());

    // Metrics: valid JSON whose counters agree with the same totals.
    let metrics_json = metrics.finish(report.makespan);
    validate(&metrics_json).expect("metrics export is valid JSON");
    assert_eq!(metrics.registry.counter("queries_finished"), queries.len() as u64);
    assert_eq!(
        metrics.registry.counter("tasks_started_map")
            + metrics.registry.counter("tasks_started_reduce"),
        total as u64
    );
    assert_eq!(metrics.registry.counter("jobs_finished"), jobs_done as u64);
    let util = metrics.utilization(report.makespan);
    assert!((0.0..=1.0).contains(&util), "utilization {util}");
    assert!(metrics_json.contains("\"drift\""));
}

/// A map-heavy workload for the fault test: the multi-wave map phases keep
/// a wide window in which completed map outputs are still needed by pending
/// reduces, so a mid-run node crash reliably loses some.
fn fault_workload() -> Vec<SimQuery> {
    let task = |mb: f64, kind: TaskKind| TaskSpec {
        bytes_in: mb * 1024.0 * 1024.0,
        bytes_out: mb * 0.4 * 1024.0 * 1024.0,
        category: JobCategory::Groupby,
        kind,
        p: 0.6,
    };
    (0..2)
        .map(|q| SimQuery {
            name: format!("fault-q{q}"),
            arrival: q as f64,
            jobs: vec![
                SimJob {
                    id: JobId(0),
                    deps: vec![],
                    category: JobCategory::Groupby,
                    maps: vec![task(128.0, TaskKind::Map); 18],
                    reduces: vec![task(64.0, TaskKind::Reduce); 3],
                    prediction: JobPrediction { map_task_time: 2.0, reduce_task_time: 1.5 },
                },
                SimJob {
                    id: JobId(1),
                    deps: vec![JobId(0)],
                    category: JobCategory::Join,
                    maps: vec![task(96.0, TaskKind::Map); 6],
                    reduces: vec![task(64.0, TaskKind::Reduce); 2],
                    prediction: JobPrediction { map_task_time: 2.0, reduce_task_time: 1.5 },
                },
            ],
        })
        .collect()
}

#[test]
fn fault_event_kinds_are_pinned_through_every_exporter() {
    // A deliberately hostile run — transient task failures, one transient
    // node crash that loses map outputs, and speculation against injected
    // stragglers — traced into all three exporters. Every fault event kind
    // must survive the trip and agree with the report's fault stats.
    let queries = fault_workload();
    let config = ClusterConfig { nodes: 2, containers_per_node: 4, ..ClusterConfig::default() };
    let cost = CostModel { straggler_prob: 0.3, straggler_factor: 8.0, ..CostModel::default() };
    let plan = FaultPlan {
        task_fail_prob: 0.15,
        max_attempts: 16,
        // Keep the crashed node eligible to rejoin so NodeUp is observable.
        blacklist_after: 1_000,
        node_crashes: vec![NodeCrash::transient(1, 20.0, 4.0)],
        speculative: true,
        spec_fraction: 0.5,
        ..FaultPlan::default()
    };
    let mut sink = Tee::new(
        JsonlSink::new(Vec::new()),
        Tee::new(ChromeTraceSink::new(), MetricsSink::new(config.total_containers())),
    );
    let report = Simulator::new(config, cost, Swrd)
        .with_faults(plan)
        .execute(&queries, Run::new().sink(&mut sink))
        .unwrap()
        .into_report();
    let Tee { a: jsonl, b: Tee { a: chrome, b: mut metrics } } = sink;
    let fr = report.faults.clone();
    assert!(
        fr.task_failures > 0 && fr.lost_maps > 0 && fr.speculative_launches > 0,
        "plan too tame to exercise every fault kind: {fr:?}"
    );
    assert!(fr.failed_queries.is_empty(), "generous budget must not abandon queries");

    // JSONL: every line valid, and each fault kind's line count pins the
    // corresponding report counter exactly.
    let text = String::from_utf8(jsonl.finish().unwrap()).unwrap();
    for line in text.lines() {
        validate(line).unwrap_or_else(|e| panic!("invalid JSONL line `{line}`: {e}"));
    }
    let count = |kind: &str| {
        let tag = format!("\"event\":\"{kind}\"");
        text.lines().filter(|l| l.contains(&tag)).count()
    };
    assert_eq!(count("task_start"), report.total_attempts(), "one start per attempt");
    let completions: usize =
        report.jobs.iter().map(|j| j.map_completions + j.reduce_completions).sum();
    assert_eq!(count("task_finish"), completions);
    assert_eq!(count("task_failed"), fr.task_failures);
    assert_eq!(count("task_killed"), fr.tasks_killed);
    assert_eq!(count("speculative_launch"), fr.speculative_launches);
    assert_eq!(count("node_down"), fr.node_crashes + fr.nodes_blacklisted);
    assert_eq!(count("node_up"), 1, "the transient node must come back");
    assert!(count("map_output_lost") >= 1, "the crash must lose at least one map output");
    // Attempt accounting closes through the exporter too.
    assert_eq!(
        count("task_start"),
        count("task_finish") + count("task_failed") + count("task_killed")
    );

    // Chrome trace: still a single valid JSON document; at minimum one span
    // per attempt, per job and per query (fault instants come on top).
    let mut buf = Vec::new();
    chrome.write(&mut buf).unwrap();
    validate(&String::from_utf8(buf).unwrap()).expect("chrome trace is valid JSON under faults");
    assert!(
        chrome.span_count() >= report.total_attempts() + report.jobs.len() + report.queries.len()
    );

    // Metrics: fault counters mirror the report's stats.
    let metrics_json = metrics.finish(report.makespan);
    validate(&metrics_json).expect("metrics export is valid JSON under faults");
    let reg = &metrics.registry;
    assert_eq!(
        reg.counter("tasks_failed_map") + reg.counter("tasks_failed_reduce"),
        fr.task_failures as u64
    );
    assert_eq!(reg.counter("tasks_killed"), fr.tasks_killed as u64);
    assert_eq!(reg.counter("node_crashes"), fr.node_crashes as u64);
    assert_eq!(reg.counter("node_recoveries"), 1);
    assert_eq!(reg.counter("speculative_launches"), fr.speculative_launches as u64);
    assert_eq!(reg.counter("maps_lost"), fr.lost_maps as u64);
}
