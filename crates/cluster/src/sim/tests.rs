use super::engine::RunState;
use super::*;
use crate::cost::CostModel;
use crate::fault::{FaultPlan, NodeCrash};
use crate::job::{JobPrediction, SimJob, SimQuery, TaskKind, TaskSpec};
use crate::sched::{Fifo, Hcs, Hfs, RunnableJob, Scheduler, Srt, Swrd, TaskChoice};
use sapred_obs::JobId;
use sapred_obs::{DownReason, NodeId, QueryId, TaskPhase};
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

fn simple_query(name: &str, arrival: f64, n_maps: usize, n_reduces: usize) -> SimQuery {
    SimQuery {
        name: name.into(),
        arrival,
        jobs: vec![SimJob {
            id: JobId(0),
            deps: vec![],
            category: JobCategory::Extract,
            maps: vec![task(TaskKind::Map, 256.0 * MB); n_maps],
            reduces: vec![task(TaskKind::Reduce, 128.0 * MB); n_reduces],
            prediction: JobPrediction { map_task_time: 5.0, reduce_task_time: 5.0 },
        }],
    }
}

fn chained_query(name: &str, arrival: f64, jobs: usize, maps_per_job: usize) -> SimQuery {
    SimQuery {
        name: name.into(),
        arrival,
        jobs: (0..jobs)
            .map(|i| SimJob {
                id: JobId(i),
                deps: if i == 0 { vec![] } else { vec![JobId(i - 1)] },
                category: JobCategory::Extract,
                maps: vec![task(TaskKind::Map, 256.0 * MB); maps_per_job],
                reduces: vec![task(TaskKind::Reduce, 64.0 * MB); 2],
                prediction: JobPrediction { map_task_time: 6.0, reduce_task_time: 3.0 },
            })
            .collect(),
    }
}

fn sim<S: Scheduler>(s: S) -> Simulator<S> {
    Simulator::new(ClusterConfig::default(), CostModel::default(), s)
}

/// `S`'s choices and scores without its [`Scheduler::key`], like a wrapper
/// that forwards only `pick` and `score`: the engine drops the pick index
/// and scans every runnable set.
#[derive(Clone)]
struct Keyless<S>(S);

impl<S: Scheduler> Scheduler for Keyless<S> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn pick(&mut self, runnable: &[RunnableJob]) -> Option<TaskChoice> {
        self.0.pick(runnable)
    }

    fn score(&self, job: &RunnableJob) -> f64 {
        self.0.score(job)
    }
}

/// Run `sim` to completion, recording every event.
fn traced<S: Scheduler>(
    mut sim: Simulator<S>,
    queries: &[SimQuery],
) -> (SimReport, sapred_obs::RecordingSink) {
    let mut rec = sapred_obs::RecordingSink::new();
    let report = sim.execute(queries, Run::new().sink(&mut rec)).unwrap().into_report();
    (report, rec)
}

#[test]
fn single_query_completes() {
    let r = sim(Fifo).run(&[simple_query("q", 0.0, 8, 2)]);
    assert_eq!(r.queries.len(), 1);
    assert!(r.queries[0].finish > 0.0);
    assert!(r.queries[0].response() > 0.0);
    assert_eq!(r.jobs.len(), 1);
    assert!(r.jobs[0].map_task_avg > 0.0);
    assert!(r.jobs[0].reduce_task_avg > 0.0);
}

#[test]
fn reduces_start_after_maps() {
    // One container: tasks strictly serialize; with 2 maps and 1 reduce
    // the job takes roughly 3 task times.
    let config = ClusterConfig { nodes: 1, containers_per_node: 1, ..Default::default() };
    let mut s = Simulator::new(config, CostModel::default(), Fifo);
    let r = s.run(&[simple_query("q", 0.0, 2, 1)]);
    let j = &r.jobs[0];
    // Duration must cover both map tasks before the reduce could start.
    assert!(j.duration() >= 2.0 * j.map_task_avg * 0.9);
}

#[test]
fn dag_dependencies_respected() {
    let r = sim(Fifo).run(&[chained_query("q", 0.0, 3, 4)]);
    assert_eq!(r.jobs.len(), 3);
    for w in r.jobs.windows(2) {
        // Chained: job i+1 starts only after job i finishes.
        assert!(w[1].start >= w[0].finish, "{:?}", r.jobs);
    }
}

#[test]
fn more_containers_help_parallel_job() {
    let mk = |containers: usize| {
        let config =
            ClusterConfig { nodes: 1, containers_per_node: containers, ..Default::default() };
        Simulator::new(config, CostModel::default(), Fifo)
            .run(&[simple_query("q", 0.0, 32, 4)])
            .queries[0]
            .response()
    };
    assert!(mk(32) < 0.5 * mk(2), "{} vs {}", mk(32), mk(2));
}

#[test]
fn hcs_interleaves_but_fifo_does_not() {
    // Big query A (2 chained jobs that saturate the cluster) and a
    // small query B arriving mid-execution. B's job is *submitted*
    // before A's second job (which waits on A's first), so under HCS
    // (job submit order) B overtakes A-J2, while query-arrival FIFO
    // keeps B behind everything A runs.
    let config = ClusterConfig { submit_overhead: 0.0, ..Default::default() };
    let queries = vec![chained_query("big", 0.0, 2, 1200), simple_query("small", 30.0, 300, 8)];
    let hcs = Simulator::new(config, CostModel::default(), Hcs).run(&queries);
    let fifo = Simulator::new(config, CostModel::default(), Fifo).run(&queries);
    let small_hcs = hcs.queries[1].response();
    let small_fifo = fifo.queries[1].response();
    assert!(small_hcs < 0.8 * small_fifo, "hcs {small_hcs} fifo {small_fifo}");
}

#[test]
fn swrd_prioritizes_small_queries() {
    // One huge query and three small ones arriving together.
    let queries = vec![
        chained_query("huge", 0.0, 4, 200),
        simple_query("s1", 0.5, 4, 2),
        simple_query("s2", 0.6, 4, 2),
        simple_query("s3", 0.7, 4, 2),
    ];
    let swrd = sim(Swrd).run(&queries);
    let hcs = sim(Hcs).run(&queries);
    let mean_small =
        |r: &SimReport| r.queries[1..].iter().map(QueryStat::response).sum::<f64>() / 3.0;
    assert!(
        mean_small(&swrd) < mean_small(&hcs),
        "swrd {} hcs {}",
        mean_small(&swrd),
        mean_small(&hcs)
    );
}

#[test]
fn deterministic_given_seed() {
    let queries = vec![chained_query("q", 0.0, 2, 8), simple_query("r", 3.0, 4, 2)];
    let a = sim(Fifo).run(&queries);
    let b = sim(Fifo).run(&queries);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(
        a.queries.iter().map(QueryStat::response).collect::<Vec<_>>(),
        b.queries.iter().map(QueryStat::response).collect::<Vec<_>>()
    );
}

#[test]
fn percentile_interpolates_response_times() {
    let mut r = SimReport::default();
    assert_eq!(r.percentile(0.5), 0.0);
    for resp in [10.0, 20.0, 30.0, 40.0, 50.0] {
        r.queries.push(QueryStat {
            name: "q".into(),
            arrival: 0.0,
            start: 0.0,
            finish: resp,
            failed: false,
        });
    }
    assert_eq!(r.percentile(0.0), 10.0);
    assert_eq!(r.percentile(0.5), 30.0);
    assert_eq!(r.percentile(1.0), 50.0);
    // p75 sits halfway between the 3rd and 4th order statistics.
    assert!((r.percentile(0.75) - 40.0).abs() < 1e-9);
    assert!((r.percentile(0.95) - 48.0).abs() < 1e-9);
}

#[test]
fn event_stream_is_consistent_with_report() {
    use sapred_obs::Event as Ob;
    let queries = vec![chained_query("a", 0.0, 2, 6), simple_query("b", 2.0, 5, 3)];
    let (report, rec) = traced(sim(Fifo), &queries);

    let count = |pred: &dyn Fn(&Ob) -> bool| rec.events.iter().filter(|e| pred(e)).count();
    // Task starts and finishes both match the report's task totals.
    assert_eq!(count(&|e| matches!(e, Ob::TaskStart { .. })), report.total_tasks());
    assert_eq!(count(&|e| matches!(e, Ob::TaskFinish { .. })), report.total_tasks());
    // One lifecycle pair per query and per job; one decision per task.
    assert_eq!(count(&|e| matches!(e, Ob::QueryArrive { .. })), queries.len());
    assert_eq!(count(&|e| matches!(e, Ob::QueryStart { .. })), queries.len());
    assert_eq!(count(&|e| matches!(e, Ob::QueryFinish { .. })), queries.len());
    assert_eq!(count(&|e| matches!(e, Ob::JobSubmit { .. })), report.jobs.len());
    assert_eq!(count(&|e| matches!(e, Ob::JobStart { .. })), report.jobs.len());
    assert_eq!(count(&|e| matches!(e, Ob::JobFinish { .. })), report.jobs.len());
    assert_eq!(count(&|e| matches!(e, Ob::Decision { .. })), report.total_tasks());
    // Events are emitted in non-decreasing simulated time.
    for w in rec.events.windows(2) {
        assert!(w[1].time() >= w[0].time() - 1e-9);
    }
    // Placement stays within the cluster topology.
    let config = ClusterConfig::default();
    for e in &rec.events {
        if let Ob::TaskStart { node, slot, .. } = e {
            assert!(node.index() < config.nodes);
            assert!(*slot < config.containers_per_node);
        }
    }
}

#[test]
fn null_sink_run_matches_traced_run() {
    let queries = vec![chained_query("a", 0.0, 2, 8), simple_query("b", 3.0, 4, 2)];
    let plain = sim(Swrd).run(&queries);
    let (with_sink, rec) = traced(sim(Swrd), &queries);
    // Tracing must not perturb the simulation.
    assert_eq!(plain.makespan, with_sink.makespan);
    assert_eq!(plain.queries, with_sink.queries);
    assert_eq!(plain.jobs, with_sink.jobs);
    assert!(!rec.events.is_empty());
}

#[test]
fn swrd_decisions_choose_minimal_wrd_candidate() {
    use sapred_obs::Event as Ob;
    let queries = vec![
        chained_query("huge", 0.0, 3, 60),
        simple_query("s1", 0.5, 4, 2),
        simple_query("s2", 0.6, 4, 2),
    ];
    let (_, rec) = traced(sim(Swrd), &queries);
    let mut decisions = 0;
    for e in &rec.events {
        if let Ob::Decision { policy, candidates, chosen_query, chosen_job, .. } = e {
            assert_eq!(*policy, "SWRD");
            decisions += 1;
            let chosen = candidates
                .iter()
                .find(|c| (c.query, c.job) == (*chosen_query, *chosen_job))
                .expect("chosen job must be among the candidates");
            let min = candidates.iter().map(|c| c.score).fold(f64::INFINITY, f64::min);
            // SWRD == smallest WRD first: the winner's score (its
            // query's WRD) is minimal over the candidate set.
            assert!(chosen.score <= min + 1e-9, "chosen WRD {} > min {min}", chosen.score);
        }
    }
    assert!(decisions > 0);
}

#[test]
fn makespan_bounds_all_finishes() {
    let r = sim(Hcs).run(&[chained_query("a", 0.0, 2, 10), simple_query("b", 5.0, 6, 2)]);
    for q in &r.queries {
        assert!(q.finish <= r.makespan + 1e-9);
        assert!(q.start >= q.arrival);
    }
}

/// A workload that exercises every incremental-state transition: DAG
/// chains (reduce unlock + dependent submit), a map-only job, staggered
/// arrivals, and enough tasks for containers to stay contended.
fn mixed_workload() -> Vec<SimQuery> {
    vec![
        chained_query("a", 0.0, 3, 12),
        simple_query("b", 1.5, 9, 4),
        chained_query("c", 2.0, 2, 7),
        simple_query("d", 4.0, 3, 0),
        simple_query("e", 6.5, 5, 5),
    ]
}

/// Run the simulator `sim` builds plainly and crosschecked, and assert the
/// two runs agree bit for bit. The crosschecked run panics the moment the
/// maintained view leaves the from-scratch one; the comparison proves that
/// checking changes nothing: same schedule, same clock, same stats, and
/// identical event streams, down to every Decision record's candidate list
/// and f64 scores.
fn assert_plain_matches_crosschecked<S: Scheduler>(
    sim: impl Fn() -> Simulator<S>,
    queries: &[SimQuery],
) -> (SimReport, sapred_obs::RecordingSink) {
    let (plain, rec_plain) = traced(sim(), queries);
    let (chk, rec_chk) = traced(sim().crosschecked(), queries);
    assert_eq!(plain.makespan.to_bits(), chk.makespan.to_bits());
    assert_eq!(plain.queries, chk.queries);
    assert_eq!(plain.jobs, chk.jobs);
    assert_eq!(rec_plain.events, rec_chk.events);
    (plain, rec_plain)
}

fn assert_incremental_matches_reference<S: Scheduler + Clone>(s: S) {
    assert_plain_matches_crosschecked(|| sim(s.clone()), &mixed_workload());
}

#[test]
fn incremental_matches_reference_for_all_schedulers() {
    assert_incremental_matches_reference(Fifo);
    assert_incremental_matches_reference(Hcs);
    assert_incremental_matches_reference(Hfs);
    assert_incremental_matches_reference(Swrd);
    assert_incremental_matches_reference(Srt);
    assert_incremental_matches_reference(Keyless(Hfs));
}

#[test]
fn picks_switch_between_scan_and_index_without_changing_the_schedule() {
    use super::dispatch::INDEX_MIN_WIDTH;
    use sapred_obs::Event as Ob;
    // Two arrival bursts on a four-container cluster: the runnable set
    // grows past the index threshold, drains below it, then grows again,
    // so decisions move between the scan and the index, and the index
    // must catch up on every query touched while the set was narrow.
    let queries: Vec<SimQuery> = (0..4 * INDEX_MIN_WIDTH)
        .map(|i| {
            let burst = if i < 2 * INDEX_MIN_WIDTH { 0.0 } else { 5000.0 };
            let (name, arrival) = (format!("q{i}"), burst + i as f64 * 0.01);
            if i % 3 == 0 {
                chained_query(&name, arrival, 2, 3)
            } else {
                simple_query(&name, arrival, 2 + i % 4, 1)
            }
        })
        .collect();
    let config = ClusterConfig { nodes: 2, containers_per_node: 2, ..Default::default() };
    // The plain run picks by scan below the threshold and by index above it;
    // the crosschecked run picks by index at every decision and checks each
    // choice against the scan.
    fn check<S: Scheduler + Clone>(s: S, queries: &[SimQuery], config: ClusterConfig) {
        let (_, rec) = assert_plain_matches_crosschecked(
            || Simulator::new(config, CostModel::default(), s.clone()),
            queries,
        );
        let wide: Vec<bool> = rec
            .events
            .iter()
            .filter_map(|e| match e {
                Ob::Decision { queue_depth, .. } => Some(*queue_depth >= INDEX_MIN_WIDTH),
                _ => None,
            })
            .collect();
        let flips = wide.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(flips >= 3, "the runnable set must go wide, narrow and wide again");
    }
    check(Fifo, &queries, config);
    check(Hcs, &queries, config);
    check(Hfs, &queries, config);
    check(Swrd, &queries, config);
    check(Srt, &queries, config);
}

#[test]
fn crosscheck_mode_verifies_every_event() {
    // Crosscheck re-derives the reference view after every event and
    // before every pick and panics on divergence, so completing at all
    // is the assertion.
    let queries = mixed_workload();
    sim(Swrd).crosschecked().run(&queries);
    sim(Keyless(Hfs)).crosschecked().run(&queries);
}

#[test]
fn report_task_averages_match_traced_durations_exactly() {
    use sapred_obs::Event as Ob;
    // TaskDone events carry exact f64 duration bits, so the report's
    // per-job task averages must equal the traced durations with zero
    // tolerance (the old millisecond rounding skewed them by up to
    // 0.5 ms per task).
    let queries = mixed_workload();
    let (report, rec) = traced(sim(Hcs), &queries);
    for js in &report.jobs {
        let sum_for = |phase: TaskPhase| -> f64 {
            rec.events
                .iter()
                .filter_map(|e| match e {
                    Ob::TaskFinish { query, job, phase: p, duration, .. }
                        if (*query, *job, *p) == (js.query, js.job, phase) =>
                    {
                        Some(*duration)
                    }
                    _ => None,
                })
                .sum()
        };
        if js.n_maps > 0 {
            let avg = sum_for(TaskPhase::Map) / js.n_maps as f64;
            assert_eq!(js.map_task_avg.to_bits(), avg.to_bits());
        }
        if js.n_reduces > 0 {
            let avg = sum_for(TaskPhase::Reduce) / js.n_reduces as f64;
            assert_eq!(js.reduce_task_avg.to_bits(), avg.to_bits());
        }
    }
}

#[test]
fn percentile_handles_nan_p() {
    let mut r = SimReport::default();
    assert_eq!(r.percentile(f64::NAN), 0.0);
    for resp in [10.0, 20.0, 30.0] {
        r.queries.push(QueryStat {
            name: "q".into(),
            arrival: 0.0,
            start: 0.0,
            finish: resp,
            failed: false,
        });
    }
    // NaN p must not index garbage or propagate: defined as 0.0.
    assert_eq!(r.percentile(f64::NAN), 0.0);
    assert_eq!(r.percentile(f64::from_bits(0x7ff8_0000_0000_0001)), 0.0);
}

#[test]
fn empty_query_panics_with_descriptive_message() {
    let result = std::panic::catch_unwind(|| {
        let hollow = SimQuery { name: "hollow".into(), arrival: 0.0, jobs: vec![] };
        Simulator::new(ClusterConfig::default(), CostModel::default(), Fifo).run(&[hollow])
    });
    let err = result.unwrap_err();
    let msg = err.downcast_ref::<String>().expect("panic payload is a String");
    assert!(msg.contains("no jobs"), "unhelpful panic: {msg}");
}

// ------------------------------------------------------------------
// Fault injection and recovery.

/// Contended cluster for the fault tests: 2 nodes × 3 containers keeps
/// schedulers' choices consequential and node loss painful.
fn small_config() -> ClusterConfig {
    ClusterConfig { nodes: 2, containers_per_node: 3, ..Default::default() }
}

/// A plan that exercises every fault path at once: transient task
/// failures, one transient node outage mid-run, and speculation.
fn stress_plan() -> FaultPlan {
    FaultPlan {
        task_fail_prob: 0.08,
        max_attempts: 8,
        node_crashes: vec![NodeCrash::transient(1, 40.0, 30.0)],
        speculative: true,
        spec_fraction: 0.6,
        ..FaultPlan::default()
    }
}

#[test]
fn zero_fault_plan_pins_prefault_golden_makespans() {
    // Makespan bit patterns captured from the engine *before* fault
    // injection existed (same workload, same contended config). The
    // fault-aware engine must reproduce them exactly with the inert
    // plan: the fault machinery may not perturb one RNG draw or one
    // dispatch decision when disabled.
    fn bits<S: Scheduler>(s: S) -> u64 {
        Simulator::new(small_config(), CostModel::default(), s)
            .with_faults(FaultPlan::none())
            .run(&mixed_workload())
            .makespan
            .to_bits()
    }
    assert_eq!(bits(Fifo), 0x4075ce36d3d494cd, "fifo drifted");
    assert_eq!(bits(Hcs), 0x407629d7321af251, "hcs drifted");
    assert_eq!(bits(Hfs), 0x4075fca530e8bd5e, "hfs drifted");
    assert_eq!(bits(Swrd), 0x407625a1875607b3, "swrd drifted");
    assert_eq!(bits(Srt), 0x407625a1875607b3, "srt drifted");
}

#[test]
fn inert_plan_is_bit_identical_to_no_plan() {
    let queries = mixed_workload();
    let (a, ra) = traced(sim(Swrd), &queries);
    let (b, rb) = traced(sim(Swrd).with_faults(FaultPlan::none()), &queries);
    assert_eq!(a, b);
    assert_eq!(ra.events, rb.events);
    assert!(a.faults.is_clean());
}

#[test]
fn fault_replay_is_bit_identical() {
    let queries = mixed_workload();
    let run = || {
        let (rep, rec) = traced(
            Simulator::new(small_config(), CostModel::default(), Swrd).with_faults(stress_plan()),
            &queries,
        );
        (rep, rec.events)
    };
    let (a, ea) = run();
    let (b, eb) = run();
    assert!(!a.faults.is_clean(), "stress plan must actually inject faults");
    assert!(a.faults.task_failures > 0, "{:?}", a.faults);
    assert_eq!(a, b, "same (workload, plan, seed) must replay bit-identically");
    assert_eq!(ea, eb, "replayed event streams must be identical");
}

#[test]
fn crosscheck_holds_under_faults_for_all_schedulers() {
    // Crosscheck re-derives the reference runnable view after every
    // event — including kills, retries, claw-backs and query
    // abandonment — and panics on any divergence, so completing is the
    // assertion.
    fn check<S: Scheduler>(s: S) {
        Simulator::new(small_config(), CostModel::default(), s)
            .crosschecked()
            .with_faults(stress_plan())
            .run(&mixed_workload());
    }
    check(Fifo);
    check(Hcs);
    check(Hfs);
    check(Swrd);
    check(Srt);
    check(Keyless(Hfs));
}

#[test]
fn task_averages_count_only_winning_attempts_under_faults() {
    use sapred_obs::Event as Ob;
    let queries = mixed_workload();
    let (rep, rec) = traced(
        Simulator::new(small_config(), CostModel::default(), Hcs).with_faults(stress_plan()),
        &queries,
    );
    assert!(rep.faults.task_failures > 0, "need failures to regress against");
    // The averages must divide the *traced winning durations* by the
    // completion count, bit-for-bit — failed and killed attempts
    // contribute nothing.
    for js in &rep.jobs {
        let sum_for = |phase: TaskPhase| -> f64 {
            rec.events
                .iter()
                .filter_map(|e| match e {
                    Ob::TaskFinish { query, job, phase: p, duration, .. }
                        if (*query, *job, *p) == (js.query, js.job, phase) =>
                    {
                        Some(*duration)
                    }
                    _ => None,
                })
                .sum()
        };
        if js.map_completions > 0 {
            let avg = sum_for(TaskPhase::Map) / js.map_completions as f64;
            assert_eq!(js.map_task_avg.to_bits(), avg.to_bits());
        }
        if js.reduce_completions > 0 {
            let avg = sum_for(TaskPhase::Reduce) / js.reduce_completions as f64;
            assert_eq!(js.reduce_task_avg.to_bits(), avg.to_bits());
        }
    }
    // Attempt accounting is closed: starts = attempts, finishes =
    // completions, and every attempt ends exactly one way.
    let count = |pred: &dyn Fn(&Ob) -> bool| rec.events.iter().filter(|e| pred(e)).count();
    let starts = count(&|e| matches!(e, Ob::TaskStart { .. }));
    let finishes = count(&|e| matches!(e, Ob::TaskFinish { .. }));
    let fails = count(&|e| matches!(e, Ob::TaskFailed { .. }));
    let kills = count(&|e| matches!(e, Ob::TaskKilled { .. }));
    assert_eq!(starts, rep.total_attempts());
    assert_eq!(finishes, rep.total_completions());
    assert_eq!(fails, rep.faults.task_failures);
    assert_eq!(kills, rep.faults.tasks_killed);
    assert_eq!(starts, finishes + fails + kills, "every attempt ends exactly once");
}

#[test]
fn node_crash_requeues_tasks_and_reexecutes_lost_maps() {
    use sapred_obs::Event as Ob;
    // 18 maps on 6 containers run in ~3 waves; crashing node 0 after
    // the first waves completed (but before the reduces finish) must
    // invalidate the finished map output it held.
    let queries = vec![simple_query("q", 0.0, 18, 2)];
    let plan = FaultPlan {
        node_crashes: vec![NodeCrash::transient(0, 45.0, 20.0)],
        ..FaultPlan::default()
    };
    let (rep, rec) = traced(
        Simulator::new(small_config(), CostModel::default(), Fifo).with_faults(plan),
        &queries,
    );
    assert_eq!(rep.faults.node_crashes, 1);
    assert!(rep.faults.lost_maps > 0, "no completed maps were on node 0: {:?}", rep.faults);
    assert!(!rep.queries[0].failed, "transient crash must not fail the query");
    // Lost maps re-execute: completions exceed the task count by
    // exactly the lost count (nothing else fails in this plan).
    let j = &rep.jobs[0];
    assert_eq!(j.map_completions, j.n_maps + rep.faults.lost_maps);
    assert_eq!(j.reduce_completions, j.n_reduces);
    // The re-executed maps are recoveries with positive latency.
    assert!(rep.faults.recovery_count >= rep.faults.lost_maps);
    assert!(rep.faults.mean_recovery_latency() > 0.0);
    // Node-down/up events bracket the outage in the trace.
    let down = rec
        .events
        .iter()
        .find_map(|e| match e {
            Ob::NodeDown { t, node: NodeId(0), reason: DownReason::Crash, lost_maps } => {
                Some((*t, *lost_maps))
            }
            _ => None,
        })
        .expect("node_down traced");
    assert_eq!(down.0, 45.0);
    assert_eq!(down.1, rep.faults.lost_maps);
    assert!(rec.events.iter().any(|e| matches!(e, Ob::NodeUp { node: NodeId(0), .. })));
    let lost_traced: usize = rec
        .events
        .iter()
        .filter_map(|e| match e {
            Ob::MapOutputLost { maps_lost, .. } => Some(*maps_lost),
            _ => None,
        })
        .sum();
    assert_eq!(lost_traced, rep.faults.lost_maps);
}

#[test]
fn permanent_crash_finishes_on_surviving_node() {
    let queries = vec![simple_query("q", 0.0, 12, 2)];
    let plan =
        FaultPlan { node_crashes: vec![NodeCrash::permanent(1, 30.0)], ..FaultPlan::default() };
    let dead =
        Simulator::new(small_config(), CostModel::default(), Fifo).with_faults(plan).run(&queries);
    let clean = Simulator::new(small_config(), CostModel::default(), Fifo).run(&queries);
    assert!(!dead.queries[0].failed);
    // Losing half the cluster mid-run must cost wall-clock time.
    assert!(dead.makespan > clean.makespan, "dead {} vs clean {}", dead.makespan, clean.makespan);
}

#[test]
fn exhausted_attempts_fail_query_without_sinking_the_run() {
    // Certain failure: every attempt dies, so the first task to burn
    // its budget abandons the query — but the simulation still
    // terminates cleanly and reports the failure.
    let plan = FaultPlan { task_fail_prob: 1.0, max_attempts: 2, ..FaultPlan::default() };
    let rep = Simulator::new(small_config(), CostModel::default(), Fifo)
        .with_faults(plan)
        .run(&[simple_query("doomed", 0.0, 3, 1)]);
    assert!(rep.queries[0].failed);
    assert_eq!(rep.faults.failed_queries, vec![QueryId(0)]);
    assert!(rep.faults.task_failures >= 2, "{:?}", rep.faults);
    assert!(rep.queries[0].finish >= rep.queries[0].arrival);
    assert!(rep.queries[0].response() >= 0.0);
}

#[test]
fn doomed_query_does_not_starve_healthy_neighbors() {
    // Query 0 burns out; query 1 (identical shape, fault-free by
    // plan construction? no — same probability, but generous budget
    // only for its tasks is impossible per-query, so instead check:
    // the healthy query *completes* despite sharing the cluster with
    // a doomed one).
    let plan = FaultPlan { task_fail_prob: 1.0, max_attempts: 2, ..FaultPlan::default() };
    let queries = vec![simple_query("doomed", 0.0, 3, 1), simple_query("doomed2", 1.0, 2, 0)];
    let (rep, rec) = traced(
        Simulator::new(small_config(), CostModel::default(), Swrd).with_faults(plan),
        &queries,
    );
    // With p=1.0 both queries fail; the run still drains every event
    // and reports both.
    assert_eq!(rep.faults.failed_queries.len(), 2);
    assert_eq!(rep.queries.len(), 2);
    use sapred_obs::Event as Ob;
    let finishes = rec.events.iter().filter(|e| matches!(e, Ob::QueryFinish { .. })).count();
    assert_eq!(finishes, 2, "each query terminates exactly once");
}

#[test]
fn flaky_node_gets_blacklisted_but_never_the_last_one() {
    let plan = FaultPlan {
        task_fail_prob: 0.5,
        max_attempts: 64,
        blacklist_after: 2,
        backoff_base: 0.1,
        backoff_cap: 0.5,
        ..FaultPlan::default()
    };
    let queries = vec![simple_query("a", 0.0, 12, 3), chained_query("b", 1.0, 2, 6)];
    let rep =
        Simulator::new(small_config(), CostModel::default(), Hcs).with_faults(plan).run(&queries);
    // At 50% failure both nodes trip the threshold almost instantly,
    // but only one may fall: the survivor resets its strikes instead.
    assert_eq!(rep.faults.nodes_blacklisted, 1);
    assert!(!rep.queries.iter().any(|q| q.failed), "64 attempts outlast p=0.5");
    assert!(rep.faults.retries_scheduled > 0);
    assert!(rep.faults.recovery_count > 0);
}

#[test]
fn speculation_clones_stragglers_and_first_finisher_wins() {
    use sapred_obs::Event as Ob;
    // Heavy straggler noise (30% of tasks run 8× slower) plus an
    // otherwise idle cluster: once a job is nearly done, its laggards
    // get cloned. The clone either wins (speculative_wins) or is
    // killed as the loser — never double-counted.
    let cost = CostModel { straggler_prob: 0.3, straggler_factor: 8.0, ..Default::default() };
    let plan = FaultPlan { speculative: true, spec_fraction: 0.5, ..FaultPlan::default() };
    let queries = vec![simple_query("q", 0.0, 10, 4)];
    let (rep, rec) = traced(Simulator::new(small_config(), cost, Fifo).with_faults(plan), &queries);
    assert!(rep.faults.speculative_launches > 0, "{:?}", rep.faults);
    assert!(rep.faults.speculative_wins <= rep.faults.speculative_launches);
    let launches = rec.events.iter().filter(|e| matches!(e, Ob::SpeculativeLaunch { .. })).count();
    assert_eq!(launches, rep.faults.speculative_launches);
    // Exactly one attempt per race is killed; completions still match
    // the task count (clones never double-complete a task).
    let j = &rep.jobs[0];
    assert_eq!(j.map_completions, j.n_maps);
    assert_eq!(j.reduce_completions, j.n_reduces);
    assert_eq!(rep.faults.tasks_killed, rep.faults.speculative_launches);
    // Speculation without failures must not mark anything as failed.
    assert_eq!(rep.faults.task_failures, 0);
    assert!(!rep.queries[0].failed);
}

#[test]
fn invalid_fault_plan_panics_with_descriptive_message() {
    let result = std::panic::catch_unwind(|| {
        Simulator::new(small_config(), CostModel::default(), Fifo)
            .with_faults(FaultPlan { task_fail_prob: 2.0, ..FaultPlan::default() })
            .run(&[simple_query("q", 0.0, 2, 0)])
    });
    let err = result.unwrap_err();
    let msg = err.downcast_ref::<String>().expect("panic payload is a String");
    assert!(msg.contains("invalid fault plan"), "unhelpful panic: {msg}");
}

#[test]
fn execute_returns_invalid_inputs_as_typed_errors() {
    let hollow = SimQuery { name: "hollow".into(), arrival: 0.0, jobs: vec![] };
    let bad_plan = FaultPlan { task_fail_prob: 2.0, ..FaultPlan::default() };
    let valid = [simple_query("q", 0.0, 2, 0)];
    let mut plain = Simulator::new(small_config(), CostModel::default(), Fifo);
    let mut faulty =
        Simulator::new(small_config(), CostModel::default(), Fifo).with_faults(bad_plan);
    for (sim, queries, want) in [
        (&mut plain, std::slice::from_ref(&hollow), "invalid query hollow"),
        (&mut faulty, &valid[..], "invalid fault plan"),
    ] {
        // Validation comes before any run state, so resume bytes that
        // would not restore are never read.
        for run in [Run::new(), Run::new().resume(b"not a checkpoint")] {
            match sim.execute(queries, run) {
                Err(SimError::Invalid(msg)) => assert!(msg.starts_with(want), "{msg}"),
                other => panic!("expected SimError::Invalid, got {other:?}"),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// DemandOracle seam
// ---------------------------------------------------------------------------

/// Oracle that counts consultations and relays frozen predictions.
struct CountingOracle {
    predicts: usize,
}

impl DemandOracle for CountingOracle {
    fn predict(&mut self, _query: QueryId, job: &SimJob) -> JobPrediction {
        self.predicts += 1;
        job.prediction
    }
}

#[test]
fn frozen_oracle_run_is_bit_identical_to_plain_run() {
    use sapred_obs::RecordingSink;
    let queries = mixed_workload();
    let (plain, rec_plain) = traced(sim(Swrd), &queries);
    let mut rec_oracle = RecordingSink::new();
    let oracled = sim(Swrd)
        .execute(&queries, Run::new().sink(&mut rec_oracle).oracle(&mut FrozenOracle))
        .unwrap()
        .into_report();
    assert_eq!(plain.makespan.to_bits(), oracled.makespan.to_bits());
    assert_eq!(plain.queries, oracled.queries);
    assert_eq!(plain.jobs, oracled.jobs);
    assert_eq!(rec_plain.events, rec_oracle.events);
}

#[test]
fn oracle_is_consulted_at_start_and_submit() {
    let queries = mixed_workload();
    let total_jobs: usize = queries.iter().map(|q| q.jobs.len()).sum();
    let mut oracle = CountingOracle { predicts: 0 };
    sim(Swrd).execute(&queries, Run::new().oracle(&mut oracle)).unwrap().into_report();
    // Seeded once per job up front, plus once more at each submit.
    assert_eq!(oracle.predicts, 2 * total_jobs);
}

#[test]
fn profiled_run_is_report_identical_and_counts_hot_paths() {
    use sapred_obs::profile::{Counter, SpanProfiler};
    use sapred_obs::RecordingSink;

    let queries = mixed_workload();
    let baseline = sim(Swrd).run(&queries);

    let prof = SpanProfiler::new();
    let profiled = sim(Swrd).execute(&queries, Run::new().profiler(&prof)).unwrap().into_report();
    assert_eq!(format!("{baseline:?}"), format!("{profiled:?}"));

    let total_tasks: usize =
        queries.iter().flat_map(|q| &q.jobs).map(|j| j.maps.len() + j.reduces.len()).sum();
    assert_eq!(prof.counter(Counter::TasksLaunched), total_tasks as u64);
    assert!(prof.counter(Counter::EventsProcessed) > total_tasks as u64);
    assert!(prof.counter(Counter::DispatchDecisions) >= total_tasks as u64);
    assert!(prof.counter(Counter::SchedulerViewUpdates) > 0);
    assert!(prof.counter(Counter::QueuePeakDepth) > 0);
    // Disabled sink: no events delivered, and the emit sites never ran.
    assert_eq!(prof.counter(Counter::SinkEventsEmitted), 0);
    assert!(prof.balanced());

    // With an enabled sink the emitted-event counter matches exactly.
    let prof2 = SpanProfiler::new();
    let mut rec = RecordingSink::new();
    let with_sink = sim(Swrd)
        .execute(&queries, Run::new().sink(&mut rec).profiler(&prof2))
        .unwrap()
        .into_report();
    assert_eq!(format!("{baseline:?}"), format!("{with_sink:?}"));
    assert_eq!(prof2.counter(Counter::SinkEventsEmitted), rec.events.len() as u64);

    // Counters are deterministic: a rerun reproduces them bit-for-bit.
    let prof3 = SpanProfiler::new();
    sim(Swrd).execute(&queries, Run::new().profiler(&prof3)).unwrap().into_report();
    for c in Counter::ALL {
        assert_eq!(prof.counter(c), prof3.counter(c), "{}", c.label());
    }
}

#[test]
fn profiled_run_counts_faulted_paths() {
    use sapred_obs::profile::{Counter, SpanProfiler};

    let queries = mixed_workload();
    let prof = SpanProfiler::new();
    let mut s =
        Simulator::new(small_config(), CostModel::default(), Swrd).with_faults(stress_plan());
    let report = s.execute(&queries, Run::new().profiler(&prof)).unwrap().into_report();
    // Retries/clones mean more launches than the task count.
    let total_tasks: usize =
        queries.iter().flat_map(|q| &q.jobs).map(|j| j.maps.len() + j.reduces.len()).sum();
    assert!(prof.counter(Counter::TasksLaunched) > total_tasks as u64);
    assert!(report.faults.task_failures > 0);
    assert!(prof.balanced());
}

/// 1e6-task smoke test that queue memory is bounded by live work, not by
/// the task count. The queue holds *scheduled* events: one arrival or
/// submit per unfinished query (each is a single job chain) plus one
/// `TaskDone` per busy container. So its depth can never exceed
/// `queries + containers` (2,108 here; the run peaks at 2,106), while a
/// queue that leaked popped events would grow toward the ~2e6 pushes.
///
/// Runs in release only: a debug-build 1e6-task run takes minutes.
#[test]
#[cfg_attr(debug_assertions, ignore = "1e6-task run is release-only; run with --release")]
fn queue_depth_stays_bounded_by_live_work_at_1e6_tasks() {
    use sapred_obs::profile::{Counter, SpanProfiler};

    // 2000 queries x 5 jobs x (80 maps + 20 reduces) = 1e6 tasks, the
    // same shape as the bench scale suite's 1e6 cell.
    let queries: Vec<SimQuery> = (0..2000)
        .map(|i| chained_query_shaped(&format!("q{i}"), i as f64 * 0.37, 5, 80, 20))
        .collect();
    let total_tasks: usize =
        queries.iter().flat_map(|q| &q.jobs).map(|j| j.maps.len() + j.reduces.len()).sum();
    assert_eq!(total_tasks, 1_000_000);

    let prof = SpanProfiler::new();
    let mut s = sim(Fifo);
    let bound = (queries.len() + s.config.total_containers()) as u64;
    let report = s.execute(&queries, Run::new().profiler(&prof)).unwrap().into_report();
    assert_eq!(report.total_tasks(), 1_000_000);

    let peak = prof.counter(Counter::QueuePeakDepth);
    assert!(peak > 0, "queue peak-depth counter never recorded");
    assert!(peak <= bound, "queue peak depth {peak} exceeds the live-work bound {bound}");
}

/// Job-chain query with an explicit map/reduce shape (the bench crate's
/// `dispatch_workload` shape, rebuilt here to keep the smoke test
/// self-contained).
fn chained_query_shaped(
    name: &str,
    arrival: f64,
    jobs: usize,
    maps_per_job: usize,
    reduces_per_job: usize,
) -> SimQuery {
    SimQuery {
        name: name.into(),
        arrival,
        jobs: (0..jobs)
            .map(|i| SimJob {
                id: JobId(i),
                deps: if i == 0 { vec![] } else { vec![JobId(i - 1)] },
                category: JobCategory::Extract,
                maps: vec![task(TaskKind::Map, 256.0 * MB); maps_per_job],
                reduces: vec![task(TaskKind::Reduce, 64.0 * MB); reduces_per_job],
                prediction: JobPrediction { map_task_time: 6.0, reduce_task_time: 3.0 },
            })
            .collect(),
    }
}

// ---------------------------------------------------------------------
// Event-budget watchdog.

/// A plan whose retry schedule can never exhaust: every attempt fails and
/// the attempt budget is effectively unbounded. Without a watchdog this
/// spins forever; `with_max_events` must turn it into a typed error.
#[test]
fn event_budget_watchdog_turns_a_stuck_plan_into_a_typed_error() {
    let stuck = FaultPlan { task_fail_prob: 1.0, max_attempts: usize::MAX, ..FaultPlan::default() };
    let mut sim = Simulator::new(small_config(), CostModel::default(), Fifo)
        .with_faults(stuck)
        .with_max_events(5_000);
    let err = sim
        .execute(&[simple_query("stuck", 0.0, 2, 0)], Run::new())
        .map(RunOutcome::into_report)
        .unwrap_err();
    assert_eq!(err, SimError::EventBudgetExceeded { limit: 5_000 });
    let msg = err.to_string();
    assert!(msg.contains("event budget") && msg.contains("5000"), "unhelpful message: {msg}");
}

/// The watchdog is inert when the budget is generous: same report as an
/// unwatched run.
#[test]
fn event_budget_watchdog_is_inert_below_the_limit() {
    let queries = mixed_workload();
    let unwatched = Simulator::new(small_config(), CostModel::default(), Swrd).run(&queries);
    let watched = Simulator::new(small_config(), CostModel::default(), Swrd)
        .with_max_events(u64::MAX)
        .execute(&queries, Run::new())
        .map(RunOutcome::into_report)
        .expect("a finite run never trips a generous budget");
    assert_eq!(unwatched, watched);
}

// ---------------------------------------------------------------------
// Run state bounded by live work: the attempt slab and per-spec lists.

/// The run state after `at` events, restored from the snapshot a fresh
/// run of `sim` writes there.
fn state_after<S: Scheduler>(sim: &mut Simulator<S>, queries: &[SimQuery], at: u64) -> RunState {
    let blob = match sim.execute(queries, Run::new().stop_after(at)).unwrap() {
        RunOutcome::Snapshot(blob) => blob,
        RunOutcome::Done(_) => panic!("cut {at} lies past the end of the run"),
    };
    checkpoint::decode(sim, queries, &blob).expect("the snapshot restores")
}

/// Events a run of `sim` over `queries` processes.
fn events_in<S: Scheduler>(sim: &mut Simulator<S>, queries: &[SimQuery]) -> u64 {
    use sapred_obs::profile::{Counter, SpanProfiler};
    let prof = SpanProfiler::new();
    sim.execute(queries, Run::new().profiler(&prof)).unwrap();
    prof.counter(Counter::EventsProcessed)
}

/// `n` three-job chains arriving 4 s apart: a steady stream, so the run
/// grows with `n` while the work in flight does not.
fn stream(n: usize) -> Vec<SimQuery> {
    (0..n).map(|i| chained_query(&format!("s{i}"), 4.0 * i as f64, 3, 6)).collect()
}

/// High water of the attempt slab and launch count, read just before the
/// run's last event (the slab never shrinks, so its row count then is the
/// most rows the run ever held).
fn slab_high_water<S: Scheduler>(mut sim: Simulator<S>, queries: &[SimQuery]) -> (usize, u64) {
    let total = events_in(&mut sim, queries);
    let rs = state_after(&mut sim, queries, total - 1);
    (rs.fr.attempts.rows(), rs.fr.attempts.launches)
}

#[test]
fn attempt_rows_never_exceed_the_containers_on_a_fault_free_run() {
    let queries = stream(12);
    let containers = small_config().total_containers();
    for (rows, launched) in [
        slab_high_water(Simulator::new(small_config(), CostModel::default(), Fifo), &queries),
        slab_high_water(Simulator::new(small_config(), CostModel::default(), Swrd), &queries),
    ] {
        assert!(launched > 20 * containers as u64, "only {launched} attempts launched");
        assert!(rows <= containers, "{rows} slab rows for {containers} containers");
    }
}

#[test]
fn attempt_rows_do_not_grow_with_run_length_under_faults() {
    let run = |n| {
        let sim =
            Simulator::new(small_config(), CostModel::default(), Swrd).with_faults(stress_plan());
        slab_high_water(sim, &stream(n))
    };
    let (short_rows, short_launched) = run(6);
    let (long_rows, long_launched) = run(24);
    assert!(long_launched >= 3 * short_launched, "{long_launched} vs {short_launched} launches");
    // Killed losers and crash victims hold their rows until their
    // terminal event, so the slab may exceed the container count, but by
    // what is in flight, not by how long the run is.
    assert!(
        long_rows <= short_rows + small_config().total_containers(),
        "{long_rows} rows for 4x the queries vs {short_rows}"
    );
}

/// At every cut of a faulted run, a finished job or a failed query's job
/// holds no per-spec lists, and a live job holds all of them. (The end of
/// the run is checked by `finalize`'s debug assertion that every list is
/// freed.)
#[test]
fn finished_and_failed_jobs_hold_no_per_spec_lists() {
    fn check<S: Scheduler>(mut sim: Simulator<S>, queries: &[SimQuery]) -> (usize, usize) {
        let (mut finished, mut failed) = (0, 0);
        let total = events_in(&mut sim, queries);
        for at in 1..total {
            let rs = state_after(&mut sim, queries, at);
            for (q, query) in queries.iter().enumerate() {
                for (j, job) in query.jobs.iter().enumerate() {
                    let i = rs.jobs.idx(q, j);
                    let lists = &rs.jobs.lists[i];
                    if rs.jobs.finished[i].is_some() || rs.qstate[q].failed {
                        finished += usize::from(rs.jobs.finished[i].is_some());
                        failed += usize::from(rs.qstate[q].failed);
                        assert!(lists.is_freed(), "cut {at}: job {j} of query {q} kept its lists");
                    } else if rs.jobs.submitted[i] {
                        assert_eq!(lists.map_attempt_no.len(), job.maps.len(), "cut {at}");
                        assert_eq!(lists.map_node.len(), job.maps.len(), "cut {at}");
                    }
                }
            }
        }
        (finished, failed)
    }
    let sim = Simulator::new(small_config(), CostModel::default(), Swrd).with_faults(stress_plan());
    let (finished, _) = check(sim, &mixed_workload());
    assert!(finished > 0, "no cut saw a finished job");
    let doomed = FaultPlan { task_fail_prob: 0.5, max_attempts: 2, ..FaultPlan::default() };
    let sim = Simulator::new(small_config(), CostModel::default(), Hcs).with_faults(doomed);
    let (_, failed) = check(sim, &mixed_workload());
    assert!(failed > 0, "no cut saw a failed query");
}

#[test]
fn slab_reuses_released_rows_and_unlinks_released_partners() {
    use super::recovery::{Attempt, AttemptTable, GONE, NIL};
    let attempt = |partner: Option<usize>| Attempt {
        q: 0,
        j: 0,
        kind: TaskKind::Map,
        spec_idx: 0,
        slot: 0,
        start: 0.0,
        duration_bits: 0,
        sched_end: 1.0,
        attempt_no: 1,
        speculative: partner.is_some(),
        counted: partner.is_none(),
        partner,
        alive: true,
    };
    let mut t = AttemptTable::default();
    let a = t.push(attempt(None));
    let b = t.push(attempt(None));
    let clone = t.push(attempt(Some(b)));
    t.partner[b] = clone as u32;
    assert_eq!((a, b, clone, t.rows()), (0, 1, 2, 3));
    // The clone's terminal event pops: its row is freed and `b` keeps the
    // mark of having raced, not a link to the row.
    t.alive[clone] = false;
    t.release(clone);
    assert_eq!((t.partner[b], t.partner[clone]), (GONE, NIL));
    assert!(t.get(b).partner.is_none());
    t.alive[a] = false;
    t.release(a);
    // Last released, first reused; launch numbers keep counting.
    let c = t.push(attempt(None));
    let d = t.push(attempt(None));
    assert_eq!((c, d, t.rows()), (a, clone, 3));
    assert_eq!((t.launch[b], t.launch[c], t.launch[d], t.launches), (1, 3, 4, 5));
}

/// An abandoned query's attempts die in launch order, whichever slab rows
/// they hold: the `TaskKilled` events at the failure follow the order of
/// the victims' `TaskStart`s.
#[test]
fn a_failed_query_kills_its_attempts_in_launch_order() {
    use sapred_obs::Event as Ob;
    let config = ClusterConfig { nodes: 2, containers_per_node: 6, ..Default::default() };
    let plan = FaultPlan { task_fail_prob: 0.3, max_attempts: 2, ..FaultPlan::default() };
    let queries: Vec<SimQuery> =
        (0..6).map(|i| simple_query(&format!("w{i}"), 3.0 * i as f64, 24, 4)).collect();
    let (rep, rec) =
        traced(Simulator::new(config, CostModel::default(), Fifo).with_faults(plan), &queries);
    let mut checked = 0;
    for (k, e) in rec.events.iter().enumerate() {
        let Ob::QueryFinish { t, query } = *e else { continue };
        if !rep.queries[query.0].failed {
            continue;
        }
        // The kills just before this QueryFinish, and the position of each
        // victim's launch: the last TaskStart on its slot before the kill.
        let mut launched_at = Vec::new();
        for (n, kill) in rec.events[..k].iter().enumerate().rev() {
            let Ob::TaskKilled { t: tk, query: qk, node, slot, .. } = *kill else { break };
            assert!(tk == t && qk == query);
            let start = rec.events[..n].iter().rposition(|s| {
                matches!(*s, Ob::TaskStart { node: sn, slot: ss, .. } if sn == node && ss == slot)
            });
            launched_at.push(start.expect("a killed attempt was started"));
        }
        launched_at.reverse();
        assert!(launched_at.windows(2).all(|w| w[0] < w[1]), "kill order {launched_at:?}");
        checked += launched_at.len().saturating_sub(1);
    }
    assert!(checked >= 2, "too few kill pairs to order ({checked})");
}

/// Tampered slab fields in a re-encoded (so re-checksummed) snapshot are
/// refused as corrupt. The snapshot is the first cut of a faulted SWRD run
/// with a free row and a racing pair.
#[test]
fn corrupt_slab_fields_are_refused() {
    use super::recovery::GONE;
    let queries = mixed_workload();
    let mut sim =
        Simulator::new(small_config(), CostModel::default(), Swrd).with_faults(stress_plan());
    let total = events_in(&mut sim, &queries);
    let at = (1..total)
        .find(|&at| {
            let slab = &state_after(&mut sim, &queries, at).fr.attempts;
            !slab.free.is_empty() && slab.partner.iter().any(|&p| p < GONE)
        })
        .expect("some cut has a free row and a racing pair");
    let restore = |sim: &mut Simulator<Swrd>, rs: &RunState| {
        checkpoint::decode(sim, &queries, &checkpoint::encode(sim, &queries, rs)).map(|_| ())
    };
    let pristine = state_after(&mut sim, &queries, at);
    assert_eq!(restore(&mut sim, &pristine), Ok(()), "an untouched state must round-trip");
    let free_row = pristine.fr.attempts.free[0];

    type Tamper = fn(&mut RunState, usize);
    let cases: [(&str, Tamper, &str); 4] = [
        (
            "free-list entry out of range",
            |rs, _| rs.fr.attempts.free.push(rs.fr.attempts.rows() + 2),
            "out of range",
        ),
        (
            "duplicate free-list entry",
            |rs, free_row| rs.fr.attempts.free.push(free_row),
            "listed twice",
        ),
        (
            "slot naming a free row",
            |rs, free_row| {
                let slot = rs.fr.slot_attempt.iter().position(Option::is_some).unwrap();
                rs.fr.slot_attempt[slot] = Some(free_row);
            },
            "is free",
        ),
        (
            "partner link to a free row",
            |rs, free_row| {
                let a = &mut rs.fr.attempts;
                let id = a.partner.iter().position(|&p| p < GONE).unwrap();
                a.partner[id] = free_row as u32;
            },
            "partner link to free row",
        ),
    ];
    for (what, tamper, needle) in cases {
        let mut rs = state_after(&mut sim, &queries, at);
        tamper(&mut rs, free_row);
        match restore(&mut sim, &rs) {
            Err(CheckpointError::Corrupt(why)) => {
                assert!(why.contains(needle), "{what}: unexpected reason {why}")
            }
            other => panic!("{what}: restored as {other:?}"),
        }
    }
}
