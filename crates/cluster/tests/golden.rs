//! Golden-bits regression fixtures for the simulation engine.
//!
//! Pins a 64-bit FNV-1a fingerprint of the full [`SimReport`] (every f64
//! hashed by bit pattern) *and* of the exported obs event stream (the JSONL
//! rendering of every event) for all six schedulers, fault-free and under a
//! stress fault plan. Any refactor of the engine, the dispatch path, the
//! recovery machinery, or the report assembly that drifts behavior by even
//! one ULP or one event fails these assertions loudly.
//!
//! The fingerprints were captured from the engine as of the staged-pipeline
//! refactor and are the executable definition of "behavior-preserving".

use sapred_cluster::fault::{FaultPlan, NodeCrash};
use sapred_cluster::job::{JobPrediction, SimJob, SimQuery, TaskKind, TaskSpec};
use sapred_cluster::sched::{Fifo, Hcs, HcsQueues, Hfs, Scheduler, Srt, Swrd};
use sapred_cluster::sim::{
    AdmissionConfig, ClusterConfig, DemandOracle, FrozenOracle, GuardedOracle, Run, ShedPolicy,
    SimReport, Simulator,
};
use sapred_cluster::{CostModel, JobId, QueryId};
use sapred_obs::RecordingSink;

const MB: f64 = 1024.0 * 1024.0;

// ---------------------------------------------------------------------
// FNV-1a 64: tiny, dependency-free, stable.

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf29ce484222325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn str(&mut self, s: &str) {
        self.write(s.as_bytes());
        self.write(&[0xff]);
    }
}

/// Canonical fingerprint of a report: every field, f64s by bit pattern.
/// Identifier-typed fields are hashed as raw indices so the fingerprint is
/// invariant under id-newtype refactors.
fn report_fingerprint(r: &SimReport) -> u64 {
    let mut h = Fnv::new();
    h.f64(r.makespan);
    h.usize(r.queries.len());
    for q in &r.queries {
        h.str(&q.name);
        h.f64(q.arrival);
        h.f64(q.start);
        h.f64(q.finish);
        h.u64(q.failed as u64);
    }
    h.usize(r.jobs.len());
    for j in &r.jobs {
        h.usize(j.query.into());
        h.usize(j.job.into());
        h.str(&j.category.to_string());
        h.f64(j.submit);
        h.f64(j.start);
        h.f64(j.finish);
        h.usize(j.n_maps);
        h.usize(j.n_reduces);
        h.usize(j.map_attempts);
        h.usize(j.reduce_attempts);
        h.usize(j.map_completions);
        h.usize(j.reduce_completions);
        h.f64(j.map_task_avg);
        h.f64(j.reduce_task_avg);
    }
    let f = &r.faults;
    h.usize(f.task_failures);
    h.usize(f.tasks_killed);
    h.usize(f.node_crashes);
    h.usize(f.nodes_blacklisted);
    h.usize(f.lost_maps);
    h.usize(f.speculative_launches);
    h.usize(f.speculative_wins);
    h.usize(f.retries_scheduled);
    h.usize(f.recovery_count);
    h.f64(f.recovery_latency_sum);
    h.f64(f.recovery_latency_max);
    h.usize(f.failed_queries.len());
    for &q in &f.failed_queries {
        h.usize(q.into());
    }
    h.0
}

/// Fingerprint of the exported event stream: the JSONL rendering of every
/// event, in emission order (what `sapred trace` writes to disk).
fn events_fingerprint(events: &[sapred_obs::Event]) -> u64 {
    let mut h = Fnv::new();
    for e in events {
        h.str(&e.to_json());
    }
    h.0
}

// ---------------------------------------------------------------------
// The pinned workload: mirrors the engine's mixed_workload unit fixture
// (DAG chains, a map-only job, staggered arrivals, contended containers).

fn task(kind: TaskKind, bytes: f64) -> TaskSpec {
    TaskSpec {
        bytes_in: bytes,
        bytes_out: bytes / 2.0,
        category: sapred_plan::dag::JobCategory::Extract,
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
            category: sapred_plan::dag::JobCategory::Extract,
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
                category: sapred_plan::dag::JobCategory::Extract,
                maps: vec![task(TaskKind::Map, 256.0 * MB); maps_per_job],
                reduces: vec![task(TaskKind::Reduce, 64.0 * MB); 2],
                prediction: JobPrediction { map_task_time: 6.0, reduce_task_time: 3.0 },
            })
            .collect(),
    }
}

fn workload() -> Vec<SimQuery> {
    vec![
        chained_query("a", 0.0, 3, 12),
        simple_query("b", 1.5, 9, 4),
        chained_query("c", 2.0, 2, 7),
        simple_query("d", 4.0, 3, 0),
        simple_query("e", 6.5, 5, 5),
    ]
}

/// Contended 2×3 cluster: scheduler choices are consequential and node
/// loss hurts (same shape as the engine's fault-test config).
fn config() -> ClusterConfig {
    ClusterConfig { nodes: 2, containers_per_node: 3, ..Default::default() }
}

/// Every fault path at once: transient task failures, a transient node
/// outage mid-run, and speculative execution.
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

fn run<S: Scheduler>(sched: S, faults: Option<FaultPlan>) -> (u64, u64) {
    let mut sim = Simulator::new(config(), CostModel::default(), sched);
    if let Some(plan) = faults {
        sim = sim.with_faults(plan);
    }
    let mut rec = RecordingSink::new();
    let report = sim.execute(&workload(), Run::new().sink(&mut rec)).unwrap().into_report();
    (report_fingerprint(&report), events_fingerprint(&rec.events))
}

/// Like [`run`], but with the full (inert) robustness stack attached: a
/// disabled admission config and a guarded frozen oracle. Must reproduce
/// the same fingerprints — the guardrails may not cost one ULP when idle.
fn run_inert_robustness<S: Scheduler>(sched: S, faults: Option<FaultPlan>) -> (u64, u64) {
    let mut sim = Simulator::new(config(), CostModel::default(), sched)
        .with_admission(AdmissionConfig::disabled());
    if let Some(plan) = faults {
        sim = sim.with_faults(plan);
    }
    let mut rec = RecordingSink::new();
    let mut oracle = GuardedOracle::new(FrozenOracle);
    let report = sim
        .execute(&workload(), Run::new().sink(&mut rec).oracle(&mut oracle))
        .unwrap()
        .into_report();
    assert!(report.admission.is_clean(), "inert admission must report clean stats");
    assert!(!oracle.degraded(), "a frozen oracle never degrades");
    (report_fingerprint(&report), events_fingerprint(&rec.events))
}

/// One pinned cell: (scheduler, report fingerprint, event-stream
/// fingerprint), captured from the pre-refactor engine.
struct Pin {
    name: &'static str,
    report: u64,
    events: u64,
}

fn run_named(name: &str, faults: Option<FaultPlan>, inert_robustness: bool) -> (u64, u64) {
    fn go<S: Scheduler>(s: S, faults: Option<FaultPlan>, inert: bool) -> (u64, u64) {
        if inert {
            run_inert_robustness(s, faults)
        } else {
            run(s, faults)
        }
    }
    match name {
        "FIFO" => go(Fifo, faults, inert_robustness),
        "HCS" => go(Hcs, faults, inert_robustness),
        "HFS" => go(Hfs, faults, inert_robustness),
        "SWRD" => go(Swrd, faults, inert_robustness),
        "SRT" => go(Srt, faults, inert_robustness),
        "HCS-queues" => go(HcsQueues::new(vec![0.5, 0.5]), faults, inert_robustness),
        other => panic!("unknown scheduler {other}"),
    }
}

fn check(pins: &[Pin], faults: Option<FaultPlan>) {
    check_mode(pins, faults, false)
}

fn check_mode(pins: &[Pin], faults: Option<FaultPlan>, inert_robustness: bool) {
    let mut failures = Vec::new();
    for pin in pins {
        let (report, events) = run_named(pin.name, faults.clone(), inert_robustness);
        if (report, events) != (pin.report, pin.events) {
            failures.push(format!(
                "{}: report {report:#018x} (pinned {:#018x}), events {events:#018x} \
                 (pinned {:#018x})",
                pin.name, pin.report, pin.events
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "behavior drifted from the golden fixtures:\n  {}",
        failures.join("\n  ")
    );
}

#[test]
fn fault_free_reports_and_event_streams_are_bit_identical_to_golden() {
    check(
        &[
            Pin { name: "FIFO", report: 0xabbade97005267aa, events: 0xb23c2cfc9fc22c9b },
            Pin { name: "HCS", report: 0x43681221442434de, events: 0xc8afba2594525dfe },
            Pin { name: "HFS", report: 0xc7ffc822cdab84e7, events: 0x401aa82e979fba64 },
            Pin { name: "SWRD", report: 0xa3ea1b4ac7498dfd, events: 0xde08a852b54cf331 },
            Pin { name: "SRT", report: 0xa3ea1b4ac7498dfd, events: 0x9a67e2f0268a5d78 },
            Pin { name: "HCS-queues", report: 0x0d5adba6f7a78a9d, events: 0x5e2b9168c3a6f870 },
        ],
        None,
    );
}

#[test]
fn faulted_reports_and_event_streams_are_bit_identical_to_golden() {
    check(
        &[
            Pin { name: "FIFO", report: 0xe482ed51d2b1ab54, events: 0x15e87afb37e9eb7b },
            Pin { name: "HCS", report: 0x7fcb563e59e21c9b, events: 0xfd8c540b49d3b489 },
            Pin { name: "HFS", report: 0x14908a9ae85f03cc, events: 0x3ccb0c75163d2316 },
            Pin { name: "SWRD", report: 0xb05f9048145b7627, events: 0x08f700f177e98c51 },
            Pin { name: "SRT", report: 0xb05f9048145b7627, events: 0x7aa0a0401b121719 },
            Pin { name: "HCS-queues", report: 0x52f14c66ec9667ac, events: 0xf0d169b8532b0933 },
        ],
        Some(stress_plan()),
    );
}

// ---------------------------------------------------------------------
// Robustness stack: inert reproduction and lifecycle replay.

/// A disabled admission config plus a guarded frozen oracle must reproduce
/// every fault-free golden pin bit-for-bit — the overload machinery may not
/// perturb behavior when it is switched off.
#[test]
fn inert_robustness_stack_reproduces_fault_free_golden() {
    check_mode(
        &[
            Pin { name: "FIFO", report: 0xabbade97005267aa, events: 0xb23c2cfc9fc22c9b },
            Pin { name: "HCS", report: 0x43681221442434de, events: 0xc8afba2594525dfe },
            Pin { name: "HFS", report: 0xc7ffc822cdab84e7, events: 0x401aa82e979fba64 },
            Pin { name: "SWRD", report: 0xa3ea1b4ac7498dfd, events: 0xde08a852b54cf331 },
            Pin { name: "SRT", report: 0xa3ea1b4ac7498dfd, events: 0x9a67e2f0268a5d78 },
            Pin { name: "HCS-queues", report: 0x0d5adba6f7a78a9d, events: 0x5e2b9168c3a6f870 },
        ],
        None,
        true,
    );
}

/// Same inert-stack invariant under the stress fault plan.
#[test]
fn inert_robustness_stack_reproduces_faulted_golden() {
    check_mode(
        &[
            Pin { name: "FIFO", report: 0xe482ed51d2b1ab54, events: 0x15e87afb37e9eb7b },
            Pin { name: "HCS", report: 0x7fcb563e59e21c9b, events: 0xfd8c540b49d3b489 },
            Pin { name: "HFS", report: 0x14908a9ae85f03cc, events: 0x3ccb0c75163d2316 },
            Pin { name: "SWRD", report: 0xb05f9048145b7627, events: 0x08f700f177e98c51 },
            Pin { name: "SRT", report: 0xb05f9048145b7627, events: 0x7aa0a0401b121719 },
            Pin { name: "HCS-queues", report: 0x52f14c66ec9667ac, events: 0xf0d169b8532b0933 },
        ],
        Some(stress_plan()),
        true,
    );
}

/// An oracle whose every prediction is garbage: NaN map times and negative
/// reduce times. Deterministic by construction, so two runs quarantine the
/// same cells in the same order.
struct BrokenOracle;

impl DemandOracle for BrokenOracle {
    fn predict(&mut self, _query: QueryId, _job: &SimJob) -> JobPrediction {
        JobPrediction { map_task_time: f64::NAN, reduce_task_time: -3.0 }
    }
}

/// One full lifecycle-stress run: tight admission (cap 1, 15 s deadline,
/// semantics-aware shedding, one resubmit), the stress fault plan, and a
/// guarded broken oracle forcing degraded mode.
fn run_lifecycle_stress() -> (u64, u64, Vec<sapred_obs::Event>) {
    let admission = AdmissionConfig {
        queue_cap: 1,
        deadline: 15.0,
        shed_policy: ShedPolicy::ShedLargestWrd,
        max_resubmits: 1,
        resubmit_base: 2.0,
        resubmit_cap: 10.0,
    };
    let mut sim = Simulator::new(config(), CostModel::default(), Swrd)
        .with_admission(admission)
        .with_faults(stress_plan());
    let mut rec = RecordingSink::new();
    let mut oracle = GuardedOracle::new(BrokenOracle);
    let report = sim
        .execute(&workload(), Run::new().sink(&mut rec).oracle(&mut oracle))
        .unwrap()
        .into_report();
    (report_fingerprint(&report), events_fingerprint(&rec.events), rec.events)
}

/// Shed, deadline-miss, degraded-mode and quarantine decisions are part of
/// the deterministic event stream: two identical runs must agree bit-for-bit
/// on both the report and every exported event, and the stream must actually
/// contain each lifecycle event kind.
#[test]
fn lifecycle_event_streams_replay_bit_identically() {
    use sapred_obs::Event;

    let (report_a, events_a, events) = run_lifecycle_stress();
    let (report_b, events_b, _) = run_lifecycle_stress();
    assert_eq!(report_a, report_b, "lifecycle report fingerprints must replay bit-identically");
    assert_eq!(events_a, events_b, "lifecycle event streams must replay bit-identically");

    let count = |pred: fn(&Event) -> bool| events.iter().filter(|e| pred(e)).count();
    let shed = count(|e| matches!(e, Event::QueryShed { .. }));
    let missed = count(|e| matches!(e, Event::DeadlineMissed { .. }));
    let degraded = count(|e| matches!(e, Event::DegradedModeEnter { .. }));
    let quarantined = count(|e| matches!(e, Event::PredictionQuarantined { .. }));
    assert!(shed > 0, "stress config must shed at least one query");
    assert!(missed > 0, "stress config must miss at least one deadline");
    assert!(degraded > 0, "a broken oracle must push the guard into degraded mode");
    assert!(quarantined > 0, "every broken prediction must surface a quarantine event");
}
