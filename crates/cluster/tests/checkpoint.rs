//! Kill-and-resume differential harness for engine checkpoints.
//!
//! The contract under test: for every golden fixture (five schedulers,
//! fault-free and stress-faulted), running to a snapshot point, dropping
//! the engine, resuming the `sapred-ckpt/v5` blob in a fresh engine (which
//! replays the run to the recorded cut), and finishing produces a report
//! and an event stream **bit-identical** to the uninterrupted run — at
//! deterministically chosen snapshot points and at proptest-chosen random
//! ones. The golden cells also run [crosschecked](Simulator::crosschecked),
//! which checks the dispatch view and the pick index against their
//! references at every decision, the replayed ones included. The random
//! cuts draw whether the resuming engine is crosschecked independently of
//! the snapshotting one, so a blob written by a plain run resumes under
//! Crosscheck and the other way round.
//!
//! Both halves of a cut take a profiler, and a resumed run can be cut
//! again: three stitched segments must match the straight run too.
//!
//! The harness also fuzzes the blob itself: every single-byte flip and
//! every truncation must surface a typed [`CheckpointError`] from resume —
//! never a panic, never a silently-wrong run. A tampered blob whose
//! checksum was recomputed must still be refused when its cut lies
//! outside the run.

use proptest::prelude::*;
use sapred_cluster::fault::{FaultPlan, NodeCrash};
use sapred_cluster::job::{JobPrediction, SimJob, SimQuery, TaskKind, TaskSpec};
use sapred_cluster::sched::{Fifo, Hcs, Hfs, Scheduler, Srt, Swrd};
use sapred_cluster::sim::{
    CheckpointError, ClusterConfig, Run, RunOutcome, SimError, SimReport, Simulator,
};
use sapred_cluster::{CostModel, JobId};
use sapred_obs::profile::{Counter, SpanProfiler};
use sapred_obs::{Event, RecordingSink};

const MB: f64 = 1024.0 * 1024.0;

// ---------------------------------------------------------------------
// The golden workload (same shape as tests/golden.rs).

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

fn config() -> ClusterConfig {
    ClusterConfig { nodes: 2, containers_per_node: 3, ..Default::default() }
}

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

// ---------------------------------------------------------------------
// The differential: straight run vs. snapshot → drop → restore → finish.

/// Render an event stream as its JSONL lines. Nothing is filtered: the
/// segments of a cut run, laid end to end, are the straight run's stream.
fn rendered(events: &[Event]) -> Vec<String> {
    events.iter().map(Event::to_json).collect()
}

fn build<S: Scheduler>(s: S, faults: Option<FaultPlan>, crosscheck: bool) -> Simulator<S> {
    let mut sim = Simulator::new(config(), CostModel::default(), s);
    if crosscheck {
        sim = sim.crosschecked();
    }
    if let Some(plan) = faults {
        sim = sim.with_faults(plan);
    }
    sim
}

/// The uninterrupted run: report, rendered event stream, and the total
/// number of events the engine processed (the valid snapshot points are
/// `1..total`).
fn straight<S: Scheduler>(
    s: S,
    faults: Option<FaultPlan>,
    crosscheck: bool,
) -> (SimReport, Vec<String>, u64) {
    let mut sim = build(s, faults, crosscheck);
    let mut rec = RecordingSink::new();
    let prof = SpanProfiler::new();
    let report =
        sim.execute(&workload(), Run::new().sink(&mut rec).profiler(&prof)).unwrap().into_report();
    (report, rendered(&rec.events), prof.counter(Counter::EventsProcessed))
}

/// One segment of a cut run on `sim`, which is dropped at the end — the
/// "kill": the engine, its queue, and its RNG streams are gone, and only
/// a snapshot blob crosses the gap. Starts from `from` (or fresh), stops
/// after `stop` events (or at the end); returns the outcome and the
/// events.
fn segment<S: Scheduler>(
    mut sim: Simulator<S>,
    from: Option<&[u8]>,
    stop: Option<u64>,
) -> (RunOutcome, Vec<Event>) {
    let mut rec = RecordingSink::new();
    let mut run = Run::new().sink(&mut rec);
    if let Some(bytes) = from {
        run = run.resume(bytes);
    }
    if let Some(events) = stop {
        run = run.stop_after(events);
    }
    let outcome = sim.execute(&workload(), run).expect("segment runs");
    (outcome, rec.events)
}

fn expect_snapshot(outcome: RunOutcome, at: u64) -> Vec<u8> {
    match outcome {
        RunOutcome::Snapshot(blob) => blob,
        RunOutcome::Done(_) => panic!("snapshot point {at} was past the end of the run"),
    }
}

/// The interrupted run: snapshot after `at` events (crosschecked if
/// `crosscheck`), restore the blob into a fresh engine
/// (crosschecked if `resume_crosscheck`), finish. Returns the stitched report and event stream
/// (prefix + suffix).
fn snapshot_and_resume<S: Scheduler + Clone>(
    s: S,
    faults: Option<FaultPlan>,
    crosscheck: bool,
    resume_crosscheck: bool,
    at: u64,
) -> (SimReport, Vec<String>) {
    let sim = build(s.clone(), faults.clone(), crosscheck);
    let (outcome, mut events) = segment(sim, None, Some(at));
    let blob = expect_snapshot(outcome, at);
    let sim = build(s, faults, resume_crosscheck);
    let (outcome, suffix) = segment(sim, Some(&blob), None);
    events.extend(suffix);
    (outcome.into_report(), rendered(&events))
}

/// Snapshot points worth pinning deterministically: immediately after the
/// first event, mid-run, and immediately before the last event.
fn deterministic_cuts(total: u64) -> Vec<u64> {
    let mut cuts = vec![1, total / 2, total - 1];
    cuts.retain(|&c| c >= 1 && c < total);
    cuts.dedup();
    cuts
}

fn check_cell<S: Scheduler + Clone>(s: S, faults: Option<FaultPlan>, name: &str) {
    for crosscheck in [false, true] {
        let (want_report, want_events, total) = straight(s.clone(), faults.clone(), crosscheck);
        assert!(total > 2, "{name}: run too short to cut ({total} events)");
        for at in deterministic_cuts(total) {
            let (report, events) =
                snapshot_and_resume(s.clone(), faults.clone(), crosscheck, crosscheck, at);
            assert_eq!(
                report, want_report,
                "{name} (crosscheck {crosscheck}): report diverged after snapshot/restore at \
                 event {at}/{total}"
            );
            assert_eq!(
                events, want_events,
                "{name} (crosscheck {crosscheck}): event stream diverged after snapshot/restore \
                 at event {at}/{total}"
            );
        }
    }
}

#[test]
fn fault_free_goldens_survive_snapshot_and_restore() {
    check_cell(Fifo, None, "FIFO");
    check_cell(Hcs, None, "HCS");
    check_cell(Hfs, None, "HFS");
    check_cell(Swrd, None, "SWRD");
    check_cell(Srt, None, "SRT");
}

#[test]
fn faulted_goldens_survive_snapshot_and_restore() {
    check_cell(Fifo, Some(stress_plan()), "FIFO");
    check_cell(Hcs, Some(stress_plan()), "HCS");
    check_cell(Hfs, Some(stress_plan()), "HFS");
    check_cell(Swrd, Some(stress_plan()), "SWRD");
    check_cell(Srt, Some(stress_plan()), "SRT");
}

/// Two cuts in one run: snapshot at `a`, resume and stop again at `b`,
/// then resume to the end. A resumed run counts events from the fresh
/// start, so `b` is absolute; the three stitched segments must match the
/// straight run bit-for-bit.
fn check_double_cut<S: Scheduler + Clone>(s: S, faults: Option<FaultPlan>, name: &str) {
    let (want_report, want_events, total) = straight(s.clone(), faults.clone(), false);
    let (a, b) = (total / 3, 2 * total / 3);
    assert!(0 < a && a < b && b < total, "{name}: run too short to cut twice ({total} events)");
    let sim = || build(s.clone(), faults.clone(), false);

    let (outcome, mut events) = segment(sim(), None, Some(a));
    let blob_a = expect_snapshot(outcome, a);
    let (outcome, second) = segment(sim(), Some(&blob_a), Some(b));
    let blob_b = expect_snapshot(outcome, b);
    events.extend(second);
    let (outcome, third) = segment(sim(), Some(&blob_b), None);
    events.extend(third);
    let (report, events) = (outcome.into_report(), rendered(&events));
    assert_eq!(report, want_report, "{name}: report diverged after cuts at {a} and {b}/{total}");
    assert_eq!(events, want_events, "{name}: events diverged after cuts at {a} and {b}/{total}");
}

#[test]
fn a_resumed_run_can_be_cut_again() {
    check_double_cut(Fifo, None, "FIFO");
    check_double_cut(Swrd, None, "SWRD");
    check_double_cut(Swrd, Some(stress_plan()), "SWRD faulted");
    check_double_cut(Hfs, Some(stress_plan()), "HFS faulted");
}

/// A profiler can watch both halves of a cut run, and the work they count
/// adds up to the straight run's.
#[test]
fn profiled_snapshot_and_resume_count_the_straight_run() {
    let (s, faults) = (Swrd, Some(stress_plan()));
    let straight_prof = SpanProfiler::new();
    build(s, faults.clone(), false)
        .execute(&workload(), Run::new().profiler(&straight_prof))
        .expect("straight run");
    let total = straight_prof.counter(Counter::EventsProcessed);
    let at = total / 2;

    let before = SpanProfiler::new();
    let outcome = build(s, faults.clone(), false)
        .execute(&workload(), Run::new().profiler(&before).stop_after(at))
        .expect("snapshot run");
    let blob = expect_snapshot(outcome, at);
    let after = SpanProfiler::new();
    build(s, faults, false)
        .execute(&workload(), Run::new().profiler(&after).resume(&blob))
        .expect("resumed run")
        .into_report();

    assert_eq!(before.counter(Counter::EventsProcessed), at);
    for c in [Counter::EventsProcessed, Counter::TasksLaunched] {
        assert_eq!(
            before.counter(c) + after.counter(c),
            straight_prof.counter(c),
            "{} split across the cut does not add up",
            c.label()
        );
    }
    assert!(before.balanced() && after.balanced());
}

/// A checkpoint carries no run history: on a long fault-free stream of
/// queries, a snapshot at 90% of the run is no larger than one at 10%
/// (give or take a tenth), though nine times as many attempts have
/// launched by then.
#[test]
fn late_snapshots_are_no_larger_than_early_ones() {
    let queries: Vec<SimQuery> =
        (0..40).map(|i| chained_query(&format!("s{i}"), 4.0 * i as f64, 3, 6)).collect();
    let sim = || Simulator::new(config(), CostModel::default(), Swrd);
    let prof = SpanProfiler::new();
    sim().execute(&queries, Run::new().profiler(&prof)).expect("straight run");
    let total = prof.counter(Counter::EventsProcessed);
    let size_at = |at| {
        let outcome = sim().execute(&queries, Run::new().stop_after(at)).expect("snapshot run");
        expect_snapshot(outcome, at).len()
    };
    let (early, late) = (size_at(total / 10), size_at(9 * total / 10));
    assert!(late <= early + early / 10, "snapshot grew from {early} B at 10% to {late} B at 90%");
}

// ---------------------------------------------------------------------
// Corruption fuzzing: every flip/truncation is a typed error, never a
// panic or a silently-wrong resumed run.

fn sample_blob() -> Vec<u8> {
    let sim = Simulator::new(config(), CostModel::default(), Swrd).with_faults(stress_plan());
    // Mid-run cut: the faulted SWRD run processes ~128 events total, so 60
    // lands with plenty of live state (running attempts, pending retries).
    expect_snapshot(segment(sim, None, Some(60)).0, 60)
}

fn try_restore(blob: &[u8]) -> Result<SimReport, SimError> {
    let mut sim = Simulator::new(config(), CostModel::default(), Swrd).with_faults(stress_plan());
    sim.execute(&workload(), Run::new().resume(blob)).map(RunOutcome::into_report)
}

#[test]
fn every_single_byte_flip_is_detected() {
    let blob = sample_blob();
    assert!(try_restore(&blob).is_ok(), "the pristine blob must restore");
    for i in 0..blob.len() {
        let mut bad = blob.clone();
        bad[i] ^= 0x01;
        match try_restore(&bad) {
            Err(SimError::Checkpoint(_)) => {}
            Err(other) => panic!("flip at byte {i}: wrong error class {other}"),
            Ok(_) => panic!("flip at byte {i} restored successfully"),
        }
    }
}

#[test]
fn every_truncation_is_detected() {
    let blob = sample_blob();
    for len in 0..blob.len() {
        match try_restore(&blob[..len]) {
            Err(SimError::Checkpoint(_)) => {}
            Err(other) => panic!("truncation to {len} bytes: wrong error class {other}"),
            Ok(_) => panic!("truncation to {len} bytes restored successfully"),
        }
    }
}

#[test]
fn context_mismatch_is_detected() {
    let blob = sample_blob();
    // Same workload, different seed: the context fingerprint must refuse
    // to marry the blob to a differently-configured engine.
    let mut sim =
        Simulator::new(ClusterConfig { seed: 99, ..config() }, CostModel::default(), Swrd)
            .with_faults(stress_plan());
    let err = sim
        .execute(&workload(), Run::new().resume(&blob))
        .map(RunOutcome::into_report)
        .expect_err("mismatched config must not restore");
    assert!(err.to_string().contains("context"), "unexpected error: {err}");
}

/// Frame layout (see `sim/checkpoint.rs`): 15-byte magic, payload length,
/// payload checksum, then the payload: the context fingerprint and the
/// cut's event count.
const HEADER: usize = 15 + 8 + 8;

/// Recompute the payload checksum (FNV-1a 64) after tampering, so only
/// the replay stands between the blob and a resumed run.
fn rechecksum(blob: &mut [u8]) {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in &blob[HEADER..] {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    blob[HEADER - 8..HEADER].copy_from_slice(&h.to_le_bytes());
}

/// A re-checksummed blob whose cut the run never stops at (event 0, the
/// run's last event, or past its end) names no state to resume; the
/// replay refuses it as corrupt.
#[test]
fn rechecksummed_cuts_outside_the_run_are_corrupt() {
    let (_, _, total) = straight(Swrd, Some(stress_plan()), false);
    let blob = sample_blob();
    let at = HEADER + 8;
    assert_eq!(u64::from_le_bytes(blob[at..at + 8].try_into().unwrap()), 60);
    for cut in [0, total, total + 1, 1_000_000] {
        let mut bad = blob.clone();
        bad[at..at + 8].copy_from_slice(&cut.to_le_bytes());
        rechecksum(&mut bad);
        match try_restore(&bad) {
            Err(SimError::Checkpoint(CheckpointError::Corrupt(why))) => {
                assert!(why.contains(&format!("cut at event {cut} ")), "cut {cut}: {why}")
            }
            other => panic!("cut {cut} of {total} must be refused as corrupt, got {other:?}"),
        }
    }
}

#[test]
fn v1_blobs_fail_on_the_magic_header() {
    let mut blob = sample_blob();
    blob[..15].copy_from_slice(b"sapred-ckpt/v1\n");
    assert!(matches!(try_restore(&blob), Err(SimError::Checkpoint(CheckpointError::BadMagic))));
}

/// A `sapred-ckpt/v2` blob carries admission and oracle state this format
/// no longer has; it is refused by its header, not misread.
#[test]
fn v2_blobs_fail_on_the_magic_header() {
    let mut blob = sample_blob();
    assert_eq!(&blob[..15], b"sapred-ckpt/v5\n");
    blob[..15].copy_from_slice(b"sapred-ckpt/v2\n");
    assert!(matches!(try_restore(&blob), Err(SimError::Checkpoint(CheckpointError::BadMagic))));
}

/// A `sapred-ckpt/v3` blob lists every attempt the run ever launched, with
/// no free list or launch numbers; it is refused by its header, not
/// misread as a slab.
#[test]
fn v3_blobs_fail_on_the_magic_header() {
    let mut blob = sample_blob();
    blob[..15].copy_from_slice(b"sapred-ckpt/v3\n");
    assert!(matches!(try_restore(&blob), Err(SimError::Checkpoint(CheckpointError::BadMagic))));
}

/// A `sapred-ckpt/v4` blob serializes the whole run state rather than a
/// cut to replay to; it is refused by its header, not misread.
#[test]
fn v4_blobs_fail_on_the_magic_header() {
    let mut blob = sample_blob();
    blob[..15].copy_from_slice(b"sapred-ckpt/v4\n");
    assert!(matches!(try_restore(&blob), Err(SimError::Checkpoint(CheckpointError::BadMagic))));
}

// ---------------------------------------------------------------------
// Proptest: random schedulers × fault plans × snapshot points, and random
// multi-byte corruption.

fn run_cell_by_index(
    idx: usize,
    faulted: bool,
    snap_crosscheck: bool,
    resume_crosscheck: bool,
    at_frac: f64,
) {
    let faults = if faulted { Some(stress_plan()) } else { None };
    let modes = (snap_crosscheck, resume_crosscheck);
    fn one<S: Scheduler + Clone>(
        s: S,
        faults: Option<FaultPlan>,
        (crosscheck, resume_crosscheck): (bool, bool),
        at_frac: f64,
        name: &str,
    ) {
        let (want_report, want_events, total) = straight(s.clone(), faults.clone(), crosscheck);
        let at = ((total - 1) as f64 * at_frac).floor() as u64 + 1;
        let at = at.min(total - 1).max(1);
        let (report, events) = snapshot_and_resume(s, faults, crosscheck, resume_crosscheck, at);
        let cell = format!("{name} (crosscheck {crosscheck} -> {resume_crosscheck})");
        assert_eq!(report, want_report, "{cell}: report diverged at cut {at}/{total}");
        assert_eq!(events, want_events, "{cell}: events diverged at cut {at}/{total}");
    }
    match idx % 5 {
        0 => one(Fifo, faults, modes, at_frac, "FIFO"),
        1 => one(Hcs, faults, modes, at_frac, "HCS"),
        2 => one(Hfs, faults, modes, at_frac, "HFS"),
        3 => one(Swrd, faults, modes, at_frac, "SWRD"),
        _ => one(Srt, faults, modes, at_frac, "SRT"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_cut_points_restore_bit_identically(
        idx in 0usize..5,
        faulted in any::<bool>(),
        snap_crosscheck in any::<bool>(),
        resume_crosscheck in any::<bool>(),
        at_frac in 0.0f64..1.0,
    ) {
        run_cell_by_index(idx, faulted, snap_crosscheck, resume_crosscheck, at_frac);
    }

    #[test]
    fn random_multi_byte_corruption_is_detected(
        flips in prop::collection::vec((0usize..100_000, 1u8..=255), 1..8),
    ) {
        let blob = sample_blob();
        let mut bad = blob.clone();
        for &(pos, x) in &flips {
            bad[pos % blob.len()] ^= x;
        }
        if bad != blob {
            prop_assert!(
                matches!(try_restore(&bad), Err(SimError::Checkpoint(_))),
                "corrupted blob must fail with a checkpoint error"
            );
        }
    }
}
