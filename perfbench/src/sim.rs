//! The simulator workload `sim_wide` keeps about a thousand jobs runnable at
//! once, so every dispatch decision scans a wide set. Its traced run also
//! measures the recovery scenario: a narrow runnable set with failures,
//! speculation and node crashes, snapshotted and resumed mid-run. That
//! scenario has no timed workload of its own: its wall varied too much
//! between runs on a shared machine to be gated (see README.md).
//!
//! Inputs come from this file's own seeded generator, so nothing outside the
//! benchmark can change what the simulator is given.

use crate::out::{fingerprint, median, peak_rss_mib, secs, timed, Checks, Metrics};
use sapred_cluster::sched::{RunnableJob, TaskChoice};
use sapred_cluster::FrozenOracle;
use sapred_cluster::{
    FaultPlan, Hfs, JobId, JobPrediction, NodeCrash, RunOutcome, Scheduler, SimJob, SimQuery,
    SimReport, Simulator, Swrd, TaskKind, TaskSpec,
};
use sapred_core::Framework;
use sapred_obs::{Counter, NullSink, SpanProfiler};
use sapred_plan::dag::JobCategory;
use std::time::{Duration, Instant};

/// Workload size: queries of `jobs` chained jobs with `maps` map and
/// `reduces` reduce tasks each.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub queries: usize,
    pub jobs: usize,
    pub maps: usize,
    pub reduces: usize,
}

impl Shape {
    pub fn tasks(&self) -> usize {
        self.queries * self.jobs * (self.maps + self.reduces)
    }
}

/// 5e5 tasks over 2000 queries: arrivals outpace service, so the runnable
/// set grows to about a thousand jobs.
pub const WIDE: Shape = Shape { queries: 2000, jobs: 5, maps: 40, reduces: 10 };
/// The recovery scenario: 1e6 tasks over 200 queries, a narrow runnable
/// set, long jobs.
pub const RECOVER: Shape = Shape { queries: 200, jobs: 5, maps: 800, reduces: 200 };
/// Mean Poisson inter-arrival gap, simulated seconds.
const MEAN_GAP_S: f64 = 0.37;
/// Set-ups made once for the input and again before each timed pass;
/// `setup_s` is the median of them all. Each takes only milliseconds, so
/// many are needed for a steady median, and spreading them over the run
/// exposes them to the same drift in machine speed as the passes.
const SETUPS: usize = 16;
/// Timed passes per run at least; `wall_s` is their median.
const MIN_PASSES: usize = 4;

/// SplitMix64: a small, fixed generator owned by the benchmark.
struct SplitMix(u64);

impl SplitMix {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The simulator input for `shape` and `seed`: chained jobs with seeded
/// categories, split sizes, predictions and Poisson arrivals.
pub fn sim_inputs(shape: &Shape, seed: u64) -> Vec<SimQuery> {
    const MB: f64 = 1024.0 * 1024.0;
    const CATEGORIES: [JobCategory; 3] =
        [JobCategory::Extract, JobCategory::Groupby, JobCategory::Join];
    let mut rng = SplitMix(seed);
    let mut arrival = 0.0;
    (0..shape.queries)
        .map(|qi| {
            arrival += -(1.0 - rng.unit()).ln() * MEAN_GAP_S;
            let jobs = (0..shape.jobs)
                .map(|j| {
                    let category = CATEGORIES[(rng.next_u64() % 3) as usize];
                    let p =
                        if category == JobCategory::Join { 0.5 + 0.3 * rng.unit() } else { 0.5 };
                    let task = |kind, bytes_in: f64, out_ratio: f64| TaskSpec {
                        bytes_in,
                        bytes_out: bytes_in * out_ratio,
                        category,
                        kind,
                        p,
                    };
                    let map = task(TaskKind::Map, (128.0 + 256.0 * rng.unit()) * MB, rng.unit());
                    let reduce =
                        task(TaskKind::Reduce, (32.0 + 64.0 * rng.unit()) * MB, rng.unit());
                    SimJob {
                        id: JobId(j),
                        deps: if j == 0 { vec![] } else { vec![JobId(j - 1)] },
                        category,
                        maps: vec![map; shape.maps],
                        reduces: vec![reduce; shape.reduces],
                        prediction: JobPrediction {
                            map_task_time: 1.0 + 6.0 * rng.unit(),
                            reduce_task_time: 0.5 + 3.0 * rng.unit(),
                        },
                    }
                })
                .collect();
            SimQuery { name: format!("q{qi}"), arrival, jobs }
        })
        .collect()
}

/// A scheduler that delegates to `inner` and counts what each `pick` saw.
/// Used in the traced run only: the clock reads cost a few percent.
pub struct Counting<S> {
    pub inner: S,
    pub picks: u64,
    pub candidates: u64,
    pub pick_time: Duration,
}

impl<S> Counting<S> {
    pub fn new(inner: S) -> Self {
        Self { inner, picks: 0, candidates: 0, pick_time: Duration::ZERO }
    }
}

impl<S: Scheduler> Scheduler for Counting<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn pick(&mut self, runnable: &[RunnableJob]) -> Option<TaskChoice> {
        let t = Instant::now();
        let choice = self.inner.pick(runnable);
        self.pick_time += t.elapsed();
        self.picks += 1;
        self.candidates += runnable.len() as u64;
        choice
    }

    fn score(&self, job: &RunnableJob) -> f64 {
        self.inner.score(job)
    }
}

/// The recovery workload's fault plan: 5% attempt failures, speculation, a
/// transient crash of node 2 and a permanent crash of node 5. Blacklisting
/// is off (at 5% every node would soon be blacklisted) and eight attempts
/// per task keep every query alive.
pub fn recover_faults(seed: u64) -> FaultPlan {
    FaultPlan {
        task_fail_prob: 0.05,
        max_attempts: 8,
        node_crashes: vec![NodeCrash::transient(2, 500.0, 300.0), NodeCrash::permanent(5, 2000.0)],
        blacklist_after: 0,
        speculative: true,
        seed: seed ^ 0x5eed_fa17,
        ..FaultPlan::default()
    }
}

fn simulator<S: Scheduler>(sched: S, faults: &FaultPlan) -> Simulator<S> {
    let fw = Framework::new();
    Simulator::new(fw.cluster, fw.cost, sched).with_faults(faults.clone())
}

/// Every query finished and every input task completed.
fn check_complete(checks: &mut Checks, label: &str, queries: &[SimQuery], report: &SimReport) {
    checks.check(report.queries.len() == queries.len(), || {
        format!("{label}: {} of {} queries reported", report.queries.len(), queries.len())
    });
    for (i, q) in report.queries.iter().enumerate() {
        checks.check(!q.failed && q.finish.is_finite() && q.finish >= q.arrival, || {
            format!("{label}: query {i} did not finish ({q:?})")
        });
    }
    let n_jobs: usize = queries.iter().map(|q| q.jobs.len()).sum();
    checks.check(report.jobs.len() == n_jobs, || {
        format!("{label}: {} of {n_jobs} jobs reported", report.jobs.len())
    });
    for js in &report.jobs {
        let input = queries.get(js.query.0).and_then(|q| q.jobs.get(js.job.0));
        let done = input.is_some_and(|job| {
            js.n_maps == job.maps.len()
                && js.n_reduces == job.reduces.len()
                && js.map_completions >= js.n_maps
                && js.reduce_completions >= js.n_reduces
        });
        checks.check(done, || format!("{label}: job {:?}/{:?} incomplete", js.query, js.job));
    }
}

/// Set up `SETUPS` times, adding each set-up time to `times`; returns the
/// last input.
fn setup(shape: &Shape, seed: u64, times: &mut Vec<f64>) -> Vec<SimQuery> {
    let mut inputs = Vec::new();
    for _ in 0..SETUPS {
        drop(std::mem::take(&mut inputs));
        let (q, s) = timed(|| sim_inputs(shape, seed));
        inputs = q;
        times.push(s);
    }
    inputs
}

/// Run timed passes until `seconds` have elapsed, at least `MIN_PASSES`;
/// each pass returns the reports to compare across repeats, and `between`
/// runs, untimed, before each pass. Reports the median pass wall, the task
/// rate it implies, and the peak resident set after the first pass (later
/// passes only add allocator fragmentation, and how many run depends on the
/// machine's speed).
///
/// The first pass, which faults in the engine's memory, is timed too: it is
/// not measurably slower than the rest, and the median is steadied against
/// drift in the machine's speed by the length of the window it covers.
fn timed_passes(
    seconds: f64,
    tasks_per_pass: usize,
    checks: &mut Checks,
    metrics: &mut Metrics,
    mut pass: impl FnMut(&mut Checks) -> Vec<u64>,
    mut between: impl FnMut(),
) {
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut first = None;
    while walls.len() < MIN_PASSES || secs(start) < seconds {
        between();
        let (prints, s) = timed(|| pass(checks));
        walls.push(s);
        match &first {
            None => {
                metrics.put("peak_rss_mib", peak_rss_mib(), "MiB");
                first = Some(prints);
            }
            Some(f) => checks.check(prints == *f, || {
                format!("pass {} reports differ from the first pass", walls.len())
            }),
        }
    }
    let wall = median(&walls);
    metrics.put("wall_s", wall, "s");
    metrics.put("tasks_per_s", tasks_per_pass as f64 / wall, "1/s");
}

/// One untraced `sim_wide` pass: the input under SWRD, then under HFS.
fn wide_pass(queries: &[SimQuery], checks: &mut Checks) -> Vec<u64> {
    let none = FaultPlan::none();
    let swrd = simulator(Swrd, &none).run(queries);
    let hfs = simulator(Hfs, &none).run(queries);
    check_complete(checks, "SWRD", queries, &swrd);
    check_complete(checks, "HFS", queries, &hfs);
    vec![fingerprint(&swrd), fingerprint(&hfs)]
}

/// What one recovery-scenario pass measured besides its reports.
struct RecoverPass {
    prints: Vec<u64>,
    task_failures: usize,
    attempts: usize,
    uninterrupted_s: f64,
    snapshot_s: f64,
    resume_s: f64,
    ckpt_bytes: usize,
}

/// One pass of the recovery scenario: an uninterrupted faulty run, then the
/// same run snapshotted at about half its events and resumed from the blob.
fn recover_pass(queries: &[SimQuery], seed: u64, checks: &mut Checks) -> RecoverPass {
    let faults = recover_faults(seed);
    let (full, uninterrupted_s) = timed(|| simulator(Swrd, &faults).run(queries));
    let at = (full.total_attempts() / 2) as u64;
    let (snap, snapshot_s) = timed(|| {
        simulator(Swrd, &faults).run_snapshot_after(queries, &mut NullSink, &mut FrozenOracle, at)
    });
    let blob = match snap {
        Ok(RunOutcome::Snapshot(blob)) => blob,
        other => {
            checks.check(false, || format!("no snapshot after {at} events: {other:?}"));
            Vec::new()
        }
    };
    let (resumed, resume_s) = timed(|| {
        simulator(Swrd, &faults).resume_with_oracle(
            queries,
            &mut NullSink,
            &mut FrozenOracle,
            &blob,
        )
    });
    check_complete(checks, "uninterrupted", queries, &full);
    checks.check(full.faults.task_failures > 0, || "no task failed".into());
    let full_print = fingerprint(&full);
    match resumed {
        Ok(r) => checks.check(fingerprint(&r) == full_print, || {
            "resumed report differs from the uninterrupted one".into()
        }),
        Err(e) => checks.check(false, || format!("resume failed: {e}")),
    }
    RecoverPass {
        prints: vec![full_print],
        task_failures: full.faults.task_failures,
        attempts: full.total_attempts(),
        uninterrupted_s,
        snapshot_s,
        resume_s,
        ckpt_bytes: blob.len(),
    }
}

/// Per-scheduler counts from a traced run.
fn sched_metrics<S>(metrics: &mut Metrics, key: &str, sched: &Counting<S>, sim_s: f64) {
    let pick_s = sched.pick_time.as_secs_f64();
    let p = format!("cluster.sched.{key}");
    metrics.put(format!("{p}.picks"), sched.picks as f64, "count");
    metrics.put(format!("{p}.candidates"), sched.candidates as f64, "count");
    metrics.put(
        format!("{p}.mean_width"),
        sched.candidates as f64 / sched.picks.max(1) as f64,
        "count",
    );
    metrics.put(format!("{p}.pick_s"), pick_s, "s");
    metrics.put(format!("{p}.pick_share"), pick_s / sim_s, "ratio");
}

/// Engine counters from the profiler of a traced run.
fn engine_metrics(metrics: &mut Metrics, prof: &SpanProfiler, report: &SimReport) {
    let c = |k| prof.counter(k) as f64;
    metrics.put("cluster.events", c(Counter::EventsProcessed), "count");
    metrics.put("cluster.dispatch_decisions", c(Counter::DispatchDecisions), "count");
    metrics.put("cluster.view_updates", c(Counter::SchedulerViewUpdates), "count");
    metrics.put("cluster.queue_ops", c(Counter::EventQueueOps), "count");
    metrics.put("cluster.heap_peak", c(Counter::QueuePeakDepth), "count");
    metrics.put("cluster.attempts", report.total_attempts() as f64, "count");
}

/// A traced simulation: the counting wrapper plus the engine profiler.
fn traced<S: Scheduler>(
    sched: S,
    faults: &FaultPlan,
    queries: &[SimQuery],
) -> (SimReport, Counting<S>, SpanProfiler, f64) {
    let prof = SpanProfiler::new();
    let mut sim = simulator(Counting::new(sched), faults);
    let (report, s) = timed(|| sim.run_profiled(queries, &mut NullSink, &mut FrozenOracle, &prof));
    (report, sim.scheduler, prof, s)
}

pub fn sim_wide(seed: u64, seconds: f64, trace: bool, checks: &mut Checks) -> Metrics {
    let mut metrics = Metrics::default();
    let mut setups = Vec::new();
    let queries = setup(&WIDE, seed, &mut setups);
    if !trace {
        timed_passes(
            seconds,
            2 * WIDE.tasks(),
            checks,
            &mut metrics,
            |c| wide_pass(&queries, c),
            || drop(setup(&WIDE, seed, &mut setups)),
        );
        metrics.put("setup_s", median(&setups), "s");
        return metrics;
    }
    let warm = wide_pass(&queries, checks);
    let (untraced, untraced_s) = timed(|| wide_pass(&queries, checks));
    checks.check(untraced == warm, || "untraced reports differ from the warm-up pass".into());
    let none = FaultPlan::none();
    let t = Instant::now();
    let (swrd, swrd_sched, swrd_prof, swrd_s) = traced(Swrd, &none, &queries);
    let (hfs, hfs_sched, _, hfs_s) = traced(Hfs, &none, &queries);
    let traced_s = secs(t);
    checks.check(untraced == vec![fingerprint(&swrd), fingerprint(&hfs)], || {
        "the counting scheduler changed a report".into()
    });
    engine_metrics(&mut metrics, &swrd_prof, &swrd);
    sched_metrics(&mut metrics, "swrd", &swrd_sched, swrd_s);
    sched_metrics(&mut metrics, "hfs", &hfs_sched, hfs_s);
    put_trace_walls(&mut metrics, traced_s, untraced_s, swrd_s + hfs_s);
    recover_metrics(&mut metrics, seed, checks);
    metrics
}

/// The recovery scenario's fault and checkpoint metrics. A warm-up pass
/// first faults in the engine's memory, so the uninterrupted baseline of
/// `cluster.ckpt_overhead_s` is not charged for it.
fn recover_metrics(metrics: &mut Metrics, seed: u64, checks: &mut Checks) {
    let queries = sim_inputs(&RECOVER, seed);
    let warm = recover_pass(&queries, seed, checks);
    let p = recover_pass(&queries, seed, checks);
    checks.check(p.prints == warm.prints, || "recovery reports differ between passes".into());
    metrics.put("cluster.task_failures", p.task_failures as f64, "count");
    metrics.put("cluster.retry_ratio", p.attempts as f64 / RECOVER.tasks() as f64, "ratio");
    metrics.put("cluster.ckpt_bytes", p.ckpt_bytes as f64, "bytes");
    metrics.put("cluster.ckpt_snapshot_s", p.snapshot_s, "s");
    metrics.put("cluster.ckpt_resume_s", p.resume_s, "s");
    metrics.put("cluster.ckpt_overhead_s", p.snapshot_s + p.resume_s - p.uninterrupted_s, "s");
}

/// The traced pass's wall beside the untraced one, and the share of the
/// traced wall that the simulations account for.
fn put_trace_walls(metrics: &mut Metrics, traced_s: f64, untraced_s: f64, layers_s: f64) {
    metrics.put("trace.wall_s", traced_s, "s");
    metrics.put("trace.untraced_wall_s", untraced_s, "s");
    metrics.put("trace.layer_coverage", layers_s / traced_s, "ratio");
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: Shape = Shape { queries: 12, jobs: 3, maps: 6, reduces: 2 };

    #[test]
    fn inputs_repeat_for_a_seed_and_differ_across_seeds() {
        let a = fingerprint(&sim_inputs(&SMALL, 1));
        assert_eq!(a, fingerprint(&sim_inputs(&SMALL, 1)));
        assert_ne!(a, fingerprint(&sim_inputs(&SMALL, 2)));
        let q = sim_inputs(&SMALL, 3);
        assert_eq!(q.iter().map(|q| q.jobs.len()).sum::<usize>(), 36);
        for query in &q {
            query.validate().expect("generated query is valid");
        }
    }

    #[test]
    fn counting_scheduler_leaves_reports_bit_identical() {
        let q = sim_inputs(&SMALL, 4);
        for faults in [FaultPlan::none(), recover_faults(4)] {
            let bare = simulator(Swrd, &faults).run(&q);
            let (counted, sched, _, _) = traced(Swrd, &faults, &q);
            assert_eq!(fingerprint(&bare), fingerprint(&counted));
            assert!(sched.picks > 0 && sched.candidates > 0);
            let bare = simulator(Hfs, &faults).run(&q);
            let (counted, _, _, _) = traced(Hfs, &faults, &q);
            assert_eq!(fingerprint(&bare), fingerprint(&counted));
        }
    }

    #[test]
    fn small_recover_pass_is_correct() {
        let q = sim_inputs(&SMALL, 5);
        let mut checks = Checks::default();
        let pass = recover_pass(&q, 5, &mut checks);
        assert_eq!(checks.failed, 0);
        assert!(pass.ckpt_bytes > 0);
    }
}
