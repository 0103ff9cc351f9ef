//! The `sapred bench` harness: a fixed suite of deterministic benchmark
//! *cells*, each timing one hot path of the system under the span profiler
//! and hot-path counters of [`sapred_obs::profile`].
//!
//! A cell is a [`CellSpec`]: what to run ([`CellKind`]), how many timed
//! iterations, and the seed that makes the run deterministic. Running a
//! cell yields a [`CellResult`] carrying three kinds of data:
//!
//! * **config** — the canonical JSON of the cell's parameters, so a
//!   baseline comparison can refuse to compare apples to oranges,
//! * **counters** — the profiler's hot-path counters, which must be
//!   bit-identical across iterations (the `deterministic` flag records
//!   this) and across machines at the same seed; a mismatch against a
//!   baseline is *determinism drift*, a much stronger signal than a
//!   timing regression,
//! * **metrics** — wall-clock percentiles and cell-specific rates
//!   (events/sec, dispatch decisions/sec, tasks/sec), which are compared
//!   against a threshold.
//!
//! Suites ([`dispatch_suite`], [`scale_suite`]) come in full and `--quick`
//! shapes; quick cells keep the full cells' names but smaller configs, so a
//! quick-vs-full comparison reports each cell as *skipped* (config mismatch)
//! rather than producing nonsense deltas.

use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use sapred_cluster::sched::{Fifo, Swrd};
use sapred_cluster::sim::{Run, Simulator};
use sapred_cluster::{FaultPlan, NodeCrash};
use sapred_core::parallel::run_claiming;
use sapred_obs::json::Obj;
use sapred_obs::profile::Counter;
use sapred_obs::{MetricsSink, SpanProfiler};

use crate::dispatch_workload;

/// What one benchmark cell runs. All variants are deterministic at a fixed
/// seed: the dispatch workload is RNG-free, and fault injection draws from
/// its own seeded stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CellKind {
    /// Drive the dispatch-heavy simulator on the synthetic chained-DAG
    /// workload (SWRD scheduler). `traced` attaches a
    /// [`MetricsSink`] so the run also pays full event-emission cost.
    Dispatch {
        /// Queries × jobs × maps × reduces of the synthetic workload.
        n_queries: usize,
        /// Jobs per query (chained DAG).
        jobs: usize,
        /// Map tasks per job.
        maps: usize,
        /// Reduce tasks per job.
        reduces: usize,
        /// Attach a metrics sink (tracing-on event emission cost).
        traced: bool,
    },
    /// Same workload under a PR 3-style fault plan: random task failures,
    /// two transient node crashes, speculative execution. The headline
    /// metric is events/sec through the recovery-heavy event loop.
    FaultStress {
        /// Queries × jobs × maps × reduces of the synthetic workload.
        n_queries: usize,
        /// Jobs per query.
        jobs: usize,
        /// Map tasks per job.
        maps: usize,
        /// Reduce tasks per job.
        reduces: usize,
    },
    /// Event-core scale cell: the dispatch workload grown to 10⁶–10⁷
    /// tasks, FIFO-scheduled so the cost is dominated by the event queue
    /// and state columns rather than scheduler policy.
    Scale {
        /// Queries in the synthetic workload.
        n_queries: usize,
        /// Jobs per query (chained DAG).
        jobs: usize,
        /// Map tasks per job.
        maps: usize,
        /// Reduce tasks per job.
        reduces: usize,
    },
}

/// One benchmark cell: a name (stable across suite shapes — baselines
/// match by it), the workload, iteration count, and seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellSpec {
    /// Stable cell name; baseline comparisons join on it.
    pub name: &'static str,
    /// What to run.
    pub kind: CellKind,
    /// Timed iterations (all must produce identical counters).
    pub iters: usize,
    /// Seed for every stochastic input of the cell.
    pub seed: u64,
}

/// The outcome of running one [`CellSpec`].
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Cell name (copied from the spec).
    pub name: String,
    /// Seed the cell ran at.
    pub seed: u64,
    /// Iterations run.
    pub iters: usize,
    /// Whether every iteration produced identical counters.
    pub deterministic: bool,
    /// Canonical JSON object of the cell's configuration.
    pub config: String,
    /// Hot-path counters from the first iteration (label → value).
    pub counters: BTreeMap<String, u64>,
    /// Per-iteration wall-clock seconds.
    pub wall_s: Vec<f64>,
    /// Derived metrics (name → value). Names ending in `_per_s` are
    /// higher-is-better; all others are lower-is-better seconds.
    pub metrics: BTreeMap<String, f64>,
    /// Panic message, when the cell blew up instead of finishing. A failed
    /// cell keeps its name and config (so baseline comparison reports it as
    /// a determinism drift, not a silently missing cell) but carries no
    /// counters, walls, or metrics, and is never `deterministic`.
    pub error: Option<String>,
}

impl CellResult {
    /// The result recorded for a cell whose run panicked.
    pub fn failed(spec: &CellSpec, error: String) -> Self {
        Self {
            name: spec.name.to_string(),
            seed: spec.seed,
            iters: spec.iters,
            deterministic: false,
            config: config_json(&spec.kind),
            counters: BTreeMap::new(),
            wall_s: Vec::new(),
            metrics: BTreeMap::new(),
            error: Some(error),
        }
    }

    /// Why this cell fails the run, if it does: it panicked, or its
    /// iterations disagreed on a counter.
    pub fn fault(&self) -> Option<String> {
        match &self.error {
            Some(err) => Some(format!("{} failed: {err}", self.name)),
            None => (!self.deterministic).then(|| format!("{} is non-deterministic", self.name)),
        }
    }
}

/// Canonical config JSON for a cell (the comparison join key, after name).
pub fn config_json(kind: &CellKind) -> String {
    match *kind {
        CellKind::Dispatch { n_queries, jobs, maps, reduces, traced } => Obj::new()
            .str("kind", "dispatch")
            .int("n_queries", n_queries as u64)
            .int("jobs", jobs as u64)
            .int("maps", maps as u64)
            .int("reduces", reduces as u64)
            .bool("traced", traced)
            .finish(),
        CellKind::FaultStress { n_queries, jobs, maps, reduces } => Obj::new()
            .str("kind", "fault_stress")
            .int("n_queries", n_queries as u64)
            .int("jobs", jobs as u64)
            .int("maps", maps as u64)
            .int("reduces", reduces as u64)
            .finish(),
        CellKind::Scale { n_queries, jobs, maps, reduces } => Obj::new()
            .str("kind", "scale")
            .int("n_queries", n_queries as u64)
            .int("jobs", jobs as u64)
            .int("maps", maps as u64)
            .int("reduces", reduces as u64)
            .finish(),
    }
}

/// The PR 3-style stress plan used by the `fault_stress` cell.
fn stress_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        task_fail_prob: 0.05,
        max_attempts: 6,
        node_crashes: vec![
            NodeCrash::transient(1, 40.0, 30.0),
            NodeCrash::transient(4, 90.0, 25.0),
        ],
        speculative: true,
        spec_fraction: 0.6,
        seed,
        ..FaultPlan::default()
    }
}

/// One timed iteration of a cell; records into `prof`.
fn run_once(spec: &CellSpec, prof: &Rc<SpanProfiler>) {
    let fw = sapred_core::Framework::new();
    match spec.kind {
        CellKind::Dispatch { n_queries, jobs, maps, reduces, traced } => {
            let queries = dispatch_workload(n_queries, jobs, maps, reduces);
            let mut cluster = fw.cluster;
            cluster.seed = spec.seed;
            let mut sim = Simulator::new(cluster, fw.cost, Swrd);
            let run = Run::new().profiler(&**prof);
            if traced {
                let mut sink = MetricsSink::new(cluster.total_containers());
                sim.execute(&queries, run.sink(&mut sink)).expect("bench cell runs");
            } else {
                sim.execute(&queries, run).expect("bench cell runs");
            }
        }
        CellKind::FaultStress { n_queries, jobs, maps, reduces } => {
            let queries = dispatch_workload(n_queries, jobs, maps, reduces);
            let mut cluster = fw.cluster;
            cluster.seed = spec.seed;
            let mut sim =
                Simulator::new(cluster, fw.cost, Swrd).with_faults(stress_plan(spec.seed));
            sim.execute(&queries, Run::new().profiler(&**prof)).expect("bench cell runs");
        }
        CellKind::Scale { n_queries, jobs, maps, reduces } => {
            let queries = dispatch_workload(n_queries, jobs, maps, reduces);
            let mut cluster = fw.cluster;
            cluster.seed = spec.seed;
            // FIFO keeps scheduler policy out of the measurement: at this
            // scale the cost is the event queue and the state columns.
            let mut sim = Simulator::new(cluster, fw.cost, Fifo);
            sim.execute(&queries, Run::new().profiler(&**prof)).expect("bench cell runs");
        }
    }
}

/// Nearest-rank quantile of a small sample (q in `[0, 1]`).
fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank.min(sorted.len()) - 1]
}

/// Run one cell: `iters` profiled iterations, counters checked for
/// cross-iteration identity, wall-clock percentiles and cell-specific
/// metrics derived from the last iteration's profiler.
pub fn run_cell(spec: &CellSpec) -> CellResult {
    assert!(spec.iters > 0, "cell {} has zero iterations", spec.name);
    let mut walls = Vec::with_capacity(spec.iters);
    let mut first_counters: Option<BTreeMap<String, u64>> = None;
    let mut deterministic = true;
    let mut last_prof = None;
    for _ in 0..spec.iters {
        let prof = Rc::new(SpanProfiler::new());
        let start = Instant::now();
        run_once(spec, &prof);
        walls.push(start.elapsed().as_secs_f64());
        let snapshot: BTreeMap<String, u64> =
            Counter::ALL.iter().map(|&c| (c.label().to_string(), prof.counter(c))).collect();
        match &first_counters {
            None => first_counters = Some(snapshot),
            Some(first) => deterministic &= *first == snapshot,
        }
        last_prof = Some(prof);
    }
    let prof = last_prof.expect("iters > 0");
    let counters = first_counters.expect("iters > 0");

    let mut metrics = BTreeMap::new();
    metrics.insert("wall_p50_s".into(), quantile(&walls, 0.50));
    metrics.insert("wall_p95_s".into(), quantile(&walls, 0.95));
    metrics.insert("wall_p99_s".into(), quantile(&walls, 0.99));
    metrics.insert("wall_min_s".into(), walls.iter().cloned().fold(f64::INFINITY, f64::min));
    // Throughput over the best iteration (least-noise estimate).
    let best = walls.iter().cloned().fold(f64::INFINITY, f64::min).max(1e-12);
    let events = counters.get(Counter::EventsProcessed.label()).copied().unwrap_or(0);
    metrics.insert("events_per_s".into(), events as f64 / best);
    match spec.kind {
        CellKind::Dispatch { .. } | CellKind::FaultStress { .. } => {
            let decisions = counters.get(Counter::DispatchDecisions.label()).copied().unwrap_or(0);
            metrics.insert("dispatch_decisions_per_s".into(), decisions as f64 / best);
        }
        CellKind::Scale { .. } => {
            let tasks = counters.get(Counter::TasksLaunched.label()).copied().unwrap_or(0);
            metrics.insert("tasks_per_s".into(), tasks as f64 / best);
        }
    }

    CellResult {
        name: spec.name.to_string(),
        seed: spec.seed,
        iters: spec.iters,
        deterministic: deterministic && prof.balanced(),
        config: config_json(&spec.kind),
        counters,
        wall_s: walls,
        metrics,
        error: None,
    }
}

/// The dispatch suite: dispatch throughput, tracing-on emission cost, and
/// fault-recovery throughput. Full shape uses the 200-query/10⁵-task
/// workload; `quick` keeps the cell names but shrinks every dimension.
pub fn dispatch_suite(quick: bool) -> Vec<CellSpec> {
    let (q, j, m, r, iters) = if quick { (30, 3, 10, 4, 2) } else { (200, 5, 80, 20, 3) };
    let dispatch =
        |traced| CellKind::Dispatch { n_queries: q, jobs: j, maps: m, reduces: r, traced };
    vec![
        CellSpec { name: "dispatch_incremental", kind: dispatch(false), iters, seed: 7 },
        CellSpec { name: "dispatch_traced", kind: dispatch(true), iters: 2, seed: 7 },
        CellSpec {
            name: "fault_stress",
            kind: if quick {
                CellKind::FaultStress { n_queries: 20, jobs: 3, maps: 10, reduces: 4 }
            } else {
                CellKind::FaultStress { n_queries: 120, jobs: 4, maps: 40, reduces: 10 }
            },
            iters: 2,
            seed: 11,
        },
    ]
}

/// The scale suite: the event core pushed to 10⁶ and 10⁷ tasks. Quick
/// shapes keep the names with ~10³× smaller workloads.
pub fn scale_suite(quick: bool) -> Vec<CellSpec> {
    let (small, large) = if quick {
        (
            CellKind::Scale { n_queries: 60, jobs: 3, maps: 20, reduces: 8 },
            CellKind::Scale { n_queries: 60, jobs: 3, maps: 40, reduces: 16 },
        )
    } else {
        (
            // 2000 × 5 × (80 + 20) = 1e6 tasks.
            CellKind::Scale { n_queries: 2000, jobs: 5, maps: 80, reduces: 20 },
            // 2000 × 5 × (800 + 200) = 1e7 tasks.
            CellKind::Scale { n_queries: 2000, jobs: 5, maps: 800, reduces: 200 },
        )
    };
    vec![
        CellSpec { name: "scale_1e6", kind: small, iters: 2, seed: 7 },
        CellSpec { name: "scale_1e7", kind: large, iters: 1, seed: 7 },
    ]
}

/// Run a suite's cells across `threads` workers (each cell runs whole on
/// one worker; cells are claimed from a shared index). Results come back
/// in suite order regardless of completion order; a panicking cell is
/// recorded as failed ([`CellResult::failed`]) without aborting the suite.
pub fn run_suite(specs: &[CellSpec], threads: usize) -> Vec<CellResult> {
    run_claiming(specs.len(), threads, |i| run_cell(&specs[i]))
        .into_iter()
        .zip(specs)
        .map(|(outcome, spec)| outcome.unwrap_or_else(|msg| CellResult::failed(spec, msg)))
        .collect()
}
