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
//!   (events/sec, admission-decision latency percentiles, per-stage
//!   pipeline seconds), which are compared against a threshold.
//!
//! Suites ([`dispatch_suite`], [`pipeline_suite`]) come in full and
//! `--quick` shapes; quick cells keep the full cells' names but smaller
//! configs, so a quick-vs-full comparison reports each cell as *skipped*
//! (config mismatch) rather than producing nonsense deltas.

use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use sapred_cluster::sched::{Fifo, Swrd};
use sapred_cluster::sim::{AdmissionConfig, DispatchMode, Run, Simulator};
use sapred_cluster::{FaultPlan, NodeCrash};
use sapred_core::parallel::run_claiming;
use sapred_core::telemetry::record_sim_outcomes;
use sapred_core::Pipeline;
use sapred_obs::json::Obj;
use sapred_obs::profile::Counter;
use sapred_obs::{MetricsSink, SpanProfiler};
use sapred_workload::population::PopulationConfig;

use crate::dispatch_workload;
use crate::fleet::{self, WorkloadSpec};

/// What one benchmark cell runs. All variants are deterministic at a fixed
/// seed: the dispatch workload is RNG-free, fault injection draws from the
/// plan's own seeded stream, and the pipeline seeds its data generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CellKind {
    /// Drive the dispatch-heavy simulator on the synthetic chained-DAG
    /// workload (SWRD scheduler). `traced` attaches a
    /// [`MetricsSink`] so the run also pays full event-emission cost.
    Dispatch {
        /// Incremental vs. from-scratch reference dispatch.
        mode: DispatchMode,
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
    /// Overload the admission layer (tight queue cap + deadline) and
    /// report admission-decision latency percentiles from the profiler's
    /// `admission_decision` span samples.
    AdmissionOverload {
        /// Queries × jobs × maps × reduces of the synthetic workload.
        n_queries: usize,
        /// Jobs per query.
        jobs: usize,
        /// Map tasks per job.
        maps: usize,
        /// Reduce tasks per job.
        reduces: usize,
        /// Bounded pending-queue capacity.
        queue_cap: usize,
        /// Per-query completion deadline (seconds of sim time).
        deadline: f64,
    },
    /// The full staged lifecycle — percolate → train → predict → simulate
    /// — on one TPC-H query, reporting per-stage seconds from the
    /// pipeline's stage spans. `traced` routes the simulation through a
    /// [`MetricsSink`] and adds the telemetry drift pass.
    PipelineEndToEnd {
        /// TPC-H scale (nominal GB) for the benched query.
        scale_gb: f64,
        /// Training-population size.
        train_queries: usize,
        /// Trace the simulation and run the drift pass.
        traced: bool,
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
    /// The scale cell with crash tolerance on: identical workload, plus a
    /// periodic `sapred-ckpt/v2` checkpoint of the full simulator state
    /// every `every` processed events, written atomically to a scratch
    /// path. Compared against `scale_1e6` it prices the
    /// engine's checkpoint overhead (serialize + fingerprint + staged
    /// write); the `checkpoint_bytes` counter pins the cadence and blob
    /// sizes as part of the determinism check.
    ScaleCheckpoint {
        /// Queries in the synthetic workload.
        n_queries: usize,
        /// Jobs per query (chained DAG).
        jobs: usize,
        /// Map tasks per job.
        maps: usize,
        /// Reduce tasks per job.
        reduces: usize,
        /// Checkpoint cadence in processed events.
        every: u64,
    },
    /// A whole fleet sweep ([`fleet::run_fleet`]) over the bench grid
    /// ([`fleet::bench_grid`]): `schedulers × fault_levels × admissions ×
    /// seeds` simulations of the synthetic workload, executed across
    /// `threads` workers (`0` = all cores). The headline metric is
    /// sims/sec; the aggregated engine counters (summed across cells in
    /// grid order, so they are thread-count-independent) pin determinism.
    Fleet {
        /// Schedulers swept (first N of the fixed roster).
        schedulers: usize,
        /// Fault levels swept (first N of the fixed severity ramp).
        fault_levels: usize,
        /// Admission configs swept (1 = off only, 2 = off + tight cap).
        admissions: usize,
        /// Seed replicas per configuration.
        seeds: usize,
        /// Queries per cell workload.
        n_queries: usize,
        /// Jobs per query.
        jobs: usize,
        /// Map tasks per job.
        maps: usize,
        /// Reduce tasks per job.
        reduces: usize,
        /// Fleet worker threads (`0` = all cores). Part of the config so a
        /// single-thread cell never gets force-compared against a
        /// parallel one.
        threads: usize,
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
}

fn mode_label(mode: DispatchMode) -> &'static str {
    match mode {
        DispatchMode::Incremental => "incremental",
        DispatchMode::Reference => "reference",
        DispatchMode::Crosscheck => "crosscheck",
    }
}

/// Canonical config JSON for a cell (the comparison join key, after name).
pub fn config_json(kind: &CellKind) -> String {
    match *kind {
        CellKind::Dispatch { mode, n_queries, jobs, maps, reduces, traced } => Obj::new()
            .str("kind", "dispatch")
            .str("mode", mode_label(mode))
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
        CellKind::AdmissionOverload { n_queries, jobs, maps, reduces, queue_cap, deadline } => {
            Obj::new()
                .str("kind", "admission_overload")
                .int("n_queries", n_queries as u64)
                .int("jobs", jobs as u64)
                .int("maps", maps as u64)
                .int("reduces", reduces as u64)
                .int("queue_cap", queue_cap as u64)
                .num("deadline", deadline)
                .finish()
        }
        CellKind::PipelineEndToEnd { scale_gb, train_queries, traced } => Obj::new()
            .str("kind", "pipeline_end_to_end")
            .num("scale_gb", scale_gb)
            .int("train_queries", train_queries as u64)
            .bool("traced", traced)
            .finish(),
        CellKind::Scale { n_queries, jobs, maps, reduces } => Obj::new()
            .str("kind", "scale")
            .int("n_queries", n_queries as u64)
            .int("jobs", jobs as u64)
            .int("maps", maps as u64)
            .int("reduces", reduces as u64)
            .finish(),
        CellKind::ScaleCheckpoint { n_queries, jobs, maps, reduces, every } => Obj::new()
            .str("kind", "scale_checkpoint")
            .int("n_queries", n_queries as u64)
            .int("jobs", jobs as u64)
            .int("maps", maps as u64)
            .int("reduces", reduces as u64)
            .int("checkpoint_every", every)
            .finish(),
        CellKind::Fleet {
            schedulers,
            fault_levels,
            admissions,
            seeds,
            n_queries,
            jobs,
            maps,
            reduces,
            threads,
        } => Obj::new()
            .str("kind", "fleet")
            .int("schedulers", schedulers as u64)
            .int("fault_levels", fault_levels as u64)
            .int("admissions", admissions as u64)
            .int("seeds", seeds as u64)
            .int("n_queries", n_queries as u64)
            .int("jobs", jobs as u64)
            .int("maps", maps as u64)
            .int("reduces", reduces as u64)
            .int("threads", threads as u64)
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
        CellKind::Dispatch { mode, n_queries, jobs, maps, reduces, traced } => {
            let queries = dispatch_workload(n_queries, jobs, maps, reduces);
            let mut cluster = fw.cluster;
            cluster.seed = spec.seed;
            let mut sim = Simulator::new(cluster, fw.cost, Swrd).with_dispatch(mode);
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
        CellKind::AdmissionOverload { n_queries, jobs, maps, reduces, queue_cap, deadline } => {
            let queries = dispatch_workload(n_queries, jobs, maps, reduces);
            let mut cluster = fw.cluster;
            cluster.seed = spec.seed;
            let admission = AdmissionConfig { queue_cap, deadline, ..AdmissionConfig::default() };
            let mut sim = Simulator::new(cluster, fw.cost, Swrd).with_admission(admission);
            sim.execute(&queries, Run::new().profiler(&**prof)).expect("bench cell runs");
        }
        CellKind::PipelineEndToEnd { scale_gb, train_queries, traced } => {
            let mut pipe = Pipeline::with_seed(spec.seed).with_profiler(Rc::clone(prof));
            let sql = "SELECT l_partkey, sum(l_extendedprice*l_discount) \
                       FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey \
                       WHERE l_shipdate >= '1994-01-01' AND l_shipdate < '1995-01-01' \
                       GROUP BY l_partkey";
            let semantics = pipe.percolate_sql("bench", sql, scale_gb).expect("valid bench query");
            let population = PopulationConfig {
                n_queries: train_queries,
                scales_gb: vec![0.5, 1.0],
                scale_out_gb: vec![],
                seed: spec.seed,
            };
            pipe.train(&population).expect("bench training fits");
            let q = pipe.sim_query("bench", 0.0, &semantics, scale_gb);
            let queries = std::slice::from_ref(&q);
            let run = Run::new().profiler(&**prof);
            if traced {
                let mut sink = MetricsSink::new(pipe.framework().cluster.total_containers());
                let report = pipe
                    .simulate(pipe.simulator(Swrd), queries, run.sink(&mut sink))
                    .expect("bench simulation runs")
                    .into_report();
                let cluster = pipe.framework().cluster;
                record_sim_outcomes(queries, &report, &cluster, &mut sink, &**prof);
            } else {
                pipe.simulate(pipe.simulator(Swrd), queries, run).expect("bench simulation runs");
            }
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
        CellKind::ScaleCheckpoint { n_queries, jobs, maps, reduces, every } => {
            let queries = dispatch_workload(n_queries, jobs, maps, reduces);
            let mut cluster = fw.cluster;
            cluster.seed = spec.seed;
            let path = std::env::temp_dir().join(format!(
                "sapred-bench-ckpt-{}-{}.bin",
                std::process::id(),
                spec.seed
            ));
            let mut sim =
                Simulator::new(cluster, fw.cost, Fifo).checkpoint_every_events(every, &path);
            sim.execute(&queries, Run::new().profiler(&**prof)).expect("bench cell runs");
            let _ = std::fs::remove_file(&path);
        }
        CellKind::Fleet {
            schedulers,
            fault_levels,
            admissions,
            seeds,
            n_queries,
            jobs,
            maps,
            reduces,
            threads,
        } => {
            let workload = WorkloadSpec::uniform(n_queries, jobs, maps, reduces);
            let grid =
                fleet::bench_grid(schedulers, fault_levels, admissions, seeds, workload, spec.seed);
            let report = fleet::run_fleet(&grid, threads).expect("bench fleet grid is valid");
            fleet::record_fleet(&report, &**prof);
        }
    }
}

/// Nearest-rank quantile of a small sample (q in `[0, 1]`).
pub(crate) fn quantile(samples: &[f64], q: f64) -> f64 {
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
        let mut snapshot: BTreeMap<String, u64> =
            Counter::ALL.iter().map(|&c| (c.label().to_string(), prof.counter(c))).collect();
        // Samples dropped past the span sample cap: deterministic for a
        // deterministic cell, so it participates in the identity check and
        // surfaces percentile truncation in the baseline comparison.
        snapshot.insert("span_samples_dropped".to_string(), prof.total_samples_dropped());
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
        CellKind::Scale { .. } | CellKind::ScaleCheckpoint { .. } => {
            let tasks = counters.get(Counter::TasksLaunched.label()).copied().unwrap_or(0);
            metrics.insert("tasks_per_s".into(), tasks as f64 / best);
        }
        CellKind::AdmissionOverload { .. } => {
            if let Some(stat) = prof.span_stat("admission_decision") {
                for (label, q) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)] {
                    metrics
                        .insert(format!("admission_{label}_s"), stat.quantile_ns(q) as f64 / 1e9);
                }
            }
        }
        CellKind::PipelineEndToEnd { .. } => {
            for stage in ["percolate", "train", "predict", "simulate", "drift_pass"] {
                if let Some(stat) = prof.span_stat(stage) {
                    metrics.insert(format!("stage_{stage}_s"), stat.total_ns as f64 / 1e9);
                }
            }
        }
        CellKind::Fleet { .. } => {
            let run = counters.get(Counter::FleetCellsRun.label()).copied().unwrap_or(0);
            let failed = counters.get(Counter::FleetCellsFailed.label()).copied().unwrap_or(0);
            metrics.insert("sims_per_s".into(), (run + failed) as f64 / best);
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

/// The dispatch suite: incremental vs. reference dispatch throughput,
/// tracing-on emission cost, fault-recovery throughput, and admission
/// latency. Full shape uses the 200-query/10⁵-task workload; `quick`
/// keeps the cell names but shrinks every dimension.
pub fn dispatch_suite(quick: bool) -> Vec<CellSpec> {
    let (q, j, m, r, iters) = if quick { (30, 3, 10, 4, 2) } else { (200, 5, 80, 20, 3) };
    let dispatch = |mode, traced| CellKind::Dispatch {
        mode,
        n_queries: q,
        jobs: j,
        maps: m,
        reduces: r,
        traced,
    };
    vec![
        CellSpec {
            name: "dispatch_incremental",
            kind: dispatch(DispatchMode::Incremental, false),
            iters,
            seed: 7,
        },
        CellSpec {
            name: "dispatch_reference",
            kind: dispatch(DispatchMode::Reference, false),
            iters: 2,
            seed: 7,
        },
        CellSpec {
            name: "dispatch_traced",
            kind: dispatch(DispatchMode::Incremental, true),
            iters: 2,
            seed: 7,
        },
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
        CellSpec {
            name: "admission_overload",
            kind: if quick {
                CellKind::AdmissionOverload {
                    n_queries: 30,
                    jobs: 3,
                    maps: 10,
                    reduces: 4,
                    queue_cap: 4,
                    deadline: 200.0,
                }
            } else {
                CellKind::AdmissionOverload {
                    n_queries: 150,
                    jobs: 3,
                    maps: 30,
                    reduces: 8,
                    queue_cap: 12,
                    deadline: 400.0,
                }
            },
            iters: 2,
            seed: 13,
        },
    ]
}

/// The pipeline suite: end-to-end staged lifecycle wall time, plain and
/// traced (with the telemetry drift pass).
pub fn pipeline_suite(quick: bool) -> Vec<CellSpec> {
    let kind = |traced| {
        if quick {
            CellKind::PipelineEndToEnd { scale_gb: 0.5, train_queries: 24, traced }
        } else {
            CellKind::PipelineEndToEnd { scale_gb: 2.0, train_queries: 60, traced }
        }
    };
    vec![
        CellSpec { name: "pipeline_end_to_end", kind: kind(false), iters: 2, seed: 7 },
        CellSpec { name: "pipeline_traced", kind: kind(true), iters: 2, seed: 7 },
    ]
}

/// The scale suite: the event core pushed to 10⁶ and 10⁷ tasks, plus the
/// 10⁶ shape with periodic checkpoints to price crash tolerance. Quick
/// shapes keep the names with ~10³× smaller workloads.
pub fn scale_suite(quick: bool) -> Vec<CellSpec> {
    let (small, large, ckpt) = if quick {
        (
            CellKind::Scale { n_queries: 60, jobs: 3, maps: 20, reduces: 8 },
            CellKind::Scale { n_queries: 60, jobs: 3, maps: 40, reduces: 16 },
            CellKind::ScaleCheckpoint {
                n_queries: 60,
                jobs: 3,
                maps: 20,
                reduces: 8,
                every: 5_000,
            },
        )
    } else {
        (
            // 2000 × 5 × (80 + 20) = 1e6 tasks.
            CellKind::Scale { n_queries: 2000, jobs: 5, maps: 80, reduces: 20 },
            // 2000 × 5 × (800 + 200) = 1e7 tasks.
            CellKind::Scale { n_queries: 2000, jobs: 5, maps: 800, reduces: 200 },
            // The 1e6 workload checkpointing the full engine state twice
            // over its ~1e6 events.
            CellKind::ScaleCheckpoint {
                n_queries: 2000,
                jobs: 5,
                maps: 80,
                reduces: 20,
                every: 500_000,
            },
        )
    };
    vec![
        CellSpec { name: "scale_1e6", kind: small, iters: 2, seed: 7 },
        CellSpec { name: "scale_1e6_ckpt", kind: ckpt, iters: 2, seed: 7 },
        CellSpec { name: "scale_1e7", kind: large, iters: 1, seed: 7 },
    ]
}

/// The fleet suite: the same fleet sweep run in parallel (threads = all
/// cores) and pinned to one thread, so the baseline comparison catches both
/// a throughput regression and any parallel/serial counter divergence. The
/// headline metric is sims/sec.
pub fn fleet_suite(quick: bool) -> Vec<CellSpec> {
    let kind = |threads| {
        if quick {
            CellKind::Fleet {
                schedulers: 2,
                fault_levels: 2,
                admissions: 2,
                seeds: 2,
                n_queries: 10,
                jobs: 2,
                maps: 6,
                reduces: 2,
                threads,
            }
        } else {
            CellKind::Fleet {
                schedulers: 3,
                fault_levels: 3,
                admissions: 2,
                seeds: 3,
                n_queries: 30,
                jobs: 3,
                maps: 12,
                reduces: 4,
                threads,
            }
        }
    };
    vec![
        CellSpec { name: "fleet_parallel", kind: kind(0), iters: 2, seed: 17 },
        CellSpec { name: "fleet_single_thread", kind: kind(1), iters: 2, seed: 17 },
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
