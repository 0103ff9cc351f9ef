//! Fleet simulation: a declarative grid of (workload × scheduler × fault
//! plan × estimator × seed) simulations executed across all cores, with
//! deterministic per-cell seeding and a cross-simulation aggregation
//! layer.
//!
//! The paper's evaluation (Fig. 8, Tables 3–5) is exactly this shape of
//! study: the same workload swept across scheduler families and
//! configurations, thousands of cells deep once fault plans and seed
//! replicas are added. One [`FleetGrid`] names each axis once;
//! [`FleetGrid::coords`] expands the cross product in a fixed order, and
//! [`run_fleet`] executes the cells on the same panic-isolated claiming
//! loop the bench harness uses ([`sapred_core::parallel::run_claiming`]).
//!
//! # Determinism contract
//!
//! The aggregate report ([`FleetReport::to_json`]) is **bit-identical for
//! the same grid at any worker-thread count**:
//!
//! * every cell's RNG seed is derived from the cell's *coordinate* — an
//!   FNV-1a hash over its label ([`FleetGrid::cell_seed`]) — never from a
//!   worker id, claim order, or global counter,
//! * the fault stream gets an independent salted seed
//!   ([`FleetGrid::cell_fault_plan`]), mirroring how the engine keeps
//!   duration noise and fault sampling separate,
//! * results are collected by cell index and aggregated in grid order, so
//!   completion order cannot reorder anything,
//! * the report carries simulated time and counts only — no wall-clock, no
//!   thread count, no environment fingerprint. Wall-clock throughput
//!   (sims/sec) belongs to the bench suite (`BENCH_fleet.json`), not here.
//!
//! The aggregation layer reduces per-cell [`CellSummary`]s into:
//!
//! * **percentile surfaces** — per (scheduler × fault level), percentiles
//!   of makespan and mean response across all workloads, estimators, and
//!   seeds ([`FleetReport::surfaces`]),
//! * **crossover detection** — the first fault level at which the
//!   reference scheduler (the first one listed; put SWRD first) flips from
//!   beating another scheduler to losing to it, or vice versa
//!   ([`FleetReport::crossovers`]).

use sapred_cluster::job::SimQuery;
use sapred_cluster::sched::{Fifo, Hcs, Hfs, Scheduler, Srt, Swrd};
use sapred_cluster::sim::{CellSummary, Run, SimReport, Simulator};
use sapred_cluster::FaultPlan;
use sapred_core::parallel::{available_threads, run_claiming};
use sapred_obs::fnv1a;
use sapred_obs::json::{array, num, quoted, Obj, Value};
use sapred_obs::profile::{Counter, Profiler};
use sapred_obs::SpanProfiler;
use sapred_plan::ground_truth::execute_dag;
use sapred_relation::gen::{generate, GenConfig, KeyDist};
use sapred_selectivity::EstimatorKind;

use crate::dispatch_workload;
use crate::harness::quantile;

/// Schema tag of the aggregate fleet report.
pub const FLEET_SCHEMA: &str = "sapred-fleet/v2";

/// Salt XORed into a cell's seed to derive its fault-stream seed, so the
/// duration-noise and fault-sampling streams never collide even though both
/// descend from the same coordinate hash.
pub const FAULT_SEED_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// The scheduler families a fleet can sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedKind {
    /// Semantics-aware weighted-resource-demand scheduling (the paper's).
    Swrd,
    /// Hadoop Capacity Scheduler stand-in.
    Hcs,
    /// Hadoop Fair Scheduler stand-in.
    Hfs,
    /// First-in-first-out.
    Fifo,
    /// Shortest remaining time.
    Srt,
}

impl SchedKind {
    /// Every scheduler, in the roster order the bench grid truncates.
    pub const ALL: [SchedKind; 5] =
        [SchedKind::Swrd, SchedKind::Hcs, SchedKind::Hfs, SchedKind::Fifo, SchedKind::Srt];

    /// Stable label used in coordinates, reports, and CLI flags.
    pub fn label(self) -> &'static str {
        match self {
            SchedKind::Swrd => "swrd",
            SchedKind::Hcs => "hcs",
            SchedKind::Hfs => "hfs",
            SchedKind::Fifo => "fifo",
            SchedKind::Srt => "srt",
        }
    }

    /// Parse a CLI/grid-file scheduler name.
    pub fn parse(s: &str) -> Result<Self, String> {
        SchedKind::ALL
            .into_iter()
            .find(|k| k.label() == s)
            .ok_or_else(|| format!("unknown scheduler `{s}` (expected swrd|hcs|hfs|fifo|srt)"))
    }
}

/// One workload shape. At `skew == 0.0` (the default) this is the RNG-free
/// chained-DAG stress workload of [`dispatch_workload`] at these dimensions.
/// With `skew > 0.0` — or whenever a cell's estimator is not the default
/// histogram path — the fleet instead *percolates* a join-heavy SQL workload
/// over a small generated database whose join keys follow a Zipf(`skew`)
/// distribution, so estimator quality feeds the schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Number of queries.
    pub n_queries: usize,
    /// Jobs per query (chained DAG).
    pub jobs: usize,
    /// Map tasks per job.
    pub maps: usize,
    /// Reduce tasks per job.
    pub reduces: usize,
    /// Zipf exponent of the generated join keys (`0.0` = uniform and keeps
    /// the legacy dispatch workload; only the percolated path reads it).
    pub skew: f64,
}

impl WorkloadSpec {
    /// The legacy uniform shape (dispatch workload, no skew).
    pub fn uniform(n_queries: usize, jobs: usize, maps: usize, reduces: usize) -> Self {
        Self { n_queries, jobs, maps, reduces, skew: 0.0 }
    }

    /// Stable coordinate label, e.g. `q20x3x10x4` (and `q20x3x10x4z1.1` when
    /// skewed — the suffix is omitted at `0.0` so legacy grids keep their
    /// historical labels, hence their cell seeds).
    pub fn label(&self) -> String {
        let mut label = format!("q{}x{}x{}x{}", self.n_queries, self.jobs, self.maps, self.reduces);
        if self.skew > 0.0 {
            label.push_str(&format!("z{}", self.skew));
        }
        label
    }
}

/// One fault severity level: a transient task-failure probability (`0.0` is
/// the fault-free plan).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultLevel {
    /// Per-attempt task failure probability.
    pub task_fail_prob: f64,
}

impl FaultLevel {
    /// Stable coordinate label, e.g. `p0.05`.
    pub fn label(&self) -> String {
        format!("p{}", self.task_fail_prob)
    }
}

/// The declarative fleet grid: one list per axis; [`FleetGrid::coords`]
/// expands the full cross product.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetGrid {
    /// Workload shapes.
    pub workloads: Vec<WorkloadSpec>,
    /// Scheduler families. The first is the crossover-detection reference.
    pub schedulers: Vec<SchedKind>,
    /// Fault severity levels, in rising-severity order (crossover detection
    /// walks them in this order).
    pub faults: Vec<FaultLevel>,
    /// Cardinality estimators feeding the percolated predictions. The
    /// default-histogram-only axis keeps the legacy dispatch workload; any
    /// other entry switches its cells to the percolated SQL workload.
    pub estimators: Vec<EstimatorKind>,
    /// Seed replicas. Each seed value feeds the coordinate hash, so
    /// identical values produce identical cells.
    pub seeds: Vec<u64>,
}

/// One cell's coordinate: indices into the grid's axes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetCoord {
    /// Index into [`FleetGrid::workloads`].
    pub workload: usize,
    /// Index into [`FleetGrid::schedulers`].
    pub sched: usize,
    /// Index into [`FleetGrid::faults`].
    pub fault: usize,
    /// Index into [`FleetGrid::estimators`].
    pub estimator: usize,
    /// Index into [`FleetGrid::seeds`].
    pub seed: usize,
}

impl FleetGrid {
    /// Number of cells the grid expands into.
    pub fn n_cells(&self) -> usize {
        self.workloads.len()
            * self.schedulers.len()
            * self.faults.len()
            * self.estimators.len()
            * self.seeds.len()
    }

    /// Expand the cross product in fixed axis order (workload outermost,
    /// seed innermost). This order — not completion order — is the order of
    /// everything downstream: cell indices, report rows, aggregation.
    pub fn coords(&self) -> Vec<FleetCoord> {
        let mut out = Vec::with_capacity(self.n_cells());
        for workload in 0..self.workloads.len() {
            for sched in 0..self.schedulers.len() {
                for fault in 0..self.faults.len() {
                    for estimator in 0..self.estimators.len() {
                        for seed in 0..self.seeds.len() {
                            out.push(FleetCoord { workload, sched, fault, estimator, seed });
                        }
                    }
                }
            }
        }
        out
    }

    /// Human-readable coordinate label; also the FNV-1a preimage of the
    /// cell's seed, so it must be a pure function of the coordinate.
    pub fn coord_label(&self, c: &FleetCoord) -> String {
        // The default histogram estimator leaves no trace in the label so
        // legacy single-estimator grids hash to their historical seeds.
        let est = match self.estimators[c.estimator] {
            EstimatorKind::Histogram => String::new(),
            other => format!("|est={}", other.label()),
        };
        // `adm=off` is the label every cell carried while the grid had an
        // admission-control axis; keeping it keeps each cell's seed, and
        // with it each cell's results, the same.
        format!(
            "wl={}|sched={}|fault={}|adm=off{est}|seed={}",
            self.workloads[c.workload].label(),
            self.schedulers[c.sched].label(),
            self.faults[c.fault].label(),
            self.seeds[c.seed],
        )
    }

    /// Deterministic per-cell seed: FNV-1a over the coordinate label.
    /// Independent of worker count, claim order, and cell index, so adding
    /// a row to one axis never reseeds the cells of another.
    pub fn cell_seed(&self, c: &FleetCoord) -> u64 {
        fnv1a(self.coord_label(c).as_bytes())
    }

    /// The cell's fault plan: the level's failure probability on a salted
    /// seed of its own (fault sampling and duration noise descend from the
    /// same coordinate hash but never share a stream).
    pub fn cell_fault_plan(&self, c: &FleetCoord) -> FaultPlan {
        FaultPlan {
            task_fail_prob: self.faults[c.fault].task_fail_prob,
            seed: self.cell_seed(c) ^ FAULT_SEED_SALT,
            ..FaultPlan::default()
        }
    }

    /// The cell's cardinality estimator.
    pub fn cell_estimator(&self, c: &FleetCoord) -> EstimatorKind {
        self.estimators[c.estimator]
    }

    /// Seed of the cell's generated *database* (percolated workloads only):
    /// derived from the workload shape and seed replica alone, so every
    /// scheduler / fault / estimator cell of the same (workload, seed)
    /// pair sees the same data and their results stay
    /// comparable.
    pub fn cell_db_seed(&self, c: &FleetCoord) -> u64 {
        fnv1a(
            format!("wl={}|seed={}", self.workloads[c.workload].label(), self.seeds[c.seed])
                .as_bytes(),
        )
    }

    /// Canonical JSON of the grid: the `grid` object embedded in the fleet
    /// report, which `--grid` replays, so it must stay a pure function of
    /// the grid's axes.
    pub fn to_json(&self) -> String {
        let workloads = array(self.workloads.iter().map(|w| {
            Obj::new()
                .int("n_queries", w.n_queries as u64)
                .int("jobs", w.jobs as u64)
                .int("maps", w.maps as u64)
                .int("reduces", w.reduces as u64)
                .num("skew", w.skew)
                .finish()
        }));
        Obj::new()
            .raw("workloads", &workloads)
            .raw("schedulers", &array(self.schedulers.iter().map(|s| quoted(s.label()))))
            .raw("fault_levels", &array(self.faults.iter().map(|f| num(f.task_fail_prob))))
            .raw("estimators", &array(self.estimators.iter().map(|e| quoted(e.label()))))
            // Past 2^53 a JSON reader's f64 would round a bare seed.
            .raw(
                "seeds",
                &array(self.seeds.iter().map(|s| {
                    if *s > 1 << 53 {
                        quoted(&s.to_string())
                    } else {
                        s.to_string()
                    }
                })),
            )
            .finish()
    }

    /// Parse the format [`FleetGrid::to_json`] writes, so a previous run's
    /// `grid` object can be replayed: `workloads` (objects with
    /// `n_queries`/`jobs`/`maps`/`reduces` and optional `skew`),
    /// `schedulers` (names), `fault_levels` (failure probabilities),
    /// optional `estimators` (names; defaults to `["histogram"]`), and
    /// `seeds` (numbers, or strings for seeds past 2^53).
    ///
    /// # Errors
    /// Returns a message naming the first malformed field. A grid with an
    /// `admissions` axis (a `sapred-fleet/v1` grid) is refused rather than
    /// replayed as a different grid.
    pub fn from_json(text: &str) -> Result<FleetGrid, String> {
        let doc = sapred_obs::json::parse(text)?;
        if doc.get("admissions").is_some() {
            return Err("grid field \"admissions\" is not supported: the fleet has no \
                        admission-control axis (a sapred-fleet/v1 grid cannot be replayed)"
                .into());
        }
        // Each element of array `key` through `f`, errors naming the element.
        fn each<T>(
            doc: &Value,
            key: &str,
            f: impl Fn(&Value, &str) -> Result<T, String>,
        ) -> Result<Vec<T>, String> {
            let items = doc.get(key).and_then(Value::as_arr);
            let items = items.ok_or(format!("missing array field {key:?}"))?;
            items.iter().enumerate().map(|(i, v)| f(v, &format!("{key}[{i}]"))).collect()
        }
        let whole_num = |v: &Value| v.as_num().filter(|n| n.fract() == 0.0 && *n >= 0.0);
        let whole = |v: &Value, key: &str, at: &str| {
            let n = v.get(key).and_then(whole_num);
            n.map(|n| n as usize).ok_or(format!("{at}: {key:?} must be a whole number"))
        };
        // A number, with `null` or absence meaning `default`.
        let number_or = |v: &Value, key: &str, at: &str, default: f64| match v.get(key) {
            None | Some(Value::Null) => Ok(default),
            Some(n) => n.as_num().ok_or(format!("{at}: {key:?} must be a number or null")),
        };
        fn name<'a>(v: &'a Value, at: &str) -> Result<&'a str, String> {
            v.as_str().ok_or(format!("{at} must be a string"))
        }

        let workloads = each(&doc, "workloads", |w, at| {
            Ok(WorkloadSpec {
                n_queries: whole(w, "n_queries", at)?,
                jobs: whole(w, "jobs", at)?,
                maps: whole(w, "maps", at)?,
                reduces: whole(w, "reduces", at)?,
                skew: number_or(w, "skew", at, 0.0)?,
            })
        })?;
        let schedulers = each(&doc, "schedulers", |s, at| SchedKind::parse(name(s, at)?))?;
        let faults = each(&doc, "fault_levels", |f, at| {
            let task_fail_prob = f.as_num().ok_or(format!("{at} must be a number"))?;
            Ok(FaultLevel { task_fail_prob })
        })?;
        let mut estimators = match doc.get("estimators").and_then(Value::as_arr) {
            Some(_) => each(&doc, "estimators", |e, at| EstimatorKind::parse(name(e, at)?))?,
            None => Vec::new(),
        };
        if estimators.is_empty() {
            estimators.push(EstimatorKind::Histogram);
        }
        let seeds = each(&doc, "seeds", |s, at| {
            let seed = match s {
                Value::Str(text) => text.parse::<u64>().ok(),
                v => whole_num(v).map(|n| n as u64),
            };
            seed.ok_or(format!("{at} must be a u64"))
        })?;
        Ok(FleetGrid { workloads, schedulers, faults, estimators, seeds })
    }

    /// Check the grid before running it: every axis non-empty, every
    /// workload dimension non-zero, every fault level valid for the
    /// engine.
    pub fn validate(&self) -> Result<(), String> {
        if self.workloads.is_empty() {
            return Err("fleet grid needs at least one workload".into());
        }
        if self.schedulers.is_empty() {
            return Err("fleet grid needs at least one scheduler".into());
        }
        if self.faults.is_empty() {
            return Err("fleet grid needs at least one fault level".into());
        }
        if self.estimators.is_empty() {
            return Err("fleet grid needs at least one estimator".into());
        }
        if self.seeds.is_empty() {
            return Err("fleet grid needs at least one seed".into());
        }
        for w in &self.workloads {
            if w.n_queries == 0 || w.jobs == 0 || w.maps == 0 {
                return Err(format!("workload {} needs queries, jobs, and maps > 0", w.label()));
            }
            if !w.skew.is_finite() || w.skew < 0.0 {
                return Err(format!("workload {} needs a finite skew >= 0", w.label()));
            }
        }
        let nodes = sapred_core::Framework::new().cluster.nodes;
        for (i, f) in self.faults.iter().enumerate() {
            FaultPlan { task_fail_prob: f.task_fail_prob, ..FaultPlan::default() }
                .validate(nodes)
                .map_err(|e| format!("fault level {i} ({}): {e}", f.label()))?;
        }
        Ok(())
    }
}

/// One executed cell: its coordinate, derived seed, and either the
/// simulation's summary or the panic message that killed it.
#[derive(Debug, Clone)]
pub struct FleetCell {
    /// Coordinate in the grid.
    pub coord: FleetCoord,
    /// Coordinate label (the seed's FNV-1a preimage).
    pub label: String,
    /// Derived per-cell seed.
    pub cell_seed: u64,
    /// Simulation summary, or the error that prevented one.
    pub outcome: Result<CellSummary, String>,
    /// Hot-path counters of the cell's own simulation run (all zero for a
    /// failed cell), in [`Counter::ALL`] order.
    pub counters: [u64; Counter::ALL.len()],
}

/// The fleet run's full result: per-cell outcomes in grid order plus the
/// aggregation layer over them.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// The grid that was run.
    pub grid: FleetGrid,
    /// One entry per cell, in [`FleetGrid::coords`] order.
    pub cells: Vec<FleetCell>,
}

/// One point of the per-(scheduler × fault level) percentile surface.
#[derive(Debug, Clone, PartialEq)]
pub struct SurfacePoint {
    /// Scheduler label.
    pub sched: String,
    /// Fault-level label.
    pub fault: String,
    /// Cells aggregated into this point.
    pub n_cells: usize,
    /// Mean of cell makespans.
    pub makespan_mean: f64,
    /// Nearest-rank percentiles of cell makespans.
    pub makespan_p50: f64,
    /// 95th percentile of cell makespans.
    pub makespan_p95: f64,
    /// 99th percentile of cell makespans.
    pub makespan_p99: f64,
    /// Mean of cell mean response times.
    pub response_mean: f64,
    /// Nearest-rank percentiles of cell mean response times.
    pub response_p50: f64,
    /// 95th percentile of cell mean responses.
    pub response_p95: f64,
    /// 99th percentile of cell mean responses.
    pub response_p99: f64,
}

/// A detected scheduler crossover: the first fault level where the sign of
/// (reference − other) mean response flips relative to the first decided
/// fault level.
#[derive(Debug, Clone, PartialEq)]
pub struct Crossover {
    /// Reference scheduler (the grid's first).
    pub reference: String,
    /// Scheduler it crosses.
    pub other: String,
    /// Fault level at which the ordering flips.
    pub fault: String,
    /// Reference scheduler's mean response at that level.
    pub reference_mean: f64,
    /// Other scheduler's mean response at that level.
    pub other_mean: f64,
}

impl FleetReport {
    /// Cells that ran to completion.
    pub fn completed(&self) -> usize {
        self.cells.iter().filter(|c| c.outcome.is_ok()).count()
    }

    /// Cells that panicked or failed validation.
    pub fn failed(&self) -> usize {
        self.cells.len() - self.completed()
    }

    /// Aggregate a hot-path counter across cells: summed, except the
    /// high-water mark [`Counter::QueuePeakDepth`], which takes the max.
    pub fn counter_aggregate(&self, counter: Counter) -> u64 {
        let values = self.cells.iter().map(|c| c.counters[counter as usize]);
        match counter {
            Counter::QueuePeakDepth => values.max().unwrap_or(0),
            _ => values.sum(),
        }
    }

    fn group<'a>(
        &'a self,
        pick: impl Fn(&FleetCoord) -> bool + 'a,
    ) -> impl Iterator<Item = &'a CellSummary> + 'a {
        self.cells.iter().filter(move |c| pick(&c.coord)).filter_map(|c| c.outcome.as_ref().ok())
    }

    /// Per-(scheduler × fault level) percentile surface, in grid order.
    pub fn surfaces(&self) -> Vec<SurfacePoint> {
        let mut out = Vec::new();
        for (si, sched) in self.grid.schedulers.iter().enumerate() {
            for (fi, fault) in self.grid.faults.iter().enumerate() {
                let summaries: Vec<&CellSummary> =
                    self.group(|c| c.sched == si && c.fault == fi).collect();
                if summaries.is_empty() {
                    continue;
                }
                let makespans: Vec<f64> = summaries.iter().map(|s| s.makespan).collect();
                let responses: Vec<f64> = summaries.iter().map(|s| s.mean_response).collect();
                let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
                out.push(SurfacePoint {
                    sched: sched.label().to_string(),
                    fault: fault.label(),
                    n_cells: summaries.len(),
                    makespan_mean: mean(&makespans),
                    makespan_p50: quantile(&makespans, 0.50),
                    makespan_p95: quantile(&makespans, 0.95),
                    makespan_p99: quantile(&makespans, 0.99),
                    response_mean: mean(&responses),
                    response_p50: quantile(&responses, 0.50),
                    response_p95: quantile(&responses, 0.95),
                    response_p99: quantile(&responses, 0.99),
                });
            }
        }
        out
    }

    /// Crossovers of the reference scheduler (the grid's first) against
    /// every other scheduler, walking fault levels in grid order. A
    /// crossover is the first level whose (reference − other) mean-response
    /// sign differs from the first decided level's sign — e.g. SWRD beating
    /// HCS fault-free but losing once the failure rate climbs.
    pub fn crossovers(&self) -> Vec<Crossover> {
        let mut out = Vec::new();
        if self.grid.schedulers.len() < 2 {
            return out;
        }
        let mean_response = |sched: usize, fault: usize| -> Option<f64> {
            let v: Vec<f64> = self
                .group(|c| c.sched == sched && c.fault == fault)
                .map(|s| s.mean_response)
                .collect();
            if v.is_empty() {
                None
            } else {
                Some(v.iter().sum::<f64>() / v.len() as f64)
            }
        };
        for other in 1..self.grid.schedulers.len() {
            let mut baseline_sign = 0.0f64;
            for (fi, fault) in self.grid.faults.iter().enumerate() {
                let (Some(r), Some(o)) = (mean_response(0, fi), mean_response(other, fi)) else {
                    continue;
                };
                let sign = (r - o).signum();
                if sign == 0.0 {
                    continue;
                }
                if baseline_sign == 0.0 {
                    baseline_sign = sign;
                } else if sign != baseline_sign {
                    out.push(Crossover {
                        reference: self.grid.schedulers[0].label().to_string(),
                        other: self.grid.schedulers[other].label().to_string(),
                        fault: fault.label(),
                        reference_mean: r,
                        other_mean: o,
                    });
                    break;
                }
            }
        }
        out
    }

    /// Serialize the aggregate report. Bit-identical for the same grid at
    /// any thread count: simulated time and counts only, iterated in grid
    /// order (see the module docs for the full contract).
    pub fn to_json(&self) -> String {
        let grid_json = self.grid.to_json();

        let counters = Counter::ALL
            .iter()
            .fold(Obj::new(), |obj, &c| obj.int(c.label(), self.counter_aggregate(c)))
            .finish();

        let cells = array(self.cells.iter().map(|cell| {
            let base = Obj::new().str("label", &cell.label).int("cell_seed", cell.cell_seed);
            match &cell.outcome {
                Ok(s) => base
                    .int("n_queries", s.n_queries as u64)
                    .int("n_failed", s.n_failed as u64)
                    .num("makespan", s.makespan)
                    .num("mean_response", s.mean_response)
                    .num("p50_response", s.p50_response)
                    .num("p95_response", s.p95_response)
                    .num("p99_response", s.p99_response)
                    .int("total_tasks", s.total_tasks as u64)
                    .int("total_attempts", s.total_attempts as u64)
                    .int("task_failures", s.task_failures as u64)
                    .int("node_crashes", s.node_crashes as u64)
                    .finish(),
                Err(e) => base.str("error", e).finish(),
            }
        }));

        let surfaces = array(self.surfaces().iter().map(|p| {
            Obj::new()
                .str("sched", &p.sched)
                .str("fault", &p.fault)
                .int("n_cells", p.n_cells as u64)
                .num("makespan_mean", p.makespan_mean)
                .num("makespan_p50", p.makespan_p50)
                .num("makespan_p95", p.makespan_p95)
                .num("makespan_p99", p.makespan_p99)
                .num("response_mean", p.response_mean)
                .num("response_p50", p.response_p50)
                .num("response_p95", p.response_p95)
                .num("response_p99", p.response_p99)
                .finish()
        }));

        let crossovers = array(self.crossovers().iter().map(|x| {
            Obj::new()
                .str("reference", &x.reference)
                .str("other", &x.other)
                .str("fault", &x.fault)
                .num("reference_mean", x.reference_mean)
                .num("other_mean", x.other_mean)
                .finish()
        }));

        Obj::new()
            .str("schema", FLEET_SCHEMA)
            .raw("grid", &grid_json)
            .int("n_cells", self.cells.len() as u64)
            .int("completed", self.completed() as u64)
            .int("failed", self.failed() as u64)
            .raw("counters", &counters)
            .raw("cells", &cells)
            .raw("surfaces", &surfaces)
            .raw("crossovers", &crossovers)
            .finish()
    }
}

/// The SQL templates the percolated workload rotates through. The first is
/// the skew-critical one: lineitem ⋈ partsupp on `partkey`, where *both*
/// sides follow the generator's Zipf key distribution, so equi-width
/// histograms smear the hot keys while the sampling and path-statistics
/// estimators see them.
const PERCOLATED_QUERIES: &[&str] = &[
    "SELECT l_quantity, ps_availqty FROM lineitem l \
     JOIN partsupp ps ON l.l_partkey = ps.ps_partkey",
    "SELECT l_quantity, p_size FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey \
     WHERE p_size < 10 AND l_shipdate < 1200",
    "SELECT o_totalprice, p_size FROM lineitem l \
     JOIN orders o ON l.l_orderkey = o.o_orderkey \
     JOIN part p ON l.l_partkey = p.p_partkey \
     WHERE o_orderdate < 1500",
    "SELECT l_partkey, sum(l_extendedprice) FROM lineitem \
     WHERE l_shipdate < 1200 GROUP BY l_partkey",
];

/// Scale (GB) of the per-cell generated database on the percolated path.
/// Small on purpose: the generator's row floors keep the joins non-trivial
/// while one cell's generation + percolation stays well under a second.
const PERCOLATED_SCALE_GB: f64 = 0.05;

/// Arrival cadence of the percolated queries (same as [`dispatch_workload`]).
const PERCOLATED_ARRIVAL_STEP: f64 = 0.37;

/// The percolated SQL workload of a cell: generate a Zipf(`skew`) database
/// seeded by [`FleetGrid::cell_db_seed`], percolate the rotating
/// [`PERCOLATED_QUERIES`] through the cell's estimator, execute each DAG
/// for ground-truth sizes, and build simulator queries whose task structure
/// (split and reducer provisioning) and predictions both come from the
/// estimates ([`sapred_core::Framework::sim_query_estimated`]) — so a worse
/// estimator yields a measurably worse schedule. Deterministic: the
/// database seed depends only on (workload, seed replica), so every
/// scheduler / fault / estimator cell of that pair sees the same data and
/// differs only through its estimator.
fn percolated_workload(grid: &FleetGrid, coord: &FleetCoord) -> Vec<SimQuery> {
    let w = &grid.workloads[coord.workload];
    let mut fw = sapred_core::Framework::new();
    fw.est_config.kind = grid.cell_estimator(coord);
    let dist = if w.skew > 0.0 { KeyDist::Zipf(w.skew) } else { KeyDist::Uniform };
    let db = generate(
        GenConfig::new(PERCOLATED_SCALE_GB).with_seed(grid.cell_db_seed(coord)).with_key_dist(dist),
    );
    (0..w.n_queries)
        .map(|qi| {
            let sql = PERCOLATED_QUERIES[qi % PERCOLATED_QUERIES.len()];
            let name = format!("pq{qi}");
            let semantics = fw
                .percolate_sql(&name, sql, &db)
                .unwrap_or_else(|e| panic!("percolated query {name} failed: {e}"));
            let actuals = execute_dag(&semantics.dag, &db, fw.est_config.block_size);
            fw.sim_query_estimated(name, qi as f64 * PERCOLATED_ARRIVAL_STEP, &semantics, &actuals)
        })
        .collect()
}

fn simulate<S: Scheduler>(
    sched: S,
    grid: &FleetGrid,
    coord: &FleetCoord,
    prof: &SpanProfiler,
) -> SimReport {
    let w = &grid.workloads[coord.workload];
    // Default estimator on uniform data keeps the legacy RNG-free dispatch
    // workload (bit-identical to pre-estimator-axis fleets); skew or a
    // non-default estimator switches to the percolated SQL workload where
    // estimator quality feeds the schedule.
    let queries = if grid.cell_estimator(coord) == EstimatorKind::Histogram && w.skew == 0.0 {
        dispatch_workload(w.n_queries, w.jobs, w.maps, w.reduces)
    } else {
        percolated_workload(grid, coord)
    };
    let fw = sapred_core::Framework::new();
    let mut cluster = fw.cluster;
    cluster.seed = grid.cell_seed(coord);
    let mut sim = Simulator::new(cluster, fw.cost, sched).with_faults(grid.cell_fault_plan(coord));
    sim.execute(&queries, Run::new().profiler(prof)).unwrap_or_else(|e| panic!("{e}")).into_report()
}

/// Run one cell whole on the calling thread, profiled so the fleet can
/// aggregate engine counters (events processed, tasks launched, …).
fn run_one_cell(grid: &FleetGrid, coord: &FleetCoord) -> (CellSummary, [u64; Counter::ALL.len()]) {
    let prof = SpanProfiler::new();
    let report = match grid.schedulers[coord.sched] {
        SchedKind::Swrd => simulate(Swrd, grid, coord, &prof),
        SchedKind::Hcs => simulate(Hcs, grid, coord, &prof),
        SchedKind::Hfs => simulate(Hfs, grid, coord, &prof),
        SchedKind::Fifo => simulate(Fifo, grid, coord, &prof),
        SchedKind::Srt => simulate(Srt, grid, coord, &prof),
    };
    let mut counters = [0u64; Counter::ALL.len()];
    for (slot, &c) in counters.iter_mut().zip(Counter::ALL.iter()) {
        *slot = prof.counter(c);
    }
    (report.cell_summary(), counters)
}

/// Execute the grid's cells across `threads` scoped workers (`0` = all
/// cores) and assemble the [`FleetReport`] in grid order. Cells are claimed
/// from a shared index and panic-isolated by [`run_claiming`]: one exploding
/// cell is recorded as failed, with zeroed counters, without taking down the
/// rest of the fleet.
///
/// # Errors
/// Returns the grid's first validation problem without running anything.
pub fn run_fleet(grid: &FleetGrid, threads: usize) -> Result<FleetReport, String> {
    grid.validate()?;
    let threads = if threads == 0 { available_threads() } else { threads };
    let coords = grid.coords();
    let outcomes = run_claiming(coords.len(), threads, |i| run_one_cell(grid, &coords[i]));
    let cells = coords
        .into_iter()
        .zip(outcomes)
        .map(|(coord, outcome)| {
            let (outcome, counters) = match outcome {
                Ok((summary, counters)) => (Ok(summary), counters),
                Err(msg) => (Err(msg), [0; Counter::ALL.len()]),
            };
            FleetCell {
                coord,
                label: grid.coord_label(&coord),
                cell_seed: grid.cell_seed(&coord),
                outcome,
                counters,
            }
        })
        .collect();
    Ok(FleetReport { grid: grid.clone(), cells })
}

/// Record a finished fleet's cell counts on a [`Profiler`] — the seam the
/// bench harness uses so `fleet_cells_run` / `fleet_cells_failed` land in
/// `BENCH_fleet.json` next to the engine counters.
pub fn record_fleet<P: Profiler>(report: &FleetReport, prof: &P) {
    prof.add(Counter::FleetCellsRun, report.completed() as u64);
    prof.add(Counter::FleetCellsFailed, report.failed() as u64);
    for c in Counter::ALL {
        match c {
            Counter::FleetCellsRun | Counter::FleetCellsFailed => {}
            Counter::QueuePeakDepth => prof.record_max(c, report.counter_aggregate(c)),
            _ => prof.add(c, report.counter_aggregate(c)),
        }
    }
}

/// The fault-severity ramp the bench suite truncates (`fault_levels ≤ 4`).
pub const BENCH_FAULT_RAMP: [f64; 4] = [0.0, 0.04, 0.08, 0.12];

/// The deterministic grid behind the `fleet` bench suite: the first
/// `schedulers` of [`SchedKind::ALL`], the first `fault_levels` of
/// [`BENCH_FAULT_RAMP`], and `seeds` seed replicas derived from
/// `base_seed`.
pub fn bench_grid(
    schedulers: usize,
    fault_levels: usize,
    seeds: usize,
    workload: WorkloadSpec,
    base_seed: u64,
) -> FleetGrid {
    FleetGrid {
        workloads: vec![workload],
        schedulers: SchedKind::ALL[..schedulers.clamp(1, SchedKind::ALL.len())].to_vec(),
        faults: BENCH_FAULT_RAMP[..fault_levels.clamp(1, BENCH_FAULT_RAMP.len())]
            .iter()
            .map(|&task_fail_prob| FaultLevel { task_fail_prob })
            .collect(),
        estimators: vec![EstimatorKind::Histogram],
        seeds: (0..seeds.max(1) as u64).map(|i| base_seed.wrapping_add(i)).collect(),
    }
}
