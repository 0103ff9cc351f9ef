//! Fleet-simulation tests: the golden single-sim fixture, double-run
//! determinism, coordinate-derived seeding, and the aggregation layer.

use sapred_bench::dispatch_workload;
use sapred_bench::fleet::{
    bench_grid, record_fleet, run_fleet, FaultLevel, FleetGrid, SchedKind, WorkloadSpec,
};
use sapred_cluster::sched::Swrd;
use sapred_cluster::sim::Simulator;
use sapred_obs::{Counter, SpanProfiler};
use sapred_selectivity::EstimatorKind;

fn tiny_workload() -> WorkloadSpec {
    WorkloadSpec::uniform(5, 2, 4, 2)
}

fn tiny_grid() -> FleetGrid {
    FleetGrid {
        workloads: vec![tiny_workload()],
        schedulers: vec![SchedKind::Swrd, SchedKind::Hcs],
        faults: vec![FaultLevel { task_fail_prob: 0.0 }, FaultLevel { task_fail_prob: 0.08 }],
        estimators: vec![EstimatorKind::Histogram],
        seeds: vec![42, 43],
    }
}

/// The golden fixture: a 1-cell fleet must reproduce, bit-for-bit, the
/// summary of a [`Simulator`] run assembled by hand from the same grid
/// accessors. Any hidden dependence on the fleet host (worker threads,
/// profiler plumbing, claim order) would break this.
#[test]
fn one_cell_fleet_reproduces_the_single_sim_report() {
    let w = tiny_workload();
    let grid = FleetGrid {
        workloads: vec![w],
        schedulers: vec![SchedKind::Swrd],
        faults: vec![FaultLevel { task_fail_prob: 0.05 }],
        estimators: vec![EstimatorKind::Histogram],
        seeds: vec![99],
    };
    let report = run_fleet(&grid, 4).expect("valid grid");
    assert_eq!(report.cells.len(), 1);
    let fleet_summary = report.cells[0].outcome.as_ref().expect("cell completed");

    let coord = grid.coords()[0];
    let queries = dispatch_workload(w.n_queries, w.jobs, w.maps, w.reduces);
    let fw = sapred_core::Framework::new();
    let mut cluster = fw.cluster;
    cluster.seed = grid.cell_seed(&coord);
    let mut sim = Simulator::new(cluster, fw.cost, Swrd).with_faults(grid.cell_fault_plan(&coord));
    let solo = sim.run(&queries).cell_summary();

    assert_eq!(*fleet_summary, solo, "fleet cell diverged from a standalone simulation");
    // Sanity: the fixture actually exercises faults.
    assert!(solo.task_failures > 0, "fixture ran fault-free; raise task_fail_prob");
    assert_eq!(solo.n_queries, w.n_queries);
}

/// Same grid, two runs ⇒ identical aggregate JSON bytes (the ISSUE's
/// determinism pin). Runs at different thread counts to double as an
/// order-independence check.
#[test]
fn double_run_aggregate_json_is_bit_identical() {
    let grid = tiny_grid();
    let first = run_fleet(&grid, 2).expect("valid grid").to_json();
    let second = run_fleet(&grid, 3).expect("valid grid").to_json();
    assert_eq!(first, second, "fleet aggregate JSON is not reproducible");
    sapred_obs::json::validate(&first).expect("aggregate report is well-formed JSON");
}

/// Cell seeds derive from coordinates, not indices: appending a value to
/// one axis must not reseed any pre-existing cell.
#[test]
fn appending_an_axis_value_never_reseeds_existing_cells() {
    let base = tiny_grid();
    let mut extended = base.clone();
    extended.seeds.push(77);
    extended.schedulers.push(SchedKind::Fifo);

    let seeds_of = |grid: &FleetGrid| -> Vec<(String, u64)> {
        grid.coords().iter().map(|c| (grid.coord_label(c), grid.cell_seed(c))).collect()
    };
    let before: std::collections::BTreeMap<_, _> = seeds_of(&base).into_iter().collect();
    let after: std::collections::BTreeMap<_, _> = seeds_of(&extended).into_iter().collect();
    for (label, seed) in &before {
        assert_eq!(after.get(label), Some(seed), "cell {label} was reseeded by an axis append");
    }
    assert!(after.len() > before.len());
}

/// The aggregation layer covers every (scheduler × fault level)
/// combination that has completed cells, with ordered percentiles.
#[test]
fn aggregation_layer_covers_the_grid() {
    let grid = tiny_grid();
    let report = run_fleet(&grid, 0).expect("valid grid");
    assert_eq!(report.completed(), grid.n_cells());
    assert_eq!(report.failed(), 0);

    let surfaces = report.surfaces();
    assert_eq!(surfaces.len(), grid.schedulers.len() * grid.faults.len());
    for p in &surfaces {
        assert_eq!(p.n_cells, grid.workloads.len() * grid.seeds.len());
        assert!(p.makespan_mean > 0.0 && p.makespan_mean.is_finite());
        assert!(p.makespan_p50 <= p.makespan_p95 && p.makespan_p95 <= p.makespan_p99);
        assert!(p.response_p50 <= p.response_p95 && p.response_p95 <= p.response_p99);
    }
}

/// An invalid grid is rejected up front, before any cell runs.
#[test]
fn invalid_grids_are_rejected() {
    let mut grid = tiny_grid();
    grid.schedulers.clear();
    assert!(run_fleet(&grid, 1).unwrap_err().contains("scheduler"));

    let mut grid = tiny_grid();
    grid.workloads[0].n_queries = 0;
    assert!(run_fleet(&grid, 1).is_err());

    let mut grid = tiny_grid();
    grid.faults.push(FaultLevel { task_fail_prob: 1.5 });
    assert!(run_fleet(&grid, 1).is_err());
}

/// The bench grid helper clamps its axis counts and stays deterministic.
#[test]
fn bench_grid_shape_and_seeds() {
    let grid = bench_grid(2, 2, 3, tiny_workload(), 17);
    assert_eq!(grid.schedulers, vec![SchedKind::Swrd, SchedKind::Hcs]);
    assert_eq!(grid.faults.len(), 2);
    assert_eq!(grid.seeds, vec![17, 18, 19]);
    assert_eq!(grid.n_cells(), 2 * 2 * 3);
    // Oversized axis requests clamp to the rosters.
    let big = bench_grid(99, 99, 1, tiny_workload(), 1);
    assert_eq!(big.schedulers.len(), SchedKind::ALL.len());
    assert_eq!(big.faults.len(), 4);
}

/// The estimator axis: the default histogram entry leaves every legacy
/// label (hence cell seed) untouched, non-default entries tag their cells,
/// and the percolated path is double-run deterministic.
#[test]
fn estimator_axis_extends_the_grid_without_reseeding_it() {
    let base = tiny_grid();
    let mut extended = base.clone();
    extended.estimators.push(EstimatorKind::Sample);
    extended.workloads.push(WorkloadSpec { skew: 1.1, ..tiny_workload() });

    let seeds_of = |grid: &FleetGrid| -> Vec<(String, u64)> {
        grid.coords().iter().map(|c| (grid.coord_label(c), grid.cell_seed(c))).collect()
    };
    let before: std::collections::BTreeMap<_, _> = seeds_of(&base).into_iter().collect();
    let after: std::collections::BTreeMap<_, _> = seeds_of(&extended).into_iter().collect();
    for (label, seed) in &before {
        assert_eq!(after.get(label), Some(seed), "cell {label} was reseeded by the estimator axis");
    }
    // The new cells are tagged: skewed workloads by `z`, non-default
    // estimators by `est=`.
    assert!(after.keys().any(|l| l.contains("z1.1")));
    assert!(after.keys().any(|l| l.contains("|est=sample|")));
    assert!(!before.keys().any(|l| l.contains("est=")));
}

/// The percolated workload (skew > 0 or a non-default estimator) is as
/// deterministic as the dispatch one: same grid, different thread counts,
/// bit-identical aggregate JSON.
#[test]
fn percolated_cells_are_deterministic_and_estimator_sensitive() {
    let grid = FleetGrid {
        workloads: vec![WorkloadSpec { n_queries: 3, jobs: 2, maps: 4, reduces: 2, skew: 1.2 }],
        schedulers: vec![SchedKind::Swrd],
        faults: vec![FaultLevel { task_fail_prob: 0.0 }],
        estimators: vec![EstimatorKind::Histogram, EstimatorKind::Sample, EstimatorKind::Catalog],
        seeds: vec![7],
    };
    let first = run_fleet(&grid, 1).expect("valid grid");
    let second = run_fleet(&grid, 3).expect("valid grid");
    assert_eq!(first.to_json(), second.to_json(), "percolated fleet is not reproducible");
    assert_eq!(first.failed(), 0, "percolated cells failed");

    // Estimator choice must reach the schedule: with skewed join keys the
    // three estimators' predictions differ, so the per-cell summaries do.
    let summaries: Vec<_> =
        first.cells.iter().map(|c| *c.outcome.as_ref().expect("completed")).collect();
    assert_eq!(summaries.len(), 3);
    assert!(
        summaries.windows(2).any(|w| w[0] != w[1]),
        "all estimators produced identical schedules on a skewed workload"
    );
}

/// An empty estimator axis is a validation error, like any other axis.
#[test]
fn empty_estimator_axis_is_rejected() {
    let mut grid = tiny_grid();
    grid.estimators.clear();
    assert!(run_fleet(&grid, 1).unwrap_err().contains("estimator"));

    let mut grid = tiny_grid();
    grid.workloads[0].skew = f64::NAN;
    assert!(run_fleet(&grid, 1).unwrap_err().contains("skew"));
}

/// A failed cell is counted, left out of the surfaces, recorded on
/// `FleetCellsFailed`, and reported by label with its error and no summary.
#[test]
fn a_failed_cell_is_reported_but_not_aggregated() {
    let grid = tiny_grid();
    let mut report = run_fleet(&grid, 1).expect("valid grid");
    let n = report.cells.len();
    let failed = &mut report.cells[1];
    failed.outcome = Err("boom".into());
    failed.counters = [0; Counter::ALL.len()];
    let label = failed.label.clone();

    assert_eq!((report.completed(), report.failed()), (n - 1, 1));
    assert_eq!(report.surfaces().iter().map(|p| p.n_cells).sum::<usize>(), n - 1);
    let prof = SpanProfiler::new();
    record_fleet(&report, &prof);
    assert_eq!(prof.counter(Counter::FleetCellsFailed), 1);
    assert_eq!(prof.counter(Counter::FleetCellsRun), (n - 1) as u64);

    let json = report.to_json();
    let doc = sapred_obs::json::parse(&json).expect("well-formed report");
    let cells = doc.get("cells").and_then(|c| c.as_arr()).expect("cells array");
    let cell = cells
        .iter()
        .find(|c| c.get("label").and_then(|l| l.as_str()) == Some(label.as_str()))
        .expect("the failed cell is reported by label");
    assert_eq!(cell.get("error").and_then(|e| e.as_str()), Some("boom"));
    assert!(cell.get("makespan").is_none() && cell.get("n_queries").is_none());
    assert_eq!(doc.get("failed").and_then(|f| f.as_num()), Some(1.0));
}

/// A grid survives its own JSON: a seed past 2^53 (which an `f64` reader
/// would round to a neighbour) and a skewed workload both come back equal.
#[test]
fn grid_json_round_trips() {
    let mut grid = tiny_grid();
    grid.workloads[0].skew = 1.1;
    grid.seeds = vec![9_007_199_254_740_993, 42];
    assert_eq!(FleetGrid::from_json(&grid.to_json()), Ok(grid));
}

/// A `sapred-fleet/v1` grid carries an `admissions` axis. Replaying it
/// without that axis would run a different grid under the same file, so
/// it is refused, naming the field.
#[test]
fn a_grid_with_an_admissions_axis_is_refused() {
    let old = r#"{"workloads":[{"n_queries":5,"jobs":2,"maps":4,"reduces":2,"skew":0}],
        "schedulers":["swrd","hcs"],"fault_levels":[0,0.08],
        "admissions":[{"queue_cap":0,"deadline":null,"shed_policy":"reject_newest"}],
        "estimators":["histogram"],"seeds":[42,43]}"#;
    let err = FleetGrid::from_json(old).unwrap_err();
    assert!(err.contains("\"admissions\""), "error should name the field: {err}");
    // The same grid without the axis loads.
    let current = old.replace(
        r#""admissions":[{"queue_cap":0,"deadline":null,"shed_policy":"reject_newest"}],"#,
        "",
    );
    assert_eq!(FleetGrid::from_json(&current).map(|g| g.n_cells()), Ok(8));
}
