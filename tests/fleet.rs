//! Cross-crate fleet properties: the aggregate report is a pure function of
//! the grid — independent of worker-thread count, and therefore of claim
//! and completion order.

use proptest::prelude::*;
use sapred_bench::fleet::{bench_grid, run_fleet, FleetGrid, WorkloadSpec};

/// Small randomized grids over every axis the bench grid can sweep. Cells
/// stay tiny (≤ 5 queries × 2 jobs) so a case is milliseconds even in
/// debug builds.
fn small_grid() -> impl Strategy<Value = FleetGrid> {
    (1usize..=3, 1usize..=3, 1usize..=2, 2usize..=5, 0u64..1000).prop_map(
        |(schedulers, faults, seeds, n_queries, base_seed)| {
            bench_grid(
                schedulers,
                faults,
                seeds,
                WorkloadSpec::uniform(n_queries, 2, 3, 1),
                base_seed,
            )
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tentpole determinism claim: same grid ⇒ bit-identical aggregate
    /// JSON at 1, 2, and 8 worker threads. Any leak of wall-clock, thread
    /// identity, or completion order into the report breaks this.
    #[test]
    fn fleet_aggregate_is_thread_count_independent(grid in small_grid()) {
        let serial = run_fleet(&grid, 1).expect("valid grid").to_json();
        let two = run_fleet(&grid, 2).expect("valid grid").to_json();
        let eight = run_fleet(&grid, 8).expect("valid grid").to_json();
        prop_assert_eq!(&serial, &two, "1-thread vs 2-thread aggregate diverged");
        prop_assert_eq!(&two, &eight, "2-thread vs 8-thread aggregate diverged");
    }

    /// Per-cell outcomes, not just the aggregate: every cell's summary and
    /// engine counters match between a serial and a parallel run.
    #[test]
    fn fleet_cells_match_between_serial_and_parallel(grid in small_grid()) {
        let serial = run_fleet(&grid, 1).expect("valid grid");
        let parallel = run_fleet(&grid, 4).expect("valid grid");
        prop_assert_eq!(serial.cells.len(), parallel.cells.len());
        for (s, p) in serial.cells.iter().zip(&parallel.cells) {
            prop_assert_eq!(&s.label, &p.label);
            prop_assert_eq!(s.cell_seed, p.cell_seed);
            prop_assert_eq!(s.counters, p.counters, "engine counters diverged in {}", s.label);
            match (&s.outcome, &p.outcome) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "summary diverged in {}", s.label),
                (a, b) => prop_assert!(
                    a.is_err() == b.is_err(),
                    "outcome kind diverged in {}", s.label
                ),
            }
        }
    }
}
