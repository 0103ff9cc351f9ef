//! Progress/ETA monitoring for a running query — the user-facing side of
//! the paper's *dynamic* WRD (Eq. 10's remaining task counts), in the
//! spirit of the ParaTimer progress indicator the paper cites.
//!
//! ```text
//! cargo run --release --example progress_monitor
//! ```
//!
//! Trains the models, compiles a three-job query over 20 GB, then replays
//! its execution job phase by job phase, printing the percent-done and ETA
//! the framework would report at each point, next to the simulator's
//! actual remaining time. The run is also traced: every simulator event plus
//! one ETA snapshot per checkpoint goes to `progress_events.jsonl`, and a
//! drift tracker summarizes how far the predictions were off.

use sapred::cluster::sched::Fifo;
use sapred::cluster::Run;
use sapred::core::progress::{JobProgress, ProgressEstimator};
use sapred::core::telemetry::record_sim_outcomes;
use sapred::core::Pipeline;
use sapred::obs::{DriftTracker, EventSink, JsonlSink, NullProfiler, Quantity, Tee};
use sapred::workload::population::PopulationConfig;

fn main() {
    let mut pipe = Pipeline::with_seed(43);
    println!("training the predictor (150 queries)...");
    let config = PopulationConfig {
        n_queries: 150,
        scales_gb: vec![1.0, 5.0, 10.0, 20.0],
        scale_out_gb: vec![],
        seed: 43,
    };
    pipe.train(&config).expect("training succeeds");

    let sql = "SELECT l_partkey, sum(l_extendedprice) FROM lineitem l \
               JOIN part p ON l.l_partkey = p.p_partkey \
               WHERE l_shipdate < '1996-01-01' \
               GROUP BY l_partkey ORDER BY l_partkey";
    println!("\nquery (20 GB):\n  {sql}\n");
    let semantics = pipe.percolate_sql("monitored", sql, 20.0).expect("valid query");
    // Materialize the sim query (mutable borrow) before wiring the
    // estimator to the predictor (immutable borrow for the rest of main).
    let sim_q = pipe.sim_query("monitored", 0.0, &semantics, 20.0);
    let predictor = pipe.predictor().expect("just trained");
    let estimator = ProgressEstimator::new(predictor, &semantics);

    // Run the query once to get the real per-job timeline, tracing every
    // event to JSONL and feeding a prediction-drift tracker.
    let events = std::fs::File::create("progress_events.jsonl").expect("create events file");
    let mut sink = Tee::new(JsonlSink::new(std::io::BufWriter::new(events)), DriftTracker::new());
    let report = pipe
        .simulate(pipe.simulator(Fifo), std::slice::from_ref(&sim_q), Run::new().sink(&mut sink))
        .expect("simulation runs")
        .into_report();
    let finish = report.queries[0].finish;
    let mut job_stats = report.jobs.clone();
    job_stats.sort_by(|a, b| a.finish.total_cmp(&b.finish));

    println!("{:<26}{:>10}{:>12}{:>16}", "checkpoint", "done", "ETA (est)", "actual remaining");
    let mut progress = vec![JobProgress::default(); semantics.dag.len()];
    let frac = estimator.fraction_done(&progress);
    println!(
        "{:<26}{:>9.0}%{:>11.1}s{:>15.1}s",
        "submitted",
        100.0 * frac,
        estimator.remaining_seconds(&progress),
        finish
    );
    for stat in &job_stats {
        // Mark this job complete.
        progress[stat.job.0] = JobProgress {
            maps_done: usize::MAX / 2, // saturating_sub clamps to zero remaining
            reduces_done: usize::MAX / 2,
        };
        sink.emit(&estimator.snapshot_event(0, stat.finish, &progress));
        let frac = estimator.fraction_done(&progress);
        println!(
            "{:<26}{:>9.0}%{:>11.1}s{:>15.1}s",
            format!("J{} ({}) finished", stat.job, stat.category),
            100.0 * frac,
            estimator.remaining_seconds(&progress),
            finish - stat.finish
        );
    }

    // Score the predictions against what the simulator measured.
    record_sim_outcomes(
        std::slice::from_ref(&sim_q),
        &report,
        &pipe.framework().cluster,
        &mut sink,
        &NullProfiler,
    );
    let Tee { a: jsonl, b: drift } = sink;
    let lines = jsonl.lines();
    jsonl.finish().expect("flush events file");

    let map = drift.aggregate(Quantity::MapTask);
    let job = drift.aggregate(Quantity::Job);
    let query = drift.aggregate(Quantity::Query);
    println!("\nprediction drift vs simulated truth:");
    println!(
        "  tasks : map MARE {:>5.1}%  reduce MARE {:>5.1}%",
        100.0 * map.mare(),
        100.0 * drift.aggregate(Quantity::ReduceTask).mare()
    );
    println!(
        "  jobs  : MARE {:>5.1}%  bias {:>+5.1}%  ({} jobs)",
        100.0 * job.mare(),
        100.0 * job.mean_signed(),
        job.n
    );
    println!(
        "  query : signed error {:>+5.1}% of the {:.1}s response",
        100.0 * query.mean_signed(),
        report.queries[0].response()
    );
    println!("\nwrote {lines} events to progress_events.jsonl");
}
