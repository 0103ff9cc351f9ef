//! Quickstart: the full semantics-aware prediction pipeline on one query.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! A [`Pipeline`] walks the staged query lifecycle:
//!
//! 1. **percolate** a HiveQL query: parse → analyze → compile to a
//!    MapReduce DAG → estimate per-job selectivities (IS/FS) and sizes,
//! 2. compare the estimates against exact ground-truth execution,
//! 3. **train** the multivariate time models on a small population,
//! 4. **predict** the query's job times, WRD and response time, and
//! 5. **simulate** it on the 9×12-container cluster to check.

use sapred::cluster::sched::Fifo;
use sapred::cluster::Run;
use sapred::core::Pipeline;
use sapred::plan::ground_truth::execute_dag;
use sapred::workload::population::PopulationConfig;

fn main() {
    // A 10 GB (nominal) TPC-H instance, generated on the fly.
    let mut pipe = Pipeline::with_seed(7);
    let sql = "SELECT l_partkey, sum(l_extendedprice*l_discount) \
               FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey \
               WHERE l_shipdate >= '1994-01-01' AND l_shipdate < '1995-01-01' \
               GROUP BY l_partkey";
    println!("query:\n  {sql}\n");

    // --- Stage 1: percolation — text -> DAG + estimates ------------------
    let semantics = pipe.percolate_sql("quickstart", sql, 10.0).expect("valid query");
    println!("compiled DAG ({} jobs):", semantics.dag.len());
    let block_size = pipe.framework().est_config.block_size;
    let actuals = execute_dag(&semantics.dag, pipe.database(10.0), block_size);
    for (job, (est, act)) in
        semantics.dag.jobs().iter().zip(semantics.estimates.iter().zip(&actuals))
    {
        println!(
            "  J{} {:<8} IS est {:.3} / actual {:.3}   FS est {:.4} / actual {:.4}   \
             D_in {:.2} GB, {} maps",
            job.id,
            job.category().to_string(),
            est.is,
            act.is_ratio(),
            est.fs,
            act.fs_ratio(),
            est.d_in / 1e9,
            est.n_maps,
        );
    }

    // --- Stage 2: train the multivariate models (paper section 4) --------
    println!("\ntraining the time models on a 120-query population...");
    let config = PopulationConfig {
        n_queries: 120,
        scales_gb: vec![1.0, 2.0, 5.0, 10.0],
        scale_out_gb: vec![],
        seed: 7,
    };
    pipe.train(&config).expect("training succeeds");

    // --- Stage 3: predict ------------------------------------------------
    let predictor = pipe.predictor().expect("just trained");
    println!("\npredictions:");
    for (job, est) in semantics.dag.jobs().iter().zip(&semantics.estimates) {
        let p = predictor.job_prediction(est, job.kind.has_reduce());
        println!(
            "  J{}: job time {:.1}s (Eq. 8) | map task {:.1}s, reduce task {:.1}s (Eq. 9)",
            job.id,
            predictor.job_seconds(est),
            p.map_task_time,
            p.reduce_task_time
        );
    }
    println!("  query WRD (Eq. 10): {:.0} container-seconds", predictor.query_wrd(&semantics));
    let predicted = predictor.query_seconds(&semantics);

    // --- Stage 4: verify on the simulated cluster ------------------------
    let sim_query = pipe.sim_query("quickstart", 0.0, &semantics, 10.0);
    let report = pipe
        .simulate(pipe.simulator(Fifo), std::slice::from_ref(&sim_query), Run::new())
        .expect("simulation runs")
        .into_report();
    let actual = report.queries[0].response();
    println!(
        "\npredicted response: {predicted:.1}s | simulated response: {actual:.1}s \
         | error {:.1}%",
        100.0 * (predicted - actual).abs() / actual
    );
}
