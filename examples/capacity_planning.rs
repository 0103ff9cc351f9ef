//! Capacity planning with the prediction framework: a downstream use the
//! paper's introduction motivates (latency-sensitive analytics needs
//! predictable turnaround).
//!
//! ```text
//! cargo run --release --example capacity_planning [deadline_seconds]
//! ```
//!
//! Given a reporting query over 50 GB and a deadline (default 120 s), sweep
//! cluster sizes with the trained predictor — no simulation in the loop —
//! pick the smallest cluster whose *predicted* response meets the deadline,
//! then validate that choice against the full simulator.

use sapred::cluster::sched::Fifo;
use sapred::cluster::Run;
use sapred::core::framework::{Framework, Predictor};
use sapred::core::Pipeline;
use sapred::workload::population::PopulationConfig;

fn main() {
    let deadline: f64 = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("deadline must be seconds"))
        .unwrap_or(120.0);

    let mut pipe = Pipeline::with_seed(31);
    println!("training the predictor (160 queries)...");
    let config = PopulationConfig {
        n_queries: 160,
        scales_gb: vec![1.0, 5.0, 10.0, 20.0, 50.0],
        scale_out_gb: vec![],
        seed: 31,
    };
    pipe.train(&config).expect("training succeeds");
    let models = pipe.training().expect("just trained").models.clone();
    let fw = *pipe.framework();

    let sql = "SELECT l_partkey, l_suppkey, sum(l_quantity), sum(l_extendedprice) \
               FROM lineitem WHERE l_shipdate >= '1993-01-01' \
               GROUP BY l_partkey, l_suppkey ORDER BY l_partkey";
    let db = pipe.database(50.0).clone();

    println!("\nquery:\n  {sql}\n50 GB input, deadline {deadline}s\n");
    println!("{:<24}{:<22}meets deadline", "cluster", "predicted response");
    let mut chosen: Option<(usize, Framework)> = None;
    for nodes in [3usize, 6, 9, 12, 18, 24] {
        let mut variant = fw;
        variant.cluster.nodes = nodes;
        // Retarget the predictor's wave model at this cluster size (task
        // models are cluster-size independent — that is the point of §4.2).
        let predictor = Predictor::new(models.clone(), variant);
        let semantics = variant.percolate_sql("planning", sql, &db).expect("valid query");
        let predicted = predictor.query_seconds(&semantics);
        let ok = predicted <= deadline;
        println!(
            "{:<24}{:<22}{}",
            format!("{nodes} nodes x 12"),
            format!("{predicted:.1}s"),
            if ok { "yes" } else { "no" }
        );
        if ok && chosen.is_none() {
            chosen = Some((nodes, variant));
        }
    }

    match chosen {
        Some((nodes, variant)) => {
            println!("\nsmallest predicted-feasible cluster: {nodes} nodes. validating...");
            // Re-point the pipeline at the chosen cluster and simulate.
            *pipe.framework_mut() = variant;
            let semantics = pipe.percolate_sql("planning", sql, 50.0).expect("valid");
            let q = pipe.sim_query("planning", 0.0, &semantics, 50.0);
            let r = pipe
                .simulate(pipe.simulator(Fifo), std::slice::from_ref(&q), Run::new())
                .expect("simulation runs")
                .into_report();
            let measured = r.queries[0].response();
            println!(
                "simulated response on {nodes} nodes: {measured:.1}s ({} the {deadline}s deadline)",
                if measured <= deadline * 1.1 { "meets" } else { "MISSES" }
            );
        }
        None => println!("\nno cluster size in the sweep meets the deadline"),
    }
}
