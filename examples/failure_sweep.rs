//! Failure sweep: run the template workload under the paper's SWRD
//! scheduler while sweeping the injected task-failure probability, and
//! report how makespan, response times and recovery behave.
//!
//! ```text
//! cargo run --release --example failure_sweep [--fail-prob p1,p2,...]
//!     [--crash node@t[:down_for]] [--speculate] [--seed n]
//! ```
//!
//! Knobs:
//!
//! * `--fail-prob` — comma-separated per-attempt failure probabilities to
//!   sweep (default `0,0.02,0.05,0.1,0.2`).
//! * `--crash node@t[:down_for]` — additionally crash `node` at time `t`;
//!   with `:down_for` it recovers after that many seconds, without it the
//!   crash is permanent. May be repeated.
//! * `--speculate` — enable speculative execution of stragglers.
//! * `--seed` — fault-plan RNG seed (default 7).
//!
//! The paper's model assumes a failure-free cluster; this example shows
//! what the same workload costs once that assumption is dropped.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sapred::cluster::{build_sim_query, FaultPlan, NodeCrash, Run, SimQuery, Swrd};
use sapred::core::Pipeline;
use sapred::plan::ground_truth::execute_dag;
use sapred_workload::templates::Template;

fn workload(pipe: &mut Pipeline) -> Vec<SimQuery> {
    let block_size = pipe.framework().est_config.block_size;
    let cluster = pipe.framework().cluster;
    let db = pipe.database(2.0);
    let mut rng = StdRng::seed_from_u64(5);
    let mut out = Vec::new();
    for (i, t) in Template::all().iter().enumerate().take(12) {
        let dag = t.instantiate(db, &mut rng).unwrap();
        let actuals = execute_dag(&dag, db, block_size);
        out.push(build_sim_query(
            format!("{}#{i}", t.name()),
            i as f64 * 1.5,
            &dag,
            &actuals,
            &[],
            &cluster,
        ));
    }
    out
}

fn parse_crash(spec: &str) -> NodeCrash {
    let (node, rest) = spec.split_once('@').expect("--crash wants node@t[:down_for]");
    let node: usize = node.parse().expect("crash node must be an index");
    match rest.split_once(':') {
        Some((at, down)) => NodeCrash::transient(
            node,
            at.parse().expect("crash time must be a number"),
            down.parse().expect("down_for must be a number"),
        ),
        None => NodeCrash::permanent(node, rest.parse().expect("crash time must be a number")),
    }
}

fn main() {
    let mut probs = vec![0.0, 0.02, 0.05, 0.1, 0.2];
    let mut crashes = Vec::new();
    let mut speculative = false;
    let mut seed = 7u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fail-prob" => {
                let list = args.next().expect("--fail-prob wants a comma-separated list");
                probs = list
                    .split(',')
                    .map(|p| p.parse().expect("failure probability must be a number"))
                    .collect();
            }
            "--crash" => crashes.push(parse_crash(&args.next().expect("--crash wants a spec"))),
            "--speculate" => speculative = true,
            "--seed" => seed = args.next().expect("--seed wants a number").parse().unwrap(),
            other => panic!("unknown argument `{other}`"),
        }
    }

    let mut pipe = Pipeline::with_seed(5);
    let queries = workload(&mut pipe);
    let cluster = pipe.framework().cluster;
    println!(
        "failure sweep: {} template queries, SWRD, {} nodes x {} containers{}{}",
        queries.len(),
        cluster.nodes,
        cluster.containers_per_node,
        if crashes.is_empty() { "" } else { ", with node crashes" },
        if speculative { ", speculation on" } else { "" },
    );
    println!(
        "{:>9}  {:>9}  {:>9}  {:>8} {:>8} {:>7} {:>6} {:>9}",
        "fail_prob", "makespan", "avg_resp", "failures", "retries", "killed", "lost", "abandoned"
    );
    for &p in &probs {
        let plan = FaultPlan {
            task_fail_prob: p,
            node_crashes: crashes.clone(),
            speculative,
            seed,
            ..FaultPlan::default()
        };
        let report = pipe
            .simulate(pipe.simulator(Swrd).with_faults(plan), &queries, Run::new())
            .expect("sweep fault plan is valid")
            .into_report();
        let done: Vec<_> = report.queries.iter().filter(|q| !q.failed).collect();
        let avg_resp = done.iter().map(|q| q.response()).sum::<f64>() / done.len().max(1) as f64;
        let fr = &report.faults;
        println!(
            "{:>9.3}  {:>9.1}  {:>9.1}  {:>8} {:>8} {:>7} {:>6} {:>9}",
            p,
            report.makespan,
            avg_resp,
            fr.task_failures,
            fr.retries_scheduled,
            fr.tasks_killed,
            fr.lost_maps,
            fr.failed_queries.len(),
        );
        if fr.recovery_count > 0 {
            println!(
                "{:>9}  mean recovery {:.1}s, worst {:.1}s over {} recoveries",
                "",
                fr.mean_recovery_latency(),
                fr.recovery_latency_max,
                fr.recovery_count
            );
        }
    }
}
