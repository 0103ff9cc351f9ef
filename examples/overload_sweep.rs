//! Overload sweep: run the template workload under tightened arrival gaps
//! with admission control switched on, and report how each scheduler and
//! shed policy trades shed rate against deadline misses and tail latency.
//!
//! ```text
//! cargo run --release --example overload_sweep [--gaps g1,g2,...]
//!     [--queue-cap n] [--deadline s] [--expect-shed] [--expect-no-shed]
//! ```
//!
//! Knobs:
//!
//! * `--gaps` — comma-separated inter-arrival gaps (seconds) to sweep;
//!   smaller gap = higher arrival rate (default `6,3,1.5,0.5`).
//! * `--queue-cap` — admitted-query cap handed to the admission controller
//!   (default 3).
//! * `--deadline` — per-query deadline in seconds (default 90).
//! * `--expect-shed` / `--expect-no-shed` — CI assertion modes: exit
//!   nonzero unless the sweep shed at least one query (resp. shed nothing
//!   and missed no deadline).
//!
//! The interesting comparison is the two shed policies at equal budget:
//! `reject_newest` drops whoever arrives late, while `largest_wrd` uses the
//! semantics-predicted work demand to evict the heaviest waiting query, so
//! the queries it keeps tend to fit their deadlines.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sapred::cluster::{
    build_sim_query, AdmissionConfig, ClusterConfig, CostModel, Fifo, JobPrediction, Scheduler,
    ShedPolicy, SimQuery, SimReport, Simulator, Swrd,
};
use sapred::core::Pipeline;
use sapred::plan::ground_truth::execute_dag;
use sapred_workload::templates::Template;

/// A deliberately contended cluster: admitted queries actually queue, so
/// the shed policies' choice of victim matters. (On the pipeline's default
/// 100+-container cluster every admitted query starts instantly and the two
/// policies collapse into tail-drop.)
fn contended_cluster() -> ClusterConfig {
    ClusterConfig { nodes: 2, containers_per_node: 3, ..Default::default() }
}

/// The template workload with unit arrival spacing; the sweep rescales the
/// arrivals per gap. Predictions are the cost model's mean task durations —
/// an oracle that knows the workload's semantics, which is exactly what the
/// `largest_wrd` shed policy consumes.
fn base_workload(pipe: &mut Pipeline) -> Vec<SimQuery> {
    let block_size = pipe.framework().est_config.block_size;
    let cluster = contended_cluster();
    let cost = *pipe.cost_model();
    let db = pipe.database(8.0);
    let mut rng = StdRng::seed_from_u64(5);
    let mut out = Vec::new();
    for (i, t) in Template::all().iter().enumerate().take(12) {
        let dag = t.instantiate(db, &mut rng).unwrap();
        let actuals = execute_dag(&dag, db, block_size);
        let mut q =
            build_sim_query(format!("{}#{i}", t.name()), i as f64, &dag, &actuals, &[], &cluster);
        for job in &mut q.jobs {
            job.prediction = JobPrediction {
                map_task_time: job.maps.first().map(|t| cost.mean_duration(t)).unwrap_or(0.0),
                reduce_task_time: job.reduces.first().map(|t| cost.mean_duration(t)).unwrap_or(0.0),
            };
        }
        out.push(q);
    }
    out
}

fn with_gap(base: &[SimQuery], gap: f64) -> Vec<SimQuery> {
    base.iter()
        .enumerate()
        .map(|(i, q)| {
            let mut q = q.clone();
            q.arrival = i as f64 * gap;
            q
        })
        .collect()
}

fn p99(report: &SimReport) -> f64 {
    let mut resp: Vec<f64> =
        report.queries.iter().filter(|q| !q.failed).map(|q| q.response()).collect();
    if resp.is_empty() {
        return f64::NAN;
    }
    resp.sort_by(|a, b| a.partial_cmp(b).unwrap());
    resp[((resp.len() as f64 * 0.99).ceil() as usize).max(1) - 1]
}

fn run<S: Scheduler>(
    cost: CostModel,
    sched: S,
    queries: &[SimQuery],
    admission: AdmissionConfig,
) -> SimReport {
    admission.validate().expect("sweep admission config is valid");
    Simulator::new(contended_cluster(), cost, sched).with_admission(admission).run(queries)
}

fn main() {
    let mut gaps = vec![6.0, 3.0, 1.5, 0.5];
    let mut queue_cap = 3usize;
    let mut deadline = 90.0;
    let mut expect_shed = false;
    let mut expect_no_shed = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--gaps" => {
                let list = args.next().expect("--gaps wants a comma-separated list");
                gaps = list.split(',').map(|g| g.parse().expect("gap must be a number")).collect();
            }
            "--queue-cap" => {
                queue_cap = args.next().expect("--queue-cap wants a number").parse().unwrap();
            }
            "--deadline" => {
                deadline = args.next().expect("--deadline wants a number").parse().unwrap();
            }
            "--expect-shed" => expect_shed = true,
            "--expect-no-shed" => expect_no_shed = true,
            other => panic!("unknown argument `{other}`"),
        }
    }

    let mut pipe = Pipeline::with_seed(5);
    let base = base_workload(&mut pipe);
    if std::env::var("OVERLOAD_DEBUG").is_ok() {
        for q in &base {
            let maps: Vec<usize> = q.jobs.iter().map(|j| j.maps.len()).collect();
            let demand: f64 = q
                .jobs
                .iter()
                .map(|j| {
                    j.maps.len() as f64 * j.prediction.map_task_time
                        + j.reduces.len() as f64 * j.prediction.reduce_task_time
                })
                .sum();
            eprintln!("{}: jobs {} maps {:?} demand {:.1}", q.name, q.jobs.len(), maps, demand);
        }
    }
    let cost = *pipe.cost_model();
    let n = base.len();
    let cluster = contended_cluster();
    println!(
        "overload sweep: {n} template queries, {} nodes x {} containers, \
         queue cap {queue_cap}, deadline {deadline}s",
        cluster.nodes, cluster.containers_per_node,
    );
    println!(
        "{:>6}  {:>5}  {:>14}  {:>9} {:>10} {:>9}",
        "gap", "sched", "shed_policy", "shed_rate", "miss_rate", "p99_resp"
    );

    let policies = [ShedPolicy::RejectNewest, ShedPolicy::ShedLargestWrd];
    let mut total_shed = 0usize;
    let mut total_missed = 0usize;
    // (gap, reject_newest miss rate, largest_wrd miss rate) under SWRD.
    let mut swrd_miss = Vec::new();
    for &gap in &gaps {
        let queries = with_gap(&base, gap);
        let mut rates = [0.0f64; 2];
        for (pi, &policy) in policies.iter().enumerate() {
            let admission = AdmissionConfig {
                queue_cap,
                deadline,
                shed_policy: policy,
                ..AdmissionConfig::default()
            };
            for sched_name in ["FIFO", "SWRD"] {
                let report = match sched_name {
                    "FIFO" => run(cost, Fifo, &queries, admission),
                    _ => run(cost, Swrd, &queries, admission),
                };
                let a = &report.admission;
                if std::env::var("OVERLOAD_DEBUG").is_ok() {
                    eprintln!(
                        "{sched_name}/{}: rejected {:?} missed {:?} shed {} resub {}",
                        policy.label(),
                        a.queries_rejected,
                        a.deadline_misses,
                        a.queries_shed,
                        a.resubmissions,
                    );
                }
                total_shed += a.queries_shed;
                total_missed += a.deadline_misses.len();
                let miss_rate = a.deadline_misses.len() as f64 / n as f64;
                if sched_name == "SWRD" {
                    rates[pi] = miss_rate;
                }
                println!(
                    "{:>6.2}  {:>5}  {:>14}  {:>9.3} {:>10.3} {:>9.1}",
                    gap,
                    sched_name,
                    policy.label(),
                    a.queries_shed as f64 / n as f64,
                    miss_rate,
                    p99(&report),
                );
            }
        }
        swrd_miss.push((gap, rates[0], rates[1]));
    }

    for (gap, reject, wrd) in &swrd_miss {
        if reject + wrd > 0.0 {
            println!(
                "gap {gap:.2}s under SWRD: largest_wrd misses {:.3} vs reject_newest {:.3} \
                 at equal shed budget",
                wrd, reject
            );
        }
    }

    if expect_shed && total_shed == 0 {
        eprintln!("FAIL: expected the sweep to shed queries, but nothing was shed");
        std::process::exit(1);
    }
    if expect_no_shed && (total_shed > 0 || total_missed > 0) {
        eprintln!(
            "FAIL: expected an idle sweep, but saw {total_shed} sheds and \
             {total_missed} deadline misses"
        );
        std::process::exit(1);
    }
    if expect_shed {
        println!("OK: sweep shed {total_shed} queries, {total_missed} deadline misses");
    }
    if expect_no_shed {
        println!("OK: idle sweep shed nothing and missed no deadlines");
    }
}
