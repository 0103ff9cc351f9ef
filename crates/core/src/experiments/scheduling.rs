//! Fig. 8: average query response times of the Bing and Facebook mixes
//! (Table 2 compositions) under HCS, HFS and SWRD (plus query-FIFO as an
//! extra baseline).

use crate::framework::{Framework, Predictor};
use crate::parallel::{available_threads, run_claiming};
use crate::report::{bar_chart, pct, secs, text_table};
use sapred_cluster::build::build_sim_query;
use sapred_cluster::job::{JobPrediction, SimQuery};
use sapred_cluster::sched::{Fifo, Hcs, Hfs, Scheduler, Srt, Swrd};
use sapred_cluster::sim::Simulator;
use sapred_plan::ground_truth::execute_dag;
use sapred_selectivity::estimate::estimate_dag;
use sapred_workload::mixes::{generate_mix_workload, MixSpec, WorkloadQuery};
use sapred_workload::pool::DbPool;

/// Mean response time of one (mix, scheduler) cell of Fig. 8, with the
/// small/large breakdown that explains the ranking.
#[derive(Debug, Clone)]
pub struct SchedulerOutcome {
    /// Policy name.
    pub scheduler: String,
    /// Mean response over all queries (seconds).
    pub mean_response: f64,
    /// Mean over queries at or below 10 nominal GB (bin 1).
    pub small_mean: f64,
    /// Mean over the rest.
    pub large_mean: f64,
    /// Median query response time (seconds).
    pub p50: f64,
    /// 95th-percentile query response time (seconds).
    pub p95: f64,
    /// 99th-percentile query response time (seconds).
    pub p99: f64,
}

/// Fig. 8 for one workload mix.
#[derive(Debug, Clone)]
pub struct SchedulingReport {
    /// Workload mix name.
    pub mix: String,
    /// One outcome per scheduler.
    pub outcomes: Vec<SchedulerOutcome>,
}

impl SchedulingReport {
    /// The outcome for a named scheduler.
    pub fn outcome(&self, scheduler: &str) -> Option<&SchedulerOutcome> {
        self.outcomes.iter().find(|o| o.scheduler == scheduler)
    }

    /// Relative reduction of SWRD's mean response versus `baseline`
    /// (positive = SWRD faster), the headline numbers of §5.5.
    pub fn swrd_improvement_vs(&self, baseline: &str) -> f64 {
        let swrd = self.outcome("SWRD").expect("SWRD ran").mean_response;
        let base = self.outcome(baseline).expect("baseline ran").mean_response;
        1.0 - swrd / base
    }
}

impl std::fmt::Display for SchedulingReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let rows: Vec<Vec<String>> = self
            .outcomes
            .iter()
            .map(|o| {
                vec![
                    o.scheduler.clone(),
                    secs(o.mean_response),
                    secs(o.small_mean),
                    secs(o.large_mean),
                    secs(o.p50),
                    secs(o.p95),
                    secs(o.p99),
                ]
            })
            .collect();
        writeln!(
            f,
            "Fig. 8 ({} workload): average query response time\n{}",
            self.mix,
            text_table(
                &["scheduler", "mean response", "small (<=10GB)", "large", "p50", "p95", "p99"],
                &rows
            )
        )?;
        let bars: Vec<(String, f64)> =
            self.outcomes.iter().map(|o| (o.scheduler.clone(), o.mean_response)).collect();
        writeln!(f, "{}", bar_chart(&bars, 50))?;
        if self.outcome("SWRD").is_some() {
            for base in ["HCS", "HFS"] {
                if self.outcome(base).is_some() {
                    writeln!(
                        f,
                        "SWRD vs {base}: {} lower mean response",
                        pct(self.swrd_improvement_vs(base))
                    )?;
                }
            }
        }
        Ok(())
    }
}

/// Prepared workload: simulator queries plus each query's nominal input
/// size in GB (the Table 2 binning quantity).
pub struct PreparedWorkload {
    /// Workload mix name.
    pub mix_name: String,
    /// Simulator-ready queries with arrivals and predictions.
    pub queries: Vec<SimQuery>,
    /// Per-query nominal input size in GB (Table 2's binning quantity).
    pub scales: Vec<f64>,
    /// The scale divisor used (1.0 = paper scale).
    pub scale_divisor: f64,
}

/// Instantiate a mix and prepare simulator queries (ground-truth execution
/// parallelized across queries on [`run_claiming`]).
///
/// # Panics
/// Panics, naming the query, if preparing any query panics.
pub fn prepare_workload(
    mix: &MixSpec,
    pool: &mut DbPool,
    fw: &Framework,
    predictor: Option<&Predictor>,
    mean_gap_s: f64,
    scale_divisor: f64,
    seed: u64,
) -> PreparedWorkload {
    let workload = generate_mix_workload(mix, pool, mean_gap_s, scale_divisor, seed);
    // Pre-warm already done by generate_mix_workload; process in parallel.
    let pool = &*pool;
    let queries = run_claiming(workload.len(), available_threads(), |i| {
        prepare_one(&workload[i], pool, fw, predictor)
    })
    .into_iter()
    .enumerate()
    .map(|(i, q)| q.unwrap_or_else(|msg| panic!("workload query {i} panicked: {msg}")))
    .collect();
    PreparedWorkload {
        mix_name: mix.name.to_string(),
        queries,
        scales: workload.iter().map(|w| w.input_gb * scale_divisor).collect(),
        scale_divisor,
    }
}

fn prepare_one(
    w: &WorkloadQuery,
    pool: &DbPool,
    fw: &Framework,
    predictor: Option<&Predictor>,
) -> SimQuery {
    let db = pool.peek(w.scale_gb).expect("pool pre-warmed");
    let actuals = execute_dag(&w.dag, db, fw.est_config.block_size);
    let predictions: Vec<JobPrediction> = match predictor {
        Some(p) => {
            let estimates = estimate_dag(&w.dag, db.catalog(), &fw.est_config);
            w.dag
                .jobs()
                .iter()
                .zip(&estimates)
                .map(|(job, est)| p.job_prediction(est, job.kind.has_reduce()))
                .collect()
        }
        None => Vec::new(),
    };
    build_sim_query(
        format!("{}#{}", w.template.name(), w.id),
        w.arrival,
        &w.dag,
        &actuals,
        &predictions,
        &fw.cluster,
    )
}

/// Run the prepared workload under every scheduler and tabulate Fig. 8.
/// SWRD and SRT (the prediction-based policies) are only meaningful — and
/// only included — when the workload was prepared with a predictor. SRT is
/// our A4 ablation: it ranks queries by remaining critical-path *time*
/// alone, probing the paper's claim (§4.3) that temporal demand without
/// resource demand is insufficient.
pub fn run_schedulers(
    prepared: &PreparedWorkload,
    fw: &Framework,
    include_swrd: bool,
) -> SchedulingReport {
    let mut outcomes = Vec::new();
    outcomes.push(run_one_scheduler(prepared, fw, Hcs));
    outcomes.push(run_one_scheduler(prepared, fw, Hfs));
    outcomes.push(run_one_scheduler(prepared, fw, Fifo));
    if include_swrd {
        outcomes.push(run_one_scheduler(prepared, fw, Swrd));
        outcomes.push(run_one_scheduler(prepared, fw, Srt));
    }
    SchedulingReport { mix: prepared.mix_name.clone(), outcomes }
}

fn run_one_scheduler<S: Scheduler>(
    prepared: &PreparedWorkload,
    fw: &Framework,
    sched: S,
) -> SchedulerOutcome {
    let name = sched.name().to_string();
    // Default dispatch is DispatchMode::Incremental — proven bit-identical
    // to the from-scratch reference (cluster's cross-check tests), so the
    // Fig. 8 numbers are unaffected while full-scale runs dispatch in
    // O(affected jobs) per event.
    let report = Simulator::new(fw.cluster, fw.cost, sched).run(&prepared.queries);
    let small_cut = 10.0;
    let mut small = Vec::new();
    let mut large = Vec::new();
    for (q, &scale) in report.queries.iter().zip(&prepared.scales) {
        if scale <= small_cut {
            small.push(q.response());
        } else {
            large.push(q.response());
        }
    }
    let mean = |v: &[f64]| if v.is_empty() { 0.0 } else { v.iter().sum::<f64>() / v.len() as f64 };
    SchedulerOutcome {
        scheduler: name,
        mean_response: report.mean_response(),
        small_mean: mean(&small),
        large_mean: mean(&large),
        p50: report.percentile(0.50),
        p95: report.percentile(0.95),
        p99: report.percentile(0.99),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::training::{fit_models, run_population, split_train_test};
    use sapred_workload::mixes::facebook_mix;
    use sapred_workload::pool::DbPool;
    use sapred_workload::population::{generate_population, PopulationConfig};

    #[test]
    fn swrd_beats_job_level_schedulers_on_facebook_mix() {
        // A small cluster keeps the down-scaled mix contended, which is
        // where scheduling policy matters.
        let mut fw = Framework::new();
        fw.cluster.nodes = 2;
        fw.cluster.containers_per_node = 6;
        // Train small models first.
        let config = PopulationConfig {
            n_queries: 40,
            scales_gb: vec![0.5, 1.0],
            scale_out_gb: vec![],
            seed: 41,
        };
        let mut pool = DbPool::new(41);
        let pop = generate_population(&config, &mut pool);
        let runs = run_population(&pop, &mut pool, &fw).expect("population runs");
        let (train, _) = split_train_test(&runs);
        let predictor = Predictor::new(fit_models(&train, &fw).expect("models fit"), fw);

        // Facebook mix at 1/50 scale with tight arrivals (contention).
        let prepared =
            prepare_workload(&facebook_mix(), &mut pool, &fw, Some(&predictor), 1.0, 10.0, 41);
        let report = run_schedulers(&prepared, &fw, true);
        assert_eq!(report.outcomes.len(), 5);
        let swrd = report.outcome("SWRD").unwrap().mean_response;
        let hcs = report.outcome("HCS").unwrap().mean_response;
        let hfs = report.outcome("HFS").unwrap().mean_response;
        // Under heavy contention the paper reports 27-73% reductions; our
        // scaled-down setup shows the same ordering with clear margins.
        assert!(swrd < 0.6 * hcs, "SWRD {swrd} vs HCS {hcs}");
        assert!(swrd < 0.8 * hfs, "SWRD {swrd} vs HFS {hfs}");
        for o in &report.outcomes {
            assert!(
                o.p50 <= o.p95 && o.p95 <= o.p99,
                "{}: tail percentiles unordered",
                o.scheduler
            );
            assert!(o.p99 > 0.0);
        }
        assert!(format!("{report}").contains("SWRD vs HCS"));
        assert!(format!("{report}").contains("p95"));
    }
}
