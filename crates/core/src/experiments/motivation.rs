//! The motivation experiment (paper §2.1, Figs. 1–2): two instances of
//! TPC-H Q14 (QA, QC — 2 jobs each, small input) and one of Q17 (QB — 4
//! jobs, 10× the input) submitted back-to-back. Under HCS, QB's root jobs
//! overtake QA-J2/QC-J2 (which are only submitted when their parents
//! finish), stalling the small queries ~3× beyond their alone times.

use crate::framework::{Framework, Predictor};
use crate::report::{bar_chart, secs, text_table};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sapred_cluster::build::build_sim_query;
use sapred_cluster::job::SimQuery;
use sapred_cluster::sched::{Hcs, Scheduler, Swrd};
use sapred_cluster::sim::Simulator;
use sapred_plan::ground_truth::execute_dag;
use sapred_selectivity::estimate::estimate_dag;
use sapred_workload::pool::DbPool;
use sapred_workload::templates::Template;

/// One query's outcomes across the three runs.
#[derive(Debug, Clone)]
pub struct MotivationRow {
    /// QA / QB / QC.
    pub name: String,
    /// Jobs in the query's DAG.
    pub jobs: usize,
    /// Nominal input scale in GB.
    pub scale_gb: f64,
    /// Response when run alone on the idle cluster (HCS).
    pub alone: f64,
    /// Response in the mixed HCS run.
    pub hcs: f64,
    /// Response in the mixed SWRD run (None when no predictor given).
    pub swrd: Option<f64>,
}

impl MotivationRow {
    /// Mixed-run slowdown relative to running alone under HCS.
    pub fn hcs_slowdown(&self) -> f64 {
        self.hcs / self.alone
    }
}

/// Figs. 1–2 reproduction.
#[derive(Debug, Clone)]
pub struct MotivationReport {
    /// QA, QB, QC in submission order.
    pub rows: Vec<MotivationRow>,
}

impl MotivationReport {
    /// Mean slowdown of the two small queries (QA, QC) under HCS — the
    /// paper observes ≈3×.
    pub fn small_query_slowdown(&self) -> f64 {
        (self.rows[0].hcs_slowdown() + self.rows[2].hcs_slowdown()) / 2.0
    }
}

impl std::fmt::Display for MotivationReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    r.jobs.to_string(),
                    format!("{:.0} GB", r.scale_gb),
                    secs(r.alone),
                    secs(r.hcs),
                    format!("{:.2}x", r.hcs_slowdown()),
                    r.swrd.map(secs).unwrap_or_else(|| "-".to_string()),
                ]
            })
            .collect();
        writeln!(
            f,
            "Figs. 1-2: HCS resource thrashing (QA/QC = Q14, QB = Q17)\n{}",
            text_table(
                &["query", "jobs", "input", "alone", "HCS mixed", "HCS slowdown", "SWRD mixed"],
                &rows
            )
        )?;
        let mut bars = Vec::new();
        for r in &self.rows {
            bars.push((format!("{} alone", r.name), r.alone));
            bars.push((format!("{} mixed", r.name), r.hcs));
        }
        write!(f, "{}", bar_chart(&bars, 50))
    }
}

/// Run the motivation experiment. `small_gb`/`big_gb` default to the
/// paper's 10 GB / 100 GB in the bench; tests pass smaller scales.
pub fn motivation(
    pool: &mut DbPool,
    fw: &Framework,
    predictor: Option<&Predictor>,
    small_gb: f64,
    big_gb: f64,
) -> MotivationReport {
    let mut rng = StdRng::seed_from_u64(2018);
    // Instantiate QA, QB, QC.
    let mut specs = Vec::new();
    for (name, template, gb) in [
        ("QA", Template::Q14Promo, small_gb),
        ("QB", Template::Q17SmallQuantity, big_gb),
        ("QC", Template::Q14Promo, small_gb),
    ] {
        let db = pool.get(gb);
        let dag = template.instantiate(db, &mut rng).expect("template instantiation");
        let actuals = execute_dag(&dag, db, fw.est_config.block_size);
        let estimates = estimate_dag(&dag, db.catalog(), &fw.est_config);
        let predictions = predictor
            .map(|p| {
                dag.jobs()
                    .iter()
                    .zip(&estimates)
                    .map(|(job, est)| p.job_prediction(est, job.kind.has_reduce()))
                    .collect::<Vec<_>>()
            })
            .unwrap_or_default();
        specs.push((name.to_string(), gb, dag, actuals, predictions));
    }

    // Alone runs (HCS on an idle cluster).
    let alone: Vec<f64> = specs
        .iter()
        .map(|(name, _, dag, actuals, preds)| {
            let q = build_sim_query(name, 0.0, dag, actuals, preds, &fw.cluster);
            simulate(fw, Hcs, std::slice::from_ref(&q)).queries[0].response()
        })
        .collect();

    // Mixed runs: submitted back-to-back, 1 second apart (paper: "one after
    // another").
    let mixed: Vec<SimQuery> = specs
        .iter()
        .enumerate()
        .map(|(i, (name, _, dag, actuals, preds))| {
            build_sim_query(name, i as f64, dag, actuals, preds, &fw.cluster)
        })
        .collect();
    let hcs = simulate(fw, Hcs, &mixed);
    let swrd = predictor.map(|_| simulate(fw, Swrd, &mixed));

    let rows = specs
        .iter()
        .enumerate()
        .map(|(i, (name, gb, dag, _, _))| MotivationRow {
            name: name.clone(),
            jobs: dag.len(),
            scale_gb: *gb,
            alone: alone[i],
            hcs: hcs.queries[i].response(),
            swrd: swrd.as_ref().map(|r| r.queries[i].response()),
        })
        .collect();
    MotivationReport { rows }
}

fn simulate<S: Scheduler>(
    fw: &Framework,
    sched: S,
    queries: &[SimQuery],
) -> sapred_cluster::sim::SimReport {
    Simulator::new(fw.cluster, fw.cost, sched).run(queries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_queries_stall_under_hcs() {
        let fw = Framework::new();
        let mut pool = DbPool::new(2018);
        // Scaled-down version of the paper's 10 GB / 100 GB setup: QB must
        // be large enough to saturate the 108-container cluster (>108 map
        // tasks per root job) for the thrashing to manifest.
        let report = motivation(&mut pool, &fw, None, 2.0, 60.0);
        assert_eq!(report.rows.len(), 3);
        assert_eq!(report.rows[0].jobs, 2, "Q14 compiles to 2 jobs");
        assert_eq!(report.rows[1].jobs, 4, "Q17 compiles to 4 jobs");
        // The paper observes ~3×; require a clear stall (>1.5×) at our
        // scaled-down ratio.
        let slowdown = report.small_query_slowdown();
        assert!(slowdown > 1.4, "small-query slowdown {slowdown}");
        // QB itself is barely affected — it grabbed the resources.
        assert!(report.rows[1].hcs_slowdown() < slowdown);
        let text = format!("{report}");
        assert!(text.contains("QA") && text.contains("QB") && text.contains("QC"));
    }
}
