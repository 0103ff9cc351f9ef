//! The paper's whole evaluation (§5) from one configuration, in print
//! order: what `sapred reproduce` prints.
//!
//! One [`Pipeline`] with database seed [`POPULATION_SEED`] is trained on
//! [`paper_population`], then prepares both Table 2 mixes of
//! [`paper_mixes`] with mix seed [`MIX_SEED`]. Every artifact reads that
//! pipeline: Figs. 1–2 (with the SWRD column from the trained predictor),
//! Table 2, Table 3 + Fig. 6, Tables 4–5, Fig. 7, Fig. 8 on both mixes, and
//! the ablations A1, A2, A3 and A5. The repository benchmark (`perfbench`,
//! workload `paper`) runs the same configuration, and
//! [`Reproduction::fidelity`] returns the eleven values it checks, in its
//! order.

use crate::error::Error;
use crate::experiments::ablation::{
    feature_ablation, histogram_ablation, map_join_ablation, swrd_noise, FeatureAblationReport,
    HistogramAblationReport, MapJoinReport, SwrdNoiseReport,
};
use crate::experiments::accuracy::{
    job_accuracy, map_task_accuracy, reduce_task_accuracy, JobAccuracyReport, TaskAccuracyReport,
};
use crate::experiments::motivation::{motivation, MotivationReport};
use crate::experiments::query_time::{query_prediction, QueryPredictionReport};
use crate::experiments::scheduling::{run_schedulers, PreparedWorkload, SchedulingReport};
use crate::pipeline::Pipeline;
use crate::report::{scatter_plot, text_table};
use sapred_workload::mixes::{bing_mix, facebook_mix, MixSpec};
use sapred_workload::population::PopulationConfig;
use std::fmt;

/// Database and population seed of the paper configuration.
pub const POPULATION_SEED: u64 = 71;
/// Seed of the Fig. 8 mixes' arrivals and instances.
pub const MIX_SEED: u64 = 79;
/// Figs. 1–2's input scales: QA/QC (Q14) and QB (Q17), in GB.
const MOTIVATION_GB: (f64, f64) = (10.0, 100.0);
/// A2: bucket counts swept, the Zipf exponents, and the database.
const HISTOGRAM_BUCKETS: [usize; 5] = [1, 4, 16, 64, 256];
const HISTOGRAM_ALPHAS: [f64; 2] = [0.8, 1.2];
const HISTOGRAM_GB: f64 = 2.0;
const HISTOGRAM_SEED: u64 = 89;
/// A3: log-normal degradation levels of the oracle predictions.
const NOISE_SIGMAS: [f64; 4] = [0.25, 0.5, 1.0, 2.0];
/// A5: the scales compared, the map-join threshold and the database.
const MAP_JOIN_GB: [f64; 2] = [10.0, 50.0];
const MAP_JOIN_THRESHOLD: f64 = 512.0 * 1024.0 * 1024.0;
const MAP_JOIN_SEED: u64 = 67;

/// §5.1's training population: 1,000 queries at 1–100 GB plus one query
/// each at 150, 200 and 400 GB, which land in the test set.
pub fn paper_population() -> PopulationConfig {
    PopulationConfig {
        n_queries: 1000,
        scales_gb: vec![1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0],
        scale_out_gb: vec![150.0, 200.0, 400.0],
        seed: POPULATION_SEED,
    }
}

/// Fig. 8's mixes (Table 2) with their mean Poisson gaps in seconds.
pub fn paper_mixes() -> [(MixSpec, f64); 2] {
    [(bing_mix(), 8.0), (facebook_mix(), 3.0)]
}

/// Tables 3–5 and Figs. 6–8: everything the fidelity values come from.
pub struct Evaluation {
    /// Population queries run.
    pub queries: usize,
    /// Jobs across all population queries.
    pub jobs: usize,
    /// Queries in the training split.
    pub train_queries: usize,
    /// Queries in the test split.
    pub test_queries: usize,
    /// Table 3 + Fig. 6.
    pub job: JobAccuracyReport,
    /// Table 4.
    pub map: TaskAccuracyReport,
    /// Table 5.
    pub reduce: TaskAccuracyReport,
    /// Fig. 7, over the test queries at 100 GB and above.
    pub fig7: QueryPredictionReport,
    /// The prepared mixes, in [`paper_mixes`] order.
    pub mixes: Vec<PreparedWorkload>,
    /// Fig. 8, one report per mix, in [`paper_mixes`] order.
    pub fig8: Vec<SchedulingReport>,
}

impl Evaluation {
    /// The eleven fidelity values in the benchmark's order: Table 3's R²
    /// for Groupby, Join and Extract; Table 3's test-set error; Table 4's
    /// and Table 5's pooled R²; Fig. 7's error; SWRD's improvement over
    /// HCS and HFS on Bing, then on Facebook.
    pub fn fidelity(&self) -> [f64; 11] {
        let mut v: Vec<f64> = self.job.per_category.iter().map(|r| r.r2).collect();
        v.extend([self.job.test.avg_err, self.map.together.r2, self.reduce.together.r2]);
        v.push(self.fig7.avg_err);
        for report in &self.fig8 {
            v.extend([report.swrd_improvement_vs("HCS"), report.swrd_improvement_vs("HFS")]);
        }
        v.try_into().expect("three categories, four summaries, two mixes of two")
    }
}

/// Train `pipe` on `population`, evaluate Tables 3–5 and Fig. 7, then run
/// both mixes with their sizes divided by `divisor` under every scheduler.
fn evaluate(
    pipe: &mut Pipeline,
    population: &PopulationConfig,
    divisor: f64,
) -> Result<Evaluation, Error> {
    let fw = *pipe.framework();
    pipe.train(population)?;
    let training = pipe.training().expect("just trained");
    let predictor = pipe.predictor()?;
    let (train, test) = training.split();
    let mut eval = Evaluation {
        queries: training.runs.len(),
        jobs: training.runs.iter().map(|r| r.job_stats.len()).sum(),
        train_queries: train.len(),
        test_queries: test.len(),
        job: job_accuracy(&train, &test, &training.models),
        map: map_task_accuracy(&train, &training.models, &fw),
        reduce: reduce_task_accuracy(&train, &training.models, &fw),
        fig7: query_prediction(&test, predictor, |r| r.scale_gb >= 100.0),
        mixes: Vec::new(),
        fig8: Vec::new(),
    };
    for (mix, gap) in paper_mixes() {
        let prepared = pipe.prepare_mix(&mix, gap, divisor, MIX_SEED);
        eval.fig8.push(run_schedulers(&prepared, &fw, true));
        eval.mixes.push(prepared);
    }
    Ok(eval)
}

/// The paper's evaluation and our ablations, from [`reproduce`]. Its
/// `Display` prints every artifact in the paper's order.
pub struct Reproduction {
    /// Figs. 1–2.
    pub motivation: MotivationReport,
    /// Tables 3–5, Figs. 6–8 and the prepared Table 2 mixes.
    pub evaluation: Evaluation,
    /// A1: Eq. 8 feature subsets.
    pub features: FeatureAblationReport,
    /// A2: one histogram-resolution sweep per Zipf exponent.
    pub histograms: Vec<HistogramAblationReport>,
    /// A3: SWRD on the Facebook mix under degraded predictions.
    pub swrd_noise: SwrdNoiseReport,
    /// A5: map-join conversion, per database scale in GB.
    pub map_join: Vec<(f64, MapJoinReport)>,
}

impl Reproduction {
    /// [`Evaluation::fidelity`] of this reproduction.
    pub fn fidelity(&self) -> [f64; 11] {
        self.evaluation.fidelity()
    }
}

/// Run the whole evaluation on the paper configuration (module docs).
/// Deterministic: the same build prints the same bytes at any thread
/// count. About 20 s in a release build on two cores.
pub fn reproduce() -> Result<Reproduction, Error> {
    let mut pipe = Pipeline::with_seed(POPULATION_SEED);
    let evaluation = evaluate(&mut pipe, &paper_population(), 1.0)?;
    let fw = *pipe.framework();
    let predictor = pipe.predictor()?.clone();
    let (small_gb, big_gb) = MOTIVATION_GB;
    let motivation = motivation(pipe.pool_mut(), &fw, Some(&predictor), small_gb, big_gb);
    let (train, test) = pipe.training().expect("evaluate trains").split();
    let features = feature_ablation(&train, &test);
    let histograms = HISTOGRAM_ALPHAS
        .iter()
        .map(|&alpha| histogram_ablation(&HISTOGRAM_BUCKETS, HISTOGRAM_GB, alpha, HISTOGRAM_SEED))
        .collect();
    let facebook = evaluation
        .mixes
        .iter()
        .find(|m| m.mix_name == facebook_mix().name)
        .expect("the Facebook mix is one of the paper mixes");
    let swrd_noise = swrd_noise(&facebook.queries, &fw, &NOISE_SIGMAS, MIX_SEED);
    let map_join = MAP_JOIN_GB
        .iter()
        .map(|&gb| (gb, map_join_ablation(gb, MAP_JOIN_THRESHOLD, &fw, MAP_JOIN_SEED)))
        .collect();
    Ok(Reproduction { motivation, evaluation, features, histograms, swrd_noise, map_join })
}

/// Table 2: the mixes' bin compositions, then each prepared instance.
fn write_table2(f: &mut fmt::Formatter<'_>, mixes: &[PreparedWorkload]) -> fmt::Result {
    let [(bing, _), (facebook, _)] = paper_mixes();
    let labels = ["1-10 GB", "20 GB", "50 GB", "100 GB", ">100 GB"];
    let rows: Vec<Vec<String>> = labels
        .iter()
        .enumerate()
        .map(|(i, label)| {
            vec![
                (i + 1).to_string(),
                label.to_string(),
                bing.bins[i].count.to_string(),
                facebook.bins[i].count.to_string(),
            ]
        })
        .collect();
    writeln!(
        f,
        "Table 2: composition of Bing and Facebook workloads\n{}",
        text_table(&["Bin", "Input Size", "Bing", "Facebook"], &rows)
    )?;
    for m in mixes {
        let jobs: usize = m.queries.iter().map(|q| q.jobs.len()).sum();
        let horizon = m.queries.last().map_or(0.0, |q| q.arrival);
        writeln!(
            f,
            "{} instance: {} queries, {jobs} jobs, last arrival {horizon:.0}s",
            m.mix_name,
            m.queries.len()
        )?;
    }
    Ok(())
}

impl fmt::Display for Reproduction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let e = &self.evaluation;
        writeln!(
            f,
            "Reproduction: population seed {POPULATION_SEED}, mix seed {MIX_SEED}\n\n{}",
            self.motivation
        )?;
        writeln!(
            f,
            "small-query (QA/QC) HCS slowdown: {:.2}x (paper: ~3x)\n",
            self.motivation.small_query_slowdown()
        )?;
        write_table2(f, &e.mixes)?;
        writeln!(
            f,
            "\npopulation: {} queries -> {} jobs ({} train / {} test queries)\n\n{}",
            e.queries, e.jobs, e.train_queries, e.test_queries, e.job
        )?;
        writeln!(
            f,
            "Fig. 6: predicted vs actual job time, test set (seconds):\n{}",
            scatter_plot(&e.job.scatter, 64, 20)
        )?;
        writeln!(f, "{}\n{}\n{}", e.map, e.reduce, e.fig7)?;
        let points: Vec<(f64, f64)> =
            e.fig7.points.iter().map(|p| (p.actual, p.predicted)).collect();
        writeln!(
            f,
            "Fig. 7: predicted vs actual query response (seconds):\n{}",
            scatter_plot(&points, 64, 20)
        )?;
        for report in &e.fig8 {
            writeln!(f, "{report}")?;
        }
        writeln!(f, "{}", self.features)?;
        for report in &self.histograms {
            writeln!(f, "{report}")?;
        }
        writeln!(f, "{}", self.swrd_noise)?;
        let map_join: Vec<String> =
            self.map_join.iter().map(|(gb, report)| format!("scale {gb} GB:\n{report}")).collect();
        write!(f, "{}", map_join.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reduced paper configuration through the same evaluation and the
    /// same extraction as [`reproduce`]: the debug-build tripwire for
    /// fidelity drift. The 100 GB scale-out query gives Fig. 7 its point.
    /// At divisor 10 the mixes barely contend, so the Fig. 8 values are
    /// small; they are pinned all the same.
    #[test]
    fn reduced_fidelity_values_are_pinned() {
        let population = PopulationConfig {
            n_queries: 60,
            scales_gb: vec![1.0, 2.0, 5.0],
            scale_out_gb: vec![100.0],
            seed: POPULATION_SEED,
        };
        let mut pipe = Pipeline::with_seed(POPULATION_SEED);
        let eval = evaluate(&mut pipe, &population, 10.0).expect("reduced evaluation runs");
        assert!(!eval.fig7.points.is_empty(), "Fig. 7 needs a test query at 100 GB");
        let values = eval.fidelity();
        for (i, v) in values[..7].iter().enumerate() {
            assert!(v.is_finite() && *v != 0.0, "Tables 3-5 / Fig. 7 value {i} is {v}");
        }
        let bits = values.map(f64::to_bits);
        let pinned: [u64; 11] = [
            0x3feb7df24a5797ac,
            0x3feadfac040f671a,
            0x3fefda5ea62ca646,
            0x3fdba336f96ecad4,
            0x3feecbb0e16665b3,
            0x3fedcbad41d2bf11,
            0x3fc23fa3a6566f55,
            0x3f4abcf6392b8000,
            0x3f3cb3c7426d9800,
            0x3f7ce9bfbb9eae00,
            0xbf4c88430c77c000,
        ];
        assert_eq!(bits, pinned, "fidelity drifted: {values:?}");
    }
}
