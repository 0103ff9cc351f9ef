//! Prediction-error telemetry: [`record_sim_outcomes`] turns simulator
//! outcomes into a [`sapred_obs::Event::PredictionError`] stream, comparing
//! each job's percolated prediction against what the simulated cluster
//! actually measured. A [`DriftTracker`](sapred_obs::DriftTracker) fed by
//! it reports the same error measure as the accuracy tables (Tables 3–5).

use sapred_cluster::job::SimQuery;
use sapred_cluster::sim::{ClusterConfig, SimReport};
use sapred_obs::profile::Profiler;
use sapred_obs::{Event, EventSink, Quantity};
use sapred_plan::dag::JobCategory;
use sapred_predict::wrd::{job_time_waves, JobResource};

/// Most frequent category in a list (ties go to the earliest seen). Used to
/// tag query-level observations, which span jobs of several categories.
fn dominant_category(cats: impl IntoIterator<Item = JobCategory>) -> JobCategory {
    let order = [JobCategory::Extract, JobCategory::Groupby, JobCategory::Join];
    let mut counts = [0usize; 3];
    let mut first = [usize::MAX; 3];
    for (i, c) in cats.into_iter().enumerate() {
        let k = order.iter().position(|&o| o == c).expect("known category");
        counts[k] += 1;
        first[k] = first[k].min(i);
    }
    let best = (0..3)
        .max_by(|&a, &b| counts[a].cmp(&counts[b]).then(first[b].cmp(&first[a])))
        .expect("non-empty");
    order[best]
}

/// Emit `PredictionError` events comparing each simulated query's and job's
/// *percolated* predictions (carried on the [`SimQuery`]) against the
/// measured outcomes in `report`. Returns the number of events emitted.
///
/// Task-level observations use the per-task time predictions directly;
/// job-level predictions apply the wave model (§4.2) over the cluster's
/// containers; query-level predictions take the critical path of wave times
/// plus submission overheads. Queries prepared *without* a predictor carry
/// all-zero predictions — the resulting events are still emitted (a drift
/// tracker will report 100% error, which is accurate).
///
/// The whole pass is timed under a `"drift_pass"` span on `prof`; pass a
/// [`sapred_obs::NullProfiler`] to skip the timing at no cost.
pub fn record_sim_outcomes<K: EventSink, P: Profiler>(
    queries: &[SimQuery],
    report: &SimReport,
    config: &ClusterConfig,
    sink: &mut K,
    prof: &P,
) -> usize {
    let _pass = prof.span("drift_pass");
    let containers = config.total_containers();
    let mut emitted = 0usize;
    for js in &report.jobs {
        let job = &queries[js.query.0].jobs[js.job.0];
        sink.emit(&Event::PredictionError {
            t: js.finish,
            query: js.query,
            job: js.job,
            category: js.category,
            quantity: Quantity::MapTask,
            predicted: job.prediction.map_task_time,
            actual: js.map_task_avg,
        });
        emitted += 1;
        if js.n_reduces > 0 {
            sink.emit(&Event::PredictionError {
                t: js.finish,
                query: js.query,
                job: js.job,
                category: js.category,
                quantity: Quantity::ReduceTask,
                predicted: job.prediction.reduce_task_time,
                actual: js.reduce_task_avg,
            });
            emitted += 1;
        }
        let resource = JobResource {
            map_time: job.prediction.map_task_time,
            maps_remaining: js.n_maps,
            reduce_time: job.prediction.reduce_task_time,
            reduces_remaining: js.n_reduces,
        };
        sink.emit(&Event::PredictionError {
            t: js.finish,
            query: js.query,
            job: js.job,
            category: js.category,
            quantity: Quantity::Job,
            predicted: job_time_waves(&resource, containers, 0.0),
            actual: js.duration(),
        });
        emitted += 1;
    }
    for (qi, (q, stat)) in queries.iter().zip(&report.queries).enumerate() {
        // Critical path of per-job wave times + submission overheads (jobs
        // are topologically ordered, so one forward pass suffices).
        let mut acc = vec![0.0f64; q.jobs.len()];
        let mut predicted = 0.0f64;
        for j in &q.jobs {
            let resource = JobResource {
                map_time: j.prediction.map_task_time,
                maps_remaining: j.maps.len(),
                reduce_time: j.prediction.reduce_task_time,
                reduces_remaining: j.reduces.len(),
            };
            let own = job_time_waves(&resource, containers, config.submit_overhead);
            let dep = j.deps.iter().map(|&d| acc[d.0]).fold(0.0, f64::max);
            acc[j.id.0] = dep + own;
            predicted = predicted.max(acc[j.id.0]);
        }
        sink.emit(&Event::PredictionError {
            t: stat.finish,
            query: sapred_cluster::QueryId(qi),
            job: sapred_cluster::JobId(0),
            category: dominant_category(q.jobs.iter().map(|j| j.category)),
            quantity: Quantity::Query,
            predicted,
            actual: stat.response(),
        });
        emitted += 1;
    }
    emitted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::accuracy::{
        job_accuracy, map_task_accuracy, reduce_task_accuracy, TaskAccuracyReport,
    };
    use crate::framework::{Framework, Predictor};
    use crate::training::{
        fit_models, job_samples, map_task_samples, reduce_task_samples, run_population,
        split_train_test, TaskSample,
    };
    use sapred_obs::{DriftStat, DriftTracker};
    use sapred_predict::metrics::avg_rel_error;
    use sapred_predict::TaskTimeModel;
    use sapred_workload::pool::DbPool;
    use sapred_workload::population::{generate_population, PopulationConfig};

    /// The drift tracker's MARE is the accuracy tables' average relative
    /// error: over Tables 3–5's own (predicted, measured) pairs, each row's
    /// `DriftStat` equals `avg_rel_error` and the table's figure.
    #[test]
    fn drift_mare_matches_accuracy_tables() {
        let fw = Framework::new();
        let config = PopulationConfig {
            n_queries: 60,
            scales_gb: vec![0.5, 1.0, 2.0],
            scale_out_gb: vec![4.0],
            seed: 29,
        };
        let mut pool = DbPool::new(29);
        let pop = generate_population(&config, &mut pool);
        let runs = run_population(&pop, &mut pool, &fw).expect("population runs");
        let (train, _) = split_train_test(&runs);
        let models = fit_models(&train, &fw).expect("models fit");

        let runs = || train.iter().copied();
        let jobs: Vec<_> = job_samples(runs())
            .iter()
            .map(|s| (s.category, models.job.predict(&s.features), s.measured))
            .collect();
        let task_pairs = |samples: Vec<TaskSample>, model: &TaskTimeModel| -> Vec<_> {
            samples.iter().map(|s| (s.category, model.predict(&s.features), s.measured)).collect()
        };
        let maps = task_pairs(map_task_samples(runs(), &fw), &models.map_task);
        let reduces = task_pairs(reduce_task_samples(runs(), &fw), &models.reduce_task);
        // Tables 4–5 also pool every category in a "Together" row.
        let with_pooled = |t: TaskAccuracyReport| [t.per_category, vec![t.together]].concat();
        let tables = [
            ("job", jobs, job_accuracy(&train, &[], &models).per_category),
            ("map", maps, with_pooled(map_task_accuracy(&train, &models, &fw))),
            ("reduce", reduces, with_pooled(reduce_task_accuracy(&train, &models, &fw))),
        ];
        for (kind, pairs, rows) in tables {
            for row in rows {
                let pooled = row.label == "Together";
                let (pred, actual): (Vec<f64>, Vec<f64>) = pairs
                    .iter()
                    .filter(|(c, ..)| pooled || c.to_string() == row.label)
                    .map(|&(_, p, a)| (p, a))
                    .unzip();
                let mut stat = DriftStat::default();
                for (&p, &a) in pred.iter().zip(&actual) {
                    stat.record(p, a);
                }
                assert!(stat.n > 0, "{kind}/{}: no samples", row.label);
                assert_eq!(stat.n as usize, row.n, "{kind}/{}", row.label);
                let mare = stat.mare().to_bits();
                assert_eq!(mare, avg_rel_error(&pred, &actual).to_bits(), "{kind}/{}", row.label);
                assert_eq!(mare, row.avg_err.to_bits(), "{kind}/{}", row.label);
            }
        }
    }

    #[test]
    fn sim_outcomes_produce_consistent_event_counts() {
        use crate::experiments::scheduling::prepare_workload;
        use sapred_cluster::sched::Swrd;
        use sapred_cluster::sim::Simulator;
        use sapred_workload::mixes::facebook_mix;

        let mut fw = Framework::new();
        fw.cluster.nodes = 2;
        fw.cluster.containers_per_node = 6;
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
        let prepared =
            prepare_workload(&facebook_mix(), &mut pool, &fw, Some(&predictor), 1.0, 10.0, 41);

        let report = Simulator::new(fw.cluster, fw.cost, Swrd).run(&prepared.queries);
        let mut drift = DriftTracker::new();
        let emitted = record_sim_outcomes(
            &prepared.queries,
            &report,
            &fw.cluster,
            &mut drift,
            &sapred_obs::NullProfiler,
        );
        assert!(emitted > 0);
        // One map + one job observation per job, one per query; reduces
        // only where present.
        let with_reduce = report.jobs.iter().filter(|j| j.n_reduces > 0).count();
        assert_eq!(emitted, 2 * report.jobs.len() + with_reduce + report.queries.len());
        // Percolated predictions should land within an order of magnitude
        // of the simulated truth on aggregate.
        let job_mare = drift.aggregate(Quantity::Job).mare();
        assert!(job_mare < 2.0, "job MARE {job_mare}");
        assert!(drift.aggregate(Quantity::Query).n > 0);

        // A profiled pass emits the same stream and times the pass.
        let prof = sapred_obs::SpanProfiler::new();
        let mut drift2 = DriftTracker::new();
        let again =
            record_sim_outcomes(&prepared.queries, &report, &fw.cluster, &mut drift2, &prof);
        assert_eq!(again, emitted);
        assert_eq!(prof.span_stat("drift_pass").unwrap().count, 1);
        assert!(prof.balanced());
    }

    #[test]
    fn dominant_category_prefers_majority_then_first() {
        use sapred_plan::dag::JobCategory::{Extract, Groupby, Join};
        assert_eq!(dominant_category([Extract, Join, Join]), Join);
        assert_eq!(dominant_category([Groupby]), Groupby);
        // Tie: the category seen first wins.
        assert_eq!(dominant_category([Join, Extract]), Join);
        assert_eq!(dominant_category([Extract, Join]), Extract);
    }
}
