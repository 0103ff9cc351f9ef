//! Prediction-error telemetry: turn trained-model evaluations and simulator
//! outcomes into [`sapred_obs::Event::PredictionError`] streams.
//!
//! [`record_training_runs`] samples exactly as the accuracy experiments
//! (Tables 3–5) do — via the same extractors in [`crate::training`] with the
//! same skip rules — so a [`DriftTracker`](sapred_obs::DriftTracker) fed by
//! it reproduces the tables' per-category average relative errors to the
//! last bit. [`record_sim_outcomes`] does the online equivalent: it compares
//! each job's percolated prediction against what the simulated cluster
//! actually measured.

use crate::framework::{Predictor, QuerySemantics};
use crate::training::{job_samples, map_task_samples, reduce_task_samples, QueryRun};
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

/// Emit one `PredictionError` event per accuracy-experiment sample of
/// `runs`: job times (Table 3), map-task times (Table 4), reduce-task times
/// (Table 5), and idle-cluster query response times (Fig. 7). Returns the
/// number of events emitted.
///
/// Sampling is delegated to the same extractors the accuracy experiments
/// use ([`job_samples`], [`map_task_samples`], [`reduce_task_samples`]), so
/// per-category MARE computed from the resulting event stream matches the
/// tables' `avg_rel_error` exactly.
pub fn record_training_runs<K: EventSink>(
    runs: &[&QueryRun],
    predictor: &Predictor,
    sink: &mut K,
) -> usize {
    let fw = &predictor.framework;
    let mut emitted = 0usize;
    for (qi, r) in runs.iter().enumerate() {
        let one = || std::iter::once(*r);
        // Job samples come out 1:1 with the DAG's jobs, in order.
        for (job, s) in job_samples(one()).iter().enumerate() {
            sink.emit(&Event::PredictionError {
                t: 0.0,
                query: sapred_cluster::QueryId(qi),
                job: sapred_cluster::JobId(job),
                category: s.category,
                quantity: Quantity::Job,
                predicted: predictor.models.job.predict(&s.features),
                actual: s.measured,
            });
            emitted += 1;
        }
        // Task extractors skip some jobs; recover each sample's job index by
        // replaying the identical filter over the run's job stats.
        let map_jobs = r.job_stats.iter().enumerate().filter(|(_, st)| st.map_task_avg > 0.0);
        for (s, (job, _)) in map_task_samples(one(), fw).iter().zip(map_jobs) {
            sink.emit(&Event::PredictionError {
                t: 0.0,
                query: sapred_cluster::QueryId(qi),
                job: sapred_cluster::JobId(job),
                category: s.category,
                quantity: Quantity::MapTask,
                predicted: predictor.models.map_task.predict(&s.features),
                actual: s.measured,
            });
            emitted += 1;
        }
        let reduce_jobs = r
            .job_stats
            .iter()
            .zip(&r.has_reduce)
            .enumerate()
            .filter(|(_, (st, has))| **has && st.reduce_task_avg > 0.0);
        for (s, (job, _)) in reduce_task_samples(one(), fw).iter().zip(reduce_jobs) {
            sink.emit(&Event::PredictionError {
                t: 0.0,
                query: sapred_cluster::QueryId(qi),
                job: sapred_cluster::JobId(job),
                category: s.category,
                quantity: Quantity::ReduceTask,
                predicted: predictor.models.reduce_task.predict(&s.features),
                actual: s.measured,
            });
            emitted += 1;
        }
        // Whole-query response on an idle cluster (Fig. 7's quantity).
        let semantics = QuerySemantics { dag: r.dag.clone(), estimates: r.estimates.clone() };
        sink.emit(&Event::PredictionError {
            t: 0.0,
            query: sapred_cluster::QueryId(qi),
            job: sapred_cluster::JobId(0),
            category: dominant_category(r.estimates.iter().map(|e| e.category)),
            quantity: Quantity::Query,
            predicted: predictor.query_seconds(&semantics),
            actual: r.response,
        });
        emitted += 1;
    }
    emitted
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
    use crate::experiments::accuracy::{job_accuracy, map_task_accuracy, reduce_task_accuracy};
    use crate::framework::Framework;
    use crate::training::{fit_models, run_population, split_train_test};
    use sapred_obs::DriftTracker;
    use sapred_workload::pool::DbPool;
    use sapred_workload::population::{generate_population, PopulationConfig};

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
        let predictor = Predictor::new(models.clone(), fw);

        let mut drift = DriftTracker::new();
        let emitted = record_training_runs(&train, &predictor, &mut drift);
        assert!(emitted > 0);
        assert_eq!(drift.total_samples() as usize, emitted);

        // Per-category MARE from the event stream must reproduce the
        // accuracy tables' avg_rel_error on the identical sample sets.
        let job = job_accuracy(&train, &[], &models);
        let map = map_task_accuracy(&train, &models, &fw);
        let reduce = reduce_task_accuracy(&train, &models, &fw);
        let cat_of = |label: &str| match label {
            "Groupby" => sapred_plan::dag::JobCategory::Groupby,
            "Join" => sapred_plan::dag::JobCategory::Join,
            "Extract" => sapred_plan::dag::JobCategory::Extract,
            other => panic!("unexpected label {other}"),
        };
        for row in &job.per_category {
            let cell = drift.cell(Quantity::Job, cat_of(&row.label));
            assert_eq!(cell.n as usize, row.n, "job/{}", row.label);
            assert!(
                (cell.mare() - row.avg_err).abs() < 1e-9,
                "job/{}: {} vs {}",
                row.label,
                cell.mare(),
                row.avg_err
            );
        }
        for (table, quantity) in [(&map, Quantity::MapTask), (&reduce, Quantity::ReduceTask)] {
            for row in &table.per_category {
                let cell = drift.cell(quantity, cat_of(&row.label));
                assert_eq!(cell.n as usize, row.n, "{}/{}", table.kind, row.label);
                assert!(
                    (cell.mare() - row.avg_err).abs() < 1e-9,
                    "{}/{}: {} vs {}",
                    table.kind,
                    row.label,
                    cell.mare(),
                    row.avg_err
                );
            }
            // The pooled "Together" row matches the per-quantity aggregate.
            assert!(
                (drift.aggregate(quantity).mare() - table.together.avg_err).abs() < 1e-9,
                "{} together",
                table.kind
            );
        }
        // Query-level drift exists and is bounded (one sample per run).
        assert_eq!(drift.aggregate(Quantity::Query).n as usize, train.len());
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
