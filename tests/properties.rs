//! Cross-crate property-based tests (proptest) on the framework's core
//! invariants: histogram estimates, selectivity formulas, DAG metrics and
//! simulation sanity under randomized inputs.

use proptest::prelude::*;
use sapred::cluster::fault::{FaultPlan, NodeCrash};
use sapred::cluster::job::{JobPrediction, SimJob, SimQuery, TaskKind, TaskSpec};
use sapred::cluster::sched::{Fifo, Hcs, Hfs, Scheduler, Srt, Swrd};
use sapred::cluster::sim::{ClusterConfig, Run, SimReport, Simulator};
use sapred::cluster::CostModel;
use sapred::core::framework::{Framework, Predictor, QuerySemantics};
use sapred::core::progress::{JobProgress, ProgressEstimator};
use sapred::core::training::{fit_models, run_population, split_train_test};
use sapred::obs::JsonlSink;
use sapred::plan::dag::JobCategory;
use sapred::predict::metrics::{avg_rel_error, r_squared};
use sapred::predict::wrd::{job_time_waves, JobResource};
use sapred::relation::expr::CmpOp;
use sapred::relation::histogram::Histogram;
use sapred::relation::table::Column;
use sapred::selectivity::formulas::{join_size_bucketed, natural_chain_size, p_ratio, s_comb};
use sapred::workload::pool::DbPool;
use sapred::workload::population::{generate_population, PopulationConfig};

/// One trained predictor + a percolated three-job query, built once and
/// shared across all proptest cases (training is the expensive part).
fn progress_fixture() -> &'static (Predictor, QuerySemantics) {
    static FIXTURE: std::sync::OnceLock<(Predictor, QuerySemantics)> = std::sync::OnceLock::new();
    FIXTURE.get_or_init(|| {
        let fw = Framework::new();
        let config = PopulationConfig {
            n_queries: 30,
            scales_gb: vec![0.5, 1.0],
            scale_out_gb: vec![],
            seed: 17,
        };
        let mut pool = DbPool::new(17);
        let pop = generate_population(&config, &mut pool);
        let runs = run_population(&pop, &mut pool, &fw).expect("population runs");
        let (train, _) = split_train_test(&runs);
        let db = pool.get(1.0).clone();
        let semantics = fw
            .percolate_sql(
                "prop-progress",
                "SELECT l_partkey, sum(l_extendedprice) FROM lineitem l \
                 JOIN part p ON l.l_partkey = p.p_partkey \
                 GROUP BY l_partkey ORDER BY l_partkey",
                &db,
            )
            .expect("valid query");
        let predictor = Predictor::new(fit_models(&train, &fw).expect("models fit"), fw);
        (predictor, semantics)
    })
}

/// One fault-injected, dispatch-crosschecked simulation run, traced into a
/// JSONL sink so the exported event stream can be compared bit-for-bit.
fn run_faulted_traced<S: Scheduler>(
    s: S,
    queries: &[SimQuery],
    plan: &FaultPlan,
) -> (SimReport, Vec<u8>) {
    let config = ClusterConfig { nodes: 2, containers_per_node: 3, ..ClusterConfig::default() };
    let mut sink = JsonlSink::new(Vec::new());
    let report = Simulator::new(config, CostModel::default(), s)
        .crosschecked()
        .with_faults(plan.clone())
        .execute(queries, Run::new().sink(&mut sink))
        .unwrap()
        .into_report();
    (report, sink.finish().unwrap())
}

/// Two runs of the same (workload, plan, scheduler) must be bit-identical:
/// report, fault stats, and the entire exported event stream.
fn assert_fault_replay<S: Scheduler + Clone>(
    s: S,
    queries: &[SimQuery],
    plan: &FaultPlan,
    tag: &str,
) -> Result<(), TestCaseError> {
    let (r1, e1) = run_faulted_traced(s.clone(), queries, plan);
    let (r2, e2) = run_faulted_traced(s, queries, plan);
    prop_assert_eq!(r1.makespan.to_bits(), r2.makespan.to_bits(), "{}: makespan", tag);
    prop_assert_eq!(&r1.queries, &r2.queries, "{}: query stats", tag);
    prop_assert_eq!(&r1.jobs, &r2.jobs, "{}: job stats", tag);
    prop_assert_eq!(&r1.faults, &r2.faults, "{}: fault stats", tag);
    prop_assert!(e1 == e2, "{}: exported event streams diverge between replays", tag);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn histogram_selectivity_is_a_probability(
        values in prop::collection::vec(-1000i32..1000, 1..300),
        buckets in 1usize..32,
        op in prop::sample::select(vec![CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge]),
        threshold in -1500.0f64..1500.0,
    ) {
        let h = Histogram::from_column(&Column::Int(values.clone()), buckets);
        let s = h.selectivity_cmp(op, threshold);
        prop_assert!((0.0..=1.0).contains(&s), "selectivity {s}");
        // Complementary operators sum to 1.
        let complement = match op {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Ge => CmpOp::Lt,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
        };
        let sc = h.selectivity_cmp(complement, threshold);
        prop_assert!((s + sc - 1.0).abs() < 1e-6, "{s} + {sc} != 1");
    }

    #[test]
    fn histogram_mass_is_conserved_by_rebucket(
        values in prop::collection::vec(0i32..500, 1..200),
        src_buckets in 1usize..24,
        dst_buckets in 1usize..24,
    ) {
        let h = Histogram::from_column(&Column::Int(values.clone()), src_buckets);
        let r = h.rebucket(-10.0, 510.0, dst_buckets);
        let total: f64 = r.buckets().iter().map(|b| b.count).sum();
        prop_assert!((total - values.len() as f64).abs() < 1e-6);
    }

    #[test]
    fn bucketed_join_size_is_bounded_by_cartesian_product(
        left in prop::collection::vec(0i32..100, 1..200),
        right in prop::collection::vec(0i32..100, 1..200),
        buckets in 1usize..20,
    ) {
        let lh = Histogram::from_column(&Column::Int(left.clone()), buckets);
        let rh = Histogram::from_column(&Column::Int(right.clone()), buckets);
        let (est, joint) = join_size_bucketed(&lh, &rh);
        prop_assert!(est >= 0.0);
        prop_assert!(est <= left.len() as f64 * right.len() as f64 * 1.0001);
        prop_assert!((joint.total() - est).abs() < 1e-6);
    }

    #[test]
    fn p_ratio_and_skew_term_bounds(l in 1e-6f64..1e12, r in 1e-6f64..1e12) {
        let p = p_ratio(l, r);
        prop_assert!((0.5..=1.0).contains(&p), "p = {p}");
        let skew = p * (1.0 - p);
        prop_assert!((0.0..=0.25 + 1e-12).contains(&skew));
    }

    #[test]
    fn s_comb_is_a_selectivity(
        s_pred in 0.0f64..=1.0,
        d_keys in 1.0f64..1e7,
        rows in 1.0f64..1e8,
        n_maps in 1usize..1000,
        clustered in any::<bool>(),
    ) {
        let s = s_comb(s_pred, d_keys, rows, n_maps, clustered);
        prop_assert!((0.0..=1.0).contains(&s));
        prop_assert!(s <= s_pred + 1e-12, "combine cannot emit more than the filter admits");
        // Random layouts always combine at least as poorly as clustered.
        let sc = s_comb(s_pred, d_keys, rows, n_maps, true);
        let sr = s_comb(s_pred, d_keys, rows, n_maps, false);
        prop_assert!(sr >= sc - 1e-12);
    }

    #[test]
    fn natural_chain_never_exceeds_largest_table(
        s in prop::collection::vec(0.0f64..=1.0, 1..6),
        sizes in prop::collection::vec(1.0f64..1e9, 1..6),
    ) {
        let n = s.len().min(sizes.len());
        let est = natural_chain_size(&s[..n], &sizes[..n]);
        let max = sizes[..n].iter().cloned().fold(0.0, f64::max);
        prop_assert!(est <= max + 1e-6);
        prop_assert!(est >= 0.0);
    }

    #[test]
    fn metrics_bounds(
        actual in prop::collection::vec(0.1f64..1e5, 2..50),
        noise in prop::collection::vec(-0.5f64..0.5, 2..50),
    ) {
        let n = actual.len().min(noise.len());
        let pred: Vec<f64> = actual[..n].iter().zip(&noise[..n]).map(|(a, e)| a * (1.0 + e)).collect();
        let r2 = r_squared(&pred, &actual[..n]);
        prop_assert!(r2 <= 1.0 + 1e-9);
        let err = avg_rel_error(&pred, &actual[..n]);
        prop_assert!((0.0..=0.5 + 1e-9).contains(&err));
    }

    #[test]
    fn wave_model_monotone_in_containers(
        maps in 0usize..500,
        reduces in 0usize..200,
        mt in 0.1f64..100.0,
        rt in 0.1f64..100.0,
        c1 in 1usize..64,
        c2 in 64usize..512,
    ) {
        let j = JobResource { map_time: mt, maps_remaining: maps, reduce_time: rt, reduces_remaining: reduces };
        let small = job_time_waves(&j, c1, 0.0);
        let big = job_time_waves(&j, c2, 0.0);
        prop_assert!(big <= small + 1e-9, "more containers can't slow a job down");
        prop_assert!(big >= 0.0);
    }

    #[test]
    fn progress_fraction_is_bounded_and_monotone(
        done in prop::collection::vec((0usize..64, 0usize..64), 1..8),
        bump in any::<prop::sample::Index>(),
    ) {
        let (predictor, semantics) = progress_fixture();
        let est = ProgressEstimator::new(predictor, semantics);
        let n = semantics.dag.len();
        let progress: Vec<JobProgress> = (0..n)
            .map(|j| {
                let (m, r) = done[j % done.len()];
                JobProgress { maps_done: m, reduces_done: r }
            })
            .collect();
        let frac = est.fraction_done(&progress);
        let eta = est.remaining_seconds(&progress);
        prop_assert!((0.0..=1.0).contains(&frac), "fraction {frac}");
        prop_assert!(eta >= 0.0, "eta {eta}");
        // Completing more tasks never lowers the fraction nor raises the ETA.
        let mut more = progress.clone();
        let j = bump.index(n);
        more[j].maps_done += 1;
        more[j].reduces_done += 1;
        prop_assert!(est.fraction_done(&more) >= frac - 1e-12);
        prop_assert!(est.remaining_seconds(&more) <= eta + 1e-9);
        // Saturating every job completes the query: fraction 1, ETA 0.
        let full = vec![
            JobProgress { maps_done: usize::MAX / 2, reduces_done: usize::MAX / 2 };
            n
        ];
        prop_assert!((est.fraction_done(&full) - 1.0).abs() < 1e-12);
        prop_assert!(est.remaining_seconds(&full) < 1e-9);
    }

    #[test]
    fn simulation_completes_random_chains(
        n_jobs in 1usize..5,
        n_maps in 1usize..12,
        n_reduces in 0usize..4,
        mb in 1.0f64..512.0,
        arrival in 0.0f64..50.0,
    ) {
        let task = |kind: TaskKind| TaskSpec {
            bytes_in: mb * 1024.0 * 1024.0,
            bytes_out: mb * 0.5 * 1024.0 * 1024.0,
            category: JobCategory::Extract,
            kind,
            p: 0.5,
        };
        let q = SimQuery {
            name: "prop".into(),
            arrival,
            jobs: (0..n_jobs)
                .map(|i| SimJob {
                    id: sapred::cluster::JobId(i),
                    deps: if i == 0 { vec![] } else { vec![sapred::cluster::JobId(i - 1)] },
                    category: JobCategory::Extract,
                    maps: vec![task(TaskKind::Map); n_maps],
                    reduces: vec![task(TaskKind::Reduce); n_reduces],
                    prediction: JobPrediction::default(),
                })
                .collect(),
        };
        let report = Simulator::new(ClusterConfig::default(), CostModel::default(), Fifo)
            .run(std::slice::from_ref(&q));
        prop_assert_eq!(report.queries.len(), 1);
        prop_assert!(report.queries[0].finish >= arrival);
        prop_assert!(report.queries[0].response() > 0.0);
        // Chained jobs: the query takes at least n_jobs task-base times.
        prop_assert!(report.queries[0].response() >= n_jobs as f64 * 2.0 * 0.5);
    }

    #[test]
    fn fault_replay_is_bit_identical_for_random_plans(
        specs in prop::collection::vec((1usize..5, 0usize..3, 1.0f64..6.0, 0u64..1000), 1..4),
        arrivals in prop::collection::vec(0.0f64..10.0, 1..3),
        fail_prob in 0.0f64..0.12,
        crash in prop::option::of((0usize..2, 5.0f64..50.0, 5.0f64..30.0)),
        speculative in any::<bool>(),
        fault_seed in 0u64..1_000_000,
    ) {
        // Random DAG workloads × random fault plans (transient failures,
        // an optional transient node crash, optional speculation), run
        // crosschecked so the incremental dispatch state is verified
        // against the reference on every event, and replayed twice: the
        // reports and the full exported event streams must match
        // bit-for-bit for every scheduler.
        let task = |kind: TaskKind, t: f64| TaskSpec {
            bytes_in: (32.0 + t * 16.0) * 1024.0 * 1024.0,
            bytes_out: 16.0 * 1024.0 * 1024.0,
            category: JobCategory::Extract,
            kind,
            p: 0.5,
        };
        let queries: Vec<SimQuery> = arrivals
            .iter()
            .enumerate()
            .map(|(qi, &arrival)| SimQuery {
                name: format!("fq{qi}"),
                arrival,
                jobs: specs
                    .iter()
                    .enumerate()
                    .map(|(i, &(maps, reduces, t, sel))| SimJob {
                        id: sapred::cluster::JobId(i),
                        deps: if i == 0 || sel % 3 == 0 { vec![] } else { vec![sapred::cluster::JobId(sel as usize % i)] },
                        category: JobCategory::Extract,
                        maps: vec![task(TaskKind::Map, t); maps],
                        reduces: vec![task(TaskKind::Reduce, t); reduces],
                        prediction: JobPrediction { map_task_time: t, reduce_task_time: t },
                    })
                    .collect(),
            })
            .collect();
        let plan = FaultPlan {
            task_fail_prob: fail_prob,
            max_attempts: 20,
            node_crashes: crash
                .map(|(n, at, d)| vec![NodeCrash::transient(n, at, d)])
                .unwrap_or_default(),
            speculative,
            seed: fault_seed,
            ..FaultPlan::default()
        };
        assert_fault_replay(Fifo, &queries, &plan, "FIFO")?;
        assert_fault_replay(Hcs, &queries, &plan, "HCS")?;
        assert_fault_replay(Hfs, &queries, &plan, "HFS")?;
        assert_fault_replay(Swrd, &queries, &plan, "SWRD")?;
        assert_fault_replay(Srt, &queries, &plan, "SRT")?;
    }
}
