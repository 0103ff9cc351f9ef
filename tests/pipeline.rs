//! End-to-end integration: query text → percolation → estimation →
//! ground-truth execution → simulation, across many query shapes and
//! scales, checking cross-layer consistency invariants.

use sapred::core::framework::Framework;
use sapred::plan::ground_truth::execute_dag;
use sapred::relation::gen::{generate, GenConfig, Layout};
use sapred_cluster::build::build_sim_query;
use sapred_cluster::sched::Fifo;
use sapred_cluster::sim::{Run, Simulator};

const QUERIES: &[&str] = &[
    "SELECT l_partkey FROM lineitem WHERE l_quantity > 45",
    "SELECT count(*) FROM orders",
    "SELECT l_returnflag, count(*) FROM lineitem GROUP BY l_returnflag",
    "SELECT o_orderkey, o_totalprice FROM orders WHERE o_totalprice > 100000 \
     ORDER BY o_totalprice DESC LIMIT 5000",
    "SELECT s_name, n_name FROM supplier s JOIN nation n ON s.s_nationkey = n.n_nationkey",
    "SELECT l_partkey, sum(l_extendedprice) FROM lineitem l \
     JOIN part p ON l.l_partkey = p.p_partkey WHERE p_size < 25 GROUP BY l_partkey",
    "SELECT n_name, sum(o_totalprice) FROM nation n \
     JOIN customer c ON c.c_nationkey = n.n_nationkey \
     JOIN orders o ON o.o_custkey = c.c_custkey \
     GROUP BY n_name ORDER BY n_name",
    "SELECT ps_partkey, sum(ps_supplycost*ps_availqty) \
     FROM nation n JOIN supplier s ON s.s_nationkey=n.n_nationkey AND n.n_name<>'CHINA' \
     JOIN partsupp ps ON ps.ps_suppkey=s.s_suppkey GROUP BY ps_partkey",
];

#[test]
fn estimates_track_ground_truth_across_shapes() {
    let fw = Framework::new();
    let db = generate(GenConfig::new(2.0).with_seed(99));
    for sql in QUERIES {
        let s = fw.percolate_sql("q", sql, &db).unwrap_or_else(|e| panic!("{sql}: {e}"));
        let actuals = execute_dag(&s.dag, &db, fw.est_config.block_size);
        assert_eq!(s.estimates.len(), actuals.len());
        for (est, act) in s.estimates.iter().zip(&actuals) {
            // D_in is exact: both sides read the same base tables/outputs
            // up to estimation drift in upstream outputs.
            assert!(est.d_in > 0.0, "{sql}");
            // IS/FS within [0, ~] and tracking within an order of magnitude
            // (tight tracking is asserted per-operator in unit tests).
            assert!(est.is >= 0.0 && est.fs >= 0.0, "{sql}");
            if act.d_med > 1e6 {
                let ratio = est.d_med / act.d_med;
                assert!(
                    (0.2..5.0).contains(&ratio),
                    "{sql}: D_med est {} vs actual {}",
                    est.d_med,
                    act.d_med
                );
            }
        }
    }
}

#[test]
fn root_job_d_in_is_exact() {
    // For jobs reading only base tables, the estimator's D_in must equal
    // ground truth exactly (both read full scans).
    let fw = Framework::new();
    let db = generate(GenConfig::new(1.0).with_seed(3));
    for sql in QUERIES {
        let s = fw.percolate_sql("q", sql, &db).unwrap();
        let actuals = execute_dag(&s.dag, &db, fw.est_config.block_size);
        for (job, (est, act)) in s.dag.jobs().iter().zip(s.estimates.iter().zip(&actuals)) {
            if job.deps().is_empty() {
                assert!(
                    (est.d_in - act.d_in).abs() < 1.0,
                    "{sql} J{}: {} vs {}",
                    job.id,
                    est.d_in,
                    act.d_in
                );
                assert_eq!(est.n_maps, act.n_splits, "{sql} J{}", job.id);
            }
        }
    }
}

#[test]
fn simulation_consumes_any_compiled_query() {
    let fw = Framework::new();
    let db = generate(GenConfig::new(1.0).with_seed(17));
    let mut sim_queries = Vec::new();
    for (i, sql) in QUERIES.iter().enumerate() {
        let s = fw.percolate_sql(&format!("q{i}"), sql, &db).unwrap();
        let actuals = execute_dag(&s.dag, &db, fw.est_config.block_size);
        sim_queries.push(build_sim_query(
            format!("q{i}"),
            i as f64 * 2.0,
            &s.dag,
            &actuals,
            &[],
            &fw.cluster,
        ));
    }
    let report = Simulator::new(fw.cluster, fw.cost, Fifo).run(&sim_queries);
    assert_eq!(report.queries.len(), QUERIES.len());
    for q in &report.queries {
        assert!(q.finish > q.arrival, "{}", q.name);
        assert!(q.start >= q.arrival);
    }
}

#[test]
fn clustered_layout_improves_combine_estimates() {
    // The estimator is told the layout through EstimatorConfig; when layout
    // and hint agree, the combine estimate matches the ground truth much
    // better than when they disagree.
    let sql = "SELECT l_partkey, sum(l_quantity) FROM lineitem GROUP BY l_partkey";
    let err_for = |layout: Layout, hint: bool| -> f64 {
        let mut fw = Framework::new();
        fw.est_config.clustered_keys = hint;
        let db = generate(GenConfig::new(5.0).with_seed(7).with_layout(layout));
        let s = fw.percolate_sql("q", sql, &db).unwrap();
        let act = execute_dag(&s.dag, &db, fw.est_config.block_size);
        (s.estimates[0].tuples_med - act[0].tuples_med).abs() / act[0].tuples_med
    };
    let matched = err_for(Layout::Clustered, true);
    let mismatched = err_for(Layout::Clustered, false);
    assert!(matched < mismatched, "matched {matched} mismatched {mismatched}");
    let matched_r = err_for(Layout::Random, false);
    let mismatched_r = err_for(Layout::Random, true);
    assert!(matched_r < mismatched_r, "matched {matched_r} mismatched {mismatched_r}");
}

#[test]
fn umbrella_crate_reexports_work() {
    // The `sapred` facade exposes every subsystem.
    let _ = sapred::relation::gen::GenConfig::new(0.1);
    let _ = sapred::query::parse("SELECT n_name FROM nation").unwrap();
    let _ = sapred::predict::metrics::r_squared(&[1.0], &[1.0]);
    let _ = sapred::cluster::sim::ClusterConfig::default();
    let _ = sapred::workload::mixes::bing_mix();
    let _ = sapred::selectivity::formulas::p_ratio(1.0, 2.0);
    let _ = sapred::core::framework::Framework::new();
}

#[test]
fn map_join_plans_estimate_and_execute_consistently() {
    use sapred::plan::compile::{compile_with, PlannerConfig};
    use sapred::query::{analyze, parse};
    use sapred::selectivity::estimate::{estimate_dag, EstimatorConfig};

    let fw = Framework::new();
    let db = generate(GenConfig::new(1.0).with_seed(23));
    let queries = [
        "SELECT ps_partkey, sum(ps_supplycost*ps_availqty) \
         FROM nation n JOIN supplier s ON s.s_nationkey=n.n_nationkey \
         JOIN partsupp ps ON ps.ps_suppkey=s.s_suppkey GROUP BY ps_partkey",
        "SELECT s_name, n_name FROM supplier s JOIN nation n ON s.s_nationkey = n.n_nationkey",
        "SELECT n_name, count(*) FROM nation n \
         JOIN customer c ON c.c_nationkey = n.n_nationkey GROUP BY n_name",
    ];
    for sql in queries {
        let analyzed = analyze(&parse(sql).unwrap(), db.catalog(), &db).unwrap();
        let config = PlannerConfig { map_join_threshold: 512.0 * 1024.0 * 1024.0 };
        let dag = compile_with("mj", &analyzed, db.catalog(), &config);
        // At least one broadcast happened for these dimension joins.
        let n_broadcasts: usize = dag.jobs().iter().map(|j| j.broadcasts.len()).sum();
        assert!(n_broadcasts > 0, "{sql}: no conversion");
        let est = estimate_dag(&dag, db.catalog(), &EstimatorConfig::default());
        let act = execute_dag(&dag, &db, fw.est_config.block_size);
        // Sink-output estimates stay near ground truth with broadcasts too.
        let (e, a) = (est.last().unwrap().tuples_out, act.last().unwrap().tuples_out);
        if a > 10.0 {
            let ratio = e / a;
            assert!((0.5..2.0).contains(&ratio), "{sql}: est {e} vs act {a}");
        }
        // Broadcast table bytes are accounted into D_in on both sides.
        assert!(
            (est[0].d_in - act[0].d_in).abs() / act[0].d_in < 0.05,
            "{sql}: D_in est {} act {}",
            est[0].d_in,
            act[0].d_in
        );
    }
}

#[test]
fn map_join_and_reduce_join_agree_on_results() {
    use sapred::plan::compile::{compile, compile_with, PlannerConfig};
    use sapred::query::{analyze, parse};

    let fw = Framework::new();
    let db = generate(GenConfig::new(0.5).with_seed(29));
    let sql = "SELECT n_name, sum(s_acctbal) FROM supplier s \
               JOIN nation n ON s.s_nationkey = n.n_nationkey \
               WHERE s_acctbal > 0 GROUP BY n_name";
    let analyzed = analyze(&parse(sql).unwrap(), db.catalog(), &db).unwrap();
    let plain = compile("plain", &analyzed);
    let converted =
        compile_with("conv", &analyzed, db.catalog(), &PlannerConfig { map_join_threshold: 1e9 });
    assert!(converted.len() < plain.len());
    let a = execute_dag(&plain, &db, fw.est_config.block_size);
    let b = execute_dag(&converted, &db, fw.est_config.block_size);
    // Same final result cardinality regardless of join strategy.
    assert_eq!(a.last().unwrap().tuples_out, b.last().unwrap().tuples_out);
}

#[test]
fn pig_and_sql_front_ends_agree() {
    use sapred::query::pig::PigScript;
    use sapred::query::{analyze, parse, AggFunc};
    use sapred::relation::expr::{CmpOp, Predicate};

    let fw = Framework::new();
    let db = generate(GenConfig::new(0.5).with_seed(31));
    let pig = PigScript::load("lineitem")
        .filter(Predicate::cmp("l_quantity", CmpOp::Gt, 45.0))
        .join("part", "l_partkey", "p_partkey")
        .group_by(["p_brand"])
        .aggregate(AggFunc::Sum, "l_extendedprice")
        .to_analyzed(db.catalog())
        .unwrap();
    let sql = analyze(
        &parse(
            "SELECT p_brand, sum(l_extendedprice) FROM lineitem l \
             JOIN part p ON l.l_partkey = p.p_partkey \
             WHERE l_quantity > 45 GROUP BY p_brand",
        )
        .unwrap(),
        db.catalog(),
        &db,
    )
    .unwrap();
    let dag_pig = sapred::plan::compile::compile("pig", &pig);
    let dag_sql = sapred::plan::compile::compile("sql", &sql);
    assert_eq!(dag_pig.len(), dag_sql.len());
    // Identical ground-truth results from both compilations.
    let a = execute_dag(&dag_pig, &db, fw.est_config.block_size);
    let b = execute_dag(&dag_sql, &db, fw.est_config.block_size);
    assert_eq!(a.last().unwrap().tuples_out, b.last().unwrap().tuples_out);
    assert_eq!(a[0].tuples_med, b[0].tuples_med);
}

#[test]
fn pipeline_facade_drives_the_staged_lifecycle() {
    use sapred::cluster::sched::Swrd;
    use sapred::core::{Error, Pipeline};
    use sapred::workload::population::PopulationConfig;

    let mut pipe = Pipeline::with_seed(11);
    // Stage 3 before stage 2 is an explicit error, not a panic.
    assert!(matches!(pipe.predictor(), Err(Error::NotTrained)));

    // Stage 1: percolate two query shapes.
    let join = pipe
        .percolate_sql(
            "join",
            "SELECT l_partkey, sum(l_extendedprice) FROM lineitem l \
             JOIN part p ON l.l_partkey = p.p_partkey GROUP BY l_partkey",
            1.0,
        )
        .expect("valid query");
    let scan = pipe.percolate_sql("scan", "SELECT count(*) FROM orders", 1.0).expect("valid query");
    // Malformed text surfaces through the unified error type.
    assert!(matches!(pipe.percolate_sql("bad", "SELEKT *", 1.0), Err(Error::Query(_))));

    // Stage 2: train.
    let config = PopulationConfig {
        n_queries: 60,
        scales_gb: vec![0.5, 1.0],
        scale_out_gb: vec![],
        seed: 11,
    };
    pipe.train(&config).expect("training succeeds");
    let wrd = pipe.predictor().expect("trained").query_wrd(&join);
    assert!(wrd > 0.0);

    // Stage 4: simulate.
    let queries =
        vec![pipe.sim_query("join", 0.0, &join, 1.0), pipe.sim_query("scan", 0.5, &scan, 1.0)];
    let report = pipe.simulate(pipe.simulator(Swrd), &queries, Run::new()).unwrap().into_report();
    assert_eq!(report.queries.len(), 2);
    assert!(report.queries.iter().all(|q| !q.failed && q.finish > q.arrival));
}
