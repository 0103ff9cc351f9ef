//! Property tests for the join-cardinality estimators: every estimator
//! keeps selectivities in bounds, the sampling estimator is seed-stable
//! under any walk-count schedule, and the histogram stays near exact
//! ground truth on the uniform data it was derived for.

use proptest::prelude::*;
use sapred_plan::compile::compile;
use sapred_plan::dag::QueryDag;
use sapred_plan::ground_truth::execute_dag;
use sapred_query::{analyze, parse};
use sapred_relation::gen::{generate, Database, GenConfig, KeyDist};
use sapred_selectivity::estimate::EstimatorConfig;
use sapred_selectivity::estimator::{estimate_dag_with, join_walk_estimates, EstimatorKind};
use std::sync::OnceLock;

fn uniform_db() -> &'static Database {
    static DB: OnceLock<Database> = OnceLock::new();
    DB.get_or_init(|| generate(GenConfig::new(0.1).with_seed(8)))
}

fn skewed_db() -> &'static Database {
    static DB: OnceLock<Database> = OnceLock::new();
    DB.get_or_init(|| generate(GenConfig::new(0.1).with_seed(8).with_key_dist(KeyDist::Zipf(1.2))))
}

fn dag_of(sql: &str, db: &Database) -> QueryDag {
    let a = analyze(&parse(sql).unwrap(), db.catalog(), db).unwrap();
    compile("q", &a)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Selectivities stay in [0, 1] (and every modeled quantity stays
    /// finite and non-negative) for all three estimators, on a filtered
    /// join over randomly-placed predicate thresholds.
    #[test]
    fn every_estimator_keeps_selectivities_in_bounds(
        size in 1.0f64..50.0,
        date in 0.0f64..2500.0,
        skewed in any::<bool>(),
    ) {
        let db = if skewed { skewed_db() } else { uniform_db() };
        let sql = format!(
            "SELECT l_quantity, p_size FROM lineitem l \
             JOIN part p ON l.l_partkey = p.p_partkey \
             WHERE p_size < {size} AND l_shipdate < {date}"
        );
        let dag = dag_of(&sql, db);
        for kind in EstimatorKind::ALL {
            let cfg = EstimatorConfig { kind, ..Default::default() };
            for e in estimate_dag_with(&dag, db.catalog(), Some(db), &cfg) {
                prop_assert!(e.d_in > 0.0 && e.d_in.is_finite(), "{kind}: d_in {}", e.d_in);
                prop_assert!(e.d_med >= 0.0 && e.d_med.is_finite());
                prop_assert!(e.d_out >= 0.0 && e.d_out.is_finite());
                prop_assert!(e.tuples_out >= 0.0 && e.tuples_out.is_finite());
                // IS and FS are bytes ratios of a filtered join: both in [0, 1]
                // (the paper's Eq. 1 selectivities), modulo float dust.
                prop_assert!((0.0..=1.0 + 1e-9).contains(&e.is), "{kind}: IS = {}", e.is);
                prop_assert!((0.0..=1.0 + 1e-9).contains(&e.fs), "{kind}: FS = {}", e.fs);
                if let Some(p) = e.p_ratio {
                    prop_assert!((0.5..=1.0).contains(&p), "{kind}: P = {p}");
                }
            }
        }
    }

    /// Walk `i`'s Horvitz–Thompson value is a pure function of
    /// `(seed, job, i)`: estimates are bit-identical for a fixed seed no
    /// matter how many walks are requested (any prefix schedule), and a
    /// different seed produces a different walk stream.
    #[test]
    fn sampling_walks_are_seed_stable_under_any_schedule(
        short in 1usize..128,
        long in 128usize..512,
        seed in any::<u64>(),
    ) {
        let db = skewed_db();
        let dag = dag_of(
            "SELECT l_partkey, sum(l_quantity) FROM lineitem l \
             JOIN partsupp ps ON l.l_partkey = ps.ps_partkey GROUP BY l_partkey",
            db,
        );
        let cfg = EstimatorConfig {
            kind: EstimatorKind::Sample,
            sample_seed: seed,
            ..Default::default()
        };
        let a = join_walk_estimates(&dag, 0, db.catalog(), db, &cfg, long).unwrap();
        let b = join_walk_estimates(&dag, 0, db.catalog(), db, &cfg, long).unwrap();
        prop_assert_eq!(
            a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        let prefix = join_walk_estimates(&dag, 0, db.catalog(), db, &cfg, short).unwrap();
        prop_assert_eq!(
            prefix.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            a[..short].iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    /// On uniform data — the regime the equi-width histogram models
    /// exactly — its join output estimate stays within a fixed relative
    /// bound of exact ground-truth execution, for any filter placement.
    #[test]
    fn histogram_tracks_exact_truth_on_uniform_data(size in 2.0f64..50.0) {
        let db = uniform_db();
        let sql = format!(
            "SELECT l_quantity, p_size FROM lineitem l \
             JOIN part p ON l.l_partkey = p.p_partkey WHERE p_size < {size}"
        );
        let dag = dag_of(&sql, db);
        let cfg = EstimatorConfig::default();
        let est = estimate_dag_with(&dag, db.catalog(), Some(db), &cfg);
        let act = execute_dag(&dag, db, cfg.block_size);
        for (e, a) in est.iter().zip(&act) {
            let err = (e.tuples_out - a.tuples_out).abs() / a.tuples_out.max(1.0);
            prop_assert!(err < 0.35, "est {} actual {} err {err:.3}", e.tuples_out, a.tuples_out);
        }
    }
}
