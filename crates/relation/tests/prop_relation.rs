//! Property tests: histogram estimates against brute-force ground truth,
//! and count-only execution invariants.

use proptest::prelude::*;
use sapred_relation::exec::{hash_join, Rel};
use sapred_relation::expr::{CmpOp, Predicate};
use sapred_relation::histogram::Histogram;
use sapred_relation::schema::{ColumnDef, DataType, Schema};
use sapred_relation::table::{Column, Table};

/// A one-column relation: a full scan of a one-column table.
fn rel(name: &str, vals: &[i32]) -> Rel {
    scan(name, vals, &Predicate::True)
}

/// The rows of a one-column table that pass `pred`.
fn scan(name: &str, vals: &[i32], pred: &Predicate) -> Rel {
    let schema = Schema::new(vec![ColumnDef::new(name, DataType::Int)]);
    let table = Table::new("t", schema, vec![Column::Int(vals.to_vec())]);
    Rel::from_table(&table, pred, &[], &[name.to_string()])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn range_selectivity_matches_brute_force_within_bucket_error(
        values in prop::collection::vec(0i32..1000, 20..400),
        threshold in 0.0f64..1000.0,
    ) {
        // With many buckets relative to the domain, the piece-wise-uniform
        // estimate of a range predicate converges to the exact fraction.
        let h = Histogram::build(&Column::Int(values.clone()), 0.0, 1000.0, 100);
        let est = h.selectivity_cmp(CmpOp::Lt, threshold);
        let exact = values.iter().filter(|&&v| (v as f64) < threshold).count() as f64
            / values.len() as f64;
        // One bucket holds at most everything in a 10-wide slot; allow the
        // mass of two buckets as slack.
        let slack = 2.0 * 10.0 / 1000.0 + 2.0 / values.len() as f64 + 0.05;
        prop_assert!((est - exact).abs() <= slack, "est {est} exact {exact}");
    }

    #[test]
    fn eq_mass_sums_to_total(
        values in prop::collection::vec(0i32..50, 1..200),
    ) {
        // Summing the equality estimate over every distinct value must give
        // back ~total mass (count/distinct per bucket is an average).
        let h = Histogram::build(&Column::Int(values.clone()), 0.0, 50.0, 10);
        let mut distinct: Vec<i32> = values.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let n = values.len() as f64;
        let total: f64 = distinct
            .iter()
            .map(|&v| h.selectivity_cmp(CmpOp::Eq, v as f64) * n)
            .sum();
        prop_assert!((total - n).abs() / n < 0.05, "total {total} vs {n}");
    }

    #[test]
    fn filtered_histogram_never_gains_mass(
        values in prop::collection::vec(-200i32..200, 1..300),
        lo in -250.0f64..250.0,
        span in 0.0f64..200.0,
    ) {
        let h = Histogram::from_column(&Column::Int(values), 16);
        let f = h.filtered(&Predicate::between("x", lo, lo + span));
        prop_assert!(f.total() <= h.total() + 1e-9);
        for (fb, hb) in f.buckets().iter().zip(h.buckets()) {
            prop_assert!(fb.count <= hb.count + 1e-9);
        }
    }

    #[test]
    fn hash_join_matches_nested_loop_count(
        left in prop::collection::vec(0i32..20, 0..60),
        right in prop::collection::vec(0i32..20, 0..60),
    ) {
        let l = rel("a", &left);
        let r = rel("b", &right);
        let j = hash_join(&l, &r, "a", "b");
        let brute: usize = left
            .iter()
            .map(|x| right.iter().filter(|y| *y == x).count())
            .sum();
        prop_assert_eq!(j.rows(), brute);
    }

    #[test]
    fn combine_output_bounds(
        values in prop::collection::vec(0i32..40, 1..300),
        splits in 1usize..20,
    ) {
        let (grouped, combined) = rel("g", &values).groupby_combined(&["g".to_string()], splits);
        let groups = grouped.rows();
        prop_assert!(combined >= groups, "combiner output below group count");
        prop_assert!(combined <= values.len(), "combiner output above input");
        prop_assert!(combined <= groups * splits, "combiner output above groups x splits");
    }

    #[test]
    fn filter_project_consistency(
        values in prop::collection::vec(0i32..100, 1..200),
        cut in 0.0f64..100.0,
    ) {
        let f = scan("v", &values, &Predicate::cmp("v", CmpOp::Lt, cut));
        let exact = values.iter().filter(|&&v| (v as f64) < cut).count();
        prop_assert_eq!(f.rows(), exact);
        // head() is idempotent at the boundary.
        prop_assert_eq!(f.head(f.rows() + 10).rows(), f.rows());
    }
}
