//! Parameterized query templates.
//!
//! Twenty templates spanning the paper's workload space: the TPC-H queries
//! it names explicitly (Q11 from §3.2, Q14 = the motivation's QA/QC, Q17 =
//! QB), a representative slice of further TPC-H shapes, and TPC-DS-style
//! aggregation/reporting shapes expressed over the same schema. Each
//! template randomizes its predicate constants per instantiation, so a
//! population of instantiations exercises a spread of selectivities.

use rand::rngs::StdRng;
use rand::Rng;
use sapred_plan::builder::DagBuilder;
use sapred_plan::compile::compile;
use sapred_plan::dag::QueryDag;
use sapred_query::{analyze, parse, QueryError};
use sapred_relation::expr::{CmpOp, Predicate};
use sapred_relation::gen::{Database, DATE_MAX};

/// One query template. `Extract`-heavy, `Groupby`-heavy and `Join`-heavy
/// shapes are all represented so the per-operator accuracy tables have
/// balanced sample counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Template {
    /// TPC-H Q1: pricing summary — single Groupby over filtered lineitem.
    Q1PricingSummary,
    /// TPC-H Q3 (simplified): shipping priority — 2 joins + groupby + top-k.
    Q3ShippingPriority,
    /// TPC-H Q5 (simplified): local suppliers — 3 joins + groupby.
    Q5LocalSupplier,
    /// TPC-H Q6: forecast revenue — global aggregate, highly selective.
    Q6ForecastRevenue,
    /// TPC-H Q10 (simplified): returned items — 2 joins + groupby + top-k.
    Q10Returned,
    /// The paper's modified TPC-H Q11 (§3.2): 2 joins + groupby.
    Q11ImportantStock,
    /// TPC-H Q12: shipmode priority — 1 join + groupby.
    Q12Shipmode,
    /// TPC-H Q14: promotion effect — join + global aggregate (QA/QC of the
    /// motivation experiment: 2 jobs).
    Q14Promo,
    /// TPC-H Q17: small-quantity revenue — 4-job DAG with a self-join on
    /// lineitem (QB of the motivation experiment). Built via DagBuilder
    /// because its correlated subquery is outside the SQL subset.
    Q17SmallQuantity,
    /// TPC-H Q19-ish: discounted revenue — join with disjunctive predicate.
    Q19Discounted,
    /// Plain sort: top-k orders by price (Extract).
    TopOrders,
    /// Map-only selective filter on lineitem (Extract, no reduce).
    FilterLineitem,
    /// Full scan sort of lineitem by ship date (Extract, heavy).
    SortLineitem,
    /// DS-style: two-key group-by (partkey × suppkey).
    DsTwoKeyGroup,
    /// DS-style: order priority counts over a date window.
    DsOrderPriority,
    /// DS-style: top customers by spend — join + groupby + top-k.
    DsTopCustomers,
    /// DS-style: part size distribution (small input).
    DsPartSizes,
    /// DS-style: supplier account-balance band scan (Extract).
    DsSupplierBalance,
    /// DS-style: brand inventory value — join + groupby.
    DsBrandInventory,
    /// DS-style: returnflag × shipmode matrix (two-key groupby, no filter).
    DsFlagModeMatrix,
}

impl Template {
    /// All templates.
    pub fn all() -> &'static [Template] {
        use Template::*;
        &[
            Q1PricingSummary,
            Q3ShippingPriority,
            Q5LocalSupplier,
            Q6ForecastRevenue,
            Q10Returned,
            Q11ImportantStock,
            Q12Shipmode,
            Q14Promo,
            Q17SmallQuantity,
            Q19Discounted,
            TopOrders,
            FilterLineitem,
            SortLineitem,
            DsTwoKeyGroup,
            DsOrderPriority,
            DsTopCustomers,
            DsPartSizes,
            DsSupplierBalance,
            DsBrandInventory,
            DsFlagModeMatrix,
        ]
    }

    /// Stable snake_case template name.
    pub fn name(&self) -> &'static str {
        use Template::*;
        match self {
            Q1PricingSummary => "q1_pricing_summary",
            Q3ShippingPriority => "q3_shipping_priority",
            Q5LocalSupplier => "q5_local_supplier",
            Q6ForecastRevenue => "q6_forecast_revenue",
            Q10Returned => "q10_returned",
            Q11ImportantStock => "q11_important_stock",
            Q12Shipmode => "q12_shipmode",
            Q14Promo => "q14_promo",
            Q17SmallQuantity => "q17_small_quantity",
            Q19Discounted => "q19_discounted",
            TopOrders => "top_orders",
            FilterLineitem => "filter_lineitem",
            SortLineitem => "sort_lineitem",
            DsTwoKeyGroup => "ds_two_key_group",
            DsOrderPriority => "ds_order_priority",
            DsTopCustomers => "ds_top_customers",
            DsPartSizes => "ds_part_sizes",
            DsSupplierBalance => "ds_supplier_balance",
            DsBrandInventory => "ds_brand_inventory",
            DsFlagModeMatrix => "ds_flag_mode_matrix",
        }
    }

    /// Instantiate against a database, randomizing predicate constants.
    pub fn instantiate(&self, db: &Database, rng: &mut StdRng) -> Result<QueryDag, QueryError> {
        use Template::*;
        if *self == Q17SmallQuantity {
            return Ok(q17_dag(db, rng));
        }
        let sql = self.sql(db, rng);
        let analyzed = analyze(&parse(&sql)?, db.catalog(), db)?;
        Ok(compile(self.name(), &analyzed))
    }

    /// The SQL text of this template instance (not available for Q17, which
    /// is hand-built).
    pub fn sql(&self, _db: &Database, rng: &mut StdRng) -> String {
        use Template::*;
        let date = |rng: &mut StdRng, span: i64| -> (i64, i64) {
            let start = rng.gen_range(0..(DATE_MAX - span).max(1));
            (start, start + span)
        };
        match self {
            Q1PricingSummary => {
                let cut = rng.gen_range(DATE_MAX / 2..DATE_MAX);
                format!(
                    "SELECT l_returnflag, l_linestatus, sum(l_quantity), sum(l_extendedprice), \
                     count(*) FROM lineitem WHERE l_shipdate <= {cut} \
                     GROUP BY l_returnflag, l_linestatus"
                )
            }
            Q3ShippingPriority => {
                let (a, _) = date(rng, 400);
                format!(
                    "SELECT l_orderkey, sum(l_extendedprice) FROM customer c \
                     JOIN orders o ON c.c_custkey = o.o_custkey AND o.o_orderdate < {a} \
                     JOIN lineitem l ON o.o_orderkey = l.l_orderkey \
                     GROUP BY l_orderkey ORDER BY l_orderkey LIMIT 10000"
                )
            }
            Q5LocalSupplier => {
                let (a, b) = date(rng, 365);
                format!(
                    "SELECT n_name, sum(l_extendedprice) FROM nation n \
                     JOIN customer c ON c.c_nationkey = n.n_nationkey \
                     JOIN orders o ON o.o_custkey = c.c_custkey \
                     AND o.o_orderdate >= {a} AND o.o_orderdate < {b} \
                     JOIN lineitem l ON l.l_orderkey = o.o_orderkey \
                     GROUP BY n_name"
                )
            }
            Q6ForecastRevenue => {
                let (a, b) = date(rng, 365);
                let qty = rng.gen_range(20..30);
                format!(
                    "SELECT sum(l_extendedprice*l_discount) FROM lineitem \
                     WHERE l_shipdate >= {a} AND l_shipdate < {b} \
                     AND l_discount BETWEEN 0.02 AND 0.07 AND l_quantity < {qty}"
                )
            }
            Q10Returned => {
                let (a, b) = date(rng, 200);
                format!(
                    "SELECT c_custkey, sum(l_extendedprice) FROM customer c \
                     JOIN orders o ON c.c_custkey = o.o_custkey \
                     AND o.o_orderdate >= {a} AND o.o_orderdate < {b} \
                     JOIN lineitem l ON o.o_orderkey = l.l_orderkey AND l.l_returnflag = 'A' \
                     GROUP BY c_custkey ORDER BY c_custkey LIMIT 20000"
                )
            }
            Q11ImportantStock => {
                let nations = ["CHINA", "FRANCE", "GERMANY", "JAPAN", "RUSSIA"];
                let nation = nations[rng.gen_range(0..nations.len())];
                format!(
                    "SELECT ps_partkey, sum(ps_supplycost*ps_availqty) \
                     FROM nation n JOIN supplier s ON \
                     s.s_nationkey=n.n_nationkey AND n.n_name<>'{nation}' \
                     JOIN partsupp ps ON ps.ps_suppkey=s.s_suppkey \
                     GROUP BY ps_partkey"
                )
            }
            Q12Shipmode => {
                let (a, b) = date(rng, 365);
                format!(
                    "SELECT l_shipmode, count(*) FROM orders o \
                     JOIN lineitem l ON o.o_orderkey = l.l_orderkey \
                     AND l.l_receiptdate >= {a} AND l.l_receiptdate < {b} \
                     GROUP BY l_shipmode"
                )
            }
            Q14Promo => {
                let (a, b) = date(rng, 30);
                format!(
                    "SELECT sum(l_extendedprice*l_discount), count(*) FROM lineitem l \
                     JOIN part p ON l.l_partkey = p.p_partkey \
                     WHERE l_shipdate >= {a} AND l_shipdate < {b}"
                )
            }
            Q17SmallQuantity => unreachable!("Q17 is built via DagBuilder"),
            Q19Discounted => {
                let q1 = rng.gen_range(5..15);
                let q2 = q1 + 10;
                format!(
                    "SELECT sum(l_extendedprice), count(*) FROM lineitem l \
                     JOIN part p ON l.l_partkey = p.p_partkey \
                     WHERE l_quantity >= {q1} AND l_quantity <= {q2} \
                     AND (l_discount BETWEEN 0.01 AND 0.04 OR l_discount BETWEEN 0.06 AND 0.09)"
                )
            }
            TopOrders => {
                let price = rng.gen_range(50_000..300_000);
                format!(
                    "SELECT o_orderkey, o_totalprice FROM orders \
                     WHERE o_totalprice > {price} ORDER BY o_totalprice DESC LIMIT 100000"
                )
            }
            FilterLineitem => {
                let qty = rng.gen_range(40..49);
                format!(
                    "SELECT l_orderkey, l_partkey, l_extendedprice FROM lineitem \
                     WHERE l_quantity > {qty}"
                )
            }
            SortLineitem => {
                let (a, _) = date(rng, 2000);
                format!(
                    "SELECT l_orderkey, l_shipdate, l_extendedprice FROM lineitem \
                     WHERE l_shipdate >= {a} ORDER BY l_shipdate"
                )
            }
            DsTwoKeyGroup => {
                let (a, b) = date(rng, 730);
                format!(
                    "SELECT l_partkey, l_suppkey, sum(l_quantity) FROM lineitem \
                     WHERE l_shipdate >= {a} AND l_shipdate < {b} \
                     GROUP BY l_partkey, l_suppkey"
                )
            }
            DsOrderPriority => {
                let (a, b) = date(rng, 90);
                format!(
                    "SELECT o_orderpriority, count(*) FROM orders \
                     WHERE o_orderdate >= {a} AND o_orderdate < {b} \
                     GROUP BY o_orderpriority"
                )
            }
            DsTopCustomers => {
                let price = rng.gen_range(10_000..100_000);
                format!(
                    "SELECT c_custkey, sum(o_totalprice) FROM customer c \
                     JOIN orders o ON c.c_custkey = o.o_custkey AND o.o_totalprice > {price} \
                     GROUP BY c_custkey ORDER BY c_custkey LIMIT 50000"
                )
            }
            DsPartSizes => {
                let size = rng.gen_range(10..40);
                format!("SELECT p_size, count(*) FROM part WHERE p_size <= {size} GROUP BY p_size")
            }
            DsSupplierBalance => {
                let lo = rng.gen_range(-500..4000);
                let hi = lo + 3000;
                format!(
                    "SELECT s_suppkey, s_acctbal FROM supplier \
                     WHERE s_acctbal BETWEEN {lo} AND {hi} ORDER BY s_acctbal DESC"
                )
            }
            DsBrandInventory => {
                let size = rng.gen_range(20..45);
                format!(
                    "SELECT p_brand, sum(ps_availqty) FROM part p \
                     JOIN partsupp ps ON p.p_partkey = ps.ps_partkey \
                     WHERE p_size < {size} GROUP BY p_brand"
                )
            }
            DsFlagModeMatrix => "SELECT l_returnflag, l_shipmode, count(*), sum(l_quantity) \
                 FROM lineitem GROUP BY l_returnflag, l_shipmode"
                .to_string(),
        }
    }
}

/// TPC-H Q17 as Hive 0.10 compiles it: the correlated `avg(l_quantity)`
/// subquery becomes a group-by job, joined back against the filtered
/// lineitem × part stream, then globally aggregated — 4 jobs, the paper's
/// QB (Fig. 1).
fn q17_dag(db: &Database, rng: &mut StdRng) -> QueryDag {
    let part = db.table("part").expect("part table");
    let brand_code = rng.gen_range(0..25) as f64;
    let container_code = part.dict_code("p_container", "MED BOX") as f64;
    let mut b = DagBuilder::new();
    // J0: per-part average quantity over all of lineitem.
    let j0 = b.groupby(
        DagBuilder::table("lineitem", Predicate::True, ["l_partkey", "l_quantity"]),
        ["l_partkey"],
        1,
    );
    // J1: lineitem ⋈ part restricted to one brand/container.
    let j1 = b.join(
        DagBuilder::table(
            "lineitem",
            Predicate::True,
            ["l_partkey", "l_quantity", "l_extendedprice"],
        ),
        DagBuilder::table(
            "part",
            Predicate::cmp("p_brand", CmpOp::Eq, brand_code).and(Predicate::cmp(
                "p_container",
                CmpOp::Eq,
                container_code,
            )),
            ["p_partkey"],
        ),
        "l_partkey",
        "p_partkey",
    );
    // J2: join the filtered stream with the per-part averages.
    let j2 = b.join(DagBuilder::job(j1), DagBuilder::job(j0), "l_partkey", "l_partkey");
    // J3: global aggregate of the surviving revenue.
    b.groupby(DagBuilder::job(j2), Vec::<String>::new(), 1);
    b.build("q17_small_quantity")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use sapred_plan::ground_truth::execute_dag;
    use sapred_relation::gen::{generate, GenConfig};

    fn db() -> Database {
        generate(GenConfig::new(0.2).with_seed(12))
    }

    #[test]
    fn every_template_instantiates() {
        let db = db();
        let mut rng = StdRng::seed_from_u64(1);
        for t in Template::all() {
            let dag = t
                .instantiate(&db, &mut rng)
                .unwrap_or_else(|e| panic!("template {} failed: {e}", t.name()));
            assert!(!dag.is_empty(), "{}", t.name());
        }
    }

    #[test]
    fn twenty_templates() {
        assert_eq!(Template::all().len(), 20);
        let mut names: Vec<&str> = Template::all().iter().map(|t| t.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 20, "template names must be unique");
    }

    #[test]
    fn q14_has_two_jobs_like_the_paper() {
        let db = db();
        let mut rng = StdRng::seed_from_u64(2);
        let dag = Template::Q14Promo.instantiate(&db, &mut rng).unwrap();
        assert_eq!(dag.len(), 2, "QA/QC = AGG over a join: 2 jobs");
    }

    #[test]
    fn q17_has_four_jobs_like_the_paper() {
        let db = db();
        let mut rng = StdRng::seed_from_u64(3);
        let dag = Template::Q17SmallQuantity.instantiate(&db, &mut rng).unwrap();
        assert_eq!(dag.len(), 4, "QB = 4-job DAG");
        assert_eq!(dag.jobs().iter().filter(|j| j.deps().is_empty()).count(), 2);
    }

    #[test]
    fn sql_templates_parse_across_many_seeds() {
        let db = db();
        for seed in 0..8 {
            let mut rng = StdRng::seed_from_u64(seed);
            for t in Template::all() {
                if *t == Template::Q17SmallQuantity {
                    continue; // hand-built, no SQL form
                }
                let sql = t.sql(&db, &mut rng);
                sapred_query::parse(&sql)
                    .unwrap_or_else(|e| panic!("{} (seed {seed}): {e}\n{sql}", t.name()));
            }
        }
    }

    #[test]
    fn constants_vary_between_instantiations() {
        let db = db();
        let mut rng = StdRng::seed_from_u64(4);
        let a = Template::Q6ForecastRevenue.sql(&db, &mut rng);
        let b = Template::Q6ForecastRevenue.sql(&db, &mut rng);
        assert_ne!(a, b);
    }

    #[test]
    fn all_categories_represented() {
        use sapred_plan::dag::JobCategory::*;
        let db = db();
        let mut rng = StdRng::seed_from_u64(5);
        let mut seen = std::collections::HashSet::new();
        for t in Template::all() {
            for j in t.instantiate(&db, &mut rng).unwrap().jobs() {
                seen.insert(j.category());
            }
        }
        assert!(seen.contains(&Extract) && seen.contains(&Groupby) && seen.contains(&Join));
    }

    /// FNV-1a over the bits of every `JobActual` field of every job, for
    /// every template (one instance each, seeded by its position) at the
    /// paper's 256 MB block size.
    fn ground_truth_fingerprint(db: &Database) -> u64 {
        fn mix(h: &mut u64, word: u64) {
            for b in word.to_le_bytes() {
                *h = (*h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
        }
        let mut h = 0xcbf2_9ce4_8422_2325;
        for (i, t) in Template::all().iter().enumerate() {
            let dag = t.instantiate(db, &mut StdRng::seed_from_u64(i as u64)).unwrap();
            let actuals = execute_dag(&dag, db, 256.0 * 1024.0 * 1024.0);
            mix(&mut h, actuals.len() as u64);
            for a in actuals {
                for x in [a.d_in, a.d_med, a.d_out, a.tuples_in, a.tuples_med, a.tuples_out] {
                    mix(&mut h, x.to_bits());
                }
                mix(&mut h, a.n_splits as u64);
                mix(&mut h, a.p_actual.to_bits());
            }
        }
        h
    }

    /// Ground truth of every template at two scales, pinned to the values
    /// the hash-keyed executor produced.
    #[test]
    fn ground_truth_is_pinned() {
        let got: Vec<u64> = [(1.0, 21), (100.0, 22)]
            .into_iter()
            .map(|(gb, seed)| {
                ground_truth_fingerprint(&generate(GenConfig::new(gb).with_seed(seed)))
            })
            .collect();
        assert_eq!(got, [0x5cdc17fcfa137d77, 0x589665fe908cd68f], "{got:#x?}");
    }
}
