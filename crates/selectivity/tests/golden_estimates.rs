//! Golden fingerprints of the default (histogram) estimator.
//!
//! Every `JobEstimate` field of a fixed query set over a fixed generated
//! database is hashed (FNV-1a over the exact f64 bit patterns) and pinned
//! here. The pins were captured from the estimator *before* the sampling
//! and catalog estimators existed, so they prove adding them changed
//! nothing for the default configuration — any behavioral drift in the
//! histogram path flips a fingerprint.

use sapred_plan::compile::compile;
use sapred_query::{analyze, parse};
use sapred_relation::fnv1a;
use sapred_relation::gen::{generate, Database, GenConfig};
use sapred_selectivity::estimate::{estimate_dag, EstimatorConfig, JobEstimate};

/// The query set: one representative per job shape the estimator handles
/// (map-only, sort+limit, group-by, FK join, filtered join, chained joins,
/// the §3.2 walkthrough). Names are stable identifiers for the pins.
const QUERIES: &[(&str, &str)] = &[
    ("map_only", "SELECT l_partkey FROM lineitem WHERE l_quantity > 40"),
    ("sort_limit", "SELECT o_orderkey FROM orders ORDER BY o_totalprice DESC LIMIT 5000"),
    (
        "groupby",
        "SELECT l_partkey, sum(l_extendedprice) FROM lineitem \
         WHERE l_shipdate < 1200 GROUP BY l_partkey",
    ),
    (
        "fk_join",
        "SELECT l_quantity, p_size FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey",
    ),
    (
        "filtered_join",
        "SELECT l_quantity, p_size FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey \
         WHERE p_size < 10 AND l_shipdate < 1200",
    ),
    (
        "chained_joins",
        "SELECT o_totalprice, p_size FROM lineitem l \
         JOIN orders o ON l.l_orderkey = o.o_orderkey \
         JOIN part p ON l.l_partkey = p.p_partkey \
         WHERE o_orderdate < 1500",
    ),
    (
        "q11_walkthrough",
        "SELECT ps_partkey, sum(ps_supplycost*ps_availqty) \
         FROM nation n JOIN supplier s ON \
         s.s_nationkey=n.n_nationkey AND n.n_name<>'CHINA' \
         JOIN partsupp ps ON ps.ps_suppkey=s.s_suppkey \
         GROUP BY ps_partkey;",
    ),
];

/// Pinned fingerprints (captured pre-seam; see module docs).
const PINS: &[(&str, u64)] = &[
    ("map_only", 0x87cbf8dd0e1d7883),
    ("sort_limit", 0x12840f0f84aaba8f),
    ("groupby", 0x5cf7cfc73c3972a4),
    ("fk_join", 0x9140c4626ea992ff),
    ("filtered_join", 0x41a392a8f0545d70),
    ("chained_joins", 0xc67ea8e39f866181),
    ("q11_walkthrough", 0x3f91730a3ef73435),
];

/// FNV-1a over each estimate's category name and the exact bit patterns of
/// its fields, all in one byte buffer.
fn fingerprint(estimates: &[JobEstimate]) -> u64 {
    let mut bytes = Vec::new();
    for e in estimates {
        bytes.extend_from_slice(format!("{}", e.category).as_bytes());
        let p_ratio = e.p_ratio.unwrap_or(-1.0);
        for v in
            [e.d_in, e.d_med, e.d_out, e.tuples_in, e.tuples_med, e.tuples_out, e.is, e.fs, p_ratio]
        {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        bytes.extend_from_slice(&(e.n_maps as u64).to_le_bytes());
    }
    fnv1a(&bytes)
}

fn db() -> Database {
    generate(GenConfig::new(1.0).with_seed(21))
}

fn estimate(db: &Database, sql: &str) -> Vec<JobEstimate> {
    let a = analyze(&parse(sql).unwrap(), db.catalog(), db).unwrap();
    let dag = compile("q", &a);
    estimate_dag(&dag, db.catalog(), &EstimatorConfig::default())
}

#[test]
fn default_estimator_matches_golden_fingerprints() {
    let db = db();
    let mut failures = Vec::new();
    for (name, sql) in QUERIES {
        let fp = fingerprint(&estimate(&db, sql));
        let pin = PINS.iter().find(|(n, _)| n == name).map(|(_, p)| *p).unwrap();
        if fp != pin {
            failures.push(format!("{name}: got {fp:#018x}, pinned {pin:#018x}"));
        }
    }
    assert!(failures.is_empty(), "fingerprint drift:\n{}", failures.join("\n"));
}
