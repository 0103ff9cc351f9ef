//! Three interchangeable join-cardinality estimators, selected by
//! [`EstimatorKind`] and run by [`estimate_dag_with`].
//!
//! The paper's selectivity machinery (§3, Eqs. 1–6) rests entirely on
//! equi-width histograms. Histograms smear hot keys across buckets, so
//! skewed equi-joins (both sides Zipf on the join key) are systematically
//! underestimated — the per-bucket `c₁·c₂ / max(d₁, d₂)` of Eq. 5 averages
//! where the true size is a sum of per-key *products*. The histogram path
//! is therefore one of three estimators:
//!
//! * [`EstimatorKind::Histogram`] — the unchanged §3 path ([`estimate_dag`]);
//!   the default. With the default [`EstimatorConfig`] the choice is
//!   provably inert (pinned by `tests/golden_estimates.rs`).
//! * [`EstimatorKind::Sample`] — wander-join random walks over the join
//!   chain: sample a base tuple, follow the key index one hop at a time,
//!   and aggregate by inverse sampling probability (Horvitz–Thompson). Each
//!   walk draws from its own seeded RNG, so estimates are bit-reproducible
//!   for a fixed seed *and* independent of how walks are batched.
//! * [`EstimatorKind::Catalog`] — precomputed per-join-path key statistics:
//!   exact heavy-hitter counts plus a uniform residual per (table, key)
//!   pair, composed along the chain. Deterministic, no sampling.
//!
//! The sampling and catalog estimators compute per-join output
//! cardinalities and feed them back through the histogram propagation
//! machinery that [`estimate_dag`] runs, so `IS`/`FS`/`P` and downstream
//! job estimates keep their §3 shape while the join sizes improve. Joins
//! they cannot handle (broadcast joins, non-chain shapes, float keys,
//! missing tables) silently fall back to the histogram estimate — they
//! refine, never break.

use crate::estimate::{estimate_dag, estimate_dag_sized, EstimatorConfig, JobEstimate};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sapred_plan::dag::{InputSrc, JobKind, QueryDag, TableInput};
use sapred_relation::expr::{BoundPredicate, Predicate};
use sapred_relation::gen::Database;
use sapred_relation::stats::Catalog;
use sapred_relation::table::Table;
use std::collections::HashMap;

/// Which cardinality estimator refines join sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EstimatorKind {
    /// The paper's equi-width histogram path (Eq. 5). The default.
    #[default]
    Histogram,
    /// Wander-join random-walk sampling (Horvitz–Thompson).
    Sample,
    /// Precomputed per-join-path key statistics (heavy hitters + residual).
    Catalog,
}

impl EstimatorKind {
    /// All estimator kinds, in sweep order.
    pub const ALL: [EstimatorKind; 3] =
        [EstimatorKind::Histogram, EstimatorKind::Sample, EstimatorKind::Catalog];

    /// Stable CLI/JSON label.
    pub fn label(&self) -> &'static str {
        match self {
            EstimatorKind::Histogram => "histogram",
            EstimatorKind::Sample => "sample",
            EstimatorKind::Catalog => "catalog",
        }
    }

    /// Parse a CLI/JSON label.
    pub fn parse(s: &str) -> Result<EstimatorKind, String> {
        EstimatorKind::ALL
            .into_iter()
            .find(|k| k.label() == s)
            .ok_or_else(|| format!("unknown estimator `{s}` (expected histogram|sample|catalog)"))
    }
}

impl std::fmt::Display for EstimatorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Estimate every job of `dag`, in job order, with the estimator selected
/// by `config.kind`: a pure function of its arguments (the sampling
/// estimator derives all its randomness from
/// [`EstimatorConfig::sample_seed`]).
///
/// `tables` supplies materialized base tables to the sampling and catalog
/// estimators; with `None` (or for joins they cannot flatten) they fall
/// back to the histogram path, so this function never does worse than
/// [`estimate_dag`].
pub fn estimate_dag_with(
    dag: &QueryDag,
    catalog: &Catalog,
    tables: Option<&Database>,
    config: &EstimatorConfig,
) -> Vec<JobEstimate> {
    let refined = match config.kind {
        EstimatorKind::Histogram => return estimate_dag(dag, catalog, config),
        EstimatorKind::Sample => refine_joins(dag, catalog, tables, |plan, tables, job| {
            let walks = plan.walk_estimates(tables, config, job, config.sample_walks)?;
            Some(mean(&walks))
        }),
        EstimatorKind::Catalog => refine_joins(dag, catalog, tables, |plan, tables, _| {
            plan.path_stats_size(tables, config)
        }),
    };
    estimate_dag_sized(dag, catalog, config, &mut |id| refined[id])
}

/// Per-walk Horvitz–Thompson estimates for one join job of `dag`: the test
/// hook behind the sampling estimator. Walk `i`'s value depends only on
/// `(config.sample_seed, job, i)`, so the estimate over `n` walks equals
/// the mean of any prefix schedule — batching cannot change the result.
/// Returns `None` when the join cannot be flattened to a walkable chain.
pub fn join_walk_estimates(
    dag: &QueryDag,
    job: usize,
    catalog: &Catalog,
    tables: &Database,
    config: &EstimatorConfig,
    n_walks: usize,
) -> Option<Vec<f64>> {
    flatten_join(dag, job, catalog)?.walk_estimates(tables, config, job, n_walks)
}

fn mean(walks: &[f64]) -> f64 {
    if walks.is_empty() {
        0.0
    } else {
        walks.iter().sum::<f64>() / walks.len() as f64
    }
}

/// Compute refined join sizes per job id (None = keep the histogram
/// estimate). Shared driver for the sampling and catalog estimators.
fn refine_joins(
    dag: &QueryDag,
    catalog: &Catalog,
    tables: Option<&Database>,
    size_fn: impl Fn(&WalkPlan<'_>, &Database, usize) -> Option<f64>,
) -> Vec<Option<f64>> {
    let Some(tables) = tables else {
        return vec![None; dag.len()];
    };
    dag.jobs()
        .iter()
        .map(|job| {
            let plan = flatten_join(dag, job.id, catalog)?;
            size_fn(&plan, tables, job.id)
        })
        .collect()
}

/// A join chain flattened for random walks: `chain[0]` is the walk's base
/// table; hop `h` joins `chain[h + 1]` on
/// `chain[hops[h].owner].left_key = chain[h + 1].right_key`.
struct WalkPlan<'a> {
    chain: Vec<&'a TableInput>,
    hops: Vec<Hop>,
}

struct Hop {
    /// Index into `chain` of the table owning the left join key.
    owner: usize,
    left_key: String,
    right_key: String,
}

/// Flatten a (possibly chained) join job into a walk plan. Gives up
/// (returns `None`) on anything that is not a left-deep chain of base-table
/// equi-joins: broadcast joins, group-by/sort inputs, or join keys that no
/// chain table's schema resolves.
fn flatten_join<'a>(dag: &'a QueryDag, job: usize, catalog: &Catalog) -> Option<WalkPlan<'a>> {
    let j = dag.job(job);
    if !j.broadcasts.is_empty() {
        return None;
    }
    let JobKind::Join { left, right, left_key, right_key } = &j.kind else {
        return None;
    };
    // Normalize so the build side is a base table (joins are symmetric).
    let (stream, stream_key, build, build_key) = match (left, right) {
        (_, InputSrc::Table(t)) => (left, left_key, t, right_key),
        (InputSrc::Table(t), _) => (right, right_key, t, left_key),
        _ => return None,
    };
    let mut plan = match stream {
        InputSrc::Table(t) => WalkPlan { chain: vec![t], hops: Vec::new() },
        InputSrc::Job(i) => flatten_join(dag, *i, catalog)?,
    };
    // Resolve which chain table owns the stream-side key. Column names are
    // schema-qualified by convention (TPC-H prefixes), so the first match
    // is the owner.
    let owner = plan
        .chain
        .iter()
        .position(|t| catalog.get(&t.table).is_some_and(|s| s.column(stream_key).is_some()))?;
    plan.chain.push(build);
    plan.hops.push(Hop { owner, left_key: stream_key.clone(), right_key: build_key.clone() });
    Some(plan)
}

/// A hop prepared for walking: the materialized table, its key index and
/// the key column of the owning chain table.
struct PreparedHop<'t> {
    predicate: BoundPredicate<'t>,
    owner: usize,
    owner_keys: &'t [i32],
    index: HashMap<i32, Vec<u32>>,
}

impl WalkPlan<'_> {
    /// Materialize tables, key columns and hash indexes. `None` when a
    /// table is missing or a join key is not an integer column.
    fn prepare<'t>(&'t self, tables: &'t Database) -> Option<(&'t Table, Vec<PreparedHop<'t>>)> {
        let mats: Vec<&'t Table> =
            self.chain.iter().map(|t| tables.table(&t.table)).collect::<Option<_>>()?;
        let hops = self
            .hops
            .iter()
            .enumerate()
            .map(|(h, hop)| {
                let table = mats[h + 1];
                let owner_keys = mats[hop.owner].column(&hop.left_key)?.as_int()?;
                let keys = table.column(&hop.right_key)?.as_int()?;
                let mut index: HashMap<i32, Vec<u32>> = HashMap::new();
                for (row, &k) in keys.iter().enumerate() {
                    index.entry(k).or_default().push(row as u32);
                }
                Some(PreparedHop {
                    predicate: self.chain[h + 1].predicate.bind(table),
                    owner: hop.owner,
                    owner_keys,
                    index,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        Some((mats[0], hops))
    }

    /// Run `n_walks` wander-join walks; element `i` is walk `i`'s
    /// Horvitz–Thompson estimate (0 for failed walks).
    fn walk_estimates(
        &self,
        tables: &Database,
        config: &EstimatorConfig,
        job: usize,
        n_walks: usize,
    ) -> Option<Vec<f64>> {
        let (base, hops) = self.prepare(tables)?;
        if base.rows() == 0 {
            return Some(vec![0.0; n_walks]);
        }
        let base_pred = self.chain[0].predicate.bind(base);
        let walks = (0..n_walks)
            .map(|i| {
                let mut rng = StdRng::seed_from_u64(walk_seed(config.sample_seed, job, i));
                self.one_walk(base, &base_pred, &hops, &mut rng)
            })
            .collect();
        Some(walks)
    }

    /// One random walk: uniform base tuple, then one uniformly-chosen match
    /// per hop. The estimate is the inverse of the walk's sampling
    /// probability (|T₀| × Π matchesₕ) when every tuple passes its table's
    /// predicate, 0 otherwise.
    fn one_walk(
        &self,
        base: &Table,
        base_pred: &BoundPredicate<'_>,
        hops: &[PreparedHop<'_>],
        rng: &mut StdRng,
    ) -> f64 {
        let row = rng.gen_range(0..base.rows());
        if !base_pred.eval(row) {
            return 0.0;
        }
        let mut inv_prob = base.rows() as f64;
        let mut chain_rows = Vec::with_capacity(hops.len() + 1);
        chain_rows.push(row);
        for hop in hops {
            let key = hop.owner_keys[chain_rows[hop.owner]];
            let Some(matches) = hop.index.get(&key) else {
                return 0.0;
            };
            let pick = matches[rng.gen_range(0..matches.len())] as usize;
            if !hop.predicate.eval(pick) {
                return 0.0;
            }
            inv_prob *= matches.len() as f64;
            chain_rows.push(pick);
        }
        inv_prob
    }

    /// Deterministic path-statistics estimate: compose per-hop
    /// [`KeySketch`] joins along the chain, scaling the owner table's key
    /// sketch to the current path cardinality.
    fn path_stats_size(&self, tables: &Database, config: &EstimatorConfig) -> Option<f64> {
        let mats: Vec<&Table> =
            self.chain.iter().map(|t| tables.table(&t.table)).collect::<Option<_>>()?;
        // Filtered row counts per chain table (the sketch scale anchors).
        let filtered: Vec<f64> = mats
            .iter()
            .zip(&self.chain)
            .map(|(t, input)| input.predicate.bind(t).selected().len() as f64)
            .collect();
        let mut n_cur = filtered[0];
        for (h, hop) in self.hops.iter().enumerate() {
            let left = KeySketch::build(
                mats[hop.owner],
                &hop.left_key,
                &self.chain[hop.owner].predicate,
                config.path_top_k,
            )?;
            let right = KeySketch::build(
                mats[h + 1],
                &hop.right_key,
                &self.chain[h + 1].predicate,
                config.path_top_k,
            )?;
            // The owner's key distribution inside the current joined path,
            // approximated by scaling its filtered base sketch.
            let anchor = filtered[hop.owner];
            let scale = if anchor > 0.0 { n_cur / anchor } else { 0.0 };
            n_cur = left.scaled(scale).join_size(&right);
        }
        Some(n_cur)
    }
}

/// FNV-1a mix of (seed, job, walk): walk `i`'s RNG stream is a pure
/// function of these three, independent of every other walk.
fn walk_seed(seed: u64, job: usize, walk: usize) -> u64 {
    let mut bytes = [0u8; 24];
    bytes[..8].copy_from_slice(&seed.to_le_bytes());
    bytes[8..16].copy_from_slice(&(job as u64).to_le_bytes());
    bytes[16..].copy_from_slice(&(walk as u64).to_le_bytes());
    sapred_relation::fnv1a(&bytes)
}

/// Key statistics of one (table, key column) pair under a predicate: exact
/// counts of the top-K heaviest keys plus a uniform residual. Small enough
/// to precompute per join-path step, exact where it matters (the hot keys
/// that dominate skewed joins).
struct KeySketch {
    /// `(key, count)` sorted by key, for deterministic merge order.
    heavy: Vec<(i32, f64)>,
    rest_count: f64,
    rest_distinct: f64,
}

impl KeySketch {
    fn build(
        table: &Table,
        column: &str,
        predicate: &Predicate,
        top_k: usize,
    ) -> Option<KeySketch> {
        let keys = table.column(column)?.as_int()?;
        let mut counts: HashMap<i32, f64> = HashMap::new();
        for row in predicate.bind(table).selected() {
            *counts.entry(keys[row]).or_insert(0.0) += 1.0;
        }
        // Deterministic top-K: by count descending, key ascending.
        let mut all: Vec<(i32, f64)> = counts.into_iter().collect();
        all.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        let rest = all.split_off(top_k.min(all.len()));
        let mut heavy = all;
        heavy.sort_by_key(|(k, _)| *k);
        Some(KeySketch {
            heavy,
            rest_count: rest.iter().map(|(_, c)| c).sum(),
            rest_distinct: rest.len() as f64,
        })
    }

    fn scaled(&self, factor: f64) -> KeySketch {
        KeySketch {
            heavy: self.heavy.iter().map(|&(k, c)| (k, c * factor)).collect(),
            rest_count: self.rest_count * factor,
            rest_distinct: self.rest_distinct,
        }
    }

    fn heavy_count(&self, key: i32) -> Option<f64> {
        self.heavy.binary_search_by_key(&key, |(k, _)| *k).ok().map(|i| self.heavy[i].1)
    }

    /// Average multiplicity of a residual key (0 when there is no residual).
    fn rest_avg(&self) -> f64 {
        if self.rest_distinct > 0.0 {
            self.rest_count / self.rest_distinct
        } else {
            0.0
        }
    }

    /// Equi-join size of two key distributions: exact over heavy ∩ heavy,
    /// heavy × residual-average cross terms, System-R
    /// (`c₁·c₂ / max(d₁, d₂)`) for residual × residual.
    fn join_size(&self, other: &KeySketch) -> f64 {
        let mut size = 0.0;
        for &(k, cl) in &self.heavy {
            match other.heavy_count(k) {
                Some(cr) => size += cl * cr,
                None => size += cl * other.rest_avg(),
            }
        }
        for &(k, cr) in &other.heavy {
            if self.heavy_count(k).is_none() {
                size += cr * self.rest_avg();
            }
        }
        let dmax = self.rest_distinct.max(other.rest_distinct);
        if dmax > 0.0 {
            size += self.rest_count * other.rest_count / dmax;
        }
        size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sapred_plan::compile::compile;
    use sapred_query::{analyze, parse};
    use sapred_relation::gen::{generate, GenConfig, KeyDist};

    fn db() -> Database {
        generate(GenConfig::new(0.2).with_seed(21))
    }

    fn dag_of(sql: &str, db: &Database) -> QueryDag {
        let a = analyze(&parse(sql).unwrap(), db.catalog(), db).unwrap();
        compile("q", &a)
    }

    const JOIN: &str =
        "SELECT l_quantity, p_size FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey";
    const CHAIN: &str = "SELECT o_totalprice, p_size FROM lineitem l \
         JOIN orders o ON l.l_orderkey = o.o_orderkey \
         JOIN part p ON l.l_partkey = p.p_partkey";

    #[test]
    fn kind_labels_round_trip() {
        for k in EstimatorKind::ALL {
            assert_eq!(EstimatorKind::parse(k.label()), Ok(k));
        }
        assert!(EstimatorKind::parse("nope").is_err());
        assert_eq!(EstimatorKind::default(), EstimatorKind::Histogram);
    }

    #[test]
    fn histogram_kind_is_inert() {
        let db = db();
        let dag = dag_of(JOIN, &db);
        let cfg = EstimatorConfig::default();
        let direct = estimate_dag(&dag, db.catalog(), &cfg);
        let seamed = estimate_dag_with(&dag, db.catalog(), Some(&db), &cfg);
        for (a, b) in direct.iter().zip(&seamed) {
            assert_eq!(a.tuples_out.to_bits(), b.tuples_out.to_bits());
            assert_eq!(a.d_out.to_bits(), b.d_out.to_bits());
        }
    }

    #[test]
    fn missing_tables_fall_back_to_histogram() {
        let db = db();
        let dag = dag_of(JOIN, &db);
        let cfg = EstimatorConfig { kind: EstimatorKind::Sample, ..Default::default() };
        let hist = estimate_dag(&dag, db.catalog(), &cfg);
        let none = estimate_dag_with(&dag, db.catalog(), None, &cfg);
        assert_eq!(hist[0].tuples_out.to_bits(), none[0].tuples_out.to_bits());
    }

    #[test]
    fn flatten_handles_chains_and_rejects_non_joins() {
        let db = db();
        let chain = dag_of(CHAIN, &db);
        let plan = flatten_join(&chain, 1, db.catalog()).unwrap();
        assert_eq!(plan.chain.len(), 3);
        assert_eq!(plan.hops.len(), 2);
        // Second hop joins part on lineitem's l_partkey: owner is the base.
        assert_eq!(plan.hops[1].owner, 0);
        assert_eq!(plan.hops[1].left_key, "l_partkey");
        let gb = dag_of("SELECT l_partkey, count(*) FROM lineitem GROUP BY l_partkey", &db);
        assert!(flatten_join(&gb, 0, db.catalog()).is_none());
    }

    #[test]
    fn sampling_estimates_track_truth_on_fk_join() {
        let db = db();
        let dag = dag_of(JOIN, &db);
        let cfg = EstimatorConfig { kind: EstimatorKind::Sample, ..Default::default() };
        let est = estimate_dag_with(&dag, db.catalog(), Some(&db), &cfg);
        // FK join: |lineitem ⋈ part| = |lineitem| exactly.
        let truth = db.table("lineitem").unwrap().rows() as f64;
        let err = (est[0].tuples_out - truth).abs() / truth;
        assert!(err < 0.15, "est {} truth {truth}", est[0].tuples_out);
    }

    #[test]
    fn sampling_is_deterministic_and_schedule_independent() {
        let db = db();
        let dag = dag_of(CHAIN, &db);
        let cfg = EstimatorConfig { kind: EstimatorKind::Sample, ..Default::default() };
        let a = join_walk_estimates(&dag, 1, db.catalog(), &db, &cfg, 256).unwrap();
        let b = join_walk_estimates(&dag, 1, db.catalog(), &db, &cfg, 256).unwrap();
        assert_eq!(a.iter().map(|v| v.to_bits()).collect::<Vec<_>>().as_slice(), {
            b.iter().map(|v| v.to_bits()).collect::<Vec<_>>().as_slice()
        });
        // Walk i's value does not depend on the total walk count.
        let shorter = join_walk_estimates(&dag, 1, db.catalog(), &db, &cfg, 64).unwrap();
        assert_eq!(
            shorter.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            a[..64].iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn catalog_sketch_join_is_exact_on_heavy_hitters() {
        // All keys heavy (top_k covers the domain): the sketch join is the
        // exact Σ c₁ᵢ·c₂ᵢ.
        let db = generate(GenConfig::new(0.2).with_seed(7).with_key_dist(KeyDist::Zipf(1.3)));
        let li = db.table("lineitem").unwrap();
        let ps = db.table("partsupp").unwrap();
        let l = KeySketch::build(li, "l_partkey", &Predicate::True, usize::MAX).unwrap();
        let r = KeySketch::build(ps, "ps_partkey", &Predicate::True, usize::MAX).unwrap();
        let est = l.join_size(&r);
        let mut counts: HashMap<i32, f64> = HashMap::new();
        for &k in ps.column("ps_partkey").unwrap().as_int().unwrap() {
            *counts.entry(k).or_insert(0.0) += 1.0;
        }
        let exact: f64 = li
            .column("l_partkey")
            .unwrap()
            .as_int()
            .unwrap()
            .iter()
            .map(|k| counts.get(k).copied().unwrap_or(0.0))
            .sum();
        assert!((est - exact).abs() < 1e-6, "est {est} exact {exact}");
    }
}
