//! Exact (ground-truth) execution of a query DAG against generated data.
//!
//! On the paper's testbed, `D_in`, `D_med` and `D_out` of every job are
//! observable from Hadoop job counters after the run. This module plays that
//! role: it executes the relational semantics of each job exactly — scans
//! with pushed predicates/projections, hash joins, group-bys with a
//! *physically faithful* map-side combiner (per-split distinct counting) —
//! and reports the modeled byte sizes a real job would have produced. The
//! cluster simulator derives task counts and durations from these, and the
//! accuracy experiments compare them against the estimator's predictions.

use crate::dag::{BroadcastJoin, InputSrc, JobKind, MrJob, QueryDag, TableInput};
use sapred_relation::exec::{hash_join, Rel};
use sapred_relation::gen::Database;
use sapred_relation::{modeled_bytes, SCALE_DOWN};

/// Measured (exact) data sizes of one executed job. All byte figures are
/// *modeled* (paper-scale) bytes; tuple counts are physical (down-scaled).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobActual {
    /// Bytes read by the map phase (full input scans / upstream outputs).
    pub d_in: f64,
    /// Bytes of intermediate (map-output) data.
    pub d_med: f64,
    /// Bytes of the job's final output.
    pub d_out: f64,
    /// Tuples read by the map phase.
    pub tuples_in: f64,
    /// Tuples in the intermediate (map-output) data.
    pub tuples_med: f64,
    /// Tuples in the job's output.
    pub tuples_out: f64,
    /// Number of map splits used for combiner ground truth.
    pub n_splits: usize,
    /// Measured join skew ratio `P` (Eq. 7) — the larger filtered side's
    /// share of the filtered input tuples; 0.5 for non-join jobs.
    pub p_actual: f64,
}

impl JobActual {
    /// Observed intermediate selectivity `D_med / D_in`.
    pub fn is_ratio(&self) -> f64 {
        if self.d_in > 0.0 {
            self.d_med / self.d_in
        } else {
            0.0
        }
    }

    /// Observed final selectivity `D_out / D_in`.
    pub fn fs_ratio(&self) -> f64 {
        if self.d_in > 0.0 {
            self.d_out / self.d_in
        } else {
            0.0
        }
    }
}

/// Suffix a join's right side gets on a column name the left side has too.
const RIGHT_SUFFIX: &str = "__r";
/// Suffix a broadcast table gets on a column name the stream side has too.
const BROADCAST_SUFFIX: &str = "__b";

/// Execute every job of `dag` against `db`, in topological (id) order.
///
/// `block_size` is the HDFS block size in *modeled* bytes (the paper uses
/// 256 MB); it determines the number of map splits and therefore the
/// map-side combiner's ground-truth output.
pub fn execute_dag(dag: &QueryDag, db: &Database, block_size: f64) -> Vec<JobActual> {
    assert!(block_size > 0.0, "block size must be positive");
    let mut last_read = vec![None; dag.len()];
    for job in dag.jobs() {
        for (slot, input) in job.kind.inputs().into_iter().enumerate() {
            if let Some(j) = input.job_dep() {
                last_read[j] = Some((job.id, slot));
            }
        }
    }
    let mut run = Run {
        db,
        keys: key_names(dag),
        outputs: Vec::with_capacity(dag.len()),
        last_read,
        actuals: Vec::with_capacity(dag.len()),
    };
    for job in dag.jobs() {
        let (actual, out) = execute_job(job, &mut run, block_size);
        let read_later = run.last_read[job.id].is_some();
        run.outputs.push(read_later.then_some(out));
        run.actuals.push(actual);
    }
    run.actuals
}

/// Every column a job of `dag` keys on (join, broadcast and group-by keys),
/// with rename suffixes removed: the only columns whose values an operator
/// reads, so scans keep values for these alone.
fn key_names(dag: &QueryDag) -> Vec<String> {
    let mut keys = Vec::new();
    for job in dag.jobs() {
        let named: Vec<&String> = match &job.kind {
            JobKind::Join { left_key, right_key, .. } => vec![left_key, right_key],
            JobKind::Groupby { keys, .. } => keys.iter().collect(),
            JobKind::Sort { .. } | JobKind::MapOnly { .. } => Vec::new(),
        };
        let broadcast = job.broadcasts.iter().flat_map(|b| [&b.stream_key, &b.table_key]);
        keys.extend(named.into_iter().chain(broadcast).map(|k| base_name(k).to_string()));
    }
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// `name` without the suffixes joins add to colliding column names.
fn base_name(mut name: &str) -> &str {
    while let Some(base) =
        name.strip_suffix(RIGHT_SUFFIX).or_else(|| name.strip_suffix(BROADCAST_SUFFIX))
    {
        name = base;
    }
    name
}

/// One DAG's execution so far.
struct Run<'a> {
    db: &'a Database,
    /// [`key_names`] of the DAG.
    keys: Vec<String>,
    /// Each executed job's output, until its last reader takes it (`None`
    /// from then on, or from the start if no job reads it).
    outputs: Vec<Option<Rel>>,
    /// Per job, the `(job, input slot)` that reads its output last: that
    /// read moves the output, earlier ones clone it.
    last_read: Vec<Option<(usize, usize)>>,
    actuals: Vec<JobActual>,
}

/// The filtered, projected scan of `input`, with values for the DAG's key
/// columns only; also returns the table's modeled bytes and rows.
fn scan(input: &TableInput, run: &Run) -> (f64, f64, Rel) {
    let table = run
        .db
        .table(&input.table)
        .unwrap_or_else(|| panic!("table {} not in database", input.table));
    let rel = Rel::from_table(table, &input.predicate, &input.projection, &run.keys);
    (table.modeled_bytes(), table.rows() as f64, rel)
}

/// Resolve the input that `reader`, a `(job, input slot)`, reads: returns
/// (raw input bytes, raw input tuples, map-output relation). For a table input the map output is
/// the filtered+projected scan; for a job input it is the upstream output
/// passed through unchanged, moved to its last reader.
fn resolve_input(input: &InputSrc, reader: (usize, usize), run: &mut Run) -> (f64, f64, Rel) {
    match input {
        InputSrc::Table(t) => scan(t, run),
        InputSrc::Job(j) => {
            let out = if run.last_read[*j] == Some(reader) {
                run.outputs[*j].take()
            } else {
                run.outputs[*j].clone()
            };
            let rel = out.expect("job output read after its last reader");
            (run.actuals[*j].d_out, rel.rows() as f64, rel)
        }
    }
}

fn splits_for(d_in: f64, block_size: f64) -> usize {
    ((d_in / block_size).ceil() as usize).max(1)
}

/// Apply map-side (broadcast) joins to a job's primary input relation.
/// Returns the joined relation plus the extra bytes/tuples read from the
/// broadcast tables (shipped once via the distributed cache).
fn apply_broadcasts(mut rel: Rel, broadcasts: &[BroadcastJoin], run: &Run) -> (Rel, f64, f64) {
    let mut extra_bytes = 0.0;
    let mut extra_tuples = 0.0;
    for b in broadcasts {
        let (bytes, tuples, mut small) = scan(&b.table, run);
        extra_bytes += bytes;
        extra_tuples += tuples;
        let tkey = disambiguate(&rel, &mut small, &b.table_key, BROADCAST_SUFFIX);
        rel = hash_join(&rel, &small, &b.stream_key, &tkey);
    }
    (rel, extra_bytes, extra_tuples)
}

/// Rename `other`'s columns that `base` also has by appending `suffix`, and
/// return `key` (one of `other`'s columns) as it is named afterwards.
fn disambiguate(base: &Rel, other: &mut Rel, key: &str, suffix: &str) -> String {
    let mut key = key.to_string();
    let collisions: Vec<String> =
        other.names().iter().filter(|n| base.names().contains(n)).cloned().collect();
    for c in collisions {
        let renamed = format!("{c}{suffix}");
        other.rename_column(&c, renamed.clone());
        if key == c {
            key = renamed;
        }
    }
    key
}

fn execute_job(job: &MrJob, run: &mut Run, block_size: f64) -> (JobActual, Rel) {
    let broadcasts = &job.broadcasts;
    match &job.kind {
        JobKind::Join { left, right, left_key, right_key } => {
            let (lb0, lt0, lrel0) = resolve_input(left, (job.id, 0), run);
            let (lrel, bb, bt) = apply_broadcasts(lrel0, broadcasts, run);
            let (lb, lt) = (lb0 + bb, lt0 + bt);
            let (rb, rt, mut rrel) = resolve_input(right, (job.id, 1), run);
            // Disambiguate duplicated column names (self-joins): the right
            // side's colliding columns get a `__r` suffix.
            let rkey = disambiguate(&lrel, &mut rrel, right_key, RIGHT_SUFFIX);
            let joined = hash_join(&lrel, &rrel, left_key, &rkey);
            let d_in = lb + rb;
            let d_med = modeled_bytes(lrel.physical_bytes() + rrel.physical_bytes());
            let d_out = modeled_bytes(joined.physical_bytes());
            // Broadcast tables ship via the distributed cache, not splits.
            let n_splits = splits_for(lb0 + rb, block_size);
            let (lf, rf) = (lrel.rows().max(1) as f64, rrel.rows().max(1) as f64);
            let p_actual = lf.max(rf) / (lf + rf);
            (
                JobActual {
                    d_in,
                    d_med,
                    d_out,
                    tuples_in: lt + rt,
                    tuples_med: (lrel.rows() + rrel.rows()) as f64,
                    tuples_out: joined.rows() as f64,
                    n_splits,
                    p_actual,
                },
                joined,
            )
        }
        JobKind::Groupby { input, keys, n_aggs } => {
            let (b0, t0, rel0) = resolve_input(input, (job.id, 0), run);
            let (rel, bb, bt) = apply_broadcasts(rel0, broadcasts, run);
            let (b, t) = (b0 + bb, t0 + bt);
            let n_splits = splits_for(b0, block_size);
            let (mut grouped, combined) = rel.groupby_combined(keys, n_splits);
            // Aggregate result columns: width 8 each, no values.
            for i in 0..*n_aggs {
                grouped.push_column(format!("__agg{i}"), 8.0);
            }
            let out_width = grouped.tuple_width();
            let d_med = modeled_bytes(combined as f64 * out_width);
            let d_out = modeled_bytes(grouped.rows() as f64 * out_width);
            (
                JobActual {
                    d_in: b,
                    d_med,
                    d_out,
                    tuples_in: t,
                    tuples_med: combined as f64,
                    tuples_out: grouped.rows() as f64,
                    n_splits,
                    p_actual: 0.5,
                },
                grouped,
            )
        }
        JobKind::Sort { input, keys: _, limit } => {
            let (b0, t0, rel0) = resolve_input(input, (job.id, 0), run);
            let (rel, bb, bt) = apply_broadcasts(rel0, broadcasts, run);
            let (b, t) = (b0 + bb, t0 + bt);
            let n_splits = splits_for(b0, block_size);
            // The map phase of a sort passes records through (identity map
            // keyed on the sort column); |Out| = min(|In|, k) per §3.1.2.
            let (d_med, tuples_med) = (modeled_bytes(rel.physical_bytes()), rel.rows());
            let out = match limit {
                Some(k) => {
                    // One physical row per SCALE_DOWN nominal rows: the limit
                    // applies at nominal scale.
                    let phys = ((*k as f64) / SCALE_DOWN).ceil() as usize;
                    rel.head(phys.max(1).min(rel.rows()))
                }
                None => rel,
            };
            let d_out = modeled_bytes(out.physical_bytes());
            (
                JobActual {
                    d_in: b,
                    d_med,
                    d_out,
                    tuples_in: t,
                    tuples_med: tuples_med as f64,
                    tuples_out: out.rows() as f64,
                    n_splits,
                    p_actual: 0.5,
                },
                out,
            )
        }
        JobKind::MapOnly { input } => {
            let (b0, t0, rel0) = resolve_input(input, (job.id, 0), run);
            let (rel, bb, bt) = apply_broadcasts(rel0, broadcasts, run);
            let (b, t) = (b0 + bb, t0 + bt);
            let n_splits = splits_for(b0, block_size);
            let bytes = modeled_bytes(rel.physical_bytes());
            (
                JobActual {
                    d_in: b,
                    d_med: bytes,
                    d_out: bytes,
                    tuples_in: t,
                    tuples_med: rel.rows() as f64,
                    tuples_out: rel.rows() as f64,
                    n_splits,
                    p_actual: 0.5,
                },
                rel,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DagBuilder;
    use crate::compile::compile;
    use sapred_query::{analyze, parse};
    use sapred_relation::expr::{CmpOp, Predicate};
    use sapred_relation::gen::{generate, GenConfig};

    const BLOCK: f64 = 256.0 * 1024.0 * 1024.0;

    fn db() -> Database {
        generate(GenConfig::new(0.2).with_seed(11))
    }

    fn run(sql: &str) -> (QueryDag, Vec<JobActual>, Database) {
        let db = db();
        let a = analyze(&parse(sql).unwrap(), db.catalog(), &db).unwrap();
        let dag = compile("q", &a);
        let actuals = execute_dag(&dag, &db, BLOCK);
        (dag, actuals, db)
    }

    #[test]
    fn map_only_selectivity() {
        let (_, a, db) = run("SELECT l_partkey FROM lineitem WHERE l_quantity > 40");
        let j = &a[0];
        assert_eq!(j.d_in, db.table("lineitem").unwrap().modeled_bytes());
        // l_quantity uniform on 1..=50 ⇒ ~20% of rows survive; projection to
        // one 8-byte column out of a ~86-byte tuple shrinks further.
        let sel = j.tuples_med / j.tuples_in;
        assert!((0.15..0.25).contains(&sel), "sel = {sel}");
        assert_eq!(j.d_med, j.d_out);
        assert!(j.is_ratio() < 0.05, "IS = {}", j.is_ratio());
    }

    #[test]
    fn join_output_counts_fk_join() {
        let (_, a, db) = run(
            "SELECT l_quantity, p_size FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey",
        );
        let j = &a[0];
        // FK join against the part PK: every lineitem row matches exactly
        // one part row.
        assert_eq!(j.tuples_out, db.table("lineitem").unwrap().rows() as f64);
    }

    #[test]
    fn groupby_counts_groups() {
        let (_, a, db) =
            run("SELECT l_partkey, sum(l_extendedprice) FROM lineitem GROUP BY l_partkey");
        let j = &a[0];
        let parts = db.table("part").unwrap().rows() as f64;
        // Group count can't exceed the part-key domain.
        assert!(j.tuples_out <= parts);
        assert!(j.tuples_out > 0.8 * parts, "out = {} parts = {parts}", j.tuples_out);
        // Combiner output between group count and input count.
        assert!(j.tuples_med >= j.tuples_out);
        assert!(j.tuples_med <= j.tuples_in);
    }

    #[test]
    fn chained_jobs_propagate_sizes() {
        let (dag, a, _) = run("SELECT l_partkey, sum(l_extendedprice) FROM lineitem \
             WHERE l_shipdate < 500 GROUP BY l_partkey ORDER BY l_partkey");
        assert_eq!(dag.len(), 2);
        // The sort job's input bytes are exactly the group-by output bytes.
        assert_eq!(a[1].d_in, a[0].d_out);
        assert_eq!(a[1].tuples_in, a[0].tuples_out);
        // Sort is a pass-through.
        assert_eq!(a[1].tuples_out, a[1].tuples_in);
    }

    #[test]
    fn self_join_via_builder() {
        let db = db();
        let mut b = DagBuilder::new();
        let g = b.groupby(
            DagBuilder::table("lineitem", Predicate::True, ["l_partkey", "l_quantity"]),
            ["l_partkey"],
            1,
        );
        let j = b.join(
            DagBuilder::table(
                "lineitem",
                Predicate::cmp("l_quantity", CmpOp::Lt, 10.0),
                ["l_partkey", "l_extendedprice"],
            ),
            DagBuilder::job(g),
            "l_partkey",
            "l_partkey",
        );
        let _ = b.groupby(DagBuilder::job(j), Vec::<String>::new(), 1);
        let dag = b.build("q17-ish");
        let a = execute_dag(&dag, &db, BLOCK);
        assert_eq!(a.len(), 3);
        // The final global aggregate has exactly one output tuple (or zero
        // if the filter emptied the join).
        assert!(a[2].tuples_out <= 1.0);
        // The join output cannot exceed the filtered lineitem side (FK-ish).
        assert!(a[1].tuples_out <= a[1].tuples_med);
    }

    #[test]
    fn an_output_read_by_several_jobs_reaches_each_whole() {
        let db = db();
        let mut b = DagBuilder::new();
        let g = b.groupby(
            DagBuilder::table("lineitem", Predicate::True, ["l_partkey", "l_quantity"]),
            ["l_partkey"],
            1,
        );
        let first = b.sort(DagBuilder::job(g), ["l_partkey"], None);
        let second = b.sort(DagBuilder::job(g), ["l_partkey"], Some(5000));
        // The last reader reads it twice, as both sides of a self-join.
        let both = b.join(DagBuilder::job(g), DagBuilder::job(g), "l_partkey", "l_partkey");
        let a = execute_dag(&b.build("fan-out"), &db, BLOCK);
        assert!(a[g].tuples_out > 0.0);
        for reader in [first, second] {
            assert_eq!(a[reader].tuples_in, a[g].tuples_out);
            assert_eq!(a[reader].d_in, a[g].d_out);
        }
        assert_eq!(a[both].tuples_in, 2.0 * a[g].tuples_out);
        assert_eq!(a[both].d_in, 2.0 * a[g].d_out);
        // Group keys are unique: each row joins its own copy only.
        assert_eq!(a[both].tuples_out, a[g].tuples_out);
    }

    #[test]
    fn key_names_drop_rename_suffixes() {
        let mut b = DagBuilder::new();
        let j = b.join(
            DagBuilder::table("lineitem", Predicate::True, ["l_partkey", "l_quantity"]),
            DagBuilder::table("lineitem", Predicate::True, ["l_partkey", "l_suppkey"]),
            "l_partkey",
            "l_partkey",
        );
        let _ = b.groupby(DagBuilder::job(j), ["l_suppkey", "l_partkey__r__b"], 1);
        assert_eq!(key_names(&b.build("q")), ["l_partkey", "l_suppkey"]);
    }

    #[test]
    fn global_aggregate_one_tuple() {
        let (_, a, _) = run("SELECT count(*) FROM orders");
        assert_eq!(a[0].tuples_out, 1.0);
        // Combiner collapses each split to one tuple.
        assert_eq!(a[0].tuples_med, a[0].n_splits as f64);
    }

    #[test]
    fn limit_truncates_nominal_rows() {
        let (_, a, _) = run("SELECT o_orderkey FROM orders ORDER BY o_orderkey LIMIT 2000");
        // 2000 nominal rows = 2 physical rows at SCALE_DOWN = 1000.
        assert_eq!(a[0].tuples_out, 2.0);
    }

    #[test]
    fn splits_grow_with_scale() {
        let small = generate(GenConfig::new(1.0).with_seed(3));
        let large = generate(GenConfig::new(50.0).with_seed(3));
        let sql = "SELECT l_partkey FROM lineitem WHERE l_quantity > 40";
        let mk = |db: &Database| {
            let a = analyze(&parse(sql).unwrap(), db.catalog(), db).unwrap();
            execute_dag(&compile("q", &a), db, BLOCK)[0].n_splits
        };
        assert!(mk(&large) > 10 * mk(&small), "{} vs {}", mk(&large), mk(&small));
    }
}
