//! Count-only relational execution: the ground truth the estimator is judged
//! against.
//!
//! A real Hadoop job materializes its intermediate and final data on disk;
//! the paper measures `D_med`/`D_out` from job counters. Here we execute the
//! relational semantics of each job exactly — filters, projections, hash
//! joins, group-bys, map-side combiners — over the generated tables, keeping
//! only the columns later operators need, and report exact tuple counts. The
//! byte-level accounting (widths × tuples × scale) is done by the planner.
//!
//! Scans bind their predicate once ([`Predicate::bind`]) and test it a
//! column at a time. Group and join keys are the `f64::to_bits` of each key
//! value, packed into one `u64` or `u128` for one or two key columns, and
//! hashed with the crate's small non-cryptographic hasher. No result
//! depends on hash iteration order: group-bys keep rows in first-occurrence
//! order and joins emit rows in probe order.

use crate::expr::Predicate;
use crate::hash::{FastMap, FastSet};
use crate::table::{Column, Table};
use std::hash::Hash;
use std::ops::Range;

/// A lightweight materialized relation flowing between job stages.
#[derive(Debug, Clone)]
pub struct Rel {
    names: Vec<String>,
    widths: Vec<f64>,
    cols: Vec<Column>,
    rows: usize,
}

impl Rel {
    /// Filter a base table with `pred` and keep only `projection` columns.
    /// An empty projection keeps every column.
    pub fn from_table(table: &Table, pred: &Predicate, projection: &[String]) -> Self {
        let keep: Vec<usize> = if projection.is_empty() {
            (0..table.schema().len()).collect()
        } else {
            projection
                .iter()
                .map(|n| {
                    table
                        .schema()
                        .index_of(n)
                        .unwrap_or_else(|| panic!("unknown column {n} in {}", table.name()))
                })
                .collect()
        };
        let selected = pred.bind(table).selected();
        let cols =
            keep.iter().map(|&c| gather(table.column_at(c), selected.iter().copied())).collect();
        let names = keep.iter().map(|&c| table.schema().columns()[c].name.clone()).collect();
        let widths = keep.iter().map(|&c| table.schema().columns()[c].dtype.width()).collect();
        Self { names, widths, cols, rows: selected.len() }
    }

    /// Build a relation directly from columns.
    #[cfg(test)]
    pub fn from_columns(names: Vec<String>, widths: Vec<f64>, cols: Vec<Column>) -> Self {
        assert_eq!(names.len(), cols.len());
        assert_eq!(widths.len(), cols.len());
        let rows = cols.first().map_or(0, Column::len);
        assert!(cols.iter().all(|c| c.len() == rows), "ragged relation");
        Self { names, widths, cols, rows }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column names in order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Average tuple width of this relation in bytes.
    pub fn tuple_width(&self) -> f64 {
        self.widths.iter().sum()
    }

    /// Physical bytes of the relation.
    pub fn physical_bytes(&self) -> f64 {
        self.rows as f64 * self.tuple_width()
    }

    /// Column data by name.
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.names.iter().position(|n| n == name).map(|i| &self.cols[i])
    }

    fn col_index(&self, name: &str) -> usize {
        self.names
            .iter()
            .position(|n| n == name)
            .unwrap_or_else(|| panic!("unknown column {name} (have {:?})", self.names))
    }

    /// Filter this relation by `pred`.
    pub fn filter(&self, pred: &Predicate) -> Rel {
        let selected = pred.bind_with(self.rows, &|n| &self.cols[self.col_index(n)]).selected();
        let cols = self.cols.iter().map(|c| gather(c, selected.iter().copied())).collect();
        Rel { names: self.names.clone(), widths: self.widths.clone(), cols, rows: selected.len() }
    }

    /// Keep only the named columns.
    pub fn project(&self, keep: &[String]) -> Rel {
        let idx: Vec<usize> = keep.iter().map(|n| self.col_index(n)).collect();
        Rel {
            names: idx.iter().map(|&i| self.names[i].clone()).collect(),
            widths: idx.iter().map(|&i| self.widths[i]).collect(),
            cols: idx.iter().map(|&i| self.cols[i].clone()).collect(),
            rows: self.rows,
        }
    }

    /// Rename a column (used to disambiguate self-join outputs).
    pub fn rename_column(&mut self, old: &str, new: impl Into<String>) {
        let i = self.col_index(old);
        self.names[i] = new.into();
    }

    /// Append a column (e.g. aggregate placeholder columns on a group-by
    /// output, so downstream byte accounting sees their width).
    ///
    /// # Panics
    /// Panics if the column length differs from the relation's row count.
    pub fn push_column(&mut self, name: impl Into<String>, width: f64, col: Column) {
        assert_eq!(col.len(), self.rows, "column length mismatch");
        self.names.push(name.into());
        self.widths.push(width);
        self.cols.push(col);
    }

    /// First `n` rows (LIMIT semantics; order is the relation's row order).
    pub fn head(&self, n: usize) -> Rel {
        let keep = n.min(self.rows);
        let cols = self
            .cols
            .iter()
            .map(|c| match c {
                Column::Int(v) => Column::Int(v[..keep].to_vec()),
                Column::Float(v) => Column::Float(v[..keep].to_vec()),
            })
            .collect();
        Rel { names: self.names.clone(), widths: self.widths.clone(), cols, rows: keep }
    }

    /// Number of distinct combinations of the key columns (exact group count).
    pub fn group_count(&self, keys: &[String]) -> usize {
        self.first_of_each_key(&self.key_indices(keys), 0..self.rows).len()
    }

    /// Collapse to one row per distinct key combination (group-by output with
    /// the key columns only; aggregate widths are accounted for logically by
    /// the planner). Each group keeps its first row, in row order.
    pub fn groupby(&self, keys: &[String]) -> Rel {
        let idx = self.key_indices(keys);
        let rows_kept = self.first_of_each_key(&idx, 0..self.rows);
        Rel {
            names: keys.to_vec(),
            widths: idx.iter().map(|&i| self.widths[i]).collect(),
            cols: idx.iter().map(|&c| gather(&self.cols[c], rows_kept.iter().copied())).collect(),
            rows: rows_kept.len(),
        }
    }

    /// Ground truth for a map-side combiner: split the relation into
    /// `n_splits` contiguous chunks (HDFS splits preserve file order) and sum
    /// the per-split distinct key counts. Clustered layouts give ≈ the global
    /// distinct count; random layouts approach `n_splits ×` it (paper Eq. 2's
    /// two cases emerge from the data rather than being assumed).
    pub fn combine_output(&self, keys: &[String], n_splits: usize) -> usize {
        assert!(n_splits > 0);
        if self.rows == 0 {
            return 0;
        }
        let idx = self.key_indices(keys);
        let per_split = self.rows.div_ceil(n_splits);
        (0..self.rows)
            .step_by(per_split)
            .map(|start| {
                let end = (start + per_split).min(self.rows);
                self.first_of_each_key(&idx, start..end).len()
            })
            .sum()
    }

    fn key_indices(&self, keys: &[String]) -> Vec<usize> {
        keys.iter().map(|k| self.col_index(k)).collect()
    }

    /// The rows of `range` where a key first appears, in row order. A key
    /// is the `to_bits` of each key column's value, so float keys compare
    /// exactly; one or two columns pack into a `u64` or `u128`.
    fn first_of_each_key(&self, idx: &[usize], range: Range<usize>) -> Vec<usize> {
        let bits = |c: usize, i: usize| self.cols[c].get_f64(i).to_bits();
        match *idx {
            [a] => first_rows(range, |i| bits(a, i)),
            [a, b] => first_rows(range, |i| u128::from(bits(a, i)) << 64 | u128::from(bits(b, i))),
            _ => first_rows(range, |i| idx.iter().map(|&c| bits(c, i)).collect::<Vec<u64>>()),
        }
    }
}

/// The rows of `range` whose `key` has not appeared earlier in it.
fn first_rows<K: Hash + Eq>(range: Range<usize>, key: impl Fn(usize) -> K) -> Vec<usize> {
    let mut seen = FastSet::default();
    range.filter(|&i| seen.insert(key(i))).collect()
}

/// Rows `rows` of `col`, in that order.
pub(crate) fn gather(col: &Column, rows: impl Iterator<Item = usize>) -> Column {
    match col {
        Column::Int(v) => Column::Int(rows.map(|i| v[i]).collect()),
        Column::Float(v) => Column::Float(rows.map(|i| v[i]).collect()),
    }
}

/// Exact inner equi-join: materializes all matching row pairs, keeping every
/// column of both sides (callers project first to bound memory). Keys match
/// on their exact value (`f64::to_bits`). Rows come out in probe order, each
/// probe row's matches in build order.
///
/// # Panics
/// Panics if a key column is missing, or if the two sides share a column
/// name (qualify names before joining).
pub fn hash_join(left: &Rel, right: &Rel, left_key: &str, right_key: &str) -> Rel {
    for n in left.names() {
        assert!(
            !right.names().contains(n),
            "duplicate column {n} across join sides; qualify names first"
        );
    }
    // Build on the smaller side.
    let (build, probe, build_key, probe_key, build_is_left) = if left.rows() <= right.rows() {
        (left, right, left_key, right_key, true)
    } else {
        (right, left, right_key, left_key, false)
    };
    let bkey = build.col_index(build_key);
    let pkey = probe.col_index(probe_key);
    // Keyed on the exact value, as group keys are: 1.2 does not join 1.9.
    let mut ht: FastMap<u64, Vec<u32>> = FastMap::default();
    for i in 0..build.rows() {
        ht.entry(build.cols[bkey].get_f64(i).to_bits()).or_default().push(i as u32);
    }
    let mut build_rows: Vec<u32> = Vec::new();
    let mut probe_rows: Vec<u32> = Vec::new();
    for i in 0..probe.rows() {
        if let Some(matches) = ht.get(&probe.cols[pkey].get_f64(i).to_bits()) {
            for &b in matches {
                build_rows.push(b);
                probe_rows.push(i as u32);
            }
        }
    }
    let take = |rel: &Rel, rows: &[u32]| -> Vec<Column> {
        rel.cols.iter().map(|c| gather(c, rows.iter().map(|&i| i as usize))).collect()
    };
    let (lrows, rrows) =
        if build_is_left { (&build_rows, &probe_rows) } else { (&probe_rows, &build_rows) };
    let (lrel, rrel) = if build_is_left { (build, probe) } else { (probe, build) };
    let mut names = lrel.names.clone();
    names.extend(rrel.names.iter().cloned());
    let mut widths = lrel.widths.clone();
    widths.extend(rrel.widths.iter().copied());
    let mut cols = take(lrel, lrows);
    cols.extend(take(rrel, rrows));
    Rel { names, widths, cols, rows: build_rows.len() }
}

/// The row-at-a-time executor this module replaced, kept as the oracle of
/// the differential tests below: every row evaluates the predicate by
/// column name, and every key is a SipHash-ed `Vec<i64>` of `to_bits`
/// values (join keys included, so float keys join exactly). Histograms
/// count distincts with one `HashSet` per bucket, and also with the
/// one-set loop `Histogram::build` used before bitmap and bucket-sort
/// counting.
#[cfg(test)]
mod reference {
    use super::Rel;
    use crate::expr::Predicate;
    use crate::hash::FastSet;
    use crate::histogram::{Bucket, Histogram};
    use crate::table::{Column, Table};
    use std::collections::{HashMap, HashSet};

    /// `pred` on row `i`, looking every column up through `column`.
    fn eval<'a>(pred: &Predicate, column: &dyn Fn(&str) -> &'a Column, i: usize) -> bool {
        match pred {
            Predicate::True => true,
            Predicate::Cmp { column: c, op, value } => op.eval(column(c).get_f64(i), *value),
            Predicate::Between { column: c, lo, hi } => {
                let v = column(c).get_f64(i);
                *lo <= v && v <= *hi
            }
            Predicate::And(a, b) => eval(a, column, i) && eval(b, column, i),
            Predicate::Or(a, b) => eval(a, column, i) || eval(b, column, i),
        }
    }

    fn take(col: &Column, rows: &[usize]) -> Column {
        match col {
            Column::Int(v) => Column::Int(rows.iter().map(|&i| v[i]).collect()),
            Column::Float(v) => Column::Float(rows.iter().map(|&i| v[i]).collect()),
        }
    }

    fn key(rel: &Rel, idx: &[usize], i: usize) -> Vec<i64> {
        idx.iter().map(|&c| rel.cols[c].get_f64(i).to_bits() as i64).collect()
    }

    pub fn from_table(table: &Table, pred: &Predicate, projection: &[String]) -> Rel {
        let keep: Vec<usize> = if projection.is_empty() {
            (0..table.schema().len()).collect()
        } else {
            projection.iter().map(|n| table.schema().index_of(n).unwrap()).collect()
        };
        let selected: Vec<usize> =
            (0..table.rows()).filter(|&i| eval(pred, &|n| table.column(n).unwrap(), i)).collect();
        Rel {
            names: keep.iter().map(|&c| table.schema().columns()[c].name.clone()).collect(),
            widths: keep.iter().map(|&c| table.schema().columns()[c].dtype.width()).collect(),
            cols: keep.iter().map(|&c| take(table.column_at(c), &selected)).collect(),
            rows: selected.len(),
        }
    }

    pub fn filter(rel: &Rel, pred: &Predicate) -> Rel {
        let selected: Vec<usize> =
            (0..rel.rows).filter(|&i| eval(pred, &|n| &rel.cols[rel.col_index(n)], i)).collect();
        let cols = rel.cols.iter().map(|c| take(c, &selected)).collect();
        Rel { names: rel.names.clone(), widths: rel.widths.clone(), cols, rows: selected.len() }
    }

    pub fn group_count(rel: &Rel, keys: &[String]) -> usize {
        let idx: Vec<usize> = keys.iter().map(|k| rel.col_index(k)).collect();
        (0..rel.rows).map(|i| key(rel, &idx, i)).collect::<HashSet<_>>().len()
    }

    pub fn groupby(rel: &Rel, keys: &[String]) -> Rel {
        let idx: Vec<usize> = keys.iter().map(|k| rel.col_index(k)).collect();
        let mut seen = HashSet::new();
        let kept: Vec<usize> = (0..rel.rows).filter(|&i| seen.insert(key(rel, &idx, i))).collect();
        Rel {
            names: keys.to_vec(),
            widths: idx.iter().map(|&i| rel.widths[i]).collect(),
            cols: idx.iter().map(|&c| take(&rel.cols[c], &kept)).collect(),
            rows: kept.len(),
        }
    }

    pub fn combine_output(rel: &Rel, keys: &[String], n_splits: usize) -> usize {
        if rel.rows == 0 {
            return 0;
        }
        let idx: Vec<usize> = keys.iter().map(|k| rel.col_index(k)).collect();
        let per_split = rel.rows.div_ceil(n_splits);
        let mut total = 0;
        let mut start = 0;
        while start < rel.rows {
            let end = (start + per_split).min(rel.rows);
            total += (start..end).map(|i| key(rel, &idx, i)).collect::<HashSet<_>>().len();
            start = end;
        }
        total
    }

    pub fn hash_join(left: &Rel, right: &Rel, left_key: &str, right_key: &str) -> Rel {
        let (build, probe, build_key, probe_key, build_is_left) = if left.rows <= right.rows {
            (left, right, left_key, right_key, true)
        } else {
            (right, left, right_key, left_key, false)
        };
        let (bkey, pkey) = ([build.col_index(build_key)], [probe.col_index(probe_key)]);
        let mut ht: HashMap<Vec<i64>, Vec<usize>> = HashMap::new();
        for i in 0..build.rows {
            ht.entry(key(build, &bkey, i)).or_default().push(i);
        }
        let (mut build_rows, mut probe_rows) = (Vec::new(), Vec::new());
        for i in 0..probe.rows {
            for &b in ht.get(&key(probe, &pkey, i)).into_iter().flatten() {
                build_rows.push(b);
                probe_rows.push(i);
            }
        }
        let (lrows, rrows) =
            if build_is_left { (&build_rows, &probe_rows) } else { (&probe_rows, &build_rows) };
        let mut cols: Vec<Column> = left.cols.iter().map(|c| take(c, lrows)).collect();
        cols.extend(right.cols.iter().map(|c| take(c, rrows)));
        Rel {
            names: left.names.iter().chain(&right.names).cloned().collect(),
            widths: left.widths.iter().chain(&right.widths).copied().collect(),
            cols,
            rows: build_rows.len(),
        }
    }

    pub fn histogram(column: &Column, min: f64, max: f64, n: usize) -> Vec<Bucket> {
        let width = if max > min { (max - min) / n as f64 } else { 1.0 };
        let mut counts = vec![0u64; n];
        let mut distinct: Vec<HashSet<i64>> = vec![HashSet::new(); n];
        for i in 0..column.len() {
            let v = column.get_f64(i);
            let b = Histogram::bucket_index_for(v, min, width, n);
            counts[b] += 1;
            distinct[b].insert(v.to_bits() as i64);
        }
        (0..n)
            .map(|b| Bucket {
                lo: min + b as f64 * width,
                hi: min + (b + 1) as f64 * width,
                count: counts[b] as f64,
                distinct: distinct[b].len() as f64,
            })
            .collect()
    }

    /// `Histogram::build`'s buckets as its one-set loop made them before
    /// bitmap and bucket-sort counting: one `FastSet` of bit patterns, each
    /// value's first sighting counted in its bucket, bucketed with `floor`.
    pub fn histogram_one_set(column: &Column, min: f64, max: f64, n: usize) -> Vec<Bucket> {
        let width = if max > min { (max - min) / n as f64 } else { 1.0 };
        let mut counts = vec![0u64; n];
        let mut distinct = vec![0u64; n];
        let mut seen: FastSet<u64> = FastSet::default();
        for i in 0..column.len() {
            let v = column.get_f64(i);
            let b = (((v - min) / width).floor().max(0.0) as usize).min(n - 1);
            counts[b] += 1;
            if seen.insert(v.to_bits()) {
                distinct[b] += 1;
            }
        }
        (0..n)
            .map(|b| Bucket {
                lo: min + b as f64 * width,
                hi: min + (b + 1) as f64 * width,
                count: counts[b] as f64,
                distinct: distinct[b] as f64,
            })
            .collect()
    }

    /// `Histogram::from_column`'s domain as a row-at-a-time `f64` fold.
    pub fn domain(column: &Column) -> (f64, f64) {
        if column.is_empty() {
            return (0.0, 0.0);
        }
        (0..column.len()).fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), i| {
            (lo.min(column.get_f64(i)), hi.max(column.get_f64(i)))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{CmpOp, Predicate};
    use crate::schema::{ColumnDef, DataType, Schema};

    fn base_table() -> Table {
        let schema = Schema::new(vec![
            ColumnDef::new("k", DataType::Int),
            ColumnDef::new("g", DataType::Int),
            ColumnDef::new("v", DataType::Float),
        ]);
        Table::new(
            "t",
            schema,
            vec![
                Column::Int(vec![0, 1, 2, 3, 4, 5]),
                Column::Int(vec![0, 0, 1, 1, 2, 2]),
                Column::Float(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
            ],
        )
    }

    #[test]
    fn filter_and_project() {
        let t = base_table();
        let r =
            Rel::from_table(&t, &Predicate::cmp("v", CmpOp::Gt, 3.0), &["k".into(), "g".into()]);
        assert_eq!(r.rows(), 3);
        assert_eq!(r.names(), &["k".to_string(), "g".to_string()]);
        assert_eq!(r.tuple_width(), 16.0);
    }

    #[test]
    fn empty_projection_keeps_all() {
        let t = base_table();
        let r = Rel::from_table(&t, &Predicate::True, &[]);
        assert_eq!(r.rows(), 6);
        assert_eq!(r.names().len(), 3);
        assert_eq!(r.tuple_width(), 24.0);
    }

    #[test]
    fn group_count_exact() {
        let t = base_table();
        let r = Rel::from_table(&t, &Predicate::True, &[]);
        assert_eq!(r.group_count(&["g".into()]), 3);
        assert_eq!(r.group_count(&["g".into(), "k".into()]), 6);
        let g = r.groupby(&["g".into()]);
        assert_eq!(g.rows(), 3);
        assert_eq!(g.names(), &["g".to_string()]);
    }

    #[test]
    fn hash_join_matches_nested_loop() {
        let l = Rel::from_columns(
            vec!["a".into(), "x".into()],
            vec![8.0, 8.0],
            vec![Column::Int(vec![1, 2, 2, 3]), Column::Int(vec![10, 20, 21, 30])],
        );
        let r = Rel::from_columns(
            vec!["b".into(), "y".into()],
            vec![8.0, 8.0],
            vec![Column::Int(vec![2, 2, 3, 4]), Column::Int(vec![200, 201, 300, 400])],
        );
        let j = hash_join(&l, &r, "a", "b");
        // a=2 matches twice on each side (2×2=4), a=3 once: 5 rows total.
        assert_eq!(j.rows(), 5);
        assert_eq!(j.names().len(), 4);
        // Column preservation: every output row satisfies a == b.
        let a = j.column("a").unwrap();
        let b = j.column("b").unwrap();
        for i in 0..j.rows() {
            assert_eq!(a.get_f64(i).to_bits(), b.get_f64(i).to_bits());
        }
    }

    #[test]
    fn join_empty_side_yields_empty() {
        let l = Rel::from_columns(vec!["a".into()], vec![8.0], vec![Column::Int(vec![])]);
        let r = Rel::from_columns(vec!["b".into()], vec![8.0], vec![Column::Int(vec![1, 2])]);
        assert_eq!(hash_join(&l, &r, "a", "b").rows(), 0);
    }

    #[test]
    #[should_panic(expected = "duplicate column")]
    fn join_rejects_ambiguous_names() {
        let l = Rel::from_columns(vec!["a".into()], vec![8.0], vec![Column::Int(vec![1])]);
        let r = Rel::from_columns(vec!["a".into()], vec![8.0], vec![Column::Int(vec![1])]);
        hash_join(&l, &r, "a", "a");
    }

    #[test]
    fn combiner_clustered_vs_random() {
        // 100 groups × 10 tuples each.
        let clustered: Vec<i64> = (0..100).flat_map(|g| std::iter::repeat_n(g, 10)).collect();
        // Deterministic round-robin interleave: every split sees every group.
        let random: Vec<i64> = (0..1000).map(|i| i % 100).collect();
        let mk = |vals: Vec<i64>| {
            Rel::from_columns(vec!["g".into()], vec![8.0], vec![Column::Int(vals)])
        };
        let c = mk(clustered).combine_output(&["g".into()], 10);
        let r = mk(random).combine_output(&["g".into()], 10);
        // Clustered: each split sees ~10 distinct keys; total ≈ 100 + boundary
        // overlaps. Random: every split sees ~100 keys; total ≈ 1000.
        assert!(c <= 110, "clustered combine {c}");
        assert!(r >= 900, "random combine {r}");
    }

    #[test]
    fn combine_output_single_split_is_group_count() {
        let t = base_table();
        let r = Rel::from_table(&t, &Predicate::True, &[]);
        assert_eq!(r.combine_output(&["g".into()], 1), r.group_count(&["g".into()]));
    }

    #[test]
    fn filter_on_rel() {
        let t = base_table();
        let r = Rel::from_table(&t, &Predicate::True, &[]);
        let f = r.filter(&Predicate::between("v", 2.0, 4.0));
        assert_eq!(f.rows(), 3);
    }

    #[test]
    fn hash_join_keys_on_exact_float_values() {
        let l = Rel::from_columns(vec!["a".into()], vec![8.0], vec![Column::Float(vec![1.2, 1.9])]);
        let r = Rel::from_columns(vec!["b".into()], vec![8.0], vec![Column::Float(vec![1.5])]);
        assert_eq!(hash_join(&l, &r, "a", "b").rows(), 0);
        let r = Rel::from_columns(vec!["b".into()], vec![8.0], vec![Column::Int(vec![2, 1])]);
        let l = Rel::from_columns(vec!["a".into()], vec![8.0], vec![Column::Float(vec![1.0, 1.5])]);
        assert_eq!(hash_join(&l, &r, "a", "b").rows(), 1);
    }

    mod differential {
        use super::super::{hash_join, reference, Rel};
        use crate::expr::{CmpOp, Predicate};
        use crate::histogram::{Bucket, Histogram};
        use crate::schema::{ColumnDef, DataType, Schema};
        use crate::table::{Column, Table};
        use proptest::prelude::*;

        /// `a`, `b` are Int columns, `c`, `d` Float ones.
        const NAMES: [&str; 4] = ["a", "b", "c", "d"];
        const FLOATS: [f64; 9] = [-2.5, -1.0, -0.0, 0.0, 0.5, 1.2, 1.9, 2.0, 3.0];

        type Row = (i64, i64, f64, f64);

        fn rows(max: usize) -> impl Strategy<Value = Vec<Row>> {
            let float = || prop::sample::select(FLOATS.to_vec());
            prop::collection::vec((-4i64..5, -4i64..5, float(), float()), 0..max)
        }

        fn table(rows: &[Row]) -> Table {
            let schema = Schema::new(vec![
                ColumnDef::new("a", DataType::Int),
                ColumnDef::new("b", DataType::Int),
                ColumnDef::new("c", DataType::Float),
                ColumnDef::new("d", DataType::Float),
            ]);
            let cols = vec![
                Column::Int(rows.iter().map(|r| r.0).collect()),
                Column::Int(rows.iter().map(|r| r.1).collect()),
                Column::Float(rows.iter().map(|r| r.2).collect()),
                Column::Float(rows.iter().map(|r| r.3).collect()),
            ];
            Table::new("t", schema, cols)
        }

        fn rel(rows: &[Row], prefix: &str) -> Rel {
            let t = table(rows);
            let names = NAMES.iter().map(|n| format!("{prefix}{n}")).collect();
            Rel::from_columns(names, vec![8.0; 4], (0..4).map(|c| t.column_at(c).clone()).collect())
        }

        /// Nested And/Or trees over Cmp (every operator) and Between leaves.
        fn predicate() -> BoxedStrategy<Predicate> {
            let value = || {
                prop_oneof![
                    (-5i64..6).prop_map(|v| v as f64),
                    prop::sample::select(FLOATS.to_vec())
                ]
            };
            let column = || prop::sample::select(NAMES.to_vec());
            let op = prop::sample::select(vec![
                CmpOp::Eq,
                CmpOp::Ne,
                CmpOp::Lt,
                CmpOp::Le,
                CmpOp::Gt,
                CmpOp::Ge,
            ]);
            let leaf = prop_oneof![
                Just(Predicate::True),
                (column(), op, value()).prop_map(|(c, op, v)| Predicate::cmp(c, op, v)),
                (column(), value(), value()).prop_map(|(c, lo, hi)| Predicate::between(c, lo, hi)),
            ];
            leaf.prop_recursive(3, 16, 2, |inner| {
                prop_oneof![
                    (inner.clone(), inner.clone())
                        .prop_map(|(a, b)| Predicate::And(Box::new(a), Box::new(b))),
                    (inner.clone(), inner)
                        .prop_map(|(a, b)| Predicate::Or(Box::new(a), Box::new(b))),
                ]
            })
        }

        /// 0–3 distinct key columns, in drawn order.
        fn keys() -> impl Strategy<Value = Vec<String>> {
            prop::collection::vec(0usize..4, 0..=3).prop_map(|picks| {
                let mut keys: Vec<String> = Vec::new();
                for p in picks {
                    if !keys.iter().any(|k| k == NAMES[p]) {
                        keys.push(NAMES[p].to_string());
                    }
                }
                keys
            })
        }

        /// Int columns either side of the bitmap cut-off (span below 64
        /// per row), at and beyond ±2^53 where `i64 → f64` rounds, empty
        /// and one-value; float columns with duplicates and both zeros.
        fn column() -> BoxedStrategy<Column> {
            const E: i64 = 1 << 53;
            let edge = vec![E - 1, E, E + 1, E + 2, 1 - E, -E, -E - 1, -E - 2, i64::MAX, i64::MIN];
            let dense = (-1000i64..1000, prop::collection::vec(0i64..40, 0..80))
                .prop_map(|(lo, offsets)| offsets.into_iter().map(|o| lo + o).collect());
            // k + 2 values spanning 64 × (k + 2) − 1 + d: dense for d = 0,
            // sparse above.
            let straddle =
                (0i64..3, prop::collection::vec(0.0f64..1.0, 0..5)).prop_map(|(d, fractions)| {
                    let top = 64 * (fractions.len() as i64 + 2) - 1 + d;
                    let mut v: Vec<i64> =
                        fractions.iter().map(|f| (f * top as f64) as i64).collect();
                    v.extend([0, top]);
                    v
                });
            let int = |s: BoxedStrategy<Vec<i64>>| s.prop_map(Column::Int);
            let float = |s: BoxedStrategy<Vec<f64>>| s.prop_map(Column::Float);
            prop_oneof![
                int(dense.boxed()),
                int(prop::collection::vec(-1_000_000_000i64..1_000_000_000, 0..40).boxed()),
                int(straddle.boxed()),
                // Only edge values: often a dense span that rounds (2^53
                // and 2^53 + 1 are one f64).
                int(prop::collection::vec(prop::sample::select(edge.clone()), 0..8).boxed()),
                int(prop::collection::vec(
                    prop_oneof![prop::sample::select(edge), -3i64..3],
                    0..40
                )
                .boxed()),
                int(prop::collection::vec(-2i64..2, 0..2).boxed()),
                float(prop::collection::vec(prop::sample::select(FLOATS.to_vec()), 0..60).boxed()),
                float(prop::collection::vec(-1e3f64..1e3, 0..40).boxed()),
            ]
        }

        /// Where a histogram's domain comes from.
        #[derive(Debug, Clone)]
        enum Domain {
            /// The column's own range (`Histogram::from_column`).
            Data,
            /// A caller's domain, `(min, span)`.
            Fixed(f64, f64),
            /// A sub-range of the data: fractions of its range.
            Narrow(f64, f64),
        }

        fn domain() -> impl Strategy<Value = Domain> {
            prop_oneof![
                Just(Domain::Data),
                (-5.0f64..3.0, 0.0f64..8.0).prop_map(|(min, span)| Domain::Fixed(min, span)),
                (0.0f64..1.0, 0.0f64..1.0).prop_map(|(a, b)| Domain::Narrow(a, b)),
            ]
        }

        fn bits(values: &[f64]) -> Vec<u64> {
            values.iter().map(|v| v.to_bits()).collect()
        }

        fn bucket_bits(buckets: &[Bucket]) -> Vec<u64> {
            buckets.iter().flat_map(|b| bits(&[b.lo, b.hi, b.count, b.distinct])).collect()
        }

        /// Same rows, same contents in the same order, bit for bit.
        fn same(fast: &Rel, slow: &Rel) -> Result<(), TestCaseError> {
            prop_assert_eq!(fast.rows(), slow.rows());
            prop_assert_eq!(format!("{fast:?}"), format!("{slow:?}"));
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn scans_match_reference(
                data in rows(40),
                scan in predicate(),
                refilter in predicate(),
                projection in 0usize..16,
            ) {
                let t = table(&data);
                let proj: Vec<String> = (0..4)
                    .filter(|c| projection >> c & 1 == 1)
                    .map(|c| NAMES[c].to_string())
                    .collect();
                let fast = Rel::from_table(&t, &scan, &proj);
                same(&fast, &reference::from_table(&t, &scan, &proj))?;
                let all = Rel::from_table(&t, &scan, &[]);
                same(&all.filter(&refilter), &reference::filter(&all, &refilter))?;
            }

            #[test]
            fn grouping_matches_reference(
                data in rows(60),
                scan in predicate(),
                keys in keys(),
                split_pick in 0usize..1000,
            ) {
                let r = Rel::from_table(&table(&data), &scan, &[]);
                let n_splits = 1 + split_pick % (r.rows() + 2);
                prop_assert_eq!(r.group_count(&keys), reference::group_count(&r, &keys));
                same(&r.groupby(&keys), &reference::groupby(&r, &keys))?;
                prop_assert_eq!(
                    r.combine_output(&keys, n_splits),
                    reference::combine_output(&r, &keys, n_splits)
                );
            }

            #[test]
            fn joins_match_reference(
                left in rows(30),
                right in rows(30),
                lkey in 0usize..4,
                rkey in 0usize..4,
            ) {
                let (l, r) = (rel(&left, "l_"), rel(&right, "r_"));
                let (lk, rk) = (format!("l_{}", NAMES[lkey]), format!("r_{}", NAMES[rkey]));
                // Swapping the sides moves the build side whenever the
                // lengths differ.
                same(&hash_join(&l, &r, &lk, &rk), &reference::hash_join(&l, &r, &lk, &rk))?;
                same(&hash_join(&r, &l, &rk, &lk), &reference::hash_join(&r, &l, &rk, &lk))?;
            }

            #[test]
            fn histogram_distincts_match_one_set_oracle(
                col in column(),
                domain in domain(),
                n in 1usize..8,
            ) {
                let (lo, hi) = reference::domain(&col);
                let (min, max) = match domain {
                    Domain::Data => {
                        let h = Histogram::from_column(&col, n);
                        prop_assert_eq!(bits(&[h.domain().0, h.domain().1]), bits(&[lo, hi]));
                        (lo, hi)
                    }
                    Domain::Fixed(min, span) => (min, min + span),
                    // Inside the data's range: edge buckets clamp values.
                    Domain::Narrow(a, b) => {
                        let min = lo + a * (hi - lo);
                        (min, min + b * (hi - min))
                    }
                };
                let fast = Histogram::build(&col, min, max, n);
                let slow = reference::histogram_one_set(&col, min, max, n);
                prop_assert_eq!(bucket_bits(fast.buckets()), bucket_bits(&slow));
                prop_assert_eq!(fast.total(), col.len() as f64);
            }

            #[test]
            fn histograms_match_reference(
                data in rows(60),
                column in 0usize..4,
                min in -5.0f64..3.0,
                span in 0.0f64..8.0,
                n in 1usize..8,
            ) {
                let col = table(&data).column_at(column).clone();
                let h = Histogram::build(&col, min, min + span, n);
                let slow = reference::histogram(&col, min, min + span, n);
                prop_assert_eq!(h.buckets(), slow.as_slice());
                prop_assert_eq!(h.total(), data.len() as f64);
            }
        }
    }
}
