//! Count-only relational execution: the ground truth the estimator is judged
//! against.
//!
//! A real Hadoop job materializes its intermediate and final data on disk;
//! the paper measures `D_med`/`D_out` from job counters. Here we execute the
//! relational semantics of each job exactly — filters, projections, hash
//! joins, group-bys, map-side combiners — over the generated tables and
//! report exact tuple counts. The byte-level accounting (widths × tuples ×
//! scale) is done by the planner.
//!
//! Counters are sizes, and only join and group-by keys are ever compared, so
//! a [`Rel`] carries values only for the key columns its scan was given;
//! every other projected column is a name and a width. Scans bind their
//! predicate once ([`Predicate::bind`]) and test it a column at a time; a
//! scan that keeps every row copies whole key columns.
//!
//! Keys compare by the `f64::to_bits` of each key value. When every key
//! column is `Int` (every `i32` converts to `f64` exactly, so a value's
//! bits and the value itself identify each other), each row's key is a
//! mixed-radix code: its offsets from the columns' minima. Group-bys whose
//! codes span up to 2 per row stamp a per-code array, up to 32 per row mark
//! two per-code bitmaps, and sparser ones hash the one-word code. Joins
//! whose build codes span up to 8 per build row index the build rows by
//! code: one slot per code when no build key repeats, else a counting sort.
//! Any other key (a `Float` column, a sparse join key, a group key whose
//! code would overflow a word) packs its bit patterns into one `u64` or
//! `u128` for one or two key columns and hashes them. Hashing uses the
//! crate's small non-cryptographic hasher. Every path gives the same rows
//! in the same order: group-bys keep rows in first-occurrence order and
//! joins emit rows in probe order, each probe row's matches in build
//! order.

use crate::expr::{BoundPredicate, Predicate};
use crate::hash::{FastMap, FastSet};
use crate::table::{dense_int_span, offset, Column, Table};
use std::hash::Hash;
use std::ops::Range;

/// Most codes per row a group-by's dense key codes may span for per-code
/// stamps. Its 4-byte stamps then take at most 8 bytes per row, under the
/// ≥ 10.3 bytes per row of a hash set of `u64` keys when every row's key is
/// distinct (9-byte slots at most 7/8 full).
const GROUP_CODES_PER_ROW: u64 = 2;

/// Most codes per row a group-by's dense key codes may span for per-code
/// bitmaps. Its two bitmaps then take at most 8 bytes per row, as the
/// stamps do at [`GROUP_CODES_PER_ROW`].
const BITMAP_CODES_PER_ROW: u64 = 32;

/// Most codes per build row a join's dense key codes may span. Its 4-byte
/// offsets (two more than codes) and 4-byte sorted row indices then take
/// at most 36 bytes per build row plus 8, under the ≥ 37.7 bytes per row
/// of the `FastMap<u64, Vec<u32>>` it replaces when every build key is
/// distinct (33-byte slots at most 7/8 full), before that table's vectors.
/// When no build key repeats, one 4-byte slot per code takes at most 32
/// bytes per build row plus 4 instead.
const JOIN_CODES_PER_ROW: u64 = 8;

/// A lightweight materialized relation flowing between job stages.
#[derive(Debug, Clone)]
pub struct Rel {
    names: Vec<String>,
    widths: Vec<f64>,
    /// Each column's values; `None` for a column kept by name and width
    /// only, which no operator may key on.
    cols: Vec<Option<Column>>,
    rows: usize,
}

impl Rel {
    /// Filter a base table with `pred` and keep only `projection` columns
    /// (every column for an empty projection), with values for the columns
    /// named in `keys` and a name and a width for the rest.
    pub fn from_table(
        table: &Table,
        pred: &Predicate,
        projection: &[String],
        keys: &[String],
    ) -> Self {
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
        let defs = table.schema().columns();
        let (cols, rows) = select(
            &pred.bind(table),
            table.rows(),
            keep.iter().map(|&c| keys.contains(&defs[c].name).then(|| table.column_at(c))),
        );
        let names = keep.iter().map(|&c| defs[c].name.clone()).collect();
        let widths = keep.iter().map(|&c| defs[c].dtype.width()).collect();
        Self { names, widths, cols, rows }
    }

    /// Build a relation directly from columns, all with values.
    #[cfg(test)]
    pub fn from_columns(names: Vec<String>, widths: Vec<f64>, cols: Vec<Column>) -> Self {
        assert_eq!(names.len(), cols.len());
        assert_eq!(widths.len(), cols.len());
        let rows = cols.first().map_or(0, Column::len);
        assert!(cols.iter().all(|c| c.len() == rows), "ragged relation");
        Self { names, widths, cols: cols.into_iter().map(Some).collect(), rows }
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

    /// Column values by name: `None` for an unknown column or one kept
    /// without values.
    #[cfg(test)]
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.names.iter().position(|n| n == name).and_then(|i| self.cols[i].as_ref())
    }

    fn col_index(&self, name: &str) -> usize {
        self.names
            .iter()
            .position(|n| n == name)
            .unwrap_or_else(|| panic!("unknown column {name} (have {:?})", self.names))
    }

    /// The values of column `name`.
    ///
    /// # Panics
    /// Panics if the column is missing or was kept without values.
    fn values(&self, name: &str) -> &Column {
        self.cols[self.col_index(name)]
            .as_ref()
            .unwrap_or_else(|| panic!("column {name} has no values: name it among the keys"))
    }

    /// Filter this relation by `pred`, which may test only columns with
    /// values.
    #[cfg(test)]
    pub fn filter(&self, pred: &Predicate) -> Rel {
        let bound = pred.bind_with(self.rows, &|n| self.values(n));
        let (cols, rows) = select(&bound, self.rows, self.cols.iter().map(Option::as_ref));
        Rel { names: self.names.clone(), widths: self.widths.clone(), cols, rows }
    }

    /// Rename a column (used to disambiguate self-join outputs).
    pub fn rename_column(&mut self, old: &str, new: impl Into<String>) {
        let i = self.col_index(old);
        self.names[i] = new.into();
    }

    /// Append a column without values (e.g. aggregate placeholder columns
    /// on a group-by output, so downstream byte accounting sees their
    /// width).
    pub fn push_column(&mut self, name: impl Into<String>, width: f64) {
        self.names.push(name.into());
        self.widths.push(width);
        self.cols.push(None);
    }

    /// First `n` rows (LIMIT semantics; order is the relation's row order).
    pub fn head(&self, n: usize) -> Rel {
        let keep = n.min(self.rows);
        let cols = self
            .cols
            .iter()
            .map(|c| {
                c.as_ref().map(|c| match c {
                    Column::Int(v) => Column::Int(v[..keep].to_vec()),
                    Column::Float(v) => Column::Float(v[..keep].to_vec()),
                })
            })
            .collect();
        Rel { names: self.names.clone(), widths: self.widths.clone(), cols, rows: keep }
    }

    /// Number of distinct combinations of the key columns (exact group count).
    #[cfg(test)]
    pub fn group_count(&self, keys: &[String]) -> usize {
        self.groups(keys, 1).0.len()
    }

    /// The group-by output of [`Rel::groupby_combined`] alone.
    #[cfg(test)]
    pub fn groupby(&self, keys: &[String]) -> Rel {
        self.groupby_combined(keys, 1).0
    }

    /// The combiner output of [`Rel::groupby_combined`] alone.
    #[cfg(test)]
    pub fn combine_output(&self, keys: &[String], n_splits: usize) -> usize {
        self.groupby_combined(keys, n_splits).1
    }

    /// Ground truth for a group-by and its map-side combiner on the same
    /// keys, in one pass over the rows.
    ///
    /// The group-by output has one row per distinct key combination and the
    /// key columns only (aggregate widths are accounted for logically by
    /// the planner). Each group keeps its first row, in row order.
    ///
    /// The combiner output splits the relation into `n_splits` contiguous
    /// chunks (HDFS splits preserve file order) and sums the per-split
    /// distinct key counts. Clustered layouts give ≈ the global distinct
    /// count; random layouts approach `n_splits ×` it (paper Eq. 2's two
    /// cases emerge from the data rather than being assumed).
    ///
    /// # Panics
    /// Panics if `n_splits` is 0 or a key column is missing or has no
    /// values.
    pub fn groupby_combined(&self, keys: &[String], n_splits: usize) -> (Rel, usize) {
        let (kept, combined) = self.groups(keys, n_splits);
        let grouped = Rel {
            names: keys.to_vec(),
            widths: keys.iter().map(|k| self.widths[self.col_index(k)]).collect(),
            cols: keys
                .iter()
                .map(|k| Some(gather(self.values(k), kept.iter().map(|&i| i as usize))))
                .collect(),
            rows: kept.len(),
        };
        (grouped, combined)
    }

    /// The rows where a key of columns `keys` first appears, in row order,
    /// and the sum over `n_splits` contiguous splits of each split's
    /// distinct keys. Keys are mixed-radix codes when [`dense_codes`]
    /// allows (see [`coded_groups`]), else the `to_bits` of each key
    /// column's value, one or two columns packed into a `u64` or `u128`.
    fn groups(&self, keys: &[String], n_splits: usize) -> (Vec<u32>, usize) {
        assert!(n_splits > 0);
        let rows = self.rows;
        assert!(u32::try_from(rows).is_ok(), "{rows} rows overflow a u32 row index");
        let key_cols: Vec<&Column> = keys.iter().map(|k| self.values(k)).collect();
        if let Some((radix, codes)) = dense_codes(&key_cols, usize::MAX as u64) {
            return match *radix.as_slice() {
                [] => coded_groups(rows, n_splits, codes, |_| 0),
                [(a, lo, _)] => coded_groups(rows, n_splits, codes, |i| offset(a[i], lo)),
                [(a, lo_a, _), (b, lo_b, stride)] => coded_groups(rows, n_splits, codes, |i| {
                    offset(a[i], lo_a) + offset(b[i], lo_b) * stride
                }),
                _ => coded_groups(rows, n_splits, codes, |i| {
                    radix.iter().map(|&(v, lo, stride)| offset(v[i], lo) * stride).sum()
                }),
            };
        }
        let bits = |c: &Column, i: usize| c.get_f64(i).to_bits();
        match *key_cols.as_slice() {
            [a] => hashed_groups(rows, n_splits, |i| bits(a, i)),
            [a, b] => hashed_groups(rows, n_splits, |i| {
                u128::from(bits(a, i)) << 64 | u128::from(bits(b, i))
            }),
            _ => hashed_groups(rows, n_splits, |i| {
                key_cols.iter().map(|c| bits(c, i)).collect::<Vec<u64>>()
            }),
        }
    }
}

/// One key column's values, minimum and stride in [`dense_codes`]' codes.
type Radix<'a> = (&'a [i32], i32, usize);

/// `(values, min, stride)` per key column and the number of codes, when
/// every key column is `Int` and the product of the columns' spans is at
/// most `max_codes`. A row's code is then the sum of its offsets from the
/// minima times the strides (mixed radix, the first column varying
/// fastest), and two rows share a code exactly when their keys' bit
/// patterns are equal. No key columns give one code.
fn dense_codes<'a>(cols: &[&'a Column], max_codes: u64) -> Option<(Vec<Radix<'a>>, u64)> {
    let mut codes = 1u64;
    let mut radix = Vec::with_capacity(cols.len());
    for c in cols {
        let values = c.as_int()?;
        let (lo, span) = dense_int_span(values, max_codes)?;
        radix.push((values, lo, codes as usize));
        codes = codes.checked_mul(span + 1).filter(|&n| n <= max_codes)?;
    }
    (codes <= max_codes).then_some((radix, codes))
}

/// [`Rel::groups`] over `codes` mixed-radix key codes, `code(i)` being row
/// `i`'s: per-code stamps up to [`GROUP_CODES_PER_ROW`] codes per row,
/// per-code bitmaps up to [`BITMAP_CODES_PER_ROW`], and above that the
/// codes hashed as `u64`s, one word per key however many key columns.
fn coded_groups(
    rows: usize,
    n_splits: usize,
    codes: u64,
    code: impl Fn(usize) -> usize,
) -> (Vec<u32>, usize) {
    if codes <= GROUP_CODES_PER_ROW * rows as u64 {
        stamped_groups(rows, n_splits, codes as usize, code)
    } else if codes <= BITMAP_CODES_PER_ROW * rows as u64 {
        bitmap_groups(rows, n_splits, codes as usize, code)
    } else {
        hashed_groups(rows, n_splits, |i| code(i) as u64)
    }
}

/// [`Rel::groups`] over `codes` dense key codes, `code(i)` being row `i`'s,
/// in one pass: each code's stamp is the last split (numbered from 1) that
/// saw it, 0 before any did. A row whose code has stamp 0 starts a group;
/// one whose code's stamp is not its own split is one more combiner output
/// tuple.
fn stamped_groups(
    rows: usize,
    n_splits: usize,
    codes: usize,
    code: impl Fn(usize) -> usize,
) -> (Vec<u32>, usize) {
    let mut stamps = vec![0u32; codes];
    let (mut kept, mut combined) = (Vec::new(), 0);
    for (s, split_rows) in splits(rows, n_splits).enumerate() {
        let split = s as u32 + 1;
        for i in split_rows {
            let last = std::mem::replace(&mut stamps[code(i)], split);
            if last == 0 {
                kept.push(i as u32);
            }
            combined += usize::from(last != split);
        }
    }
    (kept, combined)
}

/// [`Rel::groups`] over `codes` dense key codes with two bitmaps: `seen`
/// marks the codes of every row so far, `in_split` those of the current
/// split's rows. A row whose code is new to `seen` starts a group; one whose
/// code is new to `in_split` is one more combiner output tuple. After a
/// split, zeroing the `in_split` word of each of its rows' codes clears it,
/// as every set bit belongs to one of them.
fn bitmap_groups(
    rows: usize,
    n_splits: usize,
    codes: usize,
    code: impl Fn(usize) -> usize,
) -> (Vec<u32>, usize) {
    let mut seen = vec![0u64; codes.div_ceil(64)];
    let mut in_split = seen.clone();
    let (mut kept, mut combined) = (Vec::new(), 0);
    for split_rows in splits(rows, n_splits) {
        for i in split_rows.clone() {
            let c = code(i);
            let (word, bit) = (c / 64, 1u64 << (c % 64));
            if seen[word] & bit == 0 {
                seen[word] |= bit;
                kept.push(i as u32);
            }
            combined += usize::from(in_split[word] & bit == 0);
            in_split[word] |= bit;
        }
        for i in split_rows {
            in_split[code(i) / 64] = 0;
        }
    }
    (kept, combined)
}

/// [`Rel::groups`] over keys hashed under `key(i)`: one set of keys for
/// the group-by's first rows, then one set for the combiner, emptied after
/// each split (keeping its capacity), so no more than one set is alive at
/// a time.
fn hashed_groups<K: Hash + Eq>(
    rows: usize,
    n_splits: usize,
    key: impl Fn(usize) -> K,
) -> (Vec<u32>, usize) {
    let mut seen = FastSet::default();
    let kept = (0..rows).filter(|&i| seen.insert(key(i))).map(|i| i as u32).collect();
    drop(seen);
    let mut in_split = FastSet::default();
    let combined = splits(rows, n_splits)
        .map(|split_rows| {
            in_split.clear();
            split_rows.filter(|&i| in_split.insert(key(i))).count()
        })
        .sum();
    (kept, combined)
}

/// The rows of `n_splits` contiguous splits of `rows` rows (HDFS splits
/// preserve file order); splits past the last row are left out.
fn splits(rows: usize, n_splits: usize) -> impl Iterator<Item = Range<usize>> {
    let per_split = rows.div_ceil(n_splits).max(1);
    (0..rows).step_by(per_split).map(move |start| start..(start + per_split).min(rows))
}

/// `cols` restricted to the rows `bound` selects, and their number: whole
/// columns when it selects every one of `rows`. Columns without values
/// stay without.
fn select<'a>(
    bound: &BoundPredicate<'_>,
    rows: usize,
    cols: impl Iterator<Item = Option<&'a Column>>,
) -> (Vec<Option<Column>>, usize) {
    match bound.selected_unless_all() {
        None => (cols.map(|c| c.cloned()).collect(), rows),
        Some(selected) => {
            (cols.map(|c| c.map(|c| gather(c, selected.iter().copied()))).collect(), selected.len())
        }
    }
}

/// Rows `rows` of `col`, in that order.
pub(crate) fn gather(col: &Column, rows: impl Iterator<Item = usize>) -> Column {
    match col {
        Column::Int(v) => Column::Int(rows.map(|i| v[i]).collect()),
        Column::Float(v) => Column::Float(rows.map(|i| v[i]).collect()),
    }
}

/// Exact inner equi-join: materializes all matching row pairs, keeping every
/// column of both sides (callers project first to bound memory), with
/// values for the columns that had them. Keys match on their exact value
/// (`f64::to_bits`). Rows come out in probe order, each probe row's matches
/// in build order.
///
/// # Panics
/// Panics if a key column is missing or has no values, or if the two sides
/// share a column name (qualify names before joining).
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
    let (bcol, pcol) = (build.values(build_key), probe.values(probe_key));
    let (build_rows, probe_rows) = match (bcol.as_int(), pcol.as_int()) {
        (Some(b), Some(p)) => match dense_int_span(b, JOIN_CODES_PER_ROW * b.len() as u64) {
            Some((lo, span)) => dense_join(b, p, lo, span),
            None => hashed_join(bcol, pcol),
        },
        _ => hashed_join(bcol, pcol),
    };
    let take = |rel: &Rel, rows: &[u32]| -> Vec<Option<Column>> {
        let gathered = |c: &Column| gather(c, rows.iter().map(|&i| i as usize));
        rel.cols.iter().map(|c| c.as_ref().map(gathered)).collect()
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

/// A join's `(build rows, probe rows)` pairs, in probe order and each probe
/// row's matches in build order, for Int keys whose build values lie in
/// `lo..=lo + span`. Build rows are indexed by code `value - lo`:
/// [`unique_slots`] when no code repeats, else a counting sort (counts,
/// prefix sums, then a fill in row order). A probe value outside the build
/// range matches nothing.
fn dense_join(build: &[i32], probe: &[i32], lo: i32, span: u64) -> (Vec<u32>, Vec<u32>) {
    assert!(u32::try_from(build.len().max(probe.len())).is_ok(), "rows overflow a u32 row index");
    // Widened, a value below `lo` wraps to above 2^63, beyond `span` < 2^32.
    let probe_code = |v: i32| {
        let offset = (i64::from(v) - i64::from(lo)) as u64;
        (offset <= span).then_some(offset as usize)
    };
    if let Some(slots) = unique_slots(build, lo, span) {
        // Each probe row matches at most once: write every row's pair and
        // advance past the matched ones, with no branch on the match.
        let (mut build_rows, mut probe_rows) = (vec![0; probe.len()], vec![0; probe.len()]);
        let mut n = 0;
        for (i, &v) in probe.iter().enumerate() {
            let slot = probe_code(v).map_or(0, |c| slots[c]);
            build_rows[n] = slot.wrapping_sub(1);
            probe_rows[n] = i as u32;
            n += usize::from(slot != 0);
        }
        build_rows.truncate(n);
        probe_rows.truncate(n);
        return (build_rows, probe_rows);
    }
    let (mut build_rows, mut probe_rows) = (Vec::new(), Vec::new());
    let code = |v: i32| offset(v, lo);
    // Code `c`'s rows end up at `sorted[start[c]..start[c + 1]]`: counts go
    // two slots up, so after the prefix sums `start[c + 1]` is code `c`'s
    // fill cursor, and it ends where code `c + 1` starts.
    let mut start = vec![0u32; span as usize + 3];
    for &v in build {
        start[code(v) + 2] += 1;
    }
    for c in 2..start.len() {
        start[c] += start[c - 1];
    }
    let mut sorted = vec![0u32; build.len()];
    for (i, &v) in build.iter().enumerate() {
        let cursor = &mut start[code(v) + 1];
        sorted[*cursor as usize] = i as u32;
        *cursor += 1;
    }
    for (i, &v) in probe.iter().enumerate() {
        if let Some(c) = probe_code(v) {
            let matches = &sorted[start[c] as usize..start[c + 1] as usize];
            build_rows.extend_from_slice(matches);
            probe_rows.extend(std::iter::repeat_n(i as u32, matches.len()));
        }
    }
    (build_rows, probe_rows)
}

/// One slot per code `value - lo` of `build`, holding the row with that
/// code plus 1 (0 for none), or `None` as soon as a code repeats.
fn unique_slots(build: &[i32], lo: i32, span: u64) -> Option<Vec<u32>> {
    let mut slots = vec![0u32; span as usize + 1];
    for (i, &v) in build.iter().enumerate() {
        let slot = &mut slots[offset(v, lo)];
        if *slot != 0 {
            return None;
        }
        *slot = i as u32 + 1;
    }
    Some(slots)
}

/// [`dense_join`] for any key columns: build rows listed per key bit
/// pattern in a hash map, so 1.2 does not join 1.9.
fn hashed_join(build: &Column, probe: &Column) -> (Vec<u32>, Vec<u32>) {
    let mut ht: FastMap<u64, Vec<u32>> = FastMap::default();
    for i in 0..build.len() {
        ht.entry(build.get_f64(i).to_bits()).or_default().push(i as u32);
    }
    let (mut build_rows, mut probe_rows) = (Vec::new(), Vec::new());
    for i in 0..probe.len() {
        if let Some(matches) = ht.get(&probe.get_f64(i).to_bits()) {
            build_rows.extend_from_slice(matches);
            probe_rows.extend(std::iter::repeat_n(i as u32, matches.len()));
        }
    }
    (build_rows, probe_rows)
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

    fn values(rel: &Rel, c: usize) -> &Column {
        rel.cols[c].as_ref().expect("key column without values")
    }

    fn key(rel: &Rel, idx: &[usize], i: usize) -> Vec<i64> {
        idx.iter().map(|&c| values(rel, c).get_f64(i).to_bits() as i64).collect()
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
            cols: keep.iter().map(|&c| Some(take(table.column_at(c), &selected))).collect(),
            rows: selected.len(),
        }
    }

    pub fn filter(rel: &Rel, pred: &Predicate) -> Rel {
        let selected: Vec<usize> =
            (0..rel.rows).filter(|&i| eval(pred, &|n| values(rel, rel.col_index(n)), i)).collect();
        let cols = rel.cols.iter().map(|c| c.as_ref().map(|c| take(c, &selected))).collect();
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
            cols: idx.iter().map(|&c| Some(take(values(rel, c), &kept))).collect(),
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
        let take_all = |rel: &Rel, rows: &[usize]| -> Vec<Option<Column>> {
            rel.cols.iter().map(|c| c.as_ref().map(|c| take(c, rows))).collect()
        };
        let mut cols = take_all(left, lrows);
        cols.extend(take_all(right, rrows));
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
    /// `(0, 0)` when the column holds no value but NaNs, or none.
    pub fn domain(column: &Column) -> (f64, f64) {
        let (lo, hi) = (0..column.len()).fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), i| {
            (lo.min(column.get_f64(i)), hi.max(column.get_f64(i)))
        });
        if lo <= hi {
            (lo, hi)
        } else {
            (0.0, 0.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{CmpOp, Predicate};
    use crate::schema::{ColumnDef, DataType, Schema};

    /// Every column name of `t`, so a scan keeps every column's values.
    fn every_name(t: &Table) -> Vec<String> {
        t.schema().columns().iter().map(|c| c.name.clone()).collect()
    }

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
        let pred = Predicate::cmp("v", CmpOp::Gt, 3.0);
        let r = Rel::from_table(&t, &pred, &["k".into(), "g".into()], &every_name(&t));
        assert_eq!(r.rows(), 3);
        assert_eq!(r.names(), &["k".to_string(), "g".to_string()]);
        assert_eq!(r.tuple_width(), 16.0);
    }

    #[test]
    fn empty_projection_keeps_all() {
        let t = base_table();
        let r = Rel::from_table(&t, &Predicate::True, &[], &every_name(&t));
        assert_eq!(r.rows(), 6);
        assert_eq!(r.names().len(), 3);
        assert_eq!(r.tuple_width(), 24.0);
    }

    #[test]
    fn group_count_exact() {
        let t = base_table();
        let r = Rel::from_table(&t, &Predicate::True, &[], &every_name(&t));
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
        let clustered: Vec<i32> = (0..100).flat_map(|g| std::iter::repeat_n(g, 10)).collect();
        // Deterministic round-robin interleave: every split sees every group.
        let random: Vec<i32> = (0..1000).map(|i| i % 100).collect();
        let mk = |vals: Vec<i32>| {
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
        let r = Rel::from_table(&t, &Predicate::True, &[], &every_name(&t));
        assert_eq!(r.combine_output(&["g".into()], 1), r.group_count(&["g".into()]));
    }

    #[test]
    fn filter_on_rel() {
        let t = base_table();
        let r = Rel::from_table(&t, &Predicate::True, &[], &every_name(&t));
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

    #[test]
    fn dense_codes_stop_at_the_cut_off() {
        const MIN: i32 = i32::MIN;
        const MAX: i32 = i32::MAX;
        let int = |v: &[i32]| Column::Int(v.to_vec());
        // Four rows allow 2 × 4 = 8 group codes.
        let codes = |cols: &[Column]| {
            let cols: Vec<&Column> = cols.iter().collect();
            dense_codes(&cols, GROUP_CODES_PER_ROW * 4).map(|(_, n)| n)
        };
        assert_eq!(codes(&[int(&[0, 7, 1, 2])]), Some(8));
        assert_eq!(codes(&[int(&[0, 8, 1, 2])]), None);
        assert_eq!(codes(&[int(&[0, 1, 0, 1]), int(&[0, 3, 1, 2])]), Some(8));
        assert_eq!(codes(&[int(&[0, 2, 1, 0]), int(&[0, 2, 1, 1])]), None);
        assert_eq!(codes(&[]), Some(1));
        assert_eq!(codes(&[Column::Float(vec![0.0, 1.0, 2.0, 3.0])]), None);
        // The same cut-off at either end of the `i32` range.
        assert_eq!(codes(&[int(&[MAX, MAX - 6, MAX, MAX - 1])]), Some(7));
        assert_eq!(codes(&[int(&[MAX, MAX - 7, MAX, MAX - 1])]), Some(8));
        assert_eq!(codes(&[int(&[MAX, MAX - 8, MAX, MAX - 1])]), None);
        assert_eq!(codes(&[int(&[MIN, MIN + 6, MIN, MIN + 1])]), Some(7));
        assert_eq!(codes(&[int(&[MIN, MIN + 7, MIN, MIN + 1])]), Some(8));
        assert_eq!(codes(&[int(&[MIN, MIN + 8, MIN, MIN + 1])]), None);
        assert_eq!(codes(&[int(&[MIN, MAX, 0, 0])]), None);
        // Four rows allow 32 × 4 = 128 bitmap group codes.
        let bitmap_codes = |cols: &[Column]| {
            let cols: Vec<&Column> = cols.iter().collect();
            dense_codes(&cols, BITMAP_CODES_PER_ROW * 4).map(|(_, n)| n)
        };
        assert_eq!(bitmap_codes(&[int(&[0, 127, 1, 2])]), Some(128));
        assert_eq!(bitmap_codes(&[int(&[0, 128, 1, 2])]), None);
        assert_eq!(bitmap_codes(&[int(&[0, 3, 1, 2]), int(&[0, 31, 1, 2])]), Some(128));
        assert_eq!(bitmap_codes(&[int(&[0, 4, 1, 2]), int(&[0, 31, 1, 2])]), None);
        assert_eq!(bitmap_codes(&[int(&[MAX, MAX - 126, MAX - 2, MAX - 3])]), Some(127));
        assert_eq!(bitmap_codes(&[int(&[MAX, MAX - 127, MAX - 2, MAX - 3])]), Some(128));
        assert_eq!(bitmap_codes(&[int(&[MAX, MAX - 128, MAX - 2, MAX - 3])]), None);
        assert_eq!(bitmap_codes(&[int(&[MIN, MIN + 127, MIN, MIN])]), Some(128));
        assert_eq!(bitmap_codes(&[int(&[MIN, MIN + 128, MIN, MIN])]), None);
        // An empty relation has no codes, not even for no keys.
        assert_eq!(dense_codes(&[], 0), None);
    }

    /// Columns of `codes` codes each, from `i32::MIN` up.
    fn spanning(codes: &[u64]) -> Vec<Column> {
        let top = |c: u64| (i64::from(i32::MIN) + c as i64 - 1) as i32;
        codes.iter().map(|&c| Column::Int(vec![i32::MIN, top(c), top(c), i32::MIN])).collect()
    }

    /// A full-range `i32` column spans `u32::MAX`: one is `2^32` codes,
    /// and the product of three columns' codes stops at a word.
    /// `u64::MAX = (2^32 − 1) × 641 × 6,700,417`.
    #[test]
    fn dense_codes_stop_at_a_word() {
        let word = |codes: &[u64]| {
            let cols = spanning(codes);
            let cols: Vec<&Column> = cols.iter().collect();
            dense_codes(&cols, usize::MAX as u64).map(|(_, n)| n)
        };
        let full = 1u64 << 32;
        assert_eq!(word(&[full]), Some(full));
        assert_eq!(word(&[full - 2, 641, 6_700_417]), Some(u64::MAX - 641 * 6_700_417));
        assert_eq!(word(&[full - 1, 641, 6_700_417]), Some(u64::MAX));
        assert_eq!(word(&[full, 641, 6_700_417]), None);
        assert_eq!(word(&[full, full]), None);
        assert_eq!(word(&[full, full, full]), None);
    }

    /// Group-bys on either side of the word limit, and joins whose probe
    /// values lie beyond either end of the build range, give the
    /// reference executor's rows.
    #[test]
    fn keys_at_the_i32_edges_match_reference() {
        let full = 1u64 << 32;
        let names: Vec<String> = ["k0", "k1", "k2"].map(String::from).to_vec();
        for codes in [[full - 2, 641, 6_700_417], [full - 1, 641, 6_700_417], [full; 3]] {
            let r = Rel::from_columns(names.clone(), vec![8.0; 3], spanning(&codes));
            for n_splits in 1..=3 {
                let (groups, combined) = r.groupby_combined(&names, n_splits);
                assert_eq!(format!("{groups:?}"), format!("{:?}", reference::groupby(&r, &names)));
                assert_eq!(combined, reference::combine_output(&r, &names, n_splits));
            }
        }
        let (min, max) = (i32::MIN, i32::MAX);
        let probe = vec![min, min + 1, -1, 0, 1, max - 1, max];
        for build in [vec![min, min + 1], vec![max - 1, max], vec![-1, 0, 1], vec![0, 0, 1]] {
            // Every build value is one probe value: one output row each.
            let matches = build.len();
            let l = Rel::from_columns(vec!["a".into()], vec![8.0], vec![Column::Int(build)]);
            let r =
                Rel::from_columns(vec!["b".into()], vec![8.0], vec![Column::Int(probe.clone())]);
            let (fast, slow) =
                (hash_join(&l, &r, "a", "b"), reference::hash_join(&l, &r, "a", "b"));
            assert_eq!(format!("{fast:?}"), format!("{slow:?}"));
            assert_eq!(fast.rows(), matches);
        }
    }

    mod differential {
        use super::super::{
            hash_join, reference, Rel, BITMAP_CODES_PER_ROW, GROUP_CODES_PER_ROW,
            JOIN_CODES_PER_ROW,
        };
        use crate::expr::{CmpOp, Predicate};
        use crate::histogram::{
            Bucket, Histogram, BITMAP_BITS_PER_ROW, COUNT_VALUES_PER_ROW, HASH_SLOTS,
        };
        use crate::schema::{ColumnDef, DataType, Schema};
        use crate::table::{Column, Table};
        use proptest::prelude::*;

        /// `a`, `b` are Int columns, `c`, `d` Float ones.
        const NAMES: [&str; 4] = ["a", "b", "c", "d"];
        const FLOATS: [f64; 9] = [-2.5, -1.0, -0.0, 0.0, 0.5, 1.2, 1.9, 2.0, 3.0];

        type Row = (i32, i32, f64, f64);

        fn rows(max: usize) -> impl Strategy<Value = Vec<Row>> {
            let float = || prop::sample::select(FLOATS.to_vec());
            prop::collection::vec((-4i32..5, -4i32..5, float(), float()), 0..max)
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

        /// Every column name, so a scan keeps every column's values.
        fn names() -> Vec<String> {
            NAMES.iter().map(|n| n.to_string()).collect()
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

        /// The `i32` extremes and the values next to them, and two small
        /// ones.
        fn i32_edges() -> Vec<i32> {
            let (min, max) = (i32::MIN, i32::MAX);
            vec![min, min + 1, min + 2, max - 2, max - 1, max, -1, 0]
        }

        /// Int columns either side of the bitmap cut-off (span below 64
        /// per row), at the `i32` extremes (a full-range column spans
        /// `u32::MAX`), empty and one-value; float columns with duplicates
        /// and both zeros.
        fn column() -> BoxedStrategy<Column> {
            let edge = i32_edges();
            let dense = (-1000i32..1000, prop::collection::vec(0i32..40, 0..80))
                .prop_map(|(lo, offsets)| offsets.into_iter().map(|o| lo + o).collect());
            // k + 2 values spanning per_row × (k + 2) − 1 + d values past
            // the first: the last span under the per-value counts' or the
            // bitmap's cut-off for d = 0, exactly at it for d = 1, one past
            // it for d = 2.
            let per_row = prop::sample::select(vec![COUNT_VALUES_PER_ROW, BITMAP_BITS_PER_ROW]);
            let straddle = (per_row, 0i32..3, prop::collection::vec(0.0f64..1.0, 0..5)).prop_map(
                |(per_row, d, fractions)| {
                    let top = per_row as i32 * (fractions.len() as i32 + 2) - 1 + d;
                    let mut v: Vec<i32> =
                        fractions.iter().map(|f| (f * top as f64) as i32).collect();
                    v.extend([0, top]);
                    v
                },
            );
            let special = || prop::sample::select(special_floats());
            let int = |s: BoxedStrategy<Vec<i32>>| s.prop_map(Column::Int);
            let float = |s: BoxedStrategy<Vec<f64>>| s.prop_map(Column::Float);
            prop_oneof![
                int(dense.boxed()),
                int(prop::collection::vec(-1_000_000_000i32..1_000_000_000, 0..40).boxed()),
                int(prop::collection::vec(any::<i32>(), 0..40).boxed()),
                int(straddle.boxed()),
                // Only edge values: a dense span at one end, or the full
                // range.
                int(prop::collection::vec(prop::sample::select(edge.clone()), 0..8).boxed()),
                int(prop::collection::vec(
                    prop_oneof![prop::sample::select(edge), -3i32..3],
                    0..40
                )
                .boxed()),
                int(prop::collection::vec(-2i32..2, 0..2).boxed()),
                float(prop::collection::vec(prop::sample::select(FLOATS.to_vec()), 0..60).boxed()),
                float(prop::collection::vec(-1e3f64..1e3, 0..40).boxed()),
                float(prop::collection::vec(special(), 0..300).boxed()),
                // All equal, NaN and both zeros included.
                float((special(), 0usize..300).prop_map(|(v, n)| vec![v; n]).boxed()),
            ]
        }

        /// [`FLOATS`] and NaNs with three payloads, the last one all ones.
        fn special_floats() -> Vec<f64> {
            let nans = [0x7ff8_0000_0000_0000, 0x7ff0_0000_0000_0001, u64::MAX];
            FLOATS.iter().copied().chain(nans.map(f64::from_bits)).collect()
        }

        /// How [`key_rel`] fills a key column of `n` rows, drawn to sit on
        /// either side of the dense-code cut-offs.
        #[derive(Debug, Clone)]
        enum KeyKind {
            /// `mult × n + d` codes from `lo` (exactly a group's or a join's
            /// cut-off for `d = 0`, one code past it for `d = 1`), both
            /// ends drawn, the rest at `fractions` of the span.
            Spanned { lo: i32, mult: i64, d: i64, fractions: Vec<f64> },
            /// `lo..lo + n` in the order of `order`'s entries below `n`,
            /// `lo` lowered so that the last value is at most `i32::MAX`:
            /// every value distinct, so joins index their build keys one
            /// slot per code.
            Distinct { lo: i32, order: Vec<usize> },
            /// The first `n` values: a few small ones, or values at and
            /// next to the `i32` extremes.
            Ints(Vec<i32>),
            /// The first `n` values.
            Floats(Vec<f64>),
        }

        fn key_kind(max: usize) -> BoxedStrategy<KeyKind> {
            let mults = vec![
                1,
                GROUP_CODES_PER_ROW as i64,
                JOIN_CODES_PER_ROW as i64,
                BITMAP_CODES_PER_ROW as i64,
            ];
            // Where a range of values starts: small, or at or near either
            // `i32` extreme (a spanned range from `i32::MAX - 1280` ends at
            // most at `i32::MAX`, as `mult × n` is at most 32 × 40).
            let starts = |top: i32| {
                prop_oneof![
                    -1000i32..1000,
                    prop::sample::select(vec![i32::MIN, i32::MIN + 1, top - 20, top])
                ]
            };
            prop_oneof![
                (
                    starts(i32::MAX - 1280),
                    prop::sample::select(mults),
                    -1i64..=1,
                    prop::collection::vec(0.0f64..1.0, max),
                )
                    .prop_map(|(lo, mult, d, fractions)| KeyKind::Spanned {
                        lo,
                        mult,
                        d,
                        fractions
                    }),
                // 0..max shuffled: sorted by drawn keys.
                (starts(i32::MAX), prop::collection::vec(0u64..1 << 20, max)).prop_map(
                    move |(lo, keys)| {
                        let mut order: Vec<usize> = (0..max).collect();
                        order.sort_by_key(|&p| keys[p]);
                        KeyKind::Distinct { lo, order }
                    }
                ),
                prop::collection::vec(-3i32..3, max).prop_map(KeyKind::Ints),
                prop::collection::vec(prop::sample::select(i32_edges()), max)
                    .prop_map(KeyKind::Ints),
                prop::collection::vec(prop::sample::select(FLOATS.to_vec()), max)
                    .prop_map(KeyKind::Floats),
            ]
            .boxed()
        }

        fn key_column(kind: &KeyKind, n: usize) -> Column {
            match kind {
                KeyKind::Spanned { lo, mult, d, fractions } => {
                    // `top + 1` codes, `lo` and `lo + top` both present.
                    let top = (mult * n as i64 - 1 + d).max(0);
                    let value = |off: i64| i32::try_from(i64::from(*lo) + off).unwrap();
                    let mut v: Vec<i32> = fractions[..n]
                        .iter()
                        .map(|f| value(((f * (top + 1) as f64) as i64).min(top)))
                        .collect();
                    for (slot, x) in v.iter_mut().zip([*lo, value(top)]) {
                        *slot = x;
                    }
                    Column::Int(v)
                }
                KeyKind::Distinct { lo, order } => {
                    let lo = i64::from(*lo).min(i64::from(i32::MAX) + 1 - n as i64);
                    let value = |p: usize| i32::try_from(lo + p as i64).unwrap();
                    Column::Int(order.iter().filter(|&&p| p < n).map(|&p| value(p)).collect())
                }
                KeyKind::Ints(v) => Column::Int(v[..n].to_vec()),
                KeyKind::Floats(v) => Column::Float(v[..n].to_vec()),
            }
        }

        /// Key columns `k0`, `k1`, `k2` (prefixed) of one drawn length
        /// below `max`, each filled by a drawn [`KeyKind`].
        fn key_rel(max: usize, prefix: &'static str) -> impl Strategy<Value = Rel> {
            (0..max, prop::collection::vec(key_kind(max), 3)).prop_map(move |(n, kinds)| {
                let names = (0..3).map(|c| format!("{prefix}k{c}")).collect();
                let cols = kinds.iter().map(|k| key_column(k, n)).collect();
                Rel::from_columns(names, vec![8.0; 3], cols)
            })
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

        /// `lean`, kept with values for `keys` only, against `full`, kept
        /// with every value: the same rows, names, widths and bytes, the
        /// same values, one per row, in every key column and none in the
        /// others.
        fn same_sizes(lean: &Rel, full: &Rel, keys: &[String]) -> Result<(), TestCaseError> {
            prop_assert_eq!(lean.rows(), full.rows());
            prop_assert_eq!(lean.names(), full.names());
            prop_assert_eq!(bits(&lean.widths), bits(&full.widths));
            prop_assert_eq!(lean.physical_bytes().to_bits(), full.physical_bytes().to_bits());
            for n in lean.names() {
                let want = if keys.contains(n) { full.column(n) } else { None };
                prop_assert_eq!(format!("{:?}", lean.column(n)), format!("{want:?}"), "{}", n);
                prop_assert_eq!(lean.column(n).map_or(lean.rows(), Column::len), lean.rows());
            }
            Ok(())
        }

        /// The names of `mask`'s set bits, in column order.
        fn masked(mask: usize) -> Vec<String> {
            (0..4).filter(|c| mask >> c & 1 == 1).map(|c| NAMES[c].to_string()).collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn keeping_only_key_values_keeps_every_size(
                left in rows(30),
                right in rows(30),
                scan in predicate(),
                projection in 0usize..16,
                key_mask in 0usize..16,
                lkey in 0usize..4,
                rkey in 0usize..4,
                split_pick in 0usize..1000,
                limit in 0usize..40,
            ) {
                // Group-by keys among the projected columns, each side's
                // join key projected too.
                let group_keys = masked(projection & key_mask);
                let (lk, rk) = (NAMES[lkey].to_string(), NAMES[rkey].to_string());
                let scan_side = |data: &[Row], key: usize, keys: &[String]| {
                    let t = table(data);
                    let proj = masked(projection | 1 << key);
                    let mut keys = keys.to_vec();
                    keys.push(NAMES[key].to_string());
                    let lean = Rel::from_table(&t, &scan, &proj, &keys);
                    (lean, Rel::from_table(&t, &scan, &proj, &names()), keys)
                };
                let (lean_l, full_l, lkeys) = scan_side(&left, lkey, &group_keys);
                same_sizes(&lean_l, &full_l, &lkeys)?;

                let n_splits = 1 + split_pick % (full_l.rows() + 2);
                let (lean_g, lean_c) = lean_l.groupby_combined(&group_keys, n_splits);
                let (full_g, full_c) = full_l.groupby_combined(&group_keys, n_splits);
                same_sizes(&lean_g, &full_g, &group_keys)?;
                prop_assert_eq!(lean_c, full_c);

                let (mut lean_r, mut full_r, rkeys) = scan_side(&right, rkey, &[]);
                same_sizes(&lean_r, &full_r, &rkeys)?;
                for n in lean_r.names().to_vec() {
                    lean_r.rename_column(&n, format!("r_{n}"));
                    full_r.rename_column(&n, format!("r_{n}"));
                }
                let rk = format!("r_{rk}");
                let lean_j = hash_join(&lean_l, &lean_r, &lk, &rk);
                let full_j = hash_join(&full_l, &full_r, &lk, &rk);
                let mut join_keys = lkeys.clone();
                join_keys.extend(rkeys.iter().map(|k| format!("r_{k}")));
                same_sizes(&lean_j, &full_j, &join_keys)?;
                same_sizes(&lean_j.head(limit), &full_j.head(limit), &join_keys)?;
            }

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
                let fast = Rel::from_table(&t, &scan, &proj, &names());
                same(&fast, &reference::from_table(&t, &scan, &proj))?;
                let all = Rel::from_table(&t, &scan, &[], &names());
                same(&all.filter(&refilter), &reference::filter(&all, &refilter))?;
            }

            #[test]
            fn grouping_matches_reference(
                data in rows(60),
                scan in predicate(),
                keys in keys(),
                split_pick in 0usize..1000,
            ) {
                let r = Rel::from_table(&table(&data), &scan, &[], &names());
                let n_splits = 1 + split_pick % (r.rows() + 2);
                prop_assert_eq!(r.group_count(&keys), reference::group_count(&r, &keys));
                same(&r.groupby(&keys), &reference::groupby(&r, &keys))?;
                prop_assert_eq!(
                    r.combine_output(&keys, n_splits),
                    reference::combine_output(&r, &keys, n_splits)
                );
            }

            #[test]
            fn grouping_on_drawn_keys_matches_reference(
                r in key_rel(40, ""),
                picks in prop::collection::vec(0usize..3, 0..=3),
                split_pick in 0usize..1000,
            ) {
                let mut keys: Vec<String> = Vec::new();
                for p in picks {
                    let k = format!("k{p}");
                    if !keys.contains(&k) {
                        keys.push(k);
                    }
                }
                let n_splits = 1 + split_pick % (r.rows() + 2);
                let groups = reference::groupby(&r, &keys);
                let combined = reference::combine_output(&r, &keys, n_splits);
                prop_assert_eq!(r.group_count(&keys), groups.rows());
                same(&r.groupby(&keys), &groups)?;
                prop_assert_eq!(r.combine_output(&keys, n_splits), combined);
                let (fused, fused_combined) = r.groupby_combined(&keys, n_splits);
                same(&fused, &groups)?;
                prop_assert_eq!(fused_combined, combined);
            }

            #[test]
            fn joins_on_drawn_keys_match_reference(
                l in key_rel(30, "l_"),
                r in key_rel(30, "r_"),
                lkey in 0usize..3,
                rkey in 0usize..3,
            ) {
                let (lk, rk) = (format!("l_k{lkey}"), format!("r_k{rkey}"));
                same(&hash_join(&l, &r, &lk, &rk), &reference::hash_join(&l, &r, &lk, &rk))?;
                same(&hash_join(&r, &l, &rk, &lk), &reference::hash_join(&r, &l, &rk, &lk))?;
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

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(8))]

            /// Float columns of `HASH_SLOTS / 2 + extra` rows, every 16th
            /// one a special value: with one bucket the slice exactly fills
            /// the hash table's cap for `extra = 0` and sorts above it; two
            /// buckets split it into slices on either side of the cap.
            #[test]
            fn long_float_slices_match_one_set_oracle(
                extra in prop::sample::select(vec![0usize, 1, 2, HASH_SLOTS / 2]),
                seed in any::<u64>(),
                values in 1u64..2 * HASH_SLOTS as u64,
                n in 1usize..3,
            ) {
                let special = special_floats();
                let mut x = seed | 1;
                let col = Column::Float(
                    (0..HASH_SLOTS / 2 + extra)
                        .map(|i| {
                            // xorshift64
                            x ^= x << 13;
                            x ^= x >> 7;
                            x ^= x << 17;
                            match i % 16 {
                                0 => special[(x % special.len() as u64) as usize],
                                _ => (x % values) as f64 * 0.25 - 1e3,
                            }
                        })
                        .collect(),
                );
                let (min, max) = reference::domain(&col);
                let fast = Histogram::from_column(&col, n);
                let slow = reference::histogram_one_set(&col, min, max, n);
                prop_assert_eq!(bucket_bits(fast.buckets()), bucket_bits(&slow));
            }
        }
    }
}
