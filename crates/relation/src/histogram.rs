//! Equi-width histograms with per-bucket tuple and distinct counts.
//!
//! The paper (§3.1.1) builds *off-line equi-width histograms* on filterable
//! attributes, assuming a piece-wise uniform distribution of values inside
//! each bucket [Piatetsky-Shapiro & Connell '84]. The same structure also
//! carries per-bucket distinct counts so the per-bucket join-size formula
//! (paper Eq. 5, after Bell et al. '89) can be evaluated directly.
//!
//! Building a catalog is most of generating a database, so
//! [`Histogram::build`] counts exact distincts with one of four kernels,
//! chosen by the column's type and, for Int values (every `i32` converts
//! to `f64` exactly), by the span `max - min` that the range scan of
//! [`Histogram::from_column`] already found:
//!
//! - span under 2 values per row (and at most `u32::MAX` rows): one `u32`
//!   row count per value, then one walk over the values, adding each
//!   present value's rows and one distinct to its bucket;
//! - span under 64 values per row: a bitmap of the values seen, whose
//!   first mark of a value is a new distinct in its bucket;
//! - any other column, Float ones included: count each bucket's rows,
//!   scatter the `f64` bit patterns into one slice per bucket, and count
//!   each slice's distinct patterns in one reused open-addressing table
//!   of the least power of two at least twice the slice, under a cap of
//!   2^17 slots (1 MiB, L2-resident);
//! - a slice too long for the cap: sort it and count its runs.
//!
//! Per-value counts and the bitmap take at most 8 B per row, as much as
//! the scattered patterns do; the hash table stays under its cap however
//! skewed the buckets are. Every kernel counts `f64` bit patterns and
//! puts each value in the bucket [`Histogram::build`]'s bucket function
//! gives it, so all four agree bit for bit.

use crate::expr::{CmpOp, Predicate};
use crate::table::{int_range, int_span, offset, Column};

/// One histogram bucket: `[lo, hi)` (the last bucket is closed on both ends).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bucket {
    /// Inclusive lower bound.
    pub lo: f64,
    /// Exclusive upper bound (inclusive for the last bucket).
    pub hi: f64,
    /// Number of tuples whose value falls in the bucket.
    pub count: f64,
    /// Number of distinct values observed in the bucket.
    pub distinct: f64,
}

/// An equi-width histogram over a numeric column.
///
/// ```
/// use sapred_relation::histogram::Histogram;
/// use sapred_relation::table::Column;
/// use sapred_relation::expr::CmpOp;
///
/// let col = Column::Int((0..100).collect());
/// let h = Histogram::build(&col, 0.0, 100.0, 10);
/// let s = h.selectivity_cmp(CmpOp::Lt, 25.0);
/// assert!((s - 0.25).abs() < 0.03);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    min: f64,
    max: f64,
    buckets: Vec<Bucket>,
    total: f64,
}

impl Histogram {
    /// Reassemble a histogram from its parts: the `(min, max)` of
    /// [`Histogram::domain`], the [`Histogram::buckets`] and the
    /// [`Histogram::total`] (how a persisted catalog is read back).
    ///
    /// # Panics
    /// Panics if `buckets` is empty.
    pub fn from_parts(min: f64, max: f64, buckets: Vec<Bucket>, total: f64) -> Self {
        assert!(!buckets.is_empty(), "need at least one bucket");
        Self { min, max, buckets, total }
    }

    /// Build a histogram over `[min, max]` with `n` equal-width buckets.
    /// Values outside the domain are clamped into the edge buckets (they can
    /// arise when a shared join-key domain is wider than one table's range).
    ///
    /// Distinct counts are exact and count `f64` bit patterns, so `-0.0`
    /// and `0.0` are two values. A value always falls in the same bucket,
    /// so every bucket's distinct count is its number of distinct patterns.
    ///
    /// # Panics
    /// Panics if `n == 0` or `min > max`.
    pub fn build(column: &Column, min: f64, max: f64, n: usize) -> Self {
        Self::build_in(column, column.as_int().and_then(int_range), min, max, n)
    }

    /// [`Histogram::build`] given an Int column's `(min, max)` (`None` for
    /// a Float or empty column), so that a caller who scanned for it does
    /// not scan again.
    fn build_in(column: &Column, range: Option<(i32, i32)>, min: f64, max: f64, n: usize) -> Self {
        assert!(n > 0, "need at least one bucket");
        assert!(min <= max, "invalid domain [{min}, {max}]");
        let width = if max > min { (max - min) / n as f64 } else { 1.0 };
        let bucket = |v: f64| Self::bucket_index_for(v, min, width, n);
        let (counts, distinct) = match column {
            Column::Int(v) => match int_kernel(v.len(), range) {
                IntKernel::Counts { lo, span } => distinct_by_counts(v, lo, span, n, bucket),
                IntKernel::Bitmap { lo, span } => distinct_by_bitmap(v, lo, span, n, bucket),
                IntKernel::Scatter => {
                    distinct_by_scatter(v.iter().map(|&x| f64::from(x)), n, bucket)
                }
            },
            Column::Float(v) => distinct_by_scatter(v.iter().copied(), n, bucket),
        };
        let buckets = (0..n)
            .map(|b| Bucket {
                lo: min + b as f64 * width,
                hi: min + (b + 1) as f64 * width,
                count: counts[b] as f64,
                distinct: distinct[b] as f64,
            })
            .collect();
        Self { min, max, buckets, total: column.len() as f64 }
    }

    /// Build an equi-*depth* histogram: bucket boundaries at value
    /// quantiles, so each bucket holds ≈ the same number of tuples. Under
    /// heavy skew this resolves the hot keys that equi-width bucketing
    /// smears (the classic alternative of Piatetsky-Shapiro & Connell).
    /// Duplicate quantile boundaries are merged, so the result may have
    /// fewer than `n` buckets.
    pub fn build_equi_depth(column: &Column, n: usize) -> Self {
        assert!(n > 0, "need at least one bucket");
        let rows = column.len();
        if rows == 0 {
            return Self::build(column, 0.0, 0.0, 1);
        }
        let mut sorted: Vec<f64> = (0..rows).map(|i| column.get_f64(i)).collect();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let (min, max) = (sorted[0], sorted[rows - 1]);
        // Quantile boundaries, kept strictly increasing: when a heavy value
        // spans several quantiles, advance to the next distinct value so
        // the hot value gets isolated in its own bucket instead of being
        // smeared (this is what makes equi-depth effective under skew).
        let mut bounds: Vec<f64> = vec![min];
        for q in 1..n {
            let last = *bounds.last().expect("non-empty");
            let candidate = sorted[q * rows / n];
            let v = if candidate > last {
                candidate
            } else {
                // Smallest value strictly greater than the last boundary.
                let idx = sorted.partition_point(|&x| x <= last);
                if idx >= rows {
                    break;
                }
                sorted[idx]
            };
            if v > *bounds.last().expect("non-empty") {
                bounds.push(v);
            }
        }
        let top = max + 1e-9; // half-open buckets must cover the maximum
        if top > *bounds.last().expect("non-empty") {
            bounds.push(top);
        } else {
            bounds.push(*bounds.last().unwrap() + 1e-9);
        }
        let mut buckets: Vec<Bucket> = bounds
            .windows(2)
            .map(|w| Bucket { lo: w[0], hi: w[1], count: 0.0, distinct: 0.0 })
            .collect();
        // Fill counts/distincts from the sorted values in one pass.
        let mut b = 0usize;
        let mut prev: Option<f64> = None;
        for &v in &sorted {
            while b + 1 < buckets.len() && v >= buckets[b].hi {
                b += 1;
                prev = None;
            }
            buckets[b].count += 1.0;
            if prev != Some(v) {
                buckets[b].distinct += 1.0;
                prev = Some(v);
            }
        }
        Self { min, max, buckets, total: rows as f64 }
    }

    /// Build with the domain taken from the column itself.
    pub fn from_column(column: &Column, n: usize) -> Self {
        let int = column.as_int().and_then(int_range);
        let range = match column {
            Column::Int(_) => int.map(|(lo, hi)| (f64::from(lo), f64::from(hi))),
            // `min`/`max` skip NaNs, so an empty or all-NaN column keeps the
            // fold's start, an inverted range.
            Column::Float(v) => {
                Some(v.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
                    (lo.min(x), hi.max(x))
                }))
                .filter(|(lo, hi)| lo <= hi)
            }
        };
        let (lo, hi) = range.unwrap_or((0.0, 0.0));
        Self::build_in(column, int, lo, hi, n)
    }

    /// The equi-width bucket of `v`: `floor((v - min) / width)` clamped to
    /// `0..n`. The float-to-int cast truncates toward zero and saturates,
    /// sending a negative or NaN quotient to 0 as `floor` then `max(0.0)`
    /// would, without `floor`'s data-dependent branches.
    #[inline]
    pub(crate) fn bucket_index_for(v: f64, min: f64, width: f64, n: usize) -> usize {
        (((v - min) / width) as usize).min(n - 1)
    }

    /// Index of the bucket containing `v`, valid for both equi-width and
    /// equi-depth (variable-width) bucketing.
    fn bucket_of(&self, v: f64) -> usize {
        match self.buckets.binary_search_by(|b| b.lo.partial_cmp(&v).expect("no NaN")) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => (i - 1).min(self.buckets.len() - 1),
        }
    }

    /// Number of buckets.
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// The buckets in domain order.
    pub fn buckets(&self) -> &[Bucket] {
        &self.buckets
    }

    /// Total tuple mass.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// `(min, max)` of the covered value domain.
    pub fn domain(&self) -> (f64, f64) {
        (self.min, self.max)
    }

    /// Total distinct-count estimate (sum of per-bucket distincts; exact when
    /// buckets partition the value space, which equi-width bucketing ensures).
    pub fn distinct_total(&self) -> f64 {
        self.buckets.iter().map(|b| b.distinct).sum()
    }

    /// Estimated fraction of tuples satisfying `value op constant`, the
    /// paper's `S_pred` for a single comparison, under the piece-wise uniform
    /// assumption.
    pub fn selectivity_cmp(&self, op: CmpOp, value: f64) -> f64 {
        if self.total == 0.0 {
            return 0.0;
        }
        let sel = match op {
            CmpOp::Lt => self.mass_below(value, false),
            CmpOp::Le => self.mass_below(value, true),
            CmpOp::Gt => self.total - self.mass_below(value, true),
            CmpOp::Ge => self.total - self.mass_below(value, false),
            CmpOp::Eq => self.mass_eq(value),
            CmpOp::Ne => self.total - self.mass_eq(value),
        };
        (sel / self.total).clamp(0.0, 1.0)
    }

    /// Estimated fraction of tuples in `[lo, hi]` (inclusive BETWEEN).
    pub fn selectivity_between(&self, lo: f64, hi: f64) -> f64 {
        if self.total == 0.0 || hi < lo {
            return 0.0;
        }
        let mass = self.mass_below(hi, true) - self.mass_below(lo, false);
        (mass / self.total).clamp(0.0, 1.0)
    }

    /// Tuples with value strictly below `v` (or `<= v` when `inclusive`),
    /// interpolating linearly inside the straddled bucket.
    fn mass_below(&self, v: f64, inclusive: bool) -> f64 {
        let mut acc = 0.0;
        for b in &self.buckets {
            if v >= b.hi {
                acc += b.count;
            } else if v > b.lo || (inclusive && v == b.lo) {
                // A zero-width bucket (a constant column, or a degenerate
                // persisted histogram) holds a single point value; straddling
                // it means the whole bucket is below. Guard the 0/0.
                let width = b.hi - b.lo;
                let frac = if width > 0.0 { ((v - b.lo) / width).clamp(0.0, 1.0) } else { 1.0 };
                let mut m = b.count * frac;
                if inclusive && b.distinct > 0.0 {
                    // Include the equality mass of `v` itself.
                    m += b.count / b.distinct * 0.5_f64.min(1.0 / b.distinct);
                    m = m.min(b.count);
                }
                acc += m;
                break;
            } else {
                break;
            }
        }
        acc.min(self.total)
    }

    /// Estimated number of tuples equal to `v`: bucket count spread uniformly
    /// over the bucket's distinct values.
    fn mass_eq(&self, v: f64) -> f64 {
        if v < self.min || v > self.max {
            return 0.0;
        }
        let b = &self.buckets[self.bucket_of(v)];
        if b.distinct == 0.0 {
            0.0
        } else {
            b.count / b.distinct
        }
    }

    /// Estimated `S_pred` for a full predicate tree over *this column*
    /// (conjuncts/disjuncts over other columns must be combined by the caller
    /// under the independence assumption).
    pub fn selectivity_pred(&self, pred: &Predicate) -> f64 {
        match pred {
            Predicate::True => 1.0,
            Predicate::Cmp { op, value, .. } => self.selectivity_cmp(*op, *value),
            Predicate::Between { lo, hi, .. } => self.selectivity_between(*lo, *hi),
            Predicate::And(a, b) => self.selectivity_pred(a) * self.selectivity_pred(b),
            Predicate::Or(a, b) => {
                let (sa, sb) = (self.selectivity_pred(a), self.selectivity_pred(b));
                (sa + sb - sa * sb).clamp(0.0, 1.0)
            }
        }
    }

    /// Return a copy whose per-bucket counts are scaled by the estimated
    /// selectivity of `pred` *within each bucket*. This implements the
    /// "updated piece-wise distribution" propagation the paper borrows from
    /// Bell et al. for chained joins on unshared keys (§3.1.2).
    pub fn filtered(&self, pred: &Predicate) -> Histogram {
        let mut out = self.clone();
        let mut new_total = 0.0;
        for b in &mut out.buckets {
            // Evaluate the predicate selectivity restricted to this bucket by
            // building a single-bucket view.
            let view = Histogram { min: b.lo, max: b.hi, buckets: vec![*b], total: b.count };
            let s = view.selectivity_pred(pred);
            b.count *= s;
            b.distinct = b.distinct.min(b.count).max(if b.count > 0.0 { 1.0 } else { 0.0 });
            // Distinct values thin out slower than tuples; keep at least the
            // uniform expectation.
            new_total += b.count;
        }
        out.total = new_total;
        out
    }

    /// Overwrite one bucket's count and distinct (used when constructing
    /// derived histograms such as join outputs); the running total is kept
    /// consistent.
    pub fn set_bucket(&mut self, i: usize, count: f64, distinct: f64) {
        assert!(count >= 0.0 && distinct >= 0.0);
        let b = &mut self.buckets[i];
        self.total += count - b.count;
        b.count = count;
        b.distinct = distinct;
    }

    /// Return a copy where each bucket's tuple count is replaced by its
    /// distinct count: the histogram of a relation that keeps exactly one
    /// tuple per distinct value (a group-by output keyed on this column).
    pub fn distinct_as_count(&self) -> Histogram {
        let mut out = self.clone();
        for b in &mut out.buckets {
            b.count = b.distinct;
        }
        out.total = out.buckets.iter().map(|b| b.count).sum();
        out
    }

    /// Return a copy with every bucket's tuple count scaled by `factor`
    /// (distinct counts are capped by the scaled counts). Used to propagate a
    /// histogram through an operator that thins or fans out tuples uniformly
    /// (e.g. a filter on another column, or a join fan-out).
    pub fn scaled(&self, factor: f64) -> Histogram {
        assert!(factor >= 0.0 && factor.is_finite());
        let mut out = self.clone();
        for b in &mut out.buckets {
            b.count *= factor;
            if factor < 1.0 {
                b.distinct = b.distinct.min(b.count).max(if b.count > 0.0 { 1.0 } else { 0.0 });
            }
        }
        out.total *= factor;
        out
    }

    /// Rebucket this histogram onto an explicit common domain, preserving
    /// total mass (needed to align two join sides, paper Eq. 5).
    pub fn rebucket(&self, min: f64, max: f64, n: usize) -> Histogram {
        assert!(n > 0 && min <= max);
        let width = if max > min { (max - min) / n as f64 } else { 1.0 };
        let mut buckets: Vec<Bucket> = (0..n)
            .map(|b| Bucket {
                lo: min + b as f64 * width,
                hi: min + (b + 1) as f64 * width,
                count: 0.0,
                distinct: 0.0,
            })
            .collect();
        for src in &self.buckets {
            if src.count == 0.0 {
                continue;
            }
            // Spread the source bucket's mass uniformly over its extent and
            // deposit it into overlapping destination buckets.
            let src_w = (src.hi - src.lo).max(f64::MIN_POSITIVE);
            for dst in &mut buckets {
                let lo = src.lo.max(dst.lo);
                let hi = src.hi.min(dst.hi);
                if hi > lo {
                    let frac = (hi - lo) / src_w;
                    dst.count += src.count * frac;
                    dst.distinct += src.distinct * frac;
                }
            }
        }
        Histogram { min, max, buckets, total: self.total }
    }
}

/// Values per row below which an Int column counts its rows per value:
/// `span + 1 ≤ 2 × rows` `u32` counters, at most 8 B per row, the scratch
/// memory [`distinct_by_scatter`] needs anyway.
pub(crate) const COUNT_VALUES_PER_ROW: u64 = 2;

/// Bits per row the distinct bitmap may use: at most one `u64` per row.
pub(crate) const BITMAP_BITS_PER_ROW: u64 = 64;

/// How [`Histogram::build`] counts an Int column's distinct values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IntKernel {
    /// [`distinct_by_counts`] over `lo..=lo + span`.
    Counts { lo: i32, span: u64 },
    /// [`distinct_by_bitmap`] over `lo..=lo + span`.
    Bitmap { lo: i32, span: u64 },
    /// [`distinct_by_scatter`] over the values' `f64` bit patterns.
    Scatter,
}

/// The kernel for `rows` Int values whose `(min, max)` is `range`. A span
/// under [`COUNT_VALUES_PER_ROW`] values per row counts per value, while no
/// `u32` count can overflow; one under [`BITMAP_BITS_PER_ROW`] marks a
/// bitmap. Anything else, no values included, scatters.
fn int_kernel(rows: usize, range: Option<(i32, i32)>) -> IntKernel {
    let rows = rows as u64;
    match range.map(int_span) {
        Some((lo, span)) if span < COUNT_VALUES_PER_ROW * rows && rows <= u64::from(u32::MAX) => {
            IntKernel::Counts { lo, span }
        }
        Some((lo, span)) if span < BITMAP_BITS_PER_ROW * rows => IntKernel::Bitmap { lo, span },
        _ => IntKernel::Scatter,
    }
}

/// Per-bucket counts and distinct counts of integers in `lo..=lo + span`:
/// count the rows of each value, then walk the values once, adding each
/// present value's rows and one distinct to its bucket.
fn distinct_by_counts(
    values: &[i32],
    lo: i32,
    span: u64,
    n: usize,
    bucket: impl Fn(f64) -> usize,
) -> (Vec<u64>, Vec<u64>) {
    let mut rows = vec![0u32; span as usize + 1];
    for &x in values {
        rows[offset(x, lo)] += 1;
    }
    let (mut counts, mut distinct) = (vec![0u64; n], vec![0u64; n]);
    for (off, &r) in rows.iter().enumerate() {
        if r > 0 {
            let b = bucket((i64::from(lo) + off as i64) as f64);
            counts[b] += u64::from(r);
            distinct[b] += 1;
        }
    }
    (counts, distinct)
}

/// Per-bucket counts and distinct counts of integers in `lo..=lo + span`,
/// marking each value's offset in a bitmap: the first mark of a value is
/// its bucket's new distinct.
fn distinct_by_bitmap(
    values: &[i32],
    lo: i32,
    span: u64,
    n: usize,
    bucket: impl Fn(f64) -> usize,
) -> (Vec<u64>, Vec<u64>) {
    let (mut counts, mut distinct) = (vec![0u64; n], vec![0u64; n]);
    let mut seen = vec![0u64; (span / 64 + 1) as usize];
    for &x in values {
        let b = bucket(f64::from(x));
        counts[b] += 1;
        let off = offset(x, lo);
        let (word, mask) = (&mut seen[off / 64], 1u64 << (off % 64));
        if *word & mask == 0 {
            *word |= mask;
            distinct[b] += 1;
        }
    }
    (counts, distinct)
}

/// Most slots a bucket slice's hash table may have: 2^17 `u64`s, 1 MiB,
/// small enough to stay in L2 whatever the skew.
pub(crate) const HASH_SLOTS: usize = 1 << 17;

/// Slots of the hash table that counts a bucket slice of `len` values: the
/// least power of two at least `2 × len`, or `None` when that exceeds
/// [`HASH_SLOTS`] and the slice sorts instead. Hashing beat sorting at
/// every slice length from 2 rows up (release build, 2-core x86-64 VM),
/// so short slices hash too.
fn hash_slots(len: usize) -> Option<usize> {
    let slots = (2 * len).next_power_of_two();
    (slots <= HASH_SLOTS).then_some(slots)
}

/// Per-bucket counts and distinct counts of any values: count each
/// bucket, scatter the bit patterns into one slice per bucket, then count
/// each slice's distinct patterns in one reused hash table (or by sorting
/// it; see [`hash_slots`]).
fn distinct_by_scatter(
    values: impl Iterator<Item = f64> + Clone,
    n: usize,
    bucket: impl Fn(f64) -> usize,
) -> (Vec<u64>, Vec<u64>) {
    let mut counts = vec![0u64; n];
    for v in values.clone() {
        counts[bucket(v)] += 1;
    }
    // `start[b]..start[b + 1]` is bucket `b`'s slice.
    let mut start = Vec::with_capacity(n + 1);
    start.push(0usize);
    for &c in &counts {
        start.push(start[start.len() - 1] + c as usize);
    }
    let mut next = start[..n].to_vec();
    let mut bits = vec![0u64; start[n]];
    for v in values {
        let b = bucket(v);
        bits[next[b]] = v.to_bits();
        next[b] += 1;
    }
    let mut table = Vec::new();
    let distinct = (0..n)
        .map(|b| {
            let slice = &mut bits[start[b]..start[b + 1]];
            match hash_slots(slice.len()) {
                Some(slots) => distinct_by_hash(slice, &mut table, slots),
                None => {
                    slice.sort_unstable();
                    let repeats = slice.windows(2).filter(|w| w[0] == w[1]).count();
                    (slice.len() - repeats) as u64
                }
            }
        })
        .collect();
    (counts, distinct)
}

/// An empty slot of [`distinct_by_hash`]'s table. It is also the pattern
/// of `+0.0`, which is therefore counted beside the table.
const EMPTY: u64 = 0;

/// Distinct patterns of `slice`, inserted by linear probing into `table`,
/// first reset to `slots` (a power of two) empty slots. The home slot is
/// the top bits of the pattern, its high half folded into its low half,
/// times 2^64 / φ: taking the top bits spreads patterns whose low mantissa
/// bits are all zero, and the fold spreads those that differ only in their
/// exponent.
fn distinct_by_hash(slice: &[u64], table: &mut Vec<u64>, slots: usize) -> u64 {
    table.clear();
    table.resize(slots, EMPTY);
    let (shift, mask) = (64 - slots.trailing_zeros(), slots - 1);
    let (mut distinct, mut zero) = (0, false);
    for &x in slice {
        if x == EMPTY {
            zero = true;
            continue;
        }
        let mut i = ((x ^ x >> 32).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> shift) as usize;
        loop {
            if table[i] == x {
                break;
            }
            if table[i] == EMPTY {
                table[i] = x;
                distinct += 1;
                break;
            }
            i = (i + 1) & mask;
        }
    }
    distinct + u64::from(zero)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_hist() -> Histogram {
        // Values 0..=99, one tuple each.
        let col = Column::Int((0..100).collect());
        Histogram::build(&col, 0.0, 100.0, 10)
    }

    #[test]
    fn mass_is_conserved() {
        let h = uniform_hist();
        let total: f64 = h.buckets().iter().map(|b| b.count).sum();
        assert_eq!(total, 100.0);
        assert_eq!(h.total(), 100.0);
    }

    #[test]
    fn range_selectivity_uniform() {
        let h = uniform_hist();
        let s = h.selectivity_cmp(CmpOp::Lt, 50.0);
        assert!((s - 0.5).abs() < 0.02, "s = {s}");
        let s = h.selectivity_cmp(CmpOp::Ge, 75.0);
        assert!((s - 0.25).abs() < 0.03, "s = {s}");
    }

    #[test]
    fn eq_selectivity_uniform() {
        let h = uniform_hist();
        let s = h.selectivity_cmp(CmpOp::Eq, 42.0);
        assert!((s - 0.01).abs() < 1e-9, "s = {s}");
        let s = h.selectivity_cmp(CmpOp::Ne, 42.0);
        assert!((s - 0.99).abs() < 1e-9, "s = {s}");
    }

    #[test]
    fn between_selectivity() {
        let h = uniform_hist();
        let s = h.selectivity_between(20.0, 40.0);
        assert!((s - 0.2).abs() < 0.03, "s = {s}");
        assert_eq!(h.selectivity_between(40.0, 20.0), 0.0);
    }

    #[test]
    fn out_of_domain_eq_is_zero() {
        let h = uniform_hist();
        assert_eq!(h.selectivity_cmp(CmpOp::Eq, 1000.0), 0.0);
        assert_eq!(h.selectivity_cmp(CmpOp::Eq, -5.0), 0.0);
    }

    #[test]
    fn skewed_distinct_counts() {
        // 90 copies of value 1 plus 0..=9 once each.
        let mut vals = vec![1i32; 90];
        vals.extend(0..10);
        let col = Column::Int(vals);
        let h = Histogram::build(&col, 0.0, 10.0, 1);
        assert_eq!(h.buckets()[0].distinct, 10.0);
        assert_eq!(h.total(), 100.0);
        // Equality on the hot key is estimated at count/distinct = 10 tuples,
        // an underestimate that is the known cost of equi-width histograms.
        let s = h.selectivity_cmp(CmpOp::Eq, 1.0);
        assert!((s - 0.1).abs() < 1e-9);
    }

    #[test]
    fn pred_tree_independence() {
        let h = uniform_hist();
        let p = Predicate::cmp("x", CmpOp::Lt, 50.0).and(Predicate::cmp("x", CmpOp::Ge, 0.0));
        let s = h.selectivity_pred(&p);
        assert!((s - 0.5).abs() < 0.03, "s = {s}");
        let p = Predicate::cmp("x", CmpOp::Lt, 10.0).or(Predicate::cmp("x", CmpOp::Ge, 90.0));
        let s = h.selectivity_pred(&p);
        assert!((s - 0.2).abs() < 0.05, "s = {s}");
    }

    #[test]
    fn filtered_histogram_scales_mass() {
        let h = uniform_hist();
        let f = h.filtered(&Predicate::cmp("x", CmpOp::Lt, 30.0));
        assert!((f.total() - 30.0).abs() < 3.0, "total = {}", f.total());
        // Buckets above the cut are empty.
        assert!(f.buckets()[5].count < 1e-9);
    }

    #[test]
    fn rebucket_preserves_mass() {
        let h = uniform_hist();
        let r = h.rebucket(0.0, 100.0, 4);
        let total: f64 = r.buckets().iter().map(|b| b.count).sum();
        assert!((total - 100.0).abs() < 1e-6);
        assert_eq!(r.num_buckets(), 4);
        assert!((r.buckets()[0].count - 25.0).abs() < 1e-6);
    }

    #[test]
    fn from_column_autodomain() {
        let col = Column::Float(vec![2.0, 4.0, 6.0, 8.0]);
        let h = Histogram::from_column(&col, 2);
        assert_eq!(h.domain(), (2.0, 8.0));
        assert_eq!(h.total(), 4.0);
    }

    #[test]
    fn equi_depth_balances_counts() {
        // Zipf-ish data: value v repeated (100 - v) times.
        let vals: Vec<i32> =
            (0..100).flat_map(|v| std::iter::repeat_n(v, 100 - v as usize)).collect();
        let h = Histogram::build_equi_depth(&Column::Int(vals.clone()), 10);
        let total: f64 = h.buckets().iter().map(|b| b.count).sum();
        assert_eq!(total, vals.len() as f64);
        // Every bucket holds within 2x of the ideal share.
        let ideal = vals.len() as f64 / h.num_buckets() as f64;
        for b in h.buckets() {
            assert!(b.count < 2.5 * ideal, "bucket {b:?} ideal {ideal}");
        }
        // Buckets tile the domain in order.
        for w in h.buckets().windows(2) {
            assert!((w[0].hi - w[1].lo).abs() < 1e-9);
        }
    }

    #[test]
    fn equi_depth_hot_key_equality_is_sharper() {
        // 900 copies of 0 plus 1..=99 once each: equi-depth isolates the
        // hot key in its own buckets, so Eq-selectivity on it is accurate.
        let mut vals = vec![0i32; 900];
        vals.extend(1..100);
        let col = Column::Int(vals);
        let width = Histogram::build(&col, 0.0, 100.0, 10);
        let depth = Histogram::build_equi_depth(&col, 10);
        let exact = 0.9;
        let e_width = (width.selectivity_cmp(CmpOp::Eq, 0.0) - exact).abs();
        let e_depth = (depth.selectivity_cmp(CmpOp::Eq, 0.0) - exact).abs();
        assert!(e_depth < e_width, "depth err {e_depth} width err {e_width}");
    }

    #[test]
    fn equi_depth_range_selectivity_sane() {
        let vals: Vec<i32> = (0..1000).collect();
        let h = Histogram::build_equi_depth(&Column::Int(vals), 16);
        let s = h.selectivity_cmp(CmpOp::Lt, 250.0);
        assert!((s - 0.25).abs() < 0.05, "s = {s}");
    }

    #[test]
    fn equi_depth_single_value_column() {
        let h = Histogram::build_equi_depth(&Column::Int(vec![7; 50]), 8);
        assert_eq!(h.total(), 50.0);
        let s = h.selectivity_cmp(CmpOp::Eq, 7.0);
        assert!(s > 0.9, "s = {s}");
    }

    #[test]
    fn int_kernel_cut_offs() {
        let (rows, lo) = (10, -3);
        let kernel = |span: u64| int_kernel(rows, Some((lo, lo + span as i32)));
        assert_eq!(kernel(19), IntKernel::Counts { lo, span: 19 });
        assert_eq!(kernel(20), IntKernel::Bitmap { lo, span: 20 });
        assert_eq!(kernel(639), IntKernel::Bitmap { lo, span: 639 });
        assert_eq!(kernel(640), IntKernel::Scatter);
        assert_eq!(int_kernel(0, None), IntKernel::Scatter);
        // One row past `u32::MAX`, a per-value count could wrap.
        let most = u32::MAX as usize;
        assert_eq!(int_kernel(most, Some((0, 0))), IntKernel::Counts { lo: 0, span: 0 });
        assert_eq!(int_kernel(most + 1, Some((0, 0))), IntKernel::Bitmap { lo: 0, span: 0 });
        // The full `i32` range spans `u32::MAX`: per-value counts at
        // `u32::MAX` rows, a scatter at a few.
        let full = Some((i32::MIN, i32::MAX));
        let span = u64::from(u32::MAX);
        assert_eq!(int_kernel(most, full), IntKernel::Counts { lo: i32::MIN, span });
        assert_eq!(int_kernel(rows, full), IntKernel::Scatter);
    }

    #[test]
    fn hash_tables_stop_at_the_cap() {
        assert_eq!(hash_slots(0), Some(1));
        assert_eq!(hash_slots(3), Some(8));
        assert_eq!(hash_slots(HASH_SLOTS / 2), Some(HASH_SLOTS));
        assert_eq!(hash_slots(HASH_SLOTS / 2 + 1), None);
    }

    #[test]
    fn all_nan_column_gets_the_empty_domain() {
        let h = Histogram::from_column(&Column::Float(vec![f64::NAN; 3]), 4);
        assert_eq!(h.domain(), (0.0, 0.0));
        assert_eq!((h.buckets()[0].count, h.buckets()[0].distinct), (3.0, 1.0));
    }

    #[test]
    fn empty_column() {
        let col = Column::Int(vec![]);
        let h = Histogram::from_column(&col, 4);
        assert_eq!(h.total(), 0.0);
        assert_eq!(h.selectivity_cmp(CmpOp::Lt, 1.0), 0.0);
    }
}
