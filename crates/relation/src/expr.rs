//! Predicate expressions shared by the executor (exact evaluation) and the
//! selectivity estimator (histogram evaluation).
//!
//! A predicate here is what the paper's §3.1.1 calls a *predicate clause*:
//! comparisons of a column against constants, combined with AND/OR. String
//! literals are lowered to dictionary codes before reaching this layer.

use crate::table::{Column, Table};

/// Comparison operator of a simple predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    #[inline]
    /// Apply the comparison to two values.
    pub fn eval(self, lhs: f64, rhs: f64) -> bool {
        match self {
            CmpOp::Eq => lhs == rhs,
            CmpOp::Ne => lhs != rhs,
            CmpOp::Lt => lhs < rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Gt => lhs > rhs,
            CmpOp::Ge => lhs >= rhs,
        }
    }
}

impl std::fmt::Display for CmpOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// A predicate over a single table's columns.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Always true (no WHERE clause).
    True,
    /// `column op constant`.
    Cmp {
        /// Compared column.
        column: String,
        /// Comparison operator.
        op: CmpOp,
        /// Right-hand constant (string literals already lowered to codes).
        value: f64,
    },
    /// `column BETWEEN lo AND hi` (inclusive).
    Between {
        /// Tested column.
        column: String,
        /// Lower bound (inclusive).
        lo: f64,
        /// Upper bound (inclusive).
        hi: f64,
    },
    /// Conjunction of two predicates.
    And(Box<Predicate>, Box<Predicate>),
    /// Disjunction of two predicates.
    Or(Box<Predicate>, Box<Predicate>),
}

impl Predicate {
    /// `column op value`.
    pub fn cmp(column: impl Into<String>, op: CmpOp, value: f64) -> Self {
        Predicate::Cmp { column: column.into(), op, value }
    }

    /// `column BETWEEN lo AND hi`.
    pub fn between(column: impl Into<String>, lo: f64, hi: f64) -> Self {
        Predicate::Between { column: column.into(), lo, hi }
    }

    /// Conjoin with `other`, collapsing `True` operands.
    pub fn and(self, other: Predicate) -> Self {
        match (self, other) {
            (Predicate::True, p) | (p, Predicate::True) => p,
            (a, b) => Predicate::And(Box::new(a), Box::new(b)),
        }
    }

    /// Disjoin with `other`.
    pub fn or(self, other: Predicate) -> Self {
        Predicate::Or(Box::new(self), Box::new(other))
    }

    /// Resolve every column name against `table` once, so evaluation looks
    /// up no names.
    ///
    /// # Panics
    /// Panics if the predicate names a column `table` lacks, even when the
    /// table has no rows.
    pub fn bind<'a>(&self, table: &'a Table) -> BoundPredicate<'a> {
        self.bind_with(table.rows(), &|name| {
            table
                .column(name)
                .unwrap_or_else(|| panic!("unknown column {name} in {}", table.name()))
        })
    }

    /// [`Predicate::bind`] against any `rows`-row set of columns: `column`
    /// resolves a name (and panics on an unknown one).
    ///
    /// # Panics
    /// Panics if a resolved column does not have `rows` rows.
    pub(crate) fn bind_with<'a>(
        &self,
        rows: usize,
        column: &dyn Fn(&str) -> &'a Column,
    ) -> BoundPredicate<'a> {
        BoundPredicate { node: self.bind_node(rows, column), rows }
    }

    fn bind_node<'a>(&self, rows: usize, column: &dyn Fn(&str) -> &'a Column) -> Bound<'a> {
        let resolve = |name: &str| {
            let col = column(name);
            assert_eq!(col.len(), rows, "column {name} length mismatch");
            col
        };
        match self {
            Predicate::True => Bound::True,
            Predicate::Cmp { column: c, op, value } => {
                Bound::Cmp { column: resolve(c), op: *op, value: *value }
            }
            Predicate::Between { column: c, lo, hi } => {
                Bound::Between { column: resolve(c), lo: *lo, hi: *hi }
            }
            Predicate::And(a, b) => {
                Bound::And(Box::new(a.bind_node(rows, column)), Box::new(b.bind_node(rows, column)))
            }
            Predicate::Or(a, b) => {
                Bound::Or(Box::new(a.bind_node(rows, column)), Box::new(b.bind_node(rows, column)))
            }
        }
    }

    /// All column names referenced by this predicate.
    pub fn columns(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_columns<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Predicate::True => {}
            Predicate::Cmp { column, .. } | Predicate::Between { column, .. } => {
                out.push(column.as_str());
            }
            Predicate::And(a, b) | Predicate::Or(a, b) => {
                a.collect_columns(out);
                b.collect_columns(out);
            }
        }
    }
}

impl std::fmt::Display for Predicate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Predicate::True => write!(f, "true"),
            Predicate::Cmp { column, op, value } => write!(f, "{column} {op} {value}"),
            Predicate::Between { column, lo, hi } => {
                write!(f, "{column} between {lo} and {hi}")
            }
            Predicate::And(a, b) => write!(f, "({a} and {b})"),
            Predicate::Or(a, b) => write!(f, "({a} or {b})"),
        }
    }
}

/// A [`Predicate`] with its columns resolved, made by [`Predicate::bind`].
#[derive(Debug, Clone)]
pub struct BoundPredicate<'a> {
    node: Bound<'a>,
    rows: usize,
}

#[derive(Debug, Clone)]
enum Bound<'a> {
    True,
    Cmp { column: &'a Column, op: CmpOp, value: f64 },
    Between { column: &'a Column, lo: f64, hi: f64 },
    And(Box<Bound<'a>>, Box<Bound<'a>>),
    Or(Box<Bound<'a>>, Box<Bound<'a>>),
}

impl BoundPredicate<'_> {
    /// Whether row `i` satisfies the predicate.
    pub fn eval(&self, i: usize) -> bool {
        self.node.eval(i)
    }

    /// Indices of the rows that satisfy the predicate, ascending. Each
    /// comparison runs over its whole column at once.
    pub fn selected(&self) -> Vec<usize> {
        self.selected_unless_all().unwrap_or_else(|| (0..self.rows).collect())
    }

    /// [`BoundPredicate::selected`], or `None` when every row satisfies the
    /// predicate, so a scan can copy whole columns instead of gathering.
    pub(crate) fn selected_unless_all(&self) -> Option<Vec<usize>> {
        if matches!(self.node, Bound::True) {
            return None;
        }
        let mask = self.node.mask(self.rows);
        let kept = mask.iter().filter(|&&keep| keep).count();
        if kept == self.rows {
            return None;
        }
        // Write every index and advance past the kept ones: no branch. The
        // slot after the last kept index takes the rejected rows' writes.
        let mut out = vec![0; kept + 1];
        let mut n = 0;
        for (i, &keep) in mask.iter().enumerate() {
            out[n] = i;
            n += usize::from(keep);
        }
        out.truncate(kept);
        Some(out)
    }
}

impl Bound<'_> {
    fn eval(&self, i: usize) -> bool {
        match self {
            Bound::True => true,
            Bound::Cmp { column, op, value } => op.eval(column.get_f64(i), *value),
            Bound::Between { column, lo, hi } => {
                let v = column.get_f64(i);
                *lo <= v && v <= *hi
            }
            Bound::And(a, b) => a.eval(i) && b.eval(i),
            Bound::Or(a, b) => a.eval(i) || b.eval(i),
        }
    }

    /// Every row's outcome; element `i` is [`Bound::eval`] of row `i`.
    fn mask(&self, rows: usize) -> Vec<bool> {
        match self {
            Bound::True => vec![true; rows],
            Bound::Cmp { column, op, value } => {
                let c = *value;
                match op {
                    CmpOp::Eq => test_each(column, |v| v == c),
                    CmpOp::Ne => test_each(column, |v| v != c),
                    CmpOp::Lt => test_each(column, |v| v < c),
                    CmpOp::Le => test_each(column, |v| v <= c),
                    CmpOp::Gt => test_each(column, |v| v > c),
                    CmpOp::Ge => test_each(column, |v| v >= c),
                }
            }
            Bound::Between { column, lo, hi } => {
                let (lo, hi) = (*lo, *hi);
                test_each(column, |v| lo <= v && v <= hi)
            }
            Bound::And(a, b) => {
                let mut out = a.mask(rows);
                out.iter_mut().zip(b.mask(rows)).for_each(|(o, r)| *o &= r);
                out
            }
            Bound::Or(a, b) => {
                let mut out = a.mask(rows);
                out.iter_mut().zip(b.mask(rows)).for_each(|(o, r)| *o |= r);
                out
            }
        }
    }
}

/// `test` of every value of `column` as an f64, one tight loop per
/// physical type.
#[inline]
fn test_each(column: &Column, test: impl Fn(f64) -> bool) -> Vec<bool> {
    match column {
        Column::Int(v) => v.iter().map(|&x| test(f64::from(x))).collect(),
        Column::Float(v) => v.iter().map(|&x| test(x)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, DataType, Schema};

    fn t() -> Table {
        let schema = Schema::new(vec![
            ColumnDef::new("a", DataType::Int),
            ColumnDef::new("b", DataType::Float),
        ]);
        Table::new(
            "t",
            schema,
            vec![Column::Int(vec![1, 5, 9]), Column::Float(vec![0.1, 0.5, 0.9])],
        )
    }

    /// Row-by-row outcomes of `p` on `t`, checked against `selected`.
    fn outcomes(p: &Predicate, t: &Table) -> Vec<bool> {
        let bound = p.bind(t);
        let rows: Vec<bool> = (0..t.rows()).map(|i| bound.eval(i)).collect();
        let picked: Vec<usize> = (0..t.rows()).filter(|&i| rows[i]).collect();
        assert_eq!(bound.selected(), picked);
        rows
    }

    #[test]
    fn cmp_eval() {
        let p = Predicate::cmp("a", CmpOp::Ge, 5.0);
        assert_eq!(outcomes(&p, &t()), [false, true, true]);
    }

    #[test]
    fn between_is_inclusive() {
        let p = Predicate::between("b", 0.1, 0.5);
        assert_eq!(outcomes(&p, &t()), [true, true, false]);
    }

    #[test]
    fn and_or_combinators() {
        let t = t();
        let p = Predicate::cmp("a", CmpOp::Gt, 2.0).and(Predicate::cmp("b", CmpOp::Lt, 0.9));
        assert_eq!(outcomes(&p, &t), [false, true, false]);
        let q = Predicate::cmp("a", CmpOp::Eq, 1.0).or(Predicate::cmp("a", CmpOp::Eq, 9.0));
        assert_eq!(outcomes(&q, &t), [true, false, true]);
        assert_eq!(outcomes(&Predicate::True, &t), [true, true, true]);
    }

    #[test]
    #[should_panic(expected = "unknown column zz in e")]
    fn binding_an_unknown_column_panics_even_on_an_empty_table() {
        let schema = Schema::new(vec![ColumnDef::new("a", DataType::Int)]);
        let empty = Table::new("e", schema, vec![Column::Int(vec![])]);
        Predicate::cmp("a", CmpOp::Eq, 1.0).and(Predicate::cmp("zz", CmpOp::Eq, 1.0)).bind(&empty);
    }

    #[test]
    fn and_with_true_collapses() {
        let p = Predicate::True.and(Predicate::cmp("a", CmpOp::Eq, 1.0));
        assert_eq!(p, Predicate::cmp("a", CmpOp::Eq, 1.0));
    }

    #[test]
    fn columns_are_deduped() {
        let p = Predicate::cmp("a", CmpOp::Gt, 1.0)
            .and(Predicate::cmp("b", CmpOp::Lt, 2.0).or(Predicate::cmp("a", CmpOp::Eq, 3.0)));
        assert_eq!(p.columns(), vec!["a", "b"]);
    }
}
