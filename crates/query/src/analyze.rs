//! Semantic analysis: resolve names against the catalog, lower literals,
//! push predicates to their scans, and compute per-scan projections.
//!
//! The output, [`AnalyzedQuery`], is the *query semantics* object that the
//! paper's cross-layer percolation carries downward: which tables are read,
//! what predicates filter them, which columns survive (projection), how the
//! tables join, and what the aggregation/sort shape is.

use crate::ast::{AggFunc, AstPred, ColRef, Literal, OnCond, Query, SelectItem};
use crate::error::QueryError;
use sapred_relation::expr::Predicate;
use sapred_relation::gen::{encode_date, Database};
use sapred_relation::stats::Catalog;

/// Resolves string literals to the numeric codes used in column data.
pub trait LiteralResolver {
    /// Map `literal` as it appears in a predicate on `table.column` to the
    /// numeric value stored in that column.
    fn resolve_str(&self, table: &str, column: &str, literal: &str) -> f64;
}

impl LiteralResolver for Database {
    fn resolve_str(&self, table: &str, column: &str, literal: &str) -> f64 {
        match self.table(table) {
            Some(t) => t.dict_code(column, literal) as f64,
            None => i64::MIN as f64,
        }
    }
}

/// Stateless fallback resolver: stable FNV-1a hash of the literal. Useful
/// when analyzing against a catalog without materialized dictionaries
/// (synthetic TPC-DS-style tables); equality predicates then estimate like
/// any other point predicate.
#[derive(Debug, Default, Clone, Copy)]
pub struct HashResolver;

impl LiteralResolver for HashResolver {
    fn resolve_str(&self, _table: &str, _column: &str, literal: &str) -> f64 {
        (sapred_relation::fnv1a(literal.as_bytes()) % 1_000_000) as f64
    }
}

/// One base-table scan with its pushed-down predicate and projection.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanSpec {
    /// Table name in the catalog.
    pub table: String,
    /// The alias (or table name) this scan is addressed by in the query.
    pub binding: String,
    /// Conjunction of all single-table predicates pushed to this scan.
    pub predicate: Predicate,
    /// Columns of this table needed downstream (join keys, group keys,
    /// aggregate inputs, selected columns). Predicate-only columns are
    /// filtered at scan time and do not flow onward.
    pub projection: Vec<String>,
}

/// One equi-join edge of the left-deep join chain. Join `i` always brings in
/// scan `i + 1` as its right side; `left_scan` may be any earlier scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinSpec {
    /// Scan index providing the left key (any earlier scan).
    pub left_scan: usize,
    /// Scan index of the newly joined table (always `i + 1` for join `i`).
    pub right_scan: usize,
    /// Join key column on the left side.
    pub left_col: String,
    /// Join key column on the right side.
    pub right_col: String,
}

/// One aggregate of the SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    /// The aggregate function.
    pub func: AggFunc,
    /// Columns referenced by the aggregate argument (empty for `count(*)`).
    pub cols: Vec<String>,
}

/// The fully analyzed query: the semantics payload that percolates to the
/// planner, estimator and (ultimately) the scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzedQuery {
    /// `SELECT DISTINCT` with no aggregates: deduplicate selected rows.
    pub distinct: bool,
    /// One scan per referenced base table, in FROM order.
    pub scans: Vec<ScanSpec>,
    /// Equi-join edges in join order (left-deep).
    pub joins: Vec<JoinSpec>,
    /// GROUP BY key columns.
    pub group_by: Vec<String>,
    /// Aggregates of the SELECT list.
    pub aggs: Vec<AggSpec>,
    /// Plain (non-aggregate) selected columns.
    pub select_cols: Vec<String>,
    /// (column, descending).
    pub order_by: Vec<(String, bool)>,
    /// LIMIT row count, if any.
    pub limit: Option<u64>,
}

impl AnalyzedQuery {
    /// All base tables read by the query.
    pub fn tables(&self) -> Vec<&str> {
        self.scans.iter().map(|s| s.table.as_str()).collect()
    }
}

/// Analyze a parsed query against a catalog.
pub fn analyze(
    q: &Query,
    catalog: &Catalog,
    literals: &dyn LiteralResolver,
) -> Result<AnalyzedQuery, QueryError> {
    let mut a = Analyzer { catalog, literals, scans: Vec::new() };
    a.add_scan(&q.from.table, q.from.binding())?;
    for j in &q.joins {
        a.add_scan(&j.table.table, j.table.binding())?;
    }

    // Join conditions and residual ON predicates.
    let mut joins = Vec::new();
    for (i, j) in q.joins.iter().enumerate() {
        let right_scan = i + 1;
        let mut equi = None;
        for cond in &j.conds {
            match cond {
                OnCond::Equi { left, right } => {
                    if equi.is_some() {
                        return Err(QueryError::semantic(
                            "multiple equi-conditions in one ON clause are not supported; \
                             use the first key and move the rest to WHERE"
                                .to_string(),
                        ));
                    }
                    let (ls, lc) = a.resolve(left)?;
                    let (rs, rc) = a.resolve(right)?;
                    let (left_scan, left_col, rcol) = if rs == right_scan {
                        (ls, lc, rc)
                    } else if ls == right_scan {
                        (rs, rc, lc)
                    } else {
                        return Err(QueryError::semantic(format!(
                            "ON condition of join {i} does not reference the joined table"
                        )));
                    };
                    if left_scan >= right_scan {
                        return Err(QueryError::semantic(format!(
                            "join {i} references a table that has not been joined yet"
                        )));
                    }
                    equi = Some(JoinSpec { left_scan, right_scan, left_col, right_col: rcol });
                }
                OnCond::Residual(p) => a.push_predicate(p)?,
            }
        }
        joins.push(
            equi.ok_or_else(|| {
                QueryError::semantic(format!("join {i} has no equi-join condition"))
            })?,
        );
    }

    if let Some(p) = &q.where_pred {
        for conj in p.conjuncts() {
            a.push_predicate(conj)?;
        }
    }

    // Select list.
    let mut aggs = Vec::new();
    let mut select_cols = Vec::new();
    let mut needed: Vec<(usize, String)> = Vec::new();
    for item in &q.select {
        match item {
            SelectItem::Expr { expr, .. } => {
                for c in expr.columns() {
                    let (s, col) = a.resolve(c)?;
                    select_cols.push(col.clone());
                    needed.push((s, col));
                }
            }
            SelectItem::Agg { func, arg, .. } => {
                let mut cols = Vec::new();
                if let Some(e) = arg {
                    for c in e.columns() {
                        let (s, col) = a.resolve(c)?;
                        cols.push(col.clone());
                        needed.push((s, col));
                    }
                }
                aggs.push(AggSpec { func: *func, cols });
            }
        }
    }

    let mut group_by = Vec::new();
    for c in &q.group_by {
        let (s, col) = a.resolve(c)?;
        group_by.push(col.clone());
        needed.push((s, col));
    }
    let mut order_by = Vec::new();
    for (c, desc) in &q.order_by {
        let (s, col) = a.resolve(c)?;
        order_by.push((col.clone(), *desc));
        needed.push((s, col));
    }
    // Join keys are needed on both sides.
    for j in &joins {
        needed.push((j.left_scan, j.left_col.clone()));
        needed.push((j.right_scan, j.right_col.clone()));
    }

    assign_projections(&mut a.scans, catalog, needed);

    if select_cols.is_empty() && aggs.is_empty() {
        return Err(QueryError::semantic("empty select list".to_string()));
    }

    Ok(AnalyzedQuery {
        distinct: q.distinct,
        scans: a.scans,
        joins,
        group_by,
        aggs,
        select_cols,
        order_by,
        limit: q.limit,
    })
}

/// Record every `(scan, column)` pair in that scan's projection, then give
/// projection-less scans one representative column so widths stay non-zero.
pub(crate) fn assign_projections(
    scans: &mut [ScanSpec],
    catalog: &Catalog,
    needed: Vec<(usize, String)>,
) {
    for (scan, col) in needed {
        let proj = &mut scans[scan].projection;
        if !proj.contains(&col) {
            proj.push(col);
        }
    }
    // A scan that contributes nothing downstream still ships its key-widest
    // representation; keep at least one column so widths are non-zero.
    for s in scans {
        if s.projection.is_empty() {
            if let Some(first) = catalog
                .get(&s.table)
                .and_then(|t| t.schema().columns().first().map(|c| c.name.clone()))
            {
                s.projection.push(first);
            }
        }
    }
}

struct Analyzer<'a> {
    catalog: &'a Catalog,
    literals: &'a dyn LiteralResolver,
    scans: Vec<ScanSpec>,
}

impl<'a> Analyzer<'a> {
    fn add_scan(&mut self, table: &str, binding: &str) -> Result<(), QueryError> {
        if self.catalog.get(table).is_none() {
            return Err(QueryError::semantic(format!("unknown table `{table}`")));
        }
        if self.scans.iter().any(|s| s.binding == binding) {
            return Err(QueryError::semantic(format!("duplicate table binding `{binding}`")));
        }
        self.scans.push(ScanSpec {
            table: table.to_string(),
            binding: binding.to_string(),
            predicate: Predicate::True,
            projection: Vec::new(),
        });
        Ok(())
    }

    /// Resolve a column reference to (scan index, column name).
    fn resolve(&self, c: &ColRef) -> Result<(usize, String), QueryError> {
        if let Some(q) = &c.qualifier {
            let idx = self
                .scans
                .iter()
                .position(|s| s.binding == *q)
                .ok_or_else(|| QueryError::semantic(format!("unknown table binding `{q}`")))?;
            let table = self.catalog.get(&self.scans[idx].table).expect("checked in add_scan");
            if table.schema().index_of(&c.name).is_none() {
                return Err(QueryError::semantic(format!(
                    "no column `{}` in table `{}`",
                    c.name, self.scans[idx].table
                )));
            }
            return Ok((idx, c.name.clone()));
        }
        let mut found = None;
        for (i, s) in self.scans.iter().enumerate() {
            let table = self.catalog.get(&s.table).expect("checked in add_scan");
            if table.schema().index_of(&c.name).is_some() {
                if found.is_some() {
                    return Err(QueryError::semantic(format!("ambiguous column `{}`", c.name)));
                }
                found = Some(i);
            }
        }
        match found {
            Some(i) => Ok((i, c.name.clone())),
            None => Err(QueryError::semantic(format!("unknown column `{}`", c.name))),
        }
    }

    /// Lower one top-level conjunct and attach it to its (single) scan.
    fn push_predicate(&mut self, p: &AstPred) -> Result<(), QueryError> {
        let mut scan = None;
        for c in p.columns() {
            let (s, _) = self.resolve(c)?;
            match scan {
                None => scan = Some(s),
                Some(prev) if prev == s => {}
                Some(_) => {
                    return Err(QueryError::semantic(format!(
                        "predicate `{p:?}` spans multiple tables; only single-table \
                         predicates and equi-join conditions are supported"
                    )))
                }
            }
        }
        let scan = scan.ok_or_else(|| QueryError::semantic("predicate with no columns"))?;
        let lowered = self.lower_pred(p, scan)?;
        let current = std::mem::replace(&mut self.scans[scan].predicate, Predicate::True);
        self.scans[scan].predicate = current.and(lowered);
        Ok(())
    }

    fn lower_pred(&self, p: &AstPred, scan: usize) -> Result<Predicate, QueryError> {
        Ok(match p {
            AstPred::Cmp { col, op, lit } => Predicate::Cmp {
                column: col.name.clone(),
                op: *op,
                value: self.lower_literal(lit, scan, &col.name),
            },
            AstPred::Between { col, lo, hi } => Predicate::Between {
                column: col.name.clone(),
                lo: self.lower_literal(lo, scan, &col.name),
                hi: self.lower_literal(hi, scan, &col.name),
            },
            AstPred::InList { col, items } => {
                // `x IN (…)` lowers to a disjunction of equalities.
                items
                    .iter()
                    .map(|lit| Predicate::Cmp {
                        column: col.name.clone(),
                        op: sapred_relation::expr::CmpOp::Eq,
                        value: self.lower_literal(lit, scan, &col.name),
                    })
                    .reduce(|a, b| a.or(b))
                    .expect("parser rejects empty IN lists")
            }
            AstPred::And(a, b) => Predicate::And(
                Box::new(self.lower_pred(a, scan)?),
                Box::new(self.lower_pred(b, scan)?),
            ),
            AstPred::Or(a, b) => Predicate::Or(
                Box::new(self.lower_pred(a, scan)?),
                Box::new(self.lower_pred(b, scan)?),
            ),
        })
    }

    fn lower_literal(&self, lit: &Literal, scan: usize, column: &str) -> f64 {
        match lit {
            Literal::Num(n) => *n,
            Literal::Str(s) => {
                if let Some(d) = parse_date(s) {
                    d as f64
                } else {
                    self.literals.resolve_str(&self.scans[scan].table, column, s)
                }
            }
        }
    }
}

/// Recognize `YYYY-MM-DD` literals and encode them onto the day domain.
fn parse_date(s: &str) -> Option<i64> {
    let b = s.as_bytes();
    if b.len() != 10 || b[4] != b'-' || b[7] != b'-' {
        return None;
    }
    let digits = |r: std::ops::Range<usize>| -> Option<i64> {
        let part = &s[r];
        if part.bytes().all(|c| c.is_ascii_digit()) {
            part.parse().ok()
        } else {
            None
        }
    };
    let (y, m, d) = (digits(0..4)?, digits(5..7)?, digits(8..10)?);
    if !(1..=12).contains(&m) || !(1..=31).contains(&d) {
        return None;
    }
    Some(encode_date(y, m, d))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use sapred_relation::expr::CmpOp;
    use sapred_relation::gen::{generate, GenConfig};

    fn db() -> Database {
        generate(GenConfig::new(0.1).with_seed(5))
    }

    fn compile(sql: &str) -> Result<AnalyzedQuery, QueryError> {
        let db = db();
        analyze(&parse(sql).unwrap(), db.catalog(), &db)
    }

    #[test]
    fn q11_analysis() {
        let a = compile(
            "SELECT ps_partkey, sum(ps_supplycost*ps_availqty) \
             FROM nation n JOIN supplier s ON \
             s.s_nationkey=n.n_nationkey AND n.n_name<>'CHINA' \
             JOIN partsupp ps ON ps.ps_suppkey=s.s_suppkey \
             GROUP BY ps_partkey;",
        )
        .unwrap();
        assert_eq!(a.scans.len(), 3);
        assert_eq!(a.joins.len(), 2);
        // The residual predicate landed on the nation scan.
        assert_ne!(a.scans[0].predicate, Predicate::True);
        assert_eq!(a.scans[1].predicate, Predicate::True);
        // The CHINA literal resolved through the dictionary (code 18).
        match &a.scans[0].predicate {
            Predicate::Cmp { column, op, value } => {
                assert_eq!(column, "n_name");
                assert_eq!(*op, CmpOp::Ne);
                assert_eq!(*value, 18.0);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(a.group_by, vec!["ps_partkey".to_string()]);
        assert_eq!(a.aggs.len(), 1);
        // Join 2 connects partsupp (right) to supplier (scan 1).
        assert_eq!(a.joins[1].left_scan, 1);
        assert_eq!(a.joins[1].right_scan, 2);
    }

    #[test]
    fn date_literals_lowered() {
        let a = compile(
            "SELECT l_partkey FROM lineitem \
             WHERE l_shipdate >= '1994-03-01' AND l_shipdate < '1994-04-01'",
        )
        .unwrap();
        let cols = a.scans[0].predicate.columns();
        assert_eq!(cols, vec!["l_shipdate"]);
        match &a.scans[0].predicate {
            Predicate::And(l, _) => match **l {
                Predicate::Cmp { value, .. } => {
                    assert_eq!(value, encode_date(1994, 3, 1) as f64)
                }
                ref other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn projection_excludes_predicate_only_columns() {
        let a = compile(
            "SELECT l_partkey, sum(l_extendedprice) FROM lineitem \
             WHERE l_shipdate >= 100 GROUP BY l_partkey",
        )
        .unwrap();
        let p = &a.scans[0].projection;
        assert!(p.contains(&"l_partkey".to_string()));
        assert!(p.contains(&"l_extendedprice".to_string()));
        assert!(!p.contains(&"l_shipdate".to_string()));
    }

    #[test]
    fn ambiguous_column_rejected() {
        // l_partkey vs ps_partkey are distinct, but joining part twice would
        // duplicate bindings; use an actually ambiguous case: joining
        // lineitem with itself is rejected on duplicate binding first.
        let err =
            compile("SELECT l_quantity FROM lineitem JOIN lineitem ON l_orderkey = l_orderkey")
                .unwrap_err();
        assert!(matches!(err, QueryError::Semantic { .. }));
    }

    #[test]
    fn unknown_table_and_column() {
        assert!(compile("SELECT x FROM nowhere").is_err());
        assert!(compile("SELECT not_a_col FROM nation").is_err());
    }

    #[test]
    fn cross_table_predicate_rejected() {
        let err = compile(
            "SELECT s_suppkey FROM supplier JOIN nation ON s_nationkey = n_nationkey \
             WHERE s_acctbal > 0 OR n_regionkey = 1",
        )
        .unwrap_err();
        assert!(matches!(err, QueryError::Semantic { .. }));
    }

    #[test]
    fn join_without_equi_condition_rejected() {
        let err =
            compile("SELECT s_suppkey FROM supplier JOIN nation ON n_name <> 'CHINA'").unwrap_err();
        assert!(matches!(err, QueryError::Semantic { .. }));
    }

    #[test]
    fn unqualified_unique_columns_resolve_across_tables() {
        let a =
            compile("SELECT s_name, n_name FROM supplier JOIN nation ON s_nationkey = n_nationkey")
                .unwrap();
        assert_eq!(a.joins[0].left_scan, 0);
        assert_eq!(a.joins[0].left_col, "s_nationkey");
        assert!(a.scans[1].projection.contains(&"n_name".to_string()));
    }

    #[test]
    fn hash_resolver_is_stable_and_spread() {
        let r = HashResolver;
        let a = r.resolve_str("t", "c", "ALPHA");
        let b = r.resolve_str("t", "c", "ALPHA");
        let c = r.resolve_str("t", "c", "BETA");
        assert_eq!(a, b, "same literal, same code");
        assert_ne!(a, c, "different literals, different codes");
        assert!((0.0..1_000_000.0).contains(&a));
    }

    #[test]
    fn date_parser_edge_cases() {
        assert_eq!(parse_date("1994-01-01"), Some(encode_date(1994, 1, 1)));
        assert_eq!(parse_date("not-a-date"), None);
        assert_eq!(parse_date("1994-13-01"), None);
        assert_eq!(parse_date("1994-1-1"), None);
    }
}
