//! Columnar in-memory tables.
//!
//! String-typed columns are dictionary-encoded: the stored data is the `Int`
//! code while the declared [`DataType::Str`] width is what byte-size
//! estimation uses. Per-column dictionaries map literal strings (as they
//! appear in query text) to codes.

use crate::schema::{DataType, Schema};
use std::collections::HashMap;

/// Physical column storage. `Str` columns are stored as `Int` codes.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// 32-bit integers (also backs dictionary-encoded strings). Every
    /// generated value (row numbers, dates, codes) fits, and each converts
    /// to `f64` exactly.
    Int(Vec<i32>),
    /// 64-bit floats.
    Float(Vec<f64>),
}

impl Column {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Int(v) => v.len(),
            Column::Float(v) => v.len(),
        }
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Read row `i` as an f64 regardless of physical type (used by generic
    /// predicate evaluation; exact for every `i32`).
    #[inline]
    pub fn get_f64(&self, i: usize) -> f64 {
        match self {
            Column::Int(v) => f64::from(v[i]),
            Column::Float(v) => v[i],
        }
    }

    /// The backing `i32` slice, if integer-typed.
    pub fn as_int(&self) -> Option<&[i32]> {
        match self {
            Column::Int(v) => Some(v),
            Column::Float(_) => None,
        }
    }
}

/// `(min, max - min)` of Int values when `max - min < limit`; `None` for
/// any other values, the empty slice included.
///
/// Every `i32` converts to `f64` exactly, so two values are equal exactly
/// when their `f64` bit patterns are, and offsets from `min` can stand in
/// for bit patterns as distinct-count, group or join keys.
pub(crate) fn dense_int_span(values: &[i32], limit: u64) -> Option<(i32, u64)> {
    int_range(values).map(int_span).filter(|&(_, span)| span < limit)
}

/// `(min, max - min)` of an Int `(min, max)` range: at most `u32::MAX`.
pub(crate) fn int_span((lo, hi): (i32, i32)) -> (i32, u64) {
    (lo, u64::from(hi.abs_diff(lo)))
}

/// `x - lo` for Int values `x ≥ lo`: at most `u32::MAX`, which the
/// wrapping `i32` difference read as a `u32` gives exactly.
#[inline]
pub(crate) fn offset(x: i32, lo: i32) -> usize {
    x.wrapping_sub(lo) as u32 as usize
}

/// `(min, max)` of Int values, or `None` when there are none.
pub(crate) fn int_range(values: &[i32]) -> Option<(i32, i32)> {
    let first = *values.first()?;
    Some(values.iter().fold((first, first), |(lo, hi), &x| (lo.min(x), hi.max(x))))
}

/// A named table: a schema plus one physical [`Column`] per schema column and
/// optional per-column string dictionaries.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    columns: Vec<Column>,
    /// String literal -> dictionary code, per string-typed column name.
    dicts: HashMap<String, HashMap<String, i64>>,
    rows: usize,
}

impl Table {
    /// Build a table. Every column must have the same length and a physical
    /// representation consistent with its declared type (`Str` ⇒ `Int` codes).
    pub fn new(name: impl Into<String>, schema: Schema, columns: Vec<Column>) -> Self {
        assert_eq!(schema.len(), columns.len(), "schema/column arity mismatch");
        let rows = columns.first().map_or(0, Column::len);
        for (def, col) in schema.columns().iter().zip(&columns) {
            assert_eq!(col.len(), rows, "ragged column {}", def.name);
            let ok = matches!(
                (def.dtype, col),
                (DataType::Int, Column::Int(_))
                    | (DataType::Float, Column::Float(_))
                    | (DataType::Str { .. }, Column::Int(_))
            );
            assert!(ok, "column {} physical type mismatch", def.name);
        }
        Self { name: name.into(), schema, columns, dicts: HashMap::new(), rows }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column data by name.
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.schema.index_of(name).map(|i| &self.columns[i])
    }

    /// Column data by schema position.
    pub fn column_at(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    /// Register the string dictionary for a `Str` column.
    pub fn set_dict(&mut self, column: &str, dict: HashMap<String, i64>) {
        assert!(self.schema.index_of(column).is_some(), "unknown column {column}");
        self.dicts.insert(column.to_string(), dict);
    }

    /// Resolve a string literal to its dictionary code for `column`.
    /// Unknown literals resolve to a code that matches no row (`i64::MIN`),
    /// mirroring a predicate that selects nothing.
    pub fn dict_code(&self, column: &str, literal: &str) -> i64 {
        self.dicts.get(column).and_then(|d| d.get(literal)).copied().unwrap_or(i64::MIN)
    }

    /// Physical bytes of the materialized rows (average widths × rows).
    pub fn physical_bytes(&self) -> f64 {
        self.rows as f64 * self.schema.tuple_width()
    }

    /// Modeled (paper-scale) bytes, see [`crate::modeled_bytes`].
    pub fn modeled_bytes(&self) -> f64 {
        crate::modeled_bytes(self.physical_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;

    fn t() -> Table {
        let schema = Schema::new(vec![
            ColumnDef::new("k", DataType::Int),
            ColumnDef::new("v", DataType::Float),
            ColumnDef::new("name", DataType::Str { avg_width: 10 }),
        ]);
        let mut table = Table::new(
            "t",
            schema,
            vec![
                Column::Int(vec![1, 2, 3]),
                Column::Float(vec![0.5, 1.5, 2.5]),
                Column::Int(vec![0, 1, 0]),
            ],
        );
        let mut d = HashMap::new();
        d.insert("alpha".to_string(), 0);
        d.insert("beta".to_string(), 1);
        table.set_dict("name", d);
        table
    }

    #[test]
    fn basic_accessors() {
        let t = t();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.column("k").unwrap().as_int().unwrap(), &[1, 2, 3]);
        assert_eq!(t.column("v").unwrap().get_f64(1), 1.5);
        assert!(t.column("missing").is_none());
    }

    #[test]
    fn dict_lookup() {
        let t = t();
        assert_eq!(t.dict_code("name", "beta"), 1);
        assert_eq!(t.dict_code("name", "unknown"), i64::MIN);
    }

    #[test]
    fn byte_accounting() {
        let t = t();
        assert_eq!(t.physical_bytes(), 3.0 * 26.0);
        assert_eq!(t.modeled_bytes(), 3.0 * 26.0 * crate::SCALE_DOWN);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_columns_rejected() {
        let schema = Schema::new(vec![
            ColumnDef::new("a", DataType::Int),
            ColumnDef::new("b", DataType::Int),
        ]);
        Table::new("bad", schema, vec![Column::Int(vec![1]), Column::Int(vec![])]);
    }

    #[test]
    #[should_panic(expected = "physical type mismatch")]
    fn type_mismatch_rejected() {
        let schema = Schema::new(vec![ColumnDef::new("a", DataType::Int)]);
        Table::new("bad", schema, vec![Column::Float(vec![1.0])]);
    }
}
