//! Table schemas: column names, types and byte widths.
//!
//! Widths drive every byte-size estimate in the paper (projection selectivity
//! `S_proj` is a ratio of attribute widths to tuple width, §3.1.1), so each
//! column carries an explicit average on-disk width.

use std::fmt;

/// Logical column type. Strings carry their *average* serialized width since
/// the estimator only ever needs widths, never values, for string columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit integer (keys, quantities, dates encoded as days).
    Int,
    /// 64-bit float (prices, discounts).
    Float,
    /// Variable-width string with a declared average width in bytes.
    Str {
        /// Average serialized width in bytes.
        avg_width: u32,
    },
}

impl DataType {
    /// Average serialized width in bytes of one value of this type.
    pub fn width(&self) -> f64 {
        match self {
            DataType::Int => 8.0,
            DataType::Float => 8.0,
            DataType::Str { avg_width } => *avg_width as f64,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Int => write!(f, "int"),
            DataType::Float => write!(f, "float"),
            DataType::Str { avg_width } => write!(f, "string({avg_width})"),
        }
    }
}

/// One column of a schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    /// Column name.
    pub name: String,
    /// Column type (with width).
    pub dtype: DataType,
}

impl ColumnDef {
    /// A named, typed column.
    pub fn new(name: impl Into<String>, dtype: DataType) -> Self {
        Self { name: name.into(), dtype }
    }
}

/// An ordered set of named, typed columns.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    columns: Vec<ColumnDef>,
}

impl Schema {
    /// Build a schema.
    ///
    /// # Panics
    /// Panics on duplicate column names.
    pub fn new(columns: Vec<ColumnDef>) -> Self {
        let mut seen = std::collections::HashSet::new();
        for c in &columns {
            assert!(seen.insert(c.name.clone()), "duplicate column name {}", c.name);
        }
        Self { columns }
    }

    /// The columns in declaration order.
    pub fn columns(&self) -> &[ColumnDef] {
        &self.columns
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// Whether the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Index of the column with the given name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Look up a column by name.
    pub fn column(&self, name: &str) -> Option<&ColumnDef> {
        self.columns.iter().find(|c| c.name == name)
    }

    /// Average full-tuple width in bytes: the denominator of `S_proj`.
    pub fn tuple_width(&self) -> f64 {
        self.columns.iter().map(|c| c.dtype.width()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(vec![
            ColumnDef::new("k", DataType::Int),
            ColumnDef::new("v", DataType::Float),
            ColumnDef::new("s", DataType::Str { avg_width: 24 }),
        ])
    }

    #[test]
    fn tuple_width_sums_column_widths() {
        assert_eq!(schema().tuple_width(), 8.0 + 8.0 + 24.0);
    }

    #[test]
    fn index_lookup() {
        let s = schema();
        assert_eq!(s.index_of("v"), Some(1));
        assert_eq!(s.index_of("nope"), None);
    }

    #[test]
    #[should_panic(expected = "duplicate column")]
    fn duplicate_names_rejected() {
        Schema::new(vec![ColumnDef::new("k", DataType::Int), ColumnDef::new("k", DataType::Int)]);
    }
}
