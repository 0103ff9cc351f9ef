//! Metastore-style statistics: what the paper's estimator reads off-line.
//!
//! [`TableStats`] captures exactly the statistical information §3.1 relies
//! on: row counts, per-column distinct counts (`T.d_x`), average widths (for
//! `S_proj`) and equi-width histograms (for `S_pred` and Eq. 5). A
//! [`Catalog`] collects the stats of every table in a database instance and
//! is the object that *percolates* to the prediction layer.

use crate::histogram::Histogram;
use crate::parallel::run_claiming;
use crate::schema::Schema;
use crate::table::Table;
use std::collections::HashMap;

/// Default histogram resolution; the ablation bench sweeps this.
pub const DEFAULT_BUCKETS: usize = 64;

/// Which histogram family the metastore builds. The paper uses equi-width
/// (§3.1.1); equi-depth is provided for the A2 ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HistogramKind {
    #[default]
    /// Equal-width buckets over the value domain (the paper's choice).
    EquiWidth,
    /// Buckets at value quantiles: ≈ equal tuple mass per bucket.
    EquiDepth,
}

/// Per-column statistics.
#[derive(Debug, Clone)]
pub struct ColumnStats {
    /// Column name.
    pub name: String,
    /// Exact number of distinct values (`T.d_x` in the paper).
    pub distinct: f64,
    /// Smallest observed value.
    pub min: f64,
    /// Largest observed value.
    pub max: f64,
    /// Average serialized width in bytes.
    pub width: f64,
}

/// Per-table statistics plus per-column histograms.
#[derive(Debug, Clone)]
pub struct TableStats {
    name: String,
    schema: Schema,
    rows: f64,
    columns: HashMap<String, ColumnStats>,
    histograms: HashMap<String, Histogram>,
}

impl TableStats {
    /// Gather statistics from a materialized table, building an equi-width
    /// histogram with `buckets` buckets on every numeric/dictionary column.
    pub fn gather(table: &Table, buckets: usize) -> Self {
        Self::gather_kind(table, buckets, HistogramKind::EquiWidth)
    }

    /// Gather statistics with an explicit histogram family.
    pub fn gather_kind(table: &Table, buckets: usize, kind: HistogramKind) -> Self {
        let gathered =
            (0..table.schema().len()).map(|i| column_stats(table, i, buckets, kind)).collect();
        Self::from_gathered(table, gathered)
    }

    /// Assemble a table's statistics from its columns' [`column_stats`],
    /// in schema order.
    fn from_gathered(table: &Table, gathered: Vec<(ColumnStats, Histogram)>) -> Self {
        let mut columns = HashMap::new();
        let mut histograms = HashMap::new();
        for (stats, hist) in gathered {
            histograms.insert(stats.name.clone(), hist);
            columns.insert(stats.name.clone(), stats);
        }
        Self {
            name: table.name().to_string(),
            schema: table.schema().clone(),
            rows: table.rows() as f64,
            columns,
            histograms,
        }
    }

    /// Construct stats without materialized data (used by unit tests, by
    /// TPC-DS-style templates whose tables we model abstractly, and to load
    /// a saved catalog).
    pub fn synthetic(
        name: impl Into<String>,
        schema: Schema,
        rows: f64,
        columns: Vec<ColumnStats>,
        histograms: HashMap<String, Histogram>,
    ) -> Self {
        Self {
            name: name.into(),
            schema,
            rows,
            columns: columns.into_iter().map(|c| (c.name.clone(), c)).collect(),
            histograms,
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// `|T|`: number of tuples.
    pub fn rows(&self) -> f64 {
        self.rows
    }

    /// Average tuple width in bytes.
    pub fn tuple_width(&self) -> f64 {
        self.schema.tuple_width()
    }

    /// Modeled input bytes of a full scan of this table.
    pub fn modeled_bytes(&self) -> f64 {
        crate::modeled_bytes(self.rows * self.tuple_width())
    }

    /// Per-column statistics, by name.
    pub fn column(&self, name: &str) -> Option<&ColumnStats> {
        self.columns.get(name)
    }

    /// The column's histogram, by name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Product of distinct counts over `keys` (`T.d_xy` in Eq. 2), capped at
    /// the row count since a table cannot hold more groups than tuples.
    pub fn distinct_product(&self, keys: &[impl AsRef<str>]) -> f64 {
        let product = keys
            .iter()
            .map(|k| self.column(k.as_ref()).map_or(1.0, |c| c.distinct))
            .product::<f64>();
        product.min(self.rows.max(1.0))
    }
}

/// One column's statistics and histogram: the unit of work of both
/// [`TableStats::gather_kind`] and [`gather_catalog`].
fn column_stats(
    table: &Table,
    i: usize,
    buckets: usize,
    kind: HistogramKind,
) -> (ColumnStats, Histogram) {
    let (def, col) = (&table.schema().columns()[i], table.column_at(i));
    let hist = match kind {
        HistogramKind::EquiWidth => Histogram::from_column(col, buckets),
        HistogramKind::EquiDepth => Histogram::build_equi_depth(col, buckets),
    };
    let (min, max) = hist.domain();
    let stats = ColumnStats {
        name: def.name.clone(),
        distinct: hist.distinct_total(),
        min,
        max,
        width: def.dtype.width(),
    };
    (stats, hist)
}

/// Cells (rows × columns, summed over the tables) below which
/// [`crate::gen::generate`] gathers its catalog on one worker.
/// Such a catalog gathers in at most ~13 ms on one core and two workers
/// save at most ~6 ms of that (2-core VM), too little to pay for starting
/// workers.
pub(crate) const PARALLEL_GATHER_MIN_CELLS: usize = 1 << 20;

/// Every table's statistics, the per-column histograms built on `threads`
/// workers of [`run_claiming`], heaviest columns first. Each table's
/// columns are assembled in schema order, so the catalog is the same at
/// any thread count.
///
/// # Panics
/// Panics, naming the column, if building any histogram panics.
pub(crate) fn gather_catalog(
    tables: &[Table],
    buckets: usize,
    kind: HistogramKind,
    threads: usize,
) -> Catalog {
    let mut jobs: Vec<(usize, usize)> = tables
        .iter()
        .enumerate()
        .flat_map(|(t, table)| (0..table.schema().len()).map(move |c| (t, c)))
        .collect();
    jobs.sort_by_key(|&(t, _)| std::cmp::Reverse(tables[t].rows()));
    let built: Vec<(ColumnStats, Histogram)> = run_claiming(jobs.len(), threads, |j| {
        column_stats(&tables[jobs[j].0], jobs[j].1, buckets, kind)
    })
    .into_iter()
    .zip(&jobs)
    .map(|(r, &(t, c))| {
        r.unwrap_or_else(|msg| {
            let column = &tables[t].schema().columns()[c].name;
            panic!("gathering {}.{column} panicked: {msg}", tables[t].name())
        })
    })
    .collect();
    // Back to table and schema order, then one table's columns at a time.
    let mut built: Vec<_> = jobs.into_iter().zip(built).collect();
    built.sort_by_key(|&(job, _)| job);
    let mut built = built.into_iter().map(|(_, gathered)| gathered);
    let mut catalog = Catalog::new();
    for table in tables {
        let gathered = built.by_ref().take(table.schema().len()).collect();
        catalog.insert(TableStats::from_gathered(table, gathered));
    }
    catalog
}

/// All table statistics of one database instance.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: HashMap<String, TableStats>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add (or replace) one table's statistics.
    pub fn insert(&mut self, stats: TableStats) {
        self.tables.insert(stats.name().to_string(), stats);
    }

    /// Look up a table's statistics.
    pub fn get(&self, table: &str) -> Option<&TableStats> {
        self.tables.get(table)
    }

    /// Iterate over all tables' statistics.
    pub fn tables(&self) -> impl Iterator<Item = &TableStats> {
        self.tables.values()
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, DataType};
    use crate::table::Column;

    fn table() -> Table {
        let schema = Schema::new(vec![
            ColumnDef::new("k", DataType::Int),
            ColumnDef::new("w", DataType::Str { avg_width: 16 }),
        ]);
        Table::new(
            "t",
            schema,
            vec![Column::Int(vec![1, 2, 2, 3, 3, 3]), Column::Int(vec![0, 0, 1, 1, 2, 2])],
        )
    }

    #[test]
    fn gather_counts_distincts() {
        let s = TableStats::gather(&table(), 8);
        assert_eq!(s.rows(), 6.0);
        assert_eq!(s.column("k").unwrap().distinct, 3.0);
        assert_eq!(s.column("w").unwrap().distinct, 3.0);
        assert_eq!(s.column("k").unwrap().min, 1.0);
        assert_eq!(s.column("k").unwrap().max, 3.0);
    }

    #[test]
    fn widths_come_from_schema() {
        let s = TableStats::gather(&table(), 8);
        assert_eq!(s.column("w").unwrap().width, 16.0);
        assert_eq!(s.tuple_width(), 24.0);
        assert_eq!(s.modeled_bytes(), crate::modeled_bytes(6.0 * 24.0));
    }

    #[test]
    fn distinct_product_capped_by_rows() {
        let s = TableStats::gather(&table(), 8);
        // 3 * 3 = 9 > 6 rows, so capped.
        assert_eq!(s.distinct_product(&["k", "w"]), 6.0);
        assert_eq!(s.distinct_product(&["k"]), 3.0);
    }

    #[test]
    fn catalog_roundtrip() {
        let mut c = Catalog::new();
        c.insert(TableStats::gather(&table(), 8));
        assert_eq!(c.len(), 1);
        assert!(c.get("t").is_some());
        assert!(c.get("nope").is_none());
    }
}
