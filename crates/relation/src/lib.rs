#![warn(missing_docs)]
//! Relational substrate for the semantics-aware prediction framework.
//!
//! This crate stands in for the HDFS + Hive-metastore layer of the paper's
//! testbed. It provides:
//!
//! * columnar in-memory tables with typed columns ([`Table`], [`Column`]),
//! * table/column statistics ([`TableStats`], [`ColumnStats`]) of the kind a
//!   Hive metastore keeps (row counts, distinct counts, average widths),
//! * equi-width histograms ([`Histogram`]) as used by the paper for
//!   piece-wise-uniform selectivity estimation (paper §3.1),
//! * a TPC-H-shaped synthetic data generator ([`gen`]) with controllable key
//!   distributions (uniform, clustered, Zipf-skewed),
//! * the workspace's one parallel runner ([`parallel`]), and
//! * *count-only* relational operator execution ([`exec`]) that computes the
//!   exact ground-truth cardinalities and byte sizes a real Hadoop job would
//!   produce, without materializing intermediate data.
//!
//! The paper's experiments range from 1 GB to 400 GB of TPC-H/TPC-DS data.
//! We reproduce them at laptop scale by mapping a *nominal* gigabyte onto a
//! fixed row budget (see [`SCALE_DOWN`]) while reporting *modeled bytes* at
//! full scale, so task counts and data-size features match the paper's regime.

pub mod dist;
pub mod exec;
pub mod expr;
pub mod gen;
pub(crate) mod hash;
pub mod histogram;
pub mod parallel;
pub mod schema;
pub mod stats;
pub mod table;

pub use expr::{CmpOp, Predicate};
pub use hash::fnv1a;
pub use histogram::Histogram;
pub use schema::{ColumnDef, DataType, Schema};
pub use stats::{ColumnStats, TableStats};
pub use table::{Column, Table};

/// Down-scaling factor between nominal (paper-scale) data and the rows we
/// actually materialize. One nominal gigabyte of a table corresponds to
/// `rows_at_sf1 / SCALE_DOWN` physical rows; all byte sizes reported to the
/// planner/simulator are multiplied back by `SCALE_DOWN` so that the
/// prediction features and MapReduce task counts live in the paper's regime.
pub const SCALE_DOWN: f64 = 1000.0;

/// Convert physical (materialized) bytes to modeled (paper-scale) bytes.
#[inline]
pub fn modeled_bytes(physical: f64) -> f64 {
    physical * SCALE_DOWN
}
