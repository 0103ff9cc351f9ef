#![warn(missing_docs)]
//! HiveQL-subset front end: lexing, parsing and semantic analysis.
//!
//! This crate reproduces the slice of the Hive compiler the paper's
//! framework hooks into: it turns declarative query text into an analyzed
//! form carrying *query semantics* — per-table predicates, projections, join
//! structure, group-by keys, sort/limit — which the planner
//! (`sapred-plan`) compiles into a DAG of MapReduce jobs and the estimator
//! (`sapred-selectivity`) consumes for selectivity estimation.
//!
//! Supported grammar (uppercase keywords are case-insensitive):
//!
//! ```text
//! SELECT item (',' item)*
//! FROM table [AS? alias]
//! (JOIN table [AS? alias] ON cond (AND cond)*)*
//! [WHERE predicate]
//! [GROUP BY column (',' column)*]
//! [ORDER BY column [ASC|DESC] (',' ...)*]
//! [LIMIT k]
//! ```
//!
//! where `item` is a column, arithmetic expression, or aggregate
//! (`SUM|COUNT|AVG|MIN|MAX`), and ON conditions are either equi-join
//! equalities (`a.x = b.y`) or single-table residual predicates
//! (`n.n_name <> 'CHINA'`), exactly as in the paper's modified TPC-H Q11.

pub mod analyze;
pub mod ast;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod pig;

pub use analyze::{analyze, AnalyzedQuery, JoinSpec, LiteralResolver, ScanSpec};
pub use ast::{AggFunc, AstPred, ColRef, Literal, Query, SelectItem};
pub use error::QueryError;
pub use parser::parse;
pub use pig::PigScript;
