#![warn(missing_docs)]
//! Semantics-aware selectivity estimation (paper §3).
//!
//! Given a compiled [`QueryDag`](sapred_plan::QueryDag) and the catalog
//! statistics of its input tables, this crate estimates — *without executing
//! anything* — the dynamic data sizes along the DAG:
//!
//! * **Intermediate Selectivity** `IS = D_med / D_in` per job, composed from
//!   predicate selectivity `S_pred` (equi-width histograms, piece-wise
//!   uniform), projection selectivity `S_proj` (width ratios) and, for
//!   group-bys, combine selectivity `S_comb` (Eqs. 1–3);
//! * **Final Selectivity** `FS = D_out / D_in` per job, using group-key
//!   cardinalities and the per-bucket equi-join size formula (Eqs. 4–5) with
//!   piece-wise histogram propagation for chained joins on unshared keys;
//! * the join skew ratio `P` of Eq. 7, consumed by the time predictor.
//!
//! Estimates propagate job-to-job: every job's output is summarized as a
//! [`RelProfile`] (tuple count, per-column widths, distinct counts and
//! histograms) that downstream jobs consume exactly like base-table stats.

pub mod estimate;
pub mod estimator;
pub mod formulas;
pub mod pred;
pub mod profile;

pub use estimate::{estimate_dag, EstimatorConfig, JobEstimate, DEFAULT_BLOCK_SIZE};
pub use estimator::{estimate_dag_with, join_walk_estimates, EstimatorKind};
pub use formulas::{join_size_bucketed, natural_chain_size, p_ratio, s_comb};
pub use pred::pred_selectivity;
pub use profile::{ColProfile, RelProfile};
