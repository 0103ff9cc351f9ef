#![warn(missing_docs)]
//! The semantics-aware query prediction framework (the paper's primary
//! contribution), assembled from the substrate crates:
//!
//! * [`framework`] — cross-layer percolation: query text → DAG + estimates
//!   ([`Framework::percolate_sql`]), and the prediction API
//!   ([`Predictor`]) producing job times (Eq. 8), task times (Eq. 9),
//!   query times (§5.4) and WRD (Eq. 10);
//! * [`training`] — the training harness of §5.1: run a query population
//!   on the simulated cluster, collect measured job/task times, fit the
//!   multivariate models with a 3:1 train/test split;
//! * [`experiments`] — one runner per table/figure of the paper's
//!   evaluation (motivation Figs. 1–2, accuracy Tables 3–5 + Fig. 6,
//!   query prediction Fig. 7, scheduling Fig. 8) plus ablations, and
//!   [`experiments::reproduce`], all of them from one configuration;
//! * [`progress`] — online progress/ETA estimation from the dynamic WRD
//!   (remaining task counts), ParaTimer-style;
//! * [`telemetry`] — bridges model evaluations and simulator outcomes into
//!   `sapred-obs` prediction-error event streams (drift tracking);
//! * [`pipeline`] — the [`Pipeline`] facade walking a query through the
//!   staged lifecycle (percolate → train → predict → simulate), the one
//!   entry point the CLI, examples and integration tests consume;
//! * [`parallel`] — the one parallel runner: panic-isolated work items
//!   claimed by scoped worker threads, results in item order (re-exported
//!   from `sapred_relation::parallel`, the lowest crate that uses it);
//! * [`persist`] — catalog persistence: the metastore statistics saved to
//!   and loaded from JSON (the paper's off-line histograms "stored on
//!   HDFS");
//! * [`error`] — the unified [`Error`] every fallible stage returns;
//! * [`report`] — plain-text table and chart rendering for the experiment
//!   reports.

pub mod error;
pub mod experiments;
pub mod framework;
pub use sapred_relation::parallel;
pub mod persist;
pub mod pipeline;
pub mod progress;
pub mod report;
pub mod telemetry;
pub mod training;

pub use error::Error;
pub use framework::{Framework, Predictor, QuerySemantics};
pub use pipeline::{Pipeline, Training};
pub use training::{fit_models, run_population, split_train_test, QueryRun, TrainedModels};
