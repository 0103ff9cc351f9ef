#![warn(missing_docs)]
//! Discrete-event MapReduce cluster simulator.
//!
//! This crate substitutes for the paper's 9-node Hadoop v1.2.1 testbed
//! (12 containers per node, 256 MB HDFS blocks). It models:
//!
//! * a container pool shared by map and reduce tasks,
//! * the MapReduce job lifecycle — map wave(s), then shuffle+reduce wave(s)
//!   once all maps finish — driven by an event heap with a logical clock,
//! * a ground-truth per-task cost model (I/O, CPU with operator-dependent
//!   factors, a mildly super-linear sort term and multiplicative log-normal
//!   noise) whose coefficients the prediction layer never sees,
//! * query DAG semantics: a job is submitted only when its parents finish,
//!   exactly like Hive's JobListener (paper §2.2),
//! * an optional seeded fault model ([`fault::FaultPlan`]): transient task
//!   failures with capped-backoff retries, scheduled node crashes with
//!   lost-map-output re-execution, node blacklisting, and speculative
//!   execution — replayed deterministically for any `(workload, plan, seed)`,
//! * four schedulers: job-level [`sched::Fifo`], [`sched::Hcs`] (capacity),
//!   [`sched::Hfs`] (fair), and the paper's query-level
//!   [`sched::Swrd`] (smallest Weighted Resource Demand first, §4.3).
//!
//! The simulator reports per-query response times, per-job spans and
//! per-task durations; the training harness consumes the latter as the
//! "measured" execution times that the paper collects from job counters.

pub mod build;
pub mod cost;
pub mod fault;
pub mod job;
pub mod sched;
pub mod sim;

pub use build::build_sim_query;
pub use cost::CostModel;
pub use fault::{FaultPlan, FaultStats, NodeCrash};
pub use job::{JobPrediction, SimJob, SimQuery, TaskKind, TaskSpec};
pub use sapred_obs::{JobId, NodeId, QueryId};
pub use sched::{Fifo, Hcs, Hfs, Scheduler, Srt, Swrd};
pub use sim::{
    CheckpointError, ClusterConfig, DemandOracle, FrozenOracle, JobStat, QueryStat, Run,
    RunOutcome, SimError, SimReport, Simulator,
};
