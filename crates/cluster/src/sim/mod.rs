//! The discrete-event simulation engine, decomposed by lifecycle stage:
//!
//! * [`engine`](self) — the event loop ([`Simulator`]),
//! * `admission` — the bounded pending queue, shed policies, per-query
//!   deadlines, and resubmission backoff ([`AdmissionConfig`]),
//! * `queue` — the event queue: a std `BinaryHeap` popped in `(time, seq)`
//!   order, with its checkpoint codec,
//! * `checkpoint` — versioned, checksummed engine snapshots
//!   (`sapred-ckpt/v2`) for suspend/resume ([`CheckpointError`]),
//! * `state` — the event types and the struct-of-arrays per-query /
//!   per-job simulation state the other modules operate on,
//! * `dispatch` — the materialized runnable set and per-query demand
//!   aggregates the scheduler consumes ([`DispatchMode`]),
//! * `oracle` — the [`DemandOracle`] seam: live per-job demand
//!   predictions consulted at run start / submit / job completion,
//! * `recovery` — attempt tracking, node crash/blacklist state, and
//!   query abandonment,
//! * `report` — the [`SimReport`] assembled at the end of a run.
//!
//! The public surface is re-exported here, so `sapred_cluster::sim::*`
//! paths are unchanged by the decomposition.

mod admission;
mod checkpoint;
mod dispatch;
mod engine;
mod oracle;
mod queue;
mod recovery;
mod report;
mod state;
#[cfg(test)]
mod tests;

/// Emit an event only when the sink is enabled. The event expression is
/// inside the branch, so a disabled sink skips its construction entirely
/// (no clones, no candidate lists) — and for [`sapred_obs::NullSink`],
/// whose `enabled()` is a const `false`, the whole site compiles away.
macro_rules! emit {
    ($sink:expr, $ev:expr) => {
        if $sink.enabled() {
            $sink.emit(&$ev);
        }
    };
}
pub(crate) use emit;

pub use admission::{AdmissionConfig, AdmissionStats, ShedPolicy};
pub use checkpoint::CheckpointError;
pub use dispatch::DispatchMode;
pub use engine::{Run, RunOutcome, SimError, Simulator};
pub use oracle::{DemandOracle, FrozenOracle, GuardConfig, GuardedOracle, QuarantineRecord};
pub use report::{CellSummary, JobStat, QueryStat, SimReport};

/// Cluster configuration (defaults mirror the paper's testbed: 9 nodes ×
/// 12 containers, 1 GB per reducer, small job-submission overhead).
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Number of worker nodes.
    pub nodes: usize,
    /// Task slots per node (the paper configures 12).
    pub containers_per_node: usize,
    /// Hive's `bytes.per.reducer`: reduce-task count = ⌈D_med / this⌉.
    pub bytes_per_reducer: f64,
    /// Upper bound on reduce tasks per job.
    pub max_reducers: usize,
    /// Delay between a dependency finishing and the dependent job's
    /// submission (JobTracker round-trips).
    pub submit_overhead: f64,
    /// RNG seed for task-duration sampling.
    pub seed: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            nodes: 9,
            containers_per_node: 12,
            bytes_per_reducer: 1024.0 * 1024.0 * 1024.0,
            max_reducers: 108,
            submit_overhead: 1.0,
            seed: 7,
        }
    }
}

impl ClusterConfig {
    /// Total container slots in the cluster.
    pub fn total_containers(&self) -> usize {
        self.nodes * self.containers_per_node
    }

    /// Node index of a flat container-slot id.
    pub fn node_of(&self, slot: usize) -> usize {
        slot / self.containers_per_node.max(1)
    }

    /// Within-node slot index of a flat container-slot id.
    pub fn slot_of(&self, slot: usize) -> usize {
        slot % self.containers_per_node.max(1)
    }
}
