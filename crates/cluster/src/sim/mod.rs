//! The discrete-event simulation engine, decomposed by lifecycle stage:
//!
//! * [`engine`](self) — the event loop ([`Simulator`]),
//! * `queue` — the event queue: a std `BinaryHeap` popped in `(time, seq)`
//!   order,
//! * `checkpoint` — versioned, checksummed engine snapshots
//!   (`sapred-ckpt/v5`) for suspend/resume: the cut's event count, which a
//!   resumed run replays to ([`CheckpointError`]),
//! * `state` — the event types and the struct-of-arrays per-query /
//!   per-job simulation state the other modules operate on,
//! * `dispatch` — the materialized runnable set, its pick index and the
//!   per-query demand aggregates the scheduler consumes, plus the
//!   from-scratch view [`Simulator::crosschecked`] runs check them against,
//! * `oracle` — the [`DemandOracle`] seam: per-job demand predictions
//!   consulted at run start and at job submit,
//! * `recovery` — the attempt slab (a row per attempt whose terminal
//!   event is queued, reused once it pops), node crash/blacklist state,
//!   and query abandonment,
//! * `report` — the [`SimReport`] assembled at the end of a run.
//!
//! The public surface is re-exported here, so `sapred_cluster::sim::*`
//! paths are unchanged by the decomposition.

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

pub use checkpoint::CheckpointError;
pub use engine::{Run, RunOutcome, SimError, Simulator};
pub use oracle::{DemandOracle, FrozenOracle};
pub use report::{JobStat, QueryStat, SimReport};

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

    /// Hive's reduce-task count for a job whose map phase emits `d_med`
    /// bytes: ⌈`d_med` / `bytes_per_reducer`⌉, clamped to
    /// `1..=max_reducers`.
    pub fn reducers_for(&self, d_med: f64) -> usize {
        ((d_med / self.bytes_per_reducer).ceil() as usize).clamp(1, self.max_reducers.max(1))
    }
}
