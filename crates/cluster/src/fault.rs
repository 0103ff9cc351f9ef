//! Fault injection: the seeded failure model the simulator replays.
//!
//! The paper's SWRD case study (§4) assumes every task runs to completion;
//! real Hadoop clusters do not (ATLAS reports ~40% of production tasks
//! experiencing failures). A [`FaultPlan`] makes the deviation explicit and
//! *deterministic*: given the same `(workload, FaultPlan, seed)` triple the
//! engine replays the identical failure schedule bit-for-bit, which is what
//! the failure-replay test harness pins.
//!
//! The model covers the classic MapReduce recovery rules:
//!
//! * **transient task failures** — every attempt fails independently with
//!   [`FaultPlan::task_fail_prob`]; failed attempts are retried with capped
//!   exponential backoff up to [`FaultPlan::max_attempts`] attempts, after
//!   which the owning query is marked failed,
//! * **node crashes** — a scheduled [`NodeCrash`] kills every task running
//!   on the node (they requeue immediately) and invalidates the node's
//!   completed map outputs for jobs whose reduces have not all finished
//!   (map output lives on node-local disk; reduce output is on replicated
//!   HDFS), exactly Hadoop's re-execution rule,
//! * **node blacklisting** — a node that accumulates
//!   [`FaultPlan::blacklist_after`] task failures stops receiving tasks for
//!   the rest of the run (never the last usable node, mirroring Hadoop's
//!   cap on blacklisted trackers),
//! * **speculative execution** — once a job's done-fraction passes
//!   [`FaultPlan::spec_fraction`] and the scheduler has no runnable work
//!   for a free container, the running attempt with the latest expected
//!   finish is cloned onto another node; the first finisher wins and the
//!   loser is killed (and never counts toward ground-truth stats).
//!
//! Fault sampling draws from its own RNG stream ([`FaultPlan::seed`]),
//! separate from the task-duration noise stream, so a zero-probability plan
//! leaves the simulation bit-identical to a fault-free run.

use sapred_obs::{NodeId, QueryId};

/// Largest exponent fed to `2^exp` when computing capped-exponential
/// backoff. `2^52` is exactly representable in an `f64` and already far past
/// any realistic retry budget; clamping here (rather than casting a raw
/// `usize` attempt count to `i32`) keeps huge attempt counts from wrapping
/// the exponent negative and producing a sub-`base` — or outright
/// non-monotone — delay before the cap is applied.
const BACKOFF_EXP_CLAMP: usize = 52;

/// One scheduled node outage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeCrash {
    /// Node to take down.
    pub node: NodeId,
    /// Simulated time of the crash, seconds.
    pub at: f64,
    /// How long the node stays down, seconds. `f64::INFINITY` = permanent.
    pub down_for: f64,
}

impl NodeCrash {
    /// A crash the node never recovers from.
    pub fn permanent(node: impl Into<NodeId>, at: f64) -> Self {
        Self { node: node.into(), at, down_for: f64::INFINITY }
    }

    /// A transient outage of `down_for` seconds.
    pub fn transient(node: impl Into<NodeId>, at: f64, down_for: f64) -> Self {
        Self { node: node.into(), at, down_for }
    }
}

/// A deterministic failure schedule injected into
/// [`Simulator::run`](crate::sim::Simulator). The default plan injects
/// nothing and is bit-identical to a fault-free run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Probability that any single task attempt fails (sampled per attempt
    /// at dispatch, from the fault RNG stream). `0.0` disables.
    pub task_fail_prob: f64,
    /// Attempts per task before the owning query is declared failed
    /// (Hadoop's `mapred.map.max.attempts`, default 4).
    pub max_attempts: usize,
    /// First-retry delay in seconds; attempt `n` waits
    /// `backoff_base * 2^(n-1)` capped at [`FaultPlan::backoff_cap`].
    pub backoff_base: f64,
    /// Upper bound on the retry delay, seconds.
    pub backoff_cap: f64,
    /// Scheduled node outages. Windows for the same node must not overlap.
    pub node_crashes: Vec<NodeCrash>,
    /// Task failures on one node before it is blacklisted for the rest of
    /// the run. `0` disables blacklisting.
    pub blacklist_after: usize,
    /// Enable speculative execution of straggler tasks.
    pub speculative: bool,
    /// Job done-fraction threshold before its stragglers are cloned.
    pub spec_fraction: f64,
    /// Seed of the fault-sampling RNG stream (independent of the
    /// duration-noise stream, so plans compose with any cluster seed).
    pub seed: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            task_fail_prob: 0.0,
            max_attempts: 4,
            backoff_base: 0.5,
            backoff_cap: 8.0,
            node_crashes: Vec::new(),
            blacklist_after: 3,
            speculative: false,
            spec_fraction: 0.75,
            seed: 0xfau64,
        }
    }
}

impl FaultPlan {
    /// The inert plan: no failures, no crashes, no speculation.
    pub fn none() -> Self {
        Self::default()
    }

    /// Retry delay before attempt `n + 1`, given `n` attempts already used:
    /// capped exponential `backoff_base * 2^(n-1)`. The exponent is clamped
    /// so arbitrarily large attempt counts stay finite, non-negative, and
    /// monotone until the cap (or `backoff_base * 2^52` when uncapped).
    pub fn backoff(&self, attempts_used: usize) -> f64 {
        let exp = attempts_used.saturating_sub(1).min(BACKOFF_EXP_CLAMP) as i32;
        (self.backoff_base * 2f64.powi(exp)).min(self.backoff_cap)
    }

    /// Validate the plan against a cluster of `nodes` nodes.
    ///
    /// # Errors
    /// Describes the first violated constraint: probabilities outside
    /// `[0, 1]` (NaN included), a zero attempt cap, non-finite or negative
    /// backoff (an infinite `backoff_cap` is allowed and means "uncapped"),
    /// crashes on out-of-range nodes, non-finite or negative crash times,
    /// or overlapping crash windows for one node.
    pub fn validate(&self, nodes: usize) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.task_fail_prob) {
            return Err(format!("task_fail_prob {} outside [0, 1]", self.task_fail_prob));
        }
        if self.max_attempts == 0 {
            return Err("max_attempts must be at least 1".into());
        }
        if !self.backoff_base.is_finite() || self.backoff_base < 0.0 {
            return Err(format!(
                "backoff_base {} must be finite and non-negative",
                self.backoff_base
            ));
        }
        // An infinite cap is legal (it means "uncapped"); NaN or negative is not.
        if self.backoff_cap.is_nan() || self.backoff_cap < 0.0 {
            return Err(format!("backoff_cap {} must be non-negative", self.backoff_cap));
        }
        if !(0.0..=1.0).contains(&self.spec_fraction) {
            return Err(format!("spec_fraction {} outside [0, 1]", self.spec_fraction));
        }
        let mut per_node: Vec<Vec<&NodeCrash>> = vec![Vec::new(); nodes];
        for c in &self.node_crashes {
            if c.node.index() >= nodes {
                return Err(format!("crash targets node {} but cluster has {nodes}", c.node));
            }
            if !c.at.is_finite() || c.at < 0.0 {
                return Err(format!("crash at {} must be finite and non-negative", c.at));
            }
            if c.down_for.is_nan() || c.down_for <= 0.0 {
                return Err(format!("crash down_for {} must be positive", c.down_for));
            }
            per_node[c.node.index()].push(c);
        }
        for crashes in &mut per_node {
            crashes.sort_by(|a, b| a.at.total_cmp(&b.at));
            for w in crashes.windows(2) {
                if w[0].down_for.is_infinite() || w[0].at + w[0].down_for > w[1].at {
                    return Err(format!(
                        "overlapping crash windows on node {}: [{}, +{}) then {}",
                        w[0].node, w[0].at, w[0].down_for, w[1].at
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Fault-and-recovery telemetry for one simulation run, reported in
/// [`SimReport::faults`](crate::sim::SimReport::faults). All counters are
/// deterministic functions of `(workload, FaultPlan, seed)` and replay
/// bit-identically.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultStats {
    /// Task attempts that failed (transient failures, including failed
    /// speculative clones).
    pub task_failures: usize,
    /// Task attempts killed: node-crash victims, speculative losers, and
    /// attempts of failed queries.
    pub tasks_killed: usize,
    /// Node crashes that took effect.
    pub node_crashes: usize,
    /// Nodes blacklisted during the run.
    pub nodes_blacklisted: usize,
    /// Completed map outputs invalidated by node crashes (each is
    /// re-executed, so traced `task_finish` events exceed the task count by
    /// exactly this number in a fully successful run).
    pub lost_maps: usize,
    /// Speculative clones launched.
    pub speculative_launches: usize,
    /// Speculative clones that finished before their originals.
    pub speculative_wins: usize,
    /// Retries scheduled with backoff (transient failures that had
    /// attempts left).
    pub retries_scheduled: usize,
    /// Tasks that recovered: failed at least once, then completed.
    pub recovery_count: usize,
    /// Total seconds from a task's first failure to its eventual
    /// successful completion, summed over recovered tasks.
    pub recovery_latency_sum: f64,
    /// Worst single task recovery latency, seconds.
    pub recovery_latency_max: f64,
    /// Queries abandoned because a task exhausted
    /// [`FaultPlan::max_attempts`], in failure order.
    pub failed_queries: Vec<QueryId>,
}

impl FaultStats {
    /// Mean seconds from first failure to recovery; `0.0` if nothing failed.
    pub fn mean_recovery_latency(&self) -> f64 {
        if self.recovery_count == 0 {
            0.0
        } else {
            self.recovery_latency_sum / self.recovery_count as f64
        }
    }

    /// True when the run saw no fault activity at all.
    pub fn is_clean(&self) -> bool {
        self == &FaultStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inert() {
        let p = FaultPlan::default();
        assert!(p.validate(9).is_ok());
        assert_eq!(p, FaultPlan::none());
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let p = FaultPlan { backoff_base: 0.5, backoff_cap: 3.0, ..Default::default() };
        assert_eq!(p.backoff(1), 0.5);
        assert_eq!(p.backoff(2), 1.0);
        assert_eq!(p.backoff(3), 2.0);
        assert_eq!(p.backoff(4), 3.0, "capped");
        assert_eq!(p.backoff(60), 3.0, "huge attempt counts do not overflow");
    }

    #[test]
    fn backoff_near_and_past_the_exponent_clamp() {
        // An uncapped plan exposes the raw exponential: the clamp — not the
        // cap — must be what stops the growth, and the delay must never go
        // negative, non-finite, or non-monotone on the way there.
        let p = FaultPlan { backoff_base: 0.5, backoff_cap: f64::INFINITY, ..Default::default() };
        let mut prev = 0.0;
        for attempts in 1..=80 {
            let d = p.backoff(attempts);
            assert!(d.is_finite(), "backoff({attempts}) = {d} must be finite");
            assert!(d >= 0.0, "backoff({attempts}) = {d} must be non-negative");
            assert!(d >= prev, "backoff({attempts}) = {d} dropped below {prev}");
            prev = d;
        }
        // Exact values at the clamp boundary: 2^(n-1) grows until the
        // exponent saturates at BACKOFF_EXP_CLAMP, then stays flat.
        assert_eq!(p.backoff(52), 0.5 * 2f64.powi(51));
        assert_eq!(p.backoff(53), 0.5 * 2f64.powi(52), "at the clamp");
        assert_eq!(p.backoff(54), p.backoff(53), "past the clamp: saturated");
        assert_eq!(p.backoff(usize::MAX), p.backoff(53), "usize::MAX cannot wrap the exponent");
    }

    #[test]
    fn backoff_monotone_until_cap_then_flat() {
        let p = FaultPlan { backoff_base: 0.5, backoff_cap: 6.0, ..Default::default() };
        let delays: Vec<f64> = (1..=60).map(|n| p.backoff(n)).collect();
        for w in delays.windows(2) {
            assert!(w[1] >= w[0], "delays must be non-decreasing: {} then {}", w[0], w[1]);
        }
        assert_eq!(p.backoff(1), 0.5);
        assert_eq!(p.backoff(5), 6.0, "capped from attempt 5 on");
        assert!(delays.iter().all(|d| *d <= 6.0), "no delay may exceed the cap");
    }

    #[test]
    fn validate_rejects_bad_plans() {
        let bad_p = FaultPlan { task_fail_prob: 1.5, ..Default::default() };
        assert!(bad_p.validate(4).unwrap_err().contains("task_fail_prob"));
        let bad_node =
            FaultPlan { node_crashes: vec![NodeCrash::permanent(9, 0.0)], ..Default::default() };
        assert!(bad_node.validate(9).unwrap_err().contains("node 9"));
        let overlap = FaultPlan {
            node_crashes: vec![NodeCrash::transient(1, 0.0, 20.0), NodeCrash::permanent(1, 10.0)],
            ..Default::default()
        };
        assert!(overlap.validate(4).unwrap_err().contains("overlapping"));
        let perm_then_more = FaultPlan {
            node_crashes: vec![NodeCrash::permanent(1, 0.0), NodeCrash::transient(1, 50.0, 1.0)],
            ..Default::default()
        };
        assert!(perm_then_more.validate(4).is_err(), "nothing may follow a permanent crash");
        let no_attempts = FaultPlan { max_attempts: 0, ..Default::default() };
        assert!(no_attempts.validate(4).is_err());
    }

    #[test]
    fn validate_rejects_nan_probabilities() {
        let p = FaultPlan { task_fail_prob: f64::NAN, ..Default::default() };
        assert!(p.validate(4).unwrap_err().contains("task_fail_prob"));
        let s = FaultPlan { spec_fraction: f64::NAN, ..Default::default() };
        assert!(s.validate(4).unwrap_err().contains("spec_fraction"));
    }

    #[test]
    fn validate_rejects_non_finite_backoff() {
        let inf_base = FaultPlan { backoff_base: f64::INFINITY, ..Default::default() };
        assert!(inf_base.validate(4).unwrap_err().contains("backoff_base"));
        let nan_base = FaultPlan { backoff_base: f64::NAN, ..Default::default() };
        assert!(nan_base.validate(4).unwrap_err().contains("backoff_base"));
        let neg_base = FaultPlan { backoff_base: -1.0, ..Default::default() };
        assert!(neg_base.validate(4).unwrap_err().contains("backoff_base"));
        let nan_cap = FaultPlan { backoff_cap: f64::NAN, ..Default::default() };
        assert!(nan_cap.validate(4).unwrap_err().contains("backoff_cap"));
        let neg_cap = FaultPlan { backoff_cap: -0.5, ..Default::default() };
        assert!(neg_cap.validate(4).unwrap_err().contains("backoff_cap"));
        // An infinite cap is the documented "uncapped" spelling.
        let inf_cap = FaultPlan { backoff_cap: f64::INFINITY, ..Default::default() };
        assert!(inf_cap.validate(4).is_ok());
    }

    #[test]
    fn validate_rejects_non_finite_crash_times() {
        let inf_at = FaultPlan {
            node_crashes: vec![NodeCrash::permanent(0, f64::INFINITY)],
            ..Default::default()
        };
        assert!(inf_at.validate(4).unwrap_err().contains("finite"));
        let nan_at = FaultPlan {
            node_crashes: vec![NodeCrash::permanent(0, f64::NAN)],
            ..Default::default()
        };
        assert!(nan_at.validate(4).unwrap_err().contains("finite"));
        let neg_at =
            FaultPlan { node_crashes: vec![NodeCrash::permanent(0, -1.0)], ..Default::default() };
        assert!(neg_at.validate(4).is_err());
        let nan_down = FaultPlan {
            node_crashes: vec![NodeCrash::transient(0, 1.0, f64::NAN)],
            ..Default::default()
        };
        assert!(nan_down.validate(4).unwrap_err().contains("down_for"));
        let zero_down = FaultPlan {
            node_crashes: vec![NodeCrash::transient(0, 1.0, 0.0)],
            ..Default::default()
        };
        assert!(zero_down.validate(4).unwrap_err().contains("down_for"));
    }

    #[test]
    fn validate_accepts_disjoint_windows() {
        let p = FaultPlan {
            node_crashes: vec![
                NodeCrash::transient(0, 5.0, 5.0),
                NodeCrash::transient(0, 10.0, 2.0),
                NodeCrash::permanent(2, 1.0),
            ],
            ..Default::default()
        };
        assert!(p.validate(4).is_ok());
    }

    #[test]
    fn stats_mean_recovery() {
        let mut s = FaultStats::default();
        assert!(s.is_clean());
        assert_eq!(s.mean_recovery_latency(), 0.0);
        s.recovery_count = 2;
        s.recovery_latency_sum = 5.0;
        assert_eq!(s.mean_recovery_latency(), 2.5);
        assert!(!s.is_clean());
    }
}
