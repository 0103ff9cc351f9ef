//! Admission control for the simulated cluster: a bounded pending queue with
//! pluggable shed policies, per-query deadlines, and capped-exponential
//! backoff resubmission.
//!
//! The paper's SWRD scheduler assumes every submitted query is admitted and
//! eventually served; under sustained overload that assumption breaks down.
//! This module bounds the number of *admitted-but-unstarted* queries: when a
//! query arrives (or is resubmitted) while the active set is at
//! [`AdmissionConfig::queue_cap`], a [`ShedPolicy`] decides who is shed — the
//! newcomer, or (semantics-aware variant) the waiting query with the largest
//! remaining Weighted Resource Demand. Shed queries retry with capped
//! exponential backoff, mirroring `FaultPlan::backoff`, until their resubmit
//! budget is exhausted. Orthogonally, a finite [`AdmissionConfig::deadline`]
//! kills any query still unfinished that many seconds after its *original*
//! arrival (backoff waits eat into the budget).
//!
//! Every decision is a deterministic function of simulator state — no RNG is
//! consumed — so shed/deadline event streams are bit-identically replayable.
//! The default config is fully disabled and leaves the simulation
//! byte-for-byte identical to one without admission control.

use crate::fault::capped_exponential;
use sapred_obs::QueryId;

/// Which query a full pending queue sheds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ShedPolicy {
    /// Shed the arriving query (classic tail-drop). Semantics-blind.
    #[default]
    RejectNewest,
    /// Shed the waiting admitted query with the largest remaining Weighted
    /// Resource Demand — the semantics-aware policy: under overload, evicting
    /// the heaviest waiter frees the most future capacity per shed. Falls
    /// back to shedding the newcomer when no waiter's WRD strictly exceeds
    /// the newcomer's (ties keep the incumbents).
    ShedLargestWrd,
}

impl ShedPolicy {
    /// Stable label used in [`sapred_obs::Event::QueryShed`] and CLI flags.
    pub fn label(&self) -> &'static str {
        match self {
            ShedPolicy::RejectNewest => "reject_newest",
            ShedPolicy::ShedLargestWrd => "largest_wrd",
        }
    }

    /// Parse a CLI flag or grid-file name (`-` and `_` spellings alike).
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "reject-newest" | "reject_newest" => Ok(ShedPolicy::RejectNewest),
            "largest-wrd" | "largest_wrd" => Ok(ShedPolicy::ShedLargestWrd),
            other => {
                Err(format!("unknown shed policy `{other}` (expected reject-newest|largest-wrd)"))
            }
        }
    }
}

/// Admission-control knobs. The default is fully disabled (unbounded queue,
/// no deadline) and provably inert: no events are drawn, emitted, or pushed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Maximum number of concurrently admitted (arrived, unfinished) queries.
    /// `0` disables admission control entirely.
    pub queue_cap: usize,
    /// Per-query response-time budget in seconds, anchored at the query's
    /// *original* arrival. A query still unfinished at `arrival + deadline`
    /// is killed and counted as a deadline miss. `f64::INFINITY` disables
    /// deadlines.
    pub deadline: f64,
    /// Who gets shed when an arrival finds the queue full.
    pub shed_policy: ShedPolicy,
    /// How many times a shed query is resubmitted before it is permanently
    /// rejected.
    pub max_resubmits: usize,
    /// Backoff before the first resubmission, seconds. Doubles per attempt.
    pub resubmit_base: f64,
    /// Upper bound on any single backoff delay, seconds.
    pub resubmit_cap: f64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            queue_cap: 0,
            deadline: f64::INFINITY,
            shed_policy: ShedPolicy::default(),
            max_resubmits: 3,
            resubmit_base: 2.0,
            resubmit_cap: 30.0,
        }
    }
}

impl AdmissionConfig {
    /// The inert configuration: unbounded queue, no deadline.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Whether any admission machinery is active (bounded queue or finite
    /// deadline). When `false` the engine takes no admission branch at all.
    pub fn is_active(&self) -> bool {
        self.queue_cap > 0 || self.deadline.is_finite()
    }

    /// Backoff delay before resubmission attempt `n` (1-based):
    /// `min(resubmit_base * 2^(n-1), resubmit_cap)` — literally the same
    /// clamped capped-exponential helper as `FaultPlan::backoff`, so the two
    /// retry paths can never diverge. The exponent clamp keeps huge attempt
    /// counts finite, non-negative, and monotone until the cap.
    pub fn resubmit_backoff(&self, n: usize) -> f64 {
        capped_exponential(self.resubmit_base, n, self.resubmit_cap)
    }

    /// Check the configuration, returning a description of the first
    /// problem found. Delays must be positive so a resubmission can never
    /// race its own eviction at the same timestamp; the deadline must be
    /// positive (infinite = disabled) and not NaN.
    pub fn validate(&self) -> Result<(), String> {
        if self.deadline.is_nan() || self.deadline <= 0.0 {
            return Err(format!("deadline must be positive or infinite, got {}", self.deadline));
        }
        if !self.resubmit_base.is_finite() || self.resubmit_base <= 0.0 {
            return Err(format!(
                "resubmit_base must be finite and positive, got {}",
                self.resubmit_base
            ));
        }
        if self.resubmit_cap.is_nan() || self.resubmit_cap <= 0.0 {
            return Err(format!("resubmit_cap must be positive, got {}", self.resubmit_cap));
        }
        Ok(())
    }
}

/// What admission control did during a run; part of `SimReport`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AdmissionStats {
    /// Shed events (one per eviction or rejection, counting every
    /// resubmission round separately).
    pub queries_shed: usize,
    /// Queries permanently rejected after exhausting their resubmit budget,
    /// in rejection order.
    pub queries_rejected: Vec<QueryId>,
    /// Backoff resubmissions scheduled.
    pub resubmissions: usize,
    /// Queries killed at their deadline, in kill order.
    pub deadline_misses: Vec<QueryId>,
    /// Peak number of concurrently admitted queries observed. Only tracked
    /// while admission is active; `0` otherwise.
    pub max_active: usize,
}

impl AdmissionStats {
    /// `true` when admission control never intervened (nothing shed,
    /// rejected, resubmitted, or deadline-killed).
    pub fn is_clean(&self) -> bool {
        self.queries_shed == 0
            && self.queries_rejected.is_empty()
            && self.resubmissions == 0
            && self.deadline_misses.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_disabled_and_valid() {
        let c = AdmissionConfig::default();
        assert!(!c.is_active());
        assert_eq!(c, AdmissionConfig::disabled());
        c.validate().unwrap();
        assert!(AdmissionStats::default().is_clean());
    }

    #[test]
    fn activity_requires_cap_or_deadline() {
        assert!(AdmissionConfig { queue_cap: 1, ..Default::default() }.is_active());
        assert!(AdmissionConfig { deadline: 10.0, ..Default::default() }.is_active());
        assert!(!AdmissionConfig::disabled().is_active());
    }

    #[test]
    fn resubmit_backoff_is_capped_exponential() {
        let c = AdmissionConfig { resubmit_base: 2.0, resubmit_cap: 30.0, ..Default::default() };
        assert_eq!(c.resubmit_backoff(1), 2.0);
        assert_eq!(c.resubmit_backoff(2), 4.0);
        assert_eq!(c.resubmit_backoff(3), 8.0);
        assert_eq!(c.resubmit_backoff(5), 30.0, "capped");
        assert_eq!(c.resubmit_backoff(500), 30.0, "huge attempt counts cannot overflow");
    }

    #[test]
    fn resubmit_backoff_near_and_past_the_exponent_clamp() {
        // Uncapped, so only the exponent clamp bounds the growth. Delays
        // must stay finite, non-negative, and non-decreasing throughout.
        let c = AdmissionConfig {
            resubmit_base: 2.0,
            resubmit_cap: f64::INFINITY,
            ..Default::default()
        };
        let mut prev = 0.0;
        for n in 1..=80 {
            let d = c.resubmit_backoff(n);
            assert!(d.is_finite(), "resubmit_backoff({n}) = {d} must be finite");
            assert!(d >= 0.0, "resubmit_backoff({n}) = {d} must be non-negative");
            assert!(d >= prev, "resubmit_backoff({n}) = {d} dropped below {prev}");
            prev = d;
        }
        assert_eq!(c.resubmit_backoff(53), 2.0 * 2f64.powi(52), "at the clamp");
        assert_eq!(c.resubmit_backoff(54), c.resubmit_backoff(53), "saturated past the clamp");
        assert_eq!(c.resubmit_backoff(usize::MAX), c.resubmit_backoff(53), "no usize→i32 wrap");
        // Matches FaultPlan::backoff bit-for-bit at the same parameters.
        let p = crate::FaultPlan {
            backoff_base: 2.0,
            backoff_cap: f64::INFINITY,
            ..Default::default()
        };
        for n in [1, 2, 7, 51, 52, 53, 54, 500] {
            assert_eq!(c.resubmit_backoff(n).to_bits(), p.backoff(n).to_bits());
        }
    }

    #[test]
    fn validate_rejects_bad_configs() {
        let bad = [
            AdmissionConfig { deadline: f64::NAN, ..Default::default() },
            AdmissionConfig { deadline: 0.0, ..Default::default() },
            AdmissionConfig { deadline: -5.0, ..Default::default() },
            AdmissionConfig { resubmit_base: 0.0, ..Default::default() },
            AdmissionConfig { resubmit_base: f64::INFINITY, ..Default::default() },
            AdmissionConfig { resubmit_base: f64::NAN, ..Default::default() },
            AdmissionConfig { resubmit_cap: 0.0, ..Default::default() },
            AdmissionConfig { resubmit_cap: f64::NAN, ..Default::default() },
        ];
        for c in bad {
            assert!(c.validate().is_err(), "{c:?} should be rejected");
        }
        // Infinite cap is fine: backoff() min-caps, so it just never caps.
        AdmissionConfig { resubmit_cap: f64::INFINITY, ..Default::default() }.validate().unwrap();
    }

    #[test]
    fn shed_policy_labels_are_stable() {
        assert_eq!(ShedPolicy::RejectNewest.label(), "reject_newest");
        assert_eq!(ShedPolicy::ShedLargestWrd.label(), "largest_wrd");
        assert_eq!(ShedPolicy::default(), ShedPolicy::RejectNewest);
    }

    #[test]
    fn stats_cleanliness_reflects_intervention() {
        let mut s = AdmissionStats::default();
        assert!(s.is_clean());
        s.queries_shed = 1;
        assert!(!s.is_clean());
        let mut s = AdmissionStats::default();
        s.deadline_misses.push(QueryId(3));
        assert!(!s.is_clean());
    }
}
