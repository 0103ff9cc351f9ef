//! Lightweight metrics: counters, gauges, fixed-bucket histograms, and a
//! [`MetricsSink`] that derives cluster metrics from the event stream.
//!
//! No external dependencies; the registry renders itself to JSON via
//! [`crate::json`].

use crate::drift::DriftTracker;
use crate::event::{Event, TaskPhase};
use crate::json::{array, Obj};
use crate::sink::EventSink;
use std::collections::BTreeMap;

/// Fixed-bucket histogram over non-negative values (seconds, counts, …).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Upper bounds of the finite buckets, strictly increasing. Values above
    /// the last bound land in an implicit overflow bucket.
    bounds: Vec<f64>,
    /// `counts[i]` = observations `<= bounds[i]` (and greater than the
    /// previous bound); `counts[bounds.len()]` = overflow.
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// New histogram with the given strictly-increasing bucket bounds.
    ///
    /// # Panics
    /// Panics if `bounds` is empty or not strictly increasing.
    pub fn new(bounds: Vec<f64>) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        let n = bounds.len();
        Self {
            bounds,
            counts: vec![0; n + 1],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Default bounds for task/latency durations in seconds: exponential
    /// 0.5 s … 4096 s.
    pub fn duration_seconds() -> Self {
        Self::new((0..14).map(|i| 0.5 * 2f64.powi(i)).collect())
    }

    /// Record one observation.
    pub fn observe(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        let idx = self.bounds.partition_point(|&b| b < v);
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of observations; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimate the `q`-quantile (`q` in `[0, 1]`) by linear interpolation
    /// within the containing bucket. Returns `0.0` when empty; overflow-bucket
    /// hits clamp to the observed max.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = q * self.count as f64;
        let mut seen = 0.0;
        for (i, &c) in self.counts.iter().enumerate() {
            let next = seen + c as f64;
            if next >= rank && c > 0 {
                if i == self.bounds.len() {
                    return self.max;
                }
                let lo = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let hi = self.bounds[i];
                let frac = if c == 0 { 0.0 } else { (rank - seen) / c as f64 };
                return (lo + frac * (hi - lo)).clamp(self.min.min(hi), self.max);
            }
            seen = next;
        }
        self.max
    }

    /// Render as a JSON object with counts, stats, and per-bucket data.
    pub fn to_json(&self) -> String {
        let buckets = array(
            self.bounds
                .iter()
                .zip(&self.counts)
                .map(|(b, c)| Obj::new().num("le", *b).int("count", *c).finish()),
        );
        Obj::new()
            .int("count", self.count)
            .num("sum", self.sum)
            .num("mean", self.mean())
            .num("min", if self.count == 0 { 0.0 } else { self.min })
            .num("max", if self.count == 0 { 0.0 } else { self.max })
            .num("p50", self.quantile(0.50))
            .num("p95", self.quantile(0.95))
            .num("p99", self.quantile(0.99))
            .int("overflow", *self.counts.last().unwrap())
            .raw("buckets", &buckets)
            .finish()
    }
}

/// Named counters, gauges, and histograms.
///
/// `BTreeMap`-backed so JSON output is deterministically ordered.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// New empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to counter `name` (created at zero on first use).
    pub fn add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Increment counter `name` by one.
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Current value of counter `name` (zero if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Set gauge `name` to `value`. Non-finite values (NaN, ±∞) are
    /// rejected — JSON cannot express them, and a poisoned gauge would
    /// silently render as `null` — so the previous value is kept.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        if value.is_finite() {
            self.gauges.insert(name.to_string(), value);
        }
    }

    /// Current value of gauge `name`, if set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Record `value` into histogram `name`, creating it with
    /// [`Histogram::duration_seconds`] bounds on first use.
    pub fn observe(&mut self, name: &str, value: f64) {
        self.histograms
            .entry(name.to_string())
            .or_insert_with(Histogram::duration_seconds)
            .observe(value);
    }

    /// Record into a histogram created with explicit bounds on first use.
    pub fn observe_with(&mut self, name: &str, value: f64, make: impl FnOnce() -> Histogram) {
        self.histograms.entry(name.to_string()).or_insert_with(make).observe(value);
    }

    /// Histogram `name`, if any observations were recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Render the whole registry as one JSON object:
    /// `{"counters": {...}, "gauges": {...}, "histograms": {...}}`.
    pub fn to_json(&self) -> String {
        let mut counters = Obj::new();
        for (k, v) in &self.counters {
            counters = counters.int(k, *v);
        }
        let mut gauges = Obj::new();
        for (k, v) in &self.gauges {
            gauges = gauges.num(k, *v);
        }
        let mut hists = Obj::new();
        for (k, h) in &self.histograms {
            hists = hists.raw(k, &h.to_json());
        }
        Obj::new()
            .raw("counters", &counters.finish())
            .raw("gauges", &gauges.finish())
            .raw("histograms", &hists.finish())
            .finish()
    }
}

/// Derives cluster metrics from the raw event stream: task counts and
/// latency histograms per phase, queue depth, container utilization as a
/// time-weighted integral, and prediction drift (via an embedded
/// [`DriftTracker`]).
#[derive(Debug, Clone)]
pub struct MetricsSink {
    /// The metric store; read or export after the run.
    pub registry: MetricsRegistry,
    /// Drift telemetry fed by `prediction_error` events.
    pub drift: DriftTracker,
    total_containers: usize,
    busy: usize,
    last_t: f64,
    busy_integral: f64,
}

impl MetricsSink {
    /// New sink for a cluster with `total_containers` container slots.
    pub fn new(total_containers: usize) -> Self {
        Self {
            registry: MetricsRegistry::new(),
            drift: DriftTracker::new(),
            total_containers,
            busy: 0,
            last_t: 0.0,
            busy_integral: 0.0,
        }
    }

    fn advance(&mut self, t: f64) {
        if t > self.last_t {
            self.busy_integral += self.busy as f64 * (t - self.last_t);
            self.last_t = t;
        }
    }

    /// Mean container utilization in `[0, 1]` over `[0, makespan]`.
    pub fn utilization(&self, makespan: f64) -> f64 {
        if makespan <= 0.0 || self.total_containers == 0 {
            return 0.0;
        }
        // Account for busy time between the last event and the makespan.
        let tail = (makespan - self.last_t).max(0.0) * self.busy as f64;
        (self.busy_integral + tail) / (makespan * self.total_containers as f64)
    }

    /// Finalize gauges that need the run's makespan, then return the
    /// registry's JSON (includes a `"drift"` section).
    pub fn finish(&mut self, makespan: f64) -> String {
        self.advance(makespan);
        self.registry.set_gauge("makespan_seconds", makespan);
        self.registry.set_gauge("container_utilization", self.utilization(makespan));
        let body = self.registry.to_json();
        // Splice the drift table into the registry object.
        debug_assert!(body.ends_with('}'));
        let mut out = body[..body.len() - 1].to_string();
        out.push_str(",\"drift\":");
        out.push_str(&self.drift.to_json());
        out.push('}');
        out
    }
}

impl EventSink for MetricsSink {
    fn emit(&mut self, event: &Event) {
        self.advance(event.time());
        match event {
            Event::QueryArrive { .. } => self.registry.inc("queries_arrived"),
            Event::QueryFinish { .. } => self.registry.inc("queries_finished"),
            Event::JobSubmit { .. } => self.registry.inc("jobs_submitted"),
            Event::JobFinish { .. } => self.registry.inc("jobs_finished"),
            Event::TaskStart { phase, .. } => {
                self.busy += 1;
                match phase {
                    TaskPhase::Map => self.registry.inc("tasks_started_map"),
                    TaskPhase::Reduce => self.registry.inc("tasks_started_reduce"),
                }
            }
            Event::TaskFinish { phase, duration, .. } => {
                self.busy = self.busy.saturating_sub(1);
                match phase {
                    TaskPhase::Map => {
                        self.registry.inc("tasks_finished_map");
                        self.registry.observe("task_seconds_map", *duration);
                    }
                    TaskPhase::Reduce => {
                        self.registry.inc("tasks_finished_reduce");
                        self.registry.observe("task_seconds_reduce", *duration);
                    }
                }
            }
            Event::TaskFailed { phase, ran_for, will_retry, .. } => {
                // A failed attempt releases its container just like a finish,
                // or the utilization integral would leak busy slots.
                self.busy = self.busy.saturating_sub(1);
                self.registry.inc(match phase {
                    TaskPhase::Map => "tasks_failed_map",
                    TaskPhase::Reduce => "tasks_failed_reduce",
                });
                if *will_retry {
                    self.registry.inc("retries_scheduled");
                }
                self.registry.observe("failed_attempt_seconds", *ran_for);
            }
            Event::TaskKilled { speculative, requeued, .. } => {
                self.busy = self.busy.saturating_sub(1);
                self.registry.inc("tasks_killed");
                if *speculative {
                    self.registry.inc("speculative_losses");
                }
                if *requeued {
                    self.registry.inc("tasks_requeued");
                }
            }
            Event::NodeDown { reason, lost_maps, .. } => {
                self.registry.inc(match reason {
                    crate::event::DownReason::Crash => "node_crashes",
                    crate::event::DownReason::Blacklist => "nodes_blacklisted",
                });
                self.registry.add("maps_lost", *lost_maps as u64);
            }
            Event::NodeUp { .. } => self.registry.inc("node_recoveries"),
            Event::SpeculativeLaunch { .. } => self.registry.inc("speculative_launches"),
            Event::MapOutputLost { .. } => self.registry.inc("map_output_loss_events"),
            Event::Decision { queue_depth, free_containers, .. } => {
                self.registry.inc("scheduler_decisions");
                self.registry.observe_with("queue_depth", *queue_depth as f64, || {
                    Histogram::new(vec![1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0])
                });
                self.registry.set_gauge("last_free_containers", *free_containers as f64);
            }
            Event::Eta { .. } => self.registry.inc("eta_snapshots"),
            Event::PredictionError { .. } => {
                self.registry.inc("prediction_samples");
                self.drift.emit(event);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{JobId, NodeId, QueryId};
    use crate::json::validate;
    use sapred_plan::JobCategory;

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = Histogram::new(vec![1.0, 2.0, 4.0]);
        for v in [0.5, 1.5, 1.5, 3.0, 10.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert!((h.mean() - 3.3).abs() < 1e-12);
        let json = h.to_json();
        validate(&json).unwrap();
        assert!(json.contains("\"overflow\":1"));
    }

    #[test]
    fn histogram_quantiles_are_ordered_and_bounded() {
        let mut h = Histogram::duration_seconds();
        for i in 1..=100 {
            h.observe(i as f64 * 0.3);
        }
        let (p50, p95, p99) = (h.quantile(0.5), h.quantile(0.95), h.quantile(0.99));
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        assert!(p50 > 10.0 && p50 < 20.0, "{p50}"); // true median 15.x
        assert!(p99 <= h.quantile(1.0));
        assert_eq!(Histogram::new(vec![1.0]).quantile(0.5), 0.0);
    }

    #[test]
    fn registry_counters_gauges_histograms() {
        let mut r = MetricsRegistry::new();
        r.inc("a");
        r.add("a", 2);
        r.set_gauge("g", 1.5);
        r.observe("h", 2.0);
        assert_eq!(r.counter("a"), 3);
        assert_eq!(r.counter("missing"), 0);
        assert_eq!(r.gauge("g"), Some(1.5));
        assert_eq!(r.histogram("h").unwrap().count(), 1);
        validate(&r.to_json()).unwrap();
    }

    #[test]
    fn empty_registry_snapshot_is_valid() {
        let r = MetricsRegistry::new();
        let json = r.to_json();
        validate(&json).unwrap();
        assert_eq!(json, "{\"counters\":{},\"gauges\":{},\"histograms\":{}}");
    }

    #[test]
    fn single_sample_histogram_percentiles() {
        let mut h = Histogram::new(vec![1.0, 10.0]);
        h.observe(3.0);
        // With one sample every quantile collapses onto it (within the
        // containing bucket, clamped to the observed min/max).
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 3.0, "q={q}");
        }
        assert_eq!(h.mean(), 3.0);
        validate(&h.to_json()).unwrap();
    }

    #[test]
    fn non_finite_updates_are_rejected() {
        let mut h = Histogram::new(vec![1.0]);
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        h.observe(f64::NEG_INFINITY);
        assert_eq!(h.count(), 0);

        let mut r = MetricsRegistry::new();
        r.set_gauge("g", 1.0);
        r.set_gauge("g", f64::NAN);
        r.set_gauge("g", f64::INFINITY);
        assert_eq!(r.gauge("g"), Some(1.0), "non-finite set_gauge must keep the old value");
        r.set_gauge("fresh", f64::NEG_INFINITY);
        assert_eq!(r.gauge("fresh"), None);
        r.observe("h", f64::NAN);
        assert_eq!(r.histogram("h").unwrap().count(), 0);
        validate(&r.to_json()).unwrap();
    }

    fn task_pair(t0: f64, t1: f64, phase: TaskPhase) -> [Event; 2] {
        [
            Event::TaskStart {
                t: t0,
                query: QueryId(0),
                job: JobId(0),
                phase,
                node: NodeId(0),
                slot: 0,
            },
            Event::TaskFinish {
                t: t1,
                query: QueryId(0),
                job: JobId(0),
                phase,
                node: NodeId(0),
                slot: 0,
                duration: t1 - t0,
            },
        ]
    }

    #[test]
    fn sink_tracks_utilization_integral() {
        // 2 containers; one task busy from t=0 to t=10 → utilization 0.5.
        let mut sink = MetricsSink::new(2);
        for ev in task_pair(0.0, 10.0, TaskPhase::Map) {
            sink.emit(&ev);
        }
        assert!((sink.utilization(10.0) - 0.5).abs() < 1e-12);
        assert_eq!(sink.registry.counter("tasks_started_map"), 1);
        assert_eq!(sink.registry.counter("tasks_finished_map"), 1);
        assert_eq!(sink.registry.histogram("task_seconds_map").unwrap().count(), 1);
    }

    #[test]
    fn fault_events_release_busy_slots_and_count() {
        use crate::event::DownReason;
        let mut sink = MetricsSink::new(2);
        let start = |t: f64, node: NodeId| Event::TaskStart {
            t,
            query: QueryId(0),
            job: JobId(0),
            phase: TaskPhase::Map,
            node,
            slot: 0,
        };
        // One attempt fails at t=2, another is killed at t=2: both slots must
        // be released, so utilization over [0, 4] is (2+2)/(2*4) = 0.5.
        sink.emit(&start(0.0, NodeId(0)));
        sink.emit(&start(0.0, NodeId(1)));
        sink.emit(&Event::TaskFailed {
            t: 2.0,
            query: QueryId(0),
            job: JobId(0),
            phase: TaskPhase::Map,
            node: NodeId(0),
            slot: 0,
            attempt: 1,
            ran_for: 2.0,
            will_retry: true,
            retry_at: 2.5,
        });
        sink.emit(&Event::TaskKilled {
            t: 2.0,
            query: QueryId(0),
            job: JobId(0),
            phase: TaskPhase::Map,
            node: NodeId(1),
            slot: 0,
            speculative: true,
            requeued: false,
        });
        sink.emit(&Event::NodeDown {
            t: 2.0,
            node: NodeId(1),
            reason: DownReason::Crash,
            lost_maps: 3,
        });
        sink.emit(&Event::NodeDown {
            t: 2.5,
            node: NodeId(0),
            reason: DownReason::Blacklist,
            lost_maps: 0,
        });
        sink.emit(&Event::NodeUp { t: 3.0, node: NodeId(1) });
        sink.emit(&Event::SpeculativeLaunch {
            t: 3.0,
            query: QueryId(0),
            job: JobId(0),
            phase: TaskPhase::Map,
            node: NodeId(1),
            slot: 0,
        });
        sink.emit(&Event::MapOutputLost {
            t: 2.0,
            query: QueryId(0),
            job: JobId(0),
            node: NodeId(1),
            maps_lost: 3,
        });
        assert!((sink.utilization(4.0) - 0.5).abs() < 1e-12, "{}", sink.utilization(4.0));
        assert_eq!(sink.registry.counter("tasks_failed_map"), 1);
        assert_eq!(sink.registry.counter("retries_scheduled"), 1);
        assert_eq!(sink.registry.counter("tasks_killed"), 1);
        assert_eq!(sink.registry.counter("speculative_losses"), 1);
        assert_eq!(sink.registry.counter("node_crashes"), 1);
        assert_eq!(sink.registry.counter("nodes_blacklisted"), 1);
        assert_eq!(sink.registry.counter("node_recoveries"), 1);
        assert_eq!(sink.registry.counter("speculative_launches"), 1);
        assert_eq!(sink.registry.counter("maps_lost"), 3);
        assert_eq!(sink.registry.counter("map_output_loss_events"), 1);
        validate(&sink.finish(4.0)).unwrap();
    }

    #[test]
    fn sink_finish_produces_valid_json_with_drift() {
        let mut sink = MetricsSink::new(4);
        for ev in task_pair(0.0, 2.0, TaskPhase::Reduce) {
            sink.emit(&ev);
        }
        sink.emit(&Event::PredictionError {
            t: 2.0,
            query: QueryId(0),
            job: JobId(0),
            category: JobCategory::Extract,
            quantity: crate::event::Quantity::Job,
            predicted: 2.4,
            actual: 2.0,
        });
        let json = sink.finish(2.0);
        validate(&json).unwrap();
        assert!(json.contains("\"drift\""));
        assert!(json.contains("\"makespan_seconds\":2"));
        assert_eq!(sink.registry.counter("prediction_samples"), 1);
        assert_eq!(sink.drift.total_samples(), 1);
    }
}
