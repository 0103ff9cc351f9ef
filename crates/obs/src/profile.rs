//! Span timers and hot-path counters for self-profiling runs.
//!
//! The simulator and pipeline accept a [`Profiler`] the same way the event
//! loop accepts an [`crate::sink::EventSink`]: a zero-sized [`NullProfiler`]
//! whose methods are `#[inline(always)]` no-ops keeps the un-profiled path
//! free of any bookkeeping (the golden-fixture tests pin this), while
//! [`SpanProfiler`] collects nested RAII span timings on the monotonic clock
//! plus a fixed set of [`Counter`]s. `SpanProfiler` uses interior mutability
//! (`Cell`/`RefCell`) so instrumented code can open spans through a shared
//! reference while holding other borrows.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::{array, Obj};

/// Hot-path counters tracked by the profiler.
///
/// `QueuePeakDepth` is a high-water mark (updated via
/// [`Profiler::record_max`]); the rest are monotonically increasing counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Events popped off the simulator heap.
    EventsProcessed = 0,
    /// Dispatch decisions: one per free-container pick, hit or miss, from
    /// the pick index or a scan.
    DispatchDecisions,
    /// Incremental scheduler-view maintenance operations.
    SchedulerViewUpdates,
    /// Events actually forwarded to an enabled sink.
    SinkEventsEmitted,
    /// Task attempts launched into containers (including speculative).
    TasksLaunched,
    /// Peak simulator event-heap depth (high-water mark).
    QueuePeakDepth,
    /// Event-queue operations (pushes + pops) across the run — a pure
    /// function of the workload, so drift here is a behavior change.
    EventQueueOps,
    /// Runnable jobs a dispatch decision examined: 1 for a pick from the
    /// pick index, the runnable-set width for a scan.
    CandidatesExamined,
}

impl Counter {
    /// Every counter, in stable report order.
    pub const ALL: [Counter; 8] = [
        Counter::EventsProcessed,
        Counter::DispatchDecisions,
        Counter::SchedulerViewUpdates,
        Counter::SinkEventsEmitted,
        Counter::TasksLaunched,
        Counter::QueuePeakDepth,
        Counter::EventQueueOps,
        Counter::CandidatesExamined,
    ];

    /// Stable snake_case label used in JSON reports.
    pub fn label(self) -> &'static str {
        match self {
            Counter::EventsProcessed => "events_processed",
            Counter::DispatchDecisions => "dispatch_decisions",
            Counter::SchedulerViewUpdates => "scheduler_view_updates",
            Counter::SinkEventsEmitted => "sink_events_emitted",
            Counter::TasksLaunched => "tasks_launched",
            Counter::QueuePeakDepth => "queue_peak_depth",
            Counter::EventQueueOps => "event_queue_ops",
            Counter::CandidatesExamined => "candidates_examined",
        }
    }
}

/// Instrumentation seam threaded through the pipeline and simulator.
///
/// Implementations must be cheap enough to call on the event-loop hot path;
/// the provided [`NullProfiler`] compiles away entirely.
pub trait Profiler {
    /// RAII guard returned by [`Profiler::span`]; records the span when dropped.
    type Span<'a>
    where
        Self: 'a;

    /// Whether this profiler records anything. Lets instrumented code skip
    /// argument preparation, mirroring `EventSink::enabled`.
    fn enabled(&self) -> bool {
        true
    }

    /// Open a named span; the returned guard records elapsed time on drop.
    #[must_use]
    fn span(&self, name: &'static str) -> Self::Span<'_>;

    /// Add `delta` to a counter.
    fn add(&self, counter: Counter, delta: u64);

    /// Raise a high-water-mark counter to `value` if it is larger.
    fn record_max(&self, counter: Counter, value: u64);

    /// Increment a counter by one.
    fn inc(&self, counter: Counter) {
        self.add(counter, 1);
    }
}

/// Profiler that records nothing. All methods are `#[inline(always)]`
/// no-ops, so instrumented code monomorphized against it carries no
/// profiling overhead at all.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullProfiler;

impl Profiler for NullProfiler {
    type Span<'a> = ();

    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn span(&self, _name: &'static str) -> Self::Span<'_> {}

    #[inline(always)]
    fn add(&self, _counter: Counter, _delta: u64) {}

    #[inline(always)]
    fn record_max(&self, _counter: Counter, _value: u64) {}
}

/// Cap on raw per-span samples kept for exact percentiles. Past the cap the
/// aggregate stats (count/total/min/max) stay exact but percentiles are
/// computed from the first `SAMPLE_CAP` samples — a truncation the summary
/// reports explicitly ([`SpanStat::samples_dropped`] /
/// [`SpanStat::truncated`]) rather than letting a long run's p99 silently
/// describe only the retained prefix.
pub const SAMPLE_CAP: usize = 1 << 16;

/// Aggregated timings for one span name.
#[derive(Debug, Clone, Default)]
pub struct SpanStat {
    /// Number of completed spans.
    pub count: u64,
    /// Total elapsed nanoseconds across completed spans.
    pub total_ns: u64,
    /// Shortest completed span, in nanoseconds.
    pub min_ns: u64,
    /// Longest completed span, in nanoseconds.
    pub max_ns: u64,
    samples_ns: Vec<u64>,
}

impl SpanStat {
    fn record(&mut self, elapsed_ns: u64) {
        if self.count == 0 {
            self.min_ns = elapsed_ns;
            self.max_ns = elapsed_ns;
        } else {
            self.min_ns = self.min_ns.min(elapsed_ns);
            self.max_ns = self.max_ns.max(elapsed_ns);
        }
        self.count += 1;
        self.total_ns = self.total_ns.saturating_add(elapsed_ns);
        if self.samples_ns.len() < SAMPLE_CAP {
            self.samples_ns.push(elapsed_ns);
        }
    }

    /// Mean elapsed nanoseconds (0 when no spans completed).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    /// Raw samples retained for percentile computation (≤ [`SAMPLE_CAP`]).
    pub fn samples_retained(&self) -> usize {
        self.samples_ns.len()
    }

    /// Samples past the cap that percentiles can no longer see. Non-zero
    /// means [`SpanStat::quantile_ns`] describes only the first
    /// [`SAMPLE_CAP`] spans, not the whole run.
    pub fn samples_dropped(&self) -> u64 {
        self.count.saturating_sub(self.samples_ns.len() as u64)
    }

    /// Whether percentiles are computed over a truncated prefix of the run.
    pub fn truncated(&self) -> bool {
        self.samples_dropped() > 0
    }

    /// Nearest-rank quantile over the *retained* samples (the first
    /// [`SAMPLE_CAP`] recorded); `q` in `[0, 1]`. Check
    /// [`SpanStat::truncated`] before trusting tail quantiles of very long
    /// runs.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.samples_ns.is_empty() {
            return 0;
        }
        let mut sorted = self.samples_ns.clone();
        sorted.sort_unstable();
        let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).max(1);
        sorted[rank.min(sorted.len()) - 1]
    }
}

/// Recording profiler: span timers on the monotonic clock plus hot-path
/// counters, all behind interior mutability so it can be shared by `&`
/// reference (or `Rc`) across the pipeline and simulator.
#[derive(Debug, Default)]
pub struct SpanProfiler {
    counters: [Cell<u64>; Counter::ALL.len()],
    spans: RefCell<BTreeMap<&'static str, SpanStat>>,
    depth: Cell<usize>,
    max_depth: Cell<usize>,
    open: Cell<usize>,
}

impl SpanProfiler {
    /// Fresh profiler with all counters zero and no spans.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current value of `counter`.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter as usize].get()
    }

    /// Snapshot of the stats for span `name`, if any spans completed.
    pub fn span_stat(&self, name: &str) -> Option<SpanStat> {
        self.spans.borrow().get(name).cloned()
    }

    /// Names of all recorded spans, sorted.
    #[cfg(test)]
    pub fn span_names(&self) -> Vec<&'static str> {
        self.spans.borrow().keys().copied().collect()
    }

    /// Deepest nesting level reached by any span.
    pub fn max_depth(&self) -> usize {
        self.max_depth.get()
    }

    /// Number of spans currently open (guards created but not yet dropped).
    /// Non-zero after all guards went out of scope means a guard was leaked
    /// (e.g. `mem::forget`), in which case that span was never recorded.
    pub fn open_spans(&self) -> usize {
        self.open.get()
    }

    /// True when every opened span has been closed.
    pub fn balanced(&self) -> bool {
        self.open.get() == 0
    }

    fn close(&self, name: &'static str, elapsed_ns: u64) {
        self.depth.set(self.depth.get().saturating_sub(1));
        self.open.set(self.open.get().saturating_sub(1));
        self.spans.borrow_mut().entry(name).or_default().record(elapsed_ns);
    }

    /// Render counters and per-span summaries as one JSON object.
    ///
    /// Schema: `{"counters": {label: int, ...}, "spans": [{"name", "count",
    /// "total_s", "mean_s", "min_s", "max_s", "p50_s", "p95_s", "p99_s",
    /// "samples_retained", "samples_dropped", "truncated"}, ...],
    /// "max_depth": int, "open_spans": int}`. `truncated: true` flags spans
    /// whose percentiles describe only the first [`SAMPLE_CAP`] samples.
    pub fn to_json(&self) -> String {
        let mut counters = Obj::new();
        for c in Counter::ALL {
            counters = counters.int(c.label(), self.counter(c));
        }
        let spans = self.spans.borrow();
        let span_objs = spans.iter().map(|(name, st)| {
            let s = |ns: u64| ns as f64 / 1e9;
            Obj::new()
                .str("name", name)
                .int("count", st.count)
                .num("total_s", s(st.total_ns))
                .num("mean_s", st.mean_ns() / 1e9)
                .num("min_s", s(st.min_ns))
                .num("max_s", s(st.max_ns))
                .num("p50_s", s(st.quantile_ns(0.50)))
                .num("p95_s", s(st.quantile_ns(0.95)))
                .num("p99_s", s(st.quantile_ns(0.99)))
                .int("samples_retained", st.samples_retained() as u64)
                .int("samples_dropped", st.samples_dropped())
                .bool("truncated", st.truncated())
                .finish()
        });
        Obj::new()
            .raw("counters", &counters.finish())
            .raw("spans", &array(span_objs))
            .int("max_depth", self.max_depth.get() as u64)
            .int("open_spans", self.open.get() as u64)
            .finish()
    }

    /// Human-readable multi-line summary (counters, then spans).
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str("counters:\n");
        for c in Counter::ALL {
            out.push_str(&format!("  {:<24} {}\n", c.label(), self.counter(c)));
        }
        let spans = self.spans.borrow();
        if !spans.is_empty() {
            out.push_str("spans (name count total mean p95):\n");
            for (name, st) in spans.iter() {
                out.push_str(&format!(
                    "  {:<24} {:>8} {:>10.4}s {:>10.1}us {:>10.1}us{}\n",
                    name,
                    st.count,
                    st.total_ns as f64 / 1e9,
                    st.mean_ns() / 1e3,
                    st.quantile_ns(0.95) as f64 / 1e3,
                    if st.truncated() {
                        format!(
                            "  (percentiles truncated: {} samples dropped)",
                            st.samples_dropped()
                        )
                    } else {
                        String::new()
                    },
                ));
            }
        }
        out
    }
}

impl Profiler for SpanProfiler {
    type Span<'a> = SpanGuard<'a>;

    fn span(&self, name: &'static str) -> SpanGuard<'_> {
        let d = self.depth.get() + 1;
        self.depth.set(d);
        self.max_depth.set(self.max_depth.get().max(d));
        self.open.set(self.open.get() + 1);
        SpanGuard { prof: self, name, start: Instant::now() }
    }

    fn add(&self, counter: Counter, delta: u64) {
        let cell = &self.counters[counter as usize];
        cell.set(cell.get().saturating_add(delta));
    }

    fn record_max(&self, counter: Counter, value: u64) {
        let cell = &self.counters[counter as usize];
        if value > cell.get() {
            cell.set(value);
        }
    }
}

/// RAII guard from [`SpanProfiler::span`]; records the elapsed time when
/// dropped. Guards nest: dropping out of order only skews the depth
/// bookkeeping, never the timings.
#[must_use = "a span guard records its timing when dropped"]
#[derive(Debug)]
pub struct SpanGuard<'a> {
    prof: &'a SpanProfiler,
    name: &'static str,
    start: Instant,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed();
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.prof.close(self.name, ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate;

    #[test]
    fn counters_add_and_record_max() {
        let p = SpanProfiler::new();
        p.inc(Counter::EventsProcessed);
        p.add(Counter::EventsProcessed, 4);
        assert_eq!(p.counter(Counter::EventsProcessed), 5);
        p.record_max(Counter::QueuePeakDepth, 7);
        p.record_max(Counter::QueuePeakDepth, 3);
        assert_eq!(p.counter(Counter::QueuePeakDepth), 7);
        assert_eq!(p.counter(Counter::TasksLaunched), 0);
    }

    #[test]
    fn spans_nest_and_record_depth() {
        let p = SpanProfiler::new();
        {
            let _outer = p.span("outer");
            {
                let _inner = p.span("inner");
                let _deeper = p.span("inner2");
            }
            let _sibling = p.span("inner");
        }
        assert_eq!(p.max_depth(), 3);
        assert!(p.balanced());
        let inner = p.span_stat("inner").unwrap();
        assert_eq!(inner.count, 2);
        assert!(inner.min_ns <= inner.max_ns);
        assert_eq!(p.span_stat("outer").unwrap().count, 1);
        assert_eq!(p.span_names(), vec!["inner", "inner2", "outer"]);
    }

    #[test]
    fn leaked_guard_is_visible_as_unbalanced() {
        let p = SpanProfiler::new();
        let guard = p.span("leaky");
        assert_eq!(p.open_spans(), 1);
        std::mem::forget(guard);
        // Leaked: still counted open, and the span was never recorded.
        assert!(!p.balanced());
        assert_eq!(p.open_spans(), 1);
        assert!(p.span_stat("leaky").is_none());
        // Later spans are unaffected.
        drop(p.span("ok"));
        assert_eq!(p.span_stat("ok").unwrap().count, 1);
        assert_eq!(p.open_spans(), 1);
    }

    #[test]
    fn out_of_order_drop_still_records_both() {
        let p = SpanProfiler::new();
        let a = p.span("a");
        let b = p.span("b");
        drop(a); // dropped before the inner guard `b`
        drop(b);
        assert!(p.balanced());
        assert_eq!(p.span_stat("a").unwrap().count, 1);
        assert_eq!(p.span_stat("b").unwrap().count, 1);
    }

    #[test]
    fn quantiles_single_sample_and_many() {
        let mut st = SpanStat::default();
        st.record(500);
        assert_eq!(st.quantile_ns(0.5), 500);
        assert_eq!(st.quantile_ns(0.99), 500);
        assert_eq!(st.min_ns, 500);
        assert_eq!(st.max_ns, 500);
        let mut many = SpanStat::default();
        for v in 1..=100 {
            many.record(v);
        }
        assert_eq!(many.quantile_ns(0.50), 50);
        assert_eq!(many.quantile_ns(0.95), 95);
        assert_eq!(many.quantile_ns(1.0), 100);
        assert_eq!(many.quantile_ns(0.0), 1);
        assert_eq!(many.count, 100);
    }

    #[test]
    fn over_cap_samples_are_reported_as_truncation() {
        let mut st = SpanStat::default();
        for v in 0..(SAMPLE_CAP as u64 + 10) {
            st.record(v);
        }
        assert_eq!(st.count, SAMPLE_CAP as u64 + 10);
        assert_eq!(st.samples_retained(), SAMPLE_CAP);
        assert_eq!(st.samples_dropped(), 10);
        assert!(st.truncated());
        // Aggregates stay exact past the cap; percentiles see only the
        // retained prefix (here 0..SAMPLE_CAP).
        assert_eq!(st.max_ns, SAMPLE_CAP as u64 + 9);
        assert_eq!(st.quantile_ns(1.0), SAMPLE_CAP as u64 - 1);
        // An under-cap stat reports no truncation.
        let mut small = SpanStat::default();
        small.record(7);
        assert!(!small.truncated());
        assert_eq!(small.samples_dropped(), 0);
        assert_eq!(small.samples_retained(), 1);
    }

    #[test]
    fn truncation_flags_reach_the_json_and_summary() {
        let p = SpanProfiler::new();
        drop(p.span("tiny"));
        let doc = p.to_json();
        validate(&doc).unwrap();
        assert!(doc.contains("\"samples_retained\":1"));
        assert!(doc.contains("\"samples_dropped\":0"));
        assert!(doc.contains("\"truncated\":false"));
        assert!(!p.summary().contains("truncated"));
    }

    #[test]
    fn empty_stat_quantile_is_zero() {
        let st = SpanStat::default();
        assert_eq!(st.quantile_ns(0.5), 0);
        assert_eq!(st.mean_ns(), 0.0);
    }

    #[test]
    fn json_report_is_valid_and_stable() {
        let p = SpanProfiler::new();
        p.add(Counter::DispatchDecisions, 3);
        drop(p.span("alpha"));
        let doc = p.to_json();
        validate(&doc).unwrap();
        assert!(doc.contains("\"dispatch_decisions\":3"));
        assert!(doc.contains("\"name\":\"alpha\""));
        assert!(doc.contains("\"open_spans\":0"));
        let doc2 = SpanProfiler::new().to_json();
        validate(&doc2).unwrap();
        assert!(doc2.contains("\"spans\":[]"));
    }

    #[test]
    fn null_profiler_is_inert() {
        let p = NullProfiler;
        assert!(!p.enabled());
        p.inc(Counter::EventsProcessed);
        p.add(Counter::TasksLaunched, 10);
        p.record_max(Counter::QueuePeakDepth, 99);
        #[allow(clippy::let_unit_value)]
        let _span = p.span("nothing");
    }

    #[test]
    fn summary_mentions_counters_and_spans() {
        let p = SpanProfiler::new();
        drop(p.span("stage"));
        let s = p.summary();
        assert!(s.contains("events_processed"));
        assert!(s.contains("stage"));
    }
}
