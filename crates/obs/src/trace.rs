//! Chrome `trace_event` exporter.
//!
//! [`ChromeTraceSink`] turns the event stream into a JSON document loadable
//! by `chrome://tracing` / Perfetto. Layout:
//!
//! - **pid 1 "cluster"** — one thread track per container slot
//!   (`tid = node * 1000 + slot`), holding complete (`ph:"X"`) spans for
//!   every task placed on that slot.
//! - **pid 2 "queries"** — one thread track per query, holding a span for the
//!   whole query (arrival → finish) and one per job (first task start →
//!   finish).
//! - **pid 1, tid 999999 "scheduler"** — instant (`ph:"i"`) events for
//!   scheduler decisions, with candidate scores in `args`.
//!
//! Timestamps are microseconds (`ts = t * 1e6`), as the format requires.

use crate::event::{Event, TaskPhase};
use crate::ids::{JobId, NodeId, QueryId};
use crate::json::{array, quoted, Obj};
use crate::sink::EventSink;
use std::collections::HashMap;
use std::io::Write;

const CLUSTER_PID: u64 = 1;
const QUERY_PID: u64 = 2;
const SCHED_TID: u64 = 999_999;

/// Accumulates Chrome trace events in memory; call [`ChromeTraceSink::write`]
/// after the run.
#[derive(Debug, Clone, Default)]
pub struct ChromeTraceSink {
    // Pre-rendered trace-event JSON objects.
    spans: Vec<String>,
    // (node, slot) slots that appeared, for thread metadata.
    slots_seen: HashMap<(NodeId, usize), ()>,
    // query index -> (name, arrival time)
    query_open: HashMap<QueryId, (std::sync::Arc<str>, f64)>,
    // (query, job) -> first task start time
    job_open: HashMap<(QueryId, JobId), f64>,
    // (node, slot) -> start time of the attempt currently occupying it;
    // lets killed attempts (which never emit TaskFinish) close their spans.
    task_open: HashMap<(NodeId, usize), f64>,
    queries_seen: Vec<QueryId>,
}

fn us(t: f64) -> f64 {
    t * 1e6
}

fn slot_tid(node: NodeId, slot: usize) -> u64 {
    u64::from(node) * 1000 + slot as u64
}

fn complete(name: &str, pid: u64, tid: u64, start: f64, end: f64, args: Option<String>) -> String {
    let mut o = Obj::new()
        .str("name", name)
        .str("ph", "X")
        .num("ts", us(start))
        .num("dur", us((end - start).max(0.0)))
        .int("pid", pid)
        .int("tid", tid);
    if let Some(a) = args {
        o = o.raw("args", &a);
    }
    o.finish()
}

impl ChromeTraceSink {
    /// New empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of span/instant records collected so far (metadata excluded).
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    fn metadata(&self) -> Vec<String> {
        let meta = |name: &str, pid: u64, tid: Option<u64>, value: &str| {
            let mut o = Obj::new()
                .str("name", name)
                .str("ph", "M")
                .int("pid", pid)
                .raw("args", &Obj::new().str("name", value).finish());
            if let Some(tid) = tid {
                o = o.int("tid", tid);
            }
            o.finish()
        };
        let mut out = vec![
            meta("process_name", CLUSTER_PID, None, "cluster"),
            meta("process_name", QUERY_PID, None, "queries"),
            meta("thread_name", CLUSTER_PID, Some(SCHED_TID), "scheduler"),
        ];
        let mut slots: Vec<_> = self.slots_seen.keys().copied().collect();
        slots.sort_unstable();
        for (node, slot) in slots {
            out.push(meta(
                "thread_name",
                CLUSTER_PID,
                Some(slot_tid(node, slot)),
                &format!("node{node} slot{slot}"),
            ));
        }
        let mut queries = self.queries_seen.clone();
        queries.sort_unstable();
        queries.dedup();
        for q in queries {
            out.push(meta("thread_name", QUERY_PID, Some(u64::from(q)), &format!("query {q}")));
        }
        out
    }

    // One instant (`ph:"i"`) record on the scheduler track.
    fn instant(&mut self, name: &str, t: f64, args: String) {
        self.spans.push(
            Obj::new()
                .str("name", name)
                .str("ph", "i")
                .str("s", "t")
                .num("ts", us(t))
                .int("pid", CLUSTER_PID)
                .int("tid", SCHED_TID)
                .raw("args", &args)
                .finish(),
        );
    }

    /// Serialize the collected trace as a Chrome `trace_event` JSON document.
    ///
    /// # Errors
    /// Propagates writer IO errors.
    pub fn write<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        let mut events = self.metadata();
        events.extend(self.spans.iter().cloned());
        let doc =
            Obj::new().str("displayTimeUnit", "ms").raw("traceEvents", &array(events)).finish();
        w.write_all(doc.as_bytes())?;
        w.flush()
    }

    /// Serialize the trace to a file through a `BufWriter`, flushing before
    /// return, so the (potentially large) document costs buffered writes
    /// instead of one syscall per chunk.
    ///
    /// # Errors
    /// Propagates file creation and write errors.
    #[cfg(test)]
    pub fn write_to_path<P: AsRef<std::path::Path>>(&self, path: P) -> std::io::Result<()> {
        let file = std::fs::File::create(path)?;
        self.write(std::io::BufWriter::new(file))
    }
}

impl EventSink for ChromeTraceSink {
    fn emit(&mut self, event: &Event) {
        match event {
            Event::QueryArrive { t, query, name } => {
                self.query_open.insert(*query, (name.clone(), *t));
                self.queries_seen.push(*query);
            }
            Event::QueryFinish { t, query } => {
                if let Some((name, arrival)) = self.query_open.remove(query) {
                    self.spans.push(complete(
                        &format!("query {query}: {name}"),
                        QUERY_PID,
                        u64::from(*query),
                        arrival,
                        *t,
                        None,
                    ));
                }
            }
            Event::JobStart { t, query, job } => {
                self.job_open.insert((*query, *job), *t);
            }
            Event::JobFinish { t, query, job, category } => {
                if let Some(start) = self.job_open.remove(&(*query, *job)) {
                    self.spans.push(complete(
                        &format!("job {query}.{job} [{category}]"),
                        QUERY_PID,
                        u64::from(*query),
                        start,
                        *t,
                        None,
                    ));
                }
            }
            Event::TaskStart { t, node, slot, .. } => {
                self.task_open.insert((*node, *slot), *t);
            }
            Event::TaskFinish { t, query, job, phase, node, slot, duration } => {
                self.slots_seen.insert((*node, *slot), ());
                self.task_open.remove(&(*node, *slot));
                let label = match phase {
                    TaskPhase::Map => "map",
                    TaskPhase::Reduce => "reduce",
                };
                self.spans.push(complete(
                    &format!("{label} {query}.{job}"),
                    CLUSTER_PID,
                    slot_tid(*node, *slot),
                    t - duration,
                    *t,
                    None,
                ));
            }
            Event::TaskFailed { t, query, job, phase, node, slot, attempt, ran_for, .. } => {
                self.slots_seen.insert((*node, *slot), ());
                self.task_open.remove(&(*node, *slot));
                self.spans.push(complete(
                    &format!("{} {query}.{job} FAILED", phase.label()),
                    CLUSTER_PID,
                    slot_tid(*node, *slot),
                    t - ran_for,
                    *t,
                    Some(Obj::new().int("attempt", *attempt as u64).finish()),
                ));
            }
            Event::TaskKilled { t, query, job, phase, node, slot, speculative, .. } => {
                self.slots_seen.insert((*node, *slot), ());
                if let Some(start) = self.task_open.remove(&(*node, *slot)) {
                    self.spans.push(complete(
                        &format!("{} {query}.{job} KILLED", phase.label()),
                        CLUSTER_PID,
                        slot_tid(*node, *slot),
                        start,
                        *t,
                        Some(Obj::new().bool("speculative", *speculative).finish()),
                    ));
                }
            }
            Event::NodeDown { t, node, reason, lost_maps } => {
                self.instant(
                    &format!("node {node} down ({})", reason.label()),
                    *t,
                    Obj::new()
                        .int("node", u64::from(*node))
                        .str("reason", reason.label())
                        .int("lost_maps", *lost_maps as u64)
                        .finish(),
                );
            }
            Event::NodeUp { t, node } => {
                self.instant(
                    &format!("node {node} up"),
                    *t,
                    Obj::new().int("node", u64::from(*node)).finish(),
                );
            }
            Event::SpeculativeLaunch { t, query, job, phase, node, slot } => {
                self.instant(
                    &format!("speculate {query}.{job}"),
                    *t,
                    Obj::new()
                        .str("phase", phase.label())
                        .int("node", u64::from(*node))
                        .int("slot", *slot as u64)
                        .finish(),
                );
            }
            Event::MapOutputLost { t, query, job, node, maps_lost } => {
                self.instant(
                    &format!("lost maps {query}.{job}"),
                    *t,
                    Obj::new()
                        .int("node", u64::from(*node))
                        .int("maps_lost", *maps_lost as u64)
                        .finish(),
                );
            }
            Event::Decision { t, policy, candidates, chosen_query, chosen_job, .. } => {
                let scores = array(candidates.iter().map(|c| {
                    Obj::new()
                        .int("query", u64::from(c.query))
                        .int("job", u64::from(c.job))
                        .num("score", c.score)
                        .finish()
                }));
                let args = Obj::new()
                    .raw("policy", &quoted(policy))
                    .int("chosen_query", u64::from(*chosen_query))
                    .int("chosen_job", u64::from(*chosen_job))
                    .raw("candidates", &scores)
                    .finish();
                self.spans.push(
                    Obj::new()
                        .str("name", &format!("pick {chosen_query}.{chosen_job}"))
                        .str("ph", "i")
                        .str("s", "t")
                        .num("ts", us(*t))
                        .int("pid", CLUSTER_PID)
                        .int("tid", SCHED_TID)
                        .raw("args", &args)
                        .finish(),
                );
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Candidate;
    use crate::json::validate;
    use sapred_plan::JobCategory;

    #[test]
    fn trace_document_is_valid_json_with_expected_tracks() {
        let mut sink = ChromeTraceSink::new();
        let events = [
            Event::QueryArrive { t: 0.0, query: QueryId(0), name: "q0".into() },
            Event::JobStart { t: 0.5, query: QueryId(0), job: JobId(0) },
            Event::Decision {
                t: 0.5,
                policy: "swrd",
                candidates: vec![Candidate { query: QueryId(0), job: JobId(0), score: 3.0 }],
                chosen_query: QueryId(0),
                chosen_job: JobId(0),
                phase: TaskPhase::Map,
                queue_depth: 1,
                free_containers: 4,
            },
            Event::TaskStart {
                t: 0.5,
                query: QueryId(0),
                job: JobId(0),
                phase: TaskPhase::Map,
                node: NodeId(1),
                slot: 2,
            },
            Event::TaskFinish {
                t: 2.5,
                query: QueryId(0),
                job: JobId(0),
                phase: TaskPhase::Map,
                node: NodeId(1),
                slot: 2,
                duration: 2.0,
            },
            Event::JobFinish {
                t: 2.5,
                query: QueryId(0),
                job: JobId(0),
                category: JobCategory::Extract,
            },
            Event::QueryFinish { t: 2.5, query: QueryId(0) },
        ];
        for ev in &events {
            sink.emit(ev);
        }
        // task span + decision instant + job span + query span
        assert_eq!(sink.span_count(), 4);

        let mut buf = Vec::new();
        sink.write(&mut buf).unwrap();
        let doc = String::from_utf8(buf).unwrap();
        validate(&doc).unwrap_or_else(|e| panic!("{e}\n{doc}"));
        assert!(doc.contains("\"traceEvents\""));
        assert!(doc.contains("node1 slot2"));
        assert!(doc.contains("\"ph\":\"X\""));
        assert!(doc.contains("\"ph\":\"M\""));
        // Task span: started at 0.5 s → ts 500000 µs, dur 2 s → 2000000 µs.
        assert!(doc.contains("\"ts\":500000"), "{doc}");
        assert!(doc.contains("\"dur\":2000000"), "{doc}");
    }

    #[test]
    fn fault_events_produce_spans_and_instants() {
        use crate::event::DownReason;
        let mut sink = ChromeTraceSink::new();
        let events = [
            // A failed attempt: span reconstructed from ran_for.
            Event::TaskFailed {
                t: 2.0,
                query: QueryId(0),
                job: JobId(1),
                phase: TaskPhase::Map,
                node: NodeId(0),
                slot: 1,
                attempt: 2,
                ran_for: 0.5,
                will_retry: true,
                retry_at: 3.0,
            },
            // A killed attempt: span closed from its TaskStart.
            Event::TaskStart {
                t: 1.0,
                query: QueryId(0),
                job: JobId(1),
                phase: TaskPhase::Map,
                node: NodeId(1),
                slot: 0,
            },
            Event::TaskKilled {
                t: 2.5,
                query: QueryId(0),
                job: JobId(1),
                phase: TaskPhase::Map,
                node: NodeId(1),
                slot: 0,
                speculative: false,
                requeued: true,
            },
            Event::NodeDown { t: 2.5, node: NodeId(1), reason: DownReason::Crash, lost_maps: 2 },
            Event::MapOutputLost {
                t: 2.5,
                query: QueryId(0),
                job: JobId(1),
                node: NodeId(1),
                maps_lost: 2,
            },
            Event::NodeUp { t: 5.5, node: NodeId(1) },
            Event::SpeculativeLaunch {
                t: 6.0,
                query: QueryId(0),
                job: JobId(1),
                phase: TaskPhase::Reduce,
                node: NodeId(0),
                slot: 2,
            },
        ];
        for ev in &events {
            sink.emit(ev);
        }
        // failed span + killed span + 4 instants
        assert_eq!(sink.span_count(), 6);
        let mut buf = Vec::new();
        sink.write(&mut buf).unwrap();
        let doc = String::from_utf8(buf).unwrap();
        validate(&doc).unwrap_or_else(|e| panic!("{e}\n{doc}"));
        assert!(doc.contains("map 0.1 FAILED"));
        // Failed span starts at t - ran_for = 1.5 s → 1500000 µs.
        assert!(doc.contains("\"ts\":1500000"), "{doc}");
        assert!(doc.contains("map 0.1 KILLED"));
        assert!(doc.contains("node 1 down (crash)"));
        assert!(doc.contains("node 1 up"));
        assert!(doc.contains("speculate 0.1"));
        assert!(doc.contains("lost maps 0.1"));
    }

    #[test]
    fn write_to_path_produces_valid_flushed_file() {
        let mut sink = ChromeTraceSink::new();
        sink.emit(&Event::QueryArrive { t: 0.0, query: QueryId(0), name: "q".into() });
        sink.emit(&Event::QueryFinish { t: 1.0, query: QueryId(0) });
        let path =
            std::env::temp_dir().join(format!("sapred_trace_test_{}.json", std::process::id()));
        sink.write_to_path(&path).unwrap();
        let doc = std::fs::read_to_string(&path).unwrap();
        validate(&doc).unwrap();
        assert!(doc.contains("\"traceEvents\""));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn kill_without_start_is_dropped_not_corrupted() {
        let mut sink = ChromeTraceSink::new();
        sink.emit(&Event::TaskKilled {
            t: 1.0,
            query: QueryId(0),
            job: JobId(0),
            phase: TaskPhase::Map,
            node: NodeId(0),
            slot: 0,
            speculative: true,
            requeued: false,
        });
        assert_eq!(sink.span_count(), 0);
    }

    #[test]
    fn unfinished_spans_are_dropped_not_corrupted() {
        let mut sink = ChromeTraceSink::new();
        sink.emit(&Event::QueryArrive { t: 0.0, query: QueryId(3), name: "open".into() });
        sink.emit(&Event::JobStart { t: 0.1, query: QueryId(3), job: JobId(0) });
        let mut buf = Vec::new();
        sink.write(&mut buf).unwrap();
        let doc = String::from_utf8(buf).unwrap();
        validate(&doc).unwrap();
        assert_eq!(sink.span_count(), 0);
        // The query still gets its thread-name metadata.
        assert!(doc.contains("query 3"));
    }
}
