//! The engine's event queue: a std `BinaryHeap` of `(time, seq, event)`
//! popped in ascending `(time, seq)` order, plus its checkpoint codec.
//!
//! The queue assigns `seq` itself, one unique number per push, so the key
//! is a strict total order. The pop stream — and with it every RNG draw,
//! emitted event and report downstream — therefore depends only on what
//! was pushed when, never on the heap's internal layout. The golden
//! fixtures pin that stream.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use super::checkpoint::{kind_u8, CheckpointError, Reader, Writer};
use super::state::{Event, Time};
use crate::job::TaskKind;

const TAG_ARRIVAL: u8 = 0;
const TAG_SUBMIT: u8 = 1;
const TAG_TASK_DONE: u8 = 2;
const TAG_TASK_FAILED: u8 = 3;
const TAG_RETRY: u8 = 4;
const TAG_NODE_DOWN: u8 = 5;
const TAG_NODE_UP: u8 = 6;

/// Serialized bytes per queued event: time 8, seq 8, three `u32` payload
/// lanes, tag 1, task kind 1.
const RECORD_BYTES: usize = 30;

fn lane(x: usize) -> u32 {
    u32::try_from(x).expect("event field exceeds the u32 checkpoint lane")
}

/// Wire form of one event: variant tag, three `u32` payload lanes, and a
/// [`TaskKind`] discriminant (`Retry` only).
fn encode(event: &Event) -> (u8, [u32; 3], u8) {
    match *event {
        Event::Arrival { q } => (TAG_ARRIVAL, [lane(q), 0, 0], 0),
        Event::Submit { q, j } => (TAG_SUBMIT, [lane(q), lane(j), 0], 0),
        Event::TaskDone { attempt } => (TAG_TASK_DONE, [lane(attempt), 0, 0], 0),
        Event::TaskFailed { attempt } => (TAG_TASK_FAILED, [lane(attempt), 0, 0], 0),
        Event::Retry { q, j, kind, spec_idx } => {
            (TAG_RETRY, [lane(q), lane(j), lane(spec_idx)], kind_u8(kind))
        }
        Event::NodeDown { crash } => (TAG_NODE_DOWN, [lane(crash), 0, 0], 0),
        // The 64-bit crash epoch rides in the two spare lanes.
        Event::NodeUp { node, epoch } => {
            (TAG_NODE_UP, [lane(node), epoch as u32, (epoch >> 32) as u32], 0)
        }
    }
}

/// Inverse of [`encode`]; the error names the offending byte.
fn decode(tag: u8, lanes: [u32; 3], kind: u8) -> Result<Event, String> {
    let [a, b, c] = lanes.map(|x| x as usize);
    let kind = match kind {
        0 => TaskKind::Map,
        1 => TaskKind::Reduce,
        k => return Err(format!("task-kind discriminant {k}")),
    };
    Ok(match tag {
        TAG_ARRIVAL => Event::Arrival { q: a },
        TAG_SUBMIT => Event::Submit { q: a, j: b },
        TAG_TASK_DONE => Event::TaskDone { attempt: a },
        TAG_TASK_FAILED => Event::TaskFailed { attempt: a },
        TAG_RETRY => Event::Retry { q: a, j: b, kind, spec_idx: c },
        TAG_NODE_DOWN => Event::NodeDown { crash: a },
        TAG_NODE_UP => {
            Event::NodeUp { node: a, epoch: u64::from(lanes[1]) | (u64::from(lanes[2]) << 32) }
        }
        tag => return Err(format!("unknown event tag {tag}")),
    })
}

/// The event queue. Owns the `seq` counter and counts operations for the
/// profiler's [`Counter::EventQueueOps`](sapred_obs::profile::Counter).
pub(super) struct EventQueue {
    heap: BinaryHeap<Reverse<(Time, u64, Event)>>,
    /// Next sequence number to assign.
    seq: u64,
    /// Pushes + pops over the run.
    ops: u64,
}

impl EventQueue {
    pub(super) fn new() -> Self {
        Self { heap: BinaryHeap::new(), seq: 0, ops: 0 }
    }

    pub(super) fn len(&self) -> usize {
        self.heap.len()
    }

    pub(super) fn push(&mut self, time: f64, event: Event) {
        self.heap.push(Reverse((Time(time), self.seq, event)));
        self.seq += 1;
        self.ops += 1;
    }

    pub(super) fn pop(&mut self) -> Option<(f64, Event)> {
        let Reverse((Time(t), _, event)) = self.heap.pop()?;
        self.ops += 1;
        Some((t, event))
    }

    /// Pushes + pops so far (deterministic: a pure function of the run).
    pub(super) fn ops(&self) -> u64 {
        self.ops
    }

    /// The sequence counter (next seq to be assigned).
    pub(super) fn seq(&self) -> u64 {
        self.seq
    }

    /// The queued events with their sequence numbers, in arbitrary order.
    pub(super) fn live(&self) -> impl Iterator<Item = (u64, Event)> + '_ {
        self.heap.iter().map(|Reverse((_, seq, event))| (*seq, *event))
    }

    /// Serialize the counters, then the queued events sorted ascending by
    /// `(time, seq)`: the heap's layout is unobservable, so sorted order
    /// is the canonical form.
    pub(super) fn checkpoint(&self, w: &mut Writer) {
        w.u64(self.seq);
        w.u64(self.ops);
        let mut live: Vec<(Time, u64, Event)> = self.heap.iter().map(|Reverse(k)| *k).collect();
        live.sort_unstable_by_key(|&(t, seq, _)| (t, seq));
        w.usize(live.len());
        for (Time(t), seq, event) in live {
            let (tag, [a, b, c], kind) = encode(&event);
            w.f64(t);
            w.u64(seq);
            w.u32(a);
            w.u32(b);
            w.u32(c);
            w.u8(tag);
            w.u8(kind);
        }
    }

    /// Restore a queue written by [`EventQueue::checkpoint`]. Records must
    /// be strictly ascending by `(time, seq)`, which also rejects a
    /// duplicated record; a reordered or tampered blob fails with
    /// [`CheckpointError::Corrupt`] even if its checksum was recomputed.
    pub(super) fn restore(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let seq = r.u64()?;
        let ops = r.u64()?;
        let n = r.vec_len(RECORD_BYTES)?;
        let mut live: Vec<Reverse<(Time, u64, Event)>> = Vec::with_capacity(n);
        for i in 0..n {
            let time = Time(r.f64()?);
            let s = r.u64()?;
            let lanes = [r.u32()?, r.u32()?, r.u32()?];
            let (tag, kind) = (r.u8()?, r.u8()?);
            let event = decode(tag, lanes, kind)
                .map_err(|why| CheckpointError::Corrupt(format!("queued record {i}: {why}")))?;
            if live.last().is_some_and(|Reverse((pt, ps, _))| (*pt, *ps) >= (time, s)) {
                return Err(CheckpointError::Corrupt(format!(
                    "queued record {i} is not strictly after its predecessor in (time, seq) order"
                )));
            }
            live.push(Reverse((time, s, event)));
        }
        Ok(Self { heap: BinaryHeap::from(live), seq, ops })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trips_every_variant() {
        let events = [
            Event::Arrival { q: 3 },
            Event::Submit { q: 1, j: 2 },
            Event::TaskDone { attempt: 123_456 },
            Event::TaskFailed { attempt: 0 },
            Event::Retry { q: 9, j: 4, kind: TaskKind::Map, spec_idx: 77 },
            Event::Retry { q: 9, j: 4, kind: TaskKind::Reduce, spec_idx: 0 },
            Event::NodeDown { crash: 2 },
            Event::NodeUp { node: 8, epoch: u64::from(u32::MAX) + 17 },
        ];
        for e in &events {
            let (tag, lanes, kind) = encode(e);
            assert_eq!(&decode(tag, lanes, kind).unwrap(), e, "round-trip of {e:?}");
        }
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = EventQueue::new();
        q.push(2.0, Event::Arrival { q: 0 });
        q.push(1.0, Event::Arrival { q: 1 });
        q.push(1.0, Event::Arrival { q: 2 });
        q.push(0.5, Event::Arrival { q: 3 });
        let order: Vec<Event> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        let want: Vec<Event> = [3, 1, 2, 0].map(|i| Event::Arrival { q: i }).into();
        assert_eq!(order, want);
        assert_eq!(q.ops(), 8, "four pushes and four pops");
    }

    fn checkpointed() -> (EventQueue, Vec<u8>) {
        let mut q = EventQueue::new();
        for i in 0..6 {
            q.push((10 - i) as f64, Event::Arrival { q: i });
        }
        q.pop();
        q.pop();
        let mut w = Writer::new();
        q.checkpoint(&mut w);
        (q, w.finish())
    }

    #[test]
    fn checkpoint_round_trips() {
        let (mut q, bytes) = checkpointed();
        let mut r = Reader::new(&bytes);
        let mut restored = EventQueue::restore(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!((restored.seq(), restored.ops(), restored.len()), (q.seq(), q.ops(), q.len()));
        // Future pushes get the same seq numbers, and the merged pop
        // stream is identical.
        restored.push(0.5, Event::Submit { q: 9, j: 1 });
        q.push(0.5, Event::Submit { q: 9, j: 1 });
        loop {
            let (a, b) = (restored.pop(), q.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        assert_eq!(restored.ops(), q.ops());
    }

    /// On-wire layout: seq u64, ops u64, record count u64, then
    /// [`RECORD_BYTES`]-byte records with the tag at offset 28.
    #[test]
    fn restore_rejects_unknown_event_tag() {
        let (_, mut bytes) = checkpointed();
        bytes[24 + RECORD_BYTES + 28] = 0x7f;
        let e = EventQueue::restore(&mut Reader::new(&bytes)).err().unwrap();
        assert!(e.to_string().contains("unknown event tag"), "{e}");
    }

    #[test]
    fn restore_rejects_truncated_queue_bytes() {
        let (_, bytes) = checkpointed();
        for cut in [0, 5, 16, 24 + RECORD_BYTES, bytes.len() - 1] {
            assert_eq!(
                EventQueue::restore(&mut Reader::new(&bytes[..cut])).err(),
                Some(CheckpointError::Truncated),
                "truncation at {cut} bytes"
            );
        }
    }
}
