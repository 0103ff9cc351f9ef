//! The engine's event queue: a std `BinaryHeap` of `(time, seq, event)`
//! popped in ascending `(time, seq)` order.
//!
//! The queue assigns `seq` itself, one unique number per push, so the key
//! is a strict total order. The pop stream — and with it every RNG draw,
//! emitted event and report downstream — therefore depends only on what
//! was pushed when, never on the heap's internal layout. The golden
//! fixtures pin that stream.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use super::state::{Event, Time};

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
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
