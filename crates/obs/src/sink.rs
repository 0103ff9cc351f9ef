//! Event sinks: where the simulator's event stream goes.
//!
//! The simulator is generic over [`EventSink`], so with the default
//! [`NullSink`] the whole tracing path compiles away — `enabled()` returns
//! `false` as a compile-time constant and `emit` is an empty inline body.

use crate::event::Event;
use std::io::Write;

/// Consumer of simulator [`Event`]s.
///
/// Implementors receive every event in simulated-time order. Sites that must
/// do nontrivial work *before* emitting (e.g. building a
/// [`Event::Decision`] candidate list) should guard on [`EventSink::enabled`]
/// so the work is skipped entirely when tracing is off.
pub trait EventSink {
    /// Whether this sink wants events at all. Default `true`; [`NullSink`]
    /// returns `false` so callers can skip event construction.
    fn enabled(&self) -> bool {
        true
    }

    /// Consume one event.
    fn emit(&mut self, event: &Event);
}

/// Forwarding impl so `&mut S` can be passed where a sink is consumed by value.
impl<S: EventSink + ?Sized> EventSink for &mut S {
    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    fn emit(&mut self, event: &Event) {
        (**self).emit(event)
    }
}

/// The zero-overhead default sink: drops everything, reports disabled.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl EventSink for NullSink {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn emit(&mut self, _event: &Event) {}
}

/// In-memory sink that keeps every event; handy in tests and examples.
#[derive(Debug, Clone, Default)]
pub struct RecordingSink {
    /// All events received, in emission order.
    pub events: Vec<Event>,
}

impl RecordingSink {
    /// New empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Count events for which `pred` holds.
    pub fn count<F: Fn(&Event) -> bool>(&self, pred: F) -> usize {
        self.events.iter().filter(|e| pred(e)).count()
    }
}

impl EventSink for RecordingSink {
    fn emit(&mut self, event: &Event) {
        self.events.push(event.clone());
    }
}

/// Streams each event as one JSON object per line (JSONL) to a writer.
///
/// IO errors are latched rather than panicking mid-simulation; check
/// [`JsonlSink::finish`]. Dropping the sink without calling `finish`
/// flushes the writer (errors at that point are swallowed — call `finish`
/// to observe them), so buffered lines are never silently lost.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    writer: Option<W>,
    lines: u64,
    error: Option<std::io::Error>,
}

impl<W: Write> JsonlSink<W> {
    /// Wrap a writer. Consider `BufWriter` for file targets.
    pub fn new(writer: W) -> Self {
        Self { writer: Some(writer), lines: 0, error: None }
    }

    /// Number of lines successfully written so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Flush and return the writer, or the first IO error encountered.
    ///
    /// # Errors
    /// Returns the latched write error, or the flush error, if any.
    pub fn finish(mut self) -> std::io::Result<W> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        let mut writer = self.writer.take().expect("writer only taken by finish/drop");
        writer.flush()?;
        Ok(writer)
    }
}

impl<W: Write> EventSink for JsonlSink<W> {
    fn emit(&mut self, event: &Event) {
        if self.error.is_some() {
            return;
        }
        let mut line = event.to_json();
        line.push('\n');
        let writer = self.writer.as_mut().expect("writer only taken by finish/drop");
        match writer.write_all(line.as_bytes()) {
            Ok(()) => self.lines += 1,
            Err(e) => self.error = Some(e),
        }
    }
}

impl<W: Write> Drop for JsonlSink<W> {
    fn drop(&mut self) {
        if let Some(writer) = self.writer.as_mut() {
            let _ = writer.flush();
        }
    }
}

/// Fan one event stream out to two sinks (`Tee<A, Tee<B, C>>` chains further).
#[derive(Debug, Default)]
pub struct Tee<A, B> {
    /// First receiver.
    pub a: A,
    /// Second receiver.
    pub b: B,
}

impl<A, B> Tee<A, B> {
    /// Combine two sinks.
    pub fn new(a: A, b: B) -> Self {
        Self { a, b }
    }
}

impl<A: EventSink, B: EventSink> EventSink for Tee<A, B> {
    fn enabled(&self) -> bool {
        self.a.enabled() || self.b.enabled()
    }

    fn emit(&mut self, event: &Event) {
        if self.a.enabled() {
            self.a.emit(event);
        }
        if self.b.enabled() {
            self.b.emit(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::QueryId;
    use crate::json::validate;

    fn ev(t: f64) -> Event {
        Event::QueryStart { t, query: QueryId(1) }
    }

    #[test]
    fn null_sink_is_disabled_and_silent() {
        let mut sink = NullSink;
        assert!(!sink.enabled());
        sink.emit(&ev(1.0));
    }

    #[test]
    fn recording_sink_keeps_order() {
        let mut sink = RecordingSink::new();
        assert!(sink.enabled());
        sink.emit(&ev(1.0));
        sink.emit(&ev(2.0));
        assert_eq!(sink.events.len(), 2);
        assert_eq!(sink.events[1].time(), 2.0);
        assert_eq!(sink.count(|e| e.time() > 1.5), 1);
    }

    #[test]
    fn jsonl_sink_writes_one_valid_line_per_event() {
        let mut sink = JsonlSink::new(Vec::new());
        for t in [0.0, 1.5, 3.0] {
            sink.emit(&ev(t));
        }
        assert_eq!(sink.lines(), 3);
        let buf = sink.finish().unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in lines {
            validate(line).unwrap();
        }
    }

    #[test]
    fn jsonl_sink_flushes_on_drop() {
        use std::cell::RefCell;
        use std::io::BufWriter;
        use std::rc::Rc;

        /// Writer that only publishes to the shared buffer on `flush`, and
        /// deliberately does NOT flush on drop — so the data can only reach
        /// the target through `JsonlSink`'s explicit flush-on-drop.
        struct FlushOnly {
            pending: Vec<u8>,
            target: Rc<RefCell<Vec<u8>>>,
        }
        impl Write for FlushOnly {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.pending.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                self.target.borrow_mut().extend_from_slice(&self.pending);
                self.pending.clear();
                Ok(())
            }
        }

        let target = Rc::new(RefCell::new(Vec::new()));
        {
            let writer = FlushOnly { pending: Vec::new(), target: Rc::clone(&target) };
            let mut sink = JsonlSink::new(BufWriter::new(writer));
            sink.emit(&ev(1.0));
            sink.emit(&ev(2.0));
            // Buffered: nothing has reached the target yet.
            assert_eq!(target.borrow().len(), 0);
            // Dropped without finish(): flush-on-drop must push the lines out.
        }
        let text = String::from_utf8(target.borrow().clone()).unwrap();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            validate(line).unwrap();
        }
    }

    #[test]
    fn tee_forwards_to_both_and_skips_disabled() {
        let mut tee = Tee::new(RecordingSink::new(), RecordingSink::new());
        assert!(tee.enabled());
        tee.emit(&ev(1.0));
        assert_eq!(tee.a.events.len(), 1);
        assert_eq!(tee.b.events.len(), 1);

        let null_pair = Tee::new(NullSink, NullSink);
        assert!(!null_pair.enabled());
    }

    #[test]
    fn mut_ref_forwarding_works() {
        let mut rec = RecordingSink::new();
        {
            let as_ref: &mut RecordingSink = &mut rec;
            assert!(as_ref.enabled());
            as_ref.emit(&ev(1.0));
        }
        assert_eq!(rec.events.len(), 1);
    }
}
