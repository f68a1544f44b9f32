//! Host-side span timelines: bounded per-thread buffers of timed
//! spans, merged into a Chrome `trace_event` JSON.
//!
//! Where the windowed series observe the *emulated network* on
//! platform cycles, this module observes the *emulator itself*:
//! wall-clock spans of engine work — a sharded window, a neighbour
//! exchange, a coordinator replay — recorded against a shared
//! [`Instant`] epoch so spans from different threads land on one
//! comparable timeline.
//!
//! Every buffer has a hard capacity; everything past the cap
//! increments a drop counter instead of allocating, so span recording
//! can never OOM a long run.

use nocem_common::json::{JsonWriter, Milli};
use std::time::Instant;

/// One completed span on the emulator's wall-clock timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Timeline track (Chrome trace `tid`): worker/shard index, with
    /// [`SpanEvent::COORDINATOR`] for the coordinator thread.
    pub track: u32,
    /// Span name (e.g. `"window"`, `"exchange"`, `"replay"`).
    pub name: &'static str,
    /// Start, in nanoseconds since the shared epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Platform cycle the span belongs to (start-of-span cycle).
    pub cycle: u64,
}

impl SpanEvent {
    /// Track id used for the coordinator thread.
    pub const COORDINATOR: u32 = u32::MAX;
}

/// A bounded single-thread recorder of [`SpanEvent`]s against a
/// shared epoch.
///
/// # Examples
///
/// ```
/// use std::time::Instant;
/// use nocem_telemetry::SpanBuffer;
/// let epoch = Instant::now();
/// let mut buf = SpanBuffer::new(epoch, 0, 16);
/// let t0 = Instant::now();
/// buf.record("window", t0, 42);
/// assert_eq!(buf.events().len(), 1);
/// assert_eq!(buf.events()[0].name, "window");
/// ```
#[derive(Debug, Clone)]
pub struct SpanBuffer {
    epoch: Instant,
    track: u32,
    capacity: usize,
    events: Vec<SpanEvent>,
    dropped: u64,
}

impl SpanBuffer {
    /// Creates a buffer for `track` holding at most `capacity` spans,
    /// timed against `epoch`. Every thread of one engine must share
    /// the same epoch for the merged timeline to be meaningful.
    pub fn new(epoch: Instant, track: u32, capacity: usize) -> Self {
        SpanBuffer {
            epoch,
            track,
            capacity,
            events: Vec::new(),
            dropped: 0,
        }
    }

    /// Records a span from `start` to now, or counts it as dropped
    /// past the cap.
    pub fn record(&mut self, name: &'static str, start: Instant, cycle: u64) {
        self.record_until(name, start, Instant::now(), cycle);
    }

    /// Records a span with an explicit end instant.
    pub fn record_until(&mut self, name: &'static str, start: Instant, end: Instant, cycle: u64) {
        if self.events.len() >= self.capacity {
            self.dropped += 1;
            return;
        }
        let start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        let dur_ns = end.saturating_duration_since(start).as_nanos() as u64;
        self.events.push(SpanEvent {
            track: self.track,
            name,
            start_ns,
            dur_ns,
            cycle,
        });
    }

    /// Spans recorded so far, in record order.
    pub fn events(&self) -> &[SpanEvent] {
        &self.events
    }

    /// Spans rejected because the cap was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Consumes the buffer into its events and drop count — the shape
    /// workers send to the coordinator for merging.
    pub fn into_parts(self) -> (Vec<SpanEvent>, u64) {
        (self.events, self.dropped)
    }
}

/// A merged multi-thread span timeline, ordered by start time.
#[derive(Debug, Clone, Default)]
pub struct SpanTrace {
    events: Vec<SpanEvent>,
    dropped: u64,
}

impl SpanTrace {
    /// Merges per-thread event lists into one timeline sorted by
    /// `(start_ns, track)` — the monotone order Chrome-trace viewers
    /// and the ordering tests rely on.
    pub fn merge(parts: impl IntoIterator<Item = (Vec<SpanEvent>, u64)>) -> Self {
        let mut events = Vec::new();
        let mut dropped = 0;
        for (mut evs, d) in parts {
            events.append(&mut evs);
            dropped += d;
        }
        events.sort_by_key(|e| (e.start_ns, e.track));
        SpanTrace { events, dropped }
    }

    /// Merged spans, ascending by start time.
    pub fn events(&self) -> &[SpanEvent] {
        &self.events
    }

    /// Total spans dropped across all contributing buffers.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Chrome `trace_event` JSON (load via `chrome://tracing` or
    /// Perfetto): one complete event (`"ph":"X"`) per span, with
    /// microsecond timestamps relative to the shared epoch and the
    /// track as the thread id. The drop count rides in the top-level
    /// metadata so truncation is visible in the artifact itself.
    pub fn to_chrome_trace(&self) -> String {
        let mut w = JsonWriter::new();
        w.object(|w| {
            w.key("traceEvents").array(|w| {
                for e in &self.events {
                    w.object(|w| {
                        w.field("name", e.name).field("ph", "X");
                        w.field("ts", Milli(e.start_ns))
                            .field("dur", Milli(e.dur_ns));
                        w.field("pid", 0u32).field("tid", e.track);
                        w.key("args").object(|w| _ = w.field("cycle", e.cycle));
                    });
                }
            });
            w.field("droppedSpans", self.dropped);
        });
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nocem_common::json::validate_json;

    #[test]
    fn cap_is_hard_and_drops_are_counted() {
        let epoch = Instant::now();
        let mut buf = SpanBuffer::new(epoch, 3, 2);
        for c in 0..5 {
            buf.record("w", Instant::now(), c);
        }
        assert_eq!(buf.events().len(), 2);
        assert_eq!(buf.dropped(), 3);
        assert!(buf.events().iter().all(|e| e.track == 3));
    }

    #[test]
    fn merge_orders_by_start_and_counts_drops() {
        let mk = |track, start_ns| SpanEvent {
            track,
            name: "x",
            start_ns,
            dur_ns: 10,
            cycle: 0,
        };
        let t = SpanTrace::merge(vec![(vec![mk(1, 50), mk(1, 10)], 2), (vec![mk(0, 30)], 1)]);
        let starts: Vec<u64> = t.events().iter().map(|e| e.start_ns).collect();
        assert_eq!(starts, [10, 30, 50]);
        assert_eq!(t.dropped(), 3);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_microsecond_fields() {
        let e = SpanEvent {
            track: SpanEvent::COORDINATOR,
            name: "replay",
            start_ns: 1_234_567,
            dur_ns: 890,
            cycle: 7,
        };
        let t = SpanTrace::merge(vec![(vec![e], 0)]);
        let s = t.to_chrome_trace();
        validate_json(&s).unwrap();
        assert!(s.contains("\"ts\":1234.567"));
        assert!(s.contains("\"dur\":0.890"));
        assert!(s.contains("\"ph\":\"X\""));
        assert!(s.contains("\"droppedSpans\":0"));
    }

    #[test]
    fn empty_trace_serializes_cleanly() {
        let t = SpanTrace::default();
        let s = t.to_chrome_trace();
        validate_json(&s).unwrap();
        assert_eq!(s, "{\"traceEvents\":[],\"droppedSpans\":0}");
    }
}
