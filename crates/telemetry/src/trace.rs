//! Bounded flit event tracing with JSONL and Chrome `trace_event`
//! output.
//!
//! The tracer stores at most `capacity` events; everything past the
//! cap increments a drop counter instead of allocating, so enabling
//! tracing inside a saturation search can never exhaust memory. Both
//! serializers write through [`nocem_common::json::JsonWriter`].

use nocem_common::json::JsonWriter;

/// What happened to a flit (or packet head) at one cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlitEventKind {
    /// A head flit entered the network at a source NI.
    Inject,
    /// A flit crossed an inter-switch link.
    Route,
    /// A traffic generator stalled on a full source queue.
    Block,
    /// A packet fully left the network at a receptor.
    Eject,
}

impl FlitEventKind {
    /// Stable lowercase name used in both output formats.
    pub fn name(self) -> &'static str {
        match self {
            FlitEventKind::Inject => "inject",
            FlitEventKind::Route => "route",
            FlitEventKind::Block => "block",
            FlitEventKind::Eject => "eject",
        }
    }
}

/// One recorded event. Optional fields are omitted from the output
/// when absent (a TG block has no packet id yet, an inject has no
/// inter-switch link).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlitEvent {
    /// Platform cycle of the event.
    pub cycle: u64,
    /// Event kind.
    pub kind: FlitEventKind,
    /// Packet involved, when known.
    pub packet: Option<u64>,
    /// Switch where the event happened (routing switch for `Route`,
    /// attachment switch otherwise), when known.
    pub switch: Option<u32>,
    /// Link crossed (`Route`) or entered (`Inject`), when known.
    pub link: Option<u32>,
}

/// Bounded recorder of [`FlitEvent`]s.
///
/// # Examples
///
/// ```
/// use nocem_telemetry::{FlitEvent, FlitEventKind, FlitTracer};
/// let mut t = FlitTracer::new(1);
/// t.record(FlitEvent { cycle: 0, kind: FlitEventKind::Inject, packet: Some(0), switch: Some(0), link: Some(2) });
/// t.record(FlitEvent { cycle: 1, kind: FlitEventKind::Eject, packet: Some(0), switch: None, link: None });
/// assert_eq!(t.events().len(), 1);
/// assert_eq!(t.dropped(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlitTracer {
    capacity: usize,
    events: Vec<FlitEvent>,
    dropped: u64,
}

impl FlitTracer {
    /// Creates a tracer that stores at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        FlitTracer {
            capacity,
            events: Vec::new(),
            dropped: 0,
        }
    }

    /// Records one event, or counts it as dropped past the cap.
    pub fn record(&mut self, event: FlitEvent) {
        if self.events.len() < self.capacity {
            self.events.push(event);
        } else {
            self.dropped += 1;
        }
    }

    /// Events recorded so far, in record order.
    pub fn events(&self) -> &[FlitEvent] {
        &self.events
    }

    /// Events rejected because the cap was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// One JSON object per line, e.g.
    /// `{"cycle":4,"kind":"route","packet":1,"switch":2,"link":7}`.
    pub fn to_jsonl(&self) -> String {
        let mut w = JsonWriter::new();
        for e in &self.events {
            w.object(|w| {
                w.field("cycle", e.cycle).field("kind", e.kind.name());
                w.maybe("packet", e.packet).maybe("switch", e.switch);
                w.maybe("link", e.link);
            })
            .line();
        }
        w.finish()
    }

    /// Chrome `trace_event` JSON (load via `chrome://tracing` or
    /// Perfetto). Events are instant events (`"ph":"i"`) with the
    /// cycle as the microsecond timestamp and the switch as the
    /// thread id, so a timeline groups activity per switch.
    pub fn to_chrome_trace(&self) -> String {
        let mut w = JsonWriter::new();
        w.object(|w| {
            w.key("traceEvents").array(|w| {
                for e in &self.events {
                    w.object(|w| {
                        w.field("name", e.kind.name()).field("ph", "i");
                        w.field("ts", e.cycle).field("pid", 0u32);
                        w.field("tid", e.switch.unwrap_or(0)).field("s", "t");
                        w.key("args").object(|w| {
                            w.maybe("packet", e.packet).maybe("link", e.link);
                        });
                    });
                }
            });
        });
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycle: u64, kind: FlitEventKind) -> FlitEvent {
        FlitEvent {
            cycle,
            kind,
            packet: Some(7),
            switch: Some(1),
            link: Some(3),
        }
    }

    #[test]
    fn cap_is_hard_and_drops_are_counted() {
        let mut t = FlitTracer::new(2);
        for c in 0..5 {
            t.record(ev(c, FlitEventKind::Route));
        }
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.dropped(), 3);
        assert_eq!(t.events()[0].cycle, 0, "earliest events are kept");
    }

    #[test]
    fn jsonl_one_line_per_event_with_optional_fields() {
        let mut t = FlitTracer::new(8);
        t.record(ev(4, FlitEventKind::Route));
        t.record(FlitEvent {
            cycle: 9,
            kind: FlitEventKind::Block,
            packet: None,
            switch: Some(2),
            link: None,
        });
        let jsonl = t.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"cycle\":4,\"kind\":\"route\",\"packet\":7,\"switch\":1,\"link\":3}"
        );
        assert_eq!(lines[1], "{\"cycle\":9,\"kind\":\"block\",\"switch\":2}");
    }

    #[test]
    fn chrome_trace_wraps_instant_events() {
        let mut t = FlitTracer::new(8);
        t.record(ev(4, FlitEventKind::Inject));
        t.record(ev(5, FlitEventKind::Eject));
        let s = t.to_chrome_trace();
        assert!(s.starts_with("{\"traceEvents\":["));
        assert!(s.ends_with("]}"));
        assert!(s.contains("\"name\":\"inject\""));
        assert!(s.contains("\"ts\":5"));
        assert!(s.contains("\"tid\":1"));
        assert_eq!(s.matches("\"ph\":\"i\"").count(), 2);
    }

    #[test]
    fn empty_tracer_serializes_cleanly() {
        let t = FlitTracer::new(4);
        assert_eq!(t.to_jsonl(), "");
        assert_eq!(t.to_chrome_trace(), "{\"traceEvents\":[]}");
    }
}
