//! The benchmark's own spans: one around each call into a layer of the
//! program, recorded from outside (spans inside the program are a later
//! change). Kept in memory and written out when the repetition ends.

use crate::json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed interval and the span that caused it.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// An open span, closed by [`Recorder::exit`].
#[must_use]
pub struct Open {
    name: &'static str,
    start: Instant,
}

/// Times intervals always (the metrics need the durations) and keeps
/// them as spans only when tracing is on, so an untraced repetition
/// pays two clock reads per layer call and nothing else.
pub struct Recorder {
    epoch: Instant,
    keep: bool,
    spans: Vec<Span>,
    /// Per open span, the closed children waiting for its index: spans
    /// are stored in closing order, so a parent's index is only known
    /// when it closes.
    stack: Vec<Vec<usize>>,
}

impl Recorder {
    pub fn new(keep: bool) -> Self {
        Recorder {
            epoch: Instant::now(),
            keep,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if self.keep {
            self.stack.push(Vec::new());
        }
        Open {
            name,
            start: Instant::now(),
        }
    }

    /// Closes `open` and returns its duration in seconds.
    pub fn exit(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if self.keep {
            let children = self.stack.pop().expect("exit without enter");
            let index = self.spans.len();
            for child in children {
                self.spans[child].parent = Some(index);
            }
            if let Some(siblings) = self.stack.last_mut() {
                siblings.push(index);
            }
            self.spans.push(Span {
                name: open.name,
                start_ns: (open.start - self.epoch).as_nanos() as u64,
                end_ns: (end - self.epoch).as_nanos() as u64,
                parent: None,
            });
        }
        (end - open.start).as_secs_f64()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per span name: how many, their total time, and their self time (the
/// span's duration minus the part its child spans cover), in seconds.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (usize, f64, f64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut table = BTreeMap::new();
    for (s, &covered) in spans.iter().zip(&child_ns) {
        let dur = s.end_ns - s.start_ns;
        let row = table.entry(s.name).or_insert((0, 0.0, 0.0));
        row.0 += 1;
        row.1 += dur as f64 / 1e9;
        row.2 += dur.saturating_sub(covered) as f64 / 1e9;
    }
    table
}

/// [`self_times`] as a text table.
pub fn self_time_table(spans: &[Span]) -> String {
    let mut out = format!(
        "{:<28} {:>6} {:>12} {:>12}\n",
        "span", "count", "total_s", "self_s"
    );
    for (name, (count, total, own)) in self_times(spans) {
        out.push_str(&format!(
            "{name:<28} {count:>6} {total:>12.6} {own:>12.6}\n"
        ));
    }
    out
}

/// Chrome `trace_event` JSON of one repetition (open in Perfetto or
/// `chrome://tracing`): one complete event per span, the workload and
/// repetition as shared identifiers, the causing span as `parent`.
pub fn chrome_trace(spans: &[Span], workload: &str, rep: u64) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".into(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"name\":{},\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{rep},\"tid\":0,\
             \"args\":{{\"workload\":{},\"rep\":{rep},\"span\":{i},\"parent\":{parent}}}}}",
            json::string(s.name),
            json::number(s.start_ns as f64 / 1e3),
            json::number((s.end_ns - s.start_ns) as f64 / 1e3),
            json::string(workload),
        ));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nested() -> Recorder {
        let mut rec = Recorder::new(true);
        let rep = rec.enter("rep");
        let setup = rec.enter("setup");
        let a = rec.enter("build_config");
        rec.exit(a);
        let b = rec.enter("compute_routing");
        rec.exit(b);
        rec.exit(setup);
        let run = rec.enter("run");
        rec.exit(run);
        rec.exit(rep);
        rec
    }

    #[test]
    fn parents_follow_nesting() {
        let rec = nested();
        let by_name = |n: &str| rec.spans().iter().position(|s| s.name == n).unwrap();
        let parent_of = |n: &str| rec.spans()[by_name(n)].parent;
        assert_eq!(parent_of("rep"), None);
        assert_eq!(parent_of("setup"), Some(by_name("rep")));
        assert_eq!(parent_of("run"), Some(by_name("rep")));
        assert_eq!(parent_of("build_config"), Some(by_name("setup")));
        assert_eq!(parent_of("compute_routing"), Some(by_name("setup")));
    }

    #[test]
    fn self_time_excludes_children() {
        let spans = vec![
            Span {
                name: "child",
                start_ns: 10,
                end_ns: 40,
                parent: Some(1),
            },
            Span {
                name: "parent",
                start_ns: 0,
                end_ns: 100,
                parent: None,
            },
        ];
        let t = self_times(&spans);
        assert_eq!(t["child"], (1, 30e-9, 30e-9));
        assert_eq!(t["parent"], (1, 100e-9, 70e-9));
    }

    #[test]
    fn untraced_recorder_keeps_nothing() {
        let mut rec = Recorder::new(false);
        let open = rec.enter("x");
        assert!(rec.exit(open) >= 0.0);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let trace = chrome_trace(nested().spans(), "sat_mesh8x8", 3);
        nocem_telemetry::validate_json(&trace).expect("valid JSON");
        assert!(trace.contains("\"name\":\"compute_routing\""));
        assert!(trace.contains("\"workload\":\"sat_mesh8x8\""));
    }
}
