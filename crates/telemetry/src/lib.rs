//! Windowed per-resource telemetry for the emulation engines.
//!
//! The paper's platform is *observable*: congestion and latency
//! statistics are readable from the host while the emulation runs.
//! This crate is the engine-independent half of that story. Engines
//! hand their cumulative link counters and buffered flits to a
//! [`Collector`] at fixed cycle boundaries; it keeps the per-link
//! cumulative counters of the last boundary and one window-major ring
//! of rows, each row a window's every link delta and every VC's
//! occupancy. The ring grows one row per recorded window up to its
//! capacity, so a collector costs two words per link until the first
//! window closes.
//!
//! Two invariants make the collectors comparable across engines:
//!
//! 1. **Cycle alignment** — window `k` always covers cycles
//!    `[k·W, (k+1)·W)`. A clock-gated engine that jumps over several
//!    boundaries in one quiescent fast-forward records one zero-delta
//!    row per crossed boundary, so a gated collector is bit-identical
//!    to the ungated one.
//! 2. **Conservation** — every link total equals the lifetime counter
//!    of the link, regardless of how many rows the ring has
//!    overwritten (the totals are the cumulative counters, and
//!    [`Collector::seal`] flushes the trailing partial window).

pub mod series;

pub use nocem_common::json::validate_json;
pub use series::{Collector, LinkStat};

/// Configuration of the telemetry subsystem. Telemetry is opt-in:
/// engines only pay for probes when a config is present.
///
/// # Examples
///
/// ```
/// use nocem_telemetry::TelemetryConfig;
/// let t = TelemetryConfig::windowed(256);
/// assert_eq!(t.window, 256);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Window length in cycles (`W`): one row of samples every
    /// `window` cycles.
    pub window: u64,
    /// Windows the collector's ring keeps, at least 1. Older rows are
    /// overwritten; the link totals survive.
    pub capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            window: 1024,
            capacity: 64,
        }
    }
}

impl TelemetryConfig {
    /// A windowed-counters-only config with the given window length.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn windowed(window: u64) -> Self {
        assert!(window > 0, "telemetry window must be at least one cycle");
        TelemetryConfig {
            window,
            ..TelemetryConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_off_by_default_shape() {
        let t = TelemetryConfig::default();
        assert_eq!(t.window, 1024);
        assert_eq!(t.capacity, 64);
    }

    #[test]
    #[should_panic(expected = "at least one cycle")]
    fn zero_window_panics() {
        TelemetryConfig::windowed(0);
    }
}
