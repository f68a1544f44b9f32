//! # nocem-stats — statistics reports and analysis substrate
//!
//! The observation side of the emulation platform (the paper's
//! "statistics reports and analysis", slide 11):
//!
//! * [`histogram`] — uniform-bin histograms (the stochastic
//!   receptors' "image of the received traffic");
//! * [`latency`] — the latency analyzer of the trace-driven receptors;
//! * [`congestion`] — per-link congestion counters and rates
//!   (Figure 3's metric);
//! * [`receptor`] — the receptor device, [`Receptor`]: flit
//!   reassembly with integrity checking and the counters every
//!   receptor keeps, plus what its [`TrKind`] adds (the two histograms
//!   of a stochastic receptor, the latency analyzer of a trace-driven
//!   one);
//! * [`ledger`] — end-to-end packet accounting (release / inject /
//!   deliver) with conservation checks, the backbone of the
//!   correctness test suite;
//! * [`window`] — steady-state measurement windows (warm-up discard,
//!   windowed latency quantiles and accepted throughput) over the
//!   ledger, the substrate of the latency–throughput curve harness.
//!
//! # Examples
//!
//! ```
//! use nocem_common::ids::PacketId;
//! use nocem_common::time::Cycle;
//! use nocem_stats::ledger::PacketLedger;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut ledger = PacketLedger::new();
//! ledger.release(PacketId::new(0), Cycle::new(0), 4)?;
//! ledger.inject(PacketId::new(0), Cycle::new(2))?;
//! let lat = ledger.deliver(PacketId::new(0), Cycle::new(9), 4)?;
//! assert_eq!(lat.network, 7);
//! assert_eq!(lat.total, 9);
//! ledger.verify_drained()?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod congestion;
pub mod histogram;
pub mod latency;
pub mod ledger;
pub mod receptor;
pub mod window;

pub use congestion::{CongestionCounter, VcOccupancy};
pub use histogram::Histogram;
pub use latency::LatencyAnalyzer;
pub use ledger::{LedgerError, PacketLatency, PacketLedger, PacketRecord};
pub use receptor::{CompletedPacket, Reassembler, ReceiveError, Receptor, ReceptorCounters};
pub use window::{LatencyKind, Window, WindowStats};

/// Which receptor flavour a device is: it picks what a [`Receptor`]
/// keeps, and drives the FPGA area model and report labels (mirroring
/// the generator-side `TgKind`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrKind {
    /// Stochastic receptor (histograms + running time).
    Stochastic,
    /// Trace-driven receptor (latency analyzer).
    TraceDriven,
}

impl std::fmt::Display for TrKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TrKind::Stochastic => "TR stochastic",
            TrKind::TraceDriven => "TR trace driven",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tr_kind_display_matches_table1_labels() {
        assert_eq!(TrKind::Stochastic.to_string(), "TR stochastic");
        assert_eq!(TrKind::TraceDriven.to_string(), "TR trace driven");
    }
}
