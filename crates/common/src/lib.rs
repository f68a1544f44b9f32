//! # nocem-common — shared vocabulary of the nocem workspace
//!
//! This crate holds the types every other crate of the **nocem**
//! Network-on-Chip emulation framework agrees on:
//!
//! * [`ids`] — strongly-typed identifiers (nodes, ports, packets,
//!   buses, devices, …);
//! * [`flit`] — flits and packet descriptors, the unit of transport;
//! * [`flows`] — flow sets that are arithmetic over their endpoints
//!   (all sources × all sinks but their own) and the rows destination
//!   models name instead of listing;
//! * [`route`] — routing-table hop entries (output port + virtual
//!   channel) shared by the switch model and the topology compiler;
//! * [`time`] — the [`time::Cycle`] clock and the paper-style duration
//!   formatting used by Table 2;
//! * [`rng`] — deterministic, hardware-faithful random sources (LFSRs
//!   as synthesized into the FPGA traffic generators, plus software
//!   generators for trace synthesis);
//! * [`choice`] — the property runner of the test suites: drawn
//!   cases that shrink on failure;
//! * [`table`] / [`csv`] / [`json`] — report rendering and data export
//!   (one escaping JSON writer for every emitter, and its validator).
//!
//! The crate is dependency-free and deliberately small: it defines
//! *contracts*, not behaviour. The behavioural contracts of the
//! emulated hardware live in `nocem-switch` (switch microarchitecture)
//! and `nocem-platform` (register-level interface).
//!
//! # Examples
//!
//! ```
//! use nocem_common::flit::{FlitKind, PacketDescriptor};
//! use nocem_common::ids::{EndpointId, FlowId, PacketId};
//! use nocem_common::time::Cycle;
//!
//! // Serialize a 3-flit packet the way a network interface would.
//! let desc = PacketDescriptor {
//!     id: PacketId::new(0),
//!     src: EndpointId::new(0),
//!     dst: EndpointId::new(5),
//!     flow: FlowId::new(1),
//!     len_flits: 3,
//!     release: Cycle::ZERO,
//! };
//! let kinds: Vec<FlitKind> = desc.flits().map(|f| f.kind).collect();
//! assert_eq!(kinds, [FlitKind::Head, FlitKind::Body, FlitKind::Tail]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod choice;
pub mod csv;
pub mod flit;
pub mod flows;
pub mod ids;
pub mod json;
pub mod rng;
pub mod route;
pub mod table;
pub mod time;

pub use flit::{Flit, FlitKind, PacketDescriptor};
pub use ids::{
    BusId, DeviceId, EndpointId, FlowId, LinkId, NodeId, PacketId, PortId, SwitchId, VcId,
};
pub use rng::{Pcg32, RandomSource};
pub use route::RouteHop;
pub use time::Cycle;

/// The draws of [`choice::Choices`] stay inside the ranges they are given.
#[cfg(test)]
mod tests {
    use crate::choice::Choices;
    use crate::rng::SplitMix64;

    fn recording(seed: u64) -> Choices {
        Choices::new(Some(SplitMix64::new(seed)), vec![])
    }

    #[test]
    fn ranges_sample_in_bounds() {
        let mut c = recording(1);
        for _ in 0..1_000 {
            assert!((3..17).contains(&c.range(3u32..17)));
            assert_eq!(c.range(5u16..=5), 5);
            assert!((0.25..0.75).contains(&c.range(0.25..0.75)));
        }
        let mut full = Choices::new(None, vec![u64::MAX, 12_345]);
        assert_eq!(full.range(0..=u64::MAX), u64::MAX);
        assert_eq!(full.range(0..=u64::MAX), 12_345);
    }

    #[test]
    fn signed_ranges_sample_in_bounds() {
        let mut c = recording(7);
        let mut saw_negative = false;
        for _ in 0..1_000 {
            let v = c.range(-5i32..5);
            assert!((-5..5).contains(&v));
            saw_negative |= v < 0;
            c.range(i8::MIN..=i8::MAX); // a full-domain range must not panic
            assert!((-100..-50).contains(&c.range(-100i64..-50)));
        }
        assert!(saw_negative, "the negative half of the range never drawn");
    }

    #[test]
    fn vec_strategy_respects_size() {
        let mut c = recording(2);
        for _ in 0..200 {
            assert!((2..6).contains(&c.vec(2..6, |c| c.range(0u8..10)).len()));
            assert_eq!(c.vec(4..5, |c| c.range(0u8..10)).len(), 4);
        }
    }
}
