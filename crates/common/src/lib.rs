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
