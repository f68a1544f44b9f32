//! # nocem-switch — the wormhole switch microarchitecture
//!
//! Cycle-accurate model of the parameterizable packet switch the
//! paper's platform emulates, along with its building blocks:
//!
//! * [`fifo`] — the per-input flit buffer (the "size of buffers"
//!   parameter);
//! * [`arbiter`] — round-robin / fixed-priority output arbitration;
//! * [`config`] — the switch parameter set (inputs, outputs, buffer
//!   depth, arbitration, path selection);
//! * [`switch`] — the two-phase (decide/commit) switch model whose
//!   documentation is the **behavioural contract** all three
//!   simulation engines implement.
//!
//! The model uses wormhole switching with credit-based flow control:
//! one flit per link per cycle, head flits allocate an output, tail
//! flits release it, and transfers require a downstream buffer credit.
//!
//! # Examples
//!
//! ```
//! use nocem_common::flit::PacketDescriptor;
//! use nocem_common::ids::{EndpointId, FlowId, PacketId, PortId};
//! use nocem_common::time::Cycle;
//! use nocem_switch::config::SwitchConfigBuilder;
//! use nocem_switch::switch::Switch;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A 1x1 switch forwarding flow 0 to its only output.
//! let cfg = SwitchConfigBuilder::new(1, 1).build();
//! let mut sw = Switch::new(cfg, vec![vec![PortId::new(0)]], vec![4], 1)?;
//!
//! let desc = PacketDescriptor {
//!     id: PacketId::new(0),
//!     src: EndpointId::new(0),
//!     dst: EndpointId::new(1),
//!     flow: FlowId::new(0),
//!     len_flits: 2,
//!     release: Cycle::ZERO,
//! };
//! for flit in desc.flits() {
//!     sw.accept(PortId::new(0), flit)?;
//! }
//! sw.decide();
//! let mut sent = Vec::new();
//! sw.commit_sends(&mut sent);
//! assert_eq!(sent.len(), 1, "one flit per output per cycle");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arbiter;
pub mod config;
pub mod fifo;
pub mod switch;

pub use arbiter::{Arbiter, ArbiterKind};
pub use config::{SelectionPolicy, SwitchConfig, SwitchConfigBuilder};
pub use fifo::FlitFifo;
pub use switch::{BuildSwitchError, Switch, SwitchCounters, Transfer, CREDITS_INFINITE};
