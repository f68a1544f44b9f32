//! # nocem-rtl — the "Verilog / ModelSim" baseline
//!
//! An event-driven RTL simulator running the same NoC platform as the
//! `nocem` emulation engine, reproducing the mechanism (and cost) of
//! HDL simulation for the paper's Table 2:
//!
//! * [`kernel`] — signals, nonblocking assignment, delta cycles,
//!   sensitivity lists, work counters and a VCD dump;
//! * [`model`] — the kernel as a `nocem::process::Fabric` (a flit wire
//!   per link, a credit wire per link and VC, clocked processes, monitor
//!   processes): [`RtlEngine`] is `nocem::ProcessModel<Kernel>`.
//!
//! What is this crate's own is the event kernel and its wires. The
//! wiring — one clocked process per switch and network interface, one
//! monitor per receptor — is `nocem::ProcessModel`'s, written once for
//! this crate and `nocem-tlm`; what a release, an NI send or a delivery
//! *does* is `nocem::engine::Platform`'s, shared with the fast engine;
//! and everything around a cycle is the step skeleton of
//! `nocem::clock`. The kernel's work counters are
//! `RtlEngine::fabric().stats()`; a waveform comes through [`Vcd`].
//!
//! Runs are cycle- and flit-identical to the fast engine, down to the
//! results, the telemetry and the stall report (enforced by the lockstep
//! harness); only the wall-clock cost differs, by the orders of
//! magnitude the paper reports between FPGA emulation and RTL
//! simulation.
//!
//! # Examples
//!
//! ```
//! use nocem::config::PaperConfig;
//! use nocem::compile::elaborate;
//! use nocem::SteppableEngine;
//! use nocem_rtl::model::RtlEngine;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = PaperConfig::new().total_packets(50).uniform();
//! let mut rtl = RtlEngine::new(elaborate(&cfg)?);
//! rtl.run()?;
//! assert_eq!(rtl.delivered(), 50);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod kernel;
pub mod model;

pub use kernel::{Kernel, KernelStats, Value};
pub use model::{RtlEngine, Vcd};
