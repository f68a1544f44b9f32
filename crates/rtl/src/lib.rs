//! # nocem-rtl — the "Verilog / ModelSim" baseline
//!
//! An event-driven RTL simulator running the same NoC platform as the
//! `nocem` emulation engine, reproducing the mechanism (and cost) of
//! HDL simulation for the paper's Table 2:
//!
//! * [`kernel`] — signals, nonblocking assignment, delta cycles,
//!   sensitivity lists, work counters and a VCD dump;
//! * [`model`] — the platform mapped onto the kernel: flit/credit
//!   wires per link, clocked processes per switch and network
//!   interface, monitor processes per receptor.
//!
//! What is this crate's own is the event kernel, the wires and the
//! processes' wire reads and writes. What a release, an NI send or a
//! delivery *does* is `nocem::engine::Platform`, shared with the fast
//! engine and the TLM model, and everything around a cycle (gating,
//! probe timing, stall watchdog, cycle limit, summary) is the step
//! skeleton of `nocem::clock`: [`RtlEngine`] is one of its
//! `CycleKernel`s.
//!
//! Runs are cycle- and flit-identical to the fast engine (enforced by
//! tests); only the wall-clock cost differs, by the orders of
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
pub use model::RtlEngine;
