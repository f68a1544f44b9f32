//! # nocem-tlm — the "SystemC (MPARM)" baseline
//!
//! A cycle-true transaction-level simulator running the same NoC
//! platform as the `nocem` emulation engine, reproducing the mechanism
//! (and cost) of SystemC simulation for the paper's Table 2:
//!
//! * [`scheduler`] — a SystemC-like process scheduler with
//!   double-buffered (`sc_signal`-style) channels and value-changed
//!   watchers;
//! * [`model`] — the scheduler as a `nocem::process::Fabric`:
//!   [`TlmEngine`] is `nocem::ProcessModel<Scheduler>`.
//!
//! What is this crate's own is the scheduler and its channels. The
//! wiring — one process per switch and network interface, one watcher
//! per receptor, credits on their own channels — is
//! `nocem::ProcessModel`'s, written once for this crate and `nocem-rtl`;
//! what a release, an NI send or a delivery *does* is
//! `nocem::engine::Platform`'s, shared with the fast engine; and
//! everything around a cycle is the step skeleton of `nocem::clock`.
//! The scheduler's work counters are `TlmEngine::fabric().stats()`.
//!
//! Runs are cycle- and flit-identical to the fast engine and the RTL
//! model, down to the results, the telemetry and the stall report
//! (enforced by the lockstep harness); the wall-clock cost sits between
//! them.
//!
//! # Examples
//!
//! ```
//! use nocem::config::PaperConfig;
//! use nocem::compile::elaborate;
//! use nocem::SteppableEngine;
//! use nocem_tlm::model::TlmEngine;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = PaperConfig::new().total_packets(50).uniform();
//! let mut tlm = TlmEngine::new(elaborate(&cfg)?);
//! tlm.run()?;
//! assert_eq!(tlm.delivered(), 50);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod model;
pub mod scheduler;

pub use model::TlmEngine;
pub use scheduler::{Scheduler, SchedulerStats};
