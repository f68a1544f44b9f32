//! # nocem — a complete Network-on-Chip emulation framework
//!
//! Rust reproduction of *"A Complete Network-on-Chip Emulation
//! Framework"* (Genko, Atienza, De Micheli, Mendias, Hermida,
//! Catthoor — DATE 2005): a cycle-accurate, HW/SW-structured NoC
//! emulation platform with stochastic and trace-driven traffic
//! generators, statistics receptors, a memory-mapped control bus, an
//! FPGA synthesis model, and the full six-step emulation flow.
//!
//! The FPGA of the paper is replaced by a cycle-accurate software
//! engine (one [`SteppableEngine::step`] per platform clock); the
//! SystemC and ModelSim baselines of the paper's Table 2 are provided
//! by the companion crates `nocem-tlm` and `nocem-rtl`, which run the
//! *same elaboration*, wired once by [`process::ProcessModel`], through
//! slower simulation kernels.
//!
//! ## Quickstart
//!
//! ```
//! use nocem::config::PaperConfig;
//! use nocem::flow::run_flow;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The paper's experimental setup: 6 switches, 4 TGs at 45% load,
//! // two inter-switch links at 90%.
//! let config = PaperConfig::new().total_packets(1_000).uniform();
//! let report = run_flow(&config)?;
//! assert_eq!(report.results.delivered, 1_000);
//! println!("{}", report.report_text);
//! # Ok(())
//! # }
//! ```
//!
//! ## Module map
//!
//! | Module | Flow step | Content |
//! |---|---|---|
//! | [`config`] | 1, 3 | platform + run configuration, paper presets |
//! | [`compile`] | 1 | elaboration: components, wiring, address map |
//! | [`flow`] | 1–6 | the complete emulation flow |
//! | [`board`] | 3, 6 | the memory-mapped bus the software sees, over any engine |
//! | [`engine`] | 5 | the interpreted platform ([`engine::Platform`], shared with [`process`]) and the cycle engine over it |
//! | [`compiled`] | 5 | the compiled engine: the elaboration lowered to flat arrays |
//! | [`process`] | 5 | the process model: the platform wired once over a channel [`process::Fabric`], the kernel of the TLM and RTL baselines |
//! | [`clock`] | 5 | the run-level half of every engine: [`clock::RunState`], the [`clock::CycleKernel`] trait, the one step skeleton and generic [`clock::SteppableEngine`] impl, clock modes, quiescence, the fast-forward kernel |
//! | [`devices`] | 3, 6 | register views and typed drivers |
//! | [`profile`] | 5, 6 | engine self-profiling: per-cycle phase timers, stall forensics |
//! | [`view`] | 5, 6 | the architectural-state view every engine fills, and the probe, wait-for edges, congestion counters and watermarks read over it |
//! | [`results`] | 6 | run results and the monitor report |
//! | [`sweep`] | — | the one scheduler for grids of runs, and the config → engine dispatcher |
//! | [`error`] | — | compile/run error types |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod board;
mod calendar;
pub mod clock;
pub mod compile;
pub mod compiled;
pub mod config;
pub mod devices;
pub mod engine;
pub mod error;
pub mod flow;
pub mod process;
pub mod profile;
pub mod results;
pub mod sweep;
pub mod view;

pub use board::Board;
pub use clock::{
    run_engine, run_engine_until, run_engine_with_progress, ClockMode, CycleKernel, EngineSummary,
    RunState, SteppableEngine,
};
pub use compile::{
    compute_routing, elaborate, elaborate_routed, lower, Elaboration, LoweredPlatform,
};
pub use compiled::CompiledEngine;
pub use config::{
    EngineKind, PaperConfig, PaperRouting, PlatformConfig, StopCondition, TrafficModel,
};
pub use engine::{build, Emulation, Platform};
pub use error::{CompileError, EmulationError};
pub use flow::{run_flow, run_flow_on, FlowReport};
pub use process::{Fabric, ProcessModel};
pub use profile::{
    Phase, PhaseProfiler, PhaseReport, ProfileConfig, StallConfig, StallReport, WaitEdge,
    WorkCounters,
};
pub use results::EmulationResults;
pub use sweep::{run_config, run_sweep, run_sweep_indexed, AnyEngine};
pub use view::ArchView;
