//! # nocem-curves — saturation search and latency–throughput curves
//!
//! The canonical evaluation output of every NoC tool: for a scenario ×
//! topology, sweep the offered load, measure steady-state latency and
//! *accepted* throughput at each point, and locate the saturation load
//! — the knee past which accepted throughput plateaus while latency
//! diverges. This crate turns any `nocem-scenarios` registry entry
//! into that curve, on any engine and clock mode:
//!
//! * [`measure`] — the steady-state measurement harness: one load
//!   point runs *open-loop* (budgets uncapped) for a configurable
//!   warm-up plus measurement window, then reads offered vs accepted
//!   throughput (flits/cycle/node) and p50/p95/p99 latency out of the
//!   packet ledger through `nocem-stats`' windowed extraction;
//! * [`search`] — the adaptive load controller: a coarse ramp until a
//!   point saturates (accepted throughput falls short of offered, or
//!   mean latency exceeds a multiple of the zero-load latency),
//!   then bisection to pin the saturation load within a configured
//!   tolerance;
//! * [`runner`] — the parallel curve runner: many curves across
//!   `nocem`'s sweep scheduler, one CSV row per (scenario, topology,
//!   load point) plus a per-curve saturation summary.
//!
//! Curves honour [`nocem::ClockMode::Gated`] and
//! [`nocem::config::EngineKind`]: the measured statistics are selected
//! by absolute cycle from a ledger that is proven identical across
//! clock modes and engines, so a gated compiled sweep produces the
//! same curve as an ungated interpreted one — only faster.
//! Routing tables are elaborated once per curve and reused across
//! every load point and bisection step.
//!
//! # Examples
//!
//! ```no_run
//! use nocem_curves::search::CurveSpec;
//! use nocem_scenarios::registry::ScenarioRegistry;
//! use nocem_scenarios::scenario::TopologySpec;
//!
//! let registry = ScenarioRegistry::builtin();
//! let spec = CurveSpec::new(
//!     "uniform_random",
//!     TopologySpec::Mesh { width: 4, height: 4 },
//! );
//! let curve = spec.run(&registry).unwrap();
//! println!(
//!     "saturation at load {:.3} ({} points)",
//!     curve.saturation.saturation_load,
//!     curve.points.len()
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod measure;
pub mod runner;
pub mod search;

pub use measure::{MeasureConfig, PointMeasurement, PointTelemetry, TOP_LINKS};
pub use runner::{CurveSetOutcome, CurveSetSpec};
pub use search::{Curve, CurvePoint, CurveSpec, PointPhase, SaturationSummary, SearchConfig};

use nocem::error::{CompileError, EmulationError};
use nocem_scenarios::ScenarioError;

/// Failure of a curve measurement or search.
#[derive(Debug)]
#[non_exhaustive]
pub enum CurveError {
    /// The scenario could not be resolved or bound to the topology.
    Scenario(ScenarioError),
    /// The platform failed to compile (routing, deadlock, VC range).
    Compile(CompileError),
    /// A measurement run failed.
    Emulation(EmulationError),
}

impl std::fmt::Display for CurveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CurveError::Scenario(e) => write!(f, "curve scenario failed: {e}"),
            CurveError::Compile(e) => write!(f, "curve platform failed to compile: {e}"),
            CurveError::Emulation(e) => write!(f, "curve measurement failed: {e}"),
        }
    }
}

impl std::error::Error for CurveError {}

impl From<ScenarioError> for CurveError {
    fn from(e: ScenarioError) -> Self {
        CurveError::Scenario(e)
    }
}

impl From<CompileError> for CurveError {
    fn from(e: CompileError) -> Self {
        CurveError::Compile(e)
    }
}

impl From<EmulationError> for CurveError {
    fn from(e: EmulationError) -> Self {
        CurveError::Emulation(e)
    }
}
