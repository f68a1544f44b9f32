//! # nocem-scenarios — scenario & workload subsystem
//!
//! The paper demonstrates its emulation framework on a single 6-switch
//! setup with uniform and burst traffic. Every serious NoC evaluation
//! since runs a *matrix* of topologies × traffic patterns × loads, plus
//! application workloads. This crate turns the framework into that
//! workload library:
//!
//! * [`patterns`] — the eight classic **synthetic spatial traffic
//!   patterns** (uniform-random, transpose, bit-complement,
//!   bit-reversal, shuffle, tornado, hotspot, nearest-neighbor),
//!   parameterized over any `nocem-topology` mesh/torus/ring and
//!   lowered into per-TG destination distributions of
//!   `nocem-traffic`;
//! * [`coregraph`] — a small **application core-graph IR** (cores,
//!   directed flows with bandwidth weights), two bundled graphs
//!   modeled on the classic MPEG-4 decoder and VOPD benchmarks, and a
//!   greedy bandwidth-aware mapper onto generated topologies;
//! * [`scenario`] — named topology specs and the glue that turns a
//!   (pattern, topology, load) triple into a ready-to-run
//!   `nocem::PlatformConfig` with a deterministic per-scenario seed;
//! * [`registry`] — the scenario registry: name → recipe lookup over
//!   the built-in catalogue plus user registrations;
//! * [`matrix`] — the **scenario-matrix runner**: expands
//!   `scenarios × topologies × loads` once into points that
//!   carry their configurations, runs them in parallel through
//!   `nocem::sweep::run_sweep_indexed`, and aggregates one CSV.
//!
//! Every grid of runs — this crate's matrix and `nocem-curves`' curve
//! set — skips a combination by one rule,
//! [`ScenarioError::is_inapplicable`], and records it as a
//! [`SkippedPoint`].
//!
//! # Example
//!
//! ```
//! use nocem_scenarios::matrix::MatrixSpec;
//! use nocem_scenarios::registry::ScenarioRegistry;
//! use nocem_scenarios::scenario::TopologySpec;
//!
//! let registry = ScenarioRegistry::builtin();
//! let spec = MatrixSpec {
//!     scenarios: vec!["transpose".into(), "tornado".into()],
//!     topologies: vec![TopologySpec::Mesh { width: 4, height: 4 }],
//!     loads: vec![0.10],
//!     packet_flits: 4,
//!     packets_per_point: 400,
//!     // Hybrid clock gating: identical results, fewer stepped cycles.
//!     clock_mode: nocem::ClockMode::Gated,
//! };
//! let outcome = spec.run(&registry, 2).unwrap();
//! assert_eq!(outcome.rows.len(), 2);
//! assert!(outcome.rows.iter().all(|r| r.results.delivered == 400));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coregraph;
pub mod matrix;
pub mod patterns;
pub mod registry;
pub mod scenario;

pub use coregraph::{mpeg4_decoder, vopd, CoreFlow, CoreGraph, CoreGraphWorkload, Mapping};
pub use matrix::{MatrixError, MatrixOutcome, MatrixPoint, MatrixRow, MatrixSpec};
pub use patterns::{PatternTraffic, SyntheticPattern};
pub use registry::{Scenario, ScenarioKind, ScenarioRegistry};
pub use scenario::{scenario_seed, ScenarioSpec, TopologySpec};

use nocem_common::ids::SwitchId;

/// Errors raised while constructing scenarios.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ScenarioError {
    /// The requested scenario name is not in the registry.
    UnknownScenario {
        /// The name that failed to resolve.
        name: String,
    },
    /// A synthetic pattern cannot be instantiated on this topology.
    NotApplicable {
        /// Pattern name.
        pattern: &'static str,
        /// Topology name.
        topology: String,
        /// Why the combination is invalid.
        reason: String,
    },
    /// The topology itself failed to build or route.
    Topology(nocem_topology::TopologyError),
    /// A core graph cannot be mapped onto the topology.
    Mapping {
        /// Core-graph name.
        graph: String,
        /// Why the mapping failed.
        reason: String,
    },
    /// A core graph is malformed (dangling core index, negative
    /// bandwidth, …).
    MalformedGraph {
        /// Core-graph name.
        graph: String,
        /// Why the graph is invalid.
        reason: String,
    },
    /// The per-point packet budget is too small for the scenario
    /// (every active generator needs at least one packet). A sizing
    /// problem of the run, not of the scenario — a grid of runs skips
    /// such points instead of aborting.
    BudgetTooSmall {
        /// Scenario (core-graph) name.
        scenario: String,
        /// Packets the point would need at minimum.
        needed: u64,
        /// Packets the spec offered.
        available: u64,
    },
}

impl ScenarioError {
    /// Whether the error is an expected hole in a grid of runs rather
    /// than a failure: a pattern that does not fit the topology, a core
    /// graph with too few switches, or a budget too small for the
    /// point. The scenario matrix and the curve set skip such a
    /// combination and go on.
    pub fn is_inapplicable(&self) -> bool {
        matches!(
            self,
            ScenarioError::NotApplicable { .. }
                | ScenarioError::Mapping { .. }
                | ScenarioError::BudgetTooSmall { .. }
        )
    }
}

/// One combination a grid of runs skipped
/// ([`ScenarioError::is_inapplicable`]), with the reason.
#[derive(Debug, Clone)]
pub struct SkippedPoint {
    /// The label the combination would have had.
    pub label: String,
    /// Why it cannot run.
    pub reason: ScenarioError,
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::UnknownScenario { name } => {
                write!(f, "unknown scenario {name:?}")
            }
            ScenarioError::NotApplicable {
                pattern,
                topology,
                reason,
            } => write!(
                f,
                "pattern {pattern} not applicable to {topology}: {reason}"
            ),
            ScenarioError::Topology(e) => write!(f, "topology error: {e}"),
            ScenarioError::Mapping { graph, reason } => {
                write!(f, "cannot map core graph {graph}: {reason}")
            }
            ScenarioError::MalformedGraph { graph, reason } => {
                write!(f, "malformed core graph {graph}: {reason}")
            }
            ScenarioError::BudgetTooSmall {
                scenario,
                needed,
                available,
            } => write!(
                f,
                "{scenario} needs at least {needed} packets per point, got {available}"
            ),
        }
    }
}

impl std::error::Error for ScenarioError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScenarioError::Topology(e) => Some(e),
            _ => None,
        }
    }
}

impl From<nocem_topology::TopologyError> for ScenarioError {
    fn from(e: nocem_topology::TopologyError) -> Self {
        ScenarioError::Topology(e)
    }
}

/// Orders switches by distance from the topology's "center": grid
/// center for meshes/tori, id order otherwise. Ties break by id so the
/// order is deterministic. Used by the hotspot pattern (hotspots sit
/// in the center, where they hurt most) and the core-graph mapper
/// (high-traffic cores want central placement).
fn switches_center_out(topo: &nocem_topology::Topology) -> Vec<SwitchId> {
    let mut ids: Vec<SwitchId> = topo.switch_ids().collect();
    if let Some(grid) = topo.grid() {
        let (cx, cy) = (
            f64::from(grid.width - 1) / 2.0,
            f64::from(grid.height - 1) / 2.0,
        );
        ids.sort_by_key(|&s| {
            let (x, y) = grid.coords(s);
            let d = (f64::from(x) - cx).abs() + (f64::from(y) - cy).abs();
            // Scale to an integer key; grids are far smaller than 1e6.
            ((d * 1_000_000.0) as u64, s.raw())
        });
    }
    ids
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display() {
        let e = ScenarioError::UnknownScenario {
            name: "nope".into(),
        };
        assert!(e.to_string().contains("nope"));
        let e = ScenarioError::NotApplicable {
            pattern: "transpose",
            topology: "ring8".into(),
            reason: "needs a square grid".into(),
        };
        assert!(e.to_string().contains("transpose"));
        assert!(e.to_string().contains("ring8"));
    }

    #[test]
    fn center_out_order_on_mesh() {
        let m = nocem_topology::builders::mesh(3, 3).unwrap();
        let order = switches_center_out(&m);
        // 3x3 center is switch 4.
        assert_eq!(order[0], SwitchId::new(4));
        assert_eq!(order.len(), 9);
    }

    #[test]
    fn center_out_order_without_grid_is_id_order() {
        let r = nocem_topology::builders::ring(5).unwrap();
        let order = switches_center_out(&r);
        assert_eq!(order, (0..5).map(SwitchId::new).collect::<Vec<_>>());
    }
}
