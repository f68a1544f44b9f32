//! # nocem-topology — NoC structure substrate
//!
//! This crate models the *static* side of the emulated NoC — the
//! paper's "switch topology" and "switch parameters":
//!
//! * [`graph`] — switches, endpoints (traffic generators/receptors)
//!   and unidirectional links, built through
//!   [`graph::TopologyBuilder`] and validated on freeze;
//! * [`builders`] — ready-made meshes, tori, rings, stars, and
//!   [`builders::paper_setup`], the exact 6-switch / 4 TG / 4 TR
//!   configuration of the paper's experimental section with its two
//!   90 %-loaded hot links;
//! * [`routing`] — flow-indexed routing tables computed by shortest
//!   path or Yen's k-shortest paths (the paper's "two routing
//!   possibilities") or built from explicit paths, and — for XY and
//!   minimal torus XY (wrap-around aware) on meshes and tori — one
//!   arithmetic [`routing::GridRouter`] instead of any table; hops
//!   carry virtual-channel labels per [`routing::VcPolicy`] (dateline
//!   scheme for rings/tori);
//! * [`deadlock`] — channel-dependency-graph cycle detection, per
//!   virtual channel;
//! * [`partition`] — switch-graph partitioning (the grid-stripe
//!   partitioner [`partition::grid_stripes`]) and boundary-link
//!   enumeration for the sharded emulation engine;
//! * [`analysis`] — analytic offered-load prediction per link
//!   (validates the 45 % / 90 % numbers before any emulation runs).
//!
//! # Examples
//!
//! ```
//! use nocem_topology::analysis::{predict_link_loads, SplitModel};
//! use nocem_topology::builders::paper_setup;
//! use nocem_topology::deadlock::check_routing_deadlock_freedom;
//! use nocem_topology::routing::RoutingTables;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let setup = paper_setup();
//! let dual = RoutingTables::from_paths(&setup.topology, setup.dual_paths.clone())?;
//! check_routing_deadlock_freedom(&setup.topology, &dual)?;
//! let loads = predict_link_loads(
//!     &setup.topology,
//!     &setup.primary_paths,
//!     &[0.45; 4],
//!     SplitModel::PrimaryOnly,
//! );
//! assert!((loads[setup.hot_links[0].index()] - 0.90).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod builders;
pub mod deadlock;
pub mod graph;
pub mod partition;
pub mod routing;

pub use graph::{EndpointKind, GridInfo, Link, LinkEnd, Topology, TopologyBuilder};
pub use partition::{grid_stripes, PartitionMap};
pub use routing::{
    FlowPaths, FlowSet, FlowSpec, Path, RouteAlgorithm, RouteHop, RoutingTables, VcPolicy,
};

use nocem_common::ids::{EndpointId, FlowId, SwitchId};

/// Errors produced while building topologies or routing tables.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TopologyError {
    /// The topology has no switches (or a builder dimension was zero).
    Empty,
    /// No traffic generator is attached anywhere.
    NoGenerators,
    /// No traffic receptor is attached anywhere.
    NoReceptors,
    /// A switch ended up with zero input or zero output ports.
    DisconnectedSwitch {
        /// The offending switch.
        switch: SwitchId,
    },
    /// A generator cannot reach any receptor.
    UnreachableReceptors {
        /// The stranded generator.
        generator: EndpointId,
    },
    /// `one_to_one` pairing needs equally many generators and
    /// receptors.
    FlowMismatch {
        /// Number of generators found.
        generators: usize,
        /// Number of receptors found.
        receptors: usize,
    },
    /// No path exists for a flow.
    NoRoute {
        /// The unroutable flow.
        flow: FlowId,
    },
    /// An explicitly supplied path is malformed.
    InvalidPath {
        /// The flow whose path is malformed.
        flow: FlowId,
        /// What is wrong with it.
        reason: String,
    },
    /// A flow endpoint has the wrong kind (e.g. a receptor used as a
    /// source).
    WrongEndpointKind {
        /// The offending endpoint.
        endpoint: EndpointId,
        /// The kind that was required.
        expected: EndpointKind,
    },
    /// XY routing requires grid metadata, which this topology lacks.
    GridRequired,
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::Empty => write!(f, "topology has no switches"),
            TopologyError::NoGenerators => write!(f, "topology has no traffic generators"),
            TopologyError::NoReceptors => write!(f, "topology has no traffic receptors"),
            TopologyError::DisconnectedSwitch { switch } => {
                write!(f, "switch {switch} has no input or no output ports")
            }
            TopologyError::UnreachableReceptors { generator } => {
                write!(f, "generator {generator} cannot reach any receptor")
            }
            TopologyError::FlowMismatch {
                generators,
                receptors,
            } => write!(
                f,
                "one-to-one pairing needs equal counts, found {generators} generators and {receptors} receptors"
            ),
            TopologyError::NoRoute { flow } => write!(f, "no route for flow {flow}"),
            TopologyError::InvalidPath { flow, reason } => {
                write!(f, "invalid path for flow {flow}: {reason}")
            }
            TopologyError::WrongEndpointKind { endpoint, expected } => {
                write!(f, "endpoint {endpoint} must be a {expected}")
            }
            TopologyError::GridRequired => {
                write!(f, "XY routing requires a topology with grid metadata")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_lowercase_without_period() {
        let msgs = [
            TopologyError::Empty.to_string(),
            TopologyError::NoGenerators.to_string(),
            TopologyError::GridRequired.to_string(),
            TopologyError::NoRoute {
                flow: FlowId::new(3),
            }
            .to_string(),
        ];
        for m in msgs {
            assert!(!m.ends_with('.'), "no trailing period: {m}");
        }
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<TopologyError>();
    }
}
