//! From (pattern, topology, load) to a runnable platform
//! configuration.
//!
//! [`TopologySpec`] names a generated topology the way the matrix
//! runner and CSV rows refer to it; [`ScenarioSpec`] binds a
//! [`SyntheticPattern`] to a topology, an offered load, and packet
//! parameters, and lowers the combination into a
//! [`nocem::PlatformConfig`] with a deterministic seed derived from
//! the scenario name ([`scenario_seed`]).

use crate::patterns::SyntheticPattern;
use crate::ScenarioError;
use nocem::config::{PlatformConfig, RoutingSpec, StopCondition, SwitchSettings, TrafficModel};
use nocem_stats::TrKind;
use nocem_topology::builders;
use nocem_topology::routing::{ring_minimal_path, FlowPaths, FlowSet, RouteAlgorithm, VcPolicy};
use nocem_topology::Topology;
use nocem_traffic::stochastic::UniformConfig;

/// A named, generated topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum TopologySpec {
    /// `width × height` 2-D mesh.
    Mesh {
        /// Columns.
        width: u32,
        /// Rows.
        height: u32,
    },
    /// `width × height` 2-D torus.
    Torus {
        /// Columns.
        width: u32,
        /// Rows.
        height: u32,
    },
    /// Ring of `switches` switches.
    Ring {
        /// Switch count.
        switches: u32,
    },
}

impl TopologySpec {
    /// Stable name used in scenario labels and CSV rows
    /// (`mesh4x4`, `torus4x4`, `ring8`).
    pub fn name(&self) -> String {
        match self {
            TopologySpec::Mesh { width, height } => format!("mesh{width}x{height}"),
            TopologySpec::Torus { width, height } => format!("torus{width}x{height}"),
            TopologySpec::Ring { switches } => format!("ring{switches}"),
        }
    }

    /// Builds the topology.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Topology`] for degenerate dimensions.
    pub fn build(&self) -> Result<Topology, ScenarioError> {
        Ok(match *self {
            TopologySpec::Mesh { width, height } => builders::mesh(width, height)?,
            TopologySpec::Torus { width, height } => builders::torus(width, height)?,
            TopologySpec::Ring { switches } => builders::ring(switches)?,
        })
    }
}

/// The routing a scenario applies to its topology: the route spec
/// plus the virtual-channel scheme that keeps it deadlock-free.
#[derive(Debug, Clone)]
pub struct ScenarioRouting {
    /// How flows are routed.
    pub routing: RoutingSpec,
    /// How paths are labelled with virtual channels.
    pub vc_policy: VcPolicy,
    /// Virtual channels the switches need for the labels.
    pub num_vcs: u8,
}

/// Deadlock-free *minimal* routing for a scenario topology and flow
/// set:
///
/// * meshes route dimension-ordered XY on a single VC (acyclic channel
///   dependencies, the classic result);
/// * tori route dimension-ordered XY taking the shorter direction
///   around each dimension — wrap-around links included — on 2 VCs
///   with a dateline assignment;
/// * rings route the shorter arc — crossing the wrap-around when it is
///   nearer — on 2 VCs with a dateline assignment (the line-routing
///   restriction the single-VC platform needed is gone);
/// * anything else falls back to shortest-path on a single VC.
pub fn scenario_routing(topo: &Topology, flows: &FlowSet) -> ScenarioRouting {
    if topo.grid().is_some() {
        // A torus is a grid with wrap links; a mesh has none. (Tori
        // with both dimensions <= 2 degenerate to meshes.)
        let is_torus = topo.has_wrap_links();
        return if is_torus {
            ScenarioRouting {
                routing: RoutingSpec::Algorithm(RouteAlgorithm::TorusXy),
                vc_policy: VcPolicy::Dateline,
                num_vcs: 2,
            }
        } else {
            ScenarioRouting {
                routing: RoutingSpec::Algorithm(RouteAlgorithm::Xy),
                vc_policy: VcPolicy::SingleVc,
                num_vcs: 1,
            }
        };
    }
    if topo.is_switch_ring() && topo.switch_count() >= 3 {
        let n = topo.switch_count() as u32;
        let paths = flows
            .iter()
            .map(|spec| {
                let a = topo.endpoint(spec.src).switch;
                let b = topo.endpoint(spec.dst).switch;
                FlowPaths {
                    spec,
                    paths: vec![ring_minimal_path(n, a, b)],
                }
            })
            .collect();
        return ScenarioRouting {
            routing: RoutingSpec::Explicit(paths),
            vc_policy: VcPolicy::Dateline,
            num_vcs: 2,
        };
    }
    ScenarioRouting {
        routing: RoutingSpec::Algorithm(RouteAlgorithm::Shortest),
        vc_policy: VcPolicy::SingleVc,
        num_vcs: 1,
    }
}

impl std::fmt::Display for TopologySpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

/// Deterministic seed derived from a scenario name (FNV-1a), so a
/// scenario always replays identically — across runs, thread counts
/// and machines — without any seed bookkeeping by the caller.
pub fn scenario_seed(name: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    // Avoid the degenerate all-zero platform seed.
    h | 1
}

/// A fully-bound synthetic scenario: pattern × topology × load plus
/// packet parameters.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// The spatial pattern.
    pub pattern: SyntheticPattern,
    /// The topology to run it on.
    pub topology: TopologySpec,
    /// Offered load per generator, fraction of link bandwidth in
    /// `(0, 1)`.
    pub load: f64,
    /// Packet length in flits.
    pub packet_flits: u16,
    /// Total packets over all generators.
    pub total_packets: u64,
}

impl ScenarioSpec {
    /// Canonical label: `pattern@topology@load`, e.g.
    /// `tornado@mesh4x4@0.3`. The load uses `f64`'s exact shortest
    /// representation so distinct loads never collapse into one
    /// label (and therefore one seed). Doubles as the seed source.
    pub fn label(&self) -> String {
        format!(
            "{}@{}@{}",
            self.pattern.name(),
            self.topology.name(),
            self.load
        )
    }

    /// The deterministic platform seed of this scenario.
    pub fn seed(&self) -> u64 {
        scenario_seed(&self.label())
    }

    /// Lowers the scenario into a runnable configuration: builds the
    /// topology, expands the pattern into flows and destination
    /// models, splits the packet budget over the generators, and
    /// seeds the platform from the scenario label.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError`] when the topology cannot be built or
    /// the pattern is not applicable to it.
    ///
    /// # Panics
    ///
    /// Panics if `load` is outside `(0, 1)`, `packet_flits == 0` or
    /// `total_packets == 0` — caller configuration bugs.
    pub fn build_config(&self) -> Result<PlatformConfig, ScenarioError> {
        assert!(
            self.load > 0.0 && self.load < 1.0,
            "offered load must be in (0, 1)"
        );
        assert!(self.packet_flits >= 1, "packets need at least one flit");
        assert!(self.total_packets >= 1, "need at least one packet");

        let topo = self.topology.build()?;
        let traffic = self.pattern.traffic(&topo)?;
        let n = traffic.destinations.len();
        let generators: Vec<TrafficModel> = traffic
            .destinations
            .into_iter()
            .enumerate()
            .map(|(i, dst)| {
                TrafficModel::Uniform(UniformConfig::with_load(
                    self.load,
                    self.packet_flits,
                    Some(PlatformConfig::split_budget(self.total_packets, n, i)),
                    dst,
                ))
            })
            .collect();
        let receptors = vec![TrKind::Stochastic; topo.receptors().len()];
        let routing = scenario_routing(&topo, &traffic.flows);
        Ok(PlatformConfig {
            name: self.label(),
            flows: traffic.flows,
            routing: routing.routing,
            vc_policy: routing.vc_policy,
            switch: SwitchSettings {
                num_vcs: routing.num_vcs,
                ..SwitchSettings::default()
            },
            generators,
            receptors,
            source_queue_capacity: 16,
            stop: StopCondition {
                delivered_packets: Some(self.total_packets),
                ..StopCondition::default()
            },
            seed: self.seed(),
            record_trace: false,
            clock_mode: nocem::ClockMode::default(),
            engine: nocem::config::EngineKind::default(),
            telemetry: None,
            profile: None,
            topology: topo,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_spec_names() {
        assert_eq!(
            TopologySpec::Mesh {
                width: 4,
                height: 4
            }
            .name(),
            "mesh4x4"
        );
        assert_eq!(
            TopologySpec::Torus {
                width: 2,
                height: 3
            }
            .name(),
            "torus2x3"
        );
        assert_eq!(TopologySpec::Ring { switches: 8 }.name(), "ring8");
    }

    #[test]
    fn seeds_are_deterministic_and_distinct() {
        assert_eq!(
            scenario_seed("tornado@mesh4x4@0.3"),
            scenario_seed("tornado@mesh4x4@0.3")
        );
        assert_ne!(
            scenario_seed("tornado@mesh4x4@0.3"),
            scenario_seed("tornado@mesh4x4@0.1")
        );
        assert_ne!(scenario_seed("a"), scenario_seed("b"));
        // Seeds are never zero.
        assert_ne!(scenario_seed(""), 0);
    }

    #[test]
    fn build_config_shapes_up() {
        let spec = ScenarioSpec {
            pattern: SyntheticPattern::Transpose,
            topology: TopologySpec::Mesh {
                width: 4,
                height: 4,
            },
            load: 0.2,
            packet_flits: 4,
            total_packets: 160,
        };
        let cfg = spec.build_config().unwrap();
        assert_eq!(cfg.name, "transpose@mesh4x4@0.2");
        assert_eq!(cfg.generators.len(), 16);
        assert_eq!(cfg.receptors.len(), 16);
        assert_eq!(cfg.stop.delivered_packets, Some(160));
        assert_eq!(cfg.seed, spec.seed());
        // Budgets cover the total exactly.
        let total: u64 = cfg
            .generators
            .iter()
            .map(|g| match g {
                TrafficModel::Uniform(u) => u.budget.unwrap(),
                _ => unreachable!(),
            })
            .sum();
        assert_eq!(total, 160);
    }

    #[test]
    fn inapplicable_pattern_is_reported() {
        let spec = ScenarioSpec {
            pattern: SyntheticPattern::Transpose,
            topology: TopologySpec::Ring { switches: 8 },
            load: 0.2,
            packet_flits: 4,
            total_packets: 100,
        };
        assert!(matches!(
            spec.build_config(),
            Err(ScenarioError::NotApplicable { .. })
        ));
    }
}
