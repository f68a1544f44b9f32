//! Platform configuration: everything the emulation flow needs to
//! build and run a platform.
//!
//! [`PlatformConfig`] is the input of step 1 of the paper's flow
//! ("platform compilation: setup of NoC parameters, type of TG/TR")
//! and step 3 ("platform initialization: setup the software with
//! emulation parameters"). The convenience constructors reproduce the
//! configurations of the paper's experimental section.

use crate::clock::ClockMode;
use nocem_common::ids::EndpointId;
use nocem_stats::TrKind;
use nocem_switch::arbiter::ArbiterKind;
use nocem_switch::config::SelectionPolicy;
use nocem_topology::builders::{paper_setup, PaperSetup, PAPER_OFFERED_LOAD};
use nocem_topology::routing::{FlowPaths, FlowSet, FlowSpec, RouteAlgorithm, VcPolicy};
use nocem_topology::Topology;
use nocem_traffic::generator::DestinationModel;
use nocem_traffic::stochastic::{BurstConfig, PoissonConfig, UniformConfig};
use nocem_traffic::trace::{synthesize_bursty, BurstyTraceSpec, Trace};

/// Traffic model assigned to one generator endpoint.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TrafficModel {
    /// Uniform stochastic TG.
    Uniform(UniformConfig),
    /// Burst (2-state Markov) stochastic TG.
    Burst(BurstConfig),
    /// Poisson stochastic TG.
    Poisson(PoissonConfig),
    /// Trace-driven TG replaying the events of its endpoint.
    Trace(Trace),
}

impl TrafficModel {
    /// Whether the model is trace-driven (drives the TR kind defaults
    /// and the area model).
    pub fn is_trace(&self) -> bool {
        matches!(self, TrafficModel::Trace(_))
    }
}

/// Routing configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum RoutingSpec {
    /// Compute tables with an algorithm.
    Algorithm(RouteAlgorithm),
    /// Use explicitly given paths (the paper setup pins its hot links
    /// this way).
    Explicit(Vec<FlowPaths>),
}

/// Per-switch parameters shared by all switches of the platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchSettings {
    /// Input buffer depth in flits, per virtual channel.
    pub fifo_depth: u8,
    /// Virtual channels per physical port (1 = the original single-VC
    /// platform; 2 suffices for dateline routing on rings and tori).
    pub num_vcs: u8,
    /// Output arbitration policy.
    pub arbiter: ArbiterKind,
    /// Multi-path selection policy.
    pub selection: SelectionPolicy,
    /// Initial credits on ejection (receptor-facing) outputs. `None`
    /// — the default, and the paper's platform — models an
    /// always-ready receptor as an infinite credit pool. A finite
    /// value caps the flits a receptor port can ever accept *without
    /// credit return* (receptors do not return credits), which drains
    /// to a guaranteed backpressure stall — the fixture the stall
    /// watchdog's forensics are tested against.
    pub ejection_credits: Option<u32>,
}

impl Default for SwitchSettings {
    fn default() -> Self {
        SwitchSettings {
            fifo_depth: 4,
            num_vcs: 1,
            arbiter: ArbiterKind::RoundRobin,
            selection: SelectionPolicy::First,
            ejection_credits: None,
        }
    }
}

/// Which emulation engine executes the platform.
///
/// All engine kinds implement the same cycle semantics (the behavioural
/// contract in `nocem-switch`); the kind only chooses *how* the work is
/// scheduled. Sweeps and the scenario matrix honour this field through
/// [`crate::sweep::run_config`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum EngineKind {
    /// The interpreted reference engine
    /// ([`crate::engine::Emulation`]).
    #[default]
    SingleThread,
    /// The compiled data-oriented engine
    /// ([`crate::compiled::CompiledEngine`]): the elaboration is
    /// lowered once into flat struct-of-arrays state (a single FIFO
    /// arena, dense credit/worm arrays; routes shared with the
    /// elaboration, not copied) and
    /// stepped as tight loops with no dynamic dispatch and no per-cycle
    /// allocation. Cycle-for-cycle identical to
    /// [`EngineKind::SingleThread`] (proven by the lockstep ledger
    /// tests), and 3–4.5× faster than it on busy platforms: the
    /// benchmark's `oracle.speedup` has read 3.2–4.4× on `sat_mesh8x8`
    /// (an 8×8 mesh at 40 % load).
    Compiled,
    /// Another name for [`EngineKind::Compiled`]:
    /// [`crate::sweep::AnyEngine`] builds the compiled engine at every
    /// shard count and ignores both fields. The variant stays only
    /// because the benchmark's `shard1_mesh8x8` workload names it; a
    /// change to the benchmark deletes it.
    ShardedCompiled {
        /// Ignored.
        shards: usize,
        /// Ignored.
        batch: u64,
    },
}

/// When the emulation stops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StopCondition {
    /// Stop once this many packets are delivered (`None`: run until
    /// every generator is exhausted and the network drained).
    pub delivered_packets: Option<u64>,
    /// Safety limit in cycles; exceeding it is an error.
    pub cycle_limit: u64,
}

impl Default for StopCondition {
    fn default() -> Self {
        StopCondition {
            delivered_packets: None,
            cycle_limit: 1_000_000_000,
        }
    }
}

/// Full description of an emulation platform plus its run parameters.
#[derive(Debug, Clone)]
pub struct PlatformConfig {
    /// Report name.
    pub name: String,
    /// The NoC structure.
    pub topology: Topology,
    /// The traffic flows — the only flow set a configuration has. A
    /// list for the paper platform, core graphs, permutations and
    /// anything written by hand ([`FlowSet::from`] a `Vec`); a function
    /// of the endpoints for the all-to-all synthetic patterns, whose
    /// list would be quadratic in the switch count
    /// ([`FlowSet::AllButSelf`]). Either way every `(destination,
    /// flow)` a generator's traffic model can emit must be one of
    /// these flows, leaving from that generator.
    pub flows: FlowSet,
    /// How flows are routed.
    pub routing: RoutingSpec,
    /// How the routed paths are labelled with virtual channels
    /// (applies to computed and explicit routing alike). Must stay
    /// within `switch.num_vcs`.
    pub vc_policy: VcPolicy,
    /// Switch parameters.
    pub switch: SwitchSettings,
    /// One traffic model per generator, in `topology.generators()`
    /// order.
    pub generators: Vec<TrafficModel>,
    /// One receptor kind per receptor, in `topology.receptors()`
    /// order.
    pub receptors: Vec<TrKind>,
    /// Source-queue capacity of every network interface, in packets.
    pub source_queue_capacity: usize,
    /// Stop condition.
    pub stop: StopCondition,
    /// Platform seed (register `SEED` of the control module); all
    /// device seeds derive from it.
    pub seed: u64,
    /// Record every accepted packet release into a trace.
    pub record_trace: bool,
    /// How the engines advance the clock: every cycle (bit-identical
    /// to the original platform) or hybrid clock-gated (jump over
    /// provably idle windows; cycle-equivalent, faster at low load).
    pub clock_mode: ClockMode,
    /// Which engine executes the platform (interpreted or compiled;
    /// cycle-equivalent either way).
    pub engine: EngineKind,
    /// Windowed telemetry collection (`None` = off, the default: no
    /// probe overhead). When set, every engine records per-link
    /// forwarded/blocked and per-VC occupancy series.
    pub telemetry: Option<nocem_telemetry::TelemetryConfig>,
    /// Emulator self-profiling (`None` = off, the default: no
    /// timestamp overhead, results unchanged). When set, every engine
    /// accumulates per-phase wall time of its step (see
    /// [`crate::profile`]), and the stall watchdog runs when
    /// [`crate::profile::ProfileConfig::stall`] is set.
    pub profile: Option<crate::profile::ProfileConfig>,
}

impl PlatformConfig {
    /// Baseline configuration over a topology: uniform TGs at the
    /// paper's 45 % load with 8-flit packets, one-to-one flows,
    /// shortest-path routing, stochastic receptors.
    ///
    /// # Errors
    ///
    /// Returns [`nocem_topology::TopologyError`] if one-to-one flow
    /// pairing is impossible.
    pub fn baseline(
        name: impl Into<String>,
        topology: Topology,
    ) -> Result<Self, nocem_topology::TopologyError> {
        let flows: FlowSet = FlowSpec::one_to_one(&topology)?.into();
        let generators = flows
            .iter()
            .map(|f| {
                TrafficModel::Uniform(UniformConfig::with_load(
                    PAPER_OFFERED_LOAD,
                    8,
                    None,
                    DestinationModel::Fixed {
                        dst: f.dst,
                        flow: f.flow,
                    },
                ))
            })
            .collect();
        let receptors = vec![TrKind::Stochastic; topology.receptors().len()];
        Ok(PlatformConfig {
            name: name.into(),
            topology,
            flows,
            routing: RoutingSpec::Algorithm(RouteAlgorithm::Shortest),
            vc_policy: VcPolicy::SingleVc,
            switch: SwitchSettings::default(),
            generators,
            receptors,
            source_queue_capacity: 16,
            stop: StopCondition::default(),
            seed: 0x5EED_0005,
            record_trace: false,
            clock_mode: ClockMode::default(),
            engine: EngineKind::default(),
            telemetry: None,
            profile: None,
        })
    }

    /// Sets the clock mode (builder-style convenience).
    #[must_use]
    pub fn with_clock_mode(mut self, mode: ClockMode) -> Self {
        self.clock_mode = mode;
        self
    }

    /// Sets the engine kind (builder-style convenience).
    #[must_use]
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Enables (or disables) windowed telemetry (builder-style
    /// convenience).
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Option<nocem_telemetry::TelemetryConfig>) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Enables (or disables) emulator self-profiling (builder-style
    /// convenience).
    #[must_use]
    pub fn with_profile(mut self, profile: Option<crate::profile::ProfileConfig>) -> Self {
        self.profile = profile;
        self
    }

    /// The per-generator packet budget that spreads `total_packets`
    /// over `n` generators (first generators absorb the remainder).
    pub fn split_budget(total_packets: u64, n: usize, index: usize) -> u64 {
        let base = total_packets / n as u64;
        let extra = total_packets % n as u64;
        base + u64::from((index as u64) < extra)
    }
}

/// Which routing case of the paper setup to use ("two routing
/// possibilities in two cases").
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PaperRouting {
    /// Single (primary) paths: the two hot links carry 2 × 45 %.
    Single,
    /// Both paths active; packets pick the secondary with the given
    /// probability.
    Dual {
        /// Probability of taking the detour path.
        secondary_probability: f64,
    },
}

/// Builder for the paper's experimental-setup configurations.
#[derive(Debug, Clone)]
pub struct PaperConfig {
    setup: PaperSetup,
    routing: PaperRouting,
    packet_flits: u16,
    total_packets: u64,
    seed: u64,
}

impl PaperConfig {
    /// Starts from the paper defaults: 8-flit packets, single-path
    /// routing, 40 000 packets in total.
    pub fn new() -> Self {
        PaperConfig {
            setup: paper_setup(),
            routing: PaperRouting::Single,
            packet_flits: 8,
            total_packets: 40_000,
            seed: 0x00DA_7E05,
        }
    }

    /// The underlying topology/flow setup.
    pub fn setup(&self) -> &PaperSetup {
        &self.setup
    }

    /// Sets the routing case.
    pub fn routing(mut self, routing: PaperRouting) -> Self {
        self.routing = routing;
        self
    }

    /// Sets the packet length in flits.
    ///
    /// # Panics
    ///
    /// Panics if `flits == 0`.
    pub fn packet_flits(mut self, flits: u16) -> Self {
        assert!(flits >= 1, "packets need at least one flit");
        self.packet_flits = flits;
        self
    }

    /// Sets the total number of packets over all four TGs.
    ///
    /// # Panics
    ///
    /// Panics if `packets == 0`.
    pub fn total_packets(mut self, packets: u64) -> Self {
        assert!(packets >= 1, "need at least one packet");
        self.total_packets = packets;
        self
    }

    /// Sets the platform seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn base(
        &self,
        name: String,
        generators: Vec<TrafficModel>,
        receptors: Vec<TrKind>,
    ) -> PlatformConfig {
        let (routing, selection) = match self.routing {
            PaperRouting::Single => (
                RoutingSpec::Explicit(self.setup.primary_paths.clone()),
                SelectionPolicy::First,
            ),
            PaperRouting::Dual {
                secondary_probability,
            } => (
                RoutingSpec::Explicit(self.setup.dual_paths.clone()),
                SelectionPolicy::random(secondary_probability),
            ),
        };
        PlatformConfig {
            name,
            topology: self.setup.topology.clone(),
            flows: self.setup.flows.clone().into(),
            routing,
            vc_policy: VcPolicy::SingleVc,
            switch: SwitchSettings {
                selection,
                ..SwitchSettings::default()
            },
            generators,
            receptors,
            source_queue_capacity: 16,
            stop: StopCondition {
                delivered_packets: Some(self.total_packets),
                ..StopCondition::default()
            },
            seed: self.seed,
            record_trace: false,
            clock_mode: ClockMode::default(),
            engine: EngineKind::default(),
            telemetry: None,
            profile: None,
        }
    }

    fn destination(&self, i: usize) -> DestinationModel {
        let f = self.setup.flows[i];
        DestinationModel::Fixed {
            dst: f.dst,
            flow: f.flow,
        }
    }

    /// Uniform stochastic traffic at 45 % per TG (Figure 2's baseline
    /// curve).
    pub fn uniform(&self) -> PlatformConfig {
        let generators = (0..4)
            .map(|i| {
                TrafficModel::Uniform(UniformConfig::with_load(
                    PAPER_OFFERED_LOAD,
                    self.packet_flits,
                    Some(PlatformConfig::split_budget(self.total_packets, 4, i)),
                    self.destination(i),
                ))
            })
            .collect();
        self.base(
            format!("paper-uniform-{}pkt", self.total_packets),
            generators,
            vec![TrKind::Stochastic; 4],
        )
    }

    /// Burst stochastic traffic at 45 % per TG (Figure 2's congested
    /// curve).
    ///
    /// # Panics
    ///
    /// Panics if `packets_per_burst == 0`.
    pub fn burst(&self, packets_per_burst: u32) -> PlatformConfig {
        let generators = (0..4)
            .map(|i| {
                TrafficModel::Burst(BurstConfig::with_load(
                    PAPER_OFFERED_LOAD,
                    packets_per_burst,
                    self.packet_flits,
                    Some(PlatformConfig::split_budget(self.total_packets, 4, i)),
                    self.destination(i),
                ))
            })
            .collect();
        self.base(
            format!("paper-burst{}-{}pkt", packets_per_burst, self.total_packets),
            generators,
            vec![TrKind::Stochastic; 4],
        )
    }

    /// Poisson stochastic traffic at 45 % per TG (the "other models"
    /// slide 9 mentions).
    pub fn poisson(&self) -> PlatformConfig {
        let generators = (0..4)
            .map(|i| {
                TrafficModel::Poisson(PoissonConfig::with_load(
                    PAPER_OFFERED_LOAD,
                    self.packet_flits,
                    Some(PlatformConfig::split_budget(self.total_packets, 4, i)),
                    self.destination(i),
                ))
            })
            .collect();
        self.base(
            format!("paper-poisson-{}pkt", self.total_packets),
            generators,
            vec![TrKind::Stochastic; 4],
        )
    }

    /// Trace-driven traffic with synthetic rectangular bursts of
    /// `packets_per_burst` packets (Figures 3 and 4).
    ///
    /// # Panics
    ///
    /// Panics if `packets_per_burst == 0`.
    pub fn trace_bursty(&self, packets_per_burst: u32) -> PlatformConfig {
        let generators = (0..4)
            .map(|i| {
                let f = self.setup.flows[i];
                let trace = synthesize_bursty(&BurstyTraceSpec {
                    src: f.src,
                    dst: f.dst,
                    flow: f.flow,
                    packets_per_burst,
                    flits_per_packet: self.packet_flits,
                    offered_load: PAPER_OFFERED_LOAD,
                    total_packets: PlatformConfig::split_budget(self.total_packets, 4, i),
                    seed: self.seed ^ (i as u64).wrapping_mul(0x9E37_79B9),
                });
                TrafficModel::Trace(trace)
            })
            .collect();
        self.base(
            format!(
                "paper-trace-b{}f{}-{}pkt",
                packets_per_burst, self.packet_flits, self.total_packets
            ),
            generators,
            vec![TrKind::TraceDriven; 4],
        )
    }

    /// The source endpoints, in generator order (for driving custom
    /// traces).
    pub fn sources(&self) -> Vec<EndpointId> {
        self.setup.topology.generators()
    }
}

impl Default for PaperConfig {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nocem_topology::builders::mesh;

    #[test]
    fn baseline_mesh_config() {
        let cfg = PlatformConfig::baseline("m", mesh(2, 2).unwrap()).unwrap();
        assert_eq!(cfg.generators.len(), 4);
        assert_eq!(cfg.receptors.len(), 4);
        assert!(matches!(cfg.routing, RoutingSpec::Algorithm(_)));
    }

    #[test]
    fn split_budget_distributes_remainder() {
        let total: u64 = (0..4).map(|i| PlatformConfig::split_budget(10, 4, i)).sum();
        assert_eq!(total, 10);
        assert_eq!(PlatformConfig::split_budget(10, 4, 0), 3);
        assert_eq!(PlatformConfig::split_budget(10, 4, 3), 2);
    }

    #[test]
    fn paper_uniform_config_shape() {
        let cfg = PaperConfig::new().total_packets(1_000).uniform();
        assert_eq!(cfg.generators.len(), 4);
        assert!(cfg.name.contains("uniform"));
        assert_eq!(cfg.stop.delivered_packets, Some(1_000));
        assert!(matches!(cfg.routing, RoutingSpec::Explicit(_)));
        assert_eq!(cfg.switch.selection, SelectionPolicy::First);
        let budgets: u64 = cfg
            .generators
            .iter()
            .map(|g| match g {
                TrafficModel::Uniform(u) => u.budget.unwrap(),
                _ => panic!("uniform expected"),
            })
            .sum();
        assert_eq!(budgets, 1_000);
    }

    #[test]
    fn paper_dual_routing_sets_random_selection() {
        let cfg = PaperConfig::new()
            .routing(PaperRouting::Dual {
                secondary_probability: 0.5,
            })
            .uniform();
        assert!(matches!(
            cfg.switch.selection,
            SelectionPolicy::Random { .. }
        ));
    }

    #[test]
    fn paper_burst_and_poisson_models() {
        let b = PaperConfig::new().burst(8);
        assert!(b
            .generators
            .iter()
            .all(|g| matches!(g, TrafficModel::Burst(_))));
        let p = PaperConfig::new().poisson();
        assert!(p
            .generators
            .iter()
            .all(|g| matches!(g, TrafficModel::Poisson(_))));
    }

    #[test]
    fn paper_trace_config_builds_bursty_traces() {
        let cfg = PaperConfig::new()
            .total_packets(400)
            .packet_flits(4)
            .trace_bursty(8);
        assert!(cfg.generators.iter().all(TrafficModel::is_trace));
        assert_eq!(cfg.receptors, vec![TrKind::TraceDriven; 4]);
        if let TrafficModel::Trace(t) = &cfg.generators[0] {
            assert_eq!(t.len(), 100);
        }
    }

    #[test]
    fn stop_condition_defaults() {
        let s = StopCondition::default();
        assert_eq!(s.delivered_packets, None);
        assert!(s.cycle_limit > 0);
    }

    #[test]
    #[should_panic(expected = "at least one flit")]
    fn zero_flits_rejected() {
        let _ = PaperConfig::new().packet_flits(0);
    }
}
