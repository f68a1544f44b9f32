//! Platform compilation: from a [`PlatformConfig`] to instantiated
//! components (step 1 of the paper's emulation flow).
//!
//! [`elaborate`] validates the configuration, computes the routing (a
//! shared grid router or flow-keyed tables), checks deadlock freedom,
//! predicts link loads, instantiates the network interfaces, traffic
//! generators and receptors, records each switch's parameters (LFSR
//! seed, credit caps), all seeds derived from the platform seed, and
//! allocates the bus address map.
//!
//! The result, [`Elaboration`], is engine-agnostic: every engine
//! consumes the same elaboration — the interpreted ones build their
//! switches from it in [`crate::Platform::new`], the compiled ones
//! [`lower`] it — which is what makes their runs comparable flit for
//! flit.

use crate::config::{PlatformConfig, RoutingSpec, TrafficModel};
use crate::error::CompileError;
use nocem_common::ids::{EndpointId, FlowId, LinkId, PortId, SwitchId};
use nocem_common::rng::{Lfsr16, SplitMix64};
use nocem_common::route::GridRouter;
use nocem_platform::bus::{AddressMap, DeviceClass};
use nocem_stats::receptor::Receptor;
use nocem_switch::arbiter::ArbiterKind;
use nocem_switch::config::{SelectionPolicy, SwitchConfig, SwitchConfigBuilder};
use nocem_switch::switch::{Switch, CREDITS_INFINITE};
use nocem_topology::deadlock::check_routing_deadlock_freedom;
use nocem_topology::graph::LinkEnd;
use nocem_topology::routing::{FlowPaths, FlowSet, RoutingTables};
use nocem_traffic::generator::{DestinationModel, LengthModel, TrafficGenerator};
use nocem_traffic::ni::SourceNi;
use nocem_traffic::stochastic::{StochasticTg, UniformConfig};
use nocem_traffic::trace::TraceDrivenTg;
use std::sync::Arc;

/// Destination of a switch output port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutTarget {
    /// Another switch's input port.
    Switch {
        /// Downstream switch index.
        switch: usize,
        /// Its input port.
        port: PortId,
    },
    /// A traffic receptor.
    Receptor {
        /// Receptor index (dense, receptor order).
        index: usize,
    },
}

/// Source feeding a switch input port (for credit returns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InSource {
    /// Another switch's output port.
    Switch {
        /// Upstream switch index.
        switch: usize,
        /// Its output port.
        port: PortId,
    },
    /// A traffic generator's network interface.
    Generator {
        /// Generator index (dense, generator order).
        index: usize,
    },
}

/// Precomputed wiring lookups the engines use every cycle.
#[derive(Debug, Clone)]
pub struct Wiring {
    /// `[switch][output port] -> target`.
    pub out_target: Vec<Vec<OutTarget>>,
    /// `[switch][input port] -> source`.
    pub in_source: Vec<Vec<InSource>>,
    /// `[switch][input port] -> link id` (congestion attribution).
    pub in_link: Vec<Vec<LinkId>>,
    /// Per generator: `(switch index, input port)` it injects into,
    /// and the injection link id.
    pub injection: Vec<(usize, PortId, LinkId)>,
    /// Per receptor: the ejection link id.
    pub ejection_link: Vec<LinkId>,
}

/// The compiled platform: every component instantiated and wired.
pub struct Elaboration {
    /// The configuration this was elaborated from.
    pub config: PlatformConfig,
    /// Routing tables (paths retained for analyses).
    pub routing: RoutingTables,
    /// Per switch, in switch-id order: the seed of its selection LFSR,
    /// drawn from the platform seeder before any generator seed.
    pub lfsr_seeds: Vec<u16>,
    /// Per generator, in generator order: the seed its traffic model
    /// was built with, drawn after every LFSR seed (read back through
    /// the TG's `SEED` registers).
    pub tg_seeds: Vec<u64>,
    /// Network interfaces, one per generator.
    pub nis: Vec<SourceNi>,
    /// Traffic generators, one per generator endpoint.
    pub tgs: Vec<Box<dyn TrafficGenerator + Send>>,
    /// Receptor devices, one per receptor endpoint.
    pub receptors: Vec<Receptor>,
    /// The bus address map (control, TGs, TRs, switches).
    pub map: AddressMap,
    /// Precomputed wiring.
    pub wiring: Wiring,
}

impl Elaboration {
    /// The initial (= cap) credits of each VC of output `p` of switch
    /// `s`: the depth of the downstream VC buffer on an inter-switch
    /// link; on an ejection link infinite (receptors always accept)
    /// unless `ejection_credits` caps them for stall-forensics fixtures.
    pub fn out_credits(&self, s: SwitchId, p: PortId) -> u32 {
        let topo = &self.config.topology;
        match topo.link(topo.out_link(s, p)).dst {
            LinkEnd::Switch { .. } => u32::from(self.config.switch.fifo_depth),
            LinkEnd::Endpoint(_) => self
                .config
                .switch
                .ejection_credits
                .unwrap_or(CREDITS_INFINITE),
        }
    }

    /// The phase profiler the configuration asks for (`None` = off).
    pub(crate) fn profiler(&self) -> Option<crate::profile::PhaseProfiler> {
        self.config
            .profile
            .map(|_| crate::profile::PhaseProfiler::new())
    }
}

impl std::fmt::Debug for Elaboration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Elaboration")
            .field("name", &self.config.name)
            .field("switches", &self.lfsr_seeds.len())
            .field("generators", &self.tgs.len())
            .field("receptors", &self.receptors.len())
            .finish_non_exhaustive()
    }
}

/// Validates the cheap structural invariants of a configuration:
/// traffic model / endpoint counts, queue capacities, buffer depth,
/// telemetry window and ring capacity (all panic further down at 0),
/// uniform gap ranges ([`check_gap`]: they would panic at the first
/// draw), explicit paths for the registered flows
/// ([`check_explicit`]), and that every `(destination, flow)` pair a
/// generator can emit is a registered flow from that generator to that
/// destination — switches route a packet by its flow (tables) *or* its
/// destination (grid router), so the two must agree: an unregistered
/// flow would otherwise die mid-run in a switch's "no routing entry"
/// assertion, and an unregistered destination would be routed without
/// ever having been checked to be a receptor or for deadlocks.
///
/// A destination model that names a row of the configuration's own
/// flow set is its flows by construction ([`names_own_row`]), so an
/// all-to-all platform validates in `O(endpoints)`; every other model
/// is checked pair by pair.
fn validate(config: &PlatformConfig) -> Result<(), CompileError> {
    let generators = config.topology.generators();
    let receptors = config.topology.receptors();
    if config.generators.len() != generators.len() {
        return Err(CompileError::TrafficMismatch {
            reason: format!(
                "{} traffic models for {} generator endpoints",
                config.generators.len(),
                generators.len()
            ),
        });
    }
    if config.receptors.len() != receptors.len() {
        return Err(CompileError::TrafficMismatch {
            reason: format!(
                "{} receptor kinds for {} receptor endpoints",
                config.receptors.len(),
                receptors.len()
            ),
        });
    }
    if config.source_queue_capacity == 0 {
        return Err(CompileError::TrafficMismatch {
            reason: "source queue capacity must be at least 1".into(),
        });
    }
    if config.switch.fifo_depth == 0 {
        return Err(CompileError::InvalidField {
            field: "switch.fifo_depth",
            reason: "a buffer holds at least one flit",
        });
    }
    if config.telemetry.as_ref().is_some_and(|t| t.window == 0) {
        return Err(CompileError::InvalidField {
            field: "telemetry.window",
            reason: "a window is at least one cycle",
        });
    }
    if config.telemetry.as_ref().is_some_and(|t| t.capacity == 0) {
        return Err(CompileError::InvalidField {
            field: "telemetry.capacity",
            reason: "the ring keeps at least one window",
        });
    }
    if let RoutingSpec::Explicit(paths) = &config.routing {
        check_explicit(&config.flows, paths)?;
    }
    for (&src, model) in generators.iter().zip(&config.generators) {
        let registered = |(dst, flow): (EndpointId, FlowId)| match config.flows.get(flow) {
            Some(f) if f.src == src && f.dst == dst => Ok(()),
            Some(f) => Err(CompileError::TrafficMismatch {
                reason: format!(
                    "generator {src} emits flow {flow} to {dst}, \
                     but that flow is registered from {} to {}",
                    f.src, f.dst
                ),
            }),
            None => Err(CompileError::TrafficMismatch {
                reason: format!(
                    "generator {src} emits flow {flow} to {dst}, which is not a registered flow"
                ),
            }),
        };
        let (length, destination) = match model {
            TrafficModel::Uniform(c) => {
                check_gap(c)?;
                (c.length, &c.destination)
            }
            TrafficModel::Burst(c) => (c.length, &c.destination),
            TrafficModel::Poisson(c) => (c.length, &c.destination),
            TrafficModel::Trace(trace) => {
                trace
                    .events()
                    .iter()
                    .filter(|e| e.src == src)
                    .map(|e| (e.dst, e.flow))
                    .try_for_each(registered)?;
                continue;
            }
        };
        check_draws(length, destination)?;
        if !names_own_row(&config.flows, src, destination) {
            destination.pairs().try_for_each(registered)?;
        }
    }
    Ok(())
}

/// A stochastic model draws a length of at least one flit from a
/// non-empty range and a destination from options of positive total
/// weight; otherwise its first draw panics mid-run. A uniform row is
/// checked in `O(1)`, a weighted one in `O(hot sinks)`.
fn check_draws(length: LengthModel, destination: &DestinationModel) -> Result<(), CompileError> {
    let (LengthModel::Fixed(min @ longest) | LengthModel::UniformRange { min, max: longest }) =
        length;
    if min == 0 || min > longest {
        return Err(CompileError::InvalidField {
            field: "generators.length",
            reason: "a packet is at least one flit, and the range's min <= max",
        });
    }
    let drawable = match destination {
        DestinationModel::Fixed { .. } => true,
        DestinationModel::UniformChoice(options) => !options.is_empty(),
        DestinationModel::Weighted(options) => options.iter().any(|&(_, _, w)| w > 0),
        DestinationModel::UniformRow(row) => !row.is_empty(),
        DestinationModel::WeightedRow(hot) => hot.total_weight() > 0,
    };
    if !drawable {
        return Err(CompileError::InvalidField {
            field: "generators.destination",
            reason: "a destination model has an option of positive weight",
        });
    }
    Ok(())
}

/// Explicit routing gives paths for as many flows as are registered,
/// each a registered flow: a flow left out would die mid-run in a
/// switch's "no routing entry" assertion. A flow given twice (so that
/// another goes without) is the table builder's to refuse
/// ([`RoutingTables::from_paths_with`]).
fn check_explicit(flows: &FlowSet, paths: &[FlowPaths]) -> Result<(), CompileError> {
    let reason = if paths.len() != flows.len() {
        format!(
            "explicit routing gives paths for {} flows, but {} are registered",
            paths.len(),
            flows.len()
        )
    } else if let Some(FlowPaths { spec, .. }) = paths
        .iter()
        .find(|fp| flows.get(fp.spec.flow) != Some(fp.spec))
    {
        format!(
            "explicit paths name flow {} from {} to {}, which is not a registered flow",
            spec.flow, spec.src, spec.dst
        )
    } else {
        return Ok(());
    };
    Err(CompileError::TrafficMismatch { reason })
}

/// A uniform model's gap is drawn from `gap.0..=gap.1` and added to the
/// 32-bit cooldown after a packet of up to its longest length.
fn check_gap(c: &UniformConfig) -> Result<(), CompileError> {
    let (LengthModel::Fixed(longest) | LengthModel::UniformRange { max: longest, .. }) = c.length;
    if c.gap.0 > c.gap.1 || u64::from(c.gap.1) + u64::from(longest) > u64::from(u32::MAX) {
        return Err(CompileError::InvalidField {
            field: "generators.gap",
            reason: "gap.0 <= gap.1, and gap.1 plus the longest packet fits in 32 bits",
        });
    }
    Ok(())
}

/// Whether `destination` names the row of `flows` that leaves `src`:
/// the same all-but-self set (a clone of it, or one over equal
/// endpoint lists) and the row whose source is `src`. Such a model can
/// emit exactly the flows registered from `src`, so no pair of it needs
/// visiting. Anything else — a list, a row of another set, another
/// generator's row, a row over a listed flow set — is for the per-pair
/// check to accept or refuse.
fn names_own_row(flows: &FlowSet, src: EndpointId, destination: &DestinationModel) -> bool {
    match (flows, destination.row()) {
        (FlowSet::AllButSelf(set), Some(row)) => row.source() == src && row.set() == set,
        _ => false,
    }
}

/// Computes (and fully validates) the routing tables of a
/// configuration: path computation, VC labelling per the configured
/// policy, the VC-range check and the per-(link, VC) deadlock check.
///
/// This is the expensive, *load-independent* half of elaboration — on
/// huge meshes route computation and the channel-dependency check
/// dominate compile time. Callers that elaborate the same topology ×
/// flow set many times (a saturation search's load ramp) compute the tables once and reuse
/// them through [`elaborate_routed`].
///
/// # Errors
///
/// Returns [`CompileError`] for unroutable flows, VC overflow or a
/// cyclic channel-dependency graph.
pub fn compute_routing(config: &PlatformConfig) -> Result<RoutingTables, CompileError> {
    let topo = &config.topology;
    let routing = match &config.routing {
        RoutingSpec::Algorithm(algo) => {
            RoutingTables::compute_with(topo, &config.flows, *algo, config.vc_policy)?
        }
        RoutingSpec::Explicit(paths) => {
            RoutingTables::from_paths_with(topo, paths.clone(), config.vc_policy)?
        }
    };
    if routing.max_vc() >= config.switch.num_vcs {
        return Err(CompileError::VcOverflow {
            max_vc: routing.max_vc(),
            num_vcs: config.switch.num_vcs,
        });
    }
    check_routing_deadlock_freedom(topo, &routing)?;
    Ok(routing)
}

/// Compiles a platform configuration into components.
///
/// # Errors
///
/// Returns [`CompileError`] when the configuration is inconsistent
/// (traffic/topology mismatch), unroutable, or could deadlock.
pub fn elaborate(config: &PlatformConfig) -> Result<Elaboration, CompileError> {
    validate(config)?;
    let routing = compute_routing(config)?;
    instantiate(config, routing)
}

/// Like [`elaborate`], but reuses routing tables previously produced
/// by [`compute_routing`] for a configuration with the same topology,
/// flows, routing spec and VC policy (only loads, traffic models,
/// seeds, stop conditions, clock mode or engine kind may differ — none
/// of which routing depends on). The deadlock check is *not* re-run:
/// the tables were proven deadlock-free when computed.
///
/// # Errors
///
/// Returns [`CompileError`] when the configuration is structurally
/// inconsistent or the tables reference more VCs than the switches
/// have.
pub fn elaborate_routed(
    config: &PlatformConfig,
    routing: RoutingTables,
) -> Result<Elaboration, CompileError> {
    validate(config)?;
    instantiate(config, routing)
}

/// The configuration of switch `s` of a platform built from `config`:
/// its port counts and the platform-wide buffer, VC, arbiter and
/// selection parameters.
pub(crate) fn switch_config(config: &PlatformConfig, s: SwitchId) -> SwitchConfig {
    let info = config.topology.switch(s);
    SwitchConfigBuilder::new(info.inputs, info.outputs)
        .fifo_depth(config.switch.fifo_depth)
        .num_vcs(config.switch.num_vcs)
        .arbiter(config.switch.arbiter)
        .selection(config.switch.selection)
        .build()
}

/// Builds the components of a validated configuration. Switches are
/// recorded, not built: each one's routes are range-checked and its
/// LFSR seed drawn here, and [`crate::Platform::new`] builds the
/// interpreted models from them for the engines that step those.
fn instantiate(
    config: &PlatformConfig,
    routing: RoutingTables,
) -> Result<Elaboration, CompileError> {
    let topo = &config.topology;
    let generators = topo.generators();
    let receptors = topo.receptors();
    if routing.max_vc() >= config.switch.num_vcs {
        return Err(CompileError::VcOverflow {
            max_vc: routing.max_vc(),
            num_vcs: config.switch.num_vcs,
        });
    }

    // Seeds derive from the platform seed; adding devices never
    // perturbs earlier streams. Every switch seed is drawn before the
    // first generator seed.
    let mut seeder = SplitMix64::new(config.seed);
    let mut lfsr_seeds = Vec::with_capacity(topo.switch_count());
    for s in topo.switch_ids() {
        Switch::check_routes(&switch_config(config, s), routing.switch_table(s))
            .map_err(|source| CompileError::Switch { switch: s, source })?;
        lfsr_seeds.push((seeder.next() & 0xFFFF) as u16);
    }

    // Generators and their network interfaces.
    let mut tgs: Vec<Box<dyn TrafficGenerator + Send>> = Vec::with_capacity(generators.len());
    let mut nis = Vec::with_capacity(generators.len());
    let tg_seeds: Vec<u64> = generators.iter().map(|_| seeder.next()).collect();
    for (i, (&g, &seed)) in generators.iter().zip(&tg_seeds).enumerate() {
        let tg: Box<dyn TrafficGenerator + Send> = match &config.generators[i] {
            TrafficModel::Uniform(c) => Box::new(StochasticTg::uniform(c.clone(), seed)),
            TrafficModel::Burst(c) => Box::new(StochasticTg::burst(c.clone(), seed)),
            TrafficModel::Poisson(c) => Box::new(StochasticTg::poisson(c.clone(), seed)),
            TrafficModel::Trace(t) => Box::new(TraceDrivenTg::new(t, g)),
        };
        tgs.push(tg);
        nis.push(SourceNi::new(
            config.source_queue_capacity,
            u32::from(config.switch.fifo_depth),
        ));
    }

    // Receptors.
    let receptor_devices: Vec<Receptor> = receptors
        .iter()
        .zip(&config.receptors)
        .map(|(&r, &kind)| Receptor::new(r, kind))
        .collect();

    // Address map: control first, then TGs, TRs, switches. The
    // paper's control plane addresses at most 4 buses x 1024 devices;
    // a platform whose device count exceeds that capacity (mesh40x40
    // and up) still emulates — it just has no bus-programmable control
    // plane, so the map stays empty and every bus access reports
    // `Unmapped`. Mapping is all-or-nothing: a partial map would break
    // the monitor-after-switches slot convention and silently strand
    // the tail of the device list.
    let mut map = AddressMap::new();
    let needed = 2 + generators.len() + receptors.len() + topo.switch_count();
    if needed <= AddressMap::capacity() {
        // The telemetry monitor always occupies the slot after the
        // switches (reads return zeros while telemetry is disabled),
        // so software can locate it without knowing the run
        // configuration.
        for (class, count) in [
            (DeviceClass::Control, 1),
            (DeviceClass::TrafficGenerator, generators.len()),
            (DeviceClass::TrafficReceptor, receptors.len()),
            (DeviceClass::Switch, topo.switch_count()),
            (DeviceClass::Monitor, 1),
        ] {
            for _ in 0..count {
                map.allocate(class)
                    .expect("address map capacity checked above");
            }
        }
    }

    // Wiring lookups.
    let mut receptor_of_endpoint = vec![None; topo.endpoint_count()];
    for (idx, &r) in receptors.iter().enumerate() {
        receptor_of_endpoint[r.index()] = Some(idx);
    }
    let mut generator_of_endpoint = vec![None; topo.endpoint_count()];
    for (idx, &g) in generators.iter().enumerate() {
        generator_of_endpoint[g.index()] = Some(idx);
    }

    let mut out_target = Vec::with_capacity(topo.switch_count());
    let mut in_source = Vec::with_capacity(topo.switch_count());
    let mut in_link = Vec::with_capacity(topo.switch_count());
    for s in topo.switch_ids() {
        let info = topo.switch(s);
        let mut outs = Vec::with_capacity(info.outputs as usize);
        for p in 0..info.outputs {
            let link = topo.link(topo.out_link(s, PortId::new(p)));
            outs.push(match link.dst {
                LinkEnd::Switch { switch, port } => OutTarget::Switch {
                    switch: switch.index(),
                    port,
                },
                LinkEnd::Endpoint(e) => OutTarget::Receptor {
                    index: receptor_of_endpoint[e.index()]
                        .expect("link into an endpoint targets a receptor"),
                },
            });
        }
        out_target.push(outs);

        let mut ins = Vec::with_capacity(info.inputs as usize);
        let mut inl = Vec::with_capacity(info.inputs as usize);
        for p in 0..info.inputs {
            let link_id = topo.in_link(s, PortId::new(p));
            let link = topo.link(link_id);
            ins.push(match link.src {
                LinkEnd::Switch { switch, port } => InSource::Switch {
                    switch: switch.index(),
                    port,
                },
                LinkEnd::Endpoint(e) => InSource::Generator {
                    index: generator_of_endpoint[e.index()]
                        .expect("link out of an endpoint comes from a generator"),
                },
            });
            inl.push(link_id);
        }
        in_source.push(ins);
        in_link.push(inl);
    }

    let injection: Vec<(usize, PortId, LinkId)> = generators
        .iter()
        .map(|&g| {
            let info = topo.endpoint(g);
            let port = topo
                .injection_port(info.switch, g)
                .expect("generator endpoint has an injection port");
            (info.switch.index(), port, info.link)
        })
        .collect();
    let ejection_link: Vec<LinkId> = receptors.iter().map(|&r| topo.endpoint(r).link).collect();

    Ok(Elaboration {
        config: config.clone(),
        routing,
        lfsr_seeds,
        tg_seeds,
        nis,
        tgs,
        receptors: receptor_devices,
        map,
        wiring: Wiring {
            out_target,
            in_source,
            in_link,
            injection,
            ejection_link,
        },
    })
}

/// Sentinel for "no entry" in the lowered per-port arrays (the
/// per-cycle transfer grants).
pub const LOWERED_NONE: u32 = u32::MAX;

/// Sentinel for "no slot" in the packed per-slot records
/// ([`InSlotState::want`], [`OutSlotState::busy_with`]). Switch-local
/// slot indices are `port * num_vcs + vc` with both factors below 256,
/// so `u16::MAX` can never be a real slot.
pub const SLOT_NONE: u16 = u16::MAX;

/// Tail flag of a [`LoweredPlatform::fifo_arena`] flit handle: set for
/// tail and single flits — the ones that close a wormhole.
pub const HANDLE_TAIL: u32 = 1 << 30;

/// Head flag of a [`LoweredPlatform::fifo_arena`] flit handle: set for
/// head and single flits — the ones that carry routing information.
pub const HANDLE_HEAD: u32 = 1 << 31;

/// Pool-index mask of a [`LoweredPlatform::fifo_arena`] flit handle.
pub const HANDLE_IDX: u32 = HANDLE_TAIL - 1;

/// Hot per-input-slot state, packed into one 8-byte record so the
/// engine's decide loop reads a slot's entire cursor/wormhole state
/// with a single cache access (the arrays-of-u32 layout touched five
/// cache lines per slot and overflowed L1 on a 64-switch platform).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C, align(8))]
pub struct InSlotState {
    /// Ring-buffer head index (`< fifo_depth`).
    pub head: u8,
    /// Buffered flit count (`<= fifo_depth`).
    pub len: u8,
    /// Alternation pointer for [`SelectionPolicy::Alternate`].
    pub alternate: u8,
    /// Whether VC allocation has granted `want` to the crossing worm
    /// (then the out-slot's [`OutSlotState::busy_with`] names this
    /// slot). `false` with a `want` set: a routed head still waiting.
    pub allocated: bool,
    /// The one out-slot this input requests, as a switch-local
    /// `port * num_vcs + vc`: written when the head flit is routed,
    /// kept through VC allocation and every body flit, cleared by the
    /// tail's pop. [`SLOT_NONE`] = nothing routed yet, so an occupied
    /// slot reading it faces a fresh head.
    pub want: u16,
}

impl InSlotState {
    /// The initial (empty FIFO, no worm, no selection) record.
    pub const EMPTY: InSlotState = InSlotState {
        head: 0,
        len: 0,
        alternate: 0,
        allocated: false,
        want: SLOT_NONE,
    };
}

/// Hot per-output-slot state, packed into one 8-byte record (credit
/// count, wormhole owner, VC-allocation arbiter pointer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutSlotState {
    /// Credits toward the downstream buffer ([`CREDITS_INFINITE`] on
    /// ejection ports).
    pub credits: u32,
    /// Wormhole owner as a switch-local input slot
    /// `input * num_vcs + vc` ([`SLOT_NONE`] when free): set with the
    /// owner's [`InSlotState::allocated`], cleared by the same tail
    /// pop.
    pub busy_with: u16,
    /// Round-robin pointer of the VC-allocation arbiter (over
    /// `inputs[s] * num_vcs` request lines).
    pub arb_last: u16,
}

/// Destination of a lowered switch output port (flattened wiring).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoweredOutDest {
    /// A downstream switch input port.
    Switch {
        /// Downstream switch index (for error attribution and
        /// occupancy bookkeeping).
        switch: u32,
        /// Global input-*slot* base of the downstream input port: a
        /// flit arriving on VC `v` lands in FIFO slot `slot_base + v`.
        slot_base: u32,
    },
    /// Ejection into a traffic receptor.
    Receptor {
        /// Receptor index (dense, receptor order).
        index: u32,
    },
}

/// Source feeding a lowered switch input port (for credit returns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoweredInFeed {
    /// An upstream switch output port: the credit for input VC `v`
    /// returns to global output slot `slot_base + v`.
    Switch {
        /// Global output-slot base of the upstream output port.
        slot_base: u32,
    },
    /// A generator's network interface.
    Generator {
        /// Generator index (dense, generator order).
        index: u32,
    },
}

/// The elaboration lowered to flat struct-of-arrays state — the data
/// plane of [`crate::compiled::CompiledEngine`].
///
/// Every per-switch `Vec<Vec<...>>` of the interpreted platform
/// becomes one dense array indexed through per-switch prefix sums, so
/// the engine's hot loops walk contiguous memory with no pointer
/// chasing, no hashing and no per-cycle allocation:
///
/// * **Input slots** — one per `(switch, input port, VC)`, ascending
///   `(switch, port, vc)`. Slot `k` of switch `s` spans
///   `in_slot_base[s] + k`; its ring buffer occupies
///   `fifo_arena[slot * fifo_depth ..][..fifo_depth]`, and its
///   cursor/wormhole state is one packed 8-byte [`InSlotState`]
///   record in `in_state`.
/// * **Output slots** — one per `(switch, output port, VC)`: a packed
///   8-byte [`OutSlotState`] record (credits, wormhole owner,
///   VC-allocation arbiter pointer) in `out_state`, plus the cold
///   `credit_cap`.
/// * **Ports** — per-port arrays (`out_vc_ptr`, wiring)
///   are indexed through `in_port_base`/`out_port_base`.
/// * **Routes** — not lowered: `routing` is the elaboration's own
///   [`RoutingTables`] (an `Arc` clone), and `router` its shared
///   [`GridRouter`] when routing is arithmetic. Otherwise a head flit
///   reads the sparse per-switch [`RouteTable`] the interpreted switch
///   at `s` holds, so every platform keeps one copy of its routes.
///
/// All sizing derives from the *elaboration* (per-switch port counts),
/// never from a uniform config-wide maximum, so heterogeneous
/// topologies (e.g. a star hub next to 2-port leaves) lower without
/// waste or index panics.
///
/// [`RouteTable`]: nocem_common::route::RouteTable
#[derive(Debug, Clone)]
pub struct LoweredPlatform {
    /// Number of switches.
    pub switch_count: usize,
    /// Virtual channels per port (uniform across the platform).
    pub num_vcs: usize,
    /// FIFO depth in flits (uniform across the platform).
    pub fifo_depth: usize,
    /// Per switch: input port count.
    pub inputs: Vec<u32>,
    /// Per switch: output port count.
    pub outputs: Vec<u32>,
    /// Prefix sums of `inputs[s] * num_vcs` (length `switch_count+1`).
    pub in_slot_base: Vec<u32>,
    /// Prefix sums of `outputs[s] * num_vcs` (length `switch_count+1`).
    pub out_slot_base: Vec<u32>,
    /// Prefix sums of `inputs[s]` (length `switch_count + 1`).
    pub in_port_base: Vec<u32>,
    /// Prefix sums of `outputs[s]` (length `switch_count + 1`).
    pub out_port_base: Vec<u32>,
    /// FIFO ring-buffer arena: `fifo_depth` *flit handles* per input
    /// slot. A handle is a pool index into the engine's flit pool with
    /// [`HANDLE_HEAD`]/[`HANDLE_TAIL`] kind flags packed into the top
    /// bits, so a hop moves four bytes and the wormhole open/close
    /// tests never touch the flit itself.
    pub fifo_arena: Vec<u32>,
    /// Per input slot: packed cursor/wormhole record.
    pub in_state: Vec<InSlotState>,
    /// The router head flits ask when routing is arithmetic; `None`
    /// when routes are held in `routing`'s per-switch tables.
    pub router: Option<Arc<GridRouter>>,
    /// The elaboration's routing, shared: head flits look their flow
    /// up in its per-switch
    /// [`RouteTable`](nocem_common::route::RouteTable)s — the very tables
    /// [`crate::Platform::new`] hands the interpreted switches — when
    /// `router` is `None`.
    pub routing: RoutingTables,
    /// Per output slot: packed credit/wormhole/arbiter record.
    pub out_state: Vec<OutSlotState>,
    /// Per output slot: the initial credit value (cold; used by the
    /// quiescence debug check and inspection).
    pub credit_cap: Vec<u32>,
    /// Per output port: switch-allocation round-robin pointer over VCs.
    pub out_vc_ptr: Vec<u8>,
    /// Per switch: the shared selection LFSR, seeded from
    /// [`Elaboration::lfsr_seeds`].
    pub lfsrs: Vec<Lfsr16>,
    /// Output arbitration policy (uniform across the platform).
    pub arbiter: ArbiterKind,
    /// Multi-path selection policy (uniform across the platform).
    pub selection: SelectionPolicy,
    /// Per output port: where sent flits land.
    pub out_dest: Vec<LoweredOutDest>,
    /// Per input port: where vacated-buffer credits return.
    pub in_feed: Vec<LoweredInFeed>,
    /// Per generator: the switch its NI injects into.
    pub inject_switch: Vec<u32>,
    /// Per generator: global input-slot base of its injection port.
    pub inject_slot_base: Vec<u32>,
    /// Largest `inputs[s] * num_vcs` over all switches (scratch sizing).
    pub max_in_slots: usize,
    /// Largest `outputs[s] * num_vcs` over all switches (scratch sizing).
    pub max_out_slots: usize,
    /// Largest `inputs[s]` over all switches (scratch sizing).
    pub max_inputs: usize,
}

impl LoweredPlatform {
    /// Total input slots (FIFO count) of the lowered platform.
    pub fn total_in_slots(&self) -> usize {
        *self.in_slot_base.last().expect("prefix sums are non-empty") as usize
    }

    /// Total output slots of the lowered platform.
    pub fn total_out_slots(&self) -> usize {
        *self
            .out_slot_base
            .last()
            .expect("prefix sums are non-empty") as usize
    }
}

/// Lowers a *freshly elaborated* platform into flat struct-of-arrays
/// state (see [`LoweredPlatform`] for the layout).
///
/// The pass is pure: it reads the elaboration's configuration,
/// topology and recorded switch parameters, and writes dense arrays
/// sized from the per-switch port counts; the routing tables are
/// shared, not copied. Credits are
/// [`Elaboration::out_credits`] and the selection LFSRs are seeded from
/// [`Elaboration::lfsr_seeds`] — what [`crate::Platform::new`] builds
/// the interpreted switches from.
pub fn lower(elab: &Elaboration) -> LoweredPlatform {
    let topo = &elab.config.topology;
    let vcs = usize::from(elab.config.switch.num_vcs);
    let depth = usize::from(elab.config.switch.fifo_depth);
    let n = topo.switch_count();

    let mut inputs = Vec::with_capacity(n);
    let mut outputs = Vec::with_capacity(n);
    let mut in_slot_base = Vec::with_capacity(n + 1);
    let mut out_slot_base = Vec::with_capacity(n + 1);
    let mut in_port_base = Vec::with_capacity(n + 1);
    let mut out_port_base = Vec::with_capacity(n + 1);
    in_slot_base.push(0u32);
    out_slot_base.push(0u32);
    in_port_base.push(0u32);
    out_port_base.push(0u32);
    let mut max_in_slots = 0usize;
    let mut max_out_slots = 0usize;
    let mut max_inputs = 0usize;
    for s in topo.switch_ids() {
        let info = topo.switch(s);
        let (i, o) = (u32::from(info.inputs), u32::from(info.outputs));
        inputs.push(i);
        outputs.push(o);
        in_slot_base.push(in_slot_base.last().unwrap() + i * vcs as u32);
        out_slot_base.push(out_slot_base.last().unwrap() + o * vcs as u32);
        in_port_base.push(in_port_base.last().unwrap() + i);
        out_port_base.push(out_port_base.last().unwrap() + o);
        max_in_slots = max_in_slots.max(i as usize * vcs);
        max_out_slots = max_out_slots.max(o as usize * vcs);
        max_inputs = max_inputs.max(i as usize);
    }
    let total_in_slots = *in_slot_base.last().unwrap() as usize;
    let total_out_slots = *out_slot_base.last().unwrap() as usize;
    let total_out_ports = *out_port_base.last().unwrap() as usize;

    // The arena holds `depth` handle slots per FIFO; unoccupied slots
    // carry a zero handle that no code path ever reads (len/head gate
    // every access).
    let fifo_arena = vec![0u32; total_in_slots * depth];

    // Output-slot records start at their credit caps; arbiter pointers
    // start at `width - 1` so the first grant scans from input slot 0.
    let mut out_state = Vec::with_capacity(total_out_slots);
    let mut credit_cap = Vec::with_capacity(total_out_slots);
    for s in topo.switch_ids() {
        let info = topo.switch(s);
        let width = (u32::from(info.inputs) as usize * vcs - 1) as u16;
        for p in 0..info.outputs {
            let per_vc = elab.out_credits(s, PortId::new(p));
            for _ in 0..vcs {
                out_state.push(OutSlotState {
                    credits: per_vc,
                    busy_with: SLOT_NONE,
                    arb_last: width,
                });
                credit_cap.push(per_vc);
            }
        }
    }

    // Flattened wiring.
    let mut out_dest = Vec::with_capacity(total_out_ports);
    let mut in_feed = Vec::new();
    for s in topo.switch_ids() {
        let si = s.index();
        for target in &elab.wiring.out_target[si] {
            out_dest.push(match *target {
                OutTarget::Switch { switch, port } => LoweredOutDest::Switch {
                    switch: switch as u32,
                    slot_base: in_slot_base[switch] + (port.index() * vcs) as u32,
                },
                OutTarget::Receptor { index } => LoweredOutDest::Receptor {
                    index: index as u32,
                },
            });
        }
        for source in &elab.wiring.in_source[si] {
            in_feed.push(match *source {
                InSource::Switch { switch, port } => LoweredInFeed::Switch {
                    slot_base: out_slot_base[switch] + (port.index() * vcs) as u32,
                },
                InSource::Generator { index } => LoweredInFeed::Generator {
                    index: index as u32,
                },
            });
        }
    }
    let mut inject_switch = Vec::with_capacity(elab.wiring.injection.len());
    let mut inject_slot_base = Vec::with_capacity(elab.wiring.injection.len());
    for &(s, port, _) in &elab.wiring.injection {
        inject_switch.push(s as u32);
        inject_slot_base.push(in_slot_base[s] + (port.index() * vcs) as u32);
    }

    LoweredPlatform {
        switch_count: n,
        num_vcs: vcs,
        fifo_depth: depth,
        inputs,
        outputs,
        in_state: vec![InSlotState::EMPTY; total_in_slots],
        fifo_arena,
        router: elab.routing.grid_router().cloned(),
        routing: elab.routing.clone(),
        out_state,
        credit_cap,
        out_vc_ptr: vec![0; total_out_ports],
        lfsrs: elab
            .lfsr_seeds
            .iter()
            .map(|&seed| Lfsr16::new(seed))
            .collect(),
        arbiter: elab.config.switch.arbiter,
        selection: elab.config.switch.selection,
        out_dest,
        in_feed,
        inject_switch,
        inject_slot_base,
        in_slot_base,
        out_slot_base,
        in_port_base,
        out_port_base,
        max_in_slots,
        max_out_slots,
        max_inputs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PaperConfig;
    use nocem_common::flows::{AllButSelf, Row};
    use nocem_stats::TrKind;
    use nocem_topology::builders::mesh;
    use nocem_topology::routing::FlowSpec;
    use nocem_traffic::generator::HotRow;

    #[test]
    fn paper_uniform_elaborates() {
        let cfg = PaperConfig::new().total_packets(100).uniform();
        let e = elaborate(&cfg).unwrap();
        assert_eq!(e.lfsr_seeds.len(), 6);
        assert_eq!(e.tgs.len(), 4);
        assert_eq!(e.receptors.len(), 4);
        assert_eq!(e.nis.len(), 4);
        assert_eq!(
            e.map.devices().len(),
            1 + 4 + 4 + 6 + 1,
            "ctrl + tgs + trs + switches + monitor"
        );
        assert!(format!("{e:?}").contains("switches"));
    }

    #[test]
    fn traffic_model_count_mismatch_fails() {
        let mut cfg = PaperConfig::new().uniform();
        cfg.generators.pop();
        let err = elaborate(&cfg).unwrap_err();
        assert!(matches!(err, CompileError::TrafficMismatch { .. }));
    }

    #[test]
    fn receptor_count_mismatch_fails() {
        let mut cfg = PaperConfig::new().uniform();
        cfg.receptors.pop();
        assert!(matches!(
            elaborate(&cfg),
            Err(CompileError::TrafficMismatch { .. })
        ));
    }

    /// The `TrafficMismatch` reason of a config that must not compile.
    fn mismatch(cfg: &PlatformConfig) -> String {
        match elaborate(cfg) {
            Err(CompileError::TrafficMismatch { reason }) => reason,
            other => panic!("expected TrafficMismatch, got {other:?}"),
        }
    }

    /// Flow `i` of a configuration.
    fn flow(cfg: &PlatformConfig, i: u32) -> FlowSpec {
        cfg.flows.get(FlowId::new(i)).expect("registered flow")
    }

    /// Replaces generator 0's destination model (its registered flow
    /// is 0: TG0 -> TR0).
    fn with_destination(destination: DestinationModel) -> PlatformConfig {
        let mut cfg = PaperConfig::new().total_packets(100).uniform();
        let TrafficModel::Uniform(u) = &mut cfg.generators[0] else {
            panic!("paper uniform config");
        };
        u.destination = destination;
        cfg
    }

    #[test]
    fn fixed_destination_must_be_the_flows_destination() {
        let base = PaperConfig::new().uniform();
        let (f0, f1) = (flow(&base, 0), flow(&base, 1));
        elaborate(&with_destination(DestinationModel::Fixed {
            dst: f0.dst,
            flow: f0.flow,
        }))
        .unwrap();
        // Right flow, wrong destination: switches that route by
        // destination would deliver it somewhere its flow does not go.
        let reason = mismatch(&with_destination(DestinationModel::Fixed {
            dst: f1.dst,
            flow: f0.flow,
        }));
        assert!(reason.contains("registered from"), "{reason}");
    }

    #[test]
    fn uniform_choice_must_emit_its_own_generators_flows() {
        let base = PaperConfig::new().uniform();
        let (f0, f1) = (flow(&base, 0), flow(&base, 1));
        // Flow 1 is registered, but from generator 1.
        let reason = mismatch(&with_destination(DestinationModel::UniformChoice(vec![
            (f0.dst, f0.flow),
            (f1.dst, f1.flow),
        ])));
        assert!(reason.contains(&f1.src.to_string()), "{reason}");
    }

    #[test]
    fn weighted_choice_must_name_registered_flows_even_at_weight_zero() {
        let base = PaperConfig::new().uniform();
        let f0 = flow(&base, 0);
        let unknown = FlowId::new(base.flows.len() as u32);
        let reason = mismatch(&with_destination(DestinationModel::Weighted(vec![
            (f0.dst, f0.flow, 3),
            (f0.dst, unknown, 0),
        ])));
        assert!(reason.contains("not a registered flow"), "{reason}");
    }

    /// Uniform-random traffic on a 3 × 3 mesh the way the scenarios
    /// build it: the implicit flow set, every generator on its own row.
    fn all_to_all() -> (PlatformConfig, AllButSelf) {
        let topo = mesh(3, 3).unwrap();
        let set = AllButSelf::new(topo.generators(), topo.receptors());
        let mut cfg = PlatformConfig::baseline("all-to-all", topo).unwrap();
        cfg.routing = RoutingSpec::Algorithm(nocem_topology::routing::RouteAlgorithm::Xy);
        cfg.flows = set.clone().into();
        for s in 0..9 {
            give_row(&mut cfg, s as usize, Row::new(set.clone(), s));
        }
        (cfg, set)
    }

    fn give_row(cfg: &mut PlatformConfig, generator: usize, row: Row) {
        let TrafficModel::Uniform(u) = &mut cfg.generators[generator] else {
            panic!("baseline generators are uniform");
        };
        u.destination = DestinationModel::UniformRow(row);
    }

    #[test]
    fn rows_of_the_configs_own_flow_set_are_valid() {
        let (mut cfg, set) = all_to_all();
        elaborate(&cfg).unwrap();
        // Equal endpoint lists, separate storage: still the same set.
        let twin = AllButSelf::new(set.sources().to_vec(), set.sinks().to_vec());
        assert!(!twin.shares_storage(&set));
        give_row(&mut cfg, 4, Row::new(twin, 4));
        elaborate(&cfg).unwrap();
        // Over the same flows written out, rows are checked pair by
        // pair — and pass.
        cfg.flows = cfg.flows.to_listed().into();
        elaborate(&cfg).unwrap();
    }

    #[test]
    fn a_weighted_row_of_zero_total_weight_fails_at_set_up() {
        let (mut cfg, set) = all_to_all();
        let mut hot_row = |hot: std::ops::Range<u32>| {
            let TrafficModel::Uniform(u) = &mut cfg.generators[0] else {
                panic!("baseline generators are uniform");
            };
            let row = Row::new(set.clone(), 0);
            u.destination = DestinationModel::WeightedRow(HotRow::new(row, hot.collect(), 0));
            elaborate(&cfg).map(drop)
        };
        // Every option is a hot sink of weight 0: nothing to draw.
        assert!(matches!(
            hot_row(0..9),
            Err(CompileError::InvalidField {
                field: "generators.destination",
                ..
            })
        ));
        // One cold option is enough.
        hot_row(0..8).unwrap();
    }

    #[test]
    fn a_row_of_another_flow_set_is_checked_pair_by_pair() {
        // A 16-node set's row 0 starts like the 9-node set's, then
        // runs on into what the configuration registers for source 1.
        let (mut cfg, _) = all_to_all();
        let other = mesh(4, 4).unwrap();
        let other = AllButSelf::new(other.generators(), other.receptors());
        give_row(&mut cfg, 0, Row::new(other.clone(), 0));
        let (g0, f8) = (cfg.topology.generators()[0], flow(&cfg, 8));
        let (dst, _) = Row::new(other, 0).at(8);
        assert_eq!(
            mismatch(&cfg),
            format!(
                "generator {g0} emits flow {} to {dst}, \
                 but that flow is registered from {} to {}",
                f8.flow, f8.src, f8.dst
            )
        );
    }

    #[test]
    fn a_generator_on_another_generators_row_is_refused() {
        let (mut cfg, set) = all_to_all();
        give_row(&mut cfg, 0, Row::new(set, 1));
        let (g0, f8) = (cfg.topology.generators()[0], flow(&cfg, 8));
        assert_eq!(
            mismatch(&cfg),
            format!(
                "generator {g0} emits flow {} to {}, \
                 but that flow is registered from {} to {}",
                f8.flow, f8.dst, f8.src, f8.dst
            )
        );
    }

    #[test]
    fn a_row_over_a_list_that_lacks_one_of_its_pairs_is_refused() {
        let (mut cfg, _) = all_to_all();
        let mut listed = cfg.flows.to_listed();
        let missing = listed.pop().unwrap();
        cfg.flows = listed.into();
        assert_eq!(
            mismatch(&cfg),
            format!(
                "generator {} emits flow {} to {}, which is not a registered flow",
                missing.src, missing.flow, missing.dst
            )
        );
    }

    #[test]
    fn trace_events_must_be_registered_flows_of_their_source() {
        use nocem_common::time::Cycle;
        use nocem_traffic::trace::{Trace, TraceEvent};
        let mut cfg = PaperConfig::new().total_packets(40).trace_bursty(4);
        let (f0, f1) = (flow(&cfg, 0), flow(&cfg, 1));
        let event = |src, dst, flow| TraceEvent {
            at: Cycle::new(5),
            src,
            dst,
            flow,
            len_flits: 2,
        };
        // Another source's events in the same trace are not replayed
        // by this generator, so they are not its business.
        cfg.generators[0] = TrafficModel::Trace(Trace::from_events(vec![
            event(f0.src, f0.dst, f0.flow),
            event(f1.src, f0.dst, f0.flow),
        ]));
        elaborate(&cfg).unwrap();
        cfg.generators[0] = TrafficModel::Trace(Trace::from_events(vec![
            event(f0.src, f0.dst, f0.flow),
            event(f0.src, f1.dst, f0.flow),
        ]));
        let reason = mismatch(&cfg);
        assert!(reason.contains("registered from"), "{reason}");
        // The routed entry point validates too.
        let routing = compute_routing(&cfg).unwrap();
        assert!(matches!(
            elaborate_routed(&cfg, routing),
            Err(CompileError::TrafficMismatch { .. })
        ));
    }

    fn with_gap(gap: (u32, u32)) -> PlatformConfig {
        let mut cfg = PaperConfig::new().uniform();
        if let TrafficModel::Uniform(u) = &mut cfg.generators[0] {
            u.gap = gap;
        }
        cfg
    }

    #[test]
    fn an_inverted_gap_is_refused() {
        assert!(matches!(
            elaborate(&with_gap((5, 3))),
            Err(CompileError::InvalidField {
                field: "generators.gap",
                ..
            })
        ));
    }

    #[test]
    fn a_full_width_gap_is_refused() {
        assert!(matches!(
            elaborate(&with_gap((0, u32::MAX))),
            Err(CompileError::InvalidField {
                field: "generators.gap",
                ..
            })
        ));
        elaborate(&with_gap((0, u32::MAX - 64))).unwrap();
    }

    #[test]
    fn zero_queue_capacity_fails() {
        let mut cfg = PaperConfig::new().uniform();
        cfg.source_queue_capacity = 0;
        assert!(elaborate(&cfg).is_err());
    }

    #[test]
    fn injection_wiring_points_at_generator_switches() {
        let cfg = PaperConfig::new().uniform();
        let e = elaborate(&cfg).unwrap();
        let expected: Vec<usize> = vec![0, 1, 3, 4]; // TGs on S0, S1, S3, S4
        let actual: Vec<usize> = e.wiring.injection.iter().map(|&(s, _, _)| s).collect();
        assert_eq!(actual, expected);
    }

    #[test]
    fn ejection_credits_are_infinite() {
        let cfg = PaperConfig::new().uniform();
        let platform = crate::Platform::new(elaborate(&cfg).unwrap());
        // S2 hosts TR0/TR1; its ejection outputs have infinite credits.
        for (s, outs) in platform.elab.wiring.out_target.iter().enumerate() {
            for (p, t) in outs.iter().enumerate() {
                if matches!(t, OutTarget::Receptor { .. }) {
                    assert_eq!(
                        platform.switches[s].credits(PortId::new(p as u8)),
                        CREDITS_INFINITE
                    );
                }
            }
        }
    }

    #[test]
    fn trace_config_builds_trace_tgs() {
        let cfg = PaperConfig::new().total_packets(40).trace_bursty(4);
        let e = elaborate(&cfg).unwrap();
        for tg in &e.tgs {
            assert_eq!(tg.kind(), nocem_traffic::generator::TgKind::TraceDriven);
        }
        for r in &e.receptors {
            assert_eq!(r.kind(), TrKind::TraceDriven);
        }
    }

    #[test]
    fn mesh_baseline_elaborates() {
        let cfg = crate::config::PlatformConfig::baseline("m", mesh(3, 3).unwrap()).unwrap();
        let e = elaborate(&cfg).unwrap();
        assert_eq!(e.lfsr_seeds.len(), 9);
        assert_eq!(e.tgs.len(), 9);
    }

    #[test]
    fn routed_elaboration_matches_direct_elaboration() {
        let cfg = PaperConfig::new().total_packets(200).uniform();
        let routing = compute_routing(&cfg).unwrap();
        // Reuse the tables for a *different load point* of the same
        // topology/flows (the saturation-search pattern): the runs
        // must be identical to direct elaboration.
        let mut run_direct = crate::engine::build(&cfg).unwrap();
        run_direct.run().unwrap();
        let mut run_routed =
            crate::engine::Emulation::new(elaborate_routed(&cfg, routing).unwrap());
        run_routed.run().unwrap();
        assert_eq!(run_routed.ledger(), run_direct.ledger());
        assert_eq!(run_routed.results(), run_direct.results());
    }

    #[test]
    fn routed_elaboration_still_checks_vc_overflow() {
        let mut cfg = PaperConfig::new().uniform();
        let routing = compute_routing(&cfg).unwrap();
        cfg.switch.num_vcs = 0;
        assert!(matches!(
            elaborate_routed(&cfg, routing),
            Err(CompileError::VcOverflow { .. })
        ));
    }

    #[test]
    fn elaboration_is_deterministic() {
        let cfg = PaperConfig::new().total_packets(50).uniform();
        let a = elaborate(&cfg).unwrap();
        let b = elaborate(&cfg).unwrap();
        // Same seeds => same switch LFSRs and same maps.
        assert_eq!(a.map.devices().len(), b.map.devices().len());
        assert_eq!(a.lfsr_seeds, b.lfsr_seeds);
    }
}
