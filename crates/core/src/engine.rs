//! The interpreted platform and the interpreted reference engine over it —
//! the software stand-in for the FPGA.
//!
//! [`Platform`] is the elaborated components plus the state a run
//! accumulates over them, with the semantics every interpreted engine
//! shares as methods. [`Emulation`] is the engine that steps it
//! directly: one [`SteppableEngine::step`] is one platform clock
//! cycle, of which this module supplies the cycle itself (the
//! [`CycleKernel`] impl) and [`crate::clock`] everything around it.
//! The canonical intra-cycle ordering (which [`crate::process`]
//! reproduces over the TLM and RTL fabrics, on the same [`Platform`])
//! is:
//!
//! 1. **TG tick** — every traffic model may release one packet into
//!    its network interface's source queue (ids are assigned globally
//!    in generator order);
//! 2. **decide** — every switch computes its grants from
//!    start-of-cycle state (ascending switch order);
//! 3. **NI send** — every network interface may inject one flit into
//!    its switch input (visible to `decide` from the next cycle);
//! 4. **commit** — every switch pops its granted flits, returns
//!    credits upstream, pushes flits downstream (visible next cycle)
//!    and delivers ejected flits to receptors *this* cycle;
//! 5. the cycle counter advances and the stop condition is evaluated
//!    (the shared step skeleton).
//!
//! The memory-mapped bus the configuration software programs is not
//! the engine's: a [`crate::Board`] puts it in front of this engine or
//! any other.

use crate::clock::{self, CycleKernel, EngineSummary, RunState, SteppableEngine};
use crate::compile::{switch_config, Elaboration, InSource, OutTarget};
use crate::error::EmulationError;
use crate::profile::{lap, Phase, PhaseProfiler};
use crate::results::EmulationResults;
use crate::view::{ArchView, ReceptorRow};
use nocem_common::flit::{Flit, PacketDescriptor};
use nocem_common::ids::{EndpointId, PacketId, PortId, SwitchId, VcId};
use nocem_common::time::Cycle;
use nocem_stats::ledger::{LedgerError, PacketLedger};
use nocem_stats::receptor::CompletedPacket;
use nocem_switch::switch::Switch;
use nocem_traffic::generator::PacketRequest;
use nocem_traffic::trace::{TraceEvent, TraceRecorder};
use std::time::Instant;

/// The interpreted platform: the elaborated components plus the state
/// a run accumulates over them, and the semantics every interpreted
/// engine shares — back-pressure-aware release, NI send, delivery,
/// drain and quiescence, the architectural-state view.
///
/// [`Emulation`] steps it directly; [`crate::ProcessModel`] — the TLM
/// and RTL baselines — holds it behind its process closures and calls
/// the same methods from inside them, so the two cannot drift apart.
/// What differs is only *when* a method runs (a phase loop, or a
/// process of a [`crate::process::Fabric`]) and how flits travel between
/// switches (direct calls, or a link that delivers next cycle).
pub struct Platform {
    /// The elaborated components, wiring and configuration.
    pub elab: Elaboration,
    /// The interpreted switches, in switch-id order, built from the
    /// parameters the elaboration recorded.
    pub switches: Vec<Switch>,
    /// Per-phase self-profiler (None = off, zero timestamp cost).
    /// Ledger calls inside the methods below are charged to the nested
    /// [`Phase::Ledger`]. An engine whose processes interleave the
    /// phases moves it out and charges whole cycles instead.
    pub profiler: Option<PhaseProfiler>,
    generator_endpoints: Vec<EndpointId>,
    ledger: PacketLedger,
    next_packet: u64,
    /// Per-TG output register: a request the source queue could not
    /// absorb yet (the model is clock-gated while this is occupied).
    pending: Vec<Option<PacketRequest>>,
    stalled: u64,
    delivered_flits: u64,
    /// First error raised where it could not be returned (see
    /// [`Platform::latch`]).
    fault: Option<EmulationError>,
}

impl Platform {
    /// Wraps an elaboration into a platform at cycle 0 — the one place
    /// interpreted [`Switch`]es are built.
    pub fn new(elab: Elaboration) -> Self {
        let topo = &elab.config.topology;
        let vcs = usize::from(elab.config.switch.num_vcs);
        let switches = topo
            .switch_ids()
            .map(|s| {
                let config = switch_config(&elab.config, s);
                let credits = (0..config.outputs)
                    .map(|p| vec![elab.out_credits(s, PortId::new(p)); vcs])
                    .collect();
                let seed = elab.lfsr_seeds[s.index()];
                match elab.routing.grid_router() {
                    Some(router) => Switch::new_grid(config, router.clone(), s, credits, seed),
                    None => {
                        let table = elab.routing.shared_switch_table(s);
                        Switch::new_table(config, table, credits, seed)
                    }
                }
                // Elaboration range-checked the routes; credits are outputs × VCs.
                .expect("an elaborated switch builds")
            })
            .collect();
        Platform {
            switches,
            generator_endpoints: elab.config.topology.generators(),
            ledger: PacketLedger::new(),
            next_packet: 0,
            pending: vec![None; elab.tgs.len()],
            stalled: 0,
            delivered_flits: 0,
            fault: None,
            profiler: elab.profiler(),
            elab,
        }
    }

    /// The packet ledger.
    pub fn ledger(&self) -> &PacketLedger {
        &self.ledger
    }

    /// Flits fully delivered so far.
    pub fn delivered_flits(&self) -> u64 {
        self.delivered_flits
    }

    /// Runs one ledger call, charged to the nested ledger phase when
    /// profiling.
    fn on_ledger<T>(
        &mut self,
        call: impl FnOnce(&mut PacketLedger) -> Result<T, LedgerError>,
    ) -> Result<T, EmulationError> {
        let start = self.profiler.is_some().then(Instant::now);
        let out = call(&mut self.ledger)?;
        if let (Some(s), Some(p)) = (start, self.profiler.as_mut()) {
            p.nested(s, Phase::Ledger);
        }
        Ok(out)
    }

    /// Phase 1 for generator `i`: the traffic model may release one
    /// packet into its NI's source queue; returns its descriptor. A
    /// model whose request finds the queue full is clock-gated: the
    /// request parks in the TG's output register and retries every
    /// cycle until a slot frees, so no packet is dropped (hardware
    /// backpressure via the NI's ready signal). Ids are assigned in
    /// call order — callers visit generators ascending.
    ///
    /// # Errors
    ///
    /// Propagates ledger violations.
    pub fn release(
        &mut self,
        i: usize,
        now: Cycle,
    ) -> Result<Option<PacketDescriptor>, EmulationError> {
        let parked = self.pending[i].take();
        let Some(req) = parked.or_else(|| self.elab.tgs[i].tick(now)) else {
            return Ok(None);
        };
        if !self.elab.nis[i].can_accept() {
            self.pending[i] = Some(req);
            self.stalled += 1;
            return Ok(None);
        }
        let id = PacketId::new(self.next_packet);
        let desc = PacketDescriptor {
            id,
            src: self.generator_endpoints[i],
            dst: req.dst,
            flow: req.flow,
            len_flits: req.len_flits,
            release: now,
        };
        let accepted = self.elab.nis[i].offer(desc);
        debug_assert!(accepted, "capacity was checked before the offer");
        self.next_packet += 1;
        self.on_ledger(|l| l.release(id, now, req.len_flits))?;
        Ok(Some(desc))
    }

    /// Phase 3 for network interface `i`: emits at most one flit toward
    /// its switch input, booking the packet's injection on a head.
    ///
    /// # Errors
    ///
    /// Propagates ledger violations.
    pub fn send(&mut self, i: usize, now: Cycle) -> Result<Option<Flit>, EmulationError> {
        let Some(flit) = self.elab.nis[i].tick_send() else {
            return Ok(None);
        };
        if flit.kind.is_head() {
            self.on_ledger(|l| l.inject(flit.packet, now))?;
        }
        Ok(Some(flit))
    }

    /// Hands an ejected flit to receptor `index`; returns the packet it
    /// completed, if any, booked in the ledger.
    ///
    /// # Errors
    ///
    /// Propagates receptor protocol and ledger violations.
    pub fn deliver(
        &mut self,
        index: usize,
        flit: Flit,
        now: Cycle,
    ) -> Result<Option<CompletedPacket>, EmulationError> {
        let r = &mut self.elab.receptors[index];
        let completed = r
            .accept(&flit, now)
            .map_err(|source| EmulationError::Receive {
                receptor: r.id(),
                source,
            })?;
        if let Some(pkt) = completed {
            let lat = self.on_ledger(|l| l.deliver(pkt.id, now, pkt.len_flits))?;
            self.delivered_flits += u64::from(pkt.len_flits);
            self.elab.receptors[index].record_latency(lat.network);
        }
        Ok(completed)
    }

    /// Keeps the first error of a callback that cannot return one (the
    /// process model's closures); [`Platform::take_fault`] surfaces it
    /// after the cycle.
    pub fn latch<T>(&mut self, outcome: Result<T, EmulationError>) -> Option<T> {
        match outcome {
            Ok(value) => Some(value),
            Err(e) => {
                self.fault.get_or_insert(e);
                None
            }
        }
    }

    /// The first latched error, if any.
    ///
    /// # Errors
    ///
    /// Returns the error [`Platform::latch`] kept.
    pub fn take_fault(&mut self) -> Result<(), EmulationError> {
        self.fault.take().map_or(Ok(()), Err)
    }

    /// The drain-mode stop condition.
    pub fn drained(&self) -> bool {
        self.elab.tgs.iter().all(|t| t.is_exhausted())
            && self.pending.iter().all(Option::is_none)
            && self.elab.nis.iter().all(|n| n.is_idle())
            && self.ledger.in_flight() == 0
    }

    /// Whether the whole platform is quiescent: no parked TG request,
    /// every NI idle with all credits home, every switch quiescent, no
    /// packet in flight. See [`clock::platform_quiescent`].
    pub fn is_quiescent(&self) -> bool {
        clock::platform_quiescent(
            &self.switches,
            &self.elab.nis,
            &self.pending,
            self.ledger.in_flight(),
        )
    }

    /// [`CycleKernel::idle_jump`] over the components: quiescence, then
    /// [`clock::fast_forward`].
    pub fn idle_jump(&mut self, now: Cycle, horizon: u64) -> u64 {
        if self.is_quiescent() {
            clock::fast_forward(now, horizon, &mut self.elab.tgs)
        } else {
            0
        }
    }

    /// The architectural-state producer of the interpreted engines:
    /// copies the switches', NIs' and receptors' live state into
    /// `view`, a view of this platform's elaboration.
    pub fn read_view(&self, view: &mut ArchView) {
        view.alloc_live();
        let vcs = view.vcs;
        let mut outs = view.ports.iter_mut().zip(view.credits.chunks_mut(vcs));
        let mut ins = view.inputs.chunks_mut(vcs);
        for (sw, wm) in self.switches.iter().zip(view.watermarks.chunks_mut(vcs)) {
            let (c, config) = (sw.counters(), sw.config());
            wm.copy_from_slice(&c.max_vc_occupancy);
            for (o, (port, credits)) in outs.by_ref().take(config.outputs.into()).enumerate() {
                (port.blocked, port.forwarded) =
                    (c.blocked_cycles_per_output[o], c.forwarded_per_output[o]);
                for (v, credit) in credits.iter_mut().enumerate() {
                    *credit = sw.credits_vc(PortId::new(o as u8), VcId::new(v as u8));
                }
            }
            for (i, per_vc) in ins.by_ref().take(config.inputs.into()).enumerate() {
                for (v, input) in per_vc.iter_mut().enumerate() {
                    let (port, vc) = (PortId::new(i as u8), VcId::new(v as u8));
                    input.occupancy = sw.occupancy_vc(port, vc) as u32;
                    (input.want, input.worm_open) = sw.wants(port, vc);
                }
            }
        }
        let sources = self.elab.nis.iter().zip(&self.elab.tgs);
        for ((ni, tg), row) in sources.zip(&mut view.nis) {
            let c = ni.counters();
            (row.link.blocked, row.link.forwarded) = (c.blocked_cycles, c.injected_flits);
            row.accepted = c.accepted_packets;
            (row.exhausted, row.idle) = (tg.is_exhausted(), ni.is_idle());
        }
        for (r, row) in self.elab.receptors.iter().zip(&mut view.receptors) {
            *row = ReceptorRow::of(r);
        }
    }

    /// The results of the run `summary` describes, `view` being this
    /// platform's state at its end.
    pub fn results(&self, summary: EngineSummary, view: &ArchView) -> EmulationResults {
        let (name, stalled) = (&self.elab.config.name, self.stalled);
        EmulationResults::from_view(name, summary, stalled, view, &self.elab.receptors)
    }
}

/// A compiled platform ready to emulate.
pub struct Emulation {
    run: RunState,
    platform: Platform,
    recorder: Option<TraceRecorder>,
    /// The architectural-state view buffer.
    view: ArchView,
}

impl std::fmt::Debug for Emulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Emulation")
            .field("name", &self.platform.elab.config.name)
            .field("cycle", &self.run.now)
            .field("delivered", &self.platform.ledger.delivered())
            .finish_non_exhaustive()
    }
}

impl Emulation {
    /// Wraps an elaboration into a runnable emulation.
    pub fn new(elab: Elaboration) -> Self {
        let config = &elab.config;
        Emulation {
            run: RunState::new(config),
            recorder: config.record_trace.then(TraceRecorder::new),
            view: ArchView::new(&elab),
            platform: Platform::new(elab),
        }
    }

    /// The elaborated platform (read access for inspection).
    pub fn elaboration(&self) -> &Elaboration {
        &self.platform.elab
    }

    /// The packet ledger (read access for tests and reports).
    pub fn ledger(&self) -> &PacketLedger {
        &self.platform.ledger
    }

    /// Runs until the stop condition holds ([`clock::run_engine`]).
    ///
    /// # Errors
    ///
    /// Propagates [`EmulationError`] from [`SteppableEngine::step`].
    pub fn run(&mut self) -> Result<(), EmulationError> {
        clock::run_engine(self)
    }

    /// Extracts the results of a finished (or stopped) run.
    pub fn results(&mut self) -> EmulationResults {
        self.platform.read_view(&mut self.view);
        self.platform.results(self.summary(), &self.view)
    }

    /// Consumes the emulation and returns results plus the recorded
    /// trace, if recording was enabled.
    pub fn into_results(mut self) -> (EmulationResults, Option<nocem_traffic::trace::Trace>) {
        let results = self.results();
        let trace = self.recorder.take().map(TraceRecorder::into_trace);
        (results, trace)
    }
}

impl CycleKernel for Emulation {
    const LABEL: &'static str = "emulation";

    fn run_state(&self) -> &RunState {
        &self.run
    }

    fn run_state_mut(&mut self) -> &mut RunState {
        &mut self.run
    }

    fn profiler_mut(&mut self) -> Option<&mut PhaseProfiler> {
        self.platform.profiler.as_mut()
    }

    fn idle_jump(&mut self, now: Cycle, horizon: u64) -> u64 {
        self.platform.idle_jump(now, horizon)
    }

    /// One platform cycle in the canonical phase order (module docs).
    fn cycle(&mut self, now: Cycle, t: &mut Option<Instant>) -> Result<(), EmulationError> {
        // 1. Traffic models release packets.
        for i in 0..self.platform.elab.tgs.len() {
            let released = self.platform.release(i, now)?;
            if let (Some(desc), Some(rec)) = (released, &mut self.recorder) {
                rec.record(TraceEvent {
                    at: now,
                    src: desc.src,
                    dst: desc.dst,
                    flow: desc.flow,
                    len_flits: desc.len_flits,
                });
            }
        }
        lap(self.platform.profiler.as_mut(), t, Phase::TgTick);

        // 2. All switches decide on start-of-cycle state.
        for sw in &mut self.platform.switches {
            sw.decide();
        }
        lap(self.platform.profiler.as_mut(), t, Phase::Decide);

        // 3. Network interfaces inject (visible next cycle).
        for i in 0..self.platform.elab.nis.len() {
            let Some(flit) = self.platform.send(i, now)? else {
                continue;
            };
            let (s, port, _) = self.platform.elab.wiring.injection[i];
            self.platform.switches[s]
                .accept(port, flit)
                .map_err(|source| EmulationError::FifoOverflow {
                    switch: SwitchId::new(s as u32),
                    source,
                })?;
        }
        lap(self.platform.profiler.as_mut(), t, Phase::NiInject);

        // 4. All switches commit; flits move one hop.
        for s in 0..self.platform.switches.len() {
            let sends = self.platform.switches[s].commit_sends();
            for mv in sends {
                let platform = &mut self.platform;
                match platform.elab.wiring.in_source[s][mv.input.index()] {
                    InSource::Switch { switch, port } => {
                        // The upstream output VC the flit occupied is
                        // the input VC it just vacated here.
                        platform.switches[switch].credit_return(port, mv.input_vc);
                    }
                    InSource::Generator { index } => {
                        platform.elab.nis[index].credit_return();
                    }
                }
                match platform.elab.wiring.out_target[s][mv.output.index()] {
                    OutTarget::Switch { switch, port } => {
                        platform.switches[switch]
                            .accept(port, mv.flit)
                            .map_err(|source| EmulationError::FifoOverflow {
                                switch: SwitchId::new(switch as u32),
                                source,
                            })?;
                    }
                    OutTarget::Receptor { index } => {
                        platform.deliver(index, mv.flit, now)?;
                    }
                }
            }
        }
        lap(self.platform.profiler.as_mut(), t, Phase::Commit);
        Ok(())
    }

    fn drained(&self) -> bool {
        self.platform.drained()
    }

    fn arch_view(&mut self) -> &ArchView {
        self.platform.read_view(&mut self.view);
        &self.view
    }

    fn ledger(&self) -> impl std::ops::Deref<Target = PacketLedger> + '_ {
        &self.platform.ledger
    }

    fn delivered_flits(&self) -> u64 {
        self.platform.delivered_flits
    }
}

/// Convenience: compile and wrap in one call.
///
/// # Errors
///
/// Propagates [`crate::error::CompileError`].
pub fn build(
    config: &crate::config::PlatformConfig,
) -> Result<Emulation, crate::error::CompileError> {
    Ok(Emulation::new(crate::compile::elaborate(config)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PaperConfig, PlatformConfig};
    use nocem_topology::builders::mesh;

    #[test]
    fn paper_uniform_run_delivers_everything() {
        let cfg = PaperConfig::new().total_packets(400).uniform();
        let mut emu = build(&cfg).unwrap();
        emu.run().unwrap();
        assert_eq!(emu.delivered(), 400);
        assert!(emu.now().raw() > 0);
        emu.ledger().verify_drained().unwrap();
    }

    #[test]
    fn drain_stop_condition_empties_network() {
        let mut cfg = PaperConfig::new().total_packets(120).uniform();
        cfg.stop.delivered_packets = None; // drain mode
        let mut emu = build(&cfg).unwrap();
        emu.run().unwrap();
        assert_eq!(emu.delivered(), 120, "budgets still bound the run");
        assert_eq!(emu.ledger().in_flight(), 0);
    }

    #[test]
    fn burst_run_takes_longer_than_uniform() {
        let packets = 2_000;
        let uni = {
            let cfg = PaperConfig::new().total_packets(packets).uniform();
            let mut e = build(&cfg).unwrap();
            e.run().unwrap();
            e.now().raw()
        };
        let bur = {
            let cfg = PaperConfig::new().total_packets(packets).burst(16);
            let mut e = build(&cfg).unwrap();
            e.run().unwrap();
            e.now().raw()
        };
        assert!(
            bur > uni,
            "burst traffic congests more: uniform {uni} vs burst {bur} cycles"
        );
    }

    #[test]
    fn trace_driven_run_completes() {
        let cfg = PaperConfig::new().total_packets(200).trace_bursty(8);
        let mut emu = build(&cfg).unwrap();
        emu.run().unwrap();
        assert_eq!(emu.delivered(), 200);
    }

    #[test]
    fn mesh_baseline_drains() {
        let mut cfg = PlatformConfig::baseline("m", mesh(2, 2).unwrap()).unwrap();
        // Bound the generators so drain mode terminates.
        for (i, g) in cfg.generators.iter_mut().enumerate() {
            if let crate::config::TrafficModel::Uniform(u) = g {
                u.budget = Some(50 + i as u64);
            }
        }
        let mut emu = build(&cfg).unwrap();
        emu.run().unwrap();
        emu.ledger().verify_drained().unwrap();
        assert_eq!(emu.delivered(), 50 + 51 + 52 + 53);
    }

    #[test]
    fn cycle_limit_is_enforced() {
        let mut cfg = PaperConfig::new().total_packets(1_000_000).uniform();
        cfg.stop.cycle_limit = 500;
        let mut emu = build(&cfg).unwrap();
        let err = emu.run().unwrap_err();
        assert!(matches!(err, EmulationError::CycleLimitExceeded { .. }));
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            let cfg = PaperConfig::new().total_packets(300).burst(8);
            let mut emu = build(&cfg).unwrap();
            emu.run().unwrap();
            (
                emu.now().raw(),
                emu.ledger().network_latency().sum(),
                emu.ledger().total_latency().sum(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn progress_callback_fires() {
        let cfg = PaperConfig::new().total_packets(100).uniform();
        let mut emu = build(&cfg).unwrap();
        let mut calls = 0;
        clock::run_engine_with_progress(&mut emu, 64, |_, _| calls += 1).unwrap();
        assert!(calls > 0);
    }

    #[test]
    fn recorded_trace_replays_identically() {
        let mut cfg = PaperConfig::new().total_packets(150).uniform();
        cfg.record_trace = true;
        let mut emu = build(&cfg).unwrap();
        emu.run().unwrap();
        let first_cycles = emu.now().raw();
        let (_, trace) = emu.into_results();
        let trace = trace.expect("recording enabled");
        assert_eq!(trace.len(), 150);

        // Replay through trace-driven TGs: same traffic, same cycles.
        let mut cfg2 = PaperConfig::new().total_packets(150).uniform();
        let sources = PaperConfig::new().sources();
        cfg2.generators = sources
            .iter()
            .map(|_| crate::config::TrafficModel::Trace(trace.clone()))
            .collect();
        cfg2.receptors = vec![nocem_stats::TrKind::TraceDriven; 4];
        let mut emu2 = build(&cfg2).unwrap();
        emu2.run().unwrap();
        assert_eq!(emu2.delivered(), 150);
        assert_eq!(emu2.now().raw(), first_cycles, "replay is cycle-exact");
    }

    #[test]
    fn dual_routing_uses_both_paths() {
        let cfg = PaperConfig::new()
            .total_packets(800)
            .routing(crate::config::PaperRouting::Dual {
                secondary_probability: 0.5,
            })
            .uniform();
        let mut emu = build(&cfg).unwrap();
        emu.run().unwrap();
        assert_eq!(emu.delivered(), 800);
        // The vertical links (detours) must have carried flits.
        let cc = emu.results().congestion;
        let setup = PaperConfig::new();
        let p = setup.setup();
        let vertical_flits: u64 = p
            .topology
            .links()
            .filter(|l| l.is_inter_switch() && !p.hot_links.contains(&l.id))
            .map(|l| cc.forwarded(l.id))
            .sum();
        assert!(vertical_flits > 0, "secondary paths unused");
    }

    #[test]
    fn congestion_counters_match_hot_links() {
        let cfg = PaperConfig::new().total_packets(3_000).uniform();
        let mut emu = build(&cfg).unwrap();
        emu.run().unwrap();
        let cc = emu.results().congestion;
        let setup = PaperConfig::new();
        let hot = setup.setup().hot_links;
        let cycles = emu.now().raw();
        for h in hot {
            let util = cc.utilization(h, cycles);
            assert!(
                (0.75..=1.0).contains(&util),
                "hot link utilization {util} (expected ~0.9)"
            );
        }
    }
}
