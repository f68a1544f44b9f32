//! Transaction-level model of the emulation platform.
//!
//! The same elaborated components as the fast engine, scheduled as
//! SystemC-style processes exchanging flits through double-buffered
//! channels ([`crate::scheduler`]). Runs are cycle- and flit-identical
//! to the fast engine and the RTL model; the cost sits between them —
//! the MPARM role in the paper's Table 2.

use crate::scheduler::{BitChanId, ChannelCtx, FlitChanId, Scheduler, SchedulerStats};
use nocem::clock::{self, CycleKernel, RunState};
use nocem::compile::Elaboration;
use nocem::engine::Platform;
use nocem::error::EmulationError;
use nocem::profile::{lap, Phase, PhaseProfiler, WaitEdge};
use nocem_common::ids::{PortId, SwitchId, VcId};
use nocem_common::time::Cycle;
use nocem_stats::ledger::PacketLedger;
use nocem_telemetry::CumulativeProbe;
use std::cell::{Ref, RefCell};
use std::rc::Rc;
use std::time::Instant;

/// The transaction-level simulation engine.
pub struct TlmEngine {
    run: RunState,
    scheduler: Scheduler,
    /// The interpreted platform, shared with the process closures.
    shared: Rc<RefCell<Platform>>,
    /// Flit channels of every non-ejection link. A flit latched here
    /// was written last cycle and enters the downstream FIFO this
    /// cycle — the fast engine already counts it in that FIFO, so the
    /// occupancy probe adds it. Ejection channels are excluded: their
    /// flits were delivered in the update phase of the cycle that
    /// wrote them and never occupy a buffer.
    inflight_chans: Vec<FlitChanId>,
    /// Every credit channel with the component its credit returns to.
    credit_homes: Vec<(BitChanId, CreditHome)>,
    /// Per-phase self-profiler, enabled by `PlatformConfig.profile`.
    /// The scheduler cycle is opaque (processes interleave the
    /// platform phases), so it is charged to [`Phase::Processes`].
    profiler: Option<PhaseProfiler>,
}

/// Where a credit channel's credit goes home.
#[derive(Clone, Copy)]
enum CreditHome {
    /// The network interface of this generator.
    Ni(usize),
    /// This output VC of this switch.
    Switch(usize, PortId, VcId),
}

impl std::fmt::Debug for TlmEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TlmEngine")
            .field("time", &self.scheduler.time())
            .finish_non_exhaustive()
    }
}

impl TlmEngine {
    /// Builds the TLM model from an elaboration.
    pub fn new(elab: Elaboration) -> Self {
        let mut scheduler = Scheduler::new();
        let run = RunState::new(&elab.config);
        let mut platform = Platform::new(elab);
        let profiler = platform.profiler.take();
        let shared = Rc::new(RefCell::new(platform));
        let platform = shared.borrow();
        let topo = &platform.elab.config.topology;
        let wiring = &platform.elab.wiring;
        let num_vcs = platform.elab.config.switch.num_vcs as usize;

        let flit_chans: Vec<FlitChanId> = (0..topo.link_count())
            .map(|_| scheduler.flit_channel())
            .collect();
        // One reverse credit channel per (link, VC): a pop from VC v
        // downstream frees one slot of VC v upstream.
        let credit_chans: Vec<Vec<BitChanId>> = (0..topo.link_count())
            .map(|_| (0..num_vcs).map(|_| scheduler.bit_channel()).collect())
            .collect();

        let mut is_ejection = vec![false; topo.link_count()];
        for link in &wiring.ejection_link {
            is_ejection[link.index()] = true;
        }
        let inflight_chans: Vec<FlitChanId> = flit_chans
            .iter()
            .enumerate()
            .filter(|&(l, _)| !is_ejection[l])
            .map(|(_, &c)| c)
            .collect();

        let mut credit_homes = Vec::new();
        // NI processes first (packet-id order must match the fast
        // engine), then switches — identical ordering to the RTL
        // model.
        for (i, &(_, _, link)) in wiring.injection.iter().enumerate() {
            let out = flit_chans[link.index()];
            // NIs inject on VC 0 only, so they watch that VC's credit.
            let credit = credit_chans[link.index()][0];
            credit_homes.push((credit, CreditHome::Ni(i)));
            let sh = Rc::clone(&shared);
            scheduler.process(move |now: Cycle, ch: &mut ChannelCtx| {
                let sh = &mut *sh.borrow_mut();
                if ch.read_bit(credit) {
                    sh.elab.nis[i].credit_return();
                }
                let released = sh.release(i, now);
                sh.latch(released);
                let sent = sh.send(i, now);
                ch.write_flit(out, sh.latch(sent).flatten());
            });
        }

        for s in 0..platform.elab.switches.len() {
            let info = topo.switch(SwitchId::new(s as u32));
            let in_chans: Vec<FlitChanId> = (0..info.inputs)
                .map(|p| flit_chans[wiring.in_link[s][p as usize].index()])
                .collect();
            let in_credit: Vec<Vec<BitChanId>> = (0..info.inputs)
                .map(|p| credit_chans[wiring.in_link[s][p as usize].index()].clone())
                .collect();
            let out_links: Vec<usize> = (0..info.outputs)
                .map(|p| {
                    topo.out_link(SwitchId::new(s as u32), PortId::new(p))
                        .index()
                })
                .collect();
            let out_chans: Vec<FlitChanId> = out_links.iter().map(|&l| flit_chans[l]).collect();
            let out_credit: Vec<Vec<BitChanId>> =
                out_links.iter().map(|&l| credit_chans[l].clone()).collect();
            for (o, per_vc) in out_credit.iter().enumerate() {
                for (v, &c) in per_vc.iter().enumerate() {
                    let home = CreditHome::Switch(s, PortId::new(o as u8), VcId::new(v as u8));
                    credit_homes.push((c, home));
                }
            }
            let sh = Rc::clone(&shared);
            scheduler.process(move |_now: Cycle, ch: &mut ChannelCtx| {
                let sh = &mut *sh.borrow_mut();
                let sw = &mut sh.elab.switches[s];
                for (p, c) in in_chans.iter().enumerate() {
                    if let Some(f) = ch.read_flit(*c) {
                        if let Err(source) = sw.accept(PortId::new(p as u8), f) {
                            sh.latch::<()>(Err(EmulationError::FifoOverflow {
                                switch: SwitchId::new(s as u32),
                                source,
                            }));
                            return;
                        }
                    }
                }
                for (o, per_vc) in out_credit.iter().enumerate() {
                    for (v, c) in per_vc.iter().enumerate() {
                        if ch.read_bit(*c) {
                            sw.credit_return(PortId::new(o as u8), VcId::new(v as u8));
                        }
                    }
                }
                sw.decide();
                let sends = sw.commit_sends();
                let mut out_flit: Vec<Option<nocem_common::flit::Flit>> =
                    vec![None; out_chans.len()];
                // At most one flit pops per input port per cycle; the
                // credit travels back on that flit's input VC.
                let mut popped: Vec<Option<u8>> = vec![None; in_chans.len()];
                for t in sends {
                    out_flit[t.output.index()] = Some(t.flit);
                    popped[t.input.index()] = Some(t.input_vc.raw());
                }
                for (o, c) in out_chans.iter().enumerate() {
                    ch.write_flit(*c, out_flit[o]);
                }
                for (p, per_vc) in in_credit.iter().enumerate() {
                    for (v, c) in per_vc.iter().enumerate() {
                        ch.write_bit(*c, popped[p] == Some(v as u8));
                    }
                }
            });
        }

        // Receptor watchers (update-phase callbacks).
        for (idx, link) in wiring.ejection_link.iter().enumerate() {
            let sh = Rc::clone(&shared);
            scheduler.watch_flit(flit_chans[link.index()], move |value, now| {
                if let Some(f) = value {
                    let sh = &mut *sh.borrow_mut();
                    let delivered = sh.deliver(idx, f, now);
                    sh.latch(delivered);
                }
            });
        }

        drop(platform);
        TlmEngine {
            run,
            scheduler,
            shared,
            inflight_chans,
            credit_homes,
            profiler,
        }
    }

    /// Work counters of the scheduler (the TLM cost).
    pub fn scheduler_stats(&self) -> SchedulerStats {
        self.scheduler.stats()
    }

    /// Runs to the stop condition.
    ///
    /// # Errors
    ///
    /// Propagates protocol violations and the cycle limit.
    pub fn run(&mut self) -> Result<(), EmulationError> {
        clock::run_engine(self)
    }
}

impl CycleKernel for TlmEngine {
    const LABEL: &'static str = "tlm";

    fn run_state(&self) -> &RunState {
        &self.run
    }

    fn run_state_mut(&mut self) -> &mut RunState {
        &mut self.run
    }

    fn profiler_mut(&mut self) -> Option<&mut PhaseProfiler> {
        self.profiler.as_mut()
    }

    /// Jumps the scheduler's time along with the platform's generators
    /// without activating a single process. A credit still on its
    /// channel was returned last cycle — the fast engine holds it home
    /// already, and the processes would take it home before anything
    /// else this cycle — so it is taken home first (and off the
    /// channel): quiescence then holds on the cycle it holds in the fast
    /// engine, and both jump the same windows. Component quiescence
    /// implies every other channel sits at its idle value (a flit in a
    /// channel is an undelivered packet), so the skipped cycles would
    /// have been pure no-ops.
    fn idle_jump(&mut self, now: Cycle, horizon: u64) -> u64 {
        let platform = &mut *self.shared.borrow_mut();
        for &(chan, home) in &self.credit_homes {
            if self.scheduler.take_bit(chan) {
                match home {
                    CreditHome::Ni(i) => platform.elab.nis[i].credit_return(),
                    CreditHome::Switch(s, o, v) => platform.elab.switches[s].credit_return(o, v),
                }
            }
        }
        let skipped = platform.idle_jump(now, horizon);
        self.scheduler.advance_time(skipped);
        skipped
    }

    fn cycle(&mut self, now: Cycle, t: &mut Option<Instant>) -> Result<(), EmulationError> {
        debug_assert_eq!(self.scheduler.time(), now.raw(), "the two clocks agree");
        self.scheduler.cycle();
        lap(self.profiler.as_mut(), t, Phase::Processes);
        self.shared.borrow_mut().take_fault()
    }

    fn drained(&self) -> bool {
        self.shared.borrow().drained()
    }

    /// The platform's probe with in-flight channel flits compensated
    /// (see `inflight_chans`).
    fn cumulative_probe(&mut self) -> Result<CumulativeProbe, EmulationError> {
        let mut p = self.shared.borrow().cumulative_probe();
        for &chan in &self.inflight_chans {
            if let Some(f) = self.scheduler.flit_value(chan) {
                p.add_vc(f.vc.index(), 1);
            }
        }
        Ok(p)
    }

    fn wait_edges(&mut self) -> Result<Vec<WaitEdge>, EmulationError> {
        Ok(self.shared.borrow().wait_edges())
    }

    fn ledger(&self) -> impl std::ops::Deref<Target = PacketLedger> + '_ {
        Ref::map(self.shared.borrow(), Platform::ledger)
    }

    fn delivered_flits(&self) -> u64 {
        self.shared.borrow().delivered_flits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nocem::clock::SteppableEngine;
    use nocem::compile::elaborate;
    use nocem::config::PaperConfig;

    #[test]
    fn tlm_delivers_all_packets() {
        let cfg = PaperConfig::new().total_packets(150).uniform();
        let mut engine = TlmEngine::new(elaborate(&cfg).unwrap());
        engine.run().unwrap();
        let s = engine.summary();
        assert_eq!(s.delivered, 150);
        assert!(engine.scheduler_stats().activations > s.cycles);
    }

    #[test]
    fn tlm_matches_fast_engine_exactly() {
        let cfg = PaperConfig::new().total_packets(300).burst(8);
        let mut emu = nocem::engine::build(&cfg).unwrap();
        emu.run().unwrap();
        let mut tlm = TlmEngine::new(elaborate(&cfg).unwrap());
        tlm.run().unwrap();
        let s = tlm.summary();
        assert_eq!(s.cycles, emu.now().raw(), "cycle-exact run length");
        assert_eq!(s.delivered, emu.delivered());
        assert_eq!(
            s.network_latency.sum(),
            emu.ledger().network_latency().sum()
        );
        assert_eq!(s.total_latency.sum(), emu.ledger().total_latency().sum());
    }

    #[test]
    fn tlm_telemetry_matches_fast_engine_exactly() {
        let cfg = PaperConfig::new()
            .total_packets(200)
            .burst(8)
            .with_telemetry(Some(nocem_telemetry::TelemetryConfig::windowed(64)));
        let mut emu = nocem::engine::build(&cfg).unwrap();
        emu.run().unwrap();
        emu.seal_telemetry();
        let mut tlm = TlmEngine::new(elaborate(&cfg).unwrap());
        tlm.run().unwrap();
        tlm.seal_telemetry();
        let fast = emu.telemetry().unwrap();
        let ours = tlm.telemetry().unwrap();
        assert!(fast.windows_recorded() > 0, "run long enough to window");
        assert_eq!(
            ours, fast,
            "windowed series (incl. live occupancy) are engine-invariant"
        );
    }

    #[test]
    fn tlm_trace_driven_works() {
        let cfg = PaperConfig::new().total_packets(100).trace_bursty(4);
        let mut engine = TlmEngine::new(elaborate(&cfg).unwrap());
        engine.run().unwrap();
        assert_eq!(engine.delivered(), 100);
    }

    #[test]
    fn tlm_cycle_limit_enforced() {
        let mut cfg = PaperConfig::new().total_packets(1_000_000).uniform();
        cfg.stop.cycle_limit = 100;
        let mut engine = TlmEngine::new(elaborate(&cfg).unwrap());
        assert!(matches!(
            engine.run(),
            Err(EmulationError::CycleLimitExceeded { .. })
        ));
    }
}
