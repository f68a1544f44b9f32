//! RTL-style model of the emulation platform.
//!
//! The same elaborated components as the fast engine (`nocem`), but
//! wired at the signal level and scheduled by the event-driven
//! [`crate::kernel`]: every link is a flit wire plus a reverse credit
//! wire, every switch and network interface is a clocked process with
//! nonblocking outputs, and every receptor is a monitor process woken
//! by activity on its ejection wire.
//!
//! Because the processes wrap the *identical* component models and the
//! kernel's NBA semantics realize exactly the two-phase cycle contract
//! of `nocem-switch`, a run here is cycle- and flit-identical to the
//! fast engine — it just pays the per-signal event machinery that a
//! Verilog simulator pays, which is the point of the Table 2 baseline.

use crate::kernel::{Kernel, KernelStats, ProcessCtx, SignalId, Value};
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

/// The RTL simulation engine.
pub struct RtlEngine {
    run: RunState,
    kernel: Kernel,
    /// The interpreted platform, shared with the kernel processes.
    shared: Rc<RefCell<Platform>>,
    /// Flit wires of every non-ejection link. A flit latched on such
    /// a wire was driven last cycle and is sampled into the
    /// downstream FIFO this cycle — the fast engine already counts it
    /// there, so the occupancy probe adds it. Ejection wires are
    /// excluded: their flits were delivered by the receptor monitor
    /// at drive time and never occupy a buffer.
    inflight_wires: Vec<SignalId>,
    /// Every credit wire with the component its credit returns to.
    credit_homes: Vec<(SignalId, CreditHome)>,
    /// Per-phase self-profiler, enabled by `PlatformConfig.profile`.
    /// The kernel cycle is opaque (processes interleave the platform
    /// phases), so it is charged to [`Phase::Processes`].
    profiler: Option<PhaseProfiler>,
}

/// Where a credit wire's credit goes home.
#[derive(Clone, Copy)]
enum CreditHome {
    /// The network interface of this generator.
    Ni(usize),
    /// This output VC of this switch.
    Switch(usize, PortId, VcId),
}

impl std::fmt::Debug for RtlEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RtlEngine")
            .field("time", &self.kernel.time())
            .finish_non_exhaustive()
    }
}

impl RtlEngine {
    /// Builds the RTL model from an elaboration (consumes it; the
    /// platform moves behind the kernel processes).
    pub fn new(elab: Elaboration) -> Self {
        let mut kernel = Kernel::new();
        let run = RunState::new(&elab.config);
        let mut platform = Platform::new(elab);
        let profiler = platform.profiler.take();
        let shared = Rc::new(RefCell::new(platform));
        let platform = shared.borrow();
        let topo = &platform.elab.config.topology;
        let wiring = &platform.elab.wiring;
        let num_vcs = platform.elab.config.switch.num_vcs as usize;

        // One flit wire per link and one reverse credit wire per
        // (link, VC): a pop from VC v downstream frees one slot of VC
        // v upstream.
        let flit_wires: Vec<SignalId> = (0..topo.link_count())
            .map(|l| kernel.signal(format!("flit_l{l}")))
            .collect();
        let credit_wires: Vec<Vec<SignalId>> = (0..topo.link_count())
            .map(|l| {
                (0..num_vcs)
                    .map(|v| kernel.signal(format!("credit_l{l}v{v}")))
                    .collect()
            })
            .collect();

        let mut is_ejection = vec![false; topo.link_count()];
        for link in &wiring.ejection_link {
            is_ejection[link.index()] = true;
        }
        let inflight_wires: Vec<SignalId> = flit_wires
            .iter()
            .enumerate()
            .filter(|&(l, _)| !is_ejection[l])
            .map(|(_, &w)| w)
            .collect();

        let mut credit_homes = Vec::new();
        // Network-interface processes, in generator order (packet ids
        // must match the fast engine).
        for (i, &(_, _, link)) in wiring.injection.iter().enumerate() {
            let out_wire = flit_wires[link.index()];
            // NIs inject on VC 0 only, so they watch that VC's credit.
            let credit_wire = credit_wires[link.index()][0];
            credit_homes.push((credit_wire, CreditHome::Ni(i)));
            let sh = Rc::clone(&shared);
            kernel.clocked_process(move |ctx: &mut ProcessCtx<'_>| {
                let now = Cycle::new(ctx.time());
                let sh = &mut *sh.borrow_mut();
                if ctx.read(credit_wire).is_high() {
                    sh.elab.nis[i].credit_return();
                }
                let released = sh.release(i, now);
                sh.latch(released);
                let sent = sh.send(i, now);
                ctx.write(out_wire, Value::Flit(sh.latch(sent).flatten()));
            });
        }

        // Switch processes, in switch order.
        for s in 0..platform.elab.switches.len() {
            let info = topo.switch(SwitchId::new(s as u32));
            let in_wires: Vec<SignalId> = (0..info.inputs)
                .map(|p| flit_wires[wiring.in_link[s][p as usize].index()])
                .collect();
            let in_credit_wires: Vec<Vec<SignalId>> = (0..info.inputs)
                .map(|p| credit_wires[wiring.in_link[s][p as usize].index()].clone())
                .collect();
            let out_links: Vec<usize> = (0..info.outputs)
                .map(|p| {
                    topo.out_link(SwitchId::new(s as u32), PortId::new(p))
                        .index()
                })
                .collect();
            let out_wires: Vec<SignalId> = out_links.iter().map(|&l| flit_wires[l]).collect();
            let out_credit_wires: Vec<Vec<SignalId>> =
                out_links.iter().map(|&l| credit_wires[l].clone()).collect();
            for (o, per_vc) in out_credit_wires.iter().enumerate() {
                for (v, &w) in per_vc.iter().enumerate() {
                    let home = CreditHome::Switch(s, PortId::new(o as u8), VcId::new(v as u8));
                    credit_homes.push((w, home));
                }
            }
            let sh = Rc::clone(&shared);
            kernel.clocked_process(move |ctx: &mut ProcessCtx<'_>| {
                let sh = &mut *sh.borrow_mut();
                let sw = &mut sh.elab.switches[s];
                // Sample arriving flits (sent last cycle).
                for (p, w) in in_wires.iter().enumerate() {
                    if let Some(f) = ctx.read(*w).flit() {
                        if let Err(source) = sw.accept(PortId::new(p as u8), f) {
                            sh.latch::<()>(Err(EmulationError::FifoOverflow {
                                switch: SwitchId::new(s as u32),
                                source,
                            }));
                            return;
                        }
                    }
                }
                // Sample returned credits, per output VC.
                for (o, per_vc) in out_credit_wires.iter().enumerate() {
                    for (v, w) in per_vc.iter().enumerate() {
                        if ctx.read(*w).is_high() {
                            sw.credit_return(PortId::new(o as u8), VcId::new(v as u8));
                        }
                    }
                }
                sw.decide();
                let sends = sw.commit_sends();
                let mut out_flit: Vec<Option<nocem_common::flit::Flit>> =
                    vec![None; out_wires.len()];
                // At most one flit pops per input port per cycle; the
                // credit travels back on that flit's input VC.
                let mut popped: Vec<Option<u8>> = vec![None; in_wires.len()];
                for t in sends {
                    out_flit[t.output.index()] = Some(t.flit);
                    popped[t.input.index()] = Some(t.input_vc.raw());
                }
                for (o, w) in out_wires.iter().enumerate() {
                    ctx.write(*w, Value::Flit(out_flit[o]));
                }
                for (p, per_vc) in in_credit_wires.iter().enumerate() {
                    for (v, w) in per_vc.iter().enumerate() {
                        ctx.write(
                            *w,
                            if popped[p] == Some(v as u8) {
                                Value::High
                            } else {
                                Value::Low
                            },
                        );
                    }
                }
            });
        }

        // Receptor monitors, sensitive to their ejection wires.
        for (idx, link) in wiring.ejection_link.iter().enumerate() {
            let wire = flit_wires[link.index()];
            let sh = Rc::clone(&shared);
            kernel.reactive_process(&[wire], move |ctx: &mut ProcessCtx<'_>| {
                if let Some(f) = ctx.read(wire).flit() {
                    let sh = &mut *sh.borrow_mut();
                    let delivered = sh.deliver(idx, f, Cycle::new(ctx.time()));
                    sh.latch(delivered);
                }
            });
        }

        drop(platform);
        RtlEngine {
            run,
            kernel,
            shared,
            inflight_wires,
            credit_homes,
            profiler,
        }
    }

    /// Work counters of the event kernel (the RTL cost).
    pub fn kernel_stats(&self) -> KernelStats {
        self.kernel.stats()
    }

    /// Runs to the stop condition.
    ///
    /// # Errors
    ///
    /// Propagates protocol violations detected by the processes and
    /// the cycle limit.
    pub fn run(&mut self) -> Result<(), EmulationError> {
        clock::run_engine(self)
    }

    /// Enables VCD recording on the underlying kernel.
    pub fn enable_vcd(&mut self) {
        self.kernel.enable_vcd();
    }

    /// The VCD document, if recording was enabled.
    pub fn vcd_output(&self) -> Option<String> {
        self.kernel.vcd_output()
    }
}

impl CycleKernel for RtlEngine {
    const LABEL: &'static str = "rtl";

    fn run_state(&self) -> &RunState {
        &self.run
    }

    fn run_state_mut(&mut self) -> &mut RunState {
        &mut self.run
    }

    fn profiler_mut(&mut self) -> Option<&mut PhaseProfiler> {
        self.profiler.as_mut()
    }

    /// Jumps the kernel's time along with the platform's generators
    /// without activating a single process. A high credit wire carries
    /// a credit returned last cycle — the fast engine holds it home
    /// already, and the processes would sample it before anything else
    /// this cycle — so it is taken home first (and the wire driven
    /// low): quiescence then holds on the cycle it holds in the fast
    /// engine, and both jump the same windows. Component quiescence
    /// implies every other wire carries its idle value (a flit on a
    /// wire is an undelivered packet), so no event would have been
    /// dispatched in the skipped window anyway.
    fn idle_jump(&mut self, now: Cycle, horizon: u64) -> u64 {
        let platform = &mut *self.shared.borrow_mut();
        for &(wire, home) in &self.credit_homes {
            if self.kernel.take_high(wire) {
                match home {
                    CreditHome::Ni(i) => platform.elab.nis[i].credit_return(),
                    CreditHome::Switch(s, o, v) => platform.elab.switches[s].credit_return(o, v),
                }
            }
        }
        let skipped = platform.idle_jump(now, horizon);
        self.kernel.advance_time(skipped);
        skipped
    }

    fn cycle(&mut self, now: Cycle, t: &mut Option<Instant>) -> Result<(), EmulationError> {
        debug_assert_eq!(self.kernel.time(), now.raw(), "the two clocks agree");
        let cycled = self.kernel.cycle();
        lap(self.profiler.as_mut(), t, Phase::Processes);
        cycled.map_err(|e| {
            EmulationError::Bus(nocem_platform::bus::BusError::InvalidValue {
                addr: nocem_platform::addr::Address::from_parts(
                    nocem_common::ids::BusId::new(0),
                    nocem_common::ids::DeviceId::new(0),
                    0,
                ),
                reason: e.to_string(),
            })
        })?;
        self.shared.borrow_mut().take_fault()
    }

    fn drained(&self) -> bool {
        self.shared.borrow().drained()
    }

    /// The platform's probe with in-flight wire flits compensated (see
    /// `inflight_wires`).
    fn cumulative_probe(&mut self) -> Result<CumulativeProbe, EmulationError> {
        let mut p = self.shared.borrow().cumulative_probe();
        for &wire in &self.inflight_wires {
            if let Some(f) = self.kernel.value(wire).flit() {
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
    fn rtl_delivers_all_packets() {
        let cfg = PaperConfig::new().total_packets(150).uniform();
        let mut engine = RtlEngine::new(elaborate(&cfg).unwrap());
        engine.run().unwrap();
        let (s, kernel) = (engine.summary(), engine.kernel_stats());
        assert_eq!(s.delivered, 150);
        assert!(s.cycles > 0);
        assert!(kernel.signal_events > 0);
        assert!(kernel.activations > s.cycles, "many activations per cycle");
    }

    #[test]
    fn rtl_matches_fast_engine_exactly() {
        let cfg = PaperConfig::new().total_packets(300).burst(8);
        // Fast engine.
        let mut emu = nocem::engine::build(&cfg).unwrap();
        emu.run().unwrap();
        // RTL engine on a fresh elaboration of the same config.
        let mut rtl = RtlEngine::new(elaborate(&cfg).unwrap());
        rtl.run().unwrap();
        let s = rtl.summary();
        assert_eq!(s.cycles, emu.now().raw(), "cycle-exact run length");
        assert_eq!(s.delivered, emu.delivered());
        assert_eq!(
            s.network_latency.sum(),
            emu.ledger().network_latency().sum(),
            "identical per-packet network latencies"
        );
        assert_eq!(
            s.total_latency.sum(),
            emu.ledger().total_latency().sum(),
            "identical per-packet total latencies"
        );
        assert_eq!(
            s.network_latency.max(),
            emu.ledger().network_latency().max()
        );
    }

    #[test]
    fn rtl_telemetry_matches_fast_engine_exactly() {
        let cfg = PaperConfig::new()
            .total_packets(200)
            .burst(8)
            .with_telemetry(Some(nocem_telemetry::TelemetryConfig::windowed(64)));
        let mut emu = nocem::engine::build(&cfg).unwrap();
        emu.run().unwrap();
        emu.seal_telemetry();
        let mut rtl = RtlEngine::new(elaborate(&cfg).unwrap());
        rtl.run().unwrap();
        rtl.seal_telemetry();
        let fast = emu.telemetry().unwrap();
        let ours = rtl.telemetry().unwrap();
        assert!(fast.windows_recorded() > 0, "run long enough to window");
        assert_eq!(
            ours, fast,
            "windowed series (incl. live occupancy) are engine-invariant"
        );
    }

    #[test]
    fn rtl_vcd_capture_works() {
        let cfg = PaperConfig::new().total_packets(10).uniform();
        let mut engine = RtlEngine::new(elaborate(&cfg).unwrap());
        engine.enable_vcd();
        engine.run().unwrap();
        let vcd = engine.vcd_output().unwrap();
        assert!(vcd.contains("$enddefinitions"));
        assert!(vcd.contains("flit_l"));
    }

    #[test]
    fn rtl_drain_mode_terminates() {
        let mut cfg = PaperConfig::new().total_packets(60).uniform();
        cfg.stop.delivered_packets = None;
        let mut engine = RtlEngine::new(elaborate(&cfg).unwrap());
        engine.run().unwrap();
        assert_eq!(engine.delivered(), 60);
    }

    #[test]
    fn rtl_cycle_limit_enforced() {
        let mut cfg = PaperConfig::new().total_packets(1_000_000).uniform();
        cfg.stop.cycle_limit = 200;
        let mut engine = RtlEngine::new(elaborate(&cfg).unwrap());
        assert!(matches!(
            engine.run(),
            Err(EmulationError::CycleLimitExceeded { .. })
        ));
    }
}
