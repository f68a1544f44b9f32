//! The platform as communicating processes over a channel fabric — the
//! paper's two software baselines (Table 2), wired once.
//!
//! A [`Fabric`] is a simulation kernel whose links deliver a value the
//! cycle after it is written. [`ProcessModel`] puts the [`Platform`] on
//! any fabric: a flit link per topology link, a credit link per
//! (link, VC), a clocked process per network interface and then per
//! switch, a watcher per receptor. What the processes *do* is
//! [`Platform`]'s, shared with [`crate::Emulation`]; the one difference
//! — a flit or credit spends a cycle on its link — is read away by the
//! settled view and one watermark rule below.

use crate::clock::{self, CycleKernel, RunState, SteppableEngine};
use crate::compile::{Elaboration, InSource};
use crate::engine::Platform;
use crate::error::EmulationError;
use crate::profile::{lap, Phase, PhaseProfiler};
use crate::results::EmulationResults;
use crate::view::ArchView;
use nocem_common::flit::Flit;
use nocem_common::ids::{LinkId, PortId, SwitchId, VcId};
use nocem_common::time::Cycle;
use nocem_stats::ledger::PacketLedger;
use nocem_switch::fifo::FifoFullError;
use nocem_switch::switch::{Switch, CREDITS_INFINITE};
use std::cell::{Ref, RefCell, RefMut};
use std::rc::Rc;
use std::time::Instant;

/// A simulation kernel the platform's processes communicate over.
pub trait Fabric: Default + 'static {
    /// The engine's label in profile reports.
    const LABEL: &'static str;
    /// Handle to a link carrying at most one flit per cycle.
    type FlitLink: Copy + 'static;
    /// Handle to a one-bit credit link.
    type CreditLink: Copy + 'static;
    /// What a process reads and writes links through while it runs.
    type Ctx<'a>;

    /// Declares the flit link of topology link `link` (idle).
    fn flit_link(&mut self, link: usize) -> Self::FlitLink;
    /// Declares the credit link of VC `vc` of topology link `link`.
    fn credit_link(&mut self, link: usize, vc: usize) -> Self::CreditLink;
    /// Registers a process activated every cycle, in order.
    fn clocked(&mut self, process: impl for<'a> FnMut(Cycle, &mut Self::Ctx<'a>) + 'static);
    /// Registers a watcher called with the new value in the cycle a
    /// write changes `link`.
    fn watch(&mut self, link: Self::FlitLink, watcher: impl FnMut(Option<Flit>, Cycle) + 'static);
    /// Reads a flit link inside a process (last cycle's write).
    fn read_flit(ctx: &Self::Ctx<'_>, link: Self::FlitLink) -> Option<Flit>;
    /// Writes a flit link inside a process (read next cycle).
    fn write_flit(ctx: &mut Self::Ctx<'_>, link: Self::FlitLink, flit: Option<Flit>);
    /// Reads a credit link inside a process (last cycle's write).
    fn read_credit(ctx: &Self::Ctx<'_>, link: Self::CreditLink) -> bool;
    /// Writes a credit link inside a process (read next cycle).
    fn write_credit(ctx: &mut Self::Ctx<'_>, link: Self::CreditLink, credit: bool);
    /// The flit on `link` between cycles.
    fn peek_flit(&self, link: Self::FlitLink) -> Option<Flit>;
    /// The credit on `link` between cycles.
    fn peek_credit(&self, link: Self::CreditLink) -> bool;
    /// Takes the credit off `link` between cycles, as if its writer had
    /// written low, and reports whether there was one.
    fn take_credit(&mut self, link: Self::CreditLink) -> bool;
    /// Simulated time in cycles.
    fn time(&self) -> u64;
    /// Jumps time forward without activating anything (clock gating).
    fn advance_time(&mut self, cycles: u64);
    /// Runs one cycle: every process, then link updates and watchers.
    ///
    /// # Errors
    ///
    /// Returns [`EmulationError`] when the kernel itself fails.
    fn cycle(&mut self) -> Result<(), EmulationError>;
}

/// Where a credit link's credit goes home.
#[derive(Clone, Copy)]
enum CreditHome {
    /// The network interface of this generator.
    Ni(usize),
    /// This output VC of this switch.
    Switch(usize, PortId, VcId),
}

/// Lands flit `f` in input `port` of `sw`. The interpreted reference
/// engine lands a flit from an NI or a lower-indexed switch (`first`)
/// before that switch pops in the same cycle, here a cycle later; when
/// the pop (`popped`) left the same buffer, the reference engine's
/// watermark counted the popped flit too.
fn land(
    sw: &mut Switch,
    port: PortId,
    f: Flit,
    first: bool,
    popped: Option<VcId>,
) -> Result<(), FifoFullError> {
    sw.accept(port, f)?;
    if first && popped == Some(f.vc) {
        let occupancy = sw.occupancy_vc(port, f.vc) as u64 + 1;
        sw.raise_vc_watermark(f.vc, occupancy);
    }
    Ok(())
}

/// The platform wired over the fabric `F`: `nocem-tlm`'s `TlmEngine`
/// and `nocem-rtl`'s `RtlEngine`.
pub struct ProcessModel<F: Fabric> {
    run: RunState,
    fabric: F,
    /// The interpreted platform, shared with the processes.
    shared: Rc<RefCell<Platform>>,
    /// `[switch][input port]`: the flit link into that input, and
    /// whether its flits land first ([`land`]).
    inputs: Vec<Vec<(F::FlitLink, bool)>>,
    /// `[switch][input port]`: the VC the switch last popped there.
    popped: Rc<RefCell<Vec<Vec<Option<VcId>>>>>,
    /// Every credit link with the component its credit returns to.
    credit_homes: Vec<(F::CreditLink, CreditHome)>,
    /// Per-phase self-profiler, enabled by `PlatformConfig.profile`.
    /// The fabric's cycle is opaque (processes interleave the platform
    /// phases), so it is charged to [`Phase::Processes`].
    profiler: Option<PhaseProfiler>,
    /// The architectural-state view buffer.
    view: ArchView,
}

impl<F: Fabric> std::fmt::Debug for ProcessModel<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProcessModel")
            .field("fabric", &F::LABEL)
            .field("time", &self.fabric.time())
            .finish_non_exhaustive()
    }
}

impl<F: Fabric> ProcessModel<F> {
    /// Wires an elaboration over a fresh fabric.
    pub fn new(elab: Elaboration) -> Self {
        let mut fabric = F::default();
        let run = RunState::new(&elab.config);
        let view = ArchView::new(&elab);
        let mut platform = Platform::new(elab);
        let profiler = platform.profiler.take();
        let shared = Rc::new(RefCell::new(platform));
        let platform = shared.borrow();
        let topo = &platform.elab.config.topology;
        let wiring = &platform.elab.wiring;
        let vcs = usize::from(platform.elab.config.switch.num_vcs);

        let flits: Vec<F::FlitLink> = (0..topo.link_count())
            .map(|l| fabric.flit_link(l))
            .collect();
        let credits: Vec<Vec<F::CreditLink>> = (0..topo.link_count())
            .map(|l| (0..vcs).map(|v| fabric.credit_link(l, v)).collect())
            .collect();
        // A flit from an NI or a lower-indexed switch lands first.
        let inputs: Vec<Vec<(F::FlitLink, bool)>> = (wiring.in_link.iter().zip(&wiring.in_source))
            .enumerate()
            .map(|(s, (links, sources))| {
                let input = |(l, src): (&LinkId, &InSource)| {
                    let first = !matches!(*src, InSource::Switch { switch, .. } if switch >= s);
                    (flits[l.index()], first)
                };
                links.iter().zip(sources).map(input).collect()
            })
            .collect();
        let popped: Vec<Vec<_>> = inputs.iter().map(|i| vec![None; i.len()]).collect();
        let popped = Rc::new(RefCell::new(popped));

        let mut credit_homes = Vec::new();
        for (i, &(_, _, link)) in wiring.injection.iter().enumerate() {
            let out = flits[link.index()];
            // NIs inject on VC 0 only, so they watch that VC's credit.
            let credit = credits[link.index()][0];
            credit_homes.push((credit, CreditHome::Ni(i)));
            let sh = Rc::clone(&shared);
            fabric.clocked(move |now, ctx| {
                let sh = &mut *sh.borrow_mut();
                if F::read_credit(ctx, credit) {
                    sh.elab.nis[i].credit_return();
                }
                let released = sh.release(i, now);
                sh.latch(released);
                let sent = sh.send(i, now);
                F::write_flit(ctx, out, sh.latch(sent).flatten());
            });
        }

        for (s, in_flits) in inputs.iter().enumerate() {
            let id = SwitchId::new(s as u32);
            let in_flits = in_flits.clone();
            let in_credits: Vec<Vec<F::CreditLink>> = wiring.in_link[s]
                .iter()
                .map(|l| credits[l.index()].clone())
                .collect();
            let out_links: Vec<usize> = (0..topo.switch(id).outputs)
                .map(|o| topo.out_link(id, PortId::new(o)).index())
                .collect();
            let out_flits: Vec<F::FlitLink> = out_links.iter().map(|&l| flits[l]).collect();
            let out_credits: Vec<Vec<F::CreditLink>> =
                out_links.iter().map(|&l| credits[l].clone()).collect();
            for (o, per_vc) in out_credits.iter().enumerate() {
                for (v, &c) in per_vc.iter().enumerate() {
                    let home = CreditHome::Switch(s, PortId::new(o as u8), VcId::new(v as u8));
                    credit_homes.push((c, home));
                }
            }
            // At most one flit pops per input port per cycle; the
            // credit travels back on that flit's input VC.
            let popped = Rc::clone(&popped);
            let sh = Rc::clone(&shared);
            // Both buffers are the closure's own and refilled every
            // clock, so a warm switch allocates nothing.
            let (mut sends, mut out) = (Vec::new(), vec![None; out_flits.len()]);
            fabric.clocked(move |_now, ctx| {
                let sh = &mut *sh.borrow_mut();
                let popped = &mut popped.borrow_mut()[s];
                let sw = &mut sh.switches[s];
                for (p, &(link, first)) in in_flits.iter().enumerate() {
                    let Some(f) = F::read_flit(ctx, link) else {
                        continue;
                    };
                    if let Err(source) = land(sw, PortId::new(p as u8), f, first, popped[p]) {
                        let overflow = EmulationError::FifoOverflow { switch: id, source };
                        sh.latch::<()>(Err(overflow));
                        return;
                    }
                }
                for (o, per_vc) in out_credits.iter().enumerate() {
                    for (v, &c) in per_vc.iter().enumerate() {
                        if F::read_credit(ctx, c) {
                            sw.credit_return(PortId::new(o as u8), VcId::new(v as u8));
                        }
                    }
                }
                sw.decide();
                out.fill(None);
                popped.fill(None);
                sw.commit_sends(&mut sends);
                for t in &sends {
                    out[t.output.index()] = Some(t.flit);
                    popped[t.input.index()] = Some(t.input_vc);
                }
                for (&link, &flit) in out_flits.iter().zip(&out) {
                    F::write_flit(ctx, link, flit);
                }
                for (per_vc, popped) in in_credits.iter().zip(popped.iter()) {
                    for (v, &c) in per_vc.iter().enumerate() {
                        F::write_credit(ctx, c, *popped == Some(VcId::new(v as u8)));
                    }
                }
            });
        }

        for (idx, link) in wiring.ejection_link.iter().enumerate() {
            let sh = Rc::clone(&shared);
            fabric.watch(flits[link.index()], move |value, now| {
                if let Some(f) = value {
                    let sh = &mut *sh.borrow_mut();
                    let delivered = sh.deliver(idx, f, now);
                    sh.latch(delivered);
                }
            });
        }

        drop(platform);
        ProcessModel {
            run,
            fabric,
            shared,
            inputs,
            popped,
            credit_homes,
            profiler,
            view,
        }
    }

    /// The fabric, for its work counters and debug output.
    pub fn fabric(&self) -> &F {
        &self.fabric
    }

    /// The fabric, mutably.
    pub fn fabric_mut(&mut self) -> &mut F {
        &mut self.fabric
    }

    /// Runs to the stop condition.
    ///
    /// # Errors
    ///
    /// Propagates protocol violations and the cycle limit.
    pub fn run(&mut self) -> Result<(), EmulationError> {
        clock::run_engine(self)
    }

    /// The results of the run so far, read from the settled view: a
    /// flit still on its link already counts in the reference engine's
    /// downstream watermark.
    pub fn results(&mut self) -> EmulationResults {
        self.settle();
        self.shared.borrow().results(self.summary(), &self.view)
    }

    /// Fills the engine's own view with the settled state.
    fn settle(&mut self) {
        let mut view = std::mem::take(&mut self.view);
        self.settled(&mut view);
        self.view = view;
    }

    /// Fills `view` with the platform as if every value on a link had
    /// landed: each flit on a switch-input link in its FIFO (with the
    /// watermark rule of [`land`]), each credit on its way back to a
    /// switch home. The reference engine moves both in the cycle that
    /// sends them, so this is the state it holds now.
    fn settled(&self, view: &mut ArchView) {
        self.shared.borrow().read_view(view);
        let popped = self.popped.borrow();
        for (s, inputs) in self.inputs.iter().enumerate() {
            for (p, &(link, first)) in inputs.iter().enumerate() {
                if let Some(f) = self.fabric.peek_flit(link) {
                    let input = view.input_vc(s, p, f.vc.index());
                    let occupancy = &mut view.inputs[input].occupancy;
                    *occupancy += 1;
                    let deepest = *occupancy + u32::from(first && popped[s][p] == Some(f.vc));
                    let wm = &mut view.watermarks[s * view.vcs + f.vc.index()];
                    *wm = (*wm).max(u64::from(deepest));
                }
            }
        }
        for &(link, home) in &self.credit_homes {
            if let (CreditHome::Switch(s, o, v), true) = (home, self.fabric.peek_credit(link)) {
                let output = view.out_port_base[s] as usize + o.index();
                let credits = &mut view.credits[output * view.vcs + v.index()];
                *credits += u32::from(*credits != CREDITS_INFINITE);
            }
        }
    }
}

impl<F: Fabric> CycleKernel for ProcessModel<F> {
    const LABEL: &'static str = F::LABEL;

    fn run_state(&self) -> &RunState {
        &self.run
    }

    fn run_state_mut(&mut self) -> &mut RunState {
        &mut self.run
    }

    fn profiler_mut(&mut self) -> Option<&mut PhaseProfiler> {
        self.profiler.as_mut()
    }

    /// Jumps the fabric's time along with the platform's generators
    /// without activating a single process. A credit still on its link
    /// was returned last cycle — the reference engine holds it home already,
    /// and the processes would take it home before anything else this
    /// cycle — so it is taken home first (and off the link): quiescence
    /// then holds on the cycle it holds in the reference engine, and both
    /// jump the same windows. Component quiescence implies every other
    /// link sits at its idle value (a flit on a link is an undelivered
    /// packet), so the skipped cycles would have been pure no-ops.
    fn idle_jump(&mut self, now: Cycle, horizon: u64) -> u64 {
        let platform = &mut *self.shared.borrow_mut();
        for &(link, home) in &self.credit_homes {
            if self.fabric.take_credit(link) {
                match home {
                    CreditHome::Ni(i) => platform.elab.nis[i].credit_return(),
                    CreditHome::Switch(s, o, v) => platform.switches[s].credit_return(o, v),
                }
            }
        }
        let skipped = platform.idle_jump(now, horizon);
        self.fabric.advance_time(skipped);
        skipped
    }

    fn cycle(&mut self, now: Cycle, t: &mut Option<Instant>) -> Result<(), EmulationError> {
        debug_assert_eq!(self.fabric.time(), now.raw(), "the two clocks agree");
        let cycled = self.fabric.cycle();
        lap(self.profiler.as_mut(), t, Phase::Processes);
        cycled?;
        self.shared.borrow_mut().take_fault()
    }

    fn drained(&self) -> bool {
        self.shared.borrow().drained()
    }

    /// The settled view: a flit on its link already sits in the fast
    /// engine's downstream FIFO.
    fn arch_view(&mut self) -> &ArchView {
        self.settle();
        &self.view
    }

    fn ledger(&self) -> impl std::ops::Deref<Target = PacketLedger> + '_ {
        Ref::map(self.shared.borrow(), Platform::ledger)
    }

    fn ledger_mut(&mut self) -> impl std::ops::DerefMut<Target = PacketLedger> + '_ {
        RefMut::map(self.shared.borrow_mut(), Platform::ledger_mut)
    }

    fn delivered_flits(&self) -> u64 {
        self.shared.borrow().delivered_flits()
    }
}
