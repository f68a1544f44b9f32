//! Clock control: the run-level half of every engine, written once.
//!
//! The paper's platform has one control module that starts, clocks and
//! stops the run whatever traffic generators, receptors and switches
//! are plugged in. This module is that split in software. An engine is
//! two halves:
//!
//! * a **kernel** — *what a cycle does*: the [`CycleKernel`] trait,
//!   whose required methods are exactly the engine-specific answers
//!   the step needs (is the platform quiescent and how far may the
//!   clock jump; execute cycle `now`; is it drained; the
//!   architectural-state view the probe and the wait-for edges are
//!   read over; the ledger);
//! * the **run-level state** — *what happens around a cycle*:
//!   [`RunState`] (clock, skipped-cycle counter, [`ClockMode`], stop
//!   condition, telemetry collector, stall watchdog), built in one
//!   place from the `PlatformConfig` and embedded by every engine.
//!
//! On top of the two sits the one step skeleton — gate → probe → cycle
//! → watchdog → limit — as the single generic `impl SteppableEngine for
//! K: CycleKernel`. `Emulation`, `CompiledEngine`, `TlmEngine` and
//! `RtlEngine` are kernels; none of them carries its own gate, probe timing, watchdog feed or cycle-limit
//! check. The skeleton enforces the two invariants the engines used to
//! uphold by copy:
//!
//! * the telemetry probe fires at the *start* of the cycle, *after* any
//!   jump, so the recorded windows are engine- and clock-mode-invariant;
//! * a jump never passes `cycle_limit`, so the limit error fires on the
//!   same cycle gated or not.
//!
//! # Hybrid clock gating
//!
//! The paper's platform steps every cycle even when the network is
//! empty, which wastes most of the wall clock on the low-load points
//! of a scenario matrix. Following the hybrid clock-gating idea of
//! EmuNoC (see PAPERS.md) — one clock-halting unit wrapped around an
//! unchanged network — the skeleton lets every kernel *jump* the clock
//! over provably idle windows without changing any observable
//! behaviour:
//!
//! * traffic generators expose their next event
//!   ([`TrafficGenerator::next_event_cycle`]) and can replay skipped
//!   no-op ticks in one jump ([`TrafficGenerator::skip_to`]);
//! * switches expose [`Switch::is_quiescent`] (no flit in any per-VC
//!   FIFO, no worm in progress, all credits home) and network
//!   interfaces [`SourceNi::is_idle`] + [`SourceNi::credits_home`];
//! * [`platform_quiescent`] combines these into the platform-wide
//!   predicate, and [`fast_forward`] — the fast-forward kernel — jumps
//!   to the earliest future event when it holds.
//!
//! Gating is opt-in via [`ClockMode`]: `EveryCycle` is bit-identical
//! to the original platform, `Gated` is proven cycle-equivalent (same
//! delivery cycles, same packet ledger) by the gated-vs-ungated and
//! cross-engine lockstep tests. Skipped cycles are counted separately
//! ([`SteppableEngine::cycles_skipped`]) so latency and throughput
//! statistics, the packet ledger and the Table 2 work-per-cycle proxy
//! stay exact.
//!
//! Everything that drives an engine — the run loops ([`run_engine`],
//! [`run_engine_until`], [`run_engine_with_progress`]), the
//! [`crate::sweep::AnyEngine`] dispatcher and the cross-engine lockstep
//! tests — is written once against [`SteppableEngine`].
//!
//! # Quiescence invariants
//!
//! A fast-forward jump is sound because the quiescence predicate is
//! *exhaustive*: when it holds, the only state a skipped cycle would
//! change is TG countdowns, which [`TrafficGenerator::skip_to`]
//! replays. Each clause closes one leak:
//!
//! * **no parked TG request** — a parked request retries every cycle
//!   and could be accepted at any of them, so it pins the clock;
//! * **every NI idle with all credits home** — an NI holding a
//!   queued or half-serialized packet injects on future cycles; a
//!   missing credit means a flit still occupies (or a credit is in
//!   flight from) the downstream buffer, i.e. the network is not
//!   empty;
//! * **every switch quiescent** — empty per-VC FIFOs *and* no open
//!   wormhole on either side *and* per-output-VC credits at their
//!   caps; a quiescent switch's `decide` computes no grant and steps
//!   no arbiter, pointer or LFSR, so skipping it is exact;
//! * **no in-flight packet in the ledger** — a belt over the braces:
//!   any flit anywhere implies an undelivered packet.

use crate::config::{PlatformConfig, StopCondition};
use crate::error::EmulationError;
use crate::profile::{lap, Phase, PhaseProfiler, PhaseReport, StallReport, StallWatchdog};
use crate::view::ArchView;
use nocem_common::time::Cycle;
use nocem_stats::latency::LatencyAnalyzer;
use nocem_stats::ledger::{LedgerError, PacketLedger};
use nocem_stats::window::Window;
use nocem_switch::switch::Switch;
use nocem_telemetry::Collector;
use nocem_traffic::generator::{PacketRequest, TrafficGenerator};
use nocem_traffic::ni::SourceNi;
use std::ops::{Deref, DerefMut};
use std::time::Instant;

/// How an engine advances the platform clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClockMode {
    /// Step every cycle — bit-identical to the original platform.
    #[default]
    EveryCycle,
    /// Hybrid clock gating: whenever the whole platform is quiescent,
    /// jump the clock to the earliest future traffic-generator event
    /// in one step. Cycle-equivalent to [`ClockMode::EveryCycle`]
    /// (same deliveries at the same cycles, same ledger); only the
    /// wall-clock cost and the machinery counters shrink.
    Gated,
}

/// The platform-wide quiescence predicate: nothing in the network, no
/// component owes or awaits anything.
///
/// * every parked TG request (`pending`) is absent — a parked request
///   retries every cycle, so it pins the clock;
/// * every NI holds no queued or half-serialized packet *and* has all
///   its credits home (a missing credit means a flit of ours still
///   sits downstream or the credit is in flight on the return wire);
/// * every switch is [`Switch::is_quiescent`];
/// * the ledger carries no in-flight packet (a cheap belt over the
///   braces above — a flit inside any channel or buffer implies an
///   undelivered packet).
///
/// When this holds, stepping the platform is a pure no-op apart from
/// TG cooldown countdowns, which [`fast_forward`] replays exactly.
pub fn platform_quiescent(
    switches: &[Switch],
    nis: &[SourceNi],
    pending: &[Option<PacketRequest>],
    in_flight: u64,
) -> bool {
    in_flight == 0
        && pending.iter().all(Option::is_none)
        && nis.iter().all(|n| n.is_idle() && n.credits_home())
        && switches.iter().all(Switch::is_quiescent)
}

/// The fast-forward kernel.
///
/// Call on a *quiescent* platform about to execute cycle `now`:
/// computes the earliest future TG event, replays the skipped no-op
/// ticks inside every generator ([`TrafficGenerator::skip_to`]) and
/// returns how many cycles the caller must advance its own clock
/// (0 = an event is due now, nothing to skip).
///
/// The jump is clamped to `cycle_limit` so a gated run that would
/// exceed the limit executes its final (no-op) cycle at exactly
/// `cycle_limit` and raises the same error an ungated run raises, with
/// the same delivery count at the same cycle.
pub fn fast_forward(
    now: Cycle,
    cycle_limit: u64,
    tgs: &mut [Box<dyn TrafficGenerator + Send>],
) -> u64 {
    let earliest = tgs
        .iter()
        .map(|tg| tg.next_event_cycle(now).cycle_or_max())
        .min()
        .unwrap_or(u64::MAX);
    let target = earliest.min(cycle_limit);
    if target <= now.raw() {
        return 0;
    }
    let target = Cycle::new(target);
    for tg in tgs.iter_mut() {
        tg.skip_to(now, target);
    }
    target - now
}

/// Effective speedup of a gated run: simulated cycles per cycle
/// actually stepped. 1.0 when nothing was skipped.
pub fn effective_speedup(cycles: u64, cycles_skipped: u64) -> f64 {
    let stepped = cycles.saturating_sub(cycles_skipped);
    if cycles == 0 || stepped == 0 {
        1.0
    } else {
        cycles as f64 / stepped as f64
    }
}

/// Engine-agnostic end-of-run summary — the comparison tuple of the
/// cross-engine and gated-vs-ungated equivalence tests.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineSummary {
    /// Simulated cycles (skipped ones included — identical across
    /// clock modes).
    pub cycles: u64,
    /// Cycles the fast-forward kernel jumped over (0 when ungated).
    pub cycles_skipped: u64,
    /// Packets released by the traffic models.
    pub released: u64,
    /// Packets whose head entered the network.
    pub injected: u64,
    /// Packets fully delivered.
    pub delivered: u64,
    /// Flits fully delivered.
    pub delivered_flits: u64,
    /// Network latency (injection → delivery) statistics.
    pub network_latency: LatencyAnalyzer,
    /// Total latency (release → delivery) statistics.
    pub total_latency: LatencyAnalyzer,
}

impl EngineSummary {
    /// Builds the summary from an engine's clocks, flit counter and
    /// packet ledger — the one construction every engine shares.
    pub fn from_ledger(
        cycles: u64,
        cycles_skipped: u64,
        delivered_flits: u64,
        ledger: &PacketLedger,
    ) -> EngineSummary {
        EngineSummary {
            cycles,
            cycles_skipped,
            released: ledger.released(),
            injected: ledger.injected(),
            delivered: ledger.delivered(),
            delivered_flits,
            network_latency: *ledger.network_latency(),
            total_latency: *ledger.total_latency(),
        }
    }

    /// Effective speedup of the run under gating (1.0 when ungated).
    pub fn gating_speedup(&self) -> f64 {
        effective_speedup(self.cycles, self.cycles_skipped)
    }

    /// The summary with the machinery-only gating counter cleared —
    /// what the cross-mode equivalence tests compare, since skipping
    /// is the one *intended* difference between the modes.
    #[must_use]
    pub fn behavioral(&self) -> EngineSummary {
        EngineSummary {
            cycles_skipped: 0,
            ..self.clone()
        }
    }
}

/// The run-level half of an engine: everything that happens *around*
/// a cycle and is identical whatever kernel executes it. Built in one
/// place from the [`PlatformConfig`] and embedded by every
/// [`CycleKernel`].
#[derive(Debug, Clone)]
pub struct RunState {
    pub(crate) now: Cycle,
    pub(crate) cycles_skipped: u64,
    pub(crate) clock_mode: ClockMode,
    pub(crate) stop: StopCondition,
    /// Windowed per-resource telemetry (None = off, no probe cost).
    pub(crate) telemetry: Option<Collector>,
    /// Stall watchdog, when the profile config enables one.
    pub(crate) watchdog: Option<StallWatchdog>,
}

impl RunState {
    /// The run-level state `config` asks for, at cycle 0.
    pub fn new(config: &PlatformConfig) -> Self {
        let links = config.topology.link_count();
        let vcs = usize::from(config.switch.num_vcs);
        RunState {
            now: Cycle::ZERO,
            cycles_skipped: 0,
            clock_mode: config.clock_mode,
            stop: config.stop,
            telemetry: config
                .telemetry
                .as_ref()
                .map(|t| Collector::new(t, links, vcs)),
            watchdog: config
                .profile
                .as_ref()
                .and_then(|p| p.stall)
                .map(StallWatchdog::new),
        }
    }

    /// Jumps the clock over `skipped` provably idle cycles.
    pub(crate) fn jump(&mut self, skipped: u64) {
        self.now += skipped;
        self.cycles_skipped += skipped;
    }

    /// Whether a telemetry window boundary is due at the current cycle.
    pub(crate) fn probe_due(&self) -> bool {
        self.telemetry
            .as_ref()
            .is_some_and(|t| t.needs_probe(self.now.raw()))
    }

    /// Whether there is a collector that has not been sealed yet.
    pub(crate) fn seal_due(&self) -> bool {
        self.telemetry.as_ref().is_some_and(|t| !t.is_sealed())
    }

    /// The delivered-packets arm of the stop condition; `None` in drain
    /// mode, where the kernel decides.
    pub(crate) fn target_met(&self, delivered: u64) -> Option<bool> {
        self.stop.delivered_packets.map(|t| delivered >= t)
    }

    /// Moves the clock past the cycle just executed and enforces the
    /// cycle limit.
    pub(crate) fn advance(&mut self, delivered: u64) -> Result<(), EmulationError> {
        self.now = self.now.next();
        if self.now.raw() > self.stop.cycle_limit {
            return Err(EmulationError::CycleLimitExceeded {
                limit: self.stop.cycle_limit,
                delivered,
            });
        }
        Ok(())
    }

    /// The run summary over `ledger`.
    pub(crate) fn summary(&self, delivered_flits: u64, ledger: &PacketLedger) -> EngineSummary {
        EngineSummary::from_ledger(self.now.raw(), self.cycles_skipped, delivered_flits, ledger)
    }
}

/// The kernel half of an engine: the engine-specific answers the step
/// skeleton needs, and nothing else. Implementing it makes a type a
/// [`SteppableEngine`] (the one generic impl below); dispatch is
/// static, so the skeleton monomorphises into each kernel's own step.
///
/// The view takes `&mut self` because every kernel refills one reused
/// buffer.
pub trait CycleKernel {
    /// The engine's label in profile reports.
    const LABEL: &'static str;

    /// The run-level state this engine embeds.
    fn run_state(&self) -> &RunState;

    /// Mutable access to the embedded run-level state.
    fn run_state_mut(&mut self) -> &mut RunState;

    /// The kernel's phase profiler, when profiling is on.
    fn profiler_mut(&mut self) -> Option<&mut PhaseProfiler>;

    /// Asked under [`ClockMode::Gated`] before cycle `now` executes:
    /// when the platform is quiescent, replays whatever the kernel
    /// must replay to stand at its earliest future event — but no
    /// later than cycle `horizon` — and returns the number of cycles
    /// the clock may skip. 0 = not quiescent, or an event is due now.
    fn idle_jump(&mut self, now: Cycle, horizon: u64) -> u64;

    /// Executes cycle `now`. `t` is the step's chained profiling
    /// timestamp (`None` when profiling is off); the kernel closes its
    /// own phases on it.
    ///
    /// # Errors
    ///
    /// Returns [`EmulationError`] on wiring/protocol violations.
    fn cycle(&mut self, now: Cycle, t: &mut Option<Instant>) -> Result<(), EmulationError>;

    /// The drain-mode stop condition: every generator exhausted,
    /// nothing parked, queued or in flight.
    fn drained(&self) -> bool;

    /// The architectural state after the last cycle stepped (the
    /// probe, wait-for edges and congestion counters read it).
    fn arch_view(&mut self) -> &ArchView;

    /// The packet ledger.
    fn ledger(&self) -> impl Deref<Target = PacketLedger> + '_;

    /// The packet ledger, mutably: [`SteppableEngine::watch`] reaches
    /// it through this.
    fn ledger_mut(&mut self) -> impl DerefMut<Target = PacketLedger> + '_;

    /// Flits fully delivered so far.
    fn delivered_flits(&self) -> u64;
}

/// The common stepping contract of every engine.
///
/// One `step` call advances the engine by one *stepped* cycle; under
/// [`ClockMode::Gated`] that step may first jump the clock across a
/// quiescent window, which is why [`SteppableEngine::now`] can grow by
/// more than one per call. The trait is object-safe so harnesses can
/// drive heterogeneous engines in lockstep through `dyn
/// SteppableEngine`.
pub trait SteppableEngine {
    /// Advances one cycle (plus any preceding fast-forward jump).
    ///
    /// # Errors
    ///
    /// Returns [`EmulationError`] on protocol violations or when the
    /// cycle limit is exceeded.
    fn step(&mut self) -> Result<(), EmulationError>;

    /// The current cycle.
    fn now(&self) -> Cycle;

    /// Whether the stop condition holds.
    fn finished(&self) -> bool;

    /// Packets delivered so far.
    fn delivered(&self) -> u64;

    /// Cycles skipped by the fast-forward kernel so far.
    fn cycles_skipped(&self) -> u64;

    /// Snapshot of the run summary.
    fn summary(&self) -> EngineSummary;

    /// Snapshot of the packet ledger (for exact per-packet
    /// equivalence checks).
    fn packet_ledger(&self) -> PacketLedger;

    /// Has the packet ledger watch `window` ([`PacketLedger::watch`]):
    /// it folds the window's statistics at each delivery and keeps no
    /// history, so it holds only the packets in flight. Call it before
    /// the first step.
    ///
    /// # Errors
    ///
    /// Returns [`LedgerError::LateWatch`] once a packet was released, or
    /// when the ledger watches a window already.
    fn watch(&mut self, window: Window) -> Result<(), LedgerError>;

    /// The windowed telemetry collector, when the config enabled one.
    ///
    /// Engines probe their counters at window boundaries inside
    /// [`SteppableEngine::step`] — always at the *start* of the cycle,
    /// after any clock-gated fast-forward — so the collector's series
    /// are engine-invariant without callers doing anything.
    fn telemetry(&self) -> Option<&nocem_telemetry::Collector> {
        None
    }

    /// Flushes the trailing partial telemetry window and freezes the
    /// collector (no-op without telemetry or when already sealed).
    /// Call once the run (or measurement interval) is over; after
    /// sealing, series totals equal the lifetime counters.
    fn seal_telemetry(&mut self) {}

    /// The per-phase self-profiling report, when the config enabled
    /// profiling ([`crate::config::PlatformConfig::profile`]).
    ///
    /// Takes `&mut self`: a kernel reaches its profiler through
    /// [`CycleKernel::profiler_mut`].
    fn profile(&mut self) -> Option<crate::profile::PhaseReport> {
        None
    }

    /// The stall watchdog's latched forensic report, if profiling ran
    /// with a [`crate::profile::StallConfig`] and the watchdog
    /// tripped.
    fn stall_report(&self) -> Option<&crate::profile::StallReport> {
        None
    }

    /// The architectural state at the current cycle: equal on every
    /// engine standing on the same cycle of the same run.
    fn arch_view(&mut self) -> &ArchView;
}

/// Runs `write` on the telemetry collector, the current cycle and
/// `k`'s view. The collector is taken out of the run state while the
/// view is read, so the two borrows do not overlap, and is put back
/// after. Out of line: it runs once a window, and inlined it would
/// grow the per-cycle step.
#[cold]
#[inline(never)]
fn with_collector<K: CycleKernel>(k: &mut K, write: impl FnOnce(&mut Collector, u64, &ArchView)) {
    let run = k.run_state_mut();
    let Some(mut t) = run.telemetry.take() else {
        return;
    };
    let now = run.now.raw();
    write(&mut t, now, CycleKernel::arch_view(k));
    k.run_state_mut().telemetry = Some(t);
}

/// The step skeleton and the run-level queries, once, for every
/// [`CycleKernel`].
impl<K: CycleKernel> SteppableEngine for K {
    /// gate → probe → cycle → watchdog → limit.
    fn step(&mut self) -> Result<(), EmulationError> {
        let mut t = self.profiler_mut().map(PhaseProfiler::begin_step);
        let run = self.run_state();
        let limit = run.stop.cycle_limit;
        // Hybrid clock gating: on a quiescent platform, jump straight
        // to the earliest future event instead of stepping empty
        // cycles. The skipped ticks are pure no-ops (proven by the
        // gated-vs-ungated lockstep tests), so the cycle executed below
        // at the jump target is exactly the cycle an every-cycle run
        // would have executed there. The horizon keeps a run past the
        // limit raising its error on the same cycle.
        if run.clock_mode == ClockMode::Gated {
            let now = run.now;
            let skipped = self.idle_jump(now, limit);
            if skipped > 0 {
                debug_assert!(now.raw() + skipped <= limit, "jump past the cycle limit");
                self.run_state_mut().jump(skipped);
                if let Some(p) = self.profiler_mut() {
                    p.work.fast_forwards += 1;
                }
            }
        }
        lap(self.profiler_mut(), &mut t, Phase::FastForward);
        // Telemetry probe: at the start of the cycle, *after* the jump,
        // the cumulative counters cover exactly the cycles [0, now) —
        // the same prefix on every engine. A jump that crossed several
        // boundaries records one zero sample per crossed boundary
        // (nothing moves while quiescent).
        if self.run_state().probe_due() {
            with_collector(self, |t, now, view| {
                let (links, buffered) = view.telemetry_counters();
                t.record(now, links, buffered);
            });
        }
        lap(self.profiler_mut(), &mut t, Phase::Probe);
        let now = self.run_state().now;
        self.cycle(now, &mut t)?;
        // Stall watchdog: feed the ledger counters once per stepped
        // cycle; on the trip, capture the wait-for snapshot.
        if self.run_state().watchdog.is_some() {
            let (released, injected, delivered, in_flight) = {
                let l = self.ledger();
                (l.released(), l.injected(), l.delivered(), l.in_flight())
            };
            let dog = self.run_state_mut().watchdog.as_mut();
            let dog = dog.expect("presence checked above");
            if dog.observe(now.raw(), released, injected, delivered, in_flight) {
                let window = dog.window();
                let view = CycleKernel::arch_view(self);
                let report = StallReport::from_view(now.raw(), window, in_flight, view);
                let dog = self.run_state_mut().watchdog.as_mut();
                dog.expect("presence checked above").latch(report);
            }
        }
        let delivered = self.ledger().delivered();
        self.run_state_mut().advance(delivered)
    }

    fn now(&self) -> Cycle {
        self.run_state().now
    }

    fn finished(&self) -> bool {
        self.run_state()
            .target_met(self.ledger().delivered())
            .unwrap_or_else(|| self.drained())
    }

    fn delivered(&self) -> u64 {
        self.ledger().delivered()
    }

    fn cycles_skipped(&self) -> u64 {
        self.run_state().cycles_skipped
    }

    fn summary(&self) -> EngineSummary {
        self.run_state()
            .summary(self.delivered_flits(), &self.ledger())
    }

    fn packet_ledger(&self) -> PacketLedger {
        self.ledger().clone()
    }

    fn watch(&mut self, window: Window) -> Result<(), LedgerError> {
        self.ledger_mut().watch(window)
    }

    fn telemetry(&self) -> Option<&Collector> {
        self.run_state().telemetry.as_ref()
    }

    /// A no-op when telemetry is off or already sealed.
    fn seal_telemetry(&mut self) {
        if self.run_state().seal_due() {
            with_collector(self, |t, now, view| {
                let (links, buffered) = view.telemetry_counters();
                t.seal(now, links, buffered);
            });
        }
    }

    fn profile(&mut self) -> Option<PhaseReport> {
        self.profiler_mut().map(|p| p.report(Self::LABEL))
    }

    fn stall_report(&self) -> Option<&StallReport> {
        self.run_state()
            .watchdog
            .as_ref()
            .and_then(StallWatchdog::report)
    }

    fn arch_view(&mut self) -> &ArchView {
        CycleKernel::arch_view(self)
    }
}

/// Runs any engine to its stop condition.
///
/// # Errors
///
/// Propagates [`EmulationError`] from [`SteppableEngine::step`].
pub fn run_engine<E: SteppableEngine + ?Sized>(engine: &mut E) -> Result<(), EmulationError> {
    while !engine.finished() {
        engine.step()?;
    }
    Ok(())
}

/// Runs any engine until its clock reaches at least `cycle` (or its
/// stop condition holds first, whichever comes earlier).
///
/// This is the measurement-window primitive of the latency–throughput
/// curve harness: a steady-state point runs open-loop (no packet
/// budget) for warm-up-plus-window cycles and is then read out
/// through the ledger. Under [`ClockMode::Gated`] a final
/// fast-forward jump may overshoot `cycle`; that is harmless — the
/// overshot window is provably quiescent, so no observable event
/// lands in it.
///
/// # Errors
///
/// Propagates [`EmulationError`] from [`SteppableEngine::step`].
pub fn run_engine_until<E: SteppableEngine + ?Sized>(
    engine: &mut E,
    cycle: u64,
) -> Result<(), EmulationError> {
    while engine.now().raw() < cycle && !engine.finished() {
        engine.step()?;
    }
    Ok(())
}

/// Runs any engine to its stop condition, invoking `progress` at every
/// multiple of `interval` cycles with `(cycle, delivered)`.
///
/// The promised granularity survives clock gating: when a fast-forward
/// jump crosses one or more reporting boundaries, the callback fires
/// once per crossed boundary. That is exact, not approximate — a jump
/// only happens while the platform is quiescent, so the delivered
/// count at every skipped boundary equals the delivered count after
/// the jump.
///
/// # Errors
///
/// Propagates [`EmulationError`] from [`SteppableEngine::step`].
pub fn run_engine_with_progress<E: SteppableEngine + ?Sized>(
    engine: &mut E,
    interval: u64,
    mut progress: impl FnMut(Cycle, u64),
) -> Result<(), EmulationError> {
    let interval = interval.max(1);
    let mut next_report = (engine.now().raw() / interval + 1) * interval;
    while !engine.finished() {
        engine.step()?;
        while engine.now().raw() >= next_report {
            progress(Cycle::new(next_report), engine.delivered());
            next_report += interval;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nocem_common::ids::{EndpointId, FlowId};
    use nocem_traffic::generator::DestinationModel;
    use nocem_traffic::stochastic::{StochasticTg, UniformConfig};
    use nocem_traffic::trace::{Trace, TraceDrivenTg, TraceEvent};

    fn uniform_tg(budget: u64, gap: u32, seed: u64) -> Box<dyn TrafficGenerator + Send> {
        Box::new(StochasticTg::uniform(
            UniformConfig {
                length: nocem_traffic::generator::LengthModel::Fixed(2),
                gap: (gap, gap),
                budget: Some(budget),
                destination: DestinationModel::Fixed {
                    dst: EndpointId::new(1),
                    flow: FlowId::new(0),
                },
            },
            seed,
        ))
    }

    #[test]
    fn fast_forward_takes_the_earliest_event() {
        let mut tgs = vec![uniform_tg(4, 10, 1), uniform_tg(4, 6, 2)];
        // Burn the cycle-0 releases so both TGs sit in their cooldown.
        for tg in &mut tgs {
            assert!(tg.tick(Cycle::ZERO).is_some());
        }
        let now = Cycle::new(1);
        let e0 = tgs[0].next_event_cycle(now).cycle_or_max();
        let e1 = tgs[1].next_event_cycle(now).cycle_or_max();
        let skipped = fast_forward(now, u64::MAX, &mut tgs);
        assert_eq!(skipped, e0.min(e1) - 1, "jump lands on the nearer event");
        // Both generators replayed the same number of no-op ticks.
        let at = Cycle::new(now.raw() + skipped);
        assert_eq!(
            tgs.iter()
                .map(|t| t.next_event_cycle(at).cycle_or_max())
                .min(),
            Some(at.raw())
        );
    }

    #[test]
    fn fast_forward_clamps_to_the_cycle_limit() {
        let mut tgs = vec![uniform_tg(2, 1_000, 1)];
        assert!(tgs[0].tick(Cycle::ZERO).is_some());
        let skipped = fast_forward(Cycle::new(1), 50, &mut tgs);
        assert_eq!(skipped, 49, "clamped jump stops at the limit cycle");
    }

    #[test]
    fn fast_forward_without_events_jumps_to_the_limit() {
        let mut tgs: Vec<Box<dyn TrafficGenerator + Send>> = vec![Box::new(TraceDrivenTg::new(
            &Trace::from_events(Vec::new()),
            EndpointId::new(0),
        ))];
        assert_eq!(fast_forward(Cycle::new(3), 20, &mut tgs), 17);
    }

    #[test]
    fn fast_forward_refuses_due_events() {
        let trace = Trace::from_events(vec![TraceEvent {
            at: Cycle::new(5),
            src: EndpointId::new(0),
            dst: EndpointId::new(1),
            flow: FlowId::new(0),
            len_flits: 1,
        }]);
        let mut tgs: Vec<Box<dyn TrafficGenerator + Send>> =
            vec![Box::new(TraceDrivenTg::new(&trace, EndpointId::new(0)))];
        assert_eq!(fast_forward(Cycle::new(5), u64::MAX, &mut tgs), 0);
        assert_eq!(fast_forward(Cycle::new(2), u64::MAX, &mut tgs), 3);
    }

    /// What the skeleton asked of the kernel, in order.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Ask {
        Jump { now: u64, horizon: u64 },
        View { now: u64 },
        Cycle(u64),
    }

    /// A kernel that does nothing but log the skeleton's calls. It is
    /// quiescent with its next event at `idle_until` (`None` = never
    /// quiescent) and releases one never-delivered packet at cycle 0
    /// when `wedge` is set.
    struct Fake {
        run: RunState,
        profiler: Option<PhaseProfiler>,
        ledger: PacketLedger,
        idle_until: Option<u64>,
        wedge: bool,
        /// The configured platform's view, never filled.
        view: ArchView,
        log: Vec<Ask>,
    }

    impl Fake {
        fn new(config: &PlatformConfig, idle_until: Option<u64>) -> Self {
            Fake {
                run: RunState::new(config),
                profiler: config.profile.map(|_| PhaseProfiler::new()),
                ledger: PacketLedger::new(),
                idle_until,
                wedge: false,
                view: ArchView::new(&crate::compile::elaborate(config).unwrap()),
                log: Default::default(),
            }
        }

        fn log(&self) -> Vec<Ask> {
            self.log.clone()
        }
    }

    impl CycleKernel for Fake {
        const LABEL: &'static str = "fake";

        fn run_state(&self) -> &RunState {
            &self.run
        }

        fn run_state_mut(&mut self) -> &mut RunState {
            &mut self.run
        }

        fn profiler_mut(&mut self) -> Option<&mut PhaseProfiler> {
            self.profiler.as_mut()
        }

        fn idle_jump(&mut self, now: Cycle, horizon: u64) -> u64 {
            let now = now.raw();
            self.log.push(Ask::Jump { now, horizon });
            self.idle_until
                .map_or(0, |event| event.min(horizon).saturating_sub(now))
        }

        fn cycle(&mut self, now: Cycle, _: &mut Option<Instant>) -> Result<(), EmulationError> {
            self.log.push(Ask::Cycle(now.raw()));
            if self.wedge && now == Cycle::ZERO {
                self.ledger
                    .release(nocem_common::ids::PacketId::new(0), now, 1)?;
            }
            Ok(())
        }

        fn drained(&self) -> bool {
            false
        }

        fn arch_view(&mut self) -> &ArchView {
            let now = self.run.now.raw();
            self.log.push(Ask::View { now });
            self.view.alloc_live();
            &self.view
        }

        fn ledger(&self) -> impl Deref<Target = PacketLedger> + '_ {
            &self.ledger
        }

        fn ledger_mut(&mut self) -> impl DerefMut<Target = PacketLedger> + '_ {
            &mut self.ledger
        }

        fn delivered_flits(&self) -> u64 {
            0
        }
    }

    fn fake_config(mode: ClockMode, cycle_limit: u64) -> PlatformConfig {
        let mut cfg = crate::config::PaperConfig::new()
            .total_packets(1)
            .uniform()
            .with_clock_mode(mode);
        cfg.stop.cycle_limit = cycle_limit;
        cfg
    }

    #[test]
    fn skeleton_jumps_then_probes_then_cycles() {
        use crate::profile::ProfileConfig;
        let cfg = fake_config(ClockMode::Gated, 1_000)
            .with_telemetry(Some(nocem_telemetry::TelemetryConfig::windowed(10)))
            .with_profile(Some(ProfileConfig::default()));
        let mut k = Fake::new(&cfg, Some(25));
        k.step().unwrap();
        // One view read, after the jump and before the cycle, at the
        // jump target — and it filled both boundaries the jump crossed.
        assert_eq!(
            k.log(),
            [
                Ask::Jump {
                    now: 0,
                    horizon: 1_000
                },
                Ask::View { now: 25 },
                Ask::Cycle(25)
            ]
        );
        assert_eq!(k.telemetry().unwrap().windows_recorded(), 2);
        assert_eq!((k.now().raw(), k.cycles_skipped()), (26, 25));
        // The event is now in the past: no jump, no boundary, no probe.
        k.step().unwrap();
        assert_eq!(
            k.log()[3..],
            [
                Ask::Jump {
                    now: 26,
                    horizon: 1_000
                },
                Ask::Cycle(26)
            ]
        );
        assert_eq!(k.cycles_skipped(), 25);
        assert_eq!(k.profile().unwrap().work.fast_forwards, 1);
    }

    #[test]
    fn skeleton_never_asks_an_ungated_kernel_to_jump() {
        let mut k = Fake::new(&fake_config(ClockMode::EveryCycle, 1_000), Some(25));
        for _ in 0..3 {
            k.step().unwrap();
        }
        assert_eq!(k.log(), [Ask::Cycle(0), Ask::Cycle(1), Ask::Cycle(2)]);
        assert_eq!(k.cycles_skipped(), 0);
    }

    #[test]
    fn skeleton_does_not_jump_a_busy_kernel() {
        let mut k = Fake::new(&fake_config(ClockMode::Gated, 1_000), None);
        k.step().unwrap();
        assert_eq!((k.now().raw(), k.cycles_skipped()), (1, 0));
    }

    #[test]
    fn skeleton_raises_the_cycle_limit_on_the_same_cycle_gated_or_not() {
        let run_out = |mode| {
            let mut k = Fake::new(&fake_config(mode, 50), Some(u64::MAX));
            let err = run_engine(&mut k).unwrap_err();
            assert!(matches!(
                err,
                EmulationError::CycleLimitExceeded {
                    limit: 50,
                    delivered: 0
                }
            ));
            (k.now().raw(), k.log())
        };
        let (gated_now, gated) = run_out(ClockMode::Gated);
        let (ungated_now, ungated) = run_out(ClockMode::EveryCycle);
        assert_eq!((gated_now, ungated_now), (51, 51));
        // The jump was offered the limit as its horizon and stopped on
        // it; both runs execute cycle 50 last.
        assert_eq!(
            gated,
            [
                Ask::Jump {
                    now: 0,
                    horizon: 50
                },
                Ask::Cycle(50)
            ]
        );
        assert_eq!(ungated.len(), 51);
        assert_eq!(ungated.last(), Some(&Ask::Cycle(50)));
    }

    #[test]
    fn skeleton_feeds_the_watchdog_after_the_cycle() {
        use crate::profile::ProfileConfig;
        let cfg = fake_config(ClockMode::EveryCycle, 1_000)
            .with_profile(Some(ProfileConfig::default().with_stall(3)));
        let mut k = Fake::new(&cfg, None);
        k.wedge = true;
        for _ in 0..4 {
            assert!(k.stall_report().is_none());
            k.step().unwrap();
        }
        // Cycle 0's release was seen at cycle 0 (the feed follows the
        // cycle), so three frozen cycles later the watchdog trips and
        // the snapshot is taken right behind cycle 3.
        let report = k.stall_report().expect("tripped");
        assert_eq!(
            (report.at_cycle, report.window, report.in_flight),
            (3, 3, 1)
        );
        assert_eq!(k.log()[3..], [Ask::Cycle(3), Ask::View { now: 3 }]);
    }

    #[test]
    fn speedup_formula() {
        assert_eq!(effective_speedup(0, 0), 1.0);
        assert_eq!(effective_speedup(100, 0), 1.0);
        assert_eq!(effective_speedup(100, 50), 2.0);
        assert_eq!(effective_speedup(100, 100), 1.0, "degenerate guard");
    }
}
