//! Clock control: hybrid clock-gated emulation.
//!
//! The paper's platform (and the original engines here) steps every
//! cycle even when the network is empty, which wastes most of the wall
//! clock on the low-load points of a scenario matrix. Following the
//! hybrid clock-gating idea of EmuNoC (see PAPERS.md), this module
//! lets all three engines *jump* the clock over provably idle windows
//! without changing any observable behaviour:
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
//! The engines are unified behind the [`SteppableEngine`] trait,
//! so the run loops ([`run_engine`], [`run_engine_with_progress`]),
//! the engine-generic sweep (`crate::sweep::run_sweep_engine`) and the
//! cross-engine lockstep tests are written once instead of three
//! times.
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
//!
//! # The sharded engine: the cross-shard event horizon
//!
//! The sharded engine (`crate::shard_compiled`) applies the same
//! protocol per shard: every worker reports its local
//! quiescence and its TGs' earliest future event each cycle, and the
//! coordinator may jump only when **all** shards are quiescent (plus
//! the ledger clause), and only to the *minimum* next-event over all
//! shards — the cross-shard event horizon. A shard therefore never
//! fast-forwards past a cycle at which another shard could have
//! produced traffic that would reach it; the jump is replayed in
//! every worker with the same [`TrafficGenerator::skip_to`] contract
//! as [`fast_forward`]. Because the gating decision is a per-cycle
//! platform-wide predicate, the engine clamps its exchange batch to 1
//! under [`ClockMode::Gated`] rather than diverge.

use crate::error::EmulationError;
use nocem_common::time::Cycle;
use nocem_stats::latency::LatencyAnalyzer;
use nocem_stats::ledger::PacketLedger;
use nocem_switch::switch::Switch;
use nocem_traffic::generator::{PacketRequest, TrafficGenerator};
use nocem_traffic::ni::SourceNi;

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

/// A structured, machine-visible warning an engine raised while
/// coming up or running — the replacement for ad-hoc stderr prints,
/// surfaced on [`EngineSummary::warnings`] and
/// [`SteppableEngine::warnings`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EngineWarning {
    /// Clock gating needs a per-cycle cross-shard horizon, so the
    /// sharded-compiled engine clamped the requested exchange batch
    /// to 1.
    GatedBatchClamp {
        /// The batch the configuration asked for.
        requested: u64,
    },
}

impl std::fmt::Display for EngineWarning {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineWarning::GatedBatchClamp { requested } => write!(
                f,
                "clock gating needs a per-cycle cross-shard horizon; \
                 clamping sharded-compiled batch {requested} to 1"
            ),
        }
    }
}

/// Engine-agnostic end-of-run summary — the comparison tuple of the
/// cross-engine and gated-vs-ungated equivalence tests.
///
/// Equality deliberately ignores [`EngineSummary::warnings`]: a
/// warning describes the *machinery* (a clamped knob), not the
/// emulated behaviour, and the equivalence tests compare behaviour.
#[derive(Debug, Clone)]
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
    /// Structured warnings the engine raised (excluded from
    /// equality).
    pub warnings: Vec<EngineWarning>,
}

impl PartialEq for EngineSummary {
    fn eq(&self, other: &Self) -> bool {
        self.cycles == other.cycles
            && self.cycles_skipped == other.cycles_skipped
            && self.released == other.released
            && self.injected == other.injected
            && self.delivered == other.delivered
            && self.delivered_flits == other.delivered_flits
            && self.network_latency == other.network_latency
            && self.total_latency == other.total_latency
    }
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
            network_latency: ledger.network_latency().clone(),
            total_latency: ledger.total_latency().clone(),
            warnings: Vec::new(),
        }
    }

    /// The summary with the engine's warnings attached
    /// (builder-style; engines call this inside
    /// [`SteppableEngine::summary`]).
    #[must_use]
    pub fn with_warnings(mut self, warnings: &[EngineWarning]) -> EngineSummary {
        self.warnings = warnings.to_vec();
        self
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

/// The common stepping contract of the three simulation engines (fast
/// emulation, TLM, RTL).
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
    /// Takes `&mut self` because the sharded engine fetches its workers'
    /// accumulators over the command channels on demand.
    fn profile(&mut self) -> Option<crate::profile::PhaseReport> {
        None
    }

    /// The merged wall-clock span timeline (Chrome-trace material),
    /// when the config enabled profiling with spans on. Draining is
    /// destructive on the sharded engine — call once, at the end.
    fn span_trace(&mut self) -> Option<nocem_telemetry::SpanTrace> {
        None
    }

    /// The stall watchdog's latched forensic report, if profiling ran
    /// with a [`crate::profile::StallConfig`] and the watchdog
    /// tripped.
    fn stall_report(&self) -> Option<&crate::profile::StallReport> {
        None
    }

    /// Structured warnings the engine raised while coming up or
    /// running (configuration clamps and the like).
    fn warnings(&self) -> &[EngineWarning] {
        &[]
    }
}

/// Runs any engine to its stop condition.
///
/// This drives the engine purely through the stepping contract. It
/// does *not* touch engine-specific peripherals — in particular, the
/// fast engine's memory-mapped control module (`running`/`done` bits)
/// is only maintained by `Emulation::run`/`run_with_progress`/
/// `run_programmed`; register-polling software should run through
/// those paths.
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

    #[test]
    fn speedup_formula() {
        assert_eq!(effective_speedup(0, 0), 1.0);
        assert_eq!(effective_speedup(100, 0), 1.0);
        assert_eq!(effective_speedup(100, 50), 2.0);
        assert_eq!(effective_speedup(100, 100), 1.0, "degenerate guard");
    }
}
