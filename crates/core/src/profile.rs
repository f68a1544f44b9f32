//! Emulator self-profiling: phase timers and stall forensics.
//!
//! Everything else in the observability stack watches the *emulated
//! network*; this module watches the *emulator*. It has two parts,
//! both opt-in through [`crate::config::PlatformConfig::profile`] and
//! both run by every engine:
//!
//! * **Phase profiling** — a [`PhaseProfiler`] of chained monotonic
//!   timestamps accumulating per-[`Phase`] nanoseconds inside every
//!   engine's step loop, reported as a [`PhaseReport`] through
//!   [`crate::clock::SteppableEngine::profile`]. Because each lap
//!   closes exactly where the next opens, the per-cycle phases sum to
//!   the step's wall time (no double counting, no gaps), which is what
//!   makes "switch allocation is ~half the budget" a checkable number.
//!   Set-up (elaboration, lowering) is not a phase: it is timed from
//!   outside, around the calls that do it.
//! * **Stall forensics** — a [`StallWatchdog`] that notices when a
//!   run with packets in flight stops making any ledger progress for
//!   [`StallConfig::no_progress_cycles`] cycles and latches a
//!   [`StallReport`]: every waiting input VC as a [`WaitEdge`]
//!   (which (link, VC) it needs credits toward, whether a worm holds
//!   the output), a downstream blame chain, and the top blocked links.
//!
//! The ledger phase is *nested*: ledger calls happen inside the TG,
//! NI and commit phases, so the profiler carves their time out of the
//! enclosing lap ([`PhaseProfiler::nested`]) to keep phases disjoint.

use crate::view::ArchView;
use nocem_common::json::{Fixed, JsonWriter};
use nocem_common::table::{Align, TextTable};
use nocem_switch::switch::CREDITS_INFINITE;
use std::time::Instant;

/// A named slice of an engine's cycle budget.
///
/// The interpreted and compiled engines use the per-cycle phases
/// `FastForward..=Ledger`, the TLM and RTL models `Processes`. No
/// engine records `WorkerCompute`, `Exchange`, `CoordWait` or `Apply`;
/// they stay because the benchmark reports a metric for each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Phase {
    /// Quiescence check and clock-gated fast-forward.
    FastForward = 0,
    /// Telemetry probe and window recording.
    Probe = 1,
    /// Traffic-generator ticks, releases and pending retries.
    TgTick = 2,
    /// Switch decide: routing, VC allocation, switch allocation.
    Decide = 3,
    /// Network-interface flit injection.
    NiInject = 4,
    /// Switch commit: pops, forwards, credits, deliveries.
    Commit = 5,
    /// Packet-ledger bookkeeping (nested inside TG/NI/commit).
    Ledger = 6,
    /// Recorded by no engine (see the type's docs).
    WorkerCompute = 7,
    /// Recorded by no engine.
    Exchange = 8,
    /// Recorded by no engine.
    CoordWait = 9,
    /// Recorded by no engine.
    Apply = 10,
    /// Process evaluation and update — the whole scheduler cycle of
    /// the TLM and RTL models, which interleave the per-cycle phases
    /// inside their processes and cannot split them.
    Processes = 11,
}

impl Phase {
    /// Number of phases (accumulator array length).
    pub const COUNT: usize = 12;

    /// Every phase, in accumulator order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::FastForward,
        Phase::Probe,
        Phase::TgTick,
        Phase::Decide,
        Phase::NiInject,
        Phase::Commit,
        Phase::Ledger,
        Phase::WorkerCompute,
        Phase::Exchange,
        Phase::CoordWait,
        Phase::Apply,
        Phase::Processes,
    ];

    /// Stable lowercase name used in reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Phase::FastForward => "fast-forward",
            Phase::Probe => "probe",
            Phase::TgTick => "tg-tick",
            Phase::Decide => "decide",
            Phase::NiInject => "ni-inject",
            Phase::Commit => "commit",
            Phase::Ledger => "ledger",
            Phase::WorkerCompute => "worker-compute",
            Phase::Exchange => "exchange",
            Phase::CoordWait => "coordinator-wait",
            Phase::Apply => "apply",
            Phase::Processes => "processes",
        }
    }
}

/// Configuration of the self-profiling layer. Profiling is opt-in:
/// engines pay for timestamps only when a config is present, and a
/// profiled run remains ledger-identical to an unprofiled one. The
/// phase accumulators run whenever a config is present; the stall
/// watchdog only when [`ProfileConfig::stall`] is set.
///
/// # Examples
///
/// ```
/// use nocem::profile::ProfileConfig;
/// let p = ProfileConfig::default().with_stall(5_000);
/// assert_eq!(p.stall.unwrap().no_progress_cycles, 5_000);
/// assert_eq!(ProfileConfig::default().stall, None);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProfileConfig {
    /// Enable the stall watchdog.
    pub stall: Option<StallConfig>,
}

impl ProfileConfig {
    /// Enables the stall watchdog with the given no-progress window.
    #[must_use]
    pub fn with_stall(mut self, no_progress_cycles: u64) -> Self {
        self.stall = Some(StallConfig { no_progress_cycles });
        self
    }

    /// Returns the config unchanged: the phase accumulators are all
    /// the profiler times, so there is nothing to switch off. Kept
    /// only for callers that still call it.
    #[must_use]
    pub fn without_spans(self) -> Self {
        self
    }
}

/// Stall-watchdog configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallConfig {
    /// Trip after this many consecutive cycles with packets in flight
    /// but zero released/injected/delivered progress.
    pub no_progress_cycles: u64,
}

impl Default for StallConfig {
    fn default() -> Self {
        StallConfig {
            no_progress_cycles: 10_000,
        }
    }
}

/// Work an engine did, counted next to the timers so a report can tell
/// *more work* from *slower work*, while profiling is on. The step
/// skeleton counts `fast_forwards` on every engine; the other counters
/// are filled by the compiled kernel only and read zero elsewhere.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkCounters {
    /// Switches that ran decide (and commit): live at cycle start.
    pub switches_decided: u64,
    /// Live-set words decide looked at to find them.
    pub switches_scanned: u64,
    /// Traffic generators the TG phase visited: due now, or parked.
    pub tg_polls: u64,
    /// Traffic-generator `tick` calls actually made.
    pub tg_ticks: u64,
    /// Stepped cycles whose whole TG phase the watermark skipped.
    pub tg_phases_skipped: u64,
    /// Network-interface `tick_send` calls.
    pub ni_ticks: u64,
    /// Network interfaces put to sleep for want of a credit.
    pub ni_sleeps: u64,
    /// Clock-gated jumps taken.
    pub fast_forwards: u64,
}

impl WorkCounters {
    /// `(name, value)` per counter, in declaration order.
    fn named(&self) -> [(&'static str, u64); 8] {
        [
            ("switches_decided", self.switches_decided),
            ("switches_scanned", self.switches_scanned),
            ("tg_polls", self.tg_polls),
            ("tg_ticks", self.tg_ticks),
            ("tg_phases_skipped", self.tg_phases_skipped),
            ("ni_ticks", self.ni_ticks),
            ("ni_sleeps", self.ni_sleeps),
            ("fast_forwards", self.fast_forwards),
        ]
    }
}

/// Per-phase wall-clock accumulators driven by chained timestamps.
///
/// The step loop takes one timestamp per phase boundary: each
/// [`PhaseProfiler::lap`] charges the time since the previous
/// timestamp to the closing phase and returns the new timestamp, so
/// consecutive phases share their boundary instant and the per-cycle
/// phases sum to the step's wall time exactly. Nested scopes (the
/// ledger) are charged to their own phase and subtracted from the
/// enclosing lap by [`PhaseProfiler::nested`].
#[derive(Debug, Clone, Default)]
pub struct PhaseProfiler {
    acc: [u64; Phase::COUNT],
    nested_ns: u64,
    stepped_cycles: u64,
    /// Work counters, bumped directly by the engine that owns the
    /// profiler.
    pub(crate) work: WorkCounters,
}

impl PhaseProfiler {
    /// A profiler with all accumulators at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a step: counts the cycle and returns the chain's first
    /// timestamp.
    pub fn begin_step(&mut self) -> Instant {
        self.stepped_cycles += 1;
        Instant::now()
    }

    /// Closes `phase` at the current instant: charges it the time
    /// since `prev` (minus any nested time recorded in between) and
    /// returns the new chain timestamp.
    pub fn lap(&mut self, prev: Instant, phase: Phase) -> Instant {
        let now = Instant::now();
        let d = now.saturating_duration_since(prev).as_nanos() as u64;
        self.acc[phase as usize] += d.saturating_sub(self.nested_ns);
        self.nested_ns = 0;
        now
    }

    /// Charges a nested scope begun at `start` to `phase` and marks
    /// it for subtraction from the enclosing lap.
    pub fn nested(&mut self, start: Instant, phase: Phase) {
        let d = start.elapsed().as_nanos() as u64;
        self.acc[phase as usize] += d;
        self.nested_ns += d;
    }

    /// Accumulated nanoseconds of `phase`.
    pub fn ns(&self, phase: Phase) -> u64 {
        self.acc[phase as usize]
    }

    /// Cycles counted through [`PhaseProfiler::begin_step`].
    pub fn stepped_cycles(&self) -> u64 {
        self.stepped_cycles
    }

    /// Snapshots the accumulators into a [`PhaseReport`].
    pub fn report(&self, label: impl Into<String>) -> PhaseReport {
        let total_ns: u64 = self.acc.iter().sum();
        let cycles = self.stepped_cycles.max(1);
        let mut phases: Vec<PhaseStat> = Phase::ALL
            .iter()
            .filter(|p| self.acc[**p as usize] > 0)
            .map(|&p| PhaseStat {
                phase: p.name(),
                ns: self.acc[p as usize],
                share: self.acc[p as usize] as f64 / total_ns.max(1) as f64,
                ns_per_cycle: self.acc[p as usize] as f64 / cycles as f64,
            })
            .collect();
        phases.sort_by_key(|p| std::cmp::Reverse(p.ns));
        PhaseReport {
            label: label.into(),
            total_ns,
            stepped_cycles: self.stepped_cycles,
            phases,
            work: self.work,
        }
    }
}

/// One phase's cost in a [`PhaseReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseStat {
    /// Phase name (see [`Phase::name`]).
    pub phase: &'static str,
    /// Accumulated nanoseconds.
    pub ns: u64,
    /// Fraction of the report's `total_ns`.
    pub share: f64,
    /// Nanoseconds per stepped cycle.
    pub ns_per_cycle: f64,
}

/// Where an engine's time went: per-phase totals, shares and
/// per-cycle costs.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseReport {
    /// Engine label (e.g. `"compiled"`).
    pub label: String,
    /// Sum of all phase accumulators in nanoseconds: the time spent
    /// inside the step loop.
    pub total_ns: u64,
    /// Cycles actually stepped (skipped cycles cost no time).
    pub stepped_cycles: u64,
    /// Non-zero phases, descending by time.
    pub phases: Vec<PhaseStat>,
    /// Work counted next to the timers (zeros on engines that do not
    /// count).
    pub work: WorkCounters,
}

impl PhaseReport {
    /// The named phase's row, when it ran.
    fn stat(&self, phase: Phase) -> Option<&PhaseStat> {
        self.phases.iter().find(|p| p.phase == phase.name())
    }

    /// Nanoseconds of the named phase (0 when absent).
    pub fn ns_of(&self, phase: Phase) -> u64 {
        self.stat(phase).map_or(0, |p| p.ns)
    }

    /// Share of the named phase (0.0 when absent).
    pub fn share_of(&self, phase: Phase) -> f64 {
        self.stat(phase).map_or(0.0, |p| p.share)
    }

    /// Renders the report as a text table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "phase profile: {} ({} cycles stepped, {:.3} ms total)\n",
            self.label,
            self.stepped_cycles,
            self.total_ns as f64 / 1e6
        );
        let mut t = TextTable::with_columns(&["phase", "time (ms)", "share", "ns/cycle"]);
        for col in 1..4 {
            t.align(col, Align::Right);
        }
        for p in &self.phases {
            t.row(vec![
                p.phase.to_string(),
                format!("{:.3}", p.ns as f64 / 1e6),
                format!("{:.1}%", p.share * 100.0),
                format!("{:.1}", p.ns_per_cycle),
            ]);
        }
        out.push_str(&t.to_string());
        if self.work != WorkCounters::default() {
            out.push_str("work:");
            for (name, v) in self.work.named() {
                out.push_str(&format!(" {name}={v}"));
            }
            out.push('\n');
        }
        out
    }

    /// The report as one JSON object.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.object(|w| {
            w.field("label", self.label.as_str())
                .field("total_ns", self.total_ns);
            w.field("stepped_cycles", self.stepped_cycles);
            w.key("phases").array(|w| {
                for p in &self.phases {
                    w.object(|w| {
                        w.field("phase", p.phase).field("ns", p.ns);
                        w.field("share", Fixed(p.share, 6));
                        w.field("ns_per_cycle", Fixed(p.ns_per_cycle, 3));
                    });
                }
            });
            w.key("work").object(|w| {
                for (name, v) in self.work.named() {
                    w.field(name, v);
                }
            });
        });
        w.finish()
    }
}

/// Closes a profiling lap on the step's chained timestamp: charges
/// `phase` the time since `*t` and chains the next timestamp. No-op (a
/// single `Option` check) when profiling is off.
#[inline]
pub fn lap(profiler: Option<&mut PhaseProfiler>, t: &mut Option<Instant>, phase: Phase) {
    if let (Some(prev), Some(p)) = (t.as_mut(), profiler) {
        *prev = p.lap(*prev, phase);
    }
}

/// Detects a run that has stopped making progress and latches one
/// forensic [`StallReport`].
///
/// Progress is any change in the ledger's released/injected/delivered
/// counters. The watchdog trips when packets are in flight and none
/// of the three counters moved for
/// [`StallConfig::no_progress_cycles`] consecutive cycles — an idle
/// warm-up or a drained run never trips it. It trips at most once:
/// the first forensic snapshot is the interesting one.
#[derive(Debug, Clone)]
pub struct StallWatchdog {
    cfg: StallConfig,
    last: (u64, u64, u64),
    progress_at: u64,
    report: Option<Box<StallReport>>,
}

impl StallWatchdog {
    /// A watchdog with no progress observed yet.
    pub fn new(cfg: StallConfig) -> Self {
        StallWatchdog {
            cfg,
            last: (0, 0, 0),
            progress_at: 0,
            report: None,
        }
    }

    /// Feeds one cycle's ledger counters. Returns `true` exactly once,
    /// on the cycle the watchdog trips — the caller must then capture
    /// a snapshot and [`StallWatchdog::latch`] it.
    pub fn observe(
        &mut self,
        now: u64,
        released: u64,
        injected: u64,
        delivered: u64,
        in_flight: u64,
    ) -> bool {
        let counts = (released, injected, delivered);
        if counts != self.last {
            self.last = counts;
            self.progress_at = now;
            return false;
        }
        if in_flight == 0 {
            self.progress_at = now;
            return false;
        }
        self.report.is_none() && now.saturating_sub(self.progress_at) >= self.cfg.no_progress_cycles
    }

    /// The configured no-progress window, in cycles.
    pub(crate) fn window(&self) -> u64 {
        self.cfg.no_progress_cycles
    }

    /// Stores the forensic snapshot for the trip.
    pub fn latch(&mut self, report: StallReport) {
        self.report = Some(Box::new(report));
    }

    /// The latched report, when the watchdog tripped.
    pub fn report(&self) -> Option<&StallReport> {
        self.report.as_deref()
    }
}

/// Downstream end of a [`WaitEdge`]'s chosen output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitDest {
    /// The output's link feeds another switch's input port.
    Switch {
        /// Downstream switch index.
        switch: u32,
        /// Downstream input port index.
        input: u32,
    },
    /// The output ejects into a receptor.
    Receptor {
        /// Receptor index.
        index: u32,
    },
}

/// One waiting input VC at stall time: what it holds, where it wants
/// to go, and why it cannot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitEdge {
    /// Switch holding the flits.
    pub switch: u32,
    /// Input port of the waiting FIFO.
    pub in_port: u32,
    /// Input VC of the waiting FIFO.
    pub in_vc: u8,
    /// Output port the head wants (allocated worm or sticky choice).
    pub out_port: u32,
    /// Output VC the head wants.
    pub out_vc: u8,
    /// Link id the output drives — the (link, VC) the edge is starved
    /// toward when `credits == 0`.
    pub link: u32,
    /// Buffered flits in the waiting FIFO.
    pub occupancy: u32,
    /// The FIFO's capacity.
    pub fifo_depth: u32,
    /// Credits left toward the downstream (link, VC).
    pub credits: u32,
    /// The credit cap of that output VC.
    pub credit_cap: u32,
    /// Whether this input VC holds the output VC's wormhole.
    pub worm_open: bool,
    /// Downstream end of the chosen output.
    pub dest: WaitDest,
}

impl WaitEdge {
    /// Whether the edge is waiting on credits (zero toward a finite
    /// downstream buffer).
    pub fn starved(&self) -> bool {
        self.credits == 0 && self.credit_cap != CREDITS_INFINITE
    }
}

/// One congested link in the stall snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockedLink {
    /// Link id.
    pub link: u32,
    /// Cumulative blocked cycles on that link.
    pub blocked: u64,
}

/// The forensic snapshot latched by the [`StallWatchdog`]: every
/// waiting edge, a downstream blame chain, and the most blocked
/// links.
#[derive(Debug, Clone, PartialEq)]
pub struct StallReport {
    /// Cycle the watchdog tripped at.
    pub at_cycle: u64,
    /// The configured no-progress window.
    pub window: u64,
    /// Packets in flight at trip time.
    pub in_flight: u64,
    /// Waiting edges: credit-starved first, then by occupancy
    /// descending, then by switch id.
    pub edges: Vec<WaitEdge>,
    /// Most blocked links (descending), from the engine's cumulative
    /// congestion counters.
    pub top_blocked: Vec<BlockedLink>,
    /// Indices into `edges` forming the blame chain: starts at the
    /// worst starved edge and follows each edge's flits downstream
    /// until ejection, a cycle, or an edge with no successor.
    pub chain: Vec<usize>,
}

impl StallReport {
    /// Sorts the edges, computes the blame chain, and assembles the
    /// report.
    pub fn new(
        at_cycle: u64,
        window: u64,
        in_flight: u64,
        mut edges: Vec<WaitEdge>,
        top_blocked: Vec<BlockedLink>,
    ) -> Self {
        edges.sort_by_key(|e| {
            (
                !e.starved(),
                std::cmp::Reverse(e.occupancy),
                e.switch,
                e.in_port,
                e.in_vc,
            )
        });
        let chain = blame_chain(&edges);
        StallReport {
            at_cycle,
            window,
            in_flight,
            edges,
            top_blocked,
            chain,
        }
    }

    /// The report an engine latches on the trip, read over its `view`:
    /// the wait-for edges plus the five most blocked links.
    pub(crate) fn from_view(at_cycle: u64, window: u64, in_flight: u64, view: &ArchView) -> Self {
        let mut blocked: Vec<BlockedLink> = view
            .links()
            .filter(|(_, c)| c.blocked > 0)
            .map(|(link, c)| BlockedLink {
                link: link.raw(),
                blocked: c.blocked,
            })
            .collect();
        blocked.sort_by_key(|b| (std::cmp::Reverse(b.blocked), b.link));
        blocked.truncate(5);
        StallReport::new(at_cycle, window, in_flight, view.wait_for_edges(), blocked)
    }

    /// Number of credit-starved edges.
    pub fn starved_count(&self) -> usize {
        self.edges.iter().filter(|e| e.starved()).count()
    }

    /// The blame chain's edges, in chain order.
    pub fn chain_edges(&self) -> impl Iterator<Item = &WaitEdge> {
        self.chain.iter().map(|&i| &self.edges[i])
    }

    /// Renders the human-readable blame-chain report.
    pub fn render(&self) -> String {
        let mut out = format!(
            "stall watchdog: no progress for {} cycles at cycle {} ({} packets in flight)\n",
            self.window, self.at_cycle, self.in_flight
        );
        out.push_str("blame chain:\n");
        for e in self.chain_edges() {
            out.push_str(&format!("  {}\n", render_edge(e)));
        }
        if self.chain.is_empty() {
            out.push_str("  (no waiting edges captured)\n");
        }
        out.push_str(&format!(
            "waiting edges: {} ({} credit-starved)\n",
            self.edges.len(),
            self.starved_count()
        ));
        if !self.top_blocked.is_empty() {
            out.push_str("top blocked links:");
            for b in &self.top_blocked {
                out.push_str(&format!(" link{} ({})", b.link, b.blocked));
            }
            out.push('\n');
        }
        out
    }

    /// One JSON object per line: a header, then every edge (chain
    /// position attached where applicable; `credit_cap` absent where
    /// the downstream always accepts), then the blocked links.
    pub fn to_jsonl(&self) -> String {
        let mut w = JsonWriter::new();
        w.object(|w| {
            w.field("kind", "stall").field("at_cycle", self.at_cycle);
            w.field("window", self.window)
                .field("in_flight", self.in_flight);
            w.field("edges", self.edges.len());
            w.field("starved", self.starved_count());
        })
        .line();
        for (i, e) in self.edges.iter().enumerate() {
            w.object(|w| {
                w.field("kind", "edge").field("switch", e.switch);
                w.field("in_port", e.in_port).field("in_vc", e.in_vc);
                w.field("out_port", e.out_port).field("out_vc", e.out_vc);
                w.field("link", e.link).field("occupancy", e.occupancy);
                w.field("fifo_depth", e.fifo_depth)
                    .field("credits", e.credits);
                let finite = e.credit_cap != CREDITS_INFINITE;
                w.maybe("credit_cap", finite.then_some(e.credit_cap));
                w.field("worm_open", e.worm_open)
                    .field("starved", e.starved());
                match e.dest {
                    WaitDest::Switch { switch, input } => {
                        w.field("dest_switch", switch).field("dest_input", input)
                    }
                    WaitDest::Receptor { index } => w.field("dest_receptor", index),
                };
                w.maybe("chain_pos", self.chain.iter().position(|&c| c == i));
            })
            .line();
        }
        for b in &self.top_blocked {
            w.object(|w| {
                w.field("kind", "blocked-link").field("link", b.link);
                w.field("blocked", b.blocked);
            })
            .line();
        }
        w.finish()
    }
}

fn render_edge(e: &WaitEdge) -> String {
    let cap = if e.credit_cap == CREDITS_INFINITE {
        "inf".to_string()
    } else {
        e.credit_cap.to_string()
    };
    let dest = match e.dest {
        WaitDest::Switch { switch, .. } => format!("s{switch}"),
        WaitDest::Receptor { index } => format!("tr{index} (ejection)"),
    };
    format!(
        "s{} in{}/vc{} -> out{}/vc{} link{} -> {}: credits {}/{}, fifo {}/{}{}",
        e.switch,
        e.in_port,
        e.in_vc,
        e.out_port,
        e.out_vc,
        e.link,
        dest,
        e.credits,
        cap,
        e.occupancy,
        e.fifo_depth,
        if e.worm_open { ", worm open" } else { "" }
    )
}

/// Follows the worst waiting edge downstream: the next hop is the
/// edge at the destination switch whose input (port, VC) receives
/// this edge's flits. Stops at an ejection, a missing successor, or a
/// previously visited edge (a cyclic dependency — classic deadlock).
fn blame_chain(edges: &[WaitEdge]) -> Vec<usize> {
    if edges.is_empty() {
        return Vec::new();
    }
    let mut chain = vec![0];
    let mut visited = vec![false; edges.len()];
    visited[0] = true;
    loop {
        let e = &edges[*chain.last().expect("chain starts non-empty")];
        let WaitDest::Switch { switch, input } = e.dest else {
            break;
        };
        let next = edges
            .iter()
            .position(|f| f.switch == switch && f.in_port == input && f.in_vc == e.out_vc);
        match next {
            Some(i) if !visited[i] => {
                visited[i] = true;
                chain.push(i);
            }
            _ => break,
        }
    }
    chain
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laps_are_chained_and_sum_to_the_step() {
        let mut p = PhaseProfiler::new();
        let t = p.begin_step();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let t = p.lap(t, Phase::Decide);
        let _ = p.lap(t, Phase::Commit);
        assert!(p.ns(Phase::Decide) >= 2_000_000);
        assert_eq!(p.stepped_cycles(), 1);
        let r = p.report("x");
        assert_eq!(r.total_ns, p.ns(Phase::Decide) + p.ns(Phase::Commit));
    }

    #[test]
    fn nested_time_is_carved_out_of_the_enclosing_lap() {
        let mut p = PhaseProfiler::new();
        let t = p.begin_step();
        let inner = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        p.nested(inner, Phase::Ledger);
        let _ = p.lap(t, Phase::Commit);
        assert!(p.ns(Phase::Ledger) >= 2_000_000);
        assert!(
            p.ns(Phase::Commit) < p.ns(Phase::Ledger),
            "commit keeps only the non-ledger remainder"
        );
    }

    #[test]
    fn report_sorts_shares_and_serializes() {
        let mut p = PhaseProfiler::new();
        p.stepped_cycles = 10;
        p.acc[Phase::Decide as usize] = 300;
        p.acc[Phase::Commit as usize] = 700;
        let r = p.report("unit");
        assert_eq!(r.phases[0].phase, "commit");
        assert!((r.phases[0].share - 0.7).abs() < 1e-9);
        assert!((r.phases[1].ns_per_cycle - 30.0).abs() < 1e-9);
        let json = r.to_json();
        nocem_telemetry::validate_json(&json).unwrap();
        assert!(json.contains("\"phase\":\"commit\""));
        assert!(r.render().contains("decide"));
    }

    #[test]
    fn watchdog_trips_once_after_the_window() {
        let mut w = StallWatchdog::new(StallConfig {
            no_progress_cycles: 10,
        });
        assert!(!w.observe(0, 1, 1, 0, 1));
        for c in 1..10 {
            assert!(!w.observe(c, 1, 1, 0, 1), "cycle {c}");
        }
        assert!(w.observe(10, 1, 1, 0, 1));
        w.latch(StallReport::new(10, 10, 1, Vec::new(), Vec::new()));
        assert!(!w.observe(11, 1, 1, 0, 1), "latched: never trips again");
        assert!(w.report().is_some());
    }

    #[test]
    fn watchdog_ignores_idle_and_progressing_runs() {
        let mut w = StallWatchdog::new(StallConfig {
            no_progress_cycles: 5,
        });
        // In-flight zero: an idle gap, not a stall.
        for c in 0..50 {
            assert!(!w.observe(c, 3, 3, 3, 0));
        }
        // Progress every 4 cycles: never trips.
        let mut delivered = 3;
        for c in 50..100 {
            if c % 4 == 0 {
                delivered += 1;
            }
            assert!(!w.observe(c, 9, 9, delivered, 2));
        }
    }

    fn edge(switch: u32, in_port: u32, out_vc: u8, credits: u32, dest: WaitDest) -> WaitEdge {
        WaitEdge {
            switch,
            in_port,
            in_vc: out_vc,
            out_port: 0,
            out_vc,
            link: 100 + switch,
            occupancy: 4,
            fifo_depth: 4,
            credits,
            credit_cap: 4,
            worm_open: true,
            dest,
        }
    }

    #[test]
    fn blame_chain_follows_credit_starvation_downstream() {
        let edges = vec![
            edge(
                12,
                1,
                1,
                0,
                WaitDest::Switch {
                    switch: 13,
                    input: 1,
                },
            ),
            edge(13, 1, 1, 0, WaitDest::Receptor { index: 2 }),
            edge(
                7,
                0,
                0,
                2,
                WaitDest::Switch {
                    switch: 12,
                    input: 1,
                },
            ),
        ];
        let r = StallReport::new(
            1000,
            100,
            5,
            edges,
            vec![BlockedLink {
                link: 112,
                blocked: 9,
            }],
        );
        let chain: Vec<u32> = r.chain_edges().map(|e| e.switch).collect();
        assert_eq!(
            chain,
            [12, 13],
            "starved edges sort first and chain downstream"
        );
        let text = r.render();
        assert!(text.contains("s12 in1/vc1"));
        assert!(text.contains("link112"));
        assert!(text.contains("tr2 (ejection)"));
        let jsonl = r.to_jsonl();
        for line in jsonl.lines() {
            nocem_telemetry::validate_json(line).unwrap();
        }
        let edge = concat!(
            r#"{"kind":"edge","switch":12,"in_port":1,"in_vc":1,"out_port":0,"out_vc":1,"#,
            r#""link":112,"occupancy":4,"fifo_depth":4,"credits":0,"credit_cap":4,"#,
            r#""worm_open":true,"#,
            r#""starved":true,"dest_switch":13,"dest_input":1,"chain_pos":0}"#,
        );
        assert_eq!(jsonl.lines().nth(1), Some(edge), "{jsonl}");
    }

    #[test]
    fn blame_chain_detects_cycles() {
        let edges = vec![
            edge(
                1,
                0,
                0,
                0,
                WaitDest::Switch {
                    switch: 2,
                    input: 0,
                },
            ),
            edge(
                2,
                0,
                0,
                0,
                WaitDest::Switch {
                    switch: 1,
                    input: 0,
                },
            ),
        ];
        let r = StallReport::new(0, 1, 1, edges, Vec::new());
        assert_eq!(r.chain.len(), 2, "cycle visits each edge once");
    }
}
