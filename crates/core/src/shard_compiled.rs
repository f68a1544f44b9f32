//! The sharded compiled engine: one huge topology, many worker
//! threads, bit-identical results.
//!
//! [`CompiledEngine`] steps every switch of the platform on one
//! thread; past a few hundred switches that thread is the wall-clock
//! bottleneck, and [`crate::sweep::run_sweep_indexed`], which runs the
//! items of a grid of runs in parallel, cannot help a *single* 32×32
//! run.
//! [`ShardedCompiledEngine`] partitions the switch graph into `K`
//! shards (a [`PartitionMap`]; the default is `nocem-topology`'s
//! grid-stripe partitioner, [`grid_stripes`], index stripes on a
//! non-grid) and gives each shard a persistent worker thread. A worker
//! *is* a compiled kernel (`crate::compiled::CompiledKernel`, the half
//! of [`CompiledEngine`] below the step skeleton) — the same release,
//! decide, inject and commit phases over the same flat arrays, with no
//! run-level state of its own — whose live sets only ever
//! hold the switches of its shard and the generators and receptors
//! attached to them, plus a `CommitSink` at the shard's edge: a flit
//! or credit that crosses it leaves the worker's *per-shard flit pool*
//! as a record (a real [`Flit`], re-interned into the receiver's pool
//! on arrival) instead of touching a neighbour's arrays, and a
//! completed packet is buffered for the coordinator, which owns the
//! one [`PacketLedger`].
//!
//! The coordinator is a [`CycleKernel`]: the one step skeleton of
//! [`crate::clock`] gates, probes, feeds the stall watchdog and checks
//! the cycle limit for it exactly as for the single-threaded engines,
//! and its "cycle" applies one buffered row (issuing a window first
//! when none is buffered). So it implements the full
//! [`SteppableEngine`] contract (run loops, sweeps and lockstep
//! harnesses drive it unchanged) and produces complete
//! [`EmulationResults`]; it does not expose the memory-mapped bus
//! ([`crate::engine::Emulation`] remains the register-programming
//! target) and does not record traces.
//!
//! # The batched-exchange protocol
//!
//! Boundary traffic itself cannot be deferred: a lowered link has
//! exactly one cycle of latency, so a flit popped at cycle `u` must be
//! observable by the downstream switch's *decide* at `u + 1`, and its
//! credit by the upstream allocator at `u + 1`. Delaying either to a
//! window boundary would change arbitration and diverge from
//! [`CompiledEngine`]. What *can* be amortized is every coordinator
//! round trip. So the protocol splits the two:
//!
//! * **Per cycle, point to point:** each worker sends exactly one
//!   message per neighbouring shard carrying the cycle's outbound
//!   boundary records — `(destination switch, slot, vc, flit)` for
//!   flits, upstream output-slot indices for credits — and then
//!   blocks on exactly one message per in-neighbour, replaying it
//!   before computing its end-of-cycle status. Empty messages still
//!   flow: they are the clock marker that keeps neighbours in
//!   lockstep without any global barrier.
//! * **Per window of `batch` cycles, through the coordinator:** the
//!   coordinator issues one `Window` command, each worker runs up to
//!   `batch` cycles buffering its per-cycle ledger events (releases,
//!   injections, deliveries, stall counts, status), and replies once.
//!   The coordinator then *replays the buffered cycles in order*, one
//!   per [`SteppableEngine::step`] call, keeping per-cycle
//!   lockstep observability while paying the two-way channel
//!   synchronization only once per window — a ~`batch`× reduction,
//!   measured by [`ShardedCompiledEngine::sync_rounds`].
//!
//! `batch = 1` is therefore a per-cycle exchange protocol: one
//! synchronization round per cycle.
//!
//! # Why replay is deterministic
//!
//! Within one cycle, every boundary interaction commutes:
//!
//! * An arriving flit lands in a FIFO the receiver never pops in the
//!   same cycle it arrives (one-cycle link latency), so arrival order
//!   across neighbours cannot change receiver state — except the
//!   per-VC occupancy watermark, which depends on whether the
//!   reference engine pushed before or after the receiver's own pop.
//!   That order is recovered exactly from the global switch ids the
//!   records carry (the reference commits switches in ascending id
//!   order), so the watermark is corrected deterministically.
//! * At most one credit per output slot can return per cycle, so
//!   credit replays touch disjoint slots and end-of-cycle credit
//!   counts are order-independent.
//!
//! # Packet ids without a coordinator round trip
//!
//! Workers cannot know the platform-wide packet id at release time
//! (that would need a cross-shard prefix sum every cycle). Instead a
//! worker stamps each released packet with a *provisional* id —
//! shard index and local sequence packed into the id's high bits —
//! which rides inside every flit of the packet. When the coordinator
//! replays a buffered cycle it assigns the final ids in the
//! single-threaded engine's order (releases ascending by generator
//! index) and remaps provisional → final at the ledger boundary, so
//! the [`PacketLedger`] is bit-identical to the compiled engine's.
//!
//! # Gating
//!
//! Hybrid clock gating (see [`crate::clock`]) extends to shards with a
//! **cross-shard event horizon**: each worker reports, per cycle,
//! whether its shard is locally quiescent and the earliest future
//! event of its TGs. The coordinator may fast-forward only when
//! *every* shard is quiescent and the ledger carries no in-flight
//! packet, and only up to the minimum next-event over all shards
//! (clamped to the cycle limit) — a shard never skips past another
//! shard's horizon. The decision is taken per *applied* cycle, so it
//! composes with any batch: workers run their whole window regardless,
//! and a cycle executed on a quiescent platform below every horizon is
//! a state no-op on every worker (live sets empty, deferred TGs
//! untouched). The buffered rows a jump passes are such *speculative
//! idle cycles* and are discarded — at most `batch − 1` per jump,
//! counted in `WorkCounters::speculative_rows`. A jump past the end of
//! the buffer costs the workers nothing: they are simply told the next
//! cycle to execute, and each TG replays the skipped window lazily
//! before its next real tick, as in [`CompiledEngine`]. A jump stops
//! short of a buffered row that carries a worker fault, so the fault
//! surfaces on its own cycle.
//!
//! # Stall forensics
//!
//! The stall watchdog needs the wait-for edges of the cycle it trips
//! on, but workers run up to a window ahead of the coordinator. So no
//! window runs past the earliest cycle the watchdog could trip —
//! its last progress cycle plus its no-progress window, which later
//! progress only moves out. A trip therefore always lands on a
//! window's last row: the buffer is empty, every worker stands on the
//! coordinator's cycle, and the view gathered there yields the report
//! [`CompiledEngine`] latches. Without a watchdog there is no such
//! cap. Anyone else reading the view mid-window gets
//! [`EmulationError::MidWindow`], unless the platform has drained
//! (then no cycle changes it); windows end at multiples of the batch.

use crate::clock::{CycleKernel, RunState, SteppableEngine};
use crate::compile::{
    elaborate, elaborate_routed, Elaboration, LoweredOutDest, OutTarget, HANDLE_IDX,
};
#[cfg(doc)]
use crate::compiled::CompiledEngine;
use crate::compiled::{CommitSink, CompiledKernel};
use crate::config::PlatformConfig;
use crate::error::{CompileError, EmulationError};
use crate::profile::{lap, Phase, PhaseProfiler, PhaseReport, StallWatchdog};
use crate::results::{EmulationResults, ReceptorSummary};
use crate::view::ArchView;
use nocem_common::flit::Flit;
use nocem_common::ids::{PacketId, SwitchId};
use nocem_common::time::Cycle;
use nocem_stats::latency::LatencyAnalyzer;
use nocem_stats::ledger::PacketLedger;
use nocem_stats::receptor::{CompletedPacket, Receptor};
use nocem_topology::partition::{grid_stripes, PartitionMap};
use nocem_topology::routing::RoutingTables;
use nocem_traffic::trace::TraceDrivenTg;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::Instant;

/// The cycles-per-synchronization batch for callers with no reason to
/// pick their own (the scenario matrix's `shards` axis, the curve
/// bin), gated or not — the value the batched `BENCH_*.json` rows were
/// measured at.
pub const DEFAULT_BATCH: u64 = 16;

/// Provisional packet ids carry this flag plus the shard in bits
/// 48..63 and a shard-local sequence below — far above any id the
/// coordinator will ever assign, so the two spaces never collide. A
/// worker's engine simply starts counting its ids from here.
fn first_provisional_id(shard: usize) -> u64 {
    (1 << 63) | ((shard as u64) << 48)
}

/// One cross-shard flit: enough to re-intern and land it downstream,
/// plus the popping switch's id for the watermark order correction.
struct FlitRec {
    /// Global id of the switch that popped the flit (the upstream).
    from_switch: u32,
    /// Global id of the landing switch.
    switch: u32,
    /// The landing input port's slot base in the receiver's arrays.
    slot_base: u32,
    /// Output VC the allocation chose (= landing input VC).
    vc: u8,
    flit: Flit,
}

/// One cycle's boundary records from one shard to one neighbour.
/// Empty messages still flow every cycle — the clock marker.
struct NeighborMsg {
    cycle: u64,
    flits: Vec<FlitRec>,
    /// Global output-slot indices to credit, one entry per credit.
    credits: Vec<u32>,
}

/// One released packet, identified provisionally.
struct ReleaseRec {
    /// Global generator index — the single-threaded id-assignment key.
    gidx: u32,
    prov: PacketId,
    len_flits: u16,
}

/// One delivered packet, tagged with the single-threaded commit-order
/// key (ejecting switch, output port).
struct DeliveryRec {
    switch: u32,
    port: u8,
    receptor: u32,
    prov: PacketId,
    len_flits: u16,
}

/// Everything the coordinator needs to replay one buffered cycle.
struct CycleEntry {
    releases: Vec<ReleaseRec>,
    injects: Vec<PacketId>,
    deliveries: Vec<DeliveryRec>,
    stalled_delta: u64,
    status: ShardStatus,
    error: Option<EmulationError>,
}

impl CycleEntry {
    fn new() -> Self {
        CycleEntry {
            releases: Vec::new(),
            injects: Vec::new(),
            deliveries: Vec::new(),
            stalled_delta: 0,
            status: conservative_status(),
            error: None,
        }
    }
}

/// Per-cycle shard status, cached by the coordinator for the stop
/// condition and the gating decision of the *next* step.
#[derive(Debug, Clone, Copy)]
struct ShardStatus {
    /// Local half of the platform quiescence predicate: no parked TG
    /// request, every NI idle with credits home, every switch
    /// quiescent.
    quiescent: bool,
    /// Earliest future event over this shard's TGs, evaluated at the
    /// cycle the next step will execute (`u64::MAX` = never).
    next_event: u64,
    /// All TGs exhausted.
    exhausted: bool,
    /// No parked TG request.
    pending_none: bool,
    /// Every NI idle.
    nis_idle: bool,
}

/// The status a dead or erroring shard reports: never quiescent,
/// never exhausted, no known next event — gating and stop decisions
/// stay safe.
fn conservative_status() -> ShardStatus {
    ShardStatus {
        quiescent: false,
        next_event: u64::MAX,
        exhausted: false,
        pending_none: false,
        nis_idle: false,
    }
}

/// Renders a worker panic as a shard fault the coordinator can return
/// (the alternative — letting the worker unwind mid-window — would
/// strand its neighbours on a boundary receive and hang the engine).
/// Pass the payload itself (`&*boxed`): a `&Box<dyn Any>` coerces to a
/// `dyn Any` of the *box*, which downcasts to neither string type.
fn panic_fault(shard: usize, payload: &(dyn std::any::Any + Send)) -> EmulationError {
    let msg = payload
        .downcast_ref::<&str>()
        .copied()
        .map(str::to_owned)
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into());
    EmulationError::Shard {
        shard,
        reason: format!("worker panicked: {msg}"),
    }
}

/// Commands the coordinator sends to every worker.
#[derive(Clone, Copy)]
enum Cmd {
    /// Execute `len` cycles starting at `start` (past any clock-gated
    /// jump the coordinator took), buffering boundary records per
    /// cycle and ledger events per window.
    Window { start: Cycle, len: u64 },
    /// Report the shard's receptors.
    Collect,
    /// Report the shard's architectural-state view.
    View,
    /// Report the shard's phase accumulators. Only sent when
    /// profiling is configured.
    Profile,
    /// Exit the worker loop.
    Shutdown,
}

enum Report {
    /// Sent unprompted once the worker's kernel is built.
    Status(ShardStatus),
    Window(Vec<CycleEntry>),
    /// `(global receptor index, receptor clone)` per owned receptor.
    Receptors(Vec<(usize, Receptor)>),
    /// The worker's whole view; only its owned rows are read.
    View(Box<ArchView>),
    /// A copy, not a drain: the worker keeps accumulating, so the
    /// coordinator may ask again later in the run.
    Profile(Box<PhaseProfiler>),
}

/// One persistent worker: a full-shape [`CompiledKernel`] (built from
/// the worker's own deterministic re-elaboration of the config, so
/// every RNG stream matches the reference by construction) whose
/// non-owned generators are empty, so only the owned slice ever enters
/// its live sets; non-owned rows never move. The engine's profiler holds
/// the worker-side phase accumulators (owned-slice compute vs. boundary
/// exchange) and work counters.
struct Worker {
    eng: CompiledKernel,
    view: ArchView,
    boundary: Boundary,
    /// Owned global receptor indices, ascending.
    my_receptors: Vec<usize>,
    out_txs: Vec<Sender<NeighborMsg>>,
    in_rxs: Vec<Receiver<NeighborMsg>>,
    /// A cycle errored or panicked: keep the per-cycle message cadence
    /// (empty sends, discarding receives) so neighbours never block,
    /// but step nothing further.
    dead: bool,
    /// Fault injection: panic computing this cycle.
    #[cfg(test)]
    fault: Option<u64>,
    cmd_rx: Receiver<Cmd>,
    rep_tx: Sender<Report>,
}

/// The edge of one shard's slice, as the engine's commit sees it: who
/// owns what, and this cycle's records of everything that crossed.
struct Boundary {
    shard: usize,
    /// Per global switch: owning shard.
    switch_shard: Vec<u16>,
    /// Per global output slot: owning shard.
    out_slot_shard: Vec<u16>,
    /// Per global input slot: `cycle + 1` of this slot's most recent
    /// own pop — the watermark order correction for replayed arrivals.
    last_pop: Vec<u64>,
    /// Per shard id: its index in the neighbour lists
    /// (`usize::MAX` = not a neighbour).
    nbr_slot: Vec<usize>,
    /// Per out-neighbour: this cycle's buffered records.
    out_flits: Vec<Vec<FlitRec>>,
    out_credits: Vec<Vec<u32>>,
    /// This cycle's completed packets, in commit order.
    deliveries: Vec<DeliveryRec>,
}

/// What [`CompiledKernel::commit_phase`] does differently on a shard:
/// a credit owed to a remote upstream becomes a credit record, a flit
/// landing on a remote switch leaves the local pool and becomes a flit
/// record, and a completed packet is buffered for the coordinator's
/// ledger under its commit-order key (ejecting switch, output port).
impl CommitSink for Boundary {
    #[inline]
    fn popped(&mut self, islot: usize, now: Cycle) {
        self.last_pop[islot] = now.raw() + 1;
    }

    #[inline]
    fn take_credit(&mut self, up: usize) -> bool {
        let owner = self.out_slot_shard[up] as usize;
        if owner == self.shard {
            return false;
        }
        self.out_credits[self.nbr_slot[owner]].push(up as u32);
        true
    }

    #[inline]
    fn take_flit(
        &mut self,
        eng: &mut CompiledKernel,
        from: usize,
        switch: u32,
        slot_base: u32,
        h: u32,
        vc: usize,
    ) -> bool {
        let owner = self.switch_shard[switch as usize] as usize;
        if owner == self.shard {
            return false;
        }
        let idx = h & HANDLE_IDX;
        let flit = eng.flit_pool[idx as usize];
        eng.flit_free.push(idx);
        self.out_flits[self.nbr_slot[owner]].push(FlitRec {
            from_switch: from as u32,
            switch,
            slot_base,
            vc: vc as u8,
            flit,
        });
        true
    }

    #[inline]
    fn delivered(
        &mut self,
        _: &mut CompiledKernel,
        from: usize,
        port: usize,
        receptor: usize,
        pkt: CompletedPacket,
        _: Cycle,
    ) -> Result<(), EmulationError> {
        self.deliveries.push(DeliveryRec {
            switch: from as u32,
            port: port as u8,
            receptor: receptor as u32,
            prov: pkt.id,
            len_flits: pkt.len_flits,
        });
        Ok(())
    }
}

impl Worker {
    /// Reports the shard's status once the kernel is built — the
    /// gating and stop predicates of the coordinator's first step —
    /// then answers one report per command.
    fn run(mut self) {
        let mut report = Report::Status(self.status());
        while self.rep_tx.send(report).is_ok() {
            report = match self.cmd_rx.recv() {
                Ok(Cmd::Window { start, len }) => Report::Window(self.window(start, len)),
                Ok(Cmd::Collect) => Report::Receptors(self.receptors()),
                Ok(Cmd::View) => {
                    self.eng.read_view(&mut self.view);
                    Report::View(Box::new(self.view.clone()))
                }
                Ok(Cmd::Profile) => {
                    Report::Profile(Box::new(self.eng.profiler.clone().unwrap_or_default()))
                }
                Ok(Cmd::Shutdown) | Err(_) => return,
            };
        }
    }

    /// Executes one window: per cycle, compute the owned slice, send
    /// one boundary message per neighbour, receive and replay one per
    /// in-neighbour, then record the end-of-cycle status.
    fn window(&mut self, start: Cycle, len: u64) -> Vec<CycleEntry> {
        let mut entries = Vec::with_capacity(len as usize);
        for j in 0..len {
            let now = Cycle::new(start.raw() + j);
            if self.dead {
                self.cadence(now);
                entries.push(CycleEntry::new());
                continue;
            }
            let mut entry = CycleEntry::new();
            let mut t = self.eng.profiler.as_mut().map(|p| {
                p.add_cycles(1);
                p.begin()
            });
            let computed = catch_unwind(AssertUnwindSafe(|| self.compute_cycle(now, &mut entry)));
            match computed {
                Ok(Ok(())) => {}
                Ok(Err(e)) => entry.error = Some(e),
                Err(payload) => entry.error = Some(panic_fault(self.boundary.shard, &*payload)),
            }
            lap(self.eng.profiler.as_mut(), &mut t, Phase::WorkerCompute);
            // The exchange section: everything from here to the end of
            // replay is boundary synchronization, not compute.
            // One message per neighbour per cycle, no matter what —
            // possibly partial on error, the cadence is what matters.
            self.send_bufs(now);
            if entry.error.is_none() {
                let replayed = catch_unwind(AssertUnwindSafe(|| self.recv_replay(now)));
                match replayed {
                    Ok(Ok(())) => entry.status = self.status(),
                    Ok(Err(e)) => entry.error = Some(e),
                    Err(payload) => entry.error = Some(panic_fault(self.boundary.shard, &*payload)),
                }
            } else {
                self.recv_discard();
            }
            lap(self.eng.profiler.as_mut(), &mut t, Phase::Exchange);
            if entry.error.is_some() {
                self.dead = true;
            }
            entries.push(entry);
        }
        entries
    }

    /// The per-cycle message cadence of a dead shard: empty sends,
    /// discarding receives. Neighbours observe only the absence of
    /// boundary traffic, which is always a legal cycle for them.
    fn cadence(&mut self, now: Cycle) {
        for buf in &mut self.boundary.out_flits {
            buf.clear();
        }
        for buf in &mut self.boundary.out_credits {
            buf.clear();
        }
        self.send_bufs(now);
        self.recv_discard();
    }

    fn send_bufs(&mut self, now: Cycle) {
        for (nb, tx) in self.out_txs.iter().enumerate() {
            let msg = NeighborMsg {
                cycle: now.raw(),
                flits: std::mem::take(&mut self.boundary.out_flits[nb]),
                credits: std::mem::take(&mut self.boundary.out_credits[nb]),
            };
            // A closed channel means the peer is gone; our own recv
            // will surface the fault.
            let _ = tx.send(msg);
        }
    }

    fn recv_discard(&mut self) {
        for k in 0..self.in_rxs.len() {
            let _ = self.in_rxs[k].recv();
        }
    }

    /// One compiled cycle over the owned slice — the kernel's own
    /// phases over its live sets (which only ever hold owned
    /// generators, NIs and switches), with ledger events buffered
    /// instead of applied and the shard boundary as the commit's sink.
    /// Everything around the cycle is the coordinator's job.
    fn compute_cycle(&mut self, now: Cycle, entry: &mut CycleEntry) -> Result<(), EmulationError> {
        #[cfg(test)]
        assert_ne!(
            Some(now.raw()),
            self.fault,
            "injected fault at cycle {}",
            now.raw()
        );
        let stalled = self.eng.stalled;
        self.eng.release_phase(now, |_, gidx, prov, len_flits| {
            entry.releases.push(ReleaseRec {
                gidx: gidx as u32,
                prov,
                len_flits,
            });
            Ok(())
        })?;
        entry.stalled_delta = self.eng.stalled - stalled;
        self.eng.decide_phase();
        self.eng.inject_phase(|_, prov| {
            entry.injects.push(prov);
            Ok(())
        })?;

        // The shard's switches commit in ascending global order — the
        // reference order within this slice. The cross-shard
        // interleaving is recovered at replay.
        self.eng.commit_phase(now, &mut self.boundary)?;
        entry.deliveries = std::mem::take(&mut self.boundary.deliveries);
        Ok(())
    }

    /// Receives one boundary message per in-neighbour and replays it:
    /// re-intern and land every flit (with the deterministic watermark
    /// correction), return every credit.
    fn recv_replay(&mut self, now: Cycle) -> Result<(), EmulationError> {
        let vcs = self.eng.low.num_vcs;
        for k in 0..self.in_rxs.len() {
            let msg = self.in_rxs[k].recv().map_err(|_| EmulationError::Shard {
                shard: self.boundary.shard,
                reason: "a neighbour shard hung up mid-window".into(),
            })?;
            debug_assert_eq!(
                msg.cycle,
                now.raw(),
                "boundary messages arrive in cycle order"
            );
            for rec in msg.flits {
                let slot = rec.slot_base as usize + rec.vc as usize;
                let popped_here = self.boundary.last_pop[slot] == now.raw() + 1;
                let h = self.eng.intern(rec.flit);
                self.eng
                    .accept_flit(rec.switch as usize, rec.slot_base, h, rec.vc as usize)?;
                // Watermark order correction: the reference engine
                // commits switches ascending, so when the upstream's
                // id is below ours it pushed *before* our own pop and
                // saw this FIFO one deeper than the replay does.
                if rec.from_switch < rec.switch && popped_here {
                    let wm = rec.switch as usize * vcs + rec.vc as usize;
                    let occ = u64::from(self.eng.low.in_state[slot].len) + 1;
                    if occ > self.eng.max_vc_occ[wm] {
                        self.eng.max_vc_occ[wm] = occ;
                    }
                }
            }
            for up in msg.credits {
                self.eng.return_credit(up as usize);
            }
        }
        Ok(())
    }

    /// End-of-cycle status of the owned slice, straight from the
    /// engine's live-set aggregates: they only ever reflect owned rows,
    /// so they are exactly the shard-local half of the platform
    /// quiescence and stop predicates.
    fn status(&self) -> ShardStatus {
        ShardStatus {
            quiescent: self.eng.network_idle(),
            next_event: self.eng.tg_min_next,
            exhausted: self.eng.exhausted == self.eng.tgs.len(),
            pending_none: self.eng.tg_parked.is_empty(),
            nis_idle: self.eng.nis_idle(),
        }
    }

    fn receptors(&self) -> Vec<(usize, Receptor)> {
        let owned = self.my_receptors.iter();
        owned.map(|&i| (i, self.eng.receptors[i].clone())).collect()
    }
}

struct WorkerHandle {
    cmd: Sender<Cmd>,
    rep: Receiver<Report>,
    join: Option<JoinHandle<()>>,
}

/// The sharded compiled engine.
///
/// Construct with [`ShardedCompiledEngine::with_shards`] (grid-stripe
/// partitioning; what [`crate::sweep::AnyEngine`] builds for a
/// `ShardedCompiled` engine kind at two or more shards) or
/// [`ShardedCompiledEngine::with_partition`] for an explicit
/// [`PartitionMap`]. Drive it through [`SteppableEngine`] or
/// [`ShardedCompiledEngine::run`]; collect full results with
/// [`ShardedCompiledEngine::results`].
///
/// Results are bit-identical to [`CompiledEngine`] (and hence
/// [`crate::engine::Emulation`]) on the same configuration: same packet ids,
/// same per-packet release / injection / delivery cycles, same
/// ledger, same statistics, same telemetry — for every `batch`.
pub struct ShardedCompiledEngine {
    config: PlatformConfig,
    run: RunState,
    workers: Vec<WorkerHandle>,
    /// Per shard: its status after the last applied cycle — before the
    /// first, the one its worker reported once built.
    status: Vec<ShardStatus>,
    partition: PartitionMap,
    batch: u64,
    /// Coordinator synchronization rounds (one window command + one
    /// report per worker each) issued so far.
    sync_rounds: u64,
    ledger: PacketLedger,
    receptor_latency: Vec<LatencyAnalyzer>,
    next_packet: u64,
    stalled: u64,
    delivered_flits: u64,
    /// Provisional → final id for every in-flight packet.
    prov_map: HashMap<PacketId, PacketId>,
    /// Executed-but-unapplied cycles: front = next to apply, each row
    /// holds one [`CycleEntry`] per shard.
    window: VecDeque<Vec<CycleEntry>>,
    poisoned: bool,
    failed: bool,
    /// Coordinator-side phase accumulators, when profiling is on.
    profiler: Option<PhaseProfiler>,
    /// The view the workers' owned rows are copied into.
    view: ArchView,
}

impl std::fmt::Debug for ShardedCompiledEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCompiledEngine")
            .field("name", &self.config.name)
            .field("shards", &self.workers.len())
            .field("batch", &self.batch)
            .field("cycle", &self.run.now)
            .field("delivered", &self.ledger.delivered())
            .finish_non_exhaustive()
    }
}

impl ShardedCompiledEngine {
    /// Compiles `config` into exactly `shards` grid stripes stepping
    /// `batch` cycles per synchronization round.
    ///
    /// # Errors
    ///
    /// Propagates [`CompileError`] from elaboration or partitioning.
    pub fn with_shards(
        config: &PlatformConfig,
        shards: usize,
        batch: u64,
    ) -> Result<Self, CompileError> {
        Self::from_elaboration(elaborate(config)?, shards, batch)
    }

    /// Shards a pre-built elaboration into `shards` grid stripes —
    /// the reuse hook for callers that elaborate once and run many
    /// engine variants.
    ///
    /// # Errors
    ///
    /// Propagates [`CompileError::Partition`] from the partitioner.
    pub fn from_elaboration(
        elab: Elaboration,
        shards: usize,
        batch: u64,
    ) -> Result<Self, CompileError> {
        let map =
            grid_stripes(&elab.config.topology, shards).map_err(|e| CompileError::Partition {
                reason: e.to_string(),
            })?;
        Self::with_partition(elab, map, batch)
    }

    /// Wraps an elaboration into a sharded compiled engine using an
    /// explicit partition map. A `batch` of 0 is treated as 1.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::Partition`] if `map` does not cover the
    /// elaboration's topology.
    pub fn with_partition(
        elab: Elaboration,
        map: PartitionMap,
        batch: u64,
    ) -> Result<Self, CompileError> {
        let (have, want) = (map.switch_count(), elab.config.topology.switch_count());
        if have != want {
            let reason = format!("the partition map covers {have} switches, not {want}");
            return Err(CompileError::Partition { reason });
        }
        let batch = batch.max(1);
        let shards = map.shards();
        let topo = &elab.config.topology;

        // Undirected shard adjacency: any boundary crossing in either
        // direction makes the pair neighbours, because flits cross one
        // way and their credits cross back the other.
        let mut nbrs: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); shards];
        for s in 0..topo.switch_count() {
            let a = map.shard_of(SwitchId::new(s as u32));
            for target in &elab.wiring.out_target[s] {
                if let OutTarget::Switch { switch, .. } = *target {
                    let b = map.shard_of(SwitchId::new(switch as u32));
                    if a != b {
                        nbrs[a].insert(b);
                        nbrs[b].insert(a);
                    }
                }
            }
        }
        let nbr_lists: Vec<Vec<usize>> = nbrs.iter().map(|s| s.iter().copied().collect()).collect();
        // One unbounded channel per directed neighbour pair; position
        // j in shard a's lists is its j-th neighbour ascending.
        let mut txs: Vec<Vec<Sender<NeighborMsg>>> = nbr_lists
            .iter()
            .map(|l| Vec::with_capacity(l.len()))
            .collect();
        let mut rxs: Vec<Vec<Option<Receiver<NeighborMsg>>>> = nbr_lists
            .iter()
            .map(|l| l.iter().map(|_| None).collect())
            .collect();
        for a in 0..shards {
            for &b in &nbr_lists[a] {
                let (tx, rx) = mpsc::channel();
                txs[a].push(tx);
                let slot = nbr_lists[b]
                    .iter()
                    .position(|&x| x == a)
                    .expect("neighbour relation is symmetric");
                rxs[b][slot] = Some(rx);
            }
        }

        let profiler = elab.profiler();
        let receptor_count = topo.receptors().len();
        let view = ArchView::new(&elab);
        let config = elab.config.clone();
        let routing = elab.routing.clone();

        let mut handles = Vec::with_capacity(shards);
        let mut txs = txs.into_iter();
        let mut rxs = rxs.into_iter();
        for (k, nbr_list) in nbr_lists.iter().enumerate() {
            let (cmd_tx, cmd_rx) = mpsc::channel();
            let (rep_tx, rep_rx) = mpsc::channel();
            let worker_config = config.clone();
            let worker_routing = routing.clone();
            let worker_map = map.clone();
            let nbr_list = nbr_list.clone();
            let out_txs = txs.next().expect("one tx list per shard");
            let in_rxs: Vec<Receiver<NeighborMsg>> = rxs
                .next()
                .expect("one rx list per shard")
                .into_iter()
                .map(|r| r.expect("every neighbour channel wired"))
                .collect();
            #[cfg(test)]
            let fault = tests::fault_for(k);
            let join = std::thread::Builder::new()
                .name(format!("nocem-cshard-{k}"))
                .spawn(move || {
                    #[allow(unused_mut)]
                    let mut worker = spawn_worker(
                        k,
                        &worker_config,
                        worker_routing,
                        &worker_map,
                        nbr_list,
                        out_txs,
                        in_rxs,
                        cmd_rx,
                        rep_tx,
                    );
                    #[cfg(test)]
                    (worker.fault = fault);
                    worker.run()
                })
                .expect("spawn sharded-compiled worker");
            handles.push(WorkerHandle {
                cmd: cmd_tx,
                rep: rep_rx,
                join: Some(join),
            });
        }

        let mut engine = ShardedCompiledEngine {
            run: RunState::new(&config),
            config,
            workers: handles,
            status: Vec::new(),
            partition: map,
            batch,
            sync_rounds: 0,
            ledger: PacketLedger::new(),
            receptor_latency: vec![LatencyAnalyzer::new(); receptor_count],
            next_packet: 0,
            stalled: 0,
            delivered_flits: 0,
            prov_map: HashMap::new(),
            window: VecDeque::new(),
            poisoned: false,
            failed: false,
            profiler,
            view,
        };
        // A worker that panics coming up re-raises its panic here.
        engine.status = engine
            .replies(|r| match r {
                Report::Status(s) => Some(s),
                _ => None,
            })
            .expect("every worker reports its status once built");
        Ok(engine)
    }

    /// The cycles-per-synchronization batch.
    pub fn batch(&self) -> u64 {
        self.batch
    }

    /// Coordinator synchronization rounds issued so far — one window
    /// command plus one report per worker each. With `batch = 1` this
    /// equals the executed cycle count (the per-cycle exchange
    /// protocol); with larger batches it shrinks ~`batch`×.
    pub fn sync_rounds(&self) -> u64 {
        self.sync_rounds
    }

    /// The partition this engine runs on.
    pub fn partition(&self) -> &PartitionMap {
        &self.partition
    }

    /// The packet ledger (read access for tests and reports).
    pub fn ledger(&self) -> &PacketLedger {
        &self.ledger
    }

    /// Whether the whole platform is quiescent: every shard locally
    /// quiescent and no packet in flight.
    pub fn is_quiescent(&self) -> bool {
        self.ledger.in_flight() == 0 && self.status.iter().all(|s| s.quiescent)
    }

    /// After any error the workers' state is ahead of (or torn against)
    /// the coordinator's; nothing read from them can be trusted.
    fn check_alive(&self) -> Result<(), EmulationError> {
        if self.failed {
            return Err(EmulationError::Shard {
                shard: usize::MAX,
                reason: "engine already failed; state is inconsistent".into(),
            });
        }
        Ok(())
    }

    /// Issues one window from the coordinator's cycle and buffers every
    /// worker's cycle entries. `t` is the coordinator's chained
    /// profiling timestamp (`None` when profiling is off).
    fn start_window(&mut self, t: &mut Option<Instant>) -> Result<(), EmulationError> {
        let start = self.run.now;
        let len = self.window_len(start);
        self.broadcast(Cmd::Window { start, len })?;
        let per_shard = self.replies(|r| match r {
            Report::Window(entries) if entries.len() == len as usize => Some(entries),
            _ => None,
        })?;
        self.sync_rounds += 1;
        let mut rows: Vec<Vec<CycleEntry>> = (0..len)
            .map(|_| Vec::with_capacity(self.workers.len()))
            .collect();
        for entries in per_shard {
            for (j, e) in entries.into_iter().enumerate() {
                rows[j].push(e);
            }
        }
        self.window.extend(rows);
        lap(self.profiler.as_mut(), t, Phase::CoordWait);
        Ok(())
    }

    /// The next window's length: up to the next multiple of `batch` —
    /// so the engine stands on a readable cycle at every multiple of
    /// its batch — shortened so that no worker ever executes a cycle
    /// the coordinator would not reach, nor runs past a cycle at which
    /// the skeleton reads worker state.
    fn window_len(&self, start: Cycle) -> u64 {
        let mut len = self.batch - start.raw() % self.batch;
        // Delivered-target cap: each receptor completes at most one
        // packet per cycle (its ejection port forwards at most one
        // flit), so ceil(remaining / receptors) cycles cannot pass the
        // target before the window's last cycle — zero overshoot.
        if let Some(target) = self.run.stop.delivered_packets {
            let remaining = target.saturating_sub(self.ledger.delivered());
            let receptors = self.receptor_latency.len() as u64;
            if remaining > 0 && receptors > 0 {
                len = len.min(1 + (remaining - 1) / receptors);
            }
        }
        // Cycle-limit cap: executing cycle `limit` is what raises the
        // limit error, so it is the last cycle worth executing.
        let limit = self.run.stop.cycle_limit;
        if start.raw() <= limit {
            len = len.min(limit - start.raw() + 1);
        } else {
            len = 1;
        }
        // Telemetry cap: windows never cross a probe boundary, so a
        // probe always observes worker state at the coordinator's
        // cycle.
        if let Some(t) = &self.run.telemetry {
            for j in 1..len {
                if t.needs_probe(start.raw() + j) {
                    len = j;
                    break;
                }
            }
        }
        // Watchdog cap: a trip must find the workers on the
        // coordinator's cycle (module docs, stall forensics).
        let dog = self.run.watchdog.as_ref();
        if let Some(trip) = dog.and_then(StallWatchdog::earliest_trip) {
            len = len.min(trip.saturating_sub(start.raw()) + 1);
        }
        len.max(1)
    }

    /// Applies the oldest buffered cycle to the coordinator state in
    /// the single-threaded engine's event order: releases ascending by
    /// generator index (id assignment), then injections, then
    /// deliveries ascending by (ejecting switch, output port).
    fn apply_cycle(&mut self) -> Result<(), EmulationError> {
        let row = self.window.pop_front().expect("a window was just started");
        let now = self.run.now;
        let mut first_error: Option<EmulationError> = None;
        let mut releases: Vec<ReleaseRec> = Vec::new();
        let mut injects: Vec<PacketId> = Vec::new();
        let mut deliveries: Vec<DeliveryRec> = Vec::new();
        for (k, mut e) in row.into_iter().enumerate() {
            if let Some(err) = e.error.take() {
                first_error.get_or_insert(err);
            }
            releases.append(&mut e.releases);
            injects.append(&mut e.injects);
            deliveries.append(&mut e.deliveries);
            self.stalled += e.stalled_delta;
            self.status[k] = e.status;
        }
        if let Some(e) = first_error {
            return Err(self.fail(e));
        }
        releases.sort_by_key(|r| r.gidx);
        for r in releases {
            let id = PacketId::new(self.next_packet);
            self.next_packet += 1;
            self.prov_map.insert(r.prov, id);
            self.ledger
                .release(id, now, r.len_flits)
                .map_err(|e| self.fail(e.into()))?;
        }
        for prov in injects {
            let id = *self
                .prov_map
                .get(&prov)
                .expect("a packet is released before it injects");
            self.ledger
                .inject(id, now)
                .map_err(|e| self.fail(e.into()))?;
        }
        deliveries.sort_by_key(|d| (d.switch, d.port));
        for d in deliveries {
            let id = self
                .prov_map
                .remove(&d.prov)
                .expect("a packet is released before it delivers");
            let lat = self
                .ledger
                .deliver(id, now, d.len_flits)
                .map_err(|e| self.fail(e.into()))?;
            self.delivered_flits += u64::from(d.len_flits);
            self.receptor_latency[d.receptor as usize].record(lat.network);
        }
        Ok(())
    }

    /// Poisons the engine: nothing buffered is applied after `e`.
    fn fail(&mut self, e: EmulationError) -> EmulationError {
        self.failed = true;
        self.window.clear();
        e
    }

    /// Sends `cmd` to every worker.
    fn broadcast(&mut self, cmd: Cmd) -> Result<(), EmulationError> {
        for k in 0..self.workers.len() {
            if self.workers[k].cmd.send(cmd).is_err() {
                return Err(self.worker_died(k));
            }
        }
        Ok(())
    }

    /// One report per worker, in shard order, each unwrapped by `pick`
    /// (`None` = not the report expected).
    fn replies<T>(&mut self, pick: impl Fn(Report) -> Option<T>) -> Result<Vec<T>, EmulationError> {
        let mut out = Vec::with_capacity(self.workers.len());
        for k in 0..self.workers.len() {
            match self.workers[k].rep.recv().ok().and_then(&pick) {
                Some(v) => out.push(v),
                None => return Err(self.worker_died(k)),
            }
        }
        Ok(out)
    }

    /// Asks every worker `cmd` and collects the picked replies. Only
    /// meaningful between windows — worker state then equals the
    /// compiled engine's end-of-cycle state at the coordinator's cycle
    /// — and refused once the engine has failed.
    fn ask<T>(
        &mut self,
        cmd: Cmd,
        pick: impl Fn(Report) -> Option<T>,
    ) -> Result<Vec<T>, EmulationError> {
        self.check_alive()?;
        self.broadcast(cmd)?;
        self.replies(pick)
    }

    /// Every worker's phase accumulators, in shard order; none after a
    /// failure (dead workers cannot be queried).
    fn worker_profiles(&mut self) -> Vec<PhaseProfiler> {
        self.ask(Cmd::Profile, |r| match r {
            Report::Profile(p) => Some(*p),
            _ => None,
        })
        .unwrap_or_default()
    }

    /// Worker `dead`'s channel closed outside a cycle (in-cycle panics
    /// are caught and reported in the entry). Join it and re-raise its
    /// panic; leak the survivors, which may be blocked on a neighbour.
    fn worker_died(&mut self, dead: usize) -> EmulationError {
        self.failed = true;
        self.poisoned = true;
        if let Some(join) = self.workers[dead].join.take() {
            if let Err(payload) = join.join() {
                std::panic::resume_unwind(payload);
            }
        }
        EmulationError::Shard {
            shard: dead,
            reason: "a shard worker terminated unexpectedly".into(),
        }
    }

    /// Runs until the stop condition holds.
    ///
    /// # Errors
    ///
    /// Propagates [`EmulationError`] from [`SteppableEngine::step`].
    pub fn run(&mut self) -> Result<(), EmulationError> {
        crate::clock::run_engine(self)
    }

    /// Collects full run results from the view and every shard's
    /// receptors — value-equal to [`CompiledEngine::results`] for the
    /// same run, except that trace-receptor latency views are kept on
    /// the coordinator.
    ///
    /// # Errors
    ///
    /// Returns [`EmulationError::Shard`] when a worker is gone or an
    /// earlier step failed, and [`EmulationError::MidWindow`] where
    /// [`SteppableEngine::arch_view`] does.
    pub fn results(&mut self) -> Result<EmulationResults, EmulationError> {
        CycleKernel::arch_view(self)?;
        let owned = self.ask(Cmd::Collect, |r| match r {
            Report::Receptors(r) => Some(r),
            _ => None,
        })?;
        let mut owned = owned.concat();
        owned.sort_unstable_by_key(|&(gidx, _)| gidx);
        let receptors = owned
            .iter()
            .map(|(gidx, r)| ReceptorSummary::of(*gidx, r, Some(&self.receptor_latency[*gidx])));
        Ok(EmulationResults::from_view(
            &self.config.name,
            self.summary(),
            self.stalled,
            &self.view,
            receptors.collect(),
        ))
    }
}

impl Drop for ShardedCompiledEngine {
    fn drop(&mut self) {
        for w in &self.workers {
            let _ = w.cmd.send(Cmd::Shutdown);
        }
        if !self.poisoned {
            for w in &mut self.workers {
                if let Some(join) = w.join.take() {
                    let _ = join.join();
                }
            }
        }
    }
}

/// The coordinator under the one step skeleton. Its "cycle" applies
/// the oldest buffered row — after a window across all shards (one
/// synchronization round) when none is buffered — so per-cycle
/// observability (`now`, `delivered`, lockstep comparisons) is
/// identical to the unbatched engines. The skeleton probes only with
/// an empty buffer, because windows never cross a telemetry boundary.
impl CycleKernel for ShardedCompiledEngine {
    const LABEL: &'static str = "sharded-compiled";

    fn run_state(&self) -> &RunState {
        &self.run
    }

    fn run_state_mut(&mut self) -> &mut RunState {
        &mut self.run
    }

    fn profiler_mut(&mut self) -> Option<&mut PhaseProfiler> {
        self.profiler.as_mut()
    }

    /// The cross-shard jump, on a quiescent platform about to apply
    /// cycle `now` — the predicate [`CompiledEngine`]'s `idle_jump`
    /// evaluates there. Buffered rows the jump passes are speculative
    /// idle cycles and are discarded; the jump stops on a row that
    /// carries a worker fault, which `cycle` then surfaces.
    fn idle_jump(&mut self, now: Cycle, horizon: u64) -> u64 {
        if self.failed || !self.is_quiescent() {
            return 0;
        }
        let next = self.status.iter().map(|s| s.next_event).min();
        let target = next.unwrap_or(u64::MAX).min(horizon);
        let mut skipped = target.saturating_sub(now.raw());
        let faulty = |row: &Vec<CycleEntry>| row.iter().any(|e| e.error.is_some());
        if let Some(row) = self.window.iter().take(skipped as usize).position(faulty) {
            skipped = row as u64;
        }
        let speculative = skipped.min(self.window.len() as u64);
        for e in self.window.drain(..speculative as usize).flatten() {
            debug_assert!(
                e.releases.is_empty()
                    && e.injects.is_empty()
                    && e.deliveries.is_empty()
                    && e.stalled_delta == 0,
                "a speculative idle cycle did something"
            );
        }
        if let Some(p) = self.profiler.as_mut() {
            p.work.speculative_rows += speculative;
        }
        skipped
    }

    fn cycle(&mut self, _: Cycle, t: &mut Option<Instant>) -> Result<(), EmulationError> {
        self.check_alive()?;
        if self.window.is_empty() {
            self.start_window(t)?;
        }
        let applied = self.apply_cycle();
        lap(self.profiler.as_mut(), t, Phase::Apply);
        applied
    }

    /// Every shard's cached status plus the ledger.
    fn drained(&self) -> bool {
        self.ledger.in_flight() == 0
            && self
                .status
                .iter()
                .all(|s| s.exhausted && s.pending_none && s.nis_idle)
    }

    /// Every switch's and NI's rows from the shard that owns them
    /// (module docs); refused mid-window unless the platform drained.
    fn arch_view(&mut self) -> Result<&ArchView, EmulationError> {
        if !self.window.is_empty() && !self.drained() {
            let (cycle, ahead) = (self.run.now.raw(), self.window.len() as u64);
            return Err(EmulationError::MidWindow { cycle, ahead });
        }
        let parts = self.ask(Cmd::View, |r| match r {
            Report::View(v) => Some(v),
            _ => None,
        })?;
        self.view.alloc_live();
        for s in 0..self.partition.switch_count() {
            let owner = self.partition.shard_of(SwitchId::new(s as u32));
            self.view.copy_switch(&parts[owner], s);
        }
        let topo = &self.config.topology;
        for (i, g) in topo.generators().into_iter().enumerate() {
            let owner = self.partition.shard_of(topo.endpoint(g).switch);
            self.view.nis[i] = parts[owner].nis[i];
        }
        Ok(&self.view)
    }

    fn ledger(&self) -> impl std::ops::Deref<Target = PacketLedger> + '_ {
        &self.ledger
    }

    fn delivered_flits(&self) -> u64 {
        self.delivered_flits
    }

    /// The coordinator's phases with every worker's absorbed, plus one
    /// sub-report per worker.
    fn phase_report(&mut self) -> Option<PhaseReport> {
        let mut agg = self.profiler.clone()?;
        let wps = self.worker_profiles();
        let mut workers = Vec::with_capacity(wps.len());
        for (k, wp) in wps.iter().enumerate() {
            agg.absorb(wp);
            workers.push(wp.report(format!("shard-{k}")));
        }
        let mut report = agg.report(format!(
            "{}/{}x{}",
            Self::LABEL,
            self.workers.len(),
            self.batch
        ));
        report.workers = workers;
        Some(report)
    }
}

/// Builds one worker inside its thread: re-instantiate the config over
/// the coordinator's routing (instantiation is deterministic, so every
/// TG RNG stream and device matches the coordinator's reference by
/// construction; the routing is shared, and was checked when the
/// coordinator computed it), lower it into a full-shape
/// [`CompiledKernel`], and derive the ownership tables.
#[allow(clippy::too_many_arguments)]
fn spawn_worker(
    shard: usize,
    config: &PlatformConfig,
    routing: RoutingTables,
    map: &PartitionMap,
    nbr_list: Vec<usize>,
    out_txs: Vec<Sender<NeighborMsg>>,
    in_rxs: Vec<Receiver<NeighborMsg>>,
    cmd_rx: Receiver<Cmd>,
    rep_tx: Sender<Report>,
) -> Worker {
    let mut elab =
        elaborate_routed(config, routing).expect("the coordinator already elaborated this config");
    // Generators of other shards never fire here: an empty trace is
    // exhausted from the start, so they never enter the live sets.
    let topo = &config.topology;
    for (tg, g) in elab.tgs.iter_mut().zip(topo.generators()) {
        if map.shard_of(topo.endpoint(g).switch) != shard {
            *tg = Box::new(TraceDrivenTg::from_events(Vec::new()));
        }
    }
    let view = ArchView::new(&elab);
    let mut eng = CompiledKernel::new(elab);
    eng.next_packet = first_provisional_id(shard);
    let switch_shard: Vec<u16> = (0..eng.low.switch_count)
        .map(|s| map.shard_of(SwitchId::new(s as u32)) as u16)
        .collect();
    let owned = |s: usize| usize::from(switch_shard[s]) == shard;
    let mut my_receptors = Vec::new();
    let mut out_slot_shard = vec![0u16; eng.low.total_out_slots()];
    for (s, &owner) in switch_shard.iter().enumerate() {
        let range = eng.low.out_slot_base[s] as usize..eng.low.out_slot_base[s + 1] as usize;
        out_slot_shard[range].fill(owner);
        if !owned(s) {
            continue;
        }
        let opb = eng.low.out_port_base[s] as usize;
        for o in 0..eng.low.outputs[s] as usize {
            if let LoweredOutDest::Receptor { index } = eng.low.out_dest[opb + o] {
                my_receptors.push(index as usize);
            }
        }
    }
    my_receptors.sort_unstable();
    let mut nbr_slot = vec![usize::MAX; map.shards()];
    for (j, &b) in nbr_list.iter().enumerate() {
        nbr_slot[b] = j;
    }
    let boundary = Boundary {
        shard,
        switch_shard,
        out_slot_shard,
        last_pop: vec![0u64; eng.low.total_in_slots()],
        nbr_slot,
        out_flits: nbr_list.iter().map(|_| Vec::new()).collect(),
        out_credits: nbr_list.iter().map(|_| Vec::new()).collect(),
        deliveries: Vec::new(),
    };
    Worker {
        eng,
        view,
        boundary,
        my_receptors,
        out_txs,
        in_rxs,
        dead: false,
        #[cfg(test)]
        fault: None,
        cmd_rx,
        rep_tx,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ClockMode;
    use crate::config::PaperConfig;
    use std::cell::Cell;
    use std::time::Duration;

    thread_local! {
        /// `(shard, cycle)`: in engines built on this thread, that
        /// shard's worker panics computing that cycle.
        static FAULT: Cell<Option<(usize, u64)>> = const { Cell::new(None) };
    }

    /// The fault cycle armed for shard `k` by the constructing thread.
    pub(super) fn fault_for(k: usize) -> Option<u64> {
        FAULT.get().filter(|f| f.0 == k).map(|f| f.1)
    }

    /// Runs `body` under a watchdog, so a protocol hang fails the test
    /// instead of stalling the suite.
    fn within_a_minute(body: impl FnOnce() + Send + 'static) {
        let (done_tx, done_rx) = mpsc::channel();
        std::thread::spawn(move || {
            body();
            done_tx.send(()).unwrap();
        });
        done_rx
            .recv_timeout(Duration::from_secs(60))
            .expect("the faulted engine hung or its test body panicked");
    }

    fn assert_shard1_fault(err: EmulationError, cycle: u64) {
        match err {
            EmulationError::Shard { shard: 1, reason } => {
                let needle = format!("injected fault at cycle {cycle}");
                assert!(reason.contains(&needle), "{reason}");
            }
            other => panic!("expected a shard-1 fault, got {other}"),
        }
    }

    /// A worker panic mid-window surfaces as a typed error on exactly
    /// the cycle it happened, poisons the engine for good, strands
    /// nobody and lets the engine drop.
    #[test]
    fn worker_panic_mid_window_is_a_shard_fault_not_a_hang() {
        within_a_minute(|| {
            // Window [16, 24) at batch 8: the fault sits mid-window,
            // so shard 1 idles out cycles 21..=23 on the cadence alone
            // while shard 0 (which owns the paper's four TGs) keeps
            // sending flits across the boundary.
            FAULT.set(Some((1, 20)));
            let cfg = PaperConfig::new().total_packets(1_000_000).uniform();
            let mut engine = ShardedCompiledEngine::with_shards(&cfg, 2, 8).unwrap();
            for cycle in 0..20 {
                engine.step().unwrap();
                assert_eq!(engine.now().raw(), cycle + 1);
            }
            assert_shard1_fault(engine.step().unwrap_err(), 20);
            assert_eq!(engine.now().raw(), 20, "the faulting cycle is not applied");
            for _ in 0..2 {
                assert!(matches!(engine.step(), Err(EmulationError::Shard { .. })));
                assert!(matches!(
                    engine.results(),
                    Err(EmulationError::Shard { .. })
                ));
            }
            // Joins both workers: the healthy one finished its window.
            drop(engine);
        });
    }

    /// A worker panic on a cycle that turns out to be a speculative
    /// idle row — executed inside a window, then passed by a gated
    /// jump — still surfaces, by the step that would have discarded it.
    #[test]
    fn worker_panic_on_a_speculative_idle_row_still_surfaces() {
        within_a_minute(|| {
            let cfg = PaperConfig::new()
                .total_packets(1_000_000)
                .burst(4)
                .with_clock_mode(ClockMode::Gated);
            // A healthy run finds the first buffered row a jump passes.
            let mut healthy = ShardedCompiledEngine::with_shards(&cfg, 2, 8).unwrap();
            let (victim, steps) = (1..)
                .find_map(|steps| {
                    let (at, buffered) = (healthy.run.now.raw(), healthy.window.len());
                    healthy.step().unwrap();
                    let jumped = healthy.run.now.raw() - at > 1;
                    (jumped && buffered > 0).then_some((at, steps))
                })
                .expect("a gated burst run jumps inside a window");
            drop(healthy);

            FAULT.set(Some((1, victim)));
            let mut engine = ShardedCompiledEngine::with_shards(&cfg, 2, 8).unwrap();
            for _ in 1..steps {
                engine.step().unwrap();
            }
            assert_eq!(engine.run.now.raw(), victim);
            assert_shard1_fault(engine.step().unwrap_err(), victim);
            assert_eq!(engine.run.now.raw(), victim, "no jump over a fault");
            assert!(matches!(engine.step(), Err(EmulationError::Shard { .. })));
        });
    }
}
