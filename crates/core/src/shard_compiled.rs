//! The sharded *compiled* engine: array-slice shards of the lowered
//! platform, stepped by persistent workers with batched coordinator
//! synchronization.
//!
//! [`ShardedCompiledEngine`] marries the two speed mechanisms the
//! crate already has: the flat-array cycle kernel of
//! [`CompiledEngine`] and the partitioned worker threads of
//! [`crate::shard::ShardedEngine`]. Each worker owns a slice of the
//! struct-of-arrays state — the switches of one [`PartitionMap`]
//! shard, the generators and receptors attached to them, and a
//! *per-shard flit pool* — and steps only that slice with the exact
//! compiled decide/commit kernels. Cross-shard flits leave the
//! sender's pool as real [`Flit`]s and are re-interned into the
//! receiver's pool on arrival.
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
//!   per [`ShardedCompiledEngine::step`] call, keeping per-cycle
//!   lockstep observability while paying the two-way channel
//!   synchronization only once per window — a ~`batch`× reduction,
//!   measured by [`ShardedCompiledEngine::sync_rounds`].
//!
//! `batch = 1` therefore reproduces the per-cycle exchange protocol
//! of the interpreted sharded engine exactly: one synchronization
//! round per cycle.
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
//! Clock gating needs the *platform-wide* quiescence predicate and the
//! cross-shard event horizon before every cycle, which is inherently a
//! per-cycle coordinator decision. Under [`ClockMode::Gated`] the
//! batch is therefore clamped to 1 (with a warning): correctness is
//! never traded for lookahead. A jump costs the workers nothing: they
//! are simply told the next cycle to execute, and each TG replays the
//! skipped window lazily before its next real tick, as in
//! [`CompiledEngine`].

use crate::clock::{ClockMode, EngineSummary, EngineWarning, SteppableEngine};
use crate::compile::{
    elaborate, Elaboration, LoweredInFeed, LoweredOutDest, LoweredPlatform, OutTarget,
    ReceptorDevice, HANDLE_IDX, HANDLE_TAIL, LOWERED_NONE, SLOT_NONE,
};
use crate::compiled::CompiledEngine;
use crate::config::{EngineKind, PlatformConfig};
use crate::error::{CompileError, EmulationError};
use crate::profile::{Phase, PhaseProfiler, PhaseReport};
use crate::results::{EmulationResults, ReceptorSummary};
use crate::shard::{panic_fault, ShardStatus};
use nocem_common::flit::Flit;
use nocem_common::ids::{LinkId, PacketId, SwitchId};
use nocem_common::time::Cycle;
use nocem_stats::congestion::{CongestionCounter, VcOccupancy};
use nocem_stats::latency::LatencyAnalyzer;
use nocem_stats::ledger::PacketLedger;
use nocem_switch::switch::CREDITS_INFINITE;
use nocem_telemetry::{Collector, CumulativeProbe, SpanBuffer, SpanEvent, SpanTrace};
use nocem_topology::partition::{GridStripes, Partition, PartitionMap};
use nocem_traffic::trace::TraceDrivenTg;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::Instant;

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

/// Commands the coordinator sends to every worker.
enum Cmd {
    /// Execute `len` cycles starting at `start` (past any clock-gated
    /// jump the coordinator took), buffering boundary records per
    /// cycle and ledger events per window.
    Window { start: Cycle, len: u64 },
    /// Snapshot the shard's slice of the counter arrays.
    Collect,
    /// Report the shard's cumulative telemetry counters.
    Probe,
    /// Report the shard's self-profiling state (phase accumulators
    /// and span buffer). Only sent when profiling is configured.
    Profile,
    /// Exit the worker loop.
    Shutdown,
}

/// Snapshot of a shard's slice for results collection. The per-port
/// and per-VC arrays are full-platform shaped with non-owned rows
/// zero, so the coordinator merges by element-wise add / max.
struct Snapshot {
    blocked_out: Vec<u64>,
    forwarded_out: Vec<u64>,
    max_vc_occ: Vec<u64>,
    /// `(global generator index, blocked cycles, injected flits)`.
    ni_counters: Vec<(usize, u64, u64)>,
    /// `(global receptor index, receptor clone)`.
    receptors: Vec<(usize, ReceptorDevice)>,
}

/// One worker's self-profiling payload: its phase accumulators (with
/// the worker-side elaborate/lower seeds) plus a copy of its span
/// buffer. Copies, not drains — the worker keeps accumulating, so the
/// coordinator may ask again later in the run.
struct WorkerProfile {
    profiler: PhaseProfiler,
    spans: Vec<SpanEvent>,
    dropped: u64,
}

enum Report {
    Window(Vec<CycleEntry>),
    Snapshot(Box<Snapshot>),
    Probe(Box<CumulativeProbe>),
    Profile(Box<WorkerProfile>),
}

/// One persistent worker: a full-shape [`CompiledEngine`] (built from
/// the worker's own deterministic re-elaboration of the config, so
/// every RNG stream matches the reference by construction) whose
/// non-owned generators are empty, so only the owned slice ever enters
/// its live sets. Non-owned rows stay zero, which makes probes and
/// snapshots mergeable by plain addition. The engine's profiler holds
/// the worker-side phase accumulators (owned-slice compute vs. boundary
/// exchange) and work counters.
struct Worker {
    shard: usize,
    eng: CompiledEngine,
    /// Per global switch: owned here?
    own_switch: Vec<bool>,
    /// Owned global generator indices, ascending.
    my_gens: Vec<usize>,
    /// Owned global receptor indices, ascending.
    my_receptors: Vec<usize>,
    /// Per global output slot: owning shard.
    out_slot_shard: Vec<u16>,
    /// Per global output port: the shard owning the downstream switch
    /// (`u16::MAX` when the port feeds a receptor).
    out_port_dest: Vec<u16>,
    /// Per global input slot: `cycle + 1` of this slot's most recent
    /// own pop — the watermark order correction for replayed arrivals.
    last_pop: Vec<u64>,
    /// Per shard id: its index in the neighbour lists
    /// (`usize::MAX` = not a neighbour).
    nbr_slot: Vec<usize>,
    out_txs: Vec<Sender<NeighborMsg>>,
    in_rxs: Vec<Receiver<NeighborMsg>>,
    /// Per out-neighbour: this cycle's buffered records.
    out_flits: Vec<Vec<FlitRec>>,
    out_credits: Vec<Vec<u32>>,
    /// A cycle errored or panicked: keep the per-cycle message cadence
    /// (empty sends, discarding receives) so neighbours never block,
    /// but step nothing further.
    dead: bool,
    /// Worker-side span timeline on this shard's track, timed against
    /// the coordinator's epoch.
    spans: Option<SpanBuffer>,
    cmd_rx: Receiver<Cmd>,
    rep_tx: Sender<Report>,
}

impl Worker {
    fn run(mut self) {
        while let Ok(cmd) = self.cmd_rx.recv() {
            match cmd {
                Cmd::Window { start, len } => {
                    let entries = self.window(start, len);
                    if self.rep_tx.send(Report::Window(entries)).is_err() {
                        return;
                    }
                }
                Cmd::Collect => {
                    let snap = Box::new(self.snapshot());
                    if self.rep_tx.send(Report::Snapshot(snap)).is_err() {
                        return;
                    }
                }
                Cmd::Probe => {
                    let probe = Box::new(self.eng.cumulative_probe());
                    if self.rep_tx.send(Report::Probe(probe)).is_err() {
                        return;
                    }
                }
                Cmd::Profile => {
                    let (spans, dropped) = self
                        .spans
                        .clone()
                        .map_or((Vec::new(), 0), SpanBuffer::into_parts);
                    let profile = Box::new(WorkerProfile {
                        profiler: self.eng.profiler.clone().unwrap_or_default(),
                        spans,
                        dropped,
                    });
                    if self.rep_tx.send(Report::Profile(profile)).is_err() {
                        return;
                    }
                }
                Cmd::Shutdown => return,
            }
        }
    }

    /// Executes one window: per cycle, compute the owned slice, send
    /// one boundary message per neighbour, receive and replay one per
    /// in-neighbour, then record the end-of-cycle status.
    fn window(&mut self, start: Cycle, len: u64) -> Vec<CycleEntry> {
        let win_start = self.spans.as_ref().map(|_| Instant::now());
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
                Err(payload) => entry.error = Some(panic_fault(self.shard, &payload)),
            }
            self.eng.lap(&mut t, Phase::WorkerCompute);
            // The exchange section: everything from here to the end of
            // replay is boundary synchronization, not compute.
            let exchange_start = t;
            // One message per neighbour per cycle, no matter what —
            // possibly partial on error, the cadence is what matters.
            self.send_bufs(now);
            let replay_start = self.spans.as_ref().map(|_| Instant::now());
            if entry.error.is_none() {
                let replayed = catch_unwind(AssertUnwindSafe(|| self.recv_replay(now)));
                match replayed {
                    Ok(Ok(())) => entry.status = self.status(),
                    Ok(Err(e)) => entry.error = Some(e),
                    Err(payload) => entry.error = Some(panic_fault(self.shard, &payload)),
                }
            } else {
                self.recv_discard();
            }
            if let (Some(s), Some(buf)) = (replay_start, self.spans.as_mut()) {
                buf.record("replay", s, now.raw());
            }
            self.eng.lap(&mut t, Phase::Exchange);
            if let (Some(s), Some(buf)) = (exchange_start, self.spans.as_mut()) {
                buf.record("exchange", s, now.raw());
            }
            if entry.error.is_some() {
                self.dead = true;
            }
            entries.push(entry);
        }
        if let (Some(s), Some(buf)) = (win_start, self.spans.as_mut()) {
            buf.record("window", s, start.raw());
        }
        entries
    }

    /// The per-cycle message cadence of a dead shard: empty sends,
    /// discarding receives. Neighbours observe only the absence of
    /// boundary traffic, which is always a legal cycle for them.
    fn cadence(&mut self, now: Cycle) {
        for buf in &mut self.out_flits {
            buf.clear();
        }
        for buf in &mut self.out_credits {
            buf.clear();
        }
        self.send_bufs(now);
        self.recv_discard();
    }

    fn send_bufs(&mut self, now: Cycle) {
        for (nb, tx) in self.out_txs.iter().enumerate() {
            let msg = NeighborMsg {
                cycle: now.raw(),
                flits: std::mem::take(&mut self.out_flits[nb]),
                credits: std::mem::take(&mut self.out_credits[nb]),
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

    /// One compiled cycle over the owned slice — [`CompiledEngine`]'s
    /// own phases over its live sets (which only ever hold owned
    /// generators, NIs and switches), minus gating/telemetry (the
    /// coordinator's job), with ledger events buffered instead of
    /// applied and a commit that knows the shard boundary.
    fn compute_cycle(&mut self, now: Cycle, entry: &mut CycleEntry) -> Result<(), EmulationError> {
        #[cfg(debug_assertions)]
        self.eng.assert_live_sets();
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

        // Decided switches commit in ascending global order — the
        // reference order within this shard's slice. The cross-shard
        // interleaving is recovered at replay.
        for w in 0..self.eng.sw_decided.len() {
            let mut m = self.eng.sw_decided[w];
            while m != 0 {
                let s = w * 64 + m.trailing_zeros() as usize;
                m &= m - 1;
                self.commit_switch(s, now, entry)?;
            }
        }

        self.eng.now = now.next();
        Ok(())
    }

    /// Phase-4 commit of one owned switch: apply VC allocations, then
    /// pop-and-forward granted flits. One generic body covers the
    /// mask (any VC count — with one VC, slot == port) and dense
    /// decide paths; only the remote branches differ from
    /// [`CompiledEngine`]'s commit.
    fn commit_switch(
        &mut self,
        s: usize,
        now: Cycle,
        entry: &mut CycleEntry,
    ) -> Result<(), EmulationError> {
        let isb = self.eng.low.in_slot_base[s] as usize;
        let osb = self.eng.low.out_slot_base[s] as usize;
        let opb = self.eng.low.out_port_base[s] as usize;
        if self.eng.mask_ok[s] {
            let mut vm = self.eng.vcg_mask[s];
            self.eng.vcg_mask[s] = 0;
            while vm != 0 {
                let slot = vm.trailing_zeros() as usize;
                vm &= vm - 1;
                let gslot = osb + slot;
                let iv = self.eng.vc_granted[gslot];
                self.eng.vc_granted[gslot] = SLOT_NONE;
                let ist = &mut self.eng.low.in_state[isb + iv as usize];
                ist.allocated = slot as u16;
                ist.chosen = SLOT_NONE;
                self.eng.low.out_state[gslot].busy_with = iv;
                self.eng.open_worms += 1;
            }
            let mut gm = self.eng.grant_mask[s];
            self.eng.grant_mask[s] = 0;
            while gm != 0 {
                let o = gm.trailing_zeros() as usize;
                gm &= gm - 1;
                let gp = opb + o;
                let g = self.eng.granted[gp];
                self.eng.granted[gp] = LOWERED_NONE;
                self.pop_forward(s, g, o, now, entry)?;
            }
        } else {
            let vcs = self.eng.low.num_vcs;
            let outputs = self.eng.low.outputs[s] as usize;
            for slot in 0..outputs * vcs {
                let gslot = osb + slot;
                let iv = self.eng.vc_granted[gslot];
                if iv == SLOT_NONE {
                    continue;
                }
                self.eng.vc_granted[gslot] = SLOT_NONE;
                let ist = &mut self.eng.low.in_state[isb + iv as usize];
                ist.allocated = slot as u16;
                ist.chosen = SLOT_NONE;
                self.eng.low.out_state[gslot].busy_with = iv;
                self.eng.open_worms += 1;
            }
            for o in 0..outputs {
                let gp = opb + o;
                let g = self.eng.granted[gp];
                if g == LOWERED_NONE {
                    continue;
                }
                self.eng.granted[gp] = LOWERED_NONE;
                self.pop_forward(s, g, o, now, entry)?;
            }
        }
        Ok(())
    }

    /// [`CompiledEngine`]'s pop-and-forward with the two cross-shard
    /// branches: a credit owed to a remote upstream becomes a credit
    /// record, a flit landing on a remote switch leaves the local pool
    /// and becomes a flit record.
    fn pop_forward(
        &mut self,
        s: usize,
        g: u32,
        o: usize,
        now: Cycle,
        entry: &mut CycleEntry,
    ) -> Result<(), EmulationError> {
        let vcs = self.eng.low.num_vcs;
        let depth = self.eng.low.fifo_depth;
        let isb = self.eng.low.in_slot_base[s] as usize;
        let osb = self.eng.low.out_slot_base[s] as usize;
        let ipb = self.eng.low.in_port_base[s] as usize;
        let opb = self.eng.low.out_port_base[s] as usize;
        let iv = (g >> 8) as usize;
        let ov = (g & 0xFF) as usize;
        let islot = isb + iv;
        let ist = &mut self.eng.low.in_state[islot];
        debug_assert!(ist.len > 0, "granted input VC has a flit at its head");
        let head = ist.head as usize;
        let next = head + 1;
        ist.head = if next == depth { 0 } else { next } as u8;
        let left = ist.len - 1;
        ist.len = left;
        let h = self.eng.low.fifo_arena[islot * depth + head];
        let tail = h & HANDLE_TAIL != 0;
        if tail {
            ist.allocated = SLOT_NONE;
        }
        if left == 0 {
            self.eng.occ_mask[s] &= !(1 << (iv & 63));
        }
        self.eng.note_pop(s);
        self.last_pop[islot] = now.raw() + 1;
        let gslot = osb + o * vcs + ov;
        let ost = &mut self.eng.low.out_state[gslot];
        if ost.credits != CREDITS_INFINITE {
            ost.credits -= 1;
            self.eng.credit_debt += 1;
        }
        if tail {
            ost.busy_with = SLOT_NONE;
            self.eng.open_worms -= 1;
        }
        self.eng.forwarded_out[opb + o] += 1;
        let i = self.eng.iv_port[iv] as usize;
        let v = iv - i * vcs;
        match self.eng.low.in_feed[ipb + i] {
            LoweredInFeed::Switch { slot_base } => {
                let up = slot_base as usize + v;
                let owner = self.out_slot_shard[up] as usize;
                if owner == self.shard {
                    let ust = &mut self.eng.low.out_state[up];
                    if ust.credits != CREDITS_INFINITE {
                        ust.credits += 1;
                        self.eng.credit_debt -= 1;
                        debug_assert!(
                            ust.credits <= self.eng.low.credit_cap[up],
                            "credit overflow on a lowered output slot"
                        );
                    }
                } else {
                    self.out_credits[self.nbr_slot[owner]].push(up as u32);
                }
            }
            LoweredInFeed::Generator { index } => {
                self.eng.nis[index as usize].credit_return();
            }
        }
        match self.eng.low.out_dest[opb + o] {
            LoweredOutDest::Switch { switch, slot_base } => {
                if self.own_switch[switch as usize] {
                    self.eng.accept_flit(switch as usize, slot_base, h, ov)?;
                } else {
                    let idx = h & HANDLE_IDX;
                    let flit = self.eng.flit_pool[idx as usize];
                    self.eng.flit_free.push(idx);
                    let dest = self.out_port_dest[opb + o] as usize;
                    self.out_flits[self.nbr_slot[dest]].push(FlitRec {
                        from_switch: s as u32,
                        switch,
                        slot_base,
                        vc: ov as u8,
                        flit,
                    });
                }
            }
            LoweredOutDest::Receptor { index } => {
                // The ledger call becomes a buffered record carrying
                // the commit-order key (ejecting switch, output port).
                if let Some(pkt) = self.eng.eject(index as usize, h, ov, now)? {
                    entry.deliveries.push(DeliveryRec {
                        switch: s as u32,
                        port: o as u8,
                        receptor: index,
                        prov: pkt.id,
                        len_flits: pkt.len_flits,
                    });
                }
            }
        }
        Ok(())
    }

    /// Receives one boundary message per in-neighbour and replays it:
    /// re-intern and land every flit (with the deterministic watermark
    /// correction), return every credit.
    fn recv_replay(&mut self, now: Cycle) -> Result<(), EmulationError> {
        let vcs = self.eng.low.num_vcs;
        for k in 0..self.in_rxs.len() {
            let msg = self.in_rxs[k].recv().map_err(|_| EmulationError::Shard {
                shard: self.shard,
                reason: "a neighbour shard hung up mid-window".into(),
            })?;
            debug_assert_eq!(
                msg.cycle,
                now.raw(),
                "boundary messages arrive in cycle order"
            );
            for rec in msg.flits {
                let slot = rec.slot_base as usize + rec.vc as usize;
                let popped_here = self.last_pop[slot] == now.raw() + 1;
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
                let up = up as usize;
                let ust = &mut self.eng.low.out_state[up];
                if ust.credits != CREDITS_INFINITE {
                    ust.credits += 1;
                    self.eng.credit_debt -= 1;
                    debug_assert!(
                        ust.credits <= self.eng.low.credit_cap[up],
                        "credit overflow on a lowered output slot"
                    );
                }
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
            pending_none: self.eng.parked == 0,
            nis_idle: self.eng.ni_live.is_empty(),
        }
    }

    fn snapshot(&self) -> Snapshot {
        Snapshot {
            blocked_out: self.eng.blocked_out.clone(),
            forwarded_out: self.eng.forwarded_out.clone(),
            max_vc_occ: self.eng.max_vc_occ.clone(),
            ni_counters: self
                .my_gens
                .iter()
                .map(|&i| {
                    let c = self.eng.nis[i].counters();
                    (i, c.blocked_cycles, c.injected_flits)
                })
                .collect(),
            receptors: self
                .my_receptors
                .iter()
                .map(|&i| (i, self.eng.receptors[i].clone()))
                .collect(),
        }
    }
}

struct WorkerHandle {
    cmd: Sender<Cmd>,
    rep: Receiver<Report>,
    join: Option<JoinHandle<()>>,
}

/// The sharded compiled engine.
///
/// Construct with [`ShardedCompiledEngine::build`] (grid-stripe
/// partitioning, shard count and batch from
/// [`EngineKind::ShardedCompiled`]) or
/// [`ShardedCompiledEngine::with_partition`] for a custom
/// [`Partition`]. Drive it through [`SteppableEngine`] or
/// [`ShardedCompiledEngine::run`]; collect full results with
/// [`ShardedCompiledEngine::results`].
///
/// Results are bit-identical to [`CompiledEngine`] (and hence the
/// interpreted engines) on the same configuration: same packet ids,
/// same per-packet release / injection / delivery cycles, same
/// ledger, same statistics, same telemetry — for every `batch`.
pub struct ShardedCompiledEngine {
    config: PlatformConfig,
    /// Coordinator-side lowering, used for results attribution only.
    low: LoweredPlatform,
    workers: Vec<WorkerHandle>,
    status: Vec<ShardStatus>,
    partition: PartitionMap,
    batch: u64,
    /// Coordinator synchronization rounds (one window command + one
    /// report per worker each) issued so far.
    sync_rounds: u64,
    ledger: PacketLedger,
    receptor_latency: Vec<LatencyAnalyzer>,
    injection_links: Vec<LinkId>,
    telemetry: Option<Collector>,
    now: Cycle,
    next_packet: u64,
    stalled: u64,
    delivered_flits: u64,
    cycles_skipped: u64,
    /// Provisional → final id for every in-flight packet.
    prov_map: HashMap<PacketId, PacketId>,
    /// Executed-but-unapplied cycles: front = next to apply, each row
    /// holds one [`CycleEntry`] per shard.
    window: VecDeque<Vec<CycleEntry>>,
    poisoned: bool,
    failed: bool,
    /// Structured warnings raised while coming up (the gated batch
    /// clamp).
    warnings: Vec<EngineWarning>,
    /// Coordinator-side phase accumulators, when profiling is on.
    profiler: Option<PhaseProfiler>,
    /// Coordinator-side span timeline on the
    /// [`SpanEvent::COORDINATOR`] track.
    spans: Option<SpanBuffer>,
}

impl std::fmt::Debug for ShardedCompiledEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCompiledEngine")
            .field("name", &self.config.name)
            .field("shards", &self.workers.len())
            .field("batch", &self.batch)
            .field("cycle", &self.now)
            .field("delivered", &self.ledger.delivered())
            .finish_non_exhaustive()
    }
}

impl ShardedCompiledEngine {
    /// Compiles `config` and shards it with the grid-stripe
    /// partitioner, honouring `config.engine`: the shard count and
    /// batch of [`EngineKind::ShardedCompiled`], or a single shard
    /// with `batch = 1` for any other engine kind.
    ///
    /// # Errors
    ///
    /// Propagates [`CompileError`] from elaboration or partitioning.
    pub fn build(config: &PlatformConfig) -> Result<Self, CompileError> {
        let (shards, batch) = match config.engine {
            EngineKind::ShardedCompiled { shards, batch } => (shards, batch),
            _ => (1, 1),
        };
        Self::with_shards(config, shards, batch)
    }

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
        let map = GridStripes
            .partition(&elab.config.topology, shards)
            .map_err(|e| CompileError::Partition {
                reason: e.to_string(),
            })?;
        Ok(Self::with_partition(elab, map, batch))
    }

    /// Wraps an elaboration into a sharded compiled engine using an
    /// explicit partition map.
    ///
    /// A `batch` of 0 is treated as 1. Under [`ClockMode::Gated`] any
    /// `batch > 1` is clamped to 1 with a warning: the gating decision
    /// is a per-cycle platform-wide predicate, so batching would have
    /// to diverge — and this engine never diverges.
    ///
    /// # Panics
    ///
    /// Panics if `map` does not cover the elaboration's topology.
    pub fn with_partition(elab: Elaboration, map: PartitionMap, batch: u64) -> Self {
        assert_eq!(
            map.switch_count(),
            elab.config.topology.switch_count(),
            "partition map does not match the topology"
        );
        let mut batch = batch.max(1);
        let mut warnings = Vec::new();
        if elab.config.clock_mode == ClockMode::Gated && batch > 1 {
            warnings.push(EngineWarning::GatedBatchClamp { requested: batch });
            batch = 1;
        }
        let shards = map.shards();
        let topo = &elab.config.topology;
        let generators = topo.generators();

        // Pre-step quiescence/next-event status, evaluated on the
        // fresh elaboration exactly as the compiled engine would at
        // its first step.
        let init_status: Vec<ShardStatus> = (0..shards)
            .map(|k| {
                let my_gens: Vec<usize> = generators
                    .iter()
                    .enumerate()
                    .filter(|(_, &g)| map.shard_of(topo.endpoint(g).switch) == k)
                    .map(|(i, _)| i)
                    .collect();
                ShardStatus {
                    quiescent: my_gens
                        .iter()
                        .all(|&i| elab.nis[i].is_idle() && elab.nis[i].credits_home()),
                    next_event: my_gens
                        .iter()
                        .map(|&i| elab.tgs[i].next_event_cycle(Cycle::ZERO).cycle_or_max())
                        .min()
                        .unwrap_or(u64::MAX),
                    exhausted: my_gens.iter().all(|&i| elab.tgs[i].is_exhausted()),
                    pending_none: true,
                    nis_idle: my_gens.iter().all(|&i| elab.nis[i].is_idle()),
                }
            })
            .collect();

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

        // One shared epoch for every thread's span timeline.
        let epoch = Instant::now();
        let lower_start = Instant::now();
        let low = crate::compile::lower(&elab);
        let lower_ns = u64::try_from(lower_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let profiler = elab.config.profile.map(|_| {
            let mut p = PhaseProfiler::new();
            p.add_ns(Phase::Elaborate, elab.elaborate_ns);
            p.add_ns(Phase::Lower, lower_ns);
            p
        });
        let spans = elab.config.profile.and_then(|p| {
            p.spans
                .then(|| SpanBuffer::new(epoch, SpanEvent::COORDINATOR, p.span_capacity))
        });
        let injection_links = elab.wiring.injection.iter().map(|&(_, _, l)| l).collect();
        let receptor_count = topo.receptors().len();
        let num_vcs = usize::from(elab.config.switch.num_vcs);
        let telemetry = elab
            .config
            .telemetry
            .as_ref()
            .map(|t| Collector::new(t, elab.config.topology.link_count(), num_vcs));
        let config = elab.config.clone();

        let mut handles = Vec::with_capacity(shards);
        let mut txs = txs.into_iter();
        let mut rxs = rxs.into_iter();
        for (k, nbr_list) in nbr_lists.iter().enumerate() {
            let (cmd_tx, cmd_rx) = mpsc::channel();
            let (rep_tx, rep_rx) = mpsc::channel();
            let worker_config = config.clone();
            let worker_map = map.clone();
            let nbr_list = nbr_list.clone();
            let out_txs = txs.next().expect("one tx list per shard");
            let in_rxs: Vec<Receiver<NeighborMsg>> = rxs
                .next()
                .expect("one rx list per shard")
                .into_iter()
                .map(|r| r.expect("every neighbour channel wired"))
                .collect();
            let join = std::thread::Builder::new()
                .name(format!("nocem-cshard-{k}"))
                .spawn(move || {
                    spawn_worker(
                        k,
                        &worker_config,
                        &worker_map,
                        nbr_list,
                        out_txs,
                        in_rxs,
                        epoch,
                        cmd_rx,
                        rep_tx,
                    )
                    .run()
                })
                .expect("spawn sharded-compiled worker");
            handles.push(WorkerHandle {
                cmd: cmd_tx,
                rep: rep_rx,
                join: Some(join),
            });
        }

        ShardedCompiledEngine {
            config,
            low,
            workers: handles,
            status: init_status,
            partition: map,
            batch,
            sync_rounds: 0,
            ledger: PacketLedger::new(),
            receptor_latency: vec![LatencyAnalyzer::new(); receptor_count],
            injection_links,
            telemetry,
            now: Cycle::ZERO,
            next_packet: 0,
            stalled: 0,
            delivered_flits: 0,
            cycles_skipped: 0,
            prov_map: HashMap::new(),
            window: VecDeque::new(),
            poisoned: false,
            failed: false,
            warnings,
            profiler,
            spans,
        }
    }

    /// The current (applied) cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Packets delivered so far.
    pub fn delivered(&self) -> u64 {
        self.ledger.delivered()
    }

    /// Cycles the cross-shard fast-forward jumped over so far.
    pub fn cycles_skipped(&self) -> u64 {
        self.cycles_skipped
    }

    /// The effective cycles-per-synchronization batch (after any
    /// gated-mode clamp).
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

    /// Advances one platform cycle. When the window buffer is empty a
    /// new window of up to `batch` cycles is executed across all
    /// shards first (one synchronization round); either way exactly
    /// one buffered cycle is then applied to the ledger, so per-cycle
    /// observability (`now`, `delivered`, lockstep comparisons) is
    /// identical to the unbatched engines.
    ///
    /// # Errors
    ///
    /// Returns [`EmulationError`] on wiring/protocol violations or
    /// when the cycle limit is exceeded.
    pub fn step(&mut self) -> Result<(), EmulationError> {
        if self.failed {
            return Err(EmulationError::Shard {
                shard: usize::MAX,
                reason: "engine already failed; state is inconsistent".into(),
            });
        }
        let mut t = self.profiler.as_mut().map(PhaseProfiler::begin_step);
        if self.window.is_empty() {
            let round_start = t;
            self.start_window(&mut t)?;
            if let (Some(s), Some(buf)) = (round_start, self.spans.as_mut()) {
                buf.record("round", s, self.now.raw());
            }
        }
        let r = self.apply_cycle();
        self.lap(&mut t, Phase::Apply);
        r
    }

    /// Closes `phase` on the chained profiling timestamp, advancing it
    /// to now. A no-op (one `Option` check) when profiling is off.
    fn lap(&mut self, t: &mut Option<Instant>, phase: Phase) {
        if let (Some(prev), Some(p)) = (t.as_mut(), self.profiler.as_mut()) {
            *prev = p.lap(*prev, phase);
        }
    }

    /// Gates, probes, sizes and issues one window, then buffers every
    /// worker's cycle entries. `t` is the coordinator's chained
    /// profiling timestamp (`None` when profiling is off).
    fn start_window(&mut self, t: &mut Option<Instant>) -> Result<(), EmulationError> {
        // Cross-shard clock gating (batch is clamped to 1 in gated
        // mode, so this is a per-cycle decision exactly like the
        // interpreted sharded engine's).
        if self.config.clock_mode == ClockMode::Gated && self.is_quiescent() {
            let horizon = self
                .status
                .iter()
                .map(|s| s.next_event)
                .min()
                .unwrap_or(u64::MAX);
            let target = horizon.min(self.config.stop.cycle_limit);
            if target > self.now.raw() {
                self.cycles_skipped += target - self.now.raw();
                self.now = Cycle::new(target);
                if let Some(p) = self.profiler.as_mut() {
                    p.work.fast_forwards += 1;
                }
            }
        }
        self.lap(t, Phase::FastForward);
        if self
            .telemetry
            .as_ref()
            .is_some_and(|t| t.needs_probe(self.now.raw()))
        {
            let probe = self.probe_workers()?;
            let at = self.now.raw();
            self.telemetry
                .as_mut()
                .expect("presence checked above")
                .record(at, &probe);
        }
        self.lap(t, Phase::Probe);
        let start = self.now;
        let len = self.window_len(start);
        for k in 0..self.workers.len() {
            let cmd = Cmd::Window { start, len };
            if self.workers[k].cmd.send(cmd).is_err() {
                return self.worker_died(k);
            }
        }
        let mut per_shard: Vec<Vec<CycleEntry>> = Vec::with_capacity(self.workers.len());
        for k in 0..self.workers.len() {
            match self.workers[k].rep.recv() {
                Ok(Report::Window(entries)) if entries.len() == len as usize => {
                    per_shard.push(entries);
                }
                Ok(_) | Err(_) => return self.worker_died(k),
            }
        }
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
        self.lap(t, Phase::CoordWait);
        Ok(())
    }

    /// The next window's length: up to `batch`, shortened so that no
    /// worker ever executes a cycle the coordinator would not reach.
    fn window_len(&self, start: Cycle) -> u64 {
        let mut len = self.batch;
        // Delivered-target cap: each receptor completes at most one
        // packet per cycle (its ejection port forwards at most one
        // flit), so ceil(remaining / receptors) cycles cannot pass the
        // target before the window's last cycle — zero overshoot.
        if let Some(target) = self.config.stop.delivered_packets {
            let remaining = target.saturating_sub(self.ledger.delivered());
            let receptors = self.receptor_latency.len() as u64;
            if remaining > 0 && receptors > 0 {
                len = len.min(1 + (remaining - 1) / receptors);
            }
        }
        // Cycle-limit cap: executing cycle `limit` is what raises the
        // limit error, so it is the last cycle worth executing.
        let limit = self.config.stop.cycle_limit;
        if start.raw() <= limit {
            len = len.min(limit - start.raw() + 1);
        } else {
            len = 1;
        }
        // Telemetry cap: windows never cross a probe boundary, so a
        // probe always observes worker state at the coordinator's
        // cycle.
        if let Some(t) = &self.telemetry {
            for j in 1..len {
                if t.needs_probe(start.raw() + j) {
                    len = j;
                    break;
                }
            }
        }
        len.max(1)
    }

    /// Applies the oldest buffered cycle to the coordinator state in
    /// the single-threaded engine's event order: releases ascending by
    /// generator index (id assignment), then injections, then
    /// deliveries ascending by (ejecting switch, output port).
    fn apply_cycle(&mut self) -> Result<(), EmulationError> {
        let row = self.window.pop_front().expect("a window was just started");
        let now = self.now;
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
            self.failed = true;
            self.window.clear();
            return Err(e);
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
        self.now = now.next();
        if self.now.raw() > self.config.stop.cycle_limit {
            self.failed = true;
            self.window.clear();
            return Err(EmulationError::CycleLimitExceeded {
                limit: self.config.stop.cycle_limit,
                delivered: self.ledger.delivered(),
            });
        }
        Ok(())
    }

    fn fail(&mut self, e: EmulationError) -> EmulationError {
        self.failed = true;
        e
    }

    /// Collects and merges every shard's cumulative probe (disjoint
    /// owned slices, so the element-wise add is exact). Only called
    /// between windows, when worker state equals the compiled engine's
    /// end-of-cycle state at the coordinator's cycle.
    fn probe_workers(&mut self) -> Result<CumulativeProbe, EmulationError> {
        let mut merged = CumulativeProbe::new(
            self.config.topology.link_count(),
            usize::from(self.config.switch.num_vcs),
        );
        for k in 0..self.workers.len() {
            if self.workers[k].cmd.send(Cmd::Probe).is_err() {
                return self.worker_died(k).map(|()| unreachable!());
            }
            match self.workers[k].rep.recv() {
                Ok(Report::Probe(p)) => merged.absorb(&p),
                Ok(_) | Err(_) => return self.worker_died(k).map(|()| unreachable!()),
            }
        }
        Ok(merged)
    }

    /// The windowed telemetry collector, when enabled.
    pub fn telemetry(&self) -> Option<&Collector> {
        self.telemetry.as_ref()
    }

    /// Fetches every worker's profiling payload, in shard order.
    /// Best-effort: stops at the first dead worker and returns
    /// nothing after a failure (dead workers cannot be queried).
    fn worker_profiles(&mut self) -> Vec<WorkerProfile> {
        if self.failed {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.workers.len());
        for k in 0..self.workers.len() {
            if self.workers[k].cmd.send(Cmd::Profile).is_err() {
                break;
            }
            match self.workers[k].rep.recv() {
                Ok(Report::Profile(p)) => out.push(*p),
                Ok(_) | Err(_) => break,
            }
        }
        out
    }

    /// Seals the collector, flushing the trailing partial window. A
    /// no-op when telemetry is off, already sealed, or the engine has
    /// failed (dead workers cannot be probed).
    pub fn seal_telemetry(&mut self) {
        if self.failed || self.telemetry.as_ref().is_none_or(Collector::is_sealed) {
            return;
        }
        if let Ok(probe) = self.probe_workers() {
            let at = self.now.raw();
            self.telemetry
                .as_mut()
                .expect("presence checked above")
                .seal(at, &probe);
        }
    }

    /// Worker `dead`'s channel closed outside a cycle (in-cycle panics
    /// are caught and reported in the entry). Join it and re-raise its
    /// panic; leak the survivors, which may be blocked on a neighbour.
    fn worker_died(&mut self, dead: usize) -> Result<(), EmulationError> {
        self.failed = true;
        self.poisoned = true;
        if let Some(join) = self.workers[dead].join.take() {
            if let Err(payload) = join.join() {
                std::panic::resume_unwind(payload);
            }
        }
        Err(EmulationError::Shard {
            shard: dead,
            reason: "a shard worker terminated unexpectedly".into(),
        })
    }

    /// Whether the stop condition holds (mirrors
    /// [`CompiledEngine::finished`]).
    pub fn finished(&self) -> bool {
        match self.config.stop.delivered_packets {
            Some(target) => self.ledger.delivered() >= target,
            None => {
                self.status
                    .iter()
                    .all(|s| s.exhausted && s.pending_none && s.nis_idle)
                    && self.ledger.in_flight() == 0
            }
        }
    }

    /// Runs until the stop condition holds.
    ///
    /// # Errors
    ///
    /// Propagates [`EmulationError`] from [`ShardedCompiledEngine::step`].
    pub fn run(&mut self) -> Result<(), EmulationError> {
        crate::clock::run_engine(self)
    }

    /// Collects full run results by snapshotting every shard's counter
    /// slice — value-equal to [`CompiledEngine::results`] for the same
    /// run, except that trace-receptor latency views are kept on the
    /// coordinator (as in the interpreted sharded engine).
    ///
    /// # Errors
    ///
    /// Returns [`EmulationError::Shard`] when a worker is gone.
    pub fn results(&mut self) -> Result<EmulationResults, EmulationError> {
        let total_out_ports = *self.low.out_port_base.last().expect("prefix sums") as usize;
        let vcs = self.low.num_vcs;
        let mut blocked = vec![0u64; total_out_ports];
        let mut forwarded = vec![0u64; total_out_ports];
        let mut max_vc = vec![0u64; self.low.switch_count * vcs];
        let mut ni_counters: Vec<Option<(u64, u64)>> = vec![None; self.injection_links.len()];
        let mut receptors: Vec<Option<ReceptorSummary>> = vec![None; self.receptor_latency.len()];
        for k in 0..self.workers.len() {
            if self.workers[k].cmd.send(Cmd::Collect).is_err() {
                return self.worker_died(k).map(|()| unreachable!());
            }
            let snap = match self.workers[k].rep.recv() {
                Ok(Report::Snapshot(s)) => *s,
                Ok(_) | Err(_) => return self.worker_died(k).map(|()| unreachable!()),
            };
            for (acc, v) in blocked.iter_mut().zip(&snap.blocked_out) {
                *acc += v;
            }
            for (acc, v) in forwarded.iter_mut().zip(&snap.forwarded_out) {
                *acc += v;
            }
            for (acc, v) in max_vc.iter_mut().zip(&snap.max_vc_occ) {
                *acc = (*acc).max(*v);
            }
            for (gidx, b, f) in snap.ni_counters {
                ni_counters[gidx] = Some((b, f));
            }
            for (gidx, r) in snap.receptors {
                let (counters, lat, hists) = match &r {
                    ReceptorDevice::Stochastic(r) => (
                        *r.counters(),
                        None,
                        Some((
                            r.length_histogram().clone(),
                            r.interarrival_histogram().clone(),
                        )),
                    ),
                    ReceptorDevice::Trace(r) => {
                        (*r.counters(), self.receptor_latency[gidx].mean(), None)
                    }
                };
                let (length_histogram, interarrival_histogram) = match hists {
                    Some((l, a)) => (Some(l), Some(a)),
                    None => (None, None),
                };
                receptors[gidx] = Some(ReceptorSummary {
                    label: format!("tr{gidx}"),
                    packets: counters.packets,
                    flits: counters.flits,
                    running_time: counters.running_time(),
                    mean_network_latency: lat,
                    length_histogram,
                    interarrival_histogram,
                });
            }
        }
        let mut cc = CongestionCounter::new(self.config.topology.link_count());
        for s in 0..self.low.switch_count {
            let opb = self.low.out_port_base[s] as usize;
            for o in 0..self.low.outputs[s] as usize {
                let gp = opb + o;
                cc.add(
                    LinkId::new(self.low.out_link[gp]),
                    blocked[gp],
                    forwarded[gp],
                );
            }
        }
        for (i, link) in self.injection_links.iter().enumerate() {
            let (b, f) = ni_counters[i].expect("every NI snapshotted by its shard");
            cc.add(*link, b, f);
        }
        let mut vc_occupancy = VcOccupancy::new(vcs);
        for s in 0..self.low.switch_count {
            for vc in 0..vcs {
                vc_occupancy.record(vc, max_vc[s * vcs + vc]);
            }
        }
        Ok(EmulationResults {
            name: self.config.name.clone(),
            cycles: self.now.raw(),
            cycles_skipped: self.cycles_skipped,
            released: self.ledger.released(),
            injected: self.ledger.injected(),
            delivered: self.ledger.delivered(),
            delivered_flits: self.delivered_flits,
            stalled_cycles: self.stalled,
            network_latency: self.ledger.network_latency().clone(),
            total_latency: self.ledger.total_latency().clone(),
            congestion: cc,
            vc_occupancy,
            receptors: receptors
                .into_iter()
                .map(|r| r.expect("every receptor snapshotted by its shard"))
                .collect(),
        })
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

impl SteppableEngine for ShardedCompiledEngine {
    fn step(&mut self) -> Result<(), EmulationError> {
        ShardedCompiledEngine::step(self)
    }

    fn now(&self) -> Cycle {
        self.now
    }

    fn finished(&self) -> bool {
        ShardedCompiledEngine::finished(self)
    }

    fn delivered(&self) -> u64 {
        self.ledger.delivered()
    }

    fn cycles_skipped(&self) -> u64 {
        self.cycles_skipped
    }

    fn summary(&self) -> EngineSummary {
        EngineSummary::from_ledger(
            self.now.raw(),
            self.cycles_skipped,
            self.delivered_flits,
            &self.ledger,
        )
        .with_warnings(&self.warnings)
    }

    fn packet_ledger(&self) -> PacketLedger {
        self.ledger.clone()
    }

    fn telemetry(&self) -> Option<&Collector> {
        ShardedCompiledEngine::telemetry(self)
    }

    fn seal_telemetry(&mut self) {
        ShardedCompiledEngine::seal_telemetry(self);
    }

    fn profile(&mut self) -> Option<PhaseReport> {
        self.profiler.as_ref()?;
        let wps = self.worker_profiles();
        let mut agg = self.profiler.clone().expect("checked above");
        let mut workers = Vec::with_capacity(wps.len());
        for (k, wp) in wps.iter().enumerate() {
            agg.absorb(&wp.profiler);
            workers.push(wp.profiler.report(format!("shard-{k}")));
        }
        let mut report = agg.report(format!(
            "sharded-compiled/{}x{}",
            self.workers.len(),
            self.batch
        ));
        report.workers = workers;
        Some(report)
    }

    fn span_trace(&mut self) -> Option<SpanTrace> {
        self.spans.as_ref()?;
        let mut parts: Vec<(Vec<SpanEvent>, u64)> = self
            .worker_profiles()
            .into_iter()
            .map(|wp| (wp.spans, wp.dropped))
            .collect();
        parts.push(self.spans.clone().expect("checked above").into_parts());
        Some(SpanTrace::merge(parts))
    }

    fn warnings(&self) -> &[EngineWarning] {
        &self.warnings
    }
}

/// Builds one worker inside its thread: re-elaborate the config (the
/// elaboration is deterministic, so every TG RNG stream and device
/// matches the coordinator's reference by construction), wrap it in a
/// full-shape [`CompiledEngine`], and derive the ownership tables.
#[allow(clippy::too_many_arguments)]
fn spawn_worker(
    shard: usize,
    config: &PlatformConfig,
    map: &PartitionMap,
    nbr_list: Vec<usize>,
    out_txs: Vec<Sender<NeighborMsg>>,
    in_rxs: Vec<Receiver<NeighborMsg>>,
    epoch: Instant,
    cmd_rx: Receiver<Cmd>,
    rep_tx: Sender<Report>,
) -> Worker {
    let mut elab = elaborate(config).expect("the coordinator already elaborated this config");
    // Generators of other shards never fire here: an empty trace is
    // exhausted from the start, so they never enter the live sets.
    let topo = &config.topology;
    for (tg, g) in elab.tgs.iter_mut().zip(topo.generators()) {
        if map.shard_of(topo.endpoint(g).switch) != shard {
            *tg = Box::new(TraceDrivenTg::from_events(Vec::new()));
        }
    }
    let mut eng = CompiledEngine::new(elab);
    eng.next_packet = first_provisional_id(shard);
    // The coordinator owns windowed telemetry and stall detection (a
    // per-platform concern); the worker only ever serves cumulative
    // probes. The profiler stays: it carries this thread's
    // elaborate/lower seeds and collects the worker's laps.
    eng.telemetry = None;
    eng.watchdog = None;
    let spans = config.profile.and_then(|p| {
        p.spans
            .then(|| SpanBuffer::new(epoch, shard as u32, p.span_capacity))
    });
    let n = eng.low.switch_count;
    let own_switch: Vec<bool> = (0..n)
        .map(|s| map.shard_of(SwitchId::new(s as u32)) == shard)
        .collect();
    let my_gens: Vec<usize> = (0..eng.nis.len())
        .filter(|&i| own_switch[eng.low.inject_switch[i] as usize])
        .collect();
    let mut my_receptors = Vec::new();
    let total_out_ports = *eng.low.out_port_base.last().expect("prefix sums") as usize;
    let mut out_port_dest = vec![u16::MAX; total_out_ports];
    for s in (0..n).filter(|&s| own_switch[s]) {
        let opb = eng.low.out_port_base[s] as usize;
        for o in 0..eng.low.outputs[s] as usize {
            if let LoweredOutDest::Receptor { index } = eng.low.out_dest[opb + o] {
                my_receptors.push(index as usize);
            }
        }
    }
    my_receptors.sort_unstable();
    for (gp, dest) in out_port_dest.iter_mut().enumerate().take(total_out_ports) {
        if let LoweredOutDest::Switch { switch, .. } = eng.low.out_dest[gp] {
            *dest = map.shard_of(SwitchId::new(switch)) as u16;
        }
    }
    let mut out_slot_shard = vec![0u16; eng.low.total_out_slots()];
    for s in 0..n {
        let owner = map.shard_of(SwitchId::new(s as u32)) as u16;
        let range = eng.low.out_slot_base[s] as usize..eng.low.out_slot_base[s + 1] as usize;
        out_slot_shard[range].fill(owner);
    }
    let mut nbr_slot = vec![usize::MAX; map.shards()];
    for (j, &b) in nbr_list.iter().enumerate() {
        nbr_slot[b] = j;
    }
    let last_pop = vec![0u64; eng.low.total_in_slots()];
    let out_flits = nbr_list.iter().map(|_| Vec::new()).collect();
    let out_credits = nbr_list.iter().map(|_| Vec::new()).collect();
    Worker {
        shard,
        eng,
        own_switch,
        my_gens,
        my_receptors,
        out_slot_shard,
        out_port_dest,
        last_pop,
        nbr_slot,
        out_txs,
        in_rxs,
        out_flits,
        out_credits,
        dead: false,
        spans,
        cmd_rx,
        rep_tx,
    }
}
