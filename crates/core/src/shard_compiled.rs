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
//! and its "cycle" is one round trip to every worker. So it implements
//! the full [`SteppableEngine`] contract (run loops, sweeps and lockstep
//! harnesses drive it unchanged) and produces complete
//! [`EmulationResults`]; a [`crate::Board`] programs and polls it over
//! the memory-mapped bus like any other engine. It does not record
//! traces.
//!
//! # The exchange protocol
//!
//! Boundary traffic cannot be deferred: a lowered link has exactly one
//! cycle of latency, so a flit popped at cycle `u` must be observable
//! by the downstream switch's *decide* at `u + 1`, and its credit by
//! the upstream allocator at `u + 1`. Every cycle therefore has two
//! exchanges:
//!
//! * **Point to point:** each worker sends exactly one message per
//!   neighbouring shard carrying the cycle's outbound boundary records
//!   — `(destination switch, slot, vc, flit)` for flits, upstream
//!   output-slot indices for credits — and then blocks on exactly one
//!   message per in-neighbour, replaying it before the cycle ends.
//!   Empty messages still flow: they are the clock marker that keeps
//!   neighbours in lockstep without any global barrier.
//! * **Through the coordinator:** between cycles the coordinator owns
//!   every worker — kernel, boundary and neighbour channels, in one
//!   box. It sends each shard's thread one message, the box and the
//!   cycle to run; the thread runs that one cycle and sends the box
//!   back with the cycle's ledger events (releases, injections,
//!   deliveries, stall count) inside, which the coordinator applies
//!   before the step returns. Each thread's channel carries that one
//!   message type each way; a worker is built inside its own thread,
//!   whose first message is the finished box.
//!
//! The one-cycle link latency is the lookahead that lets each cycle's
//! neighbour exchange run without a global barrier; a coordinator
//! round per cycle keeps the engine observable on every cycle. Batching
//! several cycles per round was measured (`examples/shard_scaling.rs`)
//! and bought speed only where two shards already lose to
//! [`CompiledEngine`] several times over.
//!
//! # Reads in place
//!
//! Between cycles no worker thread holds a worker, and every worker
//! stands on the coordinator's cycle, so every read is a read of the
//! owning worker's kernel, with no message: the view (each switch's,
//! NI's and receptor's rows written by the kernel of the shard that
//! owns them — [`CompiledEngine`] writes the same rows over the whole
//! platform), the results' receptors, each worker's phase sub-report,
//! and the gating and stop predicates.
//!
//! # Faults
//!
//! A worker that errors or panics mid-cycle still sends one message
//! per neighbour (possibly partial) and discards what it receives, so
//! no neighbour blocks; its box comes home with the fault, and the
//! step returns it as [`EmulationError::Shard`] on that cycle. The
//! engine is failed from then on: it refuses every later step and
//! every read of the view or results, and reports the coordinator's
//! phases alone, so no read touches a torn kernel.
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
//! # Packet ids without a prefix sum
//!
//! Workers cannot know the platform-wide packet id at release time
//! (that would need a cross-shard prefix sum before the release phase).
//! Instead a worker stamps each released packet with a *provisional*
//! id — shard index and local sequence packed into the id's high bits
//! — which rides inside every flit of the packet. When the coordinator
//! applies a cycle it assigns the final ids in the single-threaded
//! engine's order (releases ascending by generator index) and remaps
//! provisional → final at the ledger boundary, so the [`PacketLedger`]
//! is bit-identical to the compiled engine's.
//!
//! # Gating
//!
//! Hybrid clock gating (see [`crate::clock`]) extends to shards with a
//! **cross-shard event horizon**, read off the workers' kernels in
//! place: the coordinator may fast-forward only when *every* shard is
//! locally quiescent and the ledger carries no in-flight packet, and
//! only up to the minimum next TG event over all shards (clamped to the
//! cycle limit) — a shard never skips past another shard's horizon. A
//! jump costs the workers nothing: the next message simply names the
//! cycle after it, and each TG replays the skipped window lazily before
//! its next real tick, as in [`CompiledEngine`].
//!
//! # Stall forensics
//!
//! The stall watchdog needs the wait-for edges of the cycle it trips
//! on. The workers stand on that cycle when the skeleton asks, so the
//! view gathered there yields the report [`CompiledEngine`] latches.

use crate::clock::{CycleKernel, RunState, SteppableEngine};
use crate::compile::{elaborate, elaborate_routed, Elaboration, OutTarget, HANDLE_IDX};
#[cfg(doc)]
use crate::compiled::CompiledEngine;
use crate::compiled::{CommitSink, CompiledKernel};
use crate::config::PlatformConfig;
use crate::error::{CompileError, EmulationError};
use crate::profile::{lap, Phase, PhaseProfiler, PhaseReport};
use crate::results::EmulationResults;
use crate::view::ArchView;
use nocem_common::flit::Flit;
use nocem_common::ids::{PacketId, SwitchId};
use nocem_common::time::Cycle;
use nocem_stats::latency::LatencyAnalyzer;
use nocem_stats::ledger::PacketLedger;
use nocem_stats::receptor::CompletedPacket;
use nocem_topology::partition::{grid_stripes, PartitionMap};
use nocem_topology::routing::RoutingTables;
use nocem_traffic::trace::TraceDrivenTg;
use std::collections::{BTreeSet, HashMap};
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

/// Everything the coordinator needs to apply one shard's cycle. It
/// rides home inside the worker, and the coordinator drains it, so its
/// buffers are reused from cycle to cycle.
#[derive(Default)]
struct CycleEntry {
    releases: Vec<ReleaseRec>,
    injects: Vec<PacketId>,
    deliveries: Vec<DeliveryRec>,
    stalled_delta: u64,
    error: Option<EmulationError>,
}

/// Runs one section of a worker's cycle and returns its fault, if any:
/// its error, or its panic rendered as a shard fault the coordinator
/// can return (the alternative — letting the worker unwind mid-cycle —
/// would strand its neighbours on a boundary receive and hang the
/// engine).
fn guarded(
    shard: usize,
    section: impl FnOnce() -> Result<(), EmulationError>,
) -> Option<EmulationError> {
    let payload = match catch_unwind(AssertUnwindSafe(section)) {
        Ok(done) => return done.err(),
        Err(payload) => payload,
    };
    let msg = payload
        .downcast_ref::<&str>()
        .copied()
        .map(str::to_owned)
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into());
    Some(EmulationError::Shard {
        shard,
        reason: format!("worker panicked: {msg}"),
    })
}

/// One shard's worker: a full-shape [`CompiledKernel`] (built from the
/// worker's own deterministic re-elaboration of the config, so every
/// RNG stream matches the reference by construction) whose non-owned
/// generators are empty, so only the owned slice ever enters its live
/// sets; non-owned rows never move. The kernel's profiler holds the
/// worker-side phase accumulators (owned-slice compute vs. boundary
/// exchange) and work counters. The worker lives in a box that travels:
/// the coordinator owns it between cycles, the shard's thread while
/// it runs one.
struct Worker {
    eng: CompiledKernel,
    boundary: Boundary,
    out_txs: Vec<Sender<NeighborMsg>>,
    in_rxs: Vec<Receiver<NeighborMsg>>,
    /// The last cycle's ledger events and fault.
    entry: CycleEntry,
    /// Fault injection: panic computing this cycle.
    #[cfg(test)]
    fault: Option<u64>,
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
    /// Executes one cycle into [`Worker::entry`]: compute the owned
    /// slice, send one boundary message per neighbour, then receive and
    /// replay one per in-neighbour — or, after a fault, discard it.
    fn step(&mut self, now: Cycle) {
        let shard = self.boundary.shard;
        let mut t = self.eng.profiler.as_mut().map(|p| {
            p.add_cycles(1);
            p.begin()
        });
        self.entry.error = guarded(shard, || self.compute_cycle(now));
        lap(self.eng.profiler.as_mut(), &mut t, Phase::WorkerCompute);
        // The exchange section: everything from here to the end of
        // replay is boundary synchronization, not compute.
        // One message per neighbour per cycle, no matter what —
        // possibly partial on error, the cadence is what matters.
        self.send_bufs(now);
        if self.entry.error.is_none() {
            self.entry.error = guarded(shard, || self.recv_replay(now));
        } else {
            for rx in &self.in_rxs {
                let _ = rx.recv();
            }
        }
        lap(self.eng.profiler.as_mut(), &mut t, Phase::Exchange);
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

    /// One compiled cycle over the owned slice — the kernel's own
    /// phases over its live sets (which only ever hold owned
    /// generators, NIs and switches), with ledger events buffered
    /// instead of applied and the shard boundary as the commit's sink.
    /// Everything around the cycle is the coordinator's job.
    fn compute_cycle(&mut self, now: Cycle) -> Result<(), EmulationError> {
        #[cfg(test)]
        assert_ne!(
            Some(now.raw()),
            self.fault,
            "injected fault at cycle {}",
            now.raw()
        );
        let Worker {
            eng,
            boundary,
            entry,
            ..
        } = self;
        let stalled = eng.stalled;
        eng.release_phase(now, |_, gidx, prov, len_flits| {
            entry.releases.push(ReleaseRec {
                gidx: gidx as u32,
                prov,
                len_flits,
            });
            Ok(())
        })?;
        entry.stalled_delta = eng.stalled - stalled;
        eng.decide_phase();
        eng.inject_phase(|_, prov| {
            entry.injects.push(prov);
            Ok(())
        })?;

        // The shard's switches commit in ascending global order — the
        // reference order within this slice. The cross-shard
        // interleaving is recovered at replay.
        eng.commit_phase(now, boundary)?;
        entry.deliveries.append(&mut boundary.deliveries);
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
                reason: "a neighbour shard hung up mid-cycle".into(),
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
}

/// One shard's thread, seen from the coordinator.
struct Shard {
    /// The worker, home between cycles; `None` while the thread runs a
    /// cycle, and for good once the thread has died.
    worker: Option<Box<Worker>>,
    /// To the thread: the worker and the cycle to run.
    run: Sender<(Box<Worker>, Cycle)>,
    /// From the thread: the worker, once built and after every cycle.
    home: Receiver<Box<Worker>>,
    join: Option<JoinHandle<()>>,
}

impl Shard {
    fn kernel(&self) -> &CompiledKernel {
        let worker = self.worker.as_deref();
        &worker.expect("workers are home between cycles").eng
    }
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
/// ledger, same statistics, same telemetry — on every cycle.
pub struct ShardedCompiledEngine {
    config: PlatformConfig,
    run: RunState,
    shards: Vec<Shard>,
    partition: PartitionMap,
    ledger: PacketLedger,
    receptor_latency: Vec<LatencyAnalyzer>,
    next_packet: u64,
    stalled: u64,
    delivered_flits: u64,
    /// Provisional → final id for every in-flight packet.
    prov_map: HashMap<PacketId, PacketId>,
    failed: bool,
    /// Coordinator-side phase accumulators, when profiling is on.
    profiler: Option<PhaseProfiler>,
    /// The view the workers write their owned rows into.
    view: ArchView,
}

impl std::fmt::Debug for ShardedCompiledEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCompiledEngine")
            .field("name", &self.config.name)
            .field("shards", &self.shards.len())
            .field("cycle", &self.run.now)
            .field("delivered", &self.ledger.delivered())
            .finish_non_exhaustive()
    }
}

impl ShardedCompiledEngine {
    /// Compiles `config` into exactly `shards` grid stripes.
    ///
    /// # Errors
    ///
    /// Propagates [`CompileError`] from elaboration or partitioning.
    pub fn with_shards(config: &PlatformConfig, shards: usize) -> Result<Self, CompileError> {
        Self::from_elaboration(elaborate(config)?, shards)
    }

    /// Shards a pre-built elaboration into `shards` grid stripes —
    /// the reuse hook for callers that elaborate once and run many
    /// engine variants.
    ///
    /// # Errors
    ///
    /// Propagates [`CompileError::Partition`] from the partitioner.
    pub fn from_elaboration(elab: Elaboration, shards: usize) -> Result<Self, CompileError> {
        let map =
            grid_stripes(&elab.config.topology, shards).map_err(|e| CompileError::Partition {
                reason: e.to_string(),
            })?;
        Self::with_partition(elab, map)
    }

    /// Wraps an elaboration into a sharded compiled engine using an
    /// explicit partition map.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::Partition`] if `map` does not cover the
    /// elaboration's topology.
    pub fn with_partition(elab: Elaboration, map: PartitionMap) -> Result<Self, CompileError> {
        let (have, want) = (map.switch_count(), elab.config.topology.switch_count());
        if have != want {
            let reason = format!("the partition map covers {have} switches, not {want}");
            return Err(CompileError::Partition { reason });
        }
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

        let mut shard_threads = Vec::with_capacity(shards);
        let mut txs = txs.into_iter();
        let mut rxs = rxs.into_iter();
        for (k, nbr_list) in nbr_lists.iter().enumerate() {
            let (run_tx, run_rx) = mpsc::channel();
            let (home_tx, home_rx) = mpsc::channel();
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
                    let mut worker = Box::new(build_worker(
                        k,
                        &worker_config,
                        worker_routing,
                        &worker_map,
                        nbr_list,
                        out_txs,
                        in_rxs,
                    ));
                    #[cfg(test)]
                    (worker.fault = fault);
                    // Home once built, then once after every cycle; the
                    // coordinator closing its end stops the thread.
                    while home_tx.send(worker).is_ok() {
                        let Ok((next, now)) = run_rx.recv() else {
                            return;
                        };
                        worker = next;
                        worker.step(now);
                    }
                })
                .expect("spawn sharded-compiled worker");
            shard_threads.push(Shard {
                worker: None,
                run: run_tx,
                home: home_rx,
                join: Some(join),
            });
        }

        let mut engine = ShardedCompiledEngine {
            run: RunState::new(&config),
            config,
            shards: shard_threads,
            partition: map,
            ledger: PacketLedger::new(),
            receptor_latency: vec![LatencyAnalyzer::new(); receptor_count],
            next_packet: 0,
            stalled: 0,
            delivered_flits: 0,
            prov_map: HashMap::new(),
            failed: false,
            profiler,
            view,
        };
        // A worker that panics coming up re-raises its panic here.
        engine.gather().expect("every worker comes home once built");
        Ok(engine)
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
    /// quiescent and no packet in flight. A failed engine never is.
    pub fn is_quiescent(&self) -> bool {
        !self.failed
            && self.ledger.in_flight() == 0
            && self.shards.iter().all(|s| s.kernel().is_quiescent())
    }

    /// The kernel of the shard that owns switch `s`.
    fn owner(&self, s: SwitchId) -> &CompiledKernel {
        self.shards[self.partition.shard_of(s)].kernel()
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

    /// Applies the cycle every worker brought home to the coordinator
    /// state in the single-threaded engine's event order: releases
    /// ascending by generator index (id assignment), then injections,
    /// then deliveries ascending by (ejecting switch, output port).
    fn apply_cycle(&mut self) -> Result<(), EmulationError> {
        let now = self.run.now;
        let mut first_error: Option<EmulationError> = None;
        let mut releases: Vec<ReleaseRec> = Vec::new();
        let mut injects: Vec<PacketId> = Vec::new();
        let mut deliveries: Vec<DeliveryRec> = Vec::new();
        for shard in &mut self.shards {
            let e = &mut shard.worker.as_mut().expect("every worker came home").entry;
            if let Some(err) = e.error.take() {
                first_error.get_or_insert(err);
            }
            releases.append(&mut e.releases);
            injects.append(&mut e.injects);
            deliveries.append(&mut e.deliveries);
            self.stalled += e.stalled_delta;
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

    /// Poisons the engine: nothing is applied after `e`.
    fn fail(&mut self, e: EmulationError) -> EmulationError {
        self.failed = true;
        e
    }

    /// Receives every worker home, in shard order.
    fn gather(&mut self) -> Result<(), EmulationError> {
        for k in 0..self.shards.len() {
            match self.shards[k].home.recv() {
                Ok(worker) => self.shards[k].worker = Some(worker),
                Err(_) => return Err(self.worker_died(k)),
            }
        }
        Ok(())
    }

    /// Shard `dead`'s thread is gone without its worker (in-cycle
    /// panics are caught and come home in the entry). Join it and
    /// re-raise its panic.
    fn worker_died(&mut self, dead: usize) -> EmulationError {
        self.failed = true;
        if let Some(join) = self.shards[dead].join.take() {
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

    /// Collects full run results from the view and every receptor, read
    /// in place from the shard that owns it — value-equal to
    /// [`CompiledEngine::results`] for the same run.
    ///
    /// # Errors
    ///
    /// Returns [`EmulationError::Shard`] when an earlier step failed.
    pub fn results(&mut self) -> Result<EmulationResults, EmulationError> {
        CycleKernel::arch_view(self)?;
        let topo = &self.config.topology;
        let receptors = topo.receptors().into_iter().enumerate();
        let receptors = receptors.map(|(r, e)| &self.owner(topo.endpoint(e).switch).receptors[r]);
        Ok(EmulationResults::from_view(
            &self.config.name,
            self.summary(),
            self.stalled,
            &self.view,
            receptors,
        ))
    }
}

impl Drop for ShardedCompiledEngine {
    /// Closes every thread's channel, which ends its loop, and joins
    /// the threads — unless a worker never came home: then its thread
    /// has died and the survivors are left to end on their own.
    fn drop(&mut self) {
        let home = self.shards.iter().all(|s| s.worker.is_some());
        for shard in self.shards.drain(..) {
            drop(shard.run);
            if let Some(join) = shard.join.filter(|_| home) {
                let _ = join.join();
            }
        }
    }
}

/// The coordinator under the one step skeleton. Its "cycle" is one
/// round trip to every worker, applied before it returns, so per-cycle
/// observability (`now`, `delivered`, the view, lockstep comparisons)
/// is identical to the single-threaded engines.
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

    /// The cross-shard jump, on a quiescent platform about to execute
    /// cycle `now` — the predicate [`CompiledEngine`]'s `idle_jump`
    /// evaluates there.
    fn idle_jump(&mut self, now: Cycle, horizon: u64) -> u64 {
        if !self.is_quiescent() {
            return 0;
        }
        let next = self.shards.iter().map(|s| s.kernel().tg_min_next).min();
        next.unwrap_or(u64::MAX)
            .min(horizon)
            .saturating_sub(now.raw())
    }

    fn cycle(&mut self, now: Cycle, t: &mut Option<Instant>) -> Result<(), EmulationError> {
        self.check_alive()?;
        for k in 0..self.shards.len() {
            let worker = self.shards[k].worker.take();
            let worker = worker.expect("workers are home between cycles");
            if self.shards[k].run.send((worker, now)).is_err() {
                return Err(self.worker_died(k));
            }
        }
        self.gather()?;
        lap(self.profiler.as_mut(), t, Phase::CoordWait);
        let applied = self.apply_cycle();
        lap(self.profiler.as_mut(), t, Phase::Apply);
        applied
    }

    /// Every shard's kernel plus the ledger; a failed engine never
    /// drains.
    fn drained(&self) -> bool {
        !self.failed
            && self.ledger.in_flight() == 0
            && self.shards.iter().all(|s| s.kernel().drained())
    }

    /// Every switch's, NI's and receptor's rows, written by the kernel
    /// of the shard that owns them; a trace receptor's latency from the
    /// coordinator, which books every delivery.
    fn arch_view(&mut self) -> Result<&ArchView, EmulationError> {
        self.check_alive()?;
        let mut view = std::mem::take(&mut self.view);
        view.alloc_live();
        for s in 0..self.partition.switch_count() {
            self.owner(SwitchId::new(s as u32))
                .write_switch(&mut view, s);
        }
        let topo = &self.config.topology;
        for (i, g) in topo.generators().into_iter().enumerate() {
            self.owner(topo.endpoint(g).switch).write_ni(&mut view, i);
        }
        let booked = self.receptor_latency.iter();
        for (r, (e, booked)) in topo.receptors().into_iter().zip(booked).enumerate() {
            self.owner(topo.endpoint(e).switch)
                .write_receptor(&mut view, r);
            if let Some(latency) = &mut view.receptors[r].latency {
                *latency = *booked;
            }
        }
        self.view = view;
        Ok(&self.view)
    }

    fn ledger(&self) -> impl std::ops::Deref<Target = PacketLedger> + '_ {
        &self.ledger
    }

    fn delivered_flits(&self) -> u64 {
        self.delivered_flits
    }

    /// The coordinator's phases with every worker's absorbed, plus one
    /// sub-report per worker — the coordinator's alone once the engine
    /// has failed.
    fn phase_report(&mut self) -> Option<PhaseReport> {
        let mut agg = self.profiler.clone()?;
        let mut workers = Vec::new();
        let shards = if self.failed {
            &[][..]
        } else {
            &self.shards[..]
        };
        for (k, shard) in shards.iter().enumerate() {
            if let Some(wp) = &shard.kernel().profiler {
                agg.absorb(wp);
                workers.push(wp.report(format!("shard-{k}")));
            }
        }
        let mut report = agg.report(format!("{}/{}", Self::LABEL, self.shards.len()));
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
fn build_worker(
    shard: usize,
    config: &PlatformConfig,
    routing: RoutingTables,
    map: &PartitionMap,
    nbr_list: Vec<usize>,
    out_txs: Vec<Sender<NeighborMsg>>,
    in_rxs: Vec<Receiver<NeighborMsg>>,
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
    let mut eng = CompiledKernel::new(elab);
    eng.next_packet = first_provisional_id(shard);
    let switch_shard: Vec<u16> = (0..eng.low.switch_count)
        .map(|s| map.shard_of(SwitchId::new(s as u32)) as u16)
        .collect();
    let mut out_slot_shard = vec![0u16; eng.low.total_out_slots()];
    for (s, &owner) in switch_shard.iter().enumerate() {
        let range = eng.low.out_slot_base[s] as usize..eng.low.out_slot_base[s + 1] as usize;
        out_slot_shard[range].fill(owner);
    }
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
        boundary,
        out_txs,
        in_rxs,
        entry: CycleEntry::default(),
        #[cfg(test)]
        fault: None,
    }
}

#[cfg(test)]
#[path = "../../../tests/support/watchdog.rs"]
mod watchdog;

#[cfg(test)]
mod tests {
    use super::watchdog::within_a_minute;
    use super::*;
    use crate::config::PaperConfig;
    use crate::profile::ProfileConfig;
    use std::cell::Cell;

    thread_local! {
        /// `(shard, cycle)`: in engines built on this thread, that
        /// shard's worker panics computing that cycle.
        static FAULT: Cell<Option<(usize, u64)>> = const { Cell::new(None) };
    }

    /// The fault cycle armed for shard `k` by the constructing thread.
    pub(super) fn fault_for(k: usize) -> Option<u64> {
        FAULT.get().filter(|f| f.0 == k).map(|f| f.1)
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

    /// A worker panic surfaces as a typed error on exactly the cycle
    /// it happened, poisons the engine for good, strands nobody and
    /// lets the engine drop. Every later read returns at once without
    /// touching the torn kernel: the view and the results are refused,
    /// and the phase report is the coordinator's alone.
    #[test]
    fn worker_panic_mid_window_is_a_shard_fault_not_a_hang() {
        within_a_minute(|| {
            // Shard 1 faults while shard 0 (which owns the paper's four
            // TGs) keeps sending flits across the boundary.
            FAULT.set(Some((1, 20)));
            let mut cfg = PaperConfig::new().total_packets(1_000_000).uniform();
            cfg.profile = Some(ProfileConfig::default());
            let mut engine = ShardedCompiledEngine::with_shards(&cfg, 2).unwrap();
            for cycle in 0..20 {
                engine.step().unwrap();
                assert_eq!(engine.now().raw(), cycle + 1);
            }
            assert_eq!(engine.profile().unwrap().workers.len(), 2);
            assert_shard1_fault(engine.step().unwrap_err(), 20);
            assert_eq!(engine.now().raw(), 20, "the faulting cycle is not applied");
            for _ in 0..2 {
                assert!(matches!(engine.step(), Err(EmulationError::Shard { .. })));
                assert!(matches!(
                    SteppableEngine::arch_view(&mut engine),
                    Err(EmulationError::Shard { .. })
                ));
                assert!(matches!(
                    engine.results(),
                    Err(EmulationError::Shard { .. })
                ));
                let report = engine.profile().unwrap();
                assert_eq!(report.label, "sharded-compiled/2");
                assert!(report.workers.is_empty(), "{:?}", report.workers);
            }
            // Joins both workers.
            drop(engine);
        });
    }

    /// A register read after the failure is a typed bus error: the
    /// board reads devices through the view, which a failed engine
    /// refuses.
    #[test]
    fn a_failed_run_reads_as_a_bus_error_over_the_board() {
        use crate::board::Board;
        use crate::devices::TrDriver;
        use nocem_platform::bus::{BusError, DeviceClass};
        within_a_minute(|| {
            FAULT.set(Some((1, 5)));
            let cfg = PaperConfig::new().total_packets(1_000_000).uniform();
            let elab = elaborate(&cfg).unwrap();
            let mut board =
                Board::new(elab, |e| ShardedCompiledEngine::from_elaboration(e, 2)).unwrap();
            let tr = board.address_map().of_class(DeviceClass::TrafficReceptor);
            let tr = TrDriver::new(tr.last().unwrap().addr);
            assert_eq!(tr.packets(&mut board), Ok(0));
            let err = crate::clock::run_engine(board.engine_mut()).unwrap_err();
            assert_shard1_fault(err, 5);
            assert!(matches!(
                tr.packets(&mut board),
                Err(BusError::Unreadable { .. })
            ));
        });
    }
}
