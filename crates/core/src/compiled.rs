//! The compiled data-oriented engine: elaborate once, run flat arrays.
//!
//! [`CompiledEngine`] is the paper's synthesize-then-execute split in
//! software. Where [`crate::engine::Emulation`] interprets the
//! elaborated object graph every cycle (per-switch `Vec<Vec<...>>`
//! buffers, a `Vec<Transfer>` allocated per switch per cycle),
//! this engine [`lower`]s the elaboration once into
//! [`LoweredPlatform`] — one FIFO arena, dense credit/worm arrays, and
//! the elaboration's own routes, asked where the interpreted switches
//! ask them — and then steps the whole platform as
//! tight loops over those arrays with no per-cycle allocation and no
//! per-flit virtual dispatch (only the per-TG `tick` stays virtual,
//! which keeps the generators' RNG streams identical by construction).
//!
//! The cycle semantics are *bit-identical* to `Emulation`: each phase
//! below mirrors the corresponding `Switch`/engine code path decision
//! for decision, in the same ascending orders, including arbiter
//! pointer movement and selection-LFSR stepping. The lockstep tests
//! (`tests/compiled_engine.rs`) prove ledger equality cycle by cycle.
//!
//! Speed comes from doing only *event* work, never *structure* work:
//!
//! * **Occupancy bitmasks** — each switch keeps a mask of its
//!   occupied input slots, so request generation, arbitration, grant
//!   application and congestion accounting iterate set bits
//!   (ascending, preserving the reference order) instead of scanning
//!   every slot. A fully empty switch is skipped in O(1). A mask is one
//!   `u64` where the switch has at most 64 input and 64 output slots,
//!   and a run of words only where it has more (a large star hub):
//!   one decide and one commit serve every width, and the one-word
//!   instances keep their masks in registers.
//! * **Mask arbiters** — the round-robin arbiter is two bit
//!   operations over the request mask instead of a probe loop.
//! * **Straight-line slot visit and flit move** — a saturated step is
//!   instruction-bound and flat (≈ 320 slot visits, ≈ 200 output
//!   decisions, ≈ 120 flit moves a cycle on an 8×8 mesh), and what it
//!   used to branch on — worm body or waiting head, tail or not, FIFO
//!   drained or not — is close to random there. A slot now reads the
//!   one out-slot it requests ([`crate::compile::InSlotState::want`])
//!   and branches only to route a fresh head; a move adds its tail /
//!   drained / finite-credit flags in as 0 or 1 and branches only on
//!   where the credit and the flit go. (The same treatment of an
//!   output decision — arbitrate over `busy ? its worm : the fresh
//!   heads` through selects — measured no gain and stayed a branch;
//!   persistent per-output request masks bought 2–3 % of a step: the
//!   routing was already cached, the cost was the branch.)
//! * **No software popcount** — the default x86-64 target has no
//!   `popcnt`; congestion accounting counts waiting inputs through a
//!   byte table instead of `count_ones()`'s SWAR sequence.
//! * **No division** — ring-buffer indices and VC arithmetic use
//!   conditional subtraction and precomputed slot→port tables; the
//!   interpreted engine's `%` by runtime FIFO depth and VC count is
//!   one of its largest per-cycle costs.
//! * **Event-scheduled sources** — a generator whose
//!   [`TrafficGenerator::next_event_cycle`] lies in the future is not
//!   ticked; the skipped pure-countdown window is replayed exactly
//!   with [`TrafficGenerator::skip_to`] right before its next real
//!   tick, and a due-calendar (`crate::calendar`) hands each cycle the
//!   generators due at it. An NI without a credit sleeps until a pop
//!   returns one, booking the blocked cycles it slept through at the
//!   wake (probes add those still owed).
//! * **No allocation** — grants, requests and transfers live in
//!   persistent scratch reused every cycle.

use crate::calendar::DueCalendar;
use crate::clock::{self, CycleKernel, RunState, SteppableEngine};
use crate::compile::{
    lower, Elaboration, LoweredInFeed, LoweredOutDest, LoweredPlatform, OutSlotState, HANDLE_HEAD,
    HANDLE_IDX, HANDLE_TAIL, LOWERED_NONE, SLOT_NONE,
};
use crate::error::EmulationError;
use crate::profile::{lap, Phase, PhaseProfiler};
use crate::results::EmulationResults;
use crate::view::{ArchView, LinkCounts, ReceptorRow};
use nocem_common::flit::{Flit, PacketDescriptor};
use nocem_common::ids::{EndpointId, PacketId, PortId, SwitchId, VcId};
use nocem_common::rng::Lfsr16;
use nocem_common::route::RouteHop;
use nocem_common::time::Cycle;
use nocem_stats::ledger::{LedgerError, PacketLedger};
use nocem_stats::receptor::{CompletedPacket, Receptor};
use nocem_switch::arbiter::ArbiterKind;
use nocem_switch::config::SelectionPolicy;
use nocem_switch::fifo::FifoFullError;
use nocem_switch::switch::CREDITS_INFINITE;
use nocem_traffic::generator::{PacketRequest, TrafficGenerator};
use nocem_traffic::ni::SourceNi;
use std::time::Instant;

/// A set of indices below a fixed bound, one bit each, walked in
/// ascending order (the reference engine's order) word by word.
#[derive(Debug, Clone)]
struct LiveSet(Vec<u64>);

impl LiveSet {
    fn new(bound: usize) -> Self {
        LiveSet(vec![0; bound.div_ceil(64)])
    }

    #[inline]
    fn insert(&mut self, i: usize) {
        self.0[i >> 6] |= 1 << (i & 63);
    }

    #[inline]
    fn remove(&mut self, i: usize) {
        self.0[i >> 6] &= !(1 << (i & 63));
    }

    #[inline]
    fn contains(&self, i: usize) -> bool {
        self.0[i >> 6] & (1 << (i & 63)) != 0
    }

    fn is_empty(&self) -> bool {
        self.0.iter().all(|&w| w == 0)
    }
}

/// The compiled engine: the flat arrays and their four phases under
/// the shared step skeleton ([`crate::clock`]).
///
/// Built from an [`Elaboration`] via [`CompiledEngine::new`]; selected
/// through [`crate::config::EngineKind::Compiled`] everywhere a config
/// picks an engine ([`crate::sweep::AnyEngine`], sweeps, curves).
pub struct CompiledEngine {
    run: RunState,
    /// The architectural-state view [`CycleKernel::arch_view`] fills.
    view: ArchView,
    /// The platform's name (`PlatformConfig::name`), which results carry.
    name: String,
    low: LoweredPlatform,
    tgs: Vec<Box<dyn TrafficGenerator + Send>>,
    nis: Vec<SourceNi>,
    receptors: Vec<Receptor>,
    generator_endpoints: Vec<EndpointId>,
    ledger: PacketLedger,
    next_packet: u64,
    /// Per-TG output register: a request the source queue could not
    /// absorb yet (the model is clock-gated while this is occupied).
    pending: Vec<Option<PacketRequest>>,
    /// Per TG: earliest cycle whose tick is not a pure no-op — ticks
    /// strictly before it are deferred and replayed with `skip_to`.
    tg_next_event: Vec<u64>,
    /// Per TG: first cycle whose (deferred) tick has not been
    /// replayed yet.
    tg_synced: Vec<u64>,
    /// Every TG neither parked nor exhausted, filed under its
    /// `tg_next_event`.
    calendar: DueCalendar,
    /// The earliest filed TG event: below it, with nothing parked, the
    /// whole TG phase is a no-op. Recomputed whenever the phase runs.
    tg_min_next: u64,
    /// Occupied `pending` registers.
    tg_parked: LiveSet,
    /// TGs that report `is_exhausted()` (they never tick again).
    exhausted: usize,
    /// NIs holding a queued or half-serialized packet and awake;
    /// `tick_send` on any other NI is a no-op and is skipped.
    ni_live: LiveSet,
    /// NIs holding a packet but no credit, asleep until one returns:
    /// they book the blocked cycles they slept through at the wake.
    ni_blocked: LiveSet,
    /// Per NI: the cycle it last fell asleep in `ni_blocked`.
    ni_since: Vec<u64>,
    /// The cycle being stepped — between steps, the last one stepped.
    now: Cycle,
    /// Switches holding a flit (some `occ_mask` word set); only these
    /// can decide anything.
    sw_live: LiveSet,
    /// `sw_live` as of this cycle's decide — the switches commit
    /// visits. Flits landing during the cycle (NI inject, upstream
    /// commits) become visible next cycle, as in the reference.
    sw_decided: Vec<u64>,
    stalled: u64,
    delivered_flits: u64,
    /// Per global output port: cycles some input VC waited on it.
    blocked_out: Vec<u64>,
    /// Per global output port: flits that crossed it.
    forwarded_out: Vec<u64>,
    /// Per `(switch, vc)`: peak fill of any single FIFO of that VC.
    max_vc_occ: Vec<u64>,
    /// Per switch: the words in each of its masks below — one where
    /// its input and output slots fit 64 bits, more only where they do
    /// not. The masks are word-major: word `w` of switch `s` is at
    /// `w * switch_count + s`, so a one-word switch's is at `[s]`.
    mask_words: Vec<u32>,
    /// Per switch: bitmask of occupied local input slots.
    occ_mask: Vec<u64>,
    /// Per switch: out-slots granted by VC allocation this cycle.
    vcg_mask: Vec<u64>,
    /// Per switch: out-ports granted a transfer this cycle.
    grant_mask: Vec<u64>,
    /// Platform-wide buffered flits (O(1) quiescence). A move between
    /// two switches nets to zero, so it is adjusted only where a flit
    /// enters (inject) or leaves (eject).
    total_occ: u64,
    /// Open wormholes (allocated/busy pairs; O(1) quiescence).
    open_worms: u32,
    /// Outstanding finite credits (cap minus current; O(1) quiescence).
    credit_debt: u64,
    /// Per global output slot: this cycle's VC-allocation winner as a
    /// switch-local input slot ([`SLOT_NONE`] = none).
    vc_granted: Vec<u16>,
    /// Per global output port: this cycle's transfer grant, encoded
    /// `(input_slot << 8) | out_vc` ([`LOWERED_NONE`] = none).
    granted: Vec<u32>,
    /// Scratch: per local out-slot, the mask of requesting input slots
    /// (as many words as the deciding switch's masks); set and cleared
    /// within one decide.
    slot_reqs: Vec<u64>,
    /// Lookup: local input slot → input port (hot paths divide by the
    /// VC count through this table instead of the ALU).
    iv_port: Vec<u32>,
    /// Lookup: local output slot → output port.
    slot_port: Vec<u32>,
    /// In-flight flit storage: the arena's handles index this pool, so
    /// a hop moves a four-byte handle instead of a whole [`Flit`]. A
    /// flit is interned at injection and freed at delivery; the free
    /// list recycles pool slots deterministically.
    flit_pool: Vec<Flit>,
    /// Freed pool indices awaiting reuse.
    flit_free: Vec<u32>,
    /// Per-phase self-profiler (None = off, zero timestamp cost).
    profiler: Option<PhaseProfiler>,
}

impl std::fmt::Debug for CompiledEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledEngine")
            .field("name", &self.name)
            .field("cycle", &self.run.now)
            .field("delivered", &self.ledger.delivered())
            .finish_non_exhaustive()
    }
}

/// One VC-allocation arbiter step over a non-empty request *mask*:
/// round-robin picks the smallest requesting index strictly above the
/// pointer, wrapping to the smallest overall — exactly the probe loop
/// of `nocem-switch`'s arbiter, in two bit operations.
#[inline]
fn arb_grant_mask(kind: ArbiterKind, last: &mut u16, reqs: u64) -> u16 {
    debug_assert_ne!(reqs, 0, "mask arbiters only run on requested slots");
    match kind {
        ArbiterKind::RoundRobin => {
            let above = match 1u64.checked_shl(u32::from(*last) + 1) {
                Some(bit) => reqs & !(bit - 1),
                None => 0,
            };
            let pick = if above != 0 {
                above.trailing_zeros() as u16
            } else {
                reqs.trailing_zeros() as u16
            };
            *last = pick;
            pick
        }
        ArbiterKind::FixedPriority => reqs.trailing_zeros() as u16,
    }
}

/// [`arb_grant_mask`] over a request mask of several words.
fn arb_grant_words(kind: ArbiterKind, last: &mut u16, reqs: &[u64]) -> u16 {
    // The smallest requesting index at or above `from`.
    let first_from = |from: usize| {
        let w0 = from >> 6;
        reqs.iter().enumerate().skip(w0).find_map(|(w, &m)| {
            let m = if w == w0 { m & (!0 << (from & 63)) } else { m };
            (m != 0).then(|| (w * 64) as u16 + m.trailing_zeros() as u16)
        })
    };
    let pick = match kind {
        ArbiterKind::RoundRobin => first_from(usize::from(*last) + 1).or_else(|| first_from(0)),
        ArbiterKind::FixedPriority => first_from(0),
    };
    let pick = pick.expect("mask arbiters only run on requested slots");
    if kind == ArbiterKind::RoundRobin {
        *last = pick;
    }
    pick
}

/// The word of a switch mask that holds bit `i`: always the first on a
/// one-word switch, so its masks stay in registers.
#[inline(always)]
fn word<const ONE_WORD: bool>(i: usize) -> usize {
    if ONE_WORD {
        0
    } else {
        i >> 6
    }
}

/// Words of a port mask: ports are numbered by a `u8`.
const PORT_WORDS: usize = 4;

/// Set bits of every byte value. The baseline x86-64 target has no
/// `popcnt`, so `u64::count_ones()` is a 15-instruction SWAR sequence
/// — once per output decision, it was ≈ 5 % of a saturated step.
const ONES: [u8; 256] = {
    let mut t = [0u8; 256];
    let mut i = 1;
    while i < 256 {
        t[i] = t[i >> 1] + (i & 1) as u8;
        i += 1;
    }
    t
};

/// Set bits of `m`, a byte at a time: one table load for the masks
/// real switches produce (the waiting inputs of a switch with eight
/// input slots or fewer), more only for wider ones.
#[inline(always)]
fn ones(mut m: u64) -> u64 {
    let mut n = u64::from(ONES[(m & 0xFF) as usize]);
    while m > 0xFF {
        m >>= 8;
        n += u64::from(ONES[(m & 0xFF) as usize]);
    }
    n
}

/// The multi-path selection policy — the exact semantics of
/// `Switch::select` over the switch-local credit view.
#[inline]
fn select_hop(
    policy: SelectionPolicy,
    hops: &[RouteHop],
    out_state: &[OutSlotState],
    vcs: usize,
    alternate_ptr: &mut u8,
    lfsr: &mut Lfsr16,
) -> RouteHop {
    if hops.len() == 1 {
        return hops[0];
    }
    match policy {
        SelectionPolicy::First => hops[0],
        SelectionPolicy::Alternate => {
            let idx = (*alternate_ptr as usize) % hops.len();
            *alternate_ptr = alternate_ptr.wrapping_add(1);
            hops[idx]
        }
        SelectionPolicy::Random {
            secondary_threshold,
        } => {
            let draw = lfsr.step();
            if draw < secondary_threshold {
                hops[1 + (draw as usize) % (hops.len() - 1)]
            } else {
                hops[0]
            }
        }
        SelectionPolicy::Adaptive => {
            let mut best = hops[0];
            let mut best_credit = out_state[best.port.index() * vcs + best.vc.index()].credits;
            for &h in &hops[1..] {
                let c = out_state[h.port.index() * vcs + h.vc.index()].credits;
                if c > best_credit {
                    best = h;
                    best_credit = c;
                }
            }
            best
        }
    }
}

/// One switch's prefix-sum bases into the slot and port arrays.
#[derive(Clone, Copy)]
struct Bases {
    isb: usize,
    osb: usize,
    ipb: usize,
    opb: usize,
}

/// The error of a flit landing in a full FIFO — an engine bug (credits
/// exist to prevent it), so its construction stays off the hot path.
#[cold]
fn fifo_overflow(switch: usize, depth: usize) -> EmulationError {
    EmulationError::FifoOverflow {
        switch: SwitchId::new(switch as u32),
        source: FifoFullError { capacity: depth },
    }
}

impl CompiledEngine {
    /// Lowers `elab` into the flat arrays and wraps them into a
    /// runnable compiled engine.
    ///
    /// The traffic generators, network interfaces and receptors are
    /// *moved out of* the elaboration and reused as-is — their
    /// per-device state (RNG streams, serializers, histograms) is what
    /// makes the compiled run release- and delivery-identical to the
    /// interpreted one by construction. Only the switches are
    /// re-expressed as flat arrays.
    pub fn new(mut elab: Elaboration) -> Self {
        let run = RunState::new(&elab.config);
        let view = ArchView::new(&elab);
        let low = lower(&elab);
        let profiler = elab.profiler();
        let generator_endpoints = elab.config.topology.generators();
        let tgs = std::mem::take(&mut elab.tgs);
        let nis = std::mem::take(&mut elab.nis);
        let receptors = std::mem::take(&mut elab.receptors);
        let name = std::mem::take(&mut elab.config.name);
        // The engine keeps nothing else of the elaboration, its copy of
        // the config included: free it before the arrays are allocated.
        drop(elab);
        let total_out_slots = low.total_out_slots();
        let total_out_ports = *low.out_port_base.last().expect("prefix sums") as usize;
        let vcs = low.num_vcs;
        // Ports never outnumber slots, so the slot counts size every mask.
        let mask_words: Vec<u32> = (0..low.switch_count)
            .map(|s| (low.inputs[s].max(low.outputs[s]) as usize * vcs).div_ceil(64) as u32)
            .collect();
        let max_words = mask_words.iter().copied().max().unwrap_or(1) as usize;
        let tg_next_event: Vec<u64> = tgs
            .iter()
            .map(|t| t.next_event_cycle(Cycle::ZERO).cycle_or_max())
            .collect();
        let calendar = DueCalendar::new(&tg_next_event);
        CompiledEngine {
            run,
            view,
            tg_min_next: calendar.earliest(0),
            calendar,
            tg_parked: LiveSet::new(tgs.len()),
            exhausted: tgs.iter().filter(|t| t.is_exhausted()).count(),
            ni_live: LiveSet::new(nis.len()),
            ni_blocked: LiveSet::new(nis.len()),
            ni_since: vec![0; nis.len()],
            now: Cycle::ZERO,
            sw_live: LiveSet::new(low.switch_count),
            sw_decided: vec![0; low.switch_count.div_ceil(64)],
            ledger: PacketLedger::new(),
            next_packet: 0,
            pending: vec![None; tgs.len()],
            tg_next_event,
            tg_synced: vec![0; tgs.len()],
            stalled: 0,
            delivered_flits: 0,
            blocked_out: vec![0; total_out_ports],
            forwarded_out: vec![0; total_out_ports],
            max_vc_occ: vec![0; low.switch_count * vcs],
            occ_mask: vec![0; max_words * low.switch_count],
            vcg_mask: vec![0; max_words * low.switch_count],
            grant_mask: vec![0; max_words * low.switch_count],
            total_occ: 0,
            open_worms: 0,
            credit_debt: 0,
            vc_granted: vec![SLOT_NONE; total_out_slots],
            granted: vec![LOWERED_NONE; total_out_ports],
            slot_reqs: vec![0; low.max_out_slots * max_words],
            mask_words,
            iv_port: (0..low.max_in_slots as u32)
                .map(|iv| iv / vcs as u32)
                .collect(),
            slot_port: (0..low.max_out_slots as u32)
                .map(|slot| slot / vcs as u32)
                .collect(),
            flit_pool: Vec::new(),
            flit_free: Vec::new(),
            profiler,
            generator_endpoints,
            tgs,
            nis,
            receptors,
            name,
            low,
        }
    }

    /// Whether nothing is parked, queued, buffered or owed anywhere in
    /// the network — the platform half of quiescence from the
    /// aggregates alone. NI credits need no clause of their own: with
    /// no buffered flit every flit an NI sent has been popped, and the
    /// pop is what returns its credit.
    fn network_idle(&self) -> bool {
        self.total_occ == 0
            && self.tg_parked.is_empty()
            && self.open_worms == 0
            && self.credit_debt == 0
            && self.nis_idle()
    }

    /// Whether no NI holds a packet, awake or asleep.
    fn nis_idle(&self) -> bool {
        self.ni_live.is_empty() && self.ni_blocked.is_empty()
    }

    /// Whether the whole platform is quiescent — the aggregate form of
    /// [`clock::platform_quiescent`]: no packet in flight, no parked TG
    /// request, every NI idle with credits home, no buffered flit, no
    /// open wormhole, every finite credit back at its cap.
    fn is_quiescent(&self) -> bool {
        self.ledger.in_flight() == 0 && self.network_idle()
    }

    /// Debug builds check after every commit — every step boundary,
    /// the last one included — that the switch live set, masks and
    /// counters mirror the state they summarise, and that the two sides
    /// of every wormhole agree: the invariants the straight-line decide
    /// and commit lean on instead of branching. Like the step itself
    /// the sweep costs O(live work): it looks inside the switches this
    /// cycle could have changed (they decided, or hold a flit now), and
    /// audits every switch and the platform-wide sums every 64th cycle.
    #[cfg(debug_assertions)]
    fn assert_network(&self, now: Cycle) {
        let audit = now.raw().is_multiple_of(64);
        let (mut flits, mut busy, mut debt) = (0u64, 0u32, 0u64);
        for w in 0..self.sw_decided.len() {
            let mut m = self.sw_decided[w] | self.sw_live.0[w];
            if audit {
                m = !0 >> (64 - (self.low.switch_count - w * 64).min(64));
            }
            while m != 0 {
                let sums = self.assert_switch(w * 64 + m.trailing_zeros() as usize);
                (flits, busy, debt) = (flits + sums.0, busy + sums.1, debt + sums.2);
                m &= m - 1;
            }
        }
        if audit {
            assert_eq!(self.total_occ, flits, "platform flit count");
            assert_eq!(self.open_worms, busy, "open wormholes");
            assert_eq!(self.credit_debt, debt, "outstanding credits");
        }
        assert!(!self.network_idle() || self.nis.iter().all(SourceNi::credits_home));
    }

    /// One switch of [`Self::assert_network`]; returns its buffered
    /// flits, busy out-slots and outstanding finite credits.
    #[cfg(debug_assertions)]
    fn assert_switch(&self, s: usize) -> (u64, u32, u64) {
        let low = &self.low;
        let (isb, osb) = (low.in_slot_base[s] as usize, low.out_slot_base[s] as usize);
        let ins = &low.in_state[isb..low.in_slot_base[s + 1] as usize];
        let outs = &low.out_state[osb..low.out_slot_base[s + 1] as usize];
        let n = low.switch_count;
        let occ_bit = |iv: usize| self.occ_mask[(iv >> 6) * n + s] & (1 << (iv & 63)) != 0;
        // One verdict per switch keeps the sweep cheap enough to run
        // every cycle of every debug-build test.
        let (mut held, mut occupied, mut ok) = (0u64, 0u64, true);
        let (mut busy, mut debt) = (0u32, 0u64);
        for (iv, st) in ins.iter().enumerate() {
            held += u64::from(st.len);
            occupied += u64::from(st.len > 0);
            ok &= (st.len > 0) == occ_bit(iv);
            // Allocated means: wants a slot, and that slot says so.
            ok &= st.allocated
                == (st.want != SLOT_NONE && outs[usize::from(st.want)].busy_with == iv as u16);
        }
        for (o, os) in outs.iter().enumerate() {
            if os.busy_with != SLOT_NONE {
                busy += 1;
                let owner = ins[usize::from(os.busy_with)];
                ok &= owner.allocated && owner.want == o as u16;
            }
            let cap = low.credit_cap[osb + o];
            if cap != CREDITS_INFINITE {
                debt += u64::from(cap - os.credits);
            }
        }
        let live = self.sw_live.contains(s);
        ok &= live == (held > 0);
        let words = 0..self.mask_words[s] as usize;
        ok &= occupied == words.map(|w| ones(self.occ_mask[w * n + s])).sum::<u64>();
        assert!(ok, "switch {s}: live {live}\n{ins:?}\n{outs:?}");
        (held, busy, debt)
    }

    /// Debug builds check before every release, the calendar caught up
    /// with `now`, that the source-side live sets, calendar and counters
    /// mirror the TGs and NIs they summarise.
    #[cfg(debug_assertions)]
    fn assert_sources(&self, now: Cycle) {
        for (i, ni) in self.nis.iter().enumerate() {
            let (awake, asleep) = (self.ni_live.contains(i), self.ni_blocked.contains(i));
            let bits = u8::from(awake) + u8::from(asleep);
            assert_eq!(bits, u8::from(!ni.is_idle()), "NI bits {i}");
            assert!(!asleep || ni.credits() == 0, "NI {i} sleeps on a credit");
        }
        for (i, req) in self.pending.iter().enumerate() {
            assert_eq!(self.tg_parked.contains(i), req.is_some(), "parked bit {i}");
        }
        assert_eq!(
            self.exhausted,
            self.tgs.iter().filter(|t| t.is_exhausted()).count()
        );
        let filed = |i: usize| {
            let e = self.tg_next_event[i];
            (e != u64::MAX && self.pending[i].is_none()).then_some(e)
        };
        self.calendar.assert_files(now.raw(), self.tgs.len(), filed);
        assert_eq!(self.tg_min_next, self.calendar.earliest(now.raw()));
    }

    /// Replays TG `i`'s deferred pure-countdown window `[synced, now)`
    /// so its next tick observes exactly the state an every-cycle run
    /// would have produced. The window may span any number of deferred
    /// ticks and clock-gated jumps: `skip_to` composes.
    #[inline]
    fn sync_tg(&mut self, i: usize, now: Cycle) {
        if self.tg_synced[i] < now.raw() {
            self.tgs[i].skip_to(Cycle::new(self.tg_synced[i]), now);
        }
    }

    /// Anchors TG `i`'s event window at the next tickable cycle after
    /// a tick (or an un-park — the tick clock is paused while parked).
    #[inline]
    fn reanchor_tg(&mut self, i: usize, now: Cycle) {
        self.tg_synced[i] = now.raw() + 1;
        self.tg_next_event[i] = self.tgs[i].next_event_cycle(now.next()).cycle_or_max();
    }

    /// Runs one ledger call, charged to the nested ledger phase when
    /// profiling.
    #[inline]
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

    /// Phase 1 — traffic models release packets into their NIs, each
    /// booked in the ledger. While the clock is below the earliest TG
    /// event and no request is parked every tick would be a pure
    /// countdown, so the phase is skipped whole; otherwise the due and the parked TGs are visited in
    /// index order (the order packet ids are assigned in). Ids count up
    /// from `next_packet`.
    fn release_phase(&mut self, now: Cycle) -> Result<(), EmulationError> {
        self.now = now;
        self.calendar.advance(now.raw());
        #[cfg(debug_assertions)]
        self.assert_sources(now);
        if now.raw() < self.tg_min_next && self.tg_parked.is_empty() {
            if let Some(p) = self.profiler.as_mut() {
                p.work.tg_phases_skipped += 1;
            }
            return Ok(());
        }
        for w in 0..self.calendar.words() {
            let mut m = self.calendar.take_due(now.raw(), w) | self.tg_parked.0[w];
            if let Some(p) = self.profiler.as_mut() {
                p.work.tg_polls += ones(m);
            }
            while m != 0 {
                let i = w * 64 + m.trailing_zeros() as usize;
                m &= m - 1;
                let Some(req) = self.poll_tg(i, now) else {
                    continue;
                };
                let id = PacketId::new(self.next_packet);
                self.next_packet += 1;
                let desc = PacketDescriptor {
                    id,
                    src: self.generator_endpoints[i],
                    dst: req.dst,
                    flow: req.flow,
                    len_flits: req.len_flits,
                    release: now,
                };
                let accepted = self.nis[i].offer(desc);
                debug_assert!(accepted, "capacity was checked before the offer");
                // A new packet does not bring a sleeping NI its credit.
                if !self.ni_blocked.contains(i) {
                    self.ni_live.insert(i);
                }
                self.on_ledger(|l| l.release(id, now, req.len_flits))?;
            }
        }
        self.tg_min_next = self.calendar.earliest(now.raw() + 1);
        Ok(())
    }

    /// TG `i`'s request for its NI at `now`, if the NI can take one; `i`
    /// is parked or due now. A parked request retries first, exactly
    /// like the interpreted engine (the model is clock-gated while its
    /// output register is occupied). A due TG is replayed over the
    /// pure-countdown ticks it sat out, in one `skip_to` jump, and
    /// ticked. Either way a TG that leaves this call unparked is filed
    /// under its next event.
    #[inline(always)]
    fn poll_tg(&mut self, i: usize, now: Cycle) -> Option<PacketRequest> {
        if self.pending[i].is_some() {
            if !self.nis[i].can_accept() {
                self.stalled += 1;
                return None;
            }
            self.tg_parked.remove(i);
            self.reanchor_tg(i, now);
            self.calendar.file(i, self.tg_next_event[i], now.raw());
            return self.pending[i].take();
        }
        debug_assert_eq!(self.tg_next_event[i], now.raw(), "TG {i} is due");
        self.sync_tg(i, now);
        let released = self.tgs[i].tick(now);
        self.reanchor_tg(i, now);
        if self.tg_next_event[i] == u64::MAX && self.tgs[i].is_exhausted() {
            self.exhausted += 1;
        }
        if let Some(p) = self.profiler.as_mut() {
            p.work.tg_ticks += 1;
        }
        if released.is_some() && !self.nis[i].can_accept() {
            self.tg_parked.insert(i);
            self.pending[i] = released;
            self.stalled += 1;
            return None;
        }
        self.calendar.file(i, self.tg_next_event[i], now.raw());
        released
    }

    /// Phase 2 — every switch live at the start of the cycle decides.
    /// A switch with no buffered flit can produce no request, move no
    /// pointer and step no LFSR, so it is never looked at. Decide has
    /// no cross-switch effects.
    fn decide_phase(&mut self) {
        self.sw_decided.copy_from_slice(&self.sw_live.0);
        if let Some(p) = self.profiler.as_mut() {
            p.work.switches_scanned += self.sw_decided.len() as u64;
            p.work.switches_decided += self.sw_decided.iter().map(|&w| ones(w)).sum::<u64>();
        }
        let vc1 = self.low.num_vcs == 1;
        for w in 0..self.sw_decided.len() {
            let mut m = self.sw_decided[w];
            while m != 0 {
                let s = w * 64 + m.trailing_zeros() as usize;
                m &= m - 1;
                if self.mask_words[s] > 1 {
                    self.decide_switch::<false>(s);
                } else if vc1 {
                    self.decide_switch_vc1(s);
                } else {
                    self.decide_switch::<true>(s);
                }
            }
        }
    }

    /// Phase 3 — live network interfaces inject (visible to decide
    /// next cycle); each head flit is booked in the ledger.
    /// An NI leaves the set with its last flit, or sleeps until a pop
    /// returns the credit it found missing.
    fn inject_phase(&mut self) -> Result<(), EmulationError> {
        let now = self.now;
        for w in 0..self.ni_live.0.len() {
            let live = self.ni_live.0[w];
            if let Some(p) = self.profiler.as_mut() {
                p.work.ni_ticks += ones(live);
            }
            let mut m = live;
            while m != 0 {
                let i = w * 64 + m.trailing_zeros() as usize;
                m &= m - 1;
                let Some(flit) = self.nis[i].tick_send() else {
                    self.ni_live.remove(i);
                    self.ni_blocked.insert(i);
                    self.ni_since[i] = now.raw();
                    if let Some(p) = self.profiler.as_mut() {
                        p.work.ni_sleeps += 1;
                    }
                    continue;
                };
                if flit.kind.is_tail() && self.nis[i].is_idle() {
                    self.ni_live.remove(i);
                }
                if flit.kind.is_head() {
                    self.on_ledger(|l| l.inject(flit.packet, now))?;
                }
                let (sw, base) = (self.low.inject_switch[i], self.low.inject_slot_base[i]);
                let vc = flit.vc.index();
                let h = self.intern(flit);
                self.total_occ += 1;
                self.land_flit(sw as usize, base, h, vc, self.low.num_vcs)?;
            }
        }
        Ok(())
    }

    /// Interns an injected flit into the pool and returns its arena
    /// handle: the pool index with the head/tail kind flags packed into
    /// the top bits. The free list makes reuse deterministic.
    #[inline]
    fn intern(&mut self, flit: Flit) -> u32 {
        let idx = match self.flit_free.pop() {
            Some(i) => {
                self.flit_pool[i as usize] = flit;
                i
            }
            None => {
                self.flit_pool.push(flit);
                (self.flit_pool.len() - 1) as u32
            }
        };
        debug_assert!(
            idx <= HANDLE_IDX,
            "flit pool exceeds the handle index space"
        );
        let mut h = idx;
        if flit.kind.is_head() {
            h |= HANDLE_HEAD;
        }
        if flit.kind.is_tail() {
            h |= HANDLE_TAIL;
        }
        h
    }

    /// Routes `head`, which faces input `(in_port, in_vc)` = global
    /// slot `slot` of switch `s`: asks the grid router, or looks the
    /// flow up in the switch's route table and runs the selection
    /// policy — shared by all decide paths.
    #[inline]
    fn route_and_select(
        low: &mut LoweredPlatform,
        s: usize,
        slot: usize,
        (in_port, in_vc): (u32, u32),
        head: &Flit,
    ) -> u16 {
        let vcs = low.num_vcs;
        if let Some(router) = &low.router {
            let hop = router.hop(
                SwitchId::new(s as u32),
                head.dst,
                PortId::new(in_port as u8),
                VcId::new(in_vc as u8),
            );
            let enc = (hop.port.index() * vcs + hop.vc.index()) as u16;
            low.in_state[slot].want = enc;
            return enc;
        }
        let osb = low.out_slot_base[s] as usize;
        let oslots = low.out_slot_base[s + 1] as usize - osb;
        let hops = low
            .routing
            .switch_table(SwitchId::new(s as u32))
            .lookup(head.flow);
        // No config reaches this: `compile::validate` admits only registered flows, and
        // `RoutingTables::from_paths_with` gives each an entry on every switch its paths visit.
        assert!(
            !hops.is_empty(),
            "flow {} to {} has no routing entry at this switch",
            head.flow,
            head.dst
        );
        let pick = select_hop(
            low.selection,
            hops,
            &low.out_state[osb..osb + oslots],
            vcs,
            &mut low.in_state[slot].alternate,
            &mut low.lfsrs[s],
        );
        let enc = (pick.port.index() * vcs + pick.vc.index()) as u16;
        low.in_state[slot].want = enc;
        enc
    }

    /// The out-slot occupied input slot `iv` of switch `s` (slots from
    /// `isb`) requests — the one way every decide path reads it. A worm
    /// in progress or a head already routed repeats its standing `want`;
    /// only a fresh head, [`SLOT_NONE`], has to route and select first:
    /// the one data-dependent branch of a slot visit, and a rare one.
    #[inline(always)]
    fn request_of(
        low: &mut LoweredPlatform,
        iv_port: &[u32],
        flit_pool: &[Flit],
        s: usize,
        isb: usize,
        iv: usize,
    ) -> u16 {
        let slot = isb + iv;
        let st = low.in_state[slot];
        if st.want != SLOT_NONE {
            return st.want;
        }
        let h = low.fifo_arena[slot * low.fifo_depth + usize::from(st.head)];
        debug_assert!(
            h & HANDLE_HEAD != 0,
            "unallocated input VC must face a head flit (wormhole ordering)"
        );
        let i = iv_port[iv];
        let at = (i, iv as u32 - i * low.num_vcs as u32);
        Self::route_and_select(low, s, slot, at, &flit_pool[(h & HANDLE_IDX) as usize])
    }

    /// Phase 1 of one switch: requests, then VC allocation, switch
    /// allocation and congestion accounting in one pass per requested
    /// output port, iterating occupied and requested slots only
    /// (ascending bit order = the reference's ascending slot order).
    /// `ONE_WORD` instances serve switches whose masks fit one `u64`.
    ///
    /// The pass per port is exact: an input slot requests one out-slot,
    /// so every out-slot's arbiter and every requester's grant belong
    /// to one port. Only the "one input port sends one flit" rule
    /// couples ports, and it is applied in ascending port order, as in
    /// the reference.
    fn decide_switch<const ONE_WORD: bool>(&mut self, s: usize) {
        let words = if ONE_WORD {
            1
        } else {
            self.mask_words[s] as usize
        };
        let low = &mut self.low;
        let (vcs, n) = (low.num_vcs, low.switch_count);
        let isb = low.in_slot_base[s] as usize;
        let osb = low.out_slot_base[s] as usize;
        let opb = low.out_port_base[s] as usize;

        // Requests. One request mask per out-slot carries worms and
        // fresh heads alike — safely, because a worm bit can only appear
        // in the mask of its own *busy* out-slot, and the VC-allocation
        // arbiter below only ever reads the masks of free out-slots,
        // which are pure fresh heads.
        let mut out_mask = [0u64; PORT_WORDS]; // out-ports with any request
        for w in 0..words {
            let mut m = self.occ_mask[w * n + s];
            while m != 0 {
                let iv = w * 64 + (m.trailing_zeros() & 63) as usize;
                m &= m - 1;
                let hop = Self::request_of(low, &self.iv_port, &self.flit_pool, s, isb, iv);
                self.slot_reqs[usize::from(hop) * words + w] |= 1 << (iv & 63);
                let o = self.slot_port[usize::from(hop)] as usize;
                out_mask[word::<ONE_WORD>(o)] |= 1 << (o & 63);
            }
        }

        let occ = self.occ_mask[s]; // all of a one-word switch's occupancy
        let mut sent_from = [0u64; PORT_WORDS]; // input ports granted
        for (w, &om) in out_mask.iter().enumerate().take(words) {
            let mut om = om;
            while om != 0 {
                let o = w * 64 + (om.trailing_zeros() & 63) as usize;
                om &= om - 1;
                let gp = opb + o;

                // VC allocation: every requested, free, credited VC of
                // the port picks one head. Clearing the request scratch
                // here keeps it all-zero between decides.
                let mut waiting = 0;
                for slot in o * vcs..(o + 1) * vcs {
                    let reqs = &mut self.slot_reqs[slot * words..(slot + 1) * words];
                    if reqs.iter().all(|&r| r == 0) {
                        continue;
                    }
                    waiting += reqs.iter().map(|&r| ones(r)).sum::<u64>();
                    let os = &mut low.out_state[osb + slot];
                    if os.busy_with == SLOT_NONE && os.credits != 0 {
                        self.vc_granted[osb + slot] = if ONE_WORD {
                            arb_grant_mask(low.arbiter, &mut os.arb_last, reqs[0])
                        } else {
                            arb_grant_words(low.arbiter, &mut os.arb_last, reqs)
                        };
                        self.vcg_mask[word::<ONE_WORD>(slot) * n + s] |= 1 << (slot & 63);
                    }
                    reqs.fill(0);
                }

                // Switch allocation: the port transfers at most one
                // flit; each input port sends at most one.
                let base = low.out_vc_ptr[gp] as usize;
                let mut sent = 0;
                for k in 0..vcs {
                    let mut ov = base + k;
                    if ov >= vcs {
                        ov -= vcs;
                    }
                    let gslot = osb + o * vcs + ov;
                    let fresh = self.vc_granted[gslot];
                    let cand = if fresh != SLOT_NONE {
                        // A freshly allocated head (credit was checked
                        // during allocation, this same cycle).
                        fresh
                    } else {
                        // A continuing worm whose output VC has a
                        // credit. An occupied owner always re-requests
                        // its allocation, so the occupancy bit is the
                        // request.
                        let os = low.out_state[gslot];
                        let b = usize::from(os.busy_with);
                        let arrived = |occ: u64| occ & (1 << (b & 63)) != 0;
                        let continues = os.busy_with != SLOT_NONE
                            && os.credits > 0
                            && arrived(if ONE_WORD {
                                occ
                            } else {
                                self.occ_mask[(b >> 6) * n + s]
                            });
                        if continues {
                            os.busy_with
                        } else {
                            SLOT_NONE
                        }
                    };
                    if cand == SLOT_NONE {
                        continue;
                    }
                    let i = self.iv_port[usize::from(cand)] as usize;
                    let taken = &mut sent_from[word::<ONE_WORD>(i)];
                    if *taken & (1 << (i & 63)) != 0 {
                        continue;
                    }
                    *taken |= 1 << (i & 63);
                    self.granted[gp] = (u32::from(cand) << 8) | ov as u32;
                    self.grant_mask[word::<ONE_WORD>(o) * n + s] |= 1 << (o & 63);
                    low.out_vc_ptr[gp] = if ov + 1 == vcs { 0 } else { ov + 1 } as u8;
                    sent = 1;
                    break;
                }

                // Congestion accounting: every requester of the port
                // but the one it granted waits on it.
                self.blocked_out[gp] += waiting - sent;
            }
        }
    }

    /// Phase 1, specialized for one VC and one mask word — the headline
    /// configuration. With `num_vcs == 1` a slot *is* a port
    /// (`iv_port`/`slot_port` are the identity), the switch-allocation
    /// VC rotation degenerates to a single probe and the per-port
    /// "one input sends" constraint coincides with the granted-slot
    /// set, so the whole decide runs on three bit masks.
    fn decide_switch_vc1(&mut self, s: usize) {
        let low = &mut self.low;
        let isb = low.in_slot_base[s] as usize;
        let osb = low.out_slot_base[s] as usize;
        let opb = low.out_port_base[s] as usize;

        // Requests, as in `decide_switch`: one mask per out-port.
        let occ = self.occ_mask[s];
        let mut out_mask: u64 = 0; // out-ports with any request
        let mut m = occ;
        while m != 0 {
            let iv = (m.trailing_zeros() & 63) as usize;
            m &= m - 1;
            let hop = Self::request_of(low, &self.iv_port, &self.flit_pool, s, isb, iv);
            self.slot_reqs[usize::from(hop)] |= 1 << iv;
            out_mask |= 1 << hop;
        }

        // VC allocation, switch allocation and congestion accounting
        // fused into one pass per requested output, ascending port
        // order. With one VC an input requests exactly one output, so
        // two outputs can never grant the same input: a VC-allocation
        // winner *is* the switch-allocation winner, and the inputs
        // left waiting at this output are exactly its ungranted
        // request bits. Clearing the request scratch here keeps it
        // all-zero between decides.
        let mut om = out_mask;
        while om != 0 {
            let o = (om.trailing_zeros() & 63) as usize;
            om &= om - 1;
            let gslot = osb + o;
            let reqs = self.slot_reqs[o];
            self.slot_reqs[o] = 0;
            let os = &mut low.out_state[gslot];
            let cand = if os.busy_with != SLOT_NONE {
                // A busy output continues its worm when credited and
                // the worm's next flit has arrived — fresh heads wait.
                if os.credits > 0 && occ & (1 << os.busy_with) != 0 {
                    os.busy_with
                } else {
                    SLOT_NONE
                }
            } else if os.credits > 0 {
                let iv = arb_grant_mask(low.arbiter, &mut os.arb_last, reqs);
                self.vc_granted[gslot] = iv;
                self.vcg_mask[s] |= 1 << o;
                iv
            } else {
                SLOT_NONE
            };
            if cand != SLOT_NONE {
                self.granted[opb + o] = u32::from(cand) << 8;
                self.grant_mask[s] |= 1 << o;
                self.blocked_out[opb + o] += ones(reqs & !(1 << cand));
            } else {
                self.blocked_out[opb + o] += ones(reqs);
            }
        }
    }

    /// Phase 4 — every switch that decided commits, in ascending order
    /// (the reference order); flits move one hop.
    fn commit_phase(&mut self, now: Cycle) -> Result<(), EmulationError> {
        let vc1 = self.low.num_vcs == 1;
        for w in 0..self.sw_decided.len() {
            let mut m = self.sw_decided[w];
            while m != 0 {
                let s = w * 64 + m.trailing_zeros() as usize;
                m &= m - 1;
                if self.mask_words[s] > 1 {
                    self.commit_switch::<false, false>(s, now)?;
                } else if vc1 {
                    self.commit_switch::<true, true>(s, now)?;
                } else {
                    self.commit_switch::<false, true>(s, now)?;
                }
            }
        }
        #[cfg(debug_assertions)]
        self.assert_network(now);
        Ok(())
    }

    /// Pops the flit granted port `o` of switch `s` (array bases `b`)
    /// and carries the transfer end to end: wormhole, credit and
    /// occupancy bookkeeping on the popping switch, then the
    /// engine-side effects in the interpreted engine's exact transfer
    /// order — return the credit upstream, land the flit downstream.
    /// The one pop-and-forward of every commit; `ONE_VC` folds the
    /// VC arithmetic away for the headline configuration (slot == port,
    /// every flit on VC 0), and `ONE_WORD` the mask-word arithmetic for
    /// a switch whose masks fit one word. What a tail, a drained FIFO or
    /// a finite credit changes is added in as 0 or 1 rather than
    /// branched on: at saturation those flags are coin flips to a branch
    /// predictor.
    /// Liveness of the popping switch is the caller's, once per visit.
    #[inline(always)]
    fn pop_forward<const ONE_VC: bool, const ONE_WORD: bool>(
        &mut self,
        s: usize,
        b: Bases,
        o: usize,
        now: Cycle,
    ) -> Result<(), EmulationError> {
        let vcs = if ONE_VC { 1 } else { self.low.num_vcs };
        let depth = self.low.fifo_depth;
        let g = std::mem::replace(&mut self.granted[b.opb + o], LOWERED_NONE);
        debug_assert_ne!(g, LOWERED_NONE, "only granted ports pop");
        let iv = (g >> 8) as usize;
        let ov = if ONE_VC { 0 } else { (g & 0xFF) as usize };
        let islot = b.isb + iv;
        let ist = &mut self.low.in_state[islot];
        debug_assert!(ist.len > 0, "granted input VC has a flit at its head");
        let head = usize::from(ist.head);
        let h = self.low.fifo_arena[islot * depth + head];
        let tail = h & HANDLE_TAIL != 0;
        ist.head = if head + 1 == depth { 0 } else { head + 1 } as u8;
        ist.len -= 1;
        let drained = ist.len == 0;
        // The tail closes the worm. `SLOT_NONE` is all ones, so OR-ing
        // it in is the clear.
        ist.allocated &= !tail;
        ist.want |= SLOT_NONE * u16::from(tail);
        let n = if ONE_WORD { 0 } else { self.low.switch_count };
        self.occ_mask[(iv >> 6) * n + s] &= !(u64::from(drained) << (iv & 63));
        let ost = &mut self.low.out_state[b.osb + o * vcs + ov];
        let finite = u32::from(ost.credits != CREDITS_INFINITE);
        ost.credits -= finite;
        self.credit_debt += u64::from(finite);
        ost.busy_with |= SLOT_NONE * u16::from(tail);
        self.open_worms -= u32::from(tail);
        // The flit continues on the output VC the allocation chose;
        // the downstream switch lands it in that buffer (the VC rides
        // beside the handle, not in the pooled flit).
        self.forwarded_out[b.opb + o] += 1;
        let (i, v) = if ONE_VC {
            (iv, 0)
        } else {
            let i = self.iv_port[iv] as usize;
            (i, iv - i * vcs)
        };
        match self.low.in_feed[b.ipb + i] {
            LoweredInFeed::Switch { slot_base } => {
                // The upstream output VC the flit occupied is the
                // input VC it just vacated here.
                self.return_credit(slot_base as usize + v);
            }
            LoweredInFeed::Generator { index } => {
                let ni = index as usize;
                self.nis[ni].credit_return();
                if self.ni_blocked.contains(ni) {
                    // Every inject phase it slept through, this cycle's
                    // included, would have counted a blocked cycle.
                    self.ni_blocked.remove(ni);
                    self.ni_live.insert(ni);
                    self.nis[ni].book_blocked(now.raw() - self.ni_since[ni]);
                }
            }
        }
        match self.low.out_dest[b.opb + o] {
            LoweredOutDest::Switch { switch, slot_base } => {
                // A flit moving between two switches leaves `total_occ`
                // alone.
                self.land_flit(switch as usize, slot_base, h, ov, vcs)?;
            }
            LoweredOutDest::Receptor { index } => self.eject(index as usize, h, ov, now)?,
        }
        Ok(())
    }

    /// Returns one credit to output slot `up` (a flit left the input
    /// buffer it feeds).
    #[inline]
    fn return_credit(&mut self, up: usize) {
        let ust = &mut self.low.out_state[up];
        let finite = u32::from(ust.credits != CREDITS_INFINITE);
        ust.credits += finite;
        self.credit_debt -= u64::from(finite);
        debug_assert!(
            finite == 0 || ust.credits <= self.low.credit_cap[up],
            "credit overflow on a lowered output slot"
        );
    }

    /// Applies this cycle's VC allocation of local out-slot `slot`: the
    /// winning head owns its output VC from now on, whether or not its
    /// flit also crosses this cycle — which is why every commit path
    /// applies these before it pops anything.
    #[inline(always)]
    fn apply_vc_grant(&mut self, b: Bases, slot: usize) {
        let gslot = b.osb + slot;
        let iv = std::mem::replace(&mut self.vc_granted[gslot], SLOT_NONE);
        let ist = &mut self.low.in_state[b.isb + usize::from(iv)];
        debug_assert_eq!(ist.want, slot as u16, "granted what it asked for");
        ist.allocated = true;
        self.low.out_state[gslot].busy_with = iv;
        self.open_worms += 1;
    }

    /// The array bases of switch `s`, read once per commit visit.
    #[inline(always)]
    fn bases(&self, s: usize) -> Bases {
        Bases {
            isb: self.low.in_slot_base[s] as usize,
            osb: self.low.out_slot_base[s] as usize,
            ipb: self.low.in_port_base[s] as usize,
            opb: self.low.out_port_base[s] as usize,
        }
    }

    /// Phase 2 of one switch: apply VC allocations, then
    /// pop-and-forward granted flits, both over this cycle's grant
    /// masks. The switch leaves the live set when its last occupied
    /// slot drained (and nothing landed since).
    fn commit_switch<const ONE_VC: bool, const ONE_WORD: bool>(
        &mut self,
        s: usize,
        now: Cycle,
    ) -> Result<(), EmulationError> {
        let b = self.bases(s);
        let (words, n) = if ONE_WORD {
            (1, 0)
        } else {
            (self.mask_words[s] as usize, self.low.switch_count)
        };
        for w in 0..words {
            let mut vm = std::mem::take(&mut self.vcg_mask[w * n + s]);
            while vm != 0 {
                self.apply_vc_grant(b, w * 64 + vm.trailing_zeros() as usize);
                vm &= vm - 1;
            }
        }
        for w in 0..words {
            let mut gm = std::mem::take(&mut self.grant_mask[w * n + s]);
            while gm != 0 {
                let o = w * 64 + gm.trailing_zeros() as usize;
                gm &= gm - 1;
                self.pop_forward::<ONE_VC, ONE_WORD>(s, b, o, now)?;
            }
        }
        if (0..words).all(|w| self.occ_mask[w * n + s] == 0) {
            self.sw_live.remove(s);
        }
        Ok(())
    }

    /// Lands flit handle `h` in the FIFO of `(switch, port base, vc)`
    /// and maintains the switch's occupancy, the live set and the
    /// per-VC watermarks — `Switch::accept` over the arena. Inlined into
    /// every caller: out of line it returned the wide `Result` through
    /// memory once per flit move.
    #[inline(always)]
    fn land_flit(
        &mut self,
        switch: usize,
        slot_base: u32,
        h: u32,
        vc: usize,
        vcs: usize,
    ) -> Result<(), EmulationError> {
        assert!(vc < vcs, "flit arrived on VC {vc} but switch has {vcs} VCs");
        let slot = slot_base as usize + vc;
        let depth = self.low.fifo_depth;
        let ist = &mut self.low.in_state[slot];
        let len = usize::from(ist.len);
        if len == depth {
            return Err(fifo_overflow(switch, depth));
        }
        let pos = usize::from(ist.head) + len;
        ist.len = (len + 1) as u8;
        self.low.fifo_arena[slot * depth + if pos >= depth { pos - depth } else { pos }] = h;
        let iv = slot - self.low.in_slot_base[switch] as usize;
        // Below 64 the word is `[switch]` on every switch, one word or more.
        let at = if iv < 64 {
            switch
        } else {
            (iv >> 6) * self.low.switch_count + switch
        };
        self.occ_mask[at] |= 1 << (iv & 63);
        self.sw_live.insert(switch);
        let wm = switch * vcs + vc;
        let occ = (len + 1) as u64;
        if occ > self.max_vc_occ[wm] {
            self.max_vc_occ[wm] = occ;
        }
        Ok(())
    }

    /// Ejects flit handle `h` on output VC `vc` into receptor `index`:
    /// reads the pooled flit back (stamping the final VC the way each
    /// hop would have), frees its pool slot, runs the receptor and books
    /// the packet this flit completed, if any. Inlined into every
    /// commit: returning the wide `Result` through memory costs a
    /// measurable share of the saturated commit phase.
    #[inline]
    fn eject(&mut self, index: usize, h: u32, vc: usize, now: Cycle) -> Result<(), EmulationError> {
        let idx = h & HANDLE_IDX;
        let mut flit = self.flit_pool[idx as usize];
        flit.vc = VcId::new(vc as u8);
        self.flit_free.push(idx);
        self.total_occ -= 1;
        let r = &mut self.receptors[index];
        let done = r
            .accept(&flit, now)
            .map_err(|source| EmulationError::Receive {
                receptor: r.id(),
                source,
            })?;
        match done {
            Some(pkt) => self.book_delivery(index, pkt, now),
            None => Ok(()),
        }
    }

    /// Books the packet receptor `index` just completed in the ledger.
    fn book_delivery(
        &mut self,
        index: usize,
        pkt: CompletedPacket,
        now: Cycle,
    ) -> Result<(), EmulationError> {
        let lat = self.on_ledger(|l| l.deliver(pkt.id, now, pkt.len_flits))?;
        self.delivered_flits += u64::from(pkt.len_flits);
        self.receptors[index].record_latency(lat.network);
        Ok(())
    }

    /// Fills every row of `view` — the architectural-state producer —
    /// through the last cycle stepped.
    fn read_view(&self, view: &mut ArchView) {
        view.alloc_live();
        let vcs = self.low.num_vcs;
        for (gp, port) in view.ports.iter_mut().enumerate() {
            let (blocked, forwarded) = (self.blocked_out[gp], self.forwarded_out[gp]);
            *port = LinkCounts { blocked, forwarded };
        }
        for (credits, st) in view.credits.iter_mut().zip(&self.low.out_state) {
            *credits = st.credits;
        }
        for (input, st) in view.inputs.iter_mut().zip(&self.low.in_state) {
            input.occupancy = u32::from(st.len);
            input.want = (st.want != SLOT_NONE).then(|| {
                let (want, port) = (usize::from(st.want), self.slot_port[usize::from(st.want)]);
                let vc = VcId::new((want - port as usize * vcs) as u8);
                let port = PortId::new(port as u8);
                RouteHop { port, vc }
            });
            input.worm_open = st.allocated;
        }
        view.watermarks.copy_from_slice(&self.max_vc_occ);
        for (i, (ni, row)) in self.nis.iter().zip(&mut view.nis).enumerate() {
            let c = ni.counters();
            // An NI asleep has yet to book its blocked cycles since.
            let asleep = u64::from(self.ni_blocked.contains(i));
            row.link.blocked = c.blocked_cycles + asleep * (self.now.raw() - self.ni_since[i]);
            row.link.forwarded = c.injected_flits;
            row.accepted = c.accepted_packets;
            (row.exhausted, row.idle) = (self.tgs[i].is_exhausted(), ni.is_idle());
        }
        for (row, r) in view.receptors.iter_mut().zip(&self.receptors) {
            *row = ReceptorRow::of(r);
        }
    }
}

impl CompiledEngine {
    /// The packet ledger (read access for tests and reports).
    pub fn ledger(&self) -> &PacketLedger {
        &self.ledger
    }

    /// The lowered platform (read access for inspection and tests).
    pub fn lowered(&self) -> &LoweredPlatform {
        &self.low
    }

    /// Runs until the stop condition holds.
    ///
    /// # Errors
    ///
    /// Propagates [`EmulationError`] from [`SteppableEngine::step`].
    pub fn run(&mut self) -> Result<(), EmulationError> {
        clock::run_engine(self)
    }

    /// Collects full run results — value-equal to
    /// [`crate::engine::Emulation::results`] for the same run. It
    /// fills the engine's own view, as every read of the view does.
    pub fn results(&mut self) -> EmulationResults {
        CycleKernel::arch_view(self);
        let summary = self.summary();
        EmulationResults::from_view(
            &self.name,
            summary,
            self.stalled,
            &self.view,
            &self.receptors,
        )
    }
}

impl CycleKernel for CompiledEngine {
    const LABEL: &'static str = "compiled";

    fn run_state(&self) -> &RunState {
        &self.run
    }

    fn run_state_mut(&mut self) -> &mut RunState {
        &mut self.run
    }

    fn profiler_mut(&mut self) -> Option<&mut PhaseProfiler> {
        self.profiler.as_mut()
    }

    /// TGs are synchronised lazily (`sync_tg`), so the jump to the
    /// earliest event touches none of them: an O(1) read.
    #[inline]
    fn idle_jump(&mut self, now: Cycle, horizon: u64) -> u64 {
        if !self.is_quiescent() {
            return 0;
        }
        self.tg_min_next.min(horizon).saturating_sub(now.raw())
    }

    /// One platform cycle — the exact phase order of
    /// [`crate::engine::Emulation`]'s over the flat arrays. Kept out of
    /// line on a measurement, not a guess: inlined into the skeleton
    /// `lowload_mesh12x12` ran 4–6.5 % below the parent commit over
    /// alternating pairs, out of line 2.5–2.8 %, with identical hot
    /// loops either way (and parity under `-C codegen-units=1`) — the
    /// four phases want to be laid out in this module's codegen unit.
    #[inline(never)]
    fn cycle(&mut self, now: Cycle, t: &mut Option<Instant>) -> Result<(), EmulationError> {
        self.release_phase(now)?;
        lap(self.profiler.as_mut(), t, Phase::TgTick);
        self.decide_phase();
        lap(self.profiler.as_mut(), t, Phase::Decide);
        self.inject_phase()?;
        lap(self.profiler.as_mut(), t, Phase::NiInject);
        self.commit_phase(now)?;
        lap(self.profiler.as_mut(), t, Phase::Commit);
        Ok(())
    }

    /// The drain-mode stop condition — from the counters alone (an
    /// exhausted TG never ticks again, so the count only grows).
    fn drained(&self) -> bool {
        self.exhausted == self.tgs.len()
            && self.tg_parked.is_empty()
            && self.nis_idle()
            && self.ledger.in_flight() == 0
    }

    fn arch_view(&mut self) -> &ArchView {
        let mut view = std::mem::take(&mut self.view);
        self.read_view(&mut view);
        self.view = view;
        &self.view
    }

    #[inline]
    fn ledger(&self) -> impl std::ops::Deref<Target = PacketLedger> + '_ {
        &self.ledger
    }

    fn ledger_mut(&mut self) -> impl std::ops::DerefMut<Target = PacketLedger> + '_ {
        &mut self.ledger
    }

    fn delivered_flits(&self) -> u64 {
        self.delivered_flits
    }
}
