//! Property-based tests of the statistics substrate: histograms never
//! lose samples and read as a dense reference does, the latency analyzer agrees with a reference
//! computation, the packet ledger enforces its lifecycle and agrees
//! with a flat reference model — its digest included, and a watching
//! ledger's folded window statistics equal those read from a full
//! history — and the reassembler accepts exactly the flit sequences a
//! wormhole network can produce.

use std::sync::Arc;

use nocem_common::choice::{check, Choices};
use nocem_common::flit::{Flit, FlitKind, PacketDescriptor};
use nocem_common::ids::{EndpointId, FlowId, LinkId, PacketId};
use nocem_common::rng::{Pcg32, RandomSource};
use nocem_common::time::Cycle;
use nocem_common::{prop_assert, prop_assert_eq};
use nocem_stats::congestion::CongestionCounter;
use nocem_stats::histogram::Histogram;
use nocem_stats::latency::LatencyAnalyzer;
use nocem_stats::ledger::{LedgerError, PacketLatency, PacketLedger, PacketRecord};
use nocem_stats::receptor::{Reassembler, Receptor};
use nocem_stats::window::{Window, WindowStats};
use nocem_stats::TrKind;

/// A histogram that stores every nominal bin from the start: the
/// reference [`Histogram`], which stores only the bins up to the
/// highest one recorded into, must read exactly like.
#[derive(Clone)]
struct DenseHistogram {
    bins: Vec<u64>,
    width: u64,
    overflow: u64,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl DenseHistogram {
    fn new(bins: usize, width: u64) -> Self {
        DenseHistogram {
            bins: vec![0; bins],
            width,
            overflow: 0,
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn record(&mut self, value: u64) {
        match self.bins.get_mut((value / self.width) as usize) {
            Some(bin) => *bin += 1,
            None => self.overflow += 1,
        }
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        (self.bins.iter().enumerate()).map(|(i, &c)| (i as u64 * self.width, c))
    }

    fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0;
        for (i, &c) in self.bins.iter().enumerate() {
            cum += c;
            if cum >= target {
                return Some((i as u64 + 1) * self.width);
            }
        }
        Some(self.max)
    }

    fn render_ascii(&self, max_width: usize) -> String {
        let max_width = max_width.max(1);
        let tallest = (self.bins.iter().copied())
            .chain([self.overflow])
            .max()
            .unwrap_or(0);
        if tallest == 0 {
            return String::from("(empty)\n");
        }
        let n = self.bins.len() as u64;
        let label_width = format!("[{}..{})", (n - 1) * self.width, n * self.width).len();
        let bar = |count: u64| {
            let len = ((count as u128 * max_width as u128) / tallest as u128) as usize;
            "#".repeat(if count > 0 { len.max(1) } else { 0 })
        };
        let mut rows: Vec<(String, u64)> = (self.iter())
            .filter(|&(_, c)| c > 0)
            .map(|(lo, c)| (format!("[{lo}..{})", lo + self.width), c))
            .collect();
        if self.overflow > 0 {
            rows.push((format!("[{}..)", n * self.width), self.overflow));
        }
        (rows.into_iter())
            .map(|(label, c)| format!("{label:<label_width$} {c:>8} {}\n", bar(c)))
            .collect()
    }

    fn display(&self) -> String {
        let mut out = format!("histogram ({} samples)\n", self.count);
        let peak = self.bins.iter().copied().max().unwrap_or(0).max(1);
        for (edge, c) in self.iter() {
            let bar = "#".repeat((c * 40 / peak) as usize);
            out.push_str(&format!("{edge:>10} | {c:>8} {bar}\n"));
        }
        if self.overflow > 0 {
            out.push_str(&format!("{:>10} | {:>8}\n", "overflow", self.overflow));
        }
        out
    }
}

/// The packet ledger as one flat row per id, `None` for an id never
/// released: the reference model the archived ledger is checked
/// against.
#[derive(Clone, Default)]
struct FlatLedger {
    rows: Vec<Option<FlatRow>>,
    released: u64,
    injected: u64,
    delivered: u64,
    network: LatencyAnalyzer,
    total: LatencyAnalyzer,
}

#[derive(Clone, Copy)]
struct FlatRow {
    release: u64,
    len_flits: u16,
    inject: Option<u64>,
    deliver: Option<u64>,
}

impl FlatLedger {
    fn release(&mut self, id: u64, at: u64, len_flits: u16) -> Result<(), LedgerError> {
        let i = id as usize;
        if i >= self.rows.len() {
            self.rows.resize(i + 1, None);
        }
        if self.rows[i].is_some() {
            return Err(LedgerError::DuplicateRelease(PacketId::new(id)));
        }
        self.rows[i] = Some(FlatRow {
            release: at,
            len_flits,
            inject: None,
            deliver: None,
        });
        self.released += 1;
        Ok(())
    }

    fn row(&mut self, id: u64) -> Result<&mut FlatRow, LedgerError> {
        (self.rows.get_mut(id as usize))
            .and_then(Option::as_mut)
            .ok_or(LedgerError::UnknownPacket(PacketId::new(id)))
    }

    fn inject(&mut self, id: u64, at: u64) -> Result<(), LedgerError> {
        let row = self.row(id)?;
        if row.inject.is_some() {
            return Err(LedgerError::DuplicateEvent(PacketId::new(id)));
        }
        row.inject = Some(at);
        self.injected += 1;
        Ok(())
    }

    fn deliver(&mut self, id: u64, at: u64, len_flits: u16) -> Result<PacketLatency, LedgerError> {
        let packet = PacketId::new(id);
        let row = self.row(id)?;
        if row.deliver.is_some() {
            return Err(LedgerError::DuplicateEvent(packet));
        }
        let inject = row.inject.ok_or(LedgerError::UnknownPacket(packet))?;
        if row.len_flits != len_flits {
            return Err(LedgerError::LengthMismatch {
                packet,
                released: row.len_flits,
                delivered: len_flits,
            });
        }
        row.deliver = Some(at);
        let lat = PacketLatency {
            network: at.saturating_sub(inject),
            total: at.saturating_sub(row.release),
        };
        self.delivered += 1;
        self.network.record(lat.network);
        self.total.record(lat.total);
        Ok(lat)
    }

    fn records(&self) -> Vec<PacketRecord> {
        (self.rows.iter().zip(0..))
            .filter_map(|(row, id)| {
                let row = row.as_ref()?;
                Some(PacketRecord {
                    id: PacketId::new(id),
                    release: Cycle::new(row.release),
                    len_flits: row.len_flits,
                    inject: row.inject.map(Cycle::new),
                    deliver: row.deliver.map(Cycle::new),
                })
            })
            .collect()
    }

    fn verify_drained(&self) -> Result<(), LedgerError> {
        match self.records().iter().find(|r| r.deliver.is_none()) {
            Some(r) => Err(LedgerError::UnknownPacket(r.id)),
            None => Ok(()),
        }
    }

    /// The records of the packets released and not yet delivered: what a
    /// watching ledger keeps.
    fn open_records(&self) -> Vec<PacketRecord> {
        let mut records = self.records();
        records.retain(|r| r.deliver.is_none());
        records
    }

    /// The wrapping sum of [`fnv1a`] over the records.
    fn digest(&self) -> u64 {
        (self.records().iter()).fold(0, |sum, r| sum.wrapping_add(fnv1a(r)))
    }
}

/// The 64-bit FNV-1a hash of the little-endian bytes of a record's id,
/// release, length (2 bytes), injection and delivery, `u64::MAX` for an
/// event that has not happened: the per-packet hash of
/// `PacketLedger::set_digest`, as its docs define it.
fn fnv1a(r: &PacketRecord) -> u64 {
    let cycle = |at: Option<Cycle>| at.map_or(u64::MAX, Cycle::raw).to_le_bytes();
    let mut bytes = Vec::new();
    bytes.extend(r.id.raw().to_le_bytes());
    bytes.extend(r.release.raw().to_le_bytes());
    bytes.extend(r.len_flits.to_le_bytes());
    bytes.extend(cycle(r.inject));
    bytes.extend(cycle(r.deliver));
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// One ledger call.
#[derive(Debug, Clone, Copy)]
enum Call {
    Release(u64, u64, u16),
    Inject(u64, u64),
    Deliver(u64, u64, u16),
}

/// The archive coder's escape quotient, largest parameter and halving
/// count (see the `ledger` module docs).
const ESCAPE: u64 = 24;
const MAX_K: u32 = 40;
const HALVING: u64 = 64;

/// The archive coder's parameter of one row field as the `ledger`
/// module docs define it, so that generated deltas land on its edges.
#[derive(Clone, Copy, Default)]
struct Rice {
    sum: u64,
    count: u64,
}

impl Rice {
    /// The smallest `k` with `count · 2^(k+1) ≥ sum`, at most [`MAX_K`].
    fn k(&self) -> u32 {
        (0..MAX_K)
            .find(|&k| self.count << (k + 1) >= self.sum)
            .unwrap_or(MAX_K)
    }

    /// Counts `v`, an escaped value at the escape threshold.
    fn update(&mut self, v: u64) {
        self.sum += v.min(ESCAPE << self.k());
        self.count += 1;
        if self.count == HALVING {
            self.sum /= 2;
            self.count /= 2;
        }
    }
}

/// One generated packet: `(vacant one in 40, hold kind if below 6 —
/// one in 80, release-step class, small)`, `(queueing class, small)`,
/// `(latency class, small)`, `(length class, length)` and the order
/// keys of its three events.
type GenPacket = (
    (u8, u16, u8, u64),
    (u8, u64),
    (u8, u64),
    (u8, u16),
    (u32, u32, u32),
);

fn gen_packet(c: &mut Choices) -> GenPacket {
    (
        (
            c.range(0u8..40),
            c.range(0u16..480),
            c.range(0u8..24),
            c.range(0u64..4),
        ),
        (c.range(0u8..24), c.range(0u64..4)),
        (c.range(0u8..24), c.range(0u64..4)),
        (c.range(0u8..6), c.range(0u16..3)),
        (
            c.range(0u32..1000),
            c.range(0u32..1000),
            c.range(0u32..1000),
        ),
    )
}

/// A random call, valid or not: `(kind, id, cycle, length, order key)`.
fn gen_call(c: &mut Choices) -> (u8, u64, u64, u16, u32) {
    let (kind, id, cycle) = (c.range(0u8..3), c.range(0u64..72), c.range(0u64..140_000));
    (kind, id, cycle, c.range(1u16..5), c.range(0u32..1000))
}

/// `at` moved by a delta of class `class` (of 24) in a field whose
/// coder parameter is `k`: forward to a Rice quotient of one below,
/// at or one above the escape quotient (0..=2), with none, one, half
/// or all of the `k` low bits set, picked by `small`; back by one to
/// four cycles (3) or by 2^5, 2^15, 2^25 or 2^35 (4); forward by a
/// middle-sized 2^5, 2^10, 2^15 or 2^20 (5..=7), which moves `k`
/// between its extremes; or `small` forward.
fn shift(at: u64, class: u8, small: u64, k: u32) -> u64 {
    let low = [0, 1, 1 << k >> 1, u64::MAX][small as usize] & ((1 << k) - 1);
    match class {
        0..=2 => at + ((ESCAPE - 1 + u64::from(class)) << k | low),
        3 => at.saturating_sub(small + 1),
        4 => at.saturating_sub(1 << (10 * small + 5)),
        5..=7 => at + (1 << (5 * small + 5)),
        _ => at + small,
    }
}

/// The three calls of packet `id` under the order keys `keys`.
fn push_lifecycle(calls: &mut Vec<(u32, Call)>, id: u64, at: [u64; 3], len: u16, keys: [u32; 3]) {
    calls.push((keys[0], Call::Release(id, at[0], len)));
    calls.push((keys[1], Call::Inject(id, at[1])));
    calls.push((keys[2], Call::Deliver(id, at[2], len)));
}

/// The lifecycle calls of `packets` (ids in order; a vacant one is
/// never released), keyed so that sorting by key interleaves the
/// packets while each keeps release → inject → deliver. Each field of
/// a row — the release step, the queueing and the network latency —
/// lands next to the escape edge of the coder's current parameter,
/// steps back, or steps forward a middle or a small way; releases start
/// at 2^42, so a step back is exact. One packet in 80 first holds a
/// field (`hold % 3`) at 0 for twice the halving count of packets, then
/// jumps by 2^40, or the reverse, with the other fields stepping by
/// one: the parameter climbs to its cap of 40 under 2^40, and falls
/// under 0 (to 0 itself unless it started above about 4). A length is
/// near `u16::MAX`, small (0 included), or the previous packet's again,
/// so rows open with a length marker before every kind of release step.
fn lifecycles(packets: &[GenPacket]) -> Vec<(u32, Call)> {
    let mut calls = Vec::new();
    let mut rice = [Rice::default(); 3];
    let (mut release, mut len, mut id) = (1u64 << 42, 0, 0);
    for &((vacancy, hold, class, small), (qc, q), (lc, l), (len_class, small_len), keys) in packets
    {
        let mut keys = [keys.0, keys.1, keys.2];
        keys.sort_unstable();
        let mut jumps = [None; 3];
        if hold < 6 {
            let (stay, jump) = if hold < 3 { (0, 1 << 40) } else { (1 << 40, 0) };
            let mut deltas = [1; 3];
            deltas[usize::from(hold % 3)] = stay;
            for _ in 0..2 * HALVING {
                release += deltas[0];
                let inject = release + deltas[1];
                push_lifecycle(
                    &mut calls,
                    id,
                    [release, inject, inject + deltas[2]],
                    len,
                    keys,
                );
                rice.iter_mut().zip(deltas).for_each(|(r, d)| r.update(d));
                id += 1;
            }
            jumps[usize::from(hold % 3)] = Some(jump);
        }
        let (mut at, mut base) = ([0; 3], release);
        for (i, (class, small)) in [(class, small), (qc, q), (lc, l)].into_iter().enumerate() {
            at[i] = match jumps[i] {
                Some(jump) => base + jump,
                None => shift(base, class, small, rice[i].k()),
            };
            base = at[i];
        }
        let from = [release, at[0], at[1]];
        release = at[0];
        if vacancy != 0 {
            len = match len_class {
                0 => u16::MAX - small_len,
                1 | 2 => len,
                _ => small_len,
            };
            push_lifecycle(&mut calls, id, at, len, keys);
            for ((r, to), from) in rice.iter_mut().zip(at).zip(from) {
                r.update(to.wrapping_sub(from));
            }
        }
        id += 1;
    }
    calls
}

/// `calls` in key order; the sort is stable, so a packet's own calls
/// keep their order on equal keys.
fn in_key_order(mut calls: Vec<(u32, Call)>) -> Vec<Call> {
    calls.sort_by_key(|&(key, _)| key);
    calls.into_iter().map(|(_, call)| call).collect()
}

/// Makes one call on `ledger` and on `model`: both must answer alike,
/// with equal counters and records afterwards.
fn step(ledger: &mut PacketLedger, model: &mut FlatLedger, call: Call) -> Result<(), String> {
    answer_alike(ledger, model, call)?;
    prop_assert_eq!(ledger.records().collect::<Vec<_>>(), model.records());
    Ok(())
}

/// Makes one call on `ledger` and on `model`: both must answer alike,
/// with equal counters afterwards.
fn answer_alike(
    ledger: &mut PacketLedger,
    model: &mut FlatLedger,
    call: Call,
) -> Result<(), String> {
    match call {
        Call::Release(id, at, len) => prop_assert_eq!(
            ledger.release(PacketId::new(id), Cycle::new(at), len),
            model.release(id, at, len),
            "{:?}",
            call
        ),
        Call::Inject(id, at) => prop_assert_eq!(
            ledger.inject(PacketId::new(id), Cycle::new(at)),
            model.inject(id, at),
            "{:?}",
            call
        ),
        Call::Deliver(id, at, len) => prop_assert_eq!(
            ledger.deliver(PacketId::new(id), Cycle::new(at), len),
            model.deliver(id, at, len),
            "{:?}",
            call
        ),
    }
    let counts = (ledger.released(), ledger.injected(), ledger.delivered());
    prop_assert_eq!(counts, (model.released, model.injected, model.delivered));
    prop_assert_eq!(ledger.in_flight(), model.released - model.delivered);
    Ok(())
}

/// One packet of a flowing run: `(release step, queueing, latency
/// class, latency, length draw)`.
type FlowPacket = (u64, u64, u8, u64, u16);

/// The calls of a run in which packet `starving` is released and
/// injected like the others but delivered only after all of them. The
/// rest flow: releases 0–2 cycles apart, 0–7 cycles of queueing, and
/// 8–71 cycles across the network — or 64–568 for one packet in 16, so
/// that some are still in flight when their ids leave the dense window.
/// Packets start at 4 flits; a length draw below 4 sets the length to
/// it (0–3 flits) from that packet on, so parked and archived rows open
/// with length markers. Events are in cycle order, releases first
/// within a cycle.
fn starving_run(packets: &[FlowPacket], starving: usize) -> Vec<Call> {
    let mut events = Vec::new();
    let (mut release, mut len) = (0, 4);
    for (&(step, queue, class, latency, len_draw), id) in packets.iter().zip(0..) {
        release += step;
        if len_draw < 4 {
            len = len_draw;
        }
        let inject = release + queue;
        let latency = if class == 0 {
            64 + 8 * latency
        } else {
            8 + latency
        };
        events.push((release, 0, id, Call::Release(id, release, len)));
        events.push((inject, 1, id, Call::Inject(id, inject)));
        events.push((
            inject + latency,
            2,
            id,
            Call::Deliver(id, inject + latency, len),
        ));
    }
    let last = events.iter().map(|e| e.0).max().unwrap_or(0);
    let starving = events
        .iter_mut()
        .find(|e| e.1 == 2 && e.2 == starving as u64)
        .expect("the starving packet is one of the run's");
    let Call::Deliver(id, _, len) = starving.3 else {
        unreachable!("kind 2 is a delivery")
    };
    *starving = (last + 1, 2, id, Call::Deliver(id, last + 1, len));
    events.sort_unstable_by_key(|&(at, kind, id, _)| (at, kind, id));
    events.into_iter().map(|(.., call)| call).collect()
}

/// The end-of-run checks of `ledger` against `model`.
fn same_totals(ledger: &PacketLedger, model: &FlatLedger) -> Result<(), String> {
    prop_assert_eq!(ledger.network_latency(), &model.network);
    prop_assert_eq!(ledger.total_latency(), &model.total);
    prop_assert_eq!(ledger.verify_drained(), model.verify_drained());
    Ok(())
}

/// The ledger after `calls`, whatever each returned.
fn ledger_after(calls: &[Call]) -> PacketLedger {
    let mut ledger = PacketLedger::new();
    run_calls(&mut ledger, calls);
    ledger
}

/// Makes `calls` on `ledger`, whatever each returns.
fn run_calls(ledger: &mut PacketLedger, calls: &[Call]) {
    for &call in calls {
        let _ = match call {
            Call::Release(id, at, len) => ledger.release(PacketId::new(id), Cycle::new(at), len),
            Call::Inject(id, at) => ledger.inject(PacketId::new(id), Cycle::new(at)),
            Call::Deliver(id, at, len) => ledger
                .deliver(PacketId::new(id), Cycle::new(at), len)
                .map(drop),
        };
    }
}

/// A histogram never loses a sample: bin counts plus overflow equal
/// the number of recorded values, and min/max/mean are consistent
/// with the raw data.
#[test]
fn histogram_conserves_samples() {
    check("histogram_conserves_samples", 0..128, |c| {
        let (values, bins) = (
            c.vec(1..200, |c| c.range(0u64..10_000)),
            c.range(1usize..32),
        );
        let width = c.range(1u64..500);
        let mut h = Histogram::new(bins, width);
        for &v in &values {
            h.record(v);
        }
        let binned: u64 = (0..h.bins()).map(|i| h.bin_count(i)).sum();
        prop_assert_eq!(binned + h.overflow(), values.len() as u64);
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(h.min(), values.iter().copied().min());
        prop_assert_eq!(h.max(), values.iter().copied().max());
        let exact_mean = values.iter().sum::<u64>() as f64 / values.len() as f64;
        prop_assert!((h.mean().unwrap() - exact_mean).abs() < 1e-6);
        Ok(())
    });
}

/// `h` reads as `dense` on every accessor — each bin, the iterator,
/// quantiles (the drawn `q` among them), summary statistics, overflow
/// and both renderings, byte for byte.
fn reads_as_dense(
    h: &Histogram,
    dense: &DenseHistogram,
    max_width: usize,
    q: f64,
) -> Result<(), String> {
    let bins = dense.bins.len();
    prop_assert_eq!(h.bins(), bins);
    for i in 0..bins {
        prop_assert_eq!(h.bin_count(i), dense.bins[i], "bin {}", i);
    }
    prop_assert_eq!(
        h.iter().collect::<Vec<_>>(),
        dense.iter().collect::<Vec<_>>()
    );
    for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0, q] {
        prop_assert_eq!(h.quantile(q), dense.quantile(q), "q = {}", q);
    }
    let n = dense.count;
    prop_assert_eq!(h.count(), n);
    prop_assert_eq!(h.mean(), (n > 0).then(|| dense.sum as f64 / n as f64));
    prop_assert_eq!(h.min(), (n > 0).then_some(dense.min));
    prop_assert_eq!(h.max(), (n > 0).then_some(dense.max));
    prop_assert_eq!(h.overflow(), dense.overflow);
    prop_assert_eq!(h.render_ascii(max_width), dense.render_ascii(max_width));
    prop_assert_eq!(h.to_string(), dense.display());
    Ok(())
}

/// A histogram storing only the bins it has counted reads as the
/// dense reference ([`reads_as_dense`]), and so does a snapshot taken
/// mid-run, after `Arc::make_mut` has copied the histogram apart from
/// it. After every sample the storage holds the counted prefix in
/// whole 16-bin blocks, never more than `bins`. The same samples in
/// another order give an equal histogram.
#[test]
fn histogram_reads_as_the_dense_reference() {
    check("histogram_reads_as_the_dense_reference", 0..128, |c| {
        let (bins, width) = (c.range(1usize..160), c.range(1u64..40));
        let small = c.vec(0..300, |c| c.range(0u64..6_000));
        let (large, max_width) = (c.vec(0..4, |c| c.range(0u64..1 << 40)), c.range(0usize..60));
        let (seed, q) = (c.word(), c.range(0.0f64..1.0));
        let mut values: Vec<u64> = small.into_iter().chain(large).collect();
        let split = c.below(values.len() + 1);
        let (mut shared, mut dense) = (
            Arc::new(Histogram::new(bins, width)),
            DenseHistogram::new(bins, width),
        );
        let mut snapshot = None;
        for (i, &v) in values.iter().enumerate() {
            if i == split {
                snapshot = Some((Arc::clone(&shared), dense.clone()));
            }
            Arc::make_mut(&mut shared).record(v);
            dense.record(v);
            let stored = (dense.bins.iter())
                .rposition(|&c| c > 0)
                .map_or(0, |top| top + 1);
            let allocated = shared.allocated_bins();
            prop_assert!(
                stored <= allocated && allocated <= stored.next_multiple_of(16).min(bins),
                "{allocated} bins allocated for {stored} stored of {bins}"
            );
        }
        let h = &*shared;
        reads_as_dense(h, &dense, max_width, q)?;
        if let Some((snapshot, at_split)) = snapshot {
            prop_assert!(
                !Arc::ptr_eq(&snapshot, &shared),
                "the write copied the histogram"
            );
            reads_as_dense(&snapshot, &at_split, max_width, q)?;
        }

        let mut rng = Pcg32::seeded(seed);
        for i in (1..values.len()).rev() {
            values.swap(i, rng.below(i as u32 + 1) as usize);
        }
        let mut shuffled = Histogram::new(bins, width);
        for &v in &values {
            shuffled.record(v);
        }
        prop_assert_eq!(&shuffled, h);
        let mut reversed = Histogram::new(bins, width);
        for &v in values.iter().rev() {
            reversed.record(v);
        }
        prop_assert_eq!(&reversed, h);
        Ok(())
    });
}

/// Histogram quantiles are monotone in `q` and bracketed by
/// min/max.
#[test]
fn histogram_quantiles_are_monotone() {
    check("histogram_quantiles_are_monotone", 0..128, |c| {
        let values = c.vec(1..100, |c| c.range(0u64..5_000));
        let mut h = Histogram::new(24, 32);
        for &v in &values {
            h.record(v);
        }
        let qs = [0.0, 0.25, 0.5, 0.75, 0.9, 1.0];
        let mut prev = 0;
        for &q in &qs {
            let v = h.quantile(q).unwrap();
            prop_assert!(v >= prev, "quantile not monotone at {q}");
            prev = v;
        }
        Ok(())
    });
}

/// The latency analyzer matches a reference fold exactly for
/// count/sum/min/max and to f64 precision for the mean.
#[test]
fn latency_analyzer_matches_reference() {
    check("latency_analyzer_matches_reference", 0..128, |c| {
        let samples = c.vec(1..300, |c| c.range(0u64..100_000));
        let mut a = LatencyAnalyzer::new();
        for &s in &samples {
            a.record(s);
        }
        prop_assert_eq!(a.count(), samples.len() as u64);
        prop_assert_eq!(a.sum(), samples.iter().sum::<u64>());
        prop_assert_eq!(a.min(), samples.iter().copied().min());
        prop_assert_eq!(a.max(), samples.iter().copied().max());
        let mean = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
        prop_assert!((a.mean().unwrap() - mean).abs() < 1e-9);
        Ok(())
    });
}

/// The ledger accepts any interleaving of correctly ordered
/// release→inject→deliver triples and reports exact latencies.
#[test]
fn ledger_accepts_ordered_lifecycles() {
    check("ledger_accepts_ordered_lifecycles", 0..128, |c| {
        // (release offset, inject delay, network latency, length) per
        // packet
        let pkts = c.vec(1..50, |c| {
            (
                c.range(0u64..100),
                c.range(0u64..20),
                c.range(1u64..50),
                c.range(0u16..3),
            )
        });
        let mut ledger = PacketLedger::new();
        // Build the global event list: (time, kind, packet).
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        enum Ev {
            Release,
            Inject,
            Deliver,
        }
        let mut events: Vec<(u64, Ev, usize)> = Vec::new();
        for (i, &(rel, inj, lat, _)) in pkts.iter().enumerate() {
            events.push((rel, Ev::Release, i));
            events.push((rel + inj, Ev::Inject, i));
            events.push((rel + inj + lat, Ev::Deliver, i));
        }
        events.sort();
        for (t, ev, i) in events {
            let (id, (_, inj, net, len)) = (PacketId::new(i as u64), pkts[i]);
            match ev {
                Ev::Release => ledger.release(id, Cycle::new(t), len).unwrap(),
                Ev::Inject => ledger.inject(id, Cycle::new(t)).unwrap(),
                Ev::Deliver => {
                    let lat = ledger.deliver(id, Cycle::new(t), len).unwrap();
                    prop_assert_eq!(lat.network, net);
                    prop_assert_eq!(lat.total, inj + net);
                }
            }
        }
        let lens: Vec<u16> = ledger.records().map(|r| r.len_flits).collect();
        prop_assert!(lens.iter().eq(pkts.iter().map(|p| &p.3)));
        prop_assert_eq!(ledger.released(), pkts.len() as u64);
        prop_assert_eq!(ledger.delivered(), pkts.len() as u64);
        prop_assert_eq!(ledger.in_flight(), 0);
        ledger.verify_drained().unwrap();
        prop_assert_eq!(ledger.network_latency().count(), pkts.len() as u64);
        Ok(())
    });
}

/// Lifecycle violations are rejected: double release, inject of an
/// unknown packet, deliver before inject.
#[test]
fn ledger_rejects_lifecycle_violations() {
    check("ledger_rejects_lifecycle_violations", 0..128, |c| {
        let id = c.range(0u64..1000);
        let id = PacketId::new(id);
        let mut ledger = PacketLedger::new();
        ledger.release(id, Cycle::new(0), 2).unwrap();
        prop_assert!(matches!(
            ledger.release(id, Cycle::new(1), 2),
            Err(LedgerError::DuplicateRelease(_))
        ));
        prop_assert!(
            ledger.deliver(id, Cycle::new(2), 2).is_err(),
            "deliver before inject"
        );
        let other = PacketId::new(id.raw() + 1_000_000);
        prop_assert!(ledger.inject(other, Cycle::new(1)).is_err());
        // The correct sequence still works afterwards.
        ledger.inject(id, Cycle::new(3)).unwrap();
        ledger.deliver(id, Cycle::new(5), 2).unwrap();
        prop_assert!(matches!(ledger.verify_drained(), Ok(())));
        Ok(())
    });
}

/// The archived ledger answers every call like the flat reference
/// model, on interleaved lifecycles with vacant ids, deltas of either
/// sign, on both sides of the escape edge at small, middle and large
/// coder parameters and after long holds in all three fields,
/// repeated and changed lengths, and random — mostly invalid — calls
/// mixed in; counters and records agree after every call.
#[test]
fn ledger_matches_the_flat_model() {
    check("ledger_matches_the_flat_model", 0..128, |c| {
        let (packets, noise) = (c.vec(1..64, gen_packet), c.vec(0..24, gen_call));
        let mut calls = lifecycles(&packets);
        calls.extend(noise.iter().map(|&(kind, id, at, len, key)| {
            let call = match kind {
                0 => Call::Release(id, at, len),
                1 => Call::Inject(id, at),
                _ => Call::Deliver(id, at, len),
            };
            (key, call)
        }));
        let mut ledger = PacketLedger::new();
        let mut model = FlatLedger::default();
        for call in in_key_order(calls) {
            step(&mut ledger, &mut model, call)?;
        }
        same_totals(&ledger, &model)?;
        Ok(())
    });
}

/// A clone is a snapshot. Cloned at any call, the original takes the
/// rest of the calls and the clone the same calls one cycle later,
/// alternating, either one first; each answers like its own flat
/// model after every call, though they shared one archive.
#[test]
fn ledger_clone_is_an_isolated_snapshot() {
    check("ledger_clone_is_an_isolated_snapshot", 0..128, |c| {
        let (packets, cut) = (c.vec(1..64, gen_packet), c.range(0usize..192));
        let clone_first = c.bool();
        let calls = in_key_order(lifecycles(&packets));
        let (prefix, suffix) = calls.split_at(cut.min(calls.len()));
        let mut ledger = PacketLedger::new();
        let mut model = FlatLedger::default();
        for &call in prefix {
            step(&mut ledger, &mut model, call)?;
        }
        let (mut copy, mut copy_model) = (ledger.clone(), model.clone());
        for &call in suffix {
            let later = match call {
                Call::Release(id, at, len) => Call::Release(id, at + 1, len),
                Call::Inject(id, at) => Call::Inject(id, at + 1),
                Call::Deliver(id, at, len) => Call::Deliver(id, at + 1, len),
            };
            if clone_first {
                step(&mut copy, &mut copy_model, later)?;
            }
            step(&mut ledger, &mut model, call)?;
            if !clone_first {
                step(&mut copy, &mut copy_model, later)?;
            }
        }
        same_totals(&ledger, &model)?;
        same_totals(&copy, &copy_model)?;
        Ok(())
    });
}

/// Two valid orders of lifecycle calls give equal ledgers exactly
/// when they give equal records: equal ones however far each moved
/// its archive, and one cycle moved in the second event set makes
/// them differ.
#[test]
fn ledger_equality_is_record_equality() {
    check("ledger_equality_is_record_equality", 0..128, |c| {
        let packets = c.vec(1..64, gen_packet);
        let reorder = (0..64)
            .map(|_| {
                (
                    c.range(0u32..1000),
                    c.range(0u32..1000),
                    c.range(0u32..1000),
                )
            })
            .collect::<Vec<_>>();
        let (moved, which) = (c.range(0usize..4), c.range(0usize..192));
        let first = ledger_after(&in_key_order(lifecycles(&packets)));
        let mut calls = lifecycles(&packets);
        for (call, keys) in calls.chunks_mut(3).zip(&reorder) {
            let mut keys = [keys.0, keys.1, keys.2];
            keys.sort_unstable();
            for (c, key) in call.iter_mut().zip(keys) {
                c.0 = key;
            }
        }
        let moves_one = moved == 0 && which < calls.len();
        if moves_one {
            match &mut calls[which].1 {
                Call::Release(_, at, _) | Call::Inject(_, at) | Call::Deliver(_, at, _) => *at += 1,
            }
        }
        let second = ledger_after(&in_key_order(calls));
        let same_records = first.records().eq(second.records());
        prop_assert_eq!(first == second, same_records);
        prop_assert_eq!(same_records, !moves_one);
        Ok(())
    });
}

/// The digest is the flat model's sum of one FNV-1a hash per packet
/// after every call, on a ledger that keeps its history and on one that
/// watches a window alike, over the interleaved lifecycles and random,
/// mostly invalid, calls of `ledger_matches_the_flat_model`. The
/// watching ledger answers every call like the model too, and its
/// records are the model's open packets.
#[test]
fn set_digest_matches_the_flat_model() {
    check("set_digest_matches_the_flat_model", 0..128, |c| {
        let (packets, noise) = (c.vec(1..64, gen_packet), c.vec(0..24, gen_call));
        let mut calls = lifecycles(&packets);
        calls.extend(noise.iter().map(|&(kind, id, at, len, key)| {
            let call = match kind {
                0 => Call::Release(id, at, len),
                1 => Call::Inject(id, at),
                _ => Call::Deliver(id, at, len),
            };
            (key, call)
        }));
        let mut history = PacketLedger::new();
        let mut watching = PacketLedger::new();
        watching
            .watch(Window {
                start: 0,
                end: 1 << 43,
            })
            .unwrap();
        let (mut model, mut twin) = (FlatLedger::default(), FlatLedger::default());
        for call in in_key_order(calls) {
            answer_alike(&mut history, &mut model, call)?;
            answer_alike(&mut watching, &mut twin, call)?;
            prop_assert_eq!(history.set_digest(), model.digest(), "{:?}", call);
            prop_assert_eq!(watching.set_digest(), model.digest(), "{:?}", call);
            prop_assert_eq!(watching.records().collect::<Vec<_>>(), model.open_records());
        }
        same_totals(&watching, &model)?;
        Ok(())
    });
}

/// A window drawn over a generated run: between two of its event
/// cycles, empty at one, clamped past the run's end by
/// [`Window::after_warmup`], or every cycle.
fn gen_window(c: &mut Choices, calls: &[Call]) -> Window {
    let at = |c: &mut Choices| match calls[c.below(calls.len())] {
        Call::Release(_, at, _) | Call::Inject(_, at) | Call::Deliver(_, at, _) => at,
    };
    match c.range(0u8..4) {
        0 => {
            let (a, b) = (at(c), at(c));
            Window {
                start: a.min(b),
                end: a.max(b),
            }
        }
        1 => {
            let a = at(c);
            Window { start: a, end: a }
        }
        2 => {
            let run = at(c);
            Window::after_warmup(run + c.range(0u64..4), c.range(0u64..1 << 20), run)
        }
        _ => Window {
            start: 0,
            end: u64::MAX,
        },
    }
}

/// A ledger that watches a window folds, at each delivery, exactly the
/// statistics [`WindowStats::from_ledger_both`] reads from a ledger
/// that kept its history over the same calls — counts, sums, extremes
/// and the quantile histograms — at a drawn cut and at the end. The
/// calls are either generated lifecycles (latencies past the archive
/// coder's escape edge, vacant ids, deliveries before injection that
/// read as latency 0) or a starving run, in which one packet is
/// delivered only after thousands of later ids. Windows are drawn by
/// [`gen_window`]. `from_ledger_both` on the watching ledger returns its
/// folded statistics. Both ledgers keep the same dense window and the
/// watching one pins no delivered packet and parks none, so its open
/// window never takes more bytes.
#[test]
fn watched_window_equals_the_history_extraction() {
    check(
        "watched_window_equals_the_history_extraction",
        0..128,
        |c| {
            let calls = if c.bool() {
                in_key_order(lifecycles(&c.vec(1..64, gen_packet)))
            } else {
                let packets = c.vec(2..600, |c| {
                    (
                        c.range(0u64..3),
                        c.range(0u64..8),
                        c.range(0u8..16),
                        c.range(0u64..64),
                        c.range(0u16..32),
                    )
                });
                let starving = c.below(packets.len());
                starving_run(&packets, starving)
            };
            let (window, cut) = (gen_window(c, &calls), c.below(calls.len() + 1));
            let mut history = PacketLedger::new();
            let mut watching = PacketLedger::new();
            watching.watch(window).unwrap();
            for part in [&calls[..cut], &calls[cut..]] {
                run_calls(&mut history, part);
                run_calls(&mut watching, part);
                let want = WindowStats::from_ledger_both(&history, window);
                prop_assert_eq!(watching.watched(), Some(want.clone()));
                prop_assert_eq!(WindowStats::from_ledger_both(&watching, window), want);
                prop_assert_eq!(watching.set_digest(), history.set_digest());
                prop_assert!(watching.window_bytes() <= history.window_bytes());
            }
            prop_assert_eq!(history.watched(), None);
            Ok(())
        },
    );
}

/// The reassembler accepts any wormhole-legal flit stream
/// (packets contiguous per receptor) and reconstructs exact packet
/// boundaries; it rejects out-of-order sequence numbers.
#[test]
fn reassembler_reconstructs_packets() {
    check("reassembler_reconstructs_packets", 0..128, |c| {
        let lens = c.vec(1..30, |c| c.range(1u16..8));
        let mut r = Reassembler::new();
        let mut now = 0u64;
        for (i, &len) in lens.iter().enumerate() {
            let flits: Vec<Flit> = PacketDescriptor {
                id: PacketId::new(i as u64),
                src: EndpointId::new(0),
                dst: EndpointId::new(1),
                flow: FlowId::new(0),
                len_flits: len,
                release: Cycle::ZERO,
            }
            .flits()
            .collect();
            for (k, f) in flits.iter().enumerate() {
                let done = r.accept(f, Cycle::new(now)).unwrap();
                now += 1;
                if k + 1 == flits.len() {
                    let pkt = done.expect("tail completes the packet");
                    prop_assert_eq!(pkt.id, PacketId::new(i as u64));
                    prop_assert_eq!(pkt.len_flits, len);
                } else {
                    prop_assert!(done.is_none());
                }
            }
            prop_assert!(!r.has_open_packet());
        }
        Ok(())
    });
}

/// Congestion rates are always within [0, 1] and utilization is
/// consistent with the recorded forward counts.
#[test]
fn congestion_rates_are_bounded() {
    check("congestion_rates_are_bounded", 0..128, |c| {
        let entries = c.vec(1..50, |c| (c.range(0u64..1000), c.range(0u64..1000)));
        let mut cc = CongestionCounter::new(entries.len());
        for (i, &(b, f)) in entries.iter().enumerate() {
            cc.add(LinkId::new(i as u32), b, f);
        }
        for (i, &(blocked, forwarded)) in entries.iter().enumerate() {
            let l = LinkId::new(i as u32);
            let r = cc.rate(l);
            prop_assert!((0.0..=1.0).contains(&r));
            prop_assert_eq!(cc.forwarded(l), forwarded);
            prop_assert_eq!(cc.blocked(l), blocked);
        }
        let network = cc.network_rate();
        prop_assert!((0.0..=1.0).contains(&network));
        Ok(())
    });
}

/// One packet starves for thousands of ids while the rest flow by.
/// The ledger answers like the flat model, and its open window
/// costs the packets in flight plus a few bytes per packet delivered
/// behind the straggler, not 32 bytes per id from the straggler on:
/// the peak of `window_bytes` stays within 3 × (peak in flight ×
/// 32 B + packets delivered behind the straggler × 4 B), where it
/// reads at most 2.24 × (spare capacity included).
#[test]
fn ledger_window_stays_small_behind_a_starving_packet() {
    check(
        "ledger_window_stays_small_behind_a_starving_packet",
        0..32,
        |c| {
            let packets = c.vec(2_000..4_000, |c| {
                (
                    c.range(0u64..3),
                    c.range(0u64..8),
                    c.range(0u8..16),
                    c.range(0u64..64),
                    c.range(0u16..32),
                )
            });
            let starving = c.range(0usize..64);
            let mut ledger = PacketLedger::new();
            let mut model = FlatLedger::default();
            let (mut peak_bytes, mut peak_in_flight, mut behind) = (0, 0, 0);
            let calls = starving_run(&packets, starving);
            for (i, &call) in calls.iter().enumerate() {
                answer_alike(&mut ledger, &mut model, call)?;
                if i % 512 == 0 {
                    prop_assert_eq!(ledger.records().collect::<Vec<_>>(), model.records());
                }
                if let Call::Deliver(id, ..) = call {
                    behind += u64::from(id > starving as u64);
                }
                peak_bytes = peak_bytes.max(ledger.window_bytes() as u64);
                peak_in_flight = peak_in_flight.max(ledger.in_flight());
                if i + 2 == calls.len() {
                    prop_assert_eq!(
                        ledger.verify_drained(),
                        Err(LedgerError::UnknownPacket(PacketId::new(starving as u64)))
                    );
                }
            }
            prop_assert_eq!(ledger.records().collect::<Vec<_>>(), model.records());
            same_totals(&ledger, &model)?;
            let bound = 3 * (32 * peak_in_flight + 4 * behind);
            prop_assert!(
                peak_bytes <= bound,
                "window peaked at {} B: {} in flight, {} delivered behind",
                peak_bytes,
                peak_in_flight,
                behind
            );
            Ok(())
        },
    );
}

/// A stochastic receptor builds the paper's histograms: packet-length
/// and inter-arrival distributions with exact totals.
#[test]
fn stochastic_receptor_histograms_account_for_everything() {
    let mut r = Receptor::new(EndpointId::new(1), TrKind::Stochastic);
    let mut now = 0u64;
    let lens = [1u16, 3, 5, 2, 8, 1, 4];
    for (i, &len) in lens.iter().enumerate() {
        let flits: Vec<Flit> = PacketDescriptor {
            id: PacketId::new(i as u64),
            src: EndpointId::new(0),
            dst: EndpointId::new(1),
            flow: FlowId::new(0),
            len_flits: len,
            release: Cycle::ZERO,
        }
        .flits()
        .collect();
        for f in &flits {
            r.accept(f, Cycle::new(now)).unwrap();
            now += 2; // a gap the inter-arrival histogram will see
        }
    }
    assert_eq!(r.counters().packets, lens.len() as u64);
    assert_eq!(
        r.counters().flits,
        lens.iter().map(|&l| u64::from(l)).sum::<u64>()
    );
    let (length, interarrival) = r.histograms().unwrap();
    assert_eq!(length.count(), lens.len() as u64);
    assert_eq!(
        length.mean().unwrap(),
        lens.iter().map(|&l| f64::from(l)).sum::<f64>() / lens.len() as f64
    );
    // First packet has no predecessor: n-1 inter-arrival samples.
    assert_eq!(interarrival.count(), lens.len() as u64 - 1);
    assert!(r.counters().running_time() > 0);
}

/// A flit whose payload was corrupted in flight is rejected by the
/// receptor — the platform's built-in data-integrity check.
#[test]
fn corrupted_flit_is_rejected() {
    let mut r = Reassembler::new();
    let mut f: Flit = PacketDescriptor {
        id: PacketId::new(9),
        src: EndpointId::new(0),
        dst: EndpointId::new(1),
        flow: FlowId::new(0),
        len_flits: 1,
        release: Cycle::ZERO,
    }
    .flits()
    .next()
    .unwrap();
    f.payload ^= 0x1;
    assert!(r.accept(&f, Cycle::new(0)).is_err());
    assert_eq!(f.kind, FlitKind::Single);
}
