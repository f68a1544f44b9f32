//! The packet ledger: end-to-end packet accounting.
//!
//! The engine records three timestamps per packet — **release** (the
//! traffic model emitted the request), **injection** (the head flit
//! entered the network) and **delivery** (the tail flit reached its
//! receptor). From these the ledger derives network and total
//! latencies and enforces the conservation invariant the integration
//! tests rely on: *every accepted packet is delivered exactly once,
//! with the length it was released with*.
//!
//! # Storage
//!
//! Like the paper's traffic receptors, which reduce traffic to on-chip
//! counters rather than ship a log of every packet to the host, the
//! ledger keeps a full row only while a packet's lifecycle is open. It
//! splits the ids at the low-water mark `lo` — the first id that is
//! undelivered or was never released:
//!
//! * the **archive**: the delivered prefix `[0, lo)` as one row per
//!   packet in a bit string of 64-bit words, least significant bit
//!   first. A row is three fields: release minus the previous id's
//!   release, injection minus release, delivery minus injection, each
//!   modulo 2^64. A row whose length differs from the previous packet's
//!   (the first's from 0) opens with a length marker, 24 zeros and a
//!   one, then the length's 16 bits;
//! * the **open window**: the ids from `lo` up to the highest released
//!   one.
//!
//! Each field is an adaptive Golomb–Rice code. Its parameter `k` is the
//! smallest with `count · 2^(k+1) ≥ sum` over the field's earlier
//! values: sum and count halve when the count reaches 64, so `k` follows
//! a running mean and no constant is tuned to a workload. That is one
//! below the JPEG-LS rule (`count · 2^k ≥ sum`), which overshoots on
//! these fields: network latency has a floor and a hump, and source
//! wait spreads wide. The code is the quotient `v >> k` in unary (that
//! many zeros, then a one) and the low `k` bits of `v`; `k` is at most
//! 40, so the code fits one 64-bit word and `records()` reads it from
//! one window with `trailing_zeros`. A quotient of 24 or more escapes:
//! 24 zeros, a zero and the value's 64 bits, which covers a negative
//! step, a release far from the previous id's, or a half-range jump.
//! The zero after the 24 tells an escaped release step from a length
//! marker, so a row of a fixed-length run spends no bit on its length.
//! An escaped value adds only `24 · 2^k` to the sum, so one outlier
//! cannot swamp the mean.
//!
//! The ledger grows by a row per delivered packet: 2.09 bytes (16.73
//! bits) on average on `sat_mesh8x8` (mesh8x8 at 40 % load), 1.55 (12.38
//! bits) on `lowload_mesh12x12` (mesh12x12 at 0.1 %), and 2.10 over the
//! 4.7 M packets of the 1 M-cycle `ledger_memory` probe.
//!
//! The open window is a **dense window** of one 32-byte `Entry` per id
//! from `base` on, and in front of it, for the ids of `[lo, base)`:
//!
//! * the **pinned list**: the entries that were undelivered when they
//!   left the dense window, by id; the first is `lo`'s;
//! * the **parked queue**: the other ids' entries, all delivered, as
//!   archive rows in id order in a bit queue with a coder of its own,
//!   about 2 bytes each.
//!
//! The dense window holds no more delivered entries than undelivered
//! ones: when a delivery breaks that, entries leave its front, an
//! undelivered one for the pinned list and a delivered one for the
//! parked queue, until it holds again. So the dense window spans at most
//! twice its undelivered entries, and that invariant is the whole rule.
//! When `lo`'s packet is delivered, `lo` walks up the ids, archiving
//! pinned entries and parked rows in id order, and stops at the next
//! undelivered pinned id; with none left, it goes on into the dense
//! window.
//!
//! Without the pinned list and the parked queue, a packet that is never
//! delivered would pin `lo` and cost every later id a 32-byte entry.
//! Overload does this to short curve points: `tornado` on a torus8x8 at
//! load 0.1875 ends its 9 216 cycles with `lo` at id 592 (released at
//! cycle 181, injected at 7 620, still in flight) and 17 066 ids behind
//! it, ≈ 0.55 MB of entries. The ledger ends that point with 92 dense
//! entries (792 at most), 13 479 parked rows and 3 495 pinned entries —
//! 2 912 of them delivered since, which wait as full entries until
//! packet 592 is — and its open window peaks at 208 KiB, spare capacity
//! included. A rerun with the same packets as a budget drains fully (by
//! cycle 12 857), so this is starvation under overload, not deadlock.
//! Where latencies spread, as on `sat_mesh8x8`, most packets pass
//! through the parked queue (87 %), and about one in eight is pinned.
//!
//! The archive's row sequence alone determines its bits, its coder state
//! and its tail word (whose unused bits stay zero). Which packets are
//! parked depends on the order of the calls, so `==` compares the open
//! window record by record unless both are laid out alike. Clones share
//! the archive ([`Arc`]): a snapshot copies only the open window, and a
//! ledger that archives more while a clone lives copies it
//! ([`Arc::make_mut`]).
//!
//! # Watching a window
//!
//! A ledger told before its first release to watch a measurement window
//! ([`PacketLedger::watch`]) folds each delivery into that window's
//! statistics — the packets and flits delivered inside it, and an exact
//! count per latency value of the packets injected inside it — and
//! keeps no history: it writes no archive row and parks no row, a
//! pinned entry leaves the pinned list when its packet is delivered,
//! and a delivered entry that leaves the dense window is dropped. It
//! holds only open packets: the dense window, at most twice its
//! undelivered entries, and the pinned list, all undelivered. On the
//! starving `tornado` point above its open window peaks at 72 KiB
//! (676 packets in flight), not 208 KiB. The latency counts take 4
//! bytes per value up to the largest latency below 2^16, and 16 bytes
//! per larger value. [`PacketLedger::watched`] rebuilds from
//! them the statistics [`WindowStats::from_ledger_both`] reads from a
//! full history. The curve harness measures every point this way.
//!
//! On a watching ledger [`PacketLedger::records`] yields only the
//! released packets not yet delivered; `==` compares the watched
//! window, its folded statistics, the counters, the digest and those
//! open records; [`PacketLedger::verify_drained`] works as before,
//! [`PacketLedger::archive_bytes`] reads 0 and
//! [`PacketLedger::window_bytes`] counts the dense window and the
//! pinned list. Every ledger, watching or not, keeps
//! [`PacketLedger::set_digest`]: the wrapping sum of one FNV-1a hash
//! per packet, folded at delivery, so it needs no history either.

use crate::latency::LatencyAnalyzer;
use crate::window::{Watch, Window, WindowStats};
use nocem_common::ids::PacketId;
use nocem_common::time::Cycle;
use std::collections::VecDeque;
use std::sync::Arc;

/// "Has not happened" in an [`Entry`] timestamp. A run cannot reach
/// cycle `u64::MAX`, so no real event carries it.
const NEVER: u64 = u64::MAX;

/// A quotient of this many zero bits is an escape: the field follows
/// as 64 raw bits instead of a Rice code.
const ESCAPE: u32 = 24;

/// The largest Rice parameter: a code that is not an escape then fits
/// one 64-bit word.
const MAX_K: u32 = 64 - ESCAPE;

/// The low [`ESCAPE`]` + 1` bits that open a row whose length differs
/// from the previous row's: [`ESCAPE`] zeros, then a one. An escaped
/// field has a zero there instead.
const LENGTH_MARKER: u64 = 1 << ESCAPE;

/// When the [`Rice`] row count reaches this, it and every sum halve.
const HALVING: u64 = 64;

/// The low `n` (≤ 64) bits set.
#[inline]
fn mask(n: u32) -> u64 {
    u64::MAX.checked_shr(64 - n).unwrap_or(0)
}

/// The adaptive Golomb–Rice parameters of the three row
/// fields: the sum of each field's values and the count of rows since
/// the last halving.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Rice {
    sums: [u64; 3],
    count: u64,
}

impl Rice {
    /// Field `f`'s parameter: the smallest `k` with
    /// `count · 2^(k+1) ≥ sum`, at most [`MAX_K`] — the number of raw low
    /// bits its next value is coded with.
    #[inline]
    fn k(&self, f: usize) -> u32 {
        let (twice, sum) = (2 * self.count, self.sums[f]);
        // At this `k`, `twice · 2^k` is as long as `sum` in bits (or
        // longer), so the answer is `k` or `k + 1`.
        let k = twice.leading_zeros().saturating_sub(sum.leading_zeros());
        (k + u32::from(twice << k < sum)).min(MAX_K)
    }

    /// Adds `v`, coded with parameter `k`, to field `f`'s sum. A value
    /// that escapes counts as the smallest one that would have, so an
    /// outlier cannot swamp the mean (and a sum stays below 2^51).
    #[inline]
    fn add(&mut self, f: usize, v: u64, k: u32) {
        self.sums[f] += v.min(u64::from(ESCAPE) << k);
    }

    /// Counts a row whose fields were all added.
    #[inline]
    fn end_row(&mut self) {
        self.count += 1;
        if self.count == HALVING {
            self.sums = self.sums.map(|sum| sum / 2);
            self.count /= 2;
        }
    }
}

/// Appends the low `n` (1 ..= 64) bits of `v`, whose higher bits are
/// zero, to the bit string `words` (least significant bit first) that
/// holds `*len` bits. Bits past `*len` stay zero, so equal bit strings
/// are equal word vectors.
#[inline]
fn put(words: &mut Vec<u64>, len: &mut u64, v: u64, n: u32) {
    let used = (*len % 64) as u32;
    match words.last_mut() {
        Some(last) if used > 0 => {
            *last |= v << used;
            if used + n > 64 {
                words.push(v >> (64 - used));
            }
        }
        _ => words.push(v),
    }
    *len += u64::from(n);
}

/// Appends `v` Rice-coded with field `f`'s parameter `k`: the quotient
/// `v >> k` in unary (that many zeros, then a one), then the low `k`
/// bits. A quotient of [`ESCAPE`] or more is [`ESCAPE`] zeros, a zero
/// and `v`'s 64 bits.
#[inline]
fn put_field(words: &mut Vec<u64>, len: &mut u64, rice: &mut Rice, f: usize, v: u64) {
    let k = rice.k(f);
    match v >> k {
        q if q < u64::from(ESCAPE) => {
            let unary = q as u32 + 1;
            put(words, len, (v & mask(k)) << unary | 1 << q, unary + k);
        }
        _ => {
            put(words, len, 0, ESCAPE + 1);
            put(words, len, v, 64);
        }
    }
    rice.add(f, v, k);
}

/// Reads a bit string written by [`put`] through a 64-bit window.
struct BitReader<'a> {
    words: &'a [u64],
    /// The next bit to read.
    at: u64,
    /// Bits from `at` on, of which the low `valid` are read from
    /// `words`; the rest may be anything.
    window: u64,
    valid: u32,
}

impl<'a> BitReader<'a> {
    /// A reader of `words` from bit `at` on.
    fn new(words: &'a [u64], at: u64) -> Self {
        BitReader {
            words,
            at,
            window: 0,
            valid: 0,
        }
    }

    /// Loads the 64 bits from `at` on into the window; zero past the end.
    #[inline]
    fn refill(&mut self) {
        let (i, shift) = ((self.at / 64) as usize, self.at % 64);
        let word = |i: usize| self.words.get(i).copied().unwrap_or(0);
        self.window = match shift {
            0 => word(i),
            _ => word(i) >> shift | word(i + 1) << (64 - shift),
        };
        self.valid = 64;
    }

    /// Moves past the next `n` (≤ `valid`) bits.
    #[inline]
    fn skip(&mut self, n: u32) {
        self.window = self.window.checked_shr(n).unwrap_or(0);
        self.valid -= n;
        self.at += u64::from(n);
    }

    /// The next `n` (≤ 64) bits.
    #[inline]
    fn take(&mut self, n: u32) -> u64 {
        if self.valid < n {
            self.refill();
        }
        let v = self.window & mask(n);
        self.skip(n);
        v
    }

    /// Inverse of [`put_field`]: a code that is not an escape is read
    /// from one window. The window's lowest set bit ends the unary
    /// quotient if the code it implies fits the valid bits; otherwise
    /// the window is reloaded, and then a code that is not an escape
    /// fits.
    // Left to itself the compiler calls this, and then the reader's
    // state goes through memory between the three fields of a row.
    #[inline(always)]
    fn take_field(&mut self, rice: &mut Rice, f: usize) -> u64 {
        let k = rice.k(f);
        let mut q = self.window.trailing_zeros();
        if q + 1 + k > self.valid {
            self.refill();
            q = self.window.trailing_zeros();
        }
        let v = if q < ESCAPE {
            self.skip(q + 1);
            u64::from(q) << k | self.take(k)
        } else {
            self.skip(ESCAPE + 1);
            self.take(64)
        };
        rice.add(f, v, k);
        v
    }
}

/// Lifecycle record of one open-window packet: three raw cycle counts
/// with a sentinel and the length, 32 bytes — not `Option`s (48). Only
/// pinned ids and the dense window keep one; the archive and the parked
/// queue encode the rest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Entry {
    /// [`NEVER`] marks an id that was never released (a vacant slot).
    release: u64,
    inject: u64,
    deliver: u64,
    len_flits: u16,
}

impl Entry {
    const VACANT: Entry = Entry {
        release: NEVER,
        inject: NEVER,
        deliver: NEVER,
        len_flits: 0,
    };

    /// Appends to the archive `words` of `*len` bits the row of this
    /// delivered entry, whose predecessor id is `prev`: if the length
    /// differs from `prev`'s, a [`LENGTH_MARKER`] and the length's 16
    /// bits; then release minus `prev`'s release, injection minus release
    /// and delivery minus injection — modulo 2^64, each coded with its
    /// own parameter in `rice`.
    fn encode(&self, prev: &Entry, rice: &mut Rice, words: &mut Vec<u64>, len: &mut u64) {
        if self.len_flits != prev.len_flits {
            let marker = u64::from(self.len_flits) << (ESCAPE + 1) | LENGTH_MARKER;
            put(words, len, marker, ESCAPE + 1 + 16);
        }
        let fields = [
            self.release.wrapping_sub(prev.release),
            self.inject.wrapping_sub(self.release),
            self.deliver.wrapping_sub(self.inject),
        ];
        for (f, v) in fields.into_iter().enumerate() {
            put_field(words, len, rice, f, v);
        }
        rice.end_row();
    }

    /// Inverse of [`Entry::encode`]: becomes the next id's entry. The
    /// window is loaded once per row, which then mostly fits it. A row
    /// that opens with [`ESCAPE`] zeros opens with a length marker if a
    /// one follows them and with an escaped release step if a zero does.
    #[inline]
    fn decode_next(&mut self, rice: &mut Rice, bits: &mut BitReader) {
        bits.refill();
        if bits.window & mask(ESCAPE + 1) == LENGTH_MARKER {
            bits.skip(ESCAPE + 1);
            self.len_flits = bits.take(16) as u16;
        }
        self.release = self.release.wrapping_add(bits.take_field(rice, 0));
        self.inject = self.release.wrapping_add(bits.take_field(rice, 1));
        self.deliver = self.inject.wrapping_add(bits.take_field(rice, 2));
        rice.end_row();
    }
}

/// Where a decoder of [`Entry::encode`] rows stands: the next row's
/// first bit, and the coder state and entry after the row before it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Cursor {
    at: u64,
    rice: Rice,
    entry: Entry,
}

impl Cursor {
    /// Decodes the row at the cursor from `words` and moves past it.
    fn next_row(&mut self, words: &[u64]) -> Entry {
        let mut bits = BitReader::new(words, self.at);
        self.entry.decode_next(&mut self.rice, &mut bits);
        self.at = bits.at;
        self.entry
    }
}

/// The delivered entries of the ids between the low-water mark and the
/// dense window that are not pinned, in id order, as a bit queue of
/// [`Entry::encode`] rows with a coder of its own: appended at the
/// back, decoded from the front.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Parked {
    words: Vec<u64>,
    /// The bits in `words`.
    bits: u64,
    /// The coder state after the last row, and that row's entry.
    rice: Rice,
    last: Entry,
    /// The first row not yet taken.
    front: Cursor,
}

impl Parked {
    fn push(&mut self, entry: Entry) {
        entry.encode(&self.last, &mut self.rice, &mut self.words, &mut self.bits);
        self.last = entry;
    }

    /// Takes the front row.
    fn pop(&mut self) -> Entry {
        debug_assert!(self.front.at < self.bits, "no parked row left");
        self.front.next_row(&self.words)
    }

    /// Drops the words every row of which was taken, once they are at
    /// least half the queue: each word is moved at most once on average.
    fn drop_taken(&mut self) {
        let taken = (self.front.at / 64) as usize;
        if taken > 0 && 2 * taken >= self.words.len() {
            self.words.drain(..taken);
            let moved = 64 * taken as u64;
            self.bits -= moved;
            self.front.at -= moved;
        }
    }
}

/// A recorded timestamp as the API shows it.
#[inline]
fn happened(at: u64) -> Option<Cycle> {
    (at != NEVER).then_some(Cycle::new(at))
}

/// The 64-bit FNV-1a hash of packet `id`'s lifecycle `entry`: of the
/// little-endian bytes of the id, the release cycle, the length in
/// flits (2 bytes), the injection cycle and the delivery cycle, 34 bytes
/// in all, an event that has not happened as `u64::MAX`.
#[inline]
fn packet_hash(id: u64, entry: &Entry) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0100_0000_01b3;
    let mut bytes = [0u8; 34];
    bytes[..8].copy_from_slice(&id.to_le_bytes());
    bytes[8..16].copy_from_slice(&entry.release.to_le_bytes());
    bytes[16..18].copy_from_slice(&entry.len_flits.to_le_bytes());
    bytes[18..26].copy_from_slice(&entry.inject.to_le_bytes());
    bytes[26..].copy_from_slice(&entry.deliver.to_le_bytes());
    (bytes.iter()).fold(OFFSET, |h, &b| (h ^ u64::from(b)).wrapping_mul(PRIME))
}

/// Violation of packet conservation — always an engine bug.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LedgerError {
    /// A packet id was registered twice.
    DuplicateRelease(PacketId),
    /// An event referenced a packet that was never released.
    UnknownPacket(PacketId),
    /// A packet was injected or delivered twice.
    DuplicateEvent(PacketId),
    /// A packet was delivered with a different length than released.
    LengthMismatch {
        /// The packet.
        packet: PacketId,
        /// Length at release.
        released: u16,
        /// Length at delivery.
        delivered: u16,
    },
    /// A window to watch was registered after the first release, or
    /// after another window.
    LateWatch,
}

impl std::fmt::Display for LedgerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LedgerError::DuplicateRelease(p) => write!(f, "packet {p} released twice"),
            LedgerError::UnknownPacket(p) => write!(f, "event for unknown packet {p}"),
            LedgerError::DuplicateEvent(p) => write!(f, "duplicate inject/deliver for {p}"),
            LedgerError::LengthMismatch {
                packet,
                released,
                delivered,
            } => write!(
                f,
                "packet {packet} released with {released} flits but delivered with {delivered}"
            ),
            LedgerError::LateWatch => {
                write!(
                    f,
                    "a window to watch must be the ledger's first and only one, before any release"
                )
            }
        }
    }
}

impl std::error::Error for LedgerError {}

/// Latencies computed when a packet is delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketLatency {
    /// Injection → delivery, in cycles.
    pub network: u64,
    /// Release → delivery, in cycles.
    pub total: u64,
}

/// One packet's full lifecycle as recorded by the ledger — the raw
/// material of windowed (warm-up-discarding) measurement
/// ([`crate::window`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketRecord {
    /// The packet.
    pub id: PacketId,
    /// Release cycle (traffic model emitted the request).
    pub release: Cycle,
    /// Packet length in flits.
    pub len_flits: u16,
    /// Head-flit injection cycle (`None` while queued at the source).
    pub inject: Option<Cycle>,
    /// Tail-flit delivery cycle (`None` while in flight).
    pub deliver: Option<Cycle>,
}

impl PacketRecord {
    /// Network latency (injection → delivery), when delivered.
    pub fn network_latency(&self) -> Option<u64> {
        Some(self.deliver?.since(self.inject?))
    }

    /// Total latency (release → delivery), when delivered.
    pub fn total_latency(&self) -> Option<u64> {
        Some(self.deliver?.since(self.release))
    }
}

/// Packet accounting keyed by [`PacketId`] (ids are assigned
/// contiguously from zero by the engine).
///
/// Ledgers compare by value (every per-packet release/inject/deliver
/// timestamp and length): two runs with equal ledgers released,
/// injected and delivered the same packets at the same cycles — the
/// exactness bar the clock-gating equivalence tests hold the engines
/// to. A ledger that watches a window ([`PacketLedger::watch`]) keeps
/// no history; see the [module docs](self) for how the packets are
/// stored, and what a watching ledger's `==` compares.
#[derive(Debug, Clone, Default)]
pub struct PacketLedger {
    /// One row per id of `[0, lo)` as a bit string, shared by clones
    /// until one archives more.
    archive: Arc<Vec<u64>>,
    /// The bits in `archive`.
    archive_bits: u64,
    /// The coder's parameters after row `lo − 1`.
    rice: Rice,
    /// The low-water mark, so also the number of archived rows.
    lo: u64,
    /// Entry of id `lo − 1` (all zero before any): the next row's base.
    last: Entry,
    /// The first id of the dense window. Each id of `[lo, base)` is
    /// pinned or parked.
    base: u64,
    /// The ids of `[lo, base)` that were undelivered when they left the
    /// dense window, ascending; the first is `lo`, and undelivered.
    pinned: VecDeque<(u64, Entry)>,
    /// The other ids of `[lo, base)`: delivered.
    parked: Parked,
    /// Ids `base ..` up to the highest released one (empty when that is
    /// below `base`). With nothing pinned the front entry is never
    /// delivered, and the window never holds more delivered entries
    /// than undelivered ones.
    window: VecDeque<Entry>,
    /// The delivered entries in `window`.
    window_delivered: usize,
    /// The window watched, when one is: then nothing is archived or
    /// parked, and a delivered entry is dropped when it leaves the
    /// pinned list or the dense window.
    watch: Option<Box<Watch>>,
    /// The wrapping sum of [`packet_hash`] over the delivered packets.
    digest: u64,
    released: u64,
    injected: u64,
    delivered: u64,
    network_latency: LatencyAnalyzer,
    total_latency: LatencyAnalyzer,
}

impl PacketLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        PacketLedger::default()
    }

    /// The pinned entry of `id`, if it is pinned.
    fn pinned_mut(&mut self, id: u64) -> Option<&mut Entry> {
        let i = self.pinned.binary_search_by_key(&id, |&(p, _)| p).ok()?;
        Some(&mut self.pinned[i].1)
    }

    /// The entry of a released packet that is pinned or in the dense
    /// window. An archived or a parked packet has had every event, so a
    /// new one is a duplicate.
    #[inline]
    fn open_entry(&mut self, id: PacketId) -> Result<&mut Entry, LedgerError> {
        let entry = match id.raw().checked_sub(self.base) {
            Some(offset) => self.window.get_mut(offset as usize),
            None => Some(
                self.pinned_mut(id.raw())
                    .ok_or(LedgerError::DuplicateEvent(id))?,
            ),
        };
        entry
            .filter(|e| e.release != NEVER)
            .ok_or(LedgerError::UnknownPacket(id))
    }

    /// Moves `lo` across the delivered ids from `lo` on, archiving each
    /// — pinned, parked, then from the front of the dense window — up
    /// to the first one that is not. A watching ledger drops them
    /// instead: its pinned entries are all undelivered, so `lo` moves
    /// to the first of them, or with none into the dense window.
    fn archive_delivered(&mut self) {
        if self.watch.is_some() {
            if let Some(&(id, _)) = self.pinned.front() {
                self.lo = id;
                return;
            }
            while self.window.front().is_some_and(|e| e.deliver != NEVER) {
                self.window.pop_front();
                self.window_delivered -= 1;
                self.base += 1;
            }
            self.lo = self.base;
            return;
        }
        let words = Arc::make_mut(&mut self.archive);
        loop {
            let entry = if self.lo < self.base {
                match self.pinned.front() {
                    Some(&(id, entry)) if id == self.lo => {
                        if entry.deliver == NEVER {
                            break;
                        }
                        self.pinned.pop_front();
                        entry
                    }
                    _ => self.parked.pop(),
                }
            } else {
                match self.window.front() {
                    Some(&entry) if entry.deliver != NEVER => {
                        self.window.pop_front();
                        self.window_delivered -= 1;
                        self.base += 1;
                        entry
                    }
                    _ => break,
                }
            };
            entry.encode(&self.last, &mut self.rice, words, &mut self.archive_bits);
            self.last = entry;
            self.lo += 1;
        }
        self.parked.drop_taken();
    }

    /// Restores the window's invariant — no more delivered entries than
    /// undelivered ones — by moving entries off its front: an
    /// undelivered one to the pinned list, a delivered one to the
    /// parked queue (or nowhere, in a watching ledger).
    fn park(&mut self) {
        while 2 * self.window_delivered > self.window.len() {
            let entry = self.window.pop_front().expect("a delivered entry");
            if entry.deliver == NEVER {
                self.pinned.push_back((self.base, entry));
            } else {
                if self.watch.is_none() {
                    self.parked.push(entry);
                }
                self.window_delivered -= 1;
            }
            self.base += 1;
        }
    }

    /// Registers a packet release.
    ///
    /// # Errors
    ///
    /// Returns [`LedgerError::DuplicateRelease`] if the id was already
    /// registered.
    #[inline]
    pub fn release(&mut self, id: PacketId, at: Cycle, len_flits: u16) -> Result<(), LedgerError> {
        debug_assert_ne!(at.raw(), NEVER, "cycle u64::MAX is the vacant marker");
        let entry = match id.raw().checked_sub(self.base) {
            Some(offset) => {
                let offset = offset as usize;
                if offset >= self.window.len() {
                    self.window.resize(offset + 1, Entry::VACANT);
                }
                &mut self.window[offset]
            }
            None => self
                .pinned_mut(id.raw())
                .ok_or(LedgerError::DuplicateRelease(id))?,
        };
        if entry.release != NEVER {
            return Err(LedgerError::DuplicateRelease(id));
        }
        *entry = Entry {
            release: at.raw(),
            len_flits,
            ..Entry::VACANT
        };
        self.released += 1;
        Ok(())
    }

    /// Records the head flit entering the network.
    ///
    /// # Errors
    ///
    /// Returns [`LedgerError`] for unknown or doubly injected packets.
    #[inline]
    pub fn inject(&mut self, id: PacketId, at: Cycle) -> Result<(), LedgerError> {
        let entry = self.open_entry(id)?;
        if entry.inject != NEVER {
            return Err(LedgerError::DuplicateEvent(id));
        }
        entry.inject = at.raw();
        self.injected += 1;
        Ok(())
    }

    /// Records the tail flit reaching its receptor and returns the
    /// packet's latencies.
    ///
    /// # Errors
    ///
    /// Returns [`LedgerError`] for unknown packets, double deliveries,
    /// deliveries without injection, or length mismatches.
    #[inline]
    pub fn deliver(
        &mut self,
        id: PacketId,
        at: Cycle,
        len_flits: u16,
    ) -> Result<PacketLatency, LedgerError> {
        let entry = self.open_entry(id)?;
        if entry.deliver != NEVER {
            return Err(LedgerError::DuplicateEvent(id));
        }
        let inject = happened(entry.inject).ok_or(LedgerError::UnknownPacket(id))?;
        if entry.len_flits != len_flits {
            return Err(LedgerError::LengthMismatch {
                packet: id,
                released: entry.len_flits,
                delivered: len_flits,
            });
        }
        entry.deliver = at.raw();
        let done = *entry;
        let lat = PacketLatency {
            network: at.since(inject),
            total: at.since(Cycle::new(done.release)),
        };
        self.delivered += 1;
        self.network_latency.record(lat.network);
        self.total_latency.record(lat.total);
        self.digest = self.digest.wrapping_add(packet_hash(id.raw(), &done));
        if id.raw() >= self.base {
            self.window_delivered += 1;
        }
        if let Some(watch) = &mut self.watch {
            watch.fold(done.inject, done.deliver, done.len_flits, lat);
            if id.raw() < self.base {
                let i = self.pinned.binary_search_by_key(&id.raw(), |&(p, _)| p);
                self.pinned
                    .remove(i.expect("an open entry below the dense window is pinned"));
            }
        }
        if id.raw() == self.lo {
            self.archive_delivered();
        }
        if 2 * self.window_delivered > self.window.len() {
            self.park();
        }
        Ok(lat)
    }

    /// Packets released so far.
    pub fn released(&self) -> u64 {
        self.released
    }

    /// Packets whose head entered the network.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Packets fully delivered.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Released but not yet delivered.
    pub fn in_flight(&self) -> u64 {
        self.released - self.delivered
    }

    /// Network latency statistics over all delivered packets.
    pub fn network_latency(&self) -> &LatencyAnalyzer {
        &self.network_latency
    }

    /// Total latency statistics over all delivered packets.
    pub fn total_latency(&self) -> &LatencyAnalyzer {
        &self.total_latency
    }

    /// Watches `window` from now on: each delivery folds into the
    /// window's statistics ([`PacketLedger::watched`]), and the ledger
    /// keeps no history — no archive row, no parked row, and no entry of
    /// a delivered packet past the dense window — so it holds only the
    /// open packets. [`PacketLedger::records`] then yields those alone.
    ///
    /// # Errors
    ///
    /// Returns [`LedgerError::LateWatch`] after the first release, or
    /// when the ledger watches a window already: the statistics would
    /// miss the packets delivered before.
    pub fn watch(&mut self, window: Window) -> Result<(), LedgerError> {
        if self.released > 0 || self.watch.is_some() {
            return Err(LedgerError::LateWatch);
        }
        self.watch = Some(Box::new(Watch::new(window)));
        Ok(())
    }

    /// The network- and total-latency statistics of the window watched,
    /// equal to what [`WindowStats::from_ledger_both`] reads from a
    /// ledger that kept its history over the same events; `None` when
    /// the ledger watches no window.
    pub fn watched(&self) -> Option<(WindowStats, WindowStats)> {
        self.watch.as_ref().map(|w| w.stats())
    }

    /// An order-free digest of every packet's lifecycle: the wrapping
    /// sum, over the released packets, of the 64-bit FNV-1a hash of the
    /// little-endian bytes of (id, release, length in flits as 2 bytes,
    /// injection, delivery), with `u64::MAX` for an event that has not
    /// happened. Delivered packets are folded in at delivery and the
    /// open ones added here, so it needs no history and costs the open
    /// packets alone.
    pub fn set_digest(&self) -> u64 {
        (self.held())
            .filter(|(_, e)| e.release != NEVER && e.deliver == NEVER)
            .fold(self.digest, |sum, (id, e)| {
                sum.wrapping_add(packet_hash(id, &e))
            })
    }

    /// Heap bytes the archive of delivered packets takes: its whole
    /// 64-bit words, without spare capacity (0 in a watching ledger).
    pub fn archive_bytes(&self) -> usize {
        self.archive.len() * std::mem::size_of::<u64>()
    }

    /// Heap bytes the open window takes: the allocations of the dense
    /// window, the pinned list and the parked queue, spare capacity
    /// included. A watching ledger parks nothing, and the latency counts
    /// of its window are not part of the open window.
    pub fn window_bytes(&self) -> usize {
        use std::mem::size_of;
        self.window.capacity() * size_of::<Entry>()
            + self.pinned.capacity() * size_of::<(u64, Entry)>()
            + self.parked.words.capacity() * size_of::<u64>()
    }

    /// The pinned entries and the dense window's, with their ids, in
    /// id order: every undelivered packet is among them.
    fn held(&self) -> impl Iterator<Item = (u64, Entry)> + '_ {
        let dense = self.window.iter().zip(self.base..).map(|(&e, id)| (id, e));
        self.pinned.iter().copied().chain(dense)
    }

    /// The entry of every id from `lo` up to the highest released one
    /// that the ledger keeps, in id order, vacant ones included: every
    /// id, unless the ledger watches a window and dropped delivered ones.
    fn open_entries(&self) -> impl Iterator<Item = (u64, Entry)> + '_ {
        let watching = self.watch.is_some();
        let (mut pinned, mut parked) = (self.pinned.iter().peekable(), self.parked.front);
        let behind = (self.lo..self.base).filter_map(move |id| {
            let entry = match pinned.next_if(|&&(p, _)| p == id) {
                Some(&(_, entry)) => entry,
                None if watching => return None,
                None => parked.next_row(&self.parked.words),
            };
            Some((id, entry))
        });
        behind.chain(self.window.iter().zip(self.base..).map(|(&e, id)| (id, e)))
    }

    /// Iterates the lifecycle record of every registered packet, in
    /// packet-id order. A watching ledger keeps no delivered packet's
    /// record: it yields the released packets not yet delivered.
    pub fn records(&self) -> impl Iterator<Item = PacketRecord> + '_ {
        let watching = self.watch.is_some();
        let mut archived = Cursor::default();
        (0..if watching { 0 } else { self.lo })
            .map(move |id| (id, archived.next_row(&self.archive)))
            .chain(self.open_entries())
            .filter(move |(_, e)| e.release != NEVER && !(watching && e.deliver != NEVER))
            .map(|(id, e)| PacketRecord {
                id: PacketId::new(id),
                release: Cycle::new(e.release),
                len_flits: e.len_flits,
                inject: happened(e.inject),
                deliver: happened(e.deliver),
            })
    }

    /// Verifies full conservation at end of run: everything released
    /// was delivered. Only the pinned list and the dense window are
    /// scanned: every archived, parked or dropped packet is delivered
    /// by construction.
    ///
    /// # Errors
    ///
    /// Returns the first undelivered packet as
    /// [`LedgerError::UnknownPacket`]-style diagnostics.
    pub fn verify_drained(&self) -> Result<(), LedgerError> {
        match (self.held()).find(|(_, e)| e.release != NEVER && e.deliver == NEVER) {
            Some((id, _)) => Err(LedgerError::UnknownPacket(PacketId::new(id))),
            None => Ok(()),
        }
    }
}

/// Logical equality: the same records and statistics. Which delivered
/// entries are parked depends on the order of the calls, so ledgers
/// whose open windows are laid out alike compare those directly, and
/// others record by record. Watching ledgers are equal when they watch
/// the same window with the same folded statistics and digest and hold
/// the same open packets; a watching ledger never equals one that keeps
/// its history.
impl PartialEq for PacketLedger {
    fn eq(&self, other: &Self) -> bool {
        let counts = |l: &Self| {
            let events = (l.released, l.injected, l.delivered);
            (l.lo, l.archive_bits, events, l.digest)
        };
        let same_layout = || {
            self.base == other.base
                && self.pinned == other.pinned
                && self.parked == other.parked
                && self.window == other.window
        };
        let same_open = || match self.watch {
            Some(_) => self.records().eq(other.records()),
            None => {
                self.archive == other.archive
                    && (same_layout() || self.open_entries().eq(other.open_entries()))
            }
        };
        counts(self) == counts(other)
            && self.network_latency == other.network_latency
            && self.total_latency == other.total_latency
            && self.watch == other.watch
            && same_open()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_lifecycle() {
        let mut l = PacketLedger::new();
        let id = PacketId::new(0);
        l.release(id, Cycle::new(10), 4).unwrap();
        l.inject(id, Cycle::new(12)).unwrap();
        let lat = l.deliver(id, Cycle::new(20), 4).unwrap();
        assert_eq!(lat.network, 8);
        assert_eq!(lat.total, 10);
        assert_eq!(l.released(), 1);
        assert_eq!(l.injected(), 1);
        assert_eq!(l.delivered(), 1);
        assert_eq!(l.in_flight(), 0);
        l.verify_drained().unwrap();
        assert_eq!(l.network_latency().count(), 1);
        assert_eq!(l.total_latency().max(), Some(10));
    }

    #[test]
    fn duplicate_release_rejected() {
        let mut l = PacketLedger::new();
        l.release(PacketId::new(1), Cycle::ZERO, 1).unwrap();
        let err = l.release(PacketId::new(1), Cycle::ZERO, 1).unwrap_err();
        assert!(matches!(err, LedgerError::DuplicateRelease(_)));
    }

    #[test]
    fn unknown_packet_rejected() {
        let mut l = PacketLedger::new();
        assert!(matches!(
            l.inject(PacketId::new(5), Cycle::ZERO),
            Err(LedgerError::UnknownPacket(_))
        ));
        assert!(matches!(
            l.deliver(PacketId::new(5), Cycle::ZERO, 1),
            Err(LedgerError::UnknownPacket(_))
        ));
    }

    #[test]
    fn double_events_rejected() {
        let mut l = PacketLedger::new();
        let id = PacketId::new(0);
        l.release(id, Cycle::ZERO, 2).unwrap();
        l.inject(id, Cycle::new(1)).unwrap();
        assert!(matches!(
            l.inject(id, Cycle::new(2)),
            Err(LedgerError::DuplicateEvent(_))
        ));
        l.deliver(id, Cycle::new(5), 2).unwrap();
        assert!(matches!(
            l.deliver(id, Cycle::new(6), 2),
            Err(LedgerError::DuplicateEvent(_))
        ));
    }

    #[test]
    fn length_mismatch_rejected() {
        let mut l = PacketLedger::new();
        let id = PacketId::new(0);
        l.release(id, Cycle::ZERO, 4).unwrap();
        l.inject(id, Cycle::ZERO).unwrap();
        let err = l.deliver(id, Cycle::new(3), 3).unwrap_err();
        assert!(matches!(err, LedgerError::LengthMismatch { .. }));
        assert!(err.to_string().contains("4 flits"));
    }

    #[test]
    fn delivery_requires_injection() {
        let mut l = PacketLedger::new();
        let id = PacketId::new(0);
        l.release(id, Cycle::ZERO, 1).unwrap();
        assert!(l.deliver(id, Cycle::new(1), 1).is_err());
    }

    /// The compact entries raise exactly the errors the `Option`-based
    /// ones did, in the same precedence — archived packets included.
    #[test]
    fn every_ledger_error_still_fires() {
        let mut l = PacketLedger::new();
        let (a, gap, b) = (PacketId::new(0), PacketId::new(1), PacketId::new(2));
        l.release(a, Cycle::new(1), 4).unwrap();
        l.release(b, Cycle::new(1), 4).unwrap();
        assert_eq!(
            l.release(a, Cycle::new(2), 4),
            Err(LedgerError::DuplicateRelease(a))
        );
        // An id inside the vector that was never released is unknown,
        // like one beyond it.
        for id in [gap, PacketId::new(9)] {
            assert_eq!(
                l.inject(id, Cycle::new(2)),
                Err(LedgerError::UnknownPacket(id))
            );
            assert_eq!(
                l.deliver(id, Cycle::new(2), 4),
                Err(LedgerError::UnknownPacket(id))
            );
        }
        // Delivery before injection.
        assert_eq!(
            l.deliver(a, Cycle::new(2), 4),
            Err(LedgerError::UnknownPacket(a))
        );
        l.inject(a, Cycle::ZERO).unwrap();
        assert_eq!(
            l.inject(a, Cycle::new(3)),
            Err(LedgerError::DuplicateEvent(a))
        );
        assert_eq!(
            l.deliver(a, Cycle::new(5), 3),
            Err(LedgerError::LengthMismatch {
                packet: a,
                released: 4,
                delivered: 3
            })
        );
        assert_eq!(l.delivered(), 0, "a refused delivery books nothing");
        l.deliver(a, Cycle::new(5), 4).unwrap();
        assert_eq!(l.lo, 1, "the delivered packet is archived");
        assert_eq!(
            l.deliver(a, Cycle::new(6), 4),
            Err(LedgerError::DuplicateEvent(a))
        );
        assert_eq!(
            l.inject(a, Cycle::new(6)),
            Err(LedgerError::DuplicateEvent(a))
        );
        assert_eq!(
            l.release(a, Cycle::new(6), 4),
            Err(LedgerError::DuplicateRelease(a))
        );
        assert_eq!(l.verify_drained(), Err(LedgerError::UnknownPacket(b)));
        let ids: Vec<_> = l.records().map(|r| r.id).collect();
        assert_eq!(ids, [a, b], "the gap is not a record");
    }

    #[test]
    fn verify_drained_finds_stragglers() {
        let mut l = PacketLedger::new();
        l.release(PacketId::new(0), Cycle::ZERO, 1).unwrap();
        assert!(l.verify_drained().is_err());
        assert_eq!(l.in_flight(), 1);
    }

    /// `verify_drained` reads only the pinned list and the dense window:
    /// the delivered packets before the oldest straggler are archived,
    /// and those behind it leave the dense window for the parked queue
    /// as soon as they outnumber its undelivered ones.
    #[test]
    fn verify_drained_scans_only_the_open_window() {
        let mut l = PacketLedger::new();
        for i in 0..1_000 {
            let id = PacketId::new(i);
            l.release(id, Cycle::new(i), 2).unwrap();
            l.inject(id, Cycle::new(i + 1)).unwrap();
        }
        for i in (0..1_000).filter(|&i| i != 500 && i != 700) {
            l.deliver(PacketId::new(i), Cycle::new(i + 9), 2).unwrap();
            assert!(2 * l.window_delivered <= l.window.len());
        }
        let layout = |l: &PacketLedger| {
            let pinned: Vec<u64> = l.pinned.iter().map(|&(id, _)| id).collect();
            (l.lo, pinned, l.base, l.window.len())
        };
        assert_eq!(layout(&l), (500, vec![500, 700], 1_000, 0));
        let straggler = |i| Err(LedgerError::UnknownPacket(PacketId::new(i)));
        assert_eq!(l.verify_drained(), straggler(500));
        l.deliver(PacketId::new(500), Cycle::new(600), 2).unwrap();
        assert_eq!(layout(&l), (700, vec![700], 1_000, 0));
        assert_eq!(l.verify_drained(), straggler(700));
        l.deliver(PacketId::new(700), Cycle::new(800), 2).unwrap();
        assert_eq!(layout(&l), (1_000, vec![], 1_000, 0));
        assert!(l.parked.words.len() <= 1, "the taken rows are dropped");
        l.verify_drained().unwrap();
        // Vacant ids in the window are not stragglers, but they hold `lo`.
        l.release(PacketId::new(1_003), Cycle::new(900), 2).unwrap();
        assert_eq!(l.verify_drained(), straggler(1_003));
        l.inject(PacketId::new(1_003), Cycle::new(901)).unwrap();
        l.deliver(PacketId::new(1_003), Cycle::new(902), 2).unwrap();
        l.verify_drained().unwrap();
        assert_eq!(layout(&l), (1_000, vec![], 1_000, 4));
        assert!(l
            .records()
            .map(|r| r.id.raw())
            .eq((0..1_000).chain([1_003])));
    }

    /// A watching ledger keeps no history. The calls of
    /// `verify_drained_scans_only_the_open_window` leave it with the two
    /// stragglers pinned and nothing archived or parked; `records()`
    /// yields just those two, each leaves the pinned list at its
    /// delivery, and the window's statistics count every packet.
    #[test]
    fn a_watching_ledger_holds_only_open_packets() {
        let window = Window {
            start: 0,
            end: 2_000,
        };
        let mut late = PacketLedger::new();
        late.release(PacketId::new(0), Cycle::ZERO, 2).unwrap();
        assert_eq!(late.watch(window), Err(LedgerError::LateWatch));
        let mut l = PacketLedger::new();
        l.watch(window).unwrap();
        assert_eq!(l.watch(window), Err(LedgerError::LateWatch));
        assert_eq!(l.watched().map(|(n, _)| n.window()), Some(window));
        for i in 0..1_000 {
            let id = PacketId::new(i);
            l.release(id, Cycle::new(i), 2).unwrap();
            l.inject(id, Cycle::new(i + 1)).unwrap();
        }
        for i in (0..1_000).filter(|&i| i != 500 && i != 700) {
            l.deliver(PacketId::new(i), Cycle::new(i + 9), 2).unwrap();
            assert!(2 * l.window_delivered <= l.window.len());
            assert!(l.pinned.iter().all(|(_, e)| e.deliver == NEVER));
        }
        let layout = |l: &PacketLedger| {
            let pinned: Vec<u64> = l.pinned.iter().map(|&(id, _)| id).collect();
            (l.lo, pinned, l.base, l.window.len())
        };
        assert_eq!(layout(&l), (500, vec![500, 700], 1_000, 0));
        assert_eq!((l.archive_bytes(), l.parked.words.capacity()), (0, 0));
        let open = |l: &PacketLedger| l.records().map(|r| r.id.raw()).collect::<Vec<_>>();
        assert_eq!(open(&l), [500, 700]);
        assert_eq!(
            l.deliver(PacketId::new(499), Cycle::new(999), 2),
            Err(LedgerError::DuplicateEvent(PacketId::new(499))),
            "a dropped packet was delivered"
        );
        l.deliver(PacketId::new(700), Cycle::new(800), 2).unwrap();
        assert_eq!(layout(&l), (500, vec![500], 1_000, 0));
        assert_eq!(open(&l), [500]);
        l.deliver(PacketId::new(500), Cycle::new(600), 2).unwrap();
        assert_eq!(layout(&l), (1_000, vec![], 1_000, 0));
        assert_eq!(open(&l), [0u64; 0]);
        l.verify_drained().unwrap();
        let (network, total) = l.watched().expect("the ledger watches");
        assert_eq!((network.samples(), total.samples()), (1_000, 1_000));
        assert_eq!(network.delivered_packets(), 1_000);
        assert_eq!(network.max(), Some(99));
        assert_eq!(PacketLedger::new().watched(), None);
    }

    /// The digest sums one hash per packet, whatever the order of the
    /// calls and whether the ledger watches: a packet's hash is the same
    /// open or delivered only if the lifecycle is, so delivering one
    /// moves the digest.
    #[test]
    fn the_digest_is_a_sum_over_packets() {
        let run = |watch: bool, order: [u64; 3]| {
            let mut l = PacketLedger::new();
            if watch {
                l.watch(Window { start: 0, end: 10 }).unwrap();
            }
            for id in order {
                l.release(PacketId::new(id), Cycle::new(id), 3).unwrap();
                l.inject(PacketId::new(id), Cycle::new(id + 1)).unwrap();
            }
            l.deliver(PacketId::new(order[1]), Cycle::new(9), 3)
                .unwrap();
            l
        };
        let digest = run(false, [0, 1, 2]).set_digest();
        assert_eq!(run(true, [0, 1, 2]).set_digest(), digest);
        assert_eq!(run(true, [2, 1, 0]).set_digest(), digest);
        let mut l = run(true, [0, 1, 2]);
        l.deliver(PacketId::new(2), Cycle::new(9), 3).unwrap();
        assert_ne!(l.set_digest(), digest);
        // The hash of the empty lifecycle of id 0: FNV-1a over 34 bytes.
        let entry = Entry {
            release: 0,
            len_flits: 0,
            ..Entry::VACANT
        };
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in [[0u8; 18], [0xff; 18]].concat().into_iter().take(34) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        assert_eq!(packet_hash(0, &entry), h);
    }

    /// A long run at `sat_mesh8x8`'s mix costs at most 2.6 bytes per
    /// packet (2.55 measured): releases 0–15 cycles apart, most 0 or 1;
    /// a quarter queue under 64 cycles, most under 512, a few up to
    /// 5 000; three quarters cross the network in 16–63 cycles, the rest
    /// in up to 300; one length. The window never outgrows the in-flight
    /// span, `records()` decodes the exact timestamps, and a clone taken
    /// afterwards shares the archive and keeps its records while the
    /// original archives on.
    #[test]
    fn archive_costs_four_bytes_per_packet_and_a_clone_shares_it() {
        const PACKETS: u64 = 120_000;
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut draw = |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let mut release = 0;
        let want: Vec<PacketRecord> = (0..PACKETS)
            .map(|id| {
                release += if draw(8) == 0 { draw(16) } else { draw(2) };
                let queue = match draw(8) {
                    0 | 1 => draw(64),
                    2 => draw(5_001),
                    _ => draw(512),
                };
                let inject = release + queue;
                let network = 16 + if draw(4) == 0 { draw(285) } else { draw(48) };
                PacketRecord {
                    id: PacketId::new(id),
                    release: Cycle::new(release),
                    len_flits: 4,
                    inject: Some(Cycle::new(inject)),
                    deliver: Some(Cycle::new(inject + network)),
                }
            })
            .collect();
        // Every event in cycle order; within a cycle releases come
        // first, so ids are released in order.
        let mut events: Vec<(Cycle, u8, PacketId)> = (want.iter())
            .flat_map(|r| {
                [
                    (r.release, 0, r.id),
                    (r.inject.unwrap(), 1, r.id),
                    (r.deliver.unwrap(), 2, r.id),
                ]
            })
            .collect();
        events.sort_unstable();
        let mut l = PacketLedger::new();
        let (mut released, mut oldest_open, mut widest) = (0, 0, 0);
        let mut delivered = vec![false; PACKETS as usize];
        for (at, kind, id) in events {
            match kind {
                0 => {
                    l.release(id, at, 4).unwrap();
                    released += 1;
                }
                1 => l.inject(id, at).unwrap(),
                _ => {
                    l.deliver(id, at, 4).unwrap();
                    delivered[id.raw() as usize] = true;
                }
            }
            while delivered.get(oldest_open) == Some(&true) {
                oldest_open += 1;
            }
            let span = released - oldest_open;
            assert!(
                l.window.len() <= span,
                "window {} > span {span}",
                l.window.len()
            );
            widest = widest.max(span);
        }
        assert!(
            l.window.is_empty() && widest > 1_000,
            "widest span {widest}"
        );
        let bytes = l.archive_bytes() as u64;
        assert!(5 * bytes <= 13 * PACKETS, "{bytes} B archived");
        assert!(l.records().eq(want.iter().copied()));

        let snapshot = l.clone();
        assert!(Arc::ptr_eq(&snapshot.archive, &l.archive));
        let id = PacketId::new(PACKETS);
        l.release(id, Cycle::new(release), 2).unwrap();
        l.inject(id, Cycle::new(release)).unwrap();
        l.deliver(id, Cycle::new(release + 20), 2).unwrap();
        assert!(!Arc::ptr_eq(&snapshot.archive, &l.archive));
        assert!(snapshot.records().eq(want.iter().copied()));
        assert_eq!(
            (l.lo, l.records().last().map(|r| r.id)),
            (PACKETS + 1, Some(id))
        );
    }

    /// Packet 0 never arrives; packets 1–8, all released at cycle 0 and
    /// injected at 1, are delivered in `order`, packet `i` at cycle
    /// `20 + i` — or 3 and 4 at each other's cycle, for `swapped`, which
    /// leaves the latency statistics as they were.
    fn behind_a_straggler(order: impl Iterator<Item = u64>, swapped: bool) -> PacketLedger {
        let mut l = PacketLedger::new();
        for i in 0..=8 {
            l.release(PacketId::new(i), Cycle::ZERO, 2).unwrap();
            l.inject(PacketId::new(i), Cycle::new(1)).unwrap();
        }
        for i in order {
            let at = match i {
                3 | 4 if swapped => 27 - i,
                _ => 20 + i,
            };
            l.deliver(PacketId::new(i), Cycle::new(at), 2).unwrap();
        }
        l
    }

    /// Ledgers laid out alike compare their parked rows; ledgers that
    /// parked different packets compare record by record.
    #[test]
    fn equality_reads_parked_rows() {
        let pinned = |l: &PacketLedger| l.pinned.iter().map(|&(id, _)| id).collect::<Vec<_>>();
        let in_order = behind_a_straggler(1..=8, false);
        assert_eq!((pinned(&in_order), in_order.base), (vec![0], 9));
        let swapped = behind_a_straggler(1..=8, true);
        assert_eq!((pinned(&swapped), swapped.base), (vec![0], 9));
        assert_eq!(in_order.network_latency(), swapped.network_latency());
        assert_ne!(in_order, swapped, "packets 3 and 4 are parked apart");
        let reversed = behind_a_straggler((1..=8).rev(), false);
        assert_eq!(pinned(&reversed), [0, 1, 2, 3]);
        assert_eq!(in_order, reversed);
        assert!(in_order.records().eq(reversed.records()));
    }

    /// Deltas wrap modulo 2^64: half-range jumps (the longest rows) in
    /// every field, jumps that are short only modulo 2^64, and lengths
    /// at both ends of `u16` decode exactly. Latencies stay small, or
    /// saturate at 0, so the analyzers' sums cannot overflow.
    #[test]
    fn extreme_deltas_round_trip() {
        let (half, far) = (1 << 63, u64::MAX - 1);
        let rows = [
            (half, 0, 0, u16::MAX),
            (0, half - 1, 1, u16::MAX),
            (far, far - 3, 2, 0),
            (1, far, far / 2, 1),
            (far / 3, far / 3 + 7, far / 3 + 9, 0),
        ];
        let mut l = PacketLedger::new();
        for (&(release, inject, deliver, len), id) in rows.iter().zip(0..) {
            let id = PacketId::new(id);
            l.release(id, Cycle::new(release), len).unwrap();
            l.inject(id, Cycle::new(inject)).unwrap();
            l.deliver(id, Cycle::new(deliver), len).unwrap();
        }
        assert_eq!(l.lo, rows.len() as u64);
        let got: Vec<_> = (l.records())
            .map(|r| {
                (
                    r.release.raw(),
                    r.inject.unwrap().raw(),
                    r.deliver.unwrap().raw(),
                    r.len_flits,
                )
            })
            .collect();
        assert_eq!(got, rows);
    }

    /// `Rice::k` is the smallest `k` with `count · 2^(k+1) ≥ sum`, capped
    /// at `MAX_K`, as found by trying each `k` in turn: for the empty
    /// state, and for every count the halving leaves with every sum up to
    /// 2^12 and the sums at and around each power of two up to 2^51, the
    /// cap included.
    #[test]
    fn rice_parameter_is_the_smallest_sufficient_shift() {
        let smallest = |count: u64, sum: u64| {
            (0..MAX_K)
                .find(|&k| u128::from(count) << (k + 1) >= u128::from(sum))
                .unwrap_or(MAX_K)
        };
        assert_eq!(Rice::default().k(0), 0);
        let edges = (12..52).flat_map(|b| [(1u64 << b) - 1, 1 << b, (1 << b) + 1, 3 << b >> 1]);
        for count in 1..HALVING {
            for sum in (0..=1 << 12).chain(edges.clone()) {
                let rice = Rice {
                    sums: [sum; 3],
                    count,
                };
                assert_eq!(rice.k(1), smallest(count, sum), "sum {sum} count {count}");
            }
        }
    }

    /// Encodes `rows`, the first after the all-zero entry, and decodes
    /// them back. Returns each row's bits and the parameters its three
    /// fields were coded with.
    fn round_trip(rows: &[Entry]) -> Vec<(u64, [u32; 3])> {
        let (mut words, mut bits, mut rice) = (Vec::new(), 0, Rice::default());
        let mut costs = Vec::new();
        for (row, prev) in rows.iter().zip([Entry::default()].iter().chain(rows)) {
            let (start, ks) = (bits, [0, 1, 2].map(|f| rice.k(f)));
            row.encode(prev, &mut rice, &mut words, &mut bits);
            costs.push((bits - start, ks));
        }
        let mut cursor = Cursor::default();
        for row in rows {
            assert_eq!(cursor.next_row(&words), *row);
        }
        assert_eq!((cursor.at, cursor.rice), (bits, rice));
        costs
    }

    /// Rows at the coder's edges decode exactly and cost the bits the
    /// module docs give: a length change on the first row (from the
    /// all-zero entry) and mid-stream, lengths 0, 1 and `u16::MAX`, a
    /// release step that escapes right after a length marker and one
    /// that escapes right before a row opening with one (after an
    /// escaped delivery), and fields coded at `k` = 0 and at `MAX_K`,
    /// the longest code that does not escape included.
    #[test]
    fn rows_round_trip_at_the_coder_edges() {
        let far = 1 << 62;
        // (release step, delivery minus injection, length)
        let mut steps = vec![
            (0, 0, 4),
            (0, 0, 4),
            (0, 0, 1),
            (0, 0, 0),
            (far, 0, u16::MAX),
            (far, far, u16::MAX),
            (far, 0, 1),
        ];
        steps.extend([(1 << 50, 0, 1); 200]);
        steps.extend([((24 << MAX_K) - 1, 0, 1), (0, 0, 1), (23 << MAX_K, 0, 0)]);
        let mut release = 0u64;
        let rows: Vec<Entry> = (steps.iter())
            .map(|&(step, network, len_flits)| {
                release = release.wrapping_add(step);
                Entry {
                    release,
                    inject: release,
                    deliver: release.wrapping_add(network),
                    len_flits,
                }
            })
            .collect();
        let costs = round_trip(&rows);
        // A length marker is 41 bits, a zero at `k` = 0 one bit and an
        // escape 89 bits.
        let (marker, zero, escape) = (ESCAPE as u64 + 1 + 16, 1, ESCAPE as u64 + 1 + 64);
        assert_eq!(
            costs[..5],
            [
                (marker + 3 * zero, [0; 3]),
                (3 * zero, [0; 3]),
                (marker + 3 * zero, [0; 3]),
                (marker + 3 * zero, [0; 3]),
                (marker + escape + 2 * zero, [0; 3]),
            ]
        );
        assert_eq!(costs[5].0, 2 * escape + zero, "no marker: same length");
        assert_eq!(costs[6].0 - marker - escape, 2 + zero, "f2 at k = 1");
        let ks_at_cap = [MAX_K, 0, 0];
        assert_eq!(
            costs[costs.len() - 3..],
            [
                (64 + 2 * zero, ks_at_cap),
                (u64::from(MAX_K) + 1 + 2 * zero, ks_at_cap),
                (marker + 64 + 2 * zero, ks_at_cap),
            ]
        );
    }

    #[test]
    fn records_expose_lifecycles_in_id_order() {
        let mut l = PacketLedger::new();
        l.release(PacketId::new(0), Cycle::new(2), 3).unwrap();
        l.release(PacketId::new(1), Cycle::new(5), 1).unwrap();
        l.inject(PacketId::new(0), Cycle::new(4)).unwrap();
        l.deliver(PacketId::new(0), Cycle::new(10), 3).unwrap();
        let recs: Vec<_> = l.records().collect();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].id, PacketId::new(0));
        assert_eq!(recs[0].network_latency(), Some(6));
        assert_eq!(recs[0].total_latency(), Some(8));
        assert_eq!(recs[1].inject, None);
        assert_eq!(recs[1].network_latency(), None);
        assert_eq!(recs[1].total_latency(), None);
    }

    #[test]
    fn sparse_ids_are_supported() {
        let mut l = PacketLedger::new();
        l.release(PacketId::new(100), Cycle::ZERO, 1).unwrap();
        l.inject(PacketId::new(100), Cycle::ZERO).unwrap();
        l.deliver(PacketId::new(100), Cycle::new(4), 1).unwrap();
        l.verify_drained().unwrap();
    }
}
