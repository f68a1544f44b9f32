//! The packet ledger: end-to-end packet accounting.
//!
//! The engine records three timestamps per packet — **release** (the
//! traffic model emitted the request), **injection** (the head flit
//! entered the network) and **delivery** (the tail flit reached its
//! receptor). From these the ledger derives network and total
//! latencies and enforces the conservation invariant the integration
//! tests rely on: *every accepted packet is delivered exactly once,
//! with the length it was released with*.

use crate::latency::LatencyAnalyzer;
use nocem_common::ids::PacketId;
use nocem_common::time::Cycle;

/// "Has not happened" in an [`Entry`] timestamp. A run cannot reach
/// cycle `u64::MAX`, so no real event carries it.
const NEVER: u64 = u64::MAX;

/// Lifecycle record of one packet: three raw cycle counts with a
/// sentinel and the length, 32 bytes — not `Option`s (48), because a
/// saturated run keeps one entry per packet for the whole run and this
/// array is then the process's peak memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
}

/// A recorded timestamp as the API shows it.
#[inline]
fn happened(at: u64) -> Option<Cycle> {
    (at != NEVER).then_some(Cycle::new(at))
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

/// Dense packet accounting keyed by [`PacketId`] (ids are assigned
/// contiguously from zero by the engine).
///
/// Ledgers compare by value (every per-packet release/inject/deliver
/// timestamp and length): two runs with equal ledgers released,
/// injected and delivered the same packets at the same cycles — the
/// exactness bar the clock-gating equivalence tests hold the engines
/// to.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PacketLedger {
    entries: Vec<Entry>,
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

    /// The entry of a released packet.
    #[inline]
    fn released_entry(&mut self, id: PacketId) -> Result<&mut Entry, LedgerError> {
        self.entries
            .get_mut(id.index())
            .filter(|e| e.release != NEVER)
            .ok_or(LedgerError::UnknownPacket(id))
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
        let idx = id.index();
        if idx >= self.entries.len() {
            self.entries.resize(idx + 1, Entry::VACANT);
        }
        let entry = &mut self.entries[idx];
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
        let entry = self.released_entry(id)?;
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
        let entry = self.released_entry(id)?;
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
        let lat = PacketLatency {
            network: at.since(inject),
            total: at.since(Cycle::new(entry.release)),
        };
        self.delivered += 1;
        self.network_latency.record(lat.network);
        self.total_latency.record(lat.total);
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

    /// Iterates the lifecycle record of every registered packet, in
    /// packet-id order.
    pub fn records(&self) -> impl Iterator<Item = PacketRecord> + '_ {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.release != NEVER)
            .map(|(i, e)| PacketRecord {
                id: PacketId::new(i as u64),
                release: Cycle::new(e.release),
                len_flits: e.len_flits,
                inject: happened(e.inject),
                deliver: happened(e.deliver),
            })
    }

    /// Verifies full conservation at end of run: everything released
    /// was delivered.
    ///
    /// # Errors
    ///
    /// Returns the first undelivered packet as
    /// [`LedgerError::UnknownPacket`]-style diagnostics.
    pub fn verify_drained(&self) -> Result<(), LedgerError> {
        match self.records().find(|r| r.deliver.is_none()) {
            Some(r) => Err(LedgerError::UnknownPacket(r.id)),
            None => Ok(()),
        }
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
    /// ones did, in the same precedence, and stay compact.
    #[test]
    fn every_ledger_error_still_fires() {
        assert!(std::mem::size_of::<Entry>() <= 32);
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
        assert_eq!(
            l.deliver(a, Cycle::new(6), 4),
            Err(LedgerError::DuplicateEvent(a))
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
