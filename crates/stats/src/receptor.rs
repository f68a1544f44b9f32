//! Traffic receptors (TRs): flit reassembly and on-device statistics.
//!
//! The paper's platform has one receptor device in two flavours, and
//! [`Receptor`] is both: its [`TrKind`] picks what it keeps.
//!
//! * a **stochastic** receptor reports "histograms, which show an
//!   image of the received traffic" and the "total running time";
//! * a **trace-driven** receptor hosts the "latency analyzer" (the
//!   paper's congestion counter aggregates switch-side numbers and
//!   lives in [`crate::congestion`]).
//!
//! Every receptor folds the in-order flit stream of its ejection link
//! back into packets through a [`Reassembler`], which verifies the
//! wormhole invariants (no interleaving, dense sequence numbers,
//! intact payloads), and checks each flit's destination.

use std::sync::Arc;

use crate::histogram::Histogram;
use crate::latency::LatencyAnalyzer;
use crate::TrKind;
use nocem_common::flit::{Flit, FlitKind};
use nocem_common::ids::{EndpointId, PacketId};
use nocem_common::time::Cycle;

/// A packet fully received by a receptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletedPacket {
    /// The packet.
    pub id: PacketId,
    /// Length in flits.
    pub len_flits: u16,
    /// Cycle the tail flit arrived.
    pub tail_at: Cycle,
}

/// A violation of the reception invariants — always a platform bug,
/// never a legal traffic condition.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ReceiveError {
    /// A flit of a different packet arrived while another packet was
    /// still open (wormhole interleaving on a single link).
    InterleavedPacket {
        /// Packet that was open.
        open: PacketId,
        /// Packet the stray flit belongs to.
        got: PacketId,
    },
    /// A flit arrived out of sequence within its packet.
    OutOfSequence {
        /// The packet.
        packet: PacketId,
        /// Sequence number expected next.
        expected: u16,
        /// Sequence number received.
        got: u16,
    },
    /// A body/tail flit arrived with no open packet.
    NoOpenPacket {
        /// The orphan flit's packet.
        packet: PacketId,
    },
    /// The flit payload failed its integrity check.
    CorruptPayload {
        /// The packet.
        packet: PacketId,
        /// Flit sequence number.
        seq: u16,
    },
    /// The flit was delivered to the wrong endpoint.
    Misrouted {
        /// The receptor that got the flit.
        receptor: EndpointId,
        /// The destination the flit wanted.
        wanted: EndpointId,
    },
}

impl std::fmt::Display for ReceiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReceiveError::InterleavedPacket { open, got } => {
                write!(f, "flit of {got} interleaved into open packet {open}")
            }
            ReceiveError::OutOfSequence {
                packet,
                expected,
                got,
            } => {
                write!(
                    f,
                    "packet {packet}: expected flit seq {expected}, got {got}"
                )
            }
            ReceiveError::NoOpenPacket { packet } => {
                write!(f, "body/tail flit of {packet} with no open packet")
            }
            ReceiveError::CorruptPayload { packet, seq } => {
                write!(f, "corrupt payload in {packet} flit {seq}")
            }
            ReceiveError::Misrouted { receptor, wanted } => {
                write!(f, "flit for {wanted} delivered to receptor {receptor}")
            }
        }
    }
}

impl std::error::Error for ReceiveError {}

/// Rebuilds packets from the in-order flit stream of one ejection
/// link.
#[derive(Debug, Clone, Default)]
pub struct Reassembler {
    /// `(packet, next expected seq)` of the packet being received.
    open: Option<(PacketId, u16)>,
}

impl Reassembler {
    /// Creates an idle reassembler.
    pub fn new() -> Self {
        Reassembler::default()
    }

    /// Whether a packet is partially received.
    pub fn has_open_packet(&self) -> bool {
        self.open.is_some()
    }

    /// Accepts the next flit; returns the completed packet when `flit`
    /// is its tail.
    ///
    /// # Errors
    ///
    /// Returns [`ReceiveError`] when the flit violates wormhole
    /// ordering or integrity; the reassembler state is unchanged on
    /// error so the caller can report and abort deterministically.
    #[inline]
    pub fn accept(
        &mut self,
        flit: &Flit,
        now: Cycle,
    ) -> Result<Option<CompletedPacket>, ReceiveError> {
        if !flit.payload_is_valid() {
            return Err(ReceiveError::CorruptPayload {
                packet: flit.packet,
                seq: flit.seq,
            });
        }
        match (self.open, flit.kind) {
            (None, FlitKind::Single) => Ok(Some(CompletedPacket {
                id: flit.packet,
                len_flits: 1,
                tail_at: now,
            })),
            (None, FlitKind::Head) => {
                if flit.seq != 0 {
                    return Err(ReceiveError::OutOfSequence {
                        packet: flit.packet,
                        expected: 0,
                        got: flit.seq,
                    });
                }
                self.open = Some((flit.packet, 1));
                Ok(None)
            }
            (None, _) => Err(ReceiveError::NoOpenPacket {
                packet: flit.packet,
            }),
            (Some((open, _)), FlitKind::Head | FlitKind::Single) => {
                Err(ReceiveError::InterleavedPacket {
                    open,
                    got: flit.packet,
                })
            }
            (Some((open, expected)), FlitKind::Body | FlitKind::Tail) => {
                if flit.packet != open {
                    return Err(ReceiveError::InterleavedPacket {
                        open,
                        got: flit.packet,
                    });
                }
                if flit.seq != expected {
                    return Err(ReceiveError::OutOfSequence {
                        packet: open,
                        expected,
                        got: flit.seq,
                    });
                }
                if flit.kind == FlitKind::Tail {
                    self.open = None;
                    Ok(Some(CompletedPacket {
                        id: open,
                        len_flits: expected + 1,
                        tail_at: now,
                    }))
                } else {
                    self.open = Some((open, expected + 1));
                    Ok(None)
                }
            }
        }
    }
}

/// Counters every receptor kind maintains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReceptorCounters {
    /// Flits received.
    pub flits: u64,
    /// Packets completed.
    pub packets: u64,
    /// Cycle of the first flit (start of "total running time").
    pub first_flit_at: Option<Cycle>,
    /// Cycle of the most recent tail.
    pub last_tail_at: Option<Cycle>,
}

impl ReceptorCounters {
    /// The paper's "total running time": first activity to last tail,
    /// in cycles.
    pub fn running_time(&self) -> u64 {
        match (self.first_flit_at, self.last_tail_at) {
            (Some(a), Some(b)) => b.since(a),
            _ => 0,
        }
    }
}

/// What a receptor keeps beyond the shared counters, by [`TrKind`].
#[derive(Debug, Clone)]
enum TrStats {
    /// Packet-length distribution (bins of one flit) and tail-to-tail
    /// inter-arrival distribution (bins of 8 cycles), shared with the
    /// readers that hold a snapshot: a write copies a histogram only
    /// while a snapshot of it is alive. Each stores 32-bit bins up to
    /// the highest one counted, in blocks of 16: at most 256 B of
    /// length bins and 512 B of inter-arrival bins.
    Stochastic {
        length: Arc<Histogram>,
        interarrival: Arc<Histogram>,
    },
    /// Injection-to-delivery latency of every completed packet.
    TraceDriven(LatencyAnalyzer),
}

/// A traffic receptor of either [`TrKind`].
///
/// [`Receptor::accept`] is the part both kinds share: the misroute
/// check, reassembly and the counters. A stochastic receptor also
/// books every completed packet's length and inter-arrival time; a
/// trace-driven one books the network latency the engine (which owns
/// the packet ledger) hands to [`Receptor::record_latency`].
#[derive(Debug, Clone)]
pub struct Receptor {
    id: EndpointId,
    reasm: Reassembler,
    counters: ReceptorCounters,
    stats: TrStats,
}

impl Receptor {
    /// Creates a receptor of `kind` for endpoint `id`.
    pub fn new(id: EndpointId, kind: TrKind) -> Self {
        let stats = match kind {
            TrKind::Stochastic => TrStats::Stochastic {
                length: Arc::new(Histogram::new(64, 1)),
                interarrival: Arc::new(Histogram::new(128, 8)),
            },
            TrKind::TraceDriven => TrStats::TraceDriven(LatencyAnalyzer::new()),
        };
        Receptor {
            id,
            reasm: Reassembler::new(),
            counters: ReceptorCounters::default(),
            stats,
        }
    }

    /// The endpoint this receptor serves.
    pub fn id(&self) -> EndpointId {
        self.id
    }

    /// The receptor kind.
    pub fn kind(&self) -> TrKind {
        match self.stats {
            TrStats::Stochastic { .. } => TrKind::Stochastic,
            TrStats::TraceDriven(_) => TrKind::TraceDriven,
        }
    }

    /// Accepts one flit from the ejection link.
    ///
    /// # Errors
    ///
    /// Propagates [`ReceiveError`] from the [`Reassembler`], plus
    /// [`ReceiveError::Misrouted`] when the flit was not addressed to
    /// this receptor.
    #[inline]
    pub fn accept(
        &mut self,
        flit: &Flit,
        now: Cycle,
    ) -> Result<Option<CompletedPacket>, ReceiveError> {
        if flit.dst != self.id {
            return Err(ReceiveError::Misrouted {
                receptor: self.id,
                wanted: flit.dst,
            });
        }
        self.counters.first_flit_at.get_or_insert(now);
        self.counters.flits += 1;
        let done = self.reasm.accept(flit, now)?;
        if let Some(pkt) = done {
            if let TrStats::Stochastic {
                length,
                interarrival,
            } = &mut self.stats
            {
                if let Some(prev) = self.counters.last_tail_at {
                    Arc::make_mut(interarrival).record(now.since(prev));
                }
                Arc::make_mut(length).record(u64::from(pkt.len_flits));
            }
            self.counters.packets += 1;
            self.counters.last_tail_at = Some(now);
        }
        Ok(done)
    }

    /// Records the network latency of a completed packet
    /// (engine-supplied); a stochastic receptor keeps no latency.
    #[inline]
    pub fn record_latency(&mut self, network: u64) {
        if let TrStats::TraceDriven(latency) = &mut self.stats {
            latency.record(network);
        }
    }

    /// Counter snapshot.
    pub fn counters(&self) -> &ReceptorCounters {
        &self.counters
    }

    /// Injection-to-delivery latency statistics (Figure 4's metric) of
    /// a trace-driven receptor.
    pub fn network_latency(&self) -> Option<&LatencyAnalyzer> {
        match &self.stats {
            TrStats::TraceDriven(latency) => Some(latency),
            TrStats::Stochastic { .. } => None,
        }
    }

    /// The packet-length and inter-arrival histograms of a stochastic
    /// receptor ("an image of the received traffic"). Cloning either
    /// `Arc` takes a snapshot without copying its bins; the receptor
    /// copies a histogram at its next write while a snapshot holds it.
    pub fn histograms(&self) -> Option<(&Arc<Histogram>, &Arc<Histogram>)> {
        match &self.stats {
            TrStats::Stochastic {
                length,
                interarrival,
            } => Some((length, interarrival)),
            TrStats::TraceDriven(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nocem_common::flit::PacketDescriptor;
    use nocem_common::ids::FlowId;

    fn flits(id: u64, dst: u32, len: u16) -> Vec<Flit> {
        PacketDescriptor {
            id: PacketId::new(id),
            src: EndpointId::new(0),
            dst: EndpointId::new(dst),
            flow: FlowId::new(0),
            len_flits: len,
            release: Cycle::ZERO,
        }
        .flits()
        .collect()
    }

    #[test]
    fn reassembles_multi_flit_packet() {
        let mut r = Reassembler::new();
        let fs = flits(1, 0, 3);
        assert_eq!(r.accept(&fs[0], Cycle::new(1)).unwrap(), None);
        assert!(r.has_open_packet());
        assert_eq!(r.accept(&fs[1], Cycle::new(2)).unwrap(), None);
        let done = r.accept(&fs[2], Cycle::new(3)).unwrap().unwrap();
        assert_eq!(done.id, PacketId::new(1));
        assert_eq!(done.len_flits, 3);
        assert_eq!(done.tail_at, Cycle::new(3));
        assert!(!r.has_open_packet());
    }

    #[test]
    fn single_flit_completes_immediately() {
        let mut r = Reassembler::new();
        let fs = flits(9, 0, 1);
        let done = r.accept(&fs[0], Cycle::new(5)).unwrap().unwrap();
        assert_eq!(done.len_flits, 1);
    }

    #[test]
    fn interleaving_is_detected() {
        let mut r = Reassembler::new();
        let a = flits(1, 0, 3);
        let b = flits(2, 0, 3);
        r.accept(&a[0], Cycle::ZERO).unwrap();
        let err = r.accept(&b[1], Cycle::ZERO).unwrap_err();
        assert!(matches!(err, ReceiveError::InterleavedPacket { .. }));
        // A second head while one is open is also interleaving.
        let err = r.accept(&b[0], Cycle::ZERO).unwrap_err();
        assert!(matches!(err, ReceiveError::InterleavedPacket { .. }));
    }

    #[test]
    fn out_of_sequence_is_detected() {
        let mut r = Reassembler::new();
        let fs = flits(1, 0, 4);
        r.accept(&fs[0], Cycle::ZERO).unwrap();
        let err = r.accept(&fs[2], Cycle::ZERO).unwrap_err();
        assert!(matches!(
            err,
            ReceiveError::OutOfSequence {
                expected: 1,
                got: 2,
                ..
            }
        ));
    }

    #[test]
    fn orphan_body_is_detected() {
        let mut r = Reassembler::new();
        let fs = flits(1, 0, 3);
        let err = r.accept(&fs[1], Cycle::ZERO).unwrap_err();
        assert!(matches!(err, ReceiveError::NoOpenPacket { .. }));
    }

    #[test]
    fn corrupt_payload_is_detected() {
        let mut r = Reassembler::new();
        let mut f = flits(1, 0, 1)[0];
        f.payload ^= 0xFFFF;
        let err = r.accept(&f, Cycle::ZERO).unwrap_err();
        assert!(matches!(err, ReceiveError::CorruptPayload { .. }));
        assert!(err.to_string().contains("corrupt"));
    }

    #[test]
    fn stochastic_receptor_histograms() {
        let mut tr = Receptor::new(EndpointId::new(3), TrKind::Stochastic);
        let mut now = 0;
        for (id, len) in [(1u64, 2u16), (2, 2), (3, 4)] {
            for f in flits(id, 3, len) {
                tr.accept(&f, Cycle::new(now)).unwrap();
                now += 1;
            }
            now += 10; // gap between packets
        }
        tr.record_latency(7); // a stochastic receptor keeps no latency
        let c = tr.counters();
        assert_eq!(c.packets, 3);
        assert_eq!(c.flits, 8);
        assert!(c.running_time() > 0);
        let (length, interarrival) = tr.histograms().unwrap();
        assert_eq!(length.bin_count(2), 2); // two 2-flit packets
        assert_eq!(length.bin_count(4), 1);
        assert_eq!(interarrival.count(), 2);
        assert!(tr.network_latency().is_none());
        assert_eq!(tr.id(), EndpointId::new(3));
        assert_eq!(tr.kind(), TrKind::Stochastic);
    }

    /// A reader's snapshot shares the receptor's bins until the next
    /// write, which copies them: the snapshot keeps its value.
    #[test]
    fn histogram_snapshots_are_copied_on_write() {
        let mut tr = Receptor::new(EndpointId::new(3), TrKind::Stochastic);
        let deliver = |tr: &mut Receptor, id, at| {
            for f in flits(id, 3, 2) {
                tr.accept(&f, Cycle::new(at)).unwrap();
            }
        };
        deliver(&mut tr, 1, 0);
        let (length, interarrival) = tr
            .histograms()
            .map(|(l, i)| (l.clone(), i.clone()))
            .unwrap();
        assert!(Arc::ptr_eq(&length, tr.histograms().unwrap().0));
        deliver(&mut tr, 2, 20);
        let (now_length, now_interarrival) = tr.histograms().unwrap();
        assert!(!Arc::ptr_eq(&length, now_length));
        assert_eq!((length.count(), interarrival.count()), (1, 0));
        assert_eq!((now_length.count(), now_interarrival.count()), (2, 1));
    }

    #[test]
    fn misrouted_flit_is_rejected() {
        let f = flits(1, 7, 1)[0];
        for kind in [TrKind::Stochastic, TrKind::TraceDriven] {
            let mut tr = Receptor::new(EndpointId::new(3), kind);
            let err = tr.accept(&f, Cycle::ZERO).unwrap_err();
            assert!(matches!(err, ReceiveError::Misrouted { .. }));
            assert_eq!(tr.counters().flits, 0);
        }
    }

    #[test]
    fn trace_receptor_latency_recording() {
        let mut tr = Receptor::new(EndpointId::new(0), TrKind::TraceDriven);
        for f in flits(1, 0, 2) {
            tr.accept(&f, Cycle::new(10)).unwrap();
        }
        tr.record_latency(7);
        assert_eq!(tr.network_latency().unwrap().mean(), Some(7.0));
        assert!(tr.histograms().is_none());
        assert_eq!(tr.counters().packets, 1);
        assert_eq!(tr.id(), EndpointId::new(0));
        assert_eq!(tr.kind(), TrKind::TraceDriven);
    }

    #[test]
    fn running_time_requires_activity() {
        let c = ReceptorCounters::default();
        assert_eq!(c.running_time(), 0);
    }
}
