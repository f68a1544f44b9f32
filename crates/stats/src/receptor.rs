//! Traffic receptors (TRs): flit reassembly and on-device statistics.
//!
//! The paper's platform has two receptor flavours:
//!
//! * **stochastic receptors** report "histograms, which show an image
//!   of the received traffic" and the "total running time" —
//!   [`StochasticReceptor`];
//! * **trace-driven receptors** host the "latency analyzer" and the
//!   "congestion counter" — [`TraceReceptor`] (the congestion counter
//!   aggregates switch-side numbers and lives in
//!   [`crate::congestion`]).
//!
//! Both are built on [`Reassembler`], which folds the in-order flit
//! stream of the ejection link back into packets and verifies the
//! wormhole invariants (no interleaving, dense sequence numbers,
//! intact payloads, correct destination).

use crate::histogram::Histogram;
use crate::latency::LatencyAnalyzer;
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

/// Stochastic receptor: histograms of the received traffic.
#[derive(Debug, Clone)]
pub struct StochasticReceptor {
    id: EndpointId,
    reasm: Reassembler,
    counters: ReceptorCounters,
    /// Packet-length distribution (bins of one flit).
    length_hist: Histogram,
    /// Packet inter-arrival distribution (tail-to-tail, bins of 8
    /// cycles).
    interarrival_hist: Histogram,
}

impl StochasticReceptor {
    /// Creates a receptor for endpoint `id`.
    pub fn new(id: EndpointId) -> Self {
        StochasticReceptor {
            id,
            reasm: Reassembler::new(),
            counters: ReceptorCounters::default(),
            length_hist: Histogram::new(64, 1),
            interarrival_hist: Histogram::new(128, 8),
        }
    }

    /// The endpoint this receptor serves.
    pub fn id(&self) -> EndpointId {
        self.id
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
            if let Some(prev) = self.counters.last_tail_at {
                self.interarrival_hist.record(now.since(prev));
            }
            self.counters.packets += 1;
            self.counters.last_tail_at = Some(now);
            self.length_hist.record(u64::from(pkt.len_flits));
        }
        Ok(done)
    }

    /// Counter snapshot.
    pub fn counters(&self) -> &ReceptorCounters {
        &self.counters
    }

    /// Packet-length histogram ("image of the received traffic").
    pub fn length_histogram(&self) -> &Histogram {
        &self.length_hist
    }

    /// Tail-to-tail inter-arrival histogram.
    pub fn interarrival_histogram(&self) -> &Histogram {
        &self.interarrival_hist
    }
}

/// Trace-driven receptor: reassembly plus the latency analyzer.
///
/// Latency samples are recorded by the engine (which owns the packet
/// ledger mapping packet ids to release/injection timestamps) through
/// [`TraceReceptor::record_latency`].
#[derive(Debug, Clone)]
pub struct TraceReceptor {
    id: EndpointId,
    reasm: Reassembler,
    counters: ReceptorCounters,
    network_latency: LatencyAnalyzer,
    total_latency: LatencyAnalyzer,
}

impl TraceReceptor {
    /// Creates a receptor for endpoint `id`.
    pub fn new(id: EndpointId) -> Self {
        TraceReceptor {
            id,
            reasm: Reassembler::new(),
            counters: ReceptorCounters::default(),
            network_latency: LatencyAnalyzer::new(),
            total_latency: LatencyAnalyzer::new(),
        }
    }

    /// The endpoint this receptor serves.
    pub fn id(&self) -> EndpointId {
        self.id
    }

    /// Accepts one flit from the ejection link.
    ///
    /// # Errors
    ///
    /// Same contract as [`StochasticReceptor::accept`].
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
        if done.is_some() {
            self.counters.packets += 1;
            self.counters.last_tail_at = Some(now);
        }
        Ok(done)
    }

    /// Records the latencies of a completed packet (engine-supplied).
    #[inline]
    pub fn record_latency(&mut self, network: u64, total: u64) {
        self.network_latency.record(network);
        self.total_latency.record(total);
    }

    /// Counter snapshot.
    pub fn counters(&self) -> &ReceptorCounters {
        &self.counters
    }

    /// Injection-to-delivery latency statistics (Figure 4's metric).
    pub fn network_latency(&self) -> &LatencyAnalyzer {
        &self.network_latency
    }

    /// Release-to-delivery latency statistics (includes source
    /// queueing).
    pub fn total_latency(&self) -> &LatencyAnalyzer {
        &self.total_latency
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
        let mut tr = StochasticReceptor::new(EndpointId::new(3));
        let mut now = 0;
        for (id, len) in [(1u64, 2u16), (2, 2), (3, 4)] {
            for f in flits(id, 3, len) {
                tr.accept(&f, Cycle::new(now)).unwrap();
                now += 1;
            }
            now += 10; // gap between packets
        }
        let c = tr.counters();
        assert_eq!(c.packets, 3);
        assert_eq!(c.flits, 8);
        assert!(c.running_time() > 0);
        assert_eq!(tr.length_histogram().bin_count(2), 2); // two 2-flit packets
        assert_eq!(tr.length_histogram().bin_count(4), 1);
        assert_eq!(tr.interarrival_histogram().count(), 2);
        assert_eq!(tr.id(), EndpointId::new(3));
    }

    #[test]
    fn misrouted_flit_is_rejected() {
        let mut tr = StochasticReceptor::new(EndpointId::new(3));
        let f = flits(1, 7, 1)[0];
        let err = tr.accept(&f, Cycle::ZERO).unwrap_err();
        assert!(matches!(err, ReceiveError::Misrouted { .. }));
        let mut tt = TraceReceptor::new(EndpointId::new(3));
        assert!(tt.accept(&f, Cycle::ZERO).is_err());
    }

    #[test]
    fn trace_receptor_latency_recording() {
        let mut tr = TraceReceptor::new(EndpointId::new(0));
        for f in flits(1, 0, 2) {
            tr.accept(&f, Cycle::new(10)).unwrap();
        }
        tr.record_latency(7, 12);
        assert_eq!(tr.network_latency().mean(), Some(7.0));
        assert_eq!(tr.total_latency().max(), Some(12));
        assert_eq!(tr.counters().packets, 1);
        assert_eq!(tr.id(), EndpointId::new(0));
    }

    #[test]
    fn running_time_requires_activity() {
        let c = ReceptorCounters::default();
        assert_eq!(c.running_time(), 0);
    }
}
