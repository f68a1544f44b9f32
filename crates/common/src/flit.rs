//! Flits and packets — the unit of transport of the emulated NoC.
//!
//! The platform emulates *packet-switching* NoCs with wormhole flow
//! control: the network interface of a traffic generator chops each
//! packet into **flits** (flow-control digits). A packet of `n >= 2`
//! flits is serialized as one [`FlitKind::Head`], `n - 2`
//! [`FlitKind::Body`] flits and one [`FlitKind::Tail`]; a single-flit
//! packet travels as [`FlitKind::Single`].
//!
//! The head flit carries everything a switch needs to route the packet
//! (destination, flow id); body/tail flits simply follow the wormhole
//! opened by their head. To keep the three simulation engines
//! exchangeable, the same [`Flit`] value type is used by all of them.

use crate::ids::{EndpointId, FlowId, PacketId, VcId};
use crate::time::Cycle;
use core::fmt;

/// Position of a flit within its packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlitKind {
    /// First flit of a multi-flit packet; opens the wormhole.
    Head,
    /// Intermediate flit.
    Body,
    /// Last flit of a multi-flit packet; closes the wormhole.
    Tail,
    /// Entire single-flit packet (opens and closes in one cycle).
    Single,
}

impl FlitKind {
    /// Whether this flit carries routing information (head or single).
    #[inline]
    pub const fn is_head(self) -> bool {
        matches!(self, FlitKind::Head | FlitKind::Single)
    }

    /// Whether this flit releases the wormhole (tail or single).
    #[inline]
    pub const fn is_tail(self) -> bool {
        matches!(self, FlitKind::Tail | FlitKind::Single)
    }
}

impl fmt::Display for FlitKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FlitKind::Head => "H",
            FlitKind::Body => "B",
            FlitKind::Tail => "T",
            FlitKind::Single => "S",
        };
        f.write_str(s)
    }
}

/// One flow-control digit travelling through the network.
///
/// `Flit` is deliberately small and `Copy`: the fast emulation engine
/// moves millions of these per second. The payload word models the
/// data-path width of the emulated NoC (32 bits in the paper's
/// platform) and is used by conservation checks to detect corruption.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Flit {
    /// Packet this flit belongs to.
    pub packet: PacketId,
    /// Position within the packet.
    pub kind: FlitKind,
    /// Index of this flit within its packet (0-based).
    pub seq: u16,
    /// Flow (source, destination) of the packet; routing key.
    pub flow: FlowId,
    /// Destination endpoint, carried by every flit so receptors can
    /// verify delivery without keeping per-wormhole state.
    pub dst: EndpointId,
    /// Virtual channel the flit currently travels on. Network
    /// interfaces inject on [`VcId::ZERO`]; each switch rewrites the
    /// field to the output VC its allocation chose before the flit
    /// enters the next link, so the downstream switch knows which VC
    /// buffer to land it in.
    pub vc: VcId,
    /// Payload word (deterministic function of packet id and sequence
    /// number at generation time; checked at reception).
    pub payload: u32,
}

impl Flit {
    /// The payload word that generators put into flit `seq` of packet
    /// `packet`, and that receptors verify on reception.
    ///
    /// A cheap non-linear mix so that swapped or duplicated flits are
    /// detected with high probability.
    #[inline]
    pub fn expected_payload(packet: PacketId, seq: u16) -> u32 {
        let mut x = packet.raw().wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ u64::from(seq) << 17;
        x ^= x >> 31;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        (x >> 32) as u32
    }

    /// Whether the payload matches what the generator must have put in.
    #[inline]
    pub fn payload_is_valid(&self) -> bool {
        self.payload == Self::expected_payload(self.packet, self.seq)
    }
}

impl fmt::Display for Flit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}.{}→{}]",
            self.kind, self.packet, self.seq, self.dst
        )
    }
}

/// A packet as requested by a traffic model, before serialization into
/// flits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PacketDescriptor {
    /// Unique packet id.
    pub id: PacketId,
    /// Source endpoint.
    pub src: EndpointId,
    /// Destination endpoint.
    pub dst: EndpointId,
    /// Flow the packet belongs to.
    pub flow: FlowId,
    /// Packet length in flits (`>= 1`).
    pub len_flits: u16,
    /// Cycle at which the traffic model released the packet (start of
    /// the total-latency measurement).
    pub release: Cycle,
}

impl PacketDescriptor {
    /// Serializes the descriptor into its flit sequence.
    ///
    /// # Examples
    ///
    /// ```
    /// use nocem_common::flit::{FlitKind, PacketDescriptor};
    /// use nocem_common::ids::{EndpointId, FlowId, PacketId};
    /// use nocem_common::time::Cycle;
    ///
    /// let d = PacketDescriptor {
    ///     id: PacketId::new(1),
    ///     src: EndpointId::new(0),
    ///     dst: EndpointId::new(3),
    ///     flow: FlowId::new(0),
    ///     len_flits: 4,
    ///     release: Cycle::ZERO,
    /// };
    /// let flits: Vec<_> = d.flits().collect();
    /// assert_eq!(flits.len(), 4);
    /// assert_eq!(flits[0].kind, FlitKind::Head);
    /// assert_eq!(flits[3].kind, FlitKind::Tail);
    /// assert!(flits.iter().all(|f| f.payload_is_valid()));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `len_flits == 0`; zero-length packets are rejected at
    /// configuration time.
    #[inline]
    pub fn flits(&self) -> Flits {
        assert!(self.len_flits >= 1, "packet must contain at least one flit");
        Flits {
            desc: *self,
            next: 0,
        }
    }
}

/// Iterator over the flits of a [`PacketDescriptor`], in wire order.
#[derive(Debug, Clone)]
pub struct Flits {
    desc: PacketDescriptor,
    next: u16,
}

impl Iterator for Flits {
    type Item = Flit;

    #[inline]
    fn next(&mut self) -> Option<Flit> {
        if self.next >= self.desc.len_flits {
            return None;
        }
        let seq = self.next;
        self.next += 1;
        let kind = match (seq, self.desc.len_flits) {
            (_, 1) => FlitKind::Single,
            (0, _) => FlitKind::Head,
            (s, n) if s + 1 == n => FlitKind::Tail,
            _ => FlitKind::Body,
        };
        Some(Flit {
            packet: self.desc.id,
            kind,
            seq,
            flow: self.desc.flow,
            dst: self.desc.dst,
            vc: VcId::ZERO,
            payload: Flit::expected_payload(self.desc.id, seq),
        })
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.desc.len_flits - self.next) as usize;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Flits {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{EndpointId, FlowId, PacketId};

    fn desc(len: u16) -> PacketDescriptor {
        PacketDescriptor {
            id: PacketId::new(7),
            src: EndpointId::new(0),
            dst: EndpointId::new(1),
            flow: FlowId::new(2),
            len_flits: len,
            release: Cycle::new(5),
        }
    }

    #[test]
    fn single_flit_packet() {
        let flits: Vec<_> = desc(1).flits().collect();
        assert_eq!(flits.len(), 1);
        assert_eq!(flits[0].kind, FlitKind::Single);
        assert!(flits[0].kind.is_head());
        assert!(flits[0].kind.is_tail());
    }

    #[test]
    fn two_flit_packet_has_head_and_tail() {
        let kinds: Vec<_> = desc(2).flits().map(|f| f.kind).collect();
        assert_eq!(kinds, [FlitKind::Head, FlitKind::Tail]);
    }

    #[test]
    fn long_packet_structure() {
        let kinds: Vec<_> = desc(5).flits().map(|f| f.kind).collect();
        assert_eq!(
            kinds,
            [
                FlitKind::Head,
                FlitKind::Body,
                FlitKind::Body,
                FlitKind::Body,
                FlitKind::Tail
            ]
        );
    }

    #[test]
    fn sequence_numbers_are_dense() {
        let seqs: Vec<_> = desc(8).flits().map(|f| f.seq).collect();
        assert_eq!(seqs, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn exact_size_iterator() {
        let mut it = desc(4).flits();
        assert_eq!(it.len(), 4);
        it.next();
        assert_eq!(it.len(), 3);
    }

    #[test]
    fn flits_are_injected_on_vc_zero() {
        assert!(desc(3).flits().all(|f| f.vc == VcId::ZERO));
    }

    #[test]
    fn payload_detects_tampering() {
        let mut f = desc(3).flits().next().unwrap();
        assert!(f.payload_is_valid());
        f.payload ^= 1;
        assert!(!f.payload_is_valid());
    }

    #[test]
    fn payload_differs_across_packets_and_seqs() {
        let a = Flit::expected_payload(PacketId::new(1), 0);
        let b = Flit::expected_payload(PacketId::new(2), 0);
        let c = Flit::expected_payload(PacketId::new(1), 1);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "at least one flit")]
    fn zero_length_packet_panics() {
        let _ = desc(0).flits();
    }

    #[test]
    fn display_is_compact() {
        let f = desc(2).flits().next().unwrap();
        assert_eq!(f.to_string(), "H[pkt7.0→e1]");
    }
}
