//! The network interface (NI): from packet requests to flit streams.
//!
//! The paper's TG contains "a network interface \[that\] converts a
//! traffic pattern in flits for the NoC \[and\] can be adapted for any
//! type of NoC". [`SourceNi`] models the injection side: a bounded
//! source queue of packet descriptors and a serializer that emits one
//! flit per cycle toward the attached switch input, gated by
//! credit-based flow control (the switch's input buffer depth).
//!
//! The *ejection* side (reassembly, latency timestamping) lives with
//! the traffic receptors in `nocem-stats`.

use nocem_common::flit::{Flit, Flits, PacketDescriptor};
use std::collections::VecDeque;

/// Statistics of one source NI, matching the counters a hardware TG
/// exposes through its register file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SourceNiCounters {
    /// Packet descriptors offered by the traffic model.
    pub offered_packets: u64,
    /// Descriptors accepted into the source queue.
    pub accepted_packets: u64,
    /// Descriptors rejected because the queue was full (offered load
    /// the network did not absorb).
    pub rejected_packets: u64,
    /// Flits injected into the network.
    pub injected_flits: u64,
    /// Packets whose head flit entered the network.
    pub injected_packets: u64,
    /// Cycles a pending flit could not be injected for lack of
    /// credits (injection-side congestion).
    pub blocked_cycles: u64,
}

/// Injection-side network interface with a bounded source queue.
///
/// # Examples
///
/// ```
/// use nocem_traffic::ni::SourceNi;
/// let ni = SourceNi::new(16, 4);
/// assert!(ni.is_idle());
/// assert_eq!(ni.queue_len(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct SourceNi {
    queue: VecDeque<PacketDescriptor>,
    queue_capacity: usize,
    /// Serializer state: the flits of the packet currently leaving.
    current: Option<Flits>,
    credits: u32,
    credit_cap: u32,
    counters: SourceNiCounters,
}

impl SourceNi {
    /// Creates an NI with the given source-queue capacity (packets)
    /// and initial credits (the attached switch input buffer depth).
    /// The capacity is a bound, not a reservation: the queue allocates
    /// as descriptors arrive, so any capacity up to `usize::MAX` costs
    /// only what the traffic queues.
    ///
    /// # Panics
    ///
    /// Panics if `queue_capacity == 0`.
    pub fn new(queue_capacity: usize, credits: u32) -> Self {
        assert!(queue_capacity > 0, "source queue needs at least one slot");
        SourceNi {
            queue: VecDeque::new(),
            queue_capacity,
            current: None,
            credits,
            credit_cap: credits,
            counters: SourceNiCounters::default(),
        }
    }

    /// Whether the source queue has room for another descriptor.
    ///
    /// Engines check this *before* [`SourceNi::offer`] to implement
    /// generator backpressure: when the queue is full the traffic
    /// model is clock-gated (not ticked) and the pending request is
    /// retried next cycle, exactly like a hardware packet generator
    /// waiting on a ready signal. No packet is ever dropped that way.
    #[inline]
    pub fn can_accept(&self) -> bool {
        self.queue.len() < self.queue_capacity
    }

    /// Offers a packet descriptor from the traffic model. Returns
    /// `false` (and counts a rejection) when the source queue is full —
    /// the offered-vs-accepted gap the saturation experiments measure.
    #[inline]
    pub fn offer(&mut self, desc: PacketDescriptor) -> bool {
        self.counters.offered_packets += 1;
        if self.queue.len() >= self.queue_capacity {
            self.counters.rejected_packets += 1;
            return false;
        }
        self.counters.accepted_packets += 1;
        self.queue.push_back(desc);
        true
    }

    /// Emits at most one flit this cycle (to be pushed into the
    /// attached switch input by the engine). Returns `None` when
    /// nothing is pending or no credit is available.
    #[inline]
    pub fn tick_send(&mut self) -> Option<Flit> {
        if self.current.is_none() {
            let desc = self.queue.pop_front()?;
            self.current = Some(desc.flits());
        }
        if self.credits == 0 {
            self.counters.blocked_cycles += 1;
            return None;
        }
        let flits = self.current.as_mut().expect("serializer loaded above");
        let flit = flits
            .next()
            .expect("serializer never holds an empty iterator");
        if flits.len() == 0 {
            self.current = None;
        }
        self.credits -= 1;
        self.counters.injected_flits += 1;
        if flit.kind.is_head() {
            self.counters.injected_packets += 1;
        }
        Some(flit)
    }

    /// The downstream buffer freed one slot.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if credits would exceed the downstream
    /// capacity.
    #[inline]
    pub fn credit_return(&mut self) {
        self.credits += 1;
        debug_assert!(self.credits <= self.credit_cap, "credit overflow at NI");
    }

    /// Counts `cycles` blocked cycles at once: what as many
    /// [`SourceNi::tick_send`] calls without a credit would have
    /// counted. Engines that stop ticking a credit-blocked NI until its
    /// credit returns book the cycles it slept through this way.
    #[inline]
    pub fn book_blocked(&mut self, cycles: u64) {
        self.counters.blocked_cycles += cycles;
    }

    /// Whether the NI holds no queued or half-serialized packets.
    #[inline]
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.current.is_none()
    }

    /// Packets waiting in the source queue (excluding the one being
    /// serialized).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Remaining credits toward the switch input buffer.
    pub fn credits(&self) -> u32 {
        self.credits
    }

    /// Whether every credit is back home (no flit of this NI still
    /// occupies the downstream buffer and no credit is in flight on
    /// the return wire) — the NI half of the platform quiescence
    /// predicate, together with [`SourceNi::is_idle`].
    pub fn credits_home(&self) -> bool {
        self.credits == self.credit_cap
    }

    /// Accumulated counters.
    pub fn counters(&self) -> &SourceNiCounters {
        &self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nocem_common::flit::FlitKind;
    use nocem_common::ids::{EndpointId, FlowId, PacketId};
    use nocem_common::time::Cycle;

    fn desc(id: u64, len: u16) -> PacketDescriptor {
        PacketDescriptor {
            id: PacketId::new(id),
            src: EndpointId::new(0),
            dst: EndpointId::new(1),
            flow: FlowId::new(0),
            len_flits: len,
            release: Cycle::ZERO,
        }
    }

    #[test]
    fn serializes_packets_in_order() {
        let mut ni = SourceNi::new(4, 8);
        ni.offer(desc(1, 2));
        ni.offer(desc(2, 1));
        let kinds: Vec<FlitKind> = (0..3).map(|_| ni.tick_send().unwrap().kind).collect();
        assert_eq!(kinds, [FlitKind::Head, FlitKind::Tail, FlitKind::Single]);
        assert!(ni.is_idle());
        assert!(ni.tick_send().is_none());
    }

    #[test]
    fn one_flit_per_cycle() {
        let mut ni = SourceNi::new(4, 8);
        ni.offer(desc(1, 3));
        assert!(ni.tick_send().is_some());
        // The same call site is the per-cycle clock; three calls drain
        // the three flits one at a time.
        assert!(ni.tick_send().is_some());
        assert!(ni.tick_send().is_some());
        assert!(ni.tick_send().is_none());
    }

    #[test]
    fn credits_gate_injection() {
        let mut ni = SourceNi::new(4, 1);
        ni.offer(desc(1, 2));
        assert!(ni.tick_send().is_some());
        assert!(ni.tick_send().is_none(), "no credit");
        assert_eq!(ni.counters().blocked_cycles, 1);
        ni.credit_return();
        assert_eq!(ni.tick_send().unwrap().kind, FlitKind::Tail);
    }

    #[test]
    fn booked_blocked_cycles_equal_blocked_ticks() {
        let (mut ticked, mut slept) = (SourceNi::new(4, 1), SourceNi::new(4, 1));
        for ni in [&mut ticked, &mut slept] {
            ni.offer(desc(1, 2));
            assert!(ni.tick_send().is_some());
            assert!(ni.tick_send().is_none(), "no credit");
        }
        for _ in 0..5 {
            assert!(ticked.tick_send().is_none());
        }
        slept.book_blocked(5);
        assert_eq!(slept.counters(), ticked.counters());
        assert_eq!(slept.counters().blocked_cycles, 6);
    }

    #[test]
    fn credits_home_tracks_outstanding_flits() {
        let mut ni = SourceNi::new(4, 2);
        assert!(ni.credits_home());
        ni.offer(desc(1, 1));
        assert!(ni.tick_send().is_some());
        assert!(ni.is_idle(), "nothing queued");
        assert!(!ni.credits_home(), "one flit still downstream");
        ni.credit_return();
        assert!(ni.credits_home());
    }

    #[test]
    fn queue_overflow_counts_rejections() {
        let mut ni = SourceNi::new(2, 8);
        assert!(ni.offer(desc(1, 1)));
        assert!(ni.offer(desc(2, 1)));
        assert!(!ni.offer(desc(3, 1)));
        let c = ni.counters();
        assert_eq!(c.offered_packets, 3);
        assert_eq!(c.accepted_packets, 2);
        assert_eq!(c.rejected_packets, 1);
    }

    #[test]
    fn counters_track_injections() {
        let mut ni = SourceNi::new(4, 8);
        ni.offer(desc(1, 3));
        ni.offer(desc(2, 1));
        while ni.tick_send().is_some() {}
        let c = ni.counters();
        assert_eq!(c.injected_flits, 4);
        assert_eq!(c.injected_packets, 2);
    }

    #[test]
    fn queue_len_excludes_in_flight_packet() {
        let mut ni = SourceNi::new(4, 8);
        ni.offer(desc(1, 2));
        ni.offer(desc(2, 2));
        assert_eq!(ni.queue_len(), 2);
        ni.tick_send(); // head of packet 1: packet 1 now in serializer
        assert_eq!(ni.queue_len(), 1);
        assert!(!ni.is_idle());
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_capacity_queue_panics() {
        SourceNi::new(0, 1);
    }
}
