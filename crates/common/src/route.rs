//! Routing-table value types shared by the switch model and the
//! topology compiler.
//!
//! A routing table maps a **route key** to the set of admissible
//! [`RouteHop`]s at each switch: the output port to take and the
//! virtual channel to continue on. What the key identifies is a
//! property of the table ([`RouteKey`]): the packet's flow id, or —
//! when the routing function's hop depends only on where the packet is
//! going — its destination endpoint. The types live here (rather than
//! in `nocem-topology`) so that `nocem-switch` — the behavioural
//! contract of the platform — can consume tables without depending on
//! the topology crate.
//!
//! Per-switch tables are [`RouteTable`]s: *sparse*, key-sorted,
//! CSR-packed. Sparseness is what lets all-to-all traffic scale — a
//! uniform-random pattern on an `n`-switch topology has `n·(n-1)`
//! flows, and a dense flow-indexed `Vec` per switch would cost
//! `O(n³)` memory (tens of gigabytes at 32×32) for entries that are
//! overwhelmingly empty. A switch only stores the keys of packets that
//! actually traverse it; destination keys shrink that further, from
//! `O(n³)` route incidences platform-wide to at most `n²`.

use crate::flit::Flit;
use crate::ids::{PortId, VcId};

/// What the `u32` keys of a routing table identify — the field of a
/// head flit the switches look the packet up by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RouteKey {
    /// The packet's flow id ([`Flit::flow`]): one entry per flow per
    /// visited switch. Required whenever the hop depends on more than
    /// the destination — explicit paths, multi-path routing, dateline
    /// VCs across wrap-around links (the VC depends on whether *this*
    /// packet already crossed the dateline, i.e. on its source).
    #[default]
    Flow,
    /// The packet's destination endpoint ([`Flit::dst`]): one entry
    /// per destination per visited switch, shared by every flow headed
    /// there.
    Destination,
}

impl RouteKey {
    /// The key a head flit is looked up by.
    #[inline]
    pub fn of_flit(self, flit: &Flit) -> u32 {
        match self {
            RouteKey::Flow => flit.flow.raw(),
            RouteKey::Destination => flit.dst.raw(),
        }
    }
}

/// One admissible continuation of a packet at a switch: the output port
/// to take and the virtual channel to take it on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RouteHop {
    /// Output port of the switch.
    pub port: PortId,
    /// Virtual channel on the link behind that port.
    pub vc: VcId,
}

impl RouteHop {
    /// A hop on VC 0 (the only kind a single-VC platform has).
    pub const fn vc0(port: PortId) -> Self {
        RouteHop {
            port,
            vc: VcId::ZERO,
        }
    }
}

impl core::fmt::Display for RouteHop {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}/{}", self.port, self.vc)
    }
}

/// The admissible-hop table of one switch, stored sparsely.
///
/// Entries are kept sorted by route key in a compressed (CSR) layout:
/// one `(key, offset)` record per key that visits the switch and one
/// shared hop pool, so memory is proportional to the *route incidences*
/// at the switch, never to the platform-wide flow count. Lookup is a
/// binary search — and the switch model performs it once per packet
/// per hop (the selection is sticky), not once per cycle.
///
/// # Examples
///
/// ```
/// use nocem_common::ids::PortId;
/// use nocem_common::route::{RouteHop, RouteKey, RouteTable};
///
/// let mut table = RouteTable::new(RouteKey::Flow);
/// table.push_hop(7, RouteHop::vc0(PortId::new(1)));
/// assert_eq!(table.lookup(7).len(), 1);
/// assert!(table.lookup(3).is_empty());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RouteTable {
    /// What the keys identify.
    key: RouteKey,
    /// Route keys with entries, ascending.
    keys: Vec<u32>,
    /// CSR offsets into `hops`; `offsets.len() == keys.len() + 1`
    /// (the leading 0 is implicit when empty).
    offsets: Vec<u32>,
    /// Hop pool, grouped by key.
    hops: Vec<RouteHop>,
}

impl RouteTable {
    /// An empty table whose keys are of kind `key`.
    pub fn new(key: RouteKey) -> Self {
        RouteTable {
            key,
            ..RouteTable::default()
        }
    }

    /// What this table's keys identify.
    #[inline]
    pub fn key(&self) -> RouteKey {
        self.key
    }

    /// Builds a flow-keyed table from a dense flow-indexed vector
    /// (empty entries are dropped). This is the compatibility path for
    /// callers that spell small tables out by hand; large-scale
    /// builders should [`RouteTable::push_hop`] directly.
    pub fn from_dense(dense: Vec<Vec<RouteHop>>) -> Self {
        let mut table = RouteTable::new(RouteKey::Flow);
        for (flow, hops) in dense.into_iter().enumerate() {
            for hop in hops {
                table.push_hop(flow as u32, hop);
            }
        }
        table
    }

    /// Adds an admissible hop for `key`, ignoring exact duplicates.
    ///
    /// Appending in non-decreasing key order is `O(1)` amortized (the
    /// order every table builder naturally produces); out-of-order
    /// keys fall back to a sorted insert.
    pub fn push_hop(&mut self, key: u32, hop: RouteHop) {
        if self.keys.is_empty() {
            self.keys.push(key);
            self.offsets = vec![0, 1];
            self.hops.push(hop);
            return;
        }
        let last = *self.keys.last().expect("non-empty");
        if key == last {
            let start = self.offsets[self.keys.len() - 1] as usize;
            if !self.hops[start..].contains(&hop) {
                self.hops.push(hop);
                *self.offsets.last_mut().expect("non-empty") += 1;
            }
            return;
        }
        if key > last {
            self.keys.push(key);
            self.hops.push(hop);
            self.offsets.push(self.hops.len() as u32);
            return;
        }
        // Out-of-order insert (rare: explicit paths given unsorted).
        match self.keys.binary_search(&key) {
            Ok(i) => {
                let (start, end) = (self.offsets[i] as usize, self.offsets[i + 1] as usize);
                if !self.hops[start..end].contains(&hop) {
                    self.hops.insert(end, hop);
                    for o in &mut self.offsets[i + 1..] {
                        *o += 1;
                    }
                }
            }
            Err(i) => {
                let at = self.offsets[i] as usize;
                self.keys.insert(i, key);
                self.hops.insert(at, hop);
                self.offsets.insert(i + 1, at as u32);
                for o in &mut self.offsets[i + 1..] {
                    *o += 1;
                }
            }
        }
    }

    /// The admissible hops of `key` (empty if no packet with that key
    /// ever visits this switch).
    pub fn lookup(&self, key: u32) -> &[RouteHop] {
        match self.keys.binary_search(&key) {
            Ok(i) => &self.hops[self.offsets[i] as usize..self.offsets[i + 1] as usize],
            Err(_) => &[],
        }
    }

    /// Iterates `(key, hops)` over every stored entry, ascending by
    /// key.
    pub fn entries(&self) -> impl Iterator<Item = (u32, &[RouteHop])> + '_ {
        self.keys.iter().enumerate().map(move |(i, &k)| {
            (
                k,
                &self.hops[self.offsets[i] as usize..self.offsets[i + 1] as usize],
            )
        })
    }

    /// Number of route keys with at least one entry (flows of a
    /// flow-keyed table, destinations of a destination-keyed one).
    pub fn flow_entries(&self) -> usize {
        self.keys.len()
    }

    /// Whether no key has an entry.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Total stored hops.
    pub fn hop_count(&self) -> usize {
        self.hops.len()
    }

    /// The highest VC any stored hop uses (`None` when empty).
    pub fn max_vc(&self) -> Option<u8> {
        self.hops.iter().map(|h| h.vc.raw()).max()
    }

    /// The most alternatives any single key holds (0 when empty).
    pub fn max_alternatives(&self) -> usize {
        (0..self.keys.len())
            .map(|i| (self.offsets[i + 1] - self.offsets[i]) as usize)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::PacketDescriptor;
    use crate::ids::{EndpointId, FlowId, PacketId};
    use crate::time::Cycle;

    #[test]
    fn vc0_constructor() {
        let h = RouteHop::vc0(PortId::new(3));
        assert_eq!(h.port, PortId::new(3));
        assert_eq!(h.vc, VcId::ZERO);
    }

    #[test]
    fn display_is_compact() {
        let h = RouteHop {
            port: PortId::new(1),
            vc: VcId::new(1),
        };
        assert_eq!(h.to_string(), "p1/v1");
    }

    fn hop(port: u8, vc: u8) -> RouteHop {
        RouteHop {
            port: PortId::new(port),
            vc: VcId::new(vc),
        }
    }

    #[test]
    fn sparse_table_round_trips_dense() {
        let dense = vec![
            vec![hop(0, 0)],
            vec![],
            vec![hop(1, 0), hop(2, 1)],
            vec![],
            vec![hop(3, 0)],
        ];
        let table = RouteTable::from_dense(dense.clone());
        for (f, hops) in dense.iter().enumerate() {
            assert_eq!(table.lookup(f as u32), hops.as_slice());
        }
        assert_eq!(table.flow_entries(), 3, "empty entries are not stored");
        assert_eq!(table.hop_count(), 4);
        assert_eq!(table.max_vc(), Some(1));
        assert_eq!(table.max_alternatives(), 2);
        assert!(table.lookup(99).is_empty());
    }

    #[test]
    fn duplicate_hops_are_ignored() {
        let mut t = RouteTable::new(RouteKey::Flow);
        t.push_hop(1, hop(0, 0));
        t.push_hop(1, hop(0, 0));
        t.push_hop(1, hop(1, 0));
        assert_eq!(t.lookup(1), &[hop(0, 0), hop(1, 0)]);
        assert_eq!(t.hop_count(), 2);
    }

    #[test]
    fn out_of_order_inserts_keep_entries_sorted() {
        let mut t = RouteTable::new(RouteKey::Flow);
        t.push_hop(5, hop(0, 0));
        t.push_hop(2, hop(1, 0));
        t.push_hop(9, hop(2, 0));
        t.push_hop(2, hop(3, 1));
        t.push_hop(5, hop(0, 0)); // duplicate, dropped
        let flows: Vec<u32> = t.entries().map(|(f, _)| f).collect();
        assert_eq!(flows, vec![2, 5, 9]);
        assert_eq!(t.lookup(2), &[hop(1, 0), hop(3, 1)]);
        assert_eq!(t.lookup(5), &[hop(0, 0)]);
        assert_eq!(t.lookup(9), &[hop(2, 0)]);
    }

    #[test]
    fn keys_read_the_matching_flit_field() {
        let head = PacketDescriptor {
            id: PacketId::new(1),
            src: EndpointId::new(0),
            dst: EndpointId::new(3),
            flow: FlowId::new(7),
            len_flits: 2,
            release: Cycle::ZERO,
        }
        .flits()
        .next()
        .unwrap();
        assert_eq!(RouteKey::Flow.of_flit(&head), 7);
        assert_eq!(RouteKey::Destination.of_flit(&head), 3);
        assert_eq!(
            RouteTable::new(RouteKey::Destination).key(),
            RouteKey::Destination
        );
        assert_eq!(RouteTable::from_dense(vec![]).key(), RouteKey::Flow);
    }

    #[test]
    fn empty_table_behaves() {
        let t = RouteTable::new(RouteKey::Flow);
        assert!(t.is_empty());
        assert_eq!(t.max_vc(), None);
        assert_eq!(t.max_alternatives(), 0);
        assert!(t.lookup(0).is_empty());
        assert_eq!(t.entries().count(), 0);
    }
}
