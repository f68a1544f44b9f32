//! Routing value types shared by the switch model and the topology
//! compiler: per-switch flow-keyed [`RouteTable`]s, and the
//! [`GridRouter`] that replaces them where the hop is arithmetic.
//!
//! A routing table maps a packet's **flow id** to the set of admissible
//! [`RouteHop`]s at one switch: the output port to take and the virtual
//! channel to continue on. Tables serve everything whose hop depends on
//! more than where the packet is going — explicit paths, multi-path
//! routing, shortest paths on irregular graphs. Dimension-ordered
//! routing on a mesh or torus needs no table at all: [`GridRouter::hop`]
//! computes the hop from (switch, destination, input port, input VC).
//! The types live here (rather than in `nocem-topology`) so that
//! `nocem-switch` — the behavioural contract of the platform — can
//! route without depending on the topology crate.
//!
//! Per-switch tables are *sparse*, flow-sorted, CSR-packed. Sparseness
//! is what lets all-to-all traffic on irregular topologies scale — a
//! uniform-random pattern on an `n`-switch topology has `n·(n-1)`
//! flows, and a dense flow-indexed `Vec` per switch would cost `O(n³)`
//! memory for entries that are overwhelmingly empty. A switch only
//! stores the flows that actually traverse it.

use crate::flows::AllButSelf;
use crate::ids::{EndpointId, FlowId, PortId, SwitchId, VcId};

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
/// Entries are kept sorted by flow id in a compressed (CSR) layout:
/// one `(flow, offset)` record per flow that visits the switch and one
/// shared hop pool, so memory is proportional to the *route incidences*
/// at the switch, never to the platform-wide flow count. Lookup is a
/// binary search — and the switch model performs it once per packet
/// per hop (the selection is sticky), not once per cycle.
///
/// # Examples
///
/// ```
/// use nocem_common::ids::{FlowId, PortId};
/// use nocem_common::route::{RouteHop, RouteTable};
///
/// let mut table = RouteTable::new();
/// table.push_hop(FlowId::new(7), RouteHop::vc0(PortId::new(1)));
/// assert_eq!(table.lookup(FlowId::new(7)).len(), 1);
/// assert!(table.lookup(FlowId::new(3)).is_empty());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RouteTable {
    /// Flow ids with entries, ascending.
    flows: Vec<u32>,
    /// CSR offsets into `hops`; `offsets.len() == flows.len() + 1`
    /// (the leading 0 is implicit when empty).
    offsets: Vec<u32>,
    /// Hop pool, grouped by flow.
    hops: Vec<RouteHop>,
}

impl RouteTable {
    /// An empty table.
    pub const fn new() -> Self {
        RouteTable {
            flows: Vec::new(),
            offsets: Vec::new(),
            hops: Vec::new(),
        }
    }

    /// Builds a table from a dense flow-indexed vector (empty entries
    /// are dropped). This is the compatibility path for callers that
    /// spell small tables out by hand; large-scale builders should
    /// [`RouteTable::push_hop`] directly.
    pub fn from_dense(dense: Vec<Vec<RouteHop>>) -> Self {
        let mut table = RouteTable::new();
        for (flow, hops) in dense.into_iter().enumerate() {
            for hop in hops {
                table.push_hop(FlowId::new(flow as u32), hop);
            }
        }
        table
    }

    /// Adds an admissible hop for `flow`, ignoring exact duplicates.
    ///
    /// Appending in non-decreasing flow order is `O(1)` amortized (the
    /// order every table builder naturally produces); out-of-order
    /// flows fall back to a sorted insert.
    pub fn push_hop(&mut self, flow: FlowId, hop: RouteHop) {
        let f = flow.raw();
        if self.flows.is_empty() {
            self.flows.push(f);
            self.offsets = vec![0, 1];
            self.hops.push(hop);
            return;
        }
        let last = *self.flows.last().expect("non-empty");
        if f == last {
            let start = self.offsets[self.flows.len() - 1] as usize;
            if !self.hops[start..].contains(&hop) {
                self.hops.push(hop);
                *self.offsets.last_mut().expect("non-empty") += 1;
            }
            return;
        }
        if f > last {
            self.flows.push(f);
            self.hops.push(hop);
            self.offsets.push(self.hops.len() as u32);
            return;
        }
        // Out-of-order insert (rare: explicit paths given unsorted).
        match self.flows.binary_search(&f) {
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
                self.flows.insert(i, f);
                self.hops.insert(at, hop);
                self.offsets.insert(i + 1, at as u32);
                for o in &mut self.offsets[i + 1..] {
                    *o += 1;
                }
            }
        }
    }

    /// The admissible hops of `flow` (empty if the flow never visits
    /// this switch).
    pub fn lookup(&self, flow: FlowId) -> &[RouteHop] {
        match self.flows.binary_search(&flow.raw()) {
            Ok(i) => &self.hops[self.offsets[i] as usize..self.offsets[i + 1] as usize],
            Err(_) => &[],
        }
    }

    /// Iterates `(flow, hops)` over every stored entry, ascending by
    /// flow.
    pub fn entries(&self) -> impl Iterator<Item = (FlowId, &[RouteHop])> + '_ {
        self.flows.iter().enumerate().map(move |(i, &f)| {
            (
                FlowId::new(f),
                &self.hops[self.offsets[i] as usize..self.offsets[i + 1] as usize],
            )
        })
    }

    /// Number of flows with at least one entry.
    pub fn flow_entries(&self) -> usize {
        self.flows.len()
    }

    /// Whether no flow has an entry.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// The highest VC any stored hop uses (`None` when empty).
    pub fn max_vc(&self) -> Option<u8> {
        self.hops.iter().map(|h| h.vc.raw()).max()
    }

    /// The most alternatives any single flow holds (0 when empty).
    pub fn max_alternatives(&self) -> usize {
        (0..self.flows.len())
            .map(|i| (self.offsets[i + 1] - self.offsets[i]) as usize)
            .max()
            .unwrap_or(0)
    }
}

/// "No such port" in the packed [`GridRouter`] records (a switch has at
/// most 255 ports per side, so 255 is never a port index).
const NO_PORT: u8 = u8::MAX;

/// The "direction" of a flit that has reached its destination's switch
/// (real directions are `0..4`: `+x`, `-x`, `+y`, `-y`).
const ARRIVED: usize = 4;

/// What a [`GridRouter`] knows about one switch, packed: coordinates
/// and, per direction, the output port toward that neighbour and the
/// input port flits travelling that way arrive on ([`NO_PORT`] where
/// the grid ends).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct GridNode {
    x: u32,
    y: u32,
    out: [u8; 4],
    inp: [u8; 4],
}

/// What a [`GridRouter`] knows about one endpoint: the coordinates of
/// its switch and, for receptors, the ejection port there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct GridHome {
    x: u32,
    y: u32,
    eject: u8,
}

/// Dimension-ordered routing on a mesh or torus as a function: the hop
/// of a head flit is computed from (switch, destination endpoint, input
/// port, input VC), so no switch holds a table.
///
/// The route is X first, then Y. With `wrap` each dimension is
/// travelled the shorter way around, the direct (non-wrapping) way on
/// ties or when the dimension has no wrap-around link (`size <= 2`);
/// the shorter way stays the shorter way after every step, so a flit
/// never reverses. With `dateline` a hop rides VC 1 **iff it crosses a
/// wrap-around link, or the flit arrived along the same dimension on
/// VC 1** — "VC 1 from the wrap hop onward, per dimension" restated
/// with what a switch has in hand (a flit that turns from X into Y
/// arrives on an X port, so it starts Y on VC 0). Ejection is always
/// on VC 0.
///
/// The hop therefore splits in two: its **direction** is a function of
/// the switch's and the destination's coordinates, its **VC** of the
/// edge crossed and the arrival channel. The deadlock check leans on
/// exactly that split to treat 64 destinations at a time
/// ([`GridRouter::sort_block`], [`GridRouter::directions`],
/// [`GridRouter::hop_toward`]).
///
/// `nocem-topology` builds one per grid platform ([`GridRouter::new`],
/// [`GridRouter::link`], [`GridRouter::endpoint`]); only a router that
/// [`GridRouter::is_total`] may be handed to switches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridRouter {
    width: u32,
    height: u32,
    wrap: bool,
    dateline: bool,
    /// Per switch, row-major.
    nodes: Vec<GridNode>,
    /// Per endpoint, in id order.
    homes: Vec<GridHome>,
}

/// A block of up to 64 destinations sorted by direction
/// ([`GridRouter::sort_block`]): per column and per row of the grid,
/// the destinations that lie there, ascending and descending from it,
/// one bit each.
#[derive(Debug, Default)]
pub struct GridBlock {
    columns: Vec<[u64; 3]>,
    rows: Vec<[u64; 3]>,
}

impl GridRouter {
    /// A router over a row-major `width × height` grid (neither zero)
    /// with no links and no endpoints yet.
    pub fn new(width: u32, height: u32, wrap: bool, dateline: bool) -> Self {
        let blank = |s: u32| GridNode {
            x: s % width,
            y: s / width,
            out: [NO_PORT; 4],
            inp: [NO_PORT; 4],
        };
        GridRouter {
            nodes: (0..width * height).map(blank).collect(),
            homes: Vec::new(),
            width,
            height,
            wrap,
            dateline,
        }
    }

    /// Records the link `from.out → to.inp` if it leads to a neighbour
    /// the routing function can step to (wrap-around links only with
    /// `wrap`) and no earlier link already does: fed in ascending
    /// output-port order, the lowest of parallel links wins, as in
    /// the table builders.
    pub fn link(&mut self, from: SwitchId, out: PortId, to: SwitchId, inp: PortId) {
        let GridNode { x, y, .. } = self.nodes[from.index()];
        for dir in 0..4 {
            if self.neighbour(x, y, dir) == Some(to) && self.nodes[from.index()].out[dir] == NO_PORT
            {
                self.nodes[from.index()].out[dir] = out.raw();
                self.nodes[to.index()].inp[dir] = inp.raw();
            }
        }
    }

    /// Registers the next endpoint (in endpoint-id order): the switch
    /// it is attached to and, for a receptor, its ejection port there.
    pub fn endpoint(&mut self, switch: SwitchId, eject: Option<PortId>) {
        let GridNode { x, y, .. } = self.nodes[switch.index()];
        let eject = eject.map_or(NO_PORT, PortId::raw);
        self.homes.push(GridHome { x, y, eject });
    }

    /// Whether every port the routing function can ask for exists:
    /// each switch has an output toward every neighbour
    /// [`GridRouter::link`] would accept. `false` for `wrap` routing
    /// over a mesh wider than 2, or a hand-built partial grid.
    pub fn is_total(&self) -> bool {
        self.nodes.iter().all(|n| {
            (0..4).all(|dir| self.neighbour(n.x, n.y, dir).is_none() || n.out[dir] != NO_PORT)
        })
    }

    /// The neighbour of `(x, y)` in direction `dir`, if the routing
    /// function can step there.
    fn neighbour(&self, x: u32, y: u32, dir: usize) -> Option<SwitchId> {
        let along = |cur: u32, size: u32| {
            // (at the edge, the next coordinate, the one across it)
            let (edge, next, across) = if dir.is_multiple_of(2) {
                (cur + 1 == size, cur + 1, 0)
            } else {
                (cur == 0, cur.wrapping_sub(1), size - 1)
            };
            match edge {
                false => Some(next),
                true => (self.wrap && size > 2).then_some(across),
            }
        };
        let (nx, ny) = if dir < 2 {
            (along(x, self.width)?, y)
        } else {
            (x, along(y, self.height)?)
        };
        Some(SwitchId::new(ny * self.width + nx))
    }

    /// Whether the way from `cur` to `target` in a dimension of `size`
    /// goes the wrap-around way: `size - direct < direct`, the shorter
    /// way; ties go direct.
    #[inline]
    fn around(&self, cur: u32, target: u32, size: u32) -> bool {
        self.wrap && (size > 2) & (cur.abs_diff(target) > size / 2)
    }

    /// Which way a flit at coordinate `cur` of a dimension of `size`
    /// travels toward `target`: 0 there, 1 ascending, 2 descending —
    /// going around swaps the two.
    #[inline]
    fn way(&self, cur: u32, target: u32, size: u32) -> usize {
        (usize::from(cur < target) | usize::from(cur > target) << 1)
            ^ (usize::from(self.around(cur, target, size)) * 3)
    }

    /// Whether a hop leaving `node` in direction `dir` rides VC 1 for a
    /// flit that faced input `(in_port, in_vc)`: the dateline rule, from
    /// the edge being crossed and the arrival channel alone — the
    /// destination only ever decides `dir`.
    #[inline]
    fn rides_vc1(&self, node: &GridNode, dir: usize, (in_port, in_vc): (u8, u8)) -> bool {
        self.dateline && {
            // Bit `dir`: stepping that way from here crosses the edge.
            let edges = u32::from(node.x + 1 == self.width)
                | u32::from(node.x == 0) << 1
                | u32::from(node.y + 1 == self.height) << 2
                | u32::from(node.y == 0) << 3;
            // Byte `dir`: flits travelling that way arrive on this port.
            let from = (u64::from(u32::from_le_bytes(node.inp)) | 0xFF << 32) >> (8 * dir);
            (edges >> dir & 1 != 0) | ((in_vc != 0) & (in_port == from as u8))
        }
    }

    /// The hop a flit for `home` facing input `(in_port, in_vc)` of
    /// `node` takes, and its direction ([`ARRIVED`]: it ejects).
    /// Straight-line code but for the router's own flags, and no load
    /// depends on another: the engine waits on this answer once per
    /// head flit per hop, the answer is data (a branch on it would
    /// mispredict), and an indexed port would double its latency.
    #[inline]
    fn route(&self, node: &GridNode, home: &GridHome, input: (u8, u8)) -> (RouteHop, usize) {
        let wx = self.way(node.x, home.x, self.width);
        let wy = self.way(node.y, home.y, self.height);
        // X first (0, 1), then Y (2, 3), then there (4): nibble
        // `wx + 3 * wy` of a nine-entry table held in a constant.
        let dir = (0x1_0310_2104_u64 >> (4 * (wx + 3 * wy)) & 7) as usize;
        // Byte `dir` of: the four output ports, the ejection port.
        let ports = u64::from(u32::from_le_bytes(node.out)) | u64::from(home.eject) << 32;
        let hop = RouteHop {
            port: PortId::new((ports >> (8 * dir)) as u8),
            vc: VcId::new(u8::from(self.rides_vc1(node, dir, input))),
        };
        (hop, dir)
    }

    /// The hop of a head flit for `dst` that sits at the head of input
    /// `(in_port, in_vc)` of switch `at`. Total over receptor
    /// destinations when the router [`is_total`](GridRouter::is_total).
    ///
    /// # Panics
    ///
    /// Panics if `at` or `dst` is out of range.
    #[inline]
    pub fn hop(&self, at: SwitchId, dst: EndpointId, in_port: PortId, in_vc: VcId) -> RouteHop {
        let (node, home) = (&self.nodes[at.index()], &self.homes[dst.index()]);
        self.route(node, home, (in_port.raw(), in_vc.raw())).0
    }

    /// Follows a packet from generator `src` to receptor `dst`: every
    /// switch it visits with the hop it takes there, the ejection hop
    /// last. Each hop is computed from the previous one's output (the
    /// next switch's input port and VC), exactly as the switches will.
    /// The switches visited are right even where a port is missing.
    pub fn walk(
        &self,
        src: EndpointId,
        dst: EndpointId,
    ) -> impl Iterator<Item = (SwitchId, RouteHop)> + '_ {
        let (from, home) = (self.homes[src.index()], self.homes[dst.index()]);
        // Injection is on VC 0, where the input port does not matter.
        let mut cur = from.y * self.width + from.x;
        let mut input = (NO_PORT, 0);
        // The direction the last hop left in, stepped along only when
        // the next hop is asked for: most walks of the deadlock check
        // stop after one.
        let mut leaving = None;
        std::iter::from_fn(move || {
            if let Some(dir) = leaving {
                if dir == ARRIVED {
                    return None;
                }
                let node = &self.nodes[cur as usize];
                let next = self
                    .neighbour(node.x, node.y, dir)
                    .expect("dimension-ordered steps stay on the grid");
                input.0 = self.nodes[next.index()].inp[dir];
                cur = next.raw();
            }
            let (hop, dir) = self.route(&self.nodes[cur as usize], &home, input);
            leaving = Some(dir);
            input.1 = hop.vc.raw();
            Some((SwitchId::new(cur), hop))
        })
    }

    /// Sorts up to 64 destinations (bit `i` stands for `dsts[i]`) by
    /// where they lie from every column and every row, into `block`.
    /// The direction of a hop depends on the switch's and the
    /// destination's coordinates only, so these `(width + height) × 3`
    /// words answer "which of the block leave this switch which way"
    /// for every switch ([`GridRouter::directions`]).
    ///
    /// # Panics
    ///
    /// Panics if `dsts` holds more than 64 endpoints.
    pub fn sort_block(&self, dsts: &[EndpointId], block: &mut GridBlock) {
        assert!(dsts.len() <= 64, "a block is one bit per destination");
        block.columns.clear();
        block.columns.resize(self.width as usize, [0; 3]);
        block.rows.clear();
        block.rows.resize(self.height as usize, [0; 3]);
        for (i, dst) in dsts.iter().enumerate() {
            let home = &self.homes[dst.index()];
            for (x, column) in (0..).zip(&mut block.columns) {
                column[self.way(x, home.x, self.width)] |= 1 << i;
            }
            for (y, row) in (0..).zip(&mut block.rows) {
                row[self.way(y, home.y, self.height)] |= 1 << i;
            }
        }
    }

    /// The destinations of `block` a flit at switch `at` leaves for in
    /// each direction — `+x`, `-x`, `+y`, `-y` — and, last, the ones
    /// whose switch this is: X first, then Y, as [`GridRouter::hop`].
    pub fn directions(&self, block: &GridBlock, at: SwitchId) -> [u64; 5] {
        let node = &self.nodes[at.index()];
        let (x, y) = (block.columns[node.x as usize], block.rows[node.y as usize]);
        [x[1], x[2], x[0] & y[1], x[0] & y[2], x[0] & y[0]]
    }

    /// The hop out of switch `at` in direction `dir` (`0..4`, the order
    /// of [`GridRouter::directions`]) of a flit at the head of input
    /// `(in_port, in_vc)`: [`GridRouter::hop`] with the destination's
    /// part of the answer, the direction, given.
    ///
    /// # Panics
    ///
    /// Panics if `at` is out of range or `dir` is not a direction.
    pub fn hop_toward(&self, at: SwitchId, dir: usize, in_port: PortId, in_vc: VcId) -> RouteHop {
        let node = &self.nodes[at.index()];
        let vc1 = self.rides_vc1(node, dir, (in_port.raw(), in_vc.raw()));
        RouteHop {
            port: PortId::new(node.out[dir]),
            vc: VcId::new(u8::from(vc1)),
        }
    }

    /// Whether the route `src → dst` ever rides VC 1: dateline
    /// labelling is on and the shorter way wraps in some dimension.
    pub fn uses_vc1(&self, src: EndpointId, dst: EndpointId) -> bool {
        let (node, home) = (&self.homes[src.index()], &self.homes[dst.index()]);
        self.dateline
            && (self.around(node.x, home.x, self.width) || self.around(node.y, home.y, self.height))
    }

    /// Whether any route of `flows` rides VC 1 — [`GridRouter::uses_vc1`]
    /// over the whole set without visiting a pair: a source's route
    /// wraps iff some coordinate the shorter way around from its own
    /// holds a sink other than its node's, so counting sinks per column
    /// and per row answers in `O(nodes × (width + height))`, and the
    /// first wrapping source (any, on a torus) ends the search.
    pub fn any_uses_vc1(&self, flows: &AllButSelf) -> bool {
        if !(self.dateline && self.wrap) {
            return false;
        }
        let mut in_column = vec![0u32; self.width as usize];
        let mut in_row = vec![0u32; self.height as usize];
        for sink in flows.sinks() {
            let home = &self.homes[sink.index()];
            in_column[home.x as usize] += 1;
            in_row[home.y as usize] += 1;
        }
        let wraps_to = |from: u32, own: u32, size: u32, sinks_at: &[u32]| {
            (0..size).any(|to| {
                self.around(from, to, size) && sinks_at[to as usize] > u32::from(own == to)
            })
        };
        flows.sources().iter().zip(flows.sinks()).any(|(src, own)| {
            let (from, own) = (&self.homes[src.index()], &self.homes[own.index()]);
            wraps_to(from.x, own.x, self.width, &in_column)
                || wraps_to(from.y, own.y, self.height, &in_row)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            assert_eq!(table.lookup(FlowId::new(f as u32)), hops.as_slice());
        }
        assert_eq!(table.flow_entries(), 3, "empty entries are not stored");
        assert_eq!(table.max_vc(), Some(1));
        assert_eq!(table.max_alternatives(), 2);
        assert!(table.lookup(FlowId::new(99)).is_empty());
    }

    #[test]
    fn duplicate_hops_are_ignored() {
        let mut t = RouteTable::new();
        t.push_hop(FlowId::new(1), hop(0, 0));
        t.push_hop(FlowId::new(1), hop(0, 0));
        t.push_hop(FlowId::new(1), hop(1, 0));
        assert_eq!(t.lookup(FlowId::new(1)), &[hop(0, 0), hop(1, 0)]);
    }

    #[test]
    fn out_of_order_inserts_keep_entries_sorted() {
        let mut t = RouteTable::new();
        t.push_hop(FlowId::new(5), hop(0, 0));
        t.push_hop(FlowId::new(2), hop(1, 0));
        t.push_hop(FlowId::new(9), hop(2, 0));
        t.push_hop(FlowId::new(2), hop(3, 1));
        t.push_hop(FlowId::new(5), hop(0, 0)); // duplicate, dropped
        let flows: Vec<u32> = t.entries().map(|(f, _)| f.raw()).collect();
        assert_eq!(flows, vec![2, 5, 9]);
        assert_eq!(t.lookup(FlowId::new(2)), &[hop(1, 0), hop(3, 1)]);
        assert_eq!(t.lookup(FlowId::new(5)), &[hop(0, 0)]);
        assert_eq!(t.lookup(FlowId::new(9)), &[hop(2, 0)]);
    }

    /// A `width × 1` ring of switches wired by hand: output/input
    /// port 0 ascending, 1 descending, 2 the endpoint pair.
    fn ring_router(width: u32, wrap: bool, dateline: bool) -> GridRouter {
        let mut r = GridRouter::new(width, 1, wrap, dateline);
        let s = SwitchId::new;
        for x in 0..width {
            if x + 1 < width || wrap {
                r.link(s(x), PortId::new(0), s((x + 1) % width), PortId::new(1));
                r.link(s((x + 1) % width), PortId::new(1), s(x), PortId::new(0));
            }
        }
        for x in 0..width {
            r.endpoint(s(x), None); // generator
            r.endpoint(s(x), Some(PortId::new(2))); // receptor
        }
        r
    }

    #[test]
    fn grid_router_applies_the_dateline_rule_locally() {
        let r = ring_router(7, true, true);
        assert!(r.is_total());
        let generator = |x: u32| EndpointId::new(2 * x);
        let receptor = |x: u32| EndpointId::new(2 * x + 1);
        // 5 -> 6 -> 0 -> 1: the 6 -> 0 hop crosses the edge, so it and
        // the hop after it ride VC 1; ejection is back on VC 0.
        let walk: Vec<_> = r.walk(generator(5), receptor(1)).collect();
        let s = SwitchId::new;
        assert_eq!(
            walk,
            vec![
                (s(5), hop(0, 0)),
                (s(6), hop(0, 1)),
                (s(0), hop(0, 1)),
                (s(1), hop(2, 0)),
            ]
        );
        assert!(r.uses_vc1(generator(5), receptor(1)));
        assert!(
            !r.uses_vc1(generator(0), receptor(3)),
            "the short way is direct"
        );
        // What a switch asks: the VC continues only along the port the
        // flit is travelling in from.
        let at0 = |port, vc| r.hop(s(0), receptor(1), PortId::new(port), VcId::new(vc));
        assert_eq!(at0(1, 1), hop(0, 1), "arrived ascending on VC 1");
        assert_eq!(at0(1, 0), hop(0, 0), "arrived ascending on VC 0");
        assert_eq!(at0(0, 1), hop(0, 0), "arrived on another port");
        assert_eq!(at0(2, 0), hop(0, 0), "injected here");
        // Without dateline labelling every hop is on VC 0.
        let single = ring_router(7, true, false);
        assert!(single
            .walk(generator(5), receptor(1))
            .all(|(_, h)| h.vc == VcId::ZERO));
    }

    #[test]
    fn a_sorted_block_answers_as_the_router_does() {
        // Direction from the block's masks, VC from the arrival: the
        // two halves put together are `hop`, for every switch,
        // destination and arrival channel.
        let receptor = |x: u32| EndpointId::new(2 * x + 1);
        for (width, wrap, dateline) in [(7, true, true), (6, true, false), (5, false, false)] {
            let r = ring_router(width, wrap, dateline);
            let dsts: Vec<EndpointId> = (0..width).map(receptor).collect();
            let mut block = GridBlock::default();
            r.sort_block(&dsts, &mut block);
            for at in (0..width).map(SwitchId::new) {
                let ways = r.directions(&block, at);
                assert_eq!(ways.iter().fold(0, |all, w| all | w), (1 << width) - 1);
                assert_eq!(ways.iter().map(|w| w.count_ones()).sum::<u32>(), width);
                for (i, &dst) in dsts.iter().enumerate() {
                    let dir = ways.iter().position(|w| w >> i & 1 != 0).unwrap();
                    assert_eq!(dir == 4, i == at.index(), "receptor i sits on switch i");
                    for (port, vc) in [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0)] {
                        let arrival = (PortId::new(port), VcId::new(vc));
                        let whole = r.hop(at, dst, arrival.0, arrival.1);
                        if dir < 4 {
                            assert_eq!(r.hop_toward(at, dir, arrival.0, arrival.1), whole);
                        } else {
                            assert_eq!(whole, hop(2, 0), "ejection, on VC 0");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn grid_router_is_total_only_with_every_link_it_may_ask_for() {
        // A line routed the wrapping way wants the wrap link.
        let mut line = GridRouter::new(3, 1, true, false);
        let s = SwitchId::new;
        for x in 0..2 {
            line.link(s(x), PortId::new(0), s(x + 1), PortId::new(1));
            line.link(s(x + 1), PortId::new(1), s(x), PortId::new(0));
        }
        assert!(!line.is_total(), "0 <-> 2 is missing");
        line.endpoint(s(0), None);
        line.endpoint(s(2), Some(PortId::new(2)));
        let visited: Vec<_> = line
            .walk(EndpointId::new(0), EndpointId::new(1))
            .map(|(at, _)| at)
            .collect();
        assert_eq!(visited, vec![s(0), s(2)], "coordinates alone");
        // Without wrapping the same line is complete, and a width of 2
        // never wraps.
        assert!(ring_router(3, false, false).is_total());
        assert!(ring_router(2, false, true).is_total());
        // Parallel links: the lowest port wins.
        let mut r = ring_router(2, false, false);
        r.link(s(0), PortId::new(7), s(1), PortId::new(7));
        assert_eq!(
            r.hop(s(0), EndpointId::new(3), PortId::new(2), VcId::ZERO),
            hop(0, 0)
        );
    }

    #[test]
    fn any_uses_vc1_is_uses_vc1_over_the_set() {
        let generator = |x: u32| EndpointId::new(2 * x);
        let receptor = |x: u32| EndpointId::new(2 * x + 1);
        let brute =
            |r: &GridRouter, set: &AllButSelf| set.iter().any(|(_, src, dst)| r.uses_vc1(src, dst));
        for width in 2..9 {
            let all = AllButSelf::new(
                (0..width).map(generator).collect(),
                (0..width).map(receptor).collect(),
            );
            for (wrap, dateline) in [(false, false), (true, false), (false, true), (true, true)] {
                let r = ring_router(width, wrap, dateline);
                assert_eq!(
                    r.any_uses_vc1(&all),
                    brute(&r, &all),
                    "{width} wide, wrap {wrap}, dateline {dateline}"
                );
                assert_eq!(r.any_uses_vc1(&all), wrap && dateline && width > 2);
            }
        }
        // The only pair that would wrap is a node's own (0 -> 4 of 7):
        // it is not a flow of the set, so nothing rides VC 1.
        let r = ring_router(7, true, true);
        let own_wraps = AllButSelf::new(
            vec![generator(0), generator(1)],
            vec![receptor(4), receptor(1)],
        );
        assert!(r.uses_vc1(generator(0), receptor(4)));
        assert!(!brute(&r, &own_wraps));
        assert!(!r.any_uses_vc1(&own_wraps));
        // Swapped, 0 -> 4 is a flow.
        let wraps = AllButSelf::new(
            vec![generator(0), generator(1)],
            vec![receptor(1), receptor(4)],
        );
        assert!(brute(&r, &wraps));
        assert!(r.any_uses_vc1(&wraps));
    }

    #[test]
    fn empty_table_behaves() {
        let t = RouteTable::new();
        assert!(t.is_empty());
        assert_eq!(t.max_vc(), None);
        assert_eq!(t.max_alternatives(), 0);
        assert!(t.lookup(FlowId::new(0)).is_empty());
        assert_eq!(t.entries().count(), 0);
    }
}
