//! Topology graph: switches, endpoints and unidirectional links.
//!
//! A [`Topology`] is the static structure of the NoC to be emulated:
//! the paper's "switch topology" parameter. It is built incrementally
//! through a [`TopologyBuilder`] and frozen by [`TopologyBuilder::build`],
//! which validates the structure (port consistency, connectivity,
//! endpoint wiring) and precomputes the lookup tables the engines use.
//!
//! Conventions:
//!
//! * links are **unidirectional**; a bidirectional connection between
//!   two switches is two links;
//! * a traffic **generator** endpoint has exactly one outgoing link
//!   into a switch input port; a traffic **receptor** endpoint has
//!   exactly one incoming link from a switch output port (the paper's
//!   platform keeps TG and TR as separate devices);
//! * switch port counts are derived from the connections, mirroring the
//!   paper's per-switch "number of inputs / number of outputs"
//!   parameters.

use crate::TopologyError;
use nocem_common::ids::{EndpointId, LinkId, PortId, SwitchId};
use std::collections::VecDeque;

/// What kind of traffic device an endpoint is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EndpointKind {
    /// Traffic generator (TG): injects packets.
    Generator,
    /// Traffic receptor (TR): consumes packets and gathers statistics.
    Receptor,
}

impl std::fmt::Display for EndpointKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            EndpointKind::Generator => "TG",
            EndpointKind::Receptor => "TR",
        })
    }
}

/// One end of a unidirectional link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkEnd {
    /// A switch port. For a link *source* this is an output port; for a
    /// link *destination* it is an input port.
    Switch {
        /// The switch.
        switch: SwitchId,
        /// Output port (as source) or input port (as destination).
        port: PortId,
    },
    /// An endpoint (whole device; endpoints have a single implicit port).
    Endpoint(EndpointId),
}

/// A unidirectional flit channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Link {
    /// Dense id of this link.
    pub id: LinkId,
    /// Where flits enter the link.
    pub src: LinkEnd,
    /// Where flits leave the link.
    pub dst: LinkEnd,
}

impl Link {
    /// Whether this link connects two switches (an *inter-switch* link;
    /// the hot links of the paper's experimental setup are of this
    /// kind).
    pub fn is_inter_switch(&self) -> bool {
        matches!(
            (self.src, self.dst),
            (LinkEnd::Switch { .. }, LinkEnd::Switch { .. })
        )
    }

    /// The switch flits leave when entering this link, if the source
    /// is a switch (`None` for injection links, whose source is a TG).
    pub fn from_switch(&self) -> Option<SwitchId> {
        match self.src {
            LinkEnd::Switch { switch, .. } => Some(switch),
            LinkEnd::Endpoint(_) => None,
        }
    }

    /// The switch flits arrive at when leaving this link, if the
    /// destination is a switch (`None` for ejection links, whose
    /// destination is a TR).
    pub fn to_switch(&self) -> Option<SwitchId> {
        match self.dst {
            LinkEnd::Switch { switch, .. } => Some(switch),
            LinkEnd::Endpoint(_) => None,
        }
    }
}

/// Static description of one switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchInfo {
    /// Number of input ports (derived from incoming links).
    pub inputs: u8,
    /// Number of output ports (derived from outgoing links).
    pub outputs: u8,
}

/// Static description of one endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EndpointInfo {
    /// Generator or receptor.
    pub kind: EndpointKind,
    /// Switch the endpoint is attached to.
    pub switch: SwitchId,
    /// The single link wiring the endpoint to its switch.
    pub link: LinkId,
}

/// Optional 2-D grid metadata attached by mesh/torus builders; enables
/// XY routing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridInfo {
    /// Grid width (columns).
    pub width: u32,
    /// Grid height (rows).
    pub height: u32,
}

impl GridInfo {
    /// (x, y) coordinates of a switch laid out row-major.
    pub fn coords(&self, s: SwitchId) -> (u32, u32) {
        (s.raw() % self.width, s.raw() / self.width)
    }

    /// Switch at (x, y).
    pub fn at(&self, x: u32, y: u32) -> SwitchId {
        SwitchId::new(y * self.width + x)
    }

    /// Whether the hop `a -> b` crosses a torus wrap-around boundary:
    /// the coordinates differ by more than one in some dimension
    /// (grid-adjacent switches always differ by exactly one). This is
    /// the single wrap predicate the torus detectors, the dateline VC
    /// labeller and the tests share.
    pub fn is_wrap_hop(&self, a: SwitchId, b: SwitchId) -> bool {
        let (ax, ay) = self.coords(a);
        let (bx, by) = self.coords(b);
        ax.abs_diff(bx) > 1 || ay.abs_diff(by) > 1
    }
}

/// Lists of ids grouped by a dense key, in two flat arrays: row `r` is
/// `items[start[r]..start[r + 1]]`.
#[derive(Debug, Clone)]
pub(crate) struct Rows {
    start: Vec<u32>,
    items: Vec<u32>,
}

impl Rows {
    /// Groups `pairs` of `(row, item)` by row (of `rows`), keeping the
    /// order items of one row were given in — a counting sort.
    pub(crate) fn group(rows: usize, pairs: impl Iterator<Item = (usize, u32)> + Clone) -> Self {
        let mut start = vec![0u32; rows + 1];
        for (row, _) in pairs.clone() {
            start[row + 1] += 1;
        }
        for row in 0..rows {
            start[row + 1] += start[row];
        }
        let mut fill = start.clone();
        let mut items = vec![0; start[rows] as usize];
        for (row, item) in pairs {
            items[fill[row] as usize] = item;
            fill[row] += 1;
        }
        Rows { start, items }
    }

    pub(crate) fn row(&self, row: usize) -> &[u32] {
        &self.items[self.start[row] as usize..self.start[row + 1] as usize]
    }
}

/// An immutable, validated NoC structure.
///
/// Construct through [`TopologyBuilder`]. All accessors are `O(1)`
/// except the iterators.
#[derive(Debug, Clone)]
pub struct Topology {
    name: String,
    switches: Vec<SwitchInfo>,
    endpoints: Vec<EndpointInfo>,
    links: Vec<Link>,
    grid: Option<GridInfo>,
    /// `[switch][input port] -> incoming link`
    in_links: Vec<Vec<LinkId>>,
    /// `[switch][output port] -> outgoing link`
    out_links: Vec<Vec<LinkId>>,
    /// `[switch] -> switches with an inter-switch link into it`, one
    /// entry per link.
    upstream: Rows,
    /// `[switch] -> generators attached to it`, in id order.
    generators_at: Rows,
    /// `[switch] -> receptors attached to it`, in id order.
    receptors_at: Rows,
}

impl Topology {
    /// Human-readable topology name (used in reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of switches.
    pub fn switch_count(&self) -> usize {
        self.switches.len()
    }

    /// Number of endpoints (generators + receptors).
    pub fn endpoint_count(&self) -> usize {
        self.endpoints.len()
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Static info of switch `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn switch(&self, s: SwitchId) -> SwitchInfo {
        self.switches[s.index()]
    }

    /// Static info of endpoint `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn endpoint(&self, e: EndpointId) -> EndpointInfo {
        self.endpoints[e.index()]
    }

    /// The link with id `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    pub fn link(&self, l: LinkId) -> Link {
        self.links[l.index()]
    }

    /// Grid metadata, if the topology was built as a grid.
    pub fn grid(&self) -> Option<&GridInfo> {
        self.grid.as_ref()
    }

    /// Iterates over all switch ids.
    pub fn switch_ids(&self) -> impl Iterator<Item = SwitchId> + '_ {
        (0..self.switches.len() as u32).map(SwitchId::new)
    }

    /// Iterates over all endpoint ids.
    pub fn endpoint_ids(&self) -> impl Iterator<Item = EndpointId> + '_ {
        (0..self.endpoints.len() as u32).map(EndpointId::new)
    }

    /// Iterates over all links.
    pub fn links(&self) -> impl Iterator<Item = &Link> + '_ {
        self.links.iter()
    }

    /// Iterates over endpoints of one kind.
    pub fn endpoints_of(&self, kind: EndpointKind) -> impl Iterator<Item = EndpointId> + '_ {
        self.endpoints
            .iter()
            .enumerate()
            .filter(move |(_, e)| e.kind == kind)
            .map(|(i, _)| EndpointId::new(i as u32))
    }

    /// Generators, in id order.
    pub fn generators(&self) -> Vec<EndpointId> {
        self.endpoints_of(EndpointKind::Generator).collect()
    }

    /// Receptors, in id order.
    pub fn receptors(&self) -> Vec<EndpointId> {
        self.endpoints_of(EndpointKind::Receptor).collect()
    }

    /// Endpoints of one kind attached to switch `s`, in id order.
    pub fn endpoints_at(
        &self,
        s: SwitchId,
        kind: EndpointKind,
    ) -> impl Iterator<Item = EndpointId> + '_ {
        let rows = match kind {
            EndpointKind::Generator => &self.generators_at,
            EndpointKind::Receptor => &self.receptors_at,
        };
        rows.row(s.index()).iter().map(|&e| EndpointId::new(e))
    }

    /// The first traffic generator attached to switch `s`, if any.
    ///
    /// The ready-made builders attach exactly one TG per switch, which
    /// makes this the canonical switch-to-generator lookup for the
    /// scenario patterns and core-graph mappers.
    pub fn generator_at(&self, s: SwitchId) -> Option<EndpointId> {
        self.endpoints_at(s, EndpointKind::Generator).next()
    }

    /// The first traffic receptor attached to switch `s`, if any.
    pub fn receptor_at(&self, s: SwitchId) -> Option<EndpointId> {
        self.endpoints_at(s, EndpointKind::Receptor).next()
    }

    /// Whether every switch carries at least one TG and one TR — the
    /// shape the synthetic scenario patterns require (they address
    /// destinations by switch).
    pub fn has_endpoint_pair_per_switch(&self) -> bool {
        self.switch_ids()
            .all(|s| self.generator_at(s).is_some() && self.receptor_at(s).is_some())
    }

    /// Whether the switch indices form a bidirectional ring
    /// (`i ↔ i+1 mod n`). Ring-shaped topologies are the only
    /// grid-less ones where index distance identifies wrap-around
    /// hops, which the dateline VC labeller relies on.
    pub fn is_switch_ring(&self) -> bool {
        let n = self.switches.len() as u32;
        if n < 2 {
            return false;
        }
        (0..n).all(|i| {
            let here = SwitchId::new(i);
            let next = SwitchId::new((i + 1) % n);
            self.switch_neighbors(here).any(|(_, _, s, _)| s == next)
                && self.switch_neighbors(next).any(|(_, _, s, _)| s == here)
        })
    }

    /// Whether the topology is a grid with at least one wrap-around
    /// link (a torus; [`GridInfo::is_wrap_hop`] is the predicate).
    /// Tori whose dimensions are all `<= 2` have none and route like
    /// meshes.
    pub fn has_wrap_links(&self) -> bool {
        self.grid.as_ref().is_some_and(|grid| {
            self.links
                .iter()
                .any(|l| match (l.from_switch(), l.to_switch()) {
                    (Some(a), Some(b)) => grid.is_wrap_hop(a, b),
                    _ => false,
                })
        })
    }

    /// The link arriving at input port `port` of switch `s`.
    ///
    /// # Panics
    ///
    /// Panics if the switch or port is out of range.
    pub fn in_link(&self, s: SwitchId, port: PortId) -> LinkId {
        self.in_links[s.index()][port.index()]
    }

    /// The link leaving output port `port` of switch `s`.
    ///
    /// # Panics
    ///
    /// Panics if the switch or port is out of range.
    pub fn out_link(&self, s: SwitchId, port: PortId) -> LinkId {
        self.out_links[s.index()][port.index()]
    }

    /// Neighbours reachable from switch `s` through one inter-switch
    /// link: `(output port, link, next switch, next switch's input port)`.
    pub fn switch_neighbors(
        &self,
        s: SwitchId,
    ) -> impl Iterator<Item = (PortId, LinkId, SwitchId, PortId)> + '_ {
        self.out_links[s.index()]
            .iter()
            .enumerate()
            .filter_map(move |(p, &l)| match self.links[l.index()].dst {
                LinkEnd::Switch { switch, port } => Some((PortId::new(p as u8), l, switch, port)),
                LinkEnd::Endpoint(_) => None,
            })
    }

    /// The output port of switch `from` whose link arrives at switch
    /// `to`, and that link (lowest port wins if the topology has
    /// parallel links); `None` when no link joins them.
    pub fn link_toward(&self, from: SwitchId, to: SwitchId) -> Option<(PortId, LinkId)> {
        self.switch_neighbors(from)
            .find(|&(_, _, next, _)| next == to)
            .map(|(port, link, _, _)| (port, link))
    }

    /// The output port of switch `s` that feeds receptor `dst`, if the
    /// receptor is attached to `s`.
    pub fn ejection_port(&self, s: SwitchId, dst: EndpointId) -> Option<PortId> {
        let info = self.endpoints[dst.index()];
        if info.kind != EndpointKind::Receptor || info.switch != s {
            return None;
        }
        match self.links[info.link.index()].src {
            LinkEnd::Switch { switch, port } if switch == s => Some(port),
            _ => None,
        }
    }

    /// The input port of switch `s` fed by generator `src`, if the
    /// generator is attached to `s`.
    pub fn injection_port(&self, s: SwitchId, src: EndpointId) -> Option<PortId> {
        let info = self.endpoints[src.index()];
        if info.kind != EndpointKind::Generator || info.switch != s {
            return None;
        }
        match self.links[info.link.index()].dst {
            LinkEnd::Switch { switch, port } if switch == s => Some(port),
            _ => None,
        }
    }

    /// Hop distances from every switch to `to`, by reverse BFS over
    /// inter-switch links. `usize::MAX` marks unreachable switches.
    pub fn distances_to(&self, to: SwitchId) -> Vec<usize> {
        self.distances_to_any([to])
    }

    /// Hop distances from every switch to the nearest of `targets`:
    /// one multi-source reverse BFS.
    fn distances_to_any(&self, targets: impl IntoIterator<Item = SwitchId>) -> Vec<usize> {
        let mut dist = vec![usize::MAX; self.switches.len()];
        let mut queue = VecDeque::new();
        for to in targets {
            if std::mem::replace(&mut dist[to.index()], 0) != 0 {
                queue.push_back(to.index());
            }
        }
        while let Some(u) = queue.pop_front() {
            for &v in self.upstream.row(u) {
                if dist[v as usize] == usize::MAX {
                    dist[v as usize] = dist[u] + 1;
                    queue.push_back(v as usize);
                }
            }
        }
        dist
    }

    /// Network diameter over switches (longest shortest path), or
    /// `None` if the switch graph is not strongly connected.
    pub fn diameter(&self) -> Option<usize> {
        let mut max = 0;
        for s in self.switch_ids() {
            let dist = self.distances_to(s);
            for d in dist {
                if d == usize::MAX {
                    return None;
                }
                max = max.max(d);
            }
        }
        Some(max)
    }
}

/// Incremental construction of a [`Topology`].
///
/// # Examples
///
/// ```
/// use nocem_topology::graph::TopologyBuilder;
///
/// # fn main() -> Result<(), nocem_topology::TopologyError> {
/// let mut b = TopologyBuilder::new("two-switch");
/// let s0 = b.switch();
/// let s1 = b.switch();
/// b.connect(s0, s1);
/// b.connect(s1, s0);
/// let tg = b.generator(s0);
/// let tr = b.receptor(s1);
/// let topo = b.build()?;
/// assert_eq!(topo.switch_count(), 2);
/// assert_eq!(topo.generators(), vec![tg]);
/// assert_eq!(topo.receptors(), vec![tr]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TopologyBuilder {
    name: String,
    switch_inputs: Vec<u8>,
    switch_outputs: Vec<u8>,
    endpoints: Vec<(EndpointKind, SwitchId)>,
    /// (src, dst) pairs recorded before ports are finalized.
    raw_links: Vec<(RawEnd, RawEnd)>,
    grid: Option<GridInfo>,
}

#[derive(Debug, Clone, Copy)]
enum RawEnd {
    SwitchOut(SwitchId, PortId),
    SwitchIn(SwitchId, PortId),
    Endpoint(usize),
}

impl TopologyBuilder {
    /// Starts building a topology with the given report name.
    pub fn new(name: impl Into<String>) -> Self {
        TopologyBuilder {
            name: name.into(),
            switch_inputs: Vec::new(),
            switch_outputs: Vec::new(),
            endpoints: Vec::new(),
            raw_links: Vec::new(),
            grid: None,
        }
    }

    /// Adds a switch and returns its id. Port counts grow as
    /// connections are added.
    pub fn switch(&mut self) -> SwitchId {
        self.switch_inputs.push(0);
        self.switch_outputs.push(0);
        SwitchId::new((self.switch_inputs.len() - 1) as u32)
    }

    /// Adds `n` switches and returns their ids.
    pub fn switches(&mut self, n: usize) -> Vec<SwitchId> {
        (0..n).map(|_| self.switch()).collect()
    }

    /// Attaches grid metadata (set by mesh builders; enables XY
    /// routing).
    pub fn set_grid(&mut self, grid: GridInfo) -> &mut Self {
        self.grid = Some(grid);
        self
    }

    fn alloc_out(&mut self, s: SwitchId) -> PortId {
        let p = self.switch_outputs[s.index()];
        self.switch_outputs[s.index()] += 1;
        PortId::new(p)
    }

    fn alloc_in(&mut self, s: SwitchId) -> PortId {
        let p = self.switch_inputs[s.index()];
        self.switch_inputs[s.index()] += 1;
        PortId::new(p)
    }

    /// Adds a unidirectional link from `from` to `to`, allocating one
    /// output port on `from` and one input port on `to`. Returns the
    /// allocated `(output port, input port)` pair.
    ///
    /// # Panics
    ///
    /// Panics if either switch id was not created by this builder.
    pub fn connect(&mut self, from: SwitchId, to: SwitchId) -> (PortId, PortId) {
        assert!(
            from.index() < self.switch_inputs.len(),
            "unknown switch {from}"
        );
        assert!(to.index() < self.switch_inputs.len(), "unknown switch {to}");
        let op = self.alloc_out(from);
        let ip = self.alloc_in(to);
        self.raw_links
            .push((RawEnd::SwitchOut(from, op), RawEnd::SwitchIn(to, ip)));
        (op, ip)
    }

    /// Adds links in both directions between `a` and `b`.
    pub fn connect_bidir(&mut self, a: SwitchId, b: SwitchId) -> &mut Self {
        self.connect(a, b);
        self.connect(b, a);
        self
    }

    /// Adds a traffic generator attached to switch `s` (one link from
    /// the generator into a fresh input port of `s`).
    ///
    /// # Panics
    ///
    /// Panics if `s` was not created by this builder.
    pub fn generator(&mut self, s: SwitchId) -> EndpointId {
        assert!(s.index() < self.switch_inputs.len(), "unknown switch {s}");
        let e = self.endpoints.len();
        self.endpoints.push((EndpointKind::Generator, s));
        let ip = self.alloc_in(s);
        self.raw_links
            .push((RawEnd::Endpoint(e), RawEnd::SwitchIn(s, ip)));
        EndpointId::new(e as u32)
    }

    /// Adds a traffic receptor attached to switch `s` (one link from a
    /// fresh output port of `s` into the receptor).
    ///
    /// # Panics
    ///
    /// Panics if `s` was not created by this builder.
    pub fn receptor(&mut self, s: SwitchId) -> EndpointId {
        assert!(s.index() < self.switch_inputs.len(), "unknown switch {s}");
        let e = self.endpoints.len();
        self.endpoints.push((EndpointKind::Receptor, s));
        let op = self.alloc_out(s);
        self.raw_links
            .push((RawEnd::SwitchOut(s, op), RawEnd::Endpoint(e)));
        EndpointId::new(e as u32)
    }

    /// Validates and freezes the topology.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError`] when the structure is unusable:
    /// no switches, an endpoint-less network, a generator with no path
    /// to any receptor, or a switch with zero ports.
    pub fn build(self) -> Result<Topology, TopologyError> {
        if self.switch_inputs.is_empty() {
            return Err(TopologyError::Empty);
        }
        if !self
            .endpoints
            .iter()
            .any(|(k, _)| *k == EndpointKind::Generator)
        {
            return Err(TopologyError::NoGenerators);
        }
        if !self
            .endpoints
            .iter()
            .any(|(k, _)| *k == EndpointKind::Receptor)
        {
            return Err(TopologyError::NoReceptors);
        }
        for (i, (&ins, &outs)) in self
            .switch_inputs
            .iter()
            .zip(&self.switch_outputs)
            .enumerate()
        {
            if ins == 0 || outs == 0 {
                return Err(TopologyError::DisconnectedSwitch {
                    switch: SwitchId::new(i as u32),
                });
            }
        }

        let mut links = Vec::with_capacity(self.raw_links.len());
        let mut in_links: Vec<Vec<LinkId>> = self
            .switch_inputs
            .iter()
            .map(|&n| vec![LinkId::new(u32::MAX); n as usize])
            .collect();
        let mut out_links: Vec<Vec<LinkId>> = self
            .switch_outputs
            .iter()
            .map(|&n| vec![LinkId::new(u32::MAX); n as usize])
            .collect();
        let mut endpoint_links = vec![LinkId::new(u32::MAX); self.endpoints.len()];

        for (i, (src, dst)) in self.raw_links.iter().enumerate() {
            let id = LinkId::new(i as u32);
            let conv = |end: &RawEnd| match *end {
                RawEnd::SwitchOut(switch, port) | RawEnd::SwitchIn(switch, port) => {
                    LinkEnd::Switch { switch, port }
                }
                RawEnd::Endpoint(e) => LinkEnd::Endpoint(EndpointId::new(e as u32)),
            };
            links.push(Link {
                id,
                src: conv(src),
                dst: conv(dst),
            });
            match *src {
                RawEnd::SwitchOut(s, p) => out_links[s.index()][p.index()] = id,
                RawEnd::Endpoint(e) => endpoint_links[e] = id,
                RawEnd::SwitchIn(..) => unreachable!("link source is never an input port"),
            }
            match *dst {
                RawEnd::SwitchIn(s, p) => in_links[s.index()][p.index()] = id,
                RawEnd::Endpoint(e) => endpoint_links[e] = id,
                RawEnd::SwitchOut(..) => unreachable!("link destination is never an output port"),
            }
        }

        let endpoints: Vec<EndpointInfo> = self
            .endpoints
            .iter()
            .enumerate()
            .map(|(i, &(kind, switch))| EndpointInfo {
                kind,
                switch,
                link: endpoint_links[i],
            })
            .collect();

        let switches: Vec<SwitchInfo> = self
            .switch_inputs
            .iter()
            .zip(&self.switch_outputs)
            .map(|(&inputs, &outputs)| SwitchInfo { inputs, outputs })
            .collect();

        let attached = |kind: EndpointKind| {
            let of_kind = endpoints
                .iter()
                .enumerate()
                .filter(move |(_, e)| e.kind == kind)
                .map(|(i, e)| (e.switch.index(), i as u32));
            Rows::group(switches.len(), of_kind)
        };
        let topo = Topology {
            upstream: Rows::group(
                switches.len(),
                links
                    .iter()
                    .filter_map(|l| Some((l.to_switch()?.index(), l.from_switch()?.raw()))),
            ),
            generators_at: attached(EndpointKind::Generator),
            receptors_at: attached(EndpointKind::Receptor),
            name: self.name,
            switches,
            endpoints,
            links,
            grid: self.grid,
            in_links,
            out_links,
        };

        // Every generator must reach at least one receptor.
        let to_receptor = topo.distances_to_any(
            topo.endpoints_of(EndpointKind::Receptor)
                .map(|r| topo.endpoint(r).switch),
        );
        let stranded = topo
            .endpoints_of(EndpointKind::Generator)
            .find(|&g| to_receptor[topo.endpoint(g).switch.index()] == usize::MAX);
        match stranded {
            Some(generator) => Err(TopologyError::UnreachableReceptors { generator }),
            None => Ok(topo),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_switch() -> Topology {
        let mut b = TopologyBuilder::new("t");
        let s0 = b.switch();
        let s1 = b.switch();
        b.connect_bidir(s0, s1);
        b.generator(s0);
        b.receptor(s1);
        b.build().unwrap()
    }

    #[test]
    fn link_switch_endpoints() {
        let t = two_switch();
        for l in t.links() {
            if l.is_inter_switch() {
                assert!(l.from_switch().is_some());
                assert!(l.to_switch().is_some());
                assert_ne!(l.from_switch(), l.to_switch());
            }
        }
        // The injection link comes from a TG, so it has no source
        // switch; the ejection link goes into a TR.
        let tg = t.generators()[0];
        let tr = t.receptors()[0];
        let inj = t.link(t.endpoint(tg).link);
        assert_eq!(inj.from_switch(), None);
        assert_eq!(inj.to_switch(), Some(SwitchId::new(0)));
        let ej = t.link(t.endpoint(tr).link);
        assert_eq!(ej.from_switch(), Some(SwitchId::new(1)));
        assert_eq!(ej.to_switch(), None);
    }

    #[test]
    fn port_counts_are_derived() {
        let t = two_switch();
        // s0: inputs = link from s1 + TG; outputs = link to s1.
        assert_eq!(t.switch(SwitchId::new(0)).inputs, 2);
        assert_eq!(t.switch(SwitchId::new(0)).outputs, 1);
        // s1: inputs = link from s0; outputs = link to s0 + TR.
        assert_eq!(t.switch(SwitchId::new(1)).inputs, 1);
        assert_eq!(t.switch(SwitchId::new(1)).outputs, 2);
    }

    #[test]
    fn link_lookup_tables_are_consistent() {
        let t = two_switch();
        for s in t.switch_ids() {
            let info = t.switch(s);
            for p in 0..info.inputs {
                let l = t.in_link(s, PortId::new(p));
                match t.link(l).dst {
                    LinkEnd::Switch { switch, port } => {
                        assert_eq!(switch, s);
                        assert_eq!(port, PortId::new(p));
                    }
                    LinkEnd::Endpoint(_) => panic!("input port fed into endpoint"),
                }
            }
            for p in 0..info.outputs {
                let l = t.out_link(s, PortId::new(p));
                match t.link(l).src {
                    LinkEnd::Switch { switch, port } => {
                        assert_eq!(switch, s);
                        assert_eq!(port, PortId::new(p));
                    }
                    LinkEnd::Endpoint(_) => panic!("output port driven by endpoint"),
                }
            }
        }
    }

    #[test]
    fn neighbors_skip_endpoint_links() {
        let t = two_switch();
        let n: Vec<_> = t.switch_neighbors(SwitchId::new(0)).collect();
        assert_eq!(n.len(), 1);
        assert_eq!(n[0].2, SwitchId::new(1));
    }

    #[test]
    fn injection_and_ejection_ports() {
        let t = two_switch();
        let tg = t.generators()[0];
        let tr = t.receptors()[0];
        assert!(t.injection_port(SwitchId::new(0), tg).is_some());
        assert!(t.injection_port(SwitchId::new(1), tg).is_none());
        assert!(t.ejection_port(SwitchId::new(1), tr).is_some());
        assert!(t.ejection_port(SwitchId::new(0), tr).is_none());
        // Kind mismatch: a generator is not an ejection target.
        assert!(t.ejection_port(SwitchId::new(0), tg).is_none());
    }

    #[test]
    fn distances_and_diameter() {
        let t = two_switch();
        let d = t.distances_to(SwitchId::new(1));
        assert_eq!(d, vec![1, 0]);
        assert_eq!(t.diameter(), Some(1));
    }

    #[test]
    fn empty_topology_rejected() {
        let b = TopologyBuilder::new("e");
        assert!(matches!(b.build(), Err(TopologyError::Empty)));
    }

    #[test]
    fn missing_generators_rejected() {
        let mut b = TopologyBuilder::new("t");
        let s0 = b.switch();
        let s1 = b.switch();
        b.connect_bidir(s0, s1);
        b.receptor(s1);
        assert!(matches!(b.build(), Err(TopologyError::NoGenerators)));
    }

    #[test]
    fn missing_receptors_rejected() {
        let mut b = TopologyBuilder::new("t");
        let s0 = b.switch();
        let s1 = b.switch();
        b.connect_bidir(s0, s1);
        b.generator(s0);
        assert!(matches!(b.build(), Err(TopologyError::NoReceptors)));
    }

    #[test]
    fn portless_switch_rejected() {
        let mut b = TopologyBuilder::new("t");
        let s0 = b.switch();
        let _orphan = b.switch();
        b.connect(s0, s0); // self-link keeps s0 alive
        b.generator(s0);
        b.receptor(s0);
        let err = b.build().unwrap_err();
        assert!(matches!(err, TopologyError::DisconnectedSwitch { .. }));
    }

    #[test]
    fn unreachable_receptor_rejected() {
        // Two disconnected islands: TG+TR on {s0,s1}; a second TG on
        // the isolated {s2,s3} island, which hosts no receptor.
        let mut b = TopologyBuilder::new("t");
        let s0 = b.switch();
        let s1 = b.switch();
        b.connect_bidir(s0, s1);
        b.generator(s0);
        b.receptor(s1);
        let s2 = b.switch();
        let s3 = b.switch();
        b.connect_bidir(s2, s3);
        let stranded = b.generator(s2);
        b.receptor(s3); // island has its own receptor -> builds fine
        let t = b.build().unwrap();
        assert_eq!(t.switch_count(), 4);

        // Now the genuinely broken variant: island with TG but no TR.
        let mut b = TopologyBuilder::new("t2");
        let s0 = b.switch();
        let s1 = b.switch();
        b.connect_bidir(s0, s1);
        b.generator(s0);
        b.receptor(s1);
        let s2 = b.switch();
        let s3 = b.switch();
        b.connect_bidir(s2, s3);
        let g = b.generator(s2);
        let err = b.build().unwrap_err();
        match err {
            TopologyError::UnreachableReceptors { generator } => assert_eq!(generator, g),
            other => panic!("unexpected error {other:?}"),
        }
        let _ = stranded;
    }

    #[test]
    fn the_first_stranded_generator_is_named() {
        // Receptors on several switches, two generators on an island
        // without one: one BFS from all receptors names the first
        // offender in endpoint order.
        let mut b = TopologyBuilder::new("t");
        let s = b.switches(5);
        b.connect_bidir(s[0], s[1]);
        b.connect(s[1], s[2]); // s2 is a sink: reaches nothing
        b.connect_bidir(s[3], s[4]);
        b.connect(s[1], s[3]); // the island is reachable, but reaches nothing
        b.generator(s[0]);
        b.receptor(s[1]);
        b.receptor(s[2]);
        let first = b.generator(s[4]);
        b.generator(s[3]);
        b.receptor(s[0]);
        match b.build().unwrap_err() {
            TopologyError::UnreachableReceptors { generator } => assert_eq!(generator, first),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn per_switch_lookups_follow_endpoint_order() {
        let mut b = TopologyBuilder::new("t");
        let s = b.switches(3);
        b.connect_bidir(s[0], s[1]).connect_bidir(s[1], s[2]);
        let g1 = b.generator(s[1]);
        let r1 = b.receptor(s[1]);
        let g0 = b.generator(s[0]);
        let g1b = b.generator(s[1]);
        let r2 = b.receptor(s[2]);
        let t = b.build().unwrap();
        let at = |s, kind| t.endpoints_at(s, kind).collect::<Vec<_>>();
        assert_eq!(at(s[1], EndpointKind::Generator), vec![g1, g1b]);
        assert_eq!(at(s[1], EndpointKind::Receptor), vec![r1]);
        assert_eq!(t.generator_at(s[0]), Some(g0));
        assert_eq!(t.receptor_at(s[0]), None);
        assert_eq!(t.receptor_at(s[2]), Some(r2));
        assert!(!t.has_endpoint_pair_per_switch());
        // Distances use the retained reverse adjacency.
        assert_eq!(t.distances_to(s[2]), vec![2, 1, 0]);
        assert_eq!(t.diameter(), Some(2));
    }

    #[test]
    fn grid_info_coordinates() {
        let g = GridInfo {
            width: 3,
            height: 2,
        };
        assert_eq!(g.coords(SwitchId::new(4)), (1, 1));
        assert_eq!(g.at(1, 1), SwitchId::new(4));
    }

    #[test]
    fn endpoint_kind_display() {
        assert_eq!(EndpointKind::Generator.to_string(), "TG");
        assert_eq!(EndpointKind::Receptor.to_string(), "TR");
    }

    #[test]
    fn inter_switch_link_classification() {
        let t = two_switch();
        let inter: Vec<_> = t.links().filter(|l| l.is_inter_switch()).collect();
        assert_eq!(inter.len(), 2);
    }
}
