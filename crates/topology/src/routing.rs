//! Routing: from flows to what every switch does with a head flit.
//!
//! Two kinds of answer, and [`RoutingTables::compute_with`] — never the
//! caller — decides which, from the algorithm and the topology:
//!
//! * **Arithmetic on grids.** Dimension-ordered routing
//!   ([`RouteAlgorithm::Xy`], [`RouteAlgorithm::TorusXy`], under either
//!   [`VcPolicy`]) on a mesh or torus that has every link the algorithm
//!   can ask for is a *function*: one shared [`GridRouter`] computes the
//!   hop from (switch, destination, input port, input VC). Set-up is
//!   `O(switches + flows)`, no route entry is stored at any size, and
//!   paths, VC labels and per-switch lookups are answered on demand by
//!   following the function from the flow's source switch.
//! * **Flow-keyed tables elsewhere.** Explicit paths (which is how the
//!   paper's experimental setup pins its hot links),
//!   [`RouteAlgorithm::Shortest`], [`RouteAlgorithm::KShortest`] (the
//!   paper's "two routing possibilities"), and a dimension-ordered
//!   algorithm on a grid that lacks links it may need (`TorusXy` on a
//!   mesh: only pairs whose shorter way is the direct one can route)
//!   keep one sparse [`RouteTable`] per switch mapping a [`FlowId`] to
//!   its admissible [`RouteHop`]s — an output port plus the virtual
//!   channel the packet continues on. These are *path-derived*: the
//!   configured paths and their VC labels are retained inside
//!   [`RoutingTables`].
//!
//! Virtual-channel assignment is selected by [`VcPolicy`]:
//! [`VcPolicy::SingleVc`] keeps every hop on VC 0 (the original
//! single-VC platform), while [`VcPolicy::Dateline`] moves a packet to
//! VC 1 from the first wrap-around hop of each dimension onward — the
//! standard deadlock-avoidance scheme that lets rings and tori route
//! *minimally* across their wrap links while the per-VC
//! channel-dependency graph stays acyclic. Tables get it as a
//! labelling pass over the paths ([`dateline_vcs`]); the grid router
//! applies the same rule locally (see [`GridRouter`]).
//!
//! Either way downstream analyses (deadlock check, link load
//! prediction) see the same paths and labels.

use crate::graph::{EndpointKind, Rows, Topology};
use crate::TopologyError;
use nocem_common::flows::AllButSelf;
use nocem_common::ids::{EndpointId, FlowId, SwitchId, VcId};
use std::borrow::Cow;
use std::collections::{BinaryHeap, HashSet};
use std::sync::Arc;

/// A (source endpoint, destination endpoint) traffic flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowSpec {
    /// Dense flow id (index into routing tables).
    pub flow: FlowId,
    /// Source traffic generator.
    pub src: EndpointId,
    /// Destination traffic receptor.
    pub dst: EndpointId,
}

impl FlowSpec {
    /// Pairs generator *i* with receptor *i* (the common benchmark
    /// pattern, and the paper setup's flow structure).
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::FlowMismatch`] if the topology does not
    /// have the same number of generators and receptors.
    pub fn one_to_one(topo: &Topology) -> Result<Vec<FlowSpec>, TopologyError> {
        let gens = topo.generators();
        let recs = topo.receptors();
        if gens.len() != recs.len() {
            return Err(TopologyError::FlowMismatch {
                generators: gens.len(),
                receptors: recs.len(),
            });
        }
        Ok(gens
            .iter()
            .zip(&recs)
            .enumerate()
            .map(|(i, (&src, &dst))| FlowSpec {
                flow: FlowId::new(i as u32),
                src,
                dst,
            })
            .collect())
    }

    /// One flow from every generator to every receptor (uniform-random
    /// destination traffic uses the whole set).
    pub fn all_pairs(topo: &Topology) -> Vec<FlowSpec> {
        let mut flows = Vec::new();
        for src in topo.generators() {
            for dst in topo.receptors() {
                flows.push(FlowSpec {
                    flow: FlowId::new(flows.len() as u32),
                    src,
                    dst,
                });
            }
        }
        flows
    }
}

/// The traffic flows of a platform: a list, or — for the all-to-all
/// sets whose list would be quadratic in the node count — a function of
/// the endpoints.
///
/// Consumers read a flow set through [`FlowSet::len`], [`FlowSet::get`],
/// [`FlowSet::iter`], [`FlowSet::row`] and
/// [`FlowSet::for_each_by_destination`] and never see which form it
/// has; the two number their flows identically
/// ([`FlowSet::to_listed`] of an implicit set is the list a nested
/// loop over its endpoints would have written). Only the code whose
/// cost the implicit form exists to cut looks inside: set-up validation,
/// [`RoutingTables::compute_with`] on a complete grid and the deadlock
/// walk.
#[derive(Debug, Clone)]
pub enum FlowSet {
    /// The flows, written out. Ids are normally dense (`flows[i].flow
    /// == i`), which makes [`FlowSet::get`] `O(1)`.
    Listed(Vec<FlowSpec>),
    /// Every source to every sink but its own, `O(nodes)` memory
    /// behind an [`Arc`]: `clone()` is `O(1)` and equality between
    /// clones is too.
    AllButSelf(AllButSelf),
}

impl FlowSet {
    /// Number of flows.
    pub fn len(&self) -> usize {
        match self {
            FlowSet::Listed(flows) => flows.len(),
            FlowSet::AllButSelf(set) => set.len(),
        }
    }

    /// Whether there is no flow.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The spec of `flow`: arithmetic for an implicit set; in a list,
    /// at its own index when ids are dense (what every generated list
    /// is), by search otherwise.
    pub fn get(&self, flow: FlowId) -> Option<FlowSpec> {
        match self {
            FlowSet::Listed(flows) => flows
                .get(flow.index())
                .filter(|spec| spec.flow == flow)
                .or_else(|| flows.iter().find(|spec| spec.flow == flow))
                .copied(),
            FlowSet::AllButSelf(set) => set.get(flow).map(|(src, dst)| FlowSpec { flow, src, dst }),
        }
    }

    /// The flow from `src` to `dst`, if there is one (the first, in a
    /// list that repeats the pair). `O(1)` for an implicit set, a scan
    /// of a list.
    pub fn id_of(&self, src: EndpointId, dst: EndpointId) -> Option<FlowId> {
        match self {
            FlowSet::Listed(flows) => flows
                .iter()
                .find(|spec| spec.src == src && spec.dst == dst)
                .map(|spec| spec.flow),
            FlowSet::AllButSelf(set) => set.id_of(src, dst),
        }
    }

    /// Every flow, in the order given (flow-id order for generated
    /// sets).
    pub fn iter(&self) -> impl Iterator<Item = FlowSpec> + '_ {
        let (listed, implicit) = match self {
            FlowSet::Listed(flows) => (flows.as_slice(), None),
            FlowSet::AllButSelf(set) => (&[][..], Some(set)),
        };
        let implicit = implicit
            .into_iter()
            .flat_map(AllButSelf::iter)
            .map(|(flow, src, dst)| FlowSpec { flow, src, dst });
        listed.iter().copied().chain(implicit)
    }

    /// The flows leaving `source`, in [`FlowSet::iter`] order: the
    /// options of a generator there. Rows partition the set.
    pub fn row(&self, source: EndpointId) -> impl Iterator<Item = FlowSpec> + '_ {
        let (listed, implicit) = match self {
            FlowSet::Listed(flows) => (flows.as_slice(), None),
            FlowSet::AllButSelf(set) => (&[][..], set.source_index(source).map(|s| set.row(s))),
        };
        let implicit = implicit
            .into_iter()
            .flatten()
            .map(move |(dst, flow)| FlowSpec {
                flow,
                src: source,
                dst,
            });
        listed
            .iter()
            .copied()
            .filter(move |spec| spec.src == source)
            .chain(implicit)
    }

    /// Calls `visit(src, dst)` for every flow, grouped by destination:
    /// destinations in ascending endpoint-id order, the flows to one
    /// destination in [`FlowSet::iter`] order. A counting sort of a
    /// list; two nested loops, and no allocation, over an implicit set.
    pub fn for_each_by_destination(&self, mut visit: impl FnMut(EndpointId, EndpointId)) {
        match self {
            FlowSet::Listed(flows) => {
                let destinations = flows.iter().map(|f| f.dst.index() + 1).max().unwrap_or(0);
                let sources = Rows::group(
                    destinations,
                    flows.iter().map(|f| (f.dst.index(), f.src.raw())),
                );
                for dst in 0..destinations {
                    for &src in sources.row(dst) {
                        visit(EndpointId::new(src), EndpointId::new(dst as u32));
                    }
                }
            }
            FlowSet::AllButSelf(set) => set.for_each_by_sink(visit),
        }
    }

    /// The flows written out, for code that edits one (an implicit set
    /// cannot be edited, only replaced).
    pub fn to_listed(&self) -> Vec<FlowSpec> {
        self.iter().collect()
    }
}

/// Same flows in the same order. `O(1)` between an implicit set and its
/// clone, `O(nodes)` between two implicit sets, element-wise otherwise.
impl PartialEq for FlowSet {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (FlowSet::Listed(a), FlowSet::Listed(b)) => a == b,
            (FlowSet::AllButSelf(a), FlowSet::AllButSelf(b)) => a == b,
            _ => self.len() == other.len() && self.iter().eq(other.iter()),
        }
    }
}

impl Eq for FlowSet {}

impl From<Vec<FlowSpec>> for FlowSet {
    fn from(flows: Vec<FlowSpec>) -> Self {
        FlowSet::Listed(flows)
    }
}

impl From<AllButSelf> for FlowSet {
    fn from(set: AllButSelf) -> Self {
        FlowSet::AllButSelf(set)
    }
}

/// A path through the switch graph, from the source's switch to the
/// destination's switch (inclusive).
pub type Path = Vec<SwitchId>;

pub use nocem_common::route::{GridRouter, RouteHop, RouteTable};

/// How virtual channels are assigned along computed paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VcPolicy {
    /// Every hop rides VC 0 — the original single-VC platform.
    #[default]
    SingleVc,
    /// Dateline scheme for rings and tori: a packet starts on VC 0 and
    /// switches to VC 1 from the first wrap-around hop of each
    /// dimension onward (the wrap hop itself already rides VC 1).
    /// Requires switches configured with at least 2 VCs whenever a
    /// path actually wraps; degenerates to [`VcPolicy::SingleVc`] on
    /// topologies without wrap-around links.
    Dateline,
}

/// The configured path alternatives of one flow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowPaths {
    /// The flow.
    pub spec: FlowSpec,
    /// 1 to k loop-free switch paths. The first path is the primary.
    pub paths: Vec<Path>,
}

/// Routing algorithm selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteAlgorithm {
    /// Single deterministic shortest path (BFS, lowest-id tie-break).
    Shortest,
    /// Up to `k` shortest loop-free paths (Yen's algorithm); paths
    /// whose table union would allow a routing cycle are dropped.
    KShortest(usize),
    /// Dimension-ordered X-then-Y routing; requires grid metadata.
    Xy,
    /// Dimension-ordered X-then-Y routing that takes the shorter
    /// direction around each dimension, using wrap-around links where
    /// they exist (tori). Requires grid metadata; ties break toward
    /// the direct (non-wrapping) direction. On a grid *without* wrap
    /// links only pairs whose shorter way is the direct one can route
    /// (the rest fail with [`TopologyError::InvalidPath`]). Pair with
    /// [`VcPolicy::Dateline`] and 2 VCs to keep the wrap-crossing
    /// paths deadlock-free.
    TorusXy,
}

/// The routing of a platform: per-switch sparse flow-keyed tables with
/// the paths and VC labels they were derived from, or — for
/// dimension-ordered routing on a complete grid — one [`GridRouter`]
/// and the flow set (a list, or a function of its endpoints), with no
/// table at all.
///
/// The value is immutable and shared: `clone()` is `O(1)`, so every
/// curve point, matrix cell and engine instance built from one
/// [`RoutingTables`] reuses the same memory.
#[derive(Debug, Clone)]
pub struct RoutingTables {
    inner: Arc<Tables>,
}

#[derive(Debug)]
struct Tables {
    /// `[switch] -> sparse table` (a flow has hops only at the switches
    /// its packets visit; see [`RouteTable`]), each shared with the
    /// switch built from it; empty under grid routing.
    table: Vec<Arc<RouteTable>>,
    /// The highest VC any hop uses.
    max_vc: u8,
    flows: Flows,
}

/// What a [`RoutingTables`] knows about its flows.
#[derive(Debug)]
enum Flows {
    /// Flow-keyed tables: the configured paths, retained.
    Paths {
        flows: Vec<FlowPaths>,
        /// `[flow][path][hop] -> VC` label of each inter-switch hop
        /// (`path.len() - 1` entries per path).
        vc_labels: Vec<Vec<Vec<VcId>>>,
    },
    /// Grid routing: the flows only; a flow's path is the router's
    /// walk from its source switch.
    Grid {
        specs: FlowSet,
        router: Arc<GridRouter>,
    },
}

/// What a switch without entries holds.
static NO_ENTRIES: RouteTable = RouteTable::new();

impl RoutingTables {
    fn new(table: Vec<RouteTable>, max_vc: u8, flows: Flows) -> Self {
        RoutingTables {
            inner: Arc::new(Tables {
                table: table.into_iter().map(Arc::new).collect(),
                max_vc,
                flows,
            }),
        }
    }

    /// Computes single-VC routing for `flows` over `topo` using `algo`
    /// (every hop on VC 0). Shorthand for [`RoutingTables::compute_with`]
    /// with [`VcPolicy::SingleVc`].
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError`] when a flow's endpoints have the wrong
    /// kind, no path exists, or (for the XY algorithms) the topology
    /// carries no grid metadata.
    pub fn compute(
        topo: &Topology,
        flows: &FlowSet,
        algo: RouteAlgorithm,
    ) -> Result<Self, TopologyError> {
        Self::compute_with(topo, flows, algo, VcPolicy::SingleVc)
    }

    /// Computes the routing of `flows` over `topo` using `algo`, with
    /// virtual channels per `policy`. The XY algorithms on a grid that
    /// has every link they can ask for yield a table-less value in
    /// `O(switches + flows)` — `O(switches)` for an implicit flow set,
    /// whose endpoints are checked once each and whose VC count follows
    /// from coordinates; everything else yields flow-keyed tables (see
    /// the module docs).
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError`] when a flow's endpoints have the wrong
    /// kind, no path exists, or (for the XY algorithms) the topology
    /// carries no grid metadata matching its switch count.
    pub fn compute_with(
        topo: &Topology,
        flows: &FlowSet,
        algo: RouteAlgorithm,
        policy: VcPolicy,
    ) -> Result<Self, TopologyError> {
        let no_route = |spec: &FlowSpec| TopologyError::NoRoute { flow: spec.flow };
        let wrap = match algo {
            RouteAlgorithm::Shortest => {
                return Self::compute_per_flow(topo, flows, policy, |spec, from, to| {
                    let path = shortest_path(topo, from, to).ok_or_else(|| no_route(spec))?;
                    Ok(vec![path])
                })
            }
            RouteAlgorithm::KShortest(k) => {
                return Self::compute_per_flow(topo, flows, policy, |spec, from, to| {
                    let all = k_shortest_paths(topo, from, to, k.max(1));
                    if all.is_empty() {
                        return Err(no_route(spec));
                    }
                    Ok(prune_to_acyclic(all))
                })
            }
            RouteAlgorithm::Xy => false,
            RouteAlgorithm::TorusXy => true,
        };
        let router = grid_router(topo, wrap, policy == VcPolicy::Dateline)?;
        if !router.is_total() {
            // Some link the algorithm may ask for is missing: only the
            // flows that need it must fail, so give each its own path
            // and let the table builder find the missing link.
            return Self::compute_per_flow(topo, flows, policy, |spec, _, _| {
                Ok(vec![router
                    .walk(spec.src, spec.dst)
                    .map(|(at, _)| at)
                    .collect()])
            });
        }
        let mut vc1 = false;
        match flows {
            FlowSet::Listed(flows) => {
                for spec in flows {
                    endpoints_switches(topo, spec)?;
                    vc1 |= router.uses_vc1(spec.src, spec.dst);
                }
            }
            FlowSet::AllButSelf(set) => {
                all_but_self_kinds(topo, set)?;
                vc1 = router.any_uses_vc1(set);
            }
        }
        Ok(Self::new(
            Vec::new(),
            u8::from(vc1),
            Flows::Grid {
                specs: flows.clone(),
                router: Arc::new(router),
            },
        ))
    }

    /// Flow-keyed tables from one path set per flow.
    fn compute_per_flow(
        topo: &Topology,
        flows: &FlowSet,
        policy: VcPolicy,
        paths_of: impl Fn(&FlowSpec, SwitchId, SwitchId) -> Result<Vec<Path>, TopologyError>,
    ) -> Result<Self, TopologyError> {
        let mut flow_paths = Vec::with_capacity(flows.len());
        for spec in flows.iter() {
            let (from, to) = endpoints_switches(topo, &spec)?;
            flow_paths.push(FlowPaths {
                spec,
                paths: paths_of(&spec, from, to)?,
            });
        }
        Self::from_paths_with(topo, flow_paths, policy)
    }

    /// Builds single-VC tables from explicitly given paths (every hop
    /// on VC 0).
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::InvalidPath`] as
    /// [`RoutingTables::from_paths_with`] does.
    pub fn from_paths(topo: &Topology, flows: Vec<FlowPaths>) -> Result<Self, TopologyError> {
        Self::from_paths_with(topo, flows, VcPolicy::SingleVc)
    }

    /// Builds flow-keyed tables from explicitly given paths, labelling
    /// hops with virtual channels per `policy`.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::InvalidPath`] if a flow id is not below
    /// the number of flows given or is given twice, or if a path does
    /// not start at the flow's source switch, does not end at its
    /// destination switch, revisits a switch, or uses a non-existent
    /// inter-switch connection.
    pub fn from_paths_with(
        topo: &Topology,
        flows: Vec<FlowPaths>,
        policy: VcPolicy,
    ) -> Result<Self, TopologyError> {
        let flow_count = flows.len();
        let mut table = vec![RouteTable::new(); topo.switch_count()];
        let mut vc_labels = vec![Vec::new(); flow_count];

        for fp in &flows {
            let spec = fp.spec;
            // Flow ids key the tables and the VC labels: each of
            // `0..flow_count` must be given exactly once.
            let reason = match vc_labels.get(spec.flow.index()) {
                Some(labels) if labels.is_empty() => None,
                Some(_) => Some("the flow is given more than once".to_owned()),
                None => Some(format!("flow id out of range for {flow_count} flows")),
            };
            if let Some(reason) = reason {
                return Err(TopologyError::InvalidPath {
                    flow: spec.flow,
                    reason,
                });
            }
            let (from, to) = endpoints_switches(topo, &spec)?;
            if fp.paths.is_empty() {
                return Err(TopologyError::NoRoute { flow: spec.flow });
            }
            for path in &fp.paths {
                validate_path(topo, spec.flow, path, from, to)?;
                let labels = match policy {
                    VcPolicy::SingleVc => vec![VcId::ZERO; path.len().saturating_sub(1)],
                    VcPolicy::Dateline => dateline_vcs(topo, path),
                };
                for (w, &vc) in path.windows(2).zip(&labels) {
                    let (port, _) =
                        topo.link_toward(w[0], w[1])
                            .ok_or_else(|| TopologyError::InvalidPath {
                                flow: spec.flow,
                                reason: format!("no link {} -> {}", w[0], w[1]),
                            })?;
                    table[w[0].index()].push_hop(spec.flow, RouteHop { port, vc });
                }
                // Ejection at the destination switch, always on VC 0:
                // receptors are VC-blind, so funnelling every packet
                // through one ejection VC keeps deliveries wormhole-
                // contiguous (no flit interleaving at the receptor).
                // Ejection links are pure sinks — no outgoing channel
                // dependencies — so this cannot create a cycle.
                let eject =
                    topo.ejection_port(to, spec.dst)
                        .ok_or_else(|| TopologyError::InvalidPath {
                            flow: spec.flow,
                            reason: format!("{} is not attached to {}", spec.dst, to),
                        })?;
                table[to.index()].push_hop(spec.flow, RouteHop::vc0(eject));
                vc_labels[spec.flow.index()].push(labels);
            }
        }
        let max_vc = table
            .iter()
            .filter_map(RouteTable::max_vc)
            .max()
            .unwrap_or(0);
        Ok(Self::new(table, max_vc, Flows::Paths { flows, vc_labels }))
    }

    /// The shared router when routing is arithmetic (dimension-ordered
    /// on a complete grid), `None` when it is held in flow-keyed
    /// tables.
    pub fn grid_router(&self) -> Option<&Arc<GridRouter>> {
        match &self.inner.flows {
            Flows::Paths { .. } => None,
            Flows::Grid { router, .. } => Some(router),
        }
    }

    /// The router and the flows it routes, under grid routing.
    pub(crate) fn grid(&self) -> Option<(&GridRouter, &FlowSet)> {
        match &self.inner.flows {
            Flows::Paths { .. } => None,
            Flows::Grid { specs, router } => Some((router, specs)),
        }
    }

    /// The admissible output hops of `flow` at switch `s`. Empty if
    /// the flow never visits `s` — or was never given to
    /// [`RoutingTables::compute_with`]. Borrowed from the tables when
    /// there are tables; under grid routing the flow is followed from
    /// its source switch (`O(path length)`).
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn lookup(&self, s: SwitchId, flow: FlowId) -> Cow<'_, [RouteHop]> {
        match &self.inner.flows {
            Flows::Paths { .. } => Cow::Borrowed(self.inner.table[s.index()].lookup(flow)),
            Flows::Grid { specs, router } => specs
                .get(flow)
                .and_then(|spec| router.walk(spec.src, spec.dst).find(|&(at, _)| at == s))
                .map_or(Cow::Borrowed(&[]), |(_, hop)| Cow::Owned(vec![hop])),
        }
    }

    /// The sparse per-switch table — empty at every switch under grid
    /// routing.
    pub fn switch_table(&self, s: SwitchId) -> &RouteTable {
        self.inner.table.get(s.index()).map_or(&NO_ENTRIES, |t| t)
    }

    /// The per-switch table as the switch models hold it: shared with
    /// this value (and every other switch built from it), never copied.
    pub fn shared_switch_table(&self, s: SwitchId) -> Arc<RouteTable> {
        self.inner.table.get(s.index()).cloned().unwrap_or_default()
    }

    /// Number of flows the routing was computed for.
    pub fn flow_count(&self) -> usize {
        match &self.inner.flows {
            Flows::Paths { flows, .. } => flows.len(),
            Flows::Grid { specs, .. } => specs.len(),
        }
    }

    /// The configured flows and their paths, in the order they were
    /// given. Flow-keyed tables lend the paths they retain; grid
    /// routing walks them out of the router on every call
    /// (`O(flows × path length)` — analyses call this once).
    pub fn flows(&self) -> Cow<'_, [FlowPaths]> {
        match &self.inner.flows {
            Flows::Paths { flows, .. } => Cow::Borrowed(flows),
            Flows::Grid { specs, router } => Cow::Owned(
                specs
                    .iter()
                    .map(|spec| FlowPaths {
                        spec,
                        paths: vec![router.walk(spec.src, spec.dst).map(|(at, _)| at).collect()],
                    })
                    .collect(),
            ),
        }
    }

    /// The VC labels of path `path_index` of `flow`, one per
    /// inter-switch hop.
    ///
    /// # Panics
    ///
    /// Panics if the flow or path index is out of range.
    pub fn path_vcs(&self, flow: FlowId, path_index: usize) -> Cow<'_, [VcId]> {
        match &self.inner.flows {
            Flows::Paths { vc_labels, .. } => Cow::Borrowed(&vc_labels[flow.index()][path_index]),
            Flows::Grid { specs, router } => {
                assert_eq!(path_index, 0, "grid routing is single-path");
                let spec = specs.get(flow).expect("flow is routed by this router");
                let mut vcs: Vec<VcId> = router
                    .walk(spec.src, spec.dst)
                    .map(|(_, hop)| hop.vc)
                    .collect();
                vcs.pop(); // the ejection hop is not an inter-switch hop
                Cow::Owned(vcs)
            }
        }
    }

    /// The highest VC any hop of any flow uses (0 for single-VC routing).
    /// Switches must be configured with at least `max_vc() + 1` VCs.
    pub fn max_vc(&self) -> u8 {
        self.inner.max_vc
    }

    /// The maximum number of alternatives any flow has at any switch
    /// — 1 for deterministic routing, 2 for the paper's dual routing.
    pub fn max_alternatives(&self) -> usize {
        match &self.inner.flows {
            Flows::Paths { .. } => self
                .inner
                .table
                .iter()
                .map(|table| table.max_alternatives())
                .max()
                .unwrap_or(0),
            Flows::Grid { specs, .. } => usize::from(!specs.is_empty()),
        }
    }
}

fn endpoints_switches(
    topo: &Topology,
    spec: &FlowSpec,
) -> Result<(SwitchId, SwitchId), TopologyError> {
    let src = topo.endpoint(spec.src);
    if src.kind != EndpointKind::Generator {
        return Err(TopologyError::WrongEndpointKind {
            endpoint: spec.src,
            expected: EndpointKind::Generator,
        });
    }
    let dst = topo.endpoint(spec.dst);
    if dst.kind != EndpointKind::Receptor {
        return Err(TopologyError::WrongEndpointKind {
            endpoint: spec.dst,
            expected: EndpointKind::Receptor,
        });
    }
    Ok((src.switch, dst.switch))
}

/// [`endpoints_switches`] over an implicit set in `O(nodes)`: every
/// source and every sink is looked at once, in the order a walk over
/// the flows would first meet them — flow 0 is `sources[0] →
/// sinks[1]`, and only the second row reaches `sinks[0]` — so the
/// error, if any, is the one the per-flow check reports.
fn all_but_self_kinds(topo: &Topology, set: &AllButSelf) -> Result<(), TopologyError> {
    if set.is_empty() {
        return Ok(());
    }
    let of_kind = |endpoint: EndpointId, expected: EndpointKind| {
        if topo.endpoint(endpoint).kind == expected {
            Ok(())
        } else {
            Err(TopologyError::WrongEndpointKind { endpoint, expected })
        }
    };
    let (sources, sinks) = (set.sources(), set.sinks());
    of_kind(sources[0], EndpointKind::Generator)?;
    for &sink in &sinks[1..] {
        of_kind(sink, EndpointKind::Receptor)?;
    }
    of_kind(sources[1], EndpointKind::Generator)?;
    of_kind(sinks[0], EndpointKind::Receptor)?;
    for &source in &sources[2..] {
        of_kind(source, EndpointKind::Generator)?;
    }
    Ok(())
}

fn validate_path(
    topo: &Topology,
    flow: FlowId,
    path: &Path,
    from: SwitchId,
    to: SwitchId,
) -> Result<(), TopologyError> {
    if path.first() != Some(&from) {
        return Err(TopologyError::InvalidPath {
            flow,
            reason: format!("path must start at {from}"),
        });
    }
    if path.last() != Some(&to) {
        return Err(TopologyError::InvalidPath {
            flow,
            reason: format!("path must end at {to}"),
        });
    }
    let mut seen = HashSet::new();
    for s in path {
        if s.index() >= topo.switch_count() {
            return Err(TopologyError::InvalidPath {
                flow,
                reason: format!("unknown switch {s}"),
            });
        }
        if !seen.insert(*s) {
            return Err(TopologyError::InvalidPath {
                flow,
                reason: format!("path revisits {s}"),
            });
        }
    }
    Ok(())
}

/// Deterministic BFS shortest path over inter-switch links, avoiding
/// `banned` switches (used by Yen's spur computation). Tie-breaks
/// toward the lowest switch id.
fn shortest_path_avoiding(
    topo: &Topology,
    from: SwitchId,
    to: SwitchId,
    banned_nodes: &HashSet<SwitchId>,
    banned_edges: &HashSet<(SwitchId, SwitchId)>,
) -> Option<Path> {
    if banned_nodes.contains(&from) {
        return None;
    }
    let n = topo.switch_count();
    let mut prev: Vec<Option<SwitchId>> = vec![None; n];
    let mut visited = vec![false; n];
    visited[from.index()] = true;
    let mut queue = std::collections::VecDeque::from([from]);
    while let Some(u) = queue.pop_front() {
        if u == to {
            break;
        }
        // Sort neighbours for determinism.
        let mut next: Vec<SwitchId> = topo.switch_neighbors(u).map(|(_, _, v, _)| v).collect();
        next.sort();
        next.dedup();
        for v in next {
            if visited[v.index()] || banned_nodes.contains(&v) || banned_edges.contains(&(u, v)) {
                continue;
            }
            visited[v.index()] = true;
            prev[v.index()] = Some(u);
            queue.push_back(v);
        }
    }
    if !visited[to.index()] {
        return None;
    }
    let mut path = vec![to];
    let mut cur = to;
    while cur != from {
        cur = prev[cur.index()].expect("visited node has predecessor");
        path.push(cur);
    }
    path.reverse();
    Some(path)
}

/// Deterministic BFS shortest path from `from` to `to`.
pub fn shortest_path(topo: &Topology, from: SwitchId, to: SwitchId) -> Option<Path> {
    shortest_path_avoiding(topo, from, to, &HashSet::new(), &HashSet::new())
}

/// Yen's algorithm: up to `k` loop-free paths in non-decreasing length
/// order (deterministic).
pub fn k_shortest_paths(topo: &Topology, from: SwitchId, to: SwitchId, k: usize) -> Vec<Path> {
    let Some(first) = shortest_path(topo, from, to) else {
        return Vec::new();
    };
    let mut found = vec![first];
    // Candidate set ordered by (length, path) for determinism.
    let mut candidates: BinaryHeap<std::cmp::Reverse<(usize, Path)>> = BinaryHeap::new();

    while found.len() < k {
        let last = found.last().expect("at least one found path").clone();
        for spur_idx in 0..last.len() - 1 {
            let spur_node = last[spur_idx];
            let root: Vec<SwitchId> = last[..=spur_idx].to_vec();

            let mut banned_edges = HashSet::new();
            for p in &found {
                if p.len() > spur_idx && p[..=spur_idx] == root[..] {
                    if let Some(&next) = p.get(spur_idx + 1) {
                        banned_edges.insert((spur_node, next));
                    }
                }
            }
            let banned_nodes: HashSet<SwitchId> = root[..spur_idx].iter().copied().collect();

            if let Some(spur) =
                shortest_path_avoiding(topo, spur_node, to, &banned_nodes, &banned_edges)
            {
                let mut total = root.clone();
                total.extend_from_slice(&spur[1..]);
                let cand = std::cmp::Reverse((total.len(), total));
                if !candidates.iter().any(|c| c == &cand) && !found.contains(&cand.0 .1) {
                    candidates.push(cand);
                }
            }
        }
        match candidates.pop() {
            Some(std::cmp::Reverse((_, path))) => found.push(path),
            None => break,
        }
    }
    found
}

/// Greedily keeps paths whose union of per-switch next-hops stays
/// acyclic, so the resulting table can never misroute a flit in a
/// loop. The primary (shortest) path is always kept.
fn prune_to_acyclic(paths: Vec<Path>) -> Vec<Path> {
    let mut kept: Vec<Path> = Vec::new();
    let mut edges: HashSet<(SwitchId, SwitchId)> = HashSet::new();
    for path in paths {
        let mut trial = edges.clone();
        for w in path.windows(2) {
            trial.insert((w[0], w[1]));
        }
        if union_is_acyclic(&trial) || kept.is_empty() {
            edges = trial;
            kept.push(path);
        }
    }
    kept
}

fn union_is_acyclic(edges: &HashSet<(SwitchId, SwitchId)>) -> bool {
    // Kahn's algorithm over the nodes that occur in the edge set.
    let mut nodes: HashSet<SwitchId> = HashSet::new();
    for &(u, v) in edges {
        nodes.insert(u);
        nodes.insert(v);
    }
    let mut indeg: std::collections::HashMap<SwitchId, usize> =
        nodes.iter().map(|&n| (n, 0)).collect();
    for &(_, v) in edges {
        *indeg.get_mut(&v).expect("node present") += 1;
    }
    let mut queue: Vec<SwitchId> = indeg
        .iter()
        .filter(|(_, &d)| d == 0)
        .map(|(&n, _)| n)
        .collect();
    let mut removed = 0;
    while let Some(u) = queue.pop() {
        removed += 1;
        for &(a, b) in edges {
            if a == u {
                let d = indeg.get_mut(&b).expect("node present");
                *d -= 1;
                if *d == 0 {
                    queue.push(b);
                }
            }
        }
    }
    removed == nodes.len()
}

/// The dimension-ordered router of a grid topology: its links in
/// ascending (switch, output port) order, its endpoints in id order.
///
/// # Errors
///
/// Returns [`TopologyError::GridRequired`] when `topo` carries no grid
/// metadata, or metadata that does not describe its switches.
fn grid_router(topo: &Topology, wrap: bool, dateline: bool) -> Result<GridRouter, TopologyError> {
    let grid = topo
        .grid()
        .filter(|g| g.width as usize * g.height as usize == topo.switch_count())
        .ok_or(TopologyError::GridRequired)?;
    let mut router = GridRouter::new(grid.width, grid.height, wrap, dateline);
    for s in topo.switch_ids() {
        for (out, _, next, inp) in topo.switch_neighbors(s) {
            router.link(s, out, next, inp);
        }
    }
    for e in topo.endpoint_ids() {
        let switch = topo.endpoint(e).switch;
        router.endpoint(switch, topo.ejection_port(switch, e));
    }
    Ok(router)
}

/// The minimal path around a ring of `n` switches whose ids form the
/// cycle `0 ↔ 1 ↔ … ↔ n-1 ↔ 0`, from `from` to `to` (ties break
/// toward ascending ids). Pair with [`VcPolicy::Dateline`]: minimal
/// ring paths cross the wrap-around `0 ↔ n-1` pair whenever that arc
/// is shorter.
///
/// # Panics
///
/// Panics if `from` or `to` is not a valid switch of an `n`-ring.
pub fn ring_minimal_path(n: u32, from: SwitchId, to: SwitchId) -> Path {
    assert!(from.raw() < n && to.raw() < n, "switch outside the ring");
    let fwd = (to.raw() + n - from.raw()) % n;
    let bwd = (from.raw() + n - to.raw()) % n;
    if fwd <= bwd {
        (0..=fwd)
            .map(|k| SwitchId::new((from.raw() + k) % n))
            .collect()
    } else {
        (0..=bwd)
            .map(|k| SwitchId::new((from.raw() + n - k) % n))
            .collect()
    }
}

/// Labels the hops of `path` with dateline virtual channels: VC 0
/// until the path crosses a wrap-around link, VC 1 from that hop
/// onward, tracked independently per grid dimension (dimension-ordered
/// torus paths wrap at most once per dimension, ring paths at most
/// once overall).
///
/// Wrap-around hops are recognized on grids by
/// [`GridInfo::is_wrap_hop`](crate::graph::GridInfo::is_wrap_hop)
/// (coordinate distance above one in the travelling dimension) and on
/// ring-shaped topologies
/// ([`Topology::is_switch_ring`]) by switch-id distance above one. On
/// every other topology no hop is a wrap hop, so every hop labels
/// VC 0 — which is what makes [`VcPolicy::Dateline`] safe to apply
/// everywhere (star or irregular topologies with non-adjacent switch
/// ids on a hop are *not* misread as wrapping).
pub fn dateline_vcs(topo: &Topology, path: &[SwitchId]) -> Vec<VcId> {
    let ring = topo.grid().is_none() && topo.is_switch_ring();
    let mut crossed_x = false;
    let mut crossed_y = false;
    let mut labels = Vec::with_capacity(path.len().saturating_sub(1));
    for w in path.windows(2) {
        let crossed = if let Some(grid) = topo.grid() {
            let (_, ay) = grid.coords(w[0]);
            let (_, by) = grid.coords(w[1]);
            if ay == by {
                crossed_x |= grid.is_wrap_hop(w[0], w[1]);
                crossed_x
            } else {
                crossed_y |= grid.is_wrap_hop(w[0], w[1]);
                crossed_y
            }
        } else {
            crossed_x |= ring && w[0].raw().abs_diff(w[1].raw()) > 1;
            crossed_x
        };
        labels.push(VcId::new(u8::from(crossed)));
    }
    labels
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;
    use crate::graph::TopologyBuilder;

    fn line3() -> Topology {
        // s0 <-> s1 <-> s2, TG on s0, TR on s2.
        let mut b = TopologyBuilder::new("line3");
        let s = b.switches(3);
        b.connect_bidir(s[0], s[1]);
        b.connect_bidir(s[1], s[2]);
        b.generator(s[0]);
        b.receptor(s[2]);
        b.build().unwrap()
    }

    #[test]
    fn one_to_one_flows() {
        let t = line3();
        let flows = FlowSpec::one_to_one(&t).unwrap();
        assert_eq!(flows.len(), 1);
        assert_eq!(flows[0].flow, FlowId::new(0));
    }

    #[test]
    fn one_to_one_rejects_mismatch() {
        let mut b = TopologyBuilder::new("t");
        let s0 = b.switch();
        let s1 = b.switch();
        b.connect_bidir(s0, s1);
        b.generator(s0);
        b.generator(s0);
        b.receptor(s1);
        let t = b.build().unwrap();
        assert!(matches!(
            FlowSpec::one_to_one(&t),
            Err(TopologyError::FlowMismatch { .. })
        ));
    }

    #[test]
    fn all_pairs_counts() {
        let t = builders::mesh(2, 2).unwrap();
        let flows = FlowSpec::all_pairs(&t);
        assert_eq!(flows.len(), 16); // 4 TG x 4 TR
    }

    #[test]
    fn shortest_path_on_line() {
        let t = line3();
        let p = shortest_path(&t, SwitchId::new(0), SwitchId::new(2)).unwrap();
        assert_eq!(
            p,
            vec![SwitchId::new(0), SwitchId::new(1), SwitchId::new(2)]
        );
    }

    #[test]
    fn shortest_routing_table() {
        let t = line3();
        let flows = FlowSpec::one_to_one(&t).unwrap().into();
        let rt = RoutingTables::compute(&t, &flows, RouteAlgorithm::Shortest).unwrap();
        assert_eq!(rt.flow_count(), 1);
        assert_eq!(rt.max_alternatives(), 1);
        // Flow must have an entry at every switch on the path.
        for s in [0u32, 1, 2] {
            assert_eq!(rt.lookup(SwitchId::new(s), FlowId::new(0)).len(), 1);
        }
    }

    #[test]
    fn k_shortest_finds_ring_alternatives() {
        // 4-ring: two disjoint paths between opposite corners.
        let t = builders::ring(4).unwrap();
        let paths = k_shortest_paths(&t, SwitchId::new(0), SwitchId::new(2), 3);
        assert!(paths.len() >= 2, "expected >= 2 paths, got {paths:?}");
        assert_eq!(paths[0].len(), 3);
        // All returned paths are loop-free and correctly terminated.
        for p in &paths {
            assert_eq!(p.first(), Some(&SwitchId::new(0)));
            assert_eq!(p.last(), Some(&SwitchId::new(2)));
            let set: HashSet<_> = p.iter().collect();
            assert_eq!(set.len(), p.len());
        }
    }

    #[test]
    fn k_shortest_tables_have_two_alternatives() {
        // one_to_one would pair TG_i with TR_i on the *same* switch, so
        // build a cross-ring flow explicitly: switch 0 -> switch 2 has
        // two equal-length routes around a 4-ring.
        let t = builders::ring(4).unwrap();
        let cross = FlowSpec {
            flow: FlowId::new(0),
            src: t.generators()[0],
            dst: t.receptors()[2],
        };
        let rt =
            RoutingTables::compute(&t, &vec![cross].into(), RouteAlgorithm::KShortest(2)).unwrap();
        assert!(rt.max_alternatives() >= 2, "ring should offer 2 routes");
    }

    #[test]
    fn xy_routing_on_mesh() {
        let t = builders::mesh(3, 3).unwrap();
        let flows = FlowSpec::one_to_one(&t).unwrap().into();
        let rt = RoutingTables::compute(&t, &flows, RouteAlgorithm::Xy).unwrap();
        assert_eq!(rt.max_alternatives(), 1, "XY is deterministic");
    }

    #[test]
    fn xy_requires_grid() {
        let t = line3(); // no grid metadata
        let flows = FlowSpec::one_to_one(&t).unwrap().into();
        assert!(matches!(
            RoutingTables::compute(&t, &flows, RouteAlgorithm::Xy),
            Err(TopologyError::GridRequired)
        ));
    }

    #[test]
    fn explicit_path_validation() {
        let t = line3();
        let flows = FlowSpec::one_to_one(&t).unwrap();
        let bad = vec![FlowPaths {
            spec: flows[0],
            paths: vec![vec![SwitchId::new(1), SwitchId::new(2)]], // wrong start
        }];
        assert!(matches!(
            RoutingTables::from_paths(&t, bad),
            Err(TopologyError::InvalidPath { .. })
        ));
    }

    #[test]
    fn explicit_path_rejects_revisit() {
        let t = builders::ring(4).unwrap();
        let flows = FlowSpec::one_to_one(&t).unwrap();
        let spec = flows[0];
        let from = t.endpoint(spec.src).switch;
        let to = t.endpoint(spec.dst).switch;
        let looping = vec![FlowPaths {
            spec,
            paths: vec![vec![from, from, to]],
        }];
        let err = RoutingTables::from_paths(&t, looping).unwrap_err();
        assert!(err.to_string().contains("revisits"));
    }

    #[test]
    fn wrong_endpoint_kinds_rejected() {
        let t = line3();
        let tg = t.generators()[0];
        let tr = t.receptors()[0];
        let swapped = FlowSpec {
            flow: FlowId::new(0),
            src: tr,
            dst: tg,
        };
        assert!(matches!(
            RoutingTables::compute(&t, &vec![swapped].into(), RouteAlgorithm::Shortest),
            Err(TopologyError::WrongEndpointKind { .. })
        ));
    }

    #[test]
    fn ring_minimal_takes_the_shorter_arc() {
        let s = SwitchId::new;
        // Direct arc when it is shorter.
        assert_eq!(ring_minimal_path(8, s(1), s(3)), vec![s(1), s(2), s(3)]);
        // Wrap-around arc when that is shorter.
        assert_eq!(ring_minimal_path(8, s(1), s(7)), vec![s(1), s(0), s(7)]);
        assert_eq!(ring_minimal_path(8, s(7), s(1)), vec![s(7), s(0), s(1)]);
        // Tie (opposite side) breaks toward ascending ids.
        assert_eq!(
            ring_minimal_path(4, s(0), s(2)),
            vec![s(0), s(1), s(2)],
            "tie breaks forward"
        );
        // Degenerate: already there.
        assert_eq!(ring_minimal_path(5, s(2), s(2)), vec![s(2)]);
    }

    #[test]
    fn torus_xy_wraps_when_shorter() {
        let t = builders::torus(4, 4).unwrap();
        let grid = t.grid().unwrap();
        let router = grid_router(&t, true, false).unwrap();
        let path = |from: SwitchId, to: SwitchId| -> Path {
            let (src, dst) = (t.generator_at(from).unwrap(), t.receptor_at(to).unwrap());
            router.walk(src, dst).map(|(at, _)| at).collect()
        };
        // x: 0 -> 3 is one wrap hop, not three direct hops.
        let p = path(SwitchId::new(0), SwitchId::new(3));
        assert_eq!(p, vec![SwitchId::new(0), SwitchId::new(3)]);
        // Distance-2 ties go direct.
        let p = path(SwitchId::new(0), SwitchId::new(2));
        assert_eq!(
            p,
            vec![SwitchId::new(0), SwitchId::new(1), SwitchId::new(2)]
        );
        // Both dimensions wrap: (0,0) -> (3,3) is two hops.
        let p = path(grid.at(0, 0), grid.at(3, 3));
        assert_eq!(p, vec![grid.at(0, 0), grid.at(3, 0), grid.at(3, 3)]);
    }

    #[test]
    fn torus_xy_reduces_to_xy_on_width_two_dimensions() {
        // A 2-wide torus has no wrap links; the direct direction must
        // be taken even though "wrapping" would tie.
        let t = builders::torus(2, 3).unwrap();
        let grid = t.grid().unwrap();
        let router = grid_router(&t, true, false).unwrap();
        assert!(router.is_total(), "no wrap link is asked for across 2");
        let path = |from: SwitchId, to: SwitchId| -> Path {
            let (src, dst) = (t.generator_at(from).unwrap(), t.receptor_at(to).unwrap());
            router.walk(src, dst).map(|(at, _)| at).collect()
        };
        let p = path(grid.at(0, 0), grid.at(1, 0));
        assert_eq!(p, vec![grid.at(0, 0), grid.at(1, 0)]);
        let p = path(grid.at(1, 0), grid.at(0, 0));
        assert_eq!(p, vec![grid.at(1, 0), grid.at(0, 0)]);
    }

    #[test]
    fn dateline_labels_flip_to_vc1_at_the_wrap_hop() {
        let t = builders::ring(6).unwrap();
        let s = SwitchId::new;
        // 4 -> 5 -> 0 -> 1: the 5->0 hop crosses the dateline; it and
        // everything after ride VC 1.
        let labels = dateline_vcs(&t, &[s(4), s(5), s(0), s(1)]);
        assert_eq!(
            labels,
            vec![VcId::new(0), VcId::new(1), VcId::new(1)],
            "VC 1 from the wrap hop onward"
        );
        // A path that never wraps stays on VC 0.
        let labels = dateline_vcs(&t, &[s(1), s(2), s(3)]);
        assert_eq!(labels, vec![VcId::ZERO; 2]);
    }

    #[test]
    fn dateline_is_inert_off_grid_off_ring() {
        // A star hops between non-adjacent switch ids (leaf 1 -> hub 0
        // -> leaf 3), which must NOT be mistaken for a wrap-around
        // crossing: Dateline on an arbitrary topology labels VC 0
        // everywhere and stays valid on a single-VC platform.
        let t = builders::star(4).unwrap();
        let s = SwitchId::new;
        let labels = dateline_vcs(&t, &[s(1), s(0), s(3)]);
        assert_eq!(labels, vec![VcId::ZERO; 2]);
    }

    #[test]
    fn dateline_labels_reset_per_torus_dimension() {
        let t = builders::torus(4, 4).unwrap();
        let grid = t.grid().unwrap().clone();
        // x wraps (3,0 -> 0,0), then y goes direct: the y segment
        // starts back on VC 0 (per-dimension datelines).
        let path = vec![grid.at(2, 0), grid.at(3, 0), grid.at(0, 0), grid.at(0, 1)];
        let labels = dateline_vcs(&t, &path);
        assert_eq!(labels, vec![VcId::new(0), VcId::new(1), VcId::new(0)]);
    }

    #[test]
    fn torus_xy_tables_carry_vc_labels() {
        let t = builders::torus(4, 4).unwrap();
        let flows = FlowSpec::all_pairs(&t).into();
        let rt =
            RoutingTables::compute_with(&t, &flows, RouteAlgorithm::TorusXy, VcPolicy::Dateline)
                .unwrap();
        assert_eq!(rt.max_vc(), 1, "dateline uses exactly two VCs");
        // Single-VC labelling of the same paths reports max VC 0.
        let rt0 =
            RoutingTables::compute_with(&t, &flows, RouteAlgorithm::TorusXy, VcPolicy::SingleVc)
                .unwrap();
        assert_eq!(rt0.max_vc(), 0);
        // Labels are exposed per path, one per hop.
        for fp in rt.flows().iter() {
            for (pi, path) in fp.paths.iter().enumerate() {
                assert_eq!(rt.path_vcs(fp.spec.flow, pi).len(), path.len() - 1);
            }
        }
    }

    #[test]
    fn union_acyclicity_helper() {
        let mut edges = HashSet::new();
        edges.insert((SwitchId::new(0), SwitchId::new(1)));
        edges.insert((SwitchId::new(1), SwitchId::new(2)));
        assert!(union_is_acyclic(&edges));
        edges.insert((SwitchId::new(2), SwitchId::new(0)));
        assert!(!union_is_acyclic(&edges));
    }
}
