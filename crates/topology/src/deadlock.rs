//! Deadlock-freedom analysis of a routing configuration.
//!
//! Wormhole networks deadlock when the **channel dependency graph**
//! (CDG) contains a cycle: a set of worms each holding a channel the
//! next one needs. With virtual channels the unit of allocation is a
//! *virtual* channel, so the CDG has one node per `(link, VC)` pair; a
//! routing path that enters a switch on channel `a` and leaves on
//! channel `b` contributes the edge `a -> b`. A single-VC platform is
//! the special case where every node sits on VC 0.
//!
//! [`check_routing_deadlock_freedom`] builds the per-VC CDG of a
//! [`RoutingTables`] — from its VC-labelled paths when it holds
//! flow-keyed tables, by pushing sets of destinations through the
//! routing function, 64 at a time, when routing is arithmetic — and is
//! the check the platform compiler runs; explicit paths are checked by
//! building their tables first ([`RoutingTables::from_paths`]). Nodes
//! are dense `link × VC` indices and the first cycle found is reported.
//! Injection links have no incoming and ejection links no outgoing
//! dependencies, so neither can ever be part of a cycle; the
//! path-based builders include both to complete the chains, the grid
//! walk starts at the first inter-switch hop.

use crate::graph::{LinkEnd, Topology};
use crate::routing::{FlowPaths, FlowSet, GridRouter, RoutingTables};
use nocem_common::ids::{EndpointId, LinkId, SwitchId, VcId};
use nocem_common::route::GridBlock;

/// A cyclic channel dependency that could deadlock the network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadlockCycle {
    /// The links forming the cycle, in dependency order.
    pub links: Vec<LinkId>,
    /// The virtual channel of each link in the cycle, parallel to
    /// `links`.
    pub vcs: Vec<VcId>,
}

impl std::fmt::Display for DeadlockCycle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "channel dependency cycle:")?;
        for (l, vc) in self.links.iter().zip(&self.vcs) {
            write!(f, " {l}/{vc}")?;
        }
        Ok(())
    }
}

impl std::error::Error for DeadlockCycle {}

/// Builds the per-VC channel dependency graph of routing tables and
/// verifies it is acyclic — the check that validates the dateline
/// scheme: the same physical ring cycle is broken because its links
/// are visited on different VCs.
///
/// Flow-keyed tables contribute one dependency chain per VC-labelled
/// path. Grid routing is walked: one pass per block of 64
/// destinations, each carrying, per channel, the set of destinations
/// some flow crosses it toward, and adding the dependency of an
/// arrival channel on every channel the router continues on for some
/// of them — the same edges as the per-flow chains (every destination
/// in a channel's set got there along some flow's path, so verdicts
/// are exact for sparse flow sets too; the crate's tests hold the two
/// graphs equal) in `O(switches × destinations / 64)` word operations
/// rather than one walk per flow. An implicit flow set seeds the passes
/// straight off its endpoint lists, a listed one from its flows
/// grouped by destination.
///
/// # Errors
///
/// Returns the first [`DeadlockCycle`] found, if any, with both the
/// links and their VCs.
///
/// # Panics
///
/// Panics if a path references a connection that does not exist in
/// `topo` (a configuration-construction bug).
///
/// # Examples
///
/// ```
/// use nocem_topology::builders::paper_setup;
/// use nocem_topology::deadlock::check_routing_deadlock_freedom;
/// use nocem_topology::routing::RoutingTables;
///
/// let p = paper_setup();
/// // Both routing configurations of the paper setup are deadlock-free.
/// for paths in [&p.primary_paths, &p.dual_paths] {
///     let tables = RoutingTables::from_paths(&p.topology, paths.clone())?;
///     check_routing_deadlock_freedom(&p.topology, &tables)?;
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn check_routing_deadlock_freedom(
    topo: &Topology,
    tables: &RoutingTables,
) -> Result<(), DeadlockCycle> {
    let mut cdg = Cdg::new(topo, usize::from(tables.max_vc()) + 1);
    match tables.grid() {
        None => {
            for fp in tables.flows().iter() {
                for (pi, path) in fp.paths.iter().enumerate() {
                    cdg.chain(topo, fp, path, &tables.path_vcs(fp.spec.flow, pi));
                }
            }
        }
        Some((router, flows)) => cdg.walk_grid(topo, router, flows),
    }
    cdg.check()
}

/// A channel dependency graph over dense `link × VC` node indices.
struct Cdg {
    vcs: usize,
    /// `[node] -> successors`, duplicate-free (a channel has at most
    /// `outputs × VCs` of them, so membership is a short scan).
    succ: Vec<Vec<u32>>,
}

impl Cdg {
    fn new(topo: &Topology, vcs: usize) -> Self {
        Cdg {
            vcs,
            succ: vec![Vec::new(); topo.link_count() * vcs],
        }
    }

    fn node(&self, link: LinkId, vc: VcId) -> u32 {
        (link.index() * self.vcs + vc.index()) as u32
    }

    /// The `(link, VC)` behind a node index.
    fn channel(&self, node: u32) -> (LinkId, VcId) {
        let node = node as usize;
        (
            LinkId::new((node / self.vcs) as u32),
            VcId::new((node % self.vcs) as u8),
        )
    }

    fn edge(&mut self, from: u32, to: u32) {
        let succ = &mut self.succ[from as usize];
        if !succ.contains(&to) {
            succ.push(to);
        }
    }

    /// Adds the dependencies of grid-routed `flows`, 64 destinations
    /// per pass: see [`BlockWalk`]. An implicit set seeds each block
    /// from its two endpoint lists (a source sends to every sink but
    /// the one at its own index), a list from its flows grouped by
    /// destination — either way nothing is followed pair by pair.
    fn walk_grid(&mut self, topo: &Topology, router: &GridRouter, flows: &FlowSet) {
        let channels = self.succ.len();
        let mut walk = BlockWalk {
            cdg: self,
            topo,
            router,
            block: GridBlock::default(),
            reach: vec![0; channels],
            pending: vec![0; channels],
            queue: Vec::new(),
            onward: vec![[UNKNOWN; 4]; channels],
        };
        match flows {
            FlowSet::AllButSelf(set) => {
                for (b, sinks) in set.sinks().chunks(64).enumerate() {
                    let all = u64::MAX >> (64 - sinks.len());
                    let seeds = set.sources().iter().enumerate().map(|(s, &src)| {
                        let own = s.checked_sub(64 * b).filter(|&i| i < 64);
                        (src, all & !own.map_or(0, |i| 1 << i))
                    });
                    walk.block(sinks, seeds);
                }
            }
            FlowSet::Listed(_) => {
                let (mut dsts, mut seeds) = (Vec::with_capacity(64), Vec::new());
                flows.for_each_by_destination(|src, dst| {
                    if dsts.last() != Some(&dst) {
                        if dsts.len() == 64 {
                            walk.block(&dsts, seeds.drain(..));
                            dsts.clear();
                        }
                        dsts.push(dst);
                    }
                    seeds.push((src, 1 << (dsts.len() - 1)));
                });
                walk.block(&dsts, seeds.drain(..));
            }
        }
    }

    /// Adds the dependency chain of one path: injection link (VC 0,
    /// the NI's fixed VC), every hop on its label (`labels` has one
    /// per inter-switch hop), ejection link (always VC 0: the receptor
    /// is VC-blind, so packets serialize into it).
    fn chain(&mut self, topo: &Topology, fp: &FlowPaths, path: &[SwitchId], labels: &[VcId]) {
        let mut prev = self.node(topo.endpoint(fp.spec.src).link, VcId::ZERO);
        for (w, &vc) in path.windows(2).zip(labels) {
            let (_, link) = topo
                .link_toward(w[0], w[1])
                .expect("a path hops along links");
            let channel = self.node(link, vc);
            self.edge(prev, channel);
            prev = channel;
        }
        self.edge(prev, self.node(topo.endpoint(fp.spec.dst).link, VcId::ZERO));
    }

    /// Iterative three-colour DFS, deterministic: nodes and successors
    /// are visited in ascending `(link, VC)` order.
    fn check(mut self) -> Result<(), DeadlockCycle> {
        for succ in &mut self.succ {
            succ.sort_unstable();
        }
        const WHITE: u8 = 0;
        const GREY: u8 = 1;
        const BLACK: u8 = 2;
        let mut color = vec![WHITE; self.succ.len()];
        // (node, index of its next successor to visit).
        let mut stack: Vec<(u32, usize)> = Vec::new();
        for start in 0..self.succ.len() as u32 {
            if color[start as usize] != WHITE {
                continue;
            }
            color[start as usize] = GREY;
            stack.push((start, 0));
            while let Some((node, idx)) = stack.last_mut() {
                let Some(&next) = self.succ[*node as usize].get(*idx) else {
                    color[*node as usize] = BLACK;
                    stack.pop();
                    continue;
                };
                *idx += 1;
                match color[next as usize] {
                    WHITE => {
                        color[next as usize] = GREY;
                        stack.push((next, 0));
                    }
                    GREY => {
                        // A grey node is on the stack: the cycle is
                        // the stack from there up.
                        let pos = stack
                            .iter()
                            .position(|&(n, _)| n == next)
                            .expect("grey node is on the stack");
                        let (links, vcs) =
                            stack[pos..].iter().map(|&(n, _)| self.channel(n)).unzip();
                        return Err(DeadlockCycle { links, vcs });
                    }
                    _ => {}
                }
            }
        }
        Ok(())
    }
}

/// "Not computed yet" in [`BlockWalk::onward`].
const UNKNOWN: u32 = u32::MAX;

/// The grid walk of [`Cdg::walk_grid`]: instead of following every
/// flow, it pushes *sets of destinations* across channels, one `u64`
/// of up to 64 destination bits at a time.
///
/// It rests on what a [`GridRouter`] hop depends on. The **direction**
/// is a function of the switch's and the destination's coordinates, so
/// per block a table per column and row ([`GridRouter::sort_block`])
/// splits any set of destinations at any switch five ways in a few
/// ANDs. The **VC** is a function of the edge crossed and of the
/// arrival `(input port, input VC)` — of the channel the flit came in
/// on — and never of the destination. So everything a channel's flits
/// do next is decided by the channel and the destination bit:
/// `reach[channel]` collects the destinations some flow crosses the
/// channel toward, every source seeds its injection channel, and a
/// worklist carries newly reached bits across each channel they
/// arrived on, adding the edge `arrival → onward` wherever a
/// direction's share of them is non-empty — unless the arrival channel
/// is an injection link, which has no predecessor to depend on it (the
/// grid walk starts at the first inter-switch hop). **Ejection** is the
/// one hop whose port is the destination's own, so its edge is added
/// per destination bit. The edges are exactly those of the per-flow
/// chains — every bit in `reach` got there along some flow's path —
/// for implicit and listed sets alike, in
/// `O(switches × destinations / 64)` word operations and four words
/// per channel.
struct BlockWalk<'a> {
    cdg: &'a mut Cdg,
    topo: &'a Topology,
    router: &'a GridRouter,
    block: GridBlock,
    /// Per channel: the destinations of this block some flow takes the
    /// channel toward.
    reach: Vec<u64>,
    /// Per channel: the part of `reach` not yet carried onward.
    pending: Vec<u64>,
    /// The channels with `pending` bits, first in first out.
    queue: Vec<u32>,
    /// Per channel and direction: the channel a flit that arrived on
    /// the one continues on in the other, [`UNKNOWN`] until some
    /// destination goes that way — which is also when the edge between
    /// the two is added, once for all blocks.
    onward: Vec<[u32; 4]>,
}

impl BlockWalk<'_> {
    /// One pass: the dependencies of every flow toward `dsts` (at most
    /// 64), `seeds` naming for each source the bits of the destinations
    /// it sends to.
    fn block(&mut self, dsts: &[EndpointId], seeds: impl Iterator<Item = (EndpointId, u64)>) {
        self.router.sort_block(dsts, &mut self.block);
        self.reach.fill(0);
        for (src, bits) in seeds {
            // Injection is on VC 0.
            let injection = self.cdg.node(self.topo.endpoint(src).link, VcId::ZERO);
            self.reached(injection, bits);
        }
        let mut next = 0;
        while let Some(&channel) = self.queue.get(next) {
            next += 1;
            let bits = std::mem::take(&mut self.pending[channel as usize]);
            self.forward(channel, bits, dsts);
        }
        self.queue.clear();
    }

    /// Marks the destinations `bits` as crossing `channel`, and queues
    /// the ones that are new to it.
    fn reached(&mut self, channel: u32, bits: u64) {
        let new = bits & !self.reach[channel as usize];
        if new != 0 {
            self.reach[channel as usize] |= new;
            if self.pending[channel as usize] == 0 {
                self.queue.push(channel);
            }
            self.pending[channel as usize] |= new;
        }
    }

    /// Carries the destinations `bits`, which arrived on `channel`, one
    /// hop on.
    fn forward(&mut self, channel: u32, bits: u64, dsts: &[EndpointId]) {
        let (link, vc) = self.cdg.channel(channel);
        let link = self.topo.link(link);
        let LinkEnd::Switch { switch: at, port } = link.dst else {
            unreachable!("ejection channels are never queued");
        };
        let injected = link.from_switch().is_none();
        let ways = self.router.directions(&self.block, at);
        for (dir, way) in ways[..4].iter().enumerate() {
            let going = bits & way;
            if going == 0 {
                continue;
            }
            let mut onward = self.onward[channel as usize][dir];
            if onward == UNKNOWN {
                let hop = self.router.hop_toward(at, dir, port, vc);
                onward = self.cdg.node(self.topo.out_link(at, hop.port), hop.vc);
                self.onward[channel as usize][dir] = onward;
                if !injected {
                    self.cdg.edge(channel, onward);
                }
            }
            self.reached(onward, going);
        }
        // A flow that ejects where it was injected crosses no channel.
        let mut here = if injected { 0 } else { bits & ways[4] };
        while here != 0 {
            let dst = dsts[here.trailing_zeros() as usize];
            here &= here - 1;
            let hop = self.router.hop(at, dst, port, vc);
            let ejection = self.cdg.node(self.topo.out_link(at, hop.port), hop.vc);
            self.cdg.edge(channel, ejection);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{mesh, paper_setup, ring, torus};
    use crate::routing::{ring_minimal_path, FlowSpec, RouteAlgorithm, RoutingTables, VcPolicy};
    use nocem_common::choice::check;
    use nocem_common::flows::AllButSelf;
    use nocem_common::ids::FlowId;
    use nocem_common::rng::SplitMix64;

    /// The cycle the parent's per-pair walk reported on torus5x5 with
    /// one VC (link ids).
    const PARENT_TORUS5X5_CYCLE: &[u32] = &[0, 4, 8, 12, 16];

    /// The compiler's check on single-VC tables built from `flows`.
    fn check_paths(topo: &Topology, flows: Vec<FlowPaths>) -> Result<(), DeadlockCycle> {
        let tables = RoutingTables::from_paths(topo, flows).expect("valid paths");
        check_routing_deadlock_freedom(topo, &tables)
    }

    #[test]
    fn paper_primary_is_deadlock_free() {
        let p = paper_setup();
        check_paths(&p.topology, p.primary_paths).unwrap();
    }

    #[test]
    fn paper_dual_is_deadlock_free() {
        let p = paper_setup();
        check_paths(&p.topology, p.dual_paths).unwrap();
    }

    #[test]
    fn ring_all_clockwise_deadlocks() {
        // Force every flow around a 4-ring clockwise: classic CDG
        // cycle.
        let t = ring(4).unwrap();
        let gens = t.generators();
        let recs = t.receptors();
        let s = |i: u32| SwitchId::new(i);
        // Flow i: generator at switch i -> receptor at switch (i+2)%4,
        // path strictly clockwise through i+1.
        let mut flows = Vec::new();
        for i in 0..4u32 {
            let spec = FlowSpec {
                flow: nocem_common::ids::FlowId::new(i),
                src: gens[i as usize],
                dst: recs[((i + 2) % 4) as usize],
            };
            flows.push(FlowPaths {
                spec,
                paths: vec![vec![s(i), s((i + 1) % 4), s((i + 2) % 4)]],
            });
        }
        let err = check_paths(&t, flows).unwrap_err();
        assert!(err.links.len() >= 3, "cycle: {err}");
        assert!(err.to_string().contains("cycle"));
    }

    #[test]
    fn single_vc_ring_cycle_is_broken_by_dateline_vcs() {
        // The same all-clockwise 4-ring traffic, as a per-VC check: on
        // a single VC it deadlocks, with dateline labels it is safe.
        let t = ring(4).unwrap();
        let gens = t.generators();
        let recs = t.receptors();
        let s = |i: u32| SwitchId::new(i);
        let flows: Vec<FlowPaths> = (0..4u32)
            .map(|i| FlowPaths {
                spec: FlowSpec {
                    flow: nocem_common::ids::FlowId::new(i),
                    src: gens[i as usize],
                    dst: recs[((i + 2) % 4) as usize],
                },
                paths: vec![vec![s(i), s((i + 1) % 4), s((i + 2) % 4)]],
            })
            .collect();
        let single = RoutingTables::from_paths_with(&t, flows.clone(), VcPolicy::SingleVc).unwrap();
        let err = check_routing_deadlock_freedom(&t, &single).unwrap_err();
        assert_eq!(err.links.len(), err.vcs.len(), "per-VC cycle report");
        assert!(err.to_string().contains("/v0"));
        let dateline = RoutingTables::from_paths_with(&t, flows, VcPolicy::Dateline).unwrap();
        check_routing_deadlock_freedom(&t, &dateline).unwrap();
    }

    #[test]
    fn minimal_ring_routing_with_dateline_is_deadlock_free() {
        // Minimal bidirectional-ring routing crosses the wrap-around
        // for long flows; the dateline labels keep the per-VC CDG
        // acyclic for every source/destination pairing.
        for n in [3u32, 4, 5, 6, 8] {
            let t = ring(n).unwrap();
            let mut flows = Vec::new();
            for a in 0..n {
                for b in 0..n {
                    let spec = FlowSpec {
                        flow: nocem_common::ids::FlowId::new(flows.len() as u32),
                        src: t.generator_at(SwitchId::new(a)).unwrap(),
                        dst: t.receptor_at(SwitchId::new(b)).unwrap(),
                    };
                    flows.push(FlowPaths {
                        spec,
                        paths: vec![ring_minimal_path(n, SwitchId::new(a), SwitchId::new(b))],
                    });
                }
            }
            let rt = RoutingTables::from_paths_with(&t, flows, VcPolicy::Dateline).unwrap();
            check_routing_deadlock_freedom(&t, &rt).unwrap();
            if n >= 3 {
                assert!(rt.max_vc() >= 1, "ring{n} paths must cross the dateline");
            }
        }
    }

    #[test]
    fn torus_xy_with_dateline_is_deadlock_free() {
        for (w, h) in [(3u32, 3u32), (4, 4), (5, 3)] {
            let t = torus(w, h).unwrap();
            let flows = FlowSpec::all_pairs(&t).into();
            let rt = RoutingTables::compute_with(
                &t,
                &flows,
                RouteAlgorithm::TorusXy,
                VcPolicy::Dateline,
            )
            .unwrap();
            check_routing_deadlock_freedom(&t, &rt).unwrap();
            assert!(rt.max_vc() >= 1, "torus{w}x{h} paths must wrap");
        }
    }

    #[test]
    fn the_grid_walk_adds_exactly_the_edges_of_the_per_flow_chains() {
        // Verdicts alone cannot tell a missing edge from an absent
        // one on an acyclic configuration: compare the graphs. The
        // chains also hold each flow's injection edge, which the walk
        // leaves out (an injection link has no predecessor). The
        // implicit set is walked off its endpoint lists, the two lists
        // through the counting sort.
        let every_third = |flows: Vec<FlowSpec>| flows.into_iter().step_by(3).collect();
        for topo in [
            torus(5, 3).unwrap(),
            torus(4, 4).unwrap(),
            mesh(4, 3).unwrap(),
        ] {
            for flows in [
                FlowSet::Listed(FlowSpec::all_pairs(&topo)),
                FlowSet::Listed(every_third(FlowSpec::all_pairs(&topo))),
                FlowSet::AllButSelf(AllButSelf::new(topo.generators(), topo.receptors())),
            ] {
                for policy in [VcPolicy::SingleVc, VcPolicy::Dateline] {
                    let algo = if topo.has_wrap_links() {
                        RouteAlgorithm::TorusXy
                    } else {
                        RouteAlgorithm::Xy
                    };
                    let tables = RoutingTables::compute_with(&topo, &flows, algo, policy).unwrap();
                    let (router, specs) = tables.grid().expect("arithmetic routing");
                    let vcs = usize::from(tables.max_vc()) + 1;
                    let mut walked = Cdg::new(&topo, vcs);
                    walked.walk_grid(&topo, router, specs);
                    let mut chained = Cdg::new(&topo, vcs);
                    for fp in tables.flows().iter() {
                        let labels = tables.path_vcs(fp.spec.flow, 0);
                        chained.chain(&topo, fp, &fp.paths[0], &labels);
                    }
                    for e in topo.endpoints_of(crate::EndpointKind::Generator) {
                        let injection = chained.node(topo.endpoint(e).link, VcId::ZERO);
                        chained.succ[injection as usize].clear();
                    }
                    for succ in walked.succ.iter_mut().chain(&mut chained.succ) {
                        succ.sort_unstable();
                    }
                    assert_eq!(
                        walked.succ,
                        chained.succ,
                        "{} {policy:?}, {} flows",
                        topo.name(),
                        flows.len()
                    );
                }
            }
        }
    }

    impl Cdg {
        /// The walk [`Cdg::walk_grid`] replaced, kept as its oracle:
        /// one [`GridRouter::walk`] per (source, destination) pair,
        /// cut short where an earlier flow to the same destination
        /// already left on the same channel.
        fn walk_grid_per_pair(&mut self, topo: &Topology, router: &GridRouter, flows: &FlowSet) {
            // Per channel: the last destination some walk took it toward.
            let mut taken = vec![u32::MAX; self.succ.len()];
            flows.for_each_by_destination(|src, dst| {
                let mut prev = None;
                for (at, hop) in router.walk(src, dst) {
                    let channel = self.node(topo.out_link(at, hop.port), hop.vc);
                    if let Some(prev) = prev {
                        self.edge(prev, channel);
                    }
                    if std::mem::replace(&mut taken[channel as usize], dst.raw()) == dst.raw() {
                        break;
                    }
                    prev = Some(channel);
                }
            });
        }
    }

    /// Routes `flows` over `topo` dimension-ordered and asserts that
    /// the block walk and the per-pair oracle build the same graph and
    /// reach the same verdict, which is returned.
    fn same_graph(topo: &Topology, flows: &FlowSet, policy: VcPolicy) -> Result<(), DeadlockCycle> {
        let algo = if topo.has_wrap_links() {
            RouteAlgorithm::TorusXy
        } else {
            RouteAlgorithm::Xy
        };
        let tables = RoutingTables::compute_with(topo, flows, algo, policy).unwrap();
        let (router, specs) = tables.grid().expect("arithmetic routing");
        let vcs = usize::from(tables.max_vc()) + 1;
        let what = format!("{} {policy:?}, {} flows", topo.name(), flows.len());
        let mut walked = Cdg::new(topo, vcs);
        walked.walk_grid(topo, router, specs);
        let mut oracle = Cdg::new(topo, vcs);
        oracle.walk_grid_per_pair(topo, router, specs);
        let sorted = |cdg: &Cdg| {
            let mut succ = cdg.succ.clone();
            succ.iter_mut().for_each(|s| s.sort_unstable());
            succ
        };
        assert_eq!(sorted(&walked), sorted(&oracle), "{what}");
        let verdict = walked.check();
        assert_eq!(verdict, oracle.check(), "{what}");
        assert_eq!(verdict, check_routing_deadlock_freedom(topo, &tables));
        verdict
    }

    /// About one in `one_in` of all generator → receptor pairs (a
    /// generator's own switch included), renumbered densely.
    fn sparse_pairs(topo: &Topology, one_in: u64, seed: u64) -> FlowSet {
        let mut rng = SplitMix64::new(seed);
        let mut kept: Vec<FlowSpec> = FlowSpec::all_pairs(topo)
            .into_iter()
            .filter(|_| rng.next().is_multiple_of(one_in))
            .collect();
        for (i, spec) in kept.iter_mut().enumerate() {
            spec.flow = FlowId::new(i as u32);
        }
        FlowSet::Listed(kept)
    }

    #[test]
    fn the_block_walk_builds_the_graph_of_the_per_pair_walk() {
        // 8x8 fills one block exactly, 5x13 spills one destination into
        // a second, 12x12 takes three; the lines have one dimension of
        // size 1, 2x2 never wraps.
        let sizes = [
            (1, 5),
            (5, 1),
            (2, 2),
            (3, 3),
            (4, 4),
            (5, 5),
            (6, 3),
            (3, 7),
            (8, 8),
            (5, 13),
            (9, 7),
            (12, 12),
        ];
        for (w, h) in sizes {
            let seed = u64::from(w << 8 | h);
            same_graphs_on_both_grids(w, h, |topo| {
                vec![
                    FlowSet::AllButSelf(AllButSelf::new(topo.generators(), topo.receptors())),
                    sparse_pairs(topo, 2, seed),
                    sparse_pairs(topo, 5, seed + 1),
                    sparse_pairs(topo, 17, seed + 2),
                ]
            });
        }
    }

    #[test]
    fn the_block_walk_builds_the_graph_of_the_per_pair_walk_on_generated_grids() {
        // Up to 81 destinations: one block or two, either side of 64.
        let name = "the_block_walk_builds_the_graph_of_the_per_pair_walk_on_generated_grids";
        check(name, 0..24, |c| {
            let (w, h) = (c.range(1u32..=9), c.range(1u32..=9));
            let (one_in, flows_seed) = (c.range(1u64..=12), c.word());
            if w * h > 1 {
                same_graphs_on_both_grids(w, h, |topo| {
                    vec![sparse_pairs(topo, one_in, flows_seed)]
                });
            }
            Ok(())
        });
    }

    /// [`same_graph`] on the `w` × `h` mesh and torus, for each flow
    /// set `sets` makes of them and both VC policies; the verdict must
    /// be deadlock freedom wherever there is no wrap-around link or
    /// dateline routing breaks its cycles.
    fn same_graphs_on_both_grids(w: u32, h: u32, sets: impl Fn(&Topology) -> Vec<FlowSet>) {
        for topo in [mesh(w, h).unwrap(), torus(w, h).unwrap()] {
            for flows in &sets(&topo) {
                for policy in [VcPolicy::SingleVc, VcPolicy::Dateline] {
                    let verdict = same_graph(&topo, flows, policy);
                    if !topo.has_wrap_links() || policy == VcPolicy::Dateline {
                        verdict.unwrap_or_else(|cycle| panic!("{}: {cycle}", topo.name()));
                    }
                }
            }
        }
    }

    #[test]
    fn a_single_vc_torus_is_still_rejected_with_the_same_cycle() {
        // The wrap-around ring of row 0, ascending: the first cycle the
        // DFS meets, link for link what the per-pair walk reported.
        let topo = torus(5, 5).unwrap();
        let flows = FlowSet::AllButSelf(AllButSelf::new(topo.generators(), topo.receptors()));
        let cycle = same_graph(&topo, &flows, VcPolicy::SingleVc).unwrap_err();
        let links: Vec<u32> = cycle.links.iter().map(|l| l.raw()).collect();
        assert_eq!(links, PARENT_TORUS5X5_CYCLE, "{cycle}");
        assert!(cycle.vcs.iter().all(|&vc| vc == VcId::ZERO));
        assert_eq!(
            same_graph(
                &topo,
                &FlowSpec::all_pairs(&topo).into(),
                VcPolicy::SingleVc
            ),
            Err(cycle)
        );
    }

    /// A 3x1 line whose middle switch has no receptor and whose first
    /// has two: generators `g0 g1 g2` on switches 0 1 2, receptors
    /// `r0 r1` on switch 0 and `r2` on switch 2.
    fn two_receptors_on_one_switch() -> (Topology, Vec<EndpointId>, Vec<EndpointId>) {
        let mut b = crate::graph::TopologyBuilder::new("line3-two-receptors");
        let s = b.switches(3);
        b.connect_bidir(s[0], s[1]).connect_bidir(s[1], s[2]);
        let generators = s.iter().map(|&s| b.generator(s)).collect();
        let receptors = vec![b.receptor(s[0]), b.receptor(s[0]), b.receptor(s[2])];
        b.set_grid(crate::graph::GridInfo {
            width: 3,
            height: 1,
        });
        (b.build().unwrap(), generators, receptors)
    }

    #[test]
    fn ejection_edges_are_per_destination() {
        let (topo, generators, receptors) = two_receptors_on_one_switch();
        let ejection = |r: usize| topo.endpoint(receptors[r]).link;
        assert_ne!(ejection(0), ejection(1), "distinct ejection ports");
        let all = FlowSet::AllButSelf(AllButSelf::new(generators.clone(), receptors.clone()));
        same_graph(&topo, &all, VcPolicy::SingleVc).unwrap();
        // g2 -> r0 and g2 -> r1 arrive at switch 0 on one channel and
        // leave it on two.
        let tables =
            RoutingTables::compute_with(&topo, &all, RouteAlgorithm::Xy, VcPolicy::SingleVc)
                .unwrap();
        let (router, specs) = tables.grid().unwrap();
        let mut cdg = Cdg::new(&topo, 1);
        cdg.walk_grid(&topo, router, specs);
        let (_, link) = topo
            .link_toward(SwitchId::new(1), SwitchId::new(0))
            .unwrap();
        let into_switch_0 = cdg.node(link, VcId::ZERO);
        let mut onward = cdg.succ[into_switch_0 as usize].clone();
        onward.sort_unstable();
        let mut want = vec![
            cdg.node(ejection(0), VcId::ZERO),
            cdg.node(ejection(1), VcId::ZERO),
        ];
        want.sort_unstable();
        assert_eq!(onward, want);
    }

    #[test]
    fn a_flow_to_the_receptor_on_its_own_switch_adds_no_edge() {
        let (topo, generators, receptors) = two_receptors_on_one_switch();
        let flow = |i: u32, src: usize, dst: usize| FlowSpec {
            flow: FlowId::new(i),
            src: generators[src],
            dst: receptors[dst],
        };
        // g0 -> r1 and g2 -> r2 never leave their switch: alone they
        // build the empty graph, and beside g1 -> r2 they add nothing
        // to its one edge.
        let local = FlowSet::Listed(vec![flow(0, 0, 1), flow(1, 2, 2)]);
        same_graph(&topo, &local, VcPolicy::SingleVc).unwrap();
        let mixed = FlowSet::Listed(vec![flow(0, 0, 1), flow(1, 1, 2), flow(2, 2, 2)]);
        same_graph(&topo, &mixed, VcPolicy::SingleVc).unwrap();
        for (flows, edges) in [(&local, 0), (&mixed, 1)] {
            let tables =
                RoutingTables::compute_with(&topo, flows, RouteAlgorithm::Xy, VcPolicy::SingleVc)
                    .unwrap();
            let (router, specs) = tables.grid().unwrap();
            let mut cdg = Cdg::new(&topo, 1);
            cdg.walk_grid(&topo, router, specs);
            assert_eq!(cdg.succ.iter().map(Vec::len).sum::<usize>(), edges);
        }
    }

    #[test]
    fn shortest_routing_on_ring_is_reported_safe_or_cyclic_consistently() {
        // Whatever BFS picks, the checker must terminate and give a
        // deterministic answer.
        let t = ring(6).unwrap();
        let flows = FlowSpec::one_to_one(&t).unwrap().into();
        let rt = RoutingTables::compute(&t, &flows, RouteAlgorithm::Shortest).unwrap();
        let a = check_routing_deadlock_freedom(&t, &rt);
        let b = check_routing_deadlock_freedom(&t, &rt);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_flow_set_is_trivially_safe() {
        let p = paper_setup();
        check_paths(&p.topology, Vec::new()).unwrap();
    }
}
