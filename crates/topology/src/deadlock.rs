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
//! [`check_deadlock_freedom`] builds the single-VC CDG from configured
//! flow paths; [`check_routing_deadlock_freedom`] builds the per-VC
//! CDG of a [`RoutingTables`] — from its VC-labelled paths when it
//! holds flow-keyed tables, by following the routing function from
//! every source when routing is arithmetic — and is the check the
//! platform compiler runs. Nodes are dense `link × VC` indices and the
//! first cycle found is reported. Injection links have no incoming and
//! ejection links no outgoing dependencies, so neither can ever be
//! part of a cycle; the path-based builders include both to complete
//! the chains, the grid walk starts at the first inter-switch hop.

use crate::graph::Topology;
use crate::routing::{FlowPaths, FlowSet, GridRouter, RoutingTables};
use nocem_common::ids::{LinkId, SwitchId, VcId};

/// A cyclic channel dependency that could deadlock the network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadlockCycle {
    /// The links forming the cycle, in dependency order.
    pub links: Vec<LinkId>,
    /// The virtual channel of each link in the cycle. Empty when the
    /// cycle came from the single-VC check ([`check_deadlock_freedom`]),
    /// parallel to `links` otherwise.
    pub vcs: Vec<VcId>,
}

impl std::fmt::Display for DeadlockCycle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "channel dependency cycle:")?;
        for (i, l) in self.links.iter().enumerate() {
            match self.vcs.get(i) {
                Some(vc) => write!(f, " {l}/{vc}")?,
                None => write!(f, " {l}")?,
            }
        }
        Ok(())
    }
}

impl std::error::Error for DeadlockCycle {}

/// Builds the single-VC channel dependency graph of `flows` over
/// `topo` and verifies it is acyclic.
///
/// # Errors
///
/// Returns the first [`DeadlockCycle`] found, if any.
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
/// use nocem_topology::deadlock::check_deadlock_freedom;
///
/// let p = paper_setup();
/// // Both routing configurations of the paper setup are deadlock-free.
/// check_deadlock_freedom(&p.topology, &p.primary_paths)?;
/// check_deadlock_freedom(&p.topology, &p.dual_paths)?;
/// # Ok::<(), nocem_topology::deadlock::DeadlockCycle>(())
/// ```
pub fn check_deadlock_freedom(topo: &Topology, flows: &[FlowPaths]) -> Result<(), DeadlockCycle> {
    let mut cdg = Cdg::new(topo, 1);
    for fp in flows {
        for path in &fp.paths {
            cdg.chain(topo, fp, path, &[]);
        }
    }
    cdg.check().map_err(|cycle| DeadlockCycle {
        vcs: Vec::new(),
        ..cycle
    })
}

/// Builds the per-VC channel dependency graph of routing tables and
/// verifies it is acyclic — the check that validates the dateline
/// scheme: the same physical ring cycle is broken because its links
/// are visited on different VCs.
///
/// Flow-keyed tables contribute one dependency chain per VC-labelled
/// path. Grid routing is walked: one pass per destination over the
/// (switch, arrival channel) states some flow actually reaches, each
/// adding the dependency of the arrival channel on the channel the
/// router continues on — the same edges as the per-flow chains (every
/// state lies on some flow's path, so verdicts are exact for sparse
/// flow sets too) in `O(flows + visited states)`. An implicit flow set
/// is walked pair by pair all the same — that is what keeps the
/// verdict exact — but straight off its endpoint lists, with nothing
/// allocated per flow.
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

    fn edge(&mut self, from: u32, to: u32) {
        let succ = &mut self.succ[from as usize];
        if !succ.contains(&to) {
            succ.push(to);
        }
    }

    /// Adds the dependencies of grid-routed `flows`: every flow is
    /// followed from its source switch, destination by destination,
    /// until it leaves a switch on a channel an earlier flow to the
    /// same destination already left it on — from there on the router
    /// repeats itself (the hop is a function of switch, destination,
    /// input port and input VC, and the channel just taken fixes all
    /// four), so the onward edges are already in.
    fn walk_grid(&mut self, topo: &Topology, router: &GridRouter, flows: &FlowSet) {
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

    /// Adds the dependency chain of one path: injection link (VC 0,
    /// the NI's fixed VC), every hop on its label (VC 0 where `labels`
    /// has none), ejection link (always VC 0: the receptor is
    /// VC-blind, so packets serialize into it).
    fn chain(&mut self, topo: &Topology, fp: &FlowPaths, path: &[SwitchId], labels: &[VcId]) {
        let mut prev = self.node(topo.endpoint(fp.spec.src).link, VcId::ZERO);
        for (i, w) in path.windows(2).enumerate() {
            let vc = labels.get(i).copied().unwrap_or(VcId::ZERO);
            let channel = self.node(link_toward(topo, w[0], w[1]), vc);
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
                        let (links, vcs) = stack[pos..]
                            .iter()
                            .map(|&(n, _)| {
                                let n = n as usize;
                                (
                                    LinkId::new((n / self.vcs) as u32),
                                    VcId::new((n % self.vcs) as u8),
                                )
                            })
                            .unzip();
                        return Err(DeadlockCycle { links, vcs });
                    }
                    _ => {}
                }
            }
        }
        Ok(())
    }
}

fn link_toward(topo: &Topology, from: SwitchId, to: SwitchId) -> LinkId {
    topo.switch_neighbors(from)
        .find(|&(_, _, next, _)| next == to)
        .map(|(_, l, _, _)| l)
        .unwrap_or_else(|| panic!("no link {from} -> {to}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{mesh, paper_setup, ring, torus};
    use crate::routing::{ring_minimal_path, FlowSpec, RouteAlgorithm, RoutingTables, VcPolicy};
    use nocem_common::flows::AllButSelf;

    #[test]
    fn paper_primary_is_deadlock_free() {
        let p = paper_setup();
        check_deadlock_freedom(&p.topology, &p.primary_paths).unwrap();
    }

    #[test]
    fn paper_dual_is_deadlock_free() {
        let p = paper_setup();
        check_deadlock_freedom(&p.topology, &p.dual_paths).unwrap();
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
        let err = check_deadlock_freedom(&t, &flows).unwrap_err();
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

    #[test]
    fn shortest_routing_on_ring_is_reported_safe_or_cyclic_consistently() {
        // Whatever BFS picks, the checker must terminate and give a
        // deterministic answer.
        let t = ring(6).unwrap();
        let flows = FlowSpec::one_to_one(&t).unwrap().into();
        let rt = RoutingTables::compute(&t, &flows, RouteAlgorithm::Shortest).unwrap();
        let a = check_deadlock_freedom(&t, &rt.flows());
        let b = check_deadlock_freedom(&t, &rt.flows());
        assert_eq!(a.is_ok(), b.is_ok());
    }

    #[test]
    fn empty_flow_set_is_trivially_safe() {
        let p = paper_setup();
        check_deadlock_freedom(&p.topology, &[]).unwrap();
    }
}
