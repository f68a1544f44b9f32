//! Arithmetic grid routing answers exactly as the per-flow
//! construction it replaced — paths, VC labels, lookups, predicted
//! loads and deadlock verdicts — while holding no route entry, and
//! everything whose hop is not dimension-ordered arithmetic stays in
//! flow-keyed tables.
//!
//! The oracle is the old construction, kept here on purpose: one
//! dimension-ordered path per flow ([`grid_path`]), labelled by
//! [`dateline_vcs`] and handed to [`RoutingTables::from_paths_with`]
//! (which is, and stays, flow-keyed).

use nocem_common::ids::{FlowId, SwitchId, VcId};
use nocem_topology::analysis::{predict_link_loads, SplitModel};
use nocem_topology::builders::{mesh, paper_setup, ring, star, torus};
use nocem_topology::deadlock::check_routing_deadlock_freedom;
use nocem_topology::graph::{GridInfo, LinkEnd, Topology};
use nocem_topology::routing::{
    dateline_vcs, ring_minimal_path, FlowPaths, FlowSpec, Path, RouteAlgorithm, RouteHop,
    RoutingTables, VcPolicy,
};
use nocem_topology::TopologyError;
use std::sync::Arc;

/// One dimension-ordered step from `cur` toward `to` (`cur != to`): X
/// first, then Y; with `wrap` the shorter way around each dimension,
/// the direct way on ties or when the dimension has no wrap link
/// (`size <= 2`) — the rule the library had before the router.
fn grid_step(grid: &GridInfo, wrap: bool, cur: SwitchId, to: SwitchId) -> SwitchId {
    let step = |cur: u32, target: u32, size: u32| {
        let direct = cur.abs_diff(target);
        let around = wrap && size > 2 && size - direct < direct;
        if (cur < target) != around {
            (cur + 1) % size
        } else {
            (cur + size - 1) % size
        }
    };
    let (x, y) = grid.coords(cur);
    let (tx, ty) = grid.coords(to);
    if x != tx {
        grid.at(step(x, tx, grid.width), y)
    } else {
        grid.at(x, step(y, ty, grid.height))
    }
}

/// The per-flow path: [`grid_step`] until there.
fn grid_path(topo: &Topology, wrap: bool, from: SwitchId, to: SwitchId) -> Path {
    let grid = topo.grid().expect("grids carry grid metadata");
    let mut path = vec![from];
    while *path.last().unwrap() != to {
        path.push(grid_step(grid, wrap, *path.last().unwrap(), to));
    }
    path
}

fn wraps(algo: RouteAlgorithm) -> bool {
    algo == RouteAlgorithm::TorusXy
}

/// Flow-keyed tables from one [`grid_path`] per flow.
fn oracle(
    topo: &Topology,
    flows: &[FlowSpec],
    algo: RouteAlgorithm,
    policy: VcPolicy,
) -> Result<RoutingTables, TopologyError> {
    let paths = flows
        .iter()
        .map(|&spec| FlowPaths {
            spec,
            paths: vec![grid_path(
                topo,
                wraps(algo),
                topo.endpoint(spec.src).switch,
                topo.endpoint(spec.dst).switch,
            )],
        })
        .collect();
    RoutingTables::from_paths_with(topo, paths, policy)
}

/// Flows of the switch pairs `pairs`, densely numbered in the order
/// given (sources ascending, destinations ascending within a source —
/// the order the scenario patterns expand in).
fn flows_of(
    topo: &Topology,
    pairs: impl IntoIterator<Item = (SwitchId, SwitchId)>,
) -> Vec<FlowSpec> {
    pairs
        .into_iter()
        .enumerate()
        .map(|(i, (src, dst))| FlowSpec {
            flow: FlowId::new(i as u32),
            src: topo.generator_at(src).unwrap(),
            dst: topo.receptor_at(dst).unwrap(),
        })
        .collect()
}

fn uniform_random(topo: &Topology) -> Vec<FlowSpec> {
    let switches: Vec<SwitchId> = topo.switch_ids().collect();
    flows_of(
        topo,
        switches
            .iter()
            .flat_map(|&s| switches.iter().map(move |&d| (s, d)))
            .filter(|(s, d)| s != d),
    )
}

fn nearest_neighbor(topo: &Topology) -> Vec<FlowSpec> {
    flows_of(
        topo,
        topo.switch_ids().flat_map(|s| {
            let mut next: Vec<SwitchId> = topo.switch_neighbors(s).map(|(_, _, n, _)| n).collect();
            next.sort();
            next.dedup();
            next.into_iter().map(move |n| (s, n))
        }),
    )
}

fn transpose(topo: &Topology) -> Vec<FlowSpec> {
    let grid = topo.grid().unwrap().clone();
    flows_of(
        topo,
        topo.switch_ids().map(|s| {
            let (x, y) = grid.coords(s);
            (s, grid.at(y, x))
        }),
    )
}

fn entries(topo: &Topology, tables: &RoutingTables) -> usize {
    topo.switch_ids()
        .map(|s| tables.switch_table(s).flow_entries())
        .sum()
}

/// Follows a packet of `spec` the way the switches will: asks the
/// router at every switch with the input port and VC the packet
/// actually arrives on (the previous hop's output), until it ejects.
fn follow(topo: &Topology, tables: &RoutingTables, spec: &FlowSpec) -> (Path, Vec<RouteHop>) {
    let router = tables.grid_router().expect("arithmetic routing");
    let mut at = topo.endpoint(spec.src).switch;
    let mut input = (topo.injection_port(at, spec.src).unwrap(), VcId::ZERO);
    let (mut path, mut hops) = (Vec::new(), Vec::new());
    loop {
        let hop = router.hop(at, spec.dst, input.0, input.1);
        path.push(at);
        hops.push(hop);
        match topo.link(topo.out_link(at, hop.port)).dst {
            LinkEnd::Switch { switch, port } => {
                at = switch;
                input = (port, hop.vc);
            }
            LinkEnd::Endpoint(e) => {
                assert_eq!(e, spec.dst, "{} ejects at its receptor", spec.flow);
                return (path, hops);
            }
        }
        assert!(path.len() <= topo.switch_count(), "{} loops", spec.flow);
    }
}

#[test]
fn the_grid_router_answers_as_the_flow_keyed_oracle() {
    // (a) Every (source, destination) pair of every grid shape the
    // rule has a special case for: ties (even sizes), width-2
    // dimensions (no wrap link), non-square grids.
    let shapes = [(2, 2), (3, 3), (4, 4), (5, 3), (8, 8), (2, 5)];
    for (w, h) in shapes {
        for topo in [mesh(w, h).unwrap(), torus(w, h).unwrap()] {
            let flows = uniform_random(&topo);
            for algo in [RouteAlgorithm::Xy, RouteAlgorithm::TorusXy] {
                for policy in [VcPolicy::SingleVc, VcPolicy::Dateline] {
                    let what = format!("{} {algo:?} {policy:?}", topo.name());
                    let Ok(want) = oracle(&topo, &flows, algo, policy) else {
                        // The wrapping algorithm on a mesh wider than
                        // 2: far pairs want links that are not there.
                        assert!(topo.name().starts_with("mesh") && wraps(algo), "{what}");
                        assert!(
                            RoutingTables::compute_with(&topo, &flows.clone().into(), algo, policy)
                                .is_err(),
                            "{what}"
                        );
                        continue;
                    };
                    let tables =
                        RoutingTables::compute_with(&topo, &flows.clone().into(), algo, policy)
                            .unwrap();
                    assert_eq!(entries(&topo, &tables), 0, "{what}: no route entry");
                    assert_eq!(tables.flow_count(), flows.len(), "{what}");
                    assert_eq!(tables.max_vc(), want.max_vc(), "{what}");
                    assert_eq!(tables.max_alternatives(), 1, "{what}");

                    let got_flows = tables.flows();
                    for (fp, got) in want.flows().iter().zip(got_flows.iter()) {
                        let flow = fp.spec.flow;
                        let labels = match policy {
                            VcPolicy::SingleVc => vec![VcId::ZERO; fp.paths[0].len() - 1],
                            VcPolicy::Dateline => dateline_vcs(&topo, &fp.paths[0]),
                        };
                        // Port and VC while following the flit.
                        let (path, hops) = follow(&topo, &tables, &fp.spec);
                        assert_eq!(path, fp.paths[0], "{what}: path of {flow}");
                        let (eject, inter) = hops.split_last().unwrap();
                        let vcs: Vec<VcId> = inter.iter().map(|h| h.vc).collect();
                        assert_eq!(vcs, labels, "{what}: labels of {flow}");
                        assert_eq!(eject.vc, VcId::ZERO, "{what}: {flow} ejects on VC 0");
                        // The on-demand answers are the oracle's.
                        assert_eq!(got, fp, "{what}: flows() of {flow}");
                        assert_eq!(*tables.path_vcs(flow, 0), labels, "{what} {flow}");
                        for (&s, hop) in path.iter().zip(&hops) {
                            assert_eq!(tables.lookup(s, flow), want.lookup(s, flow), "{what}");
                            assert_eq!(*tables.lookup(s, flow), [*hop], "{what} {flow} at {s}");
                        }
                        let off_path = topo.switch_ids().find(|s| !path.contains(s));
                        if let Some(s) = off_path {
                            assert!(tables.lookup(s, flow).is_empty(), "{what} {flow} at {s}");
                        }
                    }

                    // Unknown flows have no answer anywhere.
                    let unknown = FlowId::new(flows.len() as u32);
                    assert!(topo
                        .switch_ids()
                        .all(|s| tables.lookup(s, unknown).is_empty()));

                    // The walked CDG agrees with the path-built one.
                    assert_eq!(
                        check_routing_deadlock_freedom(&topo, &tables).is_ok(),
                        check_routing_deadlock_freedom(&topo, &want).is_ok(),
                        "{what}: deadlock verdict"
                    );

                    // Link-load prediction reads the on-demand paths.
                    let loads = vec![0.1; flows.len()];
                    assert_eq!(
                        predict_link_loads(&topo, &got_flows, &loads, SplitModel::PrimaryOnly),
                        predict_link_loads(&topo, &want.flows(), &loads, SplitModel::PrimaryOnly),
                        "{what}: predicted loads"
                    );
                }
            }
        }
    }
}

#[test]
fn transpose_answers_are_the_per_flow_values() {
    for topo in [mesh(8, 8).unwrap(), torus(8, 8).unwrap()] {
        let flows = transpose(&topo);
        let (algo, policy) = (RouteAlgorithm::TorusXy, VcPolicy::Dateline);
        let algo = if topo.has_wrap_links() {
            algo
        } else {
            RouteAlgorithm::Xy
        };
        let tables =
            RoutingTables::compute_with(&topo, &flows.clone().into(), algo, policy).unwrap();
        let want = oracle(&topo, &flows, algo, policy).unwrap();
        assert!(tables.grid_router().is_some());
        assert_eq!(tables.flows(), want.flows(), "{}", topo.name());
        assert_eq!(tables.max_vc(), want.max_vc(), "{}", topo.name());
        for spec in &flows {
            assert_eq!(
                tables.path_vcs(spec.flow, 0),
                want.path_vcs(spec.flow, 0),
                "{}",
                topo.name()
            );
            for s in topo.switch_ids() {
                assert_eq!(tables.lookup(s, spec.flow), want.lookup(s, spec.flow));
            }
        }
        let loads = vec![0.1; flows.len()];
        assert_eq!(
            predict_link_loads(&topo, &tables.flows(), &loads, SplitModel::PrimaryOnly),
            predict_link_loads(&topo, &want.flows(), &loads, SplitModel::PrimaryOnly),
        );
        check_routing_deadlock_freedom(&topo, &tables).unwrap();
    }
}

#[test]
fn grid_lookups_follow_the_flow_numbering_not_the_flow_order() {
    // Flow ids that are not their own index (here: reversed) still
    // translate to the right destination.
    let topo = mesh(3, 3).unwrap();
    let mut flows = uniform_random(&topo);
    let last = flows.len() as u32 - 1;
    for f in &mut flows {
        f.flow = FlowId::new(last - f.flow.raw());
    }
    let tables = RoutingTables::compute(&topo, &flows.clone().into(), RouteAlgorithm::Xy).unwrap();
    for spec in &flows {
        let to = topo.endpoint(spec.dst).switch;
        let eject = tables.lookup(to, spec.flow);
        assert_eq!(eject.len(), 1);
        assert_eq!(eject[0].port, topo.ejection_port(to, spec.dst).unwrap());
    }
}

#[test]
fn tables_are_shared_not_copied() {
    let topo = mesh(4, 4).unwrap();
    let flows = FlowSpec::all_pairs(&topo);
    let arithmetic =
        RoutingTables::compute(&topo, &flows.clone().into(), RouteAlgorithm::Xy).unwrap();
    assert!(
        Arc::ptr_eq(
            arithmetic.grid_router().unwrap(),
            arithmetic.clone().grid_router().unwrap()
        ),
        "clone() shares the router"
    );
    let tables =
        RoutingTables::compute(&topo, &flows.clone().into(), RouteAlgorithm::Shortest).unwrap();
    let s = SwitchId::new(5);
    assert!(
        std::ptr::eq(tables.switch_table(s), tables.clone().switch_table(s)),
        "clone() shares the tables"
    );
    // The switch side: a switch built from the tables holds the very
    // table they hold — one more owner, not one more copy.
    let shared = tables.shared_switch_table(s);
    assert!(std::ptr::eq(&*shared, tables.switch_table(s)));
    assert!(!shared.is_empty());
    let owners = Arc::strong_count(&shared);
    let info = topo.switch(s);
    let switch = nocem_switch::switch::Switch::new_table(
        nocem_switch::config::SwitchConfigBuilder::new(info.inputs, info.outputs).build(),
        shared.clone(),
        vec![vec![4]; usize::from(info.outputs)],
        1,
    )
    .unwrap();
    assert_eq!(Arc::strong_count(&shared), owners + 1);
    drop(switch);
    assert_eq!(Arc::strong_count(&shared), owners);
}

#[test]
fn source_dependent_routing_stays_flow_keyed() {
    // Entry counts are the parent commit's: one entry per switch of
    // every flow's path.
    let path_switches = |tables: &RoutingTables| -> usize {
        tables
            .flows()
            .iter()
            .flat_map(|fp| &fp.paths)
            .map(Vec::len)
            .sum()
    };

    // ring8, uniform-random, shorter arc with a dateline.
    let r = ring(8).unwrap();
    let flows = uniform_random(&r);
    let paths = flows
        .iter()
        .map(|&spec| FlowPaths {
            spec,
            paths: vec![ring_minimal_path(
                8,
                r.endpoint(spec.src).switch,
                r.endpoint(spec.dst).switch,
            )],
        })
        .collect();
    let tables = RoutingTables::from_paths_with(&r, paths, VcPolicy::Dateline).unwrap();
    assert!(tables.grid_router().is_none());
    assert_eq!(entries(&r, &tables), 184);
    assert_eq!(entries(&r, &tables), path_switches(&tables));
    check_routing_deadlock_freedom(&r, &tables).unwrap();

    // The paper set-up: explicit paths, single and dual — on a
    // topology that carries grid metadata.
    let p = paper_setup();
    for (tables, count, alternatives) in [(p.primary_routing(), 10, 1), (p.dual_routing(), 20, 2)] {
        assert!(tables.grid_router().is_none());
        assert_eq!(entries(&p.topology, &tables), count);
        assert_eq!(tables.max_alternatives(), alternatives);
        check_routing_deadlock_freedom(&p.topology, &tables).unwrap();
    }

    // Shortest-path routing is per flow: on a star, and even on a mesh.
    for topo in [star(4).unwrap(), mesh(4, 4).unwrap()] {
        let flows = FlowSpec::all_pairs(&topo);
        let tables =
            RoutingTables::compute(&topo, &flows.clone().into(), RouteAlgorithm::Shortest).unwrap();
        assert!(tables.grid_router().is_none(), "{}", topo.name());
        assert_eq!(entries(&topo, &tables), path_switches(&tables));
        assert!(entries(&topo, &tables) >= flows.len());
    }
}

#[test]
fn grids_hold_a_router_and_no_route_entries_at_any_size() {
    // Counts, not timings. torus8x8 uniform-random held 20 416 entries
    // at the parent commit, mesh32x32 (1 047 552 flows) 1 048 576.
    for (topo, algo, policy, max_vc) in [
        (
            torus(8, 8).unwrap(),
            RouteAlgorithm::TorusXy,
            VcPolicy::Dateline,
            1,
        ),
        (
            torus(16, 16).unwrap(),
            RouteAlgorithm::TorusXy,
            VcPolicy::Dateline,
            1,
        ),
        (
            mesh(32, 32).unwrap(),
            RouteAlgorithm::Xy,
            VcPolicy::SingleVc,
            0,
        ),
    ] {
        let flows = uniform_random(&topo);
        let tables =
            RoutingTables::compute_with(&topo, &flows.clone().into(), algo, policy).unwrap();
        assert!(tables.grid_router().is_some(), "{}", topo.name());
        assert_eq!(entries(&topo, &tables), 0, "{}", topo.name());
        assert_eq!(tables.flow_count(), flows.len());
        assert_eq!(tables.max_vc(), max_vc, "{}", topo.name());
        check_routing_deadlock_freedom(&topo, &tables).unwrap();
    }
    // The paper's grid carries several receptors on one switch and
    // switches without endpoints: the router homes each endpoint.
    let p = paper_setup();
    let tables =
        RoutingTables::compute(&p.topology, &p.flows.clone().into(), RouteAlgorithm::Xy).unwrap();
    assert!(tables.grid_router().is_some());
    for spec in &p.flows {
        let (path, hops) = follow(&p.topology, &tables, spec);
        let to = p.topology.endpoint(spec.dst).switch;
        assert_eq!(*path.last().unwrap(), to);
        assert_eq!(
            hops.last().unwrap().port,
            p.topology.ejection_port(to, spec.dst).unwrap()
        );
    }
}

#[test]
fn single_vc_torus_verdicts_are_the_parent_commits() {
    // (b) Without a second VC the wrapping routes close a cycle around
    // every ring of 5 and more; rings of 3 and 4 never chain two hops
    // into the wrap link (ties go direct). The walked CDG must reach
    // the parent commit's verdicts, and find the same first cycle.
    let cycle = |links: &[u32]| {
        let links: Vec<String> = links.iter().map(|l| format!(" l{l}/v0")).collect();
        format!("channel dependency cycle:{}", links.concat())
    };
    let parent_verdict = [
        (3, None),
        (4, None),
        (5, Some(cycle(&[0, 4, 8, 12, 16]))),
        (6, Some(cycle(&[0, 4, 8, 12, 16, 20]))),
        (8, Some(cycle(&[0, 4, 8, 12, 16, 20, 24, 28]))),
    ];
    for (side, verdict) in parent_verdict {
        let t = torus(side, side).unwrap();
        let flows = uniform_random(&t);
        let tables = RoutingTables::compute_with(
            &t,
            &flows.clone().into(),
            RouteAlgorithm::TorusXy,
            VcPolicy::SingleVc,
        )
        .unwrap();
        assert!(tables.grid_router().is_some());
        assert_eq!(tables.max_vc(), 0);
        let got = check_routing_deadlock_freedom(&t, &tables);
        assert_eq!(got.as_ref().err().map(ToString::to_string), verdict);
        if let Err(cycle) = got {
            assert_eq!(cycle.links.len(), cycle.vcs.len(), "per-VC cycle report");
        }

        // The same paths are safe on two VCs.
        let dateline = RoutingTables::compute_with(
            &t,
            &flows.clone().into(),
            RouteAlgorithm::TorusXy,
            VcPolicy::Dateline,
        )
        .unwrap();
        assert_eq!(dateline.max_vc(), 1);
        assert_eq!(tables.flows(), dateline.flows());
        check_routing_deadlock_freedom(&t, &dateline).unwrap();

        // XY never takes a wrap link: safe on one VC, even on a torus.
        let xy = RoutingTables::compute(&t, &flows.clone().into(), RouteAlgorithm::Xy).unwrap();
        check_routing_deadlock_freedom(&t, &xy).unwrap();
    }
}

#[test]
fn sparse_flow_sets_get_exact_verdicts() {
    // torus8x8 on one VC is cyclic in general (above); the check must
    // still look at the flows actually configured, not at what the
    // router could do.
    let t = torus(8, 8).unwrap();
    let grid = t.grid().unwrap().clone();
    let two_east = |xs: std::ops::Range<u32>| {
        flows_of(
            &t,
            xs.map(|x| (grid.at(x, 0), grid.at((x + 2) % 8, 0)))
                .collect::<Vec<_>>(),
        )
    };
    for (what, flows, safe) in [
        ("nearest neighbours", nearest_neighbor(&t), true),
        ("transpose", transpose(&t), true),
        ("two east, short of the wrap link", two_east(0..6), true),
        ("two east, all round the ring", two_east(0..8), false),
    ] {
        let (algo, policy) = (RouteAlgorithm::TorusXy, VcPolicy::SingleVc);
        let tables = RoutingTables::compute_with(&t, &flows.clone().into(), algo, policy).unwrap();
        assert!(tables.grid_router().is_some(), "{what}");
        let want = oracle(&t, &flows, algo, policy).unwrap();
        assert_eq!(
            check_routing_deadlock_freedom(&t, &want).is_ok(),
            safe,
            "{what}: per-flow verdict"
        );
        assert_eq!(
            check_routing_deadlock_freedom(&t, &tables).is_ok(),
            safe,
            "{what}"
        );
    }
    // No flow wraps: dateline routing needs no second VC.
    let tables = RoutingTables::compute_with(
        &t,
        &two_east(0..6).into(),
        RouteAlgorithm::TorusXy,
        VcPolicy::Dateline,
    )
    .unwrap();
    assert_eq!(tables.max_vc(), 0);
}

#[test]
fn a_missing_link_names_a_flow_that_needs_it() {
    // (c) TorusXy on a mesh: only the far pairs want wrap links that
    // are not there. Same error type as the per-flow construction
    // gave, and flow sets that never need them still route.
    let topo = mesh(6, 1).unwrap();
    let flows = uniform_random(&topo);
    let err = RoutingTables::compute_with(
        &topo,
        &flows.clone().into(),
        RouteAlgorithm::TorusXy,
        VcPolicy::SingleVc,
    )
    .unwrap_err();
    let TopologyError::InvalidPath { flow, reason } = err else {
        panic!("expected InvalidPath, got {err}");
    };
    let spec = flows[flow.index()];
    let (from, to) = (
        topo.endpoint(spec.src).switch,
        topo.endpoint(spec.dst).switch,
    );
    assert!(
        from.raw().abs_diff(to.raw()) > 3,
        "{from} -> {to} is a far pair"
    );
    assert!(reason.contains("no link"), "{reason}");

    let topo = mesh(4, 4).unwrap();
    let mut flows = nearest_neighbor(&topo);
    for policy in [VcPolicy::SingleVc, VcPolicy::Dateline] {
        let tables = RoutingTables::compute_with(
            &topo,
            &flows.clone().into(),
            RouteAlgorithm::TorusXy,
            policy,
        )
        .unwrap();
        assert!(
            tables.grid_router().is_none(),
            "a partial grid keeps tables"
        );
        assert_eq!(tables.max_vc(), 0);
        assert_eq!(
            tables.flows(),
            oracle(&topo, &flows, RouteAlgorithm::Xy, policy)
                .unwrap()
                .flows()
        );
        check_routing_deadlock_freedom(&topo, &tables).unwrap();
    }
    // One far pair: (0,0) -> (3,0) would take the wrap link.
    let far = FlowSpec {
        flow: FlowId::new(flows.len() as u32),
        src: topo.generator_at(SwitchId::new(0)).unwrap(),
        dst: topo.receptor_at(SwitchId::new(3)).unwrap(),
    };
    flows.push(far);
    let err = RoutingTables::compute_with(
        &topo,
        &flows.clone().into(),
        RouteAlgorithm::TorusXy,
        VcPolicy::SingleVc,
    )
    .unwrap_err();
    assert!(
        matches!(&err, TopologyError::InvalidPath { flow, reason }
            if *flow == far.flow && reason.contains("no link s0 -> s3")),
        "{err}"
    );
}

#[test]
fn the_router_rejects_what_it_cannot_route() {
    // A destination that is not a receptor is a set-up error of the
    // flow list, never an answer of the router.
    let topo = torus(4, 4).unwrap();
    let generator = topo.generators()[5];
    let flows = vec![FlowSpec {
        flow: FlowId::new(0),
        src: topo.generators()[0],
        dst: generator,
    }];
    for algo in [RouteAlgorithm::Xy, RouteAlgorithm::TorusXy] {
        assert_eq!(
            RoutingTables::compute_with(&topo, &flows.clone().into(), algo, VcPolicy::Dateline)
                .unwrap_err(),
            TopologyError::WrongEndpointKind {
                endpoint: generator,
                expected: nocem_topology::EndpointKind::Receptor,
            }
        );
    }
    // Grid metadata that does not describe the switches is no grid.
    let mut b = nocem_topology::TopologyBuilder::new("lying grid");
    let s = b.switches(3);
    b.connect_bidir(s[0], s[1]).connect_bidir(s[1], s[2]);
    let src = b.generator(s[0]);
    let dst = b.receptor(s[2]);
    b.set_grid(GridInfo {
        width: 2,
        height: 2,
    });
    let topo = b.build().unwrap();
    let flows = vec![FlowSpec {
        flow: FlowId::new(0),
        src,
        dst,
    }];
    assert_eq!(
        RoutingTables::compute(&topo, &flows.clone().into(), RouteAlgorithm::Xy).unwrap_err(),
        TopologyError::GridRequired
    );
}
