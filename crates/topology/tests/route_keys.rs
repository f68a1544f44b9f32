//! Route keys: destination-keyed tables answer exactly as the per-flow
//! construction they replaced, hold entries only where some flow goes,
//! and everything whose hop depends on more than the destination stays
//! flow-keyed.
//!
//! The oracle is the old construction, kept here on purpose: one
//! dimension-ordered path per flow, handed to
//! [`RoutingTables::from_paths_with`] (which is, and stays, flow-keyed).

use nocem_common::ids::{FlowId, SwitchId, VcId};
use nocem_topology::analysis::{predict_link_loads, SplitModel};
use nocem_topology::builders::{mesh, paper_setup, ring, torus};
use nocem_topology::deadlock::check_routing_deadlock_freedom;
use nocem_topology::graph::Topology;
use nocem_topology::routing::{
    ring_minimal_path, FlowPaths, FlowSpec, Path, RouteAlgorithm, RouteKey, RoutingTables, VcPolicy,
};

/// Dimension-ordered (X then Y) path on a mesh — the per-flow
/// construction the library no longer has.
fn xy_path(topo: &Topology, from: SwitchId, to: SwitchId) -> Path {
    let grid = topo.grid().expect("meshes carry grid metadata");
    let (mut x, mut y) = grid.coords(from);
    let (tx, ty) = grid.coords(to);
    let mut path = vec![from];
    while x != tx {
        x = if x < tx { x + 1 } else { x - 1 };
        path.push(grid.at(x, y));
    }
    while y != ty {
        y = if y < ty { y + 1 } else { y - 1 };
        path.push(grid.at(x, y));
    }
    path
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

/// The flow sets of the four scenario patterns named in the issue, by
/// name. Hotspot weights its destinations but routes the same
/// all-pairs flows as uniform-random.
fn pattern_flows(topo: &Topology) -> Vec<(&'static str, Vec<FlowSpec>)> {
    let switches: Vec<SwitchId> = topo.switch_ids().collect();
    let all_pairs = || {
        switches
            .iter()
            .flat_map(|&s| switches.iter().map(move |&d| (s, d)))
            .filter(|(s, d)| s != d)
    };
    let grid = topo.grid().unwrap().clone();
    let mut sets = vec![
        ("uniform_random", flows_of(topo, all_pairs())),
        ("hotspot", flows_of(topo, all_pairs())),
        (
            "nearest_neighbor",
            flows_of(
                topo,
                switches.iter().flat_map(|&s| {
                    let mut next: Vec<SwitchId> =
                        topo.switch_neighbors(s).map(|(_, _, n, _)| n).collect();
                    next.sort();
                    next.into_iter().map(move |n| (s, n))
                }),
            ),
        ),
    ];
    if grid.width == grid.height {
        sets.push((
            "transpose",
            flows_of(
                topo,
                switches.iter().map(|&s| {
                    let (x, y) = grid.coords(s);
                    (s, grid.at(y, x))
                }),
            ),
        ));
    }
    sets
}

fn oracle(topo: &Topology, flows: &[FlowSpec]) -> RoutingTables {
    let paths = flows
        .iter()
        .map(|&spec| FlowPaths {
            spec,
            paths: vec![xy_path(
                topo,
                topo.endpoint(spec.src).switch,
                topo.endpoint(spec.dst).switch,
            )],
        })
        .collect();
    RoutingTables::from_paths_with(topo, paths, VcPolicy::SingleVc).unwrap()
}

fn entries(topo: &Topology, tables: &RoutingTables) -> usize {
    topo.switch_ids()
        .map(|s| tables.switch_table(s).flow_entries())
        .sum()
}

#[test]
fn destination_keyed_mesh_tables_answer_as_the_per_flow_oracle() {
    for (w, h) in [(4, 4), (8, 8), (5, 3)] {
        let topo = mesh(w, h).unwrap();
        let n = topo.switch_count();
        let diameter = topo.diameter().unwrap();
        for (pattern, flows) in pattern_flows(&topo) {
            let what = format!("{pattern}@mesh{w}x{h}");
            // XY always; the wrapping algorithm too while nothing can
            // be labelled above VC 0 (a mesh has no wrap links — which
            // also means only neighbours can route with it: a far
            // pair's shorter way around does not exist).
            let mut combos = vec![
                (RouteAlgorithm::Xy, VcPolicy::SingleVc),
                (RouteAlgorithm::Xy, VcPolicy::Dateline),
            ];
            if pattern == "nearest_neighbor" {
                combos.push((RouteAlgorithm::TorusXy, VcPolicy::SingleVc));
                combos.push((RouteAlgorithm::TorusXy, VcPolicy::Dateline));
            }
            for (algo, policy) in combos {
                let tables = RoutingTables::compute_with(&topo, &flows, algo, policy).unwrap();
                assert_eq!(tables.key(), RouteKey::Destination, "{what}");
                assert_eq!(tables.flow_count(), flows.len(), "{what}");
                assert_eq!(tables.max_vc(), 0, "{what}");
                assert_eq!(tables.max_alternatives(), 1, "{what}");
                let want = oracle(&topo, &flows);
                assert_eq!(want.key(), RouteKey::Flow, "{what}: explicit paths");

                // (a) same answer at every switch the flow visits, and
                // entries only at visited (switch, destination) pairs.
                let mut visited = std::collections::BTreeSet::new();
                for (fp, got) in want.flows().iter().zip(tables.flows().iter()) {
                    let flow = fp.spec.flow;
                    for &s in &fp.paths[0] {
                        assert_eq!(
                            tables.lookup(s, flow),
                            want.lookup(s, flow),
                            "{what} {flow} at {s}"
                        );
                        visited.insert((s, fp.spec.dst));
                    }
                    // (b) on-demand paths and labels are the oracle's.
                    assert_eq!(got, fp, "{what}: path of {flow}");
                    assert_eq!(
                        tables.path_vcs(flow, 0),
                        want.path_vcs(flow, 0),
                        "{what} {flow}"
                    );
                    assert!(tables.path_vcs(flow, 0).iter().all(|&vc| vc == VcId::ZERO));
                }
                assert_eq!(
                    entries(&topo, &tables),
                    visited.len(),
                    "{what}: visited pairs only"
                );
                for s in topo.switch_ids() {
                    for (key, _) in tables.switch_table(s).entries() {
                        let dst = nocem_common::ids::EndpointId::new(key);
                        assert!(
                            visited.contains(&(s, dst)),
                            "{what}: stray entry {dst} at {s}"
                        );
                    }
                }
                match pattern {
                    "uniform_random" | "hotspot" => {
                        assert_eq!(visited.len(), n * n, "{what}: every pair is crossed")
                    }
                    "transpose" => assert!(visited.len() <= flows.len() * (diameter + 1), "{what}"),
                    _ => {}
                }
                assert!(
                    entries(&topo, &tables) <= entries(&topo, &want),
                    "{what}: never more entries than per flow"
                );

                // Unknown flows have no answer anywhere.
                let unknown = FlowId::new(flows.len() as u32);
                assert!(topo
                    .switch_ids()
                    .all(|s| tables.lookup(s, unknown).is_empty()));

                // The table-built CDG agrees with the path-built one.
                check_routing_deadlock_freedom(&topo, &want).unwrap();
                check_routing_deadlock_freedom(&topo, &tables).unwrap();

                // Link-load prediction reads the on-demand paths.
                let loads = vec![0.1; flows.len()];
                assert_eq!(
                    predict_link_loads(&topo, &tables.flows(), &loads, SplitModel::PrimaryOnly),
                    predict_link_loads(&topo, &want.flows(), &loads, SplitModel::PrimaryOnly),
                    "{what}: predicted loads"
                );
            }
        }
    }
}

#[test]
fn destination_keys_follow_the_flow_numbering_not_the_flow_order() {
    // Flow ids that are not their own index (here: reversed) still
    // translate to the right destination.
    let topo = mesh(3, 3).unwrap();
    let mut flows = pattern_flows(&topo).remove(0).1;
    let last = flows.len() as u32 - 1;
    for f in &mut flows {
        f.flow = FlowId::new(last - f.flow.raw());
    }
    let tables = RoutingTables::compute(&topo, &flows, RouteAlgorithm::Xy).unwrap();
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
    for tables in [
        RoutingTables::compute(&topo, &flows, RouteAlgorithm::Xy).unwrap(),
        RoutingTables::compute(&topo, &flows, RouteAlgorithm::Shortest).unwrap(),
    ] {
        let copy = tables.clone();
        let s = SwitchId::new(5);
        assert!(
            std::ptr::eq(tables.switch_table(s), copy.switch_table(s)),
            "clone() shares the tables"
        );
    }
}

#[test]
fn source_dependent_routing_stays_flow_keyed() {
    // (c) Entry counts are the parent commit's: one entry per switch
    // of every flow's path.
    let path_switches = |tables: &RoutingTables| -> usize {
        tables
            .flows()
            .iter()
            .flat_map(|fp| &fp.paths)
            .map(Vec::len)
            .sum()
    };

    // torus8x8, uniform-random, minimal routing over the wrap links.
    let t = torus(8, 8).unwrap();
    let flows = pattern_flows(&t).remove(0).1;
    let tables =
        RoutingTables::compute_with(&t, &flows, RouteAlgorithm::TorusXy, VcPolicy::Dateline)
            .unwrap();
    assert_eq!(tables.key(), RouteKey::Flow);
    assert_eq!(tables.max_vc(), 1);
    assert_eq!(entries(&t, &tables), 20_416);
    assert_eq!(entries(&t, &tables), path_switches(&tables));
    check_routing_deadlock_freedom(&t, &tables).unwrap();

    // ring8, uniform-random, shorter arc with a dateline.
    let r = ring(8).unwrap();
    let flows = flows_of(
        &r,
        (0..8u32).flat_map(|s| {
            (0..8u32)
                .filter(move |&d| d != s)
                .map(move |d| (SwitchId::new(s), SwitchId::new(d)))
        }),
    );
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
    assert_eq!(tables.key(), RouteKey::Flow);
    assert_eq!(entries(&r, &tables), 184);
    check_routing_deadlock_freedom(&r, &tables).unwrap();

    // The paper set-up: explicit paths, single and dual.
    let p = paper_setup();
    for (tables, count, alternatives) in [(p.primary_routing(), 10, 1), (p.dual_routing(), 20, 2)] {
        assert_eq!(tables.key(), RouteKey::Flow);
        assert_eq!(entries(&p.topology, &tables), count);
        assert_eq!(tables.max_alternatives(), alternatives);
        check_routing_deadlock_freedom(&p.topology, &tables).unwrap();
    }

    // Shortest-path routing is per flow even on a mesh.
    let m = mesh(4, 4).unwrap();
    let flows = FlowSpec::all_pairs(&m);
    let tables = RoutingTables::compute(&m, &flows, RouteAlgorithm::Shortest).unwrap();
    assert_eq!(tables.key(), RouteKey::Flow);
}

#[test]
fn single_vc_torus_routing_is_destination_keyed_and_checked_from_the_tables() {
    // Without a second VC the wrapping hop function depends on the
    // destination alone, so the tables are destination-keyed — and the
    // table-built CDG must reach the parent commit's verdicts: rings
    // of 3 and 4 never chain two hops into the wrap link (ties go
    // direct), rings of 5 and more close the cycle the dateline
    // breaks, and the first cycle found is the same one.
    let parent_verdict = [
        (3, None),
        (4, None),
        (
            5,
            Some("channel dependency cycle: l0/v0 l4/v0 l8/v0 l12/v0 l16/v0"),
        ),
        (
            8,
            Some(
                "channel dependency cycle: \
                 l0/v0 l4/v0 l8/v0 l12/v0 l16/v0 l20/v0 l24/v0 l28/v0",
            ),
        ),
    ];
    for (side, verdict) in parent_verdict {
        let t = torus(side, side).unwrap();
        let n = t.switch_count();
        let flows = pattern_flows(&t).remove(0).1;
        let tables =
            RoutingTables::compute_with(&t, &flows, RouteAlgorithm::TorusXy, VcPolicy::SingleVc)
                .unwrap();
        assert_eq!(tables.key(), RouteKey::Destination);
        assert_eq!(entries(&t, &tables), n * n);
        let got = check_routing_deadlock_freedom(&t, &tables);
        assert_eq!(
            got.as_ref().err().map(ToString::to_string).as_deref(),
            verdict
        );
        if let Err(cycle) = got {
            assert_eq!(cycle.links.len(), cycle.vcs.len(), "per-VC cycle report");
        }

        // The walked paths wrap, exactly like the paths the dateline
        // tables keep; those are flow-keyed and safe on two VCs.
        let dateline =
            RoutingTables::compute_with(&t, &flows, RouteAlgorithm::TorusXy, VcPolicy::Dateline)
                .unwrap();
        assert_eq!(dateline.key(), RouteKey::Flow);
        assert_eq!(dateline.max_vc(), 1);
        for (walked, kept) in tables.flows().iter().zip(dateline.flows().iter()) {
            assert_eq!(walked.paths, kept.paths, "{}", kept.spec.flow);
        }
        check_routing_deadlock_freedom(&t, &dateline).unwrap();

        // XY never takes a wrap link: safe on one VC, even on a torus.
        let xy = RoutingTables::compute(&t, &flows, RouteAlgorithm::Xy).unwrap();
        assert_eq!(xy.key(), RouteKey::Destination);
        check_routing_deadlock_freedom(&t, &xy).unwrap();
    }
}

#[test]
fn a_missing_link_names_a_flow_that_needs_it() {
    // TorusXy on a mesh: the far pairs want wrap links that are not
    // there. Same error type as the per-flow construction gave.
    let topo = mesh(6, 1).unwrap();
    let flows = pattern_flows(&topo).remove(0).1;
    let err =
        RoutingTables::compute_with(&topo, &flows, RouteAlgorithm::TorusXy, VcPolicy::SingleVc)
            .unwrap_err();
    let nocem_topology::TopologyError::InvalidPath { flow, reason } = err else {
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
}
