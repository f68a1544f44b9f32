//! Property-based tests over randomly sized topologies: routing tables
//! always deliver, XY routing is deadlock-free on meshes, and the
//! analytic link-load prediction conserves offered traffic.

use nocem_common::choice::check;
use nocem_common::ids::{FlowId, SwitchId};
use nocem_common::{prop_assert, prop_assert_eq};
use nocem_topology::analysis::{predict_link_loads, SplitModel};
use nocem_topology::builders::{mesh, ring, star, torus};
use nocem_topology::deadlock::check_routing_deadlock_freedom;
use nocem_topology::graph::Topology;
use nocem_topology::routing::{FlowSpec, RouteAlgorithm, RoutingTables};

/// Walks a flow's routing tables from its source switch, always taking
/// the first admissible port, and asserts the walk reaches the
/// destination switch without revisiting any switch.
fn walk_delivers(topo: &Topology, tables: &RoutingTables, spec: &FlowSpec) {
    let mut here = topo.endpoint(spec.src).switch;
    let goal = topo.endpoint(spec.dst).switch;
    let mut visited = vec![false; topo.switch_count()];
    while here != goal {
        assert!(!visited[here.raw() as usize], "routing loop at {here}");
        visited[here.raw() as usize] = true;
        let ports = tables.lookup(here, spec.flow);
        assert!(
            !ports.is_empty(),
            "flow {} has no route at {here}",
            spec.flow
        );
        // Follow the primary port to the next switch.
        let link = topo.out_link(here, ports[0].port);
        here = topo
            .link(link)
            .to_switch()
            .expect("primary port of a non-final switch is inter-switch");
    }
    // At the destination switch the flow must have an ejection entry.
    let ports = tables.lookup(goal, spec.flow);
    assert!(!ports.is_empty(), "no ejection entry at {goal}");
    let link = topo.out_link(goal, ports[0].port);
    assert_eq!(
        topo.link(link).to_switch(),
        None,
        "final hop must leave the switch graph"
    );
}

/// Every routing algorithm delivers every one-to-one flow.
fn check_all_algorithms(topo: &Topology, use_xy: bool) {
    let flows = FlowSpec::one_to_one(topo).unwrap();
    let mut algos = vec![RouteAlgorithm::Shortest, RouteAlgorithm::KShortest(2)];
    if use_xy {
        algos.push(RouteAlgorithm::Xy);
    }
    for algo in algos {
        let tables = RoutingTables::compute(topo, &flows.clone().into(), algo)
            .unwrap_or_else(|e| panic!("{algo:?} failed: {e}"));
        for spec in &flows {
            walk_delivers(topo, &tables, spec);
        }
    }
}

/// Meshes of any size route every flow with every algorithm.
#[test]
fn mesh_routes_deliver() {
    check("mesh_routes_deliver", 0..24, |c| {
        let (w, h) = (c.range(1u32..6), c.range(1u32..6));
        let topo = mesh(w, h).unwrap();
        check_all_algorithms(&topo, true);
        Ok(())
    });
}

/// Tori of any size route every flow (XY needs no wraparound
/// awareness to remain correct: it just ignores the wrap links).
#[test]
fn torus_routes_deliver() {
    check("torus_routes_deliver", 0..24, |c| {
        let (w, h) = (c.range(2u32..6), c.range(2u32..6));
        let topo = torus(w, h).unwrap();
        check_all_algorithms(&topo, false);
        Ok(())
    });
}

/// Rings and stars route every flow.
#[test]
fn ring_and_star_routes_deliver() {
    check("ring_and_star_routes_deliver", 0..24, |c| {
        let n = c.range(2u32..12);
        check_all_algorithms(&ring(n).unwrap(), false);
        check_all_algorithms(&star(n.max(2)).unwrap(), false);
        Ok(())
    });
}

/// XY routing on a mesh is deadlock-free (the classic result:
/// dimension order admits no cyclic channel dependency).
#[test]
fn xy_routing_is_deadlock_free() {
    check("xy_routing_is_deadlock_free", 0..24, |c| {
        let (w, h) = (c.range(2u32..6), c.range(2u32..6));
        let topo = mesh(w, h).unwrap();
        let flows = FlowSpec::all_pairs(&topo);
        let tables =
            RoutingTables::compute(&topo, &flows.clone().into(), RouteAlgorithm::Xy).unwrap();
        check_routing_deadlock_freedom(&topo, &tables).unwrap();
        Ok(())
    });
}

/// Shortest-path one-to-one routing on a ring uses both directions
/// but stays deadlock-free (paths shorter than half the ring never
/// close the cycle).
#[test]
fn ring_shortest_paths_are_deadlock_free() {
    check("ring_shortest_paths_are_deadlock_free", 0..24, |c| {
        let n = c.range(2u32..10);
        let topo = ring(n).unwrap();
        let flows = FlowSpec::one_to_one(&topo).unwrap();
        let tables =
            RoutingTables::compute(&topo, &flows.clone().into(), RouteAlgorithm::Shortest).unwrap();
        check_routing_deadlock_freedom(&topo, &tables).unwrap();
        Ok(())
    });
}

/// Link-load prediction conserves traffic: summed over the
/// injection links it equals the total offered load, and no link
/// exceeds the sum of all offered loads.
#[test]
fn predicted_loads_conserve_offered_traffic() {
    check("predicted_loads_conserve_offered_traffic", 0..24, |c| {
        let (w, h) = (c.range(1u32..5), c.range(1u32..5));
        let loads = (0..25).map(|_| c.range(0.01f64..0.9)).collect::<Vec<_>>();
        let topo = mesh(w, h).unwrap();
        let flows = FlowSpec::one_to_one(&topo).unwrap();
        let tables =
            RoutingTables::compute(&topo, &flows.clone().into(), RouteAlgorithm::Shortest).unwrap();
        let offered: Vec<f64> = flows
            .iter()
            .map(|f| loads[f.flow.raw() as usize % loads.len()])
            .collect();
        let predicted =
            predict_link_loads(&topo, &tables.flows(), &offered, SplitModel::PrimaryOnly);

        let total: f64 = offered.iter().sum();
        // Injection links carry exactly their generator's offered load.
        for (spec, &load) in flows.iter().zip(&offered) {
            let inj = topo.endpoint(spec.src).link;
            prop_assert!((predicted[inj.index()] - load).abs() < 1e-9);
        }
        for (l, &p) in predicted.iter().enumerate() {
            prop_assert!(p <= total + 1e-9, "link {l} predicted above total offered");
            prop_assert!(p >= -1e-9);
        }
        Ok(())
    });
}

/// The BFS diameter is antitone in connectivity: a torus never has
/// a larger diameter than the same-size mesh.
#[test]
fn torus_diameter_never_exceeds_mesh() {
    check("torus_diameter_never_exceeds_mesh", 0..24, |c| {
        let (w, h) = (c.range(2u32..6), c.range(2u32..6));
        let m = mesh(w, h).unwrap().diameter().unwrap();
        let t = torus(w, h).unwrap().diameter().unwrap();
        prop_assert!(t <= m, "torus {t} vs mesh {m}");
        Ok(())
    });
}

/// Every switch of a built topology has at least one input and one
/// output port, and link lookup tables are mutually consistent.
#[test]
fn built_topologies_are_internally_consistent() {
    check("built_topologies_are_internally_consistent", 0..24, |c| {
        let n = c.range(2u32..10);
        for topo in [ring(n).unwrap(), star(n).unwrap()] {
            for s in topo.switch_ids() {
                let info = topo.switch(s);
                prop_assert!(info.inputs >= 1);
                prop_assert!(info.outputs >= 1);
            }
            let mut seen = vec![false; topo.link_count()];
            for s in topo.switch_ids() {
                let info = topo.switch(s);
                for p in 0..info.outputs {
                    let l = topo.out_link(s, nocem_common::ids::PortId::new(p));
                    prop_assert!(!seen[l.index()], "link doubly sourced");
                    seen[l.index()] = true;
                    prop_assert_eq!(topo.link(l).from_switch(), Some(s));
                }
            }
            // The remaining (unseen) links are injection links.
            for (i, s) in seen.iter().enumerate() {
                if !s {
                    let l = topo.link(nocem_common::ids::LinkId::new(i as u32));
                    prop_assert_eq!(l.from_switch(), None, "unsourced non-injection link");
                }
            }
        }
        Ok(())
    });
}

/// `FlowSpec::all_pairs` covers the full generator × receptor matrix
/// with dense flow ids.
#[test]
fn all_pairs_is_dense_and_complete() {
    let topo = mesh(3, 2).unwrap();
    let flows = FlowSpec::all_pairs(&topo);
    assert_eq!(flows.len(), 36);
    for (i, f) in flows.iter().enumerate() {
        assert_eq!(f.flow, FlowId::new(i as u32));
    }
}

/// The deadlock checker actually rejects a known-cyclic configuration:
/// four flows chasing each other around a 2x2 mesh.
#[test]
fn deadlock_checker_rejects_cyclic_routing() {
    use nocem_topology::routing::FlowPaths;
    let topo = mesh(2, 2).unwrap();
    let (gens, recs) = (topo.generators(), topo.receptors());
    let s = |i: u32| SwitchId::new(i);
    // Mesh 2x2 switch ids: 0 1 / 2 3. A cycle 0→1→3→2→0 where every
    // flow holds one edge and waits for the next; each flow runs from
    // the generator at its first switch to the receptor at its last.
    let cyc = [
        vec![s(0), s(1), s(3)],
        vec![s(1), s(3), s(2)],
        vec![s(3), s(2), s(0)],
        vec![s(2), s(0), s(1)],
    ];
    let paths: Vec<FlowPaths> = cyc
        .into_iter()
        .enumerate()
        .map(|(i, p)| FlowPaths {
            spec: FlowSpec {
                flow: FlowId::new(i as u32),
                src: gens[p[0].index()],
                dst: recs[p[2].index()],
            },
            paths: vec![p],
        })
        .collect();
    let tables = RoutingTables::from_paths(&topo, paths).unwrap();
    let err = check_routing_deadlock_freedom(&topo, &tables);
    assert!(err.is_err(), "cyclic channel dependency must be detected");
    let cycle = err.unwrap_err();
    assert_eq!(cycle.links.len(), 4, "{cycle}");
    assert!(cycle.to_string().contains("cycle"));
}
