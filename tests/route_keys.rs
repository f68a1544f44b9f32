//! Routing end to end: which platforms route arithmetically and which
//! keep flow-keyed tables, that the compiler's analyses see the same
//! paths either way, that all three stepping engines stay
//! ledger-identical per cycle on the grid router (dateline tori
//! included), that lowering shares the elaboration's router or tables
//! (a grid holds no route entries at any size), and that a destination
//! the router cannot answer for, or explicit paths for other than the
//! registered flows, are set-up errors.
//!
//! (The hop-level equivalence with the per-flow construction lives in
//! `crates/topology/tests/route_keys.rs`.)

mod support;

use nocem::compile::{compute_routing, elaborate, elaborate_routed, lower};
use nocem::config::{PaperConfig, PaperRouting, PlatformConfig, RoutingSpec, TrafficModel};
use nocem::error::CompileError;
use nocem_common::ids::SwitchId;
use nocem_scenarios::registry::ScenarioRegistry;
use nocem_scenarios::scenario::TopologySpec;
use nocem_topology::analysis::{predict_link_loads, SplitModel};
use nocem_topology::routing::{FlowPaths, Path, RouteAlgorithm, RoutingTables, VcPolicy};
use nocem_topology::{EndpointKind, Topology, TopologyError};
use nocem_traffic::generator::DestinationModel;
use support::{against_emulation, mesh, rejects_alike, ring, scenario, torus, Backend};

fn route_entries(cfg: &PlatformConfig, routing: &RoutingTables) -> usize {
    cfg.topology
        .switch_ids()
        .map(|s| routing.switch_table(s).flow_entries())
        .sum()
}

#[test]
fn every_builtin_grid_scenario_routes_arithmetically_and_passes_the_deadlock_check() {
    let registry = ScenarioRegistry::builtin();
    for topo in [mesh(4, 4), mesh(8, 8), torus(4, 4), torus(8, 8)] {
        let mut applicable = 0;
        for s in registry.iter() {
            let Ok(cfg) = s.build_config(topo, 0.1, 4, 100) else {
                continue; // pattern not applicable to this grid
            };
            applicable += 1;
            // `compute_routing` runs the (link, VC) deadlock check.
            let routing = compute_routing(&cfg).unwrap_or_else(|e| panic!("{}: {e}", cfg.name));
            assert!(routing.grid_router().is_some(), "{}", cfg.name);
            assert_eq!(route_entries(&cfg, &routing), 0, "{}", cfg.name);
            assert_eq!(routing.flow_count(), cfg.flows.len(), "{}", cfg.name);
            // No caller can see a flow without its path.
            for fp in routing.flows().iter() {
                let path = &fp.paths[0];
                assert_eq!(path[0], cfg.topology.endpoint(fp.spec.src).switch);
                assert_eq!(
                    *path.last().unwrap(),
                    cfg.topology.endpoint(fp.spec.dst).switch
                );
            }
        }
        assert!(applicable >= 8, "{}: {applicable} scenarios", topo.name());
    }
}

#[test]
fn source_dependent_platforms_stay_flow_keyed() {
    let star = nocem_topology::builders::star(6).unwrap();
    // Entry counts of the parent commit (one per switch of each path).
    for (cfg, entries) in [
        (scenario("uniform_random", ring(8), 0.1, 4, 100), 184),
        (PaperConfig::new().uniform(), 10),
        (
            PaperConfig::new()
                .routing(PaperRouting::Dual {
                    secondary_probability: 0.5,
                })
                .uniform(),
            20,
        ),
        // Shortest paths between a leaf's own TG and TR: one switch.
        (PlatformConfig::baseline("star6", star).unwrap(), 6),
    ] {
        let routing = compute_routing(&cfg).unwrap();
        assert!(routing.grid_router().is_none(), "{}", cfg.name);
        assert_eq!(route_entries(&cfg, &routing), entries, "{}", cfg.name);
        // Lowering shares the tables: each switch of the compiled
        // kernels reads the elaboration's own, never a copy.
        let low = lower(&elaborate_routed(&cfg, routing.clone()).unwrap());
        assert!(low.router.is_none(), "{}", cfg.name);
        for s in cfg.topology.switch_ids() {
            assert!(
                std::ptr::eq(low.routing.switch_table(s), routing.switch_table(s)),
                "{}: switch {s}",
                cfg.name
            );
        }
    }
}

/// Dimension-ordered path on a mesh — the per-flow construction the
/// library had before routing on grids became arithmetic.
fn xy_path(topo: &Topology, from: SwitchId, to: SwitchId) -> Path {
    let grid = topo.grid().unwrap();
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

#[test]
fn transpose_mesh_predicted_loads_are_the_per_flow_values() {
    for side in [4, 8] {
        let cfg = scenario("transpose", mesh(side, side), 0.1, 4, 100);
        let elab = elaborate(&cfg).unwrap();
        assert!(elab.routing.grid_router().is_some());

        let topo = &cfg.topology;
        let paths: Vec<FlowPaths> = cfg
            .flows
            .iter()
            .map(|spec| FlowPaths {
                spec,
                paths: vec![xy_path(
                    topo,
                    topo.endpoint(spec.src).switch,
                    topo.endpoint(spec.dst).switch,
                )],
            })
            .collect();
        let per_flow = RoutingTables::from_paths_with(topo, paths, VcPolicy::SingleVc).unwrap();
        let offered: Vec<f64> = cfg
            .generators
            .iter()
            .map(|g| match g {
                TrafficModel::Uniform(u) => u.offered_load(),
                other => panic!("scenarios build uniform generators, got {other:?}"),
            })
            .collect();
        let got = predict_link_loads(
            topo,
            &elab.routing.flows(),
            &offered,
            SplitModel::PrimaryOnly,
        );
        let want = predict_link_loads(topo, &per_flow.flows(), &offered, SplitModel::PrimaryOnly);
        assert_eq!(got, want, "transpose@mesh{side}x{side}");
        let busiest = got.iter().copied().fold(0.0, f64::max);
        assert!(busiest > offered[0] + 1e-9, "transpose shares links");
        assert!(
            busiest <= 1.0,
            "transpose@mesh{side}x{side} overloads a link"
        );
    }
}

#[test]
fn all_three_engines_are_ledger_identical_per_cycle_on_the_grid_router() {
    // The interpreted switch asks the router with the port and VC it
    // iterates over, the compiled kernels derive them from the slot:
    // a disagreement shows as soon as a dateline packet takes VC 1.
    for (name, topo, load, packets) in [
        ("uniform_random", mesh(8, 8), 0.05, 300),
        ("uniform_random", mesh(8, 8), 0.40, 500),
        ("transpose", mesh(8, 8), 0.20, 300),
        ("uniform_random", torus(8, 8), 0.05, 300),
        ("uniform_random", torus(8, 8), 0.40, 500),
        ("tornado", torus(8, 8), 0.20, 300),
    ] {
        let cfg = scenario(name, topo, load, 4, packets);
        let routing = compute_routing(&cfg).unwrap();
        assert!(routing.grid_router().is_some(), "{}", cfg.name);
        assert_eq!(
            routing.max_vc(),
            u8::from(matches!(topo, TopologySpec::Torus { .. })),
            "{}: tori wrap onto VC 1",
            cfg.name
        );
        let subjects = against_emulation(&cfg, &[Backend::Compiled, Backend::Sharded(2, 8)]);
        for s in subjects {
            assert_eq!(s.engine.summary().delivered, packets, "{}", s.name);
        }
    }
}

#[test]
fn grids_lower_to_a_router_and_no_route_arrays() {
    // Counts only — no timing. mesh32x32 uniform-random is 1 047 552
    // flows (1 048 576 destination-keyed entries at the parent
    // commit); torus16x16 was one entry per flow per hop.
    for topo in [mesh(32, 32), torus(16, 16)] {
        let cfg = scenario("uniform_random", topo, 0.02, 4, 100);
        let n = cfg.topology.switch_count();
        assert_eq!(cfg.flows.len(), n * (n - 1));
        let routing = compute_routing(&cfg).unwrap();
        assert_eq!(routing.flow_count(), n * (n - 1));
        assert_eq!(route_entries(&cfg, &routing), 0, "{}", cfg.name);
        let low = lower(&elaborate_routed(&cfg, routing.clone()).unwrap());
        let router = low.router.as_ref().expect("grids lower to a router");
        assert!(std::sync::Arc::ptr_eq(
            router,
            routing.grid_router().unwrap()
        ));
        assert_eq!(route_entries(&cfg, &low.routing), 0, "{}", cfg.name);
    }
}

#[test]
fn a_destination_that_is_no_receptor_fails_at_set_up_on_every_engine() {
    // The grid router answers for receptors only; what keeps any other
    // destination away from it is set-up validation, never a check
    // (or a panic) mid-run.
    let mut cfg = scenario("transpose", mesh(4, 4), 0.1, 4, 100);
    assert!(matches!(
        cfg.routing,
        RoutingSpec::Algorithm(RouteAlgorithm::Xy)
    ));
    let generators = cfg.topology.generators();
    let (victim, stray) = (1, generators[2]);
    let TrafficModel::Uniform(model) = &mut cfg.generators[victim] else {
        panic!("scenarios build uniform generators");
    };
    let DestinationModel::Fixed { flow, .. } = model.destination else {
        panic!("transpose has fixed destinations");
    };
    model.destination = DestinationModel::Fixed { dst: stray, flow };

    // Every engine, the interpreted one included, at build.
    let engines = [
        Backend::Compiled,
        Backend::Sharded(2, 8),
        Backend::DirectCompiled,
        Backend::Tlm,
        Backend::Rtl,
    ];
    // Emitted but not registered: the traffic does not match the flows.
    let err = rejects_alike(&cfg, &engines);
    assert!(matches!(err, CompileError::TrafficMismatch { .. }), "{err}");
    // Registered as well: the flow list itself is wrong.
    let mut listed = cfg.flows.to_listed();
    listed[flow.index()].dst = stray;
    cfg.flows = listed.into();
    let wrong_kind = CompileError::Topology(TopologyError::WrongEndpointKind {
        endpoint: stray,
        expected: EndpointKind::Receptor,
    });
    assert_eq!(compute_routing(&cfg).unwrap_err(), wrong_kind);
    assert_eq!(rejects_alike(&cfg, &engines), wrong_kind);
}

#[test]
fn explicit_paths_for_other_than_the_registered_flows_fail_at_set_up_on_every_engine() {
    // A flow without paths would die mid-run in a switch's "no routing
    // entry" assertion, and the table builder keys its VC labels by
    // flow id. Set-up refuses paths for another number of flows than
    // are registered, and the table builder refuses a flow given twice
    // — called directly, it refuses every id it cannot key.
    let base = PaperConfig::new().total_packets(200).uniform();
    let RoutingSpec::Explicit(paths) = &base.routing else {
        panic!("the paper platform routes explicitly");
    };
    let mut dropped = paths.clone();
    dropped.remove(1);
    let mut doubled = paths.clone();
    doubled[0] = paths[1].clone();
    let engines = [
        Backend::Compiled,
        Backend::Sharded(2, 8),
        Backend::DirectCompiled,
        Backend::Tlm,
        Backend::Rtl,
    ];
    for (case, explicit) in [
        ("flow 1's paths dropped", dropped),
        ("flow 3's paths alone", vec![paths[3].clone()]),
        ("flow 1's paths in place of flow 0's", doubled),
    ] {
        let mut cfg = base.clone();
        cfg.name = format!("{}, {case}", base.name);
        cfg.routing = RoutingSpec::Explicit(explicit.clone());
        let counted = explicit.len() == paths.len();
        let refused = RoutingTables::from_paths_with(&cfg.topology, explicit, VcPolicy::SingleVc)
            .unwrap_err();
        assert!(
            matches!(refused, TopologyError::InvalidPath { .. }),
            "{case}: {refused}"
        );
        let err = rejects_alike(&cfg, &engines);
        if counted {
            assert_eq!(err, CompileError::Topology(refused), "{case}");
        } else {
            assert!(
                matches!(err, CompileError::TrafficMismatch { .. }),
                "{case}: {err}"
            );
        }
    }
}
