//! Route keys end to end: which platforms route by destination, that
//! the compiler's analyses see the same paths either way, that all
//! three stepping engines stay ledger-identical per cycle on
//! destination-keyed tables, and that the direct route map is back at
//! mesh16x16 and mesh32x32.
//!
//! (The table-level equivalence with the per-flow construction lives
//! in `crates/topology/tests/route_keys.rs`.)

use nocem::clock::{EngineSummary, SteppableEngine};
use nocem::compile::{compute_routing, elaborate, elaborate_routed, lower};
use nocem::config::{EngineKind, PaperConfig, PaperRouting, PlatformConfig, TrafficModel};
use nocem::engine::build;
use nocem::shard::build_engine;
use nocem_common::ids::SwitchId;
use nocem_scenarios::registry::ScenarioRegistry;
use nocem_scenarios::scenario::TopologySpec;
use nocem_topology::analysis::{predict_link_loads, SplitModel};
use nocem_topology::routing::{FlowPaths, Path, RouteKey, RoutingTables, VcPolicy};
use nocem_topology::Topology;

const fn mesh(side: u32) -> TopologySpec {
    TopologySpec::Mesh {
        width: side,
        height: side,
    }
}

fn scenario(name: &str, topo: TopologySpec, load: f64, packets: u64) -> PlatformConfig {
    ScenarioRegistry::builtin()
        .resolve(name)
        .unwrap()
        .build_config(topo, load, 4, packets)
        .unwrap()
}

fn route_entries(cfg: &PlatformConfig, routing: &RoutingTables) -> usize {
    cfg.topology
        .switch_ids()
        .map(|s| routing.switch_table(s).flow_entries())
        .sum()
}

#[test]
fn every_builtin_mesh_scenario_routes_by_destination_and_passes_the_table_cdg() {
    let registry = ScenarioRegistry::builtin();
    for topo in [mesh(4), mesh(8)] {
        let mut applicable = 0;
        for s in registry.iter() {
            let Ok(cfg) = s.build_config(topo, 0.1, 4, 100) else {
                continue; // pattern not applicable to this mesh
            };
            applicable += 1;
            // `compute_routing` runs the (link, VC) deadlock check.
            let routing = compute_routing(&cfg).unwrap_or_else(|e| panic!("{}: {e}", cfg.name));
            assert_eq!(routing.key(), RouteKey::Destination, "{}", cfg.name);
            let n = cfg.topology.switch_count();
            assert!(route_entries(&cfg, &routing) <= n * n, "{}", cfg.name);
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
    let torus = TopologySpec::Torus {
        width: 8,
        height: 8,
    };
    let ring = TopologySpec::Ring { switches: 8 };
    // Entry counts of the parent commit (one per switch of each path).
    for (cfg, entries) in [
        (scenario("uniform_random", torus, 0.1, 100), 20_416),
        (scenario("uniform_random", ring, 0.1, 100), 184),
        (PaperConfig::new().uniform(), 10),
        (
            PaperConfig::new()
                .routing(PaperRouting::Dual {
                    secondary_probability: 0.5,
                })
                .uniform(),
            20,
        ),
    ] {
        let routing = compute_routing(&cfg).unwrap();
        assert_eq!(routing.key(), RouteKey::Flow, "{}", cfg.name);
        assert_eq!(route_entries(&cfg, &routing), entries, "{}", cfg.name);
    }
}

/// Dimension-ordered path on a mesh — the per-flow construction the
/// library had before tables were keyed by destination.
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
        let cfg = scenario("transpose", mesh(side), 0.1, 100);
        let elab = elaborate(&cfg).unwrap();
        assert_eq!(elab.routing.key(), RouteKey::Destination);
        let got = elab
            .predicted_loads
            .as_ref()
            .expect("fixed destinations predict");

        let topo = &cfg.topology;
        let paths: Vec<FlowPaths> = cfg
            .flows
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
        let per_flow = RoutingTables::from_paths_with(topo, paths, VcPolicy::SingleVc).unwrap();
        let offered: Vec<f64> = cfg
            .generators
            .iter()
            .map(|g| match g {
                TrafficModel::Uniform(u) => u.offered_load(),
                other => panic!("scenarios build uniform generators, got {other:?}"),
            })
            .collect();
        let want = predict_link_loads(topo, &per_flow.flows(), &offered, SplitModel::PrimaryOnly);
        assert_eq!(got, &want, "transpose@mesh{side}x{side}");
        let busiest = got.iter().copied().fold(0.0, f64::max);
        assert!(busiest > offered[0] + 1e-9, "transpose shares links");
        elab.ensure_not_overloaded().unwrap();
    }
}

/// Steps `engine` in lockstep with the interpreted reference: equal
/// clock and equal ledger after every cycle, then equal behaviour.
fn assert_lockstep(cfg: &PlatformConfig, engine: &mut dyn SteppableEngine) -> EngineSummary {
    let mut reference = build(cfg).unwrap();
    while !reference.finished() {
        reference.step().unwrap();
        engine.step().unwrap();
        assert_eq!(engine.now(), reference.now(), "clock on {}", cfg.name);
        assert_eq!(
            engine.packet_ledger(),
            *reference.ledger(),
            "ledger at cycle {} on {}",
            reference.now().raw(),
            cfg.name
        );
    }
    assert!(engine.finished(), "stop condition lagged on {}", cfg.name);
    let (got, want) = (engine.summary(), SteppableEngine::summary(&reference));
    assert_eq!(got.behavioral(), want.behavioral(), "{}", cfg.name);
    got
}

#[test]
fn all_three_engines_are_ledger_identical_per_cycle_on_destination_keys() {
    for (name, load, packets) in [
        ("uniform_random", 0.05, 300),
        ("uniform_random", 0.40, 500),
        ("transpose", 0.20, 300),
    ] {
        let cfg = scenario(name, mesh(8), load, packets);
        assert_eq!(compute_routing(&cfg).unwrap().key(), RouteKey::Destination);
        for kind in [
            EngineKind::Compiled,
            EngineKind::ShardedCompiled {
                shards: 2,
                batch: 8,
            },
        ] {
            let mut engine = build_engine(&cfg.clone().with_engine(kind)).unwrap();
            let summary = assert_lockstep(&cfg, engine.as_mut());
            assert_eq!(summary.delivered, packets, "{} on {kind:?}", cfg.name);
        }
    }
}

#[test]
fn mesh16_and_mesh32_get_the_direct_route_map_back() {
    // Counts only — no timing. mesh32x32 uniform-random is 1 047 552
    // flows; keyed by flow its tables could not be direct-mapped from
    // mesh12x12 up.
    for side in [16u32, 32] {
        let cfg = scenario("uniform_random", mesh(side), 0.02, 100);
        let n = (side * side) as usize;
        assert_eq!(cfg.flows.len(), n * (n - 1));
        let routing = compute_routing(&cfg).unwrap();
        assert_eq!(routing.flow_count(), n * (n - 1));
        assert_eq!(route_entries(&cfg, &routing), n * n);
        let low = lower(&elaborate_routed(&cfg, routing).unwrap());
        assert_eq!(low.route_key, RouteKey::Destination);
        assert_eq!(low.route_keys.len(), n * n, "route entries == switches²");
        assert_eq!(low.route_key_space, cfg.topology.endpoint_count());
        assert_eq!(low.route_direct.len(), n * low.route_key_space);
        assert!(!low.route_direct.is_empty(), "mesh{side}x{side}");
    }
}
