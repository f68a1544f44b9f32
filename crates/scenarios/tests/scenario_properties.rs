//! Property-based correctness tests for the scenario subsystem:
//! every synthetic pattern produces valid in-topology destinations,
//! deterministic patterns are true permutations, and expansion is
//! stable across calls.

use nocem::compile::elaborate;
use nocem_common::choice::{check, Choices};
use nocem_common::ids::SwitchId;
use nocem_common::{prop_assert, prop_assert_eq};
use nocem_scenarios::patterns::SyntheticPattern;
use nocem_scenarios::registry::ScenarioRegistry;
use nocem_scenarios::scenario::TopologySpec;
use nocem_topology::deadlock::check_routing_deadlock_freedom;
use nocem_topology::graph::EndpointKind;
use nocem_topology::Topology;
use nocem_traffic::generator::DestinationModel;

/// One of the eight built-in patterns.
fn pattern(c: &mut Choices) -> SyntheticPattern {
    SyntheticPattern::ALL[c.below(SyntheticPattern::ALL.len())]
}

/// A small but varied topology (meshes, tori, rings — including
/// square/non-square and power-of-two/odd switch counts).
fn topology_spec(c: &mut Choices) -> TopologySpec {
    let (kind, a, b) = (c.range(0u32..3), c.range(2u32..6), c.range(2u32..6));
    match kind {
        0 => TopologySpec::Mesh {
            width: a,
            height: b,
        },
        1 => TopologySpec::Torus {
            width: a,
            height: b,
        },
        _ => TopologySpec::Ring { switches: a * b },
    }
}

/// Destination endpoints and flows of a model, flattened.
fn model_targets(model: &DestinationModel) -> Vec<(nocem_common::ids::EndpointId, u32)> {
    model.pairs().map(|(d, f)| (d, f.raw())).collect()
}

/// Every applicable (pattern, topology) expansion yields
/// destinations that exist in the topology, are receptors, and
/// ride flows whose spec matches the generator's switch.
#[test]
fn patterns_yield_valid_in_topology_destinations() {
    check(
        "patterns_yield_valid_in_topology_destinations",
        0..48,
        |c| {
            let (p, spec) = (pattern(c), topology_spec(c));
            let topo: Topology = spec.build().expect("specs are non-degenerate");
            let Ok(traffic) = p.traffic(&topo) else {
                // Inapplicable combination — the typed error is the
                // contract; nothing further to check.
                return Ok(());
            };
            let generators = topo.generators();
            prop_assert_eq!(traffic.destinations.len(), generators.len());
            // Flow ids are dense.
            for (i, f) in traffic.flows.iter().enumerate() {
                prop_assert_eq!(f.flow.index(), i);
                prop_assert_eq!(topo.endpoint(f.src).kind, EndpointKind::Generator);
                prop_assert_eq!(topo.endpoint(f.dst).kind, EndpointKind::Receptor);
            }
            for (g, model) in generators.iter().zip(&traffic.destinations) {
                let src_switch = topo.endpoint(*g).switch;
                let targets = model_targets(model);
                prop_assert!(!targets.is_empty(), "generator with no destinations");
                for (dst, flow_raw) in targets {
                    // Destination endpoint exists and is a receptor.
                    prop_assert!((dst.index()) < topo.endpoint_count());
                    prop_assert_eq!(topo.endpoint(dst).kind, EndpointKind::Receptor);
                    // The flow is registered and matches (src TG, dst TR).
                    let flow = traffic
                        .flows
                        .get(nocem_common::ids::FlowId::new(flow_raw))
                        .expect("flow id in range");
                    prop_assert_eq!(flow.dst, dst);
                    prop_assert_eq!(topo.endpoint(flow.src).switch, src_switch);
                }
            }
            Ok(())
        },
    );
}

/// Deterministic patterns are true permutations of the switch
/// set: every switch appears exactly once as a destination.
#[test]
fn deterministic_patterns_are_permutations() {
    check("deterministic_patterns_are_permutations", 0..48, |c| {
        let (p, spec) = (pattern(c), topology_spec(c));
        let topo = spec.build().expect("specs are non-degenerate");
        let Ok(Some(map)) = p.permutation(&topo) else {
            return Ok(());
        };
        prop_assert_eq!(map.len(), topo.switch_count());
        let mut seen = vec![false; topo.switch_count()];
        for &dst in &map {
            prop_assert!(
                dst.index() < topo.switch_count(),
                "destination off-topology"
            );
            prop_assert!(!seen[dst.index()], "destination {} repeated", dst);
            seen[dst.index()] = true;
        }
        prop_assert!(seen.iter().all(|&s| s), "not a surjection");
        Ok(())
    });
}

/// Pattern expansion is deterministic: two expansions of the same
/// combination are identical (the scenario seed contract relies
/// on this).
#[test]
fn expansion_is_stable() {
    check("expansion_is_stable", 0..48, |c| {
        let (p, spec) = (pattern(c), topology_spec(c));
        let topo = spec.build().expect("specs are non-degenerate");
        let (Ok(a), Ok(b)) = (p.traffic(&topo), p.traffic(&topo)) else {
            return Ok(());
        };
        prop_assert_eq!(a.flows, b.flows);
        prop_assert_eq!(a.destinations.len(), b.destinations.len());
        for (x, y) in a.destinations.iter().zip(&b.destinations) {
            prop_assert_eq!(x, y);
        }
        Ok(())
    });
}

/// Deadlock freedom for the whole catalogue: every registry
/// scenario, bound to any mesh/torus/ring, compiles to routing
/// whose *per-VC* channel-dependency graph is acyclic —
/// `elaborate()` enforces it at compile time, and the tables are
/// re-checked directly here. On rings and tori this exercises the
/// minimal + dateline scheme (wrap-around links in use).
#[test]
fn every_scenario_routing_is_deadlock_free_per_vc() {
    check(
        "every_scenario_routing_is_deadlock_free_per_vc",
        0..48,
        |c| {
            let (idx, spec) = (c.range(0usize..16), topology_spec(c));
            let reg = ScenarioRegistry::builtin();
            let names = reg.names();
            let scenario = reg.resolve(names[idx % names.len()]).unwrap();
            let Ok(cfg) = scenario.build_config(spec, 0.2, 2, 64) else {
                // Inapplicable combination (pattern/topology mismatch,
                // unmappable core graph, budget floor) — a matrix skip.
                return Ok(());
            };
            let elab = elaborate(&cfg)
                .unwrap_or_else(|e| panic!("{} must compile deadlock-free: {e}", cfg.name));
            check_routing_deadlock_freedom(&cfg.topology, &elab.routing)
                .unwrap_or_else(|c| panic!("{}: {c}", cfg.name));
            prop_assert!(
                elab.routing.max_vc() < cfg.switch.num_vcs,
                "routing VCs stay within the switch configuration"
            );
            Ok(())
        },
    );
}

/// The tornado permutation never sends a packet more than half-way
/// around its dimension (the pattern's defining property).
#[test]
fn tornado_stays_within_half_way() {
    check("tornado_stays_within_half_way", 0..48, |c| {
        let spec = topology_spec(c);
        let topo = spec.build().expect("specs are non-degenerate");
        let Ok(Some(map)) = SyntheticPattern::Tornado.permutation(&topo) else {
            return Ok(());
        };
        if let Some(grid) = topo.grid() {
            for (src, &dst) in map.iter().enumerate() {
                let (sx, sy) = grid.coords(SwitchId::new(src as u32));
                let (dx, dy) = grid.coords(dst);
                let hx = (dx + grid.width - sx) % grid.width;
                let hy = (dy + grid.height - sy) % grid.height;
                prop_assert!(hx <= grid.width / 2, "x hop {hx} beyond half-way");
                prop_assert!(hy <= grid.height / 2, "y hop {hy} beyond half-way");
            }
        }
        Ok(())
    });
}

/// Ring and torus scenarios route *minimally*: every configured path
/// has exactly the graph-distance hop count (line routing would
/// detour the long way around), and at least one path crosses the
/// dateline (uses VC 1).
#[test]
fn ring_and_torus_scenarios_route_minimally_across_wraparound() {
    let reg = ScenarioRegistry::builtin();
    for spec in [
        TopologySpec::Ring { switches: 8 },
        TopologySpec::Torus {
            width: 4,
            height: 4,
        },
    ] {
        let cfg = reg
            .resolve("uniform_random")
            .unwrap()
            .build_config(spec, 0.2, 2, 64)
            .unwrap();
        assert_eq!(cfg.switch.num_vcs, 2, "{}: dateline needs 2 VCs", spec);
        let elab = elaborate(&cfg).unwrap();
        for fp in elab.routing.flows().iter() {
            let from = cfg.topology.endpoint(fp.spec.src).switch;
            let to = cfg.topology.endpoint(fp.spec.dst).switch;
            let shortest = nocem_topology::routing::shortest_path(&cfg.topology, from, to)
                .expect("connected topology");
            for path in &fp.paths {
                assert_eq!(
                    path.len(),
                    shortest.len(),
                    "{}: flow {} routed non-minimally",
                    spec,
                    fp.spec.flow
                );
            }
        }
        assert!(
            elab.routing.max_vc() >= 1,
            "{spec}: no path crossed the dateline"
        );
    }
}
