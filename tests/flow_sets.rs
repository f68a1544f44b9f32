//! A flow set that is a function of its endpoints and destination
//! models that name a row of it are the lists they stand for: the
//! all-to-all scenarios (uniform-random, hotspot) build the implicit
//! forms, and a configuration holding the same flows and the same
//! options *written out* routes, checks and runs identically, per
//! cycle on the stepping engines. Plus the structural half of the scale claim: nothing on a
//! 32 × 32 mesh is stored per flow.
//!
//! (Element-for-element equality of the two expansions is in
//! `crates/scenarios/src/patterns.rs`, draw-for-draw equality of the
//! destination models in `crates/traffic/tests/traffic_properties.rs`.)

mod support;

use nocem::compile::{compute_routing, elaborate_routed, lower};
use nocem::config::{EngineKind, PlatformConfig, TrafficModel};
use nocem::error::CompileError;
use nocem::sweep::AnyEngine;
use nocem_topology::deadlock::check_routing_deadlock_freedom;
use nocem_topology::routing::{FlowSet, VcPolicy};
use nocem_traffic::generator::DestinationModel;
use support::{lockstep, lockstep_until, mesh, scenario, subject, torus, Backend, Subject};

fn destination(model: &mut TrafficModel) -> &mut DestinationModel {
    match model {
        TrafficModel::Uniform(u) => &mut u.destination,
        other => panic!("scenarios build uniform generators, got {other:?}"),
    }
}

/// `cfg` with its flows and every destination list written out.
fn listed(cfg: &PlatformConfig) -> PlatformConfig {
    let mut listed = cfg.clone();
    listed.flows = cfg.flows.to_listed().into();
    for model in &mut listed.generators {
        let destination = destination(model);
        *destination = destination.to_listed();
    }
    listed
}

/// The four all-to-all platforms, implicit as built and written out.
fn pairs() -> Vec<(PlatformConfig, PlatformConfig)> {
    let mut pairs = Vec::new();
    for name in ["uniform_random", "hotspot"] {
        for topo in [mesh(4, 4), torus(4, 4)] {
            let mut implicit = scenario(name, topo, 0.30, 4, 400);
            assert!(
                matches!(implicit.flows, FlowSet::AllButSelf(_)),
                "{} builds the implicit set",
                implicit.name
            );
            let listed = listed(&implicit);
            assert!(matches!(listed.flows, FlowSet::Listed(_)));
            assert_eq!(listed.flows, implicit.flows, "{}", implicit.name);
            for (a, b) in implicit.generators.iter_mut().zip(&listed.generators) {
                let (a, TrafficModel::Uniform(b)) = (destination(a), b) else {
                    panic!("uniform generators");
                };
                assert!(a.row().is_some() && b.destination.row().is_none());
                assert!(a.pairs().eq(b.destination.pairs()));
            }
            pairs.push((implicit, listed));
        }
    }
    pairs
}

#[test]
fn implicit_and_listed_flows_route_and_check_alike() {
    for (implicit, listed) in pairs() {
        let (a, b) = (
            compute_routing(&implicit).unwrap(),
            compute_routing(&listed).unwrap(),
        );
        assert!(a.grid_router().is_some() && b.grid_router().is_some());
        assert_eq!(a.grid_router(), b.grid_router(), "{}", implicit.name);
        assert_eq!(a.flow_count(), b.flow_count(), "{}", implicit.name);
        assert_eq!(a.max_vc(), b.max_vc(), "{}", implicit.name);
        assert_eq!(a.flows(), b.flows(), "{}", implicit.name);
        for spec in listed.flows.iter().step_by(7) {
            assert_eq!(a.path_vcs(spec.flow, 0), b.path_vcs(spec.flow, 0));
            let at = implicit.topology.endpoint(spec.dst).switch;
            assert_eq!(a.lookup(at, spec.flow), b.lookup(at, spec.flow));
        }
        assert_eq!(
            check_routing_deadlock_freedom(&implicit.topology, &a),
            check_routing_deadlock_freedom(&listed.topology, &b),
        );
        // The same lowered platform comes out of both.
        let (low_a, low_b) = (
            lower(&elaborate_routed(&implicit, a).unwrap()),
            lower(&elaborate_routed(&listed, b).unwrap()),
        );
        assert_eq!(low_a.router, low_b.router);
    }
}

#[test]
fn a_single_vc_torus_is_rejected_with_the_same_cycle_either_way() {
    // Minimal routing around a 5-ring per dimension on one VC: the
    // classic cycle. The walk over the implicit set must find the
    // dependency graph the walk over the list finds — same first
    // cycle, link for link.
    for name in ["uniform_random", "hotspot"] {
        let mut implicit = scenario(name, torus(5, 5), 0.1, 4, 100);
        implicit.vc_policy = VcPolicy::SingleVc;
        implicit.switch.num_vcs = 1;
        let listed = listed(&implicit);
        let (a, b) = (
            compute_routing(&implicit).unwrap_err(),
            compute_routing(&listed).unwrap_err(),
        );
        let CompileError::Deadlock(cycle) = &a else {
            panic!("expected a deadlock cycle, got {a}");
        };
        assert!(cycle.links.len() >= 3, "{cycle}");
        assert!(cycle.vcs.iter().all(|vc| vc.raw() == 0), "{cycle}");
        assert_eq!(a, b, "{name}");
    }
}

#[test]
fn implicit_and_listed_configs_are_ledger_identical_per_cycle() {
    for (implicit, listed) in pairs() {
        for backend in [Backend::Emulation, Backend::Compiled] {
            let mut b = [subject(&listed, backend)];
            lockstep(&mut subject(&implicit, backend), &mut b);
            assert_eq!(b[0].engine.summary().delivered, 400);
        }
    }
}

#[test]
fn mesh32x32_uniform_random_stores_nothing_per_flow_and_steps() {
    let cfg = scenario("uniform_random", mesh(32, 32), 0.05, 4, u64::MAX);
    assert_eq!(cfg.flows.len(), 1024 * 1023);
    // One allocation behind the flow set and all 1 024 models.
    let FlowSet::AllButSelf(set) = &cfg.flows else {
        panic!("uniform-random builds the implicit set");
    };
    assert_eq!(cfg.generators.len(), 1024);
    for (model, &generator) in cfg.generators.iter().zip(set.sources()) {
        let TrafficModel::Uniform(u) = model else {
            panic!("uniform generators");
        };
        let DestinationModel::UniformRow(row) = &u.destination else {
            panic!("uniform-random names rows, got {:?}", u.destination);
        };
        assert!(row.set().shares_storage(set));
        assert_eq!(row.source(), generator);
    }
    // Clones — what elaboration and measurement take — share it too.
    let copy = cfg.clone();
    let FlowSet::AllButSelf(copied) = &copy.flows else {
        panic!("a clone keeps the form");
    };
    assert!(copied.shares_storage(set));

    let routing = compute_routing(&cfg).unwrap();
    assert_eq!(routing.flow_count(), 1024 * 1023);
    assert_eq!(routing.max_vc(), 0);
    let [reference, compiled] = [EngineKind::SingleThread, EngineKind::Compiled].map(|kind| {
        let engine = AnyEngine::build_routed(&cfg.clone().with_engine(kind), Some(&routing));
        Subject::new(&format!("{kind:?}"), &cfg, engine.unwrap())
    });
    let mut compiled = [compiled];
    lockstep_until(&mut { reference }, &mut compiled, 200);
    assert!(
        compiled[0].engine.summary().delivered > 100,
        "traffic flowed"
    );
}
