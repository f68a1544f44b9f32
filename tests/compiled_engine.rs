//! Compiled-vs-interpreted equivalence: [`nocem::CompiledEngine`]
//! lowers the elaboration to flat arrays and must be *cycle-for-cycle
//! ledger-identical* to the interpreted [`nocem::Emulation`] — same
//! packet ids, same release/injection/delivery cycles, same latency
//! statistics, same congestion counters and VC watermarks — across
//! topologies, loads, VC counts and clock modes.
//!
//! The shared harness (`support`) steps both engines in lockstep and
//! compares the clock and the packet ledger after every cycle, so a
//! divergence is pinpointed to the exact cycle rather than discovered
//! at end of run. Meshes run XY routing on one VC, tori 2-VC dateline
//! torus-XY, so the torus cases exercise per-(link, VC) credits and
//! allocation on both VCs.

mod support;

use nocem::clock::{ClockMode, SteppableEngine};
use nocem::compile::{compute_routing, elaborate};
use nocem::config::{EngineKind, PaperConfig, PaperRouting, PlatformConfig, RoutingSpec};
use nocem::engine::build;
use nocem::sweep::AnyEngine;
use nocem::CompiledEngine;
use nocem_switch::arbiter::ArbiterKind;
use nocem_switch::config::SelectionPolicy;
use nocem_topology::routing::RouteAlgorithm;
use support::{
    against_emulation, lockstep, lockstep_until, mesh, ring, scenario, star, subject, torus,
    uniform_random, Backend, Subject,
};

const COMPILED: &[Backend] = &[Backend::DirectCompiled];

fn gated(cfg: &PlatformConfig) -> PlatformConfig {
    cfg.clone().with_clock_mode(ClockMode::Gated)
}

#[test]
fn mesh8x8_low_load_is_ledger_identical() {
    against_emulation(&uniform_random(mesh(8, 8), 0.05, 600), COMPILED);
}

#[test]
fn mesh8x8_saturating_load_is_ledger_identical() {
    // 40% uniform-random on an 8x8 mesh congests the center links:
    // worms block, credits starve, arbiters and the switch-allocation
    // round-robin pointers are exercised hard.
    against_emulation(&uniform_random(mesh(8, 8), 0.40, 900), COMPILED);
}

#[test]
fn torus8x8_low_load_is_ledger_identical() {
    against_emulation(&uniform_random(torus(8, 8), 0.05, 600), COMPILED);
}

#[test]
fn torus8x8_saturating_load_is_ledger_identical() {
    against_emulation(&uniform_random(torus(8, 8), 0.40, 900), COMPILED);
}

#[test]
fn ring8_both_loads_are_ledger_identical() {
    for load in [0.05, 0.40] {
        against_emulation(&uniform_random(ring(8), load, 300), COMPILED);
    }
}

/// Both loads and both clock modes, small enough for debug builds.
#[test]
fn mesh4x4_lockstep_smoke() {
    for load in [0.05, 0.40] {
        let cfg = uniform_random(mesh(4, 4), load, 200);
        against_emulation(&cfg, COMPILED);
        against_emulation(&gated(&cfg), COMPILED);
    }
}

#[test]
fn gated_compiled_skips_exactly_like_the_interpreted_kernel() {
    for topo in [mesh(8, 8), torus(8, 8), ring(8)] {
        let cfg = gated(&uniform_random(topo, 0.05, 300));
        let compiled = against_emulation(&cfg, COMPILED);
        assert!(
            compiled[0].engine.cycles_skipped() > 0,
            "a 5%-load gated run must skip cycles on {}",
            cfg.name
        );
    }
}

#[test]
fn gated_saturating_load_is_ledger_identical() {
    for topo in [mesh(8, 8), torus(8, 8)] {
        against_emulation(&gated(&uniform_random(topo, 0.40, 500)), COMPILED);
    }
}

/// The axes the switch kernel branches on — arbiter kind, selection
/// policy (LFSR draws, alternation pointers, credit comparison), FIFO
/// depth (credit starvation at depth 1) and VC count — each against
/// the interpreted reference, cycle by cycle.
#[test]
fn arbiter_selection_and_depth_matrix_is_ledger_identical() {
    let dual = PaperConfig::new()
        .routing(PaperRouting::Dual {
            secondary_probability: 0.5,
        })
        .total_packets(160)
        .uniform();
    // The dual platform offers at most two hops a switch; up to three
    // k-shortest alternatives reach every index `Random` can draw.
    let mut three_way = scenario("transpose", mesh(4, 4), 0.30, 4, 200);
    three_way.routing = RoutingSpec::Algorithm(RouteAlgorithm::KShortest(3));
    assert_eq!(three_way.switch.num_vcs, 1);
    let routing = compute_routing(&three_way).unwrap();
    let widest = three_way
        .topology
        .switch_ids()
        .flat_map(|s| {
            routing
                .switch_table(s)
                .entries()
                .map(|(_, hops)| hops.len())
        })
        .max();
    assert_eq!(widest, Some(3), "some switch offers three hops");
    let mut platforms = Vec::new();
    for base in [dual, three_way] {
        for selection in [
            SelectionPolicy::random(0.5),
            SelectionPolicy::Alternate,
            SelectionPolicy::Adaptive,
            SelectionPolicy::First,
        ] {
            let mut cfg = base.clone();
            cfg.switch.selection = selection;
            platforms.push(cfg);
        }
    }
    platforms.push(uniform_random(mesh(4, 4), 0.60, 200));
    platforms.push(uniform_random(torus(4, 4), 0.60, 200));
    assert_eq!(platforms[9].switch.num_vcs, 2, "the torus case runs 2 VCs");

    for base in &platforms {
        for arbiter in [ArbiterKind::RoundRobin, ArbiterKind::FixedPriority] {
            for fifo_depth in [1, 2, 4] {
                let mut cfg = base.clone();
                cfg.switch.arbiter = arbiter;
                cfg.switch.fifo_depth = fifo_depth;
                cfg.name = format!(
                    "{} {:?} {arbiter:?} depth {fifo_depth}",
                    base.name, base.switch.selection
                );
                against_emulation(&cfg, &[Backend::DirectCompiled]);
            }
        }
    }
}

/// Regression for heterogeneous port counts: a star's hub switch has
/// `leaves` ports while every leaf has two, so any lowering that sizes
/// its arrays from a single uniform port count (or from the config
/// instead of the elaboration) indexes out of bounds or corrupts
/// neighbouring slots. The prefix-sum arena must handle the mix.
#[test]
fn star_heterogeneous_ports_run_compiled_without_index_errors() {
    let cfg = star(6, 0.4, 4, 240);
    against_emulation(&cfg, COMPILED);
    against_emulation(&gated(&cfg), COMPILED);
}

/// A hub with more than 64 input or output slots takes masks of several
/// words in every phase — same cycles, same ledger.
#[test]
fn star_hubs_beyond_64_slots_run_multi_word_masks_in_lockstep() {
    // A hub of 66 ports on one VC under either arbiter, and one of 33
    // ports made as wide by a second VC.
    let cases = [
        (66, 1, ArbiterKind::RoundRobin),
        (66, 1, ArbiterKind::FixedPriority),
        (33, 2, ArbiterKind::RoundRobin),
    ];
    for (leaves, vcs, arbiter) in cases {
        let mut cfg = star(leaves, 0.4, 4, 1_200);
        cfg.name = format!("star{leaves}-{vcs}vc-{arbiter:?}");
        (cfg.switch.num_vcs, cfg.switch.arbiter) = (vcs, arbiter);
        let mut compiled = against_emulation(&cfg, COMPILED);
        let engine = compiled[0].get::<CompiledEngine>();
        let low = engine.lowered();
        let (hub_slots, hub_outputs) = (low.inputs[0] as usize * low.num_vcs, low.outputs[0]);
        assert!(hub_slots > 64, "the hub is switch 0");
        let hub = &engine.arch_view().ports[..hub_outputs as usize];
        assert!(
            hub.iter().map(|p| p.blocked).sum::<u64>() > 0,
            "no contention"
        );
        against_emulation(&gated(&cfg), COMPILED);
    }
}

#[test]
fn engine_kind_round_trips_through_the_generic_builder() {
    let cfg = uniform_random(mesh(8, 8), 0.10, 200).with_engine(EngineKind::Compiled);
    let engine = AnyEngine::build(&cfg).unwrap();
    assert!(matches!(engine, AnyEngine::Compiled(_)));
    let reference = &mut subject(&cfg, Backend::Emulation);
    lockstep(reference, &mut [Subject::new("generic", &cfg, engine)]);
}

/// The cycle limit fires on exactly the same cycle with the same
/// delivered count on both engines.
#[test]
fn cycle_limit_fires_identically_on_the_compiled_engine() {
    let mut cfg = uniform_random(ring(8), 0.05, 50);
    cfg.stop.delivered_packets = Some(1_000_000);
    cfg.stop.cycle_limit = 20_000;
    let mut reference = build(&cfg).unwrap();
    let ref_err = reference.run().unwrap_err();
    let mut compiled = CompiledEngine::new(elaborate(&cfg).unwrap());
    let compiled_err = compiled.run().unwrap_err();
    assert_eq!(ref_err, compiled_err);
    assert_eq!(compiled.now(), reference.now());
    assert_eq!(compiled.delivered(), reference.delivered());
}

/// Steps `cfg` for 2 000 busy cycles on the compiled engine built
/// through [`AnyEngine::build_routed`] and directly over [`elaborate`],
/// in lockstep with the interpreted engine: the
/// lowered selection LFSRs and the generator streams must be the ones
/// the interpreted switches and generators draw.
fn draws_the_interpreted_streams(cfg: &PlatformConfig) {
    const CYCLES: u64 = 2_000;
    let routing = compute_routing(cfg).unwrap();
    let routed = |kind| {
        let engine = AnyEngine::build_routed(&cfg.clone().with_engine(kind), Some(&routing));
        Subject::new(&format!("{kind:?} (routed)"), cfg, engine.unwrap())
    };
    let mut reference = routed(EngineKind::SingleThread);
    let mut engines = [
        routed(EngineKind::Compiled),
        subject(cfg, Backend::DirectCompiled),
    ];
    assert!(matches!(
        engines[0].get::<AnyEngine>(),
        AnyEngine::Compiled(_)
    ));
    lockstep_until(&mut reference, &mut engines, CYCLES);
    let engine = &reference.engine;
    assert_eq!(engine.now().raw(), CYCLES);
    assert!(
        !engine.finished() && engine.delivered() > 100,
        "{}: {CYCLES} busy cycles",
        cfg.name
    );
}

/// The paper platform with two paths per flow and a coin per hop: every
/// hop is picked from the switch LFSRs.
#[test]
fn paper_dual_routing_draws_the_same_lfsr_seeds() {
    draws_the_interpreted_streams(
        &PaperConfig::new()
            .routing(PaperRouting::Dual {
                secondary_probability: 0.5,
            })
            .total_packets(4_000)
            .uniform(),
    );
}

/// Uniform-random traffic at 30 % on a 2-VC dateline torus4x4: all of
/// it drawn from the generator seeds that follow the switch seeds.
#[test]
fn torus4x4_draws_the_same_generator_seeds() {
    let cfg = uniform_random(torus(4, 4), 0.30, 4_000);
    assert_eq!(cfg.switch.num_vcs, 2, "dateline routing");
    draws_the_interpreted_streams(&cfg);
}
