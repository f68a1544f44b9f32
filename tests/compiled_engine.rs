//! Compiled-vs-interpreted equivalence: [`nocem::CompiledEngine`]
//! lowers the elaboration to flat arrays and must be *cycle-for-cycle
//! ledger-identical* to the interpreted [`nocem::Emulation`] — same
//! packet ids, same release/injection/delivery cycles, same latency
//! statistics, same congestion counters and VC watermarks — across
//! topologies, loads, VC counts and clock modes.
//!
//! The harness steps both engines in lockstep and compares the clock
//! and delivered count after every cycle, so a divergence is
//! pinpointed to the exact cycle rather than discovered at end of run.

use nocem::clock::{ClockMode, SteppableEngine};
use nocem::compile::elaborate;
use nocem::config::{EngineKind, PaperConfig, PaperRouting, PlatformConfig};
use nocem::engine::{build, Emulation};
use nocem::sweep::AnyEngine;
use nocem::CompiledEngine;
use nocem_scenarios::registry::ScenarioRegistry;
use nocem_scenarios::scenario::TopologySpec;
use nocem_switch::arbiter::ArbiterKind;
use nocem_switch::config::SelectionPolicy;

/// A uniform-random scenario config on `topo` at `load` (meshes on XY
/// routing with one VC, tori on 2-VC dateline torus-XY — so the torus
/// cases exercise per-(link, VC) credits and allocation on both VCs).
fn uniform_random(topo: TopologySpec, load: f64, packets: u64) -> PlatformConfig {
    ScenarioRegistry::builtin()
        .resolve("uniform_random")
        .unwrap()
        .build_config(topo, load, 4, packets)
        .unwrap()
}

const MESH8X8: TopologySpec = TopologySpec::Mesh {
    width: 8,
    height: 8,
};
const TORUS8X8: TopologySpec = TopologySpec::Torus {
    width: 8,
    height: 8,
};
const RING8: TopologySpec = TopologySpec::Ring { switches: 8 };

/// Steps a compiled engine in lockstep with the interpreted reference
/// and asserts full ledger, summary and results equality. Works in
/// both clock modes: gated runs jump the same windows on both sides
/// (same quiescence predicate, same fast-forward kernel), so the
/// per-step clock comparison stays exact. Returns the finished
/// reference for further comparisons.
fn assert_compiled_lockstep(cfg: &PlatformConfig) -> Emulation {
    let mut reference = build(cfg).unwrap();
    let mut compiled = CompiledEngine::new(elaborate(cfg).unwrap());
    let mut steps = 0u64;
    while !reference.finished() {
        reference.step().unwrap();
        compiled.step().unwrap();
        assert_eq!(
            compiled.now(),
            reference.now(),
            "compiled clock diverged on {}",
            cfg.name
        );
        assert_eq!(
            compiled.delivered(),
            reference.delivered(),
            "deliveries diverged at cycle {} on {}",
            reference.now().raw(),
            cfg.name
        );
        steps += 1;
        assert!(steps < 2_000_000, "runaway lockstep run");
    }
    assert!(compiled.finished(), "compiled stop condition lagged");
    assert_eq!(
        compiled.ledger(),
        reference.ledger(),
        "packet ledger diverged on {}",
        cfg.name
    );
    assert_eq!(
        SteppableEngine::summary(&compiled),
        SteppableEngine::summary(&reference),
        "summary diverged on {}",
        cfg.name
    );
    assert_eq!(
        compiled.results(),
        reference.results(),
        "full results diverged on {}",
        cfg.name
    );
    reference
}

fn with_mode(cfg: &PlatformConfig, mode: ClockMode) -> PlatformConfig {
    let mut cfg = cfg.clone();
    cfg.clock_mode = mode;
    cfg
}

#[test]
fn mesh8x8_low_load_is_ledger_identical() {
    assert_compiled_lockstep(&uniform_random(MESH8X8, 0.05, 600));
}

#[test]
fn mesh8x8_saturating_load_is_ledger_identical() {
    // 40% uniform-random on an 8x8 mesh congests the center links:
    // worms block, credits starve, arbiters and the switch-allocation
    // round-robin pointers are exercised hard.
    assert_compiled_lockstep(&uniform_random(MESH8X8, 0.40, 900));
}

#[test]
fn torus8x8_low_load_is_ledger_identical() {
    assert_compiled_lockstep(&uniform_random(TORUS8X8, 0.05, 600));
}

#[test]
fn torus8x8_saturating_load_is_ledger_identical() {
    assert_compiled_lockstep(&uniform_random(TORUS8X8, 0.40, 900));
}

#[test]
fn ring8_both_loads_are_ledger_identical() {
    for load in [0.05, 0.40] {
        assert_compiled_lockstep(&uniform_random(RING8, load, 300));
    }
}

/// Both loads and both clock modes, small enough for debug builds.
#[test]
fn mesh4x4_lockstep_smoke() {
    for load in [0.05, 0.40] {
        let cfg = uniform_random(
            TopologySpec::Mesh {
                width: 4,
                height: 4,
            },
            load,
            200,
        );
        assert_compiled_lockstep(&cfg);
        assert_compiled_lockstep(&with_mode(&cfg, ClockMode::Gated));
    }
}

#[test]
fn gated_compiled_skips_exactly_like_the_interpreted_kernel() {
    for topo in [MESH8X8, TORUS8X8, RING8] {
        let cfg = with_mode(&uniform_random(topo, 0.05, 300), ClockMode::Gated);
        assert_compiled_lockstep(&cfg);
        let mut compiled = CompiledEngine::new(elaborate(&cfg).unwrap());
        compiled.run().unwrap();
        assert!(
            compiled.cycles_skipped() > 0,
            "a 5%-load gated run must skip cycles on {}",
            cfg.name
        );
    }
}

#[test]
fn gated_saturating_load_is_ledger_identical() {
    for topo in [MESH8X8, TORUS8X8] {
        assert_compiled_lockstep(&with_mode(
            &uniform_random(topo, 0.40, 500),
            ClockMode::Gated,
        ));
    }
}

/// The axes the switch kernel branches on — arbiter kind, selection
/// policy (LFSR draws, alternation pointers, credit comparison), FIFO
/// depth (credit starvation at depth 1) and VC count — each against
/// the interpreted reference, cycle by cycle, and once more through
/// the shard boundary.
#[test]
fn arbiter_selection_and_depth_matrix_is_ledger_identical() {
    const MESH4X4: TopologySpec = TopologySpec::Mesh {
        width: 4,
        height: 4,
    };
    const TORUS4X4: TopologySpec = TopologySpec::Torus {
        width: 4,
        height: 4,
    };
    let dual = PaperConfig::new()
        .routing(PaperRouting::Dual {
            secondary_probability: 0.5,
        })
        .total_packets(160)
        .uniform();
    let mut platforms = vec![dual.clone()];
    for selection in [
        SelectionPolicy::Alternate,
        SelectionPolicy::Adaptive,
        SelectionPolicy::First,
    ] {
        let mut cfg = dual.clone();
        cfg.switch.selection = selection;
        platforms.push(cfg);
    }
    platforms.push(uniform_random(MESH4X4, 0.60, 200));
    platforms.push(uniform_random(TORUS4X4, 0.60, 200));
    assert_eq!(platforms[5].switch.num_vcs, 2, "the torus case runs 2 VCs");

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
                let reference = assert_compiled_lockstep(&cfg);
                let mut sharded =
                    AnyEngine::build(&cfg.clone().with_engine(EngineKind::ShardedCompiled {
                        shards: 2,
                        batch: 4,
                    }))
                    .unwrap();
                nocem::run_engine(&mut sharded).unwrap();
                assert_eq!(
                    sharded.packet_ledger(),
                    *reference.ledger(),
                    "sharded ledger diverged on {}",
                    cfg.name
                );
                assert_eq!(
                    sharded.results().unwrap(),
                    reference.results(),
                    "sharded results diverged on {}",
                    cfg.name
                );
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
    let topology = nocem_topology::builders::star(6).unwrap();
    let mut cfg = PlatformConfig::baseline("star6-compiled", topology).unwrap();
    cfg.stop.delivered_packets = Some(240);
    assert_compiled_lockstep(&cfg);
    assert_compiled_lockstep(&with_mode(&cfg, ClockMode::Gated));
}

/// A hub with more than 64 ports does not fit the occupancy masks and
/// takes the dense fallback of every phase — same cycles, same ledger.
#[test]
fn star_hub_beyond_64_ports_takes_the_dense_path_in_lockstep() {
    let topology = nocem_topology::builders::star(66).unwrap();
    let mut cfg = PlatformConfig::baseline("star66-compiled", topology).unwrap();
    cfg.stop.delivered_packets = Some(600);
    let compiled = CompiledEngine::new(elaborate(&cfg).unwrap());
    assert!(compiled.lowered().inputs[0] > 64, "the hub is switch 0");
    assert_compiled_lockstep(&cfg);
    assert_compiled_lockstep(&with_mode(&cfg, ClockMode::Gated));
}

#[test]
fn engine_kind_round_trips_through_the_generic_builder() {
    let cfg = uniform_random(MESH8X8, 0.10, 200).with_engine(EngineKind::Compiled);
    let mut engine = AnyEngine::build(&cfg).unwrap();
    nocem::run_engine(&mut engine).unwrap();
    let mut reference = build(&cfg).unwrap();
    reference.run().unwrap();
    assert_eq!(engine.packet_ledger(), *reference.ledger());
}

/// The cycle limit fires on exactly the same cycle with the same
/// delivered count on both engines.
#[test]
fn cycle_limit_fires_identically_on_the_compiled_engine() {
    let mut cfg = uniform_random(RING8, 0.05, 50);
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
