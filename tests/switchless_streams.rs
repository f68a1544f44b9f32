//! The compiled engines elaborate no interpreted switch — and run the
//! very streams they ran when they did.
//!
//! [`AnyEngine::build_routed`] hands the compiled kinds an elaboration
//! without `Switch` objects. What could drift is the seeding: every
//! switch's selection-LFSR seed is drawn from the platform seeder
//! *before* any generator seed, so skipping the switches must not skip
//! their draws. The platforms below make both halves decide the ledger:
//! the paper platform under dual routing picks every hop from those
//! LFSRs, and a torus draws all of its traffic from the generator
//! seeds that follow them. Each is stepped on the switch-less compiled
//! engine, on a compiled engine lowered from the public, switch-building
//! [`elaborate`], and on the interpreted engine, comparing the packet
//! ledger after every cycle.

use nocem::clock::SteppableEngine;
use nocem::compile::{compute_routing, elaborate};
use nocem::config::{EngineKind, PaperConfig, PaperRouting, PlatformConfig};
use nocem::sweep::AnyEngine;
use nocem::CompiledEngine;
use nocem_scenarios::registry::ScenarioRegistry;
use nocem_scenarios::scenario::TopologySpec;

const CYCLES: u64 = 2_000;

/// The paper platform with two paths per flow and a coin per hop.
fn paper_dual() -> PlatformConfig {
    PaperConfig::new()
        .routing(PaperRouting::Dual {
            secondary_probability: 0.5,
        })
        .total_packets(4_000)
        .uniform()
}

/// Uniform-random traffic at 30 % on a 2-VC dateline torus4x4.
fn torus4x4() -> PlatformConfig {
    ScenarioRegistry::builtin()
        .resolve("uniform_random")
        .unwrap()
        .build_config(
            TopologySpec::Torus {
                width: 4,
                height: 4,
            },
            0.30,
            4,
            4_000,
        )
        .unwrap()
}

fn engine(cfg: &PlatformConfig, kind: EngineKind) -> AnyEngine {
    let mut cfg = cfg.clone();
    cfg.engine = kind;
    let routing = compute_routing(&cfg).unwrap();
    AnyEngine::build_routed(&cfg, Some(&routing)).unwrap()
}

fn assert_same_streams(cfg: &PlatformConfig) {
    let mut switchless = engine(cfg, EngineKind::Compiled);
    assert!(matches!(switchless, AnyEngine::Compiled(_)));
    let switched_elab = elaborate(cfg).unwrap();
    assert_eq!(
        switched_elab.switches.len(),
        cfg.topology.switch_count(),
        "the public elaboration builds every switch"
    );
    let mut switched = CompiledEngine::new(switched_elab);
    let mut interpreted = engine(cfg, EngineKind::SingleThread);
    let mut sharded = engine(
        cfg,
        EngineKind::ShardedCompiled {
            shards: 2,
            batch: 4,
        },
    );
    assert!(matches!(sharded, AnyEngine::ShardedCompiled(_)));

    for cycle in 1..=CYCLES {
        switchless.step().unwrap();
        switched.step().unwrap();
        interpreted.step().unwrap();
        sharded.step().unwrap();
        let ledger = switchless.packet_ledger();
        assert_eq!(
            ledger,
            switched.packet_ledger(),
            "{}: with and without switches diverged at cycle {cycle}",
            cfg.name
        );
        assert_eq!(
            ledger,
            interpreted.packet_ledger(),
            "{}: compiled and interpreted diverged at cycle {cycle}",
            cfg.name
        );
        assert_eq!(switchless.now().raw(), cycle);
        assert_eq!(sharded.now().raw(), cycle);
        assert_eq!(sharded.delivered(), switchless.delivered());
    }
    assert!(
        !switchless.finished() && switchless.delivered() > 100,
        "{}: {CYCLES} busy cycles",
        cfg.name
    );
    let results = switchless.results().unwrap();
    assert_eq!(results, switched.results());
    assert_eq!(results, interpreted.results().unwrap());
    assert_eq!(switchless.packet_ledger(), sharded.packet_ledger());
    assert_eq!(results, sharded.results().unwrap());
}

#[test]
fn paper_dual_routing_draws_the_same_lfsr_seeds() {
    assert_same_streams(&paper_dual());
}

#[test]
fn torus4x4_draws_the_same_generator_seeds() {
    let cfg = torus4x4();
    assert_eq!(cfg.switch.num_vcs, 2, "dateline routing");
    assert_same_streams(&cfg);
}
