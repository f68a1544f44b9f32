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
//! [`elaborate`], on two shards and on the interpreted engine,
//! comparing the packet ledger after every cycle (the shared harness in
//! `support`).

mod support;

use nocem::compile::{compute_routing, elaborate};
use nocem::config::{EngineKind, PaperConfig, PaperRouting, PlatformConfig};
use nocem::sweep::AnyEngine;
use nocem::CompiledEngine;
use support::{lockstep_until, torus, uniform_random, Subject};

const CYCLES: u64 = 2_000;

fn step_with_and_without_switches(cfg: &PlatformConfig) {
    let routing = compute_routing(cfg).unwrap();
    let routed = |kind| {
        let engine = AnyEngine::build_routed(&cfg.clone().with_engine(kind), Some(&routing));
        Subject::new(&format!("{kind:?} (routed)"), cfg, engine.unwrap())
    };
    let mut switchless = routed(EngineKind::Compiled);
    assert!(matches!(
        switchless.get::<AnyEngine>(),
        AnyEngine::Compiled(_)
    ));
    let switched_elab = elaborate(cfg).unwrap();
    assert_eq!(
        switched_elab.switches.len(),
        cfg.topology.switch_count(),
        "the public elaboration builds every switch"
    );
    let switched = Subject::new("switched", cfg, CompiledEngine::new(switched_elab));
    let sharded = routed(EngineKind::ShardedCompiled {
        shards: 2,
        batch: 4,
    });
    let mut engines = [switched, routed(EngineKind::SingleThread), sharded];
    assert!(matches!(
        engines[2].get::<AnyEngine>(),
        AnyEngine::ShardedCompiled(_)
    ));
    lockstep_until(&mut switchless, &mut engines, CYCLES);
    let engine = &switchless.engine;
    assert_eq!(engine.now().raw(), CYCLES);
    assert!(
        !engine.finished() && engine.delivered() > 100,
        "{}: {CYCLES} busy cycles",
        cfg.name
    );
}

/// The paper platform with two paths per flow and a coin per hop.
#[test]
fn paper_dual_routing_draws_the_same_lfsr_seeds() {
    step_with_and_without_switches(
        &PaperConfig::new()
            .routing(PaperRouting::Dual {
                secondary_probability: 0.5,
            })
            .total_packets(4_000)
            .uniform(),
    );
}

/// Uniform-random traffic at 30 % on a 2-VC dateline torus4x4.
#[test]
fn torus4x4_draws_the_same_generator_seeds() {
    let cfg = uniform_random(torus(4, 4), 0.30, 4_000);
    assert_eq!(cfg.switch.num_vcs, 2, "dateline routing");
    step_with_and_without_switches(&cfg);
}
