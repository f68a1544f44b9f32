//! Sparse-traffic lockstep: the compiled kernel steps live sets — the
//! switches holding a flit, the non-idle NIs, and a watermark over the
//! TG events — instead of scanning the platform, and jumps the gated
//! clock without touching a generator. At 0.1 % and 1 % load almost
//! every cycle takes those short paths, so this suite pins them to the
//! interpreted [`nocem::Emulation`] *per cycle*: same clock, same
//! ledger after every step, same skip count at the end.
//!
//! Debug builds additionally check, inside every `step()`, that each
//! live set and counter mirrors the state it summarises.

use nocem::clock::{ClockMode, EngineSummary, SteppableEngine};
use nocem::compile::elaborate;
use nocem::config::{EngineKind, PlatformConfig, TrafficModel};
use nocem::engine::build;
use nocem::sweep::AnyEngine;
use nocem::CompiledEngine;
use nocem_scenarios::registry::ScenarioRegistry;
use nocem_scenarios::scenario::TopologySpec;
use nocem_traffic::stochastic::{BurstConfig, PoissonConfig};

const MESH12X12: TopologySpec = TopologySpec::Mesh {
    width: 12,
    height: 12,
};
/// Two VCs with dateline routing (the scenario layer's torus default).
const TORUS8X8: TopologySpec = TopologySpec::Torus {
    width: 8,
    height: 8,
};
const RING8: TopologySpec = TopologySpec::Ring { switches: 8 };

const PACKET_FLITS: u16 = 4;

#[derive(Clone, Copy, Debug)]
enum Traffic {
    Steady,
    Burst,
    Poisson,
}

/// `scenario` on `topo` at `load` with every generator switched to
/// `traffic`, stopping after `deliver` packets (budgets are generous,
/// so the stop condition — not a straggling generator — ends the run).
fn sparse_config(
    scenario: &str,
    topo: TopologySpec,
    load: f64,
    traffic: Traffic,
    mode: ClockMode,
    deliver: u64,
) -> PlatformConfig {
    let mut cfg = ScenarioRegistry::builtin()
        .resolve(scenario)
        .unwrap()
        .build_config(topo, load, PACKET_FLITS, 4 * deliver)
        .unwrap();
    for g in &mut cfg.generators {
        let TrafficModel::Uniform(u) = g.clone() else {
            panic!("scenarios build uniform generators");
        };
        *g = match traffic {
            Traffic::Steady => continue,
            Traffic::Burst => TrafficModel::Burst(BurstConfig::with_load(
                load,
                3,
                PACKET_FLITS,
                u.budget,
                u.destination,
            )),
            Traffic::Poisson => TrafficModel::Poisson(PoissonConfig::with_load(
                load,
                PACKET_FLITS,
                u.budget,
                u.destination,
            )),
        };
    }
    cfg.stop.delivered_packets = Some(deliver);
    cfg.clock_mode = mode;
    cfg.name = format!("{}/{traffic:?}/{mode:?}", cfg.name);
    cfg
}

/// Steps `engine` in lockstep with the interpreted reference: equal
/// clock and equal ledger after every step (so a divergence names its
/// cycle), then equal behaviour and an equal skip count.
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
    assert_eq!(got.cycles_skipped, want.cycles_skipped, "{}", cfg.name);
    got
}

fn assert_compiled_lockstep(cfg: &PlatformConfig) -> EngineSummary {
    assert_lockstep(cfg, &mut CompiledEngine::new(elaborate(cfg).unwrap()))
}

/// The whole grid for one topology; gated runs must skip cycles.
fn assert_sparse_grid(topo: TopologySpec, deliver: u64) {
    for load in [0.001, 0.01] {
        for traffic in [Traffic::Steady, Traffic::Burst, Traffic::Poisson] {
            for mode in [ClockMode::EveryCycle, ClockMode::Gated] {
                let cfg = sparse_config("uniform_random", topo, load, traffic, mode, deliver);
                let summary = assert_compiled_lockstep(&cfg);
                assert_eq!(
                    summary.cycles_skipped > 0,
                    mode == ClockMode::Gated,
                    "{}: skipped {} of {} cycles",
                    cfg.name,
                    summary.cycles_skipped,
                    summary.cycles
                );
            }
        }
    }
}

#[test]
fn mesh12x12_sparse_traffic_is_ledger_identical_per_cycle() {
    assert_sparse_grid(MESH12X12, 220);
}

#[test]
fn torus8x8_two_vc_sparse_traffic_is_ledger_identical_per_cycle() {
    assert_sparse_grid(TORUS8X8, 100);
}

#[test]
fn ring8_sparse_traffic_is_ledger_identical_per_cycle() {
    assert_sparse_grid(RING8, 40);
}

/// Back-pressure: long packets into one hot spot through a one-slot
/// source queue. Generators spend most of the run parked on a full
/// NI, so the TG phase must keep running for them (no watermark skip,
/// no clock jump) while most of the mesh holds no flit at all.
#[test]
fn parked_generators_pin_the_tg_phase_and_the_clock() {
    for mode in [ClockMode::EveryCycle, ClockMode::Gated] {
        let mut cfg = ScenarioRegistry::builtin()
            .resolve("hotspot")
            .unwrap()
            .build_config(
                TopologySpec::Mesh {
                    width: 4,
                    height: 4,
                },
                0.5,
                16,
                120,
            )
            .unwrap();
        cfg.source_queue_capacity = 1;
        cfg.clock_mode = mode;
        cfg.name = format!("{}/backpressure/{mode:?}", cfg.name);
        let mut compiled = CompiledEngine::new(elaborate(&cfg).unwrap());
        let summary = assert_lockstep(&cfg, &mut compiled);
        let stalled = compiled.results().stalled_cycles;
        assert!(
            stalled > summary.cycles,
            "{}: only {stalled} parked TG-cycles in {} cycles",
            cfg.name,
            summary.cycles
        );
    }
}

/// The sharded workers run the same phases over the same live sets;
/// under gating the coordinator jumps and the workers replay nothing.
#[test]
fn two_shards_step_the_same_sparse_cycles() {
    let cfg = sparse_config(
        "uniform_random",
        MESH12X12,
        0.001,
        Traffic::Steady,
        ClockMode::Gated,
        220,
    );
    for batch in [1, 8] {
        let kind = EngineKind::ShardedCompiled { shards: 2, batch };
        let mut engine = AnyEngine::build(&cfg.clone().with_engine(kind)).unwrap();
        let summary = assert_lockstep(&cfg, &mut engine);
        assert!(summary.cycles_skipped > 0, "batch {batch} skipped nothing");
    }
}
