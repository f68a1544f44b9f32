//! Gated-vs-ungated equivalence: `ClockMode::Gated` must be
//! cycle-equivalent to `ClockMode::EveryCycle` — same deliveries at
//! the same cycles, same packet ledger, same results — on every
//! engine, while actually skipping a large share of cycles at low
//! load.
//!
//! The harness is written once against `nocem::SteppableEngine`: a
//! gated engine is stepped and an ungated twin is shadow-stepped to
//! the same cycle after every gated step, so divergence is pinpointed
//! to the exact cycle, not discovered at end of run.

use nocem::clock::{run_engine, ClockMode, SteppableEngine};
use nocem::compile::elaborate;
use nocem::compiled::CompiledEngine;
use nocem::config::{PaperConfig, PlatformConfig, TrafficModel};
use nocem::engine::build;
use nocem::error::EmulationError;
use nocem::profile::ProfileConfig;
use nocem::shard_compiled::{ShardedCompiledEngine, DEFAULT_BATCH};
use nocem_rtl::model::RtlEngine;
use nocem_scenarios::registry::ScenarioRegistry;
use nocem_scenarios::scenario::TopologySpec;
use nocem_tlm::model::TlmEngine;
use nocem_traffic::stochastic::BurstConfig;

type EngineBuilder = fn(&PlatformConfig) -> Box<dyn SteppableEngine>;

fn engine_builders() -> Vec<(&'static str, EngineBuilder)> {
    vec![
        ("emulation", |cfg| Box::new(build(cfg).unwrap())),
        ("tlm", |cfg| {
            Box::new(TlmEngine::new(elaborate(cfg).unwrap()))
        }),
        ("rtl", |cfg| {
            Box::new(RtlEngine::new(elaborate(cfg).unwrap()))
        }),
        ("compiled", |cfg| {
            Box::new(CompiledEngine::new(elaborate(cfg).unwrap()))
        }),
        ("sharded-compiled", |cfg| {
            Box::new(ShardedCompiledEngine::with_shards(cfg, 2, DEFAULT_BATCH).unwrap())
        }),
    ]
}

/// A uniform-random scenario config on `topo` at `load`.
fn uniform_random(topo: TopologySpec, load: f64, packets: u64) -> PlatformConfig {
    uniform_random_flits(topo, load, 4, packets)
}

fn uniform_random_flits(topo: TopologySpec, load: f64, flits: u16, packets: u64) -> PlatformConfig {
    ScenarioRegistry::builtin()
        .resolve("uniform_random")
        .unwrap()
        .build_config(topo, load, flits, packets)
        .unwrap()
}

fn with_mode(cfg: &PlatformConfig, mode: ClockMode) -> PlatformConfig {
    let mut cfg = cfg.clone();
    cfg.clock_mode = mode;
    cfg
}

/// Steps a gated engine to completion while an ungated twin shadows it
/// cycle for cycle, then compares summaries and full packet ledgers.
/// The gated twin runs profiled (profiling is behaviour-free), so the
/// jumps it took can be checked against the cycles it skipped. Returns
/// the gated run's skipped-cycle count for the caller's skip-fraction
/// assertions.
fn assert_gated_lockstep(cfg: &PlatformConfig) -> u64 {
    let mut skipped_by_emulation = 0;
    for (name, make) in engine_builders() {
        let profiled = Some(ProfileConfig::default().without_spans());
        let mut gated = make(&with_mode(cfg, ClockMode::Gated).with_profile(profiled));
        let mut ungated = make(&with_mode(cfg, ClockMode::EveryCycle));
        let mut steps = 0u64;
        while !gated.finished() {
            gated.step().unwrap();
            // Shadow-step the ungated twin across the (possibly
            // jumped) window; nothing may deliver inside it.
            while ungated.now() < gated.now() {
                ungated.step().unwrap();
            }
            assert_eq!(
                ungated.now(),
                gated.now(),
                "{name}: gated clock landed between ungated cycles on {}",
                cfg.name
            );
            assert_eq!(
                ungated.delivered(),
                gated.delivered(),
                "{name}: delivery count diverged at cycle {} on {}",
                gated.now().raw(),
                cfg.name
            );
            steps += 1;
            assert!(steps < 2_000_000, "runaway lockstep run");
        }
        assert!(
            ungated.finished(),
            "{name}: ungated twin not finished at the gated stop cycle"
        );
        assert_eq!(
            ungated.summary(),
            gated.summary().behavioral(),
            "{name}: end-of-run summaries diverged on {}",
            cfg.name
        );
        assert_eq!(
            ungated.packet_ledger(),
            gated.packet_ledger(),
            "{name}: packet ledgers diverged on {}",
            cfg.name
        );
        assert_eq!(ungated.cycles_skipped(), 0, "ungated runs never skip");
        let jumps = gated.profile().expect("profiled twin").work.fast_forwards;
        assert_eq!(
            jumps > 0,
            gated.cycles_skipped() > 0,
            "{name}: {jumps} jumps counted beside {} skipped cycles on {}",
            gated.cycles_skipped(),
            cfg.name
        );
        if name == "emulation" {
            skipped_by_emulation = gated.cycles_skipped();
        }
    }
    skipped_by_emulation
}

#[test]
fn gated_matches_ungated_on_ring8() {
    for load in [0.05, 0.40] {
        let skipped = assert_gated_lockstep(&uniform_random(
            TopologySpec::Ring { switches: 8 },
            load,
            160,
        ));
        if load < 0.1 {
            assert!(skipped > 0, "low load must allow some skipping");
        }
    }
}

#[test]
fn gated_matches_ungated_on_mesh4x4() {
    for load in [0.05, 0.40] {
        assert_gated_lockstep(&uniform_random(
            TopologySpec::Mesh {
                width: 4,
                height: 4,
            },
            load,
            160,
        ));
    }
}

#[test]
fn gated_matches_ungated_on_torus4x4() {
    for load in [0.05, 0.40] {
        assert_gated_lockstep(&uniform_random(
            TopologySpec::Torus {
                width: 4,
                height: 4,
            },
            load,
            160,
        ));
    }
}

#[test]
fn gated_matches_ungated_on_paper_burst_traffic() {
    // Burst TGs predraw their idle-phase Bernoulli runs into the
    // cooldown, so gated runs can skip the gaps between bursts — and
    // must stay exact while doing so.
    let cfg = PaperConfig::new().total_packets(200).burst(8);
    assert_gated_lockstep(&cfg);
}

#[test]
fn gated_burst_low_load_actually_skips_idle_phases() {
    // With predrawn gaps a low-load burst run must jump its long idle
    // phases instead of pinning the clock on every eligible cycle.
    let mut cfg = uniform_random(TopologySpec::Ring { switches: 8 }, 0.05, 160);
    cfg.generators = cfg
        .generators
        .iter()
        .map(|g| match g {
            TrafficModel::Uniform(u) => TrafficModel::Burst(BurstConfig {
                length: u.length,
                start_probability: 0.01,
                continue_probability: 0.75,
                budget: u.budget,
                destination: u.destination.clone(),
            }),
            other => other.clone(),
        })
        .collect();
    cfg.name = "burst-low-load".into();
    let skipped = assert_gated_lockstep(&cfg);
    assert!(skipped > 0, "burst idle phases were not skipped");
}

/// The acceptance criterion for the gating win: a 5 %-load
/// uniform-random run skips at least half of its cycles in gated
/// mode — and the gated results equal the ungated ones exactly.
#[test]
fn gated_low_load_skips_majority_of_cycles() {
    // 8-flit packets at 5 % load: a packet leaves each TG only every
    // ~160 cycles, so the ring is empty most of the time and the
    // fast-forward kernel jumps the gaps.
    let cfg = uniform_random_flits(TopologySpec::Ring { switches: 8 }, 0.05, 8, 400);

    let mut ungated = build(&with_mode(&cfg, ClockMode::EveryCycle)).unwrap();
    ungated.run().unwrap();
    let mut gated = build(&with_mode(&cfg, ClockMode::Gated)).unwrap();
    gated.run().unwrap();

    // Identical EmulationResults apart from the skip counter itself.
    let mut gated_results = gated.results();
    assert_eq!(gated_results.cycles_skipped, gated.cycles_skipped());
    gated_results.cycles_skipped = 0;
    assert_eq!(gated_results, ungated.results(), "results must not change");
    assert_eq!(gated.ledger(), ungated.ledger(), "ledgers must not change");

    let fraction = gated.cycles_skipped() as f64 / gated.now().raw() as f64;
    assert!(
        fraction >= 0.5,
        "5%-load uniform-random run skipped only {:.1}% of {} cycles",
        fraction * 100.0,
        gated.now().raw()
    );
    assert!(
        gated.results().gating_speedup() >= 2.0,
        "effective speedup {:.2}",
        gated.results().gating_speedup()
    );
}

/// The progress callback keeps its promised granularity even when the
/// clock jumps across one or more reporting boundaries.
#[test]
fn progress_granularity_survives_clock_jumps() {
    let cfg = with_mode(
        &uniform_random(TopologySpec::Ring { switches: 8 }, 0.05, 200),
        ClockMode::Gated,
    );
    let interval = 64u64;
    let mut emu = build(&cfg).unwrap();
    let mut reports: Vec<(u64, u64)> = Vec::new();
    emu.run_with_progress(interval, |cycle, delivered| {
        reports.push((cycle.raw(), delivered));
    })
    .unwrap();
    assert!(
        emu.cycles_skipped() > interval,
        "run must actually jump across boundaries"
    );
    // One report per boundary the run crossed, each exactly on it.
    assert_eq!(reports.len() as u64, emu.now().raw() / interval);
    for (i, &(cycle, _)) in reports.iter().enumerate() {
        assert_eq!(cycle, (i as u64 + 1) * interval, "boundary missed");
    }
    // Delivered counts are monotone (they are snapshots of one run).
    assert!(reports.windows(2).all(|w| w[0].1 <= w[1].1));
}

/// The cycle limit fires on exactly the same cycle with the same
/// delivered count whether or not the clock is gated.
#[test]
fn cycle_limit_fires_identically_under_gating() {
    // Far fewer deliverable packets than the stop target: the run
    // drains, goes fully quiescent and then idles into the limit.
    let mut cfg = uniform_random(TopologySpec::Ring { switches: 8 }, 0.05, 50);
    cfg.stop.delivered_packets = Some(1_000_000);
    cfg.stop.cycle_limit = 20_000;

    let run = |mode: ClockMode| {
        let mut emu = build(&with_mode(&cfg, mode)).unwrap();
        let err = nocem::clock::run_engine(&mut emu).unwrap_err();
        (err, emu.now().raw(), emu.delivered())
    };
    let (err_u, now_u, delivered_u) = run(ClockMode::EveryCycle);
    let (err_g, now_g, delivered_g) = run(ClockMode::Gated);
    assert!(matches!(err_u, EmulationError::CycleLimitExceeded { .. }));
    match (&err_u, &err_g) {
        (
            EmulationError::CycleLimitExceeded {
                limit: lu,
                delivered: du,
            },
            EmulationError::CycleLimitExceeded {
                limit: lg,
                delivered: dg,
            },
        ) => {
            assert_eq!(lu, lg);
            assert_eq!(du, dg);
        }
        other => panic!("mismatched errors: {other:?}"),
    }
    assert_eq!(now_u, now_g, "the limit fires on the same cycle");
    assert_eq!(delivered_u, delivered_g);
}

/// `run_engine` drives any engine through the trait object — the
/// "written once" property the refactor is for.
#[test]
fn run_engine_is_engine_agnostic() {
    let cfg = uniform_random(
        TopologySpec::Mesh {
            width: 2,
            height: 2,
        },
        0.2,
        60,
    );
    let mut summaries = Vec::new();
    for (_, make) in engine_builders() {
        let mut engine = make(&cfg);
        run_engine(engine.as_mut()).unwrap();
        summaries.push(engine.summary());
    }
    for other in &summaries[1..] {
        assert_eq!(&summaries[0], other);
    }
    assert_eq!(summaries[0].delivered, 60);
}
