//! Generated configurations through the lockstep harness (`support`).
//!
//! Each seed of a fixed range draws one platform — topology, registry
//! pattern, load, packet length, buffer depth, arbiter, selection
//! policy, traffic model, source queue, clock mode, telemetry window —
//! the engines it runs on (the compiled engine and a sharded one
//! always, the TLM and RTL models on platforms of at most nine
//! switches), then the self-profiling: off, phases (two of the four
//! arms, so the draw stays one of four), or phases and a stall
//! watchdog whose window of 1..=8 cycles trips on ordinary
//! congestion, and last a stochastic or trace-driven kind per
//! receptor. Each later draw was added after the earlier ones, so every
//! seed keeps what it drew before. Each pick takes one number from the
//! stream, so when the source-queue pick gained `usize::MAX` (a bound
//! no queue reaches) some seeds drew another capacity and nothing else.
//! The property: every engine matches the interpreted engine per cycle,
//! or every engine rejects the config at build with one equal error. No
//! engine may panic or fail mid-run, and every engine with stall
//! forensics trips its watchdog alike. A failure prints the seed and
//! the config.
//!
//! The named tests below are what the range found, and configurations
//! every engine must reject alike.

mod support;

use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use nocem::clock::ClockMode;
use nocem::config::{PaperConfig, PlatformConfig, TrafficModel};
use nocem::error::CompileError;
use nocem::profile::ProfileConfig;
use nocem_common::rng::{Pcg32, RandomSource};
use nocem_scenarios::registry::ScenarioRegistry;
use nocem_stats::TrKind;
use nocem_switch::arbiter::ArbiterKind;
use nocem_switch::config::SelectionPolicy;
use nocem_telemetry::TelemetryConfig;
use nocem_traffic::generator::{DestinationModel, LengthModel};
use nocem_traffic::stochastic::UniformConfig;
use support::{
    against_emulation, check, each_uniform, mesh, rejects_alike, retraffic, ring, torus,
    uniform_random, Backend, Traffic,
};

/// Every engine beside the interpreted one.
const EVERY_ENGINE: &[Backend] = &[
    Backend::Compiled,
    Backend::Sharded(2),
    Backend::DirectCompiled,
    Backend::Tlm,
    Backend::Rtl,
];

fn pick<T: Copy>(rng: &mut Pcg32, from: &[T]) -> T {
    from[rng.below(from.len() as u32) as usize]
}

/// A platform of `packets` packets of `flits` flits at `load`: a
/// registry pattern on a mesh, torus or ring (the first pattern from a
/// drawn one on that applies), or the baseline star. `None` when no
/// pattern applies to the drawn topology.
fn platform(rng: &mut Pcg32, load: f64, flits: u16, packets: u64) -> Option<PlatformConfig> {
    let (w, h) = (rng.in_range(1, 5), rng.in_range(1, 5));
    let topo = match rng.below(4) {
        0 => mesh(w, h),
        1 => torus(w, h),
        2 => ring(rng.in_range(3, 8)),
        _ => {
            let leaves = rng.in_range(2, 8);
            let star = nocem_topology::builders::star(leaves).unwrap();
            let mut cfg = PlatformConfig::baseline(format!("star{leaves}"), star).unwrap();
            let n = cfg.generators.len();
            each_uniform(&mut cfg, |i, u| {
                let budget = Some(PlatformConfig::split_budget(packets, n, i));
                TrafficModel::Uniform(UniformConfig::with_load(load, flits, budget, u.destination))
            });
            cfg.stop.delivered_packets = Some(packets);
            return Some(cfg);
        }
    };
    let patterns: Vec<_> = ScenarioRegistry::builtin().iter().cloned().collect();
    let first = rng.below(patterns.len() as u32) as usize;
    (0..patterns.len()).find_map(|i| {
        let pattern = &patterns[(first + i) % patterns.len()];
        pattern.build_config(topo, load, flits, packets).ok()
    })
}

/// The config and the engines under test that `seed` draws.
fn generate(seed: u64) -> (PlatformConfig, Vec<Backend>) {
    let mut rng = Pcg32::seeded(seed);
    let load = f64::from(rng.in_range(3, 60)) / 100.0;
    let flits = rng.in_range(1, 8) as u16;
    let packets = u64::from(rng.in_range(8, 60));
    let mut cfg = loop {
        if let Some(cfg) = platform(&mut rng, load, flits, packets) {
            break cfg;
        }
    };
    cfg.switch.fifo_depth = rng.in_range(1, 4) as u8;
    cfg.switch.arbiter = pick(
        &mut rng,
        &[ArbiterKind::RoundRobin, ArbiterKind::FixedPriority],
    );
    cfg.switch.selection = pick(
        &mut rng,
        &[
            SelectionPolicy::First,
            SelectionPolicy::Alternate,
            SelectionPolicy::Adaptive,
            SelectionPolicy::random(0.5),
        ],
    );
    let burst = Traffic::Burst {
        load,
        packets: rng.in_range(1, 6),
    };
    cfg = retraffic(
        cfg,
        pick(
            &mut rng,
            &[Traffic::Steady, burst, Traffic::Poisson { load }],
        ),
    );
    cfg.source_queue_capacity = pick(&mut rng, &[1, 2, 16, usize::MAX]);
    cfg.clock_mode = pick(&mut rng, &[ClockMode::EveryCycle, ClockMode::Gated]);
    // The ring capacity follows the window drawn, so every seed keeps
    // the draws of the axes after it.
    cfg.telemetry = rng.chance(0.5).then(|| {
        let window = u64::from(rng.in_range(1, 64));
        TelemetryConfig {
            window,
            capacity: [1, 2, 64][(window % 3) as usize],
        }
    });

    let switches = cfg.topology.switch_count() as u32;
    let shards = rng.in_range(1, switches.min(4)) as usize;
    // The exchange batch this once drew is gone; the draw stays, so
    // every later draw, and every seed's platform, stays where it was.
    let _batch = rng.in_range(1, 16);
    let mut backends = vec![Backend::Compiled, Backend::Sharded(shards)];
    if switches <= 9 {
        backends.extend([Backend::Tlm, Backend::Rtl]);
    }
    // Arms 1 and 2 are alike: drawing one of four keeps every later
    // draw, and so every seed's platform, where it was.
    let phases = ProfileConfig::default();
    cfg.profile = match rng.below(4) {
        0 => None,
        1 | 2 => Some(phases),
        _ => Some(phases.with_stall(u64::from(rng.in_range(1, 8)))),
    };
    for kind in &mut cfg.receptors {
        *kind = pick(&mut rng, &[TrKind::Stochastic, TrKind::TraceDriven]);
    }
    cfg.name = format!("seed {seed}: {}", cfg.name);
    (cfg, backends)
}

/// Every seed of `seeds` meets [`check`]; a failure prints its seed
/// and config before it propagates.
fn check_seeds(seeds: Range<u64>) {
    let mut rejected = Vec::new();
    for seed in seeds.clone() {
        let (cfg, backends) = generate(seed);
        match catch_unwind(AssertUnwindSafe(|| check(&cfg, &backends))) {
            Ok(Ok(_)) => {}
            Ok(Err(e)) => rejected.push((seed, e)),
            Err(panic) => {
                eprintln!("seed {seed} failed on {backends:?}:\n{cfg:#?}");
                resume_unwind(panic);
            }
        }
    }
    // The range exercises the engines, not only their set-up checks.
    assert!(4 * rejected.len() <= seeds.count(), "{rejected:?}");
}

// The tier-1 range, in four tests so that they share the test threads.

#[test]
fn generated_seeds_0_to_31_run_alike_or_are_rejected_alike() {
    check_seeds(0..32);
}

#[test]
fn generated_seeds_32_to_63_run_alike_or_are_rejected_alike() {
    check_seeds(32..64);
}

#[test]
fn generated_seeds_64_to_95_run_alike_or_are_rejected_alike() {
    check_seeds(64..96);
}

#[test]
fn generated_seeds_96_to_127_run_alike_or_are_rejected_alike() {
    check_seeds(96..128);
}

/// The first finding of the generated range (seed 1: a two-leaf star
/// under burst traffic, gated): the TLM and RTL models left a credit
/// returned in the last cycle on its channel or wire until their
/// processes sampled it, so their platform turned quiescent — and
/// jumped — one cycle after the fast engine's, after every delivery.
#[test]
fn tlm_and_rtl_jump_the_windows_the_fast_engine_jumps() {
    let cfg = uniform_random(mesh(2, 2), 0.05, 40).with_clock_mode(ClockMode::Gated);
    let baselines = against_emulation(&cfg, &[Backend::Tlm, Backend::Rtl]);
    assert!(baselines[0].engine.cycles_skipped() > 0);
}

/// A source queue is bounded by its capacity, not sized by it: a
/// capacity `validate` accepts, however large, builds and runs alike on
/// every engine. `1 << 40` used to abort in `elaborate` on the
/// allocation and `usize::MAX` to panic on capacity overflow.
#[test]
fn a_huge_source_queue_capacity_runs_alike_on_every_engine() {
    for capacity in [1 << 40, usize::MAX] {
        let mut cfg = uniform_random(mesh(2, 2), 0.9, 60);
        cfg.source_queue_capacity = capacity;
        let subjects = check(&cfg, EVERY_ENGINE)
            .unwrap_or_else(|e| panic!("capacity {capacity} is rejected: {e}"));
        assert_eq!(subjects.len(), EVERY_ENGINE.len());
    }
}

#[test]
fn a_zero_buffer_depth_is_rejected_alike_by_every_engine() {
    let mut cfg = uniform_random(mesh(2, 2), 0.1, 20);
    cfg.switch.fifo_depth = 0;
    let err = rejects_alike(&cfg, EVERY_ENGINE);
    assert!(
        matches!(
            err,
            CompileError::InvalidField {
                field: "switch.fifo_depth",
                ..
            }
        ),
        "{err}"
    );
}

/// Traffic models one field short of valid: each used to build on
/// every engine and then panic at its generator's first draw.
#[test]
fn near_valid_traffic_models_are_rejected_alike_by_every_engine() {
    let base = PaperConfig::new().total_packets(50).uniform();
    let TrafficModel::Uniform(valid) = &base.generators[0] else {
        panic!("the paper's uniform platform has uniform generators");
    };
    let (dst, flow) = valid.destination.pairs().next().unwrap();
    let cases = [
        ("generators.length", LengthModel::Fixed(0), None),
        (
            "generators.length",
            LengthModel::UniformRange { min: 5, max: 2 },
            None,
        ),
        (
            "generators.destination",
            valid.length,
            Some(DestinationModel::UniformChoice(vec![])),
        ),
        (
            "generators.destination",
            valid.length,
            Some(DestinationModel::Weighted(vec![
                (dst, flow, 0),
                (dst, flow, 0),
            ])),
        ),
    ];
    for (field, length, destination) in cases {
        let mut cfg = base.clone();
        cfg.generators[0] = TrafficModel::Uniform(UniformConfig {
            length,
            destination: destination.unwrap_or_else(|| valid.destination.clone()),
            ..valid.clone()
        });
        let err = rejects_alike(&cfg, EVERY_ENGINE);
        assert!(
            matches!(err, CompileError::InvalidField { field: f, .. } if f == field),
            "{field}: {err}"
        );
    }
}

#[test]
fn a_zero_telemetry_window_is_rejected_alike_by_every_engine() {
    let mut cfg = uniform_random(mesh(2, 2), 0.1, 20);
    cfg.telemetry = Some(TelemetryConfig {
        window: 0,
        ..TelemetryConfig::default()
    });
    let err = rejects_alike(&cfg, EVERY_ENGINE);
    assert!(
        matches!(
            err,
            CompileError::InvalidField {
                field: "telemetry.window",
                ..
            }
        ),
        "{err}"
    );
}

#[test]
fn a_zero_telemetry_capacity_is_rejected_alike_by_every_engine() {
    let mut cfg = uniform_random(mesh(2, 2), 0.1, 20);
    cfg.telemetry = Some(TelemetryConfig {
        capacity: 0,
        ..TelemetryConfig::windowed(64)
    });
    let err = rejects_alike(&cfg, EVERY_ENGINE);
    assert!(
        matches!(
            err,
            CompileError::InvalidField {
                field: "telemetry.capacity",
                ..
            }
        ),
        "{err}"
    );
}
