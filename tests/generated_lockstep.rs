//! Generated configurations through the lockstep harness (`support`).
//!
//! Each case of the stream `generated_lockstep` draws one platform —
//! topology, registry pattern, load, packet length, buffer depth, VC
//! count, arbiter, selection policy, traffic model, source queue, clock
//! mode, telemetry window — the engines it runs on (the compiled engine
//! always, the TLM and RTL models on platforms of at most nine
//! switches), then the self-profiling: off, phases, or phases and
//! a stall watchdog whose window of 1..=8 cycles trips on ordinary
//! congestion, and last a stochastic or trace-driven kind per receptor.
//! The property: every engine matches the interpreted engine per cycle,
//! or every engine rejects the config at build with one equal error. No
//! engine may panic or fail mid-run, and every engine with stall
//! forensics trips its watchdog alike. A failure prints the shrunk
//! stream of draws as a `replay` call, and the config it draws.
//!
//! The named tests below are what the generated cases found, and
//! configurations every engine must reject alike.

mod support;

use std::ops::Range;

use nocem::clock::ClockMode;
use nocem::config::{PaperConfig, PlatformConfig, TrafficModel};
use nocem::error::CompileError;
use nocem::profile::ProfileConfig;
use nocem::CompiledEngine;
use nocem_common::choice::{self, Choices};
use nocem_common::prop_assert;
use nocem_scenarios::registry::ScenarioRegistry;
use nocem_stats::TrKind;
use nocem_switch::arbiter::ArbiterKind;
use nocem_switch::config::SelectionPolicy;
use nocem_telemetry::TelemetryConfig;
use nocem_traffic::generator::{DestinationModel, LengthModel};
use nocem_traffic::stochastic::UniformConfig;
use support::{
    against_emulation, check, mesh, rejects_alike, retraffic, ring, star, torus, uniform_random,
    Backend, Traffic,
};

/// Every engine beside the interpreted one.
const EVERY_ENGINE: &[Backend] = &[
    Backend::Compiled,
    Backend::DirectCompiled,
    Backend::Tlm,
    Backend::Rtl,
];

/// A platform of `packets` packets of `flits` flits at `load`: a
/// registry pattern on a mesh, torus or ring (the first pattern from a
/// drawn one on that applies), or a star with uniform traffic across
/// its hub — also where no pattern applies to the drawn topology.
fn platform(c: &mut Choices, load: f64, flits: u16, packets: u64) -> PlatformConfig {
    let (w, h) = (c.range(1u32..=5), c.range(1u32..=5));
    let topo = match c.below(4) {
        0 => Some(mesh(w, h)),
        1 => Some(torus(w, h)),
        2 => Some(ring(c.range(3u32..=8))),
        _ => None,
    };
    let patterns: Vec<_> = ScenarioRegistry::builtin().iter().cloned().collect();
    let first = c.below(patterns.len());
    let pattern = topo.and_then(|topo| {
        (0..patterns.len()).find_map(|i| {
            let pattern = &patterns[(first + i) % patterns.len()];
            pattern.build_config(topo, load, flits, packets).ok()
        })
    });
    pattern.unwrap_or_else(|| {
        // One star in eight has a hub across the 64-slot edge of the
        // compiled engine's one-word masks.
        let leaves = if c.below(8) == 0 {
            c.range(63u32..=68)
        } else {
            c.range(2u32..=8)
        };
        star(leaves, load, flits, packets)
    })
}

/// The config and the engines under test that `c` draws.
fn generate(c: &mut Choices) -> (PlatformConfig, Vec<Backend>) {
    let load = f64::from(c.range(3u32..=60)) / 100.0;
    let (flits, packets) = (c.range(1u16..=8), c.range(8u64..=60));
    let mut cfg = platform(c, load, flits, packets);
    cfg.switch.fifo_depth = c.range(1u8..=4);
    // 1 to 3 VCs, from the fewest the platform's VC policy routes on: a
    // dateline ring or torus needs 2, every other platform 1.
    cfg.switch.num_vcs = c.range(cfg.switch.num_vcs..=3);
    cfg.switch.arbiter = [ArbiterKind::RoundRobin, ArbiterKind::FixedPriority][c.below(2)];
    cfg.switch.selection = [
        SelectionPolicy::First,
        SelectionPolicy::Alternate,
        SelectionPolicy::Adaptive,
        SelectionPolicy::random(0.5),
    ][c.below(4)];
    let burst = Traffic::Burst {
        load,
        packets: c.range(1u32..=6),
    };
    let traffic = [Traffic::Steady, burst, Traffic::Poisson { load }][c.below(3)];
    cfg = retraffic(cfg, traffic);
    cfg.source_queue_capacity = [1, 2, 16, usize::MAX][c.below(4)];
    cfg.clock_mode = [ClockMode::EveryCycle, ClockMode::Gated][c.below(2)];
    cfg.telemetry = c.bool().then(|| TelemetryConfig {
        window: c.range(1u64..=64),
        capacity: [1, 2, 64][c.below(3)],
    });

    let mut backends = vec![Backend::Compiled];
    if cfg.topology.switch_count() <= 9 {
        backends.extend([Backend::Tlm, Backend::Rtl]);
    }
    let phases = ProfileConfig::default();
    cfg.profile = match c.below(3) {
        0 => None,
        1 => Some(phases),
        _ => Some(phases.with_stall(c.range(1u64..=8))),
    };
    for kind in &mut cfg.receptors {
        *kind = [TrKind::Stochastic, TrKind::TraceDriven][c.below(2)];
    }
    (cfg, backends)
}

/// Every case of `cases` meets [`check`]; a failure prints the shrunk
/// stream and the config it draws.
fn check_cases(cases: Range<u32>) {
    let count = cases.len();
    let mut rejected = Vec::new();
    choice::check("generated_lockstep", cases, |c| {
        let (cfg, backends) = generate(c);
        c.note(format_args!("{backends:?} on {cfg:?}"));
        if let Err(e) = check(&cfg, &backends) {
            rejected.push(e);
        }
        Ok(())
    });
    // The cases exercise the engines, not only their set-up checks.
    assert!(4 * rejected.len() <= count, "{rejected:?}");
}

// The tier-1 cases, in four tests so that they share the test threads.

#[test]
fn generated_seeds_0_to_31_run_alike_or_are_rejected_alike() {
    check_cases(0..32);
}

#[test]
fn generated_seeds_32_to_63_run_alike_or_are_rejected_alike() {
    check_cases(32..64);
}

#[test]
fn generated_seeds_64_to_95_run_alike_or_are_rejected_alike() {
    check_cases(64..96);
}

#[test]
fn generated_seeds_96_to_127_run_alike_or_are_rejected_alike() {
    check_cases(96..128);
}

/// Star hubs wider than the compiled engine's one-word masks: 2 or 3
/// VCs over enough leaves that the hub's input slots (ports × VCs)
/// pass 64, under either arbiter, with uniform traffic across the hub.
/// Only such a hub runs the multi-word round-robin, which the stream
/// above draws too rarely to test.
#[test]
fn generated_hubs_beyond_64_slots_run_alike() {
    choice::check("generated_wide_hubs", 0..24, |c| {
        let vcs = c.range(2u8..=3);
        let leaves = c.range(64 / u32::from(vcs) + 1..=64 / u32::from(vcs) + 8);
        let load = f64::from(c.range(20u32..=60)) / 100.0;
        let (flits, packets) = (c.range(1u16..=6), c.range(200u64..=600));
        let mut cfg = star(leaves, load, flits, packets);
        cfg.switch.num_vcs = vcs;
        cfg.switch.fifo_depth = c.range(1u8..=4);
        cfg.switch.arbiter = [ArbiterKind::RoundRobin, ArbiterKind::FixedPriority][c.below(2)];
        cfg.clock_mode = [ClockMode::EveryCycle, ClockMode::Gated][c.below(2)];
        c.note(format_args!("{cfg:?}"));
        let mut subjects = check(&cfg, &[Backend::DirectCompiled])
            .unwrap_or_else(|e| panic!("{} is rejected: {e}", cfg.name));
        let low = subjects[0].get::<CompiledEngine>().lowered();
        let hub_slots = low.inputs[0] as usize * low.num_vcs;
        prop_assert!(hub_slots > 64, "the hub, switch 0, has {hub_slots} slots");
        Ok(())
    });
}

/// The first finding of the generated configurations (a two-leaf star
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
