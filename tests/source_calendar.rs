//! Lockstep of the compiled kernel's source side against the
//! interpreted [`nocem::Emulation`]: traffic generators filed in a
//! due-calendar by the cycle of their next event (a 64-cycle wheel plus
//! a far set), and credit-blocked network interfaces that sleep until
//! their credit returns and book the blocked cycles they slept through
//! when they wake.
//!
//! Every mix below aims at one edge of that machinery — gaps that land
//! on the last wheel slot, the first far one and beyond it; bursty and
//! memoryless models; budgets that run out mid-run; trace silences
//! longer than the wheel; a one-slot source queue at 90 % load, where
//! generators park and NIs fall asleep and wake every few cycles — and
//! each runs on mesh4x4 and on torus4x4 (two dateline VCs) on the
//! compiled engine under both clock modes.
//! The proof is per cycle: the same clock and ledger after every step,
//! then the same telemetry window by window (the NI injection links
//! carry the blocked cycles, so a probe taken while an NI sleeps must
//! add what it owes) and the same results.

mod support;

use nocem::clock::ClockMode;
use nocem::config::{PlatformConfig, TrafficModel};
use nocem::engine::build;
use nocem::ProfileConfig;
use nocem_scenarios::scenario::TopologySpec;
use nocem_stats::TrKind;
use nocem_telemetry::TelemetryConfig;
use nocem_traffic::generator::LengthModel;
use nocem_traffic::stochastic::{BurstConfig, PoissonConfig, UniformConfig};
use support::{against_emulation, each_uniform, mesh, torus, uniform_random, Backend, Subject};

/// Generators (one per switch) on either topology.
const GENERATORS: u64 = 16;

/// Uniform-random traffic on `topo` at `load`: `budget` packets of four
/// flits per generator, 16-cycle telemetry windows, the run ending when
/// every generator is exhausted and everything it sent delivered.
fn base(topo: TopologySpec, load: f64, budget: u64) -> PlatformConfig {
    let mut cfg = uniform_random(topo, load, budget * GENERATORS);
    assert_eq!(cfg.generators.len() as u64, GENERATORS);
    cfg.stop.delivered_packets = None;
    cfg.telemetry = Some(TelemetryConfig::windowed(16));
    cfg
}

/// `make(topo)` on mesh4x4 and on torus4x4 (two dateline VCs), each in
/// lockstep with the interpreted engine in the same clock mode: the
/// compiled engine under both clock modes.
/// Returns the engines under test.
fn assert_mix(make: impl Fn(TopologySpec) -> PlatformConfig) -> Vec<Subject> {
    let mut engines = Vec::new();
    for topo in [mesh(4, 4), torus(4, 4)] {
        let cfg = make(topo);
        engines.extend(against_emulation(&cfg, &[Backend::Compiled]));
        let gated = cfg.with_clock_mode(ClockMode::Gated);
        engines.extend(against_emulation(&gated, &[Backend::Compiled]));
    }
    engines
}

/// Uniform gaps pinned so that a release files its next event exactly
/// on the last wheel slot (63 cycles out), on the first far one (64),
/// just past it (65, 66, 67), or anywhere from the wheel into the far
/// set (61–302): release spacing is the packet length plus the gap,
/// and lengths alternate between one and two flits.
#[test]
fn gaps_at_the_wheel_edge_are_ledger_identical() {
    const GAPS: [(u32, u32); 5] = [(62, 62), (63, 63), (64, 64), (65, 65), (60, 300)];
    assert_mix(|topo| {
        let mut cfg = base(topo, 0.05, 12);
        each_uniform(&mut cfg, |i, u| {
            TrafficModel::Uniform(UniformConfig {
                length: LengthModel::Fixed(1 + (i / GAPS.len()) as u16 % 2),
                gap: GAPS[i % GAPS.len()],
                ..u
            })
        });
        cfg.name = format!("{}/wheel-edge", cfg.name);
        cfg
    });
}

/// Burst and Poisson models: back-to-back packets inside a burst, then
/// predrawn idle runs of any length.
#[test]
fn burst_and_poisson_sources_are_ledger_identical() {
    assert_mix(|topo| {
        let mut cfg = base(topo, 0.3, 30);
        each_uniform(&mut cfg, |i, u| {
            if i % 2 == 0 {
                TrafficModel::Burst(BurstConfig::with_load(0.3, 4, 4, u.budget, u.destination))
            } else {
                TrafficModel::Poisson(PoissonConfig::with_load(0.3, 4, u.budget, u.destination))
            }
        });
        cfg.name = format!("{}/burst+poisson", cfg.name);
        cfg
    });
}

/// Budgets of one to five packets: generators exhaust at different
/// cycles, mid-run, and are never filed again.
#[test]
fn generators_exhausting_mid_run_are_ledger_identical() {
    assert_mix(|topo| {
        let mut cfg = base(topo, 0.2, 5);
        each_uniform(&mut cfg, |i, u| {
            TrafficModel::Uniform(UniformConfig {
                budget: Some(1 + i as u64 % 5),
                gap: (0, 120),
                ..u
            })
        });
        cfg.name = format!("{}/exhausting", cfg.name);
        cfg
    });
}

/// Trace-driven generators replaying a recorded run whose silences
/// between releases are 64 to 200 cycles long.
#[test]
fn trace_silences_beyond_the_wheel_are_ledger_identical() {
    assert_mix(|topo| {
        let mut cfg = base(topo, 0.05, 6);
        each_uniform(&mut cfg, |_, u| {
            TrafficModel::Uniform(UniformConfig {
                gap: (64, 200),
                ..u
            })
        });
        cfg.record_trace = true;
        let mut recording = build(&cfg).unwrap();
        recording.run().unwrap();
        let (_, trace) = recording.into_results();
        let trace = trace.expect("recording enabled");
        assert_eq!(trace.len() as u64, 6 * GENERATORS);
        cfg.record_trace = false;
        cfg.generators = vec![TrafficModel::Trace(trace); cfg.generators.len()];
        cfg.receptors = vec![TrKind::TraceDriven; cfg.receptors.len()];
        cfg.name = format!("{}/trace", cfg.name);
        cfg
    });
}

/// A one-slot source queue at 90 % load: generators park on a full
/// queue and network interfaces run out of credit and sleep, both every
/// few cycles — and the engines under test did put NIs to sleep.
#[test]
fn parked_generators_and_sleeping_nis_are_ledger_identical() {
    let engines = assert_mix(|topo| {
        let mut cfg = base(topo, 0.9, 40);
        cfg.source_queue_capacity = 1;
        cfg.profile = Some(ProfileConfig::default());
        cfg.name = format!("{}/queue1", cfg.name);
        cfg
    });
    for mut s in engines {
        let stalled = s.engine.all_results().stalled_cycles;
        assert!(stalled > 0, "nothing parked on {}", s.name);
        let work = s.engine.profile().expect("profiling on").work;
        assert!(work.ni_sleeps > 0, "no NI slept on {}", s.name);
        assert!(work.tg_polls >= work.tg_ticks);
    }
}
