//! Sparse-traffic lockstep: the compiled kernel steps live sets — the
//! switches holding a flit, the non-idle NIs, and a watermark over the
//! TG events — instead of scanning the platform, and jumps the gated
//! clock without touching a generator. At 0.1 % and 1 % load almost
//! every cycle takes those short paths, so this suite pins them to the
//! interpreted [`nocem::Emulation`] *per cycle* (the shared harness in
//! `support`): same clock, same ledger after every step, same skip
//! count at the end.
//!
//! Debug builds additionally check, inside every `step()`, that each
//! live set and counter mirrors the state it summarises.

mod support;

use nocem::clock::ClockMode;
use nocem::config::PlatformConfig;
use nocem_scenarios::scenario::TopologySpec;
use support::{against_emulation, mesh, retraffic, ring, scenario, torus, Backend, Traffic};

/// Uniform-random traffic on `topo` at `load` with every generator
/// switched to `traffic`, stopping after `deliver` packets (budgets are
/// generous, so the stop condition — not a straggling generator — ends
/// the run).
fn sparse_config(
    topo: TopologySpec,
    load: f64,
    traffic: Traffic,
    mode: ClockMode,
    deliver: u64,
) -> PlatformConfig {
    let cfg = scenario("uniform_random", topo, load, 4, 4 * deliver);
    let mut cfg = retraffic(cfg, traffic).with_clock_mode(mode);
    cfg.stop.delivered_packets = Some(deliver);
    cfg.name = format!("{}/{mode:?}", cfg.name);
    cfg
}

/// The whole grid for one topology; gated runs must skip cycles.
fn assert_sparse_grid(topo: TopologySpec, deliver: u64) {
    for load in [0.001, 0.01] {
        let burst = Traffic::Burst { load, packets: 3 };
        for traffic in [Traffic::Steady, burst, Traffic::Poisson { load }] {
            for mode in [ClockMode::EveryCycle, ClockMode::Gated] {
                let cfg = sparse_config(topo, load, traffic, mode, deliver);
                let compiled = against_emulation(&cfg, &[Backend::DirectCompiled]);
                let summary = compiled[0].engine.summary();
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
    assert_sparse_grid(mesh(12, 12), 220);
}

#[test]
fn torus8x8_two_vc_sparse_traffic_is_ledger_identical_per_cycle() {
    assert_sparse_grid(torus(8, 8), 100);
}

#[test]
fn ring8_sparse_traffic_is_ledger_identical_per_cycle() {
    assert_sparse_grid(ring(8), 40);
}

/// Back-pressure: long packets into one hot spot through a one-slot
/// source queue. Generators spend most of the run parked on a full
/// NI, so the TG phase must keep running for them (no watermark skip,
/// no clock jump) while most of the mesh holds no flit at all.
#[test]
fn parked_generators_pin_the_tg_phase_and_the_clock() {
    for mode in [ClockMode::EveryCycle, ClockMode::Gated] {
        let mut cfg = scenario("hotspot", mesh(4, 4), 0.5, 16, 120).with_clock_mode(mode);
        cfg.source_queue_capacity = 1;
        cfg.name = format!("{}/backpressure/{mode:?}", cfg.name);
        let mut compiled = against_emulation(&cfg, &[Backend::DirectCompiled]);
        let results = compiled[0].engine.all_results();
        assert!(
            results.stalled_cycles > results.cycles,
            "{}: only {} parked TG-cycles in {} cycles",
            cfg.name,
            results.stalled_cycles,
            results.cycles
        );
    }
}

/// The sharded workers run the same phases over the same live sets;
/// under gating the coordinator jumps and the workers replay nothing.
#[test]
fn two_shards_step_the_same_sparse_cycles() {
    let cfg = sparse_config(mesh(12, 12), 0.001, Traffic::Steady, ClockMode::Gated, 220);
    let backends = [1, 8].map(|batch| Backend::Sharded(2, batch));
    for s in against_emulation(&cfg, &backends) {
        assert!(s.engine.cycles_skipped() > 0, "{} skipped nothing", s.name);
    }
}
