//! Cross-engine equivalence: the fast emulation engine, the RTL
//! baseline and the TLM baseline must produce identical runs — same
//! number of cycles, same deliveries, same per-packet latencies — for
//! identical configurations and seeds. This is what makes the Table 2
//! speed comparison meaningful: all three engines do the same work.
//!
//! The engines share one stepping contract (`nocem::SteppableEngine`),
//! so the comparison is the shared lockstep harness (`support`): the
//! RTL and TLM models step beside the fast engine and must stand on
//! its cycle with its packet ledger after every step.

mod support;

use nocem::compile::elaborate;
use nocem::config::{PaperConfig, PaperRouting, PlatformConfig, TrafficModel};
use nocem::engine::build;
use nocem_scenarios::scenario::TopologySpec;
use nocem_stats::ledger::LedgerError;
use nocem_telemetry::TelemetryConfig;
use nocem_topology::builders::mesh;
use support::{
    against_emulation, lockstep_until, ring, scenario, subject, torus, uniform_random, Backend,
    Subject,
};

/// Runs RTL and TLM in lockstep with the fast engine.
fn baselines(cfg: &PlatformConfig) -> Vec<Subject> {
    against_emulation(cfg, &[Backend::Rtl, Backend::Tlm])
}

#[test]
fn uniform_traffic_is_engine_equivalent() {
    baselines(&PaperConfig::new().total_packets(500).uniform());
}

/// TLM and RTL `results()` read the settled platform, so they equal the
/// fast engine's after every cycle, not only at the end: a watermark
/// peak set by a flit still on its link counts already.
#[test]
fn results_match_after_every_cycle() {
    let cfg = PaperConfig::new().total_packets(400).uniform();
    let mut reference = subject(&cfg, Backend::Emulation);
    let mut models = [subject(&cfg, Backend::Tlm), subject(&cfg, Backend::Rtl)];
    while !reference.engine.finished() {
        reference.engine.step().unwrap();
        let want = reference.engine.all_results();
        for m in &mut models {
            m.engine.step().unwrap();
            let cycle = reference.engine.now();
            assert_eq!(m.engine.all_results(), want, "{} at {cycle}", m.name);
        }
    }
}

#[test]
fn burst_traffic_is_engine_equivalent() {
    baselines(&PaperConfig::new().total_packets(500).burst(8));
}

#[test]
fn poisson_traffic_is_engine_equivalent() {
    baselines(&PaperConfig::new().total_packets(400).poisson());
}

#[test]
fn trace_traffic_is_engine_equivalent() {
    baselines(
        &PaperConfig::new()
            .total_packets(400)
            .packet_flits(4)
            .trace_bursty(8),
    );
}

#[test]
fn dual_routing_is_engine_equivalent() {
    baselines(
        &PaperConfig::new()
            .total_packets(500)
            .routing(PaperRouting::Dual {
                secondary_probability: 0.4,
            })
            .uniform(),
    );
}

#[test]
fn mesh_platform_is_engine_equivalent() {
    let mut cfg = PlatformConfig::baseline("mesh3x3", mesh(3, 3).unwrap()).unwrap();
    for g in &mut cfg.generators {
        if let TrafficModel::Uniform(u) = g {
            u.budget = Some(40);
        }
    }
    cfg.stop.delivered_packets = Some(9 * 40);
    baselines(&cfg);
}

#[test]
fn deep_buffer_platform_is_engine_equivalent() {
    let mut cfg = PaperConfig::new().total_packets(400).burst(16);
    cfg.switch.fifo_depth = 16;
    baselines(&cfg);
}

/// The paper platform's default seed under bursts, with and without
/// windowed telemetry: the live occupancy a window samples counts a
/// flit still on a TLM channel or an RTL wire in its downstream FIFO.
#[test]
fn paper_bursts_with_telemetry_are_engine_equivalent() {
    baselines(&PaperConfig::new().total_packets(300).burst(8));
    let windowed = Some(TelemetryConfig::windowed(64));
    let cfg = PaperConfig::new().total_packets(200).burst(8);
    let runs = baselines(&cfg.with_telemetry(windowed));
    let windows = runs[0].engine.telemetry().unwrap().windows_recorded();
    assert!(windows > 0, "run long enough to window");
}

#[test]
fn different_seeds_produce_different_but_equivalent_runs() {
    let a = baselines(&PaperConfig::new().total_packets(300).seed(1).burst(8));
    let b = baselines(&PaperConfig::new().total_packets(300).seed(2).burst(8));
    assert_ne!(
        a[0].engine.summary().network_latency.sum(),
        b[0].engine.summary().network_latency.sum(),
        "different seeds should change the traffic"
    );
}

/// A 2-VC scenario config (minimal + dateline routing) from the
/// registry, asserting it really exercises the second VC.
fn two_vc_config(spec: TopologySpec) -> PlatformConfig {
    let cfg = uniform_random(spec, 0.25, 400);
    assert_eq!(cfg.switch.num_vcs, 2, "rings/tori run the dateline scheme");
    let elab = elaborate(&cfg).unwrap();
    assert!(
        elab.routing.max_vc() >= 1,
        "paths must cross the dateline (wrap-around links in use)"
    );
    cfg
}

#[test]
fn two_vc_ring_is_engine_equivalent() {
    // The acceptance case: a bidirectional ring routed minimally
    // across its wrap-around under 2-VC dateline routing; all three
    // engines agree cycle for cycle.
    baselines(&two_vc_config(ring(8)));
}

#[test]
fn two_vc_torus_is_engine_equivalent() {
    baselines(&two_vc_config(torus(4, 4)));
}

#[test]
fn two_vc_ring_uses_wraparound_links() {
    // Line routing is gone: the wrap-around pair between the highest
    // and lowest switch carries real traffic in a minimal-routing run.
    let cfg = two_vc_config(ring(8));
    let mut emu = build(&cfg).unwrap();
    emu.run().unwrap();
    let cc = emu.results().congestion;
    let topo = &cfg.topology;
    let wrap_flits: u64 = topo
        .links()
        .filter(|l| match (l.from_switch(), l.to_switch()) {
            (Some(a), Some(b)) => a.raw().abs_diff(b.raw()) > 1,
            _ => false,
        })
        .map(|l| cc.forwarded(l.id))
        .sum();
    assert!(wrap_flits > 0, "wrap-around links must carry flits");
}

/// `tornado` on a torus8x8 at load 0.1875, a point past saturation on
/// the checked-in curves, starves packets: by cycle 3 072 the oldest
/// one in flight, id 266, has about 6 200 later ids released behind it
/// (at cycle 9 216, id 592 has 17 066). Every engine — TLM and RTL
/// included — stands on the reference's ledger after every cycle
/// while the ledger pins stragglers, parks the packets delivered behind
/// them and flushes both into the archive, and the reference's open
/// window ends smaller than a flat 32-byte row per id from the
/// straggler on would be.
#[test]
fn a_starving_packet_keeps_every_ledger_equal() {
    let cfg = scenario("tornado", torus(8, 8), 0.1875, 4, 1_000_000);
    let mut reference = subject(&cfg, Backend::Emulation);
    let mut subjects: Vec<Subject> = [Backend::Compiled, Backend::Tlm, Backend::Rtl]
        .into_iter()
        .map(|b| subject(&cfg, b))
        .collect();
    lockstep_until(&mut reference, &mut subjects, 3_072);
    let ledger = reference.engine.ledger_ref();
    let Err(LedgerError::UnknownPacket(straggler)) = ledger.verify_drained() else {
        panic!("{}: nothing starves", cfg.name);
    };
    let behind = ledger.released() - straggler.raw();
    let bytes = ledger.window_bytes() as u64;
    assert!(
        behind > 5_000,
        "straggler {straggler} only {behind} ids back"
    );
    assert!(
        bytes < 32 * behind,
        "open window {bytes} B for {behind} ids from the straggler on"
    );
}
