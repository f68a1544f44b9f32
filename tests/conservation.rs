//! Property-based conservation tests: whatever the configuration,
//! every accepted packet is delivered exactly once, intact and in
//! order, and the run's accounting balances.

mod support;

use nocem::config::{PaperConfig, PaperRouting, PlatformConfig, TrafficModel};
use nocem::engine::build;
use nocem::EmulationResults;
use nocem_common::choice::check;
use nocem_stats::TrKind;
use nocem_switch::arbiter::ArbiterKind;
use nocem_topology::builders::mesh;

/// Runs a config to completion, checks the global invariants and hands
/// back the results.
fn check_conservation(cfg: &PlatformConfig) -> EmulationResults {
    let mut emu = build(cfg).expect("config must compile");
    emu.run().expect("run must not fault");
    let r = emu.results();
    // Everything delivered was injected; everything injected was
    // released.
    assert!(r.delivered <= r.injected);
    assert!(r.injected <= r.released);
    // The stop condition was a delivery target or full drain.
    match cfg.stop.delivered_packets {
        Some(target) => assert_eq!(r.delivered, target),
        None => {
            assert_eq!(r.delivered, r.released, "drain mode delivers all");
            emu.ledger().verify_drained().unwrap();
        }
    }
    // Per-receptor totals add up.
    let per_tr: u64 = r.receptors.iter().map(|t| t.packets).sum();
    assert_eq!(per_tr, r.delivered);
    // Latency samples cover every delivered packet.
    assert_eq!(r.network_latency.count(), r.delivered);
    assert_eq!(r.total_latency.count(), r.delivered);
    // Network latency can never exceed total latency on aggregate.
    assert!(r.network_latency.sum() <= r.total_latency.sum());
    r
}

#[test]
fn paper_platform_conserves_packets() {
    check("paper_platform_conserves_packets", 0..24, |c| {
        let (packets, burst, flits) = (c.range(50u64..800), c.range(1u32..24), c.range(1u16..12));
        let (seed, dual) = (c.range(0u64..1_000_000), c.bool());
        let mut pc = PaperConfig::new()
            .total_packets(packets)
            .packet_flits(flits)
            .seed(seed);
        if dual {
            pc = pc.routing(PaperRouting::Dual {
                secondary_probability: 0.35,
            });
        }
        let cfg = if burst == 1 {
            pc.uniform()
        } else {
            pc.burst(burst)
        };
        check_conservation(&cfg);
        Ok(())
    });
}

#[test]
fn trace_platform_conserves_packets() {
    check("trace_platform_conserves_packets", 0..24, |c| {
        let (packets, ppb, flits) = (c.range(40u64..400), c.range(1u32..32), c.range(2u16..16));
        let seed = c.range(0u64..1_000_000);
        let cfg = PaperConfig::new()
            .total_packets(packets)
            .packet_flits(flits)
            .seed(seed)
            .trace_bursty(ppb);
        check_conservation(&cfg);
        Ok(())
    });
}

#[test]
fn mesh_drain_conserves_packets() {
    check("mesh_drain_conserves_packets", 0..24, |c| {
        let (w, h, budget) = (c.range(2u32..4), c.range(2u32..4), c.range(10u64..60));
        let depth = c.range(2u8..9);
        let mut cfg = PlatformConfig::baseline("prop-mesh", mesh(w, h).unwrap()).unwrap();
        cfg.switch.fifo_depth = depth;
        for g in &mut cfg.generators {
            if let TrafficModel::Uniform(u) = g {
                u.budget = Some(budget);
            }
        }
        cfg.stop.delivered_packets = None; // drain
        check_conservation(&cfg);
        Ok(())
    });
}

/// Uniform-random traffic on a ring (with its dateline VCs) and across
/// a star's hub, drained: packets cross inter-switch links, which a
/// baseline platform — each TG paired with its own switch's TR — never
/// uses.
#[test]
fn ring_and_star_topologies_conserve() {
    let ring = support::scenario("uniform_random", support::ring(6), 0.2, 4, 180);
    for mut cfg in [ring, support::star(4, 0.2, 4, 120)] {
        cfg.stop.delivered_packets = None;
        let r = check_conservation(&cfg);
        let links = cfg.topology.links().filter(|l| l.is_inter_switch());
        let crossed: u64 = links.map(|l| r.congestion.forwarded(l.id)).sum();
        assert!(
            crossed > 0,
            "{}: no flit crossed an inter-switch link",
            cfg.name
        );
    }
}

#[test]
fn fixed_priority_arbitration_conserves() {
    let mut cfg = PaperConfig::new().total_packets(1_500).burst(8);
    cfg.switch.arbiter = ArbiterKind::FixedPriority;
    check_conservation(&cfg);
}

#[test]
fn trace_receptors_on_stochastic_traffic_conserve() {
    let mut cfg = PaperConfig::new().total_packets(600).uniform();
    cfg.receptors = vec![TrKind::TraceDriven; 4];
    check_conservation(&cfg);
}

#[test]
fn tiny_buffers_still_deliver() {
    let mut cfg = PaperConfig::new().total_packets(500).burst(8);
    cfg.switch.fifo_depth = 1;
    check_conservation(&cfg);
}

#[test]
fn single_flit_packets_work() {
    let cfg = PaperConfig::new()
        .total_packets(800)
        .packet_flits(1)
        .uniform();
    check_conservation(&cfg);
}
