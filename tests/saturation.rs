//! Saturation and backpressure: what happens when the offered load
//! meets or exceeds what the network can carry.
//!
//! The platform implements generator backpressure — a traffic model
//! whose request finds the source queue full is clock-gated and
//! retried, never dropped — so a delivery-target run terminates even
//! under heavy overload. These tests pin down that behaviour and its
//! statistics, and check that all three engines agree *while
//! stalling*, not just in easy regimes.

use nocem::compile::elaborate;
use nocem::config::{PaperConfig, PlatformConfig, TrafficModel};
use nocem::engine::build;
use nocem::SteppableEngine;
use nocem_rtl::model::RtlEngine;
use nocem_tlm::model::TlmEngine;
use nocem_traffic::stochastic::UniformConfig;

/// Rebuilds the paper's uniform config at a different per-TG load.
fn paper_at_load(load: f64, total_packets: u64) -> PlatformConfig {
    let mut cfg = PaperConfig::new().total_packets(total_packets).uniform();
    for g in &mut cfg.generators {
        if let TrafficModel::Uniform(u) = g {
            *u = UniformConfig::with_load(load, 8, u.budget, u.destination.clone());
        }
    }
    cfg
}

/// Shrinks every source queue to force stalls early.
fn with_tiny_queues(mut cfg: PlatformConfig) -> PlatformConfig {
    cfg.source_queue_capacity = 2;
    cfg
}

#[test]
fn overload_terminates_and_delivers_everything() {
    // 0.8 per TG => 1.6 offered on each hot link: far beyond capacity.
    // Backpressure throttles the TGs; every packet still arrives.
    let cfg = paper_at_load(0.8, 4_000);
    let mut emu = build(&cfg).unwrap();
    emu.run().unwrap();
    let r = emu.results();
    assert_eq!(r.delivered, 4_000);
    assert!(r.stalled_cycles > 0, "overload must register TG stalls");
    emu.ledger().verify_drained().unwrap();
}

#[test]
fn hot_links_saturate_at_capacity_under_overload() {
    let cfg = paper_at_load(0.8, 6_000);
    let mut emu = build(&cfg).unwrap();
    emu.run().unwrap();
    let cycles = emu.now().raw();
    let cc = emu.results().congestion;
    for h in PaperConfig::new().setup().hot_links {
        let util = cc.utilization(h, cycles);
        assert!(
            util > 0.93,
            "an overloaded hot link must run at capacity, got {util:.3}"
        );
        assert!(
            util <= 1.0 + 1e-9,
            "utilization cannot exceed one flit/cycle"
        );
    }
}

#[test]
fn throughput_saturates_as_load_rises() {
    // Throughput (delivered flits/cycle over the whole platform) grows
    // with offered load until the hot links clamp it.
    let mut last = 0.0;
    let mut gains = Vec::new();
    for load in [0.2, 0.45, 0.8] {
        let cfg = paper_at_load(load, 4_000);
        let mut emu = build(&cfg).unwrap();
        emu.run().unwrap();
        let thr = emu.results().throughput();
        gains.push(thr - last);
        last = thr;
    }
    assert!(gains[0] > 0.0);
    assert!(gains[1] > 0.0, "45% load must outrun 20% load");
    assert!(
        gains[2] < gains[1],
        "the 0.45→0.8 gain must be smaller than 0.2→0.45 (saturation), got {gains:?}"
    );
}

#[test]
fn stall_cycles_grow_with_offered_load() {
    let stalls: Vec<u64> = [0.45, 0.7, 0.9]
        .iter()
        .map(|&load| {
            let cfg = with_tiny_queues(paper_at_load(load, 3_000));
            let mut emu = build(&cfg).unwrap();
            emu.run().unwrap();
            emu.results().stalled_cycles
        })
        .collect();
    assert!(
        stalls[0] < stalls[1] && stalls[1] < stalls[2],
        "stalls must grow with load: {stalls:?}"
    );
}

#[test]
fn run_time_inflates_under_overload() {
    // Delivering N packets takes ~N*flits/capacity cycles once the
    // network, not the generators, is the bottleneck.
    let nominal = {
        let mut e = build(&paper_at_load(0.45, 3_000)).unwrap();
        e.run().unwrap();
        e.now().raw()
    };
    let overloaded = {
        let mut e = build(&paper_at_load(0.9, 3_000)).unwrap();
        e.run().unwrap();
        e.now().raw()
    };
    // At 45% per TG the hot links already run at 90%; doubling the
    // offered load cannot double the speed — run time stays within a
    // small factor instead of halving.
    assert!(
        overloaded as f64 > 0.8 * nominal as f64,
        "overloaded run finished implausibly fast: {overloaded} vs {nominal}"
    );
}

#[test]
fn engines_agree_while_stalling() {
    // Tiny source queues + bursty traffic: the pending/clock-gating
    // path is exercised constantly. All three engines must still be
    // cycle- and flit-identical.
    let mut cfg = with_tiny_queues(PaperConfig::new().total_packets(600).burst(16));
    cfg.name = "stall-equivalence".into();

    let mut emu = build(&cfg).unwrap();
    emu.run().unwrap();
    let r = emu.results();
    assert!(r.stalled_cycles > 0, "this config must stall TGs");

    let mut rtl = RtlEngine::new(elaborate(&cfg).unwrap());
    rtl.run().unwrap();
    let s = rtl.summary();
    assert_eq!(s.cycles, r.cycles, "RTL cycle count diverged under stall");
    assert_eq!(s.delivered, r.delivered);
    assert_eq!(s.network_latency.sum(), r.network_latency.sum());
    assert_eq!(s.total_latency.sum(), r.total_latency.sum());

    let mut tlm = TlmEngine::new(elaborate(&cfg).unwrap());
    tlm.run().unwrap();
    let s = tlm.summary();
    assert_eq!(s.cycles, r.cycles, "TLM cycle count diverged under stall");
    assert_eq!(s.delivered, r.delivered);
    assert_eq!(s.network_latency.sum(), r.network_latency.sum());
    assert_eq!(s.total_latency.sum(), r.total_latency.sum());
}

#[test]
fn drain_mode_terminates_under_overload() {
    // Even with budgeted overload traffic and no delivery target, the
    // run drains: exhausted TGs + empty pending registers + idle NIs.
    let mut cfg = with_tiny_queues(paper_at_load(0.9, 2_000));
    cfg.stop.delivered_packets = None;
    let mut emu = build(&cfg).unwrap();
    emu.run().unwrap();
    assert_eq!(emu.delivered(), 2_000);
    assert_eq!(emu.ledger().in_flight(), 0);
}

#[test]
fn no_packet_is_ever_rejected() {
    // The accounting proof of backpressure: offered == accepted on
    // every NI, for a config that heavily stalls.
    let cfg = with_tiny_queues(paper_at_load(0.9, 2_000));
    let mut emu = build(&cfg).unwrap();
    emu.run().unwrap();
    let r = emu.results();
    assert_eq!(r.released, 2_000, "all packets accepted");
    assert_eq!(r.delivered, 2_000);
}
