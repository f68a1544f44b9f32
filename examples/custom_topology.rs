//! Build and emulate a custom NoC — the "versatile emulation platform"
//! use case.
//!
//! The paper's platform can "emulate any NoC packet-switching
//! intercommunication scheme" without hardware re-synthesis. This
//! example builds an irregular 5-switch topology by hand (two rows
//! joined by a bridge switch, the kind of shape an SoC floorplan
//! forces), attaches mixed traffic (one bursty multimedia-style TG,
//! one uniform control-style TG, one Poisson TG), runs the emulation,
//! and prints per-link utilization alongside the synthesis estimate.
//!
//! ```text
//! cargo run --release -p nocem --example custom_topology
//! ```

use nocem::config::{PlatformConfig, RoutingSpec, TrafficModel};
use nocem::engine::build;
use nocem_stats::TrKind;
use nocem_topology::graph::TopologyBuilder;
use nocem_topology::routing::RouteAlgorithm;
use nocem_traffic::generator::DestinationModel;
use nocem_traffic::stochastic::{BurstConfig, PoissonConfig, UniformConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // An irregular SoC-style interconnect:
    //
    //   TG0            TG1
    //    |              |
    //   [S0] ———————— [S1]
    //      \          /
    //       [ S2 bridge ]
    //      /          \
    //   [S3] ———————— [S4] --> TR2
    //    |              |
    //   TG2            TR0, TR1
    let mut b = TopologyBuilder::new("soc-bridge");
    let s: Vec<_> = b.switches(5);
    b.connect_bidir(s[0], s[1]);
    b.connect_bidir(s[0], s[2]);
    b.connect_bidir(s[1], s[2]);
    b.connect_bidir(s[2], s[3]);
    b.connect_bidir(s[2], s[4]);
    b.connect_bidir(s[3], s[4]);
    let tg0 = b.generator(s[0]);
    let tg1 = b.generator(s[1]);
    let tg2 = b.generator(s[3]);
    let tr0 = b.receptor(s[4]);
    let tr1 = b.receptor(s[4]);
    let tr2 = b.receptor(s[4]);
    let topology = b.build()?;

    // Start from the baseline (uniform everywhere, shortest-path
    // routing) and specialize: flows are fixed TG→TR pairs with mixed
    // traffic classes.
    let mut cfg = PlatformConfig::baseline("soc-bridge", topology)?;
    let flows = cfg.flows.to_listed();
    let dst = |i: usize| DestinationModel::Fixed {
        dst: flows[i].dst,
        flow: flows[i].flow,
    };
    assert_eq!(
        (flows[0].src, flows[1].src, flows[2].src),
        (tg0, tg1, tg2),
        "one-to-one pairing follows declaration order"
    );
    assert_eq!((flows[0].dst, flows[1].dst, flows[2].dst), (tr0, tr1, tr2));
    let budget = 8_000u64;
    cfg.generators = vec![
        // A bursty multimedia stream: 30% load in bursts of 16 packets.
        TrafficModel::Burst(BurstConfig::with_load(0.30, 16, 8, Some(budget), dst(0))),
        // A steady control channel: 20% load, short packets.
        TrafficModel::Uniform(UniformConfig::with_load(0.20, 2, Some(budget), dst(1))),
        // Background DMA-ish traffic: Poisson at 25%.
        TrafficModel::Poisson(PoissonConfig::with_load(0.25, 4, Some(budget), dst(2))),
    ];
    cfg.receptors = vec![TrKind::TraceDriven; 3];
    cfg.routing = RoutingSpec::Algorithm(RouteAlgorithm::Shortest);

    let mut emu = build(&cfg)?;
    emu.run()?;
    let r = emu.results();

    println!("== custom topology: {} ==", r.name);
    println!(
        "{} packets delivered in {} cycles ({:.3} flits/cycle)\n",
        r.delivered,
        r.cycles,
        r.throughput()
    );

    println!("per-receptor latency:");
    for tr in &r.receptors {
        println!(
            "  {}: {} packets, mean network latency {}",
            tr.label,
            tr.packets,
            tr.mean_network_latency
                .map_or_else(|| "-".into(), |l| format!("{l:.1} cyc")),
        );
    }

    println!("\ninter-switch link utilization (bridge links carry the most):");
    let topo = &emu.elaboration().config.topology;
    let mut rows: Vec<(String, f64, f64)> = topo
        .links()
        .filter(|l| l.is_inter_switch())
        .map(|l| {
            (
                format!("{} -> {}", l.from_switch().unwrap(), l.to_switch().unwrap()),
                r.link_utilization(l.id),
                r.congestion.rate(l.id),
            )
        })
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (label, util, rate) in rows.iter().take(6) {
        println!("  {label}: utilization {util:.3}, congestion rate {rate:.3}");
    }

    Ok(())
}
