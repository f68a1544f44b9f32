//! Design-space exploration: the platform's reason to exist.
//!
//! The paper argues that fast emulation lets designers sweep NoC
//! parameters ("it can emulate different types of NoC and compare
//! their features"). This example compares:
//!
//! * buffer depths 2 / 4 / 8 / 16 under bursty traffic,
//! * single-path vs dual-path routing ("two routing possibilities"),
//! * uniform vs burst vs Poisson traffic at the same offered load,
//!
//! and prints latency / congestion / run-time tables for each sweep.
//!
//! ```text
//! cargo run --release --example design_space
//! ```

use nocem::config::{PaperConfig, PaperRouting, PlatformConfig};
use nocem::sweep::run_sweep;
use nocem_common::table::{Align, TextTable};

const PACKETS: u64 = 20_000;

/// `cfg` under the name its results carry back into the tables.
fn named(name: impl Into<String>, mut cfg: PlatformConfig) -> PlatformConfig {
    cfg.name = name.into();
    cfg
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let hot = PaperConfig::new().setup().hot_links.to_vec();

    // Sweep 1: buffer depth under bursty traffic.
    let mut configs = Vec::new();
    for depth in [2u8, 4, 8, 16] {
        let mut cfg = PaperConfig::new().total_packets(PACKETS).burst(8);
        cfg.switch.fifo_depth = depth;
        cfg.name = format!("B={depth}");
        configs.push(cfg);
    }
    let results = run_sweep(&configs, 4)?;
    let mut t = TextTable::with_columns(&[
        "buffer depth",
        "run-time (cyc)",
        "mean net latency",
        "hot-link congestion",
    ]);
    for c in 1..4 {
        t.align(c, Align::Right);
    }
    for r in &results {
        t.row(vec![
            r.name.clone(),
            r.cycles.to_string(),
            format!("{:.1}", r.network_latency.mean().unwrap_or(0.0)),
            format!("{:.3}", r.congestion_rate(&hot)),
        ]);
    }
    println!("-- Buffer depth sweep (burst traffic, 45% load) --\n{t}");

    // Sweep 2: routing cases.
    let mut configs = vec![named(
        "single-path",
        PaperConfig::new().total_packets(PACKETS).burst(8),
    )];
    for p in [0.25, 0.5] {
        configs.push(named(
            format!("dual p={p}"),
            PaperConfig::new()
                .total_packets(PACKETS)
                .routing(PaperRouting::Dual {
                    secondary_probability: p,
                })
                .burst(8),
        ));
    }
    let results = run_sweep(&configs, 3)?;
    let mut t = TextTable::with_columns(&[
        "routing",
        "run-time (cyc)",
        "mean net latency",
        "max net latency",
    ]);
    for c in 1..4 {
        t.align(c, Align::Right);
    }
    for r in &results {
        t.row(vec![
            r.name.clone(),
            r.cycles.to_string(),
            format!("{:.1}", r.network_latency.mean().unwrap_or(0.0)),
            r.network_latency.max().unwrap_or(0).to_string(),
        ]);
    }
    println!("-- Routing-possibility sweep (burst traffic) --\n{t}");

    // Sweep 3: traffic models at identical offered load.
    let configs = [
        named(
            "uniform",
            PaperConfig::new().total_packets(PACKETS).uniform(),
        ),
        named(
            "poisson",
            PaperConfig::new().total_packets(PACKETS).poisson(),
        ),
        named(
            "burst x4",
            PaperConfig::new().total_packets(PACKETS).burst(4),
        ),
        named(
            "burst x16",
            PaperConfig::new().total_packets(PACKETS).burst(16),
        ),
    ];
    let results = run_sweep(&configs, 4)?;
    let mut t = TextTable::with_columns(&[
        "traffic model",
        "run-time (cyc)",
        "throughput (flit/cyc)",
        "hot-link congestion",
    ]);
    for c in 1..4 {
        t.align(c, Align::Right);
    }
    for r in &results {
        t.row(vec![
            r.name.clone(),
            r.cycles.to_string(),
            format!("{:.3}", r.throughput()),
            format!("{:.3}", r.congestion_rate(&hot)),
        ]);
    }
    println!("-- Traffic model sweep (45% offered load) --\n{t}");
    println!("note: burstier traffic keeps the same mean load but produces");
    println!("more congestion and longer run-times — the paper's Figure 2 effect.");
    Ok(())
}
