//! Memory probe of a long run: uniform-random traffic on an 8 × 8 mesh
//! at 40 % load, compiled engine, open loop for 1 000 000 cycles
//! (≈ 4.7 M delivered packets), then the packet-ledger snapshot and the
//! windowed statistics of both latencies that a measured run takes.
//!
//! ```text
//! cargo run --release --example ledger_memory
//! ```
//!
//! Prints the delivered packets, the archive's bytes per delivered
//! packet, the window statistics and the process's peak resident set
//! (`VmHWM`). It is also a check (CI runs it): a peak over 21 MB exits
//! non-zero. The packet ledger is the only structure that grows with
//! run length. It archives a delivered packet as an adaptive
//! Golomb–Rice row of ≈ 2.3 bytes (10.5 MB here), and a snapshot shares
//! the archive instead of copying it, which holds the peak near 14 MB;
//! 3.9-byte varint rows peaked at 21 MB, and 8-byte rows with a copying
//! snapshot at 77 MB.

use nocem::clock::run_engine_until;
use nocem::sweep::AnyEngine;
use nocem::{EngineKind, SteppableEngine, TrafficModel};
use nocem_scenarios::{ScenarioRegistry, TopologySpec};
use nocem_stats::{Window, WindowStats};
use support::peak_rss_mb;

mod support;

/// The run length, and the peak allowed: one and a half times the
/// 13.9–14.0 MB it reads on Linux x86-64, rounded up to a whole MB.
const CYCLES: u64 = 1_000_000;
const LIMIT_PEAK_MB: f64 = 21.0;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let topology = TopologySpec::Mesh {
        width: 8,
        height: 8,
    };
    let mut config = ScenarioRegistry::builtin()
        .resolve("uniform_random")?
        .build_config(topology, 0.40, 4, 1_000)?;
    for generator in &mut config.generators {
        if let TrafficModel::Uniform(u) = generator {
            u.budget = None;
        }
    }
    config.stop.delivered_packets = None;
    config.stop.cycle_limit = u64::MAX;
    config.engine = EngineKind::Compiled;

    let mut engine = AnyEngine::build(&config)?;
    run_engine_until(&mut engine, CYCLES)?;
    let ledger = engine.packet_ledger();
    let warmup = CYCLES / 10;
    let window = Window::after_warmup(warmup, CYCLES - warmup, CYCLES);
    let (network, total) = WindowStats::from_ledger_both(&ledger, window);
    let peak = peak_rss_mb();

    println!("uniform_random on mesh8x8 at 40 % load, {CYCLES} cycles");
    println!("  delivered        {:>12} packets", ledger.delivered());
    let archive = ledger.archive_bytes() as f64;
    println!(
        "  archive          {:>12.1} MB, {:.2} B per delivered packet",
        archive / (1024.0 * 1024.0),
        archive / ledger.delivered() as f64
    );
    println!("  in window        {:>12} samples", network.samples());
    let mean = |stats: &WindowStats| stats.mean().unwrap_or(f64::NAN);
    println!("  network latency  {:>12.1} cycles mean", mean(&network));
    println!("  total latency    {:>12.1} cycles mean", mean(&total));
    match peak {
        Some(mb) => println!("  VmHWM            {mb:>12.1} MB"),
        None => println!("  VmHWM                     n/a"),
    }

    if peak.is_some_and(|mb| mb > LIMIT_PEAK_MB) {
        return Err(format!("peak resident set over {LIMIT_PEAK_MB} MB").into());
    }
    Ok(())
}
