//! Memory probe of the packet ledger, in three phases.
//!
//! 1. A long run: uniform-random traffic on an 8 × 8 mesh at 40 % load,
//!    compiled engine, open loop for 1 000 000 cycles (≈ 4.7 M delivered
//!    packets), then the packet-ledger snapshot and the windowed
//!    statistics of both latencies that a measured run takes. Its first
//!    100 000 cycles are the benchmark's `sat_mesh8x8` run.
//! 2. A starving run: `tornado` on an 8 × 8 torus at load 0.1875, the
//!    curve point past saturation where a packet released near cycle
//!    181 is still in flight when the point ends at cycle 9 216, with
//!    17 066 later ids released behind it. It runs twice: keeping the
//!    ledger's history, and watching the point's measurement window as
//!    a curve point does.
//! 3. A sparse run, the benchmark's `lowload_mesh12x12`: uniform-random
//!    traffic on a 12 × 12 mesh at 0.1 % load for 2 000 000 cycles.
//!
//! ```text
//! cargo run --release --example ledger_memory
//! ```
//!
//! Phase 1 prints the archive's bytes per delivered packet at 100 000
//! cycles, then the delivered packets, the archive, the window
//! statistics and the process's peak resident set (`VmHWM`). The packet
//! ledger is the only structure that grows with run length. It archives
//! a delivered packet as an adaptive Golomb–Rice row of ≈ 2.1 bytes
//! (9.5 MB here), and a snapshot shares the archive instead of copying
//! it, which holds the peak near 12.4 MB; 3.9-byte varint rows peaked at
//! 21 MB, and 8-byte rows with a copying snapshot at 77 MB.
//!
//! Phase 2 prints, for each run, the peak of the ledger's open window
//! (`window_bytes`), the peak of packets in flight and the straggler.
//! Keeping history, the window pins the stragglers and parks the
//! packets delivered behind them as rows of ≈ 1.1 bytes, so it peaks at
//! 208 KiB, spare capacity included; a dense window of 32-byte rows from
//! the straggler on held all 17 066 ids (0.55 MB before spare capacity).
//! Watching the window, the ledger folds each delivery into the window's
//! statistics and drops the packet, so it holds only the packets in
//! flight: its open window peaks at 72 KiB.
//!
//! Phase 3 prints the archive's bytes per delivered packet.
//!
//! It is also a check (CI runs it): a peak resident set over 19 MB, an
//! open window over 312 KiB (108 KiB watching), or an archive over
//! 16.8 bits per packet on `sat_mesh8x8` or 12.4 on `lowload_mesh12x12`
//! exits non-zero.

use nocem::clock::run_engine_until;
use nocem::sweep::AnyEngine;
use nocem::{EngineKind, SteppableEngine, TrafficModel};
use nocem_scenarios::{ScenarioRegistry, TopologySpec};
use nocem_stats::{LedgerError, PacketLedger, Window, WindowStats};
use support::peak_rss_mb;

mod support;

type Failure = Box<dyn std::error::Error>;

/// The long run's length, and the peak allowed: one and a half times
/// the 12.4 MB it reads on Linux x86-64, rounded up to a whole MB.
const CYCLES: u64 = 1_000_000;
const LIMIT_PEAK_MB: f64 = 19.0;

/// The starving run's length (the curve point's warm-up and window),
/// and the open window allowed: one and a half times its 208 KiB peak,
/// and its 72 KiB peak when the ledger watches the window.
const STARVING_WARMUP: u64 = 1_024;
const STARVING_CYCLES: u64 = 9_216;
const LIMIT_WINDOW_KIB: f64 = 312.0;
const LIMIT_WATCHED_WINDOW_KIB: f64 = 108.0;

/// The runs of the benchmark's `sat_mesh8x8` and `lowload_mesh12x12`,
/// and the archive bits per delivered packet allowed on each: they read
/// 16.73 and 12.38.
const SAT_CYCLES: u64 = 100_000;
const LIMIT_SAT_BITS: f64 = 16.8;
const LOWLOAD_CYCLES: u64 = 2_000_000;
const LIMIT_LOWLOAD_BITS: f64 = 12.4;

/// The open-loop, compiled-engine run of scenario `name` on `topology`
/// at `load` with 4-flit packets.
fn open_loop(name: &str, topology: TopologySpec, load: f64) -> Result<AnyEngine, Failure> {
    let mut config = ScenarioRegistry::builtin()
        .resolve(name)?
        .build_config(topology, load, 4, 1_000)?;
    for generator in &mut config.generators {
        if let TrafficModel::Uniform(u) = generator {
            u.budget = None;
        }
    }
    config.stop.delivered_packets = None;
    config.stop.cycle_limit = u64::MAX;
    config.engine = EngineKind::Compiled;
    Ok(AnyEngine::build(&config)?)
}

/// Prints the archive's bytes and bits per delivered packet of `ledger`
/// under `label`; more than `limit_bits` is an error.
fn archive_per_packet(label: &str, ledger: &PacketLedger, limit_bits: f64) -> Result<(), Failure> {
    let bytes = ledger.archive_bytes() as f64 / ledger.delivered() as f64;
    println!(
        "  {label:<16} {bytes:>12.2} B ({:.2} bits) per delivered packet",
        8.0 * bytes
    );
    if 8.0 * bytes > limit_bits {
        return Err(format!("{label} archive over {limit_bits} bits per packet").into());
    }
    Ok(())
}

fn long_run() -> Result<(), Failure> {
    let topology = TopologySpec::Mesh {
        width: 8,
        height: 8,
    };
    let mut engine = open_loop("uniform_random", topology, 0.40)?;
    println!("uniform_random on mesh8x8 at 40 % load, {CYCLES} cycles");
    run_engine_until(&mut engine, SAT_CYCLES)?;
    archive_per_packet("sat_mesh8x8", engine.ledger(), LIMIT_SAT_BITS)?;
    run_engine_until(&mut engine, CYCLES)?;
    let ledger = engine.packet_ledger();
    let warmup = CYCLES / 10;
    let window = Window::after_warmup(warmup, CYCLES - warmup, CYCLES);
    let (network, total) = WindowStats::from_ledger_both(&ledger, window);
    let peak = peak_rss_mb();

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

/// The starving run, watching its measurement window if `watch`; more
/// than `limit_kib` of open window is an error.
fn starving_run(watch: bool, limit_kib: f64) -> Result<(), Failure> {
    let topology = TopologySpec::Torus {
        width: 8,
        height: 8,
    };
    let mut engine = open_loop("tornado", topology, 0.1875)?;
    let measured = STARVING_CYCLES - STARVING_WARMUP;
    if watch {
        engine.watch(Window::after_warmup(
            STARVING_WARMUP,
            measured,
            STARVING_CYCLES,
        ))?;
    }
    let (mut window_peak, mut in_flight_peak) = (0, 0);
    while engine.now().raw() < STARVING_CYCLES {
        engine.step()?;
        let ledger = engine.ledger();
        window_peak = window_peak.max(ledger.window_bytes());
        in_flight_peak = in_flight_peak.max(ledger.in_flight());
    }

    let ledger = engine.ledger();
    let kept = if watch {
        "watching its window"
    } else {
        "keeping history"
    };
    println!("tornado on torus8x8 at load 0.1875, {STARVING_CYCLES} cycles, {kept}");
    println!("  released         {:>12} packets", ledger.released());
    if let Err(LedgerError::UnknownPacket(straggler)) = ledger.verify_drained() {
        println!("  oldest in flight {:>12}", straggler.to_string());
    }
    println!("  in flight peak   {in_flight_peak:>12} packets");
    let window_kib = window_peak as f64 / 1024.0;
    println!("  open window peak {window_kib:>12.1} KiB");

    if window_kib > limit_kib {
        return Err(format!("open window over {limit_kib} KiB").into());
    }
    Ok(())
}

fn sparse_run() -> Result<(), Failure> {
    let topology = TopologySpec::Mesh {
        width: 12,
        height: 12,
    };
    let mut engine = open_loop("uniform_random", topology, 0.001)?;
    println!("uniform_random on mesh12x12 at 0.1 % load, {LOWLOAD_CYCLES} cycles");
    run_engine_until(&mut engine, LOWLOAD_CYCLES)?;
    archive_per_packet("lowload_mesh12x12", engine.ledger(), LIMIT_LOWLOAD_BITS)
}

fn main() -> Result<(), Failure> {
    long_run()?;
    starving_run(false, LIMIT_WINDOW_KIB)?;
    starving_run(true, LIMIT_WATCHED_WINDOW_KIB)?;
    sparse_run()
}
