//! Sharding probe: does one platform stepped by two worker threads
//! beat the compiled engine on one thread, and at what size?
//!
//! ```text
//! cargo run --release --example shard_scaling
//! ```
//!
//! Runs uniform-random traffic at 40 % offered load, ungated, on
//! meshes 8×8 to 64×64. Each run builds its engine through
//! `AnyEngine`, steps 200 warm-up cycles, then times a fixed stretch
//! of cycles by wall clock. Each size runs five pairs, the engines in
//! alternating order, and prints the median cycles/s per engine and
//! the load average before and after.
//!
//! The verdict rule: two shards win at a size if their timed wall beats
//! the compiled engine's in at least 4 of the 5 pairs. The printed
//! count of wins is that rule's input.

use nocem::config::EngineKind;
use nocem::sweep::AnyEngine;
use nocem::SteppableEngine;
use nocem_scenarios::registry::ScenarioRegistry;
use nocem_scenarios::scenario::TopologySpec;
use std::time::Instant;

/// Alternating pairs per size.
const PAIRS: usize = 5;
/// Cycles stepped before the timed stretch.
const WARMUP: u64 = 200;
/// Two shards win at a size if they win this many of [`PAIRS`].
const WIN_PAIRS: usize = 4;

/// `(side, timed cycles)`: about a second of the compiled engine each.
const SIZES: [(u32, u64); 4] = [(8, 8_000), (16, 2_000), (32, 600), (64, 150)];

/// Two shards; `AnyEngine` builds one shard as the compiled engine.
const SHARDED: EngineKind = EngineKind::ShardedCompiled {
    shards: 2,
    batch: 1,
};

/// The load average, as `/proc/loadavg` puts it (`n/a` off Linux).
fn load_average() -> String {
    std::fs::read_to_string("/proc/loadavg").map_or_else(
        |_| "n/a".into(),
        |s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "),
    )
}

/// Wall seconds of `cycles` steps after the warm-up, on `engine`.
fn timed(side: u32, cycles: u64, engine: EngineKind) -> Result<f64, Box<dyn std::error::Error>> {
    let topology = TopologySpec::Mesh {
        width: side,
        height: side,
    };
    let mut config = ScenarioRegistry::builtin()
        .resolve("uniform_random")?
        .build_config(topology, 0.40, 4, u64::MAX)?;
    config.engine = engine;
    let mut engine = AnyEngine::build(&config)?;
    for _ in 0..WARMUP {
        engine.step()?;
    }
    let start = Instant::now();
    for _ in 0..cycles {
        engine.step()?;
    }
    Ok(start.elapsed().as_secs_f64())
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "uniform_random at 40 %, ungated, {WARMUP} warm-up cycles; median cycles/s of {PAIRS} alternating runs"
    );
    println!("load average before: {}", load_average());
    println!("\n| mesh | Compiled | 2 shards | pairs 2 shards won |");
    println!("|---|---|---|---|");
    let mut winners = Vec::new();
    for (side, cycles) in SIZES {
        let (mut compiled, mut sharded) = (Vec::new(), Vec::new());
        for pair in 0..PAIRS {
            if pair % 2 == 0 {
                compiled.push(timed(side, cycles, EngineKind::Compiled)?);
                sharded.push(timed(side, cycles, SHARDED)?);
            } else {
                sharded.push(timed(side, cycles, SHARDED)?);
                compiled.push(timed(side, cycles, EngineKind::Compiled)?);
            }
        }
        let wins = (0..PAIRS).filter(|&p| sharded[p] < compiled[p]).count();
        if wins >= WIN_PAIRS {
            winners.push(format!("{side}×{side}"));
        }
        let speed = |walls| cycles as f64 / median(walls) / 1e3;
        println!(
            "| {side}×{side} | {:.1} k | {:.1} k | {wins} |",
            speed(compiled),
            speed(sharded)
        );
    }
    println!("\nload average after: {}", load_average());
    if winners.is_empty() {
        println!("verdict: two shards win at no size");
    } else {
        println!("verdict: two shards win at {}", winners.join(", "));
    }
    Ok(())
}
