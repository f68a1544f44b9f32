//! **Engine throughput** — flits per wall-clock second of the
//! interpreted emulation engine, the compiled data-oriented engine,
//! and the sharded compiled engine (2 shards) on identical traffic:
//! the acceptance measurement for the compiled engine's "elaborate
//! once, run flat arrays" design and a first look at the sharded
//! engine's coordination cost.
//!
//! ```text
//! cargo run --release -p nocem-bench --bin engine_throughput
//! cargo run --release -p nocem-bench --bin engine_throughput -- --smoke
//! ```
//!
//! The full run measures the engines on uniform-random traffic over
//! mesh4x4, mesh8x8, torus8x8 and a mesh16x16 scale point at 5% and
//! 40% offered load, prints a table, and writes
//! `BENCH_throughput.json` (one row per engine × topology × load with
//! cycle counts and the host core count stamped) into the repository
//! root so the numbers are versioned alongside the code that produced
//! them. The headline figure is the mesh8x8 @ 40% speedup, where both
//! single-threaded engines are saturated with real switching work.
//! Parallel speedup ratios (sharded vs its single-threaded parent)
//! are recorded **only when the host has more than one core** — on a
//! 1-core host the sharded rows measure coordination overhead, so the
//! bench warns and skips those ratios instead of recording misleading
//! numbers (dedicated scaling measurements live in
//! `BENCH_sharding.json`, written by the `shard_scaling` bench).
//!
//! `--smoke` (the CI configuration) measures mesh4x4 @ 40% with short
//! windows and asserts the compiled engine clears 3× — loose enough
//! for contended shared runners, tight enough to catch a regression
//! back to interpreted-engine speed.

use nocem::clock::SteppableEngine;
use nocem::compile::elaborate;
use nocem::config::{PlatformConfig, TrafficModel};
use nocem::engine::build;
use nocem::profile::{PhaseReport, ProfileConfig};
use nocem::shard_compiled::{ShardedCompiledEngine, DEFAULT_BATCH};
use nocem::CompiledEngine;
use nocem_scenarios::registry::ScenarioRegistry;
use nocem_scenarios::scenario::TopologySpec;
use std::time::Instant;

/// One measured cell: an engine on a topology at a load.
struct Row {
    engine: &'static str,
    topology: &'static str,
    load: f64,
    cycles: u64,
    seconds: f64,
    flits: u64,
    flits_per_sec: f64,
    cycles_per_sec: f64,
    /// Phase profile from a separate short profiled run of the same
    /// cell (the throughput numbers above stay unprofiled).
    profile: PhaseReport,
}

/// An endless uniform-random config on `topo` at `load`: budgets and
/// stop conditions removed so the engines can be measured in steady
/// state for as long as the wall clock requires.
fn endless_uniform(topo: TopologySpec, load: f64) -> PlatformConfig {
    let mut cfg = ScenarioRegistry::builtin()
        .resolve("uniform_random")
        .expect("builtin scenario")
        .build_config(topo, load, 4, 1_000)
        .expect("scenario config compiles");
    for g in &mut cfg.generators {
        if let TrafficModel::Uniform(u) = g {
            u.budget = None;
        }
    }
    cfg.stop.delivered_packets = None;
    cfg.stop.cycle_limit = u64::MAX;
    cfg
}

/// Steps `engine` for `warmup` cycles, then measures delivered flits
/// and cycles over at least `min_seconds` of wall clock.
fn measure(
    engine: &mut dyn SteppableEngine,
    warmup: u64,
    chunk: u64,
    min_seconds: f64,
) -> (u64, f64, u64) {
    for _ in 0..warmup {
        engine.step().expect("engine fault during warmup");
    }
    let flits_before = engine.summary().delivered_flits;
    let t0 = Instant::now();
    let mut cycles = 0u64;
    loop {
        for _ in 0..chunk {
            engine.step().expect("engine fault during measurement");
        }
        cycles += chunk;
        if t0.elapsed().as_secs_f64() >= min_seconds {
            break;
        }
    }
    let seconds = t0.elapsed().as_secs_f64().max(1e-9);
    let flits = engine.summary().delivered_flits - flits_before;
    (cycles, seconds, flits)
}

fn build_engine(engine_name: &str, cfg: &PlatformConfig) -> Box<dyn SteppableEngine> {
    match engine_name {
        "emulation" => Box::new(build(cfg).expect("config compiles")),
        "compiled" => Box::new(CompiledEngine::new(
            elaborate(cfg).expect("config compiles"),
        )),
        "sharded-compiled" => Box::new(
            ShardedCompiledEngine::with_shards(cfg, 2, DEFAULT_BATCH).expect("config compiles"),
        ),
        other => unreachable!("unknown engine {other}"),
    }
}

/// Profiles one cell over a short fixed run: phase accumulators only
/// (spans off), separate from the throughput measurement so the
/// headline flits/s stay untouched by instrumentation.
fn profile_cell(engine_name: &str, topo: TopologySpec, load: f64, cycles: u64) -> PhaseReport {
    let mut cfg = endless_uniform(topo, load);
    cfg.profile = Some(ProfileConfig::default().without_spans());
    let mut engine = build_engine(engine_name, &cfg);
    for _ in 0..cycles {
        engine.step().expect("engine fault during profiling");
    }
    engine.profile().expect("profiling was enabled")
}

fn measure_cell(
    engine_name: &'static str,
    topology: &'static str,
    topo: TopologySpec,
    load: f64,
    warmup: u64,
    min_seconds: f64,
) -> Row {
    let cfg = endless_uniform(topo, load);
    let mut engine = build_engine(engine_name, &cfg);
    let (cycles, seconds, flits) = measure(engine.as_mut(), warmup, 10_000, min_seconds);
    let profile = profile_cell(engine_name, topo, load, warmup.max(2_000));
    Row {
        engine: engine_name,
        topology,
        load,
        cycles,
        seconds,
        flits,
        flits_per_sec: flits as f64 / seconds,
        cycles_per_sec: cycles as f64 / seconds,
        profile,
    }
}

fn json(rows: &[Row], cores: usize, speedups: &[(String, f64)]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"engine_throughput\",\n");
    out.push_str("  \"unit\": \"flits_per_second\",\n");
    out.push_str(&format!("  \"host_cores\": {cores},\n"));
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"engine\": \"{}\", \"topology\": \"{}\", \"load\": {:.2}, \
             \"cycles\": {}, \"seconds\": {:.4}, \"flits\": {}, \
             \"flits_per_sec\": {:.1}, \"cycles_per_sec\": {:.1}, \
             \"profile\": {}}}{}\n",
            r.engine,
            r.topology,
            r.load,
            r.cycles,
            r.seconds,
            r.flits,
            r.flits_per_sec,
            r.cycles_per_sec,
            r.profile.to_json(),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"speedup\": {\n");
    for (i, (key, v)) in speedups.iter().enumerate() {
        out.push_str(&format!(
            "    \"{key}\": {v:.2}{}\n",
            if i + 1 < speedups.len() { "," } else { "" }
        ));
    }
    out.push_str("  }\n}\n");
    out
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let quick = nocem_bench::quick_mode();
    let cores = nocem_bench::num_threads();

    if smoke {
        let (warmup, min_seconds) = (2_000, 0.25);
        let mesh4 = TopologySpec::Mesh {
            width: 4,
            height: 4,
        };
        let emu = measure_cell("emulation", "mesh4x4", mesh4, 0.40, warmup, min_seconds);
        let comp = measure_cell("compiled", "mesh4x4", mesh4, 0.40, warmup, min_seconds);
        let speedup = comp.flits_per_sec / emu.flits_per_sec;
        println!(
            "smoke: mesh4x4 @40%  emulation {:.0} flits/s  compiled {:.0} flits/s  ({speedup:.2}x)",
            emu.flits_per_sec, comp.flits_per_sec
        );
        assert!(
            speedup >= 3.0,
            "compiled engine must be at least 3x the interpreted engine \
             on mesh4x4 @40% (measured {speedup:.2}x)"
        );
        // Profile sections must be present and valid JSON...
        for row in [&emu, &comp] {
            nocem_telemetry::validate_json(&row.profile.to_json())
                .expect("profile section must be valid JSON");
            assert!(row.profile.stepped_cycles > 0, "profile counted no cycles");
            assert!(
                row.profile.step_ns() > 0,
                "profile accumulated no step time"
            );
        }
        // ...and profiling must not change behaviour: a profiler-on
        // run stays ledger-identical to profiler-off.
        let cfg_off = endless_uniform(mesh4, 0.40);
        let mut cfg_on = cfg_off.clone();
        cfg_on.profile = Some(ProfileConfig::default());
        for engine in ["emulation", "compiled"] {
            let mut off = build_engine(engine, &cfg_off);
            let mut on = build_engine(engine, &cfg_on);
            for _ in 0..5_000 {
                off.step().expect("engine fault (profiler off)");
                on.step().expect("engine fault (profiler on)");
            }
            assert_eq!(
                off.summary(),
                on.summary(),
                "{engine}: profiler-on run must stay ledger-identical"
            );
        }
        println!("smoke: profile sections valid; profiler-on ledger-identical to profiler-off");
        return;
    }

    let (warmup, min_seconds) = if quick { (2_000, 0.25) } else { (20_000, 2.0) };
    let cells: &[(&'static str, TopologySpec)] = &[
        (
            "mesh4x4",
            TopologySpec::Mesh {
                width: 4,
                height: 4,
            },
        ),
        (
            "mesh8x8",
            TopologySpec::Mesh {
                width: 8,
                height: 8,
            },
        ),
        (
            "torus8x8",
            TopologySpec::Torus {
                width: 8,
                height: 8,
            },
        ),
        (
            "mesh16x16",
            TopologySpec::Mesh {
                width: 16,
                height: 16,
            },
        ),
    ];

    let mut rows = Vec::new();
    for &(name, topo) in cells {
        for load in [0.05, 0.40] {
            for engine in ["emulation", "compiled", "sharded-compiled"] {
                let row = measure_cell(engine, name, topo, load, warmup, min_seconds);
                println!(
                    "{:>16}  {:>9} @ {:>2.0}%  {:>12.0} flits/s  {:>12.0} cycles/s",
                    row.engine,
                    row.topology,
                    row.load * 100.0,
                    row.flits_per_sec,
                    row.cycles_per_sec
                );
                rows.push(row);
            }
        }
    }

    let mut speedups = Vec::new();
    for &(name, _) in cells {
        for load in [0.05, 0.40] {
            let fps = |engine: &str| {
                rows.iter()
                    .find(|r| r.engine == engine && r.topology == name && r.load == load)
                    .expect("cell measured")
                    .flits_per_sec
            };
            let s = fps("compiled") / fps("emulation");
            speedups.push((format!("{name}_load{:02.0}", load * 100.0), s));
            println!("speedup {name} @ {:>2.0}%: {s:.2}x", load * 100.0);
            // Sharded-vs-parent ratios only mean something when the
            // shard workers actually get their own cores; on a 1-core
            // host they would record coordination overhead as if it
            // were (negative) parallel speedup.
            if cores > 1 {
                let p = fps("sharded-compiled") / fps("compiled");
                speedups.push((format!("{name}_load{:02.0}_parallel2", load * 100.0), p));
                println!(
                    "parallel speedup (2 shards) {name} @ {:>2.0}%: {p:.2}x",
                    load * 100.0
                );
            }
        }
    }
    if cores == 1 {
        println!(
            "warning: host has 1 core — sharded rows record coordination \
             overhead; parallel speedup ratios skipped"
        );
    }

    let content = json(&rows, cores, &speedups);
    std::fs::write("BENCH_throughput.json", &content).expect("write BENCH_throughput.json");
    println!("wrote BENCH_throughput.json");

    let headline = speedups
        .iter()
        .find(|(k, _)| k == "mesh8x8_load40")
        .expect("headline cell")
        .1;
    println!("headline: compiled is {headline:.2}x emulation on mesh8x8 @40%");
}
