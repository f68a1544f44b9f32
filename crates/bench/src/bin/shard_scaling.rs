//! **Shard scaling** — flits per wall-clock second of the sharded
//! compiled engine across topology size × shard count × exchange
//! batch × offered load, against the single-threaded compiled engine
//! baseline. The acceptance measurement for the batched boundary
//! exchange: the JSON records the coordinator synchronization-round
//! count per row, which must fall ~`batch`× when batching is on.
//!
//! ```text
//! cargo run --release -p nocem-bench --bin shard_scaling
//! cargo run --release -p nocem-bench --bin shard_scaling -- --smoke
//! ```
//!
//! The full run measures mesh16x16, mesh32x32 and mesh64x64 at 5% and
//! 40% load, prints a table, and writes `BENCH_sharding.json` (host
//! core count stamped) into the repository root. The two smaller
//! meshes run uniform-random; the mesh64x64 scale point runs the
//! transpose permutation instead. That choice dates from when
//! all-pairs traffic on 4096 nodes (~16.7M flows) took minutes **per
//! elaboration** and every shard worker re-elaborated; uniform-random
//! there now sets up in well under a second (`examples/scale_setup.rs`),
//! but the row keeps transpose so the checked-in file stays comparable
//! with its own history — it still crosses every stripe boundary. The
//! scenario is stamped per row. **Read the numbers honestly**: on a single-core
//! host the sharded rows measure coordination overhead, not speedup —
//! the `host_cores` stamp is there so a reader can tell which regime
//! produced the file, and speedup claims are only meaningful when
//! `host_cores` exceeds the shard count.
//!
//! `--smoke` (the CI configuration) runs mesh16x16 with 2 shards at
//! batch 1 and 8, asserting the synchronization protocol (one round
//! per cycle at batch 1, ~8× fewer at batch 8) and the JSON shape —
//! but never speedup, which a contended 1-core runner cannot measure.

use nocem::clock::SteppableEngine;
use nocem::compile::elaborate;
use nocem::config::{PlatformConfig, TrafficModel};
use nocem::profile::{PhaseReport, ProfileConfig};
use nocem::shard_compiled::ShardedCompiledEngine;
use nocem::CompiledEngine;
use nocem_scenarios::registry::ScenarioRegistry;
use nocem_scenarios::scenario::TopologySpec;
use std::time::Instant;

/// One measured cell.
struct Row {
    engine: &'static str,
    topology: &'static str,
    scenario: &'static str,
    shards: usize,
    batch: u64,
    load: f64,
    cycles: u64,
    seconds: f64,
    flits: u64,
    flits_per_sec: f64,
    cycles_per_sec: f64,
    /// Coordinator synchronization rounds during the measurement
    /// window (0 for the single-threaded baseline, which has none).
    sync_rounds: u64,
    /// Phase profile from a separate short profiled run of the same
    /// cell (the throughput numbers above stay unprofiled). For
    /// sharded rows the exchange/coordinator-wait phases quantify the
    /// sync-wait share, with per-worker sub-reports.
    profile: PhaseReport,
}

/// An endless config for `scenario` on `topo` at `load`: budgets and
/// stop conditions removed so the engines run in steady state. This
/// also keeps the measurement honest for batching — a
/// delivered-packet target would cap windows near the target (the
/// zero-overshoot guarantee), understating the amortization.
fn endless(scenario: &str, topo: TopologySpec, load: f64) -> PlatformConfig {
    let mut cfg = ScenarioRegistry::builtin()
        .resolve(scenario)
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

/// Steps an engine for `warmup` cycles, then measures delivered flits
/// and cycles over at least `min_seconds` of wall clock, returning
/// `(cycles, seconds, flits, sync_rounds)`.
fn drive(
    mut step: impl FnMut(),
    summary: impl Fn() -> u64,
    rounds: impl Fn() -> u64,
    warmup: u64,
    min_seconds: f64,
) -> (u64, f64, u64, u64) {
    for _ in 0..warmup {
        step();
    }
    let flits_before = summary();
    let rounds_before = rounds();
    let t0 = Instant::now();
    let mut cycles = 0u64;
    loop {
        for _ in 0..1_000 {
            step();
        }
        cycles += 1_000;
        if t0.elapsed().as_secs_f64() >= min_seconds {
            break;
        }
    }
    let seconds = t0.elapsed().as_secs_f64().max(1e-9);
    (
        cycles,
        seconds,
        summary() - flits_before,
        rounds() - rounds_before,
    )
}

/// Steps a freshly built profiled engine for `cycles` cycles and
/// returns its phase report (accumulators only, spans off) — separate
/// from the throughput measurement so the flits/s stay unprofiled.
fn profile_run(mut engine: Box<dyn SteppableEngine>, cycles: u64) -> PhaseReport {
    for _ in 0..cycles {
        engine.step().expect("engine fault during profiling");
    }
    engine.profile().expect("profiling was enabled")
}

fn measure_baseline(
    topology: &'static str,
    topo: TopologySpec,
    scenario: &'static str,
    load: f64,
    warmup: u64,
    min_seconds: f64,
) -> Row {
    let cfg = endless(scenario, topo, load);
    let eng = std::cell::RefCell::new(CompiledEngine::new(
        elaborate(&cfg).expect("config compiles"),
    ));
    let (cycles, seconds, flits, _) = drive(
        || eng.borrow_mut().step().expect("engine fault"),
        || SteppableEngine::summary(&*eng.borrow()).delivered_flits,
        || 0,
        warmup,
        min_seconds,
    );
    let mut pcfg = endless(scenario, topo, load);
    pcfg.profile = Some(ProfileConfig::default().without_spans());
    let profile = profile_run(
        Box::new(CompiledEngine::new(
            elaborate(&pcfg).expect("config compiles"),
        )),
        warmup.max(500),
    );
    Row {
        engine: "compiled",
        topology,
        scenario,
        shards: 1,
        batch: 1,
        load,
        cycles,
        seconds,
        flits,
        flits_per_sec: flits as f64 / seconds,
        cycles_per_sec: cycles as f64 / seconds,
        sync_rounds: 0,
        profile,
    }
}

fn measure_sharded(
    topology: &'static str,
    topo: TopologySpec,
    scenario: &'static str,
    shards: usize,
    batch: u64,
    load: f64,
    (warmup, min_seconds): (u64, f64),
) -> Row {
    let cfg = endless(scenario, topo, load);
    let eng = std::cell::RefCell::new(
        ShardedCompiledEngine::with_shards(&cfg, shards, batch).expect("config compiles"),
    );
    let (cycles, seconds, flits, sync_rounds) = drive(
        || SteppableEngine::step(&mut *eng.borrow_mut()).expect("engine fault"),
        || SteppableEngine::summary(&*eng.borrow()).delivered_flits,
        || eng.borrow().sync_rounds(),
        warmup,
        min_seconds,
    );
    let mut pcfg = endless(scenario, topo, load);
    pcfg.profile = Some(ProfileConfig::default().without_spans());
    let profile = profile_run(
        Box::new(
            ShardedCompiledEngine::with_shards(&pcfg, shards, batch).expect("config compiles"),
        ),
        warmup.max(500),
    );
    Row {
        engine: "sharded-compiled",
        topology,
        scenario,
        shards,
        batch,
        load,
        cycles,
        seconds,
        flits,
        flits_per_sec: flits as f64 / seconds,
        cycles_per_sec: cycles as f64 / seconds,
        sync_rounds,
        profile,
    }
}

fn json(rows: &[Row], cores: usize, reductions: &[(String, f64)]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"shard_scaling\",\n");
    out.push_str("  \"unit\": \"flits_per_second\",\n");
    out.push_str(&format!("  \"host_cores\": {cores},\n"));
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"engine\": \"{}\", \"topology\": \"{}\", \"scenario\": \"{}\", \
             \"shards\": {}, \
             \"batch\": {}, \"load\": {:.2}, \"cycles\": {}, \"seconds\": {:.4}, \
             \"flits\": {}, \"flits_per_sec\": {:.1}, \"cycles_per_sec\": {:.1}, \
             \"sync_rounds\": {}, \"profile\": {}}}{}\n",
            r.engine,
            r.topology,
            r.scenario,
            r.shards,
            r.batch,
            r.load,
            r.cycles,
            r.seconds,
            r.flits,
            r.flits_per_sec,
            r.cycles_per_sec,
            r.sync_rounds,
            r.profile.to_json(),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"barrier_reduction\": {\n");
    for (i, (key, v)) in reductions.iter().enumerate() {
        out.push_str(&format!(
            "    \"{key}\": {v:.2}{}\n",
            if i + 1 < reductions.len() { "," } else { "" }
        ));
    }
    out.push_str("  }\n}\n");
    out
}

const BATCHES: [u64; 2] = [1, 16];

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let quick = nocem_bench::quick_mode();
    let cores = nocem_bench::num_threads();

    if smoke {
        let mesh16 = TopologySpec::Mesh {
            width: 16,
            height: 16,
        };
        let r1 = measure_sharded(
            "mesh16x16",
            mesh16,
            "uniform_random",
            2,
            1,
            0.40,
            (500, 0.25),
        );
        let r8 = measure_sharded(
            "mesh16x16",
            mesh16,
            "uniform_random",
            2,
            8,
            0.40,
            (500, 0.25),
        );
        println!(
            "smoke: mesh16x16 @40% 2 shards  batch 1: {} rounds / {} cycles  \
             batch 8: {} rounds / {} cycles",
            r1.sync_rounds, r1.cycles, r8.sync_rounds, r8.cycles
        );
        assert_eq!(
            r1.sync_rounds, r1.cycles,
            "batch=1 must synchronize exactly once per cycle"
        );
        // Steps may be served from a buffered window, so allow a
        // couple of rounds of slack around the perfect cycles/8.
        assert!(
            r8.sync_rounds.abs_diff(r8.cycles.div_ceil(8)) <= 2,
            "batch=8 must synchronize ~cycles/8 times ({} rounds for {} cycles)",
            r8.sync_rounds,
            r8.cycles
        );
        // The JSON shape check: every contract key is present.
        let content = json(&[r1, r8], cores, &[("smoke".into(), 8.0)]);
        for key in [
            "\"host_cores\"",
            "\"sync_rounds\"",
            "\"barrier_reduction\"",
            "\"flits_per_sec\"",
            "\"shards\"",
            "\"batch\"",
            "\"profile\"",
            "\"coordinator-wait\"",
        ] {
            assert!(content.contains(key), "JSON is missing {key}");
        }
        println!("smoke: protocol and JSON shape OK (no speedup asserted on this host)");
        return;
    }

    let (warmup, min_seconds) = if quick { (500, 0.2) } else { (2_000, 0.6) };
    let cells: &[(&'static str, TopologySpec, &'static str)] = &[
        (
            "mesh16x16",
            TopologySpec::Mesh {
                width: 16,
                height: 16,
            },
            "uniform_random",
        ),
        (
            "mesh32x32",
            TopologySpec::Mesh {
                width: 32,
                height: 32,
            },
            "uniform_random",
        ),
        (
            "mesh64x64",
            TopologySpec::Mesh {
                width: 64,
                height: 64,
            },
            "transpose",
        ),
    ];

    let mut rows = Vec::new();
    for &(name, topo, scenario) in cells {
        for load in [0.05, 0.40] {
            let base = measure_baseline(name, topo, scenario, load, warmup, min_seconds);
            println!(
                "{:>16}  {:>9} @ {:>2.0}%  1 shard            {:>12.0} flits/s",
                base.engine,
                base.topology,
                base.load * 100.0,
                base.flits_per_sec
            );
            rows.push(base);
            for shards in [1usize, 2, 4] {
                for batch in BATCHES {
                    let row = measure_sharded(
                        name,
                        topo,
                        scenario,
                        shards,
                        batch,
                        load,
                        (warmup, min_seconds),
                    );
                    println!(
                        "{:>16}  {:>9} @ {:>2.0}%  {} shards batch {:>2}  {:>12.0} flits/s  \
                         {:>9} sync rounds",
                        row.engine,
                        row.topology,
                        row.load * 100.0,
                        row.shards,
                        row.batch,
                        row.flits_per_sec,
                        row.sync_rounds
                    );
                    rows.push(row);
                }
            }
        }
    }

    // Synchronization rounds per cycle at batch=1 over batch=16, per
    // (topology, shards, load) — the measured barrier amortization
    // (≈16 when batching works, independent of core count).
    let mut reductions = Vec::new();
    for &(name, _, _) in cells {
        for load in [0.05, 0.40] {
            for shards in [2usize, 4] {
                let rpc = |batch: u64| {
                    let r = rows
                        .iter()
                        .find(|r| {
                            r.engine == "sharded-compiled"
                                && r.topology == name
                                && r.shards == shards
                                && r.batch == batch
                                && r.load == load
                        })
                        .expect("cell measured");
                    r.sync_rounds as f64 / r.cycles as f64
                };
                let reduction = rpc(1) / rpc(16);
                reductions.push((
                    format!("{name}_s{shards}_load{:02.0}", load * 100.0),
                    reduction,
                ));
            }
        }
    }

    let content = json(&rows, cores, &reductions);
    std::fs::write("BENCH_sharding.json", &content).expect("write BENCH_sharding.json");
    println!("wrote BENCH_sharding.json (host_cores = {cores})");
    if cores == 1 {
        println!(
            "warning: single-core host — the sharded rows measure coordination \
             overhead, not parallel speedup"
        );
    }
}
