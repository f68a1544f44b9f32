//! Sharded-vs-single-threaded equivalence: the sharded compiled engine
//! must be *bit-identical* to the single-threaded [`Emulation`] oracle
//! (and to [`CompiledEngine`]) — same packet ledger, same summary,
//! same results, same telemetry — for every tested (shards, batch)
//! combination, because batching amortizes coordinator synchronization
//! without deferring any boundary flit or credit past its one-cycle
//! link latency.
//!
//! The harness steps every engine in lockstep with the single-threaded
//! reference, comparing the clock and delivered count after each
//! cycle, so a divergence is pinpointed to the exact cycle. Further
//! tests cover the paper's non-grid topology, trace-driven traffic,
//! drain mode, the cycle limit and cross-shard clock gating; a
//! proptest then drives *random partitions* (not just grid stripes) at
//! random batch sizes against the batch-1 exchange order.

use nocem::clock::{ClockMode, EngineWarning, SteppableEngine};
use nocem::compile::elaborate;
use nocem::compiled::CompiledEngine;
use nocem::config::{EngineKind, PaperConfig, PlatformConfig, TrafficModel};
use nocem::engine::{build, Emulation};
use nocem::error::{CompileError, EmulationError};
use nocem::profile::ProfileConfig;
use nocem::shard_compiled::ShardedCompiledEngine;
use nocem::sweep::AnyEngine;
use nocem_scenarios::registry::ScenarioRegistry;
use nocem_scenarios::scenario::TopologySpec;
use nocem_telemetry::TelemetryConfig;
use nocem_topology::partition::PartitionMap;
use nocem_traffic::stochastic::BurstConfig;
use proptest::prelude::*;

/// A uniform-random scenario config on `topo` at `load` (meshes on XY
/// routing, tori on 2-VC dateline torus-XY, so flits and credits
/// cross shard boundaries on both VCs).
fn uniform_random(topo: TopologySpec, load: f64, packets: u64) -> PlatformConfig {
    ScenarioRegistry::builtin()
        .resolve("uniform_random")
        .unwrap()
        .build_config(topo, load, 4, packets)
        .unwrap()
}

const MESH8X8: TopologySpec = TopologySpec::Mesh {
    width: 8,
    height: 8,
};
const TORUS8X8: TopologySpec = TopologySpec::Torus {
    width: 8,
    height: 8,
};

/// `cfg` run to its stop condition on the single-threaded oracle.
fn run_single(cfg: &PlatformConfig) -> Emulation {
    let mut single = build(cfg).unwrap();
    single.run().unwrap();
    single
}

/// Steps one sharded compiled engine per `(shards, batch)` case in
/// lockstep with the single-threaded reference and asserts full
/// equality: per-cycle clock + deliveries, final ledger, summary and
/// results.
fn assert_lockstep(cfg: &PlatformConfig, cases: &[(usize, u64)]) {
    let mut reference = build(cfg).unwrap();
    let mut engines: Vec<((usize, u64), ShardedCompiledEngine)> = cases
        .iter()
        .map(|&(k, b)| {
            (
                (k, b),
                ShardedCompiledEngine::with_shards(cfg, k, b).unwrap(),
            )
        })
        .collect();
    while !reference.finished() {
        reference.step().unwrap();
        for ((k, b), engine) in &mut engines {
            engine.step().unwrap();
            assert_eq!(
                engine.now(),
                reference.now(),
                "{k} shards batch {b}: clock diverged on {}",
                cfg.name
            );
            assert_eq!(
                engine.delivered(),
                reference.delivered(),
                "{k} shards batch {b}: deliveries diverged at cycle {} on {}",
                reference.now().raw(),
                cfg.name
            );
        }
    }
    for ((k, b), engine) in &mut engines {
        assert!(engine.finished(), "{k} shards batch {b}: stop lagged");
        assert_eq!(
            engine.ledger(),
            reference.ledger(),
            "{k} shards batch {b}: packet ledger diverged on {}",
            cfg.name
        );
        assert_eq!(
            SteppableEngine::summary(engine),
            SteppableEngine::summary(&reference),
            "{k} shards batch {b}: summary diverged on {}",
            cfg.name
        );
        assert_eq!(engine.results().unwrap(), reference.results());
    }
}

const CASES: &[(usize, u64)] = &[(2, 1), (2, 4), (2, 16), (4, 1), (4, 4), (4, 16)];

#[test]
fn mesh8x8_low_load_is_bit_identical_across_batches() {
    assert_lockstep(&uniform_random(MESH8X8, 0.05, 500), CASES);
}

#[test]
fn mesh8x8_saturating_load_is_bit_identical_across_batches() {
    // 40% uniform-random congests the center: worms block across
    // shard boundaries, credits starve, packets park at the sources.
    assert_lockstep(&uniform_random(MESH8X8, 0.40, 700), CASES);
}

#[test]
fn torus8x8_low_load_is_bit_identical_across_batches() {
    assert_lockstep(&uniform_random(TORUS8X8, 0.05, 500), CASES);
}

#[test]
fn torus8x8_saturating_load_is_bit_identical_across_batches() {
    assert_lockstep(&uniform_random(TORUS8X8, 0.40, 700), CASES);
}

#[test]
fn odd_shard_count_and_non_row_aligned_stripes_agree() {
    // 3 shards over 8 rows: unbalanced row stripes (3/3/2).
    assert_lockstep(
        &uniform_random(MESH8X8, 0.20, 500),
        &[(3, 1), (3, 16), (5, 4)],
    );
}

/// The CI release smoke: 2 shards, batch 8, saturating mesh8x8.
#[test]
fn mesh8x8_two_shards_batch8_lockstep() {
    assert_lockstep(&uniform_random(MESH8X8, 0.40, 900), &[(2, 8)]);
}

/// One synchronization round per cycle at `batch = 1` (today's
/// per-cycle exchange protocol), ~`batch`× fewer at `batch = 16` —
/// the measured amortization the batching exists for. Drain mode is
/// the honest measurement: a delivered-packet target additionally
/// caps each window at `ceil(remaining / receptors)` cycles (the
/// zero-overshoot guarantee), which shortens windows near the target.
#[test]
fn batching_amortizes_synchronization_rounds_by_batch() {
    let mut cfg = uniform_random(MESH8X8, 0.20, 400);
    cfg.stop.delivered_packets = None;
    let mut per_cycle = ShardedCompiledEngine::with_shards(&cfg, 2, 1).unwrap();
    per_cycle.run().unwrap();
    let cycles = per_cycle.now().raw();
    assert_eq!(
        per_cycle.sync_rounds(),
        cycles,
        "batch=1 must synchronize once per cycle"
    );
    let mut batched = ShardedCompiledEngine::with_shards(&cfg, 2, 16).unwrap();
    batched.run().unwrap();
    assert_eq!(batched.now().raw(), cycles);
    assert_eq!(batched.ledger(), per_cycle.ledger());
    let rounds = batched.sync_rounds();
    // The last window may be observed mid-buffer (the stop condition
    // turns true while cycles are still buffered), so allow a couple
    // of rounds of slack over the perfect ceil(cycles / 16).
    assert!(
        rounds >= cycles.div_ceil(16),
        "{rounds} rounds for {cycles} cycles is below the batch floor"
    );
    assert!(
        rounds <= cycles.div_ceil(16) + 2,
        "batch=16 only cut {cycles} cycles to {rounds} rounds"
    );
}

/// Windowed telemetry must be bit-identical too: probe points fall on
/// the same cycles (windows never cross a probe boundary) and the
/// merged per-shard counters equal the reference's.
#[test]
fn windowed_telemetry_is_bit_identical() {
    let mut cfg = uniform_random(MESH8X8, 0.30, 500);
    cfg.telemetry = Some(TelemetryConfig::windowed(64));
    let mut reference = CompiledEngine::new(elaborate(&cfg).unwrap());
    reference.run().unwrap();
    reference.seal_telemetry();
    for batch in [1, 16] {
        let mut engine = ShardedCompiledEngine::with_shards(&cfg, 4, batch).unwrap();
        engine.run().unwrap();
        engine.seal_telemetry();
        assert_eq!(engine.ledger(), reference.ledger());
        assert_eq!(
            engine.telemetry().unwrap(),
            reference.telemetry().unwrap(),
            "batch {batch}: telemetry series diverged"
        );
    }
}

/// Drain mode: run until the TG budgets are spent and the network
/// empties. The last window may overshoot the stop cycle, but a
/// quiescent platform makes those cycles no-ops, so ledger and clock
/// still match.
#[test]
fn drain_mode_stop_condition_drains_every_shard() {
    let mut cfg = uniform_random(MESH8X8, 0.10, 300);
    cfg.stop.delivered_packets = None;
    let reference = run_single(&cfg);
    for batch in [1, 8] {
        let mut engine = ShardedCompiledEngine::with_shards(&cfg, 2, batch).unwrap();
        engine.run().unwrap();
        engine.ledger().verify_drained().unwrap();
        assert_eq!(engine.ledger(), reference.ledger());
        assert_eq!(engine.now(), reference.now());
    }
}

/// Gating and batching compose: a gated config keeps the batch it
/// asked for (no warning), skips exactly the cycles the single-threaded
/// fast-forward kernel skips, and pays one synchronization round per
/// window instead of one per stepped cycle. Drain mode, like the
/// amortization test above: a delivered target caps windows near the
/// end.
#[test]
fn gated_batches_and_skips_like_the_compiled_kernel() {
    let mut cfg = uniform_random(MESH8X8, 0.05, 300);
    cfg.clock_mode = ClockMode::Gated;
    cfg.stop.delivered_packets = None;
    cfg.profile = Some(ProfileConfig::default().without_spans());
    let mut reference = CompiledEngine::new(elaborate(&cfg).unwrap());
    reference.run().unwrap();
    let mut engine = ShardedCompiledEngine::with_shards(&cfg, 4, 16).unwrap();
    assert_eq!(engine.batch(), 16, "gated mode keeps the batch");
    assert!(SteppableEngine::warnings(&engine).is_empty());
    engine.run().unwrap();
    assert!(SteppableEngine::summary(&engine).warnings.is_empty());
    assert!(engine.cycles_skipped() > 0, "a 5%-load run must skip");
    assert_eq!(engine.cycles_skipped(), reference.cycles_skipped());
    assert_eq!(engine.ledger(), reference.ledger());
    assert_eq!(SteppableEngine::summary(&engine), reference.summary());
    let stepped = engine.now().raw() - engine.cycles_skipped();
    let work = SteppableEngine::profile(&mut engine).unwrap().work;
    assert_eq!(
        work.fast_forwards,
        reference.profile().unwrap().work.fast_forwards
    );
    // Every window is 16 rows, each applied (a stepped cycle) or
    // discarded by a jump; only a window a jump cut short (or the last
    // one) carries fewer than 16 stepped cycles. Batch 1 paid
    // `stepped` rounds here.
    let rounds = engine.sync_rounds();
    assert!(
        rounds <= stepped.div_ceil(16) + work.fast_forwards + 1,
        "{rounds} rounds for {stepped} stepped cycles and {} jumps",
        work.fast_forwards
    );
    assert!(rounds < stepped / 2, "{rounds} rounds, {stepped} stepped");
    assert!(work.speculative_rows > 0, "no jump landed inside a window");
    assert!(work.speculative_rows <= 15 * work.fast_forwards);
}

/// `cfg` with every uniform generator swapped for a bursty one: long
/// idle phases between back-to-back packet trains, so gated runs take
/// jumps far longer than any window.
fn bursty(mut cfg: PlatformConfig) -> PlatformConfig {
    for g in &mut cfg.generators {
        if let TrafficModel::Uniform(u) = g {
            *g = TrafficModel::Burst(BurstConfig {
                length: u.length,
                start_probability: 0.002,
                continue_probability: 0.75,
                budget: u.budget,
                destination: u.destination.clone(),
            });
        }
    }
    cfg.name.push_str("-burst");
    cfg
}

/// Per-step gated lockstep against the compiled engine — clock,
/// deliveries and skipped cycles after *every* step — for every
/// (shards, batch) case, on steady sparse load (jumps shorter than a
/// window) and burst traffic (jumps longer than one). A jump that costs
/// no synchronization round landed on a row already buffered; one that
/// does ran past the buffer's end. Both must occur at every batch > 1.
#[test]
fn gated_lockstep_per_step_with_jumps_inside_and_past_the_window() {
    for topo in [MESH8X8, TORUS8X8] {
        let steady = uniform_random(topo, 0.005, 120);
        for mut cfg in [bursty(steady.clone()), steady] {
            cfg.clock_mode = ClockMode::Gated;
            cfg.stop.delivered_packets = None;
            cfg.profile = Some(ProfileConfig::default().without_spans());
            let mut reference = CompiledEngine::new(elaborate(&cfg).unwrap());
            // Per case: its label, the engine, jumps that landed inside
            // the buffered window, the rows those jumps passed, jumps
            // that ran past the window's end.
            let mut cases: Vec<(String, ShardedCompiledEngine, u64, u64, u64)> = CASES
                .iter()
                .map(|&(k, b)| {
                    let what = format!("{k} shards batch {b} on {}", cfg.name);
                    let engine = ShardedCompiledEngine::with_shards(&cfg, k, b).unwrap();
                    (what, engine, 0, 0, 0)
                })
                .collect();
            while !reference.finished() {
                let before = reference.now().raw();
                reference.step().unwrap();
                let jump = reference.now().raw() - before - 1;
                for (what, engine, inside, inside_rows, past) in &mut cases {
                    let rounds = engine.sync_rounds();
                    engine.step().unwrap();
                    assert_eq!(engine.now(), reference.now(), "{what} from {before}");
                    assert_eq!(engine.delivered(), reference.delivered(), "{what}");
                    assert_eq!(
                        engine.cycles_skipped(),
                        reference.cycles_skipped(),
                        "{what} from {before}"
                    );
                    if jump > 0 && engine.sync_rounds() == rounds {
                        *inside += 1;
                        *inside_rows += jump;
                    } else if jump > 0 {
                        *past += 1;
                    }
                }
            }
            let jumps = reference.profile().unwrap().work.fast_forwards;
            assert!(jumps > 0, "{}: nothing to skip", cfg.name);
            for (what, engine, inside, inside_rows, past) in &mut cases {
                assert!(engine.finished(), "stop lagged: {what}");
                assert_eq!(engine.ledger(), reference.ledger(), "{what}");
                assert_eq!(SteppableEngine::summary(engine), reference.summary());
                let work = SteppableEngine::profile(engine).unwrap().work;
                assert_eq!(work.fast_forwards, jumps, "{what}");
                assert_eq!(*inside + *past, jumps, "{what}");
                if engine.batch() == 1 {
                    // One-row windows: the buffer is empty at every
                    // step, so nothing is ever speculative.
                    assert_eq!((*inside, work.speculative_rows), (0, 0), "{what}");
                } else {
                    assert!(*inside > 0, "no jump inside a window: {what}");
                    assert!(*past > 0, "no jump past a window: {what}");
                    assert!(work.speculative_rows >= *inside_rows, "{what}");
                    assert!(
                        work.speculative_rows <= (engine.batch() - 1) * jumps,
                        "{what}"
                    );
                }
            }
        }
    }
}

/// Gated + batch 16: the cycle limit fires on the compiled engine's
/// cycle with its delivered count, whether the run idles into the
/// limit (one long jump clamped to it) or is still busy there.
#[test]
fn gated_batched_cycle_limit_fires_on_the_same_cycle() {
    for (packets, limit) in [(40, 20_000), (1_000_000, 777)] {
        let mut cfg = uniform_random(MESH8X8, 0.05, packets);
        cfg.clock_mode = ClockMode::Gated;
        cfg.stop.delivered_packets = Some(2_000_000);
        cfg.stop.cycle_limit = limit;
        let mut reference = CompiledEngine::new(elaborate(&cfg).unwrap());
        let err = reference.run().unwrap_err();
        assert!(matches!(err, EmulationError::CycleLimitExceeded { .. }));
        let mut engine = ShardedCompiledEngine::with_shards(&cfg, 2, 16).unwrap();
        assert_eq!(engine.run().unwrap_err(), err);
        assert_eq!(engine.now(), reference.now());
        assert_eq!(engine.cycles_skipped(), reference.cycles_skipped());
        assert_eq!(engine.ledger(), reference.ledger());
    }
}

/// Gated + batch 16 with a telemetry window far shorter than a typical
/// burst-traffic jump: jumps cross several probe boundaries at once,
/// inside the buffered window and past it, and the series stay
/// bit-identical.
#[test]
fn gated_batched_telemetry_survives_jumps_across_probe_boundaries() {
    let mut cfg = bursty(uniform_random(MESH8X8, 0.005, 200));
    cfg.clock_mode = ClockMode::Gated;
    cfg.telemetry = Some(TelemetryConfig::windowed(8));
    let mut reference = CompiledEngine::new(elaborate(&cfg).unwrap());
    reference.run().unwrap();
    reference.seal_telemetry();
    let windows = reference.telemetry().unwrap().windows_recorded() as u64;
    assert!(
        reference.cycles_skipped() > 8 * windows / 2,
        "jumps must dwarf the 8-cycle telemetry window"
    );
    for (shards, batch) in [(2, 16), (4, 5)] {
        let mut engine = ShardedCompiledEngine::with_shards(&cfg, shards, batch).unwrap();
        engine.run().unwrap();
        engine.seal_telemetry();
        assert_eq!(engine.ledger(), reference.ledger());
        assert_eq!(engine.cycles_skipped(), reference.cycles_skipped());
        assert_eq!(
            engine.telemetry().unwrap(),
            reference.telemetry().unwrap(),
            "{shards} shards batch {batch}: telemetry series diverged"
        );
    }
}

/// One shard is not sharded: the dispatcher builds the compiled engine
/// for `ShardedCompiled { shards: 1, .. }` — no warnings, the
/// `compiled` profile label — in per-cycle lockstep (clock + ledger)
/// with `EngineKind::Compiled` and with the single-worker sharded
/// engine that `with_shards(cfg, 1, ..)` still builds by name.
#[test]
fn one_shard_dispatches_to_the_compiled_engine_in_lockstep() {
    for load in [0.10, 0.40] {
        let mut cfg = uniform_random(MESH8X8, load, 300);
        cfg.profile = Some(ProfileConfig::default().without_spans());
        let kind = EngineKind::ShardedCompiled {
            shards: 1,
            batch: 16,
        };
        let mut one = AnyEngine::build(&cfg.clone().with_engine(kind)).unwrap();
        assert!(matches!(one, AnyEngine::Compiled(_)), "{one:?}");
        assert!(one.warnings().is_empty());
        let mut compiled =
            AnyEngine::build(&cfg.clone().with_engine(EngineKind::Compiled)).unwrap();
        let mut worker = ShardedCompiledEngine::with_shards(&cfg, 1, 4).unwrap();
        assert_eq!(worker.partition().shards(), 1);
        while !compiled.finished() {
            compiled.step().unwrap();
            one.step().unwrap();
            worker.step().unwrap();
            assert_eq!(one.now(), compiled.now());
            assert_eq!(worker.now(), compiled.now());
            assert_eq!(one.packet_ledger(), compiled.packet_ledger());
            assert_eq!(worker.ledger(), &compiled.packet_ledger());
        }
        assert!(one.finished() && worker.finished());
        assert_eq!(one.profile().unwrap().label, "compiled");
        assert!(worker
            .profile()
            .unwrap()
            .label
            .starts_with("sharded-compiled/1x"));
        assert_eq!(one.results().unwrap(), compiled.results().unwrap());
    }
    let two = uniform_random(MESH8X8, 0.10, 50).with_engine(EngineKind::ShardedCompiled {
        shards: 2,
        batch: 16,
    });
    assert!(matches!(
        AnyEngine::build(&two).unwrap(),
        AnyEngine::ShardedCompiled(_)
    ));
}

/// A partition map built for another topology is a typed compile
/// error, not a panic.
#[test]
fn partition_map_for_another_topology_is_a_compile_error() {
    let elab = elaborate(&uniform_random(MESH8X8, 0.10, 10)).unwrap();
    let map = PartitionMap::new((0..16).map(|s| s % 2).collect(), 2).unwrap();
    match ShardedCompiledEngine::with_partition(elab, map, 4) {
        Err(CompileError::Partition { reason }) => {
            assert!(reason.contains("16") && reason.contains("64"), "{reason}");
        }
        other => panic!("expected a partition error, got {other:?}"),
    }
}

/// A stall watchdog the sharded engine cannot feed is reported, not
/// silently dropped: the warning is raised at build, rides on the
/// summary, and the run itself is unaffected.
#[test]
fn configured_stall_watchdog_is_reported_as_ignored() {
    let mut cfg = uniform_random(MESH8X8, 0.05, 100);
    cfg.profile = Some(ProfileConfig::default().without_spans().with_stall(200));
    let mut engine = ShardedCompiledEngine::with_shards(&cfg, 2, 4).unwrap();
    assert_eq!(
        SteppableEngine::warnings(&engine),
        [EngineWarning::ShardedStallWatchdogIgnored]
    );
    engine.run().unwrap();
    assert!(engine.stall_report().is_none());
    assert_eq!(
        engine.summary().warnings,
        [EngineWarning::ShardedStallWatchdogIgnored]
    );
    assert_eq!(engine.summary(), run_single(&cfg).summary());

    // Without a configured watchdog there is nothing to warn about.
    cfg.profile = Some(ProfileConfig::default().without_spans());
    let quiet = ShardedCompiledEngine::with_shards(&cfg, 2, 4).unwrap();
    assert!(SteppableEngine::warnings(&quiet).is_empty());
}

#[test]
fn paper_setup_shards_and_matches_single_thread() {
    // The paper's 6-switch topology is not a grid: index striping.
    let cfg = PaperConfig::new().total_packets(300).uniform();
    let single = run_single(&cfg);
    for batch in [1, 16] {
        let mut sharded = ShardedCompiledEngine::with_shards(&cfg, 2, batch).unwrap();
        sharded.run().unwrap();
        assert_eq!(sharded.ledger(), single.ledger(), "batch {batch}");
        assert_eq!(sharded.now(), single.now(), "batch {batch}");
    }
}

#[test]
fn single_shard_degenerates_cleanly() {
    let cfg = PaperConfig::new().total_packets(120).burst(4);
    let single = run_single(&cfg);
    let mut sharded = ShardedCompiledEngine::with_shards(&cfg, 1, 4).unwrap();
    sharded.run().unwrap();
    assert_eq!(sharded.ledger(), single.ledger());
    assert!(sharded.partition().boundary_links(&cfg.topology).is_empty());
}

#[test]
fn sharded_results_match_single_thread() {
    let cfg = PaperConfig::new().total_packets(200).trace_bursty(4);
    let single = run_single(&cfg);
    for batch in [1, 8] {
        let mut sharded = ShardedCompiledEngine::with_shards(&cfg, 3, batch).unwrap();
        sharded.run().unwrap();
        assert_eq!(
            sharded.results().unwrap(),
            single.results(),
            "batch {batch}"
        );
    }
}

#[test]
fn sharded_telemetry_matches_single_thread() {
    let cfg = PaperConfig::new()
        .total_packets(300)
        .uniform()
        .with_telemetry(Some(TelemetryConfig::windowed(64)));
    let mut single = run_single(&cfg);
    single.seal_telemetry();
    let mut sharded = ShardedCompiledEngine::with_shards(&cfg, 2, 16).unwrap();
    sharded.run().unwrap();
    sharded.seal_telemetry();
    let fast = single.telemetry().unwrap();
    assert!(fast.windows_recorded() > 0, "run long enough to window");
    assert_eq!(
        sharded.telemetry().unwrap(),
        fast,
        "shard-merged series are engine-invariant"
    );
}

#[test]
fn cycle_limit_fires_on_the_same_cycle() {
    let mut cfg = PaperConfig::new().total_packets(1_000_000).uniform();
    cfg.stop.cycle_limit = 300;
    let single_err = build(&cfg).unwrap().run().unwrap_err();
    for batch in [1, 16] {
        let mut sharded = ShardedCompiledEngine::with_shards(&cfg, 2, batch).unwrap();
        assert_eq!(sharded.run().unwrap_err(), single_err, "batch {batch}");
    }
}

#[test]
fn too_many_shards_is_a_compile_error() {
    let cfg = PaperConfig::new().total_packets(10).uniform();
    let err = ShardedCompiledEngine::with_shards(&cfg, 64, 1).unwrap_err();
    assert!(matches!(err, CompileError::Partition { .. }));
    assert!(err.to_string().contains("64"));
}

#[test]
fn gated_sharded_skips_exactly_like_the_single_threaded_kernel() {
    // The cross-shard event horizon must reproduce the single-threaded
    // fast-forward: global quiescence is the conjunction of the shard
    // predicates and the horizon is the min over shard next-events, so
    // gated sharded runs skip the *same* cycles.
    let mut cfg = uniform_random(MESH8X8, 0.05, 400);
    cfg.clock_mode = ClockMode::Gated;
    let single = run_single(&cfg);
    let mut sharded = ShardedCompiledEngine::with_shards(&cfg, 4, 1).unwrap();
    sharded.run().unwrap();
    assert!(
        sharded.cycles_skipped() > 0,
        "a 5%-load run must skip cycles"
    );
    assert_eq!(
        sharded.cycles_skipped(),
        single.cycles_skipped(),
        "shards changed what the fast-forward kernel skipped"
    );
    assert_eq!(sharded.ledger(), single.ledger());
    assert_eq!(
        SteppableEngine::summary(&sharded),
        SteppableEngine::summary(&single)
    );
}

#[test]
fn gated_sharded_is_cycle_equivalent_to_ungated_sharded() {
    let cfg = uniform_random(TORUS8X8, 0.05, 300);
    let mut gated_cfg = cfg.clone();
    gated_cfg.clock_mode = ClockMode::Gated;
    let mut ungated = ShardedCompiledEngine::with_shards(&cfg, 2, 16).unwrap();
    ungated.run().unwrap();
    let mut gated = ShardedCompiledEngine::with_shards(&gated_cfg, 2, 1).unwrap();
    gated.run().unwrap();
    assert!(gated.cycles_skipped() > 0);
    assert_eq!(gated.ledger(), ungated.ledger());
    assert_eq!(
        SteppableEngine::summary(&gated).behavioral(),
        SteppableEngine::summary(&ungated).behavioral()
    );
}

#[test]
fn engine_kind_round_trips_through_the_generic_builder() {
    let cfg = uniform_random(MESH8X8, 0.10, 200).with_engine(EngineKind::ShardedCompiled {
        shards: 2,
        batch: 8,
    });
    let mut engine = AnyEngine::build(&cfg).unwrap();
    nocem::run_engine(&mut engine).unwrap();
    let mut reference = CompiledEngine::new(elaborate(&cfg).unwrap());
    reference.run().unwrap();
    assert_eq!(engine.packet_ledger(), *reference.ledger());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Batched boundary replay must equal the batch=1 exchange order
    /// for *random* partitions (arbitrary switch→shard assignments,
    /// not just contiguous stripes) × random batch sizes.
    #[test]
    fn random_partitions_replay_identically_at_any_batch(
        seed in 0u64..1_000_000,
        shards in 2usize..5,
        batch in 2u64..24,
    ) {
        let cfg = uniform_random(
            TopologySpec::Mesh { width: 4, height: 4 },
            0.30,
            120,
        );
        // A deterministic pseudo-random assignment with every shard
        // non-empty: fill round-robin first, then scatter by an LCG.
        let n = 16usize;
        let mut assign: Vec<usize> = (0..n).map(|s| s % shards).collect();
        let mut x = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        for a in assign.iter_mut() {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            if (x >> 33) % 3 == 0 {
                *a = ((x >> 17) as usize) % shards;
            }
        }
        for k in 0..shards {
            // Keep every shard non-empty (PartitionMap requires it).
            if !assign.contains(&k) {
                assign[k] = k;
            }
        }
        let map = PartitionMap::new(assign, shards).unwrap();
        let elab1 = elaborate(&cfg).unwrap();
        let mut per_cycle = ShardedCompiledEngine::with_partition(elab1, map.clone(), 1).unwrap();
        per_cycle.run().unwrap();
        let elab2 = elaborate(&cfg).unwrap();
        let mut batched = ShardedCompiledEngine::with_partition(elab2, map, batch).unwrap();
        batched.run().unwrap();
        prop_assert_eq!(batched.ledger(), per_cycle.ledger());
        prop_assert_eq!(
            SteppableEngine::summary(&batched),
            SteppableEngine::summary(&per_cycle)
        );
        prop_assert_eq!(batched.now(), per_cycle.now());
    }
}
