//! Sharded-vs-single-threaded equivalence: the sharded compiled engine
//! must be *bit-identical* to the single-threaded [`Emulation`] oracle
//! (and to [`CompiledEngine`]) — same packet ledger, same summary,
//! same results, same telemetry — at every tested shard count, because
//! no boundary flit or credit is deferred past its one-cycle link
//! latency.
//!
//! The shared harness (`support`) steps every engine in lockstep with
//! the single-threaded reference, comparing the clock, the packet
//! ledger and the architectural state after each cycle, so a divergence
//! is pinpointed to the exact cycle. Further tests cover the paper's
//! non-grid topology, trace-driven traffic, drain mode, the cycle limit
//! and cross-shard clock gating; a proptest then drives *random
//! partitions* (not just grid stripes) against the compiled engine.
//!
//! [`Emulation`]: nocem::Emulation

mod support;

use nocem::clock::{ClockMode, SteppableEngine};
use nocem::compile::elaborate;
use nocem::compiled::CompiledEngine;
use nocem::config::{EngineKind, PaperConfig, PlatformConfig};
use nocem::engine::build;
use nocem::error::{CompileError, EmulationError};
use nocem::profile::ProfileConfig;
use nocem::shard_compiled::ShardedCompiledEngine;
use nocem::sweep::AnyEngine;
use nocem_telemetry::TelemetryConfig;
use nocem_topology::partition::PartitionMap;
use proptest::prelude::*;
use support::{
    against_emulation, assert_same_cycle, lockstep, lockstep_until, mesh, retraffic, subject,
    torus, uniform_random, Backend, Subject, Traffic,
};

const CASES: [Backend; 2] = [Backend::Sharded(2), Backend::Sharded(4)];

/// `cfg` gated and profiled, in drain mode.
fn gated_drain(mut cfg: PlatformConfig) -> PlatformConfig {
    cfg.clock_mode = ClockMode::Gated;
    cfg.stop.delivered_packets = None;
    cfg.profile = Some(ProfileConfig::default());
    cfg
}

#[test]
fn mesh8x8_low_load_is_bit_identical_across_batches() {
    against_emulation(&uniform_random(mesh(8, 8), 0.05, 500), &CASES);
}

#[test]
fn mesh8x8_saturating_load_is_bit_identical_across_batches() {
    // 40% uniform-random congests the center: worms block across
    // shard boundaries, credits starve, packets park at the sources.
    against_emulation(&uniform_random(mesh(8, 8), 0.40, 700), &CASES);
}

#[test]
fn torus8x8_low_load_is_bit_identical_across_batches() {
    against_emulation(&uniform_random(torus(8, 8), 0.05, 500), &CASES);
}

#[test]
fn torus8x8_saturating_load_is_bit_identical_across_batches() {
    against_emulation(&uniform_random(torus(8, 8), 0.40, 700), &CASES);
}

#[test]
fn odd_shard_count_and_non_row_aligned_stripes_agree() {
    // 3 shards over 8 rows: unbalanced row stripes (3/3/2).
    against_emulation(
        &uniform_random(mesh(8, 8), 0.20, 500),
        &[Backend::Sharded(3), Backend::Sharded(5)],
    );
}

/// The CI release smoke: 2 shards, saturating mesh8x8.
#[test]
fn mesh8x8_two_shards_batch8_lockstep() {
    against_emulation(
        &uniform_random(mesh(8, 8), 0.40, 900),
        &[Backend::Sharded(2)],
    );
}

/// Windowed telemetry must be bit-identical too: probe points fall on
/// the same cycles and the merged per-shard counters equal the
/// reference's.
#[test]
fn windowed_telemetry_is_bit_identical() {
    let mut cfg = uniform_random(mesh(8, 8), 0.30, 500);
    cfg.telemetry = Some(TelemetryConfig::windowed(64));
    let reference = &mut subject(&cfg, Backend::DirectCompiled);
    lockstep(reference, &mut [subject(&cfg, Backend::Sharded(4))]);
}

/// Drain mode: run until the TG budgets are spent and the network
/// empties; every shard's ledger events are applied, so the ledger
/// drains.
#[test]
fn drain_mode_stop_condition_drains_every_shard() {
    let mut cfg = uniform_random(mesh(8, 8), 0.10, 300);
    cfg.stop.delivered_packets = None;
    let engines = against_emulation(&cfg, &[Backend::Sharded(2)]);
    for s in engines {
        s.engine.ledger_ref().verify_drained().unwrap();
    }
}

/// A gated run skips exactly the cycles the single-threaded
/// fast-forward kernel skips, in as many jumps.
#[test]
fn gated_batches_and_skips_like_the_compiled_kernel() {
    let cfg = gated_drain(uniform_random(mesh(8, 8), 0.05, 300));
    let mut reference = subject(&cfg, Backend::DirectCompiled);
    let mut engine = [subject(&cfg, Backend::Sharded(4))];
    lockstep(&mut reference, &mut engine);
    let [s] = &mut engine;
    assert!(s.engine.cycles_skipped() > 0, "a 5%-load run must skip");
    let work = s.engine.profile().unwrap().work;
    let jumps = reference.engine.profile().unwrap().work.fast_forwards;
    assert_eq!(work.fast_forwards, jumps);
}

/// Per-step gated lockstep against the compiled engine — clock, ledger,
/// view and skipped cycles after *every* step — at every shard count,
/// on steady sparse load (short jumps) and packet trains (long ones).
#[test]
fn gated_lockstep_per_step_with_jumps_inside_and_past_the_window() {
    for topo in [mesh(8, 8), torus(8, 8)] {
        let steady = uniform_random(topo, 0.005, 120);
        let trains = retraffic(steady.clone(), Traffic::Trains { start: 0.002 });
        for cfg in [trains, steady].map(gated_drain) {
            let mut reference = subject(&cfg, Backend::DirectCompiled);
            let mut cases: Vec<Subject> = CASES.iter().map(|&b| subject(&cfg, b)).collect();
            while !reference.engine.finished() {
                let before = reference.engine.now().raw();
                reference.engine.step().unwrap();
                for s in &mut cases {
                    s.engine.step().unwrap();
                    assert_same_cycle(&mut reference, s);
                    let skipped = reference.engine.cycles_skipped();
                    assert_eq!(
                        s.engine.cycles_skipped(),
                        skipped,
                        "{} from {before}",
                        s.name
                    );
                }
            }
            let jumps = reference.engine.profile().unwrap().work.fast_forwards;
            assert!(jumps > 0, "{}: nothing to skip", cfg.name);
            for s in &mut cases {
                let what = s.name.clone();
                assert!(s.engine.finished(), "stop lagged: {what}");
                assert_eq!(s.engine.summary(), reference.engine.summary(), "{what}");
                let work = s.engine.profile().unwrap().work;
                assert_eq!(work.fast_forwards, jumps, "{what}");
            }
        }
    }
}

/// Gated: the cycle limit fires on the compiled engine's cycle with its
/// delivered count, whether the run idles into the
/// limit (one long jump clamped to it) or is still busy there.
#[test]
fn gated_batched_cycle_limit_fires_on_the_same_cycle() {
    for (packets, limit) in [(40, 20_000), (1_000_000, 777)] {
        let mut cfg = uniform_random(mesh(8, 8), 0.05, packets);
        cfg.clock_mode = ClockMode::Gated;
        cfg.stop.delivered_packets = Some(2_000_000);
        cfg.stop.cycle_limit = limit;
        let mut reference = CompiledEngine::new(elaborate(&cfg).unwrap());
        let err = reference.run().unwrap_err();
        assert!(matches!(err, EmulationError::CycleLimitExceeded { .. }));
        let mut engine = ShardedCompiledEngine::with_shards(&cfg, 2).unwrap();
        assert_eq!(engine.run().unwrap_err(), err);
        assert_eq!(engine.now(), reference.now());
        assert_eq!(engine.cycles_skipped(), reference.cycles_skipped());
        assert_eq!(engine.ledger(), reference.ledger());
    }
}

/// Gated with a telemetry window far shorter than a typical
/// packet-train jump: jumps cross several probe boundaries at once, and
/// the series stay bit-identical.
#[test]
fn gated_batched_telemetry_survives_jumps_across_probe_boundaries() {
    let mut cfg = retraffic(
        uniform_random(mesh(8, 8), 0.005, 200),
        Traffic::Trains { start: 0.002 },
    );
    cfg.clock_mode = ClockMode::Gated;
    cfg.telemetry = Some(TelemetryConfig::windowed(8));
    let mut reference = subject(&cfg, Backend::DirectCompiled);
    let mut engines = CASES.map(|b| subject(&cfg, b));
    lockstep(&mut reference, &mut engines);
    let windows = reference.engine.telemetry().unwrap().windows_recorded();
    assert!(
        reference.engine.cycles_skipped() > 8 * windows / 2,
        "jumps must dwarf the 8-cycle telemetry window"
    );
}

/// One shard is not sharded: the dispatcher builds the compiled engine
/// for `ShardedCompiled { shards: 1, .. }` — the `compiled` profile
/// label — in per-cycle lockstep (clock + ledger)
/// with `EngineKind::Compiled` and with the single-worker sharded
/// engine that `with_shards(cfg, 1)` still builds by name.
#[test]
fn one_shard_dispatches_to_the_compiled_engine_in_lockstep() {
    for load in [0.10, 0.40] {
        let mut cfg = uniform_random(mesh(8, 8), load, 300);
        cfg.profile = Some(ProfileConfig::default());
        let worker = ShardedCompiledEngine::with_shards(&cfg, 1).unwrap();
        assert_eq!(worker.partition().shards(), 1);
        let mut engines = [
            subject(&cfg, Backend::Sharded(1)),
            Subject::new("one worker", &cfg, worker),
        ];
        let one = engines[0].get::<AnyEngine>();
        assert!(matches!(one, AnyEngine::Compiled(_)), "{one:?}");
        lockstep(&mut subject(&cfg, Backend::Compiled), &mut engines);
        let [one, worker] = &mut engines;
        assert_eq!(one.engine.profile().unwrap().label, "compiled");
        assert_eq!(worker.engine.profile().unwrap().label, "sharded-compiled/1");
    }
    let two = uniform_random(mesh(8, 8), 0.10, 50).with_engine(EngineKind::ShardedCompiled {
        shards: 2,
        batch: 1,
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
    let elab = elaborate(&uniform_random(mesh(8, 8), 0.10, 10)).unwrap();
    let map = PartitionMap::new((0..16).map(|s| s % 2).collect(), 2).unwrap();
    match ShardedCompiledEngine::with_partition(elab, map) {
        Err(CompileError::Partition { reason }) => {
            assert!(reason.contains("16") && reason.contains("64"), "{reason}");
        }
        other => panic!("expected a partition error, got {other:?}"),
    }
}

/// A configured stall watchdog runs on the sharded engine as on every
/// other: a wedged run (ejection credits no receptor returns) trips it
/// on the reference's cycle with the reference's whole report, at two
/// and four shards, and a healthy run never trips it. The lockstep run
/// stops right behind the trip and compares the results there.
#[test]
fn configured_stall_watchdog_trips_like_the_reference() {
    let mut cfg = uniform_random(mesh(8, 8), 0.40, 10_000);
    cfg.switch.ejection_credits = Some(2);
    cfg.profile = Some(ProfileConfig::default().with_stall(50));
    let mut scout = build(&cfg).unwrap();
    while scout.stall_report().is_none() {
        scout.step().unwrap();
    }
    let mut reference = subject(&cfg, Backend::Emulation);
    let mut engines = CASES.map(|b| subject(&cfg, b));
    lockstep_until(&mut reference, &mut engines, scout.now().raw());
    let want = reference.engine.stall_report().expect("the wedge trips");
    assert!(!want.edges.is_empty());
    for s in &engines {
        assert_eq!(s.engine.stall_report(), Some(want), "{}", s.name);
    }

    let mut cfg = uniform_random(mesh(8, 8), 0.05, 100);
    cfg.profile = Some(ProfileConfig::default().with_stall(200));
    let mut engine = [subject(&cfg, Backend::Sharded(2))];
    lockstep(&mut subject(&cfg, Backend::Emulation), &mut engine);
    assert!(engine[0].engine.stall_report().is_none());
}

#[test]
fn paper_setup_shards_and_matches_single_thread() {
    // The paper's 6-switch topology is not a grid: index striping.
    let cfg = PaperConfig::new().total_packets(300).uniform();
    against_emulation(&cfg, &[Backend::Sharded(2)]);
}

#[test]
fn single_shard_degenerates_cleanly() {
    let cfg = PaperConfig::new().total_packets(120).burst(4);
    let engine = ShardedCompiledEngine::with_shards(&cfg, 1).unwrap();
    let mut engine = [Subject::new("one worker", &cfg, engine)];
    lockstep(&mut subject(&cfg, Backend::Emulation), &mut engine);
    let partition = engine[0].get::<ShardedCompiledEngine>().partition();
    assert!(partition.boundary_links(&cfg.topology).is_empty());
}

#[test]
fn sharded_results_match_single_thread() {
    let cfg = PaperConfig::new().total_packets(200).trace_bursty(4);
    against_emulation(&cfg, &[Backend::Sharded(3)]);
}

#[test]
fn sharded_telemetry_matches_single_thread() {
    let cfg = PaperConfig::new()
        .total_packets(300)
        .uniform()
        .with_telemetry(Some(TelemetryConfig::windowed(64)));
    let sharded = against_emulation(&cfg, &[Backend::Sharded(2)]);
    let windows = sharded[0].engine.telemetry().unwrap().windows_recorded();
    assert!(windows > 0, "run long enough to window");
}

#[test]
fn cycle_limit_fires_on_the_same_cycle() {
    let mut cfg = PaperConfig::new().total_packets(1_000_000).uniform();
    cfg.stop.cycle_limit = 300;
    let single_err = build(&cfg).unwrap().run().unwrap_err();
    let mut sharded = ShardedCompiledEngine::with_shards(&cfg, 2).unwrap();
    assert_eq!(sharded.run().unwrap_err(), single_err);
}

#[test]
fn too_many_shards_is_a_compile_error() {
    let cfg = PaperConfig::new().total_packets(10).uniform();
    let err = ShardedCompiledEngine::with_shards(&cfg, 64).unwrap_err();
    assert!(matches!(err, CompileError::Partition { .. }));
    assert!(err.to_string().contains("64"));
}

#[test]
fn gated_sharded_skips_exactly_like_the_single_threaded_kernel() {
    // The cross-shard event horizon must reproduce the single-threaded
    // fast-forward: global quiescence is the conjunction of the shard
    // predicates and the horizon is the min over shard next-events, so
    // gated sharded runs skip the *same* cycles.
    let mut cfg = uniform_random(mesh(8, 8), 0.05, 400);
    cfg.clock_mode = ClockMode::Gated;
    let sharded = against_emulation(&cfg, &[Backend::Sharded(4)]);
    let skipped = sharded[0].engine.cycles_skipped();
    assert!(skipped > 0, "a 5%-load run must skip cycles");
}

#[test]
fn gated_sharded_is_cycle_equivalent_to_ungated_sharded() {
    let cfg = uniform_random(torus(8, 8), 0.05, 300);
    let gated_cfg = cfg.clone().with_clock_mode(ClockMode::Gated);
    let mut gated = [subject(&gated_cfg, Backend::Sharded(2))];
    lockstep(&mut subject(&cfg, Backend::Sharded(2)), &mut gated);
    assert!(gated[0].engine.cycles_skipped() > 0);
}

#[test]
fn engine_kind_round_trips_through_the_generic_builder() {
    let cfg = uniform_random(mesh(8, 8), 0.10, 200).with_engine(EngineKind::ShardedCompiled {
        shards: 2,
        batch: 1,
    });
    let engine = AnyEngine::build(&cfg).unwrap();
    assert!(matches!(engine, AnyEngine::ShardedCompiled(_)));
    let reference = &mut subject(&cfg, Backend::DirectCompiled);
    lockstep(reference, &mut [Subject::new("generic", &cfg, engine)]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Boundary replay must equal the compiled engine for *random*
    /// partitions (arbitrary switch→shard assignments, not just
    /// contiguous stripes).
    #[test]
    fn random_partitions_replay_identically_at_any_batch(
        seed in 0u64..1_000_000,
        shards in 2usize..5,
    ) {
        let cfg = uniform_random(mesh(4, 4), 0.30, 120);
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
        let engine = ShardedCompiledEngine::with_partition(elaborate(&cfg).unwrap(), map).unwrap();
        let mut engine = [Subject::new("random partition", &cfg, engine)];
        lockstep(&mut subject(&cfg, Backend::DirectCompiled), &mut engine);
    }
}
