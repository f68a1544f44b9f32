//! Sharded-vs-single-threaded equivalence: the sharded compiled engine
//! must be *bit-identical* to the single-threaded [`Emulation`] oracle
//! (and to [`CompiledEngine`]) — same packet ledger, same summary,
//! same results, same telemetry — for every tested (shards, batch)
//! combination, because batching amortizes coordinator synchronization
//! without deferring any boundary flit or credit past its one-cycle
//! link latency.
//!
//! The shared harness (`support`) steps every engine in lockstep with
//! the single-threaded reference, comparing the clock and the packet
//! ledger after each cycle, so a divergence is pinpointed to the exact
//! cycle. Further tests cover the paper's non-grid topology,
//! trace-driven traffic, drain mode, the cycle limit and cross-shard
//! clock gating; a proptest then drives *random partitions* (not just
//! grid stripes) at random batch sizes against the batch-1 exchange
//! order.
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
    against_emulation, assert_same_cycle, first_difference, lockstep, lockstep_until, mesh,
    retraffic, subject, torus, uniform_random, Backend, Subject, Traffic,
};

const CASES: &[Backend] = &[
    Backend::Sharded(2, 1),
    Backend::Sharded(2, 4),
    Backend::Sharded(2, 16),
    Backend::Sharded(4, 1),
    Backend::Sharded(4, 4),
    Backend::Sharded(4, 16),
];

/// The sharded engine inside a [`Backend::Sharded`] subject.
fn sharded(s: &mut Subject) -> &mut ShardedCompiledEngine {
    match s.get::<AnyEngine>() {
        AnyEngine::ShardedCompiled(e) => e,
        other => panic!("not sharded: {other:?}"),
    }
}

/// `cfg` gated and profiled, in drain mode.
fn gated_drain(mut cfg: PlatformConfig) -> PlatformConfig {
    cfg.clock_mode = ClockMode::Gated;
    cfg.stop.delivered_packets = None;
    cfg.profile = Some(ProfileConfig::default());
    cfg
}

#[test]
fn mesh8x8_low_load_is_bit_identical_across_batches() {
    against_emulation(&uniform_random(mesh(8, 8), 0.05, 500), CASES);
}

#[test]
fn mesh8x8_saturating_load_is_bit_identical_across_batches() {
    // 40% uniform-random congests the center: worms block across
    // shard boundaries, credits starve, packets park at the sources.
    against_emulation(&uniform_random(mesh(8, 8), 0.40, 700), CASES);
}

#[test]
fn torus8x8_low_load_is_bit_identical_across_batches() {
    against_emulation(&uniform_random(torus(8, 8), 0.05, 500), CASES);
}

#[test]
fn torus8x8_saturating_load_is_bit_identical_across_batches() {
    against_emulation(&uniform_random(torus(8, 8), 0.40, 700), CASES);
}

#[test]
fn odd_shard_count_and_non_row_aligned_stripes_agree() {
    // 3 shards over 8 rows: unbalanced row stripes (3/3/2).
    against_emulation(
        &uniform_random(mesh(8, 8), 0.20, 500),
        &[
            Backend::Sharded(3, 1),
            Backend::Sharded(3, 16),
            Backend::Sharded(5, 4),
        ],
    );
}

/// The CI release smoke: 2 shards, batch 8, saturating mesh8x8.
#[test]
fn mesh8x8_two_shards_batch8_lockstep() {
    against_emulation(
        &uniform_random(mesh(8, 8), 0.40, 900),
        &[Backend::Sharded(2, 8)],
    );
}

/// Inside a window a batched engine's workers stand ahead of its clock,
/// so its architectural state — and the results read over it — is
/// refused there with a typed error; at each window's end (every
/// multiple of the batch) it is the interpreted engine's.
#[test]
fn arch_view_is_refused_mid_window_and_exact_at_window_ends() {
    let cfg = uniform_random(mesh(4, 4), 0.40, 1_000_000);
    let mut reference = build(&cfg).unwrap();
    let mut engine = ShardedCompiledEngine::with_shards(&cfg, 2, 8).unwrap();
    for cycle in 1..=24u64 {
        reference.step().unwrap();
        engine.step().unwrap();
        let want = SteppableEngine::arch_view(&mut reference).unwrap();
        match SteppableEngine::arch_view(&mut engine) {
            Ok(got) if cycle % 8 == 0 => assert_eq!(first_difference(want, got), None),
            Err(EmulationError::MidWindow { cycle: at, ahead }) if cycle % 8 != 0 => {
                assert_eq!((at, ahead), (cycle, 8 - cycle % 8));
                let results = engine.results();
                assert!(matches!(results, Err(EmulationError::MidWindow { .. })));
            }
            other => panic!("cycle {cycle}: {other:?}"),
        }
    }
    assert_eq!(engine.results().unwrap(), reference.results());
}

/// One synchronization round per cycle at `batch = 1` (today's
/// per-cycle exchange protocol), ~`batch`× fewer at `batch = 16` —
/// the measured amortization the batching exists for. Drain mode is
/// the honest measurement: a delivered-packet target additionally
/// caps each window at `ceil(remaining / receptors)` cycles (the
/// zero-overshoot guarantee), which shortens windows near the target.
#[test]
fn batching_amortizes_synchronization_rounds_by_batch() {
    let mut cfg = uniform_random(mesh(8, 8), 0.20, 400);
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
    let mut cfg = uniform_random(mesh(8, 8), 0.30, 500);
    cfg.telemetry = Some(TelemetryConfig::windowed(64));
    let reference = &mut subject(&cfg, Backend::DirectCompiled);
    let mut engines = [1, 16].map(|batch| subject(&cfg, Backend::Sharded(4, batch)));
    lockstep(reference, &mut engines);
}

/// Drain mode: run until the TG budgets are spent and the network
/// empties. The last window may overshoot the stop cycle, but a
/// quiescent platform makes those cycles no-ops, so ledger and clock
/// still match.
#[test]
fn drain_mode_stop_condition_drains_every_shard() {
    let mut cfg = uniform_random(mesh(8, 8), 0.10, 300);
    cfg.stop.delivered_packets = None;
    let engines = against_emulation(&cfg, &[Backend::Sharded(2, 1), Backend::Sharded(2, 8)]);
    for s in engines {
        s.engine.ledger_ref().verify_drained().unwrap();
    }
}

/// Gating and batching compose: a gated config keeps the batch it
/// asked for, skips exactly the cycles the single-threaded
/// fast-forward kernel skips, and pays one synchronization round per
/// window instead of one per stepped cycle. Drain mode, like the
/// amortization test above: a delivered target caps windows near the
/// end.
#[test]
fn gated_batches_and_skips_like_the_compiled_kernel() {
    let cfg = gated_drain(uniform_random(mesh(8, 8), 0.05, 300));
    let mut reference = subject(&cfg, Backend::DirectCompiled);
    let mut engine = [subject(&cfg, Backend::Sharded(4, 16))];
    assert_eq!(
        sharded(&mut engine[0]).batch(),
        16,
        "gated mode keeps the batch"
    );
    lockstep(&mut reference, &mut engine);
    let [s] = &mut engine;
    let skipped = s.engine.cycles_skipped();
    assert!(skipped > 0, "a 5%-load run must skip");
    let stepped = s.engine.now().raw() - skipped;
    let work = s.engine.profile().unwrap().work;
    let jumps = reference.engine.profile().unwrap().work.fast_forwards;
    assert_eq!(work.fast_forwards, jumps);
    // Every window is 16 rows, each applied (a stepped cycle) or
    // discarded by a jump; only a window a jump cut short (or the last
    // one) carries fewer than 16 stepped cycles. Batch 1 paid
    // `stepped` rounds here.
    let rounds = sharded(s).sync_rounds();
    assert!(
        rounds <= stepped.div_ceil(16) + jumps + 1,
        "{rounds} rounds for {stepped} stepped cycles and {jumps} jumps"
    );
    assert!(rounds < stepped / 2, "{rounds} rounds, {stepped} stepped");
    assert!(work.speculative_rows > 0, "no jump landed inside a window");
    assert!(work.speculative_rows <= 15 * jumps);
}

/// Per-step gated lockstep against the compiled engine — clock, ledger
/// and skipped cycles after *every* step — for every (shards, batch)
/// case, on steady sparse load (jumps shorter than a window) and packet
/// trains (jumps longer than one). A jump that costs no synchronization
/// round landed on a row already buffered; one that does ran past the
/// buffer's end. Both must occur at every batch > 1.
#[test]
fn gated_lockstep_per_step_with_jumps_inside_and_past_the_window() {
    for topo in [mesh(8, 8), torus(8, 8)] {
        let steady = uniform_random(topo, 0.005, 120);
        let trains = retraffic(steady.clone(), Traffic::Trains { start: 0.002 });
        for cfg in [trains, steady].map(gated_drain) {
            let mut reference = subject(&cfg, Backend::DirectCompiled);
            // Per case: the engine, jumps that landed inside the
            // buffered window, the rows those jumps passed, jumps that
            // ran past the window's end.
            let mut cases: Vec<(Subject, u64, u64, u64)> =
                CASES.iter().map(|&b| (subject(&cfg, b), 0, 0, 0)).collect();
            while !reference.engine.finished() {
                let before = reference.engine.now().raw();
                reference.engine.step().unwrap();
                let jump = reference.engine.now().raw() - before - 1;
                for (s, inside, inside_rows, past) in &mut cases {
                    let rounds = sharded(s).sync_rounds();
                    s.engine.step().unwrap();
                    assert_same_cycle(&mut reference, s);
                    let skipped = reference.engine.cycles_skipped();
                    assert_eq!(
                        s.engine.cycles_skipped(),
                        skipped,
                        "{} from {before}",
                        s.name
                    );
                    if jump > 0 && sharded(s).sync_rounds() == rounds {
                        *inside += 1;
                        *inside_rows += jump;
                    } else if jump > 0 {
                        *past += 1;
                    }
                }
            }
            let jumps = reference.engine.profile().unwrap().work.fast_forwards;
            assert!(jumps > 0, "{}: nothing to skip", cfg.name);
            for (s, inside, inside_rows, past) in &mut cases {
                let what = s.name.clone();
                assert!(s.engine.finished(), "stop lagged: {what}");
                assert_eq!(s.engine.summary(), reference.engine.summary(), "{what}");
                let work = s.engine.profile().unwrap().work;
                assert_eq!(work.fast_forwards, jumps, "{what}");
                assert_eq!(*inside + *past, jumps, "{what}");
                let batch = sharded(s).batch();
                if batch == 1 {
                    // One-row windows: the buffer is empty at every
                    // step, so nothing is ever speculative.
                    assert_eq!((*inside, work.speculative_rows), (0, 0), "{what}");
                } else {
                    assert!(*inside > 0, "no jump inside a window: {what}");
                    assert!(*past > 0, "no jump past a window: {what}");
                    assert!(work.speculative_rows >= *inside_rows, "{what}");
                    assert!(work.speculative_rows <= (batch - 1) * jumps, "{what}");
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
        let mut cfg = uniform_random(mesh(8, 8), 0.05, packets);
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
/// packet-train jump: jumps cross several probe boundaries at once,
/// inside the buffered window and past it, and the series stay
/// bit-identical.
#[test]
fn gated_batched_telemetry_survives_jumps_across_probe_boundaries() {
    let mut cfg = retraffic(
        uniform_random(mesh(8, 8), 0.005, 200),
        Traffic::Trains { start: 0.002 },
    );
    cfg.clock_mode = ClockMode::Gated;
    cfg.telemetry = Some(TelemetryConfig::windowed(8));
    let mut reference = subject(&cfg, Backend::DirectCompiled);
    let mut engines = [(2, 16), (4, 5)].map(|(k, b)| subject(&cfg, Backend::Sharded(k, b)));
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
/// engine that `with_shards(cfg, 1, ..)` still builds by name.
#[test]
fn one_shard_dispatches_to_the_compiled_engine_in_lockstep() {
    for load in [0.10, 0.40] {
        let mut cfg = uniform_random(mesh(8, 8), load, 300);
        cfg.profile = Some(ProfileConfig::default());
        let worker = ShardedCompiledEngine::with_shards(&cfg, 1, 4).unwrap();
        assert_eq!(worker.partition().shards(), 1);
        let mut engines = [
            subject(&cfg, Backend::Sharded(1, 16)),
            Subject::new("one worker", &cfg, worker),
        ];
        let one = engines[0].get::<AnyEngine>();
        assert!(matches!(one, AnyEngine::Compiled(_)), "{one:?}");
        lockstep(&mut subject(&cfg, Backend::Compiled), &mut engines);
        let [one, worker] = &mut engines;
        assert_eq!(one.engine.profile().unwrap().label, "compiled");
        let label = worker.engine.profile().unwrap().label;
        assert!(label.starts_with("sharded-compiled/1x"), "{label}");
    }
    let two = uniform_random(mesh(8, 8), 0.10, 50).with_engine(EngineKind::ShardedCompiled {
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
    let elab = elaborate(&uniform_random(mesh(8, 8), 0.10, 10)).unwrap();
    let map = PartitionMap::new((0..16).map(|s| s % 2).collect(), 2).unwrap();
    match ShardedCompiledEngine::with_partition(elab, map, 4) {
        Err(CompileError::Partition { reason }) => {
            assert!(reason.contains("16") && reason.contains("64"), "{reason}");
        }
        other => panic!("expected a partition error, got {other:?}"),
    }
}

/// A configured stall watchdog runs on the sharded engine as on every
/// other: a wedged run (ejection credits no receptor returns) trips it
/// on the reference's cycle with the reference's whole report, at one
/// long and one per-cycle batch, and a healthy run never trips it. The
/// lockstep run stops right behind the trip, which ends a window, so the
/// results compared there are the workers' too.
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
    let mut engines = [(2, 16), (4, 1)].map(|(k, b)| subject(&cfg, Backend::Sharded(k, b)));
    lockstep_until(&mut reference, &mut engines, scout.now().raw());
    let want = reference.engine.stall_report().expect("the wedge trips");
    assert!(!want.edges.is_empty());
    for s in &engines {
        assert_eq!(s.engine.stall_report(), Some(want), "{}", s.name);
    }

    let mut cfg = uniform_random(mesh(8, 8), 0.05, 100);
    cfg.profile = Some(ProfileConfig::default().with_stall(200));
    let mut engine = [subject(&cfg, Backend::Sharded(2, 4))];
    lockstep(&mut subject(&cfg, Backend::Emulation), &mut engine);
    assert!(engine[0].engine.stall_report().is_none());
}

#[test]
fn paper_setup_shards_and_matches_single_thread() {
    // The paper's 6-switch topology is not a grid: index striping.
    let cfg = PaperConfig::new().total_packets(300).uniform();
    against_emulation(&cfg, &[Backend::Sharded(2, 1), Backend::Sharded(2, 16)]);
}

#[test]
fn single_shard_degenerates_cleanly() {
    let cfg = PaperConfig::new().total_packets(120).burst(4);
    let engine = ShardedCompiledEngine::with_shards(&cfg, 1, 4).unwrap();
    let mut engine = [Subject::new("one worker", &cfg, engine)];
    lockstep(&mut subject(&cfg, Backend::Emulation), &mut engine);
    let partition = engine[0].get::<ShardedCompiledEngine>().partition();
    assert!(partition.boundary_links(&cfg.topology).is_empty());
}

#[test]
fn sharded_results_match_single_thread() {
    let cfg = PaperConfig::new().total_packets(200).trace_bursty(4);
    against_emulation(&cfg, &[Backend::Sharded(3, 1), Backend::Sharded(3, 8)]);
}

#[test]
fn sharded_telemetry_matches_single_thread() {
    let cfg = PaperConfig::new()
        .total_packets(300)
        .uniform()
        .with_telemetry(Some(TelemetryConfig::windowed(64)));
    let sharded = against_emulation(&cfg, &[Backend::Sharded(2, 16)]);
    let windows = sharded[0].engine.telemetry().unwrap().windows_recorded();
    assert!(windows > 0, "run long enough to window");
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
    let mut cfg = uniform_random(mesh(8, 8), 0.05, 400);
    cfg.clock_mode = ClockMode::Gated;
    let sharded = against_emulation(&cfg, &[Backend::Sharded(4, 1)]);
    let skipped = sharded[0].engine.cycles_skipped();
    assert!(skipped > 0, "a 5%-load run must skip cycles");
}

#[test]
fn gated_sharded_is_cycle_equivalent_to_ungated_sharded() {
    let cfg = uniform_random(torus(8, 8), 0.05, 300);
    let gated_cfg = cfg.clone().with_clock_mode(ClockMode::Gated);
    let mut gated = [subject(&gated_cfg, Backend::Sharded(2, 1))];
    lockstep(&mut subject(&cfg, Backend::Sharded(2, 16)), &mut gated);
    assert!(gated[0].engine.cycles_skipped() > 0);
}

#[test]
fn engine_kind_round_trips_through_the_generic_builder() {
    let cfg = uniform_random(mesh(8, 8), 0.10, 200).with_engine(EngineKind::ShardedCompiled {
        shards: 2,
        batch: 8,
    });
    let engine = AnyEngine::build(&cfg).unwrap();
    assert!(matches!(engine, AnyEngine::ShardedCompiled(_)));
    let reference = &mut subject(&cfg, Backend::DirectCompiled);
    lockstep(reference, &mut [Subject::new("generic", &cfg, engine)]);
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
        let replay = |map, batch| {
            let engine = ShardedCompiledEngine::with_partition(elaborate(&cfg).unwrap(), map, batch);
            Subject::new(&format!("batch {batch}"), &cfg, engine.unwrap())
        };
        let mut per_cycle = replay(map.clone(), 1);
        lockstep(&mut per_cycle, &mut [replay(map, batch)]);
    }
}
