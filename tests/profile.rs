//! Engine self-profiling acceptance: the phase accumulators must
//! account for (nearly) all measured wall time, the `profile: None`
//! default must be behaviour-free, and every engine must answer
//! [`SteppableEngine::profile`] with its per-cycle phases.

use nocem::clock::SteppableEngine;
use nocem::compile::elaborate;
use nocem::compiled::CompiledEngine;
use nocem::config::PlatformConfig;
use nocem::engine::build;
use nocem::profile::{Phase, PhaseProfiler, ProfileConfig};
use nocem::shard_compiled::ShardedCompiledEngine;
use nocem_scenarios::registry::ScenarioRegistry;
use nocem_scenarios::scenario::TopologySpec;
use nocem_telemetry::validate_json;
use std::time::Instant;

const MESH8X8: TopologySpec = TopologySpec::Mesh {
    width: 8,
    height: 8,
};

/// A uniform-random scenario config on `topo` at `load`.
fn uniform(topo: TopologySpec, load: f64, packets: u64) -> PlatformConfig {
    ScenarioRegistry::builtin()
        .resolve("uniform_random")
        .unwrap()
        .build_config(topo, load, 4, packets)
        .unwrap()
}

/// On mesh8x8 @ 40% the compiled engine's phase totals must cover at
/// least 90% of the wall time spent inside the stepping loop (set-up
/// is not a phase, so the total is the step).
#[test]
fn compiled_phases_cover_90_percent_of_wall_time_on_mesh8x8() {
    let mut cfg = uniform(MESH8X8, 0.40, 1_000_000);
    cfg.profile = Some(ProfileConfig::default());
    let mut engine = CompiledEngine::new(elaborate(&cfg).unwrap());
    let t0 = Instant::now();
    for _ in 0..2_000 {
        engine.step().unwrap();
    }
    let wall = u64::try_from(t0.elapsed().as_nanos()).unwrap();
    let report = SteppableEngine::profile(&mut engine).expect("profiling was enabled");
    assert_eq!(report.stepped_cycles, 2_000);
    let covered = report.total_ns;
    assert!(
        covered as f64 >= 0.90 * wall as f64,
        "phases cover {covered} ns of {wall} ns wall ({:.1}%) — must be >= 90%",
        covered as f64 / wall as f64 * 100.0
    );
    assert!(
        covered <= wall,
        "laps are subsets of the loop: {covered} ns cannot exceed {wall} ns"
    );
    // At a saturating 40% load the switch allocation phase (decide)
    // must be a major cost — the PR 7 claim this layer was built to
    // make queryable.
    assert!(
        report.share_of(Phase::Decide) > 0.10,
        "decide share {:.3} suspiciously small",
        report.share_of(Phase::Decide)
    );
}

/// `profile: None` (the default) keeps `profile()` and
/// `stall_report()` empty, and turning profiling on never changes
/// behaviour: the profiled run stays ledger-identical on both
/// single-threaded engines.
#[test]
fn profiling_is_off_by_default_and_behaviour_free() {
    let cfg = uniform(MESH8X8, 0.30, 400);
    assert!(cfg.profile.is_none(), "profiling must default to off");
    let mut off = CompiledEngine::new(elaborate(&cfg).unwrap());
    off.run().unwrap();
    assert!(SteppableEngine::profile(&mut off).is_none());
    assert!(SteppableEngine::stall_report(&off).is_none());

    let mut pcfg = cfg.clone();
    pcfg.profile = Some(ProfileConfig::default().with_stall(10_000));
    let mut on = CompiledEngine::new(elaborate(&pcfg).unwrap());
    on.run().unwrap();
    assert_eq!(on.ledger(), off.ledger());
    assert_eq!(
        SteppableEngine::summary(&on),
        SteppableEngine::summary(&off)
    );
    assert!(
        SteppableEngine::stall_report(&on).is_none(),
        "a healthy run must not trip the stall watchdog"
    );

    let mut emu_off = build(&cfg).unwrap();
    nocem::run_engine(&mut emu_off).unwrap();
    let mut emu_on = build(&pcfg).unwrap();
    nocem::run_engine(&mut emu_on).unwrap();
    assert_eq!(
        SteppableEngine::summary(&emu_on),
        SteppableEngine::summary(&emu_off)
    );
    assert_eq!(
        SteppableEngine::summary(&emu_on),
        SteppableEngine::summary(&off),
        "profiled emulation must also match the compiled reference"
    );
}

/// Every engine answers `profile()` when profiling is on: non-empty
/// phase tables, counted cycles, and valid JSON serialization. The
/// process-driven models charge their opaque scheduler cycle to the
/// `processes` phase; the sharded engine carries per-worker
/// sub-reports, each with compute and boundary-exchange time, and its
/// coordinator's own report shows time waiting for the workers and
/// applying their rows.
#[test]
fn every_engine_reports_its_phases() {
    let mesh4 = TopologySpec::Mesh {
        width: 4,
        height: 4,
    };
    let mut cfg = uniform(mesh4, 0.20, 10_000);
    cfg.profile = Some(ProfileConfig::default());

    let mut engines: Vec<(&str, Box<dyn SteppableEngine>)> = vec![
        ("emulation", Box::new(build(&cfg).unwrap())),
        (
            "compiled",
            Box::new(CompiledEngine::new(elaborate(&cfg).unwrap())),
        ),
        (
            "tlm",
            Box::new(nocem_tlm::model::TlmEngine::new(elaborate(&cfg).unwrap())),
        ),
        (
            "rtl",
            Box::new(nocem_rtl::model::RtlEngine::new(elaborate(&cfg).unwrap())),
        ),
        (
            "sharded-compiled",
            Box::new(ShardedCompiledEngine::with_shards(&cfg, 2, 4).unwrap()),
        ),
    ];
    for (name, engine) in &mut engines {
        for _ in 0..64 {
            engine.step().unwrap_or_else(|e| panic!("{name}: {e}"));
        }
        let report = engine
            .profile()
            .unwrap_or_else(|| panic!("{name}: no profile despite config"));
        assert!(
            report.label.contains(*name),
            "{name}: label {}",
            report.label
        );
        assert!(report.stepped_cycles > 0, "{name}: no cycles counted");
        assert!(!report.phases.is_empty(), "{name}: empty phase table");
        assert!(report.total_ns > 0, "{name}: no time accumulated");
        validate_json(&report.to_json()).unwrap_or_else(|e| panic!("{name}: {e}"));
        match *name {
            "tlm" | "rtl" => assert!(
                report.ns_of(Phase::Processes) > 0,
                "{name}: scheduler cycle must be charged to `processes`"
            ),
            "sharded-compiled" => {
                assert_eq!(report.workers.len(), 2, "{name}: per-worker sub-reports");
                for w in &report.workers {
                    assert!(
                        w.ns_of(Phase::WorkerCompute) > 0,
                        "{name}/{}: no compute time",
                        w.label
                    );
                    assert!(
                        w.ns_of(Phase::Exchange) > 0,
                        "{name}/{}: no exchange time",
                        w.label
                    );
                }
                // The aggregate absorbs the workers' phases; the
                // coordinator's own phases appear in it alone.
                for phase in [Phase::CoordWait, Phase::Apply] {
                    assert!(
                        report.ns_of(phase) > 0,
                        "{name}: no coordinator {} time",
                        phase.name()
                    );
                }
            }
            _ => assert!(
                report.ns_of(Phase::Decide) > 0,
                "{name}: switch allocation must appear"
            ),
        }
    }
}

/// A report's label is the caller's string: quotes, backslashes and
/// control bytes in it reach the JSON escaped, in workers too.
#[test]
fn report_labels_are_escaped_in_json() {
    let mut p = PhaseProfiler::new();
    p.add_ns(Phase::Decide, 10);
    let mut report = p.report("say \"hi\" \\ bye\n");
    report.workers.push(p.report("w\t0"));
    let json = report.to_json();
    validate_json(&json).unwrap_or_else(|e| panic!("{e}: {json}"));
    assert!(json.starts_with(r#"{"label":"say \"hi\" \\ bye\u000a","#));
    assert!(json.contains(r#""workers":[{"label":"w\u00090","#));
}

/// The compiled kernels count their work next to the timers, and the
/// counts are exact: on a sparse gated run the watermark skips most TG
/// phases, the clock jumps, every released packet cost one real TG
/// tick and every flit one NI tick — identically on one thread and on
/// two shards, whose workers run the same phases over the same sets.
#[test]
fn work_counters_account_for_the_live_set_paths() {
    let mut cfg = uniform(MESH8X8, 0.01, 200);
    cfg.clock_mode = nocem::ClockMode::Gated;
    cfg.profile = Some(ProfileConfig::default());

    let mut compiled = CompiledEngine::new(elaborate(&cfg).unwrap());
    compiled.run().unwrap();
    let summary = SteppableEngine::summary(&compiled);
    let report = SteppableEngine::profile(&mut compiled).unwrap();
    let work = report.work;
    assert_eq!(work.tg_ticks, summary.released, "one real tick per packet");
    assert_eq!(work.ni_ticks, summary.delivered_flits, "no credit stalls");
    assert!(work.fast_forwards > 0 && work.fast_forwards <= summary.cycles_skipped);
    assert!(
        work.tg_phases_skipped > report.stepped_cycles / 2,
        "watermark skipped only {} of {} TG phases",
        work.tg_phases_skipped,
        report.stepped_cycles
    );
    assert_eq!(work.switches_scanned, report.stepped_cycles, "one word");
    assert!(work.switches_decided >= summary.delivered_flits);
    assert!(work.switches_decided < 64 * work.switches_scanned / 4);
    assert!(report.to_json().contains("\"work\":{\"switches_decided\":"));
    assert!(report.render().contains("tg_phases_skipped="));

    let mut sharded = ShardedCompiledEngine::with_shards(&cfg, 2, 16).unwrap();
    sharded.run().unwrap();
    let sharded_work = SteppableEngine::profile(&mut sharded).unwrap().work;
    assert_eq!(
        (sharded_work.tg_ticks, sharded_work.ni_ticks),
        (work.tg_ticks, work.ni_ticks)
    );
    assert_eq!(sharded_work.switches_decided, work.switches_decided);
    assert_eq!(sharded_work.fast_forwards, work.fast_forwards);
}

/// The TG phase visits the generators due now (and the parked ones)
/// instead of all of them: on a low-load mesh12x12 nothing ever parks,
/// so every generator it polls is one that ticks — where a scan would
/// poll all 144 on every cycle the phase runs — and no NI ever runs
/// out of credit, so none sleeps.
#[test]
fn tg_phase_polls_only_due_generators() {
    let mut cfg = uniform(
        TopologySpec::Mesh {
            width: 12,
            height: 12,
        },
        0.001,
        1_000,
    );
    cfg.stop.delivered_packets = Some(600);
    cfg.clock_mode = nocem::ClockMode::Gated;
    cfg.profile = Some(ProfileConfig::default());
    let mut compiled = CompiledEngine::new(elaborate(&cfg).unwrap());
    compiled.run().unwrap();
    assert_eq!(compiled.results().stalled_cycles, 0, "nothing parks");
    let report = SteppableEngine::profile(&mut compiled).unwrap();
    let work = report.work;
    assert!(work.tg_ticks >= 600, "{} ticks", work.tg_ticks);
    assert_eq!(work.tg_polls, work.tg_ticks, "every poll is a real tick");
    let phases_run = report.stepped_cycles - work.tg_phases_skipped;
    assert!(
        work.tg_polls < 144 * phases_run / 8,
        "{} polls over {phases_run} TG phases",
        work.tg_polls
    );
    assert_eq!(work.ni_sleeps, 0);
    assert!(report.to_json().contains("\"tg_polls\":"));
    assert!(report.render().contains("ni_sleeps=0"));
}
