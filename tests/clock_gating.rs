//! Gated-vs-ungated equivalence: `ClockMode::Gated` must be
//! cycle-equivalent to `ClockMode::EveryCycle` — same deliveries at
//! the same cycles, same packet ledger, same results — on every
//! engine, while actually skipping a large share of cycles at low
//! load.
//!
//! Each gated engine steps in lockstep with an ungated twin that
//! shadow-steps to the same cycle after every gated step (the shared
//! harness in `support`), so divergence is pinpointed to the exact
//! cycle, not discovered at end of run.

mod support;

use nocem::clock::{run_engine, run_engine_with_progress, ClockMode, SteppableEngine};
use nocem::config::{PaperConfig, PlatformConfig};
use nocem::engine::build;
use nocem::error::EmulationError;
use nocem::profile::ProfileConfig;
use nocem::shard_compiled::DEFAULT_BATCH;
use support::{
    lockstep, mesh, retraffic, ring, scenario, subject, torus, uniform_random, Backend, Traffic,
};

const BACKENDS: [Backend; 5] = [
    Backend::Emulation,
    Backend::Tlm,
    Backend::Rtl,
    Backend::DirectCompiled,
    Backend::Sharded(2, DEFAULT_BATCH),
];

fn with_mode(cfg: &PlatformConfig, mode: ClockMode) -> PlatformConfig {
    cfg.clone().with_clock_mode(mode)
}

/// Every engine gated against its own ungated twin. The gated twin runs
/// profiled (profiling is behaviour-free), so the jumps it took can be
/// checked against the cycles it skipped. Returns the cycles the gated
/// interpreted engine skipped, for the caller's skip-fraction
/// assertions.
fn gated_against_ungated(cfg: &PlatformConfig) -> u64 {
    let profiled = Some(ProfileConfig::default());
    let gated_cfg = with_mode(cfg, ClockMode::Gated).with_profile(profiled);
    let skipped = BACKENDS.map(|backend| {
        let mut gated = [subject(&gated_cfg, backend)];
        let ungated = &mut subject(&with_mode(cfg, ClockMode::EveryCycle), backend);
        lockstep(ungated, &mut gated);
        let [gated] = &mut gated;
        let skipped = gated.engine.cycles_skipped();
        let jumps = gated.engine.profile().expect("profiled").work.fast_forwards;
        assert_eq!(
            jumps > 0,
            skipped > 0,
            "{}: {jumps} jumps counted beside {skipped} skipped cycles",
            gated.name
        );
        skipped
    });
    skipped[0]
}

#[test]
fn gated_matches_ungated_on_ring8() {
    for load in [0.05, 0.40] {
        let skipped = gated_against_ungated(&uniform_random(ring(8), load, 160));
        if load < 0.1 {
            assert!(skipped > 0, "low load must allow some skipping");
        }
    }
}

#[test]
fn gated_matches_ungated_on_mesh4x4() {
    for load in [0.05, 0.40] {
        gated_against_ungated(&uniform_random(mesh(4, 4), load, 160));
    }
}

#[test]
fn gated_matches_ungated_on_torus4x4() {
    for load in [0.05, 0.40] {
        gated_against_ungated(&uniform_random(torus(4, 4), load, 160));
    }
}

#[test]
fn gated_matches_ungated_on_paper_burst_traffic() {
    // Burst TGs predraw their idle-phase Bernoulli runs into the
    // cooldown, so gated runs can skip the gaps between bursts — and
    // must stay exact while doing so.
    let cfg = PaperConfig::new().total_packets(200).burst(8);
    gated_against_ungated(&cfg);
}

#[test]
fn gated_burst_low_load_actually_skips_idle_phases() {
    // With predrawn gaps a low-load burst run must jump its long idle
    // phases instead of pinning the clock on every eligible cycle.
    let cfg = retraffic(
        uniform_random(ring(8), 0.05, 160),
        Traffic::Trains { start: 0.01 },
    );
    let skipped = gated_against_ungated(&cfg);
    assert!(skipped > 0, "burst idle phases were not skipped");
}

/// The acceptance criterion for the gating win: a 5 %-load
/// uniform-random run skips at least half of its cycles in gated
/// mode — and the gated results equal the ungated ones exactly.
#[test]
fn gated_low_load_skips_majority_of_cycles() {
    // 8-flit packets at 5 % load: a packet leaves each TG only every
    // ~160 cycles, so the ring is empty most of the time and the
    // fast-forward kernel jumps the gaps.
    let cfg = scenario("uniform_random", ring(8), 0.05, 8, 400);
    // Identical ledgers and results apart from the skip counter itself.
    let gated_cfg = with_mode(&cfg, ClockMode::Gated);
    let mut gated = [subject(&gated_cfg, Backend::Emulation)];
    lockstep(&mut subject(&cfg, Backend::Emulation), &mut gated);
    let results = gated[0].engine.all_results();
    assert_eq!(results.cycles_skipped, gated[0].engine.cycles_skipped());

    let fraction = results.cycles_skipped as f64 / results.cycles as f64;
    assert!(
        fraction >= 0.5,
        "5%-load uniform-random run skipped only {:.1}% of {} cycles",
        fraction * 100.0,
        results.cycles
    );
    assert!(
        results.gating_speedup() >= 2.0,
        "effective speedup {:.2}",
        results.gating_speedup()
    );
}

/// The progress callback keeps its promised granularity even when the
/// clock jumps across one or more reporting boundaries.
#[test]
fn progress_granularity_survives_clock_jumps() {
    let cfg = with_mode(&uniform_random(ring(8), 0.05, 200), ClockMode::Gated);
    let interval = 64u64;
    let mut emu = build(&cfg).unwrap();
    let mut reports: Vec<(u64, u64)> = Vec::new();
    run_engine_with_progress(&mut emu, interval, |cycle, delivered| {
        reports.push((cycle.raw(), delivered));
    })
    .unwrap();
    assert!(
        emu.cycles_skipped() > interval,
        "run must actually jump across boundaries"
    );
    // One report per boundary the run crossed, each exactly on it.
    assert_eq!(reports.len() as u64, emu.now().raw() / interval);
    for (i, &(cycle, _)) in reports.iter().enumerate() {
        assert_eq!(cycle, (i as u64 + 1) * interval, "boundary missed");
    }
    // Delivered counts are monotone (they are snapshots of one run).
    assert!(reports.windows(2).all(|w| w[0].1 <= w[1].1));
}

/// The cycle limit fires on exactly the same cycle with the same
/// delivered count whether or not the clock is gated.
#[test]
fn cycle_limit_fires_identically_under_gating() {
    // Far fewer deliverable packets than the stop target: the run
    // drains, goes fully quiescent and then idles into the limit.
    let mut cfg = uniform_random(ring(8), 0.05, 50);
    cfg.stop.delivered_packets = Some(1_000_000);
    cfg.stop.cycle_limit = 20_000;

    // The error carries the limit and the delivered count.
    let run = |mode: ClockMode| {
        let mut emu = build(&with_mode(&cfg, mode)).unwrap();
        let err = run_engine(&mut emu).unwrap_err();
        (err, emu.now().raw(), emu.delivered())
    };
    let ungated = run(ClockMode::EveryCycle);
    assert!(matches!(
        ungated.0,
        EmulationError::CycleLimitExceeded { .. }
    ));
    assert_eq!(
        run(ClockMode::Gated),
        ungated,
        "the limit fires on the same cycle"
    );
}

/// `run_engine` drives any engine through the trait object — the
/// "written once" property the refactor is for.
#[test]
fn run_engine_is_engine_agnostic() {
    let cfg = uniform_random(mesh(2, 2), 0.2, 60);
    let mut summaries = Vec::new();
    for backend in BACKENDS {
        let mut engine = subject(&cfg, backend).engine;
        run_engine(engine.as_mut()).unwrap();
        summaries.push(engine.summary());
    }
    for other in &summaries[1..] {
        assert_eq!(&summaries[0], other);
    }
    assert_eq!(summaries[0].delivered, 60);
}
