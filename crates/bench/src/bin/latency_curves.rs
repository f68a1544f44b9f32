//! **Latency–throughput curves** — the canonical NoC evaluation the
//! paper's 6-switch setup never produced: for each (scenario,
//! topology), ramp the offered load to saturation, bisect the
//! saturation point, and emit the classic latency-vs-offered-load
//! curve with windowed steady-state statistics.
//!
//! ```text
//! cargo run --release -p nocem-bench --bin latency_curves
//! cargo run --release -p nocem-bench --bin latency_curves -- --smoke
//! ```
//!
//! The default sweep runs uniform_random / transpose / tornado on
//! mesh4x4, mesh8x8 and torus8x8 — nine curves. Every point runs
//! **clock-gated**, and the 8×8 topologies run on the **compiled
//! engine**. Neither changes a single measured value (the ledger is
//! proven identical across modes and engines); they only change how
//! fast the sweep finishes. Results land in
//! `results/latency_curves.csv`.
//!
//! Every point runs with **windowed telemetry** enabled (W = 1024),
//! so besides `latency_curves.csv` the sweep emits
//! `results/link_heat.csv` — the per-point top-k most-blocked links
//! that localize each curve's bottleneck.
//!
//! `--smoke` (the CI configuration) runs the mesh4x4 uniform_random
//! curve with the coarse ramp only and asserts that the search
//! terminates, that accepted throughput is monotone non-decreasing
//! below the saturation point, that the hottest link of the
//! saturated point crosses a bisection of the mesh, and that the
//! telemetry overhead stays under the CI bound (typical overhead at
//! W = 1024 is under 5%; CI asserts ≤ 25% to absorb shared-runner
//! noise), timed in on-CPU time by [`nocem_bench::time_steps`].

use nocem::clock::ClockMode;
use nocem::config::EngineKind;
use nocem::{AnyEngine, SteppableEngine};
use nocem_bench::time_steps;
use nocem_common::table::{Align, TextTable};
use nocem_curves::measure::MeasureConfig;
use nocem_curves::runner::{run_curve_specs, CurveSetOutcome};
use nocem_curves::search::{Curve, CurveSpec, SearchConfig};
use nocem_scenarios::registry::ScenarioRegistry;
use nocem_scenarios::scenario::TopologySpec;
use nocem_telemetry::TelemetryConfig;

/// Warm-up and measured cycles of every point.
const MEASURE: MeasureConfig = MeasureConfig {
    warmup_cycles: 2_048,
    measure_cycles: 8_192,
};

/// The smoke's topology and the first curve's.
const MESH4X4: TopologySpec = TopologySpec::Mesh {
    width: 4,
    height: 4,
};

/// Telemetry overhead bound the CI smoke asserts. The typical
/// overhead of W = 1024 windowed probing is under 5% (one
/// counters-snapshot every 1024 cycles); the asserted bound is far
/// looser because shared CI runners time noisily.
const SMOKE_OVERHEAD_BOUND: f64 = 0.25;

/// Asserts the paper-classic localization result: on a mesh under
/// uniform-random traffic past saturation, the most-blocked link is an
/// inter-switch link crossing a bisection of the grid (for XY routing
/// the vertical cut, where every x-traversal funnels through).
fn assert_top_link_crosses_bisection(curve: &Curve) {
    let topo = curve.topology.build().expect("mesh builds");
    let grid = topo.grid().expect("mesh carries grid metadata").clone();
    let point = curve.points.last().expect("measured points");
    assert!(point.saturated, "the ramp must end on a saturated point");
    let tel = point
        .measurement
        .telemetry
        .as_ref()
        .expect("smoke runs with telemetry on");
    let hot = tel.hottest().expect("a saturated mesh blocks somewhere");
    let link = topo.link(hot.link);
    let (a, b) = match (link.from_switch(), link.to_switch()) {
        (Some(a), Some(b)) => (a, b),
        _ => panic!("hottest link {} is not inter-switch", hot.link),
    };
    let (ax, ay) = grid.coords(a);
    let (bx, by) = grid.coords(b);
    let crosses_x = (ax < grid.width / 2) != (bx < grid.width / 2);
    let crosses_y = (ay < grid.height / 2) != (by < grid.height / 2);
    assert!(
        crosses_x || crosses_y,
        "hottest link s{}({ax},{ay})->s{}({bx},{by}) does not cross a bisection",
        a.raw(),
        b.raw(),
    );
    println!(
        "smoke OK: hottest link s{}->s{} crosses the bisection \
         (blocked {} cycles, rate {:.3})",
        a.raw(),
        b.raw(),
        hot.blocked,
        hot.rate()
    );
}

/// Measures the overhead of W = 1024 windowed telemetry on one
/// mesh4x4 load point — the median on-CPU speed of 5 stretches of
/// 32 768 cycles each way, the two engines' stretches alternating
/// (off then on, then on then off, …) so that neither always runs
/// first — and asserts it stays under [`SMOKE_OVERHEAD_BOUND`].
fn assert_overhead_under_bound() {
    let base_cfg = ScenarioRegistry::builtin()
        .resolve("uniform_random")
        .expect("builtin scenario")
        .build_config(MESH4X4, 0.30, 4, 1_000_000)
        .expect("uniform_random applies to mesh4x4");
    let mut telemetry_cfg = base_cfg.clone();
    telemetry_cfg.telemetry = Some(TelemetryConfig::windowed(1024));
    let mut engines =
        [&base_cfg, &telemetry_cfg].map(|cfg| AnyEngine::build(cfg).expect("point builds"));
    let mut speeds = [Vec::new(), Vec::new()];
    for round in 0..5 {
        let order = if round % 2 == 0 { [0, 1] } else { [1, 0] };
        for k in order {
            let timing = time_steps(&mut engines[k], 32_768, 1).expect("timing");
            speeds[k].push(timing.median);
        }
    }
    for engine in &engines {
        assert!(engine.delivered() > 0, "the timed point delivers packets");
    }
    let [off, on] = speeds.map(|mut s| {
        s.sort_by(f64::total_cmp);
        s[s.len() / 2]
    });
    let overhead = off / on - 1.0;
    println!(
        "smoke: telemetry overhead at W=1024: {:.1}% (off {off:.0}, on {on:.0} cycles per on-CPU second; bound {:.0}%)",
        overhead * 100.0,
        SMOKE_OVERHEAD_BOUND * 100.0
    );
    assert!(
        overhead <= SMOKE_OVERHEAD_BOUND,
        "telemetry overhead {:.1}% exceeds the {:.0}% CI bound",
        overhead * 100.0,
        SMOKE_OVERHEAD_BOUND * 100.0
    );
}

/// The CI smoke configuration: mesh4x4 uniform_random, coarse ramp
/// only, telemetry on. Asserts the controller's two load-bearing
/// promises plus the observability ones (bisection bottleneck,
/// bounded overhead).
fn smoke() {
    let registry = ScenarioRegistry::builtin();
    let spec = CurveSpec {
        measure: MeasureConfig {
            warmup_cycles: 512,
            measure_cycles: 2_048,
        },
        search: SearchConfig {
            bisect: false,
            ..SearchConfig::default()
        },
        telemetry: Some(TelemetryConfig::windowed(256)),
        ..CurveSpec::new("uniform_random", MESH4X4)
    };
    let curve = spec.run(&registry).expect("smoke curve runs");
    println!(
        "smoke: {} points, saturation load {:.3} (found: {})",
        curve.points.len(),
        curve.saturation.saturation_load,
        curve.saturation.found
    );
    assert!(
        !curve.points.is_empty(),
        "saturation search must terminate with measured points"
    );
    // Below saturation, accepted throughput tracks offered load, so it
    // must grow with the ramp (a 0.01 flits/cycle/node allowance
    // absorbs stochastic-gap jitter, far below the 0.05 ramp step).
    let below: Vec<_> = curve
        .points
        .iter()
        .filter(|p| !p.saturated && p.load < curve.saturation.saturation_load)
        .collect();
    assert!(!below.is_empty(), "at least one stable point");
    for pair in below.windows(2) {
        assert!(
            pair[1].measurement.accepted >= pair[0].measurement.accepted - 0.01,
            "accepted throughput must be monotone non-decreasing below saturation: \
             {:.4} @ {:.2} -> {:.4} @ {:.2}",
            pair[0].measurement.accepted,
            pair[0].load,
            pair[1].measurement.accepted,
            pair[1].load,
        );
    }
    println!("smoke OK: monotone accepted throughput below saturation");
    assert_top_link_crosses_bisection(&curve);
    assert_overhead_under_bound();
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
        return;
    }

    let registry = ScenarioRegistry::builtin();
    let scenarios = ["uniform_random", "transpose", "tornado"];
    let topologies = [
        MESH4X4,
        TopologySpec::Mesh {
            width: 8,
            height: 8,
        },
        TopologySpec::Torus {
            width: 8,
            height: 8,
        },
    ];

    let mut specs = Vec::new();
    for scenario in scenarios {
        for topology in topologies {
            // Everything gated, the 64-switch topologies compiled.
            let engine = match topology {
                TopologySpec::Mesh { width: 8, .. } | TopologySpec::Torus { width: 8, .. } => {
                    EngineKind::Compiled
                }
                _ => EngineKind::SingleThread,
            };
            specs.push(CurveSpec {
                engine,
                clock_mode: ClockMode::Gated,
                measure: MEASURE,
                telemetry: Some(TelemetryConfig::windowed(1024)),
                ..CurveSpec::new(scenario, topology)
            });
        }
    }

    let threads = std::thread::available_parallelism().map_or(2, usize::from);
    let curves = run_curve_specs(&registry, &specs, threads).expect("curve sweep runs");

    let mut table = TextTable::with_columns(&[
        "curve",
        "shards",
        "points",
        "saturation load",
        "accepted@stable",
        "zero-load latency",
        "hottest link",
    ]);
    table.title("Latency-throughput curves — saturation summary".to_string());
    for c in 1..6 {
        table.align(c, Align::Right);
    }
    for curve in &curves {
        let s = &curve.saturation;
        table.row(vec![
            curve.label(),
            curve.shards.to_string(),
            curve.points.len().to_string(),
            if s.found {
                format!("{:.3}", s.saturation_load)
            } else {
                format!(">{:.3}", s.saturation_load)
            },
            format!("{:.3}", s.accepted_at_stable),
            s.zero_load_latency
                .map_or_else(|| "-".into(), |l| format!("{l:.1}")),
            hottest_link_name(curve),
        ]);
    }
    println!("{table}");

    let outcome = CurveSetOutcome {
        curves,
        skipped: Vec::new(),
    };
    let path = nocem_bench::save_csv("latency_curves.csv", &outcome.to_csv());
    println!("data written to {}", path.display());
    let heat_path = nocem_bench::save_csv("link_heat.csv", &outcome.link_heat_csv());
    println!("link heat written to {}", heat_path.display());
    let accepted_path = nocem_bench::save_csv("latency_accepted.csv", &outcome.to_accepted_csv());
    println!(
        "latency-vs-accepted plot data written to {}",
        accepted_path.display()
    );
}

/// The most-blocked link of a curve's highest-load point, rendered
/// `s<a>-><b>` (`-` when telemetry was off or nothing blocked).
fn hottest_link_name(curve: &Curve) -> String {
    let hot = curve
        .points
        .last()
        .and_then(|p| p.measurement.telemetry.as_ref())
        .and_then(|t| t.hottest());
    let (Some(hot), Ok(topo)) = (hot, curve.topology.build()) else {
        return "-".into();
    };
    let link = topo.link(hot.link);
    match (link.from_switch(), link.to_switch()) {
        (Some(a), Some(b)) => format!("{a}->{b}"),
        _ => hot.link.to_string(),
    }
}
