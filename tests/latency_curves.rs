//! Integration tests of the latency–throughput curve subsystem:
//! deterministic saturation search, lockstep equivalence of gated
//! compiled curves with the ungated interpreted baseline, the
//! track-then-plateau shape of accepted throughput, and the
//! well-formedness of the checked-in `results/latency_curves.csv`.

use nocem::clock::ClockMode;
use nocem::config::EngineKind;
use nocem_common::csv::CsvDocument;
use nocem_curves::measure::MeasureConfig;
use nocem_curves::search::{CurveSpec, SearchConfig};
use nocem_scenarios::registry::ScenarioRegistry;
use nocem_scenarios::scenario::TopologySpec;

fn mesh4x4() -> TopologySpec {
    TopologySpec::Mesh {
        width: 4,
        height: 4,
    }
}

/// Debug-friendly windows: long enough for stable statistics on a
/// 4×4 mesh, short enough for unoptimized builds.
fn quick_measure() -> MeasureConfig {
    MeasureConfig {
        warmup_cycles: 512,
        measure_cycles: 2_048,
    }
}

#[test]
fn mesh4x4_uniform_saturation_is_reproducible() {
    let registry = ScenarioRegistry::builtin();
    let spec = CurveSpec {
        measure: quick_measure(),
        search: SearchConfig {
            tolerance: 0.02,
            ..SearchConfig::default()
        },
        ..CurveSpec::new("uniform_random", mesh4x4())
    };
    let first = spec.run(&registry).unwrap();
    let second = spec.run(&registry).unwrap();
    // Fixed seeds: the two searches measure identical points and
    // locate the identical saturation load — which in particular puts
    // them within the bisection tolerance of each other.
    assert_eq!(first, second);
    assert!(
        (first.saturation.saturation_load - second.saturation.saturation_load).abs()
            <= spec.search.tolerance
    );
    let s = &first.saturation;
    assert!(s.found, "uniform random on a mesh must saturate");
    assert!(
        s.saturation_load > 0.30 && s.saturation_load < 0.80,
        "mesh4x4 uniform_random saturation {:.3} outside the plausible band",
        s.saturation_load
    );
    // The final bracket honours the tolerance.
    let hi = s.saturated_load.unwrap();
    assert!(hi - s.stable_load <= spec.search.tolerance + 1e-12);
    assert!(s.stable_load < s.saturation_load && s.saturation_load < hi);
}

#[test]
fn gated_compiled_curve_is_identical_to_ungated_single_threaded() {
    let registry = ScenarioRegistry::builtin();
    let baseline_spec = CurveSpec {
        clock_mode: ClockMode::EveryCycle,
        engine: EngineKind::SingleThread,
        measure: quick_measure(),
        search: SearchConfig {
            start_load: 0.1,
            step: 0.2,
            tolerance: 0.05,
            ..SearchConfig::default()
        },
        ..CurveSpec::new("uniform_random", mesh4x4())
    };
    let fast_spec = CurveSpec {
        clock_mode: ClockMode::Gated,
        engine: EngineKind::Compiled,
        ..baseline_spec.clone()
    };
    let baseline = baseline_spec.run(&registry).unwrap();
    let fast = fast_spec.run(&registry).unwrap();
    // Same measured points, same classifications, same saturation —
    // the engine and the clock mode change wall clock only. (`behavioral`
    // clears the cycles-skipped machinery counter, the one intended
    // difference.)
    assert_eq!(fast.behavioral(), baseline.behavioral());
    assert_eq!(fast.saturation, baseline.saturation);
    // The gated run really did skip cycles at the low-load end.
    assert!(
        fast.points.iter().any(|p| p.measurement.cycles_skipped > 0),
        "gated low-load points must skip cycles"
    );
}

#[test]
fn accepted_throughput_tracks_offered_then_plateaus() {
    let registry = ScenarioRegistry::builtin();
    let spec = CurveSpec {
        measure: quick_measure(),
        ..CurveSpec::new("uniform_random", mesh4x4())
    };
    let curve = spec.run(&registry).unwrap();
    let sat = curve.saturation.saturation_load;
    let shortfall = spec.search.accepted_shortfall;
    let mut stable = 0;
    let mut saturated_accepted = Vec::new();
    for p in &curve.points {
        if p.load < sat {
            assert!(
                !p.saturated,
                "point at {:.3} below saturation {:.3} classified saturated",
                p.load, sat
            );
            assert!(
                p.measurement.accepted >= (1.0 - shortfall) * p.load,
                "accepted {:.4} at load {:.3} does not track offered",
                p.measurement.accepted,
                p.load
            );
            stable += 1;
        } else {
            assert!(
                p.saturated,
                "point at {:.3} past saturation {:.3}",
                p.load, sat
            );
            saturated_accepted.push(p.measurement.accepted);
        }
    }
    assert!(stable >= 2, "need a ramp below saturation");
    assert!(!saturated_accepted.is_empty());
    // Plateau: accepted throughput past saturation stays in a narrow
    // band — it neither keeps climbing with offered load nor
    // collapses (wormhole backpressure, no drops).
    let lo = saturated_accepted.iter().copied().fold(f64::MAX, f64::min);
    let hi = saturated_accepted.iter().copied().fold(0.0f64, f64::max);
    assert!(
        hi - lo <= 0.25 * hi,
        "saturated accepted throughput spans {lo:.4}..{hi:.4} — not a plateau"
    );
    assert!(
        hi <= curve.saturation.accepted_at_stable * 1.25,
        "plateau {hi:.4} should sit near the last stable accepted \
         {:.4}",
        curve.saturation.accepted_at_stable
    );
}

#[test]
fn checked_in_curves_csv_covers_the_grid_and_tracks_offered_load() {
    let text = std::fs::read_to_string("results/latency_curves.csv")
        .expect("results/latency_curves.csv is checked in");
    let doc = CsvDocument::parse(&text).expect("well-formed CSV");
    let col = |name: &str| doc.column(name).unwrap_or_else(|| panic!("column {name}"));
    let (c_scenario, c_topology) = (col("scenario"), col("topology"));
    let c_load = col("load");
    let c_saturated = col("saturated");
    let c_offered = col("offered_flits_per_cycle_node");
    let c_accepted = col("accepted_flits_per_cycle_node");
    let c_occupancy = col("max_vc_occupancy");
    let c_top_link = col("top_link");
    let c_top_rate = col("top_link_rate");
    // Plot-ready ordering: accepted throughput sits immediately left
    // of the latency block.
    assert_eq!(c_accepted + 1, col("mean_network_latency"));

    use std::collections::{BTreeMap, BTreeSet};
    /// Per-curve accumulator: unsaturated (offered, accepted) pairs
    /// and saturated accepted values.
    type CurveRows = (Vec<(f64, f64)>, Vec<f64>);
    let mut scenarios = BTreeSet::new();
    let mut topologies = BTreeSet::new();
    let mut curves: BTreeMap<(String, String), CurveRows> = BTreeMap::new();
    for rec in &doc.records {
        scenarios.insert(rec[c_scenario].clone());
        topologies.insert(rec[c_topology].clone());
        let key = (rec[c_scenario].clone(), rec[c_topology].clone());
        let offered: f64 = rec[c_offered].parse().unwrap();
        let accepted: f64 = rec[c_accepted].parse().unwrap();
        let _load: f64 = rec[c_load].parse().unwrap();
        let _occ: u64 = rec[c_occupancy].parse().unwrap();
        let entry = curves.entry(key).or_default();
        match rec[c_saturated].as_str() {
            "false" => entry.0.push((offered, accepted)),
            "true" => {
                entry.1.push(accepted);
                // The regenerated data ran with telemetry on: every
                // saturated point localizes its bottleneck link.
                assert!(
                    rec[c_top_link].contains("->"),
                    "saturated point without a bottleneck link: {rec:?}"
                );
                let rate: f64 = rec[c_top_rate].parse().unwrap();
                assert!((0.0..=1.0).contains(&rate));
            }
            other => panic!("bad saturated flag {other}"),
        }
    }
    assert!(scenarios.len() >= 3, "≥3 scenarios, got {scenarios:?}");
    assert!(topologies.len() >= 3, "≥3 topologies, got {topologies:?}");
    assert!(curves.len() >= 9, "full grid, got {} curves", curves.len());

    for ((scenario, topology), (unsat, sat_accepted)) in &curves {
        assert!(!unsat.is_empty(), "{scenario}@{topology}: no stable points");
        // Below saturation accepted tracks offered (the generation-time
        // classifier enforces a 15% shortfall bound; 20% here leaves
        // room for future regeneration with different windows).
        for &(offered, accepted) in unsat {
            assert!(
                accepted >= 0.80 * offered,
                "{scenario}@{topology}: accepted {accepted:.4} strays from offered \
                 {offered:.4}"
            );
        }
        // Above saturation accepted plateaus in a narrow band (skipped
        // for curves that never saturated in the swept range).
        if sat_accepted.len() >= 2 {
            let lo = sat_accepted.iter().copied().fold(f64::MAX, f64::min);
            let hi = sat_accepted.iter().copied().fold(0.0f64, f64::max);
            assert!(
                hi - lo <= 0.30 * hi,
                "{scenario}@{topology}: saturated accepted spans {lo:.4}..{hi:.4}"
            );
        }
    }
    // The per-curve saturation summaries are present.
    assert!(text.contains("# saturation uniform_random@"));
}

#[test]
fn checked_in_link_heat_csv_ranks_blocked_links_per_point() {
    let text = std::fs::read_to_string("results/link_heat.csv")
        .expect("results/link_heat.csv is checked in");
    let doc = CsvDocument::parse(&text).expect("well-formed CSV");
    let col = |name: &str| doc.column(name).unwrap_or_else(|| panic!("column {name}"));
    let (c_scenario, c_topology, c_load) = (col("scenario"), col("topology"), col("load"));
    let (c_rank, c_link, c_blocked) = (col("rank"), col("link"), col("blocked_cycles"));
    assert!(
        !doc.records.is_empty(),
        "telemetry-enabled sweep emits heat"
    );
    let mut prev: Option<(String, u64)> = None;
    for rec in &doc.records {
        assert!(rec[c_link].contains("->"), "resolved link name: {rec:?}");
        let rank: u64 = rec[c_rank].parse().unwrap();
        let blocked: u64 = rec[c_blocked].parse().unwrap();
        let point = format!("{}@{}@{}", rec[c_scenario], rec[c_topology], rec[c_load]);
        // Within one point, rows are rank-ordered and blocked counts
        // descend; rank resets to 0 at every new point.
        match &prev {
            Some((p, prev_blocked)) if *p == point => {
                assert!(rank > 0, "rank must advance within {point}");
                assert!(blocked <= *prev_blocked, "heat must descend within {point}");
            }
            _ => assert_eq!(rank, 0, "first row of {point} must be rank 0"),
        }
        prev = Some((point, blocked));
    }
}
