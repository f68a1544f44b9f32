//! The parallel curve runner: many curves, one CSV.
//!
//! [`CurveSetSpec`] names a `scenarios × topologies` grid of curves;
//! [`CurveSetSpec::expand`] pre-binds each combination (inapplicable
//! ones — transpose on a ring, core graphs on tiny topologies — are
//! skipped by the scenario matrix's own rule, [`is_inapplicable`]),
//! and [`CurveSetSpec::run`] maps `nocem`'s one scheduler for grids of
//! runs ([`nocem::run_sweep_indexed`]) over the applicable curve specs
//! — one item per curve, since the points *within* a curve are
//! sequentially dependent (the adaptive search steers by its own
//! measurements).
//!
//! [`CurveSetOutcome::to_csv`] renders one record per (scenario,
//! topology, load point) plus a per-curve saturation summary comment.
//!
//! [`is_inapplicable`]: nocem_scenarios::ScenarioError::is_inapplicable

use crate::search::{Curve, CurveSpec};
use crate::CurveError;
use nocem::sweep::run_sweep_indexed;
use nocem_common::csv::CsvWriter;
use nocem_common::ids::LinkId;
use nocem_scenarios::registry::ScenarioRegistry;
use nocem_scenarios::scenario::TopologySpec;
use nocem_scenarios::SkippedPoint;
use nocem_topology::graph::{LinkEnd, Topology};

/// A `scenarios × topologies` grid of curves sharing one parameter
/// set.
#[derive(Debug, Clone)]
pub struct CurveSetSpec {
    /// Prototype carrying packet/measure/search/engine/clock
    /// parameters (its `scenario`/`topology` fields are ignored).
    pub prototype: CurveSpec,
    /// Registry names of the scenarios to sweep.
    pub scenarios: Vec<String>,
    /// Topologies to sweep each scenario on.
    pub topologies: Vec<TopologySpec>,
}

impl CurveSetSpec {
    /// Expands the grid into per-curve specs, separating inapplicable
    /// combinations into skips.
    ///
    /// # Errors
    ///
    /// Returns [`CurveError::Scenario`] for unknown scenario names
    /// (an inapplicable scenario × topology pair is a *skip*, not an
    /// error).
    pub fn expand(
        &self,
        registry: &ScenarioRegistry,
    ) -> Result<(Vec<CurveSpec>, Vec<SkippedPoint>), CurveError> {
        let mut specs = Vec::new();
        let mut skipped = Vec::new();
        for name in &self.scenarios {
            registry.resolve(name)?;
            for &topology in &self.topologies {
                let spec = CurveSpec {
                    scenario: name.clone(),
                    topology,
                    ..self.prototype.clone()
                };
                match spec.config_at(registry, spec.search.start_load) {
                    Ok(_) => specs.push(spec),
                    Err(CurveError::Scenario(reason)) if reason.is_inapplicable() => {
                        skipped.push(SkippedPoint {
                            label: spec.label(),
                            reason,
                        });
                    }
                    Err(other) => return Err(other),
                }
            }
        }
        Ok((specs, skipped))
    }

    /// Expands and runs the whole grid over up to `threads` workers.
    ///
    /// # Errors
    ///
    /// Returns the error of the first failing curve (by expansion
    /// order).
    pub fn run(
        &self,
        registry: &ScenarioRegistry,
        threads: usize,
    ) -> Result<CurveSetOutcome, CurveError> {
        let (specs, skipped) = self.expand(registry)?;
        let curves = run_curve_specs(registry, &specs, threads)?;
        Ok(CurveSetOutcome { curves, skipped })
    }
}

/// Runs every curve spec across up to `threads` workers
/// ([`nocem::run_sweep_indexed`]) and returns the curves in input
/// order. Duplicate specs are allowed — searches are deterministic, so
/// a duplicate simply reproduces the same curve.
///
/// # Errors
///
/// Returns the error of the first failing curve (by input order).
pub fn run_curve_specs(
    registry: &ScenarioRegistry,
    specs: &[CurveSpec],
    threads: usize,
) -> Result<Vec<Curve>, CurveError> {
    run_sweep_indexed(specs, threads, |_, spec| spec.run(registry))
}

/// All outcomes of one curve-set run.
#[derive(Debug)]
pub struct CurveSetOutcome {
    /// Executed curves, in expansion order.
    pub curves: Vec<Curve>,
    /// Combinations skipped as inapplicable.
    pub skipped: Vec<SkippedPoint>,
}

/// Formats an optional statistic, rendering `None` as `-` (a field a
/// numeric consumer can recognize and drop).
fn opt<T: std::fmt::Display>(v: Option<T>) -> String {
    v.map_or_else(|| "-".into(), |v| v.to_string())
}

/// Human-readable link name: `s3->s7` for inter-switch links,
/// `TG5->s5` / `s5->TR5` for injection/ejection links. Falls back to
/// the raw `l<id>` when the curve's topology cannot be rebuilt.
fn link_name(topo: Option<&Topology>, id: LinkId) -> String {
    let Some(t) = topo else {
        return id.to_string();
    };
    let l = t.link(id);
    let end = |e: LinkEnd| match e {
        LinkEnd::Switch { switch, .. } => switch.to_string(),
        LinkEnd::Endpoint(ep) => format!("{}{}", t.endpoint(ep).kind, ep.raw()),
    };
    format!("{}->{}", end(l.src), end(l.dst))
}

impl CurveSetOutcome {
    /// Renders the aggregated CSV: one record per (scenario,
    /// topology, load point), a saturation-summary comment per curve
    /// and a trailing comment per skipped combination.
    pub fn to_csv(&self) -> String {
        let mut csv = CsvWriter::new(&[
            "scenario",
            "topology",
            "shards",
            "clock_mode",
            "load",
            "phase",
            "saturated",
            "offered_flits_per_cycle_node",
            "packets_measured",
            "accepted_flits_per_cycle_node",
            "mean_network_latency",
            "p50_network_latency",
            "p95_network_latency",
            "p99_network_latency",
            "mean_total_latency",
            "max_vc_occupancy",
            "stalled_cycles",
            "cycles_skipped",
            "top_link",
            "top_link_blocked",
            "top_link_forwarded",
            "top_link_rate",
        ]);
        csv.comment(
            "nocem latency-throughput curves: one record per (scenario, topology, load) point",
        );
        csv.comment(
            "offered/accepted are per-node flits/cycle inside the steady-state measurement \
             window (warm-up discarded); latencies are windowed network-latency statistics \
             in cycles (p50/p95/p99 from the window histogram)",
        );
        csv.comment(
            "saturated: the adaptive controller's verdict (accepted shortfall vs offered, \
             or mean total latency past the zero-load multiple); max_vc_occupancy: highest \
             per-VC input-buffer fill any switch reached",
        );
        csv.comment(
            "accepted_flits_per_cycle_node is the latency-vs-accepted-throughput x-axis \
             and sits adjacent to the latency columns; top_link* name the most-blocked \
             link of the point's windowed telemetry (`-` when telemetry was off or \
             nothing blocked), with rate = blocked / (blocked + forwarded)",
        );
        for curve in &self.curves {
            let topo = curve.topology.build().ok();
            for p in &curve.points {
                let m = &p.measurement;
                let hot = m.telemetry.as_ref().and_then(|t| t.hottest());
                csv.record_display(&[
                    &curve.scenario,
                    &curve.topology.name(),
                    &curve.shards,
                    &clock_mode_name(curve.clock_mode),
                    &format_args!("{:.4}", p.load),
                    &p.phase.name(),
                    &p.saturated,
                    &format_args!("{:.4}", m.offered),
                    &m.packets_measured,
                    &format_args!("{:.4}", m.accepted),
                    &opt(m.mean_network_latency.map(|v| format!("{v:.2}"))),
                    &opt(m.p50),
                    &opt(m.p95),
                    &opt(m.p99),
                    &opt(m.mean_total_latency.map(|v| format!("{v:.2}"))),
                    &m.vc_occupancy.overall_max(),
                    &m.stalled_cycles,
                    &m.cycles_skipped,
                    &opt(hot.map(|l| link_name(topo.as_ref(), l.link))),
                    &opt(hot.map(|l| l.blocked)),
                    &opt(hot.map(|l| l.forwarded)),
                    &opt(hot.map(|l| format!("{:.4}", l.rate()))),
                ]);
            }
            let s = &curve.saturation;
            if s.found {
                csv.comment(&format!(
                    "saturation {}: load={:.4} (bracket {:.4}..{:.4}); zero-load total \
                     latency {}; accepted at stable load {:.4} flits/cycle/node",
                    curve.label(),
                    s.saturation_load,
                    s.stable_load,
                    s.saturated_load.unwrap_or(f64::NAN),
                    opt(s.zero_load_latency.map(|v| format!("{v:.2}"))),
                    s.accepted_at_stable,
                ));
            } else {
                csv.comment(&format!(
                    "saturation {}: none found up to load {:.4} (accepted tracks offered \
                     throughout)",
                    curve.label(),
                    s.saturation_load,
                ));
            }
        }
        for s in &self.skipped {
            csv.comment(&format!("skipped {}: {}", s.label, s.reason));
        }
        csv.finish()
    }

    /// Renders the per-link congestion heat map: one record per
    /// (curve, load point, top-k link) for every telemetry-enabled
    /// point — the localization data behind the `top_link` summary
    /// column. Points measured without telemetry contribute nothing.
    pub fn link_heat_csv(&self) -> String {
        let mut csv = CsvWriter::new(&[
            "scenario",
            "topology",
            "load",
            "phase",
            "saturated",
            "rank",
            "link",
            "blocked_cycles",
            "forwarded_flits",
            "blocked_rate",
        ]);
        csv.comment(
            "per-point link heat: the most-blocked links of every telemetry-enabled load \
             point, ranked by lifetime blocked cycles (rank 0 = hottest); links are named \
             src->dst (s = switch, TG/TR = generator/receptor endpoints)",
        );
        for curve in &self.curves {
            let topo = curve.topology.build().ok();
            for p in &curve.points {
                let Some(t) = &p.measurement.telemetry else {
                    continue;
                };
                for (rank, l) in t.top_links.iter().enumerate() {
                    csv.record_display(&[
                        &curve.scenario,
                        &curve.topology.name(),
                        &format_args!("{:.4}", p.load),
                        &p.phase.name(),
                        &p.saturated,
                        &rank,
                        &link_name(topo.as_ref(), l.link),
                        &l.blocked,
                        &l.forwarded,
                        &format_args!("{:.4}", l.rate()),
                    ]);
                }
            }
        }
        csv.finish()
    }

    /// Renders the textbook latency-vs-**accepted**-throughput plot
    /// data: per curve, one record per load point ordered by accepted
    /// throughput (the plot's x-axis), keeping only the plot columns.
    /// Past saturation the offered load keeps rising while accepted
    /// throughput stalls or folds back, so plotting against accepted
    /// (instead of offered) is what makes the characteristic vertical
    /// latency wall visible; points are re-sorted because that
    /// fold-back makes accepted non-monotone in offered load.
    pub fn to_accepted_csv(&self) -> String {
        let mut csv = CsvWriter::new(&[
            "scenario",
            "topology",
            "shards",
            "clock_mode",
            "accepted_flits_per_cycle_node",
            "mean_network_latency",
            "p50_network_latency",
            "p95_network_latency",
            "p99_network_latency",
            "mean_total_latency",
            "offered_flits_per_cycle_node",
            "saturated",
        ]);
        csv.comment(
            "latency vs ACCEPTED throughput (the textbook plot axis): records are \
             ordered by accepted throughput within each curve, so a plotter can draw \
             the latency wall directly; offered load is carried for reference",
        );
        for curve in &self.curves {
            let mut points: Vec<_> = curve.points.iter().collect();
            points.sort_by(|a, b| {
                a.measurement
                    .accepted
                    .total_cmp(&b.measurement.accepted)
                    .then(a.load.total_cmp(&b.load))
            });
            for p in points {
                let m = &p.measurement;
                csv.record_display(&[
                    &curve.scenario,
                    &curve.topology.name(),
                    &curve.shards,
                    &clock_mode_name(curve.clock_mode),
                    &format_args!("{:.4}", m.accepted),
                    &opt(m.mean_network_latency.map(|v| format!("{v:.2}"))),
                    &opt(m.p50),
                    &opt(m.p95),
                    &opt(m.p99),
                    &opt(m.mean_total_latency.map(|v| format!("{v:.2}"))),
                    &format_args!("{:.4}", m.offered),
                    &p.saturated,
                ]);
            }
        }
        csv.finish()
    }
}

/// Stable lowercase clock-mode name for the CSV.
fn clock_mode_name(mode: nocem::ClockMode) -> &'static str {
    match mode {
        nocem::ClockMode::EveryCycle => "every_cycle",
        nocem::ClockMode::Gated => "gated",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::MeasureConfig;
    use crate::search::SearchConfig;
    use nocem_common::csv::CsvDocument;
    use nocem_scenarios::ScenarioError;

    fn quick_prototype() -> CurveSpec {
        CurveSpec {
            measure: MeasureConfig {
                warmup_cycles: 128,
                measure_cycles: 512,
            },
            search: SearchConfig {
                start_load: 0.2,
                step: 0.4,
                max_load: 0.8,
                bisect: false,
                ..SearchConfig::default()
            },
            ..CurveSpec::new(
                "uniform_random",
                TopologySpec::Mesh {
                    width: 2,
                    height: 2,
                },
            )
        }
    }

    #[test]
    fn matrix_and_curve_set_skip_the_same_pairs_alike() {
        use nocem_scenarios::MatrixSpec;
        let registry = ScenarioRegistry::builtin();
        let (ring8, mesh8x2, torus3x3) = (
            TopologySpec::Ring { switches: 8 },
            TopologySpec::Mesh {
                width: 8,
                height: 2,
            },
            TopologySpec::Torus {
                width: 3,
                height: 3,
            },
        );
        let prototype = quick_prototype();
        let scenarios: Vec<String> = ["transpose", "bit_complement", "bit_reversal", "vopd"]
            .map(String::from)
            .to_vec();
        let topologies = vec![mesh8x2, ring8, torus3x3];
        let matrix = MatrixSpec {
            scenarios: scenarios.clone(),
            topologies: topologies.clone(),
            loads: vec![prototype.search.start_load],
            packet_flits: prototype.packet_flits,
            packets_per_point: 1_000_000,
            clock_mode: prototype.clock_mode,
        };
        let set = CurveSetSpec {
            prototype,
            scenarios,
            topologies,
        };
        let (points, matrix_skips) = matrix.expand(&registry).unwrap();
        let (specs, curve_skips) = set.expand(&registry).unwrap();
        // A matrix label also names the load; a curve spans loads.
        let pair = |label: &str| label.rsplit_once('@').unwrap().0.to_owned();
        let matrix_skips: Vec<_> = matrix_skips
            .into_iter()
            .map(|s| (pair(&s.label), s.reason))
            .collect();
        let curve_skips: Vec<_> = curve_skips
            .into_iter()
            .map(|s| (s.label, s.reason))
            .collect();
        assert_eq!(matrix_skips, curve_skips);
        let ran: Vec<String> = points.iter().map(|p| pair(&p.label)).collect();
        assert_eq!(ran, specs.iter().map(CurveSpec::label).collect::<Vec<_>>());
        let skipped: Vec<&str> = curve_skips.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(
            skipped,
            [
                "transpose@mesh8x2",
                "transpose@ring8",
                "bit_complement@torus3x3",
                "bit_reversal@torus3x3",
                "vopd@ring8",
                "vopd@torus3x3",
            ]
        );
        for (label, reason) in &curve_skips {
            let mapping = label.starts_with("vopd");
            assert!(
                matches!(reason, ScenarioError::Mapping { .. }) == mapping
                    && matches!(reason, ScenarioError::NotApplicable { .. }) != mapping,
                "{label}: {reason}"
            );
        }
    }

    #[test]
    fn grid_expansion_separates_skips() {
        let registry = ScenarioRegistry::builtin();
        let set = CurveSetSpec {
            prototype: quick_prototype(),
            scenarios: vec!["tornado".into(), "transpose".into()],
            topologies: vec![
                TopologySpec::Mesh {
                    width: 2,
                    height: 2,
                },
                TopologySpec::Ring { switches: 4 },
            ],
        };
        let (specs, skipped) = set.expand(&registry).unwrap();
        assert_eq!(specs.len(), 3, "transpose@ring4 is inapplicable");
        assert_eq!(skipped.len(), 1);
        assert!(skipped[0].label.starts_with("transpose@ring4"));
    }

    #[test]
    fn unknown_scenario_is_a_hard_error() {
        let registry = ScenarioRegistry::builtin();
        let set = CurveSetSpec {
            prototype: quick_prototype(),
            scenarios: vec!["warp_drive".into()],
            topologies: vec![TopologySpec::Ring { switches: 4 }],
        };
        assert!(matches!(
            set.expand(&registry),
            Err(CurveError::Scenario(ScenarioError::UnknownScenario { .. }))
        ));
    }

    #[test]
    fn duplicate_specs_reproduce_the_same_curve() {
        let registry = ScenarioRegistry::builtin();
        let spec = quick_prototype();
        let curves = run_curve_specs(&registry, &[spec.clone(), spec], 2).unwrap();
        assert_eq!(curves.len(), 2);
        assert_eq!(curves[0], curves[1]);
    }

    #[test]
    fn runner_emits_rows_and_summaries() {
        let registry = ScenarioRegistry::builtin();
        let set = CurveSetSpec {
            prototype: quick_prototype(),
            scenarios: vec!["uniform_random".into(), "tornado".into()],
            topologies: vec![TopologySpec::Mesh {
                width: 2,
                height: 2,
            }],
        };
        let outcome = set.run(&registry, 2).unwrap();
        assert_eq!(outcome.curves.len(), 2);
        let csv = outcome.to_csv();
        let doc = CsvDocument::parse(&csv).unwrap();
        assert!(doc.records.len() >= 2, "at least one point per curve");
        assert_eq!(doc.column("scenario"), Some(0));
        assert!(doc.column("accepted_flits_per_cycle_node").is_some());
        assert!(doc.column("max_vc_occupancy").is_some());
        assert!(csv.contains("# saturation uniform_random@mesh2x2"));
        // Parallel and serial runs agree (determinism across workers).
        let serial = set.run(&registry, 1).unwrap();
        assert_eq!(serial.curves, outcome.curves);
    }

    #[test]
    fn accepted_csv_is_sorted_by_accepted_throughput() {
        let registry = ScenarioRegistry::builtin();
        let set = CurveSetSpec {
            prototype: quick_prototype(),
            scenarios: vec!["uniform_random".into(), "tornado".into()],
            topologies: vec![TopologySpec::Mesh {
                width: 2,
                height: 2,
            }],
        };
        let outcome = set.run(&registry, 1).unwrap();
        let csv = outcome.to_accepted_csv();
        let doc = CsvDocument::parse(&csv).unwrap();
        // Same point count as the main CSV, plot columns only.
        let total: usize = outcome.curves.iter().map(|c| c.points.len()).sum();
        assert_eq!(doc.records.len(), total);
        assert_eq!(doc.column("accepted_flits_per_cycle_node"), Some(4));
        assert!(doc.column("top_link").is_none(), "plot columns only");
        // Within each curve the x-axis column is non-decreasing.
        let c_scen = doc.column("scenario").unwrap();
        let c_acc = doc.column("accepted_flits_per_cycle_node").unwrap();
        let mut last: Option<(String, f64)> = None;
        for r in &doc.records {
            let acc: f64 = r[c_acc].parse().unwrap();
            if let Some((scen, prev)) = &last {
                if scen == &r[c_scen] {
                    assert!(acc >= *prev, "accepted column must be sorted per curve");
                }
            }
            last = Some((r[c_scen].clone(), acc));
        }
    }

    #[test]
    fn telemetry_off_renders_dash_bottleneck_columns_and_empty_heat() {
        let registry = ScenarioRegistry::builtin();
        let set = CurveSetSpec {
            prototype: quick_prototype(),
            scenarios: vec!["uniform_random".into()],
            topologies: vec![TopologySpec::Mesh {
                width: 2,
                height: 2,
            }],
        };
        let outcome = set.run(&registry, 1).unwrap();
        let doc = CsvDocument::parse(&outcome.to_csv()).unwrap();
        let c_top = doc.column("top_link").unwrap();
        assert!(doc.records.iter().all(|r| r[c_top] == "-"));
        let heat = CsvDocument::parse(&outcome.link_heat_csv()).unwrap();
        assert!(heat.records.is_empty(), "no telemetry, no heat rows");
    }

    #[test]
    fn telemetry_curves_emit_bottleneck_columns_and_link_heat() {
        let registry = ScenarioRegistry::builtin();
        let mut prototype = quick_prototype();
        prototype.telemetry = Some(nocem_telemetry::TelemetryConfig::windowed(128));
        let set = CurveSetSpec {
            prototype,
            scenarios: vec!["uniform_random".into()],
            topologies: vec![TopologySpec::Mesh {
                width: 2,
                height: 2,
            }],
        };
        let outcome = set.run(&registry, 1).unwrap();
        let csv = outcome.to_csv();
        let doc = CsvDocument::parse(&csv).unwrap();
        // Plot-ready ordering: accepted throughput immediately left of
        // the latency block.
        assert_eq!(
            doc.column("accepted_flits_per_cycle_node").unwrap() + 1,
            doc.column("mean_network_latency").unwrap()
        );
        let c_top = doc.column("top_link").unwrap();
        let c_rate = doc.column("top_link_rate").unwrap();
        let hot: Vec<_> = doc.records.iter().filter(|r| r[c_top] != "-").collect();
        assert!(!hot.is_empty(), "a ramp to 0.6 load must block somewhere");
        for r in &hot {
            assert!(
                r[c_top].contains("->"),
                "topology-resolved name: {}",
                r[c_top]
            );
            let rate: f64 = r[c_rate].parse().unwrap();
            assert!((0.0..=1.0).contains(&rate));
        }
        let heat = CsvDocument::parse(&outcome.link_heat_csv()).unwrap();
        assert!(!heat.records.is_empty());
        let (c_rank, c_link) = (heat.column("rank").unwrap(), heat.column("link").unwrap());
        let c_blocked = heat.column("blocked_cycles").unwrap();
        // Within each point the rows are rank-ordered by blocked cycles.
        let mut prev: Option<(String, u64)> = None;
        for r in &heat.records {
            let rank: u64 = r[c_rank].parse().unwrap();
            let blocked: u64 = r[c_blocked].parse().unwrap();
            assert!(r[c_link].contains("->"));
            if let Some((_, prev_blocked)) = &prev {
                if rank > 0 {
                    assert!(blocked <= *prev_blocked, "heat rows descend within a point");
                }
            }
            prev = Some((r[c_link].clone(), blocked));
        }
    }
}
