//! The scenario-matrix runner.
//!
//! [`MatrixSpec`] names a set of registry scenarios, topologies and
//! loads; [`MatrixSpec::expand`] produces one
//! [`MatrixPoint`] — its place on each axis beside its configuration —
//! per *applicable* combination (inapplicable ones — transpose on a
//! ring, bit patterns on 9 switches — are collected as skips by
//! [`ScenarioError::is_inapplicable`], not errors), and
//! [`MatrixSpec::run`] runs the points on the compiled engine through
//! `nocem::sweep::run_sweep_indexed` and aggregates everything into
//! typed rows plus one CSV document.
//!
//! Every point's platform seed derives from its scenario label
//! ([`crate::scenario_seed`]), so a matrix run is deterministic
//! regardless of worker count or scheduling.

use crate::registry::ScenarioRegistry;
use crate::scenario::TopologySpec;
use crate::{ScenarioError, SkippedPoint};
use nocem::clock::ClockMode;
use nocem::config::{EngineKind, PlatformConfig};
use nocem::error::EmulationError;
use nocem::results::EmulationResults;
use nocem::sweep::{run_config, run_sweep_indexed};
use nocem_common::csv::CsvWriter;

/// A `scenarios × topologies × loads` experiment matrix.
#[derive(Debug, Clone)]
pub struct MatrixSpec {
    /// Registry names of the scenarios to run.
    pub scenarios: Vec<String>,
    /// Topologies to instantiate each scenario on.
    pub topologies: Vec<TopologySpec>,
    /// Offered loads (per-TG fraction of link bandwidth).
    pub loads: Vec<f64>,
    /// Packet length in flits.
    pub packet_flits: u16,
    /// Packet budget of every matrix point.
    pub packets_per_point: u64,
    /// Clock mode every point runs under. `Gated` is the production
    /// setting for large matrices — cycle-equivalent to `EveryCycle`
    /// (proven by the lockstep tests) and much faster at low load;
    /// the CSV records each point's skipped cycles and effective
    /// speedup so the gating win stays visible in the perf
    /// trajectory.
    pub clock_mode: ClockMode,
}

/// One applicable combination of the matrix: where it sits on each
/// axis, and the configuration it runs.
#[derive(Debug, Clone)]
pub struct MatrixPoint {
    /// Scenario registry name.
    pub scenario: String,
    /// Topology name.
    pub topology: String,
    /// Offered load.
    pub load: f64,
    /// Full label (`scenario@topology@load`).
    pub label: String,
    /// The configuration to run.
    pub config: PlatformConfig,
}

/// One executed matrix point.
#[derive(Debug, Clone)]
pub struct MatrixRow {
    /// Scenario registry name.
    pub scenario: String,
    /// Topology name.
    pub topology: String,
    /// Offered load.
    pub load: f64,
    /// Full label (`scenario@topology@load`).
    pub label: String,
    /// Wall-clock milliseconds the whole point took — routing,
    /// elaboration, the run, and results collection (the one matrix
    /// column that is *not* deterministic).
    pub wall_ms: f64,
    /// The emulation results of the point.
    pub results: EmulationResults,
}

/// All outcomes of one matrix run.
#[derive(Debug, Clone)]
pub struct MatrixOutcome {
    /// Executed points, in expansion order.
    pub rows: Vec<MatrixRow>,
    /// Combinations that were skipped as inapplicable.
    pub skipped: Vec<SkippedPoint>,
}

/// Matrix failure: either expansion failed outright (unknown scenario
/// name) or a point failed to emulate.
#[derive(Debug)]
#[non_exhaustive]
pub enum MatrixError {
    /// A scenario name did not resolve or a config failed to build
    /// for a reason other than pattern applicability.
    Scenario(ScenarioError),
    /// A point compiled but failed during emulation.
    Emulation(EmulationError),
}

impl std::fmt::Display for MatrixError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MatrixError::Scenario(e) => write!(f, "matrix expansion failed: {e}"),
            MatrixError::Emulation(e) => write!(f, "matrix point failed: {e}"),
        }
    }
}

impl std::error::Error for MatrixError {}

impl From<ScenarioError> for MatrixError {
    fn from(e: ScenarioError) -> Self {
        MatrixError::Scenario(e)
    }
}

impl From<EmulationError> for MatrixError {
    fn from(e: EmulationError) -> Self {
        MatrixError::Emulation(e)
    }
}

impl MatrixSpec {
    /// Number of raw combinations before applicability filtering.
    pub fn combinations(&self) -> usize {
        self.scenarios.len() * self.topologies.len() * self.loads.len()
    }

    /// Expands the matrix into its applicable points, in axis order
    /// (loads innermost).
    ///
    /// Inapplicable combinations land in the second return value;
    /// unknown scenario names are hard errors.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::UnknownScenario`] if a scenario name
    /// is not in `registry`.
    pub fn expand(
        &self,
        registry: &ScenarioRegistry,
    ) -> Result<(Vec<MatrixPoint>, Vec<SkippedPoint>), ScenarioError> {
        let mut points = Vec::new();
        let mut skipped = Vec::new();
        for name in &self.scenarios {
            let scenario = registry.resolve(name)?;
            for &topology in &self.topologies {
                for &load in &self.loads {
                    let label = format!("{name}@{}@{load}", topology.name());
                    match scenario.build_config(
                        topology,
                        load,
                        self.packet_flits,
                        self.packets_per_point,
                    ) {
                        Ok(mut config) => {
                            config.clock_mode = self.clock_mode;
                            config.engine = EngineKind::Compiled;
                            points.push(MatrixPoint {
                                scenario: name.clone(),
                                topology: topology.name(),
                                load,
                                label,
                                config,
                            });
                        }
                        Err(reason) if reason.is_inapplicable() => {
                            skipped.push(SkippedPoint { label, reason });
                        }
                        Err(other) => return Err(other),
                    }
                }
            }
        }
        Ok((points, skipped))
    }

    /// Expands and runs the matrix over up to `threads` workers.
    ///
    /// Each point runs on the compiled engine (through
    /// `nocem::sweep::run_config`) and is individually wall-clocked.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError`] on expansion failure or the first
    /// failing point (by expansion order).
    pub fn run(
        &self,
        registry: &ScenarioRegistry,
        threads: usize,
    ) -> Result<MatrixOutcome, MatrixError> {
        let (points, skipped) = self.expand(registry)?;
        let rows = run_sweep_indexed(&points, threads, |_, point| {
            let started = std::time::Instant::now();
            let results = run_config(&point.config)?;
            Ok::<_, EmulationError>(MatrixRow {
                scenario: point.scenario.clone(),
                topology: point.topology.clone(),
                load: point.load,
                label: point.label.clone(),
                wall_ms: started.elapsed().as_secs_f64() * 1e3,
                results,
            })
        })?;
        Ok(MatrixOutcome { rows, skipped })
    }
}

impl MatrixOutcome {
    /// Renders the aggregated CSV document: one record per executed
    /// point plus a trailing comment per skipped combination.
    pub fn to_csv(&self) -> String {
        let mut csv = CsvWriter::new(&[
            "scenario",
            "topology",
            "load",
            "packets",
            "cycles",
            "cycles_skipped",
            "gating_speedup",
            "throughput_flits_per_cycle",
            "mean_network_latency",
            "mean_total_latency",
            "stalled_cycles",
            "wall_ms",
        ]);
        csv.comment("nocem scenario matrix: one record per (scenario, topology, load) point");
        csv.comment(
            "cycles_skipped/gating_speedup: cycles the fast-forward kernel jumped and the \
             resulting simulated-cycles-per-stepped-cycle ratio (1.0 = ungated)",
        );
        for row in &self.rows {
            let r = &row.results;
            csv.record_display(&[
                &row.scenario,
                &row.topology,
                &row.load,
                &r.delivered,
                &r.cycles,
                &r.cycles_skipped,
                &format_args!("{:.2}", r.gating_speedup()),
                &format_args!("{:.4}", r.throughput()),
                &format_args!("{:.2}", r.network_latency.mean().unwrap_or(0.0)),
                &format_args!("{:.2}", r.total_latency.mean().unwrap_or(0.0)),
                &r.stalled_cycles,
                &format_args!("{:.1}", row.wall_ms),
            ]);
        }
        for s in &self.skipped {
            csv.comment(&format!("skipped {}: {}", s.label, s.reason));
        }
        csv.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nocem_common::csv::CsvDocument;

    fn small_spec() -> MatrixSpec {
        MatrixSpec {
            scenarios: vec!["tornado".into(), "transpose".into()],
            topologies: vec![
                TopologySpec::Mesh {
                    width: 2,
                    height: 2,
                },
                TopologySpec::Ring { switches: 4 },
            ],
            loads: vec![0.10],
            packet_flits: 2,
            packets_per_point: 40,
            clock_mode: ClockMode::EveryCycle,
        }
    }

    #[test]
    fn expansion_partitions_points_and_skips() {
        let reg = ScenarioRegistry::builtin();
        let spec = small_spec();
        assert_eq!(spec.combinations(), 4);
        let (points, skipped) = spec.expand(&reg).unwrap();
        // transpose@ring4 is inapplicable; the other three run.
        assert_eq!(points.len(), 3);
        assert_eq!(skipped.len(), 1);
        assert!(skipped[0].label.starts_with("transpose@ring4"));
    }

    #[test]
    fn unmappable_core_graph_is_skipped_not_fatal() {
        let reg = ScenarioRegistry::builtin();
        let spec = MatrixSpec {
            scenarios: vec!["vopd".into()],
            topologies: vec![
                TopologySpec::Ring { switches: 4 }, // 4 switches < 16 cores
                TopologySpec::Mesh {
                    width: 4,
                    height: 4,
                },
            ],
            loads: vec![0.10],
            packet_flits: 2,
            packets_per_point: 64,
            clock_mode: ClockMode::EveryCycle,
        };
        let (points, skipped) = spec.expand(&reg).unwrap();
        assert_eq!(points.len(), 1);
        assert_eq!(skipped.len(), 1);
        assert!(skipped[0].label.starts_with("vopd@ring4"));
    }

    #[test]
    fn too_small_budget_is_skipped_not_fatal() {
        let reg = ScenarioRegistry::builtin();
        let spec = MatrixSpec {
            scenarios: vec!["vopd".into(), "tornado".into()],
            topologies: vec![TopologySpec::Mesh {
                width: 4,
                height: 4,
            }],
            loads: vec![0.10],
            packet_flits: 2,
            // Fewer packets than vopd's active generators; fine for
            // the synthetic pattern.
            packets_per_point: 8,
            clock_mode: ClockMode::EveryCycle,
        };
        let (points, skipped) = spec.expand(&reg).unwrap();
        assert_eq!(points.len(), 1, "tornado point survives");
        assert_eq!(skipped.len(), 1);
        assert!(skipped[0].label.starts_with("vopd@mesh4x4"));
        assert!(matches!(
            skipped[0].reason,
            ScenarioError::BudgetTooSmall { .. }
        ));
    }

    #[test]
    fn unknown_scenario_is_a_hard_error() {
        let reg = ScenarioRegistry::builtin();
        let mut spec = small_spec();
        spec.scenarios.push("warp_drive".into());
        assert!(matches!(
            spec.expand(&reg),
            Err(ScenarioError::UnknownScenario { .. })
        ));
    }

    #[test]
    fn run_delivers_every_budgeted_packet_and_aggregates_csv() {
        let reg = ScenarioRegistry::builtin();
        let spec = small_spec();
        let outcome = spec.run(&reg, 2).unwrap();
        assert_eq!(outcome.rows.len(), 3);
        for row in &outcome.rows {
            assert_eq!(row.results.delivered, 40, "{}", row.label);
            assert!(row.results.cycles > 0);
        }
        let csv = outcome.to_csv();
        let doc = CsvDocument::parse(&csv).unwrap();
        assert_eq!(doc.records.len(), 3);
        assert_eq!(doc.column("scenario"), Some(0));
        assert_eq!(doc.column("shards"), None);
        assert_eq!(doc.column("cycles"), Some(4));
        assert_eq!(doc.column("cycles_skipped"), Some(5));
        assert_eq!(doc.column("gating_speedup"), Some(6));
        assert_eq!(doc.column("wall_ms"), Some(11));
        assert!(csv.contains("# skipped transpose@ring4"));
    }

    #[test]
    fn gated_matrix_matches_ungated_and_records_the_skip() {
        let reg = ScenarioRegistry::builtin();
        let ungated = small_spec().run(&reg, 2).unwrap();
        let gated = MatrixSpec {
            clock_mode: ClockMode::Gated,
            ..small_spec()
        }
        .run(&reg, 2)
        .unwrap();
        let mut any_skipped = false;
        for (u, g) in ungated.rows.iter().zip(&gated.rows) {
            assert_eq!(u.label, g.label);
            // Behaviour is identical; only the skip counter differs.
            let mut g_norm = g.results.clone();
            any_skipped |= g_norm.cycles_skipped > 0;
            g_norm.cycles_skipped = 0;
            assert_eq!(g_norm, u.results, "{} diverged under gating", u.label);
        }
        assert!(any_skipped, "a 10%-load matrix must skip some cycles");
        let csv = gated.to_csv();
        assert!(csv.contains("cycles_skipped"));
        assert!(csv.contains("gating_speedup"));
    }

    #[test]
    fn duplicate_axis_values_keep_their_own_rows() {
        // A repeated axis value (two identical loads here) keeps one
        // row per point, each with its own results.
        let reg = ScenarioRegistry::builtin();
        let spec = MatrixSpec {
            scenarios: vec!["tornado".into()],
            topologies: vec![TopologySpec::Mesh {
                width: 2,
                height: 2,
            }],
            loads: vec![0.10, 0.10],
            packet_flits: 2,
            packets_per_point: 40,
            clock_mode: ClockMode::EveryCycle,
        };
        let outcome = spec.run(&reg, 2).unwrap();
        assert_eq!(outcome.rows.len(), 2);
        for row in &outcome.rows {
            assert_eq!(row.label, "tornado@mesh2x2@0.1");
            assert_eq!(row.results.delivered, 40, "both duplicates really ran");
        }
        assert_eq!(outcome.rows[0].results, outcome.rows[1].results);
    }

    #[test]
    fn matrix_is_deterministic_across_thread_counts() {
        let reg = ScenarioRegistry::builtin();
        let spec = small_spec();
        let serial = spec.run(&reg, 1).unwrap();
        let parallel = spec.run(&reg, 4).unwrap();
        // Rows come back in expansion order whatever the thread count.
        let labels = |o: &MatrixOutcome| o.rows.iter().map(|r| r.label.clone()).collect::<Vec<_>>();
        assert_eq!(labels(&parallel), labels(&serial));
        assert_eq!(
            labels(&serial),
            [
                "tornado@mesh2x2@0.1",
                "tornado@ring4@0.1",
                "transpose@mesh2x2@0.1"
            ]
        );
        for (s, p) in serial.rows.iter().zip(&parallel.rows) {
            assert_eq!(s.label, p.label);
            assert_eq!(s.results.cycles, p.results.cycles);
            assert_eq!(s.results.delivered, p.results.delivered);
        }
    }
}
