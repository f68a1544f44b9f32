//! The scenario-matrix runner.
//!
//! [`MatrixSpec`] names a set of registry scenarios, topologies,
//! loads and engine shard counts; [`MatrixSpec::expand`] produces one
//! [`MatrixPoint`] — its place on each axis beside its configuration —
//! per *applicable* combination (inapplicable ones — transpose on a
//! ring, bit patterns on 9 switches — are collected as skips by
//! [`ScenarioError::is_inapplicable`], not errors), and
//! [`MatrixSpec::run`] runs the points' shard groups through
//! `nocem::sweep::run_sweep_indexed` and aggregates everything into
//! typed rows plus one CSV document.
//!
//! Every point's platform seed derives from its scenario label
//! ([`crate::scenario_seed`]), so a matrix run is deterministic
//! regardless of worker count or scheduling — and the `shards` axis
//! never perturbs results, because the sharded compiled engine is
//! ledger-identical to the compiled one (only the recorded wall-clock
//! time changes).

use crate::registry::ScenarioRegistry;
use crate::scenario::TopologySpec;
use crate::{ScenarioError, SkippedPoint};
use nocem::clock::ClockMode;
use nocem::compile::compute_routing;
use nocem::config::{EngineKind, PlatformConfig};
use nocem::error::EmulationError;
use nocem::results::EmulationResults;
use nocem::sweep::{run_config_routed, run_sweep_indexed};
use nocem_common::csv::CsvWriter;

/// A `scenarios × topologies × loads × shards` experiment matrix.
#[derive(Debug, Clone)]
pub struct MatrixSpec {
    /// Registry names of the scenarios to run.
    pub scenarios: Vec<String>,
    /// Topologies to instantiate each scenario on.
    pub topologies: Vec<TopologySpec>,
    /// Offered loads (per-TG fraction of link bandwidth).
    pub loads: Vec<f64>,
    /// Engine shard counts to run each point on. `1` is the compiled
    /// engine; `k > 1` runs the same kernel sharded across `k` worker
    /// threads (same results, different wall clock — the scaling axis
    /// for 16×16/32×32 topologies). Most matrices use `vec![1]`.
    pub shards: Vec<usize>,
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
    /// Engine shard count (1 = the unsharded compiled engine).
    pub shards: usize,
    /// Full label (`scenario@topology@load`, plus `@s<k>` when
    /// sharded).
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
    /// Engine shard count (1 = the unsharded compiled engine).
    pub shards: usize,
    /// Full label (`scenario@topology@load`, plus `@s<k>` when
    /// sharded).
    pub label: String,
    /// Wall-clock milliseconds the whole point took — compile /
    /// elaboration, the run, and results collection (the one matrix
    /// column that is *not* deterministic). Routing tables are
    /// computed once per (scenario, topology, load) group and shared
    /// across its `shards` axis; that one-off cost is charged to the
    /// group's first point.
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
        self.scenarios.len() * self.topologies.len() * self.loads.len() * self.shards.len().max(1)
    }

    /// The shard counts to expand over (`[1]` when the field is
    /// empty, so older specs keep meaning "unsharded").
    fn shard_axis(&self) -> Vec<usize> {
        if self.shards.is_empty() {
            vec![1]
        } else {
            self.shards.clone()
        }
    }

    /// Expands the matrix into its applicable points, in axis order
    /// (shards innermost).
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
        let shard_axis = self.shard_axis();
        for name in &self.scenarios {
            let scenario = registry.resolve(name)?;
            for &topology in &self.topologies {
                for &load in &self.loads {
                    for &shards in &shard_axis {
                        let mut label = format!("{name}@{}@{load}", topology.name());
                        if shards != 1 {
                            label.push_str(&format!("@s{shards}"));
                        }
                        match scenario.build_config(
                            topology,
                            load,
                            self.packet_flits,
                            self.packets_per_point,
                        ) {
                            Ok(mut config) => {
                                config.clock_mode = self.clock_mode;
                                // One kernel along the whole axis
                                // (`AnyEngine` runs one shard
                                // unsharded), so "speedup vs 1 shard"
                                // compares like with like.
                                config.engine = EngineKind::ShardedCompiled { shards, batch: 1 };
                                points.push(MatrixPoint {
                                    scenario: name.clone(),
                                    topology: topology.name(),
                                    load,
                                    shards,
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
        }
        Ok((points, skipped))
    }

    /// Expands and runs the matrix over up to `threads` workers.
    ///
    /// Each point runs on the engine its shard count names (through
    /// `nocem::sweep::run_config_routed`) and is individually
    /// wall-clocked. Across the `shards` axis the (scenario, topology,
    /// load) platform is identical, so its routing tables — route
    /// computation plus the deadlock check, which dominate elaboration
    /// on huge meshes — are computed **once per shard group** and
    /// reused for every shard count; the one-off routing cost is
    /// charged to the group's first point's `wall_ms`. When timing
    /// sharded-vs-single speedups, run with `threads = 1` so
    /// concurrent points do not steal the shard workers' cores.
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
        // The shards axis is the innermost expansion loop, so the
        // points of one (scenario, topology, load) group — identical
        // platforms on different engines — are consecutive. One sweep
        // item per group keeps the parallel scheduling and input-order
        // failure semantics of `run_sweep_indexed` while the group
        // shares its elaborated routing.
        let groups: Vec<&[MatrixPoint]> = points
            .chunk_by(|a, b| {
                (&a.scenario, &a.topology, a.load) == (&b.scenario, &b.topology, b.load)
            })
            .collect();
        let rows = run_sweep_indexed(&groups, threads, |_, group| {
            let routing_started = std::time::Instant::now();
            let routing = compute_routing(&group[0].config)?;
            let mut routing_ms = routing_started.elapsed().as_secs_f64() * 1e3;
            group
                .iter()
                .map(|point| {
                    let started = std::time::Instant::now();
                    let results = run_config_routed(&point.config, Some(&routing))?;
                    // The group's routing is charged once, to its first
                    // member.
                    let wall_ms =
                        started.elapsed().as_secs_f64() * 1e3 + std::mem::take(&mut routing_ms);
                    Ok(MatrixRow {
                        scenario: point.scenario.clone(),
                        topology: point.topology.clone(),
                        load: point.load,
                        shards: point.shards,
                        label: point.label.clone(),
                        wall_ms,
                        results,
                    })
                })
                .collect::<Result<Vec<_>, EmulationError>>()
        })?;
        Ok(MatrixOutcome {
            rows: rows.into_iter().flatten().collect(),
            skipped,
        })
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
            "shards",
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
        csv.comment(
            "nocem scenario matrix: one record per (scenario, topology, load, shards) point",
        );
        csv.comment(
            "cycles_skipped/gating_speedup: cycles the fast-forward kernel jumped and the \
             resulting simulated-cycles-per-stepped-cycle ratio (1.0 = ungated)",
        );
        csv.comment(
            "shards: engine worker threads (1 = the unsharded compiled engine; results are \
             ledger-identical across shard counts, only wall_ms changes)",
        );
        for row in &self.rows {
            let r = &row.results;
            csv.record_display(&[
                &row.scenario,
                &row.topology,
                &row.load,
                &row.shards,
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
            shards: vec![1],
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
            shards: vec![1],
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
            shards: vec![1],
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
        assert_eq!(doc.column("shards"), Some(3));
        assert_eq!(doc.column("cycles"), Some(5));
        assert_eq!(doc.column("cycles_skipped"), Some(6));
        assert_eq!(doc.column("gating_speedup"), Some(7));
        assert_eq!(doc.column("wall_ms"), Some(12));
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
    fn shards_axis_is_ledger_identical_and_labelled() {
        let reg = ScenarioRegistry::builtin();
        let spec = MatrixSpec {
            scenarios: vec!["tornado".into()],
            topologies: vec![TopologySpec::Mesh {
                width: 4,
                height: 4,
            }],
            loads: vec![0.10],
            shards: vec![1, 2],
            packet_flits: 2,
            packets_per_point: 60,
            clock_mode: ClockMode::EveryCycle,
        };
        assert_eq!(spec.combinations(), 2);
        let outcome = spec.run(&reg, 1).unwrap();
        assert_eq!(outcome.rows.len(), 2);
        let (single, sharded) = (&outcome.rows[0], &outcome.rows[1]);
        assert_eq!(single.shards, 1);
        assert_eq!(sharded.shards, 2);
        assert!(sharded.label.ends_with("@s2"), "{}", sharded.label);
        // The shards axis only changes the wall clock, never results.
        assert_eq!(single.results, sharded.results);
        let csv = outcome.to_csv();
        assert!(csv.contains("shards"));
        assert!(csv.contains("wall_ms"));
    }

    #[test]
    fn shard_groups_share_routing_without_reordering_rows() {
        // Two loads x two shard counts: four points in two routing
        // groups. Rows must come back in expansion order (shards
        // innermost), with the sharded result identical to its
        // group's single-threaded baseline.
        let reg = ScenarioRegistry::builtin();
        let spec = MatrixSpec {
            scenarios: vec!["tornado".into()],
            topologies: vec![TopologySpec::Mesh {
                width: 4,
                height: 4,
            }],
            loads: vec![0.05, 0.10],
            shards: vec![1, 2],
            packet_flits: 2,
            packets_per_point: 48,
            clock_mode: ClockMode::EveryCycle,
        };
        let outcome = spec.run(&reg, 3).unwrap();
        let labels: Vec<&str> = outcome.rows.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(
            labels,
            [
                "tornado@mesh4x4@0.05",
                "tornado@mesh4x4@0.05@s2",
                "tornado@mesh4x4@0.1",
                "tornado@mesh4x4@0.1@s2",
            ]
        );
        for pair in outcome.rows.chunks(2) {
            assert_eq!(pair[0].results, pair[1].results, "{}", pair[1].label);
        }
        // The two loads genuinely differ (distinct seeds and gaps).
        assert_ne!(
            outcome.rows[0].results.cycles,
            outcome.rows[2].results.cycles
        );
    }

    #[test]
    fn duplicate_axis_values_keep_their_own_rows() {
        // Regression: group lookup used to key on the raw point
        // label, so a repeated axis value (two identical loads here)
        // made both groups run the last group's members and
        // misattribute results.
        let reg = ScenarioRegistry::builtin();
        let spec = MatrixSpec {
            scenarios: vec!["tornado".into()],
            topologies: vec![TopologySpec::Mesh {
                width: 2,
                height: 2,
            }],
            loads: vec![0.10, 0.10],
            shards: vec![1],
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
        for (s, p) in serial.rows.iter().zip(&parallel.rows) {
            assert_eq!(s.label, p.label);
            assert_eq!(s.results.cycles, p.results.cycles);
            assert_eq!(s.results.delivered, p.results.delivered);
        }
    }
}
