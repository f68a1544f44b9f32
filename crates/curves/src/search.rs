//! The adaptive load controller: coarse ramp, saturation detection,
//! bisection.
//!
//! A curve is swept in two phases. The **ramp** measures points at
//! `start_load, start_load + step, …` until one saturates (or
//! `max_load` is reached); the **bisection** then narrows the interval
//! between the last stable and first saturated load until it is within
//! `tolerance`, measuring the midpoint each time. The reported
//! saturation load is the midpoint of the final bracket, so every
//! measured point below it is stable and every measured point above it
//! is saturated.
//!
//! A point is **saturated** when any of:
//!
//! * accepted throughput falls short of offered load by more than the
//!   configured shortfall fraction (the throughput plateau);
//! * mean total latency exceeds `latency_factor ×` the zero-load
//!   latency measured at the first ramp point (the latency wall);
//! * the measurement window saw no completed packet at all (total
//!   jam).
//!
//! The whole search is deterministic: every load point derives its
//! platform seed from `scenario@topology@load` exactly as the matrix
//! runner does, so re-running a search reproduces every measurement,
//! and with it the same saturation load, bit for bit.

use crate::measure::{measure_config, MeasureConfig, PointMeasurement};
use crate::CurveError;
use nocem::clock::ClockMode;
use nocem::compile::compute_routing;
use nocem::config::EngineKind;
use nocem_scenarios::registry::ScenarioRegistry;
use nocem_scenarios::scenario::TopologySpec;
use nocem_topology::routing::{FlowSet, RoutingTables};

/// Packet budget handed to `Scenario::build_config`; purely nominal —
/// the measurement harness uncaps budgets before running.
const NOMINAL_BUDGET: u64 = 1_000_000;

/// Hard cap on bisection steps (each step halves the bracket, so 32
/// is unreachable for any sane tolerance; this guards degenerate
/// floating-point configurations).
const MAX_BISECTIONS: usize = 32;

/// Parameters of the saturation search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchConfig {
    /// First ramp load (also the zero-load latency reference point).
    pub start_load: f64,
    /// Additive ramp step.
    pub step: f64,
    /// Highest load the ramp tries (loads must stay below 1.0).
    pub max_load: f64,
    /// Bisection stops when the stable/saturated bracket is narrower
    /// than this.
    pub tolerance: f64,
    /// Latency wall: a point whose mean total latency exceeds this
    /// multiple of the zero-load latency is saturated.
    pub latency_factor: f64,
    /// Throughput plateau: a point accepting less than
    /// `(1 - accepted_shortfall) × offered` is saturated.
    pub accepted_shortfall: f64,
    /// Run the bisection phase (`false` = coarse ramp only, the CI
    /// smoke configuration).
    pub bisect: bool,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            start_load: 0.05,
            step: 0.05,
            max_load: 0.95,
            tolerance: 0.02,
            latency_factor: 10.0,
            accepted_shortfall: 0.15,
            bisect: true,
        }
    }
}

/// Which search phase measured a point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointPhase {
    /// Coarse ramp.
    Ramp,
    /// Bisection refinement.
    Bisect,
}

impl PointPhase {
    /// Stable lowercase name (CSV `phase` column).
    pub fn name(&self) -> &'static str {
        match self {
            PointPhase::Ramp => "ramp",
            PointPhase::Bisect => "bisect",
        }
    }
}

/// One measured point of a curve, classified.
#[derive(Debug, Clone, PartialEq)]
pub struct CurvePoint {
    /// Offered load of the point.
    pub load: f64,
    /// Which phase measured it.
    pub phase: PointPhase,
    /// Whether the saturation predicate held.
    pub saturated: bool,
    /// The measurement itself.
    pub measurement: PointMeasurement,
}

/// Where a curve saturates.
#[derive(Debug, Clone, PartialEq)]
pub struct SaturationSummary {
    /// Whether any measured point saturated at all (up to
    /// `max_load`).
    pub found: bool,
    /// Highest measured load that was *not* saturated (0.0 when even
    /// the first ramp point saturated).
    pub stable_load: f64,
    /// Lowest measured saturated load, when one exists.
    pub saturated_load: Option<f64>,
    /// The reported saturation load: the midpoint of the final
    /// stable/saturated bracket — every measured point below it is
    /// stable, every measured point above it saturated. When no point
    /// saturated, the highest measured load (the curve is stable
    /// throughout the swept range).
    pub saturation_load: f64,
    /// Mean total latency at the first *stable* ramp point — the
    /// zero-load reference of the latency wall (`None` when even the
    /// first measured point was saturated, in which case the wall is
    /// disarmed and only the throughput criterion classified points).
    pub zero_load_latency: Option<f64>,
    /// Accepted throughput (flits/cycle/node) at `stable_load`.
    pub accepted_at_stable: f64,
}

/// A fully measured latency–throughput curve.
#[derive(Debug, Clone, PartialEq)]
pub struct Curve {
    /// Scenario registry name.
    pub scenario: String,
    /// Topology the curve was swept on.
    pub topology: TopologySpec,
    /// Engine shard count the points ran on (1 = single-threaded).
    pub shards: usize,
    /// Clock mode the points ran under.
    pub clock_mode: ClockMode,
    /// Measured points, sorted by load.
    pub points: Vec<CurvePoint>,
    /// The located saturation.
    pub saturation: SaturationSummary,
}

impl Curve {
    /// Stable curve label: `scenario@topology`.
    pub fn label(&self) -> String {
        format!("{}@{}", self.scenario, self.topology.name())
    }

    /// The curve with every machinery-only gating counter cleared —
    /// what cross-mode/cross-engine lockstep tests compare (the
    /// `shards`/`clock_mode` fields are also normalized away).
    #[must_use]
    pub fn behavioral(&self) -> Curve {
        Curve {
            shards: 1,
            clock_mode: ClockMode::EveryCycle,
            points: self
                .points
                .iter()
                .map(|p| CurvePoint {
                    measurement: p.measurement.behavioral(),
                    ..p.clone()
                })
                .collect(),
            ..self.clone()
        }
    }
}

/// One curve to sweep: a registry scenario bound to a topology plus
/// measurement and search parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct CurveSpec {
    /// Scenario registry name.
    pub scenario: String,
    /// Topology to sweep on.
    pub topology: TopologySpec,
    /// Packet length in flits.
    pub packet_flits: u16,
    /// Clock mode every point runs under ([`ClockMode::Gated`] is the
    /// production setting — proven cycle-equivalent and much faster
    /// at the low-load end of the ramp).
    pub clock_mode: ClockMode,
    /// Engine every point runs on.
    pub engine: EngineKind,
    /// Warm-up and window lengths.
    pub measure: MeasureConfig,
    /// Ramp and bisection parameters.
    pub search: SearchConfig,
    /// Windowed-telemetry configuration for every point (`None` =
    /// telemetry off, the default — a point then carries no
    /// bottleneck columns).
    pub telemetry: Option<nocem_telemetry::TelemetryConfig>,
}

impl CurveSpec {
    /// A spec with default measurement/search parameters: 4-flit
    /// packets, gated clock, single-threaded engine.
    pub fn new(scenario: impl Into<String>, topology: TopologySpec) -> Self {
        CurveSpec {
            scenario: scenario.into(),
            topology,
            packet_flits: 4,
            clock_mode: ClockMode::Gated,
            engine: EngineKind::SingleThread,
            measure: MeasureConfig::default(),
            search: SearchConfig::default(),
            telemetry: None,
        }
    }

    /// Stable curve label: `scenario@topology`.
    pub fn label(&self) -> String {
        format!("{}@{}", self.scenario, self.topology.name())
    }

    /// The shard count of the configured engine (1 when unsharded).
    pub fn shards(&self) -> usize {
        match self.engine {
            EngineKind::ShardedCompiled { shards, .. } => shards,
            _ => 1,
        }
    }

    /// Builds the point configuration for one load (used by the
    /// runner to pre-validate applicability, and per point here).
    ///
    /// # Errors
    ///
    /// Returns [`CurveError::Scenario`] when the scenario does not
    /// apply to the topology.
    pub fn config_at(
        &self,
        registry: &ScenarioRegistry,
        load: f64,
    ) -> Result<nocem::PlatformConfig, CurveError> {
        let mut config = registry.resolve(&self.scenario)?.build_config(
            self.topology,
            load,
            self.packet_flits,
            NOMINAL_BUDGET,
        )?;
        config.clock_mode = self.clock_mode;
        config.engine = self.engine;
        config.telemetry = self.telemetry;
        Ok(config)
    }

    /// Measures one load point, reusing the curve's routing cache
    /// when the flow set is unchanged (it is, for every synthetic
    /// pattern — routing is load-independent).
    fn point(
        &self,
        registry: &ScenarioRegistry,
        load: f64,
        phase: PointPhase,
        cache: &mut Option<(FlowSet, RoutingTables)>,
        zero_load: Option<f64>,
    ) -> Result<CurvePoint, CurveError> {
        let config = self.config_at(registry, load)?;
        let cached = cache
            .as_ref()
            .is_some_and(|(flows, _)| flows == &config.flows);
        if !cached {
            let routing = compute_routing(&config)?;
            *cache = Some((config.flows.clone(), routing));
        }
        let routing = &cache.as_ref().expect("cache filled above").1;
        let measurement = measure_config(&config, Some(routing), &self.measure, load)?;
        let saturated = is_saturated(&self.search, zero_load, &measurement);
        Ok(CurvePoint {
            load,
            phase,
            saturated,
            measurement,
        })
    }

    /// Runs the full saturation search and returns the curve.
    ///
    /// # Errors
    ///
    /// Returns [`CurveError`] when the scenario cannot be bound to
    /// the topology or a measurement fails.
    ///
    /// # Panics
    ///
    /// Panics on nonsensical search parameters (`start_load` or
    /// `max_load` outside `(0, 1)`, non-positive `step` or
    /// `tolerance`).
    pub fn run(&self, registry: &ScenarioRegistry) -> Result<Curve, CurveError> {
        let s = &self.search;
        assert!(
            s.start_load > 0.0 && s.start_load < 1.0,
            "start_load must be in (0, 1)"
        );
        assert!(s.max_load > 0.0 && s.max_load < 1.0, "max_load in (0, 1)");
        assert!(
            s.start_load <= s.max_load,
            "start_load must not exceed max_load (an inverted range would \
             measure nothing)"
        );
        assert!(s.step > 0.0, "ramp step must be positive");
        assert!(s.tolerance > 0.0, "tolerance must be positive");

        let mut cache = None;
        let mut points: Vec<CurvePoint> = Vec::new();
        let mut zero_load = None;
        let mut stable: Option<f64> = None;
        let mut saturated: Option<f64> = None;

        // Phase 1: coarse ramp.
        let mut load = s.start_load;
        while load <= s.max_load + 1e-12 {
            let p = self.point(registry, load, PointPhase::Ramp, &mut cache, zero_load)?;
            // The zero-load reference must come from a *stable* point;
            // a curve whose very first ramp point already saturates
            // keeps no reference (its diverged latency would disarm
            // the latency wall), and classification falls back to the
            // throughput-shortfall criterion alone.
            if zero_load.is_none() && !p.saturated {
                zero_load = p.measurement.mean_total_latency;
            }
            let sat = p.saturated;
            points.push(p);
            if sat {
                saturated = Some(load);
                break;
            }
            stable = Some(load);
            load += s.step;
        }

        // Phase 2: bisection inside the bracket.
        if s.bisect {
            if let Some(mut hi) = saturated {
                let mut lo = stable.unwrap_or(0.0);
                for _ in 0..MAX_BISECTIONS {
                    if hi - lo <= s.tolerance {
                        break;
                    }
                    let mid = (lo + hi) / 2.0;
                    let p = self.point(registry, mid, PointPhase::Bisect, &mut cache, zero_load)?;
                    let sat = p.saturated;
                    points.push(p);
                    if sat {
                        hi = mid;
                    } else {
                        lo = mid;
                    }
                }
                stable = (lo > 0.0).then_some(lo);
                saturated = Some(hi);
            }
        }

        let stable_load = stable.unwrap_or(0.0);
        let saturation_load = match saturated {
            Some(hi) => (stable_load + hi) / 2.0,
            None => stable_load,
        };
        let accepted_at_stable = points
            .iter()
            .find(|p| p.load == stable_load)
            .map(|p| p.measurement.accepted)
            .unwrap_or(0.0);
        points.sort_by(|a, b| a.load.partial_cmp(&b.load).expect("loads are finite"));
        Ok(Curve {
            scenario: self.scenario.clone(),
            topology: self.topology,
            shards: self.shards(),
            clock_mode: self.clock_mode,
            points,
            saturation: SaturationSummary {
                found: saturated.is_some(),
                stable_load,
                saturated_load: saturated,
                saturation_load,
                zero_load_latency: zero_load,
                accepted_at_stable,
            },
        })
    }
}

/// The saturation predicate (see the module docs).
fn is_saturated(s: &SearchConfig, zero_load: Option<f64>, m: &PointMeasurement) -> bool {
    if m.packets_measured == 0 {
        return true;
    }
    let shortfall = m.accepted < (1.0 - s.accepted_shortfall) * m.offered;
    let latency_wall = match (zero_load, m.mean_total_latency) {
        (Some(z), Some(t)) => t > s.latency_factor * z,
        _ => false,
    };
    shortfall || latency_wall
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_measurement(offered: f64, accepted: f64, total_latency: f64) -> PointMeasurement {
        PointMeasurement {
            offered,
            accepted,
            packets_measured: 100,
            mean_network_latency: Some(20.0),
            p50: Some(18),
            p95: Some(40),
            p99: Some(55),
            mean_total_latency: Some(total_latency),
            vc_occupancy: nocem_stats::congestion::VcOccupancy::new(1),
            stalled_cycles: 0,
            cycles: 5_120,
            cycles_skipped: 0,
            telemetry: None,
            profile: None,
        }
    }

    #[test]
    fn saturation_predicate_catches_shortfall_and_latency_wall() {
        let s = SearchConfig::default();
        let zero = Some(25.0);
        // Tracks offered, calm latency: stable.
        assert!(!is_saturated(&s, zero, &fake_measurement(0.2, 0.195, 40.0)));
        // Throughput shortfall.
        assert!(is_saturated(&s, zero, &fake_measurement(0.5, 0.30, 40.0)));
        // Latency wall despite decent throughput.
        assert!(is_saturated(&s, zero, &fake_measurement(0.5, 0.48, 600.0)));
        // No packets at all.
        let mut jammed = fake_measurement(0.5, 0.0, 0.0);
        jammed.packets_measured = 0;
        assert!(is_saturated(&s, None, &jammed));
    }

    #[test]
    fn phase_names_are_stable() {
        assert_eq!(PointPhase::Ramp.name(), "ramp");
        assert_eq!(PointPhase::Bisect.name(), "bisect");
    }

    #[test]
    #[should_panic(expected = "start_load must not exceed max_load")]
    fn inverted_load_range_is_rejected() {
        let spec = CurveSpec {
            search: SearchConfig {
                start_load: 0.5,
                max_load: 0.3,
                ..SearchConfig::default()
            },
            ..CurveSpec::new(
                "uniform_random",
                TopologySpec::Mesh {
                    width: 2,
                    height: 2,
                },
            )
        };
        let _ = spec.run(&ScenarioRegistry::builtin());
    }

    // End-to-end searches run in the workspace integration tests
    // (`tests/latency_curves.rs`), where release-mode CI gives them
    // room; a quick sanity search on the smallest mesh lives here.
    #[test]
    fn ramp_only_search_terminates_and_orders_points() {
        let registry = ScenarioRegistry::builtin();
        let spec = CurveSpec {
            measure: MeasureConfig {
                warmup_cycles: 128,
                measure_cycles: 512,
            },
            search: SearchConfig {
                start_load: 0.2,
                step: 0.3,
                max_load: 0.9,
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
        };
        let curve = spec.run(&registry).unwrap();
        assert!(!curve.points.is_empty());
        assert!(
            curve.points.windows(2).all(|w| w[0].load < w[1].load),
            "points sorted by load"
        );
        assert!(curve.points.iter().all(|p| p.phase == PointPhase::Ramp));
        assert_eq!(curve.label(), "uniform_random@mesh2x2");
        // Re-running reproduces the curve exactly.
        assert_eq!(spec.run(&registry).unwrap(), curve);
    }

    #[test]
    fn compiled_engine_curve_matches_the_interpreted_curve() {
        let registry = ScenarioRegistry::builtin();
        let base = CurveSpec {
            measure: MeasureConfig {
                warmup_cycles: 128,
                measure_cycles: 512,
            },
            search: SearchConfig {
                start_load: 0.2,
                step: 0.3,
                max_load: 0.9,
                bisect: false,
                ..SearchConfig::default()
            },
            ..CurveSpec::new(
                "uniform_random",
                TopologySpec::Mesh {
                    width: 3,
                    height: 3,
                },
            )
        };
        let compiled = CurveSpec {
            engine: nocem::config::EngineKind::Compiled,
            ..base.clone()
        };
        // Point-for-point identity, including the gated clock's skip
        // counts: the compiled engine is the same emulation, faster.
        assert_eq!(
            compiled.run(&registry).unwrap(),
            base.run(&registry).unwrap()
        );
    }
}
