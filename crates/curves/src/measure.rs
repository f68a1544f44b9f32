//! The steady-state measurement harness: one load point, measured.
//!
//! A latency–throughput point must be measured **open-loop** — the
//! traffic generators offer load indefinitely and the network accepts
//! what it can — and **in steady state** — the transient of an empty
//! network filling up is discarded. [`measure_config`] therefore:
//!
//! 1. uncaps every stochastic generator's packet budget and disables
//!    the delivered-packet stop condition;
//! 2. runs the configured engine ([`nocem::sweep::AnyEngine`] honours
//!    [`nocem::config::EngineKind`] and [`nocem::ClockMode`]) for
//!    `warmup_cycles + measure_cycles` cycles;
//! 3. has the packet ledger watch the measurement window before the
//!    run ([`nocem::SteppableEngine::watch`]): at each delivery it
//!    folds what the point's statistics need — the packets and flits
//!    delivered inside the window, and an exact count per latency value
//!    of the packets injected inside it — and it keeps no record of a
//!    delivered packet, so the point holds only the packets in flight.
//!    After the run the ledger rebuilds the statistics from those counts
//!    ([`nocem_stats::PacketLedger::watched`]): latency quantiles over
//!    packets injected inside the window, accepted throughput over
//!    packets delivered inside it, equal to what `nocem-stats`' windowed
//!    extraction reads from a full history of records.
//!
//! Because selection is by absolute cycle over a ledger that is
//! cycle-identical across clock modes and engines, a measurement is
//! reproducible bit for bit on any of them.

use crate::CurveError;
use nocem::clock::run_engine_until;
use nocem::config::{PlatformConfig, TrafficModel};
use nocem::error::EmulationError;
use nocem::sweep::AnyEngine;
use nocem::SteppableEngine;
use nocem_stats::congestion::VcOccupancy;
use nocem_stats::window::Window;
use nocem_telemetry::LinkStat;
use nocem_topology::routing::RoutingTables;

/// How many congested links a point keeps (enough to paint the whole
/// bisection cut of an 8×8 mesh, small enough to stay cheap).
pub const TOP_LINKS: usize = 8;

/// How long a load point runs and which part of it is measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeasureConfig {
    /// Cycles discarded before the measurement window opens (the
    /// network fills to steady state).
    pub warmup_cycles: u64,
    /// Length of the measurement window in cycles.
    pub measure_cycles: u64,
}

impl Default for MeasureConfig {
    fn default() -> Self {
        MeasureConfig {
            warmup_cycles: 1_024,
            measure_cycles: 4_096,
        }
    }
}

impl MeasureConfig {
    /// Total cycles a point runs.
    pub fn total_cycles(&self) -> u64 {
        self.warmup_cycles + self.measure_cycles
    }
}

/// One measured load point of a curve.
#[derive(Debug, Clone, PartialEq)]
pub struct PointMeasurement {
    /// Nominal offered load per node (fraction of link bandwidth =
    /// flits/cycle/node).
    pub offered: f64,
    /// Accepted throughput inside the window, flits/cycle/node.
    pub accepted: f64,
    /// Latency samples inside the window (packets injected there and
    /// delivered).
    pub packets_measured: u64,
    /// Mean network latency (injection → delivery) of the samples.
    pub mean_network_latency: Option<f64>,
    /// Median network latency.
    pub p50: Option<u64>,
    /// 95th-percentile network latency.
    pub p95: Option<u64>,
    /// 99th-percentile network latency.
    pub p99: Option<u64>,
    /// Mean total latency (release → delivery) — includes source
    /// queueing, the quantity that diverges past saturation.
    pub mean_total_latency: Option<f64>,
    /// Per-VC input-buffer occupancy watermarks over the whole run.
    pub vc_occupancy: VcOccupancy,
    /// Cycles a traffic model spent stalled on a full source queue.
    pub stalled_cycles: u64,
    /// End of the measurement window (deterministic across clock
    /// modes and engines; the run itself may coast a few quiescent
    /// cycles further under gating).
    pub cycles: u64,
    /// Cycles the fast-forward kernel jumped — machinery only, the
    /// one field that legitimately differs between clock modes.
    pub cycles_skipped: u64,
    /// Windowed-telemetry extract of the point, when the spec enabled
    /// telemetry (`None` = telemetry off, the default).
    pub telemetry: Option<PointTelemetry>,
    /// Host-side phase profile of the point's run, when the config
    /// enabled profiling (`None` = profiling off, the default). Host
    /// timing, so engine- and machine-dependent — excluded from
    /// [`PointMeasurement::behavioral`] equivalence.
    pub profile: Option<nocem::profile::PhaseReport>,
}

/// The bottleneck extract of one load point's telemetry: which links
/// absorbed the congestion.
///
/// Only **gating-invariant** data is kept. A gated point may coast a
/// few quiescent cycles past the fixed-cycle target and record extra
/// trailing windows, so window *counts* differ across clock modes —
/// but those extra windows are zero-delta, so per-link lifetime
/// *totals* (and their ranking) are identical on every engine and
/// clock mode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointTelemetry {
    /// Telemetry window length in cycles.
    pub window: u64,
    /// The `TOP_LINKS` most-blocked links, descending by lifetime
    /// blocked cycles (ties broken by link id).
    pub top_links: Vec<LinkStat>,
}

impl PointTelemetry {
    /// The single most congested link, when any link blocked at all.
    pub fn hottest(&self) -> Option<&LinkStat> {
        self.top_links.first().filter(|l| l.blocked > 0)
    }
}

impl PointMeasurement {
    /// The measurement with the machinery-only gating counter cleared
    /// — what cross-mode/cross-engine equivalence compares, since
    /// skipping is the one *intended* difference.
    #[must_use]
    pub fn behavioral(&self) -> PointMeasurement {
        PointMeasurement {
            cycles_skipped: 0,
            profile: None,
            ..self.clone()
        }
    }
}

/// Rewrites a (budgeted, stop-on-delivered) scenario configuration
/// into the open-loop form a steady-state measurement needs.
fn open_loop(config: &mut PlatformConfig, measure: &MeasureConfig) {
    config.stop.delivered_packets = None;
    // Generous limit: the run is bounded by `run_engine_until`, never
    // by the limit; the slack absorbs a final gated fast-forward.
    config.stop.cycle_limit = measure.total_cycles() * 2 + 64;
    for g in &mut config.generators {
        match g {
            TrafficModel::Uniform(u) => u.budget = None,
            TrafficModel::Burst(b) => b.budget = None,
            TrafficModel::Poisson(p) => p.budget = None,
            // Trace generators replay a finite recording; they keep
            // their natural length.
            _ => {}
        }
    }
}

/// Measures one load point: runs `config` open-loop for the warm-up
/// plus measurement window and extracts the windowed statistics.
///
/// `offered` is the nominal per-node offered load recorded into the
/// measurement (the load axis of the curve). `routing` optionally
/// reuses tables from [`nocem::compile::compute_routing`] — a
/// saturation search elaborates routing once and passes it to every
/// point.
///
/// # Errors
///
/// Returns [`CurveError`] on compile or run failures.
pub fn measure_config(
    config: &PlatformConfig,
    routing: Option<&RoutingTables>,
    measure: &MeasureConfig,
    offered: f64,
) -> Result<PointMeasurement, CurveError> {
    let mut cfg = config.clone();
    open_loop(&mut cfg, measure);
    let window = Window::after_warmup(
        measure.warmup_cycles,
        measure.measure_cycles,
        measure.total_cycles(),
    );
    let mut engine = AnyEngine::build_routed(&cfg, routing)?;
    engine.watch(window).map_err(EmulationError::from)?;
    run_engine_until(&mut engine, measure.total_cycles())?;
    engine.seal_telemetry();
    let telemetry = engine.telemetry().map(|c| PointTelemetry {
        window: c.window_cycles(),
        top_links: c.top_blocked(TOP_LINKS),
    });
    let profile = engine.profile();
    let results = engine.results()?;
    let (net, total) = engine
        .ledger()
        .watched()
        .expect("the ledger watches the window");
    let nodes = cfg.topology.generators().len().max(1) as f64;
    Ok(PointMeasurement {
        offered,
        accepted: net.accepted_flits_per_cycle() / nodes,
        packets_measured: net.samples(),
        mean_network_latency: net.mean(),
        p50: net.p50(),
        p95: net.p95(),
        p99: net.p99(),
        mean_total_latency: total.mean(),
        vc_occupancy: results.vc_occupancy,
        stalled_cycles: results.stalled_cycles,
        cycles: window.end,
        cycles_skipped: results.cycles_skipped,
        telemetry,
        profile,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nocem::clock::ClockMode;
    use nocem::config::EngineKind;
    use nocem_scenarios::registry::ScenarioRegistry;
    use nocem_scenarios::scenario::TopologySpec;

    fn mesh_config(load: f64) -> PlatformConfig {
        ScenarioRegistry::builtin()
            .resolve("uniform_random")
            .unwrap()
            .build_config(
                TopologySpec::Mesh {
                    width: 4,
                    height: 4,
                },
                load,
                4,
                1_000_000,
            )
            .unwrap()
    }

    #[test]
    fn low_load_point_tracks_offered_load() {
        let m = measure_config(
            &mesh_config(0.10),
            None,
            &MeasureConfig {
                warmup_cycles: 512,
                measure_cycles: 2_048,
            },
            0.10,
        )
        .unwrap();
        assert!(m.packets_measured > 0);
        assert!(
            (m.accepted - 0.10).abs() < 0.02,
            "accepted {} should track offered 0.10",
            m.accepted
        );
        assert!(m.mean_network_latency.unwrap() > 0.0);
        assert!(m.p50 <= m.p95 && m.p95 <= m.p99);
        assert!(m.vc_occupancy.overall_max() >= 1);
        assert_eq!(m.cycles, 2_560);
    }

    #[test]
    fn gated_and_compiled_measurements_match_the_baseline() {
        let measure = MeasureConfig {
            warmup_cycles: 256,
            measure_cycles: 1_024,
        };
        let base = measure_config(&mesh_config(0.15), None, &measure, 0.15).unwrap();
        let mut gated = mesh_config(0.15);
        gated.clock_mode = ClockMode::Gated;
        gated.engine = EngineKind::Compiled;
        let fast = measure_config(&gated, None, &measure, 0.15).unwrap();
        assert_eq!(fast.behavioral(), base.behavioral());
    }

    #[test]
    fn telemetry_extract_is_engine_and_mode_invariant() {
        let measure = MeasureConfig {
            warmup_cycles: 256,
            measure_cycles: 1_024,
        };
        let mut base_cfg = mesh_config(0.60);
        base_cfg.telemetry = Some(nocem_telemetry::TelemetryConfig::windowed(256));
        let base = measure_config(&base_cfg, None, &measure, 0.60).unwrap();
        let mut fast_cfg = base_cfg.clone();
        fast_cfg.clock_mode = ClockMode::Gated;
        fast_cfg.engine = EngineKind::Compiled;
        let fast = measure_config(&fast_cfg, None, &measure, 0.60).unwrap();
        let tel = base.telemetry.as_ref().expect("telemetry was enabled");
        assert_eq!(tel.window, 256);
        assert_eq!(tel.top_links.len(), TOP_LINKS);
        let hot = tel.hottest().expect("0.60 load blocks somewhere");
        assert!(hot.blocked > 0 && hot.rate() > 0.0);
        // Per-link lifetime totals (and with them the bottleneck
        // ranking) are gating- and engine-invariant even though a
        // gated run may coast extra quiescent windows.
        assert_eq!(fast.telemetry, base.telemetry);
        assert_eq!(fast.behavioral(), base.behavioral());
    }

    #[test]
    fn profiled_point_carries_phase_shares() {
        let measure = MeasureConfig {
            warmup_cycles: 256,
            measure_cycles: 1_024,
        };
        let base = measure_config(&mesh_config(0.15), None, &measure, 0.15).unwrap();
        assert!(base.profile.is_none(), "profiling defaults to off");
        let mut cfg = mesh_config(0.15);
        cfg.profile = Some(nocem::profile::ProfileConfig::default());
        let profiled = measure_config(&cfg, None, &measure, 0.15).unwrap();
        let report = profiled.profile.as_ref().expect("profiling was enabled");
        assert!(report.total_ns > 0);
        assert!(report.stepped_cycles > 0);
        let share_sum: f64 = nocem::profile::Phase::ALL
            .iter()
            .map(|&p| report.share_of(p))
            .sum();
        assert!(
            (share_sum - 1.0).abs() < 1e-9,
            "phase shares must sum to 1, got {share_sum}"
        );
        // Host timing is not behaviour: the profiled point still
        // matches the unprofiled baseline bit for bit.
        assert_eq!(profiled.behavioral(), base.behavioral());
    }

    #[test]
    fn overloaded_point_accepts_less_than_offered() {
        // 90% offered uniform-random on a mesh is far past saturation.
        let m = measure_config(
            &mesh_config(0.90),
            None,
            &MeasureConfig {
                warmup_cycles: 512,
                measure_cycles: 2_048,
            },
            0.90,
        )
        .unwrap();
        assert!(
            m.accepted < 0.75,
            "accepted {} must fall short of offered 0.90",
            m.accepted
        );
        assert!(m.stalled_cycles > 0, "source queues must back-pressure");
    }
}
