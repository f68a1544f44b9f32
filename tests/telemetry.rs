//! Integration tests of the observability stack: windowed series that
//! sum exactly to the lifetime counters, collectors that are invariant
//! across engines and clock modes, bus-readable monitor registers, and
//! bottleneck localization on meshes past saturation.

use nocem::clock::{run_engine_until, ClockMode, SteppableEngine};
use nocem::config::{EngineKind, PaperConfig, PlatformConfig};
use nocem::devices::MonitorDriver;
use nocem::engine::{build, Emulation};
use nocem::sweep::AnyEngine;
use nocem::Board;
use nocem_common::choice::check;
use nocem_common::ids::LinkId;
use nocem_common::{prop_assert, prop_assert_eq};
use nocem_platform::bus::DeviceClass;
use nocem_scenarios::registry::ScenarioRegistry;
use nocem_scenarios::scenario::TopologySpec;
use nocem_telemetry::{Collector, LinkStat, TelemetryConfig};

/// Builds and runs the paper platform to completion with telemetry,
/// seals the collector and returns the emulation.
fn run_paper(cfg: &PlatformConfig) -> Emulation {
    let mut emu = build(cfg).expect("config compiles");
    emu.run().expect("run completes");
    emu.seal_telemetry();
    emu
}

/// A uniform-random mesh configuration from the scenario registry.
fn mesh_config(spec: TopologySpec, load: f64, window: u64) -> PlatformConfig {
    let mut cfg = ScenarioRegistry::builtin()
        .resolve("uniform_random")
        .unwrap()
        .build_config(spec, load, 4, 1_000_000)
        .unwrap();
    cfg.telemetry = Some(TelemetryConfig::windowed(window));
    cfg
}

/// The conservation law of windowed telemetry: for every link, the
/// totals equal the lifetime counters the switches and NIs kept
/// whatever the ring overwrote, and while the ring has overwritten
/// nothing the window samples sum to them — nothing is lost at
/// window boundaries or on gated fast-forwards.
#[test]
fn windowed_series_sum_to_lifetime_counters() {
    check("windowed_series_sum_to_lifetime_counters", 0..12, |c| {
        let (packets, burst) = (c.range(100u64..600), c.range(1u32..16));
        let (window, capacity) = (c.range(16u64..512), c.range(2usize..16));
        let (seed, gated) = (c.range(0u64..1_000_000), c.bool());
        let pc = PaperConfig::new().total_packets(packets).seed(seed);
        let mut cfg = if burst == 1 {
            pc.uniform()
        } else {
            pc.burst(burst)
        };
        cfg.clock_mode = if gated {
            ClockMode::Gated
        } else {
            ClockMode::EveryCycle
        };
        cfg.telemetry = Some(TelemetryConfig {
            capacity,
            ..TelemetryConfig::windowed(window)
        });
        let mut emu = run_paper(&cfg);
        let cc = emu.results().congestion;
        let t = emu.telemetry().expect("telemetry enabled");
        prop_assert!(t.is_sealed());
        prop_assert!(t.windows_recorded() > 0);
        let evicted = t.windows_recorded() > capacity as u64;
        for l in 0..t.links() {
            let link = LinkId::new(l as u32);
            let lifetime = (cc.forwarded(link), cc.blocked(link));
            prop_assert_eq!((t.total_forwarded(link), t.total_blocked(link)), lifetime);
            let sums = (t.history(link)).fold((0, 0), |(f, b), w| (f + w.forwarded, b + w.blocked));
            if evicted {
                prop_assert!(sums.0 <= lifetime.0 && sums.1 <= lifetime.1);
            } else {
                prop_assert_eq!(sums, lifetime);
            }
        }
        Ok(())
    });
}

#[test]
fn gated_and_ungated_runs_record_identical_collectors() {
    let collector = |mode: ClockMode| {
        let mut cfg = PaperConfig::new().total_packets(400).burst(8);
        cfg.clock_mode = mode;
        cfg.telemetry = Some(TelemetryConfig::windowed(64));
        let emu = run_paper(&cfg);
        emu.telemetry().expect("telemetry enabled").clone()
    };
    // A delivered-packets run ends at the same cycle under both modes,
    // so the collectors agree bit for bit — including window counts.
    assert_eq!(
        collector(ClockMode::Gated),
        collector(ClockMode::EveryCycle)
    );
}

#[test]
fn compiled_and_single_threaded_collectors_agree_through_any_engine() {
    let collector = |engine: EngineKind| -> Collector {
        let mut cfg = mesh_config(
            TopologySpec::Mesh {
                width: 4,
                height: 4,
            },
            0.30,
            128,
        );
        cfg.engine = engine;
        let mut e = AnyEngine::build(&cfg).unwrap();
        run_engine_until(&mut e, 2_048).unwrap();
        e.seal_telemetry();
        SteppableEngine::telemetry(&e)
            .expect("telemetry enabled")
            .clone()
    };
    let single = collector(EngineKind::SingleThread);
    let compiled = collector(EngineKind::Compiled);
    assert_eq!(single, compiled);
    assert!(single.windows_recorded() >= 16);
}

/// The engines the monitor registers are read on.
const BUS_ENGINES: [EngineKind; 2] = [EngineKind::SingleThread, EngineKind::Compiled];

#[test]
fn monitor_registers_expose_the_collector_over_the_bus() {
    for engine in BUS_ENGINES {
        let mut cfg = PaperConfig::new()
            .total_packets(500)
            .uniform()
            .with_engine(engine);
        cfg.telemetry = Some(TelemetryConfig::windowed(128));
        let mut emu = Board::build(&cfg).unwrap();
        nocem::run_engine(emu.engine_mut()).expect("run completes");
        emu.engine_mut().seal_telemetry();

        // Snapshot the collector's view first (immutable borrow), then
        // read everything back through the memory-mapped monitor device.
        let t = emu.engine().telemetry().unwrap();
        let expected: Vec<(u64, u64, u64, u64)> = (0..t.links())
            .map(|l| {
                let link = LinkId::new(l as u32);
                (
                    t.last_forwarded(link),
                    t.last_blocked(link),
                    t.total_forwarded(link),
                    t.total_blocked(link),
                )
            })
            .collect();
        let (windows, hot): (u64, LinkStat) = (t.windows_recorded(), t.hottest().unwrap());

        let map = emu.address_map().clone();
        let mon = map
            .of_class(DeviceClass::Monitor)
            .next()
            .expect("telemetry-enabled platform exposes a monitor device");
        let drv = MonitorDriver::new(mon.addr);
        assert_eq!(drv.window(&mut emu).unwrap(), Some(128), "{engine:?}");
        assert_eq!(u64::from(drv.windows(&mut emu).unwrap()), windows);
        assert_eq!(drv.links(&mut emu).unwrap() as usize, expected.len());
        for (l, (lf, lb, tf, tb)) in expected.iter().enumerate() {
            drv.select(&mut emu, l as u32).unwrap();
            assert_eq!(drv.last_forwarded(&mut emu).unwrap(), *lf, "{engine:?}");
            assert_eq!(drv.last_blocked(&mut emu).unwrap(), *lb, "{engine:?}");
            assert_eq!(drv.total_forwarded(&mut emu).unwrap(), *tf, "{engine:?}");
            assert_eq!(drv.total_blocked(&mut emu).unwrap(), *tb, "{engine:?}");
        }
        let (hot_link, hot_blocked) = drv.hottest(&mut emu).unwrap();
        assert_eq!(hot_link, hot.link.raw(), "{engine:?}");
        assert_eq!(hot_blocked, hot.blocked, "{engine:?}");
    }
}

#[test]
fn platform_without_telemetry_maps_a_monitor_that_reads_telemetry_off() {
    for engine in BUS_ENGINES {
        let cfg = PaperConfig::new()
            .total_packets(10)
            .uniform()
            .with_engine(engine);
        let mut emu = Board::build(&cfg).unwrap();
        let mon = emu.address_map().of_class(DeviceClass::Monitor).next();
        assert!(
            mon.is_some(),
            "the monitor device is always mapped; reads just report telemetry off"
        );
        let drv = MonitorDriver::new(mon.unwrap().addr);
        assert_eq!(drv.window(&mut emu).unwrap(), None, "{engine:?}");
    }
}

/// Whether an inter-switch link crosses the vertical or horizontal
/// midline of the mesh.
fn crosses_bisection(topo: &nocem_topology::graph::Topology, id: LinkId) -> bool {
    let grid = topo.grid().expect("mesh has grid metadata");
    let link = topo.link(id);
    let (Some(a), Some(b)) = (link.from_switch(), link.to_switch()) else {
        return false;
    };
    let (ax, ay) = grid.coords(a);
    let (bx, by) = grid.coords(b);
    (ax < grid.width / 2) != (bx < grid.width / 2)
        || (ay < grid.height / 2) != (by < grid.height / 2)
}

/// On a 4×4 mesh the backpressure tree is shallow enough that the
/// single most blocked link past saturation *is* a bisection link —
/// the localization result the CI smoke re-asserts on every release
/// build.
#[test]
fn mesh4x4_past_saturation_hottest_link_crosses_the_bisection() {
    let spec = TopologySpec::Mesh {
        width: 4,
        height: 4,
    };
    let mut cfg = mesh_config(spec, 0.70, 256);
    cfg.stop.delivered_packets = None;
    cfg.stop.cycle_limit = 10_000;
    let mut e = AnyEngine::build(&cfg).unwrap();
    run_engine_until(&mut e, 4_096).unwrap();
    e.seal_telemetry();
    let hot = SteppableEngine::telemetry(&e)
        .expect("telemetry enabled")
        .hottest()
        .expect("a saturated mesh blocks");
    let topo = spec.build().unwrap();
    assert!(
        crosses_bisection(&topo, hot.link),
        "hottest link {} does not cross a bisection",
        hot.link
    );
}

/// The acceptance scenario of the observability PR: uniform-random on
/// mesh8x8 driven past saturation. All three execution strategies —
/// interpreted ungated, interpreted gated, compiled gated —
/// must attribute the congestion to the *same* links, and the
/// attribution must localize the saturated dimension: every top
/// blocked link is an inter-switch link of the x-traversal (where XY
/// routing funnels the overload), and the bisection cut runs far
/// hotter than the network average. (The *single* most blocked link
/// of a deep mesh sits at the tail of the backpressure tree, one or
/// two hops upstream of the cut — wormhole blocking accumulates where
/// flits wait longest, not where the cut itself is.)
#[test]
fn past_saturation_bottlenecks_localize_identically_on_every_engine() {
    let spec = TopologySpec::Mesh {
        width: 8,
        height: 8,
    };
    let run = |mode: ClockMode, engine: EngineKind| -> (Vec<LinkStat>, Vec<LinkStat>) {
        // 0.60 offered is roughly twice the saturation load.
        let mut cfg = mesh_config(spec, 0.60, 256);
        cfg.clock_mode = mode;
        cfg.engine = engine;
        let mut e = AnyEngine::build(&cfg).unwrap();
        run_engine_until(&mut e, 4_096).unwrap();
        e.seal_telemetry();
        let t = SteppableEngine::telemetry(&e).expect("telemetry enabled");
        (t.top_blocked(8), t.link_totals())
    };
    let (top, totals) = run(ClockMode::EveryCycle, EngineKind::SingleThread);
    let gated = run(ClockMode::Gated, EngineKind::SingleThread);
    let compiled = run(ClockMode::Gated, EngineKind::Compiled);
    // Identical attribution everywhere. (Gated runs may coast extra
    // quiescent windows past the cycle target, but per-link totals —
    // and with them the ranking — are unaffected by zero deltas.)
    assert_eq!(gated, (top.clone(), totals.clone()));
    assert_eq!(compiled, (top.clone(), totals.clone()));

    let topo = spec.build().unwrap();
    let grid = topo.grid().expect("mesh has grid metadata").clone();
    for l in &top {
        assert!(l.blocked > 0, "a saturated mesh blocks on its top links");
        let link = topo.link(l.link);
        let (a, b) = match (link.from_switch(), link.to_switch()) {
            (Some(a), Some(b)) => (a, b),
            _ => panic!("top blocked link {} is not inter-switch", l.link),
        };
        let (ax, ay) = grid.coords(a);
        let (bx, by) = grid.coords(b);
        assert!(
            ax != bx && ay == by,
            "top blocked link {} (s{}->s{}) is not an x-traversal link",
            l.link,
            a.raw(),
            b.raw()
        );
    }
    // The vertical bisection cut — the one the saturated x-traversals
    // funnel through — carries the congestion: its links block at
    // least 1.5x the all-links average (empirically ~2x).
    let crosses_vertical_cut = |id: LinkId| {
        let link = topo.link(id);
        let (Some(a), Some(b)) = (link.from_switch(), link.to_switch()) else {
            return false;
        };
        let ((ax, ay), (bx, by)) = (grid.coords(a), grid.coords(b));
        ay == by && (ax < grid.width / 2) != (bx < grid.width / 2)
    };
    let (mut cut_sum, mut cut_n, mut all_sum, mut all_n) = (0u64, 0u64, 0u64, 0u64);
    for l in &totals {
        all_sum += l.blocked;
        all_n += 1;
        if crosses_vertical_cut(l.link) {
            cut_sum += l.blocked;
            cut_n += 1;
        }
    }
    let cut_mean = cut_sum as f64 / cut_n as f64;
    let all_mean = all_sum as f64 / all_n as f64;
    assert!(
        cut_mean >= 1.5 * all_mean,
        "bisection links average {cut_mean:.0} blocked cycles vs {all_mean:.0} overall"
    );
}
