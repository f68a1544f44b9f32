//! The metric catalogue: every name this benchmark can print, with its
//! unit and direction. `BENCHMARK.json` repeats the catalogue for the
//! driver; a unit test keeps the two in step.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the emulator sees, with the share of the
/// parent's median by which it may worsen before a change is a
/// regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// All host time. The issue asked for a bound of a tenth everywhere. The
/// 2-core shared host this was written on changes speed for minutes at
/// a time (`sat_mesh8x8` repetitions at 0.69, 0.88 or 0.9 to 1.3 s with
/// the process never off the CPU), so the medians of ten runs spread by
/// 4 to 25 % between their quartiles depending on the hour, and the
/// three timing bounds are the widest the driver allows; README.md
/// records the spreads measured. Memory repeats to half a percent.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "sim_cycles_per_s",
        unit: "cycles/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
    },
];

/// A metric of one layer (one crate of the program, or one profiler
/// phase inside the engine). No bound: these explain, they do not gate.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// The profiler phases reported as `phase.<name>.ns_per_cycle`: host
/// nanoseconds in the phase per *simulated* cycle of the run stage, so
/// the phases of a workload add up to about `core.step_ns_per_cycle`.
pub const PHASES: [nocem::Phase; 11] = [
    nocem::Phase::Decide,
    nocem::Phase::Commit,
    nocem::Phase::TgTick,
    nocem::Phase::NiInject,
    nocem::Phase::FastForward,
    nocem::Phase::Ledger,
    nocem::Phase::Probe,
    nocem::Phase::CoordWait,
    nocem::Phase::Exchange,
    nocem::Phase::Apply,
    nocem::Phase::WorkerCompute,
];

/// Every traced run reports every one of these; a metric whose layer a
/// workload does not exercise reads 0 there (the sharding phases off
/// `shard1_mesh8x8`, `curves.*` off `curves_3x3`, ...).
pub const PER_LAYER: [PerLayer; 37] = [
    layer("scenarios.build_config_s", "s", Better::Lower),
    layer("topology.compute_routing_s", "s", Better::Lower),
    layer("topology.deadlock_check_s", "s", Better::Lower),
    layer("topology.flows", "count", Better::Lower),
    layer("topology.route_entries", "count", Better::Lower),
    layer("core.elaborate_s", "s", Better::Lower),
    layer("core.lower_s", "s", Better::Lower),
    layer("core.engine_build_s", "s", Better::Lower),
    layer("core.run_s", "s", Better::Lower),
    layer("core.step_ns_per_cycle", "ns/cycle", Better::Lower),
    layer("phase.decide.ns_per_cycle", "ns/cycle", Better::Lower),
    layer("phase.commit.ns_per_cycle", "ns/cycle", Better::Lower),
    layer("phase.tg-tick.ns_per_cycle", "ns/cycle", Better::Lower),
    layer("phase.ni-inject.ns_per_cycle", "ns/cycle", Better::Lower),
    layer("phase.fast-forward.ns_per_cycle", "ns/cycle", Better::Lower),
    layer("phase.ledger.ns_per_cycle", "ns/cycle", Better::Lower),
    layer("phase.probe.ns_per_cycle", "ns/cycle", Better::Lower),
    layer(
        "phase.coordinator-wait.ns_per_cycle",
        "ns/cycle",
        Better::Lower,
    ),
    layer("phase.exchange.ns_per_cycle", "ns/cycle", Better::Lower),
    layer("phase.apply.ns_per_cycle", "ns/cycle", Better::Lower),
    layer(
        "phase.worker-compute.ns_per_cycle",
        "ns/cycle",
        Better::Lower,
    ),
    layer("core.results_s", "s", Better::Lower),
    layer("stats.window_extract_s", "s", Better::Lower),
    layer("curves.s_per_point", "s", Better::Lower),
    layer("curves.points", "count", Better::Lower),
    layer("curves.csv_s", "s", Better::Lower),
    // Simulated statistics: identical run to run and commit to commit,
    // or the run is a failure. The direction is nominal.
    layer("sim.cycles", "cycles", Better::Higher),
    layer("sim.cycles_skipped", "cycles", Better::Higher),
    layer("sim.delivered_packets", "count", Better::Higher),
    layer("sim.delivered_flits", "count", Better::Higher),
    layer("sim.stalled_cycles", "cycles", Better::Lower),
    // The low 48 bits of the FNV-1a digest: exact in any JSON reader.
    layer("sim.ledger_digest", "hash48", Better::Lower),
    layer("oracle.cycles_per_s", "cycles/s", Better::Higher),
    layer("oracle.speedup", "x", Better::Higher),
    layer("host.cpu_share", "share", Better::Higher),
    layer("host.cores", "count", Better::Higher),
    layer("trace.overhead_share", "share", Better::Lower),
];

/// The name a phase is reported under.
pub fn phase_metric(phase: nocem::Phase) -> String {
    format!("phase.{}.ns_per_cycle", phase.name())
}
