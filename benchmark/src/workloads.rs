//! The five workloads: what each runs and why it was chosen. Inputs are
//! made here from the seed; the program sees only the generated
//! `PlatformConfig` (or curve-set spec).

use nocem::{ClockMode, EngineKind, PlatformConfig, TrafficModel};
use nocem_curves::{CurveSetSpec, CurveSpec, MeasureConfig};
use nocem_scenarios::{ScenarioRegistry, TopologySpec};
use nocem_telemetry::TelemetryConfig;

/// A fixed-length open-loop run of one platform on one engine.
#[derive(Clone, Copy)]
pub struct Stepping {
    pub topology: TopologySpec,
    /// Offered load per node, as a share of link capacity.
    pub load: f64,
    pub engine: EngineKind,
    pub clock_mode: ClockMode,
    /// Simulated cycles of the timed run stage. Fixed, so the simulated
    /// statistics repeat exactly and only host time varies.
    pub cycles: u64,
    /// Cycles the engine is run against `EngineKind::SingleThread`
    /// before anything is timed.
    pub oracle_prefix: u64,
}

pub enum Kind {
    Stepping(Stepping),
    /// `CurveSetSpec::run` over [`curve_set`], then both CSVs.
    Curves,
}

pub struct Workload {
    pub name: &'static str,
    /// One line; `BENCHMARK.json` carries the same text.
    pub why: &'static str,
    pub kind: Kind,
    /// A run makes at least this many repetitions even if `--seconds`
    /// is spent sooner.
    pub min_reps: usize,
    /// Set-ups timed per repetition: the first, cold one is part of
    /// `wall_s`; the rest follow back to back after the clock stops.
    /// Where one set-up is a few milliseconds a run needs some fifty
    /// samples for a median that is not a coin-flip.
    pub setup_builds: usize,
}

const fn mesh(side: u32) -> TopologySpec {
    TopologySpec::Mesh {
        width: side,
        height: side,
    }
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "sat_mesh8x8",
        why: "Headline cell: mesh8x8 at 40% load on the compiled engine, every cycle stepped; decide+commit dominate and set-up is <1% of wall, so kernel work shows here and pipeline work does not.",
        kind: Kind::Stepping(Stepping {
            topology: mesh(8),
            load: 0.40,
            engine: EngineKind::Compiled,
            clock_mode: ClockMode::EveryCycle,
            cycles: 100_000,
            oracle_prefix: 5_000,
        }),
        min_reps: 7,
        setup_builds: 8,
    },
    Workload {
        name: "lowload_mesh12x12",
        why: "Sparse traffic: mesh12x12 at 0.1% load, gated clock. Gating skips 63% of cycles; tg-tick+ni-inject+fast-forward+probe cost as much as decide+commit (3/4 of a step on sat_mesh8x8): fixed scans show.",
        kind: Kind::Stepping(Stepping {
            topology: mesh(12),
            load: 0.001,
            engine: EngineKind::Compiled,
            clock_mode: ClockMode::Gated,
            cycles: 2_000_000,
            oracle_prefix: 50_000,
        }),
        min_reps: 7,
        setup_builds: 3,
    },
    Workload {
        name: "setup_mesh16x16",
        why: "The O(flows) routing wall sized for a shared box: mesh16x16 has 65280 flows, so compute_routing+elaborate+lower+build are about 2/3 of wall for 6000 cycles at 2% load; kernel work barely moves it.",
        kind: Kind::Stepping(Stepping {
            topology: mesh(16),
            load: 0.02,
            engine: EngineKind::Compiled,
            clock_mode: ClockMode::EveryCycle,
            cycles: 6_000,
            oracle_prefix: 1_000,
        }),
        min_reps: 7,
        setup_builds: 1,
    },
    Workload {
        name: "curves_3x3",
        why: "The user-facing product: 9 latency-throughput curves (3 patterns x 3 topologies, ~93 short points) plus CSVs; per-point build, ledger, window stats and probes all matter, no phase dominates.",
        kind: Kind::Curves,
        min_reps: 5,
        setup_builds: 8,
    },
    Workload {
        name: "shard1_mesh8x8",
        why: "The kernel reached through the sharding path: sat_mesh8x8's platform on ShardedCompiled{shards:1,batch:16}; puts coordinator-wait/exchange/apply on the clock. The gap to sat_mesh8x8 should close.",
        kind: Kind::Stepping(Stepping {
            topology: mesh(8),
            load: 0.40,
            engine: EngineKind::ShardedCompiled {
                shards: 1,
                batch: 16,
            },
            clock_mode: ClockMode::EveryCycle,
            cycles: 50_000,
            oracle_prefix: 5_000,
        }),
        min_reps: 7,
        setup_builds: 8,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Stepping {
    /// The platform of this workload for `seed`, on `engine`:
    /// uniform-random 4-flit packets, packet budgets and the delivery
    /// stop condition removed so the run stage is exactly
    /// [`Stepping::cycles`] long. `seed` is XOR-ed into the scenario's
    /// own seed, so seed 0 is the scenario as the registry builds it.
    pub fn config(
        &self,
        registry: &ScenarioRegistry,
        engine: EngineKind,
        seed: u64,
    ) -> Result<PlatformConfig, String> {
        let mut cfg = registry
            .resolve("uniform_random")
            .and_then(|s| s.build_config(self.topology, self.load, 4, 1_000))
            .map_err(|e| e.to_string())?;
        for g in &mut cfg.generators {
            if let TrafficModel::Uniform(u) = g {
                u.budget = None;
            }
        }
        cfg.stop.delivered_packets = None;
        cfg.stop.cycle_limit = u64::MAX;
        cfg.seed ^= seed;
        cfg.engine = engine;
        cfg.clock_mode = self.clock_mode;
        Ok(cfg)
    }
}

/// The curve set of `curves_3x3` — the recipe behind the checked-in
/// `results/*.csv`, on the compiled engine. It takes no seed: the
/// curves API derives every point's seed from its label.
pub fn curve_set() -> CurveSetSpec {
    CurveSetSpec {
        prototype: CurveSpec {
            engine: EngineKind::Compiled,
            clock_mode: ClockMode::Gated,
            telemetry: Some(TelemetryConfig::windowed(1024)),
            measure: MeasureConfig {
                warmup_cycles: 1_024,
                measure_cycles: 8_192,
            },
            ..CurveSpec::new("uniform_random", mesh(4))
        },
        scenarios: ["uniform_random", "transpose", "tornado"]
            .map(String::from)
            .to_vec(),
        topologies: vec![
            mesh(4),
            mesh(8),
            TopologySpec::Torus {
                width: 8,
                height: 8,
            },
        ],
    }
}
