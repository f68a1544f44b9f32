//! Shared harness utilities for the experiment-reproduction binaries.
//!
//! Every table and figure of the paper has one binary in `src/bin/`;
//! they share the measurement and reporting helpers defined here. Run
//! them with `--release`; set `NOCEM_QUICK=1` to shrink the sweeps for
//! smoke testing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use nocem::config::{PaperConfig, PlatformConfig, TrafficModel};
use nocem::engine::build;
use nocem::error::EmulationError;
use nocem::SteppableEngine;
use nocem_rtl::model::RtlEngine;
use nocem_tlm::model::TlmEngine;
use std::time::Instant;

/// The paper's Table 2 reference rows: `(label, cycles per second)`.
pub const PAPER_TABLE2: [(&str, f64); 3] = [
    ("Our Emulation", 50e6),
    ("SystemC (MPARM)", 20e3),
    ("Verilog (ModelSim)", 3.2e3),
];

/// Cycles per packet implied by the paper's Table 2 (16 Mpackets in
/// 3.2 s at 50 Mcycles/s → 10 cycles per packet).
pub const PAPER_CYCLES_PER_PACKET: f64 = 10.0;

/// Paper Table 1 reference: `(device, slices, percent)`.
pub const PAPER_TABLE1: [(&str, u64, f64); 5] = [
    ("TG stochastic", 719, 7.8),
    ("TG trace driven", 652, 7.0),
    ("TR stochastic", 371, 4.0),
    ("TR trace driven", 690, 7.4),
    ("Control module", 18, 0.2),
];

/// Paper Table 1 platform total (4 TG + 4 TR + 6 switches).
pub const PAPER_PLATFORM_SLICES: u64 = 7_387;
/// Paper Table 1 platform utilization.
pub const PAPER_PLATFORM_UTILIZATION: f64 = 0.80;
/// Paper platform clock in MHz.
pub const PAPER_CLOCK_MHZ: f64 = 50.0;

/// Whether quick (smoke-test) mode is active (`NOCEM_QUICK=1`).
pub fn quick_mode() -> bool {
    std::env::var("NOCEM_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Worker count for parallel sweeps: available parallelism, or 4
/// when it cannot be determined.
pub fn num_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Scales a sweep size down in quick mode.
pub fn scaled(full: u64) -> u64 {
    if quick_mode() {
        (full / 20).max(100)
    } else {
        full
    }
}

/// An unbounded paper-platform configuration for speed measurement
/// (generators never exhaust).
pub fn endless_paper_config() -> PlatformConfig {
    let mut cfg = PaperConfig::new().uniform();
    for g in &mut cfg.generators {
        if let TrafficModel::Uniform(u) = g {
            u.budget = None;
        }
    }
    cfg.stop.delivered_packets = None;
    cfg.stop.cycle_limit = u64::MAX;
    cfg
}

/// Measured simulation speed of one engine.
#[derive(Debug, Clone, Copy)]
pub struct MeasuredSpeed {
    /// Simulated cycles per wall-clock second.
    pub cycles_per_second: f64,
    /// Cycles simulated during the measurement.
    pub cycles: u64,
    /// Wall-clock seconds spent.
    pub seconds: f64,
}

fn measure<S>(
    mut step: S,
    min_cycles: u64,
    min_seconds: f64,
) -> Result<MeasuredSpeed, EmulationError>
where
    S: FnMut() -> Result<(), EmulationError>,
{
    // Warm up caches and branch predictors.
    for _ in 0..min_cycles / 10 {
        step()?;
    }
    let t0 = Instant::now();
    let mut cycles = 0u64;
    loop {
        for _ in 0..min_cycles {
            step()?;
        }
        cycles += min_cycles;
        if t0.elapsed().as_secs_f64() >= min_seconds {
            break;
        }
    }
    let seconds = t0.elapsed().as_secs_f64().max(1e-9);
    Ok(MeasuredSpeed {
        cycles_per_second: cycles as f64 / seconds,
        cycles,
        seconds,
    })
}

/// Measures the fast emulation engine on the endless paper platform.
///
/// # Errors
///
/// Propagates engine faults (which a correct build never produces).
pub fn measure_emulation_speed(min_seconds: f64) -> Result<MeasuredSpeed, EmulationError> {
    let mut emu = build(&endless_paper_config()).expect("paper config compiles");
    measure(|| emu.step(), 50_000, min_seconds)
}

/// Measures the TLM (SystemC-analog) engine.
///
/// # Errors
///
/// Propagates engine faults.
pub fn measure_tlm_speed(min_seconds: f64) -> Result<MeasuredSpeed, EmulationError> {
    let elab = nocem::compile::elaborate(&endless_paper_config()).expect("config compiles");
    let mut engine = TlmEngine::new(elab);
    measure(|| engine.step(), 20_000, min_seconds)
}

/// Measures the RTL (ModelSim-analog) engine.
///
/// # Errors
///
/// Propagates engine faults.
pub fn measure_rtl_speed(min_seconds: f64) -> Result<MeasuredSpeed, EmulationError> {
    let elab = nocem::compile::elaborate(&endless_paper_config()).expect("config compiles");
    let mut engine = RtlEngine::new(elab);
    measure(|| engine.step(), 10_000, min_seconds)
}

/// Per-cycle work of each engine on identical traffic — the
/// load-independent proxy behind the Table 2 ordering: the engines do
/// the same *simulation* work, so their relative speed is set by how
/// much *machinery* they run per simulated cycle. These are counted
/// operations, deterministic for a given configuration and seed, and
/// immune to wall-clock noise from a contended CPU.
#[derive(Debug, Clone, Copy)]
pub struct EngineWorkPerCycle {
    /// Fast emulation engine: a flat sweep over every component (TGs,
    /// NIs, switches) with no scheduling machinery at all — its
    /// per-cycle work is the component count.
    pub emulation: f64,
    /// TLM engine: scheduler process activations, committed channel
    /// updates and watcher calls per cycle.
    pub tlm: f64,
    /// RTL engine: kernel process activations, dispatched signal
    /// events and delta cycles per cycle.
    pub rtl: f64,
}

/// Counts each engine's machinery operations over `cycles` simulated
/// cycles of the endless paper platform.
///
/// # Errors
///
/// Propagates engine faults (which a correct build never produces).
///
/// # Panics
///
/// Panics if `cycles == 0`.
pub fn measure_work_per_cycle(cycles: u64) -> Result<EngineWorkPerCycle, EmulationError> {
    assert!(cycles > 0, "need at least one cycle");
    let cfg = endless_paper_config();

    let elab = nocem::compile::elaborate(&cfg).expect("paper config compiles");
    let emulation = (elab.tgs.len() + elab.nis.len() + cfg.topology.switch_count()) as f64;

    let mut tlm = TlmEngine::new(elab);
    for _ in 0..cycles {
        tlm.step()?;
    }
    let s = tlm.fabric().stats();
    let tlm_work = (s.activations + s.channel_updates + s.watcher_calls) as f64 / cycles as f64;

    let mut rtl = RtlEngine::new(nocem::compile::elaborate(&cfg).expect("paper config compiles"));
    for _ in 0..cycles {
        rtl.step()?;
    }
    let k = rtl.fabric().stats();
    let rtl_work = (k.activations + k.signal_events + k.delta_cycles) as f64 / cycles as f64;

    Ok(EngineWorkPerCycle {
        emulation,
        tlm: tlm_work,
        rtl: rtl_work,
    })
}

/// Writes an experiment CSV under `results/`, creating the directory.
///
/// # Panics
///
/// Panics when the filesystem refuses the write — harness output is
/// non-optional.
pub fn save_csv(name: &str, content: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir).expect("create results directory");
    let path = dir.join(name);
    std::fs::write(&path, content).expect("write experiment csv");
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endless_config_never_exhausts() {
        let cfg = endless_paper_config();
        let mut emu = build(&cfg).unwrap();
        for _ in 0..5_000 {
            emu.step().unwrap();
        }
        assert!(!emu.finished());
        assert!(emu.delivered() > 0);
    }

    #[test]
    fn speed_measurement_is_positive() {
        let s = measure_emulation_speed(0.05).unwrap();
        assert!(s.cycles_per_second > 10_000.0, "{s:?}");
        assert!(s.cycles > 0);
    }

    #[test]
    fn engine_speed_ordering_holds() {
        // The Table 2 shape: emulation > TLM > RTL in speed, i.e.
        // emulation < TLM < RTL in machinery per simulated cycle. The
        // counted proxy is deterministic — no wall clock, no retry
        // loop, no sensitivity to parallel test binaries on one CPU.
        let w = measure_work_per_cycle(4_096).unwrap();
        assert!(
            w.emulation < w.tlm,
            "fast engine must be the leanest: emulation {:.1} vs TLM {:.1} ops/cycle",
            w.emulation,
            w.tlm
        );
        assert!(
            w.tlm < w.rtl,
            "RTL pays per-signal events on top of TLM's channels: TLM {:.1} vs RTL {:.1} ops/cycle",
            w.tlm,
            w.rtl
        );
    }

    #[test]
    fn work_per_cycle_is_deterministic() {
        let a = measure_work_per_cycle(512).unwrap();
        let b = measure_work_per_cycle(512).unwrap();
        assert_eq!(a.emulation, b.emulation);
        assert_eq!(a.tlm, b.tlm);
        assert_eq!(a.rtl, b.rtl);
        // The Table 2 cost models, pinned: the same processes in the
        // same order do the same machinery per cycle.
        let w = measure_work_per_cycle(5_000).unwrap();
        assert_eq!((w.emulation, w.tlm, w.rtl), (14.0, 19.9564, 20.9568));
    }

    #[test]
    fn quick_scaling() {
        // Without the env var, scaled is identity.
        if !quick_mode() {
            assert_eq!(scaled(1_000), 1_000);
        }
    }
}
