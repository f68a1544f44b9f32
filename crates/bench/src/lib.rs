//! The paper's evaluation, reproduced and checked: each of Figures
//! 2–4 and Tables 1–2 is one binary in `src/bin/` and one [`figure`]
//! definition, whose binary prints its table, writes
//! `results/<binary>.csv` and checks the paper's claims. There is one
//! scale, the paper's. Speeds are timed by [`time_steps`] in on-CPU time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figure;

use nocem::config::{PaperConfig, PlatformConfig, TrafficModel};
use nocem::error::EmulationError;
use nocem::SteppableEngine;
use nocem_rtl::model::RtlEngine;
use nocem_tlm::model::TlmEngine;
use std::path::PathBuf;

/// Worker count for parallel sweeps: available parallelism, or 4
/// when it cannot be determined.
pub fn num_threads() -> usize {
    std::thread::available_parallelism().map_or(4, usize::from)
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

/// The speed of repeated timed runs, in simulated cycles per on-CPU
/// second.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Median of the repetitions.
    pub median: f64,
    /// Interquartile range of the repetitions.
    pub iqr: f64,
}

/// Steps `engine` for `cycles` cycles, `reps` times over, and reports
/// the median and interquartile range of the repetitions' speeds.
///
/// Time is this thread's on-CPU time, the first field of
/// `/proc/thread-self/schedstat`, in which waiting for a CPU does not
/// count. The kernel advances it at scheduler ticks (4 ms at 250 Hz),
/// so a repetition should span many.
///
/// # Errors
///
/// Propagates engine faults and fails where the schedstat file cannot
/// be read (there is no wall-clock fallback) or a repetition reads no
/// on-CPU time at all.
///
/// # Panics
///
/// Panics if `reps == 0`.
pub fn time_steps<E: SteppableEngine>(
    engine: &mut E,
    cycles: u64,
    reps: usize,
) -> Result<Timing, Box<dyn std::error::Error>> {
    assert!(reps > 0, "need at least one repetition");
    let cpu_ns = || -> Result<u64, Box<dyn std::error::Error>> {
        let stat = std::fs::read_to_string("/proc/thread-self/schedstat")?;
        Ok(stat.split_whitespace().next().unwrap_or_default().parse()?)
    };
    let mut speeds = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = cpu_ns()?;
        (0..cycles).try_for_each(|_| engine.step())?;
        let ns = cpu_ns()? - t0;
        if ns == 0 {
            return Err(format!("{cycles} cycles read no on-CPU time; time more").into());
        }
        speeds.push(cycles as f64 * 1e9 / ns as f64);
    }
    speeds.sort_by(f64::total_cmp);
    Ok(Timing {
        median: quantile(&speeds, 0.5),
        iqr: quantile(&speeds, 0.75) - quantile(&speeds, 0.25),
    })
}

/// The `q` quantile of ascending `sorted`, interpolated linearly
/// between the two nearest samples.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let at = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
}

/// Per-cycle work of each engine on identical traffic, the proxy
/// behind the Table 2 ordering: the engines do the same simulation, so
/// their relative speed is set by the machinery they run per cycle.
/// The counts are deterministic for a configuration and seed.
#[derive(Debug, Clone, Copy)]
pub struct EngineWorkPerCycle {
    /// Emulation engine: a flat sweep over every component (TGs,
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
    (0..cycles).try_for_each(|_| tlm.step())?;
    let s = tlm.fabric().stats();
    let tlm_work = (s.activations + s.channel_updates + s.watcher_calls) as f64 / cycles as f64;

    let mut rtl = RtlEngine::new(nocem::compile::elaborate(&cfg).expect("paper config compiles"));
    (0..cycles).try_for_each(|_| rtl.step())?;
    let k = rtl.fabric().stats();
    let rtl_work = (k.activations + k.signal_events + k.delta_cycles) as f64 / cycles as f64;

    Ok(EngineWorkPerCycle {
        emulation,
        tlm: tlm_work,
        rtl: rtl_work,
    })
}

/// The workspace's `results/` directory, wherever the binary runs
/// from: the checked-in CSVs live there.
fn results_dir() -> PathBuf {
    let bench = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    bench
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels down")
        .join("results")
}

/// Writes an experiment CSV under the workspace's `results/`,
/// whichever directory the binary runs from, creating the directory.
///
/// # Panics
///
/// Panics when the filesystem refuses the write — harness output is
/// non-optional.
pub fn save_csv(name: &str, content: &str) -> PathBuf {
    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("create results directory");
    let path = dir.join(name);
    std::fs::write(&path, content).expect("write experiment csv");
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use nocem::engine::build;

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
    fn engine_speed_ordering_holds() {
        // The Table 2 shape, checked by the Table 2 claim on its
        // counted proxy: no wall clock, no retry loop.
        let w = measure_work_per_cycle(figure::WORK_CYCLES).unwrap();
        let ops = [("Emulation", w.emulation), ("TLM", w.tlm), ("RTL", w.rtl)];
        figure::engine_order(&ops).unwrap();
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
    fn quantiles_interpolate() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(
            (quantile(&s, 0.25), quantile(&s, 0.5), quantile(&s, 0.75)),
            (2.0, 3.0, 4.0)
        );
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(quantile(&[7.0], 0.75), 7.0);
    }

    #[test]
    fn timer_reports_on_cpu_speed() {
        let mut emu = build(&endless_paper_config()).unwrap();
        let t = time_steps(&mut emu, 20_000, 3).unwrap();
        assert!(t.median.is_finite() && t.median > 0.0, "{t:?}");
        assert!(t.iqr >= 0.0, "{t:?}");
        assert_eq!(emu.now().raw(), 60_000);
    }

    #[test]
    fn results_resolve_to_the_workspace_root() {
        // Not the current directory: a binary run from `crates/bench`
        // must still write the checked-in files.
        let dir = results_dir().canonicalize().unwrap();
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .canonicalize()
            .unwrap();
        assert_eq!(dir, root.join("results"));
        assert!(dir.join("latency_curves.csv").is_file());
    }
}
