//! The six-step emulation flow (the paper's slide 14):
//!
//! 1. **Platform compilation** — [`crate::compile::elaborate`]
//!    instantiates and wires every component;
//! 2. **Physical synthesis** — `nocem-area` estimates slices,
//!    utilization and the achievable clock on the target FPGA;
//! 3. **Platform initialization** — the software programs the control
//!    module over the bus;
//! 4. **Software compilation** — the driver set is assembled (in this
//!    reproduction, driver construction; recorded for the report);
//! 5. **Emulation** — the run itself, wall-clock timed;
//! 6. **Final report** — the monitor output "on the screen of the
//!    user's PC".

use crate::board::Board;
use crate::clock::SteppableEngine;
use crate::compile::{elaborate, Elaboration};
use crate::config::{PlatformConfig, TrafficModel};
use crate::error::{CompileError, EmulationError};
use crate::results::EmulationResults;
use crate::sweep::AnyEngine;
use nocem_area::devices::{
    control_module, switch, tg_stochastic, tg_trace_driven, tr_stochastic, tr_trace_driven,
    StochasticTgParams, StochasticTrParams, SwitchParams, TraceTgParams, TraceTrParams,
};
use nocem_area::fpga::FpgaDevice;
use nocem_area::report::SynthesisReport;
use nocem_platform::control::ControlDriver;
use nocem_stats::TrKind;
use std::time::Instant;

/// Errors of the emulation flow.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FlowError {
    /// Step 1 or 2 failed.
    Compile(CompileError),
    /// Step 3 or 5 failed.
    Emulation(EmulationError),
    /// Step 2 found the platform does not fit the target FPGA.
    DoesNotFit {
        /// Required slices.
        required: u64,
        /// Available slices.
        available: u64,
    },
}

impl std::fmt::Display for FlowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowError::Compile(e) => write!(f, "compilation failed: {e}"),
            FlowError::Emulation(e) => write!(f, "emulation failed: {e}"),
            FlowError::DoesNotFit {
                required,
                available,
            } => write!(
                f,
                "platform needs {required} slices but the target offers {available}"
            ),
        }
    }
}

impl std::error::Error for FlowError {}

impl From<CompileError> for FlowError {
    fn from(e: CompileError) -> Self {
        FlowError::Compile(e)
    }
}

impl From<EmulationError> for FlowError {
    fn from(e: EmulationError) -> Self {
        FlowError::Emulation(e)
    }
}

/// Outcome of a complete flow.
#[derive(Debug, Clone)]
pub struct FlowReport {
    /// Step 2's synthesis report.
    pub synthesis_text: String,
    /// Estimated platform clock in MHz.
    pub clock_mhz: f64,
    /// Platform slices on the target.
    pub platform_slices: u64,
    /// Step 5's results.
    pub results: EmulationResults,
    /// Host wall-clock seconds spent emulating.
    pub wall_seconds: f64,
    /// Host emulation speed in platform cycles per second.
    pub cycles_per_second: f64,
    /// Step 6's monitor report.
    pub report_text: String,
}

impl FlowReport {
    /// What the run would have taken on the FPGA platform at the
    /// estimated clock.
    pub fn fpga_seconds(&self) -> f64 {
        self.results.fpga_time_seconds(self.clock_mhz * 1e6)
    }
}

/// Builds the synthesis report (flow step 2) for an elaboration.
pub fn synthesize(elab: &Elaboration, target: FpgaDevice) -> SynthesisReport {
    let mut report = SynthesisReport::new(target);
    let stoch_tg = elab
        .config
        .generators
        .iter()
        .filter(|g| !g.is_trace())
        .count() as u64;
    let trace_tg = elab.config.generators.len() as u64 - stoch_tg;
    if stoch_tg > 0 {
        report.add(
            "TG stochastic",
            stoch_tg,
            tg_stochastic(StochasticTgParams::default()),
        );
    }
    if trace_tg > 0 {
        report.add(
            "TG trace driven",
            trace_tg,
            tg_trace_driven(TraceTgParams::default()),
        );
    }
    let stoch_tr = elab
        .config
        .receptors
        .iter()
        .filter(|r| **r == TrKind::Stochastic)
        .count() as u64;
    let trace_tr = elab.config.receptors.len() as u64 - stoch_tr;
    if stoch_tr > 0 {
        report.add(
            "TR stochastic",
            stoch_tr,
            tr_stochastic(StochasticTrParams::default()),
        );
    }
    if trace_tr > 0 {
        report.add(
            "TR trace driven",
            trace_tr,
            tr_trace_driven(TraceTrParams::default()),
        );
    }
    report.add("Control module", 1, control_module());
    for s in elab.config.topology.switch_ids() {
        let info = elab.config.topology.switch(s);
        let params = SwitchParams {
            inputs: u64::from(info.inputs),
            outputs: u64::from(info.outputs),
            fifo_depth: u64::from(elab.config.switch.fifo_depth),
            flows: elab.routing.flow_count().max(1) as u64,
            num_vcs: u64::from(elab.config.switch.num_vcs),
        };
        report.add(format!("Switch s{}", s.raw()), 1, switch(params));
        report.set_max_switch_ports(u64::from(info.inputs.max(info.outputs)));
    }
    report
}

/// Runs the complete six-step flow against the default target FPGA
/// (XC2VP20, the part whose utilization matches the paper's Table 1).
///
/// # Errors
///
/// Returns [`FlowError`] if compilation fails, the platform does not
/// fit the FPGA, or the emulation faults.
pub fn run_flow(config: &PlatformConfig) -> Result<FlowReport, FlowError> {
    run_flow_on(config, nocem_area::fpga::XC2VP20)
}

/// Runs the complete six-step flow against a chosen target FPGA.
///
/// # Errors
///
/// Returns [`FlowError`] if compilation fails, the platform does not
/// fit the FPGA, or the emulation faults.
pub fn run_flow_on(config: &PlatformConfig, target: FpgaDevice) -> Result<FlowReport, FlowError> {
    // Step 1: platform compilation.
    let elab = elaborate(config)?;

    // Step 2: physical synthesis.
    let synthesis = synthesize(&elab, target);
    if !synthesis.fits() {
        return Err(FlowError::DoesNotFit {
            required: synthesis.total_slices(),
            available: target.slices,
        });
    }
    let clock_mhz = synthesis.clock_mhz();
    let platform_slices = synthesis.total_slices();
    let synthesis_text = synthesis.render();

    // Steps 3 + 4: platform initialization through the control driver
    // (the "software part" programming registers over the bus), on the
    // engine the configuration names.
    let mut board = Board::new(elab, AnyEngine::from_elaboration);
    let ctrl = ControlDriver::new(board.address_map().devices()[0].addr);
    ctrl.configure(
        &mut board,
        config.stop.delivered_packets.unwrap_or(0),
        config.stop.cycle_limit,
        config.seed,
    )
    .map_err(EmulationError::Bus)?;
    ctrl.start(&mut board).map_err(EmulationError::Bus)?;

    // Step 5: emulation, wall-clock timed.
    let t0 = Instant::now();
    board.run_programmed()?;
    let wall_seconds = t0.elapsed().as_secs_f64().max(1e-9);
    let cycles_per_second = board.engine().now().raw() as f64 / wall_seconds;

    // Step 6: final report.
    let results = board.engine_mut().results()?;
    let mut report_text = results.render_report();
    report_text.push_str(&format!(
        "\n-- Emulation speed --\nhost: {:.0} cycles/s; platform at {:.0} MHz would take {:.3} s\n",
        cycles_per_second,
        clock_mhz,
        results.fpga_time_seconds(clock_mhz * 1e6),
    ));

    Ok(FlowReport {
        synthesis_text,
        clock_mhz,
        platform_slices,
        results,
        wall_seconds,
        cycles_per_second,
        report_text,
    })
}

/// Number of devices the flow will program, by model kind — the
/// "software compilation" inventory (step 4).
pub fn driver_inventory(config: &PlatformConfig) -> Vec<(String, usize)> {
    let mut stoch = 0;
    let mut trace = 0;
    for g in &config.generators {
        match g {
            TrafficModel::Trace(_) => trace += 1,
            _ => stoch += 1,
        }
    }
    vec![
        ("control driver".into(), 1),
        ("stochastic TG drivers".into(), stoch),
        ("trace TG drivers".into(), trace),
        ("TR drivers".into(), config.receptors.len()),
        ("switch drivers".into(), config.topology.switch_count()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PaperConfig;

    #[test]
    fn full_flow_on_paper_platform() {
        let cfg = PaperConfig::new().total_packets(300).uniform();
        let report = run_flow(&cfg).unwrap();
        assert_eq!(report.results.delivered, 300);
        assert!(report.clock_mhz >= 50.0);
        assert!(report.cycles_per_second > 0.0);
        assert!(report.platform_slices > 5_000);
        assert!(report.synthesis_text.contains("TG stochastic"));
        assert!(report.report_text.contains("Emulation speed"));
        assert!(report.fpga_seconds() > 0.0);
    }

    #[test]
    fn flow_rejects_undersized_fpga() {
        let cfg = PaperConfig::new().total_packets(10).uniform();
        let err = run_flow_on(&cfg, nocem_area::fpga::XC2VP7).unwrap_err();
        assert!(matches!(err, FlowError::DoesNotFit { .. }));
        assert!(err.to_string().contains("slices"));
    }

    #[test]
    fn trace_flow_reports_trace_devices() {
        let cfg = PaperConfig::new().total_packets(100).trace_bursty(4);
        let report = run_flow(&cfg).unwrap();
        assert!(report.synthesis_text.contains("TG trace driven"));
        assert!(report.synthesis_text.contains("TR trace driven"));
    }

    #[test]
    fn driver_inventory_counts() {
        let cfg = PaperConfig::new().uniform();
        let inv = driver_inventory(&cfg);
        let stoch = inv.iter().find(|(n, _)| n.contains("stochastic")).unwrap();
        assert_eq!(stoch.1, 4);
        let sw = inv.iter().find(|(n, _)| n.contains("switch")).unwrap();
        assert_eq!(sw.1, 6);
    }
}
