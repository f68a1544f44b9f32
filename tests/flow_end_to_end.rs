//! End-to-end test of the six-step emulation flow, from configuration
//! to final report, including the synthesis step against the paper's
//! FPGA target.

use nocem::config::{EngineKind, PaperConfig};
use nocem::flow::{driver_inventory, run_flow, run_flow_on};
use nocem_area::fpga::{XC2VP30, XC2VP7};

#[test]
fn flow_produces_complete_report() {
    let cfg = PaperConfig::new().total_packets(2_000).uniform();
    let report = run_flow(&cfg).unwrap();

    // Step 2 outputs: Table 1 shape.
    assert!(report.synthesis_text.contains("Number of slices"));
    assert!(report.synthesis_text.contains("TG stochastic"));
    assert!(report.synthesis_text.contains("Control module"));
    assert!(report.synthesis_text.contains("platform total"));
    // Paper: platform about 80% of the part, clock >= 50 MHz.
    assert!((6_500..=8_300).contains(&report.platform_slices));
    assert!(report.clock_mhz >= 50.0);

    // Step 5 outputs.
    assert_eq!(report.results.delivered, 2_000);
    assert!(report.wall_seconds > 0.0);
    assert!(report.cycles_per_second > 1_000.0);

    // Step 6 outputs.
    assert!(report.report_text.contains("Run overview"));
    assert!(report.report_text.contains("Emulation speed"));

    // The FPGA-equivalent runtime is far below the host runtime for
    // this small run, and positive.
    assert!(report.fpga_seconds() > 0.0);
}

/// The flow runs on the engine the configuration names, with the
/// results of the reference engine.
#[test]
fn flow_honours_the_configured_engine() {
    let cfg = PaperConfig::new()
        .total_packets(600)
        .packet_flits(4)
        .trace_bursty(8);
    let reference = run_flow(&cfg.clone().with_engine(EngineKind::SingleThread)).unwrap();
    for engine in [
        EngineKind::Compiled,
        EngineKind::ShardedCompiled {
            shards: 2,
            batch: 1,
        },
    ] {
        let report = run_flow(&cfg.clone().with_engine(engine)).unwrap();
        assert_eq!(report.results, reference.results, "{engine:?}");
        assert_eq!(report.synthesis_text, reference.synthesis_text);
    }
}

#[test]
fn flow_scales_to_larger_fpga() {
    let cfg = PaperConfig::new().total_packets(200).uniform();
    let report = run_flow_on(&cfg, XC2VP30).unwrap();
    assert!(report.synthesis_text.contains("XC2VP30"));
}

#[test]
fn flow_rejects_too_small_fpga() {
    let cfg = PaperConfig::new().total_packets(200).uniform();
    let err = run_flow_on(&cfg, XC2VP7).unwrap_err();
    assert!(err.to_string().contains("slices"));
}

#[test]
fn trace_flow_runs_end_to_end() {
    let cfg = PaperConfig::new()
        .total_packets(1_000)
        .packet_flits(4)
        .trace_bursty(8);
    let report = run_flow(&cfg).unwrap();
    assert_eq!(report.results.delivered, 1_000);
    assert!(report.synthesis_text.contains("TG trace driven"));
    assert!(report.synthesis_text.contains("TR trace driven"));
    // Trace receptors record latency.
    assert!(report
        .results
        .receptors
        .iter()
        .all(|r| r.mean_network_latency.is_some()));
}

#[test]
fn driver_inventory_matches_platform() {
    let cfg = PaperConfig::new().uniform();
    let inv = driver_inventory(&cfg);
    let total_devices: usize = inv.iter().map(|(_, n)| n).sum();
    // 1 control + 4 TG + 4 TR + 6 switches.
    assert_eq!(total_devices, 15);
}

#[test]
fn flow_is_reproducible() {
    let run = || {
        let cfg = PaperConfig::new().total_packets(500).burst(4);
        run_flow(&cfg).unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.results.cycles, b.results.cycles);
    assert_eq!(
        a.results.network_latency.sum(),
        b.results.network_latency.sum()
    );
    assert_eq!(a.platform_slices, b.platform_slices);
}
