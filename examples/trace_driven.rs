//! Trace-driven emulation: record, save, replay.
//!
//! Models the paper's trace-driven workflow: traffic is recorded from
//! a live (stochastic) run — standing in for "a trace recorded on a
//! real-life application" — serialized to the text trace format,
//! parsed back, and replayed through trace-driven TGs with
//! latency-analyzing receptors. The replay is cycle-exact against the
//! recorded run.
//!
//! ```text
//! cargo run --release -p nocem --example trace_driven
//! ```

use nocem::config::{PaperConfig, TrafficModel};
use nocem::engine::build;
use nocem::SteppableEngine;
use nocem_stats::TrKind;
use nocem_traffic::trace::Trace;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A "real application" run with burst traffic, recorded.
    let mut cfg = PaperConfig::new().total_packets(10_000).burst(8);
    cfg.record_trace = true;
    let mut emu = build(&cfg)?;
    emu.run()?;
    let original_cycles = emu.now().raw();
    let (original, trace) = emu.into_results();
    let trace = trace.expect("recording was enabled");
    println!(
        "recorded {} packet releases over {} cycles",
        trace.len(),
        original_cycles
    );

    // 2. Serialize to the trace text format and parse back.
    let text = trace.to_text();
    println!(
        "trace text: {} bytes, first lines:\n{}",
        text.len(),
        text.lines().take(5).collect::<Vec<_>>().join("\n")
    );
    let parsed = Trace::parse(&text)?;
    assert_eq!(parsed, trace);

    // 3. Replay through trace-driven TGs and trace receptors.
    let mut replay_cfg = PaperConfig::new().total_packets(10_000).burst(8);
    replay_cfg.generators = (0..4)
        .map(|_| TrafficModel::Trace(parsed.clone()))
        .collect();
    replay_cfg.receptors = vec![TrKind::TraceDriven; 4];
    replay_cfg.name = "trace-replay".into();
    let mut emu = build(&replay_cfg)?;
    emu.run()?;
    let replay = emu.results();

    println!("\n-- original (stochastic) vs replay (trace-driven) --");
    println!(
        "cycles:   {} vs {} ({})",
        original.cycles,
        replay.cycles,
        if original.cycles == replay.cycles {
            "cycle-exact"
        } else {
            "MISMATCH"
        }
    );
    println!("delivered: {} vs {}", original.delivered, replay.delivered);
    println!(
        "mean network latency: {:.2} vs {:.2} cycles",
        original.network_latency.mean().unwrap_or(0.0),
        replay.network_latency.mean().unwrap_or(0.0)
    );

    // 4. The replay's latency analyzers (trace receptors) add detail
    //    the stochastic receptors don't collect.
    println!("\n-- per-receptor latency analyzers (replay) --");
    for r in &replay.receptors {
        println!(
            "{}: {} packets, mean network latency {:.1} cycles",
            r.label,
            r.packets,
            r.mean_network_latency.unwrap_or(0.0)
        );
    }
    Ok(())
}
