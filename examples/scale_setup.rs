//! Scale probe: how long, and how much memory, a `side × side` mesh or
//! torus takes from a scenario name to an engine that steps.
//!
//! ```text
//! cargo run --release --example scale_setup -- <side> [pattern] [mesh|torus]
//! cargo run --release --example scale_setup -- 64 uniform_random
//! cargo run --release --example scale_setup -- 64 uniform_random torus
//! ```
//!
//! Prints the milliseconds of `build_config`, `compute_routing` and
//! `AnyEngine::build_routed` (compiled engine), the flow count and the
//! process's peak resident set (`VmHWM`), then steps 256 cycles. Run it
//! in a fresh process per size — the peak is the process's, not the
//! stage's.
//!
//! On `64 uniform_random`, mesh or torus, it is also a check (CI runs
//! both): set-up over 0.5 s or a peak over 64 MB exits non-zero.
//! Uniform-random on a 64 × 64 grid is 16.7 M flows; written out, they
//! alone were a gigabyte and five seconds, and followed pair by pair
//! through the deadlock check a third of a second. The torus routes
//! minimally on two dateline VCs, so its run also says the check
//! accepts dateline routing at that size.

use nocem::compile::compute_routing;
use nocem::config::EngineKind;
use nocem::sweep::AnyEngine;
use nocem::SteppableEngine;
use nocem_scenarios::registry::ScenarioRegistry;
use nocem_scenarios::scenario::TopologySpec;
use std::time::Instant;
use support::peak_rss_mb;

mod support;

/// The set-up budget CI holds `64 uniform_random` to: about ten times
/// the time and six times the memory recorded in the README, for a
/// shared runner.
const LIMIT_SECONDS: f64 = 0.5;
const LIMIT_PEAK_MB: f64 = 64.0;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let usage = "usage: scale_setup <side> [pattern] [mesh|torus]";
    let side: u32 = args.next().ok_or(usage)?.parse()?;
    let pattern = args.next().unwrap_or_else(|| "uniform_random".into());
    let (width, height) = (side, side);
    let topology = match args.next().as_deref() {
        None | Some("mesh") => TopologySpec::Mesh { width, height },
        Some("torus") => TopologySpec::Torus { width, height },
        Some(_) => return Err(usage.into()),
    };
    let ms = |since: Instant| since.elapsed().as_secs_f64() * 1e3;

    let start = Instant::now();
    let mut config = ScenarioRegistry::builtin()
        .resolve(&pattern)?
        .build_config(topology, 0.02, 4, u64::MAX)?;
    config.engine = EngineKind::Compiled;
    let build_config_ms = ms(start);

    let stage = Instant::now();
    let routing = compute_routing(&config)?;
    let compute_routing_ms = ms(stage);

    let stage = Instant::now();
    let mut engine = AnyEngine::build_routed(&config, Some(&routing))?;
    let build_routed_ms = ms(stage);
    let setup_ms = ms(start);
    let peak = peak_rss_mb();

    println!("{pattern} on {}", config.topology.name());
    println!("  flows            {:>12}", config.flows.len());
    println!("  build_config     {build_config_ms:>12.3} ms");
    println!("  compute_routing  {compute_routing_ms:>12.3} ms");
    println!("  build_routed     {build_routed_ms:>12.3} ms");
    println!("  set-up           {setup_ms:>12.3} ms");
    match peak {
        Some(mb) => println!("  VmHWM            {mb:>12.1} MB"),
        None => println!("  VmHWM                     n/a"),
    }

    let stage = Instant::now();
    for _ in 0..256 {
        engine.step()?;
    }
    println!(
        "  256 cycles       {:>12.3} ms, {} packets delivered",
        ms(stage),
        engine.summary().delivered
    );

    if side == 64 && pattern == "uniform_random" {
        if setup_ms > LIMIT_SECONDS * 1e3 {
            return Err(format!("set-up took {setup_ms:.0} ms, over {LIMIT_SECONDS} s").into());
        }
        if peak.is_some_and(|mb| mb > LIMIT_PEAK_MB) {
            return Err(format!("peak resident set over {LIMIT_PEAK_MB} MB").into());
        }
    }
    Ok(())
}
