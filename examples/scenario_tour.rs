//! Tour of the scenario subsystem: registry lookup, core-graph
//! mapping, and a parallel matrix run, end to end.
//!
//! ```text
//! cargo run --release --example scenario_tour
//! ```

use nocem_scenarios::coregraph::{vopd, CoreGraphWorkload};
use nocem_scenarios::matrix::MatrixSpec;
use nocem_scenarios::registry::ScenarioRegistry;
use nocem_scenarios::scenario::TopologySpec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The registry: every scenario the workspace ships, by name.
    let registry = ScenarioRegistry::builtin();
    println!("built-in scenario catalogue ({}):", registry.len());
    for scenario in registry.iter() {
        println!("  {:<18} {}", scenario.name, scenario.description);
    }

    // Lookup builds a ready-to-run platform config: tornado traffic
    // on a 4x4 mesh at 30% offered load.
    let mesh = TopologySpec::Mesh {
        width: 4,
        height: 4,
    };
    let config = registry
        .resolve("tornado")?
        .build_config(mesh, 0.30, 8, 2_000)?;
    println!(
        "\n'tornado' on {}: {} flows, {} generators, seed {:#x}",
        config.topology.name(),
        config.flows.len(),
        config.generators.len(),
        config.seed,
    );

    // 2. Core-graph mapping: place the 16-core VOPD decoder onto the
    // mesh, bandwidth-heaviest cores in the center.
    let topo = mesh.build()?;
    let workload = CoreGraphWorkload::new(vopd(), &topo, 0.40)?;
    println!("\nVOPD mapped onto mesh4x4 (greedy bandwidth-aware):");
    let grid = topo.grid().expect("mesh has grid metadata");
    for (core, name) in workload.graph.cores.iter().enumerate() {
        let s = workload.mapping.switch_of(core);
        let (x, y) = grid.coords(s);
        println!("  {name:<12} -> switch {s} at ({x}, {y})");
    }
    println!(
        "  bandwidth-weighted hop cost: {:.0}",
        workload.mapping.weighted_hops(&workload.graph, &topo)
    );

    // 3. The matrix runner: patterns x topologies x loads, expanded,
    // run in parallel, aggregated into one CSV.
    let spec = MatrixSpec {
        scenarios: vec![
            "uniform_random".into(),
            "transpose".into(),
            "tornado".into(),
            "hotspot".into(),
        ],
        topologies: vec![
            mesh,
            TopologySpec::Torus {
                width: 4,
                height: 4,
            },
            TopologySpec::Ring { switches: 8 },
        ],
        loads: vec![0.10, 0.25],
        packet_flits: 4,
        packets_per_point: 1_000,
        clock_mode: nocem::ClockMode::Gated,
    };
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    let outcome = spec.run(&registry, threads)?;
    println!(
        "\nmatrix: {} combinations -> {} points run, {} skipped",
        spec.combinations(),
        outcome.rows.len(),
        outcome.skipped.len()
    );
    for row in &outcome.rows {
        println!(
            "  {:<32} {:>7} cycles  {:>7.4} flit/cyc",
            row.label,
            row.results.cycles,
            row.results.throughput()
        );
    }
    for s in &outcome.skipped {
        println!("  skipped {}: {}", s.label, s.reason);
    }

    let csv = outcome.to_csv();
    println!(
        "\naggregated CSV: {} lines, starting:\n{}",
        csv.lines().count(),
        csv.lines().take(3).collect::<Vec<_>>().join("\n")
    );
    Ok(())
}
