//! **Scenario matrix** — the experiment the paper's single 6-switch
//! setup never had: every applicable synthetic pattern and core-graph
//! workload, across meshes, tori and a ring, at several offered
//! loads, run in parallel and aggregated into one CSV.
//!
//! ```text
//! cargo run --release -p nocem-bench --bin scenario_matrix
//! ```
//!
//! Rings and tori route *minimally* on two virtual channels with a
//! dateline assignment, so their wrap-around links carry traffic; the
//! 3×3 torus is in the matrix precisely because every distance-2 hop
//! there is shorter around the wrap. The default matrix expands to 100
//! combinations, of which a handful are inapplicable (transpose on
//! non-square topologies, bit patterns on non-power-of-two switch
//! counts) and are reported as skips in the CSV trailer.
//!
//! A second, **scale** section runs uniform-random traffic on 16×16
//! and 32×32 meshes across the matrix's `shards` axis (1, 2 and 4
//! worker threads), sequentially and individually wall-clocked, so
//! the CSV records the sharded compiled engine's measured speedup
//! over the same kernel unsharded on topologies too big for one core.
//! The shard counts change only `wall_ms`: the sharded engine is
//! ledger-identical to the unsharded one (asserted here per topology).

use nocem::clock::ClockMode;
use nocem_common::table::{Align, TextTable};
use nocem_scenarios::matrix::MatrixSpec;
use nocem_scenarios::registry::ScenarioRegistry;
use nocem_scenarios::scenario::TopologySpec;

fn main() {
    let registry = ScenarioRegistry::builtin();
    let spec = MatrixSpec {
        scenarios: registry.names().iter().map(|&n| n.to_owned()).collect(),
        topologies: vec![
            TopologySpec::Mesh {
                width: 4,
                height: 4,
            },
            TopologySpec::Torus {
                width: 4,
                height: 4,
            },
            // Odd-sized torus: every distance-2 dimension hop wraps,
            // so the minimal + dateline routing exercises wrap-around
            // links in nearly every flow.
            TopologySpec::Torus {
                width: 3,
                height: 3,
            },
            TopologySpec::Mesh {
                width: 8,
                height: 2,
            },
            TopologySpec::Ring { switches: 8 },
        ],
        loads: vec![0.10, 0.30],
        shards: vec![1],
        packet_flits: 4,
        packets_per_point: 8_000,
        // Hybrid clock gating: cycle-equivalent to EveryCycle (the
        // lockstep tests prove it) and much faster on the low-load
        // half of the matrix; the CSV records the per-point win.
        clock_mode: ClockMode::Gated,
    };
    println!(
        "expanding {} scenarios x {} topologies x {} loads = {} combinations",
        spec.scenarios.len(),
        spec.topologies.len(),
        spec.loads.len(),
        spec.combinations()
    );

    let threads = nocem_bench::num_threads();
    let outcome = spec.run(&registry, threads).expect("matrix runs");

    let mut t = TextTable::with_columns(&[
        "scenario",
        "topology",
        "load",
        "cycles",
        "skipped",
        "speedup",
        "throughput (flit/cyc)",
        "mean net latency (cyc)",
    ]);
    t.title(format!(
        "Scenario matrix — {} points run on {} threads ({} skipped)",
        outcome.rows.len(),
        threads,
        outcome.skipped.len()
    ));
    for c in 2..8 {
        t.align(c, Align::Right);
    }
    for row in &outcome.rows {
        t.row(vec![
            row.scenario.clone(),
            row.topology.clone(),
            format!("{:.2}", row.load),
            row.results.cycles.to_string(),
            row.results.cycles_skipped.to_string(),
            format!("{:.2}x", row.results.gating_speedup()),
            format!("{:.4}", row.results.throughput()),
            format!("{:.1}", row.results.network_latency.mean().unwrap_or(0.0)),
        ]);
    }
    println!("{t}");
    let total_cycles: u64 = outcome.rows.iter().map(|r| r.results.cycles).sum();
    let total_skipped: u64 = outcome.rows.iter().map(|r| r.results.cycles_skipped).sum();
    println!(
        "clock gating skipped {total_skipped} of {total_cycles} simulated cycles ({:.2}x effective speedup)",
        nocem::clock::effective_speedup(total_cycles, total_skipped)
    );
    for s in &outcome.skipped {
        println!("skipped {}: {}", s.label, s.reason);
    }

    // --- Scale section: the sharded engine on 16x16 / 32x32 meshes.
    //
    // Runs with threads = 1 so the shard workers own the cores and
    // the wall-clock per point is a fair single-point measurement.
    let scale = MatrixSpec {
        scenarios: vec!["uniform_random".into()],
        topologies: vec![
            TopologySpec::Mesh {
                width: 16,
                height: 16,
            },
            TopologySpec::Mesh {
                width: 32,
                height: 32,
            },
        ],
        loads: vec![0.10],
        shards: vec![1, 2, 4],
        packet_flits: 4,
        packets_per_point: 20_000,
        clock_mode: ClockMode::Gated,
    };
    println!(
        "\nscale section: {} sharded points (sequential, wall-clocked)",
        scale.combinations()
    );
    let scale_outcome = scale.run(&registry, 1).expect("scale matrix runs");
    let mut st = TextTable::with_columns(&[
        "topology",
        "shards",
        "cycles",
        "wall (ms)",
        "speedup vs 1 shard",
    ]);
    st.title("Sharded-engine scaling — uniform_random @ 10% load".to_string());
    for c in 1..5 {
        st.align(c, Align::Right);
    }
    for row in &scale_outcome.rows {
        let reference = scale_outcome
            .rows
            .iter()
            .find(|r| r.topology == row.topology && r.shards == 1)
            .expect("shards axis starts at 1, so the baseline ran first");
        // The shards axis must never change the simulation itself.
        assert_eq!(
            reference.results, row.results,
            "sharded run diverged from the unsharded engine on {}",
            row.label
        );
        st.row(vec![
            row.topology.clone(),
            row.shards.to_string(),
            row.results.cycles.to_string(),
            format!("{:.1}", row.wall_ms),
            format!("{:.2}x", reference.wall_ms / row.wall_ms),
        ]);
    }
    println!("{st}");

    let mut combined = outcome;
    combined.rows.extend(scale_outcome.rows);
    combined.skipped.extend(scale_outcome.skipped);
    let path = nocem_bench::save_csv("scenario_matrix.csv", &combined.to_csv());
    println!("data written to {}", path.display());
}
