//! **Figure 2 reproduction** — run-time vs. number of sent packets,
//! uniform vs. burst stochastic traffic.
//!
//! The paper's observation: at identical offered load (45 % per TG),
//! burst traffic congests the NoC more than uniform traffic, so the
//! same packet count takes more cycles to deliver.
//!
//! ```text
//! cargo run --release -p nocem-bench --bin fig2_runtime
//! ```

use nocem::config::PaperConfig;
use nocem::sweep::run_sweep;
use nocem_bench::scaled;
use nocem_common::csv::CsvWriter;
use nocem_common::table::{Align, TextTable};

fn main() {
    let packet_counts: Vec<u64> = [2_000u64, 4_000, 8_000, 16_000, 32_000, 64_000, 128_000]
        .iter()
        .map(|&p| scaled(p))
        .collect();

    // One (uniform, burst) pair per packet count.
    let configs: Vec<_> = packet_counts
        .iter()
        .flat_map(|&n| {
            [
                PaperConfig::new().total_packets(n).uniform(),
                PaperConfig::new().total_packets(n).burst(8),
            ]
        })
        .collect();
    let results = run_sweep(&configs, nocem_bench::num_threads()).expect("sweep runs");

    let mut t = TextTable::with_columns(&[
        "packets sent",
        "uniform run-time (cyc)",
        "burst run-time (cyc)",
        "burst/uniform",
    ]);
    t.title("Figure 2 — run-time vs number of sent packets (45% load, 8-flit packets)");
    for c in 1..4 {
        t.align(c, Align::Right);
    }
    let mut csv = CsvWriter::new(&["packets", "uniform_cycles", "burst_cycles"]);
    csv.comment("paper fig: run-time vs packets; burst congests more than uniform");
    for (&n, pair) in packet_counts.iter().zip(results.chunks(2)) {
        let (uniform, burst) = (pair[0].cycles, pair[1].cycles);
        t.row(vec![
            n.to_string(),
            uniform.to_string(),
            burst.to_string(),
            format!("{:.2}", burst as f64 / uniform as f64),
        ]);
        csv.record_display(&[&n, &uniform, &burst]);
    }
    println!("{t}");
    println!("expected shape: both curves grow linearly in the packet count;");
    println!("the burst curve lies above the uniform curve (more congestion).");
    let path = nocem_bench::save_csv("fig2_runtime.csv", csv.as_str());
    println!("data written to {}", path.display());
}
