//! **Figure 4 reproduction** — average latency vs. packets per burst
//! with trace-driven traffic.
//!
//! The paper's observation: average packet latency grows with burst
//! length and **reaches a maximum** set by the congestion of the
//! 90 %-loaded links.
//!
//! ```text
//! cargo run --release -p nocem-bench --bin fig4_latency
//! ```

use nocem::config::PaperConfig;
use nocem::sweep::run_sweep;
use nocem_bench::scaled;
use nocem_common::csv::CsvWriter;
use nocem_common::table::{Align, TextTable};

const PACKETS_PER_BURST: [u32; 8] = [1, 2, 4, 8, 16, 32, 64, 128];

fn main() {
    let total_packets = scaled(20_000);
    let flits = 8u16;
    let hot = PaperConfig::new().setup().hot_links.to_vec();

    let configs: Vec<_> = PACKETS_PER_BURST
        .iter()
        .map(|&b| {
            PaperConfig::new()
                .total_packets(total_packets)
                .packet_flits(flits)
                .trace_bursty(b)
        })
        .collect();
    let results = run_sweep(&configs, nocem_bench::num_threads()).expect("sweep runs");

    let mut t = TextTable::with_columns(&[
        "packets/burst",
        "mean net latency (cyc)",
        "max net latency (cyc)",
        "hot-link congestion",
    ]);
    t.title(format!(
        "Figure 4 — average latency vs packets per burst ({flits} flits/pkt, trace-driven)"
    ));
    for c in 1..4 {
        t.align(c, Align::Right);
    }
    let mut csv = CsvWriter::new(&[
        "packets_per_burst",
        "mean_network_latency",
        "max_network_latency",
        "hot_congestion",
    ]);
    let mut means = Vec::new();
    for (&b, r) in PACKETS_PER_BURST.iter().zip(&results) {
        let mean = r.network_latency.mean().unwrap_or(0.0);
        let max = r.network_latency.max().unwrap_or(0);
        let cong = r.congestion_rate(&hot);
        means.push(mean);
        t.row(vec![
            b.to_string(),
            format!("{mean:.1}"),
            max.to_string(),
            format!("{cong:.3}"),
        ]);
        csv.record_display(&[&b, &mean, &max, &cong]);
    }
    println!("{t}");

    // Saturation check: the latency gain from the last doubling is far
    // smaller than from the first.
    let first_gain = means[1] - means[0];
    let last_gain = means[means.len() - 1] - means[means.len() - 2];
    println!(
        "expected shape: latency rises with burst length then saturates — \
         first doubling gained {first_gain:.1} cyc, last doubling {last_gain:.1} cyc"
    );
    println!("(the maximum is a function of the 90% hot-link congestion, as the paper notes)");
    let path = nocem_bench::save_csv("fig4_latency.csv", csv.as_str());
    println!("data written to {}", path.display());
}
