//! **Figure 3 reproduction** — congestion rate vs. packets per burst,
//! one curve per flits-per-packet value, with trace-driven traffic.
//!
//! The paper measures "congestion according to burst's length in
//! flits": longer bursts and longer packets raise the congestion rate
//! on the 90 %-loaded links.
//!
//! ```text
//! cargo run --release -p nocem-bench --bin fig3_congestion
//! ```

use nocem::config::PaperConfig;
use nocem::sweep::run_sweep;
use nocem_bench::scaled;
use nocem_common::csv::CsvWriter;
use nocem_common::table::{Align, TextTable};

const PACKETS_PER_BURST: [u32; 7] = [1, 2, 4, 8, 16, 32, 64];
const FLITS_PER_PACKET: [u16; 4] = [2, 4, 8, 16];

fn main() {
    let total_packets = scaled(20_000);
    let hot = PaperConfig::new().setup().hot_links.to_vec();

    // One row of packet lengths per burst length, as the table reads.
    let configs: Vec<_> = PACKETS_PER_BURST
        .iter()
        .flat_map(|&b| {
            FLITS_PER_PACKET.iter().map(move |&f| {
                PaperConfig::new()
                    .total_packets(total_packets)
                    .packet_flits(f)
                    .trace_bursty(b)
            })
        })
        .collect();
    let results = run_sweep(&configs, nocem_bench::num_threads()).expect("sweep runs");

    let mut header = vec!["packets/burst".to_string()];
    header.extend(FLITS_PER_PACKET.iter().map(|f| format!("{f} flits/pkt")));
    let mut t = TextTable::new(header);
    t.title("Figure 3 — hot-link congestion rate vs packets per burst (trace-driven)");
    for c in 1..=FLITS_PER_PACKET.len() {
        t.align(c, Align::Right);
    }
    let mut csv = CsvWriter::new(&["packets_per_burst", "flits_per_packet", "congestion_rate"]);
    for (&b, runs) in PACKETS_PER_BURST
        .iter()
        .zip(results.chunks(FLITS_PER_PACKET.len()))
    {
        let mut row = vec![b.to_string()];
        for (&f, r) in FLITS_PER_PACKET.iter().zip(runs) {
            let rate = r.congestion_rate(&hot);
            row.push(format!("{rate:.3}"));
            csv.record_display(&[&b, &f, &rate]);
        }
        t.row(row);
    }
    println!("{t}");
    println!("expected shape: congestion grows with burst length (and with");
    println!("packet length), saturating for long bursts — the paper's Figure 3.");
    let path = nocem_bench::save_csv("fig3_congestion.csv", csv.as_str());
    println!("data written to {}", path.display());
}
