//! Emulation results: everything the final report (step 6 of the
//! flow) presents.

use std::sync::Arc;

use crate::clock::EngineSummary;
use crate::view::{ArchView, ReceptorRow};
use nocem_common::ids::LinkId;
use nocem_common::table::{Align, TextTable};
use nocem_common::time::Cycle;
use nocem_platform::monitor::Monitor;
use nocem_stats::congestion::{CongestionCounter, VcOccupancy};
use nocem_stats::histogram::Histogram;
use nocem_stats::latency::LatencyAnalyzer;
use nocem_stats::receptor::Receptor;

/// Summary of one receptor at end of run.
#[derive(Debug, Clone, PartialEq)]
pub struct ReceptorSummary {
    /// Device label (`"tr0"`, …).
    pub label: String,
    /// Packets fully received.
    pub packets: u64,
    /// Flits received.
    pub flits: u64,
    /// The paper's "total running time" in cycles.
    pub running_time: u64,
    /// Mean network latency over this receptor's packets (trace
    /// receptors only).
    pub mean_network_latency: Option<f64>,
    /// Packet-length histogram — the paper's "image of the received
    /// traffic" (stochastic receptors only), shared with the receptor
    /// rather than copied.
    pub length_histogram: Option<Arc<Histogram>>,
    /// Tail-to-tail inter-arrival histogram (stochastic receptors
    /// only), shared like `length_histogram`.
    pub interarrival_histogram: Option<Arc<Histogram>>,
}

impl ReceptorSummary {
    /// Summarises receptor `index` from its row of the view, and its
    /// histograms from the device (shared, not copied).
    fn of(index: usize, row: &ReceptorRow, device: &Receptor) -> Self {
        let counters = &row.counters;
        let (length_histogram, interarrival_histogram) = device
            .histograms()
            .map(|(length, interarrival)| (Arc::clone(length), Arc::clone(interarrival)))
            .unzip();
        ReceptorSummary {
            label: format!("tr{index}"),
            packets: counters.packets,
            flits: counters.flits,
            running_time: counters.running_time(),
            mean_network_latency: row.latency.and_then(|l| l.mean()),
            length_histogram,
            interarrival_histogram,
        }
    }
}

/// The complete outcome of an emulation run.
///
/// Compares by value; the gated-vs-ungated equivalence tests compare
/// entire results with only the (intentionally differing)
/// `cycles_skipped` counter normalized away.
#[derive(Debug, Clone, PartialEq)]
pub struct EmulationResults {
    /// Configuration name.
    pub name: String,
    /// Total run length in platform cycles (the paper's run-time
    /// metric, Figure 2's y-axis). Identical across clock modes.
    pub cycles: u64,
    /// Cycles the fast-forward kernel jumped over (0 under
    /// `ClockMode::EveryCycle`). These cycles are *included* in
    /// `cycles` — they happened, they were just not stepped.
    pub cycles_skipped: u64,
    /// Packets released by the traffic models (and accepted).
    pub released: u64,
    /// Packets whose head entered the network.
    pub injected: u64,
    /// Packets fully delivered.
    pub delivered: u64,
    /// Flits fully delivered.
    pub delivered_flits: u64,
    /// Cycles a traffic model spent stalled on a full source queue
    /// (generator backpressure; no packets are dropped).
    pub stalled_cycles: u64,
    /// Network latency (injection → delivery) over all packets —
    /// Figure 4's metric.
    pub network_latency: LatencyAnalyzer,
    /// Total latency (release → delivery) over all packets.
    pub total_latency: LatencyAnalyzer,
    /// Per-link congestion counters — Figure 3's metric.
    pub congestion: CongestionCounter,
    /// Platform-wide per-VC input-buffer occupancy watermarks (the
    /// highest fill any per-VC FIFO of any switch reached).
    pub vc_occupancy: VcOccupancy,
    /// Per-receptor summaries.
    pub receptors: Vec<ReceptorSummary>,
}

impl EmulationResults {
    /// The results of the run `summary` describes: its eight
    /// ledger-derived fields, the congestion counters, VC watermarks
    /// and receptor counters read over the engine's architectural-state
    /// `view`, and the receptor histograms only the `receptors`
    /// themselves (in index order) know. Every engine assembles its
    /// results here.
    pub(crate) fn from_view<'a>(
        name: &str,
        summary: EngineSummary,
        stalled_cycles: u64,
        view: &ArchView,
        receptors: impl IntoIterator<Item = &'a Receptor>,
    ) -> Self {
        let rows = view.receptors.iter().zip(receptors).enumerate();
        let receptors = rows.map(|(i, (row, r))| ReceptorSummary::of(i, row, r));
        EmulationResults {
            name: name.to_owned(),
            cycles: summary.cycles,
            cycles_skipped: summary.cycles_skipped,
            released: summary.released,
            injected: summary.injected,
            delivered: summary.delivered,
            delivered_flits: summary.delivered_flits,
            stalled_cycles,
            network_latency: summary.network_latency,
            total_latency: summary.total_latency,
            congestion: view.congestion(),
            vc_occupancy: view.vc_watermarks(),
            receptors: receptors.collect(),
        }
    }

    /// Delivered throughput in flits per cycle.
    pub fn throughput(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.delivered_flits as f64 / self.cycles as f64
        }
    }

    /// Effective clock-gating speedup: simulated cycles per cycle
    /// actually stepped (1.0 when nothing was skipped).
    pub fn gating_speedup(&self) -> f64 {
        crate::clock::effective_speedup(self.cycles, self.cycles_skipped)
    }

    /// Aggregate congestion rate over `links` (blocked / busy cycles).
    pub fn congestion_rate(&self, links: &[LinkId]) -> f64 {
        self.congestion.aggregate_rate(links)
    }

    /// Utilization of `link` over the whole run.
    pub fn link_utilization(&self, link: LinkId) -> f64 {
        self.congestion.utilization(link, self.cycles)
    }

    /// Run time in seconds at an emulation clock of `clock_hz` (what
    /// the run would have taken on the FPGA platform).
    pub fn fpga_time_seconds(&self, clock_hz: f64) -> f64 {
        Cycle::new(self.cycles).to_seconds(clock_hz)
    }

    /// Renders the monitor's final report.
    pub fn render_report(&self) -> String {
        let mut m = Monitor::new(self.name.clone());
        let mut overview = TextTable::with_columns(&["metric", "value"]);
        overview.align(1, Align::Right);
        overview.row(vec!["cycles".into(), self.cycles.to_string()]);
        if self.cycles_skipped > 0 {
            overview.row(vec![
                "cycles skipped (gated)".into(),
                format!("{} ({:.1}x)", self.cycles_skipped, self.gating_speedup()),
            ]);
        }
        overview.row(vec!["packets released".into(), self.released.to_string()]);
        overview.row(vec!["packets delivered".into(), self.delivered.to_string()]);
        overview.row(vec![
            "TG stall cycles".into(),
            self.stalled_cycles.to_string(),
        ]);
        overview.row(vec![
            "throughput (flits/cycle)".into(),
            format!("{:.3}", self.throughput()),
        ]);
        if let Some(mean) = self.network_latency.mean() {
            overview.row(vec![
                "mean network latency".into(),
                format!("{mean:.1} cyc"),
            ]);
            overview.row(vec![
                "max network latency".into(),
                format!("{} cyc", self.network_latency.max().unwrap_or(0)),
            ]);
        }
        m.table("Run overview", &overview);

        let mut per_tr = TextTable::with_columns(&[
            "receptor",
            "packets",
            "flits",
            "running time",
            "mean net latency",
        ]);
        for col in 1..5 {
            per_tr.align(col, Align::Right);
        }
        for r in &self.receptors {
            per_tr.row(vec![
                r.label.clone(),
                r.packets.to_string(),
                r.flits.to_string(),
                r.running_time.to_string(),
                r.mean_network_latency
                    .map_or_else(|| "-".into(), |l| format!("{l:.1}")),
            ]);
        }
        m.table("Receptors", &per_tr);

        if let Some((hottest, rate)) = self.congestion.hottest() {
            m.section(
                "Congestion",
                format!(
                    "network rate {:.3}; hottest link {hottest} at {rate:.3}",
                    self.congestion.network_rate()
                ),
            );
        }

        // The paper's stochastic receptors show "histograms, which
        // show an image of the received traffic".
        for r in &self.receptors {
            if let Some(h) = &r.interarrival_histogram {
                if h.count() > 0 {
                    m.section(
                        format!("{} inter-arrival histogram (cycles)", r.label),
                        h.render_ascii(40),
                    );
                }
            }
        }
        m.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PaperConfig;
    use crate::engine::build;

    fn run(packets: u64) -> EmulationResults {
        let cfg = PaperConfig::new().total_packets(packets).trace_bursty(8);
        let mut emu = build(&cfg).unwrap();
        emu.run().unwrap();
        emu.results()
    }

    #[test]
    fn results_account_for_all_packets() {
        let r = run(200);
        assert_eq!(r.delivered, 200);
        assert!(r.released >= r.delivered);
        assert!(r.injected >= r.delivered);
        assert_eq!(r.network_latency.count(), 200);
        assert!(r.throughput() > 0.0);
        assert!(r.cycles > 0);
    }

    #[test]
    fn receptor_summaries_sum_to_total() {
        let r = run(200);
        let sum: u64 = r.receptors.iter().map(|t| t.packets).sum();
        assert_eq!(sum, 200);
        assert!(r.receptors.iter().all(|t| t.mean_network_latency.is_some()));
    }

    #[test]
    fn report_renders_key_sections() {
        let r = run(100);
        let report = r.render_report();
        assert!(report.contains("Run overview"));
        assert!(report.contains("Receptors"));
        assert!(report.contains("packets delivered"));
        assert!(report.contains("tr0"));
    }

    #[test]
    fn stochastic_report_shows_histograms() {
        let cfg = PaperConfig::new().total_packets(500).uniform();
        let mut emu = build(&cfg).unwrap();
        emu.run().unwrap();
        let r = emu.results();
        assert!(r.receptors.iter().all(|t| t.length_histogram.is_some()));
        assert!(r.receptors.iter().all(|t| t
            .interarrival_histogram
            .as_ref()
            .is_some_and(|h| h.count() > 0)));
        let report = r.render_report();
        assert!(report.contains("inter-arrival histogram"));
        assert!(report.contains('#'), "histogram bars rendered");
        // Trace-driven receptors carry no histograms.
        let trace = run(100);
        assert!(trace.receptors.iter().all(|t| t.length_histogram.is_none()));
    }

    #[test]
    fn hot_links_show_high_utilization() {
        let r = run(2_000);
        let hot = PaperConfig::new().setup().hot_links;
        for h in hot {
            let u = r.link_utilization(h);
            assert!(u > 0.5, "hot link utilization {u}");
        }
    }

    #[test]
    fn fpga_time_uses_50mhz_clock() {
        let r = run(100);
        let secs = r.fpga_time_seconds(50e6);
        assert!((secs - r.cycles as f64 / 50e6).abs() < 1e-12);
    }
}
