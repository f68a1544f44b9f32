//! Steady-state measurement windows over the packet ledger.
//!
//! A latency–throughput curve point is only meaningful when the
//! transient of an empty network filling up is discarded: the curve
//! harness runs each load point for a **warm-up** phase plus a
//! **measurement window**, and every statistic of the point comes from
//! this module's windowed extraction over the [`PacketLedger`]:
//!
//! * **latency** — packets whose head flit was *injected inside* the
//!   window (and that were delivered by end of run) contribute one
//!   sample each; quantiles (p50/p95/p99) come from a uniform-bin
//!   [`Histogram`] whose geometry is derived from the sample range, so
//!   the quantile error is bounded by one bin width;
//! * **accepted throughput** — flits of packets whose tail was
//!   *delivered inside* the window, divided by the window length: the
//!   rate the network actually sustained, which is what plateaus at
//!   saturation while offered load keeps climbing.
//!
//! Selection is by absolute cycle, so two cycle-equivalent runs
//! (gated vs ungated, compiled vs interpreted) produce identical
//! window statistics even when their machinery counters differ.
//!
//! The statistics come from one of two places. A ledger that was told
//! before its first release to watch a window
//! ([`PacketLedger::watch`]) folds each delivery into its counts:
//! the packets and flits delivered inside the window, and an exact
//! count per latency value of the packets injected inside it.
//! [`PacketLedger::watched`] rebuilds both [`WindowStats`] from those
//! counts, equal to what [`WindowStats::from_ledger_both`] reads from a
//! ledger's full history of records.

use crate::histogram::Histogram;
use crate::ledger::{PacketLatency, PacketLedger, PacketRecord};

/// Number of uniform bins the windowed latency histogram uses; the
/// quantile error is bounded by `max_sample / BINS + 1` cycles.
const QUANTILE_BINS: usize = 256;

/// A half-open cycle interval `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// First cycle inside the window.
    pub start: u64,
    /// First cycle past the window.
    pub end: u64,
}

impl Window {
    /// The measurement window after discarding `warmup` cycles, over a
    /// run of `run_cycles` total cycles: `[warmup, warmup + measure)`
    /// clamped into the run. A warm-up longer than the run yields an
    /// empty window rather than an error.
    pub fn after_warmup(warmup: u64, measure: u64, run_cycles: u64) -> Self {
        let start = warmup.min(run_cycles);
        let end = warmup.saturating_add(measure).min(run_cycles);
        Window {
            start,
            end: end.max(start),
        }
    }

    /// Window length in cycles.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// Whether the window contains no cycle at all.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Whether `cycle` falls inside the window.
    pub fn contains(&self, cycle: u64) -> bool {
        (self.start..self.end).contains(&cycle)
    }
}

/// Which per-packet latency a windowed extraction samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatencyKind {
    /// Injection → delivery: saturates at a congestion-set maximum.
    Network,
    /// Release → delivery: includes source queueing and grows without
    /// bound past saturation — the sharper saturation signal.
    Total,
}

/// The (network, total) latency of a packet *injected* inside `window`
/// and delivered by end of run — one latency sample of each kind.
fn window_latencies(rec: &PacketRecord, window: Window) -> Option<(u64, u64)> {
    if !window.contains(rec.inject?.raw()) {
        return None;
    }
    Some((rec.network_latency()?, rec.total_latency()?))
}

/// The quantile histogram of samples no larger than `max`. Its
/// geometry covers every sample (no overflow bin use), so quantiles are
/// off by at most one bin width.
fn quantile_histogram(max: u64) -> Histogram {
    Histogram::new(QUANTILE_BINS, max / QUANTILE_BINS as u64 + 1)
}

/// Latencies below this are counted in a dense vector, 4 bytes per
/// value up to the largest one seen; larger ones in a sorted list.
const DENSE_LATENCIES: u64 = 1 << 16;

/// Exact counts of one latency kind's samples, per value.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Counts {
    /// `dense[v]`: the samples of value `v`, up to `u32::MAX` of them.
    dense: Vec<u32>,
    /// `(value, samples)` by value: each value from [`DENSE_LATENCIES`]
    /// on, and a smaller value's samples past its dense count's
    /// `u32::MAX`. Such latencies arise only in runs past saturation
    /// longer than 2^16 cycles, where they mostly grow with the run, so
    /// a new value is mostly appended.
    spill: Vec<(u64, u64)>,
}

impl Counts {
    /// Counts one sample of `value`.
    fn add(&mut self, value: u64) {
        if value < DENSE_LATENCIES {
            let i = value as usize;
            if i >= self.dense.len() {
                self.dense.resize(i + 1, 0);
            }
            if let Some(n) = self.dense[i].checked_add(1) {
                self.dense[i] = n;
                return;
            }
        }
        match self.spill.binary_search_by_key(&value, |&(v, _)| v) {
            Ok(i) => self.spill[i].1 += 1,
            Err(i) => self.spill.insert(i, (value, 1)),
        }
    }

    /// Each counted value with its count, once or (a dense value that
    /// spilled) twice; no order is promised.
    fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let dense = (0..).zip(self.dense.iter().map(|&n| u64::from(n)));
        dense
            .filter(|&(_, n)| n > 0)
            .chain(self.spill.iter().copied())
    }
}

/// A window a ledger watches while it runs: everything
/// [`WindowStats::from_ledger_both`] reads from the records, folded one
/// delivery at a time, so the ledger needs no record after it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Watch {
    window: Window,
    delivered_packets: u64,
    delivered_flits: u64,
    network: Counts,
    total: Counts,
}

impl Watch {
    /// Watches `window`, nothing folded yet.
    pub(crate) fn new(window: Window) -> Self {
        Watch {
            window,
            delivered_packets: 0,
            delivered_flits: 0,
            network: Counts::default(),
            total: Counts::default(),
        }
    }

    /// Folds the delivery at cycle `deliver` of a packet of `len_flits`
    /// injected at cycle `inject`, whose latencies are `latency`.
    #[inline]
    pub(crate) fn fold(
        &mut self,
        inject: u64,
        deliver: u64,
        len_flits: u16,
        latency: PacketLatency,
    ) {
        if self.window.contains(deliver) {
            self.delivered_packets += 1;
            self.delivered_flits += u64::from(len_flits);
        }
        if self.window.contains(inject) {
            self.network.add(latency.network);
            self.total.add(latency.total);
        }
    }

    /// The network- and total-latency statistics of the window, as
    /// [`WindowStats::from_ledger_both`] builds them.
    pub(crate) fn stats(&self) -> (WindowStats, WindowStats) {
        let stats = |kind, counts: &Counts| {
            let mut s = WindowStats::blank(self.window, kind);
            s.delivered_packets = self.delivered_packets;
            s.delivered_flits = self.delivered_flits;
            for (value, n) in counts.iter() {
                s.samples += n;
                s.sum += value * n;
                s.min = s.min.min(value);
                s.max = s.max.max(value);
            }
            if s.samples > 0 {
                let mut h = quantile_histogram(s.max);
                for (value, n) in counts.iter() {
                    for _ in 0..n {
                        h.record(value);
                    }
                }
                s.histogram = Some(h);
            }
            s
        };
        (
            stats(LatencyKind::Network, &self.network),
            stats(LatencyKind::Total, &self.total),
        )
    }
}

/// Windowed latency + throughput statistics extracted from a ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowStats {
    window: Window,
    kind: LatencyKind,
    samples: u64,
    sum: u64,
    min: u64,
    max: u64,
    delivered_packets: u64,
    delivered_flits: u64,
    histogram: Option<Histogram>,
}

impl WindowStats {
    /// Extracts the statistics of `window` from a ledger.
    ///
    /// Latency samples are the packets *injected* inside the window
    /// and delivered by end of run; throughput counts the packets
    /// *delivered* inside the window. Callers that need both latency
    /// kinds should use [`WindowStats::from_ledger_both`] — both come
    /// from the same two ledger passes.
    pub fn from_ledger(ledger: &PacketLedger, window: Window, kind: LatencyKind) -> Self {
        let (network, total) = Self::from_ledger_both(ledger, window);
        match kind {
            LatencyKind::Network => network,
            LatencyKind::Total => total,
        }
    }

    /// Extracts both the network- and total-latency statistics of
    /// `window` in two ledger passes without copying a sample (the
    /// curve harness reads both per load point; throughput counts are
    /// identical in the pair). Pass 1 takes counts, sums and extremes;
    /// pass 2 fills the histograms, whose bin width comes from pass 1's
    /// maximum.
    ///
    /// A ledger that watches `window` ([`PacketLedger::watch`]) keeps no
    /// history to read, so its folded statistics are returned instead
    /// ([`PacketLedger::watched`]): the same two statistics.
    ///
    /// # Panics
    ///
    /// Panics if the ledger watches a window other than `window`: its
    /// records are then only the packets still open.
    pub fn from_ledger_both(ledger: &PacketLedger, window: Window) -> (Self, Self) {
        if let Some(watched) = ledger.watched() {
            assert_eq!(
                watched.0.window, window,
                "a watching ledger has the statistics of its own window only"
            );
            return watched;
        }
        let blank = |kind| WindowStats::blank(window, kind);
        let (mut network, mut total) = (blank(LatencyKind::Network), blank(LatencyKind::Total));
        for rec in ledger.records() {
            if rec.deliver.is_some_and(|d| window.contains(d.raw())) {
                network.delivered_packets += 1;
                network.delivered_flits += u64::from(rec.len_flits);
            }
            if let Some((net, tot)) = window_latencies(&rec, window) {
                network.add(net);
                total.add(tot);
            }
        }
        total.delivered_packets = network.delivered_packets;
        total.delivered_flits = network.delivered_flits;
        if network.samples > 0 {
            let mut network_h = quantile_histogram(network.max);
            let mut total_h = quantile_histogram(total.max);
            for rec in ledger.records() {
                if let Some((net, tot)) = window_latencies(&rec, window) {
                    network_h.record(net);
                    total_h.record(tot);
                }
            }
            network.histogram = Some(network_h);
            total.histogram = Some(total_h);
        }
        (network, total)
    }

    /// No sample and no delivery yet.
    fn blank(window: Window, kind: LatencyKind) -> Self {
        WindowStats {
            window,
            kind,
            samples: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            delivered_packets: 0,
            delivered_flits: 0,
            histogram: None,
        }
    }

    /// Books one latency sample's summary statistics.
    fn add(&mut self, latency: u64) {
        self.samples += 1;
        self.sum += latency;
        self.min = self.min.min(latency);
        self.max = self.max.max(latency);
    }

    /// The window the statistics cover.
    pub fn window(&self) -> Window {
        self.window
    }

    /// Which latency was sampled.
    pub fn kind(&self) -> LatencyKind {
        self.kind
    }

    /// Number of latency samples (packets injected inside the window
    /// and delivered).
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Packets delivered inside the window.
    pub fn delivered_packets(&self) -> u64 {
        self.delivered_packets
    }

    /// Flits delivered inside the window.
    pub fn delivered_flits(&self) -> u64 {
        self.delivered_flits
    }

    /// Accepted throughput: flits delivered inside the window per
    /// window cycle (0 for an empty window).
    pub fn accepted_flits_per_cycle(&self) -> f64 {
        if self.window.is_empty() {
            0.0
        } else {
            self.delivered_flits as f64 / self.window.len() as f64
        }
    }

    /// Mean sampled latency, or `None` without samples.
    pub fn mean(&self) -> Option<f64> {
        (self.samples > 0).then(|| self.sum as f64 / self.samples as f64)
    }

    /// Smallest sampled latency, or `None` without samples.
    pub fn min(&self) -> Option<u64> {
        (self.samples > 0).then_some(self.min)
    }

    /// Largest sampled latency, or `None` without samples.
    pub fn max(&self) -> Option<u64> {
        (self.samples > 0).then_some(self.max)
    }

    /// The `q`-quantile of the sampled latencies, from the window
    /// histogram (error bounded by one bin width —
    /// [`WindowStats::quantile_resolution`]).
    pub fn quantile(&self, q: f64) -> Option<u64> {
        self.histogram.as_ref().and_then(|h| h.quantile(q))
    }

    /// Median latency.
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// 95th-percentile latency.
    pub fn p95(&self) -> Option<u64> {
        self.quantile(0.95)
    }

    /// 99th-percentile latency.
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// Bin width of the quantile histogram (the worst-case quantile
    /// error), or `None` without samples.
    pub fn quantile_resolution(&self) -> Option<u64> {
        self.histogram.as_ref().map(Histogram::bin_width)
    }

    /// The latency distribution inside the window, when any sample
    /// was recorded.
    pub fn histogram(&self) -> Option<&Histogram> {
        self.histogram.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nocem_common::choice::check;
    use nocem_common::ids::PacketId;
    use nocem_common::time::Cycle;
    use nocem_common::{prop_assert, prop_assert_eq};

    /// Builds a ledger where packet `i` is released at `release[i]`,
    /// injected 1 cycle later and delivered `lat[i]` cycles after
    /// injection.
    fn ledger_of(points: &[(u64, u64)]) -> PacketLedger {
        let mut l = PacketLedger::new();
        for (i, &(release, lat)) in points.iter().enumerate() {
            let id = PacketId::new(i as u64);
            l.release(id, Cycle::new(release), 2).unwrap();
            l.inject(id, Cycle::new(release + 1)).unwrap();
            l.deliver(id, Cycle::new(release + 1 + lat), 2).unwrap();
        }
        l
    }

    #[test]
    fn empty_window_yields_no_statistics() {
        let l = ledger_of(&[(0, 10), (5, 10)]);
        let w = Window::after_warmup(100, 100, 50); // warm-up beyond run
        assert!(w.is_empty());
        let s = WindowStats::from_ledger(&l, w, LatencyKind::Network);
        assert_eq!(s.samples(), 0);
        assert_eq!(s.mean(), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.p99(), None);
        assert_eq!(s.delivered_flits(), 0);
        assert_eq!(s.accepted_flits_per_cycle(), 0.0);
    }

    #[test]
    fn warmup_larger_than_run_clamps_to_empty() {
        let w = Window::after_warmup(1_000, 4_000, 600);
        assert_eq!(
            w,
            Window {
                start: 600,
                end: 600
            }
        );
        let w = Window::after_warmup(100, 4_000, 600);
        assert_eq!(
            w,
            Window {
                start: 100,
                end: 600
            }
        );
    }

    #[test]
    fn single_sample_window() {
        // Injected at cycle 11, delivered at 31 (latency 20).
        let l = ledger_of(&[(10, 20)]);
        let w = Window::after_warmup(5, 100, 200);
        let s = WindowStats::from_ledger(&l, w, LatencyKind::Network);
        assert_eq!(s.samples(), 1);
        assert_eq!(s.mean(), Some(20.0));
        assert_eq!(s.min(), Some(20));
        assert_eq!(s.max(), Some(20));
        // One sample: every quantile lands in its bin.
        let p99 = s.p99().unwrap();
        assert!(p99 >= 20 && p99 - 20 <= s.quantile_resolution().unwrap());
        assert_eq!(s.delivered_packets(), 1);
        assert_eq!(s.delivered_flits(), 2);
        // Total latency includes the 1-cycle source queueing here.
        let t = WindowStats::from_ledger(&l, w, LatencyKind::Total);
        assert_eq!(t.mean(), Some(21.0));
    }

    #[test]
    fn warmup_discards_transient_packets() {
        // One packet injected during warm-up (large latency), one
        // inside the window (small latency); both deliver inside it.
        let l = ledger_of(&[(0, 100), (60, 10)]);
        let w = Window::after_warmup(50, 100, 1_000);
        let s = WindowStats::from_ledger(&l, w, LatencyKind::Network);
        assert_eq!(s.samples(), 1, "warm-up packet discarded");
        assert_eq!(s.max(), Some(10));
        // The warm-up packet *delivers* inside the window though —
        // throughput counts it (the network really carried it).
        assert_eq!(s.delivered_packets(), 2);
    }

    #[test]
    fn undelivered_packets_contribute_nothing() {
        let mut l = ledger_of(&[(10, 5)]);
        l.release(PacketId::new(1), Cycle::new(12), 2).unwrap();
        l.inject(PacketId::new(1), Cycle::new(13)).unwrap(); // never delivered
        let w = Window::after_warmup(0, 100, 100);
        let s = WindowStats::from_ledger(&l, w, LatencyKind::Network);
        assert_eq!(s.samples(), 1);
        assert_eq!(s.delivered_packets(), 1);
    }

    #[test]
    fn quantile_zero_reads_the_minimums_bin() {
        // Ten latencies 1000..=1009: the bin width is 1009 / 256 + 1 = 4,
        // so bins 0..250 are empty and q = 0 must not read bin 0's edge.
        let points: Vec<(u64, u64)> = (0..10).map(|i| (i, 1_000 + i)).collect();
        let l = ledger_of(&points);
        let w = Window::after_warmup(0, 2_000, 2_000);
        let s = WindowStats::from_ledger(&l, w, LatencyKind::Network);
        assert_eq!(s.quantile_resolution(), Some(4));
        assert_eq!(s.min(), Some(1_000));
        assert_eq!(s.quantile(0.0), Some(1_004));
        assert_eq!(s.quantile(1.0), Some(1_012));
    }

    /// Per-value counts stay exact past the dense range, in the sorted
    /// list whatever order values arrive in, and past a dense count's
    /// `u32::MAX`, where the value's further samples spill to the list.
    #[test]
    fn counts_stay_exact_past_the_dense_range_and_u32() {
        let mut c = Counts::default();
        for v in [3, 1 << 40, DENSE_LATENCIES, 1 << 40, DENSE_LATENCIES + 1] {
            c.add(v);
        }
        c.dense[3] = u32::MAX;
        c.add(3);
        c.add(3);
        assert_eq!(c.dense.len(), 4);
        assert_eq!(
            c.spill,
            [
                (3, 2),
                (DENSE_LATENCIES, 1),
                (DENSE_LATENCIES + 1, 1),
                (1 << 40, 2)
            ]
        );
        let mut all: Vec<_> = c.iter().collect();
        all.sort_unstable();
        let max = u64::from(u32::MAX);
        assert_eq!(
            all,
            [
                (3, 2),
                (3, max),
                (DENSE_LATENCIES, 1),
                (DENSE_LATENCIES + 1, 1),
                (1 << 40, 2)
            ]
        );
    }

    /// Exact quantile reference: the rank-`ceil(q*n)` order statistic.
    fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
        let n = sorted.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        sorted[rank - 1]
    }

    /// Windowed quantiles agree with a sorted-vec reference within
    /// one bin width, on heavy-tailed synthetic data (cubed
    /// uniforms stretch the tail across ~3 decades).
    #[test]
    fn quantiles_match_sorted_reference_on_heavy_tails() {
        check(
            "quantiles_match_sorted_reference_on_heavy_tails",
            0..128,
            |c| {
                let raw = c.vec(1..150, |c| c.range(0u64..500));
                let lats: Vec<u64> = raw.iter().map(|&x| x * x * x / 100 + 1).collect();
                let points: Vec<(u64, u64)> = lats
                    .iter()
                    .enumerate()
                    .map(|(i, &l)| (i as u64, l))
                    .collect();
                let ledger = ledger_of(&points);
                let horizon = points.iter().map(|&(r, l)| r + 1 + l).max().unwrap() + 1;
                let w = Window::after_warmup(0, horizon, horizon);
                let s = WindowStats::from_ledger(&ledger, w, LatencyKind::Network);
                prop_assert_eq!(s.samples(), lats.len() as u64);
                let mut sorted = lats.clone();
                sorted.sort_unstable();
                let width = s.quantile_resolution().unwrap();
                for &q in &[0.0, 0.5, 0.95, 0.99, 1.0] {
                    let approx = s.quantile(q).unwrap();
                    let exact = exact_quantile(&sorted, q);
                    prop_assert!(
                        approx >= exact && approx - exact <= width,
                        "q={} approx={} exact={} width={}",
                        q,
                        approx,
                        exact,
                        width
                    );
                }
                let exact_mean = lats.iter().sum::<u64>() as f64 / lats.len() as f64;
                prop_assert!((s.mean().unwrap() - exact_mean).abs() < 1e-6);
                prop_assert_eq!(s.min(), sorted.first().copied());
                prop_assert_eq!(s.max(), sorted.last().copied());
                Ok(())
            },
        );
    }

    /// `Histogram::quantile` itself agrees with the sorted-vec
    /// reference within one bin width whenever the geometry covers
    /// every sample (no overflow).
    #[test]
    fn histogram_quantile_matches_sorted_reference() {
        check("histogram_quantile_matches_sorted_reference", 0..128, |c| {
            let values = c.vec(1..200, |c| c.range(0u64..100_000));
            let max = *values.iter().max().unwrap();
            let bins = 64usize;
            let width = max / bins as u64 + 1;
            let mut h = Histogram::new(bins, width);
            for &v in &values {
                h.record(v);
            }
            prop_assert_eq!(h.overflow(), 0);
            let mut sorted = values.clone();
            sorted.sort_unstable();
            for &q in &[0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
                let approx = h.quantile(q).unwrap();
                let exact = exact_quantile(&sorted, q);
                prop_assert!(
                    approx >= exact && approx - exact <= width,
                    "q={} approx={} exact={} width={}",
                    q,
                    approx,
                    exact,
                    width
                );
            }
            Ok(())
        });
    }
}
