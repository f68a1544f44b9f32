//! The congestion counter — the paper's second trace-driven receptor
//! statistic.
//!
//! Congestion is accounted per link, at the link's *source*: a link is
//! *blocked* in a cycle when a flit waited to traverse it but was not
//! granted (arbitration loss, busy wormhole, or exhausted credits).
//! [`CongestionCounter`] accumulates `(blocked, forwarded)` pairs per
//! link; the **congestion rate** of a link is
//! `blocked / (blocked + forwarded)` — stall cycles per unit of
//! carried traffic, which is the y-axis of the paper's Figure 3.

use nocem_common::ids::LinkId;

/// Per-link congestion accumulator.
///
/// # Examples
///
/// ```
/// use nocem_common::ids::LinkId;
/// use nocem_stats::congestion::CongestionCounter;
///
/// let mut cc = CongestionCounter::new(2);
/// cc.add(LinkId::new(0), 25, 75); // blocked 25 cycles, forwarded 75 flits
/// assert!((cc.rate(LinkId::new(0)) - 0.25).abs() < 1e-9);
/// assert_eq!(cc.rate(LinkId::new(1)), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CongestionCounter {
    blocked: Vec<u64>,
    forwarded: Vec<u64>,
}

impl CongestionCounter {
    /// Creates counters for `links` links, all zero.
    pub fn new(links: usize) -> Self {
        CongestionCounter {
            blocked: vec![0; links],
            forwarded: vec![0; links],
        }
    }

    /// Number of links tracked.
    pub fn links(&self) -> usize {
        self.blocked.len()
    }

    /// Adds `blocked` stall cycles and `forwarded` flits to `link`.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn add(&mut self, link: LinkId, blocked: u64, forwarded: u64) {
        self.blocked[link.index()] += blocked;
        self.forwarded[link.index()] += forwarded;
    }

    /// Blocked cycles accumulated on `link`.
    pub fn blocked(&self, link: LinkId) -> u64 {
        self.blocked[link.index()]
    }

    /// Flits forwarded over `link`.
    pub fn forwarded(&self, link: LinkId) -> u64 {
        self.forwarded[link.index()]
    }

    /// Congestion rate of `link`: `blocked / (blocked + forwarded)`,
    /// 0 when the link never carried traffic.
    pub fn rate(&self, link: LinkId) -> f64 {
        let b = self.blocked[link.index()] as f64;
        let f = self.forwarded[link.index()] as f64;
        if b + f == 0.0 {
            0.0
        } else {
            b / (b + f)
        }
    }

    /// Utilization of `link` over `cycles` total cycles:
    /// `forwarded / cycles`.
    pub fn utilization(&self, link: LinkId, cycles: u64) -> f64 {
        if cycles == 0 {
            0.0
        } else {
            self.forwarded[link.index()] as f64 / cycles as f64
        }
    }

    /// Aggregate congestion rate over a set of links (the paper's
    /// Figure 3 reports the rate of the hot links).
    pub fn aggregate_rate(&self, links: &[LinkId]) -> f64 {
        let mut b = 0u64;
        let mut f = 0u64;
        for &l in links {
            b += self.blocked[l.index()];
            f += self.forwarded[l.index()];
        }
        if b + f == 0 {
            0.0
        } else {
            b as f64 / (b + f) as f64
        }
    }

    /// Aggregate congestion rate over every link.
    pub fn network_rate(&self) -> f64 {
        let b: u64 = self.blocked.iter().sum();
        let f: u64 = self.forwarded.iter().sum();
        if b + f == 0 {
            0.0
        } else {
            b as f64 / (b + f) as f64
        }
    }

    /// The link with the highest congestion rate, if any traffic
    /// flowed at all.
    pub fn hottest(&self) -> Option<(LinkId, f64)> {
        (0..self.blocked.len())
            .map(|i| (LinkId::new(i as u32), self.rate(LinkId::new(i as u32))))
            .filter(|&(l, _)| self.blocked[l.index()] + self.forwarded[l.index()] > 0)
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("rates are finite"))
    }
}

/// Per-virtual-channel buffer occupancy watermarks.
///
/// Every switch tracks, per VC index, the highest fill level (in
/// flits) any of its per-VC input FIFOs reached; this accumulator
/// max-merges those watermarks across switches (and across shard
/// snapshots) into one platform-wide view. A VC that stays near its
/// FIFO depth for the whole run is the congestion hot spot the curve
/// CSVs surface as `max_vc_occupancy`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct VcOccupancy {
    max_per_vc: Vec<u64>,
}

impl VcOccupancy {
    /// Creates zeroed watermarks for `num_vcs` virtual channels.
    pub fn new(num_vcs: usize) -> Self {
        VcOccupancy {
            max_per_vc: vec![0; num_vcs],
        }
    }

    /// Number of virtual channels tracked.
    pub fn num_vcs(&self) -> usize {
        self.max_per_vc.len()
    }

    /// Raises the watermark of `vc` to at least `occupancy` (growing
    /// the VC axis on demand).
    pub fn record(&mut self, vc: usize, occupancy: u64) {
        if vc >= self.max_per_vc.len() {
            self.max_per_vc.resize(vc + 1, 0);
        }
        self.max_per_vc[vc] = self.max_per_vc[vc].max(occupancy);
    }

    /// Highest watermark over every VC.
    pub fn overall_max(&self) -> u64 {
        self.max_per_vc.iter().copied().max().unwrap_or(0)
    }

    /// The per-VC watermarks, indexed by VC.
    pub fn per_vc(&self) -> &[u64] {
        &self.max_per_vc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vc_occupancy_records_watermarks() {
        let mut o = VcOccupancy::new(2);
        assert_eq!(o.num_vcs(), 2);
        o.record(0, 3);
        o.record(0, 1); // lower: no change
        o.record(1, 4);
        assert_eq!(o.overall_max(), 4);
        assert_eq!(o.per_vc(), &[3, 4]);
    }

    #[test]
    fn vc_occupancy_grows_and_merges() {
        let mut a = VcOccupancy::new(1);
        a.record(0, 2);
        a.record(2, 5);
        assert_eq!(a.num_vcs(), 3);
        assert_eq!(a.per_vc(), &[2, 0, 5]);
        let empty = VcOccupancy::default();
        assert_eq!(empty.overall_max(), 0);
    }

    #[test]
    fn rates() {
        let mut cc = CongestionCounter::new(3);
        cc.add(LinkId::new(0), 10, 90);
        cc.add(LinkId::new(1), 50, 50);
        assert!((cc.rate(LinkId::new(0)) - 0.1).abs() < 1e-9);
        assert!((cc.rate(LinkId::new(1)) - 0.5).abs() < 1e-9);
        assert_eq!(cc.rate(LinkId::new(2)), 0.0);
    }

    #[test]
    fn accumulation_is_additive() {
        let mut cc = CongestionCounter::new(1);
        cc.add(LinkId::new(0), 5, 5);
        cc.add(LinkId::new(0), 5, 5);
        assert_eq!(cc.blocked(LinkId::new(0)), 10);
        assert_eq!(cc.forwarded(LinkId::new(0)), 10);
        assert!((cc.rate(LinkId::new(0)) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn aggregate_over_hot_links() {
        let mut cc = CongestionCounter::new(4);
        cc.add(LinkId::new(1), 30, 70);
        cc.add(LinkId::new(2), 10, 90);
        let agg = cc.aggregate_rate(&[LinkId::new(1), LinkId::new(2)]);
        assert!((agg - 0.2).abs() < 1e-9);
        assert_eq!(cc.aggregate_rate(&[LinkId::new(3)]), 0.0);
    }

    #[test]
    fn network_rate_spans_all_links() {
        let mut cc = CongestionCounter::new(2);
        cc.add(LinkId::new(0), 1, 3);
        cc.add(LinkId::new(1), 3, 1);
        assert!((cc.network_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn utilization() {
        let mut cc = CongestionCounter::new(1);
        cc.add(LinkId::new(0), 0, 45);
        assert!((cc.utilization(LinkId::new(0), 100) - 0.45).abs() < 1e-9);
        assert_eq!(cc.utilization(LinkId::new(0), 0), 0.0);
    }

    #[test]
    fn hottest_link() {
        let mut cc = CongestionCounter::new(3);
        assert_eq!(cc.hottest(), None);
        cc.add(LinkId::new(0), 1, 9);
        cc.add(LinkId::new(2), 5, 5);
        let (l, r) = cc.hottest().unwrap();
        assert_eq!(l, LinkId::new(2));
        assert!((r - 0.5).abs() < 1e-9);
    }
}
