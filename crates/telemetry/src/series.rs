//! Ring-buffered per-resource series and the windowing collector.

use nocem_common::ids::LinkId;
use std::collections::VecDeque;

use crate::TelemetryConfig;

/// A fixed-capacity ring of per-window samples for one resource.
///
/// The ring evicts its oldest sample when full, but the running
/// `total` keeps accumulating — the conservation property the
/// window-sum tests rely on never depends on ring capacity.
///
/// # Examples
///
/// ```
/// use nocem_telemetry::ResourceSeries;
/// let mut s = ResourceSeries::new(2);
/// s.push(3);
/// s.push(4);
/// s.push(5); // evicts the 3
/// assert_eq!(s.samples(), &[4, 5]);
/// assert_eq!(s.total(), 12);
/// assert_eq!(s.windows(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceSeries {
    samples: VecDeque<u64>,
    capacity: usize,
    evicted: u64,
    total: u64,
}

impl ResourceSeries {
    /// Creates an empty series holding at most `capacity` samples.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "series needs room for at least one sample");
        ResourceSeries {
            samples: VecDeque::with_capacity(capacity),
            capacity,
            evicted: 0,
            total: 0,
        }
    }

    /// Appends one window sample, evicting the oldest when full.
    pub fn push(&mut self, sample: u64) {
        if self.samples.len() == self.capacity {
            self.samples.pop_front();
            self.evicted += 1;
        }
        self.samples.push_back(sample);
        self.total += sample;
    }

    /// Samples currently held (oldest first).
    pub fn samples(&self) -> &VecDeque<u64> {
        &self.samples
    }

    /// Number of samples currently held.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no sample was ever pushed (held or evicted).
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty() && self.evicted == 0
    }

    /// The most recent sample, if any.
    pub fn last(&self) -> Option<u64> {
        self.samples.back().copied()
    }

    /// Sum over *all* samples ever pushed, including evicted ones.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Samples ever pushed (held plus evicted).
    pub fn windows(&self) -> u64 {
        self.evicted + self.samples.len() as u64
    }
}

/// A cumulative snapshot of the per-resource counters at one instant:
/// per-link lifetime forwarded flits and blocked cycles, plus *live*
/// per-VC buffer occupancy (flits currently buffered on each VC,
/// summed over all switch inputs).
///
/// Links are accounted source-side, exactly like the results'
/// congestion counters: inter-switch and ejection links at the
/// upstream switch output, injection links at the network interface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CumulativeProbe {
    forwarded: Vec<u64>,
    blocked: Vec<u64>,
    vc_occupancy: Vec<u64>,
}

impl CumulativeProbe {
    /// A zeroed probe for `links` links and `vcs` virtual channels.
    pub fn new(links: usize, vcs: usize) -> Self {
        CumulativeProbe {
            forwarded: vec![0; links],
            blocked: vec![0; links],
            vc_occupancy: vec![0; vcs],
        }
    }

    /// Adds cumulative counters for one link (source-side accounting:
    /// each link is fed once).
    pub fn add_link(&mut self, link: LinkId, blocked: u64, forwarded: u64) {
        self.blocked[link.index()] += blocked;
        self.forwarded[link.index()] += forwarded;
    }

    /// Adds live buffered flits on one virtual channel.
    pub fn add_vc(&mut self, vc: usize, occupancy: u64) {
        self.vc_occupancy[vc] += occupancy;
    }

    /// Cumulative forwarded flits per link.
    pub fn forwarded(&self) -> &[u64] {
        &self.forwarded
    }

    /// Cumulative blocked cycles per link.
    pub fn blocked(&self) -> &[u64] {
        &self.blocked
    }

    /// Live buffered flits per VC.
    pub fn vc_occupancy(&self) -> &[u64] {
        &self.vc_occupancy
    }
}

/// Aggregate statistics of one link over the recorded run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkStat {
    /// The link.
    pub link: LinkId,
    /// Blocked cycles charged to the link's source port.
    pub blocked: u64,
    /// Flits that crossed the link.
    pub forwarded: u64,
}

impl LinkStat {
    /// Blocked fraction `blocked / (blocked + forwarded)` — the same
    /// congestion-rate definition as `CongestionCounter::rate`.
    pub fn rate(&self) -> f64 {
        let b = self.blocked as f64;
        let f = self.forwarded as f64;
        if b + f == 0.0 {
            0.0
        } else {
            b / (b + f)
        }
    }
}

/// Turns cumulative probes into cycle-aligned per-window deltas.
///
/// Window `k` covers cycles `[k·W, (k+1)·W)` and is recorded the
/// first time the engine probes at a cycle `now >= (k+1)·W`; the
/// sample is the cumulative-counter delta since the previous boundary.
/// One probe that crosses several boundaries (a clock-gated
/// fast-forward over a quiescent stretch) records the delta in the
/// first crossed window and explicit zero samples for the rest — by
/// quiescence nothing moved there, so the series stays bit-identical
/// to an ungated run's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Collector {
    window: u64,
    next_boundary: u64,
    last_forwarded: Vec<u64>,
    last_blocked: Vec<u64>,
    forwarded: Vec<ResourceSeries>,
    blocked: Vec<ResourceSeries>,
    occupancy: Vec<ResourceSeries>,
    sealed: bool,
}

impl Collector {
    /// Creates a collector for `links` links and `vcs` virtual
    /// channels under the given config.
    pub fn new(config: &TelemetryConfig, links: usize, vcs: usize) -> Self {
        assert!(
            config.window > 0,
            "telemetry window must be at least one cycle"
        );
        Collector {
            window: config.window,
            next_boundary: config.window,
            last_forwarded: vec![0; links],
            last_blocked: vec![0; links],
            forwarded: (0..links)
                .map(|_| ResourceSeries::new(config.capacity))
                .collect(),
            blocked: (0..links)
                .map(|_| ResourceSeries::new(config.capacity))
                .collect(),
            occupancy: (0..vcs)
                .map(|_| ResourceSeries::new(config.capacity))
                .collect(),
            sealed: false,
        }
    }

    /// Whether a probe at cycle `now` would record at least one
    /// window. Engines call this before building a (comparatively
    /// expensive) [`CumulativeProbe`].
    pub fn needs_probe(&self, now: u64) -> bool {
        !self.sealed && now >= self.next_boundary
    }

    /// Records every window boundary at or before `now` from the
    /// given cumulative probe. The probe must reflect cycles
    /// `[0, now)` — i.e. be taken at the start of the engine's cycle
    /// `now`, after any clock-gated fast-forward.
    ///
    /// # Panics
    ///
    /// Panics if the collector is sealed or the probe shape disagrees.
    pub fn record(&mut self, now: u64, probe: &CumulativeProbe) {
        assert!(!self.sealed, "collector is sealed");
        while self.next_boundary <= now {
            self.push_window(probe);
            self.next_boundary += self.window;
        }
    }

    /// Records any boundaries still at or before `now`, then a
    /// trailing partial window covering the cycles since the last
    /// boundary (if any ran), and freezes the collector. After
    /// sealing, every series total equals the lifetime counter of its
    /// resource.
    pub fn seal(&mut self, now: u64, probe: &CumulativeProbe) {
        if self.sealed {
            return;
        }
        self.record(now, probe);
        if now > self.next_boundary - self.window {
            self.push_window(probe);
        }
        self.sealed = true;
    }

    fn push_window(&mut self, probe: &CumulativeProbe) {
        assert_eq!(probe.forwarded.len(), self.forwarded.len(), "probe shape");
        assert_eq!(
            probe.vc_occupancy.len(),
            self.occupancy.len(),
            "probe shape"
        );
        for l in 0..self.forwarded.len() {
            let df = probe.forwarded[l] - self.last_forwarded[l];
            let db = probe.blocked[l] - self.last_blocked[l];
            self.forwarded[l].push(df);
            self.blocked[l].push(db);
            self.last_forwarded[l] = probe.forwarded[l];
            self.last_blocked[l] = probe.blocked[l];
        }
        for (v, series) in self.occupancy.iter_mut().enumerate() {
            series.push(probe.vc_occupancy[v]);
        }
    }

    /// Window length in cycles.
    pub fn window_cycles(&self) -> u64 {
        self.window
    }

    /// Number of links covered.
    pub fn links(&self) -> usize {
        self.forwarded.len()
    }

    /// Number of virtual channels covered.
    pub fn vcs(&self) -> usize {
        self.occupancy.len()
    }

    /// Windows recorded so far (including evicted samples and the
    /// trailing partial window after sealing).
    pub fn windows_recorded(&self) -> u64 {
        self.forwarded.first().map_or(0, ResourceSeries::windows)
    }

    /// Whether [`Collector::seal`] ran.
    pub fn is_sealed(&self) -> bool {
        self.sealed
    }

    /// Per-window forwarded flits of one link.
    pub fn forwarded_series(&self, link: LinkId) -> &ResourceSeries {
        &self.forwarded[link.index()]
    }

    /// Per-window blocked cycles of one link.
    pub fn blocked_series(&self, link: LinkId) -> &ResourceSeries {
        &self.blocked[link.index()]
    }

    /// Lifetime forwarded flits of one link (sum over all windows).
    pub fn total_forwarded(&self, link: LinkId) -> u64 {
        self.forwarded[link.index()].total()
    }

    /// Lifetime blocked cycles of one link.
    pub fn total_blocked(&self, link: LinkId) -> u64 {
        self.blocked[link.index()].total()
    }

    /// The most recent window's forwarded flits of one link (0 before
    /// the first boundary).
    pub fn last_forwarded(&self, link: LinkId) -> u64 {
        self.forwarded[link.index()].last().unwrap_or(0)
    }

    /// The most recent window's blocked cycles of one link.
    pub fn last_blocked(&self, link: LinkId) -> u64 {
        self.blocked[link.index()].last().unwrap_or(0)
    }

    /// The lifetime stats of link `l`.
    fn link_total(&self, l: usize) -> LinkStat {
        LinkStat {
            link: LinkId::new(l as u32),
            blocked: self.blocked[l].total(),
            forwarded: self.forwarded[l].total(),
        }
    }

    /// Aggregate lifetime stats of every link, in link order.
    pub fn link_totals(&self) -> Vec<LinkStat> {
        (0..self.links()).map(|l| self.link_total(l)).collect()
    }

    /// The `k` most blocked links, descending by lifetime blocked
    /// cycles (ties broken by link id, lower first), in a vector that
    /// holds no more than them.
    pub fn top_blocked(&self, k: usize) -> Vec<LinkStat> {
        let mut stats = self.link_totals();
        stats.sort_by(hotter);
        stats.truncate(k);
        stats.shrink_to_fit();
        stats
    }

    /// The single most blocked link, if any link recorded activity.
    pub fn hottest(&self) -> Option<LinkStat> {
        (0..self.links())
            .map(|l| self.link_total(l))
            .min_by(hotter)
            .filter(|s| s.blocked + s.forwarded > 0)
    }
}

/// The order of [`Collector::top_blocked`]: more blocked cycles first,
/// then the lower link id.
fn hotter(a: &LinkStat, b: &LinkStat) -> std::cmp::Ordering {
    b.blocked.cmp(&a.blocked).then(a.link.cmp(&b.link))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(window: u64, capacity: usize) -> TelemetryConfig {
        TelemetryConfig { window, capacity }
    }

    fn probe(forwarded: &[u64], blocked: &[u64], occ: &[u64]) -> CumulativeProbe {
        let mut p = CumulativeProbe::new(forwarded.len(), occ.len());
        for (l, (&f, &b)) in forwarded.iter().zip(blocked).enumerate() {
            p.add_link(LinkId::new(l as u32), b, f);
        }
        for (v, &o) in occ.iter().enumerate() {
            p.add_vc(v, o);
        }
        p
    }

    #[test]
    fn series_ring_evicts_but_total_survives() {
        let mut s = ResourceSeries::new(3);
        for x in [1, 2, 3, 4, 5] {
            s.push(x);
        }
        assert_eq!(s.samples().iter().copied().collect::<Vec<_>>(), [3, 4, 5]);
        assert_eq!(s.total(), 15);
        assert_eq!(s.windows(), 5);
        assert_eq!(s.last(), Some(5));
    }

    #[test]
    fn collector_windows_are_deltas() {
        let mut c = Collector::new(&cfg(10, 8), 2, 1);
        assert!(!c.needs_probe(9));
        assert!(c.needs_probe(10));
        c.record(10, &probe(&[7, 0], &[3, 0], &[2]));
        c.record(20, &probe(&[9, 5], &[3, 1], &[0]));
        let l0 = LinkId::new(0);
        let l1 = LinkId::new(1);
        assert_eq!(
            c.forwarded_series(l0)
                .samples()
                .iter()
                .copied()
                .collect::<Vec<_>>(),
            [7, 2]
        );
        assert_eq!(
            c.blocked_series(l1)
                .samples()
                .iter()
                .copied()
                .collect::<Vec<_>>(),
            [0, 1]
        );
        assert_eq!(c.total_forwarded(l0), 9);
        assert_eq!(c.last_forwarded(l0), 2);
    }

    #[test]
    fn gated_jump_records_zero_samples_per_crossed_boundary() {
        let mut c = Collector::new(&cfg(10, 8), 1, 1);
        c.record(10, &probe(&[4], &[1], &[0]));
        // One probe at cycle 45 crosses boundaries 20, 30, 40: the
        // delta lands in the first crossed window, the rest are zero.
        c.record(45, &probe(&[6], &[1], &[0]));
        assert_eq!(
            c.forwarded_series(LinkId::new(0))
                .samples()
                .iter()
                .copied()
                .collect::<Vec<_>>(),
            [4, 2, 0, 0]
        );
        assert_eq!(c.windows_recorded(), 4);
    }

    #[test]
    fn seal_flushes_partial_window_and_conserves_totals() {
        let mut c = Collector::new(&cfg(10, 8), 1, 1);
        c.record(10, &probe(&[4], &[2], &[1]));
        c.seal(13, &probe(&[9], &[2], &[3]));
        let l = LinkId::new(0);
        assert_eq!(
            c.forwarded_series(l)
                .samples()
                .iter()
                .copied()
                .collect::<Vec<_>>(),
            [4, 5]
        );
        assert_eq!(c.total_forwarded(l), 9);
        assert_eq!(c.total_blocked(l), 2);
        assert!(c.is_sealed());
        assert!(!c.needs_probe(100));
        // Sealing twice is a no-op.
        c.seal(13, &probe(&[9], &[2], &[3]));
        assert_eq!(c.windows_recorded(), 2);
    }

    #[test]
    fn seal_at_exact_boundary_adds_no_partial() {
        let mut c = Collector::new(&cfg(10, 8), 1, 0);
        c.seal(20, &probe(&[8], &[0], &[]));
        assert_eq!(c.windows_recorded(), 2);
        assert_eq!(c.total_forwarded(LinkId::new(0)), 8);
    }

    #[test]
    fn top_blocked_sorts_desc_with_id_tiebreak() {
        let mut c = Collector::new(&cfg(10, 8), 4, 0);
        c.seal(10, &probe(&[1, 1, 1, 1], &[5, 9, 5, 0], &[]));
        let top = c.top_blocked(3);
        assert_eq!(top.len(), 3);
        assert_eq!(top[0].link, LinkId::new(1));
        assert_eq!(top[0].blocked, 9);
        assert_eq!(top[1].link, LinkId::new(0), "tie broken by id");
        assert_eq!(top[2].link, LinkId::new(2));
        assert_eq!(c.hottest().unwrap().link, LinkId::new(1));
    }

    /// A curve point keeps its top links, so `top_blocked` must not
    /// hand back the buffer of every link's stats.
    #[test]
    fn top_blocked_holds_no_more_than_k() {
        let mut c = Collector::new(&cfg(10, 8), 64, 0);
        c.seal(10, &probe(&[1; 64], &[3; 64], &[]));
        for k in [0, 1, 8, 64, 100] {
            let top = c.top_blocked(k);
            assert_eq!(top.len(), k.min(64));
            assert!(top.capacity() <= k, "capacity {} > {k}", top.capacity());
        }
    }

    /// The hottest link is the first of the top list: the most blocked,
    /// the lower id on a tie.
    #[test]
    fn hottest_is_the_head_of_top_blocked() {
        let mut c = Collector::new(&cfg(10, 8), 5, 0);
        c.seal(10, &probe(&[0, 4, 0, 1, 2], &[0, 7, 9, 9, 1], &[]));
        let hot = c.hottest().unwrap();
        assert_eq!(Some(hot), c.top_blocked(1).first().copied());
        assert_eq!((hot.link, hot.blocked), (LinkId::new(2), 9));
    }

    #[test]
    fn hottest_is_none_on_idle_network() {
        let mut c = Collector::new(&cfg(10, 8), 2, 0);
        c.seal(25, &probe(&[0, 0], &[0, 0], &[]));
        assert!(c.hottest().is_none());
    }

    #[test]
    fn link_stat_rate_matches_congestion_rate_definition() {
        let s = LinkStat {
            link: LinkId::new(0),
            blocked: 1,
            forwarded: 3,
        };
        assert!((s.rate() - 0.25).abs() < 1e-12);
        let idle = LinkStat {
            link: LinkId::new(0),
            blocked: 0,
            forwarded: 0,
        };
        assert_eq!(idle.rate(), 0.0);
    }
}
