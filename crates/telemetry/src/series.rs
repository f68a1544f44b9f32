//! The windowing collector: one window-major ring of per-window rows.

use nocem_common::ids::LinkId;

use crate::TelemetryConfig;

/// Aggregate statistics of one link over the recorded run, or over
/// one window of it.
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

/// Turns cumulative counters into cycle-aligned per-window deltas.
///
/// Window `k` covers cycles `[k·W, (k+1)·W)` and is recorded the
/// first time the engine probes at a cycle `now >= (k+1)·W`; its row
/// holds every link's forwarded and blocked deltas since the previous
/// boundary, then the flits buffered on each virtual channel. One
/// probe that crosses several boundaries (a clock-gated fast-forward
/// over a quiescent stretch) records the delta in the first crossed
/// window and zero deltas for the rest — by quiescence nothing moved
/// there, so the rows stay bit-identical to an ungated run's.
///
/// The ring grows one row per recorded window up to
/// [`TelemetryConfig::capacity`] rows; past that the oldest row is
/// overwritten. The per-link lifetime totals are the cumulative
/// counters at the last recorded boundary, so they survive eviction.
/// Window `k` always sits in slot `k % capacity`, which makes two
/// collectors that recorded the same windows equal field for field.
///
/// # Examples
///
/// ```
/// use nocem_common::ids::LinkId;
/// use nocem_telemetry::{Collector, LinkStat, TelemetryConfig};
/// let config = TelemetryConfig { window: 10, capacity: 2 };
/// let mut c = Collector::new(&config, 1, 0);
/// let link = LinkId::new(0);
/// for (now, forwarded) in [(10, 3), (20, 7), (30, 12)] {
///     c.record(now, [LinkStat { link, blocked: 0, forwarded }], []);
/// }
/// // The first window is evicted, its flits still count.
/// let held: Vec<u64> = c.history(link).map(|s| s.forwarded).collect();
/// assert_eq!(held, [4, 5]);
/// assert_eq!(c.total_forwarded(link), 12);
/// assert_eq!(c.windows_recorded(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Collector {
    window: u64,
    capacity: usize,
    next_boundary: u64,
    /// Per link: cumulative forwarded flits at the last recorded
    /// boundary.
    forwarded: Vec<u64>,
    /// Per link: cumulative blocked cycles at the last recorded
    /// boundary.
    blocked: Vec<u64>,
    vcs: usize,
    windows: u64,
    /// Window `k`'s row at slot `k % capacity`: the forwarded delta of
    /// every link, the blocked delta of every link, then the buffered
    /// flits of every VC.
    rows: Vec<u64>,
    sealed: bool,
}

impl Collector {
    /// Creates a collector for `links` links and `vcs` virtual
    /// channels under the given config. It holds no window row yet.
    ///
    /// # Panics
    ///
    /// Panics if the window or the capacity is 0.
    pub fn new(config: &TelemetryConfig, links: usize, vcs: usize) -> Self {
        assert!(
            config.window > 0,
            "telemetry window must be at least one cycle"
        );
        assert!(
            config.capacity > 0,
            "telemetry ring needs room for at least one window"
        );
        Collector {
            window: config.window,
            capacity: config.capacity,
            next_boundary: config.window,
            forwarded: vec![0; links],
            blocked: vec![0; links],
            vcs,
            windows: 0,
            rows: Vec::new(),
            sealed: false,
        }
    }

    /// Whether a probe at cycle `now` would record at least one
    /// window. Engines call this before reading their counters.
    pub fn needs_probe(&self, now: u64) -> bool {
        !self.sealed && now >= self.next_boundary
    }

    /// Records every window boundary at or before `now`. `links` are
    /// the cumulative counters of cycles `[0, now)` — each link at most
    /// once — and `buffered` the flits in each input buffer as
    /// `(vc, flits)`, read at the start of the engine's cycle `now`,
    /// after any clock-gated fast-forward.
    ///
    /// # Panics
    ///
    /// Panics if the collector is sealed, a link or VC is out of
    /// range, or a counter went backwards.
    pub fn record(
        &mut self,
        now: u64,
        links: impl IntoIterator<Item = LinkStat>,
        buffered: impl IntoIterator<Item = (usize, u64)>,
    ) {
        assert!(!self.sealed, "collector is sealed");
        let due = self.crossed(now);
        self.push_rows(due, links, buffered);
    }

    /// Records any boundaries still at or before `now`, then a
    /// trailing partial window covering the cycles since the last
    /// boundary (if any ran), and freezes the collector. After
    /// sealing, every link total equals the lifetime counter of its
    /// link. Sealing twice is a no-op.
    pub fn seal(
        &mut self,
        now: u64,
        links: impl IntoIterator<Item = LinkStat>,
        buffered: impl IntoIterator<Item = (usize, u64)>,
    ) {
        if self.sealed {
            return;
        }
        let mut due = self.crossed(now);
        if now > self.next_boundary - self.window {
            due += 1;
        }
        self.push_rows(due, links, buffered);
        self.sealed = true;
    }

    /// Moves the next boundary past `now`; returns the boundaries
    /// crossed.
    fn crossed(&mut self, now: u64) -> u64 {
        if now < self.next_boundary {
            return 0;
        }
        let due = (now - self.next_boundary) / self.window + 1;
        self.next_boundary += due * self.window;
        due
    }

    /// Words in one window row.
    fn row_len(&self) -> usize {
        2 * self.forwarded.len() + self.vcs
    }

    /// Where window `k`'s row starts in the ring.
    fn row_start(&self, k: u64) -> usize {
        (k % self.capacity as u64) as usize * self.row_len()
    }

    /// Window `k`'s row; the ring must still hold it.
    fn row(&self, k: u64) -> &[u64] {
        let start = self.row_start(k);
        &self.rows[start..start + self.row_len()]
    }

    /// Claims the slot of the next window and returns where its row
    /// starts: a new row while the ring is below capacity, else the
    /// oldest row's.
    fn claim_row(&mut self) -> usize {
        let (start, len) = (self.row_start(self.windows), self.row_len());
        if start == self.rows.len() {
            self.rows.reserve_exact(len);
            self.rows.resize(start + len, 0);
        }
        self.windows += 1;
        start
    }

    /// Writes `due` rows: the first from the counters, the rest with
    /// zero deltas and the same buffered flits.
    fn push_rows(
        &mut self,
        due: u64,
        links: impl IntoIterator<Item = LinkStat>,
        buffered: impl IntoIterator<Item = (usize, u64)>,
    ) {
        if due == 0 {
            return;
        }
        let (n, len) = (self.forwarded.len(), self.row_len());
        let mut start = self.claim_row();
        let row = &mut self.rows[start..start + len];
        row.fill(0);
        for s in links {
            let l = s.link.index();
            row[l] = s.forwarded - self.forwarded[l];
            row[n + l] = s.blocked - self.blocked[l];
            self.forwarded[l] = s.forwarded;
            self.blocked[l] = s.blocked;
        }
        let occ = 2 * n;
        for (vc, flits) in buffered {
            row[occ + vc] += flits;
        }
        for _ in 1..due {
            let prev = start;
            start = self.claim_row();
            self.rows.copy_within(prev + occ..prev + len, start + occ);
            self.rows[start..start + occ].fill(0);
        }
    }

    /// The rows held, oldest first.
    fn held_rows(&self) -> impl Iterator<Item = &[u64]> {
        let first = self.windows.saturating_sub(self.capacity as u64);
        (first..self.windows).map(|k| self.row(k))
    }

    /// The most recent window's row, if any window was recorded.
    fn newest_row(&self) -> Option<&[u64]> {
        self.windows.checked_sub(1).map(|k| self.row(k))
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
        self.vcs
    }

    /// Windows recorded so far (including evicted ones and the
    /// trailing partial window after sealing).
    pub fn windows_recorded(&self) -> u64 {
        self.windows
    }

    /// Whether [`Collector::seal`] ran.
    pub fn is_sealed(&self) -> bool {
        self.sealed
    }

    /// The per-window forwarded flits and blocked cycles of one link,
    /// for every window the ring still holds, oldest first.
    pub fn history(&self, link: LinkId) -> impl Iterator<Item = LinkStat> + '_ {
        let (l, n) = (link.index(), self.links());
        self.held_rows().map(move |row| LinkStat {
            link,
            blocked: row[n + l],
            forwarded: row[l],
        })
    }

    /// Lifetime forwarded flits of one link (sum over all windows).
    pub fn total_forwarded(&self, link: LinkId) -> u64 {
        self.forwarded[link.index()]
    }

    /// Lifetime blocked cycles of one link.
    pub fn total_blocked(&self, link: LinkId) -> u64 {
        self.blocked[link.index()]
    }

    /// The most recent window's forwarded flits of one link (0 before
    /// the first boundary).
    pub fn last_forwarded(&self, link: LinkId) -> u64 {
        self.newest_row().map_or(0, |row| row[link.index()])
    }

    /// The most recent window's blocked cycles of one link.
    pub fn last_blocked(&self, link: LinkId) -> u64 {
        let n = self.links();
        self.newest_row().map_or(0, |row| row[n + link.index()])
    }

    /// The lifetime stats of link `l`.
    fn link_total(&self, l: usize) -> LinkStat {
        LinkStat {
            link: LinkId::new(l as u32),
            blocked: self.blocked[l],
            forwarded: self.forwarded[l],
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
    use nocem_common::choice::check;
    use nocem_common::{prop_assert, prop_assert_eq};
    use std::collections::VecDeque;

    fn cfg(window: u64, capacity: usize) -> TelemetryConfig {
        TelemetryConfig { window, capacity }
    }

    /// Cumulative link counters as the engines hand them over.
    fn links(forwarded: &[u64], blocked: &[u64]) -> Vec<LinkStat> {
        (forwarded.iter().zip(blocked).enumerate())
            .map(|(l, (&forwarded, &blocked))| LinkStat {
                link: LinkId::new(l as u32),
                blocked,
                forwarded,
            })
            .collect()
    }

    /// Buffered flits, one input per VC.
    fn buffered(occupancy: &[u64]) -> Vec<(usize, u64)> {
        occupancy.iter().copied().enumerate().collect()
    }

    fn forwarded(c: &Collector, link: u32) -> Vec<u64> {
        c.history(LinkId::new(link)).map(|s| s.forwarded).collect()
    }

    #[test]
    fn collector_windows_are_deltas() {
        let mut c = Collector::new(&cfg(10, 8), 2, 1);
        assert!(!c.needs_probe(9));
        assert!(c.needs_probe(10));
        c.record(10, links(&[7, 0], &[3, 0]), buffered(&[2]));
        c.record(20, links(&[9, 5], &[3, 1]), buffered(&[0]));
        let l0 = LinkId::new(0);
        let l1 = LinkId::new(1);
        assert_eq!(forwarded(&c, 0), [7, 2]);
        let blocked: Vec<u64> = c.history(l1).map(|s| s.blocked).collect();
        assert_eq!(blocked, [0, 1]);
        assert_eq!(c.total_forwarded(l0), 9);
        assert_eq!(c.last_forwarded(l0), 2);
    }

    #[test]
    fn buffered_flits_are_summed_per_vc() {
        let mut c = Collector::new(&cfg(10, 8), 1, 2);
        c.record(10, links(&[0], &[0]), [(0, 2), (1, 1), (0, 3)]);
        assert_eq!(c.held_rows().collect::<Vec<_>>(), [[0, 0, 5, 1]]);
    }

    #[test]
    fn gated_jump_records_zero_samples_per_crossed_boundary() {
        let mut c = Collector::new(&cfg(10, 8), 1, 1);
        c.record(10, links(&[4], &[1]), buffered(&[0]));
        // One probe at cycle 45 crosses boundaries 20, 30, 40: the
        // delta lands in the first crossed window, the rest are zero.
        c.record(45, links(&[6], &[1]), buffered(&[0]));
        assert_eq!(forwarded(&c, 0), [4, 2, 0, 0]);
        assert_eq!(c.windows_recorded(), 4);
    }

    #[test]
    fn seal_flushes_partial_window_and_conserves_totals() {
        let mut c = Collector::new(&cfg(10, 8), 1, 1);
        c.record(10, links(&[4], &[2]), buffered(&[1]));
        c.seal(13, links(&[9], &[2]), buffered(&[3]));
        let l = LinkId::new(0);
        assert_eq!(forwarded(&c, 0), [4, 5]);
        assert_eq!(c.total_forwarded(l), 9);
        assert_eq!(c.total_blocked(l), 2);
        assert!(c.is_sealed());
        assert!(!c.needs_probe(100));
        // Sealing twice is a no-op.
        c.seal(13, links(&[9], &[2]), buffered(&[3]));
        assert_eq!(c.windows_recorded(), 2);
    }

    #[test]
    fn seal_at_exact_boundary_adds_no_partial() {
        let mut c = Collector::new(&cfg(10, 8), 1, 0);
        c.seal(20, links(&[8], &[0]), []);
        assert_eq!(c.windows_recorded(), 2);
        assert_eq!(c.total_forwarded(LinkId::new(0)), 8);
    }

    /// The ring holds only the rows of the windows recorded so far.
    #[test]
    fn the_ring_grows_by_one_row_per_window() {
        let mut c = Collector::new(&cfg(10, 64), 3, 2);
        assert_eq!(c.rows.capacity(), 0);
        for k in 1..=5 {
            c.record(10 * k, links(&[k; 3], &[0; 3]), buffered(&[1, 2]));
            assert!(c.rows.capacity() <= k as usize * 8, "over {k} rows");
        }
    }

    #[test]
    fn top_blocked_sorts_desc_with_id_tiebreak() {
        let mut c = Collector::new(&cfg(10, 8), 4, 0);
        c.seal(10, links(&[1, 1, 1, 1], &[5, 9, 5, 0]), []);
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
        c.seal(10, links(&[1; 64], &[3; 64]), []);
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
        c.seal(10, links(&[0, 4, 0, 1, 2], &[0, 7, 9, 9, 1]), []);
        let hot = c.hottest().unwrap();
        assert_eq!(Some(hot), c.top_blocked(1).first().copied());
        assert_eq!((hot.link, hot.blocked), (LinkId::new(2), 9));
    }

    #[test]
    fn hottest_is_none_on_idle_network() {
        let mut c = Collector::new(&cfg(10, 8), 2, 0);
        c.seal(25, links(&[0, 0], &[0, 0]), []);
        assert!(c.hottest().is_none());
    }

    #[test]
    #[should_panic(expected = "at least one window")]
    fn zero_capacity_panics() {
        Collector::new(&cfg(10, 0), 1, 1);
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

    /// One resource's window samples in a bounded queue, with the sum
    /// of every sample pushed.
    #[derive(Debug, Clone)]
    struct Series {
        held: VecDeque<u64>,
        total: u64,
    }

    /// The reference semantics: one bounded queue per resource, every
    /// crossed boundary pushing each link's delta since the previous
    /// one and each VC's buffered flits.
    struct Model {
        window: u64,
        capacity: usize,
        next_boundary: u64,
        last: Vec<(u64, u64)>,
        forwarded: Vec<Series>,
        blocked: Vec<Series>,
        occupancy: Vec<Series>,
        windows: u64,
    }

    impl Model {
        fn new(window: u64, capacity: usize, links: usize, vcs: usize) -> Self {
            let series = |n| {
                let s = Series {
                    held: VecDeque::new(),
                    total: 0,
                };
                vec![s; n]
            };
            Model {
                window,
                capacity,
                next_boundary: window,
                last: vec![(0, 0); links],
                forwarded: series(links),
                blocked: series(links),
                occupancy: series(vcs),
                windows: 0,
            }
        }

        fn push(s: &mut Series, capacity: usize, sample: u64) {
            if s.held.len() == capacity {
                s.held.pop_front();
            }
            s.held.push_back(sample);
            s.total += sample;
        }

        fn push_window(&mut self, counts: &[(u64, u64)], occupancy: &[u64]) {
            let cap = self.capacity;
            for (l, &(f, b)) in counts.iter().enumerate() {
                let (lf, lb) = self.last[l];
                Self::push(&mut self.forwarded[l], cap, f - lf);
                Self::push(&mut self.blocked[l], cap, b - lb);
                self.last[l] = (f, b);
            }
            for (v, &o) in occupancy.iter().enumerate() {
                Self::push(&mut self.occupancy[v], cap, o);
            }
            self.windows += 1;
        }

        fn record(&mut self, now: u64, counts: &[(u64, u64)], occupancy: &[u64]) {
            while self.next_boundary <= now {
                self.push_window(counts, occupancy);
                self.next_boundary += self.window;
            }
        }

        fn seal(&mut self, now: u64, counts: &[(u64, u64)], occupancy: &[u64]) {
            self.record(now, counts, occupancy);
            if now > self.next_boundary - self.window {
                self.push_window(counts, occupancy);
            }
        }

        /// The model's held samples as the collector's rows, oldest
        /// first.
        fn rows(&self) -> Vec<Vec<u64>> {
            let held = self.windows.min(self.capacity as u64) as usize;
            let resources = self.forwarded.iter().chain(&self.blocked);
            let resources: Vec<&Series> = resources.chain(&self.occupancy).collect();
            (0..held)
                .map(|i| resources.iter().map(|s| s.held[i]).collect())
                .collect()
        }
    }

    /// Checks every reader of `c` against the model.
    fn agrees(c: &Collector, m: &Model) -> Result<(), String> {
        prop_assert_eq!(c.windows_recorded(), m.windows);
        let rows: Vec<Vec<u64>> = c.held_rows().map(<[u64]>::to_vec).collect();
        prop_assert_eq!(rows, m.rows());
        for l in 0..c.links() {
            let link = LinkId::new(l as u32);
            let (f, b) = (&m.forwarded[l], &m.blocked[l]);
            prop_assert_eq!(c.total_forwarded(link), f.total);
            prop_assert_eq!(c.total_blocked(link), b.total);
            prop_assert_eq!(c.last_forwarded(link), f.held.back().copied().unwrap_or(0));
            prop_assert_eq!(c.last_blocked(link), b.held.back().copied().unwrap_or(0));
            let history: Vec<(u64, u64)> =
                c.history(link).map(|s| (s.forwarded, s.blocked)).collect();
            let expected: Vec<(u64, u64)> =
                f.held.iter().copied().zip(b.held.iter().copied()).collect();
            prop_assert_eq!(history, expected);
        }
        Ok(())
    }

    /// The window-major ring reads exactly like one bounded queue
    /// per resource, over probes that cross zero, one or many
    /// boundaries, at capacities that evict after 1, 2 and 64
    /// windows, and a seal on or off a boundary.
    #[test]
    fn the_ring_reads_like_a_queue_per_resource() {
        check("the_ring_reads_like_a_queue_per_resource", 0..256, |c| {
            let shape = (
                c.range(1usize..5),
                c.range(0usize..3),
                c.range(1u64..6),
                c.range(0usize..3),
            );
            let probes = c.vec(0..40, |c| {
                (
                    c.range(0u64..20),
                    (0..16).map(|_| c.range(0u64..4)).collect::<Vec<_>>(),
                )
            });
            let (seal_gap, seal_on_boundary) = (c.range(0u64..20), c.bool());
            let (link_count, vcs, window, cap) = shape;
            let capacity = [1, 2, 64][cap];
            let mut c = Collector::new(&cfg(window, capacity), link_count, vcs);
            let mut m = Model::new(window, capacity, link_count, vcs);
            let (mut now, mut counts) = (0u64, vec![(0u64, 0u64); link_count]);
            let mut occupancy = vec![0u64; vcs];
            let read = |counts: &[(u64, u64)], occupancy: &[u64]| {
                let f: Vec<u64> = counts.iter().map(|c| c.0).collect();
                let b: Vec<u64> = counts.iter().map(|c| c.1).collect();
                (links(&f, &b), buffered(occupancy))
            };
            for (gap, draws) in probes {
                now += gap;
                for (l, count) in counts.iter_mut().enumerate() {
                    count.0 += draws[2 * l];
                    count.1 += draws[2 * l + 1];
                }
                for (v, o) in occupancy.iter_mut().enumerate() {
                    *o = draws[8 + v];
                }
                if c.needs_probe(now) {
                    let (l, o) = read(&counts, &occupancy);
                    c.record(now, l, o);
                }
                m.record(now, &counts, &occupancy);
                agrees(&c, &m)?;
            }
            now += seal_gap;
            if seal_on_boundary {
                now = now.div_ceil(window) * window;
            }
            let (l, o) = read(&counts, &occupancy);
            c.seal(now, l, o);
            m.seal(now, &counts, &occupancy);
            agrees(&c, &m)?;
            prop_assert!(c.is_sealed());
            Ok(())
        });
    }
}
