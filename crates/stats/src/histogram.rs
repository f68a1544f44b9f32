//! Histograms — the statistic the paper's stochastic receptors report
//! ("histograms, which show an image of the received traffic").
//!
//! [`Histogram`] has uniform-width bins (hardware: a small RAM indexed
//! by `value / width`) of 32-bit counters, widened once to 64 bits if
//! a histogram ever counts 2³² samples.

/// Bins a histogram's storage grows by: one 64-byte block of 32-bit
/// counters per reallocation.
const BLOCK: usize = 16;

/// Fixed-width-bin histogram over `u64` samples.
///
/// Values beyond the last bin are accumulated in an overflow bin so no
/// sample is ever lost — mirroring the saturating top bucket of the
/// hardware receptor RAM.
///
/// Only the bins up to the highest one recorded into are stored: a
/// histogram costs memory for the traffic it has seen, not for the
/// range it could see. Every reader sees the nominal [`Histogram::bins`]
/// bins, the unstored ones reading zero, and every count as a `u64`.
///
/// Bins are stored as `u32` until [`Histogram::count`] reaches 2³²,
/// when they widen once to `u64`: no bin holds more than `count`, so a
/// narrow bin never overflows. Storage grows in blocks of 16 bins
/// (64 bytes while narrow), capped at `bins`: a receptor's 128-bin
/// inter-arrival histogram reallocates at most 8 times, not once per
/// bin.
///
/// # Examples
///
/// ```
/// use nocem_stats::histogram::Histogram;
/// let mut h = Histogram::new(4, 10); // 4 bins of width 10: 0..40
/// h.record(3);
/// h.record(25);
/// h.record(1_000); // overflow bin
/// assert_eq!(h.count(), 3);
/// assert_eq!(h.bin_count(0), 1);
/// assert_eq!(h.bin_count(2), 1);
/// assert_eq!(h.bin_count(3), 0);
/// assert_eq!(h.overflow(), 1);
/// assert_eq!(h.allocated_bins(), 4); // one block, capped at `bins`
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Bins `0..counted.len()`: exactly one past the highest bin
    /// recorded into, and narrow exactly while `count < 2³²`, so the
    /// stored prefix is a function of the samples alone and the derived
    /// `==` compares histograms, not histories.
    counted: Bins,
    /// Nominal bin count; bins `counted.len()..bins` are zero.
    bins: usize,
    width: u64,
    /// `log2(width)` when `width` is a power of two: then a sample's bin
    /// is a shift away instead of a division (a function of `width`,
    /// so it never makes two histograms differ).
    shift: Option<u32>,
    overflow: u64,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

/// The stored bins, 32-bit while the histogram has counted fewer than
/// 2³² samples.
#[derive(Clone, PartialEq, Eq)]
enum Bins {
    Narrow(Vec<u32>),
    /// Boxed so that `Bins` takes no tag beside the `Vec`: the
    /// histogram stays 88 bytes.
    #[allow(clippy::box_collection)]
    Wide(Box<Vec<u64>>),
}

impl Bins {
    fn len(&self) -> usize {
        match self {
            Bins::Narrow(v) => v.len(),
            Bins::Wide(v) => v.len(),
        }
    }

    /// Each stored bin's count.
    fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        let (narrow, wide): (&[u32], &[u64]) = match self {
            Bins::Narrow(v) => (v, &[]),
            Bins::Wide(v) => (&[], v),
        };
        (narrow.iter().map(|&c| u64::from(c))).chain(wide.iter().copied())
    }
}

/// Lists the counts as `u64`s, at whichever width they are stored.
impl std::fmt::Debug for Bins {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Extends the stored prefix `v` to bin `idx` and counts one sample
/// there. Capacity grows by whole blocks, never past `bins`.
fn grow_to<T: Copy + From<u8>>(v: &mut Vec<T>, idx: usize, bins: usize) {
    let len = idx + 1;
    if len > v.capacity() {
        let blocks = len.next_multiple_of(BLOCK).min(bins);
        v.reserve_exact(blocks - v.len());
    }
    v.resize(len, T::from(0));
    v[idx] = T::from(1);
}

impl Histogram {
    /// Creates a histogram with `bins` bins of `width` units each. No
    /// bin is allocated until a sample lands in it.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `width == 0`.
    pub fn new(bins: usize, width: u64) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(width > 0, "bin width must be positive");
        Histogram {
            counted: Bins::Narrow(Vec::new()),
            bins,
            width,
            shift: width.is_power_of_two().then(|| width.trailing_zeros()),
            overflow: 0,
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        let idx = match self.shift {
            Some(s) => value >> s,
            None => value / self.width,
        };
        if self.count == u64::from(u32::MAX) {
            self.widen();
        }
        let bumped = match &mut self.counted {
            Bins::Narrow(v) => v.get_mut(idx as usize).map(|bin| *bin += 1),
            Bins::Wide(v) => v.get_mut(idx as usize).map(|bin| *bin += 1),
        };
        if bumped.is_none() {
            self.record_past_prefix(idx);
        }
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// A sample beyond the stored prefix: grows the prefix exactly to
    /// its bin (the storage by whole blocks), or counts it as overflow
    /// past the nominal last bin.
    #[cold]
    fn record_past_prefix(&mut self, idx: u64) {
        if idx < self.bins as u64 {
            match &mut self.counted {
                Bins::Narrow(v) => grow_to(v, idx as usize, self.bins),
                Bins::Wide(v) => grow_to(v, idx as usize, self.bins),
            }
        } else {
            self.overflow += 1;
        }
    }

    /// Widens the bins to 64 bits before the 2³²-th sample, which a
    /// 32-bit bin holding every earlier one could not count.
    #[cold]
    fn widen(&mut self) {
        let wide = self.counted.iter().collect();
        self.counted = Bins::Wide(Box::new(wide));
    }

    /// Bins the storage has room for before it next reallocates: the
    /// stored prefix rounded up to a whole block of 16, at most
    /// [`Histogram::bins`] (a copy holds exactly the prefix).
    pub fn allocated_bins(&self) -> usize {
        match &self.counted {
            Bins::Narrow(v) => v.capacity(),
            Bins::Wide(v) => v.capacity(),
        }
    }

    /// Number of bins (excluding overflow).
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// Width of each bin.
    pub fn bin_width(&self) -> u64 {
        self.width
    }

    /// Samples recorded into bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bin_count(&self, i: usize) -> u64 {
        assert!(i < self.bins, "bin {i} out of range for {} bins", self.bins);
        match &self.counted {
            Bins::Narrow(v) => v.get(i).map_or(0, |&c| u64::from(c)),
            Bins::Wide(v) => v.get(i).copied().unwrap_or(0),
        }
    }

    /// Samples beyond the last bin.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of all samples, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }

    /// Smallest sample, or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Approximate `q`-quantile (`0.0..=1.0`) from bin boundaries: the
    /// upper edge of the bin holding the rank-`ceil(q·n)` sample (rank
    /// 1 at least, so `q = 0` reads the minimum's bin).
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0;
        for (i, c) in self.counted.iter().enumerate() {
            cum += c;
            if cum >= target {
                return Some((i as u64 + 1) * self.width);
            }
        }
        Some(self.max)
    }

    /// Iterates `(bin lower edge, count)` pairs over all
    /// [`Histogram::bins`] bins; the overflow bin is reachable through
    /// [`Histogram::overflow`].
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let unstored = self.bins - self.counted.len();
        self.counted
            .iter()
            .chain(std::iter::repeat_n(0, unstored))
            .enumerate()
            .map(move |(i, c)| (i as u64 * self.width, c))
    }

    /// Renders the histogram as ASCII bars — the monitor's "image of
    /// the received traffic". One row per non-empty bin (plus the
    /// overflow bin), bars scaled so the tallest fits `max_width`
    /// characters.
    ///
    /// # Examples
    ///
    /// ```
    /// use nocem_stats::histogram::Histogram;
    /// let mut h = Histogram::new(3, 10);
    /// for v in [1, 2, 3, 15] { h.record(v); }
    /// let art = h.render_ascii(20);
    /// assert!(art.contains("[0..10)"));
    /// assert!(art.contains('#'));
    /// ```
    pub fn render_ascii(&self, max_width: usize) -> String {
        let max_width = max_width.max(1);
        let tallest = self
            .counted
            .iter()
            .chain(std::iter::once(self.overflow))
            .max()
            .unwrap_or(0);
        if tallest == 0 {
            return String::from("(empty)\n");
        }
        let label_width = format!(
            "[{}..{})",
            (self.bins - 1) as u64 * self.width,
            self.bins as u64 * self.width
        )
        .len();
        let bar = |count: u64| {
            let len = ((count as u128 * max_width as u128) / tallest as u128) as usize;
            let len = if count > 0 { len.max(1) } else { 0 };
            "#".repeat(len)
        };
        let mut out = String::new();
        for (i, count) in self.counted.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let lo = i as u64 * self.width;
            let hi = lo + self.width;
            out.push_str(&format!(
                "{:<label_width$} {:>8} {}\n",
                format!("[{lo}..{hi})"),
                count,
                bar(count)
            ));
        }
        if self.overflow > 0 {
            out.push_str(&format!(
                "{:<label_width$} {:>8} {}\n",
                format!("[{}..)", self.bins as u64 * self.width),
                self.overflow,
                bar(self.overflow)
            ));
        }
        out
    }
}

impl std::fmt::Display for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "histogram ({} samples)", self.count)?;
        let peak = self.counted.iter().max().unwrap_or(0).max(1);
        for (edge, c) in self.iter() {
            let bar = "#".repeat((c * 40 / peak) as usize);
            writeln!(f, "{:>10} | {:>8} {}", edge, c, bar)?;
        }
        if self.overflow > 0 {
            writeln!(f, "{:>10} | {:>8}", "overflow", self.overflow)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nocem_common::choice::check;
    use nocem_common::prop_assert_eq;

    /// Power-of-two widths bin by shifting, every other width by
    /// dividing: either way the bins, overflow, count, sum, min and
    /// max are those of a division-form reference.
    #[test]
    fn shifted_bins_match_the_division_form() {
        check("shifted_bins_match_the_division_form", 0..128, |c| {
            let (bins, any_width) = (c.range(1usize..40), c.range(1u64..300));
            let (exp, pow2) = (c.range(0u32..20), c.bool());
            let small = c.vec(0..150, |c| c.range(0u64..5_000));
            let large = c.vec(0..20, |c| c.range(0u64..1 << 40));
            let width = if pow2 { 1 << exp } else { any_width };
            let mut h = Histogram::new(bins, width);
            let (mut want, mut overflow) = (vec![0u64; bins], 0u64);
            let values: Vec<u64> = small.into_iter().chain(large).collect();
            for &v in &values {
                h.record(v);
                match want.get_mut((v / width) as usize) {
                    Some(b) => *b += 1,
                    None => overflow += 1,
                }
            }
            let got: Vec<u64> = (0..bins).map(|i| h.bin_count(i)).collect();
            prop_assert_eq!(got, want);
            prop_assert_eq!(h.overflow(), overflow);
            prop_assert_eq!(h.count(), values.len() as u64);
            let sum: u64 = values.iter().sum();
            prop_assert_eq!(
                h.mean(),
                (!values.is_empty()).then(|| sum as f64 / values.len() as f64)
            );
            prop_assert_eq!(h.min(), values.iter().copied().min());
            prop_assert_eq!(h.max(), values.iter().copied().max());
            Ok(())
        });
    }

    /// Counting across 2³² samples widens the bins once, exactly: at
    /// every step each reader reads as a histogram wide from the start,
    /// and the two are `==` from the 2³²-th sample on, when both are
    /// wide. Bin 1 ends past what a 32-bit bin holds.
    #[test]
    fn bins_widen_exactly_at_two_to_the_32_samples() {
        let start = u64::from(u32::MAX) - 3;
        let counted_so_far = |counted| Histogram {
            counted,
            count: start,
            sum: start * 15,
            min: 10,
            max: 19,
            ..Histogram::new(8, 10)
        };
        let mut narrow = counted_so_far(Bins::Narrow(vec![0, start as u32]));
        let mut wide = counted_so_far(Bins::Wide(Box::new(vec![0, start])));
        for v in [12, 15, 3, 18, 75, 90, 19, 11] {
            narrow.record(v);
            wide.record(v);
            let crossed = narrow.count() >= 1 << 32;
            assert_eq!(matches!(narrow.counted, Bins::Wide(_)), crossed);
            assert_eq!(narrow == wide, crossed, "after {v}");
            for i in 0..8 {
                assert_eq!(narrow.bin_count(i), wide.bin_count(i), "bin {i}");
            }
            assert!(narrow.iter().eq(wide.iter()));
            for q in [0.0, 1e-9, 0.5, 0.999_999_999, 1.0] {
                assert_eq!(narrow.quantile(q), wide.quantile(q), "q = {q}");
            }
            assert_eq!(narrow.render_ascii(40), wide.render_ascii(40));
            assert_eq!(narrow.to_string(), wide.to_string());
            assert_eq!(format!("{narrow:?}"), format!("{wide:?}"));
            let summary = |h: &Histogram| (h.count(), h.overflow(), h.mean(), h.min(), h.max());
            assert_eq!(summary(&narrow), summary(&wide));
        }
        assert_eq!(narrow.bin_count(1), start + 5);
        assert!(narrow.bin_count(1) > u64::from(u32::MAX));
        assert_eq!(narrow.overflow(), 1);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn wide_bins_cost_a_histogram_no_tag() {
        assert_eq!(std::mem::size_of::<Histogram>(), 88);
    }

    #[test]
    fn ascii_rendering_shows_bins_and_overflow() {
        let mut h = Histogram::new(2, 10);
        h.record(1);
        h.record(2);
        h.record(55); // overflow
        let art = h.render_ascii(10);
        assert!(art.contains("[0..10)"), "{art}");
        assert!(!art.contains("[10..20)"), "empty bins are skipped: {art}");
        assert!(art.contains("[20..)"), "overflow row present: {art}");
        // The tallest bin gets the full width; nonzero rows get >= 1.
        assert!(art.contains(&"#".repeat(10)));
        let overflow_row = art.lines().find(|l| l.starts_with("[20..)")).unwrap();
        assert!(overflow_row.contains('#'));
    }

    #[test]
    fn ascii_rendering_of_empty_histogram() {
        let h = Histogram::new(4, 8);
        assert_eq!(h.render_ascii(30), "(empty)\n");
    }

    #[test]
    fn records_into_correct_bins() {
        let mut h = Histogram::new(3, 5);
        for v in [0, 4, 5, 14, 15] {
            h.record(v);
        }
        assert_eq!(h.bin_count(0), 2);
        assert_eq!(h.bin_count(1), 1);
        assert_eq!(h.bin_count(2), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.count(), 5);
    }

    #[test]
    fn summary_statistics() {
        let mut h = Histogram::new(10, 10);
        for v in [10, 20, 30] {
            h.record(v);
        }
        assert_eq!(h.mean(), Some(20.0));
        assert_eq!(h.min(), Some(10));
        assert_eq!(h.max(), Some(30));
    }

    #[test]
    fn empty_histogram_returns_none() {
        let h = Histogram::new(2, 1);
        assert_eq!(h.mean(), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn quantiles_from_bins() {
        let mut h = Histogram::new(10, 10);
        for v in 0..100 {
            h.record(v);
        }
        // Median falls in the bin [40, 50) -> upper edge 50.
        assert_eq!(h.quantile(0.5), Some(50));
        assert_eq!(h.quantile(0.99), Some(100));
        assert_eq!(h.quantile(0.0), Some(10));
    }

    #[test]
    fn display_renders_bars() {
        let mut h = Histogram::new(2, 10);
        h.record(1);
        h.record(2);
        h.record(11);
        let s = h.to_string();
        assert!(s.contains("3 samples"));
        assert!(s.contains('#'));
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_panics() {
        Histogram::new(0, 1);
    }
}
