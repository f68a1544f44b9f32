//! The latency analyzer — the paper's trace-driven receptor statistic.
//!
//! Records per-packet latencies and summarizes them (count, min, max,
//! mean, distribution). The platform distinguishes two latencies:
//!
//! * **network latency** — head flit enters the network → tail flit
//!   received; this is what saturates at a maximum set by hot-link
//!   congestion (the paper's Figure 4);
//! * **total latency** — packet release by the traffic model → tail
//!   received; includes source queueing and grows without bound past
//!   saturation.

use crate::histogram::Log2Histogram;

/// Streaming latency statistics with a log2 distribution.
///
/// # Examples
///
/// ```
/// use nocem_stats::latency::LatencyAnalyzer;
/// let mut la = LatencyAnalyzer::new();
/// la.record(10);
/// la.record(30);
/// assert_eq!(la.count(), 2);
/// assert_eq!(la.mean(), Some(20.0));
/// assert_eq!(la.max(), Some(30));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyAnalyzer {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    histogram: Log2Histogram,
}

impl Default for LatencyAnalyzer {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyAnalyzer {
    /// Creates an empty analyzer (32 log2 bins, covering latencies up
    /// to 2^32 cycles).
    pub fn new() -> Self {
        LatencyAnalyzer {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            histogram: Log2Histogram::new(32),
        }
    }

    /// Records one latency sample in cycles.
    #[inline]
    pub fn record(&mut self, latency: u64) {
        self.count += 1;
        self.sum += latency;
        self.min = self.min.min(latency);
        self.max = self.max.max(latency);
        self.histogram.record(latency);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }

    /// Minimum latency, or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum latency, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Sum of all samples (for cross-engine equivalence checks, where
    /// floating-point means would hide one-cycle differences).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The latency distribution.
    pub fn histogram(&self) -> &Log2Histogram {
        &self.histogram
    }

    /// Merges another analyzer into this one: the result equals the
    /// analyzer of both sample sets.
    pub fn merge(&mut self, other: &LatencyAnalyzer) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.histogram.merge(&other.histogram);
    }
}

impl std::fmt::Display for LatencyAnalyzer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (self.min(), self.mean(), self.max()) {
            (Some(min), Some(mean), Some(max)) => write!(
                f,
                "latency: n={} min={} mean={:.1} max={} cyc",
                self.count, min, mean, max
            ),
            _ => write!(f, "latency: no samples"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_analyzer() {
        let la = LatencyAnalyzer::new();
        assert_eq!(la.count(), 0);
        assert_eq!(la.mean(), None);
        assert_eq!(la.min(), None);
        assert_eq!(la.max(), None);
        assert_eq!(la.to_string(), "latency: no samples");
    }

    #[test]
    fn summary_statistics() {
        let mut la = LatencyAnalyzer::new();
        for v in [5, 10, 15] {
            la.record(v);
        }
        assert_eq!(la.count(), 3);
        assert_eq!(la.mean(), Some(10.0));
        assert_eq!(la.min(), Some(5));
        assert_eq!(la.max(), Some(15));
        assert_eq!(la.sum(), 30);
        assert!(la.to_string().contains("n=3"));
    }

    #[test]
    fn histogram_is_fed() {
        let mut la = LatencyAnalyzer::new();
        la.record(4);
        la.record(5);
        assert_eq!(la.histogram().bin_count(2), 2); // [4, 8)
    }

    #[test]
    fn merge_combines_extremes() {
        let mut a = LatencyAnalyzer::new();
        a.record(100);
        let mut b = LatencyAnalyzer::new();
        b.record(2);
        b.record(50);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min(), Some(2));
        assert_eq!(a.max(), Some(100));
        assert_eq!(a.sum(), 152);
        // The histogram books the samples, not their bins' lower edges.
        assert_eq!(a.histogram().mean(), Some(152.0 / 3.0));
    }

    #[test]
    fn default_is_new() {
        assert_eq!(LatencyAnalyzer::default(), LatencyAnalyzer::new());
    }
}
