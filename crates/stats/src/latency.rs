//! The latency analyzer — the paper's trace-driven receptor statistic.
//!
//! Records per-packet latencies and summarizes them (count, sum, min,
//! max, mean). The platform distinguishes two latencies:
//!
//! * **network latency** — head flit enters the network → tail flit
//!   received; this is what saturates at a maximum set by hot-link
//!   congestion (the paper's Figure 4);
//! * **total latency** — packet release by the traffic model → tail
//!   received; includes source queueing and grows without bound past
//!   saturation.

/// Streaming latency statistics.
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyAnalyzer {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LatencyAnalyzer {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyAnalyzer {
    /// Creates an empty analyzer.
    pub fn new() -> Self {
        LatencyAnalyzer {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one latency sample in cycles.
    #[inline]
    pub fn record(&mut self, latency: u64) {
        self.count += 1;
        self.sum += latency;
        self.min = self.min.min(latency);
        self.max = self.max.max(latency);
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
    fn default_is_new() {
        assert_eq!(LatencyAnalyzer::default(), LatencyAnalyzer::new());
    }
}
