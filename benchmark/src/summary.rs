//! Order statistics of a handful of timing samples.

/// Median, quartiles, minimum and count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    /// Summarizes `values`; quartiles follow Python's
    /// `statistics.quantiles(values, n=4)` (the driver's rule), so the
    /// spreads printed here are the spreads the driver computes.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice or a NaN sample — both are bugs in the
    /// caller, which only summarizes metrics it has measured.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "no samples to summarize");
        let mut v = values.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
        let n = v.len();
        let quantile = |i: usize| {
            if n == 1 {
                return v[0];
            }
            // Exclusive method: the i-th of 4 cut points sits at rank
            // i*(n+1)/4, interpolated, clamped to the data.
            let j = (i * (n + 1) / 4).clamp(1, n - 1);
            let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        };
        Summary {
            n,
            min: v[0],
            q1: quantile(1),
            median,
            q3: quantile(3),
        }
    }

    /// Interquartile range as a share of the median — the spread the
    /// driver holds against a metric's bound (0 for a metric that reads
    /// 0, which only unexercised per-layer metrics do).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let s = Summary::of(&[10.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0]);
        assert_eq!(
            (s.n, s.min, s.q1, s.median, s.q3),
            (10, 1.0, 2.75, 5.5, 8.25)
        );
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        // statistics.quantiles([2, 4, 4, 5, 7, 9, 11], n=4) == [4.0, 5.0, 9.0]
        let s = Summary::of(&[2.0, 4.0, 4.0, 5.0, 7.0, 9.0, 11.0]);
        assert_eq!((s.q1, s.median, s.q3), (4.0, 5.0, 9.0));
    }

    #[test]
    fn one_sample_is_its_own_summary() {
        let s = Summary::of(&[4.5]);
        assert_eq!((s.n, s.min, s.q1, s.median, s.q3), (1, 4.5, 4.5, 4.5, 4.5));
        assert_eq!(s.spread(), 0.0);
    }
}
