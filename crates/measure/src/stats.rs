//! Summary statistics and the paper's overlap analysis.

use std::fmt;

/// Mean / standard deviation / extremes of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    /// Sample size.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator, as the paper's error
    /// bars imply).
    pub std_dev: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
}

impl Stats {
    /// Compute from samples. Panics on an empty slice.
    ///
    /// ```
    /// use measure::Stats;
    /// let s = Stats::from_samples(&[17.0, 18.0, 19.0, 18.0, 18.0]);
    /// assert_eq!(s.mean, 18.0);
    /// assert_eq!(s.n, 5);
    /// assert!(s.std_dev > 0.0);
    /// ```
    pub fn from_samples(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "no samples");
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Stats {
            n,
            mean,
            std_dev: var.sqrt(),
            min,
            max,
        }
    }

    /// Coefficient of variation (σ/μ).
    pub fn cv(&self) -> f64 {
        if self.mean.abs() < 1e-12 {
            0.0
        } else {
            self.std_dev / self.mean
        }
    }

    /// Relative difference of this mean versus a baseline mean, as the
    /// paper's tables print it: negative = faster than baseline.
    pub fn relative_to(&self, baseline: &Stats) -> f64 {
        (self.mean - baseline.mean) / baseline.mean * 100.0
    }

    /// The paper's §III-B test: do the mean±1σ intervals of two routes
    /// overlap? If they do, the paper declines to prefer the "faster" route.
    pub fn overlap_1sigma(&self, other: &Stats) -> OverlapVerdict {
        let self_hi = self.mean + self.std_dev;
        let self_lo = self.mean - self.std_dev;
        let other_hi = other.mean + other.std_dev;
        let other_lo = other.mean - other.std_dev;
        if self_lo <= other_hi && other_lo <= self_hi {
            OverlapVerdict::Overlapping
        } else {
            OverlapVerdict::Separated
        }
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} ± {:.2} (n={})", self.mean, self.std_dev, self.n)
    }
}

/// Result of the paper's ±1σ interval comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverlapVerdict {
    /// Error bars overlap: "we may not choose to rely on any detours in
    /// these types of scenarios" (paper, §III-B).
    Overlapping,
    /// Intervals are separated: the faster route is trustworthy.
    Separated,
}

/// Nearest-rank percentile: the smallest sample such that at least `p`
/// percent of the data is at or below it. `p` is clamped to `(0, 100]`;
/// `p = 50` is the median, `p = 100` the maximum. Panics on an empty slice,
/// like [`Stats::from_samples`].
///
/// NaN samples are tolerated rather than a panic: ordering uses IEEE 754
/// `totalOrder` ([`f64::total_cmp`]), which places NaN above `+inf` (and
/// -NaN below `-inf`), so a NaN in the input surfaces as the value of the
/// top percentiles instead of aborting a report mid-run (sparklines were
/// hardened the same way).
///
/// ```
/// use measure::percentile;
/// let xs = [9.0, 1.0, 7.0, 3.0, 5.0];
/// assert_eq!(percentile(&xs, 50.0), 5.0);
/// assert_eq!(percentile(&xs, 100.0), 9.0);
/// ```
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "no samples");
    assert!(p.is_finite(), "percentile must be finite");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let p = p.clamp(0.0, 100.0);
    // Nearest-rank: ceil(p/100 * n), 1-based; rank 1 for p = 0.
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_stats() {
        let s = Stats::from_samples(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean - 5.0).abs() < 1e-12);
        // Sample std dev with n-1: sqrt(32/7) ≈ 2.138
        assert!((s.std_dev - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert_eq!(s.n, 8);
    }

    #[test]
    fn single_sample() {
        let s = Stats::from_samples(&[3.5]);
        assert_eq!(s.mean, 3.5);
        assert_eq!(s.std_dev, 0.0);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_panics() {
        Stats::from_samples(&[]);
    }

    #[test]
    fn all_equal_samples_have_zero_spread() {
        // Degenerate but legal: every run took exactly the same time.
        let s = Stats::from_samples(&[4.2; 7]);
        assert_eq!(s.n, 7);
        assert_eq!(s.mean, 4.2);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!((s.min, s.max), (4.2, 4.2));
        assert_eq!(s.cv(), 4.2 / 4.2 * 0.0);
        assert!(s.mean.is_finite() && s.std_dev.is_finite(), "no NaN leaks");
    }

    #[test]
    fn percentile_nearest_rank() {
        let xs = [15.0, 20.0, 35.0, 40.0, 50.0];
        // Canonical nearest-rank example (Wikipedia): p30 of this set is 20.
        assert_eq!(percentile(&xs, 30.0), 20.0);
        assert_eq!(percentile(&xs, 40.0), 20.0);
        assert_eq!(percentile(&xs, 50.0), 35.0);
        assert_eq!(percentile(&xs, 100.0), 50.0);
        // Unsorted input is handled.
        assert_eq!(percentile(&[9.0, 1.0, 5.0], 50.0), 5.0);
        // Out-of-range p clamps instead of panicking.
        assert_eq!(percentile(&xs, -10.0), 15.0);
        assert_eq!(percentile(&xs, 250.0), 50.0);
    }

    #[test]
    fn percentile_single_sample_and_all_equal() {
        // One sample: every percentile is that sample, never NaN.
        for p in [0.0, 1.0, 50.0, 99.0, 100.0] {
            assert_eq!(percentile(&[7.25], p), 7.25);
        }
        // All-equal: p50 == p99 == the value.
        let xs = [3.0; 9];
        assert_eq!(percentile(&xs, 50.0), 3.0);
        assert_eq!(percentile(&xs, 99.0), 3.0);
        assert_eq!(percentile(&xs, 50.0), percentile(&xs, 99.0));
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn percentile_empty_panics() {
        percentile(&[], 50.0);
    }

    #[test]
    fn percentile_tolerates_nan_samples() {
        // A NaN sample (e.g. a 0/0 from an empty measurement window) must
        // not abort the whole report. total_cmp sorts NaN above +inf, so it
        // only surfaces in the top percentiles.
        let xs = [3.0, f64::NAN, 1.0, 2.0];
        assert_eq!(percentile(&xs, 50.0), 2.0);
        assert_eq!(percentile(&xs, 75.0), 3.0);
        assert!(percentile(&xs, 100.0).is_nan());
        // Negative NaN sorts below -inf and everything else.
        let lo = [-f64::NAN, 4.0, 5.0];
        assert_eq!(percentile(&lo, 100.0), 5.0);
        assert!(percentile(&lo, 0.0).is_nan());
    }

    #[test]
    fn relative_to_matches_paper_table2() {
        // Paper Table II, 10 MB row: direct 9.46 s, via UAlberta 6.47 s
        // -> -31.52%.
        let direct = Stats {
            n: 5,
            mean: 9.46,
            std_dev: 0.0,
            min: 9.46,
            max: 9.46,
        };
        let detour = Stats {
            n: 5,
            mean: 6.47,
            std_dev: 0.0,
            min: 6.47,
            max: 6.47,
        };
        let rel = detour.relative_to(&direct);
        assert!((rel - -31.607).abs() < 0.2, "rel {rel}");
    }

    #[test]
    fn overlap_analysis_matches_paper_table4() {
        // Paper §III-B worked example: Dropbox 100 MB from Purdue.
        // Direct 177.89 ± 36.03, via UAlberta 237.78 ± 56.1: intervals
        // [141.86, 213.92] and [181.68, 293.88] overlap.
        let direct = Stats {
            n: 5,
            mean: 177.89,
            std_dev: 36.03,
            min: 0.0,
            max: 0.0,
        };
        let ua = Stats {
            n: 5,
            mean: 237.78,
            std_dev: 56.1,
            min: 0.0,
            max: 0.0,
        };
        assert_eq!(direct.overlap_1sigma(&ua), OverlapVerdict::Overlapping);

        // Clearly separated case: Purdue->Drive direct 748.03 vs detour
        // 195.88 (Table III) with modest spreads.
        let slow = Stats {
            n: 5,
            mean: 748.03,
            std_dev: 60.0,
            min: 0.0,
            max: 0.0,
        };
        let fast = Stats {
            n: 5,
            mean: 195.88,
            std_dev: 30.0,
            min: 0.0,
            max: 0.0,
        };
        assert_eq!(slow.overlap_1sigma(&fast), OverlapVerdict::Separated);
    }

    #[test]
    fn overlap_is_symmetric() {
        let a = Stats {
            n: 5,
            mean: 10.0,
            std_dev: 2.0,
            min: 0.0,
            max: 0.0,
        };
        let b = Stats {
            n: 5,
            mean: 13.0,
            std_dev: 2.0,
            min: 0.0,
            max: 0.0,
        };
        assert_eq!(a.overlap_1sigma(&b), b.overlap_1sigma(&a));
    }

    #[test]
    fn cv() {
        let s = Stats {
            n: 5,
            mean: 100.0,
            std_dev: 10.0,
            min: 0.0,
            max: 0.0,
        };
        assert!((s.cv() - 0.1).abs() < 1e-12);
        let z = Stats {
            n: 5,
            mean: 0.0,
            std_dev: 10.0,
            min: 0.0,
            max: 0.0,
        };
        assert_eq!(z.cv(), 0.0);
    }

    #[test]
    fn display() {
        let s = Stats {
            n: 5,
            mean: 177.89,
            std_dev: 36.03,
            min: 0.0,
            max: 0.0,
        };
        assert_eq!(s.to_string(), "177.89 ± 36.03 (n=5)");
    }
}
