//! Metrics registry: counters, gauges, and log-linear histograms.
//!
//! Histograms use a log-linear bucket layout (power-of-two major buckets,
//! eight linear sub-buckets each — the HdrHistogram idea at low
//! resolution): relative quantile error is bounded at ~12.5% across the
//! full `u64` range with a fixed, allocation-free bucket table. Registry
//! iteration is over `BTreeMap`s, so every export is deterministically
//! ordered.

use std::collections::BTreeMap;

/// Sub-buckets per power-of-two range; also the count of exact unit
/// buckets at the bottom of the scale.
const SUB: u64 = 8;
const SUB_BITS: u32 = 3;
/// Total bucket count: values up to 2^63 land in a real bucket; anything
/// beyond the last major range is clamped into the final (overflow) bucket.
const BUCKETS: usize = (SUB + (64 - SUB_BITS as u64) * SUB) as usize;

/// A log-linear histogram over `u64` samples.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

fn bucket_index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros() as u64; // >= SUB_BITS
    let sub = (v >> (exp - SUB_BITS as u64)) & (SUB - 1);
    let idx = (SUB + (exp - SUB_BITS as u64) * SUB + sub) as usize;
    idx.min(BUCKETS - 1)
}

/// Inclusive upper bound of the bucket holding `v` — the value percentile
/// queries report for samples in that bucket.
fn bucket_upper_bound(idx: usize) -> u64 {
    if idx < SUB as usize {
        return idx as u64;
    }
    let rel = (idx as u64) - SUB;
    let exp = rel / SUB + SUB_BITS as u64;
    let sub = rel % SUB;
    let base = 1u64 << exp;
    let step = 1u64 << (exp - SUB_BITS as u64);
    base.saturating_add((sub + 1).saturating_mul(step))
        .saturating_sub(1)
}

impl Histogram {
    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest recorded sample; `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample; `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of the recorded samples; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// The value at quantile `q` in `[0, 1]`: an upper bound of the bucket
    /// containing that rank (≤ 12.5% relative error), clamped to the true
    /// observed max. `None` when the histogram is empty.
    pub fn percentile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the requested quantile, 1-based, at least 1.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(bucket_upper_bound(idx).min(self.max));
            }
        }
        Some(self.max)
    }
}

/// Is `name` a conforming metric name? The scheme is dotted lowercase:
/// at least two non-empty `.`-separated segments, each built only from
/// ASCII lowercase letters, digits, and underscores (e.g.
/// `cloudstore.throttles`, `core.monitor.probes`). Dynamic parts must be
/// sanitized through [`metric_segment`] first.
pub fn is_valid_metric_name(name: &str) -> bool {
    let mut segments = 0usize;
    for seg in name.split('.') {
        if seg.is_empty()
            || !seg
                .bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
        {
            return false;
        }
        segments += 1;
    }
    segments >= 2
}

/// Sanitize a dynamic string (route label, provider display name, node
/// name, ...) into one conforming metric-name segment: lowercase, with
/// every run of non-alphanumeric characters collapsed to a single `_`,
/// trimmed at both ends. Empty input becomes `"unknown"`.
pub fn metric_segment(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut pending_sep = false;
    for c in s.chars() {
        if c.is_ascii_alphanumeric() {
            if pending_sep && !out.is_empty() {
                out.push('_');
            }
            pending_sep = false;
            out.push(c.to_ascii_lowercase());
        } else {
            pending_sep = true;
        }
    }
    if out.is_empty() {
        "unknown".to_string()
    } else {
        out
    }
}

/// A last-value gauge that also remembers its range and sample count.
#[derive(Debug, Clone, Copy)]
pub struct Gauge {
    /// Most recently set value.
    pub last: f64,
    /// Smallest value ever set.
    pub min: f64,
    /// Largest value ever set.
    pub max: f64,
    /// Number of times the gauge was set.
    pub samples: u64,
}

/// Registry of named metrics; names are sorted on every export.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, Gauge>,
    hists: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// Add to a counter.
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        debug_assert!(is_valid_metric_name(name), "bad metric name: {name:?}");
        if let Some(c) = self.counters.get_mut(name) {
            *c += delta;
        } else {
            self.counters.insert(name.to_string(), delta);
        }
    }

    /// Add to a counter, taking ownership of a prebuilt name. Dynamic
    /// name parts must go through [`metric_segment`].
    pub fn counter_add_owned(&mut self, name: String, delta: u64) {
        debug_assert!(is_valid_metric_name(&name), "bad metric name: {name:?}");
        *self.counters.entry(name).or_insert(0) += delta;
    }

    /// Set a gauge.
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        debug_assert!(is_valid_metric_name(name), "bad metric name: {name:?}");
        if let Some(g) = self.gauges.get_mut(name) {
            g.last = value;
            g.min = g.min.min(value);
            g.max = g.max.max(value);
            g.samples += 1;
        } else {
            self.gauges.insert(
                name.to_string(),
                Gauge {
                    last: value,
                    min: value,
                    max: value,
                    samples: 1,
                },
            );
        }
    }

    /// Record a histogram sample.
    pub fn hist_record(&mut self, name: &str, value: u64) {
        debug_assert!(is_valid_metric_name(name), "bad metric name: {name:?}");
        if let Some(h) = self.hists.get_mut(name) {
            h.record(value);
        } else {
            let mut h = Histogram::default();
            h.record(value);
            self.hists.insert(name.to_string(), h);
        }
    }

    /// Current value of a counter (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current state of a gauge.
    pub fn gauge(&self, name: &str) -> Option<Gauge> {
        self.gauges.get(name).copied()
    }

    /// A histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.hists.get(name)
    }

    /// Render every metric into a flat, deterministically ordered snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut rows = Vec::new();
        for (name, &v) in &self.counters {
            rows.push(MetricRow {
                name: name.clone(),
                kind: "counter",
                value: v as f64,
                p50: None,
                p99: None,
                min: None,
                max: None,
                samples: v,
            });
        }
        for (name, g) in &self.gauges {
            rows.push(MetricRow {
                name: name.clone(),
                kind: "gauge",
                value: g.last,
                p50: None,
                p99: None,
                min: Some(g.min),
                max: Some(g.max),
                samples: g.samples,
            });
        }
        for (name, h) in &self.hists {
            rows.push(MetricRow {
                name: name.clone(),
                kind: "histogram",
                value: h.mean().unwrap_or(0.0),
                p50: h.percentile(0.50).map(|v| v as f64),
                p99: h.percentile(0.99).map(|v| v as f64),
                min: h.min().map(|v| v as f64),
                max: h.max().map(|v| v as f64),
                samples: h.count(),
            });
        }
        rows.sort_by(|a, b| a.name.cmp(&b.name));
        MetricsSnapshot { rows }
    }
}

/// One metric in a [`MetricsSnapshot`].
#[derive(Debug, Clone)]
pub struct MetricRow {
    /// Metric name.
    pub name: String,
    /// `"counter"`, `"gauge"`, or `"histogram"`.
    pub kind: &'static str,
    /// Counter total, gauge last value, or histogram mean.
    pub value: f64,
    /// Histogram median.
    pub p50: Option<f64>,
    /// Histogram 99th percentile.
    pub p99: Option<f64>,
    /// Observed minimum (gauges and histograms).
    pub min: Option<f64>,
    /// Observed maximum (gauges and histograms).
    pub max: Option<f64>,
    /// Sample count (for counters, the total itself).
    pub samples: u64,
}

/// A flat, ordered view of a [`MetricsRegistry`], ready for text/CSV
/// rendering (see also `measure::report` for table output).
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// All metrics, sorted by name.
    pub rows: Vec<MetricRow>,
}

fn fmt_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.3}")
    }
}

impl MetricsSnapshot {
    /// Aligned plain-text rendering.
    pub fn to_text(&self) -> String {
        if self.rows.is_empty() {
            return "(no metrics recorded)\n".to_string();
        }
        let name_w = self
            .rows
            .iter()
            .map(|r| r.name.len())
            .max()
            .unwrap_or(4)
            .max(4);
        let mut out = format!(
            "{:<name_w$}  {:<9}  {:>14}  {:>12}  {:>12}  {:>8}\n",
            "name", "kind", "value", "p50", "p99", "samples"
        );
        for r in &self.rows {
            let p50 = r.p50.map(fmt_num).unwrap_or_else(|| "-".into());
            let p99 = r.p99.map(fmt_num).unwrap_or_else(|| "-".into());
            out.push_str(&format!(
                "{:<name_w$}  {:<9}  {:>14}  {:>12}  {:>12}  {:>8}\n",
                r.name,
                r.kind,
                fmt_num(r.value),
                p50,
                p99,
                r.samples
            ));
        }
        out
    }

    /// CSV rendering with a header row.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("name,kind,value,p50,p99,min,max,samples\n");
        for r in &self.rows {
            let opt = |v: Option<f64>| v.map(fmt_num).unwrap_or_default();
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{}\n",
                r.name,
                r.kind,
                fmt_num(r.value),
                opt(r.p50),
                opt(r.p99),
                opt(r.min),
                opt(r.max),
                r.samples
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_has_no_percentiles() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(0.5), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
    }

    #[test]
    fn single_sample_dominates_every_percentile() {
        let mut h = Histogram::default();
        h.record(1234);
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            let p = h.percentile(q).unwrap();
            assert_eq!(p, 1234, "q={q} gave {p}");
        }
        assert_eq!(h.mean(), Some(1234.0));
    }

    #[test]
    fn all_equal_samples_collapse_percentiles() {
        // Every sample identical: p50 == p99 == the value, min == max, and
        // nothing degenerates to NaN or an empty bucket walk.
        let mut h = Histogram::default();
        for _ in 0..1000 {
            h.record(48_213);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.min(), Some(48_213));
        assert_eq!(h.max(), Some(48_213));
        let p50 = h.percentile(0.5).unwrap();
        let p99 = h.percentile(0.99).unwrap();
        assert_eq!(p50, p99, "all-equal data must have a flat tail");
        // The bucket upper bound is clamped to the observed max, so the
        // reported percentile is exact here despite log bucketing.
        assert_eq!(p50, 48_213);
        let mean = h.mean().unwrap();
        assert_eq!(mean, 48_213.0);
        assert!(mean.is_finite());
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::default();
        for v in 0..8u64 {
            h.record(v);
        }
        assert_eq!(h.percentile(0.0), Some(0));
        assert_eq!(h.percentile(1.0), Some(7));
        // Rank 4 of 8 is the sample `3` (exact unit buckets below SUB).
        assert_eq!(h.percentile(0.5), Some(3));
    }

    #[test]
    fn percentile_error_is_bounded() {
        let mut h = Histogram::default();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for q in [0.5, 0.9, 0.99] {
            let exact = (q * 100_000.0) as u64;
            let est = h.percentile(q).unwrap();
            let rel = (est as f64 - exact as f64).abs() / exact as f64;
            assert!(
                rel < 0.13,
                "q={q}: est {est} vs exact {exact} (rel {rel:.3})"
            );
        }
    }

    #[test]
    fn overflow_bucket_holds_giant_samples() {
        let mut h = Histogram::default();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        h.record(1);
        assert_eq!(h.max(), Some(u64::MAX));
        // The percentile of the giant samples stays within the saturated
        // top bucket and never reports beyond the observed max.
        let top = h.percentile(1.0).unwrap();
        assert!(top >= u64::MAX - 1, "top {top}");
        assert_eq!(h.percentile(0.01), Some(1));
        // Top-of-range indices stay inside the table.
        assert_eq!(super::bucket_index(u64::MAX), super::BUCKETS - 1);
    }

    #[test]
    fn bucket_bounds_are_monotone() {
        let mut prev = 0;
        for idx in 0..super::BUCKETS {
            let b = super::bucket_upper_bound(idx);
            assert!(idx == 0 || b > prev, "bucket {idx}: {b} <= {prev}");
            prev = b;
        }
        // Every value maps into a bucket whose bound is >= the value.
        for v in [0u64, 1, 7, 8, 9, 100, 1023, 1 << 20, (1 << 40) + 12345] {
            assert!(
                super::bucket_upper_bound(super::bucket_index(v)) >= v,
                "v={v}"
            );
        }
    }

    #[test]
    fn registry_snapshot_is_sorted_and_complete() {
        let mut m = MetricsRegistry::default();
        m.counter_add("z.total", 2);
        m.counter_add("z.total", 3);
        m.counter_add_owned(
            format!("bytes.provider.{}", metric_segment("Google Drive")),
            100,
        );
        m.gauge_set("a.occupancy", 5.0);
        m.gauge_set("a.occupancy", 2.0);
        m.hist_record("m.latency", 10);
        m.hist_record("m.latency", 30);
        assert_eq!(m.counter("z.total"), 5);
        assert_eq!(m.gauge("a.occupancy").unwrap().last, 2.0);
        assert_eq!(m.gauge("a.occupancy").unwrap().max, 5.0);
        let snap = m.snapshot();
        let names: Vec<&str> = snap.rows.iter().map(|r| r.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        assert_eq!(snap.rows.len(), 4);
        let csv = snap.to_csv();
        assert!(csv.starts_with("name,kind,"));
        assert!(csv.contains("m.latency,histogram"));
        assert!(snap.to_text().contains("a.occupancy"));
        assert!(csv.contains("bytes.provider.google_drive"));
    }

    #[test]
    fn metric_name_scheme_is_enforced() {
        for good in [
            "cloudstore.throttles",
            "core.monitor.probes",
            "netsim.flow.delivered_bytes",
            "a.b_c.d9",
        ] {
            assert!(is_valid_metric_name(good), "{good} should be valid");
        }
        for bad in [
            "single",
            "",
            "a..b",
            ".a.b",
            "a.b.",
            "bytes.provider.GoogleDrive",
            "core.via UAlberta",
            "core.bytes-route",
        ] {
            assert!(!is_valid_metric_name(bad), "{bad} should be rejected");
        }
    }

    #[test]
    fn metric_segment_sanitizes_display_names() {
        assert_eq!(metric_segment("Google Drive"), "google_drive");
        assert_eq!(metric_segment("via UAlberta"), "via_ualberta");
        assert_eq!(metric_segment("via UAlberta+UMich"), "via_ualberta_umich");
        assert_eq!(metric_segment("Direct"), "direct");
        assert_eq!(metric_segment("  --  "), "unknown");
        assert_eq!(metric_segment(""), "unknown");
        assert!(is_valid_metric_name(&format!(
            "core.bytes.route.{}",
            metric_segment("via UAlberta")
        )));
    }
}
