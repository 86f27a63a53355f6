//! Result lines and the end-to-end metrics every workload reports.

use crate::estimate::{peak_rss_mib, percentile, tail, windowed_min_median, SETUP_WINDOWS};

/// One named figure with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// What a workload run found.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    /// Ops that failed: a `run_job` error, a case with a violation, a
    /// `FlowFailed`.
    pub failed: u64,
    /// Every output check held (the exit code is 1 otherwise).
    pub correct: bool,
    /// Digest of the simulated outputs (compare two commits for
    /// bit-identity).
    pub digest: u64,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// End-to-end metrics (untraced run).
    pub metrics: Vec<Metric>,
    /// Per-layer figures by name (traced run); units come from the list of
    /// per-layer metrics.
    pub layers: Vec<(&'static str, f64)>,
}

impl Default for Outcome {
    fn default() -> Self {
        Outcome {
            attempted: 0,
            failed: 0,
            correct: true,
            digest: 0,
            notes: Vec::new(),
            metrics: Vec::new(),
            layers: Vec::new(),
        }
    }
}

impl Outcome {
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Record a per-layer figure.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.push((name, value));
    }

    /// Record a failed output check.
    pub fn fail(&mut self, why: String) {
        self.correct = false;
        self.notes.push(format!("OUTPUT CHECK FAILED: {why}"));
    }

    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                assert!(m.value.is_finite(), "{} is not finite", m.name);
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Append the end-to-end metrics and note the peak resident set.
///
/// * `setup` — set-up repetitions in run order, seconds;
/// * `op_secs` — per-op fastest host time, sorted, seconds;
/// * `events` over `event_secs` — engine events per host second.
///
/// `peak_rss_mb` is printed but not a gated metric: `check`'s peak is set
/// by the heaviest case a seed happens to draw, 7.4 to 16.8 MiB across ten
/// seeds.
pub fn end_to_end(out: &mut Outcome, setup: &[f64], op_secs: &[f64], events: u64, event_secs: f64) {
    let t = tail(op_secs);
    out.note(format!(
        "op_tail_ms is p{} of {} per-op samples ({} beyond); set-up: {} repetitions in {} windows",
        t.percentile,
        t.samples,
        t.beyond,
        setup.len(),
        SETUP_WINDOWS.min(setup.len())
    ));
    out.note(format!("peak_rss_mb {} MiB (VmHWM)", peak_rss_mib()));
    let secs: f64 = op_secs.iter().sum();
    let m = &mut out.metrics;
    m.push(Metric::new(
        "setup_s",
        windowed_min_median(setup, SETUP_WINDOWS),
        "s",
    ));
    m.push(Metric::new("ops_per_s", op_secs.len() as f64 / secs, "1/s"));
    m.push(Metric::new(
        "op_p50_ms",
        percentile(op_secs, 50.0) * 1e3,
        "ms",
    ));
    m.push(Metric::new("op_tail_ms", t.value * 1e3, "ms"));
    m.push(Metric::new(
        "events_per_s",
        events as f64 / event_secs,
        "1/s",
    ));
}
