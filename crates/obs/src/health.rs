//! Route-health scoreboard with SLO burn-rate verdicts.
//!
//! [`HealthBoard`] folds a parsed [`Trace`] (live or recorded — see
//! [`Trace::from_recording`]) into per-cell health state keyed by
//! **(vantage, provider, size-class)**, the unit of the paper's detour
//! argument. Each cell carries a mergeable [`QuantileSketch`] of
//! successful transfer times plus counters fed by every plane of the
//! stack: monitor probes, failover route failures and switches, breaker
//! trips/cooldowns/skips, and resilience throttle/retry/budget/deadline
//! events.
//!
//! SLO evaluation follows the multi-window burn-rate discipline: the
//! error rate over a short and a long window (measured back from the end
//! of the trace, in sim time) is divided by the error budget to get a
//! burn rate; a cell is **burning** when both windows exceed the page
//! threshold, **warn** when the long window exceeds the warn threshold
//! or p99 transfer time drifts past its target, **ok** otherwise.
//!
//! Everything is integer or rational arithmetic over deterministic
//! inputs: the same trace always produces the same scoreboard, and
//! ingesting several traces is order-independent for every sketch and
//! counter (burn windows anchor to the maximum end time seen).

use crate::json;
use crate::sketch::QuantileSketch;
use crate::trace::{Trace, TraceSpan};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// SLO targets and burn-rate windows for every cell.
#[derive(Debug, Clone)]
pub struct SloPolicy {
    /// p99 successful-transfer-time target, sim nanoseconds.
    pub p99_ns: u64,
    /// Fraction of attempts allowed to fail (error budget).
    pub error_budget: f64,
    /// Short burn window, sim nanoseconds.
    pub short_window_ns: u64,
    /// Long burn window, sim nanoseconds.
    pub long_window_ns: u64,
    /// Long-window burn rate at which a cell turns warn.
    pub warn_burn: f64,
    /// Burn rate both windows must exceed for burning.
    pub page_burn: f64,
}

impl Default for SloPolicy {
    fn default() -> Self {
        SloPolicy {
            p99_ns: 120_000_000_000, // 120 s of sim time
            error_budget: 0.05,
            short_window_ns: 60_000_000_000,
            long_window_ns: 600_000_000_000,
            warn_burn: 1.0,
            page_burn: 6.0,
        }
    }
}

/// Health state of one cell or board row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// Within SLO.
    Ok,
    /// Burning budget faster than sustainable, or p99 drifting.
    Warn,
    /// Both burn windows past the page threshold or p99 blown.
    Burning,
}

impl Verdict {
    /// Stable lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Warn => "warn",
            Verdict::Burning => "burning",
        }
    }
}

/// Transfer-size class: the paper buckets its measurements the same way.
pub fn size_class(bytes: u64) -> &'static str {
    if bytes < 16 * 1024 * 1024 {
        "small"
    } else if bytes < 256 * 1024 * 1024 {
        "medium"
    } else {
        "large"
    }
}

/// Accumulated health state of one (vantage, provider, size-class) cell.
#[derive(Debug, Clone, Default)]
pub struct CellHealth {
    /// Sketch of successful transfer durations (ns).
    pub transfer_ns: QuantileSketch,
    /// `(end time, success)` per attempt — feeds the burn windows.
    pub outcomes: Vec<(u64, bool)>,
    /// Throttle events (429/503 style pushback).
    pub throttles: u64,
    /// Chunk retry events.
    pub retries: u64,
    /// Route attempts that failed inside failover.
    pub route_failures: u64,
    /// Failover switches away from the preferred route.
    pub failovers: u64,
    /// Breaker trips attributed to this cell.
    pub breaker_trips: u64,
    /// Routes skipped because a breaker was open.
    pub breaker_skips: u64,
    /// Retry budget exhaustions.
    pub budget_exhausted: u64,
    /// Deadline exceeded terminations.
    pub deadline_exceeded: u64,
    /// Route-plane lookups shed by admission control for this cell.
    pub plane_sheds: u64,
    /// Route-plane decisions demoted to direct by an open breaker.
    pub plane_demotions: u64,
    /// Route-plane stale-generation refreshes (invalidation pressure).
    pub plane_stale: u64,
}

impl CellHealth {
    /// Total attempts seen.
    pub fn attempts(&self) -> u64 {
        self.outcomes.len() as u64
    }

    /// Failed attempts.
    pub fn errors(&self) -> u64 {
        self.outcomes.iter().filter(|(_, ok)| !ok).count() as u64
    }

    fn burn_rate(&self, window_ns: u64, end_ns: u64, budget: f64) -> f64 {
        let lo = end_ns.saturating_sub(window_ns);
        let mut attempts = 0u64;
        let mut errors = 0u64;
        for &(t, ok) in &self.outcomes {
            if t >= lo {
                attempts += 1;
                if !ok {
                    errors += 1;
                }
            }
        }
        if attempts == 0 || budget <= 0.0 {
            return 0.0;
        }
        (errors as f64 / attempts as f64) / budget
    }
}

/// Per-breaker-target activity (keyed by breaker target id).
#[derive(Debug, Clone, Default)]
pub struct BreakerRow {
    /// Closed → Open transitions.
    pub trips: u64,
    /// Open/HalfOpen → Closed transitions.
    pub closes: u64,
    /// Route attempts skipped while open.
    pub skips: u64,
}

/// The scoreboard: cells, breaker activity, probe volume, and the SLO
/// policy they are judged against.
#[derive(Debug, Default)]
pub struct HealthBoard {
    slo: SloPolicy,
    cells: BTreeMap<(String, String, &'static str), CellHealth>,
    breakers: BTreeMap<String, BreakerRow>,
    probes: u64,
    end_ns: u64,
}

/// One evaluated row of the report.
#[derive(Debug, Clone)]
pub struct HealthRow {
    /// Vantage (client) name.
    pub vantage: String,
    /// Provider display name.
    pub provider: String,
    /// Size class ("small" / "medium" / "large" / "-").
    pub size: &'static str,
    /// The accumulated cell state.
    pub cell: CellHealth,
    /// p50 of successful transfers, ns.
    pub p50_ns: Option<u64>,
    /// p99 of successful transfers, ns.
    pub p99_ns: Option<u64>,
    /// Short-window burn rate.
    pub burn_short: f64,
    /// Long-window burn rate.
    pub burn_long: f64,
    /// Latency verdict (p99 vs target).
    pub latency: Verdict,
    /// Error-budget verdict (multi-window burn rate).
    pub errors: Verdict,
    /// Worst of the two.
    pub overall: Verdict,
}

/// The rendered scoreboard.
#[derive(Debug, Clone)]
pub struct HealthReport {
    /// Policy the rows were judged against.
    pub slo: SloPolicy,
    /// Evaluated cells, sorted by (vantage, provider, size).
    pub rows: Vec<HealthRow>,
    /// Breaker activity by target.
    pub breakers: Vec<(String, BreakerRow)>,
    /// Monitor probes observed.
    pub probes: u64,
    /// Anchor for the burn windows (max sim time in the traces).
    pub end_ns: u64,
}

fn span_cell_key(span: &TraceSpan) -> (String, String, &'static str) {
    let vantage = span
        .arg("vantage")
        .and_then(|v| v.as_str())
        .unwrap_or("-")
        .to_string();
    let provider = span
        .arg("provider")
        .and_then(|v| v.as_str())
        .unwrap_or("-")
        .to_string();
    let size = span
        .arg("bytes")
        .and_then(|v| v.as_u64())
        .map(size_class)
        .unwrap_or("-");
    (vantage, provider, size)
}

impl HealthBoard {
    /// A board judging against the given policy.
    pub fn new(slo: SloPolicy) -> Self {
        HealthBoard {
            slo,
            ..Default::default()
        }
    }

    /// The policy in force.
    pub fn slo(&self) -> &SloPolicy {
        &self.slo
    }

    /// Fold one trace into the board. Calling this for several traces
    /// (e.g. shard-local recordings) merges sketches and counters
    /// order-independently.
    pub fn ingest(&mut self, trace: &Trace) {
        self.end_ns = self.end_ns.max(trace.end_ns());

        // Resolve each span to its owning attempt span: the enclosing
        // "job", or the session itself when a scenario drives sessions
        // directly without the core job layer.
        let mut owner: Vec<Option<usize>> = vec![None; trace.spans.len()];
        for (i, s) in trace.spans.iter().enumerate() {
            let inherited = s.parent.and_then(|p| owner.get(p).copied().flatten());
            let is_attempt_root = s.name == "job"
                || (inherited.is_none()
                    && (s.name == "upload-session" || s.name == "download-session"));
            owner[i] = if is_attempt_root { Some(i) } else { inherited };
        }

        // Spans carrying error events (job.error / session.error parented
        // directly to them) fail their attempt.
        let mut has_error: Vec<bool> = vec![false; trace.spans.len()];
        for e in &trace.events {
            if let Some(p) = e.parent {
                if e.name == "job.error" || e.name == "session.error" {
                    if let Some(flag) = has_error.get_mut(p) {
                        *flag = true;
                    }
                }
            }
        }

        // Attempts: exactly the owner spans (jobs and jobless sessions).
        for (i, s) in trace.spans.iter().enumerate() {
            if owner[i] != Some(i) {
                continue;
            }
            let key = span_cell_key(s);
            let ok = s.end_ns.is_some() && !has_error[i];
            let t = s.end_ns.unwrap_or(s.start_ns);
            let cell = self.cells.entry(key).or_default();
            cell.outcomes.push((t, ok));
            if ok {
                cell.transfer_ns.record(s.duration_ns());
            }
        }

        for e in &trace.events {
            // A cell for the event: the owning job's key when it has one,
            // else the event's own vantage/provider args (failover and
            // breaker events are root-parented but self-describing).
            let key = e
                .parent
                .and_then(|p| owner.get(p).copied().flatten())
                .map(|j| span_cell_key(&trace.spans[j]))
                .or_else(|| {
                    e.arg("vantage").and_then(|v| v.as_str()).map(|vantage| {
                        let provider = e
                            .arg("provider")
                            .and_then(|v| v.as_str())
                            .unwrap_or("-")
                            .to_string();
                        let size = e
                            .arg("bytes")
                            .and_then(|v| v.as_u64())
                            .map(size_class)
                            .unwrap_or("-");
                        (vantage.to_string(), provider, size)
                    })
                });
            let mut bump = |f: fn(&mut CellHealth)| {
                if let Some(k) = key.clone() {
                    f(self.cells.entry(k).or_default());
                }
            };
            let target = || {
                e.arg("target")
                    .and_then(|v| v.as_str())
                    .unwrap_or("?")
                    .to_string()
            };
            match e.name.as_str() {
                "chunk.throttled" => bump(|c| c.throttles += 1),
                "chunk.retry" => bump(|c| c.retries += 1),
                "failover.route_failed" => bump(|c| c.route_failures += 1),
                "failover.switched" => bump(|c| c.failovers += 1),
                "failover.breaker_skip" => {
                    bump(|c| c.breaker_skips += 1);
                    self.breakers.entry(target()).or_default().skips += 1;
                }
                "breaker.trip" => {
                    bump(|c| c.breaker_trips += 1);
                    self.breakers.entry(target()).or_default().trips += 1;
                }
                "breaker.close" => {
                    self.breakers.entry(target()).or_default().closes += 1;
                }
                "monitor.probe" => self.probes += 1,
                // Route-plane pressure: self-describing events (vantage /
                // provider / bytes args) emitted by fleet drivers and the
                // plane CLI, so cache overload shows up on the same
                // scoreboard as transfer health.
                "plane.shed" => bump(|c| c.plane_sheds += 1),
                "plane.demote" => bump(|c| c.plane_demotions += 1),
                "plane.stale" => bump(|c| c.plane_stale += 1),
                "session.error" => {
                    let text = e.arg("error").and_then(|v| v.as_str()).unwrap_or("");
                    if text.contains("deadline") {
                        bump(|c| c.deadline_exceeded += 1);
                    } else if text.contains("budget") || text.contains("retry") {
                        bump(|c| c.budget_exhausted += 1);
                    }
                }
                _ => {}
            }
        }
    }

    /// Evaluate every cell against the SLO policy.
    pub fn report(&self) -> HealthReport {
        let mut rows = Vec::with_capacity(self.cells.len());
        for ((vantage, provider, size), cell) in &self.cells {
            let p99 = cell.transfer_ns.quantile(0.99);
            let latency = match p99 {
                None => Verdict::Ok,
                Some(p) if p <= self.slo.p99_ns => Verdict::Ok,
                Some(p) if p <= self.slo.p99_ns + self.slo.p99_ns / 4 => Verdict::Warn,
                Some(_) => Verdict::Burning,
            };
            let burn_short =
                cell.burn_rate(self.slo.short_window_ns, self.end_ns, self.slo.error_budget);
            let burn_long =
                cell.burn_rate(self.slo.long_window_ns, self.end_ns, self.slo.error_budget);
            let errors = if burn_short >= self.slo.page_burn && burn_long >= self.slo.page_burn {
                Verdict::Burning
            } else if burn_long >= self.slo.warn_burn {
                Verdict::Warn
            } else {
                Verdict::Ok
            };
            rows.push(HealthRow {
                vantage: vantage.clone(),
                provider: provider.clone(),
                size,
                p50_ns: cell.transfer_ns.quantile(0.50),
                p99_ns: p99,
                burn_short,
                burn_long,
                latency,
                errors,
                overall: latency.max(errors),
                cell: cell.clone(),
            });
        }
        HealthReport {
            slo: self.slo.clone(),
            rows,
            breakers: self
                .breakers
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
            probes: self.probes,
            end_ns: self.end_ns,
        }
    }

    /// Feed the board's complete evaluated state to `f` as a `u64`
    /// stream, for folding into an execution digest (simcheck covers the
    /// health plane with this).
    pub fn fold_into(&self, f: &mut impl FnMut(u64)) {
        let fold_str = |s: &str, f: &mut dyn FnMut(u64)| {
            f(s.len() as u64);
            for b in s.bytes() {
                f(b as u64);
            }
        };
        f(self.cells.len() as u64);
        for ((vantage, provider, size), cell) in &self.cells {
            fold_str(vantage, f);
            fold_str(provider, f);
            fold_str(size, f);
            cell.transfer_ns.fold_into(f);
            f(cell.outcomes.len() as u64);
            for &(t, ok) in &cell.outcomes {
                f(t);
                f(ok as u64);
            }
            for v in [
                cell.throttles,
                cell.retries,
                cell.route_failures,
                cell.failovers,
                cell.breaker_trips,
                cell.breaker_skips,
                cell.budget_exhausted,
                cell.deadline_exceeded,
                cell.plane_sheds,
                cell.plane_demotions,
                cell.plane_stale,
            ] {
                f(v);
            }
        }
        f(self.breakers.len() as u64);
        for (target, row) in &self.breakers {
            fold_str(target, f);
            f(row.trips);
            f(row.closes);
            f(row.skips);
        }
        f(self.probes);
        f(self.end_ns);
    }
}

fn fmt_ms(ns: Option<u64>) -> String {
    match ns {
        Some(ns) => format!("{:.1}", ns as f64 / 1e6),
        None => "-".to_string(),
    }
}

impl HealthReport {
    /// Aligned human-readable scoreboard.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "route health @ t={:.1}s  (slo: p99 <= {:.1}s, error budget {:.1}%, \
             windows {}s/{}s, warn>={}, page>={})",
            self.end_ns as f64 / 1e9,
            self.slo.p99_ns as f64 / 1e9,
            self.slo.error_budget * 100.0,
            self.slo.short_window_ns / 1_000_000_000,
            self.slo.long_window_ns / 1_000_000_000,
            self.slo.warn_burn,
            self.slo.page_burn,
        );
        if self.rows.is_empty() {
            out.push_str("(no transfer attempts in trace)\n");
            return out;
        }
        let vw = self
            .rows
            .iter()
            .map(|r| r.vantage.len())
            .max()
            .unwrap_or(7)
            .max(7);
        let pw = self
            .rows
            .iter()
            .map(|r| r.provider.len())
            .max()
            .unwrap_or(8)
            .max(8);
        let _ = writeln!(
            out,
            "{:<vw$}  {:<pw$}  {:<6}  {:>4} {:>4}  {:>9} {:>9}  {:>3} {:>3} {:>3} {:>3}  {:>6} {:>6}  verdict",
            "vantage", "provider", "size", "att", "err", "p50_ms", "p99_ms",
            "thr", "rty", "fov", "skp", "burn_s", "burn_l"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:<vw$}  {:<pw$}  {:<6}  {:>4} {:>4}  {:>9} {:>9}  {:>3} {:>3} {:>3} {:>3}  {:>6.2} {:>6.2}  {}",
                r.vantage,
                r.provider,
                r.size,
                r.cell.attempts(),
                r.cell.errors(),
                fmt_ms(r.p50_ns),
                fmt_ms(r.p99_ns),
                r.cell.throttles,
                r.cell.retries,
                r.cell.failovers,
                r.cell.breaker_skips,
                r.burn_short,
                r.burn_long,
                r.overall.label(),
            );
        }
        if !self.breakers.is_empty() {
            out.push_str("\nbreakers:\n");
            for (target, row) in &self.breakers {
                let _ = writeln!(
                    out,
                    "  target {:<6} trips {:>3}  closes {:>3}  skips {:>3}",
                    target, row.trips, row.closes, row.skips
                );
            }
        }
        let _ = writeln!(out, "\nmonitor probes: {}", self.probes);
        out
    }

    /// Canonical JSON (sorted cells, integer ns, shortest-roundtrip
    /// floats) — golden-snapshot and artifact friendly.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"slo\":{");
        let _ = write!(
            out,
            "\"p99_ns\":{},\"error_budget\":{},\"short_window_ns\":{},\"long_window_ns\":{},\
             \"warn_burn\":{},\"page_burn\":{}}},",
            self.slo.p99_ns,
            self.slo.error_budget,
            self.slo.short_window_ns,
            self.slo.long_window_ns,
            self.slo.warn_burn,
            self.slo.page_burn
        );
        let _ = write!(
            out,
            "\"end_ns\":{},\"probes\":{},\"cells\":[",
            self.end_ns, self.probes
        );
        for (i, r) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"vantage\":");
            json::escape(&r.vantage, &mut out);
            out.push_str(",\"provider\":");
            json::escape(&r.provider, &mut out);
            let _ = write!(
                out,
                ",\"size\":\"{}\",\"attempts\":{},\"errors\":{},\"p50_ns\":{},\"p99_ns\":{},\
                 \"throttles\":{},\"retries\":{},\"route_failures\":{},\"failovers\":{},\
                 \"breaker_trips\":{},\"breaker_skips\":{},\"budget_exhausted\":{},\
                 \"deadline_exceeded\":{},\"plane_sheds\":{},\"plane_demotions\":{},\
                 \"plane_stale\":{},\"burn_short\":{},\"burn_long\":{},\
                 \"latency\":\"{}\",\"error_verdict\":\"{}\",\"verdict\":\"{}\"}}",
                r.size,
                r.cell.attempts(),
                r.cell.errors(),
                r.p50_ns
                    .map(|v| v.to_string())
                    .unwrap_or_else(|| "null".into()),
                r.p99_ns
                    .map(|v| v.to_string())
                    .unwrap_or_else(|| "null".into()),
                r.cell.throttles,
                r.cell.retries,
                r.cell.route_failures,
                r.cell.failovers,
                r.cell.breaker_trips,
                r.cell.breaker_skips,
                r.cell.budget_exhausted,
                r.cell.deadline_exceeded,
                r.cell.plane_sheds,
                r.cell.plane_demotions,
                r.cell.plane_stale,
                r.burn_short,
                r.burn_long,
                r.latency.label(),
                r.errors.label(),
                r.overall.label(),
            );
        }
        out.push_str("],\"breakers\":[");
        for (i, (target, row)) in self.breakers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"target\":");
            json::escape(target, &mut out);
            let _ = write!(
                out,
                ",\"trips\":{},\"closes\":{},\"skips\":{}}}",
                row.trips, row.closes, row.skips
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{Category, SpanId, Telemetry};
    use crate::trace::Trace;

    fn job(tele: &mut Telemetry, t0: u64, ok: bool, vantage: &str, provider: &str, bytes: u64) {
        let j = tele.span_begin_with(t0, Category::Control, "job", SpanId::NONE, |a| {
            a.set("route", "Direct")
                .set("bytes", bytes)
                .set("vantage", vantage.to_string())
                .set("provider", provider.to_string());
        });
        tele.event(t0 + 100, Category::Chunk, "chunk.retry", j, |a| {
            a.set("attempt", 1u64);
        });
        if !ok {
            tele.event(t0 + 500, Category::Control, "job.error", j, |a| {
                a.set("error", "timeout contacting frontend");
            });
        }
        tele.span_end(t0 + 1_000_000_000, j);
    }

    fn board_from(tele: &mut Telemetry) -> HealthBoard {
        let rec = tele.take().unwrap();
        let trace = Trace::from_recording(&rec);
        let mut b = HealthBoard::new(SloPolicy::default());
        b.ingest(&trace);
        b
    }

    #[test]
    fn attempts_split_by_cell_and_outcome() {
        let mut tele = Telemetry::enabled();
        job(&mut tele, 0, true, "UBC", "Google Drive", 1 << 20);
        job(&mut tele, 10, true, "UBC", "Google Drive", 1 << 20);
        job(&mut tele, 20, false, "UBC", "Google Drive", 1 << 20);
        job(&mut tele, 30, true, "Purdue", "Dropbox", 512 << 20);
        let b = board_from(&mut tele);
        let rep = b.report();
        assert_eq!(rep.rows.len(), 2);
        let ubc = &rep.rows[1];
        assert_eq!((ubc.vantage.as_str(), ubc.size), ("UBC", "small"));
        assert_eq!(ubc.cell.attempts(), 3);
        assert_eq!(ubc.cell.errors(), 1);
        assert_eq!(ubc.cell.retries, 3);
        assert_eq!(ubc.cell.transfer_ns.count(), 2);
        let purdue = &rep.rows[0];
        assert_eq!((purdue.vantage.as_str(), purdue.size), ("Purdue", "large"));
        assert_eq!(purdue.cell.errors(), 0);
    }

    #[test]
    fn burn_rates_drive_error_verdicts() {
        let mut tele = Telemetry::enabled();
        // Every attempt fails: burn = (1.0 / 0.05) = 20 >> page threshold.
        for i in 0..10u64 {
            job(
                &mut tele,
                i * 1_000_000,
                false,
                "UBC",
                "Google Drive",
                1 << 20,
            );
        }
        let b = board_from(&mut tele);
        let rep = b.report();
        assert_eq!(rep.rows[0].errors, Verdict::Burning);
        assert_eq!(rep.rows[0].overall, Verdict::Burning);
        // All-success board stays ok.
        let mut tele = Telemetry::enabled();
        for i in 0..10u64 {
            job(
                &mut tele,
                i * 1_000_000,
                true,
                "UBC",
                "Google Drive",
                1 << 20,
            );
        }
        let rep = board_from(&mut tele).report();
        assert_eq!(rep.rows[0].overall, Verdict::Ok);
    }

    #[test]
    fn latency_verdict_tracks_p99_target() {
        // 0.5 s target while the jobs take a full second.
        let slo = SloPolicy {
            p99_ns: 500_000_000,
            ..SloPolicy::default()
        };
        let mut tele = Telemetry::enabled();
        job(&mut tele, 0, true, "UBC", "Google Drive", 1 << 20);
        let rec = tele.take().unwrap();
        let mut b = HealthBoard::new(slo);
        b.ingest(&Trace::from_recording(&rec));
        let rep = b.report();
        assert_eq!(rep.rows[0].latency, Verdict::Burning);
    }

    #[test]
    fn root_events_attribute_via_their_own_args() {
        let mut tele = Telemetry::enabled();
        tele.event(
            5,
            Category::Control,
            "failover.switched",
            SpanId::NONE,
            |a| {
                a.set("route", "via UAlberta")
                    .set("vantage", "UBC")
                    .set("provider", "Dropbox")
                    .set("bytes", 1u64 << 20)
                    .set("failed_attempts", 1u64);
            },
        );
        tele.event(6, Category::Control, "breaker.trip", SpanId::NONE, |a| {
            a.set("target", "7")
                .set("vantage", "UBC")
                .set("provider", "Dropbox")
                .set("bytes", 1u64 << 20);
        });
        tele.event(7, Category::Control, "breaker.close", SpanId::NONE, |a| {
            a.set("target", "7");
        });
        tele.event(8, Category::Control, "monitor.probe", SpanId::NONE, |a| {
            a.set("route", 1u64);
        });
        let b = board_from(&mut tele);
        let rep = b.report();
        assert_eq!(rep.probes, 1);
        assert_eq!(rep.breakers.len(), 1);
        assert_eq!(rep.breakers[0].1.trips, 1);
        assert_eq!(rep.breakers[0].1.closes, 1);
        let cell = &rep.rows[0].cell;
        assert_eq!(cell.failovers, 1);
        assert_eq!(cell.breaker_trips, 1);
    }

    #[test]
    fn plane_pressure_events_land_in_their_cell() {
        let mut tele = Telemetry::enabled();
        for (i, name) in ["plane.shed", "plane.shed", "plane.demote", "plane.stale"]
            .iter()
            .enumerate()
        {
            tele.event(10 + i as u64, Category::Control, name, SpanId::NONE, |a| {
                a.set("vantage", "UBC")
                    .set("provider", "Dropbox")
                    .set("bytes", 1u64 << 20);
            });
        }
        // No vantage arg and no parent span: nowhere to attribute, dropped.
        tele.event(99, Category::Control, "plane.shed", SpanId::NONE, |a| {
            a.set("tenant", 3u64);
        });
        let rep = board_from(&mut tele).report();
        assert_eq!(rep.rows.len(), 1);
        let cell = &rep.rows[0].cell;
        assert_eq!(cell.plane_sheds, 2);
        assert_eq!(cell.plane_demotions, 1);
        assert_eq!(cell.plane_stale, 1);
        let json = rep.to_json();
        assert!(json.contains("\"plane_sheds\":2"));
        assert!(json.contains("\"plane_demotions\":1"));
        assert!(json.contains("\"plane_stale\":1"));
    }

    #[test]
    fn multi_trace_ingest_is_order_independent() {
        let mk = |ok: bool| {
            let mut tele = Telemetry::enabled();
            job(&mut tele, 0, ok, "UBC", "Google Drive", 1 << 20);
            Trace::from_recording(&tele.take().unwrap())
        };
        let (a, b) = (mk(true), mk(false));
        let mut x = HealthBoard::new(SloPolicy::default());
        x.ingest(&a);
        x.ingest(&b);
        let mut y = HealthBoard::new(SloPolicy::default());
        y.ingest(&b);
        y.ingest(&a);
        let mut dx = Vec::new();
        let mut dy = Vec::new();
        x.fold_into(&mut |v| dx.push(v));
        y.fold_into(&mut |v| dy.push(v));
        // Same multiset of outcomes; sketches and counters identical.
        assert_eq!(x.report().to_json(), y.report().to_json());
        assert_eq!(dx.len(), dy.len());
    }

    #[test]
    fn report_renders_text_and_json() {
        let mut tele = Telemetry::enabled();
        job(&mut tele, 0, true, "UBC", "Google Drive", 1 << 20);
        job(&mut tele, 10, false, "UBC", "Google Drive", 1 << 20);
        let rep = board_from(&mut tele).report();
        let text = rep.to_text();
        assert!(text.contains("route health"));
        assert!(text.contains("UBC"));
        assert!(text.contains("Google Drive"));
        let json = rep.to_json();
        assert!(json.starts_with("{\"slo\":{"));
        assert!(json.contains("\"vantage\":\"UBC\""));
        assert!(json.contains("\"attempts\":2"));
        assert!(json.ends_with("]}\n"));
    }

    #[test]
    fn jobless_sessions_count_as_attempts() {
        let mut tele = Telemetry::enabled();
        let s = tele.span_begin_with(0, Category::Session, "upload-session", SpanId::NONE, |a| {
            a.set("bytes", 4u64 << 20).set("provider", "OneDrive");
        });
        tele.event(100, Category::Session, "session.error", s, |a| {
            a.set("error", "retry budget exhausted");
        });
        tele.span_end(200, s);
        let rep = board_from(&mut tele).report();
        assert_eq!(rep.rows.len(), 1);
        let r = &rep.rows[0];
        assert_eq!(r.vantage, "-");
        assert_eq!(r.provider, "OneDrive");
        assert_eq!(r.cell.attempts(), 1);
        assert_eq!(r.cell.errors(), 1);
        assert_eq!(r.cell.budget_exhausted, 1);
    }
}
