//! Route-health scoreboard with SLO burn-rate verdicts.
//!
//! [`HealthBoard`] folds a parsed [`Trace`] (live or recorded — see
//! [`Trace::from_recording`]) into per-cell health state keyed by
//! **(vantage, provider, size-class)**, the unit of the paper's detour
//! argument. An attempt is a `job` span, or an `upload-session` span no
//! job encloses; it fails when a `job.error` or `session.error` event
//! hangs directly under it. Each cell carries a mergeable
//! [`QuantileSketch`] of successful transfer times plus the resilience
//! counters of the sessions under its attempts: `chunk.throttled` and
//! `chunk.retry` events, and `session.error`s that name an exhausted retry
//! budget or a deadline. Root-level `monitor.probe` events count toward
//! the board's probe total.
//!
//! SLO evaluation follows the multi-window burn-rate discipline: the
//! error rate over a short (60 s) and a long (600 s) window, measured back
//! from the end of the trace in sim time, is divided by a 5% error budget
//! to get a burn rate; a cell is **burning** when both windows reach the
//! page threshold (6), **warn** when the long window reaches the warn
//! threshold (1) or p99 transfer time drifts past its target, **ok**
//! otherwise. Only the p99 target is settable (`detour health
//! --slo-p99-secs`).
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

/// Default p99 successful-transfer-time target, sim nanoseconds (120 s).
pub const DEFAULT_SLO_P99_NS: u64 = 120_000_000_000;
/// Fraction of attempts allowed to fail (error budget).
const ERROR_BUDGET: f64 = 0.05;
/// Short burn window, sim nanoseconds.
const SHORT_WINDOW_NS: u64 = 60_000_000_000;
/// Long burn window, sim nanoseconds.
const LONG_WINDOW_NS: u64 = 600_000_000_000;
/// Long-window burn rate at which a cell turns warn.
const WARN_BURN: f64 = 1.0;
/// Burn rate both windows must reach for burning.
const PAGE_BURN: f64 = 6.0;

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
    /// Retry budget exhaustions.
    pub budget_exhausted: u64,
    /// Deadline exceeded terminations.
    pub deadline_exceeded: u64,
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

    fn burn_rate(&self, window_ns: u64, end_ns: u64) -> f64 {
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
        if attempts == 0 {
            return 0.0;
        }
        (errors as f64 / attempts as f64) / ERROR_BUDGET
    }
}

/// The scoreboard: cells, probe volume, and the p99 target they are
/// judged against.
#[derive(Debug)]
pub struct HealthBoard {
    p99_ns: u64,
    cells: BTreeMap<(String, String, &'static str), CellHealth>,
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
    /// p99 target the rows were judged against, sim nanoseconds.
    pub slo_p99_ns: u64,
    /// Evaluated cells, sorted by (vantage, provider, size).
    pub rows: Vec<HealthRow>,
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
    /// A board judging p99 transfer times against `p99_ns` (sim
    /// nanoseconds; [`DEFAULT_SLO_P99_NS`] unless the user sets one).
    pub fn new(p99_ns: u64) -> Self {
        HealthBoard {
            p99_ns,
            cells: BTreeMap::new(),
            probes: 0,
            end_ns: 0,
        }
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
            let is_attempt_root =
                s.name == "job" || (inherited.is_none() && s.name == "upload-session");
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

        // The events the board reads; tests/metric_names.rs checks that a
        // user path records each one. Resilience events count toward the
        // cell of the attempt they happened under and are dropped outside
        // any attempt.
        for e in &trace.events {
            let bump: fn(&mut CellHealth) = match e.name.as_str() {
                "chunk.throttled" => |c| c.throttles += 1,
                "chunk.retry" => |c| c.retries += 1,
                "session.error" => {
                    let text = e.arg("error").and_then(|v| v.as_str()).unwrap_or("");
                    if text.contains("deadline") {
                        |c| c.deadline_exceeded += 1
                    } else if text.contains("budget") || text.contains("retry") {
                        |c| c.budget_exhausted += 1
                    } else {
                        continue;
                    }
                }
                "monitor.probe" => {
                    self.probes += 1;
                    continue;
                }
                _ => continue,
            };
            if let Some(j) = e.parent.and_then(|p| owner.get(p).copied().flatten()) {
                bump(
                    self.cells
                        .entry(span_cell_key(&trace.spans[j]))
                        .or_default(),
                );
            }
        }
    }

    /// Evaluate every cell against the SLO.
    pub fn report(&self) -> HealthReport {
        let mut rows = Vec::with_capacity(self.cells.len());
        for ((vantage, provider, size), cell) in &self.cells {
            let p99 = cell.transfer_ns.quantile(0.99);
            let latency = match p99 {
                None => Verdict::Ok,
                Some(p) if p <= self.p99_ns => Verdict::Ok,
                Some(p) if p <= self.p99_ns + self.p99_ns / 4 => Verdict::Warn,
                Some(_) => Verdict::Burning,
            };
            let burn_short = cell.burn_rate(SHORT_WINDOW_NS, self.end_ns);
            let burn_long = cell.burn_rate(LONG_WINDOW_NS, self.end_ns);
            let errors = if burn_short >= PAGE_BURN && burn_long >= PAGE_BURN {
                Verdict::Burning
            } else if burn_long >= WARN_BURN {
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
            slo_p99_ns: self.p99_ns,
            rows,
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
                cell.budget_exhausted,
                cell.deadline_exceeded,
            ] {
                f(v);
            }
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
            self.slo_p99_ns as f64 / 1e9,
            ERROR_BUDGET * 100.0,
            SHORT_WINDOW_NS / 1_000_000_000,
            LONG_WINDOW_NS / 1_000_000_000,
            WARN_BURN,
            PAGE_BURN,
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
            "{:<vw$}  {:<pw$}  size     att  err     p50_ms    p99_ms  thr rty  burn_s burn_l  verdict",
            "vantage", "provider"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:<vw$}  {:<pw$}  {:<6}  {:>4} {:>4}  {:>9} {:>9}  {:>3} {:>3}  {:>6.2} {:>6.2}  {}",
                r.vantage,
                r.provider,
                r.size,
                r.cell.attempts(),
                r.cell.errors(),
                fmt_ms(r.p50_ns),
                fmt_ms(r.p99_ns),
                r.cell.throttles,
                r.cell.retries,
                r.burn_short,
                r.burn_long,
                r.overall.label(),
            );
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
            self.slo_p99_ns, ERROR_BUDGET, SHORT_WINDOW_NS, LONG_WINDOW_NS, WARN_BURN, PAGE_BURN
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
                 \"throttles\":{},\"retries\":{},\"budget_exhausted\":{},\
                 \"deadline_exceeded\":{},\"burn_short\":{},\"burn_long\":{},\
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
                r.cell.budget_exhausted,
                r.cell.deadline_exceeded,
                r.burn_short,
                r.burn_long,
                r.latency.label(),
                r.errors.label(),
                r.overall.label(),
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
        let mut b = HealthBoard::new(DEFAULT_SLO_P99_NS);
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
        let mut tele = Telemetry::enabled();
        job(&mut tele, 0, true, "UBC", "Google Drive", 1 << 20);
        let rec = tele.take().unwrap();
        let mut b = HealthBoard::new(500_000_000);
        b.ingest(&Trace::from_recording(&rec));
        let rep = b.report();
        assert_eq!(rep.rows[0].latency, Verdict::Burning);
    }

    #[test]
    fn root_events_count_probes_and_join_no_cell() {
        let mut tele = Telemetry::enabled();
        tele.event(8, Category::Control, "monitor.probe", SpanId::NONE, |a| {
            a.set("route", 1u64);
        });
        // Outside any attempt a resilience event has no cell, whatever
        // args it carries.
        tele.event(9, Category::Chunk, "chunk.retry", SpanId::NONE, |a| {
            a.set("vantage", "UBC")
                .set("provider", "Dropbox")
                .set("bytes", 1u64 << 20);
        });
        let rep = board_from(&mut tele).report();
        assert_eq!(rep.probes, 1);
        assert!(rep.rows.is_empty());
    }

    #[test]
    fn multi_trace_ingest_is_order_independent() {
        let mk = |ok: bool| {
            let mut tele = Telemetry::enabled();
            job(&mut tele, 0, ok, "UBC", "Google Drive", 1 << 20);
            Trace::from_recording(&tele.take().unwrap())
        };
        let (a, b) = (mk(true), mk(false));
        let mut x = HealthBoard::new(DEFAULT_SLO_P99_NS);
        x.ingest(&a);
        x.ingest(&b);
        let mut y = HealthBoard::new(DEFAULT_SLO_P99_NS);
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
