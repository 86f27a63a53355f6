//! Post-hoc trace analytics: critical paths, retry waterfalls and top-k
//! slowest spans.
//!
//! [`analyze`] consumes a parsed [`Trace`] (live or recorded) and
//! produces the `detour analyze` report: for every root span the
//! **critical path** (the chain of largest-duration children — where the
//! time actually went), the **retry waterfall** (every `chunk.retry` and
//! `chunk.throttled` event in time order with its backoff or throttle
//! wait), and the top-k slowest spans overall. Output is deterministic and
//! renders as both an aligned text report and canonical JSON for golden
//! snapshots and CI artifacts.

use crate::json;
use crate::trace::Trace;
use std::fmt::Write as _;

/// One hop on a critical path.
#[derive(Debug, Clone)]
pub struct PathStep {
    /// Span name.
    pub name: String,
    /// Category label.
    pub cat: String,
    /// Begin time, ns.
    pub start_ns: u64,
    /// Duration, ns.
    pub duration_ns: u64,
    /// Depth below the root (root = 0).
    pub depth: usize,
}

/// The critical path of one root span (session/job).
#[derive(Debug, Clone)]
pub struct CriticalPath {
    /// Steps from the root downward, following the slowest child at
    /// every level (ties break toward the earlier, then first-begun span).
    pub steps: Vec<PathStep>,
}

/// One entry of the retry waterfall.
#[derive(Debug, Clone)]
pub struct RetryStep {
    /// Event time, ns.
    pub t_ns: u64,
    /// `"chunk.retry"` or `"chunk.throttled"`.
    pub name: String,
    /// Name of the span the event happened under ("-" for roots).
    pub under: String,
    /// Retry attempt number, when recorded.
    pub attempt: Option<u64>,
    /// Backoff or throttle wait in ms, when recorded.
    pub wait_ms: Option<f64>,
}

/// One of the top-k slowest spans.
#[derive(Debug, Clone)]
pub struct SlowSpan {
    /// Span name.
    pub name: String,
    /// Category label.
    pub cat: String,
    /// Begin time, ns.
    pub start_ns: u64,
    /// Duration, ns.
    pub duration_ns: u64,
}

/// The full `detour analyze` report.
#[derive(Debug, Clone)]
pub struct AnalyzeReport {
    /// Critical path per root span, in root begin order.
    pub sessions: Vec<CriticalPath>,
    /// Retry/throttle waterfall in time order.
    pub retries: Vec<RetryStep>,
    /// Top-k spans by duration, descending (ties toward earlier spans).
    pub slowest: Vec<SlowSpan>,
}

/// Analyze a trace; `top_k` bounds the slowest-span list.
pub fn analyze(trace: &Trace, top_k: usize) -> AnalyzeReport {
    // Children indices per span, in begin order (trace order).
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); trace.spans.len()];
    let mut roots: Vec<usize> = Vec::new();
    for (i, s) in trace.spans.iter().enumerate() {
        match s.parent {
            Some(p) if p < trace.spans.len() => children[p].push(i),
            _ => roots.push(i),
        }
    }

    let mut sessions = Vec::with_capacity(roots.len());
    for &root in &roots {
        let mut steps = Vec::new();
        let mut cur = root;
        let mut depth = 0usize;
        loop {
            let s = &trace.spans[cur];
            steps.push(PathStep {
                name: s.name.clone(),
                cat: s.cat.clone(),
                start_ns: s.start_ns,
                duration_ns: s.duration_ns(),
                depth,
            });
            // Slowest child wins; ties go to the earlier start, then the
            // earlier begin (lower index) — fully deterministic.
            let next = children[cur].iter().copied().max_by(|&a, &b| {
                let (sa, sb) = (&trace.spans[a], &trace.spans[b]);
                sa.duration_ns()
                    .cmp(&sb.duration_ns())
                    .then(sb.start_ns.cmp(&sa.start_ns))
                    .then(b.cmp(&a))
            });
            match next {
                Some(n) => {
                    cur = n;
                    depth += 1;
                }
                None => break,
            }
        }
        sessions.push(CriticalPath { steps });
    }

    // The events the waterfall reads; tests/metric_names.rs checks that a
    // user path records each one.
    let retries = trace
        .events
        .iter()
        .filter(|e| e.name == "chunk.retry" || e.name == "chunk.throttled")
        .map(|e| RetryStep {
            t_ns: e.t_ns,
            name: e.name.clone(),
            under: e
                .parent
                .and_then(|p| trace.spans.get(p))
                .map(|s| s.name.clone())
                .unwrap_or_else(|| "-".to_string()),
            attempt: e.arg("attempt").and_then(|v| v.as_u64()),
            wait_ms: e
                .arg("backoff_ms")
                .or_else(|| e.arg("wait_ms"))
                .and_then(|v| v.as_f64()),
        })
        .collect();

    let mut order: Vec<usize> = (0..trace.spans.len()).collect();
    order.sort_by(|&a, &b| {
        let (sa, sb) = (&trace.spans[a], &trace.spans[b]);
        sb.duration_ns()
            .cmp(&sa.duration_ns())
            .then(sa.start_ns.cmp(&sb.start_ns))
            .then(a.cmp(&b))
    });
    let slowest = order
        .into_iter()
        .take(top_k)
        .map(|i| {
            let s = &trace.spans[i];
            SlowSpan {
                name: s.name.clone(),
                cat: s.cat.clone(),
                start_ns: s.start_ns,
                duration_ns: s.duration_ns(),
            }
        })
        .collect();

    AnalyzeReport {
        sessions,
        retries,
        slowest,
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

impl AnalyzeReport {
    /// Aligned human-readable report.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "critical paths ({} roots):", self.sessions.len());
        for cp in &self.sessions {
            for step in &cp.steps {
                let indent = "  ".repeat(step.depth + 1);
                let _ = writeln!(
                    out,
                    "{indent}{} [{}] +{:.1} ms, {:.1} ms",
                    step.name,
                    step.cat,
                    ms(step.start_ns),
                    ms(step.duration_ns)
                );
            }
        }
        let _ = writeln!(out, "\nretry waterfall ({} steps):", self.retries.len());
        for r in &self.retries {
            let attempt = r
                .attempt
                .map(|a| format!(" attempt {a}"))
                .unwrap_or_default();
            let wait = r
                .wait_ms
                .map(|w| format!(" wait {w} ms"))
                .unwrap_or_default();
            let _ = writeln!(
                out,
                "  +{:>9.1} ms  {:<15} under {}{}{}",
                ms(r.t_ns),
                r.name,
                r.under,
                attempt,
                wait
            );
        }
        let _ = writeln!(out, "\nslowest spans (top {}):", self.slowest.len());
        for s in &self.slowest {
            let _ = writeln!(
                out,
                "  {:<20} [{}] +{:.1} ms, {:.1} ms",
                s.name,
                s.cat,
                ms(s.start_ns),
                ms(s.duration_ns)
            );
        }
        out
    }

    /// Canonical JSON rendering.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"sessions\":[");
        for (i, cp) in self.sessions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"steps\":[");
            for (j, step) in cp.steps.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str("{\"name\":");
                json::escape(&step.name, &mut out);
                let _ = write!(
                    out,
                    ",\"cat\":\"{}\",\"start_ns\":{},\"duration_ns\":{},\"depth\":{}}}",
                    step.cat, step.start_ns, step.duration_ns, step.depth
                );
            }
            out.push_str("]}");
        }
        out.push_str("],\"retries\":[");
        for (i, r) in self.retries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"t_ns\":{},\"name\":", r.t_ns);
            json::escape(&r.name, &mut out);
            out.push_str(",\"under\":");
            json::escape(&r.under, &mut out);
            let attempt = r.attempt.map_or_else(|| "null".into(), |a| a.to_string());
            let _ = write!(out, ",\"attempt\":{attempt},\"wait_ms\":");
            match r.wait_ms {
                Some(w) => json::push_f64(&mut out, w),
                None => out.push_str("null"),
            }
            out.push('}');
        }
        out.push_str("],\"slowest\":[");
        for (i, s) in self.slowest.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            json::escape(&s.name, &mut out);
            let _ = write!(
                out,
                ",\"cat\":\"{}\",\"start_ns\":{},\"duration_ns\":{}}}",
                s.cat, s.start_ns, s.duration_ns
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

    fn sample_trace() -> Trace {
        let mut tele = Telemetry::enabled();
        let job = tele.span_begin(0, Category::Control, "job", SpanId::NONE);
        let sess = tele.span_begin(1_000_000, Category::Session, "upload-session", job);
        let fast = tele.span_begin(2_000_000, Category::Chunk, "part", sess);
        tele.span_end(3_000_000, fast);
        let slow = tele.span_begin(3_000_000, Category::Chunk, "part", sess);
        // Waits are f64 milliseconds, as cloudstore's sessions record them.
        tele.event(4_000_000, Category::Chunk, "chunk.retry", slow, |a| {
            a.set("attempt", 1u64).set("backoff_ms", 419.594719);
        });
        tele.event(5_000_000, Category::Chunk, "chunk.throttled", slow, |a| {
            a.set("wait_ms", 2000.0);
        });
        tele.span_end(9_000_000, slow);
        tele.span_end(10_000_000, sess);
        tele.span_end(10_500_000, job);
        Trace::from_recording(&tele.take().unwrap())
    }

    #[test]
    fn critical_path_follows_the_slowest_child() {
        let rep = analyze(&sample_trace(), 3);
        assert_eq!(rep.sessions.len(), 1);
        let names: Vec<&str> = rep.sessions[0]
            .steps
            .iter()
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(names, ["job", "upload-session", "part"]);
        // The chosen "part" is the slow one (6 ms), not the fast one (1 ms).
        assert_eq!(rep.sessions[0].steps[2].duration_ns, 6_000_000);
        assert_eq!(rep.sessions[0].steps[2].depth, 2);
    }

    #[test]
    fn retry_waterfall_is_time_ordered_with_fractional_waits() {
        let rep = analyze(&sample_trace(), 3);
        assert_eq!(rep.retries.len(), 2);
        assert!(rep.retries[0].t_ns <= rep.retries[1].t_ns);
        assert_eq!(rep.retries[0].attempt, Some(1));
        assert_eq!(rep.retries[0].wait_ms, Some(419.594719));
        assert_eq!(rep.retries[1].wait_ms, Some(2000.0));
        assert_eq!(rep.retries[0].under, "part");
        let text = rep.to_text();
        assert!(text.contains("attempt 1 wait 419.594719 ms"), "{text}");
        assert!(text.contains("wait 2000 ms"), "{text}");
        let json = rep.to_json();
        assert!(
            json.contains("\"attempt\":1,\"wait_ms\":419.594719}"),
            "{json}"
        );
        assert!(
            json.contains("\"attempt\":null,\"wait_ms\":2000}"),
            "{json}"
        );
    }

    #[test]
    fn slowest_spans_are_ranked_and_bounded() {
        let rep = analyze(&sample_trace(), 2);
        assert_eq!(rep.slowest.len(), 2);
        assert_eq!(rep.slowest[0].name, "job");
        assert!(rep.slowest[0].duration_ns >= rep.slowest[1].duration_ns);
    }

    #[test]
    fn renders_are_deterministic() {
        let a = analyze(&sample_trace(), 5);
        let b = analyze(&sample_trace(), 5);
        assert_eq!(a.to_text(), b.to_text());
        assert_eq!(a.to_json(), b.to_json());
        assert!(a.to_text().contains("critical paths"));
        assert!(a.to_json().starts_with("{\"sessions\":["));
    }
}
