//! Exporters: deterministic JSONL, Chrome trace-event JSON (Perfetto),
//! and a plain-text span tree.
//!
//! All output is a pure function of the [`Recording`]: iteration orders
//! are explicit (time, then sequence number), floats print via Rust's
//! shortest-roundtrip formatter, and no wall-clock or environment state is
//! consulted — two runs with the same seed produce byte-identical files.

use crate::json;
use crate::telemetry::{ArgValue, Recording, SpanId};
use std::fmt::Write as _;

fn json_value(v: &ArgValue, out: &mut String) {
    match v {
        ArgValue::U64(n) => {
            let _ = write!(out, "{n}");
        }
        ArgValue::I64(n) => {
            let _ = write!(out, "{n}");
        }
        ArgValue::F64(f) => json::push_f64(out, *f),
        ArgValue::Str(s) => json::escape(s, out),
        ArgValue::Bool(b) => {
            let _ = write!(out, "{b}");
        }
    }
}

fn json_args(args: &[(&'static str, ArgValue)], out: &mut String) {
    out.push('{');
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::escape(k, out);
        out.push(':');
        json_value(v, out);
    }
    out.push('}');
}

/// One line of the JSONL log: a span's begin or end, or an event, with
/// the index of its span or event in the [`Recording`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum LineKind {
    SpanBegin,
    SpanEnd,
    Event,
}

/// The JSONL log's lines in file order: simulated time, then sequence
/// number. Span ends carry no sequence number of their own, so they sort
/// after same-instant begins and events, then by kind and index.
/// [`crate::Trace::from_recording`] walks the same order.
pub(crate) fn line_order(rec: &Recording) -> impl Iterator<Item = (LineKind, usize)> {
    let mut lines: Vec<(u64, u64, LineKind, usize)> = Vec::new();
    for (i, s) in rec.spans.iter().enumerate() {
        lines.push((s.start_ns, s.begin_seq, LineKind::SpanBegin, i));
        if let Some(end) = s.end_ns {
            lines.push((end, u64::MAX, LineKind::SpanEnd, i));
        }
    }
    for (i, e) in rec.events.iter().enumerate() {
        lines.push((e.t_ns, e.seq, LineKind::Event, i));
    }
    lines.sort_unstable();
    lines.into_iter().map(|(_, _, kind, idx)| (kind, idx))
}

/// The deterministic JSONL event log: one JSON object per line, in
/// simulated-time order (sequence numbers break ties), interleaving
/// `span_begin` / `span_end` / `event` records.
pub fn jsonl_log(rec: &Recording) -> String {
    let mut out = String::new();
    for (kind, idx) in line_order(rec) {
        match kind {
            LineKind::SpanBegin => {
                let s = &rec.spans[idx];
                let _ = write!(
                    out,
                    "{{\"type\":\"span_begin\",\"id\":{},\"parent\":{},\"t_ns\":{},\"cat\":\"{}\",\"name\":",
                    s.id.0,
                    s.parent.0,
                    s.start_ns,
                    s.cat.label()
                );
                json::escape(s.name, &mut out);
                if !s.args.is_empty() {
                    out.push_str(",\"args\":");
                    json_args(&s.args, &mut out);
                }
                out.push_str("}\n");
            }
            LineKind::SpanEnd => {
                let s = &rec.spans[idx];
                let _ = writeln!(
                    out,
                    "{{\"type\":\"span_end\",\"id\":{},\"t_ns\":{},\"dur_ns\":{}}}",
                    s.id.0,
                    s.end_ns.unwrap_or(s.start_ns),
                    s.duration_ns()
                );
            }
            LineKind::Event => {
                let e = &rec.events[idx];
                let _ = write!(
                    out,
                    "{{\"type\":\"event\",\"parent\":{},\"t_ns\":{},\"cat\":\"{}\",\"name\":",
                    e.parent.0,
                    e.t_ns,
                    e.cat.label()
                );
                json::escape(e.name, &mut out);
                if !e.args.is_empty() {
                    out.push_str(",\"args\":");
                    json_args(&e.args, &mut out);
                }
                out.push_str("}\n");
            }
        }
    }
    out
}

/// Assign each span a virtual thread ("lane") such that a span shares its
/// parent's lane whenever the parent is the lane's innermost open span —
/// giving real flame-stack nesting (session → chunk → RPC → flow) in the
/// Chrome/Perfetto timeline — and otherwise opens the lowest free lane.
fn assign_lanes(rec: &Recording) -> Vec<u64> {
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    enum Edge {
        End,
        Begin,
    }
    // (t, edge, seq, span index): ends sort before begins at equal times so
    // a back-to-back span can reuse the lane its predecessor just left.
    let mut edges: Vec<(u64, Edge, u64, usize)> = Vec::new();
    for (i, s) in rec.spans.iter().enumerate() {
        edges.push((s.start_ns, Edge::Begin, s.begin_seq, i));
        edges.push((s.end_ns.unwrap_or(u64::MAX), Edge::End, s.begin_seq, i));
    }
    edges.sort();

    let mut lanes: Vec<u64> = vec![0; rec.spans.len()];
    let mut stacks: Vec<Vec<usize>> = Vec::new(); // per-lane open-span stacks
    for (_, edge, _, i) in edges {
        match edge {
            Edge::Begin => {
                let parent = rec.spans[i].parent;
                let parent_idx = parent.0.checked_sub(1).map(|p| p as usize);
                let lane = parent_idx
                    .and_then(|p| {
                        let lane = lanes[p] as usize;
                        (stacks.get(lane).and_then(|s| s.last()) == Some(&p)).then_some(lane)
                    })
                    .unwrap_or_else(|| match stacks.iter().position(|s| s.is_empty()) {
                        Some(free) => free,
                        None => {
                            stacks.push(Vec::new());
                            stacks.len() - 1
                        }
                    });
                stacks[lane].push(i);
                lanes[i] = lane as u64;
            }
            Edge::End => {
                let lane = lanes[i] as usize;
                if let Some(pos) = stacks[lane].iter().rposition(|&s| s == i) {
                    stacks[lane].remove(pos);
                }
            }
        }
    }
    lanes
}

/// Chrome trace-event JSON (the `{"traceEvents":[...]}` object form),
/// loadable in Perfetto / `chrome://tracing`. Spans become complete (`X`)
/// events on flame-stacked virtual threads; instant events become `i`
/// events on their parent's lane; metrics appear as process metadata.
pub fn chrome_trace_json(rec: &Recording) -> String {
    let lanes = assign_lanes(rec);
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    let push_sep = |out: &mut String, first: &mut bool| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
    };

    push_sep(&mut out, &mut first);
    out.push_str(
        "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"simulated upload pipeline\"}}",
    );
    let max_lane = lanes.iter().copied().max().unwrap_or(0);
    for lane in 0..=max_lane {
        push_sep(&mut out, &mut first);
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":\"lane {}\"}}}}",
            lane, lane
        );
    }

    // Deterministic order: spans by (start, begin_seq), then events.
    let mut span_order: Vec<usize> = (0..rec.spans.len()).collect();
    span_order.sort_by_key(|&i| (rec.spans[i].start_ns, rec.spans[i].begin_seq));
    for i in span_order {
        let s = &rec.spans[i];
        push_sep(&mut out, &mut first);
        let ts_us = s.start_ns as f64 / 1000.0;
        let dur_us = s.duration_ns() as f64 / 1000.0;
        let _ = write!(
            out,
            "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{ts_us},\"dur\":{dur_us},\"cat\":\"{}\",\"name\":",
            lanes[i],
            s.cat.label()
        );
        json::escape(s.name, &mut out);
        out.push_str(",\"args\":");
        let mut args = s.args.clone();
        args.push(("span_id", ArgValue::U64(s.id.0)));
        if s.parent.is_some() {
            args.push(("parent_span", ArgValue::U64(s.parent.0)));
        }
        json_args(&args, &mut out);
        out.push('}');
    }
    for e in &rec.events {
        push_sep(&mut out, &mut first);
        let lane = e
            .parent
            .0
            .checked_sub(1)
            .and_then(|p| lanes.get(p as usize))
            .copied()
            .unwrap_or(0);
        let ts_us = e.t_ns as f64 / 1000.0;
        let _ = write!(
            out,
            "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{lane},\"ts\":{ts_us},\"cat\":\"{}\",\"name\":",
            e.cat.label()
        );
        json::escape(e.name, &mut out);
        if !e.args.is_empty() {
            out.push_str(",\"args\":");
            json_args(&e.args, &mut out);
        }
        out.push('}');
    }
    out.push_str("\n]}\n");
    out
}

/// Plain-text span tree with durations — the quick human-readable view
/// (`detour trace` prints this).
pub fn span_tree_text(rec: &Recording) -> String {
    let mut out = String::new();
    let mut roots: Vec<&crate::telemetry::SpanRecord> =
        rec.spans.iter().filter(|s| !s.parent.is_some()).collect();
    roots.sort_by_key(|s| (s.start_ns, s.begin_seq));
    for root in roots {
        tree_walk(rec, root.id, 0, &mut out);
    }
    out
}

fn tree_walk(rec: &Recording, id: SpanId, depth: usize, out: &mut String) {
    let Some(s) = rec.span(id) else {
        return;
    };
    let indent = "  ".repeat(depth);
    let dur_ms = s.duration_ns() as f64 / 1e6;
    let start_ms = s.start_ns as f64 / 1e6;
    let _ = writeln!(
        out,
        "{indent}{} [{}] +{start_ms:.1} ms, {dur_ms:.1} ms",
        s.name,
        s.cat.label()
    );
    let mut children = rec.children(id);
    children.sort_by_key(|c| (c.start_ns, c.begin_seq));
    for c in children {
        tree_walk(rec, c.id, depth + 1, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{Category, SpanId, Telemetry};

    fn sample_recording() -> Recording {
        let mut tele = Telemetry::enabled();
        let session =
            tele.span_begin_with(0, Category::Session, "upload-session", SpanId::NONE, |a| {
                a.set("bytes", 1000u64).set("provider", "GoogleDrive");
            });
        let chunk = tele.span_begin(1_000_000, Category::Chunk, "part", session);
        let rpc = tele.span_begin(1_100_000, Category::Rpc, "rpc.part", chunk);
        let flow = tele.span_begin(1_200_000, Category::Flow, "flow", rpc);
        tele.event(1_500_000, Category::Chunk, "chunk.retry", chunk, |a| {
            a.set("attempt", 1u64).set("note", "5xx \"transient\"");
        });
        tele.span_end(2_000_000, flow);
        tele.span_end(2_100_000, rpc);
        tele.span_end(2_200_000, chunk);
        // A second chunk overlapping nothing, reusing the freed lane space.
        let chunk2 = tele.span_begin(2_300_000, Category::Chunk, "part", session);
        tele.span_end(2_400_000, chunk2);
        tele.span_end(3_000_000, session);
        tele.take().unwrap()
    }

    #[test]
    fn jsonl_is_deterministic_and_ordered() {
        let a = jsonl_log(&sample_recording());
        let b = jsonl_log(&sample_recording());
        assert_eq!(a, b);
        let lines: Vec<&str> = a.lines().collect();
        assert!(lines[0].contains("\"type\":\"span_begin\""));
        assert!(lines[0].contains("\"name\":\"upload-session\""));
        // Timestamps never decrease down the file.
        let mut last_t = 0u64;
        for line in &lines {
            let t = line
                .split("\"t_ns\":")
                .nth(1)
                .and_then(|rest| rest.split([',', '}']).next())
                .and_then(|v| v.parse::<u64>().ok())
                .expect("every line carries t_ns");
            assert!(t >= last_t, "out of order: {line}");
            last_t = t;
        }
        // Escaped quotes survive.
        assert!(a.contains("5xx \\\"transient\\\""));
    }

    #[test]
    fn chrome_trace_nests_the_pipeline_on_one_lane() {
        let rec = sample_recording();
        let lanes = assign_lanes(&rec);
        // session, chunk, rpc, flow all stack on lane 0.
        assert_eq!(&lanes[..4], &[0, 0, 0, 0]);
        // chunk2 begins after chunk1 ended: nests under the session again.
        assert_eq!(lanes[4], 0);
        let json = chrome_trace_json(&rec);
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"parent_span\":1"));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), rec.spans.len());
    }

    #[test]
    fn overlapping_siblings_get_distinct_lanes() {
        let mut tele = Telemetry::enabled();
        let root = tele.span_begin(0, Category::Session, "s", SpanId::NONE);
        let a = tele.span_begin(10, Category::Chunk, "a", root);
        let b = tele.span_begin(20, Category::Chunk, "b", root);
        tele.span_end(30, a);
        tele.span_end(40, b);
        tele.span_end(50, root);
        let rec = tele.take().unwrap();
        let lanes = assign_lanes(&rec);
        // First child stacks on the root's lane; the overlapping sibling
        // must move to its own lane.
        assert_eq!(lanes[0], 0);
        assert_eq!(lanes[1], 0);
        assert_ne!(lanes[2], 0);
    }

    #[test]
    fn span_tree_renders_hierarchy() {
        let text = span_tree_text(&sample_recording());
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("upload-session [session]"));
        assert!(lines[1].starts_with("  part [chunk]"));
        assert!(lines[2].starts_with("    rpc.part [rpc]"));
        assert!(lines[3].starts_with("      flow [flow]"));
    }
}
