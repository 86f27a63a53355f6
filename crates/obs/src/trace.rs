//! Parsing recorded JSONL traces back into a structured [`Trace`].
//!
//! The JSONL exporter ([`crate::export::jsonl_log`]) is the recording
//! format of the health plane: `detour health --record` appends one
//! exported log per run, and this module parses those files back —
//! including **concatenations of several runs** — into spans and events
//! that `health`/`analyze` consume. Span ids in the JSONL are
//! segment-local (each run restarts at 1), so the parser keeps a live
//! `segment id → global index` map that is simply overwritten whenever an
//! id is re-begun; a multi-run file therefore parses without any framing.
//!
//! Live and recorded paths converge: [`Trace::from_recording`] builds the
//! trace straight from the in-memory [`Recording`], walking the exporter's
//! line order and mapping every value the way its JSONL text parses back,
//! so it equals `parse_jsonl(&jsonl_log(rec))` without writing or parsing
//! a byte. A scoreboard built from a live run is therefore identical to one
//! built from the file that run recorded. The equality is not free by
//! construction; `simcheck` checks it on every checked case, and the tests
//! here check it on hand-built recordings.
//!
//! Errors are typed and actionable: every [`TraceError`] carries the
//! source path, the 1-based line number where parsing failed, and a
//! remediation hint (see [`TraceError::hint`]).

use crate::export::{line_order, LineKind};
use crate::json::{Json, JsonError, JsonErrorKind};
use crate::telemetry::{ArgValue, Recording, SpanId};
use std::collections::HashMap;
use std::fmt;
use std::path::Path;

/// A JSON value from a trace line, with integers kept exact.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceValue {
    /// Unsigned integer.
    U64(u64),
    /// Negative integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Text.
    Str(String),
    /// Boolean.
    Bool(bool),
    /// JSON null (also used for nested containers, which traces don't emit).
    Null,
}

impl TraceValue {
    /// The value as a `u64` if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            TraceValue::U64(v) => Some(*v),
            TraceValue::I64(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as text.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            TraceValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// One span reconstructed from a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpan {
    /// Global index of the parent span in [`Trace::spans`], if any.
    pub parent: Option<usize>,
    /// Category label ("control", "session", ...).
    pub cat: String,
    /// Span name ("job", "upload-session", "part", ...).
    pub name: String,
    /// Simulated begin time, nanoseconds.
    pub start_ns: u64,
    /// Simulated end time; `None` when the trace ends with the span open.
    pub end_ns: Option<u64>,
    /// Attached arguments, in recorded order.
    pub args: Vec<(String, TraceValue)>,
}

impl TraceSpan {
    /// Span duration; open spans report zero.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns
            .unwrap_or(self.start_ns)
            .saturating_sub(self.start_ns)
    }

    /// Look up an argument by key.
    pub fn arg(&self, key: &str) -> Option<&TraceValue> {
        self.args.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// One instant event reconstructed from a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Global index of the parent span in [`Trace::spans`], if any.
    pub parent: Option<usize>,
    /// Category label.
    pub cat: String,
    /// Event name ("chunk.retry", "failover.switched", ...).
    pub name: String,
    /// Simulated time, nanoseconds.
    pub t_ns: u64,
    /// Attached arguments, in recorded order.
    pub args: Vec<(String, TraceValue)>,
}

impl TraceEvent {
    /// Look up an argument by key.
    pub fn arg(&self, key: &str) -> Option<&TraceValue> {
        self.args.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// A parsed trace: spans and events in file order, with parent links
/// resolved to global span indices (stable across run concatenation).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// All spans, in begin order.
    pub spans: Vec<TraceSpan>,
    /// All events, in file order.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// The trace of a live [`Recording`]: equal to parsing its JSONL export,
    /// `parse_jsonl(&jsonl_log(rec), _)`, which is what makes `detour
    /// health` reproduce the same scoreboard from a run and from its
    /// recording. Spans and events come in the exporter's line order, and
    /// a parent resolves only if its span began on an earlier line.
    /// Argument values map as their JSON text reads back: a non-negative
    /// `I64` and an integral `F64` that prints as a `u64` become `U64`, a
    /// negative integral `F64` that prints as an `i64` becomes `I64`, and
    /// a non-finite `F64` becomes `Null`.
    pub fn from_recording(rec: &Recording) -> Trace {
        let mut trace = Trace::default();
        let mut id_map: HashMap<u64, usize> = HashMap::new();
        let parent_of = |id: SpanId, id_map: &HashMap<u64, usize>| {
            id.is_some().then(|| id_map.get(&id.0).copied()).flatten()
        };
        for (kind, idx) in line_order(rec) {
            match kind {
                LineKind::SpanBegin => {
                    let s = &rec.spans[idx];
                    trace.spans.push(TraceSpan {
                        parent: parent_of(s.parent, &id_map),
                        cat: s.cat.label().to_string(),
                        name: s.name.to_string(),
                        start_ns: s.start_ns,
                        end_ns: None,
                        args: trace_args(&s.args),
                    });
                    id_map.insert(s.id.0, trace.spans.len() - 1);
                }
                LineKind::SpanEnd => {
                    let s = &rec.spans[idx];
                    // Only a span that ends before it starts has its end
                    // line first; the parser rejects that, and it is
                    // skipped here.
                    if let Some(&i) = id_map.get(&s.id.0) {
                        trace.spans[i].end_ns = s.end_ns;
                    }
                }
                LineKind::Event => {
                    let e = &rec.events[idx];
                    trace.events.push(TraceEvent {
                        parent: parent_of(e.parent, &id_map),
                        cat: e.cat.label().to_string(),
                        name: e.name.to_string(),
                        t_ns: e.t_ns,
                        args: trace_args(&e.args),
                    });
                }
            }
        }
        trace
    }

    /// Walk parent links from `idx` (exclusive) up to the root.
    pub fn ancestors(&self, idx: usize) -> impl Iterator<Item = usize> + '_ {
        let mut cur = self.spans.get(idx).and_then(|s| s.parent);
        std::iter::from_fn(move || {
            let here = cur?;
            cur = self.spans.get(here).and_then(|s| s.parent);
            Some(here)
        })
    }

    /// Largest timestamp anywhere in the trace (span begin/end or event).
    pub fn end_ns(&self) -> u64 {
        let spans = self
            .spans
            .iter()
            .map(|s| s.end_ns.unwrap_or(s.start_ns))
            .max()
            .unwrap_or(0);
        let events = self.events.iter().map(|e| e.t_ns).max().unwrap_or(0);
        spans.max(events)
    }
}

/// What went wrong while reading a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceErrorKind {
    /// The file could not be read at all (io error text attached).
    Unreadable(String),
    /// The file exists but contains no trace lines.
    Empty,
    /// A line is not valid JSON (or not a JSON object).
    BadJson(JsonError),
    /// The final line stops mid-record — the classic partial-write tail.
    Truncated,
    /// A record lacks a required field.
    MissingField(&'static str),
    /// A field has the wrong type or an out-of-range value.
    BadField(&'static str),
    /// A record's `type` is not one of span_begin/span_end/event.
    UnknownType(String),
    /// A span_end refers to a span this file never began.
    DanglingSpanEnd(u64),
}

/// A typed, actionable trace-reading error: source file, 1-based line
/// number (when the failure is tied to a line), what went wrong, and a
/// remediation hint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError {
    /// Path (or `<live>` / `<stdin>`) the trace came from.
    pub source: String,
    /// 1-based line where parsing failed, if line-scoped.
    pub line: Option<usize>,
    /// The failure.
    pub kind: TraceErrorKind,
}

impl TraceError {
    /// A one-line remediation hint for the user.
    pub fn hint(&self) -> &'static str {
        match &self.kind {
            TraceErrorKind::Unreadable(_) => {
                "check the path; record a trace with `detour trace --format jsonl --out FILE` \
                 or `detour health --record FILE`"
            }
            TraceErrorKind::Empty => {
                "the file has no trace lines; re-record with `detour trace --format jsonl --out FILE`"
            }
            TraceErrorKind::BadJson(_) => {
                "the line is not trace JSONL; make sure the file was written by \
                 `detour trace --format jsonl` (not the chrome/table format)"
            }
            TraceErrorKind::Truncated => {
                "the last line stops mid-record (interrupted write); drop the partial \
                 last line or re-record the trace"
            }
            TraceErrorKind::MissingField(_) | TraceErrorKind::BadField(_) => {
                "the record does not match the trace schema; re-record with a current \
                 `detour` binary instead of hand-editing"
            }
            TraceErrorKind::UnknownType(_) => {
                "only span_begin/span_end/event records are valid; make sure this is a \
                 trace JSONL file, not some other log"
            }
            TraceErrorKind::DanglingSpanEnd(_) => {
                "the file ends a span it never began — it may be missing its start; \
                 use the complete recording"
            }
        }
    }
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            Some(line) => write!(f, "{}:{}: ", self.source, line)?,
            None => write!(f, "{}: ", self.source)?,
        }
        match &self.kind {
            TraceErrorKind::Unreadable(io) => write!(f, "cannot read trace ({io})")?,
            TraceErrorKind::Empty => write!(f, "empty trace")?,
            TraceErrorKind::BadJson(e) => {
                write!(f, "invalid JSON ({} at byte {})", e.kind, e.offset)?
            }
            TraceErrorKind::Truncated => write!(f, "truncated trace: last line is incomplete")?,
            TraceErrorKind::MissingField(k) => write!(f, "missing field \"{k}\"")?,
            TraceErrorKind::BadField(k) => write!(f, "field \"{k}\" has the wrong type or range")?,
            TraceErrorKind::UnknownType(t) => write!(f, "unknown record type \"{t}\"")?,
            TraceErrorKind::DanglingSpanEnd(id) => {
                write!(f, "span_end for span {id} that was never begun")?
            }
        }
        write!(f, "\n  hint: {}", self.hint())
    }
}

impl std::error::Error for TraceError {}

/// Read and parse a trace file, mapping io failures and empty files to
/// typed errors.
pub fn load_trace(path: &Path) -> Result<Trace, TraceError> {
    let source = path.display().to_string();
    let text = std::fs::read_to_string(path).map_err(|e| TraceError {
        source: source.clone(),
        line: None,
        kind: TraceErrorKind::Unreadable(e.to_string()),
    })?;
    parse_jsonl(&text, &source)
}

/// Parse trace JSONL text. `source` labels errors (a path, `<live>`, ...).
pub fn parse_jsonl(text: &str, source: &str) -> Result<Trace, TraceError> {
    let mut trace = Trace::default();
    // Live segment-local id → global span index; overwritten when a later
    // run (in a concatenated file) reuses the id.
    let mut id_map: HashMap<u64, usize> = HashMap::new();
    let mut saw_line = false;
    let mut lines = text.lines().enumerate().peekable();
    while let Some((i, raw)) = lines.next() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        saw_line = true;
        let folded = match Json::parse(line) {
            Ok(Json::Obj(fields)) => fold_record(fields, &mut trace, &mut id_map),
            Ok(_) => Err(TraceErrorKind::BadJson(JsonError {
                kind: JsonErrorKind::Unexpected(line.chars().next().unwrap_or(' ')),
                offset: 0,
                line: 1,
            })),
            Err(e) if e.is_eof() && lines.peek().is_none() => Err(TraceErrorKind::Truncated),
            Err(e) => Err(TraceErrorKind::BadJson(e)),
        };
        folded.map_err(|kind| TraceError {
            source: source.to_string(),
            line: Some(i + 1),
            kind,
        })?;
    }
    if !saw_line {
        return Err(TraceError {
            source: source.to_string(),
            line: None,
            kind: TraceErrorKind::Empty,
        });
    }
    Ok(trace)
}

/// Fold one trace record into `trace`. Fields are moved out of the parsed
/// object (the first of duplicate keys wins), so no string is copied.
fn fold_record(
    mut fields: Vec<(String, Json)>,
    trace: &mut Trace,
    id_map: &mut HashMap<u64, usize>,
) -> Result<(), TraceErrorKind> {
    let mut take = |key: &str| {
        fields
            .iter_mut()
            .find(|(k, _)| k == key)
            .map(|(_, v)| std::mem::replace(v, Json::Null))
    };
    // Parents outside this file (e.g. a tail of a bigger trace) simply
    // become roots rather than errors.
    let parent_of = |id: u64| (id != 0).then(|| id_map.get(&id).copied()).flatten();
    match str_field(take("type"), "type")?.as_str() {
        "span_begin" => {
            let id = u64_field(take("id"), "id")?;
            let parent = parent_of(u64_field(take("parent"), "parent")?);
            let args = args_field(take("args"))?;
            trace.spans.push(TraceSpan {
                parent,
                cat: str_field(take("cat"), "cat")?,
                name: str_field(take("name"), "name")?,
                start_ns: u64_field(take("t_ns"), "t_ns")?,
                end_ns: None,
                args,
            });
            id_map.insert(id, trace.spans.len() - 1);
        }
        "span_end" => {
            let id = u64_field(take("id"), "id")?;
            let t = u64_field(take("t_ns"), "t_ns")?;
            match id_map.get(&id) {
                Some(&idx) => trace.spans[idx].end_ns = Some(t),
                None => return Err(TraceErrorKind::DanglingSpanEnd(id)),
            }
        }
        "event" => {
            let parent = parent_of(u64_field(take("parent"), "parent")?);
            let args = args_field(take("args"))?;
            trace.events.push(TraceEvent {
                parent,
                cat: str_field(take("cat"), "cat")?,
                name: str_field(take("name"), "name")?,
                t_ns: u64_field(take("t_ns"), "t_ns")?,
                args,
            });
        }
        other => return Err(TraceErrorKind::UnknownType(other.to_string())),
    }
    Ok(())
}

fn u64_field(v: Option<Json>, key: &'static str) -> Result<u64, TraceErrorKind> {
    match v {
        Some(Json::Int(n)) => Ok(n),
        Some(_) => Err(TraceErrorKind::BadField(key)),
        None => Err(TraceErrorKind::MissingField(key)),
    }
}

fn str_field(v: Option<Json>, key: &'static str) -> Result<String, TraceErrorKind> {
    match v {
        Some(Json::Str(s)) => Ok(s),
        Some(_) => Err(TraceErrorKind::BadField(key)),
        None => Err(TraceErrorKind::MissingField(key)),
    }
}

fn args_field(v: Option<Json>) -> Result<Vec<(String, TraceValue)>, TraceErrorKind> {
    match v {
        Some(Json::Obj(kv)) => Ok(kv.into_iter().map(|(k, v)| (k, json_value(v))).collect()),
        Some(_) => Err(TraceErrorKind::BadField("args")),
        None => Ok(Vec::new()),
    }
}

fn json_value(v: Json) -> TraceValue {
    match v {
        Json::Int(n) => TraceValue::U64(n),
        Json::NegInt(n) => TraceValue::I64(n),
        Json::Num(f) => TraceValue::F64(f),
        Json::Str(s) => TraceValue::Str(s),
        Json::Bool(b) => TraceValue::Bool(b),
        Json::Null | Json::Arr(_) | Json::Obj(_) => TraceValue::Null,
    }
}

fn trace_args(args: &[(&'static str, ArgValue)]) -> Vec<(String, TraceValue)> {
    args.iter()
        .map(|(k, v)| (k.to_string(), arg_value(v)))
        .collect()
}

/// What an argument reads back as from its JSONL text. The exporter prints
/// a float in Rust's shortest round-trip form, which has no exponent, so an
/// integral float prints as an integer and the parser keeps it exact when
/// it fits a `u64` or a negative `i64`. Below 2^53 that integer is the
/// float's own value; above, the shortest form may round it, so the text
/// is parsed as the reader would.
fn arg_value(v: &ArgValue) -> TraceValue {
    const EXACT: f64 = (1u64 << 53) as f64;
    match *v {
        ArgValue::U64(n) => TraceValue::U64(n),
        ArgValue::I64(n) => u64::try_from(n).map_or(TraceValue::I64(n), TraceValue::U64),
        ArgValue::F64(f) if !f.is_finite() => TraceValue::Null,
        // "-0" parses as the float -0.0, not as an integer.
        ArgValue::F64(f) if f.fract() != 0.0 || (f == 0.0 && f.is_sign_negative()) => {
            TraceValue::F64(f)
        }
        ArgValue::F64(f) if (0.0..EXACT).contains(&f) => TraceValue::U64(f as u64),
        ArgValue::F64(f) if (-EXACT..0.0).contains(&f) => TraceValue::I64(f as i64),
        ArgValue::F64(f) => {
            json_value(Json::parse(&f.to_string()).expect("a finite float prints as JSON"))
        }
        ArgValue::Str(ref s) => TraceValue::Str(s.clone()),
        ArgValue::Bool(b) => TraceValue::Bool(b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::jsonl_log;
    use crate::telemetry::{Category, Telemetry};

    fn sample_recording() -> Recording {
        let mut tele = Telemetry::enabled();
        let job = tele.span_begin_with(0, Category::Control, "job", SpanId::NONE, |a| {
            a.set("route", "via UAlberta").set("bytes", 1_000u64);
        });
        let sess = tele.span_begin(1_000, Category::Session, "upload-session", job);
        tele.event(1_500, Category::Chunk, "chunk.retry", sess, |a| {
            a.set("attempt", 1u64).set("backoff_ms", 40u64);
        });
        tele.span_end(9_000, sess);
        tele.span_end(10_000, job);
        tele.take().unwrap()
    }

    #[test]
    fn round_trip_preserves_structure() {
        let rec = sample_recording();
        let trace = Trace::from_recording(&rec);
        assert_eq!(trace.spans.len(), 2);
        assert_eq!(trace.events.len(), 1);
        assert_eq!(trace.spans[0].name, "job");
        assert_eq!(trace.spans[1].parent, Some(0));
        assert_eq!(trace.spans[1].end_ns, Some(9_000));
        assert_eq!(
            trace.spans[0].arg("route").and_then(|v| v.as_str()),
            Some("via UAlberta")
        );
        assert_eq!(trace.events[0].parent, Some(1));
        assert_eq!(
            trace.events[0].arg("attempt").and_then(|v| v.as_u64()),
            Some(1)
        );
        assert_eq!(trace.end_ns(), 10_000);
        assert_eq!(trace.ancestors(1).collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn concatenated_runs_remap_segment_ids() {
        let one = jsonl_log(&sample_recording());
        let both = format!("{one}{one}");
        let trace = parse_jsonl(&both, "<test>").unwrap();
        assert_eq!(trace.spans.len(), 4);
        assert_eq!(trace.events.len(), 2);
        // Second run's session span parents into the second job span.
        assert_eq!(trace.spans[3].parent, Some(2));
        assert_eq!(trace.events[1].parent, Some(3));
    }

    #[test]
    fn truncated_tail_is_reported_with_line_and_hint() {
        let full = jsonl_log(&sample_recording());
        let cut = &full[..full.len() - 25];
        let e = parse_jsonl(cut, "trace.jsonl").unwrap_err();
        assert_eq!(e.kind, TraceErrorKind::Truncated);
        assert_eq!(e.line, Some(cut.lines().count()));
        let msg = e.to_string();
        assert!(msg.contains("trace.jsonl:"), "{msg}");
        assert!(msg.contains("hint:"), "{msg}");
    }

    #[test]
    fn garbage_line_is_bad_json_with_line_number() {
        let full = jsonl_log(&sample_recording());
        let mangled = format!("not json at all\n{full}");
        let e = parse_jsonl(&mangled, "x.jsonl").unwrap_err();
        assert!(matches!(e.kind, TraceErrorKind::BadJson(_)), "{:?}", e.kind);
        assert_eq!(e.line, Some(1));
    }

    #[test]
    fn empty_input_is_typed() {
        let e = parse_jsonl("", "empty.jsonl").unwrap_err();
        assert_eq!(e.kind, TraceErrorKind::Empty);
        assert!(e.to_string().contains("re-record"));
    }

    #[test]
    fn foreign_records_are_rejected() {
        let e = parse_jsonl(r#"{"type":"metric","name":"x"}"#, "y.jsonl").unwrap_err();
        assert_eq!(e.kind, TraceErrorKind::UnknownType("metric".into()));
        let e = parse_jsonl(r#"{"type":"span_begin","id":1}"#, "y.jsonl").unwrap_err();
        assert!(matches!(e.kind, TraceErrorKind::MissingField(_)));
        let e = parse_jsonl(
            r#"{"type":"span_end","id":9,"t_ns":1,"dur_ns":0}"#,
            "y.jsonl",
        )
        .unwrap_err();
        assert_eq!(e.kind, TraceErrorKind::DanglingSpanEnd(9));
    }

    #[test]
    fn missing_file_is_unreadable_with_hint() {
        let e = load_trace(Path::new("/nonexistent/definitely/not/here.jsonl")).unwrap_err();
        assert!(matches!(e.kind, TraceErrorKind::Unreadable(_)));
        assert!(e.to_string().contains("detour trace"));
    }

    /// The direct builder and the JSONL round trip agree bit for bit
    /// (Debug tells -0.0 from 0.0 where `==` does not).
    fn assert_round_trip(rec: &Recording) -> Trace {
        let direct = Trace::from_recording(rec);
        let parsed = parse_jsonl(&jsonl_log(rec), "<test>").unwrap();
        assert_eq!(direct, parsed);
        assert_eq!(format!("{direct:?}"), format!("{parsed:?}"));
        direct
    }

    #[test]
    fn direct_trace_equals_the_jsonl_round_trip() {
        assert_round_trip(&sample_recording());
        let mut tele = Telemetry::enabled();
        let root = tele.span_begin_with(10, Category::Control, "job", SpanId::NONE, |a| {
            a.set("whole", 3.0f64)
                .set("neg_whole", -2.0f64)
                .set("neg_zero", -0.0f64)
                .set("pos_zero", 0.0f64)
                .set("frac", -1.25f64)
                .set("big", 1e19f64)
                .set("bigger", 1e20f64)
                .set("neg_big", -9_223_372_036_854_775_808.0f64)
                .set("nan", f64::NAN)
                .set("inf", f64::INFINITY)
                .set("ninf", f64::NEG_INFINITY)
                .set("i", -5i64)
                .set("i_pos", 5i64)
                .set("i_min", i64::MIN)
                .set("u", u64::MAX)
                .set("yes", true)
                .set("text", "q\"b\\s\n\r\t\u{0}\u{1f}\u{7f} é — 🚀");
        });
        // Same instant as the root's begin: a child, an event and a
        // zero-length span, ordered by sequence number then kind.
        let child = tele.span_begin(10, Category::Session, "child", root);
        tele.event(10, Category::Chunk, "tick", child, |a| {
            a.set("attempt", 1u64);
        });
        let blip = tele.span_begin(10, Category::Rpc, "blip", child);
        tele.span_end(10, blip);
        tele.event(10, Category::Chunk, "after-end", blip, |_| {});
        // A span and an event stamped before their parent began: the
        // parent's line comes later, so neither resolves it.
        let early = tele.span_begin(5, Category::Flow, "early", child);
        tele.event(4, Category::Flow, "earlier", root, |_| {});
        tele.span_end(7, early);
        tele.span_end(20, child);
        // Left open: no span_end line, no end time.
        let open = tele.span_begin(30, Category::Relay, "open", root);
        tele.event(31, Category::Relay, "inside-open", open, |_| {});
        // A parent that was never recorded.
        tele.event(32, Category::Control, "orphan", SpanId(99), |_| {});
        let trace = assert_round_trip(&tele.take().unwrap());

        let names: Vec<&str> = trace.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["early", "job", "child", "blip", "open"]);
        assert_eq!(trace.spans[0].parent, None);
        assert_eq!(trace.spans[2].parent, Some(1));
        assert_eq!(trace.spans[4].end_ns, None);
        let events: Vec<(&str, Option<usize>)> = trace
            .events
            .iter()
            .map(|e| (e.name.as_str(), e.parent))
            .collect();
        assert_eq!(
            events,
            [
                ("earlier", None),
                ("tick", Some(2)),
                ("after-end", Some(3)),
                ("inside-open", Some(4)),
                ("orphan", None),
            ]
        );
        let job = &trace.spans[1];
        assert_eq!(job.arg("whole"), Some(&TraceValue::U64(3)));
        assert_eq!(job.arg("neg_whole"), Some(&TraceValue::I64(-2)));
        assert!(matches!(job.arg("neg_zero"), Some(TraceValue::F64(z)) if z.is_sign_negative()));
        assert_eq!(job.arg("pos_zero"), Some(&TraceValue::U64(0)));
        assert_eq!(
            job.arg("big"),
            Some(&TraceValue::U64(10_000_000_000_000_000_000))
        );
        assert_eq!(job.arg("bigger"), Some(&TraceValue::F64(1e20)));
        assert_eq!(
            job.arg("neg_big"),
            Some(&TraceValue::F64(-9.223372036854776e18))
        );
        assert_eq!(job.arg("i_pos"), Some(&TraceValue::U64(5)));
        for k in ["nan", "inf", "ninf"] {
            assert_eq!(job.arg(k), Some(&TraceValue::Null), "{k}");
        }
    }

    #[test]
    fn escapes_and_unicode_round_trip() {
        let mut tele = Telemetry::enabled();
        let s = tele.span_begin_with(0, Category::Session, "s", SpanId::NONE, |a| {
            a.set("note", "5xx \"transient\"\n\ttab — dash");
        });
        tele.span_end(1, s);
        let trace = Trace::from_recording(&tele.take().unwrap());
        assert_eq!(
            trace.spans[0].arg("note").and_then(|v| v.as_str()),
            Some("5xx \"transient\"\n\ttab — dash")
        );
    }
}
