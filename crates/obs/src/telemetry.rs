//! Sim-time span/event recording with a zero-overhead disabled path.
//!
//! [`Telemetry`] is either disabled (`inner: None`, the default — every
//! call returns after one branch and never allocates) or carries a
//! recorder accumulating [`SpanRecord`]s and [`EventRecord`]s. Argument
//! lists are built by closures that are only invoked when recording is on,
//! so call sites pay nothing for formatting when telemetry is off.
//!
//! All timestamps are **simulated nanoseconds**. Span and event identity
//! comes from monotonic sequence counters, so a recording is a pure
//! function of the instrumented program's behavior — byte-identical
//! exports for byte-identical runs.

use crate::metrics::MetricsRegistry;
use crate::window::{WindowFlush, WindowSet};

/// Identifies a live or finished span. `SpanId::NONE` (0) means "no span":
/// it is what the disabled sink returns and the root parent marker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The null span: no parent / telemetry disabled.
    pub const NONE: SpanId = SpanId(0);

    /// True when this id refers to an actual recorded span.
    pub fn is_some(self) -> bool {
        self.0 != 0
    }
}

/// Coarse classification of spans and events; drives Perfetto track
/// grouping and lets tools filter one layer of the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Category {
    /// Campaign / job / selector decisions and route probes (detour-core).
    Control,
    /// A whole upload/download session (cloudstore).
    Session,
    /// One chunk (part) of a session, across its retries (cloudstore).
    Chunk,
    /// One request/response exchange (netsim::rpc).
    Rpc,
    /// One simulated flow (netsim::engine).
    Flow,
    /// DTN relay activity: rsync legs, staging buffer (relay).
    Relay,
}

impl Category {
    /// Stable lowercase label used by every exporter.
    pub fn label(self) -> &'static str {
        match self {
            Category::Control => "control",
            Category::Session => "session",
            Category::Chunk => "chunk",
            Category::Rpc => "rpc",
            Category::Flow => "flow",
            Category::Relay => "relay",
        }
    }
}

/// One argument value attached to a span or event.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Text.
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}
impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::U64(v as u64)
    }
}
impl From<u32> for ArgValue {
    fn from(v: u32) -> Self {
        ArgValue::U64(v as u64)
    }
}
impl From<i64> for ArgValue {
    fn from(v: i64) -> Self {
        ArgValue::I64(v)
    }
}
impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}
impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_string())
    }
}
impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}
impl From<bool> for ArgValue {
    fn from(v: bool) -> Self {
        ArgValue::Bool(v)
    }
}

/// Argument collector handed to recording closures.
#[derive(Debug, Default)]
pub struct Args {
    pub(crate) kv: Vec<(&'static str, ArgValue)>,
}

impl Args {
    /// Attach one key/value pair.
    pub fn set(&mut self, key: &'static str, value: impl Into<ArgValue>) -> &mut Self {
        self.kv.push((key, value.into()));
        self
    }
}

/// A finished (or still-open) span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// This span's id (index + 1 into the span table).
    pub id: SpanId,
    /// Enclosing span, or [`SpanId::NONE`] for roots.
    pub parent: SpanId,
    /// Layer.
    pub cat: Category,
    /// Short stable name ("upload-session", "part", "rpc.auth", ...).
    pub name: &'static str,
    /// Simulated begin time, nanoseconds.
    pub start_ns: u64,
    /// Simulated end time; `None` when the run finished with the span open.
    pub end_ns: Option<u64>,
    /// Sequence number of the begin (global order tiebreaker).
    pub begin_seq: u64,
    /// Attached arguments.
    pub args: Vec<(&'static str, ArgValue)>,
}

impl SpanRecord {
    /// Span duration; open spans report zero.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns
            .unwrap_or(self.start_ns)
            .saturating_sub(self.start_ns)
    }
}

/// A point-in-time event.
#[derive(Debug, Clone)]
pub struct EventRecord {
    /// Simulated time, nanoseconds.
    pub t_ns: u64,
    /// Enclosing span, or [`SpanId::NONE`].
    pub parent: SpanId,
    /// Layer.
    pub cat: Category,
    /// Short stable name ("chunk.retry", "flow.rate", ...).
    pub name: &'static str,
    /// Sequence number (global order tiebreaker).
    pub seq: u64,
    /// Attached arguments.
    pub args: Vec<(&'static str, ArgValue)>,
}

/// Everything a run recorded: the span table, the event stream, and the
/// metrics registry. Produced by [`Telemetry::take`].
#[derive(Debug, Default)]
pub struct Recording {
    /// All spans, in begin order.
    pub spans: Vec<SpanRecord>,
    /// All instant events, in record order.
    pub events: Vec<EventRecord>,
    /// Metrics accumulated during the run.
    pub metrics: MetricsRegistry,
    /// Closed sim-time windows, in flush order (watermark-driven; the
    /// final open windows are flushed by [`Telemetry::take`]).
    pub window_flushes: Vec<WindowFlush>,
}

impl Recording {
    /// The span with the given id.
    pub fn span(&self, id: SpanId) -> Option<&SpanRecord> {
        id.0.checked_sub(1).and_then(|i| self.spans.get(i as usize))
    }

    /// Walk up the parent chain from `id` (exclusive) to the root.
    pub fn ancestors(&self, id: SpanId) -> Vec<&SpanRecord> {
        let mut out = Vec::new();
        let mut cur = self.span(id).map(|s| s.parent).unwrap_or(SpanId::NONE);
        while let Some(s) = self.span(cur) {
            out.push(s);
            cur = s.parent;
        }
        out
    }

    /// Direct children of `id` in begin order.
    pub fn children(&self, id: SpanId) -> Vec<&SpanRecord> {
        self.spans.iter().filter(|s| s.parent == id).collect()
    }
}

#[derive(Debug, Default)]
struct Recorder {
    recording: Recording,
    seq: u64,
    windows: WindowSet,
}

/// The instrumentation handle. Cheap to embed (one pointer); disabled by
/// default. Every recording method is a no-op behind a single `Option`
/// check while disabled, including never invoking argument closures.
#[derive(Debug, Default)]
pub struct Telemetry {
    inner: Option<Box<Recorder>>,
}

impl Telemetry {
    /// A disabled handle: records nothing, costs one branch per call.
    pub const fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// An enabled handle with an empty recording.
    pub fn enabled() -> Self {
        Telemetry {
            inner: Some(Box::default()),
        }
    }

    /// Whether calls record anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Begin a span. Returns [`SpanId::NONE`] when disabled.
    #[inline]
    pub fn span_begin(
        &mut self,
        t_ns: u64,
        cat: Category,
        name: &'static str,
        parent: SpanId,
    ) -> SpanId {
        self.span_begin_with(t_ns, cat, name, parent, |_| {})
    }

    /// Begin a span with arguments; the closure only runs when enabled.
    #[inline]
    pub fn span_begin_with(
        &mut self,
        t_ns: u64,
        cat: Category,
        name: &'static str,
        parent: SpanId,
        fill: impl FnOnce(&mut Args),
    ) -> SpanId {
        let Some(rec) = self.inner.as_deref_mut() else {
            return SpanId::NONE;
        };
        let mut args = Args::default();
        fill(&mut args);
        let id = SpanId(rec.recording.spans.len() as u64 + 1);
        let begin_seq = rec.seq;
        rec.seq += 1;
        rec.recording.spans.push(SpanRecord {
            id,
            parent,
            cat,
            name,
            start_ns: t_ns,
            end_ns: None,
            begin_seq,
            args: args.kv,
        });
        id
    }

    /// End a span begun by [`Telemetry::span_begin`]. Ignores
    /// [`SpanId::NONE`], so call sites need no disabled-path branching.
    #[inline]
    pub fn span_end(&mut self, t_ns: u64, span: SpanId) {
        let Some(rec) = self.inner.as_deref_mut() else {
            return;
        };
        let Some(idx) = span.0.checked_sub(1) else {
            return;
        };
        if let Some(s) = rec.recording.spans.get_mut(idx as usize) {
            debug_assert!(s.end_ns.is_none(), "span {span:?} ended twice");
            debug_assert!(s.start_ns <= t_ns, "span {span:?} ends before it starts");
            s.end_ns = Some(t_ns);
            rec.seq += 1;
        }
    }

    /// Record an instant event; the argument closure only runs when enabled.
    #[inline]
    pub fn event(
        &mut self,
        t_ns: u64,
        cat: Category,
        name: &'static str,
        parent: SpanId,
        fill: impl FnOnce(&mut Args),
    ) {
        let Some(rec) = self.inner.as_deref_mut() else {
            return;
        };
        let mut args = Args::default();
        fill(&mut args);
        let seq = rec.seq;
        rec.seq += 1;
        rec.recording.events.push(EventRecord {
            t_ns,
            parent,
            cat,
            name,
            seq,
            args: args.kv,
        });
    }

    /// Add to a counter (static name).
    #[inline]
    pub fn counter_add(&mut self, name: &'static str, delta: u64) {
        if let Some(rec) = self.inner.as_deref_mut() {
            rec.recording.metrics.counter_add(name, delta);
        }
    }

    /// Add to a counter whose name is built lazily (e.g. per-provider
    /// totals); the closure only runs when enabled.
    #[inline]
    pub fn counter_add_dyn(&mut self, name: impl FnOnce() -> String, delta: u64) {
        if let Some(rec) = self.inner.as_deref_mut() {
            rec.recording.metrics.counter_add_owned(name(), delta);
        }
    }

    /// Set a gauge to a value.
    #[inline]
    pub fn gauge_set(&mut self, name: &'static str, value: f64) {
        if let Some(rec) = self.inner.as_deref_mut() {
            rec.recording.metrics.gauge_set(name, value);
        }
    }

    /// Record a histogram sample.
    #[inline]
    pub fn hist_record(&mut self, name: &'static str, value: u64) {
        if let Some(rec) = self.inner.as_deref_mut() {
            rec.recording.metrics.hist_record(name, value);
        }
    }

    /// Add `delta` to the windowed counter series `name` at sim time `t_ns`.
    /// Windows are tumbling sim-time buckets; see [`crate::window`].
    #[inline]
    pub fn window_count(&mut self, t_ns: u64, name: &'static str, delta: u64) {
        if let Some(rec) = self.inner.as_deref_mut() {
            rec.windows.count(t_ns, name, delta);
        }
    }

    /// Record a sample into the windowed sketch series `name` at `t_ns`.
    #[inline]
    pub fn window_record(&mut self, t_ns: u64, name: &'static str, value: u64) {
        if let Some(rec) = self.inner.as_deref_mut() {
            rec.windows.record(t_ns, name, value);
        }
    }

    /// Advance the window watermark to sim time `t_ns`, flushing idle
    /// series whose open windows now lie entirely in the past. The engine
    /// calls this from its clock advance.
    #[inline]
    pub fn advance_watermark(&mut self, t_ns: u64) {
        if let Some(rec) = self.inner.as_deref_mut() {
            rec.windows.advance_watermark(t_ns);
        }
    }

    /// Take the recording out, leaving the handle disabled.
    /// Returns `None` when telemetry was never enabled.
    pub fn take(&mut self) -> Option<Recording> {
        self.inner.take().map(|mut r| {
            r.windows.flush_all();
            r.recording.window_flushes = r.windows.take_flushes();
            r.recording
        })
    }

    /// Read-only view of the recording while the run is still in progress.
    pub fn recording(&self) -> Option<&Recording> {
        self.inner.as_deref().map(|r| &r.recording)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_is_inert_and_never_calls_closures() {
        let mut tele = Telemetry::disabled();
        let span = tele.span_begin_with(5, Category::Session, "s", SpanId::NONE, |_| {
            panic!("closure must not run while disabled");
        });
        assert_eq!(span, SpanId::NONE);
        tele.event(6, Category::Flow, "e", span, |_| {
            panic!("closure must not run while disabled");
        });
        tele.counter_add_dyn(|| panic!("name closure must not run while disabled"), 1);
        tele.span_end(7, span);
        assert!(tele.take().is_none());
    }

    #[test]
    fn spans_nest_and_survive_take() {
        let mut tele = Telemetry::enabled();
        let root = tele.span_begin(0, Category::Session, "session", SpanId::NONE);
        let child = tele.span_begin_with(10, Category::Chunk, "part", root, |a| {
            a.set("index", 0u64).set("bytes", 1234u64);
        });
        tele.event(15, Category::Chunk, "chunk.retry", child, |a| {
            a.set("attempt", 1u64);
        });
        tele.span_end(20, child);
        tele.span_end(30, root);
        let rec = tele.take().expect("enabled recording");
        assert!(!tele.is_enabled(), "take() leaves the handle disabled");
        assert_eq!(rec.spans.len(), 2);
        assert_eq!(rec.events.len(), 1);
        let child_rec = rec.span(child).unwrap();
        assert_eq!(child_rec.parent, root);
        assert_eq!(child_rec.duration_ns(), 10);
        assert_eq!(rec.ancestors(child).len(), 1);
        assert_eq!(rec.children(root).len(), 1);
        assert_eq!(child_rec.args[0], ("index", ArgValue::U64(0)));
    }

    #[test]
    fn take_drains_open_windows() {
        const S: u64 = crate::window::DEFAULT_WINDOW_NS;
        let mut tele = Telemetry::enabled();
        tele.window_count(10, "a.count", 2);
        tele.window_record(20, "a.lat", 500);
        tele.window_count(S + S / 2, "a.count", 1); // flushes window [0, 1 s)
        let rec = tele.take().unwrap();
        // First flush from the boundary crossing, then the two open
        // windows drained by take() in name order.
        assert_eq!(rec.window_flushes.len(), 3);
        assert_eq!(rec.window_flushes[0].name, "a.count");
        assert_eq!(rec.window_flushes[0].end_ns, S);
        assert_eq!(rec.window_flushes[1].name, "a.count");
        assert_eq!(rec.window_flushes[2].name, "a.lat");
    }

    #[test]
    fn windows_are_inert_while_disabled() {
        let mut tele = Telemetry::disabled();
        tele.window_count(10, "a", 1);
        tele.window_record(10, "b", 1);
        tele.advance_watermark(1 << 40);
        assert!(tele.take().is_none());
    }

    #[test]
    fn sequence_numbers_are_strictly_increasing() {
        let mut tele = Telemetry::enabled();
        let a = tele.span_begin(0, Category::Flow, "a", SpanId::NONE);
        tele.event(1, Category::Flow, "x", a, |_| {});
        tele.event(1, Category::Flow, "y", a, |_| {});
        let rec = tele.recording().unwrap();
        assert!(rec.events[0].seq < rec.events[1].seq);
    }
}
