//! Host-time spans around every call the benchmark makes into a layer.
//!
//! Spans are recorded into an [`obs::Telemetry`] with host-nanosecond
//! timestamps (the same recorder the simulator uses for sim-time spans), so
//! the traced run exports through [`obs::chrome_trace_json`] and opens in
//! Perfetto. A disabled [`Tracer`] reads no clock and records nothing.
//!
//! Span names start with the crate whose public API the wrapped call enters
//! (`netsim.`, `simcheck.`, ...); the benchmark's own spans are [`OP`] (one
//! op, tagged with its op id) and `bench.*`.

use crate::estimate::{windowed_min_median, SETUP_WINDOWS};
use obs::{ArgValue, Category, Recording, SpanId, SpanRecord, Telemetry};
use std::collections::BTreeMap;
use std::time::Instant;

/// Name of the span covering one op.
pub const OP: &str = "op";

/// Span-name prefixes that denote a timed layer (crate names).
const LAYERS: [&str; 9] = [
    "netsim.",
    "cloudstore.",
    "relay.",
    "transfer.",
    "detour-core.",
    "scenarios.",
    "simcheck.",
    "obs.",
    "routeplane.",
];

/// Does this span time a call into one of the program's layers?
pub fn is_layer(name: &str) -> bool {
    LAYERS.iter().any(|p| name.starts_with(p))
}

/// Records host-time spans with parent links and op ids.
pub struct Tracer {
    tele: Telemetry,
    origin: Instant,
    stack: Vec<SpanId>,
    op: Option<u64>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or does nothing.
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Tracer {
            tele: if enabled {
                Telemetry::enabled()
            } else {
                Telemetry::disabled()
            },
            origin,
            stack: Vec::new(),
            op: None,
        }
    }

    /// Is this tracer recording?
    pub fn enabled(&self) -> bool {
        self.tele.is_enabled()
    }

    /// Host nanoseconds since the run's origin.
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Tag spans begun from now on with op id `op` (`None` for set-up and
    /// run-wide spans).
    pub fn set_op(&mut self, op: Option<u64>) {
        self.op = op;
    }

    /// Begin a span at `t_ns` under the innermost open span.
    pub fn begin_at(&mut self, name: &'static str, t_ns: u64) -> SpanId {
        if !self.enabled() {
            return SpanId::NONE;
        }
        let parent = self.stack.last().copied().unwrap_or(SpanId::NONE);
        let op = self.op;
        let id = self
            .tele
            .span_begin_with(t_ns, Category::Control, name, parent, |a| {
                if let Some(op) = op {
                    a.set("op", op);
                }
            });
        self.stack.push(id);
        id
    }

    /// Begin a span now.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled() {
            return SpanId::NONE;
        }
        let t = self.now_ns();
        self.begin_at(name, t)
    }

    /// End the innermost open span `id` at `t_ns`.
    pub fn end_at(&mut self, id: SpanId, t_ns: u64) {
        if !self.enabled() {
            return;
        }
        assert_eq!(self.stack.pop(), Some(id), "spans must nest");
        self.tele.span_end(t_ns, id);
    }

    /// End the innermost open span `id` now.
    pub fn end(&mut self, id: SpanId) {
        if !self.enabled() {
            return;
        }
        let t = self.now_ns();
        self.end_at(id, t);
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.begin(name);
        let out = f(self);
        self.end(id);
        out
    }

    /// Hand over everything recorded so far and start a fresh recording.
    pub fn take(&mut self) -> Recording {
        assert!(self.stack.is_empty(), "take() with open spans");
        let rec = self.tele.take().unwrap_or_default();
        if self.enabled() {
            self.tele = Telemetry::enabled();
        }
        rec
    }
}

/// Self time of a span over `[start, end]`: its duration minus the part of
/// it its children's intervals cover (overlaps between children count
/// once; child time outside the parent does not count).
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    (end - start) - overlap(&union(children), start, end)
}

/// Union of intervals as sorted, disjoint, non-empty intervals.
pub fn union(intervals: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut sorted: Vec<(u64, u64)> = intervals.iter().copied().filter(|&(s, e)| s < e).collect();
    sorted.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(sorted.len());
    for (s, e) in sorted {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// Length of `[start, end]` covered by a [`union`].
pub fn overlap(merged: &[(u64, u64)], start: u64, end: u64) -> u64 {
    let first = merged.partition_point(|&(_, e)| e <= start);
    merged[first..]
        .iter()
        .take_while(|&&(s, _)| s < end)
        .map(|&(s, e)| e.min(end) - s.max(start))
        .sum()
}

fn interval(s: &SpanRecord) -> (u64, u64) {
    (
        s.start_ns,
        s.end_ns.expect("every benchmark span is closed"),
    )
}

fn op_of(s: &SpanRecord) -> Option<usize> {
    s.args.iter().find_map(|(k, v)| match (k, v) {
        (&"op", ArgValue::U64(op)) => Some(*op as usize),
        _ => None,
    })
}

/// One span position within an op, at its fastest repeat.
#[derive(Debug, Clone)]
struct Slot {
    name: &'static str,
    duration: f64,
    self_time: f64,
}

/// Folds traced batches into per-layer figures.
///
/// Spans tagged with an op id keep, per (op, position-in-op), the fastest
/// duration and self time over all batches — the same fastest-repeat rule
/// as the end-to-end figures. Untagged spans (set-up, run-wide) keep their
/// mean duration per batch for the windowed set-up estimator.
#[derive(Debug, Default)]
pub struct LayerStats {
    ops: Vec<Vec<Slot>>,
    loose: BTreeMap<&'static str, Vec<f64>>,
    covered_ns: u64,
    op_ns: u64,
    batches: u32,
}

impl LayerStats {
    /// Fold one batch's recording.
    pub fn fold(&mut self, rec: &Recording) {
        self.batches += 1;
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); rec.spans.len()];
        for s in &rec.spans {
            if let Some(p) = s.parent.0.checked_sub(1) {
                children[p as usize].push(interval(s));
            }
        }
        let layer_spans = union(
            &rec.spans
                .iter()
                .filter(|s| is_layer(s.name))
                .map(interval)
                .collect::<Vec<_>>(),
        );
        let mut position: BTreeMap<usize, usize> = BTreeMap::new();
        let mut loose: BTreeMap<&'static str, (f64, u32)> = BTreeMap::new();
        for (i, s) in rec.spans.iter().enumerate() {
            let (start, end) = interval(s);
            let duration = (end - start) as f64;
            let Some(op) = op_of(s) else {
                let (sum, n) = loose.entry(s.name).or_default();
                *sum += duration;
                *n += 1;
                continue;
            };
            if s.name == OP {
                self.op_ns += end - start;
                self.covered_ns += overlap(&layer_spans, start, end);
            }
            let self_ns = self_time(start, end, &children[i]) as f64;
            if self.ops.len() <= op {
                self.ops.resize(op + 1, Vec::new());
            }
            let pos = position.entry(op).or_insert(0);
            let slots = &mut self.ops[op];
            match slots.get_mut(*pos) {
                Some(slot) => {
                    assert_eq!(slot.name, s.name, "op {op} changed shape between batches");
                    slot.duration = slot.duration.min(duration);
                    slot.self_time = slot.self_time.min(self_ns);
                }
                None => slots.push(Slot {
                    name: s.name,
                    duration,
                    self_time: self_ns,
                }),
            }
            *pos += 1;
        }
        for (name, (sum, n)) in loose {
            self.loose.entry(name).or_default().push(sum / n as f64);
        }
    }

    /// Traced batches folded.
    pub fn batches(&self) -> u32 {
        self.batches
    }

    fn slots<'a>(&'a self, name: &'a str) -> impl Iterator<Item = (usize, &'a Slot)> + 'a {
        self.ops.iter().enumerate().flat_map(move |(op, slots)| {
            slots
                .iter()
                .filter(move |s| s.name == name)
                .map(move |s| (op, s))
        })
    }

    /// Mean fastest duration per call of `name`, nanoseconds (0 when the
    /// workload never makes that call).
    pub fn mean_ns(&self, name: &str) -> f64 {
        let (n, sum) = self
            .slots(name)
            .fold((0usize, 0.0), |(n, sum), (_, s)| (n + 1, sum + s.duration));
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Sum over all ops of the fastest duration of every call of `name`,
    /// nanoseconds: one batch's time in that call at its fastest repeats.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.slots(name).map(|(_, s)| s.duration).sum()
    }

    /// Fastest duration of op `op`'s [`OP`] span, nanoseconds (0 when the
    /// op was never traced).
    pub fn op_ns(&self, op: usize) -> f64 {
        self.ops
            .get(op)
            .and_then(|slots| slots.iter().find(|s| s.name == OP))
            .map_or(0.0, |s| s.duration)
    }

    /// Sum over all ops of the fastest self time of `name`, nanoseconds.
    pub fn total_self_ns(&self, name: &str) -> f64 {
        self.slots(name).map(|(_, s)| s.self_time).sum()
    }

    /// Self time per span name over all ops, nanoseconds, largest first.
    pub fn self_by_name(&self) -> Vec<(&'static str, f64)> {
        let mut by: BTreeMap<&'static str, f64> = BTreeMap::new();
        for slots in &self.ops {
            for s in slots {
                *by.entry(s.name).or_default() += s.self_time;
            }
        }
        let mut v: Vec<_> = by.into_iter().collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1));
        v
    }

    /// Windowed set-up estimate over the batches' mean duration of the
    /// untagged spans named `name`, nanoseconds (0 when there are none).
    pub fn setup_ns(&self, name: &str) -> f64 {
        self.loose
            .get(name)
            .map_or(0.0, |d| windowed_min_median(d, SETUP_WINDOWS))
    }

    /// Share of op time that layer spans cover (raw, over every traced op).
    pub fn coverage(&self) -> f64 {
        if self.op_ns == 0 {
            0.0
        } else {
            self.covered_ns as f64 / self.op_ns as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // Parent 0..100 with a child 10..60 that itself has a child: only
        // direct children are passed, so the grandchild never counts twice.
        assert_eq!(self_time(0, 100, &[(10, 60)]), 50);
        // Overlapping children (a child and a span nested in it, both
        // passed) are covered once.
        assert_eq!(self_time(0, 100, &[(10, 60), (20, 30)]), 50);
        assert_eq!(self_time(0, 100, &[(10, 60), (50, 70)]), 40);
    }

    #[test]
    fn self_time_with_back_to_back_children() {
        assert_eq!(self_time(0, 100, &[(0, 25), (25, 50), (50, 100)]), 0);
        assert_eq!(self_time(0, 100, &[(10, 20), (20, 30), (40, 50)]), 70);
    }

    #[test]
    fn self_time_with_zero_length_children() {
        assert_eq!(self_time(0, 100, &[(40, 40)]), 100);
        assert_eq!(self_time(0, 100, &[(0, 0), (100, 100), (30, 30)]), 100);
        assert_eq!(self_time(5, 5, &[(5, 5)]), 0);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        assert_eq!(self_time(10, 20, &[(0, 15)]), 5);
        assert_eq!(self_time(10, 20, &[(18, 40)]), 8);
        assert_eq!(self_time(10, 20, &[(30, 40)]), 10);
    }

    #[test]
    fn fold_keeps_fastest_repeat_per_position_and_coverage() {
        let origin = Instant::now();
        let mut stats = LayerStats::default();
        for (batch, scale) in [(0u64, 2u64), (1, 1)] {
            let mut t = Tracer::new(true, origin);
            let base = batch * 1_000;
            t.set_op(None);
            let s = t.begin_at("scenarios.world_build", base);
            t.end_at(s, base + 7 * scale);
            t.set_op(Some(0));
            let op = t.begin_at(OP, base + 10);
            let a = t.begin_at("scenarios.build_sim", base + 10);
            t.end_at(a, base + 10 + 20 * scale);
            let b = t.begin_at("cloudstore.direct_job", base + 10 + 20 * scale);
            t.end_at(b, base + 10 + 90 * scale);
            t.end_at(op, base + 10 + 100 * scale);
            stats.fold(&t.take());
        }
        assert_eq!(stats.batches(), 2);
        assert_eq!(stats.mean_ns("scenarios.build_sim"), 20.0);
        assert_eq!(stats.mean_ns("cloudstore.direct_job"), 70.0);
        assert_eq!(stats.mean_ns(OP), 100.0);
        assert_eq!(stats.total_self_ns(OP), 10.0);
        assert_eq!(stats.mean_ns("relay.detour_job"), 0.0);
        assert_eq!(stats.setup_ns("scenarios.world_build"), 10.5);
        // 90 of every 100 op nanoseconds sit inside layer spans.
        assert!((stats.coverage() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let id = t.begin("netsim.run_process");
        assert_eq!(id, SpanId::NONE);
        t.end(id);
        assert_eq!(t.span("x", |_| 3), 3);
        assert!(t.take().spans.is_empty());
    }
}
