//! Sim-time tumbling windows with watermark-driven flush.
//!
//! A [`WindowSet`] maintains named series of windowed aggregates — counters
//! ([`WindowValue::Count`]) and quantile sketches ([`WindowValue::Sketch`])
//! — bucketed into fixed-width **tumbling windows of simulated time**. No
//! wall clock appears anywhere: window boundaries are pure functions of the
//! sim-time nanosecond timestamps the engine already stamps on every record.
//!
//! Flush discipline is watermark-driven, mirroring streaming systems:
//!
//! * Recording into a series whose open window has ended flushes that
//!   window immediately and opens the new one (records arrive in
//!   nondecreasing sim time, so nothing is ever late).
//! * [`WindowSet::advance_watermark`] — called by the engine whenever the
//!   sim clock advances — flushes any *idle* series whose open window now
//!   lies entirely behind the watermark, in name order, so a series that
//!   stops receiving records still emits its final window deterministically.
//! * [`WindowSet::flush_all`] drains everything at end of run.
//!
//! Flushed windows accumulate as [`WindowFlush`] records ordered by
//! (flush-trigger time, series name); identical seeds produce identical
//! flush sequences, which simcheck folds into its chain digest.

use crate::sketch::QuantileSketch;
use std::collections::BTreeMap;

/// Default tumbling-window width: one simulated second.
pub const DEFAULT_WINDOW_NS: u64 = 1_000_000_000;

/// The aggregate carried by one flushed window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WindowValue {
    /// Sum of deltas recorded in the window.
    Count(u64),
    /// Quantile sketch of samples recorded in the window.
    Sketch(QuantileSketch),
}

/// One closed window of one series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowFlush {
    /// Series name (static, dotted — same scheme as metric names).
    pub name: &'static str,
    /// Inclusive window start, sim-time nanoseconds.
    pub start_ns: u64,
    /// Exclusive window end, sim-time nanoseconds.
    pub end_ns: u64,
    /// Aggregate over the window.
    pub value: WindowValue,
}

#[derive(Debug)]
struct Series {
    /// Window index (start = index * width) of the open window.
    window: u64,
    accum: WindowValue,
}

/// A set of named windowed series sharing one window width and watermark.
#[derive(Debug)]
pub struct WindowSet {
    width_ns: u64,
    series: BTreeMap<&'static str, Series>,
    flushes: Vec<WindowFlush>,
}

impl Default for WindowSet {
    fn default() -> Self {
        Self::new(DEFAULT_WINDOW_NS)
    }
}

impl WindowSet {
    /// A window set with the given tumbling-window width (ns of sim time).
    pub fn new(width_ns: u64) -> Self {
        Self {
            width_ns: width_ns.max(1),
            series: BTreeMap::new(),
            flushes: Vec::new(),
        }
    }

    /// Window width in sim-time nanoseconds.
    pub fn width_ns(&self) -> u64 {
        self.width_ns
    }

    /// Add `delta` to the counter series `name` at sim time `t_ns`.
    pub fn count(&mut self, t_ns: u64, name: &'static str, delta: u64) {
        let w = t_ns / self.width_ns;
        match self.series.get_mut(name) {
            Some(s) if s.window == w => {
                if let WindowValue::Count(c) = &mut s.accum {
                    *c += delta;
                } else {
                    debug_assert!(false, "window series {name} changed kind");
                }
            }
            existing => {
                if existing.is_some() {
                    self.flush_series(name);
                }
                self.series.insert(
                    name,
                    Series {
                        window: w,
                        accum: WindowValue::Count(delta),
                    },
                );
            }
        }
    }

    /// Record sample `v` into the sketch series `name` at sim time `t_ns`.
    pub fn record(&mut self, t_ns: u64, name: &'static str, v: u64) {
        let w = t_ns / self.width_ns;
        match self.series.get_mut(name) {
            Some(s) if s.window == w => {
                if let WindowValue::Sketch(sk) = &mut s.accum {
                    sk.record(v);
                } else {
                    debug_assert!(false, "window series {name} changed kind");
                }
            }
            existing => {
                if existing.is_some() {
                    self.flush_series(name);
                }
                let mut sk = QuantileSketch::new();
                sk.record(v);
                self.series.insert(
                    name,
                    Series {
                        window: w,
                        accum: WindowValue::Sketch(sk),
                    },
                );
            }
        }
    }

    /// Advance the watermark to sim time `t_ns`: every series whose open
    /// window ends at or before the watermark is flushed (in name order),
    /// so idle series emit their final windows without waiting for a new
    /// record.
    pub fn advance_watermark(&mut self, t_ns: u64) {
        let width = self.width_ns;
        let expired: Vec<&'static str> = self
            .series
            .iter()
            .filter(|(_, s)| (s.window + 1).saturating_mul(width) <= t_ns)
            .map(|(&name, _)| name)
            .collect();
        for name in expired {
            self.flush_series(name);
        }
    }

    /// Flush every open window (end of run / width change).
    pub fn flush_all(&mut self) {
        let names: Vec<&'static str> = self.series.keys().copied().collect();
        for name in names {
            self.flush_series(name);
        }
    }

    fn flush_series(&mut self, name: &'static str) {
        if let Some(s) = self.series.remove(name) {
            let start = s.window * self.width_ns;
            self.flushes.push(WindowFlush {
                name,
                start_ns: start,
                end_ns: start.saturating_add(self.width_ns),
                value: s.accum,
            });
        }
    }

    /// Closed windows flushed so far, in flush order.
    pub fn flushes(&self) -> &[WindowFlush] {
        &self.flushes
    }

    /// Take ownership of the flushed windows, leaving the set empty of
    /// history (open windows are untouched).
    pub fn take_flushes(&mut self) -> Vec<WindowFlush> {
        std::mem::take(&mut self.flushes)
    }

    /// Number of series with an open (unflushed) window.
    pub fn open_series(&self) -> usize {
        self.series.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_accumulate_within_a_window() {
        let mut w = WindowSet::new(1_000);
        w.count(10, "a.x", 1);
        w.count(999, "a.x", 2);
        assert!(w.flushes().is_empty());
        w.count(1_000, "a.x", 5); // crosses boundary -> flush [0,1000)
        let f = w.flushes();
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].name, "a.x");
        assert_eq!((f[0].start_ns, f[0].end_ns), (0, 1_000));
        assert_eq!(f[0].value, WindowValue::Count(3));
    }

    #[test]
    fn watermark_flushes_idle_series_in_name_order() {
        let mut w = WindowSet::new(1_000);
        w.count(100, "b.y", 1);
        w.count(200, "a.x", 1);
        w.advance_watermark(999); // window [0,1000) not yet complete
        assert!(w.flushes().is_empty());
        w.advance_watermark(1_000);
        let names: Vec<_> = w.flushes().iter().map(|f| f.name).collect();
        assert_eq!(names, ["a.x", "b.y"]);
        assert_eq!(w.open_series(), 0);
    }

    #[test]
    fn sketch_windows_carry_quantiles() {
        let mut w = WindowSet::new(1_000);
        for v in [10u64, 20, 30] {
            w.record(500, "lat", v);
        }
        w.flush_all();
        let f = &w.flushes()[0];
        match &f.value {
            WindowValue::Sketch(s) => {
                assert_eq!(s.count(), 3);
                assert_eq!(s.quantile(1.0), Some(30));
            }
            other => panic!("expected sketch, got {other:?}"),
        }
    }

    #[test]
    fn same_input_same_flush_sequence() {
        let run = || {
            let mut w = WindowSet::new(1_000);
            for i in 0..50u64 {
                let t = i * 137;
                w.count(t, "c.n", i);
                w.record(t, "c.s", i * 7 + 3);
                if i % 9 == 0 {
                    w.advance_watermark(t);
                }
            }
            w.flush_all();
            w.take_flushes()
        };
        assert_eq!(run(), run());
    }
}
