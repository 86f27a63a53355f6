//! Telemetry for the simulated upload pipeline.
//!
//! Every layer of the stack — the flow-level simulator, the RPC model, the
//! cloud-storage sessions, the DTN relays, and the route-selection logic —
//! reports into one [`Telemetry`] handle owned by the simulation:
//!
//! * **Spans and events** ([`telemetry`]) are stamped with *simulated* time
//!   (nanoseconds of a `SimTime`-like clock), never wall time, so a trace
//!   is a pure function of the scenario and seed. When telemetry is
//!   disabled (the default) every call is a no-op behind a single branch.
//! * **Metrics** ([`metrics`]) are counters, gauges, and log-linear
//!   histograms with percentile queries: per-link utilization samples,
//!   allocator recompute counts, active-flow counts, retry/throttle
//!   totals, bytes by provider and route.
//! * **Exporters** ([`export`]) render a finished [`Recording`] as a
//!   deterministic JSONL event log, a Chrome trace-event JSON file
//!   loadable in Perfetto (spans nested session → chunk → RPC → flow),
//!   and text/CSV metrics snapshots.
//! * **Streaming aggregation** ([`sketch`], [`window`]) provides
//!   mergeable log-linear quantile sketches (merge-order-independent,
//!   bit-identical reduction for sharded workers) and sim-time tumbling
//!   windows with watermark-driven flush.
//! * **The health plane** ([`trace`], [`health`], [`mod@analyze`]) parses
//!   recorded JSONL traces back (with typed, actionable errors), folds
//!   them into a per-(vantage, provider, size-class) route-health
//!   scoreboard with multi-window SLO burn rates, and extracts critical
//!   paths, retry waterfalls and the slowest spans (`detour health`,
//!   `detour analyze`).
//! * **JSON** ([`json`]) is the workspace's one JSON codec: the value
//!   tree, parser and writer behind trace reading, replayable simcheck
//!   specs and verdicts, and bench baselines, plus the string escaper
//!   every exporter above shares.
//!
//! The crate is dependency-free and knows nothing about the simulator; the
//! simulator passes plain nanosecond timestamps.

pub mod analyze;
pub mod export;
pub mod health;
pub mod json;
pub mod metrics;
pub mod sketch;
pub mod telemetry;
pub mod trace;
pub mod window;

pub use analyze::{analyze, AnalyzeReport};
pub use export::{chrome_trace_json, jsonl_log, span_tree_text};
pub use health::{size_class, HealthBoard, HealthReport, Verdict, DEFAULT_SLO_P99_NS};
pub use json::{Json, JsonError, JsonErrorKind};
pub use metrics::{
    is_valid_metric_name, metric_segment, Histogram, MetricsRegistry, MetricsSnapshot,
};
pub use sketch::QuantileSketch;
pub use telemetry::{
    ArgValue, Args, Category, EventRecord, Recording, SpanId, SpanRecord, Telemetry,
};
pub use trace::{load_trace, parse_jsonl, Trace, TraceError, TraceErrorKind};
pub use window::{WindowFlush, WindowSet, WindowValue, DEFAULT_WINDOW_NS};
