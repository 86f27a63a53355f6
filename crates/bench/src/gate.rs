//! The regression gates of `cargo bench -p bench --bench flowsim`, as one
//! table.
//!
//! The bench writes a report of named series (`sizes`, `engine`,
//! `threads`, `routing`, `plane_decision`, `plane_fleet`, `sync`,
//! `telemetry`), each an array of rows identified by integer key fields
//! such as `flows` or `nodes`. Every gate is one [`Rule`] of [`RULES`], and
//! [`check`] judges a report against all of them in one loop.

use obs::Json;
use std::fmt;

/// Allowed slowdown of a [`Gate::Baseline`] metric over the checked-in
/// baseline before the run fails.
pub const BASELINE_TOLERANCE: f64 = 1.25;

/// Hardware threads a host needs before a [`Rule::hardware`] gate is
/// enforced. Smaller hosts record their real measurement and get a waiver
/// instead (numbers are never fabricated).
pub const HARDWARE_THREADS: usize = 4;

/// How a rule judges its metric. Every bound is inclusive: a value exactly
/// at its bound passes.
#[derive(Debug, Clone, Copy)]
pub enum Gate {
    /// At most [`BASELINE_TOLERANCE`] × the baseline's value at the same
    /// key. Rows the baseline lacks, and every row when no baseline is
    /// given, are skipped.
    Baseline,
    /// At least this value; a missing metric counts as 0.
    Floor(f64),
    /// At most this value; a missing metric fails.
    Ceiling(f64),
}

/// Which rows of its series a rule judges.
#[derive(Debug, Clone, Copy)]
pub enum Rows {
    /// Every row.
    Every,
    /// The first row whose key fields equal these values.
    At(&'static [u64]),
    /// The row with the largest key (the last one on a tie).
    Largest,
}

/// One gate: a metric of some rows of one series. Rows lacking a key field
/// are never judged.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Report series the rule reads.
    pub series: &'static str,
    /// Integer fields that identify a row of the series.
    pub key: &'static [&'static str],
    /// The judged field.
    pub metric: &'static str,
    /// Which rows are judged.
    pub rows: Rows,
    /// How they are judged.
    pub gate: Gate,
    /// Waived on hosts with fewer than [`HARDWARE_THREADS`] hardware
    /// threads.
    pub hardware: bool,
}

/// A rule judging every row of its series, enforced on every host.
const fn rule(
    series: &'static str,
    key: &'static [&'static str],
    metric: &'static str,
    gate: Gate,
) -> Rule {
    Rule {
        series,
        key,
        metric,
        rows: Rows::Every,
        gate,
        hardware: false,
    }
}

const FLOWS: &[&str] = &["flows"];
const NODES: &[&str] = &["nodes"];
const KEYS: &[&str] = &["keys"];
const THREADS: &[&str] = &["threads"];
const CHUNKS: &[&str] = &["chunks"];
const FLOWS_THREADS: &[&str] = &["flows", "threads"];
const BYTES: &[&str] = &["bytes"];

/// Every gate flowsim enforces.
pub const RULES: &[Rule] = &[
    // Per-point costs against the checked-in baseline.
    rule("sizes", FLOWS, "incremental_ns", Gate::Baseline),
    rule("engine", FLOWS, "lazy_ns", Gate::Baseline),
    rule("routing", NODES, "query_ns", Gate::Baseline),
    rule("routing", NODES, "detour_ns", Gate::Baseline),
    rule("routing", NODES, "build_ms", Gate::Baseline),
    rule("plane_decision", KEYS, "warm_ns", Gate::Baseline),
    rule("plane_fleet", THREADS, "ns_per_lookup", Gate::Baseline),
    rule("sync", CHUNKS, "ns_per_probe", Gate::Baseline),
    rule("sync", CHUNKS, "leg_ns_per_byte", Gate::Baseline),
    rule("threads", FLOWS_THREADS, "ns_per_event", Gate::Baseline),
    // Parallel speedup and absolute rates only a multi-core host can show.
    Rule {
        rows: Rows::At(&[100_000, 4]),
        hardware: true,
        ..rule("threads", FLOWS_THREADS, "speedup", Gate::Floor(1.8))
    },
    Rule {
        rows: Rows::Largest,
        hardware: true,
        ..rule("routing", NODES, "speedup", Gate::Floor(25.0))
    },
    Rule {
        rows: Rows::At(&[4]),
        hardware: true,
        ..rule("plane_fleet", THREADS, "qps", Gate::Floor(1e6))
    },
    // Host-relative ratios (both sides measured in the same process) and
    // fixed-seed byte outcomes: enforced on every host.
    rule("plane_decision", KEYS, "speedup", Gate::Floor(10.0)),
    rule("sync", CHUNKS, "saved_pct", Gate::Floor(50.0)),
    rule("sync", CHUNKS, "hit_rate", Gate::Floor(0.5)),
    rule("telemetry", BYTES, "sink_pct", Gate::Ceiling(2.0)),
    rule("telemetry", BYTES, "window_pct", Gate::Ceiling(1.0)),
];

impl Rule {
    /// The rows of this rule's series in `doc` that carry every key field,
    /// with their keys.
    fn keyed<'a>(&'a self, doc: &'a Json) -> impl Iterator<Item = (&'a Json, Vec<u64>)> + 'a {
        let rows = doc.get(self.series).and_then(Json::as_arr).unwrap_or(&[]);
        rows.iter().filter_map(|row| {
            let key: Option<Vec<u64>> = self.key.iter().map(|k| row.get(k)?.as_u64()).collect();
            Some((row, key?))
        })
    }

    /// The rows of `report` this rule judges.
    fn select<'a>(&'a self, report: &'a Json) -> Vec<(&'a Json, Vec<u64>)> {
        let mut rows = self.keyed(report);
        match self.rows {
            Rows::Every => rows.collect(),
            Rows::At(at) => rows.find(|(_, key)| key == at).into_iter().collect(),
            Rows::Largest => rows.max_by(|a, b| a.1.cmp(&b.1)).into_iter().collect(),
        }
    }
}

/// A judged row that failed its gate or had it waived.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The gate.
    pub rule: &'static Rule,
    /// The row's key field values.
    pub key: Vec<u64>,
    /// The measured value (0 for a floor's missing metric, +∞ for a
    /// ceiling's, NaN for a baseline's).
    pub value: f64,
    /// The bound it is held to: the floor, the ceiling, or
    /// [`BASELINE_TOLERANCE`] × the baseline value.
    pub limit: f64,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let key: Vec<String> = self.key.iter().map(u64::to_string).collect();
        let bound = match self.rule.gate {
            Gate::Baseline => format!("at most {:.3} ({BASELINE_TOLERANCE}x baseline)", self.limit),
            Gate::Floor(_) => format!("at least {}", self.limit),
            Gate::Ceiling(_) => format!("at most {}", self.limit),
        };
        write!(
            f,
            "flowsim-{}/{}: {} = {:.3}, required {bound}",
            self.rule.series,
            key.join("x"),
            self.rule.metric,
            self.value
        )
    }
}

/// The outcome of judging a report.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Gates the report fails.
    pub failures: Vec<Finding>,
    /// Hardware gates not enforced on this host, pass or fail.
    pub waivers: Vec<Finding>,
}

/// Judge `report` against every rule of [`RULES`]; baseline gates compare
/// against `baseline` when one is given.
pub fn check(report: &Json, baseline: Option<&Json>, host_threads: usize) -> Verdict {
    let mut verdict = Verdict::default();
    for rule in RULES {
        for (row, key) in rule.select(report) {
            let value = row.get(rule.metric).and_then(Json::as_f64);
            let (value, limit, fails) = match rule.gate {
                Gate::Baseline => {
                    let was = baseline
                        .and_then(|doc| rule.keyed(doc).find(|(_, k)| *k == key))
                        .and_then(|(row, _)| row.get(rule.metric))
                        .and_then(Json::as_f64);
                    let Some(was) = was else {
                        continue;
                    };
                    let now = value.unwrap_or(f64::NAN);
                    let limit = was * BASELINE_TOLERANCE;
                    (now, limit, now > limit)
                }
                Gate::Floor(min) => {
                    let v = value.unwrap_or(0.0);
                    (v, min, v < min)
                }
                Gate::Ceiling(max) => {
                    let v = value.unwrap_or(f64::INFINITY);
                    (v, max, v > max)
                }
            };
            let finding = Finding {
                rule,
                key,
                value,
                limit,
            };
            if rule.hardware && host_threads < HARDWARE_THREADS {
                verdict.waivers.push(finding);
            } else if fails {
                verdict.failures.push(finding);
            }
        }
    }
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(fields: &[(&str, Json)]) -> Json {
        Json::Obj(
            fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        )
    }

    fn report(series: &[(&str, Vec<Json>)]) -> Json {
        Json::Obj(
            series
                .iter()
                .map(|(name, rows)| (name.to_string(), Json::Arr(rows.clone())))
                .collect(),
        )
    }

    fn flagged(v: &[Finding]) -> Vec<(&'static str, Vec<u64>, &'static str)> {
        v.iter()
            .map(|f| (f.rule.series, f.key.clone(), f.rule.metric))
            .collect()
    }

    fn sizes_point(flows: u64, incremental_ns: f64) -> Json {
        row(&[
            ("flows", Json::Int(flows)),
            ("incremental_ns", Json::Num(incremental_ns)),
        ])
    }

    #[test]
    fn baseline_flags_above_tolerance_and_passes_at_it() {
        let base = report(&[("sizes", vec![sizes_point(100, 100.0)])]);
        let at = report(&[("sizes", vec![sizes_point(100, 125.0)])]);
        assert!(check(&at, Some(&base), 1).failures.is_empty());
        let above = report(&[("sizes", vec![sizes_point(100, 125.001)])]);
        let v = check(&above, Some(&base), 1);
        assert_eq!(
            flagged(&v.failures),
            [("sizes", vec![100], "incremental_ns")]
        );
        assert_eq!(v.failures[0].limit, 125.0);
        // Without a baseline, baseline gates judge nothing.
        assert!(check(&above, None, 1).failures.is_empty());
    }

    #[test]
    fn row_missing_from_the_baseline_is_skipped() {
        let base = report(&[("sizes", vec![sizes_point(100, 100.0)])]);
        let new_point = report(&[("sizes", vec![sizes_point(1000, 1e9)])]);
        assert!(check(&new_point, Some(&base), 4).failures.is_empty());
    }

    #[test]
    fn floor_flags_just_below_its_threshold() {
        let plane = |speedup| {
            report(&[(
                "plane_decision",
                vec![row(&[
                    ("keys", Json::Int(256)),
                    ("speedup", Json::Num(speedup)),
                ])],
            )])
        };
        assert!(check(&plane(10.0), None, 1).failures.is_empty());
        let v = check(&plane(9.999), None, 1);
        assert_eq!(
            flagged(&v.failures),
            [("plane_decision", vec![256], "speedup")]
        );
    }

    #[test]
    fn hardware_floor_is_waived_below_four_threads_and_enforced_at_four() {
        let slow = report(&[(
            "plane_fleet",
            vec![row(&[
                ("threads", Json::Int(4)),
                ("qps", Json::Num(999_999.0)),
            ])],
        )]);
        for host in 1..HARDWARE_THREADS {
            let v = check(&slow, None, host);
            assert!(v.failures.is_empty(), "enforced at {host} threads");
            assert_eq!(flagged(&v.waivers), [("plane_fleet", vec![4], "qps")]);
            assert!(v.waivers[0].to_string().contains("qps = 999999.000"));
        }
        let v = check(&slow, None, HARDWARE_THREADS);
        assert!(v.waivers.is_empty());
        assert_eq!(flagged(&v.failures), [("plane_fleet", vec![4], "qps")]);
    }

    #[test]
    fn largest_key_selector_picks_the_biggest_routing_globe() {
        let globe =
            |nodes, speedup| row(&[("nodes", Json::Int(nodes)), ("speedup", Json::Num(speedup))]);
        // Quick mode measures 1k and 10k nodes: only the 10k row is judged.
        let quick = report(&[("routing", vec![globe(1_000, 1.0), globe(10_000, 1.0)])]);
        let v = check(&quick, None, 4);
        assert_eq!(flagged(&v.failures), [("routing", vec![10_000], "speedup")]);
        // Full mode adds the 101k-node stress globe, which takes over.
        let full = report(&[(
            "routing",
            vec![globe(1_000, 1.0), globe(10_000, 1.0), globe(101_100, 1.0)],
        )]);
        let v = check(&full, None, 4);
        assert_eq!(
            flagged(&v.failures),
            [("routing", vec![101_100], "speedup")]
        );
    }

    #[test]
    fn telemetry_ceiling_flags_just_above_its_budget() {
        let tele = |sink_pct, window_pct| {
            report(&[(
                "telemetry",
                vec![row(&[
                    ("bytes", Json::Int(10_000_000)),
                    ("sink_pct", Json::Num(sink_pct)),
                    ("window_pct", Json::Num(window_pct)),
                ])],
            )])
        };
        assert!(check(&tele(2.0, 1.0), None, 1).failures.is_empty());
        let v = check(&tele(2.001, 1.001), None, 1);
        assert_eq!(
            flagged(&v.failures),
            [
                ("telemetry", vec![10_000_000], "sink_pct"),
                ("telemetry", vec![10_000_000], "window_pct"),
            ]
        );
    }
}
