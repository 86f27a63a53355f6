//! The repository's benchmark: three seeded workloads driven through the
//! public APIs of `scenarios`, `detour-core`, `simcheck` and `netsim`, each
//! from one load-generating thread.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper|check|crowd --seed N --seconds S --trace 0|1
//! ```
//!
//! The untraced run (`--trace 0`) checks the workload's outputs and prints
//! the six end-to-end metrics. The traced run (`--trace 1`) alternates
//! untraced and traced batches, prints the per-layer metrics and its own
//! overhead, and writes its spans as a Chrome trace. The last line of
//! standard output is always one JSON object; the exit code is 0 only when
//! every output check held. Failed ops (a case with a violation, say) are
//! counted, not fatal, unless an output check requires them to succeed. `RATIONALE.md` explains the workloads and the
//! estimators.

mod check;
mod crowd;
mod estimate;
mod paper;
mod report;
mod trace;

use report::{Metric, Outcome};
use std::path::PathBuf;
use std::time::Instant;
use trace::{LayerStats, OP};

const USAGE: &str =
    "usage: perfbench --workload paper|check|crowd [--seed N] [--seconds S] [--trace 0|1]";

/// The workload seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 1;

/// Every per-layer metric with its unit, in `BENCHMARK.json` order. Each
/// traced run reports all of them: a layer its workload never calls reads 0.
const PER_LAYER: [(&str, &str); 44] = [
    ("scenarios.world_build_us", "us"),
    ("scenarios.build_sim_us", "us"),
    ("cloudstore.direct_job_us", "us"),
    ("relay.detour_job_us", "us"),
    ("netsim.paper.ns_per_event", "ns"),
    ("netsim.paper.events_per_op", "count"),
    ("netsim.paper.reallocations_per_op", "count"),
    ("netsim.paper.flows_per_op", "count"),
    ("netsim.paper.peak_queue", "count"),
    ("cloudstore.rpcs_per_job", "count"),
    ("cloudstore.retries_per_job", "count"),
    ("cloudstore.payload_wire_ratio", "ratio"),
    ("simcheck.generate_us", "us"),
    ("simcheck.std.case_ms", "ms"),
    ("simcheck.std.exec_ms", "ms"),
    ("simcheck.chaos.case_ms", "ms"),
    ("simcheck.chaos.exec_ms", "ms"),
    ("simcheck.sync.case_ms", "ms"),
    ("simcheck.sync.exec_ms", "ms"),
    ("simcheck.replay_ms", "ms"),
    ("simcheck.ref_alloc_ms", "ms"),
    ("simcheck.eager_ms", "ms"),
    ("simcheck.ref_routing_ms", "ms"),
    ("simcheck.shard_ms", "ms"),
    ("simcheck.chunk_bypass_ms", "ms"),
    ("routeplane.coherence_ms", "ms"),
    ("obs.health_ms", "ms"),
    ("netsim.check.events_per_case", "count"),
    ("transfer.md5_per_case", "count"),
    ("transfer.wire_plan_us", "us"),
    ("transfer.manifest_us", "us"),
    ("transfer.sig_delta_patch_us", "us"),
    ("relay.chunk_plan_ns", "ns"),
    ("relay.chunk_admit_ns", "ns"),
    ("relay.chunk_hit_ratio", "ratio"),
    ("netsim.globe_build_ms", "ms"),
    ("netsim.sim_new_ms", "ms"),
    ("netsim.start_flow_ns", "ns"),
    ("netsim.crowd.ns_per_event", "ns"),
    ("netsim.crowd.reallocations_per_op", "count"),
    ("netsim.crowd.peak_queue", "count"),
    ("netsim.crowd.queue_compactions", "count"),
    ("perfbench.trace_overhead", "ratio"),
    ("perfbench.span_coverage", "ratio"),
];

/// Every per-layer metric in [`PER_LAYER`] order, 0 for layers the
/// workload never calls.
fn per_layer_metrics(layers: &[(&'static str, f64)]) -> Vec<Metric> {
    for (name, _) in layers {
        assert!(
            PER_LAYER.iter().any(|(n, _)| n == name),
            "{name} is not a listed per-layer metric"
        );
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = layers.iter().find(|(n, _)| *n == name).map_or(0.0, |l| l.1);
            Metric::new(name, value, unit)
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Paper,
    Check,
    Crowd,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Paper => "paper",
            Workload::Check => "check",
            Workload::Crowd => "crowd",
        }
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Run {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Run {
    fn parse(args: impl Iterator<Item = String>) -> Result<Run, String> {
        let mut workload = None;
        let mut run = Run {
            workload: Workload::Paper,
            seed: DEFAULT_SEED,
            seconds: 35.0,
            trace: false,
        };
        let mut args = args;
        while let Some(flag) = args.next() {
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value:?}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(match value.as_str() {
                        "paper" => Workload::Paper,
                        "check" => Workload::Check,
                        "crowd" => Workload::Crowd,
                        _ => return Err(format!("unknown workload {value:?}")),
                    })
                }
                "--seed" => run.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    run.seconds = value.parse().map_err(|_| bad())?;
                    if !(run.seconds > 0.0 && run.seconds <= 600.0) {
                        return Err(format!("--seconds must be in (0, 600], got {value}"));
                    }
                }
                "--trace" => {
                    run.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                    }
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        run.workload = workload.ok_or("--workload is required")?;
        Ok(run)
    }
}

/// Run batches of the workload's fixed op list until `run.seconds` have
/// elapsed: another batch starts only while the longer of the last two
/// still fits. The traced run alternates untraced (even) and traced (odd)
/// batches so both see the same host phases. At least two batches of each
/// kind run.
pub fn run_batches(run: &Run, mut batch: impl FnMut(u32, bool)) {
    let start = Instant::now();
    let min = if run.trace { 4 } else { 2 };
    let mut recent = [0.0f64; 2];
    for b in 0.. {
        let t = Instant::now();
        batch(b, run.trace && b % 2 == 1);
        recent[b as usize % 2] = t.elapsed().as_secs_f64();
        let next = recent[0].max(recent[1]);
        if b + 1 >= min && start.elapsed().as_secs_f64() + next > run.seconds {
            break;
        }
    }
}

/// Where the traced run writes its Chrome trace: under the Cargo target
/// directory the benchmark was built into.
fn trace_path(run: &Run) -> PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(".bench_build"))
        .join("perfbench-traces");
    dir.join(format!(
        "{}-seed{}.trace.json",
        run.workload.name(),
        run.seed
    ))
}

/// Shared tail of every traced run: overhead against the untraced batches,
/// span coverage of op time, self time per span, and the trace export.
pub fn finish_traced(
    run: &Run,
    out: &mut Outcome,
    layers: &LayerStats,
    untraced_op_secs: f64,
    export: Option<obs::Recording>,
) {
    let traced = layers.total_ns(OP) / 1e9;
    let overhead = traced / untraced_op_secs;
    let coverage = layers.coverage();
    out.note(format!(
        "tracing overhead: op time traced / untraced = {overhead:.4} over {} traced batches",
        layers.batches()
    ));
    out.note(format!(
        "layer spans cover {:.2}% of traced op time",
        coverage * 100.0
    ));
    if coverage < 0.9 {
        out.note("WARNING: layer spans cover less than 90% of op time".to_string());
    }
    out.note("self time by span, summed over one batch's ops at their fastest repeat:".into());
    for (name, ns) in layers.self_by_name().into_iter().take(16) {
        out.note(format!("  {name:<34} {:>12.3} ms", ns / 1e6));
    }
    out.layer("perfbench.trace_overhead", overhead);
    out.layer("perfbench.span_coverage", coverage);
    if let Some(rec) = export {
        let path = trace_path(run);
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|_| std::fs::write(&path, obs::chrome_trace_json(&rec)));
        match written {
            Ok(()) => out.note(format!(
                "chrome trace of the first traced batch ({} spans): {}",
                rec.spans.len(),
                path.display()
            )),
            Err(e) => out.fail(format!("writing {}: {e}", path.display())),
        }
    }
}

fn main() {
    let run = match Run::parse(std::env::args().skip(1)) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        run.workload.name(),
        run.seed,
        run.seconds,
        run.trace as u8
    );
    let mut out = match run.workload {
        Workload::Paper => paper::run(&run),
        Workload::Check => check::run(&run),
        Workload::Crowd => crowd::run(&run),
    };
    if run.trace {
        out.metrics = per_layer_metrics(&out.layers);
    }
    for line in &out.notes {
        println!("{line}");
    }
    println!("digest {}: {:016x}", run.workload.name(), out.digest);
    println!("ops attempted {}, failed {}", out.attempted, out.failed);
    for m in &out.metrics {
        println!("{:<36} {:>18} {}", m.name, m.value, m.unit);
    }
    println!("{}", out.json());
    if !out.correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Run, String> {
        Run::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_a_full_command_line() {
        let r = parse(&[
            "--workload",
            "crowd",
            "--seed",
            "9",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(r.workload, Workload::Crowd);
        assert_eq!((r.seed, r.seconds, r.trace), (9, 12.0, true));
        let r = parse(&["--workload", "check"]).unwrap();
        assert_eq!((r.seed, r.trace), (DEFAULT_SEED, false));
    }

    #[test]
    fn per_layer_metrics_cover_the_list_in_order() {
        let m = per_layer_metrics(&[
            ("netsim.crowd.peak_queue", 256.0),
            ("relay.detour_job_us", 46.5),
        ]);
        assert_eq!(m.len(), PER_LAYER.len());
        for (metric, (name, unit)) in m.iter().zip(PER_LAYER) {
            assert_eq!((metric.name, metric.unit), (name, unit));
        }
        let value = |name| m.iter().find(|x| x.name == name).unwrap().value;
        assert_eq!(value("netsim.crowd.peak_queue"), 256.0);
        assert_eq!(value("relay.detour_job_us"), 46.5);
        assert_eq!(value("simcheck.replay_ms"), 0.0);
    }

    #[test]
    #[should_panic(expected = "not a listed per-layer metric")]
    fn per_layer_metrics_reject_unlisted_names() {
        per_layer_metrics(&[("netsim.typo_ns", 1.0)]);
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            &["--seed", "1"][..],
            &["--workload", "nope"],
            &["--workload", "paper", "--trace", "2"],
            &["--workload", "paper", "--seconds", "0"],
            &["--workload", "paper", "--seconds", "NaN"],
            &["--workload", "paper", "--seed"],
            &["--workload", "paper", "--bogus", "1"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }
}
