//! `detour` — command-line front end to the routing-detours library.
//!
//! ```text
//! detour simulate   --client ubc --provider gdrive --size 100 [--route ualberta] [--runs 7] [--seed 1]
//! detour best-route --client purdue --provider gdrive --size 60 [--rule overlap|mean]
//! detour traceroute --client ubc --provider gdrive [--seed 5]
//! detour probe      --client ubc [--seed 1]
//! detour tiv        --client ubc --provider gdrive [--seed 1]
//! detour trace      --client ubc --provider gdrive --size 100 [--route ualberta] [--seed 1]
//!                   [--format tree|jsonl|chrome|metrics] [--out FILE]
//! detour trace      --from FILE          # summarize a recorded JSONL trace
//! detour health     --client ubc --provider gdrive --size 100 [--route ualberta] [--runs 3]
//!                   [--seed 1] [--record FILE] [--slo-p99-secs N] [--format table|json] [--out FILE]
//! detour health     --trace FILE [--slo-p99-secs N] [--format table|json] [--out FILE]
//! detour analyze    --client ubc --provider gdrive --size 100 [--route ualberta] [--runs 3]
//!                   [--seed 1] [--record FILE] [--top N] [--format table|json] [--out FILE]
//! detour analyze    --trace FILE [--top N] [--format table|json] [--out FILE]
//! detour check      [--cases 64] [--seed 7] [--class std|chaos|sync] [--replay FILE] [--out FILE]
//! detour plane      [--lookups N] [--clients N] [--threads N] [--seed N] [--tenants N]
//!                   [--churn-every N] [--trip-every N]
//! detour sync       [--tenants N] [--files N] [--rounds N] [--size-kb N] [--cache-mb N]
//!                   [--seed N] [--out FILE]
//! ```
//!
//! `health` renders the SLO scoreboard (per vantage/provider/size-class
//! attempts, error and latency verdicts, burn rates); `analyze` renders
//! critical paths, retry waterfalls and slowest spans.
//! Both read either a live campaign (replayed deterministically from
//! `--seed`) or a recorded JSONL trace; `--record` saves the live campaign
//! so the two inputs are byte-identical.
//!
//! Clients: `ubc`, `purdue`, `ucla`. Providers: `gdrive`, `dropbox`,
//! `onedrive`. Routes: `direct`, `ualberta`, `umich`.
//!
//! Each subcommand takes only its own flags. Counts must be positive and
//! fit their type; `--size` is at most [`MAX_SIZE_MB`] MB, a sync working
//! set (`--files` × `--size-kb`) at most [`MAX_SYNC_SET_KB`] KiB, and
//! `plane` at most [`MAX_PLANE_THREADS`] threads and [`MAX_PLANE_TENANTS`]
//! tenants. Any other flag or value prints the usage text and exits 2.

use routing_detours::cloudstore::{ProviderKind, UploadOptions};
use routing_detours::detour_core::{run_job, DecisionRule, Route};
use routing_detours::measure::RunProtocol;
use routing_detours::netsim::trace::Traceroute;
use routing_detours::netsim::units::MB;
use routing_detours::scenarios::{Client, NorthAmerica};
use std::collections::HashMap;
use std::ops::RangeBounds;

/// Largest `--size`, in MB: a thousand times the paper's largest file.
const MAX_SIZE_MB: u64 = 100_000;

/// Largest sync working set, `--files` × `--size-kb`, in KiB (256 MiB).
const MAX_SYNC_SET_KB: u32 = 256 * 1024;

/// Most fleet worker threads `detour plane` spawns.
const MAX_PLANE_THREADS: usize = 256;

/// Most tenants `detour plane` keeps an admission bucket for.
const MAX_PLANE_TENANTS: u32 = 1 << 20;

fn usage() -> ! {
    eprintln!(
        "usage:\n  detour simulate   --client <ubc|purdue|ucla> --provider <gdrive|dropbox|onedrive> \
         --size <MB> [--route <direct|ualberta|umich>] [--runs N] [--seed N]\n  detour best-route \
         --client <c> --provider <p> --size <MB> [--rule <overlap|mean>]\n  detour traceroute \
         --client <c> --provider <p> [--seed N]\n  detour probe      --client <c> [--seed N]\n  \
         detour tiv        --client <c> --provider <p> [--seed N]\n  detour trace      \
         --client <c> --provider <p> --size <MB> [--route <r>] [--seed N] \
         [--format <tree|jsonl|chrome|metrics>] [--out FILE]\n  detour trace      \
         --from FILE\n  detour health     --client <c> --provider <p> --size <MB> [--route <r>] \
         [--runs N] [--seed N] [--record FILE] [--slo-p99-secs N] [--format <table|json>] \
         [--out FILE]\n  detour health     --trace FILE [--slo-p99-secs N] [--format <table|json>] \
         [--out FILE]\n  detour analyze    --client <c> --provider <p> --size <MB> [--route <r>] \
         [--runs N] [--seed N] [--record FILE] [--top N] [--format <table|json>] [--out FILE]\n  \
         detour analyze    --trace FILE [--top N] [--format <table|json>] [--out FILE]\n  \
         detour check      [--cases N] [--seed N] [--class <std|chaos|sync>] [--replay FILE] \
         [--out FILE]\n  \
         detour plane      [--lookups N] [--clients N] [--threads N] [--seed N] [--tenants N] \
         [--churn-every N] [--trip-every N]\n  \
         detour sync       [--tenants N] [--files N] [--rounds N] [--size-kb N] [--cache-mb N] \
         [--seed N] [--out FILE]\n\
         \nCounts (--runs, --cases, --lookups, --clients, --threads, --tenants, --files, \
         --size-kb) must be positive. --size is at most {MAX_SIZE_MB} MB, --files x --size-kb \
         at most {MAX_SYNC_SET_KB} KiB, and plane takes at most {MAX_PLANE_THREADS} threads and \
         {MAX_PLANE_TENANTS} tenants."
    );
    std::process::exit(2);
}

/// A subcommand's entry point.
type Command = fn(&Args, &NorthAmerica);

/// Every subcommand with the space-separated flags it takes; any other
/// flag is a usage error.
const COMMANDS: &[(&str, &str, Command)] = &[
    ("simulate", "client provider size route runs seed", simulate),
    ("best-route", "client provider size rule", best_route),
    ("traceroute", "client provider seed", traceroute),
    ("probe", "client seed", probe),
    ("tiv", "client provider seed", tiv),
    (
        "trace",
        "client provider size route seed format out from",
        trace,
    ),
    (
        "health",
        "client provider size route runs seed record slo-p99-secs format out trace",
        health,
    ),
    (
        "analyze",
        "client provider size route runs seed record format out trace top",
        analyze,
    ),
    ("check", "cases seed class replay out", check),
    (
        "plane",
        "lookups clients threads seed tenants churn-every trip-every",
        plane,
    ),
    (
        "sync",
        "tenants files rounds size-kb cache-mb seed out",
        sync_study,
    ),
];

struct Args {
    flags: HashMap<String, String>,
}

impl Args {
    /// Parse `detour <command> [--flag value]...` into the command's entry
    /// point and its flags, exiting with the usage text on an unknown
    /// command, a flag the command does not take, or a flag with no value.
    fn parse() -> (Self, Command) {
        let mut argv = std::env::args().skip(1);
        let cmd = argv.next().unwrap_or_else(|| usage());
        let &(_, accepted, run) = COMMANDS
            .iter()
            .find(|(name, ..)| *name == cmd)
            .unwrap_or_else(|| usage());
        let rest: Vec<String> = argv.collect();
        let mut flags = HashMap::new();
        for pair in rest.chunks(2) {
            match pair {
                [key, value] => match key.strip_prefix("--") {
                    Some(k) if accepted.split(' ').any(|a| a == k) => {
                        flags.insert(k.to_string(), value.clone());
                    }
                    _ => usage(),
                },
                _ => usage(),
            }
        }
        (Args { flags }, run)
    }

    fn client(&self) -> Client {
        match self.flags.get("client").map(String::as_str) {
            Some("ubc") => Client::Ubc,
            Some("purdue") => Client::Purdue,
            Some("ucla") => Client::Ucla,
            _ => usage(),
        }
    }

    fn provider(&self) -> ProviderKind {
        match self.flags.get("provider").map(String::as_str) {
            Some("gdrive") | Some("google") => ProviderKind::GoogleDrive,
            Some("dropbox") => ProviderKind::Dropbox,
            Some("onedrive") => ProviderKind::OneDrive,
            _ => usage(),
        }
    }

    /// The required `--size` flag, given in MB, as bytes.
    fn size_bytes(&self) -> u64 {
        if !self.flags.contains_key("size") {
            usage();
        }
        self.num("size", 0, 1..=MAX_SIZE_MB) * MB
    }

    /// A numeric flag: `default` when absent; a value that does not parse
    /// as a `T` or lies outside `range` is a usage error.
    fn num<T>(&self, name: &str, default: T, range: impl RangeBounds<T>) -> T
    where
        T: std::str::FromStr + PartialOrd,
    {
        match self.flags.get(name).map(|s| s.parse()) {
            None => default,
            Some(Ok(v)) if range.contains(&v) => v,
            Some(_) => usage(),
        }
    }
}

fn route_by_name(world: &NorthAmerica, name: &str) -> Route {
    match name {
        "direct" => Route::Direct,
        "ualberta" => Route::via(world.hop_ualberta()),
        "umich" => Route::via(world.hop_umich()),
        _ => usage(),
    }
}

fn main() {
    let (args, run) = Args::parse();
    run(&args, &NorthAmerica::new());
}

/// Obtain the trace both report commands work from: a recorded JSONL file
/// when `--trace FILE` is given (typed errors with remediation hints on
/// missing/truncated files), otherwise a live campaign — `--runs`
/// deterministic uploads whose telemetry segments are concatenated exactly
/// as `--record` would write them, so live and recorded scoreboards are
/// computed from identical bytes.
fn report_input(args: &Args, world: &NorthAmerica) -> routing_detours::obs::Trace {
    use routing_detours::obs;
    if let Some(path) = args.flags.get("trace") {
        return obs::load_trace(std::path::Path::new(path)).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(1);
        });
    }
    let client = world.client(args.client());
    let provider = world.provider(args.provider());
    let size = args.size_bytes();
    let runs: u64 = args.num("runs", 3, 1..);
    let seed: u64 = args.num("seed", 1, ..);
    let route_name = args
        .flags
        .get("route")
        .cloned()
        .unwrap_or_else(|| "direct".into());
    let route = route_by_name(world, &route_name);
    let mut jsonl = String::new();
    for r in 0..runs {
        let mut sim = world.build_sim(seed.wrapping_add(r));
        sim.enable_telemetry();
        // Failures still record job.error events — exactly what the
        // scoreboard is for — so errors are folded in, not fatal.
        let _ = run_job(
            &mut sim,
            client.node,
            client.class,
            &provider,
            size,
            &route,
            UploadOptions::warm(client.class),
        );
        let rec = sim.take_telemetry().expect("telemetry was enabled");
        jsonl.push_str(&routing_detours::obs::jsonl_log(&rec));
    }
    if let Some(path) = args.flags.get("record") {
        std::fs::write(path, &jsonl).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("recorded {path} ({} bytes)", jsonl.len());
    }
    obs::parse_jsonl(&jsonl, "<live>").expect("live recordings always parse")
}

fn write_or_print(args: &Args, rendered: &str) {
    match args.flags.get("out") {
        Some(path) => {
            std::fs::write(path, rendered).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            });
            eprintln!("wrote {path} ({} bytes)", rendered.len());
        }
        None => print!("{rendered}"),
    }
}

/// Route-health scoreboard: per (vantage, provider, size-class) attempts,
/// quantiles, throttle/retry pressure and multi-window SLO burn rates,
/// judged against a p99 target of `--slo-p99-secs` (default 120 s).
fn health(args: &Args, world: &NorthAmerica) {
    use routing_detours::obs;
    let trace = report_input(args, world);
    let p99_secs: u64 = args.num("slo-p99-secs", obs::DEFAULT_SLO_P99_NS / 1_000_000_000, ..);
    let mut board = obs::HealthBoard::new(p99_secs.saturating_mul(1_000_000_000));
    board.ingest(&trace);
    let report = board.report();
    let rendered = match args.flags.get("format").map(String::as_str) {
        None | Some("table") => report.to_text(),
        Some("json") => report.to_json(),
        _ => usage(),
    };
    write_or_print(args, &rendered);
}

/// Trace analytics: per-session critical paths, retry waterfalls and the
/// `--top` (default 10) slowest spans.
fn analyze(args: &Args, world: &NorthAmerica) {
    use routing_detours::obs;
    let trace = report_input(args, world);
    let top = args.num("top", 10, ..);
    let report = obs::analyze(&trace, top);
    let rendered = match args.flags.get("format").map(String::as_str) {
        None | Some("table") => report.to_text(),
        Some("json") => report.to_json(),
        _ => usage(),
    };
    write_or_print(args, &rendered);
}

/// Deterministic simulation checking: run randomized scenarios through the
/// engine under invariant oracles (byte conservation, link capacity,
/// max-min fairness, clock monotonicity, same-seed determinism, and the
/// reference allocator, routing and progress backends in lockstep). Prints a
/// machine-readable JSON verdict on stdout, a human summary on stderr, and
/// exits nonzero if any invariant fired. `--replay FILE` re-executes a
/// scenario spec saved from an earlier failure instead of generating cases.
fn check(args: &Args, _: &NorthAmerica) {
    use routing_detours::simcheck;
    let report = match args.flags.get("replay") {
        Some(path) => {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(1);
            });
            simcheck::replay(&text, None).unwrap_or_else(|e| {
                eprintln!("bad scenario spec in {path}: {e}");
                std::process::exit(1);
            })
        }
        None => simcheck::run_check(simcheck::CheckConfig {
            cases: args.num("cases", 64, 1..),
            seed: args.num("seed", 7, ..),
            class: match args.flags.get("class").map(String::as_str) {
                None | Some("std") => simcheck::ScenarioClass::Standard,
                Some("chaos") => simcheck::ScenarioClass::Chaos,
                Some("sync") => simcheck::ScenarioClass::Sync,
                _ => usage(),
            },
            ..simcheck::CheckConfig::default()
        }),
    };
    let verdict = report.to_json();
    match args.flags.get("out") {
        Some(path) => {
            std::fs::write(path, &verdict).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            });
            eprintln!("wrote {path} ({} bytes)", verdict.len());
        }
        None => println!("{verdict}"),
    }
    eprintln!(
        "simcheck: {} passed, {} failed, {} events audited",
        report.passed,
        report.failures.len(),
        report.events
    );
    for f in &report.failures {
        eprintln!(
            "  case {} (seed {}): {} violation(s), shrunk in {} step(s); first: {}",
            f.case_index,
            f.case_seed,
            f.violations.len(),
            f.shrink_steps,
            f.violations
                .first()
                .map(|v| v.to_string())
                .unwrap_or_default()
        );
        eprintln!(
            "  reproduce with: detour check --replay <(echo '{}')",
            f.shrunk.to_json()
        );
    }
    if !report.ok() {
        std::process::exit(1);
    }
}

/// Drive the route-intelligence plane with a zipf-skewed client fleet:
/// millions of simulated clients asking "which route now?", with monitor
/// churn invalidating generations and breaker trips demoting detours.
/// Prints the one-line fleet report (QPS, hit/stale/demote/shed counts,
/// staleness quantiles, determinism digest) plus the churn-sweep staleness
/// bound the run is held to.
fn plane(args: &Args, _: &NorthAmerica) {
    use routing_detours::routeplane::{run_fleet, FleetConfig, PlaneConfig};
    let plane_cfg = PlaneConfig {
        tenants: args.num(
            "tenants",
            PlaneConfig::default().tenants,
            1..=MAX_PLANE_TENANTS,
        ),
        ..PlaneConfig::default()
    };
    let cfg = FleetConfig {
        clients: args.num("clients", 1_000_000, 1..),
        lookups: args.num("lookups", 2_000_000, 1..),
        threads: args.num("threads", 1, 1..=MAX_PLANE_THREADS),
        seed: args.num("seed", 7, ..),
        churn_every: args.num("churn-every", 10_000, ..),
        trip_every: args.num("trip-every", 50_000, ..),
        plane: plane_cfg,
        ..FleetConfig::default()
    };
    let report = run_fleet(&cfg);
    println!("{}", report.to_line());
    match cfg.churn_period_ns() {
        Some(bound) => {
            let max = report.staleness.max().unwrap_or(0);
            println!(
                "staleness max {max} ns within the {bound} ns churn-sweep bound: {}",
                if max <= bound { "ok" } else { "VIOLATED" }
            );
            if max > bound {
                std::process::exit(1);
            }
        }
        None => println!("churn disabled: staleness unbounded by construction"),
    }
}

/// The delta-sync study on the calibrated map: tenants replicating one
/// mutating dataset to Google Drive, timed over three arms per round —
/// direct full upload, the paper's store-and-forward detour, and a
/// delta-sync detour through a shared chunk store at the UAlberta DTN.
/// Prints the per-cell table plus byte savings, cache hit rate and win/loss
/// flips versus plain store-and-forward.
fn sync_study(args: &Args, world: &NorthAmerica) {
    use routing_detours::scenarios::{run_sync_study, SyncStudyConfig};
    let d = SyncStudyConfig::default();
    let cfg = SyncStudyConfig {
        tenants: args.num("tenants", d.tenants, 1..),
        files: args.num("files", d.files, 1..),
        rounds: args.num("rounds", d.rounds, ..),
        file_kb: args.num("size-kb", d.file_kb, 1..),
        cache_mb: args.num("cache-mb", d.cache_mb, ..),
        seed: args.num("seed", d.seed, ..),
    };
    if u64::from(cfg.files) * u64::from(cfg.file_kb) > u64::from(MAX_SYNC_SET_KB) {
        usage();
    }
    let report = run_sync_study(world, cfg);
    write_or_print(args, &report.render());
}

/// Run one upload with telemetry enabled and export the recording: a span
/// tree for humans, JSONL or Chrome trace-event JSON (Perfetto) for tools,
/// or the metrics snapshot as a table.
fn trace(args: &Args, world: &NorthAmerica) {
    use routing_detours::obs;
    if let Some(path) = args.flags.get("from") {
        // Summarize an existing recording instead of running a simulation.
        // Broken files get the trace loader's typed, line-numbered error.
        let t = obs::load_trace(std::path::Path::new(path)).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(1);
        });
        let unclosed = t.spans.iter().filter(|s| s.end_ns.is_none()).count();
        println!(
            "{path}: {} span(s) ({unclosed} unclosed), {} event(s), {:.2} s of sim time",
            t.spans.len(),
            t.events.len(),
            t.end_ns() as f64 / 1e9
        );
        return;
    }
    let client = world.client(args.client());
    let provider = world.provider(args.provider());
    let size = args.size_bytes();
    let seed = args.num("seed", 1, ..);
    let route_name = args
        .flags
        .get("route")
        .cloned()
        .unwrap_or_else(|| "direct".into());
    let route = route_by_name(world, &route_name);

    let mut sim = world.build_sim(seed);
    sim.enable_telemetry();
    let report = run_job(
        &mut sim,
        client.node,
        client.class,
        &provider,
        size,
        &route,
        UploadOptions::warm(client.class),
    )
    .unwrap_or_else(|e| {
        eprintln!("simulation failed: {e}");
        std::process::exit(1);
    });
    let rec = sim.take_telemetry().expect("telemetry was enabled");

    let format = args
        .flags
        .get("format")
        .map(String::as_str)
        .unwrap_or("tree");
    let rendered = match format {
        "tree" => format!(
            "{} -> {} ({}), {} MB, seed {}: {:.2} s\n\n{}\n{}",
            client.name,
            provider.kind.display_name(),
            route.label(),
            size / MB,
            seed,
            report.secs(),
            obs::span_tree_text(&rec),
            routing_detours::measure::metrics_table(&rec.metrics.snapshot(), "metrics").render()
        ),
        "jsonl" => obs::jsonl_log(&rec),
        "chrome" => obs::chrome_trace_json(&rec),
        "metrics" => {
            routing_detours::measure::metrics_table(&rec.metrics.snapshot(), "metrics").render()
        }
        _ => usage(),
    };
    match args.flags.get("out") {
        Some(path) => {
            std::fs::write(path, &rendered).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            });
            eprintln!("wrote {path} ({} bytes)", rendered.len());
        }
        None => print!("{rendered}"),
    }
}

/// Report bandwidth triangle-inequality violations for a client/provider
/// pair over the standard DTN candidates.
fn tiv(args: &Args, world: &NorthAmerica) {
    let client = world.client(args.client());
    let provider = world.provider(args.provider());
    let mut sim = world.build_sim(args.num("seed", 1, ..));
    let frontend = provider.frontend_for(sim.core().topology(), client.node);
    let n = *world.nodes();
    let candidates = [
        (
            n.ualberta,
            routing_detours::netsim::flow::FlowClass::Research,
        ),
        (n.umich, routing_detours::netsim::flow::FlowClass::PlanetLab),
    ];
    let tivs = routing_detours::detour_core::find_bandwidth_tivs(
        sim.core(),
        client.node,
        client.class,
        frontend,
        &candidates,
    )
    .unwrap_or_else(|e| {
        eprintln!("tiv scan failed: {e}");
        std::process::exit(1);
    });
    if tivs.is_empty() {
        println!(
            "no bandwidth TIV: no candidate detour can beat the direct path from {} to {}",
            client.name,
            provider.kind.display_name()
        );
        return;
    }
    println!(
        "bandwidth triangle-inequality violations, {} -> {}:",
        client.name,
        provider.kind.display_name()
    );
    let mut name_of = |id| sim.core().topology().node(id).name.clone();
    for t in tivs {
        println!(
            "  via {:<24} direct {} vs detour {} ({:.2}x)",
            name_of(t.via),
            t.direct,
            t.detour,
            t.ratio()
        );
    }
}

fn simulate(args: &Args, world: &NorthAmerica) {
    let client = world.client(args.client());
    let provider = world.provider(args.provider());
    let size = args.size_bytes();
    let runs: u64 = args.num("runs", 1, 1..);
    let seed: u64 = args.num("seed", 1, ..);
    let route_name = args
        .flags
        .get("route")
        .cloned()
        .unwrap_or_else(|| "direct".into());
    let route = route_by_name(world, &route_name);

    let mut secs = Vec::new();
    for r in 0..runs {
        let mut sim = world.build_sim(seed.wrapping_add(r));
        let report = run_job(
            &mut sim,
            client.node,
            client.class,
            &provider,
            size,
            &route,
            UploadOptions::warm(client.class),
        )
        .unwrap_or_else(|e| {
            eprintln!("simulation failed: {e}");
            std::process::exit(1);
        });
        secs.push(report.secs());
    }
    let stats = routing_detours::measure::Stats::from_samples(&secs);
    println!(
        "{} -> {} ({}), {} MB, {}: {:.2} s ± {:.2} over {} run(s)",
        client.name,
        provider.kind.display_name(),
        route.label(),
        size / MB,
        if runs > 1 { "mean" } else { "time" },
        stats.mean,
        stats.std_dev,
        runs
    );
}

fn best_route(args: &Args, world: &NorthAmerica) {
    let client = world.client(args.client());
    let provider = world.provider(args.provider());
    let size = args.size_bytes();
    let rule = match args.flags.get("rule").map(String::as_str) {
        None | Some("overlap") => DecisionRule::OverlapAware,
        Some("mean") => DecisionRule::MeanOnly,
        Some(_) => usage(),
    };
    let routes = vec![
        Route::Direct,
        Route::via(world.hop_ualberta()),
        Route::via(world.hop_umich()),
    ];
    let oracle = routing_detours::detour_core::OracleSelector {
        protocol: RunProtocol::paper(),
    };
    let (choice, stats) = oracle
        .choose(world, &client, &provider, &routes, size, "cli", 0)
        .unwrap_or_else(|e| {
            eprintln!("measurement failed: {e}");
            std::process::exit(1);
        });
    println!(
        "measured ({} MB to {}):",
        size / MB,
        provider.kind.display_name()
    );
    for (route, s) in routes.iter().zip(&stats) {
        println!("  {:<14} {:.2} s ± {:.2}", route.label(), s.mean, s.std_dev);
    }
    let best_detour = (1..routes.len())
        .min_by(|&a, &b| stats[a].mean.partial_cmp(&stats[b].mean).expect("finite"))
        .expect("detours present");
    let decision = if rule.prefer_detour(&stats[0], &stats[best_detour]) {
        routes[best_detour].label()
    } else if choice.route_idx == 0 {
        "Direct".to_string()
    } else {
        // Mean says detour but the rule refused (overlapping error bars).
        format!(
            "Direct (detour {} overlaps; rule = overlap-aware)",
            routes[best_detour].label()
        )
    };
    println!("decision: {decision}");
}

fn traceroute(args: &Args, world: &NorthAmerica) {
    let client = world.client(args.client());
    let provider = world.provider(args.provider());
    let mut sim = world.build_sim(args.num("seed", 5, ..));
    let frontend = provider.frontend_for(sim.core().topology(), client.node);
    let tr = Traceroute::run(sim.core(), client.node, frontend).unwrap_or_else(|e| {
        eprintln!("traceroute failed: {e}");
        std::process::exit(1);
    });
    print!("{tr}");
}

fn probe(args: &Args, world: &NorthAmerica) {
    let client = world.client(args.client());
    let mut sim = world.build_sim(args.num("seed", 1, ..));
    println!("idle-path rate estimates from {}:", client.name);
    let n = *world.nodes();
    let targets: [(&str, routing_detours::netsim::topology::NodeId); 5] = [
        ("Google Drive POP", n.google_pop),
        ("Dropbox POP", n.dropbox_pop),
        ("OneDrive POP", n.onedrive_pop),
        ("UAlberta DTN", n.ualberta),
        ("UMich DTN", n.umich),
    ];
    for (label, node) in targets {
        match sim.core().bottleneck(client.node, node, client.class) {
            Ok(b) => println!("  {label:<18} {b}"),
            Err(e) => println!("  {label:<18} unreachable ({e})"),
        }
    }
}
