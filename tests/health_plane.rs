//! End-to-end tests of the streaming aggregation & route-health plane:
//! live-vs-recorded scoreboard identity, snapshots of the health and
//! analyze reports, the retry waterfall of a flaky upload, and window
//! flushes driven by the engine clock.
//!
//! The JSON snapshots are the two report pins CI `cmp`s `detour health`
//! and `detour analyze` against (`results/health.json`,
//! `results/analyze.json`); the text snapshots live in `tests/golden`.
//! Regenerate them after an intentional change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test health_plane
//! ```

use routing_detours::cloudstore::{FaultPlan, ProviderKind, UploadOptions};
use routing_detours::detour_core::{run_job, Route};
use routing_detours::netsim::units::MB;
use routing_detours::obs;
use routing_detours::scenarios::{Client, NorthAmerica};
use std::path::PathBuf;

/// Compare `rendered` with the pinned file at `rel` (relative to the
/// repository root), or rewrite the pin under `UPDATE_GOLDEN=1`.
fn assert_golden(rel: &str, rendered: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(rel);
    if std::env::var_os("UPDATE_GOLDEN").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, rendered).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e}\n(run `UPDATE_GOLDEN=1 cargo test --test health_plane` to create it)",
            path.display()
        )
    });
    assert_eq!(
        rendered,
        want,
        "rendered output diverged from {}; if the change is intentional, \
         regenerate with UPDATE_GOLDEN=1 and review the diff",
        path.display()
    );
}

/// One deterministic three-run campaign (UBC → Google Drive via UAlberta),
/// returning the concatenated JSONL recording exactly as
/// `detour health --record` writes it.
fn campaign_jsonl(seed: u64, runs: u64) -> String {
    let world = NorthAmerica::new();
    let client = world.client(Client::Ubc);
    let provider = world.provider(ProviderKind::GoogleDrive);
    let route = Route::via(world.hop_ualberta());
    let mut jsonl = String::new();
    for r in 0..runs {
        let mut sim = world.build_sim(seed + r);
        sim.enable_telemetry();
        run_job(
            &mut sim,
            client.node,
            client.class,
            &provider,
            60 * MB,
            &route,
            UploadOptions::warm(client.class),
        )
        .expect("campaign run succeeds");
        let rec = sim.take_telemetry().expect("telemetry was enabled");
        jsonl.push_str(&obs::jsonl_log(&rec));
    }
    jsonl
}

fn board_for(trace: &obs::Trace) -> obs::HealthReport {
    let mut board = obs::HealthBoard::new(obs::DEFAULT_SLO_P99_NS);
    board.ingest(trace);
    board.report()
}

/// The issue's acceptance criterion: `detour health` must produce the same
/// scoreboard from a live campaign and from its recorded trace for the
/// same seed. The live path parses the in-memory JSONL; the recorded path
/// round-trips the same bytes through a file.
#[test]
fn live_and_recorded_scoreboards_are_identical() {
    let jsonl = campaign_jsonl(7, 3);
    let live = obs::parse_jsonl(&jsonl, "<live>").expect("live parse");

    let dir = std::env::temp_dir().join("detour-health-plane-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("campaign.jsonl");
    std::fs::write(&path, &jsonl).unwrap();
    let recorded = obs::load_trace(&path).expect("recorded parse");
    std::fs::remove_file(&path).ok();

    assert_eq!(live.spans.len(), recorded.spans.len());
    assert_eq!(live.events.len(), recorded.events.len());
    assert_eq!(board_for(&live).to_json(), board_for(&recorded).to_json());
    assert_eq!(board_for(&live).to_text(), board_for(&recorded).to_text());
}

/// Same seed ⇒ byte-identical recording ⇒ byte-identical scoreboard; a
/// different seed still produces the same cell keys (the campaign shape is
/// fixed) but is allowed to differ in timings.
#[test]
fn scoreboard_is_deterministic_per_seed() {
    let a = campaign_jsonl(7, 2);
    let b = campaign_jsonl(7, 2);
    assert_eq!(a, b, "same-seed campaigns must record identical bytes");
}

/// CI's campaign (`detour health --client ubc --provider gdrive --size 60
/// --route ualberta --runs 3 --seed 7`): its JSON report is the
/// `results/health.json` pin.
#[test]
fn health_report_snapshot() {
    let jsonl = campaign_jsonl(7, 3);
    let trace = obs::parse_jsonl(&jsonl, "<live>").expect("parse");
    let report = board_for(&trace);
    assert_golden("tests/golden/health_report.txt", &report.to_text());
    assert_golden("results/health.json", &report.to_json());
}

#[test]
fn analyze_report_snapshot() {
    let jsonl = campaign_jsonl(7, 1);
    let trace = obs::parse_jsonl(&jsonl, "<live>").expect("parse");
    let report = obs::analyze(&trace, 5);
    assert_golden("tests/golden/analyze_report.txt", &report.to_text());
}

/// `detour analyze` of CI's campaign at its default `--top 10`: the
/// `results/analyze.json` pin.
#[test]
fn analyze_json_snapshot() {
    let jsonl = campaign_jsonl(7, 3);
    let trace = obs::parse_jsonl(&jsonl, "<live>").expect("parse");
    assert_golden("results/analyze.json", &obs::analyze(&trace, 10).to_json());
}

/// Every retry-waterfall step of a flaky upload shows its wait: sessions
/// record `backoff_ms` and `wait_ms` as f64 milliseconds, so a jittered
/// backoff reads back from the JSONL as a fraction and an integral
/// throttle wait as an integer.
#[test]
fn flaky_upload_waterfall_shows_every_wait() {
    let world = NorthAmerica::new();
    let client = world.client(Client::Ubc);
    let provider = world
        .provider(ProviderKind::GoogleDrive)
        .with_faults(FaultPlan::flaky());
    let mut sim = world.build_sim(21);
    sim.enable_telemetry();
    run_job(
        &mut sim,
        client.node,
        client.class,
        &provider,
        200 * MB,
        &Route::Direct,
        UploadOptions::warm(client.class),
    )
    .expect("flaky upload completes");
    let rec = sim.take_telemetry().expect("telemetry was enabled");
    let trace = obs::parse_jsonl(&obs::jsonl_log(&rec), "<live>").expect("parse");
    let retries = obs::analyze(&trace, 10).retries;
    for step in &retries {
        let wait = step
            .wait_ms
            .unwrap_or_else(|| panic!("{step:?} has no wait"));
        assert!(wait > 0.0, "{step:?}");
    }
    assert!(
        retries
            .iter()
            .any(|r| r.name == "chunk.retry" && r.wait_ms.is_some_and(|w| w.fract() != 0.0)),
        "a jittered backoff keeps its fraction: {retries:?}"
    );
}

/// The engine clock drives window flushes: a recorded run emits sim-time
/// tumbling windows for flow durations and delivered bytes, aligned to the
/// window width and flushed without any wall-clock involvement.
#[test]
fn engine_emits_watermarked_window_flushes() {
    let world = NorthAmerica::new();
    let client = world.client(Client::Ubc);
    let provider = world.provider(ProviderKind::GoogleDrive);
    let mut sim = world.build_sim(5);
    sim.enable_telemetry();
    run_job(
        &mut sim,
        client.node,
        client.class,
        &provider,
        60 * MB,
        &Route::Direct,
        UploadOptions::warm(client.class),
    )
    .expect("upload succeeds");
    let rec = sim.take_telemetry().expect("telemetry was enabled");
    assert!(
        !rec.window_flushes.is_empty(),
        "a multi-second upload must flush at least one window"
    );
    let width = obs::DEFAULT_WINDOW_NS;
    let mut saw_sketch = false;
    let mut saw_count = false;
    for f in &rec.window_flushes {
        assert_eq!(f.end_ns - f.start_ns, width, "window width for {}", f.name);
        assert_eq!(f.start_ns % width, 0, "window alignment for {}", f.name);
        match &f.value {
            obs::WindowValue::Sketch(s) => {
                assert!(!s.is_empty());
                saw_sketch = true;
            }
            obs::WindowValue::Count(c) => {
                assert!(*c > 0);
                saw_count = true;
            }
        }
    }
    assert!(saw_sketch, "flow-duration sketch windows expected");
    assert!(saw_count, "delivered-bytes count windows expected");
}
