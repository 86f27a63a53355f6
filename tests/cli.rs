//! Integration tests for the `detour` CLI binary.

use std::process::Command;

fn detour(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_detour"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn no_args_prints_usage() {
    let (_, err, ok) = detour(&[]);
    assert!(!ok);
    assert!(err.contains("usage:"), "{err}");
}

#[test]
fn simulate_direct_and_detour() {
    let (out, _, ok) = detour(&[
        "simulate",
        "--client",
        "ubc",
        "--provider",
        "gdrive",
        "--size",
        "100",
    ]);
    assert!(ok, "{out}");
    assert!(
        out.contains("UBC -> Google Drive (Direct), 100 MB"),
        "{out}"
    );
    let direct: f64 = out
        .split(": ")
        .nth(1)
        .unwrap()
        .split(" s")
        .next()
        .unwrap()
        .parse()
        .unwrap();

    let (out2, _, ok2) = detour(&[
        "simulate",
        "--client",
        "ubc",
        "--provider",
        "gdrive",
        "--size",
        "100",
        "--route",
        "ualberta",
    ]);
    assert!(ok2, "{out2}");
    let detoured: f64 = out2
        .split(": ")
        .nth(1)
        .unwrap()
        .split(" s")
        .next()
        .unwrap()
        .parse()
        .unwrap();
    assert!(
        detoured < direct,
        "detour {detoured} should beat direct {direct}"
    );
}

#[test]
fn simulate_multi_run_reports_sigma() {
    let (out, _, ok) = detour(&[
        "simulate",
        "--client",
        "purdue",
        "--provider",
        "gdrive",
        "--size",
        "30",
        "--runs",
        "3",
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("over 3 run(s)"), "{out}");
    assert!(out.contains('±'), "{out}");
}

#[test]
fn best_route_picks_detour_for_ubc_gdrive() {
    let (out, _, ok) = detour(&[
        "best-route",
        "--client",
        "ubc",
        "--provider",
        "gdrive",
        "--size",
        "60",
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("decision: via UAlberta"), "{out}");
}

#[test]
fn best_route_prefers_direct_from_ucla() {
    let (out, _, ok) = detour(&[
        "best-route",
        "--client",
        "ucla",
        "--provider",
        "dropbox",
        "--size",
        "30",
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("decision: Direct"), "{out}");
}

#[test]
fn traceroute_shows_pacificwave_for_ubc_gdrive() {
    let (out, _, ok) = detour(&["traceroute", "--client", "ubc", "--provider", "gdrive"]);
    assert!(ok, "{out}");
    assert!(out.contains("vncv1rtr2.canarie.ca"), "{out}");
    assert!(out.contains("pacificwave"), "{out}");
}

#[test]
fn probe_lists_all_targets() {
    let (out, _, ok) = detour(&["probe", "--client", "purdue"]);
    assert!(ok, "{out}");
    for label in [
        "Google Drive POP",
        "Dropbox POP",
        "OneDrive POP",
        "UAlberta DTN",
        "UMich DTN",
    ] {
        assert!(out.contains(label), "missing {label}: {out}");
    }
    assert!(out.contains("Mbps"), "{out}");
}

#[test]
fn tiv_found_for_ubc_gdrive_but_not_ucla() {
    let (out, _, ok) = detour(&["tiv", "--client", "ubc", "--provider", "gdrive"]);
    assert!(ok, "{out}");
    assert!(out.contains("violations"), "{out}");
    assert!(out.contains("ualberta"), "{out}");

    let (out2, _, ok2) = detour(&["tiv", "--client", "ucla", "--provider", "gdrive"]);
    assert!(ok2, "{out2}");
    assert!(out2.contains("no bandwidth TIV"), "{out2}");
}

#[test]
fn check_emits_json_verdict_and_replays() {
    let (out, err, ok) = detour(&["check", "--cases", "8", "--seed", "7"]);
    assert!(ok, "stdout: {out}\nstderr: {err}");
    assert!(out.contains("\"ok\":true"), "{out}");
    assert!(out.contains("\"passed\":8"), "{out}");
    assert!(err.contains("8 passed, 0 failed"), "{err}");

    // Save a generated scenario spec and replay it from a file.
    let spec = routing_detours::simcheck::ScenarioSpec::generate(
        routing_detours::simcheck::case_seed(7, 0),
    );
    let dir = std::env::temp_dir().join("detour-check-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("spec.json");
    std::fs::write(&path, spec.to_json()).unwrap();
    let (out2, err2, ok2) = detour(&["check", "--replay", path.to_str().unwrap()]);
    assert!(ok2, "stdout: {out2}\nstderr: {err2}");
    assert!(out2.contains("\"ok\":true"), "{out2}");
    assert!(out2.contains("\"passed\":1"), "{out2}");

    // A corrupt spec fails cleanly.
    std::fs::write(&path, "{not json").unwrap();
    let (_, err3, ok3) = detour(&["check", "--replay", path.to_str().unwrap()]);
    assert!(!ok3);
    assert!(err3.contains("bad scenario spec"), "{err3}");
}

/// Run `detour` expecting a clean failure: exit code 1, no panic.
fn detour_fails_cleanly(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_detour"))
        .args(args)
        .output()
        .expect("binary runs");
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
    assert!(!err.contains("panicked"), "{args:?}: {err}");
    err
}

#[test]
fn out_of_range_replay_spec_exits_1_naming_the_field() {
    use routing_detours::simcheck::{case_seed, ScenarioSpec, TopoSpec};
    let mut spec = ScenarioSpec::generate(case_seed(7, 0));
    spec.jitter_pct = 150;
    let dir = std::env::temp_dir().join("detour-check-cli-bounds");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("spec.json");
    std::fs::write(&path, spec.to_json()).unwrap();
    let err = detour_fails_cleanly(&["check", "--replay", path.to_str().unwrap()]);
    assert!(err.contains("bad scenario spec"), "{err}");
    assert!(err.contains("\"jitter_pct\" is 150"), "{err}");

    // A link rate above 100,000 Mbps, where a nanosecond of drain-time
    // rounding would trip the byte-conservation oracle, is refused too.
    let mut spec = ScenarioSpec::generate(case_seed(7, 0));
    let field = match &mut spec.topo {
        TopoSpec::Synth { core_mbps, .. } => {
            *core_mbps = 1_000_000;
            "core_mbps"
        }
        TopoSpec::Star { access_mbps, .. } => {
            *access_mbps = 1_000_000;
            "access_mbps"
        }
    };
    std::fs::write(&path, spec.to_json()).unwrap();
    let err = detour_fails_cleanly(&["check", "--replay", path.to_str().unwrap()]);
    assert!(err.contains(&format!("\"{field}\" is 1000000")), "{err}");
}

#[test]
fn deeply_nested_json_is_a_typed_error() {
    let dir = std::env::temp_dir().join("detour-cli-deep-json");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("deep.json");
    std::fs::write(&path, "[".repeat(200_000)).unwrap();
    let path = path.to_str().unwrap();
    let err = detour_fails_cleanly(&["check", "--replay", path]);
    assert!(err.contains("bad scenario spec"), "{err}");
    assert!(err.contains("nesting deeper than"), "{err}");
    let err = detour_fails_cleanly(&["trace", "--from", path]);
    assert!(err.contains("invalid JSON (nesting deeper than"), "{err}");
    assert!(err.contains("hint:"), "{err}");
}

#[test]
fn bad_flags_fail_cleanly() {
    let (_, err, ok) = detour(&[
        "simulate",
        "--client",
        "mars",
        "--provider",
        "gdrive",
        "--size",
        "10",
    ]);
    assert!(!ok);
    assert!(err.contains("usage:"), "{err}");
}

/// Run `detour` expecting a usage error: exit code 2 with the usage text,
/// never a panic or an allocation failure.
fn detour_rejects(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_detour"))
        .args(args)
        .output()
        .expect("binary runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
    assert!(err.contains("usage:"), "{args:?}: {err}");
    assert!(
        !err.contains("panicked") && !err.contains("memory allocation"),
        "{args:?}: {err}"
    );
}

/// Flag values that once panicked, aborted on a huge allocation or were
/// truncated to zero by a narrowing cast are usage errors.
#[test]
fn out_of_range_flag_values_are_usage_errors() {
    let ubc = |cmd: &'static str, extra: &[&'static str]| {
        let mut v = vec![cmd, "--client", "ubc", "--provider", "gdrive"];
        v.extend_from_slice(extra);
        v
    };
    let cases: Vec<Vec<&str>> = vec![
        ubc("simulate", &["--size", "10", "--runs", "0"]),
        ubc("health", &["--size", "10", "--runs", "0"]),
        ubc("analyze", &["--size", "10", "--runs", "0"]),
        vec!["plane", "--lookups", "0"],
        vec!["plane", "--clients", "0"],
        vec!["plane", "--tenants", "0"],
        vec!["plane", "--tenants", "4294967295"],
        vec!["plane", "--threads", "0"],
        vec!["plane", "--threads", "100000000"],
        vec!["sync", "--tenants", "0"],
        vec!["sync", "--files", "0"],
        vec!["sync", "--size-kb", "0"],
        vec!["sync", "--tenants", "4294967296"],
        vec!["sync", "--size-kb", "100000000"],
        vec!["sync", "--files", "4294967295"],
        vec!["sync", "--files", "262144"],
        ubc("simulate", &["--size", "18446744073709"]),
        ubc("trace", &["--size", "18446744073709"]),
        ubc("simulate", &["--size", "18446744073709551615"]),
        ubc("simulate", &["--size", "0"]),
        ubc("best-route", &["--size", "10", "--rule", "bogus"]),
        vec!["check", "--cases", "4294967296"],
        vec!["check", "--cases", "0"],
    ];
    for args in &cases {
        detour_rejects(args);
    }

    // Extreme values inside the ranges still run: seeds wrap instead of
    // overflowing, and the churn-sweep bound saturates.
    let (out, err, ok) = detour(&ubc(
        "simulate",
        &[
            "--size",
            "1",
            "--runs",
            "2",
            "--seed",
            "18446744073709551615",
        ],
    ));
    assert!(ok, "stdout: {out}\nstderr: {err}");
    let (out, err, ok) = detour(&[
        "plane",
        "--lookups",
        "100",
        "--clients",
        "10",
        "--churn-every",
        "18446744073709551615",
    ]);
    assert!(ok, "stdout: {out}\nstderr: {err}");
}

/// Each subcommand takes only its own flags: a flag it does not read, or
/// one it used to read, is a usage error rather than silently ignored.
#[test]
fn unknown_flags_are_usage_errors() {
    detour_rejects(&["check", "--cases", "2", "--threads", "4"]);
    detour_rejects(&["check", "--cases", "2", "--threadz", "3"]);
    detour_rejects(&["probe", "--client", "ubc", "--provider", "gdrive"]);
    detour_rejects(&["sync", "--size", "10"]);
    // analyze has no SLO: the p99 target is health's alone.
    detour_rejects(&[
        "analyze",
        "--client",
        "ubc",
        "--provider",
        "gdrive",
        "--size",
        "1",
        "--runs",
        "1",
        "--slo-p99-secs",
        "bogus",
    ]);
}
