//! Mutation fuzzing of the one JSON codec (`obs::json`) and the two
//! readers built on it, over a corpus shaped like their real inputs: an
//! upload recording's JSONL trace, generated replay specs of all three
//! scenario classes, the checked-in `BENCH_flowsim.json` and the golden
//! health report.
//!
//! `Json::parse`, `obs::parse_jsonl` and `ScenarioSpec::from_json` must
//! never panic on a mutated input, and every syntax error must say on
//! which line and at which byte it stopped.

use proptest::prelude::*;
use routing_detours::cloudstore::{ProviderKind, UploadOptions};
use routing_detours::detour_core::{run_job, Route};
use routing_detours::netsim::units::MB;
use routing_detours::obs::{self, Json, JsonErrorKind, TraceErrorKind};
use routing_detours::scenarios::{Client, NorthAmerica};
use routing_detours::simcheck::{case_seed, ScenarioSpec};
use std::sync::OnceLock;

const BENCH_FLOWSIM: &str = include_str!("../BENCH_flowsim.json");
const HEALTH_REPORT: &str = include_str!("golden/health_report.json");

/// JSONL of a traced 10 MB UBC → Google Drive upload through the UAlberta
/// detour: sessions, parts, RPCs, flows, relay legs and their events.
fn trace_jsonl() -> &'static str {
    static TRACE: OnceLock<String> = OnceLock::new();
    TRACE.get_or_init(|| {
        let world = NorthAmerica::new();
        let client = world.client(Client::Ubc);
        let provider = world.provider(ProviderKind::GoogleDrive);
        let mut sim = world.build_sim(1);
        sim.enable_telemetry();
        run_job(
            &mut sim,
            client.node,
            client.class,
            &provider,
            10 * MB,
            &Route::via(world.hop_ualberta()),
            UploadOptions::warm(client.class),
        )
        .expect("upload succeeds");
        obs::jsonl_log(&sim.take_telemetry().expect("telemetry enabled"))
    })
}

/// The corpus: the trace, three specs per scenario class, and the two
/// checked-in reports.
fn corpus() -> &'static [String] {
    static CORPUS: OnceLock<Vec<String>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let mut docs = vec![
            trace_jsonl().to_string(),
            BENCH_FLOWSIM.to_string(),
            HEALTH_REPORT.to_string(),
        ];
        for i in 0..3 {
            let seed = case_seed(21, i);
            docs.push(ScenarioSpec::generate(seed).to_json());
            docs.push(ScenarioSpec::generate_chaos(seed).to_json());
            docs.push(ScenarioSpec::generate_sync(seed).to_json());
        }
        docs
    })
}

/// Bytes that steer a JSON parser: structure, string, number and literal
/// starts, whitespace, and a multi-byte character.
const SIGNIFICANT: [&str; 18] = [
    "{", "}", "[", "]", "\"", "\\", ",", ":", "-", "0", "9", "e", ".", "t", "n", " ", "\n", "é",
];

/// Largest char boundary at or below `i`.
fn floor_boundary(s: &str, i: usize) -> usize {
    let mut i = i.min(s.len());
    while !s.is_char_boundary(i) {
        i -= 1;
    }
    i
}

/// Apply mutation `kind` to `doc`; `a`, `b` pick positions and lengths.
fn mutate(doc: &str, kind: u8, a: usize, b: usize, other: &str) -> String {
    let at = floor_boundary(doc, a % (doc.len() + 1));
    match kind {
        // Truncate.
        0 => doc[..at].to_string(),
        // Delete a short run.
        1 => {
            let end = floor_boundary(doc, at + 1 + b % 16);
            format!("{}{}", &doc[..at], &doc[end..])
        }
        // Insert a JSON-significant byte.
        2 => format!(
            "{}{}{}",
            &doc[..at],
            SIGNIFICANT[b % SIGNIFICANT.len()],
            &doc[at..]
        ),
        // Splice: one line of another document replaces one of this one.
        3 => {
            let theirs: Vec<&str> = other.lines().collect();
            let mut ours: Vec<&str> = doc.lines().collect();
            let line = theirs[b % theirs.len()];
            let n = ours.len();
            ours[a % n] = line;
            ours.join("\n")
        }
        // Nest deeply, shallow to far past the cap.
        _ => {
            let depth = [2, 64, 127, 128, 129, 5_000, 200_000][b % 7];
            let open = ["[", "{\"k\":"][b % 2];
            format!("{}{}{}", &doc[..at], open.repeat(depth), &doc[at..])
        }
    }
}

/// Every error the three readers return is located and panic-free.
fn check_readers(text: &str) {
    match Json::parse(text) {
        // Whatever parses renders to something that parses again.
        Ok(v) => assert!(Json::parse(&v.render()).is_ok(), "{text}"),
        Err(e) => {
            assert!(e.offset <= text.len(), "{e} beyond {} bytes", text.len());
            assert_eq!(e.line, 1 + text[..e.offset].matches('\n').count(), "{e}");
        }
    }
    if let Err(e) = obs::parse_jsonl(text, "fuzz.jsonl") {
        let lines: Vec<&str> = text.lines().collect();
        match (&e.kind, e.line) {
            (TraceErrorKind::Empty, None) => assert!(text.trim().is_empty()),
            (kind, Some(line)) => {
                assert!((1..=lines.len()).contains(&line), "{e}");
                if let TraceErrorKind::BadJson(j) = kind {
                    assert!(j.offset <= lines[line - 1].trim().len(), "{e}");
                }
            }
            _ => panic!("unlocated trace error: {e}"),
        }
        assert!(e.to_string().contains("hint:"), "{e}");
    }
    if let Err(e) = ScenarioSpec::from_json(text) {
        assert!(!e.is_empty());
        if Json::parse(text).is_err() {
            assert!(e.contains(" at line ") && e.contains(", byte "), "{e}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn mutated_inputs_never_panic_and_errors_are_located(
        doc in 0usize..64,
        other in 0usize..64,
        kind in 0u8..5,
        a in 0usize..1 << 20,
        b in 0usize..1 << 20,
    ) {
        let docs = corpus();
        let text = mutate(&docs[doc % docs.len()], kind, a, b, &docs[other % docs.len()]);
        check_readers(&text);
    }
}

#[test]
fn every_truncation_of_small_documents_is_an_error() {
    for doc in corpus().iter().filter(|d| d.len() < 2_000) {
        let doc = doc.trim_end();
        for cut in (0..doc.len()).filter(|&i| doc.is_char_boundary(i)) {
            let text = &doc[..cut];
            check_readers(text);
            let e = Json::parse(text).expect_err(text);
            assert_eq!(e.kind, JsonErrorKind::Eof, "{text}");
        }
    }
}

#[test]
fn cutting_the_last_trace_line_reports_truncated() {
    let full = trace_jsonl();
    let body = full.trim_end_matches('\n');
    let last_start = body.rfind('\n').map_or(0, |i| i + 1);
    let last_line = body.lines().count();
    for cut in (last_start + 1..body.len()).filter(|&i| body.is_char_boundary(i)) {
        let e = obs::parse_jsonl(&body[..cut], "cut.jsonl").expect_err("cut line");
        assert_eq!(e.kind, TraceErrorKind::Truncated, "cut at {cut}: {e}");
        assert_eq!(e.line, Some(last_line));
    }
    // A cut anywhere else inside a line is corrupt rather than truncated.
    let e = obs::parse_jsonl(&format!("{}\n{full}", &body[..40]), "mid.jsonl").unwrap_err();
    assert!(matches!(e.kind, TraceErrorKind::BadJson(_)), "{e}");
    assert_eq!(e.line, Some(1));
}

#[test]
fn checked_in_reports_round_trip_byte_for_byte() {
    assert_eq!(Json::parse(BENCH_FLOWSIM).unwrap().render(), BENCH_FLOWSIM);
    let health = HEALTH_REPORT.trim_end();
    assert_eq!(Json::parse(health).unwrap().render(), health);
}

#[test]
fn extreme_integers_round_trip_exactly() {
    for (text, value) in [
        ("18446744073709551615", Json::Int(u64::MAX)),
        ("-9223372036854775808", Json::NegInt(i64::MIN)),
    ] {
        let parsed = Json::parse(text).unwrap();
        assert_eq!(parsed, value);
        assert_eq!(parsed.render(), text);
    }
}

/// Trace args read back as their JSONL text parses, whether the trace is
/// built from the recording directly or parsed from its export.
#[test]
fn signed_and_unsigned_trace_args_read_back_as_recorded() {
    let mut tele = obs::Telemetry::enabled();
    let span = tele.span_begin_with(0, obs::Category::Control, "job", obs::SpanId::NONE, |a| {
        a.set("min", i64::MIN)
            .set("neg", -7i64)
            .set("pos", 7i64)
            .set("max", u64::MAX)
            .set("rate", 0.5f64)
            .set("whole", 5_500_000.0f64)
            .set("neg_whole", -3.0f64)
            .set("neg_zero", -0.0f64)
            .set("two_pow_63", 9_223_372_036_854_775_808.0f64)
            .set("huge", 1e300f64)
            .set("nan", f64::NAN)
            .set("inf", f64::INFINITY)
            .set("note", "5xx \"retry\"\n\t\u{1}\\ — é");
    });
    tele.span_end(1, span);
    let rec = tele.take().unwrap();
    let trace = obs::Trace::from_recording(&rec);
    let parsed = obs::parse_jsonl(&obs::jsonl_log(&rec), "<test>").unwrap();
    assert_eq!(trace, parsed);
    // Debug tells -0.0 from 0.0, which `==` does not.
    assert_eq!(format!("{trace:?}"), format!("{parsed:?}"));
    let arg = |k| trace.spans[0].arg(k).cloned();
    use routing_detours::obs::trace::TraceValue;
    assert_eq!(arg("min"), Some(TraceValue::I64(i64::MIN)));
    assert_eq!(arg("neg"), Some(TraceValue::I64(-7)));
    assert_eq!(arg("pos"), Some(TraceValue::U64(7)));
    assert_eq!(arg("max"), Some(TraceValue::U64(u64::MAX)));
    assert_eq!(arg("rate"), Some(TraceValue::F64(0.5)));
    assert_eq!(arg("whole"), Some(TraceValue::U64(5_500_000)));
    assert_eq!(arg("neg_whole"), Some(TraceValue::I64(-3)));
    assert!(
        matches!(arg("neg_zero"), Some(TraceValue::F64(z)) if z == 0.0 && z.is_sign_negative())
    );
    // 2^63 prints in its shortest round-trip form, which reads back as a
    // nearby integer rather than 2^63 itself.
    assert_eq!(
        arg("two_pow_63"),
        Some(TraceValue::U64(9_223_372_036_854_776_000))
    );
    assert_eq!(arg("huge"), Some(TraceValue::F64(1e300)));
    assert_eq!(arg("nan"), Some(TraceValue::Null));
    assert_eq!(arg("inf"), Some(TraceValue::Null));
    assert_eq!(
        arg("note").as_ref().and_then(TraceValue::as_str),
        Some("5xx \"retry\"\n\t\u{1}\\ — é")
    );
}
