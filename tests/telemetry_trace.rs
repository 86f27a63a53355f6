//! End-to-end telemetry contract on the paper's Fig 2 scenario (UBC →
//! Google Drive): the span hierarchy nests job → session → chunk → RPC →
//! flow, the exporters emit valid, deterministic output, and a campaign
//! replay reproduces the campaign's own seed.

use routing_detours::cloudstore::{ProviderKind, UploadOptions};
use routing_detours::detour_core::{run_job, Route};
use routing_detours::netsim::units::MB;
use routing_detours::obs;
use routing_detours::scenarios::{Client, ExperimentSet, NorthAmerica};

/// One traced 10 MB UBC→Google Drive upload; returns the recording.
fn ubc_gdrive_recording(route: &Route, seed: u64) -> obs::Recording {
    let world = NorthAmerica::new();
    let client = world.client(Client::Ubc);
    let provider = world.provider(ProviderKind::GoogleDrive);
    let mut sim = world.build_sim(seed);
    sim.enable_telemetry();
    run_job(
        &mut sim,
        client.node,
        client.class,
        &provider,
        10 * MB,
        route,
        UploadOptions::warm(client.class),
    )
    .expect("upload succeeds");
    sim.take_telemetry().expect("telemetry enabled")
}

#[test]
fn direct_upload_nests_session_chunk_rpc_flow() {
    let rec = ubc_gdrive_recording(&Route::Direct, 1);
    // At least one flow span sits under rpc.part under part under
    // upload-session under job — the tentpole's required hierarchy.
    let nested = rec.spans.iter().any(|s| {
        if s.name != "flow" {
            return false;
        }
        let chain: Vec<&str> = rec.ancestors(s.id).iter().map(|a| a.name).collect();
        chain == ["rpc.part", "part", "upload-session", "job"]
    });
    assert!(
        nested,
        "no flow span nests rpc.part → part → upload-session → job"
    );
    // Every parent reference points at a recorded span.
    for s in &rec.spans {
        if s.parent.is_some() {
            assert!(
                rec.span(s.parent).is_some(),
                "dangling parent on {}",
                s.name
            );
        }
    }
    // Spans cover each category of the pipeline.
    for name in ["job", "upload-session", "part", "rpc.init", "flow"] {
        assert!(
            rec.spans.iter().any(|s| s.name == name),
            "missing span {name}"
        );
    }
    // Metrics saw the transfer.
    assert_eq!(rec.metrics.counter("core.bytes.route.direct"), 10 * MB);
    assert!(rec.metrics.counter("netsim.flows_started") > 0);
    assert!(rec
        .metrics
        .histogram("netsim.link_utilization_pct")
        .is_some());
}

#[test]
fn detour_upload_adds_relay_spans() {
    let world = NorthAmerica::new();
    let route = Route::via(world.hop_ualberta());
    let rec = ubc_gdrive_recording(&route, 1);
    let leg = rec
        .spans
        .iter()
        .find(|s| s.name == "rsync-leg")
        .expect("detour records an rsync leg");
    let chain: Vec<&str> = rec.ancestors(leg.id).iter().map(|a| a.name).collect();
    assert_eq!(chain, ["store-forward", "job"]);
    assert!(rec.events.iter().any(|e| e.name == "relay.staged"));
    assert_eq!(
        rec.metrics.gauge("relay.staging_bytes").unwrap().max,
        (10 * MB) as f64
    );
}

#[test]
fn exports_are_byte_identical_for_a_fixed_seed() {
    let a = ubc_gdrive_recording(&Route::Direct, 42);
    let b = ubc_gdrive_recording(&Route::Direct, 42);
    // Span balance: a completed traced run leaves no job-tree span open.
    // (Ambient background flows are parentless and perpetual; they may
    // legitimately still be in flight at capture.)
    for s in &a.spans {
        if s.name == "flow" && !s.parent.is_some() {
            continue;
        }
        assert!(s.end_ns.is_some(), "span {} never ended", s.name);
    }
    assert_eq!(
        obs::jsonl_log(&a),
        obs::jsonl_log(&b),
        "JSONL log must be deterministic"
    );
    assert_eq!(
        obs::chrome_trace_json(&a),
        obs::chrome_trace_json(&b),
        "Chrome trace must be deterministic"
    );
    // A different seed shifts background traffic: the trace must differ.
    let c = ubc_gdrive_recording(&Route::Direct, 43);
    assert_ne!(obs::jsonl_log(&a), obs::jsonl_log(&c), "seed must matter");
}

#[test]
fn chrome_trace_is_valid_json_with_nested_span_args() {
    let rec = ubc_gdrive_recording(&Route::Direct, 7);
    let json = obs::chrome_trace_json(&rec);
    let mut p = Json {
        s: json.as_bytes(),
        i: 0,
    };
    p.skip_ws();
    p.value();
    p.skip_ws();
    assert_eq!(p.i, p.s.len(), "trailing garbage after JSON document");
    assert!(json.starts_with("{\"displayTimeUnit\""));
    assert!(json.contains("\"traceEvents\""));
    // Complete (X) events carry parent_span args for the nested spans.
    assert!(json.contains("\"parent_span\""));
    assert_eq!(json.matches("\"ph\":\"X\"").count(), rec.spans.len());
    // Every JSONL line parses on its own, too.
    for line in obs::jsonl_log(&rec).lines() {
        let mut p = Json {
            s: line.as_bytes(),
            i: 0,
        };
        p.skip_ws();
        p.value();
        p.skip_ws();
        assert_eq!(p.i, p.s.len(), "invalid JSONL line: {line}");
    }
}

#[test]
fn aborted_session_exports_balanced_spans() {
    // A hopeless provider (every part fails transiently) aborts the upload
    // mid-transfer. The session must close its own span *and* every chunk
    // span still open at the abort, or exporters emit unbalanced traces.
    use routing_detours::cloudstore::FaultPlan;
    let world = NorthAmerica::new();
    let client = world.client(Client::Ubc);
    let mut faults = FaultPlan::flaky();
    faults.transient_prob = 1.0;
    faults.throttle_prob = 0.0;
    let provider = world.provider(ProviderKind::Dropbox).with_faults(faults);
    let mut sim = world.build_sim(5);
    sim.enable_telemetry();
    let err = run_job(
        &mut sim,
        client.node,
        client.class,
        &provider,
        20 * MB,
        &Route::Direct,
        UploadOptions::warm(client.class),
    )
    .expect_err("hopeless provider must abort");
    // 20 MB is 5 Dropbox parts; the shared retry budget (20) runs out
    // before any single part reaches its per-part retry cap.
    assert!(matches!(
        err,
        routing_detours::netsim::error::NetError::RetryBudgetExhausted { .. }
    ));
    let rec = sim.take_telemetry().expect("telemetry enabled");
    assert!(
        rec.events.iter().any(|e| e.name == "session.error"),
        "abort must be recorded"
    );
    for s in &rec.spans {
        // Ambient background flows (parentless) outlive the job; every
        // span in the aborted job's tree must still be closed.
        if s.name == "flow" && !s.parent.is_some() {
            continue;
        }
        assert!(
            s.end_ns.is_some(),
            "span {} leaked open across the abort",
            s.name
        );
    }
}

#[test]
fn campaign_trace_replay_is_deterministic() {
    let world = NorthAmerica::new();
    let set = ExperimentSet::quick(&world);
    let campaign = set.campaign_spec(Client::Ubc, ProviderKind::GoogleDrive);
    let run = campaign.protocol.discard;
    let (secs_a, rec_a) = campaign.trace_run(0, 0, run).expect("trace run");
    let (secs_b, rec_b) = campaign.trace_run(0, 0, run).expect("trace run");
    assert_eq!(secs_a.to_bits(), secs_b.to_bits());
    assert_eq!(obs::jsonl_log(&rec_a), obs::jsonl_log(&rec_b));
    // `repro --metrics` prints this snapshot: it must hold no wall-clock
    // reading.
    assert_eq!(
        rec_a.metrics.snapshot().to_text(),
        rec_b.metrics.snapshot().to_text()
    );
    assert!(rec_a.spans.iter().any(|s| s.name == "upload-session"));
}

/// Minimal recursive-descent JSON syntax checker: panics (via assert) on
/// malformed input. Checks syntax only — quite enough to catch unescaped
/// quotes, trailing commas, or truncated output from the exporters.
struct Json<'a> {
    s: &'a [u8],
    i: usize,
}

impl Json<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.s.get(self.i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        assert_eq!(
            self.s.get(self.i),
            Some(&c),
            "expected {:?} at byte {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn value(&mut self) {
        self.skip_ws();
        match self.s.get(self.i) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string(),
            Some(b't') => self.literal(b"true"),
            Some(b'f') => self.literal(b"false"),
            Some(b'n') => self.literal(b"null"),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => panic!("unexpected {other:?} at byte {}", self.i),
        }
    }

    fn object(&mut self) {
        self.eat(b'{');
        self.skip_ws();
        if self.s.get(self.i) == Some(&b'}') {
            self.i += 1;
            return;
        }
        loop {
            self.skip_ws();
            self.string();
            self.skip_ws();
            self.eat(b':');
            self.value();
            self.skip_ws();
            match self.s.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return;
                }
                other => panic!("bad object separator {other:?} at byte {}", self.i),
            }
        }
    }

    fn array(&mut self) {
        self.eat(b'[');
        self.skip_ws();
        if self.s.get(self.i) == Some(&b']') {
            self.i += 1;
            return;
        }
        loop {
            self.value();
            self.skip_ws();
            match self.s.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return;
                }
                other => panic!("bad array separator {other:?} at byte {}", self.i),
            }
        }
    }

    fn string(&mut self) {
        self.eat(b'"');
        loop {
            match self.s.get(self.i) {
                Some(b'"') => {
                    self.i += 1;
                    return;
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.s.get(self.i) {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => self.i += 1,
                        Some(b'u') => {
                            for k in 1..=4 {
                                assert!(
                                    self.s.get(self.i + k).is_some_and(u8::is_ascii_hexdigit),
                                    "bad \\u escape at byte {}",
                                    self.i
                                );
                            }
                            self.i += 5;
                        }
                        other => panic!("bad escape {other:?} at byte {}", self.i),
                    }
                }
                Some(c) if *c >= 0x20 => self.i += 1,
                other => panic!("bad string byte {other:?} at byte {}", self.i),
            }
        }
    }

    fn number(&mut self) {
        if self.s.get(self.i) == Some(&b'-') {
            self.i += 1;
        }
        let start = self.i;
        while matches!(
            self.s.get(self.i),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.i += 1;
        }
        assert!(self.i > start, "empty number at byte {start}");
    }

    fn literal(&mut self, lit: &[u8]) {
        assert_eq!(
            self.s.get(self.i..self.i + lit.len()),
            Some(lit),
            "bad literal at byte {}",
            self.i
        );
        self.i += lit.len();
    }
}
