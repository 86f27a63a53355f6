//! A census of what the user paths record, swept once over the emitters
//! they run. Every metric the stack emits must follow the dotted naming
//! scheme (`crate.subsystem.metric`, lowercase `[a-z0-9_]` segments) that
//! `obs::is_valid_metric_name` enforces; the registry debug-asserts at
//! record time, and the sweep catches a non-conforming name even in
//! release builds. Every event the health plane reads must be recorded by
//! some path, so a consumer cannot outlive its producer unnoticed.

use routing_detours::cloudstore::{FaultPlan, Provider, ProviderKind, UploadOptions};
use routing_detours::detour_core::monitor::{MonitorConfig, ProbeLeg, RouteMonitor};
use routing_detours::detour_core::{run_job, Route};
use routing_detours::netsim::engine::Sim;
use routing_detours::netsim::time::SimTime;
use routing_detours::netsim::units::MB;
use routing_detours::obs;
use routing_detours::relay::pipeline::pipelined_upload;
use routing_detours::relay::{detour_upload_sync, ChunkStore, SyncAttachment};
use routing_detours::scenarios::{Client, NorthAmerica};
use routing_detours::transfer::{ChunkManifest, RsyncWirePlan, DEFAULT_CHUNK_SIZE};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;
use std::sync::OnceLock;

/// Names the sweep must record: one or more per emitting layer, so an
/// emitter that goes quiet fails here as surely as a malformed name.
const REQUIRED: &[&str] = &[
    "cloudstore.bytes.dropbox",
    "cloudstore.bytes.google_drive",
    "cloudstore.retries",
    "cloudstore.rpcs",
    "cloudstore.throttles",
    "core.bytes.route.direct",
    "core.bytes.route.via_ualberta",
    "core.monitor.probes",
    "netsim.active_flows",
    "netsim.bytes_delivered",
    "netsim.flows_started",
    "netsim.link_utilization_pct",
    "netsim.reallocations",
    "netsim.rpcs",
    "relay.chunk.hits",
    "relay.chunk.misses",
    "relay.chunk.saved_bytes",
    "relay.staging_bytes",
];

/// Event names the health plane matches on: the arms of
/// `HealthBoard::ingest` (crates/obs/src/health.rs) and the retry
/// waterfall of `obs::analyze` (crates/obs/src/analyze.rs). A name added
/// there belongs here, with a sweep below that records it.
const HEALTH_PLANE_EVENTS: &[&str] = &[
    "chunk.retry",
    "chunk.throttled",
    "job.error",
    "monitor.probe",
    "session.error",
];

/// Metric and event names recorded by the sweeps.
#[derive(Default)]
struct Census {
    metrics: BTreeSet<String>,
    events: BTreeSet<&'static str>,
}

/// Run `body` on a fresh telemetry-enabled sim and add every metric and
/// event name it recorded to the census.
fn sweep(world: &NorthAmerica, census: &mut Census, body: impl FnOnce(&mut Sim)) {
    let mut sim = world.build_sim(3);
    sim.enable_telemetry();
    body(&mut sim);
    let rec = sim.take_telemetry().expect("telemetry was enabled");
    census
        .metrics
        .extend(rec.metrics.snapshot().rows.into_iter().map(|row| row.name));
    census.events.extend(rec.events.iter().map(|e| e.name));
}

/// A store-and-forward detour through UAlberta whose rsync legs carry a
/// delta-sync attachment; run twice, so the second run hits the chunks
/// the first one admitted.
fn sync_detour(world: &NorthAmerica, sim: &mut Sim, provider: &Provider) {
    let client = world.client(Client::Ubc);
    let hop = world.hop_ualberta();
    let basis: Vec<u8> = (0..(512u32 << 10)).map(|i| (i * 31 % 251) as u8).collect();
    let mut target = basis.clone();
    target[100_000..101_000].fill(7);
    let store = Rc::new(RefCell::new(ChunkStore::new(64 * MB)));
    for _ in 0..2 {
        detour_upload_sync(
            sim,
            vec![client.node, hop.node],
            vec![client.class, hop.class],
            provider,
            target.len() as u64,
            UploadOptions::warm(client.class),
            SyncAttachment {
                plan: RsyncWirePlan::exact(&basis, &target, 2048),
                manifest: ChunkManifest::of(&target, DEFAULT_CHUNK_SIZE),
                stores: vec![Rc::clone(&store)],
            },
        )
        .expect("delta-sync detour");
    }
}

/// The census of every path a user runs, swept once per test binary.
fn census() -> &'static Census {
    static CENSUS: OnceLock<Census> = OnceLock::new();
    CENSUS.get_or_init(sweep_user_paths)
}

fn sweep_user_paths() -> Census {
    let world = NorthAmerica::new();
    let ubc = world.client(Client::Ubc);
    let drive = world.provider(ProviderKind::GoogleDrive);
    let mut found = Census::default();

    // Direct and store-and-forward jobs, one to a provider whose display
    // name has a space in it (sanitization).
    for (route, kind) in [
        (Route::Direct, ProviderKind::Dropbox),
        (Route::via(world.hop_ualberta()), ProviderKind::GoogleDrive),
    ] {
        let provider = world.provider(kind);
        sweep(&world, &mut found, |sim| {
            let opts = UploadOptions::warm(ubc.class);
            run_job(sim, ubc.node, ubc.class, &provider, 20 * MB, &route, opts).expect("job");
        });
    }

    // A pipelined relay through UAlberta.
    sweep(&world, &mut found, |sim| {
        let hop = world.hop_ualberta();
        pipelined_upload(
            sim,
            ubc.node,
            hop.node,
            &drive,
            20 * MB,
            ubc.class,
            hop.class,
        )
        .expect("pipelined relay");
    });

    sweep(&world, &mut found, |sim| sync_detour(&world, sim, &drive));

    // A flaky provider: the retry and throttle counters.
    let flaky = world
        .provider(ProviderKind::Dropbox)
        .with_faults(FaultPlan::flaky());
    sweep(&world, &mut found, |sim| {
        let opts = UploadOptions::warm(ubc.class);
        run_job(
            sim,
            ubc.node,
            ubc.class,
            &flaky,
            200 * MB,
            &Route::Direct,
            opts,
        )
        .expect("flaky upload");
    });

    // A provider that throttles every request: the session spends its
    // retry budget and fails, and so does the job.
    let hopeless = world
        .provider(ProviderKind::Dropbox)
        .with_faults(FaultPlan {
            throttle_prob: 1.0,
            ..FaultPlan::flaky()
        });
    sweep(&world, &mut found, |sim| {
        let opts = UploadOptions::warm(ubc.class);
        let err = run_job(
            sim,
            ubc.node,
            ubc.class,
            &hopeless,
            20 * MB,
            &Route::Direct,
            opts,
        )
        .expect_err("every request is throttled");
        assert!(err.to_string().contains("budget"), "{err}");
    });

    // The route monitor's probes, direct against via UAlberta.
    sweep(&world, &mut found, |sim| {
        let hop = world.hop_ualberta();
        let frontend = drive.frontend_for(sim.core().topology(), ubc.node);
        let leg = |src, dst, class| ProbeLeg { src, dst, class };
        let cfg = MonitorConfig {
            routes: vec![
                vec![leg(ubc.node, frontend, ubc.class)],
                vec![
                    leg(ubc.node, hop.node, ubc.class),
                    leg(hop.node, frontend, hop.class),
                ],
            ],
            probe_bytes: MB,
            reference_bytes: 50 * MB,
            interval: SimTime::from_secs(10),
            epochs: 2,
            alpha: 0.5,
        };
        sim.run_process(Box::new(RouteMonitor::new(cfg)))
            .expect("monitor");
    });
    found
}

#[test]
fn every_recorded_metric_follows_the_naming_scheme() {
    let names = &census().metrics;
    let missing: Vec<&str> = REQUIRED
        .iter()
        .copied()
        .filter(|n| !names.contains(*n))
        .collect();
    assert!(missing.is_empty(), "the sweep recorded none of {missing:?}");
    let bad: Vec<&String> = names
        .iter()
        .filter(|n| !obs::is_valid_metric_name(n))
        .collect();
    assert!(
        bad.is_empty(),
        "metrics violating the dotted naming scheme: {bad:?}"
    );
}

#[test]
fn every_event_the_health_plane_reads_is_recorded() {
    let unrecorded: Vec<&str> = HEALTH_PLANE_EVENTS
        .iter()
        .copied()
        .filter(|n| !census().events.contains(n))
        .collect();
    assert!(
        unrecorded.is_empty(),
        "the health plane reads {unrecorded:?}, which no swept path records"
    );
}

#[test]
fn sanitizer_makes_display_names_conform() {
    for raw in ["Google Drive", "via UAlberta+UMich", "OneDrive", ""] {
        let name = format!("cloudstore.bytes.{}", obs::metric_segment(raw));
        assert!(
            obs::is_valid_metric_name(&name),
            "segment for {raw:?} produced invalid name {name}"
        );
    }
}
