//! Integration tests: faults, throttling, token expiry and deadlines on
//! the calibrated scenario.

use routing_detours::cloudstore::{FaultPlan, ProviderKind, RetryPolicy, UploadOptions};
use routing_detours::detour_core::{run_job, JobDetail, Route};
use routing_detours::netsim::error::NetError;
use routing_detours::netsim::flow::FlowClass;
use routing_detours::netsim::time::SimTime;
use routing_detours::netsim::units::MB;
use routing_detours::scenarios::{Client, NorthAmerica};

#[test]
fn flaky_frontend_is_survivable_via_retries() {
    let world = NorthAmerica::new();
    let client = world.client(Client::Ubc);
    let provider = world
        .provider(ProviderKind::GoogleDrive)
        .with_faults(FaultPlan::flaky());
    let mut sim = world.build_sim(21);
    let report = run_job(
        &mut sim,
        client.node,
        client.class,
        &provider,
        60 * MB,
        &Route::Direct,
        UploadOptions::warm(FlowClass::PlanetLab),
    )
    .expect("flaky upload still completes");
    // Compare against the clean provider: faults must cost time.
    let clean = world.provider(ProviderKind::GoogleDrive);
    let mut sim = world.build_sim(21);
    let clean_report = run_job(
        &mut sim,
        client.node,
        client.class,
        &clean,
        60 * MB,
        &Route::Direct,
        UploadOptions::warm(FlowClass::PlanetLab),
    )
    .unwrap();
    assert!(report.elapsed >= clean_report.elapsed);
}

#[test]
fn detours_carry_fault_handling_too() {
    let world = NorthAmerica::new();
    let client = world.client(Client::Ubc);
    let provider = world
        .provider(ProviderKind::GoogleDrive)
        .with_faults(FaultPlan::flaky());
    let mut sim = world.build_sim(22);
    let report = run_job(
        &mut sim,
        client.node,
        client.class,
        &provider,
        60 * MB,
        &Route::via(world.hop_ualberta()),
        UploadOptions::warm(FlowClass::Research),
    )
    .expect("flaky detoured upload completes");
    assert_eq!(report.bytes, 60 * MB);
}

#[test]
fn token_expiry_mid_campaign_is_handled() {
    // Purdue→Google direct at ~1 Mbps: a 100 MB upload outlives the
    // 3600 s token on bad seeds; the session must refresh, not fail.
    let world = NorthAmerica::new();
    let client = world.client(Client::Purdue);
    let provider = world.provider(ProviderKind::GoogleDrive);
    for seed in 0..5 {
        let mut sim = world.build_sim(seed);
        let report = run_job(
            &mut sim,
            client.node,
            client.class,
            &provider,
            100 * MB,
            &Route::Direct,
            UploadOptions::warm(FlowClass::PlanetLab),
        )
        .expect("upload completes despite token expiry risk");
        assert_eq!(report.bytes, 100 * MB);
    }
}

#[test]
fn throttle_storm_exhausts_the_retry_budget_in_bounded_sim_time() {
    // Every part request answered 429: throttle waits must charge the
    // shared retry budget, ending the session with a typed error instead
    // of the historical unbounded 429-retry loop.
    let world = NorthAmerica::new();
    let client = world.client(Client::Ubc);
    let mut faults = FaultPlan::flaky();
    faults.throttle_prob = 1.0;
    faults.transient_prob = 0.0;
    let provider = world
        .provider(ProviderKind::GoogleDrive)
        .with_faults(faults);
    let mut sim = world.build_sim(17);
    let err = run_job(
        &mut sim,
        client.node,
        client.class,
        &provider,
        10 * MB,
        &Route::Direct,
        UploadOptions::warm(FlowClass::PlanetLab),
    )
    .expect_err("a 100% throttle storm can never complete");
    assert!(
        matches!(err, NetError::RetryBudgetExhausted { .. }),
        "expected retry-budget exhaustion, got {err:?}"
    );
    // Budget of 20 waits x 2s Retry-After plus overheads: well under an
    // hour of simulated time, and nowhere near an infinite loop.
    assert!(
        sim.now() < SimTime::from_secs(3600),
        "throttle storm ran for {} of sim time",
        sim.now()
    );
}

#[test]
fn transfer_deadline_is_honored_end_to_end() {
    // A hard 2 s deadline under heavy throttling: the session must give
    // up with DeadlineExceeded rather than keep waiting out 429s.
    let world = NorthAmerica::new();
    let client = world.client(Client::Ubc);
    let mut faults = FaultPlan::flaky();
    faults.throttle_prob = 0.5;
    faults.transient_prob = 0.0;
    let provider = world
        .provider(ProviderKind::GoogleDrive)
        .with_faults(faults);
    let mut opts = UploadOptions::warm(FlowClass::PlanetLab);
    opts.retry = Some(RetryPolicy::from_plan(&faults).with_deadline(SimTime::from_secs(2)));
    let mut sim = world.build_sim(23);
    let err = run_job(
        &mut sim,
        client.node,
        client.class,
        &provider,
        60 * MB,
        &Route::Direct,
        opts,
    )
    .expect_err("2s is not enough for 60 MB under 50% throttling");
    assert!(
        matches!(err, NetError::DeadlineExceeded { .. }),
        "expected deadline exceeded, got {err:?}"
    );
}

#[test]
fn faulty_runs_are_deterministic_per_seed() {
    // The retry path draws jittered backoffs from the sim PRNG; two
    // same-seed runs must still be bit-identical, stats included.
    let world = NorthAmerica::new();
    let client = world.client(Client::Ubc);
    let provider = world
        .provider(ProviderKind::Dropbox)
        .with_faults(FaultPlan::flaky());
    let run = |seed: u64| {
        let mut sim = world.build_sim(seed);
        let report = run_job(
            &mut sim,
            client.node,
            client.class,
            &provider,
            100 * MB,
            &Route::Direct,
            UploadOptions::warm(FlowClass::PlanetLab),
        )
        .expect("flaky upload completes");
        match report.detail {
            JobDetail::Direct(stats) => stats,
            _ => unreachable!("direct route"),
        }
    };
    let a = run(77);
    let b = run(77);
    assert_eq!(a, b, "same seed must reproduce identical transfer stats");
    assert!(
        a.retries + a.throttles > 0,
        "Dropbox's 4 MiB parts give 100 MB ≈ 24 fault rolls; seed 77 must hit some"
    );
    let c = run(78);
    assert_ne!(a.elapsed, c.elapsed, "different seed, different jitter");
}

#[test]
fn hopeless_frontend_fails_cleanly_not_forever() {
    let world = NorthAmerica::new();
    let client = world.client(Client::Ubc);
    let mut faults = FaultPlan::flaky();
    faults.transient_prob = 1.0;
    faults.throttle_prob = 0.0;
    let provider = world.provider(ProviderKind::Dropbox).with_faults(faults);
    let mut sim = world.build_sim(31);
    let err = run_job(
        &mut sim,
        client.node,
        client.class,
        &provider,
        10 * MB,
        &Route::Direct,
        UploadOptions::warm(FlowClass::PlanetLab),
    )
    .unwrap_err();
    assert!(
        matches!(
            err,
            routing_detours::netsim::error::NetError::Blocked { .. }
        ),
        "expected bounded retries then failure, got {err:?}"
    );
}
