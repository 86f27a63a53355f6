//! Integration tests spanning relay + cloudstore + scenarios: detour
//! mechanics, pipelining, and the paper's arithmetic.

use routing_detours::cloudstore::{ProviderKind, UploadOptions};
use routing_detours::detour_core::{run_job, JobDetail, Route};
use routing_detours::netsim::flow::FlowClass;
use routing_detours::netsim::units::MB;
use routing_detours::relay::pipeline::pipelined_upload;
use routing_detours::scenarios::{Client, NorthAmerica};

#[test]
fn detour_time_is_sum_of_legs() {
    // The paper's intro arithmetic: 36 s = 19 s (rsync) + 17 s (upload).
    let world = NorthAmerica::new();
    let client = world.client(Client::Ubc);
    let drive = world.provider(ProviderKind::GoogleDrive);
    let mut sim = world.build_sim(3);
    let report = run_job(
        &mut sim,
        client.node,
        client.class,
        &drive,
        100 * MB,
        &Route::via(world.hop_ualberta()),
        UploadOptions::warm(FlowClass::Research),
    )
    .expect("detour");
    match report.detail {
        JobDetail::Detour(ref r) => {
            let sum = r.leg_times[0] + r.upload.elapsed;
            assert_eq!(r.total, sum, "store-and-forward must not overlap");
            // Both legs in the paper's ballpark.
            let leg1 = r.leg_times[0].as_secs_f64();
            let leg2 = r.upload.elapsed.as_secs_f64();
            assert!((15.0..25.0).contains(&leg1), "rsync leg {leg1}");
            assert!((15.0..25.0).contains(&leg2), "upload leg {leg2}");
        }
        _ => panic!("expected detour detail"),
    }
}

#[test]
fn pipelining_beats_store_and_forward_on_winning_detour() {
    let world = NorthAmerica::new();
    let n = *world.nodes();
    let drive = world.provider(ProviderKind::GoogleDrive);
    let mut sim = world.build_sim(5);
    let sf = routing_detours::relay::detour_upload(
        &mut sim,
        vec![n.ubc, n.ualberta],
        vec![FlowClass::PlanetLab, FlowClass::Research],
        &drive,
        60 * MB,
        UploadOptions::warm(FlowClass::Research),
    )
    .unwrap();
    let mut sim = world.build_sim(5);
    let pl = pipelined_upload(
        &mut sim,
        n.ubc,
        n.ualberta,
        &drive,
        60 * MB,
        FlowClass::PlanetLab,
        FlowClass::Research,
    )
    .unwrap();
    assert!(pl.total < sf.total);
    assert!(pl.overlap_savings() > 0.0);
    // Pipelined time is bounded below by the slower leg.
    let slower_leg = sf.leg_times[0].max(sf.upload.elapsed);
    assert!(
        pl.total >= slower_leg,
        "pipelining cannot beat the bottleneck leg"
    );
}

#[test]
fn detour_through_umich_hurts_from_ubc() {
    // Fig 2's negative result: UBC→UMich is so slow the detour loses even
    // though UMich→Drive is the fastest last leg in the study.
    let world = NorthAmerica::new();
    let client = world.client(Client::Ubc);
    let drive = world.provider(ProviderKind::GoogleDrive);
    let mut sim = world.build_sim(9);
    let direct = run_job(
        &mut sim,
        client.node,
        client.class,
        &drive,
        50 * MB,
        &Route::Direct,
        UploadOptions::warm(FlowClass::PlanetLab),
    )
    .unwrap();
    let mut sim = world.build_sim(9);
    let via_umich = run_job(
        &mut sim,
        client.node,
        client.class,
        &drive,
        50 * MB,
        &Route::via(world.hop_umich()),
        UploadOptions::warm(FlowClass::PlanetLab),
    )
    .unwrap();
    assert!(via_umich.elapsed > direct.elapsed);
}

#[test]
fn all_three_providers_work_from_all_clients() {
    let world = NorthAmerica::new();
    for client in Client::all() {
        for kind in ProviderKind::all() {
            let spec = world.client(client);
            let provider = world.provider(kind);
            let mut sim = world.build_sim(13);
            let report = run_job(
                &mut sim,
                spec.node,
                spec.class,
                &provider,
                10 * MB,
                &Route::Direct,
                UploadOptions::warm(spec.class),
            )
            .unwrap_or_else(|e| panic!("{} -> {kind}: {e}", client.name()));
            assert_eq!(report.bytes, 10 * MB);
        }
    }
}

#[test]
fn rsync_layer_moves_essentially_the_file_size() {
    // The paper deletes DTN copies before each run: wire bytes ≈ file size.
    use routing_detours::transfer::RsyncWirePlan;
    for mb in [10u64, 60, 100] {
        let plan = RsyncWirePlan::fresh(mb * MB);
        let overhead = plan.total_bytes() as f64 / (mb * MB) as f64 - 1.0;
        assert!(overhead < 0.001, "rsync overhead {overhead} for {mb} MB");
    }
}
