//! Deterministic simulation-checking budget for CI.
//!
//! Runs a fixed-seed batch of randomized scenarios through the engine under
//! the simcheck invariant oracles, proves same-seed re-execution is
//! bit-identical, and — via the `failpoints` feature, enabled for tests by
//! the root crate's dev-dependency — proves the oracles catch an
//! intentionally broken allocator, progress ledger, sync transfer, chunk
//! store, sharded execution or routing backend and shrink the failure to a
//! minimal reproducer.

use routing_detours::simcheck::runner::check_plane_coherence;
use routing_detours::simcheck::{
    case_seed, check_case, replay, run_check, run_once, run_sharded, shrink, CheckConfig,
    RunOptions, ScenarioClass, ScenarioSpec, Violation,
};

/// The CI budget: a fixed-seed batch must hold every invariant.
#[test]
fn fixed_seed_budget_is_clean() {
    let report = run_check(CheckConfig {
        cases: 24,
        seed: 7,
        rate_inflation: None,
        shrink_budget: 50,
        class: ScenarioClass::Standard,
    });
    assert!(
        report.ok(),
        "invariant violations in fixed-seed budget: {}",
        report.to_json()
    );
    assert_eq!(report.passed, 24);
}

/// The chaos class — upload sessions under throttle storms, fault bursts
/// and mid-transfer capacity faults — holds its termination oracle too.
#[test]
fn fixed_seed_chaos_budget_is_clean() {
    let report = run_check(CheckConfig {
        cases: 12,
        seed: 11,
        rate_inflation: None,
        shrink_budget: 50,
        class: ScenarioClass::Chaos,
    });
    assert!(
        report.ok(),
        "invariant violations in chaos budget: {}",
        report.to_json()
    );
    assert_eq!(report.passed, 12);
}

/// Same seed, same scenario => bit-identical execution fingerprints.
#[test]
fn same_seed_double_execution_is_bit_identical() {
    for i in 0..6 {
        let spec = ScenarioSpec::generate(case_seed(11, i));
        let a = run_once(&spec, RunOptions::default());
        let b = run_once(&spec, RunOptions::default());
        assert_eq!(
            a.chain_digest, b.chain_digest,
            "case {i} diverged across same-seed executions"
        );
        assert_eq!(a.events, b.events);
        assert_eq!(a.bytes_delivered, b.bytes_delivered);
    }
}

/// A replayed spec behaves exactly like the generated original.
#[test]
fn replay_of_serialized_spec_matches_original() {
    let spec = ScenarioSpec::generate(case_seed(7, 3));
    let direct = run_once(&spec, RunOptions::default());
    let parsed = ScenarioSpec::from_json(&spec.to_json()).expect("round trip");
    let replayed = run_once(&parsed, RunOptions::default());
    assert_eq!(direct.chain_digest, replayed.chain_digest);
    let report = replay(&spec.to_json(), None).expect("valid spec");
    assert!(report.ok());
}

/// Regression: a departing flow that bridged two pieces of a max-min
/// component. The incremental allocator waterfilled both pieces as one, so
/// a shared unit share froze one piece's flows one ulp off their own share
/// and the reference-allocator differential diverged. This is the shrunk
/// spec `detour check --class std --seed 110 --cases 112` reported; the
/// allocator lockstep now checks every one of its reallocations.
#[test]
fn split_component_on_departure_matches_reference_allocator() {
    let spec = ScenarioSpec::from_json(
        r#"{"seed":3672191955,"topo":{"kind":"star","hosts":4,"access_mbps":44},"jitter_pct":0,"jobs":[{"src":3,"dst":3,"bytes":1989006,"class":2,"weight_pct":100,"start_ms":0},{"src":2,"dst":3,"bytes":2707466,"class":1,"weight_pct":50,"start_ms":0},{"src":3,"dst":2,"bytes":2069236,"class":1,"weight_pct":100,"start_ms":0},{"src":3,"dst":3,"bytes":4599943,"class":3,"weight_pct":50,"start_ms":629},{"src":1,"dst":0,"bytes":8957211,"class":1,"weight_pct":300,"start_ms":512},{"src":0,"dst":3,"bytes":11271826,"class":1,"weight_pct":100,"start_ms":62}],"background":[],"faults":[],"churn":[{"src":0,"dst":2,"flows":12,"bytes":147924,"gap_ms":10}]}"#,
    )
    .expect("valid spec");
    let res = check_case(&spec, RunOptions::default());
    assert!(res.ok(), "violations: {:?}", res.violations);
}

/// Fault injection: inflate allocator output by 30% and the oracles must
/// notice, and the shrinker must reduce the reproducer to a handful of
/// nodes and at most two flows.
#[test]
fn injected_overallocation_is_caught_and_shrunk() {
    let opts = RunOptions {
        rate_inflation: Some(1.3),
        ..Default::default()
    };
    let spec = (0..16)
        .map(|i| ScenarioSpec::generate(case_seed(13, i)))
        .find(|s| !check_case(s, opts).ok())
        .expect("a 30% over-allocation must break some generated case");

    let res = shrink(&spec, opts, 300);
    let minimal = check_case(&res.spec, opts);
    assert!(!minimal.ok(), "shrunk spec must still fail");
    assert!(
        minimal.violations.iter().any(|v| matches!(
            v,
            Violation::OverAllocation { .. } | Violation::UnfairAllocation { .. }
        )),
        "expected an allocation violation, got {:?}",
        minimal.violations
    );
    assert!(
        res.spec.topo.node_count() <= 4,
        "reproducer not minimal: {:?}",
        res.spec.topo
    );
    assert!(
        res.spec.jobs.len() <= 2,
        "reproducer kept {} jobs",
        res.spec.jobs.len()
    );

    // The minimal reproducer survives a JSON round trip and still fails.
    let round = ScenarioSpec::from_json(&res.spec.to_json()).expect("round trip");
    assert!(!check_case(&round, opts).ok());
}

/// Fault injection on the transfer layer: flip one literal byte of every
/// sync leg's delta after the leg is priced. Applying that delta at the
/// relay must then fail to reproduce the client's file, the sync-integrity
/// oracle must report it, and the case must shrink to a small replayable
/// spec that still fails the same way.
#[test]
fn corrupted_sync_delta_is_caught_and_shrunk() {
    let opts = RunOptions {
        corrupt_sync_literal: true,
        ..Default::default()
    };
    let integrity = |violations: &[Violation]| {
        violations
            .iter()
            .any(|v| matches!(v, Violation::SyncIntegrity { .. }))
    };
    let spec = ScenarioSpec::generate_sync(case_seed(13, 0));
    assert!(
        check_case(&spec, RunOptions::default()).ok(),
        "the faithful case must pass"
    );
    let broken = check_case(&spec, opts);
    assert!(
        integrity(&broken.violations),
        "a corrupted delta must be caught, got {:?}",
        broken.violations
    );

    let res = shrink(&spec, opts, 200);
    assert!(res.steps > 0, "nothing shrank");
    assert_eq!(
        res.spec.sync.len(),
        1,
        "reproducer kept {:?}",
        res.spec.sync
    );
    assert!(
        res.spec.topo.node_count() <= 4 && res.spec.jobs.len() <= 1,
        "reproducer not minimal: {}",
        res.spec.to_json()
    );
    assert_eq!((res.spec.sync[0].files, res.spec.sync[0].file_kb), (1, 4));
    let round = ScenarioSpec::from_json(&res.spec.to_json()).expect("round trip");
    assert!(integrity(&check_case(&round, opts).violations));
    assert!(check_case(&round, RunOptions::default()).ok());
}

/// The chunk-bypass run is a simulation of its own (cold-cache wire bytes
/// give different flows and timings), so its violations are the case's
/// too: under a corrupted delta, the case reports the first execution's
/// sync-integrity violations and the bypass run's.
#[test]
fn corrupted_sync_delta_is_reported_by_the_bypass_run_too() {
    let opts = RunOptions {
        corrupt_sync_literal: true,
        health: true,
        ..Default::default()
    };
    let integrity = |violations: &[Violation]| {
        violations
            .iter()
            .filter(|v| matches!(v, Violation::SyncIntegrity { .. }))
            .count()
    };
    let spec = ScenarioSpec::generate_sync(case_seed(13, 0));
    let first = integrity(&run_once(&spec, opts).violations);
    let bypass = run_once(
        &spec,
        RunOptions {
            chunk_bypass: true,
            ..opts
        },
    );
    let bypass = integrity(&bypass.violations);
    assert!(first > 0 && bypass > 0, "first {first}, bypass {bypass}");
    let case = check_case(&spec, opts);
    assert_eq!(
        integrity(&case.violations),
        first + bypass,
        "{:?}",
        case.violations
    );
}

/// Fault injection on the chunk differential: the cached execution flips
/// one delivered byte after each sync session's last integrity check, so
/// every leg verifies yet the delivered files differ from the bypass
/// run's. The case must report one chunk divergence and nothing else, and
/// must shrink to a replayable spec with one sync session that still fails,
/// and that passes once the fault is off.
#[test]
fn flipped_cached_byte_is_caught_by_the_chunk_differential_and_shrunk() {
    let opts = RunOptions {
        corrupt_cached_delivery: true,
        ..Default::default()
    };
    let only_chunk_divergence =
        |violations: &[Violation]| matches!(violations, [Violation::ChunkDivergence { .. }]);
    let spec = ScenarioSpec::generate_sync(case_seed(13, 0));
    assert!(
        check_case(&spec, RunOptions::default()).ok(),
        "the faithful case must pass"
    );
    let broken = check_case(&spec, opts);
    assert!(
        only_chunk_divergence(&broken.violations),
        "expected only a chunk divergence, got {:?}",
        broken.violations
    );

    let res = shrink(&spec, opts, 60);
    assert!(res.steps > 0, "nothing shrank");
    assert_eq!(
        res.spec.sync.len(),
        1,
        "reproducer kept {:?}",
        res.spec.sync
    );
    let round = ScenarioSpec::from_json(&res.spec.to_json()).expect("round trip");
    let replayed = check_case(&round, opts);
    assert!(
        only_chunk_divergence(&replayed.violations),
        "shrunk spec {} reported {:?}",
        res.spec.to_json(),
        replayed.violations
    );
    assert!(check_case(&round, RunOptions::default()).ok());
}

/// `check_case` runs its pieces side by side but reports them in one fixed
/// order. With a fault in every piece that can carry one (a corrupted delta
/// in both full audits, a thread-dependent cell in the shard run, a flipped
/// cached byte for the chunk differential), the verdict must equal, element
/// for element, what the pieces report when called one by one: the first
/// execution's violations, the shard divergence, the bypass run's
/// violations, the chunk divergence, then the plane check's.
#[test]
fn verdict_lists_every_piece_in_order() {
    let opts = RunOptions {
        corrupt_sync_literal: true,
        thread_dependent_cells: true,
        corrupt_cached_delivery: true,
        health: true,
        ..Default::default()
    };
    let spec = ScenarioSpec::generate_sync(case_seed(13, 0));
    let first = run_once(&spec, opts);
    let sharded = run_sharded(&spec, opts, 4);
    let bypass = run_once(
        &spec,
        RunOptions {
            chunk_bypass: true,
            ..opts
        },
    );
    assert!(
        !first.violations.is_empty() && !bypass.violations.is_empty(),
        "first {:?}, bypass {:?}",
        first.violations,
        bypass.violations
    );
    let mut expected = first.violations.clone();
    expected.push(Violation::ShardDivergence {
        workers: 4,
        sequential: first.chain_digest,
        sharded: sharded.chain_digest,
    });
    expected.extend(bypass.violations.iter().cloned());
    expected.push(Violation::ChunkDivergence {
        cached: first.sync_digest.expect("a sync case"),
        bypass: bypass.sync_digest.expect("a sync case"),
    });
    expected.extend(check_plane_coherence(&spec));
    assert_eq!(check_case(&spec, opts).violations, expected);
}

/// Fault injection on the sharded executor: a cell whose outcome depends
/// on the thread it runs on. The one sharded re-execution per case, at four
/// workers, must report it as a shard divergence and nothing else may fire;
/// the case must shrink to a replayable spec that still fails, and that
/// passes once the fault is off.
#[test]
fn thread_dependent_cell_is_caught_by_the_shard_run_and_shrunk() {
    let opts = RunOptions {
        thread_dependent_cells: true,
        ..Default::default()
    };
    let only_shard_divergence = |violations: &[Violation]| {
        !violations.is_empty()
            && violations
                .iter()
                .all(|v| matches!(v, Violation::ShardDivergence { workers: 4, .. }))
    };
    let spec = ScenarioSpec::generate(case_seed(7, 0));
    assert!(
        check_case(&spec, RunOptions::default()).ok(),
        "the faithful case must pass"
    );
    let broken = check_case(&spec, opts);
    assert!(
        only_shard_divergence(&broken.violations),
        "expected only a 4-worker shard divergence, got {:?}",
        broken.violations
    );

    let res = shrink(&spec, opts, 40);
    let round = ScenarioSpec::from_json(&res.spec.to_json()).expect("round trip");
    let replayed = check_case(&round, opts);
    assert!(
        only_shard_divergence(&replayed.violations),
        "shrunk spec {} reported {:?}",
        res.spec.to_json(),
        replayed.violations
    );
    assert!(check_case(&round, RunOptions::default()).ok());
}

/// Fault injection on the routing lockstep: the reference backend breaks
/// equal-cost ties by the largest predecessor id instead of the smallest.
/// Every SynthWan link costs 10, so std worlds are full of equal-hop ties,
/// and the full audit's route-by-route comparison must report a routing
/// divergence on generated cases while nothing else fires; a case must
/// shrink to a replayable spec that still fails, and that passes once the
/// fault is off.
#[test]
fn flipped_routing_ties_are_caught_by_the_routing_lockstep_and_shrunk() {
    let opts = RunOptions {
        largest_predecessor: true,
        ..Default::default()
    };
    let only_routing_divergence = |violations: &[Violation]| {
        !violations.is_empty()
            && violations
                .iter()
                .all(|v| matches!(v, Violation::RoutingDivergence { .. }))
    };
    // Four of the first eight cases at seed 7 route a job or flow through
    // a tie that the flipped rule decides differently.
    let specs: Vec<ScenarioSpec> = (0..8)
        .map(|i| ScenarioSpec::generate(case_seed(7, i)))
        .collect();
    let caught: Vec<&ScenarioSpec> = specs
        .iter()
        .filter(|s| only_routing_divergence(&check_case(s, opts).violations))
        .collect();
    assert!(
        caught.len() >= 4,
        "only {} of {} std cases reported a routing divergence",
        caught.len(),
        specs.len()
    );
    let spec = caught[0];
    assert!(
        check_case(spec, RunOptions::default()).ok(),
        "the faithful case must pass"
    );

    let res = shrink(spec, opts, 40);
    assert!(res.steps > 0, "nothing shrank");
    let round = ScenarioSpec::from_json(&res.spec.to_json()).expect("round trip");
    let replayed = check_case(&round, opts);
    assert!(
        only_routing_divergence(&replayed.violations),
        "shrunk spec {} reported {:?}",
        res.spec.to_json(),
        replayed.violations
    );
    assert!(check_case(&round, RunOptions::default()).ok());
}

/// Fault injection on the allocator lockstep: one rate of every waterfilled
/// component of three or more flows is nudged up by one ulp. That is far
/// inside the 1e-9 fairness tolerance, so only the full audit's bitwise
/// comparison with the reference allocator can see it: generated std cases
/// must report an allocator divergence that names the reallocation and the
/// nudged flow, and nothing else; a case must shrink to a replayable spec
/// that still fails the same way, and that passes once the fault is off.
#[test]
fn one_ulp_rate_nudge_is_caught_by_the_allocator_lockstep_and_shrunk() {
    let opts = RunOptions {
        nudge_rate_ulp: true,
        ..Default::default()
    };
    let only_allocator_divergence = |violations: &[Violation]| {
        !violations.is_empty()
            && violations
                .iter()
                .all(|v| matches!(v, Violation::AllocatorDivergence { .. }))
    };
    let specs: Vec<ScenarioSpec> = (0..8)
        .map(|i| ScenarioSpec::generate(case_seed(7, i)))
        .collect();
    let caught: Vec<&ScenarioSpec> = specs
        .iter()
        .filter(|s| only_allocator_divergence(&check_case(s, opts).violations))
        .collect();
    assert!(
        caught.len() >= 6,
        "only {} of {} std cases reported an allocator divergence",
        caught.len(),
        specs.len()
    );
    let spec = caught[0];
    assert!(
        check_case(spec, RunOptions::default()).ok(),
        "the faithful case must pass"
    );
    match check_case(spec, opts).violations[..] {
        [Violation::AllocatorDivergence {
            realloc,
            flow,
            got,
            want,
        }] => {
            assert!(
                realloc > 0 && flow > 0,
                "reallocation {realloc}, flow {flow}"
            );
            assert_eq!(got, want.next_up(), "flow {flow} is one ulp off");
        }
        ref other => panic!("expected one allocator divergence, got {other:?}"),
    }

    let res = shrink(spec, opts, 40);
    assert!(res.steps > 0, "nothing shrank");
    let round = ScenarioSpec::from_json(&res.spec.to_json()).expect("round trip");
    let replayed = check_case(&round, opts);
    assert!(
        only_allocator_divergence(&replayed.violations),
        "shrunk spec {} reported {:?}",
        res.spec.to_json(),
        replayed.violations
    );
    assert!(check_case(&round, RunOptions::default()).ok());
}

/// Fault injection on the progress lockstep: every flow's lazy closed form
/// moves 1% more bytes per interval than its rate allows. The eager sweep
/// runs inside the full audit and must report the first flow whose stepped
/// ledger it leaves, as a violation rather than a panic. Flows whose rate
/// changes mid-flight settle the skewed bytes into their anchors and drain
/// early, which the byte-conservation ledger reports too. The case must
/// shrink to a replayable spec that still reports the progress divergence,
/// and that passes once the fault is off.
#[test]
fn skewed_lazy_progress_is_caught_by_the_progress_lockstep_and_shrunk() {
    let opts = RunOptions {
        skew_lazy_progress: true,
        ..Default::default()
    };
    let progress_divergence = |violations: &[Violation]| {
        violations.iter().find_map(|v| match *v {
            Violation::ProgressDivergence {
                flow,
                stepped,
                lazy,
                ..
            } => Some((flow, stepped, lazy)),
            _ => None,
        })
    };
    let spec = ScenarioSpec::generate(case_seed(7, 0));
    assert!(
        check_case(&spec, RunOptions::default()).ok(),
        "the faithful case must pass"
    );
    let broken = check_case(&spec, opts);
    let (flow, stepped, lazy) = progress_divergence(&broken.violations).unwrap_or_else(|| {
        panic!(
            "expected a progress divergence, got {:?}",
            broken.violations
        )
    });
    assert!(
        flow > 0 && lazy < stepped,
        "flow {flow}: {stepped} vs {lazy}"
    );
    assert!(
        broken
            .violations
            .iter()
            .any(|v| matches!(v, Violation::ByteConservation { .. })),
        "{:?}",
        broken.violations
    );

    let res = shrink(&spec, opts, 40);
    assert!(res.steps > 0, "nothing shrank");
    let round = ScenarioSpec::from_json(&res.spec.to_json()).expect("round trip");
    let replayed = check_case(&round, opts);
    assert!(
        progress_divergence(&replayed.violations).is_some(),
        "shrunk spec {} reported {:?}",
        res.spec.to_json(),
        replayed.violations
    );
    assert!(check_case(&round, RunOptions::default()).ok());
}
