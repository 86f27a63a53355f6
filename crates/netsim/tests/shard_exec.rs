//! Sharded-executor determinism tests: worker completion order must never
//! leak into results, full engine cells must fold bit-identically at every
//! worker count (the seeded churn stress below is also the ThreadSanitizer
//! target in CI), and the claim/store/reduce protocol is exhaustively
//! model-checked across interleavings — a loom-style schedule enumeration
//! without the dependency.

use netsim::flow::FlowCore;
use netsim::prelude::*;
use netsim::shard::{fold_digests, run_shards};

/// Build a tiny two-host world and run one transfer; returns the cell's
/// event count and final engine digest. Constructed entirely on the worker
/// thread — `Sim` is not `Send` and never crosses the boundary.
fn run_cell(seed: u64, bytes: u64, delay_ms: u64) -> (u64, u64) {
    let mut b = TopologyBuilder::new();
    let a = b.host("src", GeoPoint::new(49.0, -123.0));
    let z = b.host("dst", GeoPoint::new(37.0, -122.0));
    b.duplex(
        a,
        z,
        LinkParams::new(
            Bandwidth::from_mbps(50.0),
            SimTime::from_millis(5 + delay_ms),
        ),
    );
    let mut sim = Sim::new(b.build(), seed);
    sim.run_transfer(TransferRequest::new(a, z, bytes))
        .expect("transfer completes");
    (sim.stats().events, sim.state_digest())
}

#[test]
fn cell_results_are_independent_of_completion_order() {
    // Cells with wildly different sizes finish in different wall-clock
    // orders at different worker counts; the reduced digest must not care.
    let specs: Vec<(u64, u64, u64)> = (0..6u64)
        .map(|i| (1000 + i, (6 - i) * 2 * MB, i * 3))
        .collect();
    let run = |_, (seed, bytes, delay)| run_cell(seed, bytes, delay);
    let sequential = run_shards(specs.clone(), 1, run);
    for workers in [2, 3, 4, 8] {
        let parallel = run_shards(specs.clone(), workers, run);
        assert_eq!(sequential, parallel, "{workers} workers");
        let seq_digest = fold_digests(&sequential.iter().map(|r| r.1).collect::<Vec<_>>());
        let par_digest = fold_digests(&parallel.iter().map(|r| r.1).collect::<Vec<_>>());
        assert_eq!(seq_digest, par_digest, "{workers} workers");
    }
}

/// Rate changes are reported keyed by flow id, never by slab slot
/// assignment, which depends on each allocator's private insert/remove
/// history.
#[test]
fn rate_changes_ignore_slot_assignment() {
    // Two allocators holding the SAME flows with different slot
    // assignments: the second recycles slots through an insert/remove
    // shuffle, so its slot order disagrees with its id order.
    let build = |shuffle: bool| {
        let mut core = FlowCore::new(vec![10_000.0]);
        if shuffle {
            // Occupy and free slots so ids land on different slots.
            core.insert(900, 900, &[0], f64::INFINITY, 1.0);
            core.insert(901, 901, &[0], f64::INFINITY, 1.0);
            core.remove(900);
            core.remove(901);
        }
        for id in [14u64, 3, 9] {
            core.insert(id, id, &[0], f64::INFINITY, 1.0);
        }
        // A capacity change reallocates every flow in the component.
        core.set_capacity(0, 6_000.0);
        core.take_changes()
    };
    let plain = build(false);
    // Same flows, same new rates — only slot internals differ.
    assert_eq!(plain, build(true), "FlowCore reports changes id-sorted");
    let ids: Vec<u64> = plain.iter().map(|c| c.id).collect();
    assert_eq!(ids, vec![3, 9, 14]);
}

/// Seeded multi-thread churn stress — the ThreadSanitizer target. Every
/// round launches a fresh fleet of churn-heavy cells across 4 workers and
/// compares the folded digest against the sequential execution of the same
/// specs; any data race in the executor shows up under `-Zsanitizer=thread`
/// and any determinism leak shows up as a digest mismatch right here.
#[test]
fn seeded_multithread_churn_stress_is_bit_identical() {
    let churn_cell = |seed: u64, transfers: u64| -> u64 {
        let mut b = TopologyBuilder::new();
        let a = b.host("src", GeoPoint::new(49.0, -123.0));
        let z = b.host("dst", GeoPoint::new(37.0, -122.0));
        b.duplex(
            a,
            z,
            LinkParams::new(Bandwidth::from_mbps(100.0), SimTime::from_millis(4)),
        );
        let mut sim = Sim::new(b.build(), seed);
        // Serial churn: each short transfer inserts and drains a flow, so
        // the cell's slab and queue recycle constantly.
        for i in 0..transfers {
            sim.run_transfer(TransferRequest::new(a, z, 64 * KB + i * KB))
                .expect("churn transfer completes");
        }
        sim.state_digest()
    };
    for round in 0..4u64 {
        let specs: Vec<(u64, u64)> = (0..8u64).map(|i| (round * 100 + i, 12 + i)).collect();
        let run = |_, (seed, transfers)| churn_cell(seed, transfers);
        let seq = run_shards(specs.clone(), 1, run);
        let par = run_shards(specs.clone(), 4, run);
        assert_eq!(seq, par, "round {round}");
        assert_eq!(fold_digests(&seq), fold_digests(&par), "round {round} fold");
    }
}

// ---------------------------------------------------------------------------
// Model-checked barrier protocol.
//
// A deterministic model of `run_shards`' state machine — claim a shard
// index from the shared counter, run it, store the result in that index's
// slot, join, reduce in index order — exhaustively executed under EVERY
// interleaving of worker steps. This is the loom-style check the satellite
// asks for: instead of hoping the scheduler explores bad orders, we
// enumerate all of them and prove the protocol's result is
// schedule-independent.
// ---------------------------------------------------------------------------

#[derive(Clone)]
struct ModelState {
    /// The shared claim counter (models the AtomicUsize).
    next: usize,
    /// Per-worker: the shard it has claimed but not yet stored.
    holding: Vec<Option<usize>>,
    /// Per-worker: true once the worker observed `next >= n` and exited.
    exited: Vec<bool>,
    /// Result slots (models the per-shard mutexed Option<R>).
    slots: Vec<Option<u64>>,
}

/// The per-shard "work": any pure function of the shard index.
fn model_work(i: usize) -> u64 {
    (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Explore every interleaving of worker steps; at every terminal state
/// (all workers exited) verify the protocol invariants and record the
/// reduced fold.
fn explore(state: ModelState, n: usize, folds: &mut Vec<u64>, schedules: &mut usize) {
    let workers = state.holding.len();
    let mut progressed = false;
    for w in 0..workers {
        if state.exited[w] {
            continue;
        }
        progressed = true;
        let mut s = state.clone();
        match s.holding[w] {
            // Step A: the worker stores its result into its shard's slot.
            Some(shard) => {
                assert!(
                    s.slots[shard].is_none(),
                    "two workers stored into shard {shard}"
                );
                s.slots[shard] = Some(model_work(shard));
                s.holding[w] = None;
            }
            // Step B: the worker claims the next index (or exits).
            None => {
                let claimed = s.next;
                s.next += 1;
                if claimed >= n {
                    s.exited[w] = true;
                } else {
                    s.holding[w] = Some(claimed);
                }
            }
        }
        explore(s, n, folds, schedules);
    }
    if !progressed {
        // Terminal: the scope join has happened. Every shard must have run
        // exactly once, and the reduce reads slots in index order.
        *schedules += 1;
        let results: Vec<u64> = state
            .slots
            .iter()
            .map(|s| s.expect("every shard ran before the join"))
            .collect();
        folds.push(fold_digests(&results));
    }
}

#[test]
fn barrier_protocol_is_schedule_independent_under_exhaustive_interleaving() {
    for (n_shards, workers) in [(1usize, 2usize), (2, 2), (3, 2), (2, 3)] {
        let mut folds = Vec::new();
        let mut schedules = 0usize;
        explore(
            ModelState {
                next: 0,
                holding: vec![None; workers],
                exited: vec![false; workers],
                slots: vec![None; n_shards],
            },
            n_shards,
            &mut folds,
            &mut schedules,
        );
        assert!(
            schedules > 1 || (n_shards == 1 && workers == 1),
            "expected multiple interleavings for {n_shards} shards / {workers} workers"
        );
        let first = folds[0];
        assert!(
            folds.iter().all(|&f| f == first),
            "fold diverged across {} schedules for {n_shards} shards / {workers} workers",
            schedules
        );
        // And the model agrees with the real executor's reduction.
        let real = run_shards((0..n_shards).collect::<Vec<_>>(), workers, |_, i| {
            model_work(i)
        });
        assert_eq!(fold_digests(&real), first);
    }
}
