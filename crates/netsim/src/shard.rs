//! Sharded parallel execution across independent connected components.
//!
//! [`FlowCore`](crate::flow::FlowCore) (the incremental allocator) proves
//! that disjoint resource components never interact: a component's
//! allocation is a pure function of its own membership and capacities.
//! This module turns that isolation into parallelism while keeping the
//! engine's headline guarantee — same seed, same bits — intact:
//!
//! * [`run_shards`] executes independent shards on scoped worker threads
//!   (the house style: `std::thread::scope`, no runtime) with a
//!   deterministic reduction — results land in shard-id order no matter
//!   which worker finishes first, so any fold over them is bit-identical
//!   to the sequential fold.
//! * [`fold_digests`] is the canonical reduction: digests folded in
//!   shard-id order, never in worker completion order, which varies
//!   across schedules.
//!
//! Callers hand [`run_shards`] cells that are already independent; the
//! allocator-side census of coupled components is
//! [`FlowCore::components`](crate::flow::FlowCore::components). There are
//! two callers. `simcheck` uses it as a determinism tool: every checked
//! case re-executes its scenario replicas once on four workers and must
//! match the sequential run bit for bit. It is also the campaign
//! executor: `detour_core::Campaign::run` hands it every (size, route,
//! run) job of a campaign, each an independent simulation.
//!
//! # Determinism argument
//!
//! Each shard is an independent sub-simulation with its own event clock,
//! its own event queue and its own seeded PRNG; its execution is a pure
//! function of its spec, identical on any thread. Workers only *claim*
//! shard indices from one atomic counter and write each result into the
//! slot for that index; the end-of-round thread join is the only barrier,
//! and the merge that follows reads slots in index order. Thread
//! scheduling therefore cannot reorder anything observable. Workloads
//! whose components stay coupled degrade gracefully to a single shard —
//! sequential execution through the same code path, trivially
//! bit-identical. `simcheck` proves the end-to-end claim by running every
//! scenario under this executor and diffing chained digests against the
//! sequential execution ([`ShardDivergence`] fires on any mismatch).
//!
//! [`ShardDivergence`]: https://docs.rs/simcheck

use crate::audit::Digest;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Execute independent shards on up to `workers` scoped threads; returns
/// the results **in shard-id order**, regardless of which worker finished
/// which shard first.
///
/// `run(i, spec)` is called exactly once per shard. Specs cross the thread
/// boundary (`S: Send`), but everything a shard builds from its spec —
/// `Sim`, processes, `Rc`-laden drivers — lives and dies on the worker
/// that claimed it, so shard internals need not be `Send`. Workers claim
/// indices from a single atomic counter (deterministic work set, arbitrary
/// schedule) and write results into per-shard slots; the scope join is the
/// barrier, after which slots are read in index order. With `workers <= 1`
/// the shards run in index order on the calling thread; otherwise every
/// shard runs on a spawned worker, even when there is only one. Either
/// way sequential and parallel runs fold identically.
pub fn run_shards<S, R, F>(shards: Vec<S>, workers: usize, run: F) -> Vec<R>
where
    S: Send,
    R: Send,
    F: Fn(usize, S) -> R + Sync,
{
    let n = shards.len();
    if workers <= 1 || n == 0 {
        return shards
            .into_iter()
            .enumerate()
            .map(|(i, s)| run(i, s))
            .collect();
    }
    let next = AtomicUsize::new(0);
    let work: Vec<Mutex<Option<S>>> = shards.into_iter().map(|s| Mutex::new(Some(s))).collect();
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers.min(n) {
            scope.spawn(|| loop {
                // Claim the next unclaimed shard. Relaxed suffices: the
                // mutexes order the data, and claim order is irrelevant to
                // the result by construction.
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let spec = work[i]
                    .lock()
                    .expect("shard spec lock")
                    .take()
                    .expect("each shard is claimed exactly once");
                let result = run(i, spec);
                *slots[i].lock().expect("shard result lock") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("shard result lock")
                .expect("every claimed shard stored a result")
        })
        .collect()
}

/// Fold per-shard chain digests into one, **in shard-id order**.
///
/// The fold itself is order-sensitive (FNV chaining) — the fixed canonical
/// order is exactly what makes the parallel reduction deterministic, so
/// callers must pass digests indexed by shard id ([`run_shards`] returns
/// precisely that), never by completion order. A single shard folds to its
/// own digest unchanged, so a one-component workload's sharded digest
/// equals its sequential digest bit for bit.
pub fn fold_digests(digests: &[u64]) -> u64 {
    match digests {
        [one] => *one,
        many => {
            let mut d = Digest::new();
            d.write_u64(many.len() as u64);
            for &x in many {
                d.write_u64(x);
            }
            d.finish()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_shards_returns_results_in_shard_order() {
        // Lower-indexed shards take strictly longer, so completion order is
        // the reverse of shard order — results must still come back 0..n.
        let shards: Vec<u64> = (0..6).collect();
        let out = run_shards(shards, 4, |i, v| {
            std::thread::sleep(std::time::Duration::from_millis(12 - 2 * i as u64));
            v * 10
        });
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50]);
    }

    #[test]
    fn run_shards_sequential_and_parallel_agree() {
        let work = |_, v: u64| {
            let mut d = Digest::new();
            d.write_u64(v.wrapping_mul(0x9e37_79b9));
            d.finish()
        };
        let seq = run_shards((0..32).collect(), 1, work);
        let par = run_shards((0..32).collect(), 8, work);
        assert_eq!(seq, par);
        assert_eq!(fold_digests(&seq), fold_digests(&par));
    }

    #[test]
    fn fold_digests_is_identity_for_one_shard() {
        assert_eq!(fold_digests(&[42]), 42);
        assert_ne!(fold_digests(&[42, 43]), fold_digests(&[43, 42]));
    }
}
