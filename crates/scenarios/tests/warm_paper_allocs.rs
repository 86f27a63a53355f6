//! Counts allocator calls per job of the paper's upload grid: once the
//! first job has built the route trees and left its engine buffers with
//! the shared topology, a job — `build_sim`, `run_job` and dropping the
//! sim — averages at most [`MAX_CALLS_PER_JOB`] calls.
//!
//! Run it with `cargo test --release` and without `netsim/diffcheck`.
//! Debug and `diffcheck` builds check every reallocation against a fresh
//! reference allocation, which allocates by design, so the test is ignored
//! in debug builds and fails under `diffcheck`.
//!
//! Lives in its own test binary because the counting `#[global_allocator]`
//! is process-wide. The count itself is per thread: `cargo test` runs the
//! tests on parallel threads, and each must see only its own allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cloudstore::{Provider, ProviderKind, TokenPolicy, UploadOptions};
use detour_core::{run_job, Route};
use measure::RunProtocol;
use netsim::flow::FlowClass;
use netsim::topology::NodeId;
use scenarios::northamerica::Client;
use scenarios::{ExperimentSet, NorthAmerica};

struct Counting;

thread_local! {
    /// Allocations made by this thread. `const`-initialized and without a
    /// destructor, so touching it from inside the allocator never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Count one allocation against the calling thread. `try_with` because a
/// thread may still allocate after its slot is gone, while it exits.
fn count_alloc() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

/// Allocations the calling thread has made so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, so each call meets `System`'s contract exactly when the
// caller meets `GlobalAlloc`'s; counting touches only a thread-local cell.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        // SAFETY: the caller's `layout` contract, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, so from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        // SAFETY: `ptr` came from `System`; the caller's contract holds.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static A: Counting = Counting;

/// The bound on a warm job's average allocator calls: 37.1 measured. Before
/// sims recycled their buffers and flows their route and resource lists, a
/// job made ~230; before spawn lists were reused and `build_sim` shared its
/// overrides and policers, 53.8.
const MAX_CALLS_PER_JOB: f64 = 40.0;

/// One job of the grid, with everything that is not the job's own work
/// (labels, seeds) computed before counting starts.
struct Job {
    node: NodeId,
    class: FlowClass,
    provider: Provider,
    size: u64,
    route: Route,
    seed: u64,
    token: TokenPolicy,
}

/// Every job of the grid in `Campaign::run`'s order: campaigns by client
/// then provider, and within one, size, route and run. Campaign labels
/// carry the `@1` suffix the paper benchmark gives its seed-1 grid.
fn grid(set: &ExperimentSet<'_>) -> Vec<Job> {
    let mut jobs = Vec::new();
    for client in Client::all() {
        for provider in ProviderKind::all() {
            let c = set.campaign_spec(client, provider);
            let label = format!("{}@1", c.label);
            let runs = c.protocol.total_runs;
            for &size in &c.sizes {
                for route in c.routes.iter() {
                    let cell = format!(
                        "{label}/{}/{}/{}/{size}",
                        c.client.name,
                        c.provider.kind.display_name(),
                        route.label()
                    );
                    for run in 0..runs {
                        jobs.push(Job {
                            node: c.client.node,
                            class: c.client.class,
                            provider: c.provider.clone().into_owned(),
                            size,
                            route: route.clone(),
                            seed: RunProtocol::run_seed(&cell, run),
                            token: if run < c.protocol.discard {
                                TokenPolicy::Fresh
                            } else {
                                TokenPolicy::Cached
                            },
                        });
                    }
                }
            }
        }
    }
    jobs
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "counts allocator calls; run with cargo test --release, without netsim/diffcheck"
)]
fn warm_paper_jobs_average_at_most_forty_allocator_calls() {
    let world = NorthAmerica::new();
    let set = ExperimentSet::paper(&world);
    let jobs = grid(&set);
    assert_eq!(jobs.len(), 1_323);

    let mut warm_calls = 0;
    for (i, job) in jobs.iter().enumerate() {
        let opts = UploadOptions {
            token: job.token,
            class: job.class,
            ..UploadOptions::default()
        };
        let before = allocs();
        let mut sim = world.build_sim(job.seed);
        let report = run_job(
            &mut sim,
            job.node,
            job.class,
            &job.provider,
            job.size,
            &job.route,
            opts,
        );
        drop(sim);
        let calls = allocs() - before;
        assert!(report.is_ok(), "job {i} failed: {report:?}");
        drop(report);
        if i > 0 {
            warm_calls += calls;
        }
    }
    let per_job = warm_calls as f64 / (jobs.len() - 1) as f64;
    println!("warm paper job: {per_job:.1} allocator calls on average");
    assert!(
        per_job <= MAX_CALLS_PER_JOB,
        "a warm paper job averaged {per_job:.1} allocator calls, bound {MAX_CALLS_PER_JOB}"
    );
}
