//! Proves the plane's warm-path guarantee: once a key is cached at the
//! current generation, `RoutePlane::lookup` performs zero heap allocation
//! — admitted, shed, and breaker-demoted lookups alike.
//!
//! Lives in its own test binary because the counting `#[global_allocator]`
//! is process-wide. The count itself is per thread: `cargo test` runs the
//! tests on parallel threads, and each must see only its own allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use cloudstore::TripBoard;
use netsim::time::SimTime;
use routeplane::{
    AdmissionConfig, DecisionKey, DecisionSource, Lookup, PlaneConfig, RoutePlane, ServeStatus,
    SyntheticSource, DIRECT_ROUTE,
};

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

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static A: Counting = Counting;

#[test]
fn warm_lookups_are_allocation_free() {
    let board = Arc::new(TripBoard::new(256));
    let plane = RoutePlane::new(PlaneConfig {
        vantages: 64,
        // The whole run happens in ~2µs of virtual time: quota must come
        // from burst depth, not refill.
        admission: AdmissionConfig {
            tokens_per_sec: 10_000,
            burst: 10_000,
        },
        ..PlaneConfig::default()
    })
    .with_trip_board(Arc::clone(&board));
    let source = SyntheticSource::new(11, 4, 256);
    let keys: Vec<DecisionKey> = (0..64u32)
        .map(|v| DecisionKey {
            vantage: v,
            provider: (v % 3) as u16,
            size_class: (v % 3) as u8,
        })
        .collect();

    // Warm: populate every key (cold path allocates map entries) and trip
    // one detour's gate so the demotion branch is exercised warm too.
    for &k in &keys {
        plane.lookup(0, k, 0, &source);
    }
    let tripped = keys
        .iter()
        .find(|&&k| source.compute(k, 0).best.route_idx != DIRECT_ROUTE)
        .copied()
        .expect("some key picks a detour");
    board.trip(
        source.compute(tripped, 0).best.target,
        SimTime::from_secs(3600),
    );

    let before = allocs();
    let mut demoted = 0u64;
    for now in 1..2_000u64 {
        let k = keys[(now as usize * 7) % keys.len()];
        match plane.lookup(0, k, now, &source) {
            Lookup::Served { status, .. } => {
                assert!(matches!(status, ServeStatus::Warm | ServeStatus::Demoted));
                if status == ServeStatus::Demoted {
                    demoted += 1;
                }
            }
            Lookup::Shed => panic!("quota sized for the workload"),
        }
    }
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "warm plane lookups allocated {} times",
        after - before
    );
    assert!(demoted > 0, "demotion branch never taken warm");
}

#[test]
fn shed_lookups_are_allocation_free() {
    let plane = RoutePlane::new(PlaneConfig {
        admission: AdmissionConfig {
            tokens_per_sec: 1,
            burst: 1,
        },
        ..PlaneConfig::default()
    });
    let source = SyntheticSource::new(3, 4, 64);
    let key = DecisionKey {
        vantage: 1,
        provider: 1,
        size_class: 0,
    };
    // Spend the single-token burst (cold path may allocate).
    plane.lookup(0, key, 0, &source);
    let before = allocs();
    for _ in 0..1_000 {
        assert_eq!(plane.lookup(0, key, 0, &source), Lookup::Shed);
    }
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "shedding must not allocate under overload"
    );
}
