//! Proves the route oracle's warm-query guarantee: once a source's
//! shortest-path tree is built on the topology, a routing table's
//! `path_into`/`links_into` perform zero heap allocation (beyond caller
//! buffers, which we pre-grow).
//!
//! Lives in its own test binary because the counting `#[global_allocator]`
//! is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use netsim::routing::RoutingTable;
use netsim::synth::SynthGlobe;
use netsim::topology::{LinkId, NodeId};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static A: Counting = Counting;

fn assert_warm_queries_allocate_nothing(globe: SynthGlobe, queries: usize) {
    let world = globe.build();
    let topo = &world.topo;
    let hosts = &world.hosts;
    let mut table = RoutingTable::new();

    // Deterministic query mix over a handful of sources so the tree cache
    // stays small but queries still fan out across the globe.
    let sources: Vec<NodeId> = hosts.iter().step_by(hosts.len() / 4 + 1).copied().collect();
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut next = move |m: usize| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize % m
    };

    let mut path_buf: Vec<NodeId> = Vec::with_capacity(topo.nodes().len());
    let mut link_buf: Vec<LinkId> = Vec::with_capacity(topo.nodes().len());

    // Warm: build every tree this workload will touch (one per source)
    // and let scratch reach steady state.
    for &src in &sources {
        let dst = hosts[next(hosts.len())];
        table.path_into(topo, src, dst, &mut path_buf).unwrap();
    }

    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..queries {
        let src = sources[next(sources.len())];
        let dst = hosts[next(hosts.len())];
        table.path_into(topo, src, dst, &mut path_buf).unwrap();
        table.links_into(topo, src, dst, &mut link_buf).unwrap();
    }
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "warm route queries allocated {} times",
        after - before
    );
}

#[test]
fn warm_queries_are_allocation_free_on_the_default_globe() {
    assert_warm_queries_allocate_nothing(SynthGlobe::default(), 2_000);
}

/// The acceptance-scale run: 100k nodes / 1M host links. Ignored by
/// default (tree builds at this scale are slow in debug); run with
/// `cargo test --release -p netsim --test oracle_zero_alloc -- --ignored`.
#[test]
#[ignore = "100k-node globe; run under --release"]
fn warm_queries_are_allocation_free_at_stress_scale() {
    assert_warm_queries_allocate_nothing(SynthGlobe::stress(7), 10_000);
}
