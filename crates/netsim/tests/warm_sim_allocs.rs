//! Counts the allocator calls a warm engine makes per flow: on a
//! crowd-shaped world — a 2,000-node [`SynthGlobe`] whose 256 clients, 64
//! distinct hosts per region, each keep one 1–8 MB upload in flight to
//! their region's frontend of a random cloud, drawn as the repository
//! benchmark's `crowd` workload draws its first world at seed 1 — a flow start
//! resolves its links into the sim's route buffer and its resources into a
//! list a departed flow left behind, so after a warm-up the steady state
//! makes at most one call per [`COMPLETIONS_PER_CALL`] completions, all of
//! them high-water growth of recycled lists.
//!
//! Run it with `cargo test --release` and without `netsim/diffcheck`.
//! Debug and `diffcheck` builds check every reallocation against a fresh
//! reference allocation, which allocates by design, so the test is ignored
//! in both.
//!
//! Lives in its own test binary because the counting `#[global_allocator]`
//! is process-wide. The count itself is per thread: `cargo test` runs the
//! tests on parallel threads, and each must see only its own allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;

use netsim::prelude::*;
use netsim::synth::SynthGlobe;

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

const CLIENTS: usize = 256;
/// Completions before counting starts: the first uploads all start at
/// once, and the engine's lists grow to their high-water marks over
/// several rounds of the crowd.
const WARMUP: u64 = 4_096;
/// Completions counted.
const STEADY: u64 = 4_096;
/// Steady completions allowed per allocator call. Before flows reused
/// their route and resource lists, every flow start made two calls.
const COMPLETIONS_PER_CALL: u64 = 256;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Client {
    node: NodeId,
    region: usize,
    rng: u64,
}

/// 64 distinct clients per region, each with its own random stream.
fn clients(cfg: &SynthGlobe, hosts: &[NodeId], seed: u64) -> Vec<Client> {
    let mut rng = seed ^ 0xC0FF_EE00;
    let per_region = CLIENTS / cfg.regions;
    let mut out = Vec::with_capacity(CLIENTS);
    for region in 0..cfg.regions {
        let mut pool = hosts[region * cfg.hosts_per_region..][..cfg.hosts_per_region].to_vec();
        for k in 0..per_region {
            let pick = k + splitmix(&mut rng) as usize % (pool.len() - k);
            pool.swap(k, pick);
            out.push(Client {
                node: pool[k],
                region,
                rng: splitmix(&mut rng),
            });
        }
    }
    out
}

/// The closed-loop crowd. Records the thread's allocator count at the end
/// of warm-up and at the last completion.
struct Crowd {
    clients: Vec<Client>,
    /// `frontends[cloud][region]`.
    frontends: Vec<Vec<NodeId>>,
    /// `(flow id, client)` of every upload in flight.
    inflight: Vec<(u64, usize)>,
    completed: u64,
    marks: Rc<Cell<(u64, u64)>>,
}

impl Crowd {
    fn start_upload(&mut self, ctx: &mut Ctx<'_>, c: usize) {
        let client = &mut self.clients[c];
        let r = splitmix(&mut client.rng);
        let (node, region) = (client.node, client.region);
        let dst = self.frontends[(r >> 40) as usize % self.frontends.len()][region];
        let bytes = MB + r % (7 * MB + 1);
        let flow = ctx
            .start_flow(FlowSpec::new(node, dst, bytes, FlowClass::Commodity))
            .expect("every client reaches every frontend");
        self.inflight.push((flow.0, c));
    }
}

impl Process for Crowd {
    fn poll(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        match ev {
            Event::Started => (0..self.clients.len()).for_each(|c| self.start_upload(ctx, c)),
            Event::FlowCompleted { flow, .. } => {
                let at = self
                    .inflight
                    .iter()
                    .position(|&(f, _)| f == flow.0)
                    .expect("an upload this crowd started");
                let (_, c) = self.inflight.swap_remove(at);
                self.completed += 1;
                if self.completed == WARMUP {
                    self.marks.set((allocs(), 0));
                }
                if self.completed == WARMUP + STEADY {
                    self.marks.set((self.marks.get().0, allocs()));
                    ctx.finish(Value::None);
                } else {
                    self.start_upload(ctx, c);
                }
            }
            other => panic!("unexpected event {other:?}"),
        }
    }
}

#[test]
#[cfg_attr(
    any(debug_assertions, feature = "diffcheck"),
    ignore = "counts allocator calls; run with cargo test --release, without netsim/diffcheck"
)]
fn a_warm_crowd_allocates_nothing_per_flow() {
    // The benchmark's first world seed at workload seed 1.
    let seed = splitmix(&mut 1);
    let cfg = SynthGlobe {
        seed,
        ..SynthGlobe::default()
    }
    .with_target_nodes(2_000);
    let world = cfg.build();
    let marks = Rc::new(Cell::new((0, 0)));
    let crowd = Crowd {
        clients: clients(&cfg, &world.hosts, seed),
        frontends: world.frontends,
        inflight: Vec::with_capacity(CLIENTS),
        completed: 0,
        marks: Rc::clone(&marks),
    };
    let mut sim = Sim::new(world.topo, seed);
    let v = sim.run_process(Box::new(crowd)).expect("crowd run");
    assert!(matches!(v, Value::None));
    let (warm, end) = marks.get();
    let calls = end - warm;
    println!("{calls} allocator calls over {STEADY} steady completions");
    assert!(
        calls <= STEADY / COMPLETIONS_PER_CALL,
        "{calls} allocator calls over {STEADY} steady completions, bound {}",
        STEADY / COMPLETIONS_PER_CALL
    );
}
