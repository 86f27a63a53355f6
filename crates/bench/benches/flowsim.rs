//! The workspace's micro-bench harness: scaling studies of the simulator
//! core (max-min allocator, event engine, sharded executor, route oracle),
//! the route-decision plane, the delta-sync chunk store and the telemetry
//! sink. `cargo bench -p bench --bench flowsim` writes every measured row to
//! `BENCH_flowsim.json` and judges it against the gate table in
//! `bench::gate` (see EXPERIMENTS.md).

use bench::gate;
use netsim::flow::{max_min_allocate, AllocEntry, FlowClass, FlowCore, FlowSpec};
use netsim::oracle::RouteOracle;
use netsim::prelude::*;
use netsim::shard::{fold_digests, run_shards};
use netsim::synth::SynthGlobe;
use netsim::units::{GB, KB, MB};
use obs::Json;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cell::Cell;
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Incremental-reallocation scaling study.
//
// The engine's hot path is one reallocation per flow arrival/departure. The
// study models a fleet of mostly independent transfer sites (each site: two
// resources, `FLOWS_PER_SITE` flows) and measures the per-event cost of
//
//   * incremental: `FlowCore::remove` + `FlowCore::insert` of one flow,
//     which recomputes only the touched connected component, vs
//   * reference:   one full `max_min_allocate` over every live flow —
//     what the engine did before the rewrite.
// ---------------------------------------------------------------------------

const FLOWS_PER_SITE: usize = 10;

/// A `total_flows`-flow world of independent 2-resource sites.
fn scaling_world(total_flows: usize, seed: u64) -> (Vec<f64>, Vec<AllocEntry>) {
    let sites = total_flows / FLOWS_PER_SITE;
    let mut rng = SmallRng::seed_from_u64(seed);
    let caps: Vec<f64> = (0..2 * sites)
        .map(|_| rng.gen_range(10.0..1000.0))
        .collect();
    let entries = (0..total_flows)
        .map(|j| {
            let site = (j / FLOWS_PER_SITE) as u32;
            let cap = if rng.gen_bool(0.3) {
                rng.gen_range(1.0..200.0)
            } else {
                f64::INFINITY
            };
            AllocEntry::new(vec![2 * site, 2 * site + 1], cap)
        })
        .collect();
    (caps, entries)
}

/// ns/iter of `f` over `samples` timed runs (after `warmup` runs), fastest
/// first.
fn timed_ns(warmup: usize, samples: usize, mut f: impl FnMut()) -> Vec<f64> {
    for _ in 0..warmup {
        f();
    }
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times
}

/// Median ns/iter of `f` over `samples` timed runs (after `warmup` runs).
fn median_ns(warmup: usize, samples: usize, f: impl FnMut()) -> f64 {
    let times = timed_ns(warmup, samples, f);
    times[times.len() / 2]
}

/// One scaling point: per-event reallocation cost at `n` concurrent flows.
fn scaling_point(n: usize, warmup: usize, samples: usize) -> Json {
    let (caps, entries) = scaling_world(n, 42);

    let mut core = FlowCore::new(caps.clone());
    for (j, e) in entries.iter().enumerate() {
        core.insert(j as u64, j as u64, &e.resources, e.cap, 1.0);
    }
    // Cycle the churned flow so successive iterations touch different
    // components (defeats any single-component cache warmth). Each sample
    // batches many remove+insert pairs: one pair is sub-microsecond, well
    // below timer noise.
    const BATCH: usize = 64;
    let mut victim = 0usize;
    let incremental_ns = median_ns(warmup, samples, || {
        for _ in 0..BATCH {
            let e = &entries[victim];
            core.remove(victim as u64);
            core.insert(victim as u64, victim as u64, &e.resources, e.cap, 1.0);
            victim = (victim + 1) % entries.len();
        }
    }) / (2 * BATCH) as f64; // each pair = two reallocation events

    let reference_ns = median_ns(warmup, samples, || {
        std::hint::black_box(max_min_allocate(&caps, &entries));
    });

    let speedup = reference_ns / incremental_ns;
    println!(
        "flowsim-scaling/{n}: incremental {incremental_ns:.0} ns/event, \
         reference {reference_ns:.0} ns/event, speedup {speedup:.1}x"
    );
    Json::Obj(vec![
        ("flows".into(), Json::Int(n as u64)),
        ("incremental_ns".into(), Json::Num(incremental_ns)),
        ("reference_ns".into(), Json::Num(reference_ns)),
        ("speedup".into(), Json::Num(speedup)),
    ])
}

// ---------------------------------------------------------------------------
// End-to-end engine scaling study.
//
// The allocator study above isolates reallocation; this one measures the
// whole per-event path — heap pop, dispatch, slab lookup, reallocation,
// lazy progress settlement, drain scheduling, queue compaction — at 100,
// 1k, 10k and 100k *concurrent* flows. The world is a fleet of independent
// two-host sites (10 flows each: 9 long-lived residents plus one slot of
// churning short flows), so the allocator component an event touches stays
// constant-size and any growth in per-event cost is engine overhead.
//
// Each point also runs under `ProgressMode::Eager`, which re-runs the
// legacy O(live flows) per-event progress sweep — the cost model the lazy
// rewrite removed — giving an in-binary before/after comparison. Eager is
// skipped at 100k (the quadratic sweep would dominate the whole run).
// ---------------------------------------------------------------------------

/// Flows per independent site: 9 residents + 1 churn slot.
const ENGINE_FLOWS_PER_SITE: usize = 10;

/// One independent transfer site: a host pair plus its churn-flow size.
#[derive(Clone, Copy)]
struct EngineSite {
    src: NodeId,
    dst: NodeId,
    churn_bytes: u64,
}

/// A fleet of disconnected two-host sites. Disconnection keeps on-demand
/// shortest-path resolution O(site), so world setup stays linear in sites.
/// Per-site capacities, delays and churn sizes are deliberately varied:
/// identical sites would complete flows in lock-step, bunching events on
/// shared timestamps and letting the eager sweep's zero-dt early-return
/// dodge the O(live flows) cost it exists to measure.
fn engine_world(sites: usize) -> (Topology, Vec<EngineSite>) {
    engine_world_range(0, sites)
}

/// The sites `lo..hi` of the fleet, with per-site parameters keyed by the
/// *global* site index — a cell of the sharded study builds exactly the
/// slice of the world it simulates, and the union over cells is the same
/// fleet `engine_world` builds whole.
fn engine_world_range(lo: usize, hi: usize) -> (Topology, Vec<EngineSite>) {
    let mut b = TopologyBuilder::new();
    let fleet = (lo..hi)
        .map(|i| {
            let lat = (i % 120) as f64 - 60.0;
            let lon = (i / 120 % 300) as f64 - 150.0;
            let src = b.host(&format!("s{i}"), GeoPoint::new(lat, lon));
            let dst = b.host(&format!("d{i}"), GeoPoint::new(lat, lon + 0.5));
            let params = LinkParams::new(
                Bandwidth::from_mbps(50.0 + (i % 97) as f64),
                SimTime::from_millis(1 + (i % 7) as u64),
            );
            b.duplex(src, dst, params);
            EngineSite {
                src,
                dst,
                churn_bytes: (32 + 8 * (i % 13) as u64) * KB,
            }
        })
        .collect();
    (b.build(), fleet)
}

/// Starts every site's resident + churn flows, then keeps each site's churn
/// slot busy until `remaining` short flows have completed in total.
struct EngineChurn {
    fleet: Vec<EngineSite>,
    site_of: HashMap<u64, usize>,
    remaining: u64,
    /// Completions to treat as warm-up before the timed window opens.
    warmup: u64,
    seen: u64,
    /// Set to `Instant::now()` at the `warmup`-th completion; the caller
    /// reads it back to time the steady-state window only.
    mark: Rc<Cell<Option<Instant>>>,
}

impl EngineChurn {
    fn start_churn(&mut self, ctx: &mut Ctx<'_>, site: usize) {
        let s = self.fleet[site];
        let id = ctx
            .start_flow(FlowSpec::new(
                s.src,
                s.dst,
                s.churn_bytes,
                FlowClass::Background,
            ))
            .expect("site is connected");
        self.site_of.insert(id.0, site);
    }
}

impl Process for EngineChurn {
    fn poll(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        match ev {
            Event::Started => {
                for site in 0..self.fleet.len() {
                    let s = self.fleet[site];
                    // Residents share the site link for the whole run, so
                    // every churn boundary perturbs their rates (and
                    // supersedes their pending drains).
                    for _ in 0..ENGINE_FLOWS_PER_SITE - 1 {
                        ctx.start_flow(FlowSpec::new(s.src, s.dst, 100 * GB, FlowClass::Commodity))
                            .expect("site is connected");
                    }
                    self.start_churn(ctx, site);
                }
            }
            Event::FlowCompleted { flow, .. } => {
                let site = self.site_of.remove(&flow.0).expect("known churn flow");
                self.seen += 1;
                if self.seen == self.warmup {
                    self.mark.set(Some(Instant::now()));
                }
                self.remaining -= 1;
                if self.remaining == 0 {
                    ctx.finish(Value::None);
                } else {
                    self.start_churn(ctx, site);
                }
            }
            Event::FlowFailed { error, .. } => panic!("bench flow failed: {error}"),
            _ => {}
        }
    }
}

/// One full engine run at `n` concurrent flows; returns `(ns/event,
/// events/sec, peak_queue)`. The first fifth of the churn completions are
/// warm-up (ramp-up inserts grow the slab, the flow index and the heap
/// through their reallocation doublings); the timed window covers only
/// steady-state churn, where each completion is exactly three engine
/// events (Activate, Drained, Delivered — stale drains sit far in the
/// future and are compacted away, never popped).
fn engine_run(n: usize, cycles: u64, mode: ProgressMode) -> (f64, f64, u64) {
    let sites = n / ENGINE_FLOWS_PER_SITE;
    let (topo, fleet) = engine_world(sites);
    let mut sim = Sim::new(topo, 42);
    sim.set_progress_mode(mode);
    let warmup = (cycles / 5).max(1);
    let mark = Rc::new(Cell::new(None));
    let v = sim
        .run_process(Box::new(EngineChurn {
            fleet,
            site_of: HashMap::new(),
            remaining: cycles,
            warmup,
            seen: 0,
            mark: Rc::clone(&mark),
        }))
        .expect("engine bench run");
    assert!(matches!(v, Value::None), "bench run failed: {v:?}");
    let wall_ns = mark.get().expect("warm-up mark").elapsed().as_nanos() as f64;
    let stats = sim.stats();
    // At finish every site still holds its residents, and every site but
    // the one whose completion ended the run has a churn flow in flight.
    assert_eq!(sim.live_flows(), sites * ENGINE_FLOWS_PER_SITE - 1);
    let steady_events = 3 * (cycles - warmup);
    let ns_per_event = wall_ns / steady_events as f64;
    (ns_per_event, 1e9 / ns_per_event, stats.peak_queue)
}

/// One engine scaling point: fastest of `reps` runs per mode (scheduling
/// noise is strictly additive, so the minimum is the stable estimator —
/// medians left the regression gate flapping at small sizes).
fn engine_point(n: usize, cycles: u64, reps: usize, with_eager: bool) -> Json {
    let fastest = |mode: ProgressMode| {
        (0..reps)
            .map(|_| engine_run(n, cycles, mode))
            .min_by(|a, b| f64::total_cmp(&a.0, &b.0))
            .expect("at least one rep")
    };
    let (lazy_ns, events_per_sec, peak_queue) = fastest(ProgressMode::Lazy);
    let mut fields = vec![
        ("flows".into(), Json::Int(n as u64)),
        ("lazy_ns".into(), Json::Num(lazy_ns)),
        ("events_per_sec".into(), Json::Num(events_per_sec)),
        ("peak_queue".into(), Json::Int(peak_queue)),
    ];
    if with_eager {
        let (eager_ns, _, _) = fastest(ProgressMode::Eager);
        let speedup = eager_ns / lazy_ns;
        println!(
            "flowsim-engine/{n}: lazy {lazy_ns:.0} ns/event ({events_per_sec:.0} ev/s, \
             peak queue {peak_queue}), eager sweep {eager_ns:.0} ns/event, speedup {speedup:.1}x"
        );
        fields.push(("eager_ns".into(), Json::Num(eager_ns)));
        fields.push(("sweep_speedup".into(), Json::Num(speedup)));
    } else {
        println!(
            "flowsim-engine/{n}: lazy {lazy_ns:.0} ns/event ({events_per_sec:.0} ev/s, \
             peak queue {peak_queue})"
        );
    }
    Json::Obj(fields)
}

// ---------------------------------------------------------------------------
// Sharded-executor scaling study.
//
// The engine fleet above is a union of disconnected sites, so it splits
// cleanly into ENGINE_CELLS independent cells — each a full sub-simulation
// (own topology slice, own Sim, own churn driver) built entirely on its
// worker thread and reduced in cell-id order. The cell count is FIXED
// regardless of the worker count: every thread count executes the exact
// same per-cell work, so the folded digests must match bit-for-bit and the
// wall-clock difference is pure executor scaling.
// ---------------------------------------------------------------------------

/// Cells the fleet is split into for the sharded study.
const ENGINE_CELLS: usize = 8;

/// Plain-data description of one cell: sites `lo..hi` of the global fleet,
/// churned to `cycles` completions. Only this spec crosses the thread
/// boundary — `Sim` is not `Send` and is built on the worker.
#[derive(Clone, Copy)]
struct EngineCellSpec {
    lo: usize,
    hi: usize,
    cycles: u64,
    seed: u64,
}

/// Run one cell to completion; returns `(events, state digest)`.
fn engine_cell_run(spec: EngineCellSpec) -> (u64, u64) {
    let (topo, fleet) = engine_world_range(spec.lo, spec.hi);
    let sites = fleet.len();
    let mut sim = Sim::new(topo, spec.seed);
    let mark = Rc::new(Cell::new(None));
    let v = sim
        .run_process(Box::new(EngineChurn {
            fleet,
            site_of: HashMap::new(),
            remaining: spec.cycles,
            warmup: 0, // whole-run wall time is taken outside run_shards
            seen: 0,
            mark,
        }))
        .expect("engine cell run");
    assert!(matches!(v, Value::None), "cell run failed: {v:?}");
    assert_eq!(sim.live_flows(), sites * ENGINE_FLOWS_PER_SITE - 1);
    (sim.stats().events, sim.state_digest())
}

/// Split the `n`-flow fleet into cells and run them under the sharded
/// executor at `workers` threads, wall-clocking the whole `run_shards`
/// call (spawn, claim loop, join barrier and reduction included). Returns
/// `(ns/event, events/sec, folded digest)`.
fn sharded_engine_run(n: usize, cycles: u64, workers: usize) -> (f64, f64, u64) {
    let sites = n / ENGINE_FLOWS_PER_SITE;
    assert!(sites >= 1, "need at least one site");
    let cells = ENGINE_CELLS.min(sites);
    let specs: Vec<EngineCellSpec> = (0..cells)
        .map(|k| {
            let lo = sites * k / cells;
            let hi = sites * (k + 1) / cells;
            EngineCellSpec {
                lo,
                hi,
                // Churn proportional to the cell's share of the fleet, so
                // the work split matches the site split.
                cycles: (cycles * (hi - lo) as u64 / sites as u64).max(1),
                seed: 42 ^ k as u64,
            }
        })
        .collect();
    let t = Instant::now();
    let results = run_shards(specs, workers, |_, spec| engine_cell_run(spec));
    let wall_ns = t.elapsed().as_nanos() as f64;
    let events: u64 = results.iter().map(|r| r.0).sum();
    let digests: Vec<u64> = results.iter().map(|r| r.1).collect();
    let ns_per_event = wall_ns / events as f64;
    (ns_per_event, 1e9 / ns_per_event, fold_digests(&digests))
}

/// One sharded scaling point: fastest-of-`reps` per worker count, with
/// bit-identical folded digests demanded at every count — the bench doubles
/// as a determinism check on real multi-core hardware.
fn threads_point(n: usize, cycles: u64, reps: usize, counts: &[usize]) -> Vec<Json> {
    let cells = ENGINE_CELLS.min(n / ENGINE_FLOWS_PER_SITE);
    let fastest = |workers: usize| {
        (0..reps)
            .map(|_| sharded_engine_run(n, cycles, workers))
            .min_by(|a, b| f64::total_cmp(&a.0, &b.0))
            .expect("at least one rep")
    };
    let (base_ns, base_eps, base_digest) = fastest(1);
    let mut out = Vec::new();
    for &workers in counts {
        let (ns, eps, digest) = if workers == 1 {
            (base_ns, base_eps, base_digest)
        } else {
            fastest(workers)
        };
        assert_eq!(
            digest, base_digest,
            "sharded digest diverged at {workers} workers / {n} flows"
        );
        let speedup = base_ns / ns;
        println!(
            "flowsim-threads/{n}x{workers}: {ns:.0} ns/event ({eps:.0} ev/s), \
             speedup {speedup:.2}x vs 1 thread"
        );
        out.push(Json::Obj(vec![
            ("flows".into(), Json::Int(n as u64)),
            ("threads".into(), Json::Int(workers as u64)),
            ("cells".into(), Json::Int(cells as u64)),
            ("ns_per_event".into(), Json::Num(ns)),
            ("events_per_sec".into(), Json::Num(eps)),
            ("speedup".into(), Json::Num(speedup)),
        ]));
    }
    out
}

// ---------------------------------------------------------------------------
// Route-oracle scaling study.
//
// Measures the routing rebuild end to end on generated multi-cloud globes:
// cold tree construction (one Dijkstra over the CSR per source), warm
// `path_into` queries (prev-chain walks, zero allocation), `k_detours`
// enumeration, and — for comparison — the legacy per-query Dijkstra the
// oracle replaced. Sizes run 1k → 100k nodes; the 100k point uses the
// acceptance-scale `SynthGlobe::stress` knobs (~1M host links).
// ---------------------------------------------------------------------------

/// One routing scaling point on `globe`; `quick` trims sample counts.
fn routing_point(globe: SynthGlobe, quick: bool) -> Json {
    let world = globe.build();
    let topo = &world.topo;
    let nodes = topo.nodes().len();
    let arcs = topo.csr().arc_count();
    let hosts = &world.hosts;
    // A handful of spread-out sources keeps the tree cache small while the
    // destinations fan out across every region.
    let sources: Vec<NodeId> = hosts.iter().step_by(hosts.len() / 4 + 1).copied().collect();
    let mut state = 0x2545f4914f6cdd1du64;
    let mut next = move |m: usize| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize % m
    };
    let far = hosts[hosts.len() - 1];
    let mut oracle = RouteOracle::new();
    let mut path_buf: Vec<NodeId> = Vec::with_capacity(nodes);

    // Cold build: clear the cache and pay for one full source tree.
    let build_reps = if quick { 3 } else { 5 };
    let build_ms = (0..build_reps)
        .map(|_| {
            oracle.clear_trees();
            let t = Instant::now();
            oracle
                .path_into(topo, sources[0], far, &mut path_buf)
                .unwrap();
            t.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min);

    // Warm queries: every source tree built, then batched prev-chain walks.
    for &s in &sources {
        oracle.path_into(topo, s, far, &mut path_buf).unwrap();
    }
    let (warmup, samples) = if quick { (3, 21) } else { (10, 51) };
    const BATCH: usize = 256;
    let mut pairs: Vec<(NodeId, NodeId)> = (0..BATCH)
        .map(|_| (sources[next(sources.len())], hosts[next(hosts.len())]))
        .collect();
    let query_ns = median_ns(warmup, samples, || {
        for &(src, dst) in &pairs {
            oracle.path_into(topo, src, dst, &mut path_buf).unwrap();
        }
    }) / BATCH as f64;

    // The legacy comparison: one full Dijkstra per query, rotating pairs.
    // Sub-linear sample counts — at 100k nodes a single query is ~a tree
    // build, and the point is the orders-of-magnitude gap, not precision.
    let mut i = 0usize;
    let dijkstra_ns = median_ns(1, if quick { 3 } else { 7 }, || {
        let (src, dst) = pairs[i % pairs.len()];
        std::hint::black_box(netsim::routing::dijkstra(topo, src, dst));
        i += 1;
    });
    let speedup = dijkstra_ns / query_ns;

    // Detour enumeration: k=4 candidates per query, warm reverse trees.
    pairs.truncate(8);
    for &(src, dst) in &pairs {
        oracle.k_detours(topo, src, dst, 4).unwrap();
    }
    let mut j = 0usize;
    let detour_ns = median_ns(warmup, if quick { 11 } else { 31 }, || {
        let (src, dst) = pairs[j % pairs.len()];
        std::hint::black_box(oracle.k_detours(topo, src, dst, 4).unwrap());
        j += 1;
    });

    println!(
        "flowsim-routing/{nodes}: build {build_ms:.2} ms, warm query {query_ns:.0} ns, \
         legacy dijkstra {dijkstra_ns:.0} ns (speedup {speedup:.0}x), \
         k=4 detours {detour_ns:.0} ns/call ({:.0} enum/s)",
        1e9 / detour_ns
    );
    Json::Obj(vec![
        ("nodes".into(), Json::Int(nodes as u64)),
        ("arcs".into(), Json::Int(arcs as u64)),
        ("build_ms".into(), Json::Num(build_ms)),
        ("query_ns".into(), Json::Num(query_ns)),
        ("dijkstra_ns".into(), Json::Num(dijkstra_ns)),
        ("speedup".into(), Json::Num(speedup)),
        ("detour_ns".into(), Json::Num(detour_ns)),
    ])
}

// ---------------------------------------------------------------------------
// Route-plane decision study.
//
// The plane exists to amortize selector passes: a warm cache lookup must
// be far cheaper than the probe-selector decision it replaces. Two
// measurements make that a checkable claim on any host:
//
//   * warm-hit ns — fastest-of-5 batched lookups against a fully
//     populated `RoutePlane` (the allocation-free path the counting-
//     allocator test pins), and
//   * uncached ns — `ProbeSource::compute` called directly, i.e. one real
//     `ProbeSelector` pass per candidate route over the NorthAmerica sim.
//
// Both run on the same box in the same process, so the ≥10x floor is
// host-relative and enforced unconditionally (no hardware waiver). The
// fleet rows then measure lookups/s at 1/2/4 worker threads, total and
// split into served decisions and admission sheds, and check the
// churn-sweep staleness bound end to end.
// ---------------------------------------------------------------------------

use netsim::flow::FlowClass as PlaneFlowClass;
use routeplane::{
    run_fleet, AdmissionConfig, DecisionKey, DecisionSource, FleetConfig, PlaneConfig, ProbeSource,
    RoutePlane,
};

/// A probe-selector-backed source over the NorthAmerica world: 3 vantage
/// clients × 3 providers × (direct + 2 detour hops), the exact decision
/// the paper's tables are built from.
fn plane_probe_source() -> ProbeSource {
    let world = scenarios::NorthAmerica::new();
    let clients: Vec<(NodeId, PlaneFlowClass)> = scenarios::Client::all()
        .iter()
        .map(|&c| {
            let s = world.client(c);
            (s.node, s.class)
        })
        .collect();
    let providers = vec![
        world.provider(cloudstore::ProviderKind::GoogleDrive),
        world.provider(cloudstore::ProviderKind::Dropbox),
        world.provider(cloudstore::ProviderKind::OneDrive),
    ];
    let routes = vec![
        detour_core::Route::Direct,
        detour_core::Route::via(world.hop_ualberta()),
        detour_core::Route::via(world.hop_umich()),
    ];
    ProbeSource::new(
        world.build_sim(3),
        clients,
        providers,
        routes,
        [4 * MB, 64 * MB, 512 * MB],
    )
}

/// Warm-hit vs uncached-selector point. `keys` distinct cells are
/// populated cold, then timed warm in batches of `batch`.
fn plane_decision_point(keys: u32, batch: usize, reps: usize) -> Json {
    let source = plane_probe_source();
    let plane = RoutePlane::new(PlaneConfig {
        vantages: keys,
        // The whole timing loop runs at one virtual instant: quota must
        // come from burst depth, not refill.
        admission: AdmissionConfig {
            tokens_per_sec: 1_000_000,
            burst: 100_000_000,
        },
        ..PlaneConfig::default()
    });
    let cells: Vec<DecisionKey> = (0..keys)
        .map(|v| DecisionKey {
            vantage: v,
            provider: (v % 3) as u16,
            size_class: (v % 3) as u8,
        })
        .collect();
    for &k in &cells {
        plane.lookup(0, k, 0, &source);
    }

    // Fastest-of-`reps` batched warm lookups (scheduling noise is strictly
    // additive, so the minimum is the stable estimator).
    let mut j = 0usize;
    let mut warm_batch = || {
        let t = Instant::now();
        for _ in 0..batch {
            let k = cells[j % cells.len()];
            std::hint::black_box(plane.lookup((j % 4) as u32, k, 0, &source));
            j += 1;
        }
        t.elapsed().as_nanos() as f64 / batch as f64
    };
    warm_batch(); // warm-up rep
    let warm_ns = (0..reps)
        .map(|_| warm_batch())
        .fold(f64::INFINITY, f64::min);

    // The uncached comparison: one full selector pass per decision. A
    // handful of calls suffices — the point is the orders-of-magnitude
    // gap, not precision.
    let probe_keys: Vec<DecisionKey> = cells.iter().copied().take(4).collect();
    let mut i = 0usize;
    let uncached_ns = median_ns(1, reps.max(3), || {
        std::hint::black_box(source.compute(probe_keys[i % probe_keys.len()], 0));
        i += 1;
    });

    let speedup = uncached_ns / warm_ns;
    println!(
        "flowsim-plane-decision/{keys}: warm hit {warm_ns:.0} ns, uncached selector \
         {uncached_ns:.0} ns, speedup {speedup:.0}x"
    );
    Json::Obj(vec![
        ("keys".into(), Json::Int(keys as u64)),
        ("warm_ns".into(), Json::Num(warm_ns)),
        ("uncached_ns".into(), Json::Num(uncached_ns)),
        ("speedup".into(), Json::Num(speedup)),
    ])
}

/// Fleet QPS rows at each worker count: fastest-of-`reps` full fleet runs
/// (zipf clients, churn sweep, breaker trips — the whole service loop).
/// Every row checks the hard staleness invariant: no served decision older
/// than one churn-sweep period.
fn plane_fleet_rows(lookups: u64, reps: usize, counts: &[usize]) -> Vec<Json> {
    let mut out = Vec::new();
    for &threads in counts {
        let cfg = FleetConfig {
            lookups,
            threads,
            ..FleetConfig::default()
        };
        let bound = cfg.churn_period_ns().expect("default config churns");
        let best = (0..reps)
            .map(|_| run_fleet(&cfg))
            .max_by(|a, b| f64::total_cmp(&a.qps, &b.qps))
            .expect("at least one rep");
        let max_stale = best.staleness.max().unwrap_or(0);
        assert!(
            max_stale <= bound,
            "plane served a decision {max_stale}ns stale, past the \
             {bound}ns churn-sweep bound"
        );
        let p99 = best.staleness_ns(0.99);
        let ns_per_lookup = 1e9 / best.qps;
        println!(
            "flowsim-plane/{threads}t: {:.0} lookups/s (served {:.0}/s, shed {:.0}/s; \
             {ns_per_lookup:.0} ns/lookup), hit {} stale {} demote {} shed {}, \
             staleness p99 {p99} ns (bound {bound} ns)",
            best.qps,
            best.served_qps(),
            best.shed_qps(),
            best.stats.hits,
            best.stats.stale_refreshes,
            best.stats.demotions,
            best.stats.sheds,
        );
        out.push(Json::Obj(vec![
            ("threads".into(), Json::Int(threads as u64)),
            ("lookups".into(), Json::Int(lookups)),
            ("qps".into(), Json::Num(best.qps)),
            ("served_qps".into(), Json::Num(best.served_qps())),
            ("shed_qps".into(), Json::Num(best.shed_qps())),
            ("ns_per_lookup".into(), Json::Num(ns_per_lookup)),
            ("hits".into(), Json::Int(best.stats.hits)),
            ("misses".into(), Json::Int(best.stats.misses)),
            (
                "stale_refreshes".into(),
                Json::Int(best.stats.stale_refreshes),
            ),
            ("demotions".into(), Json::Int(best.stats.demotions)),
            ("sheds".into(), Json::Int(best.stats.sheds)),
            ("staleness_p99_ns".into(), Json::Int(p99)),
            ("staleness_max_ns".into(), Json::Int(max_stale)),
            ("staleness_bound_ns".into(), Json::Int(bound)),
        ]));
    }
    out
}

// ---------------------------------------------------------------------------
// Delta-sync chunk-store study.
//
// The sync workload plane's hot loop is `ChunkStore::plan` — one content-
// addressed probe per manifest chunk on every rsync leg through a DTN.
// Each point replays a deterministic `SyncPopulation` edit history (the
// same fixed-seed workload `detour sync` runs) through one shared store
// and records
//
//   * the byte outcome: full bytes vs deduplicated wire bytes and the
//     store's cumulative hit rate — fixed-seed deterministic, so gated by
//     absolute floors (a dip means the dedup logic changed, not the host),
//   * ns/probe: fastest-of-5 batched `plan` passes over a frozen clone of
//     the warm store, regression-gated vs the checked-in baseline,
//   * ns per target byte of the fused per-leg kernels (signature, delta,
//     manifest, patch) over the same history, fastest-of-5, gated the same
//     way.
// ---------------------------------------------------------------------------

use relay::ChunkStore;
use transfer::{
    apply_delta, compute_delta, ChunkManifest, MutationMix, Signature, SyncPopulation,
    SyncPopulationConfig,
};

/// One sync point: `files` files of `file_kb` KB mutated through `rounds`
/// edit rounds against a shared chunk store.
fn sync_point(files: usize, file_kb: usize, rounds: usize, reps: usize) -> Json {
    let cfg = SyncPopulationConfig {
        files,
        file_len: file_kb * KB as usize,
        mix: MutationMix::desktop(),
        max_edits: 16,
        max_append: 4096,
        max_rewrite: 16 * 1024,
    };
    let mut pop = SyncPopulation::new(42, cfg);
    let mut store = ChunkStore::new(64 * MB);
    let mut full_bytes = 0u64;
    let mut wire_bytes = 0u64;
    for round in 0..=rounds {
        if round > 0 {
            pop.advance();
        }
        for i in 0..files {
            let m = ChunkManifest::of(pop.file(i), transfer::DEFAULT_CHUNK_SIZE);
            let p = store.plan(&m);
            store.admit(&m);
            full_bytes += pop.file(i).len() as u64;
            wire_bytes += p.wire_bytes;
        }
    }
    let stats = store.stats();
    let saved_pct = 100.0 * (full_bytes - wire_bytes) as f64 / full_bytes as f64;

    // ns/probe: batched plans against a frozen clone of the warm store.
    // `plan` mutates counters only, never residency, so every pass probes
    // the identical resident set.
    let manifests: Vec<ChunkManifest> = (0..files)
        .map(|i| ChunkManifest::of(pop.file(i), transfer::DEFAULT_CHUNK_SIZE))
        .collect();
    let probes_per_pass: u64 = manifests.iter().map(|m| m.chunks.len() as u64).sum();
    let mut timing = store.clone();
    let mut pass = || {
        let t = Instant::now();
        for m in &manifests {
            std::hint::black_box(timing.plan(m));
        }
        t.elapsed().as_nanos() as f64 / probes_per_pass as f64
    };
    pass(); // warm-up
    let ns_per_probe = (0..reps).map(|_| pass()).fold(f64::INFINITY, f64::min);
    let leg_ns_per_byte = (0..reps)
        .map(|_| sync_leg_pass(cfg, rounds))
        .fold(f64::INFINITY, f64::min);

    println!(
        "flowsim-sync/{probes_per_pass}: {files} files x {file_kb} KB x {rounds} rounds, \
         {saved_pct:.1}% bytes saved, hit rate {:.2}, probe {ns_per_probe:.0} ns, \
         leg {leg_ns_per_byte:.1} ns/B",
        stats.hit_rate()
    );
    Json::Obj(vec![
        ("chunks".into(), Json::Int(probes_per_pass)),
        ("files".into(), Json::Int(files as u64)),
        ("file_kb".into(), Json::Int(file_kb as u64)),
        ("rounds".into(), Json::Int(rounds as u64)),
        ("full_bytes".into(), Json::Int(full_bytes)),
        ("wire_bytes".into(), Json::Int(wire_bytes)),
        ("saved_pct".into(), Json::Num(saved_pct)),
        ("hit_rate".into(), Json::Num(stats.hit_rate())),
        ("ns_per_probe".into(), Json::Num(ns_per_probe)),
        ("leg_ns_per_byte".into(), Json::Num(leg_ns_per_byte)),
    ])
}

/// One pass of the fused per-leg kernel cost over the point's edit history:
/// every file is replicated to an empty basis, then re-synced after each
/// round through the calls a sync leg makes — `Signature::compute`,
/// `compute_delta`, `ChunkManifest::of`, `apply_delta` — and the time spent
/// in those calls is divided by the target bytes. Regenerating the history
/// between legs is not timed.
fn sync_leg_pass(cfg: SyncPopulationConfig, rounds: usize) -> f64 {
    let block = transfer::DEFAULT_BLOCK_SIZE;
    let mut pop = SyncPopulation::new(42, cfg);
    let mut remote = vec![Vec::new(); cfg.files];
    let (mut ns, mut bytes) = (0u128, 0u64);
    for round in 0..=rounds {
        if round > 0 {
            pop.advance();
        }
        for (i, basis) in remote.iter_mut().enumerate() {
            let target = pop.file(i);
            let t = Instant::now();
            let sig = Signature::compute(basis, block);
            let delta = compute_delta(&sig, target);
            let manifest = ChunkManifest::of(target, transfer::DEFAULT_CHUNK_SIZE);
            let rebuilt = apply_delta(basis, block, &delta);
            ns += t.elapsed().as_nanos();
            std::hint::black_box(manifest);
            let rebuilt = rebuilt.expect("delta applies");
            assert_eq!(rebuilt, target, "leg did not patch back");
            bytes += target.len() as u64;
            *basis = rebuilt;
        }
    }
    ns as f64 / bytes as f64
}

// ---------------------------------------------------------------------------
// Telemetry overhead study.
//
// Every campaign, test and `detour` run keeps the telemetry sink disabled,
// so its no-op calls ride every hot path. The point times a 10 MB UBC →
// Google Drive upload with the sink disabled and batches of disabled-sink
// calls, then charges the per-call cost to every telemetry operation an
// enabled recording of the same upload performs. Both shares of the upload
// are ceiling-gated: the span/event/counter sink, and the window path,
// which sits on the flow-delivery hot path.
// ---------------------------------------------------------------------------

use cloudstore::{ProviderKind, UploadOptions};
use detour_core::{run_job, Route};
use obs::{Category, SpanId, Telemetry};
use scenarios::{Client, NorthAmerica};

/// Size of the upload the telemetry point measures.
const TELEMETRY_BYTES: u64 = 10 * MB;

/// One direct UBC → Google Drive upload; returns its recording when
/// `enabled`.
fn telemetry_upload(world: &NorthAmerica, enabled: bool) -> Option<obs::Recording> {
    let client = world.client(Client::Ubc);
    let provider = world.provider(ProviderKind::GoogleDrive);
    let mut sim = world.build_sim(7);
    if enabled {
        sim.enable_telemetry();
    }
    run_job(
        &mut sim,
        client.node,
        client.class,
        &provider,
        TELEMETRY_BYTES,
        &Route::Direct,
        UploadOptions::warm(client.class),
    )
    .expect("upload succeeds");
    sim.take_telemetry()
}

/// Upper bound on the telemetry operations one run executes, counted from
/// its recording: two per span (begin/end), one per event, one per
/// histogram/gauge sample, and one counter touch charged to every span and
/// event (counter adds ride along with those sites).
fn telemetry_ops(rec: &obs::Recording) -> u64 {
    let sampled: u64 = rec
        .metrics
        .snapshot()
        .rows
        .iter()
        .filter(|r| r.kind != "counter")
        .map(|r| r.samples)
        .sum();
    3 * rec.spans.len() as u64 + 2 * rec.events.len() as u64 + sampled
}

/// The telemetry point: the disabled sink's and the disabled window path's
/// estimated share of the upload. Both sides of each share are
/// fastest-of-`samples` (after `warmup` runs).
fn telemetry_point(warmup: usize, samples: usize) -> Json {
    let world = NorthAmerica::new();
    let ops = telemetry_ops(&telemetry_upload(&world, true).expect("telemetry enabled"));
    let upload_ns = timed_ns(warmup, samples, || {
        std::hint::black_box(telemetry_upload(&world, false));
    })[0];
    // black_box on the handle and timestamp keeps the optimizer from proving
    // the sink disabled and deleting the loops.
    let mut tele = Telemetry::disabled();
    // Span begin + end, one event whose argument closure must not run, and
    // one counter: 4 sink calls per iteration.
    let sink_ns = timed_ns(warmup, samples, || {
        let t = std::hint::black_box(&mut tele);
        for i in 0..1000u64 {
            let s = t.span_begin_with(
                std::hint::black_box(i),
                Category::Flow,
                "flow",
                SpanId::NONE,
                |a| {
                    a.set("bytes", i);
                },
            );
            t.event(i, Category::Flow, "flow.rate", s, |a| {
                a.set("bytes_per_sec", 1.0);
            });
            t.counter_add("bench.calls", 1);
            t.span_end(i, s);
        }
        std::hint::black_box(t.is_enabled());
    })[0]
        / 4000.0;
    // A window record, a window count and a watermark advance: 3 calls per
    // iteration. Every window site shares a telemetry call site, so the same
    // op count bounds them.
    let window_ns = timed_ns(warmup, samples, || {
        let t = std::hint::black_box(&mut tele);
        for i in 0..1000u64 {
            t.window_record(std::hint::black_box(i), "netsim.flow.duration_ns", i);
            t.window_count(i, "netsim.flow.delivered_bytes", 1);
            t.advance_watermark(i);
        }
        std::hint::black_box(t.is_enabled());
    })[0]
        / 3000.0;
    let share_pct = |ns_per_call: f64| 100.0 * ops as f64 * ns_per_call / upload_ns;
    let (sink_pct, window_pct) = (share_pct(sink_ns), share_pct(window_ns));
    println!(
        "flowsim-telemetry/{TELEMETRY_BYTES}: {ops} ops on a {:.2} ms upload; disabled sink \
         {sink_ns:.2} ns/call = {sink_pct:.3}%, disabled window path {window_ns:.2} ns/call = \
         {window_pct:.3}%",
        upload_ns / 1e6
    );
    Json::Obj(vec![
        ("bytes".into(), Json::Int(TELEMETRY_BYTES)),
        ("ops".into(), Json::Int(ops)),
        ("upload_ns".into(), Json::Num(upload_ns)),
        ("sink_ns_per_call".into(), Json::Num(sink_ns)),
        ("sink_pct".into(), Json::Num(sink_pct)),
        ("window_ns_per_call".into(), Json::Num(window_ns)),
        ("window_pct".into(), Json::Num(window_pct)),
    ])
}

/// Resolve a bench-file path against the workspace root. Cargo runs bench
/// binaries with cwd = `crates/bench`, so a bare relative `BENCH_OUT` (or
/// baseline path) used to land the report inside the crate directory
/// instead of next to the checked-in `BENCH_flowsim.json`.
fn workspace_path(p: &str) -> std::path::PathBuf {
    let p = std::path::Path::new(p);
    if p.is_absolute() {
        p.to_path_buf()
    } else {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(p)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    // `cargo bench` passes `--bench`; `cargo test --benches` does not (and
    // builds without optimization, where timings are meaningless).
    let bench_mode = args.iter().any(|a| a == "--bench");
    let quick = args.iter().any(|a| a == "--quick") || std::env::var_os("BENCH_QUICK").is_some();

    // Scaling studies: smoke-run tiny points (no report) outside bench mode.
    if !bench_mode {
        scaling_point(100, 0, 2);
        engine_point(100, 200, 1, true);
        threads_point(100, 100, 1, &[1, 2]);
        routing_point(SynthGlobe::default().with_target_nodes(600), true);
        plane_decision_point(8, 64, 1);
        plane_fleet_rows(20_000, 1, &[1]);
        telemetry_point(0, 1);
        // The real smallest series point: the byte outcome is a pure
        // function of (seed, config), so the floors hold here exactly as
        // they do in bench mode.
        let sync = Json::Obj(vec![(
            "sync".into(),
            Json::Arr(vec![sync_point(8, 128, 4, 1)]),
        )]);
        assert!(gate::check(&sync, None, 1).failures.is_empty());
        // The workspace-root anchor the report/baseline paths rely on.
        assert!(workspace_path("Cargo.toml").is_file());
        assert!(workspace_path("crates/bench").is_dir());
        return;
    }
    let (warmup, samples) = if quick { (5, 21) } else { (50, 101) };
    let sizes: Vec<Json> = [100usize, 1000, 10000]
        .iter()
        .map(|&n| scaling_point(n, warmup, samples))
        .collect();

    // End-to-end engine series; the eager (legacy-sweep) comparison run is
    // skipped at 100k where it would be quadratic.
    let reps = 3;
    let engine: Vec<Json> = [100usize, 1000, 10_000, 100_000]
        .iter()
        .map(|&n| {
            let cycles = if quick {
                (n as u64 / 10).max(2000)
            } else {
                (n as u64).max(5000)
            };
            engine_point(n, cycles, reps, n <= 10_000)
        })
        .collect();
    // Headline scaling ratios for the log: eager-vs-lazy at 10k, and how
    // flat events/sec stays from 10k to 100k concurrent flows.
    let evs = |p: &Json| {
        p.get("events_per_sec")
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    if let (Some(p10k), Some(p100k)) = (engine.get(2), engine.get(3)) {
        let speedup = p10k
            .get("sweep_speedup")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        println!(
            "flowsim-engine: 10k-flow sweep speedup {speedup:.1}x, \
             100k/10k events-per-sec ratio {:.2}",
            evs(p100k) / evs(p10k)
        );
    }

    // Sharded-executor scaling: the same fleet split into fixed cells, run
    // at 1/2/4/8 workers. Digest parity across counts is asserted inside
    // threads_point, so the series is also a hardware determinism check.
    let host_threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let thread_sizes: &[usize] = if quick {
        &[10_000, 100_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    };
    // Fastest-of-5 (vs 3 for the engine series): multi-worker runs on an
    // oversubscribed host pick up scheduling noise that more reps damp.
    let mut threads = Vec::new();
    for &n in thread_sizes {
        let cycles = (n as u64 / 10).max(2000);
        threads.extend(threads_point(n, cycles, 5, &[1, 2, 4, 8]));
    }

    // Route-oracle scaling: cold build, warm query, detour enumeration and
    // the legacy Dijkstra gap at 1k/10k/100k nodes (100k = stress knobs).
    let mut globes = vec![
        SynthGlobe {
            seed: 11,
            ..SynthGlobe::default()
        }
        .with_target_nodes(1_000),
        SynthGlobe {
            seed: 11,
            ..SynthGlobe::default()
        }
        .with_target_nodes(10_000),
    ];
    if !quick {
        globes.push(SynthGlobe::stress(11));
    }
    let routing: Vec<Json> = globes
        .into_iter()
        .map(|g| routing_point(g, quick))
        .collect();

    // Route-plane series: the warm-hit amortization point and fleet QPS
    // rows at 1/2/4 worker threads (fastest-of-5 — multi-worker runs on an
    // oversubscribed host pick up scheduling noise that more reps damp).
    let decision = plane_decision_point(256, if quick { 1024 } else { 4096 }, 5);
    let fleet_lookups = if quick { 400_000 } else { 2_000_000 };
    let plane_fleet = plane_fleet_rows(fleet_lookups, 5, &[1, 2, 4]);

    // Delta-sync series: the same two points in quick and full mode (the
    // workload is cheap and the byte floors are deterministic, so there is
    // nothing to trim).
    let sync: Vec<Json> = [(8usize, 128usize), (32, 256)]
        .iter()
        .map(|&(files, file_kb)| sync_point(files, file_kb, 4, 5))
        .collect();

    let telemetry = telemetry_point(warmup, samples);

    let report = Json::Obj(vec![
        ("bench".into(), Json::Str("flowsim-scaling".into())),
        ("flows_per_site".into(), Json::Int(FLOWS_PER_SITE as u64)),
        ("quick".into(), Json::Bool(quick)),
        ("host_threads".into(), Json::Int(host_threads as u64)),
        ("sizes".into(), Json::Arr(sizes)),
        ("engine".into(), Json::Arr(engine)),
        ("threads".into(), Json::Arr(threads)),
        ("routing".into(), Json::Arr(routing)),
        ("plane_decision".into(), Json::Arr(vec![decision])),
        ("plane_fleet".into(), Json::Arr(plane_fleet)),
        ("sync".into(), Json::Arr(sync)),
        ("telemetry".into(), Json::Arr(vec![telemetry])),
    ]);

    // Judge the report BEFORE overwriting any baseline the output path
    // might point at.
    let mut failed = false;
    let baseline = std::env::var("BENCH_BASELINE").ok().and_then(|path| {
        let path = workspace_path(&path);
        std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|s| Json::parse(&s).map_err(|e| e.to_string()))
            .map_err(|e| {
                eprintln!("cannot read baseline {}: {e}", path.display());
                failed = true;
            })
            .ok()
    });
    let verdict = gate::check(&report, baseline.as_ref(), host_threads);
    for finding in &verdict.waivers {
        println!(
            "waived (host has {host_threads} hardware thread(s), gate needs {}): {finding}",
            gate::HARDWARE_THREADS
        );
    }
    for finding in &verdict.failures {
        eprintln!("REGRESSION: {finding}");
        failed = true;
    }

    let out = std::env::var("BENCH_OUT").unwrap_or_else(|_| "BENCH_flowsim.json".into());
    let out = workspace_path(&out);
    std::fs::write(&out, report.render()).expect("write bench report");
    println!("wrote {}", out.display());
    if failed {
        std::process::exit(1);
    }
}
