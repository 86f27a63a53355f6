//! System-level checks for the incremental allocator rewrite.
//!
//! Two concerns that only show up above the `FlowCore` unit tests:
//!
//! * **Policer resource-index stability.** Aggregate policers are
//!   allocatable resources addressed as `n_links + i`. Those indices must
//!   stay aligned with [`AuditView::resource_capacities`] across topology
//!   sizes, and matching flows must attribute to exactly the right index —
//!   an off-by-one here would silently police the wrong traffic.
//! * **Allocator-mode digest parity.** Running the same scenario with the
//!   incremental allocator and with the full-recompute reference must
//!   produce bit-identical event streams and chained state digests; the
//!   simcheck differential oracle depends on this.

use routing_detours::netsim::audit::AuditHook;
use routing_detours::netsim::engine::AuditView;
use routing_detours::netsim::prelude::*;
use routing_detours::netsim::synth::SynthGlobe;
use routing_detours::netsim::units::MB;
use routing_detours::simcheck::{case_seed, run_once, RunOptions, ScenarioSpec};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// What the index-stability hook observed over a whole run.
#[derive(Default)]
struct IndexObservations {
    events: u64,
    /// Did any active flow carry a policer resource index (>= n_links)?
    policer_attributed: bool,
}

/// Audit hook asserting the resource table layout after every event.
struct IndexStabilityHook {
    n_policers: usize,
    policer_rates: Vec<f64>,
    obs: Rc<RefCell<IndexObservations>>,
}

impl AuditHook for IndexStabilityHook {
    fn after_event(&mut self, view: &AuditView<'_>) {
        let caps = view.resource_capacities();
        let n_links = view.n_links();
        assert_eq!(
            caps.len(),
            n_links + self.n_policers,
            "resource table must be links then aggregate policers"
        );
        for (i, want) in self.policer_rates.iter().enumerate() {
            assert_eq!(
                caps[n_links + i],
                *want,
                "policer {i} capacity drifted at index {}",
                n_links + i
            );
        }
        let mut obs = self.obs.borrow_mut();
        obs.events += 1;
        for f in view.flows() {
            if !f.active {
                continue;
            }
            for &r in f.resources {
                assert!(
                    (r as usize) < caps.len(),
                    "flow {} references resource {r} beyond the table",
                    f.id
                );
            }
            if f.resources.iter().any(|&r| r as usize >= n_links) {
                obs.policer_attributed = true;
            }
        }
    }
}

/// A line topology with `extra_hosts` additional stub hosts so the link
/// count (and therefore the policer base index) varies per call.
fn world(extra_hosts: u32) -> (Sim, NodeId, NodeId, LinkId) {
    let mut b = TopologyBuilder::new();
    let a = b.host("src", GeoPoint::new(49.0, -123.0));
    let c = b.datacenter("dst", GeoPoint::new(37.4, -122.1));
    let (link, _) = b.duplex(
        a,
        c,
        LinkParams::new(Bandwidth::from_mbps(80.0), SimTime::from_millis(10)),
    );
    for i in 0..extra_hosts {
        let h = b.host(&format!("stub{i}"), GeoPoint::new(40.0 + i as f64, -100.0));
        b.duplex(
            h,
            c,
            LinkParams::new(Bandwidth::from_mbps(20.0), SimTime::from_millis(5)),
        );
    }
    (Sim::new(b.build(), 1), a, c, link)
}

/// Aggregate policer indices stay `n_links + i` as the topology grows, the
/// audit capacity table matches, and only matching flows attribute to them.
#[test]
fn aggregate_policer_indices_survive_topology_growth() {
    for extra_hosts in [0u32, 3, 9] {
        let (mut sim, a, c, link) = world(extra_hosts);
        let n_links = sim.core().topology().links().len();
        let rates = [Bandwidth::from_mbps(8.0), Bandwidth::from_mbps(16.0)];
        sim.add_policer(Policer::aggregate(
            "agg-planetlab",
            link,
            FlowClass::PlanetLab,
            rates[0],
        ));
        sim.add_policer(Policer::aggregate(
            "agg-commodity",
            link,
            FlowClass::Commodity,
            rates[1],
        ));
        let obs = Rc::new(RefCell::new(IndexObservations::default()));
        sim.set_audit_hook(Box::new(IndexStabilityHook {
            n_policers: 2,
            policer_rates: rates.iter().map(|r| r.bytes_per_sec()).collect(),
            obs: Rc::clone(&obs),
        }));
        let rep = sim
            .run_transfer(TransferRequest::with_class(
                a,
                c,
                10 * MB,
                FlowClass::PlanetLab,
            ))
            .unwrap();
        let obs = obs.borrow();
        assert!(obs.events > 0, "hook never fired");
        assert!(
            obs.policer_attributed,
            "policed flow never attributed to a policer resource \
             (extra_hosts = {extra_hosts}, n_links = {n_links})"
        );
        // The 8 Mbps (1 MB/s) aggregate policer, not the 80 Mbps link, must
        // bound the transfer — proof the capacity landed at the right index.
        let s = rep.elapsed.as_secs_f64();
        assert!(
            s > 9.5,
            "policed transfer took only {s}s with {extra_hosts} extra hosts"
        );
    }
}

/// An unmatched class ignores the aggregate policer entirely: no resource
/// attribution and no throughput penalty.
#[test]
fn unmatched_class_skips_policer_resource() {
    let (mut sim, a, c, link) = world(2);
    let rate = Bandwidth::from_mbps(8.0);
    sim.add_policer(Policer::aggregate(
        "agg-planetlab",
        link,
        FlowClass::PlanetLab,
        rate,
    ));
    let obs = Rc::new(RefCell::new(IndexObservations::default()));
    sim.set_audit_hook(Box::new(IndexStabilityHook {
        n_policers: 1,
        policer_rates: vec![rate.bytes_per_sec()],
        obs: Rc::clone(&obs),
    }));
    let rep = sim
        .run_transfer(TransferRequest::with_class(
            a,
            c,
            10 * MB,
            FlowClass::Research,
        ))
        .unwrap();
    assert!(
        !obs.borrow().policer_attributed,
        "Research flow attributed to a PlanetLab policer resource"
    );
    // 80 Mbps link = 10 MB/s: the 10 MB transfer finishes in about a second.
    assert!(rep.elapsed.as_secs_f64() < 2.0);
}

/// The incremental and reference allocators produce bit-identical
/// executions over randomized scenarios (same chained digest, same event
/// count, same bytes delivered).
#[test]
fn allocator_modes_are_bit_identical_end_to_end() {
    for i in 0..6 {
        let spec = ScenarioSpec::generate(case_seed(13, i));
        let inc = run_once(&spec, RunOptions::default());
        let reference = run_once(
            &spec,
            RunOptions {
                reference_allocator: true,
                ..Default::default()
            },
        );
        assert_eq!(
            inc.chain_digest, reference.chain_digest,
            "case {i}: allocator modes diverged"
        );
        assert_eq!(inc.events, reference.events, "case {i}");
        assert_eq!(inc.bytes_delivered, reference.bytes_delivered, "case {i}");
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A closed-loop upload crowd, like perfbench's `crowd`: every client keeps
/// one upload in flight to its region's frontend of a randomly drawn cloud
/// and starts the next when one lands, until `target` uploads have landed.
struct Crowd {
    /// (host, region) per client.
    clients: Vec<(NodeId, usize)>,
    /// `frontends[cloud][region]`.
    frontends: Vec<Vec<NodeId>>,
    rng: u64,
    inflight: HashMap<u64, usize>,
    /// (flow id, sim ns) of every landing, in order.
    landed: Rc<RefCell<Vec<(u64, u64)>>>,
    target: usize,
}

impl Crowd {
    fn start(&mut self, ctx: &mut Ctx<'_>, c: usize) {
        let r = splitmix(&mut self.rng);
        let (host, region) = self.clients[c];
        let dst = self.frontends[(r >> 40) as usize % self.frontends.len()][region];
        let spec = FlowSpec::new(host, dst, 4 * MB + r % (4 * MB), FlowClass::Commodity);
        let flow = ctx
            .start_flow(spec)
            .expect("globe hosts reach every frontend");
        self.inflight.insert(flow.0, c);
    }
}

impl Process for Crowd {
    fn poll(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        match ev {
            Event::Started => {
                for c in 0..self.clients.len() {
                    self.start(ctx, c);
                }
            }
            Event::FlowCompleted { flow, .. } => {
                let c = self.inflight.remove(&flow.0).expect("a crowd flow");
                let mut landed = self.landed.borrow_mut();
                landed.push((flow.0, ctx.now_ns()));
                if landed.len() == self.target {
                    ctx.finish(Value::U64(landed.len() as u64));
                } else {
                    drop(landed);
                    self.start(ctx, c);
                }
            }
            ev => panic!("unexpected crowd event {ev:?}"),
        }
    }
}

/// What one crowd run left behind.
#[derive(Debug, PartialEq)]
struct CrowdRun {
    state_digest: u64,
    landed: Vec<(u64, u64)>,
    events: u64,
    reallocations: u64,
    largest_component: usize,
}

/// 64 clients on a ~500-node globe, 256 landings of 4–8 MB, under the
/// given allocator. Two regions, one cloud and two routers per region
/// funnel each region's uploads through few frontend uplinks, so the
/// max-min components grow to tens of flows, each held back by its own
/// access link.
fn crowd_run(mode: AllocMode) -> CrowdRun {
    let cfg = SynthGlobe {
        seed: 5,
        regions: 2,
        clouds: 1,
        routers_per_region: 2,
        ..SynthGlobe::default()
    }
    .with_target_nodes(500);
    let world = cfg.build();
    let mut rng = 0x5EED;
    let clients = (0..64)
        .map(|c| {
            let region = c % cfg.regions;
            let pick = splitmix(&mut rng) as usize % cfg.hosts_per_region;
            (world.hosts[region * cfg.hosts_per_region + pick], region)
        })
        .collect();
    let mut sim = Sim::new(world.topo, 5);
    sim.set_allocator_mode(mode);
    let landed = Rc::new(RefCell::new(Vec::new()));
    let crowd = Crowd {
        clients,
        frontends: world.frontends,
        rng: 0xC0FFEE,
        inflight: HashMap::new(),
        landed: Rc::clone(&landed),
        target: 256,
    };
    let done = sim.run_process(Box::new(crowd)).expect("crowd run");
    assert!(matches!(done, Value::U64(256)), "crowd ended with {done:?}");
    let stats = sim.stats();
    let largest_component = sim
        .flow_components()
        .iter()
        .map(Vec::len)
        .max()
        .unwrap_or(0);
    CrowdRun {
        state_digest: sim.state_digest(),
        landed: landed.take(),
        events: stats.events,
        reallocations: stats.reallocations,
        largest_component,
    }
}

/// The allocator modes stay bit-identical on a crowd-shaped run, where a
/// max-min component holds tens of flows and one waterfill runs about as
/// many rounds as its component has flows. simcheck's generated specs
/// average 1.5 flows per waterfill, so its reference-allocator run never
/// reaches this regime.
#[test]
fn allocator_modes_are_bit_identical_on_a_closed_loop_crowd() {
    let inc = crowd_run(AllocMode::Incremental);
    let reference = crowd_run(AllocMode::Reference);
    assert!(
        inc.largest_component >= 16,
        "largest component holds only {} flows",
        inc.largest_component
    );
    assert_eq!(inc, reference, "allocator modes diverged on the crowd");
}
