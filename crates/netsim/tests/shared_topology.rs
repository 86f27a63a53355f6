//! Sharing one topology never changes a simulation.
//!
//! The shortest-path trees live on the [`Topology`], so sims that share an
//! `Arc<Topology>` read trees that other sims, or other threads, built.
//! These tests warm every tree of a topology from another thread with path
//! queries, then run sims over the shared, warm topology and over unshared
//! cold clones of it, under both routing modes: every chained state
//! digest, counter, result and diagnostic query must agree.

use netsim::audit::{AuditHook, Digest};
use netsim::background::{BackgroundProfile, BackgroundTraffic};
use netsim::engine::{AuditView, Core, Ctx, Event, Process, Sim, Value};
use netsim::flow::{FlowClass, FlowSpec};
use netsim::routing::{RoutingMode, RoutingTable};
use netsim::synth::SynthWan;
use netsim::time::SimTime;
use netsim::topology::{NodeId, Topology};
use netsim::units::MB;
use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;
use std::sync::Arc;

/// Folds the sim's state digest after every event into one chain.
struct Chain(Rc<RefCell<(Digest, u64)>>);

impl AuditHook for Chain {
    fn after_event(&mut self, view: &AuditView<'_>) {
        let mut chain = self.0.borrow_mut();
        chain.0.write_u64(view.state_digest());
        chain.1 += 1;
    }
}

/// Starts one flow per entry, `stagger` apart: routed when `path` is
/// `None`, pinned to the given detour path otherwise. Finishes once all
/// flows have completed, with every flow's elapsed time.
struct Uploads {
    flows: Vec<(NodeId, NodeId, u64, Option<Vec<NodeId>>)>,
    started: usize,
    elapsed: Vec<Value>,
}

impl Process for Uploads {
    fn poll(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        match ev {
            Event::Started | Event::Timer { .. } => {
                let (src, dst, bytes, path) = self.flows[self.started].clone();
                let mut spec = FlowSpec::new(src, dst, bytes, FlowClass::Commodity);
                if let Some(path) = path {
                    spec = spec.with_path(path);
                }
                ctx.start_flow(spec).expect("connected WAN");
                let rtt = ctx.rtt(dst, src).expect("connected WAN");
                self.elapsed.push(Value::Time(rtt));
                self.started += 1;
                if self.started < self.flows.len() {
                    ctx.set_timer(SimTime::from_millis(30), 0);
                }
            }
            Event::FlowCompleted { elapsed, .. } => {
                self.elapsed.push(Value::Time(elapsed));
                if self.elapsed.len() == 2 * self.flows.len() {
                    ctx.finish(Value::List(std::mem::take(&mut self.elapsed)));
                }
            }
            Event::FlowFailed { error, .. } => ctx.finish(Value::Error(error)),
            _ => {}
        }
    }
}

/// Everything observable about one execution; floats are rendered by
/// `Debug`, which round-trips them exactly.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    chain: u64,
    audited_events: u64,
    final_digest: u64,
    stats: String,
    result: String,
    queries: Vec<String>,
}

/// A loop-free route from `src` to `dst` other than `routed`: the routed
/// paths `src → via` and `via → dst` joined at the first pivot `via`, in
/// node id order, that gives one, or `None` when no node does.
fn pivot_detour(
    core: &mut Core,
    src: NodeId,
    dst: NodeId,
    routed: &[NodeId],
) -> Option<Vec<NodeId>> {
    let n = core.topology().nodes().len() as u32;
    (0..n).map(NodeId).find_map(|via| {
        let mut joined = core.resolve_path(src, via).ok()?;
        joined.extend_from_slice(&core.resolve_path(via, dst).ok()?[1..]);
        let mut seen = HashSet::new();
        (joined != routed && joined.iter().all(|&n| seen.insert(n))).then_some(joined)
    })
}

fn run(topo: impl Into<Arc<Topology>>, hosts: &[NodeId], seed: u64, mode: RoutingMode) -> Observed {
    let mut sim = Sim::new(topo, seed);
    sim.set_routing_mode(mode);
    let chain = Rc::new(RefCell::new((Digest::new(), 0)));
    sim.set_audit_hook(Box::new(Chain(Rc::clone(&chain))));
    let n = hosts.len();
    let pick = |i: usize| hosts[(seed as usize * 5 + i * 7) % n];
    for i in 0..2 {
        let profile = BackgroundProfile::moderate(pick(i), pick(i + 3)).scaled(0.5);
        sim.spawn_detached(Box::new(BackgroundTraffic::new(profile)));
    }
    let mut queries = Vec::new();
    let mut flows = Vec::new();
    for i in 0..6 {
        let (src, dst) = (pick(2 * i + 1), pick(2 * i + 4));
        if src == dst {
            continue;
        }
        let core = sim.core();
        let routed = core.resolve_path(src, dst).expect("connected WAN");
        let detour = pivot_detour(core, src, dst, &routed);
        queries.push(format!("{routed:?}"));
        queries.push(format!("{detour:?}"));
        queries.push(format!(
            "{:?}",
            core.idle_path_rate(src, dst, FlowClass::Commodity)
        ));
        queries.push(format!(
            "{:?}",
            core.bottleneck(src, dst, FlowClass::Commodity)
        ));
        let path = if i % 2 == 1 { detour } else { None };
        flows.push((src, dst, (1 + i as u64) * MB, path));
    }
    let result = sim.run_process(Box::new(Uploads {
        flows,
        started: 0,
        elapsed: Vec::new(),
    }));
    let (chain, audited_events) = {
        let c = chain.borrow();
        (c.0.finish(), c.1)
    };
    Observed {
        chain,
        audited_events,
        final_digest: sim.state_digest(),
        stats: format!("{:?}", sim.stats()),
        result: format!("{result:?}"),
        queries,
    }
}

/// Build every tree of `topo` with path queries.
fn warm_every_tree(topo: &Topology) {
    let (mut table, mut path) = (RoutingTable::new(), Vec::new());
    let n = topo.nodes().len() as u32;
    for u in 0..n {
        let (u, v) = (NodeId(u), NodeId((u + 1) % n));
        table
            .path_into(topo, u, v, &mut path)
            .expect("connected WAN");
    }
}

#[test]
fn sims_over_a_shared_warm_topology_match_sims_over_cold_clones() {
    for topo_seed in [3, 11] {
        let world = SynthWan {
            seed: topo_seed,
            ..SynthWan::default()
        }
        .build();
        // Taken before any query, so every run over a clone of it starts
        // with no tree built.
        let cold = world.topo.clone();
        let shared = Arc::new(world.topo);
        std::thread::scope(|s| {
            s.spawn(|| warm_every_tree(&shared))
                .join()
                .expect("warming thread");
        });
        for mode in [RoutingMode::Oracle, RoutingMode::Reference] {
            for seed in [1, 2, 7] {
                let warm = run(Arc::clone(&shared), &world.hosts, seed, mode);
                let unshared = run(cold.clone(), &world.hosts, seed, mode);
                assert!(warm.audited_events > 0);
                assert!(!warm.result.contains("Err"), "{}", warm.result);
                assert_eq!(
                    warm, unshared,
                    "topology {topo_seed}, seed {seed}, {mode:?}"
                );
            }
        }
    }
}

/// Sims on several threads over one cold topology race to fill the same
/// trees; each still matches a sim over its own cold clone.
#[test]
fn sims_racing_to_fill_one_topology_match_cold_clones() {
    let world = SynthWan::default().build();
    let cold = world.topo.clone();
    let shared = Arc::new(world.topo);
    let hosts = &world.hosts;
    let raced: Vec<Observed> = std::thread::scope(|s| {
        let handles: Vec<_> = (1..=4u64)
            .map(|seed| {
                let topo = Arc::clone(&shared);
                s.spawn(move || run(topo, hosts, seed, RoutingMode::Oracle))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sim thread"))
            .collect()
    });
    for (seed, got) in (1..=4u64).zip(raced) {
        assert_eq!(
            got,
            run(cold.clone(), hosts, seed, RoutingMode::Oracle),
            "seed {seed}"
        );
    }
}
