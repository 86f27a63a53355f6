//! Sims over one shared topology reuse the engine buffers of the sims
//! dropped before them. A reused set must leave no trace: whatever state
//! its last sim was dropped in — mid-run with live flows and queued
//! events, under the lockstep, under failpoints, or unwinding a panic —
//! the next sim over the topology runs exactly as a sim over a fresh clone
//! of it does, per-event state digest for digest, with the same counters
//! and the same lockstep findings.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::Arc;

use netsim::audit::AuditHook;
use netsim::engine::{AuditView, Divergences};
use netsim::prelude::*;

/// Two routers joined by a backbone, three hosts on each. Flows between the
/// sides share the backbone, so max-min components hold several flows.
fn world() -> (Topology, Vec<NodeId>, LinkId) {
    let mut b = TopologyBuilder::new();
    let r0 = b.router("r0", GeoPoint::new(49.0, -123.0));
    let r1 = b.router("r1", GeoPoint::new(40.0, -100.0));
    let (backbone, _) = b.duplex(
        r0,
        r1,
        LinkParams::new(Bandwidth::from_mbps(90.0), SimTime::from_millis(12)),
    );
    let hosts = (0..6)
        .map(|i| {
            let router = if i < 3 { r0 } else { r1 };
            let h = b.host(&format!("h{i}"), GeoPoint::new(45.0, -110.0 + i as f64));
            let mbps = 20.0 + 15.0 * i as f64;
            b.duplex(
                h,
                router,
                LinkParams::new(Bandwidth::from_mbps(mbps), SimTime::from_millis(2 + i)),
            );
            h
        })
        .collect();
    (b.build(), hosts, backbone)
}

/// How a scenario's sim is configured.
#[derive(Clone, Copy, PartialEq)]
enum Setup {
    Plain,
    Lockstep,
    /// The lockstep plus the allocator's one-ulp nudge and a lazy-progress
    /// skew, so every backend records a divergence.
    #[cfg(feature = "failpoints")]
    Faults,
    /// Panics from a timer while flows are in flight.
    Panics,
}

/// Starts uploads across the backbone and within each side, cancels one,
/// starts more from timers, and finishes once every flow has landed.
struct Driver {
    hosts: Vec<NodeId>,
    panics: bool,
    started: Vec<FlowId>,
    landed: usize,
    cancelled: usize,
    timers_left: usize,
}

impl Driver {
    fn start(&mut self, ctx: &mut Ctx<'_>, a: usize, b: usize, mb: u64, class: FlowClass) {
        let spec = FlowSpec::new(self.hosts[a], self.hosts[b], mb * MB, class);
        self.started
            .push(ctx.start_flow(spec).expect("hosts are connected"));
    }

    fn finish_if_done(&mut self, ctx: &mut Ctx<'_>) {
        if self.timers_left == 0 && self.landed + self.cancelled == self.started.len() {
            ctx.finish(Value::U64(self.landed as u64));
        }
    }
}

impl Process for Driver {
    fn poll(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        match ev {
            Event::Started => {
                for (a, b, mb) in [(0, 3, 4), (1, 4, 3), (2, 5, 2), (0, 4, 5), (1, 2, 1)] {
                    self.start(ctx, a, b, mb, FlowClass::Commodity);
                }
                self.start(ctx, 3, 0, 2, FlowClass::Research);
                // One flow pinned to an explicit path.
                let path = ctx.resolve_path(self.hosts[5], self.hosts[1]).unwrap();
                let spec = FlowSpec::new(self.hosts[5], self.hosts[1], 3 * MB, FlowClass::Research)
                    .with_path(path);
                self.started.push(ctx.start_flow(spec).unwrap());
                for tag in 1..=self.timers_left as u64 {
                    ctx.set_timer(SimTime::from_millis(150 * tag), tag);
                }
            }
            Event::Timer { tag } => {
                self.timers_left -= 1;
                match tag {
                    1 => {
                        ctx.cancel_flow(self.started[1]);
                        self.cancelled += 1;
                    }
                    2 => {
                        self.start(ctx, 4, 1, 2, FlowClass::Commodity);
                        self.start(ctx, 5, 0, 3, FlowClass::Commodity);
                    }
                    3 if self.panics => panic!("driver fails mid-run"),
                    _ => self.start(ctx, 2, 3, 1, FlowClass::Research),
                }
                self.finish_if_done(ctx);
            }
            Event::FlowCompleted { .. } => {
                self.landed += 1;
                self.finish_if_done(ctx);
            }
            other => panic!("unexpected event {other:?}"),
        }
    }
}

/// Records the state digest after every event.
struct Digests(Rc<RefCell<Vec<u64>>>);

impl AuditHook for Digests {
    fn after_event(&mut self, view: &AuditView<'_>) {
        self.0.borrow_mut().push(view.state_digest());
    }
}

/// Everything a scenario shows of its run.
#[derive(Debug, PartialEq)]
struct Observed {
    digests: Vec<u64>,
    result: String,
    stats: String,
    divergences: Divergences,
}

fn build(topo: &Arc<Topology>, backbone: LinkId, setup: Setup) -> Sim {
    let mut sim = Sim::new(Arc::clone(topo), 17);
    sim.set_capacity_jitter(0.1);
    sim.add_policer(Policer::aggregate(
        "backbone",
        backbone,
        FlowClass::Commodity,
        Bandwidth::from_mbps(60.0),
    ));
    sim.add_policer(Policer::per_flow(
        "research",
        LinkId(3),
        FlowClass::Research,
        Bandwidth::from_mbps(12.0),
    ));
    sim.schedule_capacity_change(
        LinkId(2),
        SimTime::from_millis(400),
        Bandwidth::from_mbps(8.0),
    );
    match setup {
        Setup::Plain | Setup::Panics => {}
        Setup::Lockstep => sim.enable_lockstep(),
        #[cfg(feature = "failpoints")]
        Setup::Faults => {
            sim.enable_lockstep();
            sim.inject_ulp_nudge();
            sim.inject_progress_skew(1.01);
        }
    }
    sim
}

fn driver(hosts: &[NodeId], setup: Setup) -> Box<Driver> {
    Box::new(Driver {
        hosts: hosts.to_vec(),
        panics: setup == Setup::Panics,
        started: Vec::new(),
        landed: 0,
        cancelled: 0,
        timers_left: 4,
    })
}

fn observe(topo: &Arc<Topology>, hosts: &[NodeId], backbone: LinkId, setup: Setup) -> Observed {
    let mut sim = build(topo, backbone, setup);
    let digests = Rc::new(RefCell::new(Vec::new()));
    sim.set_audit_hook(Box::new(Digests(Rc::clone(&digests))));
    let result = sim.run_process(driver(hosts, setup));
    let observed = Observed {
        digests: digests.take(),
        result: format!("{result:?}"),
        stats: format!("{:?}", sim.stats()),
        divergences: sim.divergences(),
    };
    assert!(
        observed.digests.len() > 40,
        "the scenario runs: {observed:?}"
    );
    observed
}

/// The same scenario over a clone of the topology, which shares no
/// buffers with it.
fn fresh(topo: &Arc<Topology>, hosts: &[NodeId], backbone: LinkId, setup: Setup) -> Observed {
    observe(&Arc::new(Topology::clone(topo)), hosts, backbone, setup)
}

#[test]
fn sims_after_any_dropped_sim_run_as_sims_over_a_fresh_topology() {
    let (topo, hosts, backbone) = world();
    let topo = Arc::new(topo);

    // Dropped mid-run: the event budget stops it with flows live and
    // events queued.
    {
        let mut sim = build(&topo, backbone, Setup::Lockstep);
        sim.set_event_budget(30);
        let stopped = sim.run_process(driver(&hosts, Setup::Plain));
        assert!(matches!(
            stopped,
            Err(NetError::EventBudgetExhausted { .. })
        ));
        assert!(sim.live_flows() > 0 && sim.queue_len() > 0);
    }

    let lockstep = observe(&topo, &hosts, backbone, Setup::Lockstep);
    assert_eq!(lockstep.divergences, Divergences::default());
    assert_eq!(lockstep, fresh(&topo, &hosts, backbone, Setup::Lockstep));

    #[cfg(feature = "failpoints")]
    {
        let faults = observe(&topo, &hosts, backbone, Setup::Faults);
        let d = faults.divergences;
        assert!(d.allocator.is_some() && d.progress.is_some(), "{d:?}");
        assert_eq!(faults, fresh(&topo, &hosts, backbone, Setup::Faults));
    }

    // Dropped while unwinding a panic from inside the run.
    let unwound = catch_unwind(AssertUnwindSafe(|| {
        observe(&topo, &hosts, backbone, Setup::Panics)
    }));
    assert!(unwound.is_err());

    let plain = observe(&topo, &hosts, backbone, Setup::Plain);
    assert_eq!(plain, fresh(&topo, &hosts, backbone, Setup::Plain));
    assert_eq!(
        plain.digests, lockstep.digests,
        "the lockstep only reads engine state"
    );
}

/// Sims alive at once over one topology never share a buffer set, and
/// each runs as it would alone.
#[test]
fn sims_alive_at_once_over_one_topology_run_as_they_would_alone() {
    let (topo, hosts, backbone) = world();
    let topo = Arc::new(topo);
    let alone = fresh(&topo, &hosts, backbone, Setup::Plain);
    let mut first = build(&topo, backbone, Setup::Plain);
    first.set_event_budget(25);
    assert!(first.run_process(driver(&hosts, Setup::Plain)).is_err());
    let second = observe(&topo, &hosts, backbone, Setup::Plain);
    assert_eq!(second, alone);
    drop(first);
    assert_eq!(observe(&topo, &hosts, backbone, Setup::Plain), alone);
}
