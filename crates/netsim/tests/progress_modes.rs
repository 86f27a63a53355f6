//! Lazy vs eager progress accounting must be observationally identical.
//!
//! [`ProgressMode::Lazy`] (the default) materializes flow progress only at
//! rate changes, drains, and audit reads; [`ProgressMode::Eager`] re-runs
//! the legacy per-event sweep as a shadow oracle and records where it
//! disagrees. Both modes must produce bit-identical engine-visible state:
//! the same drain event times, the same per-flow rate timelines, the same
//! byte ledgers, and the same final state digest. These properties drive
//! random WAN workloads — staggered starts, shared bottlenecks, mid-flight
//! link capacity changes — through both modes, and through the lockstep
//! that runs every reference backend beside the production one, and
//! compare everything bitwise.

use netsim::engine::{Ctx, Divergences, Event, Process, ProgressMode, Sim, Value};
use netsim::flow::{FlowClass, FlowSpec};
use netsim::synth::SynthWan;
use netsim::time::SimTime;
use netsim::topology::NodeId;
use netsim::units::{Bandwidth, MB};
use proptest::prelude::*;

/// Starts transfer `i` at `i * stagger`, so flows join and leave while
/// others are mid-flight (each boundary reallocates shared links).
struct StaggeredFlows {
    pairs: Vec<(NodeId, NodeId, u64)>,
    stagger: SimTime,
    started: usize,
    done: usize,
}

impl Process for StaggeredFlows {
    fn poll(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        match ev {
            Event::Started | Event::Timer { .. } => {
                let (src, dst, bytes) = self.pairs[self.started];
                ctx.start_flow(FlowSpec::new(src, dst, bytes, FlowClass::Commodity))
                    .expect("connected WAN");
                self.started += 1;
                if self.started < self.pairs.len() {
                    ctx.set_timer(self.stagger, 0);
                }
            }
            Event::FlowCompleted { .. } => {
                self.done += 1;
                if self.done == self.pairs.len() {
                    ctx.finish(Value::Time(ctx.now()));
                }
            }
            Event::FlowFailed { error, .. } => ctx.finish(Value::Error(error)),
            _ => {}
        }
    }
}

/// One flow's rate timeline from the telemetry recording: its `flow.rate`
/// change points `(time_ns, rate_bits)`, then the time its span closed at
/// delivery, one fixed path delay after its drain.
type Timeline = (Vec<(u64, u64)>, Option<u64>);

/// Everything observable about one execution, with floats as bit patterns
/// so comparison is exact rather than approximate.
#[derive(Debug, PartialEq)]
struct Observed {
    state_digest: u64,
    events: u64,
    flows_completed: u64,
    bytes_delivered: u64,
    reallocations: u64,
    finish: SimTime,
    /// Every flow's timeline, in flow start order. Equal timelines mean
    /// equal drain times, not merely equal totals.
    timelines: Vec<Timeline>,
    /// What the eager sweep and any lockstep backend recorded.
    divergences: Divergences,
}

/// How a run is configured besides its workload.
#[derive(Debug, Clone, Copy)]
enum Setup {
    Mode(ProgressMode),
    Lockstep,
}

fn run_world(seed: u64, n_pairs: usize, mb: u64, setup: Setup) -> Observed {
    let world = SynthWan {
        seed,
        ..SynthWan::default()
    }
    .build();
    let n_hosts = world.hosts.len();
    let pairs: Vec<(NodeId, NodeId, u64)> = (0..n_pairs)
        .map(|i| {
            let a = (seed as usize + i * 7) % n_hosts;
            let mut b = (seed as usize / 3 + i * 13) % n_hosts;
            if b == a {
                b = (b + 1) % n_hosts;
            }
            (world.hosts[a], world.hosts[b], mb * MB)
        })
        .collect();
    let n = pairs.len();

    let mut sim = Sim::new(world.topo, seed);
    match setup {
        Setup::Mode(mode) => sim.set_progress_mode(mode),
        Setup::Lockstep => sim.enable_lockstep(),
    }
    sim.enable_telemetry();
    // Mid-flight bottleneck dynamics: shrink then restore a couple of
    // links while transfers are in progress, forcing rate changes that do
    // not coincide with flow boundaries.
    let n_links = sim.core().topology().links().len();
    for k in 0..n_links.min(4) {
        let at = SimTime::from_millis(150 + 40 * k as u64);
        let cap = Bandwidth::from_mbps(if k % 2 == 0 { 3.0 } else { 40.0 });
        sim.schedule_capacity_change(netsim::topology::LinkId(k as u32), at, cap);
    }
    let v = sim
        .run_process(Box::new(StaggeredFlows {
            pairs,
            stagger: SimTime::from_millis(25),
            started: 0,
            done: 0,
        }))
        .unwrap();
    let finish = match v {
        Value::Time(t) => t,
        other => panic!("transfers failed: {other:?}"),
    };

    let stats = sim.stats();
    // Flow spans begin in flow start order, identically in every run.
    let rec = sim.take_telemetry().expect("telemetry enabled");
    let timelines: Vec<_> = rec
        .spans
        .iter()
        .filter(|s| s.name == "flow")
        .map(|span| {
            let rates: Vec<(u64, u64)> = rec
                .events
                .iter()
                .filter(|e| e.name == "flow.rate" && e.parent == span.id)
                .map(|e| match e.args[..] {
                    [("bytes_per_sec", obs::ArgValue::F64(rate))] => (e.t_ns, rate.to_bits()),
                    _ => panic!("flow.rate args {:?}", e.args),
                })
                .collect();
            (rates, span.end_ns)
        })
        .collect();
    assert_eq!(timelines.len(), n, "one flow span per transfer");
    Observed {
        state_digest: sim.state_digest(),
        events: stats.events,
        flows_completed: stats.flows_completed,
        bytes_delivered: stats.bytes_delivered,
        reallocations: stats.reallocations,
        finish,
        timelines,
        divergences: sim.divergences(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The eager shadow sweep checks agreement internally and must record
    /// no divergence; externally, both modes must be bit-identical. So must
    /// a run with every reference backend in lockstep, which records none
    /// either.
    #[test]
    fn lazy_and_eager_executions_are_bit_identical(
        seed in 0u64..500,
        n_pairs in 2usize..16,
        mb in 1u64..6,
    ) {
        let lazy = run_world(seed, n_pairs, mb, Setup::Mode(ProgressMode::Lazy));
        let eager = run_world(seed, n_pairs, mb, Setup::Mode(ProgressMode::Eager));
        let lockstep = run_world(seed, n_pairs, mb, Setup::Lockstep);
        prop_assert_eq!(eager.divergences, Divergences::default());
        prop_assert_eq!(&lazy, &eager);
        prop_assert_eq!(&lazy, &lockstep);
        // The workload must actually have exercised mid-flight rate
        // changes, or the comparison proves nothing.
        prop_assert!(lazy.reallocations > n_pairs as u64);
        prop_assert_eq!(lazy.flows_completed, n_pairs as u64);
    }
}

/// Deterministic spot check that the timelines really carry drain times:
/// every flow changed rate at least once and was delivered after its last
/// rate change, by the end of the run.
#[test]
fn timelines_close_at_delivery_in_both_modes() {
    for mode in [ProgressMode::Lazy, ProgressMode::Eager] {
        let obs = run_world(11, 6, 2, Setup::Mode(mode));
        assert_eq!(obs.timelines.len(), 6);
        for (rates, delivered) in &obs.timelines {
            let &(last, _) = rates.last().expect("the flow ran at some rate");
            let delivered = delivered.expect("the flow was delivered");
            assert!(last < delivered && delivered <= obs.finish.as_nanos());
        }
    }
}

/// A skewed lazy closed form is recorded, not panicked on: the sweep names
/// the first flow whose stepped ledger it leaves, at the end of the clock
/// step where they part.
#[cfg(feature = "failpoints")]
#[test]
fn eager_sweep_records_a_skewed_closed_form() {
    let world = SynthWan {
        seed: 3,
        ..SynthWan::default()
    }
    .build();
    let mut sim = Sim::new(world.topo, 3);
    sim.set_progress_mode(ProgressMode::Eager);
    sim.inject_progress_skew(1.01);
    // An unrelated event mid-transfer: a clock step the flow spans.
    let link = netsim::topology::LinkId(0);
    let cap = sim.core().topology().link(link).capacity;
    sim.schedule_capacity_change(link, SimTime::from_millis(50), cap);
    let (a, b) = (world.hosts[0], world.hosts[1]);
    sim.run_transfer(netsim::engine::TransferRequest::new(a, b, 4 * MB))
        .expect("connected WAN");
    let d = sim.divergences().progress.expect("the sweep must notice");
    assert_eq!(d.flow, 1);
    assert!(d.lazy < d.stepped, "{d:?}");
    assert!(d.at > SimTime::ZERO);
}
