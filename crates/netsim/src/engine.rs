//! The discrete-event engine.
//!
//! A [`Sim`] shares a topology with the other sims over the same network,
//! and owns a routing table, the set of active fluid flows and a queue of
//! timestamped events. Protocol logic (cloud-storage upload sessions, rsync
//! exchanges, relays, background generators) is written as [`Process`]
//! state machines that react to events and issue commands through a
//! [`Ctx`].
//!
//! Determinism: the event queue pops in `(time, sequence)` order, all randomness
//! flows from one seeded PRNG, and floating-point rate arithmetic is
//! platform-independent — the same seed replays the same run bit-for-bit.

use crate::audit::{AuditHook, Digest};
use crate::error::{NetError, NetResult};
use crate::flow::{AllocDivergence, AllocMode, FlowClass, FlowCore, FlowProgress, FlowSpec};
use crate::middlebox::{Policer, PolicerScope};
use crate::radix::RadixQueue;
use crate::routing::RoutingTable;
use crate::tcp::TcpParams;
use crate::time::SimTime;
use crate::topology::{LinkId, NodeId, Topology};
use crate::units::Bandwidth;
use obs::{Category, SpanId, Telemetry};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};

/// Handle to an active (or completed) flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowId(pub u64);

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// Handle to a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProcessId(pub u32);

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Result value a process can finish with.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// No payload.
    None,
    /// A duration or instant.
    Time(SimTime),
    /// A count.
    U64(u64),
    /// A measurement.
    F64(f64),
    /// A short string.
    Text(String),
    /// A heterogeneous list.
    List(Vec<Value>),
    /// A propagated failure (lets processes surface [`NetError`]s as
    /// results instead of panicking).
    Error(NetError),
}

impl Value {
    /// Interpret as a time; panics with context otherwise.
    pub fn expect_time(&self) -> SimTime {
        match self {
            Value::Time(t) => *t,
            other => panic!("expected Value::Time, got {other:?}"),
        }
    }

    /// Interpret as a u64.
    pub fn expect_u64(&self) -> u64 {
        match self {
            Value::U64(v) => *v,
            other => panic!("expected Value::U64, got {other:?}"),
        }
    }

    /// Interpret as a list.
    pub fn expect_list(&self) -> &[Value] {
        match self {
            Value::List(v) => v,
            other => panic!("expected Value::List, got {other:?}"),
        }
    }
}

/// Events delivered to a [`Process`].
#[derive(Debug, Clone)]
pub enum Event {
    /// First event after spawn; issue initial commands here.
    Started,
    /// A flow this process started has fully delivered.
    FlowCompleted {
        /// The completed flow.
        flow: FlowId,
        /// Payload size.
        bytes: u64,
        /// Wall-clock (simulated) duration from start to last-byte delivery.
        elapsed: SimTime,
    },
    /// A flow this process started was cancelled or failed.
    FlowFailed {
        /// The failed flow.
        flow: FlowId,
        /// Why.
        error: NetError,
    },
    /// A timer set via [`Ctx::set_timer`] fired.
    Timer {
        /// The tag passed to `set_timer`.
        tag: u64,
    },
    /// A child process finished.
    ChildDone {
        /// The finished child.
        child: ProcessId,
        /// Its result.
        value: Value,
    },
}

/// A cooperative protocol state machine.
///
/// Processes never block: they receive an [`Event`] and issue commands via
/// [`Ctx`]. A process signals completion by calling [`Ctx::finish`]; its
/// parent (if any) then receives [`Event::ChildDone`].
pub trait Process {
    /// Handle one event.
    fn poll(&mut self, ctx: &mut Ctx<'_>, ev: Event);

    /// Diagnostic name for error messages.
    fn name(&self) -> &'static str {
        "process"
    }

    /// Clean up when the engine abandons this still-live process because
    /// the root of its run finished (a failing session unwinds its whole
    /// process tree). Close any telemetry spans this process opened here;
    /// flows it started are cancelled by the engine afterwards. Spawns,
    /// timers and [`Ctx::finish`] issued from `abort` are discarded.
    fn abort(&mut self, _ctx: &mut Ctx<'_>) {}

    /// Fold process-local state into a determinism digest (see
    /// [`crate::audit`]). Stateful long-running processes (background
    /// generators, monitors) should override this so that divergence in
    /// their internal state is visible to same-seed replay checks; pure
    /// request/response processes can keep the empty default.
    fn digest_into(&self, _d: &mut Digest) {}
}

/// Flow events carry both the flow id and its slab slot: the slot gives
/// O(1) direct indexing in dispatch, the id disambiguates slot reuse (ids
/// are issued monotonically and never recycled, so an id match proves the
/// slot still holds the intended flow).
#[derive(Debug, Clone, Copy, PartialEq)]
enum EventKind {
    Activate {
        flow: u64,
        slot: u32,
    },
    Drained {
        flow: u64,
        slot: u32,
        gen: u64,
    },
    Delivered {
        flow: u64,
        slot: u32,
    },
    Timer {
        pid: u32,
        tag: u64,
    },
    /// Scheduled change of a link's effective capacity (bytes/sec) — a
    /// "dynamic bottleneck" appearing or clearing mid-simulation.
    SetLinkCap {
        link: u32,
        bytes_per_sec: f64,
    },
}

/// A queued event. Its time in ns is the queue key; `seq` numbers pushes,
/// so the queue, which pops equal keys in push order, pops in `(time, seq)`
/// order.
#[derive(Debug, Clone, Copy)]
struct Queued {
    seq: u64,
    kind: EventKind,
}

#[derive(Debug)]
struct ActiveFlow {
    id: u64,
    owner: Option<ProcessId>,
    /// Resource indices: real links are `0..links.len()`, aggregate policers
    /// follow. A buffer from [`FlowSlab::buffer`]; the slab takes it back
    /// when the flow leaves.
    resources: Vec<u32>,
    progress: FlowProgress,
    gen: u64,
    total_bytes: u64,
    /// One-way propagation delay, charged after the fluid drains.
    path_delay: SimTime,
    started_at: SimTime,
    active: bool,
    /// Fairness weight (see [`FlowSpec::with_weight`]).
    weight: f64,
    /// Per-flow rate cap, bytes/sec (`f64::INFINITY` when uncapped).
    cap: f64,
    /// The allocator slot [`FlowCore::insert`] returned while the flow is
    /// active (`u32::MAX` otherwise).
    alloc_slot: u32,
    /// A `Drained` event with this flow's *current* generation is queued.
    pending_drain: bool,
    /// Telemetry span covering this flow's lifetime ([`SpanId::NONE`] when
    /// telemetry is disabled).
    span: SpanId,
}

/// Slot-indexed storage for active flows, mirroring the allocator's slab:
/// contiguous slots recycled through a LIFO free list. Events address flows
/// by slot (no hashing on the hot path) and iteration is in slot order —
/// deterministic for a fixed event sequence, so digests need no sorting.
/// Slot numbers show in digests and events, so a reset slab numbers its
/// slots from 0 again.
#[derive(Debug, Default)]
struct FlowSlab {
    slots: Vec<Option<ActiveFlow>>,
    free: Vec<u32>,
    live: usize,
    /// Resource lists of flows that left, for the next flows' resources.
    spare: Vec<Vec<u32>>,
}

impl FlowSlab {
    /// An empty resource list for a new flow, reusing one a departed flow
    /// gave back when there is one.
    fn buffer(&mut self) -> Vec<u32> {
        let mut list = self.spare.pop().unwrap_or_default();
        list.clear();
        list
    }

    /// Empty the slab, from any state, keeping every resource list: slots
    /// are numbered from 0 again and the free list is empty.
    fn reset(&mut self) {
        self.spare
            .extend(self.slots.drain(..).flatten().map(|f| f.resources));
        self.free.clear();
        self.live = 0;
    }

    fn insert(&mut self, f: ActiveFlow) -> u32 {
        self.live += 1;
        match self.free.pop() {
            Some(s) => {
                debug_assert!(self.slots[s as usize].is_none());
                self.slots[s as usize] = Some(f);
                s
            }
            None => {
                self.slots.push(Some(f));
                (self.slots.len() - 1) as u32
            }
        }
    }

    fn get(&self, slot: u32) -> Option<&ActiveFlow> {
        self.slots.get(slot as usize).and_then(Option::as_ref)
    }

    fn get_mut(&mut self, slot: u32) -> Option<&mut ActiveFlow> {
        self.slots.get_mut(slot as usize).and_then(Option::as_mut)
    }

    /// Vacate `slot`. The returned flow's resource list stays with the
    /// slab, so it comes back empty.
    fn remove(&mut self, slot: u32) -> Option<ActiveFlow> {
        let mut f = self.slots.get_mut(slot as usize)?.take()?;
        self.free.push(slot);
        self.live -= 1;
        self.spare.push(std::mem::take(&mut f.resources));
        Some(f)
    }

    /// True when a queued `Drained` event will fire on arrival: its slot
    /// still holds the intended flow, active, at the same generation. The
    /// dispatch guard, the digest's pending-queue filter and compaction
    /// retention all share this one predicate — which is what makes
    /// compaction invisible to the chained state digest.
    fn drain_is_live(&self, flow: u64, slot: u32, gen: u64) -> bool {
        matches!(self.get(slot), Some(f) if f.id == flow && f.active && f.gen == gen)
    }

    /// Live flows in slot order, with their slots.
    fn iter(&self) -> impl Iterator<Item = (u32, &ActiveFlow)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, f)| f.as_ref().map(|f| (i as u32, f)))
    }

    /// Live flow count.
    fn len(&self) -> usize {
        self.live
    }
}

/// How the engine accounts fluid progress between events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProgressMode {
    /// Anchored lazy accounting (the fast path): clock advancement is O(1);
    /// each flow's `remaining` is materialized on demand from its last
    /// settle point (see [`FlowProgress`]).
    #[default]
    Lazy,
    /// The legacy per-event sweep, kept as a differential oracle: every
    /// clock step advances a stepped shadow ledger for every active flow
    /// (the pre-lazy `remaining -= rate*dt` arithmetic) and checks it
    /// against the lazy closed form within float tolerance, recording the
    /// first disagreement ([`Divergences::progress`]). All engine-visible
    /// state (drain times, digests) uses the same anchored arithmetic as
    /// [`ProgressMode::Lazy`], so the two modes produce bit-identical
    /// executions — property tests rely on this, and the lockstep
    /// ([`Sim::enable_lockstep`]) runs the sweep inside a production run.
    Eager,
}

/// The first step at which the eager progress sweep's stepped ledger left
/// the lazy closed form (see [`ProgressMode::Eager`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgressDivergence {
    /// Flow id.
    pub flow: u64,
    /// The clock step's end.
    pub at: SimTime,
    /// The stepped ledger's remaining bytes.
    pub stepped: f64,
    /// The lazy closed form's remaining bytes.
    pub lazy: f64,
}

/// Where each reference backend run in lockstep with the engine first
/// parted from the production one (see [`Sim::enable_lockstep`]); `None`
/// where they agreed throughout.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Divergences {
    /// The first reallocation whose incremental rates differ from a fresh
    /// [`crate::flow::max_min_allocate`].
    pub allocator: Option<AllocDivergence>,
    /// The first `(src, dst)` route query the oracle and the reference
    /// Dijkstra answered differently.
    pub routing: Option<(NodeId, NodeId)>,
    /// The first flow whose stepped progress left the lazy closed form.
    pub progress: Option<ProgressDivergence>,
}

/// Counters maintained by the engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimStats {
    /// Events processed.
    pub events: u64,
    /// Flows started.
    pub flows_started: u64,
    /// Flows fully delivered.
    pub flows_completed: u64,
    /// Payload bytes delivered.
    pub bytes_delivered: u64,
    /// Rate reallocations performed.
    pub reallocations: u64,
    /// High-water mark of the event-queue length. Observability only — not
    /// folded into state digests.
    pub peak_queue: u64,
    /// Stale-drain queue compactions performed (not digested).
    pub queue_compactions: u64,
}

/// Everything in the simulator except the process table (split so processes
/// can be polled while holding `&mut Core`).
pub struct Core {
    /// Shared with every other sim over the same network, trees included.
    topo: Arc<Topology>,
    routing: RoutingTable,
    tcp: TcpParams,
    /// Attached policers, each with its rate for this run (jittered when
    /// capacity jitter is on). Shared, so a world can hand the same
    /// policers to every sim it builds.
    policers: Vec<(Arc<Policer>, Bandwidth)>,
    /// The incremental max-min allocator. Owns the effective resource
    /// capacities (per-run link capacities — equal to the nominal topology
    /// capacities unless jitter is enabled — followed by aggregate policer
    /// rates) and the resource→flow inverted index, and recomputes rates
    /// only for the connected component each flow event touches.
    alloc: FlowCore,
    /// Capacity-jitter fraction; also applied to policer rates as they are
    /// attached (a token bucket's effective rate drifts too).
    jitter: f64,
    flows: FlowSlab,
    /// Scratch the links of each flow start are resolved into.
    route: Vec<LinkId>,
    /// Queued `Drained` events that can no longer fire (superseded by a
    /// rate change, or their flow was cancelled). Drives queue compaction.
    stale_drains: usize,
    progress_mode: ProgressMode,
    /// Eager-mode shadow ledger: per-slot stepped `remaining`, advanced
    /// with the legacy `remaining -= rate*dt` arithmetic and checked
    /// against the lazy closed form (see [`ProgressMode::Eager`]).
    stepped: Vec<f64>,
    /// The eager sweep's first disagreement.
    progress_diverged: Option<ProgressDivergence>,
    /// Scratch for per-link utilization sampling (avoids one allocation
    /// per reallocation when telemetry is on).
    util_scratch: Vec<f64>,
    next_flow: u64,
    /// Pending events keyed by time in ns (see [`RadixQueue`]).
    queue: RadixQueue<Queued>,
    seq: u64,
    now: SimTime,
    rng: SmallRng,
    stats: SimStats,
    event_budget: u64,
    /// Telemetry sink shared by every layer of the simulation. Disabled by
    /// default: each instrumentation call is then one branch and returns.
    tele: Telemetry,
    /// Fault injection: post-allocation rate multiplier. 1.0 = faithful.
    /// Used by the simcheck harness to prove its oracles catch a broken
    /// allocator; compiled only with the `failpoints` feature.
    #[cfg(feature = "failpoints")]
    overalloc: f64,
    /// Fault injection: factor on the bytes every flow's lazy closed form
    /// moves per interval (see [`FlowProgress::with_skew`]). 1.0 =
    /// faithful; compiled only with the `failpoints` feature.
    #[cfg(feature = "failpoints")]
    progress_skew: f64,
}

impl Core {
    fn push(&mut self, time: SimTime, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(time.as_nanos(), Queued { seq, kind });
        if self.queue.len() as u64 > self.stats.peak_queue {
            self.stats.peak_queue = self.queue.len() as u64;
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Counters.
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    /// Seeded PRNG shared by all stochastic components.
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.rng
    }

    /// The telemetry sink. Callers stamp records with [`Core::now`] in
    /// nanoseconds; the sink is a no-op unless [`Sim::enable_telemetry`]
    /// was called.
    pub fn telemetry(&mut self) -> &mut Telemetry {
        &mut self.tele
    }

    /// Current simulated time in nanoseconds (telemetry timestamp).
    pub fn now_ns(&self) -> u64 {
        self.now.as_nanos()
    }

    /// Resolve the node path a flow from `src` to `dst` would take.
    pub fn resolve_path(&mut self, src: NodeId, dst: NodeId) -> NetResult<Vec<NodeId>> {
        let mut path = Vec::new();
        self.routing.path_into(&self.topo, src, dst, &mut path)?;
        Ok(path)
    }

    /// Round-trip time along the routed path between two nodes.
    pub fn rtt(&mut self, src: NodeId, dst: NodeId) -> NetResult<SimTime> {
        let (topo, route) = (&self.topo, &mut self.route);
        self.routing.links_into(topo, src, dst, route)?;
        let there = topo.path_delay(route);
        self.routing.links_into(topo, dst, src, route)?;
        Ok(there + topo.path_delay(route))
    }

    /// The rate an isolated flow would get on the routed path (bottleneck
    /// capacity further limited by policers and the TCP ceiling). This is
    /// the simulator's ground truth that probe-based selectors try to
    /// estimate. Uses *nominal* capacities — per-run capacity jitter is
    /// deliberately invisible here, as it would be to a real probe's
    /// long-run average.
    pub fn idle_path_rate(
        &mut self,
        src: NodeId,
        dst: NodeId,
        class: FlowClass,
    ) -> NetResult<Bandwidth> {
        self.routing
            .links_into(&self.topo, src, dst, &mut self.route)?;
        let links = &self.route;
        let mut rate = self.topo.path_capacity(links);
        for (p, p_rate) in &self.policers {
            if links.iter().any(|&l| p.applies(l, class)) {
                rate = rate.min(*p_rate);
            }
        }
        let rtt = self.topo.path_delay(links) * 2;
        let loss = self.topo.path_loss(links);
        if let Some(ceiling) = self.tcp.mathis_ceiling(rtt, loss) {
            rate = rate.min(ceiling);
        }
        Ok(rate)
    }

    /// Identify what limits an isolated flow on the routed path: the
    /// binding constraint behind [`Core::idle_path_rate`]. This is the
    /// automated version of the paper's manual traceroute-and-speculate
    /// diagnosis.
    pub fn bottleneck(
        &mut self,
        src: NodeId,
        dst: NodeId,
        class: FlowClass,
    ) -> NetResult<Bottleneck> {
        self.routing
            .links_into(&self.topo, src, dst, &mut self.route)?;
        let links = &self.route;
        // Narrowest link.
        let (mut best_rate, mut cause) = (f64::INFINITY, BottleneckCause::Unconstrained);
        for &l in links {
            let link = self.topo.link(l);
            let r = link.capacity.bytes_per_sec();
            if r < best_rate {
                best_rate = r;
                cause = BottleneckCause::Link {
                    from: self.topo.node(link.from).name.clone(),
                    to: self.topo.node(link.to).name.clone(),
                };
            }
        }
        for (p, p_rate) in &self.policers {
            if links.iter().any(|&l| p.applies(l, class)) {
                let r = p_rate.bytes_per_sec();
                if r < best_rate {
                    best_rate = r;
                    cause = BottleneckCause::Policer {
                        name: p.name.clone(),
                    };
                }
            }
        }
        let rtt = self.topo.path_delay(links) * 2;
        let loss = self.topo.path_loss(links);
        if let Some(ceiling) = self.tcp.mathis_ceiling(rtt, loss) {
            if ceiling.bytes_per_sec() < best_rate {
                best_rate = ceiling.bytes_per_sec();
                cause = BottleneckCause::TcpCeiling { rtt, loss };
            }
        }
        Ok(Bottleneck {
            rate: Bandwidth::from_bytes_per_sec(best_rate),
            cause,
        })
    }

    /// Remove the flow in slab slot `slot` before delivery: release its
    /// capacity, emit `flow.cancelled` and close the flow span. Shared by
    /// [`Ctx::cancel_flow`] and the orphan reap in [`Sim::run_process`].
    fn cancel_flow_at(&mut self, slot: u32) {
        let f = self
            .flows
            .remove(slot)
            .expect("cancelled slot holds a flow");
        let now_ns = self.now.as_nanos();
        self.tele
            .event(now_ns, Category::Flow, "flow.cancelled", f.span, |_| {});
        self.tele.span_end(now_ns, f.span);
        if f.active {
            if f.pending_drain {
                // Its queued Drained event can no longer fire.
                self.stale_drains += 1;
            }
            self.deactivate_flow(f.alloc_slot);
        }
    }

    fn start_flow_inner(&mut self, owner: Option<ProcessId>, spec: FlowSpec) -> NetResult<FlowId> {
        if spec.bytes == 0 {
            return Err(NetError::EmptyTransfer);
        }
        // One resolution into the sim's route buffer: an explicit path is
        // validated as it is walked, a routed one is read off the tree's
        // link chain.
        match &spec.path {
            Some(p) => self.topo.links_on_path_into(p, &mut self.route)?,
            None => self
                .routing
                .links_into(&self.topo, spec.src, spec.dst, &mut self.route)?,
        }
        let links = &self.route;

        // Resource list: real links plus any aggregate policers matched,
        // written into a list a departed flow left with the slab.
        let mut resources = self.flows.buffer();
        resources.extend(links.iter().map(|l| l.0));
        let mut cap = f64::INFINITY;
        for (i, (p, p_rate)) in self.policers.iter().enumerate() {
            let matched = links.iter().any(|&l| p.applies(l, spec.class));
            if matched {
                match p.scope {
                    PolicerScope::PerFlow => cap = cap.min(p_rate.bytes_per_sec()),
                    PolicerScope::Aggregate => resources.push((self.topo.links().len() + i) as u32),
                }
            }
        }
        if let Some(c) = spec.cap {
            cap = cap.min(c.bytes_per_sec());
        }
        let one_way = self.topo.path_delay(links);
        let rtt = one_way * 2;
        let loss = self.topo.path_loss(links);
        if let Some(ceiling) = self.tcp.mathis_ceiling(rtt, loss) {
            cap = cap.min(ceiling.bytes_per_sec());
        }

        let startup = if spec.slow_start {
            let equilibrium = self
                .topo
                .path_capacity(links)
                .min(Bandwidth::from_bytes_per_sec(if cap.is_finite() {
                    cap
                } else {
                    1e18
                }));
            self.tcp.slow_start_delay(rtt, equilibrium)
        } else {
            SimTime::ZERO
        };

        let id = self.next_flow;
        self.next_flow += 1;
        self.stats.flows_started += 1;
        let topo = &self.topo;
        let (src, dst, class) = (spec.src, spec.dst, spec.class);
        let span = self.tele.span_begin_with(
            self.now.as_nanos(),
            Category::Flow,
            "flow",
            spec.parent_span,
            |a| {
                a.set("flow", id)
                    .set("src", topo.node(src).name.as_str())
                    .set("dst", topo.node(dst).name.as_str())
                    .set("bytes", spec.bytes)
                    .set("class", class.label());
            },
        );
        self.tele.counter_add("netsim.flows_started", 1);
        let progress = FlowProgress::new(spec.bytes as f64, self.now);
        #[cfg(feature = "failpoints")]
        let progress = progress.with_skew(self.progress_skew);
        let flow = ActiveFlow {
            id,
            owner,
            resources,
            progress,
            gen: 0,
            total_bytes: spec.bytes,
            path_delay: one_way,
            started_at: self.now,
            active: false,
            weight: spec.weight,
            cap,
            alloc_slot: u32::MAX,
            pending_drain: false,
            span,
        };
        let slot = self.flows.insert(flow);
        self.push(self.now + startup, EventKind::Activate { flow: id, slot });
        Ok(FlowId(id))
    }

    /// A flow's startup delay elapsed: hand it to the allocator and apply
    /// the resulting rate changes (its connected component only).
    fn activate_flow(&mut self, slot: u32) {
        {
            let f = self.flows.get_mut(slot).expect("activated flow exists");
            f.alloc_slot = self
                .alloc
                .insert(f.id, slot as u64, &f.resources, f.cap, f.weight);
        }
        self.apply_rate_changes();
    }

    /// A flow drained or was cancelled: release its allocator slot and
    /// re-share within its component.
    fn deactivate_flow(&mut self, alloc_slot: u32) {
        self.alloc.remove_slot(alloc_slot);
        self.apply_rate_changes();
    }

    /// A resource's capacity changed: re-share within its component.
    fn change_capacity(&mut self, resource: u32, bytes_per_sec: f64) {
        self.alloc.set_capacity(resource, bytes_per_sec);
        self.apply_rate_changes();
    }

    /// Apply the rate changes the allocator just computed: update each
    /// changed flow's progress, supersede its scheduled drain event
    /// (generation bump) and schedule a new one. Flows whose rate did not
    /// change — everything outside the event's connected component, plus
    /// unaffected flows within it — keep their rates *and* their already
    /// queued drain events, which is what makes reallocation O(component)
    /// instead of O(all flows).
    fn apply_rate_changes(&mut self) {
        self.stats.reallocations += 1;
        if self.tele.is_enabled() {
            self.tele.counter_add("netsim.reallocations", 1);
            self.tele
                .gauge_set("netsim.active_flows", self.alloc.len() as f64);
        }
        let now = self.now;
        let now_ns = now.as_nanos();
        let changes = self.alloc.take_changes();
        for c in &changes {
            let rate = c.rate;
            // Failpoint: inflate every allocated rate. Inert at the default
            // factor of 1.0 (multiplication by 1.0 is bit-exact for finite
            // f64), so digests match builds without the feature.
            #[cfg(feature = "failpoints")]
            let rate = rate * self.overalloc;
            let slot = c.token as u32;
            let (fid, gen, finish, span, noticeable) = {
                let f = self.flows.get_mut(slot).expect("changed flow exists");
                debug_assert_eq!(f.id, c.id, "allocator token resolves its flow");
                let noticeable = (f.progress.rate - rate).abs() > 1e-9;
                if f.pending_drain {
                    // The queued Drained event stops matching the flow's
                    // generation once we bump it below: it rots in the queue
                    // until popped or compacted away.
                    self.stale_drains += 1;
                }
                // Settle at the old rate, then switch: `remaining` re-anchors
                // at `now`, so the projected finish below is exact.
                f.progress.settle(now);
                f.progress.rate = rate;
                f.gen += 1;
                let finish = f.progress.projected_finish(now);
                f.pending_drain = finish.is_some();
                (f.id, f.gen, finish, f.span, noticeable)
            };
            if let Some(finish) = finish {
                self.push(
                    finish,
                    EventKind::Drained {
                        flow: fid,
                        slot,
                        gen,
                    },
                );
            }
            if noticeable {
                self.tele
                    .event(now_ns, Category::Flow, "flow.rate", span, |a| {
                        a.set("bytes_per_sec", rate);
                    });
            }
        }
        self.alloc.restore_changes(changes);
        // Per-link utilization samples: share of each crossed link's
        // capacity consumed by the new allocation.
        if self.tele.is_enabled() {
            let n_links = self.topo.links().len();
            self.alloc.used_per_resource(&mut self.util_scratch);
            for (u, cap) in self
                .util_scratch
                .iter()
                .zip(self.alloc.capacities())
                .take(n_links)
            {
                if *u > 0.0 && *cap > 0.0 {
                    let pct = (u / cap * 100.0).clamp(0.0, 100.0);
                    self.tele
                        .hist_record("netsim.link_utilization_pct", pct.round() as u64);
                }
            }
        }
        self.maybe_compact();
    }

    /// Drop stale `Drained` entries from the queue, in place, once they
    /// number at least [`Self::COMPACT_MIN_STALE`] and outnumber live
    /// entries. Surviving entries keep their order within each time, so
    /// the pop order is unchanged, and stale entries are already excluded
    /// from the digest's queue snapshot, so compaction never perturbs
    /// same-seed digests — it only bounds queue occupancy by the live event
    /// count. This is the only place a stale drain leaves the queue without
    /// being popped: a popped one counts in [`SimStats::events`], which
    /// every state digest folds, so dropping stale drains anywhere else
    /// (say, when the queue redistributes a bucket) would change digests.
    fn maybe_compact(&mut self) {
        if self.stale_drains < Self::COMPACT_MIN_STALE || self.stale_drains * 2 <= self.queue.len()
        {
            return;
        }
        let before = self.queue.len();
        let flows = &self.flows;
        self.queue.retain(|q| match q.kind {
            EventKind::Drained { flow, slot, gen } => flows.drain_is_live(flow, slot, gen),
            _ => true,
        });
        debug_assert_eq!(
            before - self.queue.len(),
            self.stale_drains,
            "stale accounting matches queue contents"
        );
        self.stale_drains = 0;
        self.stats.queue_compactions += 1;
    }

    /// Compaction threshold: don't bother compacting tiny queues.
    const COMPACT_MIN_STALE: usize = 64;

    fn advance_to(&mut self, t: SimTime) {
        debug_assert!(t >= self.now, "time went backwards");
        if self.progress_mode == ProgressMode::Eager {
            self.eager_sweep(t);
        }
        self.now = t;
        // The engine clock is the watermark of the streaming-aggregation
        // plane: windowed series whose tumbling window now lies entirely
        // in the past flush here, even if the series has gone idle.
        self.tele.advance_watermark(t.as_nanos());
    }

    /// The legacy per-event progress sweep ([`ProgressMode::Eager`]): step
    /// the shadow ledger of every active flow with the pre-lazy
    /// `remaining -= rate*dt` arithmetic and check it against the lazy
    /// closed form, keeping the first disagreement. Engine-visible state is
    /// untouched — both modes share the anchored arithmetic, keeping
    /// executions bit-identical.
    fn eager_sweep(&mut self, t: SimTime) {
        let dt = t.saturating_sub(self.now);
        if dt.is_zero() {
            return;
        }
        let dt = dt.as_secs_f64();
        for (slot, f) in self.flows.iter() {
            if !f.active {
                continue;
            }
            let s = &mut self.stepped[slot as usize];
            *s = (*s - f.progress.rate * dt).max(0.0);
            let lazy = f.progress.remaining_at(t);
            let tol = 1e-6 * (f.total_bytes as f64).max(1.0);
            if (*s - lazy).abs() > tol && self.progress_diverged.is_none() {
                self.progress_diverged = Some(ProgressDivergence {
                    flow: f.id,
                    at: t,
                    stepped: *s,
                    lazy,
                });
            }
        }
    }

    /// Fold the complete core state — clock, counters, effective link
    /// capacities, every flow, the pending event queue and the routing
    /// table — into `d`, in a deterministic order (hash-map contents are
    /// sorted first).
    fn digest_into(&self, d: &mut Digest) {
        d.write_time(self.now);
        d.write_u64(self.seq);
        d.write_u64(self.next_flow);
        d.write_u64(self.stats.events);
        d.write_u64(self.stats.flows_started);
        d.write_u64(self.stats.flows_completed);
        d.write_u64(self.stats.bytes_delivered);
        d.write_u64(self.stats.reallocations);
        for cap in &self.alloc.capacities()[..self.topo.links().len()] {
            d.write_f64(*cap);
        }
        // Slab order is a pure function of the event sequence, so no
        // sorting is needed for determinism.
        for (slot, f) in self.flows.iter() {
            d.write_u64(slot as u64);
            d.write_u64(f.id);
            d.write_bool(f.active);
            d.write_u64(f.gen);
            d.write_u64(f.total_bytes);
            d.write_f64(f.weight);
            d.write_time(f.path_delay);
            d.write_time(f.started_at);
            for r in &f.resources {
                d.write_u64(*r as u64);
            }
            f.progress.digest_into(d);
            d.write_f64(f.cap);
        }
        // Stale Drained events are skipped: they can never fire, and queue
        // compaction may remove them at any point — excluding them here is
        // what keeps compaction digest-invisible.
        let mut pending: Vec<(u64, Queued)> = self
            .queue
            .iter()
            .filter(|(_, q)| match q.kind {
                EventKind::Drained { flow, slot, gen } => self.flows.drain_is_live(flow, slot, gen),
                _ => true,
            })
            .map(|(time, &q)| (time, q))
            .collect();
        pending.sort_unstable_by_key(|&(time, q)| (time, q.seq));
        for (time, q) in pending {
            d.write_u64(time);
            d.write_u64(q.seq);
            q.kind.digest_into(d);
        }
        self.routing.digest_into(d);
    }

    /// 64-bit digest of the core state (see [`Sim::state_digest`] for the
    /// variant that also covers process-local state).
    pub fn state_digest(&self) -> u64 {
        let mut d = Digest::new();
        self.digest_into(&mut d);
        d.finish()
    }
}

impl EventKind {
    fn digest_into(&self, d: &mut Digest) {
        match self {
            EventKind::Activate { flow, slot } => {
                d.write_u8(1);
                d.write_u64(*flow);
                d.write_u64(*slot as u64);
            }
            EventKind::Drained { flow, slot, gen } => {
                d.write_u8(2);
                d.write_u64(*flow);
                d.write_u64(*slot as u64);
                d.write_u64(*gen);
            }
            EventKind::Delivered { flow, slot } => {
                d.write_u8(3);
                d.write_u64(*flow);
                d.write_u64(*slot as u64);
            }
            EventKind::Timer { pid, tag } => {
                d.write_u8(4);
                d.write_u64(*pid as u64);
                d.write_u64(*tag);
            }
            EventKind::SetLinkCap {
                link,
                bytes_per_sec,
            } => {
                d.write_u8(5);
                d.write_u64(*link as u64);
                d.write_f64(*bytes_per_sec);
            }
        }
    }
}

/// Read-only engine snapshot handed to [`AuditHook::after_event`].
pub struct AuditView<'a> {
    core: &'a Core,
}

/// One flow as an invariant oracle sees it.
#[derive(Debug, Clone)]
pub struct AuditFlow<'a> {
    /// Flow id.
    pub id: u64,
    /// Is the flow currently transferring (between activation and drain)?
    pub active: bool,
    /// Allocated rate, bytes/sec (stale once `active` is false).
    pub rate: f64,
    /// Fluid bytes still to move.
    pub remaining: f64,
    /// Requested payload size.
    pub total_bytes: u64,
    /// Fairness weight.
    pub weight: f64,
    /// Per-flow rate cap in bytes/sec (`f64::INFINITY` when uncapped).
    pub cap: f64,
    /// Indices of the resources the flow crosses (links, then aggregate
    /// policers) — the same indices used by the allocator.
    pub resources: &'a [u32],
}

impl<'a> AuditView<'a> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Number of real links (resource indices below this are links;
    /// at and above are aggregate policers).
    pub fn n_links(&self) -> usize {
        self.core.topo.links().len()
    }

    /// Effective capacity (bytes/sec) of every allocatable resource, in the
    /// exact order the allocator sees them: per-run link capacities first,
    /// then aggregate policer rates.
    pub fn resource_capacities(&self) -> &'a [f64] {
        self.core.alloc.capacities()
    }

    /// Every flow currently known to the engine, sorted by id — the same
    /// order the allocator processes them in. `remaining` is materialized
    /// from the lazy anchor at the current clock, so oracles see the same
    /// values the old eager sweep maintained.
    pub fn flows(&self) -> Vec<AuditFlow<'a>> {
        let mut v = Vec::new();
        self.flows_into(&mut v);
        v
    }

    /// [`AuditView::flows`] into a caller-owned buffer, cleared first: an
    /// oracle that keeps the buffer allocates no list per event.
    pub fn flows_into(&self, out: &mut Vec<AuditFlow<'a>>) {
        let now = self.core.now;
        out.clear();
        out.extend(self.core.flows.iter().map(|(_, f)| AuditFlow {
            id: f.id,
            active: f.active,
            rate: f.progress.rate,
            remaining: f.progress.remaining_at(now),
            total_bytes: f.total_bytes,
            weight: f.weight,
            cap: f.cap,
            resources: &f.resources,
        }));
        out.sort_unstable_by_key(|f| f.id);
    }

    /// Digest of the core state at this instant (chain these across events
    /// for an execution fingerprint).
    pub fn state_digest(&self) -> u64 {
        self.core.state_digest()
    }
}

/// The simulator.
pub struct Sim {
    core: Core,
    processes: Vec<ProcSlot>,
    /// Empty spawn lists for [`Effects`], one taken per `deliver` level (it
    /// recurses) and given back, so spawning allocates no list.
    spawn_lists: Vec<SpawnList>,
    /// `reap_orphans`' marks: the processes its root takes down with it.
    doomed: Vec<bool>,
    root_result: Option<Value>,
    /// Audit hook invoked after every event (held on `Sim`, not `Core`, so
    /// the hook can observe `Core` without aliasing it).
    audit: Option<Box<dyn AuditHook>>,
}

struct ProcSlot {
    proc_: Option<Box<dyn Process>>,
    parent: Option<ProcessId>,
    alive: bool,
}

/// Children spawned by one handler: pid, parent and process, started in
/// order once the handler returns.
type SpawnList = Vec<(ProcessId, Option<ProcessId>, Box<dyn Process>)>;

/// Deferred effects collected while a process handler runs.
#[derive(Default)]
struct Effects {
    spawned: SpawnList,
    finished: Option<Value>,
}

/// The buffers a sim grows as it runs and hands back to its topology when
/// it is dropped: the allocator (member lists, slots with their resource
/// lists, marks, waterfill scratch, change list), the flow slab with its
/// resource lists, the event queue's buckets, the route scratch and the
/// orphan marks. The process table and spawn lists stay with the sim: they
/// hold `Box<dyn Process>`es, which need not be `Send`, and the topology is
/// shared across threads.
struct SimBuffers {
    alloc: FlowCore,
    flows: FlowSlab,
    queue: RadixQueue<Queued>,
    route: Vec<LinkId>,
    doomed: Vec<bool>,
}

/// The [`SimBuffers`] of the sims dropped over one topology, kept on it for
/// the next [`Sim::new`] over it, which resets one set and takes it. A set
/// returns here when its sim drops, whatever state the sim was in (mid-run,
/// under the lockstep or a failpoint, or unwinding a panic), and is reset
/// only when taken. The list never holds more sets than sims were alive at
/// once over the topology, so it needs no bound, and it is freed with the
/// topology. A clone of the topology starts with none.
#[derive(Default)]
pub(crate) struct Spares(Mutex<Vec<SimBuffers>>);

// The list is only pushed to and popped from, each step leaving it valid,
// and a set taken is reset from whatever state it is in, so a lock
// poisoned by a panic elsewhere is recovered rather than propagated.
impl Spares {
    /// A dropped sim's buffers, or empty ones when there are none.
    fn take(&self) -> SimBuffers {
        let spare = self.0.lock().unwrap_or_else(PoisonError::into_inner).pop();
        spare.unwrap_or_else(|| SimBuffers {
            alloc: FlowCore::new(Vec::new()),
            flows: FlowSlab::default(),
            queue: RadixQueue::new(),
            route: Vec::new(),
            doomed: Vec::new(),
        })
    }

    fn put(&self, buffers: SimBuffers) {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(buffers);
    }
}

impl Clone for Spares {
    fn clone(&self) -> Self {
        Spares::default()
    }
}

impl fmt::Debug for Spares {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Spares").finish_non_exhaustive()
    }
}

impl Drop for Sim {
    /// Leave the engine buffers with the topology for the next sim over it.
    fn drop(&mut self) {
        let core = &mut self.core;
        core.topo.spares().put(SimBuffers {
            alloc: std::mem::replace(&mut core.alloc, FlowCore::new(Vec::new())),
            flows: std::mem::take(&mut core.flows),
            queue: std::mem::take(&mut core.queue),
            route: std::mem::take(&mut core.route),
            doomed: std::mem::take(&mut self.doomed),
        });
    }
}

/// The command surface available to a [`Process`] while handling an event.
pub struct Ctx<'a> {
    core: &'a mut Core,
    pid: ProcessId,
    next_pid: &'a mut u32,
    effects: &'a mut Effects,
}

impl<'a> Ctx<'a> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Seeded PRNG.
    pub fn rng(&mut self) -> &mut SmallRng {
        self.core.rng()
    }

    /// Read-only topology access.
    pub fn topology(&self) -> &Topology {
        &self.core.topo
    }

    /// Start a flow owned by this process; completion arrives as
    /// [`Event::FlowCompleted`].
    pub fn start_flow(&mut self, spec: FlowSpec) -> NetResult<FlowId> {
        self.core.start_flow_inner(Some(self.pid), spec)
    }

    /// Set a timer; fires as [`Event::Timer`] with the given tag.
    pub fn set_timer(&mut self, delay: SimTime, tag: u64) {
        let t = self.core.now + delay;
        self.core.push(
            t,
            EventKind::Timer {
                pid: self.pid.0,
                tag,
            },
        );
    }

    /// Spawn a child process; its completion arrives as [`Event::ChildDone`].
    pub fn spawn(&mut self, p: Box<dyn Process>) -> ProcessId {
        let pid = ProcessId(*self.next_pid);
        *self.next_pid += 1;
        self.effects.spawned.push((pid, Some(self.pid), p));
        pid
    }

    /// Finish this process with a result; the parent is notified.
    pub fn finish(&mut self, v: Value) {
        self.effects.finished = Some(v);
    }

    /// Cancel a flow this process started. The flow's capacity is released
    /// immediately; an [`Event::FlowFailed`] is *not* delivered (the caller
    /// already knows). A flow already delivered or cancelled, or an unknown
    /// id, is a no-op. Finds the flow by a scan of the live flows.
    pub fn cancel_flow(&mut self, id: FlowId) {
        let slot = self.core.flows.iter().find(|(_, f)| f.id == id.0);
        if let Some((slot, _)) = slot {
            self.core.cancel_flow_at(slot);
        }
    }

    /// The telemetry sink (see [`Core::telemetry`]).
    pub fn telemetry(&mut self) -> &mut Telemetry {
        self.core.telemetry()
    }

    /// Current simulated time in nanoseconds (telemetry timestamp).
    pub fn now_ns(&self) -> u64 {
        self.core.now.as_nanos()
    }

    /// Resolve the routed path between two nodes (diagnostics).
    pub fn resolve_path(&mut self, src: NodeId, dst: NodeId) -> NetResult<Vec<NodeId>> {
        self.core.resolve_path(src, dst)
    }

    /// Round-trip time between two nodes along routed paths.
    pub fn rtt(&mut self, src: NodeId, dst: NodeId) -> NetResult<SimTime> {
        self.core.rtt(src, dst)
    }
}

/// What limits a path's single-flow rate (see [`Core::bottleneck`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Bottleneck {
    /// The binding rate.
    pub rate: Bandwidth,
    /// Which constraint binds.
    pub cause: BottleneckCause,
}

/// The binding constraint of a path.
#[derive(Debug, Clone, PartialEq)]
pub enum BottleneckCause {
    /// A link's capacity (named by its endpoints).
    Link {
        /// Upstream node name.
        from: String,
        /// Downstream node name.
        to: String,
    },
    /// A traffic policer.
    Policer {
        /// The policer's diagnostic name.
        name: String,
    },
    /// The TCP loss/RTT ceiling.
    TcpCeiling {
        /// Path round-trip time.
        rtt: SimTime,
        /// End-to-end loss probability.
        loss: f64,
    },
    /// Nothing binds (degenerate zero-hop path).
    Unconstrained,
}

impl std::fmt::Display for Bottleneck {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.cause {
            BottleneckCause::Link { from, to } => {
                write!(f, "{} (link {from} → {to})", self.rate)
            }
            BottleneckCause::Policer { name } => write!(f, "{} (policer {name})", self.rate),
            BottleneckCause::TcpCeiling { rtt, loss } => {
                write!(f, "{} (TCP ceiling: rtt {rtt}, loss {loss:.4})", self.rate)
            }
            BottleneckCause::Unconstrained => write!(f, "unconstrained"),
        }
    }
}

/// A request for a single bulk transfer (the simplest simulation driver).
#[derive(Debug, Clone)]
pub struct TransferRequest {
    /// Underlying flow parameters.
    pub spec: FlowSpec,
}

impl TransferRequest {
    /// A transfer with default class [`FlowClass::Commodity`].
    pub fn new(src: NodeId, dst: NodeId, bytes: u64) -> Self {
        TransferRequest {
            spec: FlowSpec::new(src, dst, bytes, FlowClass::Commodity),
        }
    }

    /// A transfer with an explicit class.
    pub fn with_class(src: NodeId, dst: NodeId, bytes: u64, class: FlowClass) -> Self {
        TransferRequest {
            spec: FlowSpec::new(src, dst, bytes, class),
        }
    }
}

/// Result of a completed transfer.
#[derive(Debug, Clone)]
pub struct TransferReport {
    /// Payload size.
    pub bytes: u64,
    /// Total duration from request to last-byte delivery.
    pub elapsed: SimTime,
}

impl TransferReport {
    /// Achieved goodput.
    pub fn throughput(&self) -> Bandwidth {
        Bandwidth::from_bytes_per_sec(self.bytes as f64 / self.elapsed.as_secs_f64().max(1e-12))
    }
}

struct OneShotTransfer {
    spec: Option<FlowSpec>,
    started: SimTime,
}

impl Process for OneShotTransfer {
    fn poll(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        match ev {
            Event::Started => {
                self.started = ctx.now();
                let spec = self.spec.take().expect("started once");
                if let Err(e) = ctx.start_flow(spec) {
                    ctx.finish(Value::Error(e));
                }
            }
            Event::FlowCompleted { elapsed, .. } => ctx.finish(Value::Time(elapsed)),
            Event::FlowFailed { error, .. } => ctx.finish(Value::Error(error)),
            _ => {}
        }
    }

    fn name(&self) -> &'static str {
        "one-shot-transfer"
    }
}

impl Sim {
    /// Build a simulator over a topology with a deterministic seed.
    ///
    /// Pass a `Topology` to give the sim its own, or an `Arc<Topology>`
    /// clone to share one network among many sims: the topology's
    /// shortest-path trees are built once, by whichever sim first routes
    /// from a node, and read by all of them, on any thread. Sharing never
    /// changes a run — the trees are a pure function of the topology and
    /// stay out of every digest.
    ///
    /// A sim dropped over a shared topology leaves its engine buffers there
    /// (the allocator's lists and scratch, the flow slab, the event queue),
    /// and a new sim over it resets one such set and takes it rather than
    /// growing its own: the same state as fresh buffers, without the
    /// allocations.
    pub fn new(topo: impl Into<Arc<Topology>>, seed: u64) -> Self {
        let topo: Arc<Topology> = topo.into();
        let SimBuffers {
            mut alloc,
            mut flows,
            mut queue,
            mut route,
            doomed,
        } = topo.spares().take();
        alloc.reset(topo.links().iter().map(|l| l.capacity.bytes_per_sec()));
        flows.reset();
        queue.clear();
        route.clear();
        Sim {
            core: Core {
                alloc,
                jitter: 0.0,
                topo,
                routing: RoutingTable::new(),
                tcp: TcpParams::default(),
                policers: Vec::new(),
                flows,
                route,
                stale_drains: 0,
                progress_mode: ProgressMode::default(),
                stepped: Vec::new(),
                progress_diverged: None,
                util_scratch: Vec::new(),
                next_flow: 1,
                queue,
                seq: 0,
                now: SimTime::ZERO,
                rng: SmallRng::seed_from_u64(seed),
                stats: SimStats::default(),
                event_budget: 50_000_000,
                tele: Telemetry::disabled(),
                #[cfg(feature = "failpoints")]
                overalloc: 1.0,
                #[cfg(feature = "failpoints")]
                progress_skew: 1.0,
            },
            processes: Vec::new(),
            spawn_lists: Vec::new(),
            doomed,
            root_result: None,
            audit: None,
        }
    }

    /// Install an [`AuditHook`], invoked after every processed event while a
    /// root process runs. Replaces any previous hook.
    pub fn set_audit_hook(&mut self, hook: Box<dyn AuditHook>) {
        self.audit = Some(hook);
    }

    /// Full deterministic state digest: the core (clock, flows, queue,
    /// routing) plus every live process's [`Process::digest_into`]
    /// contribution. Two same-seed executions of the same scenario must
    /// produce identical digests at every event — the simcheck determinism
    /// oracle is built on this.
    pub fn state_digest(&self) -> u64 {
        let mut d = Digest::new();
        self.core.digest_into(&mut d);
        for (i, slot) in self.processes.iter().enumerate() {
            d.write_u64(i as u64);
            d.write_bool(slot.alive);
            if let Some(p) = &slot.proc_ {
                p.digest_into(&mut d);
            }
        }
        d.finish()
    }

    /// Test-only fault injection: multiply every allocated flow rate by
    /// `factor` after max-min allocation. A factor above 1.0 makes the
    /// engine over-subscribe saturated links — the simcheck harness uses
    /// this to prove its oracles catch over-allocation. Compiled only with
    /// the `failpoints` feature.
    #[cfg(feature = "failpoints")]
    pub fn inject_rate_inflation(&mut self, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0,
            "invalid rate inflation {factor}"
        );
        self.core.overalloc = factor;
    }

    /// Test-only fault injection: the reference routing backend breaks
    /// equal-cost ties by the largest predecessor id (see
    /// [`crate::routing::RoutingTable::inject_largest_predecessor`]). The
    /// simcheck harness uses this to prove the routing lockstep fires.
    /// Compiled only with the `failpoints` feature.
    #[cfg(feature = "failpoints")]
    pub fn inject_largest_predecessor(&mut self) {
        self.core.routing.inject_largest_predecessor();
    }

    /// Test-only fault injection: nudge one rate of every waterfilled
    /// component of three or more flows by one ulp (see
    /// [`FlowCore::inject_ulp_nudge`]). The simcheck harness uses this to
    /// prove the allocator lockstep fires. Compiled only with the
    /// `failpoints` feature.
    #[cfg(feature = "failpoints")]
    pub fn inject_ulp_nudge(&mut self) {
        self.core.alloc.inject_ulp_nudge();
    }

    /// Test-only fault injection: every flow started from now on moves
    /// `factor` times its rate's bytes per interval in the lazy closed form
    /// of [`FlowProgress::remaining_at`]. The simcheck harness uses this
    /// to prove the progress lockstep fires. Compiled only with the
    /// `failpoints` feature.
    #[cfg(feature = "failpoints")]
    pub fn inject_progress_skew(&mut self, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0,
            "invalid progress skew {factor}"
        );
        self.core.progress_skew = factor;
    }

    /// Run every reference backend in lockstep with its production
    /// counterpart for the rest of the run. After each incremental
    /// reallocation the allocator compares its rates bit for bit with a
    /// fresh [`crate::flow::max_min_allocate`]; each route query compares
    /// the oracle's answer with the memoized reference Dijkstra; and the
    /// eager progress sweep ([`ProgressMode::Eager`]) steps its ledger at
    /// every clock advance. Each records its first disagreement
    /// ([`Sim::divergences`]) rather than panicking. The lockstep only
    /// reads engine state, so digests and outcomes are the same with it
    /// on or off. Call before starting transfers.
    pub fn enable_lockstep(&mut self) {
        self.core.alloc.enable_lockstep();
        self.core.routing.enable_lockstep();
        self.core.progress_mode = ProgressMode::Eager;
    }

    /// Where each lockstep backend first disagreed (see
    /// [`Sim::enable_lockstep`]).
    pub fn divergences(&self) -> Divergences {
        Divergences {
            allocator: self.core.alloc.divergence(),
            routing: self.core.routing.divergence(),
            progress: self.core.progress_diverged,
        }
    }

    fn audit_after_event(&mut self) {
        if let Some(mut hook) = self.audit.take() {
            hook.after_event(&AuditView { core: &self.core });
            self.audit = Some(hook);
        }
    }

    /// Apply symmetric per-run capacity jitter: every link's effective
    /// capacity for this simulation is drawn uniformly from
    /// `nominal × [1-frac, 1+frac]` using the sim's seeded PRNG. Models the
    /// run-to-run rate variability real WAN paths exhibit even when idle
    /// (the paper's error bars never vanish). Call once, right after
    /// construction.
    pub fn set_capacity_jitter(&mut self, frac: f64) {
        assert!(
            (0.0..1.0).contains(&frac),
            "jitter fraction out of range: {frac}"
        );
        use rand::Rng;
        self.core.jitter = frac;
        for (i, link) in self.core.topo.links().iter().enumerate() {
            let k: f64 = self.core.rng.gen_range(1.0 - frac..=1.0 + frac);
            self.core
                .alloc
                .set_capacity(i as u32, link.capacity.bytes_per_sec() * k);
        }
    }

    /// Install a route override. Pass an `Arc` to share one override
    /// among many sims.
    pub fn add_route_override(&mut self, ov: impl Into<Arc<crate::routing::RouteOverride>>) {
        self.core.routing.add_override(ov);
    }

    /// Attach a policer. If capacity jitter is enabled, the policer's
    /// effective rate for this run is jittered by the same fraction. Pass
    /// an `Arc` to share one policer among many sims.
    pub fn add_policer(&mut self, p: impl Into<Arc<Policer>>) {
        let p = p.into();
        let mut rate = p.rate;
        if self.core.jitter > 0.0 {
            use rand::Rng;
            let j = self.core.jitter;
            let k: f64 = self.core.rng.gen_range(1.0 - j..=1.0 + j);
            rate = rate * k;
        }
        // Aggregate policers are allocatable resources; their index
        // convention is `n_links + position` (see `start_flow_inner`).
        self.core.alloc.push_resource(rate.bytes_per_sec());
        self.core.policers.push((p, rate));
    }

    /// Select the allocator strategy: the component-scoped incremental
    /// allocator (default) or the full-recompute reference. Both produce
    /// bitwise-identical executions (see [`FlowCore`]); simcheck checks
    /// this inside each audited run ([`Sim::enable_lockstep`]).
    pub fn set_allocator_mode(&mut self, mode: AllocMode) {
        self.core.alloc.set_mode(mode);
    }

    /// Select the routing backend: the precomputed route oracle (default)
    /// or the per-query reference Dijkstra. Both produce bit-identical
    /// executions (see [`crate::routing::RoutingTable`]); simcheck checks
    /// this inside each audited run ([`Sim::enable_lockstep`]).
    pub fn set_routing_mode(&mut self, mode: crate::routing::RoutingMode) {
        self.core.routing.set_mode(mode);
    }

    /// Select the progress-accounting mode (see [`ProgressMode`]). Call
    /// before starting transfers. Both modes produce bit-identical
    /// executions; [`ProgressMode::Eager`] additionally runs the legacy
    /// per-event sweep as a differential oracle ([`Sim::divergences`]),
    /// making every clock step O(all flows) again.
    pub fn set_progress_mode(&mut self, mode: ProgressMode) {
        self.core.progress_mode = mode;
    }

    /// Cap the number of processed events (livelock guard).
    pub fn set_event_budget(&mut self, budget: u64) {
        self.core.event_budget = budget;
    }

    /// Turn on span/event/metric recording for the rest of the run. All
    /// timestamps are simulated time, so the recording is deterministic for
    /// a fixed topology and seed.
    pub fn enable_telemetry(&mut self) {
        self.core.tele = Telemetry::enabled();
    }

    /// The telemetry sink (for layers that record between process events).
    pub fn telemetry(&mut self) -> &mut Telemetry {
        self.core.telemetry()
    }

    /// Take the finished recording; `None` when telemetry was never
    /// enabled. Leaves the sink disabled.
    pub fn take_telemetry(&mut self) -> Option<obs::Recording> {
        self.core.tele.take()
    }

    /// Schedule a link-capacity change at a simulated time no earlier than
    /// now: a dynamic bottleneck appearing (rate drop) or clearing (rate
    /// rise). Active flows re-share bandwidth at that instant. Used to
    /// exercise the route monitor's "bypass dynamic bottlenecks" behaviour
    /// — the paper's closing future-work item.
    pub fn schedule_capacity_change(
        &mut self,
        link: crate::topology::LinkId,
        at: SimTime,
        capacity: Bandwidth,
    ) {
        assert!(
            (link.0 as usize) < self.core.topo.links().len(),
            "unknown link {link}"
        );
        assert!(
            at >= self.core.now,
            "capacity change at {at} is before now ({})",
            self.core.now
        );
        self.core.push(
            at,
            EventKind::SetLinkCap {
                link: link.0,
                bytes_per_sec: capacity.bytes_per_sec(),
            },
        );
    }

    /// Read-only core access (time, stats, topology, path resolution).
    pub fn core(&mut self) -> &mut Core {
        &mut self.core
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Current simulated time in nanoseconds (telemetry timestamp unit).
    pub fn now_ns(&self) -> u64 {
        self.core.now.as_nanos()
    }

    /// Engine counters.
    pub fn stats(&self) -> SimStats {
        self.core.stats
    }

    /// Flows currently known to the engine (started, not yet delivered).
    pub fn live_flows(&self) -> usize {
        self.core.flows.len()
    }

    /// Current event-queue occupancy (live and stale entries).
    pub fn queue_len(&self) -> usize {
        self.core.queue.len()
    }

    /// Connected components of the allocator-active flow set, in canonical
    /// order (see [`crate::flow::FlowCore::components`]) — the partition
    /// the sharded executor ([`crate::shard`]) distributes over. Flows that
    /// have drained but not yet delivered no longer couple resources and
    /// are absent.
    pub fn flow_components(&self) -> Vec<Vec<u64>> {
        self.core.alloc.components()
    }

    /// Spawn a detached (parentless, result-discarded) process — used for
    /// background traffic generators that run for the whole simulation.
    pub fn spawn_detached(&mut self, p: Box<dyn Process>) -> ProcessId {
        let pid = ProcessId(self.processes.len() as u32);
        self.processes.push(ProcSlot {
            proc_: Some(p),
            parent: None,
            alive: true,
        });
        self.deliver(pid, Event::Started);
        pid
    }

    /// Run a root process to completion and return its result.
    pub fn run_process(&mut self, p: Box<dyn Process>) -> NetResult<Value> {
        let root = ProcessId(self.processes.len() as u32);
        self.processes.push(ProcSlot {
            proc_: Some(p),
            parent: None,
            alive: true,
        });
        self.root_result = None;
        self.deliver_root(root, Event::Started);
        self.audit_after_event();
        if let Some(v) = self.root_result.take() {
            self.reap_orphans(root);
            return Ok(v);
        }
        let mut processed: u64 = 0;
        while let Some((time, q)) = self.core.queue.pop() {
            processed += 1;
            self.core.stats.events += 1;
            if processed > self.core.event_budget {
                return Err(NetError::EventBudgetExhausted { events: processed });
            }
            self.core.advance_to(SimTime::from_nanos(time));
            self.dispatch(q.kind, root);
            self.audit_after_event();
            if let Some(v) = self.root_result.take() {
                self.reap_orphans(root);
                return Ok(v);
            }
        }
        Err(NetError::NoResult)
    }

    /// Unwind what the finished root strands behind. A root that finishes
    /// early (a session aborting on a retry-budget or deadline error)
    /// orphans its still-live descendants: their process-owned telemetry
    /// spans would never end and their flows would hold link capacity into
    /// any later run on the same sim. Each orphan gets a
    /// [`Process::abort`] callback to close its spans, then every flow the
    /// orphans own is cancelled. Flows the *root itself* leaves running
    /// are kept — a driver may deliberately finish with long-lived flows
    /// still in flight — and detached background processes are not
    /// descendants of `root`, so they keep running too.
    fn reap_orphans(&mut self, root: ProcessId) {
        let mut doomed = std::mem::take(&mut self.doomed);
        doomed.clear();
        doomed.extend(self.processes.iter().enumerate().map(|(i, slot)| {
            if !slot.alive || i == root.0 as usize {
                return false;
            }
            let mut cur = i;
            while let Some(p) = self.processes[cur].parent {
                cur = p.0 as usize;
            }
            cur == root.0 as usize
        }));
        for idx in (0..doomed.len()).filter(|&i| doomed[i]) {
            let pid = ProcessId(idx as u32);
            if let Some(mut proc_) = self.processes[idx].proc_.take() {
                let mut effects = Effects::default();
                let mut next_pid = self.processes.len() as u32;
                let mut ctx = Ctx {
                    core: &mut self.core,
                    pid,
                    next_pid: &mut next_pid,
                    effects: &mut effects,
                };
                proc_.abort(&mut ctx);
                // Effects issued during abort are deliberately dropped.
            }
            self.processes[idx].alive = false;
        }
        // Slot order, as the flows iterate; a cancellation vacates only its
        // own slot.
        for slot in 0..self.core.flows.slots.len() as u32 {
            let owner = self.core.flows.get(slot).and_then(|f| f.owner);
            if owner.is_some_and(|o| doomed[o.0 as usize]) {
                self.core.cancel_flow_at(slot);
            }
        }
        self.doomed = doomed;
    }

    /// Convenience: run a single bulk transfer and report its timing.
    pub fn run_transfer(&mut self, req: TransferRequest) -> NetResult<TransferReport> {
        let bytes = req.spec.bytes;
        let v = self.run_process(Box::new(OneShotTransfer {
            spec: Some(req.spec),
            started: SimTime::ZERO,
        }))?;
        match v {
            Value::Time(t) => Ok(TransferReport { bytes, elapsed: t }),
            Value::Error(e) => Err(e),
            other => panic!("unexpected transfer result {other:?}"),
        }
    }

    fn dispatch(&mut self, kind: EventKind, root: ProcessId) {
        match kind {
            EventKind::Activate { flow, slot } => {
                // The flow may have been cancelled during its startup delay
                // (slot empty or reused — the id check covers both).
                let now = self.core.now;
                let known = match self.core.flows.get_mut(slot) {
                    Some(f) if f.id == flow => {
                        f.active = true;
                        f.progress.started = now;
                        // Re-anchor at activation (a no-op for `remaining`:
                        // the pre-activation rate is zero).
                        f.progress.settle(now);
                        true
                    }
                    _ => false,
                };
                if known {
                    if self.core.progress_mode == ProgressMode::Eager {
                        // Seed the stepped shadow ledger for this slot.
                        let rem = self
                            .core
                            .flows
                            .get(slot)
                            .expect("just seen")
                            .progress
                            .remaining;
                        if self.core.stepped.len() <= slot as usize {
                            self.core.stepped.resize(slot as usize + 1, 0.0);
                        }
                        self.core.stepped[slot as usize] = rem;
                    }
                    self.core.activate_flow(slot);
                }
            }
            EventKind::Drained { flow, slot, gen } => {
                if self.core.flows.drain_is_live(flow, slot, gen) {
                    let (delay, alloc_slot) = {
                        let f = self.core.flows.get_mut(slot).expect("liveness checked");
                        f.progress.remaining = 0.0;
                        f.progress.updated_at = self.core.now;
                        f.active = false;
                        f.pending_drain = false;
                        let alloc_slot = f.alloc_slot;
                        f.alloc_slot = u32::MAX;
                        (f.path_delay, alloc_slot)
                    };
                    self.core.deactivate_flow(alloc_slot);
                    self.core
                        .push(self.core.now + delay, EventKind::Delivered { flow, slot });
                } else {
                    // A superseded (or cancelled-flow) drain leaving the queue.
                    debug_assert!(self.core.stale_drains > 0, "stale drain accounted");
                    self.core.stale_drains = self.core.stale_drains.saturating_sub(1);
                }
            }
            EventKind::Delivered { flow, slot } => {
                let known = matches!(self.core.flows.get(slot), Some(f) if f.id == flow);
                if known {
                    let f = self.core.flows.remove(slot).expect("checked above");
                    self.core.stats.flows_completed += 1;
                    self.core.stats.bytes_delivered += f.total_bytes;
                    if let Some(hook) = self.audit.as_mut() {
                        hook.flow_delivered(flow, f.total_bytes, self.core.now);
                    }
                    let now_ns = self.core.now.as_nanos();
                    self.core.tele.span_end(now_ns, f.span);
                    self.core
                        .tele
                        .counter_add("netsim.bytes_delivered", f.total_bytes);
                    // Feed the streaming-aggregation plane: per-window
                    // flow-duration sketches and delivered-byte counts.
                    let dur_ns = self.core.now.saturating_sub(f.started_at).as_nanos();
                    self.core
                        .tele
                        .window_record(now_ns, "netsim.flow.duration_ns", dur_ns);
                    self.core.tele.window_count(
                        now_ns,
                        "netsim.flow.delivered_bytes",
                        f.total_bytes,
                    );
                    if let Some(owner) = f.owner {
                        let ev = Event::FlowCompleted {
                            flow: FlowId(flow),
                            bytes: f.total_bytes,
                            elapsed: self.core.now.saturating_sub(f.started_at),
                        };
                        self.deliver_root_aware(owner, ev, root);
                    }
                }
            }
            EventKind::Timer { pid, tag } => {
                self.deliver_root_aware(ProcessId(pid), Event::Timer { tag }, root);
            }
            EventKind::SetLinkCap {
                link,
                bytes_per_sec,
            } => {
                let now_ns = self.core.now.as_nanos();
                self.core
                    .tele
                    .event(now_ns, Category::Flow, "link.capacity", SpanId::NONE, |a| {
                        a.set("link", link).set("bytes_per_sec", bytes_per_sec);
                    });
                self.core.change_capacity(link, bytes_per_sec);
            }
        }
    }

    fn deliver_root_aware(&mut self, pid: ProcessId, ev: Event, root: ProcessId) {
        if let Some((finisher, v)) = self.deliver(pid, ev) {
            if finisher == root {
                self.root_result = Some(v);
            }
            // Otherwise a detached process finished; its result is discarded.
        }
    }

    fn deliver_root(&mut self, pid: ProcessId, ev: Event) {
        if let Some((finisher, v)) = self.deliver(pid, ev) {
            if finisher == pid {
                self.root_result = Some(v);
            }
        }
    }

    /// Deliver an event to a process. If the event causes some *parentless*
    /// process (this one, or an ancestor reached through `ChildDone`
    /// notifications) to finish, returns that process and its value.
    fn deliver(&mut self, pid: ProcessId, ev: Event) -> Option<(ProcessId, Value)> {
        let idx = pid.0 as usize;
        if idx >= self.processes.len() || !self.processes[idx].alive {
            return None; // late event for a dead process
        }
        let mut proc_ = self.processes[idx].proc_.take()?;
        let mut effects = Effects {
            spawned: self.spawn_lists.pop().unwrap_or_default(),
            finished: None,
        };
        let mut next_pid = self.processes.len() as u32;
        {
            let mut ctx = Ctx {
                core: &mut self.core,
                pid,
                next_pid: &mut next_pid,
                effects: &mut effects,
            };
            proc_.poll(&mut ctx, ev);
        }
        // Reserve slots for spawned children before re-inserting.
        while self.processes.len() < next_pid as usize {
            self.processes.push(ProcSlot {
                proc_: None,
                parent: None,
                alive: false,
            });
        }
        let finished = effects.finished.take();
        if finished.is_none() {
            self.processes[idx].proc_ = Some(proc_);
        } else {
            self.processes[idx].alive = false;
        }
        // Start spawned children (may themselves spawn; recursion is bounded
        // by protocol depth, which is small).
        // A synchronous child start can itself finish an ancestor (e.g. a
        // child that errors immediately); keep the first such result.
        let mut bubbled: Option<(ProcessId, Value)> = None;
        for (cpid, parent, child) in effects.spawned.drain(..) {
            let cidx = cpid.0 as usize;
            self.processes[cidx] = ProcSlot {
                proc_: Some(child),
                parent,
                alive: true,
            };
            if let Some(r) = self.deliver(cpid, Event::Started) {
                bubbled.get_or_insert(r);
            }
        }
        self.spawn_lists.push(effects.spawned);
        if let Some(v) = finished {
            match self.processes[idx].parent {
                Some(pp) => {
                    if let Some(r) = self.deliver(
                        pp,
                        Event::ChildDone {
                            child: pid,
                            value: v,
                        },
                    ) {
                        bubbled.get_or_insert(r);
                    }
                }
                None => {
                    bubbled.get_or_insert((pid, v));
                }
            }
        }
        bubbled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geo::GeoPoint;
    use crate::topology::{LinkId, LinkParams, TopologyBuilder};
    use crate::units::{Bandwidth, MB};

    fn line_topo(mbps: f64) -> (Topology, NodeId, NodeId) {
        let mut b = TopologyBuilder::new();
        let a = b.host("a", GeoPoint::new(49.0, -123.0));
        let c = b.host("c", GeoPoint::new(37.0, -122.0));
        b.duplex(
            a,
            c,
            LinkParams::new(Bandwidth::from_mbps(mbps), SimTime::from_millis(10)),
        );
        (b.build(), a, c)
    }

    #[test]
    fn single_transfer_time_close_to_ideal() {
        let (t, a, c) = line_topo(80.0); // 10 MB/s
        let mut sim = Sim::new(t, 1);
        let rep = sim
            .run_transfer(TransferRequest::new(a, c, 10 * MB))
            .unwrap();
        // Ideal fluid time is 1 s; slow start + propagation add a little.
        let s = rep.elapsed.as_secs_f64();
        assert!((1.0..1.5).contains(&s), "elapsed {s}");
        assert!(rep.throughput().mbps() < 80.0);
    }

    #[test]
    fn deterministic_across_runs() {
        let (t, a, c) = line_topo(8.0);
        let r1 = Sim::new(t.clone(), 7)
            .run_transfer(TransferRequest::new(a, c, MB))
            .unwrap();
        let r2 = Sim::new(t, 7)
            .run_transfer(TransferRequest::new(a, c, MB))
            .unwrap();
        assert_eq!(r1.elapsed, r2.elapsed);
    }

    #[test]
    fn zero_byte_transfer_rejected() {
        let (t, a, c) = line_topo(8.0);
        let mut sim = Sim::new(t, 1);
        let err = sim
            .core()
            .start_flow_inner(None, FlowSpec::new(a, c, 0, FlowClass::Commodity));
        assert_eq!(err.unwrap_err(), NetError::EmptyTransfer);
    }

    #[test]
    fn per_flow_policer_caps_throughput() {
        let (t, a, c) = line_topo(80.0);
        let mut sim = Sim::new(t, 1);
        sim.add_policer(Policer::per_flow(
            "police",
            LinkId(0),
            FlowClass::PlanetLab,
            Bandwidth::from_mbps(8.0), // 1 MB/s
        ));
        let rep = sim
            .run_transfer(TransferRequest::with_class(
                a,
                c,
                10 * MB,
                FlowClass::PlanetLab,
            ))
            .unwrap();
        let s = rep.elapsed.as_secs_f64();
        assert!(s > 9.5, "policed transfer took only {s}s");
        // An unmatched class is unaffected.
        let mut sim2 = Sim::new(line_topo(80.0).0, 1);
        sim2.add_policer(Policer::per_flow(
            "police",
            LinkId(0),
            FlowClass::PlanetLab,
            Bandwidth::from_mbps(8.0),
        ));
        let rep2 = sim2
            .run_transfer(TransferRequest::with_class(
                NodeId(0),
                NodeId(1),
                10 * MB,
                FlowClass::Research,
            ))
            .unwrap();
        assert!(rep2.elapsed.as_secs_f64() < 2.0);
    }

    #[test]
    fn two_concurrent_flows_share_link() {
        struct TwoFlows {
            a: NodeId,
            c: NodeId,
            done: u32,
            t0: SimTime,
            times: Vec<SimTime>,
        }
        impl Process for TwoFlows {
            fn poll(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
                match ev {
                    Event::Started => {
                        self.t0 = ctx.now();
                        for _ in 0..2 {
                            ctx.start_flow(FlowSpec::new(
                                self.a,
                                self.c,
                                10 * MB,
                                FlowClass::Commodity,
                            ))
                            .unwrap();
                        }
                    }
                    Event::FlowCompleted { elapsed, .. } => {
                        self.done += 1;
                        self.times.push(elapsed);
                        if self.done == 2 {
                            let m = *self.times.iter().max().unwrap();
                            ctx.finish(Value::Time(m));
                        }
                    }
                    _ => {}
                }
            }
        }
        let (t, a, c) = line_topo(80.0); // alone: ~1s each
        let mut sim = Sim::new(t, 1);
        let v = sim
            .run_process(Box::new(TwoFlows {
                a,
                c,
                done: 0,
                t0: SimTime::ZERO,
                times: vec![],
            }))
            .unwrap();
        let total = v.expect_time().as_secs_f64();
        // Sharing: both finish around 2s (not 1s).
        assert!((1.9..2.6).contains(&total), "shared completion {total}");
    }

    #[test]
    fn weighted_flows_share_proportionally_end_to_end() {
        struct TwoWeighted {
            a: NodeId,
            c: NodeId,
            heavy: Option<FlowId>,
            heavy_time: Option<SimTime>,
            light_time: Option<SimTime>,
        }
        impl Process for TwoWeighted {
            fn poll(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
                match ev {
                    Event::Started => {
                        self.heavy = Some(
                            ctx.start_flow(
                                FlowSpec::new(self.a, self.c, 30 * MB, FlowClass::Commodity)
                                    .with_weight(3.0)
                                    .reuse_connection(),
                            )
                            .unwrap(),
                        );
                        ctx.start_flow(
                            FlowSpec::new(self.a, self.c, 30 * MB, FlowClass::Commodity)
                                .with_weight(1.0)
                                .reuse_connection(),
                        )
                        .unwrap();
                    }
                    Event::FlowCompleted { flow, elapsed, .. } => {
                        if Some(flow) == self.heavy {
                            self.heavy_time = Some(elapsed);
                        } else {
                            self.light_time = Some(elapsed);
                        }
                        if let (Some(h), Some(l)) = (self.heavy_time, self.light_time) {
                            ctx.finish(Value::List(vec![Value::Time(h), Value::Time(l)]));
                        }
                    }
                    _ => {}
                }
            }
        }
        let (t, a, c) = line_topo(80.0); // 10 MB/s
        let mut sim = Sim::new(t, 1);
        let v = sim
            .run_process(Box::new(TwoWeighted {
                a,
                c,
                heavy: None,
                heavy_time: None,
                light_time: None,
            }))
            .unwrap();
        let items = v.expect_list();
        let heavy = items[0].expect_time().as_secs_f64();
        let light = items[1].expect_time().as_secs_f64();
        // Shared 3:1 on a 10 MB/s link: heavy ≈ 30/7.5 = 4 s; the light flow
        // gets 2.5 MB/s until then (10 MB done), then the full link:
        // ≈ 4 + 20/10 = 6 s.
        assert!((3.8..4.6).contains(&heavy), "heavy {heavy}");
        assert!((5.6..6.8).contains(&light), "light {light}");
    }

    #[test]
    fn timers_fire_in_order() {
        struct Timers {
            fired: Vec<u64>,
        }
        impl Process for Timers {
            fn poll(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
                match ev {
                    Event::Started => {
                        ctx.set_timer(SimTime::from_millis(30), 3);
                        ctx.set_timer(SimTime::from_millis(10), 1);
                        ctx.set_timer(SimTime::from_millis(20), 2);
                    }
                    Event::Timer { tag } => {
                        self.fired.push(tag);
                        if self.fired.len() == 3 {
                            ctx.finish(Value::List(
                                self.fired.iter().map(|&t| Value::U64(t)).collect(),
                            ));
                        }
                    }
                    _ => {}
                }
            }
        }
        let (t, ..) = line_topo(10.0);
        let v = Sim::new(t, 1)
            .run_process(Box::new(Timers { fired: vec![] }))
            .unwrap();
        let tags: Vec<u64> = v.expect_list().iter().map(|v| v.expect_u64()).collect();
        assert_eq!(tags, vec![1, 2, 3]);
    }

    #[test]
    fn child_processes_report_to_parent() {
        struct Child;
        impl Process for Child {
            fn poll(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
                if let Event::Started = ev {
                    ctx.set_timer(SimTime::from_millis(5), 0);
                } else if let Event::Timer { .. } = ev {
                    ctx.finish(Value::U64(99));
                }
            }
        }
        struct Parent {
            child: Option<ProcessId>,
        }
        impl Process for Parent {
            fn poll(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
                match ev {
                    Event::Started => {
                        self.child = Some(ctx.spawn(Box::new(Child)));
                    }
                    Event::ChildDone { child, value } => {
                        assert_eq!(Some(child), self.child);
                        ctx.finish(value);
                    }
                    _ => {}
                }
            }
        }
        let (t, ..) = line_topo(10.0);
        let v = Sim::new(t, 1)
            .run_process(Box::new(Parent { child: None }))
            .unwrap();
        assert_eq!(v, Value::U64(99));
    }

    #[test]
    fn event_budget_catches_livelock() {
        struct Livelock;
        impl Process for Livelock {
            fn poll(&mut self, ctx: &mut Ctx<'_>, _ev: Event) {
                ctx.set_timer(SimTime::from_nanos(1), 0);
            }
        }
        let (t, ..) = line_topo(10.0);
        let mut sim = Sim::new(t, 1);
        sim.set_event_budget(1000);
        let err = sim.run_process(Box::new(Livelock)).unwrap_err();
        assert!(matches!(err, NetError::EventBudgetExhausted { .. }));
    }

    #[test]
    fn no_result_on_deadlock() {
        struct Waits;
        impl Process for Waits {
            fn poll(&mut self, _ctx: &mut Ctx<'_>, _ev: Event) {}
        }
        let (t, ..) = line_topo(10.0);
        let err = Sim::new(t, 1).run_process(Box::new(Waits)).unwrap_err();
        assert_eq!(err, NetError::NoResult);
    }

    #[test]
    fn capacity_jitter_perturbs_times_but_stays_deterministic() {
        let (t, a, c) = line_topo(80.0);
        let run = |seed: u64, jitter: f64| {
            let mut sim = Sim::new(t.clone(), seed);
            if jitter > 0.0 {
                sim.set_capacity_jitter(jitter);
            }
            sim.run_transfer(TransferRequest::new(a, c, 10 * MB))
                .unwrap()
                .elapsed
        };
        let crisp = run(1, 0.0);
        // Jitter changes the time, differently per seed, reproducibly.
        let j1 = run(1, 0.05);
        let j2 = run(2, 0.05);
        assert_ne!(crisp, j1);
        assert_ne!(j1, j2);
        assert_eq!(j1, run(1, 0.05));
        // And stays within the jitter envelope (plus slow-start wiggle).
        let ratio = j1.as_secs_f64() / crisp.as_secs_f64();
        assert!((0.9..1.1).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "jitter fraction")]
    fn jitter_fraction_validated() {
        let (t, ..) = line_topo(10.0);
        Sim::new(t, 1).set_capacity_jitter(1.5);
    }

    /// A lone flow's `flow.rate` events, closed at its drain (its span
    /// ends one path delay later, at delivery), integrate to its bytes.
    #[test]
    fn flow_rate_events_integrate_to_the_flow_bytes() {
        let (t, a, c) = line_topo(80.0);
        let delay = t.link(LinkId(0)).delay.as_nanos();
        let mut sim = Sim::new(t, 1);
        sim.enable_telemetry();
        // Degrade the link mid-flow so the rate actually changes.
        sim.schedule_capacity_change(
            LinkId(0),
            SimTime::from_millis(400),
            Bandwidth::from_mbps(20.0),
        );
        sim.run_transfer(TransferRequest::new(a, c, 10 * MB))
            .unwrap();
        let rec = sim.take_telemetry().expect("telemetry enabled");
        let flow = rec
            .spans
            .iter()
            .find(|s| s.name == "flow")
            .expect("flow span");
        let drained = flow.end_ns.expect("flow delivered") - delay;
        let mut points: Vec<(u64, f64)> = rec
            .events
            .iter()
            .filter(|e| e.name == "flow.rate" && e.parent == flow.id)
            .map(|e| match e.args[..] {
                [("bytes_per_sec", obs::ArgValue::F64(rate))] => (e.t_ns, rate),
                _ => panic!("flow.rate args {:?}", e.args),
            })
            .collect();
        assert!(points.len() >= 2, "rate change expected: {points:?}");
        assert!(points[0].1 > points[points.len() - 1].1, "{points:?}");
        points.push((drained, 0.0));
        let integral: f64 = points
            .windows(2)
            .map(|w| w[0].1 * (w[1].0 - w[0].0) as f64 / 1e9)
            .sum();
        let expected = (10 * MB) as f64;
        assert!(
            (integral - expected).abs() / expected < 1e-6,
            "integral {integral} vs bytes {expected}"
        );
    }

    #[test]
    fn capacity_change_mid_flow() {
        // 80 Mbps (10 MB/s) for the first second, then degraded to 8 Mbps:
        // a 20 MB transfer moves ~10 MB in the first second and crawls
        // through the remaining ~10 MB at 1 MB/s.
        let (t, a, c) = line_topo(80.0);
        let mut sim = Sim::new(t, 1);
        sim.schedule_capacity_change(LinkId(0), SimTime::from_secs(1), Bandwidth::from_mbps(8.0));
        let rep = sim
            .run_transfer(TransferRequest::new(a, c, 20 * MB))
            .unwrap();
        let s = rep.elapsed.as_secs_f64();
        assert!((9.0..13.0).contains(&s), "elapsed {s}");
        // And the reverse: a slow link that heals.
        let (t2, a2, c2) = line_topo(8.0);
        let mut sim2 = Sim::new(t2, 1);
        sim2.schedule_capacity_change(
            LinkId(0),
            SimTime::from_secs(1),
            Bandwidth::from_mbps(800.0),
        );
        let rep2 = sim2
            .run_transfer(TransferRequest::new(a2, c2, 20 * MB))
            .unwrap();
        let s2 = rep2.elapsed.as_secs_f64();
        assert!(s2 < 2.0, "healed link still slow: {s2}");
    }

    #[test]
    fn capacity_change_before_now_is_rejected() {
        // A 10 MB transfer ends past 1 s. A change scheduled at 500 ms
        // would run the clock backwards, so it is refused before it queues.
        let (t, a, c) = line_topo(80.0);
        let mut sim = Sim::new(t, 1);
        sim.run_transfer(TransferRequest::new(a, c, 10 * MB))
            .unwrap();
        let now = sim.now();
        assert!(now > SimTime::from_secs(1), "now {now}");
        let past = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.schedule_capacity_change(
                LinkId(0),
                SimTime::from_millis(500),
                Bandwidth::from_mbps(8.0),
            );
        }))
        .expect_err("a change before now is rejected");
        let msg = past.downcast_ref::<String>().expect("a formatted message");
        assert_eq!(
            *msg,
            format!("capacity change at 500.000ms is before now ({now})")
        );
        // A change at `now` itself is accepted, and the next transfer runs
        // at the new 1 MB/s.
        sim.schedule_capacity_change(LinkId(0), now, Bandwidth::from_mbps(8.0));
        let rep = sim.run_transfer(TransferRequest::new(a, c, MB)).unwrap();
        assert!(rep.elapsed >= SimTime::from_secs(1), "{}", rep.elapsed);
    }

    #[test]
    fn idle_path_rate_reflects_policers() {
        let (t, a, c) = line_topo(80.0);
        let mut sim = Sim::new(t, 1);
        sim.add_policer(Policer::per_flow(
            "p",
            LinkId(0),
            FlowClass::PlanetLab,
            Bandwidth::from_mbps(9.5),
        ));
        let pl = sim
            .core()
            .idle_path_rate(a, c, FlowClass::PlanetLab)
            .unwrap();
        let rs = sim
            .core()
            .idle_path_rate(a, c, FlowClass::Research)
            .unwrap();
        assert!((pl.mbps() - 9.5).abs() < 1e-9);
        assert!((rs.mbps() - 80.0).abs() < 1e-9);
    }

    #[test]
    fn bottleneck_attribution() {
        let (t, a, c) = line_topo(80.0);
        let mut sim = Sim::new(t, 1);
        sim.add_policer(Policer::per_flow(
            "pw",
            LinkId(0),
            FlowClass::PlanetLab,
            Bandwidth::from_mbps(9.3),
        ));
        // PlanetLab: the policer binds.
        let b = sim.core().bottleneck(a, c, FlowClass::PlanetLab).unwrap();
        assert!(
            matches!(b.cause, BottleneckCause::Policer { ref name } if name == "pw"),
            "{b}"
        );
        assert!((b.rate.mbps() - 9.3).abs() < 1e-9);
        // Research: the link binds.
        let b = sim.core().bottleneck(a, c, FlowClass::Research).unwrap();
        assert!(matches!(b.cause, BottleneckCause::Link { .. }), "{b}");
        assert!(b.to_string().contains("link"));
    }

    #[test]
    fn bottleneck_tcp_ceiling_on_lossy_path() {
        let mut b = TopologyBuilder::new();
        let a = b.host("a", GeoPoint::new(49.0, -123.0));
        let c = b.host("c", GeoPoint::new(40.0, -75.0));
        b.duplex(
            a,
            c,
            LinkParams::new(Bandwidth::from_mbps(1000.0), SimTime::from_millis(40)).with_loss(0.01),
        );
        let mut sim = Sim::new(b.build(), 1);
        let bn = sim.core().bottleneck(a, c, FlowClass::Commodity).unwrap();
        assert!(
            matches!(bn.cause, BottleneckCause::TcpCeiling { .. }),
            "{bn}"
        );
        assert!(bn.rate.mbps() < 10.0, "ceiling should be low: {bn}");
    }

    #[test]
    fn cancel_flow_releases_capacity() {
        struct CancelOne {
            a: NodeId,
            c: NodeId,
            victim: Option<FlowId>,
        }
        impl Process for CancelOne {
            fn poll(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
                match ev {
                    Event::Started => {
                        self.victim = Some(
                            ctx.start_flow(FlowSpec::new(
                                self.a,
                                self.c,
                                100 * MB,
                                FlowClass::Commodity,
                            ))
                            .unwrap(),
                        );
                        ctx.start_flow(FlowSpec::new(
                            self.a,
                            self.c,
                            10 * MB,
                            FlowClass::Commodity,
                        ))
                        .unwrap();
                        ctx.set_timer(SimTime::from_millis(500), 7);
                    }
                    Event::Timer { tag: 7 } => {
                        ctx.cancel_flow(self.victim.take().unwrap());
                    }
                    Event::FlowCompleted { elapsed, .. } => ctx.finish(Value::Time(elapsed)),
                    _ => {}
                }
            }
        }
        let (t, a, c) = line_topo(80.0);
        let mut sim = Sim::new(t, 1);
        let v = sim
            .run_process(Box::new(CancelOne { a, c, victim: None }))
            .unwrap();
        // With the 100 MB victim cancelled at 0.5 s, the 10 MB flow gets the
        // full link afterwards: finishes well under the 2 s a fair share
        // would need.
        let s = v.expect_time().as_secs_f64();
        assert!(s < 1.9, "completion {s}");
        assert_eq!(sim.stats().flows_completed, 1);
    }

    /// Cancelling an id that is unknown, already cancelled or already
    /// delivered changes nothing: the run, its counters, its telemetry and
    /// its final state match a run that cancels the victim once.
    #[test]
    fn cancel_flow_of_a_stale_or_unknown_id_is_a_noop() {
        struct Canceller {
            a: NodeId,
            c: NodeId,
            victim: Option<FlowId>,
            redundant: bool,
        }
        impl Process for Canceller {
            fn poll(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
                match ev {
                    Event::Started => {
                        let spec = FlowSpec::new(self.a, self.c, 100 * MB, FlowClass::Commodity);
                        self.victim = Some(ctx.start_flow(spec).unwrap());
                        let spec = FlowSpec::new(self.a, self.c, 10 * MB, FlowClass::Commodity);
                        ctx.start_flow(spec).unwrap();
                        ctx.set_timer(SimTime::from_millis(500), 7);
                    }
                    Event::Timer { tag: 7 } => {
                        let victim = self.victim.unwrap();
                        ctx.cancel_flow(victim);
                        if self.redundant {
                            ctx.cancel_flow(victim);
                            ctx.cancel_flow(FlowId(u64::MAX));
                        }
                    }
                    Event::FlowCompleted { flow, elapsed, .. } => {
                        if self.redundant {
                            ctx.cancel_flow(flow);
                        }
                        ctx.finish(Value::Time(elapsed));
                    }
                    _ => {}
                }
            }
        }
        let run = |redundant: bool| {
            let (t, a, c) = line_topo(80.0);
            let mut sim = Sim::new(t, 1);
            sim.enable_telemetry();
            let v = sim
                .run_process(Box::new(Canceller {
                    a,
                    c,
                    victim: None,
                    redundant,
                }))
                .unwrap();
            let digest = sim.state_digest();
            let stats = format!("{:?}", sim.stats());
            let live = sim.live_flows();
            let log = obs::jsonl_log(&sim.take_telemetry().unwrap());
            (v, digest, stats, live, log)
        };
        let once = run(false);
        assert_eq!(once.3, 0, "both flows are gone");
        assert_eq!(once.4.matches("flow.cancelled").count(), 1);
        assert_eq!(run(true), once);
    }

    /// A root that finishes early leaves only the flows of processes
    /// outside its tree live: its descendants' flows are cancelled and
    /// their capacity released, while a detached background flow keeps
    /// running.
    #[test]
    fn an_aborted_root_leaves_only_background_flows_live() {
        /// Starts one long flow and never finishes.
        struct Holder {
            a: NodeId,
            c: NodeId,
        }
        impl Process for Holder {
            fn poll(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
                if let Event::Started = ev {
                    let spec = FlowSpec::new(self.a, self.c, 100 * MB, FlowClass::Commodity);
                    ctx.start_flow(spec).unwrap();
                }
            }
        }
        /// Spawns two flow-holding children, then aborts at a timer.
        struct Job {
            a: NodeId,
            c: NodeId,
        }
        impl Process for Job {
            fn poll(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
                match ev {
                    Event::Started => {
                        for _ in 0..2 {
                            ctx.spawn(Box::new(Holder {
                                a: self.a,
                                c: self.c,
                            }));
                        }
                        ctx.set_timer(SimTime::from_millis(500), 0);
                    }
                    Event::Timer { .. } => ctx.finish(Value::Error(NetError::NoResult)),
                    _ => {}
                }
            }
        }
        let (t, a, c) = line_topo(80.0);
        let mut sim = Sim::new(t, 1);
        let background = sim.spawn_detached(Box::new(Holder { a, c }));
        let v = sim.run_process(Box::new(Job { a, c })).unwrap();
        assert_eq!(v, Value::Error(NetError::NoResult));
        assert_eq!(sim.live_flows(), 1);
        let owners: Vec<_> = sim.core.flows.iter().map(|(_, f)| f.owner).collect();
        assert_eq!(owners, vec![Some(background)]);
        // The reaped flows left the allocator: only the background flow
        // still shares the link.
        assert_eq!(sim.flow_components().concat().len(), 1);
    }
}
