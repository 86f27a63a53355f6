//! Invariant oracles checked after every simulator event.
//!
//! The oracle is an [`AuditHook`] installed into a [`netsim::engine::Sim`].
//! After each event it sees a read-only [`AuditView`] of the engine and
//! checks four safety properties:
//!
//! 1. **Time monotonicity** — the clock never runs backwards.
//! 2. **Capacity** — the rates of active flows crossing any resource (link
//!    or aggregate policer) never sum above its effective capacity.
//! 3. **Max-min fairness** — the engine's allocation matches an independent
//!    re-run of [`max_min_allocate`] over the same inputs. The re-run is
//!    kept with its inputs and repeated only when they change (bitwise),
//!    while the engine's rates are compared with it after every event.
//! 4. **Byte conservation** — a shadow ledger integrates each flow's
//!    piecewise-constant rate over time; when the engine reports a flow
//!    delivered, the integral must equal the payload size (within a float
//!    tolerance).
//!
//! It also folds every post-event state digest into a running *chain
//! digest*; the sequential and the sharded execution of a scenario must
//! produce the same chain, which is how [`crate::runner`] checks
//! determinism. The oracle's digest-only form folds the identical chain and
//! checks nothing else: the runner installs it in the re-execution whose
//! only compared output is the chain digest.
//!
//! The runner adds what the engine's lockstep backends record during a
//! full audit (`netsim::engine::Sim::enable_lockstep`): the first
//! reallocation, route query or progress step at which a reference backend
//! parts from the production one.

use netsim::audit::{AuditHook, Digest};
use netsim::engine::{AuditFlow, AuditView};
use netsim::flow::{max_min_allocate, AllocEntry};
use netsim::time::SimTime;
use std::cell::RefCell;
use std::rc::Rc;

/// Keep at most this many violations per run; one broken invariant tends to
/// fire on every subsequent event and we only need the first few.
const MAX_VIOLATIONS: usize = 64;

/// Relative tolerance for float comparisons against engine-computed values.
const REL_TOL: f64 = 1e-9;

/// A detected invariant violation.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// The simulation clock moved backwards.
    TimeRegression {
        /// Clock before the event, nanoseconds.
        prev_ns: u64,
        /// Clock after the event, nanoseconds.
        now_ns: u64,
    },
    /// Active flows were allocated more than a resource's capacity.
    OverAllocation {
        /// Resource index (links first, then aggregate policers).
        resource: usize,
        /// Sum of allocated rates crossing the resource, bytes/sec.
        used: f64,
        /// Effective capacity, bytes/sec.
        cap: f64,
        /// When, nanoseconds.
        at_ns: u64,
    },
    /// A flow's rate deviates from the independent max-min recomputation.
    UnfairAllocation {
        /// Flow id.
        flow: u64,
        /// Engine-allocated rate, bytes/sec.
        got: f64,
        /// Independently recomputed fair rate, bytes/sec.
        want: f64,
        /// When, nanoseconds.
        at_ns: u64,
    },
    /// A delivered flow's rate integral does not match its payload size.
    ByteConservation {
        /// Flow id.
        flow: u64,
        /// Payload the engine reported delivered.
        reported: u64,
        /// Shadow-ledger integral of rate over time, bytes.
        integrated: f64,
        /// When, nanoseconds.
        at_ns: u64,
    },
    /// The incremental allocator's rates parted from a fresh reference
    /// allocation over the same state. A full audit runs the allocator
    /// lockstep (`netsim::flow::FlowCore::enable_lockstep`), which compares
    /// every incremental reallocation bit for bit with `max_min_allocate`;
    /// the engine guarantees the two are bitwise-identical, so any
    /// disagreement is an allocator bug.
    AllocatorDivergence {
        /// Reallocations the allocator had made, this one included.
        realloc: u64,
        /// The smallest flow id whose rate differs.
        flow: u64,
        /// Its incremental rate, bytes/sec.
        got: f64,
        /// The reference rate, bytes/sec.
        want: f64,
    },
    /// The eager per-event progress sweep's stepped ledger left the lazy
    /// closed form by more than 1e-6 of a flow's size. A full audit runs
    /// the sweep in lockstep (`netsim::engine::ProgressMode::Eager`), so
    /// any disagreement is a progress-accounting bug.
    ProgressDivergence {
        /// Flow id.
        flow: u64,
        /// The clock step at which they parted, nanoseconds.
        at_ns: u64,
        /// Remaining bytes by the stepped `remaining -= rate*dt` ledger.
        stepped: f64,
        /// Remaining bytes by the lazy closed form.
        lazy: f64,
    },
    /// The precomputed route oracle and the per-query reference Dijkstra
    /// answered a route query differently. A full audit compares every
    /// query in lockstep (`netsim::engine::Sim::enable_lockstep`);
    /// both backends implement the same canonical
    /// smaller-predecessor-at-settlement tie-break (see `netsim::oracle`),
    /// so any disagreement is a routing bug.
    RoutingDivergence {
        /// Source node id of the first query they disagree on.
        src: u32,
        /// Destination node id of that query.
        dst: u32,
    },
    /// The sharded executor produced a different execution from the
    /// sequential fold over the same cells. Both paths run identical cell
    /// simulations and reduce them in cell-id order, and the sharded run
    /// executes every cell again on a fresh worker thread, so any
    /// divergence means a nondeterministic order (thread scheduling,
    /// completion order, slot assignment) or state left over from an
    /// earlier run leaked into the result. This is the same-seed
    /// determinism check.
    ShardDivergence {
        /// Worker-thread count of the sharded run.
        workers: u32,
        /// Chain digest of the sequential execution.
        sequential: u64,
        /// Chain digest under the sharded executor.
        sharded: u64,
    },
    /// The route plane served a decision whose bits differ from a fresh
    /// source computation at the current generation (with breaker demotion
    /// applied). The cache guarantees warm, refreshed and demoted serves
    /// are all bit-identical to computing from scratch, so any divergence
    /// is a staleness, publication or demotion bug in `routeplane`.
    PlaneDivergence {
        /// Packed decision key (`routeplane::DecisionKey::pack`).
        key: u64,
        /// Current generation the fresh decision was computed at.
        generation: u64,
        /// Bits of the decision the plane served.
        served: u64,
        /// Bits of the freshly computed decision.
        fresh: u64,
    },
    /// The engine returned an error running the scenario.
    EngineError {
        /// The error's display form.
        message: String,
    },
    /// A chaotic upload session failed to settle within the termination
    /// bound derived from its retry budget or deadline (see
    /// [`crate::scenario::ChaosSpec`]): the resilience layer let it spin.
    DeadlineOverrun {
        /// Index of the chaos session within the spec.
        session: u32,
        /// The bound the session had to settle by, ms after its start.
        bound_ms: u64,
        /// When it actually settled, ms after its start.
        settled_ms: u64,
    },
    /// A delta applied at the sync relay did not reconstruct the client's
    /// file byte-for-byte (MD5 whole-file check after patching): the
    /// signature/delta/patch pipeline corrupted data in flight.
    SyncIntegrity {
        /// Index of the sync session within the spec.
        session: u32,
        /// File index within the session's population.
        file: u32,
        /// Sync pass (0 = initial replication, then mutation rounds).
        round: u32,
    },
    /// The health trace built directly from an execution's telemetry
    /// recording ([`obs::Trace::from_recording`]) differs from the trace
    /// parsed back from that recording's JSONL export. The two must be
    /// equal, so a scoreboard built live matches one built from the file.
    TraceRoundTrip {
        /// Where the two traces first differ, or why the export did not
        /// parse.
        detail: String,
    },
    /// The cache-enabled and cache-bypass executions of a sync scenario
    /// delivered different final file bytes at the relay. The chunk store
    /// only re-prices the forward leg — it must never change *what* is
    /// delivered — so any content divergence is a dedup bug.
    ChunkDivergence {
        /// Content digest of the cache-enabled execution's delivered files.
        cached: u64,
        /// Content digest of the cache-bypass execution's delivered files.
        bypass: u64,
    },
}

impl Violation {
    /// Stable machine-readable kind tag (for JSON verdicts).
    pub fn kind(&self) -> &'static str {
        match self {
            Violation::TimeRegression { .. } => "time_regression",
            Violation::OverAllocation { .. } => "over_allocation",
            Violation::UnfairAllocation { .. } => "unfair_allocation",
            Violation::ByteConservation { .. } => "byte_conservation",
            Violation::AllocatorDivergence { .. } => "allocator_divergence",
            Violation::ProgressDivergence { .. } => "progress_divergence",
            Violation::RoutingDivergence { .. } => "routing_divergence",
            Violation::ShardDivergence { .. } => "shard_divergence",
            Violation::PlaneDivergence { .. } => "plane_divergence",
            Violation::EngineError { .. } => "engine_error",
            Violation::DeadlineOverrun { .. } => "deadline_overrun",
            Violation::SyncIntegrity { .. } => "sync_integrity",
            Violation::TraceRoundTrip { .. } => "trace_round_trip",
            Violation::ChunkDivergence { .. } => "chunk_divergence",
        }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::TimeRegression { prev_ns, now_ns } => {
                write!(f, "clock ran backwards: {prev_ns}ns -> {now_ns}ns")
            }
            Violation::OverAllocation {
                resource,
                used,
                cap,
                at_ns,
            } => write!(
                f,
                "resource {resource} over-allocated at {at_ns}ns: {used:.1} B/s > cap {cap:.1} B/s"
            ),
            Violation::UnfairAllocation {
                flow,
                got,
                want,
                at_ns,
            } => write!(
                f,
                "flow {flow} unfair at {at_ns}ns: got {got:.1} B/s, max-min says {want:.1} B/s"
            ),
            Violation::ByteConservation {
                flow,
                reported,
                integrated,
                at_ns,
            } => write!(
                f,
                "flow {flow} byte conservation at {at_ns}ns: reported {reported} B, integral {integrated:.1} B"
            ),
            Violation::AllocatorDivergence {
                realloc,
                flow,
                got,
                want,
            } => write!(
                f,
                "reallocation {realloc}: incremental allocator gave flow {flow} {got} B/s, reference allocator {want} B/s"
            ),
            Violation::ProgressDivergence {
                flow,
                at_ns,
                stepped,
                lazy,
            } => write!(
                f,
                "flow {flow} at {at_ns}ns: eager progress ledger has {stepped} B left, lazy closed form {lazy} B"
            ),
            Violation::RoutingDivergence { src, dst } => write!(
                f,
                "route oracle and reference Dijkstra disagree on the route from node {src} to node {dst}"
            ),
            Violation::ShardDivergence {
                workers,
                sequential,
                sharded,
            } => write!(
                f,
                "sharded executor ({workers} workers) diverged from sequential: {sequential:#018x} vs {sharded:#018x}"
            ),
            Violation::PlaneDivergence {
                key,
                generation,
                served,
                fresh,
            } => write!(
                f,
                "route plane served key {key:#x} at generation {generation} with bits {served:#018x}, fresh compute says {fresh:#018x}"
            ),
            Violation::EngineError { message } => write!(f, "engine error: {message}"),
            Violation::DeadlineOverrun {
                session,
                bound_ms,
                settled_ms,
            } => write!(
                f,
                "chaos session {session} settled {settled_ms}ms after start, past its {bound_ms}ms termination bound"
            ),
            Violation::SyncIntegrity {
                session,
                file,
                round,
            } => write!(
                f,
                "sync session {session} file {file} round {round}: applied delta does not reconstruct the source bytes"
            ),
            Violation::TraceRoundTrip { detail } => write!(
                f,
                "direct health trace differs from its JSONL round trip: {detail}"
            ),
            Violation::ChunkDivergence { cached, bypass } => write!(
                f,
                "cache-enabled vs cache-bypass sync delivered different bytes: {cached:#018x} vs {bypass:#018x}"
            ),
        }
    }
}

/// Shadow per-flow ledger entry.
#[derive(Debug, Clone, Copy, Default)]
struct ShadowFlow {
    /// Rate as of the previous event (0 once the flow drains).
    rate: f64,
    /// Integral of rate over time so far, bytes.
    integrated: f64,
}

/// The fairness oracle's last [`max_min_allocate`] run: its inputs — the
/// resource capacities and each active flow's id and entry, in id order —
/// and the allocation they gave.
#[derive(Debug, Default)]
struct FairnessMemo {
    caps: Vec<f64>,
    ids: Vec<u64>,
    entries: Vec<AllocEntry>,
    want: Vec<f64>,
}

impl FairnessMemo {
    /// The reference allocation for the active ones of `flows` (sorted by
    /// id): the kept one when the inputs equal the last run's bit for bit,
    /// a fresh run otherwise. A fresh run refills the kept inputs in place.
    fn want(&mut self, caps: &[f64], flows: &[AuditFlow<'_>]) -> &[f64] {
        if !self.holds(caps, flows) {
            self.caps.clear();
            self.caps.extend_from_slice(caps);
            let active = flows.iter().filter(|f| f.active);
            self.ids.clear();
            self.ids.extend(active.clone().map(|f| f.id));
            self.entries.resize_with(self.ids.len(), || AllocEntry {
                resources: Vec::new(),
                cap: 0.0,
                weight: 0.0,
            });
            for (e, f) in self.entries.iter_mut().zip(active) {
                e.resources.clear();
                e.resources.extend_from_slice(f.resources);
                e.cap = f.cap;
                e.weight = f.weight;
            }
            self.want = max_min_allocate(caps, &self.entries);
        }
        &self.want
    }

    /// Are these the inputs of the kept run?
    fn holds(&self, caps: &[f64], flows: &[AuditFlow<'_>]) -> bool {
        let bits_eq = |a: f64, b: f64| a.to_bits() == b.to_bits();
        let mut active = flows.iter().filter(|f| f.active);
        self.caps.len() == caps.len()
            && self.caps.iter().zip(caps).all(|(&a, &b)| bits_eq(a, b))
            && self.ids.iter().zip(&self.entries).all(|(&id, e)| {
                active.next().is_some_and(|f| {
                    id == f.id
                        && bits_eq(e.cap, f.cap)
                        && bits_eq(e.weight, f.weight)
                        && e.resources == f.resources
                })
            })
            && active.next().is_none()
    }
}

#[derive(Debug, Default)]
struct OracleState {
    violations: Vec<Violation>,
    /// Running chain of post-event state digests.
    chain: u64,
    events_seen: u64,
    prev_now_ns: u64,
    /// The byte-conservation ledger: one entry per flow the engine knows,
    /// sorted by flow id like [`AuditView::flows`].
    shadow: Vec<(u64, ShadowFlow)>,
    /// The ledger being rebuilt, swapped with `shadow` after each event.
    shadow_next: Vec<(u64, ShadowFlow)>,
    /// `flow_delivered` notifications buffered until the next `after_event`
    /// (the hook callback fires mid-dispatch, before time has advanced past
    /// the delivery instant is accounted for).
    delivered: Vec<(u64, u64, SimTime)>,
    fairness: FairnessMemo,
    /// The flows of the event being checked; empty between events.
    flows: Vec<AuditFlow<'static>>,
    /// Per-resource sums of the active rates.
    used: Vec<f64>,
}

impl OracleState {
    fn push(&mut self, v: Violation) {
        push_capped(&mut self.violations, v);
    }
}

/// Keep `v` unless [`MAX_VIOLATIONS`] are kept already.
fn push_capped(violations: &mut Vec<Violation>, v: Violation) {
    if violations.len() < MAX_VIOLATIONS {
        violations.push(v);
    }
}

/// `flows` emptied, as a list of flows of any other view: the in-place
/// `collect` of an emptied `Vec` keeps its allocation (the element types
/// differ only in lifetime), so the oracle's flow list is allocated once,
/// not per event.
fn recycle<'b>(mut flows: Vec<AuditFlow<'_>>) -> Vec<AuditFlow<'b>> {
    flows.clear();
    flows
        .into_iter()
        .map(|_| -> AuditFlow<'b> { unreachable!("the list is empty") })
        .collect()
}

/// Shared handle for reading oracle results after the run; the matching
/// [`InvariantOracle`] is boxed into the engine as its audit hook.
#[derive(Clone)]
pub struct OracleHandle {
    state: Rc<RefCell<OracleState>>,
}

impl OracleHandle {
    /// Violations detected so far (truncated at an internal cap).
    pub fn violations(&self) -> Vec<Violation> {
        self.state.borrow().violations.clone()
    }

    /// True if any invariant fired.
    pub fn violated(&self) -> bool {
        !self.state.borrow().violations.is_empty()
    }

    /// Record an externally detected violation (engine error, lockstep
    /// divergence, session failures).
    pub fn push(&self, v: Violation) {
        self.state.borrow_mut().push(v);
    }

    /// The execution's chained state digest.
    pub fn chain_digest(&self) -> u64 {
        self.state.borrow().chain
    }

    /// Events audited.
    pub fn events_seen(&self) -> u64 {
        self.state.borrow().events_seen
    }
}

/// The audit hook: install with `sim.set_audit_hook(Box::new(oracle))`.
pub struct InvariantOracle {
    state: Rc<RefCell<OracleState>>,
    /// Check the four invariants; when false, only fold the chain digest.
    checks: bool,
}

impl InvariantOracle {
    /// Create an oracle and the handle used to read its findings back.
    pub fn new() -> (InvariantOracle, OracleHandle) {
        Self::with_checks(true)
    }

    /// The digest-only form of the oracle: it folds the identical chain
    /// digest and counts events, but checks none of the four invariants.
    /// For a re-execution whose only compared output is the chain digest.
    /// Violations pushed through the handle are still kept.
    pub(crate) fn digest_only() -> (InvariantOracle, OracleHandle) {
        Self::with_checks(false)
    }

    fn with_checks(checks: bool) -> (InvariantOracle, OracleHandle) {
        let state = Rc::new(RefCell::new(OracleState::default()));
        (
            InvariantOracle {
                state: Rc::clone(&state),
                checks,
            },
            OracleHandle { state },
        )
    }
}

impl AuditHook for InvariantOracle {
    fn after_event(&mut self, view: &AuditView<'_>) {
        let mut st = self.state.borrow_mut();
        let st = &mut *st;
        if self.checks {
            check_invariants(st, view);
        }
        // Determinism chain: fold this event's digest into the running hash.
        let mut d = Digest::new();
        d.write_u64(st.chain);
        d.write_u64(view.state_digest());
        d.write_time(view.now());
        st.chain = d.finish();
        st.events_seen += 1;
    }

    fn flow_delivered(&mut self, flow: u64, bytes: u64, now: SimTime) {
        if self.checks {
            self.state.borrow_mut().delivered.push((flow, bytes, now));
        }
    }
}

/// The four invariants over the state after one event.
fn check_invariants(st: &mut OracleState, view: &AuditView<'_>) {
    let now_ns = view.now().as_nanos();

    // 1. Monotonicity.
    if now_ns < st.prev_now_ns {
        st.push(Violation::TimeRegression {
            prev_ns: st.prev_now_ns,
            now_ns,
        });
    }

    // 4a. Advance the shadow ledger across the elapsed interval using
    // the rates that held *before* this event — the same
    // piecewise-constant fluid model the engine integrates.
    let dt = (now_ns.saturating_sub(st.prev_now_ns)) as f64 * 1e-9;
    if dt > 0.0 {
        for (_, s) in &mut st.shadow {
            s.integrated += s.rate * dt;
        }
    }
    st.prev_now_ns = now_ns;

    // 4b. Settle flows the engine reported delivered during this event.
    for (flow, bytes, at) in st.delivered.drain(..) {
        let integrated = match st.shadow.binary_search_by_key(&flow, |&(id, _)| id) {
            Ok(i) => st.shadow.remove(i).1.integrated,
            Err(_) => 0.0,
        };
        let tol = (bytes as f64 * 1e-6).max(64.0);
        if (integrated - bytes as f64).abs() > tol {
            push_capped(
                &mut st.violations,
                Violation::ByteConservation {
                    flow,
                    reported: bytes,
                    integrated,
                    at_ns: at.as_nanos(),
                },
            );
        }
    }

    let mut flows = recycle(std::mem::take(&mut st.flows));
    view.flows_into(&mut flows);
    let caps = view.resource_capacities();

    // 2. Capacity: sum active rates per resource.
    st.used.clear();
    st.used.resize(caps.len(), 0.0);
    for f in flows.iter().filter(|f| f.active) {
        for &r in f.resources {
            if let Some(u) = st.used.get_mut(r as usize) {
                *u += f.rate;
            }
        }
    }
    for (r, (&u, &cap)) in st.used.iter().zip(caps).enumerate() {
        // Absolute slack of 1 byte/sec plus a relative term: the engine
        // sums the same f64s, so genuine bugs overshoot by far more.
        if u > cap + cap.abs() * REL_TOL + 1.0 {
            push_capped(
                &mut st.violations,
                Violation::OverAllocation {
                    resource: r,
                    used: u,
                    cap,
                    at_ns: now_ns,
                },
            );
        }
    }

    // 3. Fairness: recompute the allocation from the same inputs in the
    // same (sorted-by-id) order the engine uses — or reuse the last
    // recompute when the inputs have not changed — and compare every
    // active flow's rate with it.
    let want = st.fairness.want(caps, &flows);
    for (f, &w) in flows.iter().filter(|f| f.active).zip(want) {
        if (f.rate - w).abs() > w.abs().max(1.0) * REL_TOL.max(1e-9) + 1.0 {
            push_capped(
                &mut st.violations,
                Violation::UnfairAllocation {
                    flow: f.id,
                    got: f.rate,
                    want: w,
                    at_ns: now_ns,
                },
            );
        }
    }

    // 4c. Refresh the shadow rates for the next interval: one entry per
    // flow, merged in id order with the old ledger, whose integrals carry
    // over; flows that left drop out. Inactive flows (drained, awaiting
    // their Delivered event) keep a stale engine-side rate; they no longer
    // move bytes, so shadow at 0.
    let mut next = std::mem::take(&mut st.shadow_next);
    next.clear();
    let mut old = st.shadow.iter().peekable();
    for f in &flows {
        while old.next_if(|&&(id, _)| id < f.id).is_some() {}
        let integrated = old
            .next_if(|&&(id, _)| id == f.id)
            .map_or(0.0, |(_, s)| s.integrated);
        let rate = if f.active { f.rate } else { 0.0 };
        next.push((f.id, ShadowFlow { rate, integrated }));
    }
    st.shadow_next = std::mem::replace(&mut st.shadow, next);
    st.flows = recycle(flows);
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::prelude::*;

    fn two_host_world() -> (Topology, NodeId, NodeId) {
        let mut b = TopologyBuilder::new();
        let a = b.host("a", GeoPoint::new(49.0, -123.0));
        let r = b.router("r", GeoPoint::new(45.0, -100.0));
        let z = b.host("z", GeoPoint::new(37.0, -122.0));
        b.duplex(
            a,
            r,
            LinkParams::new(Bandwidth::from_mbps(40.0), SimTime::from_millis(5)),
        );
        b.duplex(
            r,
            z,
            LinkParams::new(Bandwidth::from_mbps(20.0), SimTime::from_millis(5)),
        );
        (b.build(), a, z)
    }

    #[test]
    fn clean_transfer_has_no_violations() {
        let (topo, a, z) = two_host_world();
        let mut sim = Sim::new(topo, 11);
        let (oracle, handle) = InvariantOracle::new();
        sim.set_audit_hook(Box::new(oracle));
        sim.run_transfer(TransferRequest::new(a, z, 4 * MB))
            .unwrap();
        assert_eq!(
            handle.violations(),
            vec![],
            "clean run must be violation-free"
        );
        assert!(handle.events_seen() > 0);
        assert_ne!(handle.chain_digest(), 0);
    }

    #[test]
    fn chain_digest_is_reproducible() {
        let run = || {
            let (topo, a, z) = two_host_world();
            let mut sim = Sim::new(topo, 7);
            let (oracle, handle) = InvariantOracle::new();
            sim.set_audit_hook(Box::new(oracle));
            sim.run_transfer(TransferRequest::new(a, z, 2 * MB))
                .unwrap();
            handle.chain_digest()
        };
        assert_eq!(run(), run());
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn inflated_rates_are_caught() {
        let (topo, a, z) = two_host_world();
        let mut sim = Sim::new(topo, 11);
        sim.inject_rate_inflation(1.5);
        let (oracle, handle) = InvariantOracle::new();
        sim.set_audit_hook(Box::new(oracle));
        sim.run_transfer(TransferRequest::new(a, z, 4 * MB))
            .unwrap();
        let vs = handle.violations();
        assert!(
            vs.iter()
                .any(|v| matches!(v, Violation::OverAllocation { .. })),
            "expected an over-allocation violation, got {vs:?}"
        );
    }
}
