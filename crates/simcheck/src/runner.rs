//! Scenario execution: build the world a [`ScenarioSpec`] describes, run it
//! under the invariant oracle, and (for checking) run it once more under
//! the sharded executor at [`SHARD_WORKER_COUNTS`], whose chained digest
//! must be bit-identical to the first — two executions per case, three for
//! a sync case, which adds a chunk-store bypass run. The executions and the
//! plane-coherence differential share no state, so [`check_case`] runs them
//! side by side: the first on the calling thread, the others on scoped
//! threads, with the verdict assembled in a fixed order.
//!
//! Each execution does only the work its verdict reads. The first
//! execution and the chunk-bypass run are *full audits*: every per-event
//! invariant; the reference allocator, routing and progress backends run
//! in lockstep with the production ones (`Sim::enable_lockstep`), reported
//! as [`Violation::AllocatorDivergence`], [`Violation::RoutingDivergence`]
//! and [`Violation::ProgressDivergence`] at the reallocation, route query
//! or clock step where they part; and a check that the health trace built
//! directly from the telemetry recording equals the one its JSONL export
//! parses back to ([`Violation::TraceRoundTrip`]). The lockstep only reads
//! engine state, so it leaves every digest as it is. The sharded
//! re-execution is *digest-only*: it folds the identical chain — the same
//! per-event state digests and the same directly built health trace — and
//! skips the checks, whose findings [`check_case`] would not read. It runs
//! every cell again on a fresh worker thread, so it is also the same-seed
//! determinism check. The public [`run_once`] and [`run_sharded`] always
//! run the full audit.
//!
//! A scenario is a list of independent *cells* ([`ScenarioSpec::cells`]):
//! single-replica scenarios are one cell, replicated ones are several.
//! [`run_once`] folds the cells sequentially; [`run_sharded`] runs the same
//! cells on worker threads via [`netsim::shard::run_shards`] and reduces
//! them in cell-id order. The two must agree bit for bit — that is the
//! shard-divergence oracle.

use crate::oracle::{InvariantOracle, OracleHandle, Violation};
use crate::scenario::{ScenarioSpec, TopoSpec};
use cloudstore::{FaultPlan, Provider, ProviderKind, RetryPolicy, UploadOptions, UploadSession};
use netsim::background::{BackgroundProfile, BackgroundTraffic};
use netsim::engine::{Ctx, Divergences, Event, Process, ProcessId, ProgressMode, Sim, Value};
use netsim::flow::{FlowClass, FlowSpec};
use netsim::geo::GeoPoint;
use netsim::synth::SynthWan;
use netsim::time::SimTime;
use netsim::topology::{LinkId, LinkParams, NodeId, Topology, TopologyBuilder};
use netsim::units::Bandwidth;
use relay::ChunkStore;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;
use transfer::chunk::ChunkManifest;
use transfer::delta::{compute_delta, Delta, DeltaOp};
use transfer::patch::apply_delta;
use transfer::signature::Signature;
use transfer::syncpop::{MutationMix, SyncPopulation, SyncPopulationConfig};
use transfer::wire::RsyncWirePlan;

/// Livelock guard: no generated scenario comes near this many events.
const EVENT_BUDGET: u64 = 2_000_000;

/// Transfer slack added to every chaos-session termination bound: covers
/// the payload's own (possibly contended) wire time plus control RPCs,
/// far above anything a generated chaos case can legitimately need.
const CHAOS_SLACK: SimTime = SimTime::from_secs(600);

/// Knobs for a check run.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOptions {
    /// Post-allocation rate multiplier injected into the engine to prove
    /// the oracles catch a broken allocator. `None` = faithful engine.
    /// Requires the `failpoints` feature; silently ignored without it.
    pub rate_inflation: Option<f64>,
    /// Make the reference routing backend break equal-cost ties by the
    /// largest predecessor id instead of the smallest, to prove the
    /// [`Violation::RoutingDivergence`] oracle catches backends that
    /// disagree. The production oracle is untouched, so it changes what a
    /// full audit's routing lockstep compares against, and under
    /// `reference_routing` the route every flow takes. Requires the
    /// `failpoints` feature; silently ignored without it.
    pub largest_predecessor: bool,
    /// Nudge one rate of every waterfilled component of three or more
    /// flows by one ulp, to prove the allocator lockstep
    /// ([`Violation::AllocatorDivergence`]) catches a bitwise difference
    /// the 1e-9 fairness tolerance cannot. Requires the `failpoints`
    /// feature; silently ignored without it.
    pub nudge_rate_ulp: bool,
    /// Make every flow's lazy closed form move 1% more bytes per interval
    /// than its rate allows, to prove the progress lockstep
    /// ([`Violation::ProgressDivergence`]) catches a progress-accounting
    /// bug. Requires the `failpoints` feature; silently ignored without it.
    pub skew_lazy_progress: bool,
    /// Run under the reference (full-recompute) allocator instead of the
    /// incremental one; both produce identical chained digests.
    /// [`check_case`] compares the two inside its full audit instead.
    pub reference_allocator: bool,
    /// Run with the eager per-event progress sweep (the legacy accounting,
    /// kept as an oracle) instead of lazy materialization; both produce
    /// identical chained digests. A full audit's lockstep runs the sweep
    /// anyway, so the flag only changes a run whose lockstep is off (a
    /// digest-only one).
    pub eager_progress: bool,
    /// Route with the per-query reference Dijkstra instead of the
    /// precomputed route oracle; both produce identical chained digests.
    /// [`check_case`] compares the two inside its full audit instead.
    pub reference_routing: bool,
    /// Record telemetry and fold the derived health-plane state (route
    /// scoreboard, window flushes) into the chained digest, extending the
    /// determinism oracle over the aggregation layer. [`check_case`]
    /// forces this on for every execution.
    pub health: bool,
    /// Run sync sessions with the relay chunk store bypassed: every leg is
    /// priced as if the cache were cold and nothing is ever admitted.
    /// [`check_case`] uses this for the chunk differential — cached and
    /// bypass executions take different wire paths but must deliver
    /// byte-identical final files ([`RunOutcome::sync_digest`]).
    pub chunk_bypass: bool,
    /// Flip the first literal byte of every sync leg's delta after the leg
    /// is priced, to prove the [`Violation::SyncIntegrity`] oracle catches
    /// a corrupted transfer. Requires the `failpoints` feature; silently
    /// ignored without it.
    pub corrupt_sync_literal: bool,
    /// Flip one byte of each sync session's delivered files after its last
    /// leg's integrity check, only when a chunk store is attached, so the
    /// cached execution delivers a byte the bypass execution does not.
    /// Proves the [`Violation::ChunkDivergence`] oracle fires. Requires the
    /// `failpoints` feature; silently ignored without it.
    pub corrupt_cached_delivery: bool,
    /// Make a cell's outcome depend on its thread: under [`run_sharded`],
    /// a cell that ran on a worker rather than on the calling thread
    /// reports an inverted chain digest. Proves the
    /// [`Violation::ShardDivergence`] oracle catches a thread-dependent
    /// execution. Requires the `failpoints` feature; silently ignored
    /// without it.
    pub thread_dependent_cells: bool,
}

/// What one execution of a scenario produced.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Invariant violations the oracle detected.
    pub violations: Vec<Violation>,
    /// Chained per-event state digest (determinism fingerprint).
    pub chain_digest: u64,
    /// Events processed.
    pub events: u64,
    /// Foreground jobs that completed.
    pub jobs_completed: u64,
    /// Payload bytes the engine reported delivered (includes background).
    pub bytes_delivered: u64,
    /// Digest of the health-plane state (scoreboard + window flushes) when
    /// [`RunOptions::health`] was set; folded into `chain_digest`.
    pub health_digest: Option<u64>,
    /// Merged flow-delivery duration sketch (the engine's
    /// `netsim.flow.duration_ns` window series) when [`RunOptions::health`]
    /// was set. Cross-cell reduction uses the sketch's commutative-monoid
    /// merge, so sequential and sharded runs produce identical bytes.
    pub delivery: Option<obs::QuantileSketch>,
    /// Digest of the final file bytes every sync session delivered at its
    /// relay, folded in session-index order (`Some` iff the spec has sync
    /// sessions). Depends only on the mutation seeds, never on wire timing,
    /// so cache-enabled and cache-bypass executions must agree — that is
    /// the [`Violation::ChunkDivergence`] differential.
    pub sync_digest: Option<u64>,
}

/// Result of checking one scenario with [`check_case`]: a full audit, a
/// sharded re-execution, and for sync cases a chunk-bypass run.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// The scenario that was run.
    pub spec: ScenarioSpec,
    /// All violations: the first execution's (lockstep divergences
    /// included), a shard divergence if the sharded digest differs, plus
    /// the chunk-bypass run's own and the plane-coherence check's.
    pub violations: Vec<Violation>,
    /// Chained state digest of the first execution.
    pub chain_digest: u64,
    /// Events processed by the first execution.
    pub events: u64,
    /// Jobs completed by the first execution.
    pub jobs_completed: u64,
}

impl CaseResult {
    /// Did every invariant hold?
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The built world: topology plus the host list scenario indices refer to.
/// The sim shares the topology rather than copying it.
struct World {
    topo: Arc<Topology>,
    hosts: Vec<NodeId>,
}

fn build_world(topo: &TopoSpec) -> World {
    match *topo {
        TopoSpec::Synth {
            transit,
            stubs,
            hosts,
            core_mbps,
            access_lo_mbps,
            access_hi_mbps,
            topo_seed,
        } => {
            let w = SynthWan {
                transit: transit as usize,
                stubs: stubs as usize,
                hosts: hosts as usize,
                core_mbps: core_mbps as f64,
                access_mbps: (access_lo_mbps as f64, access_hi_mbps as f64),
                seed: topo_seed,
            }
            .build();
            World {
                topo: Arc::new(w.topo),
                hosts: w.hosts,
            }
        }
        TopoSpec::Star { hosts, access_mbps } => {
            let mut b = TopologyBuilder::new();
            let hub = b.router("hub", GeoPoint::new(45.0, -100.0));
            let spokes: Vec<NodeId> = (0..hosts)
                .map(|i| {
                    let h = b.host(
                        &format!("host{i}"),
                        GeoPoint::new(30.0 + i as f64, -120.0 + i as f64),
                    );
                    b.duplex(
                        h,
                        hub,
                        LinkParams::new(
                            Bandwidth::from_mbps(access_mbps as f64),
                            SimTime::from_millis(2),
                        ),
                    );
                    h
                })
                .collect();
            World {
                topo: Arc::new(b.build()),
                hosts: spokes,
            }
        }
    }
}

/// A concrete foreground job with spec indices resolved to nodes.
struct ResolvedJob {
    src: NodeId,
    dst: NodeId,
    via: Option<NodeId>,
    bytes: u64,
    class: FlowClass,
    weight: f64,
    start: SimTime,
}

fn resolve_hosts(spec: &ScenarioSpec, hosts: &[NodeId]) -> Vec<ResolvedJob> {
    let n = hosts.len() as u32;
    spec.jobs
        .iter()
        .map(|j| {
            let src = j.src % n;
            let mut dst = j.dst % n;
            if dst == src {
                dst = (dst + 1) % n;
            }
            let via = j.via.map(|v| v % n).filter(|&v| v != src && v != dst);
            ResolvedJob {
                src: hosts[src as usize],
                dst: hosts[dst as usize],
                via: via.map(|v| hosts[v as usize]),
                bytes: j.bytes,
                class: match j.class % 4 {
                    0 => FlowClass::Commodity,
                    1 => FlowClass::Research,
                    2 => FlowClass::PlanetLab,
                    _ => FlowClass::Background,
                },
                weight: j.weight_pct as f64 / 100.0,
                start: SimTime::from_millis(j.start_ms),
            }
        })
        .collect()
}

/// A concrete chaos session with spec indices resolved to nodes and the
/// fault plan / retry policy / termination bound precomputed.
struct ResolvedChaos {
    client: NodeId,
    provider: Provider,
    bytes: u64,
    policy: RetryPolicy,
    start: SimTime,
    /// Settle-by bound, measured from the session's start.
    bound: SimTime,
}

fn resolve_chaos(spec: &ScenarioSpec, hosts: &[NodeId]) -> Vec<ResolvedChaos> {
    let n = hosts.len() as u32;
    spec.chaos
        .iter()
        .map(|c| {
            let client = c.client % n;
            let mut frontend = c.frontend % n;
            if frontend == client {
                frontend = (frontend + 1) % n;
            }
            let plan = FaultPlan {
                throttle_prob: c.throttle_pct as f64 / 100.0,
                transient_prob: c.transient_pct as f64 / 100.0,
                retry_after: SimTime::from_millis(c.retry_after_ms),
                ..FaultPlan::none()
            };
            let mut policy = RetryPolicy::from_plan(&plan);
            if c.deadline_ms > 0 {
                policy = policy.with_deadline(SimTime::from_millis(c.deadline_ms));
            }
            // Termination bound. With a deadline, every allowed retry wait
            // resumes by the deadline, so the session settles within
            // deadline + transfer slack. Without one, the retry budget caps
            // the number of waits and each wait is at most
            // max(retry_after, jittered max backoff ≤ base·2⁴·1.25).
            let wait_cap_ms = c.retry_after_ms.max(500 * 20);
            let bound = if c.deadline_ms > 0 {
                SimTime::from_millis(c.deadline_ms) + CHAOS_SLACK
            } else {
                SimTime::from_millis((policy.budget as u64 + 1) * wait_cap_ms) + CHAOS_SLACK
            };
            ResolvedChaos {
                client: hosts[client as usize],
                provider: Provider::new(ProviderKind::Dropbox, hosts[frontend as usize])
                    .with_faults(plan),
                bytes: c.bytes,
                policy,
                start: SimTime::from_millis(c.start_ms),
                bound,
            }
        })
        .collect()
}

/// rsync block size every sync session uses. Small relative to the 4-32 KiB
/// generated files so deltas have real structure.
const SYNC_BLOCK_SIZE: usize = 1024;

/// Chunk size the relay store chunks manifests at. Smaller than the block
/// size would be pointless; 2 KiB gives a handful of chunks per file.
const SYNC_CHUNK_SIZE: usize = 2048;

/// Per-cell ledger the sync sessions deposit their final content digests
/// into: (session index, digest of delivered file bytes). Sorted by session
/// index before folding so completion order — which legitimately differs
/// between cached and bypass executions — cannot leak into the digest.
type SyncLedger = Rc<RefCell<Vec<(u32, u64)>>>;

/// A sync session ready to spawn: spec indices resolved to nodes, the
/// shared per-relay chunk store attached (`None` under
/// [`RunOptions::chunk_bypass`]).
struct ResolvedSync {
    session: u32,
    client: NodeId,
    relay: NodeId,
    files: usize,
    file_len: usize,
    rounds: u32,
    churny: bool,
    pop_seed: u64,
    start: SimTime,
    store: Option<Rc<RefCell<ChunkStore>>>,
    corrupt_literal: bool,
    corrupt_delivery: bool,
}

impl ResolvedSync {
    fn build(&self, oracle: OracleHandle, ledger: SyncLedger) -> SyncSession {
        let cfg = SyncPopulationConfig {
            files: self.files,
            file_len: self.file_len,
            mix: if self.churny {
                MutationMix::churny()
            } else {
                MutationMix::desktop()
            },
            max_edits: 16,
            max_append: 2048,
            max_rewrite: 4096,
        };
        SyncSession {
            session: self.session,
            client: self.client,
            relay: self.relay,
            rounds: self.rounds,
            pop: SyncPopulation::new(self.pop_seed, cfg),
            remote: vec![Vec::new(); self.files],
            store: self.store.clone(),
            ledger,
            oracle,
            pass: 0,
            file_idx: 0,
            pending: None,
            corrupt_literal: self.corrupt_literal,
            corrupt_delivery: self.corrupt_delivery,
        }
    }
}

/// Resolve the spec's sync sessions against the built host list and wire up
/// one shared chunk store per distinct relay host (sessions landing on the
/// same relay deduplicate against each other — the store's whole point).
/// Returns the sessions plus the stores in first-use order, the canonical
/// order their digests fold into the chain digest in.
fn resolve_sync(
    spec: &ScenarioSpec,
    hosts: &[NodeId],
    opts: RunOptions,
) -> (Vec<ResolvedSync>, Vec<Rc<RefCell<ChunkStore>>>) {
    let n = hosts.len() as u32;
    let mut by_relay: HashMap<u32, Rc<RefCell<ChunkStore>>> = HashMap::new();
    let mut store_order = Vec::new();
    let sync = spec
        .sync
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let client = s.client % n;
            let mut relay = s.relay % n;
            if relay == client {
                relay = (relay + 1) % n;
            }
            let store = if opts.chunk_bypass {
                None
            } else {
                Some(Rc::clone(by_relay.entry(relay).or_insert_with(|| {
                    // The first session landing on a relay sizes its store.
                    let st = Rc::new(RefCell::new(ChunkStore::new(s.cache_kb as u64 * 1024)));
                    store_order.push(Rc::clone(&st));
                    st
                })))
            };
            ResolvedSync {
                session: i as u32,
                client: hosts[client as usize],
                relay: hosts[relay as usize],
                files: s.files as usize,
                file_len: s.file_kb as usize * 1024,
                rounds: s.rounds,
                churny: s.churny,
                // Keyed by dataset id (shared ids seed identical content —
                // the cross-tenant dedup case) and namespaced well away
                // from the 0..replicas cell reseeds.
                pop_seed: crate::scenario::case_seed(spec.seed, 0x5e5e + s.dataset),
                start: SimTime::from_millis(s.start_ms),
                corrupt_delivery: cfg!(feature = "failpoints")
                    && opts.corrupt_cached_delivery
                    && store.is_some(),
                store,
                corrupt_literal: cfg!(feature = "failpoints") && opts.corrupt_sync_literal,
            }
        })
        .collect();
    (sync, store_order)
}

/// One delta-sync session: replicate the population to the relay (pass 0),
/// then advance it one mutation round per pass and rsync every file.
///
/// Each file leg runs the rsync algorithms once. When the leg starts, the
/// relay's basis is signed and the client's content is delta-encoded
/// against it, and the flow moves exactly the bytes that exchange costs:
/// [`RsyncWirePlan::of`] the signature and delta, with the delta leg
/// re-priced through the chunk store when one is attached. When the flow
/// lands, that same delta is *actually applied* to the relay's copy and
/// verified byte-for-byte ([`Violation::SyncIntegrity`] on mismatch), so
/// the delta that was priced is the delta that was verified. Finishes with
/// the digest of the delivered files.
struct SyncSession {
    session: u32,
    client: NodeId,
    relay: NodeId,
    rounds: u32,
    pop: SyncPopulation,
    /// Relay-side copies, updated as legs land.
    remote: Vec<Vec<u8>>,
    store: Option<Rc<RefCell<ChunkStore>>>,
    ledger: SyncLedger,
    oracle: OracleHandle,
    /// 0 = initial replication, then one mutation round per pass.
    pass: u32,
    file_idx: usize,
    /// The leg in flight, installed when its flow completes.
    pending: Option<PendingLeg>,
    /// Failpoint: corrupt every leg's delta after pricing it
    /// ([`RunOptions::corrupt_sync_literal`]).
    corrupt_literal: bool,
    /// Failpoint: flip a delivered byte after the last leg lands
    /// ([`RunOptions::corrupt_cached_delivery`]).
    corrupt_delivery: bool,
}

/// A file leg in flight.
struct PendingLeg {
    /// The client's content.
    local: Vec<u8>,
    /// The delta the leg was priced from, applied to the basis on landing.
    delta: Delta,
    /// Manifest to admit to the store once the bytes arrive.
    manifest: Option<ChunkManifest>,
}

impl SyncSession {
    /// Start the next file leg, or advance a round / finish when the pass
    /// is exhausted.
    fn kick(&mut self, ctx: &mut Ctx<'_>) {
        if self.file_idx >= self.pop.len() {
            self.file_idx = 0;
            self.pass += 1;
            if self.pass > self.rounds {
                if self.corrupt_delivery {
                    if let Some(byte) = self.remote.iter_mut().find_map(|f| f.first_mut()) {
                        *byte ^= 0xff;
                    }
                }
                let digest = content_digest(&self.remote);
                self.ledger.borrow_mut().push((self.session, digest));
                ctx.finish(Value::U64(digest));
                return;
            }
            self.pop.advance();
        }
        let f = self.file_idx;
        let local = self.pop.file(f).to_vec();
        let sig = Signature::compute(&self.remote[f], SYNC_BLOCK_SIZE);
        let mut delta = compute_delta(&sig, &local);
        let plan = RsyncWirePlan::of(&sig, &delta);
        let mut wire = plan.total_bytes();
        let mut manifest = None;
        if let Some(store) = &self.store {
            let m = ChunkManifest::of(&local, SYNC_CHUNK_SIZE);
            let dedup = store.borrow_mut().plan(&m);
            if dedup.wire_bytes < plan.delta_bytes {
                wire = wire - plan.delta_bytes + dedup.wire_bytes;
            }
            manifest = Some(m);
        }
        if self.corrupt_literal {
            if let Some(DeltaOp::Literal(bytes)) = delta
                .ops
                .iter_mut()
                .find(|op| matches!(op, DeltaOp::Literal(_)))
            {
                bytes[0] ^= 0xff;
            }
        }
        self.pending = Some(PendingLeg {
            local,
            delta,
            manifest,
        });
        let spec = FlowSpec::new(self.client, self.relay, wire.max(1), FlowClass::Commodity);
        if ctx.start_flow(spec).is_err() {
            self.oracle.push(Violation::EngineError {
                message: format!("sync session {} leg unroutable", self.session),
            });
            ctx.finish(Value::U64(0));
        }
    }

    /// A leg landed: apply its delta to the relay's basis and verify it
    /// reconstructs the client's bytes.
    fn land(&mut self, ctx: &mut Ctx<'_>) {
        let leg = self
            .pending
            .take()
            .expect("flow landed without a pending sync leg");
        let f = self.file_idx;
        let ok = matches!(
            apply_delta(&self.remote[f], SYNC_BLOCK_SIZE, &leg.delta), Ok(p) if p == leg.local
        );
        if !ok {
            self.oracle.push(Violation::SyncIntegrity {
                session: self.session,
                file: f as u32,
                round: self.pass,
            });
        }
        if let (Some(store), Some(m)) = (&self.store, &leg.manifest) {
            store.borrow_mut().admit(m);
        }
        self.remote[f] = leg.local;
        self.file_idx += 1;
        self.kick(ctx);
    }
}

impl Process for SyncSession {
    fn poll(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        match ev {
            Event::Started => self.kick(ctx),
            Event::FlowCompleted { .. } => self.land(ctx),
            Event::FlowFailed { .. } => {
                self.oracle.push(Violation::EngineError {
                    message: format!("sync session {} leg failed", self.session),
                });
                ctx.finish(Value::U64(0));
            }
            Event::Timer { .. } | Event::ChildDone { .. } => {}
        }
    }

    fn name(&self) -> &'static str {
        "simcheck-sync"
    }

    fn digest_into(&self, d: &mut netsim::audit::Digest) {
        d.write_u64(self.pass as u64);
        d.write_u64(self.file_idx as u64);
        d.write_u64(self.remote.iter().map(|f| f.len() as u64).sum());
        d.write_u64(self.pending.as_ref().map_or(0, |p| p.local.len() as u64));
    }
}

/// Digest of the relay-side file bytes a session delivered.
fn content_digest(remote: &[Vec<u8>]) -> u64 {
    let mut d = netsim::audit::Digest::new();
    d.write_u64(remote.len() as u64);
    for f in remote {
        d.write_u64(f.len() as u64);
        d.write_bytes(f);
    }
    d.finish()
}

/// Root process: starts every job, chaos session and sync session at its
/// scheduled time, finishes when all have completed or failed. Chaos
/// sessions are watched against their termination bounds; an overrun is
/// pushed straight into the oracle as a [`Violation::DeadlineOverrun`].
struct Driver {
    jobs: Vec<ResolvedJob>,
    chaos: Vec<ResolvedChaos>,
    sync: Vec<ResolvedSync>,
    ledger: SyncLedger,
    oracle: OracleHandle,
    /// Live chaos sessions: child pid → (index, started, bound).
    chaos_watch: HashMap<ProcessId, (u32, SimTime, SimTime)>,
    outstanding: u64,
    completed: u64,
}

impl Process for Driver {
    fn poll(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        match ev {
            Event::Started => {
                self.outstanding = (self.jobs.len() + self.chaos.len() + self.sync.len()) as u64;
                if self.outstanding == 0 {
                    ctx.finish(Value::U64(0));
                    return;
                }
                for (i, j) in self.jobs.iter().enumerate() {
                    ctx.set_timer(j.start, i as u64);
                }
                for (k, c) in self.chaos.iter().enumerate() {
                    ctx.set_timer(c.start, (self.jobs.len() + k) as u64);
                }
                for (k, s) in self.sync.iter().enumerate() {
                    ctx.set_timer(s.start, (self.jobs.len() + self.chaos.len() + k) as u64);
                }
            }
            Event::Timer { tag } if (tag as usize) < self.jobs.len() => {
                let j = &self.jobs[tag as usize];
                let mut spec = FlowSpec::new(j.src, j.dst, j.bytes, j.class).with_weight(j.weight);
                if let Some(via) = j.via {
                    // Pin the detour path src → via → dst, the relay routing
                    // the paper's detour system installs.
                    match (ctx.resolve_path(j.src, via), ctx.resolve_path(via, j.dst)) {
                        (Ok(mut head), Ok(tail)) => {
                            head.extend_from_slice(&tail[1..]);
                            spec = spec.with_path(head);
                        }
                        _ => {
                            // Unroutable detour: fall back to direct routing.
                        }
                    }
                }
                if ctx.start_flow(spec).is_err() {
                    self.settle_one(ctx, false);
                }
            }
            Event::Timer { tag } if (tag as usize) < self.jobs.len() + self.chaos.len() => {
                let k = tag as usize - self.jobs.len();
                let c = &self.chaos[k];
                let mut opts = UploadOptions::warm(FlowClass::Commodity);
                opts.retry = Some(c.policy);
                let session = UploadSession::new(c.client, c.provider.clone(), c.bytes, opts);
                let pid = ctx.spawn(Box::new(session));
                self.chaos_watch.insert(pid, (k as u32, ctx.now(), c.bound));
            }
            Event::Timer { tag } => {
                let k = tag as usize - self.jobs.len() - self.chaos.len();
                let session = self.sync[k].build(self.oracle.clone(), Rc::clone(&self.ledger));
                ctx.spawn(Box::new(session));
            }
            Event::FlowCompleted { .. } => self.settle_one(ctx, true),
            Event::FlowFailed { .. } => self.settle_one(ctx, false),
            Event::ChildDone { child, value } => {
                if let Some((idx, started, bound)) = self.chaos_watch.remove(&child) {
                    let settled = ctx.now().saturating_sub(started);
                    if settled > bound {
                        self.oracle.push(Violation::DeadlineOverrun {
                            session: idx,
                            bound_ms: bound.as_nanos() / 1_000_000,
                            settled_ms: settled.as_nanos() / 1_000_000,
                        });
                    }
                    let ok = !matches!(value, Value::Error(_));
                    self.settle_one(ctx, ok);
                } else {
                    // A sync session: integrity problems were already pushed
                    // into the oracle by the session itself.
                    self.settle_one(ctx, !matches!(value, Value::Error(_)));
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "simcheck-driver"
    }

    fn digest_into(&self, d: &mut netsim::audit::Digest) {
        d.write_u64(self.outstanding);
        d.write_u64(self.completed);
        d.write_u64(self.chaos_watch.len() as u64);
    }
}

impl Driver {
    fn settle_one(&mut self, ctx: &mut Ctx<'_>, ok: bool) {
        if ok {
            self.completed += 1;
        }
        self.outstanding -= 1;
        if self.outstanding == 0 {
            ctx.finish(Value::U64(self.completed));
        }
    }
}

/// Detached process driving one [`ChurnSpec`]: a serial chain of short
/// transfers, the next started one gap after the previous settles. Each
/// boundary reallocates the shared component and supersedes queued drain
/// events — live flow count stays at one while total rate changes grow.
struct ChurnGen {
    src: NodeId,
    dst: NodeId,
    bytes: u64,
    gap: SimTime,
    remaining: u32,
}

impl Process for ChurnGen {
    fn poll(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        match ev {
            Event::Started | Event::Timer { .. } => self.kick(ctx),
            Event::FlowCompleted { .. } | Event::FlowFailed { .. } => {
                if self.remaining == 0 {
                    ctx.finish(Value::None);
                } else {
                    // A zero gap still defers one event: back-to-back flow
                    // boundaries at distinct queue sequence numbers.
                    ctx.set_timer(self.gap, 0);
                }
            }
            Event::ChildDone { .. } => {}
        }
    }

    fn name(&self) -> &'static str {
        "simcheck-churn"
    }

    fn digest_into(&self, d: &mut netsim::audit::Digest) {
        d.write_u64(self.remaining as u64);
    }
}

impl ChurnGen {
    fn kick(&mut self, ctx: &mut Ctx<'_>) {
        if self.remaining == 0 {
            ctx.finish(Value::None);
            return;
        }
        self.remaining -= 1;
        let spec = FlowSpec::new(self.src, self.dst, self.bytes, FlowClass::Background);
        if ctx.start_flow(spec).is_err() {
            ctx.finish(Value::None);
        }
    }
}

/// How much checking an execution does besides folding its chain digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Audit {
    /// Every per-event invariant, the reference backends in lockstep, and
    /// the health trace round trip.
    Full,
    /// The chain digest and outcome only, for a re-execution whose
    /// verdict reads nothing else.
    DigestOnly,
}

/// Execute a scenario once under the oracle: its cells run sequentially
/// in cell order and fold via `merge_outcomes`. For the overwhelmingly
/// common single-cell scenario the fold is the identity, so this is
/// byte-for-byte the pre-sharding behavior.
pub fn run_once(spec: &ScenarioSpec, opts: RunOptions) -> RunOutcome {
    run_once_with(spec, opts, Audit::Full)
}

fn run_once_with(spec: &ScenarioSpec, opts: RunOptions, audit: Audit) -> RunOutcome {
    let outs = spec
        .cells()
        .iter()
        .map(|c| run_cell(c, opts, audit))
        .collect();
    merge_outcomes(outs)
}

/// Execute a scenario under the sharded executor: its cells run on up to
/// `workers` scoped worker threads ([`netsim::shard::run_shards`]) and are
/// reduced in cell-id order regardless of completion order. Bit-identical
/// to [`run_once`] for every scenario and worker count — [`check_case`]
/// proves it per case and flags [`Violation::ShardDivergence`] otherwise.
pub fn run_sharded(spec: &ScenarioSpec, opts: RunOptions, workers: usize) -> RunOutcome {
    run_sharded_with(spec, opts, workers, Audit::Full)
}

fn run_sharded_with(
    spec: &ScenarioSpec,
    opts: RunOptions,
    workers: usize,
    audit: Audit,
) -> RunOutcome {
    let caller = std::thread::current().id();
    let thread_fault = cfg!(feature = "failpoints") && opts.thread_dependent_cells;
    let outs = netsim::shard::run_shards(spec.cells(), workers, |_, cell| {
        let mut out = run_cell(&cell, opts, audit);
        if thread_fault && std::thread::current().id() != caller {
            out.chain_digest = !out.chain_digest;
        }
        out
    });
    merge_outcomes(outs)
}

/// Fold per-cell outcomes in cell-id order. A single cell passes through
/// untouched (digest identity); multiple cells fold their chain and health
/// digests via [`netsim::shard::fold_digests`], sum their counters,
/// concatenate their violations, and merge their delivery sketches through
/// the commutative monoid. Every input order dependence is canonical by
/// construction: callers hand cells over in cell-id order.
fn merge_outcomes(outs: Vec<RunOutcome>) -> RunOutcome {
    if outs.len() == 1 {
        return outs.into_iter().next().expect("one outcome");
    }
    let chain =
        netsim::shard::fold_digests(&outs.iter().map(|o| o.chain_digest).collect::<Vec<_>>());
    let health_digest = outs
        .iter()
        .map(|o| o.health_digest)
        .collect::<Option<Vec<_>>>()
        .map(|ds| netsim::shard::fold_digests(&ds));
    let delivery = outs
        .iter()
        .map(|o| o.delivery.as_ref())
        .collect::<Option<Vec<_>>>()
        .map(obs::QuantileSketch::merge_all);
    let sync_digest = outs
        .iter()
        .map(|o| o.sync_digest)
        .collect::<Option<Vec<_>>>()
        .map(|ds| netsim::shard::fold_digests(&ds));
    RunOutcome {
        violations: outs.iter().flat_map(|o| o.violations.clone()).collect(),
        chain_digest: chain,
        events: outs.iter().map(|o| o.events).sum(),
        jobs_completed: outs.iter().map(|o| o.jobs_completed).sum(),
        bytes_delivered: outs.iter().map(|o| o.bytes_delivered).sum(),
        health_digest,
        delivery,
        sync_digest,
    }
}

/// Execute one cell (a single-replica world) under the oracle.
fn run_cell(spec: &ScenarioSpec, opts: RunOptions, audit: Audit) -> RunOutcome {
    let world = build_world(&spec.topo);
    let mut sim = Sim::new(Arc::clone(&world.topo), spec.seed);
    if opts.health {
        sim.enable_telemetry();
    }
    if opts.reference_allocator {
        sim.set_allocator_mode(netsim::flow::AllocMode::Reference);
    }
    if opts.eager_progress {
        sim.set_progress_mode(ProgressMode::Eager);
    }
    if opts.reference_routing {
        sim.set_routing_mode(netsim::routing::RoutingMode::Reference);
    }
    sim.set_event_budget(EVENT_BUDGET);
    if spec.jitter_pct > 0 {
        sim.set_capacity_jitter(spec.jitter_pct as f64 / 100.0);
    }
    // After the jitter, so the allocator lockstep counts the run's own
    // reallocations; before any process can start a flow.
    if audit == Audit::Full {
        sim.enable_lockstep();
    }
    #[cfg(feature = "failpoints")]
    {
        if let Some(factor) = opts.rate_inflation {
            sim.inject_rate_inflation(factor);
        }
        if opts.largest_predecessor {
            sim.inject_largest_predecessor();
        }
        if opts.nudge_rate_ulp {
            sim.inject_ulp_nudge();
        }
        if opts.skew_lazy_progress {
            sim.inject_progress_skew(1.01);
        }
    }
    let n_links = world.topo.links().len() as u32;
    for f in &spec.faults {
        let link = LinkId(f.link % n_links);
        let nominal = world.topo.links()[link.0 as usize].capacity.bytes_per_sec();
        sim.schedule_capacity_change(
            link,
            SimTime::from_millis(f.at_ms),
            Bandwidth::from_bytes_per_sec(nominal * f.factor_pct as f64 / 100.0),
        );
    }
    let n_hosts = world.hosts.len() as u32;
    for bg in &spec.background {
        let src = bg.src % n_hosts;
        let mut dst = bg.dst % n_hosts;
        if dst == src {
            dst = (dst + 1) % n_hosts;
        }
        let (src, dst) = (world.hosts[src as usize], world.hosts[dst as usize]);
        let profile = if bg.heavy {
            BackgroundProfile::heavy(src, dst)
        } else {
            BackgroundProfile::moderate(src, dst)
        }
        .scaled(bg.scale_pct as f64 / 100.0);
        sim.spawn_detached(Box::new(BackgroundTraffic::new(profile)));
    }
    for c in &spec.churn {
        let src = c.src % n_hosts;
        let mut dst = c.dst % n_hosts;
        if dst == src {
            dst = (dst + 1) % n_hosts;
        }
        sim.spawn_detached(Box::new(ChurnGen {
            src: world.hosts[src as usize],
            dst: world.hosts[dst as usize],
            bytes: c.bytes,
            gap: SimTime::from_millis(c.gap_ms),
            remaining: c.flows,
        }));
    }

    let (oracle, handle) = match audit {
        Audit::Full => InvariantOracle::new(),
        Audit::DigestOnly => InvariantOracle::digest_only(),
    };
    sim.set_audit_hook(Box::new(oracle));

    let jobs = resolve_hosts(spec, &world.hosts);
    let chaos = resolve_chaos(spec, &world.hosts);
    let (sync, stores) = resolve_sync(spec, &world.hosts, opts);
    let has_sync = !sync.is_empty();
    let ledger: SyncLedger = Rc::new(RefCell::new(Vec::new()));
    let result = sim.run_process(Box::new(Driver {
        jobs,
        chaos,
        sync,
        ledger: Rc::clone(&ledger),
        oracle: handle.clone(),
        chaos_watch: HashMap::new(),
        outstanding: 0,
        completed: 0,
    }));
    let jobs_completed = match result {
        Ok(Value::U64(n)) => n,
        Ok(_) => 0,
        Err(e) => {
            handle.push(Violation::EngineError {
                message: e.to_string(),
            });
            0
        }
    };
    if audit == Audit::Full {
        lockstep_violations(sim.divergences()).for_each(|v| handle.push(v));
    }
    let health = opts.health.then(|| {
        let rec = sim.take_telemetry().expect("telemetry was enabled");
        let trace = obs::Trace::from_recording(&rec);
        if audit == Audit::Full {
            if let Some(v) = trace_round_trip(&rec, &trace) {
                handle.push(v);
            }
        }
        health_plane_digest(&rec, &trace)
    });
    // Content digest of everything the sync sessions delivered, folded in
    // session-index order (sessions may *complete* in any order — cached
    // and bypass executions pace their legs differently).
    let sync_digest = has_sync.then(|| {
        let mut entries = ledger.borrow().clone();
        entries.sort_unstable_by_key(|&(idx, _)| idx);
        let mut d = netsim::audit::Digest::new();
        d.write_u64(entries.len() as u64);
        for (idx, dg) in entries {
            d.write_u64(idx as u64);
            d.write_u64(dg);
        }
        d.finish()
    });
    // Chunk-store state, folded into the chain digest below: residency in
    // admission order plus counters, per store in first-use order. The
    // sharded re-execution must agree on it bit for bit.
    let store_digest = has_sync.then(|| {
        let mut d = netsim::audit::Digest::new();
        d.write_u64(stores.len() as u64);
        for s in &stores {
            d.write_u64(s.borrow().digest());
        }
        d.finish()
    });
    finish_outcome(
        &sim,
        &handle,
        jobs_completed,
        health,
        store_digest,
        sync_digest,
    )
}

/// The lockstep backends' first disagreements as violations.
fn lockstep_violations(d: Divergences) -> impl Iterator<Item = Violation> {
    let allocator = d.allocator.map(|a| Violation::AllocatorDivergence {
        realloc: a.realloc,
        flow: a.flow,
        got: a.got,
        want: a.want,
    });
    let routing = d.routing.map(|(src, dst)| Violation::RoutingDivergence {
        src: src.0,
        dst: dst.0,
    });
    let progress = d.progress.map(|p| Violation::ProgressDivergence {
        flow: p.flow,
        at_ns: p.at.as_nanos(),
        stepped: p.stepped,
        lazy: p.lazy,
    });
    allocator.into_iter().chain(routing).chain(progress)
}

/// The health trace round trip: `direct`, the trace built from `rec`,
/// must equal the trace its JSONL export parses back to. `None` when it
/// does; otherwise a [`Violation::TraceRoundTrip`] naming the first
/// difference.
fn trace_round_trip(rec: &obs::Recording, direct: &obs::Trace) -> Option<Violation> {
    let detail = match obs::parse_jsonl(&obs::jsonl_log(rec), "<live>") {
        Ok(parsed) if parsed == *direct => return None,
        Ok(parsed) => {
            let span = direct
                .spans
                .iter()
                .zip(&parsed.spans)
                .position(|(a, b)| a != b);
            let event = direct
                .events
                .iter()
                .zip(&parsed.events)
                .position(|(a, b)| a != b);
            match (span, event) {
                (Some(i), _) => format!(
                    "span {i}: {:?} vs parsed {:?}",
                    direct.spans[i], parsed.spans[i]
                ),
                (None, Some(i)) => format!(
                    "event {i}: {:?} vs parsed {:?}",
                    direct.events[i], parsed.events[i]
                ),
                (None, None) => format!(
                    "{} spans, {} events vs {} spans, {} events parsed",
                    direct.spans.len(),
                    direct.events.len(),
                    parsed.spans.len(),
                    parsed.events.len()
                ),
            }
        }
        Err(e) => format!("the export does not parse: {e}"),
    };
    Some(Violation::TraceRoundTrip { detail })
}

/// Digest the run's derived health-plane state: the route scoreboard built
/// from the recorded trace, plus every sim-time window flush (name, bounds,
/// counter value or full sketch state). Purely sim-time-derived, so it is
/// identical across same-seed and sharded executions. Also returns the
/// merged flow-delivery duration sketch, the per-cell telemetry summary the
/// sharded reduction combines via the commutative monoid.
fn health_plane_digest(rec: &obs::Recording, trace: &obs::Trace) -> (u64, obs::QuantileSketch) {
    let mut board = obs::HealthBoard::new(obs::DEFAULT_SLO_P99_NS);
    board.ingest(trace);
    let mut d = netsim::audit::Digest::new();
    board.fold_into(&mut |v| d.write_u64(v));
    for f in &rec.window_flushes {
        for b in f.name.bytes() {
            d.write_u64(b as u64);
        }
        d.write_u64(f.start_ns);
        d.write_u64(f.end_ns);
        match &f.value {
            obs::WindowValue::Count(c) => d.write_u64(*c),
            obs::WindowValue::Sketch(s) => s.fold_into(&mut |v| d.write_u64(v)),
        }
    }
    let delivery =
        obs::QuantileSketch::merge_all(rec.window_flushes.iter().filter_map(|f| match &f.value {
            obs::WindowValue::Sketch(s) if f.name == "netsim.flow.duration_ns" => Some(s),
            _ => None,
        }));
    (d.finish(), delivery)
}

fn finish_outcome(
    sim: &Sim,
    handle: &OracleHandle,
    jobs_completed: u64,
    health: Option<(u64, obs::QuantileSketch)>,
    store_digest: Option<u64>,
    sync_digest: Option<u64>,
) -> RunOutcome {
    let (health_digest, delivery) = match health {
        Some((h, s)) => (Some(h), Some(s)),
        None => (None, None),
    };
    RunOutcome {
        violations: handle.violations(),
        chain_digest: {
            // Fold the final full-engine digest (which includes process
            // state the per-event core digest does not) into the chain,
            // plus the health-plane digest when one was recorded, plus the
            // relay chunk-store state when sync sessions ran.
            let mut d = netsim::audit::Digest::new();
            d.write_u64(handle.chain_digest());
            d.write_u64(sim.state_digest());
            if let Some(h) = health_digest {
                d.write_u64(h);
            }
            if let Some(s) = store_digest {
                d.write_u64(s);
            }
            d.finish()
        },
        events: sim.stats().events,
        jobs_completed,
        bytes_delivered: sim.stats().bytes_delivered,
        health_digest,
        delivery,
        sync_digest,
    }
}

/// Worker counts every checked case is re-executed with under the sharded
/// executor. One run at four workers covers the executor: a single worker
/// is [`run_once`]'s sequential fold byte for byte, two workers take the
/// same claim-counter path as four, and four give every generated spec (at
/// most three cells) a worker per cell.
pub const SHARD_WORKER_COUNTS: [usize; 1] = [4];

/// Operations per plane-coherence differential (see
/// [`check_plane_coherence`]).
const PLANE_COHERENCE_OPS: u64 = 1_500;

/// The route-plane coherence differential: replay a deterministic schedule
/// of lookups, generation bumps and breaker trips (derived from the spec's
/// seed) against a [`routeplane::RoutePlane`], and after every served
/// decision recompute it from scratch at the current generation with the
/// same demotion rule. Cache and fresh computation must agree bit for bit
/// — a [`Violation::PlaneDivergence`] otherwise. This is the cached-path
/// analogue of the allocator/routing differentials: same inputs, two
/// implementations (memoized vs direct), identical bits required.
pub fn check_plane_coherence(spec: &ScenarioSpec) -> Vec<Violation> {
    plane_coherence_with(spec.seed, 0)
}

/// Core of the coherence check, with a verification-generation skew used
/// by tests to prove the detector actually fires: `gen_skew > 0` verifies
/// against the wrong generation, which a generation-sensitive source must
/// expose.
fn plane_coherence_with(seed: u64, gen_skew: u64) -> Vec<Violation> {
    use routeplane::{
        splitmix64, DecisionKey, DecisionSource, Lookup, PlaneConfig, RoutePlane, ServeStatus,
        SyntheticSource, DIRECT_ROUTE,
    };
    const NODES: u32 = 256;
    let board = std::sync::Arc::new(cloudstore::TripBoard::new(NODES as usize));
    let plane = RoutePlane::new(PlaneConfig {
        shards: 8,
        providers: 3,
        vantages: 64,
        vantage_bucket_shift: 2,
        tenants: 4,
        ..PlaneConfig::default()
    })
    .with_trip_board(std::sync::Arc::clone(&board));
    let source = SyntheticSource::new(seed, 4, NODES);
    let mut violations = Vec::new();
    for i in 0..PLANE_COHERENCE_OPS {
        let h = splitmix64(seed ^ i.wrapping_mul(0x9E37_79B9));
        let now_ns = i * 1_000;
        match h % 16 {
            0 => {
                let provider = ((h >> 8) % 3) as u16;
                let lo = ((h >> 16) % 64) as u32;
                plane.invalidate_vantage_range(provider, lo, (lo + 7).min(63));
            }
            1 => {
                let node = netsim::topology::NodeId(((h >> 8) % NODES as u64) as u32);
                board.trip(node, SimTime::from_nanos(now_ns + 50_000));
            }
            2 => {
                let node = netsim::topology::NodeId(((h >> 8) % NODES as u64) as u32);
                board.close(node);
            }
            _ => {
                let key = DecisionKey {
                    vantage: ((h >> 8) % 64) as u32,
                    provider: ((h >> 24) % 3) as u16,
                    size_class: ((h >> 32) % 3) as u8,
                };
                let tenant = ((h >> 40) % 4) as u32;
                let (decision, status) = match plane.lookup(tenant, key, now_ns, &source) {
                    Lookup::Shed => continue,
                    Lookup::Served { decision, status } => (decision, status),
                };
                // Recompute from scratch at the current generation and
                // apply the demotion rule the plane claims to implement.
                let generation = plane.generations().current(key) + gen_skew;
                let entry = source.compute(key, generation);
                let fresh = if entry.best.route_idx != DIRECT_ROUTE
                    && board.is_open(entry.best.target, now_ns)
                {
                    entry.direct
                } else {
                    entry.best
                };
                let demote_expected =
                    fresh.route_idx == DIRECT_ROUTE && entry.best.route_idx != DIRECT_ROUTE;
                if decision.score.bits() != fresh.bits()
                    || decision.generation != generation
                    || (status == ServeStatus::Demoted) != demote_expected
                {
                    violations.push(Violation::PlaneDivergence {
                        key: key.pack(),
                        generation,
                        served: decision.score.bits(),
                        fresh: fresh.bits(),
                    });
                    if violations.len() >= 8 {
                        return violations;
                    }
                }
            }
        }
    }
    violations
}

/// Check one scenario in at most three executions plus the
/// plane-coherence differential:
///
/// 1. A full audit ([`run_once`]): every per-event invariant, with the
///    reference allocator, routing and progress backends in lockstep.
/// 2. Once per entry of [`SHARD_WORKER_COUNTS`], a digest-only run under
///    the sharded executor. It runs every cell again on a fresh worker
///    thread, and its chained digest must equal the first execution's
///    (same seed ⇒ bit-identical), which makes it the determinism check
///    too ([`Violation::ShardDivergence`]).
/// 3. For a sync case, a chunk-bypass run. It is a different simulation
///    (cold-cache wire bytes give different flows and timings), so it is a
///    full audit too and its violations are reported; its delivered bytes
///    must equal the first execution's ([`Violation::ChunkDivergence`]).
/// 4. [`check_plane_coherence`].
///
/// The pieces share no state, so they overlap: the full audit runs on the
/// calling thread and the others on scoped threads beside it. A piece that
/// panics has its own payload re-raised here. The violations are assembled
/// in the order above whatever order the pieces finish in: the first
/// execution's, a shard divergence, the bypass run's, a chunk divergence,
/// the plane check's.
pub fn check_case(spec: &ScenarioSpec, opts: RunOptions) -> CaseResult {
    // Health folding is forced on so the determinism comparison also
    // covers the aggregation/health plane.
    let opts = RunOptions {
        health: true,
        ..opts
    };
    // The chunk differential re-runs a sync case with the relay chunk
    // store bypassed. Wire bytes (and therefore timing and chain digests)
    // legitimately differ, but the delivered file bytes must be identical:
    // the cache only re-prices the forward leg, it never changes content.
    let bypass_opts = (!spec.sync.is_empty() && !opts.chunk_bypass).then_some(RunOptions {
        chunk_bypass: true,
        ..opts
    });
    let (first, sharded, bypass, plane) = std::thread::scope(|s| {
        let sharded = s.spawn(|| {
            SHARD_WORKER_COUNTS.map(|workers| {
                run_sharded_with(spec, opts, workers, Audit::DigestOnly).chain_digest
            })
        });
        let bypass = bypass_opts.map(|o| s.spawn(move || run_once(spec, o)));
        let plane = s.spawn(|| check_plane_coherence(spec));
        let first = run_once(spec, opts);
        (first, joined(sharded), bypass.map(joined), joined(plane))
    });
    let mut violations = first.violations;
    for (workers, sharded) in SHARD_WORKER_COUNTS.into_iter().zip(sharded) {
        if first.chain_digest != sharded {
            violations.push(Violation::ShardDivergence {
                workers: workers as u32,
                sequential: first.chain_digest,
                sharded,
            });
        }
    }
    if let Some(bypass) = bypass {
        violations.extend(bypass.violations);
        if first.sync_digest != bypass.sync_digest {
            violations.push(Violation::ChunkDivergence {
                cached: first.sync_digest.unwrap_or(0),
                bypass: bypass.sync_digest.unwrap_or(0),
            });
        }
    }
    violations.extend(plane);
    CaseResult {
        spec: spec.clone(),
        violations,
        chain_digest: first.chain_digest,
        events: first.events,
        jobs_completed: first.jobs_completed,
    }
}

/// Join one of [`check_case`]'s scoped pieces, re-raising its own panic
/// payload so a failed assertion keeps its message.
fn joined<T>(handle: std::thread::ScopedJoinHandle<'_, T>) -> T {
    handle
        .join()
        .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{case_seed, ChurnSpec};

    #[test]
    fn generated_cases_run_clean() {
        for i in 0..8 {
            let spec = ScenarioSpec::generate(case_seed(1, i));
            let out = run_once(&spec, RunOptions::default());
            assert_eq!(
                out.violations,
                vec![],
                "case {i} violated invariants: {:?}",
                spec
            );
            assert!(out.events > 0);
        }
    }

    #[test]
    fn same_seed_reexecution_is_bit_identical() {
        let spec = ScenarioSpec::generate(case_seed(2, 0));
        let a = run_once(&spec, RunOptions::default());
        let b = run_once(&spec, RunOptions::default());
        assert_eq!(a.chain_digest, b.chain_digest);
        assert_eq!(a.events, b.events);
        assert_eq!(a.bytes_delivered, b.bytes_delivered);
    }

    #[test]
    fn reference_allocator_execution_is_bit_identical() {
        // The incremental allocator must produce the exact execution the
        // full-recompute reference does — not just close rates: identical
        // event sequences, digests and byte counts.
        for i in 0..4 {
            let spec = ScenarioSpec::generate(case_seed(9, i));
            let inc = run_once(&spec, RunOptions::default());
            let refr = run_once(
                &spec,
                RunOptions {
                    reference_allocator: true,
                    ..Default::default()
                },
            );
            assert_eq!(inc.chain_digest, refr.chain_digest, "case {i}: {spec:?}");
            assert_eq!(inc.events, refr.events, "case {i}");
            assert_eq!(inc.bytes_delivered, refr.bytes_delivered, "case {i}");
        }
    }

    #[test]
    fn reference_routing_execution_is_bit_identical() {
        // The precomputed route oracle must produce the exact execution the
        // per-query reference Dijkstra does — identical event sequences,
        // digests and byte counts.
        for i in 0..4 {
            let spec = ScenarioSpec::generate(case_seed(31, i));
            let oracle = run_once(&spec, RunOptions::default());
            let refr = run_once(
                &spec,
                RunOptions {
                    reference_routing: true,
                    ..Default::default()
                },
            );
            assert_eq!(oracle.chain_digest, refr.chain_digest, "case {i}: {spec:?}");
            assert_eq!(oracle.events, refr.events, "case {i}");
            assert_eq!(oracle.bytes_delivered, refr.bytes_delivered, "case {i}");
        }
    }

    #[test]
    fn health_plane_digest_is_deterministic_and_folded() {
        let opts = RunOptions {
            health: true,
            ..Default::default()
        };
        let spec = ScenarioSpec::generate_chaos(case_seed(23, 1));
        let a = run_once(&spec, opts);
        let b = run_once(&spec, opts);
        assert!(a.health_digest.is_some());
        assert_eq!(a.health_digest, b.health_digest);
        assert_eq!(a.chain_digest, b.chain_digest);
        // The health fold really changes the chained digest: a run without
        // it must not produce the same chain.
        let plain = run_once(&spec, RunOptions::default());
        assert_eq!(plain.health_digest, None);
        assert_ne!(plain.chain_digest, a.chain_digest);
    }

    #[test]
    fn star_topology_runs() {
        let spec = ScenarioSpec {
            seed: 5,
            topo: TopoSpec::Star {
                hosts: 2,
                access_mbps: 10,
            },
            jitter_pct: 0,
            jobs: vec![crate::scenario::JobSpec {
                src: 0,
                dst: 1,
                via: None,
                bytes: 1024 * 1024,
                class: 0,
                weight_pct: 100,
                start_ms: 0,
            }],
            background: vec![],
            faults: vec![],
            churn: vec![],
            chaos: vec![],
            sync: vec![],
            replicas: 1,
        };
        let res = check_case(&spec, RunOptions::default());
        assert!(res.ok(), "violations: {:?}", res.violations);
        assert_eq!(res.jobs_completed, 1);
    }

    /// Digest-only, since a full audit's lockstep sweeps eagerly whatever
    /// the flag says: these are the two executions the flag tells apart.
    #[test]
    fn eager_progress_execution_is_bit_identical() {
        for i in 0..4 {
            let spec = ScenarioSpec::generate(case_seed(11, i));
            let lazy = run_once_with(&spec, RunOptions::default(), Audit::DigestOnly);
            let eager = run_once_with(
                &spec,
                RunOptions {
                    eager_progress: true,
                    ..Default::default()
                },
                Audit::DigestOnly,
            );
            assert_eq!(lazy.chain_digest, eager.chain_digest, "case {i}: {spec:?}");
            assert_eq!(lazy.events, eager.events, "case {i}");
            assert_eq!(lazy.bytes_delivered, eager.bytes_delivered, "case {i}");
        }
    }

    #[test]
    fn high_churn_case_runs_clean_under_all_executions() {
        let spec = ScenarioSpec {
            seed: 3,
            topo: TopoSpec::Star {
                hosts: 3,
                access_mbps: 20,
            },
            jitter_pct: 2,
            jobs: vec![crate::scenario::JobSpec {
                src: 0,
                dst: 1,
                via: None,
                bytes: 8 * 1024 * 1024,
                class: 0,
                weight_pct: 100,
                start_ms: 0,
            }],
            background: vec![],
            faults: vec![],
            churn: vec![
                ChurnSpec {
                    src: 0,
                    dst: 1,
                    flows: 80,
                    bytes: 32 * 1024,
                    gap_ms: 0,
                },
                ChurnSpec {
                    src: 2,
                    dst: 1,
                    flows: 60,
                    bytes: 64 * 1024,
                    gap_ms: 3,
                },
            ],
            chaos: vec![],
            sync: vec![],
            replicas: 1,
        };
        let res = check_case(&spec, RunOptions::default());
        assert!(res.ok(), "violations: {:?}", res.violations);
        assert_eq!(res.jobs_completed, 1);
        // The churn chains really ran: far more events than the lone job.
        assert!(res.events > 500, "only {} events", res.events);
    }

    #[test]
    fn chaos_cases_run_clean() {
        // Throttle storms, fault bursts and capacity faults: every session
        // must settle within its bound, with all engine invariants intact.
        for i in 0..6 {
            let spec = ScenarioSpec::generate_chaos(case_seed(17, i));
            let out = run_once(&spec, RunOptions::default());
            assert_eq!(
                out.violations,
                vec![],
                "chaos case {i} violated invariants: {:?}",
                spec
            );
            assert!(out.events > 0);
        }
    }

    #[test]
    fn chaos_case_is_deterministic_across_all_executions() {
        let spec = ScenarioSpec::generate_chaos(case_seed(19, 0));
        let res = check_case(&spec, RunOptions::default());
        assert!(res.ok(), "violations: {:?}", res.violations);
    }

    #[test]
    fn hopeless_throttle_storm_terminates_in_bounded_sim_time() {
        // 100% throttling: the retry budget must end the session with an
        // error well inside its termination bound and the event budget —
        // the regression guard for the unbounded-429 retry loop.
        let spec = ScenarioSpec {
            seed: 9,
            topo: TopoSpec::Star {
                hosts: 2,
                access_mbps: 20,
            },
            jitter_pct: 0,
            jobs: vec![],
            background: vec![],
            faults: vec![],
            churn: vec![],
            chaos: vec![crate::scenario::ChaosSpec {
                client: 0,
                frontend: 1,
                bytes: 4 * 1024 * 1024,
                throttle_pct: 100,
                transient_pct: 0,
                retry_after_ms: 1000,
                deadline_ms: 0,
                start_ms: 0,
            }],
            sync: vec![],
            replicas: 1,
        };
        let out = run_once(&spec, RunOptions::default());
        assert_eq!(out.violations, vec![], "violations: {:?}", out.violations);
        // The session settled (the driver finished) but never succeeded.
        assert_eq!(out.jobs_completed, 0);
        assert!(out.events < EVENT_BUDGET / 10, "events: {}", out.events);
    }

    #[test]
    fn chaos_deadline_is_enforced() {
        // A deadline-armed session under heavy throttling must settle by
        // deadline + slack; the watcher would flag an overrun otherwise.
        let spec = ScenarioSpec {
            seed: 11,
            topo: TopoSpec::Star {
                hosts: 3,
                access_mbps: 20,
            },
            jitter_pct: 0,
            jobs: vec![],
            background: vec![],
            faults: vec![],
            churn: vec![],
            chaos: vec![crate::scenario::ChaosSpec {
                client: 0,
                frontend: 1,
                bytes: 8 * 1024 * 1024,
                throttle_pct: 70,
                transient_pct: 20,
                retry_after_ms: 2000,
                deadline_ms: 5000,
                start_ms: 100,
            }],
            sync: vec![],
            replicas: 1,
        };
        let out = run_once(&spec, RunOptions::default());
        assert_eq!(out.violations, vec![], "violations: {:?}", out.violations);
    }

    #[test]
    fn sharded_execution_is_bit_identical_for_single_cell_specs() {
        // A single-replica spec is one cell: the sharded fold is the
        // identity, so every worker count must reproduce the sequential
        // chain digest exactly.
        let opts = RunOptions {
            health: true,
            ..Default::default()
        };
        for i in 0..3 {
            let mut spec = ScenarioSpec::generate(case_seed(29, i));
            spec.replicas = 1;
            let seq = run_once(&spec, opts);
            for workers in [1, 2, 4] {
                let sharded = run_sharded(&spec, opts, workers);
                assert_eq!(
                    seq.chain_digest, sharded.chain_digest,
                    "case {i}, {workers} workers"
                );
                assert_eq!(seq.health_digest, sharded.health_digest, "case {i}");
                assert_eq!(seq.delivery, sharded.delivery, "case {i}");
            }
        }
    }

    #[test]
    fn sharded_execution_is_bit_identical_for_replicated_specs() {
        let opts = RunOptions {
            health: true,
            ..Default::default()
        };
        for (i, replicas) in [(0u32, 2u32), (1, 3), (2, 4)] {
            let mut spec = ScenarioSpec::generate(case_seed(31, i));
            spec.replicas = replicas;
            let seq = run_once(&spec, opts);
            for workers in [1, 2, 4] {
                let sharded = run_sharded(&spec, opts, workers);
                assert_eq!(
                    seq.chain_digest, sharded.chain_digest,
                    "case {i} x{replicas}, {workers} workers"
                );
                assert_eq!(seq.events, sharded.events, "case {i}");
                assert_eq!(seq.bytes_delivered, sharded.bytes_delivered, "case {i}");
                assert_eq!(seq.health_digest, sharded.health_digest, "case {i}");
                assert_eq!(seq.delivery, sharded.delivery, "case {i}");
            }
        }
    }

    #[test]
    fn replicated_cells_really_multiply_the_work() {
        let mut spec = ScenarioSpec::generate(case_seed(37, 0));
        spec.replicas = 1;
        let one = run_once(&spec, RunOptions::default());
        spec.replicas = 3;
        let three = run_once(&spec, RunOptions::default());
        assert!(
            three.events > one.events * 2,
            "3 cells ran {} events vs {} for 1 cell",
            three.events,
            one.events
        );
        assert_ne!(one.chain_digest, three.chain_digest);
    }

    #[test]
    fn replicated_chaos_case_checks_clean() {
        let mut spec = ScenarioSpec::generate_chaos(case_seed(41, 2));
        spec.replicas = 2;
        let res = check_case(&spec, RunOptions::default());
        assert!(res.ok(), "violations: {:?}", res.violations);
    }

    #[test]
    fn sync_cases_run_clean() {
        for i in 0..4 {
            let spec = ScenarioSpec::generate_sync(case_seed(43, i));
            let out = run_once(&spec, RunOptions::default());
            assert_eq!(
                out.violations,
                vec![],
                "sync case {i} violated invariants: {:?}",
                spec
            );
            assert!(out.sync_digest.is_some());
            assert!(out.events > 0);
        }
    }

    #[test]
    fn sync_case_checks_clean_including_chunk_differential() {
        let spec = ScenarioSpec::generate_sync(case_seed(47, 0));
        let res = check_case(&spec, RunOptions::default());
        assert!(res.ok(), "violations: {:?}", res.violations);
    }

    #[test]
    fn chunk_bypass_delivers_identical_bytes_on_different_wire() {
        // The cache changes how many bytes cross the wire (and therefore
        // the chain digest) but never what is delivered.
        for i in 0..3 {
            let spec = ScenarioSpec::generate_sync(case_seed(53, i));
            let cached = run_once(&spec, RunOptions::default());
            let bypass = run_once(
                &spec,
                RunOptions {
                    chunk_bypass: true,
                    ..Default::default()
                },
            );
            assert_eq!(cached.sync_digest, bypass.sync_digest, "case {i}");
            assert!(cached.sync_digest.is_some());
        }
    }

    #[test]
    fn chunk_store_state_is_folded_into_the_chain_digest() {
        // A warm-cache repeat round means the store's state really differs
        // between cached and bypass executions; since that state folds into
        // the chain digest, the two chains must differ while the delivered
        // bytes agree (previous test). Sessions with multiple rounds always
        // admit chunks, so the cached store is non-trivially populated.
        let mut spec = ScenarioSpec::generate_sync(case_seed(59, 1));
        spec.sync.truncate(1);
        spec.sync[0].rounds = 2;
        spec.sync[0].cache_kb = 256;
        let cached = run_once(&spec, RunOptions::default());
        let bypass = run_once(
            &spec,
            RunOptions {
                chunk_bypass: true,
                ..Default::default()
            },
        );
        assert_ne!(cached.chain_digest, bypass.chain_digest);
        assert_eq!(cached.sync_digest, bypass.sync_digest);
    }

    #[test]
    fn sync_sessions_sharing_a_relay_share_the_store() {
        // Two sessions, same client->relay pair, identical populations:
        // determinism of the shared store across all differential
        // executions is what check_case proves.
        let spec = ScenarioSpec {
            seed: 21,
            topo: TopoSpec::Star {
                hosts: 3,
                access_mbps: 20,
            },
            jitter_pct: 0,
            jobs: vec![],
            background: vec![],
            faults: vec![],
            churn: vec![],
            chaos: vec![],
            sync: vec![
                crate::scenario::SyncSpec {
                    client: 0,
                    relay: 2,
                    files: 2,
                    file_kb: 8,
                    rounds: 2,
                    cache_kb: 64,
                    dataset: 0,
                    churny: false,
                    start_ms: 0,
                },
                crate::scenario::SyncSpec {
                    client: 1,
                    relay: 2,
                    files: 1,
                    file_kb: 8,
                    rounds: 1,
                    cache_kb: 64,
                    dataset: 0,
                    churny: true,
                    start_ms: 50,
                },
            ],
            replicas: 1,
        };
        let res = check_case(&spec, RunOptions::default());
        assert!(res.ok(), "violations: {:?}", res.violations);
        // Both sessions replicate dataset 0, so the second tenant's initial
        // replication is served from the shared store: fewer bytes cross
        // the wire than under bypass, yet the delivered files are identical.
        let cached = run_once(&spec, RunOptions::default());
        let bypass = run_once(
            &spec,
            RunOptions {
                chunk_bypass: true,
                ..Default::default()
            },
        );
        assert!(
            cached.bytes_delivered < bypass.bytes_delivered,
            "cache saved nothing: {} vs {}",
            cached.bytes_delivered,
            bypass.bytes_delivered
        );
        assert_eq!(cached.sync_digest, bypass.sync_digest);
    }

    #[test]
    fn replicated_sync_case_is_bit_identical_under_sharding() {
        let mut spec = ScenarioSpec::generate_sync(case_seed(61, 0));
        spec.replicas = 2;
        let opts = RunOptions {
            health: true,
            ..Default::default()
        };
        let seq = run_once(&spec, opts);
        for workers in [1, 2, 4] {
            let sharded = run_sharded(&spec, opts, workers);
            assert_eq!(seq.chain_digest, sharded.chain_digest, "{workers} workers");
            assert_eq!(seq.sync_digest, sharded.sync_digest, "{workers} workers");
        }
    }

    #[test]
    fn digest_only_executions_match_the_full_audit() {
        // Digest-only re-executions fold exactly the chain, health and sync
        // digests a full audit does, sequentially and on four workers, for
        // every class and for single- and multi-cell specs.
        let opts = RunOptions {
            health: true,
            ..Default::default()
        };
        let generators: [fn(u64) -> ScenarioSpec; 3] = [
            ScenarioSpec::generate,
            ScenarioSpec::generate_chaos,
            ScenarioSpec::generate_sync,
        ];
        for (class, generate) in generators.into_iter().enumerate() {
            for i in 0..30 {
                let mut spec = generate(case_seed(71 + class as u64, i));
                spec.replicas = 1 + i % 3;
                let full = run_once(&spec, opts);
                assert_eq!(full.violations, vec![], "class {class} case {i}");
                for (what, out) in [
                    ("sequential", run_once_with(&spec, opts, Audit::DigestOnly)),
                    (
                        "4 workers",
                        run_sharded_with(&spec, opts, 4, Audit::DigestOnly),
                    ),
                ] {
                    let ctx = format!("class {class} case {i} x{}, {what}", spec.replicas);
                    assert_eq!(out.chain_digest, full.chain_digest, "{ctx}");
                    assert_eq!(out.health_digest, full.health_digest, "{ctx}");
                    assert_eq!(out.sync_digest, full.sync_digest, "{ctx}");
                    assert_eq!(out.events, full.events, "{ctx}");
                }
            }
        }
    }

    #[test]
    fn trace_round_trip_fires_on_a_perturbed_trace() {
        let world = build_world(&TopoSpec::Star {
            hosts: 3,
            access_mbps: 20,
        });
        let mut sim = Sim::new(world.topo, 5);
        sim.enable_telemetry();
        for (src, bytes) in [(0, 2_000_000), (2, 3_000_000)] {
            let req = netsim::engine::TransferRequest::new(world.hosts[src], world.hosts[1], bytes);
            sim.run_transfer(req).expect("star hosts are connected");
        }
        let mut rec = sim.take_telemetry().expect("telemetry was enabled");
        let trace = obs::Trace::from_recording(&rec);
        assert!(trace.spans.len() > 1 && !trace.events.is_empty());
        assert_eq!(trace_round_trip(&rec, &trace), None);

        let fires =
            |rec: &obs::Recording, t: &obs::Trace, want: &str| match trace_round_trip(rec, t) {
                Some(Violation::TraceRoundTrip { detail }) => {
                    assert!(detail.contains(want), "{detail}")
                }
                other => panic!("expected a trace round-trip violation, got {other:?}"),
            };
        let mut ended_late = trace.clone();
        ended_late.spans[1].end_ns = ended_late.spans[1].end_ns.map(|t| t + 1);
        fires(&rec, &ended_late, "span 1:");
        let mut retagged = trace.clone();
        let last = retagged.events.len() - 1;
        retagged.events[last]
            .args
            .push(("x".into(), obs::trace::TraceValue::Null));
        fires(&rec, &retagged, &format!("event {last}:"));
        let mut lost = trace.clone();
        lost.events.pop();
        fires(&rec, &lost, "events vs");
        // A span that ends before it begins exports a span_end line ahead
        // of its span_begin, which the reader rejects.
        rec.spans[0].end_ns = Some(0);
        rec.spans[0].start_ns = 1;
        fires(&rec, &obs::Trace::from_recording(&rec), "does not parse");
    }

    #[test]
    fn plane_coherence_holds_across_seeds() {
        for seed in 0..24u64 {
            let vs = plane_coherence_with(seed, 0);
            assert_eq!(vs, vec![], "seed {seed} diverged");
        }
    }

    #[test]
    fn plane_coherence_detector_fires_on_generation_skew() {
        // Verifying against the wrong generation must trip the oracle on
        // effectively every seed — proof the differential has teeth and
        // that a cache serving stale generations could not pass.
        let vs = plane_coherence_with(5, 1);
        assert!(
            vs.iter()
                .any(|v| matches!(v, Violation::PlaneDivergence { .. })),
            "skewed verification produced no divergence"
        );
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn injected_overallocation_is_detected() {
        let spec = ScenarioSpec::generate(case_seed(3, 1));
        let res = check_case(
            &spec,
            RunOptions {
                rate_inflation: Some(1.5),
                ..Default::default()
            },
        );
        assert!(
            res.violations
                .iter()
                .any(|v| matches!(v, Violation::OverAllocation { .. })),
            "expected over-allocation, got {:?}",
            res.violations
        );
    }
}
