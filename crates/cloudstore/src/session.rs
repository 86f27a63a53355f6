//! The upload session state machine.
//!
//! Token (grant/refresh as needed) → session init → part uploads →
//! finalize. Exactly the sequence the providers' 2015 client libraries
//! perform, including:
//!
//! * per-part fault handling (`429` waits don't count as retries; `5xx`
//!   retries back off exponentially and re-query the session offset before
//!   resending),
//! * mid-session token refresh when a long transfer outlives its bearer
//!   token,
//! * connection reuse: only the very first exchange pays TCP/TLS setup,
//! * one part RPC in flight at a time, as the 2015 clients sent them. A
//!   failed part waits out its backoff while the next parts go ahead, and
//!   its offset query runs beside the part in flight.

use crate::faults::FaultOutcome;
use crate::oauth::{TokenPolicy, TokenState};
use crate::provider::Provider;
use crate::report::TransferStats;
use crate::resilience::{RetryPolicy, RetryState};
use netsim::engine::{Ctx, Event, Process, ProcessId, Value};
use netsim::error::NetError;
use netsim::flow::FlowClass;
use netsim::rpc::{Rpc, RpcSpec};
use netsim::time::SimTime;
use netsim::topology::NodeId;
use obs::{Category, SpanId};
use std::collections::{HashMap, VecDeque};

/// Options for one upload.
#[derive(Debug, Clone, Copy)]
pub struct UploadOptions {
    /// Token situation at session start.
    pub token: TokenPolicy,
    /// Traffic class of all session flows (matches source-host policy).
    pub class: FlowClass,
    /// Resilience policy override. `None` derives one from the provider's
    /// fault plan via [`RetryPolicy::from_plan`].
    pub retry: Option<RetryPolicy>,
}

impl Default for UploadOptions {
    fn default() -> Self {
        UploadOptions {
            token: TokenPolicy::Cached,
            class: FlowClass::Commodity,
            retry: None,
        }
    }
}

impl UploadOptions {
    /// Cold-start options: full OAuth grant before the first byte.
    pub fn cold(class: FlowClass) -> Self {
        UploadOptions {
            token: TokenPolicy::Fresh,
            class,
            ..UploadOptions::default()
        }
    }

    /// Warm options: token cached and valid.
    pub fn warm(class: FlowClass) -> Self {
        UploadOptions {
            token: TokenPolicy::Cached,
            class,
            ..UploadOptions::default()
        }
    }

    /// Use an explicit resilience policy (budget, backoff, deadline).
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }
}

/// What a control-plane child RPC was for.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ControlKind {
    Auth,
    Refresh,
    Init,
    Finish,
}

/// A part waiting to be (re)sent.
#[derive(Debug, Clone, Copy)]
struct PartTask {
    idx: usize,
    attempts: u32,
}

/// An in-flight part RPC.
#[derive(Debug, Clone, Copy)]
struct PartAttempt {
    task: PartTask,
    outcome: FaultOutcome,
}

const TIMER_THROTTLE: u64 = 1;
/// Per-part backoff timers: tag = TIMER_BACKOFF_BASE + part index, with the
/// part's attempt count carried in the upper 32 bits of the payload so a
/// lost bookkeeping entry can never silently reset a retry streak.
const TIMER_BACKOFF_BASE: u64 = 0x1000;
/// Bit offset of the attempt count inside a backoff timer tag.
const TIMER_ATTEMPT_SHIFT: u32 = 32;

/// Upload one file to a provider. Finishes with a packed
/// [`TransferStats`] value, or [`Value::Error`] on unrecoverable failure.
pub struct UploadSession {
    client: NodeId,
    provider: Provider,
    bytes: u64,
    opts: UploadOptions,

    frontend: NodeId,
    /// Shared retry budget / deadline accounting across throttles and
    /// transient errors.
    retry: RetryState,
    parts: Vec<u64>,
    queue: VecDeque<PartTask>,
    /// The one part RPC in flight, if any.
    inflight: Option<(ProcessId, PartAttempt)>,
    offset_queries: HashMap<ProcessId, PartTask>,
    /// Per-part attempt counters awaiting their backoff timer.
    queue_retry_attempts: HashMap<usize, u32>,
    control: Option<(ProcessId, ControlKind)>,
    completed: usize,
    token: Option<TokenState>,
    initialized: bool,
    finishing: bool,
    waiting_throttle: bool,
    first_exchange: bool,

    started: SimTime,
    rpcs: u64,
    retries: u64,
    throttles: u64,
    token_refreshes: u64,
    wire_bytes: u64,

    /// Telemetry span covering the whole session.
    span: SpanId,
    /// Requested parent for the session span (set by the job layer).
    parent_span: SpanId,
    /// Per-part chunk spans, opened at first launch, closed on success.
    chunk_spans: Vec<SpanId>,
}

impl UploadSession {
    /// Build a session (spawn it or run it via [`upload`]).
    pub fn new(client: NodeId, provider: Provider, bytes: u64, opts: UploadOptions) -> Self {
        let policy = opts
            .retry
            .unwrap_or_else(|| RetryPolicy::from_plan(&provider.faults));
        UploadSession {
            client,
            provider,
            bytes,
            opts,
            frontend: NodeId(u32::MAX),
            retry: RetryState::start(policy, SimTime::ZERO),
            parts: Vec::new(),
            queue: VecDeque::new(),
            inflight: None,
            offset_queries: HashMap::new(),
            queue_retry_attempts: HashMap::new(),
            control: None,
            completed: 0,
            token: None,
            initialized: false,
            finishing: false,
            waiting_throttle: false,
            first_exchange: true,
            started: SimTime::ZERO,
            rpcs: 0,
            retries: 0,
            throttles: 0,
            token_refreshes: 0,
            wire_bytes: 0,
            span: SpanId::NONE,
            parent_span: SpanId::NONE,
            chunk_spans: Vec::new(),
        }
    }

    /// Nest this session's telemetry span under `parent` (e.g. a job span).
    pub fn with_parent_span(mut self, parent: SpanId) -> Self {
        self.parent_span = parent;
        self
    }

    #[allow(clippy::too_many_arguments)]
    fn spawn_rpc(
        &mut self,
        ctx: &mut Ctx<'_>,
        server: NodeId,
        req: u64,
        resp: u64,
        think: SimTime,
        span_name: &'static str,
        parent: SpanId,
    ) -> ProcessId {
        let mut spec = RpcSpec::control(self.client, server, self.opts.class)
            .with_payload(req, resp)
            .with_server_time(think)
            .traced(span_name, parent);
        if self.first_exchange {
            spec = spec.fresh();
            self.first_exchange = false;
        }
        self.rpcs += 1;
        self.wire_bytes += req;
        ctx.telemetry().counter_add("cloudstore.rpcs", 1);
        ctx.spawn(Box::new(Rpc::new(spec)))
    }

    fn begin_control(&mut self, ctx: &mut Ctx<'_>, kind: ControlKind) {
        debug_assert!(self.control.is_none(), "one control exchange at a time");
        let span_name = match kind {
            ControlKind::Auth => "rpc.auth",
            ControlKind::Refresh => "rpc.refresh",
            ControlKind::Init => "rpc.init",
            ControlKind::Finish => "rpc.finish",
        };
        let (server, (req, resp), think) = match kind {
            ControlKind::Auth => (
                self.provider.auth.server,
                self.provider.auth.grant_bytes,
                self.provider.auth.grant_server_time,
            ),
            ControlKind::Refresh => {
                self.token_refreshes += 1;
                ctx.telemetry().counter_add("cloudstore.token_refreshes", 1);
                let (t, span) = (ctx.now().as_nanos(), self.span);
                ctx.telemetry()
                    .event(t, Category::Session, "session.token_refresh", span, |_| {});
                (
                    self.provider.auth.server,
                    self.provider.auth.refresh_bytes,
                    self.provider.auth.refresh_server_time,
                )
            }
            ControlKind::Init => (
                self.frontend,
                self.provider.protocol.init_bytes,
                self.provider.protocol.init_server_time,
            ),
            ControlKind::Finish => (
                self.frontend,
                self.provider.protocol.finish_bytes,
                self.provider.protocol.finish_server_time,
            ),
        };
        let parent = self.span;
        let pid = self.spawn_rpc(ctx, server, req, resp, think, span_name, parent);
        self.control = Some((pid, kind));
    }

    fn token_ok(&self, now: SimTime) -> bool {
        self.token.map(|t| t.valid_at(now)).unwrap_or(false)
    }

    fn refresh_in_flight(&self) -> bool {
        matches!(
            self.control,
            Some((_, ControlKind::Refresh | ControlKind::Auth))
        )
    }

    /// Launch the next queued part when none is in flight; handle token
    /// expiry and throttling along the way.
    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        if self.waiting_throttle || !self.initialized || self.inflight.is_some() {
            return;
        }
        if self.queue.is_empty() {
            self.maybe_finish(ctx);
            return;
        }
        if !self.token_ok(ctx.now()) {
            if !self.refresh_in_flight() && self.control.is_none() {
                self.begin_control(ctx, ControlKind::Refresh);
            }
            return;
        }
        let task = self.queue.pop_front().expect("queue nonempty");
        // One chunk span per part index, opened at first launch and
        // spanning every retry and throttle wait of that part.
        if !self.chunk_spans[task.idx].is_some() {
            let (t, parent) = (ctx.now().as_nanos(), self.span);
            let (idx, part_bytes) = (task.idx, self.parts[task.idx]);
            self.chunk_spans[task.idx] =
                ctx.telemetry()
                    .span_begin_with(t, Category::Chunk, "part", parent, |a| {
                        a.set("index", idx).set("bytes", part_bytes);
                    });
        }
        let outcome = self.provider.faults.roll(ctx.rng());
        if let FaultOutcome::Throttled { wait } = outcome {
            self.throttles += 1;
            ctx.telemetry().counter_add("cloudstore.throttles", 1);
            let (t, span) = (ctx.now().as_nanos(), self.chunk_spans[task.idx]);
            let wait_ms = wait.as_millis_f64();
            ctx.telemetry()
                .event(t, Category::Chunk, "chunk.throttled", span, |a| {
                    a.set("wait_ms", wait_ms);
                });
            // Throttles charge the shared retry budget too — a frontend
            // answering 429 forever must terminate, not spin.
            if let Err(e) = self.retry.charge(self.frontend, ctx.now(), wait) {
                self.finish_exhausted(ctx, e);
                return;
            }
            self.waiting_throttle = true;
            self.queue.push_front(task);
            ctx.set_timer(wait, TIMER_THROTTLE);
            return;
        }
        let part = self.parts[task.idx];
        let p = &self.provider.protocol;
        let think = p.server_time_for_part(part);
        let req = part + p.per_chunk_header;
        let resp = p.per_chunk_response;
        let pid = self.spawn_rpc(
            ctx,
            self.frontend,
            req,
            resp,
            think,
            "rpc.part",
            self.chunk_spans[task.idx],
        );
        self.inflight = Some((pid, PartAttempt { task, outcome }));
    }

    fn maybe_finish(&mut self, ctx: &mut Ctx<'_>) {
        if self.finishing
            || self.completed < self.parts.len()
            || self.inflight.is_some()
            || !self.offset_queries.is_empty()
        {
            return;
        }
        self.finishing = true;
        if self.provider.protocol.has_finish_rpc() {
            self.begin_control(ctx, ControlKind::Finish);
        } else {
            self.finish_ok(ctx);
        }
    }

    fn finish_ok(&mut self, ctx: &mut Ctx<'_>) {
        let stats = TransferStats {
            bytes: self.bytes,
            elapsed: ctx.now().saturating_sub(self.started),
            rpcs: self.rpcs,
            retries: self.retries,
            throttles: self.throttles,
            token_refreshes: self.token_refreshes,
            wire_bytes: self.wire_bytes,
        };
        let provider = self.provider.kind.display_name();
        let bytes = self.bytes;
        ctx.telemetry().counter_add_dyn(
            || format!("cloudstore.bytes.{}", obs::metric_segment(provider)),
            bytes,
        );
        let (t, span) = (ctx.now().as_nanos(), self.span);
        ctx.telemetry().span_end(t, span);
        ctx.finish(stats.to_value());
    }

    /// End the session span on an unrecoverable error before finishing.
    /// Queued and in-flight chunk spans are still open at this point; close
    /// them too so aborted sessions export balanced traces.
    fn finish_err(&mut self, ctx: &mut Ctx<'_>, e: NetError) {
        let (t, span) = (ctx.now().as_nanos(), self.span);
        ctx.telemetry()
            .event(t, Category::Session, "session.error", span, |a| {
                a.set("error", e.to_string());
            });
        for chunk in self.chunk_spans.iter_mut() {
            if chunk.is_some() {
                ctx.telemetry().span_end(t, *chunk);
                *chunk = SpanId::NONE;
            }
        }
        ctx.telemetry().span_end(t, span);
        ctx.finish(Value::Error(e));
    }

    /// Abort because the retry budget or deadline ran out.
    fn finish_exhausted(&mut self, ctx: &mut Ctx<'_>, e: NetError) {
        let counter = match e {
            NetError::DeadlineExceeded { .. } => "cloudstore.retry.deadline_exceeded",
            _ => "cloudstore.retry.budget_exhausted",
        };
        ctx.telemetry().counter_add(counter, 1);
        self.finish_err(ctx, e);
    }

    fn on_part_done(&mut self, ctx: &mut Ctx<'_>, attempt: PartAttempt) {
        match attempt.outcome {
            FaultOutcome::Ok => {
                self.completed += 1;
                let t = ctx.now().as_nanos();
                ctx.telemetry()
                    .span_end(t, self.chunk_spans[attempt.task.idx]);
                // Mark it closed so an abort later never double-ends it.
                self.chunk_spans[attempt.task.idx] = SpanId::NONE;
                self.pump(ctx);
            }
            FaultOutcome::TransientError => {
                self.retries += 1;
                ctx.telemetry().counter_add("cloudstore.retries", 1);
                let attempts = attempt.task.attempts + 1;
                if attempts > self.provider.faults.max_retries {
                    self.finish_err(
                        ctx,
                        NetError::Blocked {
                            at: self.frontend,
                            reason: "part upload exceeded max retries",
                        },
                    );
                    return;
                }
                let backoff = self.retry.policy().backoff(attempts, ctx.rng());
                if let Err(e) = self.retry.charge(self.frontend, ctx.now(), backoff) {
                    self.finish_exhausted(ctx, e);
                    return;
                }
                let (t, span) = (ctx.now().as_nanos(), self.chunk_spans[attempt.task.idx]);
                let backoff_ms = backoff.as_millis_f64();
                ctx.telemetry()
                    .event(t, Category::Chunk, "chunk.retry", span, |a| {
                        a.set("attempt", attempts).set("backoff_ms", backoff_ms);
                    });
                // The attempt count rides in the timer tag (authoritative);
                // the map stays as a consistency cross-check.
                let tag = TIMER_BACKOFF_BASE
                    + ((attempts as u64) << TIMER_ATTEMPT_SHIFT)
                    + attempt.task.idx as u64;
                ctx.set_timer(backoff, tag);
                self.queue_retry_attempts.insert(attempt.task.idx, attempts);
                self.pump(ctx);
            }
            FaultOutcome::Throttled { .. } => {
                unreachable!("throttled attempts never reach the wire")
            }
        }
    }

    fn begin_offset_query(&mut self, ctx: &mut Ctx<'_>, task: PartTask) {
        // Resumable protocols ask the server how much it holds before
        // resending (Drive: PUT with Content-Range */N; Dropbox/OneDrive
        // have equivalent status calls).
        let pid = self.spawn_rpc(
            ctx,
            self.frontend,
            400,
            300,
            SimTime::from_millis(15),
            "rpc.offset",
            self.chunk_spans[task.idx],
        );
        self.offset_queries.insert(pid, task);
    }
}

impl Process for UploadSession {
    fn poll(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        match ev {
            Event::Started => {
                self.started = ctx.now();
                self.frontend = self.provider.frontend_for(ctx.topology(), self.client);
                // Anchor the deadline (if any) to the real start instant.
                self.retry = RetryState::start(*self.retry.policy(), self.started);
                self.parts = self.provider.protocol.parts(self.bytes);
                let (t, parent) = (ctx.now().as_nanos(), self.parent_span);
                let (provider, bytes, parts) = (
                    self.provider.kind.display_name(),
                    self.bytes,
                    self.parts.len(),
                );
                let vantage = ctx.topology().node(self.client).name.clone();
                self.span = ctx.telemetry().span_begin_with(
                    t,
                    Category::Session,
                    "upload-session",
                    parent,
                    |a| {
                        a.set("provider", provider)
                            .set("bytes", bytes)
                            .set("parts", parts)
                            .set("vantage", vantage);
                    },
                );
                if self.parts.is_empty() {
                    self.finish_err(ctx, NetError::EmptyTransfer);
                    return;
                }
                self.chunk_spans = vec![SpanId::NONE; self.parts.len()];
                self.queue = (0..self.parts.len())
                    .map(|idx| PartTask { idx, attempts: 0 })
                    .collect();
                match self.opts.token {
                    TokenPolicy::Fresh => self.begin_control(ctx, ControlKind::Auth),
                    TokenPolicy::Expired => self.begin_control(ctx, ControlKind::Refresh),
                    TokenPolicy::Cached => {
                        self.token = Some(TokenState::issued(ctx.now(), &self.provider.auth));
                        self.begin_control(ctx, ControlKind::Init);
                    }
                }
            }
            Event::ChildDone { child, value } => {
                if let Value::Error(e) = value {
                    self.finish_err(ctx, e);
                    return;
                }
                if let Some((pid, kind)) = self.control {
                    if pid == child {
                        self.control = None;
                        match kind {
                            ControlKind::Auth | ControlKind::Refresh => {
                                self.token =
                                    Some(TokenState::issued(ctx.now(), &self.provider.auth));
                                if self.initialized {
                                    self.pump(ctx);
                                } else {
                                    self.begin_control(ctx, ControlKind::Init);
                                }
                            }
                            ControlKind::Init => {
                                self.initialized = true;
                                self.pump(ctx);
                            }
                            ControlKind::Finish => self.finish_ok(ctx),
                        }
                        return;
                    }
                }
                if let Some((_, attempt)) = self.inflight.take_if(|(pid, _)| *pid == child) {
                    self.on_part_done(ctx, attempt);
                    return;
                }
                if let Some(task) = self.offset_queries.remove(&child) {
                    self.queue.push_front(task);
                    self.pump(ctx);
                }
            }
            Event::Timer {
                tag: TIMER_THROTTLE,
            } => {
                self.waiting_throttle = false;
                self.pump(ctx);
            }
            Event::Timer { tag } if tag >= TIMER_BACKOFF_BASE => {
                let payload = tag - TIMER_BACKOFF_BASE;
                let idx = (payload & ((1u64 << TIMER_ATTEMPT_SHIFT) - 1)) as usize;
                let attempts = (payload >> TIMER_ATTEMPT_SHIFT) as u32;
                // The timer-carried count is authoritative; losing the map
                // entry would silently restart the part's retry streak.
                let stored = self.queue_retry_attempts.remove(&idx);
                debug_assert_eq!(
                    stored,
                    Some(attempts),
                    "retry-attempt bookkeeping lost for part {idx}"
                );
                self.begin_offset_query(ctx, PartTask { idx, attempts });
            }
            _ => {}
        }
    }

    fn name(&self) -> &'static str {
        "upload-session"
    }

    fn abort(&mut self, ctx: &mut Ctx<'_>) {
        // Abandoned mid-transfer (e.g. the driver above us finished): close
        // every open chunk span and the session span so exported traces
        // stay balanced. In-flight RPC children clean up in their own
        // abort callbacks.
        let t = ctx.now().as_nanos();
        for chunk in self.chunk_spans.iter_mut() {
            if chunk.is_some() {
                ctx.telemetry().span_end(t, *chunk);
                *chunk = SpanId::NONE;
            }
        }
        ctx.telemetry().span_end(t, self.span);
    }
}

/// Run a complete upload on a simulator and return its stats.
pub fn upload(
    sim: &mut netsim::engine::Sim,
    client: NodeId,
    provider: &Provider,
    bytes: u64,
    opts: UploadOptions,
) -> Result<TransferStats, NetError> {
    upload_traced(sim, client, provider, bytes, opts, SpanId::NONE)
}

/// Like [`upload`], nesting the session's telemetry span under `parent`.
pub fn upload_traced(
    sim: &mut netsim::engine::Sim,
    client: NodeId,
    provider: &Provider,
    bytes: u64,
    opts: UploadOptions,
    parent: SpanId,
) -> Result<TransferStats, NetError> {
    let session =
        UploadSession::new(client, provider.clone(), bytes, opts).with_parent_span(parent);
    match sim.run_process(Box::new(session))? {
        Value::Error(e) => Err(e),
        v => Ok(TransferStats::from_value(&v)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use crate::protocol::ProviderKind;
    use netsim::geo::GeoPoint;
    use netsim::prelude::*;
    use netsim::units::MB;

    fn setup(mbps: f64) -> (Sim, NodeId, Provider) {
        let mut b = TopologyBuilder::new();
        let client = b.host("client", GeoPoint::new(49.0, -123.0));
        let pop = b.datacenter("pop", GeoPoint::new(37.0, -122.0));
        b.duplex(
            client,
            pop,
            LinkParams::new(Bandwidth::from_mbps(mbps), SimTime::from_millis(15)),
        );
        let provider = Provider::new(ProviderKind::GoogleDrive, pop);
        (Sim::new(b.build(), 1), client, provider)
    }

    #[test]
    fn upload_completes_with_sane_time() {
        let (mut sim, client, provider) = setup(80.0); // 10 MB/s
        let stats = upload(
            &mut sim,
            client,
            &provider,
            10 * MB,
            UploadOptions::warm(FlowClass::Commodity),
        )
        .unwrap();
        let s = stats.elapsed.as_secs_f64();
        // Fluid bound is 1 s; chunking and think time add some.
        assert!((1.0..3.0).contains(&s), "elapsed {s}");
        assert_eq!(stats.bytes, 10 * MB);
        // 10 MB / 8 MiB chunks = 2 parts + init.
        assert_eq!(stats.rpcs, 3);
        assert_eq!(stats.retries, 0);
    }

    #[test]
    fn cold_start_pays_oauth() {
        let (mut sim, client, provider) = setup(80.0);
        let warm = upload(
            &mut sim,
            client,
            &provider,
            10 * MB,
            UploadOptions::warm(FlowClass::Commodity),
        )
        .unwrap();
        let (mut sim2, client2, provider2) = setup(80.0);
        let cold = upload(
            &mut sim2,
            client2,
            &provider2,
            10 * MB,
            UploadOptions::cold(FlowClass::Commodity),
        )
        .unwrap();
        assert!(
            cold.elapsed > warm.elapsed,
            "cold {} warm {}",
            cold.elapsed,
            warm.elapsed
        );
        assert_eq!(cold.rpcs, warm.rpcs + 1);
    }

    #[test]
    fn small_files_dominated_by_round_trips() {
        let (mut sim, client, provider) = setup(800.0); // very fast link
        let stats = upload(
            &mut sim,
            client,
            &provider,
            MB,
            UploadOptions::warm(FlowClass::Commodity),
        )
        .unwrap();
        assert!(
            stats.elapsed > SimTime::from_millis(100),
            "elapsed {}",
            stats.elapsed
        );
    }

    #[test]
    fn flaky_provider_retries_and_succeeds() {
        let (mut sim, client, provider) = setup(80.0);
        let provider = provider.with_faults(FaultPlan::flaky());
        let stats = upload(
            &mut sim,
            client,
            &provider,
            100 * MB,
            UploadOptions::warm(FlowClass::Commodity),
        )
        .unwrap();
        assert_eq!(stats.bytes, 100 * MB);
        assert!(stats.retries + stats.throttles > 0, "no faults at all?");
        assert!(stats.wire_bytes > 100 * MB);
    }

    #[test]
    fn hopeless_provider_gives_up() {
        let (mut sim, client, provider) = setup(80.0);
        let mut faults = FaultPlan::flaky();
        faults.transient_prob = 1.0; // every part fails
        faults.throttle_prob = 0.0;
        let provider = provider.with_faults(faults);
        let err = upload(
            &mut sim,
            client,
            &provider,
            10 * MB,
            UploadOptions::warm(FlowClass::Commodity),
        )
        .unwrap_err();
        assert!(matches!(err, NetError::Blocked { .. }));
    }

    #[test]
    fn long_upload_refreshes_token() {
        // Slow link: 100 MB at 0.2 Mbps (25 KB/s) ≈ 4000 s > 3600 s token
        // lifetime, so the session must refresh mid-transfer.
        let (mut sim, client, provider) = setup(0.2);
        let stats = upload(
            &mut sim,
            client,
            &provider,
            100 * MB,
            UploadOptions::warm(FlowClass::Commodity),
        )
        .unwrap();
        assert!(stats.token_refreshes >= 1, "token never refreshed");
        assert_eq!(stats.bytes, 100 * MB);
    }

    #[test]
    fn zero_byte_upload_rejected() {
        let (mut sim, client, provider) = setup(10.0);
        let err = upload(&mut sim, client, &provider, 0, UploadOptions::default()).unwrap_err();
        assert_eq!(err, NetError::EmptyTransfer);
    }

    #[test]
    fn dropbox_finish_rpc_counted() {
        let mut b = TopologyBuilder::new();
        let client = b.host("client", GeoPoint::new(49.0, -123.0));
        let pop = b.datacenter("pop", GeoPoint::new(39.0, -77.0));
        b.duplex(
            client,
            pop,
            LinkParams::new(Bandwidth::from_mbps(80.0), SimTime::from_millis(30)),
        );
        let provider = Provider::new(ProviderKind::Dropbox, pop);
        let mut sim = Sim::new(b.build(), 1);
        let stats = upload(
            &mut sim,
            client,
            &provider,
            10 * MB,
            UploadOptions::warm(FlowClass::Commodity),
        )
        .unwrap();
        // 10 MB / 4 MiB = 3 parts + init + finish.
        assert_eq!(stats.rpcs, 5);
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut b = TopologyBuilder::new();
            let client = b.host("client", GeoPoint::new(49.0, -123.0));
            let pop = b.datacenter("pop", GeoPoint::new(37.0, -122.0));
            b.duplex(
                client,
                pop,
                LinkParams::new(Bandwidth::from_mbps(40.0), SimTime::from_millis(20)),
            );
            // Dropbox's 4 MiB parts give 100 MB ≈ 24 fault rolls per run.
            let provider =
                Provider::new(ProviderKind::Dropbox, pop).with_faults(FaultPlan::flaky());
            let mut sim = Sim::new(b.build(), seed);
            upload(
                &mut sim,
                client,
                &provider,
                100 * MB,
                UploadOptions::warm(FlowClass::Commodity),
            )
            .unwrap()
        };
        assert_eq!(run(5), run(5));
        let distinct: std::collections::HashSet<_> = [run(5), run(6), run(7)]
            .iter()
            .map(|s| s.elapsed.as_nanos())
            .collect();
        assert!(distinct.len() > 1, "all seeds produced identical timings");
    }
}
