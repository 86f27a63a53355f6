//! Chunked downloads (ranged GETs).
//!
//! The paper's APIs support downloads through the same session machinery;
//! the paper only reports upload measurements, so this path is our
//! extension (exercised by this module's tests and
//! `tests/end_to_end_detours.rs`).
//!
//! Downloads share the provider's [`FaultPlan`](crate::faults::FaultPlan)
//! and the resilience plane ([`crate::resilience`]): ranged GETs can be
//! throttled (`429`) or fail transiently (`5xx`), both of which charge the
//! session-wide retry budget and respect an optional deadline. Fault rolls
//! are gated on [`FaultPlan::is_active`](crate::faults::FaultPlan::is_active)
//! so fault-free downloads draw nothing from the shared simulation PRNG.

use crate::faults::FaultOutcome;
use crate::oauth::{TokenPolicy, TokenState};
use crate::provider::Provider;
use crate::report::TransferStats;
use crate::resilience::{RetryPolicy, RetryState};
use crate::session::UploadOptions;
use netsim::engine::{Ctx, Event, Process, ProcessId, Value};
use netsim::error::NetError;
use netsim::rpc::{Rpc, RpcSpec};
use netsim::time::SimTime;
use netsim::topology::NodeId;

#[derive(Debug, Clone, Copy, PartialEq)]
enum State {
    Idle,
    Auth,
    Metadata,
    Fetching,
}

const TIMER_THROTTLE: u64 = 1;
const TIMER_BACKOFF: u64 = 2;

/// Download one file from a provider; finishes with packed
/// [`TransferStats`].
pub struct DownloadSession {
    client: NodeId,
    provider: Provider,
    bytes: u64,
    opts: UploadOptions,

    state: State,
    frontend: NodeId,
    parts: Vec<u64>,
    next_part: usize,
    token: Option<TokenState>,
    pending_child: Option<ProcessId>,
    pending_outcome: FaultOutcome,
    attempts: u32,
    retry: RetryState,
    first_exchange: bool,
    started: SimTime,
    rpcs: u64,
    retries: u64,
    throttles: u64,
    wire_bytes: u64,
}

impl DownloadSession {
    /// Build a download session.
    pub fn new(client: NodeId, provider: Provider, bytes: u64, opts: UploadOptions) -> Self {
        let policy = opts
            .retry
            .unwrap_or_else(|| RetryPolicy::from_plan(&provider.faults));
        DownloadSession {
            client,
            provider,
            bytes,
            opts,
            state: State::Idle,
            frontend: NodeId(u32::MAX),
            parts: Vec::new(),
            next_part: 0,
            token: None,
            pending_child: None,
            pending_outcome: FaultOutcome::Ok,
            attempts: 0,
            retry: RetryState::start(policy, SimTime::ZERO),
            first_exchange: true,
            started: SimTime::ZERO,
            rpcs: 0,
            retries: 0,
            throttles: 0,
            wire_bytes: 0,
        }
    }

    fn rpc(&mut self, ctx: &mut Ctx<'_>, req: u64, resp: u64, think: SimTime) {
        let mut spec = RpcSpec::control(self.client, self.frontend, self.opts.class)
            .with_payload(req, resp)
            .with_server_time(think);
        if self.first_exchange {
            spec = spec.fresh();
            self.first_exchange = false;
        }
        self.rpcs += 1;
        self.wire_bytes += resp;
        self.pending_child = Some(ctx.spawn(Box::new(Rpc::new(spec))));
    }

    fn finish_exhausted(&mut self, ctx: &mut Ctx<'_>, e: NetError) {
        let counter = match e {
            NetError::DeadlineExceeded { .. } => "cloudstore.retry.deadline_exceeded",
            _ => "cloudstore.retry.budget_exhausted",
        };
        ctx.telemetry().counter_add(counter, 1);
        ctx.finish(Value::Error(e));
    }

    /// Advance to the next part (or finish), resetting the per-part retry
    /// streak.
    fn fetch_next(&mut self, ctx: &mut Ctx<'_>) {
        if self.next_part >= self.parts.len() {
            let stats = TransferStats {
                bytes: self.bytes,
                elapsed: ctx.now().saturating_sub(self.started),
                rpcs: self.rpcs,
                retries: self.retries,
                throttles: self.throttles,
                token_refreshes: 0,
                wire_bytes: self.wire_bytes,
            };
            ctx.finish(stats.to_value());
            return;
        }
        self.attempts = 0;
        self.fetch_current(ctx);
    }

    /// (Re-)issue the ranged GET for the current part, rolling the fault
    /// plan first. Throttles never reach the wire: they charge the budget
    /// and arm a `Retry-After` timer.
    fn fetch_current(&mut self, ctx: &mut Ctx<'_>) {
        let part = self.parts[self.next_part];
        self.state = State::Fetching;
        self.pending_outcome = if self.provider.faults.is_active() {
            self.provider.faults.roll(ctx.rng())
        } else {
            FaultOutcome::Ok
        };
        if let FaultOutcome::Throttled { wait } = self.pending_outcome {
            self.throttles += 1;
            ctx.telemetry().counter_add("cloudstore.throttles", 1);
            if let Err(e) = self.retry.charge(self.frontend, ctx.now(), wait) {
                self.finish_exhausted(ctx, e);
                return;
            }
            ctx.set_timer(wait, TIMER_THROTTLE);
            return;
        }
        let per_chunk_response = self.provider.protocol.per_chunk_response;
        let per_chunk_server_time = self.provider.protocol.per_chunk_server_time;
        // Ranged GET: small request, part-sized response.
        self.rpc(ctx, 500, part + per_chunk_response, per_chunk_server_time);
    }

    fn on_part_done(&mut self, ctx: &mut Ctx<'_>) {
        match self.pending_outcome {
            FaultOutcome::Ok => {
                self.next_part += 1;
                self.fetch_next(ctx);
            }
            FaultOutcome::TransientError => {
                self.retries += 1;
                ctx.telemetry().counter_add("cloudstore.retries", 1);
                self.attempts += 1;
                if self.attempts > self.provider.faults.max_retries {
                    ctx.finish(Value::Error(NetError::Blocked {
                        at: self.frontend,
                        reason: "part download exceeded max retries",
                    }));
                    return;
                }
                let backoff = self.retry.policy().backoff(self.attempts, ctx.rng());
                if let Err(e) = self.retry.charge(self.frontend, ctx.now(), backoff) {
                    self.finish_exhausted(ctx, e);
                    return;
                }
                ctx.set_timer(backoff, TIMER_BACKOFF);
            }
            FaultOutcome::Throttled { .. } => {
                unreachable!("throttled GETs never reach the wire")
            }
        }
    }
}

impl Process for DownloadSession {
    fn poll(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        match ev {
            Event::Started => {
                self.started = ctx.now();
                self.frontend = self.provider.frontend_for(ctx.topology(), self.client);
                // Anchor the deadline (if any) to the real start instant.
                self.retry = RetryState::start(*self.retry.policy(), self.started);
                self.parts = self.provider.protocol.parts(self.bytes);
                if self.parts.is_empty() {
                    ctx.finish(Value::Error(NetError::EmptyTransfer));
                    return;
                }
                match self.opts.token {
                    TokenPolicy::Cached => {
                        self.token = Some(TokenState::issued(ctx.now(), &self.provider.auth));
                        self.state = State::Metadata;
                        let (req, resp) = self.provider.protocol.init_bytes;
                        let think = self.provider.protocol.init_server_time;
                        self.rpc(ctx, req, resp, think);
                    }
                    _ => {
                        self.state = State::Auth;
                        let (req, resp) = self.provider.auth.grant_bytes;
                        let think = self.provider.auth.grant_server_time;
                        let server = self.provider.auth.server;
                        // Auth goes to the auth endpoint, not the POP.
                        let mut spec = RpcSpec::control(self.client, server, self.opts.class)
                            .with_payload(req, resp)
                            .with_server_time(think);
                        if self.first_exchange {
                            spec = spec.fresh();
                            self.first_exchange = false;
                        }
                        self.rpcs += 1;
                        self.pending_child = Some(ctx.spawn(Box::new(Rpc::new(spec))));
                    }
                }
            }
            Event::ChildDone { child, value } => {
                if Some(child) != self.pending_child {
                    return;
                }
                self.pending_child = None;
                if let Value::Error(e) = value {
                    ctx.finish(Value::Error(e));
                    return;
                }
                match self.state {
                    State::Auth => {
                        self.token = Some(TokenState::issued(ctx.now(), &self.provider.auth));
                        self.state = State::Metadata;
                        let (req, resp) = self.provider.protocol.init_bytes;
                        let think = self.provider.protocol.init_server_time;
                        self.rpc(ctx, req, resp, think);
                    }
                    State::Metadata => self.fetch_next(ctx),
                    State::Fetching => self.on_part_done(ctx),
                    State::Idle => {}
                }
            }
            Event::Timer { tag } if tag == TIMER_THROTTLE || tag == TIMER_BACKOFF => {
                self.fetch_current(ctx);
            }
            _ => {}
        }
    }

    fn name(&self) -> &'static str {
        "download-session"
    }
}

/// Run a complete download on a simulator and return its stats.
pub fn download(
    sim: &mut netsim::engine::Sim,
    client: NodeId,
    provider: &Provider,
    bytes: u64,
    opts: UploadOptions,
) -> Result<TransferStats, NetError> {
    let session = DownloadSession::new(client, provider.clone(), bytes, opts);
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
    use netsim::flow::FlowClass;
    use netsim::geo::GeoPoint;
    use netsim::prelude::*;
    use netsim::units::MB;

    fn setup(up_mbps: f64, down_mbps: f64) -> (Sim, NodeId, Provider) {
        let mut b = TopologyBuilder::new();
        let client = b.host("client", GeoPoint::new(49.0, -123.0));
        let pop = b.datacenter("pop", GeoPoint::new(37.0, -122.0));
        b.duplex_asym(
            client,
            pop,
            LinkParams::new(Bandwidth::from_mbps(up_mbps), SimTime::from_millis(15)),
            LinkParams::new(Bandwidth::from_mbps(down_mbps), SimTime::from_millis(15)),
        );
        let provider = Provider::new(ProviderKind::GoogleDrive, pop);
        (Sim::new(b.build(), 1), client, provider)
    }

    #[test]
    fn download_completes() {
        let (mut sim, client, provider) = setup(10.0, 80.0);
        let stats = download(
            &mut sim,
            client,
            &provider,
            10 * MB,
            UploadOptions::warm(FlowClass::Commodity),
        )
        .unwrap();
        let s = stats.elapsed.as_secs_f64();
        assert!((1.0..3.0).contains(&s), "elapsed {s}");
    }

    #[test]
    fn download_uses_downlink_not_uplink() {
        // Uplink is a trickle; a fast download proves parts flow downstream.
        let (mut sim, client, provider) = setup(2.0, 160.0);
        let stats = download(
            &mut sim,
            client,
            &provider,
            20 * MB,
            UploadOptions::warm(FlowClass::Commodity),
        )
        .unwrap();
        assert!(
            stats.elapsed < SimTime::from_secs(4),
            "download throttled by uplink: {}",
            stats.elapsed
        );
    }

    #[test]
    fn cold_download_pays_auth() {
        let (mut sim, client, provider) = setup(10.0, 80.0);
        let warm = download(
            &mut sim,
            client,
            &provider,
            10 * MB,
            UploadOptions::warm(FlowClass::Commodity),
        )
        .unwrap();
        let (mut sim2, c2, p2) = setup(10.0, 80.0);
        let cold = download(
            &mut sim2,
            c2,
            &p2,
            10 * MB,
            UploadOptions::cold(FlowClass::Commodity),
        )
        .unwrap();
        assert_eq!(cold.rpcs, warm.rpcs + 1);
        assert!(cold.elapsed > warm.elapsed);
    }

    #[test]
    fn zero_byte_download_rejected() {
        let (mut sim, client, provider) = setup(10.0, 10.0);
        let err = download(&mut sim, client, &provider, 0, UploadOptions::default()).unwrap_err();
        assert_eq!(err, NetError::EmptyTransfer);
    }

    #[test]
    fn flaky_download_retries_and_succeeds() {
        // Dropbox's 4 MiB parts give 100 MB ≈ 24 fault rolls per run.
        let (mut sim, client, mut provider) = setup(10.0, 80.0);
        provider =
            Provider::new(ProviderKind::Dropbox, provider.pops[0]).with_faults(FaultPlan::flaky());
        let flaky = download(
            &mut sim,
            client,
            &provider,
            100 * MB,
            UploadOptions::warm(FlowClass::Commodity),
        )
        .unwrap();
        let (mut sim2, c2, p2) = setup(10.0, 80.0);
        let p2 = Provider::new(ProviderKind::Dropbox, p2.pops[0]);
        let clean = download(
            &mut sim2,
            c2,
            &p2,
            100 * MB,
            UploadOptions::warm(FlowClass::Commodity),
        )
        .unwrap();
        assert_eq!(flaky.bytes, clean.bytes);
        assert!(
            flaky.retries + flaky.throttles > 0,
            "expected at least one injected fault over 40 MB"
        );
        assert!(flaky.elapsed >= clean.elapsed);
    }

    #[test]
    fn hopeless_throttling_download_terminates() {
        let (mut sim, client, mut provider) = setup(10.0, 80.0);
        provider.faults.throttle_prob = 1.0;
        let err = download(
            &mut sim,
            client,
            &provider,
            10 * MB,
            UploadOptions::warm(FlowClass::Commodity),
        )
        .unwrap_err();
        assert!(
            matches!(err, NetError::RetryBudgetExhausted { .. }),
            "expected budget exhaustion, got {err}"
        );
    }

    #[test]
    fn download_deadline_enforced() {
        let (mut sim, client, mut provider) = setup(10.0, 80.0);
        provider.faults = FaultPlan::flaky();
        provider.faults.throttle_prob = 0.5;
        let policy =
            RetryPolicy::from_plan(&provider.faults).with_deadline(SimTime::from_millis(200));
        let err = download(
            &mut sim,
            client,
            &provider,
            40 * MB,
            UploadOptions::warm(FlowClass::Commodity).with_retry(policy),
        )
        .unwrap_err();
        assert!(
            matches!(err, NetError::DeadlineExceeded { .. }),
            "expected deadline exceeded, got {err}"
        );
    }

    #[test]
    fn fault_free_download_unchanged_by_resilience_plumbing() {
        // FaultPlan::none() must draw nothing from the PRNG: two identical
        // sims, one nominally carrying a retry policy, time out identically.
        let (mut sim, client, provider) = setup(10.0, 80.0);
        let base = download(
            &mut sim,
            client,
            &provider,
            10 * MB,
            UploadOptions::warm(FlowClass::Commodity),
        )
        .unwrap();
        let (mut sim2, c2, p2) = setup(10.0, 80.0);
        let policy = RetryPolicy::from_plan(&p2.faults).with_deadline(SimTime::from_secs(3600));
        let with_policy = download(
            &mut sim2,
            c2,
            &p2,
            10 * MB,
            UploadOptions::warm(FlowClass::Commodity).with_retry(policy),
        )
        .unwrap();
        assert_eq!(base.elapsed, with_policy.elapsed);
        assert_eq!(base.rpcs, with_policy.rpcs);
    }
}
