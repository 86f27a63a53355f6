//! `paper`: the paper's upload grid, one simulated upload per op.
//!
//! Every (client, provider, route, size, run) cell of
//! [`ExperimentSet::paper`] — 3 × 3 × 3 × 7 × 7 = 1,323 jobs per batch — is
//! built with [`NorthAmerica::build_sim`] and run with
//! [`detour_core::run_job`], one at a time on this thread, with the seeds
//! and token policy [`Campaign::run`] uses. This is what `repro` and every
//! `detour simulate/trace/health` do: many small fresh simulations.

use crate::estimate::FastestRepeat;
use crate::report::{end_to_end, Outcome};
use crate::trace::{LayerStats, Tracer, OP};
use crate::Run;
use cloudstore::{Provider, ProviderKind, TokenPolicy, TransferStats, UploadOptions};
use detour_core::{run_job, Campaign, JobDetail, Route};
use measure::{RunProtocol, Stats};
use netsim::audit::Digest;
use netsim::flow::FlowClass;
use netsim::topology::NodeId;
use scenarios::northamerica::Client;
use scenarios::{ExperimentSet, NorthAmerica};
use std::hint::black_box;
use std::time::Instant;

/// `NorthAmerica::new` repetitions per batch (set-up samples).
const SETUPS_PER_BATCH: usize = 8;

struct Job {
    /// Index of the (client, provider) campaign.
    campaign: usize,
    node: NodeId,
    class: FlowClass,
    provider: Provider,
    bytes: u64,
    route: Route,
    seed: u64,
    token: TokenPolicy,
    /// Kept by the 7-run/keep-5 protocol.
    kept: bool,
}

/// What one job produced, for the output checks and the counters.
#[derive(Clone, Copy, Default)]
struct JobOut {
    secs: f64,
    events: u64,
    reallocations: u64,
    flows: u64,
    peak_queue: u64,
    rpcs: u64,
    retries: u64,
    payload: u64,
    wire: u64,
}

/// The grid's campaigns with labels derived from the workload seed, run
/// sequentially.
fn specs<'a>(set: &ExperimentSet<'a>, seed: u64) -> Vec<Campaign<'a>> {
    let mut out = Vec::new();
    for client in Client::all() {
        for provider in ProviderKind::all() {
            let mut c = set.campaign_spec(client, provider);
            c.label = format!("{}@{seed}", c.label);
            c.threads = 1;
            out.push(c);
        }
    }
    out
}

/// Every job of the grid in [`Campaign::run`]'s cell order.
fn jobs(camps: &[Campaign<'_>]) -> Vec<Job> {
    let mut jobs = Vec::new();
    for (ci, c) in camps.iter().enumerate() {
        let runs = c.protocol.total_runs;
        for &size in &c.sizes {
            for route in c.routes.iter() {
                // The per-run seed label Campaign::run derives for the cell.
                let label = format!(
                    "{}/{}/{}/{}/{}",
                    c.label,
                    c.client.name,
                    c.provider.kind.display_name(),
                    route.label(),
                    size
                );
                for run in 0..runs {
                    let warmup = run < c.protocol.discard;
                    jobs.push(Job {
                        campaign: ci,
                        node: c.client.node,
                        class: c.client.class,
                        provider: c.provider.clone().into_owned(),
                        bytes: size,
                        route: route.clone(),
                        seed: RunProtocol::run_seed(&label, run),
                        token: if warmup {
                            TokenPolicy::Fresh
                        } else {
                            TokenPolicy::Cached
                        },
                        kept: !warmup,
                    });
                }
            }
        }
    }
    jobs
}

fn transfer_stats(detail: &JobDetail) -> &TransferStats {
    match detail {
        JobDetail::Direct(t) => t,
        JobDetail::Detour(r) => &r.upload,
    }
}

fn job_span(route: &Route) -> &'static str {
    if route.is_detour() {
        "relay.detour_job"
    } else {
        "cloudstore.direct_job"
    }
}

/// Run one job; `None` when `run_job` fails.
fn run_one(world: &NorthAmerica, job: &Job, tr: &mut Tracer) -> Option<JobOut> {
    let mut sim = tr.span("scenarios.build_sim", |_| world.build_sim(job.seed));
    let opts = UploadOptions {
        token: job.token,
        class: job.class,
        ..UploadOptions::default()
    };
    let report = tr.span(job_span(&job.route), |_| {
        run_job(
            &mut sim,
            job.node,
            job.class,
            &job.provider,
            job.bytes,
            &job.route,
            opts,
        )
    });
    let stats = sim.stats();
    tr.span("netsim.drop_sim", |_| drop(sim));
    let report = report.ok()?;
    let t = transfer_stats(&report.detail);
    Some(JobOut {
        secs: report.secs(),
        events: stats.events,
        reallocations: stats.reallocations,
        flows: stats.flows_started,
        peak_queue: stats.peak_queue,
        rpcs: t.rpcs,
        retries: t.retries,
        payload: t.bytes,
        wire: t.wire_bytes,
    })
}

/// Output check: the grid's per-cell statistics equal [`Campaign::run`]'s
/// (single-threaded, same labels) bit for bit.
fn matches_campaigns(camps: &[Campaign<'_>], jobs: &[Job], outs: &[JobOut]) -> Result<(), String> {
    for (ci, c) in camps.iter().enumerate() {
        let result = c.run().map_err(|e| format!("Campaign::run failed: {e}"))?;
        let mine: Vec<(f64, bool)> = jobs
            .iter()
            .zip(outs)
            .filter(|(j, _)| j.campaign == ci)
            .map(|(j, o)| (o.secs, j.kept))
            .collect();
        let runs = c.protocol.total_runs;
        for (cell, chunk) in mine.chunks(runs).enumerate() {
            let kept: Vec<f64> = chunk.iter().filter(|(_, k)| *k).map(|(s, _)| *s).collect();
            let ours = Stats::from_samples(&kept);
            let (si, ri) = (cell / c.routes.len(), cell % c.routes.len());
            let theirs = result.stats(si, ri);
            let same = ours.n == theirs.n
                && [ours.mean, ours.std_dev, ours.min, ours.max]
                    .iter()
                    .zip([theirs.mean, theirs.std_dev, theirs.min, theirs.max])
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            if !same {
                return Err(format!(
                    "{} cell (size {si}, route {ri}): benchmark {ours:?} != Campaign::run {theirs:?}",
                    c.label
                ));
            }
        }
    }
    Ok(())
}

pub fn run(run: &Run) -> Outcome {
    let origin = Instant::now();
    let world = NorthAmerica::new();
    let set = ExperimentSet::paper(&world);
    let camps = specs(&set, run.seed);
    let jobs = jobs(&camps);
    let n = jobs.len();

    let mut untraced = FastestRepeat::new(n);
    let mut layers = LayerStats::default();
    let mut setup = Vec::new();
    let mut first: Option<(u64, Vec<JobOut>)> = None;
    let mut outcome = Outcome::default();
    let mut export = None;

    crate::run_batches(run, |batch, traced| {
        let mut tr = Tracer::new(traced, origin);
        for _ in 0..SETUPS_PER_BATCH {
            let t = Instant::now();
            let w = tr.span("scenarios.world_build", |_| NorthAmerica::new());
            black_box(&w);
            if !traced {
                setup.push(t.elapsed().as_secs_f64());
            }
        }
        let mut outs = Vec::with_capacity(n);
        let mut digest = Digest::new();
        for (i, job) in jobs.iter().enumerate() {
            tr.set_op(Some(i as u64));
            let op = tr.begin(OP);
            let t = Instant::now();
            let out = run_one(&world, job, &mut tr);
            let dt = t.elapsed().as_secs_f64();
            tr.end(op);
            tr.set_op(None);
            outcome.attempted += 1;
            match out {
                Some(o) => {
                    if !traced {
                        untraced.record(i, dt);
                    }
                    digest.write_u64(o.secs.to_bits());
                    outs.push(o);
                }
                None => {
                    outcome.failed += 1;
                    outcome.fail(format!("job {i} failed"));
                    digest.write_u64(u64::MAX);
                    outs.push(JobOut::default());
                }
            }
        }
        if traced {
            let rec = tr.take();
            layers.fold(&rec);
            export.get_or_insert(rec);
        } else {
            untraced.finish_batch();
        }
        match &first {
            None => first = Some((digest.finish(), outs)),
            Some((d, _)) if *d != digest.finish() => {
                outcome.fail(format!(
                    "batch {batch} simulated different upload times than batch 0"
                ));
            }
            Some(_) => {}
        }
    });

    let (first_digest, outs) = first.expect("at least one batch");
    if outcome.failed == 0 {
        if let Err(e) = matches_campaigns(&camps, &jobs, &outs) {
            outcome.fail(e);
        }
    }
    outcome.digest = first_digest;
    outcome.note(format!(
        "paper: {n} jobs per batch, {} untraced batches",
        untraced.batches()
    ));

    let events: u64 = outs.iter().map(|o| o.events).sum();
    if !run.trace {
        let sorted = untraced.sorted(0..n);
        let secs = untraced.total(0..n);
        end_to_end(&mut outcome, &setup, &sorted, events, secs);
        return outcome;
    }

    let per_job = |f: fn(&JobOut) -> u64| outs.iter().map(f).sum::<u64>() as f64 / n as f64;
    let job_ns = layers.total_ns("cloudstore.direct_job") + layers.total_ns("relay.detour_job");
    let (payload, wire) = outs
        .iter()
        .fold((0u64, 0u64), |(p, w), o| (p + o.payload, w + o.wire));
    outcome.layer(
        "scenarios.world_build_us",
        layers.setup_ns("scenarios.world_build") / 1e3,
    );
    outcome.layer(
        "scenarios.build_sim_us",
        layers.mean_ns("scenarios.build_sim") / 1e3,
    );
    outcome.layer(
        "cloudstore.direct_job_us",
        layers.mean_ns("cloudstore.direct_job") / 1e3,
    );
    outcome.layer(
        "relay.detour_job_us",
        layers.mean_ns("relay.detour_job") / 1e3,
    );
    outcome.layer("netsim.paper.ns_per_event", job_ns / events as f64);
    outcome.layer("netsim.paper.events_per_op", per_job(|o| o.events));
    outcome.layer(
        "netsim.paper.reallocations_per_op",
        per_job(|o| o.reallocations),
    );
    outcome.layer("netsim.paper.flows_per_op", per_job(|o| o.flows));
    outcome.layer(
        "netsim.paper.peak_queue",
        outs.iter().map(|o| o.peak_queue).max().unwrap_or(0) as f64,
    );
    outcome.layer("cloudstore.rpcs_per_job", per_job(|o| o.rpcs));
    outcome.layer("cloudstore.retries_per_job", per_job(|o| o.retries));
    outcome.layer(
        "cloudstore.payload_wire_ratio",
        payload as f64 / wire as f64,
    );
    crate::finish_traced(run, &mut outcome, &layers, untraced.total(0..n), export);
    outcome
}
