//! `crowd`: closed-loop uploads over a multi-cloud WAN, one completed upload
//! per op.
//!
//! A ~2,000-node [`SynthGlobe`] (4 regions, 3 clouds) carries 256 simulated
//! clients, 64 per region. Each keeps one 1–8 MB upload in flight to the
//! regional frontend of a random cloud and starts the next when the last
//! lands, all in one long simulation per world driven by a benchmark-side
//! [`Process`]. The engine's event queue, allocator and rate application
//! carry this workload (the many-flow regime ROADMAP item 2 targets), while
//! per-job set-up, cloudstore, relay, transfer and obs do nothing. Uploads
//! to regional frontends couple into many small max-min components (the
//! run prints the largest), not one spanning every upload.
//!
//! Per-event cost depends on each generated world's structure, so a batch
//! simulates [`WORLDS`] worlds drawn from the workload seed, one after
//! another; completion `j` of world `w` is identical work in every batch.

use crate::estimate::FastestRepeat;
use crate::report::{end_to_end, Outcome};
use crate::trace::{LayerStats, Tracer, OP};
use crate::Run;
use netsim::audit::Digest;
use netsim::engine::{Ctx, Event, Process, Sim, SimStats, Value};
use netsim::error::NetResult;
use netsim::flow::{FlowClass, FlowSpec};
use netsim::synth::SynthGlobe;
use netsim::topology::NodeId;
use netsim::units::MB;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Instant;

/// Target node count of the globe.
const NODES: usize = 2_000;
/// Concurrent clients (uploads in flight), spread evenly over regions.
const CLIENTS: usize = 256;
/// Completions before steady state (the first uploads all start at once;
/// after two per client the engine holds its steady 256 flows).
const WARMUP: usize = 512;
/// Steady-state completions timed per world.
const STEADY: usize = 512;
/// Completions per world.
const TOTAL: usize = WARMUP + STEADY;
/// Worlds per batch: one world's per-event cost depends on its structure
/// (access capacities, which uplinks its uploads share) by ±17% between
/// seeds, so a batch averages sixteen short simulations. Ten worlds of
/// 5,120 completions spread ten seeds' `ops_per_s` by 0.15; sixteen of
/// 1,024 repeat twice as closely, with more repeats per run.
const WORLDS: usize = 16;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Client {
    node: NodeId,
    region: usize,
    rng: u64,
}

/// State the load generator shares with the batch loop.
struct Shared {
    origin: Instant,
    tracer: Tracer,
    /// Op id of this world's first completion.
    op_base: u64,
    /// Host ns at the end of each completion's callback.
    stamps: Vec<u64>,
    ramp_end: u64,
    ramp_secs: f64,
    started: u64,
    completed: u64,
    failed: u64,
    bytes_completed: u64,
    wrong_bytes: u64,
    /// Completion sequence: flow id and sim time of every landing.
    sequence: Digest,
}

impl Shared {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// The closed-loop load generator.
struct Crowd {
    shared: Rc<RefCell<Shared>>,
    clients: Vec<Client>,
    /// `frontends[cloud][region]`.
    frontends: Vec<Vec<NodeId>>,
    inflight: HashMap<u64, (usize, u64)>,
}

impl Crowd {
    fn start_upload(&mut self, ctx: &mut Ctx<'_>, c: usize, sh: &mut Shared) {
        let client = &mut self.clients[c];
        let r = splitmix(&mut client.rng);
        let bytes = MB + r % (7 * MB + 1);
        let dst = self.frontends[(r >> 40) as usize % self.frontends.len()][client.region];
        let spec = FlowSpec::new(client.node, dst, bytes, FlowClass::Commodity);
        match ctx.start_flow(spec) {
            Ok(flow) => {
                sh.started += 1;
                self.inflight.insert(flow.0, (c, bytes));
            }
            Err(_) => sh.failed += 1,
        }
    }
}

impl Process for Crowd {
    fn poll(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        let shared = Rc::clone(&self.shared);
        let mut sh = shared.borrow_mut();
        let sh = &mut *sh;
        match ev {
            Event::Started => {
                let t = Instant::now();
                let ramp = sh.tracer.begin("netsim.ramp");
                for c in 0..self.clients.len() {
                    self.start_upload(ctx, c, sh);
                }
                sh.tracer.end(ramp);
                sh.ramp_secs = t.elapsed().as_secs_f64();
                sh.ramp_end = sh.now_ns();
            }
            Event::FlowCompleted { flow, bytes, .. } => {
                let j = sh.stamps.len();
                let prev = sh.stamps.last().copied().unwrap_or(sh.ramp_end);
                sh.tracer.set_op(Some(sh.op_base + j as u64));
                let op = sh.tracer.begin_at(OP, prev);
                let poll = sh.tracer.begin("crowd.poll");
                let (c, want) = self
                    .inflight
                    .remove(&flow.0)
                    .expect("completion of a flow this generator started");
                sh.wrong_bytes += (bytes != want) as u64;
                sh.completed += 1;
                sh.bytes_completed += want;
                sh.sequence.write_u64(flow.0);
                sh.sequence.write_u64(ctx.now_ns());
                if j + 1 == WARMUP + STEADY {
                    ctx.finish(Value::U64(sh.completed));
                } else {
                    let sf = sh.tracer.begin("netsim.start_flow");
                    self.start_upload(ctx, c, sh);
                    sh.tracer.end(sf);
                }
                let t = sh.now_ns();
                sh.tracer.end_at(poll, t);
                sh.tracer.end_at(op, t);
                sh.tracer.set_op(None);
                sh.stamps.push(t);
            }
            Event::FlowFailed { flow, .. } => {
                sh.failed += 1;
                if let Some((c, _)) = self.inflight.remove(&flow.0) {
                    self.start_upload(ctx, c, sh);
                }
            }
            Event::Timer { .. } | Event::ChildDone { .. } => {}
        }
    }

    fn name(&self) -> &'static str {
        "perfbench-crowd"
    }
}

fn globe(seed: u64) -> SynthGlobe {
    SynthGlobe {
        seed,
        ..SynthGlobe::default()
    }
    .with_target_nodes(NODES)
}

/// 64 distinct clients per region, drawn from the seed.
fn clients(cfg: &SynthGlobe, hosts: &[NodeId], seed: u64) -> Vec<Client> {
    let mut rng = seed ^ 0xC0FF_EE00;
    let per_region = CLIENTS / cfg.regions;
    let mut out = Vec::with_capacity(CLIENTS);
    for region in 0..cfg.regions {
        let mut pool: Vec<NodeId> =
            hosts[region * cfg.hosts_per_region..(region + 1) * cfg.hosts_per_region].to_vec();
        for k in 0..per_region {
            let pick = k + (splitmix(&mut rng) as usize) % (pool.len() - k);
            pool.swap(k, pick);
            out.push(Client {
                node: pool[k],
                region,
                rng: splitmix(&mut rng),
            });
        }
    }
    out
}

/// What one world's simulation produced.
struct WorldOut {
    stats: SimStats,
    /// Allocator-active flows and the largest max-min component among
    /// them when the run ends.
    active: usize,
    largest_component: usize,
    state_digest: u64,
    sequence: u64,
    setup_secs: f64,
}

/// Build world `seed` and run one whole simulation of it; its ops are
/// numbered from `op_base`. Hands the shared state (tracer, timestamps,
/// counters) back with the outcome.
fn simulate(
    seed: u64,
    op_base: u64,
    tracer: Tracer,
    origin: Instant,
) -> (Shared, Result<WorldOut, String>) {
    let shared = Rc::new(RefCell::new(Shared {
        origin,
        tracer,
        op_base,
        stamps: Vec::with_capacity(WARMUP + STEADY),
        ramp_end: 0,
        ramp_secs: 0.0,
        started: 0,
        completed: 0,
        failed: 0,
        bytes_completed: 0,
        wrong_bytes: 0,
        sequence: Digest::new(),
    }));
    let cfg = globe(seed);
    let t = Instant::now();
    let world = shared
        .borrow_mut()
        .tracer
        .span("netsim.globe_build", |_| cfg.build());
    let clients = clients(&cfg, &world.hosts, seed);
    let frontends = world.frontends;
    let mut sim = shared
        .borrow_mut()
        .tracer
        .span("netsim.sim_new", |_| Sim::new(world.topo, seed));
    let built = t.elapsed().as_secs_f64();
    let generator = Crowd {
        shared: Rc::clone(&shared),
        clients,
        frontends,
        inflight: HashMap::with_capacity(CLIENTS),
    };
    let rp = shared.borrow_mut().tracer.begin("netsim.run_process");
    let result = sim.run_process(Box::new(generator));
    shared.borrow_mut().tracer.end(rp);
    let stats = sim.stats();
    let components = sim.flow_components();
    let state_digest = sim.state_digest();
    drop(sim);
    let sh = Rc::into_inner(shared)
        .expect("the finished simulation released its load generator")
        .into_inner();
    let out = check_world(&sh, result, stats).map(|()| WorldOut {
        stats,
        active: components.iter().map(Vec::len).sum(),
        largest_component: components.iter().map(Vec::len).max().unwrap_or(0),
        state_digest,
        sequence: sh.sequence.finish(),
        setup_secs: built + sh.ramp_secs,
    });
    (sh, out)
}

/// Output checks on one world: the run ended after its last completion;
/// every client but the one whose landing ended the run still has one
/// upload in flight; engine and generator agree on flows and bytes, and every
/// completed upload delivered exactly the bytes it started with.
fn check_world(sh: &Shared, result: NetResult<Value>, stats: SimStats) -> Result<(), String> {
    match result {
        Ok(Value::U64(n)) if n == (WARMUP + STEADY) as u64 => {}
        other => return Err(format!("crowd run ended with {other:?}")),
    }
    let in_flight = sh.started - sh.completed;
    if stats.flows_started != sh.started
        || stats.flows_completed != sh.completed
        || in_flight != CLIENTS as u64 - 1
        || stats.bytes_delivered != sh.bytes_completed
        || sh.wrong_bytes != 0
    {
        return Err(format!(
            "flow accounting: engine started {} completed {} delivered {} B; generator started {} \
             completed {} ({} in flight) delivered {} B, {} wrong-size completions",
            stats.flows_started,
            stats.flows_completed,
            stats.bytes_delivered,
            sh.started,
            sh.completed,
            in_flight,
            sh.bytes_completed,
            sh.wrong_bytes
        ));
    }
    Ok(())
}

/// The batch's world seeds, derived from the workload seed.
fn world_seeds(seed: u64) -> Vec<u64> {
    let mut state = seed;
    (0..WORLDS).map(|_| splitmix(&mut state)).collect()
}

pub fn run(run: &Run) -> Outcome {
    let origin = Instant::now();
    let seeds = world_seeds(run.seed);
    let mut untraced = FastestRepeat::new(WORLDS * TOTAL);
    let mut layers = LayerStats::default();
    let mut setup = Vec::new();
    let mut outcome = Outcome::default();
    let mut first: Option<Vec<WorldOut>> = None;
    let mut export = None;

    crate::run_batches(run, |b, traced| {
        let mut tracer = Tracer::new(traced, origin);
        let mut outs = Vec::with_capacity(WORLDS);
        for (w, &seed) in seeds.iter().enumerate() {
            let (sh, result) = simulate(seed, (w * TOTAL) as u64, tracer, origin);
            tracer = sh.tracer;
            outcome.attempted += sh.completed + sh.failed;
            outcome.failed += sh.failed;
            match result {
                Ok(out) => outs.push(out),
                Err(e) => {
                    outcome.fail(format!("batch {b}, world {w}: {e}"));
                    return;
                }
            }
            if !traced {
                let mut prev = sh.ramp_end;
                for (j, &t) in sh.stamps.iter().enumerate() {
                    untraced.record(w * TOTAL + j, (t - prev) as f64 / 1e9);
                    prev = t;
                }
            }
        }
        if traced {
            let rec = tracer.take();
            layers.fold(&rec);
            export.get_or_insert(rec);
        } else {
            untraced.finish_batch();
            setup.push(outs.iter().map(|o| o.setup_secs).sum::<f64>() / WORLDS as f64);
        }
        let key = |o: &WorldOut| (o.state_digest, o.sequence);
        match &first {
            None => first = Some(outs),
            Some(f) if !f.iter().map(key).eq(outs.iter().map(key)) => {
                outcome.fail(format!(
                    "batch {b}: a same-seed re-run diverged from batch 0"
                ));
            }
            Some(_) => {}
        }
    });

    let Some(first) = first else {
        return outcome;
    };
    let mut d = Digest::new();
    for o in &first {
        d.write_u64(o.state_digest);
        d.write_u64(o.sequence);
    }
    outcome.digest = d.finish();
    let sum = |f: fn(&SimStats) -> u64| first.iter().map(|o| f(&o.stats)).sum::<u64>();
    let events = sum(|s| s.events);
    outcome.note(format!(
        "crowd: {WORLDS} worlds of {NODES} nodes, {CLIENTS} clients each, {WARMUP} warm-up + \
         {STEADY} timed completions per world, {} untraced batches, {events} engine events per \
         batch; at the end {} flows are allocator-active, the largest max-min component holds {}",
        untraced.batches(),
        first.iter().map(|o| o.active).sum::<usize>(),
        first.iter().map(|o| o.largest_component).max().unwrap_or(0)
    ));
    let ops = WORLDS * TOTAL;
    if !run.trace {
        let best = untraced.best();
        let mut steady: Vec<f64> = (0..WORLDS)
            .flat_map(|w| best[w * TOTAL + WARMUP..(w + 1) * TOTAL].iter().copied())
            .collect();
        steady.sort_by(f64::total_cmp);
        end_to_end(
            &mut outcome,
            &setup,
            &steady,
            events,
            untraced.total(0..ops),
        );
        return outcome;
    }

    outcome.layer(
        "netsim.globe_build_ms",
        layers.setup_ns("netsim.globe_build") / 1e6,
    );
    outcome.layer("netsim.sim_new_ms", layers.setup_ns("netsim.sim_new") / 1e6);
    outcome.layer("netsim.start_flow_ns", layers.mean_ns("netsim.start_flow"));
    outcome.layer(
        "netsim.crowd.ns_per_event",
        layers.total_self_ns(OP) / events as f64,
    );
    outcome.layer(
        "netsim.crowd.reallocations_per_op",
        sum(|s| s.reallocations) as f64 / ops as f64,
    );
    outcome.layer(
        "netsim.crowd.peak_queue",
        first.iter().map(|o| o.stats.peak_queue).max().unwrap_or(0) as f64,
    );
    outcome.layer(
        "netsim.crowd.queue_compactions",
        sum(|s| s.queue_compactions) as f64 / WORLDS as f64,
    );
    crate::finish_traced(run, &mut outcome, &layers, untraced.total(0..ops), export);
    outcome
}
