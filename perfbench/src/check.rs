//! `check`: the CI simcheck mix, one checked case per op.
//!
//! Cases come from [`ScenarioSpec::generate`], `generate_chaos` and
//! `generate_sync` over [`case_seed`]`(seed, i)`, the three classes
//! interleaved in equal counts as CI runs them, and each goes through
//! [`check_case`] exactly as `detour check` calls it: 9–10 executions with
//! health folding forced on plus the plane-coherence check.
//!
//! Per-case cost is heavy-tailed, so a plain run of the first cases of the
//! seed's stream measures which cases the seed drew as much as the code.
//! The run's cases are therefore a stratified sample of the stream (see
//! [`select`]): every seed gets the same work profile, while which cases
//! fill it still comes from the seed.
//!
//! The traced run replaces the one `check_case` call with the calls it
//! makes (the `RunOptions` `check_case_at` uses), so every execution gets
//! its own span, and probes two layers outside op time: the same first
//! execution with health folding off (for `obs.health_ms`) and, for sync
//! cases, a shape-matched replay of every sync leg's transfer and
//! chunk-store calls.

use crate::estimate::FastestRepeat;
use crate::report::{end_to_end, Outcome};
use crate::trace::{LayerStats, Tracer, OP};
use crate::Run;
use netsim::audit::Digest;
use relay::ChunkStore;
use simcheck::runner::check_plane_coherence;
use simcheck::{
    case_seed, check_case, run_once, run_sharded, RunOptions, ScenarioSpec, SyncSpec,
    SHARD_WORKER_COUNTS,
};
use std::collections::BTreeMap;
use std::time::Instant;
use transfer::chunk::ChunkManifest;
use transfer::delta::compute_delta;
use transfer::md5::Md5;
use transfer::patch::apply_delta;
use transfer::signature::Signature;
use transfer::syncpop::{MutationMix, SyncPopulation, SyncPopulationConfig};
use transfer::wire::RsyncWirePlan;

/// Cases per batch, a third of each class. Per-case cost is heavy-tailed
/// (sync cases take 4–370 ms), so a run needs this many distinct cases for
/// its figures to repeat across seeds; a batch takes ~15 s.
const CASES: usize = 480;

/// Candidates per selected case: the run's cases are drawn from the first
/// `POOL * CASES` cases of the seed's stream, one per stratum of `POOL`.
/// Keying the candidates takes ~2 s. Resampling timed cases put the spread
/// that the draw alone gives ten seeds at 0.10 (`op_p50_ms`), 0.08
/// (`ops_per_s`) and 0.12 (`op_tail_ms`) for the plain stream, and at
/// 0.054, 0.040 and 0.072 with strata of eight.
const POOL: usize = 8;

/// Salt for the seed that picks a case inside each stratum, so the pick is
/// independent of the case seeds.
const PICK_SALT: u64 = 0x7069_636b_7374_7261;

/// One spec-generation repetition (set-up sample) runs before every this
/// many cases, spreading set-up samples over the run.
const CASES_PER_SETUP: usize = 30;

/// Block and chunk sizes simcheck's sync sessions use.
const SYNC_BLOCK_SIZE: usize = 1024;
const SYNC_CHUNK_SIZE: usize = 2048;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Std,
    Chaos,
    Sync,
}

const CLASSES: [Class; 3] = [Class::Std, Class::Chaos, Class::Sync];

impl Class {
    fn of(i: usize) -> Class {
        CLASSES[i % 3]
    }

    fn generate(self, seed: u64) -> ScenarioSpec {
        match self {
            Class::Std => ScenarioSpec::generate(seed),
            Class::Chaos => ScenarioSpec::generate_chaos(seed),
            Class::Sync => ScenarioSpec::generate_sync(seed),
        }
    }

    fn exec_span(self) -> &'static str {
        match self {
            Class::Std => "simcheck.std.exec",
            Class::Chaos => "simcheck.chaos.exec",
            Class::Sync => "simcheck.sync.exec",
        }
    }

    fn name(self) -> &'static str {
        match self {
            Class::Std => "std",
            Class::Chaos => "chaos",
            Class::Sync => "sync",
        }
    }
}

/// A deterministic measure of a case's work, the key the sample is
/// stratified on: KiB its sync sessions replicate over all cells for sync
/// cases; engine events of one plain execution for std and chaos cases.
fn work_key(spec: &ScenarioSpec) -> u64 {
    if spec.sync.is_empty() {
        return run_once(spec, RunOptions::default()).events;
    }
    let kib: u64 = spec
        .sync
        .iter()
        .map(|s| s.files as u64 * s.file_kb as u64 * (s.rounds as u64 + 1))
        .sum();
    kib * spec.replicas as u64
}

/// Pick one entry of each consecutive stratum of `stratum` entries of
/// `sorted`, entry `pick(s) % stratum` of stratum `s`. Returns the picked
/// entries' second fields, ascending.
fn stratified(sorted: &[(u64, u32)], stratum: usize, pick: impl Fn(u32) -> u64) -> Vec<u32> {
    let mut picked: Vec<u32> = sorted
        .chunks(stratum)
        .enumerate()
        .map(|(s, group)| group[(pick(s as u32) % group.len() as u64) as usize].1)
        .collect();
    picked.sort_unstable();
    picked
}

/// The run's case indices into the seed's case stream, where stream case
/// `j` is class `j % 3` over `case_seed(seed, j)`. Per class, the first
/// `POOL * CASES / 3` stream cases are sorted by [`work_key`] and cut into
/// strata of `POOL`; a seeded pick takes one case from each. Case `i` of
/// the run is class `i % 3`, the classes' picks each in stream order.
fn select(seed: u64) -> Vec<u32> {
    let per_class = CASES / 3;
    let picks: Vec<Vec<u32>> = CLASSES
        .iter()
        .enumerate()
        .map(|(c, class)| {
            let mut pool: Vec<(u64, u32)> = (0..per_class * POOL)
                .map(|k| {
                    let j = (3 * k + c) as u32;
                    (work_key(&class.generate(case_seed(seed, j))), j)
                })
                .collect();
            pool.sort_unstable();
            stratified(&pool, POOL, |s| case_seed(seed ^ PICK_SALT, s))
        })
        .collect();
    (0..CASES).map(|i| picks[i % 3][i / 3]).collect()
}

/// The run's specs: case `i` is stream case `cases[i]`.
fn generate(seed: u64, cases: &[u32]) -> Vec<ScenarioSpec> {
    cases
        .iter()
        .map(|&j| Class::of(j as usize).generate(case_seed(seed, j)))
        .collect()
}

fn shard_span(workers: usize) -> &'static str {
    match workers {
        1 => "simcheck.shard.w1",
        2 => "simcheck.shard.w2",
        4 => "simcheck.shard.w4",
        _ => "simcheck.shard.wn",
    }
}

/// What a case produced: first-execution events and jobs, violations.
struct CaseOut {
    events: u64,
    jobs: u64,
    violations: usize,
}

/// [`check_case`]'s sequence of calls, one span each: the first execution,
/// the determinism replay, the three reference modes, the sharded runs,
/// the chunk-bypass run (sync only) and the plane-coherence check.
fn traced_case(spec: &ScenarioSpec, class: Class, tr: &mut Tracer) -> CaseOut {
    let opts = RunOptions {
        health: true,
        ..RunOptions::default()
    };
    let first = tr.span(class.exec_span(), |_| run_once(spec, opts));
    let mut differs = 0;
    let mut rerun = |tr: &mut Tracer, name, o: RunOptions| {
        let d = tr.span(name, |_| run_once(spec, o)).chain_digest;
        differs += (d != first.chain_digest) as usize;
    };
    rerun(tr, "simcheck.replay", opts);
    rerun(
        tr,
        "simcheck.ref_alloc",
        RunOptions {
            reference_allocator: true,
            ..opts
        },
    );
    rerun(
        tr,
        "simcheck.eager",
        RunOptions {
            eager_progress: true,
            ..opts
        },
    );
    rerun(
        tr,
        "simcheck.ref_routing",
        RunOptions {
            reference_routing: true,
            ..opts
        },
    );
    tr.span("simcheck.shard", |tr| {
        for w in SHARD_WORKER_COUNTS {
            let d = tr
                .span(shard_span(w), |_| run_sharded(spec, opts, w))
                .chain_digest;
            differs += (d != first.chain_digest) as usize;
        }
    });
    if !spec.sync.is_empty() {
        let bypass = tr.span("simcheck.chunk_bypass", |_| {
            run_once(
                spec,
                RunOptions {
                    chunk_bypass: true,
                    ..opts
                },
            )
        });
        differs += (bypass.sync_digest != first.sync_digest) as usize;
    }
    let plane = tr.span("routeplane.coherence", |_| check_plane_coherence(spec));
    CaseOut {
        events: first.events,
        jobs: first.jobs_completed,
        violations: first.violations.len() + differs + plane.len(),
    }
}

/// Replay every sync leg of `spec` through the calls a sync session makes
/// per leg, one span per call; returns (chunk probes, chunk hits, legs
/// whose patch failed to reconstruct the file). Shape-matched: sessions
/// run one after another with their spec's population, and sessions naming
/// the same relay index share a store.
fn replay_sync(spec: &ScenarioSpec, tr: &mut Tracer) -> (u64, u64, u64) {
    let mut stores: BTreeMap<u32, ChunkStore> = BTreeMap::new();
    let mut broken = 0;
    for s in &spec.sync {
        let SyncSpec {
            files,
            file_kb,
            rounds,
            churny,
            cache_kb,
            relay,
            dataset,
            ..
        } = *s;
        let cfg = SyncPopulationConfig {
            files: files as usize,
            file_len: file_kb as usize * 1024,
            mix: if churny {
                MutationMix::churny()
            } else {
                MutationMix::desktop()
            },
            max_edits: 16,
            max_append: 2048,
            max_rewrite: 4096,
        };
        let mut pop = SyncPopulation::new(case_seed(spec.seed, 0x5e5e + dataset), cfg);
        let store = stores
            .entry(relay)
            .or_insert_with(|| ChunkStore::new(cache_kb as u64 * 1024));
        let mut remote = vec![Vec::new(); files as usize];
        for pass in 0..=rounds {
            if pass > 0 {
                pop.advance();
            }
            for (f, basis) in remote.iter_mut().enumerate() {
                let local = pop.file(f).to_vec();
                let plan = tr.span("transfer.wire_plan", |_| {
                    RsyncWirePlan::exact(basis, &local, SYNC_BLOCK_SIZE)
                });
                let manifest = tr.span("transfer.manifest", |_| {
                    ChunkManifest::of(&local, SYNC_CHUNK_SIZE)
                });
                let dedup = tr.span("relay.chunk_plan", |_| store.plan(&manifest));
                std::hint::black_box((plan, dedup));
                let ok = tr.span("transfer.sig_delta_patch", |_| {
                    let sig = Signature::compute(basis, SYNC_BLOCK_SIZE);
                    let delta = compute_delta(&sig, &local);
                    matches!(apply_delta(basis, SYNC_BLOCK_SIZE, &delta), Ok(p) if p == local)
                });
                broken += (!ok) as u64;
                tr.span("relay.chunk_admit", |_| store.admit(&manifest));
                *basis = local;
            }
        }
    }
    let (probes, hits) = stores
        .values()
        .map(|s| s.stats())
        .fold((0, 0), |(p, h), st| (p + st.probes, h + st.hits));
    (probes, hits, broken)
}

pub fn run(run: &Run) -> Outcome {
    let origin = Instant::now();
    let cases = select(run.seed);
    let specs = generate(run.seed, &cases);
    // Selection comes out of the run's time.
    let selection = origin.elapsed().as_secs_f64();
    let run = &Run {
        seconds: run.seconds - selection,
        ..run.clone()
    };
    let mut untraced = FastestRepeat::new(CASES);
    let mut layers = LayerStats::default();
    let mut setup = Vec::new();
    let mut outcome = Outcome::default();
    let mut first_digest: Option<u64> = None;
    let mut events = vec![0u64; CASES];
    let mut md5 = vec![0u64; CASES];
    let mut reported = vec![false; CASES];
    let mut chunk_stats = vec![(0u64, 0u64); CASES];
    let mut export = None;

    crate::run_batches(run, |batch, traced| {
        let mut tr = Tracer::new(traced, origin);
        let mut digest = Digest::new();
        for (i, spec) in specs.iter().enumerate() {
            if i % CASES_PER_SETUP == 0 {
                let t = Instant::now();
                let again = tr.span("simcheck.generate", |_| generate(run.seed, &cases));
                if !traced {
                    setup.push(t.elapsed().as_secs_f64());
                }
                if again != specs {
                    outcome.fail("spec generation is not deterministic".into());
                }
            }
            let class = Class::of(i);
            tr.set_op(Some(i as u64));
            let md5_before = Md5::digest_invocations();
            let t = Instant::now();
            let out = if traced {
                let op = tr.begin(OP);
                let out = traced_case(spec, class, &mut tr);
                tr.end(op);
                out
            } else {
                let r = check_case(spec, RunOptions::default());
                CaseOut {
                    events: r.events,
                    jobs: r.jobs_completed,
                    violations: r.violations.len(),
                }
            };
            let dt = t.elapsed().as_secs_f64();
            md5[i] = Md5::digest_invocations() - md5_before;
            if traced {
                tr.span("simcheck.exec_health_off", |_| {
                    run_once(spec, RunOptions::default())
                });
                if class == Class::Sync {
                    let (p, h, broken) = replay_sync(spec, &mut tr);
                    chunk_stats[i] = (p, h);
                    if broken > 0 {
                        outcome.fail(format!(
                            "case {i}: {broken} replayed sync legs did not patch back"
                        ));
                    }
                }
            } else {
                untraced.record(i, dt);
            }
            tr.set_op(None);
            outcome.attempted += 1;
            events[i] = out.events;
            digest.write_u64(out.events);
            digest.write_u64(out.jobs);
            digest.write_u64(out.violations as u64);
            if out.violations > 0 {
                outcome.failed += 1;
                if !reported[i] {
                    reported[i] = true;
                    outcome.note(format!(
                        "case {i} (stream case {}, {}) has {} violations; replay with `detour check --replay <file>` on this spec:\n{}",
                        cases[i],
                        class.name(),
                        out.violations,
                        spec.to_json()
                    ));
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
        let d = digest.finish();
        if *first_digest.get_or_insert(d) != d {
            outcome.fail(format!(
                "batch {batch} checked different outcomes than batch 0"
            ));
        }
    });

    outcome.digest = first_digest.expect("at least one batch");
    let total_events: u64 = events.iter().sum();
    outcome.note(format!(
        "check: {CASES} cases per batch ({} per class, one of every {POOL} stream cases, selected in {selection:.2} s), {} untraced batches",
        CASES / 3,
        untraced.batches()
    ));
    if !run.trace {
        let sorted = untraced.sorted(0..CASES);
        end_to_end(
            &mut outcome,
            &setup,
            &sorted,
            total_events,
            untraced.total(0..CASES),
        );
        return outcome;
    }

    let ms = |ns: f64| ns / 1e6;
    let exec_on: f64 = CLASSES.iter().map(|c| layers.total_ns(c.exec_span())).sum();
    let health_ms = ms((exec_on - layers.total_ns("simcheck.exec_health_off")) / CASES as f64);
    outcome.layer(
        "simcheck.generate_us",
        layers.setup_ns("simcheck.generate") / CASES as f64 / 1e3,
    );
    for (c, case_name, exec_name) in [
        (Class::Std, "simcheck.std.case_ms", "simcheck.std.exec_ms"),
        (
            Class::Chaos,
            "simcheck.chaos.case_ms",
            "simcheck.chaos.exec_ms",
        ),
        (
            Class::Sync,
            "simcheck.sync.case_ms",
            "simcheck.sync.exec_ms",
        ),
    ] {
        let ops: Vec<usize> = (0..CASES).filter(|&i| Class::of(i) == c).collect();
        let case_ns: f64 = ops.iter().map(|&i| layers.op_ns(i)).sum::<f64>() / ops.len() as f64;
        outcome.layer(case_name, ms(case_ns));
        outcome.layer(exec_name, ms(layers.mean_ns(c.exec_span())));
    }
    for (name, span) in [
        ("simcheck.replay_ms", "simcheck.replay"),
        ("simcheck.ref_alloc_ms", "simcheck.ref_alloc"),
        ("simcheck.eager_ms", "simcheck.eager"),
        ("simcheck.ref_routing_ms", "simcheck.ref_routing"),
        ("simcheck.shard_ms", "simcheck.shard"),
        ("simcheck.chunk_bypass_ms", "simcheck.chunk_bypass"),
        ("routeplane.coherence_ms", "routeplane.coherence"),
    ] {
        outcome.layer(name, ms(layers.mean_ns(span)));
    }
    outcome.layer("obs.health_ms", health_ms);
    outcome.layer(
        "netsim.check.events_per_case",
        total_events as f64 / CASES as f64,
    );
    outcome.layer(
        "transfer.md5_per_case",
        md5.iter().sum::<u64>() as f64 / CASES as f64,
    );
    outcome.layer(
        "transfer.wire_plan_us",
        layers.mean_ns("transfer.wire_plan") / 1e3,
    );
    outcome.layer(
        "transfer.manifest_us",
        layers.mean_ns("transfer.manifest") / 1e3,
    );
    outcome.layer(
        "transfer.sig_delta_patch_us",
        layers.mean_ns("transfer.sig_delta_patch") / 1e3,
    );
    outcome.layer("relay.chunk_plan_ns", layers.mean_ns("relay.chunk_plan"));
    outcome.layer("relay.chunk_admit_ns", layers.mean_ns("relay.chunk_admit"));
    let (probes, hits) = chunk_stats
        .iter()
        .fold((0, 0), |(p, h), &(cp, ch)| (p + cp, h + ch));
    outcome.layer("relay.chunk_hit_ratio", hits as f64 / probes.max(1) as f64);
    crate::finish_traced(run, &mut outcome, &layers, untraced.total(0..CASES), export);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stratified_takes_one_entry_of_each_stratum() {
        // Keys 0..10 in strata of 4: {0..4}, {4..8}, {8, 9}.
        let sorted: Vec<(u64, u32)> = (0..10).map(|k| (k, 100 - k as u32)).collect();
        let picked = stratified(&sorted, 4, |s| [1, 6, 3][s as usize]);
        // Stratum 0 entry 1, stratum 1 entry 6 % 4 = 2, short stratum 2
        // entry 3 % 2 = 1; returned ascending.
        assert_eq!(picked, vec![91, 94, 99]);
        assert_eq!(stratified(&sorted, 1, |_| 7).len(), 10);
    }

    #[test]
    fn run_cases_keep_their_stream_class_and_order() {
        let cases: Vec<u32> = vec![0, 4, 2, 9, 7, 11];
        let specs = generate(5, &cases);
        for (i, (&j, spec)) in cases.iter().zip(&specs).enumerate() {
            assert_eq!(Class::of(i), Class::of(j as usize));
            assert_eq!(*spec, Class::of(i).generate(case_seed(5, j)));
        }
        assert!(!specs[2].sync.is_empty() && specs[0].sync.is_empty());
    }
}
