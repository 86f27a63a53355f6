//! Randomized scenario specifications.
//!
//! A [`ScenarioSpec`] is a *self-contained, serializable* description of one
//! fuzz case: topology shape, capacity jitter, foreground upload/detour
//! jobs, background-traffic generators and link-fault schedule. Everything
//! is plain integers (fractions are stored as percents) so the JSON round
//! trip through [`obs::json`] is exact and a replayed spec drives a
//! bit-identical simulation.
//!
//! Host and link references are stored as raw indices and resolved modulo
//! the actual host/link count at build time — that keeps every spec valid
//! under shrinking (removing hosts can never dangle a reference).

use obs::Json;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Topology family for a case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopoSpec {
    /// A transit–stub WAN from [`netsim::synth::SynthWan`].
    Synth {
        /// Transit routers (>= 2).
        transit: u32,
        /// Stub routers (>= 1).
        stubs: u32,
        /// End hosts (>= 2).
        hosts: u32,
        /// Core link rate, Mbps.
        core_mbps: u32,
        /// Host access rate range, Mbps.
        access_lo_mbps: u32,
        /// Upper end of the access range.
        access_hi_mbps: u32,
        /// Seed for the topology generator (independent of the sim seed).
        topo_seed: u64,
    },
    /// Hosts around a single router — the smallest interesting topology,
    /// and the shrinker's terminal form (`hosts + 1` nodes total).
    Star {
        /// End hosts (>= 2).
        hosts: u32,
        /// Access rate of every spoke, Mbps.
        access_mbps: u32,
    },
}

impl TopoSpec {
    /// Number of end hosts.
    pub fn n_hosts(&self) -> u32 {
        match self {
            TopoSpec::Synth { hosts, .. } => *hosts,
            TopoSpec::Star { hosts, .. } => *hosts,
        }
    }

    /// Total node count of the built topology.
    pub fn node_count(&self) -> u32 {
        match self {
            TopoSpec::Synth {
                transit,
                stubs,
                hosts,
                ..
            } => transit + stubs + hosts,
            TopoSpec::Star { hosts, .. } => hosts + 1,
        }
    }
}

/// One foreground transfer job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobSpec {
    /// Source host index (mod host count).
    pub src: u32,
    /// Destination host index (mod host count; bumped if it collides with
    /// `src`).
    pub dst: u32,
    /// Optional detour host index: the flow is pinned to the concatenated
    /// path `src → via → dst`, modeling the paper's relay routes.
    pub via: Option<u32>,
    /// Payload bytes.
    pub bytes: u64,
    /// Traffic class selector (mod 4 → commodity/research/planetlab/
    /// background).
    pub class: u8,
    /// Fairness weight in percent (100 = weight 1.0).
    pub weight_pct: u32,
    /// Start offset from simulation begin, milliseconds.
    pub start_ms: u64,
}

/// One background-traffic generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BgSpec {
    /// Source host index (mod host count).
    pub src: u32,
    /// Destination host index.
    pub dst: u32,
    /// Heavy profile (vs moderate).
    pub heavy: bool,
    /// Flow-count scale in percent (see `BackgroundProfile::scaled`).
    pub scale_pct: u32,
}

/// One high-rate-churn generator: a serial chain of `flows` short
/// transfers between two hosts, each started `gap_ms` after the previous
/// one finishes. Every start and finish perturbs the shared component's
/// allocation, superseding queued drain events — the workload that grows
/// the event queue without growing the live flow count, exercising heap
/// compaction and the lazy progress accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnSpec {
    /// Source host index (mod host count).
    pub src: u32,
    /// Destination host index (mod host count; bumped if it collides with
    /// `src`).
    pub dst: u32,
    /// Number of back-to-back transfers.
    pub flows: u32,
    /// Payload of each transfer, bytes (small: the point is many flow
    /// boundaries, not many bytes).
    pub bytes: u64,
    /// Gap between one transfer's completion and the next one's start,
    /// milliseconds.
    pub gap_ms: u64,
}

/// One chaotic cloud-storage upload session: a [`cloudstore`] session run
/// against a provider whose fault plan is cranked far past the calibrated
/// `flaky()` rates — throttle storms, transient-error bursts, or a mix —
/// optionally under a hard transfer deadline. The chaos scenario class
/// ([`ScenarioSpec::generate_chaos`]) uses these to check the *resilience*
/// invariant: every session settles (success or a typed error) within a
/// bound derived from its retry budget or deadline, never spinning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosSpec {
    /// Uploading host index (mod host count).
    pub client: u32,
    /// Host index acting as the provider frontend (mod host count; bumped
    /// if it collides with `client`).
    pub frontend: u32,
    /// Payload, bytes.
    pub bytes: u64,
    /// Probability (percent, 0..=100) that any part upload is throttled.
    pub throttle_pct: u32,
    /// Probability (percent) that any part upload fails transiently.
    /// `throttle_pct + transient_pct` must stay <= 100.
    pub transient_pct: u32,
    /// Server-advertised Retry-After on throttle, milliseconds.
    pub retry_after_ms: u64,
    /// Hard transfer deadline, milliseconds after session start
    /// (0 = none; bounded by the retry budget instead).
    pub deadline_ms: u64,
    /// Session start time, milliseconds.
    pub start_ms: u64,
}

/// One delta-sync session: a [`transfer::SyncPopulation`] of deterministic
/// per-round mutations on the client, rsynced to a relay host round by
/// round. The relay keeps a content-addressed chunk store
/// ([`relay::ChunkStore`]), so repeat content shrinks the forward leg. The
/// sync scenario class ([`ScenarioSpec::generate_sync`]) checks two things:
/// every applied delta reconstructs the client's bytes exactly
/// ([`crate::oracle::Violation::SyncIntegrity`]), and a cache-bypass
/// re-execution delivers byte-identical final files
/// ([`crate::oracle::Violation::ChunkDivergence`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncSpec {
    /// Client host index (mod host count).
    pub client: u32,
    /// Relay host index (mod host count; bumped if it collides with
    /// `client`). Sessions resolving to the same relay share one chunk
    /// store — the cross-tenant dedup the chunk store exists for.
    pub relay: u32,
    /// Files in the client's sync set.
    pub files: u32,
    /// Initial length of each file, KiB (small: every check case runs the
    /// real signature/delta/MD5 machinery ~9 times).
    pub file_kb: u32,
    /// Mutation rounds after the initial replication.
    pub rounds: u32,
    /// Relay chunk-store capacity, KiB. Small values force FIFO eviction.
    pub cache_kb: u32,
    /// Dataset identity: sessions with the same id seed identical initial
    /// populations (think two tenants replicating one shared dataset), so a
    /// shared relay store serves the second tenant's chunks from cache —
    /// the cross-tenant dedup case where the cache beats the rsync delta.
    pub dataset: u32,
    /// Use the churn-heavy mutation mix instead of the desktop mix.
    pub churny: bool,
    /// Session start time, milliseconds.
    pub start_ms: u64,
}

/// One scheduled link-capacity change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Link index (mod link count).
    pub link: u32,
    /// When the change fires, milliseconds.
    pub at_ms: u64,
    /// New capacity as a percent of nominal (10 = crushed to 10%,
    /// 150 = upgraded).
    pub factor_pct: u32,
}

/// A complete, replayable fuzz case.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Simulation seed (PRNG for jitter, background traffic, ...).
    pub seed: u64,
    /// Topology shape.
    pub topo: TopoSpec,
    /// Capacity jitter in percent (0 = none).
    pub jitter_pct: u32,
    /// Foreground jobs (at least one).
    pub jobs: Vec<JobSpec>,
    /// Background generators.
    pub background: Vec<BgSpec>,
    /// Link-fault schedule.
    pub faults: Vec<FaultSpec>,
    /// High-rate-churn generators (often empty).
    pub churn: Vec<ChurnSpec>,
    /// Chaotic cloud-upload sessions (empty outside the chaos class).
    pub chaos: Vec<ChaosSpec>,
    /// Delta-sync sessions (empty outside the sync class).
    pub sync: Vec<SyncSpec>,
    /// Independent replicas of this world (1 = a single cell). A scenario
    /// with `replicas = k > 1` is `k` disconnected copies, each reseeded
    /// via [`case_seed`] — the connected components the sharded executor
    /// distributes across workers. Sequential execution folds them in
    /// cell order, so the spec stays a single replayable unit.
    pub replicas: u32,
}

/// Bounds a parsed spec must respect. They sit far above anything the
/// generators or the shrinker produce and keep a hand-edited replay spec
/// inside what the engine can build and represent.
///
/// One simulated hour per millisecond field keeps sums of several such
/// fields plus transfer times far inside `SimTime`'s ~584 years of
/// nanoseconds.
const MAX_MS: u64 = 3_600_000;
/// Transit, stub and host counts each size the topology's allocations.
const MAX_NODES: u32 = 64;
/// Payload of one job, churn transfer or chaos session (1 GiB).
const MAX_BYTES: u64 = 1 << 30;
/// `Sim::set_capacity_jitter` needs a fraction below 1.
const MAX_JITTER_PCT: u32 = 99;
/// Background flow-count scale: 10x the calibrated profile.
const MAX_SCALE_PCT: u32 = 1_000;
/// Sync files per session and KiB per file size the real file bytes.
const MAX_SYNC_FILES: u32 = 16;
const MAX_FILE_KB: u32 = 256;
/// Sync mutation rounds each rerun the full rsync pipeline.
const MAX_SYNC_ROUNDS: u32 = 16;

impl ScenarioSpec {
    /// Generate the spec for one fuzz case, fully determined by `case_seed`.
    pub fn generate(case_seed: u64) -> ScenarioSpec {
        let mut rng = SmallRng::seed_from_u64(case_seed);
        let topo = if rng.gen_bool(0.8) {
            let lo = rng.gen_range(2..10u32);
            TopoSpec::Synth {
                transit: rng.gen_range(2..=5),
                stubs: rng.gen_range(1..=6),
                hosts: rng.gen_range(2..=12),
                core_mbps: [200u32, 500, 1000][rng.gen_range(0..3usize)],
                access_lo_mbps: lo,
                access_hi_mbps: lo + rng.gen_range(10..=90u32),
                topo_seed: rng.gen::<u32>() as u64,
            }
        } else {
            TopoSpec::Star {
                hosts: rng.gen_range(2..=8),
                access_mbps: rng.gen_range(5..=50),
            }
        };
        let hosts = topo.n_hosts();
        let jitter_pct = if rng.gen_bool(0.5) {
            0
        } else {
            rng.gen_range(1..=8)
        };

        let n_jobs = rng.gen_range(1..=8);
        let jobs = (0..n_jobs)
            .map(|_| {
                let src = rng.gen_range(0..hosts);
                let dst = rng.gen_range(0..hosts);
                JobSpec {
                    src,
                    dst,
                    via: rng.gen_bool(0.2).then(|| rng.gen_range(0..hosts)),
                    bytes: rng.gen_range(256 * 1024..=16 * 1024 * 1024),
                    class: rng.gen_range(0..4),
                    weight_pct: [50u32, 100, 100, 100, 200, 300][rng.gen_range(0..6usize)],
                    start_ms: rng.gen_range(0..=1500),
                }
            })
            .collect();

        let n_bg = rng.gen_range(0..=2);
        let background = (0..n_bg)
            .map(|_| BgSpec {
                src: rng.gen_range(0..hosts),
                dst: rng.gen_range(0..hosts),
                heavy: rng.gen_bool(0.3),
                scale_pct: rng.gen_range(25..=100),
            })
            .collect();

        let n_faults = rng.gen_range(0..=3);
        let faults = (0..n_faults)
            .map(|_| FaultSpec {
                link: rng.gen::<u32>(),
                at_ms: rng.gen_range(50..=4000),
                factor_pct: rng.gen_range(10..=150),
            })
            .collect();

        // ~35% of cases add high-rate-churn generators: long chains of
        // tiny transfers that supersede drain events far faster than live
        // flows accumulate.
        let n_churn = if rng.gen_bool(0.35) {
            rng.gen_range(1..=2)
        } else {
            0
        };
        let churn = (0..n_churn)
            .map(|_| ChurnSpec {
                src: rng.gen_range(0..hosts),
                dst: rng.gen_range(0..hosts),
                flows: rng.gen_range(20..=120),
                bytes: rng.gen_range(16 * 1024..=256 * 1024),
                gap_ms: rng.gen_range(0..=20),
            })
            .collect();

        let seed = rng.gen::<u32>() as u64;
        // ~20% of cases replicate the world into 2-3 disconnected cells so
        // the sharded executor gets genuine multi-worker coverage. Drawn
        // after `seed` so pre-existing case seeds generate byte-identical
        // specs apart from the new field.
        let replicas = if rng.gen_bool(0.2) {
            rng.gen_range(2..=3)
        } else {
            1
        };

        ScenarioSpec {
            seed,
            topo,
            jitter_pct,
            jobs,
            background,
            faults,
            churn,
            chaos: vec![],
            sync: vec![],
            replicas,
        }
    }

    /// Generate one *chaos-class* case: a small world where cloud-upload
    /// sessions run under throttle storms, transient-error bursts, and
    /// mid-transfer link-capacity faults, some with hard deadlines. The
    /// invariant of interest is termination: every session must settle —
    /// success or a typed error — within its budget/deadline-derived bound,
    /// deterministically per seed.
    pub fn generate_chaos(case_seed: u64) -> ScenarioSpec {
        let mut rng = SmallRng::seed_from_u64(case_seed);
        // Smaller worlds than the standard class: the stress is in the
        // retry machinery, not the topology.
        let topo = if rng.gen_bool(0.4) {
            let lo = rng.gen_range(5..15u32);
            TopoSpec::Synth {
                transit: rng.gen_range(2..=3),
                stubs: rng.gen_range(1..=3),
                hosts: rng.gen_range(2..=6),
                core_mbps: [200u32, 500][rng.gen_range(0..2usize)],
                access_lo_mbps: lo,
                access_hi_mbps: lo + rng.gen_range(10..=50u32),
                topo_seed: rng.gen::<u32>() as u64,
            }
        } else {
            TopoSpec::Star {
                hosts: rng.gen_range(2..=6),
                access_mbps: rng.gen_range(10..=50),
            }
        };
        let hosts = topo.n_hosts();
        let jitter_pct = if rng.gen_bool(0.5) {
            0
        } else {
            rng.gen_range(1..=4)
        };

        // A light foreground load so the chaotic sessions contend with
        // ordinary traffic.
        let n_jobs = rng.gen_range(0..=2);
        let jobs = (0..n_jobs)
            .map(|_| JobSpec {
                src: rng.gen_range(0..hosts),
                dst: rng.gen_range(0..hosts),
                via: None,
                bytes: rng.gen_range(128 * 1024..=2 * 1024 * 1024),
                class: rng.gen_range(0..4),
                weight_pct: 100,
                start_ms: rng.gen_range(0..=500),
            })
            .collect();

        // Mid-transfer capacity faults are always on in this class: links
        // degrade (or recover) while sessions are mid-retry.
        let n_faults = rng.gen_range(1..=3);
        let faults = (0..n_faults)
            .map(|_| FaultSpec {
                link: rng.gen::<u32>(),
                at_ms: rng.gen_range(100..=5000),
                factor_pct: rng.gen_range(10..=150),
            })
            .collect();

        let n_chaos = rng.gen_range(1..=3);
        let chaos = (0..n_chaos)
            .map(|_| {
                // Three storm flavors: throttle-heavy, transient-heavy,
                // and a moderate mix.
                let (throttle_pct, transient_pct) = match rng.gen_range(0..3u32) {
                    0 => (rng.gen_range(60..=100), 0),
                    1 => (0, rng.gen_range(60..=100)),
                    _ => (rng.gen_range(10..=40), rng.gen_range(10..=40)),
                };
                ChaosSpec {
                    client: rng.gen_range(0..hosts),
                    frontend: rng.gen_range(0..hosts),
                    bytes: rng.gen_range(256 * 1024..=12 * 1024 * 1024),
                    throttle_pct,
                    transient_pct,
                    retry_after_ms: rng.gen_range(100..=3000),
                    deadline_ms: if rng.gen_bool(0.5) {
                        rng.gen_range(2_000..=30_000)
                    } else {
                        0
                    },
                    start_ms: rng.gen_range(0..=1000),
                }
            })
            .collect();

        let seed = rng.gen::<u32>() as u64;
        // Chaos worlds are heavier per cell; replicate a bit more rarely.
        let replicas = if rng.gen_bool(0.15) { 2 } else { 1 };

        ScenarioSpec {
            seed,
            topo,
            jitter_pct,
            jobs,
            background: vec![],
            faults,
            churn: vec![],
            chaos,
            sync: vec![],
            replicas,
        }
    }

    /// Generate one *sync-class* case: a small world where delta-sync
    /// sessions push deterministically mutating file sets to relay hosts
    /// through the chunk store, round by round, while light foreground
    /// traffic contends for the links. File sizes and round counts are kept
    /// small — every checked case runs the real signature/delta/MD5
    /// machinery across ~9 differential executions plus a cache-bypass run.
    pub fn generate_sync(case_seed: u64) -> ScenarioSpec {
        let mut rng = SmallRng::seed_from_u64(case_seed);
        let topo = if rng.gen_bool(0.6) {
            TopoSpec::Star {
                hosts: rng.gen_range(2..=5),
                access_mbps: rng.gen_range(10..=50),
            }
        } else {
            let lo = rng.gen_range(5..15u32);
            TopoSpec::Synth {
                transit: rng.gen_range(2..=3),
                stubs: rng.gen_range(1..=2),
                hosts: rng.gen_range(2..=4),
                core_mbps: [200u32, 500][rng.gen_range(0..2usize)],
                access_lo_mbps: lo,
                access_hi_mbps: lo + rng.gen_range(10..=40u32),
                topo_seed: rng.gen::<u32>() as u64,
            }
        };
        let hosts = topo.n_hosts();
        let jitter_pct = if rng.gen_bool(0.5) {
            0
        } else {
            rng.gen_range(1..=4)
        };

        // A light foreground load so sync legs contend with ordinary flows.
        let n_jobs = rng.gen_range(0..=2);
        let jobs = (0..n_jobs)
            .map(|_| JobSpec {
                src: rng.gen_range(0..hosts),
                dst: rng.gen_range(0..hosts),
                via: None,
                bytes: rng.gen_range(128 * 1024..=1024 * 1024),
                class: rng.gen_range(0..4),
                weight_pct: 100,
                start_ms: rng.gen_range(0..=500),
            })
            .collect();

        let n_faults = rng.gen_range(0..=1);
        let faults = (0..n_faults)
            .map(|_| FaultSpec {
                link: rng.gen::<u32>(),
                at_ms: rng.gen_range(100..=3000),
                factor_pct: rng.gen_range(20..=150),
            })
            .collect();

        let n_sync = rng.gen_range(1..=2);
        let sync = (0..n_sync)
            .map(|i| SyncSpec {
                client: rng.gen_range(0..hosts),
                relay: rng.gen_range(0..hosts),
                files: rng.gen_range(1..=3),
                file_kb: rng.gen_range(4..=32),
                rounds: rng.gen_range(1..=3),
                // ~30% of stores are tiny enough to evict mid-run.
                cache_kb: if rng.gen_bool(0.3) {
                    rng.gen_range(2..=8)
                } else {
                    rng.gen_range(16..=128)
                },
                // ~40% of second sessions replicate the first's dataset:
                // the cross-tenant dedup case.
                dataset: if i > 0 && rng.gen_bool(0.4) { 0 } else { i },
                churny: rng.gen_bool(0.3),
                start_ms: rng.gen_range(0..=400),
            })
            .collect();

        let seed = rng.gen::<u32>() as u64;
        let replicas = if rng.gen_bool(0.15) { 2 } else { 1 };

        ScenarioSpec {
            seed,
            topo,
            jitter_pct,
            jobs,
            background: vec![],
            faults,
            churn: vec![],
            chaos: vec![],
            sync,
            replicas,
        }
    }

    /// The independent cells of this scenario: `replicas` copies of the
    /// world, cell `k` reseeded with [`case_seed`]`(seed, k)` so replicas
    /// diverge in jitter, background and chaos draws. A single-replica
    /// scenario is its own (only) cell with its seed untouched, which is
    /// what makes the sharded fold collapse to the plain sequential run
    /// for every pre-existing spec.
    pub fn cells(&self) -> Vec<ScenarioSpec> {
        if self.replicas <= 1 {
            return vec![self.clone()];
        }
        (0..self.replicas)
            .map(|k| ScenarioSpec {
                seed: case_seed(self.seed, k),
                replicas: 1,
                ..self.clone()
            })
            .collect()
    }

    /// Serialize to compact JSON (exact round trip via [`Self::from_json`]).
    pub fn to_json(&self) -> String {
        self.to_json_value().render()
    }

    pub(crate) fn to_json_value(&self) -> Json {
        let topo = match self.topo {
            TopoSpec::Synth {
                transit,
                stubs,
                hosts,
                core_mbps,
                access_lo_mbps,
                access_hi_mbps,
                topo_seed,
            } => Json::Obj(vec![
                ("kind".into(), Json::Str("synth".into())),
                ("transit".into(), Json::Int(transit as u64)),
                ("stubs".into(), Json::Int(stubs as u64)),
                ("hosts".into(), Json::Int(hosts as u64)),
                ("core_mbps".into(), Json::Int(core_mbps as u64)),
                ("access_lo_mbps".into(), Json::Int(access_lo_mbps as u64)),
                ("access_hi_mbps".into(), Json::Int(access_hi_mbps as u64)),
                ("topo_seed".into(), Json::Int(topo_seed)),
            ]),
            TopoSpec::Star { hosts, access_mbps } => Json::Obj(vec![
                ("kind".into(), Json::Str("star".into())),
                ("hosts".into(), Json::Int(hosts as u64)),
                ("access_mbps".into(), Json::Int(access_mbps as u64)),
            ]),
        };
        let jobs = self
            .jobs
            .iter()
            .map(|j| {
                let mut fields = vec![
                    ("src".into(), Json::Int(j.src as u64)),
                    ("dst".into(), Json::Int(j.dst as u64)),
                ];
                if let Some(via) = j.via {
                    fields.push(("via".into(), Json::Int(via as u64)));
                }
                fields.extend([
                    ("bytes".into(), Json::Int(j.bytes)),
                    ("class".into(), Json::Int(j.class as u64)),
                    ("weight_pct".into(), Json::Int(j.weight_pct as u64)),
                    ("start_ms".into(), Json::Int(j.start_ms)),
                ]);
                Json::Obj(fields)
            })
            .collect();
        let background = self
            .background
            .iter()
            .map(|b| {
                Json::Obj(vec![
                    ("src".into(), Json::Int(b.src as u64)),
                    ("dst".into(), Json::Int(b.dst as u64)),
                    ("heavy".into(), Json::Bool(b.heavy)),
                    ("scale_pct".into(), Json::Int(b.scale_pct as u64)),
                ])
            })
            .collect();
        let faults = self
            .faults
            .iter()
            .map(|f| {
                Json::Obj(vec![
                    ("link".into(), Json::Int(f.link as u64)),
                    ("at_ms".into(), Json::Int(f.at_ms)),
                    ("factor_pct".into(), Json::Int(f.factor_pct as u64)),
                ])
            })
            .collect();
        let mut fields = vec![
            ("seed".into(), Json::Int(self.seed)),
            ("topo".into(), topo),
            ("jitter_pct".into(), Json::Int(self.jitter_pct as u64)),
            ("jobs".into(), Json::Arr(jobs)),
            ("background".into(), Json::Arr(background)),
            ("faults".into(), Json::Arr(faults)),
        ];
        // Omitted when empty so pre-churn replay files round trip verbatim.
        if !self.churn.is_empty() {
            let churn = self
                .churn
                .iter()
                .map(|c| {
                    Json::Obj(vec![
                        ("src".into(), Json::Int(c.src as u64)),
                        ("dst".into(), Json::Int(c.dst as u64)),
                        ("flows".into(), Json::Int(c.flows as u64)),
                        ("bytes".into(), Json::Int(c.bytes)),
                        ("gap_ms".into(), Json::Int(c.gap_ms)),
                    ])
                })
                .collect();
            fields.push(("churn".into(), Json::Arr(churn)));
        }
        // Same convention: standard-class replay files never mention chaos.
        if !self.chaos.is_empty() {
            let chaos = self
                .chaos
                .iter()
                .map(|c| {
                    let mut f = vec![
                        ("client".into(), Json::Int(c.client as u64)),
                        ("frontend".into(), Json::Int(c.frontend as u64)),
                        ("bytes".into(), Json::Int(c.bytes)),
                        ("throttle_pct".into(), Json::Int(c.throttle_pct as u64)),
                        ("transient_pct".into(), Json::Int(c.transient_pct as u64)),
                        ("retry_after_ms".into(), Json::Int(c.retry_after_ms)),
                    ];
                    if c.deadline_ms > 0 {
                        f.push(("deadline_ms".into(), Json::Int(c.deadline_ms)));
                    }
                    f.push(("start_ms".into(), Json::Int(c.start_ms)));
                    Json::Obj(f)
                })
                .collect();
            fields.push(("chaos".into(), Json::Arr(chaos)));
        }
        // Same convention again: pre-sync replay files never mention sync.
        if !self.sync.is_empty() {
            let sync = self
                .sync
                .iter()
                .map(|s| {
                    Json::Obj(vec![
                        ("client".into(), Json::Int(s.client as u64)),
                        ("relay".into(), Json::Int(s.relay as u64)),
                        ("files".into(), Json::Int(s.files as u64)),
                        ("file_kb".into(), Json::Int(s.file_kb as u64)),
                        ("rounds".into(), Json::Int(s.rounds as u64)),
                        ("cache_kb".into(), Json::Int(s.cache_kb as u64)),
                        ("dataset".into(), Json::Int(s.dataset as u64)),
                        ("churny".into(), Json::Bool(s.churny)),
                        ("start_ms".into(), Json::Int(s.start_ms)),
                    ])
                })
                .collect();
            fields.push(("sync".into(), Json::Arr(sync)));
        }
        // Omitted when 1 (the overwhelming default) so single-cell replay
        // files round trip verbatim.
        if self.replicas > 1 {
            fields.push(("replicas".into(), Json::Int(self.replicas as u64)));
        }
        Json::Obj(fields)
    }

    /// Parse a spec previously produced by [`Self::to_json`]. Syntax
    /// errors carry their line and byte; a field outside its bound (see
    /// the `MAX_*` constants) is rejected by name, so no replay file can
    /// push the engine past what it can allocate or represent.
    pub fn from_json(text: &str) -> Result<ScenarioSpec, String> {
        let v = Json::parse(text).map_err(|e| e.to_string())?;
        Self::from_json_value(&v)
    }

    /// Build a spec from parsed JSON, rejecting any field outside its
    /// `MAX_*` bound with an error that names it.
    pub(crate) fn from_json_value(v: &Json) -> Result<ScenarioSpec, String> {
        fn req_u64(v: &Json, key: &str, max: u64) -> Result<u64, String> {
            let n = v
                .get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing or non-integer field {key:?}"))?;
            if n > max {
                return Err(format!("field {key:?} is {n}, above its bound {max}"));
            }
            Ok(n)
        }
        fn req_u32(v: &Json, key: &str, max: u32) -> Result<u32, String> {
            req_u64(v, key, max.into()).map(|n| n as u32)
        }
        const ANY: u32 = u32::MAX;

        let topo_v = v.get("topo").ok_or("missing field \"topo\"")?;
        let topo = match topo_v.get("kind").and_then(Json::as_str) {
            Some("synth") => TopoSpec::Synth {
                transit: req_u32(topo_v, "transit", MAX_NODES)?,
                stubs: req_u32(topo_v, "stubs", MAX_NODES)?,
                hosts: req_u32(topo_v, "hosts", MAX_NODES)?,
                core_mbps: req_u32(topo_v, "core_mbps", ANY)?,
                access_lo_mbps: req_u32(topo_v, "access_lo_mbps", ANY)?,
                access_hi_mbps: req_u32(topo_v, "access_hi_mbps", ANY)?,
                topo_seed: req_u64(topo_v, "topo_seed", u64::MAX)?,
            },
            Some("star") => TopoSpec::Star {
                hosts: req_u32(topo_v, "hosts", MAX_NODES)?,
                access_mbps: req_u32(topo_v, "access_mbps", ANY)?,
            },
            other => return Err(format!("unknown topo kind {other:?}")),
        };
        if topo.n_hosts() < 2 {
            return Err("topology needs at least two hosts".into());
        }
        match topo {
            TopoSpec::Synth {
                transit,
                stubs,
                access_lo_mbps,
                access_hi_mbps,
                ..
            } => {
                if transit < 2 || stubs < 1 {
                    return Err("synth topology needs transit >= 2 and stubs >= 1".into());
                }
                if access_lo_mbps == 0 || access_lo_mbps > access_hi_mbps {
                    return Err("bad access rate range".into());
                }
            }
            TopoSpec::Star { access_mbps, .. } => {
                if access_mbps == 0 {
                    return Err("star access rate must be positive".into());
                }
            }
        }

        // Every entry of an array section, its errors prefixed with where
        // it sits (`jobs[2]: ...`). A missing section is empty.
        fn section<T>(
            v: &Json,
            key: &str,
            entry: impl Fn(&Json) -> Result<T, String>,
        ) -> Result<Vec<T>, String> {
            let items = v.get(key).and_then(Json::as_arr).unwrap_or(&[]);
            let entries = items.iter().enumerate();
            entries
                .map(|(i, item)| entry(item).map_err(|e| format!("{key}[{i}]: {e}")))
                .collect()
        }

        if v.get("jobs").and_then(Json::as_arr).is_none() {
            return Err("missing field \"jobs\"".into());
        }
        let jobs = section(v, "jobs", |j| {
            Ok(JobSpec {
                src: req_u32(j, "src", ANY)?,
                dst: req_u32(j, "dst", ANY)?,
                via: match j.get("via") {
                    None | Some(Json::Null) => None,
                    Some(_) => Some(req_u32(j, "via", ANY)?),
                },
                bytes: req_u64(j, "bytes", MAX_BYTES)?,
                class: req_u32(j, "class", u8::MAX.into())? as u8,
                weight_pct: req_u32(j, "weight_pct", ANY)?,
                start_ms: req_u64(j, "start_ms", MAX_MS)?,
            })
        })?;
        if let Some(bad) = jobs
            .iter()
            .find(|j| j.bytes == 0 || j.weight_pct == 0 || j.weight_pct > 10_000)
        {
            return Err(format!("degenerate job {bad:?}"));
        }

        let background = section(v, "background", |b| {
            Ok(BgSpec {
                src: req_u32(b, "src", ANY)?,
                dst: req_u32(b, "dst", ANY)?,
                heavy: b
                    .get("heavy")
                    .and_then(Json::as_bool)
                    .ok_or("missing \"heavy\"")?,
                scale_pct: req_u32(b, "scale_pct", MAX_SCALE_PCT)?,
            })
        })?;

        let faults = section(v, "faults", |f| {
            Ok(FaultSpec {
                link: req_u32(f, "link", ANY)?,
                at_ms: req_u64(f, "at_ms", MAX_MS)?,
                factor_pct: req_u32(f, "factor_pct", ANY)?,
            })
        })?;

        let churn = section(v, "churn", |c| {
            Ok(ChurnSpec {
                src: req_u32(c, "src", ANY)?,
                dst: req_u32(c, "dst", ANY)?,
                flows: req_u32(c, "flows", ANY)?,
                bytes: req_u64(c, "bytes", MAX_BYTES)?,
                gap_ms: req_u64(c, "gap_ms", MAX_MS)?,
            })
        })?;
        if let Some(bad) = churn.iter().find(|c| c.flows == 0 || c.bytes == 0) {
            return Err(format!("degenerate churn generator {bad:?}"));
        }

        let chaos = section(v, "chaos", |c| {
            Ok(ChaosSpec {
                client: req_u32(c, "client", ANY)?,
                frontend: req_u32(c, "frontend", ANY)?,
                bytes: req_u64(c, "bytes", MAX_BYTES)?,
                throttle_pct: req_u32(c, "throttle_pct", 100)?,
                transient_pct: req_u32(c, "transient_pct", 100)?,
                retry_after_ms: req_u64(c, "retry_after_ms", MAX_MS)?,
                deadline_ms: match c.get("deadline_ms") {
                    None => 0,
                    Some(_) => req_u64(c, "deadline_ms", MAX_MS)?,
                },
                start_ms: req_u64(c, "start_ms", MAX_MS)?,
            })
        })?;
        if let Some(bad) = chaos
            .iter()
            .find(|c| c.bytes == 0 || c.throttle_pct + c.transient_pct > 100)
        {
            return Err(format!("degenerate chaos session {bad:?}"));
        }

        let sync = section(v, "sync", |s| {
            Ok(SyncSpec {
                client: req_u32(s, "client", ANY)?,
                relay: req_u32(s, "relay", ANY)?,
                files: req_u32(s, "files", MAX_SYNC_FILES)?,
                file_kb: req_u32(s, "file_kb", MAX_FILE_KB)?,
                rounds: req_u32(s, "rounds", MAX_SYNC_ROUNDS)?,
                cache_kb: req_u32(s, "cache_kb", ANY)?,
                dataset: req_u32(s, "dataset", ANY)?,
                churny: s
                    .get("churny")
                    .and_then(Json::as_bool)
                    .ok_or("missing \"churny\"")?,
                start_ms: req_u64(s, "start_ms", MAX_MS)?,
            })
        })?;
        if let Some(bad) = sync
            .iter()
            .find(|s| s.files == 0 || s.file_kb == 0 || s.rounds == 0 || s.cache_kb == 0)
        {
            return Err(format!("degenerate sync session {bad:?}"));
        }
        if jobs.is_empty() && chaos.is_empty() && sync.is_empty() {
            return Err("scenario needs at least one job, chaos session or sync session".into());
        }

        let replicas = match v.get("replicas") {
            None => 1,
            Some(r) => u32::try_from(r.as_u64().ok_or("non-integer \"replicas\"")?)
                .map_err(|_| "replicas out of range".to_string())?,
        };
        if replicas == 0 || replicas > 8 {
            return Err(format!("replicas must be in 1..=8, got {replicas}"));
        }

        Ok(ScenarioSpec {
            seed: req_u64(v, "seed", u64::MAX)?,
            topo,
            jitter_pct: req_u32(v, "jitter_pct", MAX_JITTER_PCT)?,
            jobs,
            background,
            faults,
            churn,
            chaos,
            sync,
            replicas,
        })
    }
}

/// Derive the seed of case `index` from a base seed (FNV-1a over both), so
/// `detour check --seed S` explores a deterministic but spread-out sequence.
pub fn case_seed(base: u64, index: u32) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in base.to_le_bytes().into_iter().chain(index.to_le_bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = ScenarioSpec::generate(42);
        let b = ScenarioSpec::generate(42);
        assert_eq!(a, b);
        assert_ne!(a, ScenarioSpec::generate(43));
    }

    #[test]
    fn generated_specs_round_trip_through_json() {
        for i in 0..50 {
            let spec = ScenarioSpec::generate(case_seed(7, i));
            let text = spec.to_json();
            let back = ScenarioSpec::from_json(&text).expect("parses");
            assert_eq!(back, spec, "round trip failed for case {i}: {text}");
        }
    }

    #[test]
    fn case_seeds_are_spread() {
        let seeds: std::collections::HashSet<u64> = (0..100).map(|i| case_seed(7, i)).collect();
        assert_eq!(seeds.len(), 100);
        assert_ne!(case_seed(7, 0), case_seed(8, 0));
    }

    #[test]
    fn malformed_specs_are_rejected() {
        assert!(ScenarioSpec::from_json("{}").is_err());
        // No jobs.
        let spec = ScenarioSpec {
            seed: 1,
            topo: TopoSpec::Star {
                hosts: 2,
                access_mbps: 10,
            },
            jitter_pct: 0,
            jobs: vec![],
            background: vec![],
            faults: vec![],
            churn: vec![],
            chaos: vec![],
            sync: vec![],
            replicas: 1,
        };
        assert!(ScenarioSpec::from_json(&spec.to_json()).is_err());
        // One-host star.
        let text = spec.to_json().replace("\"hosts\":2", "\"hosts\":1");
        assert!(ScenarioSpec::from_json(&text).is_err());
    }

    #[test]
    fn churn_round_trips_and_rejects_degenerates() {
        let mut spec = ScenarioSpec {
            seed: 1,
            topo: TopoSpec::Star {
                hosts: 3,
                access_mbps: 10,
            },
            jitter_pct: 0,
            jobs: vec![JobSpec {
                src: 0,
                dst: 1,
                via: None,
                bytes: 1024,
                class: 0,
                weight_pct: 100,
                start_ms: 0,
            }],
            background: vec![],
            faults: vec![],
            churn: vec![ChurnSpec {
                src: 0,
                dst: 2,
                flows: 50,
                bytes: 4096,
                gap_ms: 5,
            }],
            chaos: vec![],
            sync: vec![],
            replicas: 1,
        };
        let back = ScenarioSpec::from_json(&spec.to_json()).expect("parses");
        assert_eq!(back, spec);

        // Empty churn is omitted from the JSON (pre-churn replay files
        // stay byte-compatible) and parses back as empty.
        spec.churn.clear();
        let text = spec.to_json();
        assert!(!text.contains("churn"));
        assert_eq!(ScenarioSpec::from_json(&text).expect("parses"), spec);

        // Zero-flow and zero-byte churn generators are rejected.
        spec.churn = vec![ChurnSpec {
            src: 0,
            dst: 1,
            flows: 0,
            bytes: 4096,
            gap_ms: 0,
        }];
        assert!(ScenarioSpec::from_json(&spec.to_json()).is_err());
        spec.churn = vec![ChurnSpec {
            src: 0,
            dst: 1,
            flows: 1,
            bytes: 0,
            gap_ms: 0,
        }];
        assert!(ScenarioSpec::from_json(&spec.to_json()).is_err());
    }

    #[test]
    fn chaos_generation_is_deterministic_and_round_trips() {
        let a = ScenarioSpec::generate_chaos(42);
        assert_eq!(a, ScenarioSpec::generate_chaos(42));
        assert!(!a.chaos.is_empty(), "chaos class always has sessions");
        for i in 0..50 {
            let spec = ScenarioSpec::generate_chaos(case_seed(13, i));
            assert!(spec.chaos.len() <= 3 && !spec.chaos.is_empty());
            assert!(!spec.faults.is_empty(), "capacity faults always on");
            for c in &spec.chaos {
                assert!(c.throttle_pct + c.transient_pct <= 100);
                assert!(c.throttle_pct + c.transient_pct >= 20, "storms are severe");
            }
            let back = ScenarioSpec::from_json(&spec.to_json()).expect("parses");
            assert_eq!(back, spec, "round trip failed for chaos case {i}");
        }
    }

    #[test]
    fn chaos_rejects_degenerates_and_is_omitted_when_empty() {
        let mut spec = ScenarioSpec::generate_chaos(7);
        // Standard-class specs never mention chaos in their JSON.
        let std_text = ScenarioSpec::generate(7).to_json();
        assert!(!std_text.contains("chaos"));
        // A chaos-only scenario (no foreground jobs) is valid.
        spec.jobs.clear();
        let back = ScenarioSpec::from_json(&spec.to_json()).expect("parses");
        assert_eq!(back, spec);
        // Over-100% combined fault probability is rejected.
        spec.chaos[0].throttle_pct = 80;
        spec.chaos[0].transient_pct = 30;
        assert!(ScenarioSpec::from_json(&spec.to_json()).is_err());
        spec.chaos[0].transient_pct = 0;
        spec.chaos[0].bytes = 0;
        assert!(ScenarioSpec::from_json(&spec.to_json()).is_err());
    }

    #[test]
    fn sync_generation_is_deterministic_and_round_trips() {
        let a = ScenarioSpec::generate_sync(42);
        assert_eq!(a, ScenarioSpec::generate_sync(42));
        assert!(!a.sync.is_empty(), "sync class always has sessions");
        for i in 0..50 {
            let spec = ScenarioSpec::generate_sync(case_seed(13, i));
            assert!(!spec.sync.is_empty() && spec.sync.len() <= 2);
            for s in &spec.sync {
                assert!(s.files >= 1 && s.file_kb >= 4 && s.rounds >= 1);
                assert!(s.cache_kb >= 2);
            }
            let back = ScenarioSpec::from_json(&spec.to_json()).expect("parses");
            assert_eq!(back, spec, "round trip failed for sync case {i}");
        }
        // Some generated stores are small enough to evict mid-run.
        assert!((0..50).any(|i| {
            ScenarioSpec::generate_sync(case_seed(13, i))
                .sync
                .iter()
                .any(|s| s.cache_kb <= 8)
        }));
    }

    #[test]
    fn sync_rejects_degenerates_and_is_omitted_when_empty() {
        // Standard- and chaos-class specs never mention sync in their JSON.
        assert!(!ScenarioSpec::generate(7).to_json().contains("sync"));
        assert!(!ScenarioSpec::generate_chaos(7).to_json().contains("sync"));
        // A sync-only scenario (no jobs, no chaos) is valid.
        let mut spec = ScenarioSpec::generate_sync(9);
        spec.jobs.clear();
        let back = ScenarioSpec::from_json(&spec.to_json()).expect("parses");
        assert_eq!(back, spec);
        // Zero files / rounds / cache are rejected.
        for field in ["files", "rounds", "cache_kb"] {
            let v = match field {
                "files" => spec.sync[0].files,
                "rounds" => spec.sync[0].rounds,
                _ => spec.sync[0].cache_kb,
            };
            let text = spec
                .to_json()
                .replace(&format!("\"{field}\":{v}"), &format!("\"{field}\":0"));
            assert!(
                ScenarioSpec::from_json(&text).is_err(),
                "accepted {field}=0"
            );
        }
    }

    /// A spec with every section populated, each field inside its bound.
    fn full_spec() -> ScenarioSpec {
        ScenarioSpec {
            seed: 1,
            topo: TopoSpec::Star {
                hosts: 3,
                access_mbps: 10,
            },
            jitter_pct: 5,
            jobs: vec![JobSpec {
                src: 0,
                dst: 1,
                via: None,
                bytes: 1024,
                class: 0,
                weight_pct: 100,
                start_ms: 0,
            }],
            background: vec![BgSpec {
                src: 0,
                dst: 2,
                heavy: false,
                scale_pct: 50,
            }],
            faults: vec![FaultSpec {
                link: 0,
                at_ms: 10,
                factor_pct: 50,
            }],
            churn: vec![ChurnSpec {
                src: 0,
                dst: 2,
                flows: 5,
                bytes: 4096,
                gap_ms: 1,
            }],
            chaos: vec![ChaosSpec {
                client: 0,
                frontend: 1,
                bytes: 1 << 20,
                throttle_pct: 50,
                transient_pct: 0,
                retry_after_ms: 100,
                deadline_ms: 1000,
                start_ms: 0,
            }],
            sync: vec![SyncSpec {
                client: 0,
                relay: 1,
                files: 1,
                file_kb: 4,
                rounds: 1,
                cache_kb: 16,
                dataset: 0,
                churny: false,
                start_ms: 0,
            }],
            replicas: 1,
        }
    }

    /// `mutate` pushes one field of `full_spec` past its bound; parsing
    /// must fail with an error naming that field.
    fn assert_rejected(field: &str, mutate: impl FnOnce(&mut ScenarioSpec)) {
        let mut spec = full_spec();
        mutate(&mut spec);
        let err = ScenarioSpec::from_json(&spec.to_json()).expect_err(field);
        assert!(err.contains(field), "{field}: {err}");
    }

    #[test]
    fn fields_at_their_bounds_are_accepted() {
        let mut spec = full_spec();
        spec.jitter_pct = MAX_JITTER_PCT;
        spec.topo = TopoSpec::Synth {
            transit: MAX_NODES,
            stubs: MAX_NODES,
            hosts: MAX_NODES,
            core_mbps: 500,
            access_lo_mbps: 5,
            access_hi_mbps: 50,
            topo_seed: u64::MAX,
        };
        spec.jobs[0].bytes = MAX_BYTES;
        spec.jobs[0].start_ms = MAX_MS;
        spec.background[0].scale_pct = MAX_SCALE_PCT;
        spec.faults[0].at_ms = MAX_MS;
        spec.churn[0].gap_ms = MAX_MS;
        spec.chaos[0].retry_after_ms = MAX_MS;
        spec.chaos[0].deadline_ms = MAX_MS;
        spec.sync[0].files = MAX_SYNC_FILES;
        spec.sync[0].file_kb = MAX_FILE_KB;
        spec.sync[0].rounds = MAX_SYNC_ROUNDS;
        assert_eq!(ScenarioSpec::from_json(&spec.to_json()), Ok(spec));
    }

    #[test]
    fn jitter_of_100_pct_or_more_is_rejected() {
        assert_rejected("\"jitter_pct\" is 150", |s| s.jitter_pct = 150);
        assert_rejected("\"jitter_pct\" is 100", |s| s.jitter_pct = 100);
    }

    #[test]
    fn job_start_past_sim_time_is_rejected() {
        assert_rejected("jobs[0]: field \"start_ms\"", |s| {
            s.jobs[0].start_ms = u64::MAX
        });
    }

    #[test]
    fn chaos_retry_after_past_sim_time_is_rejected() {
        assert_rejected("chaos[0]: field \"retry_after_ms\"", |s| {
            s.chaos[0].retry_after_ms = u64::MAX
        });
    }

    #[test]
    fn chaos_deadline_past_sim_time_is_rejected() {
        assert_rejected("chaos[0]: field \"deadline_ms\"", |s| {
            s.chaos[0].deadline_ms = u64::MAX
        });
    }

    #[test]
    fn churn_gap_past_sim_time_is_rejected() {
        assert_rejected("churn[0]: field \"gap_ms\"", |s| {
            s.churn[0].gap_ms = u64::MAX
        });
    }

    #[test]
    fn background_scale_too_large_to_allocate_is_rejected() {
        assert_rejected("background[0]: field \"scale_pct\"", |s| {
            s.background[0].scale_pct = u32::MAX
        });
    }

    #[test]
    fn fault_time_that_would_wrap_is_rejected() {
        assert_rejected("faults[0]: field \"at_ms\"", |s| {
            s.faults[0].at_ms = u64::MAX
        });
    }

    #[test]
    fn allocation_sizes_past_their_bounds_are_rejected() {
        assert_rejected("field \"hosts\"", |s| {
            s.topo = TopoSpec::Star {
                hosts: u32::MAX,
                access_mbps: 10,
            }
        });
        assert_rejected("jobs[0]: field \"bytes\"", |s| s.jobs[0].bytes = u64::MAX);
        assert_rejected("churn[0]: field \"bytes\"", |s| s.churn[0].bytes = u64::MAX);
        assert_rejected("chaos[0]: field \"bytes\"", |s| s.chaos[0].bytes = u64::MAX);
        assert_rejected("sync[0]: field \"files\"", |s| s.sync[0].files = u32::MAX);
        assert_rejected("sync[0]: field \"file_kb\"", |s| {
            s.sync[0].file_kb = u32::MAX
        });
        assert_rejected("sync[0]: field \"rounds\"", |s| s.sync[0].rounds = u32::MAX);
        // Each probability is bounded on its own, so their sum cannot wrap.
        assert_rejected("chaos[0]: field \"throttle_pct\"", |s| {
            s.chaos[0].throttle_pct = u32::MAX
        });
    }

    #[test]
    fn replicas_round_trip_and_reject_degenerates() {
        let mut spec = ScenarioSpec::generate(3);
        spec.replicas = 3;
        let text = spec.to_json();
        assert!(text.contains("\"replicas\":3"));
        assert_eq!(ScenarioSpec::from_json(&text).expect("parses"), spec);

        // Single-replica specs omit the field entirely, so pre-sharding
        // replay files stay byte-compatible.
        spec.replicas = 1;
        let text = spec.to_json();
        assert!(!text.contains("replicas"));
        assert_eq!(ScenarioSpec::from_json(&text).expect("parses"), spec);

        for bad in ["\"replicas\":0", "\"replicas\":9"] {
            let mut broken = ScenarioSpec::from_json(&text).expect("parses");
            broken.replicas = 2;
            let t = broken.to_json().replace("\"replicas\":2", bad);
            assert!(ScenarioSpec::from_json(&t).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn cells_reseed_replicas_and_keep_singletons_intact() {
        let mut spec = ScenarioSpec::generate(11);
        spec.replicas = 1;
        assert_eq!(spec.cells(), vec![spec.clone()], "one cell, seed untouched");

        spec.replicas = 3;
        let cells = spec.cells();
        assert_eq!(cells.len(), 3);
        let seeds: std::collections::HashSet<u64> = cells.iter().map(|c| c.seed).collect();
        assert_eq!(seeds.len(), 3, "each cell gets its own seed");
        for (k, cell) in cells.iter().enumerate() {
            assert_eq!(cell.replicas, 1, "cells are not themselves replicated");
            assert_eq!(cell.seed, case_seed(spec.seed, k as u32));
            assert_eq!(cell.topo, spec.topo, "cells share the world shape");
            assert_eq!(cell.jobs, spec.jobs);
        }
    }

    #[test]
    fn generation_draws_replicated_cases() {
        let replicated = (0..200)
            .filter(|&i| ScenarioSpec::generate(case_seed(5, i)).replicas > 1)
            .count();
        assert!(
            (10..=80).contains(&replicated),
            "expected ~20% replicated standard cases, got {replicated}/200"
        );
        assert!((0..200).any(|i| ScenarioSpec::generate_chaos(case_seed(5, i)).replicas > 1));
    }

    #[test]
    fn node_counts() {
        assert_eq!(
            TopoSpec::Star {
                hosts: 2,
                access_mbps: 10
            }
            .node_count(),
            3
        );
        assert_eq!(
            TopoSpec::Synth {
                transit: 2,
                stubs: 1,
                hosts: 2,
                core_mbps: 500,
                access_lo_mbps: 5,
                access_hi_mbps: 50,
                topo_seed: 1
            }
            .node_count(),
            5
        );
    }
}
