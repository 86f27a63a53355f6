//! The sharded, generation-stamped decision cache and the plane that
//! serves lookups from it.
//!
//! Warm path: admission check (one per-tenant mutex), one relaxed
//! generation load, one shard mutex, one hash-map probe, one optional
//! trip-board load — no global lock, no allocation, everything returned
//! by value as `Copy` structs. Cold and stale paths compute through a
//! [`DecisionSource`] while holding the shard lock, so each (key,
//! generation) pair is computed and published exactly once even under
//! concurrent misses.

use crate::admission::{Admission, AdmissionConfig};
use crate::gen::GenTable;
use crate::key::{DecisionKey, PackedKeyBuild};
use cloudstore::TripBoard;
use netsim::topology::NodeId;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Route index of the direct route in every candidate set.
pub const DIRECT_ROUTE: u32 = 0;

/// One scored route: which candidate won, the node whose breaker gates it,
/// and the predicted transfer time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteScore {
    /// Candidate index; [`DIRECT_ROUTE`] is the direct route.
    pub route_idx: u32,
    /// Gating node: the DTN for a detour, the provider frontend for direct.
    pub target: NodeId,
    /// Predicted seconds for the reference transfer.
    pub expected_secs: f64,
}

impl RouteScore {
    /// Fold the score into a digest-friendly `u64` (exact bits, no
    /// rounding) — the coherence oracle compares these.
    pub fn bits(&self) -> u64 {
        let mut h = crate::key::PackedKeyHasher::default();
        h.write_u64(self.route_idx as u64);
        h.write_u64(self.target.0 as u64);
        h.write_u64(self.expected_secs.to_bits());
        h.finish()
    }
}

/// What the cold path computes and the cache stores per key: the best
/// decision plus its direct-route fallback, so breaker demotion needs no
/// recompute.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredEntry {
    /// The winning route.
    pub best: RouteScore,
    /// The direct route's score (`route_idx == DIRECT_ROUTE`).
    pub direct: RouteScore,
}

/// Computes a scored decision for a key at a generation. Implementations
/// must be *pure*: the same `(key, generation)` must always produce
/// bit-identical scores, across calls and across instances constructed the
/// same way — that is what makes cached decisions checkable against fresh
/// ones (simcheck's `PlaneDivergence` oracle) and cold-path publication
/// race-free.
pub trait DecisionSource {
    /// Score every candidate route for `key` as observed at `generation`.
    fn compute(&self, key: DecisionKey, generation: u64) -> ScoredEntry;
}

impl<S: DecisionSource + ?Sized> DecisionSource for &S {
    fn compute(&self, key: DecisionKey, generation: u64) -> ScoredEntry {
        (**self).compute(key, generation)
    }
}

/// A served decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    /// The route to use (already demoted to direct if a breaker is open).
    pub score: RouteScore,
    /// Generation the decision is current for.
    pub generation: u64,
    /// Virtual time the underlying entry was computed at; `now -
    /// computed_at_ns` is the decision's staleness (age).
    pub computed_at_ns: u64,
}

/// How a lookup was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeStatus {
    /// Warm hit at the current generation.
    Warm,
    /// First computation for this key (cold miss).
    Computed,
    /// Entry existed but its generation was stale; recomputed lazily.
    Refreshed,
    /// Served the direct fallback because the best route's breaker is open.
    /// The underlying entry may have been warm or recomputed.
    Demoted,
}

/// Lookup outcome: a decision, or deterministic shedding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Lookup {
    /// Admission control rejected the request (tenant over quota).
    Shed,
    /// A decision was served.
    Served {
        /// The decision.
        decision: Decision,
        /// How it was satisfied.
        status: ServeStatus,
    },
}

/// Plane shape and quotas.
#[derive(Debug, Clone, Copy)]
pub struct PlaneConfig {
    /// Cache shards (rounded up to a power of two).
    pub shards: usize,
    /// Providers served.
    pub providers: u16,
    /// Vantages served.
    pub vantages: u32,
    /// Generation-bucket width is `1 << vantage_bucket_shift` vantages.
    pub vantage_bucket_shift: u32,
    /// Tenants sharing the plane.
    pub tenants: u32,
    /// Per-tenant admission quota.
    pub admission: AdmissionConfig,
}

impl Default for PlaneConfig {
    fn default() -> Self {
        PlaneConfig {
            shards: 64,
            providers: 3,
            vantages: 1024,
            vantage_bucket_shift: 4,
            tenants: 8,
            admission: AdmissionConfig::default(),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct CacheSlot {
    entry: ScoredEntry,
    generation: u64,
    computed_at_ns: u64,
}

/// Monotonic counters the plane keeps; all relaxed atomics, exportable as
/// dotted `obs` metrics.
#[derive(Debug, Default)]
pub struct PlaneCounters {
    /// Warm hits at the current generation.
    pub hits: AtomicU64,
    /// Cold misses (first computation for the key).
    pub misses: AtomicU64,
    /// Lazy recomputations of generation-stale entries.
    pub stale_refreshes: AtomicU64,
    /// Decisions demoted to direct by an open breaker.
    pub demotions: AtomicU64,
    /// Requests shed by admission control.
    pub sheds: AtomicU64,
}

/// A point-in-time copy of [`PlaneCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlaneStats {
    /// Warm hits.
    pub hits: u64,
    /// Cold misses.
    pub misses: u64,
    /// Stale refreshes.
    pub stale_refreshes: u64,
    /// Breaker demotions.
    pub demotions: u64,
    /// Shed requests.
    pub sheds: u64,
}

impl PlaneStats {
    /// Decisions served (everything but sheds).
    pub fn served(&self) -> u64 {
        self.hits + self.misses + self.stale_refreshes
    }
}

/// The multi-tenant route-decision service. See the crate docs for the
/// design; construction wires the cache, generation table and admission
/// controller, [`RoutePlane::with_trip_board`] attaches breaker state.
///
/// The plane owns no [`DecisionSource`]: lookups take one, so worker
/// threads can keep thread-local (non-`Sync`, e.g. simulator-backed)
/// sources while sharing one plane.
pub struct RoutePlane {
    cfg: PlaneConfig,
    shards: Box<[Mutex<HashMap<u64, CacheSlot, PackedKeyBuild>>]>,
    shard_mask: usize,
    gens: GenTable,
    admission: Admission,
    trips: Option<Arc<TripBoard>>,
    counters: PlaneCounters,
}

impl RoutePlane {
    /// Build a plane.
    pub fn new(cfg: PlaneConfig) -> Self {
        let shards = cfg.shards.next_power_of_two().max(1);
        RoutePlane {
            shards: (0..shards)
                .map(|_| Mutex::new(HashMap::with_hasher(PackedKeyBuild::default())))
                .collect(),
            shard_mask: shards - 1,
            gens: GenTable::new(cfg.providers, cfg.vantages, cfg.vantage_bucket_shift),
            admission: Admission::new(cfg.tenants, cfg.admission),
            trips: None,
            counters: PlaneCounters::default(),
            cfg,
        }
    }

    /// Attach breaker state: decisions whose best route's target is open
    /// demote to the cached direct fallback within the same lookup.
    pub fn with_trip_board(mut self, board: Arc<TripBoard>) -> Self {
        self.trips = Some(board);
        self
    }

    /// The configuration in force.
    pub fn config(&self) -> &PlaneConfig {
        &self.cfg
    }

    fn shard_of(&self, packed: u64) -> &Mutex<HashMap<u64, CacheSlot, PackedKeyBuild>> {
        let h = PackedKeyBuild::default().hash_one(packed);
        &self.shards[(h as usize) & self.shard_mask]
    }

    /// Serve one route decision for `tenant` at virtual time `now_ns`,
    /// computing through `source` on cold or stale keys.
    pub fn lookup<S: DecisionSource>(
        &self,
        tenant: u32,
        key: DecisionKey,
        now_ns: u64,
        source: &S,
    ) -> Lookup {
        if !self.admission.try_admit(tenant, now_ns) {
            self.counters.sheds.fetch_add(1, Ordering::Relaxed);
            return Lookup::Shed;
        }
        let generation = self.gens.current(key);
        let packed = key.pack();
        let mut map = self.shard_of(packed).lock().expect("shard lock poisoned");
        let (slot, mut status) = match map.entry(packed) {
            std::collections::hash_map::Entry::Occupied(mut o) => {
                if o.get().generation == generation {
                    self.counters.hits.fetch_add(1, Ordering::Relaxed);
                    (*o.get(), ServeStatus::Warm)
                } else {
                    self.counters
                        .stale_refreshes
                        .fetch_add(1, Ordering::Relaxed);
                    let fresh = CacheSlot {
                        entry: source.compute(key, generation),
                        generation,
                        computed_at_ns: now_ns,
                    };
                    o.insert(fresh);
                    (fresh, ServeStatus::Refreshed)
                }
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                self.counters.misses.fetch_add(1, Ordering::Relaxed);
                let fresh = CacheSlot {
                    entry: source.compute(key, generation),
                    generation,
                    computed_at_ns: now_ns,
                };
                v.insert(fresh);
                (fresh, ServeStatus::Computed)
            }
        };
        drop(map);
        let mut score = slot.entry.best;
        if score.route_idx != DIRECT_ROUTE {
            if let Some(board) = &self.trips {
                if board.is_open(score.target, now_ns) {
                    self.counters.demotions.fetch_add(1, Ordering::Relaxed);
                    score = slot.entry.direct;
                    status = ServeStatus::Demoted;
                }
            }
        }
        Lookup::Served {
            decision: Decision {
                score,
                generation: slot.generation,
                computed_at_ns: slot.computed_at_ns,
            },
            status,
        }
    }

    /// Monitor-fed invalidation: bump the generation of every bucket
    /// overlapping vantages `[lo, hi]` for `provider`. Affected entries
    /// recompute lazily on their next lookup.
    pub fn invalidate_vantage_range(&self, provider: u16, lo: u32, hi: u32) -> usize {
        self.gens.bump_vantage_range(provider, lo, hi)
    }

    /// The generation table (read-side, e.g. for coherence checks).
    pub fn generations(&self) -> &GenTable {
        &self.gens
    }

    /// Cached entries across all shards (walks every shard lock; not for
    /// the hot path).
    pub fn cached_entries(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard lock poisoned").len())
            .sum()
    }

    /// Pre-size every shard for `keys` total keys, so a steady-state
    /// workload's inserts never rehash (the zero-allocation warm-path test
    /// relies on reaching steady state first, not on this, but fleets use
    /// it to avoid rehash stalls mid-run).
    pub fn reserve(&self, keys: usize) {
        let per_shard = keys / self.shards.len() + 1;
        for s in self.shards.iter() {
            s.lock().expect("shard lock poisoned").reserve(per_shard);
        }
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> PlaneStats {
        PlaneStats {
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            stale_refreshes: self.counters.stale_refreshes.load(Ordering::Relaxed),
            demotions: self.counters.demotions.load(Ordering::Relaxed),
            sheds: self.counters.sheds.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SyntheticSource;
    use cloudstore::TripBoard;
    use netsim::time::SimTime;

    fn plane(cfg: PlaneConfig) -> (RoutePlane, SyntheticSource) {
        (RoutePlane::new(cfg), SyntheticSource::new(77, 4, 64))
    }

    fn served(l: Lookup) -> (Decision, ServeStatus) {
        match l {
            Lookup::Served { decision, status } => (decision, status),
            Lookup::Shed => panic!("unexpected shed"),
        }
    }

    #[test]
    fn cold_then_warm_then_stale() {
        let (p, src) = plane(PlaneConfig::default());
        let key = DecisionKey {
            vantage: 9,
            provider: 1,
            size_class: 1,
        };
        let (d0, s0) = served(p.lookup(0, key, 1_000, &src));
        assert_eq!(s0, ServeStatus::Computed);
        let (d1, s1) = served(p.lookup(0, key, 2_000, &src));
        assert_eq!(s1, ServeStatus::Warm);
        assert_eq!(d1, d0, "warm hit must serve the cached decision");
        assert_eq!(d1.computed_at_ns, 1_000);

        p.invalidate_vantage_range(1, 0, 20);
        let (d2, s2) = served(p.lookup(0, key, 3_000, &src));
        assert_eq!(s2, ServeStatus::Refreshed);
        assert_eq!(d2.generation, d0.generation + 1);
        assert_eq!(d2.computed_at_ns, 3_000);

        let st = p.stats();
        assert_eq!((st.hits, st.misses, st.stale_refreshes), (1, 1, 1));
        assert_eq!(
            p.cached_entries(),
            1,
            "stale entries are replaced, not leaked"
        );
    }

    #[test]
    fn invalidation_only_touches_the_bumped_range() {
        let (p, src) = plane(PlaneConfig {
            vantage_bucket_shift: 2,
            ..PlaneConfig::default()
        });
        let inside = DecisionKey {
            vantage: 5,
            provider: 0,
            size_class: 0,
        };
        let outside = DecisionKey {
            vantage: 40,
            provider: 0,
            size_class: 0,
        };
        let other_provider = DecisionKey {
            vantage: 5,
            provider: 2,
            size_class: 0,
        };
        for k in [inside, outside, other_provider] {
            served(p.lookup(0, k, 0, &src));
        }
        p.invalidate_vantage_range(0, 4, 7);
        assert_eq!(
            served(p.lookup(0, inside, 10, &src)).1,
            ServeStatus::Refreshed
        );
        assert_eq!(served(p.lookup(0, outside, 10, &src)).1, ServeStatus::Warm);
        assert_eq!(
            served(p.lookup(0, other_provider, 10, &src)).1,
            ServeStatus::Warm
        );
    }

    #[test]
    fn breaker_trip_demotes_within_one_lookup() {
        let board = Arc::new(TripBoard::new(4096));
        let (p, src) = plane(PlaneConfig::default());
        let p = p.with_trip_board(Arc::clone(&board));
        // Find a key whose best route is a detour.
        let key = (0..200u32)
            .map(|v| DecisionKey {
                vantage: v,
                provider: 0,
                size_class: 0,
            })
            .find(|&k| src.compute(k, 0).best.route_idx != DIRECT_ROUTE)
            .expect("synthetic source must pick some detours");
        let (d0, _) = served(p.lookup(0, key, 0, &src));
        assert_ne!(d0.score.route_idx, DIRECT_ROUTE);
        // Trip the detour's gating node: the very next lookup is demoted.
        board.trip(d0.score.target, SimTime::from_secs(30));
        let (d1, s1) = served(p.lookup(0, key, 100, &src));
        assert_eq!(s1, ServeStatus::Demoted);
        assert_eq!(d1.score.route_idx, DIRECT_ROUTE);
        assert_eq!(d1.generation, d0.generation, "demotion is not a recompute");
        // Cooldown passes (board clock) → the cached best is served again.
        let (d2, s2) = served(p.lookup(0, key, SimTime::from_secs(31).as_nanos(), &src));
        assert_eq!(s2, ServeStatus::Warm);
        assert_eq!(d2.score, d0.score);
        assert_eq!(p.stats().demotions, 1);
    }

    #[test]
    fn shedding_is_counted_and_deterministic() {
        let cfg = PlaneConfig {
            tenants: 2,
            admission: AdmissionConfig {
                tokens_per_sec: 1000,
                burst: 2,
            },
            ..PlaneConfig::default()
        };
        let run = || {
            let (p, src) = plane(cfg);
            let mut shed = Vec::new();
            for i in 0..50u64 {
                let key = DecisionKey {
                    vantage: (i % 7) as u32,
                    provider: 0,
                    size_class: 0,
                };
                if p.lookup((i % 2) as u32, key, i * 50_000, &src) == Lookup::Shed {
                    shed.push(i);
                }
            }
            (shed, p.stats().sheds)
        };
        let (shed_a, count_a) = run();
        let (shed_b, count_b) = run();
        assert!(!shed_a.is_empty());
        assert_eq!(shed_a, shed_b, "same seed, same shed set");
        assert_eq!(count_a, count_b);
        assert_eq!(shed_a.len() as u64, count_a);
    }

    #[test]
    fn cached_decisions_match_fresh_computation() {
        let (p, src) = plane(PlaneConfig::default());
        for v in 0..50u32 {
            let key = DecisionKey {
                vantage: v,
                provider: (v % 3) as u16,
                size_class: (v % 3) as u8,
            };
            served(p.lookup(0, key, 0, &src));
            if v % 2 == 0 {
                p.invalidate_vantage_range((v % 3) as u16, v / 2, v + 3);
            }
            let (d, _) = served(p.lookup(0, key, 1, &src));
            let fresh = src.compute(key, d.generation);
            assert_eq!(d.score.bits(), fresh.best.bits(), "vantage {v}");
        }
    }
}
