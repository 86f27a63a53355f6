//! Fleet driver: millions of simulated clients hammering one plane.
//!
//! Clients draw keys from a zipf-skewed popularity distribution (a few
//! vantage/provider cells dominate, the long tail stays cold, like real
//! client populations). Time is *virtual*: lookup `seq` happens at
//! `seq * ns_per_lookup`, driven by one global sequence counter, so
//! admission refills, breaker cooldowns and staleness are measured in
//! deterministic nanoseconds regardless of host speed. Monitor churn and
//! breaker trips fire at fixed sequence boundaries — exactly one event per
//! boundary even when several threads race past it, because the thread
//! that drew the boundary sequence number owns its event.

use crate::cache::{Lookup, PlaneConfig, PlaneStats, RoutePlane, ServeStatus};
use crate::key::{DecisionKey, SIZE_CLASSES};
use crate::source::{splitmix64, SyntheticSource};
use cloudstore::TripBoard;
use netsim::time::SimTime;
use obs::QuantileSketch;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Fleet-run shape.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Distinct simulated clients (the zipf population).
    pub clients: u64,
    /// Total route decisions to serve.
    pub lookups: u64,
    /// Worker threads (1 = fully deterministic).
    pub threads: usize,
    /// Seed for the key/churn/trip schedules.
    pub seed: u64,
    /// Zipf skew exponent (1.0 ≈ classic web popularity; larger = hotter).
    pub zipf_s: f64,
    /// Bump a random vantage range every N lookups (0 = no churn).
    pub churn_every: u64,
    /// Vantages per churn bump.
    pub churn_width: u32,
    /// Trip a random node's breaker every N lookups (0 = no trips).
    pub trip_every: u64,
    /// How long a tripped breaker stays open, virtual ns.
    pub trip_cooldown_ns: u64,
    /// Virtual nanoseconds per lookup (the fleet-wide arrival rate).
    pub ns_per_lookup: u64,
    /// Nodes in the world (trip targets).
    pub nodes: u32,
    /// Detour candidates per key in the synthetic source.
    pub detours: u32,
    /// Plane shape and quotas.
    pub plane: PlaneConfig,
}

impl FleetConfig {
    /// Virtual nanoseconds for one full churn sweep over every (provider,
    /// vantage-window) cell — the hard upper bound on served-decision
    /// staleness, saturating at `u64::MAX`. `None` when churn is off.
    pub fn churn_period_ns(&self) -> Option<u64> {
        if self.churn_every == 0 {
            return None;
        }
        let windows = (self.plane.vantages as u64).div_ceil(self.churn_width.max(1) as u64);
        Some(
            self.churn_every
                .saturating_mul(windows)
                .saturating_mul(self.plane.providers as u64)
                .saturating_mul(self.ns_per_lookup),
        )
    }
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            clients: 1_000_000,
            lookups: 2_000_000,
            threads: 1,
            seed: 7,
            zipf_s: 1.05,
            churn_every: 10_000,
            churn_width: 32,
            trip_every: 50_000,
            trip_cooldown_ns: 200_000_000,
            ns_per_lookup: 1_000,
            nodes: 4096,
            detours: 4,
            plane: PlaneConfig::default(),
        }
    }
}

/// What a fleet run measured.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Lookups issued (served + shed).
    pub lookups: u64,
    /// Wall-clock seconds the run took.
    pub elapsed_secs: f64,
    /// Decisions per wall-clock second (served + shed — sheds are answers).
    pub qps: f64,
    /// Plane counter snapshot.
    pub stats: PlaneStats,
    /// Generation buckets bumped by churn.
    pub churn_bumps: u64,
    /// Breakers tripped.
    pub trips: u64,
    /// Decision staleness (now − computed_at), virtual ns, over every
    /// served decision.
    pub staleness: QuantileSketch,
    /// Order-insensitive fold of every outcome: same seed + one thread →
    /// same digest, which is what the determinism tests pin.
    pub digest: u64,
}

impl FleetReport {
    /// Staleness quantile in virtual nanoseconds.
    pub fn staleness_ns(&self, q: f64) -> u64 {
        self.staleness.quantile(q).unwrap_or(0)
    }

    /// Served decisions (hits, misses and stale refreshes) per wall-clock
    /// second.
    pub fn served_qps(&self) -> f64 {
        self.stats.served() as f64 / self.elapsed_secs.max(1e-9)
    }

    /// Shed lookups per wall-clock second; with [`FleetReport::served_qps`]
    /// it sums to `qps`.
    pub fn shed_qps(&self) -> f64 {
        self.stats.sheds as f64 / self.elapsed_secs.max(1e-9)
    }

    /// One-line human summary.
    pub fn to_line(&self) -> String {
        format!(
            "{} lookups in {:.2}s = {:.0}/s (served {:.0}/s, shed {:.0}/s) | hit {} miss {} stale {} demote {} shed {} | staleness p50 {}ns p99 {}ns | digest {:016x}",
            self.lookups,
            self.elapsed_secs,
            self.qps,
            self.served_qps(),
            self.shed_qps(),
            self.stats.hits,
            self.stats.misses,
            self.stats.stale_refreshes,
            self.stats.demotions,
            self.stats.sheds,
            self.staleness_ns(0.50),
            self.staleness_ns(0.99),
            self.digest,
        )
    }
}

/// Inverse-CDF zipf(s) sample over ranks `1..=n` from a uniform `u` in
/// [0, 1). Approximate (continuous relaxation) but monotone and cheap —
/// popularity shaping, not exact zipf moments, is what the fleet needs.
fn zipf_rank(u: f64, n: u64, s: f64) -> u64 {
    debug_assert!((0.0..1.0).contains(&u));
    if (s - 1.0).abs() < 1e-9 {
        // s = 1: CDF ∝ ln(k), invert with exp.
        let rank = ((n as f64).ln() * u).exp();
        return (rank as u64).clamp(1, n);
    }
    let e = 1.0 - s;
    let top = (n as f64).powf(e) - 1.0;
    let rank = (top * u + 1.0).powf(1.0 / e);
    (rank as u64).clamp(1, n)
}

/// The key a client hits: popular clients concentrate on few cells.
fn key_for_client(client: u64, cfg: &FleetConfig) -> DecisionKey {
    let h = splitmix64(client ^ 0xC1EA_7001);
    DecisionKey {
        vantage: (h % cfg.plane.vantages as u64) as u32,
        provider: ((h >> 32) % cfg.plane.providers as u64) as u16,
        size_class: ((h >> 56) % SIZE_CLASSES as u64) as u8,
    }
}

struct WorkerOut {
    staleness: QuantileSketch,
    digest: u64,
    churn_bumps: u64,
    trips: u64,
}

fn status_tag(status: ServeStatus) -> u64 {
    match status {
        ServeStatus::Warm => 1,
        ServeStatus::Computed => 2,
        ServeStatus::Refreshed => 3,
        ServeStatus::Demoted => 4,
    }
}

fn run_worker(
    plane: &RoutePlane,
    board: &TripBoard,
    seq: &AtomicU64,
    cfg: &FleetConfig,
) -> WorkerOut {
    let source = SyntheticSource::new(cfg.seed, cfg.detours, cfg.nodes);
    let mut out = WorkerOut {
        staleness: QuantileSketch::new(),
        digest: 0,
        churn_bumps: 0,
        trips: 0,
    };
    loop {
        let i = seq.fetch_add(1, Ordering::Relaxed);
        if i >= cfg.lookups {
            return out;
        }
        let now_ns = i * cfg.ns_per_lookup;
        // The thread that drew a boundary sequence owns its event, so each
        // fires exactly once no matter the thread count.
        //
        // Churn sweeps (provider, vantage-window) cells round-robin, like a
        // monitor walking its probe schedule. The sweep is what bounds
        // staleness: every bucket is re-bumped every `churn_period_ns()`,
        // and a warm entry's generation became current no earlier than its
        // bucket's last bump, so no served decision is ever older than one
        // sweep period.
        if cfg.churn_every > 0 && i.is_multiple_of(cfg.churn_every) {
            let j = i / cfg.churn_every;
            let windows = (cfg.plane.vantages as u64).div_ceil(cfg.churn_width.max(1) as u64);
            let provider = ((j / windows) % cfg.plane.providers as u64) as u16;
            let lo = ((j % windows) * cfg.churn_width as u64) as u32;
            let hi = lo.saturating_add(cfg.churn_width.saturating_sub(1));
            out.churn_bumps += plane.invalidate_vantage_range(provider, lo, hi) as u64;
        }
        if cfg.trip_every > 0 && i.is_multiple_of(cfg.trip_every) {
            let h = splitmix64(cfg.seed ^ i ^ 0x7219);
            let node = netsim::topology::NodeId((h % cfg.nodes as u64) as u32);
            board.trip(node, SimTime::from_nanos(now_ns + cfg.trip_cooldown_ns));
            out.trips += 1;
        }
        // Draw a client by zipf popularity; its cell and tenant follow.
        let u = (splitmix64(cfg.seed ^ i) >> 11) as f64 / (1u64 << 53) as f64;
        let client = zipf_rank(u, cfg.clients, cfg.zipf_s) - 1;
        let key = key_for_client(client, cfg);
        let tenant = (client % cfg.plane.tenants as u64) as u32;
        let fold = match plane.lookup(tenant, key, now_ns, &source) {
            Lookup::Shed => splitmix64(i ^ 0x5EED),
            Lookup::Served { decision, status } => {
                // Saturating: a threaded run can serve an entry another
                // worker stamped with a later virtual time than this seq.
                out.staleness
                    .record(now_ns.saturating_sub(decision.computed_at_ns));
                splitmix64(
                    i ^ decision.score.bits() ^ decision.generation ^ status_tag(status) << 60,
                )
            }
        };
        out.digest = out.digest.wrapping_add(fold);
    }
}

/// Run a fleet against a fresh plane and report. One thread replays
/// exactly for a seed; more threads trade that for throughput (the digest
/// then depends on interleaving, but every decision still passes the
/// coherence oracle).
pub fn run_fleet(cfg: &FleetConfig) -> FleetReport {
    assert!(cfg.threads >= 1 && cfg.lookups > 0 && cfg.clients > 0);
    let board = Arc::new(TripBoard::new(cfg.nodes as usize));
    let plane = RoutePlane::new(cfg.plane).with_trip_board(Arc::clone(&board));
    let distinct = (cfg.plane.vantages as usize)
        .saturating_mul(cfg.plane.providers as usize)
        .saturating_mul(3)
        .min(cfg.clients as usize);
    plane.reserve(distinct);
    let seq = AtomicU64::new(0);
    let start = Instant::now();
    let outs: Vec<WorkerOut> = if cfg.threads == 1 {
        vec![run_worker(&plane, &board, &seq, cfg)]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..cfg.threads)
                .map(|_| scope.spawn(|| run_worker(&plane, &board, &seq, cfg)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        })
    };
    let elapsed = start.elapsed().as_secs_f64();
    let staleness = QuantileSketch::merge_all(outs.iter().map(|o| &o.staleness));
    FleetReport {
        lookups: cfg.lookups,
        elapsed_secs: elapsed,
        qps: cfg.lookups as f64 / elapsed.max(1e-9),
        stats: plane.stats(),
        churn_bumps: outs.iter().map(|o| o.churn_bumps).sum(),
        trips: outs.iter().map(|o| o.trips).sum(),
        staleness,
        digest: outs.iter().fold(0u64, |d, o| d.wrapping_add(o.digest)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> FleetConfig {
        FleetConfig {
            clients: 50_000,
            lookups: 60_000,
            churn_every: 2_000,
            trip_every: 7_000,
            ..FleetConfig::default()
        }
    }

    #[test]
    fn single_thread_runs_are_bit_identical() {
        let a = run_fleet(&small());
        let b = run_fleet(&small());
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.staleness_ns(0.99), b.staleness_ns(0.99));
        let mut other_seed = small();
        other_seed.seed = 8;
        assert_ne!(run_fleet(&other_seed).digest, a.digest);
    }

    #[test]
    fn fleet_exercises_every_path() {
        let r = run_fleet(&small());
        assert_eq!(r.stats.served() + r.stats.sheds, r.lookups);
        assert!(
            r.stats.hits > r.stats.misses,
            "zipf skew must produce warm hits"
        );
        assert!(r.stats.stale_refreshes > 0, "churn must stale some entries");
        assert!(r.stats.demotions > 0, "trips must demote some decisions");
        assert!(r.trips > 0 && r.churn_bumps > 0);
        assert_eq!(r.staleness.count(), r.stats.served());
        let split = r.served_qps() + r.shed_qps();
        assert!(
            (split - r.qps).abs() <= 1e-9 * r.qps,
            "{split} vs {}",
            r.qps
        );
    }

    #[test]
    fn staleness_is_bounded_by_the_churn_sweep() {
        let cfg = FleetConfig {
            churn_every: 250,
            churn_width: 64,
            ..small()
        };
        // 1024 vantages / 64 per window × 3 providers × 250 lookups ×
        // 1µs/lookup = a 12ms sweep; run spans 60ms, so the bound bites.
        let period = cfg.churn_period_ns().unwrap();
        assert_eq!(period, 12_000_000);
        assert!(period < cfg.lookups * cfg.ns_per_lookup / 4);
        let r = run_fleet(&cfg);
        let max = r.staleness.max().unwrap();
        assert!(
            max <= period,
            "staleness max {max}ns exceeds the sweep period {period}ns"
        );
        assert!(r.staleness_ns(0.99) <= period);
        assert!(r.staleness_ns(0.99) > 0);
    }

    #[test]
    fn threaded_fleet_matches_counters() {
        let cfg = FleetConfig {
            threads: 4,
            ..small()
        };
        let r = run_fleet(&cfg);
        assert_eq!(r.stats.served() + r.stats.sheds, r.lookups);
        assert_eq!(r.staleness.count(), r.stats.served());
        assert_eq!(
            r.trips,
            (cfg.lookups.saturating_sub(1) / cfg.trip_every) + 1
        );
    }

    #[test]
    fn zipf_is_monotone_and_in_range() {
        for &s in &[0.8, 1.0, 1.2] {
            let mut prev = 1;
            for i in 0..100 {
                let u = i as f64 / 100.0;
                let r = zipf_rank(u, 1000, s);
                assert!((1..=1000).contains(&r));
                assert!(r >= prev, "inverse CDF must be monotone");
                prev = r;
            }
        }
    }
}
