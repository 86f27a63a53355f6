//! The shared resilience plane: retry budgets, deadlines and jittered
//! backoff.
//!
//! Every transfer path (uploads, rsync legs, store-and-forward relays,
//! pipelined relays) retries injected faults through the same
//! [`RetryPolicy`]:
//!
//! * a session-wide retry **budget** shared by `429` throttles and `5xx`
//!   transient errors, so a hopeless endpoint terminates in bounded sim
//!   time instead of spinning forever (throttles used to be uncounted);
//! * exponential backoff with optional **deterministic jitter** drawn from
//!   the simulation PRNG — reproducible per seed, and never drawn on the
//!   fault-free path so healthy-run timings stay byte-identical;
//! * an optional hard **deadline** in sim time, checked before every
//!   retry wait is scheduled.
//!
//! [`TripBoard`] publishes per-node open state to `Sync` readers: the
//! route-intelligence plane demotes detours through a tripped target.

use crate::faults::FaultPlan;
use netsim::error::NetError;
use netsim::time::SimTime;
use netsim::topology::NodeId;
use rand::rngs::SmallRng;
use rand::Rng;
use std::sync::atomic::{AtomicU64, Ordering};

/// Jitter applied to backoff waits, in percent of the nominal wait. The
/// default spreads retries over ±25% so synchronized clients don't
/// re-stampede a recovering frontend in lockstep.
pub const DEFAULT_JITTER_PCT: u32 = 25;

/// Budget multiplier over a plan's per-part `max_retries`: the session-wide
/// budget must be loose enough that a mildly flaky transfer with many parts
/// still completes, while a hopeless endpoint dies in bounded time.
const BUDGET_PER_MAX_RETRIES: u32 = 4;

/// How a transfer path retries under faults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Session-wide retry budget shared by throttles and transient errors.
    /// Each injected fault charges one unit; at zero the transfer fails
    /// with [`NetError::RetryBudgetExhausted`].
    pub budget: u32,
    /// Base backoff before the first `5xx` retry; doubles per attempt.
    pub backoff_base: SimTime,
    /// Maximum doublings of `backoff_base` (saturation exponent).
    pub max_doublings: u32,
    /// Backoff jitter in percent of the nominal wait (0 = deterministic
    /// waits, no PRNG draw).
    pub jitter_pct: u32,
    /// Optional hard deadline, measured from transfer start in sim time.
    pub deadline: Option<SimTime>,
}

impl RetryPolicy {
    /// Derive the policy a provider's fault plan implies: budget is
    /// `max_retries × 4`, backoff parameters are the plan's, default
    /// jitter, no deadline.
    pub fn from_plan(plan: &FaultPlan) -> Self {
        RetryPolicy {
            budget: plan
                .max_retries
                .saturating_mul(BUDGET_PER_MAX_RETRIES)
                .max(1),
            backoff_base: plan.backoff_base,
            max_doublings: 8,
            jitter_pct: DEFAULT_JITTER_PCT,
            deadline: None,
        }
    }

    /// Override the retry budget.
    pub fn with_budget(mut self, budget: u32) -> Self {
        assert!(budget >= 1, "budget must be at least 1");
        self.budget = budget;
        self
    }

    /// Set a hard deadline measured from transfer start.
    pub fn with_deadline(mut self, deadline: SimTime) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Disable backoff jitter (bit-stable waits, no PRNG draws).
    pub fn without_jitter(mut self) -> Self {
        self.jitter_pct = 0;
        self
    }

    /// Backoff before retry `attempt` (1-based): `backoff_base` for the
    /// first retry, doubling per attempt up to `max_doublings`, then
    /// jittered by ±`jitter_pct`% with a draw from the sim PRNG. Only
    /// called on retry paths, so fault-free runs never reach the RNG.
    pub fn backoff(&self, attempt: u32, rng: &mut SmallRng) -> SimTime {
        let factor = 1u64 << attempt.saturating_sub(1).min(self.max_doublings);
        let nominal = self.backoff_base * factor;
        if self.jitter_pct == 0 {
            return nominal;
        }
        let j = self.jitter_pct as f64 / 100.0;
        let scale = 1.0 - j + 2.0 * j * rng.gen::<f64>();
        nominal.mul_f64(scale)
    }

    /// Absolute deadline instant for a transfer that started at `started`.
    pub fn deadline_at(&self, started: SimTime) -> Option<SimTime> {
        self.deadline.map(|d| started.saturating_add(d))
    }
}

/// Mutable per-transfer retry accounting against a [`RetryPolicy`].
#[derive(Debug, Clone, Copy)]
pub struct RetryState {
    policy: RetryPolicy,
    used: u32,
    deadline_at: Option<SimTime>,
}

impl RetryState {
    /// Start accounting for a transfer beginning at `started`.
    pub fn start(policy: RetryPolicy, started: SimTime) -> Self {
        RetryState {
            policy,
            used: 0,
            deadline_at: policy.deadline_at(started),
        }
    }

    /// The governing policy.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// Charge one budget unit for a fault observed at `at` (node) and
    /// check that waiting `wait` from `now` stays inside the deadline.
    /// `Err` means the transfer must abort with the returned error.
    pub fn charge(&mut self, at: NodeId, now: SimTime, wait: SimTime) -> Result<(), NetError> {
        self.used += 1;
        if self.used > self.policy.budget {
            return Err(NetError::RetryBudgetExhausted {
                at,
                budget: self.policy.budget,
            });
        }
        if let Some(deadline) = self.deadline_at {
            if now.saturating_add(wait) > deadline {
                return Err(NetError::DeadlineExceeded { at });
            }
        }
        Ok(())
    }
}

/// A `Sync` board of per-node open state, readable lock-free from worker
/// threads.
///
/// The route-intelligence plane serves lookups from many threads and must
/// demote detours through a tripped target within one lookup. Writers
/// publish a trip (`open-until` deadline) or a close into per-node
/// atomics, and readers ask `is_open(node, now)` with a single load. A
/// node whose deadline has passed reads as closed without any writer
/// action.
#[derive(Debug)]
pub struct TripBoard {
    /// Nanosecond deadline until which each node is open;
    /// 0 = closed. Indexed by `NodeId.0`.
    open_until_ns: Box<[AtomicU64]>,
}

impl TripBoard {
    /// A board covering nodes `0..n_nodes`, all closed.
    pub fn new(n_nodes: usize) -> Self {
        TripBoard {
            open_until_ns: (0..n_nodes).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Number of node slots.
    pub fn len(&self) -> usize {
        self.open_until_ns.len()
    }

    /// True when the board covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.open_until_ns.is_empty()
    }

    /// Publish a trip: `node` rejects requests until `until`. Out-of-range
    /// nodes are ignored (the board only covers the fleet's target set).
    pub fn trip(&self, node: NodeId, until: SimTime) {
        if let Some(slot) = self.open_until_ns.get(node.0 as usize) {
            slot.store(until.as_nanos().max(1), Ordering::Release);
        }
    }

    /// Publish a close: `node` admits requests again.
    pub fn close(&self, node: NodeId) {
        if let Some(slot) = self.open_until_ns.get(node.0 as usize) {
            slot.store(0, Ordering::Release);
        }
    }

    /// Is `node` rejecting requests at `now_ns`? Unknown nodes are closed.
    pub fn is_open(&self, node: NodeId, now_ns: u64) -> bool {
        self.open_until_ns
            .get(node.0 as usize)
            .map(|slot| now_ns < slot.load(Ordering::Acquire))
            .unwrap_or(false)
    }

    /// Nodes currently open at `now_ns`.
    pub fn open_count(&self, now_ns: u64) -> usize {
        self.open_until_ns
            .iter()
            .filter(|slot| now_ns < slot.load(Ordering::Acquire))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn policy_from_plan_scales_budget() {
        let plan = FaultPlan::flaky(); // max_retries 5
        let p = RetryPolicy::from_plan(&plan);
        assert_eq!(p.budget, 20);
        assert_eq!(p.backoff_base, plan.backoff_base);
        assert!(p.deadline.is_none());
    }

    #[test]
    fn backoff_first_retry_waits_base() {
        let p = RetryPolicy::from_plan(&FaultPlan::flaky()).without_jitter();
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(p.backoff(1, &mut rng), p.backoff_base);
        assert_eq!(p.backoff(2, &mut rng), p.backoff_base * 2);
        assert_eq!(p.backoff(3, &mut rng), p.backoff_base * 4);
        // Saturates after max_doublings.
        assert_eq!(p.backoff(100, &mut rng), p.backoff_base * 256);
    }

    #[test]
    fn jittered_backoff_stays_in_band_and_is_seed_deterministic() {
        let p = RetryPolicy::from_plan(&FaultPlan::flaky()); // ±25%
        let lo = p.backoff_base.mul_f64(0.75);
        let hi = p.backoff_base.mul_f64(1.25);
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..200 {
            let w = p.backoff(1, &mut rng);
            assert!(w >= lo && w <= hi, "wait {w} outside [{lo}, {hi}]");
        }
        let seq = |seed| {
            let mut rng = SmallRng::seed_from_u64(seed);
            (1..20).map(|a| p.backoff(a, &mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(seq(5), seq(5));
        assert_ne!(seq(5), seq(6));
    }

    #[test]
    fn retry_state_charges_to_exhaustion() {
        let p = RetryPolicy::from_plan(&FaultPlan::none()).with_budget(3);
        let mut s = RetryState::start(p, SimTime::ZERO);
        let at = NodeId(7);
        for _ in 0..3 {
            s.charge(at, SimTime::ZERO, SimTime::from_secs(1)).unwrap();
        }
        let err = s
            .charge(at, SimTime::ZERO, SimTime::from_secs(1))
            .unwrap_err();
        assert_eq!(err, NetError::RetryBudgetExhausted { at, budget: 3 });
    }

    #[test]
    fn retry_state_enforces_deadline() {
        let p = RetryPolicy::from_plan(&FaultPlan::none())
            .with_budget(100)
            .with_deadline(SimTime::from_secs(10));
        let mut s = RetryState::start(p, SimTime::from_secs(5));
        let at = NodeId(1);
        // 5 + 9 + 1 = 15 == deadline_at: fine.
        s.charge(at, SimTime::from_secs(9), SimTime::from_secs(6))
            .unwrap();
        // Would land past 15 s: rejected.
        let err = s
            .charge(at, SimTime::from_secs(9), SimTime::from_secs(7))
            .unwrap_err();
        assert_eq!(err, NetError::DeadlineExceeded { at });
    }

    #[test]
    fn trip_board_opens_until_the_deadline_or_a_close() {
        let board = TripBoard::new(8);
        let n = NodeId(5);
        let t = SimTime::from_secs(1);
        assert_eq!(board.len(), 8);
        assert!(!board.is_open(n, t.as_nanos()));
        board.trip(n, t + SimTime::from_secs(30));
        assert!(board.is_open(n, t.as_nanos()));
        assert!(board.is_open(n, SimTime::from_secs(30).as_nanos()));
        // The deadline passes: reads closed with no writer action.
        assert!(!board.is_open(n, SimTime::from_secs(32).as_nanos()));
        assert_eq!(board.open_count(t.as_nanos()), 1);
        // An explicit close clears it before the deadline.
        board.close(n);
        assert!(!board.is_open(n, SimTime::from_secs(10).as_nanos()));
        // Out-of-range nodes are ignored, not a panic.
        board.trip(NodeId(100), SimTime::from_secs(5));
        assert!(!board.is_open(NodeId(100), 0));
    }
}
