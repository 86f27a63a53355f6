//! Seeded fault injection: throttling and transient server errors.
//!
//! Real cloud-storage frontends answer bursts with `429 Retry-After` and
//! occasionally fail with transient `5xx`. Upload sessions must retry with
//! backoff and resume the part sequence. The fault plan draws from the
//! simulation PRNG so fault patterns are reproducible per seed.

use netsim::time::SimTime;
use rand::rngs::SmallRng;
use rand::Rng;

/// Fault model for a provider frontend.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// Probability a part upload is answered `429`.
    pub throttle_prob: f64,
    /// Server-mandated pause after a `429`.
    pub retry_after: SimTime,
    /// Probability a part upload fails with a transient `5xx`.
    pub transient_prob: f64,
    /// Give up after this many consecutive retries of one part.
    pub max_retries: u32,
    /// Base backoff for `5xx` retries (doubles per attempt).
    pub backoff_base: SimTime,
}

impl FaultPlan {
    /// No faults at all (the default for throughput experiments, matching
    /// the paper's healthy-API assumption).
    pub fn none() -> Self {
        FaultPlan {
            throttle_prob: 0.0,
            retry_after: SimTime::from_secs(1),
            transient_prob: 0.0,
            max_retries: 5,
            backoff_base: SimTime::from_millis(500),
        }
    }

    /// A mildly unreliable frontend (failure-injection tests).
    pub fn flaky() -> Self {
        FaultPlan {
            throttle_prob: 0.05,
            retry_after: SimTime::from_secs(2),
            transient_prob: 0.05,
            max_retries: 5,
            backoff_base: SimTime::from_millis(500),
        }
    }

    /// Does this plan ever inject a fault? Fault-free plans let transfer
    /// paths skip their fault rolls entirely, so enabling the resilience
    /// layer draws nothing extra from the shared simulation PRNG and
    /// healthy-path timings stay byte-identical.
    pub fn is_active(&self) -> bool {
        self.throttle_prob > 0.0 || self.transient_prob > 0.0
    }

    /// What happens to this request?
    pub fn roll(&self, rng: &mut SmallRng) -> FaultOutcome {
        let x: f64 = rng.gen();
        if x < self.throttle_prob {
            FaultOutcome::Throttled {
                wait: self.retry_after,
            }
        } else if x < self.throttle_prob + self.transient_prob {
            FaultOutcome::TransientError
        } else {
            FaultOutcome::Ok
        }
    }
}

/// Result of a fault roll.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOutcome {
    /// Request succeeds.
    Ok,
    /// `429`: wait `wait`, then retry. Does not count against the per-part
    /// `max_retries` (the server explicitly asked us to come back), but
    /// does charge the session-wide retry *budget*
    /// ([`crate::resilience::RetryPolicy`]) so a permanently throttling
    /// frontend terminates instead of spinning forever.
    Throttled {
        /// Server-mandated pause.
        wait: SimTime,
    },
    /// `5xx`: back off and retry; counts against `max_retries`.
    TransientError,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn none_never_faults() {
        let plan = FaultPlan::none();
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..1000 {
            assert_eq!(plan.roll(&mut rng), FaultOutcome::Ok);
        }
    }

    #[test]
    fn flaky_faults_at_roughly_configured_rate() {
        let plan = FaultPlan::flaky();
        let mut rng = SmallRng::seed_from_u64(2);
        let mut throttles = 0;
        let mut transients = 0;
        let n = 20_000;
        for _ in 0..n {
            match plan.roll(&mut rng) {
                FaultOutcome::Throttled { .. } => throttles += 1,
                FaultOutcome::TransientError => transients += 1,
                FaultOutcome::Ok => {}
            }
        }
        let t_rate = throttles as f64 / n as f64;
        let e_rate = transients as f64 / n as f64;
        assert!((0.04..0.06).contains(&t_rate), "throttle rate {t_rate}");
        assert!((0.04..0.06).contains(&e_rate), "transient rate {e_rate}");
    }

    #[test]
    fn activity_reflects_probabilities() {
        assert!(!FaultPlan::none().is_active());
        assert!(FaultPlan::flaky().is_active());
        let mut throttler = FaultPlan::none();
        throttler.throttle_prob = 1.0;
        assert!(throttler.is_active());
    }

    #[test]
    fn deterministic_per_seed() {
        let plan = FaultPlan::flaky();
        let seq = |seed| {
            let mut rng = SmallRng::seed_from_u64(seed);
            (0..50).map(|_| plan.roll(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(seq(7), seq(7));
        assert_ne!(seq(7), seq(8));
    }
}
