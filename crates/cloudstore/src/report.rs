//! Structured transfer reports.

use netsim::engine::Value;
use netsim::time::SimTime;
use netsim::units::Bandwidth;
use std::fmt;

/// Everything a completed upload session reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferStats {
    /// Payload size.
    pub bytes: u64,
    /// Wall-clock duration, request to last acknowledgement.
    pub elapsed: SimTime,
    /// RPC exchanges performed (auth + init + parts + finish + retries).
    pub rpcs: u64,
    /// Part retries due to transient errors.
    pub retries: u64,
    /// `429` throttle pauses served.
    pub throttles: u64,
    /// Token refresh exchanges performed mid-session.
    pub token_refreshes: u64,
    /// Total bytes put on the wire toward the provider (payload + framing +
    /// wasted retry payloads).
    pub wire_bytes: u64,
}

impl TransferStats {
    /// Achieved goodput (payload over elapsed).
    pub fn goodput(&self) -> Bandwidth {
        Bandwidth::from_bytes_per_sec(self.bytes as f64 / self.elapsed.as_secs_f64().max(1e-12))
    }

    /// Pack into a [`Value`] (how session processes return it).
    pub fn to_value(&self) -> Value {
        Value::List(vec![
            Value::U64(self.bytes),
            Value::Time(self.elapsed),
            Value::U64(self.rpcs),
            Value::U64(self.retries),
            Value::U64(self.throttles),
            Value::U64(self.token_refreshes),
            Value::U64(self.wire_bytes),
        ])
    }

    /// Unpack from a [`Value`]; panics on shape mismatch (programming error).
    pub fn from_value(v: &Value) -> Self {
        let items = v.expect_list();
        assert_eq!(items.len(), 7, "malformed TransferStats value");
        TransferStats {
            bytes: items[0].expect_u64(),
            elapsed: items[1].expect_time(),
            rpcs: items[2].expect_u64(),
            retries: items[3].expect_u64(),
            throttles: items[4].expect_u64(),
            token_refreshes: items[5].expect_u64(),
            wire_bytes: items[6].expect_u64(),
        }
    }
}

impl fmt::Display for TransferStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} in {} ({}, {} rpcs, {} retries, {} throttles)",
            netsim::units::format_bytes(self.bytes),
            self.elapsed,
            self.goodput(),
            self.rpcs,
            self.retries,
            self.throttles
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TransferStats {
        TransferStats {
            bytes: 10_000_000,
            elapsed: SimTime::from_secs(10),
            rpcs: 5,
            retries: 1,
            throttles: 2,
            token_refreshes: 0,
            wire_bytes: 10_010_000,
        }
    }

    #[test]
    fn value_round_trip() {
        let s = sample();
        assert_eq!(TransferStats::from_value(&s.to_value()), s);
    }

    #[test]
    fn goodput() {
        let s = sample();
        assert!((s.goodput().bytes_per_sec() - 1_000_000.0).abs() < 1.0);
    }

    #[test]
    fn display() {
        let text = sample().to_string();
        assert!(text.contains("10 MB"));
        assert!(text.contains("5 rpcs"));
    }

    #[test]
    #[should_panic(expected = "malformed")]
    fn malformed_value_panics() {
        TransferStats::from_value(&Value::List(vec![Value::U64(1)]));
    }
}
