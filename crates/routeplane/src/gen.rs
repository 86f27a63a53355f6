//! Key-range generation counters: how monitors invalidate cached
//! decisions without sweeping the cache.
//!
//! Every decision key maps to one (provider, vantage-bucket) generation
//! slot. A monitor that observes a route change bumps the slots covering
//! the affected key range; cached entries stamped with an older generation
//! are recomputed lazily the next time they are looked up. Invalidation
//! cost is proportional to the buckets bumped, never to the number of
//! cached entries, and the hot path pays exactly one relaxed atomic load.

use crate::key::DecisionKey;
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-(provider, vantage-bucket) generation counters.
#[derive(Debug)]
pub struct GenTable {
    /// `providers × buckets_per_provider` counters, provider-major.
    slots: Box<[AtomicU64]>,
    buckets_per_provider: usize,
    providers: u16,
    /// Vantages per bucket = `1 << shift`.
    shift: u32,
}

impl GenTable {
    /// A table covering `providers × vantages` keys, grouping `1 << shift`
    /// consecutive vantages per invalidation bucket. `shift = 0` gives
    /// per-vantage granularity; larger shifts trade invalidation precision
    /// for memory (a 1M-vantage, 4-provider table at shift 6 is 62.5k
    /// counters).
    pub fn new(providers: u16, vantages: u32, shift: u32) -> Self {
        assert!(providers > 0 && vantages > 0);
        assert!(shift < 32);
        let buckets = ((vantages - 1) >> shift) as usize + 1;
        let n = buckets * providers as usize;
        GenTable {
            slots: (0..n).map(|_| AtomicU64::new(0)).collect(),
            buckets_per_provider: buckets,
            providers,
            shift,
        }
    }

    fn slot(&self, provider: u16, vantage: u32) -> &AtomicU64 {
        let bucket = (vantage >> self.shift) as usize % self.buckets_per_provider;
        let p = provider as usize % self.providers as usize;
        &self.slots[p * self.buckets_per_provider + bucket]
    }

    /// Current generation governing `key`. One relaxed load.
    pub fn current(&self, key: DecisionKey) -> u64 {
        self.slot(key.provider, key.vantage).load(Ordering::Relaxed)
    }

    /// Invalidate the inclusive vantage range `[lo, hi]` for `provider`:
    /// every bucket overlapping the range is bumped, and only those —
    /// keys in other buckets (or other providers) stay warm. Returns the
    /// number of buckets bumped.
    pub fn bump_vantage_range(&self, provider: u16, lo: u32, hi: u32) -> usize {
        assert!(lo <= hi);
        let lo_b = (lo >> self.shift) as usize;
        let hi_b = ((hi >> self.shift) as usize).min(self.buckets_per_provider - 1);
        let p = provider as usize % self.providers as usize;
        for b in lo_b..=hi_b {
            self.slots[p * self.buckets_per_provider + b].fetch_add(1, Ordering::Relaxed);
        }
        hi_b - lo_b + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(provider: u16, vantage: u32) -> DecisionKey {
        DecisionKey {
            vantage,
            provider,
            size_class: 0,
        }
    }

    #[test]
    fn bump_invalidates_exactly_the_covered_buckets() {
        // Shift 2: buckets of 4 vantages. Bump [5, 9] → buckets 1 and 2
        // (vantages 4..=11); vantages 0..=3 and 12..=15 stay at gen 0.
        let t = GenTable::new(2, 16, 2);
        assert_eq!(t.bump_vantage_range(1, 5, 9), 2);
        for v in 0..16 {
            let expect = if (4..=11).contains(&v) { 1 } else { 0 };
            assert_eq!(t.current(key(1, v)), expect, "vantage {v}");
            assert_eq!(t.current(key(0, v)), 0, "other provider, vantage {v}");
        }
    }

    #[test]
    fn per_vantage_granularity_at_shift_zero() {
        let t = GenTable::new(1, 8, 0);
        t.bump_vantage_range(0, 3, 3);
        for v in 0..8 {
            assert_eq!(t.current(key(0, v)), u64::from(v == 3), "vantage {v}");
        }
    }

    #[test]
    fn range_past_the_end_is_clamped() {
        let t = GenTable::new(1, 10, 1);
        // 10 vantages at width 2 → 5 buckets; hi = 1000 clamps to the last.
        assert_eq!(t.bump_vantage_range(0, 8, 1000), 1);
        assert_eq!(t.current(key(0, 9)), 1);
        assert_eq!(t.current(key(0, 7)), 0);
    }
}
