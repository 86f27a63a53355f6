//! Audit hooks and state digests for deterministic simulation checking.
//!
//! The `simcheck` harness (TigerBeetle/FoundationDB-style deterministic
//! simulation testing) needs two things from the engine:
//!
//! * a way to observe the full allocation state after **every** processed
//!   event, so invariant oracles (byte conservation, capacity limits,
//!   max-min fairness, time monotonicity) can be checked continuously —
//!   that is [`AuditHook`], installed with
//!   [`Sim::set_audit_hook`](crate::engine::Sim::set_audit_hook); and
//! * a cheap, deterministic fingerprint of the complete simulator state, so
//!   two executions of the same seeded scenario can be compared bit for bit
//!   — that is [`Digest`] plus
//!   [`Sim::state_digest`](crate::engine::Sim::state_digest).
//!
//! Everything here is ordinary release code: hooks cost one branch per
//! event when absent, and digests are computed only on demand.

use crate::time::SimTime;

/// Incremental FNV-1a (64-bit) hasher used for state digests.
///
/// FNV is not cryptographic; it is chosen because it is trivially portable,
/// has no platform-dependent behavior, and matches the seed-derivation
/// hashing already used elsewhere in the workspace. Floats are folded by
/// their IEEE-754 bit patterns, so two states digest equal iff every field
/// is bit-identical.
#[derive(Debug, Clone, Copy)]
pub struct Digest {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

impl Digest {
    /// Fresh digest at the FNV offset basis.
    pub fn new() -> Self {
        Digest { state: FNV_OFFSET }
    }

    /// Fold one byte.
    pub fn write_u8(&mut self, v: u8) {
        self.state ^= v as u64;
        self.state = self.state.wrapping_mul(FNV_PRIME);
    }

    /// Fold a byte slice.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
    }

    /// Fold a u64 (little-endian bytes).
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Fold a bool.
    pub fn write_bool(&mut self, v: bool) {
        self.write_u8(v as u8);
    }

    /// Fold an f64 by bit pattern (exact, not approximate).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Fold a simulated time.
    pub fn write_time(&mut self, t: SimTime) {
        self.write_u64(t.as_nanos());
    }

    /// The accumulated 64-bit digest.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Digest {
    fn default() -> Self {
        Digest::new()
    }
}

/// Observer invoked by the engine while a root process runs.
///
/// `after_event` fires once after every dispatched event (and once at run
/// start, before the first event), with a read-only
/// [`AuditView`](crate::engine::AuditView) over the engine state.
/// `flow_delivered` fires at the moment a flow's last byte is delivered,
/// *before* the post-event view — oracles use it to close their
/// per-flow conservation ledgers.
pub trait AuditHook {
    /// Inspect the engine state after an event was dispatched.
    fn after_event(&mut self, view: &crate::engine::AuditView<'_>);

    /// A flow fully delivered `bytes` payload bytes at simulated time `now`.
    fn flow_delivered(&mut self, _flow: u64, _bytes: u64, _now: SimTime) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_order_sensitive_and_stable() {
        let mut a = Digest::new();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = Digest::new();
        b.write_u64(2);
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish());

        let mut c = Digest::new();
        c.write_u64(1);
        c.write_u64(2);
        assert_eq!(a.finish(), c.finish());
    }

    #[test]
    fn float_digest_is_bit_exact() {
        let mut a = Digest::new();
        a.write_f64(0.1 + 0.2);
        let mut b = Digest::new();
        b.write_f64(0.3);
        // 0.1 + 0.2 != 0.3 in f64; the digest must see the difference.
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn empty_digest_is_offset_basis() {
        assert_eq!(Digest::new().finish(), 0xcbf2_9ce4_8422_2325);
    }
}
