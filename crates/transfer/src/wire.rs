//! Wire-cost models: how many bytes actually cross the network.
//!
//! The WAN simulator moves *byte counts*, not buffers, so the transfer layer
//! must say exactly how many bytes each protocol phase puts on the wire.
//! Two plans exist:
//!
//! * [`RsyncWirePlan`] — the rsync exchange the paper uses between the user
//!   machine and the DTN: handshake, receiver→sender signature,
//!   sender→receiver delta, final ack.
//! * [`StreamWirePlan`] — a plain streaming copy (scp/HTTP PUT style),
//!   provided as the baseline alternative the paper mentions ("rsync ... can
//!   be replaced with a different file-transfer tool").

use crate::delta::{compute_delta, Delta};
use crate::signature::Signature;

/// rsync protocol constants (framing approximations).
const HANDSHAKE_BYTES: u64 = 512;
const ACK_BYTES: u64 = 128;

/// Byte costs of one rsync transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RsyncWirePlan {
    /// Sender→receiver session setup (version exchange, file list).
    pub handshake_bytes: u64,
    /// Receiver→sender block signatures of the basis file.
    pub signature_bytes: u64,
    /// Sender→receiver delta script (literals dominate for fresh files).
    pub delta_bytes: u64,
    /// Receiver→sender final acknowledgement.
    pub ack_bytes: u64,
}

impl RsyncWirePlan {
    /// Plan for an exchange whose signature and delta are already
    /// computed. A caller that goes on to apply `delta` prices exactly the
    /// delta it applies, and runs the rsync algorithms once.
    pub fn of(sig: &Signature, delta: &Delta) -> Self {
        RsyncWirePlan {
            handshake_bytes: HANDSHAKE_BYTES,
            signature_bytes: sig.wire_bytes(),
            delta_bytes: delta.wire_bytes(),
            ack_bytes: ACK_BYTES,
        }
    }

    /// Exact plan for a concrete (basis, target) pair: runs the real
    /// signature + delta algorithms and counts bytes.
    pub fn exact(basis: &[u8], target: &[u8], block_size: usize) -> Self {
        let sig = Signature::compute(basis, block_size);
        Self::of(&sig, &compute_delta(&sig, target))
    }

    /// Closed-form plan for the paper's workload: the DTN's copy was deleted
    /// before the run, so the basis is empty and the delta is one literal of
    /// the full file (or no ops at all when the target is itself empty — an
    /// empty delta is just the 40-byte trailer, with no literal framing).
    pub fn fresh(target_len: u64) -> Self {
        let delta_bytes = if target_len == 0 {
            40
        } else {
            target_len + 5 + 40
        };
        RsyncWirePlan {
            handshake_bytes: HANDSHAKE_BYTES,
            signature_bytes: 32, // empty signature header
            delta_bytes,
            ack_bytes: ACK_BYTES,
        }
    }

    /// Total bytes sent from the sender to the receiver.
    pub fn forward_bytes(&self) -> u64 {
        self.handshake_bytes + self.delta_bytes
    }

    /// Total bytes sent from the receiver back to the sender.
    pub fn reverse_bytes(&self) -> u64 {
        self.signature_bytes + self.ack_bytes
    }

    /// Grand total.
    pub fn total_bytes(&self) -> u64 {
        self.forward_bytes() + self.reverse_bytes()
    }
}

/// Byte costs of a plain streaming transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamWirePlan {
    /// Payload plus per-chunk framing.
    pub forward_bytes: u64,
    /// Acknowledgement traffic.
    pub reverse_bytes: u64,
}

impl StreamWirePlan {
    /// Plan for streaming `len` bytes in `chunk` -byte frames with 64 bytes
    /// of framing per chunk.
    pub fn new(len: u64, chunk: u64) -> Self {
        assert!(chunk > 0, "chunk must be positive");
        let chunks = len.div_ceil(chunk);
        StreamWirePlan {
            forward_bytes: len + chunks * 64 + 256,
            reverse_bytes: 128,
        }
    }

    /// Grand total.
    pub fn total_bytes(&self) -> u64 {
        self.forward_bytes + self.reverse_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filegen::FileGen;

    #[test]
    fn fresh_plan_matches_exact_on_empty_basis() {
        // Sweep sizes including 0: an empty target yields an op-free delta
        // (40 trailer bytes, no literal framing) and the closed form must
        // agree with the real algorithm everywhere.
        for len in [0usize, 1, 7, 2048, 2049, 100_000] {
            let target = FileGen::new(1).random_file(len);
            let exact = RsyncWirePlan::exact(&[], &target, 2048);
            let fresh = RsyncWirePlan::fresh(len as u64);
            assert_eq!(
                exact, fresh,
                "closed form diverged from the real algorithm at len {len}"
            );
        }
    }

    #[test]
    fn fresh_transfer_overhead_is_tiny() {
        // The paper's claim: rsync to an empty DTN moves ~the file size.
        let plan = RsyncWirePlan::fresh(100_000_000);
        let overhead = plan.total_bytes() - 100_000_000;
        assert!(overhead < 2048, "overhead {overhead}");
    }

    #[test]
    fn similar_file_saves_wire_bytes() {
        let g = FileGen::new(2);
        let basis = g.random_file(200_000);
        let target = g.similar_file(&basis, 5, 0);
        let with_basis = RsyncWirePlan::exact(&basis, &target, 2048);
        let without = RsyncWirePlan::fresh(target.len() as u64);
        assert!(
            with_basis.total_bytes() < without.total_bytes() / 4,
            "delta transfer not cheaper: {} vs {}",
            with_basis.total_bytes(),
            without.total_bytes()
        );
    }

    #[test]
    fn signature_traffic_flows_backwards() {
        let g = FileGen::new(3);
        let basis = g.random_file(500_000);
        let plan = RsyncWirePlan::exact(&basis, &basis, 2048);
        assert!(
            plan.reverse_bytes() > 5000,
            "signatures should be substantial"
        );
        assert!(
            plan.forward_bytes() < 10_000,
            "identical file needs almost no delta"
        );
    }

    #[test]
    fn stream_plan_accounting() {
        let p = StreamWirePlan::new(1_000_000, 65_536);
        assert!(p.forward_bytes > 1_000_000);
        assert!(p.forward_bytes < 1_010_000);
        assert_eq!(p.total_bytes(), p.forward_bytes + 128);
    }

    #[test]
    #[should_panic(expected = "chunk")]
    fn zero_chunk_panics() {
        StreamWirePlan::new(10, 0);
    }
}
