//! Delta computation: the sender's half of rsync.
//!
//! Given the receiver's [`Signature`] and the new file, slide a
//! block-sized window over the file. Wherever the rolling checksum (and
//! then the strong checksum) matches a basis block, emit a [`DeltaOp::Copy`]
//! and jump the window past it; bytes that never match accumulate into
//! [`DeltaOp::Literal`] runs.

use crate::rolling::RollingChecksum;
use crate::signature::Signature;

/// One instruction in a delta script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaOp {
    /// Copy basis block `index` (receiver already has these bytes).
    Copy {
        /// Basis block index.
        index: u32,
    },
    /// Raw bytes the receiver does not have.
    Literal(Vec<u8>),
}

/// A delta script that reconstructs a target file from a basis file.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// Instructions in order.
    pub ops: Vec<DeltaOp>,
    /// Length of the target file (sanity check at patch time).
    pub target_len: u64,
    /// Whole-file strong checksum of the target (verified after patching).
    pub target_md5: [u8; 16],
}

impl Delta {
    /// Total literal payload carried by this delta.
    pub fn literal_bytes(&self) -> u64 {
        self.ops
            .iter()
            .map(|op| match op {
                DeltaOp::Literal(v) => v.len() as u64,
                DeltaOp::Copy { .. } => 0,
            })
            .sum()
    }

    /// Number of copy instructions.
    pub fn copy_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, DeltaOp::Copy { .. }))
            .count()
    }

    /// Bytes this delta occupies on the wire: literals cost their length
    /// plus a 5-byte op header; copies cost 5 bytes; plus a 40-byte trailer
    /// (length + MD5 + framing).
    pub fn wire_bytes(&self) -> u64 {
        let ops: u64 = self
            .ops
            .iter()
            .map(|op| match op {
                DeltaOp::Literal(v) => 5 + v.len() as u64,
                DeltaOp::Copy { .. } => 5,
            })
            .sum();
        ops + 40
    }
}

/// Compute the delta from `basis` (described by `sig`) to `target`.
///
/// Unmatched bytes are never copied one at a time: a literal run is the
/// target range since the last match, sliced out once when the next match
/// (or the end of the target) closes it.
pub fn compute_delta(sig: &Signature, target: &[u8]) -> Delta {
    let bs = sig.block_size;
    let mut ops: Vec<DeltaOp> = Vec::new();
    // Start of the open literal run: `target[lit..pos]` has matched nothing.
    let mut lit = 0usize;
    let mut pos = 0usize;

    let flush = |ops: &mut Vec<DeltaOp>, run: &[u8]| {
        if !run.is_empty() {
            ops.push(DeltaOp::Literal(run.to_vec()));
        }
    };

    if sig.block_count() > 0 {
        let mut rc: Option<RollingChecksum> = None;
        while pos + bs <= target.len() {
            let window = &target[pos..pos + bs];
            let checksum = match rc {
                Some(ref r) => r.value(),
                None => {
                    let r = RollingChecksum::from_window(window);
                    let v = r.value();
                    rc = Some(r);
                    v
                }
            };
            if let Some(idx) = sig.find_match(checksum, window) {
                flush(&mut ops, &target[lit..pos]);
                ops.push(DeltaOp::Copy { index: idx });
                pos += bs;
                lit = pos;
                rc = None; // window recomputed at the new position
            } else {
                if pos + bs < target.len() {
                    rc.as_mut()
                        .expect("rolling state exists while sliding")
                        .roll(target[pos], target[pos + bs]);
                } else {
                    rc = None;
                }
                pos += 1;
            }
        }
        // Tail shorter than one block: try to match the basis's short final
        // block exactly, otherwise it joins the open literal run.
        let tail = &target[pos..];
        if !tail.is_empty() {
            let tail_match = sig
                .blocks
                .last()
                .filter(|b| (b.len as usize) == tail.len() && (b.len as usize) < bs)
                .filter(|b| {
                    b.rolling == crate::rolling::checksum(tail)
                        && b.strong == crate::md5::Md5::digest(tail)
                })
                .map(|b| b.index);
            if let Some(idx) = tail_match {
                flush(&mut ops, &target[lit..pos]);
                ops.push(DeltaOp::Copy { index: idx });
                lit = target.len();
            }
            pos = target.len();
        }
    } else {
        // Empty basis: everything is literal (the paper's benchmark case).
        pos = target.len();
    }
    debug_assert_eq!(pos, target.len());
    flush(&mut ops, &target[lit..]);

    Delta {
        ops,
        target_len: target.len() as u64,
        target_md5: crate::md5::Md5::digest(target),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filegen::FileGen;
    use crate::signature::Signature;

    #[test]
    fn identical_files_are_all_copies() {
        let data = FileGen::new(1).random_file(10 * 2048);
        let sig = Signature::compute(&data, 2048);
        let delta = compute_delta(&sig, &data);
        assert_eq!(delta.literal_bytes(), 0);
        assert_eq!(delta.copy_count(), 10);
    }

    #[test]
    fn empty_basis_is_all_literal() {
        let data = FileGen::new(2).random_file(5000);
        let sig = Signature::empty(2048);
        let delta = compute_delta(&sig, &data);
        assert_eq!(delta.literal_bytes(), 5000);
        assert_eq!(delta.copy_count(), 0);
        // Wire cost ~ file size + small framing: rsync gains nothing, as the
        // paper states for its deleted-before-each-run workload.
        assert!(delta.wire_bytes() < 5000 + 64);
    }

    #[test]
    fn small_edit_transfers_little() {
        let g = FileGen::new(3);
        let basis = g.random_file(100 * 2048);
        let target = g.similar_file(&basis, 3, 0);
        let sig = Signature::compute(&basis, 2048);
        let delta = compute_delta(&sig, &target);
        // 3 single-byte edits dirty at most 3 blocks: ≤ 3 * 2048 literals.
        assert!(
            delta.literal_bytes() <= 3 * 2048,
            "literals {}",
            delta.literal_bytes()
        );
        assert!(delta.copy_count() >= 97);
    }

    #[test]
    fn appended_tail_is_literal() {
        let g = FileGen::new(4);
        let basis = g.random_file(10 * 2048);
        let target = g.similar_file(&basis, 0, 777);
        let sig = Signature::compute(&basis, 2048);
        let delta = compute_delta(&sig, &target);
        assert_eq!(delta.copy_count(), 10);
        assert_eq!(delta.literal_bytes(), 777);
    }

    #[test]
    fn short_final_block_matches() {
        let g = FileGen::new(5);
        let basis = g.random_file(2048 + 500); // one full + one short block
        let sig = Signature::compute(&basis, 2048);
        let delta = compute_delta(&sig, &basis);
        assert_eq!(delta.literal_bytes(), 0);
        assert_eq!(delta.copy_count(), 2);
    }

    #[test]
    fn prefix_insertion_realigned() {
        // Insert bytes at the front; rolling matching must re-find every
        // original block at shifted offsets.
        let g = FileGen::new(6);
        let basis = g.random_file(20 * 2048);
        let mut target = vec![0xEE; 100];
        target.extend_from_slice(&basis);
        let sig = Signature::compute(&basis, 2048);
        let delta = compute_delta(&sig, &target);
        assert_eq!(delta.literal_bytes(), 100);
        assert_eq!(delta.copy_count(), 20);
    }

    #[test]
    fn empty_target() {
        let basis = FileGen::new(7).random_file(4096);
        let sig = Signature::compute(&basis, 2048);
        let delta = compute_delta(&sig, &[]);
        assert!(delta.ops.is_empty());
        assert_eq!(delta.target_len, 0);
    }
}
