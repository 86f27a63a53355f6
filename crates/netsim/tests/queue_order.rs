//! The radix queue pops in exactly the order of a binary heap of
//! `(time, seq)` keys — the engine's event order — through any interleaving
//! of pushes, pops and compaction-style `retain`s.
//!
//! Items are sequence numbers, pushed in increasing order as the engine
//! numbers its events. Push times cover the cases the engine meets: equal
//! times, zero delays after a pop, small and large delays, and far-future
//! times up to the top of the `u64` range; bursts of pushes fill the
//! queue's storage chunks to and across their ends. No push goes below the
//! last pop, as in the engine.

use netsim::radix::RadixQueue;
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One step of a random interleaving.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Push at a time derived from the last popped time (see `push_time`).
    Push {
        kind: u8,
        offset: u64,
    },
    /// Push `n` entries a few ns after the last pop: runs long enough to
    /// fill the queue's storage chunks to and across their ends.
    Burst {
        n: u64,
    },
    Pop,
    /// Keep only the items whose sequence number is not `r` modulo `m`,
    /// as compaction keeps only the drains that can still fire.
    Retain {
        m: u64,
        r: u64,
    },
}

fn op() -> impl Strategy<Value = Op> {
    (0u8..13, any::<u64>(), 2u64..6).prop_map(|(sel, x, m)| match sel {
        0..=6 => Op::Push {
            kind: sel % 4,
            offset: x,
        },
        7..=10 => Op::Pop,
        11 => Op::Retain { m, r: x % m },
        _ => Op::Burst { n: x % 70 },
    })
}

/// The time of a push of `kind`, relative to the last popped time.
fn push_time(kind: u8, offset: u64, last: u64) -> u64 {
    match kind {
        // Zero delay: at the time last popped.
        0 => last,
        // Small delays: many equal times.
        1 => last.saturating_add(offset % 8),
        // Delays up to about a second of nanoseconds.
        2 => last.saturating_add(offset % (1 << 30)),
        // Far future: half of these at the top of the range.
        _ if offset % 2 == 1 => u64::MAX,
        _ => last.saturating_add(offset >> 1),
    }
}

/// Both queues hold the same entries.
fn assert_same_contents(q: &RadixQueue<u64>, heap: &BinaryHeap<Reverse<(u64, u64)>>) {
    let mut got: Vec<(u64, u64)> = q.iter().map(|(time, &seq)| (time, seq)).collect();
    let mut want: Vec<(u64, u64)> = heap.iter().map(|r| r.0).collect();
    got.sort_unstable();
    want.sort_unstable();
    prop_assert_eq!(got, want);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn radix_queue_pops_in_heap_order(ops in prop::collection::vec(op(), 1..2000)) {
        let mut q = RadixQueue::new();
        let mut heap = BinaryHeap::new();
        let mut seq = 0u64;
        let mut last = 0u64;
        for op in ops {
            match op {
                Op::Push { kind, offset } => {
                    let time = push_time(kind, offset, last);
                    q.push(time, seq);
                    heap.push(Reverse((time, seq)));
                    seq += 1;
                }
                Op::Burst { n } => {
                    for i in 0..n {
                        let time = last.saturating_add(1 + i % 3);
                        q.push(time, seq);
                        heap.push(Reverse((time, seq)));
                        seq += 1;
                    }
                }
                Op::Pop => {
                    let got = q.pop();
                    let want = heap.pop().map(|r| r.0);
                    prop_assert_eq!(got, want);
                    if let Some((time, _)) = got {
                        last = time;
                    }
                }
                Op::Retain { m, r } => {
                    q.retain(|&s| s % m != r);
                    heap.retain(|e| e.0 .1 % m != r);
                    assert_same_contents(&q, &heap);
                }
            }
            prop_assert_eq!(q.len(), heap.len());
            prop_assert_eq!(q.is_empty(), heap.is_empty());
        }
        assert_same_contents(&q, &heap);
        while let Some(want) = heap.pop() {
            prop_assert_eq!(q.pop(), Some(want.0));
        }
        prop_assert_eq!(q.pop(), None);
        prop_assert_eq!(q.len(), 0);
    }
}
