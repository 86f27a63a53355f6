//! A monotone radix queue over `u64` keys: the engine's event queue (keyed
//! by sim nanoseconds) and the route oracle's Dijkstra queue (keyed by path
//! cost) are both this one type.
//!
//! Both users pop keys that never decrease and push none below the key
//! last popped, which is what a radix queue needs. A queued key is filed
//! in one of 65 buckets by the highest bit in which it differs from
//! `last`, the key last popped: bucket 0 holds the entries at `last`, and
//! bucket `b ≥ 1` those whose highest differing bit is bit `b - 1`, so
//! every key in a bucket exceeds every key in the buckets below it. When
//! bucket 0 runs out, the lowest non-empty bucket — found from a bitmask
//! of the occupied ones, not by a scan — gives up its smallest key (kept
//! per bucket) as the new `last`, and each of its entries moves to a
//! strictly lower bucket. An entry therefore moves at most 64 times, each
//! move a copy, and nothing is ever sifted.
//!
//! **Storage.** Bucket 0 is a flat list popped from a head cursor. The
//! other buckets are linked lists of fixed-size chunks cut from one arena,
//! so a bucket is read and written in runs of adjacent entries, and a
//! chunk a redistribution empties goes back on a free list for the next
//! push. At most one chunk per bucket is partly filled, so the arena never
//! needs more chunks than `len / CHUNK + 65`; it is sized for that before a
//! new chunk is cut, so it grows only when the queue holds more entries
//! than it ever held, as a binary heap's `Vec` does. Every buffer keeps its
//! allocation across [`RadixQueue::clear`]. (A `Vec` per bucket would need
//! room for the most entries each bucket ever held, and which buckets fill
//! shifts as `last` moves, so a warm queue would keep allocating.)
//!
//! **Order.** Within one key, entries pop in push order: a push appends to
//! its bucket, and a bucket redistributes in order, so entries of equal
//! key — which always share a bucket — stay in push order through every
//! move. The engine pushes with increasing sequence numbers, so its events
//! pop in exactly `(time, seq)` order, the order of a binary heap of
//! `(time, seq)` keys. The oracle instead wants the nodes of one distance
//! in node-id order when a zero-cost arc exists; [`RadixQueue::push_sorted`]
//! and [`RadixQueue::pop_sorted`] keep bucket 0 sorted by the item for it.

/// Bucket 0 for the key at `last`, one more per bit of a `u64`.
const BUCKETS: usize = 65;

/// Entries per chunk of a bucket's list.
const CHUNK: usize = 32;

/// The end of a list.
const NIL: u32 = u32::MAX;

/// A monotone priority queue of `(key, item)` entries (see the module
/// docs). Its buffers keep their allocations across [`RadixQueue::clear`],
/// so a warm queue allocates nothing.
#[derive(Debug, Clone)]
pub struct RadixQueue<T> {
    /// The key last popped (0 before the first pop).
    last: u64,
    /// Entries queued and not yet popped.
    len: usize,
    /// Bucket 0: the items at `last`; those before `level_head` are popped.
    level: Vec<T>,
    level_head: usize,
    /// Bit `b - 1` is set when bucket `b ≥ 1` holds entries.
    occupied: u64,
    /// Each bucket's first chunk (`NIL` when empty), and the arena indices
    /// of the next free entry of its last chunk and of that chunk's end
    /// (equal when a push must start a chunk). Index 0 is unused.
    head: [u32; BUCKETS],
    pos: [usize; BUCKETS],
    end: [usize; BUCKETS],
    /// Chunk `c` is `arena[c * CHUNK..][..CHUNK]`; all of it is queued but
    /// in its bucket's last chunk, which is queued up to the bucket's
    /// `pos`. `next[c]` is the next chunk of its bucket's list, or of the
    /// free list.
    arena: Vec<(u64, T)>,
    next: Vec<u32>,
    /// Chunks freed since the last clear, linked through `next`.
    free: u32,
    /// Chunks handed out since the last clear, counting freed ones; the
    /// arena's chunks from `cut` on are unused.
    cut: usize,
}

impl<T> Default for RadixQueue<T> {
    fn default() -> Self {
        RadixQueue {
            last: 0,
            len: 0,
            level: Vec::new(),
            level_head: 0,
            occupied: 0,
            head: [NIL; BUCKETS],
            pos: [0; BUCKETS],
            end: [0; BUCKETS],
            arena: Vec::new(),
            next: Vec::new(),
            free: NIL,
            cut: 0,
        }
    }
}

impl<T: Copy> RadixQueue<T> {
    /// An empty queue; allocates nothing until the first push.
    pub fn new() -> Self {
        Self::default()
    }

    /// Entries queued and not yet popped.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Empty the queue and reset `last` to 0, keeping every buffer's
    /// allocation and the arena's chunks.
    pub fn clear(&mut self) {
        self.level.clear();
        self.level_head = 0;
        self.free = NIL;
        self.cut = 0;
        self.head = [NIL; BUCKETS];
        self.end = self.pos;
        self.occupied = 0;
        self.last = 0;
        self.len = 0;
    }

    /// Queue `item` at `key ≥` the key last popped, behind every queued
    /// entry of the same key.
    #[inline]
    pub fn push(&mut self, key: u64, item: T) {
        debug_assert!(key >= self.last, "pushes are monotone");
        if key == self.last {
            self.reclaim_level();
            self.level.push(item);
        } else {
            self.file(key, item);
        }
        self.len += 1;
    }

    /// Pop the entry at the smallest key, the earliest pushed among equals.
    #[inline]
    pub fn pop(&mut self) -> Option<(u64, T)> {
        if self.level_head == self.level.len() && !self.refill() {
            return None;
        }
        let item = self.level[self.level_head];
        self.level_head += 1;
        self.len -= 1;
        Some((self.last, item))
    }

    /// Keep only the entries whose item satisfies `keep`, in place. Entries
    /// of one key keep their order, so the pop order of the survivors is
    /// unchanged.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        self.level.drain(..self.level_head);
        self.level_head = 0;
        self.level.retain(&mut keep);
        self.len = self.level.len();
        for b in 1..BUCKETS {
            self.occupied &= !(1 << (b - 1));
            self.drain_bucket(b, |q, key, item| {
                if keep(&item) {
                    q.append(b, key, item);
                    q.len += 1;
                }
            });
        }
    }

    /// Every queued entry, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        let level = self.level[self.level_head..]
            .iter()
            .map(|item| (self.last, item));
        let lists = (1..BUCKETS).flat_map(move |b| {
            let next = |&c: &u32| Some(self.next[c as usize]).filter(|&n| n != NIL);
            std::iter::successors(Some(self.head[b]).filter(|&c| c != NIL), next)
                .flat_map(move |c| &self.arena[self.chunk_range(b, c)])
                .map(|(key, item)| (*key, item))
        });
        level.chain(lists)
    }

    fn bucket_of(&self, key: u64) -> usize {
        (u64::BITS - (key ^ self.last).leading_zeros()) as usize
    }

    /// Drop bucket 0's popped prefix once it is at least half the list, so
    /// a run of pops and pushes at one key keeps the list at the size of
    /// its unpopped entries (amortized O(1) per pop).
    fn reclaim_level(&mut self) {
        if self.level_head > 0 && self.level_head * 2 >= self.level.len() {
            self.level.drain(..self.level_head);
            self.level_head = 0;
        }
    }

    /// Queue an entry with `key > last` in its bucket.
    #[inline]
    fn file(&mut self, key: u64, item: T) {
        self.append(self.bucket_of(key), key, item);
    }

    /// Append an entry to bucket `b ≥ 1`, starting a chunk when its last
    /// one is full.
    #[inline]
    fn append(&mut self, b: usize, key: u64, item: T) {
        if self.pos[b] == self.end[b] {
            let c = self.chunk((key, item));
            if self.head[b] == NIL {
                self.head[b] = c;
                self.occupied |= 1 << (b - 1);
            } else {
                let last_chunk = (self.end[b] / CHUNK - 1) as u32;
                self.next[last_chunk as usize] = c;
            }
            self.pos[b] = c as usize * CHUNK;
            self.end[b] = self.pos[b] + CHUNK;
        }
        self.arena[self.pos[b]] = (key, item);
        self.pos[b] += 1;
    }

    /// An empty chunk: a freed one, else the next unused one of the arena,
    /// else a new one cut from the arena after sizing it for every chunk
    /// the queue could need (see the module docs). `filler` fills a new
    /// chunk's entries.
    #[cold]
    #[inline(never)]
    fn chunk(&mut self, filler: (u64, T)) -> u32 {
        if self.free != NIL {
            let c = self.free;
            self.free = self.next[c as usize];
            self.next[c as usize] = NIL;
            return c;
        }
        let c = self.cut;
        self.cut += 1;
        if c == self.next.len() {
            let need = self.len / CHUNK + BUCKETS + 1;
            if need > c {
                self.arena.reserve((need - c) * CHUNK);
                self.next.reserve(need - c);
            }
            self.arena.extend(std::iter::repeat_n(filler, CHUNK));
            self.next.push(NIL);
        }
        self.next[c] = NIL;
        u32::try_from(c)
            .ok()
            .filter(|&c| c != NIL)
            .expect("fewer than 2^32 - 1 chunks")
    }

    /// The queued entries of chunk `c` of bucket `b`.
    fn chunk_range(&self, b: usize, c: u32) -> std::ops::Range<usize> {
        let start = c as usize * CHUNK;
        if self.next[c as usize] == NIL {
            start..self.pos[b]
        } else {
            start..start + CHUNK
        }
    }

    /// Empty bucket `b ≥ 1`, handing each of its entries to `each` in order
    /// and freeing each chunk once it is read; `each` may append to any
    /// bucket, `b` included.
    #[inline]
    fn drain_bucket(&mut self, b: usize, mut each: impl FnMut(&mut Self, u64, T)) {
        let mut c = std::mem::replace(&mut self.head[b], NIL);
        let last_end = self.pos[b];
        self.end[b] = self.pos[b];
        while c != NIL {
            let start = c as usize * CHUNK;
            let next = self.next[c as usize];
            let stop = if next == NIL { last_end } else { start + CHUNK };
            for i in start..stop {
                let (key, item) = self.arena[i];
                each(self, key, item);
            }
            self.next[c as usize] = self.free;
            self.free = c;
            c = next;
        }
    }

    /// Refill the exhausted bucket 0 from the lowest occupied bucket: its
    /// smallest key becomes `last`, and every entry in it differs from
    /// that key below the bucket's bit, so each lands in a lower bucket —
    /// bucket 0 or a lower list. False when nothing is queued.
    fn refill(&mut self) -> bool {
        self.level.clear();
        self.level_head = 0;
        if self.occupied == 0 {
            return false;
        }
        let b = self.occupied.trailing_zeros() as usize + 1;
        self.occupied &= self.occupied - 1;
        let mut min = u64::MAX;
        let mut c = self.head[b];
        while c != NIL {
            for &(key, _) in &self.arena[self.chunk_range(b, c)] {
                min = min.min(key);
            }
            c = self.next[c as usize];
        }
        self.last = min;
        self.drain_bucket(b, |q, key, item| {
            if key == q.last {
                q.level.push(item);
            } else {
                q.file(key, item);
            }
        });
        true
    }
}

impl<T: Copy + Ord> RadixQueue<T> {
    /// Queue `item` at `key ≥ last`; an entry at `last` itself goes in at
    /// its item-order place in bucket 0. With [`RadixQueue::pop_sorted`],
    /// entries of one key then pop in item order.
    #[inline]
    pub fn push_sorted(&mut self, key: u64, item: T) {
        if key != self.last {
            return self.push(key, item);
        }
        self.reclaim_level();
        let at = self.level_head + self.level[self.level_head..].partition_point(|&v| v <= item);
        self.level.insert(at, item);
        self.len += 1;
    }

    /// Pop the entry at the smallest key with the smallest item, provided
    /// every push since the last [`RadixQueue::clear`] was a
    /// [`RadixQueue::push_sorted`].
    pub fn pop_sorted(&mut self) -> Option<(u64, T)> {
        if self.level_head == self.level.len() {
            if !self.refill() {
                return None;
            }
            self.level.sort_unstable();
        }
        self.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut RadixQueue<u32>) -> Vec<(u64, u32)> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    #[test]
    fn equal_keys_pop_in_push_order_across_redistribution() {
        let mut q = RadixQueue::new();
        for (i, key) in [9u64, 3, 9, 1 << 40, 3, 9, 0].into_iter().enumerate() {
            q.push(key, i as u32);
        }
        assert_eq!(q.len(), 7);
        assert_eq!(
            drain(&mut q),
            vec![(0, 6), (3, 1), (3, 4), (9, 0), (9, 2), (9, 5), (1 << 40, 3)]
        );
        assert!(q.is_empty());
    }

    #[test]
    fn sorted_pops_order_each_key_by_item() {
        let mut q = RadixQueue::new();
        for node in [5u32, 2, 9] {
            q.push_sorted(4, node);
        }
        q.push_sorted(1, 7);
        assert_eq!(q.pop_sorted(), Some((1, 7)));
        assert_eq!(q.pop_sorted(), Some((4, 2)));
        // A zero-cost arc queues a node at the distance being settled.
        q.push_sorted(4, 3);
        q.push_sorted(4, 1);
        q.push_sorted(4, 11);
        assert_eq!(q.pop_sorted(), Some((4, 1)));
        assert_eq!(q.pop_sorted(), Some((4, 3)));
        assert_eq!(q.pop_sorted(), Some((4, 5)));
        assert_eq!(q.pop_sorted(), Some((4, 9)));
        assert_eq!(q.pop_sorted(), Some((4, 11)));
        assert_eq!(q.pop_sorted(), None);
    }

    #[test]
    fn clear_and_retain_keep_the_queue_consistent() {
        let mut q = RadixQueue::new();
        for i in 0..100u32 {
            q.push(u64::from(i % 7) * 1000, i);
        }
        q.pop();
        q.retain(|&i| i % 2 == 1);
        assert_eq!(q.len(), 50);
        assert_eq!(q.iter().count(), 50);
        let popped = drain(&mut q);
        assert!(popped
            .windows(2)
            .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
        q.push(9000, 1);
        q.clear();
        assert_eq!(q.pop(), None);
        q.push(0, 2);
        assert_eq!(q.pop(), Some((0, 2)));
    }

    /// Freed chunks are reused, so a queue that never holds more than it
    /// held before does not grow its arena.
    #[test]
    fn freed_chunks_are_reused() {
        let mut q = RadixQueue::new();
        for round in 0..50u64 {
            for i in 0..40 {
                q.push(round * 1000 + 1 + i * 7, i as u32);
            }
            let cut = q.arena.capacity();
            for _ in 0..40 {
                q.pop();
            }
            if round > 0 {
                assert_eq!(q.arena.capacity(), cut);
            }
        }
    }
}
