//! The route oracle: a topology's shortest-path trees.
//!
//! Every routed answer — [`RoutingTable::path_into`] and
//! [`RoutingTable::links_into`] for a pair without an override — is read
//! off **one shortest-path tree per queried source**, so a query is
//! near-O(path length): walk the tree's predecessor chain into a
//! caller-provided buffer. A warm query performs **zero heap
//! allocations**.
//!
//! The trees are a pure function of the topology, so the topology owns
//! them and builds them itself: [`Topology`] holds one lazily filled slot
//! per node, filled on the first query from that root by any routing
//! table and then read by every table over the same topology —
//! every [`Sim`] sharing one `Arc<Topology>`, on any thread. The build's
//! scratch (its radix queue and settled flags) belongs to the thread that
//! builds: one buffer per thread, reused by every tree that thread builds
//! over any topology, so a sim holds no tree-building state at all. Which
//! trees exist records which queries ran, not what the simulation is, so
//! the trees are **excluded from the audit digest**.
//!
//! Tie-breaking is canonical and identical to the reference Dijkstra in
//! [`crate::routing::dijkstra`]: a node's predecessor is the smallest-id
//! neighbour that settled before it and achieves its final distance.
//! simcheck's full audit compares every route a scenario resolves with the
//! reference's answer in lockstep and flags the first pair that differs.
//!
//! A tree is built by Dijkstra over the **monotone radix queue** the event
//! loop also uses ([`RadixQueue`]): link costs are `u32` and distances are
//! integers that never decrease from one pop to the next, so no entry is
//! ever sifted. The nodes at the distance being settled sit in one flat
//! list. When every link costs at least 1, the order they come off that
//! list cannot matter: each of them has its whole final set of tight
//! predecessors settled at smaller distances already, so the smallest-id
//! rule picks the same predecessor whatever the order. A zero-cost arc
//! breaks that argument — a node can then be reached, at the distance being
//! settled, from a node that settles at the same distance — so when the
//! graph has one ([`Csr`] records whether it does) the list is kept in
//! node-id order and the tree settles in exactly the reference's
//! `(dist, node id)` order. A bucket array indexed by distance (Dial's
//! algorithm) would need one bucket per distance up to the largest arc
//! cost, which arbitrary `u32` costs do not bound.
//!
//! [`Sim`]: crate::engine::Sim
//! [`Topology`]: crate::topology::Topology
//! [`RoutingTable::path_into`]: crate::routing::RoutingTable::path_into
//! [`RoutingTable::links_into`]: crate::routing::RoutingTable::links_into

use crate::radix::RadixQueue;
use crate::topology::{Csr, NodeId};
use std::cell::RefCell;
use std::sync::OnceLock;

/// A shortest-path tree rooted at one node, `src`: `prev_node[v]` is the
/// predecessor of `v` on the canonical shortest path `src → v` and
/// `prev_link[v]` the link entering `v`. [`NONE`] means none; an
/// unreachable node's `dist` is [`UNREACHABLE`].
#[derive(Debug, Clone)]
pub(crate) struct Spt {
    pub(crate) dist: Vec<u64>,
    pub(crate) prev_node: Vec<u32>,
    pub(crate) prev_link: Vec<u32>,
}

pub(crate) const NONE: u32 = u32::MAX;
pub(crate) const UNREACHABLE: u64 = u64::MAX;

impl Spt {
    /// Push the tree path from `v` back to the root (the root last), or
    /// `false` if `v` is unreachable.
    pub(crate) fn walk_back(&self, v: NodeId, out: &mut Vec<NodeId>) -> bool {
        if self.dist[v.0 as usize] == UNREACHABLE {
            return false;
        }
        let mut cur = v.0;
        while cur != NONE {
            out.push(NodeId(cur));
            cur = self.prev_node[cur as usize];
        }
        true
    }
}

/// The shortest-path trees of one topology: a slot per node for the tree
/// rooted there, filled on first use and never changed after. A
/// `OnceLock` makes the fill race-free when shard threads share the
/// topology: one thread builds, a racing one waits for it, and both read
/// the same tree. An empty slot is a pointer plus the lock word.
#[derive(Debug, Clone)]
pub(crate) struct TreeCache {
    forward: Box<[OnceLock<Box<Spt>>]>,
}

impl TreeCache {
    /// Empty slots for a topology of `nodes` nodes.
    pub(crate) fn new(nodes: usize) -> Self {
        TreeCache {
            forward: (0..nodes).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The tree rooted at `root` over `csr`, built on first use.
    pub(crate) fn forward(&self, csr: &Csr, root: NodeId) -> &Spt {
        self.forward[root.0 as usize].get_or_init(|| Box::new(build_here(csr, root.0)))
    }

    /// Trees built so far.
    #[cfg(test)]
    fn built(&self) -> usize {
        self.forward.iter().filter(|s| s.get().is_some()).count()
    }
}

/// A tree build's working state, kept between builds so they allocate
/// only their output.
#[derive(Default)]
struct Scratch {
    /// Dijkstra's queue of `(distance, node)` entries.
    queue: RadixQueue<u32>,
    settled: Vec<bool>,
}

thread_local! {
    /// The scratch of every tree the thread builds, over any topology.
    /// Boxed: with the queue's bucket arrays, which every push and pop
    /// reads, in the thread-local block itself, 256 cold trees of a
    /// 2,000-node globe built ~5% slower than from the heap.
    static SCRATCH: RefCell<Box<Scratch>> = RefCell::new(Box::default());
}

/// The tree rooted at `root` over `csr`, built with the calling thread's
/// scratch.
fn build_here(csr: &Csr, root: u32) -> Spt {
    SCRATCH.with_borrow_mut(|scratch| build_tree(scratch, csr, root))
}

/// Canonical Dijkstra over a CSR, producing a full shortest-path tree.
///
/// Determinism contract (shared bit-for-bit with the reference
/// [`crate::routing::dijkstra`]): `prev_node[v]` is the smallest-id node `u`
/// that (a) settled before `v` and (b) achieves
/// `dist[v] = dist[u] + cost(u→v)`. Once a node is settled its predecessor
/// is frozen — equal-cost relaxations arriving later may not rewrite it
/// (the historical bug class: a post-settlement rewrite made answers depend
/// on which destination was queried first, and with zero-cost edges could
/// even knot the predecessor chain into a cycle).
///
/// Nodes settle in nondecreasing distance off the [`RadixQueue`]. Within one
/// distance the order is free when every arc costs at least 1: every tight
/// predecessor of `v` then lies at a strictly smaller distance, so all of
/// them have settled, and relaxed `v`, before any node at `v`'s distance
/// pops; (a) holds for each of them in any order, and the smallest id
/// among them is `prev_node[v]`. With a zero-cost arc a tight predecessor
/// can share `v`'s distance and (a) depends on the order, so the nodes at
/// each distance then settle in node-id order — the reference heap's
/// `(dist, node id)` order exactly.
fn build_tree(scratch: &mut Scratch, csr: &Csr, root: u32) -> Spt {
    let n = csr.node_count();
    let mut dist = vec![UNREACHABLE; n];
    let mut prev_node = vec![NONE; n];
    let mut prev_link = vec![NONE; n];
    scratch.settled.clear();
    scratch.settled.resize(n, false);
    let queue = &mut scratch.queue;
    queue.clear();
    let ordered = csr.has_zero_cost();

    dist[root as usize] = 0;
    // Only a zero-cost arc pushes at the distance being settled, so without
    // one `push_sorted` is a plain append and the sort on refill is skipped.
    queue.push_sorted(0, root);
    while let Some((d, u)) = if ordered {
        queue.pop_sorted()
    } else {
        queue.pop()
    } {
        if scratch.settled[u as usize] {
            continue;
        }
        scratch.settled[u as usize] = true;
        for (v, cost, lid) in csr.arcs(u) {
            let nd = d + cost as u64;
            let vi = v as usize;
            if nd < dist[vi] {
                dist[vi] = nd;
                prev_node[vi] = u;
                prev_link[vi] = lid.0;
                queue.push_sorted(nd, v);
            } else if nd == dist[vi] && !scratch.settled[vi] && u < prev_node[vi] {
                // Same distance via a smaller settled predecessor: adopt it.
                // No re-push needed — an equal-distance entry already exists.
                prev_node[vi] = u;
                prev_link[vi] = lid.0;
            }
        }
    }
    Spt {
        dist,
        prev_node,
        prev_link,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geo::GeoPoint;
    use crate::routing::RoutingTable;
    use crate::time::SimTime;
    use crate::topology::{LinkParams, TopologyBuilder};
    use crate::units::Bandwidth;

    /// The trees live on the topology: two routing tables over one
    /// topology build each root's tree once and read that same tree.
    #[test]
    fn tables_over_one_topology_build_each_tree_once() {
        let mut b = TopologyBuilder::new();
        let p = LinkParams::new(Bandwidth::from_mbps(10.0), SimTime::from_millis(1));
        let a = b.host("a", GeoPoint::new(0.0, 0.0));
        let x = b.router("x", GeoPoint::new(1.0, 0.0));
        let y = b.router("y", GeoPoint::new(-1.0, 0.0));
        let d = b.host("d", GeoPoint::new(0.0, 1.0));
        for (from, to, cost) in [(a, x, 5), (x, d, 5), (a, y, 50), (y, d, 50)] {
            b.duplex(from, to, p.with_cost(cost));
        }
        let t = b.build();
        let tree_of = |slot: &OnceLock<Box<Spt>>| slot.get().map(|b| &**b as *const Spt);
        let (mut first, mut second) = (RoutingTable::new(), RoutingTable::new());
        let (mut path, mut links) = (Vec::new(), Vec::new());
        assert_eq!(t.trees().built(), 0);
        first.path_into(&t, a, d, &mut path).unwrap();
        let built = tree_of(&t.trees().forward[a.0 as usize]);
        assert!(built.is_some());
        second.path_into(&t, a, y, &mut path).unwrap();
        second.links_into(&t, a, d, &mut links).unwrap();
        first.path_into(&t, a, d, &mut path).unwrap();
        assert_eq!(t.trees().built(), 1);
        assert_eq!(tree_of(&t.trees().forward[a.0 as usize]), built);
    }
}
