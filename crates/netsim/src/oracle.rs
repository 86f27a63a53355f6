//! Precomputed route oracle over the CSR topology.
//!
//! [`crate::routing::RoutingTable`] answers every query by running Dijkstra
//! from scratch — fine at the paper's ~40-node North America map, wrong at
//! the 100k-node multi-region scale the synthetic globe reaches. The oracle
//! instead reads **one shortest-path tree per queried source** (and, for
//! detour enumeration, one reverse tree per queried destination), so:
//!
//! * `path` / `links` are near-O(path length): walk the tree's predecessor
//!   chain. With a caller-provided buffer ([`RouteOracle::path_into`] /
//!   [`RouteOracle::links_into`]) a warm query performs **zero heap
//!   allocations**.
//! * [`RouteOracle::k_detours`] ranks every node `v` by
//!   `dist(src→v) + dist(v→dst)` using one forward and one reverse tree —
//!   the Pied-Piper-style relay enumeration — in O(n log n) for the ranking
//!   plus O(k · path length) for materialisation, instead of one Dijkstra
//!   per candidate via.
//!
//! The trees are a pure function of the topology, so they live with it:
//! [`Topology`] holds one lazily filled slot per node and direction, built
//! on the first query of that root from any oracle and then read by every
//! oracle over the same topology — every [`Sim`] sharing one
//! `Arc<Topology>`, on any thread. A `RouteOracle` itself holds only the
//! override map and query scratch. Which trees exist records which queries
//! ran, not what the simulation is, so the trees are **excluded from the
//! audit digest** — only the override map (actual routing policy) is
//! folded in.
//!
//! Route overrides layer on top exactly as in [`crate::routing`]: an
//! override pins the (src, dst) pair before any tree is consulted, and is
//! validated lazily so a broken override fails loudly at use.
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

use crate::error::{NetError, NetResult};
use crate::radix::RadixQueue;
use crate::routing::RouteOverride;
use crate::topology::{Csr, LinkId, NodeId, Topology};
use std::sync::{Arc, OnceLock};

/// A shortest-path tree rooted at one node.
///
/// For a forward tree rooted at `src`, `prev_node[v]` is the predecessor of
/// `v` on the canonical shortest path `src → v` and `prev_link[v]` the link
/// entering `v`. For a reverse tree rooted at `dst` (built over the reverse
/// CSR), `prev_node[v]` is the **successor** of `v` on the canonical path
/// `v → dst` and `prev_link[v]` the link leaving `v`. `u32::MAX` means none.
#[derive(Debug, Clone)]
struct Spt {
    dist: Vec<u64>,
    prev_node: Vec<u32>,
    prev_link: Vec<u32>,
}

const NONE: u32 = u32::MAX;
const UNREACHABLE: u64 = u64::MAX;

/// The shortest-path trees of one topology: a slot per node for the
/// forward tree rooted there and one for the reverse tree, each filled on
/// first use and never changed after. A `OnceLock` makes the fill
/// race-free when shard threads share the topology: one thread builds, a
/// racing one waits for it, and both read the same tree. An empty slot is
/// a pointer plus the lock word.
#[derive(Debug, Clone)]
pub(crate) struct TreeCache {
    forward: Box<[OnceLock<Box<Spt>>]>,
    reverse: Box<[OnceLock<Box<Spt>>]>,
}

impl TreeCache {
    /// Empty slots for a topology of `nodes` nodes.
    pub(crate) fn new(nodes: usize) -> Self {
        TreeCache {
            forward: (0..nodes).map(|_| OnceLock::new()).collect(),
            reverse: (0..nodes).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Trees built so far, forward plus reverse.
    #[cfg(test)]
    fn built(&self) -> usize {
        let filled =
            |slots: &[OnceLock<Box<Spt>>]| slots.iter().filter(|s| s.get().is_some()).count();
        filled(&self.forward) + filled(&self.reverse)
    }
}

/// Reusable scratch so warm queries and tree builds allocate nothing.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// Dijkstra's queue of `(distance, node)` entries.
    queue: RadixQueue<u32>,
    settled: Vec<bool>,
    /// `(combined cost, via)` candidates for `k_detours`.
    ranked: Vec<(u64, u32)>,
    /// Stamped visited marks for loop-freedom checks.
    mark: Vec<u32>,
    mark_stamp: u32,
    /// Joined candidate path under construction.
    joined: Vec<NodeId>,
}

/// One enumerated detour: the canonical shortest path `src → via → dst`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetourPath {
    /// The pivot node the detour was enumerated through.
    pub via: NodeId,
    /// Total link cost of the joined path.
    pub cost: u64,
    /// Full node path from `src` to `dst` through `via`.
    pub path: Vec<NodeId>,
}

/// Shortest-path oracle with override layering. The trees it reads live on
/// the [`Topology`] (see the module docs); the oracle owns only the
/// overrides and its scratch.
#[derive(Debug, Clone, Default)]
pub struct RouteOracle {
    /// Installed overrides, sorted by `(src, dst)`, one per pair. Shared,
    /// so a world can hand the same overrides to every sim it builds.
    overrides: Vec<Arc<RouteOverride>>,
    scratch: Scratch,
}

impl RouteOracle {
    /// Empty oracle (pure shortest-path routing, no trees built yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Install an override; replaces any previous override for the pair.
    /// Pass an `Arc` to share one override among many oracles.
    pub fn add_override(&mut self, ov: impl Into<Arc<RouteOverride>>) {
        let ov = ov.into();
        match self.find_override(ov.src, ov.dst) {
            Ok(i) => self.overrides[i] = ov,
            Err(i) => self.overrides.insert(i, ov),
        }
    }

    /// Number of installed overrides.
    pub fn override_count(&self) -> usize {
        self.overrides.len()
    }

    /// The pinned path for a pair, if any (unvalidated).
    pub fn override_for(&self, src: NodeId, dst: NodeId) -> Option<&[NodeId]> {
        let i = self.find_override(src, dst).ok()?;
        Some(&self.overrides[i].path)
    }

    /// Where the pair's override is, or would go, in the sorted list.
    fn find_override(&self, src: NodeId, dst: NodeId) -> Result<usize, usize> {
        self.overrides
            .binary_search_by_key(&(src, dst), |ov| (ov.src, ov.dst))
    }

    /// The path from `src` to `dst` into a caller-owned buffer: the
    /// installed override if present, otherwise the canonical minimum-cost
    /// path. Warm queries (the topology's tree for `src` already built)
    /// perform no heap allocation beyond what `out` needs.
    pub fn path_into(
        &mut self,
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
        out: &mut Vec<NodeId>,
    ) -> NetResult<()> {
        out.clear();
        if !topo.contains(src) {
            return Err(NetError::UnknownNode(src));
        }
        if !topo.contains(dst) {
            return Err(NetError::UnknownNode(dst));
        }
        if src == dst {
            out.push(src);
            return Ok(());
        }
        if let Some(p) = self.override_for(src, dst) {
            // Validate lazily so a bad override fails loudly at use.
            validate_path(topo, p)?;
            out.extend_from_slice(p);
            return Ok(());
        }
        let tree = forward_tree(topo, &mut self.scratch, src.0);
        if tree.dist[dst.0 as usize] == UNREACHABLE {
            return Err(NetError::NoRoute { src, dst });
        }
        let mut cur = dst.0;
        while cur != NONE {
            out.push(NodeId(cur));
            cur = tree.prev_node[cur as usize];
        }
        debug_assert_eq!(out.last(), Some(&src));
        out.reverse();
        Ok(())
    }

    /// Allocating convenience around [`RouteOracle::path_into`].
    pub fn path(&mut self, topo: &Topology, src: NodeId, dst: NodeId) -> NetResult<Vec<NodeId>> {
        let mut out = Vec::new();
        self.path_into(topo, src, dst, &mut out)?;
        Ok(out)
    }

    /// The links of the `src → dst` path into a caller-owned buffer. On the
    /// tree path this reads `prev_link` directly — no adjacency revalidation
    /// and no allocation; override paths are validated as usual.
    pub fn links_into(
        &mut self,
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
        out: &mut Vec<LinkId>,
    ) -> NetResult<()> {
        out.clear();
        if !topo.contains(src) {
            return Err(NetError::UnknownNode(src));
        }
        if !topo.contains(dst) {
            return Err(NetError::UnknownNode(dst));
        }
        if src == dst {
            return Ok(());
        }
        if let Some(p) = self.override_for(src, dst) {
            return topo.links_on_path_into(p, out);
        }
        let tree = forward_tree(topo, &mut self.scratch, src.0);
        if tree.dist[dst.0 as usize] == UNREACHABLE {
            return Err(NetError::NoRoute { src, dst });
        }
        let mut cur = dst.0;
        while tree.prev_link[cur as usize] != NONE {
            out.push(LinkId(tree.prev_link[cur as usize]));
            cur = tree.prev_node[cur as usize];
        }
        out.reverse();
        Ok(())
    }

    /// Allocating convenience around [`RouteOracle::links_into`].
    pub fn links(&mut self, topo: &Topology, src: NodeId, dst: NodeId) -> NetResult<Vec<LinkId>> {
        let mut out = Vec::new();
        self.links_into(topo, src, dst, &mut out)?;
        Ok(out)
    }

    /// Cost of the canonical shortest path (ignoring overrides), or `None`
    /// if unreachable.
    pub fn cost(&mut self, topo: &Topology, src: NodeId, dst: NodeId) -> Option<u64> {
        if !topo.contains(src) || !topo.contains(dst) {
            return None;
        }
        let tree = forward_tree(topo, &mut self.scratch, src.0);
        match tree.dist[dst.0 as usize] {
            UNREACHABLE => None,
            d => Some(d),
        }
    }

    /// Enumerate up to `k` distinct loop-free detour paths `src → via → dst`
    /// in deterministic order: nondecreasing joined cost, ties by via id.
    ///
    /// Every node `v` with finite `dist(src→v)` and `dist(v→dst)` is a
    /// candidate pivot; each joins the canonical forward path to `v` with
    /// the canonical path `v → dst` from the reverse tree. Candidates whose
    /// joined path repeats a node (a loop) or duplicates the direct
    /// shortest path — or an already-accepted detour — are skipped, so the
    /// result is a set of genuine alternatives to the primary route.
    ///
    /// This is a pure topology query: route overrides pin *primary* paths
    /// and are deliberately not consulted here.
    pub fn k_detours(
        &mut self,
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
        k: usize,
    ) -> NetResult<Vec<DetourPath>> {
        if !topo.contains(src) {
            return Err(NetError::UnknownNode(src));
        }
        if !topo.contains(dst) {
            return Err(NetError::UnknownNode(dst));
        }
        if src == dst || k == 0 {
            return Ok(Vec::new());
        }
        let n = topo.nodes().len();
        let fwd = forward_tree(topo, &mut self.scratch, src.0);
        let rev = reverse_tree(topo, &mut self.scratch, dst.0);
        if fwd.dist[dst.0 as usize] == UNREACHABLE {
            return Err(NetError::NoRoute { src, dst });
        }

        // The direct shortest path, for exclusion.
        let mut primary = Vec::new();
        let mut cur = dst.0;
        while cur != NONE {
            primary.push(NodeId(cur));
            cur = fwd.prev_node[cur as usize];
        }
        primary.reverse();

        let ranked = &mut self.scratch.ranked;
        ranked.clear();
        for v in 0..n as u32 {
            if v == src.0 || v == dst.0 {
                continue;
            }
            let df = fwd.dist[v as usize];
            let dr = rev.dist[v as usize];
            if df != UNREACHABLE && dr != UNREACHABLE {
                ranked.push((df + dr, v));
            }
        }
        ranked.sort_unstable();

        if self.scratch.mark.len() < n {
            self.scratch.mark.resize(n, 0);
        }
        let mut accepted: Vec<DetourPath> = Vec::new();
        for &(cost, via) in self.scratch.ranked.iter() {
            if accepted.len() >= k {
                break;
            }
            self.scratch.mark_stamp = self.scratch.mark_stamp.wrapping_add(1);
            let stamp = self.scratch.mark_stamp;
            let joined = &mut self.scratch.joined;
            joined.clear();
            // Forward half: src → via (walk prev chain backwards, reverse).
            let mut cur = via;
            while cur != NONE {
                joined.push(NodeId(cur));
                cur = fwd.prev_node[cur as usize];
            }
            joined.reverse();
            for node in joined.iter() {
                self.scratch.mark[node.0 as usize] = stamp;
            }
            // Reverse half: via → dst (successor chain), checking for loops
            // against the forward half as we go.
            let mut loop_free = true;
            let mut cur = rev.prev_node[via as usize];
            while cur != NONE {
                if self.scratch.mark[cur as usize] == stamp {
                    loop_free = false;
                    break;
                }
                self.scratch.mark[cur as usize] = stamp;
                joined.push(NodeId(cur));
                cur = rev.prev_node[cur as usize];
            }
            if !loop_free {
                continue;
            }
            debug_assert_eq!(joined.first(), Some(&src));
            debug_assert_eq!(joined.last(), Some(&dst));
            if *joined == primary || accepted.iter().any(|d| d.path == *joined) {
                continue;
            }
            accepted.push(DetourPath {
                via: NodeId(via),
                cost,
                path: joined.clone(),
            });
        }
        Ok(accepted)
    }

    /// Failpoint: the `src → dst` path on which every node takes its
    /// largest-id tight predecessor strictly closer to `src` in place of
    /// the canonical smallest-id one, keeping the canonical predecessor
    /// where only a zero-cost arc is tight (so the walk back to `src`
    /// cannot loop). Overrides are not consulted; `None` if unreachable.
    #[cfg(feature = "failpoints")]
    pub(crate) fn largest_predecessor_path(
        &mut self,
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
    ) -> Option<Vec<NodeId>> {
        let tree = forward_tree(topo, &mut self.scratch, src.0);
        if tree.dist[dst.0 as usize] == UNREACHABLE {
            return None;
        }
        let mut path = vec![dst];
        let mut cur = dst.0;
        while cur != src.0 {
            let dv = tree.dist[cur as usize];
            let largest = topo
                .reverse_csr()
                .arcs(cur)
                .filter(|&(u, cost, _)| {
                    let du = tree.dist[u as usize];
                    du < dv && du + cost as u64 == dv
                })
                .map(|(u, ..)| u)
                .max();
            cur = largest.unwrap_or(tree.prev_node[cur as usize]);
            path.push(NodeId(cur));
        }
        path.reverse();
        Some(path)
    }

    /// Fold the oracle's canonical routing state — the overrides, in
    /// `(src, dst)` order — into an audit digest. The topology's trees are
    /// deliberately excluded: they are a pure function of the topology
    /// filled in by query history (any sim's, on any thread), and two
    /// state-identical sims must digest identically no matter which lookups
    /// ran before.
    pub fn digest_into(&self, d: &mut crate::audit::Digest) {
        d.write_u64(self.overrides.len() as u64);
        for ov in &self.overrides {
            d.write_u64(ov.src.0 as u64);
            d.write_u64(ov.dst.0 as u64);
            d.write_u64(ov.path.len() as u64);
            for n in &ov.path {
                d.write_u64(n.0 as u64);
            }
        }
    }
}

/// Validate that consecutive path nodes are joined by links, without
/// materialising the link list.
fn validate_path(topo: &Topology, path: &[NodeId]) -> NetResult<()> {
    for w in path.windows(2) {
        if topo.link_between(w[0], w[1]).is_none() {
            return Err(NetError::BrokenPath {
                from: w[0],
                to: w[1],
            });
        }
    }
    Ok(())
}

/// The topology's forward tree rooted at `root`, built on first use.
fn forward_tree<'t>(topo: &'t Topology, scratch: &mut Scratch, root: u32) -> &'t Spt {
    topo.trees().forward[root as usize]
        .get_or_init(|| Box::new(build_tree(scratch, topo.csr(), root)))
}

/// The topology's reverse tree rooted at `root`, built on first use.
fn reverse_tree<'t>(topo: &'t Topology, scratch: &mut Scratch, root: u32) -> &'t Spt {
    topo.trees().reverse[root as usize]
        .get_or_init(|| Box::new(build_tree(scratch, topo.reverse_csr(), root)))
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

    fn p(cost: u32) -> LinkParams {
        LinkParams::new(Bandwidth::from_mbps(10.0), SimTime::from_millis(1)).with_cost(cost)
    }

    /// a → {x (5+5), y (50+50)} → d, plus a spur s reachable only from d.
    fn diamond() -> (Topology, NodeId, NodeId, NodeId, NodeId) {
        let mut b = TopologyBuilder::new();
        let a = b.host("a", GeoPoint::new(0.0, 0.0));
        let x = b.router("x", GeoPoint::new(1.0, 0.0));
        let y = b.router("y", GeoPoint::new(-1.0, 0.0));
        let d = b.host("d", GeoPoint::new(0.0, 1.0));
        b.duplex(a, x, p(5));
        b.duplex(x, d, p(5));
        b.duplex(a, y, p(50));
        b.duplex(y, d, p(50));
        (b.build(), a, x, y, d)
    }

    #[test]
    fn path_and_links_match_topology() {
        let (t, a, x, _y, d) = diamond();
        let mut o = RouteOracle::new();
        assert_eq!(o.path(&t, a, d).unwrap(), vec![a, x, d]);
        let links = o.links(&t, a, d).unwrap();
        assert_eq!(links, t.links_on_path(&[a, x, d]).unwrap());
        assert_eq!(o.cost(&t, a, d), Some(10));
        assert_eq!(o.cost(&t, a, NodeId(99)), None);
    }

    #[test]
    fn self_path_and_errors() {
        let (t, a, _x, _y, d) = diamond();
        let mut o = RouteOracle::new();
        assert_eq!(o.path(&t, a, a).unwrap(), vec![a]);
        assert!(o.links(&t, a, a).unwrap().is_empty());
        let ghost = NodeId(99);
        assert_eq!(o.path(&t, a, ghost), Err(NetError::UnknownNode(ghost)));
        assert_eq!(o.path(&t, ghost, d), Err(NetError::UnknownNode(ghost)));
    }

    #[test]
    fn override_layering() {
        let (t, a, _x, y, d) = diamond();
        let mut o = RouteOracle::new();
        o.add_override(RouteOverride::new(a, d, vec![a, y, d]));
        assert_eq!(o.path(&t, a, d).unwrap(), vec![a, y, d]);
        assert_eq!(
            o.links(&t, a, d).unwrap(),
            t.links_on_path(&[a, y, d]).unwrap()
        );
        // Reverse direction unaffected.
        assert_eq!(o.path(&t, d, a).unwrap().len(), 3);
        // Broken override errors at use.
        o.add_override(RouteOverride::new(d, a, vec![d, a]));
        assert!(matches!(o.path(&t, d, a), Err(NetError::BrokenPath { .. })));
    }

    /// The trees live on the topology: two routing tables over one
    /// topology build each root's tree once and read that same tree.
    #[test]
    fn tables_over_one_topology_build_each_tree_once() {
        let (t, a, _x, y, d) = diamond();
        let tree_of = |slot: &OnceLock<Box<Spt>>| slot.get().map(|b| &**b as *const Spt);
        let mut first = RoutingTable::new();
        let mut second = RoutingTable::new();
        assert_eq!(t.trees().built(), 0);
        first.path(&t, a, d).unwrap();
        let built = tree_of(&t.trees().forward[a.0 as usize]);
        assert!(built.is_some());
        second.path(&t, a, y).unwrap();
        second.links(&t, a, d).unwrap();
        first.path(&t, a, d).unwrap();
        assert_eq!(t.trees().built(), 1);
        assert_eq!(tree_of(&t.trees().forward[a.0 as usize]), built);
        // Detours add the reverse tree rooted at `d`, once.
        first.k_detours(&t, a, d, 2).unwrap();
        second.k_detours(&t, a, d, 2).unwrap();
        assert_eq!(t.trees().built(), 2);
        assert!(tree_of(&t.trees().reverse[d.0 as usize]).is_some());
    }

    #[test]
    fn k_detours_diamond() {
        let (t, a, x, y, d) = diamond();
        let mut o = RouteOracle::new();
        let detours = o.k_detours(&t, a, d, 4).unwrap();
        // Primary path a-x-d is excluded; the only alternative is a-y-d.
        assert_eq!(detours.len(), 1);
        assert_eq!(detours[0].via, y);
        assert_eq!(detours[0].path, vec![a, y, d]);
        assert_eq!(detours[0].cost, 100);
        // x pivots onto the primary path and must not reappear.
        assert!(detours.iter().all(|dt| dt.via != x));
    }

    #[test]
    fn k_detours_order_and_limits() {
        // Three parallel two-hop routes of distinct costs.
        let mut b = TopologyBuilder::new();
        let s = b.host("s", GeoPoint::new(0.0, 0.0));
        let m1 = b.router("m1", GeoPoint::new(1.0, 0.0));
        let m2 = b.router("m2", GeoPoint::new(2.0, 0.0));
        let m3 = b.router("m3", GeoPoint::new(3.0, 0.0));
        let d = b.host("d", GeoPoint::new(0.0, 1.0));
        b.duplex(s, m1, p(1));
        b.duplex(m1, d, p(1));
        b.duplex(s, m2, p(2));
        b.duplex(m2, d, p(2));
        b.duplex(s, m3, p(3));
        b.duplex(m3, d, p(3));
        let t = b.build();
        let mut o = RouteOracle::new();
        let detours = o.k_detours(&t, s, d, 10).unwrap();
        // Primary is s-m1-d (cost 2); detours are the other two, cheap first.
        assert_eq!(detours.len(), 2);
        assert_eq!(detours[0].path, vec![s, m2, d]);
        assert_eq!(detours[1].path, vec![s, m3, d]);
        assert!(detours[0].cost < detours[1].cost);
        assert_eq!(o.k_detours(&t, s, d, 1).unwrap().len(), 1);
        assert!(o.k_detours(&t, s, s, 4).unwrap().is_empty());
        assert!(o.k_detours(&t, s, d, 0).unwrap().is_empty());
        // Each detour is loop-free.
        for dt in &detours {
            let mut seen = std::collections::HashSet::new();
            assert!(dt.path.iter().all(|n| seen.insert(*n)), "{:?}", dt.path);
        }
    }

    /// Overrides are kept one per pair, a later one replacing an earlier,
    /// and digest in `(src, dst)` order whatever order they arrived in.
    #[test]
    fn overrides_replace_per_pair_and_digest_in_pair_order() {
        let (t, a, x, y, d) = diamond();
        let mut o = RouteOracle::new();
        o.add_override(RouteOverride::new(d, a, vec![d, y, a]));
        o.add_override(RouteOverride::new(a, d, vec![a, x, d]));
        o.add_override(RouteOverride::new(a, d, vec![a, y, d]));
        o.add_override(RouteOverride::new(a, y, vec![a, y]));
        assert_eq!(o.override_count(), 3);
        assert_eq!(o.override_for(a, d), Some(&[a, y, d][..]));
        assert_eq!(o.path(&t, a, d).unwrap(), vec![a, y, d]);
        assert_eq!(o.override_for(y, a), None);
        let mut want = crate::audit::Digest::new();
        want.write_u64(3);
        for path in [vec![a, y], vec![a, y, d], vec![d, y, a]] {
            want.write_u64(path[0].0 as u64);
            want.write_u64(path[path.len() - 1].0 as u64);
            want.write_u64(path.len() as u64);
            for n in path {
                want.write_u64(n.0 as u64);
            }
        }
        let mut got = crate::audit::Digest::new();
        o.digest_into(&mut got);
        assert_eq!(got.finish(), want.finish());
    }

    #[test]
    fn digest_ignores_tree_cache() {
        let (t, a, _x, y, d) = diamond();
        let mut warm = RouteOracle::new();
        let mut cold = RouteOracle::new();
        for o in [&mut warm, &mut cold] {
            o.add_override(RouteOverride::new(a, d, vec![a, y, d]));
        }
        warm.path(&t, a, d).unwrap();
        warm.path(&t, d, a).unwrap();
        warm.k_detours(&t, a, d, 2).unwrap();
        let mut d1 = crate::audit::Digest::new();
        let mut d2 = crate::audit::Digest::new();
        warm.digest_into(&mut d1);
        cold.digest_into(&mut d2);
        assert_eq!(d1.finish(), d2.finish());
    }
}
