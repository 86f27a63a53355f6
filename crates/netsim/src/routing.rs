//! Policy routing.
//!
//! Paths are shortest paths over link *costs* (not delays or capacities), so
//! scenario authors can express peering policy: a research network can be
//! made preferable to a commodity path by giving it lower cost, and a
//! destination can be pushed through a specific exchange by cost shaping.
//!
//! On top of cost-based routing sit **route overrides**: explicit node paths
//! pinned for a (source host, destination host) pair. The paper's central
//! observation — UBC's PlanetLab traffic to Google reaches `vncv1rtr2` and is
//! then handed to the `pacificwave` link, while UAlberta's traffic crosses
//! the same router but takes a different egress — is exactly such an
//! idiosyncrasy: it is not explainable by shortest-path metrics, so the
//! scenario pins it explicitly, the same way the real network pinned it by
//! BGP policy invisible to the authors.

use crate::error::{NetError, NetResult};
use crate::oracle::{DetourPath, RouteOracle};
use crate::topology::{LinkId, NodeId, Topology};
use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

/// An explicit route pinned for a source/destination pair.
#[derive(Debug, Clone)]
pub struct RouteOverride {
    /// Originating host.
    pub src: NodeId,
    /// Destination host.
    pub dst: NodeId,
    /// Full node path, beginning with `src` and ending with `dst`.
    pub path: Vec<NodeId>,
}

impl RouteOverride {
    /// Build an override, validating the endpoints.
    pub fn new(src: NodeId, dst: NodeId, path: Vec<NodeId>) -> Self {
        assert_eq!(path.first(), Some(&src), "override path must start at src");
        assert_eq!(path.last(), Some(&dst), "override path must end at dst");
        RouteOverride { src, dst, path }
    }
}

/// Which backend answers shortest-path queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutingMode {
    /// The precomputed [`RouteOracle`]: per-source shortest-path trees over
    /// the CSR topology, kept on the topology and shared by every sim over
    /// it, near-O(path length) per query. The default.
    #[default]
    Oracle,
    /// Per-query [`dijkstra`], kept as a bit-identical differential
    /// reference (the routing analogue of `AllocMode::Reference`). The
    /// lockstep ([`crate::engine::Sim::enable_lockstep`]) consults the same
    /// memoized answers beside the oracle.
    Reference,
}

/// Computes paths over a topology: a façade over the [`RouteOracle`] (the
/// default backend) and the per-query reference Dijkstra, with route
/// overrides shared by both.
#[derive(Debug, Clone, Default)]
pub struct RoutingTable {
    mode: RoutingMode,
    oracle: RouteOracle,
    /// Reference per-pair memo. Like the topology's trees this is query
    /// history, not state, and is excluded from the audit digest.
    ref_cache: HashMap<(NodeId, NodeId), Vec<NodeId>>,
    /// Compare every oracle answer with the reference's.
    lockstep: bool,
    /// The lockstep's first disagreeing query.
    diverged: Option<(NodeId, NodeId)>,
    /// Fault injection: the reference backend breaks ties by the largest
    /// predecessor id; compiled only with the `failpoints` feature.
    #[cfg(feature = "failpoints")]
    largest_predecessor: bool,
}

impl RoutingTable {
    /// Empty table (pure shortest-path routing, oracle backend).
    pub fn new() -> Self {
        Self::default()
    }

    /// Select the backend. Both modes return bit-identical paths; the
    /// reference exists so differential checks can prove that.
    pub fn set_mode(&mut self, mode: RoutingMode) {
        self.mode = mode;
    }

    /// The active backend.
    pub fn mode(&self) -> RoutingMode {
        self.mode
    }

    /// Compare every later oracle answer from [`RoutingTable::path`],
    /// [`RoutingTable::links`] and [`RoutingTable::links_into`] with the
    /// memoized reference Dijkstra's and
    /// keep the first `(src, dst)` they disagree on
    /// ([`RoutingTable::divergence`]). Answers are the oracle's either way.
    pub(crate) fn enable_lockstep(&mut self) {
        self.lockstep = true;
    }

    /// The lockstep's first disagreeing query, if any.
    pub(crate) fn divergence(&self) -> Option<(NodeId, NodeId)> {
        self.diverged
    }

    /// Install an override; replaces any previous override for the pair.
    /// Pass an `Arc` to share one override among many tables.
    pub fn add_override(&mut self, ov: impl Into<Arc<RouteOverride>>) {
        self.oracle.add_override(ov);
    }

    /// Number of installed overrides.
    pub fn override_count(&self) -> usize {
        self.oracle.override_count()
    }

    /// Test-only fault injection: from now on the reference backend, and so
    /// the lockstep's comparison, routes each pair through every node's
    /// largest-id tight predecessor rather than the smallest, so it
    /// disagrees with the oracle wherever an equal-cost tie decides a path.
    /// Compiled only with the `failpoints` feature.
    #[cfg(feature = "failpoints")]
    pub fn inject_largest_predecessor(&mut self) {
        self.largest_predecessor = true;
    }

    /// The path from `src` to `dst`: the installed override if present,
    /// otherwise the canonical minimum-cost path (ties broken
    /// deterministically by smaller predecessor id at settlement).
    pub fn path(&mut self, topo: &Topology, src: NodeId, dst: NodeId) -> NetResult<Vec<NodeId>> {
        match self.mode {
            RoutingMode::Oracle if !self.lockstep || self.diverged.is_some() => {
                self.oracle.path(topo, src, dst)
            }
            RoutingMode::Oracle => {
                let found = self.oracle.path(topo, src, dst);
                let same = match (&found, self.reference_path(topo, src, dst)) {
                    (Ok(p), Ok(want)) => p == want,
                    (Err(e), Err(want)) => *e == want,
                    _ => false,
                };
                if !same {
                    self.diverged = Some((src, dst));
                }
                found
            }
            RoutingMode::Reference => self.reference_path(topo, src, dst).map(<[NodeId]>::to_vec),
        }
    }

    /// Resolve a path into its links. The oracle backend reads them off the
    /// tree's `prev_link` chain, with no node path and no adjacency lookup.
    pub fn links(&mut self, topo: &Topology, src: NodeId, dst: NodeId) -> NetResult<Vec<LinkId>> {
        let mut out = Vec::new();
        self.links_into(topo, src, dst, &mut out)?;
        Ok(out)
    }

    /// [`RoutingTable::links`] into a caller-owned buffer, cleared first:
    /// once `out` has room, a warm oracle query allocates nothing. Under
    /// the lockstep the answer is compared with the reference Dijkstra's,
    /// as every oracle answer is.
    pub fn links_into(
        &mut self,
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
        out: &mut Vec<LinkId>,
    ) -> NetResult<()> {
        out.clear();
        match self.mode {
            RoutingMode::Oracle if !self.lockstep || self.diverged.is_some() => {
                self.oracle.links_into(topo, src, dst, out)
            }
            RoutingMode::Oracle => {
                let found = self.oracle.links_into(topo, src, dst, out);
                let same = match (&found, self.reference_path(topo, src, dst)) {
                    (Ok(()), Ok(want)) => {
                        out.len() + 1 == want.len()
                            && want
                                .windows(2)
                                .zip(out.iter())
                                .all(|(w, &l)| topo.link_between(w[0], w[1]) == Some(l))
                    }
                    (Err(e), Err(want)) => *e == want,
                    _ => false,
                };
                if !same {
                    self.diverged = Some((src, dst));
                }
                found
            }
            RoutingMode::Reference => {
                let p = self.reference_path(topo, src, dst)?;
                topo.links_on_path_into(p, out)
            }
        }
    }

    /// Up to `k` distinct loop-free alternatives to the shortest path, in
    /// deterministic (cost, via id) order. Always answered by the oracle —
    /// detour enumeration needs its forward/reverse trees either way.
    pub fn k_detours(
        &mut self,
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
        k: usize,
    ) -> NetResult<Vec<DetourPath>> {
        self.oracle.k_detours(topo, src, dst, k)
    }

    /// Fold the canonical routing state — overrides only, in sorted order —
    /// into an audit digest. Query caches (the topology's trees, the
    /// reference memo) are deliberately excluded: they record which pairs
    /// happened to be looked up, not what the simulation state is, and
    /// folding them made two state-identical sims digest differently after
    /// a diagnostic path query. The backend mode is likewise excluded so oracle and
    /// reference executions can be compared digest-for-digest.
    pub fn digest_into(&self, d: &mut crate::audit::Digest) {
        self.oracle.digest_into(d);
    }

    /// The reference backend's answer: the override if one is installed,
    /// otherwise the memoized per-pair [`dijkstra`] path.
    fn reference_path(
        &mut self,
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
    ) -> NetResult<&[NodeId]> {
        if !topo.contains(src) {
            return Err(NetError::UnknownNode(src));
        }
        if !topo.contains(dst) {
            return Err(NetError::UnknownNode(dst));
        }
        if src != dst && self.oracle.override_for(src, dst).is_some() {
            let p = self.oracle.override_for(src, dst).expect("just found");
            // Validate lazily so a bad override fails loudly at use.
            topo.links_on_path(p)?;
            return Ok(p);
        }
        let p = match self.ref_cache.entry((src, dst)) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                let found = if src == dst {
                    Some(vec![src])
                } else {
                    #[cfg(feature = "failpoints")]
                    let found = if self.largest_predecessor {
                        self.oracle.largest_predecessor_path(topo, src, dst)
                    } else {
                        dijkstra(topo, src, dst)
                    };
                    #[cfg(not(feature = "failpoints"))]
                    let found = dijkstra(topo, src, dst);
                    found
                };
                e.insert(found.ok_or(NetError::NoRoute { src, dst })?)
            }
        };
        Ok(p)
    }
}

/// Deterministic single-pair Dijkstra over link costs, kept as the
/// differential reference for the [`RouteOracle`].
///
/// Canonical tie-break, shared bit-for-bit with the oracle's tree builds:
/// nodes settle in `(dist, node id)` heap order, and a node's predecessor is
/// the smallest-id node that settled before it and achieves its final
/// distance. Two historical bugs are worth remembering here:
///
/// * the loop used to `break` as soon as `dst` was *popped*, skipping
///   equal-cost relaxations into `dst` from nodes still in the heap, so the
///   documented smaller-predecessor rule was not fully honoured;
/// * the tie-break update was unguarded and could rewrite `prev[v]` after
///   `v` had settled, which made answers depend on query order and — with
///   zero-cost edges — could knot the predecessor chain into a cycle.
///
/// The settled-node guard fixes both: predecessors freeze at settlement,
/// and the full sweep keeps this function's answers identical to a path
/// read out of the oracle's shortest-path tree.
pub fn dijkstra(topo: &Topology, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
    let n = topo.nodes().len();
    let mut dist = vec![u64::MAX; n];
    let mut prev: Vec<Option<NodeId>> = vec![None; n];
    let mut settled = vec![false; n];
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
    dist[src.0 as usize] = 0;
    heap.push(Reverse((0, src.0)));

    while let Some(Reverse((d, u))) = heap.pop() {
        if settled[u as usize] {
            continue;
        }
        settled[u as usize] = true;
        for &lid in topo.outgoing(NodeId(u)) {
            let link = topo.link(lid);
            let v = link.to.0 as usize;
            let nd = d + link.cost as u64;
            if nd < dist[v] {
                dist[v] = nd;
                prev[v] = Some(NodeId(u));
                heap.push(Reverse((nd, v as u32)));
            } else if nd == dist[v] && !settled[v] && prev[v].map(|p| u < p.0).unwrap_or(false) {
                // Equal cost via a smaller predecessor; an equal-key heap
                // entry already exists, so no re-push.
                prev[v] = Some(NodeId(u));
            }
        }
    }

    if dist[dst.0 as usize] == u64::MAX {
        return None;
    }
    let mut path = vec![dst];
    let mut cur = dst;
    while cur != src {
        cur = prev[cur.0 as usize]?;
        path.push(cur);
    }
    path.reverse();
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geo::GeoPoint;
    use crate::time::SimTime;
    use crate::topology::{LinkParams, TopologyBuilder};
    use crate::units::Bandwidth;

    fn diamond() -> (Topology, NodeId, NodeId, NodeId, NodeId) {
        // a -> {cheap: x, expensive: y} -> d
        let mut b = TopologyBuilder::new();
        let a = b.host("a", GeoPoint::new(0.0, 0.0));
        let x = b.router("x", GeoPoint::new(1.0, 0.0));
        let y = b.router("y", GeoPoint::new(-1.0, 0.0));
        let d = b.host("d", GeoPoint::new(0.0, 1.0));
        let p = |cost| {
            LinkParams::new(Bandwidth::from_mbps(10.0), SimTime::from_millis(1)).with_cost(cost)
        };
        b.duplex(a, x, p(5));
        b.duplex(x, d, p(5));
        b.duplex(a, y, p(50));
        b.duplex(y, d, p(50));
        (b.build(), a, x, y, d)
    }

    #[test]
    fn picks_min_cost_path() {
        let (t, a, x, _y, d) = diamond();
        let mut rt = RoutingTable::new();
        assert_eq!(rt.path(&t, a, d).unwrap(), vec![a, x, d]);
    }

    #[test]
    fn override_wins_over_cost() {
        let (t, a, _x, y, d) = diamond();
        let mut rt = RoutingTable::new();
        rt.add_override(RouteOverride::new(a, d, vec![a, y, d]));
        assert_eq!(rt.path(&t, a, d).unwrap(), vec![a, y, d]);
        assert_eq!(rt.override_count(), 1);
        // Other directions are unaffected.
        assert_eq!(rt.path(&t, d, a).unwrap(), vec![d, _x, a]);
    }

    #[test]
    fn broken_override_errors() {
        // a and d are not adjacent; both backends must fail loudly at use.
        for mode in [RoutingMode::Oracle, RoutingMode::Reference] {
            let (t, a, _x, _y, d) = diamond();
            let mut rt = RoutingTable::new();
            rt.set_mode(mode);
            rt.add_override(RouteOverride::new(a, d, vec![a, d]));
            assert!(matches!(
                rt.path(&t, a, d),
                Err(NetError::BrokenPath { .. })
            ));
        }
    }

    #[test]
    fn no_route_is_detected() {
        let mut b = TopologyBuilder::new();
        let a = b.host("a", GeoPoint::new(0.0, 0.0));
        let c = b.host("c", GeoPoint::new(1.0, 1.0));
        // Link only c -> a, so a cannot reach c.
        b.simplex(
            c,
            a,
            LinkParams::new(Bandwidth::from_mbps(1.0), SimTime::from_millis(1)),
        );
        let t = b.build();
        let mut rt = RoutingTable::new();
        assert_eq!(rt.path(&t, a, c), Err(NetError::NoRoute { src: a, dst: c }));
        assert!(rt.path(&t, c, a).is_ok());
    }

    #[test]
    fn self_path() {
        let (t, a, ..) = diamond();
        let mut rt = RoutingTable::new();
        assert_eq!(rt.path(&t, a, a).unwrap(), vec![a]);
    }

    #[test]
    fn unknown_node_errors() {
        let (t, a, ..) = diamond();
        let mut rt = RoutingTable::new();
        let ghost = NodeId(99);
        assert_eq!(rt.path(&t, a, ghost), Err(NetError::UnknownNode(ghost)));
    }

    #[test]
    fn cache_consistency() {
        let (t, a, x, _y, d) = diamond();
        let mut rt = RoutingTable::new();
        let p1 = rt.path(&t, a, d).unwrap();
        let p2 = rt.path(&t, a, d).unwrap();
        assert_eq!(p1, p2);
        assert_eq!(p1, vec![a, x, d]);
        // A fresh table over the warm topology reads the same tree.
        assert_eq!(RoutingTable::new().path(&t, a, d).unwrap(), p1);
    }

    #[test]
    fn deterministic_tie_breaking() {
        // Two equal-cost paths; the one through the smaller node id wins.
        let mut b = TopologyBuilder::new();
        let a = b.host("a", GeoPoint::new(0.0, 0.0));
        let m1 = b.router("m1", GeoPoint::new(1.0, 0.0));
        let m2 = b.router("m2", GeoPoint::new(-1.0, 0.0));
        let d = b.host("d", GeoPoint::new(0.0, 1.0));
        let p = LinkParams::new(Bandwidth::from_mbps(1.0), SimTime::from_millis(1));
        b.duplex(a, m2, p); // added first, but m2 has the larger id? No: m1 < m2 by id.
        b.duplex(m2, d, p);
        b.duplex(a, m1, p);
        b.duplex(m1, d, p);
        let t = b.build();
        let mut rt = RoutingTable::new();
        let path = rt.path(&t, a, d).unwrap();
        // Both are cost 20; determinism demands the same answer every time.
        for _ in 0..10 {
            let mut rt2 = RoutingTable::new();
            assert_eq!(rt2.path(&t, a, d).unwrap(), path);
        }
    }

    #[test]
    fn override_path_must_terminate_correctly() {
        let (_, a, x, _y, d) = diamond();
        let result = std::panic::catch_unwind(|| RouteOverride::new(a, d, vec![a, x]));
        assert!(result.is_err());
    }

    /// Regression (digest bug): the audit digest used to fold the lazily
    /// populated query cache, so two state-identical tables that had looked
    /// up different pairs digested differently. Warming any number of
    /// queries must leave the digest unchanged, in both backends.
    #[test]
    fn warming_the_cache_leaves_the_digest_unchanged() {
        for mode in [RoutingMode::Oracle, RoutingMode::Reference] {
            let (t, a, _x, y, d) = diamond();
            let mut cold = RoutingTable::new();
            let mut warm = RoutingTable::new();
            for rt in [&mut cold, &mut warm] {
                rt.set_mode(mode);
                rt.add_override(RouteOverride::new(a, d, vec![a, y, d]));
            }
            warm.path(&t, a, d).unwrap();
            warm.path(&t, d, a).unwrap();
            warm.path(&t, y, a).unwrap();
            warm.links(&t, a, y).unwrap();
            warm.k_detours(&t, a, d, 2).unwrap();
            let digest_of = |rt: &RoutingTable| {
                let mut d = crate::audit::Digest::new();
                rt.digest_into(&mut d);
                d.finish()
            };
            assert_eq!(digest_of(&cold), digest_of(&warm), "mode {mode:?}");
        }
    }

    /// The digest must also be independent of the backend mode, or the
    /// differential oracle-vs-reference executions could never agree.
    #[test]
    fn digest_is_mode_independent() {
        let (t, a, _x, y, d) = diamond();
        let mut oracle = RoutingTable::new();
        let mut reference = RoutingTable::new();
        reference.set_mode(RoutingMode::Reference);
        for rt in [&mut oracle, &mut reference] {
            rt.add_override(RouteOverride::new(a, d, vec![a, y, d]));
            rt.path(&t, a, d).unwrap();
        }
        let digest_of = |rt: &RoutingTable| {
            let mut d = crate::audit::Digest::new();
            rt.digest_into(&mut d);
            d.finish()
        };
        assert_eq!(digest_of(&oracle), digest_of(&reference));
    }

    /// Regression (tie-break bug): an equal-cost diamond whose heap order
    /// used to flip the answer. Node ids by creation order: a=0, x=1, u=2,
    /// q=3, d=4; a→q→x costs 5+5, a→u→x costs 10+0, then x→d. Both routes
    /// into x cost 10. The buggy Dijkstra settled x via q (the only
    /// predecessor at settlement — the canonical answer), then later popped
    /// u and *rewrote* `prev[x] = u` because 2 < 3, returning a-u-x-d; and
    /// its early `break` on popping d meant equal-cost relaxations into d
    /// still in the heap were silently skipped. With predecessors frozen at
    /// settlement the answer is a-q-x-d in every mode, matching the
    /// documented smaller-predecessor-at-settlement rule.
    #[test]
    fn equal_cost_diamond_is_not_flipped_by_heap_order() {
        let mut b = TopologyBuilder::new();
        let p = |cost| {
            LinkParams::new(Bandwidth::from_mbps(10.0), SimTime::from_millis(1)).with_cost(cost)
        };
        let a = b.host("a", GeoPoint::new(0.0, 0.0));
        let x = b.router("x", GeoPoint::new(1.0, 0.0));
        let u = b.router("u", GeoPoint::new(2.0, 0.0));
        let q = b.router("q", GeoPoint::new(3.0, 0.0));
        let d = b.host("d", GeoPoint::new(0.0, 1.0));
        b.simplex(a, q, p(5));
        b.simplex(q, x, p(5));
        b.simplex(a, u, p(10));
        b.simplex(u, x, p(0));
        b.simplex(x, d, p(7));
        let t = b.build();
        let want = vec![a, q, x, d];
        assert_eq!(dijkstra(&t, a, d).unwrap(), want);
        for mode in [RoutingMode::Oracle, RoutingMode::Reference] {
            let mut rt = RoutingTable::new();
            rt.set_mode(mode);
            assert_eq!(rt.path(&t, a, d).unwrap(), want, "mode {mode:?}");
        }
        // Query order must not matter either: resolving a→x first used to
        // poison later answers via the rewritten predecessor.
        let mut rt = RoutingTable::new();
        assert_eq!(rt.path(&t, a, x).unwrap(), vec![a, q, x]);
        assert_eq!(rt.path(&t, a, d).unwrap(), want);
    }

    /// Oracle and reference backends agree pairwise on the whole diamond,
    /// overrides (a broken one included) and unknown nodes too, and a
    /// table checking them in lockstep answers as the oracle does, into a
    /// reused buffer too, and records no divergence.
    #[test]
    fn backends_agree_on_every_pair() {
        let (t, a, _x, y, d) = diamond();
        let mut oracle = RoutingTable::new();
        let mut reference = RoutingTable::new();
        reference.set_mode(RoutingMode::Reference);
        let mut lockstep = RoutingTable::new();
        lockstep.enable_lockstep();
        for rt in [&mut oracle, &mut reference, &mut lockstep] {
            rt.add_override(RouteOverride::new(a, d, vec![a, y, d]));
            rt.add_override(RouteOverride::new(d, a, vec![d, a]));
        }
        let mut buf = vec![LinkId(99)];
        for s in 0..=t.nodes().len() as u32 {
            for e in 0..=t.nodes().len() as u32 {
                let (s, e) = (NodeId(s), NodeId(e));
                assert_eq!(oracle.path(&t, s, e), reference.path(&t, s, e));
                assert_eq!(oracle.links(&t, s, e), reference.links(&t, s, e));
                assert_eq!(lockstep.path(&t, s, e), oracle.path(&t, s, e));
                assert_eq!(lockstep.links(&t, s, e), oracle.links(&t, s, e));
                let into = lockstep.links_into(&t, s, e, &mut buf);
                assert_eq!(into.map(|()| buf.clone()), oracle.links(&t, s, e));
            }
        }
        assert_eq!(lockstep.divergence(), None);
    }

    /// A reference that flips equal-cost ties disagrees with the oracle on
    /// the tied pair: the lockstep names it and keeps answering with the
    /// oracle's path.
    #[cfg(feature = "failpoints")]
    #[test]
    fn lockstep_names_the_first_pair_the_backends_disagree_on() {
        let mut b = TopologyBuilder::new();
        let a = b.host("a", GeoPoint::new(0.0, 0.0));
        let m1 = b.router("m1", GeoPoint::new(1.0, 0.0));
        let m2 = b.router("m2", GeoPoint::new(-1.0, 0.0));
        let d = b.host("d", GeoPoint::new(0.0, 1.0));
        let p = LinkParams::new(Bandwidth::from_mbps(1.0), SimTime::from_millis(1));
        b.duplex(a, m1, p);
        b.duplex(m1, d, p);
        b.duplex(a, m2, p);
        b.duplex(m2, d, p);
        let t = b.build();
        let mut rt = RoutingTable::new();
        rt.enable_lockstep();
        rt.inject_largest_predecessor();
        assert_eq!(rt.links(&t, a, m1).map(|l| l.len()), Ok(1));
        assert_eq!(rt.divergence(), None);
        assert_eq!(rt.path(&t, a, d), Ok(vec![a, m1, d]));
        assert_eq!(rt.divergence(), Some((a, d)));
        rt.path(&t, d, a).expect("connected");
        assert_eq!(rt.divergence(), Some((a, d)), "the first pair is kept");
    }
}
