//! Differential property tests for the route oracle, the shortest-path
//! trees a `RoutingTable` reads off its topology: on randomized WAN, globe
//! and dense small-cost topologies (zero-cost arcs and equal-cost parallel
//! routes included) every oracle answer must be bit-identical to the
//! legacy per-query Dijkstra (`netsim::routing::dijkstra`) and overrides
//! must layer the same way. A pin folds every answer from 16 sources on a
//! fixed set of worlds into one digest, so a tree builder that changes any
//! tree cannot pass, whichever order or thread the trees were built in.

use netsim::audit::Digest;
use netsim::error::NetResult;
use netsim::geo::GeoPoint;
use netsim::routing::{dijkstra, RouteOverride, RoutingTable};
use netsim::synth::{SynthGlobe, SynthWan};
use netsim::time::SimTime;
use netsim::topology::{LinkId, LinkParams, NodeId, Topology, TopologyBuilder};
use netsim::units::Bandwidth;
use proptest::prelude::*;
use std::collections::HashSet;

fn link(cost: u32) -> LinkParams {
    LinkParams::new(Bandwidth::from_mbps(10.0), SimTime::from_millis(1)).with_cost(cost)
}

/// `table`'s path into a fresh buffer.
fn path(table: &mut RoutingTable, topo: &Topology, s: NodeId, d: NodeId) -> NetResult<Vec<NodeId>> {
    let mut out = Vec::new();
    table.path_into(topo, s, d, &mut out).map(|()| out)
}

/// Total cost of a link path.
fn cost_of(topo: &Topology, links: &[LinkId]) -> u64 {
    links.iter().map(|&l| topo.link(l).cost as u64).sum()
}

/// A random directed graph of `n` routers: each ordered pair is linked
/// with probability `density_pct`%, at a cost drawn from `0..=max_cost`.
/// Small cost ranges make zero-cost arcs (and zero-cost cycles) and
/// equal-cost parallel routes common; the two directions of a pair are
/// drawn independently, so anti-parallel links often differ in cost.
fn random_graph(seed: u64, n: usize, density_pct: u64, max_cost: u32) -> Topology {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut b = TopologyBuilder::new();
    let nodes: Vec<NodeId> = (0..n)
        .map(|i| b.router(&format!("r{i}"), GeoPoint::new(0.0, i as f64 * 0.01)))
        .collect();
    for &from in &nodes {
        for &to in &nodes {
            if from != to && next() % 100 < density_pct {
                let cost = (next() % (max_cost as u64 + 1)) as u32;
                b.simplex(from, to, link(cost));
            }
        }
    }
    b.build()
}

/// Two gadgets, one per component, in which a zero-cost arc `u → v` joins
/// two nodes at the same distance with `v < u < p`, where `p` is `v`'s
/// canonical predecessor. Settling the distance in id order settles `v`
/// (via `p`) before `u` relaxes the zero-cost arc; settling `u` first
/// would adopt `u`, the smaller id. The gadgets differ in the order their
/// distance-10 nodes are discovered — `u` first in the first, `v` first in
/// the second — so neither first-in-first-out nor last-in-first-out order
/// within a distance matches both. Returns the topology and each gadget's
/// `(root, v, p)`.
fn zero_cost_gadgets() -> (Topology, [(NodeId, NodeId, NodeId); 2]) {
    let mut b = TopologyBuilder::new();
    let mut node = |name: &str| b.router(name, GeoPoint::new(0.0, 0.0));
    let (r1, v1, u1, p1) = (node("r1"), node("v1"), node("u1"), node("p1"));
    let (r2, v2, u2, p2, w2) = (node("r2"), node("v2"), node("u2"), node("p2"), node("w2"));
    // r1 discovers u1 (10) before p1 (5) discovers v1 (10).
    b.simplex(r1, p1, link(5));
    b.simplex(p1, v1, link(5));
    b.simplex(r1, u1, link(10));
    b.simplex(u1, v1, link(0));
    // p2 (1) discovers v2 (10) before w2 (2) discovers u2 (10).
    b.simplex(r2, p2, link(1));
    b.simplex(p2, v2, link(9));
    b.simplex(r2, w2, link(2));
    b.simplex(w2, u2, link(8));
    b.simplex(u2, v2, link(0));
    (b.build(), [(r1, v1, p1), (r2, v2, p2)])
}

/// One u64 over everything the trees answer: from up to 16 sources spread
/// over the node ids, every destination's cost and link path.
fn tree_pin(topo: &Topology) -> u64 {
    let n = topo.nodes().len();
    let (mut table, mut links) = (RoutingTable::new(), Vec::new());
    let mut d = Digest::new();
    for s in (0..n).step_by(n.div_ceil(16)) {
        let s = NodeId(s as u32);
        for t in 0..n as u32 {
            let t = NodeId(t);
            match table.links_into(topo, s, t, &mut links) {
                Ok(()) => {
                    d.write_u64(cost_of(topo, &links));
                    d.write_u64(links.len() as u64);
                    for l in &links {
                        d.write_u64(l.0 as u64);
                    }
                }
                Err(_) => {
                    d.write_u64(u64::MAX);
                    d.write_u64(u64::MAX);
                }
            }
        }
    }
    d.finish()
}

/// A loop-free route from `src` to `dst` other than the routed one: the
/// routed paths `src → via` and `via → dst` joined at the first pivot
/// `via`, in node id order, that gives one. Every node may pivot, so
/// transit and stub routers offer the detours a host cannot. `None` when
/// no pivot does.
fn pivot_detour(
    table: &mut RoutingTable,
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
) -> Option<Vec<NodeId>> {
    let primary = path(table, topo, src, dst).ok()?;
    (0..topo.nodes().len() as u32).map(NodeId).find_map(|via| {
        let mut joined = path(table, topo, src, via).ok()?;
        joined.extend_from_slice(&path(table, topo, via, dst).ok()?[1..]);
        let mut seen = HashSet::new();
        (joined != primary && joined.iter().all(|&n| seen.insert(n))).then_some(joined)
    })
}

/// Cheap deterministic pair sampler over the node set.
fn pairs(topo: &Topology, seed: u64, count: usize) -> Vec<(NodeId, NodeId)> {
    let n = topo.nodes().len() as u64;
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % n
    };
    (0..count)
        .map(|_| (NodeId(next() as u32), NodeId(next() as u32)))
        .collect()
}

/// The core differential property: for every sampled pair the oracle and
/// the reference Dijkstra agree exactly — same path when one exists, and
/// a `NoRoute` error exactly when the reference finds none. Link
/// expansions must match the topology's own adjacency walk.
fn assert_backends_agree(topo: &Topology, seed: u64, samples: usize) {
    let (mut table, mut links) = (RoutingTable::new(), Vec::new());
    for (src, dst) in pairs(topo, seed, samples) {
        let reference = dijkstra(topo, src, dst);
        match path(&mut table, topo, src, dst) {
            Ok(path) => {
                assert_eq!(Some(&path), reference.as_ref(), "{src}->{dst}");
                if src == dst {
                    assert_eq!(path, vec![src]);
                }
                table.links_into(topo, src, dst, &mut links).unwrap();
                assert_eq!(links, topo.links_on_path(&path).unwrap());
            }
            Err(e) => {
                assert!(
                    reference.is_none(),
                    "{src}->{dst}: oracle errs {e} but reference routes"
                );
                assert!(table.links_into(topo, src, dst, &mut links).is_err());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Oracle ≡ reference Dijkstra on randomized transit–stub WANs.
    #[test]
    fn wan_oracle_matches_reference(seed in 0u64..1000) {
        let world = SynthWan { seed, ..SynthWan::default() }.build();
        assert_backends_agree(&world.topo, seed, 64);
    }

    /// Oracle ≡ reference Dijkstra on randomized multi-cloud globes.
    #[test]
    fn globe_oracle_matches_reference(seed in 0u64..1000) {
        let world = SynthGlobe { seed, ..SynthGlobe::default() }.build();
        assert_backends_agree(&world.topo, seed, 64);
    }

    /// Overrides shadow exactly one pair and leave every other pair on the
    /// canonical tree path; the override itself is returned verbatim.
    #[test]
    fn overrides_layer_over_tree_paths(seed in 0u64..1000) {
        let world = SynthWan { seed, ..SynthWan::default() }.build();
        let topo = &world.topo;
        let mut table = RoutingTable::new();
        let src = world.hosts[0];

        // A loop-free detour the trees would not return makes a realistic
        // override. Hosts behind one stub, or behind stubs homed on one
        // transit router only, have none (every route between them crosses
        // that router twice), so `dst` is the first host from the middle of
        // the list on that has one; every seed in `0..1000` offers one.
        let n = world.hosts.len();
        let (dst, alt) = (0..n)
            .map(|i| world.hosts[(n / 2 + i) % n])
            .filter(|&dst| dst != src)
            .find_map(|dst| Some((dst, pivot_detour(&mut table, topo, src, dst)?)))
            .expect("some host has a loop-free detour from the first");
        assert_ne!(alt, path(&mut table, topo, src, dst).unwrap());
        table.add_override(RouteOverride::new(src, dst, alt.clone()));

        assert_eq!(path(&mut table, topo, src, dst).unwrap(), alt);
        // The reverse pair and unrelated pairs still ride the trees.
        assert_eq!(path(&mut table, topo, dst, src).unwrap(), dijkstra(topo, dst, src).unwrap());
        for (a, b) in pairs(topo, seed ^ 0xabcd, 24) {
            if (a, b) == (src, dst) {
                continue;
            }
            assert_eq!(path(&mut table, topo, a, b).ok(), dijkstra(topo, a, b), "{a}->{b}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Oracle ≡ reference Dijkstra on dense small-cost graphs, where zero-
    /// cost arcs and equal-cost parallel routes put many nodes at one
    /// distance and some of them reach each other at no cost.
    #[test]
    fn zero_cost_oracle_matches_reference(
        seed in any::<u64>(),
        n in 2usize..32,
        density_pct in 5u64..40,
        max_cost in 0u32..4,
    ) {
        let topo = random_graph(seed, n, density_pct, max_cost);
        let mut table = RoutingTable::new();
        for s in 0..n as u32 {
            for t in 0..n as u32 {
                let (s, t) = (NodeId(s), NodeId(t));
                prop_assert_eq!(path(&mut table, &topo, s, t).ok(), dijkstra(&topo, s, t), "{}->{}", s, t);
            }
        }
    }
}

/// A zero-cost arc into a smaller id at the same distance leaves the
/// canonical predecessor in place, whichever order the distance's nodes
/// were discovered in (see [`zero_cost_gadgets`]).
#[test]
fn zero_cost_arc_into_a_smaller_id_keeps_the_canonical_predecessor() {
    let (topo, gadgets) = zero_cost_gadgets();
    for (root, v, p) in gadgets {
        let want = vec![root, p, v];
        assert_eq!(dijkstra(&topo, root, v).unwrap(), want);
        let (mut table, mut links) = (RoutingTable::new(), Vec::new());
        assert_eq!(path(&mut table, &topo, root, v).unwrap(), want);
        table.links_into(&topo, root, v, &mut links).unwrap();
        assert_eq!(cost_of(&topo, &links), 10);
    }
}

/// The pins of `worlds`, folded in order.
fn fold_pins(worlds: &[Topology]) -> u64 {
    let mut d = Digest::new();
    for topo in worlds {
        d.write_u64(tree_pin(topo));
    }
    d.finish()
}

/// Build every tree of `topo`, in descending root order.
fn build_every_tree_backwards(topo: &Topology) {
    let (mut table, mut path) = (RoutingTable::new(), Vec::new());
    let n = topo.nodes().len() as u32;
    for root in (0..n).rev() {
        // A route from `root` builds its tree, reachable or not.
        let _ = table.path_into(topo, NodeId(root), NodeId((root + 1) % n), &mut path);
    }
}

/// Every tree answer on a fixed set of worlds, pinned: SynthWan and
/// SynthGlobe worlds (uniform and tiered costs, many ties), the zero-cost
/// gadgets and a dense zero-cost graph. A tree builder must reproduce the
/// canonical trees exactly, not merely agree with the reference on samples.
/// Every thread reuses one tree-building scratch for every topology, so the
/// pin is taken twice: over the worlds as the test thread builds their
/// trees in query order, and over clones of them taken before any query,
/// whose trees another thread builds world by world from the last, each in
/// descending root order.
#[test]
fn tree_pin_is_unchanged() {
    let wan = |seed| {
        SynthWan {
            seed,
            ..SynthWan::default()
        }
        .build()
        .topo
    };
    let globe = |seed| SynthGlobe {
        seed,
        ..SynthGlobe::default()
    };
    let worlds = [
        wan(1),
        wan(2),
        wan(3),
        globe(1).build().topo,
        globe(2).build().topo,
        globe(3).with_target_nodes(300).build().topo,
        zero_cost_gadgets().0,
        random_graph(0x5eed, 40, 12, 2),
    ];
    let clones = worlds.clone();
    let in_query_order = fold_pins(&worlds);
    assert_eq!(
        in_query_order, 0x2df1_850d_4f3c_9f0f,
        "tree pin moved: {in_query_order:016x}"
    );
    let backwards = std::thread::spawn(move || {
        for topo in clones.iter().rev() {
            build_every_tree_backwards(topo);
        }
        fold_pins(&clones)
    })
    .join()
    .expect("tree-building thread");
    assert_eq!(
        backwards, 0x2df1_850d_4f3c_9f0f,
        "tree pin moved with build order and thread: {backwards:016x}"
    );
}

/// Two disconnected islands: both backends must report "no route" the
/// same way, in both directions, without poisoning later queries.
#[test]
fn disconnected_islands_err_identically() {
    use netsim::geo::GeoPoint;
    use netsim::time::SimTime;
    use netsim::topology::{LinkParams, TopologyBuilder};
    use netsim::units::Bandwidth;

    let p = LinkParams::new(Bandwidth::from_mbps(10.0), SimTime::from_millis(1)).with_cost(1);
    let mut b = TopologyBuilder::new();
    let a1 = b.host("a1", GeoPoint::new(0.0, 0.0));
    let a2 = b.host("a2", GeoPoint::new(0.0, 1.0));
    let b1 = b.host("b1", GeoPoint::new(10.0, 0.0));
    let b2 = b.host("b2", GeoPoint::new(10.0, 1.0));
    b.duplex(a1, a2, p);
    b.duplex(b1, b2, p);
    let topo = b.build();

    let mut table = RoutingTable::new();
    for (src, dst) in [(a1, b1), (b2, a2), (a2, b2)] {
        assert!(dijkstra(&topo, src, dst).is_none());
        assert!(matches!(
            path(&mut table, &topo, src, dst),
            Err(netsim::error::NetError::NoRoute { .. })
        ));
    }
    // Intra-island queries still work after the failures above.
    assert_eq!(path(&mut table, &topo, a1, a2).unwrap(), vec![a1, a2]);
    assert_eq!(
        path(&mut table, &topo, b1, b2).unwrap(),
        dijkstra(&topo, b1, b2).unwrap()
    );
}
