//! Network topology: nodes, directed links and the builder API.
//!
//! A topology is immutable once built. Simulations share it read-only
//! through an `Arc`: a measurement campaign builds one topology and many
//! [`crate::engine::Sim`] instances over it, on one thread or several.
//! What is derived from it alone travels with it: the shortest-path tree
//! of each root, built the first time any sim routes from that node and
//! then read by every sim over the same topology (see [`crate::oracle`]).
//! So do the buffers of the sims that ran over it: a dropped sim leaves
//! its engine buffers with the topology, and the next sim built over it
//! resets and reuses them (see [`crate::engine::Sim::new`]).

use crate::engine::Spares;
use crate::geo::GeoPoint;
use crate::oracle::{Spt, TreeCache};
use crate::time::SimTime;
use crate::units::Bandwidth;
use std::collections::HashMap;
use std::fmt;

/// Identifies a node. Indexes into [`Topology::nodes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifies a directed link. Indexes into [`Topology::links`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub u32);

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// What a node is; affects traceroute rendering and default behaviour only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// An end host (client machine, DTN, or storage frontend).
    Host,
    /// An interior router.
    Router,
    /// An exchange / peering point (e.g. pacificwave).
    Exchange,
    /// A provider datacenter ingress.
    Datacenter,
}

/// A node in the topology.
#[derive(Debug, Clone)]
pub struct Node {
    /// Stable identifier.
    pub id: NodeId,
    /// Human-readable name ("ubc-planetlab", "vncv1rtr2.canarie.ca").
    pub name: String,
    /// Node role.
    pub kind: NodeKind,
    /// Geographic position (drives default propagation delays and Figure 3).
    pub location: GeoPoint,
    /// Autonomous-system number, used by routing policy and traceroute.
    pub asn: u32,
    /// IPv4 address advertised in traceroutes.
    pub ip: [u8; 4],
    /// Nodes that do not answer traceroute probes render as `* * *`
    /// (the paper's Figure 6 shows such hops inside UAlberta).
    pub anonymous: bool,
}

impl Node {
    /// Dotted-quad IPv4 string.
    pub fn ip_string(&self) -> String {
        let [a, b, c, d] = self.ip;
        format!("{a}.{b}.{c}.{d}")
    }
}

/// Link parameters supplied at build time.
#[derive(Debug, Clone, Copy)]
pub struct LinkParams {
    /// Capacity of the link.
    pub capacity: Bandwidth,
    /// One-way propagation delay. `None` derives it from endpoint geography.
    pub delay: Option<SimTime>,
    /// Packet loss probability in [0, 1); feeds the TCP throughput ceiling.
    pub loss: f64,
    /// Routing cost; lower is preferred. Defaults to 10.
    pub cost: u32,
}

impl LinkParams {
    /// A clean link with explicit delay, no loss, default cost.
    pub fn new(capacity: Bandwidth, delay: SimTime) -> Self {
        LinkParams {
            capacity,
            delay: Some(delay),
            loss: 0.0,
            cost: 10,
        }
    }

    /// A link whose delay is derived from endpoint geography.
    pub fn geo(capacity: Bandwidth) -> Self {
        LinkParams {
            capacity,
            delay: None,
            loss: 0.0,
            cost: 10,
        }
    }

    /// Set the loss rate.
    pub fn with_loss(mut self, loss: f64) -> Self {
        assert!((0.0..1.0).contains(&loss), "loss out of range: {loss}");
        self.loss = loss;
        self
    }

    /// Set the routing cost.
    pub fn with_cost(mut self, cost: u32) -> Self {
        self.cost = cost;
        self
    }
}

/// A directed link between two nodes.
#[derive(Debug, Clone)]
pub struct Link {
    /// Stable identifier.
    pub id: LinkId,
    /// Source node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Capacity shared max-min fairly by the flows crossing this link.
    pub capacity: Bandwidth,
    /// One-way propagation delay.
    pub delay: SimTime,
    /// Packet loss probability in [0, 1).
    pub loss: f64,
    /// Routing cost.
    pub cost: u32,
}

/// Flat compressed-sparse-row adjacency: one `offsets` array of length
/// `nodes + 1` and three parallel arc arrays of length `links`. The arcs of
/// node `u` occupy `offsets[u]..offsets[u+1]`, in link-id order — the same
/// order the old nested `Vec<Vec<LinkId>>` adjacency produced, so iteration
/// order (and therefore every tie-broken route) is unchanged. The payoff is
/// locality: a shortest-path sweep touches three dense arrays instead of
/// chasing one heap-allocated `Vec` per node, and `cost` rides alongside the
/// target so the relaxation loop never dereferences a `Link`.
#[derive(Debug, Clone, Default)]
pub struct Csr {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    costs: Vec<u32>,
    link_ids: Vec<LinkId>,
    /// Some arc costs 0, so a shortest-path sweep can reach a node at the
    /// distance it is settling (see [`crate::oracle`]).
    zero_cost: bool,
}

impl Csr {
    /// Counting-sort the links of an `n`-node graph into CSR form, bucketed
    /// by `from`. The links arrive in link-id order, so each bucket stays
    /// link-sorted.
    fn build(n: usize, links: &[Link]) -> Csr {
        let mut offsets = vec![0u32; n + 1];
        for l in links {
            offsets[l.from.0 as usize + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let m = links.len();
        let mut targets = vec![0u32; m];
        let mut costs = vec![0u32; m];
        let mut link_ids = vec![LinkId(0); m];
        let mut cursor = offsets.clone();
        for l in links {
            let bucket = l.from.0 as usize;
            let at = cursor[bucket] as usize;
            targets[at] = l.to.0;
            costs[at] = l.cost;
            link_ids[at] = l.id;
            cursor[bucket] += 1;
        }
        Csr {
            zero_cost: costs.contains(&0),
            offsets,
            targets,
            costs,
            link_ids,
        }
    }

    /// Number of nodes this CSR was built over.
    pub fn node_count(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Number of arcs.
    pub fn arc_count(&self) -> usize {
        self.targets.len()
    }

    /// Does some arc cost 0?
    pub(crate) fn has_zero_cost(&self) -> bool {
        self.zero_cost
    }

    /// The arc index range of node `u`.
    #[inline]
    pub fn range(&self, u: u32) -> std::ops::Range<usize> {
        self.offsets[u as usize] as usize..self.offsets[u as usize + 1] as usize
    }

    /// Target node ids of `u`'s arcs.
    #[inline]
    pub fn targets(&self, u: u32) -> &[u32] {
        &self.targets[self.range(u)]
    }

    /// Costs parallel to [`Csr::targets`].
    #[inline]
    pub fn costs(&self, u: u32) -> &[u32] {
        &self.costs[self.range(u)]
    }

    /// Link ids parallel to [`Csr::targets`].
    #[inline]
    pub fn link_ids(&self, u: u32) -> &[LinkId] {
        &self.link_ids[self.range(u)]
    }

    /// Iterate `(target, cost, link)` arcs of `u` in link-id order.
    #[inline]
    pub fn arcs(&self, u: u32) -> impl Iterator<Item = (u32, u32, LinkId)> + '_ {
        let r = self.range(u);
        self.targets[r.clone()]
            .iter()
            .zip(&self.costs[r.clone()])
            .zip(&self.link_ids[r])
            .map(|((&t, &c), &l)| (t, c, l))
    }
}

/// An immutable network topology, with the shortest-path trees routed
/// over it so far and the buffers of the sims dropped over it. A clone
/// copies the trees built before it but none of the buffers.
#[derive(Debug, Clone)]
pub struct Topology {
    nodes: Vec<Node>,
    links: Vec<Link>,
    /// Forward CSR: arcs bucketed by `from`, link-id order within a node.
    csr: Csr,
    /// (from, to) -> link id for O(1) lookup when validating explicit paths.
    edge_index: HashMap<(NodeId, NodeId), LinkId>,
    name_index: HashMap<String, NodeId>,
    /// Shortest-path trees, one lazily filled slot per root node; shared
    /// by every sim and thread over this topology.
    trees: TreeCache,
    /// Engine buffers of dropped sims, waiting for the next sim.
    spares: Spares,
}

impl Topology {
    /// All nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Node by id. Panics on out-of-range ids (they can only be forged).
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// Link by id.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0 as usize]
    }

    /// True if `id` names a real node.
    pub fn contains(&self, id: NodeId) -> bool {
        (id.0 as usize) < self.nodes.len()
    }

    /// Look a node up by name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.name_index.get(name).copied()
    }

    /// Outgoing links of a node, in link-id order.
    pub fn outgoing(&self, id: NodeId) -> &[LinkId] {
        self.csr.link_ids(id.0)
    }

    /// The forward CSR adjacency (arcs bucketed by source).
    pub fn csr(&self) -> &Csr {
        &self.csr
    }

    /// The canonical shortest-path tree rooted at `root`, built on the
    /// first call from any thread (see [`crate::oracle`]).
    pub(crate) fn forward_tree(&self, root: NodeId) -> &Spt {
        self.trees.forward(&self.csr, root)
    }

    /// The shortest-path tree slots.
    #[cfg(test)]
    pub(crate) fn trees(&self) -> &TreeCache {
        &self.trees
    }

    /// The engine buffers dropped sims left here (see [`Spares`]).
    pub(crate) fn spares(&self) -> &Spares {
        &self.spares
    }

    /// The directed link between two adjacent nodes, if any.
    pub fn link_between(&self, from: NodeId, to: NodeId) -> Option<LinkId> {
        self.edge_index.get(&(from, to)).copied()
    }

    /// Convert a node path to the list of links joining it, validating
    /// adjacency.
    pub fn links_on_path(&self, path: &[NodeId]) -> Result<Vec<LinkId>, crate::error::NetError> {
        let mut out = Vec::with_capacity(path.len().saturating_sub(1));
        self.links_on_path_into(path, &mut out)?;
        Ok(out)
    }

    /// [`Topology::links_on_path`] into a caller-owned buffer, cleared
    /// first: no allocation once `out` has room for the path.
    pub(crate) fn links_on_path_into(
        &self,
        path: &[NodeId],
        out: &mut Vec<LinkId>,
    ) -> Result<(), crate::error::NetError> {
        out.clear();
        for w in path.windows(2) {
            match self.link_between(w[0], w[1]) {
                Some(l) => out.push(l),
                None => {
                    return Err(crate::error::NetError::BrokenPath {
                        from: w[0],
                        to: w[1],
                    })
                }
            }
        }
        Ok(())
    }

    /// Sum of propagation delays along a path of links (one way).
    pub fn path_delay(&self, links: &[LinkId]) -> SimTime {
        links.iter().map(|&l| self.link(l).delay).sum()
    }

    /// Combined loss probability along a path of links.
    pub fn path_loss(&self, links: &[LinkId]) -> f64 {
        1.0 - links
            .iter()
            .map(|&l| 1.0 - self.link(l).loss)
            .product::<f64>()
    }

    /// Minimum capacity along a path of links.
    pub fn path_capacity(&self, links: &[LinkId]) -> Bandwidth {
        links
            .iter()
            .map(|&l| self.link(l).capacity)
            .fold(Bandwidth::from_gbps(1e6), Bandwidth::min)
    }
}

/// Incrementally builds a [`Topology`].
#[derive(Debug, Default)]
pub struct TopologyBuilder {
    nodes: Vec<Node>,
    links: Vec<Link>,
    next_ip: u32,
}

impl TopologyBuilder {
    /// New empty builder.
    pub fn new() -> Self {
        TopologyBuilder {
            nodes: Vec::new(),
            links: Vec::new(),
            next_ip: 0x0a_00_00_01,
        }
    }

    fn alloc_ip(&mut self) -> [u8; 4] {
        let ip = self.next_ip;
        self.next_ip += 1;
        ip.to_be_bytes()
    }

    /// Add a node with full control over its attributes.
    pub fn node(&mut self, name: &str, kind: NodeKind, location: GeoPoint) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        let ip = self.alloc_ip();
        self.nodes.push(Node {
            id,
            name: name.to_string(),
            kind,
            location,
            asn: 0,
            ip,
            anonymous: false,
        });
        id
    }

    /// Add an end host.
    pub fn host(&mut self, name: &str, location: GeoPoint) -> NodeId {
        self.node(name, NodeKind::Host, location)
    }

    /// Add an interior router.
    pub fn router(&mut self, name: &str, location: GeoPoint) -> NodeId {
        self.node(name, NodeKind::Router, location)
    }

    /// Add an exchange point.
    pub fn exchange(&mut self, name: &str, location: GeoPoint) -> NodeId {
        self.node(name, NodeKind::Exchange, location)
    }

    /// Add a datacenter ingress.
    pub fn datacenter(&mut self, name: &str, location: GeoPoint) -> NodeId {
        self.node(name, NodeKind::Datacenter, location)
    }

    /// Override the auto-assigned IP of a node (for traceroute fidelity).
    pub fn set_ip(&mut self, node: NodeId, ip: [u8; 4]) -> &mut Self {
        self.nodes[node.0 as usize].ip = ip;
        self
    }

    /// Mark a node as not answering traceroute probes.
    pub fn set_anonymous(&mut self, node: NodeId) -> &mut Self {
        self.nodes[node.0 as usize].anonymous = true;
        self
    }

    /// Does a directed link from `a` to `b` already exist? (O(links); used
    /// by generators to avoid duplicate-link panics.)
    pub fn has_link(&self, a: NodeId, b: NodeId) -> bool {
        self.links.iter().any(|l| l.from == a && l.to == b)
    }

    /// Add a one-way link.
    pub fn simplex(&mut self, from: NodeId, to: NodeId, params: LinkParams) -> LinkId {
        assert!(from != to, "self-loops are not allowed");
        assert!((from.0 as usize) < self.nodes.len(), "unknown from-node");
        assert!((to.0 as usize) < self.nodes.len(), "unknown to-node");
        let delay = params.delay.unwrap_or_else(|| {
            self.nodes[from.0 as usize]
                .location
                .propagation_delay(&self.nodes[to.0 as usize].location)
        });
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link {
            id,
            from,
            to,
            capacity: params.capacity,
            delay,
            loss: params.loss,
            cost: params.cost,
        });
        id
    }

    /// Add a pair of symmetric links and return (forward, reverse).
    pub fn duplex(&mut self, a: NodeId, b: NodeId, params: LinkParams) -> (LinkId, LinkId) {
        (self.simplex(a, b, params), self.simplex(b, a, params))
    }

    /// Add an asymmetric duplex link (common for access networks).
    pub fn duplex_asym(
        &mut self,
        a: NodeId,
        b: NodeId,
        up: LinkParams,
        down: LinkParams,
    ) -> (LinkId, LinkId) {
        (self.simplex(a, b, up), self.simplex(b, a, down))
    }

    /// Finalize into an immutable topology.
    pub fn build(self) -> Topology {
        let mut edge_index = HashMap::with_capacity(self.links.len());
        for link in &self.links {
            let prev = edge_index.insert((link.from, link.to), link.id);
            assert!(
                prev.is_none(),
                "duplicate link {} -> {}",
                link.from,
                link.to
            );
        }
        let csr = Csr::build(self.nodes.len(), &self.links);
        let name_index = self.nodes.iter().map(|n| (n.name.clone(), n.id)).collect();
        Topology {
            trees: TreeCache::new(self.nodes.len()),
            spares: Spares::default(),
            nodes: self.nodes,
            links: self.links,
            csr,
            edge_index,
            name_index,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_node() -> (Topology, NodeId, NodeId, NodeId) {
        let mut b = TopologyBuilder::new();
        let a = b.host("a", GeoPoint::new(49.0, -123.0));
        let r = b.router("r", GeoPoint::new(51.0, -114.0));
        let c = b.host("c", GeoPoint::new(37.0, -122.0));
        b.duplex(
            a,
            r,
            LinkParams::new(Bandwidth::from_mbps(100.0), SimTime::from_millis(5)),
        );
        b.duplex(
            r,
            c,
            LinkParams::new(Bandwidth::from_mbps(50.0), SimTime::from_millis(12)),
        );
        (b.build(), a, r, c)
    }

    #[test]
    fn builder_basics() {
        let (t, a, r, c) = three_node();
        assert_eq!(t.nodes().len(), 3);
        assert_eq!(t.links().len(), 4);
        assert_eq!(t.node_by_name("r"), Some(r));
        assert_eq!(t.node(a).kind, NodeKind::Host);
        assert!(t.link_between(a, r).is_some());
        assert!(t.link_between(a, c).is_none());
        assert_eq!(t.outgoing(r).len(), 2);
    }

    #[test]
    fn csr_mirrors_links() {
        let (t, _a, r, _c) = three_node();
        assert_eq!(t.csr().node_count(), t.nodes().len());
        assert_eq!(t.csr().arc_count(), t.links().len());
        // Forward arcs of r are its outgoing links, in link-id order.
        let out = t.outgoing(r);
        assert_eq!(out.len(), 2);
        assert!(out.windows(2).all(|w| w[0] < w[1]));
        for (target, cost, lid) in t.csr().arcs(r.0) {
            let l = t.link(lid);
            assert_eq!(l.from, r);
            assert_eq!(l.to.0, target);
            assert_eq!(l.cost, cost);
        }
    }

    #[test]
    fn links_on_path_validates_adjacency() {
        let (t, a, r, c) = three_node();
        let links = t.links_on_path(&[a, r, c]).unwrap();
        assert_eq!(links.len(), 2);
        let err = t.links_on_path(&[a, c]).unwrap_err();
        assert_eq!(err, crate::error::NetError::BrokenPath { from: a, to: c });
    }

    #[test]
    fn path_metrics() {
        let (t, a, r, c) = three_node();
        let links = t.links_on_path(&[a, r, c]).unwrap();
        assert_eq!(t.path_delay(&links), SimTime::from_millis(17));
        assert_eq!(t.path_delay(&links[..1]), SimTime::from_millis(5));
        assert_eq!(t.path_delay(&[]), SimTime::ZERO);
        assert!((t.path_capacity(&links).mbps() - 50.0).abs() < 1e-9);
        assert_eq!(t.path_loss(&links), 0.0);
    }

    #[test]
    fn path_loss_combines() {
        let mut b = TopologyBuilder::new();
        let a = b.host("a", GeoPoint::new(0.0, 0.0));
        let c = b.host("c", GeoPoint::new(1.0, 1.0));
        b.simplex(
            a,
            c,
            LinkParams::new(Bandwidth::from_mbps(10.0), SimTime::from_millis(1)).with_loss(0.01),
        );
        let t = b.build();
        let links = t.links_on_path(&[a, c]).unwrap();
        assert!((t.path_loss(&links) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn geo_delay_derivation() {
        let mut b = TopologyBuilder::new();
        let a = b.host("van", crate::geo::places::UBC);
        let c = b.host("edm", crate::geo::places::UALBERTA);
        b.simplex(a, c, LinkParams::geo(Bandwidth::from_mbps(10.0)));
        let t = b.build();
        let d = t.link(LinkId(0)).delay;
        // ~820 km * 1.4 inflation / 200k km/s ~ 5.7 ms
        assert!(
            d > SimTime::from_millis(3) && d < SimTime::from_millis(10),
            "delay {d}"
        );
    }

    #[test]
    fn ip_allocation_unique() {
        let (t, ..) = three_node();
        let ips: std::collections::HashSet<_> = t.nodes().iter().map(|n| n.ip).collect();
        assert_eq!(ips.len(), 3);
        assert_eq!(t.node(NodeId(0)).ip_string(), "10.0.0.1");
    }

    #[test]
    #[should_panic(expected = "duplicate link")]
    fn duplicate_link_panics() {
        let mut b = TopologyBuilder::new();
        let a = b.host("a", GeoPoint::new(0.0, 0.0));
        let c = b.host("c", GeoPoint::new(1.0, 1.0));
        let p = LinkParams::new(Bandwidth::from_mbps(1.0), SimTime::from_millis(1));
        b.simplex(a, c, p);
        b.simplex(a, c, p);
        b.build();
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_panics() {
        let mut b = TopologyBuilder::new();
        let a = b.host("a", GeoPoint::new(0.0, 0.0));
        b.simplex(
            a,
            a,
            LinkParams::new(Bandwidth::from_mbps(1.0), SimTime::from_millis(1)),
        );
    }

    #[test]
    fn asym_duplex() {
        let mut b = TopologyBuilder::new();
        let a = b.host("a", GeoPoint::new(0.0, 0.0));
        let c = b.host("c", GeoPoint::new(1.0, 1.0));
        let (up, down) = b.duplex_asym(
            a,
            c,
            LinkParams::new(Bandwidth::from_mbps(2.5), SimTime::from_millis(1)),
            LinkParams::new(Bandwidth::from_mbps(50.0), SimTime::from_millis(1)),
        );
        let t = b.build();
        assert!((t.link(up).capacity.mbps() - 2.5).abs() < 1e-9);
        assert!((t.link(down).capacity.mbps() - 50.0).abs() < 1e-9);
    }
}
