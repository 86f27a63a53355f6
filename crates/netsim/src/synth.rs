//! Synthetic WAN generation, for stress tests and scaling benchmarks.
//!
//! The paper's scenario has ~30 nodes; the simulator itself handles far
//! more. [`SynthWan`] builds a classic transit–stub hierarchy: a ring of
//! transit routers with chords, stub routers multihomed to the transit
//! core, and hosts with randomized access rates. [`SynthGlobe`] scales the
//! idea out to a CloudCast-style multi-region, multi-cloud globe: regional
//! backbones, per-cloud private datacenter backbones, and inter-region /
//! inter-cloud peering links whose cost and quality come from seeded
//! peering-quality matrices. Both are seeded and deterministic, so property
//! tests over "any reasonable WAN" are reproducible, and the globe's knobs
//! reach 100k nodes / 1M directed links — the route oracle's stress
//! workload.

use crate::geo::GeoPoint;
use crate::time::SimTime;
use crate::topology::{LinkParams, NodeId, Topology, TopologyBuilder};
use crate::units::Bandwidth;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Parameters of a generated transit–stub WAN.
#[derive(Debug, Clone, Copy)]
pub struct SynthWan {
    /// Transit (core) routers, arranged in a ring with random chords.
    pub transit: usize,
    /// Stub routers, each homed to 1–2 transit routers.
    pub stubs: usize,
    /// Hosts, each attached to a random stub.
    pub hosts: usize,
    /// Core link capacity.
    pub core_mbps: f64,
    /// Host access capacity range (min, max).
    pub access_mbps: (f64, f64),
    /// RNG seed.
    pub seed: u64,
}

impl Default for SynthWan {
    fn default() -> Self {
        SynthWan {
            transit: 6,
            stubs: 12,
            hosts: 24,
            core_mbps: 1000.0,
            access_mbps: (5.0, 100.0),
            seed: 1,
        }
    }
}

/// A generated WAN: the topology plus its host list.
#[derive(Debug, Clone)]
pub struct SynthWorld {
    /// The built topology.
    pub topo: Topology,
    /// All end hosts (sources/sinks for traffic).
    pub hosts: Vec<NodeId>,
}

impl SynthWan {
    /// Generate the WAN.
    pub fn build(&self) -> SynthWorld {
        assert!(self.transit >= 2, "need at least two transit routers");
        assert!(self.stubs >= 1 && self.hosts >= 1);
        assert!(self.access_mbps.0 > 0.0 && self.access_mbps.0 <= self.access_mbps.1);
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mut b = TopologyBuilder::new();
        let geo = |rng: &mut SmallRng| {
            GeoPoint::new(rng.gen_range(25.0..55.0), rng.gen_range(-125.0..-65.0))
        };

        // Transit ring + chords.
        let transit: Vec<NodeId> = (0..self.transit)
            .map(|i| {
                let loc = geo(&mut rng);
                b.router(&format!("transit{i}"), loc)
            })
            .collect();
        let core = LinkParams::new(
            Bandwidth::from_mbps(self.core_mbps),
            SimTime::from_millis(5),
        );
        for i in 0..self.transit {
            let next = transit[(i + 1) % self.transit];
            // A two-router "ring" would lay the same duplex pair twice.
            if !b.has_link(transit[i], next) {
                b.duplex(transit[i], next, core);
            }
        }
        // Chords: ~one per two transit routers, skipping ring neighbours.
        for _ in 0..(self.transit / 2) {
            let a = rng.gen_range(0..self.transit);
            let c = rng.gen_range(0..self.transit);
            let ring_adjacent =
                c == a || c == (a + 1) % self.transit || (c + 1) % self.transit == a;
            if !ring_adjacent && !b.has_link(transit[a], transit[c]) {
                b.duplex(transit[a], transit[c], core);
            }
        }

        // Stubs, single- or dual-homed.
        let stub_link = LinkParams::new(
            Bandwidth::from_mbps(self.core_mbps / 2.0),
            SimTime::from_millis(3),
        );
        let stubs: Vec<NodeId> = (0..self.stubs)
            .map(|i| {
                let loc = geo(&mut rng);
                let s = b.router(&format!("stub{i}"), loc);
                let home = transit[rng.gen_range(0..self.transit)];
                b.duplex(s, home, stub_link);
                if rng.gen_bool(0.4) {
                    let second = transit[rng.gen_range(0..self.transit)];
                    if second != home && !b.has_link(s, second) {
                        b.duplex(s, second, stub_link);
                    }
                }
                s
            })
            .collect();

        // Hosts.
        let hosts: Vec<NodeId> = (0..self.hosts)
            .map(|i| {
                let loc = geo(&mut rng);
                let h = b.host(&format!("host{i}"), loc);
                let stub = stubs[rng.gen_range(0..self.stubs)];
                let mbps = rng.gen_range(self.access_mbps.0..=self.access_mbps.1);
                b.duplex(
                    h,
                    stub,
                    LinkParams::new(Bandwidth::from_mbps(mbps), SimTime::from_millis(1)),
                );
                h
            })
            .collect();

        SynthWorld {
            topo: b.build(),
            hosts,
        }
    }
}

/// Parameters of a generated multi-region, multi-cloud globe.
///
/// Every region has a router backbone (ring + chords), client hosts
/// multihomed to `host_degree` distinct regional routers, and one
/// datacenter frontend per cloud. Regions are joined by a peering ring plus
/// `peer_extra` random peerings per region; each cloud additionally runs a
/// private backbone ring over its own frontends. Link costs for peerings
/// come from two seeded **quality matrices** (1 = good, 3 = poor), the
/// CloudCast-style inter-cloud/inter-region connectivity characterisation.
#[derive(Debug, Clone, Copy)]
pub struct SynthGlobe {
    /// Geographic regions (≥ 2), spread around the globe.
    pub regions: usize,
    /// Cloud providers (≥ 1); each gets one datacenter frontend per region.
    pub clouds: usize,
    /// Backbone routers per region (≥ 2), in a ring with chords.
    pub routers_per_region: usize,
    /// Client hosts per region.
    pub hosts_per_region: usize,
    /// Distinct regional routers each host is attached to
    /// (1 ≤ host_degree ≤ routers_per_region).
    pub host_degree: usize,
    /// Extra inter-region peerings per region beyond the connectivity ring.
    pub peer_extra: usize,
    /// Backbone link capacity.
    pub backbone_gbps: f64,
    /// Host access capacity range (min, max) in Mbps.
    pub access_mbps: (f64, f64),
    /// RNG seed.
    pub seed: u64,
}

impl Default for SynthGlobe {
    fn default() -> Self {
        SynthGlobe {
            regions: 4,
            clouds: 3,
            routers_per_region: 4,
            hosts_per_region: 12,
            host_degree: 2,
            peer_extra: 2,
            backbone_gbps: 100.0,
            access_mbps: (10.0, 500.0),
            seed: 1,
        }
    }
}

impl SynthGlobe {
    /// The stress configuration: ~101k nodes, ~1.0M directed links.
    pub fn stress(seed: u64) -> Self {
        SynthGlobe {
            regions: 25,
            clouds: 4,
            routers_per_region: 40,
            hosts_per_region: 4000,
            host_degree: 5,
            peer_extra: 3,
            seed,
            ..SynthGlobe::default()
        }
    }

    /// Scale `hosts_per_region` so the globe lands near `nodes` total nodes
    /// (other knobs untouched).
    pub fn with_target_nodes(mut self, nodes: usize) -> Self {
        let fixed = self.routers_per_region + self.clouds;
        let per_region = (nodes / self.regions).saturating_sub(fixed);
        self.hosts_per_region = per_region.max(1);
        self
    }
}

/// A generated globe: the topology plus its population indices.
#[derive(Debug, Clone)]
pub struct GlobeWorld {
    /// The built topology.
    pub topo: Topology,
    /// All client hosts, region-major order.
    pub hosts: Vec<NodeId>,
    /// `frontends[cloud][region]` is that cloud's datacenter in the region.
    pub frontends: Vec<Vec<NodeId>>,
    /// Symmetric inter-region peering quality, 1 (good) ..= 3 (poor).
    pub region_quality: Vec<Vec<u8>>,
    /// Symmetric inter-cloud peering quality, 1 (good) ..= 3 (poor).
    pub cloud_quality: Vec<Vec<u8>>,
}

impl SynthGlobe {
    /// Generate the globe.
    // Index loops are deliberate: every `rng` draw is ordered by (region,
    // cloud, host) index, and that order is the generated world's
    // determinism contract — iterator rewrites that reorder or skip draws
    // would shift every seeded topology.
    #[allow(clippy::needless_range_loop)]
    pub fn build(&self) -> GlobeWorld {
        assert!(self.regions >= 2, "need at least two regions");
        assert!(self.clouds >= 1, "need at least one cloud");
        assert!(
            self.routers_per_region >= 2,
            "need at least two routers per region"
        );
        assert!(
            (1..=self.routers_per_region).contains(&self.host_degree),
            "host_degree must be in 1..=routers_per_region"
        );
        assert!(self.access_mbps.0 > 0.0 && self.access_mbps.0 <= self.access_mbps.1);
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mut b = TopologyBuilder::new();
        let backbone = Bandwidth::from_gbps(self.backbone_gbps);

        // Region centres around the globe; nodes jitter around them. (A
        // generator must never call `TopologyBuilder::has_link` — it is
        // O(links) and this loop lays a million of them — so every link
        // that could repeat is deduplicated through a local set instead.)
        let centres: Vec<GeoPoint> = (0..self.regions)
            .map(|r| {
                let lon = -180.0 + 360.0 * (r as f64 + 0.5) / self.regions as f64;
                GeoPoint::new(rng.gen_range(-45.0..60.0), lon)
            })
            .collect();
        let jitter = |rng: &mut SmallRng, c: GeoPoint| {
            let mut lon = c.lon + rng.gen_range(-6.0f64..6.0);
            if lon > 180.0 {
                lon -= 360.0;
            } else if lon < -180.0 {
                lon += 360.0;
            }
            GeoPoint::new(
                (c.lat + rng.gen_range(-6.0f64..6.0)).clamp(-80.0, 80.0),
                lon,
            )
        };

        // Peering-quality matrices, symmetric, 1 (good) ..= 3 (poor).
        let symmetric = |n: usize, rng: &mut SmallRng| -> Vec<Vec<u8>> {
            let mut q = vec![vec![1u8; n]; n];
            for i in 0..n {
                for j in (i + 1)..n {
                    let v = rng.gen_range(1..=3u8);
                    q[i][j] = v;
                    q[j][i] = v;
                }
            }
            q
        };
        let region_quality = symmetric(self.regions, &mut rng);
        let cloud_quality = symmetric(self.clouds, &mut rng);

        let mut seen: HashSet<(NodeId, NodeId)> = HashSet::new();
        let dedup_duplex = |b: &mut TopologyBuilder,
                            seen: &mut HashSet<(NodeId, NodeId)>,
                            x: NodeId,
                            y: NodeId,
                            p: LinkParams| {
            if x != y && seen.insert((x.min(y), x.max(y))) {
                b.duplex(x, y, p);
            }
        };

        // Regional router backbones: ring + one chord per router.
        let mut routers: Vec<Vec<NodeId>> = Vec::with_capacity(self.regions);
        for r in 0..self.regions {
            let rs: Vec<NodeId> = (0..self.routers_per_region)
                .map(|i| {
                    let loc = jitter(&mut rng, centres[r]);
                    b.router(&format!("r{r}-core{i}"), loc)
                })
                .collect();
            let intra = LinkParams::geo(backbone).with_cost(5);
            for i in 0..rs.len() {
                dedup_duplex(&mut b, &mut seen, rs[i], rs[(i + 1) % rs.len()], intra);
            }
            for i in 0..rs.len() {
                let j = rng.gen_range(0..rs.len());
                dedup_duplex(&mut b, &mut seen, rs[i], rs[j], intra);
            }
            routers.push(rs);
        }

        // Cloud datacenter frontends: two uplinks into the regional core.
        let mut frontends: Vec<Vec<NodeId>> = vec![Vec::with_capacity(self.regions); self.clouds];
        for r in 0..self.regions {
            for c in 0..self.clouds {
                let loc = jitter(&mut rng, centres[r]);
                let dc = b.datacenter(&format!("r{r}-cloud{c}"), loc);
                let uplink = LinkParams::geo(backbone).with_cost(6);
                let first = rng.gen_range(0..self.routers_per_region);
                let mut second = rng.gen_range(0..self.routers_per_region);
                if second == first {
                    second = (first + 1) % self.routers_per_region;
                }
                b.duplex(dc, routers[r][first], uplink);
                b.duplex(dc, routers[r][second], uplink);
                frontends[c].push(dc);
            }
        }

        // Hosts, multihomed to `host_degree` distinct regional routers via
        // a partial Fisher–Yates over a reusable index buffer.
        let mut hosts = Vec::with_capacity(self.regions * self.hosts_per_region);
        let mut idx: Vec<usize> = (0..self.routers_per_region).collect();
        for r in 0..self.regions {
            for h in 0..self.hosts_per_region {
                let loc = jitter(&mut rng, centres[r]);
                let host = b.host(&format!("r{r}-host{h}"), loc);
                let mbps = rng.gen_range(self.access_mbps.0..=self.access_mbps.1);
                let access = LinkParams::new(Bandwidth::from_mbps(mbps), SimTime::from_millis(1));
                for j in 0..self.host_degree {
                    let k = rng.gen_range(j..idx.len());
                    idx.swap(j, k);
                    b.duplex(host, routers[r][idx[j]], access);
                }
                hosts.push(host);
            }
        }

        // Inter-region peering: a connectivity ring plus `peer_extra`
        // random peerings per region, costed by the quality matrix.
        let peer = |q: u8| LinkParams::geo(backbone).with_cost(10 + 10 * q as u32);
        for r in 0..self.regions {
            let n = (r + 1) % self.regions;
            dedup_duplex(
                &mut b,
                &mut seen,
                routers[r][0],
                routers[n][0],
                peer(region_quality[r][n]),
            );
            for _ in 0..self.peer_extra {
                let o = rng.gen_range(0..self.regions);
                if o == r {
                    continue;
                }
                let a = routers[r][rng.gen_range(0..self.routers_per_region)];
                let z = routers[o][rng.gen_range(0..self.routers_per_region)];
                dedup_duplex(&mut b, &mut seen, a, z, peer(region_quality[r][o]));
            }
        }

        // Per-cloud private backbones (a ring over the cloud's frontends:
        // cheap, bypasses the public inter-region peerings), and same-region
        // inter-cloud peering links costed by the cloud quality matrix.
        let private = LinkParams::geo(backbone).with_cost(4);
        for fs in &frontends {
            for r in 0..self.regions {
                dedup_duplex(
                    &mut b,
                    &mut seen,
                    fs[r],
                    fs[(r + 1) % self.regions],
                    private,
                );
            }
        }
        for r in 0..self.regions {
            for c1 in 0..self.clouds {
                for c2 in (c1 + 1)..self.clouds {
                    if rng.gen_bool(0.5) {
                        dedup_duplex(
                            &mut b,
                            &mut seen,
                            frontends[c1][r],
                            frontends[c2][r],
                            LinkParams::geo(backbone).with_cost(8 * cloud_quality[c1][c2] as u32),
                        );
                    }
                }
            }
        }

        GlobeWorld {
            topo: b.build(),
            hosts,
            frontends,
            region_quality,
            cloud_quality,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Sim, TransferRequest};
    use crate::routing::RoutingTable;
    use crate::units::MB;

    #[test]
    fn generated_wan_is_fully_connected() {
        let world = SynthWan::default().build();
        let (mut rt, mut path) = (RoutingTable::new(), Vec::new());
        for &a in &world.hosts {
            for &b in &world.hosts {
                if a != b {
                    rt.path_into(&world.topo, a, b, &mut path)
                        .unwrap_or_else(|e| {
                            panic!("no route {a}->{b}: {e}");
                        });
                }
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let w1 = SynthWan::default().build();
        let w2 = SynthWan::default().build();
        assert_eq!(w1.topo.nodes().len(), w2.topo.nodes().len());
        assert_eq!(w1.topo.links().len(), w2.topo.links().len());
        let w3 = SynthWan {
            seed: 99,
            ..SynthWan::default()
        }
        .build();
        // Different seed: (almost surely) different link structure.
        let caps = |w: &SynthWorld| -> Vec<u64> {
            w.topo
                .links()
                .iter()
                .map(|l| l.capacity.bytes_per_sec() as u64)
                .collect()
        };
        assert_ne!(caps(&w1), caps(&w3));
    }

    #[test]
    fn scales_to_hundreds_of_nodes() {
        let world = SynthWan {
            transit: 16,
            stubs: 64,
            hosts: 200,
            ..SynthWan::default()
        }
        .build();
        assert!(world.topo.nodes().len() >= 280);
        // A transfer across the big WAN completes.
        let mut sim = Sim::new(world.topo.clone(), 3);
        let report = sim
            .run_transfer(TransferRequest::new(
                world.hosts[0],
                world.hosts[199],
                10 * MB,
            ))
            .unwrap();
        assert!(report.elapsed.as_secs_f64() > 0.0);
    }

    #[test]
    #[should_panic(expected = "at least two transit")]
    fn tiny_core_rejected() {
        SynthWan {
            transit: 1,
            ..SynthWan::default()
        }
        .build();
    }

    #[test]
    fn globe_hosts_reach_every_frontend() {
        let world = SynthGlobe::default().build();
        let (mut rt, mut path) = (RoutingTable::new(), Vec::new());
        assert_eq!(world.hosts.len(), 4 * 12);
        assert_eq!(world.frontends.len(), 3);
        for fs in &world.frontends {
            assert_eq!(fs.len(), 4);
        }
        for &h in world.hosts.iter().step_by(5) {
            for fs in &world.frontends {
                for &dc in fs {
                    rt.path_into(&world.topo, h, dc, &mut path)
                        .unwrap_or_else(|e| {
                            panic!("no route {h}->{dc}: {e}");
                        });
                    rt.path_into(&world.topo, dc, h, &mut path)
                        .unwrap_or_else(|e| {
                            panic!("no route {dc}->{h}: {e}");
                        });
                }
            }
        }
    }

    #[test]
    // Symmetry needs both q[i][j] and q[j][i]; index loops read clearer here.
    #[allow(clippy::needless_range_loop)]
    fn globe_quality_matrices_are_symmetric_and_bounded() {
        let world = SynthGlobe::default().build();
        for q in [&world.region_quality, &world.cloud_quality] {
            for i in 0..q.len() {
                for j in 0..q.len() {
                    assert_eq!(q[i][j], q[j][i]);
                    assert!((1..=3).contains(&q[i][j]) || i == j);
                }
            }
        }
    }

    #[test]
    fn globe_deterministic_per_seed() {
        let costs =
            |w: &GlobeWorld| -> Vec<u32> { w.topo.links().iter().map(|l| l.cost).collect() };
        let w1 = SynthGlobe::default().build();
        let w2 = SynthGlobe::default().build();
        assert_eq!(costs(&w1), costs(&w2));
        assert_eq!(w1.region_quality, w2.region_quality);
        let w3 = SynthGlobe {
            seed: 99,
            ..SynthGlobe::default()
        }
        .build();
        assert_ne!(costs(&w1), costs(&w3));
    }

    #[test]
    fn globe_scales_and_transfers() {
        let world = SynthGlobe {
            regions: 6,
            clouds: 3,
            routers_per_region: 8,
            hosts_per_region: 100,
            host_degree: 3,
            ..SynthGlobe::default()
        }
        .build();
        assert_eq!(world.topo.nodes().len(), 6 * (8 + 3 + 100));
        // host_degree 3 dominates: at least 2*3 directed links per host.
        assert!(world.topo.links().len() >= 6 * 100 * 6);
        let mut sim = Sim::new(world.topo.clone(), 3);
        let report = sim
            .run_transfer(TransferRequest::new(
                world.hosts[0],
                world.frontends[2][5],
                10 * MB,
            ))
            .unwrap();
        assert!(report.elapsed.as_secs_f64() > 0.0);
    }

    #[test]
    fn globe_target_nodes_lands_close() {
        let g = SynthGlobe::default().with_target_nodes(2000);
        let world = g.build();
        let n = world.topo.nodes().len();
        assert!((1800..=2200).contains(&n), "{n}");
    }

    /// The stress knobs must reach the oracle's acceptance scale. (Knob
    /// arithmetic only — actually building ~101k nodes / ~1M links is the
    /// bench's and the ignored alloc test's job.)
    #[test]
    fn globe_stress_knobs_reach_100k_nodes_1m_links() {
        let g = SynthGlobe::stress(7);
        let nodes = g.regions * (g.routers_per_region + g.clouds + g.hosts_per_region);
        let host_links = g.regions * g.hosts_per_region * g.host_degree * 2;
        assert!(nodes >= 100_000, "{nodes}");
        assert!(host_links >= 1_000_000, "{host_links}");
    }
}
