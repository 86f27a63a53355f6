//! Path diagnosis: traceroute comparison and bottleneck attribution.
//!
//! The paper's §III-A diagnosis: traceroutes from UBC and UAlberta to the
//! same Google frontend both cross `vncv1rtr2.canarie.ca`, then diverge —
//! UBC's traffic is handed to the `pacificwave` link, UAlberta's is not,
//! and the UBC path is the slow one. [`compare_traceroutes`] automates
//! exactly that comparison, and [`find_bandwidth_tivs`] automates the
//! companion question: *which intermediate nodes violate the bandwidth
//! triangle inequality for this source/destination pair?*

use netsim::engine::Core;
use netsim::error::NetResult;
use netsim::flow::FlowClass;
use netsim::topology::NodeId;
use netsim::trace::Traceroute;
use netsim::units::Bandwidth;

/// Result of comparing two traceroutes toward the same destination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathComparison {
    /// Hop names present in both paths (order of the first path).
    pub common_hops: Vec<String>,
    /// The last common hop before the paths diverge (the paper's
    /// `vncv1rtr2.canarie.ca`), if the paths share any prefix-relative hop.
    pub junction: Option<String>,
    /// Hops only in the first path after the junction.
    pub only_in_first: Vec<String>,
    /// Hops only in the second path after the junction.
    pub only_in_second: Vec<String>,
}

impl PathComparison {
    /// Do the two paths take different exits after a shared middlebox?
    /// (The paper's smoking gun.)
    pub fn diverges_after_junction(&self) -> bool {
        self.junction.is_some()
            && (!self.only_in_first.is_empty() || !self.only_in_second.is_empty())
    }
}

/// Compare two traceroutes (typically: two clients toward one provider).
pub fn compare_traceroutes(a: &Traceroute, b: &Traceroute) -> PathComparison {
    let names_a = a.hop_names();
    let names_b = b.hop_names();
    let set_b: std::collections::HashSet<&str> = names_b.iter().copied().collect();
    let set_a: std::collections::HashSet<&str> = names_a.iter().copied().collect();

    let common_hops: Vec<String> = names_a
        .iter()
        .filter(|n| set_b.contains(**n))
        .map(|n| n.to_string())
        .collect();

    // Junction: the last common hop that is not the destination itself.
    let junction = common_hops
        .iter()
        .rev()
        .find(|n| n.as_str() != a.target_name.as_str())
        .cloned();

    let after = |names: &[&str], junction: &Option<String>| -> Vec<String> {
        let start = match junction {
            Some(j) => names
                .iter()
                .position(|n| n == j)
                .map(|i| i + 1)
                .unwrap_or(0),
            None => 0,
        };
        names[start..]
            .iter()
            .filter(|n| !(set_a.contains(**n) && set_b.contains(**n)))
            .map(|n| n.to_string())
            .collect()
    };

    PathComparison {
        only_in_first: after(&names_a, &junction),
        only_in_second: after(&names_b, &junction),
        common_hops,
        junction,
    }
}

/// A bandwidth triangle-inequality violation: going `src → via → dst`
/// sustains a higher rate than `src → dst` directly.
///
/// The paper (§IV) positions its detours as *bandwidth* TIV exploitation,
/// in contrast to prior latency-TIV work: "we discover that due to routing
/// inefficiencies present in the Internet, we can improve the bandwidth of
/// a particular type of network traffic ... when exploiting TIV."
#[derive(Debug, Clone, PartialEq)]
pub struct TivRecord {
    /// Source host.
    pub src: NodeId,
    /// Intermediate node.
    pub via: NodeId,
    /// Destination host.
    pub dst: NodeId,
    /// Attainable single-flow rate of the direct path.
    pub direct: Bandwidth,
    /// min(rate(src→via), rate(via→dst)) — the detour's sustained rate
    /// under pipelining (store-and-forward effective rate is the harmonic
    /// combination, still > direct when this ratio is large).
    pub detour: Bandwidth,
}

impl TivRecord {
    /// Detour-to-direct rate ratio (>1 = violation).
    pub fn ratio(&self) -> f64 {
        self.detour.bytes_per_sec() / self.direct.bytes_per_sec().max(1e-12)
    }

    /// Effective detour rate for a store-and-forward relay, which pays the
    /// legs *serially*: `1 / (1/r1 + 1/r2)`.
    pub fn store_forward_rate(src_via: Bandwidth, via_dst: Bandwidth) -> Bandwidth {
        let r1 = src_via.bytes_per_sec();
        let r2 = via_dst.bytes_per_sec();
        Bandwidth::from_bytes_per_sec(1.0 / (1.0 / r1 + 1.0 / r2))
    }
}

/// Scan candidate intermediate nodes for bandwidth TIVs on the
/// `src → dst` path. `class_via` gives each candidate's traffic class
/// (its own network identity). Returns violations sorted by decreasing
/// ratio; an empty result means the triangle inequality holds and no
/// detour can win.
pub fn find_bandwidth_tivs(
    core: &mut Core,
    src: NodeId,
    src_class: FlowClass,
    dst: NodeId,
    candidates: &[(NodeId, FlowClass)],
) -> NetResult<Vec<TivRecord>> {
    let direct = core.idle_path_rate(src, dst, src_class)?;
    let mut out = Vec::new();
    for &(via, via_class) in candidates {
        let leg1 = core.idle_path_rate(src, via, src_class)?;
        let leg2 = core.idle_path_rate(via, dst, via_class)?;
        // Store-and-forward is the paper's mechanism: use its serial rate
        // so a reported TIV is actionable with the paper's relay.
        let detour = TivRecord::store_forward_rate(leg1, leg2);
        if detour.bytes_per_sec() > direct.bytes_per_sec() {
            out.push(TivRecord {
                src,
                via,
                dst,
                direct,
                detour,
            });
        }
    }
    out.sort_by(|a, b| b.ratio().partial_cmp(&a.ratio()).expect("finite ratios"));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::geo::GeoPoint;
    use netsim::prelude::*;
    use netsim::trace::Traceroute;

    /// A miniature of the paper's Figure 5/6 situation: two sources reach
    /// the same destination through a shared CANARIE router; one is handed
    /// to pacificwave, the other goes direct.
    fn build() -> (Sim, NodeId, NodeId, NodeId) {
        let mut b = TopologyBuilder::new();
        let ubc = b.host("ubc.planetlab", GeoPoint::new(49.26, -123.25));
        let ualberta = b.host("cluster.ualberta", GeoPoint::new(53.52, -113.53));
        let canarie = b.router("vncv1rtr2.canarie.ca", GeoPoint::new(49.28, -123.12));
        let pacificwave = b.exchange("pacificwave.net", GeoPoint::new(47.61, -122.33));
        let google = b.datacenter("sea15s01-in-f138.1e100.net", GeoPoint::new(37.39, -122.08));
        let p = LinkParams::new(Bandwidth::from_mbps(100.0), SimTime::from_millis(4));
        b.duplex(ubc, canarie, p);
        b.duplex(ualberta, canarie, p);
        b.duplex(canarie, pacificwave, p);
        b.duplex(pacificwave, google, p);
        b.duplex(
            canarie,
            google,
            LinkParams::new(Bandwidth::from_mbps(100.0), SimTime::from_millis(9)),
        );
        let mut sim = Sim::new(b.build(), 5);
        // Pin UBC's route through pacificwave (the PlanetLab idiosyncrasy).
        sim.add_route_override(netsim::routing::RouteOverride::new(
            ubc,
            google,
            vec![ubc, canarie, pacificwave, google],
        ));
        (sim, ubc, ualberta, google)
    }

    #[test]
    fn reproduces_the_papers_divergence() {
        let (mut sim, ubc, ualberta, google) = build();
        let tr_ubc = Traceroute::run(sim.core(), ubc, google).unwrap();
        let tr_ua = Traceroute::run(sim.core(), ualberta, google).unwrap();
        let cmp = compare_traceroutes(&tr_ubc, &tr_ua);
        assert!(cmp
            .common_hops
            .contains(&"vncv1rtr2.canarie.ca".to_string()));
        assert_eq!(cmp.junction.as_deref(), Some("vncv1rtr2.canarie.ca"));
        assert_eq!(cmp.only_in_first, vec!["pacificwave.net".to_string()]);
        assert!(cmp.only_in_second.is_empty());
        assert!(cmp.diverges_after_junction());
    }

    #[test]
    fn identical_paths_do_not_diverge() {
        let (mut sim, _, ualberta, google) = build();
        let t1 = Traceroute::run(sim.core(), ualberta, google).unwrap();
        let t2 = Traceroute::run(sim.core(), ualberta, google).unwrap();
        let cmp = compare_traceroutes(&t1, &t2);
        assert!(!cmp.diverges_after_junction());
        assert!(cmp.only_in_first.is_empty() && cmp.only_in_second.is_empty());
    }

    #[test]
    fn bandwidth_tiv_detected_where_policer_bites() {
        // Direct path policed to 9 Mbps; detour legs at 40+ Mbps: a clear
        // bandwidth TIV, like UBC→UAlberta→Google in the paper.
        let mut b = TopologyBuilder::new();
        let src = b.host("src", GeoPoint::new(49.0, -123.0));
        let dtn = b.host("dtn", GeoPoint::new(53.5, -113.5));
        let bad_dtn = b.host("bad-dtn", GeoPoint::new(34.0, -118.0));
        let dst = b.host("dst", GeoPoint::new(37.4, -122.1));
        let (direct_link, _) = b.duplex(
            src,
            dst,
            LinkParams::new(Bandwidth::from_mbps(100.0), SimTime::from_millis(10)),
        );
        b.duplex(
            src,
            dtn,
            LinkParams::new(Bandwidth::from_mbps(40.0), SimTime::from_millis(8)),
        );
        b.duplex(
            dtn,
            dst,
            LinkParams::new(Bandwidth::from_mbps(48.0), SimTime::from_millis(12)),
        );
        b.duplex(
            src,
            bad_dtn,
            LinkParams::new(Bandwidth::from_mbps(2.0), SimTime::from_millis(9)),
        );
        b.duplex(
            bad_dtn,
            dst,
            LinkParams::new(Bandwidth::from_mbps(60.0), SimTime::from_millis(4)),
        );
        let mut sim = Sim::new(b.build(), 1);
        sim.add_policer(netsim::middlebox::Policer::per_flow(
            "policer",
            direct_link,
            FlowClass::PlanetLab,
            Bandwidth::from_mbps(9.0),
        ));
        let candidates = [(dtn, FlowClass::Research), (bad_dtn, FlowClass::Research)];
        let tivs =
            find_bandwidth_tivs(sim.core(), src, FlowClass::PlanetLab, dst, &candidates).unwrap();
        // Only the good DTN is a violation: 1/(1/40+1/48) ≈ 21.8 > 9, while
        // the bad DTN's serial rate ≈ 1.9 < 9.
        assert_eq!(tivs.len(), 1, "{tivs:?}");
        assert_eq!(tivs[0].via, dtn);
        assert!(tivs[0].ratio() > 2.0, "ratio {}", tivs[0].ratio());
        // For a research-class source the policer does not apply: no TIV.
        let none =
            find_bandwidth_tivs(sim.core(), src, FlowClass::Research, dst, &candidates).unwrap();
        assert!(none.is_empty(), "{none:?}");
    }

    #[test]
    fn store_forward_rate_is_harmonic() {
        let r =
            TivRecord::store_forward_rate(Bandwidth::from_mbps(40.0), Bandwidth::from_mbps(40.0));
        assert!((r.mbps() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn disjoint_paths_have_no_junction() {
        let mut b = TopologyBuilder::new();
        let a = b.host("a", GeoPoint::new(0.0, 0.0));
        let c = b.host("c", GeoPoint::new(2.0, 2.0));
        let m1 = b.router("m1", GeoPoint::new(1.0, 0.0));
        let d = b.host("d", GeoPoint::new(3.0, 3.0));
        let p = LinkParams::new(Bandwidth::from_mbps(10.0), SimTime::from_millis(2));
        b.duplex(a, m1, p);
        b.duplex(m1, d, p);
        let m2 = b.router("m2", GeoPoint::new(2.5, 2.5));
        b.duplex(c, m2, p);
        b.duplex(m2, d, p);
        let mut sim = Sim::new(b.build(), 1);
        let t1 = Traceroute::run(sim.core(), a, d).unwrap();
        let t2 = Traceroute::run(sim.core(), c, d).unwrap();
        let cmp = compare_traceroutes(&t1, &t2);
        // Only the destination is shared; junction (non-destination) absent.
        assert_eq!(cmp.junction, None);
        assert_eq!(cmp.common_hops, vec!["d".to_string()]);
    }
}
