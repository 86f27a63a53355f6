//! The calibrated North-America scenario.
//!
//! Every capacity below is reverse-engineered from the paper's measured
//! transfer times (100 MB = 800 Mbit; rate = 800 / seconds Mbps):
//!
//! | Paper measurement (100 MB)            | Implied rate | Mechanism here |
//! |---------------------------------------|--------------|----------------|
//! | UBC→Drive direct 86.9 s               | ~9.2 Mbps    | per-flow policer on PlanetLab traffic at the pacificwave→Google hand-off |
//! | UBC→UAlberta rsync ~19 s              | ~42 Mbps     | UBC PlanetLab slice egress shaping (43 Mbps access link) |
//! | UAlberta→Drive ~17 s                  | ~47 Mbps     | CANARIE→Google direct peering (47 Mbps per the era's measurements) |
//! | UBC→UMich ~119 s                      | ~6.7 Mbps    | per-flow policed GREN transit between the testbeds |
//! | UMich→Drive ~13 s                     | ~60 Mbps     | Internet2→Google peering |
//! | Purdue→Drive direct 748 s             | ~1.1 Mbps    | 8 Mbps commodity Google peering shared with heavy MMPP background |
//! | Purdue→{UAlberta,UMich} ~175 s        | ~4.6 Mbps    | Purdue PlanetLab slice egress shaping |
//! | Purdue→Dropbox direct 177.9 s (σ36)   | ~4.5 Mbps    | egress shaping + moderate background on the east Dropbox ingress |
//! | Purdue→OneDrive direct 387.7 s (σ118) | ~2.1 Mbps    | 6 Mbps east OneDrive ingress shared with heavy background |
//! | UCLA→anything slow                    | ~2.3 Mbps    | UCLA PlanetLab node last-mile shaping (the paper's §III-C diagnosis) |
//! | UBC→Dropbox direct fast               | ~40 Mbps     | clean west commodity ingress at Ashburn |
//! | UBC→OneDrive direct fast              | ~32 Mbps     | clean pacificwave ingress at Seattle |
//!
//! The UBC→Google pin through pacificwave and the UBC↔UMich GREN transit
//! are [`netsim::routing::RouteOverride`]s: the paper could not explain
//! them from metrics either — they were BGP policy visible only through
//! traceroute (its Figures 5 and 6), which [`crate::experiments`]
//! regenerates.

use cloudstore::{Provider, ProviderKind};
use detour_core::{ClientSpec, Hop, SimFactory};
use netsim::background::{BackgroundProfile, BackgroundTraffic};
use netsim::engine::Sim;
use netsim::flow::FlowClass;
use netsim::geo::places;
use netsim::middlebox::Policer;
use netsim::prelude::*;
use netsim::routing::RouteOverride;
use netsim::units::MB;
use std::sync::Arc;

/// Calibration constants (Mbps unless noted) — see the module docs.
pub mod calibration {
    /// UBC PlanetLab slice egress (drives UBC→UAlberta ≈ 19 s / 100 MB).
    pub const UBC_ACCESS_MBPS: f64 = 43.0;
    /// Purdue PlanetLab slice egress (drives Purdue→DTN ≈ 175 s / 100 MB).
    pub const PURDUE_ACCESS_MBPS: f64 = 4.6;
    /// UCLA PlanetLab last-mile (the paper's §III-C bottleneck).
    pub const UCLA_ACCESS_MBPS: f64 = 2.3;
    /// UMich PlanetLab slice egress.
    pub const UMICH_ACCESS_MBPS: f64 = 65.0;
    /// Per-flow policing of PlanetLab traffic at the pacificwave→Google
    /// hand-off (drives UBC→Drive direct ≈ 87 s / 100 MB).
    pub const PACIFICWAVE_POLICE_MBPS: f64 = 9.3;
    /// CANARIE→Google direct peering (UAlberta→Drive ≈ 17 s / 100 MB).
    pub const CANARIE_GOOGLE_MBPS: f64 = 47.0;
    /// Internet2→Google peering (UMich→Drive ≈ 13 s / 100 MB).
    pub const I2_GOOGLE_MBPS: f64 = 60.0;
    /// Per-flow policing of PlanetLab traffic on the inter-testbed GREN
    /// transit (UBC→UMich ≈ 119 s / 100 MB).
    pub const GREN_POLICE_MBPS: f64 = 6.7;
    /// Commodity Google peering east: shared with heavy background
    /// (Purdue→Drive direct ≈ 1.1 Mbps effective).
    pub const COMMODITY_GOOGLE_MBPS: f64 = 8.0;
    /// West commodity ingress at Dropbox Ashburn (UBC→Dropbox fast).
    pub const DROPBOX_WEST_MBPS: f64 = 40.0;
    /// East commodity ingress at Dropbox (Purdue→Dropbox, with background).
    pub const DROPBOX_EAST_MBPS: f64 = 12.0;
    /// CANARIE east path to Ashburn (UAlberta→Dropbox ≈ 60 s / 100 MB).
    pub const CANARIE_DROPBOX_MBPS: f64 = 13.0;
    /// Internet2 path to Ashburn (UMich→Dropbox ≈ 56 s / 100 MB).
    pub const I2_DROPBOX_MBPS: f64 = 14.3;
    /// Pacificwave ingress at OneDrive Seattle (clean west path).
    pub const ONEDRIVE_WEST_MBPS: f64 = 32.0;
    /// East commodity ingress at OneDrive (Purdue→OneDrive, heavy bg).
    pub const ONEDRIVE_EAST_MBPS: f64 = 6.0;
    /// Fat core links (never the bottleneck).
    pub const CORE_MBPS: f64 = 1000.0;
}

use calibration::*;

/// The paper's three measuring clients.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Client {
    /// University of British Columbia PlanetLab node (west coast).
    Ubc,
    /// Purdue University PlanetLab node (eastern half).
    Purdue,
    /// UCLA PlanetLab node (west coast, last-mile-limited).
    Ucla,
}

impl Client {
    /// Paper label.
    pub fn name(&self) -> &'static str {
        match self {
            Client::Ubc => "UBC",
            Client::Purdue => "Purdue",
            Client::Ucla => "UCLA",
        }
    }

    /// All clients in the paper's section order.
    pub fn all() -> [Client; 3] {
        [Client::Ubc, Client::Purdue, Client::Ucla]
    }
}

/// Knobs for ablations.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioOptions {
    /// Scale factor on all background-traffic intensities (A3 sweeps this).
    pub congestion_scale: f64,
    /// Disable the pacificwave per-flow policer (counterfactual ablation:
    /// "what if the hand-off were clean?").
    pub disable_pacificwave_policer: bool,
    /// Per-run uniform capacity jitter fraction (see
    /// [`netsim::engine::Sim::set_capacity_jitter`]). The paper's error
    /// bars never vanish even on uncontended routes; 4% reproduces their
    /// scale on the clean UBC/UCLA paths.
    pub capacity_jitter: f64,
    /// Counterfactual from the paper's "medium term" discussion: give
    /// Google Drive a second, cleanly-peered POP in Seattle. West-coast
    /// clients are then steered there and the pacificwave pathology becomes
    /// irrelevant (ablation A4).
    pub google_seattle_pop: bool,
}

impl Default for ScenarioOptions {
    fn default() -> Self {
        ScenarioOptions {
            congestion_scale: 1.0,
            disable_pacificwave_policer: false,
            capacity_jitter: 0.04,
            google_seattle_pop: false,
        }
    }
}

/// Node handles for the built scenario.
#[derive(Debug, Clone, Copy)]
pub struct Nodes {
    /// UBC PlanetLab client.
    pub ubc: NodeId,
    /// UAlberta cluster DTN.
    pub ualberta: NodeId,
    /// UMich PlanetLab DTN.
    pub umich: NodeId,
    /// Purdue PlanetLab client.
    pub purdue: NodeId,
    /// UCLA PlanetLab client.
    pub ucla: NodeId,
    /// Google Drive frontend (Mountain View).
    pub google_pop: NodeId,
    /// Dropbox frontend (Ashburn).
    pub dropbox_pop: NodeId,
    /// OneDrive frontend (Seattle).
    pub onedrive_pop: NodeId,
    /// `vncv1rtr2.canarie.ca` — the shared middlebox of Figures 5/6.
    pub vncv: NodeId,
    /// The pacificwave exchange.
    pub pacificwave: NodeId,
    /// The counterfactual Seattle Google POP (ablation A4), when enabled.
    pub google_pop_seattle: Option<NodeId>,
}

/// The assembled scenario: build once, then mint one [`Sim`] per run. Every
/// sim shares the one topology, and with it the shortest-path trees the
/// first sims built, and the same route overrides and policers.
pub struct NorthAmerica {
    topo: Arc<Topology>,
    nodes: Nodes,
    overrides: Vec<Arc<RouteOverride>>,
    policers: Vec<Arc<Policer>>,
    backgrounds: Vec<BackgroundProfile>,
    options: ScenarioOptions,
}

impl NorthAmerica {
    /// Build with default options.
    pub fn new() -> Self {
        Self::with_options(ScenarioOptions::default())
    }

    /// Build with ablation knobs.
    pub fn with_options(options: ScenarioOptions) -> Self {
        let mut b = TopologyBuilder::new();

        // --- hosts -------------------------------------------------------
        let ubc = b.host("planetlab.ubc.ca", places::UBC);
        let ualberta = b.host("cluster.cs.ualberta.ca", places::UALBERTA);
        let umich = b.host("planetlab.umich.edu", places::UMICH);
        let purdue = b.host("planetlab.purdue.edu", places::PURDUE);
        let ucla = b.host("planetlab.ucla.edu", places::UCLA);

        // --- campus infrastructure (names follow the paper's traceroutes)
        let ubc_net = b.router("a0-a1.net.ubc.ca", places::UBC);
        let ubc_border = b.router("angusborder-a0.net.ubc.ca", places::UBC);
        let bcnet = b.router("345-IX-cr1-UBCab.vncv1.BC.net", places::VANCOUVER_IX);
        let ua_fw = b.router("ww-fw.cs.ualberta.ca", places::UALBERTA);
        let ua_priv = b.router("ualberta-private-hop", places::UALBERTA);
        b.set_anonymous(ua_priv);
        let ua_core = b.router("core1-sc.backbone.ualberta.ca", places::UALBERTA);
        let cybera = b.router("uofa-p-1-edm.cybera.ca", places::UALBERTA);
        let umich_campus = b.router("border.umich.edu", places::UMICH);
        let purdue_campus = b.router("border.purdue.edu", places::PURDUE);
        let ucla_campus = b.router("border.ucla.edu", places::UCLA);

        // --- core networks ----------------------------------------------
        let vncv = b.router("vncv1rtr2.canarie.ca", places::VANCOUVER_IX);
        b.set_ip(vncv, [199, 212, 24, 1]);
        let edmn = b.router("edmn1rtr2.canarie.ca", places::UALBERTA);
        b.set_ip(edmn, [199, 212, 24, 68]);
        let pacificwave = b.exchange(
            "google-1-lo-std-707.sttlwa.pacificwave.net",
            places::SEATTLE,
        );
        b.set_ip(pacificwave, [207, 231, 242, 20]);
        let gren = b.exchange("gren-transit.example.net", places::CHICAGO_IX);
        let i2_chicago = b.router("internet2.chicago", places::CHICAGO_IX);
        let comm_west = b.router("commodity-west.sjc", GeoPoint::new(37.34, -121.89));
        let comm_east = b.router("commodity-east.chi", places::CHICAGO_IX);
        let goog_edge = b.router("google-edge-peering", places::MOUNTAIN_VIEW);
        b.set_anonymous(goog_edge);

        // --- provider POPs ----------------------------------------------
        let google_pop = b.datacenter("sea15s01-in-f138.1e100.net", places::MOUNTAIN_VIEW);
        b.set_ip(google_pop, [216, 58, 216, 138]);
        let dropbox_pop = b.datacenter("dropbox-edge.ashburn", places::ASHBURN);
        let onedrive_pop = b.datacenter("onedrive-edge.seattle", places::SEATTLE);

        // --- background endpoints ----------------------------------------
        let bg_g_src = b.host("bg-google-src", places::CHICAGO_IX);
        let bg_o_src = b.host("bg-onedrive-src", places::CHICAGO_IX);
        let bg_d_src = b.host("bg-dropbox-src", places::CHICAGO_IX);

        // --- links --------------------------------------------------------
        let core = LinkParams::geo(Bandwidth::from_mbps(CORE_MBPS));
        let access = |mbps: f64| LinkParams::geo(Bandwidth::from_mbps(mbps));

        // Campus access chains.
        b.duplex(ubc, ubc_net, access(UBC_ACCESS_MBPS));
        b.duplex(ubc_net, ubc_border, core);
        b.duplex(ubc_border, bcnet, core);
        b.duplex(ualberta, ua_fw, core);
        b.duplex(ua_fw, ua_priv, core);
        b.duplex(ua_priv, ua_core, core);
        b.duplex(ua_core, cybera, core);
        b.duplex(umich, umich_campus, access(UMICH_ACCESS_MBPS));
        b.duplex(purdue, purdue_campus, access(PURDUE_ACCESS_MBPS));
        b.duplex(ucla, ucla_campus, access(UCLA_ACCESS_MBPS));

        // Research core.
        b.duplex(bcnet, vncv, core);
        b.duplex(cybera, edmn, core);
        b.duplex(edmn, vncv, core); // CANARIE backbone Edmonton–Vancouver
        b.duplex(umich_campus, i2_chicago, core);
        b.duplex(
            purdue_campus,
            i2_chicago,
            LinkParams::geo(Bandwidth::from_mbps(622.0)),
        );
        // CANARIE–Internet2 peering: high capacity but cost-discouraged so
        // research traffic to Google keeps using CANARIE's own peering.
        b.duplex(
            edmn,
            i2_chicago,
            LinkParams::geo(Bandwidth::from_mbps(CORE_MBPS)).with_cost(40),
        );

        // GREN transit between the testbeds (the slow UBC↔UMich path).
        b.duplex(vncv, gren, core);
        b.duplex(gren, i2_chicago, core);

        // Commodity core.
        b.duplex(ucla_campus, comm_west, core);
        b.duplex(bcnet, comm_west, core);
        b.duplex(
            purdue_campus,
            comm_east,
            LinkParams::geo(Bandwidth::from_mbps(500.0)),
        );
        b.duplex(comm_west, comm_east, core);
        b.duplex(comm_west, pacificwave, core);

        // Exchange hand-offs toward Google.
        let (vncv_pw, _) = b.duplex(
            vncv,
            pacificwave,
            LinkParams::geo(Bandwidth::from_mbps(200.0)),
        );
        let (pw_goog, _) = b.duplex(pacificwave, google_pop, core);
        // CANARIE→Google direct peering crosses the anonymous edge hop that
        // renders as `* * *` in the paper's Figure 6.
        b.duplex(vncv, goog_edge, access(CANARIE_GOOGLE_MBPS).with_cost(8));
        b.duplex(goog_edge, google_pop, core);
        b.duplex(i2_chicago, google_pop, access(I2_GOOGLE_MBPS));
        let (ce_goog, _) = b.duplex(comm_east, google_pop, access(COMMODITY_GOOGLE_MBPS));
        b.duplex(comm_west, google_pop, core);

        // Dropbox ingress.
        b.duplex(comm_west, dropbox_pop, access(DROPBOX_WEST_MBPS));
        let (ce_db, _) = b.duplex(comm_east, dropbox_pop, access(DROPBOX_EAST_MBPS));
        b.duplex(edmn, dropbox_pop, access(CANARIE_DROPBOX_MBPS));
        b.duplex(
            i2_chicago,
            dropbox_pop,
            access(I2_DROPBOX_MBPS).with_cost(30),
        );

        // OneDrive ingress.
        b.duplex(i2_chicago, pacificwave, core);
        b.duplex(pacificwave, onedrive_pop, access(ONEDRIVE_WEST_MBPS));
        let (ce_od, _) = b.duplex(comm_east, onedrive_pop, access(ONEDRIVE_EAST_MBPS));

        // Ablation A4: a second, cleanly-peered Google POP in Seattle.
        let google_pop_seattle = if options.google_seattle_pop {
            let pop = b.datacenter("sea-pop.1e100.net", places::SEATTLE);
            b.duplex(pacificwave, pop, core);
            Some(pop)
        } else {
            None
        };

        // Background attachment points (fat dedicated access links).
        b.duplex(bg_g_src, comm_east, core);
        b.duplex(bg_o_src, comm_east, core);
        b.duplex(bg_d_src, comm_east, core);
        let bg_g_dst = b.host("bg-google-dst", places::MOUNTAIN_VIEW);
        let bg_o_dst = b.host("bg-onedrive-dst", places::SEATTLE);
        let bg_d_dst = b.host("bg-dropbox-dst", places::ASHBURN);
        b.duplex(google_pop, bg_g_dst, core);
        b.duplex(onedrive_pop, bg_o_dst, core);
        b.duplex(dropbox_pop, bg_d_dst, core);

        let topo = b.build();

        // --- route pins (the BGP opacity the paper diagnosed) -------------
        let overrides = vec![
            // UBC's PlanetLab traffic to Google goes through pacificwave
            // (the paper's Figure 5 path), not the clean CANARIE peering.
            RouteOverride::new(
                ubc,
                google_pop,
                vec![
                    ubc,
                    ubc_net,
                    ubc_border,
                    bcnet,
                    vncv,
                    pacificwave,
                    google_pop,
                ],
            ),
            // Inter-testbed UBC→UMich rides the policed GREN transit.
            RouteOverride::new(
                ubc,
                umich,
                vec![
                    ubc,
                    ubc_net,
                    ubc_border,
                    bcnet,
                    vncv,
                    gren,
                    i2_chicago,
                    umich_campus,
                    umich,
                ],
            ),
            // Purdue's Google traffic leaves through the congested commodity
            // peering, not Internet2 (the paper's §III-B pathology).
            RouteOverride::new(
                purdue,
                google_pop,
                vec![purdue, purdue_campus, comm_east, google_pop],
            ),
        ];

        // --- policers ------------------------------------------------------
        let mut policers = Vec::new();
        if !options.disable_pacificwave_policer {
            // The policer sits on the pacificwave→Google hand-off only:
            // UBC's OneDrive traffic crosses pacificwave unharmed, exactly
            // as the paper observed (Drive slow, OneDrive fine).
            policers.push(
                Policer::per_flow(
                    "pacificwave-planetlab",
                    pw_goog,
                    FlowClass::PlanetLab,
                    Bandwidth::from_mbps(PACIFICWAVE_POLICE_MBPS),
                )
                .also_matching(FlowClass::Probe),
            );
        }
        let _ = vncv_pw;
        policers.push(Policer::per_flow(
            "gren-transit-planetlab",
            topo.link_between(vncv, gren).expect("gren link"),
            FlowClass::PlanetLab,
            Bandwidth::from_mbps(GREN_POLICE_MBPS),
        ));

        // --- background traffic -------------------------------------------
        let s = options.congestion_scale;
        let mut backgrounds = Vec::new();
        if s > 0.0 {
            // Purdue→Google's 8 Mbps peering is hammered (σ must be large
            // and the mean ~1.1 Mbps per foreground flow).
            backgrounds.push(BackgroundProfile::heavy(bg_g_src, bg_g_dst).scaled(s * 0.6));
            // OneDrive's 6 Mbps east ingress: heavy, bursty (σ 118 s on a
            // 388 s mean in the paper's Table IV).
            backgrounds.push(BackgroundProfile::moderate(bg_o_src, bg_o_dst).scaled(s * 1.0));
            // Dropbox's 12 Mbps east ingress: moderate (σ 36 s on 178 s).
            backgrounds.push(BackgroundProfile::moderate(bg_d_src, bg_d_dst).scaled(s * 0.7));
        }
        let _ = (ce_goog, ce_db, ce_od); // link ids kept for documentation

        let nodes = Nodes {
            ubc,
            ualberta,
            umich,
            purdue,
            ucla,
            google_pop,
            dropbox_pop,
            onedrive_pop,
            vncv,
            pacificwave,
            google_pop_seattle,
        };
        NorthAmerica {
            topo: Arc::new(topo),
            nodes,
            overrides: overrides.into_iter().map(Arc::new).collect(),
            policers: policers.into_iter().map(Arc::new).collect(),
            backgrounds,
            options,
        }
    }

    /// Node handles.
    pub fn nodes(&self) -> &Nodes {
        &self.nodes
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Options used to build this scenario.
    pub fn options(&self) -> ScenarioOptions {
        self.options
    }

    /// Mint one simulator: topology + pins + policers + fresh background
    /// processes, all seeded by `seed`. The topology, pins and policers are
    /// shared, not copied.
    pub fn build_sim(&self, seed: u64) -> Sim {
        let mut sim = Sim::new(Arc::clone(&self.topo), seed);
        if self.options.capacity_jitter > 0.0 {
            sim.set_capacity_jitter(self.options.capacity_jitter);
        }
        for ov in &self.overrides {
            sim.add_route_override(Arc::clone(ov));
        }
        for p in &self.policers {
            sim.add_policer(Arc::clone(p));
        }
        for bg in &self.backgrounds {
            sim.spawn_detached(Box::new(BackgroundTraffic::new(bg.clone())));
        }
        sim
    }

    /// A provider instance bound to its POP(s) in this topology.
    pub fn provider(&self, kind: ProviderKind) -> Provider {
        let pop = match kind {
            ProviderKind::GoogleDrive => self.nodes.google_pop,
            ProviderKind::Dropbox => self.nodes.dropbox_pop,
            ProviderKind::OneDrive => self.nodes.onedrive_pop,
        };
        let mut provider = Provider::new(kind, pop);
        if kind == ProviderKind::GoogleDrive {
            if let Some(sea) = self.nodes.google_pop_seattle {
                provider = provider.with_pop(sea);
            }
        }
        provider
    }

    /// Client spec for a measuring site.
    pub fn client(&self, c: Client) -> ClientSpec {
        let (node, class) = match c {
            Client::Ubc => (self.nodes.ubc, FlowClass::PlanetLab),
            Client::Purdue => (self.nodes.purdue, FlowClass::PlanetLab),
            Client::Ucla => (self.nodes.ucla, FlowClass::PlanetLab),
        };
        ClientSpec::new(node, class, c.name())
    }

    /// The UAlberta detour hop (research-class cluster).
    pub fn hop_ualberta(&self) -> Hop {
        Hop::new(self.nodes.ualberta, FlowClass::Research, "UAlberta")
    }

    /// The UMich detour hop (PlanetLab-class node).
    pub fn hop_umich(&self) -> Hop {
        Hop::new(self.nodes.umich, FlowClass::PlanetLab, "UMich")
    }

    /// The paper's file-size sweep: 10–100 MB.
    pub fn paper_sizes() -> Vec<u64> {
        vec![
            10 * MB,
            20 * MB,
            30 * MB,
            40 * MB,
            50 * MB,
            60 * MB,
            100 * MB,
        ]
    }
}

impl Default for NorthAmerica {
    fn default() -> Self {
        Self::new()
    }
}

impl SimFactory for NorthAmerica {
    fn build(&self, seed: u64) -> Sim {
        self.build_sim(seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::engine::TransferRequest;
    use netsim::flow::FlowSpec;

    fn rate_mbps(sim: &mut Sim, src: NodeId, dst: NodeId, class: FlowClass) -> f64 {
        sim.core().idle_path_rate(src, dst, class).unwrap().mbps()
    }

    #[test]
    fn calibration_idle_rates() {
        // Jitter off: this test pins the *nominal* calibration constants.
        let world = NorthAmerica::with_options(ScenarioOptions {
            capacity_jitter: 0.0,
            ..ScenarioOptions::default()
        });
        let n = *world.nodes();
        let mut sim = world.build_sim(0);
        // UBC→Google is policed to ~9.3 Mbps for PlanetLab traffic.
        let r = rate_mbps(&mut sim, n.ubc, n.google_pop, FlowClass::PlanetLab);
        assert!(
            (r - PACIFICWAVE_POLICE_MBPS).abs() < 0.01,
            "ubc->google {r}"
        );
        // UAlberta→Google rides the 47 Mbps peering.
        let r = rate_mbps(&mut sim, n.ualberta, n.google_pop, FlowClass::Research);
        assert!(
            (r - CANARIE_GOOGLE_MBPS).abs() < 0.01,
            "ualberta->google {r}"
        );
        // UBC→UAlberta is limited by the slice egress.
        let r = rate_mbps(&mut sim, n.ubc, n.ualberta, FlowClass::PlanetLab);
        assert!((r - UBC_ACCESS_MBPS).abs() < 0.01, "ubc->ualberta {r}");
        // UBC→UMich crosses the policed GREN transit.
        let r = rate_mbps(&mut sim, n.ubc, n.umich, FlowClass::PlanetLab);
        assert!((r - GREN_POLICE_MBPS).abs() < 0.01, "ubc->umich {r}");
        // UMich→Google uses the 60 Mbps Internet2 peering.
        let r = rate_mbps(&mut sim, n.umich, n.google_pop, FlowClass::PlanetLab);
        assert!((r - I2_GOOGLE_MBPS).abs() < 0.01, "umich->google {r}");
        // Purdue is shaped to 4.6 Mbps toward the DTNs.
        let r = rate_mbps(&mut sim, n.purdue, n.ualberta, FlowClass::PlanetLab);
        assert!(
            (r - PURDUE_ACCESS_MBPS).abs() < 0.01,
            "purdue->ualberta {r}"
        );
        // UCLA's last mile dominates everywhere.
        let r = rate_mbps(&mut sim, n.ucla, n.google_pop, FlowClass::PlanetLab);
        assert!((r - UCLA_ACCESS_MBPS).abs() < 0.01, "ucla->google {r}");
        // UBC's commodity destinations are NOT policed.
        let r = rate_mbps(&mut sim, n.ubc, n.dropbox_pop, FlowClass::PlanetLab);
        assert!((r - DROPBOX_WEST_MBPS).abs() < 0.01, "ubc->dropbox {r}");
        let r = rate_mbps(&mut sim, n.ubc, n.onedrive_pop, FlowClass::PlanetLab);
        assert!((r - ONEDRIVE_WEST_MBPS).abs() < 0.01, "ubc->onedrive {r}");
    }

    #[test]
    fn ubc_google_headline_numbers() {
        // The paper's intro: 100 MB UBC→Drive direct ≈ 87 s; UBC→UAlberta
        // ≈ 19 s; UAlberta→Drive ≈ 17 s. Raw flows (no API overhead) land
        // within ~15% of each.
        let world = NorthAmerica::new();
        let n = *world.nodes();
        let t = |src, dst, class| {
            let mut sim = world.build_sim(42);
            sim.run_transfer(TransferRequest {
                spec: FlowSpec::new(src, dst, 100 * MB, class),
            })
            .unwrap()
            .elapsed
            .as_secs_f64()
        };
        let direct = t(n.ubc, n.google_pop, FlowClass::PlanetLab);
        assert!((80.0..100.0).contains(&direct), "ubc->google {direct}");
        let leg1 = t(n.ubc, n.ualberta, FlowClass::PlanetLab);
        assert!((17.0..23.0).contains(&leg1), "ubc->ualberta {leg1}");
        let leg2 = t(n.ualberta, n.google_pop, FlowClass::Research);
        assert!((15.0..20.0).contains(&leg2), "ualberta->google {leg2}");
        assert!(leg1 + leg2 < direct / 2.0, "detour must beat direct by 2x+");
    }

    #[test]
    fn purdue_google_is_pathological() {
        let world = NorthAmerica::new();
        let n = *world.nodes();
        let mut times = Vec::new();
        for seed in 0..3 {
            let mut sim = world.build_sim(seed);
            let t = sim
                .run_transfer(TransferRequest {
                    spec: FlowSpec::new(n.purdue, n.google_pop, 100 * MB, FlowClass::PlanetLab),
                })
                .unwrap()
                .elapsed
                .as_secs_f64();
            times.push(t);
        }
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        // Paper: 748 s. Anything in the many-hundreds with spread is the
        // right pathology.
        assert!(mean > 350.0, "purdue->google mean {mean} ({times:?})");
    }

    #[test]
    fn overrides_show_in_traceroute() {
        let world = NorthAmerica::new();
        let n = *world.nodes();
        let mut sim = world.build_sim(1);
        let tr_ubc = Traceroute::run(sim.core(), n.ubc, n.google_pop).unwrap();
        assert!(tr_ubc.crosses("vncv1rtr2.canarie.ca"));
        assert!(tr_ubc.crosses("google-1-lo-std-707.sttlwa.pacificwave.net"));
        let tr_ua = Traceroute::run(sim.core(), n.ualberta, n.google_pop).unwrap();
        assert!(tr_ua.crosses("vncv1rtr2.canarie.ca"));
        assert!(!tr_ua.crosses("google-1-lo-std-707.sttlwa.pacificwave.net"));
        // The UAlberta trace contains anonymous hops, like the paper's.
        assert!(tr_ua.to_string().contains("* * *"));
    }

    #[test]
    fn ablation_knobs_work() {
        let world = NorthAmerica::with_options(ScenarioOptions {
            congestion_scale: 0.0,
            disable_pacificwave_policer: true,
            ..ScenarioOptions::default()
        });
        let n = *world.nodes();
        let mut sim = world.build_sim(0);
        // Without the policer, UBC→Google rides its 43 Mbps access.
        let r = sim
            .core()
            .idle_path_rate(n.ubc, n.google_pop, FlowClass::PlanetLab)
            .unwrap();
        assert!(
            (r.mbps() - UBC_ACCESS_MBPS).abs() < 0.01,
            "unpoliced rate {r}"
        );
    }

    #[test]
    fn seattle_pop_counterfactual_heals_ubc() {
        // The paper's medium-term fix: a cleanly-peered POP near the
        // afflicted clients removes the pathology without any detour.
        let world = NorthAmerica::with_options(ScenarioOptions {
            google_seattle_pop: true,
            capacity_jitter: 0.0,
            ..ScenarioOptions::default()
        });
        let n = *world.nodes();
        let sea = n.google_pop_seattle.expect("second POP exists");
        let provider = world.provider(ProviderKind::GoogleDrive);
        assert_eq!(provider.pops.len(), 2);
        // UBC is steered to Seattle, and its attainable rate is its access
        // link, not the 9.3 Mbps policer.
        assert_eq!(provider.frontend_for(world.topology(), n.ubc), sea);
        let mut sim = world.build_sim(0);
        let r = sim
            .core()
            .idle_path_rate(n.ubc, sea, FlowClass::PlanetLab)
            .unwrap();
        assert!((r.mbps() - UBC_ACCESS_MBPS).abs() < 0.01, "rate {r}");
        // UCLA still gets steered to Mountain View (494 km vs 1540 km).
        assert_eq!(
            provider.frontend_for(world.topology(), n.ucla),
            n.google_pop
        );
    }

    #[test]
    fn routing_backends_agree_on_the_paper_map() {
        // The scenario now routes through the precomputed oracle by
        // default; the per-query reference Dijkstra must resolve every
        // client/provider pair (overrides included) to the identical path.
        let world = NorthAmerica::new();
        let n = *world.nodes();
        let mut oracle = world.build_sim(1);
        let mut reference = world.build_sim(1);
        reference.set_routing_mode(netsim::routing::RoutingMode::Reference);
        let endpoints = [
            n.ubc,
            n.ualberta,
            n.umich,
            n.purdue,
            n.ucla,
            n.google_pop,
            n.dropbox_pop,
            n.onedrive_pop,
        ];
        for &src in &endpoints {
            for &dst in &endpoints {
                assert_eq!(
                    oracle.core().resolve_path(src, dst).unwrap(),
                    reference.core().resolve_path(src, dst).unwrap(),
                    "{src}->{dst}"
                );
            }
        }
    }

    #[test]
    fn nearest_pop_is_the_papers() {
        let world = NorthAmerica::new();
        let n = *world.nodes();
        for kind in ProviderKind::all() {
            let p = world.provider(kind);
            // Single-POP providers: always the paper's datacenter.
            assert_eq!(p.pops.len(), 1);
        }
        let drive = world.provider(ProviderKind::GoogleDrive);
        assert_eq!(drive.frontend_for(world.topology(), n.ubc), n.google_pop);
    }
}
