//! # netsim — flow-level discrete-event WAN simulator
//!
//! The measurement substrate for the `routing-detours` workspace. The paper
//! ("Mitigating Routing Inefficiencies to Cloud-Storage Providers", Sinha et
//! al., 2016) ran its experiments on the live 2015 Internet from PlanetLab
//! vantage points; this crate replaces that substrate with a deterministic,
//! calibrated simulator that reproduces the *mechanisms* behind the paper's
//! findings:
//!
//! * **Topology** ([`topology`]): hosts, routers, exchanges and datacenters
//!   joined by directed links with capacity, propagation delay and loss.
//! * **Policy routing** ([`routing`]): per-source shortest paths over link
//!   costs, plus explicit route overrides that pin idiosyncratic paths (the
//!   paper's PlanetLab-to-Google egress through the `pacificwave` policer).
//! * **Route oracle** ([`oracle`]): per-source shortest-path trees over
//!   the flat CSR adjacency, owned and built by the topology and shared by
//!   every sim over it. A tree build's scratch belongs to the building
//!   thread, so a sim's routing state is its one [`routing::RoutingTable`]
//!   (overrides, backend mode, lockstep) and nothing more. The trees give
//!   zero-allocation warm path queries at 100k-node scale; the per-query
//!   Dijkstra survives as a bit-identical differential reference.
//! * **Fluid flows** ([`flow`]): active transfers share links max-min fairly;
//!   each flow is additionally capped by a TCP (Mathis) ceiling derived from
//!   path RTT and loss ([`tcp`]), by per-flow policers ([`middlebox`]) and by
//!   host NIC/shaper rates.
//! * **Discrete-event engine** ([`engine`]): event core over a monotone
//!   radix queue ([`radix`], shared with the route oracle's Dijkstra) with
//!   deterministic tie-breaking, cooperative processes (state machines) for
//!   protocol logic, timers and parent/child completion notifications.
//! * **RPC sessions** ([`rpc`]): request/response exchanges with server think
//!   time, the building block for the cloud-storage REST APIs.
//! * **Background traffic** ([`background`]): Markov-modulated ON/OFF flow
//!   generators that create the congestion (and run-to-run variance) behind
//!   the paper's error bars.
//! * **Traceroute** ([`trace`]): hop-by-hop path inspection with DNS names,
//!   IPv4 addresses and RTTs, reproducing the paper's Figures 5 and 6.
//! * **Geography** ([`geo`]): great-circle distances and speed-of-light
//!   propagation delays for the paper's Figure 3 map.
//!
//! ## Quick example
//!
//! ```
//! use netsim::prelude::*;
//!
//! let mut b = TopologyBuilder::new();
//! let a = b.host("client", GeoPoint::new(49.26, -123.25));
//! let r = b.router("core", GeoPoint::new(51.0, -114.0));
//! let s = b.host("server", GeoPoint::new(37.39, -122.08));
//! b.duplex(a, r, LinkParams::new(Bandwidth::from_mbps(100.0), SimTime::from_millis(5)));
//! b.duplex(r, s, LinkParams::new(Bandwidth::from_mbps(50.0), SimTime::from_millis(12)));
//! let topo = b.build();
//!
//! let mut sim = Sim::new(topo, 42);
//! let report = sim.run_transfer(TransferRequest::new(a, s, 10 * MB)).unwrap();
//! assert!(report.elapsed > SimTime::ZERO);
//! ```

pub mod audit;
pub mod background;
pub mod engine;
pub mod error;
pub mod flow;
pub mod geo;
pub mod middlebox;
pub mod oracle;
pub mod radix;
pub mod routing;
pub mod rpc;
pub mod shard;
pub mod synth;
pub mod tcp;
pub mod time;
pub mod topology;
pub mod trace;
pub mod units;

/// Convenient glob-import of the simulator surface.
pub mod prelude {
    pub use crate::background::{BackgroundProfile, BackgroundTraffic};
    pub use crate::engine::{
        Ctx, Event, FlowId, Process, ProcessId, ProgressMode, Sim, TransferReport, TransferRequest,
        Value,
    };
    pub use crate::error::{NetError, NetResult};
    pub use crate::flow::{AllocMode, FlowClass, FlowSpec};
    pub use crate::geo::GeoPoint;
    pub use crate::middlebox::{Policer, PolicerScope};
    pub use crate::routing::{RouteOverride, RoutingMode};
    pub use crate::rpc::{Rpc, RpcSpec};
    pub use crate::tcp::TcpParams;
    pub use crate::time::SimTime;
    pub use crate::topology::{LinkId, LinkParams, NodeId, NodeKind, Topology, TopologyBuilder};
    pub use crate::trace::{Hop, Traceroute};
    pub use crate::units::{Bandwidth, GB, KB, MB};
}

pub use prelude::*;
