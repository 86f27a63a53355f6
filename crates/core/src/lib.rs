//! # detour-core — routing detours for cloud-storage transfers
//!
//! The library a practitioner would use to reproduce — and then operate —
//! the system of *"Mitigating Routing Inefficiencies to Cloud-Storage
//! Providers: A Case Study"* (Sinha, Niu, Wang, Lu; 2016):
//!
//! * [`route`] — the route abstraction: a direct upload, or a detour through
//!   one or more data-transfer nodes.
//! * [`job`] — execute one transfer over one route and get a timing
//!   breakdown.
//! * [`campaign`] — the paper's measurement campaigns: (file sizes × routes
//!   × runs) with the 7-run/keep-5 protocol, parallelized across CPU cores
//!   with scoped threads (each run owns an independent simulator).
//! * [`select`] — automatic detour selection, the paper's declared future
//!   work: an oracle (measure everything, as the authors did by hand), a
//!   probe-based predictor, an adaptive ε-greedy learner, and the paper's
//!   §III-B overlap decision rule.
//! * [`monitor`] — dynamic route monitoring: an in-simulation process that
//!   re-probes candidate routes and switches when congestion moves.
//! * [`diagnose`] — traceroute comparison (where do two paths diverge?) and
//!   bottleneck attribution, reproducing the paper's pacificwave analysis.
//!
//! ## Quick start
//!
//! See `examples/quickstart.rs` in the workspace root, which builds the
//! paper's North-America scenario and reproduces the UBC→Google Drive
//! detour win.

pub mod campaign;
pub mod diagnose;
pub mod job;
pub mod monitor;
pub mod route;
pub mod select;

pub use campaign::{Campaign, CampaignResult, ClientSpec, SimFactory};
pub use diagnose::{compare_traceroutes, find_bandwidth_tivs, PathComparison, TivRecord};
pub use job::{run_job, JobDetail, JobReport};
pub use monitor::{EpochObservation, EpochObserver, MonitorConfig, ProbeLeg, RouteMonitor};
pub use route::{Hop, Route};
pub use select::{AdaptiveSelector, DecisionRule, OracleSelector, ProbeSelector, RouteChoice};
