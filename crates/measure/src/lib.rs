//! # measure — measurement protocol, statistics and tables
//!
//! The paper's protocol: *"For each of the measurements, we take the mean of
//! the last five runs among a total of seven runs. One standard deviation
//! has been shown as the error-bar in the figures."* This crate implements
//! that protocol, the summary statistics behind the paper's tables, the
//! mean±σ overlap analysis of §III-B (Table IV), and text/CSV table
//! rendering used by the `repro` harness.

pub mod chart;
pub mod protocol;
pub mod report;
pub mod stats;
pub mod table;
pub mod validate;

pub use chart::{Bar, GroupedBarChart};
pub use protocol::{ProtocolError, RunProtocol};
pub use report::{metrics_csv, metrics_table, metrics_text};
pub use stats::{percentile, OverlapVerdict, Stats};
pub use table::Table;
pub use validate::{pearson, RatioStats};
