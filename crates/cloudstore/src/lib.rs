//! # cloudstore — simulated personal cloud-storage providers
//!
//! The paper uploads through the RESTful APIs of Google Drive, Dropbox and
//! Microsoft OneDrive (OAuth2-authenticated, chunked/resumable sessions,
//! official or community Java client libraries). This crate models that
//! entire stack over the [`netsim`] substrate:
//!
//! * [`protocol`] — per-provider chunk protocols with era-accurate (2015)
//!   parameters: Drive's resumable 8 MiB chunks (256 KiB alignment),
//!   Dropbox's 4 MiB `upload_session/append` parts, OneDrive's 10 MiB
//!   fragments (320 KiB alignment).
//! * [`oauth`] — the OAuth2 token dance: grant, expiring bearer tokens,
//!   refresh. First runs pay it; warm runs reuse a cached token (one of the
//!   reasons the paper discards the first runs of each batch).
//! * [`provider`] — a provider: kind, points of presence, auth endpoint,
//!   ingest rate and fault model, with nearest-POP selection.
//! * [`faults`] — seeded fault injection: `429 Retry-After` throttling and
//!   transient `5xx`, with bounded exponential backoff.
//! * [`resilience`] — the shared resilience plane: retry budgets shared by
//!   throttles and transient errors, deterministically-jittered backoff and
//!   hard deadlines in sim time.
//! * [`session`] — the upload state machine (token → init → chunks →
//!   finish), one part at a time as the 2015 clients sent them, including
//!   resume-after-failure semantics.
//! * [`report`] — structured transfer reports (elapsed, RPC count, retries,
//!   wire bytes).

pub mod batch;
pub mod faults;
pub mod oauth;
pub mod protocol;
pub mod provider;
pub mod report;
pub mod resilience;
pub mod session;

pub use batch::{plan_batches, upload_batched, BatchItem, BatchPolicy, BatchReport};
pub use faults::FaultPlan;
pub use oauth::{AuthConfig, TokenPolicy};
pub use protocol::{ChunkProtocol, ProviderKind};
pub use provider::Provider;
pub use report::TransferStats;
pub use resilience::{RetryPolicy, RetryState, TripBoard};
pub use session::{upload, upload_traced, UploadOptions, UploadSession};
