//! Realistic personal-cloud sync workloads.
//!
//! The paper's motivation is everyday cloud-storage use, but its benchmark
//! is single files of 10–100 MB. Real sync sessions (Drago et al., IMC'12,
//! the paper's \[4\]/\[8\]) are dominated *in count* by small files and *in
//! bytes* by a few large ones. This module generates such sessions and
//! plays them through a client, comparing routing policies end to end —
//! where per-file protocol overheads (which detours double) matter for the
//! small files, and path bandwidth matters for the large ones.

use crate::northamerica::{Client, NorthAmerica};
use cloudstore::{ProviderKind, TokenPolicy, UploadOptions};
use detour_core::{run_job, AdaptiveSelector, Route};
use netsim::units::{KB, MB};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A sequence of file uploads forming one sync session.
#[derive(Debug, Clone)]
pub struct SyncWorkload {
    /// File sizes, in upload order.
    pub files: Vec<u64>,
}

impl SyncWorkload {
    /// A personal-cloud session: ~70% small files (50 KB–1 MB: documents,
    /// photos' thumbnails), ~25% medium (1–20 MB: photos, slides), ~5%
    /// large (40–120 MB: videos, archives). Deterministic per seed.
    pub fn personal_cloud(seed: u64, n_files: usize) -> Self {
        assert!(n_files > 0);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x70ad);
        let files = (0..n_files)
            .map(|_| {
                let x: f64 = rng.gen();
                if x < 0.70 {
                    rng.gen_range(50 * KB..MB)
                } else if x < 0.95 {
                    rng.gen_range(MB..20 * MB)
                } else {
                    rng.gen_range(40 * MB..120 * MB)
                }
            })
            .collect();
        SyncWorkload { files }
    }

    /// Total payload.
    pub fn total_bytes(&self) -> u64 {
        self.files.iter().sum()
    }
}

/// How the session chooses routes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SessionPolicy {
    /// Everything direct (the default client behaviour).
    AlwaysDirect,
    /// Everything through the given fixed route index (1 = via UAlberta,
    /// 2 = via UMich, in the standard route list).
    FixedRoute(usize),
    /// ε-greedy adaptive selection, learning across the session's files.
    Adaptive {
        /// Exploration probability.
        epsilon: f64,
    },
}

/// Result of one played session.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// Total simulated wall-clock for the session.
    pub total_secs: f64,
    /// Route index used per file.
    pub choices: Vec<usize>,
}

/// Play a sync session through one simulation (time accumulates across
/// files; the first upload pays the OAuth grant, the rest reuse the token).
pub fn run_session(
    world: &NorthAmerica,
    client: Client,
    provider_kind: ProviderKind,
    workload: &SyncWorkload,
    policy: SessionPolicy,
    seed: u64,
) -> SessionReport {
    let spec = world.client(client);
    let provider = world.provider(provider_kind);
    let routes: Vec<Route> = vec![
        Route::Direct,
        Route::via(world.hop_ualberta()),
        Route::via(world.hop_umich()),
    ];
    let mut sim = world.build_sim(seed);
    let mut selector = AdaptiveSelector::new(routes.len(), 0.0, 0.4);
    let mut sel_rng = SmallRng::seed_from_u64(seed ^ 0x5e1);
    let mut choices = Vec::with_capacity(workload.files.len());
    let mut total = 0.0;

    for (i, &bytes) in workload.files.iter().enumerate() {
        let route_idx = match policy {
            SessionPolicy::AlwaysDirect => 0,
            SessionPolicy::FixedRoute(r) => r,
            SessionPolicy::Adaptive { epsilon } => {
                // Respect the caller's ε while reusing the EWMA machinery.
                let mut s = selector.clone();
                s.epsilon = epsilon;
                s.next_route(&mut sel_rng)
            }
        };
        let token = if i == 0 {
            TokenPolicy::Fresh
        } else {
            TokenPolicy::Cached
        };
        let opts = UploadOptions {
            token,
            class: spec.class,
            ..UploadOptions::default()
        };
        let report = run_job(
            &mut sim,
            spec.node,
            spec.class,
            &provider,
            bytes,
            &routes[route_idx],
            opts,
        )
        .expect("session upload");
        // Bytes-normalized cost so small files don't dominate the estimate.
        selector.record(
            route_idx,
            report.secs() / (bytes as f64 / MB as f64).max(0.05),
        );
        total += report.secs();
        choices.push(route_idx);
    }
    SessionReport {
        total_secs: total,
        choices,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_distribution_shape() {
        let w = SyncWorkload::personal_cloud(1, 400);
        assert_eq!(w.files.len(), 400);
        let small = w.files.iter().filter(|&&b| b < MB).count() as f64 / 400.0;
        let large = w.files.iter().filter(|&&b| b >= 40 * MB).count();
        assert!((0.6..0.8).contains(&small), "small fraction {small}");
        assert!(large >= 1, "no large files in 400 draws");
        // Bytes are dominated by the large tail.
        let large_bytes: u64 = w.files.iter().filter(|&&b| b >= 40 * MB).sum();
        assert!(
            large_bytes * 2 > w.total_bytes(),
            "tail should dominate bytes"
        );
        // Deterministic.
        assert_eq!(w.files, SyncWorkload::personal_cloud(1, 400).files);
    }

    #[test]
    fn session_policies_differ_where_the_paper_says() {
        // From Purdue to Google Drive, a fixed via-UMich session should beat
        // an always-direct session (the large files dominate, and direct is
        // catastrophic for them).
        let world = NorthAmerica::new();
        let w = SyncWorkload::personal_cloud(2, 12);
        let direct = run_session(
            &world,
            Client::Purdue,
            ProviderKind::GoogleDrive,
            &w,
            SessionPolicy::AlwaysDirect,
            3,
        );
        let detour = run_session(
            &world,
            Client::Purdue,
            ProviderKind::GoogleDrive,
            &w,
            SessionPolicy::FixedRoute(2),
            3,
        );
        assert!(
            detour.total_secs < direct.total_secs,
            "detour session {} !< direct {}",
            detour.total_secs,
            direct.total_secs
        );
        assert!(direct.choices.iter().all(|&c| c == 0));
        assert!(detour.choices.iter().all(|&c| c == 2));
    }

    #[test]
    fn adaptive_session_converges_to_a_good_route() {
        let world = NorthAmerica::new();
        let w = SyncWorkload::personal_cloud(4, 16);
        let adaptive = run_session(
            &world,
            Client::Purdue,
            ProviderKind::GoogleDrive,
            &w,
            SessionPolicy::Adaptive { epsilon: 0.1 },
            5,
        );
        // After exploring all three routes, later files should mostly use a
        // detour (route 1 or 2).
        let tail = &adaptive.choices[3..];
        let detour_share = tail.iter().filter(|&&c| c != 0).count() as f64 / tail.len() as f64;
        assert!(
            detour_share > 0.5,
            "adaptive stuck on direct: {:?}",
            adaptive.choices
        );
    }
}
