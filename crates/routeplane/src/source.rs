//! Decision sources: where scored routes come from.
//!
//! [`SyntheticSource`] is a pure hash-derived scorer for fleet drivers,
//! benches and the coherence oracle — cheap, `Sync`, and *generation-
//! sensitive*, so serving a stale-generation decision produces detectably
//! wrong bits. [`ProbeSource`] scores through the real
//! [`detour_core::ProbeSelector`] against a live simulator, which is what
//! the cache actually amortizes in production-shaped runs; it is
//! thread-local (`RefCell<Sim>`), which the plane's lookup-takes-a-source
//! design exists to accommodate.

use crate::cache::{DecisionSource, RouteScore, ScoredEntry, DIRECT_ROUTE};
use crate::key::{DecisionKey, SIZE_CLASSES};
use cloudstore::Provider;
use detour_core::{ProbeSelector, Route};
use netsim::engine::Sim;
use netsim::flow::FlowClass;
use netsim::topology::NodeId;
use std::cell::RefCell;

/// SplitMix64: the standard 64-bit finalizer used to derive independent
/// deterministic streams from a key. Public because the fleet driver and
/// simcheck derive their schedules from it too.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A pure, hash-derived decision source: `compute(key, gen)` is a
/// deterministic function of `(seed, key, gen)` and nothing else, so two
/// instances with the same seed are bit-identical across threads and
/// processes. Scores shift when the generation does — a monitor bump
/// *means* "conditions changed" — which is what lets the coherence oracle
/// catch a cache serving old generations.
#[derive(Debug, Clone, Copy)]
pub struct SyntheticSource {
    seed: u64,
    detours: u32,
    nodes: u32,
}

impl SyntheticSource {
    /// A source with `detours` detour candidates per key (plus the direct
    /// route) over a world of `nodes` nodes.
    pub fn new(seed: u64, detours: u32, nodes: u32) -> Self {
        assert!(detours > 0 && nodes > 1);
        SyntheticSource {
            seed,
            detours,
            nodes,
        }
    }

    /// Number of candidate routes per key (direct + detours).
    pub fn candidates(&self) -> u32 {
        self.detours + 1
    }

    fn score_of(&self, key: DecisionKey, generation: u64, route_idx: u32) -> RouteScore {
        let h = splitmix64(
            self.seed
                ^ splitmix64(key.pack())
                ^ splitmix64(generation.wrapping_mul(0xA24B_AED4_963E_E407))
                ^ (route_idx as u64) << 48,
        );
        // Map the hash to seconds in [base, base + spread): direct routes
        // sit around the paper's slow-path times, detours spread wider so
        // roughly 1 key in (detours+1) keeps the direct route as best.
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
        let expected_secs = 20.0 + 180.0 * unit;
        let target = if route_idx == DIRECT_ROUTE {
            // The provider frontend gates the direct route.
            NodeId((splitmix64(self.seed ^ key.provider as u64) % self.nodes as u64) as u32)
        } else {
            // A detour is gated by its DTN node.
            NodeId((splitmix64(h ^ route_idx as u64) % self.nodes as u64) as u32)
        };
        RouteScore {
            route_idx,
            target,
            expected_secs,
        }
    }
}

impl DecisionSource for SyntheticSource {
    fn compute(&self, key: DecisionKey, generation: u64) -> ScoredEntry {
        let direct = self.score_of(key, generation, DIRECT_ROUTE);
        let mut best = direct;
        for idx in 1..=self.detours {
            let s = self.score_of(key, generation, idx);
            if s.expected_secs < best.expected_secs {
                best = s;
            }
        }
        ScoredEntry { best, direct }
    }
}

/// A decision source backed by a real simulator and the probe selector:
/// route predictions come from idle-path rate estimates over the actual
/// topology, exactly what `detour probe` computes per cell. Deterministic
/// for a fixed world (idle-path rates are a pure function of the
/// topology), but **not** generation-sensitive — generations only mark
/// freshness here. Not `Sync`: each worker thread builds its own.
pub struct ProbeSource {
    sim: RefCell<Sim>,
    selector: ProbeSelector,
    /// Vantage index → client node, cycled modulo its length.
    clients: Vec<(NodeId, FlowClass)>,
    /// Provider index → provider, cycled modulo its length.
    providers: Vec<Provider>,
    /// Candidate routes; index 0 must be [`Route::Direct`].
    routes: Vec<Route>,
    /// Size class → representative transfer bytes.
    class_bytes: [u64; 3],
}

impl ProbeSource {
    /// Wrap a simulator and a candidate world. `routes[0]` must be the
    /// direct route (the plane's demotion fallback).
    pub fn new(
        sim: Sim,
        clients: Vec<(NodeId, FlowClass)>,
        providers: Vec<Provider>,
        routes: Vec<Route>,
        class_bytes: [u64; 3],
    ) -> Self {
        assert!(!clients.is_empty() && !providers.is_empty());
        assert!(
            matches!(routes.first(), Some(Route::Direct)),
            "route 0 must be Direct"
        );
        ProbeSource {
            sim: RefCell::new(sim),
            selector: ProbeSelector::default(),
            clients,
            providers,
            routes,
            class_bytes,
        }
    }

    /// Number of candidate routes.
    pub fn candidates(&self) -> u32 {
        self.routes.len() as u32
    }

    fn gate_node(
        &self,
        sim: &mut Sim,
        provider: &Provider,
        client: NodeId,
        route: &Route,
    ) -> NodeId {
        match route {
            Route::Direct => provider.frontend_for(sim.core().topology(), client),
            Route::Via(hops) => hops[0].node,
        }
    }
}

impl DecisionSource for ProbeSource {
    fn compute(&self, key: DecisionKey, _generation: u64) -> ScoredEntry {
        let mut sim = self.sim.borrow_mut();
        let (client, class) = self.clients[key.vantage as usize % self.clients.len()];
        let provider = &self.providers[key.provider as usize % self.providers.len()];
        let bytes = self.class_bytes[(key.size_class % SIZE_CLASSES) as usize];
        let mut direct: Option<RouteScore> = None;
        let mut best: Option<RouteScore> = None;
        for (idx, route) in self.routes.iter().enumerate() {
            let secs = self
                .selector
                .predict(&mut sim, client, class, provider, route, bytes)
                .expect("probe prediction over a connected world");
            let score = RouteScore {
                route_idx: idx as u32,
                target: self.gate_node(&mut sim, provider, client, route),
                expected_secs: secs,
            };
            if idx as u32 == DIRECT_ROUTE {
                direct = Some(score);
            }
            if best.map(|b| secs < b.expected_secs).unwrap_or(true) {
                best = Some(score);
            }
        }
        ScoredEntry {
            best: best.expect("nonempty routes"),
            direct: direct.expect("route 0 is direct"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_is_pure_and_generation_sensitive() {
        let a = SyntheticSource::new(42, 4, 64);
        let b = SyntheticSource::new(42, 4, 64);
        let key = DecisionKey {
            vantage: 17,
            provider: 1,
            size_class: 2,
        };
        assert_eq!(a.compute(key, 5), b.compute(key, 5), "same seed, same bits");
        assert_ne!(
            a.compute(key, 5).best.bits(),
            a.compute(key, 6).best.bits(),
            "a generation bump must change the decision bits"
        );
        assert_ne!(
            a.compute(key, 5),
            SyntheticSource::new(43, 4, 64).compute(key, 5),
            "different seeds disagree"
        );
    }

    #[test]
    fn synthetic_direct_fallback_is_really_direct() {
        let s = SyntheticSource::new(7, 4, 64);
        let mut detours = 0;
        for v in 0..100u32 {
            let key = DecisionKey {
                vantage: v,
                provider: (v % 3) as u16,
                size_class: (v % 3) as u8,
            };
            let e = s.compute(key, 0);
            assert_eq!(e.direct.route_idx, DIRECT_ROUTE);
            assert!(e.best.expected_secs <= e.direct.expected_secs);
            if e.best.route_idx != DIRECT_ROUTE {
                detours += 1;
            }
        }
        // 4 detour candidates vs 1 direct: detours win most keys.
        assert!(detours > 50, "only {detours}/100 keys chose a detour");
    }
}
