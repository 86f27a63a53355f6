//! Measurement campaigns: (file sizes × routes × runs), in parallel.
//!
//! A campaign reproduces one of the paper's figures: it times every route
//! for every file size under the 7-run/keep-5 protocol. Every run is an
//! independent simulation (its own seed, its own background-traffic
//! realization), so the runs go to [`netsim::shard::run_shards`], the
//! workspace's one executor for independent simulations.

use crate::job::run_job;
use crate::route::Route;
use cloudstore::{Provider, TokenPolicy, UploadOptions};
use measure::{RunProtocol, Stats, Table};
use netsim::engine::Sim;
use netsim::error::NetError;
use netsim::flow::FlowClass;
use netsim::topology::NodeId;
use std::borrow::Cow;

/// Builds a fresh simulator per run. Implemented by scenario crates.
pub trait SimFactory: Sync {
    /// Construct a simulator seeded with `seed` (background traffic and all
    /// other stochastic components derive from it).
    fn build(&self, seed: u64) -> Sim;
}

impl<F> SimFactory for F
where
    F: Fn(u64) -> Sim + Sync,
{
    fn build(&self, seed: u64) -> Sim {
        self(seed)
    }
}

/// The measuring client.
#[derive(Debug, Clone)]
pub struct ClientSpec {
    /// The user machine.
    pub node: NodeId,
    /// Its traffic class (PlanetLab slice, research cluster, ...).
    pub class: FlowClass,
    /// Name for labels ("UBC").
    pub name: String,
}

impl ClientSpec {
    /// Build a client spec.
    pub fn new(node: NodeId, class: FlowClass, name: &str) -> Self {
        ClientSpec {
            node,
            class,
            name: name.to_string(),
        }
    }
}

/// One campaign: a client, a provider, candidate routes, file sizes.
///
/// Client, provider and routes are [`Cow`]s so repeated-selection paths
/// (the oracle selector, the route plane's cold path) can borrow their
/// caller's values instead of deep-cloning `String`s and `Vec`s per call,
/// while scenario builders keep handing over owned temporaries.
pub struct Campaign<'a> {
    /// Simulator factory (one fresh sim per run).
    pub factory: &'a dyn SimFactory,
    /// The measuring client.
    pub client: Cow<'a, ClientSpec>,
    /// Target provider.
    pub provider: Cow<'a, Provider>,
    /// Candidate routes; by convention index 0 is [`Route::Direct`].
    pub routes: Cow<'a, [Route]>,
    /// File sizes in bytes (the paper: 10–100 MB).
    pub sizes: Vec<u64>,
    /// Run protocol (the paper: 7 runs, keep 5).
    pub protocol: RunProtocol,
    /// Label mixed into per-run seeds (e.g. "fig2").
    pub label: String,
    /// Worker threads (0 = all cores).
    pub threads: usize,
}

impl<'a> Campaign<'a> {
    /// Run the full campaign.
    pub fn run(&self) -> Result<CampaignResult, NetError> {
        assert!(!self.routes.is_empty() && !self.sizes.is_empty());
        let runs = self.protocol.total_runs;
        let n_jobs = self.sizes.len() * self.routes.len() * runs;
        let threads = if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        } else {
            self.threads
        };
        // Job j is run `j % runs` of route `(j / runs) % routes` at size
        // `j / (runs * routes)`; results come back in job order.
        let mut outcomes = netsim::shard::run_shards(vec![(); n_jobs], threads, |j, ()| {
            let run = j % runs;
            let route_idx = (j / runs) % self.routes.len();
            let size_idx = j / (runs * self.routes.len());
            self.one_run(size_idx, route_idx, run)
        })
        .into_iter();

        // Assemble per-cell statistics.
        let mut cells = Vec::with_capacity(self.sizes.len());
        for _ in 0..self.sizes.len() {
            let mut row = Vec::with_capacity(self.routes.len());
            for _ in 0..self.routes.len() {
                let mut samples = Vec::with_capacity(self.protocol.kept());
                for run in 0..runs {
                    let secs = outcomes.next().expect("one outcome per job")?;
                    if run >= self.protocol.discard {
                        samples.push(secs);
                    }
                }
                row.push(Stats::from_samples(&samples));
            }
            cells.push(row);
        }
        Ok(CampaignResult {
            client_name: self.client.name.clone(),
            provider_name: self.provider.kind.display_name().to_string(),
            routes: self.routes.to_vec(),
            sizes: self.sizes.clone(),
            cells,
        })
    }

    fn one_run(&self, size_idx: usize, route_idx: usize, run: usize) -> Result<f64, NetError> {
        self.run_inner(size_idx, route_idx, run, false)
            .map(|(secs, _)| secs)
    }

    /// Replay one (size, route, run) cell with telemetry enabled and return
    /// the elapsed seconds plus the recording. The seed matches the one
    /// [`Campaign::run`] uses for the same cell, so the trace reproduces the
    /// campaign sample exactly.
    pub fn trace_run(
        &self,
        size_idx: usize,
        route_idx: usize,
        run: usize,
    ) -> Result<(f64, obs::Recording), NetError> {
        let (secs, rec) = self.run_inner(size_idx, route_idx, run, true)?;
        Ok((secs, rec.expect("telemetry was enabled")))
    }

    fn run_inner(
        &self,
        size_idx: usize,
        route_idx: usize,
        run: usize,
        trace: bool,
    ) -> Result<(f64, Option<obs::Recording>), NetError> {
        let size = self.sizes[size_idx];
        let route = &self.routes[route_idx];
        let seed_label = format!(
            "{}/{}/{}/{}/{}",
            self.label,
            self.client.name,
            self.provider.kind.display_name(),
            route.label(),
            size
        );
        let seed = RunProtocol::run_seed(&seed_label, run);
        let mut sim = self.factory.build(seed);
        if trace {
            sim.enable_telemetry();
        }
        let token = if run < self.protocol.discard {
            TokenPolicy::Fresh
        } else {
            TokenPolicy::Cached
        };
        let opts = UploadOptions {
            token,
            class: self.client.class,
            ..UploadOptions::default()
        };
        let report = run_job(
            &mut sim,
            self.client.node,
            self.client.class,
            &self.provider,
            size,
            route,
            opts,
        )?;
        Ok((report.secs(), sim.take_telemetry()))
    }
}

/// Campaign output: a [`Stats`] per (size, route) cell.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Client label.
    pub client_name: String,
    /// Provider label.
    pub provider_name: String,
    /// Routes, column order.
    pub routes: Vec<Route>,
    /// Sizes, row order (bytes).
    pub sizes: Vec<u64>,
    /// `cells[size_idx][route_idx]`.
    pub cells: Vec<Vec<Stats>>,
}

impl CampaignResult {
    /// Stats for one cell.
    pub fn stats(&self, size_idx: usize, route_idx: usize) -> &Stats {
        &self.cells[size_idx][route_idx]
    }

    /// Index of the direct route, if present.
    pub fn direct_idx(&self) -> Option<usize> {
        self.routes.iter().position(|r| !r.is_detour())
    }

    /// Best (lowest mean) route for a size.
    pub fn best_route_for(&self, size_idx: usize) -> usize {
        self.cells[size_idx]
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.mean.partial_cmp(&b.mean).expect("finite means"))
            .map(|(i, _)| i)
            .expect("at least one route")
    }

    /// Route ranking by mean time averaged over all sizes (used for the
    /// paper's Table I fastest/slowest summary). Returns route indices,
    /// fastest first.
    pub fn ranking(&self) -> Vec<usize> {
        let mut avg: Vec<(usize, f64)> = (0..self.routes.len())
            .map(|r| {
                let a =
                    self.cells.iter().map(|row| row[r].mean).sum::<f64>() / self.cells.len() as f64;
                (r, a)
            })
            .collect();
        avg.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite means"));
        avg.into_iter().map(|(i, _)| i).collect()
    }

    /// A paper-style table: size rows, route columns; detour cells carry
    /// the percentage versus the direct route (Tables II/III).
    pub fn paper_table(&self, title: &str) -> Table {
        let mut headers: Vec<String> = vec!["File size (MB)".to_string()];
        headers.extend(self.routes.iter().map(|r| format!("{} (s)", r.label())));
        let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        let mut t = Table::new(title, &header_refs);
        let direct = self.direct_idx();
        for (si, &size) in self.sizes.iter().enumerate() {
            let mut row = vec![format!("{}", size / netsim::units::MB)];
            for ri in 0..self.routes.len() {
                let baseline = match direct {
                    Some(d) if d != ri => Some(&self.cells[si][d]),
                    _ => None,
                };
                row.push(Table::timing_cell(&self.cells[si][ri], baseline));
            }
            t.row(row);
        }
        t
    }

    /// Mean ± σ table (the paper's Table IV shape).
    pub fn mean_std_table(&self, title: &str) -> Table {
        let mut headers: Vec<String> = vec!["File size (MB)".to_string()];
        headers.extend(self.routes.iter().map(|r| r.label()));
        let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        let mut t = Table::new(title, &header_refs);
        for (si, &size) in self.sizes.iter().enumerate() {
            let mut row = vec![format!("{}", size / netsim::units::MB)];
            for ri in 0..self.routes.len() {
                row.push(Table::mean_std_cell(&self.cells[si][ri]));
            }
            t.row(row);
        }
        t
    }

    /// The per-size series for one route (plotting the paper's figures).
    pub fn series(&self, route_idx: usize) -> Vec<(u64, Stats)> {
        self.sizes
            .iter()
            .zip(self.cells.iter())
            .map(|(&s, row)| (s, row[route_idx]))
            .collect()
    }

    /// Render the campaign as a grouped ASCII bar chart (one group per file
    /// size, one bar per route) — the shape of the paper's figures.
    pub fn chart(&self, title: &str) -> measure::GroupedBarChart {
        let mut c = measure::GroupedBarChart::new(title, "s");
        for (si, &size) in self.sizes.iter().enumerate() {
            let bars = self
                .routes
                .iter()
                .enumerate()
                .map(|(ri, route)| measure::Bar {
                    label: route.label(),
                    value: self.cells[si][ri].mean,
                    std_dev: self.cells[si][ri].std_dev,
                })
                .collect();
            c.group(&format!("{} MB", size / netsim::units::MB), bars);
        }
        c
    }

    /// The mean-time series of one route as plain `f64`s, for validation
    /// against published values.
    pub fn mean_series(&self, route_idx: usize) -> Vec<f64> {
        self.cells.iter().map(|row| row[route_idx].mean).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::Hop;
    use cloudstore::ProviderKind;
    use netsim::geo::GeoPoint;
    use netsim::prelude::*;
    use netsim::units::MB;
    use std::sync::Arc;

    struct TinyWorld;

    impl TinyWorld {
        fn topo() -> (netsim::topology::Topology, NodeId, NodeId, NodeId) {
            let mut b = TopologyBuilder::new();
            let user = b.host("user", GeoPoint::new(49.26, -123.25));
            let dtn = b.host("dtn", GeoPoint::new(53.52, -113.53));
            let pop = b.datacenter("pop", GeoPoint::new(37.39, -122.08));
            b.duplex(
                user,
                pop,
                LinkParams::new(Bandwidth::from_mbps(8.0), SimTime::from_millis(15)),
            );
            b.duplex(
                user,
                dtn,
                LinkParams::new(Bandwidth::from_mbps(40.0), SimTime::from_millis(8)),
            );
            b.duplex(
                dtn,
                pop,
                LinkParams::new(Bandwidth::from_mbps(48.0), SimTime::from_millis(14)),
            );
            (b.build(), user, dtn, pop)
        }
    }

    impl SimFactory for TinyWorld {
        fn build(&self, seed: u64) -> Sim {
            Sim::new(Self::topo().0, seed)
        }
    }

    fn campaign(world: &TinyWorld) -> Campaign<'_> {
        let (_, user, dtn, pop) = TinyWorld::topo();
        Campaign {
            factory: world,
            client: Cow::Owned(ClientSpec::new(user, FlowClass::PlanetLab, "UBC")),
            provider: Cow::Owned(Provider::new(ProviderKind::GoogleDrive, pop)),
            routes: Cow::Owned(vec![
                Route::Direct,
                Route::via(Hop::new(dtn, FlowClass::Research, "DTN")),
            ]),
            sizes: vec![10 * MB, 30 * MB],
            protocol: RunProtocol::quick(),
            label: "test".into(),
            threads: 2,
        }
    }

    #[test]
    fn campaign_produces_full_grid() {
        let world = TinyWorld;
        let result = campaign(&world).run().unwrap();
        assert_eq!(result.cells.len(), 2);
        assert_eq!(result.cells[0].len(), 2);
        for row in &result.cells {
            for s in row {
                assert_eq!(s.n, RunProtocol::quick().kept());
                assert!(s.mean > 0.0);
            }
        }
    }

    #[test]
    fn detour_wins_in_this_world() {
        let world = TinyWorld;
        let result = campaign(&world).run().unwrap();
        for si in 0..result.sizes.len() {
            assert_eq!(result.best_route_for(si), 1, "size idx {si}");
        }
        assert_eq!(result.ranking(), vec![1, 0]);
    }

    #[test]
    fn tables_render() {
        let world = TinyWorld;
        let result = campaign(&world).run().unwrap();
        let t = result.paper_table("demo");
        let text = t.render();
        assert!(text.contains("via DTN"), "{text}");
        assert!(text.contains('%'), "{text}");
        let ms = result.mean_std_table("demo2").render();
        assert!(ms.contains('±'), "{ms}");
    }

    #[test]
    fn deterministic_campaigns() {
        let world = TinyWorld;
        let a = campaign(&world).run().unwrap();
        let b = campaign(&world).run().unwrap();
        for (ra, rb) in a.cells.iter().zip(&b.cells) {
            for (sa, sb) in ra.iter().zip(rb) {
                assert_eq!(
                    sa.mean.to_bits(),
                    sb.mean.to_bits(),
                    "campaign not reproducible"
                );
            }
        }
    }

    #[test]
    fn series_extraction() {
        let world = TinyWorld;
        let r = campaign(&world).run().unwrap();
        let s = r.series(0);
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].0, 10 * MB);
    }

    #[test]
    fn closure_factory_works() {
        let factory = |seed: u64| Sim::new(TinyWorld::topo().0, seed);
        let (_, user, _, pop) = TinyWorld::topo();
        let c = Campaign {
            factory: &factory,
            client: Cow::Owned(ClientSpec::new(user, FlowClass::Commodity, "X")),
            provider: Cow::Owned(Provider::new(ProviderKind::Dropbox, pop)),
            routes: Cow::Owned(vec![Route::Direct]),
            sizes: vec![MB],
            protocol: RunProtocol::quick(),
            label: "closure".into(),
            threads: 1,
        };
        assert_eq!(c.run().unwrap().cells.len(), 1);
    }

    /// Every sim shares one topology, and with it the topology's trees;
    /// per-run capacity jitter and background traffic make each seed's
    /// run distinct.
    struct SharedWorld(Arc<netsim::topology::Topology>, NodeId, NodeId);

    impl SimFactory for SharedWorld {
        fn build(&self, seed: u64) -> Sim {
            use netsim::background::{BackgroundProfile, BackgroundTraffic};
            let mut sim = Sim::new(Arc::clone(&self.0), seed);
            sim.set_capacity_jitter(0.1);
            let profile = BackgroundProfile::moderate(self.1, self.2);
            sim.spawn_detached(Box::new(BackgroundTraffic::new(profile)));
            sim
        }
    }

    /// Four workers start on a cold topology and fill its shortest-path
    /// trees concurrently; the campaign still equals a one-thread run over
    /// another cold copy, bit for bit.
    #[test]
    fn threaded_campaign_over_one_cold_topology_matches_one_thread() {
        let wan = netsim::synth::SynthWan {
            seed: 4,
            ..Default::default()
        }
        .build();
        let h = &wan.hosts;
        let run = |threads: usize| {
            // `wan.topo` is never queried, so each clone starts cold.
            let world = SharedWorld(Arc::new(wan.topo.clone()), h[5], h[11]);
            Campaign {
                factory: &world,
                client: Cow::Owned(ClientSpec::new(h[0], FlowClass::PlanetLab, "C")),
                provider: Cow::Owned(Provider::new(ProviderKind::GoogleDrive, h[11])),
                routes: Cow::Owned(vec![
                    Route::Direct,
                    Route::via(Hop::new(h[5], FlowClass::Research, "A")),
                    Route::via(Hop::new(h[17], FlowClass::Research, "B")),
                ]),
                sizes: vec![5 * MB, 20 * MB],
                protocol: RunProtocol::quick(),
                label: "shared".into(),
                threads,
            }
            .run()
            .unwrap()
        };
        let (four, one) = (run(4), run(1));
        for (r4, r1) in four.cells.iter().zip(&one.cells) {
            for (a, b) in r4.iter().zip(r1) {
                assert_eq!(a.n, b.n);
                for (x, y) in [
                    (a.mean, b.mean),
                    (a.std_dev, b.std_dev),
                    (a.min, b.min),
                    (a.max, b.max),
                ] {
                    assert_eq!(x.to_bits(), y.to_bits(), "{a:?} vs {b:?}");
                }
            }
        }
    }
}
