//! Dynamic route monitoring — the paper's closing future-work item:
//! *"to monitor and bypass dynamic bottlenecks on the WAN"*.
//!
//! [`RouteMonitor`] is a simulation process that lives alongside real
//! traffic: every `interval` it sends a small probe down each leg of every
//! candidate route, converts the observed probe rates into a predicted
//! transfer time for a reference file size, smooths with an EWMA and
//! records which route currently wins. Because background congestion in the
//! simulator is bursty (Markov-modulated), the recorded choice timeline
//! shows the monitor switching routes as bottlenecks move — the behaviour a
//! deployed detour service would need.

use netsim::engine::{Ctx, Event, Process, Value};
use netsim::flow::{FlowClass, FlowSpec};
use netsim::time::SimTime;
use netsim::topology::NodeId;

/// One probe-able leg: src → dst with the sender's traffic class.
#[derive(Debug, Clone, Copy)]
pub struct ProbeLeg {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Sender's class (probes must receive the same policer treatment as
    /// real traffic from that host).
    pub class: FlowClass,
}

/// Monitor configuration.
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// Candidate routes, each a sequence of legs ending at the provider.
    pub routes: Vec<Vec<ProbeLeg>>,
    /// Probe size (small; the paper's probes would be ~1 MB).
    pub probe_bytes: u64,
    /// Reference file size used to turn rates into predicted times.
    pub reference_bytes: u64,
    /// Time between probing rounds.
    pub interval: SimTime,
    /// Number of probing rounds.
    pub epochs: usize,
    /// EWMA weight of the newest prediction.
    pub alpha: f64,
}

/// What the monitor saw at the end of one probing epoch, handed to an
/// [`EpochObserver`]. This is the invalidation feed for decision caches:
/// `changed` flags the epochs where serving yesterday's route would now be
/// wrong, which is exactly when a cache generation should be bumped.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochObservation {
    /// Epoch index, `0..cfg.epochs`.
    pub epoch: usize,
    /// Winning route index this epoch.
    pub winner: usize,
    /// Whether the winner differs from the previous epoch's (the first
    /// epoch counts as changed: there was no prior winner to serve).
    pub changed: bool,
    /// The winner's EWMA-predicted seconds for the reference transfer.
    pub predicted_secs: f64,
    /// Simulation time the epoch completed.
    pub at: SimTime,
}

/// Callback invoked once per completed epoch.
pub type EpochObserver = Box<dyn FnMut(EpochObservation)>;

/// The monitoring process. Finishes with `Value::List` of the chosen route
/// index per epoch.
pub struct RouteMonitor {
    cfg: MonitorConfig,
    estimates: Vec<Option<f64>>,
    choices: Vec<u64>,
    route_idx: usize,
    leg_idx: usize,
    epoch_pred: f64,
    observer: Option<EpochObserver>,
}

const EPOCH_TIMER: u64 = 0x4d4f4e; // "MON"

impl RouteMonitor {
    /// Build from a configuration.
    pub fn new(cfg: MonitorConfig) -> Self {
        assert!(!cfg.routes.is_empty(), "no routes to monitor");
        assert!(
            cfg.routes.iter().all(|r| !r.is_empty()),
            "route without legs"
        );
        assert!(cfg.epochs > 0 && cfg.probe_bytes > 0 && cfg.reference_bytes > 0);
        assert!(cfg.alpha > 0.0 && cfg.alpha <= 1.0);
        let n = cfg.routes.len();
        RouteMonitor {
            cfg,
            estimates: vec![None; n],
            choices: Vec::new(),
            route_idx: 0,
            leg_idx: 0,
            epoch_pred: 0.0,
            observer: None,
        }
    }

    /// Attach a per-epoch observer. Route caches hang their invalidation
    /// off this: bump the affected key range when `changed` is set.
    pub fn with_observer(mut self, f: impl FnMut(EpochObservation) + 'static) -> Self {
        self.observer = Some(Box::new(f));
        self
    }

    fn probe_current_leg(&mut self, ctx: &mut Ctx<'_>) {
        let leg = self.cfg.routes[self.route_idx][self.leg_idx];
        let spec = FlowSpec::new(leg.src, leg.dst, self.cfg.probe_bytes, leg.class);
        if ctx.start_flow(spec).is_err() {
            // Unroutable leg: poison this route's estimate and move on.
            self.epoch_pred = f64::INFINITY;
            self.advance(ctx, None);
        }
    }

    fn advance(&mut self, ctx: &mut Ctx<'_>, probe_elapsed: Option<SimTime>) {
        if let Some(elapsed) = probe_elapsed {
            let rate = self.cfg.probe_bytes as f64 / elapsed.as_secs_f64().max(1e-9);
            self.epoch_pred += self.cfg.reference_bytes as f64 / rate;
        }
        self.leg_idx += 1;
        if self.leg_idx < self.cfg.routes[self.route_idx].len() {
            self.probe_current_leg(ctx);
            return;
        }
        // Route finished: publish the observation so the health plane sees
        // probing activity even when no transfer is in flight.
        let t = ctx.now().as_nanos();
        let route = self.route_idx;
        let predicted = self.epoch_pred;
        ctx.telemetry().event(
            t,
            obs::Category::Control,
            "monitor.probe",
            obs::SpanId::NONE,
            |a| {
                a.set("route", route).set("predicted_secs", predicted);
            },
        );
        ctx.telemetry().counter_add("core.monitor.probes", 1);
        // Fold into the EWMA.
        let e = &mut self.estimates[self.route_idx];
        *e = Some(match *e {
            Some(prev) if self.epoch_pred.is_finite() => {
                prev * (1.0 - self.cfg.alpha) + self.epoch_pred * self.cfg.alpha
            }
            _ => self.epoch_pred,
        });
        self.route_idx += 1;
        self.leg_idx = 0;
        self.epoch_pred = 0.0;
        if self.route_idx < self.cfg.routes.len() {
            self.probe_current_leg(ctx);
            return;
        }
        // Epoch complete: record the winner.
        let best = self
            .estimates
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                a.unwrap_or(f64::INFINITY)
                    .partial_cmp(&b.unwrap_or(f64::INFINITY))
                    .expect("no NaN estimates")
            })
            .map(|(i, _)| i as u64)
            .expect("nonempty");
        let changed = self
            .choices
            .last()
            .map(|&prev| prev != best)
            .unwrap_or(true);
        self.choices.push(best);
        if let Some(observer) = &mut self.observer {
            observer(EpochObservation {
                epoch: self.choices.len() - 1,
                winner: best as usize,
                changed,
                predicted_secs: self.estimates[best as usize].unwrap_or(f64::INFINITY),
                at: ctx.now(),
            });
        }
        if self.choices.len() >= self.cfg.epochs {
            ctx.finish(Value::List(
                self.choices.iter().map(|&c| Value::U64(c)).collect(),
            ));
        } else {
            ctx.set_timer(self.cfg.interval, EPOCH_TIMER);
        }
    }

    /// Decode the monitor's result value into per-epoch choices.
    pub fn decode_choices(v: &Value) -> Vec<usize> {
        v.expect_list()
            .iter()
            .map(|x| x.expect_u64() as usize)
            .collect()
    }
}

impl Process for RouteMonitor {
    fn poll(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        match ev {
            Event::Started => {
                self.route_idx = 0;
                self.leg_idx = 0;
                self.epoch_pred = 0.0;
                self.probe_current_leg(ctx);
            }
            Event::FlowCompleted { elapsed, .. } => self.advance(ctx, Some(elapsed)),
            Event::FlowFailed { .. } => {
                self.epoch_pred = f64::INFINITY;
                self.advance(ctx, None);
            }
            Event::Timer { tag: EPOCH_TIMER } => {
                self.route_idx = 0;
                self.leg_idx = 0;
                self.epoch_pred = 0.0;
                self.probe_current_leg(ctx);
            }
            _ => {}
        }
    }

    fn name(&self) -> &'static str {
        "route-monitor"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::background::{BackgroundProfile, BackgroundTraffic};
    use netsim::geo::GeoPoint;
    use netsim::prelude::*;
    use netsim::units::MB;

    /// Two disjoint paths from user to pop; path A is congested by
    /// background traffic, path B is clean.
    fn world(seed: u64) -> (Sim, MonitorConfig) {
        let mut b = TopologyBuilder::new();
        let user = b.host("user", GeoPoint::new(49.0, -123.0));
        let ra = b.router("ra", GeoPoint::new(50.0, -120.0));
        let rb = b.host("dtn-b", GeoPoint::new(53.5, -113.5));
        let pop = b.datacenter("pop", GeoPoint::new(37.4, -122.1));
        let bg_src = b.host("bg-src", GeoPoint::new(50.1, -120.1));
        let bg_dst = b.host("bg-dst", GeoPoint::new(37.5, -122.0));
        let fat = LinkParams::new(Bandwidth::from_mbps(400.0), SimTime::from_millis(3));
        let thin = LinkParams::new(Bandwidth::from_mbps(30.0), SimTime::from_millis(8));
        b.duplex(user, ra, fat);
        b.duplex(ra, pop, thin); // path A bottleneck, shared with background
        b.duplex(user, rb, thin);
        b.duplex(rb, pop, thin);
        b.duplex(bg_src, ra, fat);
        b.duplex(pop, bg_dst, fat);
        let topo = b.build();
        let mut sim = Sim::new(topo, seed);
        sim.spawn_detached(Box::new(BackgroundTraffic::new(
            BackgroundProfile::heavy(bg_src, bg_dst).scaled(1.5),
        )));
        let cfg = MonitorConfig {
            routes: vec![
                vec![ProbeLeg {
                    src: user,
                    dst: pop,
                    class: FlowClass::Commodity,
                }],
                vec![
                    ProbeLeg {
                        src: user,
                        dst: rb,
                        class: FlowClass::Commodity,
                    },
                    ProbeLeg {
                        src: rb,
                        dst: pop,
                        class: FlowClass::Commodity,
                    },
                ],
            ],
            probe_bytes: MB,
            reference_bytes: 50 * MB,
            interval: SimTime::from_secs(20),
            epochs: 8,
            alpha: 0.6,
        };
        (sim, cfg)
    }

    #[test]
    fn monitor_produces_one_choice_per_epoch() {
        let (mut sim, cfg) = world(3);
        let epochs = cfg.epochs;
        let v = sim.run_process(Box::new(RouteMonitor::new(cfg))).unwrap();
        let choices = RouteMonitor::decode_choices(&v);
        assert_eq!(choices.len(), epochs);
        assert!(choices.iter().all(|&c| c < 2));
    }

    #[test]
    fn monitor_reacts_to_congestion() {
        // Across seeds, the congested direct path (route 0) should lose at
        // least sometimes — a monitor that always says "direct" is blind.
        let mut detour_votes = 0;
        let mut total = 0;
        for seed in 0..6 {
            let (mut sim, cfg) = world(seed);
            let v = sim.run_process(Box::new(RouteMonitor::new(cfg))).unwrap();
            for c in RouteMonitor::decode_choices(&v) {
                total += 1;
                if c == 1 {
                    detour_votes += 1;
                }
            }
        }
        assert!(
            detour_votes > 0,
            "monitor never noticed congestion ({detour_votes}/{total})"
        );
    }

    #[test]
    fn unroutable_route_never_chosen() {
        let mut b = TopologyBuilder::new();
        let user = b.host("user", GeoPoint::new(0.0, 0.0));
        let pop = b.host("pop", GeoPoint::new(1.0, 1.0));
        let island = b.host("island", GeoPoint::new(2.0, 2.0));
        b.duplex(
            user,
            pop,
            LinkParams::new(Bandwidth::from_mbps(10.0), SimTime::from_millis(2)),
        );
        let mut sim = Sim::new(b.build(), 1);
        let cfg = MonitorConfig {
            routes: vec![
                vec![ProbeLeg {
                    src: user,
                    dst: island,
                    class: FlowClass::Commodity,
                }],
                vec![ProbeLeg {
                    src: user,
                    dst: pop,
                    class: FlowClass::Commodity,
                }],
            ],
            probe_bytes: MB,
            reference_bytes: 10 * MB,
            interval: SimTime::from_secs(5),
            epochs: 3,
            alpha: 0.5,
        };
        let v = sim.run_process(Box::new(RouteMonitor::new(cfg))).unwrap();
        assert_eq!(RouteMonitor::decode_choices(&v), vec![1, 1, 1]);
    }

    #[test]
    fn observer_sees_every_epoch_and_flags_changes() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let (mut sim, cfg) = world(3);
        let epochs = cfg.epochs;
        let seen: Rc<RefCell<Vec<EpochObservation>>> = Rc::default();
        let sink = Rc::clone(&seen);
        let monitor = RouteMonitor::new(cfg).with_observer(move |obs| sink.borrow_mut().push(obs));
        let v = sim.run_process(Box::new(monitor)).unwrap();
        let choices = RouteMonitor::decode_choices(&v);
        let seen = seen.borrow();
        assert_eq!(seen.len(), epochs);
        for (i, obs) in seen.iter().enumerate() {
            assert_eq!(obs.epoch, i);
            assert_eq!(obs.winner, choices[i], "observer winner matches choices");
            let expect_changed = i == 0 || choices[i] != choices[i - 1];
            assert_eq!(obs.changed, expect_changed, "epoch {i}");
            assert!(obs.predicted_secs.is_finite() && obs.predicted_secs > 0.0);
            assert!(i == 0 || seen[i - 1].at < obs.at, "epochs advance in time");
        }
    }

    #[test]
    #[should_panic(expected = "no routes")]
    fn empty_config_rejected() {
        RouteMonitor::new(MonitorConfig {
            routes: vec![],
            probe_bytes: 1,
            reference_bytes: 1,
            interval: SimTime::from_secs(1),
            epochs: 1,
            alpha: 0.5,
        });
    }
}
