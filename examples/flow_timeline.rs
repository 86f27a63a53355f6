//! Watch a flow's rate over time: why Purdue→Google Drive is pathological.
//!
//! Enables telemetry, uploads 100 MB directly from Purdue while the
//! simulated commodity peering seethes with background traffic, rebuilds
//! the flow's achieved-rate timeline from its `flow.rate` events and prints
//! it as a sparkline — the shape behind the enormous error bars of the
//! paper's Fig 7.
//!
//! ```sh
//! cargo run --release --example flow_timeline
//! ```

use routing_detours::measure::chart::sparkline;
use routing_detours::netsim::engine::{Ctx, Event, Process, Value};
use routing_detours::netsim::flow::{FlowClass, FlowSpec};
use routing_detours::netsim::topology::NodeId;
use routing_detours::netsim::units::MB;
use routing_detours::obs::{ArgValue, Recording};
use routing_detours::scenarios::NorthAmerica;

/// Runs one raw flow and finishes with its id (so we can find its span).
struct TracedFlow {
    src: NodeId,
    dst: NodeId,
    bytes: u64,
}

impl Process for TracedFlow {
    fn poll(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        match ev {
            Event::Started => {
                ctx.start_flow(FlowSpec::new(
                    self.src,
                    self.dst,
                    self.bytes,
                    FlowClass::PlanetLab,
                ))
                .expect("flow starts");
            }
            Event::FlowCompleted { flow, elapsed, .. } => {
                ctx.finish(Value::List(vec![Value::U64(flow.0), Value::Time(elapsed)]));
            }
            _ => {}
        }
    }
}

/// Flow `id`'s `(time ns, bytes/sec)` rate change points, closed by a zero
/// rate at its drain: its span ends at delivery, `delay_ns` after the drain.
fn rate_timeline(rec: &Recording, id: u64, delay_ns: u64) -> Vec<(u64, f64)> {
    let span = rec
        .spans
        .iter()
        .find(|s| s.name == "flow" && s.args.contains(&("flow", ArgValue::U64(id))))
        .expect("flow span");
    let mut points: Vec<(u64, f64)> = rec
        .events
        .iter()
        .filter(|e| e.name == "flow.rate" && e.parent == span.id)
        .filter_map(|e| match e.args[..] {
            [("bytes_per_sec", ArgValue::F64(rate))] => Some((e.t_ns, rate)),
            _ => None,
        })
        .collect();
    points.push((span.end_ns.expect("flow delivered") - delay_ns, 0.0));
    points
}

/// Resample a step function of rate change points into `n` equal time
/// buckets of average rate (bytes/sec) between its first and last points.
fn sample(points: &[(u64, f64)], n: usize) -> Vec<f64> {
    let secs = |ns: u64| ns as f64 / 1e9;
    let t0 = secs(points[0].0);
    let t1 = secs(points[points.len() - 1].0);
    let span = (t1 - t0).max(1e-12);
    let bucket = span / n as f64;
    let mut out = vec![0.0f64; n];
    for w in points.windows(2) {
        let (mut a, rate) = (secs(w[0].0), w[0].1);
        let b = secs(w[1].0);
        while a < b {
            let idx = (((a - t0) / bucket) as usize).min(n - 1);
            let bucket_end = t0 + (idx + 1) as f64 * bucket;
            let step = (b.min(bucket_end) - a).max(0.0);
            out[idx] += rate * step;
            a += step.max(1e-12);
        }
    }
    for v in &mut out {
        *v /= bucket;
    }
    out
}

fn main() {
    let world = NorthAmerica::new();
    let n = *world.nodes();

    println!("100 MB raw transfer, rate over time (64 buckets, bucket = total/64):\n");
    for (label, src, dst) in [
        (
            "Purdue -> Google (congested commodity peering)",
            n.purdue,
            n.google_pop,
        ),
        (
            "UBC    -> Google (pacificwave policer)",
            n.ubc,
            n.google_pop,
        ),
        ("UBC    -> UAlberta (clean CANARIE)", n.ubc, n.ualberta),
    ] {
        let mut sim = world.build_sim(11);
        sim.enable_telemetry();
        let v = sim
            .run_process(Box::new(TracedFlow {
                src,
                dst,
                bytes: 100 * MB,
            }))
            .expect("transfer completes");
        let items = v.expect_list();
        let flow = items[0].expect_u64();
        let elapsed = items[1].expect_time();
        let core = sim.core();
        let path = core.resolve_path(src, dst).expect("routed");
        let topo = core.topology();
        let delay = topo.path_delay(&topo.links_on_path(&path).expect("valid path"));
        let rec = sim.take_telemetry().expect("telemetry enabled above");
        let samples = sample(&rate_timeline(&rec, flow, delay.as_nanos()), 64);
        let mean_mbps = samples.iter().sum::<f64>() / samples.len() as f64 * 8.0 / 1e6;
        println!("{label}");
        println!("  {}", sparkline(&samples));
        println!("  total {elapsed}, mean rate {mean_mbps:.1} Mbps\n");
    }
    println!("The Purdue line is the paper's story: a bursty, contended peering where");
    println!("per-run luck decides whether a 100 MB upload takes 8 or 14 minutes.");
}
