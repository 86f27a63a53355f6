//! Greedy scenario shrinking.
//!
//! When a case fails, the raw reproducer is noisy: a dozen-node synthetic
//! WAN, background traffic, faults. [`shrink`] repeatedly tries
//! simplifying transformations — collapse the topology to a two-host star,
//! drop background/faults, remove jobs, clear detours, halve payloads —
//! keeping a candidate only if it *still fails*. First-improvement greedy
//! descent, bounded by an evaluation budget, same scheme as QuickCheck-style
//! shrinkers but over the scenario grammar instead of raw bytes.

use crate::runner::{check_case, RunOptions};
use crate::scenario::{ScenarioSpec, TopoSpec};

/// Smallest payload the shrinker will go down to.
const MIN_BYTES: u64 = 64 * 1024;

/// Result of a shrink run.
#[derive(Debug, Clone)]
pub struct ShrinkResult {
    /// The smallest still-failing spec found.
    pub spec: ScenarioSpec,
    /// Accepted shrink steps.
    pub steps: u32,
    /// Candidates evaluated, each one [`check_case`] call: two executions,
    /// three for a sync case, run side by side.
    pub evals: u32,
}

/// Candidate transformations, most aggressive first. Each returns a spec
/// strictly "smaller" than the input, so descent terminates.
fn candidates(spec: &ScenarioSpec) -> Vec<ScenarioSpec> {
    let mut out = Vec::new();

    // Collapse the whole topology to a 2-host star and retarget every job.
    if !matches!(spec.topo, TopoSpec::Star { hosts: 2, .. }) {
        let mut s = spec.clone();
        s.topo = TopoSpec::Star {
            hosts: 2,
            access_mbps: 10,
        };
        for j in &mut s.jobs {
            j.src = 0;
            j.dst = 1;
            j.via = None;
        }
        for b in &mut s.background {
            b.src = 0;
            b.dst = 1;
        }
        for c in &mut s.churn {
            c.src = 0;
            c.dst = 1;
        }
        for c in &mut s.chaos {
            c.client = 0;
            c.frontend = 1;
        }
        for y in &mut s.sync {
            y.client = 0;
            y.relay = 1;
        }
        out.push(s);
    }
    // Collapse a replicated world to a single cell: most shard-divergence
    // reproducers don't need more than one, and a single cell removes the
    // cross-cell fold from the picture entirely.
    if spec.replicas > 1 {
        let mut s = spec.clone();
        s.replicas = 1;
        out.push(s);
    }
    if !spec.background.is_empty() {
        let mut s = spec.clone();
        s.background.clear();
        out.push(s);
    }
    if !spec.faults.is_empty() {
        let mut s = spec.clone();
        s.faults.clear();
        out.push(s);
    }
    if !spec.churn.is_empty() {
        let mut s = spec.clone();
        s.churn.clear();
        out.push(s);
    }
    if spec.jitter_pct != 0 {
        let mut s = spec.clone();
        s.jitter_pct = 0;
        out.push(s);
    }

    // Per-item removals.
    if spec.jobs.len() > 1 {
        for i in 0..spec.jobs.len() {
            let mut s = spec.clone();
            s.jobs.remove(i);
            out.push(s);
        }
    }
    for i in 0..spec.faults.len() {
        let mut s = spec.clone();
        s.faults.remove(i);
        out.push(s);
    }
    for i in 0..spec.background.len() {
        let mut s = spec.clone();
        s.background.remove(i);
        out.push(s);
    }
    for (i, c) in spec.churn.iter().enumerate() {
        let mut s = spec.clone();
        s.churn.remove(i);
        out.push(s);
        // Halve the chain length too — shorter chains often still repro.
        if c.flows >= 2 {
            let mut s = spec.clone();
            s.churn[i].flows /= 2;
            out.push(s);
        }
    }

    // Per-chaos-session reductions: drop a session (keeping the spec
    // non-empty), halve its payload, strip its deadline, start it at zero.
    for (i, c) in spec.chaos.iter().enumerate() {
        if spec.chaos.len() > 1 || !spec.jobs.is_empty() {
            let mut s = spec.clone();
            s.chaos.remove(i);
            out.push(s);
        }
        if c.bytes / 2 >= MIN_BYTES {
            let mut s = spec.clone();
            s.chaos[i].bytes /= 2;
            out.push(s);
        }
        if c.deadline_ms != 0 {
            let mut s = spec.clone();
            s.chaos[i].deadline_ms = 0;
            out.push(s);
        }
        if c.start_ms != 0 {
            let mut s = spec.clone();
            s.chaos[i].start_ms = 0;
            out.push(s);
        }
    }

    // Per-sync-session reductions: drop a session (keeping the spec
    // non-empty), shed rounds and files, halve the file size, start at zero.
    for (i, y) in spec.sync.iter().enumerate() {
        if spec.sync.len() > 1 || !spec.jobs.is_empty() || !spec.chaos.is_empty() {
            let mut s = spec.clone();
            s.sync.remove(i);
            out.push(s);
        }
        if y.rounds > 1 {
            let mut s = spec.clone();
            s.sync[i].rounds = y.rounds / 2;
            out.push(s);
        }
        if y.files > 1 {
            let mut s = spec.clone();
            s.sync[i].files = y.files / 2;
            out.push(s);
        }
        if y.file_kb > 4 {
            let mut s = spec.clone();
            s.sync[i].file_kb = (y.file_kb / 2).max(4);
            out.push(s);
        }
        if y.start_ms != 0 {
            let mut s = spec.clone();
            s.sync[i].start_ms = 0;
            out.push(s);
        }
    }

    // Per-job simplifications.
    for (i, j) in spec.jobs.iter().enumerate() {
        if j.via.is_some() {
            let mut s = spec.clone();
            s.jobs[i].via = None;
            out.push(s);
        }
        if j.weight_pct != 100 {
            let mut s = spec.clone();
            s.jobs[i].weight_pct = 100;
            out.push(s);
        }
        if j.start_ms != 0 {
            let mut s = spec.clone();
            s.jobs[i].start_ms = 0;
            out.push(s);
        }
        if j.bytes / 2 >= MIN_BYTES {
            let mut s = spec.clone();
            s.jobs[i].bytes /= 2;
            out.push(s);
        }
    }

    // Topology reductions short of full collapse.
    match spec.topo {
        TopoSpec::Star { hosts, access_mbps } if hosts > 2 => {
            let mut s = spec.clone();
            s.topo = TopoSpec::Star {
                hosts: hosts - 1,
                access_mbps,
            };
            out.push(s);
        }
        TopoSpec::Synth {
            transit,
            stubs,
            hosts,
            core_mbps,
            access_lo_mbps,
            access_hi_mbps,
            topo_seed,
        } => {
            let mut push_if = |t: u32, st: u32, h: u32| {
                if (t, st, h) != (transit, stubs, hosts) {
                    out.push(ScenarioSpec {
                        topo: TopoSpec::Synth {
                            transit: t,
                            stubs: st,
                            hosts: h,
                            core_mbps,
                            access_lo_mbps,
                            access_hi_mbps,
                            topo_seed,
                        },
                        ..spec.clone()
                    });
                }
            };
            push_if(2, 1, 2);
            push_if(transit, stubs, (hosts / 2).max(2));
            push_if(2.max(transit / 2), 1.max(stubs / 2), hosts);
        }
        TopoSpec::Star { .. } => {}
    }

    out
}

/// Shrink `spec` to a smaller scenario that still fails under `opts`.
///
/// `budget` bounds the number of candidate evaluations (each one a
/// [`check_case`] call: two executions, three for a sync case). The input
/// spec is assumed to
/// fail; if it does not, it is returned unchanged with `evals == 0`.
pub fn shrink(spec: &ScenarioSpec, opts: RunOptions, budget: u32) -> ShrinkResult {
    let fails = |s: &ScenarioSpec| !check_case(s, opts).ok();
    let mut current = spec.clone();
    let mut steps = 0u32;
    let mut evals = 0u32;
    'descent: loop {
        for cand in candidates(&current) {
            if evals >= budget {
                break 'descent;
            }
            evals += 1;
            if fails(&cand) {
                current = cand;
                steps += 1;
                continue 'descent;
            }
        }
        break;
    }
    ShrinkResult {
        spec: current,
        steps,
        evals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::case_seed;

    #[test]
    fn candidates_are_strictly_smaller() {
        // Every candidate must differ from its parent, or descent could loop.
        let spec = ScenarioSpec::generate(case_seed(4, 2));
        for c in candidates(&spec) {
            assert_ne!(c, spec);
        }
        // Same property over the chaos scenario class.
        let spec = ScenarioSpec::generate_chaos(case_seed(4, 5));
        for c in candidates(&spec) {
            assert_ne!(c, spec);
            assert!(
                !c.jobs.is_empty() || !c.chaos.is_empty(),
                "shrinking must never empty the scenario"
            );
        }
        // And over the sync class.
        let spec = ScenarioSpec::generate_sync(case_seed(4, 9));
        for c in candidates(&spec) {
            assert_ne!(c, spec);
            assert!(
                !c.jobs.is_empty() || !c.chaos.is_empty() || !c.sync.is_empty(),
                "shrinking must never empty the scenario"
            );
        }
    }

    #[test]
    fn passing_spec_shrinks_to_itself_cheaply() {
        let spec = ScenarioSpec::generate(case_seed(4, 3));
        let res = shrink(&spec, RunOptions::default(), 20);
        // A clean engine fails nothing, so no candidate is ever accepted.
        assert_eq!(res.steps, 0);
        assert_eq!(res.spec, spec);
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn shrinks_injected_failure_to_minimal_star() {
        use crate::scenario::ScenarioSpec;
        let opts = RunOptions {
            rate_inflation: Some(1.5),
            ..Default::default()
        };
        // Find a failing generated case first.
        let spec = (0..16)
            .map(|i| ScenarioSpec::generate(case_seed(5, i)))
            .find(|s| !check_case(s, opts).ok())
            .expect("rate inflation must break some generated case");
        let res = shrink(&spec, opts, 300);
        assert!(
            !check_case(&res.spec, opts).ok(),
            "shrunk spec must still fail"
        );
        assert!(
            res.spec.topo.node_count() <= 4,
            "expected a minimal topology, got {:?}",
            res.spec.topo
        );
        assert!(res.spec.jobs.len() <= 2, "jobs: {:?}", res.spec.jobs);
    }
}
