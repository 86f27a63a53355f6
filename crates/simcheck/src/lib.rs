//! # simcheck — deterministic simulation checking for `netsim`
//!
//! The paper's conclusions rest on simulated transfer timings; a silent
//! engine bug (over-allocating a link, unfair sharing, nondeterministic
//! replay) would corrupt every downstream table. This crate stress-tests
//! the simulator the way FoundationDB/TigerBeetle-style deterministic
//! simulation testing does:
//!
//! * [`scenario`] generates randomized topologies and workloads far beyond
//!   the hand-built NorthAmerica scenario — random WANs, detour jobs,
//!   background traffic mixes, link-fault schedules — each fully described
//!   by a replayable, JSON-serializable [`ScenarioSpec`]. A second *chaos*
//!   class ([`ScenarioClass::Chaos`]) stresses the resilience layer:
//!   cloud-upload sessions under throttle storms, transient-error bursts
//!   and mid-transfer capacity faults, each checked against a termination
//!   bound derived from its retry budget or deadline.
//! * [`oracle`] installs an [`netsim::audit::AuditHook`] that checks
//!   invariants after *every* engine event: byte conservation per flow,
//!   no link above capacity, max-min fairness, clock monotonicity — and
//!   chains per-event state digests so two same-seed executions can be
//!   compared bit-for-bit.
//! * [`runner`] builds the world a spec describes and executes it. The
//!   first execution is a full audit: every invariant, with the reference
//!   allocator, routing and progress backends run in lockstep with the
//!   production ones, each reporting the step where they part
//!   ([`Violation::AllocatorDivergence`], [`Violation::RoutingDivergence`],
//!   [`Violation::ProgressDivergence`]). A second execution runs every
//!   cell again on the sharded executor's worker threads, folds the chain
//!   digest alone, and must match the first bit for bit — the determinism
//!   check ([`Violation::ShardDivergence`]). A sync case adds a third,
//!   fully audited run with the relay chunk store bypassed. The executions
//!   share no state, so [`check_case`] runs them side by side on scoped
//!   threads and reports their findings in one fixed order.
//! * [`mod@shrink`] reduces a failing scenario to a minimal reproducer.
//!
//! The `detour check` CLI subcommand and the `tests/simcheck_invariants.rs`
//! integration test drive [`run_check`]; `--replay` re-executes a saved
//! spec. Specs and verdicts are JSON through [`obs::json`], the
//! workspace's one codec; a replayed spec is bounds-checked field by field
//! ([`ScenarioSpec::from_json`]), so a hand-edited file gets an error that
//! names the field instead of a crash. The `failpoints` feature (forwarded to `netsim`) adds
//! fault-injection knobs used to prove the oracles actually catch a broken
//! engine.

pub mod oracle;
pub mod runner;
pub mod scenario;
pub mod shrink;

use obs::Json;
pub use oracle::{OracleHandle, Violation};
pub use runner::{
    check_case, run_once, run_sharded, CaseResult, RunOptions, RunOutcome, SHARD_WORKER_COUNTS,
};
pub use scenario::{
    case_seed, BgSpec, ChaosSpec, ChurnSpec, FaultSpec, JobSpec, ScenarioSpec, SyncSpec, TopoSpec,
};
pub use shrink::{shrink, ShrinkResult};

/// Which scenario family a check run draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScenarioClass {
    /// Randomized WANs, detour jobs, background mixes, churn
    /// ([`ScenarioSpec::generate`]).
    #[default]
    Standard,
    /// Resilience stress: cloud-upload sessions under throttle storms,
    /// transient-error bursts and mid-transfer capacity faults, checked
    /// against per-session termination bounds
    /// ([`ScenarioSpec::generate_chaos`]).
    Chaos,
    /// Delta-sync stress: deterministically mutating file populations
    /// rsynced to relay chunk stores round by round, with every applied
    /// delta verified byte-for-byte and a cache-bypass differential
    /// proving the chunk store never changes delivered content
    /// ([`ScenarioSpec::generate_sync`]).
    Sync,
}

/// Configuration for a batch check run.
#[derive(Debug, Clone, Copy)]
pub struct CheckConfig {
    /// Number of generated cases.
    pub cases: u32,
    /// Base seed; case `i` runs scenario [`case_seed`]`(seed, i)`.
    pub seed: u64,
    /// Scenario family to generate.
    pub class: ScenarioClass,
    /// Optional engine fault injection (needs the `failpoints` feature).
    pub rate_inflation: Option<f64>,
    /// Max candidate evaluations when shrinking a failure.
    pub shrink_budget: u32,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            cases: 64,
            seed: 7,
            class: ScenarioClass::Standard,
            rate_inflation: None,
            shrink_budget: 200,
        }
    }
}

/// One failed case in a [`CheckReport`].
#[derive(Debug, Clone)]
pub struct CaseFailure {
    /// Index within the batch.
    pub case_index: u32,
    /// The derived scenario seed (replays independently of the batch).
    pub case_seed: u64,
    /// Violations of the *shrunk* reproducer.
    pub violations: Vec<Violation>,
    /// Minimal still-failing scenario.
    pub shrunk: ScenarioSpec,
    /// Accepted shrink steps.
    pub shrink_steps: u32,
}

/// Outcome of [`run_check`] / a replay.
#[derive(Debug, Clone, Default)]
pub struct CheckReport {
    /// Cases that held every invariant.
    pub passed: u32,
    /// Cases that violated at least one.
    pub failures: Vec<CaseFailure>,
    /// Total engine events audited across all first executions.
    pub events: u64,
    /// Every case's first-execution chain digest, folded in case order by
    /// [`netsim::shard::fold_digests`]: it pins the state after every
    /// audited event, where `events` pins only their count.
    pub chain: u64,
}

impl CheckReport {
    /// Did every case pass?
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// Machine-readable verdict for the CLI / CI.
    pub fn to_json(&self) -> String {
        let failures = self
            .failures
            .iter()
            .map(|f| {
                let violations = f
                    .violations
                    .iter()
                    .map(|v| {
                        Json::Obj(vec![
                            ("kind".into(), Json::Str(v.kind().into())),
                            ("detail".into(), Json::Str(v.to_string())),
                        ])
                    })
                    .collect();
                Json::Obj(vec![
                    ("case_index".into(), Json::Int(f.case_index as u64)),
                    ("case_seed".into(), Json::Int(f.case_seed)),
                    ("violations".into(), Json::Arr(violations)),
                    ("shrink_steps".into(), Json::Int(f.shrink_steps as u64)),
                    ("shrunk".into(), f.shrunk.to_json_value()),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("ok".into(), Json::Bool(self.ok())),
            ("passed".into(), Json::Int(self.passed as u64)),
            ("failed".into(), Json::Int(self.failures.len() as u64)),
            ("events".into(), Json::Int(self.events)),
            ("chain".into(), Json::Str(format!("{:016x}", self.chain))),
            ("failures".into(), Json::Arr(failures)),
        ])
        .render()
    }
}

/// Run a batch of generated cases; shrink each failure to a minimal
/// reproducer.
pub fn run_check(config: CheckConfig) -> CheckReport {
    let opts = RunOptions {
        rate_inflation: config.rate_inflation,
        ..Default::default()
    };
    let mut report = CheckReport::default();
    let mut chains = Vec::with_capacity(config.cases as usize);
    for i in 0..config.cases {
        let seed = case_seed(config.seed, i);
        let spec = match config.class {
            ScenarioClass::Standard => ScenarioSpec::generate(seed),
            ScenarioClass::Chaos => ScenarioSpec::generate_chaos(seed),
            ScenarioClass::Sync => ScenarioSpec::generate_sync(seed),
        };
        let res = check_case(&spec, opts);
        report.events += res.events;
        chains.push(res.chain_digest);
        if res.ok() {
            report.passed += 1;
            continue;
        }
        let shrunk = shrink(&spec, opts, config.shrink_budget);
        let violations = check_case(&shrunk.spec, opts).violations;
        report.failures.push(CaseFailure {
            case_index: i,
            case_seed: seed,
            violations,
            shrunk: shrunk.spec,
            shrink_steps: shrunk.steps,
        });
    }
    report.chain = netsim::shard::fold_digests(&chains);
    report
}

/// Re-execute a saved scenario spec (the CLI's `--replay`).
pub fn replay(spec_json: &str, rate_inflation: Option<f64>) -> Result<CheckReport, String> {
    let spec = ScenarioSpec::from_json(spec_json)?;
    let res = check_case(
        &spec,
        RunOptions {
            rate_inflation,
            ..Default::default()
        },
    );
    let mut report = CheckReport {
        passed: 0,
        failures: vec![],
        events: res.events,
        chain: res.chain_digest,
    };
    if res.ok() {
        report.passed = 1;
    } else {
        report.failures.push(CaseFailure {
            case_index: 0,
            case_seed: spec.seed,
            violations: res.violations,
            shrunk: spec,
            shrink_steps: 0,
        });
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_batch_is_clean_and_reports_json() {
        let report = run_check(CheckConfig {
            cases: 4,
            seed: 7,
            shrink_budget: 10,
            ..Default::default()
        });
        assert!(report.ok(), "failures: {:?}", report.failures);
        assert_eq!(report.passed, 4);
        let v = Json::parse(&report.to_json()).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("passed").and_then(Json::as_u64), Some(4));
        // "chain" folds each case's first-execution chain digest in order.
        let chains: Vec<u64> = (0..4)
            .map(|i| {
                let spec = ScenarioSpec::generate(case_seed(7, i));
                check_case(&spec, RunOptions::default()).chain_digest
            })
            .collect();
        assert_eq!(report.chain, netsim::shard::fold_digests(&chains));
        let chain = format!("{:016x}", report.chain);
        assert_eq!(v.get("chain").and_then(Json::as_str), Some(chain.as_str()));
        // A replayed case's chain is that case's own digest.
        let spec = ScenarioSpec::generate(case_seed(7, 2));
        assert_eq!(replay(&spec.to_json(), None).unwrap().chain, chains[2]);
    }

    #[test]
    fn chaos_batch_is_clean() {
        let report = run_check(CheckConfig {
            cases: 3,
            seed: 11,
            class: ScenarioClass::Chaos,
            shrink_budget: 10,
            ..Default::default()
        });
        assert!(report.ok(), "failures: {:?}", report.failures);
        assert_eq!(report.passed, 3);
    }

    #[test]
    fn sync_batch_is_clean() {
        let report = run_check(CheckConfig {
            cases: 3,
            seed: 13,
            class: ScenarioClass::Sync,
            shrink_budget: 10,
            ..Default::default()
        });
        assert!(report.ok(), "failures: {:?}", report.failures);
        assert_eq!(report.passed, 3);
    }

    #[test]
    fn replay_round_trips_a_spec() {
        let spec = ScenarioSpec::generate(case_seed(7, 1));
        let report = replay(&spec.to_json(), None).unwrap();
        assert!(report.ok());
        assert!(replay("{not json", None).is_err());
    }
}
