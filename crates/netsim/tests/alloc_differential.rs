//! Differential property tests for the incremental allocator.
//!
//! Random sequences of flow arrivals/departures and capacity changes are
//! applied to [`FlowCore`] (incremental, component-scoped recompute) while
//! an independent reference allocation — a fresh [`max_min_allocate`] over
//! the full surviving state — is recomputed after every operation. The two
//! must agree within 1e-9 relative; a Reference-mode [`FlowCore`] driven by
//! the same operations must agree *bitwise* (the engine's digest parity
//! between allocator modes rests on this).
//!
//! The lockstep ([`FlowCore::enable_lockstep`]) runs the same bitwise
//! comparison inside the allocator: it must record nothing on the same
//! sequences and change no rate, and it must name the reallocation and
//! flow of an injected one-ulp fault.
//!
//! Also here: the single-pass capped-flow freeze is property-tested against
//! a copy of the previous one-at-a-time (argmin per round) algorithm, and
//! the degenerate empty-resource branch is pinned to [`MAX_FLOW_RATE`].

use netsim::flow::{max_min_allocate, AllocEntry, AllocMode, FlowCore, MAX_FLOW_RATE};
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum OpSpec {
    Insert {
        resources: Vec<u32>,
        cap: f64,
        weight: f64,
    },
    Remove {
        pick: usize,
    },
    SetCap {
        resource: u32,
        capacity: f64,
    },
}

/// Strategy: resource capacities plus a random operation sequence.
fn op_sequence() -> impl Strategy<Value = (Vec<f64>, Vec<OpSpec>)> {
    let caps = prop::collection::vec(1.0f64..1000.0, 1..8);
    caps.prop_flat_map(|caps| {
        let n = caps.len();
        // The vendored proptest has no `prop_oneof`; a discriminant field
        // picks the variant (4:2:1 insert/remove/set-capacity).
        let op = (
            0u8..7,
            (
                // Empty resource sets allowed: exercises the degenerate branch.
                prop::collection::btree_set(0..n as u32, 0..=n),
                prop::option::of(0.5f64..500.0),
                0.1f64..8.0,
            ),
            (0usize..16, 0..n as u32, 1.0f64..1000.0),
        )
            .prop_map(
                |(kind, (resources, cap, weight), (pick, resource, capacity))| match kind {
                    0..=3 => OpSpec::Insert {
                        resources: resources.into_iter().collect(),
                        cap: cap.unwrap_or(f64::INFINITY),
                        weight,
                    },
                    4..=5 => OpSpec::Remove { pick },
                    _ => OpSpec::SetCap { resource, capacity },
                },
            );
        (Just(caps), prop::collection::vec(op, 1..40))
    })
}

/// Strategy shaped like perfbench's `crowd` workload: 16–64 clients, each
/// with a private resource of its own capacity, sharing 1–3 resources, all
/// at indices spread over a 4,096-resource space. One flow per client
/// starts at once; then flows arrive (sometimes a second on one client),
/// depart and see capacities change. A flow is mostly bottlenecked on its
/// private resource, so a waterfill freezes about one flow per round, and
/// most departures leave an empty piece behind on the private resource.
fn crowd_sequence() -> impl Strategy<Value = (Vec<f64>, Vec<OpSpec>)> {
    (16usize..=64, 1usize..=3).prop_flat_map(|(clients, shared)| {
        let n = clients + shared;
        (
            prop::collection::btree_set(0..4096u32, n),
            prop::collection::vec(any::<u64>(), n),
            // Private capacities, distinct by construction (hundredths).
            prop::collection::btree_set(100u32..5000, clients),
            prop::collection::vec(500.0f64..5000.0, shared),
            prop::collection::vec(
                (
                    0u8..8,
                    (0usize..64, 1u8..8),
                    (prop::option::of(1.0f64..60.0), 0.5f64..4.0, 0u8..4),
                    (0usize..4096, 1.0f64..5000.0),
                ),
                40..120,
            ),
        )
            .prop_map(move |(indices, keys, private_caps, shared_caps, churn)| {
                // Shuffle the sorted indices so shared resources land
                // anywhere among the private ones.
                let mut order: Vec<(u64, u32)> = keys.into_iter().zip(indices).collect();
                order.sort_unstable();
                let (private, shared): (Vec<u32>, Vec<u32>) = (
                    order[..clients].iter().map(|&(_, r)| r).collect(),
                    order[clients..].iter().map(|&(_, r)| r).collect(),
                );
                let mut caps = vec![1000.0; 4096];
                for (&r, c) in private.iter().zip(&private_caps) {
                    caps[r as usize] = f64::from(*c) / 100.0;
                }
                for (&r, &c) in shared.iter().zip(&shared_caps) {
                    caps[r as usize] = c;
                }
                let flow = |client: usize, mask: u8| {
                    let mut resources = vec![private[client % clients]];
                    resources.extend(
                        shared
                            .iter()
                            .enumerate()
                            .filter(|(i, _)| mask & (1 << i) != 0)
                            .map(|(_, &r)| r),
                    );
                    resources
                };
                let mut ops: Vec<OpSpec> = (0..clients)
                    .map(|c| OpSpec::Insert {
                        resources: flow(c, 0b111),
                        cap: f64::INFINITY,
                        weight: 1.0,
                    })
                    .collect();
                ops.extend(churn.into_iter().map(
                    |(kind, (client, mask), (cap, weight, plain), (pick, capacity))| match kind {
                        0..=3 => OpSpec::Insert {
                            resources: flow(client, mask),
                            // Most flows are uncapped with weight 1, as in
                            // `crowd`; the rest exercise capped rounds and
                            // weighted shares.
                            cap: if plain == 0 {
                                cap.unwrap_or(f64::INFINITY)
                            } else {
                                f64::INFINITY
                            },
                            weight: if plain == 0 { weight } else { 1.0 },
                        },
                        4..=6 => OpSpec::Remove { pick },
                        _ if pick % 2 == 0 => OpSpec::SetCap {
                            resource: shared[pick % shared.len()],
                            capacity,
                        },
                        _ => OpSpec::SetCap {
                            resource: private[pick % clients],
                            capacity: capacity / 100.0,
                        },
                    },
                ));
                (caps, ops)
            })
    })
}

/// An incremental and a Reference-mode [`FlowCore`] driven through the
/// same operations, with the state a fresh [`max_min_allocate`] needs.
struct Twin {
    inc: FlowCore,
    refc: FlowCore,
    /// Incremental, with the lockstep on.
    lockstep: FlowCore,
    capacities: Vec<f64>,
    entries: HashMap<u64, AllocEntry>,
    live: Vec<u64>,
    next_id: u64,
}

impl Twin {
    fn new(caps: &[f64]) -> Self {
        let mut refc = FlowCore::new(caps.to_vec());
        refc.set_mode(AllocMode::Reference);
        let mut lockstep = FlowCore::new(caps.to_vec());
        lockstep.enable_lockstep();
        Twin {
            inc: FlowCore::new(caps.to_vec()),
            refc,
            lockstep,
            capacities: caps.to_vec(),
            entries: HashMap::new(),
            live: Vec::new(),
            next_id: 1,
        }
    }

    fn apply(&mut self, op: &OpSpec) {
        match op {
            OpSpec::Insert {
                resources,
                cap,
                weight,
            } => {
                let id = self.next_id;
                self.next_id += 1;
                self.inc.insert(id, id, resources, *cap, *weight);
                self.refc.insert(id, id, resources, *cap, *weight);
                self.lockstep.insert(id, id, resources, *cap, *weight);
                self.entries.insert(
                    id,
                    AllocEntry {
                        resources: resources.clone(),
                        cap: *cap,
                        weight: *weight,
                    },
                );
                self.live.push(id);
            }
            OpSpec::Remove { pick } => {
                if self.live.is_empty() {
                    return;
                }
                let id = self.live.remove(pick % self.live.len());
                assert!(self.inc.remove(id));
                assert!(self.refc.remove(id));
                assert!(self.lockstep.remove(id));
                self.entries.remove(&id);
            }
            OpSpec::SetCap { resource, capacity } => {
                self.inc.set_capacity(*resource, *capacity);
                self.refc.set_capacity(*resource, *capacity);
                self.lockstep.set_capacity(*resource, *capacity);
                self.capacities[*resource as usize] = *capacity;
            }
        }
    }

    /// The incremental allocator matches a fresh full recompute within
    /// 1e-9 relative and the Reference-mode core bitwise, rates and change
    /// lists alike; the lockstep core has recorded no divergence and
    /// matches the plain one bitwise.
    fn check(&self) {
        prop_assert_eq!(self.lockstep.divergence(), None);
        let flows: Vec<AllocEntry> = self
            .live
            .iter()
            .map(|id| self.entries[id].clone())
            .collect();
        let want = max_min_allocate(&self.capacities, &flows);
        for (id, want) in self.live.iter().zip(&want) {
            let got = self.inc.rate(*id).expect("live flow has a rate");
            prop_assert!(
                (got - want).abs() <= 1e-9 * want.abs().max(1.0),
                "flow {} diverged: incremental {} vs reference {}",
                id,
                got,
                want
            );
            // Mode parity is stronger: bit-identical.
            let got_ref = self.refc.rate(*id).expect("live flow has a rate");
            prop_assert!(
                got.to_bits() == got_ref.to_bits(),
                "flow {} mode divergence: incremental {} vs reference-mode {}",
                id,
                got,
                got_ref
            );
            let got_lockstep = self.lockstep.rate(*id).expect("live flow has a rate");
            prop_assert!(got.to_bits() == got_lockstep.to_bits());
        }
        // Change lists must agree too (the engine schedules completion
        // events from them).
        prop_assert_eq!(self.inc.changes().len(), self.refc.changes().len());
        for (a, b) in self.inc.changes().iter().zip(self.refc.changes()) {
            prop_assert_eq!(a.id, b.id);
            prop_assert_eq!(a.token, b.token);
            prop_assert!(a.rate.to_bits() == b.rate.to_bits());
        }
    }
}

proptest! {
    /// After every operation the incremental allocator matches a fresh
    /// full-recompute reference within 1e-9 relative, and a Reference-mode
    /// FlowCore driven identically matches bitwise.
    #[test]
    fn incremental_matches_reference((caps, ops) in op_sequence()) {
        let mut twin = Twin::new(&caps);
        for op in &ops {
            twin.apply(op);
            twin.check();
        }
    }

    /// The single-pass capped-flow freeze produces the same allocation as
    /// the previous one-at-a-time (argmin per round) algorithm.
    #[test]
    fn single_pass_capped_freeze_unchanged((caps, flows) in legacy_problem()) {
        let new = max_min_allocate(&caps, &flows);
        let old = max_min_allocate_one_at_a_time(&caps, &flows);
        for (j, (a, b)) in new.iter().zip(&old).enumerate() {
            prop_assert!(
                (a - b).abs() <= 1e-9 * b.abs().max(1.0),
                "flow {} changed: single-pass {} vs one-at-a-time {}",
                j, a, b
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    /// The same agreement on crowd-shaped churn, where one waterfill runs
    /// as many rounds as its component has flows (up to 64).
    #[test]
    fn incremental_matches_reference_on_many_round_waterfills((caps, ops) in crowd_sequence()) {
        let mut twin = Twin::new(&caps);
        for op in &ops {
            twin.apply(op);
            twin.check();
        }
    }
}

/// Strategy matching prop_invariants' allocation problems (non-empty
/// resource sets, frequent finite caps — the TCP-capped common case).
fn legacy_problem() -> impl Strategy<Value = (Vec<f64>, Vec<AllocEntry>)> {
    let caps = prop::collection::vec(1.0f64..1000.0, 1..8);
    caps.prop_flat_map(|caps| {
        let n = caps.len();
        let flow = (
            prop::collection::btree_set(0..n as u32, 1..=n),
            prop::option::of(0.5f64..500.0),
            0.1f64..8.0,
        )
            .prop_map(|(resources, cap, weight)| AllocEntry {
                resources: resources.into_iter().collect(),
                cap: cap.unwrap_or(f64::INFINITY),
                weight,
            });
        (Just(caps), prop::collection::vec(flow, 1..16))
    })
}

/// The pre-single-pass allocator, kept verbatim as the equivalence oracle:
/// each round freezes at most *one* capped flow (the argmin of cap/weight).
fn max_min_allocate_one_at_a_time(capacities: &[f64], flows: &[AllocEntry]) -> Vec<f64> {
    let nf = flows.len();
    let mut rates = vec![0.0_f64; nf];
    if nf == 0 {
        return rates;
    }
    let mut frozen = vec![false; nf];
    let mut remaining: Vec<f64> = capacities.to_vec();
    let mut load = vec![0.0_f64; capacities.len()];
    for f in flows {
        for &r in &f.resources {
            load[r as usize] += f.weight;
        }
    }
    let freeze = |j: usize,
                  rate: f64,
                  rates: &mut [f64],
                  frozen: &mut [bool],
                  remaining: &mut [f64],
                  load: &mut [f64]| {
        rates[j] = rate;
        frozen[j] = true;
        for &r in &flows[j].resources {
            remaining[r as usize] -= rate;
            load[r as usize] -= flows[j].weight;
        }
    };
    let mut unfrozen = nf;
    while unfrozen > 0 {
        let mut unit_share = f64::INFINITY;
        for (r, &rem) in remaining.iter().enumerate() {
            if load[r] > 1e-12 {
                unit_share = unit_share.min(rem.max(0.0) / load[r]);
            }
        }
        let mut capped: Option<usize> = None;
        let mut min_unit_cap = unit_share;
        for (j, f) in flows.iter().enumerate() {
            if !frozen[j] && f.cap / f.weight < min_unit_cap {
                min_unit_cap = f.cap / f.weight;
                capped = Some(j);
            }
        }
        if let Some(j) = capped {
            freeze(
                j,
                flows[j].cap,
                &mut rates,
                &mut frozen,
                &mut remaining,
                &mut load,
            );
            unfrozen -= 1;
            continue;
        }
        if !unit_share.is_finite() {
            for j in 0..nf {
                if !frozen[j] {
                    rates[j] = flows[j].cap.min(MAX_FLOW_RATE);
                    frozen[j] = true;
                }
            }
            break;
        }
        let mut froze_any = false;
        for r in 0..remaining.len() {
            if load[r] <= 1e-12 {
                continue;
            }
            let share = remaining[r].max(0.0) / load[r];
            if share <= unit_share * (1.0 + 1e-12) {
                let on_r: Vec<usize> = flows
                    .iter()
                    .enumerate()
                    .filter(|(j, f)| !frozen[*j] && f.resources.contains(&(r as u32)))
                    .map(|(j, _)| j)
                    .collect();
                for j in on_r {
                    if !frozen[j] {
                        let rate = unit_share * flows[j].weight;
                        freeze(j, rate, &mut rates, &mut frozen, &mut remaining, &mut load);
                        unfrozen -= 1;
                        froze_any = true;
                    }
                }
            }
        }
        if !froze_any {
            break;
        }
    }
    rates
}

/// Regression (satellite fix): an *uncapped* flow crossing no loaded
/// resource used to be allocated `f64::INFINITY`; it must now clamp to the
/// finite engine ceiling. A capped empty-resource flow still gets its cap.
#[test]
fn empty_resource_flow_rate_is_finite() {
    let flows = [
        AllocEntry::new(vec![], f64::INFINITY),
        AllocEntry::new(vec![], 42.0),
    ];
    let rates = max_min_allocate(&[], &flows);
    assert_eq!(rates[0], MAX_FLOW_RATE);
    assert!(rates[0].is_finite());
    assert_eq!(rates[1], 42.0);

    let mut core = FlowCore::new(vec![]);
    core.insert(1, 1, &[], f64::INFINITY, 1.0);
    core.insert(2, 2, &[], 7.5, 1.0);
    assert_eq!(core.rate(1), Some(MAX_FLOW_RATE));
    assert_eq!(core.rate(2), Some(7.5));
}

/// Many TCP-capped flows on one link: the case the single-pass freeze
/// de-quadratizes. All are cap-bound; capacity is amply sufficient.
#[test]
fn many_capped_flows_single_link() {
    let flows: Vec<AllocEntry> = (0..100)
        .map(|i| AllocEntry::new(vec![0], 1.0 + i as f64 * 0.01))
        .collect();
    let rates = max_min_allocate(&[1000.0], &flows);
    for (f, r) in flows.iter().zip(&rates) {
        assert!(
            (r - f.cap).abs() < 1e-9,
            "capped flow got {r}, cap {}",
            f.cap
        );
    }
}

/// An injected one-ulp fault is recorded, not panicked on, even in debug
/// builds: the third flow on a shared link makes the first component of
/// three, whose largest id is nudged, so reallocation 3 names flow 3.
#[cfg(feature = "failpoints")]
#[test]
fn lockstep_records_an_injected_ulp_nudge() {
    let mut core = FlowCore::new(vec![300.0, 1000.0]);
    core.enable_lockstep();
    core.inject_ulp_nudge();
    core.insert(1, 1, &[0], f64::INFINITY, 1.0);
    core.insert(2, 2, &[0, 1], f64::INFINITY, 1.0);
    assert_eq!(core.divergence(), None);
    core.insert(3, 3, &[0], f64::INFINITY, 2.0);
    let d = core.divergence().expect("the nudge must be noticed");
    assert_eq!((d.realloc, d.flow), (3, 3));
    assert_eq!(d.got, d.want.next_up());
    assert_eq!(d.want, 150.0);
    // Later reallocations keep the first divergence.
    core.remove(1);
    assert_eq!(core.divergence(), Some(d));
}
