//! Property test for the allocator-side component census:
//! [`FlowCore::components`] must report exactly the connected components
//! of the resource↔flow coupling graph under random churn, in canonical
//! order, checked against a from-scratch BFS reference. The crowd
//! workload's benchmark reads this census through `Sim::flow_components`.

use netsim::flow::FlowCore;
use proptest::prelude::*;

/// One step of random churn over the coupling graph.
#[derive(Debug, Clone)]
enum Op {
    /// Insert a fresh flow crossing the given resources (indices mod R).
    Insert(Vec<u32>),
    /// Remove the i-th oldest live flow (index mod live count).
    Remove(usize),
}

// The vendored proptest has no `prop_oneof`; a discriminant field picks
// the variant instead (same scheme as alloc_differential.rs).
fn op_strategy(resources: u32) -> impl Strategy<Value = Op> {
    (
        0u8..5,
        proptest::collection::vec(0..resources, 0..4),
        0usize..64,
    )
        .prop_map(|(which, rs, i)| {
            if which < 3 {
                Op::Insert(rs)
            } else {
                Op::Remove(i)
            }
        })
}

/// Reference connected components, computed from scratch by breadth-first
/// search over the resource↔flow bipartite graph, in the census's
/// canonical form: each component's flow ids sorted ascending, components
/// ordered by their smallest member id, flows crossing no resources as
/// singletons.
fn reference_components(n_resources: usize, flows: &[(u64, Vec<u32>)]) -> Vec<Vec<u64>> {
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); n_resources];
    for (fi, (_, rs)) in flows.iter().enumerate() {
        for &r in rs {
            members[r as usize].push(fi);
        }
    }
    let mut flow_seen = vec![false; flows.len()];
    let mut res_seen = vec![false; n_resources];
    let mut out: Vec<Vec<u64>> = Vec::new();
    for start in 0..flows.len() {
        if flow_seen[start] {
            continue;
        }
        flow_seen[start] = true;
        let mut comp = vec![flows[start].0];
        let mut frontier: Vec<u32> = Vec::new();
        for &r in &flows[start].1 {
            if !res_seen[r as usize] {
                res_seen[r as usize] = true;
                frontier.push(r);
            }
        }
        while let Some(r) = frontier.pop() {
            for &fi in &members[r as usize] {
                if !flow_seen[fi] {
                    flow_seen[fi] = true;
                    comp.push(flows[fi].0);
                    for &r2 in &flows[fi].1 {
                        if !res_seen[r2 as usize] {
                            res_seen[r2 as usize] = true;
                            frontier.push(r2);
                        }
                    }
                }
            }
        }
        comp.sort_unstable();
        out.push(comp);
    }
    out.sort_unstable_by_key(|c| c[0]);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// After any insert/remove sequence the census equals the BFS
    /// reference over the live flows and covers every active flow.
    #[test]
    fn flowcore_census_matches_bfs_reference(
        resources in 1u32..10,
        ops in proptest::collection::vec(op_strategy(10), 0..60),
    ) {
        let caps = vec![1e9; resources as usize];
        let mut core = FlowCore::new(caps);
        let mut live: Vec<(u64, Vec<u32>)> = Vec::new();
        let mut next_id = 0u64;
        for op in &ops {
            match op {
                Op::Insert(rs) => {
                    let mut rs: Vec<u32> = rs.iter().map(|r| r % resources).collect();
                    rs.sort_unstable();
                    rs.dedup();
                    core.insert(next_id, next_id, &rs, f64::INFINITY, 1.0);
                    live.push((next_id, rs));
                    next_id += 1;
                }
                Op::Remove(i) => {
                    if !live.is_empty() {
                        let (id, _) = live.remove(i % live.len());
                        core.remove(id);
                    }
                }
            }
        }
        prop_assert_eq!(
            core.components(),
            reference_components(resources as usize, &live)
        );
        let census: usize = core.components().iter().map(Vec::len).sum();
        prop_assert_eq!(census, core.len(), "census covers every active flow");
    }
}

#[test]
fn reference_splits_a_small_graph() {
    let flows: Vec<(u64, Vec<u32>)> = vec![
        (10, vec![0, 1]),
        (11, vec![1]),
        (12, vec![2, 3]),
        (13, vec![3]),
        (14, vec![]),
    ];
    assert_eq!(
        reference_components(4, &flows),
        vec![vec![10, 11], vec![12, 13], vec![14]]
    );
}
