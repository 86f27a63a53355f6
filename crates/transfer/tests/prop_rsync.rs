//! Property tests: the rsync round trip is the identity, for arbitrary
//! basis/target pairs and block sizes.

use proptest::prelude::*;
use transfer::syncpop::{mutate, MutationKind, MutationMix, SyncPopulation, SyncPopulationConfig};
use transfer::{apply_delta, compute_delta, DeltaOp, FileGen, Md5, RsyncWirePlan, Signature};

/// Arbitrary single mutations for history-driven tests: a kind selector
/// plus two free parameters, mapped onto the enum's fields.
fn mutation_strategy() -> impl Strategy<Value = MutationKind> {
    (0u8..5, 0usize..24_000, 1usize..8192).prop_map(|(kind, a, b)| match kind {
        0 => MutationKind::Edit { edits: 1 + a % 32 },
        1 => MutationKind::Append {
            bytes: 1 + a % 4096,
        },
        2 => MutationKind::Rewrite { offset: a, len: b },
        3 => MutationKind::Truncate { new_len: a },
        _ => MutationKind::Churn {
            new_len: a % 12_000,
        },
    })
}

/// The wire cost the plan must report for a concrete delta: 5 bytes framing
/// per op (+ the payload for literals) plus the 40-byte trailer — recomputed
/// here from the op list, independently of `Delta::wire_bytes`.
fn expected_delta_wire_bytes(ops: &[DeltaOp]) -> u64 {
    ops.iter()
        .map(|op| match op {
            DeltaOp::Literal(v) => 5 + v.len() as u64,
            DeltaOp::Copy { .. } => 5,
        })
        .sum::<u64>()
        + 40
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// patch(basis, delta(basis, target)) == target — the fundamental
    /// correctness property of the rsync algorithm.
    #[test]
    fn round_trip_identity(
        basis in prop::collection::vec(any::<u8>(), 0..8192),
        target in prop::collection::vec(any::<u8>(), 0..8192),
        block_size in 1usize..2048,
    ) {
        let sig = Signature::compute(&basis, block_size);
        let delta = compute_delta(&sig, &target);
        let rebuilt = apply_delta(&basis, block_size, &delta).unwrap();
        prop_assert_eq!(rebuilt, target);
    }

    /// Round trip over structured (generated + mutated) files, which have
    /// far more block matches than independent random buffers.
    #[test]
    fn round_trip_similar_files(
        seed in any::<u64>(),
        len in 0usize..40_000,
        edits in 0usize..20,
        append in 0usize..2000,
        block_size in prop::sample::select(vec![128usize, 512, 2048, 8192]),
    ) {
        let g = FileGen::new(seed);
        let basis = g.random_file(len);
        let target = g.similar_file(&basis, edits, append);
        let sig = Signature::compute(&basis, block_size);
        let delta = compute_delta(&sig, &target);
        let rebuilt = apply_delta(&basis, block_size, &delta).unwrap();
        prop_assert_eq!(Md5::digest(&rebuilt), delta.target_md5);
        prop_assert_eq!(rebuilt, target);
    }

    /// Truncation: syncing any prefix of the basis back over the basis is
    /// still the identity, and a truncated target never costs more literal
    /// bytes than its own length.
    #[test]
    fn round_trip_truncated_target(
        seed in any::<u64>(),
        len in 1usize..30_000,
        keep_permille in 0usize..=1000,
        block_size in prop::sample::select(vec![128usize, 512, 2048]),
    ) {
        let g = FileGen::new(seed);
        let basis = g.random_file(len);
        let target = &basis[..len * keep_permille / 1000];
        let sig = Signature::compute(&basis, block_size);
        let delta = compute_delta(&sig, target);
        let rebuilt = apply_delta(&basis, block_size, &delta).unwrap();
        prop_assert_eq!(&rebuilt[..], target);
        prop_assert!(delta.literal_bytes() <= target.len() as u64);
    }

    /// Pure append: the tail beyond the basis is the only new content, so
    /// the delta's literal payload is bounded by the appended bytes plus at
    /// most one partial block of resynchronization slack.
    #[test]
    fn round_trip_pure_append(
        seed in any::<u64>(),
        len in 0usize..30_000,
        append in 0usize..4000,
        block_size in prop::sample::select(vec![128usize, 512, 2048]),
    ) {
        let g = FileGen::new(seed);
        let basis = g.random_file(len);
        let mut target = basis.clone();
        target.extend(g.random_file(append));
        let sig = Signature::compute(&basis, block_size);
        let delta = compute_delta(&sig, &target);
        let rebuilt = apply_delta(&basis, block_size, &delta).unwrap();
        prop_assert_eq!(Md5::digest(&rebuilt), delta.target_md5);
        prop_assert_eq!(rebuilt, target);
        prop_assert!(
            delta.literal_bytes() <= (append + block_size) as u64,
            "append {} of {} literal bytes at block {}",
            append, delta.literal_bytes(), block_size
        );
    }

    /// Random edits + truncation + append combined — the messy real-world
    /// shape of a re-uploaded file — still round-trips exactly.
    #[test]
    fn round_trip_edit_truncate_append(
        seed in any::<u64>(),
        len in 1usize..30_000,
        edits in 0usize..16,
        keep_permille in 0usize..=1000,
        append in 0usize..3000,
        block_size in prop::sample::select(vec![128usize, 512, 2048, 8192]),
    ) {
        let g = FileGen::new(seed);
        let basis = g.random_file(len);
        let edited = g.similar_file(&basis, edits, 0);
        let mut target = edited[..edited.len() * keep_permille / 1000].to_vec();
        target.extend(g.random_file(append));
        let sig = Signature::compute(&basis, block_size);
        let delta = compute_delta(&sig, &target);
        let rebuilt = apply_delta(&basis, block_size, &delta).unwrap();
        prop_assert_eq!(Md5::digest(&rebuilt), delta.target_md5);
        prop_assert_eq!(rebuilt, target);
    }

    /// The delta never carries more literal payload than the target itself,
    /// and the wire plan's delta bytes dominate the literal payload.
    #[test]
    fn delta_is_bounded(
        seed in any::<u64>(),
        len in 0usize..20_000,
        block_size in prop::sample::select(vec![512usize, 2048]),
    ) {
        let g = FileGen::new(seed);
        let target = g.random_file(len);
        let sig = Signature::empty(block_size);
        let delta = compute_delta(&sig, &target);
        prop_assert!(delta.literal_bytes() <= len as u64);
        let plan = RsyncWirePlan::exact(&[], &target, block_size);
        prop_assert!(plan.delta_bytes >= delta.literal_bytes());
        prop_assert_eq!(plan, RsyncWirePlan::fresh(len as u64));
    }

    /// Arbitrary mutation histories (edit/append/rewrite/truncate/churn
    /// sequences) driven through the same `mutate` the sync populations use:
    /// every step's signature → delta → patch round trip is the identity,
    /// `target_md5` matches the reconstruction, and the exact wire plan's
    /// byte accounting agrees with an independent recount of the op list.
    #[test]
    fn round_trip_mutation_history(
        seed in any::<u64>(),
        len in 0usize..16_384,
        history in prop::collection::vec(mutation_strategy(), 1..6),
        block_size in prop::sample::select(vec![512usize, 2048, 8192]),
    ) {
        let mut basis = FileGen::new(seed).random_file(len);
        for (step, kind) in history.iter().enumerate() {
            let target = mutate(&basis, kind, seed ^ (step as u64) << 32);
            let sig = Signature::compute(&basis, block_size);
            let delta = compute_delta(&sig, &target);
            let rebuilt = apply_delta(&basis, block_size, &delta).unwrap();
            prop_assert_eq!(Md5::digest(&rebuilt), delta.target_md5);
            prop_assert_eq!(&rebuilt, &target);
            let plan = RsyncWirePlan::exact(&basis, &target, block_size);
            prop_assert_eq!(plan.delta_bytes, expected_delta_wire_bytes(&delta.ops));
            prop_assert_eq!(plan.signature_bytes, 32 + sig.block_count() as u64 * 24);
            prop_assert_eq!(
                plan.total_bytes(),
                plan.handshake_bytes + plan.signature_bytes + plan.delta_bytes + plan.ack_bytes
            );
            basis = target;
        }
    }

    /// `SyncPopulation::advance` histories: every change it reports carries
    /// a basis that round-trips to the file's new content, with exact wire
    /// accounting at each round.
    #[test]
    fn round_trip_sync_population_rounds(
        seed in any::<u64>(),
        rounds in 1u32..4,
        block_size in prop::sample::select(vec![512usize, 2048]),
    ) {
        let cfg = SyncPopulationConfig {
            files: 3,
            file_len: 4096,
            max_edits: 8,
            max_append: 1024,
            max_rewrite: 1024,
            ..SyncPopulationConfig::default()
        };
        let mut pop = SyncPopulation::new(seed, cfg);
        for _ in 0..rounds {
            for c in pop.advance() {
                let target = pop.file(c.file);
                let sig = Signature::compute(&c.basis, block_size);
                let delta = compute_delta(&sig, target);
                let rebuilt = apply_delta(&c.basis, block_size, &delta).unwrap();
                prop_assert_eq!(Md5::digest(&rebuilt), delta.target_md5);
                prop_assert_eq!(&rebuilt[..], target);
                let plan = RsyncWirePlan::exact(&c.basis, target, block_size);
                prop_assert_eq!(plan.delta_bytes, expected_delta_wire_bytes(&delta.ops));
                prop_assert_eq!(plan.delta_bytes, delta.wire_bytes());
            }
        }
    }

    /// Streaming MD5 agrees with one-shot MD5 under arbitrary chunking.
    #[test]
    fn md5_chunking_invariance(
        data in prop::collection::vec(any::<u8>(), 0..4096),
        cuts in prop::collection::vec(1usize..4096, 0..6),
    ) {
        let oneshot = Md5::digest(&data);
        let mut ctx = Md5::new();
        let mut rest: &[u8] = &data;
        for c in cuts {
            let take = c.min(rest.len());
            ctx.update(&rest[..take]);
            rest = &rest[take..];
        }
        ctx.update(rest);
        prop_assert_eq!(ctx.finalize(), oneshot);
    }
}

/// FNV-1a over little-endian words: the fold the pinned kernel digest uses.
struct Fold(u64);

impl Fold {
    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn bytes(&mut self, bs: &[u8]) {
        self.word(bs.len() as u64);
        for &b in bs {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Every delta and wire plan a fixed-seed sync history produces, folded
/// into one value: op kinds, copy indices, literal bytes, `target_md5` and
/// every plan field. The histories replicate each file to an empty basis,
/// then re-sync every file after each mutation round, the way a sync
/// session does, for both mutation mixes at 1 KiB and 2 KiB blocks. Any
/// change to the signature, delta-scan or MD5 kernels' outputs moves it.
#[test]
fn sync_history_deltas_and_plans_are_pinned() {
    let mut fold = Fold(0xcbf2_9ce4_8422_2325);
    for (seed, mix) in [(7u64, MutationMix::desktop()), (8, MutationMix::churny())] {
        for block_size in [1024usize, 2048] {
            let cfg = SyncPopulationConfig {
                files: 4,
                file_len: 12 * 1024,
                mix,
                max_edits: 16,
                max_append: 2048,
                max_rewrite: 4096,
            };
            let mut pop = SyncPopulation::new(seed, cfg);
            let mut remote = vec![Vec::new(); pop.len()];
            for pass in 0..8 {
                if pass > 0 {
                    pop.advance();
                }
                for (f, basis) in remote.iter_mut().enumerate() {
                    let target = pop.file(f);
                    let sig = Signature::compute(basis, block_size);
                    let delta = compute_delta(&sig, target);
                    for op in &delta.ops {
                        match op {
                            DeltaOp::Copy { index } => {
                                fold.word(0);
                                fold.word(*index as u64);
                            }
                            DeltaOp::Literal(v) => {
                                fold.word(1);
                                fold.bytes(v);
                            }
                        }
                    }
                    fold.word(delta.target_len);
                    fold.bytes(&delta.target_md5);
                    let plan = RsyncWirePlan::exact(basis, target, block_size);
                    for v in [
                        plan.handshake_bytes,
                        plan.signature_bytes,
                        plan.delta_bytes,
                        plan.ack_bytes,
                    ] {
                        fold.word(v);
                    }
                    *basis = target.to_vec();
                }
            }
        }
    }
    assert_eq!(
        fold.0, 0x7e50_2fd6_7746_21c4,
        "kernel outputs moved: {:#018x}",
        fold.0
    );
}
