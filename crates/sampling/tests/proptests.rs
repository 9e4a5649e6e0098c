//! Property tests: the alias table and the sum tree are two independent
//! implementations of the same weighted distribution; they are checked
//! against each other and against the analytic distribution. The sum
//! tree's state is also a pure function of its weights, whatever the
//! write history — the checkpoint-restore contract.

use isasgd_sampling::{
    AdaptiveIsSampler, AliasTable, CommitPolicy, Draw, SampleSequence, Sampler, SamplingError,
    SequenceMode, SumTree, Xoshiro256pp,
};
use proptest::prelude::*;

fn weights_strategy() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0f64..10.0, 1..40)
        .prop_filter("needs mass", |w| w.iter().sum::<f64>() > 1e-6)
}

/// Chi-square-like closeness check between empirical and target
/// distributions: every outcome within an absolute tolerance scaled to the
/// number of draws.
fn check_close(empirical: &[f64], target: &[f64], tol: f64) -> Result<(), TestCaseError> {
    for (i, (&e, &t)) in empirical.iter().zip(target).enumerate() {
        prop_assert!(
            (e - t).abs() < tol,
            "outcome {i}: empirical {e:.4} vs target {t:.4}"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn alias_matches_target(w in weights_strategy(), seed in 0u64..1_000) {
        let table = AliasTable::new(&w).unwrap();
        let total: f64 = w.iter().sum();
        let target: Vec<f64> = w.iter().map(|&x| x / total).collect();
        let draws = 60_000;
        let mut rng = Xoshiro256pp::new(seed);
        let mut counts = vec![0usize; w.len()];
        for _ in 0..draws {
            counts[table.sample(&mut rng)] += 1;
        }
        let empirical: Vec<f64> = counts.iter().map(|&c| c as f64 / draws as f64).collect();
        check_close(&empirical, &target, 0.02)?;
    }

    #[test]
    fn sumtree_matches_alias(w in weights_strategy(), seed in 0u64..1_000) {
        let alias = AliasTable::new(&w).unwrap();
        let tree = SumTree::new(&w).unwrap();
        let draws = 60_000;
        let mut r1 = Xoshiro256pp::new(seed);
        let mut r2 = Xoshiro256pp::new(seed.wrapping_add(1));
        let mut c1 = vec![0usize; w.len()];
        let mut c2 = vec![0usize; w.len()];
        for _ in 0..draws {
            c1[alias.sample(&mut r1)] += 1;
            c2[tree.sample(&mut r2)] += 1;
        }
        let e1: Vec<f64> = c1.iter().map(|&c| c as f64 / draws as f64).collect();
        let e2: Vec<f64> = c2.iter().map(|&c| c as f64 / draws as f64).collect();
        check_close(&e1, &e2, 0.03)?;
    }

    #[test]
    fn sumtree_update_consistency(w in weights_strategy(), idx_frac in 0.0f64..1.0, new_w in 0.0f64..5.0) {
        let mut tree = SumTree::new(&w).unwrap();
        let idx = ((w.len() - 1) as f64 * idx_frac) as usize;
        // Keep total mass positive.
        let mut w2 = w.clone();
        w2[idx] = new_w;
        prop_assume!(w2.iter().sum::<f64>() > 1e-6);
        tree.update(idx, new_w).unwrap();
        let rebuilt = SumTree::new(&w2).unwrap();
        prop_assert!((tree.total() - rebuilt.total()).abs() < 1e-9);
        for i in 0..w.len() {
            prop_assert!((tree.probability(i) - rebuilt.probability(i)).abs() < 1e-9);
        }
    }

    /// Any interleaving of single writes and batched commits — zero
    /// weights, repeated rows and refused writes included — leaves
    /// exactly the tree a fresh build over the current weights gives,
    /// and so the same draws from the same RNG.
    #[test]
    fn sumtree_state_is_a_function_of_its_weights_alone(
        w in weights_strategy(),
        ops in proptest::collection::vec(
            proptest::collection::vec(
                (0.0f64..1.0, prop_oneof![1 => Just(0.0f64), 3 => 0.0f64..10.0]),
                1..9,
            ),
            1..24,
        ),
        seed in 0u64..1_000,
    ) {
        let mut tree = SumTree::new(&w).unwrap();
        let mut now = w.clone();
        for op in &ops {
            let rows: Vec<usize> = op.iter().map(|&(f, _)| (w.len() as f64 * f) as usize).collect();
            let mut next = now.clone();
            for (&i, &(_, x)) in rows.iter().zip(op) {
                next[i] = x;
            }
            let done = match op[..] {
                [(_, x)] => tree.update(rows[0], x),
                _ => {
                    let mut values = op.iter().map(|&(_, x)| x);
                    tree.reweigh(rows.iter().copied(), |_, _| values.next().unwrap())
                }
            };
            if next.iter().sum::<f64>() > 0.0 {
                prop_assert_eq!(done, Ok(()));
                now = next;
            } else {
                prop_assert_eq!(done, Err(SamplingError::ZeroMass));
            }
            prop_assert_eq!(tree.weights(), &now[..]);
            prop_assert_eq!(&tree, &SumTree::new(&now).unwrap());
        }
        let fresh = SumTree::new(&now).unwrap();
        let (mut r1, mut r2) = (Xoshiro256pp::new(seed), Xoshiro256pp::new(seed));
        for _ in 0..256 {
            prop_assert_eq!(tree.sample(&mut r1), fresh.sample(&mut r2));
        }
    }

    #[test]
    fn shuffle_once_sequence_stable_multiset(w in weights_strategy(), epochs in 1usize..5) {
        let mut seq = SampleSequence::weighted(&w, 256, SequenceMode::ShuffleOnce, 42).unwrap();
        let mut base = seq.indices().to_vec();
        base.sort_unstable();
        for _ in 0..epochs {
            seq.advance_epoch();
            let mut cur = seq.indices().to_vec();
            cur.sort_unstable();
            prop_assert_eq!(&cur, &base);
        }
    }

    #[test]
    fn sequences_only_emit_valid_indices(w in weights_strategy(), seed in 0u64..100) {
        let seq = SampleSequence::weighted(&w, 512, SequenceMode::RegeneratePerEpoch, seed).unwrap();
        prop_assert!(seq.indices().iter().all(|&i| (i as usize) < w.len()));
    }
}

/// Pearson chi-squared statistic of observed counts against expected
/// probabilities over `draws` samples (bins with negligible expected mass
/// are pooled to keep the statistic well-defined).
fn chi_squared(counts: &[usize], probs: &[f64], draws: usize) -> f64 {
    let mut stat = 0.0;
    let mut pooled_obs = 0.0;
    let mut pooled_exp = 0.0;
    for (&c, &p) in counts.iter().zip(probs) {
        let expected = p * draws as f64;
        if expected < 5.0 {
            pooled_obs += c as f64;
            pooled_exp += expected;
        } else {
            let d = c as f64 - expected;
            stat += d * d / expected;
        }
    }
    if pooled_exp > 0.0 {
        let d = pooled_obs - pooled_exp;
        stat += d * d / pooled_exp;
    }
    stat
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `AliasTable`, `SumTree` and `SampleSequence::weighted` are
    /// three independent implementations of the same weighted
    /// distribution: each empirical histogram must pass a chi-squared
    /// goodness-of-fit test against the analytic distribution. The bound
    /// is the χ²₍df₎ 99.9th percentile (approximated via the
    /// Wilson–Hilferty cube-root transform), so a systematic bias in any
    /// implementation fails deterministically while statistical noise
    /// passes.
    #[test]
    fn all_three_samplers_are_statistically_indistinguishable(
        w in weights_strategy(),
        seed in 0u64..1_000,
    ) {
        let total: f64 = w.iter().sum();
        let probs: Vec<f64> = w.iter().map(|&x| x / total).collect();
        let draws = 30_000usize;

        let alias = AliasTable::new(&w).unwrap();
        let tree = SumTree::new(&w).unwrap();
        let seq = SampleSequence::weighted(&w, draws, SequenceMode::RegeneratePerEpoch, seed)
            .unwrap();

        let mut counts = vec![vec![0usize; w.len()]; 3];
        let mut r1 = Xoshiro256pp::new(seed);
        let mut r2 = Xoshiro256pp::new(seed.wrapping_mul(0x9E37_79B9).wrapping_add(7));
        for _ in 0..draws {
            counts[0][alias.sample(&mut r1)] += 1;
            counts[1][tree.sample(&mut r2)] += 1;
        }
        for &i in seq.indices() {
            counts[2][i as usize] += 1;
        }

        // Degrees of freedom after pooling tiny-mass bins.
        let big_bins = probs.iter().filter(|&&p| p * draws as f64 >= 5.0).count();
        let pooled = probs.len() - big_bins;
        let df = (big_bins + usize::from(pooled > 0)).saturating_sub(1).max(1) as f64;
        // Wilson–Hilferty: χ²_q ≈ df·(1 − 2/(9df) + z_q·√(2/(9df)))³,
        // z_0.999 ≈ 3.09.
        let h = 2.0 / (9.0 * df);
        let bound = df * (1.0 - h + 3.09 * h.sqrt()).powi(3);

        for (label, c) in ["alias", "sumtree", "sequence"].iter().zip(&counts) {
            let stat = chi_squared(c, &probs, draws);
            prop_assert!(
                stat < bound,
                "{label}: chi-squared {stat:.2} exceeds the 99.9% bound {bound:.2} (df {df})"
            );
        }
    }
}

/// A sampler snapshotted at an epoch boundary and restored into a fresh
/// one continues bit-identically — draws, corrections, commit versions —
/// through two more epochs whose commits land mid-epoch: the restored
/// tree (built from the snapshot's weights) and the live one (written
/// row by row, commit after commit) are the same tree.
#[test]
fn a_restored_adaptive_sampler_continues_bit_identically_under_every_k() {
    const STEPS: usize = 150;
    let w: Vec<f64> = (0..37).map(|i| 0.05 + (i * 7 % 11) as f64).collect();
    // One epoch: draw, record, feed back a seeded observation.
    let epoch = |s: &mut AdaptiveIsSampler, draw: &mut Xoshiro256pp, obs: &mut Xoshiro256pp| {
        let steps: Vec<(usize, u64, u64)> = (0..STEPS)
            .map(|_| {
                let mut one = [Draw { row: 0, corr: 0.0 }];
                s.fill(draw, 0, &mut one);
                let i = one[0].row as usize;
                let seen = (i, s.correction(i).to_bits(), s.commit_version());
                s.update_weight(i, obs.next_f64() * (1 + i % 5) as f64);
                seen
            })
            .collect();
        s.epoch_reset();
        steps
    };
    for k in [1usize, 3, 32] {
        let build = || {
            AdaptiveIsSampler::new(&w)
                .unwrap()
                .with_commit(CommitPolicy::EveryK(k))
        };
        let (mut draw, mut obs) = (Xoshiro256pp::new(k as u64), Xoshiro256pp::new(99));
        let mut live = build();
        for _ in 0..2 {
            epoch(&mut live, &mut draw, &mut obs);
        }
        let mut restored = build();
        restored.restore(live.snapshot()).unwrap();
        let (mut draw2, mut obs2) = (draw.clone(), obs.clone());
        let at_boundary = live.commit_version();
        for e in 0..2 {
            assert_eq!(
                epoch(&mut live, &mut draw, &mut obs),
                epoch(&mut restored, &mut draw2, &mut obs2),
                "every-{k}, epoch {e} after the restore"
            );
        }
        assert_eq!(live.snapshot(), restored.snapshot());
        assert!(
            live.commit_version() >= at_boundary + 2 * (STEPS / k) as u64,
            "every-{k} commits must land inside the epochs"
        );
    }
}
