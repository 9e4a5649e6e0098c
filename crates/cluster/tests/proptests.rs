//! Property tests on cluster synchronization and the run loop.

#![allow(
    clippy::disallowed_macros,
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "../clippy.toml binds the library's non-test code; tests assert, time and receive freely"
)]

use isasgd_cluster::{average_models, node::run, ClusterConfig, SyncStrategy};
use isasgd_losses::{ImportanceScheme, LogisticLoss, Objective, Regularizer};
use isasgd_sparse::DatasetBuilder;
use proptest::prelude::*;

fn arb_models() -> impl Strategy<Value = Vec<Vec<f64>>> {
    (1usize..6, 1usize..30).prop_flat_map(|(k, d)| {
        prop::collection::vec(prop::collection::vec(-100.0f64..100.0, d..=d), k..=k)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every averaged coordinate lies within the per-coordinate min/max
    /// envelope of the node models (convex combination), under both
    /// strategies.
    #[test]
    fn average_is_a_convex_combination(models in arb_models()) {
        let k = models.len();
        let d = models[0].len();
        let shards: Vec<usize> = (1..=k).collect(); // unequal shard sizes
        for strategy in [SyncStrategy::Average, SyncStrategy::WeightedByShard] {
            let mut out = Vec::new();
            average_models(&models, &shards, strategy, &mut out);
            prop_assert_eq!(out.len(), d);
            for j in 0..d {
                let lo = models.iter().map(|m| m[j]).fold(f64::INFINITY, f64::min);
                let hi = models.iter().map(|m| m[j]).fold(f64::NEG_INFINITY, f64::max);
                prop_assert!(
                    out[j] >= lo - 1e-9 && out[j] <= hi + 1e-9,
                    "coordinate {} = {} outside [{}, {}]",
                    j, out[j], lo, hi
                );
            }
        }
    }

    /// Averaging is permutation-invariant for the equal-weight strategy.
    #[test]
    fn average_is_permutation_invariant(models in arb_models()) {
        let shards = vec![1usize; models.len()];
        let mut fwd = Vec::new();
        average_models(&models, &shards, SyncStrategy::Average, &mut fwd);
        let rev: Vec<Vec<f64>> = models.iter().rev().cloned().collect();
        let mut bwd = Vec::new();
        average_models(&rev, &shards, SyncStrategy::Average, &mut bwd);
        for (a, b) in fwd.iter().zip(&bwd) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    /// The full cluster loop is total over its parameter space: finite
    /// consensus model, monotone wall-clock, exactly `rounds` syncs.
    #[test]
    fn cluster_run_is_total(
        seed in 0u64..300,
        nodes in 1usize..8,
        rounds in 1usize..5,
        local_epochs in 1usize..3,
    ) {
        let mut b = DatasetBuilder::new(16);
        let mut state = seed | 1;
        for i in 0..120usize {
            state ^= state << 13;
            state ^= state >> 7;
            let j = (state % 16) as u32;
            let y = if i % 2 == 0 { 1.0 } else { -1.0 };
            b.push_row(&[(j, y * (1.0 + (i % 7) as f64))], y).unwrap();
        }
        let ds = b.finish();
        let obj = Objective::new(LogisticLoss, Regularizer::L1 { eta: 1e-5 });
        let cfg = ClusterConfig {
            nodes,
            rounds,
            local_epochs,
            step_size: 0.2,
            importance: ImportanceScheme::GradNormBound { radius: 1.0 },
            ..ClusterConfig::default()
        };
        let r = run(&ds, &obj, &cfg).unwrap();
        prop_assert_eq!(r.syncs, rounds);
        prop_assert_eq!(r.rounds.len(), rounds + 1);
        prop_assert!(r.model.iter().all(|x| x.is_finite()));
        prop_assert!(r.phi_imbalance >= 1.0 - 1e-9);
        for w in r.trace.points.windows(2) {
            prop_assert!(w[1].wall_secs >= w[0].wall_secs);
        }
    }
}
