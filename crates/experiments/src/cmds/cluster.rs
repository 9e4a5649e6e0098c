//! Paper §2.3/Fig. 2 in the *node* setting.
//!
//! Each node samples only from its local shard, so a skewed contiguous
//! layout distorts the per-node sampling distribution exactly as the
//! paper's Fig. 2 worked example. This sweep measures the shard
//! importance imbalance max Φ_a/mean Φ_a (Eq. 18/19) and the consensus
//! model quality for each balancing policy across cluster sizes. The
//! numbers are transport-independent: in-process, loopback-TCP and
//! worker-subprocess runs are pinned bit-identical by
//! `cluster/tests/equivalence.rs` and `cli/tests/process_e2e.rs`.

use crate::common::{paper_objective, weights, Ctx};
use isasgd_cluster::{ClusterConfig, SyncStrategy};
use isasgd_core::{BalancePolicy, ImportanceScheme, LogisticLoss, Objective, Regularizer};
use isasgd_datagen::{generate, DatasetProfile, FeatureKind};
use isasgd_metrics::table::{fmt_num, TextTable};

pub fn fill(ctx: &mut Ctx, table: &mut TextTable) {
    // Heavy-tailed importance, *sorted* by importance before sharding —
    // the adversarial arrival order (e.g. documents sorted by length)
    // that contiguous sharding turns into maximal imbalance.
    let profile = DatasetProfile {
        name: "cluster_skewed",
        dim: 5_000,
        n_samples: 12_000,
        mean_nnz: 30,
        zipf_exponent: 0.9,
        target_psi_norm: 0.55,
        target_rho: 10.0,
        label_noise: 0.05,
        planted_density: 0.10,
        feature_kind: FeatureKind::GaussianScaled,
        noise_nnz_coupling: 1.0,
    };
    let gen = generate(&profile, ctx.settings.seed);
    // Sort rows by row norm (∝ importance) to plant the adversarial
    // layout.
    let mut order: Vec<usize> = (0..gen.dataset.n_samples()).collect();
    let norms = weights(
        &gen.dataset,
        &Objective::new(LogisticLoss, Regularizer::None),
        ImportanceScheme::LipschitzSmoothness,
    );
    order.sort_by(|&a, &b| norms[a].partial_cmp(&norms[b]).expect("finite weights"));
    let sorted = gen.dataset.reordered(&order).expect("permutation");

    let obj = paper_objective();
    for nodes in [2usize, 4, 8, 16] {
        for (policy, label) in [
            (BalancePolicy::Identity, "identity"),
            (BalancePolicy::ForceShuffle, "shuffle"),
            (BalancePolicy::ForceBalance, "head-tail"),
            (BalancePolicy::ForceGreedy, "greedy-lpt"),
        ] {
            let cfg = ClusterConfig {
                nodes,
                rounds: ctx.settings.epochs.unwrap_or(8),
                local_epochs: 1,
                step_size: 0.1,
                importance: ImportanceScheme::GradNormBound { radius: 1.0 },
                balance: policy,
                sync: SyncStrategy::Average,
                seed: ctx.settings.seed,
                ..ClusterConfig::default()
            };
            let r = isasgd_cluster::node::run(&sorted, &obj, &cfg).expect("cluster run");
            let last = r.trace.last().expect("≥1 round");
            table.row(vec![
                nodes.to_string(),
                label.to_string(),
                fmt_num(r.phi_imbalance),
                fmt_num(last.objective),
                fmt_num(last.error_rate),
            ]);
        }
    }
}
