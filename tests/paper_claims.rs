//! Integration tests asserting the paper's *qualitative claims* hold in
//! this implementation — the same shapes the experiment harness reports,
//! at test-suite scale.

use is_asgd::prelude::*;

fn obj() -> Objective<LogisticLoss> {
    Objective::new(LogisticLoss, Regularizer::L1 { eta: 1e-6 })
}

/// A dataset with heavy-tailed row norms ⇒ skewed Lipschitz constants ⇒
/// the regime where IS provably helps (ψ ≪ n).
fn skewed_data(n: usize, seed: u64) -> GeneratedData {
    let p = DatasetProfile {
        name: "skewed",
        dim: 500,
        n_samples: n,
        mean_nnz: 12,
        zipf_exponent: 0.8,
        target_psi_norm: 0.55,
        target_rho: 1e-2,
        label_noise: 0.0,
        planted_density: 0.3,
        feature_kind: FeatureKind::GaussianScaled,
        noise_nnz_coupling: 1.0,
    };
    generate(&p, seed)
}

/// §2.2: IS-SGD's *iterative* convergence beats uniform SGD's in the
/// regime its theory targets — squared (Kaczmarz-style) loss, step size
/// near the uniform-sampling stability edge (λ tuned to sup L for
/// uniform vs L̄ for IS; Eqs. 28–29). Averaged over seeds.
///
/// (For the saturated logistic loss at small scale the per-seed outcome
/// is a coin flip at mild λ — the full-scale fig3 sweep shows the
/// aggregate gains; this test pins the provable regime.)
#[test]
fn is_sgd_beats_sgd_per_epoch_in_kaczmarz_regime() {
    let mut is_wins = 0usize;
    let seeds = [11u64, 22, 33, 44, 55, 66, 77];
    let obj = Objective::new(SquaredLoss, Regularizer::L2 { eta: 1e-4 });
    for &s in &seeds {
        let data = skewed_data(1500, s);
        let cfg = TrainConfig::default()
            .with_epochs(3)
            .with_step_size(1.0)
            .with_seed(s);
        let sgd = train(
            &data.dataset,
            &obj,
            Algorithm::Sgd,
            Execution::Sequential,
            &cfg,
            "sk",
        )
        .unwrap();
        let is = train(
            &data.dataset,
            &obj,
            Algorithm::IsSgd,
            Execution::Sequential,
            &cfg,
            "sk",
        )
        .unwrap();
        if is.final_metrics.objective < sgd.final_metrics.objective {
            is_wins += 1;
        }
    }
    assert!(
        is_wins >= 6,
        "IS-SGD should beat SGD on nearly all seeds (won {is_wins}/{})",
        seeds.len()
    );
}

/// §1.2 / Fig. 1: SVRG's per-epoch wall-clock is far above ASGD's on
/// sparse data because of the dense µ term.
#[test]
fn svrg_pays_the_dense_mu_cost_on_sparse_data() {
    let p = DatasetProfile {
        name: "sparse",
        dim: 20_000,
        n_samples: 2_000,
        mean_nnz: 10,
        zipf_exponent: 1.0,
        target_psi_norm: 0.9,
        target_rho: 1e-4,
        label_noise: 0.0,
        planted_density: 0.05,
        feature_kind: FeatureKind::GaussianScaled,
        noise_nnz_coupling: 1.0,
    };
    let data = generate(&p, 3);
    let cfg = TrainConfig::default().with_epochs(2).with_step_size(0.1);
    let exec = Execution::Simulated { tau: 4, workers: 2 };
    let asgd = train(&data.dataset, &obj(), Algorithm::Asgd, exec, &cfg, "sp").unwrap();
    let svrg = train(&data.dataset, &obj(), Algorithm::SvrgAsgd, exec, &cfg, "sp").unwrap();
    let ratio = svrg.train_secs / asgd.train_secs.max(1e-9);
    assert!(
        ratio > 10.0,
        "SVRG should be ≫ slower per epoch on d/nnz = 2000 data (got {ratio:.1}x)"
    );
}

/// §2.4 / Fig. 2: head-tail balancing equalizes shard importance against
/// the adversarial (importance-sorted) layout it was designed for, and
/// the greedy-LPT extension stays balanced even on the right-skewed
/// distributions where the paper's pair heuristic degrades (its pair
/// sums concentrate the heavy tail in one contiguous block; the `cluster`
/// artifact of `isasgd-experiments` shows it growing with node count).
#[test]
fn balancing_equalizes_shard_importance() {
    use is_asgd::balance::{greedy_lpt_balance, head_tail_balance, ShardReport};
    let data = skewed_data(2000, 9);
    let mut w = importance_weights(
        &data.dataset,
        &LogisticLoss,
        Regularizer::None,
        ImportanceScheme::LipschitzSmoothness,
    );
    // Adversarial baseline: data arrives sorted by importance (e.g. by
    // document length) — the worst case for contiguous sharding.
    w.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let sorted_layout: Vec<usize> = (0..w.len()).collect();
    let head_tail = head_tail_balance(&w);
    for k in [4usize, 8, 16] {
        let r_sorted = ShardReport::analyze(&w, &sorted_layout, k).unwrap();
        let r_ht = ShardReport::analyze(&w, &head_tail, k).unwrap();
        let greedy = greedy_lpt_balance(&w, k).unwrap();
        let r_g = ShardReport::analyze(&w, &greedy, k).unwrap();
        assert!(
            r_ht.imbalance_ratio < r_sorted.imbalance_ratio,
            "k={k}: head-tail {} must beat sorted layout {}",
            r_ht.imbalance_ratio,
            r_sorted.imbalance_ratio
        );
        assert!(
            r_g.imbalance_ratio < 1.05,
            "k={k}: greedy should be near-perfect, got {}",
            r_g.imbalance_ratio
        );
        assert!(
            r_g.imbalance_ratio <= r_ht.imbalance_ratio + 1e-9,
            "k={k}: greedy {} ≤ head-tail {}",
            r_g.imbalance_ratio,
            r_ht.imbalance_ratio
        );
    }
}

/// Eq. 13–14: the theoretical IS gain factor orders the four Table-1
/// profiles the same way the paper's Fig. 3 orders their empirical gains.
#[test]
fn is_gain_ordering_matches_table1() {
    let mut factors = Vec::new();
    for p in PaperProfile::ALL {
        let prof = p.scaled().scaled_by(0.02);
        let data = generate(&prof, 5);
        let w = importance_weights(
            &data.dataset,
            &LogisticLoss,
            Regularizer::None,
            ImportanceScheme::LipschitzSmoothness,
        );
        factors.push((p.id(), is_improvement_factor(&w)));
    }
    // news20 (ψ/n=0.972) < url (0.964) < kdd_algebra (0.892) < kdd_bridge (0.877)
    assert!(factors[0].1 < factors[2].1, "{factors:?}");
    assert!(factors[1].1 < factors[2].1, "{factors:?}");
    assert!(factors[2].1 < factors[3].1, "{factors:?}");
}

/// §3.1: higher τ produces a more perturbed trajectory (measured as
/// distance from the τ=0 trajectory), monotonically in expectation.
#[test]
fn staleness_perturbation_grows_with_tau() {
    let data = skewed_data(1000, 17);
    let cfg = TrainConfig::default().with_epochs(2).with_step_size(0.3);
    let reference = train(
        &data.dataset,
        &obj(),
        Algorithm::Sgd,
        Execution::Simulated { tau: 0, workers: 4 },
        &cfg,
        "tau",
    )
    .unwrap();
    let mut prev_dist = 0.0;
    for tau in [4usize, 64, 512] {
        let r = train(
            &data.dataset,
            &obj(),
            Algorithm::Sgd,
            Execution::Simulated { tau, workers: 4 },
            &cfg,
            "tau",
        )
        .unwrap();
        let dist: f64 = reference
            .model
            .iter()
            .zip(&r.model)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        assert!(
            dist > prev_dist * 0.5,
            "tau={tau}: perturbation {dist} should grow (prev {prev_dist})"
        );
        prev_dist = dist;
    }
    assert!(prev_dist > 0.0);
}

/// §4.2: IS setup (weights + balancing + sequences) is a small fraction
/// of training time on a real workload.
#[test]
fn is_setup_overhead_is_small() {
    let data = skewed_data(4000, 21);
    let cfg = TrainConfig::default().with_epochs(8).with_step_size(0.3);
    let exec = Execution::Simulated {
        tau: 16,
        workers: 4,
    };
    // The run is deterministic, so only the clock differs between the
    // three: the minimum of each timing is the one a preemption spared.
    let (mut setup, mut train_secs) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        let r = train(&data.dataset, &obj(), Algorithm::IsAsgd, exec, &cfg, "ovh").unwrap();
        setup = setup.min(r.setup_secs);
        train_secs = train_secs.min(r.train_secs);
    }
    // At paper scale this is 1.1–7.7%; at test scale (n = 4000, seconds
    // of training) we only assert setup stays below training time. The
    // full-scale percentage is reported by `experiments -- fig4`.
    assert!(
        setup < train_secs,
        "min setup {setup}s vs min train {train_secs}s"
    );
}
