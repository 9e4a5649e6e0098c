//! The synthetic profiles must land on the paper's Table-1 targets — the
//! contract that makes substituting generated data for the paper's
//! datasets valid (README: "calibrated to the paper's Table 1").

use is_asgd::balance::metrics::{psi_normalized, rho};
use is_asgd::prelude::*;

fn weights_of(data: &GeneratedData) -> Vec<f64> {
    importance_weights(
        &data.dataset,
        &LogisticLoss,
        Regularizer::None,
        ImportanceScheme::LipschitzSmoothness,
    )
}

#[test]
fn profiles_hit_psi_targets() {
    for p in PaperProfile::ALL {
        // Reduced n for test speed; moments converge by ~2k samples.
        let mut prof = p.scaled().scaled_by(0.05);
        prof.n_samples = prof.n_samples.max(2500);
        let data = generate(&prof, 1);
        let w = weights_of(&data);
        let measured = psi_normalized(&w);
        let (_, _, _, target, _) = p.paper_table1();
        assert!(
            (measured - target).abs() < 0.04,
            "{}: psi/n {measured:.4} vs paper {target}",
            p.id()
        );
    }
}

#[test]
fn profiles_hit_rho_targets_within_factor_two() {
    for p in PaperProfile::ALL {
        let mut prof = p.scaled().scaled_by(0.05);
        prof.n_samples = prof.n_samples.max(2500);
        let data = generate(&prof, 2);
        let w = weights_of(&data);
        let measured = rho(&w);
        let (_, _, _, _, target) = p.paper_table1();
        assert!(
            measured / target < 2.0 && target / measured < 2.0,
            "{}: rho {measured:.2e} vs paper {target:.2e}",
            p.id()
        );
    }
}

#[test]
fn density_ordering_matches_paper() {
    let densities: Vec<(&str, f64)> = PaperProfile::ALL
        .iter()
        .map(|p| {
            let prof = p.scaled().scaled_by(0.02);
            let data = generate(&prof, 3);
            (p.id(), data.dataset.density())
        })
        .collect();
    // news20 > url > kdd_* — same ordering as Table 1.
    assert!(densities[0].1 > densities[1].1, "{densities:?}");
    assert!(densities[1].1 > densities[2].1, "{densities:?}");
    assert!(densities[2].1 >= densities[3].1, "{densities:?}");
}

#[test]
fn labels_are_learnable_on_every_profile() {
    // Sanity: a quick IS-ASGD run reduces the error on each profile well
    // below the zero-model baseline.
    let obj = Objective::new(LogisticLoss, Regularizer::L1 { eta: 1e-6 });
    for p in PaperProfile::ALL {
        let prof = p.scaled().scaled_by(0.02);
        let data = generate(&prof, 4);
        let zero_err = obj
            .eval(&data.dataset, &vec![0.0; data.dataset.dim()])
            .error_rate;
        let cfg = TrainConfig::default().with_epochs(5).with_step_size(0.3);
        let r = train(
            &data.dataset,
            &obj,
            Algorithm::IsAsgd,
            Execution::Simulated { tau: 8, workers: 4 },
            &cfg,
            p.id(),
        )
        .unwrap();
        assert!(
            r.final_metrics.error_rate < zero_err,
            "{}: {} !< {zero_err}",
            p.id(),
            r.final_metrics.error_rate
        );
    }
}

#[test]
fn adaptive_policy_resolves_like_the_paper() {
    // §4: News20 (highest ρ) is balanced; the rest are shuffled. Our
    // synthetic ρ values straddle ζ=5e-4 the same way… except that all
    // four paper values are ≤ ζ; what the evaluation actually did is
    // balance the *highest-ρ* dataset. We assert the adaptive rule picks
    // balancing exactly for datasets with ρ ≥ ζ.
    use is_asgd::balance::{decide, BalancePolicy};
    for p in PaperProfile::ALL {
        let mut prof = p.scaled().scaled_by(0.05);
        prof.n_samples = prof.n_samples.max(2500);
        let data = generate(&prof, 6);
        let w = weights_of(&data);
        let d = decide(&w, BalancePolicy::default(), 0, 8);
        assert_eq!(
            d.balanced,
            d.rho >= 5e-4,
            "{}: balanced={} rho={:.2e}",
            p.id(),
            d.balanced,
            d.rho
        );
    }
}
