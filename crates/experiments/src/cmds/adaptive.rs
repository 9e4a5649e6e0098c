//! The `ablation-adaptive` artifact: static vs adaptive importance
//! sampling, in the style of the `is-gain` sweep.
//!
//! The paper freezes its importance distribution at `p_i ∝ L_i` because
//! recomputing `‖∇f_i(w_t)‖` exactly is "completely impractical"
//! (Eq. 11). The `Sampler` runtime makes the practical middle ground a
//! one-flag change: the [`AdaptiveIsSampler`] re-weights each shard's
//! sum-tree distribution between epochs from the *observed* per-sample
//! gradient norms (Katharopoulos & Fleuret 2018; Alain et al. 2015).
//! This command sweeps the importance spread ψ and reports, per pair
//! protocol, the epoch-speedup of each sampling strategy over uniform
//! SGD plus the final objectives — the cost/benefit of adaptivity next
//! to the static scheme it replaces.

use crate::common::{run_averaged, Ctx};
use isasgd_core::{
    train, Algorithm, Execution, ImportanceScheme, Objective, Regularizer, RunResult,
    SamplingStrategy, SquaredLoss, TrainConfig,
};
use isasgd_datagen::{DatasetProfile, FeatureKind};
use isasgd_metrics::speedup::epoch_speedup;
use isasgd_metrics::table::{fmt_num, TextTable};

/// Runs the static-vs-adaptive sweep.
pub fn run(ctx: &mut Ctx) {
    println!("\n=== Adaptive IS ablation (static vs adaptive sampling) ===\n");
    let obj = Objective::new(SquaredLoss, Regularizer::L2 { eta: 1e-4 });
    let mut table = TextTable::new(vec![
        "psi_norm",
        "sampling",
        "sp@50%",
        "sp@80%",
        "final_obj",
        "setup_ovh",
    ]);
    let epochs = ctx.settings.epochs.unwrap_or(12);
    let avg = ctx.settings.avg_runs.max(3);
    for psi in [0.9, 0.5, 0.35] {
        let p = DatasetProfile {
            name: "adaptive",
            dim: 2_000,
            n_samples: 8_000,
            mean_nnz: 16,
            zipf_exponent: 0.8,
            target_psi_norm: psi,
            target_rho: (1.0 / psi - 1.0) * 0.25,
            label_noise: 0.0,
            planted_density: 0.3,
            feature_kind: FeatureKind::GaussianScaled,
            noise_nnz_coupling: 0.0,
        };
        let gen = isasgd_datagen::generate(&p, ctx.settings.seed);
        let w = isasgd_core::importance_weights(
            &gen.dataset,
            &SquaredLoss,
            obj.reg,
            ImportanceScheme::LipschitzSmoothness,
        );
        let mean = w.iter().sum::<f64>() / w.len() as f64;
        let sup = w.iter().cloned().fold(0.0, f64::max);
        // IS runs at the IS stability edge (see is-gain's tuned-λ
        // protocol); uniform at its own edge.
        let lambda_u = 0.5 / sup;
        let lambda_is = 0.4 / mean;

        let run_one = |sampling: Option<SamplingStrategy>, lambda: f64| -> RunResult {
            run_averaged(avg, ctx.settings.seed, |s| {
                let mut c = TrainConfig::default()
                    .with_epochs(epochs)
                    .with_step_size(lambda)
                    .with_seed(s);
                c.importance = ImportanceScheme::LipschitzSmoothness;
                c.sampling = sampling;
                train(
                    &gen.dataset,
                    &obj,
                    Algorithm::IsSgd,
                    Execution::Sequential,
                    &c,
                    "adaptive",
                )
                .expect("ablation run")
            })
        };
        let uniform = run_one(Some(SamplingStrategy::Uniform), lambda_u);
        let stat = run_one(Some(SamplingStrategy::Static), lambda_is);
        let adap = run_one(Some(SamplingStrategy::Adaptive), lambda_is);

        for (r, label) in [(&stat, "static"), (&adap, "adaptive")] {
            table.row(vec![
                fmt_num(psi),
                label.to_string(),
                epoch_speedup(&uniform.trace, &r.trace, 0.50).map_or("-".into(), fmt_num),
                epoch_speedup(&uniform.trace, &r.trace, 0.80).map_or("-".into(), fmt_num),
                fmt_num(r.final_metrics.objective),
                fmt_num(r.setup_overhead()),
            ]);
        }
    }
    let rendered = table.render();
    println!("{rendered}");
    println!(
        "Expected: at high ψ (near-uniform importance) the two samplers tie;\n\
         as ψ falls the static scheme wins early epochs (its prior is exact\n\
         at w₀) while the adaptive sampler tracks the shifting gradient\n\
         distribution in later epochs. The setup-overhead column shows\n\
         adaptivity's cost: no offline sequence generation, but O(log n)\n\
         draws during training.\n"
    );
    ctx.write("ablation_adaptive.txt", &rendered);
    ctx.write("ablation_adaptive.csv", &table.to_csv());
}
