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

use crate::common::{psi_sweep, run_averaged, sweep_objective, Ctx};
use isasgd_core::{
    train, Algorithm, Execution, ImportanceScheme, RunResult, SamplingStrategy, TrainConfig,
};
use isasgd_metrics::speedup::epoch_speedup;
use isasgd_metrics::table::{fmt_num, TextTable};

/// Runs the static-vs-adaptive sweep.
pub fn run(ctx: &mut Ctx) {
    println!("\n=== Adaptive IS ablation (static vs adaptive sampling) ===\n");
    let obj = sweep_objective();
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
        // The tuned-λ protocol: IS runs at the IS stability edge,
        // uniform at its own.
        let pt = psi_sweep("adaptive", psi, ctx.settings.seed);

        let run_one = |sampling: Option<SamplingStrategy>, lambda: f64| -> RunResult {
            run_averaged(avg, ctx.settings.seed, |s| {
                let mut c = TrainConfig::default()
                    .with_epochs(epochs)
                    .with_step_size(lambda)
                    .with_seed(s);
                c.importance = ImportanceScheme::LipschitzSmoothness;
                c.sampling = sampling;
                train(
                    &pt.data.dataset,
                    &obj,
                    Algorithm::IsSgd,
                    Execution::Sequential,
                    &c,
                    "adaptive",
                )
                .expect("ablation run")
            })
        };
        let uniform = run_one(Some(SamplingStrategy::Uniform), pt.lambda_u);
        let stat = run_one(Some(SamplingStrategy::Static), pt.lambda_is);
        let adap = run_one(Some(SamplingStrategy::Adaptive), pt.lambda_is);

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
