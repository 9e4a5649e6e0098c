//! §4.3 — "When Datasets are Dense": the crossover where SVRG-ASGD's
//! superior per-epoch convergence overcomes its dense-µ cost.
//!
//! The paper argues SVRG-ASGD prevails when gradient sparsity rises
//! toward ~10⁻³ of `d` and above (its per-iteration cost is then within a
//! constant of ASGD's, and its iteration advantage wins); below that the
//! dense µ dominates. This artifact sweeps density at fixed (n, d) and
//! reports wall-clock to a common RMSE target for ASGD vs SVRG-ASGD,
//! locating the crossover.

use crate::common::{fmt_opt, paper_objective, Ctx};
use isasgd_core::{train, Algorithm, Execution};
use isasgd_datagen::{generate, DatasetProfile, FeatureKind};
use isasgd_metrics::interpolate::time_to_objective;
use isasgd_metrics::table::{fmt_num, TextTable};

pub fn fill(ctx: &mut Ctx, table: &mut TextTable) {
    let obj = paper_objective();
    let d = 4_000usize;
    let cfg = ctx.config(ctx.settings.epochs.unwrap_or(8), 0.1);
    for nnz in [4usize, 40, 400, 4_000] {
        let profile = DatasetProfile {
            name: "density_sweep",
            dim: d,
            n_samples: 3_000,
            mean_nnz: nnz,
            zipf_exponent: 0.6,
            target_psi_norm: 0.9,
            // Stability-matched norms (λ·L̄ ≈ 2 at λ = 0.5).
            target_rho: (1.0 / 0.9 - 1.0) * 16.0,
            label_noise: 0.02,
            planted_density: 0.3,
            feature_kind: FeatureKind::GaussianScaled,
            noise_nnz_coupling: 1.0,
        };
        let data = generate(&profile, ctx.settings.seed);
        let exec = Execution::Simulated {
            tau: 16,
            workers: 4,
        };
        let run = |algo: Algorithm| {
            ctx.log(&format!("nnz={nnz} {}…", algo.name()));
            train(&data.dataset, &obj, algo, exec, &cfg, profile.name).expect("density run")
        };
        let asgd = run(Algorithm::Asgd);
        let svrg = run(Algorithm::SvrgAsgd);
        // Common target: the worse of the two final objectives, so both
        // reach it.
        let target = asgd
            .final_metrics
            .objective
            .max(svrg.final_metrics.objective)
            * 1.02;
        let t_a = time_to_objective(&asgd.trace, target);
        let t_s = time_to_objective(&svrg.trace, target);
        let winner = match (t_a, t_s) {
            (Some(a), Some(s)) if s < a => "SVRG-ASGD",
            (Some(_), _) => "ASGD",
            (None, Some(_)) => "SVRG-ASGD",
            _ => "-",
        };
        table.row(vec![
            fmt_num(nnz as f64 / d as f64),
            nnz.to_string(),
            fmt_num(asgd.train_secs),
            fmt_num(svrg.train_secs),
            fmt_num(asgd.final_metrics.objective),
            fmt_num(svrg.final_metrics.objective),
            fmt_opt(t_a),
            fmt_opt(t_s),
            winner.to_string(),
        ]);
    }
}
