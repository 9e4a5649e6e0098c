//! The IS-gain demonstration: the regime where importance sampling
//! *provably* delivers the paper's claimed factors.
//!
//! The paper's Lemma 2 inherits Needell et al.'s bound: uniform sampling
//! needs `k ∝ sup L/µ` iterations where IS needs `k ∝ L̄/µ` — a gain of
//! `sup L/L̄` in the curvature-dominated (Kaczmarz) regime of the
//! *squared* loss with the step size at the uniform-sampling stability
//! edge. The main figures use the paper's saturated logistic objective,
//! where that mechanism is clipped and the measured IS-ASGD gain is ≈ 1×
//! (the Figure-4 and §4.2 summary artifacts); this artifact exhibits the
//! claim in the regime its own theory targets, sweeping the importance
//! spread ψ.

use crate::common::{fmt_opt, psi_sweep, sweep_objective, train_avg, Ctx};
use isasgd_core::{Algorithm, Execution, ImportanceScheme};
use isasgd_metrics::speedup::epoch_speedup;
use isasgd_metrics::table::{fmt_num, TextTable};

pub fn fill(ctx: &mut Ctx, table: &mut TextTable) {
    let obj = sweep_objective();
    let epochs = ctx.settings.epochs.unwrap_or(12);
    let avg = ctx.settings.avg_runs.max(3);
    for psi in [0.9, 0.7, 0.5, 0.35] {
        // The table reports both step-size protocols: `tuned-λ` (each
        // sampler at its own stability edge, theory's comparison — the
        // sup/mean gain) and `same-λ` (the paper's experimental protocol
        // — variance-channel gain only).
        let pt = psi_sweep("isgain", psi, ctx.settings.seed);
        let run_algo = |algo: Algorithm, lambda: f64| {
            let mut c = ctx.config(epochs, lambda);
            c.importance = ImportanceScheme::LipschitzSmoothness;
            let exec = match algo {
                Algorithm::Sgd | Algorithm::IsSgd => Execution::Sequential,
                _ => Execution::Simulated {
                    tau: 32,
                    workers: 8,
                },
            };
            train_avg(avg, &pt.data.dataset, &obj, algo, exec, &c, "isgain")
        };
        // Sequential pair (Alg. 2 vs Eq. 3) and async pair (Alg. 4 vs
        // Hogwild, τ = 32), under both step-size protocols.
        let sgd = run_algo(Algorithm::Sgd, pt.lambda_u);
        let is_sgd_same = run_algo(Algorithm::IsSgd, pt.lambda_u);
        let is_sgd_tuned = run_algo(Algorithm::IsSgd, pt.lambda_is);
        let asgd = run_algo(Algorithm::Asgd, pt.lambda_u);
        let is_asgd_same = run_algo(Algorithm::IsAsgd, pt.lambda_u);
        let is_asgd_tuned = run_algo(Algorithm::IsAsgd, pt.lambda_is);

        for (slow, fast, label) in [
            (&sgd, &is_sgd_same, "IS-SGD/SGD same-λ"),
            (&sgd, &is_sgd_tuned, "IS-SGD/SGD tuned-λ"),
            (&asgd, &is_asgd_same, "IS-ASGD/ASGD same-λ"),
            (&asgd, &is_asgd_tuned, "IS-ASGD/ASGD tuned-λ"),
        ] {
            table.row(vec![
                fmt_num(psi),
                fmt_num(pt.sup_over_mean),
                label.to_string(),
                fmt_opt(epoch_speedup(&slow.trace, &fast.trace, 0.50)),
                fmt_opt(epoch_speedup(&slow.trace, &fast.trace, 0.80)),
                fmt_opt(epoch_speedup(&slow.trace, &fast.trace, 0.95)),
            ]);
        }
    }
}
