//! Static vs adaptive importance sampling, in the style of the IS-gain
//! sweep.
//!
//! The paper freezes its importance distribution at `p_i ∝ L_i` because
//! recomputing `‖∇f_i(w_t)‖` exactly is "completely impractical"
//! (Eq. 11). The `Sampler` runtime makes the practical middle ground a
//! one-flag change: the [`AdaptiveIsSampler`] re-weights each shard's
//! sum-tree distribution between epochs from the *observed* per-sample
//! gradient norms (Katharopoulos & Fleuret 2018; Alain et al. 2015).
//! This artifact sweeps the importance spread ψ and reports, per pair
//! protocol, the epoch-speedup of each sampling strategy over uniform
//! SGD plus the final objectives — the cost/benefit of adaptivity next
//! to the static scheme it replaces.

use crate::common::{fmt_opt, psi_sweep, sweep_objective, train_avg, Ctx};
use isasgd_core::{Algorithm, Execution, ImportanceScheme, SamplingStrategy};
use isasgd_metrics::speedup::epoch_speedup;
use isasgd_metrics::table::{fmt_num, TextTable};

pub fn fill(ctx: &mut Ctx, table: &mut TextTable) {
    let obj = sweep_objective();
    let epochs = ctx.settings.epochs.unwrap_or(12);
    let avg = ctx.settings.avg_runs.max(3);
    for psi in [0.9, 0.5, 0.35] {
        // The tuned-λ protocol: IS runs at the IS stability edge,
        // uniform at its own.
        let pt = psi_sweep("adaptive", psi, ctx.settings.seed);
        let run_one = |sampling, lambda| {
            let mut c = ctx.config(epochs, lambda);
            c.importance = ImportanceScheme::LipschitzSmoothness;
            c.sampling = Some(sampling);
            let (algo, exec) = (Algorithm::IsSgd, Execution::Sequential);
            train_avg(avg, &pt.data.dataset, &obj, algo, exec, &c, "adaptive")
        };
        let uniform = run_one(SamplingStrategy::Uniform, pt.lambda_u);
        let stat = run_one(SamplingStrategy::Static, pt.lambda_is);
        let adap = run_one(SamplingStrategy::Adaptive, pt.lambda_is);

        for (r, label) in [(&stat, "static"), (&adap, "adaptive")] {
            table.row(vec![
                fmt_num(psi),
                label.to_string(),
                fmt_opt(epoch_speedup(&uniform.trace, &r.trace, 0.50)),
                fmt_opt(epoch_speedup(&uniform.trace, &r.trace, 0.80)),
                fmt_num(r.final_metrics.objective),
                fmt_num(r.setup_overhead()),
            ]);
        }
    }
}
