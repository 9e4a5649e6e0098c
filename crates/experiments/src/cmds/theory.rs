//! §3 — theoretical quantities: Lipschitz summaries, IS improvement
//! factors (Eqs. 13–14), conflict degrees Δ̄ and τ budgets (Eq. 27).

use crate::common::{paper_objective, weights, Ctx};
use isasgd_analysis::theory::LipschitzSummary;
use isasgd_analysis::{
    is_asgd_iteration_bound, is_improvement_factor, recommended_step_size, sgd_iteration_bound,
    tau_budget, BoundInputs, ConflictStats,
};
use isasgd_core::ImportanceScheme;
use isasgd_datagen::PaperProfile;
use isasgd_metrics::table::{fmt_num, TextTable};

pub fn fill(ctx: &mut Ctx, table: &mut TextTable) {
    let obj = paper_objective();
    for p in PaperProfile::ALL {
        let data = ctx.dataset(p);
        let ds = &data.dataset;
        let w = weights(ds, &obj, ImportanceScheme::LipschitzSmoothness);
        let l = LipschitzSummary::from_weights(&w);
        let conflicts = ConflictStats::estimate(ds, 300, ctx.settings.seed);
        // Representative constants: ε = 1% of ε₀, strong convexity from a
        // hypothetical L2 term at the paper's η, residual from mean L.
        let inp = BoundInputs {
            mu: 1e-2,
            sigma_sq: 1e-3,
            epsilon: 1e-2,
            epsilon0: 1.0,
        };
        table.row(vec![
            p.id().to_string(),
            fmt_num(l.sup),
            fmt_num(l.mean),
            fmt_num(l.inf),
            fmt_num(is_improvement_factor(&w)),
            fmt_num(conflicts.avg_degree),
            fmt_num(if conflicts.avg_degree > 0.0 {
                ds.n_samples() as f64 / conflicts.avg_degree
            } else {
                f64::INFINITY
            }),
            fmt_num(tau_budget(&inp, &l, ds.n_samples(), conflicts.avg_degree)),
            fmt_num(sgd_iteration_bound(&inp, &l)),
            fmt_num(is_asgd_iteration_bound(&inp, &l)),
            fmt_num(recommended_step_size(&inp, &l)),
        ]);
    }
}
