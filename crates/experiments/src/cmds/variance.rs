//! Eq. 4/10 — the quantity everything is about: exact stochastic-gradient
//! variance along a training trajectory, under uniform sampling, the
//! static IS schemes, and the per-iterate optimal distribution (Eq. 11).

use crate::common::{paper_objective, weights, Ctx};
use isasgd_analysis::gradient_variance;
use isasgd_core::{train, Algorithm, Execution, ImportanceScheme};
use isasgd_datagen::PaperProfile;
use isasgd_metrics::table::{fmt_num, TextTable};

/// Runs the variance instrumentation on two representative profiles.
pub fn fill(ctx: &mut Ctx, table: &mut TextTable) {
    let obj = paper_objective();
    for p in [PaperProfile::News20, PaperProfile::KddBridge] {
        let data = ctx.dataset_training(p);
        let ds = &data.dataset;
        let w_smooth = weights(ds, &obj, ImportanceScheme::LipschitzSmoothness);
        let w_gnorm = weights(ds, &obj, ImportanceScheme::GradNormBound { radius: 1.0 });
        // Walk an SGD trajectory and measure at a few checkpoints by
        // re-training to increasing epoch budgets (deterministic seed ⇒
        // nested prefixes of the same trajectory).
        for epochs in [1usize, 4, 10] {
            let cfg = ctx.config(epochs, p.paper_step_size());
            let (algo, exec) = (Algorithm::Sgd, Execution::Sequential);
            let run = train(ds, &obj, algo, exec, &cfg, p.id()).expect("sgd trajectory");
            let rs = gradient_variance(ds, &obj, &run.model, &w_smooth);
            let rg = gradient_variance(ds, &obj, &run.model, &w_gnorm);
            table.row(vec![
                p.id().to_string(),
                epochs.to_string(),
                fmt_num(rs.uniform),
                fmt_num(rs.weighted),
                fmt_num(rg.weighted),
                fmt_num(rg.optimal),
                fmt_num(rg.reduction_factor),
            ]);
        }
    }
}
