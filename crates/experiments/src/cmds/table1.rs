//! Table 1 — evaluation dataset statistics, paper vs synthetic: per
//! profile, the synthetic dataset's dimension, instance count, gradient
//! sparsity, ψ/n and ρ next to the paper's values.

use crate::common::{paper_objective, weights, Ctx};
use isasgd_balance::ImportanceProfile;
use isasgd_core::ImportanceScheme;
use isasgd_datagen::PaperProfile;
use isasgd_metrics::table::{fmt_num, TextTable};
use isasgd_sparse::DatasetStats;

pub fn fill(ctx: &mut Ctx, table: &mut TextTable) {
    let obj = paper_objective();
    for p in PaperProfile::ALL {
        let data = ctx.dataset(p);
        let stats = DatasetStats::compute(&data.dataset);
        let w = weights(&data.dataset, &obj, ImportanceScheme::LipschitzSmoothness);
        let prof = ImportanceProfile::compute(&w);
        let (pd, pn, pspa, ppsi, prho) = p.paper_table1();
        table.row(vec![
            p.display_name().to_string(),
            stats.dim.to_string(),
            stats.n_samples.to_string(),
            fmt_num(stats.density),
            fmt_num(prof.psi_normalized),
            fmt_num(prof.rho),
            pd.to_string(),
            pn.to_string(),
            fmt_num(pspa),
            fmt_num(ppsi),
            fmt_num(prho),
        ]);
    }
}
