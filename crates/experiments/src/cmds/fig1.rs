//! Figure 1 — why SVRG-ASGD loses sparsity: the per-iteration cost of an
//! index-compressed gradient update vs one involving the dense µ.
//!
//! The paper's figure is an illustration; the measurable claim behind it
//! is that the dense-µ add makes each iteration `O(d)` instead of
//! `O(nnz)`, i.e. slower by roughly `d / nnz` — "five to seven magnitudes"
//! at their scales. This artifact times both update kernels on each
//! profile and reports the measured ratio next to `d / nnz`.

use crate::common::Ctx;
use isasgd_datagen::PaperProfile;
use isasgd_metrics::table::{fmt_num, TextTable};
use isasgd_sparse::Dataset;
use std::time::Instant;

/// Times `iters` sparse updates of `w` by rows of the dataset — each
/// followed, when `mu` is given, by the dense-µ add of the SVRG
/// literature kernel.
fn time_updates(data: &Dataset, w: &mut [f64], mu: Option<&[f64]>, iters: usize) -> f64 {
    let n = data.n_samples();
    let t0 = Instant::now();
    for t in 0..iters {
        data.row(t % n).axpy_into(-1e-9, w);
        for (wj, &mj) in w.iter_mut().zip(mu.unwrap_or_default()) {
            *wj -= 1e-9 * mj;
        }
    }
    t0.elapsed().as_secs_f64() / iters as f64
}

pub fn fill(ctx: &mut Ctx, table: &mut TextTable) {
    for p in PaperProfile::ALL {
        let data = ctx.dataset(p);
        let ds = &data.dataset;
        let d = ds.dim();
        let mean_nnz = ds.mean_nnz();
        let mut w = vec![0.0f64; d];
        let mu = vec![1e-6f64; d];
        // Calibrate iteration counts so each timing takes ~0.1–0.5 s.
        let sparse_iters = 200_000;
        let dense_iters = (50_000_000 / d).clamp(20, 10_000);
        let s = time_updates(ds, &mut w, None, sparse_iters);
        let dn = time_updates(ds, &mut w, Some(&mu), dense_iters);
        table.row(vec![
            p.display_name().to_string(),
            d.to_string(),
            format!("{mean_nnz:.1}"),
            format!("{:.1}", s * 1e9),
            format!("{:.1}", dn * 1e9),
            fmt_num(dn / s),
            fmt_num(d as f64 / mean_nnz),
        ]);
    }
}
