//! Figure 5 — error-rate → absolute-speedup slices of IS-ASGD over ASGD
//! and over SGD, per concurrency level.
//!
//! Derived from the Figure-4 traces exactly as the paper derives Fig. 5
//! from Fig. 4: for each error level on the x-axis, the z-axis is the
//! ratio of (linearly interpolated) wall-clock times to first reach it.
//! The CSV carries the slices at full precision (`NaN` where a target
//! is never reached), so the artifact writes it itself.

use super::fig4;
use crate::common::{error_grid, fmt_opt, Ctx};
use isasgd_metrics::speedup::speedup_curve;
use isasgd_metrics::table::{fmt_num, TextTable};
use std::fmt::Write as _;

pub fn fill(ctx: &mut Ctx, table: &mut TextTable) {
    let traces = fig4::load(ctx);
    let mut csv = String::from("dataset,threads,target_err,speedup_vs_asgd,speedup_vs_sgd\n");
    for c in fig4::cells(&traces) {
        let best = c.asgd.best_error().unwrap_or(0.0);
        let first = c.asgd.points.first().map_or(1.0, |p| p.error_rate);
        let grid = error_grid(best, first.max(best + 1e-9), 8);
        let vs_asgd = speedup_curve(c.asgd, c.is_asgd, &grid);
        let vs_sgd = c.sgd.map(|s| speedup_curve(s, c.is_asgd, &grid));
        for (i, &(e, s_a)) in vs_asgd.iter().enumerate() {
            let s_s = vs_sgd.as_ref().and_then(|v| v[i].1);
            table.row(vec![
                c.dataset.to_string(),
                c.threads.to_string(),
                fmt_num(e),
                fmt_opt(s_a),
                fmt_opt(s_s),
            ]);
            let (a, s) = (s_a.unwrap_or(f64::NAN), s_s.unwrap_or(f64::NAN));
            let _ = writeln!(csv, "{},{},{e},{a},{s}", c.dataset, c.threads);
        }
    }
    ctx.write(".csv", &csv);
}
