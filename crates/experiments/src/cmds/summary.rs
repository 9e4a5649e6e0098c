//! §4.2 summary — the headline speedup numbers.
//!
//! The paper reports: average IS-ASGD-over-ASGD speedups of 1.26–1.97×,
//! optimum speedups of 1.13–1.54×, and IS setup overhead of 1.1–7.7%.
//! This artifact aggregates the Figure-4 traces into the same statistics.

use super::fig4;
use crate::artifacts::{hi, lo};
use crate::common::{fmt_opt, Ctx};
use isasgd_metrics::speedup::SpeedupSummary;
use isasgd_metrics::table::{fmt_num, TextTable};

pub fn fill(ctx: &mut Ctx, table: &mut TextTable) {
    let traces = fig4::load(ctx);
    let (mut avg, mut opt) = (Vec::new(), Vec::new());
    for c in fig4::cells(&traces) {
        let Some(s) = SpeedupSummary::compute(c.asgd, c.is_asgd, 12) else {
            continue;
        };
        avg.push(s.average);
        opt.extend(s.at_optimum);
        table.row(vec![
            c.dataset.to_string(),
            c.threads.to_string(),
            fmt_num(s.average),
            fmt_opt(s.at_optimum),
            fmt_num(s.max),
            fmt_num(s.min),
        ]);
    }
    let span = |v: &[f64]| {
        if v.is_empty() {
            return "never reached".to_string();
        }
        let (lo, hi) = (lo(v.iter().copied()), hi(v.iter().copied()));
        format!("{lo:.2}–{hi:.2}x")
    };
    let (avg, opt) = (span(&avg), span(&opt));
    println!("measured: average speedups {avg}, optimum speedups {opt}\n");
}
