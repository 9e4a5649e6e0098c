//! Figure 2 — importance balancing: the paper's worked 4-sample example
//! plus a quantitative sweep of shard distortion, shuffled vs balanced.

use crate::common::{paper_objective, weights, Ctx};
use isasgd_balance::{head_tail_balance, random_shuffle_order, ImportanceProfile, ShardReport};
use isasgd_core::ImportanceScheme;
use isasgd_datagen::PaperProfile;
use isasgd_metrics::table::{fmt_num, TextTable};

pub fn fill(ctx: &mut Ctx, table: &mut TextTable) {
    // --- The paper's illustration: L = {1,2,3,4}, two nodes. ----------
    let l = [1.0, 2.0, 3.0, 4.0];
    let identity: Vec<usize> = (0..4).collect();
    let balanced = head_tail_balance(&l);
    let id_report = ShardReport::analyze(&l, &identity, 2).unwrap();
    let bal_report = ShardReport::analyze(&l, &balanced, 2).unwrap();
    println!("worked example, L = {{1,2,3,4}}, 2 shards:");
    println!(
        "  sequential shards {{x1,x2|x3,x4}}: Φ = {:?}  (p4 < p2 locally — distorted)",
        id_report.phi
    );
    println!(
        "  head-tail balanced {{x1,x4|x2,x3}}: Φ = {:?}  (global optimum restored)\n",
        bal_report.phi
    );

    // --- Quantitative sweep on the synthetic profiles. ----------------
    let obj = paper_objective();
    let shards = ctx.settings.taus.clone();
    for p in PaperProfile::ALL {
        let data = ctx.dataset(p);
        let w = weights(&data.dataset, &obj, ImportanceScheme::LipschitzSmoothness);
        let prof = ImportanceProfile::compute(&w);
        for &k in &shards {
            let shuffled = random_shuffle_order(w.len(), ctx.settings.seed);
            let balanced = head_tail_balance(&w);
            let rs = ShardReport::analyze(&w, &shuffled, k).unwrap();
            let rb = ShardReport::analyze(&w, &balanced, k).unwrap();
            table.row(vec![
                format!("{} (rho={})", p.id(), fmt_num(prof.rho)),
                k.to_string(),
                fmt_num(rs.imbalance_ratio),
                fmt_num(rb.imbalance_ratio),
                fmt_num(rs.max_distortion),
                fmt_num(rb.max_distortion),
            ]);
        }
    }
}
