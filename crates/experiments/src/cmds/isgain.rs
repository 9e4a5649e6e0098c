//! The `is-gain` demonstration: the regime where importance sampling
//! *provably* delivers the paper's claimed factors.
//!
//! The paper's Lemma 2 inherits Needell et al.'s bound: uniform sampling
//! needs `k ∝ sup L/µ` iterations where IS needs `k ∝ L̄/µ` — a gain of
//! `sup L/L̄` in the curvature-dominated (Kaczmarz) regime of the
//! *squared* loss with the step size at the uniform-sampling stability
//! edge. The main figures use the paper's saturated logistic objective,
//! where that mechanism is clipped and the measured IS-ASGD gain is ≈ 1×
//! (see EXPERIMENTS.md); this artifact exhibits the claim in the regime
//! its own theory targets, sweeping the importance spread ψ.

use crate::common::{psi_sweep, run_averaged, sweep_objective, Ctx};
use isasgd_core::{train, Algorithm, Execution, ImportanceScheme, TrainConfig};
use isasgd_metrics::speedup::epoch_speedup;
use isasgd_metrics::table::{fmt_num, TextTable};

/// Runs the ψ sweep.
pub fn run(ctx: &mut Ctx) {
    println!("\n=== IS gain demonstration (squared loss, Eq. 13/14 regime) ===\n");
    let obj = sweep_objective();
    let mut table = TextTable::new(vec![
        "psi_norm",
        "sup_over_mean",
        "pair_protocol",
        "sp@50%",
        "sp@80%",
        "sp@95%",
    ]);
    let epochs = ctx.settings.epochs.unwrap_or(12);
    let avg = ctx.settings.avg_runs.max(3);
    for psi in [0.9, 0.7, 0.5, 0.35] {
        // The table reports both step-size protocols: `tuned-λ` (each
        // sampler at its own stability edge, theory's comparison — the
        // sup/mean gain) and `same-λ` (the paper's experimental protocol
        // — variance-channel gain only).
        let pt = psi_sweep("isgain", psi, ctx.settings.seed);

        let mk = |seed: u64, lambda: f64| {
            let mut c = TrainConfig::default()
                .with_epochs(epochs)
                .with_step_size(lambda)
                .with_seed(seed);
            c.importance = ImportanceScheme::LipschitzSmoothness;
            c
        };
        let exec = Execution::Simulated {
            tau: 32,
            workers: 8,
        };
        let run_algo = |algo: Algorithm, lambda: f64| {
            run_averaged(avg, ctx.settings.seed, |s| {
                let e = match algo {
                    Algorithm::Sgd | Algorithm::IsSgd => Execution::Sequential,
                    _ => exec,
                };
                train(&pt.data.dataset, &obj, algo, e, &mk(s, lambda), "isgain")
                    .expect("isgain run")
            })
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
                epoch_speedup(&slow.trace, &fast.trace, 0.50).map_or("-".into(), fmt_num),
                epoch_speedup(&slow.trace, &fast.trace, 0.80).map_or("-".into(), fmt_num),
                epoch_speedup(&slow.trace, &fast.trace, 0.95).map_or("-".into(), fmt_num),
            ]);
        }
    }
    let rendered = table.render();
    println!("{rendered}");
    println!(
        "Expected: tuned-λ speedups grow with sup L/L̄ as ψ falls — into and\n\
         beyond the paper's 1.13–1.54× band — and the asynchronous pair tracks\n\
         the sequential pair (Lemma 2's 'IS-ASGD inherits IS-SGD's bound up to\n\
         an order-wise constant'). Same-λ speedups (the paper's experimental\n\
         protocol) collapse to the variance channel: per-epoch effective step\n\
         mass per row is λ·L_i under both samplers, so only the gradient-noise\n\
         reduction remains.\n"
    );
    ctx.write("is_gain.txt", &rendered);
    ctx.write("is_gain.csv", &table.to_csv());
}
