//! The `ablation-intra-epoch` artifact: epoch-boundary vs intra-epoch
//! (`every-k`) commit policies for adaptive importance sampling.
//!
//! The adaptive sampler's distribution is re-estimated from observed
//! gradient magnitudes; *when* those estimates become visible to draws
//! is the [`CommitPolicy`]. Epoch-boundary commits keep every epoch's
//! distribution frozen (deterministic, per-epoch-unbiased — the default
//! since the adaptive sampler landed). `every-k` commits re-weight the
//! live sum-tree distribution every `k` observations, so draws later in
//! the same epoch already prefer the rows the current model finds hard —
//! at the cost of drawing on the hot path (streamed schedules) instead
//! of pre-generated sequences. This command quantifies that trade at the
//! paper's interesting importance spreads, including the acceptance
//! point ψ = 0.35.

use crate::common::{psi_sweep, run_averaged, sweep_objective, Ctx};
use isasgd_core::{
    train, Algorithm, CommitPolicy, Execution, ImportanceScheme, RunResult, SamplingStrategy,
    TrainConfig,
};
use isasgd_metrics::speedup::epoch_speedup;
use isasgd_metrics::table::{fmt_num, TextTable};

/// Runs the commit-policy sweep.
pub fn run(ctx: &mut Ctx) {
    println!("\n=== Intra-epoch adaptivity ablation (commit policy) ===\n");
    let obj = sweep_objective();
    let mut table = TextTable::new(vec![
        "psi_norm",
        "exec",
        "commit",
        "sp@50%",
        "sp@80%",
        "final_obj",
        "commits",
    ]);
    let epochs = ctx.settings.epochs.unwrap_or(12);
    let avg = ctx.settings.avg_runs.max(3);
    let policies = [
        CommitPolicy::EpochBoundary,
        CommitPolicy::EveryK(256),
        CommitPolicy::EveryK(32),
    ];
    for psi in [0.5, 0.35] {
        // Same tuned-λ protocol as the adaptive ablation: uniform at its
        // own stability edge, IS at the IS edge.
        let pt = psi_sweep("intra-epoch", psi, ctx.settings.seed);

        let run_one = |sampling: Option<SamplingStrategy>,
                       commit: CommitPolicy,
                       lambda: f64,
                       algo: Algorithm,
                       exec: Execution|
         -> RunResult {
            run_averaged(avg, ctx.settings.seed, |s| {
                let mut c = TrainConfig::default()
                    .with_epochs(epochs)
                    .with_step_size(lambda)
                    .with_seed(s);
                c.importance = ImportanceScheme::LipschitzSmoothness;
                c.sampling = sampling;
                c.commit = commit;
                train(&pt.data.dataset, &obj, algo, exec, &c, "intra-epoch").expect("ablation run")
            })
        };
        // Both the sequential path and real Hogwild threads: streamed
        // worker schedules mean every-k commits steer mid-epoch draws on
        // both (threaded commits used to silently land at the barrier).
        let arms: [(&str, Algorithm, Execution); 2] = [
            ("seq", Algorithm::IsSgd, Execution::Sequential),
            ("thr2", Algorithm::IsAsgd, Execution::Threads(2)),
        ];
        for (exec_name, algo, exec) in arms {
            let uniform = run_one(
                Some(SamplingStrategy::Uniform),
                CommitPolicy::EpochBoundary,
                pt.lambda_u,
                if matches!(exec, Execution::Sequential) {
                    Algorithm::Sgd
                } else {
                    Algorithm::Asgd
                },
                exec,
            );
            for commit in policies {
                let r = run_one(
                    Some(SamplingStrategy::Adaptive),
                    commit,
                    pt.lambda_is,
                    algo,
                    exec,
                );
                table.row(vec![
                    fmt_num(psi),
                    exec_name.to_string(),
                    commit.name(),
                    epoch_speedup(&uniform.trace, &r.trace, 0.50).map_or("-".into(), fmt_num),
                    epoch_speedup(&uniform.trace, &r.trace, 0.80).map_or("-".into(), fmt_num),
                    fmt_num(r.final_metrics.objective),
                    r.sampler_commits.last().copied().unwrap_or(0).to_string(),
                ]);
            }
        }
    }
    let rendered = table.render();
    println!("{rendered}");
    println!(
        "Expected: every-k commits track the shifting gradient distribution\n\
         within each pass, which matters most late in training and at low ψ\n\
         (heavy importance skew). Smaller k reacts faster but re-weights from\n\
         noisier windows; epoch commits are the deterministic baseline. The\n\
         thr2 arm exercises the streamed worker schedules: its `commits`\n\
         column exceeding workers×epochs is intra-epoch adaptivity firing on\n\
         real Hogwild threads. The cost side is structural rather than\n\
         visible here: every-k runs draw on the training path (streamed in\n\
         k-strides) instead of pulling large amortized chunks.\n"
    );
    ctx.write("ablation_intra_epoch.txt", &rendered);
    ctx.write("ablation_intra_epoch.csv", &table.to_csv());
}
