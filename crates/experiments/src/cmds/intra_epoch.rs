//! The commit-policy ablation: epoch-boundary vs intra-epoch
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
//! of pre-generated sequences. This artifact quantifies that trade at the
//! paper's interesting importance spreads, including the acceptance
//! point ψ = 0.35.

use crate::common::{fmt_opt, psi_sweep, sweep_objective, train_avg, Ctx};
use isasgd_core::{Algorithm, CommitPolicy, Execution, ImportanceScheme, SamplingStrategy};
use isasgd_metrics::speedup::epoch_speedup;
use isasgd_metrics::table::{fmt_num, TextTable};

pub fn fill(ctx: &mut Ctx, table: &mut TextTable) {
    let obj = sweep_objective();
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
        let run_one = |sampling, commit, lambda, algo, exec| {
            let mut c = ctx.config(epochs, lambda);
            c.importance = ImportanceScheme::LipschitzSmoothness;
            c.sampling = Some(sampling);
            c.commit = commit;
            train_avg(avg, &pt.data.dataset, &obj, algo, exec, &c, "intra-epoch")
        };
        // Both the sequential path and real Hogwild threads: streamed
        // worker schedules mean every-k commits steer mid-epoch draws on
        // both (threaded commits used to silently land at the barrier).
        for (exec_name, uniform_algo, algo, exec) in [
            (
                "seq",
                Algorithm::Sgd,
                Algorithm::IsSgd,
                Execution::Sequential,
            ),
            (
                "thr2",
                Algorithm::Asgd,
                Algorithm::IsAsgd,
                Execution::Threads(2),
            ),
        ] {
            let uniform = run_one(
                SamplingStrategy::Uniform,
                CommitPolicy::EpochBoundary,
                pt.lambda_u,
                uniform_algo,
                exec,
            );
            for commit in policies {
                let adaptive = SamplingStrategy::Adaptive;
                let r = run_one(adaptive, commit, pt.lambda_is, algo, exec);
                table.row(vec![
                    fmt_num(psi),
                    exec_name.to_string(),
                    commit.name(),
                    fmt_opt(epoch_speedup(&uniform.trace, &r.trace, 0.50)),
                    fmt_opt(epoch_speedup(&uniform.trace, &r.trace, 0.80)),
                    fmt_num(r.final_metrics.objective),
                    r.sampler_commits.last().copied().unwrap_or(0).to_string(),
                ]);
            }
        }
    }
}
