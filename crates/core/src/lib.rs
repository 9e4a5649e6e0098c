//! IS-ASGD and its baselines: the paper's solver family behind one
//! `Solver`/`Sampler` trait runtime.
//!
//! One entry point, [`train`], validates an
//! ([`Algorithm`], [`Execution`]) pair, resolves the
//! [`SamplingStrategy`], constructs the matching
//! [`Solver`](solvers::Solver) kernel, and hands it to the shared
//! [`ExecutionEngine`](solvers::engine::run_engine) — which owns the
//! epoch loop, worker pool, staleness queue, timing and
//! [`Trace`](isasgd_metrics::Trace) recording for *every* solver.
//!
//! # Algorithm × execution matrix
//!
//! | Algorithm | paper reference | kernel | executions |
//! |---|---|---|---|
//! | [`Algorithm::Sgd`] | Eq. 3 (uniform sequential) | `SgdSolver` | Sequential, Simulated |
//! | [`Algorithm::IsSgd`] | Algorithm 2 | `SgdSolver` | Sequential, Simulated |
//! | [`Algorithm::Asgd`] | Hogwild (Recht et al. 2011) | `SgdSolver` | Threads, Simulated |
//! | [`Algorithm::IsAsgd`] | **Algorithm 4 — the contribution** | `SgdSolver` | Threads, Simulated |
//! | [`Algorithm::SvrgSgd`] | Johnson & Zhang 2013 | `SvrgSolver` | Sequential |
//! | [`Algorithm::SvrgAsgd`] | Algorithm 1 | `SvrgSolver` | Threads, Simulated |
//!
//! The SGD family is one kernel: importance sampling changes only which
//! row is drawn and the `1/(n·p_i)` on the step.
//!
//! `Execution::Threads` runs genuine lock-free Hogwild threads over a
//! [`SharedModel`](isasgd_model::SharedModel) through each solver's
//! [`SharedKernel`](solvers::SharedKernel); `Execution::Simulated`
//! reproduces any concurrency level τ deterministically by pushing the
//! solvers' compute/apply-split updates through a bounded
//! [`DelayQueue`](isasgd_asyncsim::DelayQueue), which is how the paper's
//! 16/32/44-thread sweeps are reproduced on small hosts.
//!
//! # Sampling strategies
//!
//! Orthogonally to the matrix above, every SGD-family worker *is* a
//! [`ScheduleStream`](isasgd_sampling::ScheduleStream), built by the one
//! constructor `isasgd-cluster` nodes use too
//! ([`ScheduleStream::for_shard`](isasgd_sampling::ScheduleStream::for_shard)):
//! it owns the shard's boxed [`Sampler`](isasgd_sampling::Sampler), its
//! draw RNG and its observation path. Draws are pulled in bounded chunks
//! from the live distribution on every execution mode (no schedule is
//! ever materialized), so intra-epoch re-weighting
//! (`TrainConfig::commit = EveryK`) steers the remaining draws of the
//! same epoch even on real Hogwild threads:
//!
//! | [`SamplingStrategy`] | distribution | corrections |
//! |---|---|---|
//! | `Uniform` | uniform i.i.d. | 1 |
//! | `Static` | offline `p_i ∝ L_i` sequences (Alg. 2) | `1/(n·p_i)`, frozen |
//! | `Adaptive` | sum-tree-backed, re-weighted per epoch from observed `‖∇f_i‖` | `1/(n·p_i)`, live |
//!
//! `TrainConfig::sampling = None` keeps each algorithm's classical
//! distribution ([`Algorithm::classical_sampling`]: static for the
//! IS-named members, uniform otherwise); the CLI surfaces the override
//! as `--sampling`. Under [`ImportanceScheme::Uniform`] there is nothing
//! to weight by and every strategy is the uniform sampler
//! ([`ImportanceScheme::effective_sampling`]). `isasgd-cluster` runs
//! resolve through the same two methods. Variance-reduction solvers
//! (SVRG) sample uniformly by construction and reject explicit IS
//! strategies.
//!
//! Every run produces a [`RunResult`] with a
//! [`Trace`](isasgd_metrics::Trace) (per-epoch RMSE / error-rate /
//! wall-clock, evaluation time excluded) and timing breakdowns, which the
//! experiment harness turns into the paper's figures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Determinism (README, *Static guarantees*): the lists in this crate's
// `clippy.toml` and the lints below; the only escape hatch is
// `#[expect(clippy::…, reason = "…")]` on the statement.
#![cfg_attr(
    not(test),
    deny(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        clippy::float_cmp,
        clippy::allow_attributes,
        clippy::allow_attributes_without_reason
    )
)]

pub mod config;
pub mod error;
pub mod eval;
pub mod solvers;
pub mod trainer;

pub use config::{Algorithm, Execution, SvrgVariant, TrainConfig};
pub use error::CoreError;
pub use trainer::{train, train_from, RunResult};

// Re-export the sibling-crate types that appear in this crate's API so
// downstream users need only depend on `isasgd-core`.
pub use isasgd_balance::BalancePolicy;
pub use isasgd_losses::{
    importance_weights, step_corrections, EvalMetrics, ImportanceScheme, LogisticLoss, Loss,
    Objective, Regularizer, SquaredHingeLoss, SquaredLoss,
};
pub use isasgd_metrics::{Trace, TracePoint};
pub use isasgd_sampling::{CommitPolicy, Sampler, SamplingStrategy, SequenceMode};
pub use isasgd_sparse::{Dataset, DatasetBuilder};

/// Lint canary: fails `-D warnings` the day `clippy.toml` stops listing
/// the hash containers.
#[cfg(clippy)]
#[expect(clippy::disallowed_types, reason = "canary")]
const _: Option<std::collections::HashMap<u8, u8>> = None;
