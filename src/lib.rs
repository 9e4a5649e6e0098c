//! # is-asgd
//!
//! A from-scratch Rust reproduction of **"IS-ASGD: Accelerating
//! Asynchronous SGD using Importance Sampling"** (Wang, Li, Ye, Chen —
//! ICPP 2018). This façade crate re-exports the whole workspace; most
//! applications only need [`prelude`].
//!
//! ## Quickstart
//!
//! ```
//! use is_asgd::prelude::*;
//!
//! // A small synthetic sparse dataset with a planted ground truth.
//! let profile = DatasetProfile::tiny();
//! let data = generate(&profile, 42);
//!
//! // The paper's objective: L1-regularized logistic regression.
//! let obj = Objective::new(LogisticLoss, Regularizer::L1 { eta: 1e-5 });
//!
//! // IS-ASGD (paper Algorithm 4) at simulated concurrency τ = 16.
//! let cfg = TrainConfig::default().with_epochs(5).with_step_size(0.5);
//! let run = train(
//!     &data.dataset,
//!     &obj,
//!     Algorithm::IsAsgd,
//!     Execution::Simulated { tau: 16, workers: 4 },
//!     &cfg,
//!     "tiny",
//! )
//! .unwrap();
//! assert!(run.final_metrics.error_rate < 0.5);
//! ```
//!
//! ## Crate map
//!
//! | Re-export | Contents |
//! |---|---|
//! | [`core`] | solvers: SGD, ASGD (Hogwild), IS-SGD, IS-ASGD, SVRG-(A)SGD |
//! | [`sparse`] | CSR datasets, LibSVM IO |
//! | [`sampling`] | the per-shard `ScheduleStream` worker (draws and adaptive feedback), alias/sum-tree samplers, sample sequences, RNG |
//! | [`model`] | lock-free atomic shared model |
//! | [`losses`] | objectives, gradients, importance weights |
//! | [`datagen`] | Table-1-calibrated synthetic datasets |
//! | [`balance`] | ψ/ρ metrics, Algorithm-3 importance balancing |
//! | [`analysis`] | conflict graphs, convergence-bound calculators |
//! | [`asyncsim`] | deterministic bounded-staleness simulation |
//! | [`metrics`] | traces, time-to-target, speedups |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use isasgd_analysis as analysis;
pub use isasgd_asyncsim as asyncsim;
pub use isasgd_balance as balance;
pub use isasgd_cluster as cluster;
pub use isasgd_core as core;
pub use isasgd_datagen as datagen;
pub use isasgd_losses as losses;
pub use isasgd_metrics as metrics;
pub use isasgd_model as model;
pub use isasgd_sampling as sampling;
pub use isasgd_sparse as sparse;

/// The names most programs need, importable in one line.
pub mod prelude {
    pub use isasgd_analysis::{is_improvement_factor, ConflictStats};
    pub use isasgd_balance::{BalancePolicy, ImportanceProfile};
    pub use isasgd_cluster::{ClusterConfig, ClusterRun, SyncStrategy};
    pub use isasgd_core::{
        train, train_from, Algorithm, Execution, RunResult, SvrgVariant, TrainConfig,
    };
    pub use isasgd_datagen::{generate, DatasetProfile, FeatureKind, GeneratedData, PaperProfile};
    pub use isasgd_losses::{
        importance_weights, EvalMetrics, ImportanceScheme, LogisticLoss, Loss, Objective,
        Regularizer, SquaredHingeLoss, SquaredLoss,
    };
    pub use isasgd_metrics::{
        interpolate::time_to_error, speedup::SpeedupSummary, Trace, TracePoint,
    };
    pub use isasgd_model::{SavedModel, SharedModel};
    pub use isasgd_sampling::{
        AdaptiveIsSampler, CommitPolicy, Draw, Sampler, SamplingStrategy, ScheduleStream, ShardSpec,
    };
    pub use isasgd_sampling::{AliasTable, SampleSequence, SequenceMode};
    pub use isasgd_sparse::{libsvm, Dataset, DatasetBuilder, DatasetStats};
}
