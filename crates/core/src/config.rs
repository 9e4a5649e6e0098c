//! Training configuration types.

use isasgd_balance::BalancePolicy;
use isasgd_losses::ImportanceScheme;
use isasgd_sampling::{CommitPolicy, SamplingStrategy, SequenceMode};

/// Which solver to run (see crate docs for the paper mapping).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Algorithm {
    /// Uniform sequential SGD (paper Eq. 3) — the baseline.
    Sgd,
    /// Importance-sampling SGD (paper Algorithm 2).
    IsSgd,
    /// Lock-free asynchronous SGD (Hogwild), uniform local sampling.
    Asgd,
    /// Importance-sampling ASGD (paper Algorithm 4) — the contribution.
    IsAsgd,
    /// Sequential SVRG.
    SvrgSgd(SvrgVariant),
    /// Asynchronous SVRG (paper Algorithm 1, the literature variant).
    SvrgAsgd,
}

impl Algorithm {
    /// Display name matching the paper's figure legends.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Sgd => "SGD",
            Algorithm::IsSgd => "IS-SGD",
            Algorithm::Asgd => "ASGD",
            Algorithm::IsAsgd => "IS-ASGD",
            Algorithm::SvrgSgd(SvrgVariant::Literature) => "SVRG-SGD",
            Algorithm::SvrgSgd(SvrgVariant::SkipMu) => "SVRG-SGD(skip-mu)",
            Algorithm::SvrgAsgd => "SVRG-ASGD",
        }
    }

    /// True for the importance-sampling members of the family.
    pub fn uses_importance(&self) -> bool {
        matches!(self, Algorithm::IsSgd | Algorithm::IsAsgd)
    }

    /// The algorithm's classical distribution — what a run draws from
    /// when no `sampling` override names one, on the engine and on the
    /// cluster alike: static IS for the importance-sampling members,
    /// uniform otherwise.
    pub fn classical_sampling(&self) -> SamplingStrategy {
        if self.uses_importance() {
            SamplingStrategy::Static
        } else {
            SamplingStrategy::Uniform
        }
    }
}

/// SVRG flavours discussed in the paper's §1.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SvrgVariant {
    /// The literature algorithm: dense `µ` added every iteration
    /// (J. Reddi et al. 2015, as restated in paper Algorithm 1).
    Literature,
    /// The public-code approximation the paper criticizes: the dense `µ`
    /// add is skipped per-iteration and applied once per epoch multiplied
    /// by the iteration count.
    SkipMu,
}

/// How the solver executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Execution {
    /// Single-threaded, exactly sequential.
    Sequential,
    /// Real lock-free Hogwild threads over a shared atomic model.
    Threads(usize),
    /// Deterministic bounded-staleness simulation: `workers` data shards
    /// interleaved round-robin, each gradient applied `tau` logical steps
    /// after computation. Reproduces the paper's τ ∈ {16, 32, 44} axis on
    /// any machine.
    Simulated {
        /// Delay parameter τ (the paper's concurrency proxy).
        tau: usize,
        /// Number of simulated workers (data shards).
        workers: usize,
    },
}

impl Execution {
    /// The concurrency number used for trace labelling.
    pub fn concurrency(&self) -> usize {
        match *self {
            Execution::Sequential => 1,
            Execution::Threads(k) => k,
            Execution::Simulated { tau, .. } => tau,
        }
    }
}

/// Full training configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the data (each epoch takes `n` steps in
    /// total across all workers).
    pub epochs: usize,
    /// Step size λ, constant over the run (the paper's Alg. 2–4: λ = 0.5
    /// or 0.05).
    pub step_size: f64,
    /// Master seed; all per-worker streams derive from it.
    pub seed: u64,
    /// Importance scheme for the IS algorithms.
    pub importance: ImportanceScheme,
    /// Shard-rearrangement policy (paper Algorithm 4 lines 2–6).
    pub balance: BalancePolicy,
    /// How per-epoch sample sequences are produced (paper §4.2).
    pub sequence: SequenceMode,
    /// Sampling-distribution override. `None` keeps each algorithm's
    /// classical distribution (static IS for IS-SGD/IS-ASGD, uniform
    /// otherwise); `Some(strategy)` forces uniform, static-IS, or
    /// adaptive-IS sampling for any SGD-family solver.
    pub sampling: Option<SamplingStrategy>,
    /// When adaptive samplers fold accumulated observations into the live
    /// distribution: at epoch boundaries (default) or every `k`
    /// observations (intra-epoch adaptivity). Every execution mode pulls
    /// draws from live per-worker streams, so `EveryK` commits steer the
    /// remaining draws of the same epoch on sequential, simulated, *and*
    /// threaded runs; it requires `sampling = Adaptive` (rejected at plan
    /// validation otherwise).
    pub commit: CommitPolicy,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 10,
            step_size: 0.5,
            seed: 0x15A5_6D00,
            importance: ImportanceScheme::LipschitzSmoothness,
            balance: BalancePolicy::default(),
            sequence: SequenceMode::RegeneratePerEpoch,
            sampling: None,
            commit: CommitPolicy::EpochBoundary,
        }
    }
}

impl TrainConfig {
    /// Builder-style epoch override.
    pub fn with_epochs(mut self, e: usize) -> Self {
        self.epochs = e;
        self
    }

    /// Builder-style step-size override.
    pub fn with_step_size(mut self, s: f64) -> Self {
        self.step_size = s;
        self
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Builder-style commit-policy override (adaptive sampling).
    pub fn with_commit(mut self, c: CommitPolicy) -> Self {
        self.commit = c;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_paper_legends() {
        assert_eq!(Algorithm::IsAsgd.name(), "IS-ASGD");
        assert_eq!(Algorithm::SvrgAsgd.name(), "SVRG-ASGD");
        assert_eq!(
            Algorithm::SvrgSgd(SvrgVariant::SkipMu).name(),
            "SVRG-SGD(skip-mu)"
        );
    }

    #[test]
    fn importance_flag() {
        assert!(Algorithm::IsAsgd.uses_importance());
        assert!(Algorithm::IsSgd.uses_importance());
        assert!(!Algorithm::Asgd.uses_importance());
        assert!(!Algorithm::SvrgAsgd.uses_importance());
    }

    #[test]
    fn execution_concurrency() {
        assert_eq!(Execution::Sequential.concurrency(), 1);
        assert_eq!(Execution::Threads(8).concurrency(), 8);
        assert_eq!(
            Execution::Simulated {
                tau: 44,
                workers: 4
            }
            .concurrency(),
            44
        );
    }

    #[test]
    fn builder_methods() {
        let c = TrainConfig::default()
            .with_epochs(3)
            .with_step_size(0.1)
            .with_seed(9)
            .with_commit(CommitPolicy::EveryK(16));
        assert_eq!(c.epochs, 3);
        assert_eq!(c.step_size, 0.1);
        assert_eq!(c.seed, 9);
        assert_eq!(c.commit, CommitPolicy::EveryK(16));
        let d = TrainConfig::default();
        assert_eq!(d.sampling, None);
        assert_eq!(d.commit, CommitPolicy::EpochBoundary);
    }
}
