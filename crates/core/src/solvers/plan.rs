//! Pre-training setup shared by all solvers.
//!
//! This is the offline part of the paper's Algorithms 2 and 4: compute the
//! importance weights, decide balancing vs shuffling from ρ, rearrange and
//! shard the dataset ([`isasgd_balance::rearrange`]), and build one
//! [`ScheduleStream`] per worker shard — the stream is the worker: it
//! owns the shard's boxed [`Sampler`](isasgd_sampling::Sampler) (uniform,
//! static-IS, or adaptive-IS per the requested [`SamplingStrategy`]), its
//! private draw RNG and its feedback loop, and is the only draw mechanism
//! every execution path consumes. Everything here is timed into
//! `setup_secs` — the "sampling time" overhead the paper quantifies as
//! 1.1–7.7% (§4.2).
//!
//! What runs per shard: Alg. 4 keeps the shards independent, so the two
//! passes that move the most memory run one thread per shard — the
//! contiguous copy of each shard's rows (inside `rearrange`) and each
//! stream's refresh between epochs ([`TrainingPlan::advance_epoch`]).
//! The weights, the ρ that picks balancing or shuffling, the balancing
//! sort and the streams' build stay on the caller's thread. A one-shard
//! plan, and a plan whose shards are too small to pay for a thread
//! ([`MIN_WORK_PER_THREAD`](isasgd_sparse::par::MIN_WORK_PER_THREAD)),
//! spawns nothing. Every thread reads and writes only its own shard's
//! rows, sampler and RNG, so a plan and its draws are the same bits
//! however the threads are scheduled.

use crate::config::TrainConfig;
use crate::error::CoreError;
use isasgd_balance::{rearrange, BalancePolicy};
use isasgd_losses::{importance_weights, Loss, Objective};
use isasgd_sampling::{balance_seed, CommitPolicy, SamplingStrategy, ScheduleStream, ShardSpec};
use isasgd_sparse::par::map_each;
use isasgd_sparse::Dataset;
use std::ops::Range;
use std::time::Instant;

/// The per-worker training plan: rearranged data, shard ranges, and one
/// draw stream per shard.
pub struct TrainingPlan {
    /// Dataset rearranged per the balance decision (identity order for
    /// sequential uniform solvers); [`rearrange`] decides whether it is
    /// a view of the caller's rows or a contiguous copy.
    pub data: Dataset,
    /// Contiguous shard (row range into `data`) per worker.
    pub ranges: Vec<Range<usize>>,
    /// Per-worker draw streams (each owns its shard's sampler, draw RNG
    /// and observation scaling; draws carry *global* row indices).
    pub streams: Vec<ScheduleStream>,
    /// When adaptive samplers commit accumulated observations.
    pub commit: CommitPolicy,
    /// Wall-clock spent building this plan.
    pub setup_secs: f64,
    /// Whether head-tail balancing was applied.
    pub balanced: bool,
    /// Measured ρ of the importance weights (0 for uniform).
    pub rho: f64,
}

impl std::fmt::Debug for TrainingPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrainingPlan")
            .field("workers", &self.ranges.len())
            .field("n", &self.data.n_samples())
            .field("balanced", &self.balanced)
            .field("rho", &self.rho)
            .finish()
    }
}

impl TrainingPlan {
    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.ranges.len()
    }

    /// True when any worker's sampler adapts from feedback.
    pub fn is_adaptive(&self) -> bool {
        self.streams.iter().any(|s| s.sampler().is_adaptive())
    }

    /// Advances every worker's stream to the next epoch (committing any
    /// adaptive re-weighting, redrawing or reshuffling pre-generated
    /// sequences, and rewinding the draw counters).
    ///
    /// Each stream is reset on a thread of its own, the first on the
    /// caller's, when the shards are large enough to pay for the threads
    /// ([`map_each`], one unit of work per row); a one-stream plan, or
    /// one of small shards, resets on the caller's thread. A stream's
    /// reset reads and writes only its own sampler and RNG, so the draws
    /// that follow are those of a serial reset, bit for bit. The engine
    /// bills the whole call, spawn and join included, to sampling time,
    /// which it reports inside `setup_secs`.
    pub fn advance_epoch(&mut self) {
        let rows = self.data.n_samples();
        map_each(self.streams.iter_mut(), rows, ScheduleStream::epoch_reset);
    }

    /// Total sampler commit version across all workers: how many
    /// observation windows have been folded into live distributions so
    /// far. Growing by more than one per worker per epoch is intra-epoch
    /// adaptivity actually firing.
    pub fn commit_version(&self) -> u64 {
        self.streams.iter().map(|s| s.commit_version()).sum()
    }
}

/// Builds the plan.
///
/// * `workers` — number of shards/threads (1 for sequential).
/// * `strategy` — the sampling distribution every shard draws from.
pub fn build_plan<L: Loss>(
    ds: &Dataset,
    obj: &Objective<L>,
    cfg: &TrainConfig,
    workers: usize,
    strategy: SamplingStrategy,
) -> Result<TrainingPlan, CoreError> {
    if ds.is_empty() {
        return Err(CoreError::EmptyDataset);
    }
    if ds.dim() == 0 {
        return Err(CoreError::InvalidConfig(
            "dataset dimension is 0: the rows have no features".into(),
        ));
    }
    if workers == 0 || workers > ds.n_samples() {
        return Err(CoreError::InvalidConfig(format!(
            "workers = {workers} must be in 1..={}",
            ds.n_samples()
        )));
    }
    if !(cfg.step_size.is_finite() && cfg.step_size > 0.0) {
        return Err(CoreError::InvalidConfig(format!(
            "step size {} must be positive",
            cfg.step_size
        )));
    }
    obj.reg.check().map_err(CoreError::InvalidConfig)?;
    if cfg.epochs == 0 {
        return Err(CoreError::InvalidConfig("epochs must be ≥ 1".into()));
    }
    cfg.commit
        .check_strategy(strategy)
        .map_err(|e| CoreError::InvalidConfig(e.to_string()))?;

    #[expect(
        clippy::disallowed_methods,
        reason = "measures reported setup_secs only; no control-flow or results depend on it"
    )]
    let t0 = Instant::now();
    let seed = balance_seed(cfg.seed, workers);
    let arranged = if strategy.uses_importance() {
        let w = importance_weights(ds, &obj.loss, obj.reg, cfg.importance);
        rearrange(ds, Some(&w), cfg.balance, seed, workers)?
    } else {
        // ASGD shuffles before sharding (standard Hogwild practice) so
        // shards are statistically homogeneous; a lone uniform worker
        // keeps the file order.
        let policy = if workers > 1 {
            BalancePolicy::ForceShuffle
        } else {
            BalancePolicy::Identity
        };
        rearrange(ds, None, policy, seed, workers)?
    };

    // The streams are built here, on the caller's thread: a stream built
    // on a thread of its own allocates its tables from that thread's
    // malloc arena, which kept about 3 MiB more resident on a 2-shard,
    // 100 k-row run for no measurable set-up gain.
    let data = &arranged.data;
    let streams = arranged
        .ranges
        .iter()
        .enumerate()
        .map(|(k, r)| {
            let spec = ShardSpec {
                shard: k,
                shards: workers,
                seed: cfg.seed,
                range: r.clone(),
                strategy,
                weights: arranged.weights.get(r.clone()),
                sequence: cfg.sequence,
                commit: cfg.commit,
            };
            ScheduleStream::for_shard(spec, r.clone().map(|i| data.row(i).norm_sq()))
        })
        .collect::<Result<Vec<_>, _>>()?;

    Ok(TrainingPlan {
        data: arranged.data,
        ranges: arranged.ranges,
        streams,
        commit: cfg.commit,
        setup_secs: t0.elapsed().as_secs_f64(),
        balanced: arranged.balanced,
        rho: arranged.rho,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Algorithm, Execution};
    use isasgd_losses::{ImportanceScheme, LogisticLoss, Regularizer};
    use isasgd_sampling::SequenceMode;
    use isasgd_sparse::{DatasetBuilder, SparseError};

    fn ds(n: usize) -> Dataset {
        let mut b = DatasetBuilder::new(4);
        for i in 0..n {
            // Varying norms give non-trivial importance weights.
            let v = 1.0 + (i % 5) as f64;
            b.push_row(&[((i % 4) as u32, v)], if i % 2 == 0 { 1.0 } else { -1.0 })
                .unwrap();
        }
        b.finish()
    }

    fn obj() -> Objective<LogisticLoss> {
        Objective::new(LogisticLoss, Regularizer::None)
    }

    fn drain_epoch(plan: &mut TrainingPlan, k: usize) -> Vec<(usize, f64)> {
        let stream = &mut plan.streams[k];
        let mut draws = Vec::new();
        stream.fill_chunk(&mut draws, stream.remaining());
        draws.iter().map(|d| (d.row as usize, d.corr)).collect()
    }

    #[test]
    fn uniform_plan_shapes() {
        let d = ds(20);
        let mut p = build_plan(
            &d,
            &obj(),
            &TrainConfig::default(),
            4,
            SamplingStrategy::Uniform,
        )
        .unwrap();
        assert_eq!(p.workers(), 4);
        assert_eq!(p.data.n_samples(), 20);
        assert!(!p.is_adaptive());
        for k in 0..4 {
            let range = p.ranges[k].clone();
            for (row, c) in drain_epoch(&mut p, k) {
                assert!(range.contains(&row), "draws stay inside the shard");
                assert_eq!(c, 1.0);
            }
            assert!(p.streams[k].is_exhausted());
        }
        assert!(!p.balanced);
    }

    #[test]
    fn static_plan_has_corrections_with_unit_mean_under_p() {
        let d = ds(40);
        let mut p = build_plan(
            &d,
            &obj(),
            &TrainConfig::default(),
            2,
            SamplingStrategy::Static,
        )
        .unwrap();
        // Empirically: E_p[corr] over many draws ≈ 1 per shard.
        for k in 0..2 {
            let mut sum = 0.0;
            let mut count = 0usize;
            for _ in 0..200 {
                for (_, c) in drain_epoch(&mut p, k) {
                    sum += c;
                    count += 1;
                }
                p.streams[k].epoch_reset();
            }
            let mean = sum / count as f64;
            assert!((mean - 1.0).abs() < 0.05, "shard {k}: E[corr] = {mean}");
        }
    }

    #[test]
    fn is_plans_balance_skewed_weights() {
        let d = ds(40); // norms 1..5 ⇒ ρ well above ζ=5e-4
        for strategy in [SamplingStrategy::Static, SamplingStrategy::Adaptive] {
            let p = build_plan(&d, &obj(), &TrainConfig::default(), 4, strategy).unwrap();
            assert!(p.balanced, "{strategy:?}");
            assert!(p.rho > 5e-4);
        }
    }

    #[test]
    fn adaptive_plan_is_adaptive() {
        let d = ds(30);
        let p = build_plan(
            &d,
            &obj(),
            &TrainConfig::default(),
            2,
            SamplingStrategy::Adaptive,
        )
        .unwrap();
        assert!(p.is_adaptive());
        assert_eq!(p.streams.len(), 2);
        assert_eq!(p.commit_version(), 0, "no windows folded before training");
    }

    #[test]
    fn sequential_plan_keeps_order() {
        let d = ds(10);
        let p = build_plan(
            &d,
            &obj(),
            &TrainConfig::default(),
            1,
            SamplingStrategy::Uniform,
        )
        .unwrap();
        assert_eq!(p.data, d, "sequential uniform must not reorder");
    }

    #[test]
    fn validation_errors() {
        let d = ds(5);
        let cfg = TrainConfig::default();
        let s = SamplingStrategy::Uniform;
        assert!(matches!(
            build_plan(&DatasetBuilder::new(3).finish(), &obj(), &cfg, 1, s),
            Err(CoreError::EmptyDataset)
        ));
        let mut featureless = DatasetBuilder::new(0);
        featureless.push_row(&[], 1.0).unwrap();
        featureless.push_row(&[], -1.0).unwrap();
        assert!(matches!(
            build_plan(&featureless.finish(), &obj(), &cfg, 1, s),
            Err(CoreError::InvalidConfig(msg)) if msg.contains("dimension is 0")
        ));
        assert!(build_plan(&d, &obj(), &cfg, 0, s).is_err());
        assert!(build_plan(&d, &obj(), &cfg, 6, s).is_err());
        let bad = TrainConfig::default().with_step_size(-1.0);
        assert!(build_plan(&d, &obj(), &bad, 1, s).is_err());
        let bad = TrainConfig::default().with_epochs(0);
        assert!(build_plan(&d, &obj(), &bad, 1, s).is_err());
        let anti = Objective::new(LogisticLoss, Regularizer::L1 { eta: -1.0 });
        assert!(matches!(
            build_plan(&d, &anti, &cfg, 1, s),
            Err(CoreError::InvalidConfig(msg)) if msg.contains("η = -1")
        ));
    }

    #[test]
    fn every_k_without_adaptive_sampling_is_rejected() {
        // Regression: `--commit every-k` with a non-adaptive sampler used
        // to be accepted and silently run epoch-boundary semantics (the
        // sampler ignores update_weight). It must be a loud config error.
        let d = ds(20);
        let cfg = TrainConfig::default().with_commit(CommitPolicy::EveryK(8));
        for strategy in [SamplingStrategy::Uniform, SamplingStrategy::Static] {
            match build_plan(&d, &obj(), &cfg, 2, strategy) {
                Err(CoreError::InvalidConfig(msg)) => {
                    assert!(
                        msg.contains("adaptive"),
                        "{strategy:?}: error must point at the fix, got: {msg}"
                    );
                }
                other => panic!("{strategy:?}: expected InvalidConfig, got {other:?}"),
            }
        }
        // The adaptive pairing is accepted.
        assert!(build_plan(&d, &obj(), &cfg, 2, SamplingStrategy::Adaptive).is_ok());
    }

    #[test]
    fn advance_epoch_changes_uniform_draws() {
        let d = ds(30);
        let mut p = build_plan(
            &d,
            &obj(),
            &TrainConfig::default(),
            2,
            SamplingStrategy::Uniform,
        )
        .unwrap();
        let before: Vec<(usize, f64)> = drain_epoch(&mut p, 0);
        p.advance_epoch();
        let after: Vec<(usize, f64)> = drain_epoch(&mut p, 0);
        assert_ne!(before, after);
    }

    /// The streams built from the same layout by hand, to be reset one
    /// after another: the oracle for the per-shard refresh.
    fn serial_streams(
        d: &Dataset,
        cfg: &TrainConfig,
        workers: usize,
        strategy: SamplingStrategy,
    ) -> Vec<ScheduleStream> {
        let w = importance_weights(d, &obj().loss, obj().reg, cfg.importance);
        let seed = balance_seed(cfg.seed, workers);
        let arranged = if strategy.uses_importance() {
            rearrange(d, Some(&w), cfg.balance, seed, workers).unwrap()
        } else {
            rearrange(d, None, BalancePolicy::ForceShuffle, seed, workers).unwrap()
        };
        arranged
            .ranges
            .iter()
            .enumerate()
            .map(|(k, r)| {
                let spec = ShardSpec {
                    shard: k,
                    shards: workers,
                    seed: cfg.seed,
                    range: r.clone(),
                    strategy,
                    weights: arranged.weights.get(r.clone()),
                    sequence: cfg.sequence,
                    commit: cfg.commit,
                };
                let norms = r.clone().map(|i| arranged.data.row(i).norm_sq());
                ScheduleStream::for_shard(spec, norms).unwrap()
            })
            .collect()
    }

    /// Drains one epoch of every stream, feeding each draw back as an
    /// observation so adaptive samplers have something to commit.
    fn drain_all(streams: &mut [ScheduleStream]) -> Vec<Vec<(u32, u64)>> {
        streams
            .iter_mut()
            .map(|s| {
                let mut draws = Vec::new();
                s.fill_chunk(&mut draws, s.remaining());
                for d in &draws {
                    s.observe(d.row as usize, 0.25 + (d.row % 7) as f64);
                }
                draws.iter().map(|d| (d.row, d.corr.to_bits())).collect()
            })
            .collect()
    }

    #[test]
    fn per_shard_refresh_draws_what_a_serial_loop_draws() {
        // Enough rows that two and three shards refresh on threads of
        // their own, and five shards (too small each) on the caller's.
        let d = ds(3 * isasgd_sparse::par::MIN_WORK_PER_THREAD);
        let cells = [
            (SamplingStrategy::Uniform, SequenceMode::RegeneratePerEpoch),
            (SamplingStrategy::Static, SequenceMode::RegeneratePerEpoch),
            (SamplingStrategy::Static, SequenceMode::ShuffleOnce),
            (SamplingStrategy::Adaptive, SequenceMode::RegeneratePerEpoch),
        ];
        for (strategy, sequence) in cells {
            for workers in [1, 2, 3, 5] {
                let cfg = TrainConfig {
                    sequence,
                    ..TrainConfig::default().with_seed(31)
                };
                let mut plan = build_plan(&d, &obj(), &cfg, workers, strategy).unwrap();
                let mut serial = serial_streams(&d, &cfg, workers, strategy);
                for epoch in 0..3 {
                    let tag = format!("{strategy:?}/{sequence:?} × {workers}, epoch {epoch}");
                    assert_eq!(
                        drain_all(&mut plan.streams),
                        drain_all(&mut serial),
                        "{tag}"
                    );
                    plan.advance_epoch();
                    for s in &mut serial {
                        s.epoch_reset();
                    }
                    let versions: Vec<u64> = serial.iter().map(|s| s.commit_version()).collect();
                    assert_eq!(plan.commit_version(), versions.iter().sum::<u64>(), "{tag}");
                }
            }
        }
    }

    /// Regression: an overflowing row norm gives an infinite weight
    /// (gradnorm) or NaN weights (partial, bias 0). Forced balancing
    /// then panicked in the greedy balancer, or could in the head-tail
    /// sort; the engine now returns the typed refusal instead.
    #[test]
    fn non_finite_weights_are_a_typed_error_on_the_engine() {
        let mut b = DatasetBuilder::new(4);
        for i in 0..12u32 {
            let v = if i == 5 { 1e200 } else { 1.0 + i as f64 };
            b.push_row(&[(i % 4, v)], if i % 2 == 0 { 1.0 } else { -1.0 })
                .unwrap();
        }
        let d = b.finish();
        let schemes = [
            (ImportanceScheme::GradNormBound { radius: 1.0 }, 5),
            (ImportanceScheme::PartiallyBiased { bias: 0.0 }, 0),
        ];
        for (importance, row) in schemes {
            for balance in [BalancePolicy::ForceGreedy, BalancePolicy::ForceBalance] {
                let cfg = TrainConfig {
                    importance,
                    balance,
                    ..TrainConfig::default()
                };
                let got = crate::train(
                    &d,
                    &obj(),
                    Algorithm::IsAsgd,
                    Execution::Threads(2),
                    &cfg,
                    "bad",
                );
                match got {
                    Err(CoreError::Sparse(SparseError::BadWeight { row: at, weight })) => {
                        assert_eq!(at, row, "{importance:?} {balance:?}");
                        assert!(!weight.is_finite(), "{importance:?} {balance:?}");
                    }
                    other => panic!(
                        "{importance:?} {balance:?}: {:?}",
                        other.map(|r| r.final_metrics)
                    ),
                }
            }
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let d = ds(30);
        let cfg = TrainConfig::default().with_seed(77);
        for strategy in [
            SamplingStrategy::Uniform,
            SamplingStrategy::Static,
            SamplingStrategy::Adaptive,
        ] {
            let mut a = build_plan(&d, &obj(), &cfg, 3, strategy).unwrap();
            let mut b = build_plan(&d, &obj(), &cfg, 3, strategy).unwrap();
            assert_eq!(a.data, b.data);
            for k in 0..3 {
                assert_eq!(
                    drain_epoch(&mut a, k),
                    drain_epoch(&mut b, k),
                    "{strategy:?} shard {k}"
                );
            }
        }
    }
}
