//! Cluster configuration and the top-level [`run`] entry point.
//!
//! The round loop itself lives in [`crate::coordinator`]; this module
//! owns what surrounds it: [`ClusterConfig`] (topology, schedule, and
//! the [`TransportConfig`] choosing how coordinator and workers talk),
//! validation, and the [`ClusterRun`] result type.

use crate::coordinator::run_with_links;
use crate::fleet::{run_fleet_with, CommandSpawner};
use crate::sync::SyncStrategy;
use crate::transport::{
    in_process_links, tcp_loopback_links, LinkStats, RecoveryFootprint, TelemetrySample,
    TransportConfig, TransportError,
};
use crate::wire::{SessionConfig, WireEncoding};
use isasgd_balance::BalancePolicy;
use isasgd_losses::{ImportanceScheme, Loss, Objective};
use isasgd_metrics::Trace;
use isasgd_sampling::{CommitPolicy, SamplingStrategy};
use isasgd_sparse::{Dataset, SparseError};
use std::path::PathBuf;

/// Cluster topology and schedule.
///
/// `Clone` (deliberately not `Copy`): [`TransportConfig`] carries a bind
/// address, so configs are heap-owning values now — callers thread them
/// by reference or clone explicitly.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Number of nodes `numT` (paper Algorithm 4's process count).
    pub nodes: usize,
    /// Synchronization rounds.
    pub rounds: usize,
    /// Local epochs each node runs between synchronizations.
    pub local_epochs: usize,
    /// Step size λ.
    pub step_size: f64,
    /// Importance scheme; [`ImportanceScheme::Uniform`] gives plain
    /// local SGD (the distributed-ASGD baseline).
    pub importance: ImportanceScheme,
    /// Shard rearrangement policy (Algorithm 4 lines 2–6).
    pub balance: BalancePolicy,
    /// Model reducer at each round.
    pub sync: SyncStrategy,
    /// Sampling strategy each node draws from. [`SamplingStrategy::Static`]
    /// reproduces the paper's offline sequences; `Adaptive` re-weights
    /// every node's local distribution from observed gradient magnitudes
    /// (Alain et al.'s per-node adaptive distributions). What nodes
    /// build is [`ImportanceScheme::effective_sampling`] of it: the
    /// uniform sampler when `importance` is [`ImportanceScheme::Uniform`].
    pub sampling: SamplingStrategy,
    /// When adaptive nodes fold accumulated observations into their live
    /// distribution: at local-epoch boundaries, or every `k` observations
    /// (intra-epoch adaptivity — node loops stream draws, so mid-epoch
    /// commits steer the remaining draws of the same pass).
    pub commit: CommitPolicy,
    /// How coordinator↔worker messages travel: typed channels between
    /// threads ([`TransportConfig::InProcess`], default) or real
    /// loopback sockets ([`TransportConfig::Tcp`]). Bit-identical
    /// results either way (pinned by `tests/equivalence.rs`).
    pub transport: TransportConfig,
    /// Master seed.
    pub seed: u64,
    /// Worker checkpoint period in rounds (0 = off). Every
    /// `checkpoint_every` rounds each worker ships a snapshot of its
    /// deterministic state to the coordinator, which uses it to bound
    /// respawn recovery (and replay-log memory) by one interval
    /// instead of the whole session. Checkpointing never changes the
    /// computation — runs stay bit-identical with it on or off.
    pub checkpoint_every: u64,
    /// When set, workers ship a per-round [`Message::Telemetry`] timing
    /// sample (compute time, barrier wait, draws, commits) that the
    /// coordinator's collect loop records into [`ClusterRun::telemetry`]
    /// on every transport. Observability-only and inert: the
    /// equivalence tests pin bit-identical models with this on and off.
    ///
    /// [`Message::Telemetry`]: crate::wire::Message::Telemetry
    pub telemetry: bool,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 4,
            rounds: 10,
            local_epochs: 1,
            step_size: 0.5,
            importance: ImportanceScheme::GradNormBound { radius: 1.0 },
            balance: BalancePolicy::default(),
            sync: SyncStrategy::Average,
            sampling: SamplingStrategy::Static,
            commit: CommitPolicy::EpochBoundary,
            transport: TransportConfig::InProcess,
            seed: 0x15A5_6D00,
            checkpoint_every: 0,
            telemetry: false,
        }
    }
}

/// Result of a cluster run.
#[derive(Debug, Clone)]
pub struct ClusterRun {
    /// Consensus-model trace: point `r` evaluates the consensus after
    /// round `r` (point 0 is the initial model). `wall_secs` is
    /// cumulative round time as the coordinator saw it: parallel local
    /// training (max over nodes) plus transport round-trips, so runs
    /// are compared bit for bit through
    /// [`Trace::points_without_clock`].
    pub trace: Trace,
    /// Final consensus model.
    pub model: Vec<f64>,
    /// Max/mean ratio of the shard importance sums Φ_a — 1.0 is the
    /// perfectly balanced Eq. 19 condition.
    pub phi_imbalance: f64,
    /// Whether balancing was applied by the policy.
    pub balanced: bool,
    /// Measured ρ of the importance weights.
    pub rho: f64,
    /// Observation entries the coordinator applied to its feedback
    /// mirror (0 for non-adaptive runs; counts duplicate deliveries —
    /// whether transport-injected or re-sent by a respawned worker's
    /// session replay — which the mirror's per-row max semantics
    /// absorb, so the mirror state stays bit-equal even when this
    /// counter exceeds the undisturbed run's).
    pub feedback_rows: usize,
    /// Max/mean shard mass of the coordinator's mirrored (observed)
    /// distributions after the final round — the feedback-side analogue
    /// of `phi_imbalance`. `None` for non-adaptive runs.
    pub observed_phi_imbalance: Option<f64>,
    /// Per-link wire traffic counters (tx/rx bytes and frames by frame
    /// kind), one entry per worker link for transports that count
    /// (`tcp`, `process`); empty for in-process channel runs.
    /// Deliberately excluded from bit-equality comparisons: counters
    /// measure the wire, not the computation.
    pub net: Vec<LinkStats>,
    /// Per-slot respawn-recovery footprints at run end (replay-log
    /// size, stored checkpoint round/bytes, respawn count), one entry
    /// per worker link for transports that supervise (`process`);
    /// empty otherwise. Like `net`, excluded from bit-equality: it
    /// measures supervision, not the computation.
    pub recovery: Vec<RecoveryFootprint>,
    /// Per-round worker timing samples, one per [`Message::Telemetry`]
    /// frame the coordinator's collect loop received, in the order it
    /// received them: round by round, link 0 first within a round, on
    /// every transport. Populated whenever [`ClusterConfig::telemetry`]
    /// is set; empty otherwise. Respawn recovery replays recomputed
    /// rounds, so a round may appear more than once per node (kept
    /// visible deliberately). Like `net`/`recovery`, excluded from
    /// bit-equality: it measures timing, not the computation.
    ///
    /// [`Message::Telemetry`]: crate::wire::Message::Telemetry
    pub telemetry: Vec<TelemetrySample>,
}

/// Configuration/validation/runtime errors.
#[derive(Debug)]
pub enum ClusterError {
    /// Bad parameter combination.
    InvalidConfig(String),
    /// Propagated dataset error.
    Sparse(SparseError),
    /// Transport-level failure (socket i/o, peer hangup, wire decode).
    Transport(TransportError),
    /// A worker runtime failed.
    Worker(String),
    /// A supervised worker *process* was lost (connection death or a
    /// missed per-round deadline) and the fleet could not — or, under
    /// [`WorkerLossPolicy::Fail`](crate::WorkerLossPolicy::Fail), was
    /// told not to — recover it.
    WorkerLost {
        /// The lost worker's node id.
        node: u32,
        /// Root cause.
        detail: String,
    },
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::InvalidConfig(s) => write!(f, "invalid cluster config: {s}"),
            ClusterError::Sparse(e) => write!(f, "dataset error: {e}"),
            ClusterError::Transport(e) => write!(f, "transport error: {e}"),
            ClusterError::Worker(s) => write!(f, "worker error: {s}"),
            ClusterError::WorkerLost { node, detail } => {
                write!(f, "worker {node} lost: {detail}")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<SparseError> for ClusterError {
    fn from(e: SparseError) -> Self {
        ClusterError::Sparse(e)
    }
}

impl From<TransportError> for ClusterError {
    fn from(e: TransportError) -> Self {
        ClusterError::Transport(e)
    }
}

impl ClusterConfig {
    /// The part of this config (and the objective) a worker reads —
    /// exactly what an `Assign` frame carries, whether or not the run
    /// ever puts it on a wire. Link-level settings (round deadline,
    /// model encoding) are left at "none"; the fleet, whose links have
    /// them, fills them in.
    pub(crate) fn session<L: Loss>(&self, obj: &Objective<L>) -> SessionConfig {
        SessionConfig {
            nodes: self.nodes as u32,
            rounds: self.rounds as u64,
            // `validate` refuses a count past `u32::MAX`.
            local_epochs: self.local_epochs as u32,
            step_size: self.step_size,
            seed: self.seed,
            round_timeout_ms: 0,
            importance: self.importance,
            sampling: self.sampling,
            commit: self.commit,
            loss: obj.loss.name().to_string(),
            reg: obj.reg,
            encoding: WireEncoding::default(),
            checkpoint_every: self.checkpoint_every,
            telemetry: self.telemetry,
        }
    }
}

/// Validates a config and objective against a dataset (shared by every
/// entry point).
pub(crate) fn validate<L: Loss>(
    cfg: &ClusterConfig,
    obj: &Objective<L>,
    ds: &Dataset,
) -> Result<(), ClusterError> {
    if cfg.nodes == 0 || cfg.nodes > ds.n_samples() {
        return Err(ClusterError::InvalidConfig(format!(
            "nodes = {} must be in 1..={}",
            cfg.nodes,
            ds.n_samples()
        )));
    }
    if ds.dim() == 0 {
        return Err(ClusterError::InvalidConfig(
            "dataset dimension is 0: the rows have no features".into(),
        ));
    }
    check_rows(ds.n_samples())?;
    // Sessions carry the count as a u32 (`SessionConfig::local_epochs`);
    // a wider one would be truncated, so every worker would loop over
    // the remainder — for 2^32, not at all.
    if u32::try_from(cfg.local_epochs).is_err() {
        return Err(ClusterError::InvalidConfig(format!(
            "local_epochs = {} must be at most {}",
            cfg.local_epochs,
            u32::MAX
        )));
    }
    check_session(&cfg.session(obj))
}

/// The protocol names rows as `u32` — feedback observations, the
/// `DatasetShard` header, a checkpoint's row count — so a dataset of
/// more than `u32::MAX` rows is refused: its row ids would be truncated
/// on the wire (`wire::wire_row` relies on this).
fn check_rows(rows: usize) -> Result<(), ClusterError> {
    if u32::try_from(rows).is_err() {
        return Err(ClusterError::InvalidConfig(format!(
            "{rows} rows: the protocol names rows as u32, so at most {}",
            u32::MAX
        )));
    }
    Ok(())
}

/// The half of [`validate`] that needs no dataset: the checks a worker
/// process applies to the [`SessionConfig`] it is assigned, since the
/// wire carries any value. The coordinator and the worker refuse a
/// session in the same words.
pub(crate) fn check_session(sc: &SessionConfig) -> Result<(), ClusterError> {
    if sc.nodes == 0 {
        return Err(ClusterError::InvalidConfig("nodes must be ≥ 1".into()));
    }
    if sc.rounds == 0 || sc.local_epochs == 0 {
        return Err(ClusterError::InvalidConfig(
            "rounds and local_epochs must be ≥ 1".into(),
        ));
    }
    if !(sc.step_size.is_finite() && sc.step_size > 0.0) {
        return Err(ClusterError::InvalidConfig(format!(
            "step size {} must be positive",
            sc.step_size
        )));
    }
    sc.reg.check().map_err(ClusterError::InvalidConfig)?;
    // The same rule the core plan applies, against the strategy nodes
    // actually run.
    sc.commit
        .check_strategy(sc.importance.effective_sampling(sc.sampling))
        .map_err(|e| ClusterError::InvalidConfig(e.to_string()))
}

/// Runs the distributed schedule: rearrange → shard → (local epochs ∥
/// sync)*, over the transport [`ClusterConfig::transport`] selects.
///
/// `InProcess` wires worker threads with typed channels, `Tcp` wires
/// worker threads with real loopback sockets speaking the
/// [`wire`](crate::wire) codec (either way each thread borrows its
/// shard from the coordinator's plan), and `Process` spawns genuine
/// `isasgd worker` OS processes (default worker binary: the current
/// executable — correct for the `isasgd` CLI) under the
/// [`fleet`](crate::fleet) supervisor, which streams each its shard.
/// Results are bit-identical across all three for the same seed and
/// config (pinned by `tests/equivalence.rs` / `tests/process_fleet.rs`
/// and the CLI e2e suite).
pub fn run<L: Loss>(
    ds: &Dataset,
    obj: &Objective<L>,
    cfg: &ClusterConfig,
) -> Result<ClusterRun, ClusterError> {
    validate(cfg, obj, ds)?;
    match &cfg.transport {
        TransportConfig::InProcess => run_with_links(ds, obj, cfg, in_process_links(cfg.nodes)),
        TransportConfig::Tcp { bind, encoding } => {
            let mut links = tcp_loopback_links(cfg.nodes, bind).map_err(TransportError::Io)?;
            for (coord_end, worker_end) in links.iter_mut() {
                coord_end.set_encoding(*encoding);
                worker_end.set_encoding(*encoding);
            }
            run_with_links(ds, obj, cfg, links)
        }
        TransportConfig::Process(pc) => {
            let program = match &pc.worker {
                Some(p) => PathBuf::from(p),
                None => std::env::current_exe().map_err(|e| {
                    ClusterError::InvalidConfig(format!("cannot locate worker binary: {e}"))
                })?,
            };
            run_fleet_with(
                ds,
                obj,
                cfg,
                pc,
                CommandSpawner::new(program, pc.chaos_kill),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isasgd_losses::{LogisticLoss, Regularizer};
    use isasgd_sparse::DatasetBuilder;

    fn separable(n: usize) -> Dataset {
        let mut b = DatasetBuilder::new(6);
        for i in 0..n {
            let j = (i % 3) as u32;
            if i % 2 == 0 {
                b.push_row(&[(j, 1.0), (3 + j, 0.5)], 1.0).unwrap();
            } else {
                b.push_row(&[(j, -1.0), (3 + j, -0.5)], -1.0).unwrap();
            }
        }
        b.finish()
    }

    /// Heavy-tailed norms, importance-sorted — the adversarial layout of
    /// the Fig. 2 discussion.
    fn sorted_skewed(n: usize) -> Dataset {
        let mut b = DatasetBuilder::new(8);
        for i in 0..n {
            let norm = 0.2 + 4.0 * (i as f64 / n as f64).powi(3);
            let j = (i % 4) as u32;
            let y = if i % 2 == 0 { 1.0 } else { -1.0 };
            b.push_row(&[(j, y * norm), (4 + j, 0.5 * y * norm)], y)
                .unwrap();
        }
        b.finish()
    }

    fn obj() -> Objective<LogisticLoss> {
        Objective::new(LogisticLoss, Regularizer::None)
    }

    #[test]
    fn converges_on_separable_data() {
        let ds = separable(400);
        let cfg = ClusterConfig {
            rounds: 8,
            ..ClusterConfig::default()
        };
        let r = run(&ds, &obj(), &cfg).unwrap();
        assert_eq!(r.trace.points.len(), 9);
        let last = r.trace.last().unwrap();
        assert_eq!(last.error_rate, 0.0, "separable data must fit");
        assert!(last.objective < r.trace.points[0].objective);
        // Trace epochs advance by local_epochs per round.
        assert_eq!(last.epoch, 8.0);
    }

    /// Regression: a row whose ‖x‖² overflows weighs +∞ under gradnorm
    /// (NaN everywhere under partial, bias 0), and `--balance greedy`
    /// panicked in the planner. The plan now refuses the weight by row.
    #[test]
    fn non_finite_weights_are_a_typed_error_on_the_cluster() {
        let mut b = DatasetBuilder::new(6);
        for i in 0..20u32 {
            let v = if i == 7 { 1e200 } else { 1.0 + (i % 5) as f64 };
            b.push_row(&[(i % 6, v)], if i % 2 == 0 { 1.0 } else { -1.0 })
                .unwrap();
        }
        let ds = b.finish();
        let schemes = [
            (ImportanceScheme::GradNormBound { radius: 1.0 }, 7),
            (ImportanceScheme::PartiallyBiased { bias: 0.0 }, 0),
        ];
        for (importance, row) in schemes {
            for balance in [BalancePolicy::ForceGreedy, BalancePolicy::ForceBalance] {
                for transport in [TransportConfig::InProcess, TransportConfig::tcp()] {
                    let cfg = ClusterConfig {
                        nodes: 2,
                        rounds: 2,
                        importance,
                        balance,
                        transport,
                        ..ClusterConfig::default()
                    };
                    match run(&ds, &obj(), &cfg) {
                        Err(ClusterError::Sparse(SparseError::BadWeight { row: at, .. })) => {
                            assert_eq!(at, row, "{importance:?} {balance:?}");
                        }
                        other => panic!("{importance:?} {balance:?}: {:?}", other.err()),
                    }
                }
            }
        }
    }

    #[test]
    fn single_node_is_sequential_sgd() {
        let ds = separable(200);
        let cfg = ClusterConfig {
            nodes: 1,
            rounds: 3,
            importance: ImportanceScheme::Uniform,
            ..ClusterConfig::default()
        };
        let r = run(&ds, &obj(), &cfg).unwrap();
        assert_eq!(r.phi_imbalance, 1.0, "one shard is trivially balanced");
        assert_eq!(r.trace.last().unwrap().error_rate, 0.0);
    }

    #[test]
    fn deterministic_under_seed() {
        let ds = separable(300);
        let cfg = ClusterConfig {
            seed: 42,
            ..ClusterConfig::default()
        };
        let a = run(&ds, &obj(), &cfg).unwrap();
        let b = run(&ds, &obj(), &cfg).unwrap();
        assert_eq!(a.model, b.model);
        let c = run(&ds, &obj(), &ClusterConfig { seed: 43, ..cfg }).unwrap();
        assert_ne!(a.model, c.model);
    }

    #[test]
    fn tcp_transport_matches_in_process() {
        // The quick transport-parity check (the exhaustive matrix lives
        // in tests/equivalence.rs): same seed/config over real loopback
        // sockets must reproduce the channel-backed run bit-for-bit.
        let ds = sorted_skewed(240);
        let cfg = ClusterConfig {
            nodes: 3,
            rounds: 3,
            importance: ImportanceScheme::LipschitzSmoothness,
            sampling: SamplingStrategy::Adaptive,
            ..ClusterConfig::default()
        };
        let inproc = run(&ds, &obj(), &cfg).unwrap();
        let tcp_cfg = ClusterConfig {
            transport: TransportConfig::tcp(),
            ..cfg
        };
        let tcp = run(&ds, &obj(), &tcp_cfg).unwrap();
        assert_eq!(inproc.model, tcp.model, "transports diverged");
        assert_eq!(
            inproc.trace.points_without_clock(),
            tcp.trace.points_without_clock(),
            "round traces diverged"
        );
        assert_eq!(inproc.feedback_rows, tcp.feedback_rows);
        assert_eq!(inproc.observed_phi_imbalance, tcp.observed_phi_imbalance);
    }

    #[test]
    fn adaptive_runs_report_mirror_stats() {
        let ds = sorted_skewed(300);
        let cfg = ClusterConfig {
            nodes: 3,
            rounds: 2,
            importance: ImportanceScheme::LipschitzSmoothness,
            sampling: SamplingStrategy::Adaptive,
            ..ClusterConfig::default()
        };
        let r = run(&ds, &obj(), &cfg).unwrap();
        assert!(
            r.feedback_rows > 0,
            "adaptive rounds must ship feedback batches"
        );
        let observed = r.observed_phi_imbalance.expect("adaptive runs mirror");
        assert!(observed >= 1.0 - 1e-9, "max/mean is ≥ 1, got {observed}");
        // Non-adaptive runs carry no mirror.
        let stat = run(
            &ds,
            &obj(),
            &ClusterConfig {
                sampling: SamplingStrategy::Static,
                ..cfg
            },
        )
        .unwrap();
        assert_eq!(stat.feedback_rows, 0);
        assert_eq!(stat.observed_phi_imbalance, None);
    }

    #[test]
    fn balancing_equalizes_phi_on_sorted_data() {
        let ds = sorted_skewed(1000);
        let base = ClusterConfig {
            nodes: 8,
            rounds: 2,
            importance: ImportanceScheme::LipschitzSmoothness,
            ..ClusterConfig::default()
        };
        let identity = run(
            &ds,
            &obj(),
            &ClusterConfig {
                balance: BalancePolicy::Identity,
                ..base.clone()
            },
        )
        .unwrap();
        let balanced = run(
            &ds,
            &obj(),
            &ClusterConfig {
                balance: BalancePolicy::ForceBalance,
                ..base.clone()
            },
        )
        .unwrap();
        let greedy = run(
            &ds,
            &obj(),
            &ClusterConfig {
                balance: BalancePolicy::ForceGreedy,
                ..base
            },
        )
        .unwrap();
        assert!(
            identity.phi_imbalance > 1.5,
            "sorted layout must be badly imbalanced, got {}",
            identity.phi_imbalance
        );
        assert!(
            balanced.phi_imbalance < identity.phi_imbalance,
            "head-tail {} must improve on identity {}",
            balanced.phi_imbalance,
            identity.phi_imbalance
        );
        assert!(
            greedy.phi_imbalance < 1.05,
            "greedy-LPT should be near-perfect, got {}",
            greedy.phi_imbalance
        );
        assert!(balanced.balanced);
        assert!(!identity.balanced);
    }

    #[test]
    fn more_local_epochs_cover_more_ground_per_round() {
        let ds = separable(400);
        let short = run(
            &ds,
            &obj(),
            &ClusterConfig {
                rounds: 2,
                local_epochs: 1,
                ..ClusterConfig::default()
            },
        )
        .unwrap();
        let long = run(
            &ds,
            &obj(),
            &ClusterConfig {
                rounds: 2,
                local_epochs: 4,
                ..ClusterConfig::default()
            },
        )
        .unwrap();
        assert!(
            long.trace.last().unwrap().objective <= short.trace.last().unwrap().objective,
            "4 local epochs/round should reach a lower objective after 2 rounds"
        );
        assert_eq!(long.trace.points.last().unwrap().epoch, 8.0);
    }

    #[test]
    fn validation_errors() {
        let ds = separable(10);
        let o = obj();
        assert!(run(
            &ds,
            &o,
            &ClusterConfig {
                nodes: 0,
                ..Default::default()
            }
        )
        .is_err());
        assert!(run(
            &ds,
            &o,
            &ClusterConfig {
                nodes: 11,
                ..Default::default()
            }
        )
        .is_err());
        assert!(run(
            &ds,
            &o,
            &ClusterConfig {
                rounds: 0,
                ..Default::default()
            }
        )
        .is_err());
        assert!(run(
            &ds,
            &o,
            &ClusterConfig {
                local_epochs: 0,
                ..Default::default()
            }
        )
        .is_err());
        assert!(run(
            &ds,
            &o,
            &ClusterConfig {
                step_size: -0.5,
                ..Default::default()
            }
        )
        .is_err());
        assert!(run(
            &ds,
            &o,
            &ClusterConfig {
                step_size: f64::NAN,
                ..Default::default()
            }
        )
        .is_err());
        let anti = Objective::new(LogisticLoss, Regularizer::L1 { eta: -1.0 });
        assert!(matches!(
            run(&ds, &anti, &ClusterConfig::default()),
            Err(ClusterError::InvalidConfig(msg)) if msg.contains("η = -1")
        ));
        let mut featureless = DatasetBuilder::new(0);
        for _ in 0..4 {
            featureless.push_row(&[], 1.0).unwrap();
        }
        assert!(matches!(
            run(&featureless.finish(), &o, &ClusterConfig::default()),
            Err(ClusterError::InvalidConfig(msg)) if msg.contains("dimension is 0")
        ));
    }

    #[test]
    fn local_epochs_past_u32_are_refused_not_truncated() {
        let ds = separable(10);
        let o = obj();
        let cfg = |local_epochs| ClusterConfig {
            local_epochs,
            ..Default::default()
        };
        for n in [1usize << 32, (1usize << 32) + 1] {
            assert!(matches!(
                validate(&cfg(n), &o, &ds),
                Err(ClusterError::InvalidConfig(msg)) if msg.contains(&format!("local_epochs = {n}"))
            ));
        }
        let max = cfg(u32::MAX as usize);
        validate(&max, &o, &ds).unwrap();
        assert_eq!(max.session(&o).local_epochs, u32::MAX);
    }

    /// A row count past `u32::MAX` is refused, not truncated on the
    /// wire; the bound is a function of the count, so no test builds
    /// 2^32 rows.
    #[test]
    fn row_counts_past_u32_are_refused_not_truncated() {
        for n in [1usize << 32, (1usize << 32) + 1, usize::MAX] {
            assert!(matches!(
                check_rows(n),
                Err(ClusterError::InvalidConfig(msg)) if msg.contains(&format!("{n} rows"))
            ));
        }
        check_rows(u32::MAX as usize).unwrap();
        check_rows(0).unwrap();
    }

    #[test]
    fn every_k_without_adaptive_sampling_is_rejected() {
        // Same contract as the core plan: intra-epoch commits with a
        // sampler that ignores feedback would silently run boundary
        // semantics — reject loudly instead.
        let ds = separable(100);
        for (sampling, importance) in [
            (
                SamplingStrategy::Static,
                ImportanceScheme::LipschitzSmoothness,
            ),
            (SamplingStrategy::Adaptive, ImportanceScheme::Uniform),
        ] {
            let cfg = ClusterConfig {
                sampling,
                importance,
                commit: CommitPolicy::EveryK(16),
                ..ClusterConfig::default()
            };
            match run(&ds, &obj(), &cfg) {
                Err(ClusterError::InvalidConfig(msg)) => {
                    assert!(msg.contains("adaptive"), "must point at the fix: {msg}");
                }
                other => panic!("expected InvalidConfig, got {other:?}"),
            }
        }
    }

    #[test]
    fn every_k_adaptive_nodes_run_deterministically() {
        let ds = sorted_skewed(300);
        let cfg = ClusterConfig {
            nodes: 3,
            rounds: 3,
            importance: ImportanceScheme::LipschitzSmoothness,
            sampling: SamplingStrategy::Adaptive,
            commit: CommitPolicy::EveryK(16),
            ..ClusterConfig::default()
        };
        let a = run(&ds, &obj(), &cfg).unwrap();
        let b = run(&ds, &obj(), &cfg).unwrap();
        assert_eq!(a.model, b.model, "streamed node runs must reproduce");
        let boundary = run(
            &ds,
            &obj(),
            &ClusterConfig {
                commit: CommitPolicy::EpochBoundary,
                ..cfg
            },
        )
        .unwrap();
        assert_ne!(
            a.model, boundary.model,
            "mid-epoch commits must steer the nodes' remaining draws"
        );
    }

    #[test]
    fn adaptive_sampling_runs_and_differs_from_static() {
        let ds = sorted_skewed(400);
        let base = ClusterConfig {
            nodes: 4,
            rounds: 4,
            importance: ImportanceScheme::LipschitzSmoothness,
            ..ClusterConfig::default()
        };
        let stat = run(&ds, &obj(), &base).unwrap();
        let adaptive_cfg = ClusterConfig {
            sampling: SamplingStrategy::Adaptive,
            ..base
        };
        let a = run(&ds, &obj(), &adaptive_cfg).unwrap();
        let b = run(&ds, &obj(), &adaptive_cfg).unwrap();
        assert_eq!(
            a.model, b.model,
            "adaptive cluster runs must be reproducible"
        );
        assert_ne!(a.model, stat.model, "adaptive must actually change the run");
        assert!(a.model.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn uniform_importance_gives_unit_corrections() {
        let ds = separable(100);
        let cfg = ClusterConfig {
            importance: ImportanceScheme::Uniform,
            rounds: 1,
            ..ClusterConfig::default()
        };
        let r = run(&ds, &obj(), &cfg).unwrap();
        assert_eq!(r.trace.algorithm, "Cluster-SGD");
        assert!(
            (r.phi_imbalance - 1.0).abs() < 0.01,
            "uniform weights ⇒ equal Φ"
        );
    }
}
