//! The equivalence pins of the distributed runtime.
//!
//! Two layers of guarantee, both asserted bitwise:
//!
//! 1. **Core↔cluster** (the ROADMAP's original pin): both runtimes
//!    build their workers with `ScheduleStream::for_shard` (seed
//!    layout, sampler, observation scaling), so a single-node cluster
//!    run and a sequential engine run over the same master seed MUST
//!    walk identical sampler weight trajectories — and therefore
//!    produce bit-identical models.
//! 2. **Transport equivalence** (the PR-4 pin): the round protocol is
//!    pure message passing, so `InProcess` channels and real `Tcp`
//!    loopback sockets MUST produce bit-identical models and
//!    wall-clock-free round traces. The 3-way matrix below sweeps
//!    {Average, WeightedByShard} × {Static, Adaptive} ×
//!    {EpochBoundary, EveryK} over both single-node (where the
//!    sequential engine is the third leg) and multi-node topologies.
//!
//! Any drift in the observation convention (scaling, accumulation,
//! commit timing), seed derivation, shard layout, balancing, the wire
//! codec's f64 handling, or the SGD update itself shows up as a model
//! mismatch here.

#![allow(
    clippy::disallowed_macros,
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "../clippy.toml binds the library's non-test code; tests assert, time and receive freely"
)]

use isasgd_cluster::{run, ClusterConfig, ClusterRun, SyncStrategy, TransportConfig, WireEncoding};
use isasgd_core::{
    train, Algorithm, BalancePolicy, CommitPolicy, Execution, ImportanceScheme, LogisticLoss,
    Objective, Regularizer, SamplingStrategy, TrainConfig,
};
use isasgd_sparse::{Dataset, DatasetBuilder};

/// Heavy-tailed norms so adaptivity has something to chew on.
fn skewed(n: usize) -> Dataset {
    let mut b = DatasetBuilder::new(8);
    for i in 0..n {
        let norm = if i % 10 == 0 { 6.0 } else { 0.3 };
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

fn cluster_cfg(
    nodes: usize,
    strategy: SamplingStrategy,
    sync: SyncStrategy,
    commit: CommitPolicy,
    transport: TransportConfig,
    seed: u64,
    rounds: usize,
) -> ClusterConfig {
    ClusterConfig {
        nodes,
        rounds,
        local_epochs: 1,
        step_size: 0.3,
        importance: if strategy == SamplingStrategy::Uniform {
            ImportanceScheme::Uniform
        } else {
            ImportanceScheme::LipschitzSmoothness
        },
        balance: BalancePolicy::default(),
        sync,
        sampling: strategy,
        commit,
        transport,
        seed,
        ..ClusterConfig::default()
    }
}

#[allow(clippy::too_many_arguments)]
fn run_cluster(
    ds: &Dataset,
    nodes: usize,
    strategy: SamplingStrategy,
    sync: SyncStrategy,
    commit: CommitPolicy,
    transport: TransportConfig,
    seed: u64,
    rounds: usize,
) -> ClusterRun {
    let cfg = cluster_cfg(nodes, strategy, sync, commit, transport, seed, rounds);
    run(ds, &obj(), &cfg).unwrap()
}

fn run_engine(
    ds: &Dataset,
    strategy: SamplingStrategy,
    commit: CommitPolicy,
    seed: u64,
    epochs: usize,
) -> Vec<f64> {
    let mut cfg = TrainConfig::default()
        .with_epochs(epochs)
        .with_step_size(0.3)
        .with_seed(seed);
    cfg.importance = ImportanceScheme::LipschitzSmoothness;
    cfg.sampling = Some(strategy);
    cfg.commit = commit;
    let algo = if strategy == SamplingStrategy::Uniform {
        Algorithm::Sgd
    } else {
        Algorithm::IsSgd
    };
    train(ds, &obj(), algo, Execution::Sequential, &cfg, "equiv")
        .unwrap()
        .model
}

/// The valid cells of {Static, Adaptive} × {EpochBoundary, EveryK}
/// (intra-epoch commits require an adaptive sampler).
fn sampling_commit_cells() -> Vec<(SamplingStrategy, CommitPolicy)> {
    vec![
        (SamplingStrategy::Static, CommitPolicy::EpochBoundary),
        (SamplingStrategy::Adaptive, CommitPolicy::EpochBoundary),
        (SamplingStrategy::Adaptive, CommitPolicy::EveryK(16)),
    ]
}

/// The headline 3-way matrix:
/// `Tcp` loopback ≡ `InProcess` ≡ (single-node) the sequential engine,
/// across {Average, WeightedByShard} × {Static, Adaptive} ×
/// {EpochBoundary, EveryK}, bit-equal models and round traces.
#[test]
fn three_way_matrix_tcp_inproc_engine() {
    let ds = skewed(240);
    let seed = 0x15A5_6D00;
    let rounds = 4;
    for sync in [SyncStrategy::Average, SyncStrategy::WeightedByShard] {
        for (strategy, commit) in sampling_commit_cells() {
            let tag = format!("{sync:?}/{strategy:?}/{commit:?}");

            // Single node: engine is the third leg of the equivalence.
            let inproc1 = run_cluster(
                &ds,
                1,
                strategy,
                sync,
                commit,
                TransportConfig::InProcess,
                seed,
                rounds,
            );
            let tcp1 = run_cluster(
                &ds,
                1,
                strategy,
                sync,
                commit,
                TransportConfig::tcp(),
                seed,
                rounds,
            );
            let engine = run_engine(&ds, strategy, commit, seed, rounds);
            assert_eq!(inproc1.model, tcp1.model, "{tag}: 1-node tcp ≠ inproc");
            assert_eq!(
                inproc1.trace.points_without_clock(),
                tcp1.trace.points_without_clock(),
                "{tag}: 1-node traces differ"
            );
            assert_eq!(
                inproc1.model, engine,
                "{tag}: 1-node cluster ≠ sequential engine"
            );

            // Multi node: transports must agree on everything observable.
            let inproc3 = run_cluster(
                &ds,
                3,
                strategy,
                sync,
                commit,
                TransportConfig::InProcess,
                seed,
                rounds,
            );
            let tcp3 = run_cluster(
                &ds,
                3,
                strategy,
                sync,
                commit,
                TransportConfig::tcp(),
                seed,
                rounds,
            );
            assert_eq!(inproc3.model, tcp3.model, "{tag}: 3-node tcp ≠ inproc");
            assert_eq!(
                inproc3.trace.points_without_clock(),
                tcp3.trace.points_without_clock(),
                "{tag}: 3-node traces differ"
            );
            assert_eq!(
                inproc3.feedback_rows, tcp3.feedback_rows,
                "{tag}: mirror traffic differs"
            );
            assert_eq!(
                inproc3.observed_phi_imbalance, tcp3.observed_phi_imbalance,
                "{tag}: mirror state differs"
            );
            assert!(inproc3.model.iter().all(|x| x.is_finite()), "{tag}");

            // And the two sync strategies must genuinely differ from a
            // degenerate run: models move off the origin.
            assert!(
                inproc3.model.iter().any(|&x| x != 0.0),
                "{tag}: no training"
            );
        }
    }
}

/// The wire-encoding leg of the matrix: sparse delta frames and the
/// auto-selected mix are a pure re-encoding of the same model bits, so
/// a TCP run under every [`WireEncoding`] MUST be bit-identical to the
/// in-process run — models, traces, and feedback-mirror state alike.
/// Any arithmetic (rather than bitwise) step in delta encode/apply, or
/// any tx/rx base desynchronization, breaks this immediately.
#[test]
fn tcp_matrix_is_encoding_invariant() {
    let ds = skewed(240);
    let seed = 0x15A5_6D00;
    let rounds = 4;
    for (strategy, commit) in sampling_commit_cells() {
        let baseline = run_cluster(
            &ds,
            3,
            strategy,
            SyncStrategy::WeightedByShard,
            commit,
            TransportConfig::InProcess,
            seed,
            rounds,
        );
        for encoding in [WireEncoding::Dense, WireEncoding::Delta, WireEncoding::Auto] {
            let tag = format!("{strategy:?}/{commit:?}/{encoding:?}");
            let tcp = run_cluster(
                &ds,
                3,
                strategy,
                SyncStrategy::WeightedByShard,
                commit,
                TransportConfig::Tcp {
                    bind: "127.0.0.1:0".into(),
                    encoding,
                },
                seed,
                rounds,
            );
            assert_eq!(baseline.model, tcp.model, "{tag}: model ≠ inproc");
            assert_eq!(
                baseline.trace.points_without_clock(),
                tcp.trace.points_without_clock(),
                "{tag}: traces differ"
            );
            assert_eq!(
                baseline.feedback_rows, tcp.feedback_rows,
                "{tag}: mirror traffic differs"
            );
            assert_eq!(
                baseline.observed_phi_imbalance, tcp.observed_phi_imbalance,
                "{tag}: mirror state differs"
            );
            // The counters must attest the encoding actually engaged:
            // round-model traffic flows as ModelUpdate frames under
            // Dense and (after the first exchange) as ModelDelta under
            // Delta.
            let stats = &tcp.net;
            assert_eq!(stats.len(), 3, "{tag}: one LinkStats per link");
            let tx_delta: u64 = stats
                .iter()
                .map(|s| s.tx_bytes_for(isasgd_cluster::FrameKind::ModelDelta))
                .sum();
            match encoding {
                WireEncoding::Dense => {
                    assert_eq!(tx_delta, 0, "{tag}: dense run sent delta frames");
                }
                WireEncoding::Delta => {
                    assert!(tx_delta > 0, "{tag}: delta run never sent a delta frame");
                }
                WireEncoding::Auto => {} // workload-dependent either way
            }
        }
    }
}

/// The headline bandwidth claim, pinned on real traffic rather than on
/// synthetic frames: a sparse workload (the model only ever moves on
/// nnz ≪ dim/10 coordinates) under `--wire-encoding auto` must move at
/// least 4× fewer round-model bytes than the dense encoding — while
/// producing the bit-identical model.
#[test]
fn auto_encoding_cuts_round_model_bytes_at_least_4x_on_sparse_workloads() {
    // Feature space of 4096, but every row touches only coordinates
    // 0..8 — so each round's model delta has nnz ≤ 8 ≪ dim/10.
    let dim = 4096;
    let mut b = DatasetBuilder::new(dim);
    for i in 0..240 {
        let norm = if i % 10 == 0 { 6.0 } else { 0.3 };
        let j = (i % 4) as u32;
        let y = if i % 2 == 0 { 1.0 } else { -1.0 };
        b.push_row(&[(j, y * norm), (4 + j, 0.5 * y * norm)], y)
            .unwrap();
    }
    let ds = b.finish();
    let round_model_bytes = |run: &ClusterRun| -> u64 {
        run.net
            .iter()
            .map(|s| {
                s.tx_bytes_for(isasgd_cluster::FrameKind::ModelUpdate)
                    + s.tx_bytes_for(isasgd_cluster::FrameKind::ModelDelta)
                    + s.rx_bytes_for(isasgd_cluster::FrameKind::ModelUpdate)
                    + s.rx_bytes_for(isasgd_cluster::FrameKind::ModelDelta)
            })
            .sum()
    };
    let mut runs = [WireEncoding::Dense, WireEncoding::Auto].map(|encoding| {
        run_cluster(
            &ds,
            2,
            SamplingStrategy::Static,
            SyncStrategy::Average,
            CommitPolicy::EpochBoundary,
            TransportConfig::Tcp {
                bind: "127.0.0.1:0".into(),
                encoding,
            },
            0x15A5_6D00,
            8,
        )
    });
    let [dense, auto] = &mut runs;
    assert_eq!(dense.model, auto.model, "encodings changed the model");
    assert_eq!(
        dense.trace.points_without_clock(),
        auto.trace.points_without_clock(),
        "encodings changed the trace"
    );
    let (dense_bytes, auto_bytes) = (round_model_bytes(dense), round_model_bytes(auto));
    assert!(
        dense_bytes >= 4 * auto_bytes,
        "sparse workload: auto encoding moved {auto_bytes} round-model bytes \
         vs {dense_bytes} dense — less than the pinned 4× reduction"
    );
}

/// A bigger TCP soak (more nodes, more rounds, adaptive every-k) —
/// `#[ignore]`d by default; CI opts in with `--include-ignored` on the
/// release-mode cluster job so socket timing gets exercised both ways.
#[test]
#[ignore = "slow socket soak; run with --include-ignored (CI release job does)"]
fn tcp_soak_many_nodes_matches_inproc() {
    let ds = skewed(960);
    for seed in [1u64, 0xDEAD_BEEF] {
        let inproc = run_cluster(
            &ds,
            8,
            SamplingStrategy::Adaptive,
            SyncStrategy::WeightedByShard,
            CommitPolicy::EveryK(32),
            TransportConfig::InProcess,
            seed,
            8,
        );
        let tcp = run_cluster(
            &ds,
            8,
            SamplingStrategy::Adaptive,
            SyncStrategy::WeightedByShard,
            CommitPolicy::EveryK(32),
            TransportConfig::tcp(),
            seed,
            8,
        );
        assert_eq!(inproc.model, tcp.model, "seed {seed}");
        assert_eq!(
            inproc.trace.points_without_clock(),
            tcp.trace.points_without_clock(),
            "seed {seed}"
        );
    }
}

#[test]
fn adaptive_single_node_cluster_is_bit_equal_to_sequential_engine() {
    // The original headline pin: identical adaptive weight trajectories
    // through the one stream recipe ⇒ identical draws ⇒ identical
    // models.
    let ds = skewed(240);
    for seed in [7u64, 0x15A5_6D00, 42] {
        let engine = run_engine(
            &ds,
            SamplingStrategy::Adaptive,
            CommitPolicy::EpochBoundary,
            seed,
            5,
        );
        let cluster = run_cluster(
            &ds,
            1,
            SamplingStrategy::Adaptive,
            SyncStrategy::Average,
            CommitPolicy::EpochBoundary,
            TransportConfig::InProcess,
            seed,
            5,
        );
        assert_eq!(
            engine, cluster.model,
            "seed {seed}: adaptive engine and cluster runtimes diverged"
        );
        assert!(engine.iter().all(|x| x.is_finite()));
    }
}

#[test]
fn streamed_every_k_single_node_cluster_is_bit_equal_to_sequential_engine() {
    // The streamed-path extension of the pin: under intra-epoch commits
    // both runtimes draw one sample at a time from the live distribution
    // and observe immediately, so the mid-epoch re-weights — and with
    // them every subsequent draw — must coincide exactly.
    let ds = skewed(240);
    for seed in [3u64, 0x15A5_6D00] {
        let engine = run_engine(
            &ds,
            SamplingStrategy::Adaptive,
            CommitPolicy::EveryK(16),
            seed,
            5,
        );
        let cluster = run_cluster(
            &ds,
            1,
            SamplingStrategy::Adaptive,
            SyncStrategy::Average,
            CommitPolicy::EveryK(16),
            TransportConfig::InProcess,
            seed,
            5,
        );
        assert_eq!(
            engine, cluster.model,
            "seed {seed}: streamed engine and cluster runtimes diverged"
        );
        assert!(engine.iter().all(|x| x.is_finite()));
    }
}

#[test]
fn static_single_node_cluster_is_bit_equal_to_sequential_engine() {
    // The frozen-distribution path shares sequence construction and
    // seeds; it must agree too (no feedback involved).
    let ds = skewed(240);
    let engine = run_engine(
        &ds,
        SamplingStrategy::Static,
        CommitPolicy::EpochBoundary,
        11,
        4,
    );
    let cluster = run_cluster(
        &ds,
        1,
        SamplingStrategy::Static,
        SyncStrategy::Average,
        CommitPolicy::EpochBoundary,
        TransportConfig::InProcess,
        11,
        4,
    );
    assert_eq!(
        engine, cluster.model,
        "static engine and cluster runs diverged"
    );
}

#[test]
fn uniform_single_node_cluster_is_bit_equal_to_sequential_engine() {
    // The uniform cell: one stream recipe, so plain local SGD on one
    // node is `Algorithm::Sgd` — once both keep the file order. Under
    // the default policy they differ on purpose: the cluster shuffles
    // before sharding, the one-worker engine does not.
    let ds = skewed(240);
    let engine = run_engine(
        &ds,
        SamplingStrategy::Uniform,
        CommitPolicy::EpochBoundary,
        11,
        4,
    );
    let shuffling = cluster_cfg(
        1,
        SamplingStrategy::Uniform,
        SyncStrategy::Average,
        CommitPolicy::EpochBoundary,
        TransportConfig::InProcess,
        11,
        4,
    );
    let in_file_order = ClusterConfig {
        balance: BalancePolicy::Identity,
        ..shuffling.clone()
    };
    assert_eq!(
        engine,
        run(&ds, &obj(), &in_file_order).unwrap().model,
        "uniform engine and cluster runs diverged"
    );
    assert_ne!(engine, run(&ds, &obj(), &shuffling).unwrap().model);
}

#[test]
fn equivalence_is_seed_sensitive() {
    // Sanity guard that the matrix has teeth: different master seeds
    // give different trajectories, so the equalities above are not
    // vacuous.
    let ds = skewed(240);
    let a = run_engine(
        &ds,
        SamplingStrategy::Adaptive,
        CommitPolicy::EpochBoundary,
        1,
        4,
    );
    let b = run_engine(
        &ds,
        SamplingStrategy::Adaptive,
        CommitPolicy::EpochBoundary,
        2,
        4,
    );
    assert_ne!(a, b);
}

/// The PR-10 inertness pin: arming per-round worker telemetry must
/// not perturb a single bit of the training results, under any wire
/// encoding. Telemetry frames ride the same links as model traffic,
/// so this leg is what lets `--trace-out` be switched on in
/// production without invalidating reproducibility claims. The
/// coordinator's collect loop keeps the frames a plain link hands up,
/// so `ClusterRun::telemetry` holds one sample per node and round when
/// telemetry is on, and none when it is off.
#[test]
fn telemetry_is_bit_inert_across_encodings() {
    let ds = skewed(240);
    let seed = 0x0B5E_55ED;
    let rounds = 4;
    for encoding in [WireEncoding::Dense, WireEncoding::Delta, WireEncoding::Auto] {
        let run_with = |telemetry: bool| {
            let mut cfg = cluster_cfg(
                3,
                SamplingStrategy::Adaptive,
                SyncStrategy::WeightedByShard,
                CommitPolicy::EveryK(16),
                TransportConfig::Tcp {
                    bind: "127.0.0.1:0".into(),
                    encoding,
                },
                seed,
                rounds,
            );
            cfg.telemetry = telemetry;
            run(&ds, &obj(), &cfg).unwrap()
        };
        let off = run_with(false);
        let on = run_with(true);
        let tag = format!("{encoding:?}");
        assert_eq!(off.model, on.model, "{tag}: telemetry perturbed the model");
        assert_eq!(
            off.trace.points_without_clock(),
            on.trace.points_without_clock(),
            "{tag}: telemetry perturbed the trace"
        );
        assert_eq!(
            off.feedback_rows, on.feedback_rows,
            "{tag}: telemetry perturbed mirror traffic"
        );
        assert_eq!(
            off.observed_phi_imbalance, on.observed_phi_imbalance,
            "{tag}: telemetry perturbed mirror state"
        );
        assert!(off.telemetry.is_empty(), "{tag}: telemetry off ships none");
        assert_eq!(
            on.telemetry.len(),
            3 * rounds,
            "{tag}: one sample per node and round"
        );
    }
}
