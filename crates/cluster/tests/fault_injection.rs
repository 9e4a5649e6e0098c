//! Fault injection on the cluster protocol: the round loop must
//! converge — and produce the *same* result — when the transport
//! deterministically delays (reorders) and duplicates messages.
//!
//! Why this is supposed to hold:
//! * Round barriers and consensus models are awaited by round tag, in
//!   either order, with stale tags dropped — so duplication and
//!   burst-level reordering cannot desynchronize a round.
//! * `FeedbackBatch` deliveries are idempotent: the batch carries
//!   per-row *max* observations and the coordinator's mirror
//!   accumulates per-row max within a round window (the PR-2 semantics)
//!   — applying a batch twice is a no-op. That is pinned here by
//!   bitwise equality of the mirror's final state (and every other
//!   observable) between a clean run and a flaky run that demonstrably
//!   duplicated feedback traffic.
//!
//! Runs are driven through `run_with_links` with every endpoint wrapped
//! in a seeded `FlakyTransport`, and guarded by a watchdog so a
//! protocol regression fails the test instead of hanging the suite.

#![allow(
    clippy::disallowed_macros,
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "../clippy.toml binds the library's non-test code; tests assert, time and receive freely"
)]

use isasgd_cluster::{
    in_process_links, run_with_links, ClusterConfig, ClusterError, ClusterRun, FlakyTransport,
    InProcess, RecoveryFootprint, SyncStrategy, Transport, TransportConfig, TransportError,
};
use isasgd_core::{
    CommitPolicy, ImportanceScheme, LogisticLoss, Objective, Regularizer, SamplingStrategy,
};
use isasgd_sparse::{Dataset, DatasetBuilder};
use std::sync::mpsc::channel;
use std::time::Duration;

fn skewed(n: usize) -> Dataset {
    let mut b = DatasetBuilder::new(8);
    for i in 0..n {
        let norm = if i % 7 == 0 { 5.0 } else { 0.4 };
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

fn adaptive_cfg(nodes: usize, commit: CommitPolicy) -> ClusterConfig {
    ClusterConfig {
        nodes,
        rounds: 4,
        local_epochs: 1,
        step_size: 0.3,
        importance: ImportanceScheme::LipschitzSmoothness,
        sampling: SamplingStrategy::Adaptive,
        commit,
        transport: TransportConfig::InProcess,
        seed: 0x15A5_6D00,
        ..ClusterConfig::default()
    }
}

/// Wraps every link endpoint (coordinator AND worker side) in a seeded
/// `FlakyTransport`, each with its own fault schedule.
fn flaky_links(
    nodes: usize,
    fault_seed: u64,
    dup: u64,
    delay: u64,
) -> Vec<(FlakyTransport<InProcess>, FlakyTransport<InProcess>)> {
    in_process_links(nodes)
        .into_iter()
        .enumerate()
        .map(|(k, (c, w))| {
            (
                FlakyTransport::with_periods(c, fault_seed ^ (2 * k as u64 + 1), dup, delay),
                FlakyTransport::with_periods(w, fault_seed ^ (2 * k as u64 + 2), dup, delay),
            )
        })
        .collect()
}

/// Runs under a watchdog: a deadlocked protocol fails in 120 s instead
/// of hanging the whole suite forever.
fn run_guarded<T: Transport + 'static>(
    ds: Dataset,
    cfg: ClusterConfig,
    links: Vec<(T, T)>,
) -> Result<ClusterRun, ClusterError> {
    let (tx, rx) = channel();
    std::thread::spawn(move || {
        let r = run_with_links(&ds, &obj(), &cfg, links);
        let _ = tx.send(r);
    });
    rx.recv_timeout(Duration::from_secs(120))
        .expect("cluster run deadlocked under fault injection")
}

fn assert_same_run(clean: &ClusterRun, flaky: &ClusterRun, tag: &str) {
    assert_eq!(clean.model, flaky.model, "{tag}: models diverged");
    assert_eq!(
        clean.rounds, flaky.rounds,
        "{tag}: RoundPoint traces diverged"
    );
    assert_eq!(clean.syncs, flaky.syncs, "{tag}: round barriers lost");
    assert_eq!(
        clean.observed_phi_imbalance, flaky.observed_phi_imbalance,
        "{tag}: duplicated FeedbackBatches were not idempotent on the mirror"
    );
    assert_eq!(clean.phi_imbalance, flaky.phi_imbalance, "{tag}");
    assert_eq!(clean.balanced, flaky.balanced, "{tag}");
}

#[test]
fn delayed_and_duplicated_messages_converge_identically() {
    let ds = skewed(280);
    let cfg = adaptive_cfg(3, CommitPolicy::EpochBoundary);
    let clean = run_with_links(&ds, &obj(), &cfg, in_process_links(cfg.nodes)).unwrap();
    assert!(clean.feedback_rows > 0, "adaptive run must ship feedback");
    for fault_seed in [1u64, 9, 0xFA_117] {
        let flaky = run_guarded(
            ds.clone(),
            cfg.clone(),
            flaky_links(cfg.nodes, fault_seed, 3, 4),
        )
        .unwrap();
        assert_same_run(&clean, &flaky, &format!("fault seed {fault_seed}"));
        // The mirror counts applied entries including duplicates: at
        // least one duplicated FeedbackBatch means strictly more
        // entries than the clean run — proving both that the injection
        // actually fired and that the duplicates changed nothing above.
        assert!(
            flaky.feedback_rows >= clean.feedback_rows,
            "fault seed {fault_seed}: lost feedback entries ({} < {})",
            flaky.feedback_rows,
            clean.feedback_rows
        );
    }
}

#[test]
fn duplicated_feedback_batches_are_idempotent() {
    // Duplication-only faults (no delays), aggressive period: every
    // 2nd send doubled. With 3 nodes × 4 rounds each sending one
    // FeedbackBatch, duplicates are guaranteed across the seeds below;
    // the assertion proves at least one run duplicated feedback and the
    // mirror absorbed it (per-row max idempotence).
    let ds = skewed(280);
    let cfg = adaptive_cfg(3, CommitPolicy::EpochBoundary);
    let clean = run_with_links(&ds, &obj(), &cfg, in_process_links(cfg.nodes)).unwrap();
    let mut saw_duplicate = false;
    for fault_seed in [2u64, 5, 11] {
        let flaky = run_guarded(
            ds.clone(),
            cfg.clone(),
            flaky_links(cfg.nodes, fault_seed, 2, 0),
        )
        .unwrap();
        assert_same_run(&clean, &flaky, &format!("dup seed {fault_seed}"));
        saw_duplicate |= flaky.feedback_rows > clean.feedback_rows;
    }
    assert!(
        saw_duplicate,
        "no FeedbackBatch was ever duplicated — the fault injection is vacuous"
    );
}

/// How a [`Meddler`] link rewrites what its worker sends.
#[derive(Clone, Copy)]
enum Meddle {
    /// Adds `(row, 1e9)` to every `FeedbackBatch` — a worker reporting
    /// on a row it was never assigned.
    ForeignRow(u32),
    /// Drops the last coordinate of every `ModelUpdate` — a replica of
    /// the wrong dimension.
    ShortReplica,
}

/// A link that meddles with its outgoing traffic, or (`None`) does not.
struct Meddler(InProcess, Option<Meddle>);

impl Transport for Meddler {
    fn send(&mut self, msg: &isasgd_cluster::Message) -> Result<(), TransportError> {
        use isasgd_cluster::Message::{FeedbackBatch, ModelUpdate};
        match (msg, self.1) {
            (
                FeedbackBatch {
                    node,
                    round,
                    observations,
                },
                Some(Meddle::ForeignRow(row)),
            ) => {
                let mut observations = observations.clone();
                observations.push((row, 1e9));
                self.0.send(&FeedbackBatch {
                    node: *node,
                    round: *round,
                    observations,
                })
            }
            (ModelUpdate { node, round, model }, Some(Meddle::ShortReplica)) => {
                self.0.send(&ModelUpdate {
                    node: *node,
                    round: *round,
                    model: model[..model.len() - 1].to_vec(),
                })
            }
            _ => self.0.send(msg),
        }
    }

    fn recv(&mut self) -> Result<isasgd_cluster::Message, TransportError> {
        self.0.recv()
    }

    /// A footprint to recognise through a wrapper.
    fn recovery(&self) -> Option<RecoveryFootprint> {
        Some(RecoveryFootprint {
            node: 7,
            ..RecoveryFootprint::default()
        })
    }
}

/// `nodes` in-process links, link 0's worker end meddling as told.
fn meddled_links(nodes: usize, meddle: Meddle) -> Vec<(Meddler, Meddler)> {
    in_process_links(nodes)
        .into_iter()
        .enumerate()
        .map(|(k, (c, w))| (Meddler(c, None), Meddler(w, (k == 0).then_some(meddle))))
        .collect()
}

#[test]
fn a_link_speaks_for_its_own_shard_only() {
    // Link 0 names, in each of its batches, a row of shard 1 — or one
    // past every shard. It may reach neither a mirror nor the row
    // counter: the run must be indistinguishable from an unmeddled one.
    let ds = skewed(280);
    let cfg = adaptive_cfg(3, CommitPolicy::EpochBoundary);
    let clean = run_with_links(&ds, &obj(), &cfg, in_process_links(cfg.nodes)).unwrap();
    for foreign in [100u32, 280, u32::MAX] {
        let links = meddled_links(cfg.nodes, Meddle::ForeignRow(foreign));
        let meddled = run_guarded(ds.clone(), cfg.clone(), links).unwrap();
        assert_same_run(&clean, &meddled, &format!("foreign row {foreign}"));
        assert_eq!(clean.feedback_rows, meddled.feedback_rows, "row {foreign}");
    }
}

#[test]
fn a_replica_of_the_wrong_dimension_is_a_typed_error() {
    // Link 0 delivers every replica one coordinate short. The
    // coordinator must refuse it by name: averaging it (3 nodes) or
    // evaluating it (1 node) panics the coordinating thread with its
    // links still open, and the workers then never unblock — a
    // regression here hangs, hence `run_guarded`.
    let ds = skewed(280);
    for nodes in [1, 3] {
        let cfg = adaptive_cfg(nodes, CommitPolicy::EpochBoundary);
        let err = run_guarded(ds.clone(), cfg, meddled_links(nodes, Meddle::ShortReplica))
            .expect_err("a short replica was averaged");
        let ClusterError::Worker(detail) = &err else {
            panic!("{nodes} nodes: {err}");
        };
        for want in ["round 1", "node 0", "dim 7", "dim 8"] {
            assert!(detail.contains(want), "{nodes} nodes: {detail}");
        }
    }
}

#[test]
fn every_k_streams_survive_faults() {
    // Intra-epoch adaptivity is the most commit-timing-sensitive path;
    // transport faults must still not be able to touch it (feedback
    // steering is node-local, only the reporting rides the wire).
    let ds = skewed(280);
    let cfg = adaptive_cfg(3, CommitPolicy::EveryK(16));
    let clean = run_with_links(&ds, &obj(), &cfg, in_process_links(cfg.nodes)).unwrap();
    let flaky = run_guarded(ds, cfg.clone(), flaky_links(cfg.nodes, 77, 3, 4)).unwrap();
    assert_same_run(&clean, &flaky, "every-k");
}

#[test]
fn faults_on_weighted_sync_and_many_nodes() {
    let ds = skewed(420);
    let cfg = ClusterConfig {
        sync: SyncStrategy::WeightedByShard,
        rounds: 3,
        ..adaptive_cfg(5, CommitPolicy::EpochBoundary)
    };
    let clean = run_with_links(&ds, &obj(), &cfg, in_process_links(cfg.nodes)).unwrap();
    let flaky = run_guarded(ds, cfg.clone(), flaky_links(cfg.nodes, 31, 2, 3)).unwrap();
    assert_same_run(&clean, &flaky, "weighted/5-node");
}

#[test]
fn fault_injection_is_reproducible() {
    // Same fault seed ⇒ identical flaky run end to end (the injector is
    // part of the deterministic system, not a source of flake).
    let ds = skewed(280);
    let cfg = adaptive_cfg(3, CommitPolicy::EpochBoundary);
    let a = run_guarded(ds.clone(), cfg.clone(), flaky_links(cfg.nodes, 13, 3, 4)).unwrap();
    let b = run_guarded(ds, cfg.clone(), flaky_links(cfg.nodes, 13, 3, 4)).unwrap();
    assert_eq!(a.model, b.model);
    assert_eq!(a.feedback_rows, b.feedback_rows);
}

#[test]
fn the_injector_forwards_the_recovery_footprint_of_the_link_it_wraps() {
    // It forwarded `stats` and `telemetry` but answered `recovery` with
    // the trait's `None`: a supervised link under fault injection lost
    // its respawn footprint from `ClusterRun::recovery`.
    let (a, _peer) = InProcess::pair();
    let flaky = FlakyTransport::with_periods(Meddler(a, None), 1, 3, 4);
    assert_eq!(flaky.recovery().map(|r| r.node), Some(7));
}

/// Faulty *sockets*: the same tolerance over real TCP loopback links.
/// `#[ignore]`d as a slow socket test; CI's release cluster job opts in.
#[test]
#[ignore = "slow socket test; run with --include-ignored (CI release job does)"]
fn tcp_links_survive_faults_too() {
    let ds = skewed(280);
    let cfg = ClusterConfig {
        transport: TransportConfig::tcp(),
        ..adaptive_cfg(3, CommitPolicy::EpochBoundary)
    };
    let clean = isasgd_cluster::run(&ds, &obj(), &cfg).unwrap();
    let links = isasgd_cluster::tcp_loopback_links(cfg.nodes, "127.0.0.1:0")
        .unwrap()
        .into_iter()
        .enumerate()
        .map(|(k, (c, w))| {
            (
                FlakyTransport::with_periods(c, 0x7C9 ^ (2 * k as u64 + 1), 3, 4),
                FlakyTransport::with_periods(w, 0x7C9 ^ (2 * k as u64 + 2), 3, 4),
            )
        })
        .collect();
    let flaky = run_guarded(ds, cfg.clone(), links).unwrap();
    assert_same_run(&clean, &flaky, "flaky tcp");
}
