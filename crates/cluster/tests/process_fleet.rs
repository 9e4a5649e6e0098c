//! Supervision tests for the cross-process fleet, run at the library
//! level through the [`WorkerSpawner`] seam: workers are **threads
//! running the real worker code over real TCP sockets** — the full
//! `Hello`/`Assign`/`DatasetShard` session layer, the wire codec,
//! and the round protocol are all exercised byte-for-byte; only the
//! `fork`/`exec` pair is skipped (the CLI e2e suite covers genuine
//! subprocesses with `CARGO_BIN_EXE_isasgd`).
//!
//! Pinned here:
//! * a fleet run is **bit-equal** to the in-process transport;
//! * killing a worker mid-round under `--on-worker-loss respawn`
//!   completes bit-identically to an undisturbed run (deterministic
//!   session replay);
//! * under `fail` the same kill produces a typed
//!   [`ClusterError::WorkerLost`] promptly — never a hang;
//! * handshake abuse (garbage bytes, wrong-version hello, silent and
//!   instantly-closed connections) is rejected with typed errors while
//!   the accept loop keeps admitting real workers — and a *continuous*
//!   junk flood cannot starve the handshake deadline;
//! * with `--checkpoint-every`, respawn recovery replays only the
//!   post-checkpoint suffix: still bit-identical to an undisturbed run
//!   at every kill round and under every wire encoding, with the
//!   replay log and recovered bytes bounded by one checkpoint interval
//!   (measured from the supervisor's own counters, independent of
//!   session length).

#![allow(
    clippy::disallowed_macros,
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "../clippy.toml binds the library's non-test code; tests assert, time and receive freely"
)]

mod fixtures;

use fixtures::{binary, skewed, wide};
use isasgd_cluster::{
    run, run_fleet_with, run_worker, ClusterConfig, ClusterError, ClusterRun, FrameKind,
    ProcessConfig, SyncStrategy, TransportConfig, WireEncoding, WorkerHandle, WorkerLossPolicy,
    WorkerOptions, WorkerSpawner, PROTOCOL_VERSION,
};
use isasgd_core::{
    train, Algorithm, CommitPolicy, Execution, ImportanceScheme, LogisticLoss, Objective,
    Regularizer, SamplingStrategy, SquaredHingeLoss, TrainConfig,
};
use isasgd_sparse::{Dataset, DatasetBuilder};
use std::io::Write;
use std::net::TcpStream;
use std::sync::mpsc::channel;
use std::time::Duration;

fn obj() -> Objective<LogisticLoss> {
    Objective::new(LogisticLoss, Regularizer::L1 { eta: 1e-5 })
}

fn adaptive_cfg(nodes: usize) -> ClusterConfig {
    ClusterConfig {
        nodes,
        rounds: 4,
        local_epochs: 1,
        step_size: 0.3,
        importance: ImportanceScheme::LipschitzSmoothness,
        sampling: SamplingStrategy::Adaptive,
        commit: CommitPolicy::EveryK(16),
        seed: 0x15A5_6D00,
        ..ClusterConfig::default()
    }
}

/// A "process" that is a thread running the genuine worker session
/// code ([`run_worker`]) against the fleet's listener.
struct ThreadWorker(Option<std::thread::JoinHandle<()>>);

impl WorkerHandle for ThreadWorker {}

impl Drop for ThreadWorker {
    fn drop(&mut self) {
        // The socket is closed before handles drop, so a blocked
        // worker errors out and the join is prompt.
        if let Some(h) = self.0.take() {
            let _ = h.join();
        }
    }
}

/// Spawns protocol-faithful thread workers; `die_at` arms the chaos
/// hook on the *initial* spawn of the matching node, exactly like the
/// production spawner forwards `--die-at-round`.
struct ThreadSpawner {
    die_at: Option<(u32, u64)>,
}

impl WorkerSpawner for ThreadSpawner {
    fn spawn(
        &mut self,
        node: u32,
        addr: &str,
        respawn: bool,
    ) -> Result<Box<dyn WorkerHandle>, ClusterError> {
        let die_at_round = match self.die_at {
            Some((victim, round)) if victim == node && !respawn => Some(round),
            _ => None,
        };
        let addr = addr.to_string();
        let handle = std::thread::spawn(move || {
            let opts = WorkerOptions {
                die_at_round,
                ..WorkerOptions::default()
            };
            // A chaos-killed worker returns an error by design; any
            // other failure is surfaced by the coordinator side.
            let _ = run_worker(&addr, &opts);
        });
        Ok(Box::new(ThreadWorker(Some(handle))))
    }
}

fn fleet_pc() -> ProcessConfig {
    ProcessConfig {
        handshake_timeout_ms: 30_000,
        round_timeout_ms: 60_000,
        ..ProcessConfig::default()
    }
}

/// Watchdog wrapper: a supervision regression fails in 120 s instead of
/// hanging the suite.
fn run_fleet_guarded(
    ds: Dataset,
    cfg: ClusterConfig,
    pc: ProcessConfig,
    spawner: ThreadSpawner,
) -> Result<ClusterRun, ClusterError> {
    let (tx, rx) = channel();
    std::thread::spawn(move || {
        let r = run_fleet_with(&ds, &obj(), &cfg, &pc, spawner);
        let _ = tx.send(r);
    });
    rx.recv_timeout(Duration::from_secs(120))
        .expect("fleet run hung")
}

/// The 4-way acceptance matrix at the library level: a fleet run
/// (process session layer over real sockets) must be bit-equal to the
/// `tcp` and `inproc` transports across
/// {Average, WeightedByShard} × {Static, Adaptive}. The fourth leg —
/// the sequential engine — is pinned by the single-node test below.
#[test]
fn fleet_matrix_is_bit_equal_to_tcp_and_inproc() {
    let ds = skewed(240);
    for sync in [SyncStrategy::Average, SyncStrategy::WeightedByShard] {
        for sampling in [SamplingStrategy::Static, SamplingStrategy::Adaptive] {
            let commit = if sampling == SamplingStrategy::Adaptive {
                CommitPolicy::EveryK(16)
            } else {
                CommitPolicy::EpochBoundary
            };
            let cfg = ClusterConfig {
                sync,
                sampling,
                commit,
                ..adaptive_cfg(3)
            };
            let tag = format!("{sync:?}/{sampling:?}");
            let inproc = run(&ds, &obj(), &cfg).unwrap();
            let tcp = run(
                &ds,
                &obj(),
                &ClusterConfig {
                    transport: TransportConfig::tcp(),
                    ..cfg.clone()
                },
            )
            .unwrap();
            let fleet =
                run_fleet_guarded(ds.clone(), cfg, fleet_pc(), ThreadSpawner { die_at: None })
                    .unwrap();
            assert_eq!(fleet.model, inproc.model, "{tag}: fleet ≠ inproc model");
            assert_eq!(fleet.model, tcp.model, "{tag}: fleet ≠ tcp model");
            assert_eq!(
                fleet.trace.points_without_clock(),
                inproc.trace.points_without_clock(),
                "{tag}: fleet ≠ inproc trace"
            );
            assert_eq!(
                fleet.trace.points_without_clock(),
                tcp.trace.points_without_clock(),
                "{tag}: fleet ≠ tcp trace"
            );
            assert_eq!(fleet.feedback_rows, inproc.feedback_rows, "{tag}");
            assert_eq!(
                fleet.observed_phi_imbalance, inproc.observed_phi_imbalance,
                "{tag}"
            );
        }
    }
}

#[test]
fn single_node_fleet_is_bit_equal_to_sequential_engine() {
    // The engine leg of the 4-way pin: one process worker over the full
    // session layer walks the exact trajectory of the in-process
    // sequential engine.
    let ds = skewed(240);
    for (sampling, commit) in [
        (SamplingStrategy::Static, CommitPolicy::EpochBoundary),
        (SamplingStrategy::Adaptive, CommitPolicy::EpochBoundary),
        (SamplingStrategy::Adaptive, CommitPolicy::EveryK(16)),
    ] {
        let cfg = ClusterConfig {
            sampling,
            commit,
            ..adaptive_cfg(1)
        };
        let mut tc = TrainConfig::default()
            .with_epochs(cfg.rounds)
            .with_step_size(cfg.step_size)
            .with_seed(cfg.seed);
        tc.importance = cfg.importance;
        tc.sampling = Some(sampling);
        tc.commit = commit;
        let engine = train(
            &ds,
            &obj(),
            Algorithm::IsSgd,
            Execution::Sequential,
            &tc,
            "fleet-equiv",
        )
        .unwrap();
        let fleet =
            run_fleet_guarded(ds.clone(), cfg, fleet_pc(), ThreadSpawner { die_at: None }).unwrap();
        assert_eq!(
            fleet.model, engine.model,
            "{sampling:?}/{commit:?}: process worker ≠ sequential engine"
        );
    }
}

/// FNV-1a over the IEEE-754 bits of a model.
fn fnv(model: &[f64]) -> u64 {
    model
        .iter()
        .flat_map(|x| x.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// The worker step loop's bit pins, recorded from a build whose workers
/// read every row straight from their shard: a two-node in-process
/// cluster on the `wide` fixture under epoch-boundary commits (a worker
/// pulls a window of draws at a time) and under every-7 commits (one
/// draw at a time), and the first again on a process fleet; then both
/// transports again at two local epochs a round, where a worker commits
/// its sampler between its epochs and once more after the round's
/// sends. Last, epoch-boundary commits on both transports over the
/// constant-valued `binary` fixture, recorded from a build that stored
/// a value per non-zero. A fleet's node 1 holds only its own rows, so
/// each of its steps reads storage row `row - row_base` with
/// `row_base > 0`. Squared hinge keeps libm out of the trajectory.
#[test]
fn cluster_model_bits_are_pinned_in_process_and_on_a_fleet() {
    const EPOCH_BOUNDARY: u64 = 0xc080_1afd_6154_acb3;
    const EVERY_7: u64 = 0xfe85_9852_182d_2ed9;
    const TWO_LOCAL_EPOCHS: u64 = 0x9d36_9893_a795_b4f6;
    const CONSTANT_VALUED: u64 = 0x18e9_6237_5388_00c6;
    let (ds, bin) = (wide(96), binary(96));
    let o = Objective::new(SquaredHingeLoss, Regularizer::L1 { eta: 1e-3 });
    let cfg = |commit, local_epochs| ClusterConfig {
        rounds: 3,
        local_epochs,
        step_size: 0.1,
        commit,
        seed: 41,
        ..adaptive_cfg(2)
    };
    let boundary = cfg(CommitPolicy::EpochBoundary, 1);
    let two_epochs = cfg(CommitPolicy::EpochBoundary, 2);
    for (tag, ds, cfg, want) in [
        ("epoch-boundary", &ds, &boundary, EPOCH_BOUNDARY),
        ("every-7", &ds, &cfg(CommitPolicy::EveryK(7), 1), EVERY_7),
        ("two local epochs", &ds, &two_epochs, TWO_LOCAL_EPOCHS),
        ("constant-valued", &bin, &boundary, CONSTANT_VALUED),
    ] {
        let got = fnv(&run(ds, &o, cfg).unwrap().model);
        assert_eq!(got, want, "in-process {tag}: {got:#018x}");
    }
    for (tag, ds, cfg, want) in [
        ("epoch-boundary", &ds, &boundary, EPOCH_BOUNDARY),
        ("two local epochs", &ds, &two_epochs, TWO_LOCAL_EPOCHS),
        ("constant-valued", &bin, &boundary, CONSTANT_VALUED),
    ] {
        let (ds, cfg, (tx, rx)) = (ds.clone(), cfg.clone(), channel());
        std::thread::spawn(move || {
            let spawner = ThreadSpawner { die_at: None };
            let _ = tx.send(run_fleet_with(&ds, &o, &cfg, &fleet_pc(), spawner));
        });
        let fleet = rx
            .recv_timeout(Duration::from_secs(120))
            .expect("fleet run hung")
            .unwrap();
        let got = fnv(&fleet.model);
        assert_eq!(got, want, "fleet {tag}: {got:#018x}");
    }
}

#[test]
fn killed_worker_with_respawn_completes_bit_identically() {
    let ds = skewed(240);
    let cfg = adaptive_cfg(3);
    let clean = run(&ds, &obj(), &cfg).unwrap();
    for (victim, round) in [(1u32, 2u64), (0, 1), (2, 4)] {
        let pc = ProcessConfig {
            on_loss: WorkerLossPolicy::Respawn,
            ..fleet_pc()
        };
        let chaotic = run_fleet_guarded(
            ds.clone(),
            cfg.clone(),
            pc,
            ThreadSpawner {
                die_at: Some((victim, round)),
            },
        )
        .unwrap_or_else(|e| panic!("kill {victim}@{round}: respawn run failed: {e}"));
        assert_eq!(
            chaotic.model, clean.model,
            "kill {victim}@{round}: replayed run diverged from the undisturbed model"
        );
        assert_eq!(
            chaotic.trace.points_without_clock(),
            clean.trace.points_without_clock(),
            "kill {victim}@{round}: round traces diverged"
        );
    }
}

/// The bandwidth half of the shard-streaming pin: every admitted worker
/// of a 3-node fleet receives strictly fewer dataset bytes than one
/// monolithic v1 whole-dataset frame of the training set would have
/// cost — measured by the supervisor's own per-link, per-frame-kind
/// counters, not by construction.
#[test]
fn fleet_workers_receive_strictly_fewer_dataset_bytes_than_a_full_transfer() {
    let ds = skewed(240);
    let cfg = adaptive_cfg(3);
    let fleet =
        run_fleet_guarded(ds.clone(), cfg, fleet_pc(), ThreadSpawner { die_at: None }).unwrap();
    // What the v1 handshake would have shipped to EVERY worker: one
    // whole-dataset frame — length prefix(4) ‖ tag(1) ‖ dim(4) ‖
    // rows(4), then per row label(8) ‖ nnz(4) ‖ nnz × (index(4) ‖
    // value(8)).
    let full = 13
        + ds.rows()
            .map(|r| 12 + 12 * r.indices.len() as u64)
            .sum::<u64>();
    assert_eq!(fleet.net.len(), 3, "one LinkStats per supervised link");
    let mut total = 0u64;
    for (k, stats) in fleet.net.iter().enumerate() {
        let shard_tx = stats.tx_bytes_for(FrameKind::DatasetShard);
        assert!(shard_tx > 0, "worker {k} was never streamed its shard");
        assert!(
            shard_tx < full,
            "worker {k} received {shard_tx} shard bytes — not fewer than the \
             {full}-byte monolithic transfer it replaces"
        );
        total += shard_tx;
    }
    // Aggregate honesty: 3 disjoint shard streams must also undercut
    // the old cost of 3 full copies by roughly the sharding factor.
    assert!(
        total * 2 < full * 3,
        "shard streaming saved less than half of 3 full transfers \
         ({total} vs {})",
        full * 3
    );
}

/// Respawn replay over sparse frames: a worker killed mid-run under the
/// delta (and auto) wire encodings must recover bit-identically. The
/// fresh link's empty delta bases have to line up with the readmitted
/// worker's — the handshake frames are always dense, and both
/// ends only install a base after a successful round exchange.
#[test]
fn killed_worker_with_respawn_is_bit_identical_under_delta_encodings() {
    let ds = skewed(240);
    let cfg = adaptive_cfg(3);
    let clean = run(&ds, &obj(), &cfg).unwrap();
    for encoding in [WireEncoding::Delta, WireEncoding::Auto] {
        let pc = ProcessConfig {
            on_loss: WorkerLossPolicy::Respawn,
            encoding,
            ..fleet_pc()
        };
        let chaotic = run_fleet_guarded(
            ds.clone(),
            cfg.clone(),
            pc,
            ThreadSpawner {
                die_at: Some((1, 2)),
            },
        )
        .unwrap_or_else(|e| panic!("{encoding:?}: respawn run failed: {e}"));
        assert_eq!(
            chaotic.model, clean.model,
            "{encoding:?}: delta-encoded replay diverged from the undisturbed model"
        );
        assert_eq!(
            chaotic.trace.points_without_clock(),
            clean.trace.points_without_clock(),
            "{encoding:?}: round traces diverged"
        );
    }
}

/// The tentpole acceptance matrix: a 12-round session checkpointing
/// every 4 rounds, chaos-killed at **every** round, under every wire
/// encoding — each recovery installs the stored checkpoint and replays
/// only the suffix, and the final model and round trace are
/// bit-identical to a never-killed, never-checkpointed in-process run
/// (checkpointing itself must also be invisible to the computation).
#[test]
fn checkpointed_kill_at_every_round_is_bit_identical_across_encodings() {
    let ds = skewed(120);
    let cfg = ClusterConfig {
        rounds: 12,
        ..adaptive_cfg(2)
    };
    let clean = run(&ds, &obj(), &cfg).unwrap();
    for encoding in [WireEncoding::Dense, WireEncoding::Delta, WireEncoding::Auto] {
        for round in 1..=12u64 {
            let victim = (round % 2) as u32;
            let pc = ProcessConfig {
                on_loss: WorkerLossPolicy::Respawn,
                encoding,
                checkpoint_every: 4,
                ..fleet_pc()
            };
            let chaotic = run_fleet_guarded(
                ds.clone(),
                cfg.clone(),
                pc,
                ThreadSpawner {
                    die_at: Some((victim, round)),
                },
            )
            .unwrap_or_else(|e| panic!("{encoding:?} kill {victim}@{round}: {e}"));
            assert_eq!(
                chaotic.model, clean.model,
                "{encoding:?} kill {victim}@{round}: checkpointed recovery diverged"
            );
            assert_eq!(
                chaotic.trace.points_without_clock(),
                clean.trace.points_without_clock(),
                "{encoding:?} kill {victim}@{round}: round traces diverged"
            );
            let fp = &chaotic.recovery[victim as usize];
            assert_eq!(
                fp.respawns, 1,
                "{encoding:?} kill {victim}@{round}: exactly one respawn expected"
            );
        }
    }
}

/// The recovery-footprint bound, measured — not asserted by
/// construction. With a checkpoint cadence the supervisor's replay log
/// and the bytes a respawn actually re-ships are a function of the
/// checkpoint *interval*, not the session length; without one, the log
/// grows with every round (the pre-fix behaviour, pinned here as the
/// regression guard).
#[test]
fn replay_footprint_is_bounded_by_one_checkpoint_interval() {
    let ds = skewed(120);
    let fleet = |rounds: usize, checkpoint_every: u64, die_at: Option<(u32, u64)>| {
        let cfg = ClusterConfig {
            rounds,
            ..adaptive_cfg(2)
        };
        let pc = ProcessConfig {
            on_loss: WorkerLossPolicy::Respawn,
            encoding: WireEncoding::Dense,
            checkpoint_every,
            ..fleet_pc()
        };
        run_fleet_guarded(ds.clone(), cfg, pc, ThreadSpawner { die_at }).unwrap()
    };

    // Clean runs: the end-of-session log holds only the post-checkpoint
    // suffix — identical for a 12- and a 24-round session.
    let short = fleet(12, 4, None);
    let long = fleet(24, 4, None);
    for k in 0..2 {
        let (s, l) = (&short.recovery[k], &long.recovery[k]);
        assert_eq!(s.checkpoint_round, 8, "worker {k}: 12-round session");
        assert_eq!(l.checkpoint_round, 20, "worker {k}: 24-round session");
        assert!(s.checkpoint_bytes > 0, "worker {k}: no stored checkpoint");
        assert_eq!(
            (s.log_frames, s.log_bytes),
            (l.log_frames, l.log_bytes),
            "worker {k}: the replay log must not grow with session length"
        );
        // Exactly the rounds after the checkpoint: rounds 9–12's
        // barrier and model.
        assert_eq!(s.log_frames, 8, "worker {k}: log past round 8");
        // The worker really checkpointed over the wire: Checkpoint
        // frames crossed the socket toward the coordinator.
        assert!(
            short.net[k].rx_bytes_for(FrameKind::Checkpoint) > 0,
            "worker {k}: no Checkpoint frames were received"
        );
    }

    // The regression guard: without checkpoints the log IS the session.
    let short0 = fleet(12, 0, None);
    let long0 = fleet(24, 0, None);
    for k in 0..2 {
        assert!(
            long0.recovery[k].log_frames > short0.recovery[k].log_frames,
            "worker {k}: an uncheckpointed log must grow with the session"
        );
        assert!(
            short.recovery[k].log_frames < short0.recovery[k].log_frames,
            "worker {k}: checkpoint truncation must shrink the log"
        );
        assert_eq!(short0.recovery[k].checkpoint_round, 0);
        assert_eq!(short0.recovery[k].checkpoint_bytes, 0);
    }

    // The kill leg, pinned from real LinkStats counters: recovery
    // traffic for a kill near the end of the session is the same for a
    // 12- and a 24-round run — replayed bytes depend on the distance
    // to the last checkpoint, never on how long the session ran.
    // (Dense encoding keeps round frames fixed-size, so the replayed
    // barrier/update byte counts compare exactly.)
    let killed_short = fleet(12, 4, Some((1, 11)));
    let killed_long = fleet(24, 4, Some((1, 23)));
    for kind in [FrameKind::RoundBarrier, FrameKind::ModelUpdate] {
        let overhead_short =
            killed_short.net[1].tx_bytes_for(kind) - short.net[1].tx_bytes_for(kind);
        let overhead_long = killed_long.net[1].tx_bytes_for(kind) - long.net[1].tx_bytes_for(kind);
        assert!(overhead_short > 0, "{kind:?}: nothing was replayed");
        assert_eq!(
            overhead_short, overhead_long,
            "{kind:?}: replayed bytes must be bounded by the checkpoint \
             interval, independent of session length"
        );
    }
    // And the respawn re-shipped a stored checkpoint blob.
    assert!(
        killed_short.net[1].tx_bytes_for(FrameKind::Checkpoint) > 0,
        "recovery never sent the stored checkpoint"
    );
    assert_eq!(short.net[1].tx_bytes_for(FrameKind::Checkpoint), 0);
}

/// A stored checkpoint is the worker's draw stream and sampler, not its
/// model replica: on a 2^16-feature set, a respawned slot's blob stays
/// under the 8·dim bytes one replica alone would take, and the run
/// still ends on the undisturbed model.
#[test]
fn a_stored_checkpoint_is_smaller_than_one_replica() {
    let dim = 1 << 16;
    let ds = {
        let mut b = DatasetBuilder::new(dim);
        for i in 0..120 {
            let (norm, y) = (if i % 10 == 0 { 6.0 } else { 0.3 }, [1.0, -1.0][i % 2]);
            let j = (i * 547 % dim) as u32;
            b.push_row(&[(j, y * norm), (j + 1, 0.5 * y * norm)], y)
                .unwrap();
        }
        b.finish()
    };
    let cfg = ClusterConfig {
        rounds: 6,
        ..adaptive_cfg(2)
    };
    let clean = run(&ds, &obj(), &cfg).unwrap();
    let pc = ProcessConfig {
        on_loss: WorkerLossPolicy::Respawn,
        checkpoint_every: 2,
        ..fleet_pc()
    };
    let killed = run_fleet_guarded(
        ds,
        cfg,
        pc,
        ThreadSpawner {
            die_at: Some((1, 5)),
        },
    )
    .unwrap();
    assert_eq!(killed.model, clean.model);
    let fp = &killed.recovery[1];
    assert_eq!((fp.respawns, fp.checkpoint_round), (1, 4));
    assert!(
        fp.checkpoint_bytes > 0 && fp.checkpoint_bytes < 8 * dim as u64,
        "stored checkpoint of {} B",
        fp.checkpoint_bytes
    );
}

/// A library caller who sets the cadence only on `ClusterConfig` (the
/// field every other transport reads) gets checkpoints from the fleet
/// too: workers are told that cadence and the supervisor stores blobs.
#[test]
fn cluster_config_checkpoint_cadence_reaches_the_fleet() {
    let cfg = ClusterConfig {
        rounds: 6,
        checkpoint_every: 2,
        ..adaptive_cfg(2)
    };
    let run = run_fleet_guarded(skewed(120), cfg, fleet_pc(), ThreadSpawner { die_at: None })
        .expect("fleet run");
    for (k, fp) in run.recovery.iter().enumerate() {
        assert_eq!(
            fp.checkpoint_round, 4,
            "worker {k}: newest stored checkpoint"
        );
    }
}

/// Two different cadences have no sensible reading; the fleet refuses
/// them before spawning anything instead of silently preferring one.
#[test]
fn disagreeing_checkpoint_cadences_are_rejected_up_front() {
    let cfg = ClusterConfig {
        checkpoint_every: 2,
        ..adaptive_cfg(2)
    };
    let pc = ProcessConfig {
        checkpoint_every: 4,
        ..fleet_pc()
    };
    match run_fleet_with(
        &skewed(120),
        &obj(),
        &cfg,
        &pc,
        ThreadSpawner { die_at: None },
    ) {
        Err(ClusterError::InvalidConfig(msg)) => {
            assert!(msg.contains("checkpoint_every"), "{msg}");
        }
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
    // Equal non-zero values are what the CLI sets and stay accepted.
    let pc = ProcessConfig {
        checkpoint_every: 2,
        ..fleet_pc()
    };
    run_fleet_guarded(skewed(120), cfg, pc, ThreadSpawner { die_at: None })
        .expect("agreeing cadences run");
}

/// The slot's bandwidth totals survive a respawn: traffic that crossed
/// the dead link is folded into the slot's running totals at the start
/// of recovery, so the final report shows the whole session — the
/// readmitted worker's shard re-stream doubles the slot's shard bytes
/// rather than replacing them.
#[test]
fn respawned_slot_totals_include_the_dead_links_traffic() {
    let ds = skewed(240);
    let cfg = adaptive_cfg(3);
    let pc = || ProcessConfig {
        on_loss: WorkerLossPolicy::Respawn,
        ..fleet_pc()
    };
    let clean = run_fleet_guarded(
        ds.clone(),
        cfg.clone(),
        pc(),
        ThreadSpawner { die_at: None },
    )
    .unwrap();
    let chaotic = run_fleet_guarded(
        ds.clone(),
        cfg,
        pc(),
        ThreadSpawner {
            die_at: Some((1, 2)),
        },
    )
    .unwrap();
    let shard = FrameKind::DatasetShard;
    assert_eq!(
        chaotic.net[1].tx_bytes_for(shard),
        2 * clean.net[1].tx_bytes_for(shard),
        "the victim's totals must count both the original shard stream \
         and the respawn's re-stream"
    );
    assert!(
        chaotic.net[1].tx_bytes_for(FrameKind::RoundBarrier)
            > clean.net[1].tx_bytes_for(FrameKind::RoundBarrier),
        "replayed round traffic is real traffic"
    );
    // Untouched slots are unaffected.
    assert_eq!(
        chaotic.net[0].tx_bytes_for(shard),
        clean.net[0].tx_bytes_for(shard)
    );
}

/// A continuous flood of framed junk connections must not starve the
/// handshake deadline: the accept loop checks its deadline on *every*
/// admission attempt, not only when the listener goes quiet, so a
/// hostile peer that always has another connection ready cannot hold
/// the slot open forever.
#[test]
fn junk_flood_cannot_starve_the_handshake_deadline() {
    // A handle that does NOT join on drop: the flooder spins until the
    // fleet's listener disappears, so joining it from teardown would
    // deadlock against the very starvation this test measures. The
    // thread exits on its own once its connects start failing.
    struct DetachedWorker;
    impl WorkerHandle for DetachedWorker {}
    struct FloodingSpawner;
    impl WorkerSpawner for FloodingSpawner {
        fn spawn(
            &mut self,
            _node: u32,
            addr: &str,
            _respawn: bool,
        ) -> Result<Box<dyn WorkerHandle>, ClusterError> {
            let addr = addr.to_string();
            std::thread::spawn(move || {
                // Back-to-back framed garbage: each connection decodes
                // far enough to be rejected, and the next is already
                // waiting — the accept loop never sees WouldBlock.
                while let Ok(mut s) = TcpStream::connect(&addr) {
                    let _ = s.write_all(&[5, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 0x01]);
                }
            });
            Ok(Box::new(DetachedWorker))
        }
    }
    let ds = skewed(60);
    let cfg = ClusterConfig {
        rounds: 1,
        ..adaptive_cfg(1)
    };
    let pc = ProcessConfig {
        handshake_timeout_ms: 700,
        ..fleet_pc()
    };
    let started = std::time::Instant::now();
    let (tx, rx) = channel();
    std::thread::spawn(move || {
        let _ = tx.send(run_fleet_with(&ds, &obj(), &cfg, &pc, FloodingSpawner));
    });
    let err = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("the junk flood starved the handshake deadline")
        .expect_err("a flooded worker slot must fail admission");
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "deadline fired far too late: {:?}",
        started.elapsed()
    );
    match err {
        ClusterError::WorkerLost { node, detail } => {
            assert_eq!(node, 0);
            assert!(
                detail.contains("handshake"),
                "error must name the handshake: {detail}"
            );
        }
        other => panic!("expected WorkerLost, got {other}"),
    }
}

#[test]
fn killed_worker_with_fail_policy_is_a_typed_error_not_a_hang() {
    let ds = skewed(240);
    let cfg = adaptive_cfg(3);
    let pc = ProcessConfig {
        on_loss: WorkerLossPolicy::Fail,
        ..fleet_pc()
    };
    let err = run_fleet_guarded(
        ds,
        cfg,
        pc,
        ThreadSpawner {
            die_at: Some((1, 2)),
        },
    )
    .expect_err("a killed worker under fail policy must abort the run");
    match err {
        ClusterError::WorkerLost { node, .. } => assert_eq!(node, 1, "wrong victim attributed"),
        other => panic!("expected WorkerLost, got {other}"),
    }
}

#[test]
fn respawn_budget_exhaustion_is_a_typed_error() {
    // A spawner whose replacements also die immediately: the fleet
    // burns its respawn budget and must surface WorkerLost instead of
    // spinning forever.
    struct AlwaysDying;
    impl WorkerSpawner for AlwaysDying {
        fn spawn(
            &mut self,
            _node: u32,
            addr: &str,
            _respawn: bool,
        ) -> Result<Box<dyn WorkerHandle>, ClusterError> {
            let addr = addr.to_string();
            let handle = std::thread::spawn(move || {
                let opts = WorkerOptions {
                    die_at_round: Some(1),
                    ..WorkerOptions::default()
                };
                let _ = run_worker(&addr, &opts);
            });
            Ok(Box::new(ThreadWorker(Some(handle))))
        }
    }
    let ds = skewed(120);
    let cfg = ClusterConfig {
        rounds: 2,
        ..adaptive_cfg(2)
    };
    let pc = ProcessConfig {
        on_loss: WorkerLossPolicy::Respawn,
        max_respawns: 2,
        ..fleet_pc()
    };
    let (tx, rx) = channel();
    std::thread::spawn(move || {
        let _ = tx.send(run_fleet_with(&ds, &obj(), &cfg, &pc, AlwaysDying));
    });
    let err = rx
        .recv_timeout(Duration::from_secs(120))
        .expect("fleet run hung")
        .expect_err("crash-looping workers must exhaust the budget");
    assert!(
        matches!(err, ClusterError::WorkerLost { .. }),
        "expected WorkerLost, got {err}"
    );
}

#[test]
fn junk_connections_do_not_disturb_admission() {
    // Each real worker spawn also fires a volley of hostile
    // connections at the same listener: raw garbage bytes, a
    // wrong-version Hello from the future and one from the previous
    // protocol version, and an instant disconnect. The accept loop
    // must shed all of them and still admit every real worker — and
    // the run must stay bit-equal to the undisturbed transports.
    struct HostileEnvironmentSpawner;
    impl WorkerSpawner for HostileEnvironmentSpawner {
        fn spawn(
            &mut self,
            _node: u32,
            addr: &str,
            _respawn: bool,
        ) -> Result<Box<dyn WorkerHandle>, ClusterError> {
            // Junk volley first, so the handshake loop has something to
            // reject before the real worker shows up.
            for junk in 0..4u8 {
                if let Ok(mut s) = TcpStream::connect(addr) {
                    match junk {
                        0 => {
                            // Framed garbage: valid length prefix,
                            // undecodable payload.
                            let _ = s.write_all(&[5, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 0x01]);
                        }
                        1 => {
                            // Wrong-version Hello (tag 5, version far
                            // in the future), correctly framed.
                            let version = (PROTOCOL_VERSION + 40).to_le_bytes();
                            let mut frame = vec![5u8, 0, 0, 0, 5];
                            frame.extend_from_slice(&version);
                            let _ = s.write_all(&frame);
                        }
                        2 => {
                            // A worker built before the protocol bump:
                            // a well-formed v4 Hello.
                            let _ = s.write_all(&[5, 0, 0, 0, 5, 4, 0, 0, 0]);
                        }
                        _ => {
                            // Instant disconnect (truncated handshake).
                        }
                    }
                }
            }
            let addr = addr.to_string();
            let handle = std::thread::spawn(move || {
                let _ = run_worker(&addr, &WorkerOptions::default());
            });
            Ok(Box::new(ThreadWorker(Some(handle))))
        }
    }
    let ds = skewed(240);
    let cfg = adaptive_cfg(2);
    let clean = run(&ds, &obj(), &cfg).unwrap();
    let (tx, rx) = channel();
    {
        let (ds, cfg) = (ds.clone(), cfg.clone());
        std::thread::spawn(move || {
            let _ = tx.send(run_fleet_with(
                &ds,
                &obj(),
                &cfg,
                &fleet_pc(),
                HostileEnvironmentSpawner,
            ));
        });
    }
    let hostile = rx
        .recv_timeout(Duration::from_secs(120))
        .expect("fleet run hung under junk connections")
        .expect("junk connections must not fail the run");
    assert_eq!(hostile.model, clean.model, "junk perturbed the run");
    assert_eq!(
        hostile.trace.points_without_clock(),
        clean.trace.points_without_clock()
    );
}

#[test]
fn junk_only_workers_time_out_with_a_typed_error() {
    // A spawner that never produces a valid worker — only a socket
    // speaking a Hello of another protocol version: the next one, and
    // version 7, whose checkpoints still carried the model replica. The
    // handshake deadline must fire with a typed error naming the last
    // rejection, not hang the accept loop.
    struct JunkOnlySpawner(u32);
    impl WorkerSpawner for JunkOnlySpawner {
        fn spawn(
            &mut self,
            _node: u32,
            addr: &str,
            _respawn: bool,
        ) -> Result<Box<dyn WorkerHandle>, ClusterError> {
            let addr = addr.to_string();
            let version = self.0.to_le_bytes();
            let handle = std::thread::spawn(move || {
                if let Ok(mut s) = TcpStream::connect(&addr) {
                    let mut frame = vec![5u8, 0, 0, 0, 5];
                    frame.extend_from_slice(&version);
                    let _ = s.write_all(&frame);
                    // Keep the socket open a moment so the rejection is
                    // a decoded wrong-version Hello, not a hangup race.
                    std::thread::sleep(Duration::from_millis(300));
                }
            });
            Ok(Box::new(ThreadWorker(Some(handle))))
        }
    }
    for version in [PROTOCOL_VERSION + 1, 7] {
        let ds = skewed(60);
        let cfg = ClusterConfig {
            rounds: 1,
            ..adaptive_cfg(1)
        };
        let pc = ProcessConfig {
            handshake_timeout_ms: 700,
            ..fleet_pc()
        };
        let spawner = JunkOnlySpawner(version);
        let (tx, rx) = channel();
        std::thread::spawn(move || {
            let _ = tx.send(run_fleet_with(&ds, &obj(), &cfg, &pc, spawner));
        });
        let err = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("handshake deadline never fired")
            .expect_err("a junk-only worker slot must fail admission");
        match err {
            ClusterError::WorkerLost { node, detail } => {
                assert_eq!(node, 0);
                assert!(
                    detail.contains("handshake"),
                    "error must name the handshake: {detail}"
                );
                let refusal =
                    format!("protocol version {version} (this build speaks {PROTOCOL_VERSION})");
                assert!(
                    detail.contains(&refusal),
                    "error must surface the typed wire rejection: {detail}"
                );
            }
            other => panic!("expected WorkerLost, got {other}"),
        }
    }
}

#[test]
fn out_of_range_chaos_kill_is_rejected_up_front() {
    // A chaos target that can never fire (node ≥ k, round 0, or round
    // past the schedule) would silently turn a supervision-validation
    // run into a false pass — reject it before spawning anything.
    let ds = skewed(120);
    let cfg = adaptive_cfg(3); // 3 nodes, 4 rounds
    for (victim, round) in [(3u32, 2u64), (7, 1), (1, 0), (1, 5)] {
        let pc = ProcessConfig {
            chaos_kill: Some((victim, round)),
            ..fleet_pc()
        };
        match run_fleet_with(&ds, &obj(), &cfg, &pc, ThreadSpawner { die_at: None }) {
            Err(ClusterError::InvalidConfig(msg)) => {
                assert!(msg.contains("chaos-kill"), "{victim}:{round}: {msg}");
            }
            other => panic!("{victim}:{round}: expected InvalidConfig, got {other:?}"),
        }
    }
}

#[test]
fn process_transport_config_round_trips_through_run() {
    // `run()` with TransportConfig::Process drives the fleet (here via
    // the default CommandSpawner pointed at a worker binary that does
    // not exist → a typed spawn error, proving the wiring without
    // depending on the CLI binary from this crate's tests).
    let ds = skewed(60);
    let cfg = ClusterConfig {
        transport: TransportConfig::Process(ProcessConfig {
            worker: Some("/nonexistent/isasgd-worker-binary".into()),
            handshake_timeout_ms: 500,
            ..ProcessConfig::default()
        }),
        ..adaptive_cfg(1)
    };
    match run(&ds, &obj(), &cfg) {
        Err(ClusterError::Worker(msg)) => {
            assert!(msg.contains("spawning worker"), "{msg}");
        }
        other => panic!("expected a spawn error, got {other:?}"),
    }
}

/// The telemetry pins, all on one chaos-kill fleet run:
///
/// 1. **Inertness** — arming telemetry on a respawn-recovered run
///    leaves the model and round trace bit-identical to an
///    undisturbed telemetry-off run.
/// 2. **Coverage** — every (node, round) cell ships at least one
///    [`Message::Telemetry`] frame to the coordinator; the victim's
///    replayed rounds show up as visible duplicates, never as holes.
/// 3. **Wire** — slot `k`'s link counters attest the frames slot `k`
///    sent.
#[test]
fn chaos_kill_telemetry_covers_every_round_and_stays_bit_inert() {
    let ds = skewed(240);
    let cfg = adaptive_cfg(3);
    let pc = || ProcessConfig {
        on_loss: WorkerLossPolicy::Respawn,
        ..fleet_pc()
    };
    let clean = run_fleet_guarded(
        ds.clone(),
        cfg.clone(),
        pc(),
        ThreadSpawner { die_at: None },
    )
    .unwrap();
    assert!(
        clean.telemetry.is_empty(),
        "telemetry off must mean zero samples collected"
    );
    let traced = run_fleet_guarded(
        ds.clone(),
        ClusterConfig {
            telemetry: true,
            ..cfg.clone()
        },
        pc(),
        ThreadSpawner {
            die_at: Some((1, 2)),
        },
    )
    .unwrap();

    // 1. Inertness across chaos: kill + replay + telemetry ≡ clean.
    assert_eq!(traced.model, clean.model, "telemetry perturbed the model");
    assert_eq!(
        traced.trace.points_without_clock(),
        clean.trace.points_without_clock(),
        "telemetry perturbed the trace"
    );

    // 2. Coverage: every (node, round) cell, duplicates allowed.
    for node in 0..cfg.nodes as u32 {
        for round in 1..=cfg.rounds as u64 {
            let n = traced
                .telemetry
                .iter()
                .filter(|s| s.node == node && s.round == round)
                .count();
            assert!(n >= 1, "no timing sample for node {node} round {round}");
        }
    }
    for s in &traced.telemetry {
        assert!(s.timing.rows > 0, "worker {} reported zero rows", s.node);
    }

    // 3. Wire: the per-slot counters attest the frames were real.
    for k in 0..cfg.nodes {
        assert!(
            traced.net[k].rx_bytes_for(FrameKind::Telemetry) > 0,
            "slot {k}: no Telemetry bytes on its own link"
        );
        assert_eq!(
            clean.net[k].rx_bytes_for(FrameKind::Telemetry),
            0,
            "slot {k}: telemetry-off run still carried Telemetry frames"
        );
    }
}

/// Worker timing has one intake, the coordinator's collect loop, so an
/// undisturbed run records it in one order on every transport: round
/// by round, link 0 first within a round.
#[test]
fn telemetry_arrives_in_one_order_on_every_transport() {
    let ds = skewed(240);
    let cfg = ClusterConfig {
        telemetry: true,
        ..adaptive_cfg(3)
    };
    let order = |r: &ClusterRun| -> Vec<(u64, u32)> {
        r.telemetry.iter().map(|s| (s.round, s.node)).collect()
    };
    let want: Vec<(u64, u32)> = (1..=cfg.rounds as u64)
        .flat_map(|r| (0..cfg.nodes as u32).map(move |k| (r, k)))
        .collect();
    for transport in [TransportConfig::InProcess, TransportConfig::tcp()] {
        let name = transport.name();
        let cfg = ClusterConfig {
            transport,
            ..cfg.clone()
        };
        assert_eq!(order(&run(&ds, &obj(), &cfg).unwrap()), want, "{name}");
    }
    let fleet = run_fleet_guarded(ds, cfg, fleet_pc(), ThreadSpawner { die_at: None }).unwrap();
    assert_eq!(order(&fleet), want, "fleet");
}
