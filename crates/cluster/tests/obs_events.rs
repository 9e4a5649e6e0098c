//! Event-layer integration pin: the coordinator narrates a cluster
//! run through `isasgd_obs` — round lifecycle events plus one
//! `net_summary` per link, **in slot order** (the contract
//! `isasgd report`'s `[net]` section renders verbatim).
//!
//! This lives in its own test binary on purpose: the obs recorder is
//! a process-global, so sharing a binary with the fleet suites would
//! interleave their coordinators' events into our trace. The one fleet
//! run here takes its turn at the recorder like every other test.

#![allow(
    clippy::disallowed_macros,
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "../clippy.toml binds the library's non-test code; tests assert, time and receive freely"
)]

mod fixtures;

use fixtures::skewed;
use isasgd_cluster::{
    run, run_fleet_with, run_worker, ClusterConfig, ClusterError, ClusterRun, FrameKind,
    ProcessConfig, SyncStrategy, TransportConfig, WireEncoding, WorkerHandle, WorkerLossPolicy,
    WorkerOptions, WorkerSpawner,
};
use isasgd_core::{
    BalancePolicy, CommitPolicy, ImportanceScheme, LogisticLoss, Objective, Regularizer,
    SamplingStrategy,
};
use isasgd_obs::{Event, LogLevel, ObsClock, Recorder};
use isasgd_sparse::Dataset;
use std::sync::{Arc, Mutex};

/// The recorder is one per process: the tests below take turns
/// installing it, or one test's events would land in another's trace.
static RECORDER: Mutex<()> = Mutex::new(());

/// Runs `cfg` on `data` under a fresh in-memory recorder; returns the
/// run and every event it emitted, in order.
fn traced(data: &Dataset, cfg: &ClusterConfig) -> (ClusterRun, Vec<Event>) {
    traced_with(|| run(data, &Objective::new(LogisticLoss, Regularizer::None), cfg))
}

/// [`traced`] of any run entry point.
fn traced_with(run: impl FnOnce() -> Result<ClusterRun, ClusterError>) -> (ClusterRun, Vec<Event>) {
    let _turn = RECORDER.lock().unwrap_or_else(|e| e.into_inner());
    let rec = Arc::new(Recorder::new(LogLevel::Off, ObsClock::logical()).trace_to_memory());
    isasgd_obs::install(rec.clone());
    let res = run();
    isasgd_obs::uninstall();
    let events = rec
        .take_trace_lines()
        .iter()
        .map(|l| match Event::parse_jsonl(l) {
            Ok((_, Some(event))) => event,
            other => panic!("bad trace line {l:?}: {other:?}"),
        })
        .collect();
    (res.unwrap(), events)
}

#[test]
fn coordinator_emits_round_events_and_net_summaries_in_slot_order() {
    let nodes = 3;
    let rounds = 4;
    let cfg = ClusterConfig {
        nodes,
        rounds,
        local_epochs: 1,
        step_size: 0.3,
        importance: ImportanceScheme::LipschitzSmoothness,
        balance: BalancePolicy::default(),
        sync: SyncStrategy::WeightedByShard,
        sampling: SamplingStrategy::Adaptive,
        commit: CommitPolicy::EveryK(16),
        transport: TransportConfig::Tcp {
            bind: "127.0.0.1:0".into(),
            encoding: WireEncoding::Auto,
        },
        seed: 0x0B5E_55ED,
        telemetry: true,
        ..ClusterConfig::default()
    };
    let (out, events) = traced(&skewed(240), &cfg);

    // Round lifecycle: one start and one end per round, in order.
    let want: Vec<u64> = (1..=rounds as u64).collect();
    let starts = events.iter().filter_map(|e| match e {
        Event::RoundStart { round, .. } => Some(*round),
        _ => None,
    });
    assert_eq!(starts.collect::<Vec<_>>(), want, "round_start events");
    let ends = events.iter().filter_map(|e| match e {
        Event::RoundEnd { round, .. } => Some(*round),
        _ => None,
    });
    assert_eq!(ends.collect::<Vec<_>>(), want, "round_end events");

    // net_summary: exactly one per link, node ids 0..n in emission
    // order (the slot-order contract), counters matching the run's
    // own LinkStats vector index-for-index.
    let net: Vec<(u64, u64, u64)> = events
        .iter()
        .filter_map(|e| match e {
            Event::NetSummary {
                node,
                tx_bytes,
                rx_bytes,
                ..
            } => Some((*node, *tx_bytes, *rx_bytes)),
            _ => None,
        })
        .collect();
    assert_eq!(out.net.len(), nodes);
    let want: Vec<(u64, u64, u64)> = (out.net.iter().enumerate())
        .map(|(k, link)| (k as u64, link.tx_total_bytes(), link.rx_total_bytes()))
        .collect();
    assert_eq!(net, want, "one net_summary per link, in slot order");
}

/// Worker timing reaches the run on plain links too: the inproc and tcp
/// collect loops turn every `Telemetry` frame into a `worker_timing`
/// event and a `ClusterRun::telemetry` sample — one per node and round.
#[test]
fn plain_transports_keep_the_worker_timing_they_ship() {
    let (nodes, rounds) = (2, 3);
    for transport in [TransportConfig::InProcess, TransportConfig::tcp()] {
        let name = transport.name();
        let cfg = ClusterConfig {
            nodes,
            rounds,
            sampling: SamplingStrategy::Adaptive,
            transport,
            telemetry: true,
            ..ClusterConfig::default()
        };
        let (out, events) = traced(&skewed(120), &cfg);
        // The collect loop drains link 0, then link 1, every round.
        let want: Vec<(u64, u64)> = (1..=rounds as u64)
            .flat_map(|r| (0..nodes as u64).map(move |k| (r, k)))
            .collect();
        let timed: Vec<(u64, u64)> = events
            .iter()
            .filter_map(|e| match e {
                Event::WorkerTiming { node, round, .. } => Some((*round, *node)),
                _ => None,
            })
            .collect();
        assert_eq!(timed, want, "{name}: one worker_timing per node and round");
        let samples: Vec<(u64, u64)> = (out.telemetry.iter())
            .map(|s| (s.round, u64::from(s.node)))
            .collect();
        assert_eq!(samples, want, "{name}: ClusterRun::telemetry");
        assert!(
            out.telemetry.iter().all(|s| s.timing.rows > 0),
            "{name}: every sample carries its round's draws"
        );
    }
}

/// A fleet "process" that is a thread running the real worker session
/// over a real socket; joined on drop, after the fleet closed it.
struct ThreadWorker(Option<std::thread::JoinHandle<()>>);

impl WorkerHandle for ThreadWorker {}

impl Drop for ThreadWorker {
    fn drop(&mut self) {
        if let Some(h) = self.0.take() {
            let _ = h.join();
        }
    }
}

/// Spawns [`ThreadWorker`]s; `.0` arms a chaos kill `(node, round)` on
/// that node's first spawn, as the production spawner does.
struct ThreadSpawner(Option<(u32, u64)>);

impl WorkerSpawner for ThreadSpawner {
    fn spawn(
        &mut self,
        node: u32,
        addr: &str,
        respawn: bool,
    ) -> Result<Box<dyn WorkerHandle>, ClusterError> {
        let opts = WorkerOptions {
            die_at_round: self
                .0
                .filter(|&(victim, _)| victim == node && !respawn)
                .map(|(_, r)| r),
            ..WorkerOptions::default()
        };
        let addr = addr.to_string();
        // A chaos-killed worker fails by design; any other failure
        // reaches the coordinator.
        let handle = std::thread::spawn(move || drop(run_worker(&addr, &opts)));
        Ok(Box::new(ThreadWorker(Some(handle))))
    }
}

/// A respawn's `replay_bytes` is what its replay wrote to the
/// replacement's socket, length prefixes included — under `delta` the
/// logged models go out as delta frames, not the 8·d bytes each one
/// holds in the log. The count is checked against the slot's own
/// traffic counters: a killed slot sends what an undisturbed one does,
/// plus a second admission, plus the replay.
#[test]
fn a_respawn_reports_the_bytes_its_replay_wrote() {
    let data = skewed(240);
    let obj = Objective::new(LogisticLoss, Regularizer::None);
    let cfg = ClusterConfig {
        nodes: 3,
        rounds: 4,
        local_epochs: 1,
        step_size: 0.3,
        importance: ImportanceScheme::LipschitzSmoothness,
        sampling: SamplingStrategy::Adaptive,
        commit: CommitPolicy::EveryK(16),
        seed: 0x0B5E_55ED,
        ..ClusterConfig::default()
    };
    let pc = ProcessConfig {
        on_loss: WorkerLossPolicy::Respawn,
        encoding: WireEncoding::Delta,
        handshake_timeout_ms: 30_000,
        round_timeout_ms: 60_000,
        ..ProcessConfig::default()
    };
    let (clean, _) = traced_with(|| run_fleet_with(&data, &obj, &cfg, &pc, ThreadSpawner(None)));
    let (chaotic, events) =
        traced_with(|| run_fleet_with(&data, &obj, &cfg, &pc, ThreadSpawner(Some((1, 3)))));
    assert_eq!(chaotic.model, clean.model, "the replayed run diverged");
    let respawns: Vec<(u64, u64, u64)> = events
        .iter()
        .filter_map(|e| match e {
            Event::Respawn {
                node,
                replay_frames,
                replay_bytes,
                ..
            } => Some((*node, *replay_frames, *replay_bytes)),
            _ => None,
        })
        .collect();
    let (victim, clean_tx) = (&chaotic.net[1], &clean.net[1]);
    let admission: u64 = [FrameKind::Assign, FrameKind::DatasetShard]
        .iter()
        .map(|&kind| clean_tx.tx_bytes_for(kind))
        .sum();
    let replayed = victim.tx_total_bytes() - clean_tx.tx_total_bytes() - admission;
    assert!(
        victim.tx_bytes_for(FrameKind::ModelDelta) > clean_tx.tx_bytes_for(FrameKind::ModelDelta)
    );
    // The log: rounds 1–3's barrier and model.
    assert_eq!(respawns, vec![(1, 6, replayed)]);
}
