//! Event-layer integration pin: the coordinator narrates a cluster
//! run through `isasgd_obs` — round lifecycle events plus one
//! `net_summary` per link, **in slot order** (the contract
//! `isasgd report`'s `[net]` section renders verbatim).
//!
//! This lives in its own test binary on purpose: the obs recorder is
//! a process-global, so sharing a binary with the fleet suites would
//! interleave their coordinators' events into our trace.

#![allow(
    clippy::disallowed_macros,
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "../clippy.toml binds the library's non-test code; tests assert, time and receive freely"
)]

use isasgd_cluster::{run, ClusterConfig, ClusterRun, SyncStrategy, TransportConfig, WireEncoding};
use isasgd_core::{
    BalancePolicy, CommitPolicy, ImportanceScheme, LogisticLoss, Objective, Regularizer,
    SamplingStrategy,
};
use isasgd_obs::{Event, LogLevel, ObsClock, Recorder};
use isasgd_sparse::{Dataset, DatasetBuilder};
use std::sync::{Arc, Mutex};

/// The recorder is one per process: the tests below take turns
/// installing it, or one test's events would land in another's trace.
static RECORDER: Mutex<()> = Mutex::new(());

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

/// Runs `cfg` on `data` under a fresh in-memory recorder; returns the
/// run and every event it emitted, in order.
fn traced(data: &Dataset, cfg: &ClusterConfig) -> (ClusterRun, Vec<Event>) {
    let _turn = RECORDER.lock().unwrap_or_else(|e| e.into_inner());
    let rec = Arc::new(Recorder::new(LogLevel::Off, ObsClock::logical()).trace_to_memory());
    isasgd_obs::install(rec.clone());
    let res = run(data, &Objective::new(LogisticLoss, Regularizer::None), cfg);
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
