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

use isasgd_cluster::{run, ClusterConfig, SyncStrategy, TransportConfig, WireEncoding};
use isasgd_core::{
    BalancePolicy, CommitPolicy, ImportanceScheme, LogisticLoss, Objective, Regularizer,
    SamplingStrategy,
};
use isasgd_obs::{Event, LogLevel, ObsClock, Recorder};
use isasgd_sparse::{Dataset, DatasetBuilder};
use std::sync::Arc;

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
    let rec = Arc::new(Recorder::new(LogLevel::Off, ObsClock::logical()).trace_to_memory());
    isasgd_obs::install(rec.clone());
    let res = run(
        &skewed(240),
        &Objective::new(LogisticLoss, Regularizer::None),
        &cfg,
    );
    isasgd_obs::uninstall();
    let out = res.unwrap();

    let events: Vec<Event> = rec
        .take_trace_lines()
        .iter()
        .map(|l| match Event::parse_jsonl(l) {
            Ok((_, Some(event))) => event,
            other => panic!("bad trace line {l:?}: {other:?}"),
        })
        .collect();

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
