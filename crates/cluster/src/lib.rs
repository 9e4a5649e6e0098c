//! The distributed runtime: multi-node data-parallel IS-SGD behind a
//! pluggable [`Transport`].
//!
//! §2.3 of the paper frames importance imbalance in terms of processes
//! that "run on \[their\] corresponding core/node and typically work on
//! \[their\] local dataset". Within one machine the Hogwild solvers of
//! `isasgd-core` cover the *core* half of that sentence; this crate
//! covers the *node* half: `K` nodes each hold a contiguous shard, run
//! local sequential (IS-)SGD, and periodically synchronize by model
//! averaging (the classical local-SGD / parameter-averaging scheme ASGD
//! deployments use across machines, where a shared atomic model is
//! impossible). Because every node samples **only from its local
//! shard**, the sampling-distribution distortion of Fig. 2 applies
//! verbatim — this is the setting where Algorithm 3's importance
//! balancing is load-bearing.
//!
//! # Architecture
//!
//! The runtime is split along the real deployment boundary:
//!
//! * [`wire`] — a hand-rolled length-prefixed codec for the typed
//!   protocol messages ([`Message::ModelUpdate`],
//!   [`Message::FeedbackBatch`], [`Message::RoundBarrier`],
//!   [`Message::ShardRebalance`], plus the bandwidth-proportional
//!   frames: sparse [`Message::ModelDelta`] updates against a per-link
//!   base and the [`Message::DatasetShard`] admission stream, both on
//!   a canonical varint/gap-coded index codec). Decoding is total:
//!   garbage returns a typed [`WireError`], never a panic.
//! * [`transport`] — the [`Transport`] trait plus the two bundled
//!   wirings: [`InProcess`] (typed channels between threads, default)
//!   and [`Tcp`] (real loopback sockets — delta-aware under a
//!   [`WireEncoding`], with per-link [`LinkStats`] traffic counters),
//!   and the deterministic [`FlakyTransport`] fault injector used by
//!   the test suite.
//! * [`coordinator`] — the round driver, generic over [`Transport`]:
//!   the coordinator owns balancing, barriers, [`SyncStrategy`]
//!   averaging, and a feedback mirror fed by per-node importance
//!   observations (Alain et al.'s message shape; link `k` speaks for
//!   shard `k` only); each crate-private `NodeRuntime` is handed a
//!   `ShardInput` — rows, per-row weights, first global row — and
//!   turns it into the one thing a worker is: a `ScheduleStream` built by
//!   `ScheduleStream::for_shard`, the same constructor the
//!   `isasgd-core` engine uses, plus a model replica. Algorithm 4
//!   weighs, balances and shards once, on the coordinator
//!   (`isasgd_balance::rearrange`); no worker on any transport rebuilds
//!   the dataset, recomputes a weight, or holds a norm of a row it does
//!   not own.
//! * [`node`] — [`ClusterConfig`] / [`ClusterRun`] and the [`run`]
//!   entry point that wires links from
//!   [`ClusterConfig::transport`].
//!
//! Runs are bit-identical across transports and thread schedules for
//! the same seed and config; a single-node run is bit-equal to the
//! sequential `isasgd-core` engine. Both properties are pinned by
//! `tests/equivalence.rs`, and the protocol's tolerance of duplicated
//! and reordered messages by `tests/fault_injection.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Static guarantees (README): panic-freedom, determinism and liveness
// bind this crate's non-test code through the lints below and the
// lists in `clippy.toml`; decode-side items add `indexing_slicing` and
// `cast_possible_truncation`. The only escape hatch is
// `#[expect(clippy::…, reason = "…")]` on the statement.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        clippy::disallowed_types,
        clippy::float_cmp,
        clippy::print_stderr,
        clippy::allow_attributes,
        clippy::allow_attributes_without_reason
    )
)]
#![cfg_attr(
    test,
    allow(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        clippy::disallowed_types,
        reason = "the clippy.toml lists bind non-test code"
    )
)]

pub mod coordinator;
pub mod fleet;
pub mod node;
pub mod procnode;
pub mod sync;
pub mod transport;
pub mod wire;

pub use coordinator::{run_with_links, run_with_links_observed};
pub use fleet::{run_fleet_with, CommandSpawner, WorkerHandle, WorkerSpawner};
pub use node::{run, ClusterConfig, ClusterError, ClusterRun, ProtocolBugs};
pub use procnode::{run_worker, WorkerOptions, WorkerReport};
pub use sync::{average_models, SyncStrategy};
pub use transport::{
    in_process_links, tcp_loopback_links, FlakyTransport, InProcess, LinkStats, ProcessConfig,
    RecoveryFootprint, Tcp, TelemetrySample, Transport, TransportConfig, TransportError,
    WorkerLossPolicy,
};
pub use wire::{
    apply_delta, apply_model_frame, delta_coords, encode_dataset_shard_chunks, encode_model_frame,
    put_varint, CheckpointSampler, CheckpointState, FrameKind, Message, SessionConfig,
    WireEncoding, WireError, WorkerTiming, CHECKPOINT_VERSION, FRAME_KINDS, MAX_FRAME,
    PROTOCOL_VERSION, SHARD_CHUNK_BYTES,
};

/// Lint canary: fails `-D warnings` the day `clippy.toml` stops listing
/// the hash containers.
#[cfg(clippy)]
#[expect(clippy::disallowed_types, reason = "canary")]
const _: Option<std::collections::HashMap<u8, u8>> = None;
