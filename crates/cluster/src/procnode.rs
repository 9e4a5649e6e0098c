//! Worker side of the cross-process runtime: `isasgd worker --connect`.
//!
//! A worker process owns nothing at launch except the coordinator's
//! address. Everything else arrives over the session handshake:
//!
//! ```text
//! worker                          coordinator (fleet accept loop)
//!   ── Hello(version) ───────────▶  validate protocol version
//!   ◀──────── Assign(id, config)    node id + SessionConfig
//!   ◀──────── DatasetShard ×N       this node's shard, streamed in
//!                                   ~256 KiB chunks (reordered rows +
//!                                   per-row importance weights)
//!   …NodeRuntime round protocol (see crate::coordinator docs)…
//! ```
//!
//! After the handshake the worker rebuilds its objective from the
//! [`SessionConfig`] and hands both to the exact same `NodeRuntime`
//! the thread-backed transports run — which is why a
//! `--cluster-transport process` run is bit-equal to `tcp`, `inproc`,
//! and (single-node) the sequential engine: same draws, same float-op
//! order, only the process boundary differs. The decoded shard is the
//! exact bits the coordinator's own plan holds — so the equivalence
//! extends to workers that never saw the full dataset.
//!
//! The loss crosses the wire as its stable
//! [`Loss::name`](isasgd_losses::Loss::name) string; only
//! wire-known losses (`logistic`, `squared_hinge`, `squared`) can run
//! cross-process, and an unknown name is a typed error, not a panic.

// The whole worker session handles coordinator-sent frames: decode
// scope from the first line to the last (README, *Static guarantees*).
#![deny(clippy::indexing_slicing, clippy::cast_possible_truncation)]

use crate::coordinator::{NodeRuntime, ShardInput};
use crate::node::{check_session, ClusterError};
use crate::transport::{Tcp, Transport, TransportError};
use crate::wire::{Message, SessionConfig, PROTOCOL_VERSION};
use isasgd_losses::{with_loss, Objective};
use isasgd_sparse::{Dataset, DatasetBuilder};
use std::net::TcpStream;
use std::time::Duration;

/// Options of one worker session (the `isasgd worker` CLI flags).
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Chaos hook: abort abruptly at this round (test/chaos flag
    /// `--die-at-round`; the coordinator observes a dead worker).
    pub die_at_round: Option<u64>,
    /// Socket read deadline while awaiting coordinator traffic.
    pub read_timeout: Duration,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        WorkerOptions {
            die_at_round: None,
            read_timeout: Duration::from_secs(120),
        }
    }
}

/// What a completed worker session reports (logging/tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerReport {
    /// The node id the coordinator assigned.
    pub node: u32,
    /// Rounds the session was configured to run.
    pub rounds: u64,
}

/// Connects to a coordinator, performs the `Hello`/`Assign` handshake,
/// and serves the full worker side of the round protocol. Blocks until
/// the run completes (or fails) and reports the assigned node id.
pub fn run_worker(connect: &str, opts: &WorkerOptions) -> Result<WorkerReport, ClusterError> {
    let stream = TcpStream::connect(connect)
        .map_err(|e| ClusterError::Worker(format!("connect {connect}: {e}")))?;
    let mut link = Tcp::with_read_timeout(stream, opts.read_timeout).map_err(TransportError::Io)?;
    link.send(&Message::Hello {
        version: PROTOCOL_VERSION,
    })?;
    #[expect(
        clippy::disallowed_methods,
        reason = "the link was armed with opts.read_timeout at connect, three lines up"
    )]
    let (worker, config) = match link.recv()? {
        Message::Assign { worker, config } => (worker, config),
        other => {
            return Err(ClusterError::Worker(format!(
                "handshake: expected Assign, got {}",
                other.kind()
            )))
        }
    };
    // Arm the session's wire encoding before any round traffic: the
    // remaining handshake frames are always dense, and both ends start
    // with empty delta bases, so encoder and decoder stay in lockstep.
    link.set_encoding(config.encoding);
    let (rows, weights, start) = receive_shard(&mut link, worker)?;
    let shard = ShardInput {
        rows: &rows,
        row_base: start,
        weights: &weights,
        range: start..start + rows.n_samples(),
    };
    // Re-arm the read deadline from the coordinator's configured round
    // deadline, scaled by the node count: between its own rounds a
    // worker legitimately waits through every peer's local epochs plus
    // the coordinator's sequential collection and consensus eval, so a
    // fixed constant would spuriously kill healthy workers on slow
    // rounds the coordinator itself still considers live.
    let per_round = if config.round_timeout_ms == 0 {
        u64::try_from(opts.read_timeout.as_millis()).unwrap_or(u64::MAX)
    } else {
        config.round_timeout_ms
    };
    let deadline = per_round.saturating_mul(u64::from(config.nodes).saturating_add(1));
    link.set_read_timeout(Duration::from_millis(deadline.max(1)))
        .map_err(TransportError::Io)?;
    serve(link, worker, config, shard, opts.die_at_round)
}

/// Receives the dataset phase of the handshake: a contiguous stream of
/// [`Message::DatasetShard`] chunks for this worker's shard, assembled
/// incrementally (each chunk's builder invariants were re-validated by
/// the wire decoder; this layer checks the chunks agree with each
/// other and tile the declared shard exactly). Returns the shard's
/// rows, their importance weights, and its first global row.
fn receive_shard(link: &mut Tcp, worker: u32) -> Result<(Dataset, Vec<f64>, usize), ClusterError> {
    let bad = |what: String| ClusterError::Worker(format!("handshake: {what}"));
    // The stream header `(shard_start, shard_rows, dim)`, taken from the
    // first chunk; every chunk, the first included, must repeat it.
    let mut head: Option<(u32, u32, usize)> = None;
    let mut builder = DatasetBuilder::new(0);
    let mut weights = Vec::new();
    loop {
        #[expect(
            clippy::disallowed_methods,
            reason = "the Tcp link still carries the handshake read deadline armed at connect"
        )]
        let msg = link.recv()?;
        let Message::DatasetShard {
            shard,
            shard_start,
            shard_rows,
            start,
            weights: w,
            chunk,
        } = msg
        else {
            return Err(bad(format!(
                "expected a DatasetShard chunk, got {}",
                msg.kind()
            )));
        };
        let (s0, n0, dim) = *head.get_or_insert_with(|| {
            builder = DatasetBuilder::new(chunk.dim());
            (shard_start, shard_rows, chunk.dim())
        });
        if shard != worker || shard_start != s0 || shard_rows != n0 {
            return Err(bad(format!(
                "shard chunk for node {shard} rows {shard_start}..{} disagrees with the \
                 stream's header: node {worker} rows {s0}..{}",
                u64::from(shard_start) + u64::from(shard_rows),
                u64::from(s0) + u64::from(n0)
            )));
        }
        if chunk.dim() != dim {
            return Err(bad(format!(
                "shard chunk dim {} != stream dim {dim}",
                chunk.dim()
            )));
        }
        if u64::from(start) != u64::from(s0) + weights.len() as u64 {
            return Err(bad(format!(
                "shard chunks must arrive contiguously, got row {start} after {} assembled \
                 rows from {s0}",
                weights.len()
            )));
        }
        append_chunk(&mut builder, &chunk);
        weights.extend_from_slice(&w);
        if weights.len() >= n0 as usize {
            return Ok((builder.finish(), weights, s0 as usize));
        }
    }
}

/// Re-appends a decoded chunk's rows to the shard builder. The wire
/// decoder already re-validated every row invariant, so the unchecked
/// push cannot smuggle a malformed row past the builder.
fn append_chunk(builder: &mut DatasetBuilder, chunk: &Dataset) {
    for row in chunk.rows() {
        builder.push_row_unchecked(row.indices, row.values, row.label);
    }
}

/// Runs the [`NodeRuntime`] for an already-handshaken link,
/// dispatching over the wire loss name.
fn serve(
    link: Tcp,
    worker: u32,
    sc: SessionConfig,
    shard: ShardInput<'_>,
    die_at_round: Option<u64>,
) -> Result<WorkerReport, ClusterError> {
    // The wire carries any value: a worker applies the coordinator's
    // session rules itself rather than trusting the peer.
    check_session(&sc)?;
    let runtime = NodeRuntime::new(link, worker as usize).with_chaos_kill(die_at_round);
    with_loss!(sc.loss.as_str(), |loss| {
        runtime.run_session(shard, &Objective::new(loss, sc.reg), &sc)
    })
    .ok_or_else(|| {
        ClusterError::InvalidConfig(format!(
            "loss '{}' is not wire-known (expected logistic, squared_hinge, or squared)",
            sc.loss
        ))
    })??;
    Ok(WorkerReport {
        node: worker,
        rounds: sc.rounds,
    })
}

/// The wire-known loss names [`run_worker`] can reconstruct — the
/// fleet validates a run's loss against this list *before* spawning
/// anything, so an unservable configuration fails fast on the
/// coordinator.
pub fn wire_known_loss(name: &str) -> bool {
    with_loss!(name, |_loss| ()).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::tcp_loopback_links;
    use crate::ClusterConfig;
    use isasgd_losses::{LogisticLoss, Regularizer};
    use isasgd_sampling::CommitPolicy;

    /// A coordinator that skipped the session rules cannot make a
    /// worker train on what they refuse: the assigned session is checked
    /// before the worker touches its link, in `validate`'s words.
    #[test]
    fn serve_refuses_an_assigned_session_outside_the_rules() {
        let mut b = DatasetBuilder::new(2);
        b.push_row(&[(0, 1.0)], 1.0).unwrap();
        let rows = b.finish();
        let session = |eta: f64| {
            ClusterConfig::default().session(&Objective::new(LogisticLoss, Regularizer::L1 { eta }))
        };
        let with = |f: fn(&mut SessionConfig)| {
            let mut sc = session(0.0);
            f(&mut sc);
            sc
        };
        let cases = [
            ("η = -1", session(-1.0), "η"),
            ("η = NaN", session(f64::NAN), "η"),
            ("η = ∞", session(f64::INFINITY), "η"),
            ("step NaN", with(|sc| sc.step_size = f64::NAN), "step size"),
            (
                "step ∞",
                with(|sc| sc.step_size = f64::INFINITY),
                "step size",
            ),
            ("step 0", with(|sc| sc.step_size = 0.0), "step size"),
            ("step -1", with(|sc| sc.step_size = -1.0), "step size"),
            (
                "0 rounds",
                with(|sc| sc.rounds = 0),
                "rounds and local_epochs",
            ),
            (
                "0 local epochs",
                with(|sc| sc.local_epochs = 0),
                "rounds and local_epochs",
            ),
            ("0 nodes", with(|sc| sc.nodes = 0), "nodes"),
            (
                "every-k on static sampling",
                with(|sc| sc.commit = CommitPolicy::EveryK(7)),
                "needs adaptive sampling",
            ),
        ];
        for (what, sc, words) in cases {
            // A hung-up coordinator: a worker that got past the check
            // fails on the link instead of waiting for rounds.
            let (coord, link) = tcp_loopback_links(1, "127.0.0.1:0").unwrap().remove(0);
            drop(coord);
            let shard = ShardInput {
                rows: &rows,
                row_base: 0,
                weights: &[1.0],
                range: 0..1,
            };
            match serve(link, 0, sc, shard, None) {
                Err(ClusterError::InvalidConfig(msg)) => {
                    assert!(msg.contains(words), "{what}: {msg}");
                }
                other => panic!("{what}: expected InvalidConfig, got {other:?}"),
            }
        }
    }

    /// One `DatasetShard` chunk of `rows` one-feature rows in `dim`
    /// features: shard `shard`, rows `shard_start..shard_start +
    /// shard_rows`, this chunk from row `start`.
    fn chunk(
        shard: u32,
        shard_start: u32,
        shard_rows: u32,
        start: u32,
        rows: u32,
        dim: usize,
    ) -> Message {
        let mut b = DatasetBuilder::new(dim);
        for _ in 0..rows {
            b.push_row(&[(0, 1.0)], 1.0).unwrap();
        }
        Message::DatasetShard {
            shard,
            shard_start,
            shard_rows,
            start,
            weights: vec![1.0; rows as usize],
            chunk: Box::new(b.finish()),
        }
    }

    /// Sends `frames` down a loopback socket and hangs up, then lets
    /// worker 1 take its shard from the other end.
    fn receive(frames: &[Message]) -> Result<(Dataset, Vec<f64>, usize), ClusterError> {
        let (mut coord, mut link) = tcp_loopback_links(1, "127.0.0.1:0").unwrap().remove(0);
        for f in frames {
            coord.send(f).unwrap();
        }
        drop(coord);
        receive_shard(&mut link, 1)
    }

    #[test]
    fn receive_shard_assembles_a_contiguous_stream() {
        let (rows, weights, start) =
            receive(&[chunk(1, 4, 4, 4, 2, 2), chunk(1, 4, 4, 6, 2, 2)]).unwrap();
        assert_eq!(
            (rows.n_samples(), rows.dim(), weights.len(), start),
            (4, 2, 4, 4)
        );
    }

    /// Every stream the shard intake refuses is a typed worker error —
    /// never a short shard, and never a wait for frames the hung-up
    /// coordinator will not send (that would surface as `Transport`).
    #[test]
    fn receive_shard_refuses_every_malformed_stream() {
        let barrier = Message::RoundBarrier { node: 1, round: 0 };
        let cases: [(&str, Vec<Message>); 9] = [
            ("a chunk for another node", vec![chunk(0, 4, 4, 4, 4, 2)]),
            (
                "a later chunk for another node",
                vec![chunk(1, 4, 4, 4, 2, 2), chunk(0, 4, 4, 6, 2, 2)],
            ),
            (
                "a first chunk past the shard start",
                vec![chunk(1, 4, 4, 5, 1, 2)],
            ),
            (
                "a shard start that changes mid-stream",
                vec![chunk(1, 4, 4, 4, 2, 2), chunk(1, 5, 3, 6, 2, 2)],
            ),
            (
                "a shard length that changes mid-stream",
                vec![chunk(1, 4, 4, 4, 2, 2), chunk(1, 4, 5, 6, 2, 2)],
            ),
            (
                "a dim that changes mid-stream",
                vec![chunk(1, 4, 4, 4, 2, 2), chunk(1, 4, 4, 6, 2, 3)],
            ),
            (
                "a gap between chunks",
                vec![chunk(1, 4, 4, 4, 1, 2), chunk(1, 4, 4, 6, 2, 2)],
            ),
            ("a first frame that is not a chunk", vec![barrier.clone()]),
            (
                "a later frame that is not a chunk",
                vec![chunk(1, 4, 4, 4, 2, 2), barrier],
            ),
        ];
        for (what, frames) in cases {
            match receive(&frames) {
                Err(ClusterError::Worker(msg)) => {
                    assert!(msg.starts_with("handshake: "), "{what}: {msg}");
                }
                other => panic!("{what}: expected a worker error, got {other:?}"),
            }
        }
    }
}
