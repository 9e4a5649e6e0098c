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
//! The loss crosses the wire as its stable [`Loss::name`] string; only
//! wire-known losses (`logistic`, `squared_hinge`, `squared`) can run
//! cross-process, and an unknown name is a typed error, not a panic.

// The whole worker session handles coordinator-sent frames: decode
// scope from the first line to the last (README, *Static guarantees*).
#![deny(clippy::indexing_slicing, clippy::cast_possible_truncation)]

use crate::coordinator::{NodeRuntime, ShardInput};
use crate::node::ClusterError;
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
    let bad = |what: &str, got: String| ClusterError::Worker(format!("handshake: {what}{got}"));
    #[expect(
        clippy::disallowed_methods,
        reason = "the Tcp link still carries the handshake read deadline armed at connect"
    )]
    let (shard_start, shard_rows, dim, mut builder, mut weights) = match link.recv()? {
        Message::DatasetShard {
            shard,
            shard_start,
            shard_rows,
            start,
            weights,
            chunk,
        } => {
            if shard != worker {
                return Err(bad(
                    "first shard chunk is for node ",
                    format!("{shard}, this worker is {worker}"),
                ));
            }
            if start != shard_start {
                return Err(bad(
                    "shard stream must begin at its first row, got row ",
                    format!("{start} of a shard starting at {shard_start}"),
                ));
            }
            let dim = chunk.dim();
            let mut builder = DatasetBuilder::new(dim);
            append_chunk(&mut builder, &chunk);
            (shard_start, shard_rows, dim, builder, weights)
        }
        other => return Err(bad("expected DatasetShard, got ", other.kind().to_string())),
    };
    while weights.len() < shard_rows as usize {
        #[expect(
            clippy::disallowed_methods,
            reason = "same deadline-armed Tcp link as the first shard frame"
        )]
        match link.recv()? {
            Message::DatasetShard {
                shard,
                shard_start: s0,
                shard_rows: n0,
                start,
                weights: w,
                chunk,
            } => {
                if shard != worker || s0 != shard_start || n0 != shard_rows {
                    return Err(bad(
                        "shard chunk disagrees with the stream's header: ",
                        format!("shard {shard} rows {s0}..{}", u64::from(s0) + u64::from(n0)),
                    ));
                }
                if chunk.dim() != dim {
                    return Err(bad("shard chunk dim changed mid-stream", String::new()));
                }
                if u64::from(start) != u64::from(shard_start) + weights.len() as u64 {
                    return Err(bad(
                        "shard chunks must arrive contiguously, got row ",
                        format!(
                            "{start} after {} assembled rows from {shard_start}",
                            weights.len()
                        ),
                    ));
                }
                append_chunk(&mut builder, &chunk);
                weights.extend_from_slice(&w);
            }
            other => {
                return Err(bad(
                    "expected the next DatasetShard chunk, got ",
                    other.kind().to_string(),
                ))
            }
        }
    }
    Ok((builder.finish(), weights, shard_start as usize))
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
    // The wire carries any f64: a worker applies the coordinator's η
    // rule itself rather than trusting the peer.
    sc.reg.check().map_err(ClusterError::InvalidConfig)?;
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

    /// A coordinator that skipped the η rule cannot make a worker train
    /// on it: the assigned regularizer is checked before the session.
    #[test]
    fn serve_refuses_an_assigned_eta_outside_the_rule() {
        let mut b = DatasetBuilder::new(2);
        b.push_row(&[(0, 1.0)], 1.0).unwrap();
        let rows = b.finish();
        for eta in [-1.0, f64::NAN, f64::INFINITY] {
            let obj = Objective::new(LogisticLoss, Regularizer::L1 { eta });
            let sc = ClusterConfig::default().session(&obj);
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
                Err(ClusterError::InvalidConfig(msg)) => assert!(msg.contains("η"), "{msg}"),
                other => panic!("η = {eta}: expected InvalidConfig, got {other:?}"),
            }
        }
    }
}
