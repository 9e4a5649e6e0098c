//! The supervisor behind `--cluster-transport process`: spawn, admit,
//! drive, and (optionally) resurrect a fleet of `isasgd worker` OS
//! processes.
//!
//! # Shape
//!
//! [`run_fleet_with`] binds a real [`TcpListener`], then for each node slot:
//! spawns a worker via the [`WorkerSpawner`] (subprocesses in
//! production, test harnesses install thread-backed spawners), and
//! admits exactly one connection through the session handshake — a
//! [`Message::Hello`] whose [`PROTOCOL_VERSION`] matches, answered with
//! [`Message::Assign`] followed by the node's [`Message::DatasetShard`]
//! chunk stream: each worker receives only the rows of the shard it
//! owns (already reordered, with per-row importance weights riding
//! along), so admission bandwidth is proportional to the shard, not
//! the dataset. The chunks are encoded from the run plan's rows as they
//! are sent, one at a time through one buffer — the supervisor holds no
//! shard bytes between admissions, and a respawn re-encodes the same
//! bytes the first admission sent. Connections that
//! speak garbage, truncate, or announce the wrong version are dropped
//! with a typed [`WireError`] recorded and the accept loop keeps
//! going until its deadline — junk can never hang or kill admission.
//!
//! The admitted links are wrapped in [`SupervisedLink`]s and handed to
//! the ordinary [`coordinate`](crate::coordinator) round driver — the
//! protocol above the session layer is byte-identical to the `tcp`
//! transport, which is what keeps process runs bit-equal to every
//! other execution mode.
//!
//! # Supervision
//!
//! A [`SupervisedLink`] records every outbound message; a round's
//! consensus model is logged once for the whole fleet, in storage every
//! link that sent the same bits shares. When a worker is lost (socket
//! death, or silence past the per-round deadline):
//!
//! * [`WorkerLossPolicy::Fail`] — the run aborts with a typed
//!   [`ClusterError::WorkerLost`]; closed sockets make detection
//!   immediate, the round deadline bounds the hung-worker case, so a
//!   loss can never hang the run.
//! * [`WorkerLossPolicy::Respawn`] — a replacement is spawned, taken
//!   through the same handshake, and the recorded session is replayed
//!   (`ShardRebalance`, then every round's barrier + consensus model).
//!   Workers are deterministic functions of that message stream, so
//!   the replacement recomputes the lost worker's state exactly; its
//!   stale re-sends are dropped by round tag and its duplicated
//!   feedback is absorbed by the mirror's per-row max — the run
//!   completes **bit-identically** to an undisturbed one (pinned by
//!   `tests/process_fleet.rs` and the CLI kill-a-worker e2e).
//!
//! With a checkpoint cadence ([`ProcessConfig::checkpoint_every`] or
//! [`ClusterConfig::checkpoint_every`] — whichever is set; two
//! different values are refused), replay is bounded instead of
//! whole-session: workers periodically ship a versioned, checksummed
//! [`Message::Checkpoint`] of their
//! cross-round state; the link stores the newest blob per slot,
//! acknowledges it, and truncates its log to the post-checkpoint
//! suffix (the initial `ShardRebalance` is always retained). Recovery
//! then replays checkpoint + suffix, so both log memory and respawn
//! cost are bounded by one checkpoint interval regardless of session
//! length — observable per slot via [`RecoveryFootprint`].

#![expect(
    clippy::expect_used,
    reason = "a poisoned fleet-state lock: a supervisor thread already panicked and the run is lost"
)]
#![expect(
    clippy::disallowed_methods,
    reason = "the designated timing module: wall-clock reads are its purpose (liveness deadlines), and `SupervisedLink` and the admission loop are the deadline machinery every other `recv` names"
)]

use crate::coordinator::{coordinate, plan_run};
use crate::node::{validate, ClusterConfig, ClusterError, ClusterRun};
use crate::procnode::wire_known_loss;
use crate::transport::{
    LinkStats, ProcessConfig, RecoveryFootprint, Tcp, Transport, TransportError, WorkerLossPolicy,
};
use crate::wire::{
    dataset_shard_chunk_lens, encode_dataset_shard_chunk, Message, SessionConfig, WireError,
    MAX_FRAME, PROTOCOL_VERSION,
};
use isasgd_balance::Rearranged;
use isasgd_losses::{Loss, Objective};
use isasgd_obs::{monotonic_us, Event};
use isasgd_sparse::Dataset;
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A handle to one spawned worker. Cleanup is Drop-driven: dropping
/// the handle must release the worker (reap the child process, join
/// the thread, …), never block indefinitely, and tolerate a worker
/// that already exited.
pub trait WorkerHandle: Send {}

/// Launches workers for the fleet. `respawn` distinguishes the initial
/// population from replacements (chaos hooks only arm on first spawn).
pub trait WorkerSpawner: Send {
    /// Starts one worker that will connect to `addr` and perform the
    /// session handshake.
    fn spawn(
        &mut self,
        node: u32,
        addr: &str,
        respawn: bool,
    ) -> Result<Box<dyn WorkerHandle>, ClusterError>;
}

/// The production spawner: `<program> worker --connect <addr>`
/// subprocesses (the `isasgd` CLI passes its own executable).
pub struct CommandSpawner {
    program: PathBuf,
    /// `(node, round)` chaos hook forwarded as `--die-at-round` to the
    /// matching node's *initial* spawn.
    chaos_kill: Option<(u32, u64)>,
}

impl CommandSpawner {
    /// Spawner running `program` as the worker binary.
    pub fn new(program: PathBuf, chaos_kill: Option<(u32, u64)>) -> Self {
        CommandSpawner {
            program,
            chaos_kill,
        }
    }
}

/// Reaps the child on drop: a short grace for voluntary exit, then
/// kill — so neither a finished nor a wedged worker can leak.
struct ChildHandle(Child);

impl WorkerHandle for ChildHandle {}

impl Drop for ChildHandle {
    fn drop(&mut self) {
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            match self.0.try_wait() {
                Ok(Some(_)) => return,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                _ => {
                    let _ = self.0.kill();
                    let _ = self.0.wait();
                    return;
                }
            }
        }
    }
}

impl WorkerSpawner for CommandSpawner {
    fn spawn(
        &mut self,
        node: u32,
        addr: &str,
        respawn: bool,
    ) -> Result<Box<dyn WorkerHandle>, ClusterError> {
        let mut cmd = Command::new(&self.program);
        cmd.arg("worker")
            .arg("--connect")
            .arg(addr)
            .stdin(Stdio::null())
            .stdout(Stdio::null());
        if let Some((victim, round)) = self.chaos_kill {
            if victim == node && !respawn {
                cmd.arg("--die-at-round").arg(round.to_string());
            }
        }
        let child = cmd.spawn().map_err(|e| {
            ClusterError::Worker(format!(
                "spawning worker {node} ({}): {e}",
                self.program.display()
            ))
        })?;
        Ok(Box::new(ChildHandle(child)))
    }
}

/// State shared by every supervised link: the listener, the spawner,
/// what a (re)admitted worker must receive, and the round model the
/// links' replay logs share.
struct FleetShared<S: WorkerSpawner> {
    listener: TcpListener,
    addr: String,
    spawner: S,
    session: SessionConfig,
    /// The run plan, shared with the round driver: every admission —
    /// initial and respawn alike — encodes its node's
    /// [`Message::DatasetShard`] chunks from these rows and weights as
    /// it sends them. Encoding is deterministic, so recovery streams
    /// the bytes first admission did.
    plan: Arc<Rearranged>,
    /// The round model the last link logged, as its round and storage:
    /// the next link that logs the same round's bits shares it.
    last_model: Option<(u64, Arc<[f64]>)>,
    pc: ProcessConfig,
}

/// The storage a replay log keeps for round `round`'s model `model`:
/// `slot`'s when it holds the same round and bits, else a new copy that
/// takes the slot. Bits are compared, not values, so ±0.0 and distinct
/// NaN payloads are never merged — a replay must ship the very bits
/// the link sent.
fn shared_model(slot: &mut Option<(u64, Arc<[f64]>)>, round: u64, model: &[f64]) -> Arc<[f64]> {
    if let Some((r, m)) = slot {
        let same_bits = || {
            m.len() == model.len() && m.iter().zip(model).all(|(a, b)| a.to_bits() == b.to_bits())
        };
        if *r == round && same_bits() {
            return m.clone();
        }
    }
    let m: Arc<[f64]> = Arc::from(model);
    *slot = Some((round, m.clone()));
    m
}

/// One replay-log entry: a round model in storage shared across links,
/// or any other message as it was sent.
enum Logged {
    Model {
        node: u32,
        round: u64,
        model: Arc<[f64]>,
    },
    Message(Message),
}

impl Logged {
    fn round(&self) -> u64 {
        match self {
            Logged::Model { round, .. } => *round,
            Logged::Message(m) => m.round(),
        }
    }

    /// The entry's logical bytes: [`Message::resident_bytes`] of the
    /// message it stands for, so a shared model counts in full on every
    /// log that holds it.
    fn resident_bytes(&self) -> u64 {
        let bytes = match self {
            Logged::Model { model, .. } => std::mem::size_of::<Message>() + model.len() * 8,
            Logged::Message(m) => m.resident_bytes(),
        };
        bytes as u64
    }
}

impl<S: WorkerSpawner> FleetShared<S> {
    /// Admits one worker for node slot `node`: accepts connections
    /// until one completes a valid handshake, dropping (and recording)
    /// invalid ones. Returns the admitted link with the round deadline
    /// armed, or a typed error when the handshake deadline passes.
    fn accept_worker(&mut self, node: u32) -> Result<Tcp, ClusterError> {
        let deadline = Instant::now() + Duration::from_millis(self.pc.handshake_timeout_ms);
        self.listener
            .set_nonblocking(true)
            .map_err(|e| ClusterError::Worker(format!("listener: {e}")))?;
        let mut last_reject: Option<WireError> = None;
        loop {
            // Checked every iteration, not just when the listener runs
            // dry: a continuous stream of junk connections used to keep
            // the loop in the accept arm forever, so a flood of invalid
            // peers could starve admission past any deadline.
            if Instant::now() >= deadline {
                let why = last_reject
                    .map(|w| format!(" (last rejected handshake: {w})"))
                    .unwrap_or_default();
                return Err(ClusterError::WorkerLost {
                    node,
                    detail: format!(
                        "no valid worker handshake within {}ms{why}",
                        self.pc.handshake_timeout_ms
                    ),
                });
            }
            match self.listener.accept() {
                Ok((stream, peer)) => {
                    // Handshake under what's left of the deadline, so a
                    // connection that goes silent cannot stall the loop.
                    let left = deadline
                        .saturating_duration_since(Instant::now())
                        .max(Duration::from_millis(10));
                    let admitted = (|| -> Result<Tcp, TransportError> {
                        stream.set_nonblocking(false).map_err(TransportError::Io)?;
                        // The deadline bounds writes too: a peer that
                        // sends a valid Hello but never reads would
                        // otherwise stall the Assign/DatasetShard
                        // write_all once the socket buffers fill.
                        stream
                            .set_write_timeout(Some(left))
                            .map_err(TransportError::Io)?;
                        let mut link =
                            Tcp::with_read_timeout(stream, left).map_err(TransportError::Io)?;
                        match link.recv()? {
                            Message::Hello { version } if version == PROTOCOL_VERSION => {}
                            Message::Hello { version } => {
                                return Err(TransportError::Wire(WireError::Version {
                                    got: version,
                                    want: PROTOCOL_VERSION,
                                }))
                            }
                            _ => {
                                return Err(TransportError::Wire(WireError::Invalid {
                                    what: "expected Hello as the first frame",
                                }))
                            }
                        }
                        link.send(&Message::Assign {
                            worker: node,
                            config: self.session.clone(),
                        })?;
                        self.stream_shard(&mut link, node)?;
                        // Arm the session's wire encoding only now: the
                        // handshake frames above are always dense, and
                        // the fresh link's empty delta bases match the
                        // (re)admitted worker's — replay and live
                        // traffic alike start from a dense send.
                        link.set_encoding(self.pc.encoding);
                        // Admitted: relax both deadlines to the round
                        // liveness deadline.
                        let round = Duration::from_millis(self.pc.round_timeout_ms.max(1));
                        link.set_read_timeout(round).map_err(TransportError::Io)?;
                        link.set_write_timeout(round).map_err(TransportError::Io)?;
                        Ok(link)
                    })();
                    match admitted {
                        Ok(link) => return Ok(link),
                        // An invalid connection is dropped; the accept
                        // loop continues — junk peers (port scanners,
                        // stale workers, wrong builds) cannot take the
                        // fleet down or hang admission.
                        Err(e) => {
                            last_reject = Some(match e {
                                TransportError::Wire(w) => w,
                                other => WireError::Invalid {
                                    what: match other {
                                        TransportError::Closed => "connection closed mid-handshake",
                                        _ => "handshake i/o failure",
                                    },
                                },
                            });
                            let _ = peer; // connection drops here
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(ClusterError::Worker(format!("accept: {e}"))),
            }
        }
    }

    /// Streams node `node`'s shard to a worker being admitted: each
    /// [`Message::DatasetShard`] chunk is encoded from the plan's rows
    /// into one reused buffer and sent before the next is encoded.
    fn stream_shard(&self, link: &mut Tcp, node: u32) -> Result<(), TransportError> {
        let plan = &*self.plan;
        let range = &plan.ranges[node as usize];
        let (mut chunk, mut bytes, mut chunks, mut encode_us) = (Vec::new(), 0, 0, 0);
        let mut row = range.start;
        while row < range.end {
            let t0 = monotonic_us();
            chunk.clear();
            row =
                encode_dataset_shard_chunk(&mut chunk, node, range, row, &plan.data, &plan.weights);
            encode_us += monotonic_us() - t0;
            link.send_payload(&chunk)?;
            bytes += chunk.len() as u64;
            chunks += 1;
        }
        isasgd_obs::emit(&Event::ShardStream {
            node: u64::from(node),
            rows: range.len() as u64,
            bytes,
            chunks,
            encode_us,
        });
        Ok(())
    }
}

/// One supervised coordinator↔worker link: a [`Tcp`] endpoint plus the
/// outbound message log that makes deterministic respawn possible.
/// The log holds round models in storage shared with the other links,
/// every other message as sent.
pub struct SupervisedLink<S: WorkerSpawner> {
    shared: Arc<Mutex<FleetShared<S>>>,
    node: u32,
    // Declared before `handle` so the socket closes before the worker
    // is reaped — a blocked worker unblocks instead of being killed
    // mid-wait.
    tcp: Tcp,
    handle: Box<dyn WorkerHandle>,
    log: Vec<Logged>,
    respawns_left: u32,
    policy: WorkerLossPolicy,
    /// Traffic counters of connections this slot has already replaced:
    /// a respawn folds the dead link's counters here, so the slot's
    /// reported totals cover the whole session including replays.
    stats: LinkStats,
    /// The newest worker checkpoint absorbed on this slot, as the round
    /// it covers plus the re-encoded [`Message::Checkpoint`] payload —
    /// stored as wire bytes so respawn replay ships it verbatim without
    /// holding a decoded model/sampler copy per slot.
    ckpt: Option<(u64, Vec<u8>)>,
    /// Successful respawns on this slot (reported in the run's
    /// recovery footprint).
    respawns: u32,
}

impl<S: WorkerSpawner> SupervisedLink<S> {
    fn lost(&self, cause: &dyn std::fmt::Display) -> TransportError {
        TransportError::WorkerLost {
            node: self.node,
            detail: cause.to_string(),
        }
    }

    /// Worker-loss recovery: under `Respawn` (with budget left), spawn
    /// a replacement, re-admit it through the handshake, and replay the
    /// recorded session so it deterministically recomputes the lost
    /// state. Under `Fail` (or an exhausted budget) the loss surfaces
    /// as a typed [`TransportError::WorkerLost`].
    ///
    /// The replay writes the stored checkpoint (if any) and the logged
    /// suffix before reading anything; the replacement's own re-sends
    /// are drained later by the round driver (stale tags dropped).
    /// With checkpointing on, the replayed suffix — and so both the
    /// socket traffic and the log held in memory — is bounded by one
    /// checkpoint interval regardless of session length. If an
    /// unbounded (no-checkpoint) session fills both sockets' buffers
    /// mid-replay, the armed write deadline turns that into a typed
    /// `WorkerLost` instead of a deadlock.
    fn recover(&mut self, cause: TransportError) -> Result<(), TransportError> {
        // Fold the dead connection's counters into the slot totals
        // first, before any path can bail: traffic that crossed the
        // wire happened whether or not the respawn succeeds, and the
        // bandwidth report must not lose it.
        self.stats.merge(&self.tcp.take_stats());
        if matches!(cause, TransportError::WorkerLost { .. }) {
            return Err(cause);
        }
        if self.policy == WorkerLossPolicy::Fail {
            return Err(self.lost(&cause));
        }
        if self.respawns_left == 0 {
            return Err(self.lost(&format_args!("respawn budget exhausted after: {cause}")));
        }
        self.respawns_left -= 1;
        let t0 = monotonic_us();
        let mut shared = self.shared.lock().expect("fleet state poisoned");
        let addr = shared.addr.clone();
        let handle = shared
            .spawner
            .spawn(self.node, &addr, true)
            .map_err(|e| self.lost(&format_args!("respawn failed: {e}")))?;
        let handshake_t0 = monotonic_us();
        let mut tcp = shared
            .accept_worker(self.node)
            .map_err(|e| self.lost(&format_args!("respawn handshake failed: {e}")))?;
        drop(shared);
        isasgd_obs::emit(&Event::Handshake {
            node: u64::from(self.node),
            respawn: true,
            dur_us: monotonic_us() - handshake_t0,
        });
        // Deterministic replay: the stored checkpoint (shipped verbatim
        // as the bytes the worker sent, ahead of everything else so the
        // replacement stashes it pre-assignment) followed by the logged
        // suffix. The replacement installs the state and recomputes
        // only the rounds after it — bit-identical to a worker that
        // lived the whole session; its re-sent traffic for already-
        // finished rounds is dropped by round tag upstream.
        let handshake_tx = tcp.link_stats().tx_total_bytes();
        let replayed = (|| -> Result<(), TransportError> {
            if let Some((_, blob)) = &self.ckpt {
                tcp.send_payload(blob)?;
            }
            for entry in &self.log {
                match entry {
                    // Sent from the shared storage; no message is rebuilt.
                    Logged::Model { node, round, model } => tcp.send_model(*node, *round, model)?,
                    Logged::Message(m) => tcp.send(m)?,
                }
            }
            Ok(())
        })();
        if let Err(e) = replayed {
            // The partial replay's traffic is real too.
            self.stats.merge(tcp.link_stats());
            return Err(self.lost(&format_args!("replay failed: {e}")));
        }
        // What the replay wrote to the replacement's socket, length
        // prefixes included: its counters past the handshake.
        let replay_bytes = tcp.link_stats().tx_total_bytes() - handshake_tx;
        // Replace the dead endpoint; the old handle is dropped (and the
        // dead process reaped) with the assignment below. The live
        // link's counters were zeroed by take_stats above, so the
        // replacement's start from zero double-counts nothing.
        self.tcp = tcp;
        self.handle = handle;
        self.respawns += 1;
        isasgd_obs::emit(&Event::Respawn {
            node: u64::from(self.node),
            replay_frames: self.log.len() as u64 + u64::from(self.ckpt.is_some()),
            replay_bytes,
            replay_us: monotonic_us() - t0,
        });
        Ok(())
    }
}

impl<S: WorkerSpawner> Transport for SupervisedLink<S> {
    fn send(&mut self, msg: &Message) -> Result<(), TransportError> {
        if let Err(e) = self.tcp.send(msg) {
            self.recover(e)?;
            // A fresh, just-replayed link failing again is terminal.
            self.tcp.send(msg).map_err(|e| self.lost(&e))?;
        }
        self.log.push(match msg {
            Message::ModelUpdate { node, round, model } => {
                let mut shared = self.shared.lock().expect("fleet state poisoned");
                Logged::Model {
                    node: *node,
                    round: *round,
                    model: shared_model(&mut shared.last_model, *round, model),
                }
            }
            _ => Logged::Message(msg.clone()),
        });
        Ok(())
    }

    fn recv(&mut self) -> Result<Message, TransportError> {
        loop {
            match self.tcp.recv() {
                // Checkpoints are absorbed here, never surfaced to the
                // round driver: keep the newest blob, truncate the
                // replay log to the post-checkpoint suffix, and ack.
                // Duplicates and reordered (older) checkpoints are
                // ignored-but-acked, so absorption is idempotent.
                Ok(Message::Checkpoint { node, round, state }) => {
                    if node == self.node && self.ckpt.as_ref().is_none_or(|(r, _)| round > *r) {
                        // Re-encoding is deterministic, so the stored
                        // bytes are exactly what the worker sent.
                        let blob = Message::Checkpoint { node, round, state }.to_bytes();
                        isasgd_obs::emit(&Event::CheckpointStored {
                            node: u64::from(node),
                            round,
                            bytes: blob.len() as u64,
                        });
                        self.ckpt = Some((round, blob));
                        // A respawned worker still needs its shard
                        // assignment, so ShardRebalance survives every
                        // truncation; everything at or before the
                        // checkpointed round is recomputation the
                        // installed state already covers.
                        self.log.retain(|entry| {
                            matches!(entry, Logged::Message(Message::ShardRebalance { .. }))
                                || entry.round() > round
                        });
                    }
                    // The ack is control traffic: sent directly (not
                    // logged — a replayed worker re-emits checkpoints
                    // and gets fresh acks), and a dead link here rolls
                    // into the same recovery as any other send.
                    let ack = Message::CheckpointAck {
                        node: self.node,
                        round,
                    };
                    if let Err(e) = self.tcp.send(&ack) {
                        self.recover(e)?;
                    }
                }
                Ok(m) => return Ok(m),
                // After recovery the replacement re-emits everything the
                // lost worker owed; loop back into recv for it.
                Err(e) => self.recover(e)?,
            }
        }
    }

    fn stats(&self) -> Option<LinkStats> {
        // The slot's whole-session totals: every replaced connection's
        // counters plus the live one's.
        let mut stats = self.stats.clone();
        stats.merge(self.tcp.link_stats());
        Some(stats)
    }

    fn recovery(&self) -> Option<RecoveryFootprint> {
        Some(RecoveryFootprint {
            node: self.node,
            log_frames: self.log.len() as u64,
            log_bytes: self.log.iter().map(Logged::resident_bytes).sum(),
            checkpoint_round: self.ckpt.as_ref().map_or(0, |(r, _)| *r),
            checkpoint_bytes: self.ckpt.as_ref().map_or(0, |(_, b)| b.len() as u64),
            respawns: self.respawns,
        })
    }
}

/// Runs a cluster schedule over workers launched by `spawner` — real
/// OS processes in production ([`crate::run`] passes a
/// [`CommandSpawner`]); the spawner is also the test seam that lets
/// harnesses run protocol-faithful workers on threads (or inject
/// handshake abuse) without a separate binary. See the module docs for
/// the supervision contract.
pub fn run_fleet_with<L: Loss, S: WorkerSpawner>(
    ds: &Dataset,
    obj: &Objective<L>,
    cfg: &ClusterConfig,
    pc: &ProcessConfig,
    spawner: S,
) -> Result<ClusterRun, ClusterError> {
    validate(cfg, obj, ds)?;
    if !wire_known_loss(obj.loss.name()) {
        return Err(ClusterError::InvalidConfig(format!(
            "loss '{}' cannot cross the process boundary (wire-known: logistic, \
             squared_hinge, squared)",
            obj.loss.name()
        )));
    }
    // Library callers may set the cadence on either config; the CLI
    // sets both to the same value. Two different cadences have no
    // sensible reading, and silently preferring one loses checkpoints.
    let checkpoint_every = match (cfg.checkpoint_every, pc.checkpoint_every) {
        (c, 0) => c,
        (0, p) => p,
        (c, p) if c == p => c,
        (c, p) => {
            return Err(ClusterError::InvalidConfig(format!(
                "ClusterConfig::checkpoint_every = {c} disagrees with \
                 ProcessConfig::checkpoint_every = {p}; set one, or both to the same value"
            )))
        }
    };
    if let Some((victim, round)) = pc.chaos_kill {
        // An out-of-range chaos target would silently never fire —
        // turning a supervision-validation run into a false pass.
        if victim as usize >= cfg.nodes || round == 0 || round > cfg.rounds as u64 {
            return Err(ClusterError::InvalidConfig(format!(
                "--chaos-kill {victim}:{round} is out of range for {} nodes / {} rounds \
                 (nodes are 0-based, rounds are 1-based)",
                cfg.nodes, cfg.rounds
            )));
        }
    }
    // The run plan (weigh → decide → rearrange → shard) is computed
    // once, up front: the fleet streams each worker its shard of the
    // *same* reordered view the round driver evaluates against, so the
    // two can never disagree. Every shard chunk's size is checked here,
    // before binding or spawning anything — an unencodable shard is a
    // deterministic coordinator-side configuration error, not a
    // per-worker handshake failure to retry against a deadline.
    let plan = Arc::new(plan_run(ds, obj, cfg)?);
    // Chunks target ~256 KiB; only a single row wider than MAX_FRAME
    // can push one over the cap (chunks always carry ≥ 1 row).
    let oversized = plan
        .ranges
        .iter()
        .flat_map(|range| dataset_shard_chunk_lens(range, &plan.data))
        .find(|&len| len > MAX_FRAME);
    if let Some(len) = oversized {
        return Err(ClusterError::InvalidConfig(format!(
            "a dataset shard chunk is {len} bytes, above the {MAX_FRAME}-byte \
             frame cap — a single row is too wide to ship to worker processes"
        )));
    }
    let listener = TcpListener::bind(&pc.bind)
        .map_err(|e| ClusterError::Worker(format!("bind {}: {e}", pc.bind)))?;
    let addr = listener
        .local_addr()
        .map_err(|e| ClusterError::Worker(format!("local_addr: {e}")))?
        .to_string();
    let session = SessionConfig {
        round_timeout_ms: pc.round_timeout_ms,
        encoding: pc.encoding,
        checkpoint_every,
        ..cfg.session(obj)
    };
    let shared = Arc::new(Mutex::new(FleetShared {
        listener,
        addr,
        spawner,
        session,
        plan: plan.clone(),
        last_model: None,
        pc: pc.clone(),
    }));

    // Populate sequentially: spawn worker k, admit worker k. Serializing
    // spawn and admission pins the node-id ↔ process pairing (the chaos
    // hook and error attribution depend on it).
    let mut links: Vec<SupervisedLink<S>> = Vec::with_capacity(cfg.nodes);
    for node in 0..cfg.nodes as u32 {
        let mut sh = shared.lock().expect("fleet state poisoned");
        let addr = sh.addr.clone();
        let handle = sh.spawner.spawn(node, &addr, false)?;
        let t0 = monotonic_us();
        let tcp = sh.accept_worker(node)?;
        drop(sh);
        isasgd_obs::emit(&Event::Handshake {
            node: u64::from(node),
            respawn: false,
            dur_us: monotonic_us() - t0,
        });
        links.push(SupervisedLink {
            shared: shared.clone(),
            node,
            tcp,
            handle,
            log: Vec::new(),
            respawns_left: pc.max_respawns,
            policy: pc.on_loss,
            stats: LinkStats::default(),
            ckpt: None,
            respawns: 0,
        });
    }

    let result = coordinate(&mut links, &plan, obj, cfg);
    // Dropping the links closes every socket first, then reaps every
    // worker (grace, then kill) — success and failure paths alike end
    // with no leaked processes.
    drop(links);
    match result {
        Err(ClusterError::Transport(TransportError::WorkerLost { node, detail })) => {
            Err(ClusterError::WorkerLost { node, detail })
        }
        r => r,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::tcp_loopback_links;
    use crate::wire::{CheckpointSampler, CheckpointState};
    use isasgd_losses::{LogisticLoss, Regularizer};
    use isasgd_sparse::DatasetBuilder;
    use std::sync::Weak;

    /// The links below are never lost, so nothing is ever spawned.
    struct NoSpawn;

    impl WorkerSpawner for NoSpawn {
        fn spawn(
            &mut self,
            _: u32,
            _: &str,
            _: bool,
        ) -> Result<Box<dyn WorkerHandle>, ClusterError> {
            Err(ClusterError::Worker("this fleet spawns nothing".into()))
        }
    }

    struct Idle;

    impl WorkerHandle for Idle {}

    type Shared = Arc<Mutex<FleetShared<NoSpawn>>>;

    /// Two supervised links sharing one fleet state over loopback
    /// sockets, with the worker end of each.
    fn two_links() -> (Shared, Vec<SupervisedLink<NoSpawn>>, Vec<Tcp>) {
        let mut b = DatasetBuilder::new(1);
        b.push_row(&[(0, 1.0)], 1.0).unwrap();
        b.push_row(&[(0, -1.0)], -1.0).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let shared = Arc::new(Mutex::new(FleetShared {
            addr: listener.local_addr().unwrap().to_string(),
            listener,
            spawner: NoSpawn,
            session: ClusterConfig::default()
                .session(&Objective::new(LogisticLoss, Regularizer::None)),
            plan: Arc::new(Rearranged {
                data: b.finish(),
                weights: vec![1.0, 1.0],
                ranges: vec![0..1, 1..2],
                balanced: false,
                rho: 1.0,
            }),
            last_model: None,
            pc: ProcessConfig::default(),
        }));
        let (links, workers) = tcp_loopback_links(2, "127.0.0.1:0")
            .unwrap()
            .into_iter()
            .enumerate()
            .map(|(k, (tcp, worker))| {
                let link = SupervisedLink {
                    shared: shared.clone(),
                    node: k as u32,
                    tcp,
                    handle: Box::new(Idle),
                    log: Vec::new(),
                    respawns_left: 0,
                    policy: WorkerLossPolicy::Fail,
                    stats: LinkStats::default(),
                    ckpt: None,
                    respawns: 0,
                };
                (link, worker)
            })
            .unzip();
        (shared, links, workers)
    }

    fn logged(link: &SupervisedLink<NoSpawn>, round: u64) -> Arc<[f64]> {
        link.log
            .iter()
            .find_map(|entry| match entry {
                Logged::Model {
                    round: r, model, ..
                } if *r == round => Some(model.clone()),
                _ => None,
            })
            .expect("round model logged")
    }

    #[test]
    fn links_log_one_shared_copy_of_a_round_model_and_truncation_frees_it() {
        let (shared, mut links, mut workers) = two_links();
        let quiet_nan = f64::from_bits(0x7FF8_0000_0000_0001);
        // Round 1 differs only in the sign of a zero, round 2 only in a
        // NaN payload, round 3 not at all.
        let rounds: [[[f64; 2]; 2]; 3] = [
            [[1.5, 0.0], [1.5, -0.0]],
            [[f64::NAN, 2.0], [quiet_nan, 2.0]],
            [[-0.25, 3.0], [-0.25, 3.0]],
        ];
        for (round, models) in (1u64..).zip(&rounds) {
            for (link, model) in links.iter_mut().zip(models) {
                let msg = Message::ModelUpdate {
                    node: link.node,
                    round,
                    model: model.to_vec(),
                };
                link.send(&Message::RoundBarrier {
                    node: link.node,
                    round,
                })
                .unwrap();
                link.send(&msg).unwrap();
            }
        }
        for round in 1..=2 {
            assert!(
                !Arc::ptr_eq(&logged(&links[0], round), &logged(&links[1], round)),
                "round {round}: models with different bits were merged"
            );
        }
        let third = logged(&links[0], 3);
        assert!(Arc::ptr_eq(&third, &logged(&links[1], 3)));
        // Two logs and the fleet's slot, plus the handle held here.
        assert_eq!(Arc::strong_count(&third), 4);
        let third: Weak<[f64]> = {
            let weak = Arc::downgrade(&third);
            drop(third);
            weak
        };
        let first: Vec<Weak<[f64]>> = links
            .iter()
            .map(|l| Arc::downgrade(&logged(l, 1)))
            .collect();
        // Each slot still counts the bytes of every message it logged,
        // a shared model's in full.
        for (link, models) in links.iter().zip([0, 1]) {
            let node = link.node;
            let sent: u64 = (1u64..)
                .zip(&rounds)
                .map(|(round, m)| {
                    let update = Message::ModelUpdate {
                        node,
                        round,
                        model: m[models].to_vec(),
                    };
                    let barrier = Message::RoundBarrier { node, round };
                    (update.resident_bytes() + barrier.resident_bytes()) as u64
                })
                .sum();
            let fp = link.recovery().unwrap();
            assert_eq!((fp.log_frames, fp.log_bytes), (6, sent));
        }

        // A checkpoint covering round 3 on both links truncates both
        // logs; only the fleet's own slot keeps the newest model.
        let state = CheckpointState {
            draw_rng: [1, 2, 3, 4],
            model: vec![0.5],
            sampler: CheckpointSampler::Sequence {
                rows: 1,
                rng: [5, 6, 7, 8],
                indices: vec![0],
            },
        };
        for (link, worker) in links.iter_mut().zip(&mut workers) {
            let node = link.node;
            worker
                .send(&Message::Checkpoint {
                    node,
                    round: 3,
                    state: Box::new(state.clone()),
                })
                .unwrap();
            worker
                .send(&Message::RoundBarrier { node, round: 4 })
                .unwrap();
            assert_eq!(
                link.recv().unwrap(),
                Message::RoundBarrier { node, round: 4 }
            );
            assert!(link.log.is_empty(), "node {node}: log not truncated");
        }
        assert!(first.iter().all(|w| w.upgrade().is_none()));
        assert_eq!(third.strong_count(), 1);
        let slot = shared.lock().unwrap().last_model.take();
        assert_eq!(slot.map(|(round, _)| round), Some(3));
        assert_eq!(third.strong_count(), 0);
    }
}
