//! The [`Transport`] abstraction: how coordinator and workers exchange
//! [`Message`]s.
//!
//! The cluster runtime is written once, generic over this trait
//! (see [`crate::coordinator`]); the concrete wiring is chosen at run
//! time:
//!
//! * [`InProcess`] — a pair of `std::sync::mpsc` channels carrying typed
//!   messages between threads of one process. The successor of the old
//!   direct function-call round loop, and the default.
//! * [`Tcp`] — length-prefixed [`wire`](crate::wire) frames over a real
//!   `std::net::TcpStream`. On localhost this gives every worker thread
//!   an actual socket, so the full protocol (hello, shard rebalance,
//!   round barriers, model + feedback traffic) crosses a genuine byte
//!   boundary; `tests/equivalence.rs` pins it bit-equal to `InProcess`.
//! * [`FlakyTransport`] — a deterministic fault-injection wrapper that
//!   delays (reorders) and duplicates messages, used by
//!   `tests/fault_injection.rs` to pin the protocol's tolerance.
//!
//! A transport link is one endpoint of a duplex coordinator↔worker
//! connection. Links are FIFO per direction; the protocol additionally
//! tolerates duplicated messages and reordering within one send burst
//! (the guarantees [`FlakyTransport`] deliberately erodes).

use crate::wire::{
    apply_model_frame, encode_model_frame, FrameKind, Message, WireEncoding, WireError,
    WorkerTiming, FRAME_KINDS, MAX_FRAME,
};
use isasgd_sampling::Xoshiro256pp;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::Duration;

/// Per-link traffic counters, broken down by [`FrameKind`]: one frame
/// and byte tally per direction, where bytes include the 4-byte length
/// prefix (what actually crossed the socket). This is how the delta
/// and shard-streaming wins are *observed* — surfaced as the CLI's
/// `[net]` trace lines and asserted by the bandwidth tests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Frames sent, indexed by [`FrameKind::index`].
    pub tx_frames: [u64; FRAME_KINDS],
    /// Bytes sent (payload + length prefix), indexed by kind.
    pub tx_bytes: [u64; FRAME_KINDS],
    /// Frames received, indexed by kind.
    pub rx_frames: [u64; FRAME_KINDS],
    /// Bytes received (payload + length prefix), indexed by kind.
    pub rx_bytes: [u64; FRAME_KINDS],
}

impl LinkStats {
    fn record_tx(&mut self, kind: FrameKind, bytes: usize) {
        self.tx_frames[kind.index()] += 1;
        self.tx_bytes[kind.index()] += bytes as u64;
    }

    fn record_rx(&mut self, kind: FrameKind, bytes: usize) {
        self.rx_frames[kind.index()] += 1;
        self.rx_bytes[kind.index()] += bytes as u64;
    }

    /// Accumulates another link's counters into this one (the fleet
    /// folds a replaced connection's traffic into its slot's totals).
    pub fn merge(&mut self, other: &LinkStats) {
        for i in 0..FRAME_KINDS {
            self.tx_frames[i] += other.tx_frames[i];
            self.tx_bytes[i] += other.tx_bytes[i];
            self.rx_frames[i] += other.rx_frames[i];
            self.rx_bytes[i] += other.rx_bytes[i];
        }
    }

    /// Total bytes sent across all frame kinds.
    pub fn tx_total_bytes(&self) -> u64 {
        self.tx_bytes.iter().sum()
    }

    /// Total bytes received across all frame kinds.
    pub fn rx_total_bytes(&self) -> u64 {
        self.rx_bytes.iter().sum()
    }

    /// Bytes sent as frames of `kind`.
    pub fn tx_bytes_for(&self, kind: FrameKind) -> u64 {
        self.tx_bytes[kind.index()]
    }

    /// Bytes received as frames of `kind`.
    pub fn rx_bytes_for(&self, kind: FrameKind) -> u64 {
        self.rx_bytes[kind.index()]
    }

    /// One-line `kind:frames/bytes` summary of the non-zero sent kinds
    /// followed by received kinds — the `[net]` trace format.
    pub fn summary(&self) -> String {
        let mut parts = Vec::new();
        for (dir, frames, bytes) in [
            ("tx", &self.tx_frames, &self.tx_bytes),
            ("rx", &self.rx_frames, &self.rx_bytes),
        ] {
            for kind in FrameKind::ALL {
                let i = kind.index();
                if frames[i] > 0 {
                    parts.push(format!("{dir} {}:{}/{}B", kind.name(), frames[i], bytes[i]));
                }
            }
        }
        parts.join(" ")
    }
}

/// One worker slot's respawn-recovery footprint: how much replay the
/// supervisor is holding for (and would ship to) a replacement. With
/// checkpointing enabled this is bounded by one checkpoint interval
/// regardless of session length — the bound `bench_wire`'s
/// recovery-footprint case and the kill-respawn tests pin.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryFootprint {
    /// The slot's node id.
    pub node: u32,
    /// Messages currently in the replay log (the suffix a respawn
    /// would replay after installing the stored checkpoint, if any).
    pub log_frames: u64,
    /// Estimated resident bytes of those logged messages, counted per
    /// slot: a round model the fleet's logs share counts in full on
    /// every slot that logged it, as if each held its own copy — so the
    /// sum over slots is the replay data the logs stand for, not the
    /// memory they occupy.
    pub log_bytes: u64,
    /// Round of the stored checkpoint (0 = none stored yet).
    pub checkpoint_round: u64,
    /// Encoded size of the stored checkpoint frame, in bytes.
    pub checkpoint_bytes: u64,
    /// Respawns this slot has performed so far.
    pub respawns: u32,
}

/// Transport-level failures.
#[derive(Debug)]
pub enum TransportError {
    /// The peer closed the link (channel hung up / socket EOF).
    Closed,
    /// Socket-level I/O failure.
    Io(std::io::Error),
    /// The peer sent an undecodable frame.
    Wire(WireError),
    /// A supervised worker process was lost (connection died or a
    /// per-round deadline expired) and the loss policy does not permit
    /// — or respawning exhausted its budget for — recovery.
    WorkerLost {
        /// The lost worker's node id.
        node: u32,
        /// Human-readable root cause (original transport failure).
        detail: String,
    },
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Closed => write!(f, "peer closed the link"),
            TransportError::Io(e) => write!(f, "transport i/o: {e}"),
            TransportError::Wire(e) => write!(f, "wire decode: {e}"),
            TransportError::WorkerLost { node, detail } => {
                write!(f, "worker {node} lost: {detail}")
            }
        }
    }
}

impl std::error::Error for TransportError {}

impl From<WireError> for TransportError {
    fn from(e: WireError) -> Self {
        TransportError::Wire(e)
    }
}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        TransportError::Io(e)
    }
}

/// One endpoint of a duplex coordinator↔worker link. Every frame the
/// round protocol reads comes out of [`Transport::recv`], worker timing
/// included; a link keeps to itself only the frames it answers itself
/// (the fleet's supervised links store and acknowledge checkpoints).
pub trait Transport: Send {
    /// Sends one message to the peer.
    fn send(&mut self, msg: &Message) -> Result<(), TransportError>;

    /// Blocks until the peer's next message arrives.
    fn recv(&mut self) -> Result<Message, TransportError>;

    /// This link's traffic counters, when the transport measures any —
    /// socket transports do; [`InProcess`] moves typed values, so there
    /// are no wire bytes to count and it reports `None`.
    fn stats(&self) -> Option<LinkStats> {
        None
    }

    /// This link's respawn-recovery footprint, when the transport
    /// supervises one — only the fleet's supervised links do; plain
    /// links have no replay log and report `None`.
    fn recovery(&self) -> Option<RecoveryFootprint> {
        None
    }
}

/// One received [`Message::Telemetry`] frame: which slot sent it plus
/// the round's [`WorkerTiming`] counters. Surfaced through
/// [`ClusterRun::telemetry`](crate::node::ClusterRun::telemetry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetrySample {
    /// Reporting worker's slot id.
    pub node: u32,
    /// Round the sample covers.
    pub round: u64,
    /// The worker's timing counters for that round.
    pub timing: WorkerTiming,
}

/// Which transport a cluster run wires its links with. Carried by
/// [`ClusterConfig`](crate::ClusterConfig) — the field whose arrival
/// moved the config from `Copy` to `Clone`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum TransportConfig {
    /// Channel-backed links between threads of this process (default).
    #[default]
    InProcess,
    /// Length-prefixed frames over localhost TCP sockets (workers stay
    /// threads of this process; only the bytes cross a socket).
    Tcp {
        /// Listener bind address; port 0 lets the OS pick a free port.
        bind: String,
        /// Model-update encoding on every link (`--wire-encoding`).
        encoding: WireEncoding,
    },
    /// Real cross-process workers: the coordinator binds a listener,
    /// spawns `isasgd worker --connect` subprocesses, drives the
    /// [`wire`](crate::wire) session handshake, and supervises the
    /// fleet (see [`crate::fleet`]).
    Process(ProcessConfig),
}

/// What the fleet supervisor does when a worker process is lost
/// mid-run (its connection dies or a per-round deadline expires).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WorkerLossPolicy {
    /// Abort the run with a typed
    /// [`WorkerLost`](crate::ClusterError::WorkerLost) error (default:
    /// fail loudly, never hang).
    #[default]
    Fail,
    /// Spawn a replacement process and replay the lost worker's entire
    /// session (assignment, dataset, every round message) so the
    /// replacement deterministically recomputes the lost state — the
    /// run completes **bit-identically** to an undisturbed run.
    Respawn,
}

impl WorkerLossPolicy {
    /// Parses a CLI name: `fail` or `respawn`.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "fail" => WorkerLossPolicy::Fail,
            "respawn" => WorkerLossPolicy::Respawn,
            _ => return None,
        })
    }

    /// The CLI/display name.
    pub fn name(&self) -> &'static str {
        match self {
            WorkerLossPolicy::Fail => "fail",
            WorkerLossPolicy::Respawn => "respawn",
        }
    }
}

/// Settings of the cross-process fleet (see
/// [`TransportConfig::Process`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessConfig {
    /// Listener bind address. The default binds loopback with an
    /// OS-assigned port. A routable address is accepted, but the fleet
    /// still spawns all `nodes` workers locally today — a remote
    /// `isasgd worker --connect` would race those spawns for admission
    /// slots, so remote join (with auth and a spawn-nothing mode) is a
    /// ROADMAP item, not a supported deployment.
    pub bind: String,
    /// Reaction to a lost worker process.
    pub on_loss: WorkerLossPolicy,
    /// Worker program to spawn (`<worker> worker --connect <addr>`);
    /// `None` uses the current executable — correct for the `isasgd`
    /// CLI, wrong inside test harnesses, which install their own
    /// spawner instead.
    pub worker: Option<String>,
    /// Deadline for a spawned worker to connect and complete the
    /// `Hello` handshake, in milliseconds.
    pub handshake_timeout_ms: u64,
    /// Per-round liveness deadline, in milliseconds: the socket read
    /// timeout while awaiting a worker's round traffic. A worker that
    /// stays silent longer is declared lost.
    pub round_timeout_ms: u64,
    /// Respawn budget per worker slot (guards against crash loops).
    pub max_respawns: u32,
    /// Chaos hook: make the *initially spawned* worker `node` abort
    /// abruptly at round `round` (replacements are spawned clean).
    /// Exercises the supervision path end-to-end; surfaced as
    /// `isasgd train --chaos-kill <node>:<round>`.
    pub chaos_kill: Option<(u32, u64)>,
    /// Model-update encoding on every supervised link
    /// (`--wire-encoding`); shipped to workers in the session config so
    /// both ends of each link agree on the delta base discipline.
    pub encoding: WireEncoding,
    /// Worker checkpoint period in rounds (`--checkpoint-every`); 0
    /// disables checkpointing. With a period `k`, every worker ships a
    /// [`Message::Checkpoint`] of its deterministic state each `k`
    /// rounds; the supervisor keeps the latest blob per slot and
    /// truncates that slot's replay log to the post-checkpoint suffix,
    /// bounding respawn recovery cost (and log memory) by one
    /// checkpoint interval instead of the whole session.
    pub checkpoint_every: u64,
}

impl Default for ProcessConfig {
    fn default() -> Self {
        ProcessConfig {
            bind: "127.0.0.1:0".into(),
            on_loss: WorkerLossPolicy::Fail,
            worker: None,
            handshake_timeout_ms: 30_000,
            round_timeout_ms: 120_000,
            max_respawns: 3,
            chaos_kill: None,
            encoding: WireEncoding::default(),
            checkpoint_every: 0,
        }
    }
}

impl TransportConfig {
    /// The TCP transport on the default loopback bind address.
    pub fn tcp() -> Self {
        TransportConfig::Tcp {
            bind: "127.0.0.1:0".into(),
            encoding: WireEncoding::default(),
        }
    }

    /// The cross-process transport with default fleet settings.
    pub fn process() -> Self {
        TransportConfig::Process(ProcessConfig::default())
    }

    /// Parses a CLI name: `inproc`/`in-process`, `tcp`, or `process`.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "inproc" | "in-process" | "channel" => TransportConfig::InProcess,
            "tcp" => TransportConfig::tcp(),
            "process" | "subprocess" => TransportConfig::process(),
            _ => return None,
        })
    }

    /// The CLI/display name.
    pub fn name(&self) -> &'static str {
        match self {
            TransportConfig::InProcess => "inproc",
            TransportConfig::Tcp { .. } => "tcp",
            TransportConfig::Process(_) => "process",
        }
    }
}

/// Channel-backed in-process transport: typed messages over a pair of
/// `mpsc` channels.
pub struct InProcess {
    tx: Sender<Message>,
    rx: Receiver<Message>,
}

impl InProcess {
    /// Builds one duplex link, returning its two endpoints.
    pub fn pair() -> (InProcess, InProcess) {
        let (a_tx, b_rx) = channel();
        let (b_tx, a_rx) = channel();
        (
            InProcess { tx: a_tx, rx: a_rx },
            InProcess { tx: b_tx, rx: b_rx },
        )
    }
}

impl Transport for InProcess {
    fn send(&mut self, msg: &Message) -> Result<(), TransportError> {
        self.tx
            .send(msg.clone())
            .map_err(|_| TransportError::Closed)
    }

    #[deny(clippy::indexing_slicing, clippy::cast_possible_truncation)]
    fn recv(&mut self) -> Result<Message, TransportError> {
        #[expect(
            clippy::disallowed_methods,
            reason = "a dropped peer closes the channel (recv errors Closed); silent-peer deadlocks are ruled out by isasgd-check"
        )]
        self.rx.recv().map_err(|_| TransportError::Closed)
    }
}

/// One `(coordinator_end, worker_end)` in-process link per node.
pub fn in_process_links(nodes: usize) -> Vec<(InProcess, InProcess)> {
    (0..nodes).map(|_| InProcess::pair()).collect()
}

/// A real socket endpoint: [`wire`](crate::wire) frames over TCP.
///
/// Under a non-[`Dense`](WireEncoding::Dense) encoding, each endpoint
/// tracks the last model that crossed the link in each direction (the
/// *delta bases*). A [`Message::ModelUpdate`] send may then go out as a
/// sparse [`Message::ModelDelta`] against the send-side base; the
/// receiving endpoint reconstructs the dense model bitwise against its
/// own base before handing it up, so the round protocol above never
/// sees a delta frame. Links are FIFO per direction, which is exactly
/// what keeps the two bases in lockstep; the first model on a fresh
/// link always goes dense (no base exists yet).
///
/// Neither direction builds an intermediate model: a sent model is
/// encoded from the caller's slice ([`encode_model_frame`]) and then
/// copied into the tx base, in place; a received frame is written into
/// the rx base in place ([`apply_model_frame`]) and copied once, to hand
/// it up.
pub struct Tcp {
    stream: TcpStream,
    scratch: Vec<u8>,
    encoding: WireEncoding,
    /// Last model sent on this link (delta base for the tx direction);
    /// dropped by a send under [`WireEncoding::Dense`], which does not
    /// read it.
    tx_base: Option<Vec<f64>>,
    /// Last model received on this link (delta base for rx).
    rx_base: Option<Vec<f64>>,
    stats: LinkStats,
}

impl Tcp {
    /// Generous per-recv deadline so a protocol bug fails a test run
    /// with a timeout error instead of hanging it forever.
    const READ_TIMEOUT: Duration = Duration::from_secs(120);

    /// Wraps a connected stream (disables Nagle — the protocol is
    /// latency-bound request/response, not bulk).
    pub fn new(stream: TcpStream) -> std::io::Result<Tcp> {
        Self::with_read_timeout(stream, Self::READ_TIMEOUT)
    }

    /// [`Tcp::new`] with an explicit per-recv deadline — the fleet
    /// supervisor's per-round liveness timer.
    pub fn with_read_timeout(stream: TcpStream, timeout: Duration) -> std::io::Result<Tcp> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        Ok(Tcp {
            stream,
            scratch: Vec::new(),
            encoding: WireEncoding::Dense,
            tx_base: None,
            rx_base: None,
            stats: LinkStats::default(),
        })
    }

    /// Selects the model-update encoding for this endpoint. Both ends
    /// of a link must agree (a delta frame is only decodable against
    /// the matching base discipline); the run entry points set it from
    /// the config on every endpoint they wire. A raw [`Tcp::new`] link
    /// defaults to [`WireEncoding::Dense`] — the v1 wire behavior.
    pub fn set_encoding(&mut self, encoding: WireEncoding) {
        self.encoding = encoding;
    }

    /// This endpoint's traffic counters so far.
    pub fn link_stats(&self) -> &LinkStats {
        &self.stats
    }

    /// Takes this endpoint's traffic counters, zeroing them. The fleet
    /// folds a dying link's counters into its slot's running totals at
    /// the *start* of recovery — so the traffic is accounted even when
    /// the respawn itself fails.
    pub fn take_stats(&mut self) -> LinkStats {
        std::mem::take(&mut self.stats)
    }

    /// Re-arms the per-recv deadline (the fleet uses a short handshake
    /// deadline, then relaxes to the round deadline once admitted).
    pub fn set_read_timeout(&self, timeout: Duration) -> std::io::Result<()> {
        self.stream.set_read_timeout(Some(timeout))
    }

    /// Arms a per-write deadline. The fleet sets one on every
    /// supervised link so a peer that accepts a connection but never
    /// reads (stalling `write_all` once the socket buffers fill)
    /// surfaces as a typed I/O error instead of hanging the
    /// coordinator — the write-side half of the never-hang contract.
    pub fn set_write_timeout(&self, timeout: Duration) -> std::io::Result<()> {
        self.stream.set_write_timeout(Some(timeout))
    }

    /// Sends an already-encoded message payload (no length prefix) —
    /// the fleet's admission writes each dataset shard chunk from the
    /// buffer it was just encoded into, and a respawn's replay writes
    /// the stored checkpoint blob as the worker sent it.
    pub fn send_payload(&mut self, payload: &[u8]) -> Result<(), TransportError> {
        if payload.len() > MAX_FRAME {
            return Err(TransportError::Wire(WireError::FrameTooLarge {
                len: payload.len(),
            }));
        }
        self.stream
            .write_all(&(payload.len() as u32).to_le_bytes())?;
        self.stream.write_all(payload)?;
        if let Some(kind) = payload.first().copied().and_then(FrameKind::from_tag) {
            self.stats.record_tx(kind, payload.len() + 4);
        }
        Ok(())
    }

    /// Sends `node`'s round-`round` model, encoded from the borrowed
    /// slice against the tx base, dense or delta as the encoding
    /// decides: what [`Transport::send`] does with a
    /// [`Message::ModelUpdate`], without a message to build — the
    /// fleet's replay sends its logged models from their shared storage.
    pub fn send_model(
        &mut self,
        node: u32,
        round: u64,
        model: &[f64],
    ) -> Result<(), TransportError> {
        self.scratch.clear();
        self.scratch.extend_from_slice(&[0u8; 4]);
        encode_model_frame(
            &mut self.scratch,
            node,
            round,
            model,
            self.tx_base.as_deref(),
            self.encoding,
        )?;
        self.write_scratch()?;
        // Only after a successful write: the peer's rx base advances
        // exactly when bytes actually left, keeping the two in lockstep.
        // The base is overwritten in place. A dense link never reads it,
        // so it drops it instead: a stale base would desync the peer if
        // the link later switched to deltas.
        if self.encoding == WireEncoding::Dense {
            self.tx_base = None;
        } else {
            let base = self.tx_base.get_or_insert_with(Vec::new);
            base.clear();
            base.extend_from_slice(model);
        }
        Ok(())
    }

    /// Writes the payload encoded into `scratch` behind its 4 reserved
    /// prefix bytes: patches the length in, then one write_all of one
    /// contiguous buffer.
    fn write_scratch(&mut self) -> Result<(), TransportError> {
        let len = self.scratch.len() - 4;
        if len > MAX_FRAME {
            return Err(TransportError::Wire(WireError::FrameTooLarge { len }));
        }
        self.scratch[..4].copy_from_slice(&(len as u32).to_le_bytes());
        self.stream.write_all(&self.scratch)?;
        if let Some(kind) = FrameKind::from_tag(self.scratch[4]) {
            self.stats.record_tx(kind, self.scratch.len());
        }
        Ok(())
    }
}

impl Transport for Tcp {
    fn send(&mut self, msg: &Message) -> Result<(), TransportError> {
        if let Message::ModelUpdate { node, round, model } = msg {
            return self.send_model(*node, *round, model);
        }
        self.scratch.clear();
        self.scratch.extend_from_slice(&[0u8; 4]);
        msg.encode(&mut self.scratch);
        self.write_scratch()
    }

    #[deny(clippy::indexing_slicing, clippy::cast_possible_truncation)]
    fn recv(&mut self) -> Result<Message, TransportError> {
        let mut len_bytes = [0u8; 4];
        self.stream
            .read_exact(&mut len_bytes)
            .map_err(eof_is_closed)?;
        let len = u32::from_le_bytes(len_bytes) as usize;
        if len > MAX_FRAME {
            return Err(TransportError::Wire(WireError::FrameTooLarge { len }));
        }
        self.scratch.clear();
        self.scratch.resize(len, 0);
        self.stream
            .read_exact(&mut self.scratch)
            .map_err(eof_is_closed)?;
        let kind = self.scratch.first().copied().and_then(FrameKind::from_tag);
        let msg = match kind {
            // A round model lands in the rx base in place; the one copy
            // is the model handed up.
            Some(FrameKind::ModelUpdate | FrameKind::ModelDelta) => {
                let (node, round, model) = apply_model_frame(&self.scratch, &mut self.rx_base)?;
                Message::ModelUpdate {
                    node,
                    round,
                    model: model.to_vec(),
                }
            }
            _ => Message::decode(&self.scratch)?,
        };
        if let Some(kind) = kind {
            self.stats.record_rx(kind, len + 4);
        }
        Ok(msg)
    }

    fn stats(&self) -> Option<LinkStats> {
        Some(self.stats.clone())
    }
}

fn eof_is_closed(e: std::io::Error) -> TransportError {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        TransportError::Closed
    } else {
        TransportError::Io(e)
    }
}

/// Builds one `(coordinator_end, worker_end)` TCP loopback link per
/// node: binds `bind`, then alternates connect/accept so the k-th
/// accepted stream deterministically pairs with the k-th worker.
pub fn tcp_loopback_links(nodes: usize, bind: &str) -> std::io::Result<Vec<(Tcp, Tcp)>> {
    let listener = TcpListener::bind(bind)?;
    let addr = listener.local_addr()?;
    let mut links = Vec::with_capacity(nodes);
    for _ in 0..nodes {
        let worker_end = TcpStream::connect(addr)?;
        let (coord_end, _) = listener.accept()?;
        links.push((Tcp::new(coord_end)?, Tcp::new(worker_end)?));
    }
    Ok(links)
}

/// Deterministic seeded fault injection around any transport — the test
/// fake the fault-injection suite wraps links in. One rng roll per send:
/// every `delay_period`-th roll holds the message back (at most one is
/// held at a time), every `dup_period`-th delivers it twice (0 disables
/// either fault). Nothing is ever lost; the `isasgd-check` model
/// scheduler explores the same faults systematically instead of sampling
/// them.
///
/// A held message is flushed before the wrapper ever blocks in
/// [`Transport::recv`] and again on drop, so the wrapper perturbs
/// ordering without being able to deadlock a request/response protocol:
/// every endpoint that stops sending either starts receiving or hangs
/// up, and both paths release the held message.
pub struct FlakyTransport<T: Transport> {
    inner: T,
    rng: Xoshiro256pp,
    dup_period: u64,
    delay_period: u64,
    held: Option<Message>,
}

impl<T: Transport> FlakyTransport<T> {
    /// Wraps `inner` duplicating every `dup_period`-th roll and holding
    /// every `delay_period`-th roll (0 disables either fault), seeded
    /// for reproducibility.
    pub fn with_periods(inner: T, seed: u64, dup_period: u64, delay_period: u64) -> Self {
        FlakyTransport {
            inner,
            rng: Xoshiro256pp::new(seed),
            dup_period,
            delay_period,
            held: None,
        }
    }

    /// Best-effort delivery for the *extra* copies the injector
    /// creates (duplicates and held-message flushes): a `Closed` peer
    /// has already finished the protocol and cannot need them, so that
    /// specific failure is swallowed — exactly like a real network
    /// dropping a packet to a host that hung up. Primary sends keep
    /// strict error propagation.
    fn send_best_effort(&mut self, msg: &Message) -> Result<(), TransportError> {
        match self.inner.send(msg) {
            Err(TransportError::Closed) => Ok(()),
            r => r,
        }
    }

    fn flush_held(&mut self) -> Result<(), TransportError> {
        if let Some(h) = self.held.take() {
            self.send_best_effort(&h)?;
        }
        Ok(())
    }
}

impl<T: Transport> Transport for FlakyTransport<T> {
    fn send(&mut self, msg: &Message) -> Result<(), TransportError> {
        let roll = self.rng.next_raw();
        if self.delay_period > 0 && roll.is_multiple_of(self.delay_period) && self.held.is_none() {
            // Hold this message back; it will be released after the
            // next send (reordering it) or before the next recv.
            self.held = Some(msg.clone());
            return Ok(());
        }
        self.inner.send(msg)?;
        if self.dup_period > 0 && roll.is_multiple_of(self.dup_period) {
            self.send_best_effort(msg)?;
        }
        // Release a previously held message *after* this one — the
        // observable reordering.
        self.flush_held()
    }

    #[deny(clippy::indexing_slicing, clippy::cast_possible_truncation)]
    fn recv(&mut self) -> Result<Message, TransportError> {
        // Never block while still owing the peer a held message.
        self.flush_held()?;
        #[expect(
            clippy::disallowed_methods,
            reason = "pure delegation: the inner transport owns the deadline"
        )]
        self.inner.recv()
    }

    fn stats(&self) -> Option<LinkStats> {
        self.inner.stats()
    }

    fn recovery(&self) -> Option<RecoveryFootprint> {
        self.inner.recovery()
    }
}

impl<T: Transport> Drop for FlakyTransport<T> {
    fn drop(&mut self) {
        let _ = self.flush_held();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn barrier(round: u64) -> Message {
        Message::RoundBarrier { node: 0, round }
    }

    #[test]
    fn in_process_pair_is_duplex() {
        let (mut a, mut b) = InProcess::pair();
        a.send(&barrier(1)).unwrap();
        b.send(&barrier(2)).unwrap();
        assert_eq!(b.recv().unwrap(), barrier(1));
        assert_eq!(a.recv().unwrap(), barrier(2));
    }

    #[test]
    fn in_process_hangup_is_closed() {
        let (mut a, b) = InProcess::pair();
        drop(b);
        assert!(matches!(a.send(&barrier(1)), Err(TransportError::Closed)));
        assert!(matches!(a.recv(), Err(TransportError::Closed)));
    }

    #[test]
    fn tcp_link_roundtrips_messages() {
        let mut links = tcp_loopback_links(1, "127.0.0.1:0").unwrap();
        let (mut coord, mut worker) = links.pop().unwrap();
        let big = Message::ModelUpdate {
            node: 7,
            round: 3,
            model: (0..10_000).map(|i| i as f64 * 0.5 - 3.0).collect(),
        };
        worker.send(&big).unwrap();
        worker.send(&barrier(4)).unwrap();
        assert_eq!(coord.recv().unwrap(), big);
        assert_eq!(coord.recv().unwrap(), barrier(4));
        coord.send(&barrier(5)).unwrap();
        assert_eq!(worker.recv().unwrap(), barrier(5));
    }

    /// Switching a link's encoding between sends keeps the two bases in
    /// lockstep: after dense sends, the first delta-capable send goes
    /// dense again rather than against the model sent before the switch.
    #[test]
    fn switching_encodings_mid_link_keeps_the_bases_in_lockstep() {
        let (mut coord, mut worker) = tcp_loopback_links(1, "127.0.0.1:0").unwrap().pop().unwrap();
        // Every seventh coordinate changes each round.
        let update = |round: u64| Message::ModelUpdate {
            node: 0,
            round,
            model: (0..64u32)
                .map(|i| {
                    if i % 7 == 0 {
                        (round * 100) as f64
                    } else {
                        f64::from(i)
                    }
                })
                .collect(),
        };
        for (round, encoding) in [
            (1, WireEncoding::Delta),
            (2, WireEncoding::Delta),
            (3, WireEncoding::Dense),
            (4, WireEncoding::Delta),
            (5, WireEncoding::Delta),
        ] {
            coord.set_encoding(encoding);
            coord.send(&update(round)).unwrap();
            assert_eq!(worker.recv().unwrap(), update(round), "round {round}");
        }
        let tx = &coord.link_stats().tx_frames;
        assert_eq!(tx[FrameKind::ModelUpdate.index()], 3, "rounds 1, 3 and 4");
        assert_eq!(tx[FrameKind::ModelDelta.index()], 2, "rounds 2 and 5");
    }

    /// A refused model frame leaves the link's rx base as it was: every
    /// malformed delta fails its `recv`, and a valid delta sent after
    /// them still rebuilds the sent model bit for bit. The "values one
    /// short" frame lists coordinates 0 and 1 with their values before
    /// it runs out, so a decoder that wrote while it read would corrupt
    /// exactly the coordinates the final delta does not touch.
    #[test]
    fn a_refused_model_frame_leaves_the_base_untouched() {
        let mut links = tcp_loopback_links(1, "127.0.0.1:0").unwrap();
        let (mut coord, mut worker) = links.pop().unwrap();
        coord.set_encoding(WireEncoding::Delta);
        worker.set_encoding(WireEncoding::Delta);
        let update = |round: u64, model: Vec<f64>| Message::ModelUpdate {
            node: 0,
            round,
            model,
        };
        let first: Vec<f64> = (0..8).map(|i| i as f64 - 2.5).collect();
        coord.send(&update(1, first.clone())).unwrap();
        assert_eq!(worker.recv().unwrap(), update(1, first.clone()));

        let delta = |dim: u32, indices: Vec<u32>| Message::ModelDelta {
            node: 0,
            round: 2,
            dim,
            values: indices.iter().map(|&i| f64::from(i) + 100.0).collect(),
            indices,
        };
        let past_dim = delta(8, vec![0, 1, 8]).to_bytes();
        let mut values_one_short = delta(8, vec![0, 1, 5]).to_bytes();
        values_one_short.truncate(values_one_short.len() - 8);
        // Indices 0 then a gap of 0 spelled `0x80 0x00`, the non-minimal
        // varint of 0 (canonically `0x00`).
        let mut non_minimal = delta(8, vec![0]).to_bytes();
        non_minimal.truncate(1 + 4 + 8 + 4);
        non_minimal.extend_from_slice(&2u32.to_le_bytes());
        non_minimal.extend_from_slice(&[0x00, 0x80, 0x00]);
        non_minimal.extend_from_slice(&[0u8; 16]);
        let wrong_dim = delta(9, vec![0, 1]).to_bytes();
        for (what, payload) in [
            ("index >= dim", past_dim),
            ("values one short", values_one_short),
            ("non-minimal varint", non_minimal),
            ("dim != base length", wrong_dim),
        ] {
            coord.send_payload(&payload).unwrap();
            assert!(
                matches!(worker.recv(), Err(TransportError::Wire(_))),
                "{what}: refused"
            );
        }

        let mut next = first;
        next[4] = -0.0;
        next[6] = f64::from_bits(0x7FF8_0000_0000_0123); // a NaN payload
        coord.send(&update(3, next.clone())).unwrap();
        let tx = &coord.link_stats().tx_frames;
        assert_eq!(
            tx[FrameKind::ModelUpdate.index()],
            1,
            "only the first dense"
        );
        assert_eq!(
            tx[FrameKind::ModelDelta.index()],
            5,
            "four refused, one sent"
        );
        match worker.recv().unwrap() {
            Message::ModelUpdate { round, model, .. } => {
                assert_eq!(round, 3);
                let bits = |m: &[f64]| m.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&model), bits(&next));
            }
            other => panic!("expected the rebuilt model, got {other:?}"),
        }
    }

    #[test]
    fn tcp_peer_hangup_is_closed() {
        let mut links = tcp_loopback_links(1, "127.0.0.1:0").unwrap();
        let (coord, mut worker) = links.pop().unwrap();
        drop(coord);
        assert!(matches!(worker.recv(), Err(TransportError::Closed)));
    }

    #[test]
    fn flaky_is_deterministic_and_lossless() {
        let deliver = |seed: u64| {
            let (a, mut b) = InProcess::pair();
            let mut flaky = FlakyTransport::with_periods(a, seed, 3, 4);
            for round in 0..32 {
                flaky.send(&barrier(round)).unwrap();
            }
            drop(flaky); // flushes any held message
            let mut got = Vec::new();
            while let Ok(m) = b.recv() {
                got.push(m.round());
            }
            got
        };
        let a = deliver(9);
        let b = deliver(9);
        assert_eq!(a, b, "same seed ⇒ same fault schedule");
        // Nothing lost: every round delivered at least once.
        for round in 0..32 {
            assert!(a.contains(&round), "round {round} lost");
        }
        // Faults actually fired: duplicates exist and order is perturbed.
        assert!(a.len() > 32, "no duplicates injected: {a:?}");
        assert_ne!(
            a.iter().copied().take(32).collect::<Vec<_>>(),
            (0..32).collect::<Vec<_>>(),
            "no reordering injected"
        );
        let c = deliver(10);
        assert_ne!(a, c, "different seed ⇒ different schedule");
    }

    #[test]
    fn flaky_flushes_held_before_blocking_recv() {
        // Find a seed whose first roll delays, then check recv releases
        // the held message instead of deadlocking the echo peer.
        for seed in 0..64u64 {
            let (a, mut b) = InProcess::pair();
            let mut flaky = FlakyTransport::with_periods(a, seed, 0, 1); // delay every send
            flaky.send(&barrier(1)).unwrap();
            assert!(flaky.held.is_some(), "period-1 delay must hold the send");
            // Peer echoes only after it sees the message.
            let echo = std::thread::spawn(move || {
                let m = b.recv().unwrap();
                b.send(&m).unwrap();
            });
            let back = flaky.recv().unwrap();
            assert_eq!(back, barrier(1));
            echo.join().unwrap();
        }
    }

    #[test]
    fn transport_config_parses() {
        assert_eq!(
            TransportConfig::parse("inproc"),
            Some(TransportConfig::InProcess)
        );
        assert_eq!(TransportConfig::parse("tcp"), Some(TransportConfig::tcp()));
        assert_eq!(
            TransportConfig::parse("process"),
            Some(TransportConfig::process())
        );
        assert_eq!(TransportConfig::parse("udp"), None);
        assert_eq!(TransportConfig::default().name(), "inproc");
        assert_eq!(TransportConfig::tcp().name(), "tcp");
        assert_eq!(TransportConfig::process().name(), "process");
    }

    #[test]
    fn worker_loss_policy_parses() {
        assert_eq!(
            WorkerLossPolicy::parse("fail"),
            Some(WorkerLossPolicy::Fail)
        );
        assert_eq!(
            WorkerLossPolicy::parse("respawn"),
            Some(WorkerLossPolicy::Respawn)
        );
        assert_eq!(WorkerLossPolicy::parse("retry"), None);
        assert_eq!(WorkerLossPolicy::default().name(), "fail");
        assert_eq!(WorkerLossPolicy::Respawn.name(), "respawn");
    }
}
