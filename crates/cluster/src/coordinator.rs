//! The cluster round protocol as two machines that never touch a
//! transport — the [`Coordinator`] and the [`Worker`] — and the thin
//! blocking drivers that run them over a [`Transport`].
//!
//! The protocol, per link (one duplex link per worker; link `k` serves
//! node `k`, which trains shard `k` of the plan, so no frame repeats
//! the assignment):
//!
//! ```text
//! worker                         coordinator
//!  per round r = 1..=rounds:
//!   ◀── RoundBarrier(r) ──────────   start-of-round barrier
//!   ◀── ModelUpdate(r, consensus)    round's starting model
//!      … local_epochs of (IS-)SGD     coordinator, meanwhile: folds
//!        on the worker's shard …      round r−1's feedback into its
//!                                     mirrors
//!   ── FeedbackBatch(r) ─────────▶   per-row max importance observations
//!                                    (adaptive runs only)
//!   ── ModelUpdate(r, replica) ──▶   trained local model, folded into
//!                                    the consensus on arrival
//!                                    (SyncStrategy's term); then eval
//!      worker, meanwhile: commits
//!      its sampler for round r+1
//! ```
//!
//! Each machine is fed one frame, or one round model its link lends, at
//! a time, and says what it wants next: the [`Worker`] the frames to
//! send ([`Worker::next_send`], training in place once a round's start
//! is complete), the [`Coordinator`] the link it is collecting from or
//! the next round's [`Broadcast`] ([`Coordinator::poll`]). The drivers
//! here only move frames: `coordinate` for the coordinator's links
//! and `drive_worker` for one worker's — the same two for the
//! in-process, TCP and fleet transports and the `isasgd worker`
//! process. `isasgd-check` steps the same machines on one thread.
//!
//! Receivers are written against a weaker channel than either bundled
//! transport provides: they tolerate duplicated messages and reordering
//! within one send burst, taking the frames the current round needs
//! for the current round and dropping stale round tags. That tolerance
//! is what `tests/fault_injection.rs` pins with
//! [`FlakyTransport`](crate::transport::FlakyTransport) over the
//! threaded drivers, and what `isasgd-check` explores exhaustively.
//!
//! Determinism: each worker's draws come from its own seed-derived
//! [`ScheduleStream`], observations only ever touch the worker's own
//! sampler, and the coordinator folds the replicas into the consensus
//! in link order, whatever order they arrive in — so
//! the result is bit-identical across transports and thread schedules,
//! and a single-node run stays bit-equal to the sequential engine
//! (`tests/equivalence.rs`).

use crate::node::{validate, ClusterConfig, ClusterError, ClusterRun};
use crate::sync::fold_model;
use crate::transport::{Broadcast, LinkStats, RecoveryFootprint, TelemetrySample, Transport};
use crate::wire::{
    apply_delta, delta_coords, wire_row, CheckpointSampler, CheckpointState, Message,
    SessionConfig, WorkerTiming,
};
use isasgd_balance::{rearrange, Rearranged};
use isasgd_losses::{importance_weights, sgd_step, Loss, Objective};
use isasgd_metrics::{Trace, TracePoint};
use isasgd_obs::{monotonic_us, Event};
use isasgd_sampling::{
    balance_seed, AdaptiveIsSampler, CommitPolicy, Draw, Sampler, SamplerSnapshot, SamplingError,
    SamplingStrategy, ScheduleStream, SequenceMode, ShardSpec,
};
use isasgd_sparse::{Dataset, RowWindow};
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// Algorithm 4's offline phase (weigh, decide, rearrange, shard) — the
/// deterministic pre-round state every entry point shares, computed
/// once per run before any traffic moves. The [`Coordinator`]
/// evaluates against it, in-process [`Worker`]s borrow their shards
/// from it, and the fleet streams per-shard dataset frames from it —
/// one source, so the three can never disagree.
pub fn plan_run<L: Loss>(
    ds: &Dataset,
    obj: &Objective<L>,
    cfg: &ClusterConfig,
) -> Result<Rearranged, ClusterError> {
    let weights = importance_weights(ds, &obj.loss, obj.reg, cfg.importance);
    let seed = balance_seed(cfg.seed, cfg.nodes);
    Ok(rearrange(ds, Some(&weights), cfg.balance, seed, cfg.nodes)?)
}

/// Runs a full cluster round schedule over caller-supplied links — the
/// extension point fault-injection tests wrap with
/// [`FlakyTransport`](crate::transport::FlakyTransport).
///
/// `links[k]` is the `(coordinator_end, worker_end)` pair for node `k`.
/// Workers run on scoped threads; the coordinator drives rounds on the
/// calling thread. See [`crate::run`] for the convenience entry point
/// that wires the links from
/// [`ClusterConfig::transport`](crate::ClusterConfig).
pub fn run_with_links<L: Loss, T: Transport>(
    ds: &Dataset,
    obj: &Objective<L>,
    cfg: &ClusterConfig,
    links: Vec<(T, T)>,
) -> Result<ClusterRun, ClusterError> {
    validate(cfg, obj, ds)?;
    if links.len() != cfg.nodes {
        return Err(ClusterError::InvalidConfig(format!(
            "{} transport links for {} nodes",
            links.len(),
            cfg.nodes
        )));
    }
    let plan = plan_run(ds, obj, cfg)?;
    let (mut coord_ends, worker_ends): (Vec<T>, Vec<T>) = links.into_iter().unzip();
    std::thread::scope(|scope| {
        let plan = &plan;
        let handles: Vec<_> = worker_ends
            .into_iter()
            .enumerate()
            .map(|(k, link)| {
                // Built on the worker's thread, like every buffer it
                // trains with.
                scope.spawn(move || drive_worker(link, Worker::in_plan(plan, k, obj, cfg)?))
            })
            .collect();
        let coord = coordinate(&mut coord_ends, plan, obj, cfg);
        // On coordinator failure, drop the links now so every blocked
        // worker `recv` unblocks with `Closed` instead of deadlocking
        // the join. On success keep them alive until the workers have
        // joined: a worker may still be emitting trailing traffic the
        // coordinator no longer needs (e.g. a fault-injected duplicate
        // of its final model), and tearing the links down under it
        // would turn that benign tail into a spurious `Closed` error.
        if coord.is_err() {
            coord_ends.clear();
        }
        let mut worker_err: Option<ClusterError> = None;
        for h in handles {
            let err = match h.join() {
                Ok(Ok(())) => continue,
                Ok(Err(e)) => e,
                Err(_) => ClusterError::Worker("worker thread panicked".into()),
            };
            // Keep the most informative worker error: a failing worker
            // tears down its link, so its *peers* (and itself, once the
            // coordinator drops the links) often report derivative
            // `Transport(Closed)` errors — don't let those overwrite a
            // root cause.
            let keep_new = match (&worker_err, &err) {
                (None, _) => true,
                (Some(ClusterError::Transport(_)), e) => !matches!(e, ClusterError::Transport(_)),
                _ => false,
            };
            if keep_new {
                worker_err = Some(err);
            }
        }
        match (coord, worker_err) {
            (Ok(run), None) => Ok(run),
            (Ok(_), Some(e)) => Err(e),
            // A dead worker surfaces at the coordinator as a transport
            // failure (closed link / read timeout); the worker's own
            // error is the root cause — prefer it.
            (Err(ClusterError::Transport(_)), Some(e)) => Err(e),
            (Err(e), _) => Err(e),
        }
    })
}

/// The coordinator's driver: runs a [`Coordinator`] over `links`, link
/// `k` serving node `k`. Each round's model goes out through
/// [`Transport::send_broadcast`], one call per link, and each replica is
/// folded straight from the link that lends it.
pub(crate) fn coordinate<L: Loss, T: Transport>(
    links: &mut [T],
    plan: &Rearranged,
    obj: &Objective<L>,
    cfg: &ClusterConfig,
) -> Result<ClusterRun, ClusterError> {
    let mut coord = Coordinator::new(plan, obj, cfg)?;
    loop {
        match coord.poll() {
            CoordinatorStep::Broadcast(mut model) => {
                for (k, link) in links.iter_mut().enumerate() {
                    link.send(&model.barrier(k as u32))?;
                    link.send_broadcast(k as u32, &mut model)?;
                }
            }
            CoordinatorStep::Collect(k) => {
                let mut lent = Ok(());
                #[expect(
                    clippy::disallowed_methods,
                    reason = "fleet links arm Tcp round deadlines; in process, the Coordinator machine this loop feeds is deadlock-checked by isasgd-check"
                )]
                let msg = links[k].recv_lending(&mut |node, round, replica| {
                    lent = coord.lend(node, round, replica);
                })?;
                lent?;
                if let Some(msg) = msg {
                    coord.on(msg)?;
                }
            }
            CoordinatorStep::Done => break,
        }
    }
    // Per-link wire counters, where the transport keeps them (real
    // sockets do; typed channels report nothing), and per-slot recovery
    // footprints, where it supervises (the fleet's links do). Links
    // live in slot order (the fleet admits slot 0, then 1, …), so these
    // collections — and everything downstream that renders them — are
    // ordered by node id (pinned by `tests/process_fleet.rs`).
    let net = links.iter().filter_map(|l| l.stats()).collect();
    let recovery = links.iter().filter_map(|l| l.recovery()).collect();
    Ok(coord.finish(net, recovery))
}

/// One worker's driver: sends what `worker` returns, handing each frame
/// back once it is sent, and reads `link` one frame at a time while the
/// worker awaits one, until it has sent its last round.
pub(crate) fn drive_worker<L: Loss, T: Transport>(
    mut link: T,
    mut worker: Worker<'_, L>,
) -> Result<(), ClusterError> {
    loop {
        while let Some(frame) = worker.next_send()? {
            link.send(&frame)?;
            worker.sent(frame);
        }
        if worker.finished() {
            return Ok(());
        }
        let mut lent = Ok(());
        #[expect(
            clippy::disallowed_methods,
            reason = "the worker's link is deadline-armed by its owner (Tcp) or in-process, where the Worker machine's barrier wait is isasgd-check's flagship no-deadlock invariant"
        )]
        let msg = link.recv_lending(&mut |node, round, model| {
            lent = worker.lend(node, round, model);
        })?;
        lent?;
        if let Some(msg) = msg {
            worker.on(msg)?;
        }
    }
}

/// What the [`Coordinator`] asks of its driver next.
pub enum CoordinatorStep<'c> {
    /// Send every link `k`, in link order, the round's
    /// [`Broadcast::barrier`] and then the round model itself.
    Broadcast(Broadcast<'c>),
    /// Receive from link `k`, handing a lent round model to
    /// [`Coordinator::lend`] and any other frame to [`Coordinator::on`].
    Collect(usize),
    /// Every round is done: [`Coordinator::finish`] the run.
    Done,
}

/// Where the [`Coordinator`] is in its round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// Before the first round.
    Start,
    /// The round's broadcast is out.
    Sent,
    /// Collecting link `Coordinator::link`.
    Collect,
    /// Every link's replica is in.
    Ended,
    Done,
}

/// The coordinator as a machine: owns the round barriers, model
/// averaging, consensus evaluation and the feedback mirror. It names
/// the link it is collecting from, folds each replica as it is lent, in
/// link order, and at round end evaluates the consensus and returns
/// the next round's broadcast.
pub struct Coordinator<'a, L: Loss> {
    plan: &'a Rearranged,
    obj: &'a Objective<L>,
    cfg: &'a ClusterConfig,
    adaptive: bool,
    phi_imbalance: f64,
    shard_sizes: Vec<usize>,
    /// The coordinator's consensus view of every node's adaptive
    /// distribution (Alain et al.: per-node importance observations
    /// flow back to a coordinator). Mirrors fold at round boundaries
    /// only — within a round, per-row max accumulation makes duplicated
    /// FeedbackBatch deliveries idempotent (pinned by the fault tests).
    /// Workers ship observations already scaled, so the mirror needs
    /// the shard ranges and nothing else.
    mirrors: Vec<AdaptiveIsSampler>,
    trace: Trace,
    /// The round's consensus, in the storage every link it is sent on
    /// keeps as its tx base (and a fleet's replay log keeps as sent).
    consensus: Arc<[f64]>,
    /// The sum of the round's replicas, in the storage of the consensus
    /// before this one once no link or log holds it any more.
    sum: Arc<[f64]>,
    /// The broadcast's frame buffer, kept across rounds.
    frame: Vec<u8>,
    round: usize,
    stage: Stage,
    /// The link being collected, and what of its round it sent so far.
    link: usize,
    have_model: bool,
    have_feedback: bool,
    t0: Instant,
    train_secs: f64,
    feedback_rows: usize,
    /// Worker timing frames, as the collection receives them.
    telemetry: Vec<TelemetrySample>,
}

#[expect(
    clippy::disallowed_methods,
    reason = "measures reported train_secs only; no control-flow or results depend on it"
)]
fn now() -> Instant {
    Instant::now()
}

impl<'a, L: Loss> Coordinator<'a, L> {
    /// The coordinator of a run planned as `plan`, with its initial
    /// consensus (zeros) evaluated.
    pub fn new(
        plan: &'a Rearranged,
        obj: &'a Objective<L>,
        cfg: &'a ClusterConfig,
    ) -> Result<Self, ClusterError> {
        let ranges = &plan.ranges;
        let weights = &plan.weights;
        let strategy = cfg.importance.effective_sampling(cfg.sampling);
        let phis: Vec<f64> = ranges
            .iter()
            .map(|r| weights[r.clone()].iter().sum())
            .collect();
        let mean_phi: f64 = phis.iter().sum::<f64>() / cfg.nodes as f64;
        let max_phi = phis.iter().copied().fold(0.0, f64::max);
        let phi_imbalance = if mean_phi > 0.0 {
            max_phi / mean_phi
        } else {
            1.0
        };
        let adaptive = strategy == SamplingStrategy::Adaptive;
        let mirrors = if adaptive {
            ranges
                .iter()
                .map(|r| AdaptiveIsSampler::new(&weights[r.clone()]))
                .collect::<Result<_, _>>()
                .map_err(|e| ClusterError::InvalidConfig(e.to_string()))?
        } else {
            Vec::new()
        };
        let mut trace = Trace::new(
            match strategy {
                SamplingStrategy::Uniform => "Cluster-SGD",
                SamplingStrategy::Static => "Cluster-IS-SGD",
                SamplingStrategy::Adaptive => "Cluster-AIS-SGD",
            },
            "cluster",
            cfg.nodes,
            cfg.step_size,
        );
        let consensus = zeroed(plan.data.dim());
        let m0 = obj.eval(&plan.data, &consensus);
        trace.push(TracePoint {
            epoch: 0.0,
            wall_secs: 0.0,
            objective: m0.objective,
            rmse: m0.rmse,
            error_rate: m0.error_rate,
        });
        Ok(Coordinator {
            plan,
            obj,
            cfg,
            adaptive,
            phi_imbalance,
            shard_sizes: ranges.iter().map(|r| r.len()).collect(),
            mirrors,
            trace,
            consensus,
            sum: Arc::default(),
            frame: Vec::new(),
            round: 0,
            stage: Stage::Start,
            link: 0,
            have_model: false,
            have_feedback: false,
            t0: now(),
            train_secs: 0.0,
            feedback_rows: 0,
            telemetry: Vec::new(),
        })
    }

    /// What the driver does next. A round's broadcast is returned once;
    /// the first poll after it (its sends are out) folds the last
    /// round's feedback into the mirrors and clears the replica sum
    /// while the workers train, and the first poll after the last
    /// link's replica evaluates the round.
    pub fn poll(&mut self) -> CoordinatorStep<'_> {
        match self.stage {
            Stage::Start => self.start_round(),
            Stage::Sent => {
                self.begin_collect();
                CoordinatorStep::Collect(self.link)
            }
            Stage::Collect => CoordinatorStep::Collect(self.link),
            Stage::Ended => {
                self.end_round();
                self.start_round()
            }
            Stage::Done => CoordinatorStep::Done,
        }
    }

    fn start_round(&mut self) -> CoordinatorStep<'_> {
        if self.round == self.cfg.rounds {
            self.stage = Stage::Done;
            return CoordinatorStep::Done;
        }
        self.round += 1;
        isasgd_obs::emit(&Event::RoundStart {
            round: self.round as u64,
            nodes: self.cfg.nodes as u64,
        });
        self.t0 = now();
        self.stage = Stage::Sent;
        // One model per round, addressed per link by its `node` alone:
        // links on the same tx base write the same frame.
        CoordinatorStep::Broadcast(Broadcast::new(
            self.round as u64,
            &self.consensus,
            &mut self.frame,
        ))
    }

    fn begin_collect(&mut self) {
        // Nothing reads the mirrors before the run is done.
        for m in self.mirrors.iter_mut() {
            m.epoch_reset();
        }
        // The sum's storage: the last round's consensus, now that the
        // links moved their tx bases on to this round's — unless a
        // replay log still holds it (or there is none yet), then fresh
        // zeros.
        let d = self.consensus.len();
        if self.sum.len() != d || Arc::get_mut(&mut self.sum).is_none() {
            self.sum = zeroed(d);
        }
        Arc::make_mut(&mut self.sum).fill(0.0);
        self.stage = Stage::Collect;
        self.link = 0;
        self.have_model = false;
        self.have_feedback = !self.adaptive;
    }

    /// A round model lent by the link being collected: this round's
    /// first is folded into the sum — `average_models`' sum, term for
    /// term — and any other dropped as a stale tag or a duplicate. A
    /// replica of another dim than the model's is refused.
    pub fn lend(&mut self, _node: u32, round: u64, replica: &[f64]) -> Result<(), ClusterError> {
        if self.stage != Stage::Collect || round != self.round as u64 || self.have_model {
            return Ok(());
        }
        let d = self.consensus.len();
        if replica.len() != d {
            return Err(ClusterError::Worker(format!(
                "round {round}: node {} sent a replica of dim {} != model dim {d}",
                self.link,
                replica.len()
            )));
        }
        let sum = Arc::make_mut(&mut self.sum);
        let (sync, nodes) = (self.cfg.sync, self.cfg.nodes);
        fold_model(sum, replica, sync, self.link, nodes, &self.shard_sizes);
        self.have_model = true;
        self.next_link();
        Ok(())
    }

    /// Any other frame from the link being collected: this round's
    /// feedback batch feeds the link's mirror (every delivery, as the
    /// per-row max absorbs a duplicate), a timing frame is recorded,
    /// and the rest is dropped.
    pub fn on(&mut self, msg: Message) -> Result<(), ClusterError> {
        match msg {
            Message::ModelUpdate { node, round, model } => return self.lend(node, round, &model),
            Message::FeedbackBatch {
                round,
                observations,
                ..
            } if self.stage == Stage::Collect && round == self.round as u64 => {
                let k = self.link;
                // Link `k` speaks for shard `k` only: a row of any other
                // shard is dropped, whoever names it.
                if let Some(mirror) = self.mirrors.get_mut(k) {
                    let range = &self.plan.ranges[k];
                    for (row, obs) in observations {
                        let row = row as usize;
                        if range.contains(&row) {
                            mirror.update_weight(row - range.start, obs);
                            self.feedback_rows += 1;
                        }
                    }
                }
                self.have_feedback = true;
                self.next_link();
            }
            Message::Telemetry {
                node,
                round,
                timing,
            } => {
                isasgd_obs::emit(&Event::WorkerTiming {
                    node: u64::from(node),
                    round,
                    compute_us: timing.compute_us,
                    barrier_wait_us: timing.barrier_wait_us,
                    rows: timing.rows,
                    commits: timing.commits,
                });
                self.telemetry.push(TelemetrySample {
                    node,
                    round,
                    timing,
                });
            }
            _ => {}
        }
        Ok(())
    }

    /// Moves on once the link being collected sent its replica (and,
    /// for adaptive runs, its feedback batch).
    fn next_link(&mut self) {
        if !(self.have_model && self.have_feedback) {
            return;
        }
        self.link += 1;
        self.have_model = false;
        self.have_feedback = !self.adaptive;
        if self.link == self.cfg.nodes {
            self.stage = Stage::Ended;
        }
    }

    fn end_round(&mut self) {
        let round_secs = self.t0.elapsed().as_secs_f64();
        self.train_secs += round_secs;
        std::mem::swap(&mut self.consensus, &mut self.sum);
        let m = self.obj.eval(&self.plan.data, &self.consensus);
        self.trace.push(TracePoint {
            epoch: (self.round * self.cfg.local_epochs) as f64,
            wall_secs: self.train_secs,
            objective: m.objective,
            rmse: m.rmse,
            error_rate: m.error_rate,
        });
        isasgd_obs::emit(&Event::RoundEnd {
            round: self.round as u64,
            objective: m.objective,
            rmse: m.rmse,
            error_rate: m.error_rate,
            wall_us: (round_secs * 1e6) as u64,
        });
    }

    /// The feedback mirrors, one per link on adaptive runs (none
    /// otherwise). A round's feedback is pending in them until the next
    /// round's collection starts — or [`Coordinator::finish`], for the
    /// last round's — and folds it in.
    pub fn mirrors(&self) -> &[AdaptiveIsSampler] {
        &self.mirrors
    }

    /// The run's result, once [`Coordinator::poll`] says it is done:
    /// `net` holds the links' traffic counters and `recovery` their
    /// respawn footprints, for the transports that keep them.
    pub fn finish(mut self, net: Vec<LinkStats>, recovery: Vec<RecoveryFootprint>) -> ClusterRun {
        // The mirror's view of shard importance after all feedback
        // landed (the last round's folded here) — max/mean of the
        // mirrored per-shard mass, 1.0 meaning the observed
        // distributions stayed balanced.
        for m in self.mirrors.iter_mut() {
            m.epoch_reset();
        }
        let observed_phi_imbalance = self.adaptive.then(|| {
            let sums: Vec<f64> = self
                .mirrors
                .iter()
                .zip(&self.plan.ranges)
                .map(|(m, r)| (0..r.len()).map(|i| m.weight(i)).sum())
                .collect();
            let mean: f64 = sums.iter().sum::<f64>() / sums.len().max(1) as f64;
            let max = sums.iter().copied().fold(0.0, f64::max);
            if mean > 0.0 {
                max / mean
            } else {
                1.0
            }
        });
        if let Some(phi) = observed_phi_imbalance {
            isasgd_obs::emit(&Event::SamplerCommit {
                feedback_rows: self.feedback_rows as u64,
                observed_phi_imbalance: phi,
            });
        }
        for (k, stats) in net.iter().enumerate() {
            isasgd_obs::emit(&Event::NetSummary {
                node: k as u64,
                tx_bytes: stats.tx_total_bytes(),
                rx_bytes: stats.rx_total_bytes(),
                summary: stats.summary(),
            });
        }
        ClusterRun {
            trace: self.trace,
            model: self.consensus.to_vec(),
            phi_imbalance: self.phi_imbalance,
            balanced: self.plan.balanced,
            rho: self.plan.rho,
            feedback_rows: self.feedback_rows,
            observed_phi_imbalance,
            net,
            recovery,
            telemetry: self.telemetry,
        }
    }
}

/// A model of `d` zeros, in one allocation.
fn zeroed(d: usize) -> Arc<[f64]> {
    (0..d).map(|_| 0.0).collect()
}

/// The only thing a worker is ever given to train on: rows, their
/// importance weights, and where they sit in the rearranged dataset.
/// In-process workers borrow it from the coordinator's plan, process
/// workers from the shard they decoded off the wire.
#[derive(Debug)]
pub(crate) struct ShardInput<'a> {
    /// Storage holding at least the rows of `range`.
    pub rows: &'a Dataset,
    /// Global (rearranged-dataset) row id of `rows.row(0)`.
    pub row_base: usize,
    /// Importance weight of each row of `range`, in order.
    pub weights: &'a [f64],
    /// The global row range the supplier claims this node owns.
    pub range: Range<usize>,
}

impl<'a> ShardInput<'a> {
    /// Node `k`'s training input, borrowed zero-copy from the plan.
    fn of(plan: &'a Rearranged, k: usize) -> Self {
        let range = plan.ranges[k].clone();
        ShardInput {
            rows: &plan.data,
            row_base: 0,
            weights: &plan.weights[range.clone()],
            range,
        }
    }
}

/// Where a [`Worker`] is in its round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Awaiting the round's barrier and model (or a checkpoint).
    Await,
    /// The round is trained and its frames are going out.
    Out,
    Done,
}

/// One worker as a machine: node `k` trains shard `k`, runs local
/// (IS-)SGD epochs on its own [`ScheduleStream`], and reports its
/// replica and importance observations every round. It reads only what
/// crosses the wire: frames, its shard, and the [`SessionConfig`] — the
/// coordinator-only half of a `ClusterConfig` (balance, sync,
/// transport) never reaches it.
pub struct Worker<'a, L: Loss> {
    obj: &'a Objective<L>,
    cfg: SessionConfig,
    id: u32,
    rows: &'a Dataset,
    row_base: usize,
    /// The shard's configured importance weights, one per row.
    base: &'a [f64],
    range: Range<usize>,
    window: RowWindow,
    /// One pull of draws.
    draws: Vec<Draw>,
    /// Draws per pull: one while commits steer the epoch's own
    /// remaining draws, a gathered window otherwise.
    pull: usize,
    stream: ScheduleStream,
    adaptive: bool,
    /// The replica; lent out in the round's `ModelUpdate` until it is
    /// sent.
    model: Vec<f64>,
    /// Per-round observation gather for the coordinator's mirror:
    /// per-row max of the scaled observations, the same reduction the
    /// sampler applies, so a batch replay is idempotent.
    obs_max: Vec<f64>,
    visited: Vec<bool>,
    /// The round awaited, trained or sent.
    round: u64,
    phase: Phase,
    barrier: bool,
    consensus: bool,
    /// The frames still to send, in order.
    out: VecDeque<Message>,
    /// When the wait for the round's start began (telemetry only).
    wait_t0: u64,
    /// Chaos hook: fail right after this round starts, simulating a
    /// worker crash mid-round (drives the fleet's supervision tests and
    /// `--chaos-kill`).
    die_at_round: Option<u64>,
}

// The worker acts on what frames carry (node id, checkpoint state,
// models): decode scope (README, *Static guarantees*).
#[deny(clippy::indexing_slicing, clippy::cast_possible_truncation)]
impl<'a, L: Loss> Worker<'a, L> {
    /// Node `node`'s worker on `shard`, under session `cfg`.
    ///
    /// A supplier whose `shard` does not hold a weight and a row for
    /// every row of its range is refused, whoever the supplier is, and
    /// so is a node id the session has no shard for. Nothing global is
    /// recomputed here: weights are the exact bits the coordinator's
    /// plan holds, and per-row feature norms are row-local, so every
    /// transport trains bit-identically.
    pub(crate) fn new(
        node: usize,
        shard: ShardInput<'a>,
        obj: &'a Objective<L>,
        cfg: &SessionConfig,
    ) -> Result<Self, ClusterError> {
        let ShardInput {
            rows,
            row_base,
            weights: base,
            range,
        } = shard;
        if base.len() != range.len() {
            return Err(ClusterError::Worker(format!(
                "{} streamed weights for {} shard rows",
                base.len(),
                range.len()
            )));
        }
        if row_base > range.start || row_base + rows.n_samples() < range.end {
            return Err(ClusterError::Worker(format!(
                "supplied rows {}..{} do not hold the shard {}..{}",
                row_base,
                row_base + rows.n_samples(),
                range.start,
                range.end
            )));
        }
        // Built before the session's working set (RowWindow's docs).
        let window = RowWindow::with_row_capacity(rows.max_row_nnz());
        let draws = Vec::with_capacity(RowWindow::ROWS);
        // Node `k` trains shard `k` of the session's `cfg.nodes`. A node
        // id the session does not have (an `Assign` naming a worker past
        // the node count) is refused here, by the one constructor that
        // owns the seed layout.
        let spec = ShardSpec {
            shard: node,
            shards: cfg.nodes as usize,
            seed: cfg.seed,
            range: range.clone(),
            strategy: cfg.importance.effective_sampling(cfg.sampling),
            weights: Some(base),
            sequence: SequenceMode::RegeneratePerEpoch,
            commit: cfg.commit,
        };
        let norms_sq = range.clone().map(|row| rows.row(row - row_base).norm_sq());
        let stream = ScheduleStream::for_shard(spec, norms_sq).map_err(|e| match e {
            SamplingError::ShardOutOfRange { .. } => {
                ClusterError::Worker(format!("assignment refused: {e}"))
            }
            e => ClusterError::InvalidConfig(e.to_string()),
        })?;
        let adaptive = stream.sampler().is_adaptive();
        let pull = if adaptive && matches!(cfg.commit, CommitPolicy::EveryK(_)) {
            1
        } else {
            RowWindow::ROWS
        };
        let model = vec![0.0; rows.dim()];
        let obs_max = vec![f64::NEG_INFINITY; range.len()];
        let visited = vec![false; range.len()];
        Ok(Worker {
            obj,
            cfg: cfg.clone(),
            #[expect(
                clippy::cast_possible_truncation,
                reason = "the slot index this worker was built for, not wire data; the ShardSpec above refused one past the session's u32 node count"
            )]
            id: node as u32,
            rows,
            row_base,
            base,
            range,
            window,
            draws,
            pull,
            stream,
            adaptive,
            model,
            obs_max,
            visited,
            round: 1,
            phase: Phase::Await,
            barrier: false,
            consensus: false,
            out: VecDeque::new(),
            wait_t0: clock(cfg.telemetry),
            die_at_round: None,
        })
    }

    /// Node `k`'s worker beside a coordinator in the same process: it
    /// trains shard `k` of `plan`, borrowed, under the session `cfg`
    /// would put in an `Assign` frame.
    pub fn in_plan(
        plan: &'a Rearranged,
        k: usize,
        obj: &'a Objective<L>,
        cfg: &ClusterConfig,
    ) -> Result<Self, ClusterError> {
        Self::new(k, ShardInput::of(plan, k), obj, &cfg.session(obj))
    }

    /// Arms the chaos hook: the worker fails (its driver dropping the
    /// link, which a remote coordinator observes as a dead worker)
    /// right after round `round` starts.
    pub(crate) fn with_chaos_kill(mut self, round: Option<u64>) -> Self {
        self.die_at_round = round;
        self
    }

    /// A round model lent by the link: the awaited round's first is
    /// copied into the replica — refused when its dim is not the
    /// model's — and any other dropped as a stale tag or a duplicate.
    pub fn lend(&mut self, _node: u32, round: u64, model: &[f64]) -> Result<(), ClusterError> {
        if self.phase != Phase::Await || round != self.round || self.consensus {
            return Ok(());
        }
        if model.len() != self.model.len() {
            return Err(ClusterError::Worker(format!(
                "round {round}: consensus dim {} != model dim {}",
                model.len(),
                self.model.len()
            )));
        }
        self.model.copy_from_slice(model);
        self.consensus = true;
        Ok(())
    }

    /// Any other frame: the awaited round's barrier is noted, and a
    /// checkpoint of the awaited round or later — a respawn replay's
    /// first frame — is installed, the worker resuming from the round
    /// after it. Everything else is dropped.
    pub fn on(&mut self, msg: Message) -> Result<(), ClusterError> {
        match msg {
            Message::ModelUpdate { node, round, model } => self.lend(node, round, &model),
            Message::RoundBarrier { round, .. } if round == self.round => {
                self.barrier = true;
                Ok(())
            }
            Message::Checkpoint { round, state, .. }
                if self.phase == Phase::Await && round >= self.round =>
            {
                restore_checkpoint(round, *state, self.base, &mut self.stream)?;
                self.await_round(round.saturating_add(1));
                Ok(())
            }
            _ => Ok(()),
        }
    }

    /// The next frame to send, if the worker has one: the frames of a
    /// round whose start is complete — its training runs inside the
    /// call that finds the start complete — then, once the replica is
    /// back ([`Worker::sent`]), the round's checkpoint when one is due.
    /// `None` while the worker awaits a frame or the replica's return,
    /// and once it is finished.
    pub fn next_send(&mut self) -> Result<Option<Message>, ClusterError> {
        if self.out.is_empty() && self.phase == Phase::Await && self.barrier && self.consensus {
            self.train()?;
        }
        Ok(self.out.pop_front())
    }

    /// Hands back a frame [`Worker::next_send`] returned, once it is
    /// sent. The replica's storage returns to the worker, which then —
    /// off the round's critical path, as the coordinator is collecting
    /// and averaging meanwhile — commits its sampler for the next round
    /// and queues the round's checkpoint when one is due. Nothing reads
    /// the sampler or the replica after the last round's sends.
    pub fn sent(&mut self, frame: Message) {
        let Message::ModelUpdate { model, .. } = frame else {
            return;
        };
        self.model = model;
        if self.round >= self.cfg.rounds {
            self.phase = Phase::Done;
            return;
        }
        self.stream.epoch_reset();
        // Periodic state checkpoint, after the round's update so the
        // coordinator absorbs it while collecting the *next* round
        // (hence none at the final round — there would be no collect
        // left to absorb it). Snapshotting never mutates the stream, so
        // emission cannot perturb the computation: runs are
        // bit-identical with checkpointing on or off.
        let every = self.cfg.checkpoint_every;
        if every > 0 && self.round.is_multiple_of(every) {
            let checkpoint = self.checkpoint();
            self.out.push_back(checkpoint);
        }
        self.await_round(self.round + 1);
    }

    /// Whether the worker sent its last round's frames.
    pub fn finished(&self) -> bool {
        self.phase == Phase::Done
    }

    fn await_round(&mut self, round: u64) {
        self.round = round;
        self.barrier = false;
        self.consensus = false;
        self.phase = if round > self.cfg.rounds {
            Phase::Done
        } else {
            Phase::Await
        };
        self.wait_t0 = clock(self.cfg.telemetry);
    }

    /// Trains the awaited round and queues its frames: the feedback
    /// batch (adaptive runs), the timing frame (telemetry runs) and the
    /// replica, lent to its `ModelUpdate` until it is sent.
    fn train(&mut self) -> Result<(), ClusterError> {
        let (round, telemetry) = (self.round, self.cfg.telemetry);
        let barrier_wait_us = clock(telemetry).saturating_sub(self.wait_t0);
        if self.die_at_round == Some(round) {
            // Chaos hook: abort mid-round. The driver returns, dropping
            // the link; over a socket the peer observes exactly what a
            // killed process would produce.
            return Err(ClusterError::Worker(format!(
                "chaos kill: worker {} aborted at round {round}",
                self.id
            )));
        }
        if self.adaptive {
            self.obs_max.fill(f64::NEG_INFINITY);
            self.visited.fill(false);
        }
        let compute_t0 = clock(telemetry);
        for epoch in 0..self.cfg.local_epochs {
            // Commits between local epochs; the round's last one waits
            // until the round's frames are sent.
            if epoch > 0 {
                self.stream.epoch_reset();
            }
            self.local_epoch();
        }
        let compute_us = clock(telemetry).saturating_sub(compute_t0);
        let mut commits = 0u64;
        if self.adaptive {
            let observations: Vec<(u32, f64)> = self
                .range
                .clone()
                .zip(self.visited.iter().zip(&self.obs_max))
                .filter(|&(_, (&v, _))| v)
                .map(|(row, (_, &observed))| (wire_row(row), observed))
                .collect();
            commits = observations.len() as u64;
            self.out.push_back(Message::FeedbackBatch {
                node: self.id,
                round,
                observations,
            });
        }
        // The round's timing goes *before* the replica: the
        // coordinator's collection of this round is still draining (it
        // has not seen the ModelUpdate yet), so it records the frame —
        // for every round, including the last.
        if telemetry {
            isasgd_obs::emit(&Event::BarrierWait {
                node: u64::from(self.id),
                round,
                wait_us: barrier_wait_us,
            });
            self.out.push_back(Message::Telemetry {
                node: self.id,
                round,
                timing: WorkerTiming {
                    compute_us,
                    barrier_wait_us,
                    rows: u64::from(self.cfg.local_epochs) * self.range.len() as u64,
                    commits,
                },
            });
        }
        self.out.push_back(Message::ModelUpdate {
            node: self.id,
            round,
            model: std::mem::take(&mut self.model),
        });
        self.phase = Phase::Out;
        Ok(())
    }

    /// The round's checkpoint: the draw stream and the sampler, its
    /// adaptive weights as a diff against the shard's. The replica
    /// stays out: the next round's consensus overwrites all of it
    /// before anything reads it.
    fn checkpoint(&self) -> Message {
        let rows = wire_row(self.range.len());
        let sampler = match self.stream.sampler().snapshot() {
            SamplerSnapshot::Sequence { rng, indices } => {
                CheckpointSampler::Sequence { rows, rng, indices }
            }
            SamplerSnapshot::Adaptive { weights, commits } => {
                // Ship only rows whose weight moved off the configured
                // base — bitwise, so the restored dense vector
                // reproduces `weights` exactly.
                let (indices, weights) = delta_coords(self.base, &weights);
                CheckpointSampler::Adaptive {
                    rows,
                    commits,
                    indices,
                    weights,
                }
            }
        };
        Message::Checkpoint {
            node: self.id,
            round: self.round,
            state: Box::new(CheckpointState {
                draw_rng: self.stream.rng_state(),
                sampler,
            }),
        }
    }
}

/// A monotonic microsecond clock read when `on`, else 0: with telemetry
/// off not a single clock read happens on the round path, so the
/// bit-identity contract stays trivially true.
fn clock(on: bool) -> u64 {
    if on {
        monotonic_us()
    } else {
        0
    }
}

/// Installs the checkpoint of round `round` into a worker's draw
/// stream. The sampler state is checked against the shard's `base`
/// weights (one per row) before it is installed.
#[deny(clippy::indexing_slicing, clippy::cast_possible_truncation)]
fn restore_checkpoint(
    round: u64,
    state: CheckpointState,
    base: &[f64],
    stream: &mut ScheduleStream,
) -> Result<(), ClusterError> {
    let refuse = |what: String| ClusterError::Worker(format!("checkpoint round {round}: {what}"));
    let rows = match &state.sampler {
        CheckpointSampler::Sequence { rows, .. } | CheckpointSampler::Adaptive { rows, .. } => {
            *rows
        }
    };
    if rows as usize != base.len() {
        return Err(refuse(format!("{rows} rows != shard {}", base.len())));
    }
    let snap = match state.sampler {
        CheckpointSampler::Sequence { rng, indices, .. } => {
            SamplerSnapshot::Sequence { rng, indices }
        }
        CheckpointSampler::Adaptive {
            commits,
            indices,
            weights,
            ..
        } => {
            // Sparse diff against the configured base weights; wire
            // decode guarantees in-bounds strictly increasing indices
            // and finite weights.
            let weights = apply_delta(base, &indices, &weights)
                .ok_or_else(|| refuse("weight index outside the shard".into()))?;
            SamplerSnapshot::Adaptive { weights, commits }
        }
    };
    stream
        .sampler_mut()
        .restore(snap)
        .map_err(|e| ClusterError::Worker(format!("checkpoint restore: {e}")))?;
    stream.set_rng_state(state.draw_rng);
    Ok(())
}

impl<L: Loss> Worker<'_, L> {
    /// One local epoch of sequential (IS-)SGD on the node's shard, drawn
    /// through the node's [`ScheduleStream`] `pull` draws at a time, each
    /// pull stepped through a [`RowWindow`] of its gathered rows (a draw's
    /// global row is storage row `row - row_base`). Each observed gradient
    /// scale goes back through [`ScheduleStream::observe`] — the single
    /// scaling convention this runtime shares with the `isasgd-core`
    /// engine — which feeds the stream's own sampler and is a no-op for
    /// uniform/static sampling. Under intra-epoch commits the worker pulls
    /// one draw at a time: the sampler re-weights mid-epoch and the very
    /// next draw sees it, matching the engine's sequential streaming path
    /// draw-for-draw; otherwise the distribution is frozen all epoch, so a
    /// window of [`RowWindow::ROWS`] draws is the same draws. The scaled
    /// observations are additionally max-reduced into `obs_max`/`visited`
    /// for the round's [`Message::FeedbackBatch`].
    fn local_epoch(&mut self) {
        let Worker {
            obj,
            cfg,
            rows,
            row_base,
            window,
            draws,
            pull,
            stream,
            model,
            obs_max,
            visited,
            ..
        } = self;
        let (obj, row_base, lambda) = (*obj, *row_base, cfg.step_size);
        let model = model.as_mut_slice();
        let start = stream.range().start;
        while stream.fill_chunk(draws, *pull) > 0 {
            let row_of = |d: &Draw| d.row as usize - row_base;
            window.walk(rows, draws, row_of, |d, row| {
                let g = sgd_step(obj, row, lambda * d.corr, model);
                if let Some(observed) = stream.observe(d.row as usize, g.abs()) {
                    let local = d.row as usize - start;
                    obs_max[local] = obs_max[local].max(observed);
                    visited[local] = true;
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isasgd_losses::{ImportanceScheme, LogisticLoss, Regularizer};
    use isasgd_sampling::CommitPolicy;
    use isasgd_sparse::DatasetBuilder;

    /// Rows with support in features 0..8 of a `dim`-feature set.
    fn skewed(n: usize, dim: usize) -> Dataset {
        let mut b = DatasetBuilder::new(dim);
        for i in 0..n {
            let norm = if i % 10 == 0 { 6.0 } else { 0.3 };
            let j = (i % 4) as u32;
            let y = if i % 2 == 0 { 1.0 } else { -1.0 };
            b.push_row(&[(j, y * norm), (4 + j, 0.5 * y * norm)], y)
                .unwrap();
        }
        b.finish()
    }

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

    /// A worker handed rows or weights that do not cover its shard, or
    /// a node id its session has no shard for, must refuse with a typed
    /// error instead of silently training other rows than the
    /// coordinator evaluates — whoever the supplier is. A process
    /// worker builds the same [`Worker`] under the node id of its
    /// `Assign` frame.
    #[test]
    fn worker_refuses_a_shard_that_disagrees_with_its_assignment() {
        let ds = skewed(60, 8);
        let weights = vec![1.0; 60];
        let (o, cfg) = (obj(), adaptive_cfg(1));
        let session = cfg.session(&o);
        let refusal_of =
            |node: usize, rows: &Dataset, range: std::ops::Range<usize>, weights: &[f64]| {
                let shard = ShardInput {
                    rows,
                    row_base: 0,
                    weights,
                    range,
                };
                match Worker::new(node, shard, &o, &session) {
                    Err(ClusterError::Worker(msg)) => msg,
                    other => panic!(
                        "expected a typed worker refusal, got {:?}",
                        other.map(|_| "a worker")
                    ),
                }
            };
        let msg = refusal_of(0, &ds, 0..60, &weights[1..]);
        assert!(
            msg.contains("59 streamed weights for 60 shard rows"),
            "{msg}"
        );
        let msg = refusal_of(0, &skewed(30, 8), 0..60, &weights);
        assert!(
            msg.contains("rows 0..30 do not hold the shard 0..60"),
            "{msg}"
        );
        // `Assign { worker: 2 }` on a one-node session: the shard agrees
        // with its range, so only the shard count can refuse it.
        let msg = refusal_of(2, &ds, 40..60, &weights[40..]);
        assert!(
            msg.contains("shard 2 is not one of the run's 1 shards"),
            "{msg}"
        );
    }

    /// Feeds one worker on 60 rows of `ds` a session by hand, as its
    /// coordinator would: `head` first (a respawn replay's checkpoint),
    /// then rounds `from..=rounds`, each starting from `consensus` — the
    /// last replica received, as a one-node average is. With `poison`,
    /// the replica is all NaN right after `head` is installed. Returns
    /// the replicas and the checkpoints the worker sent.
    fn drive(
        ds: &Dataset,
        cfg: &ClusterConfig,
        head: Option<Message>,
        poison: bool,
        from: u64,
        mut consensus: Vec<f64>,
    ) -> (Vec<Vec<f64>>, Vec<Message>) {
        let weights: Vec<f64> = (0..60).map(|i| 1.0 + (i % 7) as f64).collect();
        let o = obj();
        let shard = ShardInput {
            rows: ds,
            row_base: 0,
            weights: &weights,
            range: 0..60,
        };
        let mut worker = Worker::new(0, shard, &o, &cfg.session(&o)).unwrap();
        if let Some(m) = head {
            worker.on(m).unwrap();
        }
        if poison {
            worker.model.fill(f64::NAN);
        }
        let (mut replicas, mut checkpoints) = (Vec::new(), Vec::new());
        for round in from..=cfg.rounds as u64 {
            worker.on(Message::RoundBarrier { node: 0, round }).unwrap();
            worker
                .on(Message::ModelUpdate {
                    node: 0,
                    round,
                    model: consensus.clone(),
                })
                .unwrap();
            while let Some(frame) = worker.next_send().unwrap() {
                match &frame {
                    Message::ModelUpdate {
                        round: r, model, ..
                    } if *r == round => {
                        consensus = model.clone();
                        replicas.push(model.clone());
                    }
                    m @ Message::Checkpoint { .. } => checkpoints.push(m.clone()),
                    _ => {}
                }
                worker.sent(frame);
            }
        }
        (replicas, checkpoints)
    }

    /// A worker whose first frame is a checkpoint of round c — a respawn
    /// replay's shape — installs it and resumes at round c + 1: every
    /// replica it sends is bit-equal to the one a worker that lived
    /// through the whole session sent. It does so with its replica all
    /// NaN right after the install too — the checkpoint leaves the
    /// replica out because round c + 1's consensus overwrites it before
    /// anything reads it; a `lend` that read it would spread the NaN.
    #[test]
    fn a_worker_whose_first_frame_is_a_checkpoint_resumes_after_it() {
        let (ds, cfg) = (skewed(60, 8), checkpointing_cfg());
        let (lived, mut checkpoints) = drive(&ds, &cfg, None, false, 1, vec![0.0; 8]);
        assert_eq!((lived.len(), checkpoints.len()), (4, 1));
        let ckpt = checkpoints.pop().unwrap();
        assert!(matches!(ckpt, Message::Checkpoint { round: 2, .. }));
        let bits = |models: &[Vec<f64>]| -> Vec<Vec<u64>> {
            models
                .iter()
                .map(|m| m.iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        // A worker that missed the checkpoint would still await round 1,
        // dropping round 3's frames: it would send no replica at all.
        for poison in [false, true] {
            let (resumed, _) = drive(&ds, &cfg, Some(ckpt.clone()), poison, 3, lived[1].clone());
            assert_eq!(bits(&resumed), bits(&lived[2..]), "NaN replica: {poison}");
        }
    }

    /// A worker's checkpoint holds nothing sized by its model: the same
    /// 60 rows in a dim-8 and a dim-100 000 feature space train the same
    /// trajectory and send byte-identical checkpoints.
    #[test]
    fn a_checkpoint_is_the_same_bytes_at_any_model_dim() {
        let cfg = checkpointing_cfg();
        let checkpoints = |dim: usize| -> Vec<Vec<u8>> {
            let (_, ckpts) = drive(&skewed(60, dim), &cfg, None, false, 1, vec![0.0; dim]);
            ckpts.iter().map(Message::to_bytes).collect()
        };
        let narrow = checkpoints(8);
        assert_eq!(narrow.len(), 1);
        assert_eq!(narrow, checkpoints(100_000));
    }

    fn checkpointing_cfg() -> ClusterConfig {
        ClusterConfig {
            checkpoint_every: 2,
            ..adaptive_cfg(1)
        }
    }

    /// A replayed checkpoint whose adaptive weight diff names a row past
    /// the shard is refused by the restore (`apply_delta`'s `None`), not
    /// written out of bounds. An in-process link hands the message over
    /// undecoded, so the wire's own index bound never sees it.
    #[test]
    fn worker_refuses_a_checkpoint_weight_outside_its_shard() {
        let ds = skewed(60, 8);
        let weights = vec![1.0; 60];
        let (o, cfg) = (obj(), adaptive_cfg(1));
        let shard = ShardInput {
            rows: &ds,
            row_base: 0,
            weights: &weights,
            range: 0..60,
        };
        let mut worker = Worker::new(0, shard, &o, &cfg.session(&o)).unwrap();
        let state = CheckpointState {
            draw_rng: [1, 2, 3, 4],
            sampler: CheckpointSampler::Adaptive {
                rows: 60,
                commits: 0,
                indices: vec![3, 60],
                weights: vec![2.0, 2.0],
            },
        };
        let checkpoint = Message::Checkpoint {
            node: 0,
            round: 1,
            state: Box::new(state),
        };
        match worker.on(checkpoint) {
            Err(ClusterError::Worker(msg)) => {
                assert_eq!(msg, "checkpoint round 1: weight index outside the shard");
            }
            other => panic!("expected a typed worker refusal, got {other:?}"),
        }
    }
}
