//! The distributed runtime: the coordinator's round driver and the
//! per-node `NodeRuntime`, both generic over [`Transport`].
//!
//! This module replaced the old single-threaded round loop that called
//! node training as a plain function. The protocol, per link (one duplex
//! link per worker; link `k` serves node `k`, which trains shard `k` of
//! the plan, so no frame repeats the assignment):
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
//! Receivers are written against a weaker channel than either bundled
//! transport provides: they tolerate duplicated messages and reordering
//! within one send burst, draining until the messages they need for the
//! current round arrive and ignoring stale round tags. That tolerance is
//! what `tests/fault_injection.rs` pins with
//! [`FlakyTransport`](crate::transport::FlakyTransport).
//!
//! Determinism: each worker's draws come from its own seed-derived
//! [`ScheduleStream`], observations only ever touch the worker's own
//! sampler, and the coordinator folds the replicas into the consensus
//! in link order, whatever order they arrive in — so
//! the result is bit-identical across transports and thread schedules,
//! and a single-node run stays bit-equal to the sequential engine
//! (`tests/equivalence.rs`).

use crate::node::{validate, ClusterConfig, ClusterError, ClusterRun, ProtocolBugs};
use crate::sync::fold_model;
use crate::transport::{Broadcast, TelemetrySample, Transport};
use crate::wire::{
    apply_delta, delta_coords, CheckpointSampler, CheckpointState, Message, SessionConfig,
    WorkerTiming,
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
/// once per run before any traffic moves. The round driver evaluates
/// against it, thread-backed workers borrow their [`ShardInput`] from
/// it, and the fleet streams per-shard dataset frames from it — one
/// source, so the three can never disagree.
pub(crate) fn plan_run<L: Loss>(
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
/// Worker runtimes run on scoped threads; the coordinator drives rounds
/// on the calling thread. See [`crate::run`] for the convenience entry
/// point that wires the links from
/// [`ClusterConfig::transport`](crate::ClusterConfig).
pub fn run_with_links<L: Loss, T: Transport>(
    ds: &Dataset,
    obj: &Objective<L>,
    cfg: &ClusterConfig,
    links: Vec<(T, T)>,
) -> Result<ClusterRun, ClusterError> {
    run_with_links_observed(ds, obj, cfg, links, ProtocolBugs::default(), || {})
}

/// [`run_with_links`] with an observer called on the coordinating
/// thread the moment the round driver finishes (success or failure),
/// before link teardown and worker joins.
///
/// This is the seam the `isasgd-check` model scheduler needs: once the
/// driver is done the coordinator performs no further transport
/// operations it must be scheduled for, and the observer lets the
/// checker mark it quiescent so pending worker actions (e.g. a
/// fault-injected trailing duplicate) can be sequenced against the
/// teardown deterministically. It is also the only way in for `bugs`,
/// the checker's switches that revert historical fixes — every other
/// entry point runs with all of them off.
pub fn run_with_links_observed<L: Loss, T: Transport>(
    ds: &Dataset,
    obj: &Objective<L>,
    cfg: &ClusterConfig,
    links: Vec<(T, T)>,
    bugs: ProtocolBugs,
    on_driver_done: impl FnOnce() + Send,
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
        let handles: Vec<_> = worker_ends
            .into_iter()
            .enumerate()
            .map(|(k, link)| {
                let shard = ShardInput::of(&plan, k);
                scope.spawn(move || NodeRuntime::new(link, k).run(shard, obj, cfg))
            })
            .collect();
        let coord = coordinate(&mut coord_ends, &plan, obj, cfg);
        on_driver_done();
        // On coordinator failure, drop the links now so every blocked
        // worker `recv` unblocks with `Closed` instead of deadlocking
        // the join. On success keep them alive until the workers have
        // joined: a worker may still be emitting trailing traffic the
        // coordinator no longer needs (e.g. a fault-injected duplicate
        // of its final model), and tearing the links down under it
        // would turn that benign tail into a spurious `Closed` error.
        // (`eager_link_teardown` resurrects the historical pre-fix
        // behaviour for the model checker's regression corpus.)
        if coord.is_err() || bugs.eager_link_teardown {
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

/// The coordinator: owns the balancing decision, the round barriers,
/// model averaging, consensus evaluation, and the feedback mirror.
pub(crate) fn coordinate<L: Loss, T: Transport>(
    links: &mut [T],
    plan: &Rearranged,
    obj: &Objective<L>,
    cfg: &ClusterConfig,
) -> Result<ClusterRun, ClusterError> {
    let data = &plan.data;
    let d = data.dim();
    let ranges = &plan.ranges;
    let reordered_weights = &plan.weights;
    let strategy = cfg.importance.effective_sampling(cfg.sampling);

    let phis: Vec<f64> = ranges
        .iter()
        .map(|r| reordered_weights[r.clone()].iter().sum())
        .collect();
    let mean_phi: f64 = phis.iter().sum::<f64>() / cfg.nodes as f64;
    let max_phi = phis.iter().copied().fold(0.0, f64::max);
    let phi_imbalance = if mean_phi > 0.0 {
        max_phi / mean_phi
    } else {
        1.0
    };

    // The coordinator's consensus view of every node's adaptive
    // distribution (Alain et al.: per-node importance observations flow
    // back to a coordinator). Mirrors fold at round boundaries only —
    // within a round, per-row max accumulation makes duplicated
    // FeedbackBatch deliveries idempotent (pinned by the fault tests).
    // Workers ship observations already scaled, so the mirror needs the
    // shard ranges and nothing else.
    let adaptive = strategy == SamplingStrategy::Adaptive;
    let mut mirrors: Vec<AdaptiveIsSampler> = if adaptive {
        ranges
            .iter()
            .map(|r| AdaptiveIsSampler::new(&reordered_weights[r.clone()]))
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
    // The round's consensus, in the storage every link it is sent on
    // keeps as its tx base (and a fleet's replay log keeps as sent).
    let mut consensus = zeroed(d);
    // The consensus before it: the next one is summed into its storage
    // once no link or log holds it any more.
    let mut spare: Option<Arc<[f64]>> = None;
    // The broadcast's frame buffer, kept across rounds.
    let mut frame = Vec::new();
    let m0 = obj.eval(data, &consensus);
    trace.push(TracePoint {
        epoch: 0.0,
        wall_secs: 0.0,
        objective: m0.objective,
        rmse: m0.rmse,
        error_rate: m0.error_rate,
    });

    let mut train_secs = 0.0;
    let shard_sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
    let mut feedback_rows = 0usize;
    // Worker timing frames, as the collect loop receives them.
    let mut telemetry = Vec::new();
    for round in 1..=cfg.rounds {
        isasgd_obs::emit(&Event::RoundStart {
            round: round as u64,
            nodes: cfg.nodes as u64,
        });
        #[expect(
            clippy::disallowed_methods,
            reason = "measures reported train_secs only; no control-flow or results depend on it"
        )]
        let t0 = Instant::now();
        // One model per round, addressed per link by its `node` alone:
        // links on the same tx base write the same frame.
        let mut broadcast = Broadcast::new(round as u64, &consensus, &mut frame);
        for (k, link) in links.iter_mut().enumerate() {
            link.send(&Message::RoundBarrier {
                node: k as u32,
                round: round as u64,
            })?;
            link.send_broadcast(k as u32, &mut broadcast)?;
        }
        drop(broadcast);
        // While the workers train: fold the last round's feedback into
        // the mirrors (none reads them before the final summary), and
        // clear a buffer for this round's replicas.
        for m in mirrors.iter_mut() {
            m.epoch_reset();
        }
        // The sum's storage: the last round's consensus, now that the
        // links moved their tx bases on to this round's — unless a
        // replay log still holds it, then fresh zeros.
        let mut next = spare.take().unwrap_or_else(|| zeroed(d));
        if Arc::get_mut(&mut next).is_none() {
            next = zeroed(d);
        }
        let sum = Arc::make_mut(&mut next);
        sum.fill(0.0);
        // Collect: drain each link until this round's replica (and, for
        // adaptive runs, its feedback batch) arrives; stale tags are
        // duplicates from earlier rounds and are dropped. Each replica
        // is folded into the sum as it arrives, lent from the link, in
        // link order — `average_models`' sum, term for term.
        for (k, link) in links.iter_mut().enumerate() {
            let mut have_model = false;
            let mut have_feedback = !adaptive;
            let mut bad_dim = None;
            while !(have_model && have_feedback) {
                let mut fold = |_: u32, r: u64, replica: &[f64]| {
                    if r == round as u64 && !have_model {
                        if replica.len() == d {
                            fold_model(sum, replica, cfg.sync, k, cfg.nodes, &shard_sizes);
                        } else {
                            bad_dim = Some(replica.len());
                        }
                        have_model = true;
                    }
                };
                #[expect(
                    clippy::disallowed_methods,
                    reason = "fleet links arm Tcp round deadlines; the in-process collect loop is deadlock-checked by isasgd-check"
                )]
                let msg = link.recv_lending(&mut fold)?;
                if let Some(dim) = bad_dim {
                    return Err(ClusterError::Worker(format!(
                        "round {round}: node {k} sent a replica of dim {dim} != model dim {d}"
                    )));
                }
                match msg {
                    Some(Message::FeedbackBatch {
                        round: r,
                        observations,
                        ..
                    }) if r == round as u64 => {
                        // Link `k` speaks for shard `k` only: a row of
                        // any other shard is dropped, whoever names it.
                        if let Some(mirror) = mirrors.get_mut(k) {
                            for (row, obs) in observations {
                                let row = row as usize;
                                if ranges[k].contains(&row) {
                                    mirror.update_weight(row - ranges[k].start, obs);
                                    feedback_rows += 1;
                                }
                            }
                        }
                        have_feedback = true;
                    }
                    Some(Message::Telemetry {
                        node,
                        round,
                        timing,
                    }) => {
                        isasgd_obs::emit(&Event::WorkerTiming {
                            node: u64::from(node),
                            round,
                            compute_us: timing.compute_us,
                            barrier_wait_us: timing.barrier_wait_us,
                            rows: timing.rows,
                            commits: timing.commits,
                        });
                        telemetry.push(TelemetrySample {
                            node,
                            round,
                            timing,
                        });
                    }
                    _ => {}
                }
            }
        }
        let round_secs = t0.elapsed().as_secs_f64();
        train_secs += round_secs;
        spare = Some(std::mem::replace(&mut consensus, next));

        let m = obj.eval(data, &consensus);
        trace.push(TracePoint {
            epoch: (round * cfg.local_epochs) as f64,
            wall_secs: train_secs,
            objective: m.objective,
            rmse: m.rmse,
            error_rate: m.error_rate,
        });
        isasgd_obs::emit(&Event::RoundEnd {
            round: round as u64,
            objective: m.objective,
            rmse: m.rmse,
            error_rate: m.error_rate,
            wall_us: (round_secs * 1e6) as u64,
        });
    }

    // The mirror's view of shard importance after all feedback landed
    // (the last round's folded here) — max/mean of the mirrored
    // per-shard mass, 1.0 meaning the observed distributions stayed
    // balanced.
    for m in mirrors.iter_mut() {
        m.epoch_reset();
    }
    let observed_phi_imbalance = adaptive.then(|| {
        let sums: Vec<f64> = mirrors
            .iter()
            .zip(ranges)
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
            feedback_rows: feedback_rows as u64,
            observed_phi_imbalance: phi,
        });
    }

    // Per-link wire counters, where the transport keeps them (real
    // sockets do; typed channels report nothing). Links live in slot
    // order (the fleet admits slot 0, then 1, …), so this collection —
    // and everything downstream that renders it — is ordered by node id
    // (pinned by `tests/process_fleet.rs`).
    let net: Vec<_> = links.iter().filter_map(|l| l.stats()).collect();
    for (k, stats) in net.iter().enumerate() {
        isasgd_obs::emit(&Event::NetSummary {
            node: k as u64,
            tx_bytes: stats.tx_total_bytes(),
            rx_bytes: stats.rx_total_bytes(),
            summary: stats.summary(),
        });
    }

    Ok(ClusterRun {
        trace,
        model: consensus.to_vec(),
        phi_imbalance,
        balanced: plan.balanced,
        rho: plan.rho,
        feedback_rows,
        observed_phi_imbalance,
        net,
        // Per-slot recovery footprints, where the transport supervises
        // (the fleet's links do; plain links report nothing).
        recovery: links.iter().filter_map(|l| l.recovery()).collect(),
        telemetry,
    })
}

/// A model of `d` zeros, in one allocation.
fn zeroed(d: usize) -> Arc<[f64]> {
    (0..d).map(|_| 0.0).collect()
}

/// The only thing a worker is ever given to train on: rows, their
/// importance weights, and where they sit in the rearranged dataset.
/// Thread-backed workers borrow it from the coordinator's plan, process
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

/// One worker's runtime: node `k` trains shard `k`, runs local
/// (IS-)SGD epochs on its own [`ScheduleStream`], and reports its
/// replica and importance observations every round. It reads only what
/// crosses the wire: frames off its link, its shard, and the
/// [`SessionConfig`] — the coordinator-only half of a `ClusterConfig`
/// (balance, sync, transport) never reaches it.
pub(crate) struct NodeRuntime<T: Transport> {
    link: T,
    node_id: u32,
    /// Messages that arrived ahead of the round that consumes them
    /// (e.g. a round-2 barrier delivered before round 1's model):
    /// stashed instead of dropped so transport reordering can never
    /// starve a later await.
    stash: VecDeque<Message>,
    /// Chaos hook: abort abruptly right after this round starts,
    /// simulating a worker crash mid-round (drives the fleet's
    /// supervision tests and `--chaos-kill`).
    die_at_round: Option<u64>,
}

// The worker half acts on what frames carry (node id, checkpoint
// state, models): decode scope (README, *Static guarantees*).
#[deny(clippy::indexing_slicing, clippy::cast_possible_truncation)]
impl<T: Transport> NodeRuntime<T> {
    /// Wraps one worker endpoint for node `node_id`.
    pub(crate) fn new(link: T, node_id: usize) -> Self {
        NodeRuntime {
            link,
            #[expect(
                clippy::cast_possible_truncation,
                reason = "the slot index this runtime was built for, not wire data; sessions count their nodes in a u32"
            )]
            node_id: node_id as u32,
            stash: VecDeque::new(),
            die_at_round: None,
        }
    }

    /// Arms the chaos hook: the runtime errors out (dropping its link,
    /// which a remote coordinator observes as a dead worker) right
    /// after round `round` starts.
    pub(crate) fn with_chaos_kill(mut self, round: Option<u64>) -> Self {
        self.die_at_round = round;
        self
    }

    /// Runs the full worker side of the protocol (see module docs) on
    /// the supplied shard, beside a coordinator in the same process:
    /// the session is what `cfg` would put in an `Assign` frame.
    pub(crate) fn run<L: Loss>(
        self,
        shard: ShardInput<'_>,
        obj: &Objective<L>,
        cfg: &ClusterConfig,
    ) -> Result<(), ClusterError> {
        self.run_session(shard, obj, &cfg.session(obj))
    }

    /// [`NodeRuntime::run`] on a session that may have arrived in an
    /// `Assign` frame.
    ///
    /// A supplier whose `shard` does not hold a weight and a row for
    /// every row of its range is refused, whoever the supplier is.
    /// Nothing global is recomputed here: weights are the exact bits the
    /// coordinator's plan holds, and per-row feature norms are
    /// row-local, so every transport trains bit-identically.
    pub(crate) fn run_session<L: Loss>(
        self,
        shard: ShardInput<'_>,
        obj: &Objective<L>,
        cfg: &SessionConfig,
    ) -> Result<(), ClusterError> {
        let range = &shard.range;
        if shard.weights.len() != range.len() {
            return Err(ClusterError::Worker(format!(
                "{} streamed weights for {} shard rows",
                shard.weights.len(),
                range.len()
            )));
        }
        if shard.row_base > range.start || shard.row_base + shard.rows.n_samples() < range.end {
            return Err(ClusterError::Worker(format!(
                "supplied rows {}..{} do not hold the shard {}..{}",
                shard.row_base,
                shard.row_base + shard.rows.n_samples(),
                range.start,
                range.end
            )));
        }
        self.run_rounds(shard, obj, cfg)
    }

    /// The round loop over a checked shard. Draw ids are global rows;
    /// `row_base` only shifts the storage indexing.
    fn run_rounds<L: Loss>(
        mut self,
        shard: ShardInput<'_>,
        obj: &Objective<L>,
        cfg: &SessionConfig,
    ) -> Result<(), ClusterError> {
        let ShardInput {
            rows: data,
            row_base,
            weights: local,
            range,
        } = shard;
        // Built before the session's working set (RowWindow's docs);
        // `draws` holds one pull.
        let mut window = RowWindow::with_row_capacity(data.max_row_nnz());
        let mut draws = Vec::with_capacity(RowWindow::ROWS);
        let id = self.node_id;
        #[expect(
            clippy::cast_possible_truncation,
            reason = "rows are u32 wherever the wire names them: a process worker's range came from the DatasetShard header; a thread worker's plan of 2^32 rows or more would truncate here, and nothing refuses one yet"
        )]
        let wire_row = |i: usize| i as u32;
        // The worker: node `k` trains shard `k` of the session's
        // `cfg.nodes`. A node id the session does not have (an `Assign`
        // naming a worker past the node count) is refused here, by the
        // one constructor that owns the seed layout.
        let spec = ShardSpec {
            shard: id as usize,
            shards: cfg.nodes as usize,
            seed: cfg.seed,
            range: range.clone(),
            strategy: cfg.importance.effective_sampling(cfg.sampling),
            weights: Some(local),
            sequence: SequenceMode::RegeneratePerEpoch,
            commit: cfg.commit,
        };
        let norms_sq = range.clone().map(|row| data.row(row - row_base).norm_sq());
        let mut stream = ScheduleStream::for_shard(spec, norms_sq).map_err(|e| match e {
            SamplingError::ShardOutOfRange { .. } => {
                ClusterError::Worker(format!("assignment refused: {e}"))
            }
            e => ClusterError::InvalidConfig(e.to_string()),
        })?;
        let adaptive = stream.sampler().is_adaptive();
        // Draws per pull: one while commits steer the epoch's own
        // remaining draws, a gathered window otherwise.
        let pull = if adaptive && matches!(cfg.commit, CommitPolicy::EveryK(_)) {
            1
        } else {
            RowWindow::ROWS
        };
        let mut model = vec![0.0; data.dim()];

        // Per-round observation gather for the coordinator's mirror:
        // per-row max of the scaled observations, the same reduction the
        // sampler applies, so a batch replay is idempotent.
        let mut obs_max = vec![f64::NEG_INFINITY; range.len()];
        let mut visited = vec![false; range.len()];

        let mut round = 1;
        while round <= cfg.rounds {
            // Timing capture is telemetry-gated so the bit-identity
            // contract stays trivially true: with telemetry off not a
            // single clock read happens on the round path.
            let barrier_t0 = if cfg.telemetry { monotonic_us() } else { 0 };
            // A respawn replay ships the slot's stored Checkpoint ahead
            // of the logged suffix: install it and resume from the
            // round after it — the whole point of checkpointing is that
            // the replayed suffix, not the session, bounds recovery.
            if let Some((cround, state)) = self.await_round_start(round, &mut model)? {
                restore_checkpoint(cround, *state, local, &mut stream, &mut model)?;
                round = cround.saturating_add(1);
                continue;
            }
            let barrier_wait_us = if cfg.telemetry {
                monotonic_us().saturating_sub(barrier_t0)
            } else {
                0
            };
            if self.die_at_round == Some(round) {
                // Chaos hook: abort mid-round. Returning drops the
                // link; over a socket the peer observes exactly what a
                // killed process would produce.
                return Err(ClusterError::Worker(format!(
                    "chaos kill: worker {} aborted at round {round}",
                    self.node_id
                )));
            }
            if adaptive {
                obs_max.fill(f64::NEG_INFINITY);
                visited.fill(false);
            }
            let compute_t0 = if cfg.telemetry { monotonic_us() } else { 0 };
            for epoch in 0..cfg.local_epochs {
                // Commits between local epochs; the round's last one
                // waits until the round's frames are sent.
                if epoch > 0 {
                    stream.epoch_reset();
                }
                local_epoch(
                    data,
                    row_base,
                    obj,
                    &mut stream,
                    (&mut draws, pull, &mut window),
                    &mut model,
                    cfg.step_size,
                    &mut obs_max,
                    &mut visited,
                );
            }
            let compute_us = if cfg.telemetry {
                monotonic_us().saturating_sub(compute_t0)
            } else {
                0
            };
            let mut commits = 0u64;
            if adaptive {
                let observations: Vec<(u32, f64)> = range
                    .clone()
                    .zip(visited.iter().zip(&obs_max))
                    .filter(|&(_, (&v, _))| v)
                    .map(|(row, (_, &observed))| (wire_row(row), observed))
                    .collect();
                commits = observations.len() as u64;
                self.link.send(&Message::FeedbackBatch {
                    node: id,
                    round,
                    observations,
                })?;
            }
            // Ship the round's timing *before* the replica: the
            // coordinator's collect loop for this round is still
            // draining (it has not seen the ModelUpdate yet), so it
            // records the frame — for every round, including the last.
            if cfg.telemetry {
                isasgd_obs::emit(&Event::BarrierWait {
                    node: u64::from(id),
                    round,
                    wait_us: barrier_wait_us,
                });
                self.link.send(&Message::Telemetry {
                    node: id,
                    round,
                    timing: WorkerTiming {
                        compute_us,
                        barrier_wait_us,
                        rows: u64::from(cfg.local_epochs) * range.len() as u64,
                        commits,
                    },
                })?;
            }
            // The replica is lent to the update and taken back after it.
            let update = Message::ModelUpdate {
                node: id,
                round,
                model: std::mem::take(&mut model),
            };
            self.link.send(&update)?;
            if let Message::ModelUpdate { model: replica, .. } = update {
                model = replica;
            }
            // Nothing reads the sampler or the replica after the last
            // round's sends.
            if round == cfg.rounds {
                break;
            }
            // The round's last commit, off the round's critical path:
            // the coordinator is collecting and averaging meanwhile, and
            // nothing above read the sampler after the last epoch's
            // draws. The next round's draws, and the checkpoint, see it.
            stream.epoch_reset();
            // Periodic state checkpoint, after the round's update so
            // the coordinator absorbs it while collecting the *next*
            // round (hence none at the final round — there would be no
            // collect left to absorb it). Snapshotting never mutates
            // the stream, so emission cannot perturb the computation:
            // runs are bit-identical with checkpointing on or off.
            if cfg.checkpoint_every > 0 && round % cfg.checkpoint_every == 0 {
                let rows = wire_row(range.len());
                let sampler = match stream.sampler().snapshot() {
                    SamplerSnapshot::Sequence { rng, indices } => {
                        CheckpointSampler::Sequence { rows, rng, indices }
                    }
                    SamplerSnapshot::Adaptive { weights, commits } => {
                        // Ship only rows whose weight moved off the
                        // configured base — bitwise, so the restored
                        // dense vector reproduces `weights` exactly.
                        let (indices, weights) = delta_coords(local, &weights);
                        CheckpointSampler::Adaptive {
                            rows,
                            commits,
                            indices,
                            weights,
                        }
                    }
                };
                self.link.send(&Message::Checkpoint {
                    node: id,
                    round,
                    state: Box::new(CheckpointState {
                        draw_rng: stream.rng_state(),
                        model: model.clone(),
                        sampler,
                    }),
                })?;
            }
            round += 1;
        }
        Ok(())
    }

    /// Drains the stash and then the link until both the round-`round`
    /// barrier and the round's consensus model arrived, in either
    /// order, and copies the consensus into `model` — from the link's
    /// receive base, as it lends it. Duplicates and stale round tags are
    /// dropped, and traffic for a later round is re-stashed (never
    /// silently discarded). A consensus of another dim than `model`'s
    /// is refused. A checkpoint of this round or later ends the wait
    /// early and is returned for the caller to resume from.
    fn await_round_start(
        &mut self,
        round: u64,
        model: &mut [f64],
    ) -> Result<Option<(u64, Box<CheckpointState>)>, ClusterError> {
        let mut start = RoundStart {
            round,
            model,
            barrier: false,
            consensus: None,
            checkpoint: None,
        };
        // One pass over previously stashed messages (re-stashing any
        // that are still ahead of this round), then block on the link.
        let stashed: Vec<Message> = self.stash.drain(..).collect();
        for m in stashed {
            start.sort(m, &mut self.stash);
        }
        loop {
            if start.checkpoint.is_some() {
                return Ok(start.checkpoint);
            }
            match start.consensus {
                Some(dim) if dim != start.model.len() => {
                    return Err(ClusterError::Worker(format!(
                        "round {round}: consensus dim {dim} != model dim {}",
                        start.model.len()
                    )))
                }
                Some(_) if start.barrier => return Ok(None),
                _ => {}
            }
            let stash = &mut self.stash;
            #[expect(
                clippy::disallowed_methods,
                reason = "the node's link is deadline-armed by its owner (Tcp) or in-process, where the barrier wait is isasgd-check's flagship no-deadlock invariant"
            )]
            let m = self
                .link
                .recv_lending(&mut |node, r, m| start.lend(node, r, m, stash))?;
            if let Some(m) = m {
                start.sort(m, &mut self.stash);
            }
        }
    }
}

/// What a worker awaiting round `round` has of its start: the barrier,
/// the dim of the consensus it copied into `model`, or a checkpoint to
/// resume from instead.
struct RoundStart<'m> {
    round: u64,
    model: &'m mut [f64],
    barrier: bool,
    consensus: Option<usize>,
    checkpoint: Option<(u64, Box<CheckpointState>)>,
}

#[deny(clippy::indexing_slicing, clippy::cast_possible_truncation)]
impl RoundStart<'_> {
    /// A round model: this round's is copied into `model` when its dim
    /// fits, a later round's is stashed, an earlier round's dropped.
    fn lend(&mut self, node: u32, round: u64, m: &[f64], stash: &mut VecDeque<Message>) {
        if round == self.round {
            self.consensus = Some(m.len());
            if m.len() == self.model.len() {
                self.model.copy_from_slice(m);
            }
        } else if round > self.round {
            stash.push_back(Message::ModelUpdate {
                node,
                round,
                model: m.to_vec(),
            });
        }
    }

    /// Any other message: this round's barrier is noted, a later
    /// round's stashed, a checkpoint of this round or later kept,
    /// everything else dropped.
    fn sort(&mut self, m: Message, stash: &mut VecDeque<Message>) {
        match m {
            Message::ModelUpdate { node, round, model } => self.lend(node, round, &model, stash),
            Message::RoundBarrier { round, .. } if round == self.round => self.barrier = true,
            m @ Message::RoundBarrier { .. } if m.round() > self.round => stash.push_back(m),
            Message::Checkpoint { round, state, .. } if round >= self.round => {
                self.checkpoint = Some((round, state));
            }
            _ => {}
        }
    }
}

/// Installs the checkpoint of round `round` into a worker's draw stream
/// and model. The sampler state is checked against the shard's `base`
/// weights (one per row) and the model's dim before it is installed.
#[deny(clippy::indexing_slicing, clippy::cast_possible_truncation)]
fn restore_checkpoint(
    round: u64,
    state: CheckpointState,
    base: &[f64],
    stream: &mut ScheduleStream,
    model: &mut [f64],
) -> Result<(), ClusterError> {
    let refuse = |what: String| ClusterError::Worker(format!("checkpoint round {round}: {what}"));
    if state.model.len() != model.len() {
        return Err(refuse(format!(
            "model dim {} != {}",
            state.model.len(),
            model.len()
        )));
    }
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
    model.copy_from_slice(&state.model);
    Ok(())
}

/// One local epoch of sequential (IS-)SGD on the node's shard, drawn
/// through the node's [`ScheduleStream`] `pull` draws at a time, each
/// pull stepped through a [`RowWindow`] of its gathered rows (a draw's
/// global row is storage row `row - row_base`). Each observed gradient
/// scale goes back through [`ScheduleStream::observe`] — the single
/// scaling convention this runtime shares with the `isasgd-core`
/// engine — which feeds the stream's own sampler and is a no-op for
/// uniform/static sampling. Under intra-epoch commits the caller pulls
/// one draw at a time: the sampler re-weights mid-epoch and the very
/// next draw sees it, matching the engine's sequential streaming path
/// draw-for-draw; otherwise the distribution is frozen all epoch, so a
/// window of [`RowWindow::ROWS`] draws is the same draws. The scaled
/// observations are additionally max-reduced into `obs_max`/`visited`
/// for the round's [`Message::FeedbackBatch`].
#[expect(
    clippy::too_many_arguments,
    reason = "the epoch's working set, borrowed piecewise from `run_session`'s locals"
)]
fn local_epoch<L: Loss>(
    data: &Dataset,
    row_base: usize,
    obj: &Objective<L>,
    stream: &mut ScheduleStream,
    (draws, pull, window): (&mut Vec<Draw>, usize, &mut RowWindow),
    model: &mut [f64],
    lambda: f64,
    obs_max: &mut [f64],
    visited: &mut [bool],
) {
    let start = stream.range().start;
    while stream.fill_chunk(draws, pull) > 0 {
        let row_of = |d: &Draw| d.row as usize - row_base;
        window.walk(data, draws, row_of, |d, row| {
            let g = sgd_step(obj, row, lambda * d.corr, model);
            if let Some(observed) = stream.observe(d.row as usize, g.abs()) {
                let local = d.row as usize - start;
                obs_max[local] = obs_max[local].max(observed);
                visited[local] = true;
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::in_process_links;
    use isasgd_losses::{ImportanceScheme, LogisticLoss, Regularizer};
    use isasgd_sampling::CommitPolicy;
    use isasgd_sparse::DatasetBuilder;

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
    /// coordinator evaluates — whoever the supplier is. Thread-backed: a
    /// [`NodeRuntime`] on an in-process link (a process worker runs the
    /// same runtime under the node id of its `Assign` frame).
    #[test]
    fn worker_refuses_a_shard_that_disagrees_with_its_assignment() {
        let ds = skewed(60);
        let weights = vec![1.0; 60];
        let cfg = adaptive_cfg(1);
        let refusal_of =
            |node: usize, rows: &Dataset, range: std::ops::Range<usize>, weights: &[f64]| {
                let (_coord, worker) = in_process_links(1).pop().unwrap();
                let shard = ShardInput {
                    rows,
                    row_base: 0,
                    weights,
                    range,
                };
                match NodeRuntime::new(worker, node).run(shard, &obj(), &cfg) {
                    Err(ClusterError::Worker(msg)) => msg,
                    other => panic!("expected a typed worker refusal, got {other:?}"),
                }
            };
        let msg = refusal_of(0, &ds, 0..60, &weights[1..]);
        assert!(
            msg.contains("59 streamed weights for 60 shard rows"),
            "{msg}"
        );
        let msg = refusal_of(0, &skewed(30), 0..60, &weights);
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

    /// Drives one worker session by hand from the coordinator's end:
    /// `head` first (a respawn replay's checkpoint), then rounds
    /// `from..=rounds`, each starting from `consensus` — the last
    /// replica received, as a one-node average is. Returns the replicas
    /// and the checkpoints the worker sent.
    fn drive(
        cfg: &ClusterConfig,
        head: Option<Message>,
        from: u64,
        mut consensus: Vec<f64>,
    ) -> (Vec<Vec<f64>>, Vec<Message>) {
        let ds = skewed(60);
        let weights: Vec<f64> = (0..60).map(|i| 1.0 + (i % 7) as f64).collect();
        let (mut coord, worker) = in_process_links(1).pop().unwrap();
        let shard = ShardInput {
            rows: &ds,
            row_base: 0,
            weights: &weights,
            range: 0..60,
        };
        std::thread::scope(|s| {
            let h = s.spawn(move || NodeRuntime::new(worker, 0).run(shard, &obj(), cfg));
            if let Some(m) = head {
                coord.send(&m).unwrap();
            }
            let (mut replicas, mut checkpoints) = (Vec::new(), Vec::new());
            for round in from..=cfg.rounds as u64 {
                coord
                    .send(&Message::RoundBarrier { node: 0, round })
                    .unwrap();
                coord
                    .send(&Message::ModelUpdate {
                        node: 0,
                        round,
                        model: consensus.clone(),
                    })
                    .unwrap();
                loop {
                    match coord.recv().unwrap() {
                        Message::ModelUpdate {
                            round: r, model, ..
                        } if r == round => {
                            consensus = model.clone();
                            replicas.push(model);
                            break;
                        }
                        m @ Message::Checkpoint { .. } => checkpoints.push(m),
                        _ => {}
                    }
                }
            }
            h.join().unwrap().unwrap();
            (replicas, checkpoints)
        })
    }

    /// A worker whose first frame is a checkpoint of round c — a respawn
    /// replay's shape — installs it and resumes at round c + 1: every
    /// replica it sends is bit-equal to the one a worker that lived
    /// through the whole session sent.
    #[test]
    fn a_worker_whose_first_frame_is_a_checkpoint_resumes_after_it() {
        let cfg = ClusterConfig {
            checkpoint_every: 2,
            ..adaptive_cfg(1)
        };
        let (lived, mut checkpoints) = drive(&cfg, None, 1, vec![0.0; 8]);
        assert_eq!((lived.len(), checkpoints.len()), (4, 1));
        let ckpt = checkpoints.pop().unwrap();
        assert_eq!(ckpt.round(), 2);
        // A worker that missed the checkpoint would wait for round 1
        // forever; the watchdog turns that into a failure.
        let (tx, rx) = std::sync::mpsc::channel();
        let start = lived[1].clone();
        std::thread::spawn(move || tx.send(drive(&cfg, Some(ckpt), 3, start)));
        let (resumed, _) = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("the resumed worker never finished its rounds");
        let bits = |models: &[Vec<f64>]| -> Vec<Vec<u64>> {
            models
                .iter()
                .map(|m| m.iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        assert_eq!(bits(&resumed), bits(&lived[2..]));
    }

    /// A replayed checkpoint whose adaptive weight diff names a row past
    /// the shard is refused by the restore (`apply_delta`'s `None`), not
    /// written out of bounds. An in-process link hands the message over
    /// undecoded, so the wire's own index bound never sees it.
    #[test]
    fn worker_refuses_a_checkpoint_weight_outside_its_shard() {
        let ds = skewed(60);
        let weights = vec![1.0; 60];
        let cfg = adaptive_cfg(1);
        let (mut coord, worker) = in_process_links(1).pop().unwrap();
        let shard = ShardInput {
            rows: &ds,
            row_base: 0,
            weights: &weights,
            range: 0..60,
        };
        let state = CheckpointState {
            draw_rng: [1, 2, 3, 4],
            model: vec![0.0; ds.dim()],
            sampler: CheckpointSampler::Adaptive {
                rows: 60,
                commits: 0,
                indices: vec![3, 60],
                weights: vec![2.0, 2.0],
            },
        };
        coord
            .send(&Message::Checkpoint {
                node: 0,
                round: 1,
                state: Box::new(state),
            })
            .unwrap();
        // Hung up: a worker that ignored the checkpoint fails on the
        // link instead of waiting for round 1.
        drop(coord);
        match NodeRuntime::new(worker, 0).run(shard, &obj(), &cfg) {
            Err(ClusterError::Worker(msg)) => {
                assert_eq!(msg, "checkpoint round 1: weight index outside the shard");
            }
            other => panic!("expected a typed worker refusal, got {other:?}"),
        }
    }
}
