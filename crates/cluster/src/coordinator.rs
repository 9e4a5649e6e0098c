//! The distributed runtime: the coordinator's round driver and the
//! per-node `NodeRuntime`, both generic over [`Transport`].
//!
//! This module replaced the old single-threaded round loop that called
//! node training as a plain function. The protocol, per link (one duplex
//! link per worker):
//!
//! ```text
//! worker                         coordinator
//!   ── RoundBarrier(0) ──────────▶   hello: announce readiness
//!   ◀───────────── ShardRebalance   Algorithm-4 balancing outcome:
//!                                    every shard range + which is yours
//!  per round r = 1..=rounds:
//!   ◀── RoundBarrier(r) ──────────   start-of-round barrier
//!   ◀── ModelUpdate(r, consensus)    round's starting model
//!      … local_epochs of (IS-)SGD on the worker's shard …
//!   ── FeedbackBatch(r) ─────────▶   per-row max importance observations
//!                                    (adaptive runs only)
//!   ── ModelUpdate(r, replica) ──▶   trained local model
//!                                    coordinator: average via
//!                                    SyncStrategy, eval consensus
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
//! sampler, and the coordinator averages models into per-node slots — so
//! the result is bit-identical across transports and thread schedules,
//! and a single-node run stays bit-equal to the sequential engine
//! (`tests/equivalence.rs`).

use crate::node::{validate, ClusterConfig, ClusterError, ClusterRun, ProtocolBugs};
use crate::sync::average_models;
use crate::transport::{TelemetrySample, Transport};
use crate::wire::{CheckpointSampler, CheckpointState, Message, SessionConfig, WorkerTiming};
use isasgd_balance::{rearrange, Rearranged};
use isasgd_losses::{importance_weights, sgd_step, Loss, Objective};
use isasgd_metrics::{Trace, TracePoint};
use isasgd_obs::{monotonic_us, Event};
use isasgd_sampling::{
    balance_seed, AdaptiveIsSampler, CommitPolicy, Draw, Sampler, SamplerSnapshot, SamplingError,
    SamplingStrategy, ScheduleStream, SequenceMode, ShardSpec,
};
use isasgd_sparse::{Dataset, RowWindow};
use std::ops::Range;
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
                scope.spawn(move || {
                    NodeRuntime::new(link, k)
                        .with_dropped_preassignment_traffic(bugs.drop_preassignment_traffic)
                        .run(shard, obj, cfg)
                })
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

    // Hellos: every worker announces readiness before any assignment
    // goes out (drain tolerates a duplicated hello).
    for link in links.iter_mut() {
        loop {
            #[expect(
                clippy::disallowed_methods,
                reason = "fleet links arm Tcp read deadlines; the in-process transport's hello drain is deadlock-checked by isasgd-check"
            )]
            if let Message::RoundBarrier { round: 0, .. } = link.recv()? {
                break;
            }
        }
    }

    // Ship the balancing decision's outcome: every shard range, and
    // which one the receiving worker trains.
    let ranges_u32: Vec<(u32, u32)> = ranges
        .iter()
        .map(|r| (r.start as u32, r.end as u32))
        .collect();
    for (k, link) in links.iter_mut().enumerate() {
        link.send(&Message::ShardRebalance {
            round: 0,
            assigned: k as u32,
            ranges: ranges_u32.clone(),
        })?;
    }

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
    let mut consensus = vec![0.0f64; d];
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
    let mut models: Vec<Vec<f64>> = vec![Vec::new(); cfg.nodes];
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
        // One update per round, addressed per link by its `node` alone:
        // the consensus moves into it for the sends and back out after.
        let mut update = Message::ModelUpdate {
            node: 0,
            round: round as u64,
            model: std::mem::take(&mut consensus),
        };
        for (k, link) in links.iter_mut().enumerate() {
            link.send(&Message::RoundBarrier {
                node: k as u32,
                round: round as u64,
            })?;
            if let Message::ModelUpdate { node, .. } = &mut update {
                *node = k as u32;
            }
            link.send(&update)?;
        }
        if let Message::ModelUpdate { model, .. } = update {
            consensus = model;
        }
        // Collect: drain each link until this round's replica (and, for
        // adaptive runs, its feedback batch) arrives; stale tags are
        // duplicates from earlier rounds and are dropped.
        for (k, link) in links.iter_mut().enumerate() {
            let mut have_model = false;
            let mut have_feedback = !adaptive;
            while !(have_model && have_feedback) {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "fleet links arm Tcp round deadlines; the in-process collect loop is deadlock-checked by isasgd-check"
                )]
                match link.recv()? {
                    Message::ModelUpdate {
                        round: r, model, ..
                    } if r == round as u64 => {
                        // `average_models` asserts equal lengths; a
                        // panic here would strand the workers mid-recv.
                        if model.len() != d {
                            return Err(ClusterError::Worker(format!(
                                "round {round}: node {k} sent a replica of dim {} != model dim {d}",
                                model.len()
                            )));
                        }
                        models[k] = model;
                        have_model = true;
                    }
                    Message::FeedbackBatch {
                        round: r,
                        observations,
                        ..
                    } if r == round as u64 => {
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
        for m in mirrors.iter_mut() {
            m.epoch_reset();
        }
        average_models(&models, &shard_sizes, cfg.sync, &mut consensus);
        let round_secs = t0.elapsed().as_secs_f64();
        train_secs += round_secs;

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

    // The mirror's view of shard importance after all feedback landed —
    // max/mean of the mirrored per-shard mass, 1.0 meaning the observed
    // distributions stayed balanced.
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
        model: consensus,
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

/// One worker's runtime: receives its shard assignment, runs local
/// (IS-)SGD epochs on its own [`ScheduleStream`], and reports its
/// replica and importance observations every round. It reads only what
/// crosses the wire: frames off its link, its shard, and the
/// [`SessionConfig`] — the coordinator-only half of a `ClusterConfig`
/// (balance, sync, transport) never reaches it.
pub(crate) struct NodeRuntime<T: Transport> {
    link: T,
    node_id: u32,
    /// Messages that arrived ahead of the phase that consumes them
    /// (e.g. a round-1 barrier delivered before a delayed
    /// `ShardRebalance`): stashed instead of dropped so transport
    /// reordering can never starve a later await.
    stash: std::collections::VecDeque<Message>,
    /// Chaos hook: abort abruptly right after this round starts,
    /// simulating a worker crash mid-round (drives the fleet's
    /// supervision tests and `--chaos-kill`).
    die_at_round: Option<u64>,
    /// [`ProtocolBugs::drop_preassignment_traffic`], set only through
    /// the checker's seam.
    drop_preassignment_traffic: bool,
}

// The worker half acts on what frames carry (assigned shard, ranges,
// checkpoint state, models): decode scope (README, *Static guarantees*).
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
            stash: std::collections::VecDeque::new(),
            die_at_round: None,
            drop_preassignment_traffic: false,
        }
    }

    /// Arms the chaos hook: the runtime errors out (dropping its link,
    /// which a remote coordinator observes as a dead worker) right
    /// after round `round` starts.
    pub(crate) fn with_chaos_kill(mut self, round: Option<u64>) -> Self {
        self.die_at_round = round;
        self
    }

    /// Resurrects the historical drop-instead-of-stash bug for the
    /// model checker's regression corpus.
    pub(crate) fn with_dropped_preassignment_traffic(mut self, on: bool) -> Self {
        self.drop_preassignment_traffic = on;
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
    /// The assignment still arrives as [`Message::ShardRebalance`]; a
    /// supplier whose `shard` disagrees with it is refused, whoever the
    /// supplier is. Nothing global is recomputed here: weights are the
    /// exact bits the coordinator's plan holds, and per-row feature
    /// norms are row-local, so every transport trains bit-identically.
    pub(crate) fn run_session<L: Loss>(
        mut self,
        shard: ShardInput<'_>,
        obj: &Objective<L>,
        cfg: &SessionConfig,
    ) -> Result<(), ClusterError> {
        let (wire_ranges, assigned) = self.await_assignment()?;
        let range = wire_ranges
            .get(assigned)
            .map(|&(s, e)| s as usize..e as usize)
            .ok_or_else(|| {
                ClusterError::Worker(format!("assigned shard {assigned} out of range"))
            })?;
        // The shard and the assignment reach the worker separately; a
        // disagreement means the coordinator and this worker would
        // silently train different rows — refuse instead.
        if range != shard.range {
            return Err(ClusterError::Worker(format!(
                "streamed shard rows {}..{} disagree with assigned range {}..{}",
                shard.range.start, shard.range.end, range.start, range.end
            )));
        }
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
        self.run_rounds(shard, assigned, obj, cfg)
    }

    /// Announces readiness (the round-0 hello barrier) and awaits the
    /// coordinator's [`Message::ShardRebalance`], stashing any round
    /// traffic a reordering transport delivered early. Returns the raw
    /// wire assignment `(ranges, assigned)`.
    fn await_assignment(&mut self) -> Result<(Vec<(u32, u32)>, usize), ClusterError> {
        self.link.send(&Message::RoundBarrier {
            node: self.node_id,
            round: 0,
        })?;
        loop {
            #[expect(
                clippy::disallowed_methods,
                reason = "the node's link is deadline-armed by its owner (Tcp) or in-process, where isasgd-check covers this wait"
            )]
            match self.link.recv()? {
                Message::ShardRebalance {
                    assigned, ranges, ..
                } => return Ok((ranges, assigned as usize)),
                // A reordered transport can deliver round-1 traffic
                // before the assignment; keep it for await_round_start.
                // A respawn replay also ships the slot's stored
                // Checkpoint ahead of the replayed assignment — stash
                // it for run_rounds to install.
                // (`drop_preassignment_traffic` resurrects the
                // historical drop-instead-of-stash bug for the model
                // checker's regression corpus.)
                m @ (Message::RoundBarrier { .. }
                | Message::ModelUpdate { .. }
                | Message::Checkpoint { .. })
                    if m.round() >= 1 && !self.drop_preassignment_traffic =>
                {
                    self.stash.push_back(m);
                }
                _ => {}
            }
        }
    }

    /// The round loop over an assignment-checked shard. Draw ids are
    /// global rows; `row_base` only shifts the storage indexing.
    fn run_rounds<L: Loss>(
        mut self,
        shard: ShardInput<'_>,
        assigned: usize,
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
            reason = "`range` equals the assigned wire range, whose bounds arrived as u32: every row of it, global or shard-local, fits"
        )]
        let wire_row = |i: usize| i as u32;
        // The worker: shard `assigned` of the session's `cfg.nodes`. An
        // assignment naming a shard the session does not have (a
        // `ShardRebalance` listing more ranges than nodes) is refused
        // here, by the one constructor that owns the seed layout.
        let spec = ShardSpec {
            shard: assigned,
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

        // Respawn replay ships the slot's stored Checkpoint ahead of
        // the truncated log; await_assignment stashed it. Install the
        // newest one (dups/reorders are harmless) and resume from the
        // round after it — the whole point of checkpointing is that
        // the replayed suffix, not the session, bounds recovery.
        let mut ckpt: Option<(u64, Box<CheckpointState>)> = None;
        let stashed: Vec<Message> = self.stash.drain(..).collect();
        for m in stashed {
            if let Message::Checkpoint { round, state, .. } = m {
                if ckpt.as_ref().is_none_or(|(r, _)| round > *r) {
                    ckpt = Some((round, state));
                }
            } else {
                self.stash.push_back(m);
            }
        }
        let mut first_round = 1u64;
        if let Some((cround, state)) = ckpt {
            if state.model.len() != model.len() {
                return Err(ClusterError::Worker(format!(
                    "checkpoint round {cround}: model dim {} != {}",
                    state.model.len(),
                    model.len()
                )));
            }
            let snap = match state.sampler {
                CheckpointSampler::Sequence { rows, rng, indices } => {
                    if rows as usize != range.len() {
                        return Err(ClusterError::Worker(format!(
                            "checkpoint round {cround}: {rows} rows != shard {}",
                            range.len()
                        )));
                    }
                    SamplerSnapshot::Sequence { rng, indices }
                }
                CheckpointSampler::Adaptive {
                    rows,
                    commits,
                    indices,
                    weights,
                } => {
                    if rows as usize != range.len() {
                        return Err(ClusterError::Worker(format!(
                            "checkpoint round {cround}: {rows} rows != shard {}",
                            range.len()
                        )));
                    }
                    // Sparse diff against the configured base weights;
                    // wire decode guarantees in-bounds strictly
                    // increasing indices and finite weights.
                    let mut dense = local.to_vec();
                    for (&i, &w) in indices.iter().zip(&weights) {
                        *dense.get_mut(i as usize).ok_or_else(|| {
                            ClusterError::Worker(format!(
                                "checkpoint round {cround}: weight index {i} outside the shard"
                            ))
                        })? = w;
                    }
                    SamplerSnapshot::Adaptive {
                        weights: dense,
                        commits,
                    }
                }
            };
            stream
                .sampler_mut()
                .restore(snap)
                .map_err(|e| ClusterError::Worker(format!("checkpoint restore: {e}")))?;
            stream.set_rng_state(state.draw_rng);
            model.copy_from_slice(&state.model);
            first_round = cround + 1;
        }
        for round in first_round..=cfg.rounds {
            // Timing capture is telemetry-gated so the bit-identity
            // contract stays trivially true: with telemetry off not a
            // single clock read happens on the round path.
            let barrier_t0 = if cfg.telemetry { monotonic_us() } else { 0 };
            let consensus = self.await_round_start(round)?;
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
            if consensus.len() != model.len() {
                return Err(ClusterError::Worker(format!(
                    "round {round}: consensus dim {} != model dim {}",
                    consensus.len(),
                    model.len()
                )));
            }
            model = consensus;
            if adaptive {
                obs_max.fill(f64::NEG_INFINITY);
                visited.fill(false);
            }
            let compute_t0 = if cfg.telemetry { monotonic_us() } else { 0 };
            for _ in 0..cfg.local_epochs {
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
                stream.epoch_reset();
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
            // Periodic state checkpoint, after the round's update so
            // the coordinator absorbs it while collecting the *next*
            // round (hence none at the final round — there would be no
            // collect left to absorb it). Snapshotting never mutates
            // the stream, so emission cannot perturb the computation:
            // runs are bit-identical with checkpointing on or off.
            if cfg.checkpoint_every > 0 && round % cfg.checkpoint_every == 0 && round < cfg.rounds {
                let rows = wire_row(range.len());
                let sampler = match stream.sampler().snapshot() {
                    SamplerSnapshot::Sequence { rng, indices } => {
                        CheckpointSampler::Sequence { rows, rng, indices }
                    }
                    SamplerSnapshot::Adaptive { weights, commits } => {
                        // Ship only rows whose weight moved off the
                        // configured base — bitwise, so the restored
                        // dense vector reproduces `weights` exactly.
                        let (indices, weights) = weights
                            .iter()
                            .zip(local)
                            .enumerate()
                            .filter(|&(_, (w, base))| w.to_bits() != base.to_bits())
                            .map(|(i, (&w, _))| (wire_row(i), w))
                            .unzip();
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
        }
        Ok(())
    }

    /// Drains the stash and then the link until both the round-`round`
    /// barrier and the round's consensus model arrived, in either
    /// order; duplicates and stale round tags are dropped, and traffic
    /// for a later round is re-stashed (never silently discarded).
    fn await_round_start(&mut self, round: u64) -> Result<Vec<f64>, ClusterError> {
        fn sort(
            m: Message,
            round: u64,
            barrier: &mut bool,
            consensus: &mut Option<Vec<f64>>,
            stash: &mut std::collections::VecDeque<Message>,
        ) {
            match m {
                Message::RoundBarrier { round: r, .. } if r == round => *barrier = true,
                Message::ModelUpdate {
                    round: r, model, ..
                } if r == round => *consensus = Some(model),
                m @ (Message::RoundBarrier { .. } | Message::ModelUpdate { .. })
                    if m.round() > round =>
                {
                    stash.push_back(m);
                }
                _ => {}
            }
        }
        let mut barrier = false;
        let mut consensus = None;
        // One pass over previously stashed messages (re-stashing any
        // that are still ahead of this round), then block on the link.
        let stashed: Vec<Message> = self.stash.drain(..).collect();
        for m in stashed {
            sort(m, round, &mut barrier, &mut consensus, &mut self.stash);
        }
        loop {
            if barrier {
                if let Some(model) = consensus.take() {
                    return Ok(model);
                }
            }
            #[expect(
                clippy::disallowed_methods,
                reason = "same link as await_assignment; the barrier wait is the checker's flagship no-deadlock invariant"
            )]
            let m = self.link.recv()?;
            sort(m, round, &mut barrier, &mut consensus, &mut self.stash);
        }
    }
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

    /// A worker handed rows or weights that disagree with its
    /// `ShardRebalance` assignment must refuse with a typed error instead
    /// of silently training other rows than the coordinator evaluates —
    /// whoever the supplier is. Thread-backed leg: a [`NodeRuntime`] on an
    /// in-process link, the coordinator end driven by hand (the fleet leg
    /// is `tests/process_fleet.rs`).
    #[test]
    fn worker_refuses_a_shard_that_disagrees_with_its_assignment() {
        let ds = skewed(60);
        let weights = vec![1.0; 60];
        let cfg = adaptive_cfg(1);
        let refusal_of = |assigned: u32,
                          ranges: Vec<(u32, u32)>,
                          rows: &Dataset,
                          range: std::ops::Range<usize>,
                          weights: &[f64]| {
            let (mut coord, worker) = in_process_links(1).pop().unwrap();
            let shard = ShardInput {
                rows,
                row_base: 0,
                weights,
                range,
            };
            std::thread::scope(|s| {
                let cfg = &cfg;
                let h = s.spawn(move || NodeRuntime::new(worker, 0).run(shard, &obj(), cfg));
                assert!(matches!(
                    coord.recv().unwrap(),
                    Message::RoundBarrier { round: 0, .. }
                ));
                coord
                    .send(&Message::ShardRebalance {
                        round: 0,
                        assigned,
                        ranges,
                    })
                    .unwrap();
                match h.join().unwrap() {
                    Err(ClusterError::Worker(msg)) => msg,
                    other => panic!("expected a typed worker refusal, got {other:?}"),
                }
            })
        };
        let refusal = |rows: &Dataset, range: std::ops::Range<usize>, weights: &[f64]| {
            refusal_of(0, vec![(0, 60)], rows, range, weights)
        };
        let msg = refusal(&ds, 1..60, &weights[1..]);
        assert!(
            msg.contains("rows 1..60 disagree with assigned range 0..60"),
            "{msg}"
        );
        let msg = refusal(&ds, 0..60, &weights[1..]);
        assert!(
            msg.contains("59 streamed weights for 60 shard rows"),
            "{msg}"
        );
        let msg = refusal(&skewed(30), 0..60, &weights);
        assert!(
            msg.contains("rows 0..30 do not hold the shard 0..60"),
            "{msg}"
        );
        // An over-long assignment: three ranges for a one-node session, the
        // third assigned. The shard agrees with the range it names, so only
        // the shard count can refuse it (this indexed out of bounds before).
        let ranges = vec![(0, 20), (20, 40), (40, 60)];
        let msg = refusal_of(2, ranges, &ds, 40..60, &weights[40..]);
        assert!(
            msg.contains("shard 2 is not one of the run's 1 shards"),
            "{msg}"
        );
    }
}
