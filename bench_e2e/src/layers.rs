//! The traced run: per-layer metrics of one workload.
//!
//! Every number here is taken from outside the measured crates: the
//! benchmark times calls into each layer's public functions on the
//! workload's own dataset, visiting rows in the workload's seeded draw
//! order so cache behaviour matches, and reads the counters the public
//! results already carry (`LinkStats`, `RecoveryFootprint`, telemetry
//! samples). Each timed call sits in a span.

use crate::run::{check_respawns, cluster_setup_s, Options, Outcome, Tally};
use crate::spans::Spans;
use crate::spec::PER_LAYER;
use crate::stats::{median, quantile};
use crate::workloads::{objective, seeded_dataset, Call, Job, Rep, Wiring, Workload};
use isasgd_balance::{decide, BalancePolicy};
use isasgd_cluster::{
    average_models, delta_coords, in_process_links, run_with_links, tcp_loopback_links, ClusterRun,
    FrameKind, InProcess, LinkStats, Message, SyncStrategy, Transport, TransportError,
    WireEncoding,
};
use isasgd_core::solvers::plan::build_plan;
use isasgd_core::{
    importance_weights, Algorithm, CommitPolicy, Execution, Sampler, SamplingStrategy, TrainConfig,
};
use isasgd_sampling::rng::derive_seeds;
use isasgd_sampling::{build_sampler, AdaptiveIsSampler, ScheduleStream};
use isasgd_sparse::dataset::shard_ranges;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::{Arc, Mutex};

/// Per-layer values by metric name; anything not set reports 0.
#[derive(Debug, Default)]
struct Values(BTreeMap<&'static str, f64>);

impl Values {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
        self.0.insert(name, value);
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Frame kinds that cross the wire every round; the rest are admission.
const ROUND_KINDS: [FrameKind; 7] = [
    FrameKind::ModelUpdate,
    FrameKind::ModelDelta,
    FrameKind::FeedbackBatch,
    FrameKind::RoundBarrier,
    FrameKind::Checkpoint,
    FrameKind::CheckpointAck,
    FrameKind::Telemetry,
];

fn bytes_of(net: &[LinkStats], kinds: &[FrameKind]) -> f64 {
    net.iter()
        .flat_map(|l| kinds.iter().map(|&k| l.tx_bytes_for(k) + l.rx_bytes_for(k)))
        .sum::<u64>() as f64
}

fn frames_of(net: &[LinkStats], kind: FrameKind) -> f64 {
    net.iter()
        .map(|l| l.tx_frames[kind.index()] + l.rx_frames[kind.index()])
        .sum::<u64>() as f64
}

/// Median seconds of three passes of `f`.
fn three_passes(
    spans: &mut Spans,
    name: &'static str,
    parent: Option<usize>,
    mut f: impl FnMut(),
) -> f64 {
    let secs: Vec<f64> = (0..3)
        .map(|_| spans.timed(name, parent, &mut f).1)
        .collect();
    median(&secs)
}

/// The `TrainConfig`, worker count and sampling strategy whose set-up
/// the workload pays. A cluster run plans with the same public
/// functions (`importance_weights`, `decide`, `build_sampler`) as a
/// 2-worker adaptive `train` plan, so that plan stands in for it.
fn plan_inputs(w: &Workload, seed: u64, smoke: bool) -> (TrainConfig, usize, SamplingStrategy) {
    match w.call {
        Call::Train {
            algo,
            exec,
            sampling,
            ..
        } => {
            let cfg = w.train_config(seed, smoke).expect("train workload");
            let natural = if algo.uses_importance() {
                SamplingStrategy::Static
            } else {
                SamplingStrategy::Uniform
            };
            (cfg, exec.concurrency(), sampling.unwrap_or(natural))
        }
        Call::Cluster { .. } => {
            let c = w
                .cluster_config(seed, smoke, false)
                .expect("cluster workload");
            let cfg = TrainConfig {
                epochs: c.rounds,
                step_size: c.step_size,
                seed,
                importance: c.importance,
                balance: c.balance,
                sampling: Some(c.sampling),
                commit: c.commit,
                ..TrainConfig::default()
            };
            (cfg, c.nodes, c.sampling)
        }
    }
}

/// Times the set-up layers and the step kernels on the workload's own
/// rows and fills the `losses.*`, `balance.decide_s`, `sampling.*`,
/// `sparse.*` and `core.build_plan_s` values.
fn replay_layers(
    job: &Job<'_>,
    model: &[f64],
    spans: &mut Spans,
    parent: Option<usize>,
    out: &mut Values,
) -> Result<(), String> {
    let Job { w, ds, seed, smoke } = *job;
    let obj = objective();
    let (cfg, workers, strategy) = plan_inputs(w, seed, smoke);
    let n = ds.n_samples();
    let seeds = derive_seeds(cfg.seed, workers + 1);
    let adaptive = strategy == SamplingStrategy::Adaptive;

    out.set(
        "losses.eval_s",
        spans
            .timed("replay.losses.eval", parent, || obj.eval(ds, model))
            .1,
    );

    // Set-up, layer by layer, as `build_plan` composes it.
    let (weights, decision) = if strategy.uses_importance() {
        let (weights, secs) = spans.timed("replay.losses.importance_weights", parent, || {
            importance_weights(ds, &obj.loss, obj.reg, cfg.importance)
        });
        out.set("losses.importance_weights_s", secs);
        let (decision, secs) = spans.timed("replay.balance.decide", parent, || {
            decide(&weights, cfg.balance, seeds[workers], workers)
        });
        out.set("balance.decide_s", secs);
        (Some(weights), decision)
    } else {
        // The uniform Hogwild arm never computes importance; it only
        // shuffles before sharding.
        let ones = vec![1.0; n];
        let (decision, secs) = spans.timed("replay.balance.decide", parent, || {
            decide(&ones, BalancePolicy::ForceShuffle, seeds[workers], workers)
        });
        out.set("balance.decide_s", secs);
        (None, decision)
    };
    let reordered: Option<Vec<f64>> = weights
        .as_ref()
        .map(|w| decision.order.iter().map(|&i| w[i]).collect());
    let ranges = shard_ranges(n, workers).map_err(|e| e.to_string())?;
    let (built, secs) = spans.timed("replay.sampling.build", parent, || {
        ranges
            .iter()
            .enumerate()
            .map(|(k, r)| {
                let local = reordered.as_ref().map(|w| &w[r.clone()]);
                build_sampler(strategy, local, r.len(), cfg.sequence, seeds[k], cfg.commit)
            })
            .collect::<Result<Vec<_>, _>>()
    });
    built.map_err(|e| e.to_string())?;
    out.set("sampling.build_s", secs);

    let (plan, secs) = spans.timed("replay.core.build_plan", parent, || {
        build_plan(ds, &obj, &cfg, workers, strategy)
    });
    let mut plan = plan.map_err(|e| e.to_string())?;
    out.set("core.build_plan_s", secs);

    // One epoch of worker 0's draws, pulled in the engine's strides: a
    // first pass collects the rows, a second is timed bare.
    let chunk_len = match cfg.commit {
        CommitPolicy::EveryK(k) if adaptive => k.max(1),
        _ => ScheduleStream::DEFAULT_CHUNK,
    };
    let start = plan.ranges[0].start;
    let stream = &mut plan.streams[0];
    let mut chunk = Vec::new();
    let mut rows: Vec<u32> = Vec::with_capacity(stream.epoch_len());
    while stream.fill_chunk(&mut chunk, chunk_len) > 0 {
        rows.extend(chunk.iter().map(|d| d.row));
    }
    stream.epoch_reset();
    let (_, secs) = spans.timed("replay.sampling.draw", parent, || {
        while stream.fill_chunk(&mut chunk, chunk_len) > 0 {
            black_box(&chunk);
        }
    });
    let draws = rows.len() as f64;
    out.set("sampling.draw_ns", secs * 1e9 / draws);

    // Step kernels on those rows, against the trained model.
    let data = &plan.data;
    let nnz: f64 = rows
        .iter()
        .map(|&r| data.row(r as usize).nnz() as f64)
        .sum();
    let margins: Vec<f64> = rows
        .iter()
        .map(|&r| obj.margin(&data.row(r as usize), model))
        .collect();
    let secs = three_passes(spans, "replay.sparse.margin", parent, || {
        let mut acc = 0.0;
        for &r in &rows {
            acc += data.row(r as usize).dot_dense(model);
        }
        black_box(acc);
    });
    out.set("sparse.margin_ns_per_nnz", secs * 1e9 / nnz);
    let mut scratch = model.to_vec();
    let secs = three_passes(spans, "replay.sparse.axpy", parent, || {
        for &r in &rows {
            data.row(r as usize).axpy_into(1e-12, &mut scratch);
        }
        black_box(&scratch);
    });
    out.set("sparse.axpy_ns_per_nnz", secs * 1e9 / nnz);
    // What a step actually writes with: the axpy fused with the
    // on-support regularizer subgradient.
    let reg_scale = cfg.step_size;
    let secs = three_passes(spans, "replay.losses.apply_update", parent, || {
        for &r in &rows {
            obj.apply_sgd_update(&data.row(r as usize), 1e-12, reg_scale, &mut scratch);
        }
        black_box(&scratch);
    });
    out.set("losses.apply_update_ns_per_nnz", secs * 1e9 / nnz);
    let secs = three_passes(spans, "replay.losses.grad_scale", parent, || {
        let mut acc = 0.0;
        for (&r, &m) in rows.iter().zip(&margins) {
            acc += obj.grad_scale(&data.row(r as usize), m);
        }
        black_box(acc);
    });
    out.set("losses.grad_scale_ns", secs * 1e9 / draws);

    // Sampler writes: an observation alone, then observations with a
    // commit every k of them; the difference is the commit.
    if let (true, Some(reordered)) = (adaptive, &reordered) {
        let local = &reordered[plan.ranges[0].clone()];
        let observations: Vec<(usize, f64)> = rows
            .iter()
            .zip(&margins)
            .map(|(&r, &m)| {
                let g = obj.grad_scale(&data.row(r as usize), m).abs();
                (r as usize - start, g.max(1e-12))
            })
            .collect();
        let mut observe = |name, commit| -> Result<f64, String> {
            let mut sampler = AdaptiveIsSampler::new(local)
                .map_err(|e| e.to_string())?
                .with_commit(commit);
            let (_, secs) = spans.timed(name, parent, || {
                for &(i, g) in &observations {
                    sampler.update_weight(i, g);
                }
            });
            black_box(sampler.commit_version());
            Ok(secs)
        };
        let plain = observe("replay.sampling.observe", CommitPolicy::EpochBoundary)?;
        out.set("sampling.observe_ns", plain * 1e9 / draws);
        if let CommitPolicy::EveryK(k) = cfg.commit {
            let with_commits = observe("replay.sampling.observe_commit", cfg.commit)?;
            let commits = (draws / k.max(1) as f64).max(1.0);
            out.set(
                "sampling.commit_us",
                (with_commits - plain).max(0.0) * 1e6 / commits,
            );
        }
    }

    let kernel_sum = out.get("sampling.draw_ns")
        + nnz / draws
            * (out.get("sparse.margin_ns_per_nnz") + out.get("losses.apply_update_ns_per_nnz"))
        + out.get("losses.grad_scale_ns")
        + out.get("sampling.observe_ns");
    out.set("core.kernel_sum_ns", kernel_sum);
    Ok(())
}

/// What a [`Tap`] copied: `(sent by the coordinator, message)`.
type TapLog = Arc<Mutex<Vec<(bool, Message)>>>;

/// A transport that copies what crosses link 0 in rounds `round − 1`
/// and `round` — the models in both directions and the feedback batch —
/// so the traced run can time the codec on one round's real frames.
struct Tap<T> {
    inner: T,
    /// `None` on every endpoint but link 0's coordinator end.
    log: Option<TapLog>,
    round: u64,
}

impl<T> Tap<T> {
    fn note(&self, sent: bool, msg: &Message) {
        let Some(log) = &self.log else { return };
        let wanted = match msg {
            Message::ModelUpdate { round, .. } => *round + 1 == self.round || *round == self.round,
            Message::FeedbackBatch { round, .. } => *round == self.round,
            _ => false,
        };
        if wanted {
            log.lock()
                .expect("the tap's log is only pushed to")
                .push((sent, msg.clone()));
        }
    }
}

impl<T: Transport> Transport for Tap<T> {
    fn send(&mut self, msg: &Message) -> Result<(), TransportError> {
        self.note(true, msg);
        self.inner.send(msg)
    }

    fn recv(&mut self) -> Result<Message, TransportError> {
        let msg = self.inner.recv()?;
        self.note(false, &msg);
        Ok(msg)
    }
}

/// What crossed link 0 in one round: the consensus models the
/// coordinator sent in that round and the one before, the replicas the
/// worker sent back, and the worker's feedback batch.
#[derive(Debug)]
struct RoundTraffic {
    round: u64,
    /// `[previous, current]` consensus model, coordinator → worker.
    down: [Vec<f64>; 2],
    /// `[previous, current]` trained replica, worker → coordinator.
    up: [Vec<f64>; 2],
    feedback: Message,
}

impl RoundTraffic {
    fn from_log(log: &[(bool, Message)], round: u64) -> Option<Self> {
        let model_of = |sent: bool, r: u64| {
            log.iter().find_map(|(s, m)| match m {
                Message::ModelUpdate { round, model, .. } if *s == sent && *round == r => {
                    Some(model.clone())
                }
                _ => None,
            })
        };
        let feedback = log
            .iter()
            .find(|(_, m)| matches!(m, Message::FeedbackBatch { .. }))?;
        Some(RoundTraffic {
            round,
            down: [model_of(true, round - 1)?, model_of(true, round)?],
            up: [model_of(false, round - 1)?, model_of(false, round)?],
            feedback: feedback.1.clone(),
        })
    }

    fn update(&self, models: &[Vec<f64>; 2], which: usize) -> Message {
        Message::ModelUpdate {
            node: 0,
            round: self.round,
            model: models[which].clone(),
        }
    }

    /// The round's frames as a `WireEncoding::Auto` link would put them
    /// on the wire: a sparse delta against the previous model unless
    /// more than a third of the coordinates changed (`Tcp`'s rule).
    fn frames(&self) -> Vec<Message> {
        let frame = |models: &[Vec<f64>; 2]| {
            let (indices, values) = delta_coords(&models[0], &models[1]);
            if indices.len() > models[1].len() / 3 {
                self.update(models, 1)
            } else {
                Message::ModelDelta {
                    node: 0,
                    round: self.round,
                    dim: models[1].len() as u32,
                    indices,
                    values,
                }
            }
        };
        vec![frame(&self.down), frame(&self.up), self.feedback.clone()]
    }
}

/// The in-process twin with link 0 tapped: its training time against
/// the socket run's is the wire share, and its log holds real frames.
fn tapped_twin(
    job: &Job<'_>,
    round: u64,
    spans: &mut Spans,
    parent: Option<usize>,
) -> Result<(ClusterRun, Vec<(bool, Message)>), String> {
    let cfg = job
        .w
        .rewired(Wiring::InProcess)
        .cluster_config(job.seed, job.smoke, false)
        .expect("cluster workload");
    let log = Arc::new(Mutex::new(Vec::new()));
    let tap = |inner: InProcess, log| Tap { inner, log, round };
    let links: Vec<_> = in_process_links(cfg.nodes)
        .into_iter()
        .enumerate()
        .map(|(k, (c, w))| (tap(c, (k == 0).then(|| log.clone())), tap(w, None)))
        .collect();
    let (run, _) = spans.timed("cluster.run_with_links", parent, || {
        run_with_links(job.ds, &objective(), &cfg, links)
    });
    let run = run.map_err(|e| format!("in-process twin: {e}"))?;
    let log = std::mem::take(&mut *log.lock().expect("the tap's log is only pushed to"));
    Ok((run, log))
}

/// Codec and socket cost of one round's frames.
fn replay_wire(
    traffic: &RoundTraffic,
    spans: &mut Spans,
    parent: Option<usize>,
    out: &mut Values,
) -> Result<(), String> {
    const ITERS: usize = 20;
    let frames = traffic.frames();
    let mut bufs: Vec<Vec<u8>> = frames.iter().map(Message::to_bytes).collect();
    let (_, secs) = spans.timed("replay.cluster.wire.encode", parent, || {
        for _ in 0..ITERS {
            for (m, buf) in frames.iter().zip(bufs.iter_mut()) {
                buf.clear();
                m.encode(buf);
                black_box(buf.len());
            }
        }
    });
    out.set("cluster.wire.round_encode_us", secs * 1e6 / ITERS as f64);
    let (decoded, secs) = spans.timed("replay.cluster.wire.decode", parent, || {
        let mut ok = true;
        for _ in 0..ITERS {
            for buf in &bufs {
                ok &= black_box(Message::decode(buf)).is_ok();
            }
        }
        ok
    });
    if !decoded {
        return Err("a round frame did not decode".into());
    }
    out.set("cluster.wire.round_decode_us", secs * 1e6 / ITERS as f64);

    // The same round over one loopback link, worker end on its own
    // thread as in a run: consensus down, then replica and feedback up.
    // The link deltifies against the last model it carried, so
    // alternating between the round's two models keeps every frame the
    // round's own delta (same support in either direction).
    let mut links = tcp_loopback_links(1, "127.0.0.1:0").map_err(|e| e.to_string())?;
    let (mut coord, mut worker) = links.pop().ok_or("no loopback link")?;
    coord.set_encoding(WireEncoding::Auto);
    worker.set_encoding(WireEncoding::Auto);
    let downs = &[0, 1].map(|i| traffic.update(&traffic.down, i));
    let ups = &[0, 1].map(|i| traffic.update(&traffic.up, i));
    let round_trips = |coord: &mut isasgd_cluster::Tcp,
                       worker: &mut isasgd_cluster::Tcp,
                       range: std::ops::Range<usize>| {
        std::thread::scope(|scope| {
            let steps = range.clone();
            let echo = scope.spawn(move || -> Result<(), TransportError> {
                for i in steps {
                    worker.recv()?;
                    worker.send(&ups[i % 2])?;
                    worker.send(&traffic.feedback)?;
                }
                Ok(())
            });
            let drive = || -> Result<(), TransportError> {
                for i in range {
                    coord.send(&downs[i % 2])?;
                    coord.recv()?;
                    coord.recv()?;
                }
                Ok(())
            };
            let driven = drive();
            let echoed = echo.join().expect("echo thread does not panic");
            driven.and(echoed)
        })
    };
    // Untimed: the first models on a fresh link always go dense.
    round_trips(&mut coord, &mut worker, 0..1).map_err(|e| format!("loopback priming: {e}"))?;
    let (result, secs) = spans.timed("replay.cluster.transport.roundtrip", parent, || {
        round_trips(&mut coord, &mut worker, 1..ITERS + 1)
    });
    result.map_err(|e| format!("loopback round trip: {e}"))?;
    out.set("cluster.transport.roundtrip_us", secs * 1e6 / ITERS as f64);
    Ok(())
}

/// Counters and timings the cluster results already carry.
fn cluster_counters(w: &Workload, smoke: bool, main: &Rep, reps: &[Rep], out: &mut Values) {
    let Some(run) = &main.cluster else { return };
    let rounds = w.budget(smoke) as f64;
    let net = &run.net;
    out.set(
        "cluster.wire.bytes_per_round",
        bytes_of(net, &ROUND_KINDS) / rounds,
    );
    let models = [FrameKind::ModelUpdate, FrameKind::ModelDelta];
    out.set(
        "cluster.wire.model_bytes_per_round",
        bytes_of(net, &models) / rounds,
    );
    out.set(
        "cluster.wire.feedback_bytes_per_round",
        bytes_of(net, &[FrameKind::FeedbackBatch]) / rounds,
    );
    out.set(
        "cluster.wire.checkpoint_bytes_per_round",
        bytes_of(net, &[FrameKind::Checkpoint, FrameKind::CheckpointAck]) / rounds,
    );
    out.set(
        "cluster.wire.admission_bytes",
        bytes_of(net, &FrameKind::ALL) - bytes_of(net, &ROUND_KINDS),
    );
    let deltas = frames_of(net, FrameKind::ModelDelta);
    let dense = frames_of(net, FrameKind::ModelUpdate);
    if deltas + dense > 0.0 {
        out.set("cluster.wire.delta_frame_share", deltas / (deltas + dense));
    }
    out.set("balance.phi_imbalance", run.phi_imbalance);
    out.set(
        "cluster.coordinator.feedback_rows",
        run.feedback_rows as f64,
    );

    let round_ms: Vec<f64> = reps
        .iter()
        .chain([main])
        .flat_map(Rep::epoch_secs)
        .map(|s| s * 1e3)
        .collect();
    let p50 = median(&round_ms);
    out.set("cluster.coordinator.round_ms_p50", p50);
    out.set("cluster.coordinator.round_ms_p90", quantile(&round_ms, 0.9));

    let (compute, wait) = run.telemetry.iter().fold((0u64, 0u64), |(c, b), s| {
        (c + s.timing.compute_us, b + s.timing.barrier_wait_us)
    });
    if compute + wait > 0 {
        let total = (compute + wait) as f64;
        out.set(
            "cluster.coordinator.barrier_wait_share",
            wait as f64 / total,
        );
        out.set("cluster.coordinator.compute_share", compute as f64 / total);
    }
    if !run.recovery.is_empty() {
        let sum = |f: &dyn Fn(&isasgd_cluster::RecoveryFootprint) -> u64| {
            run.recovery.iter().map(f).sum::<u64>() as f64
        };
        out.set(
            "cluster.fleet.checkpoint_bytes",
            sum(&|r| r.checkpoint_bytes),
        );
        out.set("cluster.fleet.replay_log_bytes", sum(&|r| r.log_bytes));
        out.set("cluster.fleet.respawns", sum(&|r| u64::from(r.respawns)));
        // The round in which the kill lands pays detection, respawn,
        // admission and replay on top of a normal round.
        let kill = w.kill_round(smoke) as usize;
        if let Some(secs) = main.epoch_secs().get(kill - 1) {
            out.set("cluster.fleet.recovery_ms", secs * 1e3 - p50);
        }
    }
}

/// Runs the traced run of `w` and returns its per-layer metrics.
pub fn per_layer(w: &Workload, opts: &Options, spans: &mut Spans) -> Outcome {
    let root = spans.open("workload", None);
    let seed = opts.sub_seed(0);
    let (ds, _) = spans.timed("datagen.generate", root, || {
        seeded_dataset(&w.data_profile(opts.smoke), seed)
    });
    let job = Job {
        w,
        ds: &ds,
        seed,
        smoke: opts.smoke,
    };
    let mut tally = Tally::default();
    let mut out = Values::default();

    // Untraced and traced reps, alternating; their throughput ratio is
    // the tracing overhead. The fleet's telemetry frames count as
    // tracing: only traced reps arm them.
    let pairs = if opts.smoke { 1 } else { 2 };
    // rows/s by [untraced, traced]; every rep but the last traced one.
    let mut rates = [Vec::new(), Vec::new()];
    let mut others: Vec<Rep> = Vec::new();
    let mut reference = None;
    let mut main: Option<(Rep, Vec<f64>)> = None;
    for i in 0..2 * pairs {
        let on = i % 2 == 1;
        spans.set_on(on);
        let what = if on { "traced rep" } else { "untraced rep" };
        let same_bits = reference.filter(|_| w.deterministic);
        let rep = tally.rep(what, &job, on, same_bits, spans, root);
        spans.set_on(true);
        let Some((rep, model)) = rep else { continue };
        check_respawns(w, &rep, &mut tally);
        reference.get_or_insert(rep.model_hash);
        rates[usize::from(on)].push(rep.rows_per_s());
        if !on {
            others.push(rep);
        } else if let Some((earlier, _)) = main.replace((rep, model)) {
            others.push(earlier);
        }
    }

    if let Some((main, model)) = &main {
        let [untraced, traced] = rates.map(|r| median(&r));
        out.set("trace.rows_per_s_traced", traced);
        if untraced.is_finite() {
            out.set("trace.rows_per_s_untraced", untraced);
            out.set("trace.overhead_share", 1.0 - traced / untraced);
        }
        let threads = match w.call {
            Call::Train { exec, .. } => exec.concurrency(),
            Call::Cluster { .. } => crate::workloads::WORKERS,
        } as f64;
        out.set(
            "core.step_ns",
            main.train_s * threads * 1e9 / main.steps as f64,
        );
        out.set("core.eval_share", main.eval_s / main.wall_s);
        out.set("sampling.commits", main.commits as f64);

        if let Err(e) = replay_layers(&job, model, spans, root, &mut out) {
            tally.fail(format!("{} layer replay: {e}", w.name));
        }
        let step_ns = out.get("core.step_ns");
        out.set(
            "core.engine_overhead_share",
            1.0 - out.get("core.kernel_sum_ns") / step_ns,
        );
        out.set(
            "sampling.commit_share",
            main.commits as f64 * out.get("sampling.commit_us") * 1e-6 / (main.train_s * threads),
        );

        match w.call {
            Call::Train {
                algo,
                exec: Execution::Threads(_),
                ..
            } => hogwild_baselines(&job, algo, main, &mut tally, spans, root, &mut out),
            Call::Train { .. } => {}
            Call::Cluster { transport } => {
                cluster_counters(w, opts.smoke, main, &others, &mut out);
                let replicas = vec![model.clone(), model.clone()];
                let mut consensus = Vec::with_capacity(model.len());
                let (_, secs) = spans.timed("replay.cluster.coordinator.average", root, || {
                    average_models(&replicas, &[1, 1], SyncStrategy::Average, &mut consensus);
                });
                out.set("cluster.coordinator.average_us", secs * 1e6);
                cluster_twins(&job, transport, main, &mut tally, spans, root, &mut out);
            }
        }
    }
    spans.close(root);
    out.set("trace.spans", spans.len() as f64);

    let mut report = String::new();
    let mut metrics = Vec::new();
    for m in PER_LAYER {
        let value = out.get(m.name);
        metrics.push((m.name, value, m.unit));
        writeln!(
            report,
            "{:<24} {:<42} {:>18.6} {}",
            w.name, m.name, value, m.unit
        )
        .expect("writing to a String");
    }
    tally.finish(w, "traced run", main.is_some(), metrics, report)
}

/// `core.thread_scaling` and `core.shared_model_overhead_ns`: the same
/// data under one Hogwild thread and under the sequential engine, on a
/// quarter of the epoch budget (both are per-step rates).
fn hogwild_baselines(
    job: &Job<'_>,
    algo: Algorithm,
    main: &Rep,
    tally: &mut Tally,
    spans: &mut Spans,
    parent: Option<usize>,
    out: &mut Values,
) {
    let sequential = match algo {
        Algorithm::Asgd => Algorithm::Sgd,
        _ => Algorithm::IsSgd,
    };
    let short = Workload {
        epochs: (job.w.epochs / 4).max(2),
        ..*job.w
    };
    let mut step_ns = |what, algo, exec| {
        let w = short.recalled(algo, exec);
        let job = Job { w: &w, ..*job };
        tally
            .short_run(what, &job, spans, parent)
            .map(|rep| rep.train_s * 1e9 / rep.steps as f64)
    };
    let one_thread = step_ns("one-thread baseline", algo, Execution::Threads(1));
    let seq = step_ns("sequential baseline", sequential, Execution::Sequential);
    if let Some(one) = one_thread {
        // rows/s of two threads over rows/s of one.
        out.set("core.thread_scaling", main.rows_per_s() * one / 1e9);
        if let Some(seq) = seq {
            out.set("core.shared_model_overhead_ns", one - seq);
        }
    }
}

/// The cluster workloads' twins: the tapped in-process run (wire share,
/// real frames, bit-identity) and, for the fleet, the TCP run whose
/// set-up is the base of `cluster.fleet.spawn_admit_s`.
fn cluster_twins(
    job: &Job<'_>,
    transport: Wiring,
    main: &Rep,
    tally: &mut Tally,
    spans: &mut Spans,
    parent: Option<usize>,
    out: &mut Values,
) {
    let rounds = job.w.budget(job.smoke) as u64;
    let round = (rounds / 2).max(2);
    tally.attempted += 1;
    match tapped_twin(job, round, spans, parent) {
        Err(e) => tally.fail(format!("{}: {e}", job.w.name)),
        Ok((twin, log)) => {
            let hash = crate::workloads::model_hash(&twin.model);
            if hash != main.model_hash {
                tally.fail(format!(
                    "{}: in-process twin's model bits {hash:016x} differ from {:016x}",
                    job.w.name, main.model_hash
                ));
            }
            out.set(
                "cluster.transport.wire_share",
                1.0 - twin.trace.total_wall_secs() / main.train_s,
            );
            match RoundTraffic::from_log(&log, round) {
                None => tally.fail(format!("{}: round {round} traffic not seen", job.w.name)),
                Some(traffic) => {
                    if let Err(e) = replay_wire(&traffic, spans, parent, out) {
                        tally.fail(format!("{}: {e}", job.w.name));
                    }
                }
            }
        }
    }
    if transport == Wiring::Fleet {
        let tcp = job.w.rewired(Wiring::Tcp);
        let tcp_job = Job { w: &tcp, ..*job };
        let same_bits = Some(main.model_hash);
        tally.rep("tcp twin", &tcp_job, false, same_bits, spans, parent);
        // What processes add to set-up over threads on the same sockets.
        let fleet_setup = cluster_setup_s(job, tally, spans, parent);
        let tcp_setup = cluster_setup_s(&tcp_job, tally, spans, parent);
        out.set("cluster.fleet.spawn_admit_s", fleet_setup - tcp_setup);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn update(round: u64, model: Vec<f64>) -> Message {
        Message::ModelUpdate {
            node: 0,
            round,
            model,
        }
    }

    #[test]
    fn tap_keeps_two_rounds_of_models_and_one_feedback() {
        let (a, mut b) = InProcess::pair();
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut tap = Tap {
            inner: a,
            log: Some(log.clone()),
            round: 3,
        };
        for r in 1..=4 {
            tap.send(&update(r, vec![r as f64])).unwrap();
            b.recv().unwrap();
            b.send(&Message::FeedbackBatch {
                node: 0,
                round: r,
                observations: vec![(0, 1.0)],
            })
            .unwrap();
            tap.recv().unwrap();
        }
        let log = log.lock().unwrap();
        let rounds: Vec<(bool, u64)> = log
            .iter()
            .map(|(s, m)| match m {
                Message::ModelUpdate { round, .. } | Message::FeedbackBatch { round, .. } => {
                    (*s, *round)
                }
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(rounds, [(true, 2), (true, 3), (false, 3)]);
    }

    #[test]
    fn round_frames_follow_the_auto_rule() {
        let base = vec![0.0; 9];
        let mut sparse = base.clone();
        sparse[4] = 1.0;
        let dense: Vec<f64> = (0..9).map(|i| i as f64 + 1.0).collect();
        let feedback = Message::FeedbackBatch {
            node: 0,
            round: 2,
            observations: vec![(1, 0.5)],
        };
        let log = vec![
            (true, update(1, base.clone())),
            (false, update(1, base.clone())),
            (true, update(2, sparse)),
            (false, update(2, dense)),
            (false, feedback.clone()),
        ];
        let frames = RoundTraffic::from_log(&log, 2).unwrap().frames();
        assert!(
            matches!(&frames[0], Message::ModelDelta { indices, .. } if indices == &vec![4u32])
        );
        assert!(matches!(&frames[1], Message::ModelUpdate { .. }));
        assert_eq!(frames[2], feedback);
        assert!(RoundTraffic::from_log(&log[..2], 2).is_none());
    }

    #[test]
    fn byte_sums_split_round_traffic_from_admission() {
        let mut l = LinkStats::default();
        l.tx_bytes[FrameKind::ModelDelta.index()] = 100;
        l.rx_bytes[FrameKind::FeedbackBatch.index()] = 30;
        l.tx_bytes[FrameKind::DatasetShard.index()] = 7;
        l.tx_frames[FrameKind::ModelDelta.index()] = 2;
        let net = [l];
        assert_eq!(bytes_of(&net, &ROUND_KINDS), 130.0);
        assert_eq!(bytes_of(&net, &FrameKind::ALL), 137.0);
        assert_eq!(frames_of(&net, FrameKind::ModelDelta), 2.0);
    }
}
