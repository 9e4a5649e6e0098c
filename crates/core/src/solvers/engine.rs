//! The shared engine, [`run_engine`]: one epoch loop for every solver
//! and every execution mode.
//!
//! Plan construction, the epoch loop, worker spawning, staleness
//! queueing, timing and trace bookkeeping live here once, for every
//! solver kernel:
//!
//! * **Sequential** — per draw of the single shard's stream: `compute`,
//!   `apply`, `observe`. This arm is the oracle the other runtimes are
//!   pinned against (simulated at τ = 0, threaded with one worker, a
//!   one-node cluster), so it carries nothing they do not.
//! * **`Threads(k)`** — real lock-free Hogwild workers over a
//!   [`SharedModel`], each pulling chunks from its own shard's
//!   [`ScheduleStream`] through the solver's
//!   [`SharedKernel`](crate::solvers::solver::SharedKernel).
//! * **`Simulated{tau, workers}`** — the paper's deterministic
//!   bounded-staleness mode: worker streams are drawn lazily round-robin
//!   and every update is applied `τ` logical steps after computation via
//!   a [`DelayQueue`], with an epoch-boundary flush. `τ = 0` reproduces
//!   the sequential path bit-for-bit.
//!
//! **Steps read gathered rows.** Kernels take the drawn row itself, a
//! [`SparseRow`](isasgd_sparse::SparseRow); where it is read from is
//! decided here. The sequential and threaded arms step through each
//! pulled chunk with a [`RowWindow`]: it copies the next
//! [`RowWindow::ROWS`] drawn rows, in draw order, into one small
//! contiguous buffer, and the kernel steps each draw on its copy. A
//! drawn row sits wherever the draw landed in its shard, so a loop that
//! reads rows one step at a time stalls on a cache miss per step; the
//! copy issues a window's misses back to back. A window holds only draws
//! the arm has already pulled — under `EveryK`, the threads' k-strides
//! and the sequential arm's single draws — so draw order, observation
//! order, commit boundaries and the arithmetic are those of a loop over
//! the dataset, bit for bit. The simulated arm reads each row from the
//! dataset by id, for `compute` and again for the `apply` that lands τ
//! steps later.
//!
//! **Schedules are never materialized.** Every path pulls draws from
//! per-worker [`ScheduleStream`]s (each owns its shard's boxed
//! [`Sampler`](isasgd_sampling::Sampler) and private draw RNG) in bounded
//! chunks, so epoch memory is `O(workers · chunk)` instead of the old
//! `O(n)` per-epoch `Vec` of draws — and a mid-epoch sampler re-weight is
//! visible to the very next chunk on *every* execution mode. Only the
//! owning stream consumes its RNG, so thread scheduling cannot perturb a
//! worker's RNG sequence: single-threaded and simulated runs are
//! bit-deterministic under a master seed, as are non-adaptive and
//! 1-worker threaded runs. Multi-worker *adaptive* threaded runs remain
//! structurally deterministic (draw counts, commit cadence) but not
//! bitwise: racy Hogwild model reads feed run-varying observations into
//! the sampler, so committed weights — and with them the rows RNG
//! outputs map to — can differ run-to-run.
//!
//! Adaptive feedback — observed per-sample gradient scales flowing back
//! into the samplers — is what [`Solver::compute`] and
//! [`SharedKernel::step_shared`](crate::solvers::solver::SharedKernel::step_shared)
//! return beside their update, and goes straight to the drawing
//! worker's own
//! [`ScheduleStream::observe`], the single observation convention shared
//! with `isasgd-cluster` (the gradient norm `|ℓ'(m)|·‖x_i‖` over the
//! worker's own rows' norms); the engine itself never touches norms or
//! shard arithmetic. Delivery is always streaming:
//!
//! * **Sequential/threaded** runs observe each sample right after its
//!   step (shards are disjoint, so a worker only ever observes rows its
//!   own sampler owns — threaded adaptivity needs no cross-thread
//!   accumulator).
//! * **Simulated** runs attach the observation to the in-flight update
//!   and deliver it to the worker that drew it when the update *applies*
//!   — τ steps later, or at the epoch-end flush.
//!
//! *When* observations fold into the live distribution is the sampler's
//! [`CommitPolicy`]: at epoch boundaries (default), or every `k` accepted
//! observations (`EveryK` — intra-epoch adaptivity, `O(k log n)` a
//! commit whatever the shard size). Under `EveryK` the engine pulls
//! draws in `k`-sized strides so each chunk is at most one commit window
//! behind the freshest re-weighting; the per-epoch cumulative sampler
//! commit count is reported in [`RunResult::sampler_commits`], where
//! intra-epoch commits show up as the count advancing by more than
//! `workers` per epoch.
//!
//! Draw cost accounting follows the paper's convention: epoch-boundary
//! runs bill chunk pulls to `setup_secs` ("sampling time"), mirroring the
//! offline sequence generation they replace. Streamed (`EveryK`) epochs
//! are the exception: their draws interleave with gradient steps and are
//! billed to training time (the price of intra-epoch adaptivity is paid
//! on the hot path, where it belongs). Threaded workers likewise draw on
//! the hot path — their pulls overlap training by construction.

use crate::config::{Execution, TrainConfig};
use crate::error::CoreError;
use crate::eval::{evaluate, TrainTimer};
use crate::solvers::plan::build_plan;
use crate::solvers::solver::{Sched, Solver};
use crate::trainer::RunResult;
use isasgd_asyncsim::DelayQueue;
use isasgd_losses::{Loss, Objective};
use isasgd_metrics::{Trace, TracePoint};
use isasgd_model::SharedModel;
use isasgd_sampling::{CommitPolicy, SamplingStrategy, ScheduleStream};
use isasgd_sparse::{Dataset, RowWindow};

/// The dataset row a draw reads.
fn row_of(s: &Sched) -> usize {
    s.row as usize
}

/// What the trainer resolved about one engine run beyond its solver:
/// the trace's labels.
pub struct RunMeta<'a> {
    /// Algorithm display name for the trace (annotated with the sampling
    /// strategy when it overrides the algorithm's classical one).
    pub algo_name: &'a str,
    /// Dataset display name for the trace.
    pub dataset_name: &'a str,
    /// Concurrency number recorded in the trace (τ, thread count, or 1).
    pub concurrency: usize,
}

/// One observation riding a simulated in-flight update: the worker that
/// drew it and the row's raw gradient scale `|ℓ'(m)|`. Delivered to that
/// worker's stream when the update applies.
type ObsNote = (usize, f64);

/// An in-flight simulated update, the row it was computed on and its
/// (optional) observation.
type InFlight<U> = (U, u32, Option<ObsNote>);

/// Applies a popped in-flight update, reading its row from the dataset
/// by id, and delivers its observation to the stream that drew it.
fn land<S: Solver>(
    solver: &mut S,
    data: &Dataset,
    streams: &mut [ScheduleStream],
    lambda: f64,
    (update, row, note): InFlight<S::Update>,
    w: &mut [f64],
) {
    solver.apply(&data.row(row as usize), lambda, update, w);
    if let Some((worker, g)) = note {
        streams[worker].observe(row as usize, g);
    }
}

/// Runs `solver` on `ds` under `exec`, drawing samples per `strategy`.
///
/// `init` warm-starts the model (`None` = zeros). Combination validation
/// (which algorithm accepts which execution) happens in the trainer
/// dispatch before this is called; the engine itself only rejects what it
/// structurally cannot run (a thread pool needs a
/// [`SharedKernel`](crate::solvers::solver::SharedKernel)).
#[expect(
    clippy::too_many_arguments,
    reason = "the one place the full run context assembles"
)]
pub fn run_engine<L: Loss, S: Solver>(
    ds: &Dataset,
    obj: &Objective<L>,
    cfg: &TrainConfig,
    exec: Execution,
    strategy: SamplingStrategy,
    meta: RunMeta<'_>,
    init: Option<&[f64]>,
    mut solver: S,
) -> Result<RunResult, CoreError> {
    let workers = match exec {
        Execution::Sequential => 1,
        Execution::Threads(k) => k,
        Execution::Simulated { workers, .. } => workers,
    };
    let mut plan = build_plan(ds, obj, cfg, workers, strategy)?;
    // One window per worker of the arms that gather, kept all run rather
    // than built on each epoch's threads (RowWindow's docs); every row
    // the run steps is a row of `ds`, so none outgrows its buffers.
    let gathering = match exec {
        Execution::Simulated { .. } => 0,
        _ => plan.streams.len(),
    };
    let widest = ds.max_row_nnz();
    let mut windows: Vec<RowWindow> = (0..gathering)
        .map(|_| RowWindow::with_row_capacity(widest))
        .collect();
    solver.init(&plan.data)?;
    let n = plan.data.n_samples();
    let dim = plan.data.dim();
    let adaptive = plan.is_adaptive();
    // Intra-epoch commits steer the remaining draws of the same epoch on
    // every execution mode — all of them pull from live streams.
    let streaming = adaptive && matches!(plan.commit, CommitPolicy::EveryK(_));
    let threaded = matches!(exec, Execution::Threads(_));
    let report_balance = solver.uses_importance_plan();

    // Model containers: a dense vector for sequential/simulated modes, a
    // lock-free shared model for threads.
    let mut w: Vec<f64> = match init {
        Some(w0) => w0.to_vec(),
        None => vec![0.0; dim],
    };
    let shared = if threaded {
        Some(SharedModel::from_dense(&w))
    } else {
        None
    };

    let mut trace = Trace::new(
        meta.algo_name,
        meta.dataset_name,
        meta.concurrency,
        cfg.step_size,
    );
    let mut timer = TrainTimer::new();
    let mut eval_timer = TrainTimer::new();
    // Chunk-pull + sampler-maintenance cost on boundary-commit runs,
    // folded into setup_secs (the paper's "sampling time").
    let mut sampling_timer = TrainTimer::new();
    let mut steps: u64 = 0;
    // Cumulative sampler commit count at each epoch's end.
    let mut sampler_commits: Vec<u64> = Vec::with_capacity(cfg.epochs);
    // Reused draw chunk (sequential path).
    let mut chunk: Vec<Sched> = Vec::new();
    // Reused per-worker draw buffers (simulated path): (chunk, cursor).
    // `Vec::new()` does not allocate, so non-simulated runs pay nothing.
    let mut feeds: Vec<(Vec<Sched>, usize)> = (0..workers).map(|_| (Vec::new(), 0)).collect();

    // Epoch-0 point: metrics of the starting model at time zero. Each
    // epoch's evaluation replaces them, so after the loop they are the
    // metrics of the returned model — no separate final pass.
    eval_timer.start();
    let mut final_metrics = evaluate(&plan.data, obj, &w);
    eval_timer.stop();
    trace.push(TracePoint {
        epoch: 0.0,
        wall_secs: 0.0,
        objective: final_metrics.objective,
        rmse: final_metrics.rmse,
        error_rate: final_metrics.error_rate,
    });

    let lambda = cfg.step_size;
    for epoch in 0..cfg.epochs {
        // Observations matter when a later epoch re-samples from them —
        // or, on streamed runs, when a commit inside THIS epoch steers
        // its own remaining draws (so the final epoch collects too).
        let collect = adaptive && (streaming || epoch + 1 < cfg.epochs);

        timer.start();
        match exec {
            Execution::Sequential => {
                solver.on_epoch_start(&plan.data, &w, lambda);
                // Streamed epochs pull one draw at a time so each sees
                // the freshest committed distribution; boundary-commit
                // epochs pull large chunks (the distribution is frozen
                // all epoch) with the draw cost billed to sampling time,
                // as materialization was.
                let chunk_len = if streaming {
                    1
                } else {
                    ScheduleStream::DEFAULT_CHUNK
                };
                let (data, stream, window) = (&plan.data, &mut plan.streams[0], &mut windows[0]);
                while !stream.is_exhausted() {
                    if !streaming {
                        timer.stop();
                        sampling_timer.start();
                    }
                    stream.fill_chunk(&mut chunk, chunk_len);
                    if !streaming {
                        sampling_timer.stop();
                        timer.start();
                    }
                    window.walk(data, &chunk, row_of, |s, row| {
                        let (update, g) = solver.compute(row, s.corr, lambda, &w);
                        solver.apply(row, lambda, update, &mut w);
                        if collect {
                            stream.observe(s.row as usize, g);
                        }
                    });
                }
                solver.on_epoch_end(&plan.data, lambda, &mut w);
            }
            Execution::Simulated { tau, .. } => {
                solver.on_epoch_start(&plan.data, &w, lambda);
                // In-flight updates carry their observation note (row,
                // raw gradient scale) so feedback lands at APPLY time.
                let mut queue: DelayQueue<InFlight<S::Update>> = DelayQueue::new(tau);
                let chunk_len = if streaming {
                    1
                } else {
                    ScheduleStream::DEFAULT_CHUNK
                };
                let streams = &mut plan.streams;
                let data = &plan.data;
                // Rewind the reused per-worker draw buffers (emptied by
                // the previous epoch; capacity is kept).
                for f in feeds.iter_mut() {
                    f.0.clear();
                    f.1 = 0;
                }
                let total: usize = streams.iter().map(|s| s.remaining()).sum();
                // Round-robin over live streams: worker `t mod k` draws
                // from its *current* distribution at global step t, so
                // mid-epoch commits steer later draws.
                let mut k = 0usize;
                for _ in 0..total {
                    while feeds[k].1 == feeds[k].0.len() && streams[k].is_exhausted() {
                        k = (k + 1) % workers;
                    }
                    if feeds[k].1 == feeds[k].0.len() {
                        if !streaming {
                            timer.stop();
                            sampling_timer.start();
                        }
                        streams[k].fill_chunk(&mut feeds[k].0, chunk_len);
                        feeds[k].1 = 0;
                        if !streaming {
                            sampling_timer.stop();
                            timer.start();
                        }
                    }
                    let s = feeds[k].0[feeds[k].1];
                    feeds[k].1 += 1;
                    let (update, g) = solver.compute(&data.row(s.row as usize), s.corr, lambda, &w);
                    let note = collect.then_some((k, g));
                    if let Some(landed) = queue.push((update, s.row, note)) {
                        land(&mut solver, data, streams, lambda, landed, &mut w);
                    }
                    k = (k + 1) % workers;
                }
                // Epoch barrier: flush in-flight updates with their
                // observations.
                for landed in queue.drain() {
                    land(&mut solver, data, streams, lambda, landed, &mut w);
                }
                solver.on_epoch_end(&plan.data, lambda, &mut w);
            }
            Execution::Threads(_) => {
                let model = shared.as_ref().expect("threaded mode owns a shared model");
                if solver.wants_epoch_start() {
                    model.snapshot_into(&mut w);
                    solver.on_epoch_start(&plan.data, &w, lambda);
                }
                let kernel = solver
                    .shared_kernel()
                    .ok_or_else(|| CoreError::Unsupported {
                        algorithm: solver.label(),
                        reason: "this solver mutates per-step state and cannot run lock-free; \
                             use Sequential execution"
                            .into(),
                    })?;
                let data = &plan.data;
                // Each worker owns its shard's stream for the epoch and
                // observes into its own sampler — shards are disjoint, so
                // adaptivity is thread-local by construction. Under
                // EveryK the pull stride is k: draws are at most one
                // commit window behind the freshest re-weighting (and a
                // 1-worker streamed threaded run is bit-equal to the
                // sequential stream, which commits on the same
                // k-aligned boundaries).
                let chunk_len = match (streaming, plan.commit) {
                    (true, CommitPolicy::EveryK(every)) => every.max(1),
                    _ => ScheduleStream::DEFAULT_CHUNK,
                };
                std::thread::scope(|scope| {
                    for (stream, window) in plan.streams.iter_mut().zip(&mut windows) {
                        scope.spawn(move || {
                            let mut chunk: Vec<Sched> = Vec::with_capacity(chunk_len);
                            while stream.fill_chunk(&mut chunk, chunk_len) > 0 {
                                window.walk(data, &chunk, row_of, |s, row| {
                                    let g = kernel.step_shared(row, s.corr, lambda, model);
                                    if collect {
                                        stream.observe(s.row as usize, g);
                                    }
                                });
                            }
                        });
                    }
                });
            }
        }
        timer.stop();
        steps += n as u64;

        eval_timer.start();
        if let Some(model) = &shared {
            model.snapshot_into(&mut w);
        }
        final_metrics = evaluate(&plan.data, obj, &w);
        eval_timer.stop();
        trace.push(TracePoint {
            epoch: (epoch + 1) as f64,
            wall_secs: timer.seconds(),
            objective: final_metrics.objective,
            rmse: final_metrics.rmse,
            error_rate: final_metrics.error_rate,
        });
        // Snapshot BEFORE the boundary commit below: growth beyond
        // `workers` per epoch here is intra-epoch adaptivity firing.
        sampler_commits.push(plan.commit_version());

        // Epoch barrier (sampling time, like chunk pulls): commit
        // adaptive re-weighting and advance every stream. Skipped after
        // the final epoch — nobody draws from the result.
        if epoch + 1 < cfg.epochs {
            sampling_timer.start();
            plan.advance_epoch();
            sampling_timer.stop();
        }
    }

    // `w` is the final model on every path: a threaded epoch ends by
    // snapshotting the shared model into it, after its workers joined.
    Ok(RunResult {
        trace,
        model: w,
        final_metrics,
        setup_secs: plan.setup_secs + sampling_timer.seconds(),
        train_secs: timer.seconds(),
        eval_secs: eval_timer.seconds(),
        steps,
        sampler_commits,
        balanced: report_balance.then_some(plan.balanced),
        rho: report_balance.then_some(plan.rho),
    })
}
#[cfg(test)]
mod tests {
    use crate::config::{Algorithm, Execution, SvrgVariant, TrainConfig};
    use crate::error::CoreError;
    use crate::trainer::{train, RunResult};
    use isasgd_losses::{LogisticLoss, Objective, Regularizer};
    use isasgd_sampling::SamplingStrategy;
    use isasgd_sparse::{Dataset, DatasetBuilder};

    fn separable(n: usize) -> Dataset {
        let mut b = DatasetBuilder::new(6);
        for i in 0..n {
            let j = (i % 3) as u32;
            if i % 2 == 0 {
                b.push_row(&[(j, 1.0), (3 + j, 0.5)], 1.0).unwrap();
            } else {
                b.push_row(&[(j, -1.0), (3 + j, -0.5)], -1.0).unwrap();
            }
        }
        b.finish()
    }

    /// Heavy-tailed norms: a few rows carry most of the importance mass,
    /// the regime where IS (and adaptivity) can matter.
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
        Objective::new(LogisticLoss, Regularizer::None)
    }

    fn obj_l2() -> Objective<LogisticLoss> {
        Objective::new(LogisticLoss, Regularizer::L2 { eta: 1e-3 })
    }

    /// Every regularizer as a test input: the shared and the dense model
    /// run the same step kernel, so bit pins hold under all three.
    fn objs() -> [Objective<LogisticLoss>; 3] {
        [
            obj(),
            Objective::new(LogisticLoss, Regularizer::L1 { eta: 1e-3 }),
            obj_l2(),
        ]
    }

    // ----------------------------------------------------- SGD family

    #[test]
    fn tau_zero_simulation_is_bit_exact_sequential() {
        // The invariant behind the compute/apply split (paper Eq. 21):
        // with τ = 0 and one worker, the delayed path IS the sequential
        // algorithm — including the regularizer evaluated at apply-time
        // w and the IS correction baked in at compute time. Formerly
        // pinned by asyncsim's StalenessEngine test; re-pinned here
        // against the unified engine.
        let ds = separable(120);
        let o = Objective::new(LogisticLoss, Regularizer::L1 { eta: 1e-3 });
        for algo in [Algorithm::Sgd, Algorithm::IsSgd] {
            let cfg = TrainConfig::default().with_epochs(3).with_seed(13);
            let seq = train(&ds, &o, algo, Execution::Sequential, &cfg, "sep").unwrap();
            let sim = train(
                &ds,
                &o,
                algo,
                Execution::Simulated { tau: 0, workers: 1 },
                &cfg,
                "sep",
            )
            .unwrap();
            assert_eq!(seq.model, sim.model, "{algo:?}: τ=0 must be bit-exact");
            for (a, b) in seq.trace.points.iter().zip(&sim.trace.points) {
                assert_eq!(a.objective, b.objective);
            }
        }
    }

    #[test]
    fn sequential_sgd_converges() {
        let ds = separable(200);
        let cfg = TrainConfig::default().with_epochs(4);
        let r = train(
            &ds,
            &obj(),
            Algorithm::Sgd,
            Execution::Sequential,
            &cfg,
            "sep",
        )
        .unwrap();
        assert_eq!(r.final_metrics.error_rate, 0.0);
        assert_eq!(r.steps, 800);
    }

    #[test]
    fn simulated_deterministic_end_to_end() {
        let ds = separable(100);
        let cfg = TrainConfig::default().with_epochs(3).with_seed(5);
        let e = Execution::Simulated {
            tau: 16,
            workers: 4,
        };
        let a = train(&ds, &obj(), Algorithm::IsAsgd, e, &cfg, "sep").unwrap();
        let b = train(&ds, &obj(), Algorithm::IsAsgd, e, &cfg, "sep").unwrap();
        assert_eq!(a.model, b.model, "simulated runs must be bit-deterministic");
        assert_eq!(a.trace.points.len(), b.trace.points.len());
        for (x, y) in a.trace.points.iter().zip(&b.trace.points) {
            assert_eq!(x.objective, y.objective);
        }
    }

    #[test]
    fn staleness_degrades_but_does_not_destroy_convergence() {
        let ds = separable(300);
        let cfg = TrainConfig::default().with_epochs(5).with_step_size(0.3);
        let fresh = train(
            &ds,
            &obj(),
            Algorithm::Sgd,
            Execution::Sequential,
            &cfg,
            "sep",
        )
        .unwrap();
        let stale = train(
            &ds,
            &obj(),
            Algorithm::Asgd,
            Execution::Simulated {
                tau: 32,
                workers: 4,
            },
            &cfg,
            "sep",
        )
        .unwrap();
        assert_eq!(fresh.final_metrics.error_rate, 0.0);
        assert_eq!(stale.final_metrics.error_rate, 0.0);
        // The perturbed trajectory must genuinely differ (τ took effect)
        // while both objectives stay in the same converged ballpark.
        assert_ne!(fresh.model, stale.model);
        assert!(stale.final_metrics.objective < 2.0 * fresh.final_metrics.objective + 0.1);
    }

    #[test]
    fn is_mode_with_tau_converges() {
        let ds = separable(300);
        let cfg = TrainConfig::default().with_epochs(5);
        let r = train(
            &ds,
            &obj(),
            Algorithm::IsAsgd,
            Execution::Simulated {
                tau: 44,
                workers: 4,
            },
            &cfg,
            "sep",
        )
        .unwrap();
        assert_eq!(r.final_metrics.error_rate, 0.0);
        assert_eq!(r.trace.concurrency, 44);
    }

    #[test]
    fn trace_epochs_are_sequential() {
        let ds = separable(50);
        let cfg = TrainConfig::default().with_epochs(3);
        let r = train(
            &ds,
            &obj(),
            Algorithm::Asgd,
            Execution::Simulated { tau: 4, workers: 2 },
            &cfg,
            "sep",
        )
        .unwrap();
        let epochs: Vec<f64> = r.trace.points.iter().map(|p| p.epoch).collect();
        assert_eq!(epochs, vec![0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn hogwild_asgd_converges_on_separable_data() {
        let ds = separable(400);
        let cfg = TrainConfig::default().with_epochs(5).with_step_size(0.5);
        let r = train(
            &ds,
            &obj(),
            Algorithm::Asgd,
            Execution::Threads(2),
            &cfg,
            "sep",
        )
        .unwrap();
        assert_eq!(r.trace.points.len(), 6);
        assert_eq!(r.final_metrics.error_rate, 0.0, "separable data must fit");
        assert!(r.final_metrics.objective < 0.4);
        assert_eq!(r.steps, 400 * 5);
        assert!(r.train_secs >= 0.0);
    }

    #[test]
    fn hogwild_is_asgd_converges_and_reports_balance() {
        let ds = separable(400);
        let o = Objective::new(LogisticLoss, Regularizer::L1 { eta: 1e-4 });
        let cfg = TrainConfig::default().with_epochs(5);
        let r = train(
            &ds,
            &o,
            Algorithm::IsAsgd,
            Execution::Threads(2),
            &cfg,
            "sep",
        )
        .unwrap();
        assert_eq!(r.final_metrics.error_rate, 0.0);
        assert!(r.balanced.is_some());
        assert!(r.rho.unwrap() >= 0.0);
    }

    #[test]
    fn objective_decreases_over_epochs_with_monotone_wall_clock() {
        let ds = separable(300);
        let cfg = TrainConfig::default().with_epochs(4).with_step_size(0.3);
        let r = train(
            &ds,
            &obj(),
            Algorithm::Asgd,
            Execution::Threads(2),
            &cfg,
            "sep",
        )
        .unwrap();
        let first = r.trace.points.first().unwrap().objective;
        let last = r.trace.points.last().unwrap().objective;
        assert!(last < first, "objective {first} → {last} should decrease");
        for w in r.trace.points.windows(2) {
            assert!(w[1].wall_secs >= w[0].wall_secs);
        }
    }

    #[test]
    fn single_thread_hogwild_converges() {
        let ds = separable(200);
        let cfg = TrainConfig::default().with_epochs(3);
        let r = train(
            &ds,
            &obj(),
            Algorithm::Asgd,
            Execution::Threads(1),
            &cfg,
            "sep",
        )
        .unwrap();
        assert_eq!(r.final_metrics.error_rate, 0.0);
    }

    // ----------------------------------------------------------- SVRG

    #[test]
    fn svrg_sequential_converges() {
        let ds = separable(200);
        let cfg = TrainConfig::default().with_epochs(4).with_step_size(0.3);
        let r = train(
            &ds,
            &obj_l2(),
            Algorithm::SvrgSgd(SvrgVariant::Literature),
            Execution::Sequential,
            &cfg,
            "sep",
        )
        .unwrap();
        assert_eq!(r.final_metrics.error_rate, 0.0);
        let first = r.trace.points.first().unwrap().objective;
        let last = r.trace.points.last().unwrap().objective;
        assert!(last < first);
        assert!(r.balanced.is_none(), "VR solvers report no balance");
    }

    #[test]
    fn svrg_threads_converges() {
        let ds = separable(300);
        let cfg = TrainConfig::default().with_epochs(3).with_step_size(0.3);
        let r = train(
            &ds,
            &obj_l2(),
            Algorithm::SvrgAsgd,
            Execution::Threads(2),
            &cfg,
            "sep",
        )
        .unwrap();
        assert_eq!(r.final_metrics.error_rate, 0.0);
    }

    #[test]
    fn svrg_simulated_deterministic() {
        let ds = separable(150);
        let cfg = TrainConfig::default().with_epochs(3).with_step_size(0.3);
        let e = Execution::Simulated { tau: 8, workers: 2 };
        let a = train(&ds, &obj_l2(), Algorithm::SvrgAsgd, e, &cfg, "sep").unwrap();
        let b = train(&ds, &obj_l2(), Algorithm::SvrgAsgd, e, &cfg, "sep").unwrap();
        assert_eq!(a.model, b.model);
        assert_eq!(a.final_metrics.error_rate, 0.0);
    }

    #[test]
    fn skip_mu_diverges_from_literature() {
        // The paper: "we found the convergence curve of this public
        // version far from the literature version".
        let ds = separable(200);
        let cfg = TrainConfig::default().with_epochs(3).with_step_size(0.3);
        let lit = train(
            &ds,
            &obj_l2(),
            Algorithm::SvrgSgd(SvrgVariant::Literature),
            Execution::Sequential,
            &cfg,
            "sep",
        )
        .unwrap();
        let skip = train(
            &ds,
            &obj_l2(),
            Algorithm::SvrgSgd(SvrgVariant::SkipMu),
            Execution::Sequential,
            &cfg,
            "sep",
        )
        .unwrap();
        let d: f64 = lit
            .model
            .iter()
            .zip(&skip.model)
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(d > 1e-6, "variants must follow different trajectories");
    }

    #[test]
    fn variance_reduction_helps_iteratively() {
        // SVRG should reach a lower objective than plain SGD in the same
        // epoch budget on this small problem.
        let ds = separable(200);
        let cfg = TrainConfig::default().with_epochs(5).with_step_size(0.2);
        let svrg = train(
            &ds,
            &obj_l2(),
            Algorithm::SvrgSgd(SvrgVariant::Literature),
            Execution::Sequential,
            &cfg,
            "sep",
        )
        .unwrap();
        let sgd = train(
            &ds,
            &obj_l2(),
            Algorithm::Sgd,
            Execution::Sequential,
            &cfg,
            "sep",
        )
        .unwrap();
        assert!(
            svrg.final_metrics.objective <= sgd.final_metrics.objective + 1e-3,
            "svrg {} vs sgd {}",
            svrg.final_metrics.objective,
            sgd.final_metrics.objective
        );
    }

    // ----------------------------------------------- adaptive sampling

    #[test]
    fn adaptive_sampling_trains_end_to_end_everywhere() {
        let ds = skewed(300);
        let mut cfg = TrainConfig::default().with_epochs(4).with_step_size(0.2);
        cfg.sampling = Some(SamplingStrategy::Adaptive);
        for (a, e) in [
            (Algorithm::IsSgd, Execution::Sequential),
            (Algorithm::IsAsgd, Execution::Threads(2)),
            (
                Algorithm::IsAsgd,
                Execution::Simulated { tau: 8, workers: 2 },
            ),
        ] {
            let r = train(&ds, &obj(), a, e, &cfg, "skew").unwrap();
            assert!(r.model.iter().all(|x| x.is_finite()), "{a:?}/{e:?}");
            assert!(r.steps > 0);
            assert!(r.final_metrics.objective.is_finite());
        }
    }

    #[test]
    fn adaptive_trace_differs_from_static_on_skewed_data() {
        // The acceptance criterion: --sampling adaptive must produce a
        // RunResult trace distinguishable from --sampling static.
        let ds = skewed(400);
        let run = |strategy| {
            let mut cfg = TrainConfig::default()
                .with_epochs(5)
                .with_step_size(0.2)
                .with_seed(11);
            cfg.sampling = Some(strategy);
            train(
                &ds,
                &obj(),
                Algorithm::IsSgd,
                Execution::Sequential,
                &cfg,
                "skew",
            )
            .unwrap()
        };
        let stat = run(SamplingStrategy::Static);
        let adap = run(SamplingStrategy::Adaptive);
        assert_ne!(stat.model, adap.model, "distributions must actually differ");
        let objs =
            |r: &RunResult| -> Vec<f64> { r.trace.points.iter().map(|p| p.objective).collect() };
        assert_ne!(objs(&stat), objs(&adap), "traces must be distinguishable");
        // Both still converge on this easy problem.
        assert!(adap.final_metrics.objective.is_finite());
        assert!(adap.final_metrics.error_rate <= 0.05);
    }

    #[test]
    fn adaptive_is_deterministic_under_seed() {
        let ds = skewed(200);
        let run = || {
            let mut cfg = TrainConfig::default().with_epochs(3).with_seed(21);
            cfg.sampling = Some(SamplingStrategy::Adaptive);
            train(
                &ds,
                &obj(),
                Algorithm::IsAsgd,
                Execution::Simulated { tau: 8, workers: 2 },
                &cfg,
                "skew",
            )
            .unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(
            a.model, b.model,
            "adaptive simulated runs must be reproducible"
        );
    }

    #[test]
    fn every_k_commit_is_deterministic_and_differs_from_epoch_commit() {
        use isasgd_sampling::CommitPolicy;
        let ds = skewed(300);
        let run = |commit| {
            let mut cfg = TrainConfig::default()
                .with_epochs(4)
                .with_step_size(0.2)
                .with_seed(3);
            cfg.sampling = Some(SamplingStrategy::Adaptive);
            cfg.commit = commit;
            train(
                &ds,
                &obj(),
                Algorithm::IsSgd,
                Execution::Sequential,
                &cfg,
                "skew",
            )
            .unwrap()
        };
        let a = run(CommitPolicy::EveryK(16));
        let b = run(CommitPolicy::EveryK(16));
        let epoch = run(CommitPolicy::EpochBoundary);
        assert_eq!(a.model, b.model, "streamed runs must be reproducible");
        assert_ne!(
            a.model, epoch.model,
            "intra-epoch commits must actually change the trajectory"
        );
        assert!(a.model.iter().all(|x| x.is_finite()));
        assert!(a.final_metrics.error_rate <= 0.05);
    }

    #[test]
    fn every_k_tau_zero_simulation_matches_sequential_stream() {
        // The τ=0 invariant holds on the streaming path too: one worker,
        // zero delay, intra-epoch commits — still the sequential
        // algorithm bit-for-bit.
        use isasgd_sampling::CommitPolicy;
        let ds = skewed(160);
        let mut cfg = TrainConfig::default().with_epochs(3).with_seed(13);
        cfg.sampling = Some(SamplingStrategy::Adaptive);
        cfg.commit = CommitPolicy::EveryK(8);
        let seq = train(
            &ds,
            &obj(),
            Algorithm::IsSgd,
            Execution::Sequential,
            &cfg,
            "skew",
        )
        .unwrap();
        let sim = train(
            &ds,
            &obj(),
            Algorithm::IsAsgd,
            Execution::Simulated { tau: 0, workers: 1 },
            &cfg,
            "skew",
        )
        .unwrap();
        assert_eq!(seq.model, sim.model, "τ=0 streaming must be bit-exact");
    }

    #[test]
    fn every_k_runs_under_simulation_and_threads() {
        use isasgd_sampling::CommitPolicy;
        let ds = skewed(240);
        let mut cfg = TrainConfig::default().with_epochs(3).with_step_size(0.2);
        cfg.sampling = Some(SamplingStrategy::Adaptive);
        cfg.commit = CommitPolicy::EveryK(32);
        for e in [
            Execution::Simulated { tau: 8, workers: 2 },
            Execution::Threads(2),
        ] {
            let r = train(&ds, &obj(), Algorithm::IsAsgd, e, &cfg, "skew").unwrap();
            assert!(r.model.iter().all(|x| x.is_finite()), "{e:?}");
            assert_eq!(r.steps, 3 * 240);
        }
        // Simulated streaming stays deterministic under a seed.
        let e = Execution::Simulated { tau: 8, workers: 2 };
        let a = train(&ds, &obj(), Algorithm::IsAsgd, e, &cfg, "skew").unwrap();
        let b = train(&ds, &obj(), Algorithm::IsAsgd, e, &cfg, "skew").unwrap();
        assert_eq!(a.model, b.model);
    }

    // ------------------------------------ streamed worker schedules

    #[test]
    fn threaded_single_worker_every_k_stream_matches_sequential() {
        // The streamed-threads equivalence pin: a 1-worker threaded run
        // under intra-epoch commits IS the sequential streaming
        // algorithm — same draw stream, same k-aligned commit
        // boundaries, same step kernel on the shared model as on the
        // dense one, whatever the regularizer.
        use isasgd_sampling::CommitPolicy;
        let ds = skewed(240);
        let mut cfg = TrainConfig::default()
            .with_epochs(4)
            .with_step_size(0.2)
            .with_seed(17);
        cfg.sampling = Some(SamplingStrategy::Adaptive);
        cfg.commit = CommitPolicy::EveryK(16);
        for o in &objs() {
            let seq = train(
                &ds,
                o,
                Algorithm::IsSgd,
                Execution::Sequential,
                &cfg,
                "skew",
            )
            .unwrap();
            let thr = train(
                &ds,
                o,
                Algorithm::IsAsgd,
                Execution::Threads(1),
                &cfg,
                "skew",
            )
            .unwrap();
            assert_eq!(
                seq.model, thr.model,
                "{:?}: 1-worker streamed threads must be bit-equal to sequential streaming",
                o.reg
            );
            assert_eq!(
                seq.sampler_commits, thr.sampler_commits,
                "commit cadence must match too"
            );
        }
    }

    #[test]
    fn threaded_every_k_runs_are_reproducible_under_a_seed() {
        use isasgd_sampling::CommitPolicy;
        let ds = skewed(200);
        for o in &objs() {
            let run = |threads| {
                let mut cfg = TrainConfig::default()
                    .with_epochs(3)
                    .with_step_size(0.2)
                    .with_seed(23);
                cfg.sampling = Some(SamplingStrategy::Adaptive);
                cfg.commit = CommitPolicy::EveryK(16);
                train(
                    &ds,
                    o,
                    Algorithm::IsAsgd,
                    Execution::Threads(threads),
                    &cfg,
                    "skew",
                )
                .unwrap()
            };
            // One worker: the whole trajectory is bit-reproducible.
            let (a, b) = (run(1), run(1));
            assert_eq!(a.model, b.model, "1-worker streamed runs must reproduce");
            // Two workers: the model is Hogwild-racy and the racy reads
            // make observed values (hence committed weights, hence draws)
            // run-varying — but the structure is deterministic: every
            // observation is accepted, so the commit cadence and step
            // counts reproduce exactly.
            let (c, d) = (run(2), run(2));
            assert_eq!(c.sampler_commits, d.sampler_commits);
            assert_eq!(c.steps, d.steps);
            assert!(c.model.iter().all(|x| x.is_finite()));
        }
    }

    #[test]
    fn threaded_every_k_consumes_mid_epoch_commits() {
        // The acceptance criterion for streamed worker schedules:
        // `--commit every-k --exec threads` must show sampler commit
        // versions advancing INSIDE an epoch — the pre-stream engine
        // silently degraded threaded runs to barrier-only commits.
        use isasgd_sampling::CommitPolicy;
        let ds = skewed(300);
        let workers = 2usize;
        let run = |commit| {
            let mut cfg = TrainConfig::default()
                .with_epochs(3)
                .with_step_size(0.2)
                .with_seed(5);
            cfg.sampling = Some(SamplingStrategy::Adaptive);
            cfg.commit = commit;
            train(
                &ds,
                &obj(),
                Algorithm::IsAsgd,
                Execution::Threads(workers),
                &cfg,
                "skew",
            )
            .unwrap()
        };
        let every_k = run(CommitPolicy::EveryK(32));
        let boundary = run(CommitPolicy::EpochBoundary);
        // Commit snapshots are taken before each epoch's boundary fold,
        // so a boundary-only run reports `workers · epoch` at epoch e —
        // and 0 inside the first epoch.
        assert_eq!(boundary.sampler_commits[0], 0);
        assert!(
            every_k.sampler_commits[0] as usize > workers,
            "every-32 with 150-draw shards must commit several times inside \
             epoch 0, got {}",
            every_k.sampler_commits[0]
        );
        let last = *every_k.sampler_commits.last().unwrap() as usize;
        assert!(
            last > workers * every_k.sampler_commits.len(),
            "cumulative commits {last} must exceed one-per-worker-per-epoch"
        );
    }

    #[test]
    fn simulated_apply_time_feedback_is_deterministic() {
        // Observations commit when their delayed update applies: the path
        // must stay seed-deterministic and train, and τ — which moves
        // the apply points — changes the trajectory.
        use isasgd_sampling::CommitPolicy;
        let ds = skewed(240);
        let run = |tau| {
            let mut cfg = TrainConfig::default()
                .with_epochs(4)
                .with_step_size(0.2)
                .with_seed(29);
            cfg.sampling = Some(SamplingStrategy::Adaptive);
            cfg.commit = CommitPolicy::EveryK(16);
            train(
                &ds,
                &obj(),
                Algorithm::IsAsgd,
                Execution::Simulated { tau, workers: 2 },
                &cfg,
                "skew",
            )
            .unwrap()
        };
        let (a, b) = (run(8), run(8));
        assert_eq!(a.model, b.model, "apply-time feedback must reproduce");
        assert!(a.model.iter().all(|x| x.is_finite()));
        let c = run(24);
        assert_ne!(a.model, c.model, "τ must move the trajectory");
    }

    #[test]
    fn a_tau_beyond_the_epoch_defers_every_update_to_the_barrier() {
        // Regression: the queue reserved τ + 1 slots, so a huge τ aborted
        // the process and `usize::MAX` overflowed. τ = n already defers
        // every one of an epoch's n updates to the barrier, so any larger
        // τ is the same run, bit for bit.
        let ds = skewed(60);
        for sampling in [None, Some(SamplingStrategy::Adaptive)] {
            let mut cfg = TrainConfig::default().with_epochs(3).with_seed(7);
            cfg.sampling = sampling;
            let run = |tau| {
                let e = Execution::Simulated { tau, workers: 2 };
                train(&ds, &obj(), Algorithm::IsAsgd, e, &cfg, "skew").unwrap()
            };
            assert_eq!(run(usize::MAX).model, run(60).model, "{sampling:?}");
        }
    }

    #[test]
    fn engine_rejects_threads_without_shared_kernel() {
        // Reachable only through the engine directly (dispatch already
        // rejects SvrgSgd+Threads, and skip-µ has no lock-free kernel);
        // assert the dispatch-level error is an Unsupported either way.
        let ds = separable(50);
        let cfg = TrainConfig::default().with_epochs(1);
        assert!(matches!(
            train(
                &ds,
                &obj_l2(),
                Algorithm::SvrgSgd(SvrgVariant::SkipMu),
                Execution::Threads(2),
                &cfg,
                "sep"
            ),
            Err(CoreError::Unsupported { .. })
        ));
    }

    // ------------------------------------------------- the oracle's bits

    /// 7–9 non-zeros a row (unrolled margin body + tail), mixed-sign
    /// values: the row shape two earlier bugs hid from 2-nnz fixtures.
    fn wide(n: usize) -> Dataset {
        planted(n, |i, k| {
            let sign = if (i + k) % 2 == 0 { 1.0 } else { -1.0 };
            sign * ((1 + (i * 7 + k * 3) % 9) as f64 * 0.0625)
        })
    }

    /// [`wide`]'s supports with every value 0.3 (not dyadic, so each
    /// product rounds): a constant-valued set, like the binary
    /// profiles' files.
    fn binary(n: usize) -> Dataset {
        planted(n, |_, _| 0.3)
    }

    /// Row `i` holds `value(i, k)` at feature `i % 6 + 2k`, k < 7 + i % 3;
    /// its label is the sign of ⟨x, w*⟩, w*_j = 1 or −½.
    fn planted(n: usize, value: impl Fn(usize, usize) -> f64) -> Dataset {
        let mut b = DatasetBuilder::new(24);
        for i in 0..n {
            let row: Vec<(u32, f64)> = (0..7 + i % 3)
                .map(|k| ((i % 6 + 2 * k) as u32, value(i, k)))
                .collect();
            let planted = |&(j, x): &(u32, f64)| if j % 3 == 0 { x } else { -0.5 * x };
            let y = if row.iter().map(planted).sum::<f64>() >= 0.0 {
                1.0
            } else {
                -1.0
            };
            b.push_row(&row, y).unwrap();
        }
        b.finish()
    }

    #[test]
    fn final_model_bits_are_pinned_on_every_runtime() {
        // FNV-1a of the final model's bits, recorded from a build of the
        // commit before the sequential arm lost its grouping (the first
        // two adaptive rows: before the observation models were deleted;
        // the threaded one: before steps read gathered windows): an edit
        // to the step loop or to observation delivery that moves one bit
        // of any runtime fails here. The last three rows run on the
        // constant-valued `binary` set, recorded from a build that stored
        // a value per non-zero: storing the one value once must not move
        // a bit either. Squared hinge keeps libm out of the trajectory.
        use isasgd_losses::SquaredHingeLoss;
        let (wide, binary) = (wide(96), binary(96));
        let o = Objective::new(SquaredHingeLoss, Regularizer::L1 { eta: 1e-3 });
        let cfg = TrainConfig::default()
            .with_epochs(3)
            .with_step_size(0.1)
            .with_seed(41);
        // Adaptive rows: observations delivered right after their step
        // (sequential, and one thread stepping windows cut inside its
        // k-strides) and when their delayed update applies (simulated).
        let adaptive = TrainConfig {
            sampling: Some(SamplingStrategy::Adaptive),
            ..cfg.with_commit(isasgd_sampling::CommitPolicy::EveryK(8))
        };
        let sim = Execution::Simulated { tau: 4, workers: 2 };
        for (ds, algo, exec, cfg, want) in [
            (
                &wide,
                Algorithm::IsSgd,
                Execution::Sequential,
                &cfg,
                0x8d12_2f8e_09f3_17ee_u64,
            ),
            (
                &wide,
                Algorithm::Asgd,
                Execution::Threads(1),
                &cfg,
                0xae30_e1b9_2082_719e,
            ),
            (&wide, Algorithm::IsAsgd, sim, &cfg, 0xd824_0812_d480_7a72),
            (
                &wide,
                Algorithm::SvrgSgd(SvrgVariant::Literature),
                Execution::Sequential,
                &cfg,
                0x7913_578e_f5ff_9288,
            ),
            (
                &wide,
                Algorithm::IsSgd,
                Execution::Sequential,
                &adaptive,
                0xfda7_a53d_d8d6_600e,
            ),
            (
                &wide,
                Algorithm::IsAsgd,
                sim,
                &adaptive,
                0xf8c2_0f18_599d_112e,
            ),
            (
                &wide,
                Algorithm::IsAsgd,
                Execution::Threads(1),
                &adaptive,
                0xfda7_a53d_d8d6_600e,
            ),
            (
                &binary,
                Algorithm::IsSgd,
                Execution::Sequential,
                &cfg,
                0x37d7_e2f4_a355_5edc,
            ),
            (
                &binary,
                Algorithm::Asgd,
                Execution::Threads(1),
                &cfg,
                0x40b2_20ba_5559_ba71,
            ),
            (
                &binary,
                Algorithm::IsAsgd,
                sim,
                &adaptive,
                0x05a7_701b_d83a_5d34,
            ),
        ] {
            let r = train(ds, &o, algo, exec, cfg, "pin").unwrap();
            let fnv = r
                .model
                .iter()
                .flat_map(|x| x.to_bits().to_le_bytes())
                .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                    (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
                });
            let sampling = cfg.sampling;
            assert_eq!(fnv, want, "{algo:?}/{exec:?}/{sampling:?}: {fnv:#018x}");
        }
    }
}
