//! `isasgd train` — train any solver of the family on a LibSVM file.

use crate::opts::Opts;
use crate::spec::{ClusterSpec, TrainSpec};
use isasgd_cluster::{ClusterConfig, ClusterRun};
use isasgd_core::{train, train_from, Objective, RunResult, Trace, TrainConfig};
use isasgd_losses::with_loss;
use isasgd_model::SavedModel;
use isasgd_obs::{Event, ObsClock, Recorder};
use isasgd_sparse::{holdout_split, Dataset};
use std::path::Path;
use std::sync::Arc;

/// Arms the global event recorder when any observability flag asked for
/// it. Returns the recorder so [`finish_observability`] can drain it;
/// `None` means telemetry is off and nothing was installed.
fn install_observability(spec: &TrainSpec) -> Result<Option<Arc<Recorder>>, String> {
    if !spec.telemetry_enabled() {
        return Ok(None);
    }
    let mut rec = Recorder::new(spec.log_level, ObsClock::Wall);
    if let Some(path) = &spec.trace_out {
        rec = rec
            .trace_to_file(Path::new(path))
            .map_err(|e| format!("--trace-out {path}: {e}"))?;
    }
    let rec = Arc::new(rec);
    isasgd_obs::install(Arc::clone(&rec));
    Ok(Some(rec))
}

/// Tears the recorder down: flushes the JSONL trace, reporting (rather
/// than swallowing) an IO failure.
fn finish_observability(rec: Option<Arc<Recorder>>) -> Result<(), String> {
    let Some(rec) = rec else { return Ok(()) };
    isasgd_obs::uninstall();
    rec.flush()
        .map_err(|e| format!("flushing --trace-out: {e}"))
}

/// Runs the command; `main` turns an error into exit 2.
pub fn run(o: &Opts) -> Result<(), String> {
    let data_path = o
        .positional
        .get(1)
        .cloned()
        .ok_or("usage: isasgd train <data.svm> [flags] (see --help)")?;
    let spec = TrainSpec::from_opts(o).map_err(|e| e.to_string())?;
    let model_out = o.get("model");
    let init_model = o.get("init-model");
    let quiet = o.switch("quiet");
    o.finish().map_err(|e| e.to_string())?;
    let init: Option<Vec<f64>> = match &init_model {
        Some(p) => {
            let m = SavedModel::load(p).map_err(|e| e.to_string())?;
            Some(m.to_dense())
        }
        None => None,
    };

    let recorder = install_observability(&spec)?;
    let result = execute(&spec, &data_path, model_out, init, quiet);
    // Finalize even when training failed, so a partial trace still
    // flushes — but report the training error first if both fail.
    let finished = finish_observability(recorder);
    result.and(finished)
}

fn execute(
    spec: &TrainSpec,
    data_path: &str,
    model_out: Option<String>,
    init: Option<Vec<f64>>,
    quiet: bool,
) -> Result<(), String> {
    let ds = isasgd_sparse::libsvm::read_file(data_path, None)
        .map_err(|e| format!("reading {data_path}: {e}"))?;
    isasgd_obs::emit(&Event::DatasetLoaded {
        path: data_path.to_string(),
        rows: ds.n_samples() as u64,
        dim: ds.dim() as u64,
        nnz: ds.nnz() as u64,
    });

    let (train_ds, test_ds) = if spec.holdout > 0.0 {
        let (tr, te) = holdout_split(&ds, spec.holdout, spec.seed)
            .map_err(|e| format!("holdout split: {e}"))?;
        (tr, Some(te))
    } else {
        (ds, None)
    };

    let r = match &spec.cluster {
        Some(cluster) => {
            let run = run_cluster(spec, cluster, &train_ds)?;
            refuse_divergence(&run.trace, spec.step_size)?;
            report_cluster(spec, cluster, &run, test_ds.as_ref(), quiet);
            // Reuse the model-save path below through a RunResult-free
            // early return.
            if let Some(path) = model_out {
                // Record what actually ran (e.g. "Cluster-AIS-SGD"),
                // not the engine solver the cluster path never uses.
                save_model(&run.model, &run.trace.algorithm, spec, data_path, &path)?;
            }
            return Ok(());
        }
        None => run_training(spec, &train_ds, data_path, init.as_deref())?,
    };
    refuse_divergence(&r.trace, spec.step_size)?;
    report(spec, &r, test_ds.as_ref(), quiet);

    if let Some(path) = model_out {
        save_model(&r.model, spec.algorithm.name(), spec, data_path, &path)?;
    }
    Ok(())
}

/// A trajectory whose objective or RMSE left the finite numbers is an
/// error that names which and where — checked as soon as either runtime
/// returns, so a step past the stability edge never reports or saves a
/// NaN model. The objective alone is not enough: a model whose margins
/// overflow can keep a finite (if absurd) objective while its RMSE is
/// already infinite.
fn refuse_divergence(trace: &Trace, step: f64) -> Result<(), String> {
    for p in &trace.points {
        for (metric, value) in [("objective", p.objective), ("rmse", p.rmse)] {
            if !value.is_finite() {
                return Err(format!(
                    "diverged: {metric} became non-finite at epoch {} (step {step})",
                    p.epoch
                ));
            }
        }
    }
    Ok(())
}

fn save_model(
    model: &[f64],
    algorithm: &str,
    spec: &TrainSpec,
    data_path: &str,
    path: &str,
) -> Result<(), String> {
    let m = SavedModel::from_dense(
        model,
        algorithm,
        data_path,
        spec.step_size,
        spec.epochs,
        spec.seed,
    )
    .map_err(|e| e.to_string())?;
    m.save(path).map_err(|e| e.to_string())?;
    isasgd_obs::emit(&Event::ModelSaved {
        path: path.to_string(),
        nnz: m.nnz() as u64,
    });
    Ok(())
}

/// Runs `train` through the distributed runtime: epochs become
/// synchronization rounds of `--local-epochs` local passes each.
fn run_cluster(
    spec: &TrainSpec,
    cluster: &ClusterSpec,
    ds: &Dataset,
) -> Result<ClusterRun, String> {
    // Process transport: `ProcessConfig.worker == None` makes the fleet
    // spawn the current executable — which here IS the isasgd binary,
    // re-entered as `isasgd worker`. No CLI-side resolution needed.
    let cfg = ClusterConfig {
        nodes: cluster.nodes,
        rounds: spec.epochs,
        local_epochs: cluster.local_epochs,
        step_size: spec.step_size,
        importance: spec.importance,
        balance: spec.balance,
        sync: cluster.sync,
        // Nodes run the one local (IS-)SGD loop; what `--algo` picks is
        // the distribution they draw from, by the engine's own rule.
        sampling: spec.sampling.unwrap_or(spec.algorithm.classical_sampling()),
        commit: spec.commit,
        transport: cluster.transport.clone(),
        seed: spec.seed,
        // Mirror the fleet flag so the config is self-consistent (the
        // fleet refuses two different cadences).
        checkpoint_every: match &cluster.transport {
            isasgd_cluster::TransportConfig::Process(pc) => pc.checkpoint_every,
            _ => 0,
        },
        // Any observability flag arms wire-shipped worker timing; the
        // frames are provably inert (absorbed or dropped before the
        // round protocol sees them), so results stay bit-identical.
        telemetry: spec.telemetry_enabled(),
    };
    with_loss!(spec.loss, |loss| {
        isasgd_cluster::run(ds, &Objective::new(loss, spec.regularizer), &cfg)
    })
    .expect(LOSS_IS_KNOWN)
    .map_err(|e| e.to_string())
}

/// Why unwrapping a `with_loss!(spec.loss, …)` cannot fail.
const LOSS_IS_KNOWN: &str = "TrainSpec::from_opts took the loss name from with_loss!";

/// Cluster-run reporting. Per-round lines (stderr) carry no wall-clock
/// fields, so two runs of the same seed/config are textually identical
/// across transports — the property the e2e parity test compares.
fn report_cluster(
    spec: &TrainSpec,
    cluster: &ClusterSpec,
    r: &ClusterRun,
    test: Option<&Dataset>,
    quiet: bool,
) {
    #[expect(
        clippy::print_stderr,
        reason = "the parity e2e compares these lines byte-for-byte across transports"
    )]
    if !quiet {
        for (round, p) in r.trace.points.iter().enumerate() {
            eprintln!(
                "[round {round:>4}] obj={:<12.8} rmse={:<12.8} err={:.6}",
                p.objective, p.rmse, p.error_rate
            );
        }
        if let Some(observed) = r.observed_phi_imbalance {
            eprintln!(
                "[feedback] rows={} observed_phi_imbalance={observed:.4}",
                r.feedback_rows
            );
        }
        // Per-link wire counters travel the event layer now: the
        // coordinator emits a `net_summary` event per slot (in slot-id
        // order), so `--log-level info` or `--trace-out` renders what
        // the old `[net]` lines printed.
    }
    let last = r.trace.last().expect("≥1 round");
    // Coordinator-side wire totals across all links (socket transports
    // only — in-process channel runs report no counters).
    let wire = if r.net.is_empty() {
        String::new()
    } else {
        let tx: u64 = r.net.iter().map(|s| s.tx_total_bytes()).sum();
        let rx: u64 = r.net.iter().map(|s| s.rx_total_bytes()).sum();
        format!(" wire_tx_bytes={tx} wire_rx_bytes={rx}")
    };
    out!(
        "algorithm={} transport={} nodes={} rounds={} local_epochs={} \
         phi_imbalance={:.4} final_obj={:.6} final_err={:.6} train_secs={:.3}{}\n",
        r.trace.algorithm,
        cluster.transport.name(),
        cluster.nodes,
        spec.epochs,
        cluster.local_epochs,
        r.phi_imbalance,
        last.objective,
        last.error_rate,
        last.wall_secs,
        wire,
    );
    report_holdout(spec, &r.model, test);
}

/// The held-out line both reports end with: `model` evaluated on the
/// `--holdout` split under the training loss and regularizer.
fn report_holdout(spec: &TrainSpec, model: &[f64], test: Option<&Dataset>) {
    let Some(te) = test else { return };
    let metrics = with_loss!(spec.loss, |loss| {
        Objective::new(loss, spec.regularizer).eval(te, model)
    })
    .expect(LOSS_IS_KNOWN);
    out!(
        "holdout_n={} holdout_obj={:.6} holdout_err={:.6}\n",
        te.n_samples(),
        metrics.objective,
        metrics.error_rate
    );
}

/// The engine run, monomorphized over the loss `--loss` named.
fn run_training(
    spec: &TrainSpec,
    ds: &Dataset,
    name: &str,
    init: Option<&[f64]>,
) -> Result<RunResult, String> {
    let mut cfg = TrainConfig::default()
        .with_epochs(spec.epochs)
        .with_step_size(spec.step_size)
        .with_seed(spec.seed);
    cfg.importance = spec.importance;
    cfg.balance = spec.balance;
    cfg.sampling = spec.sampling;
    cfg.commit = spec.commit;
    with_loss!(spec.loss, |loss| {
        let obj = Objective::new(loss, spec.regularizer);
        match init {
            None => train(ds, &obj, spec.algorithm, spec.execution, &cfg, name),
            Some(w0) => train_from(ds, &obj, spec.algorithm, spec.execution, &cfg, name, w0),
        }
    })
    .expect(LOSS_IS_KNOWN)
    .map_err(|e| e.to_string())
}

fn report(spec: &TrainSpec, r: &RunResult, test: Option<&Dataset>, quiet: bool) {
    #[expect(
        clippy::print_stderr,
        reason = "sequential-engine progress line; the event layer covers the cluster runtime"
    )]
    if !quiet {
        for p in &r.trace.points {
            eprintln!(
                "[epoch {:>4}] t={:>8.3}s  obj={:<10.5} rmse={:<10.5} err={:.5}",
                p.epoch, p.wall_secs, p.objective, p.rmse, p.error_rate
            );
        }
        if r.sampler_commits.last().copied().unwrap_or(0) > 0 {
            // Cumulative commit versions per epoch: growth beyond one
            // per worker per epoch is intra-epoch (--commit every-k)
            // adaptivity firing mid-epoch.
            eprintln!(
                "[sampler] cumulative commits per epoch: {:?}",
                r.sampler_commits
            );
        }
    }
    out!(
        "algorithm={} epochs={} train_secs={:.3} setup_secs={:.4} final_obj={:.6} \
         final_err={:.6} sampler_commits={}\n",
        r.trace.algorithm,
        spec.epochs,
        r.train_secs,
        r.setup_secs,
        r.final_metrics.objective,
        r.final_metrics.error_rate,
        r.sampler_commits.last().copied().unwrap_or(0)
    );
    report_holdout(spec, &r.model, test);
}

/// Usage string for `--help`.
pub const HELP: &str = "\
isasgd train <data.svm> [flags]

  --algo <name>      sgd | is-sgd | asgd | is-asgd | svrg | svrg-asgd |
                     svrg-skipmu                            [is-asgd]
                     The is-* solvers draw from the static importance
                     distribution, the others uniformly — under
                     --cluster too, where nodes run local (is-)sgd and
                     --algo picks their sampler (sgd: uniform)
  --threads <k>      Hogwild threads, k ≥ 1   [async solvers: 2, else off]
  --tau <t>          simulate delay τ ≥ 0 instead of threads [off]
  --workers <w>      simulated shards with --tau            [4]
  --loss <name>      logistic | squared-hinge | squared     [logistic]
  --reg <kind>       none | l1 | l2                         [l1]
  --eta <f>          regularization strength                [1e-5]
  --scheme <name>    gradnorm | smoothness | partial | uniform [gradnorm]
                     `uniform` leaves nothing to weight by: the run
                     builds the uniform sampler whatever --algo and
                     --sampling say, on the engine and on the cluster
  --sampling <name>  uniform | static | adaptive (overrides the
                     algorithm's default sampling distribution; wins
                     over --algo on the engine and on the cluster)
  --commit <when>    epoch | every-k | every-<n> — when adaptive
                     samplers re-weight (every-k = intra-epoch, streamed
                     on every exec mode; needs --sampling adaptive) [epoch]
  --bias <f>         uniform mix for --scheme partial       [0.5]
  --balance <name>   adaptive | head-tail | greedy | shuffle | identity
                     row order before sharding, for importance-weighted
                     runs: engine runs on the uniform sampler shuffle
                     instead (one worker: file order); the cluster
                     always balances shards by the --scheme weights
  --cluster <k>      distributed run with k nodes (epochs become
                     synchronization rounds)                [off]
  --cluster-transport <t>  inproc | tcp | process — how coordinator and
                     workers talk; either flag enables cluster mode.
                     `process` spawns real `isasgd worker` OS processes
                     under a supervisor                     [inproc]
  --cluster-bind <a> listener bind address (tcp/process transports)
                                                            [127.0.0.1:0]
  --wire-encoding <e>  dense | delta | auto — how socket transports
                     encode round model updates: always-dense frames,
                     always sparse deltas against the link's last
                     synced model, or per update the shorter of the
                     two frames (dense on a tie). Bit-identical results
                     either way                             [auto]
  --on-worker-loss <p>  fail | respawn — what the process-transport
                     supervisor does when a worker dies mid-run:
                     abort with a typed error, or respawn + replay the
                     session (bit-identical recovery)       [fail]
  --chaos-kill <n:r> testing hook (process transport): worker n aborts
                     abruptly at round r, exercising --on-worker-loss
  --checkpoint-every <r>  process transport: workers checkpoint their
                     state every r rounds, bounding respawn replay (and
                     the supervisor's log) by one interval instead of
                     the whole session. Bit-identical results with or
                     without it                              [off]
  --round-timeout <s>  per-round worker liveness deadline in seconds
                     (process transport; workers scale their own read
                     deadline from it)                      [120]
  --local-epochs <n> local passes per round (cluster mode)  [1]
  --sync <name>      average | weighted — round model reducer
                     (cluster mode)                         [average]
  --epochs <n>       passes over the data                   [10]
  --step <f>         step size λ                            [0.5]
  --holdout <f>      held-out fraction for test metrics     [0]
  --seed <n>         master seed
  --model <path>     save the trained model as JSON
  --init-model <p>   warm-start from a previously saved model
  --quiet            suppress per-epoch progress
  --log-level <l>    off | info | debug — structured-event verbosity on
                     stderr (events also arm wire telemetry)    [off]
  --trace-out <p>    write every event as one JSON object per line;
                     render with `isasgd report --trace <p>`    [off]

Either observability flag arms per-round worker timing over
the wire (cluster runs, on every transport: each worker's compute and
barrier time reach the trace as worker_timing events). Telemetry is
inert: results are bit-identical with it on or off.
";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opts::Opts;

    #[test]
    fn missing_data_file_is_an_error() {
        let o = Opts::parse(["train".to_string()]);
        assert!(run(&o).is_err());
    }

    #[test]
    fn unknown_flag_is_an_error() {
        let o = Opts::parse(["train", "x.svm", "--nonsense", "1"].map(String::from));
        assert!(run(&o).is_err());
    }

    #[test]
    fn value_flag_without_a_value_is_an_error() {
        // A loadable dataset, so the exit code can only come from the
        // flags: `--sampling --quiet` used to train on the default
        // sampler and exit 0.
        let path =
            std::env::temp_dir().join(format!("isasgd-bare-flag-{}.svm", std::process::id()));
        std::fs::write(&path, "+1 1:1.0 2:0.5\n-1 1:-1.0 2:-0.5\n".repeat(8)).unwrap();
        let data = path.to_str().unwrap();
        let train = |flags: &[&str]| {
            let args = ["train", data].into_iter().chain(flags.iter().copied());
            run(&Opts::parse(args.map(String::from)))
        };
        assert_eq!(train(&["--epochs", "1", "--quiet"]), Ok(()));
        assert!(train(&["--epochs", "1", "--sampling", "--quiet"]).is_err());
        assert!(train(&["--quiet", "--epochs"]).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn nonexistent_file_is_an_error() {
        let o = Opts::parse(["train", "/no/such/file.svm"].map(String::from));
        assert!(run(&o).is_err());
    }
}
