//! The unified entry point: validate the (algorithm, execution) pair,
//! resolve the sampling strategy, construct the solver kernel, hand off
//! to the shared [`ExecutionEngine`](crate::solvers::engine).

use crate::config::{Algorithm, Execution, SvrgVariant, TrainConfig};
use crate::error::CoreError;
use crate::solvers::engine::{run_engine, RunMeta};
use crate::solvers::sgd::SgdSolver;
use crate::solvers::svrg::SvrgSolver;
use isasgd_losses::{EvalMetrics, Loss, Objective};
use isasgd_metrics::Trace;
use isasgd_sampling::SamplingStrategy;
use isasgd_sparse::Dataset;

/// Everything a training run produces.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Per-epoch convergence trace (training wall-clock, eval excluded).
    pub trace: Trace,
    /// The final model vector.
    pub model: Vec<f64>,
    /// Objective, RMSE and error rate of the final model.
    pub final_metrics: EvalMetrics,
    /// Time spent in offline setup: importance weights, balancing,
    /// sequence generation (the paper's "sampling time" overhead).
    pub setup_secs: f64,
    /// Accumulated training time.
    pub train_secs: f64,
    /// Accumulated evaluation time (excluded from the trace).
    pub eval_secs: f64,
    /// Total gradient steps taken.
    pub steps: u64,
    /// Cumulative sampler commit count at each epoch's end (before the
    /// epoch-boundary fold), summed over workers. Non-adaptive runs stay
    /// at 0; epoch-boundary adaptive runs grow by ≤ `workers` per epoch;
    /// growth beyond that is intra-epoch (`--commit every-k`) adaptivity
    /// actually firing.
    pub sampler_commits: Vec<u64>,
    /// Whether importance balancing was applied (IS-capable solvers only).
    pub balanced: Option<bool>,
    /// Measured ρ (IS-capable solvers only).
    pub rho: Option<f64>,
}

impl RunResult {
    /// Setup overhead relative to training time — the §4.2 "7.7% to 1.1%"
    /// observation.
    pub fn setup_overhead(&self) -> f64 {
        if self.train_secs > 0.0 {
            self.setup_secs / self.train_secs
        } else {
            0.0
        }
    }
}

/// Trains `algo` on `ds` under `exec`, starting from the zero model.
///
/// See the crate docs for the supported (algorithm, execution, sampling)
/// matrix; unsupported combinations return [`CoreError::Unsupported`].
pub fn train<L: Loss>(
    ds: &Dataset,
    obj: &Objective<L>,
    algo: Algorithm,
    exec: Execution,
    cfg: &TrainConfig,
    dataset_name: &str,
) -> Result<RunResult, CoreError> {
    dispatch(ds, obj, algo, exec, cfg, dataset_name, None)
}

/// [`train`] warm-started from an existing model vector (e.g. a loaded
/// [`SavedModel`](isasgd_model::SavedModel), or the result of a previous
/// run whose epochs ran out) — every solver continues from `init`.
pub fn train_from<L: Loss>(
    ds: &Dataset,
    obj: &Objective<L>,
    algo: Algorithm,
    exec: Execution,
    cfg: &TrainConfig,
    dataset_name: &str,
    init: &[f64],
) -> Result<RunResult, CoreError> {
    if init.len() != ds.dim() {
        return Err(CoreError::InvalidConfig(format!(
            "warm-start model has dimension {} but the dataset has {}",
            init.len(),
            ds.dim()
        )));
    }
    if let Some(bad) = init.iter().find(|x| !x.is_finite()) {
        return Err(CoreError::InvalidConfig(format!(
            "warm-start model contains non-finite weight {bad}"
        )));
    }
    dispatch(ds, obj, algo, exec, cfg, dataset_name, Some(init))
}

/// Rejects (algorithm, execution) pairs that are not meaningful,
/// preserving the original dispatch's error surface.
fn validate(algo: Algorithm, exec: Execution) -> Result<(), CoreError> {
    let name = algo.name();
    match (algo, exec) {
        (Algorithm::Sgd | Algorithm::IsSgd, Execution::Threads(_)) => Err(CoreError::Unsupported {
            algorithm: name,
            reason: "sequential algorithms do not take threads; use Asgd/IsAsgd".into(),
        }),
        (Algorithm::Asgd | Algorithm::IsAsgd, Execution::Sequential) => {
            Err(CoreError::Unsupported {
                algorithm: name,
                reason: "asynchronous algorithms need Threads(k) or Simulated{..}".into(),
            })
        }
        (Algorithm::SvrgSgd(_), e) if e != Execution::Sequential => Err(CoreError::Unsupported {
            algorithm: name,
            reason: "SVRG-SGD is sequential; use SvrgAsgd for parallel runs".into(),
        }),
        (Algorithm::SvrgAsgd, Execution::Sequential) => Err(CoreError::Unsupported {
            algorithm: name,
            reason: "use SvrgSgd for the sequential variant".into(),
        }),
        _ => Ok(()),
    }
}

/// Resolves the effective sampling strategy for this run.
///
/// `cfg.sampling = None` keeps the algorithm's classical distribution
/// ([`Algorithm::classical_sampling`]); an explicit strategy overrides
/// it; and a scheme with nothing to weight by makes either the uniform
/// sampler ([`ImportanceScheme::effective_sampling`](isasgd_losses::ImportanceScheme::effective_sampling)).
/// Variance-reduction solvers sample uniformly by construction and
/// reject explicit IS strategies.
fn resolve_strategy(
    algo: Algorithm,
    cfg: &TrainConfig,
) -> Result<(SamplingStrategy, String), CoreError> {
    if matches!(algo, Algorithm::SvrgSgd(_) | Algorithm::SvrgAsgd) {
        return match cfg.sampling {
            None | Some(SamplingStrategy::Uniform) => {
                Ok((SamplingStrategy::Uniform, algo.name().to_string()))
            }
            Some(other) => Err(CoreError::Unsupported {
                algorithm: algo.name(),
                reason: format!(
                    "variance-reduction solvers sample uniformly; --sampling {} \
                     is not applicable",
                    other.name()
                ),
            }),
        };
    }
    let natural = algo.classical_sampling();
    let strategy = cfg
        .importance
        .effective_sampling(cfg.sampling.unwrap_or(natural));
    // Annotate runs whose effective sampler departs from the
    // algorithm's classical distribution, so traces keyed on `algorithm`
    // never mix different sampling strategies under one name (the
    // cluster runtime does the same with its Cluster-{,A}IS-SGD labels).
    let label = if strategy != natural {
        format!("{}({})", algo.name(), strategy.name())
    } else {
        algo.name().to_string()
    };
    Ok((strategy, label))
}

/// Concurrency number recorded in the trace, matching the paper's
/// labelling conventions (τ for simulated runs, thread count for real
/// ones).
fn concurrency_of(algo: Algorithm, exec: Execution) -> usize {
    let c = exec.concurrency();
    // The SGD family labels simulated runs by τ, clamped to 1 so the
    // τ = 0 sequential degenerate stays plottable.
    match (algo, exec) {
        (
            Algorithm::Sgd | Algorithm::IsSgd | Algorithm::Asgd | Algorithm::IsAsgd,
            Execution::Simulated { .. },
        ) => c.max(1),
        _ => c,
    }
}

fn dispatch<L: Loss>(
    ds: &Dataset,
    obj: &Objective<L>,
    algo: Algorithm,
    exec: Execution,
    cfg: &TrainConfig,
    dataset_name: &str,
    init: Option<&[f64]>,
) -> Result<RunResult, CoreError> {
    validate(algo, exec)?;
    let (strategy, label) = resolve_strategy(algo, cfg)?;
    let meta = RunMeta {
        algo_name: &label,
        dataset_name,
        concurrency: concurrency_of(algo, exec),
    };
    match algo {
        Algorithm::Sgd | Algorithm::IsSgd | Algorithm::Asgd | Algorithm::IsAsgd => run_engine(
            ds,
            obj,
            cfg,
            exec,
            strategy,
            meta,
            init,
            SgdSolver::new(obj),
        ),
        Algorithm::SvrgSgd(_) | Algorithm::SvrgAsgd => {
            // Only the sequential solver has the skip-µ flavour.
            let variant = match algo {
                Algorithm::SvrgSgd(v) => v,
                _ => SvrgVariant::Literature,
            };
            let solver = SvrgSolver::new(obj, variant);
            run_engine(ds, obj, cfg, exec, strategy, meta, init, solver)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isasgd_losses::{LogisticLoss, Regularizer};
    use isasgd_sparse::DatasetBuilder;

    fn ds() -> Dataset {
        let mut b = DatasetBuilder::new(4);
        for i in 0..120 {
            let j = (i % 2) as u32;
            let y = if i % 2 == 0 { 1.0 } else { -1.0 };
            b.push_row(&[(j, y), (2 + j, 0.5 * y)], y).unwrap();
        }
        b.finish()
    }

    fn obj() -> Objective<LogisticLoss> {
        Objective::new(LogisticLoss, Regularizer::None)
    }

    #[test]
    fn dispatch_matrix_happy_paths() {
        let d = ds();
        let cfg = TrainConfig::default().with_epochs(2);
        let combos: Vec<(Algorithm, Execution)> = vec![
            (Algorithm::Sgd, Execution::Sequential),
            (Algorithm::IsSgd, Execution::Sequential),
            (Algorithm::Sgd, Execution::Simulated { tau: 4, workers: 2 }),
            (Algorithm::Asgd, Execution::Threads(2)),
            (Algorithm::IsAsgd, Execution::Threads(2)),
            (Algorithm::Asgd, Execution::Simulated { tau: 8, workers: 2 }),
            (
                Algorithm::IsAsgd,
                Execution::Simulated { tau: 8, workers: 2 },
            ),
            (
                Algorithm::SvrgSgd(SvrgVariant::Literature),
                Execution::Sequential,
            ),
            (Algorithm::SvrgAsgd, Execution::Threads(2)),
            (
                Algorithm::SvrgAsgd,
                Execution::Simulated { tau: 4, workers: 2 },
            ),
        ];
        for (a, e) in combos {
            let r = train(&d, &obj(), a, e, &cfg, "t").unwrap();
            assert_eq!(r.trace.algorithm, a.name(), "{a:?}/{e:?}");
            assert!(r.steps > 0);
        }
    }

    #[test]
    fn dispatch_rejections() {
        let d = ds();
        let cfg = TrainConfig::default().with_epochs(1);
        let bad: Vec<(Algorithm, Execution)> = vec![
            (Algorithm::Sgd, Execution::Threads(2)),
            (Algorithm::IsSgd, Execution::Threads(2)),
            (Algorithm::Asgd, Execution::Sequential),
            (Algorithm::IsAsgd, Execution::Sequential),
            (
                Algorithm::SvrgSgd(SvrgVariant::Literature),
                Execution::Threads(2),
            ),
            (Algorithm::SvrgAsgd, Execution::Sequential),
            (
                Algorithm::SvrgSgd(SvrgVariant::SkipMu),
                Execution::Simulated { tau: 4, workers: 2 },
            ),
        ];
        for (a, e) in bad {
            assert!(
                matches!(
                    train(&d, &obj(), a, e, &cfg, "t"),
                    Err(CoreError::Unsupported { .. })
                ),
                "{a:?}/{e:?} should be rejected"
            );
        }
    }

    #[test]
    fn every_sgd_family_member_accepts_every_sampling_strategy() {
        let d = ds();
        for strategy in [
            SamplingStrategy::Uniform,
            SamplingStrategy::Static,
            SamplingStrategy::Adaptive,
        ] {
            let mut cfg = TrainConfig::default().with_epochs(2);
            cfg.sampling = Some(strategy);
            for (a, e) in [
                (Algorithm::Sgd, Execution::Sequential),
                (Algorithm::IsAsgd, Execution::Threads(2)),
                (Algorithm::Asgd, Execution::Simulated { tau: 4, workers: 2 }),
                (Algorithm::IsSgd, Execution::Sequential),
            ] {
                let r = train(&d, &obj(), a, e, &cfg, "t").unwrap();
                assert!(r.steps > 0, "{a:?}/{e:?}/{strategy:?}");
                assert!(r.balanced.is_some());
            }
        }
    }

    #[test]
    fn sampling_override_annotates_the_trace_label() {
        let d = ds();
        let mut cfg = TrainConfig::default().with_epochs(1);
        cfg.sampling = Some(SamplingStrategy::Adaptive);
        let r = train(&d, &obj(), Algorithm::Sgd, Execution::Sequential, &cfg, "t").unwrap();
        assert_eq!(r.trace.algorithm, "SGD(adaptive)");
        // The classical pairing keeps the plain paper label.
        cfg.sampling = Some(SamplingStrategy::Static);
        let r = train(
            &d,
            &obj(),
            Algorithm::IsSgd,
            Execution::Sequential,
            &cfg,
            "t",
        )
        .unwrap();
        assert_eq!(r.trace.algorithm, "IS-SGD");
        cfg.sampling = None;
        let r = train(&d, &obj(), Algorithm::Sgd, Execution::Sequential, &cfg, "t").unwrap();
        assert_eq!(r.trace.algorithm, "SGD");
    }

    #[test]
    fn uniform_importance_is_the_uniform_sampler() {
        // Nothing to weight by: the IS members build the sampler, and
        // keep the row order, of their uniform twins — weight for
        // weight — and the label says which sampler ran.
        let d = ds();
        let mut cfg = TrainConfig::default().with_epochs(2).with_seed(3);
        cfg.importance = isasgd_losses::ImportanceScheme::Uniform;
        let sim = Execution::Simulated { tau: 4, workers: 2 };
        for (is, plain, e) in [
            (Algorithm::IsSgd, Algorithm::Sgd, Execution::Sequential),
            (Algorithm::IsAsgd, Algorithm::Asgd, sim),
        ] {
            let a = train(&d, &obj(), is, e, &cfg, "t").unwrap();
            let b = train(&d, &obj(), plain, e, &cfg, "t").unwrap();
            assert_eq!(a.model, b.model, "{is:?}");
            assert_eq!(a.trace.algorithm, format!("{}(uniform)", is.name()));
        }
    }

    #[test]
    fn vr_solvers_reject_explicit_is_sampling() {
        let d = ds();
        let svrg = Algorithm::SvrgSgd(SvrgVariant::Literature);
        let mut cfg = TrainConfig::default().with_epochs(1);
        cfg.sampling = Some(SamplingStrategy::Adaptive);
        assert!(matches!(
            train(&d, &obj(), svrg, Execution::Sequential, &cfg, "t"),
            Err(CoreError::Unsupported { .. })
        ));
        // Explicit uniform is fine (it is what they do anyway).
        cfg.sampling = Some(SamplingStrategy::Uniform);
        assert!(train(&d, &obj(), svrg, Execution::Sequential, &cfg, "t").is_ok());
    }

    #[test]
    fn setup_overhead_reported() {
        let d = ds();
        let cfg = TrainConfig::default().with_epochs(2);
        let r = train(
            &d,
            &obj(),
            Algorithm::IsSgd,
            Execution::Sequential,
            &cfg,
            "t",
        )
        .unwrap();
        assert!(r.setup_secs >= 0.0);
        assert!(r.setup_overhead() >= 0.0);
    }

    #[test]
    fn warm_start_continues_from_init() {
        let d = ds();
        let cfg = TrainConfig::default().with_epochs(3).with_step_size(0.3);
        // Train 3 epochs, then continue 3 more from the result.
        let first = train(&d, &obj(), Algorithm::Sgd, Execution::Sequential, &cfg, "t").unwrap();
        let second = train_from(
            &d,
            &obj(),
            Algorithm::Sgd,
            Execution::Sequential,
            &cfg,
            "t",
            &first.model,
        )
        .unwrap();
        // The continued run's epoch-0 metrics equal the first run's final
        // metrics (same model evaluated).
        let resume0 = &second.trace.points[0];
        assert!((resume0.objective - first.final_metrics.objective).abs() < 1e-12);
        // And it keeps improving (or at least never regresses) from there.
        assert!(
            second.final_metrics.objective <= first.final_metrics.objective + 1e-9,
            "{} then {}",
            first.final_metrics.objective,
            second.final_metrics.objective
        );
    }

    #[test]
    fn warm_start_all_solver_families() {
        let d = ds();
        let cfg = TrainConfig::default().with_epochs(1).with_step_size(0.1);
        let init = vec![0.01; d.dim()];
        let init_obj = obj().eval(&d, &init).objective;
        let combos: Vec<(Algorithm, Execution)> = vec![
            (Algorithm::Sgd, Execution::Sequential),
            (Algorithm::IsAsgd, Execution::Threads(2)),
            (
                Algorithm::IsAsgd,
                Execution::Simulated { tau: 4, workers: 2 },
            ),
            (
                Algorithm::SvrgSgd(SvrgVariant::Literature),
                Execution::Sequential,
            ),
        ];
        for (a, e) in combos {
            let r = train_from(&d, &obj(), a, e, &cfg, "t", &init).unwrap();
            // Epoch-0 point reflects the warm-start model, not zeros.
            assert!(
                (r.trace.points[0].objective - init_obj).abs() < 1e-12,
                "{a:?}/{e:?}: epoch-0 objective {} should match init {init_obj}",
                r.trace.points[0].objective
            );
        }
    }

    #[test]
    fn warm_start_validation() {
        let d = ds();
        let cfg = TrainConfig::default().with_epochs(1);
        let short = vec![0.0; d.dim() - 1];
        assert!(matches!(
            train_from(
                &d,
                &obj(),
                Algorithm::Sgd,
                Execution::Sequential,
                &cfg,
                "t",
                &short
            ),
            Err(CoreError::InvalidConfig(_))
        ));
        let mut nan = vec![0.0; d.dim()];
        nan[1] = f64::NAN;
        assert!(matches!(
            train_from(
                &d,
                &obj(),
                Algorithm::Sgd,
                Execution::Sequential,
                &cfg,
                "t",
                &nan
            ),
            Err(CoreError::InvalidConfig(_))
        ));
    }
}
