//! Shared experiment context: dataset cache, output locations, presets,
//! and the run scaffolding every artifact repeats.

use isasgd_core::{
    importance_weights, train, Algorithm, Dataset, Execution, ImportanceScheme, Loss, Objective,
    Regularizer, RunResult, SquaredLoss, TrainConfig,
};
use isasgd_datagen::{generate, DatasetProfile, FeatureKind, GeneratedData, PaperProfile};
use isasgd_metrics::table::fmt_num;
use isasgd_metrics::Trace;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

/// Logistic + L1 objective, as in the paper's evaluation ("L1-regularized
/// cross-entropy loss").
pub fn paper_objective() -> Objective<isasgd_core::LogisticLoss> {
    Objective::new(isasgd_core::LogisticLoss, Regularizer::L1 { eta: 1e-5 })
}

/// Squared loss + light L2: the curvature-dominated (Kaczmarz) objective
/// the ψ sweeps (IS gain, static vs adaptive, commit policy)
/// train, where the IS theory's `sup L/L̄` gain is not clipped by a
/// saturating loss.
pub fn sweep_objective() -> Objective<SquaredLoss> {
    Objective::new(SquaredLoss, Regularizer::L2 { eta: 1e-4 })
}

/// One point of a ψ sweep: the data and the tuned-λ protocol's steps.
pub struct PsiPoint {
    /// 8000 × 2000 rows at importance spread ψ.
    pub data: GeneratedData,
    /// `sup L / L̄` of the smoothness weights under [`sweep_objective`].
    pub sup_over_mean: f64,
    /// Uniform sampling's stability-edge step, `0.5 / sup L`: it must
    /// not diverge on the heaviest row.
    pub lambda_u: f64,
    /// IS's own edge, `0.4 / L̄`: its effective per-visit step is
    /// `λ·(L̄/L_i)·L_i = λ·L̄`, so the edge is larger by ≈ `sup L / L̄`.
    /// The theory bounds (Needell Eqs. 28/29, inherited by Lemma 2)
    /// compare each algorithm at its *own* optimal step.
    pub lambda_is: f64,
}

/// Generates the ψ-sweep dataset `name` at spread `psi` and tunes both
/// steps on it.
pub fn psi_sweep(name: &'static str, psi: f64, seed: u64) -> PsiPoint {
    let profile = DatasetProfile {
        name,
        dim: 2_000,
        n_samples: 8_000,
        mean_nnz: 16,
        zipf_exponent: 0.8,
        target_psi_norm: psi,
        // Moderate norms: L̄ fixed at 0.5 across the sweep so only the
        // *spread* changes, and λ = 1/(2·L̄-ish) sits at the uniform
        // stability edge for the heavy tail.
        target_rho: (1.0 / psi - 1.0) * 0.25,
        label_noise: 0.0,
        planted_density: 0.3,
        feature_kind: FeatureKind::GaussianScaled,
        noise_nnz_coupling: 0.0,
    };
    let data = generate(&profile, seed);
    let w = weights(
        &data.dataset,
        &sweep_objective(),
        ImportanceScheme::LipschitzSmoothness,
    );
    let mean = w.iter().sum::<f64>() / w.len() as f64;
    let sup = w.iter().cloned().fold(0.0, f64::max);
    PsiPoint {
        data,
        sup_over_mean: sup / mean,
        lambda_u: 0.5 / sup,
        lambda_is: 0.4 / mean,
    }
}

/// The importance weights `scheme` gives the rows of `ds` under `obj`.
pub fn weights<L: Loss>(ds: &Dataset, obj: &Objective<L>, scheme: ImportanceScheme) -> Vec<f64> {
    importance_weights(ds, &obj.loss, obj.reg, scheme)
}

/// Global experiment settings parsed from the CLI.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Output directory for text/CSV/JSON artifacts.
    pub out_dir: PathBuf,
    /// Multiplier on the scaled profiles' (n, d).
    pub scale: f64,
    /// Override epoch counts (None = per-profile paper-like defaults).
    pub epochs: Option<usize>,
    /// Master seed.
    pub seed: u64,
    /// Simulated delay values — the paper's thread axis.
    pub taus: Vec<usize>,
    /// Real thread counts for wall-clock experiments.
    pub threads: Vec<usize>,
    /// Independent seeds averaged per convergence curve (and, on the
    /// wall-clock axis, per timing). The paper's epochs cover 10⁶–10⁷
    /// samples and its curves self-average; scaled-down runs need
    /// explicit seed-averaging for the same smoothness.
    pub avg_runs: usize,
}

impl Default for Settings {
    fn default() -> Self {
        let host = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2);
        Settings {
            out_dir: PathBuf::from("results"),
            scale: 1.0,
            epochs: None,
            seed: 0x5EED_1501,
            taus: vec![16, 32, 44],
            threads: vec![1, host],
            avg_runs: 3,
        }
    }
}

impl Settings {
    /// The `--quick` preset: tiny datasets, few epochs — smoke-test sized.
    pub fn quick() -> Self {
        Settings {
            scale: 0.05,
            epochs: Some(4),
            taus: vec![8, 16],
            avg_runs: 1,
            ..Settings::default()
        }
    }

    /// Per-profile epoch budget mirroring the paper's figures
    /// (News20: 15, URL: 18, KDD: 72).
    pub fn epochs_for(&self, p: PaperProfile) -> usize {
        if let Some(e) = self.epochs {
            return e;
        }
        match p {
            PaperProfile::News20 => 15,
            PaperProfile::Url => 18,
            // The paper runs 72; scaled-down data converges faster, and 30
            // keeps the full suite within a laptop time budget.
            PaperProfile::KddAlgebra | PaperProfile::KddBridge => 30,
        }
    }
}

/// The tally of checked claims: SNIPPETS.md's report shape (total,
/// passed, one printed line per item) without the per-item list.
#[derive(Debug, Default)]
pub struct Claims {
    /// Checks evaluated so far.
    pub total: usize,
    /// Those whose measurement fell inside the paper's band.
    pub passed: usize,
    /// Those inside only the widened band the table holds them to.
    pub not_reproduced: usize,
    /// A check of a deterministic artifact failed: the process exits 1.
    pub broken: bool,
}

/// What one process run carries from artifact to artifact: settings, the
/// lazily generated dataset cache, and the claims tally.
pub struct Ctx {
    /// CLI settings.
    pub settings: Settings,
    /// Output stem of the artifact being filled; every file it writes is
    /// `<stem><suffix>`.
    pub stem: String,
    /// Checks evaluated by the runner.
    pub claims: Claims,
    cache: HashMap<(PaperProfile, bool), Arc<GeneratedData>>,
}

impl Ctx {
    /// Creates a context and the output directory.
    pub fn new(settings: Settings) -> std::io::Result<Ctx> {
        std::fs::create_dir_all(&settings.out_dir)?;
        Ok(Ctx {
            settings,
            stem: String::new(),
            claims: Claims::default(),
            cache: HashMap::new(),
        })
    }

    /// Returns (generating on first use) the **Table-1-literal** synthetic
    /// dataset for a paper profile at the configured scale. Used by the
    /// statistics artifacts (table1, fig1, fig2, theory).
    pub fn dataset(&mut self, p: PaperProfile) -> Arc<GeneratedData> {
        self.dataset_inner(p, false)
    }

    /// Returns the **training-calibrated** variant (same ψ/shape, norms
    /// rescaled to λ·L̄ ≈ 2; see `PaperProfile::training`). Used by the
    /// convergence artifacts (fig3, fig4, fig5, ablations).
    pub fn dataset_training(&mut self, p: PaperProfile) -> Arc<GeneratedData> {
        self.dataset_inner(p, true)
    }

    fn dataset_inner(&mut self, p: PaperProfile, training: bool) -> Arc<GeneratedData> {
        let (scale, seed) = (self.settings.scale, self.settings.seed);
        self.cache
            .entry((p, training))
            .or_insert_with(|| {
                let base = if training { p.training() } else { p.scaled() };
                let profile = base.scaled_by(scale);
                let tag = if training {
                    " [training-calibrated]"
                } else {
                    ""
                };
                eprintln!(
                    "[datagen] {}{tag} (d={}, n={}, ~{} nnz/row)…",
                    profile.name, profile.dim, profile.n_samples, profile.mean_nnz
                );
                Arc::new(generate(&profile, seed))
            })
            .clone()
    }

    /// The run configuration every artifact starts from: its epoch
    /// budget and step size under the master seed.
    pub fn config(&self, epochs: usize, step: f64) -> TrainConfig {
        TrainConfig::default()
            .with_epochs(epochs)
            .with_step_size(step)
            .with_seed(self.settings.seed)
    }

    /// A progress line on stderr, tagged with the running artifact.
    pub fn log(&self, msg: &str) {
        eprintln!("[{}] {msg}", self.stem);
    }

    /// Writes `<stem><suffix>` under the output directory, echoing the
    /// path. A missing artifact is a failed run, not a warning: exits 1.
    pub fn write(&self, suffix: &str, content: &str) {
        let path = self.settings.out_dir.join(format!("{}{suffix}", self.stem));
        if let Err(e) = std::fs::write(&path, content) {
            eprintln!("error: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("[out] {}", path.display());
    }

    /// Writes the traces behind a curve artifact as `<stem>_traces.json`.
    pub fn write_traces(&self, traces: &[Trace]) {
        let json = serde_json::to_string_pretty(traces).expect("traces serialise");
        self.write("_traces.json", &json);
    }
}

/// A table cell for a value that may not exist (`-`): a target never
/// reached, a ratio with no denominator.
pub fn fmt_opt(x: Option<f64>) -> String {
    x.map_or("-".into(), fmt_num)
}

/// Error-rate target grid between `lo` (exclusive best) and `hi`,
/// quadratically densified near the optimum, used for Fig. 5 slices.
pub fn error_grid(lo: f64, hi: f64, k: usize) -> Vec<f64> {
    (0..k)
        .map(|i| {
            let f = (i + 1) as f64 / k as f64;
            lo + (hi - lo) * f * f
        })
        .collect()
}

/// The curve CSV of the convergence figures, written as
/// `<stem>_curves.csv`: one row per trace point, keyed by dataset,
/// algorithm and the figure's concurrency axis.
pub struct CurveCsv {
    wall: bool,
    pub text: String,
}

impl CurveCsv {
    /// An empty CSV whose concurrency column is `axis`; `wall` adds the
    /// wall-clock column (left out where the file must not depend on
    /// the host).
    pub fn new(axis: &str, wall: bool) -> CurveCsv {
        let wall_col = if wall { "wall_secs," } else { "" };
        let text = format!("dataset,algo,{axis},epoch,{wall_col}rmse,error_rate,objective\n");
        CurveCsv { wall, text }
    }

    /// Appends `trace`'s points at concurrency `k`.
    pub fn push(&mut self, k: usize, trace: &Trace) {
        for q in &trace.points {
            let wall = self.wall.then(|| format!("{},", q.wall_secs));
            let _ = writeln!(
                self.text,
                "{},{},{k},{},{}{},{},{}",
                trace.dataset,
                trace.algorithm,
                q.epoch,
                wall.unwrap_or_default(),
                q.rmse,
                q.error_rate,
                q.objective
            );
        }
    }
}

/// Trains `cfg` once per seed derived from its own (`runs` of them, at
/// least one) and merges the runs: scaled-down curves need the
/// seed-average the paper's 10⁶-sample epochs get for free (see
/// [`average_traces`](isasgd_metrics::trace::average_traces)).
pub fn train_avg<L: Loss>(
    runs: usize,
    ds: &Dataset,
    obj: &Objective<L>,
    algo: Algorithm,
    exec: Execution,
    cfg: &TrainConfig,
    label: &str,
) -> RunResult {
    let seeds = isasgd_sampling::rng::derive_seeds(cfg.seed, runs.max(1));
    let run = |&s| train(ds, obj, algo, exec, &cfg.with_seed(s), label).expect("valid experiment");
    merge_results(seeds.iter().map(run).collect())
}

/// Merges several runs of one configuration into a single result: traces
/// pointwise-averaged, timings averaged, model/metrics from the last run.
pub fn merge_results(runs: Vec<RunResult>) -> RunResult {
    let traces: Vec<Trace> = runs.iter().map(|r| r.trace.clone()).collect();
    let k = runs.len() as f64;
    let setup_secs = runs.iter().map(|r| r.setup_secs).sum::<f64>() / k;
    let train_secs = runs.iter().map(|r| r.train_secs).sum::<f64>() / k;
    let eval_secs = runs.iter().map(|r| r.eval_secs).sum::<f64>() / k;
    let mut out = runs
        .into_iter()
        .last()
        .expect("merge_results needs ≥ 1 run");
    out.trace = isasgd_metrics::trace::average_traces(&traces);
    out.setup_secs = setup_secs;
    out.train_secs = train_secs;
    out.eval_secs = eval_secs;
    out
}
