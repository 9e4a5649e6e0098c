//! Shared experiment context: dataset cache, output locations, presets.

use isasgd_core::{importance_weights, ImportanceScheme, Objective, Regularizer, SquaredLoss};
use isasgd_datagen::{generate, DatasetProfile, FeatureKind, GeneratedData, PaperProfile};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

/// Logistic + L1 objective, as in the paper's evaluation ("L1-regularized
/// cross-entropy loss").
pub fn paper_objective() -> Objective<isasgd_core::LogisticLoss> {
    Objective::new(isasgd_core::LogisticLoss, Regularizer::L1 { eta: 1e-5 })
}

/// Squared loss + light L2: the curvature-dominated (Kaczmarz) objective
/// the ψ sweeps (`is-gain`, `ablation-adaptive`, `ablation-intra-epoch`)
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
    let w = importance_weights(
        &data.dataset,
        &SquaredLoss,
        sweep_objective().reg,
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
    /// Wall-clock repetitions per configuration in fig4 (median kept).
    pub reps: usize,
    /// Independent seeds averaged per convergence curve (fig3/fig4). The
    /// paper's epochs cover 10⁶–10⁷ samples and its curves self-average;
    /// scaled-down runs need explicit seed-averaging for the same
    /// smoothness.
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
            reps: 3,
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
            reps: 1,
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

/// Lazily generated, process-wide dataset cache.
pub struct Ctx {
    /// CLI settings.
    pub settings: Settings,
    cache: HashMap<&'static str, Arc<GeneratedData>>,
}

impl Ctx {
    /// Creates a context and the output directory.
    pub fn new(settings: Settings) -> std::io::Result<Ctx> {
        std::fs::create_dir_all(&settings.out_dir)?;
        Ok(Ctx {
            settings,
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
        let scale = self.settings.scale;
        let seed = self.settings.seed;
        let key: &'static str = match (p, training) {
            (PaperProfile::News20, false) => "news20",
            (PaperProfile::Url, false) => "url",
            (PaperProfile::KddAlgebra, false) => "kdd_algebra",
            (PaperProfile::KddBridge, false) => "kdd_bridge",
            (PaperProfile::News20, true) => "news20_t",
            (PaperProfile::Url, true) => "url_t",
            (PaperProfile::KddAlgebra, true) => "kdd_algebra_t",
            (PaperProfile::KddBridge, true) => "kdd_bridge_t",
        };
        self.cache
            .entry(key)
            .or_insert_with(|| {
                let base = if training { p.training() } else { p.scaled() };
                let profile = base.scaled_by(scale);
                eprintln!(
                    "[datagen] {}{} (d={}, n={}, ~{} nnz/row)…",
                    profile.name,
                    if training {
                        " [training-calibrated]"
                    } else {
                        ""
                    },
                    profile.dim,
                    profile.n_samples,
                    profile.mean_nnz
                );
                Arc::new(generate(&profile, seed))
            })
            .clone()
    }

    /// Writes an artifact under the output directory, echoing the path.
    pub fn write(&self, name: &str, content: &str) {
        let path = self.settings.out_dir.join(name);
        if let Err(e) = std::fs::write(&path, content) {
            eprintln!("[warn] failed to write {}: {e}", path.display());
        } else {
            eprintln!("[out] {}", path.display());
        }
    }
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

/// Runs `f(run_seed)` once per derived seed and returns the last result
/// with its trace replaced by the pointwise seed-average (timings and
/// setup costs averaged too). See
/// [`average_traces`](isasgd_metrics::trace::average_traces) for why
/// scaled-down curves need this.
pub fn run_averaged<F: FnMut(u64) -> isasgd_core::RunResult>(
    avg_runs: usize,
    master_seed: u64,
    mut f: F,
) -> isasgd_core::RunResult {
    let seeds = isasgd_sampling::rng::derive_seeds(master_seed, avg_runs.max(1));
    merge_results(seeds.iter().map(|&s| f(s)).collect())
}

/// Merges several runs of one configuration into a single result: traces
/// pointwise-averaged, timings averaged, model/metrics from the last run.
pub fn merge_results(runs: Vec<isasgd_core::RunResult>) -> isasgd_core::RunResult {
    let traces: Vec<isasgd_metrics::Trace> = runs.iter().map(|r| r.trace.clone()).collect();
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
