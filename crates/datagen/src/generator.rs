//! The synthetic dataset generator.

use crate::profiles::{calibrate_norms, DatasetProfile, FeatureKind};
use isasgd_sampling::rng::Xoshiro256pp;
use isasgd_sparse::{Dataset, DatasetBuilder};
use rand::Rng;
use rand_distr::{Distribution, LogNormal, Poisson, Zipf};

/// A generated dataset together with its planted ground truth.
#[derive(Debug, Clone)]
pub struct GeneratedData {
    /// The labelled sparse dataset.
    pub dataset: Dataset,
    /// The planted hyperplane normal used to draw labels (dense, length
    /// `d`). `sign(w*·x)` reproduces the labels up to `label_noise` flips.
    pub planted_model: Vec<f64>,
    /// Fraction of labels actually flipped by noise.
    pub flipped_fraction: f64,
}

/// Generates a dataset from a profile, deterministically under `seed`.
///
/// Per sample:
/// 1. `nnz_i` distinct feature indices drawn Zipf(`zipf_exponent`) over
///    `1..=d` — hot features create the conflict structure of §3.1. For
///    [`FeatureKind::GaussianScaled`], `nnz ~ max(1, Poisson(mean_nnz))`;
///    for [`FeatureKind::Binary`], `nnz` follows a discretized log-normal
///    whose coefficient of variation is `√(1/ψ_norm − 1)` so that the
///    support-size-determined constants `L_i = value²·nnz_i/4` hit the
///    profile's ψ target.
/// 2. Values: `GaussianScaled` draws `N(0,1)` rescaled so `‖x_i‖` follows
///    the log-normal law from [`calibrate_norms`] (norm ⊥ nnz, hitting
///    ψ/ρ); `Binary` sets every non-zero to `value` (norm ∝ √nnz — the
///    importance-cost-conflict correlation of indicator-feature data).
/// 3. Label `y = sign(w*·x)` (ties → +1), flipped with probability
///    `label_noise`.
pub fn generate(profile: &DatasetProfile, seed: u64) -> GeneratedData {
    let mut rng = Xoshiro256pp::new(seed);
    let d = profile.dim;
    let n = profile.n_samples;

    // Planted model: `planted_density` of coordinates active, N(0,1).
    // Gaussian via Box–Muller on our deterministic RNG (rand_distr's
    // StandardNormal also works through the RngCore impl; this keeps the
    // hot path allocation-free and explicit).
    let mut planted = vec![0.0f64; d];
    for w in planted.iter_mut() {
        if rng.next_f64() < profile.planted_density {
            *w = gaussian(&mut rng);
        }
    }

    let calib = calibrate_norms(profile.target_psi_norm, profile.target_rho);
    let norm_dist = LogNormal::new(calib.median_norm.ln(), calib.sigma)
        .expect("calibrated sigma is finite and positive");
    let poisson = Poisson::new(profile.mean_nnz as f64).expect("mean_nnz > 0");
    // Binary-mode support-size law: ln nnz ~ N(µ, σ²) with
    // cv² = e^{σ²} − 1 = 1/ψ − 1 and mean e^{µ+σ²/2} = mean_nnz.
    let nnz_lognormal = {
        let cv_sq = (1.0 / profile.target_psi_norm.clamp(1e-6, 1.0 - 1e-12)) - 1.0;
        let sigma_sq = cv_sq.ln_1p();
        let mu = (profile.mean_nnz as f64).ln() - 0.5 * sigma_sq;
        LogNormal::new(mu, sigma_sq.sqrt()).expect("valid nnz law")
    };
    let zipf = Zipf::new(d as u64, profile.zipf_exponent).expect("valid zipf");

    // Importance-coupled label noise: flip probability
    // `label_noise·((1−c) + c·L_i/L̄)` (see `noise_nnz_coupling`). The
    // per-row importance ratio L_i/L̄ is nnz_i/mean_nnz in binary mode and
    // ‖x_i‖²/E‖x‖² in gaussian mode.
    let coupling = profile.noise_nnz_coupling.clamp(0.0, 1.0);
    let mean_norm_sq = {
        // E‖x‖² of LogNormal(ln median, σ): median²·e^{2σ²}.
        let m = calib.median_norm;
        m * m * (2.0 * calib.sigma * calib.sigma).exp()
    };

    let mut b = DatasetBuilder::with_capacity(d, n, n * profile.mean_nnz);
    let mut flipped = 0usize;
    let mut idx_buf: Vec<u32> = Vec::with_capacity(profile.mean_nnz * 2);
    let mut val_buf: Vec<f64> = Vec::with_capacity(profile.mean_nnz * 2);
    for _ in 0..n {
        let nnz = match profile.feature_kind {
            FeatureKind::GaussianScaled => poisson.sample(&mut rng) as usize,
            FeatureKind::Binary { .. } => nnz_lognormal.sample(&mut rng).round() as usize,
        }
        .max(1)
        .min(d);
        idx_buf.clear();
        // Draw distinct indices; Zipf returns 1-based ranks.
        while idx_buf.len() < nnz {
            let f = zipf.sample(&mut rng) as u64 - 1;
            let f = f as u32;
            if !idx_buf.contains(&f) {
                idx_buf.push(f);
            }
        }
        idx_buf.sort_unstable();
        val_buf.clear();
        match profile.feature_kind {
            FeatureKind::GaussianScaled => {
                let mut norm_sq = 0.0;
                for _ in 0..nnz {
                    let v = gaussian(&mut rng);
                    norm_sq += v * v;
                    val_buf.push(v);
                }
                // Rescale to the calibrated norm.
                let target: f64 = norm_dist.sample(&mut rng);
                let scale = if norm_sq > 0.0 {
                    target / norm_sq.sqrt()
                } else {
                    0.0
                };
                for v in val_buf.iter_mut() {
                    *v *= scale;
                }
            }
            FeatureKind::Binary { value } => {
                val_buf.resize(nnz, value);
            }
        }
        // Planted label with noise. Rows whose support misses the planted
        // model entirely (margin exactly 0) get an unbiased coin flip —
        // labelling them all one way would plant an unlearnable class
        // bias.
        let mut margin = 0.0;
        for (&i, &v) in idx_buf.iter().zip(val_buf.iter()) {
            margin += v * planted[i as usize];
        }
        let mut label = if margin > 0.0 {
            1.0
        } else if margin < 0.0 {
            -1.0
        } else if rng.next_f64() < 0.5 {
            1.0
        } else {
            -1.0
        };
        let importance_ratio = match profile.feature_kind {
            FeatureKind::Binary { .. } => nnz as f64 / profile.mean_nnz as f64,
            FeatureKind::GaussianScaled => {
                let norm_sq: f64 = val_buf.iter().map(|v| v * v).sum();
                norm_sq / mean_norm_sq
            }
        };
        let flip_p = (profile.label_noise * ((1.0 - coupling) + coupling * importance_ratio))
            .clamp(0.0, 0.49);
        if flip_p > 0.0 && rng.gen_bool(flip_p) {
            label = -label;
            flipped += 1;
        }
        b.push_row_unchecked(&idx_buf, &val_buf, label);
    }

    GeneratedData {
        dataset: b.finish(),
        planted_model: planted,
        flipped_fraction: flipped as f64 / n.max(1) as f64,
    }
}

/// One standard Gaussian draw via Box–Muller (polar-free form is fine at
/// this call rate).
fn gaussian(rng: &mut Xoshiro256pp) -> f64 {
    // Avoid u1 = 0 exactly.
    let u1 = (rng.next_f64()).max(f64::MIN_POSITIVE);
    let u2 = rng.next_f64();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::PaperProfile;
    use isasgd_balance::metrics::{psi_normalized, rho};
    use isasgd_losses::{importance_weights, ImportanceScheme, LogisticLoss, Regularizer};

    #[test]
    fn deterministic_under_seed() {
        let p = DatasetProfile::tiny();
        let a = generate(&p, 42);
        let b = generate(&p, 42);
        assert_eq!(a.dataset, b.dataset);
        assert_eq!(a.planted_model, b.planted_model);
        let c = generate(&p, 43);
        assert_ne!(a.dataset, c.dataset);
    }

    #[test]
    fn shapes_match_profile() {
        let p = DatasetProfile::tiny();
        let g = generate(&p, 1);
        assert_eq!(g.dataset.n_samples(), p.n_samples);
        assert_eq!(g.dataset.dim(), p.dim);
        let mean_nnz = g.dataset.mean_nnz();
        assert!(
            (mean_nnz - p.mean_nnz as f64).abs() < 2.0,
            "mean nnz {mean_nnz}"
        );
    }

    #[test]
    fn rows_are_valid_csr() {
        let g = generate(&DatasetProfile::tiny(), 2);
        for row in g.dataset.rows() {
            assert!(row.indices.windows(2).all(|w| w[0] < w[1]));
            assert!(row.values.iter().all(|v| v.is_finite()));
            assert!(row.nnz() >= 1);
        }
    }

    #[test]
    fn labels_mostly_match_planted_model() {
        let mut p = DatasetProfile::tiny();
        p.label_noise = 0.0;
        let g = generate(&p, 3);
        let agree = g
            .dataset
            .rows()
            .filter(|r| {
                let m = r.dot_dense(&g.planted_model);
                // Zero-margin rows get an unbiased coin flip, so any label
                // is "correct" for them.
                m == 0.0 || (m > 0.0) == (r.label > 0.0)
            })
            .count();
        assert_eq!(agree, p.n_samples, "zero noise must mean exact agreement");
        assert_eq!(g.flipped_fraction, 0.0);
    }

    #[test]
    fn label_noise_flips_expected_fraction() {
        let mut p = DatasetProfile::tiny();
        p.label_noise = 0.25;
        p.n_samples = 2000;
        let g = generate(&p, 4);
        assert!(
            (g.flipped_fraction - 0.25).abs() < 0.04,
            "{}",
            g.flipped_fraction
        );
    }

    #[test]
    fn psi_and_rho_hit_targets() {
        // Use a bigger sample so the empirical moments settle.
        let mut p = DatasetProfile::tiny();
        p.n_samples = 8000;
        p.target_psi_norm = 0.9;
        p.target_rho = 5e-4;
        let g = generate(&p, 5);
        let w = importance_weights(
            &g.dataset,
            &LogisticLoss,
            Regularizer::None,
            ImportanceScheme::LipschitzSmoothness,
        );
        let psi_hat = psi_normalized(&w);
        let rho_hat = rho(&w);
        assert!(
            (psi_hat - 0.9).abs() < 0.03,
            "psi_norm {psi_hat} vs target 0.9"
        );
        assert!(
            (rho_hat - 5e-4).abs() / 5e-4 < 0.35,
            "rho {rho_hat} vs target 5e-4"
        );
    }

    #[test]
    fn zipf_makes_head_features_hot() {
        let mut p = DatasetProfile::tiny();
        p.n_samples = 2000;
        p.zipf_exponent = 1.1;
        let g = generate(&p, 6);
        // Rows containing each feature.
        let mut freq = vec![0u32; p.dim];
        for row in g.dataset.rows() {
            for &i in row.indices {
                freq[i as usize] += 1;
            }
        }
        let head: u32 = freq[..p.dim / 10].iter().sum();
        let tail: u32 = freq[p.dim / 10..].iter().sum();
        assert!(
            head > tail,
            "first decile of features should dominate: head {head} tail {tail}"
        );
    }

    #[test]
    fn scaled_paper_profile_generates() {
        // Smallest scaled profile at reduced size, as a smoke test.
        let p = PaperProfile::News20.scaled().scaled_by(0.02);
        let g = generate(&p, 7);
        assert!(g.dataset.n_samples() > 0);
        assert!(g.dataset.density() > 0.0);
    }
}
