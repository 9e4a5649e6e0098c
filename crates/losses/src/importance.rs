//! Per-sample importance weights (paper §2.2, Eq. 11–12, 16).
//!
//! The optimal IS distribution `p_i ∝ ‖∇f_i(w_t)‖` (Eq. 11) is
//! impractical — it changes every iteration — so the paper follows
//! Zhao–Zhang and uses the static supremum bound `sup‖∇f_i(w)‖ ≤ R·L_i`,
//! giving `p_i = L_i / Σ_j L_j` (Eq. 12). Several choices of the
//! per-sample constant are in circulation; this module implements the ones
//! the paper references so experiments can compare them.

use crate::loss::Loss;
use crate::regularizer::Regularizer;
use isasgd_sampling::SamplingStrategy;
use isasgd_sparse::Dataset;

/// How the static per-sample importance `L_i` is computed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ImportanceScheme {
    /// Gradient-Lipschitz (smoothness) constants:
    /// `L_i = ℓ''_max·‖x_i‖² + curvature(reg)`. The standard choice for
    /// smooth losses (Needell et al. 2014; used in the paper's Lemma 2,
    /// where bounds are expressed in `supL`, `L̄`, `inf L`).
    LipschitzSmoothness,
    /// Gradient-norm bounds under a model-radius assumption:
    /// `L_i = ℓ'_bound(‖x_i‖, R)·‖x_i‖ + η·√d_reg` — the Eq. 16 style
    /// bound the paper derives for the squared-hinge SVM.
    GradNormBound {
        /// Assumed bound `R ≥ ‖w_t‖` for all t (paper's `‖w_t‖ ≤ R`).
        radius: f64,
    },
    /// Uniform weights — degrades IS-SGD to plain SGD; baseline/ablation.
    Uniform,
    /// Partially biased sampling (Needell et al. 2014, §5): a convex mix
    /// `p_i ∝ bias·L̄ + (1−bias)·L_i` of uniform and Lipschitz weights.
    /// Caps the step correction at `1/bias`, trading a bounded amount of
    /// variance reduction for robustness against tiny-`L_i` samples.
    PartiallyBiased {
        /// Mixing weight of the uniform component, in (0, 1].
        bias: f64,
    },
}

impl ImportanceScheme {
    /// The sampler a run that asks for `requested` builds under this
    /// scheme. [`ImportanceScheme::Uniform`] leaves nothing to weight
    /// by, so whatever was asked for is the uniform sampler (no alias
    /// table over equal weights, no adaptive tree that could only
    /// drift from them); every other scheme builds what was asked.
    /// The engine and the cluster both resolve through here.
    pub fn effective_sampling(self, requested: SamplingStrategy) -> SamplingStrategy {
        match self {
            ImportanceScheme::Uniform => SamplingStrategy::Uniform,
            _ => requested,
        }
    }
}

/// Computes the per-sample importance vector `{L_i}` for a dataset.
///
/// The returned weights are the *unnormalized* sampling weights of paper
/// Eq. 12; normalize via the samplers. Weights are strictly positive: an
/// empty row receives the smallest positive weight observed (or 1.0) so
/// the distribution never loses support — a zero-probability sample would
/// never be visited and its loss never reduced.
pub fn importance_weights<L: Loss>(
    ds: &Dataset,
    loss: &L,
    reg: Regularizer,
    scheme: ImportanceScheme,
) -> Vec<f64> {
    let n = ds.n_samples();
    let mut w = Vec::with_capacity(n);
    match scheme {
        ImportanceScheme::Uniform => {
            w.resize(n, 1.0);
            return w;
        }
        ImportanceScheme::LipschitzSmoothness => {
            let s = loss.smoothness();
            let c = reg.curvature();
            for row in ds.rows() {
                w.push(s * row.norm_sq() + c);
            }
        }
        ImportanceScheme::GradNormBound { radius } => {
            let eta = reg.eta();
            for row in ds.rows() {
                let xn = row.norm();
                w.push(loss.derivative_bound(xn, radius) * xn + eta);
            }
        }
        ImportanceScheme::PartiallyBiased { bias } => {
            let bias = bias.clamp(0.0, 1.0);
            let s = loss.smoothness();
            let c = reg.curvature();
            for row in ds.rows() {
                w.push(s * row.norm_sq() + c);
            }
            let mean = w.iter().sum::<f64>() / n.max(1) as f64;
            for x in &mut w {
                *x = bias * mean + (1.0 - bias) * *x;
            }
        }
    }
    // Re-floor degenerate weights (all-zero rows).
    let min_pos = w
        .iter()
        .copied()
        .filter(|&x| x > 0.0)
        .fold(f64::INFINITY, f64::min);
    let floor = if min_pos.is_finite() { min_pos } else { 1.0 };
    for x in &mut w {
        if *x <= 0.0 {
            *x = floor;
        }
    }
    w
}

/// Inverse-probability step correction `1/(n·p_i)` for each sample
/// (paper Eq. 8): with `p_i = L_i/ΣL`, this equals `L̄/L_i`.
/// (Canonical implementation lives in `isasgd-sampling`, next to the
/// samplers that consume it.)
pub use isasgd_sampling::step_corrections;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::{LogisticLoss, SquaredHingeLoss};
    use isasgd_sparse::DatasetBuilder;

    fn ds() -> Dataset {
        let mut b = DatasetBuilder::new(4);
        b.push_row(&[(0, 1.0)], 1.0).unwrap(); // ‖x‖² = 1
        b.push_row(&[(1, 2.0)], -1.0).unwrap(); // ‖x‖² = 4
        b.push_row(&[(2, 2.0), (3, 1.0)], 1.0).unwrap(); // ‖x‖² = 5
        b.finish()
    }

    #[test]
    fn lipschitz_weights_scale_with_norm_sq() {
        let w = importance_weights(
            &ds(),
            &LogisticLoss,
            Regularizer::None,
            ImportanceScheme::LipschitzSmoothness,
        );
        assert_eq!(w.len(), 3);
        assert!((w[0] - 0.25).abs() < 1e-12);
        assert!((w[1] - 1.0).abs() < 1e-12);
        assert!((w[2] - 1.25).abs() < 1e-12);
    }

    #[test]
    fn l2_curvature_enters_weights() {
        let w = importance_weights(
            &ds(),
            &LogisticLoss,
            Regularizer::L2 { eta: 0.5 },
            ImportanceScheme::LipschitzSmoothness,
        );
        assert!((w[0] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn gradnorm_weights_positive_and_ordered() {
        let w = importance_weights(
            &ds(),
            &SquaredHingeLoss,
            Regularizer::L2 { eta: 0.1 },
            ImportanceScheme::GradNormBound { radius: 2.0 },
        );
        assert!(w.iter().all(|&x| x > 0.0));
        // Larger norm ⇒ larger weight under this scheme too.
        assert!(w[2] > w[1] && w[1] > w[0]);
    }

    #[test]
    fn uniform_weights() {
        let w = importance_weights(
            &ds(),
            &LogisticLoss,
            Regularizer::None,
            ImportanceScheme::Uniform,
        );
        assert_eq!(w, vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn empty_rows_get_positive_floor() {
        let mut b = DatasetBuilder::new(2);
        b.push_row(&[], 1.0).unwrap();
        b.push_row(&[(0, 3.0)], -1.0).unwrap();
        let d = b.finish();
        let w = importance_weights(
            &d,
            &LogisticLoss,
            Regularizer::None,
            ImportanceScheme::LipschitzSmoothness,
        );
        assert!(w[0] > 0.0);
        assert_eq!(w[0], w.iter().cloned().fold(f64::INFINITY, f64::min));
    }

    #[test]
    fn partially_biased_interpolates() {
        let d = ds();
        let pure = importance_weights(
            &d,
            &LogisticLoss,
            Regularizer::None,
            ImportanceScheme::LipschitzSmoothness,
        );
        let mean = pure.iter().sum::<f64>() / pure.len() as f64;
        // bias = 1 ⇒ uniform at the mean level.
        let w1 = importance_weights(
            &d,
            &LogisticLoss,
            Regularizer::None,
            ImportanceScheme::PartiallyBiased { bias: 1.0 },
        );
        for &x in &w1 {
            assert!((x - mean).abs() < 1e-12);
        }
        // bias = 0 ⇒ pure Lipschitz weights.
        let w0 = importance_weights(
            &d,
            &LogisticLoss,
            Regularizer::None,
            ImportanceScheme::PartiallyBiased { bias: 0.0 },
        );
        for (a, b) in w0.iter().zip(&pure) {
            assert!((a - b).abs() < 1e-12);
        }
        // bias = 0.5 caps the correction at 2 = 1/bias.
        let w5 = importance_weights(
            &d,
            &LogisticLoss,
            Regularizer::None,
            ImportanceScheme::PartiallyBiased { bias: 0.5 },
        );
        let corr = step_corrections(&w5);
        assert!(corr.iter().all(|&c| c <= 2.0 + 1e-9), "{corr:?}");
    }

    #[test]
    fn step_corrections_are_mean_over_weight() {
        let c = step_corrections(&[1.0, 2.0, 3.0]);
        let mean = 2.0;
        assert!((c[0] - mean / 1.0).abs() < 1e-12);
        assert!((c[1] - mean / 2.0).abs() < 1e-12);
        assert!((c[2] - mean / 3.0).abs() < 1e-12);
        // Expectation of correction under p_i = L_i/ΣL is 1.
        let total: f64 = 6.0;
        let e: f64 = c
            .iter()
            .zip([1.0, 2.0, 3.0])
            .map(|(&ci, li)| ci * li / total)
            .sum();
        assert!((e - 1.0).abs() < 1e-12);
    }
}
