//! Scalar margin losses `ℓ(m)` with `m = y · wᵀx`.

/// A differentiable (or subdifferentiable) margin loss.
///
/// Implementations provide the scalar value/derivative at margin `m`; the
/// solver composes them with the sample to form the sparse stochastic
/// gradient `∇φ_i(w) = ℓ'(m_i) · y_i · x_i`.
pub trait Loss: Send + Sync {
    /// Loss value at margin `m = y · wᵀx`.
    fn value(&self, m: f64) -> f64;

    /// Derivative `dℓ/dm` at margin `m`.
    fn derivative(&self, m: f64) -> f64;

    /// Smoothness constant of the scalar loss: an upper bound on `|ℓ''|`.
    ///
    /// The per-sample gradient Lipschitz constant is then
    /// `L_i = smoothness() · ‖x_i‖²` (plus the regularizer's curvature).
    fn smoothness(&self) -> f64;

    /// Upper bound on `|ℓ'(m)|` for `‖w‖ ≤ radius`, `‖x‖ = x_norm`.
    ///
    /// Used for the paper's Eq. 12 importance weights under the bounded-
    /// iterate assumption (`sup‖∇f_i(w)‖ ≤ R·L_i` discussion in §2.2).
    fn derivative_bound(&self, x_norm: f64, radius: f64) -> f64;

    /// Short stable name used in experiment logs.
    fn name(&self) -> &'static str;

    /// True if the loss treats `m ≥ threshold` as correctly classified
    /// (all margin losses here do, with threshold 0).
    fn classifies_correctly(&self, m: f64) -> bool {
        m > 0.0
    }
}

/// Logistic (cross-entropy) loss `ℓ(m) = ln(1 + e^{-m})`.
///
/// The paper's evaluation objective ("L1-regularized cross-entropy loss",
/// §4). Numerically stable via the standard `log1p(exp(-|m|))` split.
#[derive(Debug, Clone, Copy, Default)]
pub struct LogisticLoss;

impl Loss for LogisticLoss {
    #[inline]
    fn value(&self, m: f64) -> f64 {
        // ln(1 + e^{-m}) computed without overflow for very negative m.
        if m >= 0.0 {
            (-m).exp().ln_1p()
        } else {
            -m + m.exp().ln_1p()
        }
    }

    #[inline]
    fn derivative(&self, m: f64) -> f64 {
        // dℓ/dm = -σ(-m) = -1 / (1 + e^m)
        if m >= 0.0 {
            let e = (-m).exp();
            -e / (1.0 + e)
        } else {
            -1.0 / (1.0 + m.exp())
        }
    }

    fn smoothness(&self) -> f64 {
        0.25 // sup σ'(m) = 1/4
    }

    fn derivative_bound(&self, _x_norm: f64, _radius: f64) -> f64 {
        1.0 // |σ(-m)| ≤ 1 everywhere
    }

    fn name(&self) -> &'static str {
        "logistic"
    }
}

/// Squared hinge loss `ℓ(m) = max(0, 1 - m)²` — the L2-SVM objective the
/// paper uses to illustrate the Eq. 16 gradient bound.
#[derive(Debug, Clone, Copy, Default)]
pub struct SquaredHingeLoss;

impl Loss for SquaredHingeLoss {
    #[inline]
    fn value(&self, m: f64) -> f64 {
        let g = (1.0 - m).max(0.0);
        g * g
    }

    #[inline]
    fn derivative(&self, m: f64) -> f64 {
        let g = (1.0 - m).max(0.0);
        -2.0 * g
    }

    fn smoothness(&self) -> f64 {
        2.0
    }

    fn derivative_bound(&self, x_norm: f64, radius: f64) -> f64 {
        // |ℓ'(m)| = 2·max(0, 1-m) ≤ 2·(1 + |m|) ≤ 2·(1 + radius·x_norm).
        2.0 * (1.0 + radius * x_norm)
    }

    fn name(&self) -> &'static str {
        "squared_hinge"
    }
}

/// Squared loss `ℓ(m) = (1 - m)²/2`, i.e. least squares on the margin —
/// the randomized-Kaczmarz setting where IS theory originated
/// (Strohmer–Vershynin 2009, cited by the paper).
#[derive(Debug, Clone, Copy, Default)]
pub struct SquaredLoss;

impl Loss for SquaredLoss {
    #[inline]
    fn value(&self, m: f64) -> f64 {
        let r = 1.0 - m;
        0.5 * r * r
    }

    #[inline]
    fn derivative(&self, m: f64) -> f64 {
        m - 1.0
    }

    fn smoothness(&self) -> f64 {
        1.0
    }

    fn derivative_bound(&self, x_norm: f64, radius: f64) -> f64 {
        1.0 + radius * x_norm
    }

    fn name(&self) -> &'static str {
        "squared"
    }
}

/// Evaluates `body` with `loss` bound to the loss whose [`Loss::name`]
/// is `name`: `Some(body)`, or `None` when no loss here has that name.
/// This is the one place a loss is chosen by name (a worker's
/// `SessionConfig`, the CLI's `--loss`) and the one list of the loss
/// types. A macro rather than a function over `dyn Loss` so that `body`
/// compiles once per loss type and the training loop it starts stays
/// statically dispatched.
///
/// ```
/// use isasgd_losses::{with_loss, Loss};
/// assert_eq!(with_loss!("squared", |l| l.smoothness()), Some(1.0));
/// assert_eq!(with_loss!("hinge", |l| l.smoothness()), None);
/// ```
#[macro_export]
macro_rules! with_loss {
    ($name:expr, |$loss:ident| $body:expr) => {
        $crate::with_loss!(@among LogisticLoss SquaredHingeLoss SquaredLoss; $name, $loss, $body)
    };
    (@among $($ty:ident)+; $name:expr, $loss:ident, $body:expr) => {{
        let name: &str = $name;
        $(if name == $crate::Loss::name(&$crate::$ty) {
            let $loss = $crate::$ty;
            Some($body)
        } else)+ {
            None
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finite_diff<L: Loss>(loss: &L, m: f64) -> f64 {
        let h = 1e-6;
        (loss.value(m + h) - loss.value(m - h)) / (2.0 * h)
    }

    #[test]
    fn logistic_values() {
        let l = LogisticLoss;
        assert!((l.value(0.0) - std::f64::consts::LN_2).abs() < 1e-12);
        assert!(l.value(100.0) < 1e-12);
        assert!((l.value(-100.0) - 100.0).abs() < 1e-9);
        assert!(l.value(-745.0).is_finite(), "must not overflow");
        assert!(l.value(745.0).is_finite());
    }

    #[test]
    fn logistic_derivative_matches_finite_difference() {
        let l = LogisticLoss;
        for &m in &[-5.0, -1.0, -0.1, 0.0, 0.1, 1.0, 5.0] {
            let fd = finite_diff(&l, m);
            assert!((l.derivative(m) - fd).abs() < 1e-5, "m={m}");
        }
    }

    #[test]
    fn logistic_derivative_bounded() {
        let l = LogisticLoss;
        for &m in &[-700.0, -10.0, 0.0, 10.0, 700.0] {
            let d = l.derivative(m);
            assert!((-1.0..=0.0).contains(&d), "m={m} d={d}");
        }
    }

    #[test]
    fn squared_hinge_derivative_matches_finite_difference() {
        let l = SquaredHingeLoss;
        for &m in &[-3.0, 0.0, 0.5, 0.99, 1.5, 4.0] {
            let fd = finite_diff(&l, m);
            assert!((l.derivative(m) - fd).abs() < 1e-5, "m={m}");
        }
    }

    #[test]
    fn squared_hinge_zero_beyond_margin() {
        let l = SquaredHingeLoss;
        assert_eq!(l.value(1.0), 0.0);
        assert_eq!(l.value(2.0), 0.0);
        assert_eq!(l.derivative(1.5), 0.0);
        assert!(l.value(0.0) == 1.0);
    }

    #[test]
    fn squared_loss_derivative_matches_finite_difference() {
        let l = SquaredLoss;
        for &m in &[-2.0, 0.0, 1.0, 3.0] {
            let fd = finite_diff(&l, m);
            assert!((l.derivative(m) - fd).abs() < 1e-5, "m={m}");
        }
    }

    #[test]
    fn smoothness_upper_bounds_second_derivative() {
        // Empirical: |ℓ'(a)-ℓ'(b)| ≤ smoothness·|a-b| on a grid.
        let losses: Vec<(Box<dyn Loss>, &str)> = vec![
            (Box::new(LogisticLoss), "logistic"),
            (Box::new(SquaredHingeLoss), "hinge2"),
            (Box::new(SquaredLoss), "squared"),
        ];
        for (l, name) in &losses {
            let grid: Vec<f64> = (-40..=40).map(|i| i as f64 * 0.25).collect();
            for w in grid.windows(2) {
                let lhs = (l.derivative(w[0]) - l.derivative(w[1])).abs();
                let rhs = l.smoothness() * (w[0] - w[1]).abs() + 1e-9;
                assert!(lhs <= rhs, "{name}: at {} {}", w[0], w[1]);
            }
        }
    }

    #[test]
    fn derivative_bounds_hold_on_grid() {
        let l = SquaredHingeLoss;
        let (x_norm, radius) = (2.0, 3.0);
        let bound = l.derivative_bound(x_norm, radius);
        // margins reachable with ‖w‖≤radius, ‖x‖=x_norm: |m| ≤ 6
        for i in -24..=24 {
            let m = i as f64 * 0.25;
            assert!(l.derivative(m).abs() <= bound + 1e-9, "m={m}");
        }
    }

    #[test]
    fn classification_convention() {
        let l = LogisticLoss;
        assert!(l.classifies_correctly(0.3));
        assert!(!l.classifies_correctly(0.0));
        assert!(!l.classifies_correctly(-0.3));
    }

    #[test]
    fn every_loss_is_chosen_by_its_own_name() {
        for name in [
            LogisticLoss.name(),
            SquaredHingeLoss.name(),
            SquaredLoss.name(),
        ] {
            assert_eq!(with_loss!(name, |l| l.name()), Some(name));
        }
        assert_eq!(with_loss!("squared-hinge", |l| l.name()), None);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(LogisticLoss.name(), "logistic");
        assert_eq!(SquaredHingeLoss.name(), "squared_hinge");
        assert_eq!(SquaredLoss.name(), "squared");
    }
}
