//! Regularizers `η·r(w)` with sparse (on-support) application.
//!
//! A dense regularizer gradient would reintroduce exactly the `O(d)`
//! per-iteration cost the paper eliminates, so — following the Hogwild
//! code base the paper builds on — the regularizer is applied **lazily on
//! the support of the current sample**, scaled by the inverse feature
//! frequency so the *expected* regularization force matches the full
//! gradient. With uniform scaling `1.0` the regularizer is simply applied
//! on-support (the common practical choice); both scalings are exposed.

/// Regularization term added to every `f_i`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Regularizer {
    /// No regularization.
    #[default]
    None,
    /// `η·‖w‖₁` — the paper's evaluation choice (L1 cross-entropy).
    L1 {
        /// Regularization factor η.
        eta: f64,
    },
    /// `(η/2)·‖w‖₂²`.
    L2 {
        /// Regularization factor η.
        eta: f64,
    },
}

impl Regularizer {
    /// The regularization factor η (0 for `None`).
    pub fn eta(&self) -> f64 {
        match *self {
            Regularizer::None => 0.0,
            Regularizer::L1 { eta } | Regularizer::L2 { eta } => eta,
        }
    }

    /// Value `η·r(w)` for a dense model.
    pub fn value(&self, w: &[f64]) -> f64 {
        match *self {
            Regularizer::None => 0.0,
            Regularizer::L1 { eta } => eta * w.iter().map(|x| x.abs()).sum::<f64>(),
            Regularizer::L2 { eta } => 0.5 * eta * w.iter().map(|x| x * x).sum::<f64>(),
        }
    }

    /// The one rule every run validator applies: η must be finite and
    /// ≥ 0. A negative η anti-regularizes (the step pushes weights away
    /// from zero), and a non-finite one poisons the importance weights
    /// before the first step.
    pub fn check(&self) -> Result<(), String> {
        let eta = self.eta();
        if eta.is_finite() && eta >= 0.0 {
            Ok(())
        } else {
            Err(format!(
                "regularization factor η = {eta} must be finite and ≥ 0"
            ))
        }
    }

    /// Sub/gradient contribution at coordinate value `wj`. Crate-private:
    /// the step kernel and the dense gradient tail are its only callers.
    ///
    /// The L1 arm is two selects, not a branch chain: it returns η, −η
    /// or +0.0 exactly as `if wj > 0 {η} else if wj < 0 {−η} else {0}`
    /// does for every `wj` (±0.0 and NaN give +0.0) and every η. That
    /// lets the compiler lower it to a mask select instead of a jump on
    /// the sign of a trained weight, but only where the regularizer's
    /// variant is known: a loop that matches on it per coordinate kept
    /// the jump in the shared-model step, so `kernel::apply_update`
    /// matches first and runs one loop per arm. It is not a multiply by
    /// a sign: `η·0.0` is NaN at η = ∞.
    #[inline]
    pub(crate) fn grad_coord(&self, wj: f64) -> f64 {
        match *self {
            Regularizer::None => 0.0,
            Regularizer::L1 { eta } => {
                let r = if wj > 0.0 { eta } else { 0.0 };
                if wj < 0.0 {
                    -eta
                } else {
                    r
                }
            }
            Regularizer::L2 { eta } => eta * wj,
        }
    }

    /// Curvature (strong-convexity / smoothness contribution) of the
    /// regularizer: `η` for L2, `0` otherwise. Enters the per-sample
    /// Lipschitz constant `L_i = smoothness·‖x_i‖² + curvature`.
    pub fn curvature(&self) -> f64 {
        match *self {
            Regularizer::L2 { eta } => eta,
            _ => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values() {
        let w = [1.0, -2.0, 0.0];
        assert_eq!(Regularizer::None.value(&w), 0.0);
        assert_eq!(Regularizer::L1 { eta: 0.5 }.value(&w), 1.5);
        assert_eq!(Regularizer::L2 { eta: 2.0 }.value(&w), 5.0);
    }

    #[test]
    fn coordinate_gradients() {
        let l1 = Regularizer::L1 { eta: 0.1 };
        assert_eq!(l1.grad_coord(3.0), 0.1);
        assert_eq!(l1.grad_coord(-3.0), -0.1);
        assert_eq!(l1.grad_coord(0.0), 0.0);
        let l2 = Regularizer::L2 { eta: 0.1 };
        assert!((l2.grad_coord(3.0) - 0.3).abs() < 1e-15);

        // The select is bit-identical to the three-way branch chain it
        // replaced, kept here as the oracle.
        fn oracle(reg: Regularizer, wj: f64) -> f64 {
            match reg {
                Regularizer::None => 0.0,
                Regularizer::L1 { eta } => {
                    if wj > 0.0 {
                        eta
                    } else if wj < 0.0 {
                        -eta
                    } else {
                        0.0
                    }
                }
                Regularizer::L2 { eta } => eta * wj,
            }
        }
        let subnormal = f64::MIN_POSITIVE / 4.0;
        assert!(subnormal > 0.0 && !subnormal.is_normal());
        let inputs = [
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            subnormal,
            3.0,
            -3.0,
        ];
        let mut regs = vec![Regularizer::None];
        for eta in [0.0, 1e-5, 0.1, f64::INFINITY] {
            regs.extend([Regularizer::L1 { eta }, Regularizer::L2 { eta }]);
        }
        for reg in regs {
            for wj in inputs {
                assert_eq!(
                    reg.grad_coord(wj).to_bits(),
                    oracle(reg, wj).to_bits(),
                    "{reg:?} at {wj:e}"
                );
            }
        }
    }

    #[test]
    fn curvature() {
        assert_eq!(Regularizer::None.curvature(), 0.0);
        assert_eq!(Regularizer::L1 { eta: 1.0 }.curvature(), 0.0);
        assert_eq!(Regularizer::L2 { eta: 0.3 }.curvature(), 0.3);
    }

    #[test]
    fn eta_accessor() {
        assert_eq!(Regularizer::None.eta(), 0.0);
        assert_eq!(Regularizer::L1 { eta: 0.7 }.eta(), 0.7);
        assert_eq!(Regularizer::L2 { eta: 0.9 }.eta(), 0.9);
    }
}
