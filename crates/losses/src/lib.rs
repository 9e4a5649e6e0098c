//! Objective functions for the ERM problem of the paper (Eq. 1–2):
//!
//! ```text
//! min_w F(w) = (1/n) Σ_i f_i(w),   f_i(w) = φ_i(w) + η·r(w)
//! ```
//!
//! All losses here are GLM margin losses `φ_i(w) = ℓ(y_i · wᵀx_i)`, so the
//! stochastic gradient is `ℓ'(y_i wᵀx_i) · y_i · x_i` — a scalar multiple
//! of the sample, hence index-compressed (the property the paper's whole
//! performance argument rests on, Fig. 1).
//!
//! The crate provides:
//! * [`Loss`] — scalar margin-loss trait (value, derivative, curvature
//!   bound, gradient-norm bound).
//! * [`LogisticLoss`] — cross-entropy, the paper's evaluation objective.
//! * [`SquaredHingeLoss`] — L2-SVM with the paper's Eq. 16 bound.
//! * [`SquaredLoss`] — least squares (Kaczmarz-style IS analysis heritage).
//! * [`Regularizer`] — none / L1 / L2 with lazy on-support application.
//! * [`kernel`] — the one GLM step (margin + regularized sparse update),
//!   generic over [`ModelAccess`]: a dense slice or the shared model.
//! * [`Objective`] — a loss+regularizer bundle evaluating `F`, RMSE, error
//!   rate and per-sample importance weights `L_i` (Eq. 12).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod importance;
pub mod kernel;
pub mod loss;
pub mod objective;
pub mod regularizer;

pub use importance::{importance_weights, step_corrections, ImportanceScheme};
pub use kernel::{sgd_step, ModelAccess};
pub use loss::{LogisticLoss, Loss, SquaredHingeLoss, SquaredLoss};
pub use objective::{EvalMetrics, Objective, PartialEval};
pub use regularizer::Regularizer;
