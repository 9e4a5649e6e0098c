//! The one GLM step: margin, then the regularized sparse update.
//!
//! Importance sampling changes *which* row is drawn and the `1/(n·p_i)`
//! factor folded into the step size — never the iteration. So the
//! iteration is written once, here, generic over how a model coordinate
//! is reached ([`ModelAccess`]): a dense slice for sequential, simulated
//! and cluster-node runs, the lock-free shared model for Hogwild threads.
//! Every solver, engine arm and cluster worker calls these functions;
//! `Regularizer::grad_coord` is crate-private so a second copy of the
//! update cannot be written outside this crate.
//!
//! The regularizer subgradient is evaluated at the coordinate *after*
//! the gradient axpy — `w_j ← (w_j + c·x_j) − s·r'(w_j + c·x_j)` — and
//! the whole map is handed to [`ModelAccess::update`] as one closure, so
//! an atomic model applies gradient and regularizer in a single store.
//!
//! The L1 subgradient inside that map is written as a select, not a
//! branch: the sign of a trained weight follows no pattern a branch
//! predictor can learn, so a branch on it mispredicts once per few
//! coordinates.

use crate::loss::Loss;
use crate::objective::Objective;
use crate::regularizer::Regularizer;
use isasgd_sparse::SparseRow;

/// Coordinate access to a model — all the step kernel needs.
pub trait ModelAccess {
    /// Reads coordinate `j`.
    fn get(&self, j: usize) -> f64;

    /// Replaces `w_j` by `f(w_j)`. A concurrent model stores `f` of the
    /// value it loaded; a racing writer may overwrite it (Hogwild).
    fn update(&mut self, j: usize, f: impl FnOnce(f64) -> f64);
}

impl ModelAccess for [f64] {
    #[inline]
    fn get(&self, j: usize) -> f64 {
        self[j]
    }

    #[inline]
    fn update(&mut self, j: usize, f: impl FnOnce(f64) -> f64) {
        self[j] = f(self[j]);
    }
}

/// Margin `m_i = y_i · wᵀx_i`.
#[inline]
pub fn margin<M: ModelAccess + ?Sized>(row: &SparseRow<'_>, w: &M) -> f64 {
    row.label * row.dot_with(|j| w.get(j))
}

/// The sparse axpy `w += coeff·x` followed, per coordinate, by the
/// on-support lazy regularizer subgradient scaled by `reg_scale` (both
/// already carry the step size and the IS correction).
#[inline]
pub fn apply_update<M: ModelAccess + ?Sized>(
    reg: Regularizer,
    row: &SparseRow<'_>,
    coeff: f64,
    reg_scale: f64,
    w: &mut M,
) {
    for (&j, &x) in row.indices.iter().zip(row.values) {
        w.update(j as usize, |wj| {
            let wj = wj + coeff * x;
            wj - reg_scale * reg.grad_coord(wj)
        });
    }
}

/// One undelayed (IS-)SGD step on `row` with effective step size
/// `step = λ/(n·p_i)`: margin → gradient scale `g` → update. Returns `g`
/// (`∇φ_i(w) = g·x_i`), whose magnitude is the adaptive-sampling
/// observation.
#[inline]
pub fn sgd_step<L: Loss, M: ModelAccess + ?Sized>(
    obj: &Objective<L>,
    row: &SparseRow<'_>,
    step: f64,
    w: &mut M,
) -> f64 {
    let g = obj.grad_scale(row, margin(row, w));
    apply_update(obj.reg, row, -step * g, step, w);
    g
}
