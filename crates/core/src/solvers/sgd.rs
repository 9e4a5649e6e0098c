//! The single-sample GLM-SGD solver — one kernel for SGD, IS-SGD, ASGD
//! and IS-ASGD.
//!
//! This module is the paper's central observation made literal: the four
//! algorithms share *one* training kernel; they differ only in the
//! sampling distribution (handled by the plan's
//! [`Sampler`](isasgd_sampling::Sampler)s) and the execution mode
//! (handled by the [`engine`](crate::solvers::engine)). The kernel is
//! [`isasgd_losses::kernel`] — margin, gradient scale, then
//! `w_j ← (w_j + c·x_j) − s·r'(w_j + c·x_j)` on the sample's support,
//! the regularizer evaluated lazily at the post-axpy coordinate so no
//! step pays an `O(d)` regularization scan. This file only decides
//! *when* its halves run:
//!
//! * `compute` / `apply` split it at the write, for dense models. The
//!   perturbed-iterate semantics of Eq. 21 fall out: the gradient is
//!   computed against the currently visible model `ŵ_t` and the update —
//!   regularizer included, at apply-time `w` — lands τ logical steps
//!   later (τ = 0 sequentially, where the pair is exactly
//!   [`sgd_step`]).
//! * `step_shared` runs [`sgd_step`] undelayed against a [`SharedView`]
//!   of the Hogwild model: the same arithmetic, so one thread reproduces
//!   the sequential run bit for bit under every regularizer.
//!
//! Both return `|ℓ'(m)|`, the one quantity adaptive sampling feeds on,
//! as a by-product of the gradient they compute anyway.

use crate::solvers::solver::{SharedKernel, SharedView, Solver};
use isasgd_losses::{sgd_step, Loss, Objective};
use isasgd_model::SharedModel;
use isasgd_sparse::SparseRow;

/// One in-flight update: `w += coeff·x_row`, then an on-support
/// regularizer step scaled by `reg_scale` (both already include −λ and
/// the IS correction `1/(n·p_i)`).
#[derive(Debug, Clone, Copy)]
pub struct SgdUpdate {
    /// Multiplier for the sparse axpy (−λ·corr·ℓ'(m)·y).
    coeff: f64,
    /// Multiplier for the on-support regularizer subgradient (λ·corr).
    reg_scale: f64,
}

/// The shared SGD/ASGD kernel.
pub struct SgdSolver<'a, L: Loss> {
    obj: &'a Objective<L>,
}

impl<'a, L: Loss> SgdSolver<'a, L> {
    /// Wraps the objective.
    pub fn new(obj: &'a Objective<L>) -> Self {
        Self { obj }
    }
}

impl<L: Loss> Solver for SgdSolver<'_, L> {
    type Update = SgdUpdate;

    fn label(&self) -> &'static str {
        "sgd-family"
    }

    fn compute(
        &mut self,
        row: &SparseRow<'_>,
        corr: f64,
        lambda: f64,
        w: &[f64],
    ) -> (SgdUpdate, f64) {
        let margin = self.obj.margin(row, w);
        let g = self.obj.grad_scale(row, margin);
        let update = SgdUpdate {
            coeff: -lambda * corr * g,
            reg_scale: lambda * corr,
        };
        (update, g.abs())
    }

    fn apply(&mut self, row: &SparseRow<'_>, _lambda: f64, u: SgdUpdate, w: &mut [f64]) {
        self.obj.apply_sgd_update(row, u.coeff, u.reg_scale, w);
    }

    fn shared_kernel(&self) -> Option<&dyn SharedKernel> {
        Some(self)
    }
}

impl<L: Loss> SharedKernel for SgdSolver<'_, L> {
    fn step_shared(&self, row: &SparseRow<'_>, corr: f64, lambda: f64, model: &SharedModel) -> f64 {
        sgd_step(self.obj, row, lambda * corr, &mut SharedView(model)).abs()
    }
}
