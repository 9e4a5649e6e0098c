//! SAGA (Defazio et al. 2014) — the incremental-memory VR baseline — as
//! a [`Solver`] kernel.
//!
//! The paper cites SAGA alongside SVRG as the "SVRG-styled" VR family
//! (§1.1). For GLM losses the per-sample gradient memory is a *scalar*
//! `α_i` (since `∇φ_i = g·x_i`), so SAGA needs `O(n)` extra memory, not
//! `O(n·d)`. Its update is
//!
//! ```text
//! w ← w − λ·[ (g_i − α_i)·x_i + ḡ ],   ḡ = (1/n)·Σ_j α_j·x_j
//! ```
//!
//! The bracketed sparse part shares the sample's support; maintaining `ḡ`
//! is also sparse (`ḡ += (g_i − α_i)/n · x_i`). **But applying `ḡ` to `w`
//! is dense `O(d)` per iteration** — exactly the same sparsity cliff the
//! paper demonstrates for SVRG-ASGD (§1.2), now without even needing
//! full-gradient passes. SAGA is included so the "dense-VR loses on
//! sparse data" claim is shown to be structural to the VR family, not an
//! artifact of SVRG's snapshots.
//!
//! SAGA mutates its gradient memory at every step, so it offers no
//! lock-free [`SharedKernel`](crate::solvers::solver::SharedKernel) and
//! runs sequentially only — a lock-free version needs the AsySAGA-style
//! analysis that is out of the paper's scope. Its whole step therefore
//! lives in [`Solver::apply`] (compute is a pass-through), which the
//! sequential engine calls immediately after `compute`.

use crate::error::CoreError;
use crate::solvers::solver::{Sched, Solver};
use isasgd_losses::{Loss, Objective};
use isasgd_sparse::Dataset;

/// The SAGA kernel.
pub struct SagaSolver<'a, L: Loss> {
    obj: &'a Objective<L>,
    /// Scalar gradient memory per sample.
    alpha: Vec<f64>,
    /// Dense running average ḡ.
    g_bar: Vec<f64>,
}

impl<'a, L: Loss> SagaSolver<'a, L> {
    /// Wraps the objective.
    pub fn new(obj: &'a Objective<L>) -> Self {
        Self {
            obj,
            alpha: Vec::new(),
            g_bar: Vec::new(),
        }
    }
}

impl<L: Loss> Solver for SagaSolver<'_, L> {
    type Update = Sched;

    fn label(&self) -> &'static str {
        "saga"
    }

    fn uses_importance_plan(&self) -> bool {
        false
    }

    fn init(&mut self, data: &Dataset) -> Result<(), CoreError> {
        self.alpha = vec![0.0; data.n_samples()];
        self.g_bar = vec![0.0; data.dim()];
        Ok(())
    }

    fn compute(&mut self, _data: &Dataset, s: Sched, _lambda: f64, _w: &[f64]) -> (Sched, f64) {
        (s, 0.0)
    }

    fn apply(&mut self, data: &Dataset, lambda: f64, s: Sched, w: &mut [f64]) {
        let i = s.row as usize;
        let n = data.n_samples();
        let row = data.row(i);
        let m = self.obj.margin(&row, w);
        let g = self.obj.grad_scale(&row, m);
        let delta = g - self.alpha[i];
        // Sparse part: (g_i − α_i)·x_i plus the on-support lazy
        // regularizer subgradient.
        self.obj
            .apply_sgd_update(&row, -(lambda * delta), lambda, w);
        // Dense part: the running average ḡ (the sparsity cliff).
        for (wj, &gj) in w.iter_mut().zip(&self.g_bar) {
            *wj -= lambda * gj;
        }
        // Memory update keeps ḡ consistent — sparse.
        self.alpha[i] = g;
        row.axpy_into(delta / n as f64, &mut self.g_bar);
    }
}
