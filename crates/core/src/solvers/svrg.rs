//! SVRG-SGD and SVRG-ASGD (paper Algorithm 1 and §1.2) as a
//! [`Solver`] kernel.
//!
//! Per sync round (one epoch here, as in the paper's Algorithm 1 with
//! `sync(t)` at epoch boundaries): snapshot `s = w`, compute the dense
//! full gradient `µ = ∇F(s)` (both in [`Solver::on_epoch_start`]), then
//! iterate `w ← w − λ·(∇f_i(w) − ∇f_i(s) + µ)`.
//!
//! The two sparse terms share the sample's support and cost `O(nnz)`; the
//! `µ` term is **dense** and costs `O(d)` *per iteration* — the
//! performance cliff the paper demonstrates on sparse data (Fig. 1, §1.2).
//! The [`SvrgVariant::SkipMu`] flavour reproduces the public-code
//! approximation the paper criticizes: `µ` is skipped in the loop and
//! applied once per epoch multiplied by the iteration count
//! ([`Solver::on_epoch_end`]), which recovers the *sum* of the updates
//! but not the trajectory, and visibly distorts convergence (the
//! `ablation-svrg` experiment).
//!
//! SVRG samples uniformly (`uses_importance_plan` = false): its epoch
//! state is read-only during steps, so the literature variant also
//! provides a lock-free [`SharedKernel`] for real-thread execution
//! (SVRG-ASGD; skip-µ is sequential only).

use crate::config::SvrgVariant;
use crate::error::CoreError;
use crate::eval::full_gradient;
use crate::solvers::solver::{SharedKernel, SharedView, Solver};
use isasgd_losses::{kernel, Loss, Objective};
use isasgd_model::SharedModel;
use isasgd_sparse::{Dataset, SparseRow};

/// An in-flight SVRG update: the sparse part (the dense µ add needs
/// nothing the solver does not hold).
#[derive(Debug, Clone, Copy)]
pub struct SvrgUpdate {
    /// Coefficient of the sparse direction x_row: −λ·(g_w − g_s).
    coeff: f64,
}

/// The SVRG kernel.
pub struct SvrgSolver<'a, L: Loss> {
    obj: &'a Objective<L>,
    variant: SvrgVariant,
    mu: Vec<f64>,
    snapshot: Vec<f64>,
}

impl<'a, L: Loss> SvrgSolver<'a, L> {
    /// Wraps the objective for one SVRG variant.
    pub fn new(obj: &'a Objective<L>, variant: SvrgVariant) -> Self {
        Self {
            obj,
            variant,
            mu: Vec::new(),
            snapshot: Vec::new(),
        }
    }
}

impl<L: Loss> Solver for SvrgSolver<'_, L> {
    type Update = SvrgUpdate;

    fn label(&self) -> &'static str {
        "svrg"
    }

    fn uses_importance_plan(&self) -> bool {
        false
    }

    fn init(&mut self, data: &Dataset) -> Result<(), CoreError> {
        self.mu = vec![0.0; data.dim()];
        self.snapshot = vec![0.0; data.dim()];
        Ok(())
    }

    fn wants_epoch_start(&self) -> bool {
        true
    }

    fn on_epoch_start(&mut self, data: &Dataset, w: &[f64], _lambda: f64) {
        // Sync point (Algorithm 1 lines 4–6): snapshot + full gradient.
        self.snapshot.clear();
        self.snapshot.extend_from_slice(w);
        let snap = std::mem::take(&mut self.snapshot);
        full_gradient(data, self.obj, &snap, &mut self.mu);
        self.snapshot = snap;
    }

    fn compute(
        &mut self,
        row: &SparseRow<'_>,
        _corr: f64,
        lambda: f64,
        w: &[f64],
    ) -> (SvrgUpdate, f64) {
        let g_w = {
            let m = self.obj.margin(row, w);
            self.obj.grad_scale(row, m)
        };
        let g_s = {
            let m = self.obj.margin(row, &self.snapshot);
            self.obj.grad_scale(row, m)
        };
        let update = SvrgUpdate {
            coeff: -lambda * (g_w - g_s),
        };
        (update, 0.0)
    }

    fn apply(&mut self, row: &SparseRow<'_>, lambda: f64, u: SvrgUpdate, w: &mut [f64]) {
        row.axpy_into(u.coeff, w);
        if self.variant == SvrgVariant::Literature {
            // The dense O(d) add that dominates on sparse data.
            for (wj, &mj) in w.iter_mut().zip(&self.mu) {
                *wj -= lambda * mj;
            }
        }
    }

    fn on_epoch_end(&mut self, data: &Dataset, lambda: f64, w: &mut [f64]) {
        if self.variant == SvrgVariant::SkipMu {
            let total = data.n_samples() as f64;
            for (wj, &mj) in w.iter_mut().zip(&self.mu) {
                *wj -= lambda * total * mj;
            }
        }
    }

    fn shared_kernel(&self) -> Option<&dyn SharedKernel> {
        // Skip-µ defers its dense add to `on_epoch_end`, which a thread
        // pool never calls: only the literature variant runs lock-free.
        (self.variant == SvrgVariant::Literature).then_some(self as &dyn SharedKernel)
    }
}

impl<L: Loss> SharedKernel for SvrgSolver<'_, L> {
    fn step_shared(
        &self,
        row: &SparseRow<'_>,
        _corr: f64,
        lambda: f64,
        model: &SharedModel,
    ) -> f64 {
        let m_w = kernel::margin(row, &SharedView(model));
        let g_w = self.obj.grad_scale(row, m_w);
        let m_s = self.obj.margin(row, &self.snapshot);
        let g_s = self.obj.grad_scale(row, m_s);
        let coeff = -lambda * (g_w - g_s);
        for (&j, &x) in row.indices.iter().zip(row.values) {
            model.add(j as usize, coeff * x);
        }
        for (j, &mj) in self.mu.iter().enumerate() {
            if mj != 0.0 {
                model.add(j, -lambda * mj);
            }
        }
        0.0
    }
}
