//! Minibatch SGD with optional importance sampling — the extension the
//! paper motivates by citing Csiba & Richtárik's "Importance sampling for
//! minibatches" (§1.1) — as a [`Solver`] kernel.
//!
//! Each step draws `b` indices i.i.d. (uniformly, or from the static or
//! adaptive IS distribution) and applies the averaged, correction-scaled
//! gradient:
//!
//! ```text
//! w ← w − (λ/b)·Σ_{i∈B} 1/(n·p_i) · ∇f_i(w)
//! ```
//!
//! which is unbiased for any sampling distribution, with variance shrunk
//! by both the batch size and the importance weighting. An epoch is
//! `⌈n/b⌉` steps, so epoch budgets stay comparable with the
//! single-sample solvers.
//!
//! The compute/apply split of the [`Solver`] trait maps exactly onto the
//! two-phase batch step: `compute` evaluates every gradient in the batch
//! at the *same* `w`, `apply` plays the averaged update back.

use crate::error::CoreError;
use crate::solvers::solver::{Feedback, Sched, Solver};
use isasgd_losses::{Loss, Objective};
use isasgd_sparse::Dataset;

/// One computed batch: `(row, g·corr)` pairs, applied averaged.
#[derive(Debug, Clone)]
pub struct BatchUpdate {
    items: Vec<(u32, f64)>,
}

/// The minibatch kernel.
pub struct MinibatchSolver<'a, L: Loss> {
    obj: &'a Objective<L>,
    batch: usize,
}

impl<'a, L: Loss> MinibatchSolver<'a, L> {
    /// Wraps the objective with batch size `batch` (validated ≥ 1 by the
    /// trainer).
    pub fn new(obj: &'a Objective<L>, batch: usize) -> Self {
        Self { obj, batch }
    }
}

impl<L: Loss> Solver for MinibatchSolver<'_, L> {
    type Update = BatchUpdate;

    fn label(&self) -> &'static str {
        "minibatch"
    }

    fn batch(&self) -> usize {
        self.batch
    }

    fn init(&mut self, _data: &Dataset) -> Result<(), CoreError> {
        if self.batch == 0 {
            return Err(CoreError::InvalidConfig("batch size must be ≥ 1".into()));
        }
        Ok(())
    }

    fn compute(
        &mut self,
        data: &Dataset,
        batch: &[Sched],
        _lambda: f64,
        w: &[f64],
        fb: &mut Feedback<'_>,
    ) -> BatchUpdate {
        // Phase 1: gradients at the *same* w for the whole batch.
        let mut items = Vec::with_capacity(batch.len());
        for &s in batch {
            let row = data.row(s.row as usize);
            let m = self.obj.margin(&row, w);
            let g = self.obj.grad_scale(&row, m);
            if fb.wants() {
                fb.record(s.row, g.abs());
            }
            items.push((s.row, g * s.corr));
        }
        BatchUpdate { items }
    }

    fn apply(&mut self, data: &Dataset, lambda: f64, u: BatchUpdate, w: &mut [f64]) {
        // Phase 2: averaged application + on-support regularizer.
        let scale = lambda / u.items.len() as f64;
        for &(i, g_corr) in &u.items {
            let row = data.row(i as usize);
            self.obj.apply_sgd_update(&row, -scale * g_corr, scale, w);
        }
    }
}
