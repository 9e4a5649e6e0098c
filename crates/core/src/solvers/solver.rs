//! The [`Solver`] trait: the per-algorithm kernel behind the shared
//! [`run_engine`](crate::solvers::engine::run_engine).
//!
//! Every solver is split into the two phases a bounded-staleness run
//! needs anyway:
//!
//! * [`Solver::compute`] — read-only against the currently *visible*
//!   model: one draw's gradient, as a self-contained [`Solver::Update`],
//!   returned together with what the kernel observed on the way: the
//!   raw gradient scale `|ℓ'(m)|`.
//! * [`Solver::apply`] — mutate the model with a previously computed
//!   update.
//!
//! Both phases, and the lock-free step below, take the drawn row itself
//! as a [`SparseRow`], never a dataset and a row id: where a row is read
//! from — a window of gathered rows, or the dataset — is the engine's
//! business.
//!
//! Sequential execution calls them back-to-back (so `τ = 0` staleness is
//! literally the sequential algorithm); simulated execution pushes the
//! updates through a [`DelayQueue`](isasgd_asyncsim::DelayQueue);
//! threaded execution
//! instead uses the solver's lock-free [`SharedKernel`] (when it has one
//! — SVRG's skip-µ flavour defers a dense add to the epoch end and
//! returns `None`), whose one step returns the same observation.
//! Either way the engine hands the scale straight to the drawing
//! worker's [`ScheduleStream::observe`](isasgd_sampling::ScheduleStream::observe),
//! which owns feature norms and scaling; kernels never see a sampler.
//!
//! Epoch-granular state (SVRG's snapshot + full gradient µ, skip-µ's
//! deferred dense add) lives in [`Solver::on_epoch_start`] /
//! [`Solver::on_epoch_end`].
//!
//! Neither phase owns step arithmetic. The margin and the regularized
//! sparse update are `isasgd_losses::kernel`, generic over
//! [`ModelAccess`]; kernels here reach a dense model as a slice and the
//! shared one through [`SharedView`], and differ only in the coefficient
//! they hand it. On the shared model the whole per-coordinate map — axpy
//! and regularizer subgradient — is one relaxed load and one relaxed
//! store, so a step's gradient and regularizer land together or are
//! overwritten together.

use crate::error::CoreError;
use isasgd_losses::ModelAccess;
use isasgd_model::SharedModel;
use isasgd_sparse::{Dataset, SparseRow};

/// One scheduled draw: a global row index plus its importance-sampling
/// step correction `1/(n·p)` (1.0 under uniform sampling). This is the
/// sampling crate's [`Draw`](isasgd_sampling::Draw) — the engine pulls
/// them from per-worker [`ScheduleStream`](isasgd_sampling::ScheduleStream)s
/// instead of materializing per-epoch schedules.
pub type Sched = isasgd_sampling::Draw;

/// A Hogwild worker's handle on the shared model: how the step kernel
/// (`isasgd_losses::kernel`) reaches its coordinates. Reads are relaxed
/// loads (the perturbed iterate ŵ of the analysis); each write is one
/// [`SharedModel::update`].
pub struct SharedView<'a>(pub &'a SharedModel);

impl ModelAccess for SharedView<'_> {
    #[inline]
    fn get(&self, j: usize) -> f64 {
        self.0.get(j)
    }

    #[inline]
    fn update(&mut self, j: usize, f: impl FnOnce(f64) -> f64) {
        self.0.update(j, f);
    }
}

/// The lock-free per-sample kernel used by `Execution::Threads`.
///
/// Must be safe to run from many threads against one [`SharedModel`]
/// (Hogwild semantics): implementations may only read shared solver
/// state that is frozen for the duration of the epoch.
pub trait SharedKernel: Sync {
    /// One gradient step on `row`, drawn with step correction `corr`,
    /// against the shared model. Returns the observed gradient scale
    /// `|ℓ'(m)|`, or 0.0 when not meaningful.
    fn step_shared(&self, row: &SparseRow<'_>, corr: f64, lambda: f64, model: &SharedModel) -> f64;
}

/// A training algorithm's kernel, driven by the
/// [`run_engine`](crate::solvers::engine::run_engine).
pub trait Solver {
    /// The in-flight update type (what `compute` hands to `apply`,
    /// possibly τ logical steps later under simulated execution).
    type Update;

    /// Display tag for error messages.
    fn label(&self) -> &'static str;

    /// Whether the sampling plan should compute importance weights.
    /// Variance-reduction solvers sample uniformly and return `false`
    /// (their [`RunResult`](crate::RunResult) reports `balanced: None`).
    fn uses_importance_plan(&self) -> bool {
        true
    }

    /// Per-run state allocation. Called once, after planning.
    fn init(&mut self, data: &Dataset) -> Result<(), CoreError> {
        let _ = data;
        Ok(())
    }

    /// Whether [`Solver::on_epoch_start`] needs the current dense model.
    /// Threaded execution only pays the `O(d)` shared-model snapshot per
    /// epoch when this returns `true` (SVRG's sync point); the SGD family
    /// leaves it `false` so its timed epochs contain worker steps only.
    fn wants_epoch_start(&self) -> bool {
        false
    }

    /// Epoch-start hook with a dense view of the current model (runs
    /// before workers start; SVRG's sync point).
    fn on_epoch_start(&mut self, data: &Dataset, w: &[f64], lambda: f64) {
        let _ = (data, w, lambda);
    }

    /// Computes the update of a draw of `row` with step correction
    /// `corr` against the visible model `w` without mutating it, and
    /// returns it with the raw gradient scale `|ℓ'(m)|` observed at `w`
    /// (0.0 where a solver has none to report) —
    /// [`SharedKernel::step_shared`]'s contract.
    fn compute(
        &mut self,
        row: &SparseRow<'_>,
        corr: f64,
        lambda: f64,
        w: &[f64],
    ) -> (Self::Update, f64);

    /// Applies a previously computed update of `row` to the model.
    fn apply(&mut self, row: &SparseRow<'_>, lambda: f64, update: Self::Update, w: &mut [f64]);

    /// Epoch-end hook for dense execution modes (e.g. skip-µ's deferred
    /// add). The simulated queue is already drained when this runs.
    fn on_epoch_end(&mut self, data: &Dataset, lambda: f64, w: &mut [f64]) {
        let _ = (data, lambda, w);
    }

    /// The lock-free kernel for `Execution::Threads`, if this solver's
    /// per-step state is immutable within an epoch.
    fn shared_kernel(&self) -> Option<&dyn SharedKernel> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isasgd_losses::{sgd_step, LogisticLoss, Objective, Regularizer};
    use isasgd_sparse::DatasetBuilder;

    #[test]
    fn one_thread_on_the_shared_model_is_the_dense_step_bit_for_bit() {
        // The kernel's own pin: the same generic step on a slice and on
        // a fresh one-thread shared view leaves identical bits — margin
        // (7 non-zeros: unrolled body + tail), gradient scale and the
        // regularized write — for every regularizer.
        let mut b = DatasetBuilder::new(9);
        let wide = [
            (0, 1.5),
            (1, -0.25),
            (2, 0.75),
            (4, 2.0),
            (5, -1.25),
            (7, 0.5),
            (8, 3.0),
        ];
        b.push_row(&wide, 1.0).unwrap();
        b.push_row(&[(1, 0.5), (3, -2.0)], -1.0).unwrap();
        let ds = b.finish();
        let w0 = [0.3, -0.2, 0.0, 0.1, -0.4, 0.25, 0.0, -0.6, 0.05];
        let mut regs = vec![Regularizer::None];
        for eta in [0.0, 1e-5, 0.05] {
            regs.extend([Regularizer::L1 { eta }, Regularizer::L2 { eta }]);
        }
        for reg in regs {
            let obj = Objective::new(LogisticLoss, reg);
            let mut dense = w0;
            let model = SharedModel::from_dense(&w0);
            let mut view = SharedView(&model);
            for _ in 0..3 {
                for row in ds.rows() {
                    let g_dense = sgd_step(&obj, &row, 0.1, dense.as_mut_slice());
                    let g_shared = sgd_step(&obj, &row, 0.1, &mut view);
                    assert_eq!(g_dense.to_bits(), g_shared.to_bits(), "{reg:?}");
                }
            }
            let bits = |w: &[f64]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&dense), bits(&model.snapshot()), "{reg:?}");
            assert_ne!(bits(&dense), bits(&w0), "the steps must move the model");
        }
    }
}
