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
//! The L1 subgradient inside that map must compile to a select, not a
//! branch: the sign of a trained weight follows no pattern a branch
//! predictor can learn, so a branch on it mispredicts once per few
//! coordinates. `grad_coord` is written as two selects, but that alone
//! is not enough. With one loop that matches on the regularizer per
//! coordinate, LLVM unswitched the match out of the slice instantiation
//! and lowered the sign to `cmpltsd`/`andpd`/`andnpd`/`orpd`, yet left it
//! inside the loop of the shared-model one, with a `ucomisd; jbe` on the
//! sign of `w_j + c·x_j`. So [`apply_update`] matches once per call and
//! runs one loop per arm, each over a regularizer that is constant in it:
//! every [`ModelAccess`] gets the same specialised, branch-free loop.
//!
//! To check it on a release build, disassemble the Hogwild step
//! (`objdump -d -C --no-show-raw-insn` on `bench_e2e` or `isasgd`; the
//! symbol is `<isasgd_core::solvers::sgd::SgdSolver<L> as
//! isasgd_core::solvers::solver::SharedKernel>::step_shared>`). Its L1
//! loop — the one holding `cmpltsd` — must have no jump between the
//! `addsd` of the axpy and the store. In the `LogisticLoss`
//! instantiation the one `ucomisd` left is the loss's test of the
//! margin's sign, before `exp`.

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
    // One loop per arm, each monomorphised over a regularizer that is
    // constant inside it (see the module doc for why).
    match reg {
        Regularizer::None => update_each(row, coeff, reg_scale, w, |wj| {
            Regularizer::None.grad_coord(wj)
        }),
        Regularizer::L1 { eta } => update_each(row, coeff, reg_scale, w, |wj| {
            Regularizer::L1 { eta }.grad_coord(wj)
        }),
        Regularizer::L2 { eta } => update_each(row, coeff, reg_scale, w, |wj| {
            Regularizer::L2 { eta }.grad_coord(wj)
        }),
    }
}

/// The per-coordinate loop of [`apply_update`] for one regularizer arm:
/// `w_j ← (w_j + c·x_j) − s·grad(w_j + c·x_j)`, as one `update` each.
#[inline]
fn update_each<M: ModelAccess + ?Sized>(
    row: &SparseRow<'_>,
    coeff: f64,
    reg_scale: f64,
    w: &mut M,
    grad: impl Fn(f64) -> f64,
) {
    for (&j, &x) in row.indices.iter().zip(row.values) {
        w.update(j as usize, |wj| {
            let wj = wj + coeff * x;
            wj - reg_scale * grad(wj)
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A model of `AtomicU64` bit patterns reached through a shared
    /// reference, shaped like core's `SharedView`: a relaxed load, then
    /// a relaxed store of `f` of what was loaded.
    struct AtomicView<'a>(&'a [AtomicU64]);

    impl ModelAccess for AtomicView<'_> {
        fn get(&self, j: usize) -> f64 {
            f64::from_bits(self.0[j].load(Ordering::Relaxed))
        }

        fn update(&mut self, j: usize, f: impl FnOnce(f64) -> f64) {
            let cur = self.get(j);
            self.0[j].store(f(cur).to_bits(), Ordering::Relaxed);
        }
    }

    /// The single loop `apply_update` was before it matched on the
    /// regularizer once per call, kept as the oracle.
    fn one_loop<M: ModelAccess + ?Sized>(
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

    #[test]
    fn each_regularizer_arm_is_the_single_loop_bit_for_bit() {
        // Under the first coefficient (0.5) coordinates 0 and 6 land on
        // +0.0, 1 on −0.0, 2 and 3 change sign, 4 and 5 keep theirs, and
        // 7 is a subnormal. The second (−0.5) sends 0, 2 and 3 back
        // across zero and 1 to +0.0.
        let subnormal = f64::MIN_POSITIVE / 4.0;
        let w0 = [-0.5, -0.0, 0.25, -0.25, 1.5, -3.0, 0.0, subnormal];
        let indices = [0, 1, 2, 3, 4, 5, 6, 7];
        let values = [1.0, -0.0, -1.0, 1.0, 2.0, 0.75, 0.0, 0.0];
        let row = SparseRow {
            indices: &indices,
            values: &values,
            label: 1.0,
        };
        let mut regs = vec![Regularizer::None];
        for eta in [0.0, 1e-5, 0.1, f64::INFINITY] {
            regs.extend([Regularizer::L1 { eta }, Regularizer::L2 { eta }]);
        }
        let bits = |w: &[f64]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let atomic_bits = |w: &[AtomicU64]| {
            w.iter()
                .map(|x| x.load(Ordering::Relaxed))
                .collect::<Vec<_>>()
        };
        for reg in regs {
            let (mut dense, mut oracle) = (w0, w0);
            let atomic = w0.map(|x| AtomicU64::new(x.to_bits()));
            for coeff in [0.5, -0.5] {
                let (coeff, scale) = (black_box(coeff), black_box(0.5));
                apply_update(reg, &row, coeff, scale, dense.as_mut_slice());
                one_loop(reg, &row, coeff, scale, oracle.as_mut_slice());
                apply_update(reg, &row, coeff, scale, &mut AtomicView(&atomic));
                assert_eq!(bits(&dense), bits(&oracle), "{reg:?} at c = {coeff}");
                assert_eq!(
                    atomic_bits(&atomic),
                    bits(&oracle),
                    "{reg:?} at c = {coeff}"
                );
            }
        }
    }
}
