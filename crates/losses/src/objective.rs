//! The full ERM objective `F(w) = (1/n) Σ f_i(w)` (paper Eq. 2).

use crate::kernel;
use crate::loss::Loss;
use crate::regularizer::Regularizer;
use isasgd_sparse::{Dataset, SparseRow};
use std::ops::Range;

/// Most partial results one full-dataset pass is cut into. A parallel
/// full gradient holds a dense `d`-vector per partial, so the count is
/// bounded, not the chunk length.
const MAX_PARTIALS: usize = 8;

/// The row ranges every full-dataset pass is cut into and reduced over
/// in index order — [`Objective::eval`] serially, `isasgd-core`'s
/// `evaluate` and `full_gradient` in parallel: a function of `n` alone,
/// never of the host or the caller. Float addition is not associative,
/// so two partitions of one dataset give one model two objectives (and
/// SVRG two µ's); with one, every runtime prints the same number for
/// the same model. `n ≤ 1024` stays one chunk.
pub fn chunks(n: usize) -> impl Iterator<Item = Range<usize>> {
    let len = n.div_ceil(MAX_PARTIALS).max(1024);
    (0..n)
        .step_by(len)
        .map(move |start| start..(start + len).min(n))
}

/// Evaluation metrics reported per epoch, matching the paper's §4 metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalMetrics {
    /// Mean objective `F(w)` including regularization.
    pub objective: f64,
    /// Root-mean-square of per-sample objective values
    /// ("RMSE, objective value as the error", §4).
    pub rmse: f64,
    /// Misclassification fraction.
    pub error_rate: f64,
}

/// Partial sums from evaluating a sub-range of the dataset; mergeable so
/// evaluation parallelizes over shards.
#[derive(Debug, Clone, Copy, Default)]
pub struct PartialEval {
    /// Σ φ_i over the range.
    pub loss_sum: f64,
    /// Σ φ_i² over the range (for RMSE; the regularizer is added at
    /// finalize time because it is a per-model constant).
    pub loss_sq_sum: f64,
    /// Misclassified count.
    pub errors: usize,
    /// Samples visited.
    pub count: usize,
}

impl PartialEval {
    /// Merges two partials (associative, commutative).
    pub fn merge(self, other: PartialEval) -> PartialEval {
        PartialEval {
            loss_sum: self.loss_sum + other.loss_sum,
            loss_sq_sum: self.loss_sq_sum + other.loss_sq_sum,
            errors: self.errors + other.errors,
            count: self.count + other.count,
        }
    }
}

/// A margin loss bundled with a regularizer: the trainable objective.
#[derive(Debug, Clone, Copy)]
pub struct Objective<L: Loss> {
    /// The scalar margin loss.
    pub loss: L,
    /// The regularization term.
    pub reg: Regularizer,
}

impl<L: Loss> Objective<L> {
    /// Bundles a loss and regularizer.
    pub fn new(loss: L, reg: Regularizer) -> Self {
        Self { loss, reg }
    }

    /// Margin `m_i = y_i · wᵀx_i` against a dense model
    /// ([`kernel::margin`]).
    #[inline]
    pub fn margin(&self, row: &SparseRow<'_>, w: &[f64]) -> f64 {
        kernel::margin(row, w)
    }

    /// The scalar `g` such that `∇φ_i(w) = g · x_i`, given the margin.
    #[inline]
    pub fn grad_scale(&self, row: &SparseRow<'_>, margin: f64) -> f64 {
        self.loss.derivative(margin) * row.label
    }

    /// Applies one (IS-corrected) SGD update to a dense model in place
    /// ([`kernel::apply_update`]).
    #[inline]
    pub fn apply_sgd_update(&self, row: &SparseRow<'_>, coeff: f64, reg_scale: f64, w: &mut [f64]) {
        kernel::apply_update(self.reg, row, coeff, reg_scale, w);
    }

    /// Evaluates a contiguous row range; combine with
    /// [`PartialEval::merge`] and finish with [`Objective::finalize`].
    pub fn eval_range(&self, ds: &Dataset, w: &[f64], range: Range<usize>) -> PartialEval {
        let mut p = PartialEval::default();
        for i in range {
            let row = ds.row(i);
            let m = self.margin(&row, w);
            let v = self.loss.value(m);
            p.loss_sum += v;
            p.loss_sq_sum += v * v;
            // Prediction is sign(wᵀx) with ties resolved to +1 (the usual
            // convention; makes the zero model's error the negative-class
            // fraction instead of 1.0).
            let correct = m > 0.0 || (m == 0.0 && row.label > 0.0);
            if !correct {
                p.errors += 1;
            }
            p.count += 1;
        }
        p
    }

    /// Converts merged partials plus the model into final metrics.
    ///
    /// Per the paper's Eq. 1, `f_i(w) = φ_i(w) + η·r(w)`; the regularizer
    /// is a model-level constant so it shifts every per-sample error
    /// equally: `RMSE² = mean((φ_i + ηr)²)`.
    pub fn finalize(&self, p: PartialEval, w: &[f64]) -> EvalMetrics {
        let n = p.count.max(1) as f64;
        let r = self.reg.value(w);
        let objective = p.loss_sum / n + r;
        // mean((φ+r)²) = mean(φ²) + 2r·mean(φ) + r²
        let mean_sq = p.loss_sq_sum / n + 2.0 * r * (p.loss_sum / n) + r * r;
        EvalMetrics {
            objective,
            rmse: mean_sq.max(0.0).sqrt(),
            error_rate: p.errors as f64 / n,
        }
    }

    /// Full single-threaded evaluation: [`Objective::eval_range`] folded
    /// over [`chunks`] in index order, so it agrees to the bit with any
    /// parallel pass over the same partition.
    pub fn eval(&self, ds: &Dataset, w: &[f64]) -> EvalMetrics {
        let total = chunks(ds.n_samples())
            .map(|rows| self.eval_range(ds, w, rows))
            .fold(PartialEval::default(), PartialEval::merge);
        self.finalize(total, w)
    }

    /// Accumulates the *full* dense gradient `∇F(w)` into `out`
    /// (overwritten). This is the SVRG `µ` computation — intentionally
    /// `O(n·nnz + d)` and dense, as in paper Algorithm 1 line 6.
    pub fn full_gradient_into(&self, ds: &Dataset, w: &[f64], out: &mut [f64]) {
        assert_eq!(out.len(), w.len(), "gradient buffer dimension mismatch");
        out.fill(0.0);
        self.partial_gradient_into(ds, w, 0..ds.n_samples(), ds.n_samples(), out);
        self.add_reg_gradient(w, out);
    }

    /// Adds the dense regularizer gradient `η·r'(w)` to `out` — the
    /// exact `O(d)` tail of a full gradient (SVRG's `µ`), as opposed to
    /// the lazy on-support form the step kernel applies.
    pub fn add_reg_gradient(&self, w: &[f64], out: &mut [f64]) {
        for (o, &wj) in out.iter_mut().zip(w) {
            *o += self.reg.grad_coord(wj);
        }
    }

    /// Gradient of a sub-range accumulated into `out` (not zeroed), scaled
    /// by `1/n_total`. Lets callers parallelize `µ` over shards.
    pub fn partial_gradient_into(
        &self,
        ds: &Dataset,
        w: &[f64],
        range: Range<usize>,
        n_total: usize,
        out: &mut [f64],
    ) {
        let n = n_total.max(1) as f64;
        for i in range {
            let row = ds.row(i);
            let m = self.margin(&row, w);
            let g = self.grad_scale(&row, m) / n;
            row.axpy_into(g, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::{LogisticLoss, SquaredLoss};
    use isasgd_sparse::DatasetBuilder;

    fn ds() -> Dataset {
        let mut b = DatasetBuilder::new(3);
        b.push_row(&[(0, 1.0), (1, 1.0)], 1.0).unwrap();
        b.push_row(&[(1, 2.0)], -1.0).unwrap();
        b.push_row(&[(2, 1.0)], 1.0).unwrap();
        b.finish()
    }

    #[test]
    fn margin_and_grad_scale() {
        let obj = Objective::new(LogisticLoss, Regularizer::None);
        let w = [0.5, -1.0, 2.0];
        let d = ds();
        let r0 = d.row(0);
        assert!((obj.margin(&r0, &w) - (-0.5)).abs() < 1e-12);
        let r1 = d.row(1);
        assert!((obj.margin(&r1, &w) - 2.0).abs() < 1e-12);
        // grad scale = ℓ'(m)·y
        let m = obj.margin(&r1, &w);
        assert!((obj.grad_scale(&r1, m) + LogisticLoss.derivative(m)).abs() < 1e-15);
    }

    #[test]
    fn eval_counts_errors() {
        let obj = Objective::new(LogisticLoss, Regularizer::None);
        let w = [0.5, -1.0, 2.0];
        // margins: -0.5 (wrong), 2.0 (right), 2.0 (right)
        let m = obj.eval(&ds(), &w);
        assert!((m.error_rate - 1.0 / 3.0).abs() < 1e-12);
        assert!(m.objective > 0.0);
        assert!(m.rmse > 0.0);
    }

    #[test]
    fn the_partition_is_a_function_of_n_alone() {
        assert_eq!(chunks(0).count(), 0);
        assert_eq!(
            chunks(1024).map(|c| (c.start, c.end)).collect::<Vec<_>>(),
            [(0, 1024)]
        );
        assert_eq!(chunks(1025).collect::<Vec<_>>(), [0..1024, 1024..1025]);
        for n in [1, 5000, 8192, 8193, 1_000_003] {
            let parts: Vec<_> = chunks(n).collect();
            assert!(
                parts.len() <= MAX_PARTIALS,
                "n = {n}: {} partials",
                parts.len()
            );
            assert_eq!(parts[0].start, 0);
            assert_eq!(parts[parts.len() - 1].end, n);
            assert!(parts.windows(2).all(|p| p[0].end == p[1].start), "n = {n}");
        }
    }

    #[test]
    fn eval_is_eval_range_folded_over_the_partition() {
        // Sizes straddle the one-chunk bound and the 8-partial cap; past
        // 1024 rows one range over everything sums in another order.
        let obj = Objective::new(LogisticLoss, Regularizer::L1 { eta: 0.01 });
        let w = [0.4, -0.3, 0.2];
        for n in [1, 1024, 1025, 2400, 9000] {
            let mut b = DatasetBuilder::new(3);
            for i in 0..n {
                let y = if i % 2 == 0 { 1.0 } else { -1.0 };
                b.push_row(&[((i % 3) as u32, 1.0 + (i % 7) as f64 * 0.37)], y)
                    .unwrap();
            }
            let d = b.finish();
            let folded = chunks(n)
                .map(|rows| obj.eval_range(&d, &w, rows))
                .fold(PartialEval::default(), PartialEval::merge);
            let (got, want) = (obj.eval(&d, &w), obj.finalize(folded, &w));
            assert_eq!(got.objective.to_bits(), want.objective.to_bits(), "n = {n}");
            assert_eq!(got.rmse.to_bits(), want.rmse.to_bits(), "n = {n}");
            assert_eq!(got.error_rate, want.error_rate, "n = {n}");
        }
    }

    #[test]
    fn eval_range_merge_equals_full() {
        let obj = Objective::new(LogisticLoss, Regularizer::L1 { eta: 0.01 });
        let w = [0.1, 0.2, -0.3];
        let d = ds();
        let full = obj.eval(&d, &w);
        let a = obj.eval_range(&d, &w, 0..1);
        let b = obj.eval_range(&d, &w, 1..3);
        let merged = obj.finalize(a.merge(b), &w);
        assert!((full.objective - merged.objective).abs() < 1e-12);
        assert!((full.rmse - merged.rmse).abs() < 1e-12);
        assert_eq!(full.error_rate, merged.error_rate);
    }

    #[test]
    fn regularizer_shifts_objective() {
        let plain = Objective::new(LogisticLoss, Regularizer::None);
        let reg = Objective::new(LogisticLoss, Regularizer::L1 { eta: 0.5 });
        let w = [1.0, -1.0, 0.0];
        let d = ds();
        let mo = plain.eval(&d, &w);
        let mr = reg.eval(&d, &w);
        assert!((mr.objective - (mo.objective + 1.0)).abs() < 1e-12);
        assert!(mr.rmse > mo.rmse);
    }

    #[test]
    fn full_gradient_matches_finite_difference() {
        let obj = Objective::new(LogisticLoss, Regularizer::L2 { eta: 0.1 });
        let d = ds();
        let w = [0.3, -0.2, 0.7];
        let mut g = vec![0.0; 3];
        obj.full_gradient_into(&d, &w, &mut g);
        let h = 1e-6;
        for j in 0..3 {
            let mut wp = w;
            wp[j] += h;
            let mut wm = w;
            wm[j] -= h;
            let fd = (obj.eval(&d, &wp).objective - obj.eval(&d, &wm).objective) / (2.0 * h);
            assert!((g[j] - fd).abs() < 1e-5, "coord {j}: {} vs {fd}", g[j]);
        }
    }

    #[test]
    fn partial_gradients_sum_to_full() {
        let obj = Objective::new(SquaredLoss, Regularizer::None);
        let d = ds();
        let w = [0.3, -0.2, 0.7];
        let mut full = vec![0.0; 3];
        obj.full_gradient_into(&d, &w, &mut full);
        let mut parts = vec![0.0; 3];
        obj.partial_gradient_into(&d, &w, 0..2, d.n_samples(), &mut parts);
        obj.partial_gradient_into(&d, &w, 2..3, d.n_samples(), &mut parts);
        for j in 0..3 {
            assert!((full[j] - parts[j]).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_range_eval_is_neutral() {
        let obj = Objective::new(LogisticLoss, Regularizer::None);
        let d = ds();
        let p = obj.eval_range(&d, &[0.0; 3], 0..0);
        assert_eq!(p.count, 0);
        let merged = p.merge(obj.eval_range(&d, &[0.0; 3], 0..3));
        assert_eq!(merged.count, 3);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn gradient_buffer_mismatch_panics() {
        let obj = Objective::new(LogisticLoss, Regularizer::None);
        let mut g = vec![0.0; 2];
        obj.full_gradient_into(&ds(), &[0.0; 3], &mut g);
    }
}
