//! Epoch evaluation and the train/eval wall-clock split.
//!
//! Evaluation (full objective + error rate) costs as much as a training
//! epoch, so (a) it is parallelized with rayon — it sits *outside* the
//! lock-free hot path — and (b) its time is excluded from the trace's
//! wall-clock, matching the paper's convention of plotting training time.

#![expect(
    clippy::disallowed_methods,
    reason = "the designated timing module: the train/eval wall-clock split is its purpose, and no result depends on a reading"
)]

use isasgd_losses::objective::chunks;
use isasgd_losses::{EvalMetrics, Loss, Objective, PartialEval};
use isasgd_sparse::Dataset;
use rayon::prelude::*;
use std::ops::Range;
use std::time::{Duration, Instant};

/// `f` over every chunk of `0..n` — the one partition of a
/// full-dataset pass, [`chunks`] — in parallel; the results come back
/// in index order, which is the order callers reduce them in.
fn par_chunks<T: Send>(n: usize, f: impl Fn(Range<usize>) -> T + Sync) -> Vec<T> {
    chunks(n)
        .collect::<Vec<_>>()
        .into_par_iter()
        .map(f)
        .collect()
}

/// Parallel full-dataset evaluation; equal to [`Objective::eval`] to
/// the bit.
pub fn evaluate<L: Loss>(ds: &Dataset, obj: &Objective<L>, w: &[f64]) -> EvalMetrics {
    let total = par_chunks(ds.n_samples(), |rows| obj.eval_range(ds, w, rows))
        .into_iter()
        .fold(PartialEval::default(), PartialEval::merge);
    obj.finalize(total, w)
}

/// Parallel full-gradient computation (SVRG's µ), including the dense
/// regularizer gradient.
pub fn full_gradient<L: Loss>(ds: &Dataset, obj: &Objective<L>, w: &[f64], out: &mut Vec<f64>) {
    let n = ds.n_samples();
    let d = w.len();
    out.clear();
    out.resize(d, 0.0);
    let partials = par_chunks(n, |rows| {
        let mut acc = vec![0.0; d];
        obj.partial_gradient_into(ds, w, rows, n, &mut acc);
        acc
    });
    for p in partials {
        for (o, x) in out.iter_mut().zip(p) {
            *o += x;
        }
    }
    obj.add_reg_gradient(w, out);
}

/// Accumulates training wall-clock across start/stop segments, so that
/// evaluation pauses are excluded from the reported time.
#[derive(Debug, Default)]
pub struct TrainTimer {
    accumulated: Duration,
    started: Option<Instant>,
}

impl TrainTimer {
    /// Creates a stopped timer at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts (or restarts) the running segment.
    pub fn start(&mut self) {
        self.started = Some(Instant::now());
    }

    /// Stops the running segment, folding it into the accumulator.
    pub fn stop(&mut self) {
        if let Some(t0) = self.started.take() {
            self.accumulated += t0.elapsed();
        }
    }

    /// Runs `f` on `other`'s clock: this timer pauses around it.
    pub fn pause_for(&mut self, other: &mut TrainTimer, f: &mut dyn FnMut()) {
        self.stop();
        other.start();
        f();
        other.stop();
        self.start();
    }

    /// Total accumulated seconds (excluding a currently running segment).
    pub fn seconds(&self) -> f64 {
        self.accumulated.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isasgd_losses::{LogisticLoss, Regularizer};
    use isasgd_sparse::DatasetBuilder;

    fn ds(n: usize) -> Dataset {
        let mut b = DatasetBuilder::new(8);
        for i in 0..n {
            let f = (i % 8) as u32;
            let y = if i % 2 == 0 { 1.0 } else { -1.0 };
            b.push_row(&[(f, 1.0 + (i % 3) as f64)], y).unwrap();
        }
        b.finish()
    }

    #[test]
    fn parallel_eval_is_the_serial_eval_to_the_bit() {
        // One partition, one reduction order: however many threads this
        // host gives the parallel pass, it is `Objective::eval` — so the
        // engine trace, a coordinator's round points and a holdout line
        // agree on one model's objective. Sizes straddle the one-chunk
        // bound and the 8-partial cap.
        let obj = Objective::new(LogisticLoss, Regularizer::L1 { eta: 0.01 });
        let w: Vec<f64> = (0..8).map(|i| (i as f64 - 4.0) * 0.1).collect();
        for n in [1, 1024, 1025, 2400, 9000] {
            let d = ds(n);
            let (par, ser) = (evaluate(&d, &obj, &w), obj.eval(&d, &w));
            assert_eq!(par.objective.to_bits(), ser.objective.to_bits(), "n = {n}");
            assert_eq!(par.rmse.to_bits(), ser.rmse.to_bits(), "n = {n}");
            assert_eq!(par.error_rate, ser.error_rate, "n = {n}");
        }
    }

    #[test]
    fn parallel_gradient_matches_serial() {
        let d = ds(5000);
        let obj = Objective::new(LogisticLoss, Regularizer::L2 { eta: 0.1 });
        let w: Vec<f64> = (0..8).map(|i| i as f64 * 0.05).collect();
        let mut par = Vec::new();
        full_gradient(&d, &obj, &w, &mut par);
        let mut ser = vec![0.0; 8];
        obj.full_gradient_into(&d, &w, &mut ser);
        for (a, b) in par.iter().zip(&ser) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
        // Bit-equal to the same partition summed serially in index order.
        let mut folded = vec![0.0; 8];
        for rows in chunks(5000) {
            let mut acc = vec![0.0; 8];
            obj.partial_gradient_into(&d, &w, rows, 5000, &mut acc);
            folded.iter_mut().zip(acc).for_each(|(o, x)| *o += x);
        }
        obj.add_reg_gradient(&w, &mut folded);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&par), bits(&folded));
    }

    #[test]
    fn timer_accumulates_segments_only() {
        let mut t = TrainTimer::new();
        assert_eq!(t.seconds(), 0.0);
        t.start();
        std::thread::sleep(Duration::from_millis(5));
        t.stop();
        let first = t.seconds();
        assert!(first >= 0.004);
        // Paused segment does not count.
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(t.seconds(), first);
        t.start();
        std::thread::sleep(Duration::from_millis(5));
        t.stop();
        assert!(t.seconds() >= first + 0.004);
    }

    #[test]
    fn stop_without_start_is_noop() {
        let mut t = TrainTimer::new();
        t.stop();
        assert_eq!(t.seconds(), 0.0);
    }
}
