//! Epoch evaluation and the train/eval wall-clock split.
//!
//! Evaluation (full objective + error rate) costs as much as a training
//! epoch, so (a) it is parallelized with rayon — it sits *outside* the
//! lock-free hot path — and (b) its time is excluded from the trace's
//! wall-clock, matching the paper's convention of plotting training time.

use isasgd_losses::{EvalMetrics, Loss, Objective, PartialEval};
use isasgd_sparse::Dataset;
use rayon::prelude::*;
use std::time::{Duration, Instant};

/// Parallel full-dataset evaluation.
pub fn evaluate<L: Loss>(ds: &Dataset, obj: &Objective<L>, w: &[f64]) -> EvalMetrics {
    let n = ds.n_samples();
    let chunk = (n / rayon::current_num_threads().max(1)).max(1024);
    let partial = (0..n)
        .into_par_iter()
        .step_by(chunk)
        .map(|start| obj.eval_range(ds, w, start..(start + chunk).min(n)))
        .reduce(PartialEval::default, PartialEval::merge);
    obj.finalize(partial, w)
}

/// Parallel full-gradient computation (SVRG's µ), including the dense
/// regularizer gradient.
pub fn full_gradient<L: Loss>(ds: &Dataset, obj: &Objective<L>, w: &[f64], out: &mut Vec<f64>) {
    let n = ds.n_samples();
    let d = w.len();
    out.clear();
    out.resize(d, 0.0);
    let threads = rayon::current_num_threads().max(1);
    let chunk = (n / threads).max(1024);
    let partials: Vec<Vec<f64>> = (0..n)
        .into_par_iter()
        .step_by(chunk)
        .map(|start| {
            let mut acc = vec![0.0; d];
            obj.partial_gradient_into(ds, w, start..(start + chunk).min(n), n, &mut acc);
            acc
        })
        .collect();
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
    fn parallel_eval_matches_serial() {
        let d = ds(5000);
        let obj = Objective::new(LogisticLoss, Regularizer::L1 { eta: 0.01 });
        let w: Vec<f64> = (0..8).map(|i| (i as f64 - 4.0) * 0.1).collect();
        let par = evaluate(&d, &obj, &w);
        let ser = obj.eval(&d, &w);
        assert!((par.objective - ser.objective).abs() < 1e-10);
        assert!((par.rmse - ser.rmse).abs() < 1e-10);
        assert_eq!(par.error_rate, ser.error_rate);
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
