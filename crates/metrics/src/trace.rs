//! Run traces.

use serde::{Deserialize, Serialize};

/// One evaluation point of a training run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TracePoint {
    /// Epochs completed (fractional points allowed for mid-epoch evals).
    pub epoch: f64,
    /// Training wall-clock seconds, **excluding** evaluation time.
    pub wall_secs: f64,
    /// Objective F(w).
    pub objective: f64,
    /// RMSE as defined in the paper's §4 (see `isasgd-losses`).
    pub rmse: f64,
    /// Misclassification fraction.
    pub error_rate: f64,
}

/// A full training trace with identifying metadata.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// Algorithm name (e.g. "IS-ASGD").
    pub algorithm: String,
    /// Dataset name (e.g. "news20_like").
    pub dataset: String,
    /// Concurrency: thread count or simulated τ.
    pub concurrency: usize,
    /// Step size λ.
    pub step_size: f64,
    /// The evaluation points in epoch order.
    pub points: Vec<TracePoint>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new(algorithm: &str, dataset: &str, concurrency: usize, step_size: f64) -> Self {
        Trace {
            algorithm: algorithm.to_string(),
            dataset: dataset.to_string(),
            concurrency,
            step_size,
            points: Vec::new(),
        }
    }

    /// Appends a point.
    pub fn push(&mut self, p: TracePoint) {
        self.points.push(p);
    }

    /// The last point, if any.
    pub fn last(&self) -> Option<&TracePoint> {
        self.points.last()
    }

    /// Lowest error rate ever reached (the paper's "optimum").
    pub fn best_error(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|p| p.error_rate)
            .min_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
    }

    /// Total training wall-clock of the run.
    pub fn total_wall_secs(&self) -> f64 {
        self.last().map_or(0.0, |p| p.wall_secs)
    }
}

/// The monotone best-so-far error curve `(wall_secs, best_error)` — the
/// paper updates the reported error "once a better result is obtained".
pub fn best_error_curve(trace: &Trace) -> Vec<(f64, f64)> {
    let mut best = f64::INFINITY;
    trace
        .points
        .iter()
        .map(|p| {
            best = best.min(p.error_rate);
            (p.wall_secs, best)
        })
        .collect()
}

/// Monotone best-so-far curve keyed by epoch instead of wall-clock.
pub fn best_error_curve_by_epoch(trace: &Trace) -> Vec<(f64, f64)> {
    let mut best = f64::INFINITY;
    trace
        .points
        .iter()
        .map(|p| {
            best = best.min(p.error_rate);
            (p.epoch, best)
        })
        .collect()
}

/// Pointwise mean of several traces of the same run configuration.
///
/// All metrics — wall-clock, objective, RMSE, error rate — are averaged
/// per evaluation point; metadata is taken from the first trace. This is
/// the laptop-scale stand-in for the self-averaging of very large
/// datasets: the paper's epochs cover 10⁶–10⁷ samples, so its curves are
/// intrinsically smooth, while a scaled-down epoch covers 10⁴–10⁵ and a
/// single run's per-epoch metrics carry visible sampling noise.
///
/// # Panics
/// Panics if `traces` is empty or the traces have different lengths.
pub fn average_traces(traces: &[Trace]) -> Trace {
    assert!(
        !traces.is_empty(),
        "average_traces needs at least one trace"
    );
    let n = traces[0].points.len();
    for t in traces {
        assert_eq!(
            t.points.len(),
            n,
            "all traces must have the same number of points"
        );
    }
    let k = traces.len() as f64;
    let mut out = traces[0].clone();
    for (i, p) in out.points.iter_mut().enumerate() {
        let mut wall = 0.0;
        let mut obj = 0.0;
        let mut rmse = 0.0;
        let mut err = 0.0;
        for t in traces {
            let q = &t.points[i];
            wall += q.wall_secs;
            obj += q.objective;
            rmse += q.rmse;
            err += q.error_rate;
        }
        p.wall_secs = wall / k;
        p.objective = obj / k;
        p.rmse = rmse / k;
        p.error_rate = err / k;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(epoch: f64, wall: f64, err: f64) -> TracePoint {
        TracePoint {
            epoch,
            wall_secs: wall,
            objective: err * 2.0,
            rmse: err + 0.5,
            error_rate: err,
        }
    }

    fn trace() -> Trace {
        let mut t = Trace::new("ASGD", "tiny", 4, 0.5);
        t.push(pt(1.0, 0.1, 0.30));
        t.push(pt(2.0, 0.2, 0.10));
        t.push(pt(3.0, 0.3, 0.15)); // regression — noisy eval
        t.push(pt(4.0, 0.4, 0.05));
        t
    }

    #[test]
    fn best_metrics() {
        let t = trace();
        assert_eq!(t.best_error(), Some(0.05));
        assert_eq!(t.total_wall_secs(), 0.4);
        assert_eq!(t.last().unwrap().epoch, 4.0);
    }

    #[test]
    fn best_curve_is_monotone() {
        let c = best_error_curve(&trace());
        assert_eq!(c.len(), 4);
        assert_eq!(c[1].1, 0.10);
        assert_eq!(c[2].1, 0.10, "regressions must not raise the best curve");
        assert_eq!(c[3].1, 0.05);
        for w in c.windows(2) {
            assert!(w[1].1 <= w[0].1);
        }
    }

    #[test]
    fn epoch_curve_uses_epochs() {
        let c = best_error_curve_by_epoch(&trace());
        assert_eq!(c[0].0, 1.0);
        assert_eq!(c[3].0, 4.0);
    }

    #[test]
    fn empty_trace() {
        let t = Trace::new("SGD", "x", 1, 0.1);
        assert_eq!(t.best_error(), None);
        assert_eq!(t.total_wall_secs(), 0.0);
        assert!(best_error_curve(&t).is_empty());
    }

    #[test]
    fn serde_roundtrip() {
        let t = trace();
        let json = serde_json::to_string(&t).unwrap();
        let back: Trace = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn average_of_identical_traces_is_identity() {
        let t = trace();
        let avg = average_traces(&[t.clone(), t.clone(), t.clone()]);
        assert_eq!(avg.points.len(), t.points.len());
        for (a, b) in avg.points.iter().zip(&t.points) {
            // Up to summation rounding: (x+x+x)/3 ≠ x exactly in floats.
            assert!((a.wall_secs - b.wall_secs).abs() < 1e-12);
            assert!((a.objective - b.objective).abs() < 1e-12);
            assert!((a.rmse - b.rmse).abs() < 1e-12);
            assert!((a.error_rate - b.error_rate).abs() < 1e-12);
            assert_eq!(a.epoch, b.epoch);
        }
        assert_eq!(avg.algorithm, t.algorithm);
    }

    #[test]
    fn average_is_pointwise_mean() {
        let a = trace();
        let mut b = trace();
        for p in b.points.iter_mut() {
            p.error_rate += 0.02;
            p.rmse += 0.1;
            p.wall_secs *= 3.0;
        }
        let avg = average_traces(&[a.clone(), b]);
        for (i, p) in avg.points.iter().enumerate() {
            let q = &a.points[i];
            assert!((p.error_rate - (q.error_rate + 0.01)).abs() < 1e-12);
            assert!((p.rmse - (q.rmse + 0.05)).abs() < 1e-12);
            assert!((p.wall_secs - 2.0 * q.wall_secs).abs() < 1e-12);
            assert_eq!(p.epoch, q.epoch, "epoch axis must be preserved");
        }
        assert_eq!(avg.algorithm, "ASGD");
    }

    #[test]
    #[should_panic(expected = "same number of points")]
    fn average_rejects_mismatched_lengths() {
        let a = trace();
        let mut b = trace();
        b.points.pop();
        let _ = average_traces(&[a, b]);
    }

    #[test]
    #[should_panic(expected = "at least one trace")]
    fn average_rejects_empty_input() {
        let _ = average_traces(&[]);
    }
}
