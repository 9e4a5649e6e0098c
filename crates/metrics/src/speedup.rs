//! Speedup curves and summaries (paper Fig. 5 and §4.2).

use crate::interpolate::{time_to_error, time_to_target};
use crate::trace::Trace;
use serde::{Deserialize, Serialize};

/// `a / b` where both are known and `b` is positive: the speedup of the
/// run that took `b` over the run that took `a`, `None` where either
/// never got there.
pub fn ratio(a: Option<f64>, b: Option<f64>) -> Option<f64> {
    match (a, b) {
        (Some(a), Some(b)) if b > 0.0 => Some(a / b),
        _ => None,
    }
}

/// Speedup of `fast` over `base` at a grid of error-rate targets:
/// `speedup(e) = time_base(e) / time_fast(e)`. `None` where either trace
/// never reaches the target.
pub fn speedup_curve(base: &Trace, fast: &Trace, targets: &[f64]) -> Vec<(f64, Option<f64>)> {
    targets
        .iter()
        .map(|&e| (e, ratio(time_to_error(base, e), time_to_error(fast, e))))
        .collect()
}

/// Monotone best-objective curve keyed by epoch.
pub fn objective_curve(t: &Trace) -> Vec<(f64, f64)> {
    let mut best = f64::INFINITY;
    t.points
        .iter()
        .map(|p| {
            best = best.min(p.objective);
            (p.epoch, best)
        })
        .collect()
}

/// Epoch-speedup of `fast` over `slow` at a fraction `frac` of `slow`'s
/// own objective decrease (robust common target).
pub fn epoch_speedup(slow: &Trace, fast: &Trace, frac: f64) -> Option<f64> {
    let cs = objective_curve(slow);
    let cf = objective_curve(fast);
    let start = cs.first()?.1;
    let end = cs.last()?.1;
    let target = end + (start - end) * (1.0 - frac);
    ratio(time_to_target(&cs, target), time_to_target(&cf, target))
}

/// Aggregate speedup statistics, the numbers quoted in the paper's §4.2
/// ("the average speedups ... range from 1.26 to 1.97 while the optimum
/// speedups range from 1.13 to 1.54").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpeedupSummary {
    /// Mean speedup over all reachable targets.
    pub average: f64,
    /// Speedup at the base algorithm's best (optimum) error rate.
    pub at_optimum: Option<f64>,
    /// Max speedup over the grid.
    pub max: f64,
    /// Min speedup over the grid.
    pub min: f64,
    /// Number of targets both algorithms reached.
    pub reachable_targets: usize,
}

impl SpeedupSummary {
    /// Computes the summary of `fast` over `base` using `n_targets`
    /// error-rate levels spaced between the base optimum and the first
    /// observed error.
    pub fn compute(base: &Trace, fast: &Trace, n_targets: usize) -> Option<SpeedupSummary> {
        let best = base.best_error()?;
        let first = base.points.first()?.error_rate;
        if !(best.is_finite() && first.is_finite()) || n_targets == 0 {
            return None;
        }
        let hi = first.max(best);
        let targets: Vec<f64> = (0..n_targets)
            .map(|i| {
                // Dense near the optimum, like the paper's slice plots.
                let frac = (i + 1) as f64 / n_targets as f64;
                best + (hi - best) * frac * frac
            })
            .collect();
        let curve = speedup_curve(base, fast, &targets);
        let vals: Vec<f64> = curve.iter().filter_map(|&(_, s)| s).collect();
        if vals.is_empty() {
            return None;
        }
        let at_optimum = match (time_to_error(base, best), time_to_error(fast, best)) {
            (Some(tb), Some(tf)) if tf > 0.0 => Some(tb / tf),
            _ => None,
        };
        Some(SpeedupSummary {
            average: vals.iter().sum::<f64>() / vals.len() as f64,
            at_optimum,
            max: vals.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            min: vals.iter().copied().fold(f64::INFINITY, f64::min),
            reachable_targets: vals.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TracePoint;

    fn mk(algorithm: &str, pts: &[(f64, f64)]) -> Trace {
        let mut t = Trace::new(algorithm, "d", 1, 0.1);
        for (i, &(w, e)) in pts.iter().enumerate() {
            t.push(TracePoint {
                epoch: (i + 1) as f64,
                wall_secs: w,
                objective: e,
                rmse: e,
                error_rate: e,
            });
        }
        t
    }

    #[test]
    fn twice_as_fast_gives_speedup_two() {
        let base = mk("slow", &[(2.0, 0.4), (4.0, 0.2), (6.0, 0.1)]);
        let fast = mk("fast", &[(1.0, 0.4), (2.0, 0.2), (3.0, 0.1)]);
        let curve = speedup_curve(&base, &fast, &[0.4, 0.2, 0.1]);
        for &(_, s) in &curve {
            assert!((s.unwrap() - 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn unreachable_targets_are_none() {
        let base = mk("slow", &[(1.0, 0.4), (2.0, 0.3)]);
        let fast = mk("fast", &[(1.0, 0.4), (2.0, 0.1)]);
        let curve = speedup_curve(&base, &fast, &[0.2]);
        assert_eq!(curve[0].1, None, "base never reaches 0.2");
    }

    #[test]
    fn epoch_speedup_compares_epochs_to_a_share_of_the_slow_decrease() {
        // `mk` numbers epochs 1, 2, … and reuses the error as the
        // objective. Slow falls 1.0 → 0.2; half of that decrease is the
        // target 0.6, reached at epoch 3 by slow and epoch 2 by fast.
        let slow = mk("slow", &[(0.0, 1.0), (0.0, 0.8), (0.0, 0.6), (0.0, 0.2)]);
        let fast = mk("fast", &[(0.0, 1.0), (0.0, 0.6), (0.0, 0.7), (0.0, 0.1)]);
        assert!((epoch_speedup(&slow, &fast, 0.5).unwrap() - 1.5).abs() < 1e-9);
        // The curve is best-so-far: fast's bounce back up to 0.7 is flat.
        assert_eq!(objective_curve(&fast)[2], (3.0, 0.6));
        // A target the fast trace never reaches, and an empty trace.
        let stalled = mk("stalled", &[(0.0, 1.0), (0.0, 0.9)]);
        assert_eq!(epoch_speedup(&slow, &stalled, 0.5), None);
        assert_eq!(
            epoch_speedup(&Trace::new("a", "d", 1, 0.1), &fast, 0.5),
            None
        );
    }

    #[test]
    fn summary_statistics() {
        let base = mk("slow", &[(2.0, 0.4), (4.0, 0.2), (8.0, 0.1)]);
        let fast = mk("fast", &[(1.0, 0.4), (2.0, 0.2), (4.0, 0.1)]);
        let s = SpeedupSummary::compute(&base, &fast, 10).unwrap();
        assert!(s.average > 1.5 && s.average < 2.5, "avg {}", s.average);
        assert!((s.at_optimum.unwrap() - 2.0).abs() < 1e-9);
        assert!(s.reachable_targets > 0);
        assert!(s.min <= s.average && s.average <= s.max);
    }

    #[test]
    fn summary_none_for_empty_traces() {
        let empty = Trace::new("a", "d", 1, 0.1);
        let fast = mk("fast", &[(1.0, 0.4)]);
        assert!(SpeedupSummary::compute(&empty, &fast, 5).is_none());
    }
}
