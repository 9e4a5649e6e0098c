//! Linear interpolation of time-to-target on monotone best curves.
//!
//! The paper's Fig. 5 plots, for each error-rate level, the ratio of the
//! wall-clock needed by two algorithms to first reach it, "values are
//! linearly interpolated when needed". The primitive here does exactly
//! that on the best-so-far curve.

use crate::trace::{best_error_curve, Trace};

/// First time (in the curve's x unit) at which `curve` reaches `target`,
/// linearly interpolating between the bracketing points. `None` when the
/// curve never reaches the target.
///
/// `curve` must be a monotone non-increasing best-so-far sequence, as
/// produced by [`best_error_curve`].
pub fn time_to_target(curve: &[(f64, f64)], target: f64) -> Option<f64> {
    if curve.is_empty() {
        return None;
    }
    // Already below target at the first observation: credit the first x.
    if curve[0].1 <= target {
        return Some(curve[0].0);
    }
    for w in curve.windows(2) {
        let (x0, y0) = w[0];
        let (x1, y1) = w[1];
        if y1 <= target {
            // Interpolate within (x0, x1]; y decreases from y0 to y1.
            if (y0 - y1).abs() < f64::EPSILON {
                return Some(x1);
            }
            let frac = (y0 - target) / (y0 - y1);
            return Some(x0 + frac.clamp(0.0, 1.0) * (x1 - x0));
        }
    }
    None
}

/// Wall-clock seconds for `trace` to first reach `target` error rate.
pub fn time_to_error(trace: &Trace, target: f64) -> Option<f64> {
    time_to_target(&best_error_curve(trace), target)
}

/// Wall-clock seconds for `trace` to first reach `target` objective,
/// using the monotone best-so-far objective curve.
pub fn time_to_objective(trace: &Trace, target: f64) -> Option<f64> {
    let mut best = f64::INFINITY;
    let curve: Vec<(f64, f64)> = trace
        .points
        .iter()
        .map(|p| {
            best = best.min(p.objective);
            (p.wall_secs, best)
        })
        .collect();
    time_to_target(&curve, target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TracePoint;

    fn trace() -> Trace {
        let mut t = Trace::new("A", "d", 1, 0.1);
        for (e, w, err) in [(1.0, 1.0, 0.4), (2.0, 2.0, 0.2), (3.0, 3.0, 0.1)] {
            t.push(TracePoint {
                epoch: e,
                wall_secs: w,
                objective: err * 10.0,
                rmse: err,
                error_rate: err,
            });
        }
        t
    }

    #[test]
    fn exact_hits() {
        let t = trace();
        assert_eq!(time_to_error(&t, 0.4), Some(1.0));
        assert_eq!(time_to_error(&t, 0.2), Some(2.0));
        assert_eq!(time_to_error(&t, 0.1), Some(3.0));
    }

    #[test]
    fn interpolates_between_points() {
        let t = trace();
        // 0.3 is halfway between 0.4 and 0.2 ⇒ time 1.5.
        assert!((time_to_error(&t, 0.3).unwrap() - 1.5).abs() < 1e-12);
        // 0.15 is halfway between 0.2 and 0.1 ⇒ time 2.5.
        assert!((time_to_error(&t, 0.15).unwrap() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn unreachable_target() {
        assert_eq!(time_to_error(&trace(), 0.05), None);
    }

    #[test]
    fn target_above_first_point() {
        assert_eq!(time_to_error(&trace(), 0.9), Some(1.0));
    }

    #[test]
    fn flat_segments_resolve_to_right_edge() {
        let curve = vec![(0.0, 0.5), (1.0, 0.3), (2.0, 0.3), (3.0, 0.1)];
        // Reaching 0.3 happens at x=1 (first crossing).
        assert!((time_to_target(&curve, 0.3).unwrap() - 1.0).abs() < 1e-12);
        // 0.2 needs the segment (2,0.3)→(3,0.1): halfway = 2.5.
        assert!((time_to_target(&curve, 0.2).unwrap() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn objective_interpolation() {
        let t = trace();
        assert!((time_to_objective(&t, 3.0).unwrap() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn empty_curve() {
        assert_eq!(time_to_target(&[], 0.1), None);
    }
}
