//! Dense-vector helpers shared by the solvers.
//!
//! These exist so the *dense* code paths (SVRG's full gradient µ, model
//! snapshots) are implemented once and benchmarked against the
//! index-compressed paths in the Figure-1 experiment.

/// `y += alpha * x` over full dense vectors — the `O(d)` operation that
/// dominates SVRG-ASGD's per-iteration cost on sparse data (paper §1.2).
///
/// Unrolled 4-wide. Unlike a dot product, every coordinate update is
/// independent, so the unrolling is **bit-identical** to the scalar
/// loop — there is no reduction order to perturb.
#[inline]
pub fn dense_axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "dense_axpy length mismatch");
    let chunks = x.len() - x.len() % 4;
    let mut i = 0;
    while i < chunks {
        y[i] += alpha * x[i];
        y[i + 1] += alpha * x[i + 1];
        y[i + 2] += alpha * x[i + 2];
        y[i + 3] += alpha * x[i + 3];
        i += 4;
    }
    for j in chunks..x.len() {
        y[j] += alpha * x[j];
    }
}

/// Dense dot product.
#[inline]
pub fn dense_dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dense_dot length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean distance between two dense vectors.
#[inline]
pub fn dense_dist(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dense_dist length mismatch");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axpy_and_dot() {
        let x = [1.0, 2.0, 3.0];
        let mut y = [1.0, 1.0, 1.0];
        dense_axpy(2.0, &x, &mut y);
        assert_eq!(y, [3.0, 5.0, 7.0]);
        assert_eq!(dense_dot(&x, &y), 3.0 + 10.0 + 21.0);
    }

    #[test]
    fn distance() {
        assert_eq!(dense_dist(&[3.0, 4.0], &[0.0, 0.0]), 5.0);
    }

    #[test]
    fn axpy_unroll_is_bit_identical_across_lengths() {
        // Chunked and scalar paths must agree exactly for every tail
        // length (coordinate updates are independent of each other).
        for d in 0..13usize {
            let x: Vec<f64> = (0..d).map(|i| (i as f64 * 0.73).cos() * 3.1).collect();
            let mut fast = vec![0.25; d];
            let mut strict = vec![0.25; d];
            dense_axpy(-1.7, &x, &mut fast);
            for (yi, &xi) in strict.iter_mut().zip(&x) {
                *yi += -1.7 * xi;
            }
            for (a, b) in fast.iter().zip(&strict) {
                assert_eq!(a.to_bits(), b.to_bits(), "d={d}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let mut y = [0.0];
        dense_axpy(1.0, &[1.0, 2.0], &mut y);
    }
}
