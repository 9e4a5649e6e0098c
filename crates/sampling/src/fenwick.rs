//! Fenwick-tree (binary indexed tree) weighted sampler.
//!
//! Complements the [alias table](crate::alias): draws cost `O(log n)` but
//! weights can be *updated* in `O(log n)`, which the static alias table
//! cannot do. Used (a) as an independent oracle in differential tests of
//! the alias method, and (b) for the adaptive-importance extension where
//! `p_i ∝ ‖∇f_i(w_t)‖` estimates are refreshed during training (paper
//! Eq. 11 — the "completely impractical" exact scheme becomes practical at
//! small scale, making a useful ablation).

use crate::error::SamplingError;
use crate::rng::Xoshiro256pp;

/// A dynamic weighted sampler over `n` outcomes backed by a Fenwick tree of
/// prefix sums. Equality compares the whole state — weights, tree nodes
/// and cached total; none of them is ever negative or NaN, so equal means
/// bit-equal, which is how tests pin that two update histories left the
/// same tree.
#[derive(Debug, Clone, PartialEq)]
pub struct FenwickSampler {
    /// 1-based Fenwick tree; `tree[0]` unused.
    tree: Vec<f64>,
    /// Current raw weights, for exact reads.
    weights: Vec<f64>,
    /// Cached total mass, maintained incrementally so draws and
    /// probability reads cost one descend, not an extra prefix walk.
    total: f64,
}

impl FenwickSampler {
    /// Builds the sampler from non-negative weights.
    pub fn new(weights: &[f64]) -> Result<Self, SamplingError> {
        if weights.is_empty() {
            return Err(SamplingError::EmptyWeights);
        }
        let mut total = 0.0;
        for (i, &w) in weights.iter().enumerate() {
            if !w.is_finite() || w < 0.0 {
                return Err(SamplingError::InvalidWeight { index: i, value: w });
            }
            total += w;
        }
        if total <= 0.0 {
            return Err(SamplingError::ZeroMass);
        }
        let mut s = Self {
            tree: Vec::new(),
            weights: weights.to_vec(),
            total,
        };
        s.canonicalize();
        Ok(s)
    }

    /// Rebuilds the tree and cached total from the current weights via
    /// the canonical O(n) bulk construction — making the internal
    /// prefix sums a pure function of the weights rather than of the
    /// update history ([`FenwickSampler::update`] maintains them with
    /// incremental delta-adds, whose rounding depends on the sequence
    /// of past updates).
    pub fn canonicalize(&mut self) {
        let n = self.weights.len();
        self.tree.clear();
        self.tree.resize(n + 1, 0.0);
        for i in 1..=n {
            self.tree[i] += self.weights[i - 1];
            let parent = i + (i & i.wrapping_neg());
            if parent <= n {
                let v = self.tree[i];
                self.tree[parent] += v;
            }
        }
        self.total = self.weights.iter().sum();
    }

    /// Number of outcomes.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// True when there are no outcomes (unreachable through `new`).
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Total weight mass.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Current weight of outcome `i`.
    pub fn weight(&self, i: usize) -> f64 {
        self.weights[i]
    }

    /// Sum of weights over `0..=i-1` (`i` outcomes). Production reads go
    /// through the cached total; tests use this as the exact reference.
    #[cfg(test)]
    fn prefix_sum(&self, mut i: usize) -> f64 {
        let mut s = 0.0;
        while i > 0 {
            s += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        s
    }

    /// Sets the weight of outcome `i` to `w` in `O(log n)`.
    pub fn update(&mut self, i: usize, w: f64) -> Result<(), SamplingError> {
        if !w.is_finite() || w < 0.0 {
            return Err(SamplingError::InvalidWeight { index: i, value: w });
        }
        let delta = w - self.weights[i];
        self.weights[i] = w;
        self.total += delta;
        let n = self.len();
        let mut j = i + 1;
        while j <= n {
            self.tree[j] += delta;
            j += j & j.wrapping_neg();
        }
        Ok(())
    }

    /// Replaces the weight of each outcome in `rows` by
    /// `weight(i, current)` and rebuilds the tree once with
    /// [`FenwickSampler::canonicalize`]: `O(n + m)` for `m` rows, and
    /// the result is a pure function of the weights. Adaptive commits
    /// fold through here, so a sampler restored from a checkpoint of
    /// the same weights reproduces the tree — and every future draw —
    /// bit-for-bit. Stops at the first invalid weight; the tree is
    /// rebuilt over what was written either way.
    pub fn reweigh(
        &mut self,
        rows: impl IntoIterator<Item = usize>,
        mut weight: impl FnMut(usize, f64) -> f64,
    ) -> Result<(), SamplingError> {
        let written = rows.into_iter().try_for_each(|i| {
            let w = weight(i, self.weights[i]);
            if !w.is_finite() || w < 0.0 {
                return Err(SamplingError::InvalidWeight { index: i, value: w });
            }
            self.weights[i] = w;
            Ok(())
        });
        self.canonicalize();
        written
    }

    /// Draws one outcome proportionally to current weights.
    ///
    /// Uses the standard Fenwick descend: find the smallest index whose
    /// prefix sum exceeds `u * total`.
    pub fn sample(&self, rng: &mut Xoshiro256pp) -> usize {
        debug_assert!(self.total > 0.0, "sampler mass became zero");
        let mut target = rng.next_f64() * self.total;
        let n = self.len();
        let mut pos = 0usize;
        let mut mask = n.next_power_of_two();
        while mask > 0 {
            let next = pos + mask;
            if next <= n && self.tree[next] < target {
                target -= self.tree[next];
                pos = next;
            }
            mask >>= 1;
        }
        // pos is the count of outcomes whose cumulative mass is below
        // target, i.e. the sampled outcome index; clamp for fp residue.
        pos.min(n - 1)
    }

    /// The normalized probability of outcome `i` under current weights.
    pub fn probability(&self, i: usize) -> f64 {
        self.weights[i] / self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_sums_match_naive() {
        let w = [0.5, 1.5, 0.0, 3.0, 2.0];
        let f = FenwickSampler::new(&w).unwrap();
        let mut acc = 0.0;
        for i in 0..=w.len() {
            assert!((f.prefix_sum(i) - acc).abs() < 1e-12, "prefix {i}");
            if i < w.len() {
                acc += w[i];
            }
        }
    }

    #[test]
    fn total_mass() {
        let f = FenwickSampler::new(&[1.0, 2.0, 3.0]).unwrap();
        assert!((f.total() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn sampling_matches_distribution() {
        let w = [4.0, 1.0, 3.0, 2.0];
        let f = FenwickSampler::new(&w).unwrap();
        let mut rng = Xoshiro256pp::new(17);
        let mut counts = [0usize; 4];
        let draws = 200_000;
        for _ in 0..draws {
            counts[f.sample(&mut rng)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let freq = c as f64 / draws as f64;
            let expect = w[i] / 10.0;
            assert!(
                (freq - expect).abs() < 0.01,
                "outcome {i}: {freq} vs {expect}"
            );
        }
    }

    #[test]
    fn update_changes_distribution() {
        let mut f = FenwickSampler::new(&[1.0, 1.0]).unwrap();
        f.update(0, 0.0).unwrap();
        let mut rng = Xoshiro256pp::new(23);
        for _ in 0..5_000 {
            assert_eq!(f.sample(&mut rng), 1);
        }
        assert_eq!(f.weight(0), 0.0);
        assert!((f.probability(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn update_rejects_bad_weight() {
        let mut f = FenwickSampler::new(&[1.0]).unwrap();
        assert!(f.update(0, -2.0).is_err());
        assert!(f.update(0, f64::INFINITY).is_err());
    }

    #[test]
    fn zero_weight_never_sampled() {
        let f = FenwickSampler::new(&[0.0, 5.0, 0.0]).unwrap();
        let mut rng = Xoshiro256pp::new(31);
        for _ in 0..10_000 {
            assert_eq!(f.sample(&mut rng), 1);
        }
    }

    #[test]
    fn construction_errors() {
        assert!(FenwickSampler::new(&[]).is_err());
        assert!(FenwickSampler::new(&[0.0]).is_err());
        assert!(FenwickSampler::new(&[f64::NAN]).is_err());
    }

    #[test]
    fn cached_total_tracks_updates() {
        let mut f = FenwickSampler::new(&[1.0, 2.0, 3.0]).unwrap();
        for i in 0..3 {
            f.update(i, (i + 2) as f64).unwrap();
        }
        assert!((f.total() - f.prefix_sum(3)).abs() < 1e-12);
        assert!((f.total() - 9.0).abs() < 1e-12);
    }

    #[test]
    fn canonicalize_makes_state_history_independent() {
        // Two samplers reaching the same weights through different
        // update histories accumulate different tree rounding; after
        // canonicalize their internal state is bitwise identical (the
        // checkpoint-restore exactness contract).
        let w = [0.1, 0.7, 1.3, 2.9, 0.05, 4.4, 0.33];
        let mut a = FenwickSampler::new(&w).unwrap();
        for k in 0..100 {
            a.update(2, 0.1 + k as f64 * 0.01).unwrap();
            a.update(5, 7.7 / (k + 1) as f64).unwrap();
        }
        a.update(2, w[2]).unwrap();
        a.update(5, w[5]).unwrap();
        a.canonicalize();
        let b = FenwickSampler::new(&w).unwrap();
        assert_eq!(a, b, "canonical trees must be bitwise equal");
    }

    #[test]
    fn reweigh_equals_a_fresh_build_and_survives_a_bad_write() {
        let mut w = [0.1, 0.7, 1.3, 2.9, 0.05, 4.4, 0.33];
        let mut a = FenwickSampler::new(&w).unwrap();
        a.reweigh([5, 0, 2], |i, old| old * i as f64).unwrap();
        (w[5], w[0], w[2]) = (w[5] * 5.0, 0.0, w[2] * 2.0);
        assert_eq!(a, FenwickSampler::new(&w).unwrap());
        // A bad write is refused; what was written before it is kept
        // and the tree still matches the weights.
        let bad = a.reweigh([1, 3, 4], |i, _| if i == 3 { f64::NAN } else { 9.0 });
        assert!(matches!(
            bad,
            Err(SamplingError::InvalidWeight { index: 3, .. })
        ));
        w[1] = 9.0;
        assert_eq!(a, FenwickSampler::new(&w).unwrap());
    }

    #[test]
    fn non_power_of_two_sizes() {
        for n in [1usize, 2, 3, 5, 7, 13, 100, 257] {
            let w: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            let f = FenwickSampler::new(&w).unwrap();
            let mut rng = Xoshiro256pp::new(n as u64);
            for _ in 0..1000 {
                let s = f.sample(&mut rng);
                assert!(s < n, "n={n} sample={s}");
            }
        }
    }
}
