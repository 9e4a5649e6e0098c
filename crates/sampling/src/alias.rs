//! Walker/Vose alias method for O(1) weighted sampling.
//!
//! Importance sampling draws every training index from the static
//! distribution `p_i = L_i / Σ L_j` (paper Eq. 12). With the alias method a
//! draw costs one uniform variate, one table lookup and one comparison —
//! indistinguishable from uniform sampling in the training loop, which is
//! exactly the "no extra on-line computation" property §1.3 relies on.

use crate::error::SamplingError;
use crate::rng::Xoshiro256pp;

/// A pre-built alias table over `n` outcomes.
#[derive(Debug, Clone)]
pub struct AliasTable {
    /// Acceptance probability for each slot (scaled to [0,1]).
    prob: Vec<f64>,
    /// Alias outcome used when the acceptance test fails.
    alias: Vec<u32>,
}

impl AliasTable {
    /// Builds the table from non-negative weights (need not be normalized).
    ///
    /// Vose's stable construction: `O(n)` time and memory, numerically
    /// robust against the classic large/small drift by re-checking the
    /// residual bucket sign.
    pub fn new(weights: &[f64]) -> Result<Self, SamplingError> {
        let p = crate::normalize_weights(weights)?;
        let n = p.len();
        let mut prob = vec![0.0; n];
        let mut alias = vec![0u32; n];
        // Scaled probabilities: mean 1.
        let mut scaled: Vec<f64> = p.iter().map(|&x| x * n as f64).collect();
        let mut small: Vec<u32> = Vec::with_capacity(n);
        let mut large: Vec<u32> = Vec::with_capacity(n);
        for (i, &s) in scaled.iter().enumerate() {
            if s < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            // Slot s accepts with probability scaled[s], otherwise yields l.
            prob[s as usize] = scaled[s as usize];
            alias[s as usize] = l;
            scaled[l as usize] = (scaled[l as usize] + scaled[s as usize]) - 1.0;
            if scaled[l as usize] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        // Whatever remains has scaled ≈ 1 (floating point residue).
        for &i in small.iter().chain(large.iter()) {
            prob[i as usize] = 1.0;
            alias[i as usize] = i;
        }
        Ok(Self { prob, alias })
    }

    /// Number of outcomes.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// True when the table is over zero outcomes (cannot happen through
    /// [`AliasTable::new`], kept for API completeness).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Draws one outcome.
    #[inline]
    pub fn sample(&self, rng: &mut Xoshiro256pp) -> usize {
        let n = self.len();
        let slot = rng.next_index(n);
        if rng.next_f64() < self.prob[slot] {
            slot
        } else {
            self.alias[slot] as usize
        }
    }

    /// Fills `out` with draws.
    pub fn sample_into(&self, rng: &mut Xoshiro256pp, out: &mut [u32]) {
        for o in out {
            *o = self.sample(rng) as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn histogram(table: &AliasTable, draws: usize, seed: u64) -> Vec<f64> {
        let mut rng = Xoshiro256pp::new(seed);
        let mut counts = vec![0usize; table.len()];
        for _ in 0..draws {
            counts[table.sample(&mut rng)] += 1;
        }
        counts.iter().map(|&c| c as f64 / draws as f64).collect()
    }

    #[test]
    fn uniform_weights_sample_uniformly() {
        let t = AliasTable::new(&[1.0; 8]).unwrap();
        let h = histogram(&t, 80_000, 1);
        for &f in &h {
            assert!((f - 0.125).abs() < 0.01, "freq {f}");
        }
    }

    #[test]
    fn skewed_weights_match_distribution() {
        let w = [1.0, 2.0, 3.0, 4.0];
        let t = AliasTable::new(&w).unwrap();
        let h = histogram(&t, 200_000, 2);
        for (i, &f) in h.iter().enumerate() {
            let expect = w[i] / 10.0;
            assert!((f - expect).abs() < 0.01, "outcome {i}: {f} vs {expect}");
        }
    }

    #[test]
    fn zero_weight_outcomes_never_drawn() {
        let t = AliasTable::new(&[0.0, 1.0, 0.0, 1.0]).unwrap();
        let mut rng = Xoshiro256pp::new(3);
        for _ in 0..10_000 {
            let s = t.sample(&mut rng);
            assert!(s == 1 || s == 3);
        }
    }

    #[test]
    fn single_outcome() {
        let t = AliasTable::new(&[5.0]).unwrap();
        let mut rng = Xoshiro256pp::new(4);
        assert_eq!(t.sample(&mut rng), 0);
    }

    #[test]
    fn extreme_skew() {
        let mut w = vec![1e-12; 100];
        w[37] = 1.0;
        let t = AliasTable::new(&w).unwrap();
        let mut rng = Xoshiro256pp::new(5);
        let hits = (0..10_000).filter(|_| t.sample(&mut rng) == 37).count();
        assert!(hits > 9_900, "hits {hits}");
    }

    #[test]
    fn rejects_invalid_weights() {
        assert!(AliasTable::new(&[]).is_err());
        assert!(AliasTable::new(&[-1.0]).is_err());
        assert!(AliasTable::new(&[0.0]).is_err());
    }

    #[test]
    fn sample_into_fills() {
        let t = AliasTable::new(&[1.0, 1.0]).unwrap();
        let mut rng = Xoshiro256pp::new(6);
        let mut buf = [9u32; 64];
        t.sample_into(&mut rng, &mut buf);
        assert!(buf.iter().all(|&b| b < 2));
    }
}
