//! Pre-generated sample sequences (paper Algorithm 2, line 3).
//!
//! IS-SGD/IS-ASGD generate the weighted index sequence *before* training so
//! the hot loop is a plain array walk — identical to ASGD's kernel. The
//! paper's §4.2 additionally observes that regenerating the sequence every
//! epoch can be replaced by generating once and Fisher–Yates-shuffling each
//! epoch, closing the (already small) throughput gap with ASGD; both modes
//! are provided and compared in the `ablation-seq` experiment.

use crate::alias::AliasTable;
use crate::error::SamplingError;
use crate::rng::Xoshiro256pp;

/// How per-epoch sequences are produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SequenceMode {
    /// Draw a fresh i.i.d. weighted sequence every epoch (exact IS).
    RegeneratePerEpoch,
    /// Draw one weighted sequence up front, then only shuffle it each epoch
    /// (paper §4.2 approximation; zero sampling cost after warm-up).
    ShuffleOnce,
}

/// A reusable buffer of sample indices for one worker thread.
///
/// `advance_epoch` refreshes the buffer — a weighted sequence according
/// to its mode, a uniform one by drawing it afresh; the training loop
/// then reads `indices()` sequentially.
#[derive(Debug, Clone)]
pub struct SampleSequence {
    mode: SequenceMode,
    /// `None` for a uniform sequence.
    table: Option<AliasTable>,
    indices: Vec<u32>,
    rng: Xoshiro256pp,
    n_outcomes: usize,
}

impl SampleSequence {
    /// Creates a weighted sequence of `len` draws over `weights.len()`
    /// outcomes (modes [`SequenceMode::RegeneratePerEpoch`] /
    /// [`SequenceMode::ShuffleOnce`]).
    pub fn weighted(
        weights: &[f64],
        len: usize,
        mode: SequenceMode,
        seed: u64,
    ) -> Result<Self, SamplingError> {
        if len == 0 {
            return Err(SamplingError::EmptySequence);
        }
        let table = AliasTable::new(weights)?;
        let mut rng = Xoshiro256pp::new(seed);
        let mut indices = vec![0u32; len];
        table.sample_into(&mut rng, &mut indices);
        Ok(Self {
            mode,
            n_outcomes: table.len(),
            table: Some(table),
            indices,
            rng,
        })
    }

    /// Creates a uniform i.i.d. sequence of `len` draws over `n` outcomes,
    /// redrawn every epoch (plain SGD/ASGD baseline).
    pub fn uniform(n: usize, len: usize, seed: u64) -> Result<Self, SamplingError> {
        if len == 0 {
            return Err(SamplingError::EmptySequence);
        }
        if n == 0 {
            return Err(SamplingError::EmptyWeights);
        }
        let mut rng = Xoshiro256pp::new(seed);
        let indices = (0..len).map(|_| rng.next_index(n) as u32).collect();
        Ok(Self {
            mode: SequenceMode::RegeneratePerEpoch,
            table: None,
            indices,
            rng,
            n_outcomes: n,
        })
    }

    /// Number of underlying outcomes (dataset rows in the shard).
    pub fn n_outcomes(&self) -> usize {
        self.n_outcomes
    }

    /// The current epoch's index buffer.
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// The sequence RNG state, for checkpointing (paired with the
    /// current [`SampleSequence::indices`] buffer).
    pub fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// Restores the RNG stream and current epoch buffer from a
    /// checkpoint. The buffer length must match the sequence length this
    /// instance was built with, so the replayed walk stays in bounds.
    pub fn restore(&mut self, rng_state: [u64; 4], indices: Vec<u32>) -> Result<(), SamplingError> {
        if indices.len() != self.indices.len() {
            return Err(SamplingError::LengthMismatch {
                weights: self.indices.len(),
                other: indices.len(),
            });
        }
        self.rng = Xoshiro256pp::from_state(rng_state);
        self.indices = indices;
        Ok(())
    }

    /// Refreshes the buffer for the next epoch.
    pub fn advance_epoch(&mut self) {
        match (&self.table, self.mode) {
            (None, _) => {
                let n = self.n_outcomes;
                for i in &mut self.indices {
                    *i = self.rng.next_index(n) as u32;
                }
            }
            (Some(table), SequenceMode::RegeneratePerEpoch) => {
                table.sample_into(&mut self.rng, &mut self.indices);
            }
            (Some(_), SequenceMode::ShuffleOnce) => self.rng.shuffle(&mut self.indices),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighted_sequence_respects_distribution() {
        let s = SampleSequence::weighted(&[1.0, 3.0], 40_000, SequenceMode::RegeneratePerEpoch, 7)
            .unwrap();
        let ones = s.indices().iter().filter(|&&i| i == 1).count();
        let frac = ones as f64 / 40_000.0;
        assert!((frac - 0.75).abs() < 0.02, "frac {frac}");
    }

    #[test]
    fn regenerate_changes_sequence() {
        let mut s =
            SampleSequence::weighted(&[1.0, 1.0, 1.0], 128, SequenceMode::RegeneratePerEpoch, 1)
                .unwrap();
        let before = s.indices().to_vec();
        s.advance_epoch();
        assert_ne!(before, s.indices());
    }

    #[test]
    fn shuffle_once_preserves_multiset() {
        let mut s =
            SampleSequence::weighted(&[1.0, 2.0], 512, SequenceMode::ShuffleOnce, 2).unwrap();
        let mut before = s.indices().to_vec();
        s.advance_epoch();
        let mut after = s.indices().to_vec();
        before.sort_unstable();
        after.sort_unstable();
        assert_eq!(before, after, "shuffle must preserve the draw multiset");
    }

    #[test]
    fn uniform_iid_covers_outcomes() {
        let s = SampleSequence::uniform(10, 10_000, 3).unwrap();
        let mut seen = [false; 10];
        for &i in s.indices() {
            seen[i as usize] = true;
        }
        assert!(seen.iter().all(|&x| x));
    }

    #[test]
    fn deterministic_under_seed() {
        let a = SampleSequence::weighted(&[1.0, 2.0, 3.0], 64, SequenceMode::RegeneratePerEpoch, 9)
            .unwrap();
        let b = SampleSequence::weighted(&[1.0, 2.0, 3.0], 64, SequenceMode::RegeneratePerEpoch, 9)
            .unwrap();
        assert_eq!(a.indices(), b.indices());
    }

    #[test]
    fn error_paths() {
        assert!(SampleSequence::weighted(&[], 4, SequenceMode::ShuffleOnce, 0).is_err());
        assert!(SampleSequence::weighted(&[1.0], 0, SequenceMode::ShuffleOnce, 0).is_err());
        assert!(SampleSequence::uniform(0, 4, 0).is_err());
        assert!(SampleSequence::uniform(4, 0, 0).is_err());
    }
}
