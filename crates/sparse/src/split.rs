//! Train/test splitting utilities.
//!
//! The paper evaluates on training error (its "error rate" metric is
//! updated on the training set); downstream users of this library almost
//! always want a held-out estimate too, so the CLI and several examples
//! split with these helpers. Splits are deterministic under a seed.

use crate::dataset::Dataset;
use crate::error::SparseError;

/// SplitMix64 step — a tiny, high-quality mixer; keeps this crate free of
/// RNG dependencies (the dedicated generators live in `isasgd-sampling`,
/// which sits *above* this crate in the dependency graph).
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fisher–Yates shuffle of `0..n` under a seed.
fn shuffled_indices(n: usize, seed: u64) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    let mut s = seed;
    for i in (1..n).rev() {
        let j = (splitmix64(&mut s) % (i as u64 + 1)) as usize;
        idx.swap(i, j);
    }
    idx
}

/// Splits a dataset into `(train, test)` with `test_fraction` of the rows
/// held out, after a seeded shuffle.
///
/// `test_fraction` must lie in `(0, 1)` and both sides must end up
/// non-empty. Both halves are views ([`Dataset::reordered`]) sharing
/// `ds`'s rows; neither copies a non-zero.
pub fn holdout_split(
    ds: &Dataset,
    test_fraction: f64,
    seed: u64,
) -> Result<(Dataset, Dataset), SparseError> {
    let n = ds.n_samples();
    if !(0.0..1.0).contains(&test_fraction) || test_fraction == 0.0 {
        return Err(SparseError::Empty);
    }
    let n_test = ((n as f64) * test_fraction).round() as usize;
    if n_test == 0 || n_test >= n {
        return Err(SparseError::Empty);
    }
    let idx = shuffled_indices(n, seed);
    let test = ds.reordered(&idx[..n_test])?;
    let train = ds.reordered(&idx[n_test..])?;
    Ok((train, test))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;

    fn ds(n: usize) -> Dataset {
        let mut b = DatasetBuilder::new(8);
        for i in 0..n {
            let y = if i % 3 == 0 { 1.0 } else { -1.0 };
            b.push_row(&[((i % 8) as u32, i as f64 + 1.0)], y).unwrap();
        }
        b.finish()
    }

    #[test]
    fn holdout_partitions_all_rows() {
        let d = ds(100);
        let (train, test) = holdout_split(&d, 0.2, 7).unwrap();
        assert_eq!(test.n_samples(), 20);
        assert_eq!(train.n_samples(), 80);
        assert_eq!(train.dim(), d.dim());
        // Every original row value appears exactly once across the halves
        // (values are unique by construction).
        let mut vals: Vec<u64> = train
            .rows()
            .chain(test.rows())
            .map(|r| r.values[0] as u64)
            .collect();
        vals.sort_unstable();
        let expect: Vec<u64> = (1..=100).collect();
        assert_eq!(vals, expect);
    }

    #[test]
    fn holdout_is_deterministic_and_seed_sensitive() {
        let d = ds(50);
        let (a1, b1) = holdout_split(&d, 0.3, 1).unwrap();
        let (a2, b2) = holdout_split(&d, 0.3, 1).unwrap();
        assert_eq!(a1, a2);
        assert_eq!(b1, b2);
        let (a3, _) = holdout_split(&d, 0.3, 2).unwrap();
        assert_ne!(a1, a3, "different seeds must give different splits");
    }

    #[test]
    fn holdout_rejects_degenerate_fractions() {
        let d = ds(10);
        assert!(holdout_split(&d, 0.0, 1).is_err());
        assert!(holdout_split(&d, 1.0, 1).is_err());
        assert!(holdout_split(&d, -0.1, 1).is_err());
        assert!(holdout_split(&d, 0.01, 1).is_err(), "rounds to empty test");
    }
}
