//! The dataset fixture of `bench_wire`, the wire-codec perf gate.
//!
//! Everything else that is timed lives in `bench_e2e/` (end-to-end and
//! per-layer metrics) or is an `isasgd-experiments` artifact.

#![forbid(unsafe_code)]

use isasgd_datagen::{generate, DatasetProfile, FeatureKind, GeneratedData};

/// A small-but-realistic benchmark dataset: sparse rows, skewed feature
/// popularity, skewed importance.
pub fn bench_dataset(dim: usize, n: usize, mean_nnz: usize) -> GeneratedData {
    let profile = DatasetProfile {
        name: "bench",
        dim,
        n_samples: n,
        mean_nnz,
        zipf_exponent: 1.0,
        target_psi_norm: 0.9,
        target_rho: 3e-4,
        label_noise: 0.02,
        planted_density: 0.2,
        feature_kind: FeatureKind::GaussianScaled,
        noise_nnz_coupling: 1.0,
    };
    generate(&profile, 0xBE7C4)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_generates() {
        let d = bench_dataset(1000, 500, 10);
        assert_eq!(d.dataset.n_samples(), 500);
        assert_eq!(d.dataset.dim(), 1000);
    }
}
