//! Per-dataset statistics: density, norms, active features.
//!
//! These feed the paper's Table 1 (dimension, instances, ∇f_i sparsity) and
//! the conflict-graph analysis of §3.1 (feature popularity determines the
//! conflict degree Δ̄).

use crate::dataset::Dataset;
use serde::{Deserialize, Serialize};

/// Summary statistics of a [`Dataset`], serializable for experiment logs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetStats {
    /// Dimensionality `d`.
    pub dim: usize,
    /// Number of samples `n`.
    pub n_samples: usize,
    /// Total non-zeros.
    pub nnz: usize,
    /// `nnz / (n * d)` — the sparsity column of Table 1.
    pub density: f64,
    /// Mean non-zeros per row.
    pub mean_nnz: f64,
    /// Maximum non-zeros in any row.
    pub max_nnz: usize,
    /// Minimum non-zeros in any row.
    pub min_nnz: usize,
    /// Mean squared feature norm `E‖x_i‖²`.
    pub mean_norm_sq: f64,
    /// Maximum squared feature norm.
    pub max_norm_sq: f64,
    /// Fraction of positive labels.
    pub positive_fraction: f64,
    /// Number of features that appear in at least one sample.
    pub active_features: usize,
}

impl DatasetStats {
    /// Computes statistics in one pass over the dataset (plus one bitmap of
    /// size `d` for active features).
    pub fn compute(ds: &Dataset) -> Self {
        let n = ds.n_samples();
        let mut max_nnz = 0usize;
        let mut min_nnz = usize::MAX;
        let mut sum_norm_sq = 0.0;
        let mut max_norm_sq: f64 = 0.0;
        let mut positives = 0usize;
        let mut active = vec![false; ds.dim()];
        for row in ds.rows() {
            let k = row.nnz();
            max_nnz = max_nnz.max(k);
            min_nnz = min_nnz.min(k);
            let ns = row.norm_sq();
            sum_norm_sq += ns;
            max_norm_sq = max_norm_sq.max(ns);
            if row.label > 0.0 {
                positives += 1;
            }
            for &i in row.indices {
                active[i as usize] = true;
            }
        }
        if n == 0 {
            min_nnz = 0;
        }
        DatasetStats {
            dim: ds.dim(),
            n_samples: n,
            nnz: ds.nnz(),
            density: ds.density(),
            mean_nnz: ds.mean_nnz(),
            max_nnz,
            min_nnz,
            mean_norm_sq: if n == 0 { 0.0 } else { sum_norm_sq / n as f64 },
            max_norm_sq,
            positive_fraction: if n == 0 {
                0.0
            } else {
                positives as f64 / n as f64
            },
            active_features: active.iter().filter(|&&a| a).count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;

    fn ds() -> Dataset {
        let mut b = DatasetBuilder::new(4);
        b.push_row(&[(0, 3.0), (1, 4.0)], 1.0).unwrap();
        b.push_row(&[(1, 1.0)], -1.0).unwrap();
        b.finish()
    }

    #[test]
    fn stats_basic() {
        let s = DatasetStats::compute(&ds());
        assert_eq!(s.n_samples, 2);
        assert_eq!(s.dim, 4);
        assert_eq!(s.nnz, 3);
        assert_eq!(s.max_nnz, 2);
        assert_eq!(s.min_nnz, 1);
        assert_eq!(s.max_norm_sq, 25.0);
        assert!((s.mean_norm_sq - 13.0).abs() < 1e-12);
        assert_eq!(s.positive_fraction, 0.5);
        assert_eq!(s.active_features, 2);
        assert!((s.density - 3.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn stats_empty_dataset() {
        let b = DatasetBuilder::new(3);
        let s = DatasetStats::compute(&b.finish());
        assert_eq!(s.n_samples, 0);
        assert_eq!(s.min_nnz, 0);
        assert_eq!(s.mean_norm_sq, 0.0);
    }

    #[test]
    fn row_norms() {
        let d = ds();
        let norms_sq: Vec<f64> = d.rows().map(|r| r.norm_sq()).collect();
        assert_eq!(norms_sq, vec![25.0, 1.0]);
    }

    #[test]
    fn stats_serialize_roundtrip() {
        let s = DatasetStats::compute(&ds());
        let json = serde_json::to_string(&s).unwrap();
        let back: DatasetStats = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
