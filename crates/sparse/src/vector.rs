//! Owned index-compressed sparse vectors.

use crate::error::SparseError;

/// An owned sparse vector stored as parallel `(indices, values)` arrays with
/// strictly increasing indices.
///
/// This is the representation of a single stochastic gradient in the paper's
/// Figure 1: for GLM losses the gradient support equals the sample support,
/// so a gradient is a scalar multiple of the sample and can be kept
/// index-compressed end-to-end.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SparseVec {
    indices: Vec<u32>,
    values: Vec<f64>,
}

impl SparseVec {
    /// Creates an empty sparse vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty sparse vector with capacity for `cap` non-zeros.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            indices: Vec::with_capacity(cap),
            values: Vec::with_capacity(cap),
        }
    }

    /// Builds a sparse vector from `(index, value)` pairs.
    ///
    /// Pairs may arrive unsorted; they are sorted by index. Returns an error
    /// on duplicate indices or non-finite values.
    pub fn from_pairs(pairs: &[(u32, f64)]) -> Result<Self, SparseError> {
        let mut sorted: Vec<(u32, f64)> = pairs.to_vec();
        sorted.sort_unstable_by_key(|&(i, _)| i);
        let mut v = Self::with_capacity(sorted.len());
        for &(i, x) in &sorted {
            if !x.is_finite() {
                return Err(SparseError::NonFiniteValue { row: 0 });
            }
            if let Some(&last) = v.indices.last() {
                if last == i {
                    return Err(SparseError::DuplicateIndex { row: 0, index: i });
                }
            }
            v.indices.push(i);
            v.values.push(x);
        }
        Ok(v)
    }

    /// Builds a dense `Vec<f64>` of length `dim` from this vector.
    pub fn to_dense(&self, dim: usize) -> Vec<f64> {
        let mut out = vec![0.0; dim];
        for (&i, &x) in self.indices.iter().zip(&self.values) {
            out[i as usize] = x;
        }
        out
    }

    /// Builds a sparse vector from a dense slice, dropping exact zeros.
    pub fn from_dense(dense: &[f64]) -> Self {
        let mut v = Self::new();
        for (i, &x) in dense.iter().enumerate() {
            if x != 0.0 {
                v.indices.push(i as u32);
                v.values.push(x);
            }
        }
        v
    }

    /// Appends a non-zero entry; `index` must exceed the current last index.
    pub fn push(&mut self, index: u32, value: f64) -> Result<(), SparseError> {
        if let Some(&last) = self.indices.last() {
            if index <= last {
                return Err(SparseError::UnsortedIndices { row: 0 });
            }
        }
        if !value.is_finite() {
            return Err(SparseError::NonFiniteValue { row: 0 });
        }
        self.indices.push(index);
        self.values.push(value);
        Ok(())
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// True when no non-zeros are stored.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// The stored indices (strictly increasing).
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// The stored values, parallel to [`Self::indices`].
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Iterates over `(index, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.indices
            .iter()
            .copied()
            .zip(self.values.iter().copied())
    }

    /// Removes all entries, keeping capacity.
    pub fn clear(&mut self) {
        self.indices.clear();
        self.values.clear();
    }

    /// Dot product against a dense vector.
    ///
    /// Cost is `O(nnz)` — this is the index-compressed fast path the paper's
    /// performance argument rests on.
    pub fn dot_dense(&self, dense: &[f64]) -> f64 {
        let mut acc = 0.0;
        for (&i, &x) in self.indices.iter().zip(&self.values) {
            acc += x * dense[i as usize];
        }
        acc
    }

    /// `dense += scale * self`, touching only `nnz` coordinates.
    pub fn axpy_into(&self, scale: f64, dense: &mut [f64]) {
        for (&i, &x) in self.indices.iter().zip(&self.values) {
            dense[i as usize] += scale * x;
        }
    }

    /// Scales all values in place.
    pub fn scale(&mut self, s: f64) {
        for v in &mut self.values {
            *v *= s;
        }
    }

    /// Squared Euclidean norm.
    pub fn norm_sq(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum()
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f64 {
        self.norm_sq().sqrt()
    }
}

impl FromIterator<(u32, f64)> for SparseVec {
    /// Collects pairs that are assumed sorted and unique; panics in debug
    /// builds otherwise. Use [`SparseVec::from_pairs`] for untrusted input.
    fn from_iter<T: IntoIterator<Item = (u32, f64)>>(iter: T) -> Self {
        let mut v = SparseVec::new();
        for (i, x) in iter {
            debug_assert!(v.indices.last().is_none_or(|&l| l < i));
            v.indices.push(i);
            v.values.push(x);
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(pairs: &[(u32, f64)]) -> SparseVec {
        SparseVec::from_pairs(pairs).unwrap()
    }

    #[test]
    fn from_pairs_sorts() {
        let v = sv(&[(3, 1.0), (0, 2.0)]);
        assert_eq!(v.indices(), &[0, 3]);
        assert_eq!(v.values(), &[2.0, 1.0]);
    }

    #[test]
    fn from_pairs_rejects_duplicates() {
        assert!(matches!(
            SparseVec::from_pairs(&[(1, 1.0), (1, 2.0)]),
            Err(SparseError::DuplicateIndex { .. })
        ));
    }

    #[test]
    fn from_pairs_rejects_nan() {
        assert!(matches!(
            SparseVec::from_pairs(&[(1, f64::NAN)]),
            Err(SparseError::NonFiniteValue { .. })
        ));
    }

    #[test]
    fn push_requires_increasing_indices() {
        let mut v = SparseVec::new();
        v.push(2, 1.0).unwrap();
        assert!(v.push(2, 1.0).is_err());
        assert!(v.push(1, 1.0).is_err());
        v.push(5, -1.0).unwrap();
        assert_eq!(v.nnz(), 2);
    }

    #[test]
    fn dense_roundtrip() {
        let v = sv(&[(0, 1.5), (4, -2.0)]);
        let d = v.to_dense(6);
        assert_eq!(d, vec![1.5, 0.0, 0.0, 0.0, -2.0, 0.0]);
        assert_eq!(SparseVec::from_dense(&d), v);
    }

    #[test]
    fn dot_dense_matches_dense_math() {
        let v = sv(&[(1, 2.0), (3, -1.0)]);
        let d = [0.5, 1.0, 7.0, 2.0];
        assert_eq!(v.dot_dense(&d), 2.0 - 2.0);
    }

    #[test]
    fn axpy_touches_only_support() {
        let v = sv(&[(0, 1.0), (2, 2.0)]);
        let mut d = vec![0.0; 4];
        v.axpy_into(-0.5, &mut d);
        assert_eq!(d, vec![-0.5, 0.0, -1.0, 0.0]);
    }

    #[test]
    fn norms() {
        let v = sv(&[(0, 3.0), (9, -4.0)]);
        assert_eq!(v.norm_sq(), 25.0);
        assert_eq!(v.norm(), 5.0);
    }

    #[test]
    fn scale_and_clear() {
        let mut v = sv(&[(1, 2.0)]);
        v.scale(3.0);
        assert_eq!(v.values(), &[6.0]);
        v.clear();
        assert!(v.is_empty());
    }

    #[test]
    fn empty_vector_behaviour() {
        let v = SparseVec::new();
        assert_eq!(v.dot_dense(&[1.0, 2.0]), 0.0);
        assert_eq!(v.norm(), 0.0);
    }
}
