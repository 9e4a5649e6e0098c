//! CSR dataset container and row views.

use crate::error::SparseError;
use crate::par::map_each;
use crate::vector::SparseVec;
use std::ops::Range;
use std::sync::Arc;

/// A borrowed view of one sample: index-compressed features plus its label.
///
/// Rows are the unit every solver iterates over; all operations are
/// `O(nnz)`.
#[derive(Debug, Clone, Copy)]
pub struct SparseRow<'a> {
    /// Strictly increasing feature indices.
    pub indices: &'a [u32],
    /// Feature values parallel to `indices`.
    pub values: &'a [f64],
    /// Binary label in {-1.0, +1.0}.
    pub label: f64,
}

impl<'a> SparseRow<'a> {
    /// Number of non-zero features.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Dot product against a dense model vector — the margin kernel
    /// `wᵀx_i` every solver evaluates once per step.
    #[inline]
    pub fn dot_dense(&self, dense: &[f64]) -> f64 {
        self.dot_with(|j| dense[j])
    }

    /// `Σ x_ij · at(j)`: [`SparseRow::dot_dense`] against any coordinate
    /// reader, so a dense slice and the lock-free shared model reduce in
    /// the same order.
    ///
    /// Unrolled 4-wide: four independent accumulators break the
    /// loop-carried add dependency so the gathers pipeline. Summation
    /// order differs from the strict left-to-right reduction for rows
    /// with ≥ 4 non-zeros (the accumulators combine as
    /// `(a₀+a₁)+(a₂+a₃)` before the strict-order tail); rows shorter
    /// than 4 non-zeros take only the tail loop, which is that strict
    /// reduction bit-for-bit.
    #[inline]
    pub fn dot_with(&self, at: impl Fn(usize) -> f64) -> f64 {
        let (idx, val) = (self.indices, self.values);
        let chunks = idx.len() - idx.len() % 4;
        let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0, 0.0, 0.0);
        let mut i = 0;
        while i < chunks {
            a0 += val[i] * at(idx[i] as usize);
            a1 += val[i + 1] * at(idx[i + 1] as usize);
            a2 += val[i + 2] * at(idx[i + 2] as usize);
            a3 += val[i + 3] * at(idx[i + 3] as usize);
            i += 4;
        }
        // (0+0)+(0+0) is exactly 0.0, so the chunk-free case degenerates
        // to the strict loop bit-for-bit.
        let mut acc = (a0 + a1) + (a2 + a3);
        for j in chunks..idx.len() {
            acc += val[j] * at(idx[j] as usize);
        }
        acc
    }

    /// `dense += scale * x_i`, touching only the support.
    #[inline]
    pub fn axpy_into(&self, scale: f64, dense: &mut [f64]) {
        for (&i, &x) in self.indices.iter().zip(self.values) {
            dense[i as usize] += scale * x;
        }
    }

    /// Squared Euclidean norm of the features.
    pub fn norm_sq(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum()
    }

    /// Euclidean norm of the features.
    pub fn norm(&self) -> f64 {
        self.norm_sq().sqrt()
    }
}

/// The non-zeros of one or more datasets: CSR arrays, row `r` at
/// `indices[offsets[r]..offsets[r + 1]]`.
#[derive(Debug)]
struct Csr {
    offsets: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f64>,
}

/// An immutable CSR (compressed sparse row) dataset of labelled samples.
///
/// The non-zeros live in three parallel arrays (`offsets`, `indices`,
/// `values`) behind an `Arc`, shared by every dataset built from them;
/// each dataset adds its own row order over that storage (none: storage
/// order), a label per row and its non-zero count. Row access is one
/// order lookup and two slice borrows: no hashing, no indirection per
/// non-zero. [`Dataset::reordered`] is therefore an O(n) view, and a
/// clone is shallow; [`Dataset::reordered_contiguous`] copies the same
/// rows into storage of their own. Equality is logical: dimension,
/// labels, and each row's indices and values, wherever they are stored.
#[derive(Debug, Clone)]
pub struct Dataset {
    dim: usize,
    csr: Arc<Csr>,
    /// Storage row of each row; `None` is the identity.
    order: Option<Vec<usize>>,
    labels: Vec<f64>,
    nnz: usize,
}

impl PartialEq for Dataset {
    fn eq(&self, other: &Self) -> bool {
        self.dim == other.dim
            && self.labels == other.labels
            && self
                .rows()
                .zip(other.rows())
                .all(|(a, b)| a.indices == b.indices && a.values == b.values)
    }
}

impl Dataset {
    /// Number of samples.
    pub fn n_samples(&self) -> usize {
        self.labels.len()
    }

    /// Declared dimensionality `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Total number of non-zeros over this dataset's rows.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// True when the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Borrow row `i`.
    ///
    /// # Panics
    /// Panics if `i >= n_samples()`.
    // `always`: with the order lookup, `#[inline]` alone left out-of-line
    // copies that hot loops (the Hogwild step, `rows()` under
    // `importance_weights`) called once per row, returning the row
    // through memory, which measurably slowed both.
    #[inline(always)]
    pub fn row(&self, i: usize) -> SparseRow<'_> {
        let label = self.labels[i];
        let (lo, hi) = self.span(self.storage_row(i));
        SparseRow {
            indices: &self.csr.indices[lo..hi],
            values: &self.csr.values[lo..hi],
            label,
        }
    }

    /// Storage row holding row `i`.
    #[inline]
    fn storage_row(&self, i: usize) -> usize {
        self.order.as_ref().map_or(i, |o| o[i])
    }

    /// Non-zero range of storage row `s`.
    #[inline]
    fn span(&self, s: usize) -> (usize, usize) {
        (self.csr.offsets[s], self.csr.offsets[s + 1])
    }

    /// Where row `i`'s non-zeros sit in [`Dataset::nonzeros`].
    ///
    /// # Panics
    /// If `i >= n_samples()`.
    #[inline]
    pub(crate) fn row_span(&self, i: usize) -> Range<usize> {
        let (lo, hi) = self.span(self.storage_row(i));
        lo..hi
    }

    /// The index and value arrays [`Dataset::row_span`] points into.
    #[inline]
    pub(crate) fn nonzeros(&self) -> (&[u32], &[f64]) {
        (&self.csr.indices, &self.csr.values)
    }

    /// Label of row `i` (±1).
    #[inline]
    pub fn label(&self, i: usize) -> f64 {
        self.labels[i]
    }

    /// All labels.
    pub fn labels(&self) -> &[f64] {
        &self.labels
    }

    /// Iterates over all rows in order.
    pub fn rows(&self) -> impl Iterator<Item = SparseRow<'_>> + '_ {
        (0..self.n_samples()).map(move |i| self.row(i))
    }

    /// The most non-zeros any one row holds (0 for an empty dataset).
    pub fn max_row_nnz(&self) -> usize {
        self.rows().map(|r| r.nnz()).max().unwrap_or(0)
    }

    /// Average non-zeros per sample.
    pub fn mean_nnz(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.nnz() as f64 / self.n_samples() as f64
        }
    }

    /// Fraction of non-zero entries relative to the dense `n × d` matrix —
    /// the "∇f_i sparsity" column of the paper's Table 1.
    pub fn density(&self) -> f64 {
        if self.is_empty() || self.dim == 0 {
            0.0
        } else {
            self.nnz() as f64 / (self.n_samples() as f64 * self.dim as f64)
        }
    }

    /// A view of the rows at `order`, in that order, over this dataset's
    /// storage: O(n), no non-zero is copied, and a view of a view
    /// composes the two orders.
    ///
    /// Used by importance balancing (paper Algorithm 3), random shuffling
    /// and holdout splits to rearrange samples. Returns an error if any
    /// index is out of range; duplicate indices are allowed
    /// (bootstrap-style resampling is legitimate).
    pub fn reordered(&self, order: &[usize]) -> Result<Dataset, SparseError> {
        let mut rows = Vec::with_capacity(order.len());
        let mut labels = Vec::with_capacity(order.len());
        let mut nnz = 0;
        for &i in order {
            self.check_row(i)?;
            let s = self.storage_row(i);
            let (lo, hi) = self.span(s);
            rows.push(s);
            labels.push(self.labels[i]);
            nnz += hi - lo;
        }
        Ok(Dataset {
            dim: self.dim,
            csr: Arc::clone(&self.csr),
            order: Some(rows),
            labels,
            nnz,
        })
    }

    /// Copies the rows at `order`, in that order, into fresh contiguous
    /// storage of their own: row `k + 1`'s non-zeros start where row `k`'s
    /// end. Equal under `==` to the view [`Dataset::reordered`] returns
    /// for the same `order`, and refuses the same indices; it copies
    /// straight from the rows, so no view is built on the way.
    ///
    /// `parts` cut `order` into consecutive pieces — a run's shard ranges,
    /// as `isasgd_balance::rearrange` passes them. One pass on the
    /// caller's thread checks every row and lays out the offsets and
    /// labels; then each piece fills its own stretch of the non-zero
    /// arrays, on a thread of its own when the pieces are large enough
    /// ([`map_each`], one unit of work per non-zero). How `order` is cut
    /// changes no byte of the result, only how many threads copy it.
    ///
    /// # Panics
    /// If `parts` do not tile `0..order.len()`, in order.
    pub fn reordered_contiguous(
        &self,
        order: &[usize],
        parts: &[Range<usize>],
    ) -> Result<Dataset, SparseError> {
        let tiled = parts.iter().try_fold(0, |at, p| {
            (p.start == at && p.start <= p.end).then_some(p.end)
        });
        assert_eq!(tiled, Some(order.len()), "parts must tile the order");
        let mut offsets = Vec::with_capacity(order.len() + 1);
        let mut labels = Vec::with_capacity(order.len());
        let mut nnz = 0;
        offsets.push(nnz);
        for &i in order {
            self.check_row(i)?;
            let (lo, hi) = self.span(self.storage_row(i));
            nnz += hi - lo;
            offsets.push(nnz);
            labels.push(self.labels[i]);
        }
        // Zeroed (so no `unsafe` uninitialised memory) and cut into one
        // disjoint stretch per piece, which its thread then overwrites.
        let mut indices = vec![0u32; nnz];
        let mut values = vec![0.0f64; nnz];
        let (mut idx_rest, mut val_rest) = (&mut indices[..], &mut values[..]);
        let mut pieces = Vec::with_capacity(parts.len());
        for p in parts {
            let len = offsets[p.end] - offsets[p.start];
            let (idx, rest) = std::mem::take(&mut idx_rest).split_at_mut(len);
            idx_rest = rest;
            let (val, rest) = std::mem::take(&mut val_rest).split_at_mut(len);
            val_rest = rest;
            pieces.push((&order[p.clone()], idx, val));
        }
        map_each(pieces, nnz, |(rows, idx, val)| {
            let mut at = 0;
            for &i in rows {
                let r = self.row(i);
                let end = at + r.nnz();
                idx[at..end].copy_from_slice(r.indices);
                val[at..end].copy_from_slice(r.values);
                at = end;
            }
        });
        Ok(Dataset {
            dim: self.dim,
            csr: Arc::new(Csr {
                offsets,
                indices,
                values,
            }),
            order: None,
            labels,
            nnz,
        })
    }

    fn check_row(&self, i: usize) -> Result<(), SparseError> {
        if i < self.n_samples() {
            Ok(())
        } else {
            Err(SparseError::RowOutOfRange {
                row: i,
                rows: self.n_samples(),
            })
        }
    }

    /// Splits `0..n` into `k` contiguous equal shards of row index ranges —
    /// Algorithm 4 line 9 (`D_tid = D_r[n*tid/numT : n*(tid+1)/numT]`).
    ///
    /// Returns an error when `k == 0` or `k > n`.
    pub fn shard_ranges(&self, k: usize) -> Result<Vec<std::ops::Range<usize>>, SparseError> {
        shard_ranges(self.n_samples(), k)
    }
}

/// Computes `k` contiguous, nearly-equal ranges covering `0..n`:
/// [`SparseError::Empty`] when `n == 0`, [`SparseError::ShardCount`]
/// when `k == 0` or `k > n`.
pub fn shard_ranges(n: usize, k: usize) -> Result<Vec<std::ops::Range<usize>>, SparseError> {
    if n == 0 {
        return Err(SparseError::Empty);
    }
    if k == 0 || k > n {
        return Err(SparseError::ShardCount { shards: k, rows: n });
    }
    // Same arithmetic as the paper's Algorithm 4 line 9.
    let mut out = Vec::with_capacity(k);
    for t in 0..k {
        let lo = n * t / k;
        let hi = n * (t + 1) / k;
        out.push(lo..hi);
    }
    Ok(out)
}

/// Incremental builder for [`Dataset`].
#[derive(Debug, Clone)]
pub struct DatasetBuilder {
    dim: usize,
    offsets: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f64>,
    labels: Vec<f64>,
}

impl DatasetBuilder {
    /// Starts a builder for dimensionality `dim`.
    pub fn new(dim: usize) -> Self {
        Self::with_capacity(dim, 0, 0)
    }

    /// Starts a builder with row/non-zero capacity hints.
    pub fn with_capacity(dim: usize, rows: usize, nnz: usize) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        Self {
            dim,
            offsets,
            indices: Vec::with_capacity(nnz),
            values: Vec::with_capacity(nnz),
            labels: Vec::with_capacity(rows),
        }
    }

    /// Number of rows pushed so far.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when no rows were pushed yet.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Validates and appends a row given `(index, value)` pairs (may be
    /// unsorted) and a ±1 label.
    pub fn push_row(&mut self, pairs: &[(u32, f64)], label: f64) -> Result<(), SparseError> {
        let row = self.labels.len();
        if label != 1.0 && label != -1.0 {
            return Err(SparseError::BadLabel { row, label });
        }
        let v = SparseVec::from_pairs(pairs).map_err(|e| match e {
            SparseError::DuplicateIndex { index, .. } => SparseError::DuplicateIndex { row, index },
            SparseError::NonFiniteValue { .. } => SparseError::NonFiniteValue { row },
            other => other,
        })?;
        if let Some(&last) = v.indices().last() {
            if last as usize >= self.dim {
                return Err(SparseError::IndexOutOfBounds {
                    index: last,
                    dim: self.dim,
                });
            }
        }
        self.indices.extend_from_slice(v.indices());
        self.values.extend_from_slice(v.values());
        self.offsets.push(self.indices.len());
        self.labels.push(label);
        Ok(())
    }

    /// Appends a row assumed to be already validated (sorted, in-bounds,
    /// finite). Used on hot rebuild paths such as reordering.
    pub fn push_row_unchecked(&mut self, indices: &[u32], values: &[f64], label: f64) {
        debug_assert!(indices.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(indices.last().is_none_or(|&l| (l as usize) < self.dim));
        debug_assert_eq!(indices.len(), values.len());
        self.indices.extend_from_slice(indices);
        self.values.extend_from_slice(values);
        self.offsets.push(self.indices.len());
        self.labels.push(label);
    }

    /// Finalizes the dataset.
    pub fn finish(self) -> Dataset {
        Dataset {
            dim: self.dim,
            nnz: self.indices.len(),
            csr: Arc::new(Csr {
                offsets: self.offsets,
                indices: self.indices,
                values: self.values,
            }),
            order: None,
            labels: self.labels,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The strict left-to-right dot product — the pre-unroll reduction
    /// order, the oracle `dot_dense` is compared against.
    fn dot_dense_strict(row: &SparseRow<'_>, dense: &[f64]) -> f64 {
        let mut acc = 0.0;
        for (&i, &x) in row.indices.iter().zip(row.values) {
            acc += x * dense[i as usize];
        }
        acc
    }

    fn tiny() -> Dataset {
        let mut b = DatasetBuilder::new(5);
        b.push_row(&[(0, 1.0), (2, 2.0)], 1.0).unwrap();
        b.push_row(&[(1, -1.0)], -1.0).unwrap();
        b.push_row(&[(2, 0.5), (4, 4.0)], 1.0).unwrap();
        b.finish()
    }

    #[test]
    fn builder_roundtrip() {
        let ds = tiny();
        assert_eq!(ds.n_samples(), 3);
        assert_eq!(ds.dim(), 5);
        assert_eq!(ds.nnz(), 5);
        let r = ds.row(2);
        assert_eq!(r.indices, &[2, 4]);
        assert_eq!(r.values, &[0.5, 4.0]);
        assert_eq!(r.label, 1.0);
    }

    #[test]
    fn builder_rejects_bad_rows() {
        let mut b = DatasetBuilder::new(3);
        assert!(matches!(
            b.push_row(&[(3, 1.0)], 1.0),
            Err(SparseError::IndexOutOfBounds { .. })
        ));
        assert!(matches!(
            b.push_row(&[(0, 1.0)], 0.5),
            Err(SparseError::BadLabel { .. })
        ));
        assert!(matches!(
            b.push_row(&[(0, 1.0), (0, 2.0)], 1.0),
            Err(SparseError::DuplicateIndex { row: 0, index: 0 })
        ));
    }

    #[test]
    fn density_and_mean_nnz() {
        let ds = tiny();
        assert!((ds.density() - 5.0 / 15.0).abs() < 1e-12);
        assert!((ds.mean_nnz() - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn row_ops_match_vector_ops() {
        let ds = tiny();
        let dense = [1.0, 2.0, 3.0, 4.0, 5.0];
        let r = ds.row(0);
        assert_eq!(r.dot_dense(&dense), 1.0 + 6.0);
        let mut acc = vec![0.0; 5];
        r.axpy_into(2.0, &mut acc);
        assert_eq!(acc, vec![2.0, 0.0, 4.0, 0.0, 0.0]);
        assert_eq!(r.norm_sq(), 5.0);
    }

    #[test]
    fn reordered_permutes_rows() {
        let ds = tiny();
        let rd = ds.reordered(&[2, 0, 1]).unwrap();
        assert_eq!(rd.row(0).indices, ds.row(2).indices);
        assert_eq!(rd.label(1), ds.label(0));
        assert_eq!(rd.nnz(), ds.nnz());
        assert!(ds.reordered(&[9]).is_err());
    }

    /// The contiguous copy equals the view for every cut of its order,
    /// from one piece to one-row pieces, lays the rows end to end, and
    /// refuses an out-of-range row with the view's error, whichever
    /// piece holds it — on the caller's thread (small pieces) and on a
    /// thread per piece (pieces of at least `MIN_WORK_PER_THREAD`
    /// non-zeros).
    #[test]
    fn contiguous_copy_equals_the_view_for_every_cut() {
        let build = |rows: u32, max_nnz: u32| {
            let mut b = DatasetBuilder::new(64);
            for i in 0..rows {
                let pairs: Vec<(u32, f64)> = (0..i % max_nnz)
                    .map(|j| (j + i % 3, 0.5 + i as f64))
                    .collect();
                b.push_row(&pairs, if i % 2 == 0 { 1.0 } else { -1.0 })
                    .unwrap();
            }
            b.finish()
        };
        let small = build(7, 4);
        let large = build(8192, 61);
        assert!(large.nnz() >= 4 * crate::par::MIN_WORK_PER_THREAD);
        let scattered = |ds: &Dataset| -> Vec<usize> {
            let n = ds.n_samples();
            (0..n + 1).map(|k| (k * 5 + 3) % n).collect()
        };
        for (ds, cuts) in [(&small, 1..=8), (&large, 1..=4)] {
            let order = scattered(ds);
            let view = ds.reordered(&order).unwrap();
            for k in cuts {
                let parts = shard_ranges(order.len(), k).unwrap();
                let copy = ds.reordered_contiguous(&order, &parts).unwrap();
                assert_eq!(copy, view, "{k} pieces");
                assert_eq!(copy.nnz(), view.nnz());
                for r in 1..order.len() {
                    let prev = copy.row(r - 1).indices.as_ptr_range().end;
                    assert!(std::ptr::eq(prev, copy.row(r).indices.as_ptr()));
                }
                for at in [0, order.len() - 1] {
                    let mut bad = order.clone();
                    bad[at] = ds.n_samples();
                    assert_eq!(
                        ds.reordered_contiguous(&bad, &parts).unwrap_err(),
                        ds.reordered(&bad).unwrap_err(),
                        "{k} pieces, bad row at {at}"
                    );
                }
            }
        }
        for parts in [&[][..], std::slice::from_ref(&(0..0))] {
            assert!(small.reordered_contiguous(&[], parts).unwrap().is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "parts must tile the order")]
    fn a_cut_that_skips_rows_is_refused() {
        tiny().reordered_contiguous(&[0, 1, 2], &[0..1, 2..3]).ok();
    }

    #[test]
    fn an_out_of_range_row_is_named_as_a_row() {
        let ds = tiny();
        let want = Err(SparseError::RowOutOfRange { row: 9, rows: 3 });
        assert_eq!(ds.reordered(&[0, 9]), want);
        assert_eq!(
            ds.reordered_contiguous(&[0, 9], std::slice::from_ref(&(0..2))),
            want
        );
    }

    #[test]
    fn reordered_allows_duplicates() {
        let ds = tiny();
        let rd = ds.reordered(&[0, 0, 0]).unwrap();
        assert_eq!(rd.n_samples(), 3);
        assert_eq!(rd.row(2).indices, ds.row(0).indices);
    }

    #[test]
    fn shard_ranges_cover_and_partition() {
        let ranges = shard_ranges(10, 3).unwrap();
        assert_eq!(ranges, vec![0..3, 3..6, 6..10]);
        assert_eq!(
            shard_ranges(2, 0),
            Err(SparseError::ShardCount { shards: 0, rows: 2 })
        );
        assert_eq!(
            shard_ranges(2, 3),
            Err(SparseError::ShardCount { shards: 3, rows: 2 })
        );
        assert_eq!(shard_ranges(0, 1), Err(SparseError::Empty));
        let ranges = shard_ranges(4, 4).unwrap();
        assert!(ranges.iter().all(|r| r.len() == 1));
    }

    #[test]
    fn unrolled_dot_matches_strict_for_short_rows_exactly() {
        // Rows with fewer than 4 non-zeros skip the unrolled chunks
        // entirely — the tail loop IS the strict loop, bit-for-bit.
        let mut b = DatasetBuilder::new(8);
        b.push_row(&[(1, 0.1)], 1.0).unwrap();
        b.push_row(&[(0, 0.3), (5, -0.7)], -1.0).unwrap();
        b.push_row(&[(2, 1e-3), (3, 0.11), (7, -9.4)], 1.0).unwrap();
        let ds = b.finish();
        let w: Vec<f64> = (0..8).map(|i| 0.1 + 0.77 * i as f64).collect();
        for i in 0..ds.n_samples() {
            let r = ds.row(i);
            assert_eq!(
                r.dot_dense(&w).to_bits(),
                dot_dense_strict(&r, &w).to_bits()
            );
        }
    }

    #[test]
    fn unrolled_dot_matches_strict_for_long_rows_closely() {
        // ≥ 4 non-zeros: the 4-wide reduction order differs, but only by
        // floating-point associativity — values agree to relative 1e-12.
        for nnz in [4usize, 5, 7, 8, 13, 64, 101] {
            let pairs: Vec<(u32, f64)> = (0..nnz)
                .map(|j| (j as u32, ((j * 37 + 11) % 19) as f64 * 0.31 - 2.0))
                .collect();
            let mut b = DatasetBuilder::new(nnz);
            b.push_row(&pairs, 1.0).unwrap();
            let ds = b.finish();
            let w: Vec<f64> = (0..nnz).map(|i| (i as f64 * 1.37).sin()).collect();
            let r = ds.row(0);
            let (fast, strict) = (r.dot_dense(&w), dot_dense_strict(&r, &w));
            assert!(
                (fast - strict).abs() <= 1e-12 * (1.0 + strict.abs()),
                "nnz={nnz}: {fast} vs {strict}"
            );
        }
    }

    #[test]
    fn rows_iterator_visits_all() {
        let ds = tiny();
        let total: usize = ds.rows().map(|r| r.nnz()).sum();
        assert_eq!(total, ds.nnz());
    }
}
