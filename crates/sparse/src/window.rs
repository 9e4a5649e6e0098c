//! Gathered rows: a step loop's next few drawn rows, copied into one
//! small contiguous buffer before it steps through them.
//!
//! A training step reads its row from wherever the draw landed in the
//! shard, so in draw order nearly every row costs a cache miss, paid one
//! step at a time. Copying a window of rows first issues those misses
//! back to back, as independent loads the core can overlap; the steps
//! then read from a buffer that sits in L1. The rows and their order are
//! unchanged, so a step computes exactly what it would from the dataset.

use crate::dataset::{Dataset, SparseRow};
use std::ops::Range;

/// A reusable contiguous copy of some rows of a [`Dataset`], in the
/// order they were asked for: CSR offsets, indices, values and labels,
/// overwritten by every [`RowWindow::gather`] and never shrunk. The
/// values are stored as the dataset stores them: one per non-zero, or
/// one run of a value the rows share.
#[derive(Debug)]
pub struct RowWindow {
    /// Row `k`'s indices at `indices[offsets[k]..offsets[k + 1]]`, its
    /// values as many long from `offsets[k]`, or from 0 when `shared`.
    offsets: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f64>,
    shared: bool,
    labels: Vec<f64>,
    /// Where each row sits in the source's storage (gather's first pass).
    spans: Vec<Range<usize>>,
}

impl RowWindow {
    /// Rows [`RowWindow::walk`] gathers at a time: enough that their
    /// misses overlap (8 already do), few enough that a window of long
    /// rows stays in L2 (README, *What a step costs*).
    pub const ROWS: usize = 16;

    /// An empty window with room for [`RowWindow::ROWS`] rows of up to
    /// `row_nnz` non-zeros each ([`Dataset::max_row_nnz`] of the rows it
    /// will gather), so stepping through them never grows a buffer.
    ///
    /// Build a window once per run, not on short-lived threads, and
    /// before the buffers its thread allocates for the run. A buffer
    /// that grows mid-run is reallocated above those buffers in its
    /// thread's malloc arena and keeps the arena from returning their
    /// pages once the run frees them: a cluster node whose window grew
    /// in its first epoch kept about 400 KiB more resident after its
    /// session. Windows built by each epoch's Hogwild threads likewise
    /// raised peak RSS by about 0.15 MiB.
    pub fn with_row_capacity(row_nnz: usize) -> Self {
        let mut offsets = Vec::with_capacity(Self::ROWS + 1);
        offsets.push(0);
        let nnz = Self::ROWS * row_nnz;
        RowWindow {
            offsets,
            indices: Vec::with_capacity(nnz),
            values: Vec::with_capacity(nnz),
            shared: false,
            labels: Vec::with_capacity(Self::ROWS),
            spans: Vec::with_capacity(Self::ROWS),
        }
    }

    /// Replaces the window's contents with rows `rows` of `ds`, in that
    /// order (duplicates included): row `k` of the window is row
    /// `rows[k]` of `ds`, through any row order `ds` carries.
    ///
    /// A dataset whose non-zeros share one value has only its indices
    /// and labels copied, and the widest row's stretch of its run.
    ///
    /// # Panics
    /// If a row is out of range, as [`Dataset::row`] does.
    pub fn gather(&mut self, ds: &Dataset, rows: impl IntoIterator<Item = usize>) {
        // Two passes: every row's place in storage and its label first,
        // then the copies. Each pass's loads are independent of one
        // another, so each pass's misses overlap.
        self.offsets.truncate(1);
        self.labels.clear();
        self.spans.clear();
        let (mut end, mut widest) = (0, 0);
        for i in rows {
            let span = ds.row_span(i);
            self.labels.push(ds.label(i));
            end += span.len();
            widest = widest.max(span.len());
            self.offsets.push(end);
            self.spans.push(span);
        }
        let (indices, values, shared) = ds.nonzeros();
        self.shared = shared;
        self.indices.clear();
        self.values.clear();
        if shared {
            self.values.extend_from_slice(&values[..widest]);
        }
        for span in &self.spans {
            self.indices.extend_from_slice(&indices[span.clone()]);
            if !shared {
                self.values.extend_from_slice(&values[span.clone()]);
            }
        }
    }

    /// Rows in the window.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when the window holds no rows.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Borrow row `k` of the window.
    ///
    /// # Panics
    /// If `k >= len()`.
    #[inline]
    pub fn row(&self, k: usize) -> SparseRow<'_> {
        let (lo, hi) = (self.offsets[k], self.offsets[k + 1]);
        let at = if self.shared { 0 } else { lo };
        SparseRow {
            indices: &self.indices[lo..hi],
            values: &self.values[at..at + (hi - lo)],
            label: self.labels[k],
        }
    }

    /// Steps through `draws` in order, [`RowWindow::ROWS`] at a time:
    /// gathers the rows of the next window of draws (`row_of` names the
    /// row of `ds` a draw reads), then calls `step` with each draw of
    /// the window and its row. `step` sees exactly the draws, rows and
    /// order a loop over `ds.row(row_of(d))` would. A window of one
    /// draw has no misses to overlap, so its row is read in place.
    #[inline]
    pub fn walk<T>(
        &mut self,
        ds: &Dataset,
        draws: &[T],
        row_of: impl Fn(&T) -> usize,
        mut step: impl FnMut(&T, &SparseRow<'_>),
    ) {
        for window in draws.chunks(Self::ROWS) {
            if let [d] = window {
                step(d, &ds.row(row_of(d)));
                continue;
            }
            self.gather(ds, window.iter().map(&row_of));
            for (k, d) in window.iter().enumerate() {
                step(d, &self.row(k));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;

    /// Rows 0..n with 0..=4 non-zeros each (row 0 and every fifth row
    /// have none), mixed labels.
    fn ds(n: u32) -> Dataset {
        let mut b = DatasetBuilder::new(16);
        for i in 0..n {
            let pairs: Vec<(u32, f64)> = (0..i % 5)
                .map(|j| (j * 3 + i % 2, 0.25 + i as f64))
                .collect();
            b.push_row(&pairs, if i % 3 == 0 { 1.0 } else { -1.0 })
                .unwrap();
        }
        b.finish()
    }

    /// The window's rows are the dataset's rows asked for, with
    /// `Dataset::row` as the oracle.
    fn assert_holds(w: &RowWindow, ds: &Dataset, rows: &[usize]) {
        assert_eq!(w.len(), rows.len());
        assert_eq!(w.is_empty(), rows.is_empty());
        for (k, &i) in rows.iter().enumerate() {
            let (got, want) = (w.row(k), ds.row(i));
            assert_eq!(got.indices, want.indices, "row {k} (= {i})");
            assert_eq!(got.values, want.values, "row {k} (= {i})");
            assert_eq!(got.label.to_bits(), want.label.to_bits(), "row {k} (= {i})");
        }
    }

    #[test]
    fn gathers_the_rows_of_a_reordered_view() {
        let base = ds(12);
        let view = base.reordered(&[11, 3, 7, 0, 3, 9, 1]).unwrap();
        let rows = [6, 0, 4, 1, 1, 3, 5, 2];
        let mut w = RowWindow::with_row_capacity(0);
        w.gather(&view, rows);
        assert_holds(&w, &view, &rows);
        // A view of a view composes its orders.
        let twice = view.reordered(&[5, 5, 2, 0]).unwrap();
        w.gather(&twice, [3, 0, 2, 1]);
        assert_holds(&w, &twice, &[3, 0, 2, 1]);
    }

    #[test]
    fn gathers_the_rows_of_a_contiguous_copy() {
        let base = ds(12);
        let order = [4, 10, 2, 2, 8, 5];
        let copy = base.reordered_contiguous(&order, &[0..2, 2..6]).unwrap();
        let rows = [5, 4, 3, 2, 1, 0, 0];
        let mut w = RowWindow::with_row_capacity(0);
        w.gather(&copy, rows);
        assert_holds(&w, &copy, &rows);
        assert_holds(&w, &base, &[5, 8, 2, 2, 10, 4, 4]);
    }

    #[test]
    fn zero_nnz_rows_keep_their_place_and_label() {
        let base = ds(11);
        let rows = [0, 5, 1, 10, 0];
        let mut w = RowWindow::with_row_capacity(0);
        w.gather(&base, rows);
        assert_holds(&w, &base, &rows);
        assert_eq!(w.row(0).nnz(), 0);
        assert_eq!(w.row(3).nnz(), 0);
        assert_eq!(w.row(2).nnz(), 1);
    }

    #[test]
    fn a_reused_buffer_forgets_a_longer_window() {
        let base = ds(20);
        let mut w = RowWindow::with_row_capacity(0);
        let long: Vec<usize> = (0..20).rev().collect();
        w.gather(&base, long.iter().copied());
        assert_holds(&w, &base, &long);
        w.gather(&base, [4, 2]);
        assert_holds(&w, &base, &[4, 2]);
        w.gather(&base, [19]);
        assert_holds(&w, &base, &[19]);
    }

    #[test]
    fn an_empty_window_holds_no_rows() {
        let base = ds(6);
        let mut w = RowWindow::with_row_capacity(0);
        assert_holds(&w, &base, &[]);
        w.gather(&base, [1, 2, 3]);
        w.gather(&base, []);
        assert_holds(&w, &base, &[]);
        let mut steps = 0;
        w.walk(&base, &[] as &[usize], |&i| i, |_, _| steps += 1);
        assert_eq!(steps, 0);
    }

    /// Sized for the widest row, a window holding `ROWS` copies of it
    /// keeps its first buffers.
    #[test]
    fn a_window_sized_for_the_widest_row_never_grows() {
        let base = ds(20);
        assert_eq!(base.max_row_nnz(), 4);
        assert_eq!(DatasetBuilder::new(3).finish().max_row_nnz(), 0);
        let mut w = RowWindow::with_row_capacity(base.max_row_nnz());
        let before = (w.indices.as_ptr(), w.values.as_ptr(), w.offsets.as_ptr());
        w.gather(&base, [4; RowWindow::ROWS]);
        assert_holds(&w, &base, &[4; RowWindow::ROWS]);
        let after = (w.indices.as_ptr(), w.values.as_ptr(), w.offsets.as_ptr());
        assert_eq!(before, after);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn an_out_of_range_row_panics_like_the_dataset() {
        RowWindow::with_row_capacity(0).gather(&ds(3), [0, 3]);
    }

    /// `walk` hands every draw its own row, in draw order, across
    /// window boundaries (a partial last window, of one draw or more,
    /// included).
    #[test]
    fn walk_steps_in_draw_order_across_windows() {
        let base = ds(40);
        let view = base.reordered(&(0..40).rev().collect::<Vec<_>>()).unwrap();
        let w = RowWindow::ROWS;
        for len in [1, 2, w - 1, w, w + 1, 2 * w + 3] {
            let draws: Vec<(usize, u32)> = (0..len).map(|k| ((k * 7 + 3) % 40, k as u32)).collect();
            let mut seen = Vec::new();
            RowWindow::with_row_capacity(0).walk(
                &view,
                &draws,
                |d| d.0,
                |d, row| {
                    let want = view.row(d.0);
                    assert_eq!((row.indices, row.values), (want.indices, want.values));
                    assert_eq!(row.label.to_bits(), want.label.to_bits());
                    seen.push(d.1);
                },
            );
            assert_eq!(seen, (0..len as u32).collect::<Vec<_>>(), "{len} draws");
        }
    }
}
