//! Index-compressed sparse linear algebra for IS-ASGD.
//!
//! This crate is the "data compression for performance" substrate of the
//! paper's Figure 1: stochastic gradients of sparse generalized linear
//! models have the same support as the training sample, so both samples and
//! gradients are stored *index-compressed* — only non-zero `(index, value)`
//! pairs are kept — and every model update touches `O(nnz)` coordinates
//! instead of `O(d)`.
//!
//! The central types are:
//!
//! * [`SparseRow`] — a borrowed view of one sample inside a dataset.
//! * [`Dataset`] — a CSR (compressed sparse row) collection of labelled
//!   samples, the input to every solver in the workspace.
//! * [`RowWindow`] — a step loop's next few drawn rows, gathered into one
//!   small contiguous buffer.
//! * [`libsvm`] — text IO in the LibSVM format used by the paper's
//!   evaluation datasets.
//!
//! # Example
//!
//! ```
//! use isasgd_sparse::{Dataset, DatasetBuilder};
//!
//! let mut b = DatasetBuilder::new(4);
//! b.push_row(&[(0, 1.0), (2, -0.5)], 1.0).unwrap();
//! b.push_row(&[(1, 2.0), (3, 0.25)], -1.0).unwrap();
//! let ds: Dataset = b.finish();
//! assert_eq!(ds.n_samples(), 2);
//! assert_eq!(ds.dim(), 4);
//! assert_eq!(ds.row(0).dot_dense(&[1.0, 1.0, 2.0, 1.0]), 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataset;
pub mod error;
pub mod libsvm;
pub mod par;
pub mod split;
pub mod stats;
pub mod window;

pub use dataset::{Dataset, DatasetBuilder, SparseRow};
pub use error::SparseError;
pub use split::holdout_split;
pub use stats::DatasetStats;
pub use window::RowWindow;
