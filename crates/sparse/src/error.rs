//! Error types for sparse data structures and IO.

use std::fmt;

/// Errors produced while building, validating or parsing sparse data.
#[derive(Debug, Clone, PartialEq)]
pub enum SparseError {
    /// A feature index was outside the declared dimensionality.
    IndexOutOfBounds {
        /// The offending feature index.
        index: u32,
        /// The declared dimensionality.
        dim: usize,
    },
    /// Indices within a row were not strictly increasing.
    UnsortedIndices {
        /// Row in which the violation occurred (if known).
        row: usize,
    },
    /// A duplicate feature index appeared within one row.
    DuplicateIndex {
        /// Row in which the violation occurred (if known).
        row: usize,
        /// The duplicated feature index.
        index: u32,
    },
    /// A value was NaN or infinite.
    NonFiniteValue {
        /// Row in which the violation occurred (if known).
        row: usize,
    },
    /// An importance weight was NaN, infinite or negative: no sampling
    /// distribution or balanced layout can be built from it.
    BadWeight {
        /// Row the weight belongs to.
        row: usize,
        /// The weight.
        weight: f64,
    },
    /// A label could not be interpreted as a binary ±1 class.
    BadLabel {
        /// Row in which the violation occurred.
        row: usize,
        /// The raw label encountered.
        label: f64,
    },
    /// A malformed line was found while parsing LibSVM text.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Human-readable description of the problem.
        msg: String,
    },
    /// An underlying IO error (message-only so the error stays `Clone`).
    Io(String),
    /// The dataset is empty where a non-empty one is required.
    Empty,
    /// A row id was past the last row of the dataset.
    RowOutOfRange {
        /// The offending row id.
        row: usize,
        /// The dataset's row count.
        rows: usize,
    },
    /// A dataset of `rows ≥ 1` rows cannot be cut into `shards`
    /// non-empty shards: `shards` must be in `1..=rows`.
    ShardCount {
        /// The requested shard count.
        shards: usize,
        /// The dataset's row count.
        rows: usize,
    },
    /// Two datasets/shards had incompatible dimensionality.
    DimMismatch {
        /// Expected dimensionality.
        expected: usize,
        /// Dimensionality actually found.
        found: usize,
    },
}

impl fmt::Display for SparseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparseError::IndexOutOfBounds { index, dim } => {
                write!(f, "feature index {index} out of bounds for dimension {dim}")
            }
            SparseError::UnsortedIndices { row } => {
                write!(f, "indices not strictly increasing in row {row}")
            }
            SparseError::DuplicateIndex { row, index } => {
                write!(f, "duplicate feature index {index} in row {row}")
            }
            SparseError::NonFiniteValue { row } => {
                write!(f, "non-finite feature value in row {row}")
            }
            SparseError::BadWeight { row, weight } => write!(
                f,
                "importance weight {weight} of row {row} is not a finite, non-negative number"
            ),
            SparseError::BadLabel { row, label } => {
                write!(f, "label {label} in row {row} is not interpretable as ±1")
            }
            SparseError::Parse { line, msg } => write!(f, "parse error on line {line}: {msg}"),
            SparseError::Io(msg) => write!(f, "io error: {msg}"),
            SparseError::Empty => write!(f, "dataset is empty"),
            SparseError::RowOutOfRange { row, rows } => {
                write!(f, "row {row} out of range for a dataset of {rows} rows")
            }
            SparseError::ShardCount { shards, rows } => {
                write!(
                    f,
                    "cannot cut {rows} rows into {shards} shards: need 1..={rows}"
                )
            }
            SparseError::DimMismatch { expected, found } => {
                write!(f, "dimension mismatch: expected {expected}, found {found}")
            }
        }
    }
}

impl std::error::Error for SparseError {}

impl From<std::io::Error> for SparseError {
    fn from(e: std::io::Error) -> Self {
        SparseError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SparseError::IndexOutOfBounds { index: 7, dim: 4 };
        assert!(e.to_string().contains('7'));
        assert!(e.to_string().contains('4'));
        let e = SparseError::Parse {
            line: 3,
            msg: "bad token".into(),
        };
        assert!(e.to_string().contains("line 3"));
    }

    #[test]
    fn row_and_shard_count_errors_name_rows() {
        let e = SparseError::RowOutOfRange {
            row: 1 << 40,
            rows: 3,
        };
        assert_eq!(
            e.to_string(),
            "row 1099511627776 out of range for a dataset of 3 rows"
        );
        let e = SparseError::ShardCount { shards: 5, rows: 2 };
        assert_eq!(e.to_string(), "cannot cut 2 rows into 5 shards: need 1..=2");
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: SparseError = io.into();
        assert!(matches!(e, SparseError::Io(_)));
        assert!(e.to_string().contains("gone"));
    }
}
