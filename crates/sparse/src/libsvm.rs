//! LibSVM text format IO.
//!
//! The paper evaluates on LibSVM-distributed datasets (News20, URL,
//! KDD2010-Algebra/Bridge). This module parses and writes the standard
//! `label idx:val idx:val ...` text format with 1-based indices, so any real
//! LibSVM file can be dropped into the experiment harness in place of the
//! synthetic profiles.

use crate::dataset::{Dataset, DatasetBuilder};
use crate::error::SparseError;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

/// Parses LibSVM text from a reader.
///
/// * `dim` — optional dimensionality override; when `None`, the maximum
///   feature index observed defines the dimension.
/// * Labels: any value `> 0` maps to `+1`, `<= 0` (including `0`, and the
///   `-1`/`0` conventions in the wild) maps to `-1`; a non-finite label
///   (`nan`, `inf`) is a [`SparseError::Parse`] naming its line.
///
/// One pass: each line is parsed into one reused buffer of pairs and
/// pushed straight into the builder, so nothing but the dataset grows
/// with the file. The dimension is checked once the last line is read.
pub fn parse_reader<R: Read>(reader: R, dim: Option<usize>) -> Result<Dataset, SparseError> {
    let mut reader = BufReader::new(reader);
    // Every 0-based index is below `u32::MAX`, so no row is refused for
    // its dimension before the real one is known.
    let mut b = DatasetBuilder::new(u32::MAX as usize);
    let mut pairs = Vec::new();
    let mut max_index: u32 = 0;
    let mut line = String::new();
    let mut line_no = 0usize;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        line_no += 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut parts = trimmed.split_ascii_whitespace();
        let label_tok = parts.next().ok_or_else(|| SparseError::Parse {
            line: line_no,
            msg: "missing label".into(),
        })?;
        let raw_label: f64 = label_tok
            .parse()
            .ok()
            .filter(|l: &f64| l.is_finite())
            .ok_or_else(|| SparseError::Parse {
                line: line_no,
                msg: format!("bad label token '{label_tok}'"),
            })?;
        let label = if raw_label > 0.0 { 1.0 } else { -1.0 };
        pairs.clear();
        for tok in parts {
            let (idx_s, val_s) = tok.split_once(':').ok_or_else(|| SparseError::Parse {
                line: line_no,
                msg: format!("expected idx:val, got '{tok}'"),
            })?;
            let idx: u32 = idx_s.parse().map_err(|_| SparseError::Parse {
                line: line_no,
                msg: format!("bad index '{idx_s}'"),
            })?;
            if idx == 0 {
                return Err(SparseError::Parse {
                    line: line_no,
                    msg: "LibSVM indices are 1-based; found 0".into(),
                });
            }
            let val: f64 = val_s.parse().map_err(|_| SparseError::Parse {
                line: line_no,
                msg: format!("bad value '{val_s}'"),
            })?;
            max_index = max_index.max(idx);
            pairs.push((idx - 1, val)); // store 0-based
        }
        b.push_row(&pairs, label)?;
    }
    let inferred = max_index as usize;
    let dim = match dim {
        Some(d) => {
            if d < inferred {
                return Err(SparseError::DimMismatch {
                    expected: d,
                    found: inferred,
                });
            }
            d
        }
        None => inferred,
    };
    Ok(b.finish_with_dim(dim))
}

/// Parses a LibSVM file from disk.
pub fn read_file<P: AsRef<Path>>(path: P, dim: Option<usize>) -> Result<Dataset, SparseError> {
    let f = std::fs::File::open(path)?;
    parse_reader(f, dim)
}

/// Writes a dataset as LibSVM text (1-based indices, `%.17g`-style values).
pub fn write_writer<W: Write>(ds: &Dataset, mut w: W) -> Result<(), SparseError> {
    let mut line = String::new();
    for row in ds.rows() {
        line.clear();
        line.push_str(if row.label > 0.0 { "+1" } else { "-1" });
        for (i, v) in row.indices.iter().zip(row.values) {
            line.push(' ');
            line.push_str(&format!("{}:{}", i + 1, v));
        }
        line.push('\n');
        w.write_all(line.as_bytes())?;
    }
    Ok(())
}

/// Writes a dataset to a LibSVM file on disk.
pub fn write_file<P: AsRef<Path>>(ds: &Dataset, path: P) -> Result<(), SparseError> {
    let f = std::fs::File::create(path)?;
    write_writer(ds, std::io::BufWriter::new(f))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_basic_file() {
        let text = "+1 1:0.5 3:2\n-1 2:1\n";
        let ds = parse_reader(text.as_bytes(), None).unwrap();
        assert_eq!(ds.n_samples(), 2);
        assert_eq!(ds.dim(), 3);
        assert_eq!(ds.row(0).indices, &[0, 2]);
        assert_eq!(ds.row(0).values, &[0.5, 2.0]);
        assert_eq!(ds.label(1), -1.0);
    }

    #[test]
    fn label_conventions() {
        let text = "1 1:1\n0 1:1\n-1 1:1\n2 1:1\n";
        let ds = parse_reader(text.as_bytes(), None).unwrap();
        assert_eq!(ds.labels(), &[1.0, -1.0, -1.0, 1.0]);
    }

    #[test]
    fn skips_blank_and_comment_lines() {
        let text = "# header\n\n+1 1:1\n";
        let ds = parse_reader(text.as_bytes(), None).unwrap();
        assert_eq!(ds.n_samples(), 1);
    }

    #[test]
    fn rejects_zero_index() {
        let text = "+1 0:1\n";
        assert!(matches!(
            parse_reader(text.as_bytes(), None),
            Err(SparseError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn rejects_malformed_tokens() {
        for bad in [
            "+1 1-2",
            "+1 a:1",
            "+1 1:x",
            "notalabel 1:1",
            "nan 1:1",
            "inf 1:1",
            "-inf 1:1",
        ] {
            let r = parse_reader(format!("+1 1:1\n{bad}\n").as_bytes(), None);
            assert!(
                matches!(r, Err(SparseError::Parse { line: 2, .. })),
                "should reject {bad:?} on line 2, got {r:?}"
            );
        }
    }

    #[test]
    fn dim_override_checked() {
        let text = "+1 5:1\n";
        assert!(parse_reader(text.as_bytes(), Some(3)).is_err());
        let ds = parse_reader(text.as_bytes(), Some(10)).unwrap();
        assert_eq!(ds.dim(), 10);
    }

    #[test]
    fn roundtrip_through_text() {
        let text = "+1 1:0.5 3:2\n-1 2:1.25\n+1 1:-3\n";
        let ds = parse_reader(text.as_bytes(), None).unwrap();
        let mut buf = Vec::new();
        write_writer(&ds, &mut buf).unwrap();
        let ds2 = parse_reader(buf.as_slice(), Some(ds.dim())).unwrap();
        assert_eq!(ds, ds2);
    }

    #[test]
    fn unsorted_indices_within_line_are_sorted() {
        let text = "+1 3:3 1:1\n";
        let ds = parse_reader(text.as_bytes(), None).unwrap();
        assert_eq!(ds.row(0).indices, &[0, 2]);
    }

    /// Errors keep their line (a comment line counts) or row (it does
    /// not) however many good rows came before them.
    #[test]
    fn errors_after_many_good_rows_name_their_line_or_row() {
        let good: String = (0..1000).map(|i| format!("+1 {}:1\n", 1 + i % 7)).collect();
        let text = |last: &str| format!("# header\n{good}{last}\n");
        assert!(matches!(
            parse_reader(text("-1 3:0.5 4:x").as_bytes(), None),
            Err(SparseError::Parse { line: 1002, .. })
        ));
        assert_eq!(
            parse_reader(text("-1 3:1 3:2").as_bytes(), None).unwrap_err(),
            SparseError::DuplicateIndex {
                row: 1000,
                index: 2
            }
        );
        assert_eq!(
            parse_reader(text("-1 9:1").as_bytes(), Some(8)).unwrap_err(),
            SparseError::DimMismatch {
                expected: 8,
                found: 9
            }
        );
        assert_eq!(
            parse_reader(text("-1 9:1").as_bytes(), None).unwrap().dim(),
            9
        );
    }

    #[test]
    fn duplicate_index_within_line_rejected() {
        let text = "+1 2:1 2:5\n";
        assert!(parse_reader(text.as_bytes(), None).is_err());
    }
}
