//! Fixed-width text tables for experiment output.

use std::fmt::Write as _;

/// A simple right-aligned fixed-width text table with a header row.
///
/// Used by the experiment binaries to print Table-1-style summaries next
/// to the paper's reference values; also serializes to CSV.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        TextTable {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; missing cells render empty, extra cells are kept
    /// (they widen the table).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        self.rows.push(cells.into_iter().map(Into::into).collect());
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no data rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The cells under `header`, top to bottom (a row too short to have
    /// one reads as empty; an unknown header as no cells) — how a check
    /// reads a filled table back.
    pub fn column(&self, header: &str) -> Vec<&str> {
        let Some(i) = self.headers.iter().position(|h| h == header) else {
            return Vec::new();
        };
        self.rows
            .iter()
            .map(|r| r.get(i).map_or("", String::as_str))
            .collect()
    }

    fn widths(&self) -> Vec<usize> {
        let ncols = self
            .rows
            .iter()
            .map(|r| r.len())
            .chain([self.headers.len()])
            .max()
            .unwrap_or(0);
        let mut w = vec![0usize; ncols];
        for (i, h) in self.headers.iter().enumerate() {
            w[i] = w[i].max(h.len());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                w[i] = w[i].max(c.len());
            }
        }
        w
    }

    /// Renders to an aligned multi-line string.
    pub fn render(&self) -> String {
        let w = self.widths();
        let mut out = String::new();
        let fmt_row = |cells: &[String], w: &[usize], out: &mut String| {
            for (i, width) in w.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:>width$}");
            }
            out.push('\n');
        };
        fmt_row(&self.headers, &w, &mut out);
        let total: usize = w.iter().sum::<usize>() + 2 * w.len().saturating_sub(1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(row, &w, &mut out);
        }
        out
    }

    /// Renders to CSV (no quoting — cells are numeric/identifier-like).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.headers.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

/// Formats a float compactly for table cells (4 significant digits,
/// scientific below 1e-3).
pub fn fmt_num(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() < 1e-3 || x.abs() >= 1e6 {
        format!("{x:.3e}")
    } else {
        format!("{x:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = TextTable::new(vec!["name", "value"]);
        t.row(vec!["a", "1"]);
        t.row(vec!["longer", "22"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[1].starts_with('-'));
        // All rows have the same width.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn csv_output() {
        let mut t = TextTable::new(vec!["a", "b"]);
        t.row(vec!["1", "2"]);
        assert_eq!(t.to_csv(), "a,b\n1,2\n");
    }

    #[test]
    fn column_reads_cells_back() {
        let mut t = TextTable::new(vec!["a", "b"]);
        t.row(vec!["1", "2"]);
        t.row(vec!["3"]);
        assert_eq!(t.column("b"), ["2", ""]);
        assert!(t.column("c").is_empty());
    }

    #[test]
    fn ragged_rows_render() {
        let mut t = TextTable::new(vec!["a"]);
        t.row(vec!["1", "2", "3"]);
        t.row(Vec::<String>::new());
        let s = t.render();
        assert_eq!(s.lines().count(), 4);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn num_formatting() {
        assert_eq!(fmt_num(0.0), "0");
        assert_eq!(fmt_num(0.5), "0.5000");
        assert!(fmt_num(5e-4).contains('e'));
        assert!(fmt_num(2.5e7).contains('e'));
    }
}
