//! Plain-text table rendering for monitor output and reports.
//!
//! The paper's "monitor" displays emulation statistics on the user's PC
//! screen; every harness binary in this workspace renders its results
//! through [`TextTable`] so tables look uniform and can be diffed
//! against `EXPERIMENTS.md`.

use core::fmt;

/// Column alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Align {
    /// Left-aligned (default; textual columns).
    #[default]
    Left,
    /// Right-aligned (numeric columns).
    Right,
}

/// A simple monospace table builder.
///
/// # Examples
///
/// ```
/// use nocem_common::table::{Align, TextTable};
/// let mut t = TextTable::new(vec!["Device".into(), "Slices".into()]);
/// t.align(1, Align::Right);
/// t.row(vec!["TG stochastic".into(), "719".into()]);
/// t.row(vec!["Control module".into(), "18".into()]);
/// let s = t.to_string();
/// assert!(s.contains("TG stochastic"));
/// assert!(s.lines().count() >= 4);
/// ```
#[derive(Debug, Clone)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
    aligns: Vec<Align>,
    title: Option<String>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(header: Vec<String>) -> Self {
        let aligns = vec![Align::Left; header.len()];
        TextTable {
            header,
            rows: Vec::new(),
            aligns,
            title: None,
        }
    }

    /// Convenience constructor from string slices.
    pub fn with_columns(cols: &[&str]) -> Self {
        Self::new(cols.iter().map(|c| (*c).to_owned()).collect())
    }

    /// Sets a title printed above the table.
    pub fn title(&mut self, title: impl Into<String>) -> &mut Self {
        self.title = Some(title.into());
        self
    }

    /// Sets the alignment of column `col`.
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of bounds.
    pub fn align(&mut self, col: usize, align: Align) -> &mut Self {
        self.aligns[col] = align;
        self
    }

    /// Appends a row. Shorter rows are padded with empty cells; longer
    /// rows are truncated to the header width.
    pub fn row(&mut self, mut cells: Vec<String>) -> &mut Self {
        cells.resize(self.header.len(), String::new());
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn widths(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.header.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                w[i] = w[i].max(cell.chars().count());
            }
        }
        w
    }
}

impl fmt::Display for TextTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let widths = self.widths();
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                let pad = widths[i].saturating_sub(cell.chars().count());
                match self.aligns[i] {
                    Align::Left => {
                        line.push_str(cell);
                        line.extend(std::iter::repeat_n(' ', pad));
                    }
                    Align::Right => {
                        line.extend(std::iter::repeat_n(' ', pad));
                        line.push_str(cell);
                    }
                }
            }
            writeln!(f, "{}", line.trim_end())
        };

        if let Some(title) = &self.title {
            writeln!(f, "{title}")?;
        }
        write_row(f, &self.header)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_header_separator_rows() {
        let mut t = TextTable::with_columns(&["a", "b"]);
        t.row(vec!["x".into(), "y".into()]);
        let s = t.to_string();
        let lines: Vec<_> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].starts_with('-'));
    }

    #[test]
    fn right_alignment_pads_left() {
        let mut t = TextTable::with_columns(&["name", "value"]);
        t.align(1, Align::Right);
        t.row(vec!["x".into(), "7".into()]);
        t.row(vec!["y".into(), "1234".into()]);
        let s = t.to_string();
        assert!(s.contains("    7"), "short value right-aligned:\n{s}");
    }

    #[test]
    fn short_rows_are_padded_long_rows_truncated() {
        let mut t = TextTable::with_columns(&["a", "b"]);
        t.row(vec!["only".into()]);
        t.row(vec!["1".into(), "2".into(), "3".into()]);
        assert_eq!(t.len(), 2);
        let s = t.to_string();
        assert!(!s.contains('3'), "extra cell must be dropped:\n{s}");
    }

    #[test]
    fn title_is_printed_first() {
        let mut t = TextTable::with_columns(&["a"]);
        t.title("Table 1");
        t.row(vec!["v".into()]);
        assert!(t.to_string().starts_with("Table 1\n"));
    }

    #[test]
    fn empty_table_reports_empty() {
        let t = TextTable::with_columns(&["a"]);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
    }
}
