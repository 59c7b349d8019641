//! Plain-text table formatting for the experiment harness output.
//!
//! The `experiments` binary reproduces the paper's tables and figures as
//! aligned text tables; this helper keeps the formatting consistent.

use std::fmt;

/// A simple column-aligned text table builder.
///
/// ```
/// use prema_metrics::TableBuilder;
///
/// let table = TableBuilder::new(vec!["policy".into(), "ANTT".into()])
///     .row(vec!["NP-FCFS".into(), "8.0".into()])
///     .row(vec!["PREMA".into(), "1.0".into()])
///     .build();
/// assert!(table.contains("NP-FCFS"));
/// assert!(table.lines().count() >= 4);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TableBuilder {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    title: Option<String>,
}

impl TableBuilder {
    /// Starts a table with the given column headers.
    pub fn new(headers: Vec<String>) -> Self {
        TableBuilder {
            headers,
            rows: Vec::new(),
            title: None,
        }
    }

    /// Sets an optional title printed above the table.
    pub fn title(mut self, title: impl Into<String>) -> Self {
        self.title = Some(title.into());
        self
    }

    /// Appends one row. Rows shorter than the header are padded with empty
    /// cells; longer rows are truncated to the header width.
    pub fn row(mut self, cells: Vec<String>) -> Self {
        self.rows.push(cells);
        self
    }

    /// Renders the table.
    pub fn build(&self) -> String {
        let columns = self.headers.len().max(1);
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        widths.resize(columns, 0);
        let mut normalized_rows = Vec::with_capacity(self.rows.len());
        for row in &self.rows {
            let mut cells: Vec<String> = row.iter().take(columns).cloned().collect();
            cells.resize(columns, String::new());
            for (width, cell) in widths.iter_mut().zip(&cells) {
                *width = (*width).max(cell.len());
            }
            normalized_rows.push(cells);
        }

        let mut out = String::new();
        if let Some(title) = &self.title {
            out.push_str(title);
            out.push('\n');
        }
        let format_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(cell, width)| format!("{cell:<width$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&format_row(&self.headers, &widths));
        out.push('\n');
        let total_width = widths.iter().sum::<usize>() + 2 * (columns.saturating_sub(1));
        out.push_str(&"-".repeat(total_width.max(4)));
        out.push('\n');
        for cells in &normalized_rows {
            out.push_str(&format_row(cells, &widths));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for TableBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.build())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_headers_separator_and_rows() {
        let table = TableBuilder::new(vec!["a".into(), "b".into()])
            .row(vec!["1".into(), "2".into()])
            .build();
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with('a'));
        assert!(lines[1].starts_with('-'));
        assert!(lines[2].starts_with('1'));
    }

    #[test]
    fn title_is_printed_first() {
        let table = TableBuilder::new(vec!["x".into()])
            .title("Figure 11")
            .build();
        assert!(table.starts_with("Figure 11\n"));
    }

    #[test]
    fn columns_are_aligned_to_longest_cell() {
        let table = TableBuilder::new(vec!["policy".into(), "v".into()])
            .row(vec!["NP-FCFS".into(), "1".into()])
            .row(vec!["PREMA-dynamic".into(), "2".into()])
            .build();
        let lines: Vec<&str> = table.lines().collect();
        let col = lines[3].find('2').unwrap();
        assert_eq!(lines[2].as_bytes()[col] as char, '1');
    }

    #[test]
    fn short_and_long_rows_are_normalized() {
        let table = TableBuilder::new(vec!["a".into(), "b".into()])
            .row(vec!["only-one".into()])
            .row(vec!["1".into(), "2".into(), "extra".into()])
            .build();
        assert!(table.contains("only-one"));
        assert!(!table.contains("extra"));
    }

    #[test]
    fn empty_table_still_renders_a_separator() {
        let empty = TableBuilder::new(vec![]);
        let text = empty.build();
        let lines: Vec<&str> = text.lines().collect();
        // Header line (blank) plus the minimum-width separator, no rows.
        assert_eq!(lines.len(), 2);
        assert!(lines[1].starts_with("----"));
    }

    #[test]
    fn display_matches_build() {
        let builder = TableBuilder::new(vec!["h".into()]).row(vec!["v".into()]);
        assert_eq!(builder.to_string(), builder.build());
    }
}
