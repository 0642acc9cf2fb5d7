use std::fmt;

/// How much of a sweep's cells actually completed — the salvage annotation
/// every figure carries when some workloads failed. Renders as
/// an empty string when coverage is full, so complete reports stay
/// byte-identical to the pre-supervisor output.
///
/// # Example
///
/// ```
/// use crisp_core::Coverage;
/// assert_eq!(Coverage::new(15, 15).to_string(), "");
/// assert_eq!(
///     Coverage::new(13, 15).to_string(),
///     " [DEGRADED (13/15 workloads)]"
/// );
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Coverage {
    /// Cells that completed and contributed real numbers.
    pub completed: usize,
    /// Cells the sweep attempted.
    pub total: usize,
}

impl Coverage {
    /// Creates a coverage annotation for `completed` of `total` cells.
    pub fn new(completed: usize, total: usize) -> Coverage {
        Coverage { completed, total }
    }

    /// Whether every cell completed.
    pub fn is_full(&self) -> bool {
        self.completed >= self.total
    }
}

impl fmt::Display for Coverage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_full() {
            Ok(())
        } else {
            write!(
                f,
                " [DEGRADED ({}/{} workloads)]",
                self.completed, self.total
            )
        }
    }
}

/// A minimal aligned-text table for experiment reports (the figures binary
/// prints every reproduced table/figure through this).
///
/// # Example
///
/// ```
/// use crisp_core::Table;
/// let mut t = Table::new(vec!["workload", "IPC"]);
/// t.row(vec!["mcf".into(), format!("{:.3}", 0.412)]);
/// let s = t.to_string();
/// assert!(s.contains("workload"));
/// assert!(s.contains("0.412"));
/// ```
#[derive(Clone, Debug)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Table {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width mismatches header"
        );
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let print_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (c, cell) in cells.iter().enumerate() {
                if c > 0 {
                    write!(f, "  ")?;
                }
                // Left-align the first column, right-align the rest.
                if c == 0 {
                    write!(f, "{cell:<width$}", width = widths[c])?;
                } else {
                    write!(f, "{cell:>width$}", width = widths[c])?;
                }
            }
            writeln!(f)
        };
        print_row(f, &self.header)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            print_row(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(vec!["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["longer-name".into(), "123.456".into()]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].starts_with('-'));
        // Right-aligned numeric column: both rows end at the same offset.
        assert_eq!(lines[2].len(), lines[3].len());
        assert!(!t.is_empty());
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_is_checked() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn coverage_annotates_only_partial_sweeps() {
        assert!(Coverage::new(3, 3).is_full());
        assert_eq!(Coverage::new(3, 3).to_string(), "");
        let partial = Coverage::new(1, 4);
        assert!(!partial.is_full());
        assert_eq!(partial.to_string(), " [DEGRADED (1/4 workloads)]");
    }
}
