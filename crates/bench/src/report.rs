//! Aligned markdown table rendering for experiment outputs.

/// A simple aligned markdown table builder.
///
/// # Example
///
/// ```
/// use chameleon_bench::report::Table;
///
/// let mut t = Table::new(&["Method", "Acc (%)"]);
/// t.row(&["Chameleon", "79.48"]);
/// let s = t.render();
/// assert!(s.contains("| Chameleon"));
/// ```
#[derive(Clone, Debug)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics if `headers` is empty.
    pub fn new(headers: &[&str]) -> Self {
        assert!(!headers.is_empty(), "table needs at least one column");
        Self {
            headers: headers.iter().map(ToString::to_string).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the header count.
    pub fn row(&mut self, cells: &[&str]) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows
            .push(cells.iter().map(ToString::to_string).collect());
    }

    /// Appends a row from owned strings.
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the header count.
    pub fn row_owned(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match headers"
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

    /// Renders the table as aligned GitHub-flavoured markdown.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("|");
            for (cell, w) in cells.iter().zip(widths) {
                line.push_str(&format!(" {cell:w$} |"));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('|');
        for w in &widths {
            out.push_str(&format!("{}|", "-".repeat(w + 2)));
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        let _ = cols;
        out
    }
}

/// Formats a float with the given number of decimals, or `—` when NaN.
pub fn fmt_or_dash(v: f64, decimals: usize) -> String {
    if v.is_nan() {
        "—".to_string()
    } else {
        format!("{v:.decimals$}")
    }
}

/// Writes a bench's JSON document to `results/<file>` under the working
/// directory (run from the repo root to update the committed artifact),
/// exiting the process with status 1 if it cannot.
pub fn write_results(file: &str, json: &str) {
    let path = format!("results/{file}");
    if let Err(e) = std::fs::create_dir_all("results").and_then(|()| std::fs::write(&path, json)) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    }
    eprintln!("  wrote {path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_markdown() {
        let mut t = Table::new(&["A", "Long header"]);
        t.row(&["x", "1"]);
        t.row(&["yyyy", "2"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines have equal width.
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
        assert!(lines[1].starts_with("|--"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new(&["A", "B"]);
        t.row(&["only one"]);
    }

    #[test]
    fn fmt_or_dash_handles_nan() {
        assert_eq!(fmt_or_dash(f64::NAN, 1), "—");
        assert_eq!(fmt_or_dash(12.3456, 2), "12.35");
    }

    #[test]
    fn len_and_empty() {
        let mut t = Table::new(&["A"]);
        assert!(t.is_empty());
        t.row_owned(vec!["1".into()]);
        assert_eq!(t.len(), 1);
    }
}
