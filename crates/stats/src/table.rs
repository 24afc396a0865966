//! Table rendering: markdown for the terminal/EXPERIMENTS.md, CSV for
//! `results/`.

use std::fmt::Write as _;
use std::path::Path;

/// A simple column-oriented results table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    title: String,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            title: title.into(),
        }
    }

    /// Appends a row (must match the header arity).
    pub fn row(&mut self, cells: &[String]) -> &mut Table {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Convenience: appends a row of display-able values.
    pub fn push<T: std::fmt::Display>(&mut self, cells: &[T]) -> &mut Table {
        let cells: Vec<String> = cells.iter().map(|c| c.to_string()).collect();
        self.row(&cells)
    }

    /// Renders GitHub-flavoured markdown with padded columns.
    pub fn to_markdown(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "### {}\n", self.title);
        }
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let padded: Vec<String> = cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect();
            format!("| {} |", padded.join(" | "))
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers, &widths));
        let dashes: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        let _ = writeln!(out, "{}", fmt_row(&dashes, &widths));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }

    /// Renders CSV (RFC 4180-ish; quotes cells containing commas/quotes).
    pub fn to_csv(&self) -> String {
        let esc = |c: &String| {
            if c.contains(',') || c.contains('"') || c.contains('\n') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.clone()
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.headers.iter().map(esc).collect::<Vec<_>>().join(",")
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.iter().map(esc).collect::<Vec<_>>().join(","));
        }
        out
    }

    /// Writes the CSV form to `path` (creating parent directories).
    pub fn write_csv(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_csv())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("Latency", &["mode", "rtt"]);
        t.push(&["udp", "1"]);
        t.push(&["moqt-cold", "3"]);
        t
    }

    #[test]
    fn markdown_shape() {
        let md = sample().to_markdown();
        assert!(md.contains("### Latency"));
        assert!(md.contains("| mode      | rtt |"));
        assert!(md.contains("| moqt-cold | 3   |"));
        assert!(md.lines().count() >= 5);
    }

    #[test]
    fn csv_escaping() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["plain".into(), "with,comma \"q\"".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("plain,\"with,comma \"\"q\"\"\""));
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn write_csv_roundtrip() {
        let dir = std::env::temp_dir().join("moqdns-stats-test");
        let path = dir.join("t.csv");
        sample().write_csv(&path).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("mode,rtt"));
        let _ = std::fs::remove_dir_all(dir);
    }
}
