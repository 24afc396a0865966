//! Experiment output: markdown to stdout, CSV into `results/`.

use moqdns_stats::Table;
use std::path::PathBuf;

/// `results/` under the current directory (CI and the docs run from the
/// repository root). Not the checkout that compiled the binary: a binary
/// run from, or copied to, another tree must not write into this one.
pub fn results_dir() -> PathBuf {
    PathBuf::from("results")
}

/// Prints the table as markdown and writes `results/<name>.csv`.
pub fn emit(table: &Table, name: &str) {
    println!("{}", table.to_markdown());
    let path = results_dir().join(format!("{name}.csv"));
    if let Err(e) = table.write_csv(&path) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        println!("[csv] {}\n", path.display());
    }
}

/// Prints a section heading.
pub fn heading(title: &str) {
    println!("\n== {title} ==\n");
}
