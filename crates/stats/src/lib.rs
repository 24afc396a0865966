//! # moqdns-stats
//!
//! Small statistics and reporting toolkit for the experiment harness:
//! percentiles/summaries, rate formatting, and markdown/CSV tables.

pub mod rates;
pub mod summary;
pub mod table;

pub use rates::{format_bps, format_duration};
pub use summary::Summary;
pub use table::Table;
