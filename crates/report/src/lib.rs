//! Plain-text reporting: aligned tables and ASCII charts.
//!
//! The experiment harness regenerates every table and figure of Jouppi
//! (ISCA 1990) on a terminal, so this crate provides the two renderers it
//! needs:
//!
//! * [`Table`] — aligned monospace tables with an optional markdown mode,
//! * [`Chart`] — multi-series ASCII line charts (the paper's figures),
//!   with per-series glyphs and a legend,
//! * [`BarChart`] — stacked horizontal bars (Figures 2-2 and 5-1's
//!   performance-lost stacks).
//!
//! Everything is dependency-free and deterministic: rendering the same
//! data yields byte-identical output, which the experiment tests rely on.
//!
//! # Examples
//!
//! ```
//! use jouppi_report::Table;
//!
//! let mut t = Table::new(["bench", "miss rate"]);
//! t.row(["ccom", "0.096"]);
//! t.row(["liver", "0.273"]);
//! let text = t.render();
//! assert!(text.contains("ccom"));
//! ```

#![warn(clippy::print_stdout, clippy::print_stderr)]
#![warn(
    clippy::unwrap_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::unreachable
)]
#![warn(clippy::cast_possible_truncation)]
#![warn(missing_docs)]

mod bars;
mod chart;
mod table;

pub use bars::{Bar, BarChart};
pub use chart::{Chart, Series};
pub use table::Table;

/// Formats a fraction as a percentage with one decimal, e.g. `0.435` →
/// `"43.5%"`.
///
/// # Examples
///
/// ```
/// assert_eq!(jouppi_report::percent(0.435), "43.5%");
/// assert_eq!(jouppi_report::percent(1.0), "100.0%");
/// ```
pub fn percent(fraction: f64) -> String {
    format!("{:.1}%", 100.0 * fraction)
}

/// Formats a miss rate with four decimals, e.g. `0.0957` → `"0.0957"`.
///
/// # Examples
///
/// ```
/// assert_eq!(jouppi_report::rate(0.09568), "0.0957");
/// ```
pub fn rate(value: f64) -> String {
    format!("{value:.4}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_and_rate_format() {
        assert_eq!(percent(0.0), "0.0%");
        assert_eq!(percent(0.5), "50.0%");
        assert_eq!(rate(0.12345), "0.1235");
        assert_eq!(rate(0.0), "0.0000");
    }
}
