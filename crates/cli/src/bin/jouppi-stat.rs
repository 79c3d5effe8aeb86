//! `jouppi-stat` — trace statistics, footprints, and miss-rate curves.
//! See [`jouppi_cli::stat`] for the option reference.

#![warn(clippy::cast_possible_truncation)]

use std::process::ExitCode;

use jouppi_cli::stat;

fn main() -> ExitCode {
    jouppi_cli::finish(
        stat::parse_stat_args(std::env::args().skip(1)),
        stat::STAT_USAGE,
        stat::run_stat,
    )
}
