//! `jouppi-sim` — command-line cache simulator. See [`jouppi_cli`] for
//! the option reference.

#![warn(clippy::cast_possible_truncation)]

use std::process::ExitCode;

fn main() -> ExitCode {
    jouppi_cli::finish(
        jouppi_cli::parse_args(std::env::args().skip(1)),
        jouppi_cli::USAGE,
        jouppi_cli::run,
    )
}
