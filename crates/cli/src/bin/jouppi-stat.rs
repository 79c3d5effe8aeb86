//! `jouppi-stat` — trace statistics, footprints, and miss-rate curves.
//! See [`jouppi_cli::stat`] for the option reference.

#![warn(clippy::cast_possible_truncation)]

use std::process::ExitCode;

fn main() -> ExitCode {
    let opts = match jouppi_cli::stat::parse_stat_args(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    match jouppi_cli::stat::run_stat(&opts) {
        Ok(report) => {
            println!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
