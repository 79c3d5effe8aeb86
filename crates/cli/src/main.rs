//! `jouppi-sim` — command-line cache simulator. See [`jouppi_cli`] for
//! the option reference.

#![warn(clippy::cast_possible_truncation)]

use std::process::ExitCode;

fn main() -> ExitCode {
    let opts = match jouppi_cli::parse_args(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    match jouppi_cli::run(&opts) {
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
