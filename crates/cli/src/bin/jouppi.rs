//! `jouppi` — the umbrella command.
//!
//! ```text
//! jouppi serve [OPTIONS]   run the simulation-as-a-service daemon
//! ```
//!
//! One-shot simulation is the `jouppi-sim` binary.

#![warn(clippy::cast_possible_truncation)]

use std::process::ExitCode;

use jouppi_cli::serve_cmd;

const USAGE: &str = "\
usage: jouppi <command> [OPTIONS]

commands:
  serve   run the HTTP simulation service (see 'jouppi serve --help')";

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("serve") => jouppi_cli::finish(
            serve_cmd::parse_serve_args(args),
            serve_cmd::SERVE_USAGE,
            serve_cmd::run_serve,
        ),
        Some("--help" | "-h") => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        None => {
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
        Some(other) => {
            eprintln!("unknown command '{other}'\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}
