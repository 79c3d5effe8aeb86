//! `jouppi` — the umbrella command.
//!
//! ```text
//! jouppi serve [OPTIONS]   run the simulation-as-a-service daemon
//! jouppi sim [OPTIONS]     one-shot simulation (same flags as jouppi-sim)
//! jouppi lint [OPTIONS]    check the workspace invariants (jouppi-lint)
//! ```

#![warn(clippy::cast_possible_truncation)]

use std::process::ExitCode;

use jouppi_cli::serve_cmd;

const USAGE: &str = "\
usage: jouppi <command> [OPTIONS]

commands:
  serve   run the HTTP simulation service (see 'jouppi serve --help')
  sim     simulate one cache organization (see 'jouppi sim --help')
  lint    check determinism/robustness invariants (see 'jouppi lint --help')";

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("serve") => jouppi_cli::finish(
            serve_cmd::parse_serve_args(args),
            serve_cmd::SERVE_USAGE,
            serve_cmd::run_serve,
        ),
        Some("sim") => jouppi_cli::finish(
            jouppi_cli::parse_args(args),
            jouppi_cli::USAGE,
            jouppi_cli::run,
        ),
        Some("lint") => {
            let result = jouppi_lint::cli::run(args);
            print!("{}", result.stdout);
            eprint!("{}", result.stderr);
            ExitCode::from(result.code)
        }
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
