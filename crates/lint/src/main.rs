//! `jouppi-lint` — see [`jouppi_lint`] for the lint catalog and
//! suppression syntax.

use std::process::ExitCode;

fn main() -> ExitCode {
    let result = jouppi_lint::cli::run(std::env::args().skip(1));
    print!("{}", result.stdout);
    eprint!("{}", result.stderr);
    ExitCode::from(result.code)
}
