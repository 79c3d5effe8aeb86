//! Exit status and output stream of every command-line binary: `--help`
//! prints the usage to stdout and exits 0; a bad flag, an unknown
//! command and a bare `jouppi` print to stderr and exit 1.

use std::process::{Command, Output};

/// Runs a built binary of this package with `args`.
fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("run {bin}: {e}"))
}

fn text(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("UTF-8 output")
}

const SIM: &str = env!("CARGO_BIN_EXE_jouppi-sim");
const STAT: &str = env!("CARGO_BIN_EXE_jouppi-stat");
const JOUPPI: &str = env!("CARGO_BIN_EXE_jouppi");

#[test]
fn help_prints_usage_to_stdout_and_succeeds() {
    for (bin, args, usage) in [
        (SIM, &["--help"][..], "usage: jouppi-sim"),
        (SIM, &["-h"][..], "usage: jouppi-sim"),
        (STAT, &["--help"][..], "usage: jouppi-stat"),
        (JOUPPI, &["serve", "--help"][..], "usage: jouppi serve"),
        (JOUPPI, &["--help"][..], "usage: jouppi <command>"),
    ] {
        let out = run(bin, args);
        assert_eq!(out.status.code(), Some(0), "{bin} {args:?}: {out:?}");
        assert!(
            text(&out.stdout).starts_with(usage),
            "{bin} {args:?}: {out:?}"
        );
        assert!(out.stderr.is_empty(), "{bin} {args:?}: {out:?}");
    }
}

#[test]
fn usage_errors_go_to_stderr_and_fail() {
    for (bin, args, message) in [
        (
            SIM,
            &["--frobnicate"][..],
            "unknown argument '--frobnicate'",
        ),
        (SIM, &["--scale", "0"][..], "--scale must be positive"),
        (
            SIM,
            &["--scale", "2000001"][..],
            "--scale must be at most 2000000",
        ),
        (
            SIM,
            &["--scale", "100000000000"][..],
            "--scale must be at most 2000000",
        ),
        (STAT, &["--bogus"][..], "unknown argument '--bogus'"),
        (
            STAT,
            &["--scale", "2000001"][..],
            "--scale must be at most 2000000",
        ),
        (
            STAT,
            &["--scale", "100000000000"][..],
            "--scale must be at most 2000000",
        ),
        (JOUPPI, &["serve", "--port", "huge"][..], "--port"),
        (JOUPPI, &["sim", "--help"][..], "unknown command 'sim'"),
        (JOUPPI, &[][..], "usage: jouppi <command>"),
        (JOUPPI, &["frob"][..], "unknown command 'frob'"),
    ] {
        let out = run(bin, args);
        assert_eq!(out.status.code(), Some(1), "{bin} {args:?}: {out:?}");
        assert!(
            text(&out.stderr).contains(message),
            "{bin} {args:?}: {out:?}"
        );
        assert!(out.stdout.is_empty(), "{bin} {args:?}: {out:?}");
    }
}
