//! The command-line driver shared by the `jouppi-lint` binary and the
//! `jouppi lint` subcommand.
//!
//! The driver returns rendered output instead of printing so library
//! code stays print-free (clippy's `print_stdout`/`print_stderr` apply
//! to every library root — binaries do the printing).

use std::path::PathBuf;

use crate::report;
use crate::workspace::{find_root, scan_files, scan_workspace};

/// Usage text for `--help`.
pub const USAGE: &str = "\
usage: jouppi-lint [OPTIONS] [FILES...]
  --workspace        lint the whole workspace (default when no FILES given)
  --root DIR         workspace root (default: nearest [workspace] Cargo.toml)
  --json             machine-readable report on stdout
  --timings          per-analysis wall-clock cost on stderr
  --budget-ms N      fail (exit 1) when the scan's total analysis time
                     exceeds N milliseconds — CI's cost ratchet
  --list             print the lint catalog and exit
  --help             show this message

FILES are workspace-relative .rs paths; exit status is 0 when clean,
1 when findings exist (or the budget is exceeded), 2 on usage or I/O
errors.";

/// What a CLI invocation produced.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CliResult {
    /// Text for stdout.
    pub stdout: String,
    /// Text for stderr.
    pub stderr: String,
    /// Process exit code: 0 clean, 1 findings, 2 error.
    pub code: u8,
}

fn error(msg: impl Into<String>) -> CliResult {
    CliResult {
        stdout: String::new(),
        stderr: format!("jouppi-lint: {}\n", msg.into()),
        code: 2,
    }
}

/// Parses arguments and runs the requested scan.
pub fn run<I: IntoIterator<Item = String>>(args: I) -> CliResult {
    let mut json = false;
    let mut root_override: Option<PathBuf> = None;
    let mut files: Vec<String> = Vec::new();
    let mut workspace = false;
    let mut want_timings = false;
    let mut budget_ms: Option<u64> = None;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--json" => json = true,
            "--timings" => want_timings = true,
            "--budget-ms" => match args.next().map(|n| n.parse::<u64>()) {
                Some(Ok(ms)) => budget_ms = Some(ms),
                Some(Err(_)) => return error("--budget-ms needs a whole number of milliseconds"),
                None => return error("--budget-ms needs a whole number of milliseconds"),
            },
            "--list" => {
                return CliResult {
                    stdout: report::catalog(),
                    stderr: String::new(),
                    code: 0,
                }
            }
            "--root" => match args.next() {
                Some(dir) => root_override = Some(PathBuf::from(dir)),
                None => return error("--root needs a directory"),
            },
            "--help" | "-h" => {
                return CliResult {
                    stdout: format!("{USAGE}\n"),
                    stderr: String::new(),
                    code: 0,
                }
            }
            other if other.starts_with('-') => {
                return error(format!("unknown option '{other}'\n{USAGE}"))
            }
            file => files.push(file.to_owned()),
        }
    }
    if workspace && !files.is_empty() {
        return error("--workspace and explicit FILES are mutually exclusive");
    }
    let root = match root_override {
        Some(dir) => dir,
        None => {
            let cwd = match std::env::current_dir() {
                Ok(cwd) => cwd,
                Err(e) => return error(format!("cannot determine cwd: {e}")),
            };
            match find_root(&cwd) {
                Some(root) => root,
                None => return error("no [workspace] Cargo.toml above the current directory"),
            }
        }
    };
    let result = if files.is_empty() {
        scan_workspace(&root)
    } else {
        scan_files(&root, &files)
    };
    let result = match result {
        Ok(r) => r,
        Err(e) => return error(format!("scan failed under {}: {e}", root.display())),
    };
    let mut stderr = String::new();
    if want_timings {
        stderr.push_str(&report::timings(&result));
    }
    let mut over_budget = false;
    if let Some(budget) = budget_ms {
        let total: std::time::Duration = result.timings.iter().map(|(_, d)| *d).sum();
        let total_ms = total.as_secs_f64() * 1e3;
        if total_ms > budget as f64 {
            over_budget = true;
            stderr.push_str(&format!(
                "jouppi-lint: analysis took {total_ms:.1}ms, over the {budget}ms budget\n"
            ));
        }
    }

    let stdout = if json {
        report::to_json(&result).encode() + "\n"
    } else {
        report::human(&result)
    };
    CliResult {
        stdout,
        stderr,
        code: u8::from(!result.is_clean() || over_budget),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_string()).collect()
    }

    fn repo_root() -> String {
        let here = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        find_root(here)
            .expect("workspace root")
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn list_and_help_exit_zero() {
        let r = run(args(&["--list"]));
        assert_eq!(r.code, 0);
        assert!(r.stdout.contains("lock-held-across-call"));
        let r = run(args(&["--help"]));
        assert_eq!(r.code, 0);
        assert!(r.stdout.contains("usage:"));
    }

    #[test]
    fn bad_flags_exit_two() {
        assert_eq!(run(args(&["--frobnicate"])).code, 2);
        assert_eq!(run(args(&["--root"])).code, 2);
        assert_eq!(run(args(&["--workspace", "src/lib.rs"])).code, 2);
        assert_eq!(run(args(&["--budget-ms"])).code, 2);
        assert_eq!(run(args(&["--budget-ms", "soon"])).code, 2);
    }

    #[test]
    fn budget_gate_fails_only_when_exceeded() {
        let root = repo_root();
        let file = "crates/lint/src/lexer.rs";
        // Any real scan takes more than 0ms.
        let r = run(args(&["--root", &root, "--budget-ms", "0", file]));
        assert_eq!(r.code, 1, "stderr: {}", r.stderr);
        assert!(r.stderr.contains("budget"), "stderr: {}", r.stderr);
        // A minute covers a one-file scan on any machine.
        let r = run(args(&["--root", &root, "--budget-ms", "60000", file]));
        assert_eq!(r.code, 0, "stderr: {}", r.stderr);
        assert!(r.stderr.is_empty(), "stderr: {}", r.stderr);
    }

    #[test]
    fn single_file_scan_with_explicit_root() {
        let root = repo_root();
        let r = run(args(&["--root", &root, "crates/lint/src/lexer.rs"]));
        assert_eq!(r.code, 0, "stderr: {}", r.stderr);
        assert!(r.stdout.contains("clean"));
    }

    #[test]
    fn json_flag_emits_json() {
        let root = repo_root();
        let r = run(args(&[
            "--root",
            &root,
            "--json",
            "crates/lint/src/lexer.rs",
        ]));
        assert_eq!(r.code, 0, "stderr: {}", r.stderr);
        let doc = jouppi_serve::json::Json::parse(r.stdout.trim()).expect("valid JSON");
        assert_eq!(
            doc.get("clean"),
            Some(&jouppi_serve::json::Json::Bool(true))
        );
    }
}
