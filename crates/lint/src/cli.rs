//! The command-line driver behind the `jouppi-lint` binary.
//!
//! The driver returns rendered output instead of printing so library
//! code stays print-free (clippy's `print_stdout`/`print_stderr` apply
//! to every library root — binaries do the printing).

use std::path::PathBuf;

use crate::report;
use crate::workspace::{find_root, scan_workspace};

/// Usage text for `--help`.
pub const USAGE: &str = "\
usage: jouppi-lint [OPTIONS]
  --root DIR         workspace root (default: nearest [workspace] Cargo.toml)
  --timings          per-analysis wall-clock cost on stderr
  --budget-ms N      fail (exit 1) when the scan's total analysis time
                     exceeds N milliseconds — CI's cost ratchet
  --list             print the lint catalog and exit
  --help             show this message

Scans every src/ tree of the workspace; exit status is 0 when clean,
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

/// Parses arguments and runs the workspace scan.
pub fn run<I: IntoIterator<Item = String>>(args: I) -> CliResult {
    let mut root_override: Option<PathBuf> = None;
    let mut want_timings = false;
    let mut budget_ms: Option<u64> = None;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--timings" => want_timings = true,
            "--budget-ms" => match args.next().map(|n| n.parse::<u64>()) {
                Some(Ok(ms)) => budget_ms = Some(ms),
                Some(Err(_)) | None => {
                    return error("--budget-ms needs a whole number of milliseconds")
                }
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
            other => return error(format!("unknown argument '{other}'\n{USAGE}")),
        }
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
    let result = match scan_workspace(&root) {
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
    CliResult {
        stdout: report::human(&result),
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

    /// A throwaway workspace holding one clean source file.
    fn one_file_workspace(tag: &str) -> PathBuf {
        let root =
            std::env::temp_dir().join(format!("jouppi-lint-cli-{}-{tag}", std::process::id()));
        let src = root.join("crates/core/src");
        std::fs::create_dir_all(&src).expect("mkdir");
        std::fs::write(root.join("Cargo.toml"), "[workspace]\n").expect("write manifest");
        std::fs::write(src.join("lib.rs"), "pub fn f() -> u64 { 1 }\n").expect("write source");
        root
    }

    fn run_in(root: &std::path::Path, extra: &[&str]) -> CliResult {
        let mut list = vec!["--root".to_owned(), root.to_string_lossy().into_owned()];
        list.extend(args(extra));
        run(list)
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
        assert_eq!(run(args(&["--budget-ms"])).code, 2);
        assert_eq!(run(args(&["--budget-ms", "soon"])).code, 2);
        // The scan is always the whole workspace: no JSON document, no
        // workspace flag, no file list.
        for removed in [&["--json"][..], &["--workspace"], &["src/lib.rs"]] {
            let r = run(args(removed));
            assert_eq!(r.code, 2, "{removed:?}");
            assert!(r.stdout.is_empty(), "{removed:?}: {}", r.stdout);
            assert!(r.stderr.contains("usage:"), "{removed:?}: {}", r.stderr);
        }
    }

    #[test]
    fn budget_gate_fails_only_when_exceeded() {
        let root = one_file_workspace("budget");
        // Any real scan takes more than 0ms.
        let r = run_in(&root, &["--budget-ms", "0"]);
        assert_eq!(r.code, 1, "stderr: {}", r.stderr);
        assert!(r.stderr.contains("budget"), "stderr: {}", r.stderr);
        // A minute covers a one-file scan on any machine.
        let r = run_in(&root, &["--budget-ms", "60000"]);
        assert_eq!(r.code, 0, "stderr: {}", r.stderr);
        assert!(r.stderr.is_empty(), "stderr: {}", r.stderr);
        std::fs::remove_dir_all(&root).expect("remove temp workspace");
    }

    #[test]
    fn single_file_scan_with_explicit_root() {
        let root = one_file_workspace("single");
        let r = run_in(&root, &[]);
        assert_eq!(r.code, 0, "stderr: {}", r.stderr);
        assert_eq!(r.stdout, "jouppi-lint: clean — 1 files, 0 findings\n");
        std::fs::remove_dir_all(&root).expect("remove temp workspace");
    }
}
