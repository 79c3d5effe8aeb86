//! The per-file rules enforced by toolchain configuration rather than by
//! jouppi-lint, tested against the committed configuration itself: the
//! root manifest's `[workspace.lints]` tables, the root `clippy.toml`
//! (through `CLIPPY_CONF_DIR`) and the owning crate's root attributes.
//!
//! Each case writes a std-only throwaway crate to the system temp
//! directory. Its manifest carries the root's lint tables, its `lib.rs`
//! carries the owning crate root's inner attributes, and the fixture is
//! its one module. `cargo clippy -- -D warnings` then runs on it as
//! ci.sh runs on the workspace: the `bad` fixture must fail with every
//! expected lint and the `ok` fixture must pass.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use jouppi_serve::json::Json;

/// (fixture dir under `tests/fixtures/`, owning crate root, lint codes
/// the `bad` fixture must raise).
const CASES: [(&str, &str, &[&str]); 11] = [
    (
        "ambient-time",
        "crates/core/src/lib.rs",
        &["clippy::disallowed_types", "clippy::disallowed_methods"],
    ),
    // The daemon's crate root carries no blanket opt-out: only the
    // modules that enforce deadlines opt out, each with a reason.
    (
        "ambient-time",
        "crates/serve/src/lib.rs",
        &["clippy::disallowed_types", "clippy::disallowed_methods"],
    ),
    (
        "ambient-input",
        "crates/core/src/lib.rs",
        &["clippy::disallowed_methods"],
    ),
    (
        "ambient-rng",
        "crates/core/src/lib.rs",
        &["clippy::disallowed_types"],
    ),
    (
        "default-hasher",
        "crates/core/src/lib.rs",
        &["clippy::disallowed_types"],
    ),
    (
        "serve-panic",
        "crates/serve/src/lib.rs",
        &["clippy::unwrap_used", "clippy::expect_used"],
    ),
    (
        "panic-reachability",
        "crates/core/src/lib.rs",
        &[
            "clippy::unwrap_used",
            "clippy::panic",
            "clippy::todo",
            "clippy::unimplemented",
            "clippy::unreachable",
        ],
    ),
    ("forbid-unsafe", "crates/core/src/lib.rs", &["unsafe_code"]),
    (
        "debug-print",
        "crates/core/src/lib.rs",
        &["clippy::print_stdout", "clippy::dbg_macro"],
    ),
    (
        "truncating-cast",
        "crates/serve/src/lib.rs",
        &["clippy::cast_possible_truncation"],
    ),
    (
        "swallowed-result",
        "crates/core/src/lib.rs",
        &[
            "clippy::let_underscore_must_use",
            "clippy::unused_result_ok",
        ],
    ),
];

fn repo_root() -> PathBuf {
    jouppi_lint::find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root")
}

#[expect(
    clippy::disallowed_methods,
    reason = "the test reads the committed configuration and fixtures"
)]
fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The `[workspace.lints.*]` tables of a manifest, verbatim.
fn workspace_lint_tables(manifest: &str) -> String {
    let mut out = String::new();
    let mut inside = false;
    for line in manifest.lines() {
        if line.starts_with('[') {
            inside = line.starts_with("[workspace.lints");
        }
        if inside {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// The inner attributes (`#![…]` at the start of a line) of a crate
/// root, verbatim.
fn inner_attributes(src: &str) -> String {
    let mut out = String::new();
    let mut depth = 0i32;
    for line in src.lines() {
        if depth == 0 && !line.starts_with("#![") {
            continue;
        }
        let mut in_str = false;
        let mut escaped = false;
        for c in line.chars() {
            match (in_str, c) {
                (true, _) if escaped => escaped = false,
                (true, '\\') => escaped = true,
                (_, '"') => in_str = !in_str,
                (false, '[') => depth += 1,
                (false, ']') => depth -= 1,
                _ => {}
            }
        }
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// What clippy said about one fixture crate.
struct ClippyRun {
    passed: bool,
    codes: Vec<String>,
    rendered: String,
}

/// Runs `cargo clippy -- -D warnings` on a throwaway crate holding
/// `fixture` under the committed configuration.
fn clippy(temp: &Path, name: &str, crate_root: &str, fixture: &str) -> ClippyRun {
    let root = repo_root();
    let krate = temp.join(name);
    fs::create_dir_all(krate.join("src")).expect("mkdir fixture crate");
    let manifest = format!(
        "[workspace]\n\n{}\n[package]\nname = \"fixture\"\nversion = \"0.0.0\"\n\
         edition = \"2021\"\npublish = false\n\n[lints]\nworkspace = true\n",
        workspace_lint_tables(&read(&root.join("Cargo.toml")))
    );
    let lib = format!(
        "//! Clippy configuration fixture.\n\n{}\npub mod fixture;\n",
        inner_attributes(&read(&root.join(crate_root)))
    );
    fs::write(krate.join("Cargo.toml"), manifest).expect("write manifest");
    fs::write(krate.join("src/lib.rs"), lib).expect("write lib.rs");
    fs::write(krate.join("src/fixture.rs"), fixture).expect("write fixture");

    #[expect(
        clippy::disallowed_methods,
        reason = "runs the cargo that runs the test"
    )]
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_owned());
    let out = Command::new(cargo)
        .args(["clippy", "--offline", "--quiet", "--message-format=json"])
        .args(["--", "-D", "warnings"])
        .current_dir(&krate)
        .env("CLIPPY_CONF_DIR", &root)
        .env("CARGO_TARGET_DIR", temp.join("target"))
        .output()
        .expect("run cargo clippy");
    let mut codes = Vec::new();
    let mut rendered = String::from_utf8_lossy(&out.stderr).into_owned();
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let Ok(msg) = Json::parse(line) else { continue };
        let Some(message) = msg.get("message") else {
            continue;
        };
        if let Some(code) = message
            .get("code")
            .and_then(|c| c.get("code"))
            .and_then(Json::as_str)
        {
            codes.push(code.to_owned());
        }
        if let Some(text) = message.get("rendered").and_then(Json::as_str) {
            rendered.push_str(text);
        }
    }
    ClippyRun {
        passed: out.status.success(),
        codes,
        rendered,
    }
}

#[test]
fn moved_lint_fixtures_fail_and_pass_under_clippy() {
    let temp = std::env::temp_dir().join(format!("jouppi-clippy-config-{}", std::process::id()));
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    for (case, (dir, crate_root, expected)) in CASES.into_iter().enumerate() {
        let bad = clippy(
            &temp,
            &format!("{dir}-{case}-bad"),
            crate_root,
            &read(&fixtures.join(dir).join("bad.rs")),
        );
        assert!(
            !bad.passed,
            "{dir} under {crate_root}: bad fixture passed clippy"
        );
        for code in expected {
            assert!(
                bad.codes.iter().any(|c| c == code),
                "{dir} under {crate_root}: bad fixture did not raise {code}:\n{}",
                bad.rendered
            );
        }
        let ok = clippy(
            &temp,
            &format!("{dir}-{case}-ok"),
            crate_root,
            &read(&fixtures.join(dir).join("ok.rs")),
        );
        assert!(
            ok.passed,
            "{dir} under {crate_root}: ok fixture failed clippy:\n{}",
            ok.rendered
        );
    }
    fs::remove_dir_all(&temp).expect("remove fixture crates");
}

/// Every member manifest and the root package inherit the workspace lint
/// tables — which is what puts every crate under `unsafe_code = "forbid"`.
#[test]
fn every_package_inherits_the_workspace_lints() {
    let root = repo_root();
    let root_manifest = read(&root.join("Cargo.toml"));
    assert!(
        workspace_lint_tables(&root_manifest).contains("unsafe_code = \"forbid\""),
        "the root manifest must forbid unsafe code workspace-wide"
    );
    let mut manifests = vec![root.join("Cargo.toml")];
    let mut members: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("list crates/")
        .map(|e| e.expect("dir entry").path().join("Cargo.toml"))
        .filter(|p| p.is_file())
        .collect();
    members.sort();
    assert!(members.len() >= 10, "found {} members", members.len());
    manifests.extend(members);
    for path in manifests {
        let text = read(&path);
        assert!(
            text.contains("\n[lints]\nworkspace = true\n"),
            "{} lacks `[lints] workspace = true`",
            path.display()
        );
    }
}
