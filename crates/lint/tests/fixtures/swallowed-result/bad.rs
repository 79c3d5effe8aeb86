//! Fixture: both ways of silently discarding a `Result` — `let _ =` and
//! a statement-level `.ok()`.

use std::fs;
use std::path::Path;

/// Removes a temp file.
pub fn cleanup(path: &Path) {
    let _ = fs::remove_file(path);
}

/// Creates a marker file.
pub fn touch(path: &Path) {
    fs::write(path, b"x").ok();
}
