//! Fixture: one discard justified with a reason, the other propagated.

use std::fs;
use std::path::Path;

/// Removes a temp file, best effort.
pub fn cleanup(path: &Path) {
    #[expect(
        clippy::let_underscore_must_use,
        reason = "best-effort temp-file cleanup; the file being gone already is success"
    )]
    let _ = fs::remove_file(path);
}

/// Creates a marker file.
///
/// # Errors
///
/// Propagates the write failure.
pub fn touch(path: &Path) -> std::io::Result<()> {
    fs::write(path, b"x")
}
