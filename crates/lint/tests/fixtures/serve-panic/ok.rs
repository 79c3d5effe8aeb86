//! Fixture: the fix — malformed input becomes an error, not a panic.

/// The job id in a `/v1/jobs/<id>` path.
///
/// # Errors
///
/// A message naming what was wrong with the path.
pub fn parse_id(path: &str) -> Result<u64, String> {
    path.strip_prefix("/v1/jobs/")
        .ok_or_else(|| "not a job path".to_owned())?
        .parse()
        .map_err(|e| format!("bad job id: {e}"))
}
