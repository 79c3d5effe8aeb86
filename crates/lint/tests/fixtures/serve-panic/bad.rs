//! Fixture: panic paths in request handling.

/// The job id in a `/v1/jobs/<id>` path.
pub fn parse_id(path: &str) -> u64 {
    path.strip_prefix("/v1/jobs/")
        .unwrap()
        .parse()
        .expect("numeric id")
}
