//! Fixture: ambient time in a simulation crate.

/// Nanoseconds a probe took.
pub fn elapsed_nanos() -> u128 {
    let t = std::time::Instant::now();
    t.elapsed().as_nanos()
}

/// Nanoseconds since the Unix epoch.
pub fn wall_nanos() -> u128 {
    std::time::UNIX_EPOCH.elapsed().map_or(0, |d| d.as_nanos())
}
