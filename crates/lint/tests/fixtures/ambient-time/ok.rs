//! Fixture: the same probe, justified as progress reporting.

/// Nanoseconds a probe took.
pub fn elapsed_nanos() -> u128 {
    #[expect(
        clippy::disallowed_types,
        reason = "progress telemetry only; the value never feeds a simulated result"
    )]
    let t = std::time::Instant::now();
    t.elapsed().as_nanos()
}
