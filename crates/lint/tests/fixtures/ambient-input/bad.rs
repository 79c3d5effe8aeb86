//! Fixture: a simulation crate reading the environment and a file.

use std::io::Read;

/// Victim-cache entries, taken from the environment.
pub fn victim_entries() -> usize {
    std::env::var("JOUPPI_VICTIM")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
}

/// Bytes of a trace, read from a fixed path.
pub fn trace_bytes() -> std::io::Result<Vec<u8>> {
    let mut bytes = Vec::new();
    std::fs::File::open("trace.din")?.read_to_end(&mut bytes)?;
    Ok(bytes)
}
