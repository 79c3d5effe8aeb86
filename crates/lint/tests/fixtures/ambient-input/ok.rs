//! Fixture: the same inputs, taken as parameters.

use std::io::Read;

/// Victim-cache entries, as the caller configured them.
pub fn victim_entries(configured: Option<usize>) -> usize {
    configured.unwrap_or(4)
}

/// Bytes of a trace, from a reader the caller opened.
pub fn trace_bytes(mut trace: impl Read) -> std::io::Result<Vec<u8>> {
    let mut bytes = Vec::new();
    trace.read_to_end(&mut bytes)?;
    Ok(bytes)
}
