//! Fixture: the fix — the checked read.

/// The first byte, if any.
pub fn first(bytes: &[u8]) -> Option<u8> {
    bytes.first().copied()
}
