//! Fixture: unsafe code in a workspace crate.

/// The first byte, read without a bounds check.
pub fn first(bytes: &[u8]) -> u8 {
    unsafe { *bytes.get_unchecked(0) }
}
