//! Fixture: the fix — return text; binaries do the printing.

/// The report line for `x`.
pub fn announce(x: u32) -> String {
    format!("x = {x}")
}
