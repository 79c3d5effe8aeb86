//! Fixture: the same lookup under a documented contract, and the
//! naming returning an error instead of panicking.

/// The table entry for a seeded key.
pub fn lookup() -> u32 {
    let found: Option<u32> = table_get();
    found.expect("table_get always returns an entry for seeded keys")
}

fn table_get() -> Option<u32> {
    Some(7)
}

/// Names a small count.
///
/// # Errors
///
/// Counts other than zero have no name.
pub fn name(n: u32) -> Result<&'static str, String> {
    match n {
        0 => Ok("zero"),
        other => Err(format!("{other} has no name")),
    }
}
