//! Fixture: panic sites in library code.

/// The table entry for a seeded key.
pub fn lookup() -> u32 {
    let found: Option<u32> = table_get();
    found.unwrap()
}

fn table_get() -> Option<u32> {
    None
}

/// Names a small count.
pub fn name(n: u32) -> &'static str {
    match n {
        0 => "zero",
        1 => panic!("one is reserved"),
        2 => todo!(),
        3 => unimplemented!(),
        _ => unreachable!(),
    }
}
