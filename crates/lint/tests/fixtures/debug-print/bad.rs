//! Fixture: stray console output in library code.

/// Reports `x` on the console.
pub fn announce(x: u32) {
    println!("x = {x}");
}

/// Doubles `x`, tracing it on the way.
pub fn traced(x: u32) -> u32 {
    dbg!(x) * 2
}
