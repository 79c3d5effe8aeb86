//! Fixture: the fix — draw from a seeded generator. The workspace uses
//! `jouppi_trace::SmallRng`; this std-only fixture inlines one
//! splitmix64 step.

/// A die roll that is a pure function of `seed`.
pub fn roll(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) % 6
}
