//! Fixture: an `as u32` narrowing a computed `u64` — values past
//! 2^32 wrap silently in the reported number.

/// `hits` as a whole percentage of `total`.
pub fn percent(hits: u64, total: u64) -> u32 {
    ((100 * hits) / total.max(1)) as u32
}
