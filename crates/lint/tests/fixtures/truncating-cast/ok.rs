//! Fixture: the same narrowing made explicit — `try_from` saturates
//! instead of wrapping.

/// `hits` as a whole percentage of `total`.
pub fn percent(hits: u64, total: u64) -> u32 {
    u32::try_from((100 * hits) / total.max(1)).unwrap_or(u32::MAX)
}
