//! Fixture: the fix — an ordered map with deterministic iteration.

use std::collections::BTreeMap;

/// Occurrence count per value.
pub fn tally(xs: &[u64]) -> BTreeMap<u64, u64> {
    let mut m = BTreeMap::new();
    for &x in xs {
        *m.entry(x).or_insert(0) += 1;
    }
    m
}
