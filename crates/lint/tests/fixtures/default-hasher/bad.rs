//! Fixture: randomly-seeded default hasher in a simulation crate.

use std::collections::HashMap;

/// Occurrence count per value.
pub fn tally(xs: &[u64]) -> HashMap<u64, u64> {
    let mut m = HashMap::new();
    for &x in xs {
        *m.entry(x).or_insert(0) += 1;
    }
    m
}
