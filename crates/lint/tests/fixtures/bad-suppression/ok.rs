//! Fixture: the fix — the reason makes the directive well-formed.

use std::sync::atomic::{AtomicU64, Ordering};

pub static HITS: AtomicU64 = AtomicU64::new(0);

pub fn bump() {
    // jouppi-lint: allow(relaxed-ordering) — monotone fetch_add counter
    HITS.fetch_add(1, Ordering::Relaxed);
}
