//! Fixture: a suppression without the mandatory reason.

use std::sync::atomic::{AtomicU64, Ordering};

pub static HITS: AtomicU64 = AtomicU64::new(0);

pub fn bump() {
    // jouppi-lint: allow(relaxed-ordering)
    HITS.fetch_add(1, Ordering::Relaxed);
}
