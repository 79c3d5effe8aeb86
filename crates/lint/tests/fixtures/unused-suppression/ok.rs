//! Fixture: the fix — the stale directive is gone.

use std::sync::atomic::{AtomicU64, Ordering};

pub static HITS: AtomicU64 = AtomicU64::new(0);

pub fn bump() {
    HITS.fetch_add(1, Ordering::SeqCst);
}
