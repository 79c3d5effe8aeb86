//! Fixture: a directive left behind after the code it excused changed.

use std::sync::atomic::{AtomicU64, Ordering};

pub static HITS: AtomicU64 = AtomicU64::new(0);

pub fn bump() {
    // jouppi-lint: allow(relaxed-ordering) — leftover from when this was relaxed
    HITS.fetch_add(1, Ordering::SeqCst);
}
