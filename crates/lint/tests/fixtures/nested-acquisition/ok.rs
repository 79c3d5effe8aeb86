//! Fixture: the fix — each lock is read and released before the next
//! is taken, in place or through a helper, so no acquisition waits
//! while another lock is held.

use std::sync::Mutex;

pub struct Pair {
    pub a: Mutex<u64>,
    pub b: Mutex<u64>,
}

pub fn forward(p: &Pair) -> u64 {
    let a = *p.a.lock().unwrap_or_else(|e| e.into_inner());
    let b = *p.b.lock().unwrap_or_else(|e| e.into_inner());
    a + b
}

pub fn backward(p: &Pair) -> u64 {
    let b = read_b(p);
    let a = *p.a.lock().unwrap_or_else(|e| e.into_inner());
    a + b
}

fn read_b(p: &Pair) -> u64 {
    *p.b.lock().unwrap_or_else(|e| e.into_inner())
}
