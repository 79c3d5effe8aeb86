//! Fixture: the same cycle as `bad.rs`, with each inner lock taken in a
//! helper — the acquisition the guard is held across is one call deep.

use std::sync::Mutex;

pub struct Pair {
    pub a: Mutex<u64>,
    pub b: Mutex<u64>,
}

pub fn forward(p: &Pair) -> u64 {
    let a = p.a.lock().unwrap_or_else(|e| e.into_inner());
    *a + read_b(p)
}

pub fn backward(p: &Pair) -> u64 {
    let b = p.b.lock().unwrap_or_else(|e| e.into_inner());
    *b + read_a(p)
}

fn read_a(p: &Pair) -> u64 {
    *p.a.lock().unwrap_or_else(|e| e.into_inner())
}

fn read_b(p: &Pair) -> u64 {
    *p.b.lock().unwrap_or_else(|e| e.into_inner())
}
