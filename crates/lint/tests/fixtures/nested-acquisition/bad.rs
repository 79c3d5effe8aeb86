//! Fixture: `forward` takes `b` holding `a`, `backward` takes `a`
//! holding `b` — two threads can each hold one and wait for the other.

use std::sync::Mutex;

pub struct Pair {
    pub a: Mutex<u64>,
    pub b: Mutex<u64>,
}

pub fn forward(p: &Pair) -> u64 {
    let a = p.a.lock().unwrap_or_else(|e| e.into_inner());
    let b = p.b.lock().unwrap_or_else(|e| e.into_inner());
    *a + *b
}

pub fn backward(p: &Pair) -> u64 {
    let b = p.b.lock().unwrap_or_else(|e| e.into_inner());
    let a = p.a.lock().unwrap_or_else(|e| e.into_inner());
    *a + *b
}
