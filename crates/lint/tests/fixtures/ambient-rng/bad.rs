//! Fixture: ambient entropy in a simulation crate — `RandomState` seeds
//! every hasher it builds from the operating system.

use std::hash::{BuildHasher, RandomState};

/// A die roll drawn from per-process entropy.
pub fn roll() -> u64 {
    RandomState::new().hash_one(0u8) % 6
}
