//! A fast, deterministic hasher for line-address keys, and the line
//! interner built on it.
//!
//! `std`'s default `SipHash` is DoS-resistant but costs tens of cycles per
//! key — far too much for simulation loops that perform a hash-map probe
//! per memory reference (the stack-distance profiles in `jouppi-cache`,
//! and [`LineInterner`]). Keys here are line addresses produced by our own
//! trace generators, so hash-flood resistance buys nothing; what matters
//! is a single multiply instead of a full SipHash round.
//!
//! [`FxHasher`] is the Fowler-style multiply-xor hash used by rustc
//! (`FxHashMap`): per 8-byte word, `hash = (hash.rotate_left(5) ^ word) *
//! SEED`. It is deterministic across processes, so simulation results stay
//! reproducible run to run.

use std::hash::{BuildHasherDefault, Hasher};

use crate::LineAddr;

/// Multiplicative constant from rustc's `FxHasher` (derived from the
/// golden ratio; odd, so multiplication is a bijection on `u64`).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The rustc `FxHash` function: fast, deterministic, not DoS-resistant.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(u64::from(n));
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(u64::from(n));
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`]; plug into `HashMap`/`HashSet` type
/// parameters.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed by the fast line-address hash.
#[expect(
    clippy::disallowed_types,
    reason = "the one sanctioned HashMap: a fixed, deterministic hasher replaces the random default"
)]
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed by the fast line-address hash.
#[expect(
    clippy::disallowed_types,
    reason = "the one sanctioned HashSet: a fixed, deterministic hasher replaces the random default"
)]
pub type FxHashSet<K> = std::collections::HashSet<K, FxBuildHasher>;

/// Dense ids for line addresses, in first-touch order.
///
/// The first line interned gets id 0, the next new line 1, and so on, so
/// a reference is a first touch exactly when its id equals the number of
/// lines interned before it. Engines that index `Vec`s by id instead of
/// hashing every reference take ids from here, either memoized with a
/// trace ([`SideView::ids`](crate::SideView::ids)) or interned as lines
/// arrive. No id equals `u32::MAX`, so engines can use it as a free-slot
/// marker.
///
/// # Examples
///
/// ```
/// use jouppi_trace::{LineAddr, LineInterner};
///
/// let mut interner = LineInterner::new();
/// let ids: Vec<u32> = [7u64, 3, 7, 9, 3]
///     .iter()
///     .map(|&n| interner.intern(LineAddr::new(n)))
///     .collect();
/// assert_eq!(ids, [0, 1, 0, 2, 1]);
/// assert_eq!(interner.len(), 3);
/// assert_eq!(
///     interner.into_lines(),
///     [LineAddr::new(7), LineAddr::new(3), LineAddr::new(9)]
/// );
/// ```
#[derive(Clone, Debug, Default)]
pub struct LineInterner {
    ids: FxHashMap<LineAddr, u32>,
    lines: Vec<LineAddr>,
}

impl LineInterner {
    /// Creates an interner that has seen no lines.
    pub fn new() -> Self {
        LineInterner::default()
    }

    /// The id of `line`: its existing one, or the next free id if the
    /// line is new. One map probe.
    ///
    /// # Panics
    ///
    /// Panics if `line` is new and `u32::MAX` lines are already interned.
    #[inline]
    pub fn intern(&mut self, line: LineAddr) -> u32 {
        let next = self.lines.len() as u32;
        let id = *self.ids.entry(line).or_insert(next);
        if id == next {
            assert!(next < u32::MAX, "line ids exhausted");
            self.lines.push(line);
        }
        id
    }

    /// Number of distinct lines interned.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// Returns `true` if no line has been interned.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// The id → line table, consuming the interner.
    pub fn into_lines(self) -> Vec<LineAddr> {
        self.lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn is_deterministic() {
        let hash = |n: u64| {
            let mut h = FxHasher::default();
            h.write_u64(n);
            h.finish()
        };
        assert_eq!(hash(42), hash(42));
        assert_ne!(hash(42), hash(43));
    }

    #[test]
    fn nearby_lines_spread() {
        // Sequential line addresses (the common trace pattern) must stay
        // pairwise distinct and spread across the low bits `HashMap` uses
        // for bucket selection.
        let hash = |n: u64| {
            let mut h = FxHasher::default();
            h.write_u64(n);
            h.finish()
        };
        let full: std::collections::BTreeSet<u64> = (0..128).map(hash).collect();
        assert_eq!(full.len(), 128);
        let low7: std::collections::BTreeSet<u8> =
            (0..128).map(|n| (hash(n) & 0x7f) as u8).collect();
        assert!(low7.len() == 128, "only {} distinct low bytes", low7.len());
    }

    #[test]
    fn works_as_map_hasher() {
        let mut m: FxHashMap<LineAddr, u32> = FxHashMap::default();
        for i in 0..1000 {
            m.insert(LineAddr::new(i), i as u32);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&LineAddr::new(512)), Some(&512));
        let mut s: FxHashSet<LineAddr> = FxHashSet::default();
        assert!(s.insert(LineAddr::new(7)));
        assert!(!s.insert(LineAddr::new(7)));
    }

    #[test]
    fn byte_stream_write_matches_word_granularity() {
        let mut a = FxHasher::default();
        a.write(&42u64.to_le_bytes());
        let mut b = FxHasher::default();
        b.write_u64(42);
        assert_eq!(a.finish(), b.finish());
    }
}
