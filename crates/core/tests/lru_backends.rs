//! Randomized equivalence of `MissCache` and a naive LRU model.
//!
//! `MissCache` keeps its lines in one MRU-first `Vec`, shifted in place.
//! The model here is LRU written the obvious way: a hit or a reinsert
//! moves the line to the front of an MRU-first list, and an insert past
//! capacity pops the back. Driving both with the same seeded operation
//! sequence must give identical hits, evictions, lengths and recency
//! order at every step, at capacities up to the daemon's 1,024 entries.

use jouppi_core::MissCache;
use jouppi_trace::{LineAddr, SmallRng};

const CAPACITIES: [usize; 10] = [1, 2, 3, 4, 8, 15, 64, 65, 256, 1024];

/// Runs 20,000 random `contains`, `probe_and_touch` and `insert` calls on
/// a `MissCache` of `capacity` lines and on the model, checking every
/// result, the length and the MRU line after each call, and the whole
/// recency order at the end. `line_of` maps a draw below about twice the
/// capacity to a line, so evictions are frequent.
fn round(seed: u64, rng: &mut SmallRng, capacity: usize, line_of: fn(u64) -> u64) {
    let mut mc = MissCache::new(capacity);
    let mut model: Vec<LineAddr> = Vec::new();
    let space = (2 * capacity).max(4);
    for step in 0..20_000 {
        let line = LineAddr::new(line_of(rng.below(space) as u64));
        let at = format!("seed {seed:#x}: capacity {capacity}, step {step}, {line:?}");
        let pos = model.iter().position(|&m| m == line);
        match rng.below(3) {
            0 => assert_eq!(mc.contains(line), pos.is_some(), "contains: {at}"),
            1 => {
                if let Some(p) = pos {
                    model.remove(p);
                    model.insert(0, line);
                }
                assert_eq!(mc.probe_and_touch(line), pos.is_some(), "probe: {at}");
            }
            _ => {
                if let Some(p) = pos {
                    model.remove(p);
                }
                model.insert(0, line);
                let evicted = (model.len() > capacity).then(|| model.pop()).flatten();
                assert_eq!(mc.insert(line), evicted, "insert: {at}");
            }
        }
        assert_eq!(mc.len(), model.len(), "len: {at}");
        assert_eq!(mc.iter().next(), model.first().copied(), "MRU: {at}");
    }
    assert!(
        mc.iter().eq(model.iter().copied()),
        "seed {seed:#x}: capacity {capacity}: order diverged"
    );
}

#[test]
fn backends_agree_on_random_op_sequences() {
    const SEED: u64 = 0x1a2b_3c4d;
    let mut rng = SmallRng::seed_from_u64(SEED);
    for capacity in CAPACITIES {
        round(SEED, &mut rng, capacity, |n| n);
    }
}

#[test]
fn backends_agree_under_sparse_addresses() {
    // Widely spread line addresses (high bits set), rather than the dense
    // low-value lines of the test above.
    const SEED: u64 = 7;
    let mut rng = SmallRng::seed_from_u64(SEED);
    for capacity in CAPACITIES {
        round(SEED, &mut rng, capacity, |n| (n << 40) | (n % 16));
    }
}
