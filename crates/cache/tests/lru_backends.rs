//! Randomized equivalence of `LruSet` and a naive LRU model.
//!
//! `LruSet` keeps its lines in one MRU-first `Vec`, shifted in place. The
//! model here is LRU written the obvious way: remove the line wherever it
//! is, reinsert it at the front, pop the back when over capacity. Driving
//! both with the same operation sequence must produce identical hits,
//! evictions, recency order, and observer results at every step.
//! `LruSet` holds the miss caches of every paper sweep, so a divergence
//! here would silently skew those figures.

use jouppi_cache::{LruSet, TouchOutcome};
use jouppi_trace::{LineAddr, SmallRng};

/// Exact LRU, most recent line first.
struct Model {
    lines: Vec<LineAddr>,
    capacity: usize,
}

impl Model {
    fn new(capacity: usize) -> Self {
        Model {
            lines: Vec::new(),
            capacity,
        }
    }

    fn remove(&mut self, line: LineAddr) -> bool {
        let before = self.lines.len();
        self.lines.retain(|&l| l != line);
        self.lines.len() != before
    }

    fn touch(&mut self, line: LineAddr) -> bool {
        let found = self.remove(line);
        if found {
            self.lines.insert(0, line);
        }
        found
    }

    fn touch_or_insert(&mut self, line: LineAddr) -> TouchOutcome {
        if self.touch(line) {
            return TouchOutcome::Hit;
        }
        self.lines.insert(0, line);
        if self.lines.len() > self.capacity {
            TouchOutcome::Evicted(self.lines.pop().expect("over capacity"))
        } else {
            TouchOutcome::Inserted
        }
    }

    fn insert(&mut self, line: LineAddr) -> Option<LineAddr> {
        match self.touch_or_insert(line) {
            TouchOutcome::Evicted(victim) => Some(victim),
            _ => None,
        }
    }
}

/// Every observer of `set` agrees with the model.
fn assert_same(set: &LruSet, model: &Model, at: &str) {
    assert_eq!(set.len(), model.lines.len(), "{at}: len");
    assert_eq!(set.is_empty(), model.lines.is_empty(), "{at}: is_empty");
    assert_eq!(set.mru(), model.lines.first().copied(), "{at}: mru");
    assert_eq!(set.lru(), model.lines.last().copied(), "{at}: lru");
}

/// One randomized op applied to both, with full observer checks.
fn step(rng: &mut SmallRng, set: &mut LruSet, model: &mut Model, line_space: u64) {
    let line = LineAddr::new(rng.below(line_space as usize) as u64);
    match rng.below(6) {
        0 => assert_eq!(set.touch(line), model.touch(line), "touch {line:?}"),
        1 => assert_eq!(set.insert(line), model.insert(line), "insert {line:?}"),
        2 => assert_eq!(set.remove(line), model.remove(line), "remove {line:?}"),
        3 => assert_eq!(
            set.contains(line),
            model.lines.contains(&line),
            "contains {line:?}"
        ),
        _ => assert_eq!(
            set.touch_or_insert(line),
            model.touch_or_insert(line),
            "touch_or_insert {line:?}"
        ),
    }
    assert_same(set, model, &format!("after {line:?}"));
}

#[test]
fn backends_agree_on_random_op_sequences() {
    let mut rng = SmallRng::seed_from_u64(0x1a2b_3c4d);
    for capacity in [1usize, 2, 3, 4, 8, 15, 64, 65, 256, 1024] {
        let mut set = LruSet::new(capacity);
        let mut model = Model::new(capacity);
        // Line space ~2× capacity keeps eviction pressure high.
        let line_space = (2 * capacity).max(4) as u64;
        for _ in 0..20_000 {
            step(&mut rng, &mut set, &mut model, line_space);
        }
        // Final recency order must match element for element.
        let order: Vec<LineAddr> = set.iter().collect();
        assert_eq!(
            order, model.lines,
            "capacity {capacity}: iteration order diverged"
        );
        assert_eq!(order, (&set).into_iter().collect::<Vec<_>>());
    }
}

#[test]
fn backends_agree_under_sparse_addresses() {
    // Widely spread line addresses, rather than the dense low-value
    // lines of the main test.
    let mut rng = SmallRng::seed_from_u64(7);
    for capacity in [8usize, 1024] {
        let mut set = LruSet::new(capacity);
        let mut model = Model::new(capacity);
        for _ in 0..20_000 {
            let line = LineAddr::new((rng.below(4 * capacity) as u64) << 40 | rng.below(16) as u64);
            assert_eq!(set.touch_or_insert(line), model.touch_or_insert(line));
        }
        assert_eq!(set.iter().collect::<Vec<_>>(), model.lines);
    }
}

#[test]
fn clear_resets_both_backends_identically() {
    let mut set = LruSet::new(4);
    let mut model = Model::new(4);
    for n in 0..10 {
        set.insert(LineAddr::new(n));
        model.insert(LineAddr::new(n));
    }
    set.clear();
    model.lines.clear();
    assert_same(&set, &model, "after clear");
    assert_eq!(
        set.insert(LineAddr::new(99)),
        model.insert(LineAddr::new(99))
    );
    assert_eq!(set.insert(LineAddr::new(99)), None);
    assert_same(&set, &model, "after reinsert");
    assert_eq!(set.capacity(), 4);
}
