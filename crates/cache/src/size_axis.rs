//! One pass for every size of a cache-size sweep.
//!
//! * [`DirectMappedSweep`] runs direct-mapped caches of one line size and
//!   every swept size over one flat tag array. At one line size, a hit in
//!   a direct-mapped cache of `2^k` sets is a hit in every larger one: the
//!   larger cache's set for a line sees a subsequence of the smaller
//!   cache's set stream, so if nothing displaced the line from the
//!   smaller set since its last reference, nothing displaced it from the
//!   larger one either. So each reference walks the sizes smallest-first
//!   and stops at its first hit — DEW's early termination
//!   (arXiv:1506.03181) applied across set counts.
//! * [`BandedShadow`] classifies every size's misses. A
//!   [`MissClassifier`](crate::MissClassifier) runs one shadow LRU cache
//!   of its own capacity. Mattson's inclusion says a line resident in an
//!   LRU cache of `C` lines sits in the top `C` entries of one LRU stack,
//!   so one stack answers every capacity. The shadow keeps that stack
//!   with a marker at each capacity: the group-marker stack of Kim, Hill
//!   & Wood, *Implementing Stack Simulation for Highly-Associative
//!   Memories* (SIGMETRICS 1991). Each resident line records its *band*,
//!   the smallest capacity it fits in. A reference costs one load indexed
//!   by its line id, which gives the line's band and so its shadow
//!   outcome at every capacity, plus one step per marker above that band,
//!   because each of those bands passes its last line down to the next.

use jouppi_trace::{LineAddr, LineInterner};

use crate::{CacheGeometry, MissBreakdown};

/// The tag of a set no line has filled yet. The all-ones line, the one
/// line whose tag it equals, is tracked apart in
/// [`DirectMappedSweep::all_ones`].
const EMPTY: u64 = u64::MAX;

/// Direct-mapped caches of one line size and ascending sizes, simulated
/// together over one flat tag array.
///
/// # Examples
///
/// ```
/// use jouppi_cache::{Cache, CacheGeometry, DirectMappedSweep};
/// use jouppi_trace::LineAddr;
///
/// # fn main() -> Result<(), jouppi_cache::GeometryError> {
/// let geoms = [CacheGeometry::direct_mapped(32, 16)?, CacheGeometry::direct_mapped(64, 16)?];
/// let mut sweep = DirectMappedSweep::new(&geoms);
/// let mut caches = geoms.map(Cache::new);
/// for n in [0u64, 2, 4, 0, 1, 2, 0, 6, 4] {
///     let line = LineAddr::new(n);
///     let missed = sweep.access_line(line, |_, _| {});
///     for (size, cache) in caches.iter_mut().enumerate() {
///         assert_eq!(cache.access_line(line).is_miss(), size < missed);
///     }
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct DirectMappedSweep {
    /// Every size's tags, smallest size first, each set's slot holding the
    /// raw line resident there or [`EMPTY`].
    tags: Vec<u64>,
    /// Per size: its first slot in `tags`, and its set mask.
    sizes: Vec<(usize, u64)>,
    /// The smallest size's set mask; 0 with no sizes.
    first_mask: u64,
    /// Per size: whether its last set, where the all-ones line maps,
    /// holds that line rather than nothing.
    all_ones: Vec<bool>,
}

impl DirectMappedSweep {
    /// Creates empty caches of the given geometries.
    ///
    /// # Panics
    ///
    /// Panics if a geometry is not direct-mapped, if the line sizes
    /// differ, or if the sizes do not strictly ascend.
    pub fn new(geoms: &[CacheGeometry]) -> Self {
        for geom in geoms {
            assert!(
                geom.is_direct_mapped(),
                "a direct-mapped sweep holds only direct-mapped caches, not {geom}"
            );
        }
        for pair in geoms.windows(2) {
            assert_eq!(
                pair[0].line_size(),
                pair[1].line_size(),
                "a direct-mapped sweep's sizes share one line size"
            );
            assert!(
                pair[0].num_sets() < pair[1].num_sets(),
                "a direct-mapped sweep's sizes strictly ascend: {} then {}",
                pair[0],
                pair[1]
            );
        }
        let mut sizes = Vec::with_capacity(geoms.len());
        let mut slots = 0;
        for geom in geoms {
            let sets = usize::try_from(geom.num_sets()).expect("the tag array fits in memory");
            sizes.push((slots, geom.num_sets() - 1));
            slots += sets;
        }
        DirectMappedSweep {
            tags: vec![EMPTY; slots],
            first_mask: sizes.first().map_or(0, |&(_, mask)| mask),
            sizes,
            all_ones: vec![false; geoms.len()],
        }
    }

    /// References `line` at every size, smallest first, until one hits:
    /// by inclusion every larger size hits too. Calls `on_miss(size,
    /// victim)` for each size that missed, with the line its refill
    /// displaced, and returns how many sizes missed.
    #[inline]
    pub fn access_line(
        &mut self,
        line: LineAddr,
        mut on_miss: impl FnMut(usize, Option<LineAddr>),
    ) -> usize {
        let raw = line.get();
        // Most references hit the smallest size: probe it first, with its
        // mask at hand rather than in `sizes`.
        if self.tags.get((raw & self.first_mask) as usize) == Some(&raw) && raw != EMPTY {
            return 0;
        }
        for (size, &(base, mask)) in self.sizes.iter().enumerate() {
            let set = raw & mask;
            let slot = &mut self.tags[base + set as usize];
            if *slot == raw && (raw != EMPTY || self.all_ones[size]) {
                return size;
            }
            let victim = if *slot != EMPTY {
                Some(LineAddr::new(*slot))
            } else if set == mask && std::mem::take(&mut self.all_ones[size]) {
                Some(LineAddr::new(EMPTY))
            } else {
                None
            };
            if raw == EMPTY {
                self.all_ones[size] = true;
            }
            *slot = raw;
            on_miss(size, victim);
        }
        self.sizes.len()
    }
}

/// State of a line seen before but deeper than the largest capacity.
const BEYOND: u32 = u32::MAX;
const NIL: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct Node {
    id: u32,
    prev: u32,
    next: u32,
    /// Index of the smallest capacity the line fits in.
    band: u32,
}

/// A fully-associative LRU shadow of several capacities, which classifies
/// the misses of one real cache per capacity under the three-C model and
/// counts the shadow's own misses.
///
/// Feed **every** reference to [`BandedShadow::observe`] (or, by line id
/// and with no hashing, [`BandedShadow::observe_id`]), with how many of
/// the smallest capacities' real caches missed it. The real caches must
/// nest: a reference that misses one size misses every smaller size too,
/// as direct-mapped caches of one line size do. Size `i`'s breakdown then
/// equals a [`MissClassifier`](crate::MissClassifier) of size `i`'s
/// geometry fed the same stream.
///
/// # Examples
///
/// ```
/// use jouppi_cache::{BandedShadow, Cache, CacheGeometry, MissClassifier};
/// use jouppi_trace::LineAddr;
///
/// # fn main() -> Result<(), jouppi_cache::GeometryError> {
/// let geoms = [CacheGeometry::direct_mapped(32, 16)?, CacheGeometry::direct_mapped(64, 16)?];
/// let mut caches = geoms.map(Cache::new);
/// let mut classifiers = geoms.map(MissClassifier::new);
/// let mut shadow = BandedShadow::new(&geoms);
/// for n in [0u64, 2, 4, 0, 1, 2, 0, 6, 4] {
///     let line = LineAddr::new(n);
///     let mut missed = 0;
///     for (cache, classifier) in caches.iter_mut().zip(&mut classifiers) {
///         let miss = cache.access_line(line).is_miss();
///         classifier.observe(line, miss);
///         missed += usize::from(miss);
///     }
///     shadow.observe(line, missed);
/// }
/// for (i, classifier) in classifiers.iter().enumerate() {
///     assert_eq!(shadow.breakdown(i), classifier.breakdown());
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct BandedShadow {
    /// `state[id]`: the slot of resident line `id`, or [`BEYOND`] for a
    /// line seen before but no longer resident at any capacity. Ids
    /// arrive in first-touch order, so an id past the end is new.
    state: Vec<u32>,
    nodes: Vec<Node>,
    head: u32,
    tail: u32,
    /// Capacities in lines, strictly ascending.
    capacities: Vec<usize>,
    /// Per band: the line at depth `capacities[band]`, the band's last, or
    /// [`NIL`] while the stack is shallower.
    markers: Vec<u32>,
    /// References by `(prior state, real caches that missed)`, at
    /// `state * (bands + 1) + missed`. A state below `bands` is the line's
    /// band; `bands` means seen but beyond every capacity; `bands + 1`
    /// means first touch.
    counts: Vec<u64>,
    /// Ids for lines fed through [`Self::observe`].
    interner: LineInterner,
}

impl BandedShadow {
    /// Creates a shadow of one capacity per cache in `geoms`: each the
    /// cache's line count, as [`MissClassifier::new`](crate::MissClassifier::new)
    /// gives its shadow.
    ///
    /// # Panics
    ///
    /// Panics if `geoms` is empty, if the capacities do not strictly
    /// ascend, or if one exceeds the slot index range.
    pub fn new(geoms: &[CacheGeometry]) -> Self {
        let capacities: Vec<usize> = geoms
            .iter()
            .map(|g| {
                usize::try_from(g.num_lines())
                    .ok()
                    .filter(|&lines| lines < NIL as usize)
                    .expect("shadow capacity exceeds slot index range")
            })
            .collect();
        let bands = capacities.len();
        assert!(bands > 0, "a banded shadow needs a capacity");
        assert!(
            capacities.windows(2).all(|w| w[0] < w[1]),
            "shadow capacities must strictly ascend: {capacities:?}"
        );
        BandedShadow {
            state: Vec::new(),
            nodes: Vec::new(),
            head: NIL,
            tail: NIL,
            capacities,
            markers: vec![NIL; bands],
            counts: vec![0; (bands + 2) * (bands + 1)],
            interner: LineInterner::new(),
        }
    }

    /// Observes one reference, interning its line, which the real caches
    /// of the `missed` smallest capacities missed.
    ///
    /// Feed a shadow either lines, here, or ids, in [`Self::observe_id`]:
    /// not both.
    ///
    /// # Panics
    ///
    /// Panics if `missed` exceeds the number of capacities.
    pub fn observe(&mut self, line: LineAddr, missed: usize) {
        let id = self.interner.intern(line);
        self.observe_id(id, missed);
    }

    /// Observes one reference by its line id, with no hashing: `id` is
    /// the line's id from one [`LineInterner`] fed the shadow's whole
    /// stream in order, as the ids of [`jouppi_trace::SideView::runs`]
    /// are. An immediate repeat of the line just observed, which no real
    /// cache misses, changes only [`Self::accesses`], so a caller may
    /// observe each run of repeats once.
    ///
    /// # Panics
    ///
    /// Panics if `missed` exceeds the number of capacities, or if `id`
    /// skips past the next new id: ids must arrive in first-touch order.
    pub fn observe_id(&mut self, id: u32, missed: usize) {
        let bands = self.capacities.len();
        assert!(missed <= bands, "{missed} of {bands} real caches missed");
        match self.state.get(id as usize).copied() {
            Some(BEYOND) => {
                self.counts[bands * (bands + 1) + missed] += 1;
                self.insert(id);
            }
            Some(slot) => {
                let band = self.nodes[slot as usize].band as usize;
                self.counts[band * (bands + 1) + missed] += 1;
                self.touch(slot, band);
            }
            None => {
                assert_eq!(
                    id as usize,
                    self.state.len(),
                    "line ids must arrive in first-touch order"
                );
                self.state.push(BEYOND);
                self.counts[(bands + 1) * (bands + 1) + missed] += 1;
                self.insert(id);
            }
        }
    }

    /// References counted at `(state, missed)` summed over the states in
    /// `states` and the miss counts in `missed`.
    fn count(&self, states: std::ops::Range<usize>, missed: std::ops::Range<usize>) -> u64 {
        let width = self.capacities.len() + 1;
        states
            .map(|s| self.counts[s * width..][missed.clone()].iter().sum::<u64>())
            .sum()
    }

    /// The three-C breakdown of size `size`'s real cache: the misses it
    /// took, by whether the line was new (compulsory), resident in the
    /// shadow of its capacity (conflict), or neither (capacity).
    ///
    /// # Panics
    ///
    /// Panics if `size` is not an index into the capacities.
    pub fn breakdown(&self, size: usize) -> MissBreakdown {
        let bands = self.capacities.len();
        assert!(size < bands, "no capacity at index {size}");
        let missed = size + 1..bands + 1;
        MissBreakdown {
            compulsory: self.count(bands + 1..bands + 2, missed.clone()),
            capacity: self.count(size + 1..bands + 1, missed.clone()),
            conflict: self.count(0..size + 1, missed),
        }
    }

    /// Misses of a fully-associative LRU cache with as many lines as size
    /// `size`'s cache, over the observed stream.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not an index into the capacities.
    pub fn fa_misses(&self, size: usize) -> u64 {
        let bands = self.capacities.len();
        assert!(size < bands, "no capacity at index {size}");
        self.count(size + 1..bands + 2, 0..bands + 1)
    }

    /// References observed: one per `observe` or `observe_id` call, so a
    /// caller that observes each run of repeats once counts runs.
    pub fn accesses(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Moves the resident line at `slot`, of band `band`, to the top.
    /// Every band above it passes its last line down to the next band.
    fn touch(&mut self, slot: u32, band: usize) {
        for b in 0..band {
            let last = self.markers[b];
            let node = &mut self.nodes[last as usize];
            node.band = b as u32 + 1;
            self.markers[b] = if node.prev == NIL { slot } else { node.prev };
        }
        let prev = self.nodes[slot as usize].prev;
        if prev == NIL {
            return; // already on top
        }
        if self.markers[band] == slot {
            self.markers[band] = prev;
        }
        self.nodes[slot as usize].band = 0;
        self.unlink(slot);
        self.push_front(slot);
    }

    /// Pushes line `id`, which no capacity holds, onto the top. Every band
    /// passes its last line down; the largest band's falls out.
    fn insert(&mut self, id: u32) {
        let bands = self.capacities.len();
        let full = self.nodes.len() == self.capacities[bands - 1];
        let slot = if full {
            self.tail
        } else {
            self.nodes.len() as u32
        };
        for b in 0..bands {
            let last = self.markers[b];
            if last == NIL {
                // Deeper bands are emptier still. The band fills exactly
                // when the push brings the stack to its capacity.
                if self.nodes.len() + 1 == self.capacities[b] {
                    self.markers[b] = if self.tail == NIL { slot } else { self.tail };
                }
                break;
            }
            let node = &mut self.nodes[last as usize];
            node.band = b as u32 + 1;
            self.markers[b] = if node.prev == NIL { slot } else { node.prev };
        }
        let fresh = Node {
            id,
            prev: NIL,
            next: NIL,
            band: 0,
        };
        if full {
            let evicted = self.nodes[slot as usize].id;
            self.unlink(slot);
            self.state[evicted as usize] = BEYOND;
            self.nodes[slot as usize] = fresh;
        } else {
            self.nodes.push(fresh);
        }
        self.state[id as usize] = slot;
        self.push_front(slot);
    }

    fn unlink(&mut self, idx: u32) {
        let Node { prev, next, .. } = self.nodes[idx as usize];
        if prev != NIL {
            self.nodes[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: u32) {
        self.nodes[idx as usize].prev = NIL;
        self.nodes[idx as usize].next = self.head;
        if self.head != NIL {
            self.nodes[self.head as usize].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AccessResult, Cache};

    #[test]
    fn direct_mapped_sweep_equals_a_cache_per_size_even_for_the_all_ones_line() {
        // Lines crowd the top of the address space, so the all-ones line,
        // whose tag equals the empty-set tag, keeps evicting and being
        // evicted from the last set of every size.
        const SEED: u64 = 0x6c61_6464_6572_3136;
        let mut rng = jouppi_trace::SmallRng::seed_from_u64(SEED);
        for round in 0..48 {
            let mut exps: Vec<u32> = (0..9).filter(|_| rng.below(3) == 0).collect();
            if exps.is_empty() {
                exps.push(rng.below(9) as u32);
            }
            let geoms: Vec<CacheGeometry> = exps
                .iter()
                .map(|&e| CacheGeometry::direct_mapped(16 << e, 16).unwrap())
                .collect();
            let mut sweep = DirectMappedSweep::new(&geoms);
            let mut caches: Vec<Cache> = geoms.iter().map(|&g| Cache::new(g)).collect();
            for t in 0..300 + rng.below(300) {
                let line = LineAddr::new(u64::MAX - ((rng.below(6) as u64) << rng.below(10)));
                let mut victims = Vec::new();
                let missed = sweep.access_line(line, |size, victim| victims.push((size, victim)));
                let expected: Vec<(usize, Option<LineAddr>)> = caches
                    .iter_mut()
                    .enumerate()
                    .filter_map(|(size, cache)| match cache.access_line(line) {
                        AccessResult::Hit => None,
                        AccessResult::Miss { victim } => Some((size, victim)),
                    })
                    .collect();
                assert_eq!(victims, expected, "seed {SEED:#x} round {round} ref {t}");
                assert_eq!(missed, expected.len());
            }
        }
    }

    #[test]
    #[should_panic(expected = "strictly ascend")]
    fn sweep_sizes_must_ascend() {
        let geom = |size| CacheGeometry::direct_mapped(size, 16).unwrap();
        DirectMappedSweep::new(&[geom(2048), geom(1024)]);
    }

    #[test]
    #[should_panic(expected = "strictly ascend")]
    fn capacities_must_ascend() {
        let geoms = [
            CacheGeometry::direct_mapped(64, 16).unwrap(),
            CacheGeometry::new(64, 16, 2).unwrap(),
        ];
        BandedShadow::new(&geoms);
    }

    #[test]
    fn banded_shadow_fed_ids_equals_banded_shadow_fed_lines() {
        const SEED: u64 = 0x6261_6e64_6564_6964;
        let mut rng = jouppi_trace::SmallRng::seed_from_u64(SEED);
        let geoms: Vec<CacheGeometry> = [64, 256, 1024]
            .iter()
            .map(|&size| CacheGeometry::direct_mapped(size, 16).unwrap())
            .collect();
        for round in 0..16 {
            let mut l1s = DirectMappedSweep::new(&geoms);
            let mut interner = jouppi_trace::LineInterner::new();
            let mut by_id = BandedShadow::new(&geoms);
            let mut by_line = BandedShadow::new(&geoms);
            for _ in 0..2_000 {
                let line = LineAddr::new(rng.below(200) as u64 * 37);
                let missed = l1s.access_line(line, |_, _| {});
                by_id.observe_id(interner.intern(line), missed);
                by_line.observe(line, missed);
            }
            for size in 0..geoms.len() {
                let at = format!("seed {SEED:#x} round {round} size {size}");
                assert_eq!(by_id.breakdown(size), by_line.breakdown(size), "{at}");
                assert_eq!(by_id.fa_misses(size), by_line.fa_misses(size), "{at}");
            }
        }
    }

    #[test]
    fn one_line_shadow_hits_only_repeats() {
        let mut shadow = BandedShadow::new(&[CacheGeometry::direct_mapped(16, 16).unwrap()]);
        for n in [1u64, 1, 2, 1, 1] {
            shadow.observe(LineAddr::new(n), 1);
        }
        assert_eq!(shadow.accesses(), 5);
        assert_eq!(shadow.fa_misses(0), 3);
        let b = shadow.breakdown(0);
        assert_eq!((b.compulsory, b.capacity, b.conflict), (2, 1, 2));
    }
}
