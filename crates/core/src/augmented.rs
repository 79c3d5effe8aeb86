//! A direct-mapped first-level cache augmented with the paper's mechanisms.

use std::fmt;

use jouppi_cache::{AccessResult, Cache, CacheGeometry, ReplacementPolicy};
use jouppi_trace::{Addr, LineAddr};

use crate::stride::StrideDetector;
use crate::{MissCache, MultiWayStreamBuffer, StreamBufferConfig, StreamProbe, VictimCache};

/// Which conflict-miss mechanism backs the first-level cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ConflictAid {
    /// No fully-associative backing cache.
    #[default]
    None,
    /// A miss cache with the given number of entries (§3.1).
    MissCache(usize),
    /// A victim cache with the given number of entries (§3.2).
    VictimCache(usize),
}

/// Configuration for an [`AugmentedCache`], built fluently.
///
/// # Examples
///
/// The paper's improved data-cache organization (Figure 5-1): a 4KB
/// direct-mapped cache with a 4-entry victim cache and a 4-way stream
/// buffer.
///
/// ```
/// use jouppi_cache::CacheGeometry;
/// use jouppi_core::{AugmentedCache, AugmentedConfig, StreamBufferConfig};
///
/// # fn main() -> Result<(), jouppi_cache::GeometryError> {
/// let geom = CacheGeometry::direct_mapped(4096, 16)?;
/// let cfg = AugmentedConfig::new(geom)
///     .victim_cache(4)
///     .multi_way_stream_buffer(4, StreamBufferConfig::new(4));
/// let cache = AugmentedCache::new(cfg);
/// assert_eq!(cache.config().stream_ways(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AugmentedConfig {
    geom: CacheGeometry,
    aid: ConflictAid,
    stream_ways: usize,
    stream_cfg: StreamBufferConfig,
    /// Maximum detectable stride in lines; 0 = plain sequential buffers.
    stride_detection: i64,
    /// Replacement policy of the victim cache (ablations; the paper uses
    /// LRU). Ignored by miss caches, which are LRU by construction.
    aid_policy: ReplacementPolicy,
}

impl AugmentedConfig {
    /// Starts from a bare direct-mapped (or other) L1 geometry with no
    /// augmentations.
    pub fn new(geom: CacheGeometry) -> Self {
        AugmentedConfig {
            geom,
            aid: ConflictAid::None,
            stream_ways: 0,
            stream_cfg: StreamBufferConfig::default(),
            stride_detection: 0,
            aid_policy: ReplacementPolicy::Lru,
        }
    }

    /// Adds a miss cache with `entries` lines.
    #[must_use]
    pub fn miss_cache(mut self, entries: usize) -> Self {
        self.aid = ConflictAid::MissCache(entries);
        self
    }

    /// Adds a victim cache with `entries` lines.
    #[must_use]
    pub fn victim_cache(mut self, entries: usize) -> Self {
        self.aid = ConflictAid::VictimCache(entries);
        self
    }

    /// Adds a single sequential stream buffer.
    #[must_use]
    pub fn stream_buffer(mut self, cfg: StreamBufferConfig) -> Self {
        self.stream_ways = 1;
        self.stream_cfg = cfg;
        self
    }

    /// Adds a multi-way stream buffer with `ways` parallel streams.
    #[must_use]
    pub fn multi_way_stream_buffer(self, ways: usize, cfg: StreamBufferConfig) -> Self {
        self.strided_stream_buffer(ways, cfg, 0)
    }

    /// Adds a multi-way stream buffer with stride detection up to
    /// `max_stride` lines (0: none) — the §5 future-work extension for
    /// non-unit stride numeric code (see [`crate::stride`]).
    #[must_use]
    pub fn strided_stream_buffer(
        mut self,
        ways: usize,
        cfg: StreamBufferConfig,
        max_stride: i64,
    ) -> Self {
        self.stream_ways = ways;
        self.stream_cfg = cfg;
        self.stride_detection = max_stride;
        self
    }

    /// The maximum detectable stride (0 = sequential buffers only).
    pub fn stride_detection(&self) -> i64 {
        self.stride_detection
    }

    /// Sets the victim cache's replacement policy (ablations; default
    /// LRU).
    #[must_use]
    pub fn victim_policy(mut self, policy: ReplacementPolicy) -> Self {
        self.aid_policy = policy;
        self
    }

    /// The victim cache's replacement policy.
    pub(crate) fn aid_policy(&self) -> ReplacementPolicy {
        self.aid_policy
    }

    /// The L1 geometry.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geom
    }

    /// The configured conflict-miss mechanism.
    pub fn conflict_aid(&self) -> ConflictAid {
        self.aid
    }

    /// The number of stream-buffer ways (0 = none).
    pub fn stream_ways(&self) -> usize {
        self.stream_ways
    }

    /// The per-way stream-buffer configuration.
    pub fn stream_config(&self) -> &StreamBufferConfig {
        &self.stream_cfg
    }
}

/// Where a reference was satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessOutcome {
    /// Hit in the first-level cache (no penalty).
    L1Hit,
    /// L1 miss satisfied by the victim cache (one-cycle swap).
    VictimHit,
    /// L1 miss satisfied by the miss cache (one-cycle reload).
    MissCacheHit,
    /// L1 miss satisfied by a stream buffer; `stall` extra ticks were spent
    /// waiting for an in-flight prefetch (0 when the line had arrived).
    StreamHit {
        /// Remaining prefetch latency absorbed by the processor.
        stall: u64,
    },
    /// A full miss serviced by the next level of the hierarchy.
    Miss,
}

impl AccessOutcome {
    /// Returns `true` if the first-level cache itself hit.
    pub const fn is_l1_hit(&self) -> bool {
        matches!(self, AccessOutcome::L1Hit)
    }

    /// Returns `true` if the reference missed L1 but was satisfied on-chip
    /// (victim cache, miss cache, or stream buffer).
    pub const fn is_removed_miss(&self) -> bool {
        matches!(
            self,
            AccessOutcome::VictimHit
                | AccessOutcome::MissCacheHit
                | AccessOutcome::StreamHit { .. }
        )
    }

    /// Returns `true` for a full off-chip miss.
    pub const fn is_full_miss(&self) -> bool {
        matches!(self, AccessOutcome::Miss)
    }
}

/// Per-outcome counters for an [`AugmentedCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AugmentedStats {
    /// Total references.
    pub accesses: u64,
    /// References that hit in L1.
    pub l1_hits: u64,
    /// L1 misses satisfied by the victim cache.
    pub victim_hits: u64,
    /// L1 misses satisfied by the miss cache.
    pub miss_cache_hits: u64,
    /// L1 misses satisfied by a stream buffer.
    pub stream_hits: u64,
    /// L1 misses that went to the next hierarchy level.
    pub full_misses: u64,
    /// Ticks stalled waiting on in-flight stream-buffer prefetches.
    pub stream_stall_ticks: u64,
    /// L1 misses whose line was present in *both* the conflict aid and a
    /// stream-buffer head (the §5 orthogonality statistic).
    pub overlap_hits: u64,
}

impl AugmentedStats {
    /// L1 misses (identical to what the bare cache would take: the
    /// mechanisms change where misses are serviced, not the L1 contents).
    pub const fn l1_misses(&self) -> u64 {
        self.accesses - self.l1_hits
    }

    /// Misses removed: L1 misses serviced on-chip in one cycle.
    pub const fn removed_misses(&self) -> u64 {
        self.victim_hits + self.miss_cache_hits + self.stream_hits
    }

    /// L1 miss rate of the underlying direct-mapped cache.
    pub fn l1_miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.l1_misses() as f64 / self.accesses as f64
        }
    }

    /// Miss rate *after* the mechanisms: full misses per access.
    pub fn demand_miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.full_misses as f64 / self.accesses as f64
        }
    }

    /// Fraction of L1 misses removed by the mechanisms (0.0 with no
    /// misses).
    pub fn removed_fraction(&self) -> f64 {
        let misses = self.l1_misses();
        if misses == 0 {
            0.0
        } else {
            self.removed_misses() as f64 / misses as f64
        }
    }
}

impl fmt::Display for AugmentedStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} accesses: {} L1 hits, {} victim, {} miss-cache, {} stream, {} full misses",
            self.accesses,
            self.l1_hits,
            self.victim_hits,
            self.miss_cache_hits,
            self.stream_hits,
            self.full_misses
        )
    }
}

enum Aid {
    None,
    Miss(MissCache),
    Victim(VictimCache),
}

/// One first-level miss: everything the structures behind the L1 see.
///
/// The L1 is refilled on every miss whatever the augmentation does, so
/// its contents, and therefore this miss stream, do not depend on the
/// augmentation at all. A [`crate::MissLog`] records it once per L1
/// geometry and answers every augmentation from it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct L1Miss {
    /// Position of the missing reference in the stream (1-based). Stream
    /// buffers time their prefetches in these ticks.
    pub(crate) tick: u64,
    /// The line that missed.
    pub(crate) line: LineAddr,
    /// The line the L1 refill displaced, or `line` itself if the set was
    /// not full: a refill never displaces the line it brings in. This
    /// keeps an entry at 24 bytes where an `Option` would make it 32, and
    /// a sweep holds millions of them.
    displaced: LineAddr,
}

impl L1Miss {
    pub(crate) fn new(tick: u64, line: LineAddr, victim: Option<LineAddr>) -> Self {
        debug_assert_ne!(victim, Some(line), "a refill displaces another line");
        L1Miss {
            tick,
            line,
            displaced: victim.unwrap_or(line),
        }
    }

    /// The line the L1 refill displaced, if the set was full.
    pub(crate) fn victim(&self) -> Option<LineAddr> {
        (self.displaced != self.line).then_some(self.displaced)
    }
}

/// The first-level half of an augmented cache: the L1 and the reference
/// clock. Each step refills the L1 on a miss and reports the miss.
pub(crate) struct L1Filter {
    cache: Cache,
    tick: u64,
}

impl L1Filter {
    pub(crate) fn new(geom: CacheGeometry) -> Self {
        L1Filter {
            cache: Cache::new(geom),
            tick: 0,
        }
    }

    /// References `line`: `None` on an L1 hit, else the miss.
    #[inline]
    pub(crate) fn step(&mut self, line: LineAddr) -> Option<L1Miss> {
        self.tick += 1;
        match self.cache.access_line(line) {
            AccessResult::Hit => None,
            AccessResult::Miss { victim } => Some(L1Miss::new(self.tick, line, victim)),
        }
    }
}

/// The miss half of an augmented cache: the conflict aid and the stream
/// buffers, which act only on L1 misses. The per-reference
/// [`AugmentedCache`] and [`crate::MissLog::replay`] both drive this one
/// handler.
pub(crate) struct MissPath {
    aid: Aid,
    stream: Option<MultiWayStreamBuffer>,
}

impl MissPath {
    /// # Panics
    ///
    /// Panics if a conflict aid is configured with zero entries.
    pub(crate) fn new(cfg: &AugmentedConfig) -> Self {
        let aid = match cfg.aid {
            ConflictAid::None => Aid::None,
            ConflictAid::MissCache(n) => Aid::Miss(MissCache::new(n)),
            ConflictAid::VictimCache(n) => Aid::Victim(VictimCache::with_policy(n, cfg.aid_policy)),
        };
        let stream = (cfg.stream_ways > 0).then(|| {
            let sb = MultiWayStreamBuffer::new(cfg.stream_ways, cfg.stream_cfg);
            if cfg.stride_detection > 0 {
                sb.with_stride_detector(StrideDetector::new(cfg.stride_detection))
            } else {
                sb
            }
        });
        MissPath { aid, stream }
    }

    /// Services one L1 miss, whose refill has already displaced
    /// `miss.victim`, and counts where it was satisfied.
    #[inline]
    pub(crate) fn handle(&mut self, miss: L1Miss, stats: &mut AugmentedStats) -> AccessOutcome {
        let (tick, line, victim) = (miss.tick, miss.line, miss.victim());
        let aid_holds = match &self.aid {
            Aid::None => false,
            Aid::Miss(mc) => mc.contains(line),
            Aid::Victim(vc) => vc.contains(line),
        };
        // §5 orthogonality statistic: would a stream-buffer head also have
        // supplied the line the conflict aid holds?
        if aid_holds
            && self
                .stream
                .as_ref()
                .is_some_and(|sb| sb.probe(line, tick).is_hit())
        {
            stats.overlap_hits += 1;
        }

        // 1. Fully-associative conflict aid (one-cycle reload/swap).
        match &mut self.aid {
            Aid::Victim(vc) if aid_holds => {
                vc.probe_swap(line, victim);
                stats.victim_hits += 1;
                return AccessOutcome::VictimHit;
            }
            Aid::Miss(mc) if aid_holds => {
                mc.probe_and_touch(line);
                stats.miss_cache_hits += 1;
                return AccessOutcome::MissCacheHit;
            }
            // Any other refill hands the L1 victim to a victim cache.
            Aid::Victim(vc) => {
                if let Some(v) = victim {
                    vc.insert_victim(v);
                }
            }
            _ => {}
        }

        // 2. Stream-buffer heads (one-cycle reload once the line arrives).
        if let Some(sb) = &mut self.stream {
            match sb.probe_consume(line, tick) {
                StreamProbe::HitReady => {
                    stats.stream_hits += 1;
                    return AccessOutcome::StreamHit { stall: 0 };
                }
                StreamProbe::HitPending { remaining } => {
                    stats.stream_hits += 1;
                    stats.stream_stall_ticks += remaining;
                    return AccessOutcome::StreamHit { stall: remaining };
                }
                StreamProbe::Miss => {}
            }
        }

        // 3. Full miss: refilled from the next level.
        if let Aid::Miss(mc) = &mut self.aid {
            mc.insert(line);
        }
        if let Some(sb) = &mut self.stream {
            sb.handle_miss(line, tick);
        }
        stats.full_misses += 1;
        AccessOutcome::Miss
    }
}

/// A direct-mapped first-level cache augmented with an optional
/// victim/miss cache and optional stream buffers — the organizations of
/// Figures 3-2, 3-4, 4-2, and 4-4, individually or combined (Figure 5-1).
///
/// Probe order on an L1 miss follows the hardware: the fully-associative
/// conflict aid is checked first (it is probed in parallel with L1 and can
/// supply the line in the next cycle), then the stream-buffer heads, then
/// the refill path. The L1 victim of every refill feeds the victim cache;
/// the requested line of every off-chip refill feeds the miss cache.
///
/// The underlying L1 contents evolve exactly as a bare cache's would, so a
/// single simulation yields both the baseline miss count
/// ([`AugmentedStats::l1_misses`]) and the improved miss count
/// ([`AugmentedStats::full_misses`]).
pub struct AugmentedCache {
    cfg: AugmentedConfig,
    l1: L1Filter,
    misses: MissPath,
    stats: AugmentedStats,
}

impl AugmentedCache {
    /// Builds the organization described by `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if a conflict aid is configured with zero entries.
    pub fn new(cfg: AugmentedConfig) -> Self {
        AugmentedCache {
            cfg,
            l1: L1Filter::new(cfg.geom),
            misses: MissPath::new(&cfg),
            stats: AugmentedStats::default(),
        }
    }

    /// The configuration this cache was built from.
    pub fn config(&self) -> &AugmentedConfig {
        &self.cfg
    }

    /// Accumulated outcome counters.
    pub fn stats(&self) -> &AugmentedStats {
        &self.stats
    }

    /// References a byte address.
    pub fn access(&mut self, addr: Addr) -> AccessOutcome {
        self.access_line(self.cfg.geom.line_of(addr))
    }

    /// References a line address.
    pub fn access_line(&mut self, line: LineAddr) -> AccessOutcome {
        self.stats.accesses += 1;
        match self.l1.step(line) {
            None => {
                self.stats.l1_hits += 1;
                AccessOutcome::L1Hit
            }
            Some(miss) => self.misses.handle(miss, &mut self.stats),
        }
    }

    /// Checks the victim-cache exclusivity invariant: no line may be
    /// resident in both L1 and the victim cache. Intended for tests;
    /// returns `true` when the invariant holds (vacuously for non-victim
    /// configurations).
    pub fn exclusivity_holds(&self) -> bool {
        match &self.misses.aid {
            Aid::Victim(vc) => self.l1.cache.resident_lines().all(|l| !vc.contains(l)),
            _ => true,
        }
    }
}

impl fmt::Debug for AugmentedCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AugmentedCache")
            .field("config", &self.cfg)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> CacheGeometry {
        CacheGeometry::direct_mapped(4096, 16).unwrap()
    }

    fn l(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    #[test]
    fn bare_cache_counts_full_misses() {
        let mut c = AugmentedCache::new(AugmentedConfig::new(geom()));
        c.access_line(l(0));
        c.access_line(l(0));
        c.access_line(l(256)); // conflict
        let s = c.stats();
        assert_eq!(s.accesses, 3);
        assert_eq!(s.l1_hits, 1);
        assert_eq!(s.full_misses, 2);
        assert_eq!(s.removed_misses(), 0);
    }

    #[test]
    fn victim_cache_absorbs_tight_conflict() {
        let cfg = AugmentedConfig::new(geom()).victim_cache(1);
        let mut c = AugmentedCache::new(cfg);
        for i in 0..20 {
            let line = if i % 2 == 0 { l(0) } else { l(256) };
            c.access_line(line);
            assert!(c.exclusivity_holds(), "exclusivity broken at step {i}");
        }
        let s = c.stats();
        assert_eq!(s.full_misses, 2); // cold only
        assert_eq!(s.victim_hits, 18);
        assert_eq!(s.l1_hits, 0);
    }

    #[test]
    fn miss_cache_needs_two_entries_for_a_pair() {
        // One-entry miss cache is useless for an alternating pair (§3.2:
        // "victim caches consisting of just one line are useful, in
        // contrast to miss caches which must have two lines to be useful").
        let one = {
            let mut c = AugmentedCache::new(AugmentedConfig::new(geom()).miss_cache(1));
            for i in 0..40 {
                c.access_line(if i % 2 == 0 { l(0) } else { l(256) });
            }
            c.stats().miss_cache_hits
        };
        let two = {
            let mut c = AugmentedCache::new(AugmentedConfig::new(geom()).miss_cache(2));
            for i in 0..40 {
                c.access_line(if i % 2 == 0 { l(0) } else { l(256) });
            }
            c.stats().miss_cache_hits
        };
        assert_eq!(one, 0);
        assert_eq!(two, 38);
    }

    #[test]
    fn victim_dominates_miss_cache_on_wider_conflicts() {
        // Four lines mapping to two sets, alternating: a 2-entry victim
        // cache captures what a 2-entry miss cache cannot.
        let run = |cfg: AugmentedConfig| {
            let mut c = AugmentedCache::new(cfg);
            for _ in 0..20 {
                for &n in &[0u64, 1, 256, 257] {
                    c.access_line(l(n));
                }
            }
            c.stats().removed_misses()
        };
        let mc = run(AugmentedConfig::new(geom()).miss_cache(2));
        let vc = run(AugmentedConfig::new(geom()).victim_cache(2));
        assert!(
            vc > mc,
            "victim cache ({vc}) should beat miss cache ({mc}) here"
        );
    }

    #[test]
    fn stream_buffer_removes_sequential_misses() {
        let cfg = AugmentedConfig::new(geom()).stream_buffer(StreamBufferConfig::new(4));
        let mut c = AugmentedCache::new(cfg);
        // 1000 sequential lines sweeping far beyond the 256-line cache.
        for n in 0..1000 {
            c.access_line(l(n + 10_000));
        }
        let s = c.stats();
        assert_eq!(s.full_misses, 1, "only the stream-starting miss remains");
        assert_eq!(s.stream_hits, 999);
    }

    #[test]
    fn interleaved_streams_defeat_single_but_not_multi_way() {
        let run = |ways: usize| {
            let cfg = if ways == 1 {
                AugmentedConfig::new(geom()).stream_buffer(StreamBufferConfig::new(4))
            } else {
                AugmentedConfig::new(geom())
                    .multi_way_stream_buffer(ways, StreamBufferConfig::new(4))
            };
            let mut c = AugmentedCache::new(cfg);
            for i in 0..500u64 {
                // Three interleaved unit-stride streams, far apart.
                c.access_line(l(100_000 + i));
                c.access_line(l(200_000 + i));
                c.access_line(l(300_000 + i));
            }
            c.stats().full_misses
        };
        let single = run(1);
        let multi = run(4);
        assert!(
            multi * 10 < single,
            "4-way ({multi}) should remove vastly more than single ({single})"
        );
    }

    #[test]
    fn l1_miss_count_is_independent_of_mechanisms() {
        // The key accounting identity: mechanisms change where misses are
        // serviced, never whether L1 misses.
        let stream: Vec<LineAddr> = (0..2000u64).map(|i| l((i * 17 + i % 13) % 600)).collect();
        let mut counts = Vec::new();
        let configs = [
            AugmentedConfig::new(geom()),
            AugmentedConfig::new(geom()).victim_cache(4),
            AugmentedConfig::new(geom()).miss_cache(4),
            AugmentedConfig::new(geom()).stream_buffer(StreamBufferConfig::new(4)),
            AugmentedConfig::new(geom())
                .victim_cache(4)
                .multi_way_stream_buffer(4, StreamBufferConfig::new(4)),
        ];
        for cfg in configs {
            let mut c = AugmentedCache::new(cfg);
            for &line in &stream {
                c.access_line(line);
            }
            counts.push(c.stats().l1_misses());
        }
        assert!(
            counts.windows(2).all(|w| w[0] == w[1]),
            "L1 miss counts diverged: {counts:?}"
        );
    }

    #[test]
    fn outcome_accounting_sums() {
        let cfg = AugmentedConfig::new(geom())
            .victim_cache(2)
            .stream_buffer(StreamBufferConfig::new(4));
        let mut c = AugmentedCache::new(cfg);
        for i in 0..3000u64 {
            c.access_line(l((i * 7 + i % 29) % 700));
        }
        let s = *c.stats();
        assert_eq!(
            s.accesses,
            s.l1_hits + s.victim_hits + s.miss_cache_hits + s.stream_hits + s.full_misses
        );
        assert_eq!(s.l1_misses(), s.removed_misses() + s.full_misses);
        assert!(s.removed_fraction() >= 0.0 && s.removed_fraction() <= 1.0);
        assert!(s.demand_miss_rate() <= s.l1_miss_rate());
    }

    #[test]
    fn outcome_predicates() {
        assert!(AccessOutcome::L1Hit.is_l1_hit());
        assert!(!AccessOutcome::L1Hit.is_removed_miss());
        assert!(AccessOutcome::VictimHit.is_removed_miss());
        assert!(AccessOutcome::MissCacheHit.is_removed_miss());
        assert!(AccessOutcome::StreamHit { stall: 3 }.is_removed_miss());
        assert!(AccessOutcome::Miss.is_full_miss());
        assert!(!AccessOutcome::Miss.is_removed_miss());
    }

    #[test]
    fn stream_latency_accumulates_stall() {
        let cfg = AugmentedConfig::new(geom())
            .stream_buffer(StreamBufferConfig::new(4).latency(1_000_000));
        let mut c = AugmentedCache::new(cfg);
        for n in 0..10 {
            c.access_line(l(n + 50_000));
        }
        let s = c.stats();
        assert!(s.stream_hits > 0);
        assert!(s.stream_stall_ticks > 0, "huge latency must cause stalls");
    }

    #[test]
    fn empty_stats_rates_are_zero() {
        let c = AugmentedCache::new(AugmentedConfig::new(geom()));
        assert_eq!(c.stats().l1_miss_rate(), 0.0);
        assert_eq!(c.stats().demand_miss_rate(), 0.0);
        assert_eq!(c.stats().removed_fraction(), 0.0);
    }

    #[test]
    fn byte_address_entry_point() {
        let mut c = AugmentedCache::new(AugmentedConfig::new(geom()).victim_cache(2));
        assert_eq!(c.access(Addr::new(0x0)), AccessOutcome::Miss);
        assert_eq!(c.access(Addr::new(0x8)), AccessOutcome::L1Hit);
        assert_eq!(c.access(Addr::new(0x1000)), AccessOutcome::Miss);
        assert_eq!(c.access(Addr::new(0x0)), AccessOutcome::VictimHit);
    }

    #[test]
    fn overlap_counted_when_both_would_hit() {
        let cfg = AugmentedConfig::new(geom())
            .victim_cache(4)
            .multi_way_stream_buffer(4, StreamBufferConfig::new(4));
        let mut c = AugmentedCache::new(cfg);
        // 13 misses: a way streams 14 on. 269 evicts 13 into the victim
        // cache: a way streams 270 on. 12 misses: a way streams 13 on.
        for n in [13, 269, 12] {
            assert_eq!(c.access_line(l(n)), AccessOutcome::Miss);
        }
        // 13 is in the victim cache and at a stream head: the victim cache
        // supplies it, and both could have.
        assert_eq!(c.access_line(l(13)), AccessOutcome::VictimHit);
        // 14 is at a stream head only: no overlap.
        assert_eq!(c.access_line(l(14)), AccessOutcome::StreamHit { stall: 0 });
        let s = c.stats();
        assert_eq!(s.overlap_hits, 1);
        assert_eq!(s.victim_hits, 1);
        assert_eq!(s.stream_hits, 1);
        assert_eq!(s.full_misses, 3);
    }
}
