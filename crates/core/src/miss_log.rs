//! Filter-then-fan-out: one L1 pass answers every augmentation.
//!
//! Miss caches, victim caches and stream buffers sit between the L1 and
//! its refill path. An L1 hit never reaches them, and the L1 is refilled
//! on every miss whatever they do, so the L1's miss stream is the same
//! for every augmentation of one L1 geometry. A [`MissLog`] records that
//! stream once — `(tick, line, victim)` per miss — and then answers each
//! [`AugmentedConfig`] from the misses alone, a few percent of the
//! references.
//!
//! Four families of configurations need no per-configuration or per-size
//! pass at all (Mattson's stack inclusion, applied as in DEW-style sweeps,
//! and a closed form for one stream buffer):
//!
//! * **Direct-mapped L1 sizes.** At one line size, a hit in a
//!   direct-mapped cache of `2^k` sets is a hit in every larger one: the
//!   larger cache's set for a line sees a subsequence of the smaller
//!   cache's set stream, so if nothing displaced the line from the
//!   smaller set since its last reference, nothing displaced it from the
//!   larger one either. [`MissLog::record_sizes`] walks the sizes
//!   smallest-first over one flat tag array, stops at the first hit, and
//!   appends each size that missed to that size's log — DEW's early
//!   termination (arXiv:1506.03181) applied across set counts (see
//!   [`DirectMappedSweep`]).
//! * **LRU victim caches.** A size-`V` victim cache holds the top `V`
//!   entries of one stack of L1 victims in which a hit removes its entry.
//!   So one pass that records each hit's depth answers every size. The
//!   hit's L1 refill always has a victim to push in its place: the line
//!   was evicted from its set once, so that set was full, and L1 sets
//!   never empty again.
//! * **Miss caches.** Without stream buffers a miss cache is plain LRU
//!   over the miss sequence, so a [`StackDistanceProfile`] of the logged
//!   lines gives every size's hits.
//! * **Stream-run lengths of one sequential buffer.** Only a stream
//!   buffer's head has a comparator (§4.1), so after any miss `x` — a
//!   head hit or a restart — a lone buffer expects `x + 1` next. With no
//!   conflict aid, zero latency and unit stride, a miss therefore hits
//!   exactly when it is one line past the previous miss and the run
//!   budget is not spent, whatever the depth. Call a run of `L` such
//!   misses after one that is not a *chain*: at run budget `R` it gives
//!   `L − ⌊L/(R+1)⌋` hits, and `L` with no limit. One scan that counts
//!   the misses at each position of a chain answers every budget.
//!
//! Every other configuration replays the log through one
//! [`crate::AugmentedCache`] miss handler, whose stream buffers keep only
//! each way's head, stride and run left (see [`crate::StreamBuffer`]).
//!
//! # Examples
//!
//! ```
//! use jouppi_cache::CacheGeometry;
//! use jouppi_core::{AugmentedCache, AugmentedConfig, MissLog};
//! use jouppi_trace::LineAddr;
//!
//! # fn main() -> Result<(), jouppi_cache::GeometryError> {
//! let geom = CacheGeometry::direct_mapped(4096, 16)?;
//! let stream: Vec<LineAddr> = (0..2000u64).map(|i| LineAddr::new(i * 37 % 600)).collect();
//! let log = MissLog::record(geom, stream.iter().copied());
//! let cfgs: Vec<AugmentedConfig> = (1..=4)
//!     .map(|n| AugmentedConfig::new(geom).victim_cache(n))
//!     .collect();
//! for (cfg, stats) in cfgs.iter().zip(log.fan_out(&cfgs)) {
//!     let mut cache = AugmentedCache::new(*cfg);
//!     for &line in &stream {
//!         cache.access_line(line);
//!     }
//!     assert_eq!(stats, *cache.stats());
//! }
//! # Ok(())
//! # }
//! ```

use jouppi_cache::{CacheGeometry, DirectMappedSweep, ReplacementPolicy, StackDistanceProfile};
use jouppi_trace::LineAddr;

use crate::augmented::{L1Miss, MissPath};
use crate::{AugmentedConfig, AugmentedStats, ConflictAid};

/// The misses of one L1 pass over a reference stream.
#[derive(Clone, Debug, PartialEq)]
pub struct MissLog {
    geom: CacheGeometry,
    accesses: u64,
    misses: Vec<L1Miss>,
}

impl MissLog {
    /// Runs `lines` through a bare direct-mapped L1 of geometry `geom`
    /// and records its misses: [`MissLog::record_sizes`] at one size,
    /// each reference a run of one.
    ///
    /// # Panics
    ///
    /// Panics if `geom` is not direct-mapped.
    pub fn record(geom: CacheGeometry, lines: impl IntoIterator<Item = LineAddr>) -> Self {
        let runs = lines.into_iter().map(|line| (line, 1, ()));
        let mut logs = MissLog::record_sizes(&[geom], runs, |(), _| {});
        logs.pop().expect("one log per geometry")
    }

    /// Runs a reference stream once through direct-mapped L1s of every
    /// geometry in `geoms` and records one log per geometry, in order.
    /// Each log equals [`MissLog::record`] at its geometry.
    ///
    /// The stream arrives as `(line, length, tag)` runs: `length`
    /// consecutive references to `line`, and a tag of the caller's. Every
    /// reference after a run's first is an immediate repeat, which hits
    /// at every size and changes nothing, so the pass reads one entry per
    /// run and advances the tick by its length; a miss keeps the tick of
    /// its run's first reference, and [`MissLog::accesses`] counts
    /// references. Consecutive runs may share a line.
    ///
    /// The sizes share one line size and ascend, so a hit at one size is
    /// a hit at every larger one (see the module docs): a
    /// [`DirectMappedSweep`] walks each run through the sizes
    /// smallest-first over one flat tag array and stops at its first hit.
    /// The pass calls `observe(tag, missed)` on every run, in order,
    /// where the `missed` smallest sizes missed its first reference, so a
    /// classifier of every size can ride it, reading the run's line or
    /// line id from its tag.
    ///
    /// # Panics
    ///
    /// Panics if a geometry is not direct-mapped, if the line sizes
    /// differ, if the sizes do not strictly ascend, or if a run is empty.
    pub fn record_sizes<T>(
        geoms: &[CacheGeometry],
        runs: impl IntoIterator<Item = (LineAddr, u64, T)>,
        mut observe: impl FnMut(T, usize),
    ) -> Vec<MissLog> {
        let mut l1s = DirectMappedSweep::new(geoms);
        let mut misses: Vec<Vec<L1Miss>> = vec![Vec::new(); geoms.len()];
        let mut ticks = 0;
        for (line, len, tag) in runs {
            assert!(len > 0, "a run holds at least one reference");
            let tick = ticks + 1;
            let missed = l1s.access_line(line, |size, victim| {
                misses[size].push(L1Miss::new(tick, line, victim));
            });
            ticks += len;
            observe(tag, missed);
        }
        geoms
            .iter()
            .zip(misses)
            .map(|(&geom, misses)| MissLog {
                geom,
                accesses: ticks,
                misses,
            })
            .collect()
    }

    /// The L1 geometry the log was recorded at.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geom
    }

    /// References in the recorded stream.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// L1 misses in the recorded stream.
    pub fn l1_misses(&self) -> u64 {
        self.misses.len() as u64
    }

    /// Statistics with no miss serviced yet.
    fn bare_stats(&self) -> AugmentedStats {
        AugmentedStats {
            accesses: self.accesses,
            l1_hits: self.accesses - self.l1_misses(),
            ..AugmentedStats::default()
        }
    }

    fn check_geometry(&self, cfg: &AugmentedConfig) {
        assert_eq!(
            cfg.geometry(),
            &self.geom,
            "a miss log answers only configurations of its own L1 geometry"
        );
    }

    /// Replays the log through `cfg`'s conflict aid and stream buffers.
    /// The result equals an [`crate::AugmentedCache`] run over the
    /// recorded stream.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` has a different L1 geometry, or a conflict aid
    /// with zero entries.
    pub fn replay(&self, cfg: &AugmentedConfig) -> AugmentedStats {
        self.check_geometry(cfg);
        let mut path = MissPath::new(cfg);
        let mut stats = self.bare_stats();
        for &miss in &self.misses {
            path.handle(miss, &mut stats);
        }
        stats
    }

    /// Statistics of LRU victim caches of `1..=max_entries` entries, with
    /// no stream buffer, from one pass over the victim stack.
    pub fn victim_cache_sweep(&self, max_entries: usize) -> Vec<AugmentedStats> {
        if max_entries == 0 {
            return Vec::new();
        }
        // stack[0] is the most recent victim; deeper entries cannot hit
        // any swept size, so the stack keeps only `max_entries`.
        let mut stack: Vec<LineAddr> = Vec::with_capacity(max_entries + 1);
        let mut hits_at_depth = vec![0u64; max_entries];
        for miss in &self.misses {
            if let Some(depth) = stack.iter().position(|&l| l == miss.line) {
                debug_assert!(
                    miss.victim().is_some(),
                    "a victim-cache hit displaces a line"
                );
                hits_at_depth[depth] += 1;
                stack.remove(depth);
            }
            if let Some(victim) = miss.victim() {
                stack.insert(0, victim);
                stack.truncate(max_entries);
            }
        }
        let mut hits = 0;
        hits_at_depth
            .iter()
            .map(|&h| {
                hits += h;
                AugmentedStats {
                    victim_hits: hits,
                    full_misses: self.l1_misses() - hits,
                    ..self.bare_stats()
                }
            })
            .collect()
    }

    /// Statistics of miss caches of `1..=max_entries` entries, with no
    /// stream buffer, from one stack-distance profile of the missed lines.
    pub fn miss_cache_sweep(&self, max_entries: usize) -> Vec<AugmentedStats> {
        if max_entries == 0 {
            return Vec::new();
        }
        let mut profile = StackDistanceProfile::with_capacity(self.misses.len());
        for miss in &self.misses {
            profile.observe(miss.line);
        }
        (1..=max_entries)
            .map(|entries| {
                let full_misses = profile.misses_for_capacity(entries);
                AugmentedStats {
                    miss_cache_hits: self.l1_misses() - full_misses,
                    full_misses,
                    ..self.bare_stats()
                }
            })
            .collect()
    }

    /// Statistics of one sequential stream buffer at each run budget in
    /// `max_runs` (`None`: unlimited), with no conflict aid, zero latency
    /// and any depth, from one scan of the log's chains (see the module
    /// docs). A line past `u64::MAX` wraps to 0, as a prefetch does.
    pub fn stream_run_sweep(&self, max_runs: &[Option<usize>]) -> Vec<AugmentedStats> {
        if max_runs.is_empty() {
            return Vec::new();
        }
        // at[p]: misses p lines into a chain; a chain of L misses has one
        // at each position 1..=L, and the one at p hits unless p is a
        // multiple of R + 1.
        let mut at = vec![0u64];
        let mut p = 0;
        for pair in self.misses.windows(2) {
            p = if pair[1].line == pair[0].line.next() {
                p + 1
            } else {
                0
            };
            if p == at.len() {
                at.push(0);
            }
            at[p] += 1;
        }
        max_runs
            .iter()
            .map(|&max_run| {
                let period = max_run.map_or(usize::MAX, |r| r.saturating_add(1));
                let hits: u64 = (0..at.len())
                    .filter(|p| p % period != 0)
                    .map(|p| at[p])
                    .sum();
                AugmentedStats {
                    stream_hits: hits,
                    full_misses: self.l1_misses() - hits,
                    ..self.bare_stats()
                }
            })
            .collect()
    }

    /// Answers every configuration, in order. LRU victim caches and miss
    /// caches without stream buffers share one stack pass per kind, and
    /// single sequential stream buffers one chain scan; every other
    /// configuration replays the log.
    ///
    /// # Panics
    ///
    /// Panics if a configuration has a different L1 geometry, or a
    /// conflict aid with zero entries.
    pub fn fan_out(&self, cfgs: &[AugmentedConfig]) -> Vec<AugmentedStats> {
        let plans: Vec<Plan> = cfgs.iter().map(Plan::of).collect();
        let (mut victim_depth, mut miss_depth, mut max_runs) = (0, 0, Vec::new());
        for plan in &plans {
            match *plan {
                Plan::VictimStack(n) => victim_depth = victim_depth.max(n),
                Plan::MissStack(n) => miss_depth = miss_depth.max(n),
                Plan::StreamRuns(max_run) => max_runs.push(max_run),
                Plan::Replay => {}
            }
        }
        let victims = self.victim_cache_sweep(victim_depth);
        let miss_caches = self.miss_cache_sweep(miss_depth);
        let mut stream_runs = self.stream_run_sweep(&max_runs).into_iter();
        cfgs.iter()
            .zip(&plans)
            .map(|(cfg, plan)| {
                self.check_geometry(cfg);
                match *plan {
                    Plan::VictimStack(n) => victims[n - 1],
                    Plan::MissStack(n) => miss_caches[n - 1],
                    Plan::StreamRuns(_) => stream_runs.next().expect("one result per budget"),
                    Plan::Replay => self.replay(cfg),
                }
            })
            .collect()
    }
}

/// How [`MissLog::fan_out`] answers one configuration.
#[derive(Clone, Copy, Debug)]
enum Plan {
    /// From the LRU victim stack, at this many entries.
    VictimStack(usize),
    /// From the miss-line stack-distance profile, at this many entries.
    MissStack(usize),
    /// From the chain scan, at this run budget.
    StreamRuns(Option<usize>),
    /// By replaying the log.
    Replay,
}

impl Plan {
    fn of(cfg: &AugmentedConfig) -> Plan {
        let sb = cfg.stream_config();
        let lru = cfg.aid_policy() == ReplacementPolicy::Lru;
        match (cfg.stream_ways(), cfg.conflict_aid()) {
            (1, ConflictAid::None) if sb.latency_ticks() == 0 && cfg.stride_detection() == 0 => {
                Plan::StreamRuns(sb.run_limit())
            }
            (0, ConflictAid::VictimCache(n)) if n > 0 && lru => Plan::VictimStack(n),
            (0, ConflictAid::MissCache(n)) if n > 0 => Plan::MissStack(n),
            _ => Plan::Replay,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::augmented::L1Filter;

    fn geom() -> CacheGeometry {
        CacheGeometry::direct_mapped(1024, 16).unwrap()
    }

    #[test]
    fn empty_sweeps_and_logs() {
        let log = MissLog::record(geom(), std::iter::empty());
        assert_eq!(log.accesses(), 0);
        assert!(log.victim_cache_sweep(0).is_empty());
        assert!(log.miss_cache_sweep(0).is_empty());
        assert!(log.fan_out(&[]).is_empty());
        let stats = log.fan_out(&[AugmentedConfig::new(geom()).victim_cache(3)]);
        assert_eq!(stats, vec![AugmentedStats::default()]);
    }

    /// What a generic [`jouppi_cache::Cache`] logs.
    fn cache_log(geom: CacheGeometry, lines: &[LineAddr]) -> MissLog {
        let mut l1 = L1Filter::new(geom);
        MissLog {
            geom,
            accesses: lines.len() as u64,
            misses: lines.iter().filter_map(|&line| l1.step(line)).collect(),
        }
    }

    #[test]
    fn direct_mapped_logs_equal_a_generic_cache_even_for_the_all_ones_line() {
        // Lines crowd the top of the address space, so the all-ones line,
        // whose tag equals the sweep's empty-set tag, keeps evicting and
        // being evicted.
        const SEED: u64 = 0x6c6f_6773_3136_6c31;
        let mut rng = jouppi_trace::SmallRng::seed_from_u64(SEED);
        for round in 0..16 {
            let geoms: Vec<CacheGeometry> = (0..4)
                .map(|e| CacheGeometry::direct_mapped(16 << (2 * e), 16).unwrap())
                .collect();
            let lines: Vec<LineAddr> = (0..300 + rng.below(300))
                .map(|_| LineAddr::new(u64::MAX - ((rng.below(6) as u64) << rng.below(8))))
                .collect();
            let runs = lines.iter().map(|&line| (line, 1, ()));
            let logs = MissLog::record_sizes(&geoms, runs, |(), _| {});
            for (geom, log) in geoms.iter().zip(&logs) {
                let oracle = cache_log(*geom, &lines);
                assert_eq!(*log, oracle, "seed {SEED:#x} round {round}: {geom}");
                assert_eq!(MissLog::record(*geom, lines.iter().copied()), oracle);
            }
        }
    }

    #[test]
    #[should_panic(expected = "its own L1 geometry")]
    fn foreign_geometry_is_refused() {
        let log = MissLog::record(geom(), std::iter::empty());
        let other = CacheGeometry::direct_mapped(2048, 16).unwrap();
        log.replay(&AugmentedConfig::new(other));
    }
}
