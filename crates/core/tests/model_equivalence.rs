//! Cross-structure equivalence properties for the paper's mechanisms.
//!
//! Each property runs seeded rounds of random line streams and
//! parameters. Randomness comes from the workspace's seeded xoshiro PRNG
//! (`jouppi_trace::SmallRng`), so every failure reproduces from the
//! printed seed and round.

use jouppi_cache::CacheGeometry;
use jouppi_core::stride::StrideDetector;
use jouppi_core::{
    AugmentedCache, AugmentedConfig, MissCache, MultiWayStreamBuffer, StreamBuffer,
    StreamBufferConfig, StreamProbe,
};
use jouppi_trace::{LineAddr, SmallRng};

const SEED: u64 = 0x4d4f_4445_4c45_5155; // "MODELEQU"
const ROUNDS: usize = 96;

fn l(n: u64) -> LineAddr {
    LineAddr::new(n)
}

/// `1..len` lines drawn from `0..max_line`.
fn line_stream(rng: &mut SmallRng, max_line: u64, len: usize) -> Vec<u64> {
    (0..1 + rng.below(len - 1))
        .map(|_| rng.below(max_line as usize) as u64)
        .collect()
}

/// The small direct-mapped L1 the composite properties run on: 8 lines
/// of 16B.
fn l1() -> CacheGeometry {
    CacheGeometry::direct_mapped(8 * 16, 16).expect("power-of-two geometry")
}

/// A naive stream-buffer model: remembers the expected next lines of the
/// current run and the remaining budget.
struct NaiveStream {
    expected: Vec<u64>, // the full future of the run, front = head-ish
    max_run: usize,
}

impl NaiveStream {
    fn new(max_run: usize) -> Self {
        NaiveStream {
            expected: Vec::new(),
            max_run,
        }
    }

    fn restart(&mut self, miss: u64) {
        self.expected = (1..=self.max_run as u64).map(|i| miss + i).collect();
    }

    /// Mirrors "only the head has a comparator": a hit requires the probed
    /// line to be the next expected line. With zero latency the FIFO
    /// refills as it drains, so its depth never decides a hit.
    fn probe_consume(&mut self, line: u64) -> bool {
        if self.expected.first() == Some(&line) {
            self.expected.remove(0);
            true
        } else {
            false
        }
    }
}

/// The real FIFO stream buffer with zero latency is equivalent to the
/// naive "expected next line with budget" model.
#[test]
fn stream_buffer_matches_naive_model() {
    let mut rng = SmallRng::seed_from_u64(SEED);
    for round in 0..ROUNDS {
        let stream = line_stream(&mut rng, 64, 400);
        let depth = 1 + rng.below(5);
        let max_run = rng.below(20);
        let cfg = StreamBufferConfig::new(depth).max_run(max_run);
        let mut sb = StreamBuffer::new(cfg);
        let mut model = NaiveStream::new(max_run);
        for (t, &n) in stream.iter().enumerate() {
            let real = sb.probe_consume(l(n), t as u64).is_hit();
            let expect = model.probe_consume(n);
            assert_eq!(
                real, expect,
                "seed {SEED:#x} round {round}: depth {depth} run {max_run}, ref {t} (line {n})"
            );
            if !real {
                sb.restart(l(n), t as u64);
                model.restart(n);
            }
        }
    }
}

/// A 1-way MultiWayStreamBuffer behaves exactly like a single
/// StreamBuffer.
#[test]
fn one_way_multi_equals_single() {
    let mut rng = SmallRng::seed_from_u64(SEED ^ 1);
    for round in 0..ROUNDS {
        let stream = line_stream(&mut rng, 128, 400);
        let cfg = StreamBufferConfig::new(4);
        let mut single = StreamBuffer::new(cfg);
        let mut multi = MultiWayStreamBuffer::new(1, cfg);
        for (t, &n) in stream.iter().enumerate() {
            let a = single.probe_consume(l(n), t as u64);
            let b = multi.probe_consume(l(n), t as u64);
            assert_eq!(a, b, "seed {SEED:#x} round {round}: ref {t} (line {n})");
            if a == StreamProbe::Miss {
                single.restart(l(n), t as u64);
                multi.handle_miss(l(n), t as u64);
            }
        }
    }
}

/// With stride detection enabled, a purely sequential stream behaves
/// identically to the plain multi-way buffer (the detector confirms
/// stride 1 and allocates unit streams).
#[test]
fn strided_buffer_equals_plain_on_unit_streams() {
    let mut rng = SmallRng::seed_from_u64(SEED ^ 2);
    for round in 0..ROUNDS {
        let start = rng.below(1000) as u64;
        let len = 10 + rng.below(190) as u64;
        let cfg = StreamBufferConfig::new(4);
        let mut plain = MultiWayStreamBuffer::new(4, cfg);
        let mut strided =
            MultiWayStreamBuffer::new(4, cfg).with_stride_detector(StrideDetector::new(64));
        for (t, n) in (start..start + len).enumerate() {
            let a = plain.probe_consume(l(n), t as u64);
            let b = strided.probe_consume(l(n), t as u64);
            assert_eq!(a, b, "seed {SEED:#x} round {round}: diverged at {n}");
            if a == StreamProbe::Miss {
                plain.handle_miss(l(n), t as u64);
                strided.handle_miss(l(n), t as u64);
            }
        }
    }
}

/// Miss cache as reference model: an L1+miss-cache composite's
/// miss-cache hits equal a hand-rolled simulation of §3.1's rules.
#[test]
fn miss_cache_composite_matches_manual_rules() {
    let mut rng = SmallRng::seed_from_u64(SEED ^ 3);
    for round in 0..ROUNDS {
        let stream = line_stream(&mut rng, 48, 400);
        let entries = 1 + rng.below(5);
        let mut composite = AugmentedCache::new(AugmentedConfig::new(l1()).miss_cache(entries));
        // Manual: plain DM cache + MissCache structure.
        let mut dm = jouppi_cache::Cache::new(l1());
        let mut mc = MissCache::new(entries);
        let mut manual_mc_hits = 0u64;
        for &n in &stream {
            let line = l(n);
            composite.access_line(line);
            if dm.access_line(line).is_miss() {
                if mc.probe_and_touch(line) {
                    manual_mc_hits += 1;
                } else {
                    mc.insert(line);
                }
            }
        }
        assert_eq!(
            composite.stats().miss_cache_hits,
            manual_mc_hits,
            "seed {SEED:#x} round {round}: {entries} entries"
        );
    }
}

/// Victim-cache composite: total lines tracked (L1 + VC) never exceeds
/// L1 capacity + VC capacity, and the VC only ever holds lines that
/// were once evicted from L1.
#[test]
fn victim_composite_conservation() {
    let mut rng = SmallRng::seed_from_u64(SEED ^ 4);
    for round in 0..ROUNDS {
        let stream = line_stream(&mut rng, 64, 400);
        let entries = 1 + rng.below(5);
        let mut c = AugmentedCache::new(AugmentedConfig::new(l1()).victim_cache(entries));
        for (t, &n) in stream.iter().enumerate() {
            c.access_line(l(n));
            assert!(
                c.exclusivity_holds(),
                "seed {SEED:#x} round {round}: {entries} entries, ref {t} (line {n})"
            );
        }
    }
}

/// Outcome counters always sum to accesses, for arbitrary composite
/// configurations.
#[test]
fn outcome_counters_partition_accesses() {
    let mut rng = SmallRng::seed_from_u64(SEED ^ 5);
    for round in 0..ROUNDS {
        let stream = line_stream(&mut rng, 200, 400);
        let vc = rng.below(5);
        let ways = rng.below(5);
        let stride_detect = rng.below(2) == 1;
        let mut cfg = AugmentedConfig::new(l1());
        if vc > 0 {
            cfg = cfg.victim_cache(vc);
        }
        if ways > 0 {
            cfg = if stride_detect {
                cfg.strided_stream_buffer(ways, StreamBufferConfig::new(4), 32)
            } else {
                cfg.multi_way_stream_buffer(ways, StreamBufferConfig::new(4))
            };
        }
        let mut c = AugmentedCache::new(cfg);
        for &n in &stream {
            c.access_line(l(n));
        }
        let s = c.stats();
        assert_eq!(
            s.accesses,
            s.l1_hits + s.victim_hits + s.miss_cache_hits + s.stream_hits + s.full_misses,
            "seed {SEED:#x} round {round}: {cfg:?}"
        );
    }
}
