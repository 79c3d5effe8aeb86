//! The multi-way stream buffer of §4.2.

use jouppi_trace::LineAddr;

use crate::stride::StrideDetector;
use crate::{StreamBuffer, StreamBufferConfig, StreamProbe};

/// Several [`StreamBuffer`]s in parallel, so interleaved reference streams
/// (e.g. array operations reading multiple operand vectors) can each hold a
/// buffer (§4.2; the paper uses four ways).
///
/// On a miss every way's head comparator is checked; a hit consumes from
/// the matching way. When no way hits, the **least-recently-hit** way is
/// cleared and restarted at the miss address — sequentially, or with the
/// stride an optional [`StrideDetector`] confirms (see
/// [`with_stride_detector`](Self::with_stride_detector)).
///
/// # Examples
///
/// Two interleaved streams — the pattern that defeats a single buffer —
/// both stay resident in a 4-way buffer:
///
/// ```
/// use jouppi_core::{MultiWayStreamBuffer, StreamBufferConfig, StreamProbe};
/// use jouppi_trace::LineAddr;
///
/// let mut sb = MultiWayStreamBuffer::new(4, StreamBufferConfig::new(4));
/// sb.handle_miss(LineAddr::new(1_000), 0);
/// sb.handle_miss(LineAddr::new(9_000), 1);
/// for i in 1..20 {
///     let t = 2 * i as u64;
///     assert!(sb.probe_consume(LineAddr::new(1_000 + i), t).is_hit());
///     assert!(sb.probe_consume(LineAddr::new(9_000 + i), t + 1).is_hit());
/// }
/// ```
#[derive(Clone, Debug)]
pub struct MultiWayStreamBuffer {
    ways: Vec<StreamBuffer>,
    detector: Option<StrideDetector>,
}

impl MultiWayStreamBuffer {
    /// Creates `ways` parallel sequential stream buffers, all sharing one
    /// configuration.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero.
    pub fn new(ways: usize, cfg: StreamBufferConfig) -> Self {
        assert!(ways > 0, "a multi-way stream buffer needs at least one way");
        MultiWayStreamBuffer {
            ways: (0..ways).map(|_| StreamBuffer::new(cfg)).collect(),
            detector: None,
        }
    }

    /// Allocates each new stream with the stride `detector` confirms in
    /// the miss stream — the §5 future-work extension for non-unit-stride
    /// numeric code (see [`crate::stride`]). A purely sequential stream
    /// still hits exactly as in a sequential buffer.
    ///
    /// # Examples
    ///
    /// A stride-50 column sweep (e.g. walking a matrix row in
    /// column-major storage) defeats the sequential buffer but not this
    /// one:
    ///
    /// ```
    /// use jouppi_core::stride::StrideDetector;
    /// use jouppi_core::{MultiWayStreamBuffer, StreamBufferConfig};
    /// use jouppi_trace::LineAddr;
    ///
    /// let mut sb = MultiWayStreamBuffer::new(4, StreamBufferConfig::new(4))
    ///     .with_stride_detector(StrideDetector::new(64));
    /// let mut hits = 0;
    /// for i in 0..20u64 {
    ///     let line = LineAddr::new(1000 + 50 * i);
    ///     if sb.probe_consume(line, i).is_hit() {
    ///         hits += 1;
    ///     } else {
    ///         sb.handle_miss(line, i);
    ///     }
    /// }
    /// assert!(hits >= 16); // everything after stride confirmation
    /// ```
    #[must_use]
    pub fn with_stride_detector(mut self, detector: StrideDetector) -> Self {
        self.detector = Some(detector);
        self
    }

    /// Number of parallel ways.
    pub fn num_ways(&self) -> usize {
        self.ways.len()
    }

    /// The per-way configuration.
    pub fn config(&self) -> &StreamBufferConfig {
        self.ways[0].config()
    }

    /// Returns `true` if `line` is buffered in any way (overlap statistics;
    /// the hardware only sees the heads).
    pub fn contains(&self, line: LineAddr) -> bool {
        self.ways.iter().any(|w| w.contains(line))
    }

    /// Compares `line` against every way's head without consuming.
    pub fn probe(&self, line: LineAddr, now: u64) -> StreamProbe {
        self.ways
            .iter()
            .map(|w| w.probe(line, now))
            .find(StreamProbe::is_hit)
            .unwrap_or(StreamProbe::Miss)
    }

    /// Probes each way's head once on a cache miss, in order, and consumes
    /// from the first that hits. Returns [`StreamProbe::Miss`] if no way
    /// matched; **pass such a miss to [`handle_miss`](Self::handle_miss)**,
    /// which reallocates a way and lets a stride detector see the whole
    /// demand-miss stream.
    pub fn probe_consume(&mut self, line: LineAddr, now: u64) -> StreamProbe {
        self.ways
            .iter_mut()
            .map(|w| w.probe_consume(line, now))
            .find(StreamProbe::is_hit)
            .unwrap_or(StreamProbe::Miss)
    }

    /// Records a full miss: feeds the stride detector, if any, and
    /// reallocates the least-recently-used way to a new stream starting
    /// after `miss`, idle ways first.
    pub fn handle_miss(&mut self, miss: LineAddr, now: u64) {
        let stride = self.detector.as_mut().map_or(1, |d| d.observe_miss(miss));
        let lru = self
            .ways
            .iter_mut()
            .min_by_key(|w| if w.is_active() { w.last_use() + 1 } else { 0 })
            .expect("at least one way");
        lru.restart_strided(miss, stride, now);
    }

    /// Flushes every way and forgets the detector's history.
    pub fn flush(&mut self) {
        for way in &mut self.ways {
            way.flush();
        }
        if let Some(d) = &mut self.detector {
            d.reset();
        }
    }

    /// Iterates over the individual ways (for inspection in tests and
    /// reports).
    pub fn ways(&self) -> impl Iterator<Item = &StreamBuffer> {
        self.ways.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    fn four_way() -> MultiWayStreamBuffer {
        MultiWayStreamBuffer::new(4, StreamBufferConfig::new(4))
    }

    #[test]
    fn four_interleaved_streams_all_hit() {
        let mut sb = four_way();
        let bases = [100u64, 5_000, 90_000, 700_000];
        for (i, &b) in bases.iter().enumerate() {
            sb.handle_miss(l(b), i as u64);
        }
        let mut t = 10;
        for i in 1..30u64 {
            for &b in &bases {
                assert!(
                    sb.probe_consume(l(b + i), t).is_hit(),
                    "stream at base {b} lost its way"
                );
                t += 1;
            }
        }
    }

    #[test]
    fn fifth_stream_evicts_least_recently_hit() {
        let mut sb = four_way();
        let bases = [100u64, 5_000, 90_000, 700_000];
        for (i, &b) in bases.iter().enumerate() {
            sb.handle_miss(l(b), i as u64);
        }
        // Touch streams 1..3 (leaving stream at 100 least recently used).
        let mut t = 10;
        for &b in &bases[1..] {
            assert!(sb.probe_consume(l(b + 1), t).is_hit());
            t += 1;
        }
        // New stream: must evict the way tracking base 100.
        sb.handle_miss(l(42_000_000), t);
        assert_eq!(sb.probe_consume(l(101), t + 1), StreamProbe::Miss);
        assert!(sb.probe_consume(l(42_000_001), t + 2).is_hit());
    }

    #[test]
    fn idle_ways_are_allocated_before_active_ones() {
        let mut sb = four_way();
        sb.handle_miss(l(100), 5);
        sb.handle_miss(l(200), 6);
        // Two ways active, two idle; next allocation must take an idle way,
        // keeping both active streams hittable.
        sb.handle_miss(l(300), 7);
        assert!(sb.probe_consume(l(101), 8).is_hit());
        assert!(sb.probe_consume(l(201), 9).is_hit());
        assert!(sb.probe_consume(l(301), 10).is_hit());
    }

    #[test]
    fn single_way_behaves_like_plain_stream_buffer() {
        let mut multi = MultiWayStreamBuffer::new(1, StreamBufferConfig::new(4));
        let mut single = StreamBuffer::new(StreamBufferConfig::new(4));
        multi.handle_miss(l(10), 0);
        single.restart(l(10), 0);
        for n in 11..40 {
            assert_eq!(multi.probe_consume(l(n), 0), single.probe_consume(l(n), 0));
        }
        // Interleaving defeats one way in both models identically.
        assert_eq!(multi.probe_consume(l(100), 0), StreamProbe::Miss);
    }

    #[test]
    fn probe_does_not_consume() {
        let mut sb = four_way();
        sb.handle_miss(l(10), 0);
        assert!(sb.probe(l(11), 1).is_hit());
        assert!(sb.probe(l(11), 2).is_hit()); // still there
        assert!(sb.probe_consume(l(11), 3).is_hit());
        assert_eq!(sb.probe(l(11), 4), StreamProbe::Miss); // consumed
    }

    #[test]
    fn contains_searches_all_ways_and_depths() {
        let mut sb = four_way();
        sb.handle_miss(l(10), 0);
        sb.handle_miss(l(500), 1);
        assert!(sb.contains(l(13)));
        assert!(sb.contains(l(503)));
        assert!(!sb.contains(l(10))); // the miss target itself is not buffered
        assert_eq!(sb.num_ways(), 4);
        assert_eq!(sb.ways().filter(|w| w.is_active()).count(), 2);
    }

    #[test]
    fn flush_clears_everything() {
        let mut sb = four_way();
        sb.handle_miss(l(10), 0);
        sb.flush();
        assert_eq!(sb.probe_consume(l(11), 1), StreamProbe::Miss);
        assert!(sb.ways().all(|w| !w.is_active()));
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_ways_panics() {
        let _ = MultiWayStreamBuffer::new(0, StreamBufferConfig::default());
    }
}
