//! The sequential stream buffer of §4.1.

use jouppi_trace::LineAddr;

/// Configuration for a [`StreamBuffer`].
///
/// * `depth` — number of FIFO entries (the paper uses 4).
/// * `max_run` — how many lines beyond the original miss the buffer may
///   prefetch before the stream must be restarted by a new miss. Figures
///   4-3/4-5 sweep exactly this parameter ("length of stream run");
///   `None` means unlimited (fetch until flushed, the paper's "fetch until
///   the end of a virtual-memory page" deployment).
/// * `latency` — ticks between issuing a prefetch and the line becoming
///   available. The refill path is modeled as fully pipelined (the paper's
///   second-level cache is pipelined precisely so the buffer can keep many
///   fetches in flight). `0` (the default) makes prefetched data available
///   immediately, which matches the paper's miss-removal accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamBufferConfig {
    depth: usize,
    max_run: Option<usize>,
    latency: u64,
}

impl StreamBufferConfig {
    /// Creates a configuration with the given FIFO depth, unlimited run
    /// length, and zero latency.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn new(depth: usize) -> Self {
        assert!(depth > 0, "stream buffer depth must be nonzero");
        StreamBufferConfig {
            depth,
            max_run: None,
            latency: 0,
        }
    }

    /// Limits how many lines may be prefetched per stream run.
    #[must_use]
    pub fn max_run(mut self, lines: usize) -> Self {
        self.max_run = Some(lines);
        self
    }

    /// Sets the prefetch completion latency in ticks.
    #[must_use]
    pub fn latency(mut self, ticks: u64) -> Self {
        self.latency = ticks;
        self
    }

    /// The FIFO depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The per-run prefetch budget, if limited.
    pub fn run_limit(&self) -> Option<usize> {
        self.max_run
    }

    /// The prefetch completion latency in ticks.
    pub fn latency_ticks(&self) -> u64 {
        self.latency
    }
}

impl Default for StreamBufferConfig {
    /// The paper's four-entry buffer with unlimited run and zero latency.
    fn default() -> Self {
        StreamBufferConfig::new(4)
    }
}

/// Result of probing a stream buffer on a cache miss.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamProbe {
    /// The head entry matches and its data has arrived: the cache can be
    /// reloaded in one cycle.
    HitReady,
    /// The head entry matches but the prefetch is still in flight; the
    /// processor stalls for the remaining ticks (less than a full miss).
    HitPending {
        /// Ticks remaining until the line arrives.
        remaining: u64,
    },
    /// The head does not match (only the head has a comparator).
    Miss,
}

impl StreamProbe {
    /// Returns `true` for either hit variant.
    pub const fn is_hit(&self) -> bool {
        !matches!(self, StreamProbe::Miss)
    }
}

/// A sequential stream buffer: a FIFO of prefetched lines following a cache
/// miss, with a tag comparator on the head entry only (§4.1).
///
/// On a miss the buffer begins prefetching successive lines starting *after*
/// the miss target; prefetched lines stay in the buffer (not the cache) to
/// avoid pollution. A subsequent miss that matches the head supplies the
/// line in one cycle; the queue shifts up and the next sequential line is
/// fetched. A miss that does not match the head flushes and restarts the
/// buffer — even if the line is further down the queue.
///
/// Because only the head is ever matched and consumed, the FIFO is always
/// the progression `head, head + stride, …` of the run's next
/// [`len`](Self::len) lines. So the buffer keeps no queue of lines: just
/// the head, the stride and the lines left in the run. With a prefetch
/// latency it also keeps each entry's ready tick, in a ring of `depth`
/// slots; at zero latency every entry has arrived by the time it can be
/// probed, so it keeps none. Ticks passed to one buffer must never
/// decrease.
///
/// # Examples
///
/// ```
/// use jouppi_core::{StreamBuffer, StreamBufferConfig, StreamProbe};
/// use jouppi_trace::LineAddr;
///
/// let mut sb = StreamBuffer::new(StreamBufferConfig::new(4));
/// sb.restart(LineAddr::new(100), 0);          // miss at line 100
/// // The purely sequential reference stream now hits in the buffer:
/// for n in 101..120 {
///     assert_eq!(sb.probe_consume(LineAddr::new(n), 0), StreamProbe::HitReady);
/// }
/// // A non-sequential miss flushes the buffer:
/// assert_eq!(sb.probe_consume(LineAddr::new(500), 0), StreamProbe::Miss);
/// ```
#[derive(Clone, Debug)]
pub struct StreamBuffer {
    cfg: StreamBufferConfig,
    /// The line at the head of the FIFO, while `left > 0`.
    head: LineAddr,
    /// Line-address step between prefetches. 1 for the paper's sequential
    /// buffers; other values support the non-unit-stride extension the
    /// paper lists as future work (see [`crate::stride`]).
    stride: i64,
    /// Lines the run has yet to supply: the FIFO's `min(left, depth)`
    /// entries plus the prefetches not yet issued.
    left: usize,
    active: bool,
    /// Tick of the most recent hit or restart; multi-way allocation uses
    /// this for LRU selection.
    last_use: u64,
    /// Ready tick of each FIFO entry, the head's at `front`; empty at zero
    /// latency.
    ready: Vec<u64>,
    front: usize,
}

impl StreamBuffer {
    /// Creates an idle stream buffer.
    pub fn new(cfg: StreamBufferConfig) -> Self {
        StreamBuffer {
            cfg,
            head: LineAddr::new(0),
            stride: 1,
            left: 0,
            active: false,
            last_use: 0,
            ready: if cfg.latency > 0 {
                vec![0; cfg.depth]
            } else {
                Vec::new()
            },
            front: 0,
        }
    }

    /// The buffer's configuration.
    pub fn config(&self) -> &StreamBufferConfig {
        &self.cfg
    }

    /// Returns `true` if the buffer currently tracks a stream.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Tick of the most recent hit or restart (LRU metadata).
    pub fn last_use(&self) -> u64 {
        self.last_use
    }

    /// The line at the head of the FIFO, if any.
    pub fn head(&self) -> Option<LineAddr> {
        (self.left > 0).then_some(self.head)
    }

    /// Number of prefetched lines currently buffered.
    pub fn len(&self) -> usize {
        self.left.min(self.cfg.depth)
    }

    /// Returns `true` if no lines are buffered.
    pub fn is_empty(&self) -> bool {
        self.left == 0
    }

    /// Returns `true` if `line` is anywhere in the FIFO. The hardware
    /// cannot see past the head; this exists for overlap statistics and
    /// tests.
    pub fn contains(&self, line: LineAddr) -> bool {
        std::iter::successors(Some(self.head), |&l| Some(step(l, self.stride)))
            .take(self.len())
            .any(|l| l == line)
    }

    /// Compares `line` against the head entry without consuming it.
    pub fn probe(&self, line: LineAddr, now: u64) -> StreamProbe {
        debug_assert!(now >= self.last_use, "stream-buffer ticks never decrease");
        if self.left == 0 || line != self.head {
            return StreamProbe::Miss;
        }
        match self.ready.get(self.front) {
            Some(&ready_at) if ready_at > now => StreamProbe::HitPending {
                remaining: ready_at - now,
            },
            _ => StreamProbe::HitReady,
        }
    }

    /// Probes on a cache miss and, on a head hit, consumes the entry
    /// (shifting the queue up and extending the prefetch run). On a miss
    /// the buffer is left untouched — callers decide whether to
    /// [`restart`](StreamBuffer::restart) it (a single buffer restarts
    /// itself; a multi-way buffer restarts only the LRU way).
    pub fn probe_consume(&mut self, line: LineAddr, now: u64) -> StreamProbe {
        let probe = self.probe(line, now);
        if probe.is_hit() {
            if let Some(slot) = self.ready.get_mut(self.front) {
                // With run to spare, the prefetch `depth` lines past the
                // head takes the slot the head frees.
                if self.left > self.cfg.depth {
                    *slot = now + self.cfg.latency;
                }
                self.front = (self.front + 1) % self.cfg.depth;
            }
            self.head = step(self.head, self.stride);
            self.left -= 1;
            self.last_use = now;
        }
        probe
    }

    /// Flushes the buffer and starts a new unit-stride stream at the line
    /// *after* `miss`, issuing prefetches up to the FIFO depth (subject to
    /// the run budget).
    pub fn restart(&mut self, miss: LineAddr, now: u64) {
        self.restart_strided(miss, 1, now);
    }

    /// Flushes the buffer and starts a stream advancing `stride` lines per
    /// prefetch — the non-unit-stride extension (§5 lists mixed-stride
    /// numeric programs as future work).
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero (a stream must move).
    pub fn restart_strided(&mut self, miss: LineAddr, stride: i64, now: u64) {
        assert!(stride != 0, "a stream must advance");
        debug_assert!(now >= self.last_use, "stream-buffer ticks never decrease");
        self.head = step(miss, stride);
        self.stride = stride;
        self.left = self.cfg.max_run.unwrap_or(usize::MAX);
        self.active = true;
        self.last_use = now;
        self.front = 0;
        self.ready.fill(now + self.cfg.latency);
    }

    /// The stream's current stride in lines (1 for sequential buffers).
    pub fn stride(&self) -> i64 {
        self.stride
    }

    /// Flushes the buffer and makes it idle.
    pub fn flush(&mut self) {
        self.left = 0;
        self.active = false;
    }
}

/// The line `stride` lines past `line`, wrapping at the ends of the line
/// space as the prefetch address does.
fn step(line: LineAddr, stride: i64) -> LineAddr {
    LineAddr::new(line.get().wrapping_add_signed(stride))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    #[test]
    fn sequential_stream_hits_after_restart() {
        let mut sb = StreamBuffer::new(StreamBufferConfig::new(4));
        sb.restart(l(10), 0);
        assert!(sb.is_active());
        for n in 11..40 {
            assert_eq!(sb.probe_consume(l(n), 0), StreamProbe::HitReady);
        }
    }

    #[test]
    fn only_head_has_a_comparator() {
        let mut sb = StreamBuffer::new(StreamBufferConfig::new(4));
        sb.restart(l(10), 0);
        // Line 13 is in the buffer (entries 11,12,13,14) but not at the head.
        assert!(sb.contains(l(13)));
        assert_eq!(sb.probe_consume(l(13), 0), StreamProbe::Miss);
    }

    #[test]
    fn skipping_a_line_forces_restart() {
        let mut sb = StreamBuffer::new(StreamBufferConfig::new(4));
        sb.restart(l(10), 0);
        assert_eq!(sb.probe_consume(l(11), 0), StreamProbe::HitReady);
        // Reference skips to 13: head is 12 → miss; caller restarts.
        assert_eq!(sb.probe_consume(l(13), 0), StreamProbe::Miss);
        sb.restart(l(13), 0);
        assert_eq!(sb.head(), Some(l(14)));
    }

    #[test]
    fn run_budget_limits_prefetching() {
        let cfg = StreamBufferConfig::new(4).max_run(2);
        let mut sb = StreamBuffer::new(cfg);
        sb.restart(l(10), 0);
        assert_eq!(sb.len(), 2); // only 11 and 12 may be fetched
        assert_eq!(sb.probe_consume(l(11), 0), StreamProbe::HitReady);
        assert_eq!(sb.probe_consume(l(12), 0), StreamProbe::HitReady);
        assert!(sb.is_empty());
        // Budget exhausted: the stream cannot continue.
        assert_eq!(sb.probe_consume(l(13), 0), StreamProbe::Miss);
        // A restart renews the budget.
        sb.restart(l(13), 0);
        assert_eq!(sb.len(), 2);
    }

    #[test]
    fn zero_run_budget_never_hits() {
        let cfg = StreamBufferConfig::new(4).max_run(0);
        let mut sb = StreamBuffer::new(cfg);
        sb.restart(l(10), 0);
        assert!(sb.is_empty());
        assert_eq!(sb.probe_consume(l(11), 0), StreamProbe::Miss);
    }

    #[test]
    fn consumption_extends_the_run_within_budget() {
        let cfg = StreamBufferConfig::new(2).max_run(5);
        let mut sb = StreamBuffer::new(cfg);
        sb.restart(l(0), 0); // fetches 1,2 (budget 3 left)
        assert_eq!(sb.probe_consume(l(1), 0), StreamProbe::HitReady); // fetch 3
        assert_eq!(sb.probe_consume(l(2), 0), StreamProbe::HitReady); // fetch 4
        assert_eq!(sb.probe_consume(l(3), 0), StreamProbe::HitReady); // fetch 5
        assert_eq!(sb.probe_consume(l(4), 0), StreamProbe::HitReady);
        assert_eq!(sb.probe_consume(l(5), 0), StreamProbe::HitReady);
        // 5 lines beyond the miss fetched; budget exhausted.
        assert_eq!(sb.probe_consume(l(6), 0), StreamProbe::Miss);
    }

    #[test]
    fn latency_makes_hits_pending_until_arrival() {
        let cfg = StreamBufferConfig::new(4).latency(12);
        let mut sb = StreamBuffer::new(cfg);
        sb.restart(l(10), 100);
        match sb.probe(l(11), 104) {
            StreamProbe::HitPending { remaining } => assert_eq!(remaining, 8),
            other => panic!("expected pending, got {other:?}"),
        }
        assert_eq!(sb.probe(l(11), 112), StreamProbe::HitReady);
        assert_eq!(sb.probe(l(11), 200), StreamProbe::HitReady);
    }

    #[test]
    fn pending_hit_is_still_consumed() {
        let cfg = StreamBufferConfig::new(2).latency(10);
        let mut sb = StreamBuffer::new(cfg);
        sb.restart(l(0), 0);
        assert!(matches!(
            sb.probe_consume(l(1), 5),
            StreamProbe::HitPending { remaining: 5 }
        ));
        // Next entry was fetched at restart (t=0) so it's ready at 10.
        assert_eq!(sb.probe_consume(l(2), 10), StreamProbe::HitReady);
    }

    #[test]
    fn flush_deactivates() {
        let mut sb = StreamBuffer::new(StreamBufferConfig::default());
        sb.restart(l(10), 0);
        sb.flush();
        assert!(!sb.is_active());
        assert!(sb.is_empty());
        assert_eq!(sb.head(), None);
        assert_eq!(sb.probe(l(11), 0), StreamProbe::Miss);
    }

    #[test]
    fn last_use_tracks_hits_and_restarts() {
        let mut sb = StreamBuffer::new(StreamBufferConfig::default());
        sb.restart(l(10), 3);
        assert_eq!(sb.last_use(), 3);
        sb.probe_consume(l(11), 7);
        assert_eq!(sb.last_use(), 7);
        sb.probe_consume(l(99), 9); // miss: not a use
        assert_eq!(sb.last_use(), 7);
    }

    #[test]
    fn config_accessors() {
        let cfg = StreamBufferConfig::new(8).max_run(16).latency(5);
        assert_eq!(cfg.depth(), 8);
        assert_eq!(cfg.run_limit(), Some(16));
        assert_eq!(cfg.latency_ticks(), 5);
        assert_eq!(StreamBufferConfig::default().depth(), 4);
        assert_eq!(StreamBufferConfig::default().run_limit(), None);
    }

    #[test]
    #[should_panic(expected = "depth must be nonzero")]
    fn zero_depth_panics() {
        let _ = StreamBufferConfig::new(0);
    }

    #[test]
    fn strided_stream_follows_its_stride() {
        let mut sb = StreamBuffer::new(StreamBufferConfig::new(4));
        sb.restart_strided(l(100), 50, 0);
        assert_eq!(sb.stride(), 50);
        for n in 1..10u64 {
            assert_eq!(
                sb.probe_consume(l(100 + 50 * n), 0),
                StreamProbe::HitReady,
                "step {n}"
            );
        }
        // Unit-stride references do not match a 50-stride stream.
        sb.restart_strided(l(100), 50, 0);
        assert_eq!(sb.probe_consume(l(101), 0), StreamProbe::Miss);
    }

    #[test]
    fn negative_stride_walks_backwards() {
        let mut sb = StreamBuffer::new(StreamBufferConfig::new(4));
        sb.restart_strided(l(1000), -2, 0);
        assert_eq!(sb.probe_consume(l(998), 0), StreamProbe::HitReady);
        assert_eq!(sb.probe_consume(l(996), 0), StreamProbe::HitReady);
    }

    #[test]
    fn plain_restart_resets_stride_to_one() {
        let mut sb = StreamBuffer::new(StreamBufferConfig::new(2));
        sb.restart_strided(l(0), 7, 0);
        sb.restart(l(100), 1);
        assert_eq!(sb.stride(), 1);
        assert_eq!(sb.probe_consume(l(101), 1), StreamProbe::HitReady);
    }

    #[test]
    #[should_panic(expected = "must advance")]
    fn zero_stride_panics() {
        let mut sb = StreamBuffer::new(StreamBufferConfig::new(2));
        sb.restart_strided(l(0), 0, 0);
    }
}
