//! Non-unit-stride stream buffers — the extension the paper's §5 calls
//! for ("numeric programs with non-unit stride and mixed stride access
//! patterns also need to be simulated").
//!
//! A plain sequential stream buffer only helps "unit stride or near unit
//! stride (2 or 3) access patterns" (§4.1): a column sweep of a
//! row-major matrix misses on lines 0, 50, 100, … and the unit-stride
//! buffer prefetching lines 1, 2, 3 never hits. This module adds the
//! minimal hardware the literature later converged on (cf. Palacharla &
//! Kessler 1994): a **stride detector** watching the miss stream, which a
//! [`MultiWayStreamBuffer`](crate::MultiWayStreamBuffer) consults to
//! allocate each way with the detected stride
//! ([`with_stride_detector`](crate::MultiWayStreamBuffer::with_stride_detector)).

use jouppi_trace::LineAddr;

/// Detects a constant stride in the miss stream.
///
/// The detector keeps a short history of recent miss lines; a stride `d`
/// is confirmed for a miss at `m` when both `m - d` and `m - 2d` appear
/// in the history (three misses in arithmetic progression), `d` is
/// nonzero, and `|d|` is within `max_stride` lines. Searching the whole
/// history — not just the previous miss — lets the detector lock onto
/// each component of *interleaved* strided streams, which is exactly the
/// multi-way use case. Until confirmation it reports unit stride (the
/// paper's default behaviour).
///
/// # Examples
///
/// ```
/// use jouppi_core::stride::StrideDetector;
/// use jouppi_trace::LineAddr;
///
/// let mut d = StrideDetector::new(64);
/// assert_eq!(d.observe_miss(LineAddr::new(0)), 1);   // no history yet
/// assert_eq!(d.observe_miss(LineAddr::new(50)), 1);  // one delta: unconfirmed
/// assert_eq!(d.observe_miss(LineAddr::new(100)), 50); // confirmed
/// ```
#[derive(Clone, Debug)]
pub struct StrideDetector {
    max_stride: i64,
    history: Vec<LineAddr>,
    capacity: usize,
}

impl StrideDetector {
    /// History length: enough for a handful of interleaved streams.
    const HISTORY: usize = 8;

    /// Creates a detector confirming strides up to `max_stride` lines in
    /// magnitude.
    ///
    /// # Panics
    ///
    /// Panics if `max_stride` is zero.
    pub fn new(max_stride: i64) -> Self {
        assert!(max_stride > 0, "max stride must be positive");
        StrideDetector {
            max_stride,
            history: Vec::with_capacity(Self::HISTORY),
            capacity: Self::HISTORY,
        }
    }

    /// Feeds one miss; returns the stride (in lines) a new stream should
    /// be allocated with — the confirmed stride, or 1.
    pub fn observe_miss(&mut self, line: LineAddr) -> i64 {
        let mut confirmed = None;
        // Prefer the most recent plausible progenitor (search newest
        // first), and prefer unit stride when both confirm.
        for &h in self.history.iter().rev() {
            let delta = line.get().wrapping_sub(h.get()) as i64;
            if delta == 0 || delta.abs() > self.max_stride {
                continue;
            }
            let grandparent = LineAddr::new(line.get().wrapping_sub((2 * delta) as u64));
            if self.history.contains(&grandparent) {
                confirmed = Some(delta);
                if delta == 1 {
                    break;
                }
            }
        }
        if self.history.len() == self.capacity {
            self.history.remove(0);
        }
        self.history.push(line);
        confirmed.unwrap_or(1)
    }

    /// Forgets all history (e.g. on a context switch).
    pub fn reset(&mut self) {
        self.history.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MultiWayStreamBuffer, StreamBufferConfig, StreamProbe};

    fn l(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    /// A multi-way buffer that detects strides up to 64 lines.
    fn strided(ways: usize) -> MultiWayStreamBuffer {
        MultiWayStreamBuffer::new(ways, StreamBufferConfig::new(4))
            .with_stride_detector(StrideDetector::new(64))
    }

    /// The strides of the active ways.
    fn active_strides(sb: &MultiWayStreamBuffer) -> Vec<i64> {
        sb.ways()
            .filter(|w| w.is_active())
            .map(|w| w.stride())
            .collect()
    }

    fn drive(sb: &mut MultiWayStreamBuffer, lines: impl Iterator<Item = u64>) -> (u64, u64) {
        let (mut hits, mut misses) = (0, 0);
        for (t, n) in lines.enumerate() {
            if sb.probe_consume(l(n), t as u64).is_hit() {
                hits += 1;
            } else {
                misses += 1;
                sb.handle_miss(l(n), t as u64);
            }
        }
        (hits, misses)
    }

    #[test]
    fn detector_needs_three_in_progression() {
        let mut d = StrideDetector::new(100);
        assert_eq!(d.observe_miss(l(10)), 1);
        assert_eq!(d.observe_miss(l(20)), 1);
        assert_eq!(d.observe_miss(l(30)), 10);
        assert_eq!(d.observe_miss(l(40)), 10);
    }

    #[test]
    fn detector_sees_through_interleaving() {
        // Two interleaved streams: stride 50 at base 0, stride 7 at 10000.
        let mut d = StrideDetector::new(100);
        d.observe_miss(l(0));
        d.observe_miss(l(10_000));
        d.observe_miss(l(50));
        d.observe_miss(l(10_007));
        assert_eq!(d.observe_miss(l(100)), 50);
        assert_eq!(d.observe_miss(l(10_014)), 7);
    }

    #[test]
    fn detector_rejects_zero_and_oversized_strides() {
        let mut d = StrideDetector::new(8);
        d.observe_miss(l(0));
        d.observe_miss(l(0));
        assert_eq!(d.observe_miss(l(0)), 1, "zero delta is not a stream");
        let mut d = StrideDetector::new(8);
        d.observe_miss(l(0));
        d.observe_miss(l(100));
        assert_eq!(d.observe_miss(l(200)), 1, "stride 100 > max 8");
    }

    #[test]
    fn detector_reset_clears_history() {
        let mut d = StrideDetector::new(100);
        d.observe_miss(l(0));
        d.observe_miss(l(10));
        d.reset();
        assert_eq!(d.observe_miss(l(20)), 1);
        assert_eq!(d.observe_miss(l(30)), 1);
    }

    #[test]
    fn negative_strides_are_detected() {
        let mut d = StrideDetector::new(100);
        d.observe_miss(l(1000));
        d.observe_miss(l(950));
        assert_eq!(d.observe_miss(l(900)), -50);
    }

    #[test]
    fn locks_onto_constant_stride_streams() {
        let mut sb = strided(4);
        let (hits, misses) = drive(&mut sb, (0..50).map(|i| 10_000 + 37 * i));
        assert!(hits >= 45, "hits {hits}, misses {misses}");
        assert!(active_strides(&sb).contains(&37));
    }

    #[test]
    fn unit_stride_still_works() {
        let mut sb = strided(4);
        let (hits, _) = drive(&mut sb, 500..600);
        assert!(hits >= 95);
    }

    #[test]
    fn sequential_buffer_fails_where_strided_succeeds() {
        let stride_stream: Vec<u64> = (0..60).map(|i| 77_000 + 50 * i).collect();
        // Plain sequential 4-way buffer:
        let mut plain = MultiWayStreamBuffer::new(4, StreamBufferConfig::new(4));
        let mut plain_hits = 0;
        for (t, &n) in stride_stream.iter().enumerate() {
            if plain.probe_consume(l(n), t as u64).is_hit() {
                plain_hits += 1;
            } else {
                plain.handle_miss(l(n), t as u64);
            }
        }
        let (strided_hits, _) = drive(&mut strided(4), stride_stream.iter().copied());
        assert_eq!(plain_hits, 0, "§4.1: unit-stride buffers don't help");
        assert!(strided_hits > 50);
    }

    #[test]
    fn interleaved_mixed_strides_each_get_a_way() {
        let mut sb = strided(4);
        // Two interleaved streams: stride 50 and stride 1. Warm the
        // detector by letting each stream miss a few times.
        let mut refs = Vec::new();
        for i in 0..40u64 {
            refs.push(1_000_000 + 50 * i);
            refs.push(2_000_000 + i);
        }
        let (hits, misses) = drive(&mut sb, refs.into_iter());
        assert!(hits > 50, "hits {hits}, misses {misses}");
    }

    #[test]
    fn flush_resets_everything() {
        let mut sb = strided(2);
        sb.handle_miss(l(0), 0);
        sb.handle_miss(l(50), 1);
        sb.flush();
        assert!(active_strides(&sb).is_empty());
        assert_eq!(sb.probe_consume(l(1), 2), StreamProbe::Miss);
        assert_eq!(sb.num_ways(), 2);
        // The detector forgot 0 and 50: a third miss in that progression
        // is allocated sequentially.
        sb.handle_miss(l(100), 3);
        assert_eq!(active_strides(&sb), vec![1]);
    }

    #[test]
    #[should_panic(expected = "max stride must be positive")]
    fn bad_max_stride_panics() {
        let _ = StrideDetector::new(0);
    }
}
