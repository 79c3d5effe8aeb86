//! Trace sources: producers of memory-reference streams.

use std::sync::OnceLock;

use crate::{Addr, LineAddr, LineInterner, MemRef, TraceStats};

/// The baseline line size (bytes) for which [`SideView`] pre-derives
/// line addresses and ids. Matches the paper's 16-byte baseline L1 lines.
pub const BASE_LINE_SIZE: u64 = 16;

/// A producer of a memory-reference stream.
///
/// `TraceSource` is the interface between workload generators and the
/// simulators: a source hands out a fresh iterator over its references each
/// time [`TraceSource::refs`] is called, so the same (deterministic, seeded)
/// trace can be replayed against many cache configurations — exactly how the
/// paper sweeps cache parameters over fixed traces.
///
/// The trait is object-safe; experiment drivers hold `Box<dyn TraceSource>`.
///
/// # Examples
///
/// ```
/// use jouppi_trace::{Addr, MemRef, RecordedTrace, TraceSource};
///
/// let trace = RecordedTrace::from_iter(vec![
///     MemRef::instr(Addr::new(0)),
///     MemRef::load(Addr::new(64)),
/// ]);
/// // Replays identically every time.
/// let first: Vec<_> = trace.refs().collect();
/// let second: Vec<_> = trace.refs().collect();
/// assert_eq!(first, second);
/// ```
pub trait TraceSource {
    /// Returns a fresh iterator over the trace, from the beginning.
    fn refs(&self) -> Box<dyn Iterator<Item = MemRef> + '_>;

    /// A short human-readable name for reports (e.g. `"ccom"`).
    fn name(&self) -> &str {
        "trace"
    }
}

/// A dense, single-side slice of a recorded trace.
///
/// Holds the line address of every reference on one cache side
/// (instruction or data) at [`BASE_LINE_SIZE`]-byte lines, in trace
/// order, together with a dense id per reference: the side's distinct
/// lines numbered in first-touch order ([`SideView::ids`],
/// [`SideView::lines_by_id`]). Simulation hot loops iterate these flat
/// vectors instead of re-filtering the mixed I/D trace and re-deriving
/// lines per configuration, and engines index `Vec`s by id instead of
/// hashing each line. The view stores no byte addresses: each reference
/// keeps its byte offset within its base line, one byte, from which
/// [`SideView::lines`] derives any other line size.
///
/// # Examples
///
/// ```
/// use jouppi_trace::{Addr, LineAddr, MemRef, RecordedTrace};
///
/// let trace = RecordedTrace::from_iter(vec![
///     MemRef::instr(Addr::new(0x1000)),
///     MemRef::load(Addr::new(0x8000)),
///     MemRef::store(Addr::new(0x8010)),
///     MemRef::load(Addr::new(0x8004)),
/// ]);
/// let data = trace.data_side();
/// assert_eq!(trace.instr_side().len(), 1);
/// // Line addresses for the baseline 16-byte line are precomputed...
/// let lines = [LineAddr::new(0x800), LineAddr::new(0x801), LineAddr::new(0x800)];
/// assert_eq!(data.lines_for(16), Some(&lines[..]));
/// // ...with an id per reference, numbering lines in first-touch order.
/// assert_eq!(data.ids(), &[0, 1, 0]);
/// assert_eq!(data.lines_by_id(), &lines[..2]);
/// // Other line sizes are derived on demand.
/// assert!(data.lines_for(32).is_none());
/// assert!(data.lines(32).eq([LineAddr::new(0x400); 3]));
/// assert!(data.lines(8).eq([0x1000, 0x1002, 0x1000].map(LineAddr::new)));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SideView {
    base_lines: Vec<LineAddr>,
    /// Each reference's byte offset within its base line: with the base
    /// line, its whole address.
    offsets: Vec<u8>,
    ids: Vec<u32>,
    lines_by_id: Vec<LineAddr>,
}

impl SideView {
    /// Line addresses pre-derived for [`BASE_LINE_SIZE`]-byte lines, in
    /// trace order.
    pub fn base_lines(&self) -> &[LineAddr] {
        &self.base_lines
    }

    /// The pre-derived line addresses, if they match `line_size`.
    ///
    /// Returns `None` for any line size other than [`BASE_LINE_SIZE`];
    /// callers then derive lines with [`SideView::lines`].
    pub fn lines_for(&self, line_size: u64) -> Option<&[LineAddr]> {
        (line_size == BASE_LINE_SIZE).then_some(&self.base_lines[..])
    }

    /// Line addresses at `line_size`, in trace order, each derived from
    /// the reference's base line and offset.
    ///
    /// # Panics
    ///
    /// Panics if `line_size` is not a power of two.
    pub fn lines(&self, line_size: u64) -> impl Iterator<Item = LineAddr> + '_ {
        assert!(
            line_size.is_power_of_two(),
            "line size {line_size} must be a power of two"
        );
        let base_shift = BASE_LINE_SIZE.trailing_zeros();
        self.base_lines
            .iter()
            .zip(&self.offsets)
            .map(move |(line, &offset)| {
                Addr::new(line.get() << base_shift | u64::from(offset)).line(line_size)
            })
    }

    /// Each reference's line id, parallel to [`SideView::base_lines`]:
    /// the side's distinct base-size lines numbered 0, 1, 2, … in
    /// first-touch order, as a [`LineInterner`] fed this side would
    /// number them.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// The id → line table: `lines_by_id()[ids()[i]] == base_lines()[i]`.
    /// Its length is the side's distinct-line count.
    pub fn lines_by_id(&self) -> &[LineAddr] {
        &self.lines_by_id
    }

    /// Number of references on this side.
    pub fn len(&self) -> usize {
        self.base_lines.len()
    }

    /// Returns `true` if this side has no references.
    pub fn is_empty(&self) -> bool {
        self.base_lines.is_empty()
    }
}

/// One side's view under construction: lines, offsets and ids appended
/// as the partition pass meets the side's references.
struct SideBuilder {
    view: SideView,
    interner: LineInterner,
}

impl SideBuilder {
    fn with_capacity(refs: usize) -> Self {
        SideBuilder {
            view: SideView {
                base_lines: Vec::with_capacity(refs),
                offsets: Vec::with_capacity(refs),
                ids: Vec::with_capacity(refs),
                lines_by_id: Vec::new(),
            },
            interner: LineInterner::new(),
        }
    }

    #[inline]
    fn push(&mut self, addr: Addr) {
        let line = addr.line(BASE_LINE_SIZE);
        self.view.base_lines.push(line);
        self.view
            .offsets
            .push(addr.line_offset(BASE_LINE_SIZE) as u8);
        self.view.ids.push(self.interner.intern(line));
    }

    fn finish(self) -> SideView {
        SideView {
            lines_by_id: self.interner.into_lines(),
            ..self.view
        }
    }
}

#[derive(Debug)]
struct SidePartitions {
    instr: SideView,
    data: SideView,
}

/// An in-memory recorded trace, replayable any number of times.
///
/// Useful for tests and for capturing a generator's output once and
/// replaying it against many cache configurations without regenerating.
///
/// The trace lazily maintains per-side [`SideView`]s (see
/// [`RecordedTrace::instr_side`] / [`RecordedTrace::data_side`]); the
/// partition is computed once on first use and shared by every
/// configuration simulated against the trace.
#[derive(Debug, Default)]
pub struct RecordedTrace {
    name: String,
    refs: Vec<MemRef>,
    sides: OnceLock<SidePartitions>,
}

impl RecordedTrace {
    /// Creates an empty trace with the default name.
    pub fn new() -> Self {
        RecordedTrace::default()
    }

    /// Creates a trace from recorded references.
    pub fn from_refs(name: impl Into<String>, refs: Vec<MemRef>) -> Self {
        RecordedTrace {
            name: name.into(),
            refs,
            sides: OnceLock::new(),
        }
    }

    /// Records everything a source produces.
    pub fn record(source: &dyn TraceSource) -> Self {
        RecordedTrace {
            name: source.name().to_owned(),
            refs: source.refs().collect(),
            sides: OnceLock::new(),
        }
    }

    /// Number of references in the trace.
    pub fn len(&self) -> usize {
        self.refs.len()
    }

    /// Returns `true` if the trace holds no references.
    pub fn is_empty(&self) -> bool {
        self.refs.is_empty()
    }

    /// The recorded references as a slice.
    pub fn as_slice(&self) -> &[MemRef] {
        &self.refs
    }

    /// Computes Table 2-1-style statistics for the trace.
    pub fn stats(&self) -> TraceStats {
        TraceStats::from_refs(self.refs.iter().copied())
    }

    /// Partitions the trace in one pass: each reference's base line goes
    /// to its side, which interns it on arrival.
    fn sides(&self) -> &SidePartitions {
        self.sides.get_or_init(|| {
            let instr_refs = self.refs.iter().filter(|r| r.kind.is_instr()).count();
            let mut instr = SideBuilder::with_capacity(instr_refs);
            let mut data = SideBuilder::with_capacity(self.refs.len() - instr_refs);
            for r in &self.refs {
                let side = if r.kind.is_instr() {
                    &mut instr
                } else {
                    &mut data
                };
                side.push(r.addr);
            }
            SidePartitions {
                instr: instr.finish(),
                data: data.finish(),
            }
        })
    }

    /// The instruction-fetch side of the trace as a dense view.
    pub fn instr_side(&self) -> &SideView {
        &self.sides().instr
    }

    /// The data (load + store) side of the trace as a dense view.
    pub fn data_side(&self) -> &SideView {
        &self.sides().data
    }

    /// Eagerly builds both side views, line ids included. Call this where
    /// the partition cost should be paid (e.g. on a recording worker)
    /// instead of lazily inside the first simulation that touches a side.
    pub fn materialize_sides(&self) {
        self.sides();
    }
}

impl Clone for RecordedTrace {
    /// Clones the name and references; the lazily-built side views are
    /// not copied and will be rebuilt on demand in the clone.
    fn clone(&self) -> Self {
        RecordedTrace {
            name: self.name.clone(),
            refs: self.refs.clone(),
            sides: OnceLock::new(),
        }
    }
}

impl PartialEq for RecordedTrace {
    /// Equality considers only the recorded contents, not whether the
    /// derived side views happen to be materialized yet.
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.refs == other.refs
    }
}

impl Eq for RecordedTrace {}

impl TraceSource for RecordedTrace {
    fn refs(&self) -> Box<dyn Iterator<Item = MemRef> + '_> {
        Box::new(self.refs.iter().copied())
    }

    fn name(&self) -> &str {
        &self.name
    }
}

impl FromIterator<MemRef> for RecordedTrace {
    fn from_iter<I: IntoIterator<Item = MemRef>>(iter: I) -> Self {
        RecordedTrace {
            name: String::from("recorded"),
            refs: iter.into_iter().collect(),
            sides: OnceLock::new(),
        }
    }
}

impl Extend<MemRef> for RecordedTrace {
    fn extend<I: IntoIterator<Item = MemRef>>(&mut self, iter: I) {
        self.refs.extend(iter);
        // The cached partition no longer reflects the contents.
        self.sides = OnceLock::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<MemRef> {
        vec![
            MemRef::instr(Addr::new(0)),
            MemRef::instr(Addr::new(4)),
            MemRef::load(Addr::new(1024)),
            MemRef::store(Addr::new(1032)),
        ]
    }

    #[test]
    fn replay_is_deterministic() {
        let t = RecordedTrace::from_refs("t", sample());
        assert_eq!(t.refs().collect::<Vec<_>>(), t.refs().collect::<Vec<_>>());
        assert_eq!(t.len(), 4);
        assert!(!t.is_empty());
    }

    #[test]
    fn record_copies_source() {
        let t = RecordedTrace::from_refs("orig", sample());
        let copy = RecordedTrace::record(&t);
        assert_eq!(copy.name(), "orig");
        assert_eq!(copy.as_slice(), t.as_slice());
    }

    #[test]
    fn stats_match_contents() {
        let t = RecordedTrace::from_refs("t", sample());
        let s = t.stats();
        assert_eq!(s.instruction_refs, 2);
        assert_eq!(s.loads, 1);
        assert_eq!(s.stores, 1);
    }

    #[test]
    fn collect_and_extend() {
        let mut t: RecordedTrace = sample().into_iter().collect();
        assert_eq!(t.len(), 4);
        t.extend(sample());
        assert_eq!(t.len(), 8);
        assert_eq!(t.name(), "recorded");
    }

    #[test]
    fn empty_trace() {
        let t = RecordedTrace::new();
        assert!(t.is_empty());
        assert_eq!(t.stats().total_refs(), 0);
        assert!(t.instr_side().is_empty());
        assert!(t.data_side().is_empty());
    }

    #[test]
    fn side_views_partition_the_trace() {
        let t = RecordedTrace::from_refs("t", sample());
        let instr = t.instr_side();
        let data = t.data_side();
        assert_eq!(instr.base_lines(), &[LineAddr::new(0), LineAddr::new(0)]);
        assert_eq!(data.base_lines(), &[LineAddr::new(64), LineAddr::new(64)]);
        assert_eq!(instr.len() + data.len(), t.len());
    }

    #[test]
    fn side_views_prederive_baseline_lines() {
        let t = RecordedTrace::from_refs("t", sample());
        let data = t.data_side();
        let expected: Vec<LineAddr> = side_refs(&t, false)
            .map(|r| r.addr.line(BASE_LINE_SIZE))
            .collect();
        assert_eq!(data.base_lines(), &expected[..]);
        assert_eq!(data.lines_for(BASE_LINE_SIZE), Some(&expected[..]));
        assert_eq!(data.lines_for(32), None);
        assert_eq!(data.lines_for(8), None);
    }

    #[test]
    fn extend_invalidates_side_views() {
        let mut t = RecordedTrace::from_refs("t", sample());
        assert_eq!(t.instr_side().len(), 2);
        t.extend([MemRef::instr(Addr::new(8))]);
        assert_eq!(t.instr_side().len(), 3);
        assert_eq!(t.data_side().len(), 2);
    }

    /// The references of one side, in trace order.
    fn side_refs(t: &RecordedTrace, instr: bool) -> impl Iterator<Item = &MemRef> {
        t.as_slice()
            .iter()
            .filter(move |r| r.kind.is_instr() == instr)
    }

    /// A random trace whose lines repeat: instruction fetches walk and
    /// jump over a small footprint, data references land on a few hundred
    /// lines at every byte offset, stores at the top of the address space.
    fn random_trace(seed: u64) -> RecordedTrace {
        let mut rng = crate::SmallRng::seed_from_u64(seed);
        let mut pc = 0x1000u64;
        let refs = (0..4_000)
            .map(|_| match rng.below(4) {
                0 | 1 => {
                    pc = if rng.below(8) == 0 {
                        0x1000 + 4 * rng.below(512) as u64
                    } else {
                        pc + 4
                    };
                    MemRef::instr(Addr::new(pc))
                }
                2 => MemRef::load(Addr::new(0x8_0000 + rng.below(6_000) as u64)),
                _ => MemRef::store(Addr::new(u64::MAX - rng.below(6_000) as u64)),
            })
            .collect();
        RecordedTrace::from_refs("random", refs)
    }

    #[test]
    fn line_ids_number_distinct_lines_in_first_touch_order() {
        for seed in [1u64, 2, 3] {
            let t = random_trace(seed);
            for (instr, view) in [(true, t.instr_side()), (false, t.data_side())] {
                let lines = view.base_lines();
                let (ids, table) = (view.ids(), view.lines_by_id());
                assert_eq!(ids.len(), lines.len(), "seed {seed}");
                let mut next = 0u32;
                for (i, (&id, &line)) in ids.iter().zip(lines).enumerate() {
                    assert_eq!(table[id as usize], line, "seed {seed} ref {i}");
                    // A new id is always the next one: first-touch order.
                    assert!(id <= next, "seed {seed} ref {i}: id {id} before {next}");
                    if id == next {
                        next += 1;
                    }
                }
                let distinct: std::collections::BTreeSet<_> = lines.iter().collect();
                assert_eq!(table.len(), distinct.len(), "seed {seed} instr {instr}");
                assert_eq!(next as usize, table.len(), "seed {seed} instr {instr}");
            }
        }
    }

    #[test]
    fn extend_invalidates_line_ids() {
        let mut t = RecordedTrace::from_refs("t", sample());
        assert_eq!(t.data_side().ids(), &[0, 0]);
        t.extend([
            MemRef::load(Addr::new(0x2000)),
            MemRef::load(Addr::new(1024)),
        ]);
        assert_eq!(t.data_side().ids(), &[0, 0, 1, 0]);
        assert_eq!(
            t.data_side().lines_by_id(),
            &[LineAddr::new(64), LineAddr::new(0x200)]
        );
    }

    #[test]
    fn derived_lines_equal_the_references_lines_at_every_size() {
        let t = random_trace(4);
        for instr in [true, false] {
            for line_size in [1u64, 4, 8, 16, 32, 64, 256, 4096] {
                let expected: Vec<LineAddr> = side_refs(&t, instr)
                    .map(|r| r.addr.line(line_size))
                    .collect();
                let view = if instr { t.instr_side() } else { t.data_side() };
                let derived: Vec<LineAddr> = view.lines(line_size).collect();
                assert_eq!(derived, expected, "{line_size}B lines, instr {instr}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn derived_lines_need_a_power_of_two() {
        let t = RecordedTrace::from_refs("t", sample());
        t.data_side().lines(48).for_each(drop);
    }

    #[test]
    fn clone_and_eq_ignore_cached_views() {
        let t = RecordedTrace::from_refs("t", sample());
        let before_materialize = t.clone();
        let _ = t.instr_side();
        let after_materialize = t.clone();
        assert_eq!(t, before_materialize);
        assert_eq!(t, after_materialize);
        assert_eq!(after_materialize.instr_side().len(), 2);
    }
}
