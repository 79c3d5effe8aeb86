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
/// order, and the same stream as *runs*: maximal stretches of consecutive
/// references to one line ([`SideView::runs`]). Each run keeps its
/// length and a dense id for its line: the side's distinct lines
/// numbered in first-touch order, as a [`LineInterner`] fed the runs'
/// lines would number them ([`SideView::lines_by_id`]). Every reference after a run's first is an
/// immediate repeat, a hit that changes no state in a demand-fetch cache
/// model, so sweep passes read one entry per run, and engines index
/// `Vec`s by id instead of hashing each line. The view stores no byte
/// addresses: each reference keeps its byte offset within its base line,
/// one byte, from which [`SideView::lines`] derives any other line size.
///
/// # Examples
///
/// ```
/// use jouppi_trace::{Addr, LineAddr, LineRun, MemRef, RecordedTrace};
///
/// let trace = RecordedTrace::from_iter(vec![
///     MemRef::instr(Addr::new(0x1000)),
///     MemRef::load(Addr::new(0x8000)),
///     MemRef::store(Addr::new(0x8004)),
///     MemRef::load(Addr::new(0x8010)),
///     MemRef::load(Addr::new(0x8008)),
/// ]);
/// let data = trace.data_side();
/// assert_eq!(trace.instr_side().len(), 1);
/// // Line addresses for the baseline 16-byte line are precomputed...
/// let lines = [0x800, 0x800, 0x801, 0x800].map(LineAddr::new);
/// assert_eq!(data.lines_for(16), Some(&lines[..]));
/// // ...and read as runs, numbering lines in first-touch order.
/// let run = |id, len| LineRun { line: lines[2 * id as usize], id, len };
/// assert!(data.runs().eq([run(0, 2), run(1, 1), run(0, 1)]));
/// assert_eq!(data.lines_by_id(), &lines[1..3]);
/// // Other line sizes are derived on demand.
/// assert!(data.lines_for(32).is_none());
/// assert!(data.lines(32).eq([LineAddr::new(0x400); 4]));
/// assert!(data.lines(8).eq([0x1000, 0x1000, 0x1002, 0x1001].map(LineAddr::new)));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SideView {
    base_lines: Vec<LineAddr>,
    /// Each reference's byte offset within its base line: with the base
    /// line, its whole address.
    offsets: Vec<u8>,
    /// Per run: its line's id.
    run_ids: Vec<u32>,
    /// Per run: its length, 1 to [`SideView::MAX_RUN_LEN`].
    run_lens: Vec<u8>,
    lines_by_id: Vec<LineAddr>,
}

/// One run of a [`SideView`]: `len` consecutive references to `line`,
/// whose id is `id`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LineRun {
    /// The run's base line.
    pub line: LineAddr,
    /// The line's id: `lines_by_id()[id] == line`.
    pub id: u32,
    /// References in the run, 1 to [`SideView::MAX_RUN_LEN`].
    pub len: u8,
}

impl SideView {
    /// The longest run one entry holds. A longer stretch of one line
    /// splits: the next run repeats the line, and its first reference is
    /// an immediate repeat like the rest.
    pub const MAX_RUN_LEN: u8 = u8::MAX;

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

    /// The side's runs, in trace order. Their lengths sum to
    /// [`SideView::len`], and expanding each run to `len` copies of its
    /// line gives [`SideView::base_lines`]. Consecutive runs have
    /// different lines, except after a run of [`SideView::MAX_RUN_LEN`].
    pub fn runs(&self) -> impl ExactSizeIterator<Item = LineRun> + '_ {
        self.run_ids
            .iter()
            .zip(&self.run_lens)
            .map(|(&id, &len)| LineRun {
                line: self.lines_by_id[id as usize],
                id,
                len,
            })
    }

    /// The id → line table. Its length is the side's distinct-line
    /// count.
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

/// One side's view under construction: lines and offsets appended as the
/// partition pass meets the side's references.
struct SideBuilder {
    base_lines: Vec<LineAddr>,
    offsets: Vec<u8>,
}

impl SideBuilder {
    fn with_capacity(refs: usize) -> Self {
        SideBuilder {
            base_lines: Vec::with_capacity(refs),
            offsets: Vec::with_capacity(refs),
        }
    }

    #[inline]
    fn push(&mut self, addr: Addr) {
        self.base_lines.push(addr.line(BASE_LINE_SIZE));
        self.offsets.push(addr.line_offset(BASE_LINE_SIZE) as u8);
    }

    /// Splits the side's lines into runs in a second pass over them,
    /// interning each stretch of one line once. (Opening runs inside the
    /// partition pass, where the two sides interleave, measured slower
    /// than this pass on its own.)
    fn finish(self) -> SideView {
        let mut interner = LineInterner::new();
        // At most one run per reference: reserving that many, untouched
        // past the last run, saves regrowing two columns.
        let refs = self.base_lines.len();
        let (mut run_ids, mut run_lens) = (Vec::with_capacity(refs), Vec::with_capacity(refs));
        for stretch in self.base_lines.chunk_by(|a, b| a == b) {
            let id = interner.intern(stretch[0]);
            for run in stretch.chunks(usize::from(SideView::MAX_RUN_LEN)) {
                run_ids.push(id);
                run_lens.push(run.len() as u8);
            }
        }
        run_ids.shrink_to_fit();
        run_lens.shrink_to_fit();
        let (mut base_lines, mut offsets) = (self.base_lines, self.offsets);
        base_lines.shrink_to_fit();
        offsets.shrink_to_fit();
        SideView {
            base_lines,
            offsets,
            run_ids,
            run_lens,
            lines_by_id: interner.into_lines(),
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

    /// Partitions the trace in one pass, each reference's base line going
    /// to its side, then splits each side into runs.
    fn sides(&self) -> &SidePartitions {
        self.sides.get_or_init(|| {
            // Each side reserves room for every reference rather than
            // counting its own first; shrinking frees the untouched rest.
            let mut sides = [
                SideBuilder::with_capacity(self.refs.len()),
                SideBuilder::with_capacity(self.refs.len()),
            ];
            for r in &self.refs {
                // Indexed, not branched on: the kind follows no pattern a
                // branch predictor can learn.
                sides[usize::from(r.kind.is_data())].push(r.addr);
            }
            let [instr, data] = sides;
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
                let table = view.lines_by_id();
                let (mut next, mut at) = (0u32, 0usize);
                let mut previous: Option<LineRun> = None;
                for (i, run) in view.runs().enumerate() {
                    let (id, len) = (run.id, usize::from(run.len));
                    assert_eq!(table[id as usize], run.line, "seed {seed} run {i}");
                    assert!(len > 0, "seed {seed} run {i} is empty");
                    assert!(
                        lines[at..at + len].iter().all(|&l| l == run.line),
                        "seed {seed} run {i}"
                    );
                    if let Some(p) = previous {
                        assert!(p.line != run.line || p.len == SideView::MAX_RUN_LEN);
                    }
                    // A new id is always the next one: first-touch order.
                    assert!(id <= next, "seed {seed} run {i}: id {id} before {next}");
                    if id == next {
                        next += 1;
                    }
                    (at, previous) = (at + len, Some(run));
                }
                assert_eq!(at, lines.len(), "seed {seed} instr {instr}");
                let distinct: std::collections::BTreeSet<_> = lines.iter().collect();
                assert_eq!(table.len(), distinct.len(), "seed {seed} instr {instr}");
                assert_eq!(next as usize, table.len(), "seed {seed} instr {instr}");
            }
        }
    }

    #[test]
    fn extend_invalidates_line_ids() {
        let mut t = RecordedTrace::from_refs("t", sample());
        let runs = |t: &RecordedTrace| -> Vec<(u32, u8)> {
            t.data_side().runs().map(|run| (run.id, run.len)).collect()
        };
        assert_eq!(runs(&t), [(0, 2)]);
        t.extend([
            MemRef::load(Addr::new(0x2000)),
            MemRef::load(Addr::new(1024)),
        ]);
        assert_eq!(runs(&t), [(0, 2), (1, 1), (0, 1)]);
        assert_eq!(
            t.data_side().lines_by_id(),
            &[LineAddr::new(64), LineAddr::new(0x200)]
        );
    }

    #[test]
    fn a_run_longer_than_its_field_splits_even_at_the_top_line() {
        let max = usize::from(SideView::MAX_RUN_LEN);
        let top = Addr::new(u64::MAX);
        let refs = std::iter::repeat_n(MemRef::load(top), 2 * max + 3)
            .chain([MemRef::load(Addr::new(0)), MemRef::store(top)])
            .collect();
        let t = RecordedTrace::from_refs("t", refs);
        let data = t.data_side();
        let full = SideView::MAX_RUN_LEN;
        let runs: Vec<(u32, u8)> = data.runs().map(|run| (run.id, run.len)).collect();
        assert_eq!(runs, [(0, full), (0, full), (0, 3), (1, 1), (0, 1)]);
        assert_eq!(data.lines_by_id(), &[top.line(16), LineAddr::new(0)]);
        assert_eq!(data.len(), 2 * max + 5);
        assert!(t.instr_side().runs().eq([]));
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
