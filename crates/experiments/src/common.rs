//! Shared experiment infrastructure.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use jouppi_cache::{BandedShadow, CacheGeometry, MissBreakdown, MissClassifier};
use jouppi_core::{AugmentedCache, AugmentedConfig, AugmentedStats, MissLog};
use jouppi_trace::{AccessKind, LineAddr, MemRef, RecordedTrace, SideView, BASE_LINE_SIZE};
use jouppi_workloads::{Benchmark, Scale};

use crate::sweep;

/// Which first-level cache a reference stream feeds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Side {
    /// Instruction fetches → instruction cache.
    Instruction,
    /// Loads and stores → data cache.
    Data,
}

impl Side {
    /// Both sides, instruction first (the paper's convention).
    pub const BOTH: [Side; 2] = [Side::Instruction, Side::Data];

    /// Returns `true` if `r` belongs to this side.
    pub fn matches(self, r: &MemRef) -> bool {
        match self {
            Side::Instruction => r.kind == AccessKind::InstrFetch,
            Side::Data => r.kind != AccessKind::InstrFetch,
        }
    }

    /// Label used in reports ("L1 I-cache" / "L1 D-cache").
    pub fn label(self) -> &'static str {
        match self {
            Side::Instruction => "L1 I-cache",
            Side::Data => "L1 D-cache",
        }
    }

    /// This side's dense pre-partitioned view of a recorded trace.
    pub fn view(self, trace: &RecordedTrace) -> &SideView {
        match self {
            Side::Instruction => trace.instr_side(),
            Side::Data => trace.data_side(),
        }
    }
}

/// Scale and seed shared by every experiment run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ExperimentConfig {
    /// Trace length in dynamic instructions per benchmark.
    pub scale: Scale,
    /// Workload generation seed.
    pub seed: u64,
}

impl Default for ExperimentConfig {
    /// 500k instructions per benchmark, seed 42.
    fn default() -> Self {
        ExperimentConfig {
            scale: Scale::new(500_000),
            seed: 42,
        }
    }
}

impl ExperimentConfig {
    /// A configuration with the given scale and the default seed.
    pub fn with_scale(instructions: u64) -> Self {
        ExperimentConfig {
            scale: Scale::new(instructions),
            ..ExperimentConfig::default()
        }
    }
}

/// All six benchmark traces for one configuration, shared process-wide.
pub type TraceSet = Arc<Vec<(Benchmark, RecordedTrace)>>;

/// A configuration's memoized trace set, filled once by whichever
/// caller asks first.
type TraceSlot = Arc<OnceLock<TraceSet>>;

/// Recently requested configurations and their trace sets, LRU by
/// configuration (MRU at the back).
type TraceMemo = Mutex<Vec<(ExperimentConfig, TraceSlot)>>;

/// The process-wide trace memo.
///
/// Trace generation is pure in `(benchmark, scale, seed)`, yet it
/// dominated sweep wall time: every figure regenerated all six traces
/// from scratch. Memoizing the last few configurations turns repeat
/// sweeps — the `jouppi serve` daemon, `repro`'s figure sequence, the
/// benchmark harness — into pure replay. Capacity is small because a
/// trace set at default scale is tens of megabytes.
static TRACE_CACHE: TraceMemo = Mutex::new(Vec::new());

const TRACE_CACHE_CAPACITY: usize = 3;

/// Records all six benchmark traces (in parallel when the sweep engine
/// has more than one worker) with their side partitions materialized.
///
/// Generation is deterministic per benchmark (each is seeded
/// independently), so the thread interleaving cannot affect the traces.
/// Results are memoized per configuration; repeat calls return the shared
/// recording without regenerating.
pub fn record_traces(cfg: &ExperimentConfig) -> TraceSet {
    memoized(&TRACE_CACHE, cfg, || {
        Arc::new(sweep::map_jobs(Benchmark::ALL.len(), |i| {
            let b = Benchmark::ALL[i];
            let trace = RecordedTrace::record(&b.source(cfg.scale, cfg.seed));
            // Build both side views here, on the worker, so the partition
            // cost is not paid lazily inside the first simulation cell.
            trace.materialize_sides();
            (b, trace)
        }))
    })
}

/// `cfg`'s trace set from `memo`, made by `generate` on a miss.
///
/// The memo's lock is held only to find or insert the configuration's
/// slot, never while a set generates: a memoized configuration does not
/// wait behind another configuration's generation. Concurrent callers of
/// one configuration wait on its slot and share one generation while the
/// slot stays in the memo; a slot evicted mid-generation (three other
/// configurations arrived meanwhile) generates again for its next caller.
fn memoized(
    memo: &TraceMemo,
    cfg: &ExperimentConfig,
    generate: impl FnOnce() -> TraceSet,
) -> TraceSet {
    let slot = {
        let mut slots = memo.lock().unwrap_or_else(|e| e.into_inner());
        let entry = match slots.iter().position(|(k, _)| k == cfg) {
            Some(pos) => slots.remove(pos),
            None => {
                if slots.len() == TRACE_CACHE_CAPACITY {
                    slots.remove(0);
                }
                (*cfg, TraceSlot::default())
            }
        };
        let slot = entry.1.clone();
        slots.push(entry);
        slot
    };
    slot.get_or_init(generate).clone()
}

/// Records each benchmark's trace once and maps `f` over them.
///
/// Recording amortizes generation across the many cache configurations an
/// experiment sweeps; the recording itself is fanned over the sweep
/// engine's workers. `f` runs sequentially in benchmark order (it may
/// mutate captured state) — experiments whose cells should also run in
/// parallel use [`record_traces`] + [`sweep::map_jobs`] directly.
pub fn per_benchmark<T>(
    cfg: &ExperimentConfig,
    mut f: impl FnMut(Benchmark, &RecordedTrace) -> T,
) -> Vec<(Benchmark, T)> {
    record_traces(cfg)
        .iter()
        .map(|(b, trace)| {
            let out = f(*b, trace);
            (*b, out)
        })
        .collect()
}

/// Process-wide count of memory references replayed through cache
/// models. Observability hook for `jouppi serve`'s `/metrics` endpoint;
/// monotonically increasing, never reset.
static REFS_SIMULATED: AtomicU64 = AtomicU64::new(0);

/// Total memory references replayed through [`run_side`],
/// [`classify_side`], [`fan_out`] (counted as the per-cell replays it
/// stands in for), and any caller of [`note_refs_simulated`] since
/// process start.
pub fn refs_simulated() -> u64 {
    // jouppi-lint: allow(relaxed-ordering) — point-in-time sample of a
    // monotone observability counter; exact under any ordering.
    REFS_SIMULATED.load(Ordering::Relaxed)
}

/// Adds `n` replayed references to the process-wide counter. Simulation
/// paths outside this module (e.g. the ad-hoc `/v1/simulate` endpoint)
/// call this so `/metrics` sees all traffic.
pub fn note_refs_simulated(n: u64) {
    // jouppi-lint: allow(relaxed-ordering) — atomic RMW on a monotone
    // counter loses no increments regardless of ordering.
    REFS_SIMULATED.fetch_add(n, Ordering::Relaxed);
}

/// Replays one side of a trace through an augmented cache organization.
///
/// Iterates the trace's dense side view — no per-reference kind branch —
/// and feeds its line addresses straight to the cache.
pub fn run_side(trace: &RecordedTrace, side: Side, cfg: AugmentedConfig) -> AugmentedStats {
    let mut cache = AugmentedCache::new(cfg);
    let view = side.view(trace);
    note_refs_simulated(view.len() as u64);
    for line in view.lines(cfg.geometry().line_size()) {
        cache.access_line(line);
    }
    *cache.stats()
}

/// Runs one side of a trace through a bare direct-mapped L1 of geometry
/// `geom` and records its misses: the filter half of filter-then-fan-out.
///
/// # Panics
///
/// Panics if `geom` is not direct-mapped.
pub fn log_side(trace: &RecordedTrace, side: Side, geom: CacheGeometry) -> MissLog {
    record_side(trace, side, geom, |_, _| {})
}

/// Like [`log_side`], with a three-C classifier riding the same L1 pass.
/// The breakdown equals [`classify_side`]'s. At the base line size the
/// classifier reads the side's memoized line ids instead of hashing
/// lines.
pub(crate) fn log_and_classify_side(
    trace: &RecordedTrace,
    side: Side,
    geom: CacheGeometry,
) -> (MissLog, MissBreakdown) {
    let mut classifier = MissClassifier::new(geom);
    let log = if geom.line_size() == BASE_LINE_SIZE {
        // The pass visits the side's references in order, once each.
        let mut ids = side.view(trace).ids().iter();
        record_side(trace, side, geom, |_, missed| {
            classifier.observe_id(*ids.next().expect("one id per reference"), missed);
        })
    } else {
        record_side(trace, side, geom, |line, missed| {
            classifier.observe(line, missed);
        })
    };
    (log, classifier.breakdown())
}

fn record_side(
    trace: &RecordedTrace,
    side: Side,
    geom: CacheGeometry,
    mut observe: impl FnMut(LineAddr, bool),
) -> MissLog {
    let mut logs = record_side_sizes(trace, side, &[geom], |line, missed| {
        observe(line, missed > 0);
    });
    logs.pop().expect("one log per geometry")
}

/// One side's miss logs at every direct-mapped geometry in `geoms`,
/// which share a line size and ascend, from one L1 pass (see
/// [`MissLog::record_sizes`]). Each log equals [`log_side`]'s.
pub(crate) fn log_sizes(
    trace: &RecordedTrace,
    side: Side,
    geoms: &[CacheGeometry],
) -> Vec<MissLog> {
    record_side_sizes(trace, side, geoms, |_, _| {})
}

/// Like [`log_sizes`], with a banded shadow riding the same pass: size
/// `i`'s [`BandedShadow::breakdown`] equals [`classify_side`]'s at
/// `geoms[i]`, and its [`BandedShadow::fa_misses`] are a
/// fully-associative LRU cache's of the same capacity. At the base line
/// size the shadow reads the side's memoized line ids.
pub(crate) fn log_and_classify_sizes(
    trace: &RecordedTrace,
    side: Side,
    geoms: &[CacheGeometry],
) -> (Vec<MissLog>, BandedShadow) {
    let mut shadow = BandedShadow::new(geoms);
    let logs = if geoms.first().map(CacheGeometry::line_size) == Some(BASE_LINE_SIZE) {
        let mut ids = side.view(trace).ids().iter();
        record_side_sizes(trace, side, geoms, |_, missed| {
            shadow.observe_id(*ids.next().expect("one id per reference"), missed);
        })
    } else {
        record_side_sizes(trace, side, geoms, |line, missed| {
            shadow.observe(line, missed);
        })
    };
    (logs, shadow)
}

fn record_side_sizes(
    trace: &RecordedTrace,
    side: Side,
    geoms: &[CacheGeometry],
    observe: impl FnMut(LineAddr, usize),
) -> Vec<MissLog> {
    let Some(&geom) = geoms.first() else {
        return Vec::new();
    };
    MissLog::record_sizes(geoms, side.view(trace).lines(geom.line_size()), observe)
}

/// Answers every configuration in `cfgs` from one side's miss log (see
/// [`MissLog::fan_out`]); bit-identical to [`run_side`] per configuration.
///
/// Counts what the per-cell schedule replays toward [`refs_simulated`]:
/// one classification pass plus one replay per configuration, each the
/// side's length. So the throughput gauges read work delivered, whichever
/// engine answers.
pub fn fan_out(log: &MissLog, cfgs: &[AugmentedConfig]) -> Vec<AugmentedStats> {
    note_refs_simulated(log.accesses() * (1 + cfgs.len() as u64));
    log.fan_out(cfgs)
}

/// Mean references per (benchmark, side) cell: what one L1 pass over a
/// side replays. [`sweep::map_jobs_sized`] prices filter-then-fan-out
/// cells from it.
pub(crate) fn refs_per_side(traces: &[(Benchmark, RecordedTrace)]) -> u64 {
    let total: u64 = traces.iter().map(|(_, t)| t.len() as u64).sum();
    total / (2 * traces.len()).max(1) as u64
}

/// Replays one side through a classified direct-mapped cache, returning
/// `(misses, breakdown)`. Uses the same dense side views as [`run_side`].
pub fn classify_side(
    trace: &RecordedTrace,
    side: Side,
    geom: CacheGeometry,
) -> (u64, jouppi_cache::MissBreakdown) {
    let mut cache = jouppi_cache::ClassifiedCache::new(geom);
    let view = side.view(trace);
    note_refs_simulated(view.len() as u64);
    for line in view.lines(geom.line_size()) {
        cache.access_line(line);
    }
    (cache.stats().misses, cache.breakdown())
}

/// The paper's baseline L1 geometry: 4KB direct-mapped, 16B lines.
pub fn baseline_l1() -> CacheGeometry {
    CacheGeometry::direct_mapped(4096, 16).expect("baseline geometry is valid")
}

/// The paper's summary metric: the unweighted mean over benchmarks of each
/// benchmark's own percentage (see the §3.1 footnote — this weights every
/// program equally regardless of its miss rate).
pub fn average(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Percent of a benchmark's *conflict* misses removed by a mechanism:
/// `removed / conflict × 100`, clamped at 0 when there were no conflict
/// misses.
pub fn pct_of_conflicts_removed(removed: u64, conflict: u64) -> f64 {
    if conflict == 0 {
        0.0
    } else {
        100.0 * removed as f64 / conflict as f64
    }
}

/// Percent of a benchmark's total misses removed: `removed / misses × 100`.
pub fn pct_of_misses_removed(removed: u64, misses: u64) -> f64 {
    if misses == 0 {
        0.0
    } else {
        100.0 * removed as f64 / misses as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn side_filters_kinds() {
        let i = MemRef::instr(jouppi_trace::Addr::new(0));
        let l = MemRef::load(jouppi_trace::Addr::new(0));
        let s = MemRef::store(jouppi_trace::Addr::new(0));
        assert!(Side::Instruction.matches(&i));
        assert!(!Side::Instruction.matches(&l));
        assert!(Side::Data.matches(&l));
        assert!(Side::Data.matches(&s));
        assert_eq!(Side::Instruction.label(), "L1 I-cache");
    }

    #[test]
    fn averages() {
        assert_eq!(average(&[]), 0.0);
        assert_eq!(average(&[1.0, 3.0]), 2.0);
    }

    #[test]
    fn percentage_helpers_handle_zero() {
        assert_eq!(pct_of_conflicts_removed(5, 0), 0.0);
        assert_eq!(pct_of_conflicts_removed(5, 10), 50.0);
        assert_eq!(pct_of_misses_removed(0, 0), 0.0);
        assert_eq!(pct_of_misses_removed(3, 12), 25.0);
    }

    #[test]
    fn trace_cache_holds_at_most_its_capacity() {
        for seed in 0..=TRACE_CACHE_CAPACITY as u64 {
            let cfg = ExperimentConfig {
                scale: Scale::new(500),
                seed: 0x7472_6163_6500 + seed,
            };
            record_traces(&cfg);
        }
        let held = TRACE_CACHE.lock().unwrap_or_else(|e| e.into_inner()).len();
        assert!(held <= TRACE_CACHE_CAPACITY, "{held} trace sets held");
    }

    #[test]
    fn a_memoized_configuration_returns_while_another_generates() {
        let memo: TraceMemo = Mutex::new(Vec::new());
        let memo = &memo;
        let warm = ExperimentConfig::default();
        let cold = ExperimentConfig {
            seed: warm.seed + 1,
            ..warm
        };
        let set = memoized(memo, &warm, TraceSet::default);
        std::thread::scope(|s| {
            let (started_tx, started) = std::sync::mpsc::channel::<()>();
            // Dropping `release` (also by a failed assertion below) lets
            // the cold generation finish.
            let (release, wait) = std::sync::mpsc::channel::<()>();
            let cold_thread = s.spawn(move || {
                memoized(memo, &cold, move || {
                    started_tx.send(()).unwrap();
                    // Released, or the sender dropped: either way, finish.
                    wait.recv().unwrap_or_default();
                    TraceSet::default()
                })
            });
            started.recv().unwrap();
            // The cold set is generating: its slot is in the memo, and
            // the memo's lock is free.
            assert!(
                memo.try_lock()
                    .is_ok_and(|slots| slots.iter().any(|(k, _)| *k == cold)),
                "the memo is locked while a set generates"
            );
            let again = memoized(memo, &warm, || panic!("the warm set is memoized"));
            assert!(Arc::ptr_eq(&set, &again));
            assert!(
                !cold_thread.is_finished(),
                "the cold set is still generating"
            );
            release.send(()).unwrap();
            assert!(cold_thread.join().unwrap().is_empty());
        });
    }

    #[test]
    fn per_benchmark_covers_all_six() {
        let cfg = ExperimentConfig::with_scale(2_000);
        let out = per_benchmark(&cfg, |_, t| t.len());
        assert_eq!(out.len(), 6);
        assert!(out.iter().all(|(_, n)| *n >= 2_000));
    }

    #[test]
    fn fan_out_cells_at_serve_scale_run_on_the_calling_thread() {
        // Conflict-sweep cells are priced at one side pass and stream-sweep
        // cells at two. At the serve daemon's default scale both must stay
        // below the thread-pool threshold.
        let traces = record_traces(&ExperimentConfig::with_scale(60_000));
        let side = refs_per_side(&traces);
        assert!(side > 20_000, "{side} refs per side");
        assert!(2 * side < sweep::MIN_PARALLEL_REFS_PER_JOB, "{side}");
    }

    #[test]
    fn run_side_only_sees_matching_refs() {
        let cfg = ExperimentConfig::with_scale(5_000);
        let trace = RecordedTrace::record(&Benchmark::Ccom.source(cfg.scale, cfg.seed));
        let stats = run_side(
            &trace,
            Side::Instruction,
            AugmentedConfig::new(baseline_l1()),
        );
        assert_eq!(stats.accesses, trace.stats().instruction_refs);
    }
}
