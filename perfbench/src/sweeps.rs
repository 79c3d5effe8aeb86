//! The offline batch workloads: rounds of paper sweeps through their
//! default entry points.
//!
//! * `sweep_augmented` — Figures 3-3, 3-5, 3-6, 3-7, 4-3, 4-5, 4-6 and
//!   4-7 at 200 000 instructions per benchmark. `core` (victim caches,
//!   miss caches, stream buffers) does most of the work.
//! * `sweep_l1` — the 80-cell geometry grid, Figure 3-1 and the
//!   working-set curves at the paper's 500 000. `cache` (single-pass
//!   engines, three-C classifier) does all of it and `core` none.
//!
//! Set-up is `common::record_traces`; every round after it is pure
//! replay. Work delivered per round is counted from the workload
//! definition — answered (benchmark, side, configuration) cells × that
//! side's references — so it is the same whichever engine answers.
//!
//! The sweep pool runs on the calling thread (the benchmark sets one
//! worker), so a round's processor time is its whole cost. Each call is
//! timed between reference slices ([`crate::timed`]); the headline is
//! [`round_cost`].

use std::time::Instant;

use jouppi_cache::{CacheGeometry, FifoSweep, LruSweep, StackDistanceProfile};
use jouppi_core::{AugmentedConfig, AugmentedStats, StreamBufferConfig};
use jouppi_experiments::common::{
    baseline_l1, classify_side, record_traces, run_side, ExperimentConfig, Side, TraceSet,
};
use jouppi_experiments::victim_geometry::{cache_size_points, line_size_points, GeometryAxis};
use jouppi_experiments::{
    conflict_sweep, ext_working_set, fig_3_1, single_pass, stream_geometry, stream_sweep,
    victim_geometry,
};
use jouppi_serve::json::Json;
use jouppi_trace::{RecordedTrace, SideView};
use jouppi_workloads::Benchmark;

use crate::spans::{breakdown, Tracer};
use crate::{digest_debug, median, peak_rss_mb, summary_json, timed, Digest};
use crate::{Outcome, RunOptions, GATE_SCALE};

/// Rounds every run measures at least, however long a round takes.
const MIN_ROUNDS: usize = 3;

/// Entries swept by Figures 3-3 and 3-5.
const CONFLICT_ENTRIES: usize = 15;

/// Longest stream run swept by Figures 4-3 and 4-5.
const MAX_STREAM_RUN: usize = 16;

/// One call a round makes into `jouppi_experiments`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Call {
    /// `conflict_sweep::run(MissCache, 15)`.
    Fig33,
    /// `conflict_sweep::run(VictimCache, 15)`.
    Fig35,
    /// `victim_geometry::run(CacheSize, 1KB..128KB)`.
    Fig36,
    /// `victim_geometry::run(LineSize, 8B..256B)`.
    Fig37,
    /// `stream_sweep::run(1 way, runs 0..=16)`.
    Fig43,
    /// `stream_sweep::run(4 ways, runs 0..=16)`.
    Fig45,
    /// `stream_geometry::run(CacheSize, 1KB..128KB)`.
    Fig46,
    /// `stream_geometry::run(LineSize, 8B..256B)`.
    Fig47,
    /// `single_pass::run`: 40 geometries × LRU/FIFO per side.
    GeometryGrid,
    /// `fig_3_1::run`.
    Fig31,
    /// `ext_working_set::run`.
    WorkingSet,
}

/// A sweep workload: its calls and scale.
#[derive(Clone, Copy, Debug)]
pub struct SweepWorkload {
    /// Workload name.
    pub name: &'static str,
    /// Instructions per benchmark trace.
    pub scale: u64,
    /// Scale in `--quick` mode.
    pub quick_scale: u64,
    /// The calls of one round, in order.
    pub calls: &'static [Call],
}

/// `sweep_augmented`.
pub const SWEEP_AUGMENTED: SweepWorkload = SweepWorkload {
    name: "sweep_augmented",
    scale: 200_000,
    quick_scale: 10_000,
    calls: &[
        Call::Fig33,
        Call::Fig35,
        Call::Fig36,
        Call::Fig37,
        Call::Fig43,
        Call::Fig45,
        Call::Fig46,
        Call::Fig47,
    ],
};

/// `sweep_l1`.
pub const SWEEP_L1: SweepWorkload = SweepWorkload {
    name: "sweep_l1",
    scale: 500_000,
    quick_scale: 20_000,
    calls: &[Call::GeometryGrid, Call::Fig31, Call::WorkingSet],
};

fn axis_points(axis: GeometryAxis) -> Vec<u64> {
    match axis {
        GeometryAxis::CacheSize => cache_size_points(),
        GeometryAxis::LineSize => line_size_points(),
    }
}

fn axis_geometry(axis: GeometryAxis, point: u64) -> CacheGeometry {
    let (size, line) = match axis {
        GeometryAxis::CacheSize => (point, 16),
        GeometryAxis::LineSize => (4096, point),
    };
    CacheGeometry::direct_mapped(size, line).expect("paper axis geometry is valid")
}

fn stream_config(geom: CacheGeometry, ways: usize, sb: StreamBufferConfig) -> AugmentedConfig {
    let base = AugmentedConfig::new(geom);
    if ways == 1 {
        base.stream_buffer(sb)
    } else {
        base.multi_way_stream_buffer(ways, sb)
    }
}

fn side_len(trace: &RecordedTrace, side: Side) -> u64 {
    side.view(trace).len() as u64
}

impl Call {
    /// The sweep's name in metric names (`experiments.<name>.s`).
    pub fn name(self) -> &'static str {
        match self {
            Call::Fig33 => "fig_3_3",
            Call::Fig35 => "fig_3_5",
            Call::Fig36 => "fig_3_6",
            Call::Fig37 => "fig_3_7",
            Call::Fig43 => "fig_4_3",
            Call::Fig45 => "fig_4_5",
            Call::Fig46 => "fig_4_6",
            Call::Fig47 => "fig_4_7",
            Call::GeometryGrid => "geometry_grid",
            Call::Fig31 => "fig_3_1",
            Call::WorkingSet => "working_set",
        }
    }

    fn span(self) -> &'static str {
        match self {
            Call::Fig33 => "experiments.fig_3_3",
            Call::Fig35 => "experiments.fig_3_5",
            Call::Fig36 => "experiments.fig_3_6",
            Call::Fig37 => "experiments.fig_3_7",
            Call::Fig43 => "experiments.fig_4_3",
            Call::Fig45 => "experiments.fig_4_5",
            Call::Fig46 => "experiments.fig_4_6",
            Call::Fig47 => "experiments.fig_4_7",
            Call::GeometryGrid => "experiments.geometry_grid",
            Call::Fig31 => "experiments.fig_3_1",
            Call::WorkingSet => "experiments.working_set",
        }
    }

    /// Runs the call through its default entry point and returns the
    /// digest of its result.
    pub fn run(self, cfg: &ExperimentConfig) -> String {
        use conflict_sweep::Mechanism;
        match self {
            Call::Fig33 => digest_debug(&conflict_sweep::run(
                cfg,
                Mechanism::MissCache,
                CONFLICT_ENTRIES,
            )),
            Call::Fig35 => digest_debug(&conflict_sweep::run(
                cfg,
                Mechanism::VictimCache,
                CONFLICT_ENTRIES,
            )),
            Call::Fig36 | Call::Fig37 => {
                let axis = self.axis();
                digest_debug(&victim_geometry::run(cfg, axis, &axis_points(axis)))
            }
            Call::Fig43 => digest_debug(&stream_sweep::run(cfg, 1, MAX_STREAM_RUN)),
            Call::Fig45 => digest_debug(&stream_sweep::run(cfg, 4, MAX_STREAM_RUN)),
            Call::Fig46 | Call::Fig47 => {
                let axis = self.axis();
                digest_debug(&stream_geometry::run(cfg, axis, &axis_points(axis)))
            }
            Call::GeometryGrid => digest_debug(&single_pass::run(cfg)),
            Call::Fig31 => digest_debug(&fig_3_1::run(cfg)),
            Call::WorkingSet => digest_debug(&ext_working_set::run(cfg)),
        }
    }

    fn axis(self) -> GeometryAxis {
        match self {
            Call::Fig37 | Call::Fig47 => GeometryAxis::LineSize,
            _ => GeometryAxis::CacheSize,
        }
    }

    /// Work delivered by one call: answered cells × side references.
    pub fn work_refs(self, traces: &TraceSet) -> u64 {
        let (mut instr, mut data) = (0u64, 0u64);
        for (_, t) in traces.iter() {
            instr += side_len(t, Side::Instruction);
            data += side_len(t, Side::Data);
        }
        let points = axis_points(self.axis()).len() as u64;
        match self {
            Call::Fig33 | Call::Fig35 => CONFLICT_ENTRIES as u64 * (instr + data),
            Call::Fig43 | Call::Fig45 => (MAX_STREAM_RUN as u64 + 1) * (instr + data),
            // Four victim-cache sizes plus the conflict-miss reference
            // line at each point, data side only.
            Call::Fig36 | Call::Fig37 => {
                points * (victim_geometry::VC_ENTRIES.len() as u64 + 1) * data
            }
            // One- and four-way buffers on both sides at each point.
            Call::Fig46 | Call::Fig47 => points * 2 * (instr + data),
            Call::GeometryGrid => single_pass::cells_per_side() * (instr + data),
            Call::Fig31 => instr + data,
            // Fully-associative and direct-mapped rates at six sizes.
            Call::WorkingSet => 2 * ext_working_set::SIZES.len() as u64 * data,
        }
    }

    /// Replays the call's cells one at a time through the layer
    /// functions, under spans, accumulating the augmented statistics.
    fn decompose(self, traces: &TraceSet, tracer: &Tracer, stats: &mut AidStats) {
        let classify = |trace: &RecordedTrace, side: Side, geom: CacheGeometry| {
            tracer
                .span("cache.classify", side_len(trace, side), || {
                    classify_side(trace, side, geom)
                })
                .0
        };
        let augment = |trace: &RecordedTrace, side: Side, cfg: AugmentedConfig| {
            tracer
                .span("core.augmented", side_len(trace, side), || {
                    run_side(trace, side, cfg)
                })
                .0
        };
        let baseline = baseline_l1();
        for (_, trace) in traces.iter() {
            match self {
                Call::Fig33 | Call::Fig35 => {
                    for side in Side::BOTH {
                        classify(trace, side, baseline);
                        for n in 1..=CONFLICT_ENTRIES {
                            let base = AugmentedConfig::new(baseline);
                            if self == Call::Fig33 {
                                let s = augment(trace, side, base.miss_cache(n));
                                stats.miss_cache.add(s.miss_cache_hits, &s);
                            } else {
                                let s = augment(trace, side, base.victim_cache(n));
                                stats.victim.add(s.victim_hits, &s);
                            }
                        }
                    }
                }
                Call::Fig36 | Call::Fig37 => {
                    for point in axis_points(self.axis()) {
                        let geom = axis_geometry(self.axis(), point);
                        classify(trace, Side::Data, geom);
                        for &e in &victim_geometry::VC_ENTRIES {
                            let cfg = AugmentedConfig::new(geom).victim_cache(e);
                            let s = augment(trace, Side::Data, cfg);
                            stats.victim.add(s.victim_hits, &s);
                        }
                    }
                }
                Call::Fig43 | Call::Fig45 => {
                    let ways = if self == Call::Fig43 { 1 } else { 4 };
                    for side in Side::BOTH {
                        classify(trace, side, baseline);
                        for run in 0..=MAX_STREAM_RUN {
                            let sb = StreamBufferConfig::new(4).max_run(run);
                            let s = augment(trace, side, stream_config(baseline, ways, sb));
                            stats.stream.add(s.stream_hits, &s);
                        }
                    }
                }
                Call::Fig46 | Call::Fig47 => {
                    for point in axis_points(self.axis()) {
                        let geom = axis_geometry(self.axis(), point);
                        for (ways, side) in [
                            (1, Side::Instruction),
                            (1, Side::Data),
                            (4, Side::Instruction),
                            (4, Side::Data),
                        ] {
                            classify(trace, side, geom);
                            let cfg = stream_config(geom, ways, StreamBufferConfig::new(4));
                            let s = augment(trace, side, cfg);
                            stats.stream.add(s.stream_hits, &s);
                        }
                    }
                }
                Call::GeometryGrid => {
                    let keys: Vec<(u64, u64)> = single_pass::grid()
                        .iter()
                        .map(|g| (g.num_sets(), g.associativity()))
                        .collect();
                    for side in Side::BOTH {
                        let lines = base_lines(side.view(trace));
                        tracer.span("cache.single_pass", 2 * lines.len() as u64, || {
                            let mut lru = LruSweep::bounded(&keys).expect("grid cells are valid");
                            let mut fifo = FifoSweep::new(&keys).expect("grid cells are valid");
                            for &line in lines {
                                lru.observe(line);
                                fifo.observe(line);
                            }
                            std::hint::black_box((lru, fifo));
                        });
                    }
                }
                Call::Fig31 => {
                    for side in Side::BOTH {
                        classify(trace, side, baseline);
                    }
                }
                Call::WorkingSet => {
                    let lines = base_lines(Side::Data.view(trace));
                    let cells: Vec<(u64, u64)> = ext_working_set::SIZES
                        .iter()
                        .map(|&s| (s / 16, 1))
                        .collect();
                    tracer.span("cache.working_set", lines.len() as u64, || {
                        let mut profile = StackDistanceProfile::with_capacity(lines.len());
                        let mut dm = LruSweep::bounded(&cells).expect("sizes are powers of two");
                        for &line in lines {
                            profile.observe(line);
                            dm.observe(line);
                        }
                        std::hint::black_box((profile, dm));
                    });
                }
            }
        }
    }
}

fn base_lines(view: &SideView) -> &[jouppi_trace::LineAddr] {
    view.lines_for(16)
        .expect("16B lines are pre-derived for the baseline line size")
}

/// A round's normalized processor seconds: the sum over its calls of
/// each call's median over the run's rounds. Each median drops the
/// rounds where interference hit that call, whichever calls it hit in
/// other rounds.
fn round_cost(per_call: &[Vec<f64>]) -> f64 {
    per_call.iter().map(|times| median(times)).sum()
}

/// How long one round took: wall-clock, processor and normalized
/// processor seconds, summed over its calls.
#[derive(Clone, Copy, Debug, Default)]
struct Times {
    wall_s: f64,
    cpu_s: f64,
    norm_s: f64,
}

/// Hits in one kind of aid over the L1 misses it saw, summed over the
/// replays that used it.
#[derive(Clone, Copy, Debug, Default)]
struct HitRatio {
    hits: u64,
    misses: u64,
}

impl HitRatio {
    fn add(&mut self, hits: u64, s: &AugmentedStats) {
        self.hits += hits;
        self.misses += s.l1_misses();
    }

    fn json(self) -> Json {
        if self.misses == 0 {
            Json::Null
        } else {
            Json::Float(self.hits as f64 / self.misses as f64)
        }
    }
}

/// Useful outcomes of the augmented replays, per kind of aid.
#[derive(Clone, Copy, Debug, Default)]
struct AidStats {
    victim: HitRatio,
    miss_cache: HitRatio,
    stream: HitRatio,
}

impl SweepWorkload {
    fn config(&self, opts: &RunOptions) -> ExperimentConfig {
        ExperimentConfig {
            scale: jouppi_workloads::Scale::new(if opts.quick {
                self.quick_scale
            } else {
                self.scale
            }),
            seed: opts.seed,
        }
    }

    /// Set-up: records the six traces. Returns the normalized processor
    /// seconds it took.
    pub fn setup(&self, opts: &RunOptions) -> f64 {
        timed(|| std::hint::black_box(record_traces(&self.config(opts))))
            .1
            .norm_s
    }

    /// The correctness gate: every call with a per-cell oracle must
    /// equal it at [`GATE_SCALE`].
    fn gate(&self, seed: u64, out: &mut Outcome) {
        use conflict_sweep::Mechanism;
        let cfg = ExperimentConfig {
            scale: jouppi_workloads::Scale::new(GATE_SCALE),
            seed,
        };
        for call in self.calls {
            let ok = match call {
                Call::Fig33 | Call::Fig35 => {
                    let m = if *call == Call::Fig33 {
                        Mechanism::MissCache
                    } else {
                        Mechanism::VictimCache
                    };
                    conflict_sweep::run(&cfg, m, CONFLICT_ENTRIES)
                        == conflict_sweep::run_per_cell(&cfg, m, CONFLICT_ENTRIES)
                }
                Call::Fig43 | Call::Fig45 => {
                    let ways = if *call == Call::Fig43 { 1 } else { 4 };
                    stream_sweep::run(&cfg, ways, MAX_STREAM_RUN)
                        == stream_sweep::run_per_cell(&cfg, ways, MAX_STREAM_RUN)
                }
                Call::GeometryGrid => single_pass::run(&cfg) == single_pass::run_per_cell(&cfg),
                Call::Fig31 => fig_3_1::run(&cfg) == fig_3_1::run_single_pass(&cfg),
                _ => continue,
            };
            if !ok {
                eprintln!("{}: {} disagrees with its oracle", self.name, call.name());
            }
            out.check(ok);
        }
    }

    /// One round: every call in order, each timed on its own. Returns the
    /// round's times, each call's normalized processor seconds, and the
    /// round's result digest.
    fn round(&self, cfg: &ExperimentConfig, tracer: &Tracer) -> (Times, Vec<f64>, String) {
        let mut times = Times::default();
        let mut digest = Digest::default();
        let mut per_call = Vec::with_capacity(self.calls.len());
        for call in self.calls {
            let ((d, wall_s), cost) = timed(|| {
                let start = Instant::now();
                let (d, _) = tracer.span(call.span(), 0, || call.run(cfg));
                (d, start.elapsed().as_secs_f64())
            });
            times.wall_s += wall_s;
            times.cpu_s += cost.cpu_s;
            times.norm_s += cost.norm_s;
            per_call.push(cost.norm_s);
            digest.update(d.as_bytes());
        }
        (times, per_call, digest.hex())
    }

    /// Repeats rounds for about `seconds` (at least [`MIN_ROUNDS`]),
    /// checking each round's digest against `expect` (or the first).
    /// Returns each round's times and each call's normalized times.
    fn rounds(
        &self,
        cfg: &ExperimentConfig,
        seconds: f64,
        tracer: &Tracer,
        expect: &mut Option<String>,
        out: &mut Outcome,
    ) -> (Vec<Times>, Vec<Vec<f64>>) {
        let start = Instant::now();
        let (mut rounds, mut per_call) = (Vec::new(), vec![Vec::new(); self.calls.len()]);
        let wall_median = |r: &[Times]| median(&r.iter().map(|t| t.wall_s).collect::<Vec<_>>());
        while rounds.len() < MIN_ROUNDS
            || start.elapsed().as_secs_f64() + wall_median(&rounds) <= seconds
        {
            let (times, calls, digest) = self.round(cfg, tracer);
            rounds.push(times);
            for (acc, t) in per_call.iter_mut().zip(calls) {
                acc.push(t);
            }
            let first = expect.get_or_insert_with(|| digest.clone());
            let ok = *first == digest;
            if !ok {
                eprintln!(
                    "{}: round digest {digest} != first round {first}",
                    self.name
                );
            }
            out.check(ok);
        }
        (rounds, per_call)
    }

    /// Runs the workload after its set-up samples were taken.
    pub fn run(&self, opts: &RunOptions, setup_samples: &mut Vec<f64>) -> Outcome {
        let mut out = Outcome::default();
        setup_samples.push(self.setup(opts));
        self.gate(opts.seed, &mut out);
        let cfg = self.config(opts);
        let traces = record_traces(&cfg);
        let refs_per_round: u64 = self.calls.iter().map(|c| c.work_refs(&traces)).sum();
        let mut digest = None;

        out.detail("scale", Json::Int(cfg.scale.instructions as i64));
        out.detail("refs_per_round", Json::Int(refs_per_round as i64));
        out.detail("setup_samples_s", summary_json(setup_samples));
        let untraced = Tracer::disabled(self.name);
        let seconds = if opts.traced {
            opts.seconds / 2.0
        } else {
            opts.seconds
        };
        let (rounds, per_call) = self.rounds(&cfg, seconds, &untraced, &mut digest, &mut out);
        let field = |f: fn(&Times) -> f64| rounds.iter().map(f).collect::<Vec<_>>();
        let walls = field(|t| t.wall_s);
        let (round_s, round_norm_s) = (median(&walls), round_cost(&per_call));
        out.detail("rounds_s", summary_json(&field(|t| t.norm_s)));
        out.detail("rounds_cpu_s", summary_json(&field(|t| t.cpu_s)));
        out.detail("rounds_wall_s", summary_json(&walls));
        out.detail("refs_per_s", Json::Float(refs_per_round as f64 / round_s));
        out.detail(
            "results_digest",
            Json::str(digest.clone().unwrap_or_default()),
        );
        let mut call_s = Vec::new();
        for (call, times) in self.calls.iter().zip(&per_call) {
            call_s.push((
                format!("experiments.{}.s", call.name()),
                Json::Float(median(times)),
            ));
        }
        out.detail("calls", Json::Obj(call_s));

        if !opts.traced {
            out.metric("setup_s", median(setup_samples), "s");
            out.metric("cpu_ms", round_norm_s * 1000.0, "ms");
            out.metric("rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MB");
            return out;
        }

        let tracer = Tracer::new(self.name);
        let (_, traced) = self.rounds(&cfg, seconds, &tracer, &mut digest, &mut out);
        let overhead = round_cost(&traced) / round_norm_s;
        // The decomposition pass: set-up, then one round's cells, one at
        // a time, so self times add up without parallel overlap.
        let from = tracer.len();
        for b in Benchmark::ALL {
            let (trace, id) = tracer.span("trace.record", 0, || {
                RecordedTrace::record(&b.source(cfg.scale, cfg.seed))
            });
            let n = trace.len() as u64;
            tracer.set_refs(id, n);
            tracer.span("trace.partition", n, || trace.materialize_sides());
        }
        let mut aids = AidStats::default();
        for call in self.calls {
            tracer.span(call.span(), 0, || {
                call.decompose(&traces, &tracer, &mut aids)
            });
        }
        let layers = breakdown(&tracer, from);
        // Round work decomposed cell by cell, over the round's wall time:
        // above 1 when the engines share passes.
        let round_ns: u64 = layers
            .layer_ns
            .iter()
            .filter(|(layer, _)| **layer != "trace")
            .map(|(_, ns)| ns)
            .sum();
        let sharing = round_ns as f64 / (round_s * 1e9);
        out.detail("layers", layers.json.clone());
        out.detail(
            "ratios",
            Json::obj([
                ("core.victim.hit_ratio", aids.victim.json()),
                ("core.miss_cache.hit_ratio", aids.miss_cache.json()),
                ("core.stream.hit_ratio", aids.stream.json()),
                ("experiments.sharing_factor", Json::Float(sharing)),
            ]),
        );
        out.detail("trace_overhead", Json::Float(overhead));
        out.metrics = layers.metrics(sharing, overhead);
        out.spans_jsonl = tracer.to_jsonl();
        out
    }
}
