//! Times full experiment sweeps under the sweep engines — `per_cell`
//! (one task per configuration cell), `miss_log` (one L1 pass per
//! (benchmark, side), every configuration answered from its miss log),
//! `classify` (Figure 3-1's three-C classifier) and `single_pass` (one
//! Mattson traversal answering every geometry at once) — and writes
//! `BENCH_sweep.json`.
//!
//! Usage: `sweep-bench [--smoke] [--mode MODE] [SCALE] [OUT_PATH]`
//!
//! * `--smoke` — cross-check the schedules at a small scale and exit
//!   nonzero if any pair of engines diverges; no report is written.
//! * `--mode MODE` — `all` (default) or `single_pass`, which restricts
//!   both the smoke checks and the timed rows to the one-pass engine
//!   comparisons (the geometry grid plus fig_3_1's stack-depth path).
//! * `SCALE` — instructions per benchmark trace (default 60000).
//! * `OUT_PATH` — where to write the JSON report (default
//!   `BENCH_sweep.json` in the current directory).
//!
//! Traces are recorded once up front (the refs count needs them), so
//! every timed run replays the memoized trace set — the numbers measure
//! simulation throughput, not workload generation. Refs are counted as
//! *work delivered*: configuration cells covered × trace references.
//! Per-cell schedules replay exactly that many references; the miss-log
//! fan-out and the single-pass engine deliver the same cells from fewer
//! traversals, so their refs/s advantage is the point of the benchmark.
//! `fig_3_1` is classification-only (its unit of work is already one
//! (benchmark, side) cell), so its rows carry the serve engine name
//! `classify` and no per-cell row exists for it.

#![warn(clippy::cast_possible_truncation)]
#![allow(
    clippy::disallowed_types,
    reason = "a benchmark measures wall-clock throughput; it produces no simulation results"
)]

use std::process::ExitCode;
use std::time::Instant;

use jouppi_bench::{bench_config, render_json, Measurement};
use jouppi_experiments::common::{record_traces, ExperimentConfig};
use jouppi_experiments::{conflict_sweep, fig_3_1, single_pass, stream_sweep, sweep};
use jouppi_workloads::Scale;

fn time_sweep(
    name: &'static str,
    mode: &'static str,
    threads: usize,
    cells: u64,
    total_trace_refs: u64,
    run: &dyn Fn(),
) -> Measurement {
    sweep::set_thread_count(threads);
    let threads = sweep::thread_count();
    let start = Instant::now();
    run();
    let wall_ms = start.elapsed().as_secs_f64() * 1000.0;
    sweep::set_thread_count(0);
    let m = Measurement {
        sweep: name,
        mode,
        threads,
        cells,
        refs: cells * total_trace_refs,
        wall_ms,
    };
    eprintln!(
        "{:>16} {:>11} ({} thread{}): {:>9.1} ms, {:>12.0} refs/s",
        m.sweep,
        m.mode,
        m.threads,
        if m.threads == 1 { "" } else { "s" },
        m.wall_ms,
        m.refs_per_sec()
    );
    m
}

/// `--smoke`: cross-check the schedules at small scale, fail loudly on
/// divergence. `single_pass_only` restricts to the one-pass engines.
fn smoke(single_pass_only: bool) -> ExitCode {
    let cfg = ExperimentConfig::with_scale(8_000);
    let mut failures = 0usize;
    let mut check = |label: &str, ok: bool| {
        eprintln!("{} {label}", if ok { "ok  " } else { "FAIL" });
        if !ok {
            failures += 1;
        }
    };
    if !single_pass_only {
        check(
            "miss_cache_4: miss_log == per_cell",
            conflict_sweep::run(&cfg, conflict_sweep::Mechanism::MissCache, 4)
                == conflict_sweep::run_per_cell(&cfg, conflict_sweep::Mechanism::MissCache, 4),
        );
        check(
            "victim_cache_4: miss_log == per_cell",
            conflict_sweep::run(&cfg, conflict_sweep::Mechanism::VictimCache, 4)
                == conflict_sweep::run_per_cell(&cfg, conflict_sweep::Mechanism::VictimCache, 4),
        );
        check(
            "stream_single_8: miss_log == per_cell",
            stream_sweep::run(&cfg, 1, 8) == stream_sweep::run_per_cell(&cfg, 1, 8),
        );
        check(
            "stream_four_8: miss_log == per_cell",
            stream_sweep::run(&cfg, 4, 8) == stream_sweep::run_per_cell(&cfg, 4, 8),
        );
        check(
            "fig_3_1: stable across repeat runs",
            fig_3_1::run(&cfg) == fig_3_1::run(&cfg),
        );
    }
    check(
        "geometry_grid: single_pass == per_cell",
        single_pass::run(&cfg) == single_pass::run_per_cell(&cfg),
    );
    check(
        "fig_3_1: single_pass == classify",
        fig_3_1::run_single_pass(&cfg) == fig_3_1::run(&cfg),
    );
    if failures == 0 {
        eprintln!("smoke: all schedules agree");
        ExitCode::SUCCESS
    } else {
        eprintln!("smoke: {failures} divergence(s) between schedules");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let mut smoke_run = false;
    let mut mode = "all".to_owned();
    let mut positional = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke_run = true,
            "--mode" => mode = args.next().expect("--mode needs a value"),
            _ => positional.push(arg),
        }
    }
    let single_pass_only = match mode.as_str() {
        "all" => false,
        "single_pass" => true,
        other => {
            eprintln!("unknown --mode '{other}'; valid modes: all, single_pass");
            return ExitCode::FAILURE;
        }
    };
    if smoke_run {
        return smoke(single_pass_only);
    }
    let mut positional = positional.into_iter();
    let mut cfg = bench_config();
    if let Some(raw) = positional.next() {
        let n: u64 = raw.parse().expect("SCALE must be an integer");
        cfg = ExperimentConfig {
            scale: Scale::new(n),
            ..cfg
        };
    }
    let out = positional
        .next()
        .unwrap_or_else(|| "BENCH_sweep.json".to_owned());

    // Every replay of a cache side touches each of that side's references
    // exactly once, so refs-per-sweep is (cells covered) × trace size.
    // This also warms the memoized trace store for the timed runs.
    let total: u64 = record_traces(&cfg)
        .iter()
        .map(|(_, t)| t.len() as u64)
        .sum();
    let fig31 = || {
        fig_3_1::run(&cfg);
    };
    let fig31_single = || {
        fig_3_1::run_single_pass(&cfg);
    };
    let victim_miss_log = || {
        conflict_sweep::run(&cfg, conflict_sweep::Mechanism::VictimCache, 4);
    };
    let victim_per_cell = || {
        conflict_sweep::run_per_cell(&cfg, conflict_sweep::Mechanism::VictimCache, 4);
    };
    let stream_miss_log = || {
        stream_sweep::run(&cfg, 1, 8);
    };
    let stream_per_cell = || {
        stream_sweep::run_per_cell(&cfg, 1, 8);
    };
    let grid_single = || {
        single_pass::run(&cfg);
    };
    let grid_per_cell = || {
        single_pass::run_per_cell(&cfg);
    };
    let grid_cells = single_pass::cells_per_side();

    // The one-pass engine rows: the full geometry grid from one
    // traversal per (benchmark, side, policy), against the demoted
    // per-cell oracle covering the same cells, plus fig_3_1's
    // stack-depth path against its classifying simulator.
    let mut runs = vec![
        time_sweep(
            "geometry_grid",
            "per_cell",
            1,
            grid_cells,
            total,
            &grid_per_cell,
        ),
        time_sweep(
            "geometry_grid",
            "single_pass",
            1,
            grid_cells,
            total,
            &grid_single,
        ),
        time_sweep(
            "geometry_grid",
            "single_pass",
            2,
            grid_cells,
            total,
            &grid_single,
        ),
        time_sweep("fig_3_1", "single_pass", 1, 1, total, &fig31_single),
    ];
    if !single_pass_only {
        // fig_3_1 has no per-cell schedule (see the module docs); the
        // other sweeps get per-cell at one thread plus miss_log at one
        // and two.
        runs.extend([
            time_sweep("fig_3_1", "classify", 1, 1, total, &fig31),
            time_sweep("fig_3_1", "classify", 2, 1, total, &fig31),
            time_sweep("victim_cache_4", "per_cell", 1, 5, total, &victim_per_cell),
            time_sweep("victim_cache_4", "miss_log", 1, 5, total, &victim_miss_log),
            time_sweep("victim_cache_4", "miss_log", 2, 5, total, &victim_miss_log),
            time_sweep(
                "stream_single_8",
                "per_cell",
                1,
                10,
                total,
                &stream_per_cell,
            ),
            time_sweep(
                "stream_single_8",
                "miss_log",
                1,
                10,
                total,
                &stream_miss_log,
            ),
            time_sweep(
                "stream_single_8",
                "miss_log",
                2,
                10,
                total,
                &stream_miss_log,
            ),
        ]);
    }

    let report = render_json(sweep::available_cores(), &cfg, &runs);
    std::fs::write(&out, &report).expect("failed to write the benchmark report");
    eprintln!("wrote {out}");
    ExitCode::SUCCESS
}
