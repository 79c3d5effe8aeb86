//! Named paper sweeps for `POST /v1/sweep`.
//!
//! Each name maps to one of `jouppi_experiments`' figure sweeps, run at
//! the requested scale/seed and encoded as a deterministic [`Json`]
//! document. The encoding lives here — not in the HTTP layer — so the
//! integration test can run the same sweep in-process and require the
//! served bytes to match **bit-for-bit**.

use std::sync::atomic::{AtomicU64, Ordering};

use jouppi_experiments::common::{refs_simulated, ExperimentConfig};
use jouppi_experiments::sweep::single_pass_refs;
use jouppi_experiments::{conflict_sweep, fig_3_1, single_pass, stream_sweep};
use jouppi_workloads::Scale;

use crate::json::Json;

/// Replay throughput (references per second) of the most recently
/// completed named sweep; 0 until a sweep finishes. Concurrent sweeps
/// share the process-wide reference counter, so under overlap the gauge
/// reads combined throughput — fine for an operational gauge.
static LAST_SWEEP_REFS_PER_SECOND: AtomicU64 = AtomicU64::new(0);

/// The `jouppi_refs_per_second` gauge: throughput of the last completed
/// sweep.
pub fn last_sweep_refs_per_second() -> u64 {
    // jouppi-lint: allow(relaxed-ordering) — single-word operational
    // gauge; any published value is a complete, valid sample.
    LAST_SWEEP_REFS_PER_SECOND.load(Ordering::Relaxed)
}

/// The sweeps the service knows how to run.
pub const NAMED_SWEEPS: [&str; 6] = [
    "fig_3_1",
    "miss_cache_4",
    "victim_cache_4",
    "stream_single_8",
    "stream_four_8",
    "geometry_grid",
];

/// The execution engine a named sweep runs on, as the one-element list
/// a request's optional `engine` field is checked against. The response
/// document and the result-cache key both name it.
///
/// The size × associativity grid routes to the single-pass Mattson
/// engines; Figure 3-1 classifies on the tag array; sweeps whose cells
/// augment the L1 (miss caches, victim caches, stream buffers) run
/// filter-then-fan-out: one L1 pass per (benchmark, side), every
/// configuration answered from its miss log.
pub fn engines_for(name: &str) -> &'static [&'static str] {
    match name {
        "fig_3_1" => &["classify"],
        "geometry_grid" => &["single_pass"],
        _ => &["miss_log"],
    }
}

/// Hard cap on `scale` for a queued sweep.
pub const MAX_SWEEP_SCALE: u64 = 2_000_000;

/// Default `scale` when a sweep request omits it.
pub const DEFAULT_SWEEP_SCALE: u64 = 60_000;

/// Builds an [`ExperimentConfig`] from a sweep request's scale/seed.
///
/// # Errors
///
/// A validation message when `scale` is out of range.
pub fn sweep_config(scale: u64, seed: u64) -> Result<ExperimentConfig, String> {
    if scale == 0 || scale > MAX_SWEEP_SCALE {
        return Err(format!("'scale' must be in 1..={MAX_SWEEP_SCALE}"));
    }
    Ok(ExperimentConfig {
        scale: Scale::new(scale),
        seed,
    })
}

/// Runs the named sweep on its engine ([`engines_for`]) and encodes
/// its result; `None` for an unknown name (the router 400s with the
/// [`NAMED_SWEEPS`] catalog).
#[expect(
    clippy::disallowed_types,
    reason = "the wall clock feeds only the refs/s throughput gauge; the result document never includes it"
)]
pub fn run_named(name: &str, cfg: &ExperimentConfig) -> Option<Json> {
    let refs_before = refs_simulated() + single_pass_refs();
    let start = std::time::Instant::now();
    let body = match name {
        "fig_3_1" => fig31_json(&fig_3_1::run(cfg)),
        "miss_cache_4" => conflict_json(&conflict_sweep::run(
            cfg,
            conflict_sweep::Mechanism::MissCache,
            4,
        )),
        "victim_cache_4" => conflict_json(&conflict_sweep::run(
            cfg,
            conflict_sweep::Mechanism::VictimCache,
            4,
        )),
        "stream_single_8" => stream_json(&stream_sweep::run(cfg, 1, 8)),
        "stream_four_8" => stream_json(&stream_sweep::run(cfg, 4, 8)),
        "geometry_grid" => geometry_json(&single_pass::run(cfg)),
        _ => return None,
    };
    let seconds = start.elapsed().as_secs_f64();
    // Every engine feeds the throughput gauge: L1 passes and replays
    // count via refs_simulated, one-pass traversals via single_pass_refs.
    let refs = (refs_simulated() + single_pass_refs()).saturating_sub(refs_before);
    if seconds > 0.0 && refs > 0 {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "a refs/s gauge; `as` saturates, far above any reachable rate"
        )]
        let rate = (refs as f64 / seconds) as u64;
        // jouppi-lint: allow(relaxed-ordering) — single-word gauge store;
        // no other memory is published alongside it.
        LAST_SWEEP_REFS_PER_SECOND.store(rate, Ordering::Relaxed);
    }
    let mut doc = vec![
        ("sweep".to_owned(), Json::str(name)),
        ("engine".to_owned(), Json::str(engines_for(name)[0])),
        ("scale".to_owned(), Json::Int(cfg.scale.instructions as i64)),
        ("seed".to_owned(), Json::Int(cfg.seed as i64)),
    ];
    doc.extend(body);
    Some(Json::Obj(doc))
}

fn breakdown_json(b: &jouppi_cache::MissBreakdown) -> Json {
    Json::obj([
        ("compulsory", Json::Int(b.compulsory as i64)),
        ("capacity", Json::Int(b.capacity as i64)),
        ("conflict", Json::Int(b.conflict as i64)),
        ("conflict_pct", Json::Float(100.0 * b.conflict_fraction())),
    ])
}

fn float_arr(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::Float(v)).collect())
}

fn fig31_json(f: &fig_3_1::Fig31) -> Vec<(String, Json)> {
    let rows = f
        .rows
        .iter()
        .map(|(b, i, d)| {
            Json::obj([
                ("benchmark", Json::str(b.name())),
                ("instr", breakdown_json(i)),
                ("data", breakdown_json(d)),
            ])
        })
        .collect();
    vec![
        ("rows".to_owned(), Json::Arr(rows)),
        (
            "avg_instr_conflict_pct".to_owned(),
            Json::Float(100.0 * f.avg_instr_conflict_fraction()),
        ),
        (
            "avg_data_conflict_pct".to_owned(),
            Json::Float(100.0 * f.avg_data_conflict_fraction()),
        ),
    ]
}

fn conflict_json(s: &conflict_sweep::ConflictSweep) -> Vec<(String, Json)> {
    let benchmarks = s
        .benchmarks
        .iter()
        .map(|b| {
            Json::obj([
                ("benchmark", Json::str(b.benchmark.name())),
                ("instr_pct_removed", float_arr(&b.instr)),
                ("data_pct_removed", float_arr(&b.data)),
            ])
        })
        .collect();
    vec![
        (
            "mechanism".to_owned(),
            Json::str(match s.mechanism {
                conflict_sweep::Mechanism::MissCache => "miss_cache",
                conflict_sweep::Mechanism::VictimCache => "victim_cache",
            }),
        ),
        (
            "entries".to_owned(),
            Json::Arr(s.entries.iter().map(|&e| Json::Int(e as i64)).collect()),
        ),
        ("benchmarks".to_owned(), Json::Arr(benchmarks)),
    ]
}

fn geometry_json(s: &single_pass::GeometrySweep) -> Vec<(String, Json)> {
    let cell_json = |c: &single_pass::GeometryCell| {
        Json::obj([
            ("size", Json::Int(c.size as i64)),
            ("assoc", Json::Int(c.associativity as i64)),
            ("lru_misses", Json::Int(c.lru_misses as i64)),
            ("fifo_misses", Json::Int(c.fifo_misses as i64)),
        ])
    };
    let rows = s
        .rows
        .iter()
        .map(|r| {
            Json::obj([
                ("benchmark", Json::str(r.benchmark.name())),
                ("instr_refs", Json::Int(r.instr_refs as i64)),
                ("data_refs", Json::Int(r.data_refs as i64)),
                ("instr", Json::Arr(r.instr.iter().map(cell_json).collect())),
                ("data", Json::Arr(r.data.iter().map(cell_json).collect())),
            ])
        })
        .collect();
    vec![
        (
            "sizes".to_owned(),
            Json::Arr(
                single_pass::SIZES
                    .iter()
                    .map(|&s| Json::Int(s as i64))
                    .collect(),
            ),
        ),
        (
            "assocs".to_owned(),
            Json::Arr(
                single_pass::ASSOCS
                    .iter()
                    .map(|&a| Json::Int(a as i64))
                    .collect(),
            ),
        ),
        ("rows".to_owned(), Json::Arr(rows)),
    ]
}

fn stream_json(s: &stream_sweep::StreamSweep) -> Vec<(String, Json)> {
    let benchmarks = s
        .benchmarks
        .iter()
        .map(|b| {
            Json::obj([
                ("benchmark", Json::str(b.benchmark.name())),
                ("instr_pct_removed", float_arr(&b.instr)),
                ("data_pct_removed", float_arr(&b.data)),
            ])
        })
        .collect();
    vec![
        ("ways".to_owned(), Json::Int(s.ways as i64)),
        (
            "run_lengths".to_owned(),
            Json::Arr(s.run_lengths.iter().map(|&r| Json::Int(r as i64)).collect()),
        ),
        ("benchmarks".to_owned(), Json::Arr(benchmarks)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_sweep_is_none() {
        let cfg = sweep_config(10_000, 42).unwrap();
        assert!(run_named("fig_9_9", &cfg).is_none());
    }

    #[test]
    fn sweep_config_validates_scale() {
        assert!(sweep_config(0, 42).is_err());
        assert!(sweep_config(MAX_SWEEP_SCALE + 1, 42).is_err());
        assert_eq!(
            sweep_config(5_000, 7).unwrap(),
            ExperimentConfig {
                scale: Scale::new(5_000),
                seed: 7
            }
        );
    }

    #[test]
    fn fig_3_1_encoding_is_deterministic_and_complete() {
        let cfg = sweep_config(10_000, 42).unwrap();
        let a = run_named("fig_3_1", &cfg).unwrap();
        let b = run_named("fig_3_1", &cfg).unwrap();
        assert_eq!(a.encode(), b.encode());
        assert_eq!(a.get("sweep").unwrap(), &Json::str("fig_3_1"));
        assert_eq!(a.get("rows").unwrap().as_arr().unwrap().len(), 6);
        assert!(a.get("avg_data_conflict_pct").unwrap().as_f64().unwrap() > 0.0);
        // The document survives a JSON round-trip.
        assert_eq!(Json::parse(&a.encode()).unwrap(), a);
    }

    #[test]
    fn conflict_and_stream_sweeps_encode() {
        let cfg = sweep_config(5_000, 42).unwrap();
        let v = run_named("victim_cache_4", &cfg).unwrap();
        assert_eq!(v.get("mechanism").unwrap(), &Json::str("victim_cache"));
        assert_eq!(v.get("entries").unwrap().as_arr().unwrap().len(), 4);
        let s = run_named("stream_single_8", &cfg).unwrap();
        assert_eq!(s.get("ways").unwrap().as_i64(), Some(1));
        assert_eq!(s.get("run_lengths").unwrap().as_arr().unwrap().len(), 9);
    }

    #[test]
    fn every_sweep_reports_its_default_engine() {
        let cfg = sweep_config(2_000, 42).unwrap();
        for name in NAMED_SWEEPS {
            let engines = engines_for(name);
            assert_eq!(engines.len(), 1, "{name}: one engine per sweep");
            let doc = run_named(name, &cfg).unwrap();
            assert_eq!(doc.get("engine").unwrap(), &Json::str(engines[0]), "{name}");
        }
        assert_eq!(engines_for("fig_3_1"), ["classify"]);
        assert_eq!(engines_for("geometry_grid"), ["single_pass"]);
        assert_eq!(engines_for("victim_cache_4"), ["miss_log"]);
    }

    #[test]
    fn geometry_grid_engines_agree_and_encode() {
        // The served single-pass grid equals the per-cell oracle's.
        let cfg = sweep_config(5_000, 42).unwrap();
        let fast = run_named("geometry_grid", &cfg).unwrap();
        let oracle = Json::Obj(geometry_json(&single_pass::run_per_cell(&cfg)));
        assert_eq!(fast.get("engine").unwrap(), &Json::str("single_pass"));
        assert_eq!(fast.get("rows"), oracle.get("rows"));
        assert_eq!(fast.get("rows").unwrap().as_arr().unwrap().len(), 6);
        assert_eq!(fast.get("sizes").unwrap().as_arr().unwrap().len(), 8);
        // The round trip survives.
        assert_eq!(Json::parse(&fast.encode()).unwrap(), fast);
    }

    #[test]
    fn fig_3_1_engines_agree() {
        // The served tag-array classification equals the stack-depth
        // oracle's rows.
        let cfg = sweep_config(5_000, 42).unwrap();
        let classify = run_named("fig_3_1", &cfg).unwrap();
        let oracle = Json::Obj(fig31_json(&fig_3_1::run_single_pass(&cfg)));
        assert_eq!(classify.get("engine").unwrap(), &Json::str("classify"));
        assert_eq!(classify.get("rows"), oracle.get("rows"));
    }
}
