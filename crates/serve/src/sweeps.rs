//! Named paper sweeps for `POST /v1/sweep`.
//!
//! Each name maps to one of `jouppi_experiments`' figure sweeps, run at
//! the requested scale/seed and encoded as a deterministic [`Json`]
//! document. The encoding lives here — not in the HTTP layer — so the
//! integration test can run the same sweep in-process and require the
//! served bytes to match **bit-for-bit**.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

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

/// The execution engines a named sweep accepts (first = default).
///
/// Pure size × associativity sweeps route to the single-pass Mattson
/// engine; sweeps whose cells augment the L1 (miss caches, victim
/// caches, stream buffers) run filter-then-fan-out: one L1 pass per
/// (benchmark, side), every configuration answered from its miss log.
pub fn engines_for(name: &str) -> &'static [&'static str] {
    match name {
        "fig_3_1" => &["classify", "single_pass"],
        "geometry_grid" => &["single_pass", "per_cell"],
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

/// Runs the named sweep on its default engine. See [`run_named_engine`].
pub fn run_named(name: &str, cfg: &ExperimentConfig) -> Option<Json> {
    run_named_engine(name, cfg, engines_for(name).first()?)
}

/// Runs the named sweep on the given engine and encodes its result;
/// `None` for an unknown name or an engine the sweep does not accept
/// (the router 400s with the [`NAMED_SWEEPS`] / [`engines_for`]
/// catalogs).
pub fn run_named_engine(name: &str, cfg: &ExperimentConfig, engine: &str) -> Option<Json> {
    let refs_before = refs_simulated() + single_pass_refs();
    let start = Instant::now(); // jouppi-lint: allow(transitive-purity) — wall-clock feeds only the refs/sec throughput gauge below; the result document never includes it
    let body = match (name, engine) {
        ("fig_3_1", "classify") => fig31_json(&fig_3_1::run(cfg)),
        ("fig_3_1", "single_pass") => fig31_json(&fig_3_1::run_single_pass(cfg)),
        ("miss_cache_4", "miss_log") => conflict_json(&conflict_sweep::run(
            cfg,
            conflict_sweep::Mechanism::MissCache,
            4,
        )),
        ("victim_cache_4", "miss_log") => conflict_json(&conflict_sweep::run(
            cfg,
            conflict_sweep::Mechanism::VictimCache,
            4,
        )),
        ("stream_single_8", "miss_log") => stream_json(&stream_sweep::run(cfg, 1, 8)),
        ("stream_four_8", "miss_log") => stream_json(&stream_sweep::run(cfg, 4, 8)),
        ("geometry_grid", "single_pass") => geometry_json(&single_pass::run(cfg)),
        ("geometry_grid", "per_cell") => geometry_json(&single_pass::run_per_cell(cfg)),
        _ => return None,
    };
    let seconds = start.elapsed().as_secs_f64();
    // Both engine families feed the throughput gauge: per-cell replays
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
        ("engine".to_owned(), Json::str(engine)),
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
        for name in NAMED_SWEEPS {
            let default = engines_for(name)[0];
            assert!(
                ["classify", "single_pass", "miss_log", "per_cell"].contains(&default),
                "{name}: unexpected default {default}"
            );
        }
        let cfg = sweep_config(5_000, 42).unwrap();
        let v = run_named("victim_cache_4", &cfg).unwrap();
        assert_eq!(v.get("engine").unwrap(), &Json::str("miss_log"));
    }

    #[test]
    fn geometry_grid_engines_agree_and_encode() {
        let cfg = sweep_config(5_000, 42).unwrap();
        let fast = run_named_engine("geometry_grid", &cfg, "single_pass").unwrap();
        let oracle = run_named_engine("geometry_grid", &cfg, "per_cell").unwrap();
        assert_eq!(fast.get("engine").unwrap(), &Json::str("single_pass"));
        assert_eq!(oracle.get("engine").unwrap(), &Json::str("per_cell"));
        // Identical payload modulo the engine tag.
        assert_eq!(fast.get("rows"), oracle.get("rows"));
        assert_eq!(fast.get("rows").unwrap().as_arr().unwrap().len(), 6);
        assert_eq!(fast.get("sizes").unwrap().as_arr().unwrap().len(), 8);
        // Default engine is the single-pass one.
        assert_eq!(
            run_named("geometry_grid", &cfg).unwrap().encode(),
            fast.encode()
        );
        // The round trip survives.
        assert_eq!(Json::parse(&fast.encode()).unwrap(), fast);
    }

    #[test]
    fn fig_3_1_engines_agree() {
        let cfg = sweep_config(5_000, 42).unwrap();
        let classify = run_named_engine("fig_3_1", &cfg, "classify").unwrap();
        let single = run_named_engine("fig_3_1", &cfg, "single_pass").unwrap();
        assert_eq!(classify.get("rows"), single.get("rows"));
        // Engines a sweep does not accept are rejected.
        assert!(run_named_engine("fig_3_1", &cfg, "miss_log").is_none());
        assert!(run_named_engine("victim_cache_4", &cfg, "single_pass").is_none());
    }
}
