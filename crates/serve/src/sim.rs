//! `POST /v1/simulate`: one cache organization over one workload.
//!
//! Decodes a JSON request body into a cache configuration, streams the
//! named synthetic benchmark's generator through it synchronously
//! (these are cheap at service scales — the scale cap keeps them so),
//! and returns the miss/removal statistics. The trace is never
//! recorded: each reference goes from the generator straight into the
//! cache. All validation failures are `Err(String)`
//! (surfaced as HTTP 400), never panics.
//!
//! Request shape (everything but `workload` optional):
//!
//! ```json
//! {
//!   "workload": "ccom", "scale": 100000, "seed": 42,
//!   "cache": {"size": 4096, "line": 16, "assoc": 1},
//!   "victim": 4, "miss_cache": 0,
//!   "stream": {"ways": 4, "depth": 4}, "stride_detect": 0,
//!   "side": "d", "classify": true
//! }
//! ```

use jouppi_cache::{CacheGeometry, MissClassifier};
use jouppi_core::{AugmentedCache, AugmentedConfig, StreamBufferConfig};
use jouppi_experiments::common::note_refs_simulated;
use jouppi_trace::TraceSource;
use jouppi_workloads::{Benchmark, Scale};

use crate::json::Json;

/// Hard cap on `scale` (instructions) for a synchronous simulate call.
pub const MAX_SIMULATE_SCALE: u64 = 2_000_000;

/// Hard cap on request-chosen buffer entry counts (`victim`,
/// `miss_cache`, `stream.ways`, `stream.depth`). The paper's
/// fully-associative buffers top out at 16 entries; 1024 leaves
/// headroom for design-space exploration while keeping an
/// attacker-chosen count from sizing an allocation.
pub const MAX_BUFFER_ENTRIES: usize = 1024;

/// Default `scale` when the request omits it.
pub const DEFAULT_SIMULATE_SCALE: u64 = 100_000;

pub(crate) fn get_u64(body: &Json, key: &str, default: u64) -> Result<u64, String> {
    match body.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_i64()
            .filter(|&n| n >= 0)
            .map(|n| n as u64)
            .ok_or_else(|| format!("'{key}' must be a non-negative integer")),
    }
}

fn get_usize(body: &Json, key: &str, default: usize) -> Result<usize, String> {
    let n = get_u64(body, key, default as u64)?;
    usize::try_from(n).map_err(|_| format!("'{key}' does not fit in usize"))
}

/// Parses the request body into `(config, workload, scale, seed, side,
/// classify)`, then streams the workload through the cache and encodes
/// the stats.
///
/// # Errors
///
/// A human-readable validation message (the router maps it to 400).
pub fn simulate(body: &Json) -> Result<Json, String> {
    if !matches!(body, Json::Obj(_)) {
        return Err("request body must be a JSON object".to_owned());
    }
    let workload = body
        .get("workload")
        .and_then(Json::as_str)
        .ok_or("'workload' is required (ccom, grr, yacc, met, linpack, liver)")?;
    let bench =
        Benchmark::from_name(workload).ok_or_else(|| format!("unknown workload '{workload}'"))?;
    let scale = get_u64(body, "scale", DEFAULT_SIMULATE_SCALE)?;
    if scale == 0 || scale > MAX_SIMULATE_SCALE {
        return Err(format!("'scale' must be in 1..={MAX_SIMULATE_SCALE}"));
    }
    let seed = get_u64(body, "seed", 42)?;

    let geometry = match body.get("cache") {
        None => {
            CacheGeometry::direct_mapped(4096, 16).map_err(|e| format!("default geometry: {e}"))?
        }
        Some(spec) => {
            let size = get_u64(spec, "size", 4096)?;
            let line = get_u64(spec, "line", 16)?;
            let assoc = get_u64(spec, "assoc", 1)?;
            CacheGeometry::new(size, line, assoc).map_err(|e| format!("'cache': {e}"))?
        }
    };

    let victim = get_usize(body, "victim", 0)?;
    let miss_cache = get_usize(body, "miss_cache", 0)?;
    if victim > MAX_BUFFER_ENTRIES || miss_cache > MAX_BUFFER_ENTRIES {
        return Err(format!(
            "'victim' and 'miss_cache' must be at most {MAX_BUFFER_ENTRIES} entries"
        ));
    }
    if victim > 0 && miss_cache > 0 {
        return Err("'victim' and 'miss_cache' are mutually exclusive".to_owned());
    }
    let stride_detect = get_u64(body, "stride_detect", 0)? as i64;

    let mut cfg = AugmentedConfig::new(geometry);
    if victim > 0 {
        cfg = cfg.victim_cache(victim);
    }
    if miss_cache > 0 {
        cfg = cfg.miss_cache(miss_cache);
    }
    if let Some(stream) = body.get("stream") {
        let ways = get_usize(stream, "ways", 1)?;
        let depth = get_usize(stream, "depth", 4)?;
        if ways == 0 || depth == 0 {
            return Err("'stream.ways' and 'stream.depth' must be nonzero".to_owned());
        }
        if ways > MAX_BUFFER_ENTRIES || depth > MAX_BUFFER_ENTRIES {
            return Err(format!(
                "'stream.ways' and 'stream.depth' must be at most {MAX_BUFFER_ENTRIES}"
            ));
        }
        let sb = StreamBufferConfig::new(depth);
        cfg = if stride_detect > 0 {
            cfg.strided_stream_buffer(ways, sb, stride_detect)
        } else {
            cfg.multi_way_stream_buffer(ways, sb)
        };
    }

    let side = match body.get("side").map(|v| v.as_str()) {
        None => "d",
        Some(Some(s)) if matches!(s, "i" | "d" | "all") => s,
        _ => return Err("'side' must be \"i\", \"d\", or \"all\"".to_owned()),
    };
    let classify = match body.get("classify") {
        None => false,
        Some(v) => v.as_bool().ok_or("'classify' must be a boolean")?,
    };

    let source = bench.source(Scale::new(scale), seed);
    let mut cache = AugmentedCache::new(cfg);
    let mut classifier = classify.then(|| MissClassifier::new(geometry));
    let mut replayed = 0u64;
    for r in source.refs() {
        let wanted = match side {
            "i" => r.kind.is_instr(),
            "d" => r.kind.is_data(),
            _ => true,
        };
        if !wanted {
            continue;
        }
        replayed += 1;
        let outcome = cache.access(r.addr);
        if let Some(cls) = classifier.as_mut() {
            cls.observe(geometry.line_of(r.addr), !outcome.is_l1_hit());
        }
    }
    note_refs_simulated(replayed);

    let s = cache.stats();
    let mut out = vec![
        ("workload".to_owned(), Json::str(bench.name())),
        ("scale".to_owned(), Json::Int(scale as i64)),
        ("seed".to_owned(), Json::Int(seed as i64)),
        ("geometry".to_owned(), Json::str(geometry.to_string())),
        ("side".to_owned(), Json::str(side)),
        ("accesses".to_owned(), Json::Int(s.accesses as i64)),
        ("l1_hits".to_owned(), Json::Int(s.l1_hits as i64)),
        ("l1_misses".to_owned(), Json::Int(s.l1_misses() as i64)),
        ("victim_hits".to_owned(), Json::Int(s.victim_hits as i64)),
        (
            "miss_cache_hits".to_owned(),
            Json::Int(s.miss_cache_hits as i64),
        ),
        ("stream_hits".to_owned(), Json::Int(s.stream_hits as i64)),
        ("full_misses".to_owned(), Json::Int(s.full_misses as i64)),
        ("l1_miss_rate".to_owned(), Json::Float(s.l1_miss_rate())),
        (
            "demand_miss_rate".to_owned(),
            Json::Float(s.demand_miss_rate()),
        ),
        (
            "removed_pct".to_owned(),
            Json::Float(100.0 * s.removed_fraction()),
        ),
    ];
    if let Some(cls) = classifier {
        let b = cls.breakdown();
        out.push((
            "classification".to_owned(),
            Json::obj([
                ("compulsory", Json::Int(b.compulsory as i64)),
                ("capacity", Json::Int(b.capacity as i64)),
                ("conflict", Json::Int(b.conflict as i64)),
            ]),
        ));
    }
    Ok(Json::Obj(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use jouppi_cache::MissBreakdown;
    use jouppi_core::AugmentedStats;
    use jouppi_trace::RecordedTrace;

    fn req(text: &str) -> Result<Json, String> {
        simulate(&Json::parse(text).expect("test request is valid JSON"))
    }

    /// The oracle: record the whole trace first, then replay the
    /// requested side through the cache and classifier. Streaming the
    /// generator must give exactly the same counts.
    fn recorded_replay(
        bench: Benchmark,
        cfg: AugmentedConfig,
        side: &str,
    ) -> (AugmentedStats, MissBreakdown) {
        let geometry = *cfg.geometry();
        let trace = RecordedTrace::record(&bench.source(Scale::new(5_000), 42));
        let mut cache = AugmentedCache::new(cfg);
        let mut classifier = MissClassifier::new(geometry);
        for r in trace.refs() {
            let wanted = match side {
                "i" => r.kind.is_instr(),
                "d" => r.kind.is_data(),
                _ => true,
            };
            if !wanted {
                continue;
            }
            let outcome = cache.access(r.addr);
            classifier.observe(geometry.line_of(r.addr), !outcome.is_l1_hit());
        }
        (*cache.stats(), classifier.breakdown())
    }

    #[test]
    fn streamed_simulate_matches_the_recorded_replay() {
        let geometry = CacheGeometry::direct_mapped(4096, 16).unwrap();
        let aids = [
            (
                r#""victim":4"#,
                AugmentedConfig::new(geometry).victim_cache(4),
            ),
            (
                r#""miss_cache":2"#,
                AugmentedConfig::new(geometry).miss_cache(2),
            ),
            (
                r#""stream":{"ways":4,"depth":4}"#,
                AugmentedConfig::new(geometry)
                    .multi_way_stream_buffer(4, StreamBufferConfig::new(4)),
            ),
        ];
        for bench in Benchmark::ALL {
            for side in ["i", "d", "all"] {
                for (aid, cfg) in aids {
                    let body = format!(
                        r#"{{"workload":"{}","scale":5000,"side":"{side}","classify":true,{aid}}}"#,
                        bench.name()
                    );
                    let out = req(&body).unwrap();
                    let (s, b) = recorded_replay(bench, cfg, side);
                    for (field, want) in [
                        ("accesses", s.accesses),
                        ("l1_hits", s.l1_hits),
                        ("victim_hits", s.victim_hits),
                        ("miss_cache_hits", s.miss_cache_hits),
                        ("stream_hits", s.stream_hits),
                        ("full_misses", s.full_misses),
                    ] {
                        assert_eq!(
                            out.get(field),
                            Some(&Json::Int(want as i64)),
                            "{body}: {field}"
                        );
                    }
                    let classes = Json::obj([
                        ("compulsory", Json::Int(b.compulsory as i64)),
                        ("capacity", Json::Int(b.capacity as i64)),
                        ("conflict", Json::Int(b.conflict as i64)),
                    ]);
                    assert_eq!(out.get("classification"), Some(&classes), "{body}");
                }
            }
        }
    }

    #[test]
    fn minimal_request_simulates() {
        let out = req(r#"{"workload":"ccom","scale":5000}"#).unwrap();
        assert_eq!(out.get("workload").unwrap(), &Json::str("ccom"));
        assert!(out.get("accesses").unwrap().as_i64().unwrap() > 0);
        let rate = out.get("l1_miss_rate").unwrap().as_f64().unwrap();
        assert!((0.0..=1.0).contains(&rate));
    }

    #[test]
    fn victim_cache_removes_misses() {
        let out = req(r#"{"workload":"met","scale":20000,"victim":4,"classify":true}"#).unwrap();
        assert!(out.get("victim_hits").unwrap().as_i64().unwrap() > 0);
        let cls = out.get("classification").unwrap();
        assert!(cls.get("conflict").unwrap().as_i64().unwrap() > 0);
    }

    #[test]
    fn stream_request_parses() {
        let out =
            req(r#"{"workload":"liver","scale":10000,"stream":{"ways":4,"depth":4},"side":"all"}"#)
                .unwrap();
        assert!(out.get("stream_hits").unwrap().as_i64().unwrap() > 0);
    }

    #[test]
    fn validation_errors_are_clean() {
        for (body, needle) in [
            (r#"[1,2]"#, "object"),
            (r#"{}"#, "'workload'"),
            (r#"{"workload":"doom"}"#, "unknown workload"),
            (r#"{"workload":"ccom","scale":0}"#, "'scale'"),
            (r#"{"workload":"ccom","scale":999999999}"#, "'scale'"),
            (r#"{"workload":"ccom","scale":-3}"#, "'scale'"),
            (
                r#"{"workload":"ccom","cache":{"size":4096,"line":17,"assoc":1}}"#,
                "'cache'",
            ),
            (
                r#"{"workload":"ccom","victim":2,"miss_cache":2}"#,
                "mutually exclusive",
            ),
            (r#"{"workload":"ccom","victim":1000000000}"#, "at most"),
            (r#"{"workload":"ccom","miss_cache":99999}"#, "at most"),
            (
                r#"{"workload":"ccom","stream":{"ways":0,"depth":4}}"#,
                "nonzero",
            ),
            (
                r#"{"workload":"ccom","stream":{"ways":4,"depth":1000000000}}"#,
                "at most",
            ),
            (
                r#"{"workload":"ccom","stream":{"ways":1000000000,"depth":4}}"#,
                "at most",
            ),
            (r#"{"workload":"ccom","side":"x"}"#, "'side'"),
            (r#"{"workload":"ccom","classify":3}"#, "'classify'"),
        ] {
            let err = req(body).unwrap_err();
            assert!(err.contains(needle), "{body}: {err}");
        }
    }
}
