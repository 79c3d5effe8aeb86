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

use jouppi_cache::{CacheGeometry, MissBreakdown, MissClassifier};
use jouppi_core::{AugmentedCache, AugmentedConfig, AugmentedStats, StreamBufferConfig};
use jouppi_experiments::common::note_refs_simulated;
use jouppi_trace::{AccessKind, MemRef};
use jouppi_workloads::{Benchmark, Scale};

use crate::json::Json;

/// Hard cap on `scale` (instructions) for a synchronous simulate call.
pub const MAX_SIMULATE_SCALE: u64 = 2_000_000;

/// Hard cap on request-chosen buffer entry counts (`victim`,
/// `miss_cache`, `stream.ways`, `stream.depth`) and on a cache's
/// associativity. The paper's fully-associative buffers top out at 16
/// entries; 1024 leaves headroom for design-space exploration while
/// keeping an attacker-chosen count from sizing an allocation. A probe
/// scans every way of a set, so the same cap bounds the per-reference
/// work of the cache and of each buffer.
pub const MAX_BUFFER_ENTRIES: usize = 1024;

/// Hard cap on a cache's line count (`size / line`), which sizes the
/// cache's tag array and the classifier's shadow. The paper's largest
/// geometries, its 128KB/16B L1 and 1MB/128B L2, hold 8,192 lines; the
/// cap is 8× that.
pub const MAX_CACHE_LINES: u64 = 1 << 16;

/// Checks an organization against [`MAX_CACHE_LINES`] and
/// [`MAX_BUFFER_ENTRIES`] (its buffers' entries and its cache's ways)
/// before anything is allocated for it. This endpoint and the
/// `jouppi-sim` command line both validate with it; `buffers` pairs
/// each entry count with the name its front end gives it.
///
/// # Errors
///
/// A message naming the first bound exceeded.
pub fn check_bounds(geometry: &CacheGeometry, buffers: &[(&str, usize)]) -> Result<(), String> {
    if geometry.num_lines() > MAX_CACHE_LINES {
        return Err(format!(
            "the cache ({geometry}) holds {} lines; at most {MAX_CACHE_LINES} are allowed",
            geometry.num_lines()
        ));
    }
    if geometry.associativity() > MAX_BUFFER_ENTRIES as u64 {
        return Err(format!(
            "the cache ({geometry}) has {} ways; at most {MAX_BUFFER_ENTRIES} are allowed",
            geometry.associativity()
        ));
    }
    match buffers.iter().find(|&&(_, n)| n > MAX_BUFFER_ENTRIES) {
        Some((name, _)) => Err(format!("{name} must be at most {MAX_BUFFER_ENTRIES}")),
        None => Ok(()),
    }
}

/// Default `scale` when the request omits it.
pub const DEFAULT_SIMULATE_SCALE: u64 = 100_000;

/// Which references a simulated cache sees.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SideFilter {
    /// Instruction fetches only.
    Instruction,
    /// Loads and stores only (the default — most experiments are
    /// data-side).
    #[default]
    Data,
    /// Every reference through the one cache (a unified cache).
    All,
}

impl SideFilter {
    /// Parses the name both front ends use: `i`, `d` or `all`.
    pub fn from_name(name: &str) -> Option<SideFilter> {
        match name {
            "i" => Some(SideFilter::Instruction),
            "d" => Some(SideFilter::Data),
            "all" => Some(SideFilter::All),
            _ => None,
        }
    }

    /// The name [`SideFilter::from_name`] parses.
    pub fn name(self) -> &'static str {
        match self {
            SideFilter::Instruction => "i",
            SideFilter::Data => "d",
            SideFilter::All => "all",
        }
    }

    /// Whether a reference of this kind reaches the cache.
    pub fn sees(self, kind: AccessKind) -> bool {
        match self {
            SideFilter::Instruction => kind.is_instr(),
            SideFilter::Data => kind.is_data(),
            SideFilter::All => true,
        }
    }
}

/// The augmented-cache configuration of an organization: `victim` and
/// `miss_cache` entries (0 = none), and `stream` buffers as `(ways,
/// depth)`, sequential unless `stride_detect` (the largest detectable
/// stride, in lines) is positive. Both front ends build with it.
pub fn build_config(
    geometry: CacheGeometry,
    victim: usize,
    miss_cache: usize,
    stream: Option<(usize, usize)>,
    stride_detect: i64,
) -> AugmentedConfig {
    let mut cfg = AugmentedConfig::new(geometry);
    if victim > 0 {
        cfg = cfg.victim_cache(victim);
    }
    if miss_cache > 0 {
        cfg = cfg.miss_cache(miss_cache);
    }
    if let Some((ways, depth)) = stream {
        let sb = StreamBufferConfig::new(depth);
        cfg = if stride_detect > 0 {
            cfg.strided_stream_buffer(ways, sb, stride_detect)
        } else {
            cfg.multi_way_stream_buffer(ways, sb)
        };
    }
    cfg
}

/// Replays the references `side` sees through an augmented cache built
/// from `cfg`, with the three-C classifier riding along when `classify`
/// is set. Both front ends replay with it: this endpoint streams a
/// generator, `jouppi-sim` a recorded or loaded trace. It drives `refs`
/// with `for_each`, so a concrete generator runs its own loop.
pub fn replay(
    refs: impl IntoIterator<Item = MemRef>,
    side: SideFilter,
    cfg: AugmentedConfig,
    classify: bool,
) -> (AugmentedStats, Option<MissBreakdown>) {
    let geometry = *cfg.geometry();
    let mut cache = AugmentedCache::new(cfg);
    let mut classifier = classify.then(|| MissClassifier::new(geometry));
    refs.into_iter().for_each(|r| {
        if !side.sees(r.kind) {
            return;
        }
        let outcome = cache.access(r.addr);
        if let Some(cls) = classifier.as_mut() {
            cls.observe(geometry.line_of(r.addr), !outcome.is_l1_hit());
        }
    });
    (*cache.stats(), classifier.map(|cls| cls.breakdown()))
}

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
    let stream = match body.get("stream") {
        None => None,
        Some(stream) => {
            let ways = get_usize(stream, "ways", 1)?;
            let depth = get_usize(stream, "depth", 4)?;
            if ways == 0 || depth == 0 {
                return Err("'stream.ways' and 'stream.depth' must be nonzero".to_owned());
            }
            Some((ways, depth))
        }
    };
    let (ways, depth) = stream.unwrap_or_default();
    check_bounds(
        &geometry,
        &[
            ("'victim'", victim),
            ("'miss_cache'", miss_cache),
            ("'stream.ways'", ways),
            ("'stream.depth'", depth),
        ],
    )?;
    if victim > 0 && miss_cache > 0 {
        return Err("'victim' and 'miss_cache' are mutually exclusive".to_owned());
    }
    let stride_detect = get_u64(body, "stride_detect", 0)? as i64;
    let cfg = build_config(geometry, victim, miss_cache, stream, stride_detect);

    let side = match body.get("side") {
        None => SideFilter::Data,
        Some(v) => v
            .as_str()
            .and_then(SideFilter::from_name)
            .ok_or("'side' must be \"i\", \"d\", or \"all\"")?,
    };
    let classify = match body.get("classify") {
        None => false,
        Some(v) => v.as_bool().ok_or("'classify' must be a boolean")?,
    };

    let generator = bench.source(Scale::new(scale), seed).generator();
    let (s, breakdown) = replay(generator, side, cfg, classify);
    note_refs_simulated(s.accesses);

    let mut out = vec![
        ("workload".to_owned(), Json::str(bench.name())),
        ("scale".to_owned(), Json::Int(scale as i64)),
        ("seed".to_owned(), Json::Int(seed as i64)),
        ("geometry".to_owned(), Json::str(geometry.to_string())),
        ("side".to_owned(), Json::str(side.name())),
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
    if let Some(b) = breakdown {
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
    use jouppi_trace::{RecordedTrace, TraceSource};

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
            (
                r#"{"workload":"met","scale":1000,"cache":{"size":1099511627776,"line":16,"assoc":1}}"#,
                "at most 65536 are allowed",
            ),
            (
                r#"{"workload":"met","cache":{"size":2097152,"line":16,"assoc":1}}"#,
                "131072 lines",
            ),
            // 2^16 ways fit the line bound, but every probe would scan
            // them all: about 26 s of one core at the scale cap.
            (
                r#"{"workload":"liver","scale":2000000,"cache":{"size":1048576,"line":16,"assoc":65536}}"#,
                "has 65536 ways; at most 1024 are allowed",
            ),
            (r#"{"workload":"ccom","classify":3}"#, "'classify'"),
        ] {
            let err = req(body).unwrap_err();
            assert!(err.contains(needle), "{body}: {err}");
        }
    }
}
