//! Validates benchmark report files against the shared JSON model.
//!
//! Usage: `json-check FILE... [--lint FILE...]`
//!
//! Each FILE must parse with `jouppi_serve::json` — the same model the
//! daemon serves and the report tooling consumes — and carry a
//! top-level `"benchmark"` string plus at least one non-empty array of
//! result rows (`"results"` for sweep-bench, `"latency"` for loadgen).
//! An empty row array means the bench trajectory silently recorded
//! nothing, so it fails. A loadgen report must additionally carry the
//! Zipf result-cache fields (hit/miss/coalesce counters, hit rate, and
//! the cache-on vs cache-off speedup).
//!
//! Files after `--lint` are instead validated as `jouppi-lint --json`
//! version-3 reports: tool/version identification, a findings array
//! consistent with the `clean` flag, and the `callgraph` section with
//! all four size counters (a workspace scan always builds a non-empty
//! graph). Exits nonzero naming every file that fails.

#![warn(clippy::cast_possible_truncation)]

use std::process::ExitCode;

use jouppi_serve::json::Json;

fn check(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read failed: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("not valid JSON: {e}"))?;
    let benchmark = doc
        .get("benchmark")
        .and_then(Json::as_str)
        .ok_or("missing top-level \"benchmark\" string")?
        .to_owned();
    let Json::Obj(fields) = &doc else {
        return Err("top level is not an object".to_owned());
    };
    let rows: usize = fields
        .iter()
        .filter_map(|(_, v)| v.as_arr().map(<[Json]>::len))
        .sum();
    if rows == 0 {
        return Err("no result rows — the bench trajectory must never be empty".to_owned());
    }
    if benchmark == "loadgen" {
        check_zipf(&doc)?;
    }
    Ok(format!("benchmark \"{benchmark}\", {rows} result rows"))
}

/// Validates the result-cache fields a loadgen report must carry.
fn check_zipf(doc: &Json) -> Result<(), String> {
    let zipf = doc
        .get("zipf")
        .ok_or("loadgen report is missing the \"zipf\" object")?;
    for field in ["hits", "misses", "coalesced", "requests"] {
        zipf.get(field)
            .and_then(Json::as_i64)
            .ok_or(format!("\"zipf\" is missing integer field \"{field}\""))?;
    }
    for field in ["hit_rate", "coalesce_rate", "speedup", "skew"] {
        zipf.get(field)
            .and_then(Json::as_f64)
            .ok_or(format!("\"zipf\" is missing numeric field \"{field}\""))?;
    }
    let requests = zipf.get("requests").and_then(Json::as_i64).unwrap_or(0);
    let accounted = ["hits", "misses", "coalesced"]
        .iter()
        .filter_map(|f| zipf.get(f).and_then(Json::as_i64))
        .sum::<i64>();
    if accounted != requests {
        return Err(format!(
            "zipf counters do not account for the request stream: \
             hits+misses+coalesced = {accounted}, requests = {requests}"
        ));
    }
    Ok(())
}

/// Validates a `jouppi-lint --json` version-3 report.
fn check_lint(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read failed: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("not valid JSON: {e}"))?;
    match doc.get("tool").and_then(Json::as_str) {
        Some("jouppi-lint") => {}
        other => return Err(format!("\"tool\" is {other:?}, expected \"jouppi-lint\"")),
    }
    match doc.get("version").and_then(Json::as_i64) {
        Some(3) => {}
        other => return Err(format!("\"version\" is {other:?}, expected 3")),
    }
    let scanned = doc
        .get("files_scanned")
        .and_then(Json::as_i64)
        .ok_or("missing integer \"files_scanned\"")?;
    if scanned == 0 {
        return Err("\"files_scanned\" is 0 — the scan saw nothing".to_owned());
    }
    let findings = doc
        .get("findings")
        .and_then(Json::as_arr)
        .ok_or("missing \"findings\" array")?;
    let clean = doc
        .get("clean")
        .and_then(|c| match c {
            Json::Bool(b) => Some(*b),
            _ => None,
        })
        .ok_or("missing boolean \"clean\"")?;
    if clean != findings.is_empty() {
        return Err(format!(
            "\"clean\" is {clean} but the report carries {} findings",
            findings.len()
        ));
    }
    let graph = doc
        .get("callgraph")
        .ok_or("missing \"callgraph\" object — required in version 3")?;
    let mut nodes = 0i64;
    for field in [
        "nodes",
        "resolved_edges",
        "ambiguous_edges",
        "external_calls",
    ] {
        let n = graph.get(field).and_then(Json::as_i64).ok_or(format!(
            "\"callgraph\" is missing integer field \"{field}\""
        ))?;
        if field == "nodes" {
            nodes = n;
        }
    }
    if nodes == 0 {
        return Err(
            "\"callgraph\".\"nodes\" is 0 — a workspace scan always sees functions".to_owned(),
        );
    }
    Ok(format!(
        "lint report v3, {scanned} files scanned, {} findings, {nodes} graph nodes",
        findings.len()
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: json-check FILE... [--lint FILE...]");
        return ExitCode::FAILURE;
    }
    let mut failures = 0usize;
    let mut lint_mode = false;
    for arg in &args {
        if arg == "--lint" {
            lint_mode = true;
            continue;
        }
        let path = arg;
        let verdict = if lint_mode {
            check_lint(path)
        } else {
            check(path)
        };
        match verdict {
            Ok(summary) => eprintln!("ok   {path}: {summary}"),
            Err(why) => {
                eprintln!("FAIL {path}: {why}");
                failures += 1;
            }
        }
    }
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
