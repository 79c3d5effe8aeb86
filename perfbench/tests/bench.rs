//! Checks of the benchmark itself: `BENCHMARK.json` is well formed, quick
//! mode emits every declared metric with its unit, and the compare and
//! tail-percentile helpers decide as documented.

use std::process::Command;

use jouppi_perfbench::compare::{compare, parse_bench_spec, valid_name, verdict, Verdict};
use jouppi_perfbench::{tail_percentile, WORKLOADS};
use jouppi_serve::json::Json;

fn bench_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json sits beside the benchmark directory")
}

#[test]
fn benchmark_json_parses_and_names_are_valid() {
    let text = bench_json();
    let doc = Json::parse(&text).expect("BENCHMARK.json parses with jouppi_serve::json");
    let Json::Obj(pairs) = &doc else {
        panic!("BENCHMARK.json must be an object")
    };
    let mut keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    keys.sort_unstable();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    for w in doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
    {
        let why = w.get("why").and_then(Json::as_str).expect("a why");
        assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
    }
    let strings = |key: &str| -> Vec<String> {
        let list = doc.get(key).and_then(Json::as_arr).expect("a list");
        list.iter()
            .map(|s| s.as_str().expect("strings").to_owned())
            .collect()
    };
    assert_eq!(strings("paths"), ["perfbench"]);
    for arg in strings("command") {
        assert!(!arg.starts_with('/') && !arg.contains(".."), "{arg}");
    }
    let spec = parse_bench_spec(&text).expect("valid spec");
    assert_eq!(spec.workloads, WORKLOADS);
    let mut names: Vec<&str> = spec
        .workloads
        .iter()
        .chain(spec.end_to_end.iter().map(|m| &m.name))
        .chain(spec.per_layer.iter().map(|m| &m.name))
        .map(String::as_str)
        .collect();
    assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "every name is used once");
    let setup = spec.end_to_end.iter().find(|m| m.name == "setup_s");
    let setup = setup.expect("setup_s is an end-to-end metric");
    assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
    for m in &spec.end_to_end {
        let bound = m.bound.expect("end-to-end metrics have bounds");
        assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
        assert!(
            bound <= setup.bound.unwrap(),
            "setup_s has the largest bound"
        );
    }
}

/// Runs one workload in quick mode and returns its result line.
fn quick(workload: &str, trace: &str) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_jouppi-bench"))
        .args(["--workload", workload, "--quick", "--seconds", "0.5"])
        .args(["--trace", trace, "--seed", "7"])
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
        .output()
        .expect("run jouppi-bench");
    assert!(out.status.success(), "{workload}: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).expect("the last line is JSON")
}

#[test]
fn quick_mode_emits_every_declared_metric_with_its_unit() {
    let spec = parse_bench_spec(&bench_json()).expect("valid spec");
    for workload in WORKLOADS {
        for (trace, declared) in [("0", &spec.end_to_end), ("1", &spec.per_layer)] {
            let result = quick(workload, trace);
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}");
            assert_eq!(result.get("failed").and_then(Json::as_i64), Some(0));
            assert!(result.get("attempted").and_then(Json::as_i64) >= Some(1));
            let Some(Json::Obj(metrics)) = result.get("metrics") else {
                panic!("{workload}: no metrics object")
            };
            assert_eq!(metrics.len(), declared.len(), "{workload} --trace {trace}");
            for m in declared.iter() {
                let got = result.get("metrics").and_then(|ms| ms.get(&m.name));
                let got = got.unwrap_or_else(|| panic!("{workload}: missing {}", m.name));
                assert_eq!(
                    got.get("unit").and_then(Json::as_str),
                    Some(m.unit.as_str())
                );
                let value = got
                    .get("value")
                    .and_then(Json::as_f64)
                    .expect("numeric value");
                assert!(value.is_finite(), "{workload}: {} = {value}", m.name);
            }
        }
    }
}

#[test]
fn compare_verdicts() {
    let a = [100.0, 101.0, 99.0, 100.5, 99.5];
    // Lower is better: 20% slower is worse, 20% faster is better.
    assert_eq!(verdict(&a, &a.map(|x| x * 1.2), 0.1, false), Verdict::Worse);
    assert_eq!(
        verdict(&a, &a.map(|x| x * 0.8), 0.1, false),
        Verdict::Better
    );
    assert_eq!(verdict(&a, &a.map(|x| x * 1.05), 0.1, false), Verdict::Same);
    // Higher is better flips the direction.
    assert_eq!(verdict(&a, &a.map(|x| x * 0.8), 0.1, true), Verdict::Worse);
    // A spread wider than the bound cannot be resolved...
    let noisy = [60.0, 140.0, 100.0, 80.0, 120.0];
    assert_eq!(verdict(&a, &noisy, 0.1, false), Verdict::Unresolved);
    // ...unless every run of B beats every run of A.
    let fast_noisy = [10.0, 30.0, 20.0, 15.0, 25.0];
    assert_eq!(verdict(&a, &fast_noisy, 0.1, false), Verdict::Better);

    let file = |values: &[f64]| {
        let runs = values
            .iter()
            .map(|&v| {
                Json::obj([
                    ("workload", Json::str("sweep_l1")),
                    (
                        "result",
                        Json::obj([(
                            "metrics",
                            Json::obj([(
                                "cpu_ms",
                                Json::obj([("value", Json::Float(v)), ("unit", Json::str("ms"))]),
                            )]),
                        )]),
                    ),
                ])
            })
            .collect();
        Json::obj([("runs", Json::Arr(runs))])
    };
    let spec = parse_bench_spec(&bench_json()).expect("valid spec");
    let rows = compare(&spec, &file(&a), &file(&a.map(|x| x * 2.0)));
    assert_eq!(rows.len(), 1);
    assert_eq!(
        (rows[0].metric.as_str(), rows[0].verdict),
        ("cpu_ms", Verdict::Worse)
    );
}

#[test]
fn tail_percentile_keeps_ten_samples_beyond() {
    let samples = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
    let t = tail_percentile(&samples(1000)).expect("1000 samples");
    assert_eq!((t.percentile, t.value, t.beyond), (99.0, 990.0, 10));
    let t = tail_percentile(&samples(10_000)).expect("10k samples");
    assert_eq!((t.percentile, t.beyond), (99.9, 10));
    // 999 samples leave only 9 beyond p99, so p95 is the tail.
    let t = tail_percentile(&samples(999)).expect("999 samples");
    assert_eq!(t.percentile, 95.0);
    assert!(t.beyond >= 10);
    assert_eq!(
        tail_percentile(&samples(20)).map(|t| t.percentile),
        Some(50.0)
    );
    assert!(tail_percentile(&samples(19)).is_none());
    assert!(tail_percentile(&[]).is_none());
}
