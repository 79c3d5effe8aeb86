//! `jouppi-bench` — the benchmark command.
//!
//! ```text
//! jouppi-bench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick] [--spans FILE]
//! jouppi-bench [--seed N] [--seconds S] [--trace 0|1] [--quick] [--repeat N] [--out FILE] [--spans FILE]
//! jouppi-bench compare A.json B.json [--bench BENCHMARK.json]
//! ```
//!
//! With `--workload` it runs one workload and prints, last, one JSON line
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end
//! metrics, or with `--trace 1` the per-layer ones — after a line with
//! the run's details. Without `--workload` it runs every workload, each
//! in a fresh child process, prints every metric by name and unit, and
//! with `--out` writes all runs to a results file for `compare`.

#![forbid(unsafe_code)]

use std::io::Write;
use std::process::{Command, ExitCode, Stdio};

use jouppi_perfbench::compare::{compare, parse_bench_spec, Verdict};
use jouppi_perfbench::serving::ServeWorkload;
use jouppi_perfbench::sweeps::{SWEEP_AUGMENTED, SWEEP_L1};
use jouppi_perfbench::{median, Outcome, RunOptions, WORKLOADS};
use jouppi_serve::json::Json;

/// Seconds one run measures when `--seconds` is not given (the
/// `run_seconds` of `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 25.0;

/// Seconds per workload in `--quick` mode.
const QUICK_SECONDS: f64 = 1.0;

/// Set-up samples per run: the run's own set-up plus fresh child
/// processes that set up and exit. Their median is `setup_s`.
const SETUP_SAMPLES: usize = 5;

struct Args {
    workload: Option<String>,
    opts: RunOptions,
    setup_probe: bool,
    spans: Option<String>,
    out: Option<String>,
    repeat: u64,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: jouppi-bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--quick]\n\
         \x20                   [--spans FILE] [--repeat N] [--out FILE]\n\
         \x20      jouppi-bench compare A.json B.json [--bench BENCHMARK.json]\n\
         workloads: {}",
        WORKLOADS.join(", ")
    );
    ExitCode::from(2)
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        opts: RunOptions {
            seed: 42,
            seconds: f64::NAN,
            traced: false,
            quick: false,
        },
        setup_probe: false,
        spans: None,
        out: None,
        repeat: 1,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload '{w}'"));
                }
                args.workload = Some(w);
            }
            "--seed" => args.opts.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                args.opts.seconds = value()?.parse().map_err(|_| "bad --seconds")?;
                if args.opts.seconds.is_nan() || args.opts.seconds <= 0.0 {
                    return Err("--seconds must be positive".to_owned());
                }
            }
            "--trace" => {
                args.opts.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                }
            }
            "--quick" => args.opts.quick = true,
            "--setup-probe" => args.setup_probe = true,
            "--spans" => args.spans = Some(value()?),
            "--out" => args.out = Some(value()?),
            "--repeat" => args.repeat = value()?.parse().map_err(|_| "bad --repeat")?,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.opts.seconds.is_nan() {
        args.opts.seconds = if args.opts.quick {
            QUICK_SECONDS
        } else {
            DEFAULT_SECONDS
        };
    }
    Ok(args)
}

/// The processors this process may run on, as `/proc` lists them
/// (`0-1`, `1`, ...).
fn allowed_cpus() -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    Some(list.trim().to_owned())
}

/// Pins this process — and so every thread and child it starts — to the
/// last processor it may use, with `taskset`. The serving client and the
/// daemon's threads then hand requests over on one processor, so a
/// request costs the same whichever processors the scheduler would have
/// picked. Without `taskset` the run carries on unpinned; the details
/// line reports the processors it ran on.
fn pin_to_one_cpu() {
    let Some(allowed) = allowed_cpus() else {
        return;
    };
    let Some(last) = allowed.rsplit([',', '-']).next() else {
        return;
    };
    if last == allowed {
        return;
    }
    // taskset reports the old and new lists on stdout, which carries the
    // benchmark's own output.
    let pinned = Command::new("taskset")
        .args(["-cp", last, &std::process::id().to_string()])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status();
    if !pinned.is_ok_and(|s| s.success()) {
        eprintln!("jouppi-bench: cannot pin to processor {last}; running on {allowed}");
    }
}

/// Set-up alone, in this process.
fn setup_only(workload: &str, opts: &RunOptions) -> f64 {
    match workload {
        "sweep_augmented" => SWEEP_AUGMENTED.setup(opts),
        "sweep_l1" => SWEEP_L1.setup(opts),
        "serve_simulate" => ServeWorkload::Simulate.setup(opts),
        _ => ServeWorkload::Hot.setup(opts),
    }
}

/// Takes one set-up sample in a fresh child process.
fn setup_probe(workload: &str, opts: &RunOptions) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--setup-probe", "--workload", workload])
        .args(["--seed", &opts.seed.to_string()]);
    if opts.quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("set-up probe exited with {}", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .map_err(|_| "set-up probe printed no time".to_owned())
}

fn run_workload(workload: &'static str, args: &Args) -> Result<Outcome, String> {
    let opts = &args.opts;
    let mut setup = Vec::new();
    let probes = if opts.quick { 0 } else { SETUP_SAMPLES - 1 };
    for _ in 0..probes {
        setup.push(setup_probe(workload, opts)?);
    }
    Ok(match workload {
        "sweep_augmented" => SWEEP_AUGMENTED.run(opts, &mut setup),
        "sweep_l1" => SWEEP_L1.run(opts, &mut setup),
        "serve_simulate" => ServeWorkload::Simulate.run(opts, &mut setup),
        _ => ServeWorkload::Hot.run(opts, &mut setup),
    })
}

fn single(workload: &str, args: &Args) -> ExitCode {
    let opts = &args.opts;
    if args.setup_probe {
        println!("{}", setup_only(workload, opts));
        return ExitCode::SUCCESS;
    }
    let Some(&workload) = WORKLOADS.iter().find(|w| **w == workload) else {
        return usage();
    };
    let outcome = match run_workload(workload, args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &args.spans {
        let written = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(outcome.spans_jsonl.as_bytes()));
        if let Err(e) = written {
            eprintln!("{workload}: cannot write spans to {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let detail = Json::obj([
        ("workload", Json::str(workload)),
        ("seed", Json::Int(opts.seed as i64)),
        ("seconds", Json::Float(opts.seconds)),
        ("traced", Json::Bool(opts.traced)),
        ("quick", Json::Bool(opts.quick)),
        ("cpus", allowed_cpus().map_or(Json::Null, Json::str)),
        ("detail", Json::Obj(outcome.detail.clone())),
    ]);
    println!("{}", detail.encode());
    println!("{}", outcome.result_line());
    ExitCode::SUCCESS
}

/// Runs one workload in a fresh child process; returns its detail and
/// result lines parsed.
fn child(workload: &str, seed: u64, args: &Args) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.opts.seconds.to_string()])
        .args(["--trace", if args.opts.traced { "1" } else { "0" }]);
    if args.opts.quick {
        cmd.arg("--quick");
    }
    if let Some(spans) = &args.spans {
        cmd.args(["--spans", spans]);
    }
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("{workload} exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines = text.lines().rev();
    let parse = |l: Option<&str>| {
        Json::parse(l.unwrap_or("")).map_err(|e| format!("{workload}: bad output line: {e}"))
    };
    let result = parse(lines.next())?;
    let detail = parse(lines.next())?;
    Ok((detail, result))
}

fn all(args: &Args) -> ExitCode {
    if let Some(spans) = &args.spans {
        if let Err(e) = std::fs::write(spans, "") {
            eprintln!("cannot create {spans}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let mut runs = Vec::new();
    let mut ok = true;
    for workload in WORKLOADS {
        let mut values: Vec<(String, String, Vec<f64>)> = Vec::new();
        for r in 0..args.repeat.max(1) {
            let seed = args.opts.seed + r;
            let (detail, result) = match child(workload, seed, args) {
                Ok(lines) => lines,
                Err(e) => {
                    eprintln!("{e}");
                    ok = false;
                    continue;
                }
            };
            ok &= result.get("correct") == Some(&Json::Bool(true));
            if let Some(Json::Obj(metrics)) = result.get("metrics") {
                for (name, m) in metrics {
                    let v = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                    let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                    match values.iter_mut().find(|(n, _, _)| n == name) {
                        Some((_, _, vs)) => vs.push(v),
                        None => values.push((name.clone(), unit.to_owned(), vec![v])),
                    }
                }
            }
            runs.push(Json::obj([
                ("workload", Json::str(workload)),
                ("seed", Json::Int(seed as i64)),
                ("result", result),
                (
                    "detail",
                    detail.get("detail").cloned().unwrap_or(Json::Null),
                ),
            ]));
        }
        for (name, unit, vs) in &values {
            println!("{workload:<16} {name:<24} {:>16.6} {unit}", median(vs));
        }
    }
    if let Some(path) = &args.out {
        let doc = Json::obj([
            ("benchmark", Json::str("jouppi-bench")),
            ("cpus", allowed_cpus().map_or(Json::Null, Json::str)),
            ("seconds", Json::Float(args.opts.seconds)),
            ("traced", Json::Bool(args.opts.traced)),
            ("runs", Json::Arr(runs)),
        ]);
        if let Err(e) = std::fs::write(path, doc.encode_pretty()) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("jouppi-bench: a workload failed or produced a wrong result");
        ExitCode::FAILURE
    }
}

fn compare_files(rest: &[String]) -> ExitCode {
    let (mut files, mut bench) = (Vec::new(), "BENCHMARK.json".to_owned());
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        if a == "--bench" {
            match it.next() {
                Some(p) => bench = p.clone(),
                None => return usage(),
            }
        } else {
            files.push(a.clone());
        }
    }
    let [a, b] = files.as_slice() else {
        return usage();
    };
    let read = |p: &str| -> Result<String, String> {
        std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))
    };
    let loaded = (|| -> Result<_, String> {
        let spec = parse_bench_spec(&read(&bench)?)?;
        let a = Json::parse(&read(a)?).map_err(|e| format!("{a}: {e}"))?;
        let b = Json::parse(&read(b)?).map_err(|e| format!("{b}: {e}"))?;
        Ok((spec, a, b))
    })();
    let (spec, a, b) = match loaded {
        Ok(l) => l,
        Err(e) => {
            eprintln!("compare: {e}");
            return ExitCode::FAILURE;
        }
    };
    let rows = compare(&spec, &a, &b);
    for row in &rows {
        println!("{}", row.line);
    }
    let bad = rows
        .iter()
        .filter(|r| matches!(r.verdict, Verdict::Worse | Verdict::Unresolved))
        .count();
    println!("{} rows, {bad} worse or unresolved", rows.len());
    if bad == 0 && !rows.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("compare") {
        return compare_files(&raw[1..]);
    }
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("jouppi-bench: {e}");
            return usage();
        }
    };
    // Sweeps run on the calling thread: on a few shared cores, a parallel
    // pool measures the scheduler, and its short-lived workers would drop
    // out of the processor-time clock, which counts live threads only.
    jouppi_experiments::sweep::set_thread_count(1);
    pin_to_one_cpu();
    match &args.workload {
        Some(w) => single(w, &args),
        None => all(&args),
    }
}
