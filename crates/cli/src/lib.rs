//! Argument parsing and drive logic for `jouppi-sim`, the command-line
//! cache simulator.
//!
//! The binary simulates one cache organization over either a built-in
//! synthetic workload or a Dinero-format trace file:
//!
//! ```text
//! jouppi-sim --workload ccom --cache 4096:16:1 --victim 4 --stream 4x4
//! jouppi-sim --trace prog.din --side d --cache 8192:32:1 --classify
//! jouppi-sim --workload linpack --export linpack.din
//! jouppi-sim --workload met --system improved
//! ```
//!
//! Parsing lives in this library crate so it is unit-testable; `main` is
//! a thin shell around [`parse_args`] and [`run`].

#![warn(clippy::print_stdout, clippy::print_stderr)]
#![warn(clippy::cast_possible_truncation)]
#![warn(missing_docs)]

pub mod serve_cmd;
pub mod stat;

use std::fmt;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::process::ExitCode;

use jouppi_cache::CacheGeometry;
use jouppi_experiments::single_pass;
use jouppi_report::Table;
use jouppi_serve::sim;
use jouppi_system::{SystemConfig, SystemModel};
use jouppi_trace::{io as trace_io, RecordedTrace, TraceSource};
use jouppi_workloads::{Benchmark, Scale};

pub use jouppi_serve::sim::SideFilter;

/// Full-system mode instead of a single cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SystemMode {
    /// The §2 baseline machine.
    Baseline,
    /// The §5 improved machine.
    Improved,
}

/// Where the reference stream comes from.
#[derive(Clone, Debug, PartialEq)]
pub enum Input {
    /// A built-in synthetic benchmark.
    Workload(Benchmark),
    /// A Dinero-format trace file.
    TraceFile(String),
}

/// Everything parsed from the command line.
#[derive(Clone, Debug, PartialEq)]
pub struct Options {
    /// Reference source.
    pub input: Input,
    /// Cache geometry (`size:line:assoc`).
    pub geometry: CacheGeometry,
    /// Victim-cache entries (0 = none).
    pub victim: usize,
    /// Miss-cache entries (0 = none; mutually exclusive with victim).
    pub miss_cache: usize,
    /// Stream buffer as `(ways, depth)`; `None` = no buffer.
    pub stream: Option<(usize, usize)>,
    /// Maximum detectable stride in lines (0 = sequential buffers).
    pub stride_detect: i64,
    /// Which references the cache sees.
    pub side: SideFilter,
    /// Synthetic workload scale in instructions.
    pub scale: u64,
    /// Synthetic workload seed.
    pub seed: u64,
    /// Also run the three-C classifier.
    pub classify: bool,
    /// Export the reference stream to a din file instead of simulating.
    pub export: Option<String>,
    /// Run the full two-level system instead of one cache.
    pub system: Option<SystemMode>,
    /// Sweep every power-of-two (size, associativity) cell under LRU and
    /// FIFO in one pass instead of simulating one cache.
    pub geometry_sweep: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            input: Input::Workload(Benchmark::Ccom),
            geometry: CacheGeometry::direct_mapped(4096, 16).expect("default geometry"),
            victim: 0,
            miss_cache: 0,
            stream: None,
            stride_detect: 0,
            side: SideFilter::default(),
            scale: 500_000,
            seed: 42,
            classify: false,
            export: None,
            system: None,
            geometry_sweep: false,
        }
    }
}

/// A fatal usage error; the message is shown to the user. A `--help`
/// returns the usage text itself, which [`finish`] prints to stdout with
/// success.
#[derive(Debug, PartialEq, Eq)]
pub struct UsageError(pub String);

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for UsageError {}

fn err(msg: impl Into<String>) -> UsageError {
    UsageError(msg.into())
}

/// Parses a `--scale` value: a positive instruction count, at most the
/// daemon's [`sim::MAX_SIMULATE_SCALE`], since recording sizes its
/// buffer from it.
fn parse_scale(text: &str) -> Result<u64, UsageError> {
    let scale: u64 = text.parse().map_err(|_| err("--scale wants an integer"))?;
    if scale == 0 {
        return Err(err("--scale must be positive"));
    }
    if scale > sim::MAX_SIMULATE_SCALE {
        return Err(err(format!(
            "--scale must be at most {}",
            sim::MAX_SIMULATE_SCALE
        )));
    }
    Ok(scale)
}

/// The usage text printed for `--help`.
pub const USAGE: &str = "\
usage: jouppi-sim [OPTIONS]
  --workload NAME        built-in workload: ccom grr yacc met linpack liver
  --trace FILE           Dinero-format trace file instead of a workload
  --cache SIZE:LINE:ASSOC  cache geometry in bytes (default 4096:16:1),
                         at most 65536 lines and 1024 ways
  --victim N             add an N-entry victim cache, N at most 1024
  --miss-cache N         add an N-entry miss cache, N at most 1024
  --stream WAYSxDEPTH    add stream buffers, e.g. 4x4 or 1x4, ways and
                         depth each at most 1024
  --stride-detect MAX    stream buffers detect strides up to MAX lines
  --side i|d|all         which references the cache sees (default d)
  --scale N              workload length in instructions (default 500000),
                         at most 2000000
  --seed N               workload seed (default 42)
  --classify             also report the 3-C miss breakdown
  --export FILE          write the reference stream as a din file and exit
  --system baseline|improved  run the full two-level machine instead
  --geometry-sweep       miss rates for every 1K-128K size x 1-16 way cell
                         under LRU and FIFO, from one pass over the trace
  --help                 show this message";

/// Ends a command-line program: runs `run` on the parsed options and
/// prints its report to stdout. A `--help` prints `usage` to stdout and
/// succeeds; a usage error or a failed run goes to stderr and fails.
#[expect(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "the binaries' one exit path: reports and requested usage go to stdout, errors to stderr"
)]
pub fn finish<O>(
    parsed: Result<O, UsageError>,
    usage: &str,
    run: impl FnOnce(&O) -> Result<String, Box<dyn std::error::Error>>,
) -> ExitCode {
    match parsed {
        Ok(opts) => match run(&opts) {
            Ok(report) => {
                println!("{report}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        Err(e) if e.0 == usage => {
            println!("{usage}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// Parses command-line arguments (excluding `argv[0]`).
///
/// # Errors
///
/// Returns [`UsageError`] describing the first invalid argument.
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Options, UsageError> {
    let mut opts = Options::default();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| err(format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                let bench = Benchmark::from_name(&name)
                    .ok_or_else(|| err(format!("unknown workload '{name}'")))?;
                opts.input = Input::Workload(bench);
            }
            "--trace" => opts.input = Input::TraceFile(value("--trace")?),
            "--cache" => {
                let spec = value("--cache")?;
                let parts: Vec<&str> = spec.split(':').collect();
                if parts.len() != 3 {
                    return Err(err(format!("--cache wants SIZE:LINE:ASSOC, got '{spec}'")));
                }
                let nums: Vec<u64> = parts
                    .iter()
                    .map(|p| p.parse::<u64>())
                    .collect::<Result<_, _>>()
                    .map_err(|_| err(format!("--cache: non-numeric field in '{spec}'")))?;
                opts.geometry = CacheGeometry::new(nums[0], nums[1], nums[2])
                    .map_err(|e| err(format!("--cache: {e}")))?;
            }
            "--victim" => {
                opts.victim = value("--victim")?
                    .parse()
                    .map_err(|_| err("--victim wants an integer"))?;
            }
            "--miss-cache" => {
                opts.miss_cache = value("--miss-cache")?
                    .parse()
                    .map_err(|_| err("--miss-cache wants an integer"))?;
            }
            "--stream" => {
                let spec = value("--stream")?;
                let (ways, depth) = spec
                    .split_once('x')
                    .ok_or_else(|| err(format!("--stream wants WAYSxDEPTH, got '{spec}'")))?;
                let ways = ways
                    .parse::<usize>()
                    .map_err(|_| err("--stream: bad way count"))?;
                let depth = depth
                    .parse::<usize>()
                    .map_err(|_| err("--stream: bad depth"))?;
                if ways == 0 || depth == 0 {
                    return Err(err("--stream: ways and depth must be nonzero"));
                }
                opts.stream = Some((ways, depth));
            }
            "--stride-detect" => {
                opts.stride_detect = value("--stride-detect")?
                    .parse()
                    .map_err(|_| err("--stride-detect wants an integer"))?;
            }
            "--side" => {
                let name = value("--side")?;
                opts.side = SideFilter::from_name(&name)
                    .ok_or_else(|| err(format!("--side wants i|d|all, got '{name}'")))?;
            }
            "--scale" => opts.scale = parse_scale(&value("--scale")?)?,
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|_| err("--seed wants an integer"))?;
            }
            "--classify" => opts.classify = true,
            "--export" => opts.export = Some(value("--export")?),
            "--system" => {
                opts.system = Some(match value("--system")?.as_str() {
                    "baseline" => SystemMode::Baseline,
                    "improved" => SystemMode::Improved,
                    other => {
                        return Err(err(format!(
                            "--system wants baseline|improved, got '{other}'"
                        )))
                    }
                });
            }
            "--geometry-sweep" => opts.geometry_sweep = true,
            "--help" | "-h" => return Err(err(USAGE)),
            other => return Err(err(format!("unknown argument '{other}'\n{USAGE}"))),
        }
    }
    if opts.victim > 0 && opts.miss_cache > 0 {
        return Err(err("--victim and --miss-cache are mutually exclusive"));
    }
    // The daemon's bounds: nothing request- or argument-sized may size
    // an allocation past them.
    let (ways, depth) = opts.stream.unwrap_or_default();
    sim::check_bounds(
        &opts.geometry,
        &[
            ("--victim", opts.victim),
            ("--miss-cache", opts.miss_cache),
            ("--stream ways", ways),
            ("--stream depth", depth),
        ],
    )
    .map_err(err)?;
    if opts.geometry_sweep && (opts.system.is_some() || opts.export.is_some()) {
        return Err(err(
            "--geometry-sweep is a whole-grid report; it cannot combine \
             with --system or --export",
        ));
    }
    Ok(opts)
}

/// Records the workload at `scale`/`seed`, or reads the trace file.
#[expect(
    clippy::disallowed_methods,
    reason = "the command line reads the trace file its user names"
)]
fn load_trace(
    input: &Input,
    scale: u64,
    seed: u64,
) -> Result<RecordedTrace, Box<dyn std::error::Error>> {
    match input {
        Input::Workload(b) => Ok(RecordedTrace::record(&b.source(Scale::new(scale), seed))),
        Input::TraceFile(path) => {
            let file = File::open(path).map_err(|e| err(format!("cannot open {path}: {e}")))?;
            Ok(trace_io::read_din(BufReader::new(file), path)?)
        }
    }
}

/// Runs the simulation the options describe, returning the report text.
///
/// # Errors
///
/// Returns any I/O or parse error from trace loading or export.
#[expect(
    clippy::disallowed_methods,
    reason = "the command line writes the export file its user names"
)]
pub fn run(opts: &Options) -> Result<String, Box<dyn std::error::Error>> {
    let trace = load_trace(&opts.input, opts.scale, opts.seed)?;

    if let Some(path) = &opts.export {
        let file = File::create(path).map_err(|e| err(format!("cannot create {path}: {e}")))?;
        trace_io::write_din(&trace, BufWriter::new(file))?;
        return Ok(format!(
            "wrote {} references from {} to {path}",
            trace.len(),
            trace.name()
        ));
    }

    if opts.geometry_sweep {
        return Ok(geometry_sweep_report(&trace, opts));
    }

    if let Some(mode) = opts.system {
        let cfg = match mode {
            SystemMode::Baseline => SystemConfig::baseline(),
            SystemMode::Improved => SystemConfig::improved(),
        };
        let report = SystemModel::new(cfg).run(&trace);
        return Ok(format!(
            "system ({}) over {}:\n{report}\n",
            match mode {
                SystemMode::Baseline => "baseline",
                SystemMode::Improved => "improved",
            },
            trace.name()
        ));
    }

    let cfg = sim::build_config(
        opts.geometry,
        opts.victim,
        opts.miss_cache,
        opts.stream,
        opts.stride_detect,
    );
    let (s, breakdown) = sim::replay(trace.refs(), opts.side, cfg, opts.classify);
    let mut t = Table::new(["metric", "value"]);
    t.row(["trace".to_owned(), trace.name().to_owned()]);
    t.row(["geometry".to_owned(), opts.geometry.to_string()]);
    t.row(["accesses".to_owned(), s.accesses.to_string()]);
    t.row(["L1 hits".to_owned(), s.l1_hits.to_string()]);
    t.row([
        "L1 miss rate".to_owned(),
        format!("{:.4}", s.l1_miss_rate()),
    ]);
    t.row(["victim-cache hits".to_owned(), s.victim_hits.to_string()]);
    t.row(["miss-cache hits".to_owned(), s.miss_cache_hits.to_string()]);
    t.row(["stream-buffer hits".to_owned(), s.stream_hits.to_string()]);
    t.row(["full misses".to_owned(), s.full_misses.to_string()]);
    t.row([
        "demand miss rate".to_owned(),
        format!("{:.4}", s.demand_miss_rate()),
    ]);
    t.row([
        "misses removed".to_owned(),
        format!("{:.1}%", 100.0 * s.removed_fraction()),
    ]);
    let mut out = t.render();
    if let Some(b) = breakdown {
        out.push_str(&format!("\n3-C breakdown: {b}\n"));
    }
    Ok(out)
}

/// One pass over the trace, miss rates for every (size, associativity)
/// cell of [`single_pass::grid`] under both LRU (via set-refined stack
/// distances) and FIFO, on the engines the paper's grid sweep uses.
fn geometry_sweep_report(trace: &RecordedTrace, opts: &Options) -> String {
    let (mut lru, mut fifo) = single_pass::grid_engines();
    for r in trace.refs().filter(|r| opts.side.sees(r.kind)) {
        let line = r.addr.line(single_pass::LINE_SIZE);
        lru.observe(line);
        fifo.observe(line);
    }
    let total = lru.total_refs();
    let rate = |misses: u64| {
        if total == 0 {
            "-".to_owned()
        } else {
            format!("{:.4}", misses as f64 / total as f64)
        }
    };
    let mut t = Table::new(["size", "assoc", "LRU miss rate", "FIFO miss rate"]);
    for cell in single_pass::grid_cells(&lru, &fifo) {
        t.row([
            format!("{}K", cell.size >> 10),
            cell.associativity.to_string(),
            rate(cell.lru_misses),
            rate(cell.fifo_misses),
        ]);
    }
    format!(
        "geometry sweep over {} ({} refs, one pass per policy):\n{}",
        trace.name(),
        total,
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, UsageError> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_are_sane() {
        let o = parse(&[]).unwrap();
        assert_eq!(o, Options::default());
        assert_eq!(o.geometry.size(), 4096);
        assert_eq!(o.side, SideFilter::Data);
    }

    #[test]
    fn full_option_set_parses() {
        let o = parse(&[
            "--workload",
            "met",
            "--cache",
            "8192:32:2",
            "--victim",
            "4",
            "--stream",
            "4x8",
            "--stride-detect",
            "64",
            "--side",
            "all",
            "--scale",
            "1000",
            "--seed",
            "7",
            "--classify",
        ])
        .unwrap();
        assert_eq!(o.input, Input::Workload(Benchmark::Met));
        assert_eq!(o.geometry.size(), 8192);
        assert_eq!(o.geometry.associativity(), 2);
        assert_eq!(o.victim, 4);
        assert_eq!(o.stream, Some((4, 8)));
        assert_eq!(o.stride_detect, 64);
        assert_eq!(o.side, SideFilter::All);
        assert_eq!(o.scale, 1000);
        assert_eq!(o.seed, 7);
        assert!(o.classify);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(parse(&["--workload", "doom"]).is_err());
        assert!(parse(&["--cache", "4096:16"]).is_err());
        assert!(parse(&["--cache", "4096:17:1"]).is_err());
        assert!(parse(&["--stream", "4"]).is_err());
        assert!(parse(&["--stream", "0x4"]).is_err());
        assert!(parse(&["--side", "x"]).is_err());
        assert!(parse(&["--scale", "0"]).is_err());
        assert!(parse(&["--scale", "2000000"]).is_ok());
        assert!(parse(&["--system", "nope"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
        assert!(parse(&["--victim", "2", "--miss-cache", "2"]).is_err());
        // Past the daemon's bounds: each of these once sized an
        // allocation from the argument and aborted the process.
        for (args, needle) in [
            (
                ["--victim", "100000000000"],
                "--victim must be at most 1024",
            ),
            (
                ["--miss-cache", "100000000000"],
                "--miss-cache must be at most 1024",
            ),
            (
                ["--stream", "100000000000x4"],
                "--stream ways must be at most 1024",
            ),
            (
                ["--stream", "4x100000000000"],
                "--stream depth must be at most 1024",
            ),
            (["--cache", "1099511627776:16:1"], "at most 65536"),
            // Within the line bound, but every probe scans 2^16 ways.
            (
                ["--cache", "1048576:16:65536"],
                "has 65536 ways; at most 1024 are allowed",
            ),
        ] {
            let e = parse(&args).expect_err("out of bounds");
            assert!(e.to_string().contains(needle), "{args:?}: {e}");
        }
        assert!(parse(&["--victim", "1024", "--cache", "1048576:16:1"]).is_ok());
        assert!(parse(&["--miss-cache", "1024", "--stream", "1024x1024"]).is_ok());
        assert!(parse(&["--cache", "16384:16:1024"]).is_ok());
    }

    #[test]
    fn help_shows_usage() {
        let e = parse(&["--help"]).unwrap_err();
        assert!(e.to_string().contains("usage: jouppi-sim"));
        // The text states the bounds parse_args enforces.
        use jouppi_serve::sim::{MAX_BUFFER_ENTRIES, MAX_CACHE_LINES};
        assert!(USAGE.contains(&format!(
            "at most {MAX_CACHE_LINES} lines and {MAX_BUFFER_ENTRIES} ways"
        )));
        assert_eq!(
            USAGE
                .matches(&format!("at most {MAX_BUFFER_ENTRIES}\n"))
                .count(),
            3
        );
    }

    #[test]
    fn build_config_reflects_options() {
        let build_config = |o: &Options| {
            sim::build_config(
                o.geometry,
                o.victim,
                o.miss_cache,
                o.stream,
                o.stride_detect,
            )
        };
        let o = parse(&["--victim", "2", "--stream", "1x4"]).unwrap();
        let cfg = build_config(&o);
        assert_eq!(cfg.conflict_aid(), jouppi_core::ConflictAid::VictimCache(2));
        assert_eq!(cfg.stream_ways(), 1);
        assert_eq!(cfg.stride_detection(), 0);
        let o = parse(&["--stream", "4x4", "--stride-detect", "32"]).unwrap();
        assert_eq!(build_config(&o).stride_detection(), 32);
    }

    #[test]
    fn run_workload_produces_report() {
        let mut o = parse(&["--workload", "yacc", "--victim", "4"]).unwrap();
        o.scale = 5_000;
        let out = run(&o).unwrap();
        assert!(out.contains("demand miss rate"));
        assert!(out.contains("yacc"));
    }

    #[test]
    fn run_with_classifier_appends_breakdown() {
        let mut o = parse(&["--workload", "met", "--classify"]).unwrap();
        o.scale = 5_000;
        let out = run(&o).unwrap();
        assert!(out.contains("3-C breakdown"));
        assert!(out.contains("conflict"));
    }

    #[test]
    fn run_system_mode() {
        let mut o = parse(&["--workload", "liver", "--system", "improved"]).unwrap();
        o.scale = 5_000;
        let out = run(&o).unwrap();
        assert!(out.contains("system (improved)"));
        assert!(out.contains("of peak"));
    }

    #[test]
    fn export_and_reimport_roundtrip() {
        let dir = std::env::temp_dir().join("jouppi-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.din").to_string_lossy().into_owned();
        let mut o = parse(&["--workload", "ccom", "--export", &path]).unwrap();
        o.scale = 2_000;
        let out = run(&o).unwrap();
        assert!(out.contains("wrote"));
        // Re-import through --trace.
        let o2 = parse(&["--trace", &path]).unwrap();
        let out2 = run(&o2).unwrap();
        assert!(out2.contains("demand miss rate"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn geometry_sweep_flag_parses_and_rejects_other_modes() {
        let o = parse(&["--geometry-sweep"]).unwrap();
        assert!(o.geometry_sweep);
        assert!(!Options::default().geometry_sweep);
        assert!(parse(&["--geometry-sweep", "--system", "baseline"]).is_err());
        assert!(parse(&["--geometry-sweep", "--export", "x.din"]).is_err());
    }

    #[test]
    fn geometry_sweep_reports_every_cell() {
        let mut o = parse(&["--workload", "met", "--geometry-sweep"]).unwrap();
        o.scale = 5_000;
        let out = run(&o).unwrap();
        assert!(out.contains("geometry sweep"));
        assert!(out.contains("FIFO miss rate"));
        // All 40 grid cells render: 8 sizes x 5 associativities.
        for size in ["1K", "2K", "4K", "8K", "16K", "32K", "64K", "128K"] {
            let rows = out
                .lines()
                .filter(|l| l.split_whitespace().next() == Some(size))
                .count();
            assert_eq!(rows, 5, "{size} rows");
        }
    }

    #[test]
    fn missing_trace_file_is_a_clean_error() {
        let o = parse(&["--trace", "/nonexistent/x.din"]).unwrap();
        let e = run(&o).unwrap_err();
        assert!(e.to_string().contains("cannot open"));
    }
}
