//! Analysis logic for `jouppi-stat`: trace statistics, footprints, and
//! miss-rate curves for a workload or a din trace file.

use std::fs::File;
use std::io::BufReader;

use jouppi_cache::{BandedShadow, CacheGeometry, DirectMappedSweep};
use jouppi_report::Table;
use jouppi_trace::{io as trace_io, Footprint, RecordedTrace, TraceSource};
use jouppi_workloads::{Benchmark, Scale};

use crate::UsageError;

/// Options for `jouppi-stat`.
#[derive(Clone, Debug, PartialEq)]
pub struct StatOptions {
    /// Workload or trace file, as in `jouppi-sim`.
    pub input: crate::Input,
    /// Line size for footprints and curves.
    pub line_size: u64,
    /// Workload scale (instructions).
    pub scale: u64,
    /// Workload seed.
    pub seed: u64,
}

impl Default for StatOptions {
    fn default() -> Self {
        StatOptions {
            input: crate::Input::Workload(Benchmark::Ccom),
            line_size: 16,
            scale: 500_000,
            seed: 42,
        }
    }
}

/// Usage text for `jouppi-stat`.
pub const STAT_USAGE: &str = "\
usage: jouppi-stat [OPTIONS]
  --workload NAME    built-in workload: ccom grr yacc met linpack liver
  --trace FILE       Dinero-format trace file instead of a workload
  --line N           line size in bytes for footprints/curves (default 16)
  --scale N          workload length in instructions (default 500000)
  --seed N           workload seed (default 42)
  --help             show this message";

/// Parses `jouppi-stat` arguments.
///
/// # Errors
///
/// Returns [`UsageError`] for the first invalid argument.
pub fn parse_stat_args<I: IntoIterator<Item = String>>(args: I) -> Result<StatOptions, UsageError> {
    let mut opts = StatOptions::default();
    let mut args = args.into_iter();
    let err = |m: String| UsageError(m);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| UsageError(format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                let bench = Benchmark::from_name(&name)
                    .ok_or_else(|| err(format!("unknown workload '{name}'")))?;
                opts.input = crate::Input::Workload(bench);
            }
            "--trace" => opts.input = crate::Input::TraceFile(value("--trace")?),
            "--line" => {
                let n: u64 = value("--line")?
                    .parse()
                    .map_err(|_| err("--line wants an integer".into()))?;
                if !n.is_power_of_two() {
                    return Err(err(format!("--line must be a power of two, got {n}")));
                }
                opts.line_size = n;
            }
            "--scale" => {
                opts.scale = value("--scale")?
                    .parse()
                    .map_err(|_| err("--scale wants an integer".into()))?;
                if opts.scale == 0 {
                    return Err(err("--scale must be positive".into()));
                }
            }
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|_| err("--seed wants an integer".into()))?;
            }
            "--help" | "-h" => return Err(err(STAT_USAGE.into())),
            other => return Err(err(format!("unknown argument '{other}'\n{STAT_USAGE}"))),
        }
    }
    Ok(opts)
}

/// Runs the analysis and returns the report text.
///
/// # Errors
///
/// Returns trace-loading errors.
pub fn run_stat(opts: &StatOptions) -> Result<String, Box<dyn std::error::Error>> {
    let trace = match &opts.input {
        crate::Input::Workload(b) => {
            RecordedTrace::record(&b.source(Scale::new(opts.scale), opts.seed))
        }
        crate::Input::TraceFile(path) => {
            let file =
                File::open(path).map_err(|e| UsageError(format!("cannot open {path}: {e}")))?;
            trace_io::read_din(BufReader::new(file), path)?
        }
    };

    let stats = trace.stats();
    let mut fp = Footprint::new(opts.line_size);
    for r in trace.refs() {
        fp.observe(r);
    }

    let mut out = String::new();
    out.push_str(&format!("trace: {} ({})\n\n", trace.name(), stats));
    let mut t = Table::new(["metric", "value"]);
    t.row([
        "instruction refs".to_owned(),
        stats.instruction_refs.to_string(),
    ]);
    t.row(["loads".to_owned(), stats.loads.to_string()]);
    t.row(["stores".to_owned(), stats.stores.to_string()]);
    t.row([
        "data/instr".to_owned(),
        format!("{:.3}", stats.data_per_instr()),
    ]);
    t.row([
        "code footprint".to_owned(),
        format!("{} KB", fp.instr_bytes() / 1024),
    ]);
    t.row([
        "data footprint".to_owned(),
        format!("{} KB", fp.data_bytes() / 1024),
    ]);
    out.push_str(&t.render());

    out.push_str("\ndata-side miss rates by cache size:\n");
    out.push_str(&data_curve(&trace, opts.line_size)?.render());
    Ok(out)
}

/// The data-side miss-rate curve: at every size from 1KB to 128KB that
/// holds at least two lines, the direct-mapped and fully-associative LRU
/// miss rates and the direct-mapped cache's 3-C conflict share. One pass
/// answers every size: a [`DirectMappedSweep`] with a [`BandedShadow`]
/// riding it.
fn data_curve(trace: &RecordedTrace, line_size: u64) -> Result<Table, UsageError> {
    let geoms = (0..8u32)
        .map(|exp| 1024u64 << exp)
        .filter(|&size| size / 2 >= line_size)
        .map(|size| {
            CacheGeometry::direct_mapped(size, line_size)
                .map_err(|e| UsageError(format!("geometry: {e}")))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let mut curve = Table::new(["size", "direct-mapped", "FA-LRU", "3-C conflict %"]);
    if geoms.is_empty() {
        return Ok(curve);
    }
    let mut l1s = DirectMappedSweep::new(&geoms);
    let mut shadow = BandedShadow::new(&geoms);
    for r in trace.refs().filter(|r| r.kind.is_data()) {
        let line = r.addr.line(line_size);
        shadow.observe(line, l1s.access_line(line, |_, _| {}));
    }
    let refs = shadow.accesses();
    let rate = |misses: u64| {
        if refs == 0 {
            0.0
        } else {
            misses as f64 / refs as f64
        }
    };
    for (i, geom) in geoms.iter().enumerate() {
        let breakdown = shadow.breakdown(i);
        curve.row([
            format!("{}KB", geom.size() / 1024),
            format!("{:.4}", rate(breakdown.total())),
            format!("{:.4}", rate(shadow.fa_misses(i))),
            format!("{:.0}%", 100.0 * breakdown.conflict_fraction()),
        ]);
    }
    Ok(curve)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<StatOptions, UsageError> {
        parse_stat_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_and_options_parse() {
        assert_eq!(parse(&[]).unwrap(), StatOptions::default());
        let o = parse(&[
            "--workload",
            "liver",
            "--line",
            "32",
            "--scale",
            "1000",
            "--seed",
            "5",
        ])
        .unwrap();
        assert_eq!(o.input, crate::Input::Workload(Benchmark::Liver));
        assert_eq!(o.line_size, 32);
        assert_eq!(o.scale, 1000);
        assert_eq!(o.seed, 5);
    }

    #[test]
    fn rejects_bad_args() {
        assert!(parse(&["--workload", "x"]).is_err());
        assert!(parse(&["--line", "48"]).is_err());
        assert!(parse(&["--scale", "0"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--help"]).is_err());
    }

    #[test]
    fn stat_report_covers_footprints_and_curves() {
        let mut o = parse(&["--workload", "met"]).unwrap();
        o.scale = 10_000;
        let out = run_stat(&o).unwrap();
        assert!(out.contains("data footprint"));
        assert!(out.contains("FA-LRU"));
        assert!(out.contains("1KB"));
        assert!(out.contains("met"));
    }

    /// The per-size computation the one-pass curve replaced: a
    /// [`jouppi_cache::ClassifiedCache`] per size and one
    /// [`jouppi_cache::StackDistanceProfile`].
    fn data_curve_per_size(trace: &RecordedTrace, line_size: u64) -> Table {
        let mut profile = jouppi_cache::StackDistanceProfile::new();
        for r in trace.refs().filter(|r| r.kind.is_data()) {
            profile.observe(r.addr.line(line_size));
        }
        let mut curve = Table::new(["size", "direct-mapped", "FA-LRU", "3-C conflict %"]);
        for exp in 0..8u32 {
            let size = 1024u64 << exp;
            if size < line_size * 2 {
                continue;
            }
            let geom = CacheGeometry::direct_mapped(size, line_size).unwrap();
            let mut dm = jouppi_cache::ClassifiedCache::new(geom);
            for r in trace.refs().filter(|r| r.kind.is_data()) {
                dm.access(r.addr);
            }
            curve.row([
                format!("{}KB", size / 1024),
                format!("{:.4}", dm.stats().miss_rate()),
                format!(
                    "{:.4}",
                    profile.miss_rate_for_capacity(usize::try_from(size / line_size).unwrap())
                ),
                format!("{:.0}%", 100.0 * dm.breakdown().conflict_fraction()),
            ]);
        }
        curve
    }

    #[test]
    fn data_curve_equals_per_size_classified_caches() {
        for (bench, line) in [
            (Benchmark::Met, 16),
            (Benchmark::Liver, 64),
            (Benchmark::Ccom, 512),
        ] {
            let trace = RecordedTrace::record(&bench.source(Scale::new(20_000), 3));
            assert_eq!(
                data_curve(&trace, line).unwrap().render(),
                data_curve_per_size(&trace, line).render(),
                "{bench} at {line}B lines"
            );
        }
    }

    #[test]
    fn huge_line_sizes_leave_the_curve_empty_without_panicking() {
        let mut o = parse(&["--workload", "met", "--line", "9223372036854775808"]).unwrap();
        o.scale = 2_000;
        let out = run_stat(&o).unwrap();
        let curve = &out[out.find("data-side miss rates").unwrap()..];
        assert!(!curve.contains("KB"), "{curve}");
    }

    #[test]
    fn stat_on_missing_file_errors_cleanly() {
        let o = StatOptions {
            input: crate::Input::TraceFile("/does/not/exist.din".into()),
            ..StatOptions::default()
        };
        assert!(run_stat(&o).is_err());
    }
}
