//! `repro` — regenerate every table and figure of Jouppi (ISCA 1990).
//!
//! ```text
//! repro [EXPERIMENT...] [--scale N] [--seed N] [--list]
//!
//! EXPERIMENT: all (default) | table-1-1 | table-2-1 | table-2-2 |
//!             fig-2-2 | fig-3-1 | fig-3-3 | fig-3-5 | fig-3-6 |
//!             fig-3-7 | fig-4-1 | fig-4-3 | fig-4-5 | fig-4-6 |
//!             fig-4-7 | overlap | fig-5-1
//! ```

#![warn(clippy::cast_possible_truncation)]

use std::process::ExitCode;

use jouppi_experiments::common::ExperimentConfig;
use jouppi_experiments::{
    checks, conflict_sweep, ext_associativity, ext_l2_victim, ext_latency, ext_multiprogramming,
    ext_penalty, ext_pollution, ext_replacement, ext_seed, ext_stride, ext_working_set,
    ext_write_bandwidth, fig_2_2, fig_3_1, fig_4_1, fig_5_1, overlap, stream_geometry,
    stream_sweep, tables, victim_geometry,
};
use jouppi_workloads::Scale;

const EXPERIMENTS: &[&str] = &[
    "diagrams",
    "table-1-1",
    "table-2-1",
    "table-2-2",
    "fig-2-2",
    "fig-3-1",
    "fig-3-3",
    "fig-3-5",
    "fig-3-6",
    "fig-3-7",
    "fig-4-1",
    "fig-4-3",
    "fig-4-5",
    "fig-4-6",
    "fig-4-7",
    "overlap",
    "fig-5-1",
    "ext-stride",
    "ext-l2-victim",
    "ext-multiprogramming",
    "ext-associativity",
    "ext-latency",
    "ext-replacement",
    "ext-penalty",
    "ext-working-set",
    "ext-pollution",
    "ext-seed",
    "ext-write-bandwidth",
];

fn usage() {
    eprintln!(
        "usage: repro [EXPERIMENT...] [--scale INSTRUCTIONS] [--seed SEED] [--list] [--check]"
    );
    eprintln!("experiments: all {}", EXPERIMENTS.join(" "));
}

fn run_one(name: &str, cfg: &ExperimentConfig) -> Result<String, String> {
    let out = match name {
        "diagrams" => jouppi_experiments::diagrams::render_all(),
        "table-1-1" => tables::table_1_1().render(),
        "table-2-1" => tables::table_2_1(cfg).render(),
        "table-2-2" => tables::table_2_2(cfg).render(),
        "fig-2-2" => fig_2_2::run(cfg).render(),
        "fig-3-1" => fig_3_1::run(cfg).render(),
        "fig-3-3" => conflict_sweep::run(cfg, conflict_sweep::Mechanism::MissCache, 15).render(),
        "fig-3-5" => conflict_sweep::run(cfg, conflict_sweep::Mechanism::VictimCache, 15).render(),
        "fig-3-6" => victim_geometry::run(
            cfg,
            victim_geometry::GeometryAxis::CacheSize,
            &victim_geometry::cache_size_points(),
        )
        .render(),
        "fig-3-7" => victim_geometry::run(
            cfg,
            victim_geometry::GeometryAxis::LineSize,
            &victim_geometry::line_size_points(),
        )
        .render(),
        "fig-4-1" => fig_4_1::run(cfg).render(),
        "fig-4-3" => stream_sweep::run(cfg, 1, 16).render(),
        "fig-4-5" => stream_sweep::run(cfg, 4, 16).render(),
        "fig-4-6" => stream_geometry::run(
            cfg,
            victim_geometry::GeometryAxis::CacheSize,
            &victim_geometry::cache_size_points(),
        )
        .render(),
        "fig-4-7" => stream_geometry::run(
            cfg,
            victim_geometry::GeometryAxis::LineSize,
            &victim_geometry::line_size_points(),
        )
        .render(),
        "overlap" => overlap::run(cfg).render(),
        "fig-5-1" => fig_5_1::run(cfg).render(),
        "ext-stride" => ext_stride::run(cfg).render(),
        "ext-l2-victim" => ext_l2_victim::run(cfg).render(),
        "ext-multiprogramming" => ext_multiprogramming::run(cfg).render(),
        "ext-associativity" => ext_associativity::run(cfg).render(),
        "ext-latency" => ext_latency::run(cfg).render(),
        "ext-replacement" => ext_replacement::run(cfg).render(),
        "ext-penalty" => ext_penalty::run(cfg).render(),
        "ext-working-set" => ext_working_set::run(cfg).render(),
        "ext-seed" => ext_seed::run(cfg).render(),
        "ext-write-bandwidth" => ext_write_bandwidth::run(cfg).render(),
        "ext-pollution" => format!(
            "{}\n{}",
            ext_pollution::run(cfg, jouppi_experiments::common::Side::Instruction).render(),
            ext_pollution::run(cfg, jouppi_experiments::common::Side::Data).render()
        ),
        other => return Err(format!("unknown experiment '{other}'")),
    };
    Ok(out)
}

fn main() -> ExitCode {
    let mut cfg = ExperimentConfig::default();
    let mut chosen: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) if n > 0 => cfg.scale = Scale::new(n),
                _ => {
                    eprintln!("--scale needs a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            "--seed" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) => cfg.seed = n,
                None => {
                    eprintln!("--seed needs an integer");
                    return ExitCode::FAILURE;
                }
            },
            "--check" => {
                // Run the claim checks instead of rendering experiments.
                // Flags after --check (scale/seed) still apply, so finish
                // parsing first by deferring via a marker.
                chosen.push("--check".to_owned());
            }
            "--list" => {
                for e in EXPERIMENTS {
                    println!("{e}");
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            "all" => chosen.extend(EXPERIMENTS.iter().map(|s| s.to_string())),
            other if other.starts_with('-') => {
                eprintln!("unknown flag '{other}'");
                usage();
                return ExitCode::FAILURE;
            }
            other => chosen.push(other.to_owned()),
        }
    }
    if chosen.iter().any(|c| c == "--check") {
        println!(
            "# Reproduction check — scale {} instructions/benchmark, seed {}\n",
            cfg.scale.instructions, cfg.seed
        );
        let results = checks::run_all(&cfg);
        let (text, all) = checks::render(&results);
        println!("{text}");
        return if all {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    if chosen.is_empty() {
        chosen.extend(EXPERIMENTS.iter().map(|s| s.to_string()));
    }
    println!(
        "# Jouppi (ISCA 1990) reproduction — scale {} instructions/benchmark, seed {}\n",
        cfg.scale.instructions, cfg.seed
    );
    for name in &chosen {
        #[expect(
            clippy::disallowed_types,
            reason = "wall-clock progress stamp in the report footer; simulated results \
                      depend only on (trace, config, seed)"
        )]
        let started = std::time::Instant::now();
        match run_one(name, &cfg) {
            Ok(text) => {
                println!("## {name}\n");
                println!("{text}\n");
                // The timing goes to stderr, so stdout is a function of
                // the scale and seed alone.
                eprintln!("({name} took {:.1}s)", started.elapsed().as_secs_f64());
            }
            Err(e) => {
                eprintln!("error: {e}");
                usage();
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
