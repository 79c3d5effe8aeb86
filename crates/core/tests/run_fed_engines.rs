//! Seeded adversarial rounds: every engine a sweep feeds runs counts the
//! same as when it is fed the same stream one reference at a time.
//!
//! A run is a stretch of consecutive references to one line, split at
//! `SideView::MAX_RUN_LEN`. Every reference after a run's first is an
//! immediate repeat, which hits and changes no state, so the sweeps read
//! one entry per run. Five engines are checked:
//!
//! * `MissLog::record_sizes` at four direct-mapped sizes, fed
//!   `(line, length, id)` runs against runs of one: the logs, ticks
//!   included, must be equal, and each run must miss the sizes its first
//!   reference missed.
//! * `MissClassifier` and `BandedShadow` riding those passes, fed run
//!   ids against lines.
//! * `LruSweep` and `FifoSweep` over a small geometry grid, fed run ids
//!   against lines.
//!
//! The streams hold the all-ones line (whose tag is the direct-mapped
//! sweep's empty-set marker), alternating lines, runs of one, an empty
//! side, a run long enough to split, and random runs. Randomness comes
//! from the workspace's seeded PRNG, so a failure reproduces from the
//! printed seed and round.

use jouppi_cache::{BandedShadow, CacheGeometry, FifoSweep, LruSweep, MissClassifier};
use jouppi_core::MissLog;
use jouppi_trace::{Addr, LineAddr, LineInterner, MemRef, RecordedTrace, SideView, SmallRng};

const SEED: u64 = 0x5255_4e53_4f46_4f4e; // "RUNSOFON"
const ROUNDS: usize = 24;

/// `(line, id, length)` per run of `lines`, split as a `SideView` splits.
fn runs_of(lines: &[LineAddr]) -> Vec<(LineAddr, u32, u64)> {
    let mut interner = LineInterner::new();
    let mut runs: Vec<(LineAddr, u32, u64)> = Vec::new();
    for &line in lines {
        match runs.last_mut() {
            Some((last, _, len)) if *last == line && *len < u64::from(SideView::MAX_RUN_LEN) => {
                *len += 1;
            }
            _ => runs.push((line, interner.intern(line), 1)),
        }
    }
    runs
}

/// Lines that crowd the top of the address space, the all-ones line
/// among them, in runs of random length.
fn top_lines(rng: &mut SmallRng) -> Vec<LineAddr> {
    let mut out = Vec::new();
    while out.len() < 600 {
        let line = LineAddr::new(u64::MAX - ((rng.below(6) as u64) << rng.below(10)));
        out.extend(std::iter::repeat_n(line, 1 + rng.below(3)));
    }
    out
}

/// Two lines in one set of every size, alternating: every run has one
/// reference and every reference misses.
fn alternating(rng: &mut SmallRng) -> Vec<LineAddr> {
    let a = rng.below(1 << 20) as u64;
    (0..500)
        .map(|i| LineAddr::new(a + (i % 2) * 4096))
        .collect()
}

/// No line twice in a row: runs of one over a small pool.
fn runs_of_one(rng: &mut SmallRng) -> Vec<LineAddr> {
    let mut out: Vec<LineAddr> = Vec::new();
    while out.len() < 800 {
        let line = LineAddr::new(rng.below(96) as u64);
        if out.last() != Some(&line) {
            out.push(line);
        }
    }
    out
}

/// A stretch of one line several times longer than a run holds, between
/// random references.
fn long_run(rng: &mut SmallRng) -> Vec<LineAddr> {
    let max = usize::from(SideView::MAX_RUN_LEN);
    let line = LineAddr::new(rng.below(64) as u64);
    let mut out: Vec<LineAddr> = (0..40)
        .map(|_| LineAddr::new(rng.below(64) as u64))
        .collect();
    out.extend(std::iter::repeat_n(line, 2 * max + 1 + rng.below(max)));
    out.extend((0..40).map(|_| LineAddr::new(rng.below(64) as u64)));
    out.extend(std::iter::repeat_n(line, max));
    out
}

/// Random runs of 1 to 8 references over a pool a few times the largest
/// size, so sets stay full.
fn random_runs(rng: &mut SmallRng) -> Vec<LineAddr> {
    let mut out = Vec::new();
    while out.len() < 1500 {
        let line = LineAddr::new(rng.below(512) as u64);
        out.extend(std::iter::repeat_n(line, 1 + rng.below(8)));
    }
    out
}

fn stream(rng: &mut SmallRng, round: usize) -> Vec<LineAddr> {
    match round % 6 {
        0 => top_lines(rng),
        1 => alternating(rng),
        2 => runs_of_one(rng),
        3 => Vec::new(),
        4 => long_run(rng),
        _ => random_runs(rng),
    }
}

/// Four ascending direct-mapped sizes on 16B lines, from 1 to 128 sets.
fn sizes(rng: &mut SmallRng) -> Vec<CacheGeometry> {
    let first = rng.below(3) as u32;
    (0..4)
        .map(|k| {
            let sets = 1u64 << (first + 2 * k);
            CacheGeometry::direct_mapped(16 * sets, 16).expect("power-of-two geometry")
        })
        .collect()
}

const GRID: [(u64, u64); 7] = [(1, 1), (1, 4), (1, 16), (2, 2), (4, 1), (8, 4), (32, 2)];

#[test]
fn engines_fed_runs_count_what_they_count_fed_every_reference() {
    let mut rng = SmallRng::seed_from_u64(SEED);
    for round in 0..ROUNDS {
        let at = format!("seed {SEED:#x} round {round}");
        let lines = stream(&mut rng, round);
        let runs = runs_of(&lines);
        if round % 6 == 4 {
            assert!(runs.windows(2).any(|w| w[0].0 == w[1].0), "{at}: no split");
        }
        let geoms = sizes(&mut rng);

        // Runs of one: every reference, lines interned as they arrive.
        let mut classifier = MissClassifier::new(geoms[1]);
        let mut shadow = BandedShadow::new(&geoms);
        let mut ref_missed = Vec::with_capacity(lines.len());
        let by_ref = MissLog::record_sizes(&geoms, lines.iter().map(|&l| (l, 1, l)), |line, m| {
            classifier.observe(line, m > 1);
            shadow.observe(line, m);
            ref_missed.push(m);
        });

        // Runs: one entry each, with its id.
        let mut run_classifier = MissClassifier::new(geoms[1]);
        let mut run_shadow = BandedShadow::new(&geoms);
        let mut run_missed = Vec::with_capacity(runs.len());
        let by_run = MissLog::record_sizes(
            &geoms,
            runs.iter().map(|&(line, id, len)| (line, len, id)),
            |id, m| {
                run_classifier.observe_id(id, m > 1);
                run_shadow.observe_id(id, m);
                run_missed.push(m);
            },
        );

        assert_eq!(by_run, by_ref, "{at}: miss logs");
        for log in &by_run {
            assert_eq!(log.accesses(), lines.len() as u64, "{at}");
        }
        // A run's first reference misses as the run does; its repeats hit.
        let mut expected = ref_missed.iter();
        for (&(_, _, len), &m) in runs.iter().zip(&run_missed) {
            assert_eq!(expected.next(), Some(&m), "{at}");
            for _ in 1..len {
                assert_eq!(expected.next(), Some(&0), "{at}: a repeat missed");
            }
        }
        assert_eq!(expected.next(), None, "{at}");

        assert_eq!(run_classifier.breakdown(), classifier.breakdown(), "{at}");
        assert_eq!(
            run_classifier.distinct_lines(),
            classifier.distinct_lines(),
            "{at}"
        );
        for size in 0..geoms.len() {
            assert_eq!(run_shadow.breakdown(size), shadow.breakdown(size), "{at}");
            assert_eq!(run_shadow.fa_misses(size), shadow.fa_misses(size), "{at}");
        }
        assert_eq!(run_shadow.accesses(), runs.len() as u64, "{at}");

        let mut sweeps = (
            LruSweep::bounded(&GRID).expect("valid grid"),
            FifoSweep::new(&GRID).expect("valid grid"),
        );
        let mut run_sweeps = sweeps.clone();
        for &line in &lines {
            sweeps.0.observe(line);
            sweeps.1.observe(line);
        }
        for &(line, id, _) in &runs {
            run_sweeps.0.observe_id(id, line);
            run_sweeps.1.observe_id(id, line);
        }
        for (sets, ways) in GRID {
            let cell = format!("{at}: {sets}x{ways}");
            assert_eq!(
                run_sweeps.0.misses(sets, ways),
                sweeps.0.misses(sets, ways),
                "{cell}"
            );
            assert_eq!(
                run_sweeps.1.misses(sets, ways),
                sweeps.1.misses(sets, ways),
                "{cell}"
            );
        }
        assert_eq!(run_sweeps.0.cold_refs(), sweeps.0.cold_refs(), "{at}");

        // Where every line is a 16B line of some address, a recorded
        // trace's side view splits the stream into the same runs.
        if lines.iter().all(|l| l.get() <= u64::MAX >> 4) {
            let trace: RecordedTrace = lines
                .iter()
                .map(|l| MemRef::load(Addr::new(l.get() << 4)))
                .collect();
            let view_runs: Vec<(LineAddr, u32, u64)> = trace
                .data_side()
                .runs()
                .map(|run| (run.line, run.id, u64::from(run.len)))
                .collect();
            assert_eq!(view_runs, runs, "{at}: side view runs");
        }
    }
}
