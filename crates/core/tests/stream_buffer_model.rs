//! Randomized equivalence of the compact `StreamBuffer` and a naive FIFO
//! model, and of `MissLog::stream_run_sweep` and a replay.
//!
//! `StreamBuffer` keeps only its head, its stride and the lines left in
//! its run, plus a ring of ready ticks when prefetches take time. The
//! model here is the buffer written the obvious way: a `VecDeque` of
//! prefetched lines with their ready ticks, refilled to its depth after
//! every restart and every head hit. Driving both with the same
//! operations must give the same probes and the same observers at every
//! step.
//!
//! The run-length family answers every run budget of a lone sequential
//! buffer from one scan of a miss log's chains. Each budget must equal a
//! replay of the log through that buffer.
//!
//! Randomness comes from the workspace's seeded xoshiro PRNG, so every
//! failure reproduces from the printed seed and round.

use std::collections::VecDeque;

use jouppi_cache::CacheGeometry;
use jouppi_core::{AugmentedConfig, MissLog, StreamBuffer, StreamBufferConfig, StreamProbe};
use jouppi_trace::{LineAddr, SmallRng};

const SEED: u64 = 0x5354_5245_414d_5342; // "STREAMSB"
const ROUNDS: usize = 200;

/// The stream buffer as a FIFO of `(line, ready tick)` entries.
struct Model {
    cfg: StreamBufferConfig,
    queue: VecDeque<(LineAddr, u64)>,
    next_line: LineAddr,
    stride: i64,
    run_remaining: usize,
    active: bool,
    last_use: u64,
}

impl Model {
    fn new(cfg: StreamBufferConfig) -> Self {
        Model {
            cfg,
            queue: VecDeque::new(),
            next_line: LineAddr::new(0),
            stride: 1,
            run_remaining: 0,
            active: false,
            last_use: 0,
        }
    }

    fn probe(&self, line: LineAddr, now: u64) -> StreamProbe {
        match self.queue.front() {
            Some(&(head, ready_at)) if head == line => {
                if ready_at <= now {
                    StreamProbe::HitReady
                } else {
                    StreamProbe::HitPending {
                        remaining: ready_at - now,
                    }
                }
            }
            _ => StreamProbe::Miss,
        }
    }

    fn probe_consume(&mut self, line: LineAddr, now: u64) -> StreamProbe {
        let probe = self.probe(line, now);
        if probe.is_hit() {
            self.queue.pop_front();
            self.last_use = now;
            self.refill(now);
        }
        probe
    }

    fn restart_strided(&mut self, miss: LineAddr, stride: i64, now: u64) {
        self.queue.clear();
        self.stride = stride;
        self.next_line = LineAddr::new(miss.get().wrapping_add_signed(stride));
        self.run_remaining = self.cfg.run_limit().unwrap_or(usize::MAX);
        self.active = true;
        self.last_use = now;
        self.refill(now);
    }

    fn flush(&mut self) {
        self.queue.clear();
        self.run_remaining = 0;
        self.active = false;
    }

    fn refill(&mut self, now: u64) {
        while self.queue.len() < self.cfg.depth() && self.run_remaining > 0 {
            self.queue
                .push_back((self.next_line, now + self.cfg.latency_ticks()));
            self.next_line = LineAddr::new(self.next_line.get().wrapping_add_signed(self.stride));
            self.run_remaining -= 1;
        }
    }
}

/// Every observer of `sb` agrees with the model.
fn assert_same(sb: &StreamBuffer, model: &Model, at: &str) {
    assert_eq!(sb.head(), model.queue.front().map(|e| e.0), "{at}: head");
    assert_eq!(sb.len(), model.queue.len(), "{at}: len");
    assert_eq!(sb.is_empty(), model.queue.is_empty(), "{at}: is_empty");
    assert_eq!(sb.is_active(), model.active, "{at}: is_active");
    assert_eq!(sb.last_use(), model.last_use, "{at}: last_use");
    assert_eq!(sb.stride(), model.stride, "{at}: stride");
    for &(line, _) in &model.queue {
        assert!(sb.contains(line), "{at}: contains {line}");
    }
}

/// A buffer configuration: depth 1–5; run limit 0, 1, none or 2–20;
/// latency 0 or 1–30.
fn config(rng: &mut SmallRng) -> StreamBufferConfig {
    let cfg = StreamBufferConfig::new(1 + rng.below(5));
    let cfg = match rng.below(4) {
        0 => cfg.max_run(0),
        1 => cfg.max_run(1),
        2 => cfg,
        _ => cfg.max_run(2 + rng.below(19)),
    };
    if rng.below(2) == 0 {
        cfg
    } else {
        cfg.latency(1 + rng.below(30) as u64)
    }
}

/// Strides a restart draws from: mostly sequential, and negative and
/// non-unit ones.
const STRIDES: [i64; 7] = [1, 1, 1, -1, 2, -3, 50];

#[test]
fn compact_buffer_matches_the_fifo_model() {
    let mut rng = SmallRng::seed_from_u64(SEED);
    for round in 0..ROUNDS {
        let cfg = config(&mut rng);
        // Half the rounds live at the top of the line space, so runs and
        // strides wrap past u64::MAX.
        let base = if round % 2 == 0 { 1_000 } else { u64::MAX - 40 };
        let mut sb = StreamBuffer::new(cfg);
        let mut model = Model::new(cfg);
        let mut now = 0;
        for op in 0..300 {
            let at = format!("seed {SEED:#x} round {round} op {op}: {cfg:?}");
            now += rng.below(3) as u64;
            // The head most of the time, else a line a few strides down
            // the FIFO or anywhere near the base.
            let line = match (rng.below(4), model.queue.front()) {
                (0 | 1, Some(&(head, _))) => head,
                (2, Some(_)) => model.queue[rng.below(model.queue.len())].0,
                _ => LineAddr::new(base.wrapping_add(rng.below(80) as u64)),
            };
            match rng.below(10) {
                0..=5 => {
                    let probe = sb.probe_consume(line, now);
                    assert_eq!(probe, model.probe_consume(line, now), "{at}: consume");
                    if probe == StreamProbe::Miss && rng.below(4) != 0 {
                        let stride = STRIDES[rng.below(STRIDES.len())];
                        if stride == 1 {
                            sb.restart(line, now);
                        } else {
                            sb.restart_strided(line, stride, now);
                        }
                        model.restart_strided(line, stride, now);
                    }
                }
                6 | 7 => assert_eq!(sb.probe(line, now), model.probe(line, now), "{at}: probe"),
                8 => assert_eq!(
                    sb.contains(line),
                    model.queue.iter().any(|e| e.0 == line),
                    "{at}: contains {line}"
                ),
                _ => {
                    if rng.below(4) == 0 {
                        sb.flush();
                        model.flush();
                    }
                }
            }
            assert_same(&sb, &model, &at);
        }
    }
}

/// `1..len` lines: a few interleaved streams, each advancing one line at
/// a time for a chain of up to 60 lines before it jumps, with repeats
/// (L1 hits, which never reach the buffer) and stray lines between.
fn streams(rng: &mut SmallRng, len: usize) -> Vec<LineAddr> {
    // Some rounds start near the top of the line space, so chains wrap.
    let base = if rng.below(3) == 0 {
        u64::MAX - 30
    } else {
        rng.below(1 << 20) as u64
    };
    let mut heads: Vec<(u64, usize)> = (0..1 + rng.below(3))
        .map(|s| (base.wrapping_add(s as u64 * 10_000), 1 + rng.below(60)))
        .collect();
    let mut lines = Vec::with_capacity(len);
    while lines.len() < len {
        let s = rng.below(heads.len());
        let (line, left) = &mut heads[s];
        match rng.below(10) {
            0 => lines.push(LineAddr::new(base.wrapping_add(rng.below(5_000) as u64))),
            1 if !lines.is_empty() => lines.push(lines[lines.len() - 1]),
            _ => {
                lines.push(LineAddr::new(*line));
                *line = line.wrapping_add(1);
                *left -= 1;
                if *left == 0 {
                    *line = line.wrapping_add(1 + rng.below(9) as u64);
                    *left = 1 + rng.below(60);
                }
            }
        }
    }
    lines
}

#[test]
fn stream_run_sweep_equals_replay() {
    // Run budgets 0..=16 (chains run longer), unlimited, and the largest
    // budget, which is unlimited too.
    let max_runs: Vec<Option<usize>> = (0..=16).map(Some).chain([None, Some(usize::MAX)]).collect();
    let mut rng = SmallRng::seed_from_u64(SEED ^ 1);
    for round in 0..ROUNDS {
        // A tiny L1, where nearly every new line misses, or the paper's.
        let size = if round % 2 == 0 { 8 * 16 } else { 4096 };
        let geom = CacheGeometry::direct_mapped(size, 16).expect("power-of-two geometry");
        let len = 50 + rng.below(1_000);
        let lines = streams(&mut rng, len);
        let log = MissLog::record(geom, lines.iter().copied());
        let depth = 1 + rng.below(5);
        let cfgs: Vec<AugmentedConfig> = max_runs
            .iter()
            .map(|max_run| {
                let sb = StreamBufferConfig::new(depth);
                AugmentedConfig::new(geom).stream_buffer(match *max_run {
                    Some(r) => sb.max_run(r),
                    None => sb,
                })
            })
            .collect();
        let sweep = log.stream_run_sweep(&max_runs);
        for (cfg, stats) in cfgs.iter().zip(&sweep) {
            assert_eq!(
                *stats,
                log.replay(cfg),
                "seed {SEED:#x} round {round}: {cfg:?}"
            );
        }
        assert_eq!(log.fan_out(&cfgs), sweep, "seed {SEED:#x} round {round}");
        // Lone buffers the chain scan must leave to a replay: a latency,
        // stride detection, a conflict aid.
        let base = AugmentedConfig::new(geom);
        let sb = StreamBufferConfig::new(depth);
        let others = [
            base.stream_buffer(sb.latency(5)),
            base.strided_stream_buffer(1, sb, 16),
            base.victim_cache(2).stream_buffer(sb),
            base.miss_cache(2).stream_buffer(sb),
        ];
        for (cfg, stats) in others.iter().zip(log.fan_out(&others)) {
            assert_eq!(
                stats,
                log.replay(cfg),
                "seed {SEED:#x} round {round}: {cfg:?}"
            );
        }
    }
    let log = MissLog::record(
        CacheGeometry::direct_mapped(4096, 16).expect("power-of-two geometry"),
        std::iter::empty(),
    );
    assert!(log.stream_run_sweep(&[]).is_empty());
}
