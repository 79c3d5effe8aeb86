//! The instruction-fetch engine: procedures, loops, calls, and returns.
//!
//! Instruction streams dominate the paper's instruction-cache results:
//! conflicts are "widely spaced because the instructions within one
//! procedure will not conflict with each other as long as the procedure
//! size is less than the cache size … instruction conflict misses are most
//! likely when another procedure is called" (§3.1). This module models
//! exactly that structure: a code segment holding procedures back to back,
//! a call-graph random walk with configurable fan-out skew, per-procedure
//! inner loops, and sequential fetch within procedure bodies.

use jouppi_trace::{Addr, SmallRng};

use crate::data::zipf_cumulative;

/// Bytes per instruction (the paper's machines are 32-bit RISCs).
pub const INSTR_BYTES: u64 = 4;

/// A procedure: a contiguous run of instructions, optionally containing
/// one inner loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Proc {
    /// First instruction's byte address.
    pub base: Addr,
    /// Body length in instructions.
    pub len: u32,
    /// Inner loop as `(start, end, iterations)` instruction offsets:
    /// executing instruction `end` jumps back to `start` until the loop
    /// has run `iterations` times per invocation of the procedure.
    pub inner_loop: Option<(u32, u32, u32)>,
}

/// A code segment: procedures packed contiguously.
#[derive(Clone, Debug)]
pub struct CodeLayout {
    procs: Vec<Proc>,
}

impl CodeLayout {
    /// Packs procedures of the given instruction lengths contiguously
    /// starting at `code_base`, with no inner loops.
    ///
    /// # Panics
    ///
    /// Panics if `lengths` is empty or contains a zero.
    pub fn contiguous(code_base: u64, lengths: &[u32]) -> Self {
        assert!(
            !lengths.is_empty(),
            "a program needs at least one procedure"
        );
        let mut procs = Vec::with_capacity(lengths.len());
        let mut base = code_base;
        for &len in lengths {
            assert!(len > 0, "procedures must have at least one instruction");
            procs.push(Proc {
                base: Addr::new(base),
                len,
                inner_loop: None,
            });
            base += u64::from(len) * INSTR_BYTES;
        }
        CodeLayout { procs }
    }

    /// Gives procedure `idx` an inner loop.
    ///
    /// # Panics
    ///
    /// Panics if the loop bounds fall outside the procedure body or are
    /// inverted.
    pub fn with_loop(mut self, idx: usize, start: u32, end: u32, iterations: u32) -> Self {
        let p = &mut self.procs[idx];
        assert!(start < end && end < p.len, "loop must sit inside the body");
        p.inner_loop = Some((start, end, iterations));
        self
    }

    /// The procedures in layout order.
    pub fn procs(&self) -> &[Proc] {
        &self.procs
    }

    /// Total code footprint in bytes.
    pub fn footprint(&self) -> u64 {
        self.procs
            .iter()
            .map(|p| u64::from(p.len) * INSTR_BYTES)
            .sum()
    }
}

/// Tunables for the call-graph random walk.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExecConfig {
    /// Probability per instruction of calling another procedure (when
    /// below `max_depth`).
    pub call_prob: f64,
    /// Maximum call-stack depth.
    pub max_depth: usize,
    /// Skew of callee selection: callees are ranked and picked with
    /// probability ∝ 1/(rank+1)^`callee_skew`. 0.0 = uniform; larger
    /// values concentrate execution in a few hot procedures (more
    /// instruction-cache locality).
    pub callee_skew: f64,
    /// When a top-level procedure finishes, run the next procedure in
    /// layout order instead of dispatching randomly. Models programs that
    /// execute phases in sequence (`liver`'s 14 kernels).
    pub sequential_dispatch: bool,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            call_prob: 0.02,
            max_depth: 8,
            callee_skew: 1.0,
            sequential_dispatch: false,
        }
    }
}

/// Walks a [`CodeLayout`], producing the instruction-fetch address stream.
///
/// # Examples
///
/// A single straight-line procedure fetches sequentially and wraps:
///
/// ```
/// use jouppi_trace::SmallRng;
/// use jouppi_workloads::exec::{CodeLayout, ExecConfig, Executor, INSTR_BYTES};
///
/// let layout = CodeLayout::contiguous(0x10000, &[4]);
/// let cfg = ExecConfig { call_prob: 0.0, ..ExecConfig::default() };
/// let mut rng = SmallRng::seed_from_u64(1);
/// let mut exec = Executor::new(layout, cfg);
/// let fetches: Vec<u64> = (0..5).map(|_| exec.next_fetch(&mut rng).get()).collect();
/// assert_eq!(fetches, vec![0x10000, 0x10004, 0x10008, 0x1000c, 0x10000]);
/// ```
#[derive(Clone, Debug)]
pub struct Executor {
    layout: CodeLayout,
    cfg: ExecConfig,
    /// Cumulative callee-selection weights over rank; rank r is
    /// procedure r.
    cum_weights: Vec<f64>,
    stack: Vec<Frame>,
    cur: Frame,
}

#[derive(Clone, Copy, Debug)]
struct Frame {
    proc: usize,
    offset: u32,
    loop_iters_left: u32,
}

impl Executor {
    /// Creates an executor starting at the first procedure.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.call_prob` is outside `[0, 1]` (NaN included), or if
    /// the callee weights' total is not finite and positive (a NaN
    /// `cfg.callee_skew`, or one so negative that a weight overflows).
    pub fn new(layout: CodeLayout, cfg: ExecConfig) -> Self {
        assert!(
            (0.0..=1.0).contains(&cfg.call_prob),
            "call_prob {} must be a probability",
            cfg.call_prob
        );
        // Rank r has weight 1/(r+1)^skew. Rank r is procedure r, which
        // keeps hot procedures at the front of the layout, as linkers tend
        // to lay out call-graph-ordered code.
        let cum = zipf_cumulative(layout.procs.len(), cfg.callee_skew);
        let start = Frame {
            proc: 0,
            offset: 0,
            loop_iters_left: layout.procs[0].inner_loop.map_or(0, |(_, _, i)| i),
        };
        Executor {
            layout,
            cfg,
            cum_weights: cum,
            stack: Vec::new(),
            cur: start,
        }
    }

    /// The code layout being executed.
    pub fn layout(&self) -> &CodeLayout {
        &self.layout
    }

    /// Current call-stack depth (0 = top level).
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Produces the next instruction-fetch address and advances control.
    #[inline]
    pub fn next_fetch(&mut self, rng: &mut SmallRng) -> Addr {
        let proc = self.layout.procs[self.cur.proc];
        let addr = proc.base + u64::from(self.cur.offset) * INSTR_BYTES;

        // Advance control flow past the instruction just fetched.
        let at_loop_end = matches!(proc.inner_loop, Some((_, end, _)) if self.cur.offset == end);
        if at_loop_end && self.cur.loop_iters_left > 0 {
            self.cur.loop_iters_left -= 1;
            let (start, _, _) = proc.inner_loop.expect("checked above");
            self.cur.offset = start;
        } else if self.cur.offset + 1 >= proc.len {
            self.return_or_restart(rng);
        } else {
            self.cur.offset += 1;
            // A call site? `new` checked the probability, so the draw is
            // `gen_bool`'s comparison without its check.
            if self.stack.len() < self.cfg.max_depth
                && self.cfg.call_prob > 0.0
                && rng.next_f64() < self.cfg.call_prob
            {
                let callee = self.pick_callee(rng);
                self.stack.push(self.cur);
                self.cur = self.entry_frame(callee);
            }
        }
        addr
    }

    fn return_or_restart(&mut self, rng: &mut SmallRng) {
        match self.stack.pop() {
            Some(frame) => self.cur = frame,
            None => {
                // Top-level procedure finished: the "main loop" dispatches
                // to another procedure.
                let next = if self.cfg.sequential_dispatch {
                    (self.cur.proc + 1) % self.layout.procs.len()
                } else {
                    self.pick_callee(rng)
                };
                self.cur = self.entry_frame(next);
            }
        }
    }

    fn entry_frame(&self, proc: usize) -> Frame {
        Frame {
            proc,
            offset: 0,
            loop_iters_left: self.layout.procs[proc].inner_loop.map_or(0, |(_, _, i)| i),
        }
    }

    fn pick_callee(&self, rng: &mut SmallRng) -> usize {
        let total = *self.cum_weights.last().expect("nonempty layout");
        let x: f64 = rng.gen_range(0.0..total);
        self.cum_weights
            .partition_point(|&c| c < x)
            .min(self.cum_weights.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(7)
    }

    #[test]
    fn contiguous_layout_packs_back_to_back() {
        let l = CodeLayout::contiguous(0x1000, &[10, 20, 30]);
        assert_eq!(l.procs()[0].base, Addr::new(0x1000));
        assert_eq!(l.procs()[1].base, Addr::new(0x1000 + 40));
        assert_eq!(l.procs()[2].base, Addr::new(0x1000 + 40 + 80));
        assert_eq!(l.footprint(), 60 * INSTR_BYTES);
    }

    #[test]
    fn straight_line_fetch_is_sequential() {
        let l = CodeLayout::contiguous(0, &[8]);
        let cfg = ExecConfig {
            call_prob: 0.0,
            ..ExecConfig::default()
        };
        let mut e = Executor::new(l, cfg);
        let mut r = rng();
        for i in 0..8u64 {
            assert_eq!(e.next_fetch(&mut r), Addr::new(i * 4));
        }
        // Wraps to some procedure start (only one exists).
        assert_eq!(e.next_fetch(&mut r), Addr::new(0));
    }

    #[test]
    fn inner_loop_repeats_body() {
        // 5-instruction proc with a loop over [1..3] running 2 extra times.
        let l = CodeLayout::contiguous(0, &[5]).with_loop(0, 1, 3, 2);
        let cfg = ExecConfig {
            call_prob: 0.0,
            ..ExecConfig::default()
        };
        let mut e = Executor::new(l, cfg);
        let mut r = rng();
        let seq: Vec<u64> = (0..14).map(|_| e.next_fetch(&mut r).get() / 4).collect();
        assert_eq!(seq, vec![0, 1, 2, 3, 1, 2, 3, 1, 2, 3, 4, 0, 1, 2]);
    }

    #[test]
    fn calls_push_and_return_resumes() {
        let l = CodeLayout::contiguous(0, &[100, 10]);
        let cfg = ExecConfig {
            call_prob: 0.5,
            max_depth: 4,
            callee_skew: 0.0,
            sequential_dispatch: false,
        };
        let mut e = Executor::new(l, cfg);
        let mut r = rng();
        let mut max_depth_seen = 0;
        for _ in 0..10_000 {
            e.next_fetch(&mut r);
            max_depth_seen = max_depth_seen.max(e.depth());
        }
        assert!(max_depth_seen > 0, "calls should occur");
        assert!(max_depth_seen <= 4, "depth limit respected");
    }

    #[test]
    fn skew_concentrates_execution() {
        let lengths = vec![50u32; 32];
        let run = |skew: f64| {
            let cfg = ExecConfig {
                call_prob: 0.05,
                max_depth: 6,
                callee_skew: skew,
                sequential_dispatch: false,
            };
            let mut e = Executor::new(CodeLayout::contiguous(0, &lengths), cfg);
            let mut r = rng();
            let mut first_proc_fetches = 0u64;
            let total = 100_000;
            for _ in 0..total {
                let a = e.next_fetch(&mut r).get();
                if a < 50 * 4 {
                    first_proc_fetches += 1;
                }
            }
            first_proc_fetches
        };
        let uniform = run(0.0);
        let skewed = run(2.0);
        assert!(
            skewed > uniform * 2,
            "skew 2.0 ({skewed}) should focus on proc 0 vs uniform ({uniform})"
        );
    }

    #[test]
    fn all_fetches_stay_inside_the_code_segment() {
        let lengths = vec![30u32, 60, 90, 120];
        let layout = CodeLayout::contiguous(0x4_0000, &lengths);
        let lo = 0x4_0000;
        let hi = lo + layout.footprint();
        let mut e = Executor::new(layout, ExecConfig::default());
        let mut r = rng();
        for _ in 0..50_000 {
            let a = e.next_fetch(&mut r).get();
            assert!(a >= lo && a < hi, "fetch {a:#x} escaped [{lo:#x},{hi:#x})");
        }
    }

    #[test]
    fn deterministic_given_same_seed() {
        let make = || {
            let cfg = ExecConfig::default();
            Executor::new(CodeLayout::contiguous(0, &[40, 40, 40]), cfg)
        };
        let mut a = make();
        let mut b = make();
        let mut ra = SmallRng::seed_from_u64(99);
        let mut rb = SmallRng::seed_from_u64(99);
        for _ in 0..10_000 {
            assert_eq!(a.next_fetch(&mut ra), b.next_fetch(&mut rb));
        }
    }

    #[test]
    #[should_panic(expected = "call_prob")]
    fn call_prob_above_one_panics_at_construction() {
        let cfg = ExecConfig {
            call_prob: 1.5,
            ..ExecConfig::default()
        };
        let _ = Executor::new(CodeLayout::contiguous(0, &[8]), cfg);
    }

    #[test]
    #[should_panic(expected = "call_prob")]
    fn nan_call_prob_panics_at_construction() {
        let cfg = ExecConfig {
            call_prob: f64::NAN,
            ..ExecConfig::default()
        };
        let _ = Executor::new(CodeLayout::contiguous(0, &[8]), cfg);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn nan_callee_skew_panics_at_construction() {
        let cfg = ExecConfig {
            callee_skew: f64::NAN,
            ..ExecConfig::default()
        };
        let _ = Executor::new(CodeLayout::contiguous(0, &[8, 8]), cfg);
    }

    #[test]
    #[should_panic(expected = "at least one procedure")]
    fn empty_layout_panics() {
        let _ = CodeLayout::contiguous(0, &[]);
    }

    #[test]
    #[should_panic(expected = "inside the body")]
    fn bad_loop_bounds_panic() {
        let _ = CodeLayout::contiguous(0, &[5]).with_loop(0, 2, 5, 3);
    }
}
