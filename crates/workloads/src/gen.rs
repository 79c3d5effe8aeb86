//! Combining an instruction engine and data patterns into a trace.

use jouppi_trace::{AccessKind, MemRef, SmallRng};

use crate::data::Mixture;
use crate::exec::Executor;

/// How long a trace to generate, in dynamic instructions.
///
/// The paper's traces run 24-145M instructions; the default of one million
/// is enough for stable miss rates on 4KB caches while keeping full
/// experiment sweeps interactive. Raise it (e.g. `repro --scale 5000000`)
/// for smoother curves at large cache sizes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Scale {
    /// Dynamic instruction count of the generated trace.
    pub instructions: u64,
}

impl Scale {
    /// A trace of `instructions` dynamic instructions.
    pub const fn new(instructions: u64) -> Self {
        Scale { instructions }
    }
}

impl Default for Scale {
    fn default() -> Self {
        Scale::new(1_000_000)
    }
}

/// An iterator producing a full benchmark trace: instruction fetches from
/// an [`Executor`] interleaved with data references from a [`Mixture`],
/// at a fixed average data-reference-per-instruction ratio.
///
/// It generates one instruction at a time: the fetch, then that
/// instruction's data reference if it makes one. [`Iterator::next`] holds
/// the data reference back for its following call; [`Iterator::fold`], and
/// so `for_each`, loops over whole instructions with no such check per
/// reference. Both draw through one step, so they yield the same stream.
/// Driven through `fold` on the concrete type, generation makes no dynamic
/// call per reference.
///
/// Created by [`WorkloadSource::generator`](crate::WorkloadSource::generator);
/// exposed for building custom workloads.
pub struct TraceGen {
    exec: Executor,
    data: Mixture,
    rng: SmallRng,
    data_per_instr: f64,
    store_frac: f64,
    remaining: u64,
    pending_data: Option<MemRef>,
}

impl TraceGen {
    /// Builds a generator.
    ///
    /// * `data_per_instr` — average data references per instruction
    ///   (Table 2-1's traces run ≈0.3-0.5),
    /// * `store_frac` — fraction of data references that are stores.
    ///
    /// # Panics
    ///
    /// Panics if `data_per_instr` is negative or greater than 1, if
    /// `store_frac` is outside `[0, 1]` (NaN included), or if `data` is
    /// empty.
    pub fn new(
        exec: Executor,
        data: Mixture,
        rng: SmallRng,
        scale: Scale,
        data_per_instr: f64,
        store_frac: f64,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&data_per_instr),
            "data_per_instr must be in [0,1] (at most one data ref per instruction)"
        );
        assert!(
            (0.0..=1.0).contains(&store_frac),
            "store_frac must be a probability"
        );
        assert!(!data.is_empty(), "the data mixture has no patterns");
        TraceGen {
            exec,
            data,
            rng,
            data_per_instr,
            store_frac,
            remaining: scale.instructions,
            pending_data: None,
        }
    }

    /// Generates one instruction: its fetch, then its data reference if it
    /// makes one. Every per-instruction draw happens here, in this order.
    #[inline]
    fn step(&mut self) -> (MemRef, Option<MemRef>) {
        let fetch = MemRef::instr(self.exec.next_fetch(&mut self.rng));
        // `next_f64() < p` is what `gen_bool(p)` computes after checking
        // `p`, which `new` has checked once.
        if self.data_per_instr > 0.0 && self.rng.next_f64() < self.data_per_instr {
            let addr = self.data.next_addr(&mut self.rng);
            let kind = if self.rng.next_f64() < self.store_frac {
                AccessKind::Store
            } else {
                AccessKind::Load
            };
            (fetch, Some(MemRef::new(addr, kind)))
        } else {
            (fetch, None)
        }
    }
}

impl Iterator for TraceGen {
    type Item = MemRef;

    fn next(&mut self) -> Option<MemRef> {
        if let Some(data_ref) = self.pending_data.take() {
            return Some(data_ref);
        }
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let (fetch, data_ref) = self.step();
        self.pending_data = data_ref;
        Some(fetch)
    }

    fn fold<B, F>(mut self, init: B, mut f: F) -> B
    where
        F: FnMut(B, MemRef) -> B,
    {
        let mut acc = init;
        if let Some(data_ref) = self.pending_data.take() {
            acc = f(acc, data_ref);
        }
        for _ in 0..self.remaining {
            let (fetch, data_ref) = self.step();
            acc = f(acc, fetch);
            if let Some(data_ref) = data_ref {
                acc = f(acc, data_ref);
            }
        }
        acc
    }
}

impl std::fmt::Debug for TraceGen {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceGen")
            .field("remaining_instructions", &self.remaining)
            .field("data_per_instr", &self.data_per_instr)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::StridedSweep;
    use crate::exec::{CodeLayout, ExecConfig};
    use jouppi_trace::TraceStats;

    fn executor() -> Executor {
        Executor::new(CodeLayout::contiguous(0, &[64]), ExecConfig::default())
    }

    fn gen(scale: u64, dpi: f64, store: f64) -> TraceGen {
        TraceGen::new(
            executor(),
            Mixture::new().with(1.0, StridedSweep::new(1 << 20, 8, 1 << 16)),
            SmallRng::seed_from_u64(5),
            Scale::new(scale),
            dpi,
            store,
        )
    }

    #[test]
    fn instruction_count_matches_scale() {
        let stats = TraceStats::from_refs(gen(10_000, 0.4, 0.3));
        assert_eq!(stats.instruction_refs, 10_000);
    }

    #[test]
    fn data_ratio_is_respected() {
        let stats = TraceStats::from_refs(gen(50_000, 0.4, 0.3));
        let ratio = stats.data_per_instr();
        assert!((ratio - 0.4).abs() < 0.02, "expected ~0.4, got {ratio}");
    }

    #[test]
    fn store_fraction_is_respected() {
        let stats = TraceStats::from_refs(gen(50_000, 0.5, 0.25));
        let frac = stats.stores as f64 / stats.data_refs() as f64;
        assert!((frac - 0.25).abs() < 0.03, "expected ~0.25, got {frac}");
    }

    #[test]
    fn data_refs_follow_their_instruction() {
        let refs: Vec<MemRef> = gen(1000, 1.0, 0.0).collect();
        // dpi = 1.0: strict ifetch/data alternation.
        for (i, r) in refs.iter().enumerate() {
            if i % 2 == 0 {
                assert_eq!(r.kind, AccessKind::InstrFetch);
            } else {
                assert_eq!(r.kind, AccessKind::Load);
            }
        }
        assert_eq!(refs.len(), 2000);
    }

    #[test]
    fn zero_dpi_is_pure_instruction_stream() {
        let stats = TraceStats::from_refs(gen(1000, 0.0, 0.0));
        assert_eq!(stats.data_refs(), 0);
        assert_eq!(stats.total_refs(), 1000);
    }

    #[test]
    fn fold_yields_what_next_yields_from_any_point() {
        let all: Vec<MemRef> = gen(2_000, 0.4, 0.3).collect();
        // Stop `next` just after a fetch that made a data reference, so
        // `fold` starts with the held-back reference.
        let split = (1..all.len())
            .find(|&i| all[i - 1].kind.is_instr() && all[i].kind.is_data())
            .expect("the trace has data references");
        let mut stepped = gen(2_000, 0.4, 0.3);
        let mut refs: Vec<MemRef> = stepped.by_ref().take(split).collect();
        stepped.for_each(|r| refs.push(r));
        assert_eq!(refs, all);
    }

    #[test]
    #[should_panic(expected = "data_per_instr")]
    fn ratio_above_one_panics() {
        let _ = gen(10, 1.5, 0.0);
    }

    #[test]
    #[should_panic(expected = "no patterns")]
    fn empty_mixture_panics_at_construction() {
        let _ = TraceGen::new(
            executor(),
            Mixture::new(),
            SmallRng::seed_from_u64(5),
            Scale::new(10),
            0.5,
            0.0,
        );
    }
}
