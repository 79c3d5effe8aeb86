//! Memory-footprint accounting: how much distinct memory a trace touches.

#![expect(
    clippy::disallowed_types,
    reason = "only `len()` is ever read from these sets (iteration order is unobservable), \
              and jouppi-trace sits below jouppi-cache in the dependency graph, so the Fx \
              aliases are unreachable"
)]

use std::collections::HashSet;

use crate::{AccessKind, MemRef};

/// Tracks the distinct cache lines a reference stream touches, split by
/// access kind.
///
/// Footprints determine which level of the paper's hierarchy a workload
/// stresses: a data footprint below 4KB never misses for capacity in L1;
/// one beyond 1MB defeats the baseline L2. The granularity is fixed at
/// construction (usually a line size).
///
/// # Examples
///
/// ```
/// use jouppi_trace::{Addr, Footprint, MemRef};
///
/// let mut f = Footprint::new(16);
/// f.observe(MemRef::instr(Addr::new(0x100)));
/// f.observe(MemRef::instr(Addr::new(0x104))); // same 16B line
/// f.observe(MemRef::load(Addr::new(0x2000)));
/// assert_eq!(f.instr_lines(), 1);
/// assert_eq!(f.data_lines(), 1);
/// assert_eq!(f.data_bytes(), 16);
/// ```
#[derive(Clone, Debug)]
pub struct Footprint {
    granularity: u64,
    instr: HashSet<u64>,
    data: HashSet<u64>,
}

impl Footprint {
    /// Creates a tracker at the given granularity in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `granularity` is not a power of two.
    pub fn new(granularity: u64) -> Self {
        assert!(
            granularity.is_power_of_two(),
            "granularity must be a power of two"
        );
        Footprint {
            granularity,
            instr: HashSet::new(),
            data: HashSet::new(),
        }
    }

    /// The tracking granularity in bytes.
    pub fn granularity(&self) -> u64 {
        self.granularity
    }

    /// Observes one reference.
    pub fn observe(&mut self, r: MemRef) {
        let line = r.addr.line(self.granularity).get();
        match r.kind {
            AccessKind::InstrFetch => {
                self.instr.insert(line);
            }
            AccessKind::Load | AccessKind::Store => {
                self.data.insert(line);
            }
        }
    }

    /// Observes a whole stream.
    pub fn observe_all<I: IntoIterator<Item = MemRef>>(&mut self, refs: I) {
        for r in refs {
            self.observe(r);
        }
    }

    /// Distinct instruction lines touched.
    pub fn instr_lines(&self) -> usize {
        self.instr.len()
    }

    /// Distinct data lines touched.
    pub fn data_lines(&self) -> usize {
        self.data.len()
    }

    /// Instruction footprint in bytes.
    pub fn instr_bytes(&self) -> u64 {
        self.instr.len() as u64 * self.granularity
    }

    /// Data footprint in bytes.
    pub fn data_bytes(&self) -> u64 {
        self.data.len() as u64 * self.granularity
    }

    /// Total footprint in bytes (instruction + data; code and data spaces
    /// are assumed disjoint, as in the paper's machines).
    pub fn total_bytes(&self) -> u64 {
        self.instr_bytes() + self.data_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Addr;

    #[test]
    fn counts_distinct_lines_per_side() {
        let mut f = Footprint::new(16);
        f.observe_all([
            MemRef::instr(Addr::new(0)),
            MemRef::instr(Addr::new(15)),
            MemRef::instr(Addr::new(16)),
            MemRef::load(Addr::new(1000)),
            MemRef::store(Addr::new(1000)),
            MemRef::load(Addr::new(5000)),
        ]);
        assert_eq!(f.instr_lines(), 2);
        assert_eq!(f.data_lines(), 2);
        assert_eq!(f.instr_bytes(), 32);
        assert_eq!(f.total_bytes(), 64);
        assert_eq!(f.granularity(), 16);
    }

    #[test]
    fn granularity_merges_neighbours() {
        let mut fine = Footprint::new(16);
        let mut coarse = Footprint::new(128);
        for i in 0..16u64 {
            let r = MemRef::load(Addr::new(i * 16));
            fine.observe(r);
            coarse.observe(r);
        }
        assert_eq!(fine.data_lines(), 16);
        assert_eq!(coarse.data_lines(), 2);
        assert_eq!(fine.data_bytes(), coarse.data_bytes());
    }

    #[test]
    fn empty_footprint_is_zero() {
        let f = Footprint::new(64);
        assert_eq!(f.instr_lines(), 0);
        assert_eq!(f.data_bytes(), 0);
        assert_eq!(f.total_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_granularity_panics() {
        let _ = Footprint::new(48);
    }
}
