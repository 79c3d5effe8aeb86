//! Tables 1-1, 2-1, and 2-2 of the paper.

use jouppi_report::{rate, Table};
use jouppi_trace::{SideView, BASE_LINE_SIZE};
use jouppi_workloads::Benchmark;

use crate::common::{baseline_l1, classify_side, per_benchmark, ExperimentConfig, Side};

/// One machine row of Table 1-1 ("the increasing cost of cache misses").
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MachineRow {
    /// Machine name.
    pub machine: &'static str,
    /// Average machine cycles per instruction.
    pub cycles_per_instr: f64,
    /// Processor cycle time in nanoseconds.
    pub cycle_time_ns: f64,
    /// Main-memory access time in nanoseconds.
    pub mem_time_ns: f64,
}

impl MachineRow {
    /// Miss cost in machine cycles: memory time over cycle time.
    pub fn miss_cost_cycles(&self) -> f64 {
        self.mem_time_ns / self.cycle_time_ns
    }

    /// Miss cost in instruction times: cycles over CPI.
    pub fn miss_cost_instr(&self) -> f64 {
        self.miss_cost_cycles() / self.cycles_per_instr
    }
}

/// Result of regenerating Table 1-1.
#[derive(Clone, Debug, PartialEq)]
pub struct Table11 {
    /// The three machines of the paper's table.
    pub rows: Vec<MachineRow>,
}

/// Regenerates Table 1-1 from the machine parameters the paper lists.
pub fn table_1_1() -> Table11 {
    Table11 {
        rows: vec![
            MachineRow {
                machine: "VAX 11/780",
                cycles_per_instr: 10.0,
                cycle_time_ns: 200.0,
                mem_time_ns: 1200.0,
            },
            MachineRow {
                machine: "WRL Titan",
                cycles_per_instr: 1.4,
                cycle_time_ns: 45.0,
                mem_time_ns: 540.0,
            },
            MachineRow {
                machine: "? (future)",
                cycles_per_instr: 0.5,
                cycle_time_ns: 4.0,
                mem_time_ns: 280.0,
            },
        ],
    }
}

impl Table11 {
    /// Renders the table with the derived miss-cost columns.
    pub fn render(&self) -> String {
        let mut t = Table::new([
            "machine",
            "cycles/instr",
            "cycle time (ns)",
            "mem time (ns)",
            "miss cost (cycles)",
            "miss cost (instr)",
        ]);
        for r in &self.rows {
            t.row([
                r.machine.to_owned(),
                format!("{:.1}", r.cycles_per_instr),
                format!("{:.1}", r.cycle_time_ns),
                format!("{:.0}", r.mem_time_ns),
                format!("{:.0}", r.miss_cost_cycles()),
                format!("{:.1}", r.miss_cost_instr()),
            ]);
        }
        format!("Table 1-1: the increasing cost of cache misses\n{t}")
    }
}

/// One benchmark row of the regenerated Table 2-1.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Table21Row {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Dynamic instructions generated.
    pub dynamic_instr: u64,
    /// Data references generated.
    pub data_refs: u64,
    /// Total references generated.
    pub total_refs: u64,
    /// Distinct instruction bytes touched (16B granularity).
    pub instr_footprint: u64,
    /// Distinct data bytes touched (16B granularity).
    pub data_footprint: u64,
}

/// Result of regenerating Table 2-1 (test program characteristics).
#[derive(Clone, Debug, PartialEq)]
pub struct Table21 {
    /// One row per benchmark.
    pub rows: Vec<Table21Row>,
}

/// Regenerates Table 2-1 by generating and measuring each trace.
pub fn table_2_1(cfg: &ExperimentConfig) -> Table21 {
    let rows = per_benchmark(cfg, |b, trace| {
        let s = trace.stats();
        // A side's distinct 16B lines are its line ids.
        let bytes = |side: &SideView| side.lines_by_id().len() as u64 * BASE_LINE_SIZE;
        Table21Row {
            benchmark: b,
            dynamic_instr: s.instruction_refs,
            data_refs: s.data_refs(),
            total_refs: s.total_refs(),
            instr_footprint: bytes(trace.instr_side()),
            data_footprint: bytes(trace.data_side()),
        }
    })
    .into_iter()
    .map(|(_, r)| r)
    .collect();
    Table21 { rows }
}

impl Table21 {
    /// Renders the table, with the paper's (millions-scale) counts beside
    /// the synthetic trace's counts.
    pub fn render(&self) -> String {
        let mut t = Table::new([
            "program",
            "dyn. instr",
            "data refs",
            "total refs",
            "data/instr",
            "paper d/i",
            "code KB",
            "data KB",
            "type",
        ]);
        for r in &self.rows {
            let row = r.benchmark.paper_row();
            t.row([
                r.benchmark.name().to_owned(),
                r.dynamic_instr.to_string(),
                r.data_refs.to_string(),
                r.total_refs.to_string(),
                format!("{:.3}", r.data_refs as f64 / r.dynamic_instr as f64),
                format!("{:.3}", r.benchmark.data_per_instr()),
                (r.instr_footprint / 1024).to_string(),
                (r.data_footprint / 1024).to_string(),
                row.program_type.to_owned(),
            ]);
        }
        format!("Table 2-1: test program characteristics (synthetic traces)\n{t}")
    }
}

/// One row of the regenerated Table 2-2.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Table22Row {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Measured baseline instruction-cache miss rate.
    pub instr_miss_rate: f64,
    /// Measured baseline data-cache miss rate.
    pub data_miss_rate: f64,
}

/// Result of regenerating Table 2-2 (baseline first-level miss rates).
#[derive(Clone, Debug, PartialEq)]
pub struct Table22 {
    /// One row per benchmark.
    pub rows: Vec<Table22Row>,
}

/// Regenerates Table 2-2: baseline 4KB/16B direct-mapped miss rates.
pub fn table_2_2(cfg: &ExperimentConfig) -> Table22 {
    let geom = baseline_l1();
    let rows = per_benchmark(cfg, |b, trace| {
        let (i_misses, _) = classify_side(trace, Side::Instruction, geom);
        let (d_misses, _) = classify_side(trace, Side::Data, geom);
        let s = trace.stats();
        Table22Row {
            benchmark: b,
            instr_miss_rate: i_misses as f64 / s.instruction_refs.max(1) as f64,
            data_miss_rate: d_misses as f64 / s.data_refs().max(1) as f64,
        }
    })
    .into_iter()
    .map(|(_, r)| r)
    .collect();
    Table22 { rows }
}

impl Table22 {
    /// Renders measured-vs-paper miss rates.
    pub fn render(&self) -> String {
        let mut t = Table::new([
            "program",
            "I-miss (ours)",
            "I-miss (paper)",
            "D-miss (ours)",
            "D-miss (paper)",
        ]);
        for r in &self.rows {
            let p = r.benchmark.paper_row();
            t.row([
                r.benchmark.name().to_owned(),
                rate(r.instr_miss_rate),
                rate(p.baseline_instr_miss_rate),
                rate(r.data_miss_rate),
                rate(p.baseline_data_miss_rate),
            ]);
        }
        format!("Table 2-2: baseline system first-level cache miss rates\n{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_1_1_matches_paper_numbers() {
        let t = table_1_1();
        assert_eq!(t.rows.len(), 3);
        let vax = &t.rows[0];
        assert!((vax.miss_cost_cycles() - 6.0).abs() < 0.01);
        assert!((vax.miss_cost_instr() - 0.6).abs() < 0.01);
        let titan = &t.rows[1];
        assert!((titan.miss_cost_cycles() - 12.0).abs() < 0.01);
        assert!((titan.miss_cost_instr() - 8.57).abs() < 0.01);
        let future = &t.rows[2];
        assert!((future.miss_cost_cycles() - 70.0).abs() < 0.01);
        assert!((future.miss_cost_instr() - 140.0).abs() < 0.01);
        assert!(t.render().contains("VAX 11/780"));
    }

    #[test]
    fn table_2_1_counts_are_consistent() {
        let cfg = ExperimentConfig::with_scale(5_000);
        let t = table_2_1(&cfg);
        assert_eq!(t.rows.len(), 6);
        for r in &t.rows {
            assert_eq!(r.total_refs, r.dynamic_instr + r.data_refs);
            assert_eq!(r.dynamic_instr, 5_000);
            assert!(r.data_footprint > 0, "{}: no data footprint", r.benchmark);
        }
        assert!(t.render().contains("linpack"));
    }

    #[test]
    fn table_2_1_footprints_count_each_sides_distinct_16b_lines() {
        let cfg = ExperimentConfig::with_scale(5_000);
        let naive = per_benchmark(&cfg, |_, trace| {
            let bytes = |data: bool| {
                let lines: std::collections::BTreeSet<u64> = trace
                    .as_slice()
                    .iter()
                    .filter(|r| r.kind.is_data() == data)
                    .map(|r| r.addr.line(16).get())
                    .collect();
                lines.len() as u64 * 16
            };
            (bytes(false), bytes(true))
        });
        for (row, (b, want)) in table_2_1(&cfg).rows.iter().zip(naive) {
            assert_eq!((row.instr_footprint, row.data_footprint), want, "{b}");
        }
    }

    #[test]
    fn table_2_2_rates_are_plausible() {
        let cfg = ExperimentConfig::with_scale(60_000);
        let t = table_2_2(&cfg);
        for r in &t.rows {
            assert!(r.instr_miss_rate < 0.3, "{}", r.benchmark);
            assert!(r.data_miss_rate < 0.5, "{}", r.benchmark);
        }
        // Numeric codes have near-zero instruction miss rates.
        let linpack = t.rows.iter().find(|r| r.benchmark == Benchmark::Linpack);
        assert!(linpack.unwrap().instr_miss_rate < 0.01);
        assert!(t.render().contains("paper"));
    }
}
