//! The median benchmark: sorting-based median of an array of values.
//!
//! Control/compare heavy with very few multiplications — the kernel the
//! paper uses for its detailed frequency/voltage/noise sweeps (Figs. 1, 5
//! and 7).

use crate::data::random_values;
use crate::Benchmark;
use sfi_cpu::Memory;
use sfi_isa::program::ProgramBuilder;
use sfi_isa::{Instruction, Program, Reg};
use std::ops::Range;
use std::sync::OnceLock;

/// Median of `n` values via in-place bubble sort, as a runnable benchmark.
#[derive(Debug, Clone)]
pub struct MedianBenchmark {
    values: Vec<u32>,
    program: Program,
    fi_window: Range<u32>,
    /// The golden output, computed on first use.
    golden: OnceLock<u32>,
}

impl MedianBenchmark {
    /// Byte address of the input array.
    const ARRAY_BASE: u32 = 0;

    /// Creates the benchmark for `n` values (the paper uses 129) with a
    /// seeded random workload.
    ///
    /// # Panics
    ///
    /// Panics if `n < 3` or `n` is even (an odd count keeps the median a
    /// single array element).
    pub fn new(n: usize, seed: u64) -> Self {
        assert!(
            n >= 3 && n % 2 == 1,
            "median size must be an odd number >= 3, got {n}"
        );
        let values = random_values(n, 1 << 16, seed);
        let (program, fi_window) = Self::build_program(n);
        MedianBenchmark {
            values,
            program,
            fi_window,
            golden: OnceLock::new(),
        }
    }

    fn output_address(&self) -> u32 {
        Self::ARRAY_BASE + 4 * self.values.len() as u32
    }

    /// The golden (fault-free) median of the input values.
    pub fn golden_median(&self) -> u32 {
        *self.golden.get_or_init(|| {
            let mut sorted = self.values.clone();
            sorted.sort_unstable();
            sorted[sorted.len() / 2]
        })
    }

    fn build_program(n: usize) -> (Program, Range<u32>) {
        let mut p = ProgramBuilder::new();
        let (base, count, i, limit, j, off, ptr, a, b, tmp) = (
            Reg(1),
            Reg(2),
            Reg(3),
            Reg(4),
            Reg(5),
            Reg(6),
            Reg(7),
            Reg(8),
            Reg(9),
            Reg(10),
        );
        // Prologue (outside the FI window): constants.
        p.push(Instruction::Addi {
            rd: base,
            ra: Reg(0),
            imm: Self::ARRAY_BASE as i16,
        });
        p.push(Instruction::Addi {
            rd: count,
            ra: Reg(0),
            imm: n as i16,
        });
        let kernel_start = p.here();

        // Bubble sort.
        p.push(Instruction::Addi {
            rd: i,
            ra: Reg(0),
            imm: 0,
        });
        let outer = p.label();
        p.push(Instruction::Sub {
            rd: limit,
            ra: count,
            rb: i,
        });
        p.push(Instruction::Addi {
            rd: limit,
            ra: limit,
            imm: -1,
        });
        p.push(Instruction::Addi {
            rd: j,
            ra: Reg(0),
            imm: 0,
        });
        let inner = p.label();
        p.push(Instruction::Slli {
            rd: off,
            ra: j,
            shamt: 2,
        });
        p.push(Instruction::Add {
            rd: ptr,
            ra: base,
            rb: off,
        });
        p.push(Instruction::Lwz {
            rd: a,
            ra: ptr,
            offset: 0,
        });
        p.push(Instruction::Lwz {
            rd: b,
            ra: ptr,
            offset: 4,
        });
        p.push(Instruction::Sfgtu { ra: a, rb: b });
        let no_swap = p.forward_label();
        p.branch_if_not_flag(no_swap);
        p.push(Instruction::Sw {
            ra: ptr,
            rb: b,
            offset: 0,
        });
        p.push(Instruction::Sw {
            ra: ptr,
            rb: a,
            offset: 4,
        });
        p.bind(no_swap);
        p.push(Instruction::Addi {
            rd: j,
            ra: j,
            imm: 1,
        });
        p.push(Instruction::Sfltu { ra: j, rb: limit });
        p.branch_if_flag(inner);
        p.push(Instruction::Addi {
            rd: i,
            ra: i,
            imm: 1,
        });
        p.push(Instruction::Addi {
            rd: tmp,
            ra: count,
            imm: -1,
        });
        p.push(Instruction::Sfltu { ra: i, rb: tmp });
        p.branch_if_flag(outer);

        // Store the middle element to the output word.
        let middle_offset = ((n / 2) * 4) as i16;
        p.push(Instruction::Lwz {
            rd: a,
            ra: base,
            offset: middle_offset,
        });
        p.push(Instruction::Sw {
            ra: base,
            rb: a,
            offset: (n * 4) as i16,
        });
        let kernel_end = p.here();
        (p.build(), kernel_start..kernel_end)
    }
}

impl Benchmark for MedianBenchmark {
    fn name(&self) -> &'static str {
        "median"
    }

    fn program(&self) -> &Program {
        &self.program
    }

    fn fi_window(&self) -> Range<u32> {
        self.fi_window.clone()
    }

    fn dmem_words(&self) -> usize {
        self.values.len() + 8
    }

    fn initialize(&self, memory: &mut Memory) {
        memory
            .write_block(Self::ARRAY_BASE, &self.values)
            .expect("data memory large enough");
    }

    fn try_output_error(&self, memory: &Memory) -> Option<f64> {
        let golden = self.golden_median();
        let got = memory.load_word(self.output_address()).ok()?;
        let diff = (got as f64 - golden as f64).abs();
        Some((diff / golden.max(1) as f64).min(1.0))
    }

    fn error_metric(&self) -> &'static str {
        "relative difference"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfi_cpu::{Core, RunConfig};
    use sfi_isa::AluClass;

    fn run(bench: &MedianBenchmark) -> Core {
        let mut core = Core::new(bench.program().clone(), bench.dmem_words());
        bench.initialize(core.memory_mut());
        let outcome = core.run(&RunConfig::default());
        assert!(outcome.finished(), "outcome: {outcome:?}");
        core
    }

    #[test]
    fn fault_free_run_is_correct() {
        for n in [3, 21, 129] {
            let bench = MedianBenchmark::new(n, 42);
            let core = run(&bench);
            assert_eq!(bench.output_error(core.memory()), 0.0, "n = {n}");
            assert!(bench.is_correct(core.memory()));
        }
    }

    #[test]
    fn kernel_is_control_heavy() {
        let bench = MedianBenchmark::new(129, 1);
        let core = run(&bench);
        let mix = core.stats().mix(core.program());
        assert!(
            mix.class_count(AluClass::Mul) == 0,
            "median has no multiplications"
        );
        assert!(mix.control_fraction() > 0.15, "median is control oriented");
        assert!(
            core.stats().cycles > 100_000,
            "129-value median takes > 100 kCycles"
        );
    }

    #[test]
    fn corrupted_output_is_detected() {
        let bench = MedianBenchmark::new(21, 7);
        let mut core = run(&bench);
        let addr = bench.output_address();
        let golden = core.memory().load_word(addr).unwrap();
        core.memory_mut().store_word(addr, golden ^ 0x8000).unwrap();
        assert!(bench.output_error(core.memory()) > 0.0);
        assert!(!bench.is_correct(core.memory()));
        assert_eq!(bench.error_metric(), "relative difference");
    }

    #[test]
    fn window_and_name() {
        let bench = MedianBenchmark::new(9, 0);
        assert_eq!(bench.name(), "median");
        assert!(bench.fi_window().start >= 2);
        assert!((bench.fi_window().end as usize) <= bench.program().len());
    }

    #[test]
    #[should_panic(expected = "odd number")]
    fn even_size_panics() {
        MedianBenchmark::new(10, 0);
    }
}
