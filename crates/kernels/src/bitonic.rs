//! The bitonic sorting-network benchmark.
//!
//! Unlike the median kernel's data-dependent bubble sort, the bitonic
//! network executes a fixed sequence of compare-exchange operations whose
//! *addresses* never depend on the data, and each compare-exchange is
//! computed branch-free with the sign-mask select idiom — so timing errors
//! in the datapath corrupt values rather than control flow.  The output
//! quality metric is the normalized inversion count of the result, which
//! degrades gracefully with the number of corrupted exchanges.

use crate::data::random_values;
use crate::Benchmark;
use sfi_cpu::Memory;
use sfi_isa::program::ProgramBuilder;
use sfi_isa::{Instruction, Program, Reg};
use std::ops::Range;
use std::sync::OnceLock;

/// Ascending bitonic sort of `n` values via the classic `k`/`j` loop nest
/// of compare-exchange stages.
#[derive(Debug, Clone)]
pub struct BitonicSortBenchmark {
    values: Vec<u32>,
    program: Program,
    fi_window: Range<u32>,
    /// The golden output, computed on first use.
    golden: OnceLock<Vec<u32>>,
}

impl BitonicSortBenchmark {
    /// Byte address of the array (sorted in place).
    const ARRAY_BASE: u32 = 0;

    /// Creates the benchmark for `n` values.
    ///
    /// Values are bounded below `2^16` so the branch-free sign-mask
    /// compare never sees a difference overflowing 32-bit two's
    /// complement.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two in `4..=256`.
    pub fn new(n: usize, seed: u64) -> Self {
        assert!(
            (4..=256).contains(&n) && n.is_power_of_two(),
            "size must be a power of two in 4..=256, got {n}"
        );
        let values = random_values(n, 1 << 16, seed);
        let (program, fi_window) = Self::build_program(n);
        BitonicSortBenchmark {
            values,
            program,
            fi_window,
            golden: OnceLock::new(),
        }
    }

    /// The golden (fault-free) ascending-sorted array.
    pub fn golden_sorted(&self) -> &[u32] {
        self.golden.get_or_init(|| {
            let mut sorted = self.values.clone();
            sorted.sort_unstable();
            sorted
        })
    }

    fn build_program(n: usize) -> (Program, Range<u32>) {
        let mut p = ProgramBuilder::new();
        let (base, n_reg, k, j, i, l) = (Reg(1), Reg(2), Reg(3), Reg(4), Reg(5), Reg(6));
        let (t, ptr_i, ptr_l) = (Reg(7), Reg(8), Reg(10));
        let (a, b, d, mask) = (Reg(11), Reg(12), Reg(13), Reg(14));
        let (dir, e, min_v, max_v, v_i, v_l) =
            (Reg(15), Reg(16), Reg(17), Reg(18), Reg(19), Reg(20));

        // Prologue (outside the FI window).
        p.push(Instruction::Addi {
            rd: base,
            ra: Reg(0),
            imm: Self::ARRAY_BASE as i16,
        });
        p.push(Instruction::Addi {
            rd: n_reg,
            ra: Reg(0),
            imm: n as i16,
        });
        let kernel_start = p.here();

        p.push(Instruction::Addi {
            rd: k,
            ra: Reg(0),
            imm: 2,
        });
        let k_loop = p.label();
        p.push(Instruction::Srli {
            rd: j,
            ra: k,
            shamt: 1,
        });
        let j_loop = p.label();
        p.push(Instruction::Addi {
            rd: i,
            ra: Reg(0),
            imm: 0,
        });
        let i_loop = p.label();
        // Partner index; each pair is handled once, from its lower end.
        p.push(Instruction::Xor {
            rd: l,
            ra: i,
            rb: j,
        });
        p.push(Instruction::Sfgtu { ra: l, rb: i });
        let next = p.forward_label();
        p.branch_if_not_flag(next);
        p.push(Instruction::Slli {
            rd: t,
            ra: i,
            shamt: 2,
        });
        p.push(Instruction::Add {
            rd: ptr_i,
            ra: base,
            rb: t,
        });
        p.push(Instruction::Lwz {
            rd: a,
            ra: ptr_i,
            offset: 0,
        });
        p.push(Instruction::Slli {
            rd: t,
            ra: l,
            shamt: 2,
        });
        p.push(Instruction::Add {
            rd: ptr_l,
            ra: base,
            rb: t,
        });
        p.push(Instruction::Lwz {
            rd: b,
            ra: ptr_l,
            offset: 0,
        });
        // Branch-free compare-exchange: with both values below 2^31 the
        // sign of d = a - b decides the order, so
        //   mask = d >>_s 31, min = b + (d & mask), max = a - (d & mask).
        p.push(Instruction::Sub {
            rd: d,
            ra: a,
            rb: b,
        });
        p.push(Instruction::Srai {
            rd: mask,
            ra: d,
            shamt: 31,
        });
        p.push(Instruction::And {
            rd: t,
            ra: d,
            rb: mask,
        });
        p.push(Instruction::Add {
            rd: min_v,
            ra: b,
            rb: t,
        });
        p.push(Instruction::Sub {
            rd: max_v,
            ra: a,
            rb: t,
        });
        // Branch-free direction select: dir = all-ones iff (i & k) != 0
        // (descending half of the merge), which swaps min and max via
        // XOR with e = (min ^ max) & dir.
        p.push(Instruction::And {
            rd: t,
            ra: i,
            rb: k,
        });
        p.push(Instruction::Sub {
            rd: dir,
            ra: Reg(0),
            rb: t,
        });
        p.push(Instruction::Srai {
            rd: dir,
            ra: dir,
            shamt: 31,
        });
        p.push(Instruction::Xor {
            rd: e,
            ra: min_v,
            rb: max_v,
        });
        p.push(Instruction::And {
            rd: e,
            ra: e,
            rb: dir,
        });
        p.push(Instruction::Xor {
            rd: v_i,
            ra: min_v,
            rb: e,
        });
        p.push(Instruction::Xor {
            rd: v_l,
            ra: max_v,
            rb: e,
        });
        p.push(Instruction::Sw {
            ra: ptr_i,
            rb: v_i,
            offset: 0,
        });
        p.push(Instruction::Sw {
            ra: ptr_l,
            rb: v_l,
            offset: 0,
        });
        p.bind(next);
        p.push(Instruction::Addi {
            rd: i,
            ra: i,
            imm: 1,
        });
        p.push(Instruction::Sfltu { ra: i, rb: n_reg });
        p.branch_if_flag(i_loop);
        p.push(Instruction::Srli {
            rd: j,
            ra: j,
            shamt: 1,
        });
        p.push(Instruction::Sfne { ra: j, rb: Reg(0) });
        p.branch_if_flag(j_loop);
        p.push(Instruction::Slli {
            rd: k,
            ra: k,
            shamt: 1,
        });
        p.push(Instruction::Sfleu { ra: k, rb: n_reg });
        p.branch_if_flag(k_loop);
        let kernel_end = p.here();
        (p.build(), kernel_start..kernel_end)
    }
}

impl Benchmark for BitonicSortBenchmark {
    fn name(&self) -> &'static str {
        "bitonic_sort"
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
        let n = self.values.len();
        let got = memory.read_block(Self::ARRAY_BASE, n).ok()?;
        if got == self.golden_sorted() {
            return Some(0.0);
        }
        let pairs = (n * (n - 1) / 2) as f64;
        let inversions = (0..n)
            .flat_map(|x| ((x + 1)..n).map(move |y| (x, y)))
            .filter(|&(x, y)| got[x] > got[y])
            .count();
        // A sorted-but-wrong output (value corruption that happens to
        // preserve order) still scores the minimum nonzero error instead
        // of masquerading as correct.
        Some((inversions as f64 / pairs).max(1.0 / pairs))
    }

    fn error_metric(&self) -> &'static str {
        "normalized inversion count"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfi_cpu::{Core, RunConfig};

    fn run(bench: &BitonicSortBenchmark) -> Core {
        let mut core = Core::new(bench.program().clone(), bench.dmem_words());
        bench.initialize(core.memory_mut());
        let outcome = core.run(&RunConfig::default());
        assert!(outcome.finished(), "outcome: {outcome:?}");
        core
    }

    #[test]
    fn fault_free_run_sorts() {
        for n in [4, 16, 64] {
            let bench = BitonicSortBenchmark::new(n, 13);
            let core = run(&bench);
            assert_eq!(bench.try_output_error(core.memory()), Some(0.0), "n = {n}");
            assert!(bench.is_correct(core.memory()));
            assert_eq!(
                core.memory().read_block(0, n).unwrap(),
                bench.golden_sorted()
            );
        }
    }

    #[test]
    fn exchanges_are_branch_free() {
        // The only flag-consuming branches are the three loop back-edges
        // and the pair guard — the compare-exchange itself never branches
        // on data, so two workloads of the same size execute the same
        // number of branches.
        let cycles = |seed| {
            let bench = BitonicSortBenchmark::new(32, seed);
            let core = run(&bench);
            (core.stats().cycles, core.stats().mix(core.program()).branch)
        };
        assert_eq!(cycles(1), cycles(2), "data-independent schedule");
    }

    #[test]
    fn inversion_count_scales_with_disorder() {
        let bench = BitonicSortBenchmark::new(16, 5);
        let mut core = run(&bench);
        let sorted = bench.golden_sorted();
        // Swap the extremes: 2n - 3 inversions out of n(n-1)/2.
        core.memory_mut().store_word(0, sorted[15]).unwrap();
        core.memory_mut().store_word(60, sorted[0]).unwrap();
        let big = bench.output_error(core.memory());
        // One adjacent swap: a single inversion.
        core.memory_mut().store_word(0, sorted[1]).unwrap();
        core.memory_mut().store_word(4, sorted[0]).unwrap();
        core.memory_mut().store_word(60, sorted[15]).unwrap();
        let small = bench.output_error(core.memory());
        assert!((small - 1.0 / 120.0).abs() < 1e-12);
        assert!(big > 10.0 * small);
    }

    #[test]
    fn sorted_but_wrong_values_are_not_correct() {
        let bench = BitonicSortBenchmark::new(8, 3);
        let mut core = run(&bench);
        // Corrupt every element to the same constant: perfectly sorted,
        // completely wrong.
        for x in 0..8u32 {
            core.memory_mut().store_word(4 * x, 5).unwrap();
        }
        let err = bench.output_error(core.memory());
        assert!(err > 0.0, "order-preserving corruption must not score 0");
        assert!(!bench.is_correct(core.memory()));
        assert_eq!(bench.error_metric(), "normalized inversion count");
        assert_eq!(bench.name(), "bitonic_sort");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_panics() {
        BitonicSortBenchmark::new(12, 0);
    }
}
