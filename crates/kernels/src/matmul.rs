//! The matrix-multiplication benchmark (8- and 16-bit element variants).
//!
//! Compute heavy with one multiplication per inner-loop iteration — the
//! kernel dominated by the most timing-critical instruction.

use crate::data::random_values;
use crate::Benchmark;
use sfi_cpu::Memory;
use sfi_isa::program::ProgramBuilder;
use sfi_isa::{Instruction, Program, Reg};
use std::ops::Range;
use std::sync::OnceLock;

/// Element width of the input matrices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElementWidth {
    /// 8-bit unsigned elements.
    Bits8,
    /// 16-bit unsigned elements.
    Bits16,
}

impl ElementWidth {
    fn bound(self) -> u32 {
        match self {
            ElementWidth::Bits8 => 1 << 8,
            ElementWidth::Bits16 => 1 << 16,
        }
    }
}

/// `n × n` integer matrix multiplication `C = A × B`.
#[derive(Debug, Clone)]
pub struct MatrixMultiplyBenchmark {
    n: usize,
    width: ElementWidth,
    a: Vec<u32>,
    b: Vec<u32>,
    program: Program,
    fi_window: Range<u32>,
    /// The golden output, computed on first use.
    golden: OnceLock<Vec<u32>>,
}

impl MatrixMultiplyBenchmark {
    /// Creates the benchmark for `n × n` matrices of the given element
    /// width (the paper uses 16×16 with 8- and 16-bit values).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or larger than 64.
    pub fn new(n: usize, width: ElementWidth, seed: u64) -> Self {
        assert!(n > 0 && n <= 64, "matrix size must be in 1..=64, got {n}");
        let a = random_values(n * n, width.bound(), seed);
        let b = random_values(n * n, width.bound(), seed.wrapping_add(1));
        let (program, fi_window) = Self::build_program(n);
        MatrixMultiplyBenchmark {
            n,
            width,
            a,
            b,
            program,
            fi_window,
            golden: OnceLock::new(),
        }
    }

    fn a_base(&self) -> u32 {
        0
    }

    fn b_base(&self) -> u32 {
        (4 * self.n * self.n) as u32
    }

    fn c_base(&self) -> u32 {
        (8 * self.n * self.n) as u32
    }

    /// The golden (fault-free) product matrix, row major, with the same
    /// wrapping 32-bit arithmetic as the hardware.
    pub fn golden_product(&self) -> &[u32] {
        self.golden.get_or_init(|| {
            let n = self.n;
            let mut c = vec![0u32; n * n];
            for i in 0..n {
                for j in 0..n {
                    let mut acc = 0u32;
                    for k in 0..n {
                        acc = acc.wrapping_add(self.a[i * n + k].wrapping_mul(self.b[k * n + j]));
                    }
                    c[i * n + j] = acc;
                }
            }
            c
        })
    }

    fn build_program(n: usize) -> (Program, Range<u32>) {
        let mut p = ProgramBuilder::new();
        let (a_base, b_base, c_base, nn, i, j, acc, k) = (
            Reg(1),
            Reg(2),
            Reg(3),
            Reg(4),
            Reg(5),
            Reg(6),
            Reg(7),
            Reg(8),
        );
        let (idx, ptr, va, vb, prod) = (Reg(9), Reg(10), Reg(11), Reg(12), Reg(13));

        // Prologue: base addresses and dimension.
        p.push(Instruction::Addi {
            rd: a_base,
            ra: Reg(0),
            imm: 0,
        });
        p.load_immediate(b_base, (4 * n * n) as u32);
        p.load_immediate(c_base, (8 * n * n) as u32);
        p.push(Instruction::Addi {
            rd: nn,
            ra: Reg(0),
            imm: n as i16,
        });
        let kernel_start = p.here();

        p.push(Instruction::Addi {
            rd: i,
            ra: Reg(0),
            imm: 0,
        });
        let i_loop = p.label();
        p.push(Instruction::Addi {
            rd: j,
            ra: Reg(0),
            imm: 0,
        });
        let j_loop = p.label();
        p.push(Instruction::Addi {
            rd: acc,
            ra: Reg(0),
            imm: 0,
        });
        p.push(Instruction::Addi {
            rd: k,
            ra: Reg(0),
            imm: 0,
        });
        let k_loop = p.label();
        // A[i*n + k]
        p.push(Instruction::Mul {
            rd: idx,
            ra: i,
            rb: nn,
        });
        p.push(Instruction::Add {
            rd: idx,
            ra: idx,
            rb: k,
        });
        p.push(Instruction::Slli {
            rd: idx,
            ra: idx,
            shamt: 2,
        });
        p.push(Instruction::Add {
            rd: ptr,
            ra: a_base,
            rb: idx,
        });
        p.push(Instruction::Lwz {
            rd: va,
            ra: ptr,
            offset: 0,
        });
        // B[k*n + j]
        p.push(Instruction::Mul {
            rd: idx,
            ra: k,
            rb: nn,
        });
        p.push(Instruction::Add {
            rd: idx,
            ra: idx,
            rb: j,
        });
        p.push(Instruction::Slli {
            rd: idx,
            ra: idx,
            shamt: 2,
        });
        p.push(Instruction::Add {
            rd: ptr,
            ra: b_base,
            rb: idx,
        });
        p.push(Instruction::Lwz {
            rd: vb,
            ra: ptr,
            offset: 0,
        });
        // acc += A * B
        p.push(Instruction::Mul {
            rd: prod,
            ra: va,
            rb: vb,
        });
        p.push(Instruction::Add {
            rd: acc,
            ra: acc,
            rb: prod,
        });
        p.push(Instruction::Addi {
            rd: k,
            ra: k,
            imm: 1,
        });
        p.push(Instruction::Sfltu { ra: k, rb: nn });
        p.branch_if_flag(k_loop);
        // C[i*n + j] = acc
        p.push(Instruction::Mul {
            rd: idx,
            ra: i,
            rb: nn,
        });
        p.push(Instruction::Add {
            rd: idx,
            ra: idx,
            rb: j,
        });
        p.push(Instruction::Slli {
            rd: idx,
            ra: idx,
            shamt: 2,
        });
        p.push(Instruction::Add {
            rd: ptr,
            ra: c_base,
            rb: idx,
        });
        p.push(Instruction::Sw {
            ra: ptr,
            rb: acc,
            offset: 0,
        });
        p.push(Instruction::Addi {
            rd: j,
            ra: j,
            imm: 1,
        });
        p.push(Instruction::Sfltu { ra: j, rb: nn });
        p.branch_if_flag(j_loop);
        p.push(Instruction::Addi {
            rd: i,
            ra: i,
            imm: 1,
        });
        p.push(Instruction::Sfltu { ra: i, rb: nn });
        p.branch_if_flag(i_loop);
        let kernel_end = p.here();
        (p.build(), kernel_start..kernel_end)
    }
}

impl Benchmark for MatrixMultiplyBenchmark {
    fn name(&self) -> &'static str {
        match self.width {
            ElementWidth::Bits8 => "mat_mult_8bit",
            ElementWidth::Bits16 => "mat_mult_16bit",
        }
    }

    fn program(&self) -> &Program {
        &self.program
    }

    fn fi_window(&self) -> Range<u32> {
        self.fi_window.clone()
    }

    fn dmem_words(&self) -> usize {
        3 * self.n * self.n + 8
    }

    fn initialize(&self, memory: &mut Memory) {
        memory
            .write_block(self.a_base(), &self.a)
            .expect("data memory large enough");
        memory
            .write_block(self.b_base(), &self.b)
            .expect("data memory large enough");
    }

    fn try_output_error(&self, memory: &Memory) -> Option<f64> {
        let golden = self.golden_product();
        let got = memory.read_block(self.c_base(), self.n * self.n).ok()?;
        let sum_sq: f64 = golden
            .iter()
            .zip(&got)
            .map(|(&g, &o)| {
                let d = g as f64 - o as f64;
                d * d
            })
            .sum();
        Some(sum_sq / (self.n * self.n) as f64)
    }

    fn error_metric(&self) -> &'static str {
        "mean squared error"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfi_cpu::{Core, RunConfig};
    use sfi_isa::AluClass;

    fn run(bench: &MatrixMultiplyBenchmark) -> Core {
        let mut core = Core::new(bench.program().clone(), bench.dmem_words());
        bench.initialize(core.memory_mut());
        let outcome = core.run(&RunConfig::default());
        assert!(outcome.finished(), "outcome: {outcome:?}");
        core
    }

    #[test]
    fn fault_free_run_is_correct_8bit() {
        let bench = MatrixMultiplyBenchmark::new(4, ElementWidth::Bits8, 11);
        let core = run(&bench);
        assert_eq!(bench.output_error(core.memory()), 0.0);
        assert_eq!(
            core.memory().read_block(bench.c_base(), 16).unwrap(),
            bench.golden_product()
        );
    }

    #[test]
    fn fault_free_run_is_correct_16bit_paper_size() {
        let bench = MatrixMultiplyBenchmark::new(16, ElementWidth::Bits16, 5);
        let core = run(&bench);
        assert_eq!(bench.output_error(core.memory()), 0.0);
        let mix = core.stats().mix(core.program());
        assert!(
            mix.class_count(AluClass::Mul) > 4096,
            "three muls per inner iteration"
        );
        assert!(mix.compute_fraction() > 0.5, "matmul is compute oriented");
        assert!(
            core.stats().cycles > 30_000,
            "16x16 matmul runs for tens of kCycles"
        );
    }

    #[test]
    fn mse_reflects_corruption_scale() {
        let bench = MatrixMultiplyBenchmark::new(4, ElementWidth::Bits8, 3);
        let mut core = run(&bench);
        let addr = bench.c_base();
        let golden = core.memory().load_word(addr).unwrap();
        core.memory_mut()
            .store_word(addr, golden.wrapping_add(10))
            .unwrap();
        let small = bench.output_error(core.memory());
        core.memory_mut()
            .store_word(addr, golden.wrapping_add(1000))
            .unwrap();
        let large = bench.output_error(core.memory());
        assert!(small > 0.0);
        assert!(large > small * 100.0);
    }

    #[test]
    fn names_and_metric() {
        let b8 = MatrixMultiplyBenchmark::new(4, ElementWidth::Bits8, 0);
        let b16 = MatrixMultiplyBenchmark::new(4, ElementWidth::Bits16, 0);
        assert_eq!(b8.name(), "mat_mult_8bit");
        assert_eq!(b16.name(), "mat_mult_16bit");
        assert_eq!(b8.error_metric(), "mean squared error");
        assert!(
            b16.a.iter().any(|&v| v >= 256),
            "16-bit inputs exceed the 8-bit range"
        );
        assert!(b8.a.iter().all(|&v| v < 256));
    }

    #[test]
    #[should_panic(expected = "matrix size")]
    fn oversized_matrix_panics() {
        MatrixMultiplyBenchmark::new(100, ElementWidth::Bits8, 0);
    }
}
