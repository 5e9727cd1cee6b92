//! The FIR-filter benchmark: a direct-form finite impulse response filter.
//!
//! Dot-product heavy — one multiply-accumulate per tap per output sample —
//! with only the two loop branches as control flow.  Compared with matmul
//! it streams through memory with a sliding window instead of re-walking
//! whole rows, which excites a different load/ALU interleaving.

use crate::data::random_values;
use crate::Benchmark;
use sfi_cpu::Memory;
use sfi_isa::program::ProgramBuilder;
use sfi_isa::{Instruction, Program, Reg};
use std::ops::Range;
use std::sync::OnceLock;

/// Direct-form FIR filter `y[i] = Σ_t h[t] · x[i+t]` over unsigned samples
/// with wrapping 32-bit arithmetic.
#[derive(Debug, Clone)]
pub struct FirBenchmark {
    taps: Vec<u32>,
    samples: Vec<u32>,
    outputs: usize,
    program: Program,
    fi_window: Range<u32>,
    /// The golden output, computed on first use.
    golden: OnceLock<Vec<u32>>,
}

impl FirBenchmark {
    /// Byte address of the input sample array.
    const SAMPLES_BASE: u32 = 0;

    /// Creates the benchmark with `taps` filter coefficients (8-bit) and
    /// `outputs` output samples over a 16-bit input stream.
    ///
    /// # Panics
    ///
    /// Panics if `taps` is not in `1..=64` or `outputs` is not in
    /// `1..=1024`.
    pub fn new(taps: usize, outputs: usize, seed: u64) -> Self {
        assert!(
            (1..=64).contains(&taps),
            "tap count must be in 1..=64, got {taps}"
        );
        assert!(
            (1..=1024).contains(&outputs),
            "output count must be in 1..=1024, got {outputs}"
        );
        let samples = random_values(outputs + taps - 1, 1 << 16, seed);
        let taps = random_values(taps, 1 << 8, seed.wrapping_add(1));
        let (program, fi_window) = Self::build_program(taps.len(), outputs, samples.len());
        FirBenchmark {
            taps,
            samples,
            outputs,
            program,
            fi_window,
            golden: OnceLock::new(),
        }
    }

    fn taps_base(&self) -> u32 {
        Self::SAMPLES_BASE + 4 * self.samples.len() as u32
    }

    fn output_base(&self) -> u32 {
        self.taps_base() + 4 * self.taps.len() as u32
    }

    /// The golden (fault-free) filter output, with the same wrapping
    /// 32-bit arithmetic as the hardware.
    pub fn golden_output(&self) -> &[u32] {
        self.golden.get_or_init(|| {
            (0..self.outputs)
                .map(|i| {
                    self.taps.iter().enumerate().fold(0u32, |acc, (t, &h)| {
                        acc.wrapping_add(h.wrapping_mul(self.samples[i + t]))
                    })
                })
                .collect()
        })
    }

    fn build_program(taps: usize, outputs: usize, samples: usize) -> (Program, Range<u32>) {
        let mut p = ProgramBuilder::new();
        let (x_base, h_base, y_base, ntaps, nout) = (Reg(1), Reg(2), Reg(3), Reg(4), Reg(5));
        let (i, t, acc, xi) = (Reg(6), Reg(7), Reg(8), Reg(10));
        let (off, ptr, va, vb, prod) = (Reg(11), Reg(12), Reg(13), Reg(14), Reg(15));

        // Prologue (outside the FI window): base addresses and sizes.
        p.push(Instruction::Addi {
            rd: x_base,
            ra: Reg(0),
            imm: Self::SAMPLES_BASE as i16,
        });
        p.load_immediate(h_base, (4 * samples) as u32);
        p.load_immediate(y_base, (4 * (samples + taps)) as u32);
        p.push(Instruction::Addi {
            rd: ntaps,
            ra: Reg(0),
            imm: taps as i16,
        });
        p.load_immediate(nout, outputs as u32);
        let kernel_start = p.here();

        p.push(Instruction::Addi {
            rd: i,
            ra: Reg(0),
            imm: 0,
        });
        let outer = p.label();
        p.push(Instruction::Addi {
            rd: acc,
            ra: Reg(0),
            imm: 0,
        });
        p.push(Instruction::Addi {
            rd: t,
            ra: Reg(0),
            imm: 0,
        });
        // xi = &x[i]
        p.push(Instruction::Slli {
            rd: off,
            ra: i,
            shamt: 2,
        });
        p.push(Instruction::Add {
            rd: xi,
            ra: x_base,
            rb: off,
        });
        let inner = p.label();
        // acc += h[t] * x[i + t]
        p.push(Instruction::Slli {
            rd: off,
            ra: t,
            shamt: 2,
        });
        p.push(Instruction::Add {
            rd: ptr,
            ra: xi,
            rb: off,
        });
        p.push(Instruction::Lwz {
            rd: va,
            ra: ptr,
            offset: 0,
        });
        p.push(Instruction::Add {
            rd: ptr,
            ra: h_base,
            rb: off,
        });
        p.push(Instruction::Lwz {
            rd: vb,
            ra: ptr,
            offset: 0,
        });
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
            rd: t,
            ra: t,
            imm: 1,
        });
        p.push(Instruction::Sfltu { ra: t, rb: ntaps });
        p.branch_if_flag(inner);
        // y[i] = acc
        p.push(Instruction::Slli {
            rd: off,
            ra: i,
            shamt: 2,
        });
        p.push(Instruction::Add {
            rd: ptr,
            ra: y_base,
            rb: off,
        });
        p.push(Instruction::Sw {
            ra: ptr,
            rb: acc,
            offset: 0,
        });
        p.push(Instruction::Addi {
            rd: i,
            ra: i,
            imm: 1,
        });
        p.push(Instruction::Sfltu { ra: i, rb: nout });
        p.branch_if_flag(outer);
        let kernel_end = p.here();
        (p.build(), kernel_start..kernel_end)
    }
}

impl Benchmark for FirBenchmark {
    fn name(&self) -> &'static str {
        "fir"
    }

    fn program(&self) -> &Program {
        &self.program
    }

    fn fi_window(&self) -> Range<u32> {
        self.fi_window.clone()
    }

    fn dmem_words(&self) -> usize {
        self.samples.len() + self.taps.len() + self.outputs + 8
    }

    fn initialize(&self, memory: &mut Memory) {
        memory
            .write_block(Self::SAMPLES_BASE, &self.samples)
            .expect("data memory large enough");
        memory
            .write_block(self.taps_base(), &self.taps)
            .expect("data memory large enough");
    }

    fn try_output_error(&self, memory: &Memory) -> Option<f64> {
        let golden = self.golden_output();
        let got = memory.read_block(self.output_base(), self.outputs).ok()?;
        let sum_sq: f64 = golden
            .iter()
            .zip(&got)
            .map(|(&g, &o)| {
                let d = g as f64 - o as f64;
                d * d
            })
            .sum();
        Some(sum_sq / self.outputs as f64)
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

    fn run(bench: &FirBenchmark) -> Core {
        let mut core = Core::new(bench.program().clone(), bench.dmem_words());
        bench.initialize(core.memory_mut());
        let outcome = core.run(&RunConfig::default());
        assert!(outcome.finished(), "outcome: {outcome:?}");
        core
    }

    #[test]
    fn fault_free_run_matches_golden() {
        for (taps, outputs) in [(1, 1), (4, 16), (16, 64)] {
            let bench = FirBenchmark::new(taps, outputs, 9);
            let core = run(&bench);
            assert_eq!(
                bench.try_output_error(core.memory()),
                Some(0.0),
                "{taps} taps, {outputs} outputs"
            );
            assert!(bench.is_correct(core.memory()));
            assert_eq!(
                core.memory()
                    .read_block(bench.output_base(), outputs)
                    .unwrap(),
                bench.golden_output()
            );
        }
    }

    #[test]
    fn kernel_is_compute_heavy() {
        let bench = FirBenchmark::new(16, 64, 1);
        let core = run(&bench);
        let mix = core.stats().mix(core.program());
        assert!(
            mix.class_count(AluClass::Mul) >= 1024,
            "one multiplication per tap per output"
        );
        assert!(mix.compute_fraction() > 0.4, "FIR is compute oriented");
    }

    #[test]
    fn mse_reflects_corruption_scale() {
        let bench = FirBenchmark::new(4, 8, 3);
        let mut core = run(&bench);
        let addr = bench.output_base();
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
        assert!(!bench.is_correct(core.memory()));
        assert_eq!(bench.error_metric(), "mean squared error");
        assert_eq!(bench.name(), "fir");
    }

    #[test]
    #[should_panic(expected = "tap count")]
    fn oversized_taps_panic() {
        FirBenchmark::new(100, 8, 0);
    }
}
