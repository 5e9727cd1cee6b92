//! The CRC32 benchmark: bitwise CRC-32 (IEEE 802.3, reflected) over a
//! word stream.
//!
//! Pure control/shift mix: the kernel is one branch, one shift and one
//! conditional XOR per message bit, with no multiplications at all — the
//! opposite corner of the compute/control plane from matmul and FIR.  A
//! single flipped datapath bit almost always avalanches through the
//! remainder, which makes the exact-match metric the natural choice and
//! connects the suite to the error-detection coding literature.

use crate::data::random_words;
use crate::Benchmark;
use sfi_cpu::Memory;
use sfi_isa::program::ProgramBuilder;
use sfi_isa::{Instruction, Program, Reg};
use std::ops::Range;
use std::sync::OnceLock;

/// The reflected CRC-32 (IEEE 802.3) polynomial.
pub const POLYNOMIAL: u32 = 0xEDB8_8320;

/// Bitwise CRC-32 of a random word stream.
#[derive(Debug, Clone)]
pub struct Crc32Benchmark {
    words: Vec<u32>,
    program: Program,
    fi_window: Range<u32>,
    /// The golden output, computed on first use.
    golden: OnceLock<u32>,
}

impl Crc32Benchmark {
    /// Byte address of the message words.
    const DATA_BASE: u32 = 0;

    /// Creates the benchmark over `words` random 32-bit message words.
    ///
    /// # Panics
    ///
    /// Panics if `words` is not in `1..=1024`.
    pub fn new(words: usize, seed: u64) -> Self {
        assert!(
            (1..=1024).contains(&words),
            "word count must be in 1..=1024, got {words}"
        );
        let words = random_words(words, seed);
        let (program, fi_window) = Self::build_program(words.len());
        Crc32Benchmark {
            words,
            program,
            fi_window,
            golden: OnceLock::new(),
        }
    }

    fn output_address(&self) -> u32 {
        Self::DATA_BASE + 4 * self.words.len() as u32
    }

    /// The golden (fault-free) CRC-32 of the message, folding 32 message
    /// bits per word exactly like the kernel.
    pub fn golden_crc(&self) -> u32 {
        *self.golden.get_or_init(|| {
            let mut crc = u32::MAX;
            for &word in &self.words {
                crc ^= word;
                for _ in 0..32 {
                    crc = if crc & 1 != 0 {
                        (crc >> 1) ^ POLYNOMIAL
                    } else {
                        crc >> 1
                    };
                }
            }
            crc ^ u32::MAX
        })
    }

    fn build_program(words: usize) -> (Program, Range<u32>) {
        let mut p = ProgramBuilder::new();
        let (base, n, crc, i, ptr, w, bit, t) = (
            Reg(1),
            Reg(2),
            Reg(3),
            Reg(4),
            Reg(5),
            Reg(6),
            Reg(7),
            Reg(8),
        );
        let (poly, ones, thirty_two) = (Reg(10), Reg(11), Reg(12));

        // Prologue (outside the FI window): constants.
        p.push(Instruction::Addi {
            rd: base,
            ra: Reg(0),
            imm: Self::DATA_BASE as i16,
        });
        p.push(Instruction::Addi {
            rd: n,
            ra: Reg(0),
            imm: words as i16,
        });
        p.load_immediate(poly, POLYNOMIAL);
        // ones = 0xFFFF_FFFF via the sign-extended immediate.
        p.push(Instruction::Addi {
            rd: ones,
            ra: Reg(0),
            imm: -1,
        });
        p.push(Instruction::Addi {
            rd: thirty_two,
            ra: Reg(0),
            imm: 32,
        });
        p.push(Instruction::Or {
            rd: crc,
            ra: ones,
            rb: Reg(0),
        });
        let kernel_start = p.here();

        p.push(Instruction::Addi {
            rd: i,
            ra: Reg(0),
            imm: 0,
        });
        let word_loop = p.label();
        p.push(Instruction::Slli {
            rd: t,
            ra: i,
            shamt: 2,
        });
        p.push(Instruction::Add {
            rd: ptr,
            ra: base,
            rb: t,
        });
        p.push(Instruction::Lwz {
            rd: w,
            ra: ptr,
            offset: 0,
        });
        p.push(Instruction::Xor {
            rd: crc,
            ra: crc,
            rb: w,
        });
        p.push(Instruction::Addi {
            rd: bit,
            ra: Reg(0),
            imm: 0,
        });
        let bit_loop = p.label();
        // Test the LSB before shifting, then conditionally fold the
        // polynomial into the shifted remainder.
        p.push(Instruction::Andi {
            rd: t,
            ra: crc,
            imm: 1,
        });
        p.push(Instruction::Sfne { ra: t, rb: Reg(0) });
        p.push(Instruction::Srli {
            rd: crc,
            ra: crc,
            shamt: 1,
        });
        let no_fold = p.forward_label();
        p.branch_if_not_flag(no_fold);
        p.push(Instruction::Xor {
            rd: crc,
            ra: crc,
            rb: poly,
        });
        p.bind(no_fold);
        p.push(Instruction::Addi {
            rd: bit,
            ra: bit,
            imm: 1,
        });
        p.push(Instruction::Sfltu {
            ra: bit,
            rb: thirty_two,
        });
        p.branch_if_flag(bit_loop);
        p.push(Instruction::Addi {
            rd: i,
            ra: i,
            imm: 1,
        });
        p.push(Instruction::Sfltu { ra: i, rb: n });
        p.branch_if_flag(word_loop);
        // Final inversion and store.
        p.push(Instruction::Xor {
            rd: crc,
            ra: crc,
            rb: ones,
        });
        p.push(Instruction::Sw {
            ra: base,
            rb: crc,
            offset: (4 * words) as i16,
        });
        let kernel_end = p.here();
        (p.build(), kernel_start..kernel_end)
    }
}

impl Benchmark for Crc32Benchmark {
    fn name(&self) -> &'static str {
        "crc32"
    }

    fn program(&self) -> &Program {
        &self.program
    }

    fn fi_window(&self) -> Range<u32> {
        self.fi_window.clone()
    }

    fn dmem_words(&self) -> usize {
        self.words.len() + 8
    }

    fn initialize(&self, memory: &mut Memory) {
        memory
            .write_block(Self::DATA_BASE, &self.words)
            .expect("data memory large enough");
    }

    fn try_output_error(&self, memory: &Memory) -> Option<f64> {
        let got = memory.load_word(self.output_address()).ok()?;
        Some(if got == self.golden_crc() { 0.0 } else { 1.0 })
    }

    fn error_metric(&self) -> &'static str {
        "exact match"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfi_cpu::{Core, RunConfig};
    use sfi_isa::AluClass;

    fn run(bench: &Crc32Benchmark) -> Core {
        let mut core = Core::new(bench.program().clone(), bench.dmem_words());
        bench.initialize(core.memory_mut());
        let outcome = core.run(&RunConfig::default());
        assert!(outcome.finished(), "outcome: {outcome:?}");
        core
    }

    #[test]
    fn fault_free_run_matches_golden() {
        for words in [1, 16, 128] {
            let bench = Crc32Benchmark::new(words, 4);
            let core = run(&bench);
            assert_eq!(bench.try_output_error(core.memory()), Some(0.0));
            assert!(bench.is_correct(core.memory()));
            assert_eq!(
                core.memory().load_word(bench.output_address()).unwrap(),
                bench.golden_crc()
            );
        }
    }

    #[test]
    fn golden_matches_the_reference_algorithm() {
        // CRC-32("IEEE" word 0x45454549 as a little-endian byte stream)
        // computed with the canonical byte-at-a-time reference.
        let bench = Crc32Benchmark::new(1, 0);
        let bytes = bench.words[0].to_le_bytes();
        let mut crc = u32::MAX;
        for b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLYNOMIAL
                } else {
                    crc >> 1
                };
            }
        }
        assert_eq!(bench.golden_crc(), crc ^ u32::MAX);
    }

    #[test]
    fn kernel_is_pure_control_and_shift() {
        let bench = Crc32Benchmark::new(128, 1);
        let core = run(&bench);
        let stats = core.stats();
        let mix = stats.mix(core.program());
        assert_eq!(
            mix.class_count(AluClass::Mul),
            0,
            "CRC32 has no multiplications"
        );
        assert!(
            mix.control_fraction() > 0.2,
            "CRC32 is control oriented, got {}",
            mix.control_fraction()
        );
        assert!(stats.cycles > 20_000, "128-word CRC32 takes > 20 kCycles");
    }

    #[test]
    fn any_corruption_scores_total_error() {
        let bench = Crc32Benchmark::new(8, 7);
        let mut core = run(&bench);
        let addr = bench.output_address();
        let golden = core.memory().load_word(addr).unwrap();
        core.memory_mut().store_word(addr, golden ^ 1).unwrap();
        assert_eq!(bench.output_error(core.memory()), 1.0);
        assert!(!bench.is_correct(core.memory()));
        assert_eq!(bench.error_metric(), "exact match");
        assert_eq!(bench.name(), "crc32");
    }

    #[test]
    #[should_panic(expected = "word count")]
    fn oversized_message_panics() {
        Crc32Benchmark::new(100_000, 0);
    }
}
