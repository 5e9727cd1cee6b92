//! The radix-2 FFT benchmark: an in-place, fixed-point (Q14 twiddles)
//! decimation-in-time fast Fourier transform over complex integer data.
//!
//! A mix the paper suite lacks: multiplication-heavy like matmul, but with
//! signed arithmetic, arithmetic right shifts for rescaling, and a
//! data-independent butterfly schedule.  The error metric is SNR-style —
//! the energy of the deviation from the golden spectrum relative to the
//! energy of the golden spectrum itself — so a single flipped low-order
//! bit scores tiny while a corrupted exponent scores huge.

use crate::data::random_signed_values;
use crate::Benchmark;
use sfi_cpu::Memory;
use sfi_isa::program::ProgramBuilder;
use sfi_isa::{Instruction, Program, Reg};
use std::ops::Range;
use std::sync::OnceLock;

/// Fractional bits of the twiddle factors.
pub const TWIDDLE_FRACTION_BITS: u32 = 14;

/// In-place radix-2 decimation-in-time FFT of `n` complex samples.
#[derive(Debug, Clone)]
pub struct FftBenchmark {
    n: usize,
    re: Vec<i32>,
    im: Vec<i32>,
    twiddles: Vec<(i32, i32)>,
    bit_reverse: Vec<u32>,
    /// The input word image: `re`, `im`, the twiddle pairs and
    /// `bit_reverse`, which the program reads at byte offsets 0, 4n, 8n
    /// and 12n from `RE_BASE`.
    input: Vec<u32>,
    program: Program,
    fi_window: Range<u32>,
    /// The golden output, computed on first use.
    golden: OnceLock<(Vec<i32>, Vec<i32>)>,
}

impl FftBenchmark {
    /// Byte address of the real-part array.
    const RE_BASE: u32 = 0;

    /// Creates the benchmark for `n` complex points with seeded random
    /// 8-bit signed inputs.
    ///
    /// The input magnitude bound keeps every intermediate product inside
    /// 32-bit two's complement: per butterfly stage amplitudes grow by at
    /// most `1 + √2`, so for `n ≤ 128` the worst case stays below
    /// `2^17` and Q14 products below `2^31`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two in `4..=128`.
    pub fn new(n: usize, seed: u64) -> Self {
        assert!(
            (4..=128).contains(&n) && n.is_power_of_two(),
            "FFT size must be a power of two in 4..=128, got {n}"
        );
        let re = random_signed_values(n, 128, seed);
        let im = random_signed_values(n, 128, seed.wrapping_add(1));
        let scale = (1i64 << TWIDDLE_FRACTION_BITS) as f64;
        let twiddles: Vec<(i32, i32)> = (0..n / 2)
            .map(|k| {
                let angle = -2.0 * std::f64::consts::PI * k as f64 / n as f64;
                (
                    (angle.cos() * scale).round() as i32,
                    (angle.sin() * scale).round() as i32,
                )
            })
            .collect();
        let log2n = n.trailing_zeros();
        let bit_reverse: Vec<u32> = (0..n as u32)
            .map(|i| i.reverse_bits() >> (32 - log2n))
            .collect();
        let input = re
            .iter()
            .chain(&im)
            .chain(twiddles.iter().flat_map(|(wr, wi)| [wr, wi]))
            .map(|&x| x as u32)
            .chain(bit_reverse.iter().copied())
            .collect();
        let (program, fi_window) = Self::build_program(n);
        FftBenchmark {
            n,
            re,
            im,
            twiddles,
            bit_reverse,
            input,
            program,
            fi_window,
            golden: OnceLock::new(),
        }
    }

    fn im_base(&self) -> u32 {
        Self::RE_BASE + 4 * self.n as u32
    }

    /// The golden (fault-free) spectrum `(re, im)`, computed with the
    /// exact fixed-point arithmetic of the kernel (wrapping 32-bit
    /// multiplies, Q14 arithmetic-shift rescaling).
    pub fn golden_spectrum(&self) -> &(Vec<i32>, Vec<i32>) {
        self.golden.get_or_init(|| {
            let n = self.n;
            let mut re = self.re.clone();
            let mut im = self.im.clone();
            for i in 0..n {
                let j = self.bit_reverse[i] as usize;
                if j > i {
                    re.swap(i, j);
                    im.swap(i, j);
                }
            }
            let mut len = 2;
            let mut step = n / 2;
            while len <= n {
                let half = len / 2;
                for start in (0..n).step_by(len) {
                    for k in 0..half {
                        let (wr, wi) = self.twiddles[k * step];
                        let (i0, i1) = (start + k, start + k + half);
                        let tr = wr
                            .wrapping_mul(re[i1])
                            .wrapping_sub(wi.wrapping_mul(im[i1]))
                            >> TWIDDLE_FRACTION_BITS;
                        let ti = wr
                            .wrapping_mul(im[i1])
                            .wrapping_add(wi.wrapping_mul(re[i1]))
                            >> TWIDDLE_FRACTION_BITS;
                        re[i1] = re[i0].wrapping_sub(tr);
                        im[i1] = im[i0].wrapping_sub(ti);
                        re[i0] = re[i0].wrapping_add(tr);
                        im[i0] = im[i0].wrapping_add(ti);
                    }
                }
                len *= 2;
                step /= 2;
            }
            (re, im)
        })
    }

    fn build_program(n: usize) -> (Program, Range<u32>) {
        let mut p = ProgramBuilder::new();
        let (re_base, im_base, tw_base, br_base, n_reg) = (Reg(1), Reg(2), Reg(3), Reg(4), Reg(5));
        let (i, t, ptr, jj, pi, pj, t2, a, b) = (
            Reg(6),
            Reg(7),
            Reg(8),
            Reg(10),
            Reg(11),
            Reg(12),
            Reg(13),
            Reg(14),
            Reg(15),
        );
        let (len, half, step, start, kk) = (Reg(16), Reg(17), Reg(18), Reg(19), Reg(20));
        let (ptw, wr, wi, i0, i1) = (Reg(21), Reg(22), Reg(23), Reg(24), Reg(25));
        let (p1r, p1i, xr, xi, tr, ti) = (Reg(26), Reg(27), Reg(28), Reg(29), Reg(30), Reg(31));
        // The butterfly epilogue reuses the permutation scratch registers.
        let (p0r, p0i, yr, yi) = (pi, pj, t2, a);

        // Prologue (outside the FI window): base addresses and size.
        p.push(Instruction::Addi {
            rd: re_base,
            ra: Reg(0),
            imm: Self::RE_BASE as i16,
        });
        p.load_immediate(im_base, 4 * n as u32);
        p.load_immediate(tw_base, 8 * n as u32);
        p.load_immediate(br_base, 12 * n as u32);
        p.push(Instruction::Addi {
            rd: n_reg,
            ra: Reg(0),
            imm: n as i16,
        });
        let kernel_start = p.here();

        // ---------------- bit-reverse permutation ----------------
        p.push(Instruction::Addi {
            rd: i,
            ra: Reg(0),
            imm: 0,
        });
        let perm_loop = p.label();
        p.push(Instruction::Slli {
            rd: t,
            ra: i,
            shamt: 2,
        });
        p.push(Instruction::Add {
            rd: ptr,
            ra: br_base,
            rb: t,
        });
        p.push(Instruction::Lwz {
            rd: jj,
            ra: ptr,
            offset: 0,
        });
        p.push(Instruction::Sfgtu { ra: jj, rb: i });
        let perm_next = p.forward_label();
        p.branch_if_not_flag(perm_next);
        p.push(Instruction::Slli {
            rd: t2,
            ra: jj,
            shamt: 2,
        });
        for base in [re_base, im_base] {
            p.push(Instruction::Add {
                rd: pi,
                ra: base,
                rb: t,
            });
            p.push(Instruction::Add {
                rd: pj,
                ra: base,
                rb: t2,
            });
            p.push(Instruction::Lwz {
                rd: a,
                ra: pi,
                offset: 0,
            });
            p.push(Instruction::Lwz {
                rd: b,
                ra: pj,
                offset: 0,
            });
            p.push(Instruction::Sw {
                ra: pi,
                rb: b,
                offset: 0,
            });
            p.push(Instruction::Sw {
                ra: pj,
                rb: a,
                offset: 0,
            });
        }
        p.bind(perm_next);
        p.push(Instruction::Addi {
            rd: i,
            ra: i,
            imm: 1,
        });
        p.push(Instruction::Sfltu { ra: i, rb: n_reg });
        p.branch_if_flag(perm_loop);

        // ---------------- butterfly stages ----------------
        p.push(Instruction::Addi {
            rd: len,
            ra: Reg(0),
            imm: 2,
        });
        p.push(Instruction::Srli {
            rd: step,
            ra: n_reg,
            shamt: 1,
        });
        let stage_loop = p.label();
        p.push(Instruction::Srli {
            rd: half,
            ra: len,
            shamt: 1,
        });
        p.push(Instruction::Addi {
            rd: start,
            ra: Reg(0),
            imm: 0,
        });
        let start_loop = p.label();
        p.push(Instruction::Addi {
            rd: kk,
            ra: Reg(0),
            imm: 0,
        });
        let bf_loop = p.label();
        // Twiddle (wr, wi) at pair index kk * step.
        p.push(Instruction::Mul {
            rd: t,
            ra: kk,
            rb: step,
        });
        p.push(Instruction::Slli {
            rd: t,
            ra: t,
            shamt: 3,
        });
        p.push(Instruction::Add {
            rd: ptw,
            ra: tw_base,
            rb: t,
        });
        p.push(Instruction::Lwz {
            rd: wr,
            ra: ptw,
            offset: 0,
        });
        p.push(Instruction::Lwz {
            rd: wi,
            ra: ptw,
            offset: 4,
        });
        p.push(Instruction::Add {
            rd: i0,
            ra: start,
            rb: kk,
        });
        p.push(Instruction::Add {
            rd: i1,
            ra: i0,
            rb: half,
        });
        p.push(Instruction::Slli {
            rd: t,
            ra: i1,
            shamt: 2,
        });
        p.push(Instruction::Add {
            rd: p1r,
            ra: re_base,
            rb: t,
        });
        p.push(Instruction::Add {
            rd: p1i,
            ra: im_base,
            rb: t,
        });
        p.push(Instruction::Lwz {
            rd: xr,
            ra: p1r,
            offset: 0,
        });
        p.push(Instruction::Lwz {
            rd: xi,
            ra: p1i,
            offset: 0,
        });
        // tr = (wr·xr - wi·xi) >> 14, ti = (wr·xi + wi·xr) >> 14
        p.push(Instruction::Mul {
            rd: a,
            ra: wr,
            rb: xr,
        });
        p.push(Instruction::Mul {
            rd: b,
            ra: wi,
            rb: xi,
        });
        p.push(Instruction::Sub {
            rd: a,
            ra: a,
            rb: b,
        });
        p.push(Instruction::Srai {
            rd: tr,
            ra: a,
            shamt: TWIDDLE_FRACTION_BITS as u8,
        });
        p.push(Instruction::Mul {
            rd: a,
            ra: wr,
            rb: xi,
        });
        p.push(Instruction::Mul {
            rd: b,
            ra: wi,
            rb: xr,
        });
        p.push(Instruction::Add {
            rd: a,
            ra: a,
            rb: b,
        });
        p.push(Instruction::Srai {
            rd: ti,
            ra: a,
            shamt: TWIDDLE_FRACTION_BITS as u8,
        });
        p.push(Instruction::Slli {
            rd: t,
            ra: i0,
            shamt: 2,
        });
        p.push(Instruction::Add {
            rd: p0r,
            ra: re_base,
            rb: t,
        });
        p.push(Instruction::Add {
            rd: p0i,
            ra: im_base,
            rb: t,
        });
        p.push(Instruction::Lwz {
            rd: yr,
            ra: p0r,
            offset: 0,
        });
        p.push(Instruction::Lwz {
            rd: yi,
            ra: p0i,
            offset: 0,
        });
        p.push(Instruction::Sub {
            rd: b,
            ra: yr,
            rb: tr,
        });
        p.push(Instruction::Sw {
            ra: p1r,
            rb: b,
            offset: 0,
        });
        p.push(Instruction::Sub {
            rd: b,
            ra: yi,
            rb: ti,
        });
        p.push(Instruction::Sw {
            ra: p1i,
            rb: b,
            offset: 0,
        });
        p.push(Instruction::Add {
            rd: b,
            ra: yr,
            rb: tr,
        });
        p.push(Instruction::Sw {
            ra: p0r,
            rb: b,
            offset: 0,
        });
        p.push(Instruction::Add {
            rd: b,
            ra: yi,
            rb: ti,
        });
        p.push(Instruction::Sw {
            ra: p0i,
            rb: b,
            offset: 0,
        });
        p.push(Instruction::Addi {
            rd: kk,
            ra: kk,
            imm: 1,
        });
        p.push(Instruction::Sfltu { ra: kk, rb: half });
        p.branch_if_flag(bf_loop);
        p.push(Instruction::Add {
            rd: start,
            ra: start,
            rb: len,
        });
        p.push(Instruction::Sfltu {
            ra: start,
            rb: n_reg,
        });
        p.branch_if_flag(start_loop);
        p.push(Instruction::Slli {
            rd: len,
            ra: len,
            shamt: 1,
        });
        p.push(Instruction::Srli {
            rd: step,
            ra: step,
            shamt: 1,
        });
        p.push(Instruction::Sfleu { ra: len, rb: n_reg });
        p.branch_if_flag(stage_loop);
        let kernel_end = p.here();
        (p.build(), kernel_start..kernel_end)
    }
}

impl Benchmark for FftBenchmark {
    fn name(&self) -> &'static str {
        "fft"
    }

    fn program(&self) -> &Program {
        &self.program
    }

    fn fi_window(&self) -> Range<u32> {
        self.fi_window.clone()
    }

    fn dmem_words(&self) -> usize {
        4 * self.n + 8
    }

    fn initialize(&self, memory: &mut Memory) {
        memory
            .write_block(Self::RE_BASE, &self.input)
            .expect("data memory large enough");
    }

    fn try_output_error(&self, memory: &Memory) -> Option<f64> {
        let (golden_re, golden_im) = self.golden_spectrum();
        let got_re = memory.read_block(Self::RE_BASE, self.n).ok()?;
        let got_im = memory.read_block(self.im_base(), self.n).ok()?;
        let mut noise = 0.0f64;
        let mut signal = 0.0f64;
        for i in 0..self.n {
            let dr = golden_re[i] as f64 - (got_re[i] as i32) as f64;
            let di = golden_im[i] as f64 - (got_im[i] as i32) as f64;
            noise += dr * dr + di * di;
            signal += golden_re[i] as f64 * golden_re[i] as f64
                + golden_im[i] as f64 * golden_im[i] as f64;
        }
        Some(noise / signal.max(1.0))
    }

    fn error_metric(&self) -> &'static str {
        "noise-to-signal energy ratio"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfi_cpu::{Core, RunConfig};
    use sfi_isa::AluClass;

    fn run(bench: &FftBenchmark) -> Core {
        let mut core = Core::new(bench.program().clone(), bench.dmem_words());
        bench.initialize(core.memory_mut());
        let outcome = core.run(&RunConfig::default());
        assert!(outcome.finished(), "outcome: {outcome:?}");
        core
    }

    #[test]
    fn fault_free_run_matches_golden() {
        for n in [4, 16, 64, 128] {
            let bench = FftBenchmark::new(n, 17);
            let core = run(&bench);
            assert_eq!(bench.try_output_error(core.memory()), Some(0.0), "n = {n}");
            assert!(bench.is_correct(core.memory()));
            let (golden_re, _) = bench.golden_spectrum();
            let got: Vec<i32> = core
                .memory()
                .read_block(0, n)
                .unwrap()
                .into_iter()
                .map(|w| w as i32)
                .collect();
            assert_eq!(&got, golden_re);
        }
    }

    #[test]
    fn spectrum_matches_a_float_dft() {
        // The fixed-point spectrum must track an independent O(n²) DFT to
        // within the Q14 rounding budget.
        let n = 16;
        let bench = FftBenchmark::new(n, 3);
        let (got_re, got_im) = bench.golden_spectrum();
        for k in 0..n {
            let (mut sr, mut si) = (0.0f64, 0.0f64);
            for (t, (&xr, &xi)) in bench.re.iter().zip(&bench.im).enumerate() {
                let angle = -2.0 * std::f64::consts::PI * (k * t) as f64 / n as f64;
                let (c, s) = (angle.cos(), angle.sin());
                sr += xr as f64 * c - xi as f64 * s;
                si += xr as f64 * s + xi as f64 * c;
            }
            // Per-stage truncation: a loose but safe tolerance.
            assert!(
                (got_re[k] as f64 - sr).abs() < 64.0,
                "bin {k}: {} vs {sr}",
                got_re[k]
            );
            assert!(
                (got_im[k] as f64 - si).abs() < 64.0,
                "bin {k}: {} vs {si}",
                got_im[k]
            );
        }
    }

    #[test]
    fn kernel_mixes_multiplications_and_control() {
        let bench = FftBenchmark::new(64, 1);
        let core = run(&bench);
        let mix = core.stats().mix(core.program());
        assert!(
            mix.class_count(AluClass::Mul) > 4 * 32 * 6,
            "four Q14 products per butterfly"
        );
        assert!(mix.control_fraction() > 0.02, "loop back-edges retire");
        assert!(mix.compute_fraction() > 0.3);
    }

    #[test]
    fn snr_metric_weights_energy_not_count() {
        let bench = FftBenchmark::new(16, 9);
        let mut core = run(&bench);
        let golden = core.memory().load_word(0).unwrap();
        core.memory_mut()
            .store_word(0, (golden as i32 + 1) as u32)
            .unwrap();
        let tiny = bench.output_error(core.memory());
        core.memory_mut()
            .store_word(0, (golden as i32 + 4096) as u32)
            .unwrap();
        let huge = bench.output_error(core.memory());
        assert!(tiny > 0.0);
        assert!(huge > tiny * 1000.0);
        assert!(!bench.is_correct(core.memory()));
        assert_eq!(bench.error_metric(), "noise-to-signal energy ratio");
        assert_eq!(bench.name(), "fft");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn invalid_size_panics() {
        FftBenchmark::new(24, 0);
    }
}
