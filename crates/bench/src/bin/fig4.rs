//! Fig. 4: MSE vs frequency for 16-bit addition, 32-bit addition and
//! 32-bit multiplication micro-kernels at 0.7 V with 10 mV noise (model C).
//!
//! The micro-kernels implement [`Benchmark`], so the whole figure is one
//! [`CampaignSpec`] (3 kernels × `--points` frequencies) run by the
//! parallel campaign engine.  The MSE column reports the mean squared
//! error of the runs that finished; crashed runs show up in the
//! `finished` fraction instead of polluting the error average.

use sfi_bench::{print_header, ExperimentArgs};
use sfi_campaign::{CampaignSpec, TrialBudget};
use sfi_core::experiment::FaultModel;
use sfi_cpu::Memory;
use sfi_fault::OperatingPoint;
use sfi_isa::program::ProgramBuilder;
use sfi_isa::{Instruction, Reg};
use sfi_kernels::data::random_values;
use sfi_kernels::Benchmark;
use sfi_netlist::alu::AluOp;
use std::ops::Range;

/// A micro-kernel applying one ALU instruction to an array of random
/// operand pairs and storing the results.
struct SingleInstructionKernel {
    name: &'static str,
    op: AluOp,
    a: Vec<u32>,
    b: Vec<u32>,
    program: sfi_isa::Program,
    window: Range<u32>,
}

impl SingleInstructionKernel {
    fn new(name: &'static str, op: AluOp, operand_bits: u32, count: usize, seed: u64) -> Self {
        // Capped at u32::MAX: `1 << 32` would truncate to a zero bound.
        let bound = if operand_bits >= 32 {
            u32::MAX
        } else {
            1u32 << operand_bits
        };
        let a = random_values(count, bound, seed);
        let b = random_values(count, bound, seed + 1);
        let mut p = ProgramBuilder::new();
        let (a_base, b_base, out_base, n, i) = (Reg(1), Reg(2), Reg(3), Reg(4), Reg(5));
        let (ptr, va, vb, res) = (Reg(6), Reg(7), Reg(8), Reg(9));
        p.push(Instruction::Addi {
            rd: a_base,
            ra: Reg(0),
            imm: 0,
        });
        p.load_immediate(b_base, (4 * count) as u32);
        p.load_immediate(out_base, (8 * count) as u32);
        p.push(Instruction::Addi {
            rd: n,
            ra: Reg(0),
            imm: count as i16,
        });
        p.push(Instruction::Addi {
            rd: i,
            ra: Reg(0),
            imm: 0,
        });
        let start = p.here();
        let head = p.label();
        p.push(Instruction::Slli {
            rd: ptr,
            ra: i,
            shamt: 2,
        });
        p.push(Instruction::Add {
            rd: ptr,
            ra: ptr,
            rb: a_base,
        });
        p.push(Instruction::Lwz {
            rd: va,
            ra: ptr,
            offset: 0,
        });
        p.push(Instruction::Slli {
            rd: ptr,
            ra: i,
            shamt: 2,
        });
        p.push(Instruction::Add {
            rd: ptr,
            ra: ptr,
            rb: b_base,
        });
        p.push(Instruction::Lwz {
            rd: vb,
            ra: ptr,
            offset: 0,
        });
        match op {
            AluOp::Mul => p.push(Instruction::Mul {
                rd: res,
                ra: va,
                rb: vb,
            }),
            _ => p.push(Instruction::Add {
                rd: res,
                ra: va,
                rb: vb,
            }),
        };
        p.push(Instruction::Slli {
            rd: ptr,
            ra: i,
            shamt: 2,
        });
        p.push(Instruction::Add {
            rd: ptr,
            ra: ptr,
            rb: out_base,
        });
        p.push(Instruction::Sw {
            ra: ptr,
            rb: res,
            offset: 0,
        });
        p.push(Instruction::Addi {
            rd: i,
            ra: i,
            imm: 1,
        });
        p.push(Instruction::Sfltu { ra: i, rb: n });
        p.branch_if_flag(head);
        let end = p.here();
        SingleInstructionKernel {
            name,
            op,
            a,
            b,
            program: p.build(),
            window: start..end,
        }
    }

    fn golden(&self) -> Vec<u32> {
        self.a
            .iter()
            .zip(&self.b)
            .map(|(&x, &y)| match self.op {
                AluOp::Mul => x.wrapping_mul(y),
                _ => x.wrapping_add(y),
            })
            .collect()
    }
}

impl Benchmark for SingleInstructionKernel {
    fn name(&self) -> &'static str {
        self.name
    }

    fn program(&self) -> &sfi_isa::Program {
        &self.program
    }

    fn fi_window(&self) -> Range<u32> {
        self.window.clone()
    }

    fn dmem_words(&self) -> usize {
        3 * self.a.len() + 8
    }

    fn initialize(&self, memory: &mut Memory) {
        memory.write_block(0, &self.a).expect("dmem");
        memory
            .write_block((4 * self.a.len()) as u32, &self.b)
            .expect("dmem");
    }

    fn try_output_error(&self, memory: &Memory) -> Option<f64> {
        let golden = self.golden();
        let got = memory
            .read_block((8 * self.a.len()) as u32, self.a.len())
            .ok()?;
        let mse = golden
            .iter()
            .zip(&got)
            .map(|(&g, &o)| {
                let d = g as f64 - o as f64;
                d * d
            })
            .sum::<f64>()
            / self.a.len() as f64;
        Some(mse)
    }

    fn error_metric(&self) -> &'static str {
        "mean squared error"
    }
}

fn main() {
    let args = ExperimentArgs::from_env();
    print_header("Fig. 4: MSE vs frequency per instruction (model C)", &args);
    let study = args.build_study();
    let sta = study.sta_limit_mhz(0.7);
    println!("STA limit @ 0.7 V: {sta:.1} MHz\n");

    let count = 256usize;
    let mut spec = CampaignSpec::new("fig4", 1000);
    let kernels = [
        (
            "l.add 16-bit",
            spec.add_benchmark(SingleInstructionKernel::new(
                "add16",
                AluOp::Add,
                16,
                count,
                3,
            )),
        ),
        (
            "l.add 32-bit",
            spec.add_benchmark(SingleInstructionKernel::new(
                "add32",
                AluOp::Add,
                32,
                count,
                3,
            )),
        ),
        (
            "l.mul 32-bit",
            spec.add_benchmark(SingleInstructionKernel::new(
                "mul32",
                AluOp::Mul,
                16,
                count,
                3,
            )),
        ),
    ];
    let freqs: Vec<f64> = (0..args.points)
        .map(|i| sta * (0.95 + 0.85 * i as f64 / (args.points - 1) as f64))
        .collect();
    let point = OperatingPoint::new(sta, 0.7).with_noise_sigma_mv(10.0);
    let sweeps: Vec<_> = kernels
        .iter()
        .map(|&(_, kernel)| {
            spec.add_frequency_sweep(
                kernel,
                FaultModel::StatisticalDta,
                point,
                &freqs,
                TrialBudget::fixed(args.trials),
            )
        })
        .collect();

    let result = args.run(&study, &spec);

    println!(
        "{:>10} {:>18} {:>18} {:>18}",
        "f [MHz]", "MSE add16", "MSE add32", "MSE mul32"
    );
    let mut first_fail = [f64::NAN; 3];
    for (fi, &f) in freqs.iter().enumerate() {
        let mut row = format!("{f:>10.1}");
        for (k, cells) in sweeps.iter().enumerate() {
            let stats = &result.cells[cells.start + fi].stats;
            let mse = stats.mean_output_error().unwrap_or(f64::NAN);
            if (mse > 0.0 || stats.correct_fraction() < 1.0) && first_fail[k].is_nan() {
                first_fail[k] = f;
            }
            row.push_str(&format!(" {mse:>18.3e}"));
        }
        println!("{row}");
    }
    println!();
    for (k, (name, _)) in kernels.iter().enumerate() {
        println!(
            "first calculation errors ({name}): {:.1} MHz",
            first_fail[k]
        );
    }
    println!(
        "Paper reference ordering: mul (685 MHz) < add 32-bit (746 MHz) < add 16-bit (877 MHz)."
    );
}
