//! The decoded run loop against a reference interpreter.
//!
//! `Core::run_with_injector` executes the micro-op table that
//! `Program::new` decodes once.  This file keeps a naive interpreter that
//! matches `Instruction` on every step instead, and runs both on
//! fixed-seed generated programs: every opcode (r0 as destination too),
//! the swapped comparisons and `l.movhi`, `l.jal`/`l.jr` (also to a pc
//! outside the program), misaligned and out-of-range memory accesses,
//! fault-injection windows that are absent, empty, inverted or touch
//! either program edge, and cycle budgets that run out exactly on an
//! instruction boundary.  An injector that records every execution-stage
//! context and flips bits drives runs into every outcome.  The outcome,
//! registers, flag, pc, memory, `RunStats` and the recorded contexts must
//! be equal.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sfi_cpu::{
    Core, CpuState, ExStageContext, FaultInjector, Memory, NoFaultInjector, RunConfig, RunOutcome,
    RunStats,
};
use sfi_isa::registers::REGISTER_COUNT;
use sfi_isa::{AluClass, Instruction, Program, Reg, BRANCH_PENALTY_CYCLES, MNEMONICS};
use std::collections::BTreeSet;

/// Words of data memory of every generated run.
const DMEM_WORDS: usize = 64;

/// The reference interpreter: the ISS as a direct match on `Instruction`.
struct Reference {
    state: CpuState,
    memory: Memory,
    stats: RunStats,
    /// The last instruction retired, to tell what left the program.
    last: Option<Instruction>,
}

impl Reference {
    fn new(program: &Program, state: CpuState, memory: Memory) -> Self {
        Reference {
            state,
            memory,
            stats: RunStats {
                retired: vec![0; program.len()],
                ..RunStats::default()
            },
            last: None,
        }
    }

    fn run(
        &mut self,
        program: &Program,
        config: &RunConfig,
        injector: &mut dyn FaultInjector,
    ) -> RunOutcome {
        injector.begin_run();
        loop {
            let cycles = self.stats.cycles;
            if self.state.pc as usize == program.len() {
                return RunOutcome::Finished { cycles };
            }
            if cycles >= config.max_cycles {
                return RunOutcome::Watchdog { cycles };
            }
            let Some(instruction) = program.fetch(self.state.pc) else {
                return RunOutcome::InvalidPc {
                    cycles,
                    pc: self.state.pc,
                };
            };
            if let Err(error) = self.step(instruction, config, injector) {
                return RunOutcome::MemoryFault { cycles, error };
            }
        }
    }

    fn step(
        &mut self,
        instruction: Instruction,
        config: &RunConfig,
        injector: &mut dyn FaultInjector,
    ) -> Result<(), sfi_cpu::memory::MemoryError> {
        use Instruction::*;
        let pc = self.state.pc;
        let fi_enabled = config.fi_window.as_ref().is_none_or(|w| w.contains(&pc));
        let mut cycles = 1;
        let mut next_pc = pc.wrapping_add(1);
        let target = |offset: i32| (pc as i64 + 1 + offset as i64) as u32;
        if let Some((class, a, b)) = self.alu_operands(instruction) {
            let golden = alu(class, a, b);
            let mask = injector.inject(&ExStageContext {
                cycle: self.stats.cycles,
                alu_class: class,
                operand_a: a,
                operand_b: b,
                result: golden,
                fi_enabled,
            });
            let mask = if fi_enabled { mask } else { 0 };
            if fi_enabled {
                self.stats.record_fault(mask);
            }
            let result = golden ^ mask;
            if class.is_set_flag() {
                self.state.flag = result & 1 == 1;
            } else {
                self.state
                    .set_reg(instruction.destination().unwrap(), result);
            }
        } else {
            match instruction {
                Lwz { rd, ra, offset } => {
                    let address = self.state.reg(ra).wrapping_add(offset as i32 as u32);
                    let value = self.memory.load_word(address)?;
                    self.state.set_reg(rd, value);
                }
                Sw { ra, rb, offset } => {
                    let address = self.state.reg(ra).wrapping_add(offset as i32 as u32);
                    self.memory.store_word(address, self.state.reg(rb))?;
                }
                Bf { offset } | Bnf { offset } => {
                    if self.state.flag == matches!(instruction, Bf { .. }) {
                        next_pc = target(offset);
                        cycles += BRANCH_PENALTY_CYCLES;
                    }
                }
                J { offset } => {
                    next_pc = target(offset);
                    cycles += BRANCH_PENALTY_CYCLES;
                }
                Jal { offset } => {
                    self.state
                        .set_reg(Instruction::LINK_REGISTER, pc.wrapping_add(1));
                    next_pc = target(offset);
                    cycles += BRANCH_PENALTY_CYCLES;
                }
                Jr { ra } => {
                    next_pc = self.state.reg(ra);
                    cycles += BRANCH_PENALTY_CYCLES;
                }
                Nop => {}
                _ => unreachable!("ALU instruction {instruction} has operands"),
            }
        }
        self.stats.instructions += 1;
        self.stats.retired[pc as usize] += 1;
        self.stats.cycles += cycles;
        if fi_enabled {
            self.stats.kernel_cycles += cycles;
        }
        self.state.pc = next_pc;
        self.last = Some(instruction);
        Ok(())
    }

    /// The (class, operand A, operand B) the datapath sees, for ALU
    /// instructions.
    fn alu_operands(&self, instruction: Instruction) -> Option<(AluClass, u32, u32)> {
        use Instruction::*;
        let r = |reg: Reg| self.state.reg(reg);
        Some(match instruction {
            Add { ra, rb, .. } => (AluClass::Add, r(ra), r(rb)),
            Sub { ra, rb, .. } => (AluClass::Sub, r(ra), r(rb)),
            And { ra, rb, .. } => (AluClass::And, r(ra), r(rb)),
            Or { ra, rb, .. } => (AluClass::Or, r(ra), r(rb)),
            Xor { ra, rb, .. } => (AluClass::Xor, r(ra), r(rb)),
            Mul { ra, rb, .. } => (AluClass::Mul, r(ra), r(rb)),
            Sll { ra, rb, .. } => (AluClass::Sll, r(ra), r(rb)),
            Srl { ra, rb, .. } => (AluClass::Srl, r(ra), r(rb)),
            Sra { ra, rb, .. } => (AluClass::Sra, r(ra), r(rb)),
            Addi { ra, imm, .. } => (AluClass::Add, r(ra), imm as i32 as u32),
            Andi { ra, imm, .. } => (AluClass::And, r(ra), imm as u32),
            Ori { ra, imm, .. } => (AluClass::Or, r(ra), imm as u32),
            Xori { ra, imm, .. } => (AluClass::Xor, r(ra), imm as u32),
            Muli { ra, imm, .. } => (AluClass::Mul, r(ra), imm as i32 as u32),
            Slli { ra, shamt, .. } => (AluClass::Sll, r(ra), shamt as u32),
            Srli { ra, shamt, .. } => (AluClass::Srl, r(ra), shamt as u32),
            Srai { ra, shamt, .. } => (AluClass::Sra, r(ra), shamt as u32),
            Movhi { imm, .. } => (AluClass::Or, 0, (imm as u32) << 16),
            Sfeq { ra, rb } => (AluClass::SfEq, r(ra), r(rb)),
            Sfne { ra, rb } => (AluClass::SfNe, r(ra), r(rb)),
            Sfltu { ra, rb } => (AluClass::SfLtu, r(ra), r(rb)),
            Sfgeu { ra, rb } => (AluClass::SfGeu, r(ra), r(rb)),
            Sfgtu { ra, rb } => (AluClass::SfLtu, r(rb), r(ra)),
            Sfleu { ra, rb } => (AluClass::SfGeu, r(rb), r(ra)),
            Sflts { ra, rb } => (AluClass::SfLts, r(ra), r(rb)),
            Sfges { ra, rb } => (AluClass::SfGes, r(ra), r(rb)),
            Sfgts { ra, rb } => (AluClass::SfLts, r(rb), r(ra)),
            Sfles { ra, rb } => (AluClass::SfGes, r(rb), r(ra)),
            Lwz { .. }
            | Sw { .. }
            | Bf { .. }
            | Bnf { .. }
            | J { .. }
            | Jal { .. }
            | Jr { .. }
            | Nop => return None,
        })
    }
}

/// The datapath semantics, written out independently of `Core::alu_result`.
fn alu(class: AluClass, a: u32, b: u32) -> u32 {
    let (sa, sb) = (a as i32, b as i32);
    match class {
        AluClass::Add => a.wrapping_add(b),
        AluClass::Sub => a.wrapping_sub(b),
        AluClass::And => a & b,
        AluClass::Or => a | b,
        AluClass::Xor => a ^ b,
        AluClass::Sll => a << (b % 32),
        AluClass::Srl => a >> (b % 32),
        AluClass::Sra => (sa >> (b % 32)) as u32,
        AluClass::Mul => a.wrapping_mul(b),
        AluClass::SfEq => (a == b) as u32,
        AluClass::SfNe => (a != b) as u32,
        AluClass::SfLtu => (a < b) as u32,
        AluClass::SfGeu => (a >= b) as u32,
        AluClass::SfLts => (sa < sb) as u32,
        AluClass::SfGes => (sa >= sb) as u32,
    }
}

/// Records every context it sees and flips random result bits with
/// probability `rate`; two copies with the same seed flip the same bits
/// as long as they are called with the same sequence.
struct Recorder {
    rng: SmallRng,
    rate: f64,
    seen: Vec<ExStageContext>,
    begun: u32,
}

impl Recorder {
    fn new(seed: u64, rate: f64) -> Self {
        Recorder {
            rng: SmallRng::seed_from_u64(seed),
            rate,
            seen: Vec::new(),
            begun: 0,
        }
    }
}

impl FaultInjector for Recorder {
    fn inject(&mut self, ctx: &ExStageContext) -> u32 {
        self.seen.push(*ctx);
        if self.rate > 0.0 && self.rng.gen_bool(self.rate) {
            // A high bit sends addresses and jump targets far away; a low
            // one flips flags and loop counters.
            match self.rng.gen_range(0..3u32) {
                0 => 1,
                1 => 1 << self.rng.gen_range(0..32u32),
                _ => self.rng.gen::<u32>(),
            }
        } else {
            0
        }
    }

    fn begin_run(&mut self) {
        self.begun += 1;
    }
}

fn reg(rng: &mut SmallRng) -> Reg {
    // r0 a quarter of the time, so it is often a destination.
    if rng.gen_bool(0.25) {
        Reg::ZERO
    } else {
        Reg(rng.gen_range(1..REGISTER_COUNT as u8))
    }
}

/// A memory offset: usually a word inside (or just past) the memory,
/// sometimes misaligned, negative or far out of range.
fn offset(rng: &mut SmallRng) -> i16 {
    match rng.gen_range(0..8u32) {
        0 => rng.gen::<u32>() as i16,
        1 => rng.gen_range(-8..0i16) * 4,
        2 => rng.gen_range(0..(DMEM_WORDS as i16 * 4 + 8)),
        _ => rng.gen_range(0..DMEM_WORDS as i16 + 2) * 4,
    }
}

/// One random instruction of the given mnemonic.
fn instruction(rng: &mut SmallRng, mnemonic: &str, len: usize) -> Instruction {
    use Instruction::*;
    let (rd, ra, rb) = (reg(rng), reg(rng), reg(rng));
    let imm: u16 = match rng.gen_range(0..3u32) {
        0 => rng.gen_range(0..8u16),
        1 => rng.gen::<u32>() as u16,
        _ => rng.gen_range(0xFFF8..=0xFFFFu16),
    };
    let shamt = rng.gen_range(0..32u8);
    // Mostly inside the program, now and then beyond either end.
    let branch = rng.gen_range(-(len as i32) - 3..len as i32 + 3);
    match mnemonic {
        "l.add" => Add { rd, ra, rb },
        "l.sub" => Sub { rd, ra, rb },
        "l.and" => And { rd, ra, rb },
        "l.or" => Or { rd, ra, rb },
        "l.xor" => Xor { rd, ra, rb },
        "l.mul" => Mul { rd, ra, rb },
        "l.sll" => Sll { rd, ra, rb },
        "l.srl" => Srl { rd, ra, rb },
        "l.sra" => Sra { rd, ra, rb },
        "l.addi" => Addi {
            rd,
            ra,
            imm: imm as i16,
        },
        "l.andi" => Andi { rd, ra, imm },
        "l.ori" => Ori { rd, ra, imm },
        "l.xori" => Xori { rd, ra, imm },
        "l.muli" => Muli {
            rd,
            ra,
            imm: imm as i16,
        },
        "l.slli" => Slli { rd, ra, shamt },
        "l.srli" => Srli { rd, ra, shamt },
        "l.srai" => Srai { rd, ra, shamt },
        "l.movhi" => Movhi { rd, imm },
        "l.sfeq" => Sfeq { ra, rb },
        "l.sfne" => Sfne { ra, rb },
        "l.sfltu" => Sfltu { ra, rb },
        "l.sfgeu" => Sfgeu { ra, rb },
        "l.sfgtu" => Sfgtu { ra, rb },
        "l.sfleu" => Sfleu { ra, rb },
        "l.sflts" => Sflts { ra, rb },
        "l.sfges" => Sfges { ra, rb },
        "l.sfgts" => Sfgts { ra, rb },
        "l.sfles" => Sfles { ra, rb },
        "l.lwz" => Lwz {
            rd,
            ra,
            offset: offset(rng),
        },
        "l.sw" => Sw {
            ra,
            rb,
            offset: offset(rng),
        },
        "l.bf" => Bf { offset: branch },
        "l.bnf" => Bnf { offset: branch },
        "l.j" => J { offset: branch },
        "l.jal" => Jal { offset: branch },
        "l.jr" => Jr { ra },
        "l.nop" => Nop,
        other => unreachable!("unknown mnemonic {other}"),
    }
}

/// A random program; control flow is rarer than data flow so runs get
/// somewhere before they loop or leave.
fn program(rng: &mut SmallRng) -> Program {
    let len = rng.gen_range(1..40usize);
    (0..len)
        .map(|_| {
            let mnemonic = loop {
                let m = MNEMONICS[rng.gen_range(0..MNEMONICS.len())];
                let control = matches!(m, "l.bf" | "l.bnf" | "l.j" | "l.jal" | "l.jr");
                if !control || rng.gen_bool(0.4) {
                    break m;
                }
            };
            instruction(rng, mnemonic, len)
        })
        .collect()
}

/// Register values that make useful addresses and jump targets: small
/// word addresses, pcs in and just past the program, and anything.
fn initial_state(rng: &mut SmallRng, len: usize) -> CpuState {
    let mut state = CpuState::new();
    for r in 1..REGISTER_COUNT as u8 {
        let value = match rng.gen_range(0..4u32) {
            0 => rng.gen_range(0..DMEM_WORDS as u32 + 4) * 4,
            1 => rng.gen_range(0..len as u32 + 3),
            2 => rng.gen_range(0..8u32),
            _ => rng.gen(),
        };
        state.set_reg(Reg(r), value);
    }
    state.flag = rng.gen();
    state
}

/// Fault-injection windows: absent, empty, inverted, touching each edge of
/// the program, covering it, and random.
fn windows(rng: &mut SmallRng, len: u32) -> Vec<Option<std::ops::Range<u32>>> {
    let mid = rng.gen_range(0..=len);
    #[allow(clippy::reversed_empty_ranges)]
    let inverted = (mid + 1)..mid;
    vec![
        None,
        Some(mid..mid),
        Some(inverted),
        Some(0..1),
        Some(len - 1..len),
        Some(0..len),
        Some(mid..len),
        Some(0..mid),
        Some(len..u32::MAX),
        Some(rng.gen_range(0..len)..rng.gen_range(0..len + 2)),
    ]
}

/// How the decoded core and the reference ended one run.
#[derive(Debug, PartialEq)]
struct Observed {
    outcome: RunOutcome,
    registers: [u32; REGISTER_COUNT],
    flag: bool,
    pc: u32,
    memory: Vec<u32>,
    stats: RunStats,
    contexts: Vec<ExStageContext>,
    begun: u32,
}

/// Runs `program` on both interpreters from the same start and returns
/// both observations, plus the reference's last retired instruction.
fn run_both(
    program: &Program,
    start: &CpuState,
    memory: &Memory,
    config: &RunConfig,
    seed: u64,
    rate: f64,
) -> (Observed, Observed, Option<Instruction>) {
    let mut core = Core::new(program.clone(), DMEM_WORDS);
    *core.state_mut() = start.clone();
    *core.memory_mut() = memory.clone();
    let mut injector = Recorder::new(seed, rate);
    let outcome = core.run_with_injector(config, &mut injector);
    let decoded = Observed {
        outcome,
        registers: *core.state().registers(),
        flag: core.state().flag,
        pc: core.state().pc,
        memory: core.memory().words().to_vec(),
        stats: core.stats().clone(),
        contexts: injector.seen,
        begun: injector.begun,
    };

    let mut reference = Reference::new(program, start.clone(), memory.clone());
    let mut injector = Recorder::new(seed, rate);
    let outcome = reference.run(program, config, &mut injector);
    let expected = Observed {
        outcome,
        registers: *reference.state.registers(),
        flag: reference.state.flag,
        pc: reference.state.pc,
        memory: reference.memory.words().to_vec(),
        stats: reference.stats,
        contexts: injector.seen,
        begun: injector.begun,
    };
    (decoded, expected, reference.last)
}

fn outcome_kind(outcome: &RunOutcome) -> &'static str {
    match outcome {
        RunOutcome::Finished { .. } => "finished",
        RunOutcome::Watchdog { .. } => "watchdog",
        RunOutcome::MemoryFault { .. } => "memory_fault",
        RunOutcome::InvalidPc { .. } => "invalid_pc",
    }
}

#[test]
fn decoded_core_matches_the_reference_interpreter() {
    let mut rng = SmallRng::seed_from_u64(0x5F1_15A);
    let mut kinds: BTreeSet<(&str, bool)> = BTreeSet::new();
    let mut mnemonics: BTreeSet<&str> = BTreeSet::new();
    let mut to_r0: BTreeSet<&str> = BTreeSet::new();
    let mut jr_outside = 0;
    let mut boundary_stops = 0;
    for case in 0..600u64 {
        let program = program(&mut rng);
        let len = program.len() as u32;
        for i in program.instructions() {
            mnemonics.insert(i.mnemonic());
            if i.destination() == Some(Reg::ZERO) {
                to_r0.insert(i.mnemonic());
            }
        }
        let start = initial_state(&mut rng, program.len());
        let mut memory = Memory::new(DMEM_WORDS);
        for w in 0..DMEM_WORDS as u32 {
            memory.store_word(w * 4, rng.gen()).unwrap();
        }
        let rate = [0.0, 0.02, 0.2][case as usize % 3];
        for window in windows(&mut rng, len) {
            let free_run = RunConfig {
                max_cycles: 4_000,
                fi_window: window.clone(),
            };
            let (decoded, expected, last) =
                run_both(&program, &start, &memory, &free_run, case, rate);
            assert_eq!(decoded, expected, "case {case}:\n{program}");
            kinds.insert((outcome_kind(&decoded.outcome), rate > 0.0));
            if let (RunOutcome::InvalidPc { .. }, Some(Instruction::Jr { .. })) =
                (&decoded.outcome, last)
            {
                jr_outside += 1;
            }

            // Budgets that run out exactly on instruction boundaries: the
            // cycle of an execution-stage context is the cycle count
            // before that instruction, and the end of the free run is the
            // count after the last one.
            let mut budgets: Vec<u64> = expected.contexts.iter().map(|c| c.cycle).collect();
            budgets.push(expected.outcome.cycles());
            budgets.extend([0, 1, expected.outcome.cycles().saturating_sub(1)]);
            budgets.sort_unstable();
            budgets.dedup();
            for &max_cycles in budgets.iter().step_by(budgets.len() / 6 + 1) {
                let bounded = RunConfig {
                    max_cycles,
                    fi_window: window.clone(),
                };
                let (decoded, expected, _) =
                    run_both(&program, &start, &memory, &bounded, case, rate);
                assert_eq!(
                    decoded, expected,
                    "case {case}, budget {max_cycles}:\n{program}"
                );
                if decoded.outcome == (RunOutcome::Watchdog { cycles: max_cycles }) {
                    boundary_stops += 1;
                }
            }
        }
    }
    assert_eq!(
        mnemonics.len(),
        MNEMONICS.len(),
        "opcodes seen: {mnemonics:?}"
    );
    // Every ALU instruction that writes a register, and l.lwz.
    let writers = MNEMONICS
        .iter()
        .filter(|m| !m.starts_with("l.sf"))
        .filter(|m| {
            !matches!(
                **m,
                "l.sw" | "l.bf" | "l.bnf" | "l.j" | "l.jal" | "l.jr" | "l.nop"
            )
        })
        .count();
    assert_eq!(to_r0.len(), writers, "r0 destinations: {to_r0:?}");
    for kind in ["finished", "watchdog", "memory_fault", "invalid_pc"] {
        for faulted in [false, true] {
            assert!(
                kinds.contains(&(kind, faulted)),
                "no {kind} run with faults {faulted}: {kinds:?}"
            );
        }
    }
    assert!(jr_outside > 0, "no run left the program with l.jr");
    assert!(
        boundary_stops > 100,
        "{boundary_stops} runs stopped on a budget boundary"
    );
}

#[test]
fn exact_budgets_stop_between_instructions() {
    // Straight-line code retires one instruction per cycle: a budget of k
    // stops after exactly k instructions, and a budget equal to the
    // length still finishes, because running off the end is checked
    // before the budget.
    let program: Program = (0..8)
        .map(|i| Instruction::Addi {
            rd: Reg(1),
            ra: Reg(1),
            imm: i,
        })
        .collect();
    for max_cycles in 0..=9 {
        let mut core = Core::new(program.clone(), 4);
        let outcome = core.run_with_injector(
            &RunConfig {
                max_cycles,
                fi_window: None,
            },
            &mut NoFaultInjector,
        );
        if max_cycles >= 8 {
            assert_eq!(outcome, RunOutcome::Finished { cycles: 8 });
        } else {
            assert_eq!(outcome, RunOutcome::Watchdog { cycles: max_cycles });
            assert_eq!(core.stats().instructions, max_cycles);
            assert_eq!(core.state().pc as u64, max_cycles);
        }
    }
}

#[test]
fn jr_outside_the_program_is_an_invalid_pc() {
    // r5 = r6 + r0 (an add a fault could corrupt), then jump to r5.  Pc 2
    // is the end of the program; anything beyond it is invalid.
    let program = Program::new(vec![
        Instruction::Add {
            rd: Reg(5),
            ra: Reg(6),
            rb: Reg(0),
        },
        Instruction::Jr { ra: Reg(5) },
    ]);
    for target in [2u32, 3, 1000, u32::MAX] {
        let mut core = Core::new(program.clone(), 4);
        core.state_mut().set_reg(Reg(6), target);
        let outcome = core.run(&RunConfig::default());
        let cycles = 2 + BRANCH_PENALTY_CYCLES;
        if target == 2 {
            assert_eq!(outcome, RunOutcome::Finished { cycles });
        } else {
            assert_eq!(outcome, RunOutcome::InvalidPc { cycles, pc: target });
        }
    }
}
