//! The cycle-accurate core model and its run loop.

use crate::fault::{ExStageContext, FaultInjector, NoFaultInjector};
use crate::memory::{Memory, MemoryError};
use crate::state::CpuState;
use crate::stats::RunStats;
use sfi_isa::{AluClass, Instruction, MicroOp, Program, BRANCH_PENALTY_CYCLES};
use std::ops::Range;
use std::sync::Arc;

/// Run-control parameters of the ISS.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// Watchdog limit: the run is aborted as an obvious fatal error once
    /// this many cycles have been simulated (the paper's "basic infinite
    /// loop detection").
    pub max_cycles: u64,
    /// Program-counter window (in instruction words) in which fault
    /// injection is enabled.  `None` enables it for the whole program.
    /// The paper restricts FI to the kernel part of each benchmark.
    pub fi_window: Option<Range<u32>>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            max_cycles: 10_000_000,
            fi_window: None,
        }
    }
}

/// How a program run ended.
#[derive(Debug, Clone, PartialEq)]
pub enum RunOutcome {
    /// The program ran off its last instruction (normal completion).
    Finished {
        /// Total simulated cycles.
        cycles: u64,
    },
    /// The watchdog limit was reached (infinite loop / fatal error).
    Watchdog {
        /// Cycles simulated before the abort.
        cycles: u64,
    },
    /// A load or store accessed an invalid address (typically caused by a
    /// corrupted address computation).
    MemoryFault {
        /// Cycles simulated before the abort.
        cycles: u64,
        /// The offending access.
        error: MemoryError,
    },
    /// Control flow left the program (corrupted branch or jump target).
    InvalidPc {
        /// Cycles simulated before the abort.
        cycles: u64,
        /// The invalid program counter value.
        pc: u32,
    },
}

impl RunOutcome {
    /// Whether the program completed normally.
    pub fn finished(&self) -> bool {
        matches!(self, RunOutcome::Finished { .. })
    }

    /// The number of cycles simulated before the run ended.
    pub fn cycles(&self) -> u64 {
        match self {
            RunOutcome::Finished { cycles }
            | RunOutcome::Watchdog { cycles }
            | RunOutcome::MemoryFault { cycles, .. }
            | RunOutcome::InvalidPc { cycles, .. } => *cycles,
        }
    }
}

/// The simulated core: program, architectural state, data memory and
/// statistics.
///
/// See the crate-level documentation for an end-to-end example.
#[derive(Debug, Clone)]
pub struct Core {
    program: Arc<Program>,
    state: CpuState,
    memory: Memory,
    stats: RunStats,
}

impl Core {
    /// Creates a core with the given program and a zeroed data memory of
    /// `dmem_words` words.
    ///
    /// The program is held behind an `Arc`, so passing `Arc<Program>`
    /// shares the instruction memory with other cores (the Monte-Carlo
    /// harness reuses one program across all trials of a benchmark);
    /// passing a plain [`Program`] still works and wraps it on the spot.
    pub fn new(program: impl Into<Arc<Program>>, dmem_words: usize) -> Self {
        let program = program.into();
        Core {
            stats: RunStats {
                retired: vec![0; program.len()],
                ..RunStats::default()
            },
            program,
            state: CpuState::new(),
            memory: Memory::new(dmem_words),
        }
    }

    /// The architectural state (registers, flag, PC).
    pub fn state(&self) -> &CpuState {
        &self.state
    }

    /// The data memory.
    pub fn memory(&self) -> &Memory {
        &self.memory
    }

    /// Mutable access to the data memory, used by the experiment harness to
    /// place input data before a run and to read results afterwards.
    pub fn memory_mut(&mut self) -> &mut Memory {
        &mut self.memory
    }

    /// Mutable access to the architectural state, used by the ISA
    /// conformance suite to establish a row's pre-state (registers, flag)
    /// before running a table fragment.
    pub fn state_mut(&mut self) -> &mut CpuState {
        &mut self.state
    }

    /// The program loaded into the instruction memory.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Execution statistics of the last (or ongoing) run.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Resets the architectural state and statistics (the data memory is
    /// left untouched so pre-loaded input data survives).
    pub fn reset(&mut self) {
        self.state = CpuState::new();
        // Zero the retire counts in place: recycled cores never reallocate.
        let mut retired = std::mem::take(&mut self.stats.retired);
        retired.fill(0);
        self.stats = RunStats {
            retired,
            ..RunStats::default()
        };
    }

    /// Resets the architectural state, statistics *and* data memory — the
    /// state of a freshly constructed core, without reallocating.  The
    /// Monte-Carlo harness uses this to recycle one core across trials.
    pub fn reset_full(&mut self) {
        self.reset();
        self.memory.clear();
    }

    /// Runs the program to completion without fault injection.
    pub fn run(&mut self, config: &RunConfig) -> RunOutcome {
        self.run_with_injector(config, &mut NoFaultInjector)
    }

    /// Runs the program to completion, consulting `injector` on every cycle
    /// in which an ALU instruction occupies the execution stage.
    ///
    /// The loop executes the program's [`MicroOp`] table, which
    /// [`Program::new`] decoded once: each retired instruction is one match
    /// on a `Copy` micro-op whose operand swaps, immediates, branch targets
    /// and destination are already settled.  The fault-injection window is
    /// resolved to `lo ≤ pc < hi` once per call.
    pub fn run_with_injector<F: FaultInjector + ?Sized>(
        &mut self,
        config: &RunConfig,
        injector: &mut F,
    ) -> RunOutcome {
        injector.begin_run();
        let (lo, hi) = config
            .fi_window
            .as_ref()
            .map_or((0, u32::MAX), |w| (w.start, w.end));
        let Core {
            program,
            state,
            memory,
            stats,
        } = self;
        let ops = program.micro_ops();
        loop {
            let pc = state.pc;
            // The watchdog is checked before the fetch: once the cycle
            // budget is exhausted no more work happens, and an exhausted
            // budget at a corrupted PC reports `Watchdog`, not `InvalidPc`.
            // Running onto the `Exit` entry finishes even then.
            let watchdog = stats.cycles >= config.max_cycles;
            let Some(&op) = ops.get(pc as usize) else {
                return if watchdog {
                    RunOutcome::Watchdog {
                        cycles: stats.cycles,
                    }
                } else {
                    RunOutcome::InvalidPc {
                        cycles: stats.cycles,
                        pc,
                    }
                };
            };
            let fi_enabled = lo <= pc && pc < hi;
            let mut cycles_this_instruction = 1u64;
            let mut next_pc = pc.wrapping_add(1);
            match op {
                MicroOp::Exit => {
                    return RunOutcome::Finished {
                        cycles: stats.cycles,
                    }
                }
                _ if watchdog => {
                    return RunOutcome::Watchdog {
                        cycles: stats.cycles,
                    }
                }
                // --- ALU instructions (subject to fault injection) -------
                MicroOp::Alu {
                    class,
                    ra,
                    rb,
                    imm,
                    rd,
                } => {
                    let b = state.read(rb).wrapping_add(imm);
                    let result = execute_alu(injector, stats, class, state.read(ra), b, fi_enabled);
                    state.write(rd, result);
                }
                MicroOp::SetFlag { class, ra, rb } => {
                    let (a, b) = (state.read(ra), state.read(rb));
                    let result = execute_alu(injector, stats, class, a, b, fi_enabled);
                    state.flag = result & 1 == 1;
                }
                // --- Memory ------------------------------------------------
                MicroOp::Load { rd, ra, offset } => {
                    match memory.load_word(state.read(ra).wrapping_add(offset)) {
                        Ok(value) => state.write(rd, value),
                        Err(error) => {
                            return RunOutcome::MemoryFault {
                                cycles: stats.cycles,
                                error,
                            }
                        }
                    }
                }
                MicroOp::Store { ra, rb, offset } => {
                    let address = state.read(ra).wrapping_add(offset);
                    if let Err(error) = memory.store_word(address, state.read(rb)) {
                        return RunOutcome::MemoryFault {
                            cycles: stats.cycles,
                            error,
                        };
                    }
                }
                // --- Control flow ------------------------------------------
                MicroOp::Branch { target, on_flag } => {
                    if state.flag == on_flag {
                        next_pc = target;
                        cycles_this_instruction += BRANCH_PENALTY_CYCLES;
                    }
                }
                MicroOp::Jump { target } => {
                    next_pc = target;
                    cycles_this_instruction += BRANCH_PENALTY_CYCLES;
                }
                MicroOp::JumpAndLink { target } => {
                    state.write(Instruction::LINK_REGISTER, pc.wrapping_add(1));
                    next_pc = target;
                    cycles_this_instruction += BRANCH_PENALTY_CYCLES;
                }
                MicroOp::JumpRegister { ra } => {
                    next_pc = state.read(ra);
                    cycles_this_instruction += BRANCH_PENALTY_CYCLES;
                }
                MicroOp::Nop => {}
            }
            stats.instructions += 1;
            stats.retired[pc as usize] += 1;
            stats.cycles += cycles_this_instruction;
            if fi_enabled {
                stats.kernel_cycles += cycles_this_instruction;
            }
            state.pc = next_pc;
        }
    }

    /// Fault-free result of an execution-stage operation.
    pub fn alu_result(class: AluClass, a: u32, b: u32) -> u32 {
        match class {
            AluClass::Add => a.wrapping_add(b),
            AluClass::Sub => a.wrapping_sub(b),
            AluClass::And => a & b,
            AluClass::Or => a | b,
            AluClass::Xor => a ^ b,
            AluClass::Sll => a.wrapping_shl(b & 31),
            AluClass::Srl => a.wrapping_shr(b & 31),
            AluClass::Sra => (a as i32).wrapping_shr(b & 31) as u32,
            AluClass::Mul => a.wrapping_mul(b),
            AluClass::SfEq => (a == b) as u32,
            AluClass::SfNe => (a != b) as u32,
            AluClass::SfLtu => (a < b) as u32,
            AluClass::SfGeu => (a >= b) as u32,
            AluClass::SfLts => ((a as i32) < (b as i32)) as u32,
            AluClass::SfGes => ((a as i32) >= (b as i32)) as u32,
        }
    }
}

/// One execution-stage cycle: the fault-free result of `class` on `(a, b)`,
/// with the injector's mask applied (and counted) inside the FI window.
#[inline]
fn execute_alu<F: FaultInjector + ?Sized>(
    injector: &mut F,
    stats: &mut RunStats,
    class: AluClass,
    a: u32,
    b: u32,
    fi_enabled: bool,
) -> u32 {
    let golden = Core::alu_result(class, a, b);
    let mask = injector.inject(&ExStageContext {
        cycle: stats.cycles,
        alu_class: class,
        operand_a: a,
        operand_b: b,
        result: golden,
        fi_enabled,
    });
    if fi_enabled {
        stats.record_fault(mask);
        golden ^ mask
    } else {
        golden
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfi_isa::program::ProgramBuilder;
    use sfi_isa::Reg;

    fn run_program(p: ProgramBuilder) -> (Core, RunOutcome) {
        let mut core = Core::new(p.build(), 256);
        let outcome = core.run(&RunConfig::default());
        (core, outcome)
    }

    #[test]
    fn arithmetic_and_immediates() {
        let mut p = ProgramBuilder::new();
        p.push(Instruction::Addi {
            rd: Reg(1),
            ra: Reg(0),
            imm: 100,
        });
        p.push(Instruction::Addi {
            rd: Reg(2),
            ra: Reg(0),
            imm: -3,
        });
        p.push(Instruction::Add {
            rd: Reg(3),
            ra: Reg(1),
            rb: Reg(2),
        });
        p.push(Instruction::Mul {
            rd: Reg(4),
            ra: Reg(3),
            rb: Reg(1),
        });
        p.push(Instruction::Sub {
            rd: Reg(5),
            ra: Reg(4),
            rb: Reg(3),
        });
        p.push(Instruction::Xori {
            rd: Reg(6),
            ra: Reg(5),
            imm: 0xFF,
        });
        p.push(Instruction::Slli {
            rd: Reg(7),
            ra: Reg(1),
            shamt: 4,
        });
        p.push(Instruction::Srai {
            rd: Reg(8),
            ra: Reg(2),
            shamt: 1,
        });
        let (core, outcome) = run_program(p);
        assert!(outcome.finished());
        assert_eq!(core.state().reg(Reg(3)), 97);
        assert_eq!(core.state().reg(Reg(4)), 9700);
        assert_eq!(core.state().reg(Reg(5)), 9603);
        assert_eq!(core.state().reg(Reg(6)), 9603 ^ 0xFF);
        assert_eq!(core.state().reg(Reg(7)), 1600);
        assert_eq!(core.state().reg(Reg(8)) as i32, -2);
    }

    #[test]
    fn memory_and_movhi() {
        let mut p = ProgramBuilder::new();
        p.load_immediate(Reg(1), 0x1234_5678);
        p.push(Instruction::Sw {
            ra: Reg(0),
            rb: Reg(1),
            offset: 16,
        });
        p.push(Instruction::Lwz {
            rd: Reg(2),
            ra: Reg(0),
            offset: 16,
        });
        let (core, outcome) = run_program(p);
        assert!(outcome.finished());
        assert_eq!(core.state().reg(Reg(2)), 0x1234_5678);
        assert_eq!(core.memory().load_word(16).unwrap(), 0x1234_5678);
    }

    #[test]
    fn loop_counts_down() {
        // r3 = 10; do { r4 += r3; r3 -= 1 } while (r3 != 0);
        let mut p = ProgramBuilder::new();
        p.push(Instruction::Addi {
            rd: Reg(3),
            ra: Reg(0),
            imm: 10,
        });
        let head = p.label();
        p.push(Instruction::Add {
            rd: Reg(4),
            ra: Reg(4),
            rb: Reg(3),
        });
        p.push(Instruction::Addi {
            rd: Reg(3),
            ra: Reg(3),
            imm: -1,
        });
        p.push(Instruction::Sfne {
            ra: Reg(3),
            rb: Reg(0),
        });
        p.branch_if_flag(head);
        let (core, outcome) = run_program(p);
        assert!(outcome.finished());
        assert_eq!(core.state().reg(Reg(4)), 55);
        // 1 + 10*4 instructions; 9 taken branches add the penalty cycles.
        assert_eq!(core.stats().instructions, 41);
        assert_eq!(core.stats().retired, [1, 10, 10, 10, 10]);
        assert_eq!(core.stats().cycles, 41 + 9 * 2);
        assert!(core.stats().ipc() < 1.0);
    }

    #[test]
    fn comparisons_signed_and_unsigned() {
        let mut p = ProgramBuilder::new();
        p.push(Instruction::Addi {
            rd: Reg(1),
            ra: Reg(0),
            imm: -1,
        }); // 0xFFFF_FFFF
        p.push(Instruction::Addi {
            rd: Reg(2),
            ra: Reg(0),
            imm: 1,
        });
        // Signed: -1 < 1 -> flag set.
        p.push(Instruction::Sflts {
            ra: Reg(1),
            rb: Reg(2),
        });
        p.push(Instruction::Addi {
            rd: Reg(10),
            ra: Reg(0),
            imm: 0,
        });
        let skip = p.forward_label();
        p.branch_if_not_flag(skip);
        p.push(Instruction::Addi {
            rd: Reg(10),
            ra: Reg(0),
            imm: 1,
        });
        p.bind(skip);
        // Unsigned: 0xFFFF_FFFF < 1 is false -> flag clear.
        p.push(Instruction::Sfltu {
            ra: Reg(1),
            rb: Reg(2),
        });
        p.push(Instruction::Addi {
            rd: Reg(11),
            ra: Reg(0),
            imm: 0,
        });
        let skip2 = p.forward_label();
        p.branch_if_flag(skip2);
        p.push(Instruction::Addi {
            rd: Reg(11),
            ra: Reg(0),
            imm: 1,
        });
        p.bind(skip2);
        // Swapped forms.
        p.push(Instruction::Sfgts {
            ra: Reg(2),
            rb: Reg(1),
        }); // 1 > -1 -> set
        p.push(Instruction::Addi {
            rd: Reg(12),
            ra: Reg(0),
            imm: 0,
        });
        let skip3 = p.forward_label();
        p.branch_if_not_flag(skip3);
        p.push(Instruction::Addi {
            rd: Reg(12),
            ra: Reg(0),
            imm: 1,
        });
        p.bind(skip3);
        let (core, outcome) = run_program(p);
        assert!(outcome.finished());
        assert_eq!(core.state().reg(Reg(10)), 1, "signed comparison");
        assert_eq!(core.state().reg(Reg(11)), 1, "unsigned comparison");
        assert_eq!(core.state().reg(Reg(12)), 1, "swapped signed comparison");
    }

    #[test]
    fn subroutine_call_and_return() {
        let mut p = ProgramBuilder::new();
        let sub = p.forward_label();
        p.jump_and_link(sub);
        p.push(Instruction::Addi {
            rd: Reg(2),
            ra: Reg(2),
            imm: 1,
        });
        let end = p.forward_label();
        p.jump(end);
        p.bind(sub);
        p.push(Instruction::Addi {
            rd: Reg(1),
            ra: Reg(0),
            imm: 55,
        });
        p.push(Instruction::Jr {
            ra: Instruction::LINK_REGISTER,
        });
        p.bind(end);
        p.push(Instruction::Nop);
        let (core, outcome) = run_program(p);
        assert!(outcome.finished());
        assert_eq!(core.state().reg(Reg(1)), 55);
        assert_eq!(core.state().reg(Reg(2)), 1);
    }

    #[test]
    fn watchdog_catches_infinite_loop() {
        let mut p = ProgramBuilder::new();
        let head = p.label();
        p.jump(head);
        let mut core = Core::new(p.build(), 16);
        let outcome = core.run(&RunConfig {
            max_cycles: 1000,
            ..Default::default()
        });
        assert!(matches!(outcome, RunOutcome::Watchdog { .. }));
        assert!(!outcome.finished());
        assert!(outcome.cycles() >= 1000);
    }

    #[test]
    fn zero_cycle_watchdog_aborts_before_any_fetch() {
        // With an exhausted budget the loop must bail out on the watchdog
        // check without fetching (or executing) a single instruction.
        let mut p = ProgramBuilder::new();
        p.push(Instruction::Lwz {
            rd: Reg(1),
            ra: Reg(0),
            offset: 0x7FFC, // would be a memory fault if executed
        });
        let mut core = Core::new(p.build(), 16);
        let outcome = core.run(&RunConfig {
            max_cycles: 0,
            ..Default::default()
        });
        assert_eq!(outcome, RunOutcome::Watchdog { cycles: 0 });
        assert_eq!(core.stats().instructions, 0);
    }

    #[test]
    fn exhausted_watchdog_takes_precedence_over_invalid_pc() {
        // A corrupted jump leaves the PC outside the program while the
        // budget is already spent: the run reports the watchdog (the
        // budget decision), not the stale invalid PC.
        let mut p = ProgramBuilder::new();
        p.push(Instruction::J { offset: 100 });
        let mut core = Core::new(p.build(), 16);
        let outcome = core.run(&RunConfig {
            max_cycles: 1,
            ..Default::default()
        });
        assert!(matches!(outcome, RunOutcome::Watchdog { .. }));
        assert!(!outcome.finished());
    }

    #[test]
    fn memory_fault_aborts() {
        let mut p = ProgramBuilder::new();
        p.push(Instruction::Lwz {
            rd: Reg(1),
            ra: Reg(0),
            offset: 0x7FFC,
        });
        let mut core = Core::new(p.build(), 16);
        let outcome = core.run(&RunConfig::default());
        assert!(matches!(outcome, RunOutcome::MemoryFault { .. }));
    }

    #[test]
    fn invalid_pc_aborts() {
        let mut p = ProgramBuilder::new();
        p.push(Instruction::J { offset: 100 });
        let mut core = Core::new(p.build(), 16);
        let outcome = core.run(&RunConfig::default());
        assert!(matches!(outcome, RunOutcome::InvalidPc { pc: 101, .. }));
    }

    /// Injector flipping the flag of every comparison — the "wrong branching
    /// behavior" failure mode of the paper.
    struct FlagFlipper;

    impl FaultInjector for FlagFlipper {
        fn inject(&mut self, ctx: &ExStageContext) -> u32 {
            if ctx.alu_class.is_set_flag() {
                1
            } else {
                0
            }
        }
    }

    #[test]
    fn flag_faults_corrupt_control_flow() {
        // Flipping every comparison makes the countdown loop exit after its
        // first iteration — the "wrong branching behavior" the paper calls
        // out as a frequent consequence of injected faults.
        let mut p = ProgramBuilder::new();
        p.push(Instruction::Addi {
            rd: Reg(3),
            ra: Reg(0),
            imm: 3,
        });
        let head = p.label();
        p.push(Instruction::Addi {
            rd: Reg(3),
            ra: Reg(3),
            imm: -1,
        });
        p.push(Instruction::Sfne {
            ra: Reg(3),
            rb: Reg(0),
        });
        p.branch_if_flag(head);
        let mut core = Core::new(p.build(), 16);
        let outcome = core.run_with_injector(
            &RunConfig {
                max_cycles: 5000,
                ..Default::default()
            },
            &mut FlagFlipper,
        );
        assert!(outcome.finished());
        assert_ne!(
            core.state().reg(Reg(3)),
            0,
            "the loop must have exited early"
        );
        assert!(core.stats().injected_faults > 0);
    }

    /// Injector that flips result bit 4 of every addition inside the kernel
    /// window only.
    struct AddBit4Flipper;

    impl FaultInjector for AddBit4Flipper {
        fn inject(&mut self, ctx: &ExStageContext) -> u32 {
            if ctx.fi_enabled && ctx.alu_class == AluClass::Add {
                1 << 4
            } else {
                0
            }
        }
    }

    #[test]
    fn fi_window_limits_injection() {
        let mut p = ProgramBuilder::new();
        p.push(Instruction::Addi {
            rd: Reg(1),
            ra: Reg(0),
            imm: 1,
        }); // outside window
        p.push(Instruction::Addi {
            rd: Reg(2),
            ra: Reg(0),
            imm: 1,
        }); // inside window
        let program = p.build();

        let mut core = Core::new(program, 16);
        let config = RunConfig {
            fi_window: Some(1..2),
            ..Default::default()
        };
        let outcome = core.run_with_injector(&config, &mut AddBit4Flipper);
        assert!(outcome.finished());
        assert_eq!(core.state().reg(Reg(1)), 1, "outside the window: no fault");
        assert_eq!(
            core.state().reg(Reg(2)),
            1 + 16,
            "inside the window: bit 4 flipped"
        );
        assert_eq!(core.stats().injected_faults, 1);
        assert_eq!(core.stats().kernel_cycles, 1);
        assert!(core.stats().fi_rate_per_kcycle() > 0.0);
    }

    #[test]
    fn reset_preserves_memory() {
        let mut p = ProgramBuilder::new();
        p.push(Instruction::Addi {
            rd: Reg(1),
            ra: Reg(0),
            imm: 7,
        });
        let mut core = Core::new(p.build(), 16);
        core.memory_mut().store_word(0, 99).unwrap();
        let _ = core.run(&RunConfig::default());
        assert_eq!(core.state().reg(Reg(1)), 7);
        core.reset();
        assert_eq!(core.state().reg(Reg(1)), 0);
        assert_eq!(core.stats().instructions, 0);
        assert_eq!(core.memory().load_word(0).unwrap(), 99);
        assert_eq!(core.program().len(), 1);
    }

    #[test]
    fn reset_full_matches_a_fresh_core() {
        let mut p = ProgramBuilder::new();
        p.push(Instruction::Sw {
            ra: Reg(0),
            rb: Reg(0),
            offset: 0,
        });
        let program = std::sync::Arc::new(p.build());
        let mut used = Core::new(program.clone(), 16);
        used.memory_mut().store_word(8, 42).unwrap();
        let _ = used.run(&RunConfig::default());
        used.reset_full();
        let fresh = Core::new(program, 16);
        assert_eq!(used.state().pc, fresh.state().pc);
        assert_eq!(used.memory(), fresh.memory());
        assert_eq!(used.stats(), fresh.stats());
    }

    #[test]
    fn alu_result_reference() {
        assert_eq!(Core::alu_result(AluClass::Add, u32::MAX, 1), 0);
        assert_eq!(Core::alu_result(AluClass::Sra, 0x8000_0000, 31), u32::MAX);
        assert_eq!(Core::alu_result(AluClass::Srl, 0x8000_0000, 31), 1);
        assert_eq!(
            Core::alu_result(AluClass::Mul, 0x1_0001, 0x1_0001),
            0x2_0001
        );
        assert_eq!(Core::alu_result(AluClass::SfLts, u32::MAX, 0), 1);
        assert_eq!(Core::alu_result(AluClass::SfLtu, u32::MAX, 0), 0);
    }
}
