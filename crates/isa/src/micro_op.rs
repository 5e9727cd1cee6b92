//! The pre-decoded form of a program that the simulator executes.
//!
//! [`Program::new`](crate::Program::new) turns every [`Instruction`] into
//! one [`MicroOp`] once, when the program is built.  Decoding settles
//! everything that depends only on the instruction word, so the run loop
//! re-classifies nothing:
//!
//! * the datapath [`AluClass`] of every ALU instruction, with the operands
//!   of `l.sfgtu`/`l.sfleu`/`l.sfgts`/`l.sfles` swapped onto the
//!   `SfLtu`/`SfGeu`/`SfLts`/`SfGes` datapath;
//! * the extended immediate: operand B is always `regs[rb] + imm`, so
//!   register forms carry `imm = 0` and immediate forms `rb = r0`
//!   (`l.movhi rd, k` reads `r0 | k << 16`);
//! * whether the result goes to a register or to the branch flag;
//! * sign-extended memory offsets and absolute branch targets;
//! * register validation: a register numbered 32 or above panics here,
//!   not when the instruction first executes.

use crate::instruction::{AluClass, Instruction};
use crate::registers::Reg;

/// One instruction, decoded for execution.
///
/// Every register a micro-op names is a valid register (below
/// [`REGISTER_COUNT`](crate::registers::REGISTER_COUNT)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MicroOp {
    /// An execution-stage ALU operation writing a register:
    /// `rd = class(regs[ra], regs[rb] + imm)`.
    Alu {
        /// The datapath operation.
        class: AluClass,
        /// Register read as operand A.
        ra: Reg,
        /// Register read into operand B.
        rb: Reg,
        /// Added to `regs[rb]` to form operand B (already extended).
        imm: u32,
        /// Destination register.
        rd: Reg,
    },
    /// A set-flag comparison: `flag = class(regs[ra], regs[rb])`, with
    /// swapped comparisons already swapped.
    SetFlag {
        /// The datapath comparison.
        class: AluClass,
        /// Register read as operand A.
        ra: Reg,
        /// Register read as operand B.
        rb: Reg,
    },
    /// `rd = mem[regs[ra] + offset]`.
    Load {
        /// Destination register.
        rd: Reg,
        /// Base-address register.
        ra: Reg,
        /// Sign-extended byte offset.
        offset: u32,
    },
    /// `mem[regs[ra] + offset] = regs[rb]`.
    Store {
        /// Base-address register.
        ra: Reg,
        /// Register holding the value to store.
        rb: Reg,
        /// Sign-extended byte offset.
        offset: u32,
    },
    /// `l.bf` (`on_flag` true) or `l.bnf` (false): jump to `target` when
    /// the flag equals `on_flag`.
    Branch {
        /// Absolute target pc.
        target: u32,
        /// The flag value that takes the branch.
        on_flag: bool,
    },
    /// `l.j`: jump to `target`.
    Jump {
        /// Absolute target pc.
        target: u32,
    },
    /// `l.jal`: `r9 = pc + 1`, then jump to `target`.
    JumpAndLink {
        /// Absolute target pc.
        target: u32,
    },
    /// `l.jr`: jump to the pc held in `ra`.
    JumpRegister {
        /// Register holding the target pc.
        ra: Reg,
    },
    /// `l.nop`.
    Nop,
    /// The entry one past the last instruction: reaching it finishes the
    /// run.
    Exit,
}

impl MicroOp {
    /// Decodes the instruction at address `pc`.
    ///
    /// # Panics
    ///
    /// Panics with "register rN does not exist" if the instruction names a
    /// register numbered 32 or above.
    pub(crate) fn decode(pc: u32, instruction: Instruction) -> MicroOp {
        use Instruction::*;
        // `Reg::index` is the one place that rejects a register that does
        // not exist; the run loop then masks register numbers instead.
        let [a, b] = instruction.sources();
        for reg in [a, b, instruction.destination()].into_iter().flatten() {
            reg.index();
        }
        let target = |offset: i32| (i64::from(pc) + 1 + i64::from(offset)) as u32;
        let alu = |class, ra, rb, imm, rd| MicroOp::Alu {
            class,
            ra,
            rb,
            imm,
            rd,
        };
        let alu_imm = |class, ra, imm, rd| alu(class, ra, Reg::ZERO, imm, rd);
        let flag = |class, ra, rb| MicroOp::SetFlag { class, ra, rb };
        match instruction {
            Add { rd, ra, rb } => alu(AluClass::Add, ra, rb, 0, rd),
            Sub { rd, ra, rb } => alu(AluClass::Sub, ra, rb, 0, rd),
            And { rd, ra, rb } => alu(AluClass::And, ra, rb, 0, rd),
            Or { rd, ra, rb } => alu(AluClass::Or, ra, rb, 0, rd),
            Xor { rd, ra, rb } => alu(AluClass::Xor, ra, rb, 0, rd),
            Mul { rd, ra, rb } => alu(AluClass::Mul, ra, rb, 0, rd),
            Sll { rd, ra, rb } => alu(AluClass::Sll, ra, rb, 0, rd),
            Srl { rd, ra, rb } => alu(AluClass::Srl, ra, rb, 0, rd),
            Sra { rd, ra, rb } => alu(AluClass::Sra, ra, rb, 0, rd),
            Addi { rd, ra, imm: k } => alu_imm(AluClass::Add, ra, k as i32 as u32, rd),
            Andi { rd, ra, imm: k } => alu_imm(AluClass::And, ra, u32::from(k), rd),
            Ori { rd, ra, imm: k } => alu_imm(AluClass::Or, ra, u32::from(k), rd),
            Xori { rd, ra, imm: k } => alu_imm(AluClass::Xor, ra, u32::from(k), rd),
            Muli { rd, ra, imm: k } => alu_imm(AluClass::Mul, ra, k as i32 as u32, rd),
            Slli { rd, ra, shamt } => alu_imm(AluClass::Sll, ra, u32::from(shamt), rd),
            Srli { rd, ra, shamt } => alu_imm(AluClass::Srl, ra, u32::from(shamt), rd),
            Srai { rd, ra, shamt } => alu_imm(AluClass::Sra, ra, u32::from(shamt), rd),
            Movhi { rd, imm: k } => alu_imm(AluClass::Or, Reg::ZERO, u32::from(k) << 16, rd),
            Sfeq { ra, rb } => flag(AluClass::SfEq, ra, rb),
            Sfne { ra, rb } => flag(AluClass::SfNe, ra, rb),
            Sfltu { ra, rb } => flag(AluClass::SfLtu, ra, rb),
            Sfgeu { ra, rb } => flag(AluClass::SfGeu, ra, rb),
            Sflts { ra, rb } => flag(AluClass::SfLts, ra, rb),
            Sfges { ra, rb } => flag(AluClass::SfGes, ra, rb),
            // Swapped-operand comparisons reuse the same datapath operation.
            Sfgtu { ra, rb } => flag(AluClass::SfLtu, rb, ra),
            Sfleu { ra, rb } => flag(AluClass::SfGeu, rb, ra),
            Sfgts { ra, rb } => flag(AluClass::SfLts, rb, ra),
            Sfles { ra, rb } => flag(AluClass::SfGes, rb, ra),
            Lwz { rd, ra, offset } => MicroOp::Load {
                rd,
                ra,
                offset: offset as i32 as u32,
            },
            Sw { ra, rb, offset } => MicroOp::Store {
                ra,
                rb,
                offset: offset as i32 as u32,
            },
            Bf { offset } => MicroOp::Branch {
                target: target(offset),
                on_flag: true,
            },
            Bnf { offset } => MicroOp::Branch {
                target: target(offset),
                on_flag: false,
            },
            J { offset } => MicroOp::Jump {
                target: target(offset),
            },
            Jal { offset } => MicroOp::JumpAndLink {
                target: target(offset),
            },
            Jr { ra } => MicroOp::JumpRegister { ra },
            Nop => MicroOp::Nop,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decoding_folds_operands_and_immediates() {
        let (r1, r2, r3) = (Reg(1), Reg(2), Reg(3));
        assert_eq!(
            MicroOp::decode(0, Instruction::Sfgtu { ra: r1, rb: r2 }),
            MicroOp::SetFlag {
                class: AluClass::SfLtu,
                ra: r2,
                rb: r1
            }
        );
        assert_eq!(
            MicroOp::decode(
                0,
                Instruction::Movhi {
                    rd: r3,
                    imm: 0x8001
                }
            ),
            MicroOp::Alu {
                class: AluClass::Or,
                ra: Reg::ZERO,
                rb: Reg::ZERO,
                imm: 0x8001_0000,
                rd: r3
            }
        );
        assert_eq!(
            MicroOp::decode(
                0,
                Instruction::Addi {
                    rd: r3,
                    ra: r1,
                    imm: -2
                }
            ),
            MicroOp::Alu {
                class: AluClass::Add,
                ra: r1,
                rb: Reg::ZERO,
                imm: (-2i32) as u32,
                rd: r3
            }
        );
        assert_eq!(
            MicroOp::decode(
                0,
                Instruction::Andi {
                    rd: r3,
                    ra: r1,
                    imm: 0xFFFF
                }
            ),
            MicroOp::Alu {
                class: AluClass::And,
                ra: r1,
                rb: Reg::ZERO,
                imm: 0xFFFF,
                rd: r3
            }
        );
        assert_eq!(
            MicroOp::decode(
                0,
                Instruction::Sw {
                    ra: r1,
                    rb: r2,
                    offset: -4
                }
            ),
            MicroOp::Store {
                ra: r1,
                rb: r2,
                offset: (-4i32) as u32
            }
        );
    }

    #[test]
    fn branch_targets_are_absolute() {
        assert_eq!(
            MicroOp::decode(5, Instruction::Bnf { offset: -3 }),
            MicroOp::Branch {
                target: 3,
                on_flag: false
            }
        );
        assert_eq!(
            MicroOp::decode(0, Instruction::J { offset: -2 }),
            MicroOp::Jump { target: u32::MAX }
        );
        assert_eq!(
            MicroOp::decode(7, Instruction::Jal { offset: 0 }),
            MicroOp::JumpAndLink { target: 8 }
        );
    }

    #[test]
    #[should_panic(expected = "register r32 does not exist")]
    fn invalid_register_panics_at_decode() {
        MicroOp::decode(
            0,
            Instruction::Add {
                rd: Reg(32),
                ra: Reg(1),
                rb: Reg(2),
            },
        );
    }
}
