//! The instruction set: operations, operand fields, and classification.

use crate::registers::Reg;
use std::fmt;

/// The execution-stage ALU operation activated by an instruction.
///
/// This mirrors the functional units of the gate-level datapath
/// (`sfi-netlist::alu::AluOp`); the fault-injection models condition their
/// timing-error statistics on this class, because different operations
/// excite very different path delays (Fig. 2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AluClass {
    /// Addition (also used by immediate adds).
    Add,
    /// Subtraction.
    Sub,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Shift left logical.
    Sll,
    /// Shift right logical.
    Srl,
    /// Shift right arithmetic.
    Sra,
    /// Low-half multiplication.
    Mul,
    /// Set flag if equal.
    SfEq,
    /// Set flag if not equal.
    SfNe,
    /// Set flag if less than, unsigned.
    SfLtu,
    /// Set flag if greater or equal, unsigned.
    SfGeu,
    /// Set flag if less than, signed.
    SfLts,
    /// Set flag if greater or equal, signed.
    SfGes,
}

impl AluClass {
    /// All ALU classes.
    pub const ALL: [AluClass; 15] = [
        AluClass::Add,
        AluClass::Sub,
        AluClass::And,
        AluClass::Or,
        AluClass::Xor,
        AluClass::Sll,
        AluClass::Srl,
        AluClass::Sra,
        AluClass::Mul,
        AluClass::SfEq,
        AluClass::SfNe,
        AluClass::SfLtu,
        AluClass::SfGeu,
        AluClass::SfLts,
        AluClass::SfGes,
    ];

    /// Whether the class produces the single flag bit used by conditional
    /// branches rather than a full-width result.
    pub fn is_set_flag(self) -> bool {
        matches!(
            self,
            AluClass::SfEq
                | AluClass::SfNe
                | AluClass::SfLtu
                | AluClass::SfGeu
                | AluClass::SfLts
                | AluClass::SfGes
        )
    }
}

impl fmt::Display for AluClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AluClass::Add => "add",
            AluClass::Sub => "sub",
            AluClass::And => "and",
            AluClass::Or => "or",
            AluClass::Xor => "xor",
            AluClass::Sll => "sll",
            AluClass::Srl => "srl",
            AluClass::Sra => "sra",
            AluClass::Mul => "mul",
            AluClass::SfEq => "sfeq",
            AluClass::SfNe => "sfne",
            AluClass::SfLtu => "sfltu",
            AluClass::SfGeu => "sfgeu",
            AluClass::SfLts => "sflts",
            AluClass::SfGes => "sfges",
        };
        f.write_str(s)
    }
}

/// Coarse classification of instructions, used for pipeline-activity
/// statistics (compute vs control weight of a kernel, Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstructionKind {
    /// Instructions that activate the execution-stage ALU (arithmetic,
    /// logic, shifts, multiplications, set-flag comparisons).
    Alu,
    /// Word loads.
    Load,
    /// Word stores.
    Store,
    /// Conditional branches.
    Branch,
    /// Unconditional jumps (including jump-and-link and jump-register).
    Jump,
    /// No-operation.
    Nop,
}

/// One instruction of the OpenRISC-like ISA.
///
/// Branch and jump offsets are expressed in instruction words relative to
/// the *next* instruction: `target = pc + 1 + offset`. An offset of `0`
/// therefore falls through to the next instruction, an offset of `-1`
/// re-executes the branch itself, and an offset of `-2` targets the
/// instruction immediately before the branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instruction {
    /// `l.add rd, ra, rb` — `rd = ra + rb`.
    Add {
        /// Destination register.
        rd: Reg,
        /// First source register.
        ra: Reg,
        /// Second source register.
        rb: Reg,
    },
    /// `l.sub rd, ra, rb` — `rd = ra - rb`.
    Sub {
        /// Destination register.
        rd: Reg,
        /// First source register.
        ra: Reg,
        /// Second source register.
        rb: Reg,
    },
    /// `l.and rd, ra, rb` — `rd = ra & rb`.
    And {
        /// Destination register.
        rd: Reg,
        /// First source register.
        ra: Reg,
        /// Second source register.
        rb: Reg,
    },
    /// `l.or rd, ra, rb` — `rd = ra | rb`.
    Or {
        /// Destination register.
        rd: Reg,
        /// First source register.
        ra: Reg,
        /// Second source register.
        rb: Reg,
    },
    /// `l.xor rd, ra, rb` — `rd = ra ^ rb`.
    Xor {
        /// Destination register.
        rd: Reg,
        /// First source register.
        ra: Reg,
        /// Second source register.
        rb: Reg,
    },
    /// `l.mul rd, ra, rb` — `rd = low32(ra * rb)`.
    Mul {
        /// Destination register.
        rd: Reg,
        /// First source register.
        ra: Reg,
        /// Second source register.
        rb: Reg,
    },
    /// `l.sll rd, ra, rb` — logical left shift by `rb % 32`.
    Sll {
        /// Destination register.
        rd: Reg,
        /// First source register.
        ra: Reg,
        /// Shift-amount register.
        rb: Reg,
    },
    /// `l.srl rd, ra, rb` — logical right shift by `rb % 32`.
    Srl {
        /// Destination register.
        rd: Reg,
        /// First source register.
        ra: Reg,
        /// Shift-amount register.
        rb: Reg,
    },
    /// `l.sra rd, ra, rb` — arithmetic right shift by `rb % 32`.
    Sra {
        /// Destination register.
        rd: Reg,
        /// First source register.
        ra: Reg,
        /// Shift-amount register.
        rb: Reg,
    },
    /// `l.addi rd, ra, imm` — `rd = ra + sext(imm)`.
    Addi {
        /// Destination register.
        rd: Reg,
        /// Source register.
        ra: Reg,
        /// Sign-extended immediate.
        imm: i16,
    },
    /// `l.andi rd, ra, imm` — `rd = ra & zext(imm)`.
    Andi {
        /// Destination register.
        rd: Reg,
        /// Source register.
        ra: Reg,
        /// Zero-extended immediate.
        imm: u16,
    },
    /// `l.ori rd, ra, imm` — `rd = ra | zext(imm)`.
    Ori {
        /// Destination register.
        rd: Reg,
        /// Source register.
        ra: Reg,
        /// Zero-extended immediate.
        imm: u16,
    },
    /// `l.xori rd, ra, imm` — `rd = ra ^ zext(imm)`.
    Xori {
        /// Destination register.
        rd: Reg,
        /// Source register.
        ra: Reg,
        /// Zero-extended immediate.
        imm: u16,
    },
    /// `l.muli rd, ra, imm` — `rd = low32(ra * sext(imm))`.
    Muli {
        /// Destination register.
        rd: Reg,
        /// Source register.
        ra: Reg,
        /// Sign-extended immediate.
        imm: i16,
    },
    /// `l.slli rd, ra, shamt` — logical left shift by a constant.
    Slli {
        /// Destination register.
        rd: Reg,
        /// Source register.
        ra: Reg,
        /// Shift amount (0–31).
        shamt: u8,
    },
    /// `l.srli rd, ra, shamt` — logical right shift by a constant.
    Srli {
        /// Destination register.
        rd: Reg,
        /// Source register.
        ra: Reg,
        /// Shift amount (0–31).
        shamt: u8,
    },
    /// `l.srai rd, ra, shamt` — arithmetic right shift by a constant.
    Srai {
        /// Destination register.
        rd: Reg,
        /// Source register.
        ra: Reg,
        /// Shift amount (0–31).
        shamt: u8,
    },
    /// `l.movhi rd, imm` — `rd = imm << 16`.
    Movhi {
        /// Destination register.
        rd: Reg,
        /// Immediate placed in the upper half-word.
        imm: u16,
    },
    /// `l.sfeq ra, rb` — set flag if `ra == rb`.
    Sfeq {
        /// First source register.
        ra: Reg,
        /// Second source register.
        rb: Reg,
    },
    /// `l.sfne ra, rb` — set flag if `ra != rb`.
    Sfne {
        /// First source register.
        ra: Reg,
        /// Second source register.
        rb: Reg,
    },
    /// `l.sfltu ra, rb` — set flag if `ra < rb` (unsigned).
    Sfltu {
        /// First source register.
        ra: Reg,
        /// Second source register.
        rb: Reg,
    },
    /// `l.sfgeu ra, rb` — set flag if `ra >= rb` (unsigned).
    Sfgeu {
        /// First source register.
        ra: Reg,
        /// Second source register.
        rb: Reg,
    },
    /// `l.sfgtu ra, rb` — set flag if `ra > rb` (unsigned).
    Sfgtu {
        /// First source register.
        ra: Reg,
        /// Second source register.
        rb: Reg,
    },
    /// `l.sfleu ra, rb` — set flag if `ra <= rb` (unsigned).
    Sfleu {
        /// First source register.
        ra: Reg,
        /// Second source register.
        rb: Reg,
    },
    /// `l.sflts ra, rb` — set flag if `ra < rb` (signed).
    Sflts {
        /// First source register.
        ra: Reg,
        /// Second source register.
        rb: Reg,
    },
    /// `l.sfges ra, rb` — set flag if `ra >= rb` (signed).
    Sfges {
        /// First source register.
        ra: Reg,
        /// Second source register.
        rb: Reg,
    },
    /// `l.sfgts ra, rb` — set flag if `ra > rb` (signed).
    Sfgts {
        /// First source register.
        ra: Reg,
        /// Second source register.
        rb: Reg,
    },
    /// `l.sfles ra, rb` — set flag if `ra <= rb` (signed).
    Sfles {
        /// First source register.
        ra: Reg,
        /// Second source register.
        rb: Reg,
    },
    /// `l.lwz rd, offset(ra)` — load the word at `ra + sext(offset)`.
    Lwz {
        /// Destination register.
        rd: Reg,
        /// Base-address register.
        ra: Reg,
        /// Byte offset (must be word-aligned).
        offset: i16,
    },
    /// `l.sw offset(ra), rb` — store `rb` to `ra + sext(offset)`.
    Sw {
        /// Base-address register.
        ra: Reg,
        /// Source register holding the value to store.
        rb: Reg,
        /// Byte offset (must be word-aligned).
        offset: i16,
    },
    /// `l.bf offset` — branch if the flag is set.
    Bf {
        /// Word offset relative to the next instruction.
        offset: i32,
    },
    /// `l.bnf offset` — branch if the flag is clear.
    Bnf {
        /// Word offset relative to the next instruction.
        offset: i32,
    },
    /// `l.j offset` — unconditional jump.
    J {
        /// Word offset relative to the next instruction.
        offset: i32,
    },
    /// `l.jal offset` — jump and link (return address into `r9`).
    Jal {
        /// Word offset relative to the next instruction.
        offset: i32,
    },
    /// `l.jr ra` — jump to the address in `ra` (in instruction words).
    Jr {
        /// Register holding the target address.
        ra: Reg,
    },
    /// `l.nop` — no operation.
    Nop,
}

/// Every assembly mnemonic of the ISA, in opcode order. One entry per
/// [`Instruction`] variant; conformance suites use this to assert full
/// coverage of the instruction set.
pub const MNEMONICS: [&str; 36] = [
    "l.add", "l.sub", "l.and", "l.or", "l.xor", "l.mul", "l.sll", "l.srl", "l.sra", "l.addi",
    "l.andi", "l.ori", "l.xori", "l.muli", "l.slli", "l.srli", "l.srai", "l.movhi", "l.sfeq",
    "l.sfne", "l.sfltu", "l.sfgeu", "l.sfgtu", "l.sfleu", "l.sflts", "l.sfges", "l.sfgts",
    "l.sfles", "l.lwz", "l.sw", "l.bf", "l.bnf", "l.j", "l.jal", "l.jr", "l.nop",
];

impl Instruction {
    /// The link register written by [`Instruction::Jal`].
    pub const LINK_REGISTER: Reg = Reg(9);

    /// The assembly mnemonic of this instruction (always an element of
    /// [`MNEMONICS`]); the first token of the [`fmt::Display`] form.
    pub fn mnemonic(&self) -> &'static str {
        use Instruction::*;
        match self {
            Add { .. } => "l.add",
            Sub { .. } => "l.sub",
            And { .. } => "l.and",
            Or { .. } => "l.or",
            Xor { .. } => "l.xor",
            Mul { .. } => "l.mul",
            Sll { .. } => "l.sll",
            Srl { .. } => "l.srl",
            Sra { .. } => "l.sra",
            Addi { .. } => "l.addi",
            Andi { .. } => "l.andi",
            Ori { .. } => "l.ori",
            Xori { .. } => "l.xori",
            Muli { .. } => "l.muli",
            Slli { .. } => "l.slli",
            Srli { .. } => "l.srli",
            Srai { .. } => "l.srai",
            Movhi { .. } => "l.movhi",
            Sfeq { .. } => "l.sfeq",
            Sfne { .. } => "l.sfne",
            Sfltu { .. } => "l.sfltu",
            Sfgeu { .. } => "l.sfgeu",
            Sfgtu { .. } => "l.sfgtu",
            Sfleu { .. } => "l.sfleu",
            Sflts { .. } => "l.sflts",
            Sfges { .. } => "l.sfges",
            Sfgts { .. } => "l.sfgts",
            Sfles { .. } => "l.sfles",
            Lwz { .. } => "l.lwz",
            Sw { .. } => "l.sw",
            Bf { .. } => "l.bf",
            Bnf { .. } => "l.bnf",
            J { .. } => "l.j",
            Jal { .. } => "l.jal",
            Jr { .. } => "l.jr",
            Nop => "l.nop",
        }
    }

    /// Coarse classification of the instruction.
    pub fn kind(&self) -> InstructionKind {
        use Instruction::*;
        match self {
            Add { .. }
            | Sub { .. }
            | And { .. }
            | Or { .. }
            | Xor { .. }
            | Mul { .. }
            | Sll { .. }
            | Srl { .. }
            | Sra { .. }
            | Addi { .. }
            | Andi { .. }
            | Ori { .. }
            | Xori { .. }
            | Muli { .. }
            | Slli { .. }
            | Srli { .. }
            | Srai { .. }
            | Movhi { .. }
            | Sfeq { .. }
            | Sfne { .. }
            | Sfltu { .. }
            | Sfgeu { .. }
            | Sfgtu { .. }
            | Sfleu { .. }
            | Sflts { .. }
            | Sfges { .. }
            | Sfgts { .. }
            | Sfles { .. } => InstructionKind::Alu,
            Lwz { .. } => InstructionKind::Load,
            Sw { .. } => InstructionKind::Store,
            Bf { .. } | Bnf { .. } => InstructionKind::Branch,
            J { .. } | Jal { .. } | Jr { .. } => InstructionKind::Jump,
            Nop => InstructionKind::Nop,
        }
    }

    /// The execution-stage ALU operation this instruction activates, if any.
    ///
    /// Comparisons that the hardware implements with swapped operands
    /// (`l.sfgtu`, `l.sfleu`, `l.sfgts`, `l.sfles`) report the class of the
    /// underlying datapath operation (`SfLtu`, `SfGeu`, `SfLts`, `SfGes`).
    pub fn alu_class(&self) -> Option<AluClass> {
        use Instruction::*;
        let class = match self {
            Add { .. } | Addi { .. } => AluClass::Add,
            Sub { .. } => AluClass::Sub,
            And { .. } | Andi { .. } => AluClass::And,
            Or { .. } | Ori { .. } | Movhi { .. } => AluClass::Or,
            Xor { .. } | Xori { .. } => AluClass::Xor,
            Mul { .. } | Muli { .. } => AluClass::Mul,
            Sll { .. } | Slli { .. } => AluClass::Sll,
            Srl { .. } | Srli { .. } => AluClass::Srl,
            Sra { .. } | Srai { .. } => AluClass::Sra,
            Sfeq { .. } => AluClass::SfEq,
            Sfne { .. } => AluClass::SfNe,
            Sfltu { .. } | Sfgtu { .. } => AluClass::SfLtu,
            Sfgeu { .. } | Sfleu { .. } => AluClass::SfGeu,
            Sflts { .. } | Sfgts { .. } => AluClass::SfLts,
            Sfges { .. } | Sfles { .. } => AluClass::SfGes,
            Lwz { .. }
            | Sw { .. }
            | Bf { .. }
            | Bnf { .. }
            | J { .. }
            | Jal { .. }
            | Jr { .. }
            | Nop => return None,
        };
        Some(class)
    }

    /// Whether the instruction writes the branch flag.
    pub fn writes_flag(&self) -> bool {
        self.alu_class().is_some_and(AluClass::is_set_flag)
    }

    /// Whether the instruction reads the branch flag.
    pub fn reads_flag(&self) -> bool {
        matches!(self, Instruction::Bf { .. } | Instruction::Bnf { .. })
    }

    /// The word offset of a pc-relative branch or jump, if any.
    ///
    /// The resolved target is `pc + 1 + offset`. Returns `None` for
    /// everything else, including `l.jr` whose target is dynamic.
    pub fn relative_offset(&self) -> Option<i32> {
        use Instruction::*;
        match self {
            Bf { offset } | Bnf { offset } | J { offset } | Jal { offset } => Some(*offset),
            _ => None,
        }
    }

    /// The registers read by this instruction, in operand order.
    ///
    /// At most two registers are ever read; absent slots are `None`. The
    /// branch flag is not a register — see [`Instruction::reads_flag`].
    pub fn sources(&self) -> [Option<Reg>; 2] {
        use Instruction::*;
        match self {
            Add { ra, rb, .. }
            | Sub { ra, rb, .. }
            | And { ra, rb, .. }
            | Or { ra, rb, .. }
            | Xor { ra, rb, .. }
            | Mul { ra, rb, .. }
            | Sll { ra, rb, .. }
            | Srl { ra, rb, .. }
            | Sra { ra, rb, .. }
            | Sfeq { ra, rb }
            | Sfne { ra, rb }
            | Sfltu { ra, rb }
            | Sfgeu { ra, rb }
            | Sfgtu { ra, rb }
            | Sfleu { ra, rb }
            | Sflts { ra, rb }
            | Sfges { ra, rb }
            | Sfgts { ra, rb }
            | Sfles { ra, rb }
            | Sw { ra, rb, .. } => [Some(*ra), Some(*rb)],
            Addi { ra, .. }
            | Andi { ra, .. }
            | Ori { ra, .. }
            | Xori { ra, .. }
            | Muli { ra, .. }
            | Slli { ra, .. }
            | Srli { ra, .. }
            | Srai { ra, .. }
            | Lwz { ra, .. }
            | Jr { ra } => [Some(*ra), None],
            Movhi { .. } | Bf { .. } | Bnf { .. } | J { .. } | Jal { .. } | Nop => [None, None],
        }
    }

    /// The register written by this instruction, if any.
    pub fn destination(&self) -> Option<Reg> {
        use Instruction::*;
        match self {
            Add { rd, .. }
            | Sub { rd, .. }
            | And { rd, .. }
            | Or { rd, .. }
            | Xor { rd, .. }
            | Mul { rd, .. }
            | Sll { rd, .. }
            | Srl { rd, .. }
            | Sra { rd, .. }
            | Addi { rd, .. }
            | Andi { rd, .. }
            | Ori { rd, .. }
            | Xori { rd, .. }
            | Muli { rd, .. }
            | Slli { rd, .. }
            | Srli { rd, .. }
            | Srai { rd, .. }
            | Movhi { rd, .. }
            | Lwz { rd, .. } => Some(*rd),
            Jal { .. } => Some(Self::LINK_REGISTER),
            _ => None,
        }
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Instruction::*;
        match self {
            Add { rd, ra, rb } => write!(f, "l.add {rd}, {ra}, {rb}"),
            Sub { rd, ra, rb } => write!(f, "l.sub {rd}, {ra}, {rb}"),
            And { rd, ra, rb } => write!(f, "l.and {rd}, {ra}, {rb}"),
            Or { rd, ra, rb } => write!(f, "l.or {rd}, {ra}, {rb}"),
            Xor { rd, ra, rb } => write!(f, "l.xor {rd}, {ra}, {rb}"),
            Mul { rd, ra, rb } => write!(f, "l.mul {rd}, {ra}, {rb}"),
            Sll { rd, ra, rb } => write!(f, "l.sll {rd}, {ra}, {rb}"),
            Srl { rd, ra, rb } => write!(f, "l.srl {rd}, {ra}, {rb}"),
            Sra { rd, ra, rb } => write!(f, "l.sra {rd}, {ra}, {rb}"),
            Addi { rd, ra, imm } => write!(f, "l.addi {rd}, {ra}, {imm}"),
            Andi { rd, ra, imm } => write!(f, "l.andi {rd}, {ra}, {imm:#x}"),
            Ori { rd, ra, imm } => write!(f, "l.ori {rd}, {ra}, {imm:#x}"),
            Xori { rd, ra, imm } => write!(f, "l.xori {rd}, {ra}, {imm:#x}"),
            Muli { rd, ra, imm } => write!(f, "l.muli {rd}, {ra}, {imm}"),
            Slli { rd, ra, shamt } => write!(f, "l.slli {rd}, {ra}, {shamt}"),
            Srli { rd, ra, shamt } => write!(f, "l.srli {rd}, {ra}, {shamt}"),
            Srai { rd, ra, shamt } => write!(f, "l.srai {rd}, {ra}, {shamt}"),
            Movhi { rd, imm } => write!(f, "l.movhi {rd}, {imm:#x}"),
            Sfeq { ra, rb } => write!(f, "l.sfeq {ra}, {rb}"),
            Sfne { ra, rb } => write!(f, "l.sfne {ra}, {rb}"),
            Sfltu { ra, rb } => write!(f, "l.sfltu {ra}, {rb}"),
            Sfgeu { ra, rb } => write!(f, "l.sfgeu {ra}, {rb}"),
            Sfgtu { ra, rb } => write!(f, "l.sfgtu {ra}, {rb}"),
            Sfleu { ra, rb } => write!(f, "l.sfleu {ra}, {rb}"),
            Sflts { ra, rb } => write!(f, "l.sflts {ra}, {rb}"),
            Sfges { ra, rb } => write!(f, "l.sfges {ra}, {rb}"),
            Sfgts { ra, rb } => write!(f, "l.sfgts {ra}, {rb}"),
            Sfles { ra, rb } => write!(f, "l.sfles {ra}, {rb}"),
            Lwz { rd, ra, offset } => write!(f, "l.lwz {rd}, {offset}({ra})"),
            Sw { ra, rb, offset } => write!(f, "l.sw {offset}({ra}), {rb}"),
            Bf { offset } => write!(f, "l.bf {offset}"),
            Bnf { offset } => write!(f, "l.bnf {offset}"),
            J { offset } => write!(f, "l.j {offset}"),
            Jal { offset } => write!(f, "l.jal {offset}"),
            Jr { ra } => write!(f, "l.jr {ra}"),
            Nop => write!(f, "l.nop"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        let add = Instruction::Add {
            rd: Reg(3),
            ra: Reg(1),
            rb: Reg(2),
        };
        assert_eq!(add.kind(), InstructionKind::Alu);
        assert_eq!(add.alu_class(), Some(AluClass::Add));
        assert!(!add.writes_flag());
        assert_eq!(add.destination(), Some(Reg(3)));

        let lwz = Instruction::Lwz {
            rd: Reg(4),
            ra: Reg(2),
            offset: 8,
        };
        assert_eq!(lwz.kind(), InstructionKind::Load);
        assert_eq!(lwz.alu_class(), None);
        assert_eq!(lwz.destination(), Some(Reg(4)));

        let bf = Instruction::Bf { offset: -3 };
        assert_eq!(bf.kind(), InstructionKind::Branch);
        assert_eq!(bf.destination(), None);

        let jal = Instruction::Jal { offset: 10 };
        assert_eq!(jal.kind(), InstructionKind::Jump);
        assert_eq!(jal.destination(), Some(Instruction::LINK_REGISTER));

        assert_eq!(Instruction::Nop.kind(), InstructionKind::Nop);
    }

    #[test]
    fn swapped_comparisons_share_datapath_class() {
        let gtu = Instruction::Sfgtu {
            ra: Reg(1),
            rb: Reg(2),
        };
        let ltu = Instruction::Sfltu {
            ra: Reg(1),
            rb: Reg(2),
        };
        assert_eq!(gtu.alu_class(), Some(AluClass::SfLtu));
        assert_eq!(ltu.alu_class(), Some(AluClass::SfLtu));
        assert!(gtu.writes_flag());
        let les = Instruction::Sfles {
            ra: Reg(1),
            rb: Reg(2),
        };
        assert_eq!(les.alu_class(), Some(AluClass::SfGes));
    }

    #[test]
    fn flag_classes() {
        assert!(AluClass::SfEq.is_set_flag());
        assert!(!AluClass::Mul.is_set_flag());
        assert_eq!(AluClass::ALL.len(), 15);
    }

    #[test]
    fn display_round() {
        let i = Instruction::Addi {
            rd: Reg(3),
            ra: Reg(3),
            imm: -1,
        };
        assert_eq!(i.to_string(), "l.addi r3, r3, -1");
        assert_eq!(Instruction::Nop.to_string(), "l.nop");
        assert_eq!(
            Instruction::Lwz {
                rd: Reg(5),
                ra: Reg(2),
                offset: 12
            }
            .to_string(),
            "l.lwz r5, 12(r2)"
        );
        assert_eq!(AluClass::Mul.to_string(), "mul");
    }

    #[test]
    fn sources_and_flag_reads() {
        let add = Instruction::Add {
            rd: Reg(3),
            ra: Reg(1),
            rb: Reg(2),
        };
        assert_eq!(add.sources(), [Some(Reg(1)), Some(Reg(2))]);
        let sw = Instruction::Sw {
            ra: Reg(4),
            rb: Reg(5),
            offset: 8,
        };
        assert_eq!(sw.sources(), [Some(Reg(4)), Some(Reg(5))]);
        let lwz = Instruction::Lwz {
            rd: Reg(6),
            ra: Reg(7),
            offset: 0,
        };
        assert_eq!(lwz.sources(), [Some(Reg(7)), None]);
        let jr = Instruction::Jr { ra: Reg(9) };
        assert_eq!(jr.sources(), [Some(Reg(9)), None]);
        assert_eq!(Instruction::Nop.sources(), [None, None]);
        let movhi = Instruction::Movhi {
            rd: Reg(1),
            imm: 0xffff,
        };
        assert_eq!(movhi.sources(), [None, None]);

        assert!(Instruction::Bf { offset: 1 }.reads_flag());
        assert!(Instruction::Bnf { offset: -2 }.reads_flag());
        assert!(!Instruction::J { offset: 1 }.reads_flag());
        assert!(!add.reads_flag());

        assert_eq!(Instruction::Bf { offset: -3 }.relative_offset(), Some(-3));
        assert_eq!(Instruction::Jal { offset: 7 }.relative_offset(), Some(7));
        assert_eq!(jr.relative_offset(), None);
        assert_eq!(add.relative_offset(), None);
    }

    #[test]
    fn mnemonic_is_the_display_head() {
        let samples = [
            Instruction::Add {
                rd: Reg(1),
                ra: Reg(2),
                rb: Reg(3),
            },
            Instruction::Movhi { rd: Reg(1), imm: 7 },
            Instruction::Sfles {
                ra: Reg(1),
                rb: Reg(2),
            },
            Instruction::Sw {
                ra: Reg(1),
                rb: Reg(2),
                offset: 4,
            },
            Instruction::Jr { ra: Reg(9) },
            Instruction::Nop,
        ];
        for i in samples {
            assert!(MNEMONICS.contains(&i.mnemonic()));
            assert_eq!(
                i.to_string().split_whitespace().next().unwrap(),
                i.mnemonic()
            );
        }
        // The canonical list has no duplicates.
        let mut unique: Vec<&str> = MNEMONICS.to_vec();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), MNEMONICS.len());
    }

    #[test]
    fn movhi_is_alu_or_class() {
        let movhi = Instruction::Movhi {
            rd: Reg(7),
            imm: 0x1234,
        };
        assert_eq!(movhi.alu_class(), Some(AluClass::Or));
        assert_eq!(movhi.destination(), Some(Reg(7)));
    }
}
