//! OpenRISC-like 32-bit instruction set used by the SFI case study.
//!
//! The paper's hardware is a modified 32-bit OpenRISC embedded core; this
//! crate defines the subset of its instruction set that the benchmark
//! kernels and the cycle-accurate simulator (`sfi-cpu`) need:
//!
//! * [`Instruction`] — register–register and register–immediate ALU
//!   operations (`l.add`, `l.mul`, shifts, logic), set-flag comparisons
//!   (`l.sf*`), word memory accesses (`l.lwz`, `l.sw`), and control flow
//!   (`l.bf`, `l.bnf`, `l.j`, `l.jal`, `l.jr`).
//! * [`AluClass`] — which execution-stage ALU operation an instruction
//!   activates; this is the key that the fault-injection models condition
//!   their timing-error statistics on.
//! * [`MicroOp`] — the decoded form of an instruction; every [`Program`]
//!   decodes its instructions into a micro-op table once, when it is
//!   built, and the simulator executes that table.
//! * [`InstructionMix`] — weighted per-kind and per-class counts (Table 1).
//! * [`encoding`] — a compact 32-bit binary encoding with full
//!   encode/decode round-tripping, so programs can be stored in an
//!   instruction memory like on the real core.
//! * [`program::ProgramBuilder`] — a small label-based assembler API used
//!   by the benchmark kernels.
//!
//! # Example
//!
//! ```
//! use sfi_isa::{Instruction, Reg};
//! use sfi_isa::program::ProgramBuilder;
//!
//! let mut p = ProgramBuilder::new();
//! let loop_head = p.label();
//! p.push(Instruction::Addi { rd: Reg(3), ra: Reg(3), imm: -1 });
//! p.push(Instruction::Sfne { ra: Reg(3), rb: Reg(0) });
//! p.branch_if_flag(loop_head);
//! let program = p.build();
//! assert_eq!(program.len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod encoding;
pub mod instruction;
pub mod micro_op;
pub mod mix;
pub mod program;
pub mod registers;

pub use encoding::{decode, encode, DecodeError};
pub use instruction::{AluClass, Instruction, InstructionKind, MNEMONICS};
pub use micro_op::MicroOp;
pub use mix::InstructionMix;
pub use program::{Program, ProgramBuilder};
pub use registers::Reg;

/// Extra cycles the 6-stage core charges for every taken branch or jump
/// (pipeline refill), in the simulator and in static cycle bounds.
pub const BRANCH_PENALTY_CYCLES: u64 = 2;
