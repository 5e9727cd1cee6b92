//! Cycle-accurate instruction set simulator (ISS) of the OpenRISC-like core
//! with execution-stage fault-injection hooks.
//!
//! This crate is the simulation substrate of the statistical fault-injection
//! flow: it executes programs written against `sfi-isa` on a model of the
//! 32-bit, 6-stage, ~1-IPC embedded core of the paper's case study, and it
//! exposes the single intrusion point the paper needs — the 32 execution-
//! stage ALU endpoint flip-flops.  Every cycle in which an ALU instruction
//! occupies the execution stage, the configured [`FaultInjector`] may flip
//! bits of the freshly computed result before it is written back (or before
//! it sets the branch flag), exactly like the LISA-based ISS + FI framework
//! of the paper's ref. 15.
//!
//! Non-ALU instructions (loads, stores, branches, jumps) are never faulted:
//! the case-study core is constrained so that all non-ALU paths have a
//! comfortable timing margin (Sec. 2.1 of the paper).
//!
//! A run counts cycles, faults and one retire count per pc in
//! [`RunStats`]; [`RunStats::mix`] derives the instruction mix from them.
//!
//! # Example
//!
//! ```
//! use sfi_cpu::{Core, RunConfig};
//! use sfi_isa::program::ProgramBuilder;
//! use sfi_isa::{Instruction, Reg};
//!
//! // r3 = 6 * 7
//! let mut p = ProgramBuilder::new();
//! p.push(Instruction::Addi { rd: Reg(1), ra: Reg(0), imm: 6 });
//! p.push(Instruction::Addi { rd: Reg(2), ra: Reg(0), imm: 7 });
//! p.push(Instruction::Mul { rd: Reg(3), ra: Reg(1), rb: Reg(2) });
//!
//! let mut core = Core::new(p.build(), 1024);
//! let outcome = core.run(&RunConfig::default());
//! assert!(outcome.finished());
//! assert_eq!(core.state().reg(Reg(3)), 42);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod core;
pub mod fault;
pub mod memory;
pub mod state;
pub mod stats;

pub use crate::core::{Core, RunConfig, RunOutcome};
pub use fault::{ExStageContext, FaultInjector, NoFaultInjector};
pub use memory::Memory;
pub use state::CpuState;
pub use stats::RunStats;
