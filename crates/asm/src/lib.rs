//! Text-assembly front end for the SFI toolchain.
//!
//! [`assemble`] turns `.s`-style source — one instruction, directive or
//! label per line — into a validated [`sfi_isa::Program`] plus the
//! data-memory and bounds metadata the serve `program` recipe needs, with
//! typed span-carrying errors ([`AsmError`]) that render rustc-style caret
//! context.
//!
//! # Grammar
//!
//! Each line is `[label:]... [instruction | directive]` followed by an
//! optional `;` or `#` comment. Mnemonics and operand shapes match the
//! [`sfi_isa::Instruction`] display forms exactly, so a
//! [`sfi_isa::Program::listing`] — including its leading `N:` address
//! annotations and `; -> target` comments — assembles back to the same
//! program bit-for-bit (the round-trip property the conformance suite
//! pins).
//!
//! Directives:
//!
//! * `.dmem N` — data-memory size in words (serve recipe `dmem_words`),
//! * `.word W...` — raw 32-bit instruction words, decoded and spliced in,
//! * `.input W...` — data words written to dmem `0..n` before the run,
//! * `.output LO:HI` — half-open dmem word range holding the result,
//! * `.fi_window LO:HI` — half-open pc range under fault injection;
//!   bounds may be numbers or labels.
//!
//! # Example
//!
//! ```
//! let source = "
//!     .dmem 4
//!     .input 7
//!     .output 1:2
//!     l.lwz   r3, 0(r0)       ; r3 = dmem[0]
//!     loop:
//!     l.addi  r3, r3, -1
//!     l.sfne  r3, r0
//!     l.bf    loop
//!     l.sw    4(r0), r3       ; dmem[1] = 0
//! ";
//! let asm = sfi_asm::assemble(source).unwrap();
//! assert_eq!(asm.program.len(), 5);
//! assert_eq!(asm.labels["loop"], 1);
//! assert_eq!(asm.output, Some((1, 2)));
//! // The listing itself re-assembles to the same program.
//! let again = sfi_asm::assemble(&asm.program.listing()).unwrap();
//! assert_eq!(again.program, asm.program);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod parser;

pub use error::{AsmError, AsmErrorKind, SourceSpan};

use sfi_isa::Program;
use std::collections::BTreeMap;

/// The result of assembling a source file: the program plus everything the
/// serve `program` recipe and diagnostics mapping need.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assembly {
    /// The assembled, fully resolved program.
    pub program: Program,
    /// 1-based source line of each instruction, indexed by pc.
    pub line_map: Vec<u32>,
    /// `.dmem` directive value, if present.
    pub dmem_words: Option<usize>,
    /// Concatenated `.input` words (written to dmem `0..n` before a run).
    pub input: Vec<u32>,
    /// `.output LO:HI` half-open dmem word range, if declared.
    pub output: Option<(u32, u32)>,
    /// `.fi_window LO:HI` half-open pc range, if declared (labels resolved).
    pub fi_window: Option<(u32, u32)>,
    /// Every label with the pc it is bound to (a label may sit at
    /// `program.len()`, the clean-exit address).
    pub labels: BTreeMap<String, u32>,
}

impl Assembly {
    /// The 1-based source line that produced the instruction at `pc`.
    pub fn line_for_pc(&self, pc: u32) -> Option<u32> {
        self.line_map.get(pc as usize).copied()
    }

    /// The fault-injection window, defaulting to the whole program when no
    /// `.fi_window` directive was given.
    pub fn resolved_fi_window(&self) -> (u32, u32) {
        self.fi_window.unwrap_or((0, self.program.len() as u32))
    }

    /// The data-memory size: the `.dmem` directive if present, otherwise
    /// `default`, but never smaller than what `.input` and `.output`
    /// themselves require.
    pub fn resolved_dmem_words(&self, default: usize) -> usize {
        let declared = self.dmem_words.unwrap_or(default);
        let needed = self
            .input
            .len()
            .max(self.output.map_or(0, |(_, hi)| hi as usize));
        declared.max(needed)
    }
}

/// Assembles `.s`-style source into an [`Assembly`].
///
/// Stops at the first error; the returned [`AsmError`] carries the typed
/// failure kind plus a [`SourceSpan`] and can render caret context with
/// [`AsmError::render`].
///
/// # Errors
///
/// Any lexical, syntactic or semantic failure: unknown mnemonics or
/// directives, malformed operands, out-of-range immediates or branch
/// offsets, duplicate or undefined labels, non-decoding `.word` values,
/// duplicate one-shot directives, and listing address annotations that
/// disagree with the actual instruction address.
pub fn assemble(source: &str) -> Result<Assembly, AsmError> {
    parser::Parser::assemble(source)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfi_isa::{Instruction, Reg};

    fn kind_of(err: AsmError) -> AsmErrorKind {
        err.kind
    }

    #[test]
    fn empty_source_is_an_empty_program() {
        let asm = assemble("\n  ; only a comment\n").unwrap();
        assert!(asm.program.is_empty());
        assert_eq!(asm.resolved_fi_window(), (0, 0));
    }

    #[test]
    fn every_operand_shape_parses() {
        let asm = assemble(
            "l.add r3, r4, r5\n\
             l.addi r3, r4, -7\n\
             l.andi r3, r4, 0xff\n\
             l.slli r3, r4, 31\n\
             l.movhi r3, 0xdead\n\
             l.sfgtu r3, r4\n\
             l.lwz r5, 12(r2)\n\
             l.sw -4(r2), r5\n\
             l.bf 2\n\
             l.jr r9\n\
             l.nop\n",
        )
        .unwrap();
        let i = asm.program.instructions();
        assert_eq!(
            i[0],
            Instruction::Add {
                rd: Reg(3),
                ra: Reg(4),
                rb: Reg(5)
            }
        );
        assert_eq!(
            i[1],
            Instruction::Addi {
                rd: Reg(3),
                ra: Reg(4),
                imm: -7
            }
        );
        assert_eq!(
            i[2],
            Instruction::Andi {
                rd: Reg(3),
                ra: Reg(4),
                imm: 0xff
            }
        );
        assert_eq!(
            i[3],
            Instruction::Slli {
                rd: Reg(3),
                ra: Reg(4),
                shamt: 31
            }
        );
        assert_eq!(
            i[4],
            Instruction::Movhi {
                rd: Reg(3),
                imm: 0xdead
            }
        );
        assert_eq!(
            i[5],
            Instruction::Sfgtu {
                ra: Reg(3),
                rb: Reg(4)
            }
        );
        assert_eq!(
            i[6],
            Instruction::Lwz {
                rd: Reg(5),
                ra: Reg(2),
                offset: 12
            }
        );
        assert_eq!(
            i[7],
            Instruction::Sw {
                ra: Reg(2),
                rb: Reg(5),
                offset: -4
            }
        );
        assert_eq!(i[8], Instruction::Bf { offset: 2 });
        assert_eq!(i[9], Instruction::Jr { ra: Reg(9) });
        assert_eq!(i[10], Instruction::Nop);
        assert_eq!(asm.line_for_pc(10), Some(11));
    }

    #[test]
    fn labels_resolve_forward_and_backward() {
        let asm = assemble(
            "head: l.nop\n\
             l.sfeq r1, r2\n\
             l.bf head\n\
             l.bnf done\n\
             l.j head\n\
             done:\n",
        )
        .unwrap();
        let i = asm.program.instructions();
        assert_eq!(i[2], Instruction::Bf { offset: -3 });
        assert_eq!(i[3], Instruction::Bnf { offset: 1 });
        assert_eq!(i[4], Instruction::J { offset: -5 });
        // `done` is bound at the clean-exit address, one past the end.
        assert_eq!(asm.labels["done"], 5);
    }

    #[test]
    fn high_immediates_reinterpret_as_bit_patterns() {
        let asm = assemble("l.addi r1, r0, 0xffff\nl.addi r2, r0, 65535\n").unwrap();
        assert_eq!(
            asm.program.instructions()[0],
            Instruction::Addi {
                rd: Reg(1),
                ra: Reg(0),
                imm: -1
            }
        );
        assert_eq!(
            asm.program.instructions()[1],
            Instruction::Addi {
                rd: Reg(2),
                ra: Reg(0),
                imm: -1
            }
        );
    }

    #[test]
    fn directives_collect_metadata() {
        let asm = assemble(
            ".dmem 16\n\
             .input 1 2 3\n\
             .input 0xdeadbeef\n\
             .output 4:6\n\
             body: l.nop\n\
             l.nop\n\
             .fi_window body:end\n\
             end:\n",
        )
        .unwrap();
        assert_eq!(asm.dmem_words, Some(16));
        assert_eq!(asm.input, vec![1, 2, 3, 0xdeadbeef]);
        assert_eq!(asm.output, Some((4, 6)));
        assert_eq!(asm.fi_window, Some((0, 2)));
        assert_eq!(asm.resolved_dmem_words(4096), 16);
    }

    #[test]
    fn resolved_dmem_grows_to_cover_input_and_output() {
        let asm = assemble(".dmem 2\n.output 7:9\nl.nop\n").unwrap();
        assert_eq!(asm.resolved_dmem_words(4096), 9);
        let asm = assemble("l.nop\n").unwrap();
        assert_eq!(asm.resolved_dmem_words(64), 64);
    }

    #[test]
    fn word_directive_splices_decoded_instructions() {
        let nop = sfi_isa::encode(Instruction::Nop);
        let add = sfi_isa::encode(Instruction::Add {
            rd: Reg(1),
            ra: Reg(2),
            rb: Reg(3),
        });
        let asm = assemble(&format!(".word {nop:#x} {add}\n")).unwrap();
        assert_eq!(asm.program.instructions()[0], Instruction::Nop);
        assert_eq!(
            asm.program.instructions()[1],
            Instruction::Add {
                rd: Reg(1),
                ra: Reg(2),
                rb: Reg(3)
            }
        );
    }

    #[test]
    fn listing_address_annotations_are_validated() {
        assert!(assemble("0: l.nop\n1: l.nop\n").is_ok());
        let err = assemble("0: l.nop\n5: l.nop\n").unwrap_err();
        assert!(matches!(
            kind_of(err),
            AsmErrorKind::AddressAnnotationMismatch {
                annotated: 5,
                actual: 1
            }
        ));
    }

    #[test]
    fn error_unknown_mnemonic() {
        let err = assemble("l.bogus r1, r2\n").unwrap_err();
        assert_eq!(err.span.line, 1);
        assert!(matches!(err.kind, AsmErrorKind::UnknownMnemonic(ref m) if m == "l.bogus"));
    }

    #[test]
    fn error_unknown_directive_with_span() {
        let err = assemble("l.nop\n.bogus 1\n").unwrap_err();
        assert_eq!((err.span.line, err.span.col, err.span.len), (2, 1, 6));
        assert!(matches!(err.kind, AsmErrorKind::UnknownDirective(ref d) if d == ".bogus"));
    }

    #[test]
    fn error_duplicate_label_reports_first_line() {
        let err = assemble("x: l.nop\nx: l.nop\n").unwrap_err();
        assert!(matches!(
            err.kind,
            AsmErrorKind::DuplicateLabel { ref name, first_line: 1 } if name == "x"
        ));
    }

    #[test]
    fn error_undefined_label() {
        let err = assemble("l.j nowhere\n").unwrap_err();
        assert!(matches!(err.kind, AsmErrorKind::UndefinedLabel(ref l) if l == "nowhere"));
    }

    #[test]
    fn error_bad_register_and_immediates() {
        let err = assemble("l.add r1, r32, r2\n").unwrap_err();
        assert!(matches!(err.kind, AsmErrorKind::BadRegister(ref r) if r == "r32"));
        // r32 in any position is an error, never a panic when the program
        // is built and decoded.
        for source in [
            "l.add r32, r1, r2",
            "l.add r1, r2, r32",
            "l.lwz r32, 0(r1)",
            "l.sw 0(r32), r1",
            "l.jr r32",
        ] {
            let err = assemble(&format!("{source}\n")).unwrap_err();
            assert!(matches!(err.kind, AsmErrorKind::BadRegister(ref r) if r == "r32"));
        }
        let err = assemble("l.addi r1, r2, 70000\n").unwrap_err();
        assert!(matches!(err.kind, AsmErrorKind::ImmediateOutOfRange { .. }));
        let err = assemble("l.slli r1, r2, 32\n").unwrap_err();
        assert!(matches!(err.kind, AsmErrorKind::ImmediateOutOfRange { .. }));
        let err = assemble("l.bf 0x4000000\n").unwrap_err();
        assert!(matches!(err.kind, AsmErrorKind::OffsetOutOfRange { .. }));
        let err = assemble("l.addi r1, r2, twelve\n").unwrap_err();
        assert!(matches!(err.kind, AsmErrorKind::BadNumber(_)));
    }

    #[test]
    fn error_word_must_decode() {
        let err = assemble(".word 0xffffffff\n").unwrap_err();
        assert!(matches!(
            err.kind,
            AsmErrorKind::WordDoesNotDecode(0xffffffff)
        ));
    }

    #[test]
    fn error_duplicate_directive() {
        let err = assemble(".dmem 4\n.dmem 8\n").unwrap_err();
        assert!(matches!(
            err.kind,
            AsmErrorKind::DuplicateDirective {
                directive: ".dmem",
                first_line: 1
            }
        ));
    }

    #[test]
    fn error_trailing_tokens() {
        let err = assemble("l.nop r1\n").unwrap_err();
        assert!(matches!(
            err.kind,
            AsmErrorKind::Expected {
                expected: "end of line",
                ..
            }
        ));
    }

    #[test]
    fn error_fi_window_must_fit_the_program() {
        let err = assemble("l.nop\n.fi_window 0:5\n").unwrap_err();
        assert!(matches!(err.kind, AsmErrorKind::Expected { .. }));
        let err = assemble("l.nop\n.fi_window 1:1\n").unwrap_err();
        assert!(matches!(err.kind, AsmErrorKind::Expected { .. }));
    }

    #[test]
    fn assembled_programs_always_encode() {
        // Every operand the parser accepts is encodable: to_words must not
        // panic even at the field extremes.
        let asm = assemble(
            "l.addi r31, r31, -32768\n\
             l.movhi r31, 0xffff\n\
             l.bf -33554432\n\
             l.j 33554431\n\
             l.lwz r31, -32768(r31)\n",
        )
        .unwrap();
        assert_eq!(asm.program.to_words().len(), 5);
    }
}
