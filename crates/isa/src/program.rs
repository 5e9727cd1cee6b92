//! Programs and a small label-based builder used by the benchmark kernels.

use crate::instruction::Instruction;
use crate::micro_op::MicroOp;
use crate::registers::Reg;
use std::fmt;
use std::sync::Arc;

/// A fully resolved program: a flat list of instructions starting at
/// instruction address 0, together with its decoded [`MicroOp`] table.
///
/// # Example
///
/// ```
/// use sfi_isa::{Instruction, Program, Reg};
///
/// let program = Program::new(vec![
///     Instruction::Addi { rd: Reg(3), ra: Reg(0), imm: 5 },
///     Instruction::Nop,
/// ]);
/// assert_eq!(program.len(), 2);
/// assert!(program.listing().contains("l.addi r3, r0, 5"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    instructions: Vec<Instruction>,
    /// `instructions` decoded, followed by [`MicroOp::Exit`]; clones of
    /// the program share it.
    micro_ops: Arc<[MicroOp]>,
}

impl Program {
    /// Wraps a list of instructions into a program and decodes each one
    /// into the [`MicroOp`] table the simulator executes.
    ///
    /// Decoding happens here, once per program: the table sits behind an
    /// `Arc` that clones of the program share, so no clone, no simulated
    /// core and no run decodes anything.
    ///
    /// # Panics
    ///
    /// Panics with "register rN does not exist" if an instruction names a
    /// register numbered 32 or above.
    pub fn new(instructions: Vec<Instruction>) -> Self {
        let micro_ops = instructions
            .iter()
            .zip(0u32..)
            .map(|(&instruction, pc)| MicroOp::decode(pc, instruction))
            .chain([MicroOp::Exit])
            .collect();
        Program {
            instructions,
            micro_ops,
        }
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// Whether the program contains no instructions.
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// The instructions in address order.
    pub fn instructions(&self) -> &[Instruction] {
        &self.instructions
    }

    /// The decoded table: entry `pc` is the instruction at `pc`, and one
    /// [`MicroOp::Exit`] entry follows the last instruction (running onto
    /// it finishes the program).
    pub fn micro_ops(&self) -> &[MicroOp] {
        &self.micro_ops
    }

    /// The instruction at address `pc`, if within the program.
    pub fn fetch(&self, pc: u32) -> Option<Instruction> {
        self.instructions.get(pc as usize).copied()
    }

    /// A human-readable assembly listing with addresses.
    ///
    /// Pc-relative branches and jumps are annotated with the resolved
    /// absolute target address (`target = pc + 1 + offset`) so the raw
    /// relative offset and its destination can be read side by side:
    ///
    /// ```text
    ///     2:  l.bf -3                ; -> 0
    /// ```
    pub fn listing(&self) -> String {
        self.instructions
            .iter()
            .enumerate()
            .map(|(pc, i)| match i.relative_offset() {
                Some(offset) => {
                    let target = pc as i64 + 1 + i64::from(offset);
                    format!("{pc:5}:  {:<22} ; -> {target}\n", i.to_string())
                }
                None => format!("{pc:5}:  {i}\n"),
            })
            .collect()
    }

    /// Encodes every instruction into its 32-bit representation (the
    /// contents of the instruction memory).
    pub fn to_words(&self) -> Vec<u32> {
        self.instructions
            .iter()
            .map(|&i| crate::encoding::encode(i))
            .collect()
    }

    /// Decodes a program from instruction-memory words.
    ///
    /// # Errors
    ///
    /// Returns the first [`crate::DecodeError`] encountered.
    pub fn from_words(words: &[u32]) -> Result<Self, crate::DecodeError> {
        let instructions = words
            .iter()
            .map(|&w| crate::encoding::decode(w))
            .collect::<Result<_, _>>()?;
        Ok(Program::new(instructions))
    }
}

impl Default for Program {
    fn default() -> Self {
        Program::new(Vec::new())
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.listing())
    }
}

impl FromIterator<Instruction> for Program {
    fn from_iter<T: IntoIterator<Item = Instruction>>(iter: T) -> Self {
        Program::new(iter.into_iter().collect())
    }
}

/// A forward-referenceable label used by [`ProgramBuilder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// Builder assembling a [`Program`] with labels and automatic branch-offset
/// resolution.
///
/// # Example
///
/// ```
/// use sfi_isa::{Instruction, Reg};
/// use sfi_isa::program::ProgramBuilder;
///
/// // r3 = 10; do { r3 -= 1 } while (r3 != 0);
/// let mut p = ProgramBuilder::new();
/// p.push(Instruction::Addi { rd: Reg(3), ra: Reg(0), imm: 10 });
/// let head = p.label();
/// p.push(Instruction::Addi { rd: Reg(3), ra: Reg(3), imm: -1 });
/// p.push(Instruction::Sfne { ra: Reg(3), rb: Reg(0) });
/// p.branch_if_flag(head);
/// let program = p.build();
/// assert_eq!(program.len(), 4);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ProgramBuilder {
    instructions: Vec<Instruction>,
    labels: Vec<Option<usize>>,
    fixups: Vec<(usize, Label, FixupKind)>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FixupKind {
    BranchIfFlag,
    BranchIfNotFlag,
    Jump,
    JumpAndLink,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current instruction address (= number of instructions emitted).
    pub fn here(&self) -> u32 {
        self.instructions.len() as u32
    }

    /// Appends an instruction.
    pub fn push(&mut self, instruction: Instruction) -> &mut Self {
        self.instructions.push(instruction);
        self
    }

    /// Appends several instructions.
    pub fn extend(&mut self, instructions: impl IntoIterator<Item = Instruction>) -> &mut Self {
        self.instructions.extend(instructions);
        self
    }

    /// Creates a label bound to the current position.
    pub fn label(&mut self) -> Label {
        let label = Label(self.labels.len());
        self.labels.push(Some(self.instructions.len()));
        label
    }

    /// Creates an unbound (forward) label to be bound later with
    /// [`ProgramBuilder::bind`].
    pub fn forward_label(&mut self) -> Label {
        let label = Label(self.labels.len());
        self.labels.push(None);
        label
    }

    /// Binds a forward label to the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label is already bound.
    pub fn bind(&mut self, label: Label) {
        assert!(self.labels[label.0].is_none(), "label is already bound");
        self.labels[label.0] = Some(self.instructions.len());
    }

    /// Emits `l.bf` (branch if flag set) to `target`.
    pub fn branch_if_flag(&mut self, target: Label) -> &mut Self {
        self.fixups
            .push((self.instructions.len(), target, FixupKind::BranchIfFlag));
        self.instructions.push(Instruction::Bf { offset: 0 });
        self
    }

    /// Emits `l.bnf` (branch if flag clear) to `target`.
    pub fn branch_if_not_flag(&mut self, target: Label) -> &mut Self {
        self.fixups
            .push((self.instructions.len(), target, FixupKind::BranchIfNotFlag));
        self.instructions.push(Instruction::Bnf { offset: 0 });
        self
    }

    /// Emits an unconditional jump to `target`.
    pub fn jump(&mut self, target: Label) -> &mut Self {
        self.fixups
            .push((self.instructions.len(), target, FixupKind::Jump));
        self.instructions.push(Instruction::J { offset: 0 });
        self
    }

    /// Emits a jump-and-link to `target`.
    pub fn jump_and_link(&mut self, target: Label) -> &mut Self {
        self.fixups
            .push((self.instructions.len(), target, FixupKind::JumpAndLink));
        self.instructions.push(Instruction::Jal { offset: 0 });
        self
    }

    /// Emits the canonical two-instruction sequence loading a 32-bit
    /// constant into `rd` (`l.movhi` + `l.ori`).
    pub fn load_immediate(&mut self, rd: Reg, value: u32) -> &mut Self {
        self.push(Instruction::Movhi {
            rd,
            imm: (value >> 16) as u16,
        });
        self.push(Instruction::Ori {
            rd,
            ra: rd,
            imm: (value & 0xFFFF) as u16,
        });
        self
    }

    /// Resolves all label references and returns the program.
    ///
    /// # Panics
    ///
    /// Panics if a referenced label was never bound.
    pub fn build(mut self) -> Program {
        for (at, label, kind) in &self.fixups {
            let target =
                self.labels[label.0].unwrap_or_else(|| panic!("label {label:?} was never bound"));
            let offset = target as i64 - (*at as i64 + 1);
            let offset = i32::try_from(offset).expect("branch offset fits in i32");
            self.instructions[*at] = match kind {
                FixupKind::BranchIfFlag => Instruction::Bf { offset },
                FixupKind::BranchIfNotFlag => Instruction::Bnf { offset },
                FixupKind::Jump => Instruction::J { offset },
                FixupKind::JumpAndLink => Instruction::Jal { offset },
            };
        }
        Program::new(self.instructions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backward_branch_offsets() {
        let mut p = ProgramBuilder::new();
        let head = p.label();
        p.push(Instruction::Nop);
        p.push(Instruction::Nop);
        p.branch_if_flag(head);
        let program = p.build();
        // Branch at address 2, target 0: offset = 0 - (2 + 1) = -3.
        assert_eq!(program.fetch(2), Some(Instruction::Bf { offset: -3 }));
    }

    #[test]
    fn forward_branch_offsets() {
        let mut p = ProgramBuilder::new();
        let end = p.forward_label();
        p.branch_if_not_flag(end);
        p.push(Instruction::Nop);
        p.push(Instruction::Nop);
        p.bind(end);
        p.push(Instruction::Nop);
        let program = p.build();
        // Branch at 0, target 3: offset = 3 - 1 = 2.
        assert_eq!(program.fetch(0), Some(Instruction::Bnf { offset: 2 }));
    }

    #[test]
    fn jump_and_link_and_plain_jump() {
        let mut p = ProgramBuilder::new();
        let subroutine = p.forward_label();
        p.jump_and_link(subroutine);
        p.push(Instruction::Nop);
        p.bind(subroutine);
        p.push(Instruction::Jr {
            ra: Instruction::LINK_REGISTER,
        });
        let entry = p.label();
        p.jump(entry);
        let program = p.build();
        assert_eq!(program.fetch(0), Some(Instruction::Jal { offset: 1 }));
        assert_eq!(program.fetch(3), Some(Instruction::J { offset: -1 }));
    }

    #[test]
    fn load_immediate_expands_to_two_instructions() {
        let mut p = ProgramBuilder::new();
        p.load_immediate(Reg(5), 0xDEAD_BEEF);
        let program = p.build();
        assert_eq!(program.len(), 2);
        assert_eq!(
            program.fetch(0),
            Some(Instruction::Movhi {
                rd: Reg(5),
                imm: 0xDEAD
            })
        );
        assert_eq!(
            program.fetch(1),
            Some(Instruction::Ori {
                rd: Reg(5),
                ra: Reg(5),
                imm: 0xBEEF
            })
        );
    }

    #[test]
    fn program_roundtrips_through_memory_words() {
        let mut p = ProgramBuilder::new();
        p.load_immediate(Reg(3), 1234);
        p.push(Instruction::Addi {
            rd: Reg(3),
            ra: Reg(3),
            imm: 1,
        });
        let program = p.build();
        let words = program.to_words();
        let back = Program::from_words(&words).expect("valid encoding");
        assert_eq!(back, program);
    }

    #[test]
    fn listing_resolves_branch_targets() {
        let mut p = ProgramBuilder::new();
        let head = p.label();
        p.push(Instruction::Nop);
        p.push(Instruction::Nop);
        p.branch_if_flag(head);
        let end = p.forward_label();
        p.jump(end);
        p.bind(end);
        let listing = p.build().listing();
        // Branch at 2 back to 0; jump at 3 to the program end (= exit).
        assert!(listing.contains("l.bf -3"), "listing:\n{listing}");
        assert!(listing.contains("; -> 0"), "listing:\n{listing}");
        assert!(listing.contains("l.j 0"), "listing:\n{listing}");
        assert!(listing.contains("; -> 4"), "listing:\n{listing}");
        // Non-control instructions carry no target annotation.
        assert!(listing.lines().next().unwrap().ends_with("l.nop"));
    }

    #[test]
    fn listing_and_fetch() {
        let program = Program::new(vec![Instruction::Nop, Instruction::Jr { ra: Reg(9) }]);
        assert!(program.listing().contains("l.jr r9"));
        assert_eq!(program.fetch(5), None);
        assert!(!program.is_empty());
        assert_eq!(program.to_string(), program.listing());
        let collected: Program = vec![Instruction::Nop].into_iter().collect();
        assert_eq!(collected.len(), 1);
    }

    #[test]
    fn micro_op_table_ends_in_exit() {
        let program = Program::new(vec![Instruction::Nop, Instruction::J { offset: -2 }]);
        assert_eq!(
            program.micro_ops(),
            [MicroOp::Nop, MicroOp::Jump { target: 0 }, MicroOp::Exit]
        );
        assert_eq!(Program::default().micro_ops(), [MicroOp::Exit]);
    }

    #[test]
    #[should_panic(expected = "register r32 does not exist")]
    fn invalid_register_panics_when_the_program_is_built() {
        let mut p = ProgramBuilder::new();
        p.push(Instruction::Nop);
        p.push(Instruction::Sw {
            ra: Reg(1),
            rb: Reg(32),
            offset: 0,
        });
        let _ = p.build();
    }

    #[test]
    fn every_register_field_of_a_memory_word_decodes_to_a_valid_register() {
        // Words come from untrusted input; their 5-bit register fields can
        // only name r0–r31, so decoding a word list never panics.
        for op in 0..64u32 {
            for shift in [21, 16, 11] {
                for value in 0..32u32 {
                    let word = (op << 26) | (value << shift) | 0x7C0;
                    if let Ok(program) = Program::from_words(&[word]) {
                        let i = program.instructions()[0];
                        let [a, b] = i.sources();
                        assert!([a, b, i.destination()]
                            .into_iter()
                            .flatten()
                            .all(Reg::is_valid));
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "never bound")]
    fn unbound_label_panics() {
        let mut p = ProgramBuilder::new();
        let l = p.forward_label();
        p.jump(l);
        let _ = p.build();
    }

    #[test]
    #[should_panic(expected = "already bound")]
    fn double_bind_panics() {
        let mut p = ProgramBuilder::new();
        let l = p.label();
        p.bind(l);
    }
}
