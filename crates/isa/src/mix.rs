//! Instruction mix: weighted per-kind and per-ALU-class counts.

use crate::instruction::{AluClass, Instruction, InstructionKind};

/// Per-[`InstructionKind`] and per-[`AluClass`] counts, each instruction
/// weighted: by 1 in the static verifier, by its retire count in a run
/// (`sfi_cpu::RunStats::mix`). These are the paper's Table 1 weights.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct InstructionMix {
    /// ALU (arithmetic/logic/shift/compare) instructions.
    pub alu: u64,
    /// Word loads.
    pub load: u64,
    /// Word stores.
    pub store: u64,
    /// Conditional branches.
    pub branch: u64,
    /// Unconditional jumps.
    pub jump: u64,
    /// No-ops.
    pub nop: u64,
    /// Per-ALU-class counts, indexed by `class as usize`.
    pub alu_classes: [u64; AluClass::ALL.len()],
}

impl InstructionMix {
    /// Counts `instruction` `count` times.
    pub fn add(&mut self, instruction: &Instruction, count: u64) {
        let kind = match instruction.kind() {
            InstructionKind::Alu => &mut self.alu,
            InstructionKind::Load => &mut self.load,
            InstructionKind::Store => &mut self.store,
            InstructionKind::Branch => &mut self.branch,
            InstructionKind::Jump => &mut self.jump,
            InstructionKind::Nop => &mut self.nop,
        };
        *kind += count;
        if let Some(class) = instruction.alu_class() {
            self.alu_classes[class as usize] += count;
        }
    }

    /// Total number of instructions counted.
    pub fn total(&self) -> u64 {
        self.alu + self.load + self.store + self.branch + self.jump + self.nop
    }

    /// Count for one ALU class.
    pub fn class_count(&self, class: AluClass) -> u64 {
        self.alu_classes[class as usize]
    }

    /// Fraction of instructions doing compute work: the ALU share, the
    /// only instructions fault injection targets.
    pub fn compute_fraction(&self) -> f64 {
        self.fraction(self.alu)
    }

    /// Fraction of instructions doing control flow (branches + jumps).
    pub fn control_fraction(&self) -> f64 {
        self.fraction(self.branch + self.jump)
    }

    fn fraction(&self, count: u64) -> f64 {
        match self.total() {
            0 => 0.0,
            total => count as f64 / total as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Reg;

    #[test]
    fn counters_accumulate() {
        let (rd, ra, rb) = (Reg(1), Reg(2), Reg(3));
        let mut mix = InstructionMix::default();
        mix.add(&Instruction::Mul { rd, ra, rb }, 1);
        mix.add(&Instruction::Sfeq { ra, rb }, 1);
        mix.add(&Instruction::Lwz { rd, ra, offset: 0 }, 1);
        mix.add(&Instruction::Sw { ra, rb, offset: 0 }, 1);
        mix.add(&Instruction::Bf { offset: 0 }, 1);
        mix.add(&Instruction::J { offset: 0 }, 1);
        mix.add(&Instruction::Nop, 1);
        assert_eq!(mix.total(), 7);
        assert_eq!(mix.alu, 2);
        assert_eq!(mix.class_count(AluClass::Mul), 1);
        assert_eq!(mix.class_count(AluClass::SfEq), 1);
        assert_eq!(mix.load, 1);
        assert_eq!(mix.store, 1);
        assert_eq!(mix.branch, 1);
        assert_eq!(mix.jump, 1);
        assert_eq!(mix.nop, 1);
    }

    #[test]
    fn empty_and_weighted_fractions() {
        let (rd, ra) = (Reg(1), Reg(2));
        let mut mix = InstructionMix::default();
        assert_eq!(mix.compute_fraction(), 0.0);
        assert_eq!(mix.control_fraction(), 0.0);
        mix.add(&Instruction::Addi { rd, ra, imm: 1 }, 1000);
        mix.add(&Instruction::Lwz { rd, ra, offset: 0 }, 700);
        mix.add(&Instruction::Bnf { offset: 0 }, 200);
        mix.add(&Instruction::Jr { ra }, 100);
        assert_eq!(mix.total(), 2000);
        assert_eq!(mix.class_count(AluClass::Add), 1000);
        assert!((mix.compute_fraction() - 0.5).abs() < 1e-12);
        assert!((mix.control_fraction() - 0.15).abs() < 1e-12);
    }
}
