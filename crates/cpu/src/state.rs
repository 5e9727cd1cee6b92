//! Architectural CPU state: register file, flag and program counter.

use sfi_isa::registers::REGISTER_COUNT;
use sfi_isa::Reg;

/// The architectural state of the core.
///
/// Register `r0` is hard-wired to zero: writes to it are ignored, reads
/// always return 0.
///
/// # Example
///
/// ```
/// use sfi_cpu::CpuState;
/// use sfi_isa::Reg;
///
/// let mut state = CpuState::new();
/// state.set_reg(Reg(3), 42);
/// state.set_reg(Reg(0), 99); // ignored
/// assert_eq!(state.reg(Reg(3)), 42);
/// assert_eq!(state.reg(Reg(0)), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CpuState {
    regs: [u32; REGISTER_COUNT],
    /// The branch flag written by `l.sf*` and read by `l.bf` / `l.bnf`.
    pub flag: bool,
    /// The program counter, in instruction words.
    pub pc: u32,
}

impl CpuState {
    /// Creates a reset state (all registers zero, flag clear, PC at 0).
    pub fn new() -> Self {
        CpuState {
            regs: [0; REGISTER_COUNT],
            flag: false,
            pc: 0,
        }
    }

    /// Reads a register.
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs[r.index()]
    }

    /// Writes a register; writes to `r0` are ignored.
    pub fn set_reg(&mut self, r: Reg, value: u32) {
        if !r.is_zero() {
            self.regs[r.index()] = value;
        }
    }

    /// Reads a register of a decoded micro-op, which decoding has already
    /// validated: the mask only lets the compiler drop the bounds check.
    pub(crate) fn read(&self, r: Reg) -> u32 {
        self.regs[usize::from(r.0) & (REGISTER_COUNT - 1)]
    }

    /// Writes a register of a decoded micro-op (see [`CpuState::read`]);
    /// `r0` is re-zeroed instead of tested.
    pub(crate) fn write(&mut self, r: Reg, value: u32) {
        self.regs[usize::from(r.0) & (REGISTER_COUNT - 1)] = value;
        self.regs[0] = 0;
    }

    /// All register values (including the hard-wired `r0`).
    pub fn registers(&self) -> &[u32; REGISTER_COUNT] {
        &self.regs
    }
}

impl Default for CpuState {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_register_is_hardwired() {
        let mut s = CpuState::new();
        s.set_reg(Reg(0), 123);
        assert_eq!(s.reg(Reg(0)), 0);
        s.set_reg(Reg(31), 7);
        assert_eq!(s.reg(Reg(31)), 7);
        assert_eq!(s.registers()[31], 7);
    }

    #[test]
    fn reset_state() {
        let s = CpuState::default();
        assert_eq!(s.pc, 0);
        assert!(!s.flag);
        assert!(s.registers().iter().all(|&r| r == 0));
    }
}
