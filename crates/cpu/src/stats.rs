//! Per-run execution statistics.

use sfi_isa::{InstructionMix, Program};

/// Statistics collected over one program run.
///
/// The FI-rate metric of the paper ("faults per 1000 cycles of kernel
/// execution") is derived from [`RunStats::injected_faults`] and
/// [`RunStats::kernel_cycles`]; the instruction mix is derived from the
/// per-pc retire counts by [`RunStats::mix`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunStats {
    /// Total simulated cycles (including pipeline penalties).
    pub cycles: u64,
    /// Cycles spent inside the kernel window (where FI is enabled).
    pub kernel_cycles: u64,
    /// Retired instructions.
    pub instructions: u64,
    /// Number of faults injected (cycles where at least one endpoint bit
    /// was flipped).
    pub injected_faults: u64,
    /// Total number of endpoint bits flipped.
    pub flipped_bits: u64,
    /// Retire count of each instruction, indexed by pc: one entry per
    /// program instruction, summing to [`RunStats::instructions`].
    pub retired: Vec<u64>,
}

impl RunStats {
    /// Records an injected fault with the given number of flipped bits.
    pub fn record_fault(&mut self, flipped_bits: u32) {
        if flipped_bits > 0 {
            self.injected_faults += 1;
            self.flipped_bits += u64::from(flipped_bits.count_ones());
        }
    }

    /// The instruction mix of the run: each instruction of `program` (the
    /// program that ran) weighted by its retire count.
    pub fn mix(&self, program: &Program) -> InstructionMix {
        let mut mix = InstructionMix::default();
        for (instruction, &count) in program.instructions().iter().zip(&self.retired) {
            mix.add(instruction, count);
        }
        mix
    }

    /// Fault-injection rate in faults per 1000 kernel cycles (the unit used
    /// throughout the paper's figures).  Returns 0 if no kernel cycles were
    /// executed.
    pub fn fi_rate_per_kcycle(&self) -> f64 {
        if self.kernel_cycles == 0 {
            0.0
        } else {
            self.injected_faults as f64 * 1000.0 / self.kernel_cycles as f64
        }
    }

    /// Instructions per cycle achieved by the run.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_accounting_and_rates() {
        let mut s = RunStats {
            kernel_cycles: 2000,
            cycles: 2500,
            ..RunStats::default()
        };
        s.record_fault(0b101);
        s.record_fault(0);
        s.record_fault(0b1);
        assert_eq!(s.injected_faults, 2);
        assert_eq!(s.flipped_bits, 3);
        assert!((s.fi_rate_per_kcycle() - 1.0).abs() < 1e-12);
        s.instructions = 2000;
        assert!((s.ipc() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_have_zero_rates() {
        let s = RunStats::default();
        assert_eq!(s.fi_rate_per_kcycle(), 0.0);
        assert_eq!(s.ipc(), 0.0);
    }
}
