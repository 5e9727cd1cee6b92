//! The execution-stage fault-injection hook.
//!
//! The paper injects timing-error faults exclusively into the 32 ALU
//! endpoint flip-flops of the execution stage, conditioned on the
//! instruction currently occupying that stage.  [`FaultInjector`] is the
//! corresponding hook: the ISS calls it once per ALU-instruction cycle with
//! the full micro-architectural context and XORs the returned mask into the
//! freshly computed result before write-back.

use sfi_isa::AluClass;

/// Everything the fault model may condition an injection on for one
/// execution-stage cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExStageContext {
    /// Cycle counter at the time the instruction is in the execution stage.
    pub cycle: u64,
    /// The ALU operation occupying the stage.
    pub alu_class: AluClass,
    /// First ALU operand.
    pub operand_a: u32,
    /// Second ALU operand (immediate operands are presented here as well,
    /// after extension, exactly as the datapath sees them).
    pub operand_b: u32,
    /// The fault-free result the ALU computed this cycle (for set-flag
    /// operations bit 0 holds the flag).
    pub result: u32,
    /// Whether fault injection is currently enabled (the ISS only enables
    /// it inside the benchmark's kernel window).
    pub fi_enabled: bool,
}

/// A model deciding which execution-stage endpoint bits to flip each cycle.
///
/// Implementations live in the `sfi-fault` crate (models A, B, B+ and C of
/// the paper); the trivial [`NoFaultInjector`] is provided here for
/// fault-free golden runs.
pub trait FaultInjector {
    /// Returns the bit mask to XOR into the execution-stage result register
    /// for this cycle (0 = no fault).
    ///
    /// The ISS calls this for every cycle in which an ALU instruction
    /// occupies the execution stage, including cycles outside the kernel
    /// window (with `ctx.fi_enabled == false`) so that models can keep
    /// cycle-aligned internal state such as per-cycle supply-noise samples.
    fn inject(&mut self, ctx: &ExStageContext) -> u32;

    /// Called at the start of every
    /// [`Core::run_with_injector`](crate::Core::run_with_injector) call.
    ///
    /// One trial may call it twice: a trial whose watchdog is not yet
    /// known stops at the harness's floor and continues the same run with
    /// a second `run_with_injector` call.  An implementation must therefore
    /// not reset state a run in progress depends on (such as its noise
    /// sequence), or the continued trial is no longer the single run it
    /// stands for.  Every injector in the tree keeps the default, which
    /// does nothing.
    fn begin_run(&mut self) {}

    /// Whether this injector provably returns a zero mask on every cycle
    /// of every run, whatever the program and the RNG state.
    ///
    /// A `true` answer is a proof obligation, not a hint: the trial
    /// harness then runs the ISS with [`NoFaultInjector`] instead of this
    /// injector.  That is bit-identical because a zero mask on every cycle
    /// leaves the run, and its statistics, exactly as the golden run; and
    /// the RNG draws the skipped calls would have made only advance the
    /// trial's own generator, which is reseeded for the next trial, so its
    /// state is discarded when the trial ends.
    ///
    /// The `sfi-fault` models answer once, when they are built.  Model B
    /// compares its STA endpoint delays with the period.  Models B+ and C
    /// bound the per-cycle noise: a sample is `clamp(z, -c, c) * σ`, so the
    /// noisy supply stays within `vdd ± c·σ` and the per-cycle delay
    /// factor is at most the curve's maximum over that range (its ends and
    /// every knot inside it) over the nominal factor.  They scale their
    /// worst delay (B+: the STA endpoints, C: every op's worst DTA sample)
    /// by that factor plus a 1e-9 relative guard band for rounding, and
    /// answer `true` when it still fits the period.
    ///
    /// The conservative default is `false`.
    fn never_faults(&self) -> bool {
        false
    }
}

/// A fault injector that never injects anything (golden runs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoFaultInjector;

impl FaultInjector for NoFaultInjector {
    fn inject(&mut self, _ctx: &ExStageContext) -> u32 {
        0
    }

    fn never_faults(&self) -> bool {
        true
    }
}

impl<T: FaultInjector + ?Sized> FaultInjector for &mut T {
    fn inject(&mut self, ctx: &ExStageContext) -> u32 {
        (**self).inject(ctx)
    }

    fn begin_run(&mut self) {
        (**self).begin_run();
    }

    fn never_faults(&self) -> bool {
        (**self).never_faults()
    }
}

impl<T: FaultInjector + ?Sized> FaultInjector for Box<T> {
    fn inject(&mut self, ctx: &ExStageContext) -> u32 {
        (**self).inject(ctx)
    }

    fn begin_run(&mut self) {
        (**self).begin_run();
    }

    fn never_faults(&self) -> bool {
        (**self).never_faults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct FlipLsbInKernel;

    impl FaultInjector for FlipLsbInKernel {
        fn inject(&mut self, ctx: &ExStageContext) -> u32 {
            if ctx.fi_enabled {
                1
            } else {
                0
            }
        }
    }

    fn ctx(fi_enabled: bool) -> ExStageContext {
        ExStageContext {
            cycle: 10,
            alu_class: AluClass::Add,
            operand_a: 1,
            operand_b: 2,
            result: 3,
            fi_enabled,
        }
    }

    #[test]
    fn no_fault_injector_returns_zero() {
        let mut inj = NoFaultInjector;
        assert_eq!(inj.inject(&ctx(true)), 0);
        inj.begin_run();
        assert!(inj.never_faults());
    }

    #[test]
    fn trait_objects_and_references_work() {
        let mut inj = FlipLsbInKernel;
        assert_eq!(inj.inject(&ctx(true)), 1);
        assert_eq!(inj.inject(&ctx(false)), 0);
        let mut dynamic: &mut dyn FaultInjector = &mut inj;
        assert_eq!(FaultInjector::inject(&mut dynamic, &ctx(true)), 1);
        FaultInjector::begin_run(&mut dynamic);
        let mut boxed: Box<dyn FaultInjector> = Box::new(FlipLsbInKernel);
        assert_eq!(boxed.inject(&ctx(true)), 1);
        boxed.begin_run();
        // `never_faults` defaults to false and is forwarded unchanged.
        assert!(!dynamic.never_faults());
        assert!(!boxed.never_faults());
        let mut none = NoFaultInjector;
        let by_ref: &mut dyn FaultInjector = &mut none;
        assert!(by_ref.never_faults());
        let boxed_none: Box<dyn FaultInjector> = Box::new(NoFaultInjector);
        assert!(boxed_none.never_faults());
    }
}
