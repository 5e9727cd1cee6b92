//! Timing-error fault-injection models.
//!
//! The paper compares four ways of deciding, every cycle, which bits of the
//! execution-stage result register to flip (Table 2):
//!
//! | model | type | timing data | Vdd noise | gate-level aware | instruction aware |
//! |-------|------|-------------|-----------|------------------|-------------------|
//! | **A** ([`FixedProbabilityModel`]) | fixed probability | none | no | no | no |
//! | **B** ([`StaWithNoiseModel`] at σ = 0) | fixed period violation | STA | no | partially | no |
//! | **B+** ([`StaWithNoiseModel`]) | modulated period violation | STA | yes | partially | no |
//! | **C** ([`StatisticalDtaModel`]) | probabilistic period violation (CDFs) | DTA | yes | yes | yes |
//!
//! All models implement [`sfi_cpu::FaultInjector`], so they plug directly
//! into the cycle-accurate ISS.
//!
//! # Example
//!
//! ```
//! use rand::SeedableRng;
//! use sfi_fault::{FixedProbabilityModel, OperatingPoint};
//! use sfi_cpu::{ExStageContext, FaultInjector};
//! use sfi_isa::AluClass;
//!
//! let mut model = FixedProbabilityModel::new(0.5, 32, 42);
//! let ctx = ExStageContext {
//!     cycle: 0,
//!     alu_class: AluClass::Add,
//!     operand_a: 1,
//!     operand_b: 2,
//!     result: 3,
//!     fi_enabled: true,
//! };
//! // With 32 endpoint bits at 50 % each, a fault is essentially certain.
//! assert_ne!(model.inject(&ctx), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod map;
pub mod model_a;
pub mod model_b;
pub mod model_c;
pub mod operating_point;
pub mod table;

pub use map::alu_op_for_class;
pub use model_a::FixedProbabilityModel;
pub use model_b::StaWithNoiseModel;
pub use model_c::StatisticalDtaModel;
pub use operating_point::{OperatingPoint, WORST_FACTOR_GUARD_BAND};
pub use table::{DtaFaultTable, EndpointClasses};
