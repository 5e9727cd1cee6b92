//! Statistical fault injection for impact-evaluation of timing errors on
//! application performance.
//!
//! This is the top-level crate of the workspace: it wires the gate-level
//! characterization (`sfi-netlist` + `sfi-timing`), the cycle-accurate ISS
//! (`sfi-isa` + `sfi-cpu`), the fault-injection models (`sfi-fault`) and the
//! benchmark kernels (`sfi-kernels`) into the experiment flow of the DAC
//! 2016 paper:
//!
//! 1. [`study::CaseStudy`] builds the 32-bit execution-stage datapath,
//!    applies the synthesis-like timing budgets, calibrates the static
//!    timing limit to 707 MHz @ 0.7 V, and runs the DTA characterization
//!    kernel at every supply voltage of interest.
//! 2. [`experiment`] runs Monte-Carlo campaigns of a benchmark under a
//!    chosen fault model and operating point and aggregates the paper's
//!    four metrics: probability to *finish*, probability to be *correct*,
//!    *FI rate* (faults / kCycle) and *output error*.
//! 3. [`experiment::frequency_sweep`] sweeps the clock frequency through
//!    the transition region and locates the *point of first failure*
//!    (PoFF).
//! 4. [`power`] converts frequency-over-scaling gains into equivalent
//!    supply-voltage reductions and core-power savings (the error-vs-power
//!    trade-off of Fig. 7).
//!
//! The experiment functions here are the *sequential, one-shot* layer:
//! they run cells trial by trial via [`experiment::run_single_trial`]
//! with [`experiment::derive_trial_seed`] seeding.  The `sfi-campaign`
//! crate builds the parallel, adaptive, resumable campaign engine on the
//! same primitives — a single-cell campaign and a
//! [`experiment::run_experiment`] call produce identical trials.
//!
//! # Quickstart
//!
//! ```
//! use sfi_core::study::{CaseStudy, CaseStudyConfig};
//! use sfi_core::experiment::{run_experiment, FaultModel};
//! use sfi_fault::OperatingPoint;
//! use sfi_kernels::median::MedianBenchmark;
//!
//! // A scaled-down study keeps the doc-test fast; the defaults reproduce
//! // the paper's 32-bit core.
//! let study = CaseStudy::build(CaseStudyConfig::fast_for_tests());
//! let bench = MedianBenchmark::new(21, 7);
//! let point = OperatingPoint::new(study.sta_limit_mhz(0.7) * 0.9, 0.7);
//! let summary = run_experiment(&study, &bench, FaultModel::StatisticalDta, point, 3, 1);
//! assert_eq!(summary.finished_fraction(), 1.0);
//! assert_eq!(summary.correct_fraction(), 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod experiment;
pub mod json;
pub mod power;
pub mod study;

pub use experiment::{
    derive_trial_seed, frequency_sweep, point_of_first_failure, run_experiment, run_single_trial,
    watchdog_cycles, ExperimentSummary, FaultModel, SweepPoint, TrialContext, TrialResult,
    WatchdogSlot, WATCHDOG_FLOOR_CYCLES,
};
pub use power::{PowerModel, TradeoffPoint};
pub use study::{CaseStudy, CaseStudyConfig};
