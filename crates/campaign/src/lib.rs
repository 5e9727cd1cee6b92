//! Parallel, resumable Monte-Carlo campaign engine for the statistical
//! fault-injection flow.
//!
//! The paper's methodology is "at least 100 simulations per data point"
//! over a grid of benchmark × fault-model × operating-point.  The one-shot
//! `sfi_core::experiment` API runs such grids one trial at a time on one
//! thread; this crate turns them into first-class *campaigns*:
//!
//! * [`CampaignSpec`] — the grid: a benchmark table plus cells of
//!   (benchmark, fault model, operating point, trial budget), with
//!   builders for cross products and frequency sweeps.
//! * [`CampaignEngine`] — a pool of std threads over one work queue in
//!   campaign order, so cells stream roughly in index order.  Per-trial
//!   seeds come from
//!   `sfi_core::experiment::derive_trial_seed`, adaptive decisions happen
//!   only at batch boundaries, and aggregates are folded in trial order,
//!   so results are **bit-identical for any thread count**.
//! * [`stats`] — streaming aggregation: Welford mean/variance for the
//!   continuous metrics and Wilson score intervals for the binomial
//!   finished/correct fractions, with explicit zero-sample states.
//! * [`TrialBudget`] / [`StopRule`] — adaptive sampling: a cell stops as
//!   soon as its confidence interval is tighter than the configured
//!   half-width, instead of always burning the full budget.
//! * [`poff`] — adaptive point-of-first-failure search by bisection on
//!   the failure transition, typically 3–5× fewer cells than the fixed
//!   `frequency_grid` sweep at equal resolution.
//! * [`checkpoint`] — the cell codec, the result document, and
//!   checkpoints: a [`journal`] log of one record per completed cell that
//!   seeds a re-run of the same spec instead of recomputing.
//! * [`journal`] — the CRC-framed, fsync'd append log with torn-tail
//!   replay: the one on-disk record store, shared by checkpoints and the
//!   serve daemon's job journal.
//!
//! # Quickstart
//!
//! ```
//! use sfi_campaign::{CampaignEngine, CampaignSpec, TrialBudget};
//! use sfi_core::study::{CaseStudy, CaseStudyConfig};
//! use sfi_core::FaultModel;
//! use sfi_fault::OperatingPoint;
//! use sfi_kernels::median::MedianBenchmark;
//!
//! let study = CaseStudy::build(CaseStudyConfig::fast_for_tests());
//! let sta = study.sta_limit_mhz(0.7);
//!
//! let mut spec = CampaignSpec::new("quickstart", 7);
//! let median = spec.add_benchmark(MedianBenchmark::new(21, 3));
//! spec.add_grid(
//!     &[median],
//!     &[FaultModel::None, FaultModel::StatisticalDta],
//!     &[OperatingPoint::new(sta * 0.95, 0.7), OperatingPoint::new(sta * 1.3, 0.7)],
//!     TrialBudget::fixed(3),
//! );
//!
//! let result = CampaignEngine::new().run(&study, &spec);
//! assert_eq!(result.cells.len(), 4);
//! // Fault-free cells are always fully correct.
//! assert_eq!(result.cells[0].stats.correct_fraction(), 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod engine;
pub mod journal;
pub mod poff;
pub mod spec;
pub mod stats;

// The JSON implementation moved to `sfi_core::json` so the core
// characterization cache can use it too; checkpoints and existing
// `sfi_campaign::json::...` paths keep working through this re-export.
pub use sfi_core::json;

pub use engine::{CampaignEngine, CampaignResult, CellResult, EngineMetrics};
pub use poff::{adaptive_poff, PoffOutcome, PoffSearch};
pub use spec::{CampaignSpec, CellSpec, SharedBenchmark, StopMetric, StopRule, TrialBudget};
pub use stats::{wilson_interval, CellStats, Welford, WilsonInterval};
