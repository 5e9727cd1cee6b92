//! Adaptive point-of-first-failure search.
//!
//! The fixed `frequency_grid` sweep spends one full Monte-Carlo cell on
//! every grid point, most of which are far from the failure transition.
//! Because correctness is monotone in frequency to a very good
//! approximation (the transition region of model C is narrow, and models
//! B/B+ are hard thresholds), the PoFF can instead be bracketed by
//! bisection: evaluate the two endpoints, then repeatedly split the
//! correct/failing bracket until it is tighter than the requested
//! resolution.  For a grid of `n` points this needs about
//! `2 + log2(n)` cells instead of `n` — typically 3–5× fewer for the
//! resolutions the figure binaries use.

use crate::engine::CampaignEngine;
use crate::spec::{CampaignSpec, CellSpec, SharedBenchmark, TrialBudget};
use sfi_core::{CaseStudy, FaultModel, SweepPoint, WatchdogSlot};
use sfi_fault::OperatingPoint;

/// Configuration of an adaptive PoFF search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoffSearch {
    /// Lower end of the searched frequency range, MHz.
    pub lo_mhz: f64,
    /// Upper end of the searched frequency range, MHz.
    pub hi_mhz: f64,
    /// Stop once the failure bracket is tighter than this, MHz.
    pub resolution_mhz: f64,
    /// Monte-Carlo budget of each evaluated frequency.
    pub budget: TrialBudget,
}

impl PoffSearch {
    /// A search over `[lo_mhz, hi_mhz]` at `resolution_mhz` with a fixed
    /// per-point trial budget.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or the resolution is not positive.
    pub fn new(lo_mhz: f64, hi_mhz: f64, resolution_mhz: f64, trials: usize) -> Self {
        assert!(
            lo_mhz < hi_mhz,
            "search range [{lo_mhz}, {hi_mhz}] is empty"
        );
        assert!(resolution_mhz > 0.0, "resolution must be positive");
        PoffSearch {
            lo_mhz,
            hi_mhz,
            resolution_mhz,
            budget: TrialBudget::fixed(trials),
        }
    }

    /// Number of cells an equivalent fixed grid would evaluate for the
    /// same resolution over the same range, saturating at `usize::MAX`.
    ///
    /// A huge range over a tiny resolution can exceed what `usize` holds;
    /// the float-to-int cast saturates (and maps NaN to zero), but the
    /// `+ 1` for the inclusive upper endpoint must then saturate too
    /// instead of wrapping past zero.
    pub fn grid_equivalent_cells(&self) -> usize {
        let steps = ((self.hi_mhz - self.lo_mhz) / self.resolution_mhz).ceil();
        (steps as usize).saturating_add(1)
    }
}

/// The outcome of an adaptive PoFF search.
#[derive(Debug, Clone)]
pub struct PoffOutcome {
    /// The located point of first failure: the lowest evaluated frequency
    /// at which the benchmark no longer produces a 100 % correct result
    /// (bracketed to the requested resolution).  `None` if the benchmark
    /// is still fully correct at the top of the range.
    pub poff_mhz: Option<f64>,
    /// Every evaluated frequency with its Monte-Carlo summary, sorted by
    /// frequency.
    pub evaluated: Vec<SweepPoint>,
    /// Cells actually evaluated (compare with
    /// [`PoffSearch::grid_equivalent_cells`]).
    pub cells_evaluated: usize,
}

/// Runs an adaptive PoFF search for `benchmark` under `model`, keeping
/// voltage and noise from `base_point`.
///
/// Every evaluated frequency is one campaign cell executed by `engine`
/// (so its trials run in parallel), seeded deterministically from `seed`
/// and the evaluation ordinal; the search sequence itself is
/// deterministic, so the whole outcome is reproducible.
///
/// The cells share one lazily resolved watchdog: the benchmark's golden
/// run happens at most once per search, and not at all when no trial
/// reaches [`sfi_core::WATCHDOG_FLOOR_CYCLES`].
pub fn adaptive_poff(
    engine: &CampaignEngine,
    study: &CaseStudy,
    benchmark: SharedBenchmark,
    model: FaultModel,
    base_point: OperatingPoint,
    search: PoffSearch,
    seed: u64,
) -> PoffOutcome {
    let mut evaluated: Vec<SweepPoint> = Vec::new();
    let mut ordinal = 0u64;
    let watchdog = [WatchdogSlot::lazy()];
    let mut eval = |freq: f64| -> bool {
        // Each evaluation is a single-cell campaign whose master seed is
        // drawn from the search seed and the evaluation ordinal, giving
        // every evaluated frequency its own deterministic trial stream.
        let eval_seed = sfi_core::derive_trial_seed(seed, ordinal, 0);
        ordinal += 1;
        let mut spec = CampaignSpec::new(format!("poff@{freq:.3}MHz"), eval_seed);
        let b = spec.add_shared_benchmark(benchmark.clone());
        spec.add_cell(CellSpec {
            benchmark: b,
            model,
            point: base_point.at_frequency(freq),
            budget: search.budget,
        });
        let result = engine.run_with_watchdogs(study, &spec, &watchdog);
        let summary = result.summary(0);
        let fully_correct = summary.correct_fraction() >= 1.0;
        evaluated.push(SweepPoint {
            freq_mhz: freq,
            summary,
        });
        fully_correct
    };

    let poff_mhz = if !eval(search.lo_mhz) {
        // Failing already at the bottom of the range: report it as the
        // (upper bound of the) PoFF, like the grid sweep would.
        Some(search.lo_mhz)
    } else if eval(search.hi_mhz) {
        None
    } else {
        let (mut lo, mut hi) = (search.lo_mhz, search.hi_mhz);
        while hi - lo > search.resolution_mhz {
            let mid = 0.5 * (lo + hi);
            // A resolution below the float spacing of the bracket would
            // otherwise loop forever, burning a Monte-Carlo cell per turn.
            if mid <= lo || mid >= hi {
                break;
            }
            if eval(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Some(hi)
    };

    evaluated.sort_by(|a, b| a.freq_mhz.total_cmp(&b.freq_mhz));
    PoffOutcome {
        poff_mhz,
        evaluated,
        cells_evaluated: ordinal as usize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_equivalent_cells_counts_inclusive_endpoints() {
        let search = PoffSearch::new(600.0, 900.0, 10.0, 5);
        assert_eq!(search.grid_equivalent_cells(), 31);
        // A range that is not a multiple of the resolution rounds up.
        let search = PoffSearch::new(600.0, 905.0, 10.0, 5);
        assert_eq!(search.grid_equivalent_cells(), 32);
    }

    #[test]
    fn grid_equivalent_cells_saturates_instead_of_overflowing() {
        // A huge range over a tiny resolution: ~1e312 grid points cannot
        // be represented; the count must clamp, not wrap.
        let search = PoffSearch::new(0.0, f64::MAX, 1e-4, 1);
        assert_eq!(search.grid_equivalent_cells(), usize::MAX);
        // Just past the usize boundary the `+ 1` alone would wrap to 0.
        let search = PoffSearch::new(0.0, usize::MAX as f64, 1.0, 1);
        assert_eq!(search.grid_equivalent_cells(), usize::MAX);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_range_panics() {
        PoffSearch::new(900.0, 600.0, 10.0, 5);
    }

    #[test]
    #[should_panic(expected = "resolution")]
    fn non_positive_resolution_panics() {
        PoffSearch::new(600.0, 900.0, 0.0, 5);
    }
}
