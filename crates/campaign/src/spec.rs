//! Campaign specifications: a grid of benchmarks × fault models ×
//! operating points with per-cell trial budgets.

use crate::stats::CellStats;
use sfi_core::cache::Fnv;
use sfi_core::FaultModel;
use sfi_cpu::Memory;
use sfi_fault::OperatingPoint;
use sfi_kernels::Benchmark;
use std::ops::Range;
use std::sync::Arc;

/// A benchmark shared between the spec and the worker threads.
pub type SharedBenchmark = Arc<dyn Benchmark + Send + Sync>;

/// When to stop sampling a cell before its trial budget is exhausted: once
/// the Wilson score interval of the chosen fraction is tighter than
/// `half_width`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StopRule {
    /// The fraction whose confidence interval is monitored.
    pub metric: StopMetric,
    /// Target half-width of the confidence interval.
    pub half_width: f64,
    /// Critical value of the interval (1.96 ≈ 95 % confidence).
    pub z: f64,
}

impl StopRule {
    /// Stop once the 95 % interval of the correct fraction is tighter than
    /// `half_width`.
    pub fn correct_within(half_width: f64) -> Self {
        StopRule {
            metric: StopMetric::CorrectFraction,
            half_width,
            z: 1.96,
        }
    }

    /// Stop once the 95 % interval of the finished fraction is tighter
    /// than `half_width`.
    pub fn finished_within(half_width: f64) -> Self {
        StopRule {
            metric: StopMetric::FinishedFraction,
            half_width,
            z: 1.96,
        }
    }

    /// Whether `stats` satisfies the rule.
    pub fn is_satisfied(&self, stats: &CellStats) -> bool {
        self.is_satisfied_counts(stats.finished(), stats.correct(), stats.trials())
    }

    /// Streaming form of [`StopRule::is_satisfied`]: evaluates the rule
    /// directly on binomial counters (the engine keeps these per cell so
    /// batch-boundary decisions are O(1)).
    pub fn is_satisfied_counts(&self, finished: u64, correct: u64, trials: u64) -> bool {
        let successes = match self.metric {
            StopMetric::CorrectFraction => correct,
            StopMetric::FinishedFraction => finished,
        };
        crate::stats::wilson_interval(successes, trials, self.z).half_width <= self.half_width
    }
}

/// The monitored fraction of a [`StopRule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopMetric {
    /// Fraction of trials with an exactly correct output.
    CorrectFraction,
    /// Fraction of trials that ran to completion.
    FinishedFraction,
}

/// The trial budget of one campaign cell.
///
/// A cell first runs `min_trials`, then — if an adaptive [`StopRule`] is
/// configured and not yet satisfied — keeps adding batches of `batch`
/// trials until the rule holds or `max_trials` is reached.  Stopping
/// decisions are only taken at batch boundaries over the full set of
/// completed trials, which keeps parallel and sequential execution
/// bit-identical.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialBudget {
    /// Trials always run before the stop rule is first consulted.
    pub min_trials: usize,
    /// Hard upper bound on trials for this cell.
    pub max_trials: usize,
    /// Trials added per adaptive refinement step.
    pub batch: usize,
    /// Early-stopping rule; `None` runs exactly `max_trials` trials.
    pub stop: Option<StopRule>,
}

impl TrialBudget {
    /// A fixed budget: exactly `trials` trials, no early stopping.
    ///
    /// # Panics
    ///
    /// Panics if `trials` is zero.
    pub fn fixed(trials: usize) -> Self {
        assert!(trials > 0, "at least one trial is required");
        TrialBudget {
            min_trials: trials,
            max_trials: trials,
            batch: trials,
            stop: None,
        }
    }

    /// An adaptive budget between `min_trials` and `max_trials`, growing in
    /// steps of `batch`, cut off early by `rule`.
    ///
    /// # Panics
    ///
    /// Panics if `min_trials` is zero, `batch` is zero, or
    /// `max_trials < min_trials`.
    pub fn adaptive(min_trials: usize, max_trials: usize, batch: usize, rule: StopRule) -> Self {
        assert!(min_trials > 0, "at least one trial is required");
        assert!(batch > 0, "the batch size must be positive");
        assert!(
            max_trials >= min_trials,
            "max_trials must be at least min_trials"
        );
        TrialBudget {
            min_trials,
            max_trials,
            batch,
            stop: Some(rule),
        }
    }
}

/// One cell of the campaign grid: a benchmark under a fault model at an
/// operating point, with a trial budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellSpec {
    /// Index into [`CampaignSpec::benchmarks`].
    pub benchmark: usize,
    /// The fault model of this cell.
    pub model: FaultModel,
    /// The operating point of this cell.
    pub point: OperatingPoint,
    /// How many Monte-Carlo trials to run.
    pub budget: TrialBudget,
}

/// A full campaign: named, seeded, with a benchmark table and a list of
/// cells over it.
///
/// Cell order matters: the per-trial fault-injection seeds are derived
/// from `(seed, cell index, trial index)`, so inserting a cell in the
/// middle re-seeds everything after it (and invalidates checkpoints — the
/// [`CampaignSpec::fingerprint`] catches that).
#[derive(Clone)]
pub struct CampaignSpec {
    /// Human-readable campaign name (also stored in checkpoints).
    pub name: String,
    /// The campaign master seed.
    pub seed: u64,
    benchmarks: Vec<SharedBenchmark>,
    cells: Vec<CellSpec>,
}

impl std::fmt::Debug for CampaignSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CampaignSpec")
            .field("name", &self.name)
            .field("seed", &self.seed)
            .field(
                "benchmarks",
                &self.benchmarks.iter().map(|b| b.name()).collect::<Vec<_>>(),
            )
            .field("cells", &self.cells)
            .finish()
    }
}

impl CampaignSpec {
    /// An empty campaign.
    pub fn new(name: impl Into<String>, seed: u64) -> Self {
        CampaignSpec {
            name: name.into(),
            seed,
            benchmarks: Vec::new(),
            cells: Vec::new(),
        }
    }

    /// Registers a benchmark and returns its index for use in cells.
    pub fn add_benchmark(&mut self, benchmark: impl Benchmark + Send + Sync + 'static) -> usize {
        self.add_shared_benchmark(Arc::new(benchmark))
    }

    /// Registers an already-shared benchmark and returns its index.
    pub fn add_shared_benchmark(&mut self, benchmark: SharedBenchmark) -> usize {
        self.benchmarks.push(benchmark);
        self.benchmarks.len() - 1
    }

    /// Appends one cell and returns its index.
    ///
    /// # Panics
    ///
    /// Panics if the cell references an unregistered benchmark.
    pub fn add_cell(&mut self, cell: CellSpec) -> usize {
        assert!(
            cell.benchmark < self.benchmarks.len(),
            "cell references benchmark {} but only {} are registered",
            cell.benchmark,
            self.benchmarks.len()
        );
        self.cells.push(cell);
        self.cells.len() - 1
    }

    /// Appends the full cross product `benchmarks × models × points` with a
    /// shared budget, and returns the range of new cell indices (cells are
    /// appended benchmark-major, then model, then point).
    pub fn add_grid(
        &mut self,
        benchmarks: &[usize],
        models: &[FaultModel],
        points: &[OperatingPoint],
        budget: TrialBudget,
    ) -> Range<usize> {
        let start = self.cells.len();
        for &benchmark in benchmarks {
            for &model in models {
                for &point in points {
                    self.add_cell(CellSpec {
                        benchmark,
                        model,
                        point,
                        budget,
                    });
                }
            }
        }
        start..self.cells.len()
    }

    /// Appends one cell per frequency (keeping voltage and noise from
    /// `base_point`) and returns the range of new cell indices — the
    /// campaign equivalent of `sfi_core::experiment::frequency_sweep`.
    pub fn add_frequency_sweep(
        &mut self,
        benchmark: usize,
        model: FaultModel,
        base_point: OperatingPoint,
        freqs_mhz: &[f64],
        budget: TrialBudget,
    ) -> Range<usize> {
        let start = self.cells.len();
        for &f in freqs_mhz {
            self.add_cell(CellSpec {
                benchmark,
                model,
                point: base_point.at_frequency(f),
                budget,
            });
        }
        start..self.cells.len()
    }

    /// The registered benchmarks.
    pub fn benchmarks(&self) -> &[SharedBenchmark] {
        &self.benchmarks
    }

    /// The campaign cells.
    pub fn cells(&self) -> &[CellSpec] {
        &self.cells
    }

    /// A structural fingerprint of the campaign (FNV-1a over the name,
    /// seed, benchmark names and every cell's parameters).  Checkpoints
    /// store it and refuse to resume a campaign whose spec changed.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::default();
        h.bytes(self.name.as_bytes());
        h.u64(self.seed);
        h.u64(self.benchmarks.len() as u64);
        for b in &self.benchmarks {
            h.bytes(b.name().as_bytes());
            h.u64(b.dmem_words() as u64);
            h.u64(b.program().len() as u64);
        }
        h.u64(self.cells.len() as u64);
        for cell in &self.cells {
            h.u64(cell.benchmark as u64);
            match cell.model {
                FaultModel::None => h.u64(0),
                FaultModel::FixedProbability(p) => {
                    h.u64(1);
                    h.u64(p.to_bits());
                }
                FaultModel::StaPeriodViolation => h.u64(2),
                FaultModel::StaWithNoise => h.u64(3),
                FaultModel::StatisticalDta => h.u64(4),
            }
            h.u64(cell.point.freq_mhz().to_bits());
            h.u64(cell.point.vdd().to_bits());
            h.u64(cell.point.noise().sigma_mv().to_bits());
            h.u64(cell.budget.min_trials as u64);
            h.u64(cell.budget.max_trials as u64);
            h.u64(cell.budget.batch as u64);
            match cell.budget.stop {
                None => h.u64(0),
                Some(rule) => {
                    h.u64(match rule.metric {
                        StopMetric::CorrectFraction => 1,
                        StopMetric::FinishedFraction => 2,
                    });
                    h.u64(rule.half_width.to_bits());
                    h.u64(rule.z.to_bits());
                }
            }
        }
        h.finish()
    }

    /// A digest of the inputs the cells compute on, beyond the structure
    /// [`CampaignSpec::fingerprint`] covers (FNV-1a over each benchmark's
    /// program words, fault-injection window, data-memory size and the
    /// data-memory image `initialize` leaves in a fresh memory).
    /// Checkpoint logs store it, so a log never resumes the cells of
    /// another program or input set with the same structure.
    pub fn inputs_digest(&self) -> u64 {
        let mut h = Fnv::default();
        h.u64(self.benchmarks.len() as u64);
        for b in &self.benchmarks {
            let words = b.program().to_words();
            let window = b.fi_window();
            let mut memory = Memory::new(b.dmem_words());
            b.initialize(&mut memory);
            for part in [&words[..], &[window.start, window.end][..], memory.words()] {
                h.u64(part.len() as u64);
                for word in part {
                    h.bytes(&word.to_le_bytes());
                }
            }
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfi_kernels::median::MedianBenchmark;

    fn spec_with_cells() -> CampaignSpec {
        let mut spec = CampaignSpec::new("unit", 7);
        let b = spec.add_benchmark(MedianBenchmark::new(21, 3));
        spec.add_grid(
            &[b],
            &[FaultModel::None, FaultModel::StatisticalDta],
            &[
                OperatingPoint::new(700.0, 0.7),
                OperatingPoint::new(750.0, 0.7),
            ],
            TrialBudget::fixed(4),
        );
        spec
    }

    #[test]
    fn grid_builds_the_cross_product() {
        let spec = spec_with_cells();
        assert_eq!(spec.cells().len(), 4);
        assert_eq!(spec.benchmarks().len(), 1);
        assert_eq!(spec.cells()[0].model, FaultModel::None);
        assert_eq!(spec.cells()[1].point.freq_mhz(), 750.0);
        assert_eq!(spec.cells()[2].model, FaultModel::StatisticalDta);
    }

    #[test]
    fn frequency_sweep_cells_take_the_base_noise() {
        let mut spec = CampaignSpec::new("sweep", 1);
        let b = spec.add_benchmark(MedianBenchmark::new(21, 3));
        let base = OperatingPoint::new(700.0, 0.7).with_noise_sigma_mv(10.0);
        let range = spec.add_frequency_sweep(
            b,
            FaultModel::StatisticalDta,
            base,
            &[650.0, 700.0, 750.0],
            TrialBudget::fixed(2),
        );
        assert_eq!(range, 0..3);
        assert_eq!(spec.cells()[2].point.freq_mhz(), 750.0);
        assert_eq!(spec.cells()[2].point.noise().sigma_mv(), 10.0);
    }

    /// The fingerprint heads every checkpoint log and every result
    /// document, so it must not move: a changed value orphans every
    /// resumable checkpoint.
    #[test]
    fn fingerprint_is_pinned() {
        let mut spec = spec_with_cells();
        spec.add_cell(CellSpec {
            benchmark: 0,
            model: FaultModel::FixedProbability(1e-4),
            point: OperatingPoint::new(800.0, 0.7).with_noise_sigma_mv(10.0),
            budget: TrialBudget::adaptive(2, 8, 2, StopRule::correct_within(0.1)),
        });
        assert_eq!(spec.fingerprint(), 0x40a9_bea2_dbf9_a7d3);
    }

    #[test]
    fn fingerprint_tracks_structural_changes() {
        let a = spec_with_cells();
        let b = spec_with_cells();
        assert_eq!(a.fingerprint(), b.fingerprint());

        let mut c = spec_with_cells();
        c.seed = 8;
        assert_ne!(a.fingerprint(), c.fingerprint());

        let mut d = spec_with_cells();
        let bench = d.add_benchmark(MedianBenchmark::new(21, 3));
        assert_ne!(a.fingerprint(), d.fingerprint());
        d.add_cell(CellSpec {
            benchmark: bench,
            model: FaultModel::StaPeriodViolation,
            point: OperatingPoint::new(800.0, 0.7),
            budget: TrialBudget::adaptive(2, 8, 2, StopRule::correct_within(0.1)),
        });
        assert_ne!(a.fingerprint(), d.fingerprint());
    }

    #[test]
    #[should_panic(expected = "references benchmark")]
    fn cell_with_unknown_benchmark_panics() {
        let mut spec = CampaignSpec::new("bad", 0);
        spec.add_cell(CellSpec {
            benchmark: 0,
            model: FaultModel::None,
            point: OperatingPoint::new(700.0, 0.7),
            budget: TrialBudget::fixed(1),
        });
    }

    #[test]
    #[should_panic(expected = "max_trials must be at least min_trials")]
    fn inverted_budget_panics() {
        TrialBudget::adaptive(8, 4, 2, StopRule::correct_within(0.1));
    }

    #[test]
    fn stop_rule_tightens_with_samples() {
        let rule = StopRule::correct_within(0.2);
        let mut stats = CellStats::new();
        assert!(!rule.is_satisfied(&stats), "unsampled cells must not stop");
        for _ in 0..200 {
            stats.push(&sfi_core::TrialResult {
                finished: true,
                correct: true,
                output_error: 0.0,
                fi_rate_per_kcycle: 0.0,
                cycles: 10,
            });
        }
        assert!(rule.is_satisfied(&stats));
    }
}
