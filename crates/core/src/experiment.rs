//! Monte-Carlo experiments, frequency sweeps and point-of-first-failure
//! detection.

use crate::study::CaseStudy;
use sfi_cpu::{Core, FaultInjector, NoFaultInjector, RunConfig, RunOutcome};
use sfi_fault::{FixedProbabilityModel, OperatingPoint, StaWithNoiseModel, StatisticalDtaModel};
use sfi_kernels::Benchmark;
use sfi_timing::VddDelayCurve;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

/// Which fault-injection model an experiment uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultModel {
    /// No fault injection (golden runs).
    None,
    /// Model A: fixed per-bit flip probability.
    FixedProbability(f64),
    /// Model B: deterministic STA period violation.
    StaPeriodViolation,
    /// Model B+: STA period violation modulated by supply noise.
    StaWithNoise,
    /// Model C: statistical, instruction-aware DTA CDFs.
    StatisticalDta,
}

/// Result of a single Monte-Carlo trial.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialResult {
    /// Whether the program ran to completion.
    pub finished: bool,
    /// Whether the output was exactly correct (implies `finished`).
    pub correct: bool,
    /// Kernel-specific output error (only meaningful if `finished`).
    pub output_error: f64,
    /// Injected faults per 1000 kernel cycles.
    pub fi_rate_per_kcycle: f64,
    /// Simulated cycles.
    pub cycles: u64,
}

/// Aggregated result of a Monte-Carlo campaign at one operating point.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSummary {
    /// The individual trials.
    pub trials: Vec<TrialResult>,
}

impl ExperimentSummary {
    /// Fraction of trials that ran to completion.
    pub fn finished_fraction(&self) -> f64 {
        self.fraction(|t| t.finished)
    }

    /// Fraction of trials with an exactly correct output.
    pub fn correct_fraction(&self) -> f64 {
        self.fraction(|t| t.correct)
    }

    /// Mean fault-injection rate (faults per kCycle) over all trials.
    pub fn mean_fi_rate(&self) -> f64 {
        self.mean(|t| t.fi_rate_per_kcycle)
    }

    /// Mean output error over the trials that finished (the paper reports
    /// the output error of the remaining successful runs).
    ///
    /// Returns `NaN` when no trial finished; use
    /// [`ExperimentSummary::checked_mean_output_error`] for an explicit
    /// `Option`.
    pub fn mean_output_error(&self) -> f64 {
        self.checked_mean_output_error().unwrap_or(f64::NAN)
    }

    /// Mean output error over the finished trials with a readable output,
    /// or `None` when there were none (including the zero-trial summary).
    ///
    /// A finished trial can still carry `output_error = NaN` when the
    /// benchmark's output region was unreadable
    /// (`Benchmark::try_output_error` returned `None`); such trials are
    /// machine-state corruption, not a measurable quality, and are
    /// excluded like crashed runs.
    pub fn checked_mean_output_error(&self) -> Option<f64> {
        // A streaming fold in trial order: the same left-to-right summation
        // the collect-then-average implementation performed, minus the
        // intermediate allocation.
        let (sum, count) = self
            .trials
            .iter()
            .filter(|t| t.finished && !t.output_error.is_nan())
            .fold((0.0f64, 0usize), |(sum, count), t| {
                (sum + t.output_error, count + 1)
            });
        (count > 0).then(|| sum / count as f64)
    }

    /// Mean cycle count over all trials.
    pub fn mean_cycles(&self) -> f64 {
        self.mean(|t| t.cycles as f64)
    }

    fn fraction(&self, predicate: impl Fn(&TrialResult) -> bool) -> f64 {
        if self.trials.is_empty() {
            return 0.0;
        }
        self.trials.iter().filter(|t| predicate(t)).count() as f64 / self.trials.len() as f64
    }

    fn mean(&self, value: impl Fn(&TrialResult) -> f64) -> f64 {
        if self.trials.is_empty() {
            return 0.0;
        }
        self.trials.iter().map(value).sum::<f64>() / self.trials.len() as f64
    }
}

/// One point of a frequency sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Clock frequency of this point, in MHz.
    pub freq_mhz: f64,
    /// The Monte-Carlo summary at this frequency.
    pub summary: ExperimentSummary,
}

/// SplitMix64 finalization step (Vigna's `mix` function).
fn splitmix_finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const SPLITMIX_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Derives the injector seed of one Monte-Carlo trial from the campaign
/// seed, the campaign-cell index and the trial index.
///
/// Every `(campaign_seed, cell_index, trial_index)` triple maps to its own
/// SplitMix64 output, so trial 0 is decorrelated from the campaign seed and
/// cells that share a campaign seed (e.g. the points of a frequency sweep)
/// draw independent fault streams.  The old `seed ^ trial * C` scheme had
/// both defects: trial 0 reused the campaign seed verbatim, and every sweep
/// point replayed the identical trial-seed sequence.
pub fn derive_trial_seed(campaign_seed: u64, cell_index: u64, trial_index: u64) -> u64 {
    let cell_stream = splitmix_finalize(
        campaign_seed.wrapping_add(SPLITMIX_GAMMA.wrapping_mul(cell_index.wrapping_add(1))),
    );
    splitmix_finalize(
        cell_stream.wrapping_add(SPLITMIX_GAMMA.wrapping_mul(trial_index.wrapping_add(1))),
    )
}

/// The least watchdog limit of any benchmark, in cycles: what
/// [`watchdog_cycles`] returns for a short golden run.
///
/// A trial that ends below it never needs its benchmark's golden run (see
/// [`WatchdogSlot`]).
pub const WATCHDOG_FLOOR_CYCLES: u64 = 100_000;

/// The watchdog cycle limit used for a benchmark whose fault-free runtime
/// is `golden_cycles`: a generous multiple, so that wrong branching either
/// terminates (wrong output) or is flagged as fatal, and never below
/// [`WATCHDOG_FLOOR_CYCLES`].
///
/// A trial whose limit is still unknown runs to the floor first and
/// resolves the limit only if it gets there ([`WatchdogSlot`]); it then
/// continues on the same core and injector, which may call the
/// injector's [`FaultInjector::begin_run`] a second time.
pub fn watchdog_cycles(golden_cycles: u64) -> u64 {
    golden_cycles.saturating_mul(8).max(WATCHDOG_FLOOR_CYCLES)
}

/// A benchmark's watchdog limit, resolved on first need.
///
/// A [`WatchdogSlot::on_first_trial`] slot runs the benchmark's golden run
/// in the first trial that claims it, before that trial starts; trials
/// that run meanwhile go on as under a lazy slot and wait for the golden
/// run only if they reach the floor first.
///
/// A [`WatchdogSlot::lazy`] slot runs the benchmark's golden run only when
/// a trial reaches [`WATCHDOG_FLOOR_CYCLES`], at most once however many
/// threads share the slot.  Trials that end below the floor never need the
/// limit, since every limit is at least the floor.  A trial that reaches
/// it continues to the resolved limit, and the result is the one a single
/// run to that limit gives: the ISS checks its cycle budget only against
/// machine state, before each fetch, its statistics accumulate across
/// runs, and a run to `m` followed by a run to `w >= m` stops at the same
/// instruction boundary as one run to `w`.
#[derive(Debug, Default)]
pub struct WatchdogSlot {
    cycles: OnceLock<u64>,
    /// Set on an [`WatchdogSlot::on_first_trial`] slot no trial has
    /// claimed yet.
    unclaimed: AtomicBool,
}

impl WatchdogSlot {
    /// A slot whose limit is resolved by the first trial that runs: one
    /// golden run, whether or not any trial reaches the floor.
    pub fn on_first_trial() -> Self {
        WatchdogSlot {
            cycles: OnceLock::new(),
            unclaimed: AtomicBool::new(true),
        }
    }

    /// A slot whose limit is resolved by the first trial that reaches the
    /// floor.
    pub fn lazy() -> Self {
        WatchdogSlot::default()
    }

    /// A slot holding `max_cycles`, which may be below the floor.
    pub fn fixed(max_cycles: u64) -> Self {
        WatchdogSlot {
            cycles: OnceLock::from(max_cycles),
            unclaimed: AtomicBool::new(false),
        }
    }

    /// The limit, if resolved.
    pub fn get(&self) -> Option<u64> {
        self.cycles.get().copied()
    }

    /// The limit, running `benchmark`'s golden run to resolve it if no
    /// caller has yet.  `benchmark` must be the one the slot belongs to.
    pub fn resolve(&self, benchmark: &dyn Benchmark) -> u64 {
        *self
            .cycles
            .get_or_init(|| watchdog_cycles(golden_cycles(benchmark)))
    }

    /// Called before every trial: the first trial on an unclaimed
    /// [`WatchdogSlot::on_first_trial`] slot resolves it.  The flag only
    /// elects that trial; the limit is published by the `OnceLock`, so
    /// relaxed ordering suffices.
    fn claim(&self, benchmark: &dyn Benchmark) {
        if self.unclaimed.load(Ordering::Relaxed) && self.unclaimed.swap(false, Ordering::Relaxed) {
            self.resolve(benchmark);
        }
    }
}

/// Runs one trial on an already prepared core (architectural state and
/// data memory reset, inputs *not* yet loaded), up to the limit of
/// `watchdog`.
fn run_prepared_trial<F: FaultInjector + ?Sized>(
    core: &mut Core,
    benchmark: &dyn Benchmark,
    injector: &mut F,
    watchdog: &WatchdogSlot,
) -> TrialResult {
    watchdog.claim(benchmark);
    benchmark.initialize(core.memory_mut());
    let known = watchdog.get();
    let mut config = RunConfig {
        max_cycles: known.unwrap_or(WATCHDOG_FLOOR_CYCLES),
        fi_window: Some(benchmark.fi_window()),
    };
    let mut outcome = core.run_with_injector(&config, injector);
    if known.is_none() && matches!(outcome, RunOutcome::Watchdog { .. }) {
        config.max_cycles = watchdog.resolve(benchmark);
        outcome = core.run_with_injector(&config, injector);
    }
    // Sharded per-thread counters: one relaxed add each, no measurable
    // cost next to the trial just simulated.
    let obs = sfi_obs::metrics();
    obs.trials.inc();
    obs.iss_cycles.add(core.stats().cycles);
    if matches!(outcome, RunOutcome::Watchdog { .. }) {
        obs.iss_watchdog_trips.inc();
    }
    let finished = outcome.finished();
    let output_error = if finished {
        benchmark.output_error(core.memory())
    } else {
        f64::NAN
    };
    TrialResult {
        finished,
        correct: finished && output_error == 0.0,
        output_error,
        fi_rate_per_kcycle: core.stats().fi_rate_per_kcycle(),
        cycles: core.stats().cycles,
    }
}

/// Number of fault-free cycles of a benchmark (used to size the watchdog
/// and reported in Table 1).
pub fn golden_cycles(benchmark: &dyn Benchmark) -> u64 {
    let mut core = Core::new(benchmark.program().clone(), benchmark.dmem_words());
    let limit = WatchdogSlot::fixed(u64::MAX / 4);
    run_prepared_trial(&mut core, benchmark, &mut NoFaultInjector, &limit).cycles
}

/// A constructed injector of any fault model, cached between trials
/// (model B is model B+ without noise, see [`CaseStudy::model_b`]).
/// Model B+ carries its sorted factor breakpoints inline, so it is boxed
/// to keep the other variants small.
#[derive(Debug, Clone)]
enum CachedInjector {
    None(NoFaultInjector),
    FixedProbability(FixedProbabilityModel),
    StaWithNoise(Box<StaWithNoiseModel>),
    StatisticalDta(StatisticalDtaModel),
}

impl CachedInjector {
    fn build(study: &CaseStudy, model: FaultModel, point: OperatingPoint, seed: u64) -> Self {
        match model {
            FaultModel::None => CachedInjector::None(NoFaultInjector),
            FaultModel::FixedProbability(p) => {
                CachedInjector::FixedProbability(study.model_a(p, seed))
            }
            FaultModel::StaPeriodViolation => {
                CachedInjector::StaWithNoise(Box::new(study.model_b(point)))
            }
            FaultModel::StaWithNoise => {
                CachedInjector::StaWithNoise(Box::new(study.model_b_plus(point, seed)))
            }
            FaultModel::StatisticalDta => {
                CachedInjector::StatisticalDta(study.model_c(point, seed))
            }
        }
    }

    /// Rewinds the injector to the state `build` would have produced with
    /// `seed`: models A, B+ and C reseed their RNG (model B's RNG is never
    /// drawn from), [`NoFaultInjector`] has nothing to rewind.
    fn reseed(&mut self, seed: u64) {
        match self {
            CachedInjector::None(_) => {}
            CachedInjector::FixedProbability(m) => m.reseed(seed),
            CachedInjector::StaWithNoise(m) => m.reseed(seed),
            CachedInjector::StatisticalDta(m) => m.reseed(seed),
        }
    }

    fn as_injector_mut(&mut self) -> &mut dyn FaultInjector {
        match self {
            CachedInjector::None(m) => m,
            CachedInjector::FixedProbability(m) => m,
            CachedInjector::StaWithNoise(m) => m.as_mut(),
            CachedInjector::StatisticalDta(m) => m,
        }
    }
}

/// Reusable per-worker scratch state of the Monte-Carlo hot loop.
///
/// A fresh context per trial reproduces the allocation profile of the old
/// stand-alone path (one core, one injector); the point of the type is to
/// live *across* trials: the simulated core (program `Arc` + data memory)
/// is recycled per benchmark via [`Core::reset_full`], and the injector is
/// recycled via `reseed` whenever consecutive trials share a fault model
/// and operating point — the common case inside a campaign cell.  Results
/// are bit-identical to fresh construction: a reset core equals a new
/// core, and a reseeded injector equals a newly built one because all
/// expensive injector state is trial-invariant and `Arc`-shared.
///
/// Trials whose injector [never faults](FaultInjector::never_faults) run
/// the core with [`NoFaultInjector`], skipping the per-cycle noise draws:
/// a zero mask on every cycle makes the run identical to the fault-free
/// run, and the RNG state the skipped draws would have advanced is
/// discarded when the trial ends, so this is bit-identical too.  Every
/// such trial is still simulated, so a trial costs the same whatever
/// trials came before it.
///
/// The context is deliberately *not* `Sync`: every campaign worker thread
/// owns one.
#[derive(Debug, Default)]
pub struct TrialContext {
    /// One recycled core per benchmark, keyed by the caller's benchmark
    /// key (the campaign engine uses the spec's benchmark index).
    cores: Vec<(usize, Core)>,
    /// The last trial's injector, reusable while the study (identified by
    /// its share token — see [`CaseStudy::share_token`]), fault model and
    /// operating point repeat.  Holding the token `Arc` also guarantees
    /// its allocation cannot be recycled into a different study while
    /// this cache entry lives.
    injector: Option<CachedTrialInjector>,
}

#[derive(Debug)]
struct CachedTrialInjector {
    study: Arc<VddDelayCurve>,
    model: FaultModel,
    point: OperatingPoint,
    injector: CachedInjector,
}

impl TrialContext {
    /// An empty context (no cores, no cached injector).
    pub fn new() -> Self {
        TrialContext::default()
    }

    /// Runs one Monte-Carlo trial, recycling this context's core and
    /// injector where possible.
    ///
    /// `benchmark_key` must uniquely identify `benchmark` among all
    /// benchmarks this context is used with (e.g. its index in the
    /// campaign spec); the cached core of a key is only valid for the
    /// benchmark it was built from.  The injector cache keys itself on
    /// the study's identity (in addition to model and operating point),
    /// so alternating between different studies is safe — it merely
    /// forgoes the reuse.
    ///
    /// The result is bit-identical to
    /// [`run_single_trial`] with the same arguments.
    ///
    /// # Panics
    ///
    /// Panics if the requested model needs a characterization voltage the
    /// study does not provide.
    #[allow(clippy::too_many_arguments)]
    pub fn run_trial(
        &mut self,
        study: &CaseStudy,
        benchmark: &dyn Benchmark,
        benchmark_key: usize,
        model: FaultModel,
        point: OperatingPoint,
        max_cycles: u64,
        trial_seed: u64,
    ) -> TrialResult {
        self.run_trial_with_watchdog(
            study,
            benchmark,
            benchmark_key,
            model,
            point,
            &WatchdogSlot::fixed(max_cycles),
            trial_seed,
        )
    }

    /// [`TrialContext::run_trial`] up to the limit of `watchdog`, which
    /// must belong to `benchmark`: a lazy slot is resolved only if this
    /// trial reaches [`WATCHDOG_FLOOR_CYCLES`].  The result is bit-identical
    /// to `run_trial` with the resolved limit.
    ///
    /// # Panics
    ///
    /// Panics if the requested model needs a characterization voltage the
    /// study does not provide.
    #[allow(clippy::too_many_arguments)]
    pub fn run_trial_with_watchdog(
        &mut self,
        study: &CaseStudy,
        benchmark: &dyn Benchmark,
        benchmark_key: usize,
        model: FaultModel,
        point: OperatingPoint,
        watchdog: &WatchdogSlot,
        trial_seed: u64,
    ) -> TrialResult {
        let mut slot = match self.injector.take() {
            Some(mut slot)
                if Arc::ptr_eq(&slot.study, study.share_token())
                    && slot.model == model
                    && slot.point == point =>
            {
                slot.injector.reseed(trial_seed);
                slot
            }
            _ => CachedTrialInjector {
                study: Arc::clone(study.share_token()),
                model,
                point,
                injector: CachedInjector::build(study, model, point, trial_seed),
            },
        };
        let core = match self.cores.iter().position(|(key, _)| *key == benchmark_key) {
            Some(index) => {
                let core = &mut self.cores[index].1;
                core.reset_full();
                core
            }
            None => {
                let core = Core::new(benchmark.program().clone(), benchmark.dmem_words());
                self.cores.push((benchmark_key, core));
                &mut self.cores.last_mut().expect("just pushed").1
            }
        };
        let injector = slot.injector.as_injector_mut();
        let result = if injector.never_faults() {
            run_prepared_trial(core, benchmark, &mut NoFaultInjector, watchdog)
        } else {
            run_prepared_trial(core, benchmark, injector, watchdog)
        };
        let faults = core.stats().injected_faults;
        if faults > 0 {
            sfi_obs::metrics()
                .iss_faults_for(model_metric_index(model))
                .add(faults);
        }
        self.injector = Some(slot);
        result
    }
}

/// The [`sfi_obs::FAULT_MODEL_LABELS`] index of a fault model.
fn model_metric_index(model: FaultModel) -> usize {
    match model {
        FaultModel::None => 0,
        FaultModel::FixedProbability(_) => 1,
        FaultModel::StaPeriodViolation => 2,
        FaultModel::StaWithNoise => 3,
        FaultModel::StatisticalDta => 4,
    }
}

/// Runs exactly one Monte-Carlo trial of `benchmark` under `model` at
/// `point`, with the per-trial injector seed `trial_seed` and the watchdog
/// limit `max_cycles`.
///
/// This is the stand-alone form of the hot-loop primitive: it allocates
/// the ISS state for this one trial, while the expensive characterization
/// data inside `study` is `Arc`-shared, never cloned.  Callers running
/// many trials (the campaign engine, [`run_experiment`]) hold a
/// [`TrialContext`] and call [`TrialContext::run_trial`] instead, which
/// additionally recycles the core and injector across trials;  both paths
/// produce bit-identical results.
///
/// # Panics
///
/// Panics if the requested model needs a characterization voltage the
/// study does not provide.
pub fn run_single_trial(
    study: &CaseStudy,
    benchmark: &dyn Benchmark,
    model: FaultModel,
    point: OperatingPoint,
    max_cycles: u64,
    trial_seed: u64,
) -> TrialResult {
    TrialContext::new().run_trial(study, benchmark, 0, model, point, max_cycles, trial_seed)
}

#[allow(clippy::too_many_arguments)]
fn run_cell_with_golden(
    context: &mut TrialContext,
    study: &CaseStudy,
    benchmark: &dyn Benchmark,
    model: FaultModel,
    point: OperatingPoint,
    trials: usize,
    seed: u64,
    cell_index: u64,
    golden: u64,
) -> ExperimentSummary {
    assert!(trials > 0, "at least one trial is required");
    let max_cycles = watchdog_cycles(golden);
    let results = (0..trials)
        .map(|trial| {
            let trial_seed = derive_trial_seed(seed, cell_index, trial as u64);
            context.run_trial(study, benchmark, 0, model, point, max_cycles, trial_seed)
        })
        .collect();
    ExperimentSummary { trials: results }
}

/// Runs a Monte-Carlo campaign of `trials` independent runs of `benchmark`
/// under the given fault model and operating point.
///
/// Each trial uses a different injector seed derived from `seed` via
/// [`derive_trial_seed`], matching the paper's
/// at-least-100-simulations-per-data-point methodology.  The result is
/// identical to campaign cell 0 of an `sfi-campaign` run with the same
/// seed, trial count and operating point.
///
/// # Panics
///
/// Panics if `trials` is zero, or if the requested model needs a
/// characterization voltage the study does not provide.
pub fn run_experiment(
    study: &CaseStudy,
    benchmark: &dyn Benchmark,
    model: FaultModel,
    point: OperatingPoint,
    trials: usize,
    seed: u64,
) -> ExperimentSummary {
    run_cell_with_golden(
        &mut TrialContext::new(),
        study,
        benchmark,
        model,
        point,
        trials,
        seed,
        0,
        golden_cycles(benchmark),
    )
}

/// Sweeps the clock frequency over `freqs_mhz` (keeping voltage and noise
/// from `base_point`) and returns one [`SweepPoint`] per frequency.
///
/// The benchmark's fault-free golden run is simulated once for the whole
/// sweep (it only sizes the watchdog and does not depend on the swept
/// frequency), and every sweep point draws its trial seeds from its own
/// [`derive_trial_seed`] cell stream, so points do not replay each other's
/// fault sequences.
pub fn frequency_sweep(
    study: &CaseStudy,
    benchmark: &dyn Benchmark,
    model: FaultModel,
    base_point: OperatingPoint,
    freqs_mhz: &[f64],
    trials: usize,
    seed: u64,
) -> Vec<SweepPoint> {
    let golden = golden_cycles(benchmark);
    let sweep_span = sfi_obs::Span::begin("frequency_sweep", "core")
        .arg("points", freqs_mhz.len() as u64)
        .arg("trials_per_point", trials as u64);
    // One scratch context for the whole sweep: the core is recycled across
    // all points, the injector across the trials of each point.
    let mut context = TrialContext::new();
    let points = freqs_mhz
        .iter()
        .enumerate()
        .map(|(cell_index, &f)| {
            // One span per swept cell; trials inside it are untraced so
            // the per-trial hot path stays uninstrumented here.
            let _cell_span = sweep_span
                .child("sweep_cell", "core")
                .arg("cell", cell_index as u64);
            SweepPoint {
                freq_mhz: f,
                summary: run_cell_with_golden(
                    &mut context,
                    study,
                    benchmark,
                    model,
                    base_point.at_frequency(f),
                    trials,
                    seed,
                    cell_index as u64,
                    golden,
                ),
            }
        })
        .collect();
    sweep_span.finish();
    sfi_obs::span::flush_thread();
    points
}

/// The point of first failure: the lowest swept frequency at which the
/// application no longer finishes with a 100 % correct result.
pub fn point_of_first_failure(points: &[SweepPoint]) -> Option<f64> {
    points
        .iter()
        .filter(|p| p.summary.correct_fraction() < 1.0)
        .map(|p| p.freq_mhz)
        .fold(None, |acc: Option<f64>, f| {
            Some(acc.map_or(f, |a| a.min(f)))
        })
}

/// Relative frequency-over-scaling gain of a PoFF over the STA limit
/// (positive values mean the application survives beyond the limit).
pub fn overscaling_gain(poff_mhz: f64, sta_limit_mhz: f64) -> f64 {
    poff_mhz / sta_limit_mhz - 1.0
}

/// Evenly spaced frequency grid helper for sweeps.
///
/// # Panics
///
/// Panics if `points < 2` or `start >= end`.
pub fn frequency_grid(start_mhz: f64, end_mhz: f64, points: usize) -> Vec<f64> {
    assert!(points >= 2, "a grid needs at least two points");
    assert!(start_mhz < end_mhz, "start must be below end");
    let step = (end_mhz - start_mhz) / (points - 1) as f64;
    (0..points).map(|i| start_mhz + step * i as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::CaseStudyConfig;
    use sfi_kernels::median::MedianBenchmark;

    fn fast_study() -> CaseStudy {
        CaseStudy::build(CaseStudyConfig::fast_for_tests())
    }

    #[test]
    fn golden_runs_are_always_correct() {
        let study = fast_study();
        let bench = MedianBenchmark::new(21, 3);
        let point = OperatingPoint::new(2000.0, 0.7);
        let summary = run_experiment(&study, &bench, FaultModel::None, point, 3, 5);
        assert_eq!(summary.finished_fraction(), 1.0);
        assert_eq!(summary.correct_fraction(), 1.0);
        assert_eq!(summary.mean_fi_rate(), 0.0);
        assert_eq!(summary.mean_output_error(), 0.0);
        assert!(summary.mean_cycles() > 0.0);
    }

    #[test]
    fn below_sta_limit_model_c_is_error_free() {
        let study = fast_study();
        let bench = MedianBenchmark::new(21, 3);
        let point = OperatingPoint::new(study.sta_limit_mhz(0.7) * 0.95, 0.7);
        let summary = run_experiment(&study, &bench, FaultModel::StatisticalDta, point, 3, 5);
        assert_eq!(summary.correct_fraction(), 1.0);
        assert_eq!(summary.mean_fi_rate(), 0.0);
    }

    #[test]
    fn far_above_the_limit_everything_breaks() {
        let study = fast_study();
        let bench = MedianBenchmark::new(21, 3);
        let point = OperatingPoint::new(study.sta_limit_mhz(0.7) * 2.5, 0.7);
        let summary = run_experiment(&study, &bench, FaultModel::StatisticalDta, point, 3, 5);
        assert!(summary.correct_fraction() < 1.0);
        assert!(summary.mean_fi_rate() > 0.0);
    }

    #[test]
    fn model_a_injects_at_any_frequency() {
        let study = fast_study();
        let bench = MedianBenchmark::new(21, 3);
        // Even far below the STA limit model A injects faults — the
        // disconnect from operating conditions the paper criticises.
        let point = OperatingPoint::new(100.0, 0.7);
        let summary = run_experiment(
            &study,
            &bench,
            FaultModel::FixedProbability(0.002),
            point,
            3,
            5,
        );
        assert!(summary.mean_fi_rate() > 0.0);
    }

    #[test]
    fn model_b_hard_threshold_at_sta_limit() {
        let study = fast_study();
        let bench = MedianBenchmark::new(21, 3);
        let sta = study.sta_limit_mhz(0.7);
        let below = run_experiment(
            &study,
            &bench,
            FaultModel::StaPeriodViolation,
            OperatingPoint::new(sta * 0.99, 0.7),
            2,
            5,
        );
        let above = run_experiment(
            &study,
            &bench,
            FaultModel::StaPeriodViolation,
            OperatingPoint::new(sta * 1.02, 0.7),
            2,
            5,
        );
        assert_eq!(below.correct_fraction(), 1.0);
        assert!(
            above.correct_fraction() < 1.0,
            "model B fails immediately above the STA limit"
        );
        assert!(
            above.mean_fi_rate() > 100.0,
            "model B injects on almost every ALU cycle"
        );
    }

    #[test]
    fn sweep_and_poff_detection() {
        let study = fast_study();
        let bench = MedianBenchmark::new(21, 3);
        let sta = study.sta_limit_mhz(0.7);
        let freqs = frequency_grid(sta * 0.9, sta * 2.2, 5);
        let points = frequency_sweep(
            &study,
            &bench,
            FaultModel::StatisticalDta,
            OperatingPoint::new(sta, 0.7),
            &freqs,
            2,
            9,
        );
        assert_eq!(points.len(), 5);
        let poff = point_of_first_failure(&points).expect("the sweep must reach failure");
        assert!(poff > sta * 0.9 && poff <= sta * 2.2);
        assert!(overscaling_gain(poff, sta) > -0.2);
        // The first (lowest) point is still fully correct.
        assert_eq!(points[0].summary.correct_fraction(), 1.0);
    }

    #[test]
    fn golden_cycles_reported() {
        let bench = MedianBenchmark::new(21, 3);
        assert!(golden_cycles(&bench) > 1000);
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_trials_panics() {
        let study = fast_study();
        let bench = MedianBenchmark::new(21, 3);
        run_experiment(
            &study,
            &bench,
            FaultModel::None,
            OperatingPoint::new(700.0, 0.7),
            0,
            0,
        );
    }

    #[test]
    #[should_panic(expected = "at least two points")]
    fn invalid_grid_panics() {
        frequency_grid(100.0, 200.0, 1);
    }

    #[test]
    fn trial_seeds_are_decorrelated() {
        // Trial 0 must not reuse the campaign seed verbatim.
        assert_ne!(derive_trial_seed(5, 0, 0), 5);
        // Cells sharing a campaign seed draw distinct streams.
        assert_ne!(derive_trial_seed(5, 0, 0), derive_trial_seed(5, 1, 0));
        // Trials within a cell are distinct.
        assert_ne!(derive_trial_seed(5, 0, 0), derive_trial_seed(5, 0, 1));
        // The derivation is a pure function.
        assert_eq!(derive_trial_seed(5, 3, 7), derive_trial_seed(5, 3, 7));
        // No trivial collisions across a small grid.
        let mut seen = std::collections::HashSet::new();
        for cell in 0..16u64 {
            for trial in 0..64u64 {
                assert!(seen.insert(derive_trial_seed(99, cell, trial)));
            }
        }
    }

    #[test]
    fn checked_mean_output_error_handles_empty_and_unfinished() {
        let empty = ExperimentSummary { trials: vec![] };
        assert_eq!(empty.checked_mean_output_error(), None);
        assert!(empty.mean_output_error().is_nan());
        let crashed = ExperimentSummary {
            trials: vec![TrialResult {
                finished: false,
                correct: false,
                output_error: f64::NAN,
                fi_rate_per_kcycle: 3.0,
                cycles: 17,
            }],
        };
        assert_eq!(crashed.checked_mean_output_error(), None);
        assert!(crashed.mean_output_error().is_nan());
        // A *finished* trial with an unreadable output (NaN) is excluded
        // from the mean rather than poisoning it.
        let unreadable = |err: f64| TrialResult {
            finished: true,
            correct: false,
            output_error: err,
            fi_rate_per_kcycle: 1.0,
            cycles: 10,
        };
        let mixed = ExperimentSummary {
            trials: vec![unreadable(f64::NAN), unreadable(0.5)],
        };
        assert_eq!(mixed.checked_mean_output_error(), Some(0.5));
        let all_unreadable = ExperimentSummary {
            trials: vec![unreadable(f64::NAN)],
        };
        assert_eq!(all_unreadable.checked_mean_output_error(), None);
    }

    /// The trial simulated on a fresh core with the real injector — never
    /// the fault-free path — as the reference the cached paths must equal.
    fn full_path_trial(
        study: &CaseStudy,
        bench: &dyn Benchmark,
        model: FaultModel,
        point: OperatingPoint,
        max_cycles: u64,
        seed: u64,
    ) -> TrialResult {
        let mut injector = CachedInjector::build(study, model, point, seed);
        let mut core = Core::new(bench.program().clone(), bench.dmem_words());
        let limit = WatchdogSlot::fixed(max_cycles);
        run_prepared_trial(&mut core, bench, injector.as_injector_mut(), &limit)
    }

    fn assert_bit_identical(a: TrialResult, b: TrialResult, what: &str) {
        assert_eq!(a.finished, b.finished, "{what}");
        assert_eq!(a.correct, b.correct, "{what}");
        assert_eq!(a.cycles, b.cycles, "{what}");
        assert_eq!(a.output_error.to_bits(), b.output_error.to_bits(), "{what}");
        assert_eq!(
            a.fi_rate_per_kcycle.to_bits(),
            b.fi_rate_per_kcycle.to_bits(),
            "{what}"
        );
    }

    #[test]
    fn trial_context_reuse_is_bit_identical_to_fresh_construction() {
        let study = fast_study();
        let bench = MedianBenchmark::new(21, 3);
        let sta = study.sta_limit_mhz(0.7);
        let noisy = |scale: f64| OperatingPoint::new(sta * scale, 0.7).with_noise_sigma_mv(10.0);
        // A transition cell on the full path, then below-limit cells of
        // models B, B+ and C whose injectors never fault (fault-free path).
        let cells = [
            (FaultModel::StatisticalDta, noisy(1.2), false),
            (
                FaultModel::StaPeriodViolation,
                OperatingPoint::new(sta * 0.95, 0.7),
                true,
            ),
            (FaultModel::StaWithNoise, noisy(0.9), true),
            (FaultModel::StatisticalDta, noisy(0.9), true),
        ];
        let max_cycles = watchdog_cycles(golden_cycles(&bench));
        let mut context = TrialContext::new();
        for (model, point, never_faults) in cells {
            assert_eq!(
                CachedInjector::build(&study, model, point, 0)
                    .as_injector_mut()
                    .never_faults(),
                never_faults,
                "{model:?} at {point}"
            );
            for trial in 0..6u64 {
                let seed = derive_trial_seed(9, 0, trial);
                let reused = context.run_trial(&study, &bench, 0, model, point, max_cycles, seed);
                let fresh = run_single_trial(&study, &bench, model, point, max_cycles, seed);
                let full = full_path_trial(&study, &bench, model, point, max_cycles, seed);
                let what = format!("{model:?} at {point}, trial {trial}");
                assert_bit_identical(reused, fresh, &what);
                assert_bit_identical(reused, full, &what);
            }
        }
    }

    #[test]
    fn fault_free_path_honours_the_watchdog_limit() {
        let study = fast_study();
        let bench = MedianBenchmark::new(21, 3);
        let golden = golden_cycles(&bench);
        let point =
            OperatingPoint::new(study.sta_limit_mhz(0.7) * 0.9, 0.7).with_noise_sigma_mv(10.0);
        let model = FaultModel::StatisticalDta;
        let mut context = TrialContext::new();
        // A limit below the golden run trips the watchdog; the fault-free
        // path must stop where the full path stops, at every limit.
        for max_cycles in [golden / 2, watchdog_cycles(golden), golden / 2, golden] {
            for trial in 0..3u64 {
                let seed = derive_trial_seed(4, 0, trial);
                let reused = context.run_trial(&study, &bench, 0, model, point, max_cycles, seed);
                let full = full_path_trial(&study, &bench, model, point, max_cycles, seed);
                assert_bit_identical(reused, full, &format!("max_cycles {max_cycles}"));
                assert_eq!(
                    reused.finished,
                    max_cycles >= golden,
                    "max_cycles {max_cycles}"
                );
            }
        }
    }

    #[test]
    fn trial_context_does_not_leak_injectors_across_studies() {
        // Two independently built studies with different characterization
        // depth produce different CDFs; a context alternating between them
        // must rebuild the injector instead of replaying the first study's
        // timing data against the second.
        let study_a = fast_study();
        let study_b = CaseStudy::build(CaseStudyConfig {
            cycles_per_op: 24,
            ..CaseStudyConfig::fast_for_tests()
        });
        let bench = MedianBenchmark::new(21, 3);
        let point =
            OperatingPoint::new(study_a.sta_limit_mhz(0.7) * 1.15, 0.7).with_noise_sigma_mv(10.0);
        let max_cycles = watchdog_cycles(golden_cycles(&bench));
        let mut context = TrialContext::new();
        for (trial, study) in [&study_a, &study_b, &study_a, &study_b].iter().enumerate() {
            let seed = derive_trial_seed(11, 0, trial as u64);
            let shared = context.run_trial(
                study,
                &bench,
                0,
                FaultModel::StatisticalDta,
                point,
                max_cycles,
                seed,
            );
            let fresh = run_single_trial(
                study,
                &bench,
                FaultModel::StatisticalDta,
                point,
                max_cycles,
                seed,
            );
            assert_eq!(shared.cycles, fresh.cycles, "trial {trial}");
            assert_eq!(
                shared.fi_rate_per_kcycle.to_bits(),
                fresh.fi_rate_per_kcycle.to_bits(),
                "trial {trial}"
            );
        }
        // Clones of one study share the token, so reuse stays possible.
        assert!(Arc::ptr_eq(
            study_a.share_token(),
            study_a.clone().share_token()
        ));
        assert!(!Arc::ptr_eq(study_a.share_token(), study_b.share_token()));
    }

    #[test]
    fn watchdog_has_a_floor_and_saturates() {
        assert_eq!(watchdog_cycles(0), 100_000);
        assert_eq!(watchdog_cycles(1_000_000), 8_000_000);
        assert_eq!(watchdog_cycles(u64::MAX), u64::MAX);
    }
}
