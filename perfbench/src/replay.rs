//! Trial replay from public pieces.
//!
//! A replayed trial is rebuilt the way `TrialContext::run_trial` runs it,
//! but from the library's public parts: the fault model from
//! `CaseStudy::model_*`, `Core::reset_full`, `Benchmark::initialize`,
//! `Core::run_with_injector` and `Benchmark::output_error`.  The injector
//! is wrapped in a [`Probe`] that counts every call.  Every replayed
//! `TrialResult` is compared bit for bit with the real path before any
//! layer number is reported: otherwise the split would measure a different
//! program.
//!
//! Fault injection runs interleaved with the interpreter, one call per ALU
//! cycle, too short to time call by call without distorting it.  A timed
//! replay therefore runs each trial twice: once with the real model (whose
//! non-zero masks the probe records), then again with [`MaskReplay`],
//! which hands back the recorded masks without computing anything.  Both
//! runs take the same path through the program; the second run's time is
//! the interpreter's, the difference is the fault model's.

use crate::trace::Recorder;
use sfi_campaign::CampaignSpec;
use sfi_core::experiment::{derive_trial_seed, golden_cycles, watchdog_cycles};
use sfi_core::{CaseStudy, FaultModel, TrialResult};
use sfi_cpu::{Core, ExStageContext, FaultInjector, NoFaultInjector, RunConfig, RunOutcome};
use sfi_fault::OperatingPoint;
use sfi_kernels::Benchmark;
use std::time::Instant;

/// Exact work counts; they depend only on the workload and seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Trials run.
    pub trials: u64,
    /// Trials that ran to completion.
    pub finished: u64,
    /// Trials with an exactly correct output.
    pub correct: u64,
    /// Trials stopped by the watchdog.
    pub watchdog: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// Simulated cycles.
    pub sim_cycles: u64,
    /// Injector calls (one per ALU cycle).
    pub inject_calls: u64,
    /// Injector calls inside the fault-injection window.
    pub in_window: u64,
    /// In-window calls that flipped at least one bit.
    pub faults: u64,
    /// Bits flipped.
    pub bits: u64,
    /// Fault-free golden runs that sized the watchdogs.
    pub golden_runs: u64,
}

impl Counts {
    /// Adds another set of counts.
    pub fn add(&mut self, o: &Counts) {
        self.trials += o.trials;
        self.finished += o.finished;
        self.correct += o.correct;
        self.watchdog += o.watchdog;
        self.instructions += o.instructions;
        self.sim_cycles += o.sim_cycles;
        self.inject_calls += o.inject_calls;
        self.in_window += o.in_window;
        self.faults += o.faults;
        self.bits += o.bits;
        self.golden_runs += o.golden_runs;
    }
}

/// A counting wrapper around a fault injector that can also record every
/// non-zero mask it returns, by call index.
pub struct Probe<'a, F: FaultInjector + ?Sized> {
    inner: &'a mut F,
    masks: Option<&'a mut Vec<(u64, u32)>>,
    calls: u64,
    in_window: u64,
    faults: u64,
    bits: u64,
}

impl<F: FaultInjector + ?Sized> FaultInjector for Probe<'_, F> {
    fn inject(&mut self, ctx: &ExStageContext) -> u32 {
        let mask = self.inner.inject(ctx);
        if mask != 0 {
            if let Some(masks) = self.masks.as_deref_mut() {
                masks.push((self.calls, mask));
            }
        }
        self.calls += 1;
        if ctx.fi_enabled {
            self.in_window += 1;
            if mask != 0 {
                self.faults += 1;
                self.bits += u64::from(mask.count_ones());
            }
        }
        mask
    }

    fn begin_run(&mut self) {
        self.inner.begin_run();
    }
}

/// Returns recorded masks at their call indices and 0 elsewhere.
pub struct MaskReplay<'a> {
    masks: &'a [(u64, u32)],
    next: usize,
    calls: u64,
}

impl FaultInjector for MaskReplay<'_> {
    fn inject(&mut self, _ctx: &ExStageContext) -> u32 {
        let mask = match self.masks.get(self.next) {
            Some(&(call, mask)) if call == self.calls => {
                self.next += 1;
                mask
            }
            _ => 0,
        };
        self.calls += 1;
        mask
    }
}

/// The outcome of one replay pass over a campaign spec.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Per-cell trial results, in trial order.
    pub cells: Vec<Vec<TrialResult>>,
    /// Per-cell exact counts (golden runs are counted in `totals` only).
    pub cell_counts: Vec<Counts>,
    /// Counts over the whole pass.
    pub totals: Counts,
    /// Host seconds of every trial (timed passes only).
    pub trial_s: Vec<f64>,
    /// Summed seconds of the runs with the real fault model.
    pub run_s: f64,
    /// Summed seconds of the same runs with recorded masks.
    pub masked_run_s: f64,
    /// Whether every mask replay reproduced its trial exactly.
    pub masks_reproduce: bool,
}

/// Replays every trial of `spec` once on the calling thread: the golden
/// runs that size the watchdogs (as `CampaignEngine::run` does per call),
/// then each cell's trials in order.  With a recorder, each step is a span
/// and every trial also runs a second time on recorded masks; without one,
/// nothing is timed.
pub fn replay_pass(study: &CaseStudy, spec: &CampaignSpec, mut rec: Option<&mut Recorder>) -> Pass {
    let mut pass = Pass {
        masks_reproduce: true,
        ..Pass::default()
    };
    let benchmarks = spec.benchmarks();
    let watchdogs: Vec<u64> = benchmarks
        .iter()
        .enumerate()
        .map(|(index, b)| {
            if let Some(r) = rec.as_deref_mut() {
                r.begin("core.golden", Some(("benchmark", index as u64)));
            }
            let cycles = golden_cycles(b.as_ref());
            if let Some(r) = rec.as_deref_mut() {
                r.end();
            }
            pass.totals.golden_runs += 1;
            watchdog_cycles(cycles)
        })
        .collect();
    let mut cores: Vec<Core> = benchmarks
        .iter()
        .map(|b| Core::new(b.program().clone(), b.dmem_words()))
        .collect();
    let mut masks = Vec::new();
    let mut trial_id = 0u64;
    for (cell_index, cell) in spec.cells().iter().enumerate() {
        if let Some(r) = rec.as_deref_mut() {
            r.begin("cell", Some(("cell", cell_index as u64)));
        }
        let benchmark = benchmarks[cell.benchmark].as_ref();
        let core = &mut cores[cell.benchmark];
        let mut results = Vec::with_capacity(cell.budget.max_trials);
        let mut counts = Counts::default();
        for trial in 0..cell.budget.max_trials {
            let trial = Trial {
                model: cell.model,
                point: cell.point,
                max_cycles: watchdogs[cell.benchmark],
                seed: derive_trial_seed(spec.seed, cell_index as u64, trial as u64),
                id: trial_id,
            };
            trial_id += 1;
            let result = match rec.as_deref_mut() {
                None => replay_trial(study, benchmark, core, trial, None, &mut counts).0,
                Some(r) => {
                    masks.clear();
                    let (result, times) =
                        replay_trial(study, benchmark, core, trial, Some(&mut masks), &mut counts);
                    let (masked_start, masked_end) =
                        masked_run(benchmark, core, trial, &masks, result, &mut pass);
                    let masked_s = (masked_end - masked_start).as_secs_f64();
                    times.record(r, trial.id, masked_s);
                    r.interval(
                        "cpu.masked_replay",
                        masked_start,
                        masked_end,
                        Some(("trial", trial.id)),
                    );
                    pass.trial_s.push(times.trial_s());
                    pass.run_s += times.run_s();
                    pass.masked_run_s += masked_s;
                    result
                }
            };
            results.push(result);
        }
        if let Some(r) = rec.as_deref_mut() {
            r.end();
        }
        pass.totals.add(&counts);
        pass.cell_counts.push(counts);
        pass.cells.push(results);
    }
    pass
}

/// What identifies one trial.
#[derive(Debug, Clone, Copy)]
struct Trial {
    model: FaultModel,
    point: OperatingPoint,
    max_cycles: u64,
    seed: u64,
    id: u64,
}

/// Timestamps of one replayed trial: start, input initialization start
/// and end, run start and end, output comparison end, and the end.  What
/// lies between them (core reset, injector construction, bookkeeping) is
/// the harness's own time.
#[derive(Debug, Clone, Copy)]
struct TrialTimes([Instant; 7]);

impl TrialTimes {
    fn trial_s(&self) -> f64 {
        (self.0[6] - self.0[0]).as_secs_f64()
    }

    fn run_s(&self) -> f64 {
        (self.0[4] - self.0[3]).as_secs_f64()
    }

    /// Records the trial's spans; the fault model's share of the run is
    /// the run's time less the mask replay's.
    fn record(&self, rec: &mut Recorder, id: u64, masked_s: f64) {
        let [start, init_start, init_end, run_start, run_end, compared, end] = self.0;
        rec.begin_at("trial", Some(("trial", id)), start);
        rec.interval("kernels.initialize", init_start, init_end, None);
        rec.begin_at("cpu.run", None, run_start);
        rec.estimated_child("fault.inject", (self.run_s() - masked_s).max(0.0));
        rec.end_at(run_end);
        rec.interval("kernels.output_error", run_end, compared, None);
        rec.end_at(end);
    }
}

fn config(benchmark: &dyn Benchmark, max_cycles: u64) -> RunConfig {
    RunConfig {
        max_cycles,
        fi_window: Some(benchmark.fi_window()),
        ..RunConfig::default()
    }
}

fn replay_trial(
    study: &CaseStudy,
    benchmark: &dyn Benchmark,
    core: &mut Core,
    trial: Trial,
    masks: Option<&mut Vec<(u64, u32)>>,
    counts: &mut Counts,
) -> (TrialResult, TrialTimes) {
    let start = Instant::now();
    core.reset_full();
    let init_start = Instant::now();
    benchmark.initialize(core.memory_mut());
    let init_end = Instant::now();
    let config = config(benchmark, trial.max_cycles);
    // Each arm builds its injector before `run` starts the run clock.
    let (outcome, probe, run_start) = match trial.model {
        FaultModel::None => run(core, &config, &mut NoFaultInjector, masks),
        FaultModel::FixedProbability(p) => {
            run(core, &config, &mut study.model_a(p, trial.seed), masks)
        }
        FaultModel::StaPeriodViolation => {
            run(core, &config, &mut study.model_b(trial.point), masks)
        }
        FaultModel::StaWithNoise => run(
            core,
            &config,
            &mut study.model_b_plus(trial.point, trial.seed),
            masks,
        ),
        FaultModel::StatisticalDta => run(
            core,
            &config,
            &mut study.model_c(trial.point, trial.seed),
            masks,
        ),
    };
    let run_end = Instant::now();
    let finished = outcome.finished();
    let output_error = if finished {
        benchmark.output_error(core.memory())
    } else {
        f64::NAN
    };
    let compared = Instant::now();
    let stats = core.stats();
    let result = TrialResult {
        finished,
        correct: finished && output_error == 0.0,
        output_error,
        fi_rate_per_kcycle: stats.fi_rate_per_kcycle(),
        cycles: stats.cycles,
    };
    // The probe's counts and the core's own statistics are two views of
    // the same run; they must agree.
    assert_eq!(
        (probe.faults, probe.bits),
        (stats.injected_faults, stats.flipped_bits),
        "probe and core disagree on injected faults"
    );
    counts.trials += 1;
    counts.finished += u64::from(finished);
    counts.correct += u64::from(result.correct);
    counts.watchdog += u64::from(matches!(outcome, RunOutcome::Watchdog { .. }));
    counts.instructions += stats.instructions;
    counts.sim_cycles += stats.cycles;
    counts.inject_calls += probe.calls;
    counts.in_window += probe.in_window;
    counts.faults += probe.faults;
    counts.bits += probe.bits;
    let end = Instant::now();
    let times = TrialTimes([
        start, init_start, init_end, run_start, run_end, compared, end,
    ]);
    (result, times)
}

/// Re-runs a trial on its recorded masks and returns when the run started
/// and ended; a replay that does not reproduce the trial clears
/// `masks_reproduce`.
fn masked_run(
    benchmark: &dyn Benchmark,
    core: &mut Core,
    trial: Trial,
    masks: &[(u64, u32)],
    expected: TrialResult,
    pass: &mut Pass,
) -> (Instant, Instant) {
    core.reset_full();
    benchmark.initialize(core.memory_mut());
    let config = config(benchmark, trial.max_cycles);
    let mut replay = MaskReplay {
        masks,
        next: 0,
        calls: 0,
    };
    let start = Instant::now();
    let outcome = core.run_with_injector(&config, &mut replay);
    let end = Instant::now();
    pass.masks_reproduce &= outcome.finished() == expected.finished
        && core.stats().cycles == expected.cycles
        && core.stats().fi_rate_per_kcycle().to_bits() == expected.fi_rate_per_kcycle.to_bits();
    (start, end)
}

/// What a probe saw during one run.
struct ProbeSummary {
    calls: u64,
    in_window: u64,
    faults: u64,
    bits: u64,
}

fn run<F: FaultInjector>(
    core: &mut Core,
    config: &RunConfig,
    injector: &mut F,
    masks: Option<&mut Vec<(u64, u32)>>,
) -> (RunOutcome, ProbeSummary, Instant) {
    let mut probe = Probe {
        inner: injector,
        masks,
        calls: 0,
        in_window: 0,
        faults: 0,
        bits: 0,
    };
    let run_start = Instant::now();
    let outcome = core.run_with_injector(config, &mut probe);
    let summary = ProbeSummary {
        calls: probe.calls,
        in_window: probe.in_window,
        faults: probe.faults,
        bits: probe.bits,
    };
    (outcome, summary, run_start)
}

/// Whether two trial lists are bit-identical (NaN output errors compare by
/// bit pattern, so two crashed trials are equal).
pub fn same_trials(a: &[TrialResult], b: &[TrialResult]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.finished == y.finished
                && x.correct == y.correct
                && x.output_error.to_bits() == y.output_error.to_bits()
                && x.fi_rate_per_kcycle.to_bits() == y.fi_rate_per_kcycle.to_bits()
                && x.cycles == y.cycles
        })
}
