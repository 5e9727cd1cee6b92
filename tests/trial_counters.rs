//! The process-wide trial counters under `TrialContext`'s fault-free path
//! (trials whose injector never faults run with `NoFaultInjector`).
//!
//! This is the only test of its binary, so the counters move by exactly
//! what it runs: its deltas need no lock against other tests.

use sfi_core::experiment::{
    derive_trial_seed, golden_cycles, watchdog_cycles, FaultModel, TrialContext,
};
use sfi_core::study::{CaseStudy, CaseStudyConfig};
use sfi_cpu::{Core, FaultInjector, RunConfig, RunOutcome};
use sfi_fault::OperatingPoint;
use sfi_kernels::median::MedianBenchmark;
use sfi_kernels::Benchmark;

/// Cycles and watchdog bit of the trial run in full on the ISS with the
/// real model — the reference for what one trial must count.
fn reference_run(
    study: &CaseStudy,
    bench: &dyn Benchmark,
    model: FaultModel,
    point: OperatingPoint,
    max_cycles: u64,
    seed: u64,
) -> (u64, bool) {
    let mut injector: Box<dyn FaultInjector> = match model {
        FaultModel::StaPeriodViolation => Box::new(study.model_b(point)),
        FaultModel::StaWithNoise => Box::new(study.model_b_plus(point, seed)),
        FaultModel::StatisticalDta => Box::new(study.model_c(point, seed)),
        other => unreachable!("{other:?} is not exercised here"),
    };
    let mut core = Core::new(bench.program().clone(), bench.dmem_words());
    bench.initialize(core.memory_mut());
    let config = RunConfig {
        max_cycles,
        fi_window: Some(bench.fi_window()),
    };
    let outcome = core.run_with_injector(&config, injector.as_mut());
    (
        core.stats().cycles,
        matches!(outcome, RunOutcome::Watchdog { .. }),
    )
}

#[test]
fn fault_free_path_counts_trials_cycles_and_watchdog_trips_like_full_runs() {
    let study = CaseStudy::build(CaseStudyConfig::fast_for_tests());
    let bench = MedianBenchmark::new(21, 3);
    let sta = study.sta_limit_mhz(0.7);
    let golden = golden_cycles(&bench);
    let noisy = |scale: f64| OperatingPoint::new(sta * scale, 0.7).with_noise_sigma_mv(10.0);
    // Below-limit cells of models B, B+ and C (fault-free path), then a
    // transition cell on the full path.
    let cells = [
        (
            FaultModel::StaPeriodViolation,
            OperatingPoint::new(sta * 0.95, 0.7),
        ),
        (FaultModel::StaWithNoise, noisy(0.9)),
        (FaultModel::StatisticalDta, noisy(0.9)),
        (FaultModel::StatisticalDta, noisy(1.2)),
    ];
    let m = sfi_obs::metrics();
    let counters = || {
        (
            m.trials.get(),
            m.iss_cycles.get(),
            m.iss_watchdog_trips.get(),
        )
    };
    let mut context = TrialContext::new();
    let mut watchdog_trials = 0;
    for (model, point) in cells {
        for max_cycles in [golden / 2, watchdog_cycles(golden)] {
            let before = counters();
            let mut expected = (0u64, 0u64, 0u64);
            for trial in 0..5u64 {
                let seed = derive_trial_seed(3, 0, trial);
                let result = context.run_trial(&study, &bench, 0, model, point, max_cycles, seed);
                let (cycles, watchdog) =
                    reference_run(&study, &bench, model, point, max_cycles, seed);
                assert_eq!(result.cycles, cycles, "{model:?} at {point}, trial {trial}");
                expected.0 += 1;
                expected.1 += cycles;
                expected.2 += u64::from(watchdog);
            }
            let after = counters();
            assert_eq!(
                (after.0 - before.0, after.1 - before.1, after.2 - before.2),
                expected,
                "{model:?} at {point}, max_cycles {max_cycles}"
            );
            watchdog_trials += expected.2;
        }
    }
    assert!(
        watchdog_trials > 0,
        "the short limit must trip the watchdog"
    );
}
