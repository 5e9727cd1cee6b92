//! How many golden runs a PoFF search and a campaign pay for.
//!
//! A PoFF search resolves its benchmark's watchdog lazily, once for all
//! the cells it evaluates: no golden run when every trial ends below
//! `WATCHDOG_FLOOR_CYCLES`, exactly one when some trial reaches it.
//! `CampaignEngine::run` resolves a benchmark's watchdog on its first
//! trial, on the worker that runs it: one golden run per benchmark that
//! runs a trial, none for a benchmark whose cells are all restored, and
//! none before the first cell's trials.
//!
//! A golden run bumps the process-wide trial counter like a trial, so the
//! golden runs of a call are the counter's delta minus the trials it
//! returns.  The counters are process-wide, so this binary holds only
//! these tests and runs them one at a time under `SERIAL`.

use sfi_campaign::{
    adaptive_poff, CampaignEngine, CampaignSpec, CellResult, CellSpec, PoffOutcome, PoffSearch,
    TrialBudget,
};
use sfi_core::experiment::{golden_cycles, FaultModel, WATCHDOG_FLOOR_CYCLES};
use sfi_core::study::{CaseStudy, CaseStudyConfig};
use sfi_fault::OperatingPoint;
use sfi_kernels::median::MedianBenchmark;
use std::sync::{Arc, Mutex};

static SERIAL: Mutex<()> = Mutex::new(());

/// Runs `f` and returns its value with the golden runs it made, given the
/// number of trials it reports.
fn counting<T>(f: impl FnOnce() -> T, trials_of: impl Fn(&T) -> u64) -> (T, u64) {
    let counter = &sfi_obs::metrics().trials;
    let before = counter.get();
    let value = f();
    let golden_runs = counter.get() - before - trials_of(&value);
    (value, golden_runs)
}

fn poff_trials(outcome: &PoffOutcome) -> u64 {
    outcome
        .evaluated
        .iter()
        .map(|p| p.summary.trials.len() as u64)
        .sum()
}

fn max_trial_cycles(outcome: &PoffOutcome) -> u64 {
    outcome
        .evaluated
        .iter()
        .flat_map(|p| &p.summary.trials)
        .map(|t| t.cycles)
        .max()
        .expect("the search evaluated trials")
}

/// Every field of a search outcome, floats as bit patterns.
fn outcome_bits(outcome: &PoffOutcome) -> Vec<String> {
    let mut bits = vec![
        format!("{:?}", outcome.poff_mhz.map(f64::to_bits)),
        outcome.cells_evaluated.to_string(),
    ];
    for point in &outcome.evaluated {
        for t in &point.summary.trials {
            bits.push(format!(
                "{:x} {} {} {:x} {:x} {}",
                point.freq_mhz.to_bits(),
                t.finished,
                t.correct,
                t.output_error.to_bits(),
                t.fi_rate_per_kcycle.to_bits(),
                t.cycles
            ));
        }
    }
    bits
}

/// Runs `search` on a `values`-value median under model C at 1, 2 and 4
/// threads; checks that every run gives the same outcome and makes
/// `golden_runs` golden runs, and returns the outcome.
fn search_on_every_thread_count(
    study: &CaseStudy,
    values: usize,
    search: PoffSearch,
    golden_runs: u64,
) -> PoffOutcome {
    let sta = study.sta_limit_mhz(0.7);
    let mut first: Option<PoffOutcome> = None;
    for threads in [1, 2, 4] {
        let (outcome, made) = counting(
            || {
                adaptive_poff(
                    &CampaignEngine::new().with_threads(threads),
                    study,
                    Arc::new(MedianBenchmark::new(values, 3)),
                    FaultModel::StatisticalDta,
                    OperatingPoint::new(sta, 0.7).with_noise_sigma_mv(10.0),
                    search,
                    9,
                )
            },
            poff_trials,
        );
        assert_eq!(made, golden_runs, "{threads} threads, {values} values");
        match &first {
            None => first = Some(outcome),
            Some(first) => assert_eq!(
                outcome_bits(&outcome),
                outcome_bits(first),
                "{threads} threads, {values} values"
            ),
        }
    }
    first.expect("three searches ran")
}

#[test]
fn a_search_below_the_floor_runs_no_golden_run() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let study = CaseStudy::build(CaseStudyConfig::fast_for_tests());
    let sta = study.sta_limit_mhz(0.7);
    let search = PoffSearch::new(sta * 0.9, sta * 1.3, sta * 0.02, 3);
    let outcome = search_on_every_thread_count(&study, 21, search, 0);
    assert!(max_trial_cycles(&outcome) < WATCHDOG_FLOOR_CYCLES);
    assert!(outcome.cells_evaluated > 2, "{}", outcome.cells_evaluated);
}

#[test]
fn a_search_past_the_floor_runs_one_golden_run() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let study = CaseStudy::build(CaseStudyConfig::fast_for_tests());
    let sta = study.sta_limit_mhz(0.7);
    // A 201-value median runs 262,703 fault-free cycles, past the floor,
    // in every correct trial.
    assert!(golden_cycles(&MedianBenchmark::new(201, 3)) > WATCHDOG_FLOOR_CYCLES);
    let bisection = PoffSearch::new(sta * 0.9, sta * 1.3, sta * 0.05, 2);
    let outcome = search_on_every_thread_count(&study, 201, bisection, 1);
    assert!(outcome.cells_evaluated > 2, "{}", outcome.cells_evaluated);
    // Both ends only: still one golden run, shared by the two cells.
    let ends = PoffSearch::new(sta * 0.5, sta * 0.9, sta * 0.05, 2);
    let outcome = search_on_every_thread_count(&study, 201, ends, 1);
    assert_eq!(outcome.cells_evaluated, 2);
    assert_eq!(outcome.poff_mhz, None);
}

/// Two median benchmarks with one 3-trial cell each, whose trials all
/// end far below the floor.
fn two_benchmark_spec(study: &CaseStudy) -> CampaignSpec {
    let sta = study.sta_limit_mhz(0.7);
    let mut spec = CampaignSpec::new("golden runs", 4);
    for values in [21, 35] {
        let benchmark = spec.add_benchmark(MedianBenchmark::new(values, 3));
        spec.add_cell(CellSpec {
            benchmark,
            model: FaultModel::StatisticalDta,
            point: OperatingPoint::new(sta * 1.3, 0.7).with_noise_sigma_mv(10.0),
            budget: TrialBudget::fixed(3),
        });
    }
    spec
}

#[test]
fn a_campaign_runs_one_golden_run_per_benchmark() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let study = CaseStudy::build(CaseStudyConfig::fast_for_tests());
    let spec = two_benchmark_spec(&study);
    for threads in [1, 2, 4] {
        let (result, golden_runs) = counting(
            || {
                CampaignEngine::new()
                    .with_threads(threads)
                    .run(&study, &spec)
            },
            |r| r.metrics.executed_trials as u64,
        );
        assert_eq!(golden_runs, 2, "{threads} threads");
        assert_eq!(result.metrics.executed_trials, 6);
    }
}

#[test]
fn the_first_cell_waits_for_its_own_golden_run_only() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let study = CaseStudy::build(CaseStudyConfig::fast_for_tests());
    let spec = two_benchmark_spec(&study);
    let counter = &sfi_obs::metrics().trials;
    let at_first_cell = Arc::new(Mutex::new(None));
    let sink = Arc::clone(&at_first_cell);
    let before = counter.get();
    CampaignEngine::new()
        .with_threads(1)
        .with_progress(Arc::new(move |cell: &CellResult| {
            if cell.cell == 0 {
                *sink.lock().unwrap() = Some(sfi_obs::metrics().trials.get());
            }
        }))
        .run(&study, &spec);
    let at_first_cell = at_first_cell.lock().unwrap().expect("cell 0 was reported");
    // One golden run, benchmark 0's, and cell 0's three trials.
    assert_eq!(at_first_cell - before, 1 + 3);
}

#[test]
fn a_benchmark_whose_cells_are_all_restored_runs_no_golden_run() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let study = CaseStudy::build(CaseStudyConfig::fast_for_tests());
    let spec = two_benchmark_spec(&study);
    let full = CampaignEngine::new().with_threads(2).run(&study, &spec);
    for (seeded, golden_runs) in [(1, 1), (2, 0)] {
        let seeds: Vec<CellResult> = full.cells[..seeded].to_vec();
        let (result, made) = counting(
            || {
                CampaignEngine::new()
                    .with_threads(2)
                    .with_seed_cells(seeds)
                    .run(&study, &spec)
            },
            |r| r.metrics.executed_trials as u64,
        );
        assert_eq!(made, golden_runs, "{seeded} cells restored");
        assert_eq!(result.metrics.executed_trials, 3 * (2 - seeded));
    }
}
