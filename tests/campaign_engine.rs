//! Integration tests of the parallel campaign engine: determinism across
//! thread counts, actual concurrency, adaptive early stopping, checkpoint
//! resume and the adaptive PoFF search.

use sfi_campaign::journal::replay_file;
use sfi_campaign::{
    adaptive_poff, checkpoint, CampaignEngine, CampaignResult, CampaignSpec, CellResult, CellSpec,
    PoffSearch, StopRule, TrialBudget,
};
use sfi_core::experiment::{run_experiment, FaultModel};
use sfi_core::study::{CaseStudy, CaseStudyConfig};
use sfi_cpu::Memory;
use sfi_fault::OperatingPoint;
use sfi_isa::{Instruction, ProgramBuilder, Reg};
use sfi_kernels::guest::GuestProgramBenchmark;
use sfi_kernels::median::MedianBenchmark;
use sfi_kernels::Benchmark;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn fast_study() -> CaseStudy {
    CaseStudy::build(CaseStudyConfig::fast_for_tests())
}

/// Bitwise trial equality: crashed runs carry `output_error = NaN`, which
/// derived `PartialEq` would treat as unequal even for identical trials.
fn trials_identical(a: &[sfi_core::TrialResult], b: &[sfi_core::TrialResult]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.finished == y.finished
                && x.correct == y.correct
                && x.output_error.to_bits() == y.output_error.to_bits()
                && x.fi_rate_per_kcycle.to_bits() == y.fi_rate_per_kcycle.to_bits()
                && x.cycles == y.cycles
        })
}

/// A checkpoint log path unique to the calling test thread.
fn log_path(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "sfi_campaign_{tag}_{}_{:?}.log",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

/// Runs `spec` with the checkpoint log at `path`, the way the figure
/// binaries' `--checkpoint FILE` does: the log's cells seed the engine
/// and every simulated cell is appended as it finishes.
/// `observe` sees every cell the progress hook reports.
fn run_logged(
    engine: CampaignEngine,
    study: &CaseStudy,
    spec: &CampaignSpec,
    path: &Path,
    observe: impl Fn(&CellResult) + Send + Sync + 'static,
) -> CampaignResult {
    let (log, cells) = checkpoint::open_log(path, spec, study.config()).expect("the log opens");
    engine
        .with_seed_cells(cells)
        .with_progress(Arc::new(move |cell: &CellResult| {
            observe(cell);
            if !cell.from_checkpoint {
                log.append(&checkpoint::cell_to_json(cell))
                    .expect("the log appends");
            }
        }))
        .run(study, spec)
}

/// A campaign spanning the whole failure transition: correct, mixed and
/// broken cells, with both fixed and adaptive budgets.
fn transition_spec(study: &CaseStudy, trials: usize) -> CampaignSpec {
    let sta = study.sta_limit_mhz(0.7);
    let mut spec = CampaignSpec::new("transition", 42);
    let median = spec.add_benchmark(MedianBenchmark::new(21, 3));
    for (i, overscale) in [0.95, 1.1, 1.25, 1.6].iter().enumerate() {
        let point = OperatingPoint::new(sta * overscale, 0.7).with_noise_sigma_mv(10.0);
        let budget = if i % 2 == 0 {
            TrialBudget::fixed(trials)
        } else {
            TrialBudget::adaptive(trials, trials * 4, trials, StopRule::correct_within(0.22))
        };
        spec.add_cell(CellSpec {
            benchmark: median,
            model: FaultModel::StatisticalDta,
            point,
            budget,
        });
    }
    spec
}

#[test]
fn parallel_execution_is_bit_identical_to_sequential() {
    let study = fast_study();
    let spec = transition_spec(&study, 8);
    let sequential = CampaignEngine::sequential().run(&study, &spec);
    for threads in [2, 4, 8] {
        let parallel = CampaignEngine::new()
            .with_threads(threads)
            .run(&study, &spec);
        assert_eq!(parallel.cells.len(), sequential.cells.len());
        for (p, s) in parallel.cells.iter().zip(&sequential.cells) {
            assert!(
                trials_identical(&p.trials, &s.trials),
                "cell {} differs with {threads} threads",
                p.cell
            );
            assert_eq!(p.stats, s.stats);
            assert_eq!(p.stopped_early, s.stopped_early);
        }
    }
}

#[test]
fn single_cell_campaign_matches_run_experiment() {
    let study = fast_study();
    let sta = study.sta_limit_mhz(0.7);
    let point = OperatingPoint::new(sta * 1.2, 0.7).with_noise_sigma_mv(10.0);
    let mut spec = CampaignSpec::new("one-cell", 123);
    let median = spec.add_benchmark(MedianBenchmark::new(21, 3));
    spec.add_cell(CellSpec {
        benchmark: median,
        model: FaultModel::StatisticalDta,
        point,
        budget: TrialBudget::fixed(6),
    });
    let campaign = CampaignEngine::new().with_threads(4).run(&study, &spec);
    let oneshot = run_experiment(
        &study,
        &MedianBenchmark::new(21, 3),
        FaultModel::StatisticalDta,
        point,
        6,
        123,
    );
    assert!(
        trials_identical(&campaign.summary(0).trials, &oneshot.trials),
        "campaign cell 0 must equal the one-shot API"
    );
}

/// A median benchmark whose initialization sleeps, making trial overlap
/// observable even on a single CPU.
struct SlowBenchmark(MedianBenchmark);

impl Benchmark for SlowBenchmark {
    fn name(&self) -> &'static str {
        "slow_median"
    }
    fn program(&self) -> &sfi_isa::Program {
        self.0.program()
    }
    fn fi_window(&self) -> Range<u32> {
        self.0.fi_window()
    }
    fn dmem_words(&self) -> usize {
        self.0.dmem_words()
    }
    fn initialize(&self, memory: &mut Memory) {
        std::thread::sleep(Duration::from_millis(5));
        self.0.initialize(memory);
    }
    fn try_output_error(&self, memory: &Memory) -> Option<f64> {
        self.0.try_output_error(memory)
    }
    fn error_metric(&self) -> &'static str {
        self.0.error_metric()
    }
}

#[test]
fn campaign_trials_run_concurrently() {
    let study = fast_study();
    let sta = study.sta_limit_mhz(0.7);
    let build_spec = || {
        let mut spec = CampaignSpec::new("concurrency", 7);
        let slow = spec.add_benchmark(SlowBenchmark(MedianBenchmark::new(21, 3)));
        // 4 cells × 8 trials, as the acceptance criterion demands.
        let points: Vec<OperatingPoint> = [0.9, 0.95, 1.0, 1.05]
            .iter()
            .map(|o| OperatingPoint::new(sta * o, 0.7))
            .collect();
        spec.add_grid(
            &[slow],
            &[FaultModel::StatisticalDta],
            &points,
            TrialBudget::fixed(8),
        );
        spec
    };

    let spec = build_spec();
    let start = Instant::now();
    let sequential = CampaignEngine::sequential().run(&study, &spec);
    let sequential_elapsed = start.elapsed();

    let start = Instant::now();
    let parallel = CampaignEngine::new().with_threads(8).run(&study, &spec);
    let parallel_elapsed = start.elapsed();

    assert_eq!(parallel.metrics.executed_trials, 32);
    assert!(
        parallel.metrics.worker_threads_used >= 2,
        "expected multiple workers to execute trials, got {:?}",
        parallel.metrics
    );
    assert!(
        parallel.metrics.max_concurrent_trials >= 2,
        "expected overlapping trials, got {:?}",
        parallel.metrics
    );
    assert_eq!(sequential.metrics.worker_threads_used, 1);
    // 32 trials sleep 5 ms each: the sequential run is bounded below by
    // 160 ms while 8 workers overlap the sleeps.
    assert!(
        parallel_elapsed < sequential_elapsed.mul_f64(0.75),
        "parallel {parallel_elapsed:?} not faster than sequential {sequential_elapsed:?}"
    );
    // Concurrency must not change results.
    for (p, s) in parallel.cells.iter().zip(&sequential.cells) {
        assert!(trials_identical(&p.trials, &s.trials));
    }
}

#[test]
fn adaptive_budget_stops_certain_cells_early() {
    let study = fast_study();
    let sta = study.sta_limit_mhz(0.7);
    let mut spec = CampaignSpec::new("adaptive", 5);
    let median = spec.add_benchmark(MedianBenchmark::new(21, 3));
    let rule = StopRule::correct_within(0.25);
    // Far below the limit every trial is correct: the Wilson interval
    // collapses quickly and the cell stops at min_trials.
    spec.add_cell(CellSpec {
        benchmark: median,
        model: FaultModel::StatisticalDta,
        point: OperatingPoint::new(sta * 0.9, 0.7),
        budget: TrialBudget::adaptive(8, 64, 8, rule),
    });
    let result = CampaignEngine::new().with_threads(4).run(&study, &spec);
    let cell = &result.cells[0];
    assert!(cell.stopped_early, "an all-correct cell must stop early");
    assert_eq!(
        cell.trials.len(),
        8,
        "the first batch already satisfies the rule"
    );
    assert_eq!(cell.stats.correct_fraction(), 1.0);
    assert!(cell.stats.correct_interval(1.96).half_width <= 0.25);

    // Without a stop rule the same cell burns its whole budget.
    let mut fixed = CampaignSpec::new("fixed", 5);
    let median = fixed.add_benchmark(MedianBenchmark::new(21, 3));
    fixed.add_cell(CellSpec {
        benchmark: median,
        model: FaultModel::StatisticalDta,
        point: OperatingPoint::new(sta * 0.9, 0.7),
        budget: TrialBudget::fixed(16),
    });
    let result = CampaignEngine::new().with_threads(4).run(&study, &fixed);
    assert!(!result.cells[0].stopped_early);
    assert_eq!(result.cells[0].trials.len(), 16);
}

#[test]
fn checkpoint_resume_skips_completed_cells() {
    let study = fast_study();
    let spec = transition_spec(&study, 4);
    let path = log_path("ckpt");

    let engine = CampaignEngine::new().with_threads(4);
    let first = run_logged(engine.clone(), &study, &spec, &path, |_| {});
    assert!(path.exists(), "the campaign must leave a checkpoint behind");
    assert!(first.metrics.executed_trials > 0);
    assert!(first.cells.iter().all(|c| !c.from_checkpoint));

    // Resuming the identical spec restores every cell without simulating.
    let second = run_logged(engine, &study, &spec, &path, |_| {});
    assert_eq!(
        second.metrics.executed_trials, 0,
        "everything comes from the checkpoint"
    );
    assert!(second.cells.iter().all(|c| c.from_checkpoint));
    for (a, b) in first.cells.iter().zip(&second.cells) {
        assert!(trials_identical(&a.trials, &b.trials));
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.stopped_early, b.stopped_early);
    }

    // A different spec (changed seed) ignores the stale checkpoint.
    let mut changed = transition_spec(&study, 4);
    changed.seed = 43;
    let third = run_logged(
        CampaignEngine::new().with_threads(2),
        &study,
        &changed,
        &path,
        |_| {},
    );
    assert!(
        third.metrics.executed_trials > 0,
        "fingerprint mismatch forces a fresh run"
    );
    assert!(third.cells.iter().all(|c| !c.from_checkpoint));

    let _ = std::fs::remove_file(&path);
}

#[test]
fn checkpoint_export_is_valid_json() {
    let study = fast_study();
    let spec = transition_spec(&study, 2);
    let result = CampaignEngine::new().run(&study, &spec);
    let doc = result.to_json(&spec);
    let text = doc.to_string();
    let parsed = sfi_campaign::json::Json::parse(&text).expect("export parses back");
    // NaN output errors serialize as null, so compare re-serializations
    // rather than the value trees.
    assert_eq!(parsed.to_string(), text);
    assert_eq!(
        parsed
            .get("fingerprint")
            .and_then(sfi_campaign::json::Json::as_u64),
        Some(spec.fingerprint())
    );
    assert_eq!(
        parsed
            .get("cells")
            .and_then(sfi_campaign::json::Json::as_arr)
            .unwrap()
            .len(),
        4
    );
}

#[test]
fn result_json_is_byte_identical_across_threads_and_checkpoint_resumes() {
    // The zero-clone trial pipeline (Arc-shared characterizations,
    // table-driven model C, per-worker core/injector recycling) must not
    // perturb campaign results: the same seed and spec produce a
    // byte-identical result document regardless of worker count, how
    // workers interleave cells, or whether cells came from a checkpoint.
    let study = fast_study();
    let spec = transition_spec(&study, 4);
    let path = log_path("bitident");

    let sequential = CampaignEngine::new().with_threads(1).run(&study, &spec);
    let document = sequential.to_json(&spec).to_string();
    let parallel = run_logged(
        CampaignEngine::new().with_threads(3),
        &study,
        &spec,
        &path,
        |_| {},
    );
    assert_eq!(
        parallel.to_json(&spec).to_string(),
        document,
        "result JSON must be byte-identical across thread counts"
    );

    // The 3-thread run's log (in completion order) restores exactly that
    // run's cells.
    let (_, mut restored) =
        checkpoint::open_log(&path, &spec, study.config()).expect("the log opens");
    restored.sort_by_key(|cell| cell.cell);
    assert_eq!(restored.len(), parallel.cells.len());
    for (a, b) in parallel.cells.iter().zip(&restored) {
        assert_eq!(a.cell, b.cell);
        assert!(trials_identical(&a.trials, &b.trials));
        assert_eq!(a.stopped_early, b.stopped_early);
    }

    // Resuming from it, in full or from a log torn inside its last record,
    // gives the 1-thread result document byte for byte.
    let resumed = run_logged(CampaignEngine::new(), &study, &spec, &path, |_| {});
    assert_eq!(resumed.metrics.executed_trials, 0);
    assert_eq!(resumed.to_json(&spec).to_string(), document);
    let len = std::fs::metadata(&path).expect("log exists").len();
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .expect("opens");
    file.set_len(len - 3).expect("truncates");
    drop(file);
    let torn = run_logged(CampaignEngine::new(), &study, &spec, &path, |_| {});
    assert!(torn.metrics.executed_trials > 0, "the torn cell re-runs");
    assert_eq!(torn.to_json(&spec).to_string(), document);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn seeds_the_engine_cannot_produce_are_simulated_afresh() {
    let study = fast_study();
    let spec = transition_spec(&study, 4);
    let fresh = CampaignEngine::new().with_threads(2).run(&study, &spec);

    // Cell 0 (fixed budget of 4) seeded with one trial; cell 1 (adaptive)
    // with its flag flipped; cell 2 with one trial too many.  The last
    // cell is a valid seed and is kept.
    let mut seeds = fresh.cells.clone();
    seeds[0].trials.truncate(1);
    seeds[1].stopped_early = !seeds[1].stopped_early;
    let extra = seeds[2].trials[0];
    seeds[2].trials.push(extra);
    let resumed = CampaignEngine::new()
        .with_threads(2)
        .with_seed_cells(seeds)
        .run(&study, &spec);
    let from_seed: Vec<bool> = resumed.cells.iter().map(|c| c.from_checkpoint).collect();
    assert_eq!(from_seed, vec![false, false, false, true]);
    assert_eq!(
        resumed.to_json(&spec).to_string(),
        fresh.to_json(&spec).to_string()
    );
}

#[test]
fn bisection_poff_matches_the_hard_threshold_with_fewer_cells() {
    let study = fast_study();
    let sta = study.sta_limit_mhz(0.7);
    // Model B is a deterministic threshold exactly at the STA limit, the
    // ideal ground truth for the bisection search.
    let search = PoffSearch::new(sta * 0.9, sta * 1.3, sta * 0.01, 2);
    let outcome = adaptive_poff(
        &CampaignEngine::new().with_threads(4),
        &study,
        std::sync::Arc::new(MedianBenchmark::new(21, 3)),
        FaultModel::StaPeriodViolation,
        OperatingPoint::new(sta, 0.7),
        search,
        9,
    );
    let poff = outcome
        .poff_mhz
        .expect("model B must fail above the STA limit");
    assert!(
        poff > sta && poff <= sta + sta * 0.011,
        "bisection PoFF {poff:.1} MHz should bracket the STA limit {sta:.1} MHz"
    );
    assert!(
        outcome.cells_evaluated < search.grid_equivalent_cells() / 3,
        "bisection used {} cells, grid would use {}",
        outcome.cells_evaluated,
        search.grid_equivalent_cells()
    );
    // The evaluated points bracket the threshold: everything below is
    // fully correct, everything above fails.
    for p in &outcome.evaluated {
        if p.freq_mhz <= sta {
            assert_eq!(
                p.summary.correct_fraction(),
                1.0,
                "at {:.1} MHz",
                p.freq_mhz
            );
        } else {
            assert!(
                p.summary.correct_fraction() < 1.0,
                "at {:.1} MHz",
                p.freq_mhz
            );
        }
    }

    // A benchmark that never fails inside the range reports None.
    let safe = PoffSearch::new(sta * 0.5, sta * 0.9, sta * 0.05, 2);
    let outcome = adaptive_poff(
        &CampaignEngine::new(),
        &study,
        std::sync::Arc::new(MedianBenchmark::new(21, 3)),
        FaultModel::StaPeriodViolation,
        OperatingPoint::new(sta, 0.7),
        safe,
        9,
    );
    assert_eq!(outcome.poff_mhz, None);
    assert_eq!(
        outcome.cells_evaluated, 2,
        "both endpoints and nothing else"
    );
}

#[test]
fn worker_panic_aborts_instead_of_hanging() {
    let study = fast_study(); // characterized at 0.7 V only
    let mut spec = CampaignSpec::new("poison", 1);
    let median = spec.add_benchmark(MedianBenchmark::new(21, 3));
    spec.add_cell(CellSpec {
        benchmark: median,
        model: FaultModel::None,
        point: OperatingPoint::new(700.0, 0.7),
        budget: TrialBudget::fixed(8),
    });
    // Model B at an uncharacterized voltage panics inside the worker; the
    // campaign must propagate that instead of leaving the other worker
    // waiting forever for the poisoned cell.
    spec.add_cell(CellSpec {
        benchmark: median,
        model: FaultModel::StaPeriodViolation,
        point: OperatingPoint::new(700.0, 0.8),
        budget: TrialBudget::fixed(8),
    });
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        CampaignEngine::new().with_threads(2).run(&study, &spec)
    }));
    let payload = outcome.expect_err("the campaign must re-raise the worker panic");
    let message = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        message.contains("no characterization"),
        "unexpected panic payload: {message:?}"
    );
}

#[test]
fn progress_hook_sees_every_cell_exactly_once() {
    use std::sync::Mutex;

    let study = fast_study();
    let spec = transition_spec(&study, 4);
    let path = log_path("hook");

    let seen: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
    let run = || {
        let sink = seen.clone();
        run_logged(
            CampaignEngine::new().with_threads(4),
            &study,
            &spec,
            &path,
            move |cell| sink.lock().unwrap().push(cell.cell),
        )
    };
    let first = run();
    assert!(!first.cancelled);
    let mut order = std::mem::take(&mut *seen.lock().unwrap());
    order.sort_unstable();
    assert_eq!(order, vec![0, 1, 2, 3], "each simulated cell streams once");

    // On resume the restored cells are announced up front, again exactly
    // once each.
    let second = run();
    assert_eq!(second.metrics.executed_trials, 0);
    let mut order = std::mem::take(&mut *seen.lock().unwrap());
    order.sort_unstable();
    assert_eq!(order, vec![0, 1, 2, 3], "restored cells stream once");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn raised_cancel_flag_stops_the_campaign_early() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let study = fast_study();
    let sta = study.sta_limit_mhz(0.7);
    let mut spec = CampaignSpec::new("cancel", 11);
    let median = spec.add_benchmark(MedianBenchmark::new(21, 3));
    spec.add_cell(CellSpec {
        benchmark: median,
        model: FaultModel::StatisticalDta,
        point: OperatingPoint::new(sta * 1.1, 0.7),
        budget: TrialBudget::fixed(64),
    });

    // A flag raised before the run starts cancels everything.
    let flag = Arc::new(AtomicBool::new(true));
    let result = CampaignEngine::new()
        .with_threads(2)
        .with_cancel(flag.clone())
        .run(&study, &spec);
    assert!(result.cancelled);
    assert_eq!(result.metrics.executed_trials, 0);
    assert_eq!(result.cells.len(), 1, "cells stay index-aligned");
    assert!(result.cells[0].trials.is_empty());

    // An unraised flag changes nothing.
    flag.store(false, Ordering::SeqCst);
    let full = CampaignEngine::new()
        .with_threads(2)
        .with_cancel(flag)
        .run(&study, &spec);
    assert!(!full.cancelled);
    assert_eq!(full.cells[0].trials.len(), 64);
}

#[test]
fn zero_cell_campaign_completes() {
    let study = fast_study();
    let spec = CampaignSpec::new("empty", 0);
    let result = CampaignEngine::new().with_threads(4).run(&study, &spec);
    assert!(result.cells.is_empty());
    assert_eq!(result.metrics.executed_trials, 0);
}

/// A one-cell fault-free campaign over `benchmark`, with a fixed budget
/// of two trials, and a cell it can restore.
fn one_cell_spec(benchmark: impl Benchmark + Send + Sync + 'static) -> (CampaignSpec, CellResult) {
    let mut spec = CampaignSpec::new("identity", 3);
    let index = spec.add_benchmark(benchmark);
    spec.add_cell(CellSpec {
        benchmark: index,
        model: FaultModel::None,
        point: OperatingPoint::new(500.0, 0.7),
        budget: TrialBudget::fixed(2),
    });
    let trials = vec![
        sfi_core::TrialResult {
            finished: true,
            correct: true,
            output_error: 0.0,
            fi_rate_per_kcycle: 0.0,
            cycles: 40,
        };
        2
    ];
    let cell = CellResult {
        cell: 0,
        stats: sfi_campaign::CellStats::from_trials(&trials),
        trials,
        stopped_early: false,
        from_checkpoint: false,
    };
    (spec, cell)
}

/// Logs a cell of `logged` simulated under `logged_study`, checks that
/// the log restores it, then opens the log for `other` under
/// `other_study`: nothing may be restored, and the log must be left as a
/// fresh header alone.
fn assert_log_starts_fresh(
    tag: &str,
    (logged, cell): (CampaignSpec, CellResult),
    logged_study: &CaseStudyConfig,
    other: &CampaignSpec,
    other_study: &CaseStudyConfig,
) {
    let path = log_path(tag);
    let (log, _) = checkpoint::open_log(&path, &logged, logged_study).expect("opens");
    log.append(&checkpoint::cell_to_json(&cell))
        .expect("appends");
    drop(log);
    let (_, restored) = checkpoint::open_log(&path, &logged, logged_study).expect("reopens");
    assert_eq!(restored.len(), 1, "the log restores its own cell");

    let (_, restored) = checkpoint::open_log(&path, other, other_study).expect("reopens");
    assert!(restored.is_empty(), "{tag}: a foreign cell was restored");
    assert_eq!(replay_file(&path).expect("replays").len(), 1, "{tag}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_checkpoint_of_other_input_data_starts_fresh() {
    let study = CaseStudyConfig::fast_for_tests();
    let logged = one_cell_spec(MedianBenchmark::new(15, 1));
    let (other, _) = one_cell_spec(MedianBenchmark::new(15, 2));
    assert_eq!(logged.0.fingerprint(), other.fingerprint());
    assert_log_starts_fresh("input_data", logged, &study, &other, &study);
}

#[test]
fn a_checkpoint_of_another_guest_program_starts_fresh() {
    // Two programs of equal length that differ in one instruction word:
    // each stores a constant to data word 0 and exits.
    let guest = |value: i16| {
        let mut p = ProgramBuilder::new();
        p.push(Instruction::Addi {
            rd: Reg(3),
            ra: Reg(0),
            imm: value,
        });
        p.push(Instruction::Sw {
            ra: Reg(0),
            rb: Reg(3),
            offset: 0,
        });
        GuestProgramBenchmark::new(p.build(), 4, 0..2, vec![], 0..1).expect("builds")
    };
    let (a, b) = (guest(5), guest(6));
    assert_eq!(a.program().len(), b.program().len());
    assert_ne!(a.program().to_words(), b.program().to_words());
    let study = CaseStudyConfig::fast_for_tests();
    let logged = one_cell_spec(a);
    let (other, _) = one_cell_spec(b);
    assert_eq!(logged.0.fingerprint(), other.fingerprint());
    assert_log_starts_fresh("guest_program", logged, &study, &other, &study);
}

#[test]
fn a_checkpoint_of_another_study_starts_fresh() {
    let study = CaseStudyConfig::fast_for_tests();
    let other_study = CaseStudyConfig {
        seed: study.seed + 1,
        ..study.clone()
    };
    let logged = one_cell_spec(MedianBenchmark::new(15, 1));
    let other = logged.0.clone();
    assert_log_starts_fresh("study", logged, &study, &other, &other_study);
}
