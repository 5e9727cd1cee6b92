//! The `perf-report` harness: measures trial-pipeline throughput and
//! writes the tracked `BENCH_iss.json` baseline.
//!
//! The measurement drives exactly the primitive the campaign engine's
//! workers drive, one trial at a time on one thread, so the numbers track
//! the hot path itself rather than scheduling overhead.

use sfi_core::experiment::{
    derive_trial_seed, golden_cycles, watchdog_cycles, FaultModel, TrialContext,
};
use sfi_core::json::Json;
use sfi_core::study::{CaseStudy, CaseStudyConfig};
use sfi_fault::OperatingPoint;
use sfi_kernels::{crc32::Crc32Benchmark, fft::FftBenchmark, median::MedianBenchmark};
use sfi_kernels::{extended_suite, Benchmark};
use std::time::Instant;

/// Format version of `BENCH_iss.json`.
pub const FORMAT_VERSION: u64 = 1;

/// Command-line options of the `perf-report` binary.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfArgs {
    /// CI smoke configuration: scaled-down case study, small kernels, few
    /// trials.
    pub quick: bool,
    /// Timed trials per cell (`None` = scenario default).
    pub trials: Option<usize>,
    /// Output path of the JSON report (`None` = mode default: the tracked
    /// `BENCH_iss.json` baseline for full runs, `BENCH_iss_quick.json` for
    /// `--quick` — quick smoke numbers must never clobber the baseline).
    pub out: Option<String>,
    /// Baseline report to gate against (`None` = no gate).  The gate is
    /// one-sided: only a throughput *drop* beyond the tolerance fails —
    /// the baseline may have been recorded on slower hardware, so running
    /// faster is never an error.
    pub baseline: Option<String>,
    /// Allowed fractional throughput drop vs the baseline (default 0.05).
    pub tolerance: f64,
    /// Print a per-phase time-attribution table built from the tracing
    /// spans the measurement (characterization, STA, per-cell sweeps)
    /// emitted.
    pub profile: bool,
}

impl Default for PerfArgs {
    fn default() -> Self {
        PerfArgs {
            quick: false,
            trials: None,
            out: None,
            baseline: None,
            tolerance: 0.05,
            profile: false,
        }
    }
}

/// The flag reference printed by `perf-report --help`.
pub const USAGE: &str = "\
options:
  --quick           CI smoke configuration (8-bit case study, small kernels, few trials)
  --trials N        timed trials per cell (default: 30, quick: 6)
  --out FILE        output path of the JSON report
                    (default: BENCH_iss.json, or BENCH_iss_quick.json with --quick)
  --baseline FILE   fail (exit 1) if totals.trials_per_sec drops more than the
                    tolerance below FILE's; running faster than the baseline passes
  --tolerance FRAC  allowed fractional drop for --baseline (default 0.05)
  --profile         print a per-phase time-attribution table (characterization,
                    STA, per-cell sweeps) built from the tracing spans
  --help            print this help
";

impl PerfArgs {
    /// Parses the flags from `std::env::args`.
    ///
    /// `--help` prints [`USAGE`] and exits; unknown flags and malformed
    /// values are errors (exit code 2).
    pub fn from_env() -> Self {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        if argv.iter().any(|a| a == "--help" || a == "-h") {
            println!("{USAGE}");
            std::process::exit(0);
        }
        match Self::parse(&argv) {
            Ok(args) => args,
            Err(message) => {
                eprintln!("error: {message}");
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
        }
    }

    /// Parses a flag list (everything after the binary name).
    pub fn parse(argv: &[String]) -> Result<Self, String> {
        let mut args = PerfArgs::default();
        let mut i = 0;
        while i < argv.len() {
            match argv[i].as_str() {
                "--quick" => args.quick = true,
                "--trials" => {
                    i += 1;
                    args.trials = Some(
                        argv.get(i)
                            .ok_or("--trials needs a value")?
                            .parse()
                            .ok()
                            .filter(|&n: &usize| n > 0)
                            .ok_or("--trials needs a positive integer")?,
                    );
                }
                "--out" => {
                    i += 1;
                    args.out = Some(argv.get(i).ok_or("--out needs a value")?.clone());
                }
                "--baseline" => {
                    i += 1;
                    args.baseline = Some(argv.get(i).ok_or("--baseline needs a value")?.clone());
                }
                "--tolerance" => {
                    i += 1;
                    args.tolerance = argv
                        .get(i)
                        .ok_or("--tolerance needs a value")?
                        .parse()
                        .ok()
                        .filter(|t: &f64| (0.0..1.0).contains(t))
                        .ok_or("--tolerance needs a fraction in [0, 1)")?;
                }
                "--profile" => args.profile = true,
                other => return Err(format!("unknown flag '{other}'")),
            }
            i += 1;
        }
        Ok(args)
    }

    fn timed_trials(&self) -> usize {
        self.trials.unwrap_or(if self.quick { 6 } else { 30 })
    }

    /// The resolved output path: an explicit `--out` wins; otherwise full
    /// runs write the tracked baseline and `--quick` runs a separate
    /// smoke file.
    pub fn out_path(&self) -> &str {
        self.out.as_deref().unwrap_or(if self.quick {
            "BENCH_iss_quick.json"
        } else {
            "BENCH_iss.json"
        })
    }
}

/// One measured (benchmark, scenario) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfCell {
    /// Benchmark name.
    pub benchmark: String,
    /// Scenario name (`below_limit` or `transition`).
    pub scenario: &'static str,
    /// Clock frequency of the cell, MHz.
    pub freq_mhz: f64,
    /// Timed trials.
    pub trials: usize,
    /// Wall-clock seconds of the timed trials.
    pub elapsed_s: f64,
    /// Throughput in trials per second.
    pub trials_per_sec: f64,
    /// Throughput in simulated cycles per second.
    pub cycles_per_sec: f64,
    /// Mean simulated cycles per trial.
    pub mean_cycles: f64,
    /// Fraction of trials with a fully correct output (sanity anchor: the
    /// measurement must not change the simulated physics).
    pub correct_fraction: f64,
}

/// The full report.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfReport {
    /// Case-study description (`paper-32bit` or `fast-8bit`).
    pub study: &'static str,
    /// Per-cell measurements.
    pub cells: Vec<PerfCell>,
}

/// The two operating scenarios measured per benchmark, as a multiple of
/// the STA frequency limit (both with 10 mV supply-noise sigma, so the
/// noise sampling path is always exercised).
const SCENARIOS: [(&str, f64); 2] = [("below_limit", 0.95), ("transition", 1.15)];
const NOISE_SIGMA_MV: f64 = 10.0;

fn perf_suite(quick: bool) -> Vec<Box<dyn Benchmark + Send + Sync>> {
    if quick {
        // Small kernels: the CI smoke step must finish in seconds.
        vec![
            Box::new(MedianBenchmark::new(21, 1)),
            Box::new(Crc32Benchmark::new(32, 1)),
            Box::new(FftBenchmark::new(16, 1)),
        ]
    } else {
        extended_suite(1)
    }
}

/// Runs the measurement.
pub fn run(args: &PerfArgs) -> PerfReport {
    let (study, study_name) = if args.quick {
        (
            CaseStudy::build(CaseStudyConfig::fast_for_tests()),
            "fast-8bit",
        )
    } else {
        (CaseStudy::build(CaseStudyConfig::paper()), "paper-32bit")
    };
    let sta = study.sta_limit_mhz(0.7);
    let timed = args.timed_trials();
    let warmup = (timed / 5).max(1);

    // One scratch context for the whole report — exactly what a campaign
    // worker holds, so the numbers track the engine's hot path.
    let mut context = TrialContext::new();
    let mut cells = Vec::new();
    for (bench_index, bench) in perf_suite(args.quick).iter().enumerate() {
        let max_cycles = watchdog_cycles(golden_cycles(bench.as_ref()));
        for (scenario_index, (scenario, factor)) in SCENARIOS.iter().enumerate() {
            let point = OperatingPoint::new(sta * factor, 0.7).with_noise_sigma_mv(NOISE_SIGMA_MV);
            // The same deterministic seed stream the campaign engine would
            // derive for this cell, so before/after comparisons simulate
            // identical fault sequences.
            let cell_index = (bench_index * SCENARIOS.len() + scenario_index) as u64;
            // One span per measured cell; `--profile` attributes the
            // report's wall-clock across these and the characterization
            // phases.  The span's clock reads sit outside the throughput
            // timer below, so the measurement itself is untouched.
            let _cell_span = sfi_obs::Span::begin("perf_cell", "bench")
                .arg("benchmark", bench.name())
                .arg("scenario", *scenario)
                .arg("cell", cell_index);
            let mut trial = |index: u64| {
                context.run_trial(
                    &study,
                    bench.as_ref(),
                    bench_index,
                    FaultModel::StatisticalDta,
                    point,
                    max_cycles,
                    derive_trial_seed(0xBE7C, cell_index, index),
                )
            };
            for i in 0..warmup {
                let _ = trial(i as u64);
            }
            let start = Instant::now();
            let mut cycles = 0u64;
            let mut correct = 0usize;
            for i in 0..timed {
                let result = trial((warmup + i) as u64);
                cycles += result.cycles;
                correct += result.correct as usize;
            }
            let elapsed = start.elapsed().as_secs_f64().max(1e-9);
            cells.push(PerfCell {
                benchmark: bench.name().to_string(),
                scenario,
                freq_mhz: point.freq_mhz(),
                trials: timed,
                elapsed_s: elapsed,
                trials_per_sec: timed as f64 / elapsed,
                cycles_per_sec: cycles as f64 / elapsed,
                mean_cycles: cycles as f64 / timed as f64,
                correct_fraction: correct as f64 / timed as f64,
            });
        }
    }
    PerfReport {
        study: study_name,
        cells,
    }
}

/// Prints the report as an aligned table.
pub fn print_table(report: &PerfReport) {
    println!(
        "=== perf-report: model C trial pipeline ({}) ===",
        report.study
    );
    println!(
        "{:<16} {:<12} {:>9} {:>7} {:>12} {:>14} {:>9}",
        "benchmark", "scenario", "freq MHz", "trials", "trials/s", "cycles/s", "correct"
    );
    for cell in &report.cells {
        println!(
            "{:<16} {:<12} {:>9.1} {:>7} {:>12.1} {:>14.3e} {:>8.0}%",
            cell.benchmark,
            cell.scenario,
            cell.freq_mhz,
            cell.trials,
            cell.trials_per_sec,
            cell.cycles_per_sec,
            100.0 * cell.correct_fraction
        );
    }
}

/// One aggregated row of the `--profile` table.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileRow {
    /// Span category (`core`, `bench`, …).
    pub cat: &'static str,
    /// Span name (`study_build`, `sta`, `perf_cell`, …).
    pub name: &'static str,
    /// Spans aggregated into this row.
    pub count: usize,
    /// Total time across all spans of this phase, microseconds.
    pub total_us: u64,
}

/// Aggregates trace records into per-phase rows, longest total first.
/// Only spans contribute; counter records carry no duration.
pub fn profile_rows(records: &[sfi_obs::TraceRecord]) -> Vec<ProfileRow> {
    let mut rows: Vec<ProfileRow> = Vec::new();
    for record in records {
        let sfi_obs::TraceRecord::Span(span) = record else {
            continue;
        };
        match rows
            .iter_mut()
            .find(|row| row.cat == span.cat && row.name == span.name)
        {
            Some(row) => {
                row.count += 1;
                row.total_us += span.dur_us;
            }
            None => rows.push(ProfileRow {
                cat: span.cat,
                name: span.name,
                count: 1,
                total_us: span.dur_us,
            }),
        }
    }
    rows.sort_by_key(|row| std::cmp::Reverse(row.total_us));
    rows
}

/// Prints the per-phase time-attribution table from the global trace
/// store (the `--profile` mode of `perf-report`).
///
/// Percentages are relative to the longest phase, not a grand total:
/// phases nest (`study_build` contains `characterize_voltage`), so their
/// durations intentionally double-count.
pub fn print_profile() {
    sfi_obs::span::flush_thread();
    let records = sfi_obs::span::trace().snapshot(usize::MAX, None);
    let rows = profile_rows(&records);
    println!("\n=== profile: per-phase time attribution ===");
    let Some(longest) = rows.first().map(|row| row.total_us.max(1)) else {
        println!("(no spans recorded)");
        return;
    };
    println!(
        "{:<8} {:<28} {:>7} {:>12} {:>12} {:>7}",
        "cat", "phase", "count", "total ms", "mean us", "rel"
    );
    for row in &rows {
        println!(
            "{:<8} {:<28} {:>7} {:>12.3} {:>12.1} {:>6.1}%",
            row.cat,
            row.name,
            row.count,
            row.total_us as f64 / 1e3,
            row.total_us as f64 / row.count as f64,
            100.0 * row.total_us as f64 / longest as f64,
        );
    }
}

/// Encodes the report as the `BENCH_iss.json` document.
pub fn to_json(report: &PerfReport) -> Json {
    let total_elapsed: f64 = report.cells.iter().map(|c| c.elapsed_s).sum();
    let total_trials: usize = report.cells.iter().map(|c| c.trials).sum();
    Json::obj([
        ("version", Json::Num(FORMAT_VERSION as f64)),
        ("study", Json::Str(report.study.to_string())),
        ("model", Json::Str("dta".to_string())),
        (
            "cells",
            Json::Arr(
                report
                    .cells
                    .iter()
                    .map(|c| {
                        Json::obj([
                            ("benchmark", Json::Str(c.benchmark.clone())),
                            ("scenario", Json::Str(c.scenario.to_string())),
                            ("freq_mhz", Json::Num(c.freq_mhz)),
                            ("trials", Json::Num(c.trials as f64)),
                            ("elapsed_s", Json::Num(c.elapsed_s)),
                            ("trials_per_sec", Json::Num(c.trials_per_sec)),
                            ("cycles_per_sec", Json::Num(c.cycles_per_sec)),
                            ("mean_cycles", Json::Num(c.mean_cycles)),
                            ("correct_fraction", Json::Num(c.correct_fraction)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "totals",
            Json::obj([
                ("trials", Json::Num(total_trials as f64)),
                ("elapsed_s", Json::Num(total_elapsed)),
                (
                    "trials_per_sec",
                    Json::Num(total_trials as f64 / total_elapsed.max(1e-9)),
                ),
            ]),
        ),
    ])
}

/// The outcome of a one-sided baseline comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineVerdict {
    /// `totals.trials_per_sec` of the baseline document.
    pub baseline_tps: f64,
    /// `totals.trials_per_sec` of the current report.
    pub current_tps: f64,
    /// Whether the current throughput is within the tolerated drop.
    pub pass: bool,
}

/// Gates the report against a baseline document, one-sided: fails only if
/// the current total throughput drops more than `tolerance` below the
/// baseline's.  Running *faster* always passes — baselines recorded on
/// slower hardware must not fail an uphill comparison.
pub fn check_baseline(
    report: &PerfReport,
    baseline: &Json,
    tolerance: f64,
) -> Result<BaselineVerdict, String> {
    let baseline_tps = baseline
        .get("totals")
        .and_then(|t| t.get("trials_per_sec"))
        .and_then(Json::as_f64)
        .filter(|tps| tps.is_finite() && *tps > 0.0)
        .ok_or("baseline has no positive totals.trials_per_sec")?;
    let current = to_json(report);
    let current_tps = current
        .get("totals")
        .and_then(|t| t.get("trials_per_sec"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    Ok(BaselineVerdict {
        baseline_tps,
        current_tps,
        pass: current_tps >= baseline_tps * (1.0 - tolerance),
    })
}

/// Writes the JSON document to `path` atomically (temp file + rename).
pub fn write_json(report: &PerfReport, path: &str) -> std::io::Result<()> {
    let text = to_json(report).to_string();
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, &text)?;
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(flags: &[&str]) -> Vec<String> {
        flags.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_accepts_the_flags() {
        let args =
            PerfArgs::parse(&argv(&["--quick", "--trials", "3", "--out", "x.json"])).unwrap();
        assert!(args.quick);
        assert_eq!(args.trials, Some(3));
        assert_eq!(args.out_path(), "x.json");
        assert_eq!(args.timed_trials(), 3);
    }

    #[test]
    fn quick_mode_never_defaults_to_the_tracked_baseline() {
        // `perf-report --quick` (the CI smoke command) must not clobber the
        // committed paper-32bit BENCH_iss.json with fast-8bit numbers.
        assert_eq!(PerfArgs::default().out_path(), "BENCH_iss.json");
        let quick = PerfArgs {
            quick: true,
            ..Default::default()
        };
        assert_eq!(quick.out_path(), "BENCH_iss_quick.json");
    }

    #[test]
    fn parse_rejects_bad_input() {
        for bad in [&["--frob"][..], &["--trials"], &["--trials", "0"]] {
            assert!(PerfArgs::parse(&argv(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn defaults_differ_by_mode() {
        assert_eq!(PerfArgs::default().timed_trials(), 30);
        let quick = PerfArgs {
            quick: true,
            ..Default::default()
        };
        assert_eq!(quick.timed_trials(), 6);
    }

    #[test]
    fn parse_accepts_the_baseline_gate() {
        let args = PerfArgs::parse(&argv(&[
            "--baseline",
            "BENCH_iss.json",
            "--tolerance",
            "0.1",
        ]))
        .unwrap();
        assert_eq!(args.baseline.as_deref(), Some("BENCH_iss.json"));
        assert!((args.tolerance - 0.1).abs() < 1e-12);
        assert!((PerfArgs::default().tolerance - 0.05).abs() < 1e-12);
        for bad in [
            &["--baseline"][..],
            &["--tolerance"],
            &["--tolerance", "1.5"],
            &["--tolerance", "-0.1"],
        ] {
            assert!(PerfArgs::parse(&argv(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn baseline_gate_is_one_sided() {
        let report = PerfReport {
            study: "fast-8bit",
            cells: vec![PerfCell {
                benchmark: "median".into(),
                scenario: "below_limit",
                freq_mhz: 700.0,
                trials: 10,
                elapsed_s: 1.0, // 10 trials/sec
                trials_per_sec: 10.0,
                cycles_per_sec: 1e6,
                mean_cycles: 1e5,
                correct_fraction: 1.0,
            }],
        };
        let baseline =
            |tps: f64| Json::obj([("totals", Json::obj([("trials_per_sec", Json::Num(tps))]))]);
        // Slight drop within tolerance: pass.
        assert!(check_baseline(&report, &baseline(10.4), 0.05).unwrap().pass);
        // Drop beyond tolerance: fail.
        assert!(!check_baseline(&report, &baseline(11.0), 0.05).unwrap().pass);
        // Much faster than the baseline: always pass (one-sided).
        assert!(check_baseline(&report, &baseline(1.0), 0.05).unwrap().pass);
        // A baseline without totals is an error, not a silent pass.
        assert!(check_baseline(&report, &Json::Null, 0.05).is_err());
    }

    #[test]
    fn parse_accepts_profile() {
        assert!(PerfArgs::parse(&argv(&["--profile"])).unwrap().profile);
        assert!(!PerfArgs::default().profile);
    }

    #[test]
    fn profile_rows_aggregate_spans_by_phase() {
        use sfi_obs::{SpanRecord, TraceRecord};
        let span = |name: &'static str, dur_us: u64| {
            TraceRecord::Span(SpanRecord {
                id: 1,
                parent: 0,
                name,
                cat: "bench",
                tid: 1,
                job: None,
                start_us: 0,
                dur_us,
                args: Default::default(),
            })
        };
        let rows = profile_rows(&[
            span("perf_cell", 100),
            span("perf_cell", 300),
            span("study_build", 250),
        ]);
        assert_eq!(rows.len(), 2);
        // Longest total first.
        assert_eq!(rows[0].name, "perf_cell");
        assert_eq!(rows[0].count, 2);
        assert_eq!(rows[0].total_us, 400);
        assert_eq!(rows[1].name, "study_build");
    }

    #[test]
    fn quick_report_runs_and_encodes() {
        let args = PerfArgs {
            quick: true,
            trials: Some(1),
            ..Default::default()
        };
        let report = run(&args);
        // 3 quick kernels x 2 scenarios.
        assert_eq!(report.cells.len(), 6);
        assert!(report.cells.iter().all(|c| c.trials_per_sec > 0.0));
        let json = to_json(&report);
        let parsed = Json::parse(&json.to_string()).expect("valid JSON");
        assert_eq!(parsed.get("version").and_then(Json::as_u64), Some(1));
        assert_eq!(
            parsed.get("cells").and_then(Json::as_arr).map(|c| c.len()),
            Some(6)
        );
    }
}
