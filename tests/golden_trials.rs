//! Golden trial digests: every `TrialResult` field of a fixed grid of
//! trials, compared byte for byte against `tests/golden/trial_digests.tsv`.
//!
//! The grid is the nine kernels of `extended_suite(1)` × models None,
//! A (p = 1e-4), B, B+ and C × {0.95, 1.15, 2.5} × the STA limit at 0.7 V
//! with 10 mV supply noise, two trials each (`run_experiment` seed 1) on
//! the fast 8-bit case study: 270 rows.  Each f64 is written as the hex
//! of its bit pattern, so a row only matches if every bit does.
//!
//! A change that must not move any trial result keeps the table
//! byte-identical.  A change that moves results on purpose replaces the
//! table with the one this test prints on a mismatch.

use sfi_core::experiment::{run_experiment, FaultModel};
use sfi_core::study::{CaseStudy, CaseStudyConfig};
use sfi_fault::OperatingPoint;
use sfi_kernels::extended_suite;
use std::fmt::Write;

const VDD: f64 = 0.7;
const SIGMA_MV: f64 = 10.0;
const STA_FACTORS: [f64; 3] = [0.95, 1.15, 2.5];
const TRIALS: usize = 2;
const SEED: u64 = 1;

const MODELS: [(&str, FaultModel); 5] = [
    ("none", FaultModel::None),
    ("A", FaultModel::FixedProbability(1e-4)),
    ("B", FaultModel::StaPeriodViolation),
    ("B+", FaultModel::StaWithNoise),
    ("C", FaultModel::StatisticalDta),
];

fn actual_table() -> String {
    let study = CaseStudy::build(CaseStudyConfig::fast_for_tests());
    let sta = study.sta_limit_mhz(VDD);
    let mut table = String::from(
        "kernel\tmodel\tsta_factor\ttrial\tfinished\tcorrect\toutput_error\tfi_rate_per_kcycle\tcycles\n",
    );
    for (index, bench) in extended_suite(1).iter().enumerate() {
        for (label, model) in MODELS {
            for factor in STA_FACTORS {
                let point = OperatingPoint::new(factor * sta, VDD).with_noise_sigma_mv(SIGMA_MV);
                let summary = run_experiment(&study, bench.as_ref(), model, point, TRIALS, SEED);
                for (trial, t) in summary.trials.iter().enumerate() {
                    writeln!(
                        table,
                        "{index}:{}\t{label}\t{factor}\t{trial}\t{}\t{}\t{:016x}\t{:016x}\t{}",
                        bench.name(),
                        t.finished,
                        t.correct,
                        t.output_error.to_bits(),
                        t.fi_rate_per_kcycle.to_bits(),
                        t.cycles
                    )
                    .unwrap();
                }
            }
        }
    }
    table
}

#[test]
fn trial_results_match_the_golden_digests() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/trial_digests.tsv"
    );
    let expected = std::fs::read_to_string(path).unwrap_or_default();
    let actual = actual_table();
    assert_eq!(
        actual.lines().count(),
        1 + 9 * MODELS.len() * STA_FACTORS.len() * TRIALS
    );
    if actual != expected {
        panic!("trial results differ from {path}; the actual table is:\n{actual}");
    }
}
