//! Cross-crate integration tests: netlist → timing → fault models → ISS →
//! kernels → experiment harness.

use sfi_core::experiment::{run_experiment, FaultModel};
use sfi_core::study::{CaseStudy, CaseStudyConfig};
use sfi_cpu::{Core, RunConfig};
use sfi_fault::OperatingPoint;
use sfi_kernels::paper_suite;

fn fast_study() -> CaseStudy {
    CaseStudy::build(CaseStudyConfig::fast_for_tests())
}

#[test]
fn every_benchmark_runs_fault_free_through_the_harness() {
    let study = fast_study();
    let point = OperatingPoint::new(study.sta_limit_mhz(0.7) * 0.9, 0.7);
    for bench in paper_suite(7) {
        let summary = run_experiment(&study, bench.as_ref(), FaultModel::None, point, 2, 1);
        assert_eq!(summary.finished_fraction(), 1.0, "{}", bench.name());
        assert_eq!(summary.correct_fraction(), 1.0, "{}", bench.name());
        assert_eq!(summary.mean_fi_rate(), 0.0, "{}", bench.name());
    }
}

#[test]
fn model_c_is_error_free_below_the_sta_limit_for_all_benchmarks() {
    let study = fast_study();
    let point = OperatingPoint::new(study.sta_limit_mhz(0.7) * 0.97, 0.7);
    for bench in paper_suite(7) {
        let summary = run_experiment(
            &study,
            bench.as_ref(),
            FaultModel::StatisticalDta,
            point,
            2,
            3,
        );
        assert_eq!(summary.correct_fraction(), 1.0, "{}", bench.name());
    }
}

#[test]
fn overscaling_eventually_breaks_every_benchmark() {
    let study = fast_study();
    let point = OperatingPoint::new(study.sta_limit_mhz(0.7) * 2.5, 0.7).with_noise_sigma_mv(10.0);
    for bench in paper_suite(7) {
        let summary = run_experiment(
            &study,
            bench.as_ref(),
            FaultModel::StatisticalDta,
            point,
            3,
            5,
        );
        assert!(
            summary.correct_fraction() < 1.0,
            "{} should not survive 2.5x overscaling",
            bench.name()
        );
        assert!(summary.mean_fi_rate() > 0.0, "{}", bench.name());
    }
}

#[test]
fn benchmark_suite_matches_table1_characteristics() {
    // Compute-vs-control ordering of Table 1: matmul is the most compute
    // heavy, dijkstra the most control heavy.
    let mut fractions = std::collections::BTreeMap::new();
    for bench in paper_suite(7) {
        let mut core = Core::new(bench.program().clone(), bench.dmem_words());
        bench.initialize(core.memory_mut());
        assert!(core.run(&RunConfig::default()).finished());
        let mix = core.stats().mix(core.program());
        fractions.insert(
            bench.name().to_string(),
            (mix.compute_fraction(), mix.control_fraction()),
        );
    }
    assert!(fractions["mat_mult_16bit"].0 > fractions["median"].0);
    assert!(fractions["dijkstra"].1 > fractions["mat_mult_16bit"].1);
}

#[test]
fn retire_counts_cover_every_instruction_of_every_kernel() {
    for bench in sfi_kernels::extended_suite(1) {
        let mut core = Core::new(bench.program().clone(), bench.dmem_words());
        bench.initialize(core.memory_mut());
        assert!(core.run(&RunConfig::default()).finished());
        let (stats, name) = (core.stats(), bench.name());
        assert_eq!(stats.retired.len(), bench.program().len(), "{name}");
        let retired: u64 = stats.retired.iter().sum();
        assert_eq!(retired, stats.instructions, "{name}");
    }
}

#[test]
fn straight_line_run_mix_equals_the_static_mix() {
    // Each instruction of a straight-line program retires exactly once.
    let source = "l.addi r2, r0, 6\nl.muli r3, r2, 7\nl.sw 0(r0), r3\nl.lwz r1, 0(r0)\n\
                  l.sfeq r2, r3\nl.bf 0\nl.nop\nl.j 0";
    let program = sfi_asm::assemble(source).expect("valid assembly").program;
    let mut core = Core::new(program.clone(), 16);
    assert!(core.run(&RunConfig::default()).finished());
    let report = sfi_verify::verify(&program, &sfi_verify::VerifyConfig::new(16));
    assert_eq!(report.mix.total(), 8);
    assert_eq!(core.stats().mix(&program), report.mix);
}
