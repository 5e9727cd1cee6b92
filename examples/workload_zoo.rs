//! Workload zoo: run every kernel of the extended suite — the paper's four
//! benchmarks plus FFT, FIR, CRC32 and the bitonic sorting network —
//! fault-free for a property table, then push the four new kernels through
//! a statistical fault-injection campaign at an over-scaled clock.
//!
//! Run with `cargo run --release --example workload_zoo`.

use sfi_campaign::{CampaignEngine, CampaignSpec, CellSpec, TrialBudget};
use sfi_core::experiment::FaultModel;
use sfi_core::study::{CaseStudy, CaseStudyConfig};
use sfi_cpu::{Core, RunConfig};
use sfi_fault::OperatingPoint;
use sfi_isa::AluClass;
use sfi_kernels::extended_suite;

fn main() {
    // Fault-free property table (Table 1 extended): one direct ISS run per
    // kernel, no characterization needed.
    println!(
        "{:<16} {:>10} {:>10} {:>10} {:>12}  output error metric",
        "benchmark", "compute", "control", "mul/kcyc", "kernel cyc"
    );
    for bench in extended_suite(1) {
        let mut core = Core::new(bench.program().clone(), bench.dmem_words());
        bench.initialize(core.memory_mut());
        let outcome = core.run(&RunConfig::default());
        assert!(outcome.finished(), "{}: {outcome:?}", bench.name());
        assert_eq!(
            bench.output_error(core.memory()),
            0.0,
            "{} must be exact fault-free",
            bench.name()
        );
        let stats = core.stats();
        let mix = stats.mix(core.program());
        println!(
            "{:<16} {:>9.1}% {:>9.1}% {:>10.1} {:>12}  {}",
            bench.name(),
            100.0 * mix.compute_fraction(),
            100.0 * mix.control_fraction(),
            mix.class_count(AluClass::Mul) as f64 * 1000.0 / stats.cycles as f64,
            stats.cycles,
            bench.error_metric()
        );
    }

    // A small model-C campaign over the four new kernels near the STA
    // limit.  Scaled-down case study so the example runs in seconds.
    println!();
    println!("characterizing the execution-stage datapath ...");
    let study = CaseStudy::build(CaseStudyConfig {
        alu_width: 16,
        cycles_per_op: 128,
        voltages: vec![0.7],
        ..CaseStudyConfig::paper()
    });
    let sta = study.sta_limit_mhz(0.7);
    println!("static timing limit @ 0.7 V: {sta:.1} MHz");

    let mut spec = CampaignSpec::new("workload_zoo", 7);
    let zoo: Vec<usize> = extended_suite(1)
        .into_iter()
        .filter(|b| ["fft", "fir", "crc32", "bitonic_sort"].contains(&b.name()))
        .map(|b| spec.add_shared_benchmark(b.into()))
        .collect();
    for &b in &zoo {
        for overscale in [1.02, 1.12] {
            spec.add_cell(CellSpec {
                benchmark: b,
                model: FaultModel::StatisticalDta,
                point: OperatingPoint::new(sta * overscale, 0.7).with_noise_sigma_mv(10.0),
                budget: TrialBudget::fixed(8),
            });
        }
    }
    let result = CampaignEngine::new().run(&study, &spec);
    println!();
    println!(
        "{:<16} {:>10} {:>10} {:>10} {:>12}",
        "benchmark", "f/STA", "finished", "correct", "mean error"
    );
    for (cell, spec_cell) in result.cells.iter().zip(spec.cells()) {
        let bench = &spec.benchmarks()[spec_cell.benchmark];
        println!(
            "{:<16} {:>9.2}x {:>9.1}% {:>9.1}% {:>12.4}",
            bench.name(),
            spec_cell.point.freq_mhz() / sta,
            100.0 * cell.stats.finished_fraction(),
            100.0 * cell.stats.correct_fraction(),
            cell.stats.mean_output_error().unwrap_or(f64::NAN),
        );
    }
}
