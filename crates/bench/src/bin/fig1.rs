//! Fig. 1: FI rate and finished/correct probability of the median
//! benchmark under model B (no noise) and model B+ (10 mV, 25 mV), around
//! the static timing limit.
//!
//! The three panels are one [`CampaignSpec`] run by the parallel campaign
//! engine, so `--threads` and `--checkpoint FILE` apply.

use sfi_bench::{print_header, ExperimentArgs};
use sfi_campaign::{CampaignSpec, TrialBudget};
use sfi_core::experiment::{frequency_grid, FaultModel};
use sfi_fault::OperatingPoint;
use sfi_kernels::median::MedianBenchmark;

fn main() {
    let args = ExperimentArgs::from_env();
    print_header(
        "Fig. 1: median under models B / B+ near the STA limit",
        &args,
    );
    let study = args.build_study();
    let sta = study.sta_limit_mhz(0.7);
    println!("STA limit @ 0.7 V: {sta:.1} MHz");

    let panels = [
        (
            "(a) model B,  sigma = 0 mV",
            0.0,
            FaultModel::StaPeriodViolation,
        ),
        (
            "(b) model B+, sigma = 10 mV",
            10.0,
            FaultModel::StaWithNoise,
        ),
        (
            "(c) model B+, sigma = 25 mV",
            25.0,
            FaultModel::StaWithNoise,
        ),
    ];

    let mut spec = CampaignSpec::new("fig1", 7);
    let median = spec.add_benchmark(MedianBenchmark::new(129, 1));
    let sweeps: Vec<_> = panels
        .iter()
        .map(|&(_, sigma_mv, model)| {
            let point = OperatingPoint::new(sta, 0.7).with_noise_sigma_mv(sigma_mv);
            // Scan a narrow band around the first point of fault injection,
            // which moves to lower frequencies as the noise level grows.
            let lo = sta * (1.0 - 0.004 * (1.0 + sigma_mv));
            let hi = sta * 1.01;
            let freqs = frequency_grid(lo, hi, args.points);
            spec.add_frequency_sweep(
                median,
                model,
                point,
                &freqs,
                TrialBudget::fixed(args.trials),
            )
        })
        .collect();

    let result = args.run(&study, &spec);

    for (&(label, _, _), cells) in panels.iter().zip(sweeps) {
        println!("\n--- {label} ---");
        println!(
            "{:>10} {:>10} {:>10} {:>14}",
            "f [MHz]", "finished", "correct", "FI/kCycle"
        );
        for p in &result.sweep_points(&spec, cells) {
            println!(
                "{:>10.1} {:>9.0}% {:>9.0}% {:>14.2}",
                p.freq_mhz,
                100.0 * p.summary.finished_fraction(),
                100.0 * p.summary.correct_fraction(),
                p.summary.mean_fi_rate()
            );
        }
    }
}
