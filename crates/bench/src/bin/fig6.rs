//! Fig. 6: finished / correct / FI-rate / output-error vs frequency for the
//! matrix-multiplication (8- and 16-bit), k-means and Dijkstra benchmarks
//! at 0.7 V with 10 mV supply noise, under model C, contrasted with the
//! hard failure threshold of model B+.
//!
//! The B+ probe and all four benchmark sweeps are cells of one
//! [`CampaignSpec`] executed by the parallel campaign engine.

use sfi_bench::{print_header, ExperimentArgs};
use sfi_campaign::{CampaignSpec, TrialBudget};
use sfi_core::experiment::{frequency_grid, overscaling_gain, point_of_first_failure, FaultModel};
use sfi_fault::OperatingPoint;
use sfi_kernels::dijkstra::DijkstraBenchmark;
use sfi_kernels::kmeans::KMeansBenchmark;
use sfi_kernels::matmul::{ElementWidth, MatrixMultiplyBenchmark};

fn main() {
    let args = ExperimentArgs::from_env();
    print_header(
        "Fig. 6: benchmark comparison under model C (0.7 V, sigma = 10 mV)",
        &args,
    );
    let study = args.build_study();
    let sta = study.sta_limit_mhz(0.7);
    println!("STA limit @ 0.7 V: {sta:.1} MHz");

    let point = OperatingPoint::new(sta, 0.7).with_noise_sigma_mv(10.0);
    let mut spec = CampaignSpec::new("fig6", 13);
    let benches = [
        spec.add_benchmark(MatrixMultiplyBenchmark::new(16, ElementWidth::Bits8, 2)),
        spec.add_benchmark(MatrixMultiplyBenchmark::new(16, ElementWidth::Bits16, 2)),
        spec.add_benchmark(KMeansBenchmark::new(8, 2, 12, 2)),
        spec.add_benchmark(DijkstraBenchmark::new(10, 2)),
    ];

    // Model B+ hard threshold, identical for all benchmarks.
    let probe = frequency_grid(sta * 0.9, sta * 1.05, 16);
    let bplus_cells = spec.add_frequency_sweep(
        benches[0],
        FaultModel::StaWithNoise,
        point,
        &probe,
        TrialBudget::fixed(args.trials.min(5)),
    );

    let panels = ["(a)", "(b)", "(c)", "(d)"];
    let sweeps: Vec<_> = benches
        .iter()
        .map(|&bench| {
            // Dijkstra has a very narrow transition region; sweep it more
            // finely.
            let name = spec.benchmarks()[bench].name();
            let span = if name == "dijkstra" { 1.12 } else { 1.35 };
            let freqs = frequency_grid(sta * 0.95, sta * span, args.points);
            spec.add_frequency_sweep(
                bench,
                FaultModel::StatisticalDta,
                point,
                &freqs,
                TrialBudget::fixed(args.trials),
            )
        })
        .collect();

    let result = args.run(&study, &spec);

    if let Some(threshold) = point_of_first_failure(&result.sweep_points(&spec, bplus_cells)) {
        println!("model B+ hard failure threshold (all benchmarks): {threshold:.1} MHz\n");
    }

    for (panel, (bench, cells)) in panels.iter().zip(benches.iter().zip(sweeps)) {
        let bench = &spec.benchmarks()[*bench];
        println!(
            "--- {panel} {} (error metric: {}) ---",
            bench.name(),
            bench.error_metric()
        );
        println!(
            "{:>10} {:>10} {:>10} {:>12} {:>14}",
            "f [MHz]", "finished", "correct", "FI/kCycle", "output error"
        );
        let sweep = result.sweep_points(&spec, cells);
        for p in &sweep {
            println!(
                "{:>10.1} {:>9.0}% {:>9.0}% {:>12.2} {:>14.4}",
                p.freq_mhz,
                100.0 * p.summary.finished_fraction(),
                100.0 * p.summary.correct_fraction(),
                p.summary.mean_fi_rate(),
                p.summary.mean_output_error()
            );
        }
        match point_of_first_failure(&sweep) {
            Some(poff) => println!(
                "PoFF = {poff:.1} MHz, gain over STA = {:+.1}%\n",
                100.0 * overscaling_gain(poff, sta)
            ),
            None => println!("PoFF not reached within the swept range\n"),
        }
    }
}
