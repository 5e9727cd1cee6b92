//! Fig. 5: finished / correct / FI-rate / relative-error vs frequency for
//! the median benchmark at Vdd ∈ {0.7, 0.8} V and σ ∈ {0, 10, 25} mV
//! (model C), with the point of first failure and its gain over the STA
//! limit.
//!
//! All six panels are one [`CampaignSpec`]: the engine interleaves their
//! trials across worker threads, and `--checkpoint FILE` makes the whole
//! figure resumable.

use sfi_bench::{print_header, ExperimentArgs};
use sfi_campaign::{CampaignSpec, TrialBudget};
use sfi_core::experiment::{frequency_grid, overscaling_gain, point_of_first_failure, FaultModel};
use sfi_fault::OperatingPoint;
use sfi_kernels::median::MedianBenchmark;

fn main() {
    let args = ExperimentArgs::from_env();
    print_header("Fig. 5: median benchmark under model C", &args);
    let study = args.build_study();

    let panels = [
        ("(a)", 0.7, 0.0),
        ("(b)", 0.7, 10.0),
        ("(c)", 0.7, 25.0),
        ("(d)", 0.8, 0.0),
        ("(e)", 0.8, 10.0),
        ("(f)", 0.8, 25.0),
    ];

    let mut spec = CampaignSpec::new("fig5", 11);
    let median = spec.add_benchmark(MedianBenchmark::new(129, 1));
    let sweeps: Vec<_> = panels
        .iter()
        .map(|&(_, vdd, sigma)| {
            let sta = study.sta_limit_mhz(vdd);
            let point = OperatingPoint::new(sta, vdd).with_noise_sigma_mv(sigma);
            let freqs = frequency_grid(sta * 0.92, sta * 1.35, args.points);
            spec.add_frequency_sweep(
                median,
                FaultModel::StatisticalDta,
                point,
                &freqs,
                TrialBudget::fixed(args.trials),
            )
        })
        .collect();

    let result = args.run(&study, &spec);

    for (&(panel, vdd, sigma), cells) in panels.iter().zip(sweeps) {
        let sta = study.sta_limit_mhz(vdd);
        println!(
            "\n--- {panel} Vdd = {vdd} V, noise sigma = {sigma} mV (STA limit {sta:.1} MHz) ---"
        );
        println!(
            "{:>10} {:>10} {:>10} {:>12} {:>14}",
            "f [MHz]", "finished", "correct", "FI/kCycle", "rel. error"
        );
        let sweep = result.sweep_points(&spec, cells);
        for p in &sweep {
            println!(
                "{:>10.1} {:>9.0}% {:>9.0}% {:>12.2} {:>13.1}%",
                p.freq_mhz,
                100.0 * p.summary.finished_fraction(),
                100.0 * p.summary.correct_fraction(),
                p.summary.mean_fi_rate(),
                100.0 * p.summary.mean_output_error()
            );
        }
        match point_of_first_failure(&sweep) {
            Some(poff) => println!(
                "PoFF = {:.1} MHz, gain over STA = {:+.1}%",
                poff,
                100.0 * overscaling_gain(poff, sta)
            ),
            None => println!("PoFF not reached within the swept range"),
        }
    }
    println!(
        "\nPaper reference gains at the PoFF: (a) 11.4%, (b) 3.3%, (d) 10.1%, (e) 6.9%, (f) 0.1%."
    );
}
