//! Fig. 7: relative output error vs normalized core power for the median
//! benchmark (model C), translating frequency-over-scaling headroom into an
//! equivalent supply-voltage reduction at a fixed 707 MHz clock.
//!
//! All three noise series form one [`CampaignSpec`] (σ × gain grid) run by
//! the parallel campaign engine.

use sfi_bench::{print_header, ExperimentArgs};
use sfi_campaign::{CampaignSpec, TrialBudget};
use sfi_core::experiment::FaultModel;
use sfi_core::power::{equivalent_voltage_for_gain, PowerModel, TradeoffPoint};
use sfi_fault::OperatingPoint;
use sfi_kernels::median::MedianBenchmark;

fn main() {
    let args = ExperimentArgs::from_env();
    print_header(
        "Fig. 7: error vs core power trade-off for median (model C)",
        &args,
    );
    let study = args.build_study();
    let power = PowerModel::paper_28nm();
    let sta = study.sta_limit_mhz(0.7);
    let curve = study.vdd_delay_curve();
    println!("nominal operating point: {sta:.1} MHz @ 0.700 V, normalized power 1.000\n");

    let sigmas = [0.0, 10.0, 25.0];
    let gains: Vec<f64> = (0..args.points)
        .map(|i| 1.0 + 0.30 * i as f64 / (args.points - 1) as f64)
        .collect();

    let mut spec = CampaignSpec::new("fig7", 17);
    let median = spec.add_benchmark(MedianBenchmark::new(129, 1));
    let series: Vec<_> = sigmas
        .iter()
        .map(|&sigma| {
            let base = OperatingPoint::new(sta, 0.7).with_noise_sigma_mv(sigma);
            let freqs: Vec<f64> = gains.iter().map(|g| sta * g).collect();
            spec.add_frequency_sweep(
                median,
                FaultModel::StatisticalDta,
                base,
                &freqs,
                TrialBudget::fixed(args.trials),
            )
        })
        .collect();

    let result = args.run(&study, &spec);

    for (&sigma, cells) in sigmas.iter().zip(series) {
        println!("--- Vdd noise sigma = {sigma} mV ---");
        println!(
            "{:>8} {:>12} {:>16} {:>18}",
            "gain", "equiv. Vdd", "norm. power", "avg rel. error"
        );
        let mut points = Vec::new();
        for (gain, cell) in gains.iter().zip(cells) {
            let stats = &result.cells[cell].stats;
            // Error accounting: runs that do not finish count as 100 % error.
            let finished = stats.finished_fraction();
            let mean_err = stats.mean_output_error().unwrap_or(1.0);
            let error = finished * mean_err + (1.0 - finished);
            let vdd = equivalent_voltage_for_gain(curve, 0.7, *gain);
            let tp = TradeoffPoint {
                vdd,
                normalized_power: power.normalized_power(vdd, sta),
                average_relative_error: error,
            };
            println!(
                "{:>8.3} {:>11.3} V {:>16.3} {:>17.1}%",
                gain,
                tp.vdd,
                tp.normalized_power,
                100.0 * tp.average_relative_error
            );
            points.push(tp);
        }
        // Report the PoFF-equivalent point (last error-free point).
        if let Some(poff) = points
            .iter()
            .take_while(|p| p.average_relative_error == 0.0)
            .last()
        {
            println!(
                "error-free down to {:.3} V ({:.2}x power)",
                poff.vdd, poff.normalized_power
            );
        }
        println!();
    }
    println!("Paper reference: PoFF at ~0.93x power (0.667 V); 22% relative error at ~0.88x power (0.657 V).");
}
