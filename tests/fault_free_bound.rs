//! Oracle tests for the fault-free bound, `FaultInjector::never_faults`.
//!
//! Each test checks the bound against a reference of its own rather than
//! against the code that computes it:
//!
//! * soundness: the injected-fault count of the real model driven through
//!   `Core::run_with_injector`;
//! * the curve bound: dense sampling of `VddDelayCurve::delay_factor`;
//! * tightness: the analytic fault-free frequency worked out here from
//!   the characterization, and the benchmark's operating points.
//!
//! None of these tests runs trials through `TrialContext`, so the
//! process-wide trial counters stay untouched.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sfi_core::study::{CaseStudy, CaseStudyConfig};
use sfi_cpu::{Core, FaultInjector, RunConfig};
use sfi_fault::{OperatingPoint, WORST_FACTOR_GUARD_BAND};
use sfi_kernels::{extended_suite, Benchmark};
use sfi_netlist::alu::AluOp;
use sfi_timing::{period_ps_to_freq_mhz, VddDelayCurve, VoltageNoise};

const VDD: f64 = 0.7;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Model {
    B,
    BPlus,
    C,
}

fn injector(
    study: &CaseStudy,
    model: Model,
    point: OperatingPoint,
    seed: u64,
) -> Box<dyn FaultInjector> {
    match model {
        Model::B => Box::new(study.model_b(point)),
        Model::BPlus => Box::new(study.model_b_plus(point, seed)),
        Model::C => Box::new(study.model_c(point, seed)),
    }
}

/// The highest clock at which `model` cannot fault, computed from the
/// characterization: the worst delay the model compares against the
/// period, slowed by the worst clipped droop.  The fitted curve falls with
/// Vdd (checked here), so the worst droop sits at the low clip end.
fn analytic_threshold_mhz(study: &CaseStudy, model: Model, noise: VoltageNoise) -> f64 {
    let ch = study.characterization(VDD);
    let curve = study.vdd_delay_curve();
    let low = VDD - noise.max_excursion_volts();
    assert!(curve.delay_factor(low) >= curve.delay_factor(VDD + noise.max_excursion_volts()));
    let worst_delay_ps = match model {
        Model::B | Model::BPlus => ch.sta_critical_path_ps(),
        Model::C => AluOp::ALL
            .iter()
            .flat_map(|&op| {
                (0..ch.endpoint_count()).filter_map(move |e| ch.cdf(op, e).max_delay_ps())
            })
            .fold(0.0, f64::max),
    };
    let factor = match model {
        Model::B => 1.0,
        Model::BPlus | Model::C => curve.delay_factor(low) / curve.delay_factor(VDD),
    };
    period_ps_to_freq_mhz(worst_delay_ps * factor)
}

/// Faults the real model injects into one run of `benchmark`.
fn faults_injected(benchmark: &dyn Benchmark, injector: &mut dyn FaultInjector) -> u64 {
    let mut core = Core::new(benchmark.program().clone(), benchmark.dmem_words());
    benchmark.initialize(core.memory_mut());
    let config = RunConfig {
        max_cycles: u64::MAX / 4,
        fi_window: Some(benchmark.fi_window()),
    };
    core.run_with_injector(&config, injector);
    core.stats().injected_faults
}

#[test]
fn never_faults_is_sound_on_every_kernel_and_flips_at_the_analytic_threshold() {
    let study = CaseStudy::build(CaseStudyConfig::fast_for_tests());
    let suite = extended_suite(7);
    assert_eq!(suite.len(), 9);
    for model in [Model::B, Model::BPlus, Model::C] {
        for sigma_mv in [0.0, 10.0, 25.0] {
            for clip in [2.0, 3.0] {
                let noise = VoltageNoise::with_sigma_mv(sigma_mv).with_clip_sigmas(clip);
                let threshold = analytic_threshold_mhz(&study, model, noise);
                let case = format!("{model:?} sigma {sigma_mv} mV clip {clip}");
                // Just below, just above and clearly above the threshold.
                // Wherever the bound claims a fault-free point, the real
                // model must inject nothing: just below it the clipped
                // droop (a point mass of Phi(-clip) per cycle) lands within
                // 1e-6 of a violation.  Model B draws nothing, so one seed
                // covers it.
                let seeds = if model == Model::B { 1 } else { 4 };
                for (scale, expected) in [(1.0 - 1e-6, true), (1.0 + 1e-6, false), (1.02, false)] {
                    let point = OperatingPoint::new(threshold * scale, VDD).with_noise(noise);
                    let never_faults = injector(&study, model, point, 0).never_faults();
                    if never_faults {
                        for benchmark in &suite {
                            for seed in 0..seeds {
                                let mut inj = injector(&study, model, point, seed);
                                assert_eq!(
                                    faults_injected(benchmark.as_ref(), inj.as_mut()),
                                    0,
                                    "{case}: {} seed {seed} at {scale} x threshold",
                                    benchmark.name()
                                );
                            }
                        }
                    }
                    assert_eq!(never_faults, expected, "{case}: at {scale} x threshold");
                    // Above it, models B and B+ are deterministic at the
                    // clip point, so the bound is tight: faults do land.
                    if !expected && model != Model::C {
                        let faults: u64 = suite
                            .iter()
                            .map(|b| {
                                faults_injected(
                                    b.as_ref(),
                                    injector(&study, model, point, 1).as_mut(),
                                )
                            })
                            .sum();
                        assert!(faults > 0, "{case}: no fault at {scale} x threshold");
                    }
                }
            }
        }
    }
}

#[test]
fn max_delay_factor_bounds_dense_sampling_of_random_non_monotone_curves() {
    let mut rng = SmallRng::seed_from_u64(0x5EED);
    for case in 0..500 {
        let knots = rng.gen_range(2..9usize);
        let mut v = rng.gen_range(0.3..0.6);
        let samples: Vec<(f64, f64)> = (0..knots)
            .map(|_| {
                v += rng.gen_range(0.01..0.1);
                (v, rng.gen_range(0.5..2.0))
            })
            .collect();
        let curve = VddDelayCurve::from_samples(&samples);
        // Intervals inside, across and beyond the sampled range.
        let lo = rng.gen_range(0.2..1.2);
        let hi = lo + rng.gen_range(0.0..0.3);
        let bound = curve.max_delay_factor(lo, hi);
        let steps = 4000;
        let sampled = (0..=steps)
            .map(|i| curve.delay_factor(lo + (hi - lo) * i as f64 / steps as f64))
            .fold(f64::NEG_INFINITY, f64::max);
        // Interpolation can round a few ulps above a knot; the models'
        // guard band is what covers that.
        assert!(
            sampled <= bound * (1.0 + WORST_FACTOR_GUARD_BAND),
            "case {case}: sampled {sampled} above bound {bound} on [{lo}, {hi}] for {samples:?}"
        );
    }
}

#[test]
fn benchmark_operating_points_sit_on_the_expected_side_of_the_bound() {
    // The paper's 32-bit study at 10 mV, as the benchmark runs it: the
    // bound must hold at every near_limit point (0.90/0.93/0.96 x STA) and
    // must not at 0.97 x STA or at the overscaled points.
    let study = CaseStudy::build(CaseStudyConfig::paper());
    let sta = study.sta_limit_mhz(VDD);
    let point = |scale: f64| OperatingPoint::new(sta * scale, VDD).with_noise_sigma_mv(10.0);
    for scale in [0.90, 0.93, 0.96] {
        assert!(
            study.model_c(point(scale), 1).never_faults(),
            "model C at {scale} x STA"
        );
    }
    for scale in [0.97, 1.25, 1.275, 1.30] {
        assert!(
            !study.model_c(point(scale), 1).never_faults(),
            "model C at {scale} x STA"
        );
        assert!(
            !study.model_b_plus(point(scale), 1).never_faults(),
            "model B+ at {scale} x STA"
        );
    }
    // The threshold itself, from the characterization: 0.9698 x STA.
    let threshold =
        analytic_threshold_mhz(&study, Model::C, VoltageNoise::with_sigma_mv(10.0)) / sta;
    assert!(
        (0.9690..0.9705).contains(&threshold),
        "threshold {threshold} x STA"
    );
}
