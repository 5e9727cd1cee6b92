//! Property tests: the table-driven models C and B+, and model B (B+
//! without noise), produce bit-identical fault masks to naive references
//! that compute every cycle the way the pre-optimization implementations
//! did.
//!
//! Model C looks each cycle's endpoint probabilities up in per-point step
//! tables (one exact row per interval between the candidates' distinct
//! delays) and skips the noise sample and the lookup whenever its
//! per-point endpoint classes prove the noise cannot change a cycle's
//! mask; model B+ finds its mask among sorted per-endpoint factor
//! breakpoints, and skips the noise sample when the mask is constant over
//! the clipped noise range.  Both must still consume exactly the
//! reference's random numbers.  The sweep runs from below the
//! STA limit (every endpoint at p = 0) through the transition region
//! (partial endpoints) to 2.5 x STA (most endpoints at p = 1), and each
//! sequence is long enough that a single missing or extra draw shows up
//! as a different mask on a later cycle.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sfi_core::study::{CaseStudy, CaseStudyConfig};
use sfi_cpu::{ExStageContext, FaultInjector};
use sfi_fault::{
    alu_op_for_class, DtaFaultTable, OperatingPoint, StaWithNoiseModel, StatisticalDtaModel,
    WORST_FACTOR_GUARD_BAND,
};
use sfi_isa::AluClass;
use sfi_netlist::alu::AluDatapath;
use sfi_netlist::{DelayModel, VoltageScaling};
use sfi_timing::{
    characterize_alu, freq_mhz_to_period_ps, period_ps_to_freq_mhz, CharacterizationConfig,
    TimingCharacterization, VddDelayCurve,
};
use std::sync::Arc;

/// The pre-optimization model C, kept verbatim as the reference: per
/// endpoint it queries the characterization CDF (binary search per
/// endpoint, period divided by the per-cycle noise factor computed from
/// scratch) and draws a Bernoulli sample whenever the probability is
/// non-zero.
struct NaiveModelC {
    characterization: TimingCharacterization,
    point: OperatingPoint,
    curve: VddDelayCurve,
    rng: SmallRng,
}

impl FaultInjector for NaiveModelC {
    fn inject(&mut self, ctx: &ExStageContext) -> u32 {
        let noise = self.point.noise().sample_volts(&mut self.rng);
        if !ctx.fi_enabled {
            return 0;
        }
        let delay_factor = self.curve.noise_scaling_factor(self.point.vdd(), noise);
        let op = alu_op_for_class(ctx.alu_class);
        let period_ps = self.point.period_ps();
        let mut mask = 0u32;
        for endpoint in 0..self.characterization.endpoint_count().min(32) {
            let p = self
                .characterization
                .error_probability(op, endpoint, period_ps, delay_factor);
            if p > 0.0 && self.rng.gen_bool(p) {
                mask |= 1 << endpoint;
            }
        }
        mask
    }
}

/// The model B injector from before it became model B+ without noise,
/// kept verbatim as the reference: on every in-window cycle, the endpoints
/// whose STA delay exceeds the period.
struct NaiveModelB {
    endpoint_delays_ps: Vec<f64>,
    period_ps: f64,
}

impl NaiveModelB {
    fn violation_mask(&self, delay_factor: f64) -> u32 {
        let mut mask = 0u32;
        for (bit, &delay) in self.endpoint_delays_ps.iter().enumerate().take(32) {
            if delay * delay_factor > self.period_ps {
                mask |= 1 << bit;
            }
        }
        mask
    }
}

impl FaultInjector for NaiveModelB {
    fn inject(&mut self, ctx: &ExStageContext) -> u32 {
        if !ctx.fi_enabled {
            return 0;
        }
        self.violation_mask(1.0)
    }
}

/// The pre-optimization model B+, kept verbatim as the reference: a noise
/// sample every cycle, then the STA mask at that cycle's factor.
struct NaiveModelBPlus {
    sta: NaiveModelB,
    point: OperatingPoint,
    curve: VddDelayCurve,
    nominal_factor: f64,
    rng: SmallRng,
}

impl FaultInjector for NaiveModelBPlus {
    fn inject(&mut self, ctx: &ExStageContext) -> u32 {
        // A new independent noise value is drawn every cycle, also outside
        // the kernel window, to keep the noise sequence cycle-aligned.
        let noise = self.point.noise().sample_volts(&mut self.rng);
        if !ctx.fi_enabled {
            return 0;
        }
        let factor = self.curve.noise_scaling_factor_with_nominal(
            self.point.vdd(),
            noise,
            self.nominal_factor,
        );
        self.sta.violation_mask(factor)
    }
}

fn characterization() -> TimingCharacterization {
    let alu = AluDatapath::build(8);
    characterize_alu(
        &alu,
        &DelayModel::default_28nm(),
        &VoltageScaling::default_28nm(),
        &CharacterizationConfig {
            cycles_per_op: 48,
            ..Default::default()
        },
    )
}

fn curve() -> VddDelayCurve {
    VddDelayCurve::from_scaling(&VoltageScaling::default_28nm(), 0.6, 1.0, 5)
}

fn ctx(class: AluClass, cycle: u64, fi_enabled: bool) -> ExStageContext {
    ExStageContext {
        cycle,
        alu_class: class,
        operand_a: 0,
        operand_b: 0,
        result: 0,
        fi_enabled,
    }
}

/// From deep below the STA limit (every endpoint at p = 0) through the
/// transition region to far beyond it (most endpoints at p = 1), with the
/// operating points of the `overscaled` benchmark (1.25, 1.275 and
/// 1.30 x STA).
const FREQ_FACTORS: [f64; 14] = [
    0.9, 0.95, 0.98, 1.0, 1.02, 1.05, 1.1, 1.2, 1.25, 1.275, 1.3, 1.6, 2.0, 2.5,
];
const NOISE_SIGMAS_MV: [f64; 3] = [0.0, 10.0, 25.0];
const CYCLES: u64 = 1500;

/// The clock whose period, as `OperatingPoint::period_ps` computes it, is
/// nearest `period_ps`: the best of the few frequencies around
/// `1e6 / period_ps`, exact whenever one of them hits it.
fn freq_for_period(period_ps: f64) -> f64 {
    let miss = |freq: f64| (freq_mhz_to_period_ps(freq) - period_ps).abs();
    let mut best = period_ps_to_freq_mhz(period_ps);
    let (mut down, mut up) = (best, best);
    for _ in 0..4 {
        down = down.next_down();
        up = up.next_up();
        for freq in [down, up] {
            if miss(freq) < miss(best) {
                best = freq;
            }
        }
    }
    best
}

/// Periods where a mask bit of model B flips or a verdict of its B+ form
/// is taken: an endpoint's STA delay itself, one ulp either side of it,
/// and the relative guard band either side of it, inside which B+'s
/// construction-time `never_faults` and constant mask are computed from
/// factors 1 ± 1e-9 rather than from 1.0.
fn periods_at_endpoint_delays(delays: &[f64]) -> Vec<f64> {
    delays
        .iter()
        .flat_map(|&delay| {
            [
                delay,
                delay.next_up(),
                delay.next_down(),
                delay * (1.0 + WORST_FACTOR_GUARD_BAND),
                delay * (1.0 - WORST_FACTOR_GUARD_BAND),
            ]
        })
        .collect()
}

/// Drives `optimized` and `naive` through the same random sequence of
/// instruction classes and fault-injection-window flags and asserts every
/// mask matches.
fn assert_same_masks(
    optimized: &mut dyn FaultInjector,
    naive: &mut dyn FaultInjector,
    seed: u64,
    fi_rate: f64,
    case: &str,
) {
    let mut class_rng = SmallRng::seed_from_u64(seed ^ 0xC1A55);
    for cycle in 0..CYCLES {
        let class = AluClass::ALL[class_rng.gen_range(0..AluClass::ALL.len())];
        let fi_enabled = class_rng.gen_bool(fi_rate);
        let c = ctx(class, cycle, fi_enabled);
        assert_eq!(
            optimized.inject(&c),
            naive.inject(&c),
            "{} cycle {} class {} fi {}",
            case,
            cycle,
            class,
            fi_enabled
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn table_driven_model_c_matches_the_naive_reference(
        seed in any::<u64>(),
        fi_rate in prop::sample::select(vec![0.2, 0.8, 1.0]),
    ) {
        let ch = Arc::new(characterization());
        let table = Arc::new(DtaFaultTable::new(Arc::clone(&ch)));
        let shared_curve = Arc::new(curve());
        let sta = ch.sta_limit_mhz();
        for freq_factor in FREQ_FACTORS {
            for sigma_mv in NOISE_SIGMAS_MV {
                let point = OperatingPoint::new(sta * freq_factor, 0.7)
                    .with_noise_sigma_mv(sigma_mv);
                let mut optimized = StatisticalDtaModel::from_table(
                    Arc::clone(&table),
                    point,
                    Arc::clone(&shared_curve),
                    seed,
                );
                let mut naive = NaiveModelC {
                    characterization: (*ch).clone(),
                    point,
                    curve: curve(),
                    rng: SmallRng::seed_from_u64(seed),
                };
                let case = format!("model C at {freq_factor} x STA, {sigma_mv} mV");
                assert_same_masks(&mut optimized, &mut naive, seed, fi_rate, &case);
            }
        }
    }

    #[test]
    fn model_b_plus_matches_the_naive_reference(
        seed in any::<u64>(),
        fi_rate in prop::sample::select(vec![0.2, 0.8, 1.0]),
    ) {
        let ch = characterization();
        let delays: Arc<[f64]> = (0..ch.endpoint_count())
            .map(|e| ch.sta_endpoint_delay_ps(e))
            .collect();
        let shared_curve = Arc::new(curve());
        let sta = ch.sta_limit_mhz();
        for freq_factor in FREQ_FACTORS {
            for sigma_mv in NOISE_SIGMAS_MV {
                let point = OperatingPoint::new(sta * freq_factor, 0.7)
                    .with_noise_sigma_mv(sigma_mv);
                let mut optimized = StaWithNoiseModel::from_shared(
                    Arc::clone(&delays),
                    ch.vdd(),
                    point,
                    Arc::clone(&shared_curve),
                    seed,
                );
                let mut naive = NaiveModelBPlus {
                    sta: NaiveModelB {
                        endpoint_delays_ps: delays.to_vec(),
                        period_ps: point.period_ps(),
                    },
                    point,
                    curve: curve(),
                    nominal_factor: curve().delay_factor(point.vdd()),
                    rng: SmallRng::seed_from_u64(seed),
                };
                let case = format!("model B+ at {freq_factor} x STA, {sigma_mv} mV");
                assert_same_masks(&mut optimized, &mut naive, seed, fi_rate, &case);
            }
        }
    }

    #[test]
    fn model_b_matches_the_naive_reference(
        seed in any::<u64>(),
        fi_rate in prop::sample::select(vec![0.2, 0.8, 1.0]),
    ) {
        let study = CaseStudy::build(CaseStudyConfig::fast_for_tests());
        let ch = study.characterization(0.7);
        let delays: Vec<f64> = (0..ch.endpoint_count())
            .map(|e| ch.sta_endpoint_delay_ps(e))
            .collect();
        let sta = study.sta_limit_mhz(0.7);
        let freqs = FREQ_FACTORS
            .iter()
            .map(|factor| sta * factor)
            .chain(periods_at_endpoint_delays(&delays).into_iter().map(freq_for_period));
        for freq in freqs {
            for sigma_mv in NOISE_SIGMAS_MV {
                // Model B ignores the point's noise level.
                let point = OperatingPoint::new(freq, 0.7).with_noise_sigma_mv(sigma_mv);
                let mut optimized = study.model_b(point);
                let mut naive = NaiveModelB {
                    endpoint_delays_ps: delays.clone(),
                    period_ps: point.period_ps(),
                };
                let case = format!("model B at {} ps, {sigma_mv} mV", point.period_ps());
                prop_assert!(
                    !optimized.never_faults() || naive.violation_mask(1.0) == 0,
                    "{case}: never_faults claimed for a faulting period"
                );
                assert_same_masks(&mut optimized, &mut naive, seed, fi_rate, &case);
            }
        }
    }
}
