//! Models B and B+: static-timing-based period-violation fault injection.
//!
//! Both models are one injector, [`StaWithNoiseModel`]: model B is model
//! B+ at an operating point without supply noise.  At σ = 0 the noise
//! sample is 0.0 and draws nothing, and the delay scaling factor is
//! `delay_factor(vdd) / delay_factor(vdd)`, exactly 1.0, so every
//! in-window cycle flips the endpoints whose STA delay exceeds the clock
//! period — the paper's hard threshold (Fig. 1(a)).
//!
//! # Factor breakpoints
//!
//! An endpoint with STA delay `d` is in the mask of a cycle whose delay
//! scaling factor is `f` when `d * f > period`.  Rounded multiplication by
//! a positive `d` is monotone in `f`, so the factors that flip the
//! endpoint are exactly those at or above one breakpoint: the smallest
//! `f` with `d * f > period`.  At construction the model finds it by
//! starting from `period / d` and stepping by single ulps until it is
//! exact, then sorts the breakpoints and keeps the cumulative mask below
//! each.  A cycle's mask is then one binary search over at most 32
//! breakpoints, bit-identical to comparing every endpoint.
//!
//! # Random-number consumption of model B+
//!
//! Model B+ draws nothing but its noise sample: two words per cycle, none
//! at σ = 0.  Its mask can only grow with the factor, and every factor the
//! clipped noise can produce lies between the guard-banded best and worst
//! factors of the operating point.  When the masks at those two factors
//! agree, the mask is the same on every cycle; the model then advances the
//! generator with
//! [`VoltageNoise::skip_sample`](sfi_timing::VoltageNoise::skip_sample)
//! instead of sampling, as it also does outside the fault-injection
//! window, so the noise sequence stays cycle-aligned either way.

use crate::operating_point::OperatingPoint;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sfi_cpu::{ExStageContext, FaultInjector};
use sfi_timing::{TimingCharacterization, VddDelayCurve};
use std::sync::Arc;

/// STA period violation modulated by per-cycle supply-voltage noise (the
/// paper's **model B+**, and **model B** at σ = 0).
///
/// Every cycle an independent noise sample modulates all path delays via
/// the fitted Vdd–delay curve; endpoints whose modulated STA delay exceeds
/// the clock period are flipped, with no view of the instruction type or
/// the data.  Without noise this is the pessimistic hard threshold of
/// Fig. 1(a); with noise the model recovers a link to the randomness of
/// the physical circuit but still treats all ALU instructions identically
/// (Fig. 1(b)/(c)).
#[derive(Debug, Clone)]
pub struct StaWithNoiseModel {
    /// The first `breakpoint_count` entries: every endpoint's smallest
    /// violating factor, ascending (see the module docs).
    breakpoints: [f64; 32],
    breakpoint_count: usize,
    /// `masks[i]`: the endpoints of the `i` smallest breakpoints, the mask
    /// of every factor in `[breakpoints[i - 1], breakpoints[i])`.
    masks: [u32; 33],
    point: OperatingPoint,
    curve: Arc<VddDelayCurve>,
    /// `curve.delay_factor(point.vdd())`, hoisted out of the per-cycle
    /// noise-scaling computation.
    nominal_factor: f64,
    /// Whether no endpoint violates even at the worst clipped droop,
    /// fixed at construction (see [`FaultInjector::never_faults`]).
    never_faults: bool,
    /// The mask of every in-window cycle when the noise cannot change it
    /// (see the module docs).
    constant_mask: Option<u32>,
    rng: SmallRng,
}

impl StaWithNoiseModel {
    /// Creates the model from STA characterization data, an operating point
    /// and the fitted Vdd–delay curve.
    ///
    /// This copies the per-endpoint STA delays once; callers constructing
    /// one injector per Monte-Carlo trial should extract the delays once
    /// and use the allocation-free [`StaWithNoiseModel::from_shared`]
    /// instead.
    ///
    /// # Panics
    ///
    /// Panics if the characterization was performed at a different supply
    /// voltage than the operating point requests (the STA delays would not
    /// correspond to the simulated conditions).
    pub fn new(
        characterization: &TimingCharacterization,
        point: OperatingPoint,
        curve: impl Into<Arc<VddDelayCurve>>,
        seed: u64,
    ) -> Self {
        let endpoint_delays_ps: Arc<[f64]> = (0..characterization.endpoint_count())
            .map(|e| characterization.sta_endpoint_delay_ps(e))
            .collect();
        Self::from_shared(
            endpoint_delays_ps,
            characterization.vdd(),
            point,
            curve.into(),
            seed,
        )
    }

    /// Creates the model from already-shared STA delays and Vdd–delay
    /// curve — the allocation-free per-trial constructor.
    /// `characterized_vdd` is the supply voltage the delays were extracted
    /// at; it is checked against the operating point exactly like
    /// [`StaWithNoiseModel::new`] does.
    ///
    /// # Panics
    ///
    /// Panics if no delays are given or `characterized_vdd` does not
    /// match the operating point.
    pub fn from_shared(
        endpoint_delays_ps: Arc<[f64]>,
        characterized_vdd: f64,
        point: OperatingPoint,
        curve: Arc<VddDelayCurve>,
        seed: u64,
    ) -> Self {
        assert!(
            (characterized_vdd - point.vdd()).abs() < 1e-9,
            "characterization voltage {} V does not match operating point {} V",
            characterized_vdd,
            point.vdd()
        );
        assert!(
            !endpoint_delays_ps.is_empty(),
            "at least one endpoint is required"
        );
        // (breakpoint, endpoint) pairs, sorted in place: no allocation.
        let mut endpoints = [(f64::INFINITY, 0u32); 32];
        let mut count = 0;
        for (bit, &delay) in endpoint_delays_ps.iter().take(32).enumerate() {
            if let Some(factor) = first_violating_factor(delay, point.period_ps()) {
                endpoints[count] = (factor, bit as u32);
                count += 1;
            }
        }
        endpoints[..count].sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        let mut breakpoints = [f64::INFINITY; 32];
        let mut masks = [0u32; 33];
        for (i, &(factor, bit)) in endpoints[..count].iter().enumerate() {
            breakpoints[i] = factor;
            masks[i + 1] = masks[i] | (1 << bit);
        }
        let mut model = StaWithNoiseModel {
            breakpoints,
            breakpoint_count: count,
            masks,
            point,
            nominal_factor: curve.delay_factor(point.vdd()),
            curve,
            never_faults: false,
            constant_mask: None,
            rng: SmallRng::seed_from_u64(seed),
        };
        // Every per-cycle factor lies between the best and the worst
        // clipped factor and `delay * factor` rounds monotonically, so a
        // clean mask at the worst factor is clean on every cycle, and equal
        // masks at both ends hold on every cycle.
        let worst_mask = model.violation_mask(point.worst_delay_factor(&model.curve));
        let best_mask = model.violation_mask(point.best_delay_factor(&model.curve));
        model.never_faults = worst_mask == 0;
        model.constant_mask = (best_mask == worst_mask).then_some(worst_mask);
        model
    }

    /// The endpoints whose STA delay scaled by `delay_factor` exceeds
    /// the period: those whose breakpoint is at or below the factor.
    #[inline]
    fn violation_mask(&self, delay_factor: f64) -> u32 {
        let below =
            self.breakpoints[..self.breakpoint_count].partition_point(|&b| b <= delay_factor);
        self.masks[below]
    }

    /// Reseeds the noise sequence (used to decorrelate Monte-Carlo trials).
    pub fn reseed(&mut self, seed: u64) {
        self.rng = SmallRng::seed_from_u64(seed);
    }

    /// The operating point the model simulates.
    pub fn operating_point(&self) -> OperatingPoint {
        self.point
    }
}

/// The smallest factor `f` with `delay * f > period_ps`, or `None` when no
/// positive factor flips the endpoint: a degenerate delay, or a period that
/// overflowed to infinity (a frequency near zero), which nothing exceeds.
fn first_violating_factor(delay: f64, period_ps: f64) -> Option<f64> {
    if !(delay > 0.0 && delay.is_finite() && period_ps < f64::INFINITY) {
        return None;
    }
    // `period / delay` is within an ulp or two of the breakpoint; the
    // product is monotone in the factor, so walking ulps settles it.
    let mut factor = period_ps / delay;
    while factor > 0.0 && delay * factor.next_down() > period_ps {
        factor = factor.next_down();
    }
    while delay * factor <= period_ps {
        factor = factor.next_up();
    }
    Some(factor)
}

impl FaultInjector for StaWithNoiseModel {
    fn inject(&mut self, ctx: &ExStageContext) -> u32 {
        // A new independent noise value is drawn every cycle, also outside
        // the kernel window, to keep the noise sequence cycle-aligned; it
        // is only computed when it can change the mask.
        if !ctx.fi_enabled {
            self.point.noise().skip_sample(&mut self.rng);
            return 0;
        }
        if let Some(mask) = self.constant_mask {
            self.point.noise().skip_sample(&mut self.rng);
            return mask;
        }
        let noise = self.point.noise().sample_volts(&mut self.rng);
        let factor = self.curve.noise_scaling_factor_with_nominal(
            self.point.vdd(),
            noise,
            self.nominal_factor,
        );
        self.violation_mask(factor)
    }

    fn never_faults(&self) -> bool {
        self.never_faults
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfi_isa::AluClass;
    use sfi_netlist::alu::AluDatapath;
    use sfi_netlist::{DelayModel, VoltageScaling};
    use sfi_timing::{characterize_alu, CharacterizationConfig, VoltageNoise};

    fn characterization() -> TimingCharacterization {
        let alu = AluDatapath::build(8);
        characterize_alu(
            &alu,
            &DelayModel::default_28nm(),
            &VoltageScaling::default_28nm(),
            &CharacterizationConfig {
                cycles_per_op: 32,
                ..Default::default()
            },
        )
    }

    fn ctx(fi_enabled: bool) -> ExStageContext {
        ExStageContext {
            cycle: 0,
            alu_class: AluClass::Add,
            operand_a: 0,
            operand_b: 0,
            result: 0,
            fi_enabled,
        }
    }

    fn curve() -> Arc<VddDelayCurve> {
        Arc::new(VddDelayCurve::from_scaling(
            &VoltageScaling::default_28nm(),
            0.6,
            1.0,
            5,
        ))
    }

    /// Model B: model B+ at a noiseless operating point.
    fn model_b(ch: &TimingCharacterization, freq_mhz: f64) -> StaWithNoiseModel {
        StaWithNoiseModel::new(ch, OperatingPoint::new(freq_mhz, 0.7), curve(), 0)
    }

    #[test]
    fn model_b_hard_threshold() {
        let ch = characterization();
        let sta_limit = ch.sta_limit_mhz();
        // Below the STA limit: never any fault.
        let mut below = model_b(&ch, sta_limit * 0.99);
        assert!(below.never_faults());
        assert_eq!(below.inject(&ctx(true)), 0);
        // Just above the STA limit: the critical endpoint violates, for every
        // ALU instruction and every cycle.
        let mut above = model_b(&ch, sta_limit * 1.01);
        assert!(!above.never_faults());
        let mask = above.inject(&ctx(true));
        assert_ne!(mask, 0);
        // Deterministic: the same mask every cycle.
        assert_eq!(above.inject(&ctx(true)), mask);
        // Outside the kernel window nothing is injected.
        assert_eq!(above.inject(&ctx(false)), 0);
    }

    #[test]
    fn model_b_msb_fails_first() {
        let ch = characterization();
        // Far above the limit every endpoint on the critical instruction
        // violates; the mask must include the most significant bits first
        // as frequency rises.
        let sta_limit = ch.sta_limit_mhz();
        let mask_low = model_b(&ch, sta_limit * 1.02).inject(&ctx(true));
        let mask_high = model_b(&ch, sta_limit * 2.0).inject(&ctx(true));
        assert!(mask_high.count_ones() >= mask_low.count_ones());
        assert_eq!(
            mask_low & mask_high,
            mask_low,
            "violations grow monotonically"
        );
    }

    #[test]
    fn model_b_plus_noise_lowers_first_failure_frequency() {
        let ch = characterization();
        let sta_limit = ch.sta_limit_mhz();
        // Slightly below the STA limit: model B never injects, model B+ with
        // noise occasionally does (droop cycles).
        let point = OperatingPoint::new(sta_limit * 0.97, 0.7)
            .with_noise(VoltageNoise::with_sigma_mv(25.0));
        let mut b = model_b(&ch, sta_limit * 0.97);
        let mut bp = StaWithNoiseModel::new(&ch, point, curve(), 11);
        let mut b_faults = 0;
        let mut bp_faults = 0;
        for _ in 0..2000 {
            b_faults += (b.inject(&ctx(true)) != 0) as u32;
            bp_faults += (bp.inject(&ctx(true)) != 0) as u32;
        }
        assert_eq!(b_faults, 0);
        assert!(
            bp_faults > 0,
            "noise must occasionally cause violations below the STA limit"
        );
        assert!(
            bp_faults < 2000,
            "violations below the STA limit must be occasional, not constant"
        );
        assert_eq!(bp.operating_point().vdd(), 0.7);
    }

    #[test]
    fn model_b_plus_reseed_reproduces() {
        let ch = characterization();
        let point = OperatingPoint::new(ch.sta_limit_mhz() * 0.98, 0.7)
            .with_noise(VoltageNoise::with_sigma_mv(25.0));
        let mut a = StaWithNoiseModel::new(&ch, point, curve(), 5);
        let mut b = StaWithNoiseModel::new(&ch, point, curve(), 123);
        b.reseed(5);
        for _ in 0..200 {
            assert_eq!(a.inject(&ctx(true)), b.inject(&ctx(true)));
        }
    }

    /// The per-endpoint comparison the breakpoints replace.
    fn naive_mask(ch: &TimingCharacterization, point: OperatingPoint, factor: f64) -> u32 {
        (0..ch.endpoint_count().min(32))
            .filter(|&e| ch.sta_endpoint_delay_ps(e) * factor > point.period_ps())
            .fold(0, |mask, e| mask | 1 << e)
    }

    #[test]
    fn breakpoint_masks_match_the_naive_mask_at_every_breakpoint() {
        let ch = characterization();
        let mut checked = 0;
        for ratio in [0.9, 0.97, 1.0, 1.01, 1.05, 1.1, 1.25, 1.275, 1.3, 2.5] {
            let point = OperatingPoint::new(ch.sta_limit_mhz() * ratio, 0.7);
            let model = StaWithNoiseModel::new(&ch, point, curve(), 0);
            let breakpoints = &model.breakpoints[..model.breakpoint_count];
            assert!(breakpoints.windows(2).all(|w| w[0] <= w[1]));
            for &b in breakpoints {
                for factor in [b.next_down(), b, b.next_up()] {
                    let case = format!("{point} factor {factor}");
                    assert_eq!(
                        model.violation_mask(factor),
                        naive_mask(&ch, point, factor),
                        "{case}"
                    );
                }
                // The breakpoint is the first violating factor of its
                // endpoint: one ulp lower leaves a bit unset.
                assert_ne!(
                    model.violation_mask(b),
                    model.violation_mask(b.next_down()),
                    "{point} breakpoint {b}"
                );
                checked += 1;
            }
            for factor in [0.5, 0.9, 1.0, 1.1, 2.0] {
                assert_eq!(model.violation_mask(factor), naive_mask(&ch, point, factor));
            }
        }
        assert!(checked > 0);
    }

    #[test]
    fn an_infinite_period_never_faults() {
        let ch = characterization();
        // 1e6 / 1e-310 overflows: the period is +inf and nothing exceeds it.
        let point = OperatingPoint::new(1e-310, 0.7).with_noise_sigma_mv(10.0);
        assert_eq!(point.period_ps(), f64::INFINITY);
        let mut model = StaWithNoiseModel::new(&ch, point, curve(), 0);
        assert_eq!(model.breakpoint_count, 0);
        assert!(model.never_faults);
        for factor in [0.5, 1.0, 2.0, f64::MAX] {
            assert_eq!(model.violation_mask(factor), naive_mask(&ch, point, factor));
            assert_eq!(model.violation_mask(factor), 0);
        }
        assert_eq!(model.inject(&ctx(true)), 0);
    }

    #[test]
    fn constant_mask_holds_at_every_reachable_noise_value() {
        use crate::model_c::tests::{bumpy_curve, noise_grid};
        let ch = characterization();
        let (mut constant, mut varying) = (0, 0);
        for curve in [
            VddDelayCurve::from_scaling(&VoltageScaling::default_28nm(), 0.6, 1.0, 5),
            bumpy_curve(),
        ] {
            let curve = Arc::new(curve);
            let nominal = curve.delay_factor(0.7);
            for sigma_mv in [0.0, 10.0, 25.0] {
                for ratio in [0.9, 0.97, 1.0, 1.01, 1.05, 1.1, 1.3, 2.5] {
                    let point = OperatingPoint::new(ch.sta_limit_mhz() * ratio, 0.7)
                        .with_noise_sigma_mv(sigma_mv);
                    let model = StaWithNoiseModel::new(&ch, point, Arc::clone(&curve), 0);
                    let Some(mask) = model.constant_mask else {
                        varying += 1;
                        continue;
                    };
                    constant += 1;
                    for noise in noise_grid(point, &curve) {
                        let factor = curve.noise_scaling_factor_with_nominal(0.7, noise, nominal);
                        let naive = naive_mask(&ch, point, factor);
                        assert_eq!(mask, naive, "{point} noise {noise}");
                    }
                }
            }
        }
        assert!(
            constant > 0 && varying > 0,
            "{constant} constant, {varying} varying"
        );
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn voltage_mismatch_panics() {
        let ch = characterization();
        StaWithNoiseModel::new(&ch, OperatingPoint::new(700.0, 0.8), curve(), 0);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_shared_checks_the_voltage_like_new() {
        let delays: Arc<[f64]> = vec![100.0, 200.0].into();
        StaWithNoiseModel::from_shared(delays, 0.6, OperatingPoint::new(700.0, 0.7), curve(), 0);
    }

    #[test]
    fn from_shared_matches_new() {
        let ch = characterization();
        let delays: Arc<[f64]> = (0..ch.endpoint_count())
            .map(|e| ch.sta_endpoint_delay_ps(e))
            .collect();
        for sigma_mv in [0.0, 25.0] {
            let point =
                OperatingPoint::new(ch.sta_limit_mhz() * 1.05, 0.7).with_noise_sigma_mv(sigma_mv);
            let mut a = StaWithNoiseModel::new(&ch, point, curve(), 3);
            let mut b =
                StaWithNoiseModel::from_shared(Arc::clone(&delays), ch.vdd(), point, curve(), 3);
            for _ in 0..64 {
                assert_eq!(a.inject(&ctx(true)), b.inject(&ctx(true)));
            }
        }
    }
}
