//! Models B and B+: static-timing-based period-violation fault injection.
//!
//! # Random-number consumption of model B+
//!
//! Model B+ draws nothing but its noise sample: two words per cycle, none
//! at σ = 0.  Its mask `delay * factor > period` per endpoint can only
//! grow with the factor (the product rounds monotonically), and every
//! factor the clipped noise can produce lies between the guard-banded best
//! and worst factors of the operating point.  When the masks at those two
//! factors agree, the mask is the same on every cycle; the model then
//! advances the generator with
//! [`VoltageNoise::skip_sample`](sfi_timing::VoltageNoise::skip_sample)
//! instead of sampling, as it also does outside the fault-injection
//! window, so the noise sequence stays cycle-aligned either way.

use crate::operating_point::OperatingPoint;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sfi_cpu::{ExStageContext, FaultInjector};
use sfi_timing::{TimingCharacterization, VddDelayCurve};
use std::sync::Arc;

/// Fixed period violation against STA worst-case delays (the paper's
/// **model B**).
///
/// Whenever *any* ALU instruction occupies the execution stage and the
/// clock period is shorter than the STA worst-case delay of an endpoint,
/// that endpoint bit is flipped — deterministically, with no view of the
/// instruction type or the data.  This is the pessimistic model whose
/// "hard threshold" behaviour Fig. 1(a) illustrates.
#[derive(Debug, Clone)]
pub struct StaPeriodViolationModel {
    endpoint_delays_ps: Arc<[f64]>,
    period_ps: f64,
    /// `violation_mask(1.0) == 0`, fixed at construction.
    never_faults: bool,
}

impl StaPeriodViolationModel {
    /// Creates the model from the STA data of a characterization at the
    /// operating point's supply voltage.
    ///
    /// This copies the per-endpoint STA delays once; callers constructing
    /// one injector per Monte-Carlo trial should extract the delays once
    /// and use the allocation-free [`StaPeriodViolationModel::from_shared`]
    /// instead.
    ///
    /// # Panics
    ///
    /// Panics if the characterization was performed at a different supply
    /// voltage than the operating point requests (the STA delays would not
    /// correspond to the simulated conditions).
    pub fn new(characterization: &TimingCharacterization, point: OperatingPoint) -> Self {
        assert!(
            (characterization.vdd() - point.vdd()).abs() < 1e-9,
            "characterization voltage {} V does not match operating point {} V",
            characterization.vdd(),
            point.vdd()
        );
        let endpoint_delays_ps: Arc<[f64]> = (0..characterization.endpoint_count())
            .map(|e| characterization.sta_endpoint_delay_ps(e))
            .collect();
        Self::with_period(endpoint_delays_ps, point.period_ps())
    }

    /// Creates the model from an already-shared STA delay vector — the
    /// allocation-free per-trial constructor (the delays are typically
    /// extracted once per characterized voltage and `Arc`-cloned per
    /// trial).  `characterized_vdd` is the supply voltage the delays were
    /// extracted at; it is checked against the operating point exactly
    /// like [`StaPeriodViolationModel::new`] does.
    ///
    /// # Panics
    ///
    /// Panics if no delays are given or `characterized_vdd` does not
    /// match the operating point.
    pub fn from_shared(
        endpoint_delays_ps: Arc<[f64]>,
        characterized_vdd: f64,
        point: OperatingPoint,
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
        Self::with_period(endpoint_delays_ps, point.period_ps())
    }

    /// Creates the model directly from per-endpoint STA delays (ps).
    ///
    /// # Panics
    ///
    /// Panics if no delays are given or the period is not positive.
    pub fn from_delays(endpoint_delays_ps: Vec<f64>, period_ps: f64) -> Self {
        assert!(
            !endpoint_delays_ps.is_empty(),
            "at least one endpoint is required"
        );
        assert!(period_ps > 0.0, "period must be positive, got {period_ps}");
        Self::with_period(endpoint_delays_ps.into(), period_ps)
    }

    fn with_period(endpoint_delays_ps: Arc<[f64]>, period_ps: f64) -> Self {
        let mut model = StaPeriodViolationModel {
            endpoint_delays_ps,
            period_ps,
            never_faults: false,
        };
        // Model B injects exactly `violation_mask(1.0)` on every in-window
        // cycle, so an empty mask is the whole proof.
        model.never_faults = model.violation_mask(1.0) == 0;
        model
    }

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

impl FaultInjector for StaPeriodViolationModel {
    fn inject(&mut self, ctx: &ExStageContext) -> u32 {
        if !ctx.fi_enabled {
            return 0;
        }
        self.violation_mask(1.0)
    }

    fn never_faults(&self) -> bool {
        self.never_faults
    }
}

/// Model B extended with per-cycle supply-voltage noise (the paper's
/// **model B+**).
///
/// Every cycle an independent noise sample modulates all path delays via
/// the fitted Vdd–delay curve; endpoints whose modulated STA delay exceeds
/// the clock period are flipped.  The model recovers a link to the
/// randomness of the physical circuit but still treats all ALU
/// instructions identically (Fig. 1(b)/(c)).
#[derive(Debug, Clone)]
pub struct StaWithNoiseModel {
    sta: StaPeriodViolationModel,
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
    /// # Panics
    ///
    /// Panics under the same conditions as [`StaPeriodViolationModel::new`].
    pub fn new(
        characterization: &TimingCharacterization,
        point: OperatingPoint,
        curve: impl Into<Arc<VddDelayCurve>>,
        seed: u64,
    ) -> Self {
        Self::with_sta(
            StaPeriodViolationModel::new(characterization, point),
            point,
            curve.into(),
            seed,
        )
    }

    /// Creates the model from already-shared STA delays and Vdd–delay
    /// curve — the allocation-free per-trial constructor.
    /// `characterized_vdd` is the supply voltage the delays were extracted
    /// at.
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
        Self::with_sta(
            StaPeriodViolationModel::from_shared(endpoint_delays_ps, characterized_vdd, point),
            point,
            curve,
            seed,
        )
    }

    fn with_sta(
        sta: StaPeriodViolationModel,
        point: OperatingPoint,
        curve: Arc<VddDelayCurve>,
        seed: u64,
    ) -> Self {
        let nominal_factor = curve.delay_factor(point.vdd());
        // Every per-cycle factor lies between the best and the worst
        // clipped factor and `delay * factor` rounds monotonically, so a
        // clean mask at the worst factor is clean on every cycle, and equal
        // masks at both ends hold on every cycle.
        let worst_mask = sta.violation_mask(point.worst_delay_factor(&curve));
        let best_mask = sta.violation_mask(point.best_delay_factor(&curve));
        StaWithNoiseModel {
            sta,
            point,
            curve,
            nominal_factor,
            never_faults: worst_mask == 0,
            constant_mask: (best_mask == worst_mask).then_some(worst_mask),
            rng: SmallRng::seed_from_u64(seed),
        }
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
        self.sta.violation_mask(factor)
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

    #[test]
    fn model_b_hard_threshold() {
        let ch = characterization();
        let sta_limit = ch.sta_limit_mhz();
        // Below the STA limit: never any fault.
        let mut below =
            StaPeriodViolationModel::new(&ch, OperatingPoint::new(sta_limit * 0.99, 0.7));
        assert_eq!(below.inject(&ctx(true)), 0);
        // Just above the STA limit: the critical endpoint violates, for every
        // ALU instruction and every cycle.
        let mut above =
            StaPeriodViolationModel::new(&ch, OperatingPoint::new(sta_limit * 1.01, 0.7));
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
        let mut slightly =
            StaPeriodViolationModel::new(&ch, OperatingPoint::new(sta_limit * 1.02, 0.7));
        let mask_low = slightly.inject(&ctx(true));
        let mut far = StaPeriodViolationModel::new(&ch, OperatingPoint::new(sta_limit * 2.0, 0.7));
        let mask_high = far.inject(&ctx(true));
        assert!(mask_high.count_ones() >= mask_low.count_ones());
        assert_eq!(
            mask_low & mask_high,
            mask_low,
            "violations grow monotonically"
        );
    }

    #[test]
    fn from_delays_constructor() {
        let mut m = StaPeriodViolationModel::from_delays(vec![100.0, 300.0], 200.0);
        assert_eq!(m.inject(&ctx(true)), 0b10);
    }

    #[test]
    fn model_b_plus_noise_lowers_first_failure_frequency() {
        let ch = characterization();
        let curve = VddDelayCurve::from_scaling(&VoltageScaling::default_28nm(), 0.6, 1.0, 5);
        let sta_limit = ch.sta_limit_mhz();
        // Slightly below the STA limit: model B never injects, model B+ with
        // noise occasionally does (droop cycles).
        let point = OperatingPoint::new(sta_limit * 0.97, 0.7)
            .with_noise(VoltageNoise::with_sigma_mv(25.0));
        let mut b = StaPeriodViolationModel::new(&ch, OperatingPoint::new(sta_limit * 0.97, 0.7));
        let mut bp = StaWithNoiseModel::new(&ch, point, curve, 11);
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
        let curve = VddDelayCurve::from_scaling(&VoltageScaling::default_28nm(), 0.6, 1.0, 5);
        let point = OperatingPoint::new(ch.sta_limit_mhz() * 0.98, 0.7)
            .with_noise(VoltageNoise::with_sigma_mv(25.0));
        let mut a = StaWithNoiseModel::new(&ch, point, curve.clone(), 5);
        let mut b = StaWithNoiseModel::new(&ch, point, curve, 123);
        b.reseed(5);
        for _ in 0..200 {
            assert_eq!(a.inject(&ctx(true)), b.inject(&ctx(true)));
        }
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
                        assert_eq!(
                            mask,
                            model.sta.violation_mask(factor),
                            "{point} noise {noise}"
                        );
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
        StaPeriodViolationModel::new(&ch, OperatingPoint::new(700.0, 0.8));
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_shared_checks_the_voltage_like_new() {
        let delays: Arc<[f64]> = vec![100.0, 200.0].into();
        StaPeriodViolationModel::from_shared(delays, 0.6, OperatingPoint::new(700.0, 0.7));
    }

    #[test]
    fn from_shared_matches_new() {
        let ch = characterization();
        let point = OperatingPoint::new(ch.sta_limit_mhz() * 1.05, 0.7);
        let delays: Arc<[f64]> = (0..ch.endpoint_count())
            .map(|e| ch.sta_endpoint_delay_ps(e))
            .collect();
        let mut a = StaPeriodViolationModel::new(&ch, point);
        let mut b = StaPeriodViolationModel::from_shared(delays, ch.vdd(), point);
        assert_eq!(a.inject(&ctx(true)), b.inject(&ctx(true)));
    }
}
