//! Model C: the proposed statistical, instruction-aware fault injection.
//!
//! # Per-point step tables
//!
//! A cycle's noise sample only moves the effective period, and every
//! period the clipped noise can produce at an operating point lies in one
//! range `[period / worst factor, period / best factor]` (both factors
//! guard-banded, see [`crate::WORST_FACTOR_GUARD_BAND`]).  At construction
//! the model fetches the [`StepTables`] of that range from the shared
//! [`DtaFaultTable`], which builds them once per range and memoizes them.
//! They sort each instruction's endpoints into `always` (p = 1 on every
//! cycle), `varies`, and the rest (p = 0 on every cycle); far from the
//! transition region most instructions have no `varies` endpoint at all.
//! For the other instructions they hold the sorted breakpoints of the
//! threshold and one exact row of endpoint probabilities per interval
//! between breakpoints, so a cycle finds its probabilities with one binary
//! search (see [`crate::table`]).
//!
//! # Random-number consumption
//!
//! The model must consume exactly the random numbers of the plain
//! per-cycle walk, or every later cycle of the trial would see different
//! faults.  The walk takes two words for the noise sample (none at
//! σ = 0), then one word per endpoint with `p > 0` from `gen_bool(p)`.
//! On a cycle outside the fault-injection window, or of an instruction
//! with no `varies` endpoint, the noise value cannot change the outcome:
//! the model then advances the generator by
//! [`VoltageNoise::skip_sample`](sfi_timing::VoltageNoise::skip_sample)
//! instead of sampling, and by one word per `always` endpoint — exactly
//! what `gen_bool(1.0)` consumes, and it always returns `true` — so the
//! mask is `always`.  Every other cycle samples the noise and draws over
//! its row, which holds every endpoint with `p > 0`.

use crate::map::alu_op_for_class;
use crate::operating_point::OperatingPoint;
use crate::table::{DtaFaultTable, StepTables};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sfi_cpu::{ExStageContext, FaultInjector};
use sfi_netlist::alu::AluOp;
use sfi_timing::{TimingCharacterization, VddDelayCurve};
use std::sync::Arc;

/// Probabilistic period violation using DTA-extracted CDFs (the paper's
/// **model C**).
///
/// Every cycle the model:
///
/// 1. draws an independent supply-noise sample and converts it into a CDF
///    scaling factor through the fitted Vdd–delay curve,
/// 2. looks up the timing-error probability `P_{E,V,I}(f)` of every
///    endpoint for the instruction currently in the execution stage, and
/// 3. flips each endpoint bit with that probability.
///
/// A cycle whose mask the noise provably cannot change skips the
/// arithmetic of steps 1 and 2 but not their random numbers (see the
/// module docs), so every fault sequence is that of the plain walk.
///
/// This is the model that reproduces the gradual transition regions between
/// error-free operation and complete failure (Figs. 4–7 of the paper).
///
/// The expensive characterization data is shared behind `Arc`s (see
/// [`DtaFaultTable`]): once the table's memo holds the step tables of an
/// operating point, constructing one injector per Monte-Carlo trial via
/// [`StatisticalDtaModel::from_table`] — or per sweep point via
/// [`StatisticalDtaModel::at_frequency`] — allocates nothing.
#[derive(Debug, Clone)]
pub struct StatisticalDtaModel {
    table: Arc<DtaFaultTable>,
    point: OperatingPoint,
    curve: Arc<VddDelayCurve>,
    /// `point.period_ps()`, hoisted out of the per-cycle loop.
    period_ps: f64,
    /// `curve.delay_factor(point.vdd())`, the noise-independent
    /// denominator of the per-cycle scaling factor.
    nominal_factor: f64,
    /// Whether no instruction's worst delay reaches the period even at the
    /// worst clipped droop, fixed at construction (see
    /// [`FaultInjector::never_faults`]).
    never_faults: bool,
    /// Endpoint classes and step tables over every threshold the clipped
    /// noise can produce (see the module docs), shared with every injector
    /// at the same point.
    steps: Arc<StepTables>,
    rng: SmallRng,
}

impl StatisticalDtaModel {
    /// Creates the model from a timing characterization performed at the
    /// operating point's supply voltage.
    ///
    /// This flattens the characterization into a fresh [`DtaFaultTable`];
    /// callers constructing many injectors over the same characterization
    /// (one per Monte-Carlo trial) should build the table once and use
    /// [`StatisticalDtaModel::from_table`] instead, which shares the
    /// table's memoized step tables.
    ///
    /// # Panics
    ///
    /// Panics if the characterization voltage does not match the operating
    /// point (a different set of CDFs must be used per supply voltage, as
    /// the paper does).
    pub fn new(
        characterization: impl Into<Arc<TimingCharacterization>>,
        point: OperatingPoint,
        curve: impl Into<Arc<VddDelayCurve>>,
        seed: u64,
    ) -> Self {
        Self::from_table(
            Arc::new(DtaFaultTable::new(characterization.into())),
            point,
            curve.into(),
            seed,
        )
    }

    /// Creates the model from a prebuilt, shared fault table — the
    /// per-trial constructor the campaign hot path uses.  It takes the
    /// step tables of the point from the table's memo, so it allocates
    /// nothing unless the memo has to build them (see [`crate::table`]).
    ///
    /// # Panics
    ///
    /// Panics if the table's characterization voltage does not match the
    /// operating point.
    pub fn from_table(
        table: Arc<DtaFaultTable>,
        point: OperatingPoint,
        curve: Arc<VddDelayCurve>,
        seed: u64,
    ) -> Self {
        assert!(
            (table.characterization().vdd() - point.vdd()).abs() < 1e-9,
            "characterization voltage {} V does not match operating point {} V",
            table.characterization().vdd(),
            point.vdd()
        );
        let nominal_factor = curve.delay_factor(point.vdd());
        // A cycle can only fault when its op's worst delay exceeds
        // `period / factor`.  The guard band inside `worst_delay_factor`
        // (1e-9) dwarfs the rounding of that division, so a worst delay
        // that fits the period at the worst factor fits every cycle's
        // threshold.
        let worst_delay_ps = AluOp::ALL
            .iter()
            .map(|&op| table.max_delay_ps(op))
            .fold(0.0, f64::max);
        let worst_factor = point.worst_delay_factor(&curve);
        let never_faults = worst_delay_ps * worst_factor <= point.period_ps();
        // Division rounds monotonically, so every cycle's threshold
        // `period / factor` lies between these two.
        let lo_ps = point.period_ps() / worst_factor;
        let hi_ps = point.period_ps() / point.best_delay_factor(&curve);
        let steps = table.step_tables(lo_ps, hi_ps);
        StatisticalDtaModel {
            table,
            point,
            period_ps: point.period_ps(),
            nominal_factor,
            never_faults,
            steps,
            curve,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Reseeds the random number generator (used to decorrelate Monte-Carlo
    /// trials while reusing the expensive characterization).
    pub fn reseed(&mut self, seed: u64) {
        self.rng = SmallRng::seed_from_u64(seed);
    }

    /// The operating point the model simulates.
    pub fn operating_point(&self) -> OperatingPoint {
        self.point
    }

    /// Returns a copy of the model at a different clock frequency, sharing
    /// the same characterization data (no allocation on a step-table memo
    /// hit).
    pub fn at_frequency(&self, freq_mhz: f64, seed: u64) -> Self {
        Self::from_table(
            Arc::clone(&self.table),
            self.point.at_frequency(freq_mhz),
            Arc::clone(&self.curve),
            seed,
        )
    }

    /// The underlying characterization (e.g. to query CDFs for reporting).
    pub fn characterization(&self) -> &TimingCharacterization {
        self.table.characterization()
    }

    /// The shared flattened fault table.
    pub fn fault_table(&self) -> &Arc<DtaFaultTable> {
        &self.table
    }

    /// The shared step tables of the model's operating point.
    #[cfg(test)]
    pub(crate) fn step_tables(&self) -> &Arc<StepTables> {
        &self.steps
    }
}

impl FaultInjector for StatisticalDtaModel {
    fn inject(&mut self, ctx: &ExStageContext) -> u32 {
        // Cycles whose outcome the noise cannot change consume the walk's
        // random numbers without computing them (see the module docs).
        if !ctx.fi_enabled {
            self.point.noise().skip_sample(&mut self.rng);
            return 0;
        }
        let op = alu_op_for_class(ctx.alu_class);
        let classes = self.steps.classes(op);
        if classes.varies == 0 {
            self.point.noise().skip_sample(&mut self.rng);
            for _ in 0..classes.always.count_ones() {
                self.rng.next_u64();
            }
            return classes.always;
        }

        // Step 1: per-cycle supply-noise sample -> CDF scaling factor.
        let noise = self.point.noise().sample_volts(&mut self.rng);
        let delay_factor = self.curve.noise_scaling_factor_with_nominal(
            self.point.vdd(),
            noise,
            self.nominal_factor,
        );
        debug_assert!(delay_factor > 0.0, "delay factor must be positive");
        // delay * factor > period  <=>  delay > period / factor; computing
        // the scaled threshold once per cycle replaces one division per
        // endpoint with one comparison per endpoint.
        let threshold_ps = self.period_ps / delay_factor;

        // Steps 2 + 3: the row of per-endpoint probabilities at this
        // threshold and independent Bernoulli draws over it.
        let rng = &mut self.rng;
        self.steps
            .violation_mask(op, threshold_ps, |p| rng.gen_bool(p))
    }

    fn never_faults(&self) -> bool {
        self.never_faults
    }
}

#[cfg(test)]
pub(crate) mod tests {
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
                cycles_per_op: 64,
                ..Default::default()
            },
        )
    }

    fn curve() -> VddDelayCurve {
        VddDelayCurve::from_scaling(&VoltageScaling::default_28nm(), 0.6, 1.0, 5)
    }

    fn ctx(class: AluClass) -> ExStageContext {
        ExStageContext {
            cycle: 0,
            alu_class: class,
            operand_a: 0,
            operand_b: 0,
            result: 0,
            fi_enabled: true,
        }
    }

    fn fault_rate(model: &mut StatisticalDtaModel, class: AluClass, cycles: usize) -> f64 {
        let mut faults = 0usize;
        for _ in 0..cycles {
            faults += (model.inject(&ctx(class)) != 0) as usize;
        }
        faults as f64 / cycles as f64
    }

    #[test]
    fn no_faults_at_sta_limit_without_noise() {
        let ch = characterization();
        let point = OperatingPoint::new(ch.sta_limit_mhz(), 0.7);
        let mut m = StatisticalDtaModel::new(ch, point, curve(), 1);
        for class in AluClass::ALL {
            assert_eq!(m.inject(&ctx(class)), 0, "{class}");
        }
    }

    #[test]
    fn instruction_awareness() {
        let ch = characterization();
        // Pick a frequency between the multiplier's and the logic unit's
        // first-failure points: multiplications must fault, XORs must not.
        let f_mul = ch.first_failure_frequency_mhz(sfi_netlist::alu::AluOp::Mul);
        let f_xor = ch.first_failure_frequency_mhz(sfi_netlist::alu::AluOp::Xor);
        let freq = f_mul * 1.2;
        assert!(freq < f_xor);
        let point = OperatingPoint::new(freq, 0.7);
        let mut m = StatisticalDtaModel::new(ch, point, curve(), 2);
        assert!(fault_rate(&mut m, AluClass::Mul, 500) > 0.0);
        assert_eq!(fault_rate(&mut m, AluClass::Xor, 500), 0.0);
    }

    #[test]
    fn fault_rate_grows_with_frequency() {
        let ch = characterization();
        let f0 = ch.first_failure_frequency_mhz(sfi_netlist::alu::AluOp::Mul);
        let point = OperatingPoint::new(f0 * 1.05, 0.7);
        let base = StatisticalDtaModel::new(ch, point, curve(), 3);
        let mut low = base.at_frequency(f0 * 1.05, 3);
        let mut high = base.at_frequency(f0 * 1.5, 3);
        // The frequency-shifted copies share the base model's table.
        assert!(Arc::ptr_eq(low.fault_table(), base.fault_table()));
        let r_low = fault_rate(&mut low, AluClass::Mul, 400);
        let r_high = fault_rate(&mut high, AluClass::Mul, 400);
        assert!(
            r_high > r_low,
            "rate must grow with frequency ({r_low} vs {r_high})"
        );
    }

    #[test]
    fn noise_enables_faults_below_the_nominal_first_failure() {
        let ch = characterization();
        let f0 = ch.first_failure_frequency_mhz(sfi_netlist::alu::AluOp::Mul);
        // Slightly below the nominal first-failure frequency.
        let quiet_point = OperatingPoint::new(f0 * 0.98, 0.7);
        let noisy_point = quiet_point.with_noise(VoltageNoise::with_sigma_mv(25.0));
        let mut quiet = StatisticalDtaModel::new(ch.clone(), quiet_point, curve(), 4);
        let mut noisy = StatisticalDtaModel::new(ch, noisy_point, curve(), 4);
        assert_eq!(fault_rate(&mut quiet, AluClass::Mul, 1000), 0.0);
        assert!(fault_rate(&mut noisy, AluClass::Mul, 1000) > 0.0);
    }

    #[test]
    fn reseed_reproduces_sequences() {
        let ch = characterization();
        let f0 = ch.first_failure_frequency_mhz(sfi_netlist::alu::AluOp::Mul);
        let point =
            OperatingPoint::new(f0 * 1.1, 0.7).with_noise(VoltageNoise::with_sigma_mv(10.0));
        let mut a = StatisticalDtaModel::new(ch.clone(), point, curve(), 9);
        let mut b = StatisticalDtaModel::new(ch, point, curve(), 77);
        b.reseed(9);
        for _ in 0..200 {
            assert_eq!(a.inject(&ctx(AluClass::Mul)), b.inject(&ctx(AluClass::Mul)));
        }
    }

    #[test]
    fn from_table_matches_new_bit_for_bit() {
        let ch = Arc::new(characterization());
        let table = Arc::new(DtaFaultTable::new(Arc::clone(&ch)));
        let f0 = ch.first_failure_frequency_mhz(sfi_netlist::alu::AluOp::Mul);
        let point =
            OperatingPoint::new(f0 * 1.2, 0.7).with_noise(VoltageNoise::with_sigma_mv(15.0));
        let shared_curve = Arc::new(curve());
        let mut fresh = StatisticalDtaModel::new(Arc::clone(&ch), point, curve(), 13);
        let mut pooled = StatisticalDtaModel::from_table(table, point, shared_curve, 13);
        for class in [AluClass::Mul, AluClass::Add, AluClass::Xor] {
            for _ in 0..300 {
                assert_eq!(fresh.inject(&ctx(class)), pooled.inject(&ctx(class)));
            }
        }
    }

    #[test]
    fn disabled_window_suppresses_injection() {
        let ch = characterization();
        let point = OperatingPoint::new(ch.sta_limit_mhz() * 2.0, 0.7);
        let mut m = StatisticalDtaModel::new(ch, point, curve(), 5);
        let mut off_ctx = ctx(AluClass::Mul);
        off_ctx.fi_enabled = false;
        assert_eq!(m.inject(&off_ctx), 0);
        assert!(m.characterization().endpoint_count() > 0);
        assert_eq!(m.operating_point().vdd(), 0.7);
    }

    /// Noise values at which a class bound could break: both clip ends,
    /// every curve knot inside the clipped range (and its neighbours), and
    /// a dense grid in between.
    pub(crate) fn noise_grid(point: OperatingPoint, curve: &VddDelayCurve) -> Vec<f64> {
        let excursion = point.noise().max_excursion_volts();
        let mut grid = vec![-excursion, excursion];
        for &v in curve.voltages() {
            let noise = v - point.vdd();
            if noise.abs() <= excursion {
                grid.extend([noise.next_down(), noise, noise.next_up()]);
            }
        }
        grid.extend((0..=64).map(|i| excursion * (i as f64 / 32.0 - 1.0)));
        grid.retain(|n| n.abs() <= excursion);
        grid
    }

    /// A non-monotone curve with knots inside the 10 and 25 mV clip
    /// ranges around 0.7 V.
    pub(crate) fn bumpy_curve() -> VddDelayCurve {
        VddDelayCurve::from_samples(&[
            (0.6, 1.5),
            (0.69, 1.02),
            (0.7, 1.0),
            (0.705, 1.01),
            (0.71, 0.97),
            (0.8, 0.8),
        ])
    }

    #[test]
    fn endpoint_classes_hold_at_every_reachable_noise_value() {
        let ch = Arc::new(characterization());
        let table = Arc::new(DtaFaultTable::new(Arc::clone(&ch)));
        let mut seen = [false; 3];
        for curve in [curve(), bumpy_curve()] {
            let curve = Arc::new(curve);
            let nominal = curve.delay_factor(0.7);
            for sigma_mv in [0.0, 10.0, 25.0] {
                for ratio in [0.9, 1.0, 1.05, 1.1, 1.25, 1.3, 1.6, 2.5] {
                    let point = OperatingPoint::new(ch.sta_limit_mhz() * ratio, 0.7)
                        .with_noise_sigma_mv(sigma_mv);
                    let model = StatisticalDtaModel::from_table(
                        Arc::clone(&table),
                        point,
                        Arc::clone(&curve),
                        0,
                    );
                    for noise in noise_grid(point, &curve) {
                        // The threshold exactly as `inject` computes it.
                        let factor = curve.noise_scaling_factor_with_nominal(0.7, noise, nominal);
                        let threshold = point.period_ps() / factor;
                        for op in AluOp::ALL {
                            let classes = model.step_tables().classes(op);
                            assert_eq!(classes.always & classes.varies, 0);
                            for e in 0..table.endpoint_count() {
                                let p = table.error_probability(op, e, threshold);
                                let case = format!("{op:?} endpoint {e} at {point} noise {noise}");
                                if classes.always & (1 << e) != 0 {
                                    assert_eq!(p, 1.0, "{case}");
                                    seen[0] = true;
                                } else if classes.varies & (1 << e) == 0 {
                                    assert_eq!(p, 0.0, "{case}");
                                    seen[1] = true;
                                } else {
                                    seen[2] = true;
                                }
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(seen, [true; 3], "the sweep must reach all three classes");
    }

    /// The thresholds at which a step-table row could be off: both range
    /// ends, and every sample of `op` inside the range with its
    /// neighbouring floats that stay inside.
    fn step_edges(ch: &TimingCharacterization, op: AluOp, lo: f64, hi: f64) -> Vec<f64> {
        let mut thresholds = vec![lo, hi];
        for e in 0..ch.endpoint_count() {
            for &s in ch.cdf(op, e).samples() {
                thresholds.extend([s.next_down(), s, s.next_up()]);
            }
        }
        thresholds.retain(|t| (lo..=hi).contains(t));
        thresholds.sort_by(f64::total_cmp);
        thresholds.dedup();
        thresholds
    }

    #[test]
    fn step_table_rows_are_the_error_probabilities_at_every_edge() {
        let ch = Arc::new(characterization());
        let table = Arc::new(DtaFaultTable::new(Arc::clone(&ch)));
        let mut partial_rows = 0;
        for curve in [curve(), bumpy_curve()] {
            let curve = Arc::new(curve);
            for sigma_mv in [10.0, 25.0] {
                for ratio in [0.9, 1.0, 1.05, 1.1, 1.25, 1.275, 1.3, 1.6, 2.0, 2.5] {
                    let point = OperatingPoint::new(ch.sta_limit_mhz() * ratio, 0.7)
                        .with_noise_sigma_mv(sigma_mv);
                    let model = StatisticalDtaModel::from_table(
                        Arc::clone(&table),
                        point,
                        Arc::clone(&curve),
                        0,
                    );
                    let steps = model.step_tables();
                    let (lo, hi) = steps.range_ps();
                    for op in AluOp::ALL {
                        for threshold in step_edges(&ch, op, lo, hi) {
                            // The oracle: every endpoint's own probability,
                            // drawn in endpoint order whenever it is > 0.
                            let expected: Vec<(usize, f64)> = (0..table.endpoint_count())
                                .map(|e| (e, table.error_probability(op, e, threshold)))
                                .filter(|&(_, p)| p > 0.0)
                                .collect();
                            let mut seen = Vec::new();
                            let mask = steps.violation_mask(op, threshold, |p| {
                                seen.push(p);
                                true
                            });
                            let case = format!("{op:?} at {point} threshold {threshold}");
                            let probs: Vec<f64> = expected.iter().map(|&(_, p)| p).collect();
                            assert_eq!(seen, probs, "{case}");
                            let bits = expected.iter().fold(0u32, |m, &(e, _)| m | 1 << e);
                            assert_eq!(mask, bits, "{case}");
                            partial_rows += probs.iter().any(|&p| p < 1.0) as usize;
                        }
                    }
                }
            }
        }
        assert!(partial_rows > 0, "the sweep must reach fractional rows");
    }

    #[test]
    fn injectors_at_one_point_share_one_step_table() {
        let ch = Arc::new(characterization());
        let table = Arc::new(DtaFaultTable::new(Arc::clone(&ch)));
        let point = OperatingPoint::new(ch.sta_limit_mhz() * 1.25, 0.7).with_noise_sigma_mv(10.0);
        let shared_curve = Arc::new(curve());
        let [a, b] = std::thread::scope(|scope| {
            [1, 2]
                .map(|seed| {
                    let (table, curve) = (Arc::clone(&table), Arc::clone(&shared_curve));
                    scope.spawn(move || StatisticalDtaModel::from_table(table, point, curve, seed))
                })
                .map(|handle| handle.join().unwrap())
        });
        assert!(Arc::ptr_eq(a.step_tables(), b.step_tables()));
        let shifted = a.at_frequency(point.freq_mhz(), 3);
        assert!(Arc::ptr_eq(a.step_tables(), shifted.step_tables()));
    }

    #[test]
    fn an_evicted_point_rebuilds_to_identical_trials() {
        let ch = Arc::new(characterization());
        let table = Arc::new(DtaFaultTable::new(Arc::clone(&ch)));
        let shared_curve = Arc::new(curve());
        let sta = ch.sta_limit_mhz();
        let point = OperatingPoint::new(sta * 1.25, 0.7).with_noise_sigma_mv(25.0);
        let masks = |model: &mut StatisticalDtaModel| -> Vec<u32> {
            (0..3000)
                .map(|i| model.inject(&ctx(AluClass::ALL[i % AluClass::ALL.len()])))
                .collect()
        };
        let mut first = StatisticalDtaModel::from_table(
            Arc::clone(&table),
            point,
            Arc::clone(&shared_curve),
            7,
        );
        let before = masks(&mut first);
        assert!(before.iter().any(|&m| m != 0));
        for i in 0..crate::table::STEP_MEMO_RANGES {
            first.at_frequency(sta * (0.5 + 0.01 * i as f64), 0);
        }
        let mut rebuilt = first.at_frequency(point.freq_mhz(), 7);
        assert!(!Arc::ptr_eq(first.step_tables(), rebuilt.step_tables()));
        assert_eq!(masks(&mut rebuilt), before);
    }

    #[test]
    fn an_infinite_period_never_faults() {
        let ch = characterization();
        // 1e6 / 1e-310 overflows: the period is +inf and nothing exceeds it.
        let point = OperatingPoint::new(1e-310, 0.7).with_noise_sigma_mv(10.0);
        assert_eq!(point.period_ps(), f64::INFINITY);
        let mut m = StatisticalDtaModel::new(ch, point, curve(), 1);
        assert!(m.never_faults());
        for class in AluClass::ALL {
            assert_eq!(m.inject(&ctx(class)), 0, "{class}");
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "outside")]
    fn a_threshold_outside_the_range_is_refused() {
        let ch = Arc::new(characterization());
        let table = DtaFaultTable::new(Arc::clone(&ch));
        let sta = ch.sta_critical_path_ps();
        let steps = table.step_tables(sta * 0.8, sta * 0.9);
        steps.violation_mask(AluOp::Mul, f64::NAN, |_| true);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn voltage_mismatch_panics() {
        let ch = characterization();
        StatisticalDtaModel::new(ch, OperatingPoint::new(700.0, 0.8), curve(), 0);
    }
}
