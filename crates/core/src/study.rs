//! The characterized case study: datapath, timing budgets, calibration and
//! per-voltage DTA characterizations.

use sfi_fault::{
    DtaFaultTable, FixedProbabilityModel, OperatingPoint, StaWithNoiseModel, StatisticalDtaModel,
};
use sfi_netlist::alu::AluDatapath;
use sfi_netlist::{DelayModel, VoltageScaling};
use sfi_timing::{
    calibrate_delay_model_with_multipliers, characterize_alu_with_multipliers,
    synthesis_node_multipliers, CharacterizationConfig, OperandDistribution, StaticTimingAnalysis,
    TimingCharacterization, UnitBudgets, VddDelayCurve, VoltageNoise,
};
use std::sync::Arc;

/// Configuration of the case study.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseStudyConfig {
    /// Operand width of the execution-stage datapath (32 in the paper).
    pub alu_width: usize,
    /// Target static timing limit at the nominal voltage, in MHz.
    pub target_fmax_mhz: f64,
    /// Nominal supply voltage used for calibration.
    pub nominal_vdd: f64,
    /// Supply voltages to characterize (the paper uses 0.7 V and 0.8 V).
    pub voltages: Vec<f64>,
    /// Characterization cycles per ALU instruction (≈ 8 kCycles total in
    /// the paper).
    pub cycles_per_op: usize,
    /// Synthesis-like per-unit timing budgets.
    pub budgets: UnitBudgets,
    /// Seed of the characterization kernel's operand randomization.
    pub seed: u64,
}

impl CaseStudyConfig {
    /// The paper's case study: 32-bit datapath, 707 MHz STA limit at 0.7 V,
    /// characterizations at 0.7 V and 0.8 V.
    pub fn paper() -> Self {
        CaseStudyConfig {
            alu_width: 32,
            target_fmax_mhz: 707.0,
            nominal_vdd: 0.7,
            voltages: vec![0.7, 0.8],
            cycles_per_op: 512,
            budgets: UnitBudgets::paper_defaults(),
            seed: 0xDAC_2016,
        }
    }

    /// A scaled-down configuration (8-bit datapath, short characterization)
    /// for unit tests and doc-tests.
    pub fn fast_for_tests() -> Self {
        CaseStudyConfig {
            alu_width: 8,
            cycles_per_op: 48,
            voltages: vec![0.7],
            ..CaseStudyConfig::paper()
        }
    }
}

impl Default for CaseStudyConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// The fully characterized case-study hardware.
///
/// Owns the gate-level ALU datapath, the calibrated delay model, the fitted
/// Vdd–delay curve, and one [`TimingCharacterization`] (CDF set) per
/// configured supply voltage — everything the fault models need.
///
/// The characterization data is held behind `Arc`s together with the
/// derived per-voltage artifacts the injectors consume (the STA endpoint
/// delays of models B/B+ and the flattened [`DtaFaultTable`] of model C),
/// so the per-trial model constructors ([`CaseStudy::model_b`],
/// [`CaseStudy::model_b_plus`], [`CaseStudy::model_c`]) only bump
/// reference counts — they never copy CDFs.  Cloning a `CaseStudy` is
/// correspondingly cheap.
#[derive(Debug, Clone)]
pub struct CaseStudy {
    config: CaseStudyConfig,
    alu: AluDatapath,
    scaling: VoltageScaling,
    delays: DelayModel,
    node_multipliers: Vec<f64>,
    curve: Arc<VddDelayCurve>,
    voltages: Vec<VoltageData>,
    cache_hit: bool,
}

/// Everything derived from one supply voltage's characterization, shared
/// by every injector built for that voltage.
#[derive(Debug, Clone)]
struct VoltageData {
    vdd: f64,
    characterization: Arc<TimingCharacterization>,
    /// Per-endpoint STA worst-case delays (models B and B+).
    sta_delays: Arc<[f64]>,
    /// Flattened per-instruction CDF table (model C).
    dta_table: Arc<DtaFaultTable>,
}

impl VoltageData {
    fn new(vdd: f64, characterization: TimingCharacterization) -> Self {
        let characterization = Arc::new(characterization);
        let sta_delays: Arc<[f64]> = (0..characterization.endpoint_count())
            .map(|e| characterization.sta_endpoint_delay_ps(e))
            .collect();
        let dta_table = Arc::new(DtaFaultTable::new(Arc::clone(&characterization)));
        VoltageData {
            vdd,
            characterization,
            sta_delays,
            dta_table,
        }
    }
}

impl CaseStudy {
    /// Builds and characterizes the case study.
    ///
    /// This is the expensive step of the flow (it runs the gate-level DTA
    /// kernel once per instruction and voltage); everything downstream
    /// reuses the extracted CDFs.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (zero width, no
    /// voltages, invalid budgets, …).
    pub fn build(config: CaseStudyConfig) -> Self {
        Self::build_inner(config, None)
    }

    /// Like [`CaseStudy::build`], but with a persistent characterization
    /// cache in `cache_dir` (see [`crate::cache`]).
    ///
    /// On a cache hit the expensive gate-level DTA characterization is
    /// skipped entirely and the CDF sets are restored bit-identically from
    /// disk; on a miss they are computed as usual and written back
    /// atomically.  [`CaseStudy::characterization_cache_hit`] reports which
    /// happened.  Cache *write* failures are non-fatal (reported on
    /// stderr): a read-only cache directory must not kill the build.
    ///
    /// # Panics
    ///
    /// Same conditions as [`CaseStudy::build`].
    pub fn build_cached(config: CaseStudyConfig, cache_dir: impl AsRef<std::path::Path>) -> Self {
        Self::build_inner(config, Some(cache_dir.as_ref()))
    }

    fn build_inner(config: CaseStudyConfig, cache_dir: Option<&std::path::Path>) -> Self {
        assert!(
            !config.voltages.is_empty(),
            "at least one supply voltage must be characterized"
        );
        let build_span = sfi_obs::Span::begin("study_build", "core")
            .arg("voltages", config.voltages.len() as u64)
            .arg("alu_width", config.alu_width as u64);
        let scaling = VoltageScaling::default_28nm();
        let alu = AluDatapath::build(config.alu_width);
        let base_delays = DelayModel::default_28nm();
        let (node_multipliers, delays) = {
            let _span = build_span.child("calibrate_delay_model", "core");
            let node_multipliers = synthesis_node_multipliers(
                &alu,
                &base_delays,
                &scaling,
                config.nominal_vdd,
                &config.budgets,
            );
            let delays = calibrate_delay_model_with_multipliers(
                &alu,
                &base_delays,
                &scaling,
                config.target_fmax_mhz,
                config.nominal_vdd,
                Some(&node_multipliers),
            );
            (node_multipliers, delays)
        };
        let curve = VddDelayCurve::from_scaling(&scaling, 0.6, 1.0, 5);
        let restored = {
            let _span = build_span.child("characterization_cache_load", "core");
            cache_dir.and_then(|dir| crate::cache::load(dir, &config))
        };
        let cache_hit = restored.is_some();
        let characterizations = restored.unwrap_or_else(|| {
            let chars: Vec<(f64, TimingCharacterization)> = config
                .voltages
                .iter()
                .map(|&vdd| {
                    let _span = build_span
                        .child("characterize_voltage", "core")
                        .arg("vdd_mv", (vdd * 1000.0).round() as u64);
                    let cfg = CharacterizationConfig {
                        cycles_per_op: config.cycles_per_op,
                        vdd,
                        seed: config.seed,
                        operands: OperandDistribution::UniformFull,
                    };
                    (
                        vdd,
                        characterize_alu_with_multipliers(
                            &alu,
                            &delays,
                            &scaling,
                            &cfg,
                            Some(&node_multipliers),
                        ),
                    )
                })
                .collect();
            if let Some(dir) = cache_dir {
                if let Err(err) = crate::cache::store(dir, &config, &chars) {
                    eprintln!("warning: failed to write characterization cache: {err}");
                }
            }
            chars
        });
        let voltages = {
            let _span = build_span.child("fault_tables", "core");
            characterizations
                .into_iter()
                .map(|(vdd, ch)| VoltageData::new(vdd, ch))
                .collect()
        };
        build_span.finish();
        sfi_obs::span::flush_thread();
        CaseStudy {
            config,
            alu,
            scaling,
            delays,
            node_multipliers,
            curve: Arc::new(curve),
            voltages,
            cache_hit,
        }
    }

    /// Whether the characterizations were restored from the persistent
    /// cache instead of being recomputed (always `false` for
    /// [`CaseStudy::build`]).
    pub fn characterization_cache_hit(&self) -> bool {
        self.cache_hit
    }

    /// The configuration the study was built with.
    pub fn config(&self) -> &CaseStudyConfig {
        &self.config
    }

    /// The gate-level datapath.
    pub fn alu(&self) -> &AluDatapath {
        &self.alu
    }

    /// The calibrated delay model.
    pub fn delay_model(&self) -> &DelayModel {
        &self.delays
    }

    /// The per-node sizing multipliers produced by the timing-budget pass.
    pub fn node_multipliers(&self) -> &[f64] {
        &self.node_multipliers
    }

    /// The fitted delay-vs-Vdd curve.
    pub fn vdd_delay_curve(&self) -> &VddDelayCurve {
        &self.curve
    }

    /// A token identifying this study's shared characterization data:
    /// clones of one built study return the same token (`Arc::ptr_eq`),
    /// independently built studies return different ones.
    /// [`crate::experiment::TrialContext`] uses it to invalidate its
    /// cached injector when trials switch to a different study.
    pub fn share_token(&self) -> &Arc<VddDelayCurve> {
        &self.curve
    }

    /// The voltage-scaling (alpha-power-law) model.
    pub fn voltage_scaling(&self) -> &VoltageScaling {
        &self.scaling
    }

    /// The characterization (CDF set) at supply voltage `vdd`.
    ///
    /// # Panics
    ///
    /// Panics if `vdd` was not listed in the configuration.
    pub fn characterization(&self, vdd: f64) -> &TimingCharacterization {
        &self.voltage_data(vdd).characterization
    }

    fn voltage_data(&self, vdd: f64) -> &VoltageData {
        self.voltages
            .iter()
            .find(|data| (data.vdd - vdd).abs() < 1e-9)
            .unwrap_or_else(|| {
                panic!("no characterization at {vdd} V; configure it in CaseStudyConfig::voltages")
            })
    }

    /// The static timing limit (MHz) at supply voltage `vdd`.
    ///
    /// # Panics
    ///
    /// Panics if `vdd` was not characterized.
    pub fn sta_limit_mhz(&self, vdd: f64) -> f64 {
        self.characterization(vdd).sta_limit_mhz()
    }

    /// A fresh STA run at an arbitrary voltage (used by the power model to
    /// translate voltage scaling into equivalent frequency scaling).
    pub fn sta_at(&self, vdd: f64) -> StaticTimingAnalysis {
        let _span =
            sfi_obs::Span::begin("sta", "core").arg("vdd_mv", (vdd * 1000.0).round() as u64);
        StaticTimingAnalysis::run_with_multipliers(
            self.alu.netlist(),
            &self.delays,
            &self.scaling,
            vdd,
            Some(&self.node_multipliers),
        )
    }

    /// Number of fault-injection endpoints (result-register bits).
    pub fn endpoint_count(&self) -> usize {
        self.alu.endpoint_count()
    }

    /// Creates a model A injector (fixed bit-flip probability).
    pub fn model_a(&self, bit_flip_probability: f64, seed: u64) -> FixedProbabilityModel {
        FixedProbabilityModel::new(bit_flip_probability, self.endpoint_count(), seed)
    }

    /// Creates a model B injector (STA period violation) for `point`:
    /// model B+ with the point's supply noise switched off, which draws no
    /// random numbers, so no seed is needed.
    pub fn model_b(&self, point: OperatingPoint) -> StaWithNoiseModel {
        self.model_b_plus(point.with_noise(VoltageNoise::none()), 0)
    }

    /// Creates a model B+ injector (STA + supply noise) for `point`.
    ///
    /// Allocation-free on the characterization: the STA endpoint delays
    /// and the Vdd–delay curve are `Arc`-shared with the study.
    pub fn model_b_plus(&self, point: OperatingPoint, seed: u64) -> StaWithNoiseModel {
        let data = self.voltage_data(point.vdd());
        StaWithNoiseModel::from_shared(
            Arc::clone(&data.sta_delays),
            data.vdd,
            point,
            Arc::clone(&self.curve),
            seed,
        )
    }

    /// Creates a model C injector (statistical DTA CDFs) for `point`.
    ///
    /// The injector shares the study's flattened [`DtaFaultTable`] and
    /// Vdd–delay curve by `Arc`, and the step tables of `point` from the
    /// table's memo.  On a memo hit — every injector after the first at
    /// the same point — building one costs three reference-count bumps
    /// and one lock, not a multi-megabyte CDF copy; a miss builds the
    /// point's step tables once.
    pub fn model_c(&self, point: OperatingPoint, seed: u64) -> StatisticalDtaModel {
        StatisticalDtaModel::from_table(
            Arc::clone(&self.voltage_data(point.vdd()).dta_table),
            point,
            Arc::clone(&self.curve),
            seed,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_study() -> CaseStudy {
        CaseStudy::build(CaseStudyConfig::fast_for_tests())
    }

    #[test]
    fn calibration_hits_target() {
        let study = fast_study();
        let sta = study.sta_limit_mhz(0.7);
        assert!(
            (sta - 707.0).abs() < 1.0,
            "STA limit {sta} should be ~707 MHz"
        );
        assert_eq!(study.endpoint_count(), 8);
        assert_eq!(study.config().alu_width, 8);
        assert_eq!(study.node_multipliers().len(), study.alu().netlist().len());
    }

    #[test]
    fn characterization_lookup() {
        let study = fast_study();
        let ch = study.characterization(0.7);
        assert_eq!(ch.vdd(), 0.7);
        assert!(study.vdd_delay_curve().delay_factor(0.65) > 1.0);
        assert!(study.sta_at(0.8).max_frequency_mhz() > study.sta_at(0.7).max_frequency_mhz());
        assert!(study.delay_model().scale() > 0.0);
        assert_eq!(study.voltage_scaling().nominal_vdd(), 0.7);
    }

    #[test]
    fn model_constructors() {
        let study = fast_study();
        let point = OperatingPoint::new(800.0, 0.7).with_noise_sigma_mv(10.0);
        let _ = study.model_a(1e-4, 1);
        let _ = study.model_b(OperatingPoint::new(800.0, 0.7));
        let _ = study.model_b_plus(point, 2);
        let c = study.model_c(point, 3);
        assert_eq!(c.operating_point().freq_mhz(), 800.0);
    }

    #[test]
    fn per_trial_injectors_share_one_fault_table() {
        // The zero-clone guarantee: every model C injector built from the
        // same study (and voltage) points at the same flattened table, so
        // per-trial construction copies no characterization data.
        let study = fast_study();
        let point = OperatingPoint::new(800.0, 0.7).with_noise_sigma_mv(10.0);
        let first = study.model_c(point, 1);
        let second = study.model_c(point.at_frequency(900.0), 2);
        assert!(std::sync::Arc::ptr_eq(
            first.fault_table(),
            second.fault_table()
        ));
        let shifted = first.at_frequency(850.0, 3);
        assert!(std::sync::Arc::ptr_eq(
            first.fault_table(),
            shifted.fault_table()
        ));
    }

    #[test]
    #[should_panic(expected = "no characterization")]
    fn missing_voltage_panics() {
        fast_study().characterization(0.9);
    }
}
