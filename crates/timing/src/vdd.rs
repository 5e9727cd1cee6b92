//! Fitted delay-vs-supply-voltage curve.
//!
//! The paper extracts the relation between small supply-voltage changes and
//! path delay from the worst-case path delay characterized at five supply
//! voltages (0.6 V to 1.0 V in 100 mV steps) and interpolates between them.
//! [`VddDelayCurve`] reproduces exactly that construction: five (or more)
//! sample points, piecewise-linear interpolation, and a scaling factor
//! helper used every simulated cycle to translate the instantaneous (noisy)
//! supply voltage into a delay modulation.

use sfi_netlist::VoltageScaling;

/// Piecewise-linear delay-factor-vs-Vdd curve.
///
/// Factors are relative to the curve's nominal voltage (factor 1.0).
///
/// # Example
///
/// ```
/// use sfi_netlist::VoltageScaling;
/// use sfi_timing::VddDelayCurve;
///
/// let curve = VddDelayCurve::from_scaling(&VoltageScaling::default_28nm(), 0.6, 1.0, 5);
/// // A droop below nominal slows the circuit down.
/// assert!(curve.delay_factor(0.68) > curve.delay_factor(0.7));
/// // The per-cycle noise scaling factor is 1.0 with no noise.
/// assert!((curve.noise_scaling_factor(0.7, 0.0) - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct VddDelayCurve {
    voltages: Vec<f64>,
    factors: Vec<f64>,
}

impl VddDelayCurve {
    /// Builds the curve by sampling `scaling` at `points` equally spaced
    /// voltages in `[v_min, v_max]` (the paper uses 0.6 V to 1.0 V with 5
    /// points).
    ///
    /// # Panics
    ///
    /// Panics if `points < 2`, if `v_min >= v_max`, or if `v_min` is not
    /// above the threshold voltage of `scaling`.
    pub fn from_scaling(scaling: &VoltageScaling, v_min: f64, v_max: f64, points: usize) -> Self {
        assert!(
            points >= 2,
            "at least two sample points are required, got {points}"
        );
        assert!(
            v_min < v_max,
            "v_min ({v_min}) must be below v_max ({v_max})"
        );
        let step = (v_max - v_min) / (points - 1) as f64;
        let voltages: Vec<f64> = (0..points).map(|i| v_min + step * i as f64).collect();
        let factors: Vec<f64> = voltages.iter().map(|&v| scaling.delay_factor(v)).collect();
        VddDelayCurve { voltages, factors }
    }

    /// Builds a curve from explicit `(voltage, delay_factor)` samples.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two samples are given or the voltages are not
    /// strictly increasing.
    pub fn from_samples(samples: &[(f64, f64)]) -> Self {
        assert!(samples.len() >= 2, "at least two samples are required");
        assert!(
            samples.windows(2).all(|w| w[0].0 < w[1].0),
            "sample voltages must be strictly increasing"
        );
        VddDelayCurve {
            voltages: samples.iter().map(|s| s.0).collect(),
            factors: samples.iter().map(|s| s.1).collect(),
        }
    }

    /// The sampled voltages.
    pub fn voltages(&self) -> &[f64] {
        &self.voltages
    }

    /// The delay factors at the sampled voltages.
    pub fn factors(&self) -> &[f64] {
        &self.factors
    }

    /// Interpolated delay factor at supply voltage `vdd`.
    ///
    /// Voltages outside the sampled range are clamped to the first/last
    /// segment (linear extrapolation is avoided deliberately: a clipped
    /// noise model never needs to stray far outside the fitted range).
    pub fn delay_factor(&self, vdd: f64) -> f64 {
        let v = &self.voltages;
        let f = &self.factors;
        if vdd <= v[0] {
            return f[0];
        }
        if vdd >= v[v.len() - 1] {
            return f[f.len() - 1];
        }
        let hi = v.partition_point(|&x| x < vdd);
        let lo = hi - 1;
        let t = (vdd - v[lo]) / (v[hi] - v[lo]);
        f[lo] + t * (f[hi] - f[lo])
    }

    /// The largest [`VddDelayCurve::delay_factor`] over the supply range
    /// `[lo, hi]`.
    ///
    /// A piecewise-linear curve reaches its maximum over an interval at
    /// an end of the interval or at a sample knot inside it, so this takes
    /// the maximum of both ends and of every knot strictly between them.
    /// No monotonicity is assumed, so curves built with
    /// [`VddDelayCurve::from_samples`] are bounded soundly as well.  The
    /// result can still be a few ulps below a value `delay_factor`
    /// computes inside a segment (interpolation rounds); callers that need
    /// a hard bound add a relative guard band.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn max_delay_factor(&self, lo: f64, hi: f64) -> f64 {
        assert!(lo <= hi, "empty voltage range [{lo}, {hi}]");
        self.voltages
            .iter()
            .zip(&self.factors)
            .filter(|(&v, _)| lo < v && v < hi)
            .map(|(_, &f)| f)
            .fold(self.delay_factor(lo).max(self.delay_factor(hi)), f64::max)
    }

    /// The smallest [`VddDelayCurve::delay_factor`] over the supply range
    /// `[lo, hi]`, found the same way as
    /// [`VddDelayCurve::max_delay_factor`]: from both ends and every knot
    /// strictly between them, with no monotonicity assumed.  The result
    /// can be a few ulps above a value `delay_factor` computes inside a
    /// segment; callers that need a hard bound add a relative guard band.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn min_delay_factor(&self, lo: f64, hi: f64) -> f64 {
        assert!(lo <= hi, "empty voltage range [{lo}, {hi}]");
        self.voltages
            .iter()
            .zip(&self.factors)
            .filter(|(&v, _)| lo < v && v < hi)
            .map(|(_, &f)| f)
            .fold(self.delay_factor(lo).min(self.delay_factor(hi)), f64::min)
    }

    /// Per-cycle delay scaling factor caused by a momentary noise excursion
    /// `noise_volts` around the nominal supply `vdd`.
    ///
    /// A value greater than 1.0 means the circuit is momentarily slower than
    /// at the nominal supply (voltage droop); the fault models multiply path
    /// delays — equivalently divide the available clock period — by it.
    pub fn noise_scaling_factor(&self, vdd: f64, noise_volts: f64) -> f64 {
        self.noise_scaling_factor_with_nominal(vdd, noise_volts, self.delay_factor(vdd))
    }

    /// Like [`VddDelayCurve::noise_scaling_factor`], but with the nominal
    /// delay factor `delay_factor(vdd)` precomputed by the caller.
    ///
    /// The nominal factor depends only on the operating point, not on the
    /// per-cycle noise sample, so per-cycle callers (the fault models'
    /// `inject` hot loops) hoist it out instead of re-interpolating the
    /// curve twice every simulated cycle.  With
    /// `nominal_factor == delay_factor(vdd)` the result is bit-identical
    /// to [`VddDelayCurve::noise_scaling_factor`].
    pub fn noise_scaling_factor_with_nominal(
        &self,
        vdd: f64,
        noise_volts: f64,
        nominal_factor: f64,
    ) -> f64 {
        self.delay_factor(vdd + noise_volts) / nominal_factor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve() -> VddDelayCurve {
        VddDelayCurve::from_scaling(&VoltageScaling::default_28nm(), 0.6, 1.0, 5)
    }

    #[test]
    fn five_point_construction() {
        let c = curve();
        assert_eq!(c.voltages().len(), 5);
        assert_eq!(c.factors().len(), 5);
        assert!((c.voltages()[1] - 0.7).abs() < 1e-12);
        // Normalized to the scaling model's nominal 0.7 V.
        assert!((c.delay_factor(0.7) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn monotonically_decreasing_with_voltage() {
        let c = curve();
        let mut prev = f64::INFINITY;
        for i in 0..=40 {
            let v = 0.6 + i as f64 * 0.01;
            let f = c.delay_factor(v);
            assert!(f <= prev + 1e-12, "delay factor must not increase with Vdd");
            prev = f;
        }
    }

    #[test]
    fn interpolation_matches_samples() {
        let c = curve();
        for (v, f) in c.voltages().iter().zip(c.factors()) {
            assert!((c.delay_factor(*v) - f).abs() < 1e-12);
        }
    }

    #[test]
    fn clamping_outside_range() {
        let c = curve();
        assert_eq!(c.delay_factor(0.5), c.factors()[0]);
        assert_eq!(c.delay_factor(1.2), *c.factors().last().unwrap());
    }

    #[test]
    fn noise_scaling_direction() {
        let c = curve();
        // Droop -> slower (factor > 1); overshoot -> faster (factor < 1).
        assert!(c.noise_scaling_factor(0.7, -0.020) > 1.0);
        assert!(c.noise_scaling_factor(0.7, 0.020) < 1.0);
        assert!((c.noise_scaling_factor(0.8, 0.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hoisted_nominal_factor_is_bit_identical() {
        let c = curve();
        for vdd in [0.65, 0.7, 0.8] {
            let nominal = c.delay_factor(vdd);
            for noise in [-0.05, -0.01, 0.0, 0.013, 0.05] {
                assert_eq!(
                    c.noise_scaling_factor(vdd, noise),
                    c.noise_scaling_factor_with_nominal(vdd, noise, nominal),
                    "vdd {vdd} noise {noise}"
                );
            }
        }
    }

    #[test]
    fn max_delay_factor_covers_ends_and_inner_knots() {
        // Non-monotone: a bump at 0.7 V that neither end of [0.65, 0.75]
        // sees.
        let c = VddDelayCurve::from_samples(&[(0.6, 1.2), (0.7, 1.5), (0.8, 0.9)]);
        assert_eq!(c.max_delay_factor(0.65, 0.75), 1.5);
        assert_eq!(c.max_delay_factor(0.7, 0.7), 1.5);
        assert!((c.max_delay_factor(0.72, 0.78) - c.delay_factor(0.72)).abs() < 1e-15);
        // Clamped outside the sampled range.
        assert_eq!(c.max_delay_factor(0.0, 0.55), 1.2);
        // A monotone curve's maximum is its low end.
        let m = curve();
        assert_eq!(m.max_delay_factor(0.68, 0.72), m.delay_factor(0.68));
    }

    #[test]
    #[should_panic(expected = "empty voltage range")]
    fn max_delay_factor_rejects_an_empty_range() {
        curve().max_delay_factor(0.8, 0.7);
    }

    #[test]
    fn min_delay_factor_covers_ends_and_inner_knots() {
        // Non-monotone: a dip at 0.7 V that neither end of [0.65, 0.75]
        // sees.
        let c = VddDelayCurve::from_samples(&[(0.6, 1.2), (0.7, 0.5), (0.8, 0.9)]);
        assert_eq!(c.min_delay_factor(0.65, 0.75), 0.5);
        assert_eq!(c.min_delay_factor(0.7, 0.7), 0.5);
        assert!((c.min_delay_factor(0.62, 0.68) - c.delay_factor(0.68)).abs() < 1e-15);
        // Clamped outside the sampled range.
        assert_eq!(c.min_delay_factor(0.85, 1.0), 0.9);
        // A monotone curve's minimum is its high end.
        let m = curve();
        assert_eq!(m.min_delay_factor(0.68, 0.72), m.delay_factor(0.72));
    }

    #[test]
    #[should_panic(expected = "empty voltage range")]
    fn min_delay_factor_rejects_an_empty_range() {
        curve().min_delay_factor(0.8, 0.7);
    }

    #[test]
    fn explicit_samples() {
        let c = VddDelayCurve::from_samples(&[(0.6, 1.3), (0.7, 1.0), (0.8, 0.85)]);
        assert!((c.delay_factor(0.65) - 1.15).abs() < 1e-12);
        assert!((c.delay_factor(0.75) - 0.925).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_samples_panic() {
        VddDelayCurve::from_samples(&[(0.7, 1.0), (0.6, 1.3)]);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn too_few_points_panic() {
        VddDelayCurve::from_scaling(&VoltageScaling::default_28nm(), 0.6, 1.0, 1);
    }
}
