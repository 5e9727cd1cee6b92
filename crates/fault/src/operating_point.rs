//! Operating points: clock frequency, supply voltage and supply noise.

use sfi_timing::{freq_mhz_to_period_ps, VddDelayCurve, VoltageNoise};
use std::fmt;

/// Relative guard band on the per-cycle delay-factor bounds that models
/// B+ and C assume: the worst factor behind the fault-free bound, and the
/// best factor behind the noise-independent endpoint classes.
///
/// The per-cycle factor the models compute can exceed the exact maximum
/// of the curve by a few ulps of interpolation and division rounding
/// (~1e-15 relative); 1e-9 covers that with a wide margin and costs
/// nothing measurable in the frequency the bound certifies.
pub const WORST_FACTOR_GUARD_BAND: f64 = 1e-9;

/// One operating point of the core: the clock frequency it is (over-)clocked
/// to, the nominal supply voltage, and the supply-noise level.
///
/// # Example
///
/// ```
/// use sfi_fault::OperatingPoint;
///
/// let op = OperatingPoint::new(750.0, 0.7).with_noise_sigma_mv(10.0);
/// assert!((op.period_ps() - 1333.3).abs() < 0.1);
/// assert_eq!(op.noise().sigma_mv(), 10.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    freq_mhz: f64,
    vdd: f64,
    noise: VoltageNoise,
}

impl OperatingPoint {
    /// Creates a noiseless operating point.
    ///
    /// # Panics
    ///
    /// Panics if `freq_mhz` or `vdd` is not strictly positive.
    pub fn new(freq_mhz: f64, vdd: f64) -> Self {
        assert!(freq_mhz > 0.0, "frequency must be positive, got {freq_mhz}");
        assert!(vdd > 0.0, "supply voltage must be positive, got {vdd}");
        OperatingPoint {
            freq_mhz,
            vdd,
            noise: VoltageNoise::none(),
        }
    }

    /// Sets the supply-noise standard deviation in millivolts.
    pub fn with_noise_sigma_mv(mut self, sigma_mv: f64) -> Self {
        self.noise = VoltageNoise::with_sigma_mv(sigma_mv);
        self
    }

    /// Sets the supply-noise model explicitly.
    pub fn with_noise(mut self, noise: VoltageNoise) -> Self {
        self.noise = noise;
        self
    }

    /// Returns a copy at a different clock frequency (used by sweeps).
    ///
    /// # Panics
    ///
    /// Panics if `freq_mhz` is not strictly positive.
    pub fn at_frequency(mut self, freq_mhz: f64) -> Self {
        assert!(freq_mhz > 0.0, "frequency must be positive, got {freq_mhz}");
        self.freq_mhz = freq_mhz;
        self
    }

    /// The clock frequency in MHz.
    pub fn freq_mhz(&self) -> f64 {
        self.freq_mhz
    }

    /// The clock period in picoseconds.
    pub fn period_ps(&self) -> f64 {
        freq_mhz_to_period_ps(self.freq_mhz)
    }

    /// The nominal supply voltage in volts.
    pub fn vdd(&self) -> f64 {
        self.vdd
    }

    /// The supply-noise model.
    pub fn noise(&self) -> VoltageNoise {
        self.noise
    }

    /// An upper bound on every per-cycle delay scaling factor the noisy
    /// models (B+ and C) can compute at this point on `curve`.
    ///
    /// Every noise sample is `clamp(z, -c, c) * σ` with `c` the clip
    /// point, so its magnitude is at most `c * σ` — the same product in
    /// floating point — and the noisy supply `vdd + noise` lies in
    /// `[vdd - cσ, vdd + cσ]` (rounding is monotone).  The factor is
    /// `delay_factor(vdd + noise) / delay_factor(vdd)`, so it is at most
    /// [`VddDelayCurve::max_delay_factor`] over that range divided by the
    /// nominal factor, up to a few ulps of rounding that
    /// [`WORST_FACTOR_GUARD_BAND`] covers.
    pub(crate) fn worst_delay_factor(&self, curve: &VddDelayCurve) -> f64 {
        let excursion = self.noise.max_excursion_volts();
        let worst = curve.max_delay_factor(self.vdd - excursion, self.vdd + excursion)
            / curve.delay_factor(self.vdd);
        worst * (1.0 + WORST_FACTOR_GUARD_BAND)
    }

    /// A lower bound on every per-cycle delay scaling factor the noisy
    /// models can compute at this point on `curve`: the mirror image of
    /// [`OperatingPoint::worst_delay_factor`], built on
    /// [`VddDelayCurve::min_delay_factor`] over the same clipped supply
    /// range and lowered by the same relative guard band.
    pub(crate) fn best_delay_factor(&self, curve: &VddDelayCurve) -> f64 {
        let excursion = self.noise.max_excursion_volts();
        let best = curve.min_delay_factor(self.vdd - excursion, self.vdd + excursion)
            / curve.delay_factor(self.vdd);
        best * (1.0 - WORST_FACTOR_GUARD_BAND)
    }
}

impl fmt::Display for OperatingPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.1} MHz @ {:.2} V (noise sigma {:.0} mV)",
            self.freq_mhz,
            self.vdd,
            self.noise.sigma_mv()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_and_display() {
        let op = OperatingPoint::new(707.0, 0.7).with_noise_sigma_mv(25.0);
        assert_eq!(op.freq_mhz(), 707.0);
        assert_eq!(op.vdd(), 0.7);
        assert_eq!(op.noise().sigma_mv(), 25.0);
        assert!((op.period_ps() - 1414.43).abs() < 0.01);
        assert!(op.to_string().contains("707.0 MHz"));
        let faster = op.at_frequency(800.0);
        assert_eq!(faster.freq_mhz(), 800.0);
        assert_eq!(faster.vdd(), 0.7);
    }

    #[test]
    fn explicit_noise_model() {
        let op = OperatingPoint::new(500.0, 0.8)
            .with_noise(VoltageNoise::with_sigma_mv(10.0).with_clip_sigmas(3.0));
        assert_eq!(op.noise().clip_sigmas(), 3.0);
    }

    #[test]
    fn worst_delay_factor_is_the_clipped_droop() {
        let curve = VddDelayCurve::from_samples(&[(0.6, 1.4), (0.7, 1.0), (0.8, 0.8)]);
        let quiet = OperatingPoint::new(700.0, 0.7);
        assert_eq!(
            quiet.worst_delay_factor(&curve),
            1.0 + WORST_FACTOR_GUARD_BAND
        );
        // 10 mV clipped at 2 sigma: the worst droop is 0.68 V.
        let noisy = quiet.with_noise_sigma_mv(10.0);
        let droop = curve.delay_factor(0.68);
        assert!(
            (noisy.worst_delay_factor(&curve) / droop - 1.0 - WORST_FACTOR_GUARD_BAND).abs()
                < 1e-12
        );
    }

    #[test]
    fn best_delay_factor_is_the_clipped_overshoot() {
        let curve = VddDelayCurve::from_samples(&[(0.6, 1.4), (0.7, 1.0), (0.8, 0.8)]);
        let quiet = OperatingPoint::new(700.0, 0.7);
        assert_eq!(
            quiet.best_delay_factor(&curve),
            1.0 - WORST_FACTOR_GUARD_BAND
        );
        // 10 mV clipped at 2 sigma: the highest supply is 0.72 V.
        let noisy = quiet.with_noise_sigma_mv(10.0);
        let overshoot = curve.delay_factor(0.72);
        assert!(
            (noisy.best_delay_factor(&curve) / overshoot - 1.0 + WORST_FACTOR_GUARD_BAND).abs()
                < 1e-12
        );
        assert!(noisy.best_delay_factor(&curve) < noisy.worst_delay_factor(&curve));
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_frequency_panics() {
        OperatingPoint::new(0.0, 0.7);
    }
}
