//! Summary statistics of the benchmark: medians and quantiles, tail
//! percentiles under the ten-samples-beyond rule, geometric means over
//! cells and the failed fraction.

/// The median of `samples` (the mean of the two middle values for an even
/// count), or `None` for no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some(0.5 * (sorted[n / 2 - 1] + sorted[n / 2])),
    }
}

/// The `q` quantile of `samples` (0 ≤ q ≤ 1), interpolated linearly between
/// the two nearest order statistics, or `None` for no samples.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    let sorted = sorted(samples);
    if sorted.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let at = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64))
}

/// A tail percentile together with the sample count it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, in percent.
    pub percentile: f64,
    /// The nearest-rank value at that percentile.
    pub value: f64,
    /// How many samples were taken.
    pub samples: usize,
    /// How many samples lie beyond the value.
    pub beyond: usize,
}

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `percentile` of `samples`, provided at least
/// [`MIN_BEYOND`] samples lie beyond it; `None` otherwise.
pub fn tail(samples: &[f64], percentile: f64) -> Option<Tail> {
    let sorted = sorted(samples);
    let n = sorted.len();
    if n == 0 || !(0.0..100.0).contains(&percentile) {
        return None;
    }
    let rank = rank(percentile, n);
    let beyond = n - rank;
    (beyond >= MIN_BEYOND).then(|| Tail {
        percentile,
        value: sorted[rank - 1],
        samples: n,
        beyond,
    })
}

/// The 1-based nearest rank of `percentile` among `n` sorted samples (the
/// small slack keeps `0.8 * 50` from rounding up to 41).
fn rank(percentile: f64, n: usize) -> usize {
    ((percentile / 100.0) * n as f64 - 1e-9).ceil().max(1.0) as usize
}

/// The samples a run must collect so that [`tail`] at `percentile` exists.
pub fn samples_for_tail(percentile: f64) -> usize {
    (MIN_BEYOND + 1..)
        .find(|&n| n - rank(percentile, n) >= MIN_BEYOND)
        .expect("some sample count leaves ten beyond any percentile below 100")
}

/// The geometric mean of strictly positive values, or `None` if there are
/// none or any value is not positive and finite.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| !(v.is_finite() && *v > 0.0)) {
        return None;
    }
    Some((values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp())
}

/// Outcome tally of the operations a run attempted: jobs, requests,
/// campaigns and output checks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, were refused, timed out or returned a
    /// wrong output.
    pub failed: u64,
}

impl Tally {
    /// Records one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Adds another tally.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// `failed ÷ attempted`; a run that attempted nothing has failed
    /// entirely.
    pub fn failed_fraction(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        assert_eq!(quantile(&[], 0.75), None);
        assert_eq!(quantile(&[5.0], 0.75), Some(5.0));
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0, 5.0], 0.75), Some(4.0));
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0], 0.75), Some(3.25));
        assert_eq!(quantile(&[1.0, 2.0, 3.0], 0.5), median(&[1.0, 2.0, 3.0]));
        assert_eq!(quantile(&[1.0, 2.0], 1.5), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = tail(&samples, 90.0).expect("100 samples carry a p90");
        assert_eq!((p90.value, p90.beyond, p90.samples), (90.0, 10, 100));
        assert_eq!(tail(&samples, 95.0), None, "only 5 samples beyond p95");
        assert_eq!(tail(&samples[..99], 90.0), None, "9 samples beyond");
        assert_eq!(tail(&[], 50.0), None);
    }

    #[test]
    fn tail_rank_is_nearest_rank() {
        let samples: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        let p75 = tail(&samples, 75.0).expect("40 samples carry a p75");
        assert_eq!((p75.value, p75.beyond), (30.0, 10));
    }

    #[test]
    fn samples_for_tail_is_the_minimum() {
        for p in [50.0, 75.0, 80.0, 90.0, 95.0] {
            let n = samples_for_tail(p);
            let samples: Vec<f64> = (0..n).map(|i| i as f64).collect();
            assert!(tail(&samples, p).is_some(), "p{p} with n={n}");
            assert!(
                tail(&samples[..n - 1], p).is_none(),
                "p{p} with n={}",
                n - 1
            );
        }
    }

    #[test]
    fn geomean_resists_one_large_cell() {
        let g = geomean(&[1.0, 100.0]).expect("positive values");
        assert!((g - 10.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, f64::NAN]), None);
    }

    #[test]
    fn failed_fraction_counts_refusals_and_timeouts() {
        let mut tally = Tally::default();
        assert_eq!(tally.failed_fraction(), 1.0, "nothing attempted");
        tally.record(true);
        tally.record(false); // refused
        tally.record(false); // timed out
        tally.record(true);
        assert_eq!(tally.failed_fraction(), 0.5);
        let mut total = Tally::default();
        total.merge(tally);
        total.record(true);
        assert_eq!((total.attempted, total.failed), (5, 2));
    }
}
