//! Compact, cache-friendly fault tables for the statistical DTA model.
//!
//! A [`TimingCharacterization`] stores one [`sfi_timing::ErrorCdf`] — a
//! separately allocated sorted `Vec<f64>` of every delay sample — per
//! (instruction, endpoint) pair.  The model C hot loop queries the
//! endpoints of one instruction every ALU cycle, and the samples repeat
//! heavily: an endpoint's hundreds of samples hold a few dozen distinct
//! delays at most.  [`DtaFaultTable`] therefore keeps, per (instruction,
//! endpoint), only
//!
//! * the smallest and largest sample (`min`, `max`), and
//! * the distinct delays with the error probability each one leaves
//!   behind, i.e. the fraction of samples strictly above it.
//!
//! A query at threshold `t` is then `1.0` for `t < min` and `0.0` for
//! `t >= max` without any search, and otherwise one binary search over at
//! most as many values as the endpoint has distinct delays.  Every
//! probability is the same integer ratio `samples above / samples` that
//! [`sfi_timing::ErrorCdf::error_probability`] computes, so results are
//! bit-identical to walking the CDFs.
//!
//! # Random-number consumption
//!
//! [`DtaFaultTable::violation_mask`] calls `draw(p)` exactly for the
//! candidate endpoints with `p > 0`, in ascending endpoint order — including the
//! `p = 1` endpoints, which skip the search but still draw.  That is the
//! consumption pattern of querying the CDFs one endpoint at a time, so a
//! caller drawing with `gen_bool(p)` advances its generator exactly as
//! the unflattened walk did.  [`DtaFaultTable::endpoint_classes`] lets a
//! caller prove, for a whole range of thresholds, which endpoints sit at
//! `p = 1` and which at `p = 0`; model C uses it to skip the noise sample
//! and the walk on cycles whose outcome the noise cannot change (see
//! [`crate::model_c`]).
//!
//! The table is built once per characterization (typically at
//! [`CaseStudy`](../../sfi_core/study/struct.CaseStudy.html) construction)
//! and shared by every injector via `Arc`, so per-trial model
//! construction allocates nothing.

use sfi_netlist::alu::AluOp;
use sfi_timing::TimingCharacterization;
use std::cmp::Ordering;
use std::sync::Arc;

/// The compact per-(instruction, endpoint) error CDFs of one
/// characterization.
#[derive(Debug, Clone)]
pub struct DtaFaultTable {
    characterization: Arc<TimingCharacterization>,
    /// Endpoints covered by the mask computation (`min(width, 32)`, the
    /// result-register width of the ISS).
    endpoints: usize,
    /// `endpoints` CDFs per instruction, op-major in `AluOp::code()`
    /// order.
    cdfs: Vec<EndpointCdf>,
    /// The distinct delays of every CDF, each CDF's run ascending.
    values: Vec<f64>,
    /// `probs[i]`: the fraction of the owning CDF's samples strictly
    /// above `values[i]`.
    probs: Vec<f64>,
    /// Worst observed delay per instruction over the covered endpoints,
    /// in picoseconds (`0.0` when every covered endpoint is empty — then
    /// nothing ever violates).
    max_delay_ps: Vec<f64>,
}

/// One endpoint's CDF: its sample range plus its run of distinct delays
/// in the table's `values`.
#[derive(Debug, Clone, Copy)]
struct EndpointCdf {
    /// Smallest sample: every threshold below it is violated with p = 1.
    min_ps: f64,
    /// Largest sample (`-inf` for an empty CDF): no threshold at or
    /// above it is ever violated.
    max_ps: f64,
    start: u32,
    len: u32,
}

/// Which endpoints of one instruction a whole range of thresholds leaves
/// at a fixed probability (see [`DtaFaultTable::endpoint_classes`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EndpointClasses {
    /// Endpoints violated with probability exactly 1 at every threshold
    /// of the range.
    pub always: u32,
    /// Endpoints whose probability can take a value other than 0 and 1
    /// somewhere in the range.  Endpoints in neither mask have
    /// probability exactly 0 throughout.
    pub varies: u32,
}

impl DtaFaultTable {
    /// Compacts `characterization` into the per-instruction tables.
    pub fn new(characterization: Arc<TimingCharacterization>) -> Self {
        let endpoints = characterization.endpoint_count().min(32);
        let mut cdfs = Vec::with_capacity(AluOp::ALL.len() * endpoints);
        let mut values = Vec::new();
        let mut probs = Vec::new();
        let mut max_delay_ps = Vec::with_capacity(AluOp::ALL.len());
        for op in AluOp::ALL {
            let mut op_max = 0.0f64;
            for endpoint in 0..endpoints {
                let samples = characterization.cdf(op, endpoint).samples();
                let start = values.len();
                for (i, &delay) in samples.iter().enumerate() {
                    // The last of each run of equal samples closes it: the
                    // samples above it are exactly those after index `i`.
                    if samples.get(i + 1) != Some(&delay) {
                        values.push(delay);
                        probs.push((samples.len() - i - 1) as f64 / samples.len() as f64);
                    }
                }
                let (min_ps, max_ps) = match (samples.first(), samples.last()) {
                    (Some(&min), Some(&max)) => (min, max),
                    _ => (f64::NEG_INFINITY, f64::NEG_INFINITY),
                };
                op_max = op_max.max(max_ps);
                cdfs.push(EndpointCdf {
                    min_ps,
                    max_ps,
                    start: start as u32,
                    len: (values.len() - start) as u32,
                });
            }
            max_delay_ps.push(op_max);
        }
        DtaFaultTable {
            characterization,
            endpoints,
            cdfs,
            values,
            probs,
            max_delay_ps,
        }
    }

    /// The characterization the table was built from.
    pub fn characterization(&self) -> &Arc<TimingCharacterization> {
        &self.characterization
    }

    /// Endpoints covered by the table (`min(width, 32)`, the
    /// result-register width of the ISS).
    pub fn endpoint_count(&self) -> usize {
        self.endpoints
    }

    /// Worst observed delay of instruction `op` over the covered
    /// endpoints, in picoseconds.
    pub fn max_delay_ps(&self, op: AluOp) -> f64 {
        self.max_delay_ps[op.code() as usize]
    }

    fn op_cdfs(&self, op: AluOp) -> &[EndpointCdf] {
        let first = op.code() as usize * self.endpoints;
        &self.cdfs[first..first + self.endpoints]
    }

    /// The probability that a sample of `cdf` strictly exceeds
    /// `threshold_ps`.
    #[inline]
    fn probability(&self, cdf: &EndpointCdf, threshold_ps: f64) -> f64 {
        // Also catches an empty CDF, whose `max_ps` is `-inf`, and a NaN
        // threshold, which must not reach the search.
        if threshold_ps.partial_cmp(&cdf.max_ps) != Some(Ordering::Less) {
            return 0.0;
        }
        if threshold_ps < cdf.min_ps {
            return 1.0;
        }
        // `min <= threshold < max`: at least the first distinct value is
        // at or below the threshold and the last one is above it.
        let run = cdf.start as usize..(cdf.start + cdf.len) as usize;
        let below = self.values[run.clone()].partition_point(|&d| d <= threshold_ps);
        self.probs[run.start + below - 1]
    }

    /// Timing-error probability of `endpoint` under instruction `op` at an
    /// effective (noise-scaled) clock period of `threshold_ps`: the
    /// fraction of delay samples strictly exceeding the threshold.
    ///
    /// Matches `TimingCharacterization::error_probability` bit for bit on
    /// the same data.
    pub fn error_probability(&self, op: AluOp, endpoint: usize, threshold_ps: f64) -> f64 {
        self.probability(&self.op_cdfs(op)[endpoint], threshold_ps)
    }

    /// Sorts the endpoints of `op` by how every threshold in
    /// `[lo_ps, hi_ps]` treats them: always violated, never violated, or
    /// in between (see [`EndpointClasses`]).
    pub fn endpoint_classes(&self, op: AluOp, lo_ps: f64, hi_ps: f64) -> EndpointClasses {
        let mut classes = EndpointClasses::default();
        for (endpoint, cdf) in self.op_cdfs(op).iter().enumerate() {
            if lo_ps >= cdf.max_ps {
                continue;
            }
            if hi_ps < cdf.min_ps {
                classes.always |= 1 << endpoint;
            } else {
                classes.varies |= 1 << endpoint;
            }
        }
        classes
    }

    /// Draws the per-endpoint Bernoulli mask for instruction `op` at an
    /// effective clock period of `threshold_ps` over the endpoints in
    /// `candidates`, using `draw` for the random decisions.
    ///
    /// `draw` is invoked exactly for the candidates with a non-zero error
    /// probability, in ascending endpoint order.  When `candidates` holds
    /// every endpoint with `p > 0` at `threshold_ps` — all endpoints, or
    /// `always | varies` of [`DtaFaultTable::endpoint_classes`] over a
    /// range containing the threshold — that is the random-number
    /// consumption of querying the CDFs endpoint by endpoint, so fault
    /// sequences are bit-identical to the unflattened walk.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` names an endpoint at or beyond
    /// [`DtaFaultTable::endpoint_count`].
    pub fn violation_mask(
        &self,
        op: AluOp,
        candidates: u32,
        threshold_ps: f64,
        mut draw: impl FnMut(f64) -> bool,
    ) -> u32 {
        let cdfs = self.op_cdfs(op);
        let mut mask = 0u32;
        let mut rest = candidates;
        while rest != 0 {
            let endpoint = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            let p = self.probability(&cdfs[endpoint], threshold_ps);
            if p > 0.0 && draw(p) {
                mask |= 1 << endpoint;
            }
        }
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfi_netlist::alu::AluDatapath;
    use sfi_netlist::{DelayModel, VoltageScaling};
    use sfi_timing::{characterize_alu, CharacterizationConfig};

    fn table() -> DtaFaultTable {
        let alu = AluDatapath::build(8);
        let ch = characterize_alu(
            &alu,
            &DelayModel::default_28nm(),
            &VoltageScaling::default_28nm(),
            &CharacterizationConfig {
                cycles_per_op: 48,
                ..Default::default()
            },
        );
        DtaFaultTable::new(Arc::new(ch))
    }

    #[test]
    fn probabilities_match_the_characterization() {
        let t = table();
        let ch = t.characterization().clone();
        assert_eq!(t.endpoint_count(), 8);
        for op in AluOp::ALL {
            for endpoint in 0..8 {
                for scale in [0.5, 0.8, 0.95, 1.0, 1.2] {
                    let threshold = ch.sta_critical_path_ps() * scale;
                    assert_eq!(
                        t.error_probability(op, endpoint, threshold),
                        ch.cdf(op, endpoint).error_probability(threshold),
                        "{op:?} endpoint {endpoint} scale {scale}"
                    );
                }
            }
        }
    }

    #[test]
    fn max_delay_matches_the_worst_cdf_sample() {
        let t = table();
        let ch = t.characterization().clone();
        for op in AluOp::ALL {
            let expected = (0..8)
                .filter_map(|e| ch.cdf(op, e).max_delay_ps())
                .fold(0.0, f64::max);
            assert_eq!(t.max_delay_ps(op), expected);
        }
    }

    /// The thresholds where a compact CDF could go wrong: every sample
    /// value, one ulp either side of it, below the smallest sample and at
    /// the largest.
    fn edge_thresholds(samples: &[f64]) -> Vec<f64> {
        let mut thresholds = vec![samples[0] - 1.0, samples[0].next_down()];
        for &s in samples {
            thresholds.extend([s.next_down(), s, s.next_up()]);
        }
        thresholds.push(*samples.last().unwrap());
        thresholds
    }

    #[test]
    fn draws_see_the_cdf_walk_at_sample_edges() {
        let t = table();
        let ch = t.characterization().clone();
        for op in AluOp::ALL {
            let mut thresholds: Vec<f64> = (0..8)
                .flat_map(|e| edge_thresholds(ch.cdf(op, e).samples()))
                .collect();
            thresholds.sort_by(f64::total_cmp);
            thresholds.dedup();
            for threshold in thresholds {
                // The walk the table replaces: every endpoint's CDF in
                // order, drawing whenever its probability is non-zero.
                let expected: Vec<f64> = (0..8)
                    .map(|e| ch.cdf(op, e).error_probability(threshold))
                    .filter(|&p| p > 0.0)
                    .collect();
                let mut seen = Vec::new();
                t.violation_mask(op, 0xFF, threshold, |p| {
                    seen.push(p);
                    false
                });
                assert_eq!(seen, expected, "{op:?} threshold {threshold}");
            }
        }
    }

    #[test]
    fn classes_bound_every_threshold_in_the_range() {
        let t = table();
        let ch = t.characterization().clone();
        let sta = ch.sta_critical_path_ps();
        for op in AluOp::ALL {
            for (lo, hi) in [(0.5, 0.6), (0.8, 0.9), (0.95, 1.05), (1.2, 1.3)] {
                let (lo, hi) = (sta * lo, sta * hi);
                let classes = t.endpoint_classes(op, lo, hi);
                assert_eq!(classes.always & classes.varies, 0);
                for step in 0..=16 {
                    let threshold = lo + (hi - lo) * step as f64 / 16.0;
                    for e in 0..8 {
                        let p = t.error_probability(op, e, threshold);
                        if classes.always & (1 << e) != 0 {
                            assert_eq!(p, 1.0, "{op:?} endpoint {e}");
                        } else if classes.varies & (1 << e) == 0 {
                            assert_eq!(p, 0.0, "{op:?} endpoint {e}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fast_path_draws_nothing_at_long_periods() {
        let t = table();
        let long_period = t.max_delay_ps(AluOp::Mul);
        let mut draws = 0;
        let mask = t.violation_mask(AluOp::Mul, 0xFF, long_period, |_| {
            draws += 1;
            true
        });
        assert_eq!(mask, 0);
        assert_eq!(draws, 0, "equal-to-worst periods must not draw");
    }

    #[test]
    fn short_periods_violate_every_endpoint() {
        let t = table();
        let mask = t.violation_mask(AluOp::Mul, 0xFF, 0.0, |p| {
            assert_eq!(p, 1.0);
            true
        });
        assert_eq!(mask, 0xFF);
    }
}
