//! Compact, cache-friendly fault tables for the statistical DTA model.
//!
//! A [`TimingCharacterization`] stores one [`sfi_timing::ErrorCdf`] — a
//! separately allocated sorted `Vec<f64>` of every delay sample — per
//! (instruction, endpoint) pair.  The samples repeat heavily: an
//! endpoint's hundreds of samples hold a few dozen distinct delays at
//! most.  [`DtaFaultTable`] therefore keeps, per (instruction, endpoint),
//! only
//!
//! * the smallest and largest sample (`min`, `max`), and
//! * the distinct delays with the error probability each one leaves
//!   behind, i.e. the fraction of samples strictly above it.
//!
//! [`DtaFaultTable::error_probability`] answers one (instruction,
//! endpoint, threshold) query from these: `1.0` below `min`, `0.0` at or
//! above `max`, otherwise one binary search over the endpoint's distinct
//! delays.  Every probability is the same integer ratio `samples above /
//! samples` that [`sfi_timing::ErrorCdf::error_probability`] computes, so
//! results are bit-identical to walking the CDFs.
//!
//! # Step tables per threshold range
//!
//! Model C needs, every cycle, the probabilities of all candidate
//! endpoints of one instruction, at a threshold that the clipped supply
//! noise keeps inside one range `[lo_ps, hi_ps]` per operating point.  An
//! endpoint's probability is a step function of the threshold that changes
//! only at its own distinct delays, so inside the range all candidates
//! together change only at the sorted union `U` of their distinct delays
//! in `[lo_ps, hi_ps]`.  [`DtaFaultTable::step_tables`] precomputes, per
//! instruction, `U` and one row of candidate probabilities per interval of
//! `U`:
//!
//! * row 0 covers `[lo_ps, U[0])` and is evaluated at `lo_ps`;
//! * row `r ≥ 1` covers `[U[r-1], U[r])` (the last row up to `hi_ps`) and
//!   is evaluated at `U[r-1]`.
//!
//! Every entry is [`DtaFaultTable::error_probability`] itself, and no
//! candidate has a distinct delay strictly inside an interval, so each row
//! is exact at every threshold of its interval.  Nothing assumes the
//! Vdd–delay curve is monotone.  A cycle then costs one `partition_point`
//! over `U` instead of one binary search per candidate endpoint.
//!
//! The tables depend only on the table and the pair `(lo_ps, hi_ps)`, so
//! the table memoizes them, keyed by the bits of that pair, and every
//! injector at that operating point shares them by `Arc`: across trials,
//! worker threads, cells, jobs and PoFF searches.  The memo holds at most
//! [`STEP_MEMO_RANGES`] ranges and drops the oldest beyond that.
//!
//! # Random-number consumption
//!
//! [`StepTables::violation_mask`] calls `draw(p)` exactly for the
//! candidate endpoints with `p > 0`, in ascending endpoint order —
//! including the `p = 1` endpoints, which still draw.  That is the
//! consumption pattern of querying the CDFs one endpoint at a time, so a
//! caller drawing with `gen_bool(p)` advances its generator exactly as the
//! unflattened walk did.  [`StepTables::classes`] tells, for the whole
//! range, which endpoints sit at `p = 1` and which at `p = 0`; model C
//! uses it to skip the noise sample and the lookup on cycles whose outcome
//! the noise cannot change (see [`crate::model_c`]).
//!
//! The table is built once per characterization (typically at
//! [`CaseStudy`](../../sfi_core/study/struct.CaseStudy.html) construction)
//! and shared by every injector via `Arc`.

use sfi_netlist::alu::AluOp;
use sfi_timing::TimingCharacterization;
use std::cmp::Ordering;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, PoisonError};

/// The most threshold ranges whose [`StepTables`] one [`DtaFaultTable`]
/// keeps; building tables for one more drops the oldest.
pub const STEP_MEMO_RANGES: usize = 64;

/// The compact per-(instruction, endpoint) error CDFs of one
/// characterization.
#[derive(Debug)]
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
    /// The step tables of the most recent threshold ranges (at most
    /// [`STEP_MEMO_RANGES`]).
    step_memo: Mutex<StepMemo>,
}

/// Memoized step tables, oldest first, keyed by the bits of their range.
type StepMemo = VecDeque<((u64, u64), Arc<StepTables>)>;

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
/// at a fixed probability (see [`StepTables::classes`]).
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

/// The per-cycle lookup of every instruction over one threshold range,
/// built by [`DtaFaultTable::step_tables`] (see the module docs).
#[derive(Debug)]
pub struct StepTables {
    lo_ps: f64,
    hi_ps: f64,
    /// Endpoint classes per instruction, indexed by `AluOp::code()`.
    classes: [EndpointClasses; AluOp::ALL.len()],
    /// Step table per instruction, indexed by `AluOp::code()`.
    steps: [OpSteps; AluOp::ALL.len()],
}

/// The step table of one instruction over one threshold range.
#[derive(Debug, Default)]
struct OpSteps {
    /// `U`: the sorted distinct delays of the `varies` endpoints inside
    /// the range.
    breaks: Box<[f64]>,
    /// Candidates (`always | varies`) per row.
    width: usize,
    /// `breaks.len() + 1` rows, row-major, of the candidates'
    /// probabilities in ascending endpoint order.
    rows: Box<[f64]>,
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
            step_memo: Mutex::new(VecDeque::new()),
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

    fn run(&self, cdf: &EndpointCdf) -> &[f64] {
        &self.values[cdf.start as usize..(cdf.start + cdf.len) as usize]
    }

    /// Timing-error probability of `endpoint` under instruction `op` at an
    /// effective (noise-scaled) clock period of `threshold_ps`: the
    /// fraction of delay samples strictly exceeding the threshold.
    ///
    /// Matches `TimingCharacterization::error_probability` bit for bit on
    /// the same data.
    pub fn error_probability(&self, op: AluOp, endpoint: usize, threshold_ps: f64) -> f64 {
        let cdf = &self.op_cdfs(op)[endpoint];
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
        let below = self.run(cdf).partition_point(|&d| d <= threshold_ps);
        self.probs[cdf.start as usize + below - 1]
    }

    /// Sorts the endpoints of `op` by how every threshold in
    /// `[lo_ps, hi_ps]` treats them: always violated, never violated, or
    /// in between (see [`EndpointClasses`]).
    fn endpoint_classes(&self, op: AluOp, lo_ps: f64, hi_ps: f64) -> EndpointClasses {
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

    /// The step tables of every instruction over the thresholds
    /// `[lo_ps, hi_ps]` (see the module docs), from the table's memo when
    /// it holds that range, else built and memoized.
    ///
    /// # Panics
    ///
    /// Panics unless `lo_ps <= hi_ps` (so also on a NaN bound).
    pub fn step_tables(&self, lo_ps: f64, hi_ps: f64) -> Arc<StepTables> {
        assert!(lo_ps <= hi_ps, "empty threshold range [{lo_ps}, {hi_ps}]");
        let key = (lo_ps.to_bits(), hi_ps.to_bits());
        let mut memo = self
            .step_memo
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some((_, tables)) = memo.iter().find(|(k, _)| *k == key) {
            return Arc::clone(tables);
        }
        let tables = Arc::new(self.build_step_tables(lo_ps, hi_ps));
        if memo.len() == STEP_MEMO_RANGES {
            memo.pop_front();
        }
        memo.push_back((key, Arc::clone(&tables)));
        tables
    }

    fn build_step_tables(&self, lo_ps: f64, hi_ps: f64) -> StepTables {
        let classes = AluOp::ALL.map(|op| self.endpoint_classes(op, lo_ps, hi_ps));
        let steps = AluOp::ALL.map(|op| {
            let classes = classes[op.code() as usize];
            let cdfs = self.op_cdfs(op);
            let mut breaks: Vec<f64> = bits(classes.varies)
                .flat_map(|endpoint| {
                    let run = self.run(&cdfs[endpoint]);
                    let first = run.partition_point(|&d| d < lo_ps);
                    let end = run.partition_point(|&d| d <= hi_ps);
                    run[first..end].iter().copied()
                })
                .collect();
            breaks.sort_by(f64::total_cmp);
            breaks.dedup();
            let candidates = classes.always | classes.varies;
            let at = std::iter::once(lo_ps).chain(breaks.iter().copied());
            let rows = at
                .flat_map(|threshold| {
                    bits(candidates).map(move |e| self.error_probability(op, e, threshold))
                })
                .collect();
            OpSteps {
                breaks: breaks.into(),
                width: candidates.count_ones() as usize,
                rows,
            }
        });
        StepTables {
            lo_ps,
            hi_ps,
            classes,
            steps,
        }
    }

    #[cfg(test)]
    pub(crate) fn memoized_ranges(&self) -> usize {
        self.step_memo.lock().unwrap().len()
    }
}

/// The set bits of `mask`, ascending.
fn bits(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let bit = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            bit
        })
    })
}

impl StepTables {
    /// The threshold range `(lo_ps, hi_ps)` the tables cover.
    #[cfg(test)]
    pub(crate) fn range_ps(&self) -> (f64, f64) {
        (self.lo_ps, self.hi_ps)
    }

    /// How every threshold of the range treats the endpoints of `op`.
    #[inline]
    pub fn classes(&self, op: AluOp) -> EndpointClasses {
        self.classes[op.code() as usize]
    }

    /// Draws the per-endpoint Bernoulli mask for instruction `op` at an
    /// effective clock period of `threshold_ps`, using `draw` for the
    /// random decisions.
    ///
    /// `draw` is invoked exactly for the endpoints with a non-zero error
    /// probability, in ascending endpoint order: the random-number
    /// consumption of querying the CDFs endpoint by endpoint, so fault
    /// sequences are bit-identical to the unflattened walk.
    ///
    /// `threshold_ps` must lie in the tables' range; the caller proves it
    /// does (checked in debug builds).
    #[inline]
    pub fn violation_mask(
        &self,
        op: AluOp,
        threshold_ps: f64,
        mut draw: impl FnMut(f64) -> bool,
    ) -> u32 {
        debug_assert!(
            (self.lo_ps..=self.hi_ps).contains(&threshold_ps),
            "threshold {threshold_ps} ps outside [{}, {}]",
            self.lo_ps,
            self.hi_ps
        );
        let code = op.code() as usize;
        let steps = &self.steps[code];
        let row = steps.breaks.partition_point(|&d| d <= threshold_ps);
        let probs = &steps.rows[row * steps.width..(row + 1) * steps.width];
        let classes = self.classes[code];
        let mut mask = 0u32;
        for (endpoint, &p) in bits(classes.always | classes.varies).zip(probs) {
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
        // One range over every sample, so every edge is in some row.
        let tables = t.step_tables(0.0, f64::MAX);
        for op in AluOp::ALL {
            let mut thresholds: Vec<f64> = (0..8)
                .flat_map(|e| edge_thresholds(ch.cdf(op, e).samples()))
                .collect();
            thresholds.sort_by(f64::total_cmp);
            thresholds.dedup();
            for threshold in thresholds {
                // The walk the tables replace: every endpoint's CDF in
                // order, drawing whenever its probability is non-zero.
                let expected: Vec<f64> = (0..8)
                    .map(|e| ch.cdf(op, e).error_probability(threshold))
                    .filter(|&p| p > 0.0)
                    .collect();
                let mut seen = Vec::new();
                tables.violation_mask(op, threshold, |p| {
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
                let classes = t.step_tables(lo, hi).classes(op);
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
        let tables = t.step_tables(long_period, long_period * 2.0);
        let mask = tables.violation_mask(AluOp::Mul, long_period, |_| {
            draws += 1;
            true
        });
        assert_eq!(mask, 0);
        assert_eq!(draws, 0, "equal-to-worst periods must not draw");
    }

    #[test]
    fn short_periods_violate_every_endpoint() {
        let t = table();
        let mask = t
            .step_tables(0.0, 0.0)
            .violation_mask(AluOp::Mul, 0.0, |p| {
                assert_eq!(p, 1.0);
                true
            });
        assert_eq!(mask, 0xFF);
    }

    #[test]
    fn threads_at_one_range_share_one_memoized_table() {
        let t = table();
        let sta = t.characterization().sta_critical_path_ps();
        let (lo, hi) = (sta * 0.75, sta * 0.8);
        let [a, b] = std::thread::scope(|scope| {
            [0, 1]
                .map(|_| scope.spawn(|| t.step_tables(lo, hi)))
                .map(|handle| handle.join().unwrap())
        });
        assert!(Arc::ptr_eq(&a, &b));
        assert!(Arc::ptr_eq(&a, &t.step_tables(lo, hi)));
        assert_eq!(t.memoized_ranges(), 1);
    }

    #[test]
    fn the_memo_stays_bounded_and_drops_the_oldest_range() {
        let t = table();
        let sta = t.characterization().sta_critical_path_ps();
        let range = |i: usize| {
            (
                sta * (0.7 + 0.005 * i as f64),
                sta * (0.8 + 0.005 * i as f64),
            )
        };
        let first = t.step_tables(range(0).0, range(0).1);
        for i in 1..STEP_MEMO_RANGES + 10 {
            t.step_tables(range(i).0, range(i).1);
            assert_eq!(t.memoized_ranges(), (i + 1).min(STEP_MEMO_RANGES));
        }
        // The newest range is still memoized, the first was dropped and
        // rebuilds to equal tables.
        let newest = range(STEP_MEMO_RANGES + 9);
        let held = t.step_tables(newest.0, newest.1);
        assert!(Arc::ptr_eq(&held, &t.step_tables(newest.0, newest.1)));
        let rebuilt = t.step_tables(range(0).0, range(0).1);
        assert!(!Arc::ptr_eq(&first, &rebuilt));
        for op in AluOp::ALL {
            let (a, b) = (
                &first.steps[op.code() as usize],
                &rebuilt.steps[op.code() as usize],
            );
            assert_eq!(first.classes(op), rebuilt.classes(op));
            assert_eq!((&a.breaks, a.width, &a.rows), (&b.breaks, b.width, &b.rows));
        }
    }
}
