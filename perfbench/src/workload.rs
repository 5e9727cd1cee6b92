//! The three workloads, generated from the command-line seed.
//!
//! Each workload is a campaign definition (the "job" a user waits for) and
//! a round of point-of-first-failure queries.  Both are wire definitions,
//! so the same inputs run in-process and through the daemon.  The seed
//! picks the kernels' input data and the campaign and search seeds; the
//! operating points are fixed, so the amount of simulated work barely
//! depends on the seed.

use sfi_core::FaultModel;
use sfi_serve::protocol::PoffRequest;
use sfi_serve::wire::{BenchmarkDef, BudgetDef, CampaignDef, CellDef};

/// Supply voltage of every workload (the paper's characterized 0.7 V).
pub const VDD: f64 = 0.7;
/// Supply-noise sigma of every workload, millivolts.
pub const NOISE_MV: f64 = 10.0;

/// Which workload a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Below the STA limit: nearly every trial runs fault-free to the end.
    NearLimit,
    /// Above the STA limit: faults land and trials end within cycles.
    Overscaled,
    /// A small sweep and PoFF queries through the loopback daemon.
    Served,
}

impl Kind {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "near_limit" => Some(Kind::NearLimit),
            "overscaled" => Some(Kind::Overscaled),
            "served" => Some(Kind::Served),
            _ => None,
        }
    }

    /// The workload name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::NearLimit => "near_limit",
            Kind::Overscaled => "overscaled",
            Kind::Served => "served",
        }
    }
}

/// A generated workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The campaign one job runs.
    pub job: CampaignDef,
    /// One round of PoFF queries.
    pub poffs: Vec<PoffRequest>,
}

/// Derives an independent stream seed from the workload seed.
fn stream(seed: u64, purpose: u64) -> u64 {
    sfi_core::derive_trial_seed(seed, purpose, 0)
}

/// The nine kernels of `sfi_kernels::extended_suite` at the sizes it
/// uses, as wire recipes.
pub fn extended_suite_defs(seed: u64) -> Vec<BenchmarkDef> {
    vec![
        BenchmarkDef::Median { values: 129, seed },
        BenchmarkDef::MatMul {
            n: 16,
            element_bits: 8,
            seed,
        },
        BenchmarkDef::MatMul {
            n: 16,
            element_bits: 16,
            seed,
        },
        BenchmarkDef::KMeans {
            points: 8,
            clusters: 2,
            iterations: 12,
            seed,
        },
        BenchmarkDef::Dijkstra { nodes: 10, seed },
        BenchmarkDef::Fft { n: 64, seed },
        BenchmarkDef::Fir {
            taps: 16,
            outputs: 64,
            seed,
        },
        BenchmarkDef::Crc32 { words: 128, seed },
        BenchmarkDef::Bitonic { n: 64, seed },
    ]
}

fn sweep(
    name: &str,
    seed: u64,
    benchmarks: Vec<BenchmarkDef>,
    models: &[FaultModel],
    freqs_mhz: &[f64],
    trials: usize,
) -> CampaignDef {
    let mut def = CampaignDef::new(name, stream(seed, 2));
    for benchmark in benchmarks {
        let index = def.add_benchmark(benchmark);
        for &model in models {
            for &freq_mhz in freqs_mhz {
                def.cells.push(CellDef {
                    benchmark: index,
                    model,
                    freq_mhz,
                    vdd: VDD,
                    noise_sigma_mv: NOISE_MV,
                    budget: BudgetDef::fixed(trials),
                });
            }
        }
    }
    def
}

#[allow(clippy::too_many_arguments)]
fn poff(
    benchmark: BenchmarkDef,
    model: FaultModel,
    lo_mhz: f64,
    hi_mhz: f64,
    resolution_mhz: f64,
    trials: usize,
    seed: u64,
) -> PoffRequest {
    PoffRequest {
        benchmark,
        model,
        vdd: VDD,
        noise_sigma_mv: NOISE_MV,
        lo_mhz,
        hi_mhz,
        resolution_mhz,
        trials,
        seed,
    }
}

/// Builds workload `kind` from `seed` around the STA limit `sta_mhz`.
/// `smoke` shrinks every budget for a seconds-long check of the harness.
pub fn build(kind: Kind, seed: u64, sta_mhz: f64, smoke: bool) -> Workload {
    let data = stream(seed, 1);
    let search = stream(seed, 3);
    let at = |ratios: &[f64]| -> Vec<f64> { ratios.iter().map(|r| r * sta_mhz).collect() };
    let scale = |trials: usize| if smoke { trials.div_ceil(8) } else { trials };
    let suite = if smoke {
        extended_suite_defs(data).into_iter().step_by(4).collect()
    } else {
        extended_suite_defs(data)
    };
    match kind {
        // Below 0.97x no kernel sees a fault at 10 mV noise, so every
        // trial runs its full 10^4-10^5 cycles and the ISS and the noise
        // sampling of every ALU cycle do nearly all the work.  The searches
        // stay below 0.97x too: each confirms that a kernel survives up to
        // 0.96x by evaluating both ends, the same two cells whatever the
        // seed.
        Kind::NearLimit => Workload {
            job: sweep(
                "near_limit",
                seed,
                suite.clone(),
                &[FaultModel::StatisticalDta],
                &at(&[0.90, 0.93, 0.96]),
                scale(4),
            ),
            poffs: suite
                .into_iter()
                .enumerate()
                .map(|(i, b)| {
                    poff(
                        b,
                        FaultModel::StatisticalDta,
                        0.90 * sta_mhz,
                        0.96 * sta_mhz,
                        0.02 * sta_mhz,
                        scale(4),
                        stream(search, i as u64),
                    )
                })
                .collect(),
        },
        // From 1.25x up every kernel fails within tens to hundreds of
        // cycles under both models.  Between 1.05x and 1.2x k-means trials
        // hit the 445k-cycle watchdog at a seed-dependent rate, which
        // would make the workload's cost depend on the seed.  The searches
        // start at 1.25x, where every kernel already fails: one short cell
        // and the golden run each.
        Kind::Overscaled => Workload {
            job: sweep(
                "overscaled",
                seed,
                suite.clone(),
                &[FaultModel::StatisticalDta, FaultModel::StaWithNoise],
                &at(&[1.25, 1.275, 1.30]),
                scale(128),
            ),
            poffs: suite
                .into_iter()
                .enumerate()
                .map(|(i, b)| {
                    poff(
                        b,
                        if i % 2 == 0 {
                            FaultModel::StatisticalDta
                        } else {
                            FaultModel::StaWithNoise
                        },
                        1.25 * sta_mhz,
                        1.30 * sta_mhz,
                        0.02 * sta_mhz,
                        scale(4),
                        stream(search, i as u64),
                    )
                })
                .collect(),
        },
        // Small kernels and few trials: the simulation per request is
        // small, so the wire, the scheduler, the journal and streaming
        // carry a visible share of every latency.
        Kind::Served => Workload {
            job: sweep(
                "served",
                seed,
                vec![
                    BenchmarkDef::Fft { n: 16, seed: data },
                    BenchmarkDef::Crc32 {
                        words: 16,
                        seed: data,
                    },
                    BenchmarkDef::Bitonic { n: 16, seed: data },
                    BenchmarkDef::Median {
                        values: 21,
                        seed: data,
                    },
                ],
                &[FaultModel::StatisticalDta],
                &at(&[0.95, 1.25]),
                scale(8),
            ),
            // Model B is deterministic, so each search bisects the same
            // frequencies whatever the seed and a round costs the same.
            poffs: [
                BenchmarkDef::Median {
                    values: 21,
                    seed: data,
                },
                BenchmarkDef::Bitonic { n: 16, seed: data },
                BenchmarkDef::Fft { n: 16, seed: data },
                BenchmarkDef::Crc32 {
                    words: 16,
                    seed: data,
                },
            ]
            .into_iter()
            .enumerate()
            .map(|(i, b)| {
                poff(
                    b,
                    FaultModel::StaPeriodViolation,
                    0.90 * sta_mhz,
                    1.30 * sta_mhz,
                    0.02 * sta_mhz,
                    scale(4),
                    stream(search, i as u64),
                )
            })
            .collect(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_recipes_match_the_extended_suite() {
        let from_defs: Vec<_> = extended_suite_defs(5)
            .iter()
            .map(|d| d.instantiate().expect("valid recipe"))
            .collect();
        let suite = sfi_kernels::extended_suite(5);
        assert_eq!(from_defs.len(), suite.len());
        for (a, b) in from_defs.iter().zip(&suite) {
            assert_eq!(a.name(), b.name());
            assert_eq!(a.program().len(), b.program().len());
            assert_eq!(a.dmem_words(), b.dmem_words());
            assert_eq!(a.fi_window(), b.fi_window());
        }
    }

    #[test]
    fn workloads_are_a_function_of_the_seed() {
        for kind in [Kind::NearLimit, Kind::Overscaled, Kind::Served] {
            let a = build(kind, 3, 707.0, false);
            let b = build(kind, 3, 707.0, false);
            let c = build(kind, 4, 707.0, false);
            assert_eq!(a.job, b.job);
            assert_eq!(a.poffs, b.poffs);
            assert_ne!(a.job, c.job);
            assert!(a.job.instantiate().is_ok());
        }
        assert_eq!(Kind::parse("served"), Some(Kind::Served));
        assert_eq!(Kind::parse("nope"), None);
    }
}
