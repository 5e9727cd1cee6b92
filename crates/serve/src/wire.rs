//! The serializable campaign description — the wire form of a
//! [`CampaignSpec`].
//!
//! A [`CampaignSpec`] holds live `Arc<dyn Benchmark>` objects, which
//! cannot travel over a socket.  The wire form therefore names benchmarks
//! by kind and construction parameters ([`BenchmarkDef`]); the daemon
//! instantiates the real kernels on its side via
//! [`CampaignDef::instantiate`].  Everything else (fault model, operating
//! point, trial budget) maps one-to-one onto the spec types.
//!
//! Decoding is strict and total: malformed or out-of-range input yields a
//! [`WireError`] instead of a panic, so a hostile frame cannot take the
//! daemon down.  64-bit integers (seeds) are encoded as decimal strings,
//! like the result document.

use sfi_campaign::{CampaignSpec, CellSpec, StopMetric, StopRule, TrialBudget};
use sfi_core::json::Json;
use sfi_core::FaultModel;
use sfi_fault::OperatingPoint;
use sfi_kernels::bitonic::BitonicSortBenchmark;
use sfi_kernels::crc32::Crc32Benchmark;
use sfi_kernels::dijkstra::DijkstraBenchmark;
use sfi_kernels::fft::FftBenchmark;
use sfi_kernels::fir::FirBenchmark;
use sfi_kernels::guest::GuestProgramBenchmark;
use sfi_kernels::kmeans::KMeansBenchmark;
use sfi_kernels::matmul::{ElementWidth, MatrixMultiplyBenchmark};
use sfi_kernels::median::MedianBenchmark;

/// Hard cap on instantiated campaign size, so one hostile `submit` cannot
/// make the daemon allocate without bound.
pub const MAX_CELLS: usize = 65_536;

/// Hard cap on the benchmark table, for the same reason: every
/// instantiated benchmark allocates its input data and program.
pub const MAX_BENCHMARKS: usize = 64;

/// Hard cap on per-benchmark input sizes (values, matrix order, nodes…).
pub const MAX_KERNEL_SIZE: usize = 4_096;

/// Hard cap on one cell's `max_trials`.  Besides bounding work, this
/// keeps a fully serialized cell (~80 bytes/trial) comfortably inside
/// [`crate::protocol::MAX_FRAME_BYTES`] so streamed cell frames always
/// fit.
pub const MAX_TRIALS_PER_CELL: usize = 50_000;

/// Hard cap on the `client` id of a `submit` frame, so per-client quota
/// accounting cannot be made to allocate without bound.
pub const MAX_CLIENT_ID_BYTES: usize = 64;

/// Hard cap on a submitted guest program, in instruction words.
pub const MAX_PROGRAM_WORDS: usize = 4_096;

/// Hard cap on a guest program's declared data memory, in words.
pub const MAX_GUEST_DMEM_WORDS: usize = 65_536;

/// A malformed or out-of-range wire value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire error: {}", self.0)
    }
}

impl std::error::Error for WireError {}

fn err<T>(message: impl Into<String>) -> Result<T, WireError> {
    Err(WireError(message.into()))
}

// — member readers, shared by every wire and protocol decoder —

/// The member `key` of `value`.
pub(crate) fn get<'a>(value: &'a Json, key: &str) -> Result<&'a Json, WireError> {
    value
        .get(key)
        .ok_or_else(|| WireError(format!("missing member '{key}'")))
}

/// The member `key`, an unsigned integer.
pub(crate) fn get_u64(value: &Json, key: &str) -> Result<u64, WireError> {
    get(value, key)?
        .as_u64()
        .ok_or_else(|| WireError(format!("'{key}' must be an unsigned integer")))
}

fn get_usize(value: &Json, key: &str, max: usize) -> Result<usize, WireError> {
    let v = get_u64(value, key)? as usize;
    if v == 0 || v > max {
        return err(format!("'{key}' must be in 1..={max}, got {v}"));
    }
    Ok(v)
}

/// The member `key`, a finite number.
pub(crate) fn get_finite(value: &Json, key: &str) -> Result<f64, WireError> {
    get(value, key)?
        .as_f64()
        .filter(|v| v.is_finite())
        .ok_or_else(|| WireError(format!("'{key}' must be a finite number")))
}

/// The member `key`, a string.
pub(crate) fn get_str<'a>(value: &'a Json, key: &str) -> Result<&'a str, WireError> {
    get(value, key)?
        .as_str()
        .ok_or_else(|| WireError(format!("'{key}' must be a string")))
}

/// The member `key`, a boolean.
pub(crate) fn get_bool(value: &Json, key: &str) -> Result<bool, WireError> {
    get(value, key)?
        .as_bool()
        .ok_or_else(|| WireError(format!("'{key}' must be a boolean")))
}

fn get_u32_array(
    value: &Json,
    key: &str,
    min_len: usize,
    max_len: usize,
) -> Result<Vec<u32>, WireError> {
    let arr = get(value, key)?
        .as_arr()
        .ok_or_else(|| WireError(format!("'{key}' must be an array")))?;
    if arr.len() < min_len || arr.len() > max_len {
        return err(format!(
            "'{key}' must hold {min_len}..={max_len} words, got {}",
            arr.len()
        ));
    }
    arr.iter()
        .enumerate()
        .map(|(i, v)| {
            v.as_u64()
                .filter(|&x| x <= u64::from(u32::MAX))
                .map(|x| x as u32)
                .ok_or_else(|| WireError(format!("'{key}[{i}]' must be a 32-bit unsigned integer")))
        })
        .collect()
}

/// Decodes a `{"start": .., "end": ..}` half-open range of u32 indices.
fn get_range(value: &Json, key: &str) -> Result<(u32, u32), WireError> {
    let obj = get(value, key)?;
    let bound = |k: &str| -> Result<u32, WireError> {
        get_u64(obj, k)?
            .try_into()
            .map_err(|_| WireError(format!("'{key}.{k}' must fit in 32 bits")))
    };
    Ok((bound("start")?, bound("end")?))
}

fn range_to_json(range: (u32, u32)) -> Json {
    Json::obj([
        ("start", Json::Num(f64::from(range.0))),
        ("end", Json::Num(f64::from(range.1))),
    ])
}

/// A benchmark kernel by name and construction parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BenchmarkDef {
    /// [`MedianBenchmark`]: a median filter over `values` random samples.
    Median {
        /// Number of input values (must be odd and at least 3).
        values: usize,
        /// Input-data seed.
        seed: u64,
    },
    /// [`MatrixMultiplyBenchmark`]: `n × n` multiplication.
    MatMul {
        /// Matrix order.
        n: usize,
        /// Element width in bits: 8 or 16.
        element_bits: u8,
        /// Input-data seed.
        seed: u64,
    },
    /// [`KMeansBenchmark`]: 2-D k-means clustering.
    KMeans {
        /// Number of points.
        points: usize,
        /// Number of clusters.
        clusters: usize,
        /// Lloyd iterations.
        iterations: usize,
        /// Input-data seed.
        seed: u64,
    },
    /// [`DijkstraBenchmark`]: single-source shortest paths.
    Dijkstra {
        /// Number of graph nodes.
        nodes: usize,
        /// Input-data seed.
        seed: u64,
    },
    /// [`FftBenchmark`]: radix-2 fixed-point FFT.
    Fft {
        /// Transform size (a power of two in 4..=128).
        n: usize,
        /// Input-data seed.
        seed: u64,
    },
    /// [`FirBenchmark`]: direct-form FIR filter.
    Fir {
        /// Number of filter taps.
        taps: usize,
        /// Number of output samples.
        outputs: usize,
        /// Input-data seed.
        seed: u64,
    },
    /// [`Crc32Benchmark`]: bitwise CRC-32 over a word stream.
    Crc32 {
        /// Number of 32-bit message words.
        words: usize,
        /// Input-data seed.
        seed: u64,
    },
    /// [`BitonicSortBenchmark`]: bitonic sorting network.
    Bitonic {
        /// Number of values (a power of two in 4..=256).
        n: usize,
        /// Input-data seed.
        seed: u64,
    },
    /// [`GuestProgramBenchmark`]: an arbitrary submitted program as
    /// encoded instruction-memory words.
    ///
    /// Unlike the built-in recipes, a guest program is untrusted: the
    /// submission gate runs the `sfi-verify` static analyzer over the
    /// decoded program before this definition is instantiated.
    Program {
        /// Encoded instruction-memory words (see `sfi_isa::encoding`).
        words: Vec<u32>,
        /// Declared data-memory size in words.
        dmem_words: usize,
        /// Fault-injection window, as a half-open pc range.
        fi_window: (u32, u32),
        /// Input data written to data-memory words `0..input.len()`.
        input: Vec<u32>,
        /// Output region compared against the golden run, as a half-open
        /// range of data-memory word indices.
        output: (u32, u32),
        /// Reserved for forward compatibility; guest inputs are explicit,
        /// so the seed does not influence the benchmark.
        seed: u64,
    },
}

/// One entry of the benchmark-recipe registry: a wire kind name and the
/// decoder turning `(wire object, seed)` into a validated definition.
///
/// Adding a kernel kind means adding one row here (plus the enum variant
/// and its `to_json`/`instantiate` arms); lookup, the "unknown kind"
/// diagnostics and [`supported_kinds`] all derive from the table.
struct KindRecipe {
    kind: &'static str,
    decode: fn(&Json, u64) -> Result<BenchmarkDef, WireError>,
}

/// The registry of benchmark recipes, in the alphabetical order the
/// "unknown kind" error message quotes.  The bounds in the decoders mirror
/// the kernel constructors' own panics (odd median sizes, power-of-two
/// FFT/bitonic sizes, 2..=32 Dijkstra nodes, k <= n for k-means…), so a
/// decoded definition always instantiates without panicking the daemon.
const KIND_RECIPES: &[KindRecipe] = &[
    KindRecipe {
        kind: "bitonic",
        decode: |value, seed| {
            let n = get_usize(value, "n", 256)?;
            if n < 4 || !n.is_power_of_two() {
                return err(format!("'n' must be a power of two in 4..=256, got {n}"));
            }
            Ok(BenchmarkDef::Bitonic { n, seed })
        },
    },
    KindRecipe {
        kind: "crc32",
        decode: |value, seed| {
            Ok(BenchmarkDef::Crc32 {
                words: get_usize(value, "words", 1024)?,
                seed,
            })
        },
    },
    KindRecipe {
        kind: "dijkstra",
        decode: |value, seed| {
            let nodes = get_usize(value, "nodes", 32)?;
            if nodes < 2 {
                return err(format!("'nodes' must be in 2..=32, got {nodes}"));
            }
            Ok(BenchmarkDef::Dijkstra { nodes, seed })
        },
    },
    KindRecipe {
        kind: "fft",
        decode: |value, seed| {
            let n = get_usize(value, "n", 128)?;
            if n < 4 || !n.is_power_of_two() {
                return err(format!("'n' must be a power of two in 4..=128, got {n}"));
            }
            Ok(BenchmarkDef::Fft { n, seed })
        },
    },
    KindRecipe {
        kind: "fir",
        decode: |value, seed| {
            Ok(BenchmarkDef::Fir {
                taps: get_usize(value, "taps", 64)?,
                outputs: get_usize(value, "outputs", 1024)?,
                seed,
            })
        },
    },
    KindRecipe {
        kind: "kmeans",
        decode: |value, seed| {
            let points = get_usize(value, "points", MAX_KERNEL_SIZE)?;
            let clusters = get_usize(value, "clusters", 64)?;
            if clusters > points {
                return err(format!(
                    "'clusters' ({clusters}) must not exceed 'points' ({points})"
                ));
            }
            Ok(BenchmarkDef::KMeans {
                points,
                clusters,
                iterations: get_usize(value, "iterations", 256)?,
                seed,
            })
        },
    },
    KindRecipe {
        kind: "matmul",
        decode: |value, seed| {
            let element_bits = get_u64(value, "element_bits")?;
            if element_bits != 8 && element_bits != 16 {
                return err(format!(
                    "'element_bits' must be 8 or 16, got {element_bits}"
                ));
            }
            Ok(BenchmarkDef::MatMul {
                n: get_usize(value, "n", 64)?,
                element_bits: element_bits as u8,
                seed,
            })
        },
    },
    KindRecipe {
        kind: "median",
        decode: |value, seed| {
            let values = get_usize(value, "values", MAX_KERNEL_SIZE)?;
            if values < 3 || values % 2 == 0 {
                return err(format!("'values' must be an odd number >= 3, got {values}"));
            }
            Ok(BenchmarkDef::Median { values, seed })
        },
    },
    KindRecipe {
        kind: "program",
        decode: |value, seed| {
            let words = get_u32_array(value, "words", 1, MAX_PROGRAM_WORDS)?;
            let dmem_words = get_usize(value, "dmem_words", MAX_GUEST_DMEM_WORDS)?;
            let fi_window = get_range(value, "fi_window")?;
            if fi_window.0 >= fi_window.1 || fi_window.1 as usize > words.len() {
                return err(format!(
                    "'fi_window' {}..{} must be a non-empty pc range within the \
                     {}-word program",
                    fi_window.0,
                    fi_window.1,
                    words.len()
                ));
            }
            let output = get_range(value, "output")?;
            if output.0 >= output.1 || output.1 as usize > dmem_words {
                return err(format!(
                    "'output' {}..{} must be a non-empty word range within the \
                     declared data memory of {dmem_words} words",
                    output.0, output.1
                ));
            }
            let input = get_u32_array(value, "input", 0, dmem_words)?;
            Ok(BenchmarkDef::Program {
                words,
                dmem_words,
                fi_window,
                input,
                output,
                seed,
            })
        },
    },
];

/// Every benchmark kind the wire protocol can instantiate, alphabetical.
pub fn supported_kinds() -> Vec<&'static str> {
    KIND_RECIPES.iter().map(|r| r.kind).collect()
}

impl BenchmarkDef {
    /// Serializes to the wire object.
    pub fn to_json(&self) -> Json {
        match *self {
            BenchmarkDef::Median { values, seed } => Json::obj([
                ("kind", Json::Str("median".into())),
                ("values", Json::Num(values as f64)),
                ("seed", Json::Str(seed.to_string())),
            ]),
            BenchmarkDef::MatMul {
                n,
                element_bits,
                seed,
            } => Json::obj([
                ("kind", Json::Str("matmul".into())),
                ("n", Json::Num(n as f64)),
                ("element_bits", Json::Num(element_bits as f64)),
                ("seed", Json::Str(seed.to_string())),
            ]),
            BenchmarkDef::KMeans {
                points,
                clusters,
                iterations,
                seed,
            } => Json::obj([
                ("kind", Json::Str("kmeans".into())),
                ("points", Json::Num(points as f64)),
                ("clusters", Json::Num(clusters as f64)),
                ("iterations", Json::Num(iterations as f64)),
                ("seed", Json::Str(seed.to_string())),
            ]),
            BenchmarkDef::Dijkstra { nodes, seed } => Json::obj([
                ("kind", Json::Str("dijkstra".into())),
                ("nodes", Json::Num(nodes as f64)),
                ("seed", Json::Str(seed.to_string())),
            ]),
            BenchmarkDef::Fft { n, seed } => Json::obj([
                ("kind", Json::Str("fft".into())),
                ("n", Json::Num(n as f64)),
                ("seed", Json::Str(seed.to_string())),
            ]),
            BenchmarkDef::Fir {
                taps,
                outputs,
                seed,
            } => Json::obj([
                ("kind", Json::Str("fir".into())),
                ("taps", Json::Num(taps as f64)),
                ("outputs", Json::Num(outputs as f64)),
                ("seed", Json::Str(seed.to_string())),
            ]),
            BenchmarkDef::Crc32 { words, seed } => Json::obj([
                ("kind", Json::Str("crc32".into())),
                ("words", Json::Num(words as f64)),
                ("seed", Json::Str(seed.to_string())),
            ]),
            BenchmarkDef::Bitonic { n, seed } => Json::obj([
                ("kind", Json::Str("bitonic".into())),
                ("n", Json::Num(n as f64)),
                ("seed", Json::Str(seed.to_string())),
            ]),
            BenchmarkDef::Program {
                ref words,
                dmem_words,
                fi_window,
                ref input,
                output,
                seed,
            } => Json::obj([
                ("kind", Json::Str("program".into())),
                (
                    "words",
                    Json::Arr(words.iter().map(|&w| Json::Num(f64::from(w))).collect()),
                ),
                ("dmem_words", Json::Num(dmem_words as f64)),
                ("fi_window", range_to_json(fi_window)),
                (
                    "input",
                    Json::Arr(input.iter().map(|&w| Json::Num(f64::from(w))).collect()),
                ),
                ("output", range_to_json(output)),
                ("seed", Json::Str(seed.to_string())),
            ]),
        }
    }

    /// Decodes from the wire object via the kind registry.
    pub fn from_json(value: &Json) -> Result<Self, WireError> {
        let kind = get_str(value, "kind")?;
        let seed = get_u64(value, "seed")?;
        match KIND_RECIPES.iter().find(|r| r.kind == kind) {
            Some(recipe) => (recipe.decode)(value, seed),
            None => err(format!(
                "unknown benchmark kind '{kind}' (supported: {})",
                supported_kinds().join(", ")
            )),
        }
    }

    /// Instantiates the real kernel.
    ///
    /// Built-in recipes cannot fail (their decoders mirror the kernel
    /// constructors' bounds); a guest [`BenchmarkDef::Program`] can — its
    /// words may not decode, and its bounded fault-free golden run may not
    /// terminate.  The submission gate runs `sfi-verify` first, so over the
    /// wire these failures surface as analyzer diagnostics instead.
    pub fn instantiate(&self) -> Result<sfi_campaign::SharedBenchmark, WireError> {
        Ok(match *self {
            BenchmarkDef::Median { values, seed } => {
                std::sync::Arc::new(MedianBenchmark::new(values, seed))
            }
            BenchmarkDef::MatMul {
                n,
                element_bits,
                seed,
            } => {
                let width = if element_bits == 8 {
                    ElementWidth::Bits8
                } else {
                    ElementWidth::Bits16
                };
                std::sync::Arc::new(MatrixMultiplyBenchmark::new(n, width, seed))
            }
            BenchmarkDef::KMeans {
                points,
                clusters,
                iterations,
                seed,
            } => std::sync::Arc::new(KMeansBenchmark::new(points, clusters, iterations, seed)),
            BenchmarkDef::Dijkstra { nodes, seed } => {
                std::sync::Arc::new(DijkstraBenchmark::new(nodes, seed))
            }
            BenchmarkDef::Fft { n, seed } => std::sync::Arc::new(FftBenchmark::new(n, seed)),
            BenchmarkDef::Fir {
                taps,
                outputs,
                seed,
            } => std::sync::Arc::new(FirBenchmark::new(taps, outputs, seed)),
            BenchmarkDef::Crc32 { words, seed } => {
                std::sync::Arc::new(Crc32Benchmark::new(words, seed))
            }
            BenchmarkDef::Bitonic { n, seed } => {
                std::sync::Arc::new(BitonicSortBenchmark::new(n, seed))
            }
            BenchmarkDef::Program {
                ref words,
                dmem_words,
                fi_window,
                ref input,
                output,
                seed: _,
            } => {
                let program = sfi_isa::Program::from_words(words)
                    .map_err(|e| WireError(format!("guest program does not decode: {e}")))?;
                let bench = GuestProgramBenchmark::new(
                    program,
                    dmem_words,
                    fi_window.0..fi_window.1,
                    input.clone(),
                    output.0..output.1,
                )
                .map_err(|e| WireError(format!("guest program rejected: {e}")))?;
                std::sync::Arc::new(bench)
            }
        })
    }
}

/// Encodes a fault model.
pub fn model_to_json(model: FaultModel) -> Json {
    match model {
        FaultModel::None => Json::obj([("kind", Json::Str("none".into()))]),
        FaultModel::FixedProbability(p) => Json::obj([
            ("kind", Json::Str("fixed_probability".into())),
            ("p", Json::Num(p)),
        ]),
        FaultModel::StaPeriodViolation => Json::obj([("kind", Json::Str("sta".into()))]),
        FaultModel::StaWithNoise => Json::obj([("kind", Json::Str("sta_noise".into()))]),
        FaultModel::StatisticalDta => Json::obj([("kind", Json::Str("dta".into()))]),
    }
}

/// Decodes a fault model.
pub fn model_from_json(value: &Json) -> Result<FaultModel, WireError> {
    match get_str(value, "kind")? {
        "none" => Ok(FaultModel::None),
        "fixed_probability" => {
            let p = get_finite(value, "p")?;
            if !(0.0..=1.0).contains(&p) {
                return err(format!("'p' must be a probability, got {p}"));
            }
            Ok(FaultModel::FixedProbability(p))
        }
        "sta" => Ok(FaultModel::StaPeriodViolation),
        "sta_noise" => Ok(FaultModel::StaWithNoise),
        "dta" => Ok(FaultModel::StatisticalDta),
        other => err(format!("unknown fault model '{other}'")),
    }
}

/// The wire form of a [`TrialBudget`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetDef {
    /// Trials always run before the stop rule is consulted.
    pub min_trials: usize,
    /// Hard upper bound on trials.
    pub max_trials: usize,
    /// Trials added per adaptive refinement step.
    pub batch: usize,
    /// Early-stopping rule, if adaptive.
    pub stop: Option<StopRuleDef>,
}

/// The wire form of a [`StopRule`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StopRuleDef {
    /// `"correct"` or `"finished"` fraction.
    pub metric: StopMetric,
    /// Target half-width of the confidence interval.
    pub half_width: f64,
    /// Critical value of the interval.
    pub z: f64,
}

impl BudgetDef {
    /// A fixed budget of exactly `trials` trials.
    pub fn fixed(trials: usize) -> Self {
        BudgetDef {
            min_trials: trials,
            max_trials: trials,
            batch: trials,
            stop: None,
        }
    }

    /// Converts to the engine type, validating the invariants the
    /// [`TrialBudget`] constructors would otherwise assert.
    pub fn to_budget(&self) -> Result<TrialBudget, WireError> {
        if self.min_trials == 0 || self.batch == 0 {
            return err("budget trials and batch must be positive");
        }
        if self.max_trials < self.min_trials {
            return err(format!(
                "max_trials {} below min_trials {}",
                self.max_trials, self.min_trials
            ));
        }
        if self.max_trials > MAX_TRIALS_PER_CELL {
            return err(format!(
                "max_trials {} above the {MAX_TRIALS_PER_CELL} cap",
                self.max_trials
            ));
        }
        let stop = match self.stop {
            None => None,
            Some(rule) => {
                if !(rule.half_width.is_finite() && rule.half_width > 0.0) {
                    return err("stop half_width must be positive and finite");
                }
                if !(rule.z.is_finite() && rule.z > 0.0) {
                    return err("stop z must be positive and finite");
                }
                Some(StopRule {
                    metric: rule.metric,
                    half_width: rule.half_width,
                    z: rule.z,
                })
            }
        };
        Ok(TrialBudget {
            min_trials: self.min_trials,
            max_trials: self.max_trials,
            batch: self.batch,
            stop,
        })
    }

    /// Serializes to the wire object.
    pub fn to_json(&self) -> Json {
        let stop = match self.stop {
            None => Json::Null,
            Some(rule) => Json::obj([
                (
                    "metric",
                    Json::Str(
                        match rule.metric {
                            StopMetric::CorrectFraction => "correct",
                            StopMetric::FinishedFraction => "finished",
                        }
                        .into(),
                    ),
                ),
                ("half_width", Json::Num(rule.half_width)),
                ("z", Json::Num(rule.z)),
            ]),
        };
        Json::obj([
            ("min_trials", Json::Num(self.min_trials as f64)),
            ("max_trials", Json::Num(self.max_trials as f64)),
            ("batch", Json::Num(self.batch as f64)),
            ("stop", stop),
        ])
    }

    /// Decodes from the wire object.
    pub fn from_json(value: &Json) -> Result<Self, WireError> {
        let stop = match get(value, "stop")? {
            Json::Null => None,
            rule => Some(StopRuleDef {
                metric: match get_str(rule, "metric")? {
                    "correct" => StopMetric::CorrectFraction,
                    "finished" => StopMetric::FinishedFraction,
                    other => return err(format!("unknown stop metric '{other}'")),
                },
                half_width: get_finite(rule, "half_width")?,
                z: get_finite(rule, "z")?,
            }),
        };
        Ok(BudgetDef {
            min_trials: get_u64(value, "min_trials")? as usize,
            max_trials: get_u64(value, "max_trials")? as usize,
            batch: get_u64(value, "batch")? as usize,
            stop,
        })
    }
}

/// One wire campaign cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellDef {
    /// Index into [`CampaignDef::benchmarks`].
    pub benchmark: usize,
    /// The fault model.
    pub model: FaultModel,
    /// Clock frequency in MHz.
    pub freq_mhz: f64,
    /// Supply voltage in volts.
    pub vdd: f64,
    /// Supply-noise sigma in millivolts (0 = no noise).
    pub noise_sigma_mv: f64,
    /// The trial budget.
    pub budget: BudgetDef,
}

impl CellDef {
    /// The operating point of this cell.
    pub fn point(&self) -> OperatingPoint {
        OperatingPoint::new(self.freq_mhz, self.vdd).with_noise_sigma_mv(self.noise_sigma_mv)
    }

    /// Serializes to the wire object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("benchmark", Json::Num(self.benchmark as f64)),
            ("model", model_to_json(self.model)),
            ("freq_mhz", Json::Num(self.freq_mhz)),
            ("vdd", Json::Num(self.vdd)),
            ("noise_sigma_mv", Json::Num(self.noise_sigma_mv)),
            ("budget", self.budget.to_json()),
        ])
    }

    /// Decodes from the wire object.
    pub fn from_json(value: &Json) -> Result<Self, WireError> {
        let freq_mhz = get_finite(value, "freq_mhz")?;
        let vdd = get_finite(value, "vdd")?;
        let noise_sigma_mv = get_finite(value, "noise_sigma_mv")?;
        if freq_mhz <= 0.0 {
            return err(format!("'freq_mhz' must be positive, got {freq_mhz}"));
        }
        if vdd <= 0.0 {
            return err(format!("'vdd' must be positive, got {vdd}"));
        }
        if noise_sigma_mv < 0.0 {
            return err(format!(
                "'noise_sigma_mv' must be non-negative, got {noise_sigma_mv}"
            ));
        }
        Ok(CellDef {
            benchmark: get_u64(value, "benchmark")? as usize,
            model: model_from_json(get(value, "model")?)?,
            freq_mhz,
            vdd,
            noise_sigma_mv,
            budget: BudgetDef::from_json(get(value, "budget")?)?,
        })
    }
}

/// A full wire campaign: the serializable counterpart of
/// [`CampaignSpec`].
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignDef {
    /// Human-readable campaign name.
    pub name: String,
    /// The campaign master seed.
    pub seed: u64,
    /// Benchmarks by construction recipe.
    pub benchmarks: Vec<BenchmarkDef>,
    /// The campaign cells.
    pub cells: Vec<CellDef>,
}

impl CampaignDef {
    /// An empty campaign.
    pub fn new(name: impl Into<String>, seed: u64) -> Self {
        CampaignDef {
            name: name.into(),
            seed,
            benchmarks: Vec::new(),
            cells: Vec::new(),
        }
    }

    /// Registers a benchmark and returns its index for use in cells.
    pub fn add_benchmark(&mut self, benchmark: BenchmarkDef) -> usize {
        self.benchmarks.push(benchmark);
        self.benchmarks.len() - 1
    }

    /// Serializes to the wire object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::Str(self.name.clone())),
            ("seed", Json::Str(self.seed.to_string())),
            (
                "benchmarks",
                Json::Arr(self.benchmarks.iter().map(BenchmarkDef::to_json).collect()),
            ),
            (
                "cells",
                Json::Arr(self.cells.iter().map(CellDef::to_json).collect()),
            ),
        ])
    }

    /// Decodes from the wire object.
    pub fn from_json(value: &Json) -> Result<Self, WireError> {
        let benchmarks_json = get(value, "benchmarks")?
            .as_arr()
            .ok_or_else(|| WireError("'benchmarks' must be an array".into()))?;
        if benchmarks_json.len() > MAX_BENCHMARKS {
            return err(format!(
                "{} benchmarks exceed the {MAX_BENCHMARKS}-benchmark cap",
                benchmarks_json.len()
            ));
        }
        let benchmarks: Result<Vec<BenchmarkDef>, WireError> = benchmarks_json
            .iter()
            .map(BenchmarkDef::from_json)
            .collect();
        let cells_json = get(value, "cells")?
            .as_arr()
            .ok_or_else(|| WireError("'cells' must be an array".into()))?;
        if cells_json.len() > MAX_CELLS {
            return err(format!(
                "{} cells exceed the {MAX_CELLS}-cell cap",
                cells_json.len()
            ));
        }
        let cells: Result<Vec<CellDef>, WireError> =
            cells_json.iter().map(CellDef::from_json).collect();
        Ok(CampaignDef {
            name: get_str(value, "name")?.to_string(),
            seed: get_u64(value, "seed")?,
            benchmarks: benchmarks?,
            cells: cells?,
        })
    }

    /// Validates the definition and instantiates the runnable
    /// [`CampaignSpec`].
    pub fn instantiate(&self) -> Result<CampaignSpec, WireError> {
        if self.cells.len() > MAX_CELLS {
            return err(format!(
                "{} cells exceed the {MAX_CELLS}-cell cap",
                self.cells.len()
            ));
        }
        if self.benchmarks.len() > MAX_BENCHMARKS {
            return err(format!(
                "{} benchmarks exceed the {MAX_BENCHMARKS}-benchmark cap",
                self.benchmarks.len()
            ));
        }
        // Validate every cell before constructing any (comparatively
        // expensive) kernel, so rejecting a bad definition costs nothing.
        let mut budgets = Vec::with_capacity(self.cells.len());
        for (index, cell) in self.cells.iter().enumerate() {
            if cell.benchmark >= self.benchmarks.len() {
                return err(format!(
                    "cell {index} references benchmark {} but only {} are defined",
                    cell.benchmark,
                    self.benchmarks.len()
                ));
            }
            budgets.push(cell.budget.to_budget()?);
        }
        let mut spec = CampaignSpec::new(self.name.clone(), self.seed);
        for def in &self.benchmarks {
            spec.add_shared_benchmark(def.instantiate()?);
        }
        for (cell, budget) in self.cells.iter().zip(budgets) {
            spec.add_cell(CellSpec {
                benchmark: cell.benchmark,
                model: cell.model,
                point: cell.point(),
                budget,
            });
        }
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_def() -> CampaignDef {
        let mut def = CampaignDef::new("wire \"demo\"", u64::MAX);
        let median = def.add_benchmark(BenchmarkDef::Median {
            values: 21,
            seed: 3,
        });
        let matmul = def.add_benchmark(BenchmarkDef::MatMul {
            n: 4,
            element_bits: 8,
            seed: 9,
        });
        def.cells.push(CellDef {
            benchmark: median,
            model: FaultModel::StatisticalDta,
            freq_mhz: 750.0,
            vdd: 0.7,
            noise_sigma_mv: 10.0,
            budget: BudgetDef::fixed(5),
        });
        def.cells.push(CellDef {
            benchmark: matmul,
            model: FaultModel::FixedProbability(1e-4),
            freq_mhz: 800.0,
            vdd: 0.8,
            noise_sigma_mv: 0.0,
            budget: BudgetDef {
                min_trials: 4,
                max_trials: 32,
                batch: 4,
                stop: Some(StopRuleDef {
                    metric: StopMetric::CorrectFraction,
                    half_width: 0.1,
                    z: 1.96,
                }),
            },
        });
        def
    }

    #[test]
    fn campaign_def_round_trips_through_json() {
        let def = sample_def();
        let text = def.to_json().to_string();
        let back = CampaignDef::from_json(&Json::parse(&text).expect("parses")).expect("decodes");
        assert_eq!(back, def);

        // The instantiated specs are structurally identical.
        let a = def.instantiate().expect("instantiates");
        let b = back.instantiate().expect("instantiates");
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.cells().len(), 2);
    }

    #[test]
    fn rejects_inconsistent_definitions() {
        let mut bad = sample_def();
        bad.cells[0].benchmark = 7;
        assert!(bad.instantiate().is_err(), "unknown benchmark index");

        let mut bad = sample_def();
        bad.cells[0].budget.max_trials = 0;
        assert!(bad.instantiate().is_err(), "zero budget");

        let mut bad = sample_def();
        bad.cells[0].budget = BudgetDef {
            min_trials: 8,
            max_trials: 4,
            batch: 2,
            stop: None,
        };
        assert!(bad.instantiate().is_err(), "inverted budget");
    }

    #[test]
    fn rejects_malformed_wire_objects() {
        for bad in [
            "{}",
            "{\"name\":\"x\",\"seed\":\"1\",\"benchmarks\":[],\"cells\":[{}]}",
            "{\"name\":\"x\",\"seed\":\"1\",\"benchmarks\":[{\"kind\":\"nope\",\"seed\":\"1\"}],\"cells\":[]}",
            "{\"name\":\"x\",\"seed\":-3,\"benchmarks\":[],\"cells\":[]}",
        ] {
            let doc = Json::parse(bad).expect("valid JSON");
            assert!(CampaignDef::from_json(&doc).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn kernel_bounds_mirror_the_constructors() {
        // Each of these would panic the respective kernel constructor;
        // the wire layer must reject them as errors instead.
        for bad in [
            r#"{"kind":"median","values":4,"seed":"1"}"#,
            r#"{"kind":"median","values":1,"seed":"1"}"#,
            r#"{"kind":"dijkstra","nodes":1,"seed":"1"}"#,
            r#"{"kind":"dijkstra","nodes":100,"seed":"1"}"#,
            r#"{"kind":"kmeans","points":2,"clusters":5,"iterations":3,"seed":"1"}"#,
            r#"{"kind":"matmul","n":65,"element_bits":8,"seed":"1"}"#,
            r#"{"kind":"fft","n":24,"seed":"1"}"#,
            r#"{"kind":"fft","n":256,"seed":"1"}"#,
            r#"{"kind":"fir","taps":0,"outputs":8,"seed":"1"}"#,
            r#"{"kind":"fir","taps":4,"outputs":100000,"seed":"1"}"#,
            r#"{"kind":"crc32","words":0,"seed":"1"}"#,
            r#"{"kind":"bitonic","n":12,"seed":"1"}"#,
            r#"{"kind":"bitonic","n":2,"seed":"1"}"#,
        ] {
            let doc = Json::parse(bad).expect("valid JSON");
            assert!(BenchmarkDef::from_json(&doc).is_err(), "{bad} should fail");
        }
        // The boundary values themselves are accepted and instantiate.
        for good in [
            BenchmarkDef::Median { values: 3, seed: 1 },
            BenchmarkDef::Dijkstra { nodes: 2, seed: 1 },
            BenchmarkDef::Dijkstra { nodes: 32, seed: 1 },
            BenchmarkDef::KMeans {
                points: 2,
                clusters: 2,
                iterations: 1,
                seed: 1,
            },
            BenchmarkDef::Fft { n: 4, seed: 1 },
            BenchmarkDef::Fft { n: 128, seed: 1 },
            BenchmarkDef::Fir {
                taps: 1,
                outputs: 1,
                seed: 1,
            },
            BenchmarkDef::Crc32 { words: 1, seed: 1 },
            BenchmarkDef::Bitonic { n: 4, seed: 1 },
            BenchmarkDef::Bitonic { n: 256, seed: 1 },
        ] {
            let back = BenchmarkDef::from_json(&good.to_json()).expect("round trips");
            assert_eq!(back, good);
            back.instantiate().expect("boundary value instantiates");
        }
    }

    /// A tiny valid guest program: store 7 to data-memory word 0 and exit.
    fn tiny_guest_def(seed: u64) -> BenchmarkDef {
        let words = sfi_isa::Program::new(vec![
            sfi_isa::Instruction::Addi {
                rd: sfi_isa::Reg(3),
                ra: sfi_isa::Reg(0),
                imm: 7,
            },
            sfi_isa::Instruction::Sw {
                ra: sfi_isa::Reg(0),
                rb: sfi_isa::Reg(3),
                offset: 0,
            },
        ])
        .to_words();
        BenchmarkDef::Program {
            words,
            dmem_words: 4,
            fi_window: (0, 2),
            input: vec![],
            output: (0, 1),
            seed,
        }
    }

    #[test]
    fn every_registered_kind_round_trips_and_instantiates() {
        let defs = [
            BenchmarkDef::Median {
                values: 21,
                seed: 2,
            },
            BenchmarkDef::MatMul {
                n: 4,
                element_bits: 16,
                seed: 2,
            },
            BenchmarkDef::KMeans {
                points: 8,
                clusters: 2,
                iterations: 4,
                seed: 2,
            },
            BenchmarkDef::Dijkstra { nodes: 5, seed: 2 },
            BenchmarkDef::Fft { n: 16, seed: 2 },
            BenchmarkDef::Fir {
                taps: 4,
                outputs: 8,
                seed: 2,
            },
            BenchmarkDef::Crc32 { words: 8, seed: 2 },
            BenchmarkDef::Bitonic { n: 8, seed: 2 },
            tiny_guest_def(2),
        ];
        // One definition per registered kind — the registry and the enum
        // stay in sync.
        let mut kinds: Vec<String> = defs
            .iter()
            .map(|d| {
                d.to_json()
                    .get("kind")
                    .and_then(Json::as_str)
                    .expect("kind member")
                    .to_string()
            })
            .collect();
        kinds.sort_unstable();
        assert_eq!(kinds, supported_kinds());
        for def in defs {
            let back = BenchmarkDef::from_json(&def.to_json()).expect("round trips");
            assert_eq!(back, def);
            back.instantiate().expect("instantiates");
        }
    }

    #[test]
    fn guest_program_structural_bounds_are_enforced() {
        let good = tiny_guest_def(1).to_json();
        BenchmarkDef::from_json(&good).expect("valid guest program decodes");

        let mutate = |key: &str, value: Json| {
            let mut fields: Vec<(&str, Json)> = Vec::new();
            for k in [
                "kind",
                "words",
                "dmem_words",
                "fi_window",
                "input",
                "output",
                "seed",
            ] {
                let v = if k == key {
                    value.clone()
                } else {
                    good.get(k).expect("member present").clone()
                };
                fields.push((k, v));
            }
            Json::obj(fields)
        };

        let empty_words = mutate("words", Json::Arr(vec![]));
        assert!(
            BenchmarkDef::from_json(&empty_words).is_err(),
            "empty words"
        );

        let huge_word = mutate("words", Json::Arr(vec![Json::Num(2.0_f64.powi(33))]));
        assert!(BenchmarkDef::from_json(&huge_word).is_err(), "non-u32 word");

        let bad_window = mutate(
            "fi_window",
            Json::obj([("start", Json::Num(0.0)), ("end", Json::Num(99.0))]),
        );
        assert!(
            BenchmarkDef::from_json(&bad_window).is_err(),
            "fi_window past the program end"
        );

        let empty_output = mutate(
            "output",
            Json::obj([("start", Json::Num(1.0)), ("end", Json::Num(1.0))]),
        );
        assert!(
            BenchmarkDef::from_json(&empty_output).is_err(),
            "empty output"
        );

        let fat_input = mutate("input", Json::Arr(vec![Json::Num(0.0); 5]));
        assert!(
            BenchmarkDef::from_json(&fat_input).is_err(),
            "input larger than dmem"
        );

        let tiny_dmem = mutate("dmem_words", Json::Num(0.0));
        assert!(BenchmarkDef::from_json(&tiny_dmem).is_err(), "zero dmem");
    }

    #[test]
    fn guest_program_instantiation_failures_are_wire_errors() {
        // 0xFFFF_FFFF is not a valid instruction encoding.
        let undecodable = BenchmarkDef::Program {
            words: vec![u32::MAX],
            dmem_words: 4,
            fi_window: (0, 1),
            input: vec![],
            output: (0, 1),
            seed: 1,
        };
        let message = match undecodable.instantiate() {
            Err(error) => error.to_string(),
            Ok(_) => panic!("an undecodable program must not instantiate"),
        };
        assert!(message.contains("does not decode"), "{message}");

        // `l.j -1` decodes fine but spins forever: the golden run hits the
        // watchdog and instantiation reports it.
        let spin = sfi_isa::Program::new(vec![sfi_isa::Instruction::J { offset: -1 }]).to_words();
        let non_terminating = BenchmarkDef::Program {
            words: spin,
            dmem_words: 4,
            fi_window: (0, 1),
            input: vec![],
            output: (0, 1),
            seed: 1,
        };
        let message = match non_terminating.instantiate() {
            Err(error) => error.to_string(),
            Ok(_) => panic!("a non-terminating golden run must not instantiate"),
        };
        assert!(message.contains("golden run"), "{message}");
    }

    #[test]
    fn unknown_kind_error_lists_the_supported_set() {
        let doc = Json::parse(r#"{"kind":"sha256","seed":"1"}"#).expect("valid JSON");
        let message = BenchmarkDef::from_json(&doc).unwrap_err().to_string();
        assert!(
            message.contains("unknown benchmark kind 'sha256'"),
            "{message}"
        );
        for kind in supported_kinds() {
            assert!(message.contains(kind), "{message} must list {kind}");
        }
    }

    #[test]
    fn hostile_sizes_are_capped() {
        let mut def = CampaignDef::new("flood", 1);
        for _ in 0..MAX_BENCHMARKS + 1 {
            def.add_benchmark(BenchmarkDef::Median { values: 3, seed: 1 });
        }
        assert!(def.instantiate().is_err(), "benchmark flood rejected");
        let doc = def.to_json();
        assert!(
            CampaignDef::from_json(&doc).is_err(),
            "benchmark flood rejected at decode"
        );

        let mut def = sample_def();
        def.cells[0].budget = BudgetDef::fixed(MAX_TRIALS_PER_CELL + 1);
        assert!(def.instantiate().is_err(), "oversized budget rejected");
    }

    #[test]
    fn model_codec_covers_every_variant() {
        for model in [
            FaultModel::None,
            FaultModel::FixedProbability(0.25),
            FaultModel::StaPeriodViolation,
            FaultModel::StaWithNoise,
            FaultModel::StatisticalDta,
        ] {
            let back = model_from_json(&model_to_json(model)).expect("decodes");
            assert_eq!(back, model);
        }
        assert!(
            model_from_json(&Json::obj([
                ("kind", Json::Str("fixed_probability".into())),
                ("p", Json::Num(2.0)),
            ]))
            .is_err(),
            "out-of-range probability"
        );
    }
}
