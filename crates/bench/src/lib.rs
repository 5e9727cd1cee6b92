//! Shared helpers for the experiment-reproduction binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! by building an `sfi_campaign::CampaignSpec` and running it through the
//! parallel campaign engine.  They all accept the same flags:
//!
//! * `--trials N` — Monte-Carlo trials per data point (paper scale is
//!   100–200; the default is a faster smoke configuration),
//! * `--points N` — number of frequency points per sweep,
//! * `--fast` — use a scaled-down 8-bit case study instead of the full
//!   32-bit one (for quick sanity checks),
//! * `--threads N` — campaign worker threads (default: all CPUs),
//! * `--checkpoint FILE` — append completed campaign cells to the log
//!   `FILE` and resume from it on the next run of the same configuration.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asm_cli;
pub mod lint;

use sfi_campaign::{checkpoint, CampaignEngine, CampaignResult, CampaignSpec, CellResult};
use sfi_core::study::{CaseStudy, CaseStudyConfig};
use std::path::Path;
use std::sync::Arc;

/// Command-line options shared by all experiment binaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentArgs {
    /// Monte-Carlo trials per data point.
    pub trials: usize,
    /// Frequency points per sweep.
    pub points: usize,
    /// Whether to use the scaled-down case study.
    pub fast: bool,
    /// Whether to cover the extended workload zoo (FFT, FIR, CRC32,
    /// bitonic sort) in addition to the paper suite, where the binary
    /// supports it.
    pub extended: bool,
    /// Campaign worker threads (`None` = all CPUs).
    pub threads: Option<usize>,
    /// Campaign checkpoint file, if any.
    pub checkpoint: Option<String>,
}

impl Default for ExperimentArgs {
    fn default() -> Self {
        ExperimentArgs {
            trials: 20,
            points: 12,
            fast: false,
            extended: false,
            threads: None,
            checkpoint: None,
        }
    }
}

/// The flag reference all experiment binaries share (printed by
/// `--help`).
pub const USAGE: &str = "\
options:
  --trials N        Monte-Carlo trials per data point
  --points N        frequency points per sweep
  --fast            scaled-down 8-bit case study instead of the paper 32-bit one
  --extended        cover the extended workload zoo (FFT, FIR, CRC32, bitonic)
  --threads N       campaign worker threads (0 = all CPUs)
  --checkpoint FILE stream completed cells to FILE and resume from it
  --help            print this help
";

impl ExperimentArgs {
    /// Parses the standard flags from `std::env::args`.
    ///
    /// `--help` prints [`USAGE`] and exits; unknown flags and malformed
    /// values are errors (printed with the usage, exit code 2) instead of
    /// being silently ignored.
    pub fn from_env() -> Self {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        if argv.iter().any(|a| a == "--help" || a == "-h") {
            println!("{USAGE}");
            std::process::exit(0);
        }
        match Self::parse(&argv) {
            Ok(args) => args,
            Err(message) => {
                eprintln!("error: {message}");
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
        }
    }

    /// Parses a flag list (everything after the binary name).
    ///
    /// Exposed separately from [`ExperimentArgs::from_env`] so it is
    /// testable; all experiment binaries share this one implementation
    /// instead of hand-rolling their own loops.
    pub fn parse(argv: &[String]) -> Result<Self, String> {
        let mut args = ExperimentArgs::default();
        let mut i = 0;
        let value = |i: &mut usize, flag: &str| -> Result<String, String> {
            *i += 1;
            argv.get(*i)
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        while i < argv.len() {
            match argv[i].as_str() {
                "--trials" => {
                    args.trials = value(&mut i, "--trials")?
                        .parse()
                        .ok()
                        .filter(|&n: &usize| n > 0)
                        .ok_or("--trials needs a positive integer")?;
                }
                "--points" => {
                    args.points = value(&mut i, "--points")?
                        .parse()
                        .ok()
                        .filter(|&n: &usize| n > 1)
                        .ok_or("--points needs an integer of at least 2")?;
                }
                "--threads" => {
                    // Zero means "auto": use all CPUs.
                    let n: usize = value(&mut i, "--threads")?
                        .parse()
                        .map_err(|_| "--threads needs an unsigned integer")?;
                    args.threads = (n > 0).then_some(n);
                }
                "--checkpoint" => args.checkpoint = Some(value(&mut i, "--checkpoint")?),
                "--fast" => args.fast = true,
                "--extended" => args.extended = true,
                other => return Err(format!("unknown flag '{other}'")),
            }
            i += 1;
        }
        Ok(args)
    }

    /// Builds the campaign engine matching the requested parallelism.
    pub fn engine(&self) -> CampaignEngine {
        match self.threads {
            Some(threads) => CampaignEngine::new().with_threads(threads),
            None => CampaignEngine::new(),
        }
    }

    /// Runs `spec` on [`ExperimentArgs::engine`].  With `--checkpoint
    /// FILE`, the cells FILE logged for this exact spec are restored and
    /// every newly simulated cell is appended to it as it finishes; a
    /// checkpoint that cannot be opened or written is a warning, never the
    /// end of the campaign.
    pub fn run(&self, study: &CaseStudy, spec: &CampaignSpec) -> CampaignResult {
        let engine = self.engine();
        let Some(path) = &self.checkpoint else {
            return engine.run(study, spec);
        };
        match checkpoint::open_log(Path::new(path), spec) {
            Ok((log, cells)) => engine
                .with_seed_cells(cells)
                .with_progress(Arc::new(move |cell: &CellResult| {
                    if !cell.from_checkpoint {
                        log.append_best_effort(&checkpoint::cell_to_json(cell));
                    }
                }))
                .run(study, spec),
            Err(err) => {
                eprintln!("warning: cannot open checkpoint {path}: {err}");
                engine.run(study, spec)
            }
        }
    }

    /// Builds the case study matching the requested fidelity.
    pub fn build_study(&self) -> CaseStudy {
        if self.fast {
            CaseStudy::build(CaseStudyConfig {
                voltages: vec![0.7, 0.8],
                ..CaseStudyConfig::fast_for_tests()
            })
        } else {
            CaseStudy::build(CaseStudyConfig::paper())
        }
    }
}

/// Prints a standard experiment header.
pub fn print_header(title: &str, args: &ExperimentArgs) {
    println!("=== {title} ===");
    println!(
        "(trials per point: {}, sweep points: {}, case study: {})",
        args.trials,
        args.points,
        if args.fast {
            "fast 8-bit"
        } else {
            "paper 32-bit"
        }
    );
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sensible() {
        let a = ExperimentArgs::default();
        assert!(a.trials > 0 && a.points > 1 && !a.fast);
        assert_eq!(a.threads, None);
        assert_eq!(a.checkpoint, None);
    }

    #[test]
    fn fast_study_builds() {
        let args = ExperimentArgs {
            fast: true,
            trials: 1,
            points: 2,
            ..Default::default()
        };
        let study = args.build_study();
        assert_eq!(study.config().alu_width, 8);
    }

    #[test]
    fn engine_respects_thread_override() {
        let args = ExperimentArgs {
            threads: Some(3),
            ..Default::default()
        };
        assert_eq!(args.engine().threads(), 3);
    }

    fn argv(flags: &[&str]) -> Vec<String> {
        flags.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_accepts_the_standard_flags() {
        let args = ExperimentArgs::parse(&argv(&[
            "--trials",
            "50",
            "--points",
            "8",
            "--fast",
            "--extended",
            "--threads",
            "4",
            "--checkpoint",
            "out.json",
        ]))
        .expect("parses");
        assert_eq!(args.trials, 50);
        assert_eq!(args.points, 8);
        assert!(args.fast);
        assert!(args.extended);
        assert_eq!(args.threads, Some(4));
        assert_eq!(args.checkpoint.as_deref(), Some("out.json"));
    }

    #[test]
    fn threads_zero_means_auto() {
        let args = ExperimentArgs::parse(&argv(&["--threads", "0"])).expect("parses");
        assert_eq!(args.threads, None, "--threads 0 selects all CPUs");
    }

    #[test]
    fn parse_rejects_bad_input() {
        for bad in [
            &["--frobnicate"][..],
            &["--trials"],
            &["--trials", "0"],
            &["--trials", "many"],
            &["--points", "1"],
            &["--threads", "-2"],
        ] {
            assert!(ExperimentArgs::parse(&argv(bad)).is_err(), "{bad:?}");
        }
    }
}
