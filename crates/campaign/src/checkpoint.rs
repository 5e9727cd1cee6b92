//! Campaign checkpoints and the result document.
//!
//! A checkpoint is a [`Journal`] log: one header record — the spec's
//! [`header`] plus an `inputs` member binding it to the benchmarks' inputs
//! ([`CampaignSpec::inputs_digest`]) and the characterized study
//! ([`CaseStudyConfig::fingerprint`]) — followed by one record per
//! completed cell, appended (and fsync'd) as the cell finishes, so a
//! checkpoint of N cells is O(N) bytes.  [`open_log`] replays it, keeps
//! the cells only if the header matches exactly — a checkpoint of a
//! different or edited spec, other inputs or another study, a torn file
//! or garbage starts a fresh log rather than mixing incompatible data
//! into the results — and compacts the file.  The restored cells seed the
//! engine through
//! [`CampaignEngine::with_seed_cells`](crate::CampaignEngine::with_seed_cells);
//! its progress hook appends the rest.
//!
//! Cells use one codec everywhere: [`cell_to_json`] encodes a checkpoint
//! record, a serve journal `cell` payload, a wire `stream` frame and an
//! entry of the result document: one [`header`] plus the cells in index
//! order, built by [`result_document`] (which [`CampaignResult::to_json`]
//! calls) for a finished campaign and for a served job alike.
//! Trials are stored as compact arrays
//! `[finished, correct, output_error, fi_rate_per_kcycle, cycles]`, with
//! NaN (the output error of crashed runs) encoded as `null`.

use crate::engine::{restorable_cells, CampaignResult, CellResult};
use crate::journal::{self, Journal};
use crate::json::Json;
use crate::spec::CampaignSpec;
use crate::stats::CellStats;
use sfi_core::cache::Fnv;
use sfi_core::study::CaseStudyConfig;
use sfi_core::TrialResult;
use std::io;
use std::path::Path;

/// Format version of the checkpoint header and the result document.
pub const FORMAT_VERSION: u64 = 1;

fn trial_to_json(t: &TrialResult) -> Json {
    Json::Arr(vec![
        Json::Bool(t.finished),
        Json::Bool(t.correct),
        Json::Num(t.output_error),
        Json::Num(t.fi_rate_per_kcycle),
        Json::Num(t.cycles as f64),
    ])
}

fn trial_from_json(value: &Json) -> Option<TrialResult> {
    let fields = value.as_arr()?;
    if fields.len() != 5 {
        return None;
    }
    Some(TrialResult {
        finished: fields[0].as_bool()?,
        correct: fields[1].as_bool()?,
        output_error: fields[2].as_f64()?,
        fi_rate_per_kcycle: fields[3].as_f64()?,
        cycles: fields[4].as_u64()?,
    })
}

/// Serializes one cell result (a checkpoint record, and the frame payload
/// the serve protocol streams).
pub fn cell_to_json(cell: &CellResult) -> Json {
    Json::obj([
        ("cell", Json::Num(cell.cell as f64)),
        ("stopped_early", Json::Bool(cell.stopped_early)),
        (
            "trials",
            Json::Arr(cell.trials.iter().map(trial_to_json).collect()),
        ),
    ])
}

/// Decodes one cell result previously encoded by [`cell_to_json`].
/// The restored cell is marked [`CellResult::from_checkpoint`].
pub fn cell_from_json(value: &Json) -> Option<CellResult> {
    let index = value.get("cell")?.as_u64()? as usize;
    let stopped_early = value.get("stopped_early")?.as_bool()?;
    let trials: Option<Vec<TrialResult>> = value
        .get("trials")?
        .as_arr()?
        .iter()
        .map(trial_from_json)
        .collect();
    let trials = trials?;
    let stats = CellStats::from_trials(&trials);
    Some(CellResult {
        cell: index,
        trials,
        stats,
        stopped_early,
        from_checkpoint: true,
    })
}

/// The header of `spec`'s checkpoint log, `{"fingerprint", "name",
/// "seed", "version"}`: also the metadata of its result document
/// ([`result_document`]).
pub fn header(spec: &CampaignSpec) -> Json {
    Json::obj([
        ("version", Json::Num(FORMAT_VERSION as f64)),
        ("name", Json::Str(spec.name.clone())),
        ("seed", Json::Str(spec.seed.to_string())),
        ("fingerprint", Json::Str(spec.fingerprint().to_string())),
    ])
}

/// The header record of `spec`'s checkpoint log under `study`: the
/// [`header`] plus an `inputs` member, the FNV-1a hash of
/// [`CampaignSpec::inputs_digest`] and [`CaseStudyConfig::fingerprint`].
fn log_header(spec: &CampaignSpec, study: &CaseStudyConfig) -> Json {
    let mut inputs = Fnv::default();
    inputs.u64(spec.inputs_digest());
    inputs.u64(study.fingerprint());
    let mut header = header(spec);
    if let Json::Obj(members) = &mut header {
        members.insert("inputs".to_string(), Json::Str(inputs.finish().to_string()));
    }
    header
}

/// Opens the checkpoint log of `spec` simulated under `study` at `path`,
/// returning it (ready for appending cell records) with the cells it
/// restores.
///
/// Restored cells are those after a header matching `spec`, its inputs
/// and `study` that decode and pass [`restorable_cells`].  The log is
/// then rewritten to exactly that header and those cells, so a missing
/// file, a torn tail, a foreign fingerprint, other inputs or another
/// study, an old JSON-document checkpoint or garbage all leave a fresh log
/// behind.  Errors are I/O failures only.
pub fn open_log(
    path: &Path,
    spec: &CampaignSpec,
    study: &CaseStudyConfig,
) -> io::Result<(Journal, Vec<CellResult>)> {
    let header = log_header(spec, study);
    let records = journal::replay_file(path)?;
    let cells = match records.split_first() {
        Some((first, rest)) if *first == header => {
            restorable_cells(spec, rest.iter().filter_map(cell_from_json))
        }
        _ => Vec::new(),
    };
    let compacted: Vec<Json> = std::iter::once(header)
        .chain(cells.iter().map(cell_to_json))
        .collect();
    let log = Journal::rewrite(path, &compacted)?;
    Ok((log, cells))
}

/// The result document: a spec's [`header`] plus a `cells` member holding
/// `cells` sorted by cell index.
pub fn result_document<'a>(header: &Json, cells: impl IntoIterator<Item = &'a CellResult>) -> Json {
    let mut cells: Vec<&CellResult> = cells.into_iter().collect();
    cells.sort_by_key(|cell| cell.cell);
    let mut document = header.clone();
    if let Json::Obj(members) = &mut document {
        let cells = cells.into_iter().map(cell_to_json).collect();
        members.insert("cells".to_string(), Json::Arr(cells));
    }
    document
}

impl CampaignResult {
    /// Exports the full campaign result as the [`result_document`]:
    /// campaign metadata plus every cell in spec order.
    pub fn to_json(&self, spec: &CampaignSpec) -> Json {
        result_document(&header(spec), &self.cells)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CellSpec, TrialBudget};
    use sfi_core::FaultModel;
    use sfi_fault::OperatingPoint;
    use sfi_kernels::median::MedianBenchmark;
    use std::path::PathBuf;

    #[test]
    fn trial_encoding_round_trips_including_nan() {
        let trials = [
            TrialResult {
                finished: true,
                correct: false,
                output_error: 0.125,
                fi_rate_per_kcycle: 2.5,
                cycles: 123_456,
            },
            TrialResult {
                finished: false,
                correct: false,
                output_error: f64::NAN,
                fi_rate_per_kcycle: 80.0,
                cycles: 999,
            },
        ];
        for t in &trials {
            let back = trial_from_json(&trial_to_json(t)).expect("decodes");
            assert_eq!(back.finished, t.finished);
            assert_eq!(back.correct, t.correct);
            assert_eq!(back.fi_rate_per_kcycle, t.fi_rate_per_kcycle);
            assert_eq!(back.cycles, t.cycles);
            assert_eq!(back.output_error.is_nan(), t.output_error.is_nan());
            if !t.output_error.is_nan() {
                assert_eq!(back.output_error, t.output_error);
            }
        }
    }

    #[test]
    fn malformed_trial_arrays_are_rejected() {
        assert_eq!(trial_from_json(&Json::Arr(vec![Json::Bool(true)])), None);
        assert_eq!(trial_from_json(&Json::Null), None);
    }

    #[test]
    fn corrupt_cycle_counts_are_rejected() {
        for cycles in [-1.0, 1.5, 1e300] {
            let trial = Json::Arr(vec![
                Json::Bool(true),
                Json::Bool(true),
                Json::Num(0.0),
                Json::Num(0.0),
                Json::Num(cycles),
            ]);
            assert_eq!(trial_from_json(&trial), None, "cycles = {cycles}");
        }
    }

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sfi-ckpt-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir.join("campaign.ckpt")
    }

    fn two_cell_spec(seed: u64) -> CampaignSpec {
        let mut spec = CampaignSpec::new("log", seed);
        let median = spec.add_benchmark(MedianBenchmark::new(5, 1));
        for _ in 0..2 {
            spec.add_cell(CellSpec {
                benchmark: median,
                model: FaultModel::None,
                point: OperatingPoint::new(500.0, 0.7),
                budget: TrialBudget::fixed(2),
            });
        }
        spec
    }

    fn cell(index: usize) -> CellResult {
        let trials = vec![
            TrialResult {
                finished: true,
                correct: true,
                output_error: 0.0,
                fi_rate_per_kcycle: 0.0,
                cycles: 40 + index as u64,
            };
            2
        ];
        CellResult {
            cell: index,
            stats: CellStats::from_trials(&trials),
            trials,
            stopped_early: false,
            from_checkpoint: false,
        }
    }

    #[test]
    fn a_log_is_its_header_plus_one_framed_record_per_cell() {
        let path = temp_path("size");
        let spec = two_cell_spec(1);
        let study = CaseStudyConfig::fast_for_tests();
        let (log, restored) = open_log(&path, &spec, &study).expect("opens");
        assert!(restored.is_empty());
        for index in [1, 0] {
            log.append(&cell_to_json(&cell(index))).expect("appends");
        }
        drop(log);
        let expected = journal::frame(&log_header(&spec, &study)).len()
            + journal::frame(&cell_to_json(&cell(1))).len()
            + journal::frame(&cell_to_json(&cell(0))).len();
        assert_eq!(
            std::fs::metadata(&path).expect("exists").len() as usize,
            expected
        );

        let (_, restored) = open_log(&path, &spec, &study).expect("reopens");
        let indices: Vec<usize> = restored.iter().map(|c| c.cell).collect();
        assert_eq!(indices, vec![1, 0], "log order");
        assert!(restored.iter().all(|c| c.from_checkpoint));
        assert_eq!(restored[1].trials, cell(0).trials);
        // Compaction rewrote the same bytes.
        assert_eq!(
            std::fs::metadata(&path).expect("exists").len() as usize,
            expected
        );
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn foreign_old_and_garbage_files_start_a_fresh_log() {
        let path = temp_path("fresh");
        let spec = two_cell_spec(1);
        let study = CaseStudyConfig::fast_for_tests();
        let fresh_len = journal::frame(&log_header(&spec, &study)).len() as u64;

        // A log of another spec (changed seed, so another fingerprint).
        let (log, _) = open_log(&path, &two_cell_spec(2), &study).expect("opens");
        log.append(&cell_to_json(&cell(0))).expect("appends");
        drop(log);
        // An old JSON-document checkpoint of this very spec.
        let result = CampaignResult {
            name: spec.name.clone(),
            seed: spec.seed,
            fingerprint: spec.fingerprint(),
            cells: vec![cell(0), cell(1)],
            metrics: Default::default(),
            cancelled: false,
        };
        let old_document = result.to_json(&spec).to_string().into_bytes();
        for bytes in [
            std::fs::read(&path).expect("foreign log"),
            old_document,
            b"\x07garbage".to_vec(),
            Vec::new(),
        ] {
            std::fs::write(&path, &bytes).expect("writes");
            let (_, restored) = open_log(&path, &spec, &study).expect("never an error");
            assert!(restored.is_empty());
            assert_eq!(std::fs::metadata(&path).expect("exists").len(), fresh_len);
        }
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn unrestorable_and_duplicate_cells_are_dropped() {
        let path = temp_path("filter");
        let spec = two_cell_spec(1);
        let study = CaseStudyConfig::fast_for_tests();
        let (log, _) = open_log(&path, &spec, &study).expect("opens");
        let mut short = cell(0);
        short.trials.pop();
        let mut out_of_range = cell(1);
        out_of_range.cell = 2;
        for record in [&short, &out_of_range, &cell(1), &cell(1), &cell(0)] {
            log.append(&cell_to_json(record)).expect("appends");
        }
        log.append(&Json::Str("not a cell".into()))
            .expect("appends");
        drop(log);
        let (_, restored) = open_log(&path, &spec, &study).expect("reopens");
        let indices: Vec<usize> = restored.iter().map(|c| c.cell).collect();
        assert_eq!(indices, vec![1, 0]);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }
}
