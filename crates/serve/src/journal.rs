//! The durable job journal: crash recovery for the serve daemon.
//!
//! The journal is the [`sfi_campaign::journal`] log at
//! `--state-dir/journal.log`: every job transition (`submit`, `start`,
//! `cell`, `preempt`, `done`) is appended and fsync'd as one CRC-framed
//! JSON record built here.  On restart the daemon replays the log —
//! tolerating a torn or corrupt final record, which a crash mid-append can
//! leave behind — [folds](recover) the records into per-job recovery state
//! and rewrites the log from [`compaction_records`]: queued jobs come back
//! queued, running jobs come back queued *with their completed cells as
//! seeds* (decoded and passed through the campaign's one restore filter,
//! `sfi_campaign::engine::restorable_cells`; the engine re-announces them
//! and simulates only the rest), and terminal jobs keep their status.  A
//! `done` record carries the job's final [`Progress`], so a terminal job
//! needs no `cell` records: compaction drops them, and its status reads
//! the same after any number of restarts (only `evicted` turns true,
//! since result bytes are not journaled).  A `submit` record names the
//! study the job was submitted under (`with_study`): a live job whose
//! record names another study than the restarted daemon's is restored as
//! failed, since its cells came from another characterization.
//!
//! Determinism makes the guarantee strong: a recovered campaign produces a
//! result document byte-identical to an uninterrupted run.  Cell payloads
//! use the campaign cell codec (`sfi_campaign::checkpoint::cell_to_json`),
//! the same format the wire `stream` frames carry.

use crate::jobs::Priority;
use sfi_core::json::Json;
use std::collections::BTreeMap;

/// The journal file name under `--state-dir`.
pub const JOURNAL_FILE: &str = "journal.log";

// — record constructors (canonical key order comes from Json::obj) —

fn base(kind: &'static str, job: u64) -> Vec<(&'static str, Json)> {
    vec![
        ("kind", Json::Str(kind.into())),
        ("job", Json::Str(job.to_string())),
    ]
}

/// A `submit` record: the job exists, with its re-instantiable wire spec.
pub fn submit_record(
    job: u64,
    spec: &Json,
    priority: Priority,
    client: &str,
    idempotency_key: Option<&str>,
) -> Json {
    let mut members = base("submit", job);
    members.push(("spec", spec.clone()));
    members.push(("priority", Json::Str(priority.as_str().into())));
    members.push(("client", Json::Str(client.into())));
    if let Some(key) = idempotency_key {
        members.push(("key", Json::Str(key.into())));
    }
    Json::obj(members)
}

/// `record` (a [`submit_record`]) with a `study` member: the fingerprint
/// of the `CaseStudyConfig` the job was submitted under, in decimal.
/// Recovery fails a live job whose record names another study than the
/// daemon's; a record without the member is trusted.
pub(crate) fn with_study(mut record: Json, study: &str) -> Json {
    if let Json::Obj(members) = &mut record {
        members.insert("study".to_string(), Json::Str(study.into()));
    }
    record
}

/// A `start` record: the job was dispatched to the engine.
pub fn start_record(job: u64) -> Json {
    Json::obj(base("start", job))
}

/// A `cell` record: one campaign cell completed (campaign cell codec).
pub fn cell_record(job: u64, cell: &Json) -> Json {
    let mut members = base("cell", job);
    members.push(("cell", cell.clone()));
    Json::obj(members)
}

/// A `preempt` record: the job was cooperatively returned to its queue.
pub fn preempt_record(job: u64) -> Json {
    Json::obj(base("preempt", job))
}

/// A `done` record: the job reached a terminal state, with the counters
/// its status reports from then on.
pub fn done_record(job: u64, state: &str, error: Option<&str>, progress: Progress) -> Json {
    let mut members = base("done", job);
    members.push(("state", Json::Str(state.into())));
    if let Some(error) = error {
        members.push(("error", Json::Str(error.into())));
    }
    for (key, count) in [
        ("completed_cells", progress.completed_cells),
        ("total_cells", progress.total_cells),
        ("executed_trials", progress.executed_trials),
    ] {
        members.push((key, Json::Num(count as f64)));
    }
    Json::obj(members)
}

/// The progress counters of a job's status.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Progress {
    /// Cells completed.
    pub completed_cells: usize,
    /// Cells of the campaign.
    pub total_cells: usize,
    /// Trials simulated, accumulated across preemptions and restarts.
    pub executed_trials: usize,
}

impl Progress {
    /// The counters a `done` record carries, if it carries all three.
    fn of_done_record(record: &Json) -> Option<Progress> {
        let count = |key| record.get(key).and_then(Json::as_u64).map(|n| n as usize);
        Some(Progress {
            completed_cells: count("completed_cells")?,
            total_cells: count("total_cells")?,
            executed_trials: count("executed_trials")?,
        })
    }
}

/// Per-job state folded out of a journal replay.
#[derive(Debug, Clone)]
pub struct RecoveredJob {
    /// The journaled job id (reused verbatim on restore).
    pub id: u64,
    /// The wire campaign definition (`CampaignDef` document).
    pub spec: Json,
    /// The scheduling class the job was accepted at.
    pub priority: Priority,
    /// The client id the job is accounted against.
    pub client: String,
    /// The idempotency key the submit carried, if any.
    pub idempotency_key: Option<String>,
    /// The study fingerprint (decimal) the submit record names;
    /// `None` in journals written before records carried it.
    pub study: Option<String>,
    /// Every `cell` record's cell (campaign cell codec), journal order.
    /// A live job's resume seeds once decoded and passed through
    /// `sfi_campaign::engine::restorable_cells`.
    pub cells: Vec<Json>,
    /// Cooperative preemptions the job had accumulated.
    pub preemptions: u64,
    /// Whether the job had ever been dispatched.
    pub started: bool,
    /// Terminal state and error, when the job had already finished:
    /// `(state, error)` with the wire spelling of [`crate::jobs::JobState`].
    pub terminal: Option<(String, Option<String>)>,
    /// The counters of a terminal job's status, from its `done` record;
    /// counted from the job's `cell` records (one cell each, and its
    /// trials) when that record lacks them, as in journals written before
    /// `done` records carried them, and for live jobs.
    pub progress: Progress,
}

/// Folds replayed records into per-job recovery state, id order.
///
/// Records that reference a job with no preceding `submit` record are
/// skipped: a crash between job creation and the submit append can leave
/// such orphans, and the un-acknowledged client will simply resubmit.
pub fn recover(records: &[Json]) -> Vec<RecoveredJob> {
    let mut jobs: BTreeMap<u64, RecoveredJob> = BTreeMap::new();
    for record in records {
        let kind = record.get("kind").and_then(Json::as_str).unwrap_or("");
        let Some(id) = record.get("job").and_then(Json::as_u64) else {
            continue;
        };
        match kind {
            "submit" => {
                let Some(spec) = record.get("spec") else {
                    continue;
                };
                jobs.entry(id).or_insert_with(|| RecoveredJob {
                    id,
                    spec: spec.clone(),
                    priority: record
                        .get("priority")
                        .and_then(Json::as_str)
                        .and_then(Priority::parse)
                        .unwrap_or(Priority::Normal),
                    client: record
                        .get("client")
                        .and_then(Json::as_str)
                        .unwrap_or("anonymous")
                        .to_string(),
                    idempotency_key: record.get("key").and_then(Json::as_str).map(str::to_string),
                    study: record
                        .get("study")
                        .and_then(Json::as_str)
                        .map(str::to_string),
                    cells: Vec::new(),
                    preemptions: 0,
                    started: false,
                    terminal: None,
                    progress: Progress::default(),
                });
            }
            "start" => {
                if let Some(job) = jobs.get_mut(&id) {
                    job.started = true;
                }
            }
            "cell" => {
                if let (Some(job), Some(cell)) = (jobs.get_mut(&id), record.get("cell")) {
                    let trials = cell
                        .get("trials")
                        .and_then(Json::as_arr)
                        .map_or(0, <[Json]>::len);
                    job.progress.completed_cells += 1;
                    job.progress.total_cells += 1;
                    job.progress.executed_trials += trials;
                    job.cells.push(cell.clone());
                }
            }
            "preempt" => {
                if let Some(job) = jobs.get_mut(&id) {
                    job.preemptions += 1;
                }
            }
            "done" => {
                if let Some(job) = jobs.get_mut(&id) {
                    job.terminal = Some((
                        record
                            .get("state")
                            .and_then(Json::as_str)
                            .unwrap_or("failed")
                            .to_string(),
                        record
                            .get("error")
                            .and_then(Json::as_str)
                            .map(str::to_string),
                    ));
                    if let Some(progress) = Progress::of_done_record(record) {
                        job.progress = progress;
                    }
                }
            }
            // Anything else — such as the `evict` records older daemons
            // wrote — needs no replay action: results are not journaled,
            // so every recovered terminal job reports `evicted`.
            _ => {}
        }
    }
    jobs.into_values().collect()
}

/// The compacted journal records equivalent to `jobs`: one `submit` per
/// job and its `preempt` records, then its `start` and `cell` records for
/// live jobs, and the `done` record (with its counters) for terminal ones.
pub fn compaction_records(jobs: &[RecoveredJob]) -> Vec<Json> {
    let mut records = Vec::new();
    for job in jobs {
        let submit = submit_record(
            job.id,
            &job.spec,
            job.priority,
            &job.client,
            job.idempotency_key.as_deref(),
        );
        records.push(match &job.study {
            Some(study) => with_study(submit, study),
            None => submit,
        });
        for _ in 0..job.preemptions {
            records.push(preempt_record(job.id));
        }
        match &job.terminal {
            Some((state, error)) => {
                records.push(done_record(job.id, state, error.as_deref(), job.progress));
            }
            None => {
                if job.started {
                    records.push(start_record(job.id));
                }
                for cell in &job.cells {
                    records.push(cell_record(job.id, cell));
                }
            }
        }
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfi_campaign::journal::{replay_file, Journal};
    use std::path::PathBuf;

    fn temp_journal(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sfi-journal-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir.join(JOURNAL_FILE)
    }

    fn demo_spec() -> Json {
        Json::obj([
            ("name", Json::Str("demo".into())),
            ("seed", Json::Str("42".into())),
        ])
    }

    fn cell_doc(index: u64) -> Json {
        Json::obj([
            ("cell", Json::Num(index as f64)),
            ("stopped_early", Json::Bool(false)),
        ])
    }

    fn progress(completed_cells: usize, total_cells: usize, executed_trials: usize) -> Progress {
        Progress {
            completed_cells,
            total_cells,
            executed_trials,
        }
    }

    /// A `done` record as journals written before it carried counters
    /// hold it.
    fn bare_done_record(job: u64, state: &str) -> Json {
        Json::obj([
            ("kind", Json::Str("done".into())),
            ("job", Json::Str(job.to_string())),
            ("state", Json::Str(state.into())),
        ])
    }

    #[test]
    fn records_round_trip_through_the_file() {
        let path = temp_journal("roundtrip");
        let journal = Journal::open(&path).expect("opens");
        let records = [
            submit_record(1, &demo_spec(), Priority::High, "alice", Some("k1")),
            start_record(1),
            cell_record(1, &cell_doc(0)),
            preempt_record(1),
            done_record(1, "done", None, progress(1, 1, 4)),
            done_record(2, "failed", Some("boom"), progress(0, 3, 0)),
        ];
        for record in &records {
            journal.append(record).expect("appends");
        }
        let replayed = replay_file(&path).expect("replays");
        assert_eq!(replayed, records);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn recover_folds_transitions_per_job() {
        let records = vec![
            submit_record(1, &demo_spec(), Priority::High, "alice", Some("k1")),
            submit_record(2, &demo_spec(), Priority::Normal, "bob", None),
            start_record(1),
            cell_record(1, &cell_doc(0)),
            cell_record(1, &cell_doc(0)), // duplicate: preemption overlap
            cell_record(1, &cell_doc(2)),
            preempt_record(1),
            start_record(2),
            done_record(2, "failed", Some("boom"), progress(0, 2, 0)),
            // Orphan: no submit record for job 9 (crash window).
            cell_record(9, &cell_doc(0)),
        ];
        let jobs = recover(&records);
        assert_eq!(jobs.len(), 2);

        let one = &jobs[0];
        assert_eq!(one.id, 1);
        assert_eq!(one.priority, Priority::High);
        assert_eq!(one.client, "alice");
        assert_eq!(one.idempotency_key.as_deref(), Some("k1"));
        assert_eq!(
            one.cells.len(),
            3,
            "every cell record; the restore filter drops the duplicate"
        );
        assert_eq!(one.preemptions, 1);
        assert!(one.started);
        assert!(one.terminal.is_none());

        let two = &jobs[1];
        assert_eq!(two.id, 2);
        assert_eq!(
            two.terminal,
            Some(("failed".to_string(), Some("boom".to_string())))
        );
    }

    #[test]
    fn rewrite_compacts_and_stays_appendable() {
        let path = temp_journal("rewrite");
        let journal = Journal::open(&path).expect("opens");
        for record in [
            submit_record(1, &demo_spec(), Priority::Normal, "ci", None),
            start_record(1),
            cell_record(1, &cell_doc(0)),
            submit_record(2, &demo_spec(), Priority::Low, "ci", None),
            done_record(2, "done", None, progress(0, 0, 0)),
        ] {
            journal.append(&record).expect("appends");
        }
        drop(journal);

        let jobs = recover(&replay_file(&path).expect("replays"));
        let compact = compaction_records(&jobs);
        let journal = Journal::rewrite(&path, &compact).expect("rewrites");
        journal
            .append(&cell_record(1, &cell_doc(1)))
            .expect("appends");
        drop(journal);

        let jobs = recover(&replay_file(&path).expect("replays"));
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].cells.len(), 2, "compacted cell + new append");
        assert_eq!(jobs[1].terminal, Some(("done".to_string(), None)));
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn a_done_record_without_counters_still_replays() {
        let trials = |n: usize| Json::Arr(vec![Json::Null; n]);
        let cell = |index: u64, n: usize| {
            Json::obj([("cell", Json::Num(index as f64)), ("trials", trials(n))])
        };
        let records = vec![
            submit_record(1, &demo_spec(), Priority::Normal, "ci", None),
            start_record(1),
            cell_record(1, &cell(0, 2)),
            preempt_record(1),
            cell_record(1, &cell(1, 3)),
            bare_done_record(1, "done"),
        ];
        let jobs = recover(&records);
        assert_eq!(jobs[0].terminal, Some(("done".to_string(), None)));
        assert_eq!(jobs[0].progress, progress(2, 2, 5), "counted from cells");

        // Compaction drops the cells but keeps the counters and the
        // preemption, so a second replay reads the same status.
        let compact = compaction_records(&jobs);
        assert!(compact
            .iter()
            .all(|r| r.get("kind") != Some(&Json::Str("cell".into()))));
        let again = recover(&compact);
        assert_eq!(again[0].progress, progress(2, 2, 5));
        assert_eq!(again[0].preemptions, 1);
        assert_eq!(again[0].terminal, jobs[0].terminal);
        assert_eq!(compaction_records(&again), compact);
    }

    #[test]
    fn the_study_of_a_submit_record_survives_compaction() {
        let records = vec![
            with_study(
                submit_record(1, &demo_spec(), Priority::Normal, "ci", None),
                "42",
            ),
            submit_record(2, &demo_spec(), Priority::Normal, "ci", None),
        ];
        let jobs = recover(&records);
        assert_eq!(jobs[0].study.as_deref(), Some("42"));
        assert_eq!(jobs[1].study, None, "a record without the member");
        assert_eq!(compaction_records(&jobs), records);
    }

    #[test]
    fn an_evict_record_replays_as_a_no_op() {
        let records = vec![
            submit_record(1, &demo_spec(), Priority::Normal, "ci", None),
            start_record(1),
            cell_record(1, &cell_doc(0)),
            done_record(1, "done", None, progress(1, 1, 2)),
        ];
        let mut with_evict = records.clone();
        with_evict.push(Json::obj([
            ("kind", Json::Str("evict".into())),
            ("job", Json::Str("1".into())),
        ]));
        let jobs = recover(&with_evict);
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].progress, progress(1, 1, 2));
        assert_eq!(
            compaction_records(&jobs),
            compaction_records(&recover(&records))
        );
    }
}
