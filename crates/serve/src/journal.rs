//! The durable job journal: crash recovery for the serve daemon.
//!
//! The journal is the [`sfi_campaign::journal`] log at
//! `--state-dir/journal.log`: every job transition (`submit`, `start`,
//! `cell`, `preempt`, `done`, `evict`) is appended and fsync'd as one
//! CRC-framed JSON record built here.  On restart the daemon replays the
//! log — tolerating a torn or corrupt final record, which a crash
//! mid-append can leave behind — [folds](recover) the records into per-job
//! recovery state and rewrites the log from [`compaction_records`]:
//! queued jobs come back queued, running jobs come back queued *with their
//! completed cells as seeds* (the engine's `with_seed_cells` re-announces
//! them and simulates only the rest), and terminal jobs keep their status.
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

/// A `done` record: the job reached a terminal state.
pub fn done_record(job: u64, state: &str, error: Option<&str>) -> Json {
    let mut members = base("done", job);
    members.push(("state", Json::Str(state.into())));
    if let Some(error) = error {
        members.push(("error", Json::Str(error.into())));
    }
    Json::obj(members)
}

/// An `evict` record: the retained result was dropped under the byte cap.
pub fn evict_record(job: u64) -> Json {
    Json::obj(base("evict", job))
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
    /// Completed cells (campaign cell codec), deduplicated by cell
    /// index, journal order.  Seeds for the resumed run.
    pub cells: Vec<Json>,
    /// Cooperative preemptions the job had accumulated.
    pub preemptions: u64,
    /// Whether the job had ever been dispatched.
    pub started: bool,
    /// Terminal state and error, when the job had already finished:
    /// `(state, error)` with the wire spelling of [`crate::jobs::JobState`].
    pub terminal: Option<(String, Option<String>)>,
}

/// Folds replayed records into per-job recovery state, id order.
///
/// Records that reference a job with no preceding `submit` record are
/// skipped: a crash between job creation and the submit append can leave
/// such orphans, and the un-acknowledged client will simply resubmit.
pub fn recover(records: &[Json]) -> Vec<RecoveredJob> {
    let mut jobs: BTreeMap<u64, RecoveredJob> = BTreeMap::new();
    let mut seen_cells: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
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
                    cells: Vec::new(),
                    preemptions: 0,
                    started: false,
                    terminal: None,
                });
            }
            "start" => {
                if let Some(job) = jobs.get_mut(&id) {
                    job.started = true;
                }
            }
            "cell" => {
                let (Some(job), Some(cell)) = (jobs.get_mut(&id), record.get("cell")) else {
                    continue;
                };
                let index = cell.get("cell").and_then(Json::as_u64).unwrap_or(u64::MAX);
                let seen = seen_cells.entry(id).or_default();
                if !seen.contains(&index) {
                    seen.push(index);
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
                }
            }
            // Results are not journaled, so eviction needs no replay
            // action: every recovered terminal job reports `evicted`.
            "evict" => {}
            _ => {}
        }
    }
    jobs.into_values().collect()
}

/// The compacted journal records equivalent to `jobs`: one `submit` per
/// job, its `cell` records for live jobs, and the `done` record for
/// terminal ones.
pub fn compaction_records(jobs: &[RecoveredJob]) -> Vec<Json> {
    let mut records = Vec::new();
    for job in jobs {
        records.push(submit_record(
            job.id,
            &job.spec,
            job.priority,
            &job.client,
            job.idempotency_key.as_deref(),
        ));
        match &job.terminal {
            Some((state, error)) => {
                records.push(done_record(job.id, state, error.as_deref()));
            }
            None => {
                if job.started {
                    records.push(start_record(job.id));
                }
                for _ in 0..job.preemptions {
                    records.push(preempt_record(job.id));
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

    #[test]
    fn records_round_trip_through_the_file() {
        let path = temp_journal("roundtrip");
        let journal = Journal::open(&path).expect("opens");
        let records = [
            submit_record(1, &demo_spec(), Priority::High, "alice", Some("k1")),
            start_record(1),
            cell_record(1, &cell_doc(0)),
            preempt_record(1),
            done_record(1, "done", None),
            evict_record(1),
            done_record(2, "failed", Some("boom")),
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
            done_record(2, "failed", Some("boom")),
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
        assert_eq!(one.cells.len(), 2, "cell 0 deduplicated");
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
            done_record(2, "done", None),
            evict_record(2),
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
}
